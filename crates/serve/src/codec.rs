//! Minimal, dependency-free binary codec for snapshot persistence and the
//! wire protocol.
//!
//! Everything is little-endian and length-prefixed; floats are bit-exact
//! (`to_le_bytes`/`from_le_bytes`), so `save → load → save` is byte-for-byte
//! stable. A trailing FNV-1a checksum over the payload catches truncation
//! and bit rot at load time.

use crate::{ServeError, ServeResult};
use goggles_tensor::Matrix;

/// Sanity cap for decoded collection lengths (functions, layers, classes).
/// Corrupt-but-plausibly-shaped snapshots must not trigger huge
/// allocations; every variable-length decode path bounds itself by this or
/// by the remaining payload size, whichever is smaller.
pub const MAX_SMALL_LEN: usize = 1 << 20;

/// FNV-1a over a byte slice (the checksum used by the snapshot trailer).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Append-only byte sink.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish and return the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    pub(crate) fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub(crate) fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    pub(crate) fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed `usize` slice.
    pub(crate) fn put_usize_slice(&mut self, vs: &[usize]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_usize(v);
        }
    }

    /// Length-prefixed `f64` slice.
    pub(crate) fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Shape-prefixed `f64` matrix (row-major payload).
    pub(crate) fn put_matrix_f64(&mut self, m: &Matrix<f64>) {
        self.put_usize(m.rows());
        self.put_usize(m.cols());
        for &v in m.as_slice() {
            self.put_f64(v);
        }
    }

    /// Shape-prefixed `f32` matrix (row-major payload).
    pub(crate) fn put_matrix_f32(&mut self, m: &Matrix<f32>) {
        self.put_usize(m.rows());
        self.put_usize(m.cols());
        for &v in m.as_slice() {
            self.put_f32(v);
        }
    }

    /// Raw (no length prefix) `f32` payload — wire image pixels, whose
    /// count the frame implies from the image shape.
    pub(crate) fn put_f32_slice_raw(&mut self, vs: &[f32]) {
        for &v in vs {
            self.put_f32(v);
        }
    }
}

/// Cursor over a byte slice with checked reads.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn take(&mut self, n: usize) -> ServeResult<&'a [u8]> {
        let Some(out) = self.pos.checked_add(n).and_then(|end| self.buf.get(self.pos..end)) else {
            return Err(ServeError::Snapshot(format!(
                "unexpected end of snapshot: wanted {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            )));
        };
        self.pos += n;
        Ok(out)
    }

    /// `take` with the length known at compile time, as an array — the
    /// building block for the fixed-width `get_*` decoders below, with no
    /// slice-to-array conversion that could panic.
    fn take_array<const N: usize>(&mut self) -> ServeResult<[u8; N]> {
        self.take(N)?.try_into().map_err(|_| {
            ServeError::Snapshot(format!("internal: take({N}) returned a mis-sized slice"))
        })
    }

    pub fn get_u8(&mut self) -> ServeResult<u8> {
        let [b] = self.take_array::<1>()?;
        Ok(b)
    }

    pub fn get_bool(&mut self) -> ServeResult<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(ServeError::Snapshot(format!("invalid bool byte {v}"))),
        }
    }

    pub fn get_u32(&mut self) -> ServeResult<u32> {
        Ok(u32::from_le_bytes(self.take_array::<4>()?))
    }

    pub(crate) fn get_u64(&mut self) -> ServeResult<u64> {
        Ok(u64::from_le_bytes(self.take_array::<8>()?))
    }

    pub(crate) fn get_usize(&mut self) -> ServeResult<usize> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| ServeError::Snapshot(format!("length {v} exceeds usize")))
    }

    /// A `usize` that is also sanity-bounded (corrupt snapshots must not
    /// trigger huge allocations).
    pub fn get_len(&mut self, max: usize) -> ServeResult<usize> {
        let v = self.get_usize()?;
        if v > max {
            return Err(ServeError::Snapshot(format!(
                "implausible length {v} (cap {max}) at offset {}",
                self.pos
            )));
        }
        Ok(v)
    }

    pub fn get_f64(&mut self) -> ServeResult<f64> {
        Ok(f64::from_le_bytes(self.take_array::<8>()?))
    }

    pub fn get_f32(&mut self) -> ServeResult<f32> {
        Ok(f32::from_le_bytes(self.take_array::<4>()?))
    }

    pub fn get_usize_slice(&mut self) -> ServeResult<Vec<usize>> {
        let n = self.get_len(self.remaining() / 8)?;
        (0..n).map(|_| self.get_usize()).collect()
    }

    pub fn get_f64_slice(&mut self) -> ServeResult<Vec<f64>> {
        let n = self.get_len(self.remaining() / 8)?;
        (0..n).map(|_| self.get_f64()).collect()
    }

    pub fn get_matrix_f64(&mut self) -> ServeResult<Matrix<f64>> {
        let rows = self.get_usize()?;
        let cols = self.get_usize()?;
        let len = rows
            .checked_mul(cols)
            .ok_or_else(|| ServeError::Snapshot(format!("matrix shape {rows}×{cols} overflows")))?;
        if len > self.remaining() / 8 {
            return Err(ServeError::Snapshot(format!(
                "matrix {rows}×{cols} larger than remaining snapshot"
            )));
        }
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            data.push(self.get_f64()?);
        }
        Matrix::from_vec(rows, cols, data)
            .map_err(|e| ServeError::Snapshot(format!("matrix decode: {e}")))
    }

    pub fn get_matrix_f32(&mut self) -> ServeResult<Matrix<f32>> {
        let rows = self.get_usize()?;
        let cols = self.get_usize()?;
        let len = rows
            .checked_mul(cols)
            .ok_or_else(|| ServeError::Snapshot(format!("matrix shape {rows}×{cols} overflows")))?;
        if len > self.remaining() / 4 {
            return Err(ServeError::Snapshot(format!(
                "matrix {rows}×{cols} larger than remaining snapshot"
            )));
        }
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            data.push(self.get_f32()?);
        }
        Matrix::from_vec(rows, cols, data)
            .map_err(|e| ServeError::Snapshot(format!("matrix decode: {e}")))
    }

    /// A `u32` length that is also sanity-bounded — the counterpart of
    /// [`Reader::get_len`] for `u32` fields (wire image shapes and counts).
    pub fn get_len_u32(&mut self, max: usize) -> ServeResult<usize> {
        let v = self.get_u32()? as usize;
        if v > max {
            return Err(ServeError::Snapshot(format!(
                "implausible length {v} (cap {max}) at offset {}",
                self.pos
            )));
        }
        Ok(v)
    }

    /// Exactly `len` raw `f32`s (no prefix; the caller implies the length).
    /// Bounded by the remaining payload before any allocation.
    pub fn get_f32_vec(&mut self, len: usize) -> ServeResult<Vec<f32>> {
        if len > self.remaining() / 4 {
            return Err(ServeError::Snapshot(format!(
                "f32 payload of {len} values larger than remaining snapshot"
            )));
        }
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            data.push(self.get_f32()?);
        }
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_f64(-0.125);
        w.put_f32(3.5);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f64().unwrap(), -0.125);
        assert_eq!(r.get_f32().unwrap(), 3.5);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn slice_and_matrix_round_trip() {
        let mut w = Writer::new();
        w.put_usize_slice(&[1, 0, 99]);
        w.put_f64_slice(&[0.5, -2.0]);
        let m = Matrix::from_rows(&[&[1.0f64, 2.0], &[3.0, 4.0]]);
        w.put_matrix_f64(&m);
        let mf = Matrix::from_rows(&[&[0.5f32, -0.5]]);
        w.put_matrix_f32(&mf);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_usize_slice().unwrap(), vec![1, 0, 99]);
        assert_eq!(r.get_f64_slice().unwrap(), vec![0.5, -2.0]);
        assert_eq!(r.get_matrix_f64().unwrap(), m);
        assert_eq!(r.get_matrix_f32().unwrap(), mf);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.put_f64_slice(&[1.0, 2.0, 3.0]);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(r.get_f64_slice().is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn implausible_lengths_rejected() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX); // absurd length prefix
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.get_usize_slice().is_err());
    }

    #[test]
    fn raw_f32_payloads_round_trip_and_are_bounded() {
        let xs = [0.5f32, -0.25, 0.0, 1.0, f32::MIN_POSITIVE];
        let mut w = Writer::new();
        w.put_f32_slice_raw(&xs);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_f32_vec(xs.len()).unwrap(), xs);
        assert_eq!(r.remaining(), 0);
        // truncated payloads are errors (bounded before allocation), not panics
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(r.get_f32_vec(xs.len()).is_err(), "cut {cut}");
        }
        // oversized requested lengths are rejected before allocating
        let mut r = Reader::new(&bytes);
        assert!(r.get_f32_vec(usize::MAX / 8).is_err());
    }

    #[test]
    fn u32_lengths_are_bounded() {
        let mut w = Writer::new();
        w.put_u32(10);
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_len_u32(MAX_SMALL_LEN).unwrap(), 10);
        assert!(r.get_len_u32(MAX_SMALL_LEN).is_err(), "cap must reject u32::MAX");
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        let a = fnv1a(b"goggles");
        assert_eq!(a, fnv1a(b"goggles"));
        assert_ne!(a, fnv1a(b"goggleS"));
    }
}
