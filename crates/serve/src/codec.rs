//! Minimal, dependency-free binary codec for snapshot persistence and the
//! wire protocol.
//!
//! Everything is little-endian and length-prefixed; floats are bit-exact
//! (`to_le_bytes`/`from_le_bytes`), so `save → load → save` is byte-for-byte
//! stable. Float and integer slices are converted a whole slice at a time
//! (one reservation or one bounds check, then a branch-free loop over
//! fixed-size chunks), which produces the same bytes as converting one
//! element at a time. Two checksums live here: [`fnv1a`] for the snapshot
//! trailer (its bytes are pinned, so it stays) and [`xxh64`] for the wire
//! frame trailer, where the checksum runs on every request and must keep
//! up with memory.

use crate::{ServeError, ServeResult};
use goggles_tensor::Matrix;

/// Sanity cap for decoded collection lengths (functions, layers, classes).
/// Corrupt-but-plausibly-shaped snapshots must not trigger huge
/// allocations; every variable-length decode path bounds itself by this or
/// by the remaining payload size, whichever is smaller.
pub const MAX_SMALL_LEN: usize = 1 << 20;

/// FNV-1a over a byte slice (the checksum used by the snapshot trailer).
/// Byte-serial (one dependent multiply per byte); the wire uses [`xxh64`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

const XXH_P1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_P3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_P4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_P5: u64 = 0x27D4_EB2F_1656_67C5;

/// One XXH64 lane step: fold a 64-bit word into an accumulator.
fn xxh_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(XXH_P2)).rotate_left(31).wrapping_mul(XXH_P1)
}

/// Fold a finished lane accumulator into the converged hash.
fn xxh_merge(h: u64, lane: u64) -> u64 {
    (h ^ xxh_round(0, lane)).wrapping_mul(XXH_P1).wrapping_add(XXH_P4)
}

/// XXH64 with seed 0 (the checksum of the wire frame trailer). Four
/// independent multiply–rotate lanes consume 32-byte stripes, so it runs at
/// memory speed rather than one multiply per byte, and the final avalanche
/// makes every input bit reach every output bit: a single bit flip anywhere
/// always changes the hash.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let (words, rest) = bytes.as_chunks::<8>();
    let (stripes, tail_words) = words.as_chunks::<4>();
    let mut h = if stripes.is_empty() {
        XXH_P5
    } else {
        let mut lanes = [XXH_P1.wrapping_add(XXH_P2), XXH_P2, 0, 0u64.wrapping_sub(XXH_P1)];
        for stripe in stripes {
            for (lane, word) in lanes.iter_mut().zip(stripe) {
                *lane = xxh_round(*lane, u64::from_le_bytes(*word));
            }
        }
        let [v1, v2, v3, v4] = lanes;
        let h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        lanes.iter().fold(h, |h, &lane| xxh_merge(h, lane))
    };
    h = h.wrapping_add(bytes.len() as u64);
    for word in tail_words {
        h ^= xxh_round(0, u64::from_le_bytes(*word));
        h = h.rotate_left(27).wrapping_mul(XXH_P1).wrapping_add(XXH_P4);
    }
    let (halves, bytes_left) = rest.as_chunks::<4>();
    for half in halves {
        h ^= u64::from(u32::from_le_bytes(*half)).wrapping_mul(XXH_P1);
        h = h.rotate_left(23).wrapping_mul(XXH_P2).wrapping_add(XXH_P3);
    }
    for &b in bytes_left {
        h ^= u64::from(b).wrapping_mul(XXH_P5);
        h = h.rotate_left(11).wrapping_mul(XXH_P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(XXH_P2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_P3);
    h ^ (h >> 32)
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

    /// Append every value of `vs` as `N` little-endian bytes: one resize,
    /// then a loop over fixed-size chunks that compiles to a straight copy
    /// on little-endian targets. Same bytes as `N`-byte pushes one by one.
    fn put_le_slice<T: Copy, const N: usize>(&mut self, vs: &[T], to_le: fn(T) -> [u8; N]) {
        let start = self.buf.len();
        self.buf.resize(start + N * vs.len(), 0);
        let (dst, _) = self.buf.get_mut(start..).unwrap_or_default().as_chunks_mut::<N>();
        for (d, &v) in dst.iter_mut().zip(vs) {
            *d = to_le(v);
        }
    }

    /// Length-prefixed `usize` slice.
    pub(crate) fn put_usize_slice(&mut self, vs: &[usize]) {
        self.put_usize(vs.len());
        self.put_le_slice(vs, |v| (v as u64).to_le_bytes());
    }

    /// Length-prefixed `f64` slice.
    pub(crate) fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_usize(vs.len());
        self.put_le_slice(vs, f64::to_le_bytes);
    }

    /// Shape-prefixed `f64` matrix (row-major payload).
    pub(crate) fn put_matrix_f64(&mut self, m: &Matrix<f64>) {
        self.put_usize(m.rows());
        self.put_usize(m.cols());
        self.put_le_slice(m.as_slice(), f64::to_le_bytes);
    }

    /// Shape-prefixed `f32` matrix (row-major payload).
    pub(crate) fn put_matrix_f32(&mut self, m: &Matrix<f32>) {
        self.put_usize(m.rows());
        self.put_usize(m.cols());
        self.put_le_slice(m.as_slice(), f32::to_le_bytes);
    }

    /// Raw (no length prefix) `f32` payload — wire image pixels, whose
    /// count the frame implies from the image shape.
    pub(crate) fn put_f32_slice_raw(&mut self, vs: &[f32]) {
        self.put_le_slice(vs, f32::to_le_bytes);
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
                "unexpected end of input: wanted {n} bytes at offset {}, {} left",
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

    pub fn get_usize_slice(&mut self) -> ServeResult<Vec<usize>> {
        let n = self.get_len(self.remaining() / 8)?;
        (0..n).map(|_| self.get_usize()).collect()
    }

    pub fn get_f64_slice(&mut self) -> ServeResult<Vec<f64>> {
        let n = self.get_len(self.remaining() / 8)?;
        self.get_le_vec(n, f64::from_le_bytes)
    }

    /// Exactly `len` values of `N` little-endian bytes each, converted a
    /// whole slice at a time. Bounded by the remaining input before any
    /// allocation.
    fn get_le_vec<T, const N: usize>(
        &mut self,
        len: usize,
        from_le: fn([u8; N]) -> T,
    ) -> ServeResult<Vec<T>> {
        if len > self.remaining() / N {
            return Err(ServeError::Snapshot(format!(
                "{len} values of {N} bytes at offset {} overrun the {} bytes left",
                self.pos,
                self.remaining()
            )));
        }
        let (chunks, _) = self.take(len * N)?.as_chunks::<N>();
        Ok(chunks.iter().map(|&c| from_le(c)).collect())
    }

    /// Shape prefix of a matrix: `rows`, `cols` and their product.
    fn get_matrix_shape(&mut self) -> ServeResult<(usize, usize, usize)> {
        let rows = self.get_usize()?;
        let cols = self.get_usize()?;
        let len = rows
            .checked_mul(cols)
            .ok_or_else(|| ServeError::Snapshot(format!("matrix shape {rows}×{cols} overflows")))?;
        Ok((rows, cols, len))
    }

    pub fn get_matrix_f64(&mut self) -> ServeResult<Matrix<f64>> {
        let (rows, cols, len) = self.get_matrix_shape()?;
        let data = self.get_le_vec(len, f64::from_le_bytes)?;
        Matrix::from_vec(rows, cols, data)
            .map_err(|e| ServeError::Snapshot(format!("matrix decode: {e}")))
    }

    pub fn get_matrix_f32(&mut self) -> ServeResult<Matrix<f32>> {
        let (rows, cols, len) = self.get_matrix_shape()?;
        let data = self.get_le_vec(len, f32::from_le_bytes)?;
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
        self.get_le_vec(len, f32::from_le_bytes)
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
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
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
    fn xxh64_known_answers() {
        // Checked against an independent implementation of the XXH64
        // specification; the 39-byte string covers one full stripe, the
        // 1000-byte pattern 31 stripes and an 8-byte tail.
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(xxh64(b"Nobody inspects the spammish repetition"), 0xfbce_a83c_8a37_8bf1);
        let pattern: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        assert_eq!(xxh64(&pattern), 0x5f23_5fa0_33f1_a3fb);
    }

    #[test]
    fn bulk_slices_write_the_same_bytes_as_scalars() {
        let f64s = [0.5, -0.0, f64::MIN_POSITIVE, f64::NAN, 1e300];
        let f32s = [0.25f32, -0.0, f32::MAX, f32::NAN, 1e-40];
        let mut bulk = Writer::new();
        bulk.put_f64_slice(&f64s);
        bulk.put_f32_slice_raw(&f32s);
        bulk.put_usize_slice(&[3, usize::MAX]);
        let mut scalar = Writer::new();
        scalar.put_usize(f64s.len());
        f64s.iter().for_each(|v| scalar.put_bytes(&v.to_le_bytes()));
        f32s.iter().for_each(|v| scalar.put_bytes(&v.to_le_bytes()));
        scalar.put_usize(2);
        scalar.put_u64(3);
        scalar.put_u64(u64::MAX);
        assert_eq!(bulk.as_bytes(), scalar.as_bytes());
        let bytes = bulk.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = r.get_f64_slice().unwrap();
        assert!(back.iter().zip(&f64s).all(|(a, b)| a.to_bits() == b.to_bits()));
        let back = r.get_f32_vec(f32s.len()).unwrap();
        assert!(back.iter().zip(&f32s).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(r.get_usize_slice().unwrap(), vec![3, usize::MAX]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        let a = fnv1a(b"goggles");
        assert_eq!(a, fnv1a(b"goggles"));
        assert_ne!(a, fnv1a(b"goggleS"));
    }
}
