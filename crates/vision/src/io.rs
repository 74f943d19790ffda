//! Minimal netpbm image output: binary PPM (P6, color) and PGM (P5, grayscale).
//!
//! Lets users inspect the synthetic datasets with any image viewer without
//! adding an image-codec dependency.

use crate::image::Image;
use std::io::Write as _;
use std::path::Path;

/// Errors from netpbm encoding/decoding.
#[derive(Debug)]
// goggles-lint: allow(dead-pub): error type of the pub write_pnm API: external callers name it only through `?`/inference
pub enum PnmError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed or unsupported file content.
    Format(String),
    /// Image shape unsupported by the requested format.
    Unsupported(String),
}

impl std::fmt::Display for PnmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PnmError::Io(e) => write!(f, "io error: {e}"),
            PnmError::Format(msg) => write!(f, "format error: {msg}"),
            PnmError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
        }
    }
}

impl std::error::Error for PnmError {}

impl From<std::io::Error> for PnmError {
    fn from(e: std::io::Error) -> Self {
        PnmError::Io(e)
    }
}

/// Write an image as binary PPM (3-channel) or PGM (1-channel), 8-bit,
/// values clamped to `[0, 1]` then scaled to 0–255.
pub fn write_pnm(img: &Image, path: &Path) -> Result<(), PnmError> {
    let (c, h, w) = img.shape();
    let (magic, channels) = match c {
        1 => ("P5", 1usize),
        3 => ("P6", 3usize),
        other => {
            return Err(PnmError::Unsupported(format!(
                "netpbm supports 1 or 3 channels, image has {other}"
            )))
        }
    };
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    write!(out, "{magic}\n{w} {h}\n255\n")?;
    let mut buf = Vec::with_capacity(h * w * channels);
    for y in 0..h {
        for x in 0..w {
            for ch in 0..channels {
                let v = img.get(ch, y, x).clamp(0.0, 1.0);
                buf.push((v * 255.0).round() as u8);
            }
        }
    }
    out.write_all(&buf)?;
    out.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::draw;
    use std::io::Read as _;

    /// The test oracle for [`write_pnm`]: read a binary PPM (P6) or PGM (P5)
    /// file into an [`Image`] with values scaled to `[0, 1]`. Comments (`#`)
    /// in the header are honoured.
    fn read_pnm(path: &Path) -> Result<Image, PnmError> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        let mut pos = 0usize;

        let mut next_token = |bytes: &[u8]| -> Result<String, PnmError> {
            // skip whitespace and comments
            loop {
                while pos < bytes.len() && bytes[pos].is_ascii_whitespace() {
                    pos += 1;
                }
                if pos < bytes.len() && bytes[pos] == b'#' {
                    while pos < bytes.len() && bytes[pos] != b'\n' {
                        pos += 1;
                    }
                } else {
                    break;
                }
            }
            let start = pos;
            while pos < bytes.len() && !bytes[pos].is_ascii_whitespace() {
                pos += 1;
            }
            if start == pos {
                return Err(PnmError::Format("unexpected end of header".into()));
            }
            Ok(String::from_utf8_lossy(&bytes[start..pos]).into_owned())
        };

        let magic = next_token(&bytes)?;
        let channels = match magic.as_str() {
            "P5" => 1usize,
            "P6" => 3usize,
            other => return Err(PnmError::Format(format!("unsupported magic {other:?}"))),
        };
        let parse = |tok: String| -> Result<usize, PnmError> {
            tok.parse::<usize>().map_err(|_| PnmError::Format(format!("bad header token {tok:?}")))
        };
        let w = parse(next_token(&bytes)?)?;
        let h = parse(next_token(&bytes)?)?;
        let maxval = parse(next_token(&bytes)?)?;
        if maxval == 0 || maxval > 255 {
            return Err(PnmError::Format(format!("unsupported maxval {maxval}")));
        }
        // exactly one whitespace byte separates header from raster
        pos += 1;
        let needed = w * h * channels;
        if bytes.len() < pos + needed {
            return Err(PnmError::Format(format!(
                "raster truncated: need {needed} bytes, have {}",
                bytes.len().saturating_sub(pos)
            )));
        }
        let mut img = Image::new(channels, h, w);
        let scale = 1.0 / maxval as f32;
        let mut i = pos;
        for y in 0..h {
            for x in 0..w {
                for ch in 0..channels {
                    img.set(ch, y, x, bytes[i] as f32 * scale);
                    i += 1;
                }
            }
        }
        Ok(img)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("goggles_pnm_{}_{name}", std::process::id()))
    }

    #[test]
    fn ppm_round_trip_color() {
        let mut img = Image::new(3, 9, 7);
        draw::fill_disc(&mut img, 4.0, 3.0, 2.0, &[1.0, 0.5, 0.25]);
        let path = tmp("rt.ppm");
        write_pnm(&img, &path).unwrap();
        let back = read_pnm(&path).unwrap();
        assert_eq!(back.shape(), (3, 9, 7));
        // 8-bit quantization: within 1/255
        for (a, b) in img.tensor().as_slice().iter().zip(back.tensor().as_slice()) {
            assert!((a - b).abs() <= 1.0 / 255.0 + 1e-6, "{a} vs {b}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pgm_round_trip_grayscale() {
        let mut img = Image::new(1, 5, 5);
        img.set(0, 2, 2, 0.7);
        let path = tmp("rt.pgm");
        write_pnm(&img, &path).unwrap();
        let back = read_pnm(&path).unwrap();
        assert_eq!(back.channels(), 1);
        assert!((back.get(0, 2, 2) - 0.7).abs() < 1.0 / 255.0 + 1e-6);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_two_channel_images() {
        let img = Image::new(2, 3, 3);
        let err = write_pnm(&img, &tmp("bad.ppm")).unwrap_err();
        assert!(matches!(err, PnmError::Unsupported(_)));
    }

    #[test]
    fn header_comments_are_skipped() {
        let path = tmp("comment.pgm");
        std::fs::write(&path, b"P5\n# a comment\n2 2\n255\n\x00\x40\x80\xff").unwrap();
        let img = read_pnm(&path).unwrap();
        assert_eq!(img.shape(), (1, 2, 2));
        assert!((img.get(0, 1, 1) - 1.0).abs() < 1e-6);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_raster_is_rejected() {
        let path = tmp("trunc.pgm");
        std::fs::write(&path, b"P5\n4 4\n255\n\x00\x01").unwrap();
        assert!(matches!(read_pnm(&path), Err(PnmError::Format(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn values_clamp_on_write() {
        let mut img = Image::new(1, 1, 2);
        img.set(0, 0, 0, 1.7);
        img.set(0, 0, 1, -0.3);
        let path = tmp("clamp.pgm");
        write_pnm(&img, &path).unwrap();
        let back = read_pnm(&path).unwrap();
        assert_eq!(back.get(0, 0, 0), 1.0);
        assert_eq!(back.get(0, 0, 1), 0.0);
        std::fs::remove_file(&path).ok();
    }
}
