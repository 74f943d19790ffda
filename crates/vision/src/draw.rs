//! Procedural drawing primitives used by the synthetic dataset generators.
//!
//! All shapes take floating-point centers/sizes so generators can jitter
//! positions continuously, and every routine clips against the image bounds
//! so callers may place evidence partially off-frame (as real photographs
//! do). Coordinates are `(y, x)` with `y` down.

use crate::image::Image;

/// Fill an axis-aligned rectangle `[y0, y1) × [x0, x1)` (clipped).
pub fn fill_rect(img: &mut Image, y0: i32, x0: i32, y1: i32, x1: i32, color: &[f32]) {
    let h = img.height() as i32;
    let w = img.width() as i32;
    let ys = y0.max(0)..y1.min(h);
    for y in ys {
        for x in x0.max(0)..x1.min(w) {
            img.set_pixel(y as usize, x as usize, color);
        }
    }
}

/// Fill a disc of radius `r` centered at `(cy, cx)`, with 1-pixel soft edge.
pub fn fill_disc(img: &mut Image, cy: f32, cx: f32, r: f32, color: &[f32]) {
    blend_disc(img, cy, cx, r, color, 1.0);
}

/// Alpha-blend a disc over the image (soft 1-pixel antialiased rim).
pub fn blend_disc(img: &mut Image, cy: f32, cx: f32, r: f32, color: &[f32], alpha: f32) {
    let h = img.height() as i32;
    let w = img.width() as i32;
    let y0 = ((cy - r).floor() as i32 - 1).max(0);
    let y1 = ((cy + r).ceil() as i32 + 1).min(h);
    let x0 = ((cx - r).floor() as i32 - 1).max(0);
    let x1 = ((cx + r).ceil() as i32 + 1).min(w);
    for y in y0..y1 {
        for x in x0..x1 {
            let dy = y as f32 - cy;
            let dx = x as f32 - cx;
            let d = (dy * dy + dx * dx).sqrt();
            // 1 inside, 0 outside, linear ramp across the last pixel.
            let cov = (r - d + 0.5).clamp(0.0, 1.0);
            if cov > 0.0 {
                img.blend_pixel(y as usize, x as usize, color, alpha * cov);
            }
        }
    }
}

/// Draw an annulus (ring) with inner radius `r_in` and outer radius `r_out`.
pub fn fill_ring(img: &mut Image, cy: f32, cx: f32, r_in: f32, r_out: f32, color: &[f32]) {
    assert!(r_out >= r_in, "fill_ring: r_out < r_in");
    let h = img.height() as i32;
    let w = img.width() as i32;
    let y0 = ((cy - r_out).floor() as i32 - 1).max(0);
    let y1 = ((cy + r_out).ceil() as i32 + 1).min(h);
    let x0 = ((cx - r_out).floor() as i32 - 1).max(0);
    let x1 = ((cx + r_out).ceil() as i32 + 1).min(w);
    for y in y0..y1 {
        for x in x0..x1 {
            let dy = y as f32 - cy;
            let dx = x as f32 - cx;
            let d = (dy * dy + dx * dx).sqrt();
            let cov_outer = (r_out - d + 0.5).clamp(0.0, 1.0);
            let cov_inner = (r_in - d + 0.5).clamp(0.0, 1.0);
            let cov = cov_outer - cov_inner;
            if cov > 0.0 {
                img.blend_pixel(y as usize, x as usize, color, cov);
            }
        }
    }
}

/// Fill an axis-aligned ellipse.
pub fn fill_ellipse(img: &mut Image, cy: f32, cx: f32, ry: f32, rx: f32, color: &[f32]) {
    blend_ellipse(img, cy, cx, ry, rx, color, 1.0);
}

/// Alpha-blend an axis-aligned ellipse with a soft rim.
pub(crate) fn blend_ellipse(
    img: &mut Image,
    cy: f32,
    cx: f32,
    ry: f32,
    rx: f32,
    color: &[f32],
    alpha: f32,
) {
    let h = img.height() as i32;
    let w = img.width() as i32;
    let y0 = ((cy - ry).floor() as i32 - 1).max(0);
    let y1 = ((cy + ry).ceil() as i32 + 1).min(h);
    let x0 = ((cx - rx).floor() as i32 - 1).max(0);
    let x1 = ((cx + rx).ceil() as i32 + 1).min(w);
    let ry = ry.max(0.5);
    let rx = rx.max(0.5);
    for y in y0..y1 {
        for x in x0..x1 {
            let ny = (y as f32 - cy) / ry;
            let nx = (x as f32 - cx) / rx;
            let d = (ny * ny + nx * nx).sqrt();
            // normalized distance; soften over ~1 pixel of the minor axis
            let soft = 1.0 / ry.min(rx);
            let cov = ((1.0 - d) / soft + 0.5).clamp(0.0, 1.0);
            if cov > 0.0 {
                img.blend_pixel(y as usize, x as usize, color, alpha * cov);
            }
        }
    }
}

/// Draw a line segment of the given thickness from `(y0, x0)` to `(y1, x1)`.
pub fn draw_line(
    img: &mut Image,
    y0: f32,
    x0: f32,
    y1: f32,
    x1: f32,
    thickness: f32,
    color: &[f32],
) {
    let len = ((y1 - y0).powi(2) + (x1 - x0).powi(2)).sqrt().max(1e-6);
    let steps = (len * 2.0).ceil() as usize + 1;
    let r = (thickness / 2.0).max(0.5);
    for s in 0..steps {
        let t = s as f32 / (steps - 1).max(1) as f32;
        let y = y0 + t * (y1 - y0);
        let x = x0 + t * (x1 - x0);
        blend_disc(img, y, x, r, color, 1.0);
    }
}

/// Fill a convex polygon given by vertices `(y, x)` using the even-odd rule
/// per scanline (works for any simple polygon).
pub fn fill_polygon(img: &mut Image, vertices: &[(f32, f32)], color: &[f32]) {
    if vertices.len() < 3 {
        return;
    }
    let h = img.height() as i32;
    let w = img.width() as i32;
    let min_y = vertices.iter().map(|v| v.0).fold(f32::INFINITY, f32::min).floor() as i32;
    let max_y = vertices.iter().map(|v| v.0).fold(f32::NEG_INFINITY, f32::max).ceil() as i32;
    for y in min_y.max(0)..(max_y + 1).min(h) {
        let fy = y as f32 + 0.5;
        // Collect x-crossings of the scanline with every edge.
        let mut xs: Vec<f32> = Vec::with_capacity(vertices.len());
        for i in 0..vertices.len() {
            let (ay, ax) = vertices[i];
            let (by, bx) = vertices[(i + 1) % vertices.len()];
            if (ay <= fy && by > fy) || (by <= fy && ay > fy) {
                let t = (fy - ay) / (by - ay);
                xs.push(ax + t * (bx - ax));
            }
        }
        xs.sort_by(|a, b| a.total_cmp(b));
        for pair in xs.chunks_exact(2) {
            let x_start = pair[0].round().max(0.0) as i32;
            let x_end = pair[1].round().min(w as f32) as i32;
            for x in x_start..x_end {
                img.set_pixel(y as usize, x as usize, color);
            }
        }
    }
}

/// Fill a regular `sides`-gon with circumradius `r`, rotated by `rot` rad.
pub fn fill_regular_polygon(
    img: &mut Image,
    cy: f32,
    cx: f32,
    r: f32,
    sides: usize,
    rot: f32,
    color: &[f32],
) {
    assert!(sides >= 3, "need at least 3 sides");
    let verts: Vec<(f32, f32)> = (0..sides)
        .map(|i| {
            let a = rot + std::f32::consts::TAU * i as f32 / sides as f32;
            (cy + r * a.sin(), cx + r * a.cos())
        })
        .collect();
    fill_polygon(img, &verts, color);
}

/// Paint parallel stripes across the whole image at angle `theta`
/// (radians), alternating `color_a`/`color_b` with the given period
/// (pixels). Used for plumage/texture patterns.
pub fn fill_stripes(
    img: &mut Image,
    theta: f32,
    period: f32,
    duty: f32,
    color: &[f32],
    alpha: f32,
) {
    let (sin_t, cos_t) = theta.sin_cos();
    let period = period.max(1.0);
    let duty = duty.clamp(0.05, 0.95);
    for y in 0..img.height() {
        for x in 0..img.width() {
            let proj = y as f32 * sin_t + x as f32 * cos_t;
            let phase = (proj / period).fract().abs();
            if phase < duty {
                img.blend_pixel(y, x, color, alpha);
            }
        }
    }
}

/// Paint stripes only inside a disc region (e.g. wing bars on a bird body).
#[allow(clippy::too_many_arguments)]
pub fn fill_stripes_in_disc(
    img: &mut Image,
    cy: f32,
    cx: f32,
    r: f32,
    theta: f32,
    period: f32,
    color: &[f32],
    alpha: f32,
) {
    let (sin_t, cos_t) = theta.sin_cos();
    let period = period.max(1.0);
    let h = img.height() as i32;
    let w = img.width() as i32;
    let y0 = ((cy - r).floor() as i32).max(0);
    let y1 = ((cy + r).ceil() as i32 + 1).min(h);
    let x0 = ((cx - r).floor() as i32).max(0);
    let x1 = ((cx + r).ceil() as i32 + 1).min(w);
    for y in y0..y1 {
        for x in x0..x1 {
            let dy = y as f32 - cy;
            let dx = x as f32 - cx;
            if dy * dy + dx * dx > r * r {
                continue;
            }
            let proj = dy * sin_t + dx * cos_t;
            if (proj / period).rem_euclid(1.0) < 0.5 {
                img.blend_pixel(y as usize, x as usize, color, alpha);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gray(img: &Image) -> f32 {
        img.mean()
    }

    #[test]
    fn fill_rect_clips_and_paints() {
        let mut img = Image::new(1, 8, 8);
        fill_rect(&mut img, -2, -2, 4, 4, &[1.0]);
        // only the 4x4 in-bounds region painted
        assert_eq!(img.get(0, 0, 0), 1.0);
        assert_eq!(img.get(0, 3, 3), 1.0);
        assert_eq!(img.get(0, 4, 4), 0.0);
        assert!((gray(&img) - 16.0 / 64.0).abs() < 1e-6);
    }

    #[test]
    fn disc_center_is_set_and_far_pixels_are_not() {
        let mut img = Image::new(1, 16, 16);
        fill_disc(&mut img, 8.0, 8.0, 3.0, &[1.0]);
        assert_eq!(img.get(0, 8, 8), 1.0);
        assert_eq!(img.get(0, 0, 0), 0.0);
        assert_eq!(img.get(0, 8, 14), 0.0);
    }

    #[test]
    fn disc_area_approximates_pi_r_squared() {
        let mut img = Image::new(1, 64, 64);
        fill_disc(&mut img, 32.0, 32.0, 10.0, &[1.0]);
        let area: f32 = img.tensor().channel(0).iter().sum();
        let expect = std::f32::consts::PI * 100.0;
        assert!((area - expect).abs() / expect < 0.05, "area = {area}, expect = {expect}");
    }

    #[test]
    fn ring_leaves_hole() {
        let mut img = Image::new(1, 32, 32);
        fill_ring(&mut img, 16.0, 16.0, 5.0, 9.0, &[1.0]);
        assert_eq!(img.get(0, 16, 16), 0.0); // center empty
        assert!(img.get(0, 16, 23) > 0.5); // on the band
        assert_eq!(img.get(0, 16, 29), 0.0); // outside
    }

    #[test]
    fn ellipse_respects_axes() {
        let mut img = Image::new(1, 32, 32);
        fill_ellipse(&mut img, 16.0, 16.0, 4.0, 10.0, &[1.0]);
        assert!(img.get(0, 16, 24) > 0.5); // along x within rx
        assert_eq!(img.get(0, 24, 16), 0.0); // along y beyond ry
    }

    #[test]
    fn line_connects_endpoints() {
        let mut img = Image::new(1, 16, 16);
        draw_line(&mut img, 2.0, 2.0, 13.0, 13.0, 1.0, &[1.0]);
        assert!(img.get(0, 2, 2) > 0.0);
        assert!(img.get(0, 13, 13) > 0.0);
        assert!(img.get(0, 8, 8) > 0.0); // midpoint
        assert_eq!(img.get(0, 2, 13), 0.0); // off-diagonal corner untouched
    }

    #[test]
    fn triangle_fill_covers_centroid_not_outside() {
        let mut img = Image::new(1, 32, 32);
        fill_polygon(&mut img, &[(4.0, 4.0), (4.0, 28.0), (28.0, 16.0)], &[1.0]);
        assert_eq!(img.get(0, 12, 16), 1.0); // inside
        assert_eq!(img.get(0, 27, 4), 0.0); // outside
    }

    #[test]
    fn polygon_with_fewer_than_three_vertices_is_noop() {
        let mut img = Image::new(1, 8, 8);
        fill_polygon(&mut img, &[(1.0, 1.0), (5.0, 5.0)], &[1.0]);
        assert_eq!(gray(&img), 0.0);
    }

    #[test]
    fn regular_polygon_octagon_symmetric() {
        let mut img = Image::new(1, 33, 33);
        fill_regular_polygon(&mut img, 16.0, 16.0, 12.0, 8, 0.0, &[1.0]);
        assert_eq!(img.get(0, 16, 16), 1.0);
        // Rough 4-fold symmetry of coverage.
        let area: f32 = img.tensor().channel(0).iter().sum();
        assert!(area > 250.0 && area < 450.0, "octagon area = {area}");
    }

    #[test]
    fn stripes_alternate() {
        let mut img = Image::new(1, 16, 16);
        fill_stripes(&mut img, 0.0, 8.0, 0.5, &[1.0], 1.0);
        // vertical stripes of width 4 (duty 0.5 of period 8)
        assert_eq!(img.get(0, 0, 0), 1.0);
        assert_eq!(img.get(0, 0, 5), 0.0);
        assert_eq!(img.get(0, 0, 8), 1.0);
    }

    #[test]
    fn stripes_in_disc_stay_in_disc() {
        let mut img = Image::new(1, 32, 32);
        fill_stripes_in_disc(&mut img, 16.0, 16.0, 6.0, 0.3, 3.0, &[1.0], 1.0);
        assert_eq!(img.get(0, 2, 2), 0.0);
        let painted: f32 = img.tensor().channel(0).iter().sum();
        assert!(painted > 0.0);
    }
}
