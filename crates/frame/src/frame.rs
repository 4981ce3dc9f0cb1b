//! The [`Frame`] type: one decoded video frame and its pixel data.

use crate::format::PlaneLayout;
use crate::{FrameError, PixelFormat, Resolution};

/// A single decoded video frame.
///
/// The pixel data is stored in a single contiguous buffer whose layout is
/// determined by the frame's [`PixelFormat`]:
///
/// * `Rgb8` — packed `R G B` triples in row-major order.
/// * `Yuv420` — a full-resolution Y plane followed by quarter-resolution
///   U and V planes.
/// * `Yuv422` — a full-resolution Y plane followed by half-horizontal
///   resolution U and V planes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    width: u32,
    height: u32,
    format: PixelFormat,
    data: Vec<u8>,
}

impl Frame {
    /// Creates a frame from an existing pixel buffer.
    pub fn from_data(
        width: u32,
        height: u32,
        format: PixelFormat,
        data: Vec<u8>,
    ) -> Result<Self, FrameError> {
        format.validate_resolution(width, height)?;
        let expected = format.frame_bytes(width, height);
        if data.len() != expected {
            return Err(FrameError::BufferSizeMismatch { expected, actual: data.len() });
        }
        Ok(Self { width, height, format, data })
    }

    /// Creates a black (all-zero luma/chroma-neutral) frame.
    pub fn black(width: u32, height: u32, format: PixelFormat) -> Result<Self, FrameError> {
        format.validate_resolution(width, height)?;
        let mut data = vec![0u8; format.frame_bytes(width, height)];
        // Neutral chroma is 128, not 0; RGB black is all zeros.
        match format {
            PixelFormat::Rgb8 => {}
            PixelFormat::Yuv420 | PixelFormat::Yuv422 => {
                let luma = (width as usize) * (height as usize);
                for b in &mut data[luma..] {
                    *b = 128;
                }
            }
        }
        Ok(Self { width, height, format, data })
    }

    /// Frame width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Frame resolution.
    pub fn resolution(&self) -> Resolution {
        Resolution::new(self.width, self.height)
    }

    /// Physical layout of the pixel buffer.
    pub fn format(&self) -> PixelFormat {
        self.format
    }

    /// Borrow the raw pixel buffer.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutably borrow the raw pixel buffer.
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Consumes the frame, returning its pixel buffer.
    pub fn into_data(self) -> Vec<u8> {
        self.data
    }

    /// Size of the pixel buffer in bytes.
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// Number of pixels in the frame.
    pub fn pixels(&self) -> u64 {
        u64::from(self.width) * u64::from(self.height)
    }

    /// Layouts of the frame's planes (see [`PixelFormat::plane_layouts`]).
    pub fn plane_layouts(&self) -> [PlaneLayout; 3] {
        self.format.plane_layouts(self.width, self.height)
    }

    /// Borrows one plane of a planar (YUV) frame as a contiguous slice.
    ///
    /// Panics for `Rgb8` (whose channels are interleaved — use
    /// [`Frame::data`] with the layout's `step`) and for out-of-range
    /// indices. This is the zero-copy access path used by the resampling and
    /// conversion kernels.
    pub fn plane(&self, index: usize) -> &[u8] {
        let layout = self.plane_layouts()[index];
        assert_eq!(layout.step, 1, "plane() requires a planar format, not {}", self.format);
        &self.data[layout.offset..layout.offset + layout.width * layout.height]
    }

    /// Mutable variant of [`Frame::plane`].
    pub fn plane_mut(&mut self, index: usize) -> &mut [u8] {
        let layout = self.plane_layouts()[index];
        assert_eq!(layout.step, 1, "plane_mut() requires a planar format, not {}", self.format);
        &mut self.data[layout.offset..layout.offset + layout.width * layout.height]
    }

    /// Returns the `(r, g, b)` value of pixel `(x, y)`.
    ///
    /// For YUV frames the value is converted with the BT.601 matrix.
    /// Panics if `(x, y)` is outside the frame (callers in this workspace
    /// always iterate within frame bounds).
    pub fn rgb_at(&self, x: u32, y: u32) -> (u8, u8, u8) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        match self.format {
            PixelFormat::Rgb8 => {
                let idx = 3 * (y as usize * self.width as usize + x as usize);
                (self.data[idx], self.data[idx + 1], self.data[idx + 2])
            }
            PixelFormat::Yuv420 | PixelFormat::Yuv422 => {
                let (yv, u, v) = self.yuv_at(x, y);
                yuv_to_rgb(yv, u, v)
            }
        }
    }

    /// Sets pixel `(x, y)` from an `(r, g, b)` triple.
    pub fn set_rgb(&mut self, x: u32, y: u32, rgb: (u8, u8, u8)) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        match self.format {
            PixelFormat::Rgb8 => {
                let idx = 3 * (y as usize * self.width as usize + x as usize);
                self.data[idx] = rgb.0;
                self.data[idx + 1] = rgb.1;
                self.data[idx + 2] = rgb.2;
            }
            PixelFormat::Yuv420 | PixelFormat::Yuv422 => {
                let (yv, u, v) = rgb_to_yuv(rgb.0, rgb.1, rgb.2);
                self.set_yuv(x, y, (yv, u, v));
            }
        }
    }

    /// Returns the `(y, u, v)` value of pixel `(x, y)`.
    pub fn yuv_at(&self, x: u32, y: u32) -> (u8, u8, u8) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let w = self.width as usize;
        let h = self.height as usize;
        let (xi, yi) = (x as usize, y as usize);
        match self.format {
            PixelFormat::Rgb8 => {
                let (r, g, b) = self.rgb_at(x, y);
                rgb_to_yuv(r, g, b)
            }
            PixelFormat::Yuv420 => {
                let luma = self.data[yi * w + xi];
                let cw = w / 2;
                let ch = h / 2;
                let cx = (xi / 2).min(cw.saturating_sub(1));
                let cy = (yi / 2).min(ch.saturating_sub(1));
                let u = self.data[w * h + cy * cw + cx];
                let v = self.data[w * h + cw * ch + cy * cw + cx];
                (luma, u, v)
            }
            PixelFormat::Yuv422 => {
                let luma = self.data[yi * w + xi];
                let cw = w / 2;
                let cx = (xi / 2).min(cw.saturating_sub(1));
                let u = self.data[w * h + yi * cw + cx];
                let v = self.data[w * h + cw * h + yi * cw + cx];
                (luma, u, v)
            }
        }
    }

    /// Sets pixel `(x, y)` from a `(y, u, v)` triple. For subsampled formats
    /// the chroma sample shared by the 2x2 (or 2x1) block is overwritten.
    pub fn set_yuv(&mut self, x: u32, y: u32, yuv: (u8, u8, u8)) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let w = self.width as usize;
        let h = self.height as usize;
        let (xi, yi) = (x as usize, y as usize);
        match self.format {
            PixelFormat::Rgb8 => {
                let rgb = yuv_to_rgb(yuv.0, yuv.1, yuv.2);
                self.set_rgb(x, y, rgb);
            }
            PixelFormat::Yuv420 => {
                self.data[yi * w + xi] = yuv.0;
                let cw = w / 2;
                let ch = h / 2;
                let cx = (xi / 2).min(cw.saturating_sub(1));
                let cy = (yi / 2).min(ch.saturating_sub(1));
                self.data[w * h + cy * cw + cx] = yuv.1;
                self.data[w * h + cw * ch + cy * cw + cx] = yuv.2;
            }
            PixelFormat::Yuv422 => {
                self.data[yi * w + xi] = yuv.0;
                let cw = w / 2;
                let cx = (xi / 2).min(cw.saturating_sub(1));
                self.data[w * h + yi * cw + cx] = yuv.1;
                self.data[w * h + cw * h + yi * cw + cx] = yuv.2;
            }
        }
    }

    /// Luma (Y) value of pixel `(x, y)` regardless of layout.
    pub fn luma_at(&self, x: u32, y: u32) -> u8 {
        self.yuv_at(x, y).0
    }

    /// Converts the frame into another pixel format.
    ///
    /// Conversion between RGB and YUV uses the BT.601 matrix. Converting to a
    /// chroma-subsampled format averages the chroma of the covered pixels.
    /// Conversions are lossy only to the extent implied by subsampling and
    /// 8-bit rounding.
    pub fn convert(&self, target: PixelFormat) -> Result<Frame, FrameError> {
        if target == self.format {
            return Ok(self.clone());
        }
        target.validate_resolution(self.width, self.height)?;
        let mut out = Frame::black(self.width, self.height, target)?;
        // All conversions below work row-by-row on plane slices rather than
        // through the per-pixel accessors; the per-sample arithmetic is
        // unchanged, so outputs are identical to the accessor-based paths.
        match target {
            PixelFormat::Rgb8 => self.convert_to_rgb_rows(&mut out),
            PixelFormat::Yuv420 => {
                self.write_luma_plane(&mut out);
                let w = self.width as usize;
                let h = self.height as usize;
                let (cw, ch) = (w / 2, h / 2);
                let (u_out, v_out) = out.data[w * h..].split_at_mut(cw * ch);
                match self.format {
                    PixelFormat::Rgb8 => {
                        // Average the BT.601 chroma of each 2x2 block.
                        let mut rows = ChromaRows::new(w);
                        for cy in 0..ch {
                            rows.fill_from_rgb(&self.data, w, cy * 2);
                            for cx in 0..cw {
                                let su = u32::from(rows.u0[cx * 2])
                                    + u32::from(rows.u0[cx * 2 + 1])
                                    + u32::from(rows.u1[cx * 2])
                                    + u32::from(rows.u1[cx * 2 + 1]);
                                let sv = u32::from(rows.v0[cx * 2])
                                    + u32::from(rows.v0[cx * 2 + 1])
                                    + u32::from(rows.v1[cx * 2])
                                    + u32::from(rows.v1[cx * 2 + 1]);
                                u_out[cy * cw + cx] = (su / 4) as u8;
                                v_out[cy * cw + cx] = (sv / 4) as u8;
                            }
                        }
                    }
                    PixelFormat::Yuv422 => {
                        // Each 2x2 block shares one 4:2:2 chroma column over
                        // two rows; the 4-sample average of the accessor path
                        // reduces to the 2-row average.
                        let u_in = self.plane(1);
                        let v_in = self.plane(2);
                        for cy in 0..ch {
                            let (top, bottom) = (cy * 2 * cw, (cy * 2 + 1) * cw);
                            for cx in 0..cw {
                                let su = 2 * (u32::from(u_in[top + cx]) + u32::from(u_in[bottom + cx]));
                                let sv = 2 * (u32::from(v_in[top + cx]) + u32::from(v_in[bottom + cx]));
                                u_out[cy * cw + cx] = (su / 4) as u8;
                                v_out[cy * cw + cx] = (sv / 4) as u8;
                            }
                        }
                    }
                    PixelFormat::Yuv420 => unreachable!("identity handled above"),
                }
            }
            PixelFormat::Yuv422 => {
                self.write_luma_plane(&mut out);
                let w = self.width as usize;
                let h = self.height as usize;
                let cw = w / 2;
                let (u_out, v_out) = out.data[w * h..].split_at_mut(cw * h);
                match self.format {
                    PixelFormat::Rgb8 => {
                        let mut rows = ChromaRows::new(w);
                        for y in 0..h {
                            rows.fill_row_from_rgb(&self.data, w, y);
                            for cx in 0..cw {
                                let su = u32::from(rows.u0[cx * 2]) + u32::from(rows.u0[cx * 2 + 1]);
                                let sv = u32::from(rows.v0[cx * 2]) + u32::from(rows.v0[cx * 2 + 1]);
                                u_out[y * cw + cx] = (su / 2) as u8;
                                v_out[y * cw + cx] = (sv / 2) as u8;
                            }
                        }
                    }
                    PixelFormat::Yuv420 => {
                        // Both pixels of a 4:2:2 pair read the same 4:2:0
                        // sample, so the 2-sample average is the sample itself.
                        let u_in = self.plane(1);
                        let v_in = self.plane(2);
                        let ch = h / 2;
                        for y in 0..h {
                            let cy = (y / 2).min(ch.saturating_sub(1));
                            u_out[y * cw..(y + 1) * cw].copy_from_slice(&u_in[cy * cw..(cy + 1) * cw]);
                            v_out[y * cw..(y + 1) * cw].copy_from_slice(&v_in[cy * cw..(cy + 1) * cw]);
                        }
                    }
                    PixelFormat::Yuv422 => unreachable!("identity handled above"),
                }
            }
        }
        Ok(out)
    }

    /// Converts any source format into packed RGB rows.
    fn convert_to_rgb_rows(&self, out: &mut Frame) {
        for (y, row) in out.data.chunks_exact_mut(self.width as usize * 3).enumerate() {
            self.rgb_row(y, row);
        }
    }

    /// Writes row `y` as packed RGB into the first `3 × width` bytes of
    /// `out`: the pixels [`Frame::rgb_at`] returns, a row at a time.
    pub(crate) fn rgb_row(&self, y: usize, out: &mut [u8]) {
        let w = self.width as usize;
        let out = &mut out[..w * 3];
        if self.format == PixelFormat::Rgb8 {
            out.copy_from_slice(&self.data[y * w * 3..(y + 1) * w * 3]);
            return;
        }
        // Planar widths are even: two pixels per chroma sample.
        let cw = w / 2;
        let cy = match self.format {
            PixelFormat::Yuv420 => (y / 2).min((self.height as usize / 2).saturating_sub(1)),
            _ => y,
        };
        let luma = &self.plane(0)[y * w..(y + 1) * w];
        let u = &self.plane(1)[cy * cw..(cy + 1) * cw];
        let v = &self.plane(2)[cy * cw..(cy + 1) * cw];
        let pairs = out.chunks_exact_mut(6).zip(luma.chunks_exact(2)).zip(u.iter().zip(v));
        for ((rgb, luma), (&u, &v)) in pairs {
            for (rgb, &luma) in rgb.chunks_exact_mut(3).zip(luma) {
                let (r, g, b) = yuv_to_rgb(luma, u, v);
                rgb.copy_from_slice(&[r, g, b]);
            }
        }
    }

    fn write_luma_plane(&self, out: &mut Frame) {
        let w = self.width as usize;
        let h = self.height as usize;
        match self.format {
            // The Y plane leads every planar layout: copy it wholesale.
            PixelFormat::Yuv420 | PixelFormat::Yuv422 => {
                out.data[..w * h].copy_from_slice(&self.data[..w * h]);
            }
            PixelFormat::Rgb8 => {
                for y in 0..h {
                    let rgb_row = &self.data[y * w * 3..(y + 1) * w * 3];
                    let out_row = &mut out.data[y * w..(y + 1) * w];
                    for x in 0..w {
                        let (luma, _, _) =
                            rgb_to_yuv(rgb_row[x * 3], rgb_row[x * 3 + 1], rgb_row[x * 3 + 2]);
                        out_row[x] = luma;
                    }
                }
            }
        }
    }
}

/// Scratch rows of per-pixel BT.601 chroma used when subsampling RGB input.
struct ChromaRows {
    u0: Vec<u8>,
    v0: Vec<u8>,
    u1: Vec<u8>,
    v1: Vec<u8>,
}

impl ChromaRows {
    fn new(width: usize) -> Self {
        Self { u0: vec![0; width], v0: vec![0; width], u1: vec![0; width], v1: vec![0; width] }
    }

    /// Fills `u0/v0` from RGB row `y` of a packed buffer.
    fn fill_row_from_rgb(&mut self, rgb: &[u8], width: usize, y: usize) {
        chroma_of_rgb_row(rgb, width, y, &mut self.u0, &mut self.v0);
    }

    /// Fills `u0/v0` and `u1/v1` from RGB rows `y` and `y + 1`.
    fn fill_from_rgb(&mut self, rgb: &[u8], width: usize, y: usize) {
        chroma_of_rgb_row(rgb, width, y, &mut self.u0, &mut self.v0);
        chroma_of_rgb_row(rgb, width, y + 1, &mut self.u1, &mut self.v1);
    }
}

/// Writes the BT.601 chroma of one packed-RGB row into `u`/`v`.
fn chroma_of_rgb_row(rgb: &[u8], width: usize, y: usize, u: &mut [u8], v: &mut [u8]) {
    let row = &rgb[y * width * 3..(y + 1) * width * 3];
    for x in 0..width {
        let (_, pu, pv) = rgb_to_yuv(row[x * 3], row[x * 3 + 1], row[x * 3 + 2]);
        u[x] = pu;
        v[x] = pv;
    }
}

/// BT.601 full-range RGB → YUV conversion.
pub fn rgb_to_yuv(r: u8, g: u8, b: u8) -> (u8, u8, u8) {
    let (r, g, b) = (f32::from(r), f32::from(g), f32::from(b));
    let y = 0.299 * r + 0.587 * g + 0.114 * b;
    let u = -0.168_736 * r - 0.331_264 * g + 0.5 * b + 128.0;
    let v = 0.5 * r - 0.418_688 * g - 0.081_312 * b + 128.0;
    (clamp_u8(y), clamp_u8(u), clamp_u8(v))
}

/// BT.601 full-range YUV → RGB conversion.
pub fn yuv_to_rgb(y: u8, u: u8, v: u8) -> (u8, u8, u8) {
    let y = f32::from(y);
    let u = f32::from(u) - 128.0;
    let v = f32::from(v) - 128.0;
    let r = y + 1.402 * v;
    let g = y - 0.344_136 * u - 0.714_136 * v;
    let b = y + 1.772 * u;
    (clamp_u8(r), clamp_u8(g), clamp_u8(b))
}

/// `v.round().clamp(0.0, 255.0) as u8`, bit for bit, without the libm call
/// `f32::round` is on baseline x86-64. Clamping first gives the same value
/// (0 and 255 are integers), and in 0..=255 rounding half away from zero is
/// truncating and comparing the remainder, which is exact; a NaN stays NaN
/// through the clamp and casts to 0, as before.
fn clamp_u8(v: f32) -> u8 {
    let v = v.clamp(0.0, 255.0);
    let truncated = v as u8;
    truncated + u8::from(v - f32::from(truncated) >= 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_data_validates_size() {
        let data = vec![0u8; 10];
        assert!(matches!(
            Frame::from_data(4, 4, PixelFormat::Rgb8, data),
            Err(FrameError::BufferSizeMismatch { expected: 48, actual: 10 })
        ));
    }

    #[test]
    fn clamp_u8_rounds_exactly_as_f32_round() {
        let reference = |v: f32| v.round().clamp(0.0, 255.0) as u8;
        let mut values: Vec<f32> = (-400 * 1024..=400 * 1024).map(|k| k as f32 / 1024.0).collect();
        for k in -400..=400 {
            // Both neighbours of every half, and the half itself.
            let half = k as f32 + 0.5;
            values.extend([half, f32::from_bits(half.to_bits() - 1), f32::from_bits(half.to_bits() + 1)]);
        }
        values.extend([f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::MAX, f32::MIN, 1e9, -1e9, -0.0]);
        for v in values {
            assert_eq!(clamp_u8(v), reference(v), "{v:e}");
        }
    }

    #[test]
    fn black_frame_has_neutral_chroma() {
        let f = Frame::black(4, 4, PixelFormat::Yuv420).unwrap();
        let (y, u, v) = f.yuv_at(1, 1);
        assert_eq!(y, 0);
        assert_eq!(u, 128);
        assert_eq!(v, 128);
        // Black in RGB space too.
        let (r, g, b) = f.rgb_at(1, 1);
        assert!(r < 3 && g < 3 && b < 3);
    }

    #[test]
    fn rgb_yuv_round_trip_is_close() {
        for &(r, g, b) in &[(255u8, 0u8, 0u8), (0, 255, 0), (0, 0, 255), (17, 200, 99), (128, 128, 128)] {
            let (y, u, v) = rgb_to_yuv(r, g, b);
            let (r2, g2, b2) = yuv_to_rgb(y, u, v);
            assert!((i32::from(r) - i32::from(r2)).abs() <= 3, "r {r} vs {r2}");
            assert!((i32::from(g) - i32::from(g2)).abs() <= 3, "g {g} vs {g2}");
            assert!((i32::from(b) - i32::from(b2)).abs() <= 3, "b {b} vs {b2}");
        }
    }

    #[test]
    fn set_and_get_rgb_in_all_formats() {
        for fmt in PixelFormat::ALL {
            let mut f = Frame::black(8, 8, fmt).unwrap();
            f.set_rgb(3, 5, (200, 100, 50));
            let (r, g, b) = f.rgb_at(3, 5);
            // Chroma subsampling and rounding introduce small error.
            assert!((i32::from(r) - 200).abs() <= 6, "{fmt}: r={r}");
            assert!((i32::from(g) - 100).abs() <= 6, "{fmt}: g={g}");
            assert!((i32::from(b) - 50).abs() <= 6, "{fmt}: b={b}");
        }
    }

    #[test]
    fn conversion_round_trip_preserves_luma_exactly() {
        let mut f = Frame::black(16, 16, PixelFormat::Yuv420).unwrap();
        for y in 0..16 {
            for x in 0..16 {
                f.set_yuv(x, y, ((x * 16 + y) as u8, 128, 128));
            }
        }
        let g = f.convert(PixelFormat::Yuv422).unwrap().convert(PixelFormat::Yuv420).unwrap();
        for y in 0..16 {
            for x in 0..16 {
                assert_eq!(f.luma_at(x, y), g.luma_at(x, y));
            }
        }
    }

    #[test]
    fn convert_to_same_format_is_identity() {
        let f = Frame::black(6, 4, PixelFormat::Rgb8).unwrap();
        assert_eq!(f.convert(PixelFormat::Rgb8).unwrap(), f);
    }

    #[test]
    fn rgb_to_yuv420_and_back_is_near_lossless_for_flat_regions() {
        let mut f = Frame::black(8, 8, PixelFormat::Rgb8).unwrap();
        for y in 0..8 {
            for x in 0..8 {
                f.set_rgb(x, y, (90, 160, 210));
            }
        }
        let g = f.convert(PixelFormat::Yuv420).unwrap().convert(PixelFormat::Rgb8).unwrap();
        let (r, gg, b) = g.rgb_at(4, 4);
        assert!((i32::from(r) - 90).abs() <= 3);
        assert!((i32::from(gg) - 160).abs() <= 3);
        assert!((i32::from(b) - 210).abs() <= 3);
    }
}
