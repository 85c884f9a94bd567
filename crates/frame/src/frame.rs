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
    ///
    /// The kernels work a row at a time: an RGB row is de-interleaved into
    /// channel rows once and all three YUV components of every pixel are
    /// computed in one `f32` pass; a YUV row reuses the chroma products of
    /// its chroma row. Every sample is still computed with the exact `f32`
    /// expression of the per-pixel BT.601 conversion behind
    /// [`Frame::rgb_at`] and [`Frame::set_rgb`] (same constants, same
    /// operation order) and rounded half away from zero without a libm
    /// `roundf` call, so the output is bit-identical to converting pixel by
    /// pixel.
    pub fn convert(&self, target: PixelFormat) -> Result<Frame, FrameError> {
        if target == self.format {
            return Ok(self.clone());
        }
        target.validate_resolution(self.width, self.height)?;
        let (w, h) = (self.width as usize, self.height as usize);
        let mut data = vec![0u8; target.frame_bytes(self.width, self.height)];
        match (self.format, target) {
            (PixelFormat::Rgb8, _) => rgb_to_planar(&self.data, w, target, &mut data),
            (_, PixelFormat::Rgb8) => self.planar_to_rgb(&mut data),
            (PixelFormat::Yuv422, PixelFormat::Yuv420) => {
                // Each 2x2 block shares one 4:2:2 chroma column over two
                // rows; the 4-sample average reduces to the 2-row average.
                data[..w * h].copy_from_slice(self.plane(0));
                let cw = w / 2;
                let (u_out, v_out) = data[w * h..].split_at_mut(cw * (h / 2));
                for (plane_in, plane_out) in [(self.plane(1), u_out), (self.plane(2), v_out)] {
                    let rows_out = plane_out.chunks_exact_mut(cw);
                    for (pair, out) in plane_in.chunks_exact(2 * cw).zip(rows_out) {
                        let (top, bottom) = pair.split_at(cw);
                        for ((o, &t), &b) in out.iter_mut().zip(top).zip(bottom) {
                            *o = ((2 * (u32::from(t) + u32::from(b))) / 4) as u8;
                        }
                    }
                }
            }
            (PixelFormat::Yuv420, PixelFormat::Yuv422) => {
                // Both pixels of a 4:2:2 pair read the same 4:2:0 sample,
                // so the 2-sample average is the sample itself.
                data[..w * h].copy_from_slice(self.plane(0));
                let cw = w / 2;
                let (u_out, v_out) = data[w * h..].split_at_mut(cw * h);
                for (plane_in, plane_out) in [(self.plane(1), u_out), (self.plane(2), v_out)] {
                    let pairs_out = plane_out.chunks_exact_mut(2 * cw);
                    for (row_in, rows_out) in plane_in.chunks_exact(cw).zip(pairs_out) {
                        rows_out[..cw].copy_from_slice(row_in);
                        rows_out[cw..].copy_from_slice(row_in);
                    }
                }
            }
            (PixelFormat::Yuv420 | PixelFormat::Yuv422, _) => unreachable!("identity handled above"),
        }
        Ok(Frame { width: self.width, height: self.height, format: target, data })
    }

    /// Converts a planar YUV frame into packed RGB rows.
    fn planar_to_rgb(&self, out: &mut [u8]) {
        let w = self.width as usize;
        let cw = w / 2;
        let rows_per_chroma_row = if self.format == PixelFormat::Yuv420 { 2 } else { 1 };
        let mut chroma = ChromaProducts::new(w);
        let luma_rows = self.plane(0).chunks_exact(w);
        let chroma_rows = self.plane(1).chunks_exact(cw).zip(self.plane(2).chunks_exact(cw));
        let mut out_rows = out.chunks_exact_mut(3 * w).zip(luma_rows);
        for (u_row, v_row) in chroma_rows {
            chroma.load(u_row, v_row);
            for (out_row, luma_row) in out_rows.by_ref().take(rows_per_chroma_row) {
                chroma.luma_row_to_rgb(luma_row, out_row);
            }
        }
    }
}

/// Converts packed RGB into a planar YUV `target` (4:2:0 or 4:2:2).
fn rgb_to_planar(rgb: &[u8], w: usize, target: PixelFormat, out: &mut [u8]) {
    let h = rgb.len() / (3 * w);
    let cw = w / 2;
    let rows_per_chroma_row = if target == PixelFormat::Yuv420 { 2 } else { 1 };
    let (luma, chroma) = out.split_at_mut(w * h);
    let (u_out, v_out) = chroma.split_at_mut(cw * (h / rows_per_chroma_row));
    let mut rows = RgbRows::new(w);
    let mut luma_rows = rgb.chunks_exact(3 * w).zip(luma.chunks_exact_mut(w));
    for (u_out, v_out) in u_out.chunks_exact_mut(cw).zip(v_out.chunks_exact_mut(cw)) {
        if rows_per_chroma_row == 1 {
            let (rgb_row, luma_row) = luma_rows.next().expect("one RGB row per chroma row");
            rows.convert(rgb_row, luma_row, 0);
            // Average each horizontal pair of per-pixel chroma samples.
            for (out, src) in [(u_out, &rows.u[0]), (v_out, &rows.v[0])] {
                for (o, pair) in out.iter_mut().zip(src.chunks_exact(2)) {
                    *o = ((u32::from(pair[0]) + u32::from(pair[1])) / 2) as u8;
                }
            }
        } else {
            for parity in 0..2 {
                let (rgb_row, luma_row) = luma_rows.next().expect("two RGB rows per chroma row");
                rows.convert(rgb_row, luma_row, parity);
            }
            // Average the per-pixel chroma of each 2x2 block.
            for (out, [top, bottom]) in [(u_out, &rows.u), (v_out, &rows.v)] {
                for ((o, t), b) in out.iter_mut().zip(top.chunks_exact(2)).zip(bottom.chunks_exact(2)) {
                    let sum = u32::from(t[0]) + u32::from(t[1]) + u32::from(b[0]) + u32::from(b[1]);
                    *o = (sum / 4) as u8;
                }
            }
        }
    }
}

/// Scratch rows of the RGB → YUV kernel: one RGB row de-interleaved into
/// channel rows, and the per-pixel chroma of the two rows of a 4:2:0 block.
struct RgbRows {
    r: Vec<u8>,
    g: Vec<u8>,
    b: Vec<u8>,
    u: [Vec<u8>; 2],
    v: [Vec<u8>; 2],
}

impl RgbRows {
    fn new(width: usize) -> Self {
        Self {
            r: vec![0; width],
            g: vec![0; width],
            b: vec![0; width],
            u: [vec![0; width], vec![0; width]],
            v: [vec![0; width], vec![0; width]],
        }
    }

    /// Writes the luma of `rgb_row` to `luma_row` and its per-pixel chroma
    /// to `u[slot]` / `v[slot]`.
    fn convert(&mut self, rgb_row: &[u8], luma_row: &mut [u8], slot: usize) {
        let w = luma_row.len();
        let (r, g, b) = (&mut self.r[..w], &mut self.g[..w], &mut self.b[..w]);
        let channels = r.iter_mut().zip(g.iter_mut()).zip(b.iter_mut());
        for (px, ((r, g), b)) in rgb_row.chunks_exact(3).zip(channels) {
            *r = px[0];
            *g = px[1];
            *b = px[2];
        }
        let (u, v) = (&mut self.u[slot][..w], &mut self.v[slot][..w]);
        for x in 0..w {
            let (r, g, b) = (f32::from(r[x]), f32::from(g[x]), f32::from(b[x]));
            luma_row[x] = round_u8(bt601_y(r, g, b));
            u[x] = round_u8(bt601_u(r, g, b));
            v[x] = round_u8(bt601_v(r, g, b));
        }
    }
}

/// The chroma terms of the YUV → RGB matrix ([`bt601_chroma_terms`]) for one
/// chroma row, upsampled to one value per pixel (both pixels of a pair share
/// their chroma sample).
struct ChromaProducts {
    /// `1.402 * v`, the red term.
    red_v: Vec<f32>,
    /// `0.344_136 * u`, the first green term.
    green_u: Vec<f32>,
    /// `0.714_136 * v`, the second green term.
    green_v: Vec<f32>,
    /// `1.772 * u`, the blue term.
    blue_u: Vec<f32>,
}

impl ChromaProducts {
    fn new(width: usize) -> Self {
        Self {
            red_v: vec![0.0; width],
            green_u: vec![0.0; width],
            green_v: vec![0.0; width],
            blue_u: vec![0.0; width],
        }
    }

    /// Computes the products of one chroma row.
    fn load(&mut self, u_row: &[u8], v_row: &[u8]) {
        let pairs = self
            .red_v
            .chunks_exact_mut(2)
            .zip(self.green_u.chunks_exact_mut(2))
            .zip(self.green_v.chunks_exact_mut(2))
            .zip(self.blue_u.chunks_exact_mut(2));
        for ((((red_v, green_u), green_v), blue_u), (&u, &v)) in pairs.zip(u_row.iter().zip(v_row)) {
            let terms = bt601_chroma_terms(u, v);
            red_v.fill(terms[0]);
            green_u.fill(terms[1]);
            green_v.fill(terms[2]);
            blue_u.fill(terms[3]);
        }
    }

    /// Converts one luma row with the loaded chroma into packed RGB.
    fn luma_row_to_rgb(&self, luma_row: &[u8], out_row: &mut [u8]) {
        let w = luma_row.len();
        let (red_v, green_u) = (&self.red_v[..w], &self.green_u[..w]);
        let (green_v, blue_u) = (&self.green_v[..w], &self.blue_u[..w]);
        for (x, px) in out_row.chunks_exact_mut(3).enumerate().take(w) {
            let terms = [red_v[x], green_u[x], green_v[x], blue_u[x]];
            (px[0], px[1], px[2]) = bt601_rgb(f32::from(luma_row[x]), terms);
        }
    }
}

/// BT.601 luma of an RGB triple, before rounding.
#[inline(always)]
fn bt601_y(r: f32, g: f32, b: f32) -> f32 {
    0.299 * r + 0.587 * g + 0.114 * b
}

/// BT.601 blue-difference chroma of an RGB triple, before rounding.
#[inline(always)]
fn bt601_u(r: f32, g: f32, b: f32) -> f32 {
    -0.168_736 * r - 0.331_264 * g + 0.5 * b + 128.0
}

/// BT.601 red-difference chroma of an RGB triple, before rounding.
#[inline(always)]
fn bt601_v(r: f32, g: f32, b: f32) -> f32 {
    0.5 * r - 0.418_688 * g - 0.081_312 * b + 128.0
}

/// BT.601 full-range RGB → YUV conversion.
pub fn rgb_to_yuv(r: u8, g: u8, b: u8) -> (u8, u8, u8) {
    let (r, g, b) = (f32::from(r), f32::from(g), f32::from(b));
    (round_u8(bt601_y(r, g, b)), round_u8(bt601_u(r, g, b)), round_u8(bt601_v(r, g, b)))
}

/// The chroma terms of the BT.601 YUV → RGB matrix, with `u` and `v`
/// centred on 128: `[1.402 v, 0.344_136 u, 0.714_136 v, 1.772 u]`.
#[inline(always)]
fn bt601_chroma_terms(u: u8, v: u8) -> [f32; 4] {
    let u = f32::from(u) - 128.0;
    let v = f32::from(v) - 128.0;
    [1.402 * v, 0.344_136 * u, 0.714_136 * v, 1.772 * u]
}

/// Rounded RGB of luma `y` with the chroma terms of [`bt601_chroma_terms`].
#[inline(always)]
fn bt601_rgb(y: f32, [red_v, green_u, green_v, blue_u]: [f32; 4]) -> (u8, u8, u8) {
    (round_u8(y + red_v), round_u8(y - green_u - green_v), round_u8(y + blue_u))
}

/// BT.601 full-range YUV → RGB conversion.
pub fn yuv_to_rgb(y: u8, u: u8, v: u8) -> (u8, u8, u8) {
    bt601_rgb(f32::from(y), bt601_chroma_terms(u, v))
}

/// `v.round().clamp(0.0, 255.0) as u8` without the libm `roundf` call and
/// without a float-to-int conversion, so row loops of it vectorize.
///
/// Clamping first is exact because rounding is monotonic and maps 0 and 255
/// to themselves. Adding 2^23 to the clamped value rounds it to the nearest
/// integer, ties to even, into the low mantissa bits. Rounding half away from
/// zero differs only on ties that went down, where the (exact) difference
/// `c - n` is one half.
#[inline(always)]
fn round_u8(v: f32) -> u8 {
    let c = v.clamp(0.0, 255.0);
    let n = (c + 8_388_608.0).to_bits() as i32 - 0x4B00_0000;
    (n + i32::from(c - n as f32 >= 0.5)) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-sample conversions as first written, rounding through libm's
    /// `roundf`: the oracle the kernels must match bit for bit.
    mod reference {
        pub fn rgb_to_yuv(r: u8, g: u8, b: u8) -> (u8, u8, u8) {
            let (r, g, b) = (f32::from(r), f32::from(g), f32::from(b));
            let y = 0.299 * r + 0.587 * g + 0.114 * b;
            let u = -0.168_736 * r - 0.331_264 * g + 0.5 * b + 128.0;
            let v = 0.5 * r - 0.418_688 * g - 0.081_312 * b + 128.0;
            (clamp_u8(y), clamp_u8(u), clamp_u8(v))
        }

        pub fn yuv_to_rgb(y: u8, u: u8, v: u8) -> (u8, u8, u8) {
            let y = f32::from(y);
            let u = f32::from(u) - 128.0;
            let v = f32::from(v) - 128.0;
            let r = y + 1.402 * v;
            let g = y - 0.344_136 * u - 0.714_136 * v;
            let b = y + 1.772 * u;
            (clamp_u8(r), clamp_u8(g), clamp_u8(b))
        }

        fn clamp_u8(v: f32) -> u8 {
            v.round().clamp(0.0, 255.0) as u8
        }
    }

    #[test]
    fn rgb_to_yuv_matches_the_reference_on_every_input() {
        // Each (r, g) pair is one 256-pixel row with b = 0..=255, pushed
        // through both the per-pixel function and the row kernel.
        let mut rgb_row: Vec<u8> = (0..=255u8).flat_map(|b| [0, 0, b]).collect();
        let mut rows = RgbRows::new(256);
        let mut luma = [0u8; 256];
        for r in 0..=255u8 {
            for g in 0..=255u8 {
                for px in rgb_row.chunks_exact_mut(3) {
                    px[0] = r;
                    px[1] = g;
                }
                rows.convert(&rgb_row, &mut luma, 1);
                for b in 0..=255u8 {
                    let expected = reference::rgb_to_yuv(r, g, b);
                    let i = usize::from(b);
                    assert_eq!(rgb_to_yuv(r, g, b), expected, "rgb ({r}, {g}, {b})");
                    let row = (luma[i], rows.u[1][i], rows.v[1][i]);
                    assert_eq!(row, expected, "row kernel ({r}, {g}, {b})");
                }
            }
        }
    }

    #[test]
    fn yuv_to_rgb_matches_the_reference_on_every_input() {
        // Each (u, v) pair is one chroma row under a 256-pixel luma row with
        // y = 0..=255, pushed through both the per-pixel function and the
        // row kernel.
        let luma: Vec<u8> = (0..=255u8).collect();
        let mut products = ChromaProducts::new(256);
        let mut out = [0u8; 3 * 256];
        for u in 0..=255u8 {
            for v in 0..=255u8 {
                products.load(&[u; 128], &[v; 128]);
                products.luma_row_to_rgb(&luma, &mut out);
                for y in 0..=255u8 {
                    let expected = reference::yuv_to_rgb(y, u, v);
                    let px = &out[3 * usize::from(y)..][..3];
                    assert_eq!(yuv_to_rgb(y, u, v), expected, "yuv ({y}, {u}, {v})");
                    assert_eq!((px[0], px[1], px[2]), expected, "row kernel ({y}, {u}, {v})");
                }
            }
        }
    }

    /// `convert` rebuilt pixel by pixel from the reference functions.
    fn reference_convert(src: &Frame, target: PixelFormat) -> Frame {
        let (w, h) = (src.width(), src.height());
        let mut out = Frame::black(w, h, target).unwrap();
        match (src.format(), target) {
            (PixelFormat::Rgb8, PixelFormat::Rgb8) => out = src.clone(),
            (PixelFormat::Rgb8, _) => {
                let (sub_x, sub_y) = if target == PixelFormat::Yuv420 { (2, 2) } else { (2, 1) };
                let cw = w as usize / 2;
                let luma = (w * h) as usize;
                let chroma = out.plane(1).len();
                for cy in 0..h / sub_y {
                    for cx in 0..w / 2 {
                        let (mut su, mut sv) = (0u32, 0u32);
                        for y in cy * sub_y..(cy + 1) * sub_y {
                            for x in cx * sub_x..(cx + 1) * sub_x {
                                let (r, g, b) = src.rgb_at(x, y);
                                let (yy, u, v) = reference::rgb_to_yuv(r, g, b);
                                out.data_mut()[(y * w + x) as usize] = yy;
                                su += u32::from(u);
                                sv += u32::from(v);
                            }
                        }
                        let i = cy as usize * cw + cx as usize;
                        out.data_mut()[luma + i] = (su / (sub_x * sub_y)) as u8;
                        out.data_mut()[luma + chroma + i] = (sv / (sub_x * sub_y)) as u8;
                    }
                }
            }
            (_, PixelFormat::Rgb8) => {
                for y in 0..h {
                    for x in 0..w {
                        let (yy, u, v) = src.yuv_at(x, y);
                        let (r, g, b) = reference::yuv_to_rgb(yy, u, v);
                        let i = 3 * (y * w + x) as usize;
                        out.data_mut()[i..i + 3].copy_from_slice(&[r, g, b]);
                    }
                }
            }
            _ => unreachable!("only RGB conversions are compared here"),
        }
        out
    }

    #[test]
    fn frame_conversions_match_the_reference_at_every_size() {
        let mut seed = 0x5EED_u64;
        for (w, h) in [(2, 2), (2, 3), (4, 6), (6, 5), (34, 18), (66, 50)] {
            let mut rgb = Frame::black(w, h, PixelFormat::Rgb8).unwrap();
            for b in rgb.data_mut() {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                *b = seed as u8;
            }
            for target in [PixelFormat::Yuv420, PixelFormat::Yuv422] {
                if target.validate_resolution(w, h).is_err() {
                    continue;
                }
                let yuv = rgb.convert(target).unwrap();
                assert_eq!(yuv, reference_convert(&rgb, target), "rgb -> {target} at {w}x{h}");
                assert_eq!(
                    yuv.convert(PixelFormat::Rgb8).unwrap(),
                    reference_convert(&yuv, PixelFormat::Rgb8),
                    "{target} -> rgb at {w}x{h}"
                );
            }
        }
    }

    #[test]
    fn from_data_validates_size() {
        let data = vec![0u8; 10];
        assert!(matches!(
            Frame::from_data(4, 4, PixelFormat::Rgb8, data),
            Err(FrameError::BufferSizeMismatch { expected: 48, actual: 10 })
        ));
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
