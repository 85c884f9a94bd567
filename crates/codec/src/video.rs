//! The simulated video codecs.
//!
//! Two lossy codecs are provided, standing in for the H.264 and HEVC codecs
//! the paper's prototype drives through FFmpeg/NVENC:
//!
//! * [`SimH264`] — single-hypothesis prediction: intra frames predict each
//!   sample from its left neighbour; predicted (P) frames predict from the
//!   co-located sample of the previous reconstructed frame.
//! * [`SimHevc`] — better prediction at higher cost: intra frames use the
//!   gradient (MED / LOCO-I) predictor, P frames use a spatio-temporal
//!   median predictor. The result is a smaller bitstream for the same
//!   quality, at measurably higher encode/decode cost — the same relative
//!   ordering as real H.264 vs HEVC, which is what VSS's cost model relies on.
//!
//! Both codecs quantize prediction residuals with a uniform step derived from
//! the 0–100 quality setting, reconstruct exactly as the decoder will (so
//! there is no drift), and entropy-code residuals with the zero-run coder in
//! [`crate::bitstream`]. GOPs are fully self-contained: the first frame is
//! intra, subsequent frames are predicted, giving the I/P dependency
//! structure that VSS's look-back cost models.
//!
//! [`RawCodec`] stores frames uncompressed in a chosen pixel layout and is
//! used for the `rgb`/`yuv` physical representations.
//!
//! # Kernel shape and the bit-identity contract
//!
//! The bitstream is the on-disk format of every stored GOP, so the kernels
//! are written for speed without changing a byte of it (pinned by golden
//! digests and by a property test against the original per-sample code):
//!
//! * Each of the four predictors — intra or inter, basic or MED — is its
//!   own row loop over hoisted plane slices, with the first row and column
//!   peeled, so there is no per-sample mode dispatch, edge branch or bounds
//!   check. Encoder and decoder share these loops and differ only in the
//!   per-sample step.
//! * The quantizer is a 512-entry table of levels and reconstructions built
//!   once per GOP: residuals of 8-bit samples lie in `[-255, 255]`, so the
//!   table replaces a division per sample exactly.
//! * The encoder zero-run codes each level as soon as it is quantized; the
//!   decoder checks every plane's residual count before it allocates the
//!   frame, writes only the non-zero levels into a buffer reused across
//!   frames, and borrows the previous decoded frame as its reference.
//! * YUV 4:2:0 input is encoded in place; other layouts are converted by
//!   [`Frame::convert`], whose RGB kernels keep the exact `f32` expression
//!   order and round without libm.

use crate::bitstream::{decode_residuals_into, ResidualWriter};
use crate::{Codec, CodecError, EncodedGop, EncoderConfig, FrameInfo, VideoCodec};
use vss_frame::{Frame, FrameSequence, PixelFormat};

/// Simulated H.264 codec (cheaper, larger output).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimH264;

/// Simulated HEVC codec (more expensive, smaller output).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimHevc;

/// Uncompressed storage in a fixed pixel layout.
#[derive(Debug, Clone, Copy)]
pub struct RawCodec(pub PixelFormat);

/// Returns the codec implementation for a [`Codec`] identifier.
pub fn codec_instance(codec: Codec) -> Box<dyn VideoCodec> {
    match codec {
        Codec::H264 => Box::new(SimH264),
        Codec::Hevc => Box::new(SimHevc),
        Codec::Raw(fmt) => Box::new(RawCodec(fmt)),
    }
}

/// Splits a frame sequence into GOPs of at most `config.gop_size` frames and
/// encodes each independently on the calling thread. This is the entry point
/// the storage manager uses when ingesting or caching video.
pub fn encode_to_gops(
    frames: &FrameSequence,
    codec: Codec,
    config: &EncoderConfig,
) -> Result<Vec<EncodedGop>, CodecError> {
    encode_to_gops_parallel(frames, codec, config, 1)
}

/// Parallel variant of [`encode_to_gops`]: GOPs are fully independent (the
/// first frame of each is intra-coded), so each one is encoded on a worker
/// thread and the results are collected in input order. The output is
/// bit-identical to the sequential path for any `threads` value; `threads =
/// 0` uses every available core and `threads = 1` runs on the calling
/// thread without spawning.
pub fn encode_to_gops_parallel(
    frames: &FrameSequence,
    codec: Codec,
    config: &EncoderConfig,
    threads: usize,
) -> Result<Vec<EncodedGop>, CodecError> {
    if frames.is_empty() {
        return Err(CodecError::EmptyInput);
    }
    let implementation = codec_instance(codec);
    let all = frames.frames();
    let frame_rate = frames.frame_rate();
    let ranges = vss_parallel::chunk_ranges(all.len(), config.gop_size.max(1));
    vss_parallel::try_par_map(threads, &ranges, |_, &(start, end)| {
        implementation.encode_slice(&all[start..end], frame_rate, config)
    })
}

/// Decodes a set of independently decodable GOPs on up to `threads` worker
/// threads, returning each GOP's frames in input order. Like the encode
/// path, the result is identical for any thread count.
pub fn decode_gops_parallel(
    gops: &[EncodedGop],
    codec: Codec,
    threads: usize,
) -> Result<Vec<FrameSequence>, CodecError> {
    let implementation = codec_instance(codec);
    vss_parallel::try_par_map(threads, gops, |_, gop| implementation.decode(gop))
}

// --- plane geometry -------------------------------------------------------

/// (offset, width, height) of the Y, U and V planes within a YUV 4:2:0 buffer.
fn yuv420_planes(width: u32, height: u32) -> [(usize, usize, usize); 3] {
    let (w, h) = (width as usize, height as usize);
    let (cw, ch) = (w / 2, h / 2);
    [(0, w, h), (w * h, cw, ch), (w * h + cw * ch, cw, ch)]
}

// --- kernels --------------------------------------------------------------

/// The uniform quantizer of one GOP, tabulated.
///
/// Prediction residuals of 8-bit samples lie in `[-255, 255]`, so the
/// rounding division of the quantizer is computed once per residual value
/// when the GOP starts; coding a sample is then a table lookup.
struct Quantizer {
    /// `levels[d + 255]` is the quantized level of residual `d`.
    levels: [i32; 512],
    /// `steps[d + 255]` is that level times the step, the residual the
    /// decoder reconstructs.
    steps: [i32; 512],
}

impl Quantizer {
    fn new(q: i32) -> Self {
        let mut levels = [0; 512];
        let mut steps = [0; 512];
        let half = q / 2;
        for residual in -255..=255i32 {
            // Round half away from zero; a step of 1 or less keeps the
            // residual as it is.
            let level = if q <= 1 {
                residual
            } else if residual >= 0 {
                (residual + half) / q
            } else {
                -((-residual + half) / q)
            };
            levels[(residual + 255) as usize] = level;
            steps[(residual + 255) as usize] = level * q;
        }
        Self { levels, steps }
    }

    /// Codes sample `actual` predicted as `pred` (both in `0..=255`),
    /// returning its quantized level and its reconstruction.
    #[inline(always)]
    fn code(&self, actual: u8, pred: i32) -> (i32, u8) {
        // The mask keeps the index provably in bounds; it never changes a
        // residual of two 8-bit samples.
        let index = (i32::from(actual) - pred + 255) as usize & 511;
        (self.levels[index], clamp_pixel(pred + self.steps[index]))
    }
}

#[inline(always)]
fn clamp_pixel(v: i32) -> u8 {
    v.clamp(0, 255) as u8
}

#[inline(always)]
fn median3(a: i32, b: i32, c: i32) -> i32 {
    a.max(b).min(a.min(b).max(c))
}

/// Runs one plane's prediction loop in raster order.
///
/// `recon` is the plane being reconstructed (`width` samples per row),
/// `inputs` holds one input per sample (the source samples when encoding,
/// the quantized levels when decoding) and `prev` is the co-located plane of
/// the previous reconstructed frame, or `None` for an intra frame. For each
/// sample the loop computes its prediction from already reconstructed
/// samples and stores `sample(input, pred)`, the reconstructed value.
/// `advanced` selects the HEVC-sim predictors.
///
/// Each of the four predictors is its own row loop with the first row and
/// column peeled, so the per-sample work has no edge branches and no
/// bounds checks.
#[inline(always)]
fn predict_plane<T: Copy>(
    recon: &mut [u8],
    inputs: &[T],
    prev: Option<&[u8]>,
    width: usize,
    advanced: bool,
    sample: impl FnMut(T, i32) -> u8,
) {
    match (prev, advanced) {
        (None, false) => predict_intra_left(recon, inputs, width, sample),
        (None, true) => predict_intra_med(recon, inputs, width, sample),
        (Some(prev), false) => predict_inter_temporal(recon, inputs, prev, sample),
        (Some(prev), true) => predict_inter_median(recon, inputs, prev, width, sample),
    }
}

/// SimH264 intra: the left neighbour; the first column predicts from the
/// sample above, and the first sample of the plane from 128.
#[inline(always)]
fn predict_intra_left<T: Copy>(
    recon: &mut [u8],
    inputs: &[T],
    width: usize,
    mut sample: impl FnMut(T, i32) -> u8,
) {
    let mut above = 128;
    for (row, inputs) in recon.chunks_exact_mut(width).zip(inputs.chunks_exact(width)) {
        let mut left = above;
        for (out, &input) in row.iter_mut().zip(inputs) {
            *out = sample(input, left);
            left = i32::from(*out);
        }
        above = i32::from(row[0]);
    }
}

/// SimHevc intra: the MED / LOCO-I gradient predictor, written as the
/// median of left, above and `left + above - above_left`. The first row
/// predicts from the left (128 for the first sample), the first column from
/// above.
#[inline(always)]
fn predict_intra_med<T: Copy>(
    recon: &mut [u8],
    inputs: &[T],
    width: usize,
    mut sample: impl FnMut(T, i32) -> u8,
) {
    let (first, mut rest) = recon.split_at_mut(width);
    let mut input_rows = inputs.chunks_exact(width);
    let mut left = 128;
    for (out, &input) in first.iter_mut().zip(input_rows.next().unwrap_or_default()) {
        *out = sample(input, left);
        left = i32::from(*out);
    }
    let mut above_row: &[u8] = first;
    for inputs in input_rows {
        let (row, tail) = std::mem::take(&mut rest).split_at_mut(width);
        row[0] = sample(inputs[0], i32::from(above_row[0]));
        let mut left = i32::from(row[0]);
        for ((out, &input), above) in row[1..].iter_mut().zip(&inputs[1..]).zip(above_row.windows(2)) {
            let (above_left, above) = (i32::from(above[0]), i32::from(above[1]));
            *out = sample(input, median3(left, above, left + above - above_left));
            left = i32::from(*out);
        }
        above_row = row;
        rest = tail;
    }
}

/// SimH264 inter: the co-located sample of the previous frame.
#[inline(always)]
fn predict_inter_temporal<T: Copy>(
    recon: &mut [u8],
    inputs: &[T],
    prev: &[u8],
    mut sample: impl FnMut(T, i32) -> u8,
) {
    for ((out, &input), &temporal) in recon.iter_mut().zip(inputs).zip(prev) {
        *out = sample(input, i32::from(temporal));
    }
}

/// SimHevc inter: the median of the left neighbour, the co-located sample
/// and their spatio-temporal gradient; the first column is purely temporal.
#[inline(always)]
fn predict_inter_median<T: Copy>(
    recon: &mut [u8],
    inputs: &[T],
    prev: &[u8],
    width: usize,
    mut sample: impl FnMut(T, i32) -> u8,
) {
    let rows = recon.chunks_exact_mut(width).zip(inputs.chunks_exact(width));
    for ((row, inputs), prev_row) in rows.zip(prev.chunks_exact(width)) {
        row[0] = sample(inputs[0], i32::from(prev_row[0]));
        let mut left = i32::from(row[0]);
        for ((out, &input), prev) in row[1..].iter_mut().zip(&inputs[1..]).zip(prev_row.windows(2)) {
            let (prev_left, temporal) = (i32::from(prev[0]), i32::from(prev[1]));
            let gradient = (temporal + left - prev_left).clamp(0, 255);
            *out = sample(input, median3(left, temporal, gradient));
            left = i32::from(*out);
        }
    }
}

/// Encoder state of one GOP: the quantizer tables and the frame buffers,
/// reused across frames.
struct GopEncoder {
    planes: [(usize, usize, usize); 3],
    quant: Quantizer,
    /// Reconstruction of the previous frame: the inter reference.
    prev: Vec<u8>,
    /// Reconstruction of the current frame, per predictor family.
    recon: [Vec<u8>; 2],
    /// Payload of the current frame per predictor family, for HEVC-sim's
    /// mode decision.
    candidates: [Vec<u8>; 2],
}

impl GopEncoder {
    fn new(width: u32, height: u32, q: i32) -> Self {
        let bytes = PixelFormat::Yuv420.frame_bytes(width, height);
        Self {
            planes: yuv420_planes(width, height),
            quant: Quantizer::new(q),
            prev: vec![0; bytes],
            recon: [vec![0; bytes], vec![0; bytes]],
            candidates: [Vec::new(), Vec::new()],
        }
    }

    /// Encodes one YUV 4:2:0 frame onto `payload` and makes its
    /// reconstruction the next frame's reference.
    fn encode(&mut self, cur: &[u8], intra: bool, advanced: bool, payload: &mut Vec<u8>) {
        let chosen = if advanced {
            // HEVC-sim performs a per-frame mode decision: it encodes the
            // frame with both predictor families and keeps the smaller
            // result. This costs roughly twice the analysis work of the
            // H.264 simulation and never produces a larger frame — the same
            // qualitative trade-off as real HEVC versus H.264.
            let mut candidates = std::mem::take(&mut self.candidates);
            for (slot, candidate) in candidates.iter_mut().enumerate() {
                candidate.clear();
                self.encode_frame(cur, intra, slot == 1, slot, candidate);
            }
            let chosen = usize::from(candidates[1].len() <= candidates[0].len());
            payload.push(chosen as u8);
            payload.extend_from_slice(&candidates[chosen]);
            self.candidates = candidates;
            chosen
        } else {
            self.encode_frame(cur, intra, false, 0, payload);
            0
        };
        std::mem::swap(&mut self.prev, &mut self.recon[chosen]);
    }

    /// Encodes all three planes of `cur` onto `out`, reconstructing them
    /// into `recon[slot]`. Each level is zero-run coded as soon as it is
    /// quantized.
    fn encode_frame(&mut self, cur: &[u8], intra: bool, advanced: bool, slot: usize, out: &mut Vec<u8>) {
        let quant = &self.quant;
        for &(offset, w, h) in &self.planes {
            let plane = offset..offset + w * h;
            let reference = (!intra).then(|| &self.prev[plane.clone()]);
            let mut writer = ResidualWriter::new(out, w * h);
            let recon = &mut self.recon[slot][plane.clone()];
            predict_plane(recon, &cur[plane], reference, w, advanced, |actual, pred| {
                let (level, value) = quant.code(actual, pred);
                writer.push(level);
                value
            });
            writer.finish();
        }
    }
}

/// Decodes one frame's payload into a new reconstructed YUV 4:2:0 buffer.
///
/// All three planes' levels are decoded into `levels` (reused across
/// frames) and checked against the plane sizes before the frame buffer is
/// allocated.
fn decode_frame(
    payload: &[u8],
    prev: Option<&[u8]>,
    planes: &[(usize, usize, usize); 3],
    q: i32,
    advanced: bool,
    levels: &mut Vec<i32>,
) -> Result<Vec<u8>, CodecError> {
    // The planes are contiguous, so plane offsets index `levels` too.
    levels.clear();
    let mut pos = 0usize;
    for &(_, w, h) in planes {
        decode_residuals_into(payload, &mut pos, w * h, levels)?;
    }
    let mut recon = vec![0u8; levels.len()];
    for &(offset, w, h) in planes {
        let plane = offset..offset + w * h;
        let reference = prev.map(|p| &p[plane.clone()]);
        // Wrapping keeps arbitrary levels of a corrupt stream panic-free.
        let plane_levels = &levels[plane.clone()];
        predict_plane(&mut recon[plane], plane_levels, reference, w, advanced, |level, pred| {
            clamp_pixel(pred.wrapping_add(level.wrapping_mul(q)))
        });
    }
    Ok(recon)
}

fn encode_lossy(
    frames: &[Frame],
    frame_rate: f64,
    config: &EncoderConfig,
    codec: Codec,
    advanced: bool,
) -> Result<EncodedGop, CodecError> {
    let Some(first) = frames.first() else {
        return Err(CodecError::EmptyInput);
    };
    let (width, height) = (first.width(), first.height());
    PixelFormat::Yuv420.validate_resolution(width, height)?;
    let q = config.quantizer();
    let mut encoder = GopEncoder::new(width, height, q);
    let mut payload = Vec::new();
    let mut infos = Vec::with_capacity(frames.len());
    for (i, frame) in frames.iter().enumerate() {
        if (frame.width(), frame.height()) != (width, height) {
            return Err(CodecError::Frame(vss_frame::FrameError::ShapeMismatch));
        }
        // Transcodes hand in YUV 4:2:0 frames already: encode them in place.
        let converted;
        let yuv = if frame.format() == PixelFormat::Yuv420 {
            frame
        } else {
            converted = frame.convert(PixelFormat::Yuv420)?;
            &converted
        };
        let start = payload.len();
        let is_intra = i == 0;
        encoder.encode(yuv.data(), is_intra, advanced, &mut payload);
        infos.push(FrameInfo { is_intra, offset: start, len: payload.len() - start });
    }
    Ok(EncodedGop::new(codec, width, height, frame_rate, q as u32, infos, payload))
}

fn decode_lossy(
    gop: &EncodedGop,
    count: usize,
    expected: Codec,
    advanced: bool,
) -> Result<FrameSequence, CodecError> {
    if gop.codec() != expected {
        return Err(CodecError::CodecMismatch {
            found: gop.codec().name(),
            expected: expected.name(),
        });
    }
    if count > gop.frame_count() {
        return Err(CodecError::FrameOutOfRange { index: count, len: gop.frame_count() });
    }
    let (width, height) = (gop.width(), gop.height());
    PixelFormat::Yuv420.validate_resolution(width, height)?;
    let planes = yuv420_planes(width, height);
    let q = gop.quantizer() as i32;
    let mut levels = Vec::new();
    let mut out: Vec<Frame> = Vec::with_capacity(count);
    for i in 0..count {
        let info = gop.frames()[i];
        let mut payload = gop.frame_payload(i)?;
        let mut frame_advanced = false;
        if advanced {
            // HEVC-sim frames carry a one-byte predictor-mode flag.
            let (&flag, rest) = payload
                .split_first()
                .ok_or_else(|| CodecError::Corrupt("missing mode flag".into()))?;
            frame_advanced = flag != 0;
            payload = rest;
        }
        // The previous decoded frame is the inter reference, borrowed.
        let prev = if info.is_intra { None } else { out.last().map(Frame::data) };
        let recon = decode_frame(payload, prev, &planes, q, frame_advanced, &mut levels)?;
        out.push(Frame::from_data(width, height, PixelFormat::Yuv420, recon)?);
    }
    FrameSequence::new(out, gop.frame_rate()).map_err(CodecError::from)
}

impl VideoCodec for SimH264 {
    fn codec(&self) -> Codec {
        Codec::H264
    }

    fn encode(&self, frames: &FrameSequence, config: &EncoderConfig) -> Result<EncodedGop, CodecError> {
        encode_lossy(frames.frames(), frames.frame_rate(), config, Codec::H264, false)
    }

    fn encode_slice(
        &self,
        frames: &[Frame],
        frame_rate: f64,
        config: &EncoderConfig,
    ) -> Result<EncodedGop, CodecError> {
        encode_lossy(frames, frame_rate, config, Codec::H264, false)
    }

    fn decode_prefix(&self, gop: &EncodedGop, count: usize) -> Result<FrameSequence, CodecError> {
        decode_lossy(gop, count, Codec::H264, false)
    }
}

impl VideoCodec for SimHevc {
    fn codec(&self) -> Codec {
        Codec::Hevc
    }

    fn encode(&self, frames: &FrameSequence, config: &EncoderConfig) -> Result<EncodedGop, CodecError> {
        encode_lossy(frames.frames(), frames.frame_rate(), config, Codec::Hevc, true)
    }

    fn encode_slice(
        &self,
        frames: &[Frame],
        frame_rate: f64,
        config: &EncoderConfig,
    ) -> Result<EncodedGop, CodecError> {
        encode_lossy(frames, frame_rate, config, Codec::Hevc, true)
    }

    fn decode_prefix(&self, gop: &EncodedGop, count: usize) -> Result<FrameSequence, CodecError> {
        decode_lossy(gop, count, Codec::Hevc, true)
    }
}

/// Serializes a slice of frames into an uncompressed GOP.
fn encode_raw(
    format: PixelFormat,
    frames: &[Frame],
    frame_rate: f64,
) -> Result<EncodedGop, CodecError> {
    let Some(first) = frames.first() else {
        return Err(CodecError::EmptyInput);
    };
    let (width, height) = (first.width(), first.height());
    format.validate_resolution(width, height)?;
    let mut payload = Vec::with_capacity(frames.len() * format.frame_bytes(width, height));
    let mut infos = Vec::with_capacity(frames.len());
    for frame in frames {
        let start = payload.len();
        if frame.format() == format {
            // Zero-conversion fast path: append the borrowed pixel buffer.
            payload.extend_from_slice(frame.data());
        } else {
            payload.extend_from_slice(frame.convert(format)?.data());
        }
        infos.push(FrameInfo { is_intra: true, offset: start, len: payload.len() - start });
    }
    Ok(EncodedGop::new(Codec::Raw(format), width, height, frame_rate, 1, infos, payload))
}

impl VideoCodec for RawCodec {
    fn codec(&self) -> Codec {
        Codec::Raw(self.0)
    }

    fn encode(&self, frames: &FrameSequence, _config: &EncoderConfig) -> Result<EncodedGop, CodecError> {
        encode_raw(self.0, frames.frames(), frames.frame_rate())
    }

    fn encode_slice(
        &self,
        frames: &[Frame],
        frame_rate: f64,
        _config: &EncoderConfig,
    ) -> Result<EncodedGop, CodecError> {
        encode_raw(self.0, frames, frame_rate)
    }

    fn decode_prefix(&self, gop: &EncodedGop, count: usize) -> Result<FrameSequence, CodecError> {
        if gop.codec() != Codec::Raw(self.0) {
            return Err(CodecError::CodecMismatch {
                found: gop.codec().name(),
                expected: Codec::Raw(self.0).name(),
            });
        }
        if count > gop.frame_count() {
            return Err(CodecError::FrameOutOfRange { index: count, len: gop.frame_count() });
        }
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let payload = gop.frame_payload(i)?.to_vec();
            out.push(Frame::from_data(gop.width(), gop.height(), self.0, payload)?);
        }
        FrameSequence::new(out, gop.frame_rate()).map_err(CodecError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vss_frame::{pattern, quality};

    fn coherent_sequence(n: usize, width: u32, height: u32) -> FrameSequence {
        // Temporally coherent frames: a slowly shifting gradient.
        let frames: Vec<Frame> =
            (0..n).map(|i| pattern::gradient(width, height, PixelFormat::Yuv420, i as u64)).collect();
        FrameSequence::new(frames, 30.0).unwrap()
    }

    #[test]
    fn h264_round_trip_is_near_lossless_at_high_quality() {
        let seq = coherent_sequence(6, 64, 48);
        let gop = SimH264.encode(&seq, &EncoderConfig::with_quality(95)).unwrap();
        let decoded = SimH264.decode(&gop).unwrap();
        assert_eq!(decoded.len(), 6);
        let p = quality::sequence_psnr(seq.frames(), decoded.frames()).unwrap();
        assert!(p.db() > 38.0, "high quality round trip should be near-lossless, got {p}");
    }

    #[test]
    fn quality_setting_trades_size_for_psnr() {
        let seq = coherent_sequence(4, 64, 48);
        let hi = SimH264.encode(&seq, &EncoderConfig::with_quality(95)).unwrap();
        let lo = SimH264.encode(&seq, &EncoderConfig::with_quality(30)).unwrap();
        assert!(lo.byte_len() < hi.byte_len());
        let hi_psnr = quality::sequence_psnr(seq.frames(), SimH264.decode(&hi).unwrap().frames()).unwrap();
        let lo_psnr = quality::sequence_psnr(seq.frames(), SimH264.decode(&lo).unwrap().frames()).unwrap();
        assert!(hi_psnr.db() > lo_psnr.db());
    }

    #[test]
    fn hevc_is_smaller_than_h264_at_same_quality() {
        let seq = coherent_sequence(8, 96, 64);
        let cfg = EncoderConfig::with_quality(85);
        let h264 = SimH264.encode(&seq, &cfg).unwrap();
        let hevc = SimHevc.encode(&seq, &cfg).unwrap();
        assert!(
            hevc.byte_len() < h264.byte_len(),
            "hevc-sim ({}) should beat h264-sim ({})",
            hevc.byte_len(),
            h264.byte_len()
        );
        // And both should still decode to similar quality.
        let ph = quality::sequence_psnr(seq.frames(), SimHevc.decode(&hevc).unwrap().frames()).unwrap();
        assert!(ph.db() > 35.0);
    }

    #[test]
    fn compression_beats_raw_on_coherent_content() {
        let seq = coherent_sequence(8, 96, 64);
        let raw = RawCodec(PixelFormat::Yuv420).encode(&seq, &EncoderConfig::default()).unwrap();
        let h264 = SimH264.encode(&seq, &EncoderConfig::default()).unwrap();
        assert!(
            h264.byte_len() * 3 < raw.byte_len(),
            "compressed ({}) should be well under a third of raw ({})",
            h264.byte_len(),
            raw.byte_len()
        );
    }

    #[test]
    fn p_frames_are_smaller_than_i_frames_for_coherent_video() {
        let seq = coherent_sequence(5, 96, 64);
        let gop = SimH264.encode(&seq, &EncoderConfig::default()).unwrap();
        let i_size = gop.frames()[0].len;
        let p_avg: usize =
            gop.frames()[1..].iter().map(|f| f.len).sum::<usize>() / (gop.frame_count() - 1);
        assert!(p_avg < i_size, "P frames ({p_avg}) should be smaller than the I frame ({i_size})");
        assert_eq!(gop.independent_frame_count(), 1);
        assert_eq!(gop.dependent_frame_count(), 4);
    }

    #[test]
    fn decode_prefix_matches_full_decode() {
        let seq = coherent_sequence(6, 64, 48);
        let gop = SimHevc.encode(&seq, &EncoderConfig::default()).unwrap();
        let full = SimHevc.decode(&gop).unwrap();
        let prefix = SimHevc.decode_prefix(&gop, 3).unwrap();
        assert_eq!(prefix.len(), 3);
        for i in 0..3 {
            assert_eq!(prefix.frames()[i], full.frames()[i]);
        }
        assert!(SimHevc.decode_prefix(&gop, 7).is_err());
    }

    #[test]
    fn raw_codec_round_trips_exactly() {
        for fmt in PixelFormat::ALL {
            let frames: Vec<Frame> =
                (0..3).map(|i| pattern::gradient(32, 32, fmt, i as u64)).collect();
            let seq = FrameSequence::new(frames, 24.0).unwrap();
            let raw = RawCodec(fmt);
            let gop = raw.encode(&seq, &EncoderConfig::default()).unwrap();
            let decoded = raw.decode(&gop).unwrap();
            assert_eq!(decoded, seq);
        }
    }

    #[test]
    fn codec_mismatch_is_detected() {
        let seq = coherent_sequence(2, 32, 32);
        let gop = SimH264.encode(&seq, &EncoderConfig::default()).unwrap();
        assert!(matches!(SimHevc.decode(&gop), Err(CodecError::CodecMismatch { .. })));
        assert!(RawCodec(PixelFormat::Rgb8).decode(&gop).is_err());
    }

    #[test]
    fn gop_serialization_survives_decode() {
        let seq = coherent_sequence(4, 64, 48);
        let gop = SimH264.encode(&seq, &EncoderConfig::default()).unwrap();
        let restored = EncodedGop::from_bytes(&gop.to_bytes()).unwrap();
        let a = SimH264.decode(&gop).unwrap();
        let b = SimH264.decode(&restored).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn encode_to_gops_splits_by_gop_size() {
        let seq = coherent_sequence(10, 32, 32);
        let cfg = EncoderConfig { quality: 85, gop_size: 4 };
        let gops = encode_to_gops(&seq, Codec::H264, &cfg).unwrap();
        assert_eq!(gops.len(), 3);
        assert_eq!(gops[0].frame_count(), 4);
        assert_eq!(gops[2].frame_count(), 2);
        // Every GOP decodes independently.
        let mut all = Vec::new();
        for g in &gops {
            all.extend(SimH264.decode(g).unwrap().into_frames());
        }
        assert_eq!(all.len(), 10);
        let p = quality::sequence_psnr(seq.frames(), &all).unwrap();
        assert!(p.db() > 35.0);
    }

    #[test]
    fn parallel_encode_is_bit_identical_to_sequential() {
        // The determinism contract of the parallel GOP pipeline: for every
        // codec and any thread count, the encoded bytes match the
        // single-threaded encode exactly, GOP for GOP.
        let seq = coherent_sequence(23, 64, 48);
        let cfg = EncoderConfig { quality: 80, gop_size: 5 };
        for codec in [Codec::H264, Codec::Hevc, Codec::Raw(PixelFormat::Yuv420)] {
            let sequential = encode_to_gops(&seq, codec, &cfg).unwrap();
            for threads in [0usize, 2, 4] {
                let parallel = encode_to_gops_parallel(&seq, codec, &cfg, threads).unwrap();
                assert_eq!(parallel.len(), sequential.len());
                for (a, b) in parallel.iter().zip(&sequential) {
                    assert_eq!(
                        a.to_bytes(),
                        b.to_bytes(),
                        "{codec} with {threads} threads diverged from sequential encode"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_decode_matches_sequential_decode() {
        let seq = coherent_sequence(16, 64, 48);
        let cfg = EncoderConfig { quality: 85, gop_size: 4 };
        for codec in [Codec::H264, Codec::Hevc] {
            let gops = encode_to_gops(&seq, codec, &cfg).unwrap();
            let sequential = decode_gops_parallel(&gops, codec, 1).unwrap();
            let parallel = decode_gops_parallel(&gops, codec, 4).unwrap();
            assert_eq!(sequential, parallel, "{codec} parallel decode diverged");
            let total: usize = parallel.iter().map(FrameSequence::len).sum();
            assert_eq!(total, seq.len());
        }
    }

    #[test]
    fn encode_slice_matches_sequence_encode() {
        let seq = coherent_sequence(5, 32, 32);
        for codec in [Codec::H264, Codec::Hevc, Codec::Raw(PixelFormat::Rgb8)] {
            let implementation = codec_instance(codec);
            let from_sequence =
                implementation.encode(&seq, &EncoderConfig::default()).unwrap();
            let from_slice = implementation
                .encode_slice(seq.frames(), seq.frame_rate(), &EncoderConfig::default())
                .unwrap();
            assert_eq!(from_slice.to_bytes(), from_sequence.to_bytes(), "{codec}");
        }
    }

    #[test]
    fn encode_rejects_empty_and_odd_resolutions() {
        let empty = FrameSequence::empty(30.0).unwrap();
        assert!(matches!(SimH264.encode(&empty, &EncoderConfig::default()), Err(CodecError::EmptyInput)));
        assert!(encode_to_gops(&empty, Codec::H264, &EncoderConfig::default()).is_err());
        let odd = FrameSequence::new(vec![pattern::gradient(33, 32, PixelFormat::Rgb8, 0)], 30.0).unwrap();
        assert!(SimH264.encode(&odd, &EncoderConfig::default()).is_err());
    }
}
