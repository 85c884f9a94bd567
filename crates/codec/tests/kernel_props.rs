//! The simulated codecs' kernels against a reference oracle.
//!
//! The oracle below is the codec as first written: one prediction function
//! per sample with edge branches, a division per quantized residual, the
//! per-sample `roundf` colour conversion and a residual buffer per plane. The
//! production kernels are rewritten for speed and must stay byte-identical to
//! it, so every property compares the encoded bytes and the decoded frames of
//! both, over random sizes, qualities, GOP lengths, content and input formats.
//!
//! The robustness properties feed the decoder corrupt GOPs (truncated
//! payloads, residual counts that disagree with the plane size, zero runs
//! that overrun the count, HEVC frames without their mode flag) and require a
//! typed [`CodecError`], never a panic.

use proptest::prelude::*;
use vss_codec::bitstream::{write_varint, zigzag};
use vss_codec::{Codec, CodecError, EncodedGop, EncoderConfig, FrameInfo, SimH264, SimHevc, VideoCodec};
use vss_frame::{pattern, Frame, FrameSequence, PixelFormat};

/// The codec as first written, kept verbatim as the oracle.
mod reference {
    use vss_codec::bitstream::{decode_residuals, encode_residuals};
    use vss_codec::{Codec, CodecError, EncodedGop, EncoderConfig, FrameInfo};
    use vss_frame::{Frame, PixelFormat};

    fn yuv420_planes(width: u32, height: u32) -> [(usize, usize, usize); 3] {
        let (w, h) = (width as usize, height as usize);
        let (cw, ch) = (w / 2, h / 2);
        [(0, w, h), (w * h, cw, ch), (w * h + cw * ch, cw, ch)]
    }

    fn quantize(residual: i32, q: i32) -> i32 {
        if q <= 1 {
            return residual;
        }
        let half = q / 2;
        if residual >= 0 {
            (residual + half) / q
        } else {
            -((-residual + half) / q)
        }
    }

    fn clamp_pixel(v: i32) -> u8 {
        v.clamp(0, 255) as u8
    }

    fn median3(a: i32, b: i32, c: i32) -> i32 {
        a.max(b).min(a.min(b).max(c))
    }

    fn predict_intra(recon: &[u8], x: usize, y: usize, w: usize, advanced: bool) -> i32 {
        let left = if x > 0 { i32::from(recon[y * w + x - 1]) } else { -1 };
        let above = if y > 0 { i32::from(recon[(y - 1) * w + x]) } else { -1 };
        if !advanced {
            if left >= 0 {
                left
            } else if above >= 0 {
                above
            } else {
                128
            }
        } else {
            match (left >= 0, above >= 0) {
                (true, true) => {
                    let above_left = i32::from(recon[(y - 1) * w + x - 1]);
                    if above_left >= left.max(above) {
                        left.min(above)
                    } else if above_left <= left.min(above) {
                        left.max(above)
                    } else {
                        left + above - above_left
                    }
                }
                (true, false) => left,
                (false, true) => above,
                (false, false) => 128,
            }
        }
    }

    fn predict_inter(
        recon_cur: &[u8],
        recon_prev: &[u8],
        x: usize,
        y: usize,
        w: usize,
        advanced: bool,
    ) -> i32 {
        let temporal = i32::from(recon_prev[y * w + x]);
        if !advanced {
            return temporal;
        }
        if x == 0 {
            return temporal;
        }
        let left = i32::from(recon_cur[y * w + x - 1]);
        let prev_left = i32::from(recon_prev[y * w + x - 1]);
        let gradient = (temporal + left - prev_left).clamp(0, 255);
        median3(left, temporal, gradient)
    }

    fn predict(recon: &[u8], prev: Option<&[u8]>, x: usize, y: usize, w: usize, advanced: bool) -> i32 {
        match prev {
            Some(prev) => predict_inter(recon, prev, x, y, w, advanced),
            None => predict_intra(recon, x, y, w, advanced),
        }
    }

    fn encode_frame(
        cur: &[u8],
        prev_recon: Option<&[u8]>,
        width: u32,
        height: u32,
        q: i32,
        advanced: bool,
    ) -> (Vec<u8>, Vec<u8>) {
        let mut payload = Vec::new();
        let mut recon = vec![0u8; cur.len()];
        let mut residuals: Vec<i32> = Vec::new();
        for &(offset, w, h) in &yuv420_planes(width, height) {
            residuals.clear();
            let cur_plane = &cur[offset..offset + w * h];
            for y in 0..h {
                for x in 0..w {
                    let prev_plane = prev_recon.map(|p| &p[offset..offset + w * h]);
                    let pred = predict(&recon[offset..offset + w * h], prev_plane, x, y, w, advanced);
                    let actual = i32::from(cur_plane[y * w + x]);
                    let qr = quantize(actual - pred, q);
                    recon[offset + y * w + x] = clamp_pixel(pred + qr * q);
                    residuals.push(qr);
                }
            }
            encode_residuals(&residuals, &mut payload);
        }
        (payload, recon)
    }

    fn decode_frame(
        payload: &[u8],
        prev_recon: Option<&[u8]>,
        width: u32,
        height: u32,
        q: i32,
        advanced: bool,
    ) -> Result<Vec<u8>, CodecError> {
        let mut recon = vec![0u8; PixelFormat::Yuv420.frame_bytes(width, height)];
        let mut pos = 0usize;
        for &(offset, w, h) in &yuv420_planes(width, height) {
            let residuals = decode_residuals(payload, &mut pos)?;
            if residuals.len() != w * h {
                return Err(CodecError::Corrupt("plane residual count mismatch".into()));
            }
            for y in 0..h {
                for x in 0..w {
                    let prev_plane = prev_recon.map(|p| &p[offset..offset + w * h]);
                    let pred = predict(&recon[offset..offset + w * h], prev_plane, x, y, w, advanced);
                    recon[offset + y * w + x] = clamp_pixel(pred + residuals[y * w + x] * q);
                }
            }
        }
        Ok(recon)
    }

    pub fn rgb_to_yuv(r: u8, g: u8, b: u8) -> (u8, u8, u8) {
        let (r, g, b) = (f32::from(r), f32::from(g), f32::from(b));
        let y = 0.299 * r + 0.587 * g + 0.114 * b;
        let u = -0.168_736 * r - 0.331_264 * g + 0.5 * b + 128.0;
        let v = 0.5 * r - 0.418_688 * g - 0.081_312 * b + 128.0;
        (clamp_u8(y), clamp_u8(u), clamp_u8(v))
    }

    fn clamp_u8(v: f32) -> u8 {
        v.round().clamp(0.0, 255.0) as u8
    }

    /// RGB → YUV 4:2:0, pixel by pixel: rounded BT.601 luma, and chroma
    /// averaged over each 2x2 block after rounding.
    pub fn to_yuv420(frame: &Frame) -> Vec<u8> {
        if frame.format() == PixelFormat::Yuv420 {
            return frame.data().to_vec();
        }
        assert_eq!(frame.format(), PixelFormat::Rgb8);
        let (w, h) = (frame.width() as usize, frame.height() as usize);
        let (cw, ch) = (w / 2, h / 2);
        let mut out = vec![0u8; w * h + 2 * cw * ch];
        let yuv: Vec<(u8, u8, u8)> =
            frame.data().chunks_exact(3).map(|p| rgb_to_yuv(p[0], p[1], p[2])).collect();
        for (i, px) in yuv.iter().enumerate() {
            out[i] = px.0;
        }
        for cy in 0..ch {
            for cx in 0..cw {
                let (top, bottom) = (2 * cy * w + 2 * cx, (2 * cy + 1) * w + 2 * cx);
                let block = [top, top + 1, bottom, bottom + 1];
                let su: u32 = block.iter().map(|&i| u32::from(yuv[i].1)).sum();
                let sv: u32 = block.iter().map(|&i| u32::from(yuv[i].2)).sum();
                out[w * h + cy * cw + cx] = (su / 4) as u8;
                out[w * h + cw * ch + cy * cw + cx] = (sv / 4) as u8;
            }
        }
        out
    }

    pub fn encode(frames: &[Frame], config: &EncoderConfig, codec: Codec) -> EncodedGop {
        let advanced = codec == Codec::Hevc;
        let (width, height) = (frames[0].width(), frames[0].height());
        let q = config.quantizer();
        let mut payload = Vec::new();
        let mut infos = Vec::new();
        let mut prev_recon: Option<Vec<u8>> = None;
        for (i, frame) in frames.iter().enumerate() {
            let yuv = to_yuv420(frame);
            let start = payload.len();
            let prev = if i == 0 { None } else { prev_recon.as_deref() };
            let recon = if advanced {
                let (basic_payload, basic_recon) = encode_frame(&yuv, prev, width, height, q, false);
                let (adv_payload, adv_recon) = encode_frame(&yuv, prev, width, height, q, true);
                if adv_payload.len() <= basic_payload.len() {
                    payload.push(1u8);
                    payload.extend_from_slice(&adv_payload);
                    adv_recon
                } else {
                    payload.push(0u8);
                    payload.extend_from_slice(&basic_payload);
                    basic_recon
                }
            } else {
                let (frame_payload, recon) = encode_frame(&yuv, prev, width, height, q, false);
                payload.extend_from_slice(&frame_payload);
                recon
            };
            infos.push(FrameInfo { is_intra: i == 0, offset: start, len: payload.len() - start });
            prev_recon = Some(recon);
        }
        EncodedGop::new(codec, width, height, 30.0, q as u32, infos, payload)
    }

    pub fn decode(gop: &EncodedGop) -> Vec<Vec<u8>> {
        let advanced = gop.codec() == Codec::Hevc;
        let q = gop.quantizer() as i32;
        let mut out = Vec::new();
        let mut prev_recon: Option<Vec<u8>> = None;
        for i in 0..gop.frame_count() {
            let info = gop.frames()[i];
            let mut payload = gop.frame_payload(i).unwrap();
            let mut frame_advanced = false;
            if advanced {
                frame_advanced = payload[0] != 0;
                payload = &payload[1..];
            }
            let prev = if info.is_intra { None } else { prev_recon.as_deref() };
            let recon =
                decode_frame(payload, prev, gop.width(), gop.height(), q, frame_advanced).unwrap();
            out.push(recon.clone());
            prev_recon = Some(recon);
        }
        out
    }
}

/// A temporally coherent clip: a drifting gradient with a moving block and
/// sensor noise. Smooth content makes the MED predictors win HEVC-sim's mode
/// decision, noisy content the basic ones, so both families are exercised.
fn clip(width: u32, height: u32, frames: usize, format: PixelFormat, seed: u64, noise: u8) -> Vec<Frame> {
    let (x0, y0) = (seed as i64, i64::from(height) / 4);
    (0..frames)
        .map(|i| {
            let mut rgb = pattern::gradient(width, height, PixelFormat::Rgb8, seed + i as u64);
            let x = (x0 + 3 * i as i64) % i64::from(width);
            pattern::fill_rect(&mut rgb, x, y0, width / 3 + 1, height / 3 + 1, (200, 60, 90));
            let noisy = if noise > 0 { pattern::add_noise(&rgb, noise, seed ^ i as u64) } else { rgb };
            noisy.convert(format).unwrap()
        })
        .collect()
}

fn codec(hevc: bool) -> (Codec, &'static dyn VideoCodec) {
    if hevc {
        (Codec::Hevc, &SimHevc)
    } else {
        (Codec::H264, &SimH264)
    }
}

fn encode(implementation: &dyn VideoCodec, frames: Vec<Frame>, config: &EncoderConfig) -> EncodedGop {
    implementation.encode(&FrameSequence::new(frames, 30.0).unwrap(), config).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn encode_and_decode_match_the_reference(
        half_width in 1u32..34,
        half_height in 1u32..26,
        quality in 0u8..101,
        frames in 1usize..9,
        hevc in any::<bool>(),
        rgb_input in any::<bool>(),
        seed in 0u64..1_000_000,
        noise in 0u8..24,
    ) {
        let (width, height) = (2 * half_width, 2 * half_height);
        let (codec, implementation) = codec(hevc);
        let format = if rgb_input { PixelFormat::Rgb8 } else { PixelFormat::Yuv420 };
        let input = clip(width, height, frames, format, seed, noise);
        let config = EncoderConfig { quality, gop_size: frames };
        let expected = reference::encode(&input, &config, codec);
        let gop = encode(implementation, input, &config);
        let case = format!("{codec} {width}x{height} q{quality} {frames} frames");
        prop_assert_eq!(gop.to_bytes(), expected.to_bytes(), "{}", case);
        let decoded = implementation.decode(&gop).unwrap();
        let reference_frames = reference::decode(&expected);
        prop_assert_eq!(decoded.len(), reference_frames.len());
        for (frame, reference_frame) in decoded.frames().iter().zip(&reference_frames) {
            prop_assert_eq!(frame.format(), PixelFormat::Yuv420);
            prop_assert_eq!(frame.data(), reference_frame.as_slice());
        }
    }

    #[test]
    fn truncated_payloads_are_typed_errors(
        half_width in 1u32..12,
        half_height in 1u32..12,
        hevc in any::<bool>(),
        cut in 1usize..10_000,
    ) {
        let (codec, implementation) = codec(hevc);
        let input = clip(2 * half_width, 2 * half_height, 3, PixelFormat::Yuv420, cut as u64, 6);
        let gop = encode(implementation, input, &EncoderConfig { quality: 90, gop_size: 3 });
        // Cut the last frame's payload short; the frame table follows it.
        let last = *gop.frames().last().unwrap();
        let keep = last.len - 1 - cut % last.len;
        let mut infos = gop.frames().to_vec();
        infos.last_mut().unwrap().len = keep;
        let bytes: Vec<u8> = (0..gop.frame_count())
            .flat_map(|i| gop.frame_payload(i).unwrap().to_vec())
            .take(last.offset + keep)
            .collect();
        let (width, height, q) = (gop.width(), gop.height(), gop.quantizer());
        let result = implementation.decode(&EncodedGop::new(codec, width, height, 30.0, q, infos, bytes));
        prop_assert!(matches!(result, Err(CodecError::Corrupt(_))), "{:?}", result.map(|s| s.len()));
    }
}

#[test]
fn the_clips_exercise_both_hevc_predictor_families() {
    // The identity property above covers the MED kernels only through
    // HEVC-sim's mode decision, so check that its inputs reach both modes.
    let mut modes = [0usize; 2];
    for (seed, noise) in [(1u64, 0u8), (2, 0), (3, 20), (4, 20)] {
        let input = clip(34, 18, 4, PixelFormat::Yuv420, seed, noise);
        let gop = encode(&SimHevc, input, &EncoderConfig::default());
        for i in 0..gop.frame_count() {
            modes[usize::from(gop.frame_payload(i).unwrap()[0])] += 1;
        }
    }
    assert!(modes[0] > 0 && modes[1] > 0, "basic/MED frames: {modes:?}");
}

/// A one-frame GOP whose payload is `payload` (prefixed with an HEVC mode
/// flag when `hevc`).
fn forged(hevc: bool, width: u32, height: u32, payload: Vec<u8>) -> EncodedGop {
    let payload = if hevc { [vec![0u8], payload].concat() } else { payload };
    let info = FrameInfo { is_intra: true, offset: 0, len: payload.len() };
    EncodedGop::new(codec(hevc).0, width, height, 30.0, 8, vec![info], payload)
}

/// Appends a block of residuals coded as the given (zero run, value) pairs.
fn block(out: &mut Vec<u8>, count: u64, pairs: &[(u64, i64)]) {
    write_varint(out, count);
    for &(run, value) in pairs {
        write_varint(out, run);
        write_varint(out, zigzag(value));
    }
}

#[test]
fn residual_count_that_differs_from_the_plane_size_is_a_typed_error() {
    for hevc in [false, true] {
        for delta in [-1i64, 1] {
            let mut payload = Vec::new();
            let count = (16 + delta) as u64;
            block(&mut payload, count, &[(count, 0)]);
            let result = codec(hevc).1.decode(&forged(hevc, 4, 4, payload));
            assert!(
                matches!(&result, Err(CodecError::Corrupt(m)) if m.contains("does not match plane size")),
                "{result:?}"
            );
        }
    }
}

#[test]
fn zero_run_past_the_residual_count_is_a_typed_error() {
    for hevc in [false, true] {
        let mut payload = Vec::new();
        block(&mut payload, 16, &[(3, 5), (13, 0)]);
        block(&mut payload, 4, &[(5, 0)]);
        let result = codec(hevc).1.decode(&forged(hevc, 4, 4, payload));
        assert!(
            matches!(&result, Err(CodecError::Corrupt(m)) if m.contains("zero run exceeds")),
            "{result:?}"
        );
    }
}

#[test]
fn hevc_frame_without_its_mode_flag_is_a_typed_error() {
    let info = FrameInfo { is_intra: true, offset: 0, len: 0 };
    let gop = EncodedGop::new(Codec::Hevc, 4, 4, 30.0, 8, vec![info], Vec::new());
    let result = SimHevc.decode(&gop);
    assert!(matches!(&result, Err(CodecError::Corrupt(m)) if m.contains("mode flag")), "{result:?}");
}

#[test]
fn corrupt_header_claiming_a_huge_frame_fails_before_allocating_it() {
    // 65536 x 65536 would need 6 GiB of reconstruction buffer and 24 GiB of
    // levels. A first residual count that contradicts the header, or one that
    // agrees with it but exceeds the 2^28 block cap, must fail fast.
    for count in [16u64, 1 << 32] {
        let mut payload = Vec::new();
        block(&mut payload, count, &[(count, 0)]);
        for hevc in [false, true] {
            let result = codec(hevc).1.decode(&forged(hevc, 1 << 16, 1 << 16, payload.clone()));
            assert!(matches!(&result, Err(CodecError::Corrupt(_))), "{result:?}");
        }
    }
}
