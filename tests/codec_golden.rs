//! Golden-format pins for the pixel kernels.
//!
//! The simulated codecs' bitstream is the on-disk format of every stored GOP,
//! and `Frame::convert` feeds every encode (RGB → YUV 4:2:0) and every raw
//! RGB read (YUV → RGB). Both are performance-critical kernels that must stay
//! byte-identical when they are rewritten. This test pins FNV-1a digests of:
//!
//! * `EncodedGop::to_bytes()` for SimH264 and SimHevc at four qualities over
//!   a fixed 60-frame 320×180 traffic scene, fed as RGB and as YUV 4:2:0;
//! * the frames those GOPs decode to;
//! * `Frame::convert` output for all six source/target format pairs.
//!
//! A digest mismatch means the stored format or the read output changed. If
//! that is intended, the failure message prints every fresh digest in the
//! same order as the tables below.

use vss::codec::{codec_instance, encode_to_gops, Codec, EncoderConfig};
use vss::frame::{Frame, FrameSequence, PixelFormat, Resolution};
use vss::workload::{CameraMotion, SceneConfig, SceneRenderer};

const FRAMES: usize = 60;
const GOP_SIZE: usize = 30;
const QUALITIES: [u8; 4] = [0, 50, 85, 100];

/// 64-bit FNV-1a, fed incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn scene_rgb() -> FrameSequence {
    SceneRenderer::new(SceneConfig {
        resolution: Resolution::new(320, 180),
        format: PixelFormat::Rgb8,
        frame_rate: 30.0,
        overlap: 0.3,
        vehicles: 7,
        motion: CameraMotion::Panning { pixels_per_frame: 0.5 },
        noise_amplitude: 2,
        seed: 0x601D,
    })
    .render_sequence(1, FRAMES)
}

fn converted(seq: &FrameSequence, format: PixelFormat) -> FrameSequence {
    let frames = seq.frames().iter().map(|f| f.convert(format).unwrap()).collect();
    FrameSequence::new(frames, seq.frame_rate()).unwrap()
}

fn frames_digest(frames: &[Frame]) -> u64 {
    let mut h = Fnv::new();
    for f in frames {
        h.feed(&f.width().to_le_bytes());
        h.feed(&f.height().to_le_bytes());
        h.feed(f.format().name().as_bytes());
        h.feed(f.data());
    }
    h.0
}

/// `(label, encoded-bytes digest, decoded-frames digest)` for every codec,
/// quality and input format, in a fixed order.
fn codec_digests(rgb: &FrameSequence, yuv: &FrameSequence) -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    for codec in [Codec::H264, Codec::Hevc] {
        for quality in QUALITIES {
            for (input, seq) in [("rgb", rgb), ("yuv420", yuv)] {
                let config = EncoderConfig { quality, gop_size: GOP_SIZE };
                let gops = encode_to_gops(seq, codec, &config).unwrap();
                let mut encoded = Fnv::new();
                let mut decoded = Vec::new();
                for gop in &gops {
                    encoded.feed(&gop.to_bytes());
                    decoded.extend(codec_instance(codec).decode(gop).unwrap().into_frames());
                }
                assert_eq!(decoded.len(), FRAMES);
                out.push((
                    format!("{}/q{quality}/{input}", codec.name()),
                    encoded.0,
                    frames_digest(&decoded),
                ));
            }
        }
    }
    out
}

const GOLDEN_CODEC: [(&str, u64, u64); 16] = [
    ("h264/q0/rgb", 0x77a29fa0deda0502, 0x032909f2c9b7cf35),
    ("h264/q0/yuv420", 0x77a29fa0deda0502, 0x032909f2c9b7cf35),
    ("h264/q50/rgb", 0xb4d705e4dbd1106a, 0x2c371f1ecf759649),
    ("h264/q50/yuv420", 0xb4d705e4dbd1106a, 0x2c371f1ecf759649),
    ("h264/q85/rgb", 0x5a6198d05a411aab, 0xc209edb565145c4d),
    ("h264/q85/yuv420", 0x5a6198d05a411aab, 0xc209edb565145c4d),
    ("h264/q100/rgb", 0x3dc1ece479f94f20, 0x4a106cbcfd1b96c0),
    ("h264/q100/yuv420", 0x3dc1ece479f94f20, 0x4a106cbcfd1b96c0),
    ("hevc/q0/rgb", 0x8cf12f0c27896534, 0x5b87378ca3180285),
    ("hevc/q0/yuv420", 0x8cf12f0c27896534, 0x5b87378ca3180285),
    ("hevc/q50/rgb", 0xfe1ee8ae8968665d, 0x2c371f1ecf759649),
    ("hevc/q50/yuv420", 0xfe1ee8ae8968665d, 0x2c371f1ecf759649),
    ("hevc/q85/rgb", 0xc2eef4f48b039523, 0xc209edb565145c4d),
    ("hevc/q85/yuv420", 0xc2eef4f48b039523, 0xc209edb565145c4d),
    ("hevc/q100/rgb", 0xe55d188b53b81b53, 0x4a106cbcfd1b96c0),
    ("hevc/q100/yuv420", 0xe55d188b53b81b53, 0x4a106cbcfd1b96c0),
];

const GOLDEN_CONVERT: [(&str, u64); 6] = [
    ("rgb->yuv420", 0x3500558afcd54bc4),
    ("rgb->yuv422", 0x3b9f90f9dfc44b02),
    ("yuv420->rgb", 0xd59b92b8f1e949c6),
    ("yuv420->yuv422", 0xd55b4cd6a37f6ccd),
    ("yuv422->rgb", 0x5031640e591d2689),
    ("yuv422->yuv420", 0xefb0f84f55963687),
];

#[test]
fn codec_bitstream_and_decoded_frames_match_the_golden_digests() {
    let rgb = scene_rgb();
    let yuv = converted(&rgb, PixelFormat::Yuv420);
    let actual = codec_digests(&rgb, &yuv);
    let expected: Vec<(String, u64, u64)> =
        GOLDEN_CODEC.iter().map(|&(l, e, d)| (l.to_string(), e, d)).collect();
    assert_eq!(
        actual,
        expected,
        "codec golden digests changed; fresh table:\n{}",
        actual
            .iter()
            .map(|(l, e, d)| format!("    (\"{l}\", {e:#018x}, {d:#018x}),"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn frame_conversions_match_the_golden_digests() {
    // A few frames of the scene in each format: the RGB render, plus its
    // 4:2:0 and 4:2:2 conversions as planar sources.
    let rgb = scene_rgb();
    let sources = [
        rgb.frames()[..4].to_vec(),
        converted(&rgb, PixelFormat::Yuv420).frames()[..4].to_vec(),
        converted(&rgb, PixelFormat::Yuv422).frames()[..4].to_vec(),
    ];
    let mut actual = Vec::new();
    for source in &sources {
        for target in PixelFormat::ALL {
            let from = source[0].format();
            if from == target {
                continue;
            }
            let out: Vec<Frame> = source.iter().map(|f| f.convert(target).unwrap()).collect();
            actual.push((format!("{}->{}", from.name(), target.name()), frames_digest(&out)));
        }
    }
    let expected: Vec<(String, u64)> =
        GOLDEN_CONVERT.iter().map(|&(l, d)| (l.to_string(), d)).collect();
    assert_eq!(
        actual,
        expected,
        "conversion golden digests changed; fresh table:\n{}",
        actual.iter().map(|(l, d)| format!("    (\"{l}\", {d:#018x}),")).collect::<Vec<_>>().join("\n")
    );
}
