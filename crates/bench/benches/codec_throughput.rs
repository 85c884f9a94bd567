//! Micro-benchmarks of the simulated codec substrate: encode and decode
//! throughput per codec, plus the RGB ↔ YUV conversions that sit in front of
//! every encode of RGB input and behind every raw RGB read. These underpin
//! the absolute numbers of the paper's read/write throughput figures (14, 15,
//! 18, 20).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use vss_codec::{
    codec_instance, decode_gops_parallel, encode_to_gops_parallel, Codec, EncoderConfig,
};
use vss_frame::{pattern, FrameSequence, PixelFormat, Resolution};
use vss_workload::{SceneConfig, SceneRenderer};

fn sequence(frames: usize, width: u32, height: u32) -> FrameSequence {
    let frames: Vec<_> =
        (0..frames).map(|i| pattern::gradient(width, height, PixelFormat::Yuv420, i as u64)).collect();
    FrameSequence::new(frames, 30.0).unwrap()
}

fn codec_benches(c: &mut Criterion) {
    let seq = sequence(8, 160, 96);
    let pixels = 160 * 96 * seq.len() as u64;
    let config = EncoderConfig::default();

    let mut group = c.benchmark_group("encode");
    group.sample_size(10);
    group.throughput(Throughput::Elements(pixels));
    for codec in [Codec::H264, Codec::Hevc, Codec::Raw(PixelFormat::Yuv420)] {
        group.bench_with_input(BenchmarkId::from_parameter(codec.name()), &codec, |b, &codec| {
            let implementation = codec_instance(codec);
            b.iter(|| implementation.encode(&seq, &config).unwrap());
        });
    }
    group.finish();

    let mut group = c.benchmark_group("decode");
    group.sample_size(10);
    group.throughput(Throughput::Elements(pixels));
    for codec in [Codec::H264, Codec::Hevc, Codec::Raw(PixelFormat::Yuv420)] {
        let implementation = codec_instance(codec);
        let gop = implementation.encode(&seq, &config).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(codec.name()), &gop, |b, gop| {
            let implementation = codec_instance(codec);
            b.iter(|| implementation.decode(gop).unwrap());
        });
    }
    group.finish();
}

/// `frames` RGB frames of a 320×180 traffic scene: the input of the
/// ingest path, whose encode starts with an RGB → YUV 4:2:0 conversion.
fn scene_rgb(frames: usize) -> FrameSequence {
    SceneRenderer::new(SceneConfig {
        resolution: Resolution::new(320, 180),
        format: PixelFormat::Rgb8,
        ..SceneConfig::default()
    })
    .render_sequence(0, frames)
}

/// The ingest encode: one 30-frame GOP of RGB scene frames per codec.
fn encode_rgb_benches(c: &mut Criterion) {
    let seq = scene_rgb(30);
    let pixels = 320 * 180 * seq.len() as u64;
    let config = EncoderConfig::default();

    let mut group = c.benchmark_group("encode_rgb");
    group.sample_size(10);
    group.throughput(Throughput::Elements(pixels));
    for codec in [Codec::H264, Codec::Hevc] {
        group.bench_with_input(BenchmarkId::from_parameter(codec.name()), &codec, |b, &codec| {
            let implementation = codec_instance(codec);
            b.iter(|| implementation.encode(&seq, &config).unwrap());
        });
    }
    group.finish();
}

/// `Frame::convert` at the sizes the benchmark workloads use: RGB → 4:2:0
/// at 320×180 (every ingest encode) and 4:2:0 → RGB at 160×90 (the last
/// step of every quarter-size raw RGB read).
fn convert_benches(c: &mut Criterion) {
    let rgb = scene_rgb(1).frames()[0].clone();
    let small = vss_frame::resize_bilinear(&rgb, 160, 90).unwrap().convert(PixelFormat::Yuv420).unwrap();

    let mut group = c.benchmark_group("convert");
    group.sample_size(20);
    group.throughput(Throughput::Elements(rgb.pixels()));
    group.bench_function("rgb_to_yuv420/320x180", |b| {
        b.iter(|| rgb.convert(PixelFormat::Yuv420).unwrap());
    });
    group.throughput(Throughput::Elements(small.pixels()));
    group.bench_function("yuv420_to_rgb/160x90", |b| {
        b.iter(|| small.convert(PixelFormat::Rgb8).unwrap());
    });
    group.finish();
}

/// Scaling of the parallel GOP pipeline: the same multi-GOP encode and
/// decode at 1, 2 and 4 worker threads. The 1-thread rows are the sequential
/// baseline the ≥2x-at-4-threads acceptance target compares against; actual
/// speed-up is bounded by the machine's core count.
fn parallel_scaling_benches(c: &mut Criterion) {
    // 32 frames at gop_size 4 → 8 independent GOPs to spread over workers.
    let seq = sequence(32, 160, 96);
    let pixels = 160 * 96 * seq.len() as u64;
    let config = EncoderConfig { quality: 85, gop_size: 4 };

    let mut group = c.benchmark_group("encode_parallel");
    group.sample_size(10);
    group.throughput(Throughput::Elements(pixels));
    for codec in [Codec::H264, Codec::Hevc] {
        for threads in [1usize, 2, 4] {
            group.bench_with_input(
                BenchmarkId::new(codec.name(), threads),
                &threads,
                |b, &threads| {
                    b.iter(|| encode_to_gops_parallel(&seq, codec, &config, threads).unwrap());
                },
            );
        }
    }
    group.finish();

    let mut group = c.benchmark_group("decode_parallel");
    group.sample_size(10);
    group.throughput(Throughput::Elements(pixels));
    for codec in [Codec::H264, Codec::Hevc] {
        let gops = encode_to_gops_parallel(&seq, codec, &config, 1).unwrap();
        for threads in [1usize, 2, 4] {
            group.bench_with_input(
                BenchmarkId::new(codec.name(), threads),
                &threads,
                |b, &threads| {
                    b.iter(|| decode_gops_parallel(&gops, codec, threads).unwrap());
                },
            );
        }
    }
    group.finish();
}

/// The readahead dimension: multi-GOP decode through the bounded in-order
/// prefetcher the streaming read path uses, at depths 0 (synchronous
/// baseline), 1 and 4. Depth > 0 overlaps the decode of GOP *n + k* with the
/// consumer's handling of GOP *n*; output order (and bytes) are identical at
/// every depth, so the rows measure pipelining alone.
fn readahead_benches(c: &mut Criterion) {
    let seq = sequence(32, 160, 96);
    let pixels = 160 * 96 * seq.len() as u64;
    let config = EncoderConfig { quality: 85, gop_size: 4 };

    let mut group = c.benchmark_group("decode_readahead");
    group.sample_size(10);
    group.throughput(Throughput::Elements(pixels));
    for codec in [Codec::H264, Codec::Hevc] {
        // Share the encoded GOPs behind Arcs so the depth > 0 arms hand the
        // prefetcher an owned work list without copying any bitstream bytes
        // inside the timed region.
        let gops: Vec<std::sync::Arc<vss_codec::EncodedGop>> =
            encode_to_gops_parallel(&seq, codec, &config, 1)
                .unwrap()
                .into_iter()
                .map(std::sync::Arc::new)
                .collect();
        for depth in [0usize, 1, 4] {
            group.bench_with_input(BenchmarkId::new(codec.name(), depth), &depth, |b, &depth| {
                b.iter(|| {
                    let implementation = codec_instance(codec);
                    let mut decoded_frames = 0usize;
                    if depth == 0 {
                        for gop in &gops {
                            decoded_frames += implementation.decode(gop).unwrap().len();
                        }
                    } else {
                        let mut prefetch = vss_parallel::OrderedPrefetch::spawn(
                            0,
                            depth,
                            gops.clone(),
                            move |_, gop: &std::sync::Arc<vss_codec::EncodedGop>| {
                                codec_instance(codec).decode(gop).unwrap()
                            },
                        );
                        while let Some(frames) = prefetch.recv() {
                            decoded_frames += frames.len();
                        }
                    }
                    assert_eq!(decoded_frames, seq.len());
                });
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    codec_benches,
    encode_rgb_benches,
    convert_benches,
    parallel_scaling_benches,
    readahead_benches
);
criterion_main!(benches);
