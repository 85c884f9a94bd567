//! Per-layer attribution of a traced window, from four outside sources:
//!
//! * **[B]** the benchmark's own spans around its public calls
//!   ([`crate::run::ReadRecord`]'s open / first-chunk / chunk-wait times);
//! * **[S]** server telemetry deltas read with `RemoteStore::stats_snapshot`
//!   at the window's edges — sums and counts only, since cumulative
//!   quantiles cannot be differenced;
//! * **[P]** `/proc/<server pid>`;
//! * **[R]** an in-process replay of the window's requests against the
//!   lower layers' public functions, on the same store after the server
//!   child has exited.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

use vss_codec::{codec_instance, Codec, EncodedGop, EncoderConfig};
use vss_core::ReadRequest;
use vss_frame::{resize_bilinear, Frame, FrameSequence, PixelFormat};
use vss_server::Session;
use vss_telemetry::TelemetrySnapshot;

use crate::plan::{Class, ReadOp, INDEX_RES};
use crate::run::{Outcome, Window};
use crate::stats;

/// One metric: name, unit, value.
pub type Metric = (String, &'static str, f64);

/// Reads per class the replay re-executes in-process.
const REPLAY_PER_CLASS: usize = 24;
/// GOPs whose frames the codec and frame replays run on.
const REPLAY_GOPS: usize = 4;

/// Digest of an in-process `Session` read of `op`, in the same byte order
/// as the client's digest of the remote read.
pub fn local_digest(session: &Session, op: &ReadOp) -> Result<u64, String> {
    let mut digest = DefaultHasher::new();
    for chunk in session
        .read_stream(&op.request())
        .map_err(|e| e.to_string())?
    {
        let chunk = chunk.map_err(|e| e.to_string())?;
        for frame in chunk.frames.frames() {
            frame.data().hash(&mut digest);
        }
        if let Some(gop) = &chunk.encoded_gop {
            gop.to_bytes().hash(&mut digest);
        }
    }
    Ok(digest.finish())
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// [R] metrics: the traced window's reads replayed in-process per class,
/// the planner's share of opening them, and the codec and frame kernels
/// timed on `camera`'s stored GOPs.
pub fn replay(session: &Session, window: &Window, camera: &str) -> Result<Vec<Metric>, String> {
    let mut metrics = Vec::new();
    let mut plan_ms = Vec::new();
    let mut segments = Vec::new();
    for class in Class::ALL {
        let mut times = Vec::new();
        for read in window
            .reads
            .iter()
            .filter(|r| r.op.class == class)
            .take(REPLAY_PER_CLASS)
        {
            let started = Instant::now();
            let stream = session
                .read_stream(&read.op.request())
                .map_err(|e| format!("replay open: {e}"))?;
            plan_ms.push(stream.stats().planning.as_secs_f64() * 1e3);
            segments.push(stream.plan().segments.len() as f64);
            for chunk in stream {
                chunk.map_err(|e| format!("replay read: {e}"))?;
            }
            times.push(ms_since(started));
        }
        metrics.push((
            format!("core.read_ms.{}", class.name()),
            "ms",
            stats::mean(&times).unwrap_or(0.0),
        ));
    }
    metrics.push((
        "solver.plan_ms".into(),
        "ms",
        stats::mean(&plan_ms).unwrap_or(0.0),
    ));
    metrics.push((
        "solver.segments_per_read".into(),
        "count",
        stats::mean(&segments).unwrap_or(0.0),
    ));

    // The stored GOPs themselves: a passthrough read returns them verbatim.
    let passthrough = ReadRequest::new(camera, 0.0, REPLAY_GOPS as f64, Codec::H264).uncacheable();
    let mut stored: Vec<EncodedGop> = Vec::new();
    for chunk in session
        .read_stream(&passthrough)
        .map_err(|e| format!("replay passthrough: {e}"))?
    {
        let chunk = chunk.map_err(|e| format!("replay passthrough: {e}"))?;
        stored.extend(chunk.encoded_gop);
    }
    let h264 = codec_instance(Codec::H264);
    let hevc = codec_instance(Codec::Hevc);
    let config = EncoderConfig::default();
    let per_frame = |total_ms: f64, frames: usize| total_ms / frames.max(1) as f64;

    let started = Instant::now();
    let decoded: Vec<FrameSequence> = stored
        .iter()
        .map(|gop| h264.decode(gop))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let frames: usize = decoded.iter().map(FrameSequence::len).sum();
    let decode_h264 = per_frame(ms_since(started), frames);
    let started = Instant::now();
    for seq in &decoded {
        h264.encode(seq, &config).map_err(|e| e.to_string())?;
    }
    let encode_h264 = per_frame(ms_since(started), frames);
    let started = Instant::now();
    let hevc_gops: Vec<EncodedGop> = decoded
        .iter()
        .map(|seq| hevc.encode(seq, &config))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let encode_hevc = per_frame(ms_since(started), frames);
    let started = Instant::now();
    for gop in &hevc_gops {
        hevc.decode(gop).map_err(|e| e.to_string())?;
    }
    let decode_hevc = per_frame(ms_since(started), frames);
    metrics.push(("codec.decode_ms_per_frame.h264".into(), "ms", decode_h264));
    metrics.push(("codec.decode_ms_per_frame.hevc".into(), "ms", decode_hevc));
    metrics.push(("codec.encode_ms_per_frame.h264".into(), "ms", encode_h264));
    metrics.push(("codec.encode_ms_per_frame.hevc".into(), "ms", encode_hevc));

    // The `index` class's frame work: resize to a quarter, convert to RGB.
    let all: Vec<&Frame> = decoded.iter().flat_map(|seq| seq.frames()).collect();
    let started = Instant::now();
    let resized: Vec<Frame> = all
        .iter()
        .map(|f| resize_bilinear(f, INDEX_RES.0, INDEX_RES.1))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    metrics.push((
        "frame.resize_ms_per_frame".into(),
        "ms",
        per_frame(ms_since(started), all.len()),
    ));
    let started = Instant::now();
    for frame in &resized {
        frame
            .convert(PixelFormat::Rgb8)
            .map_err(|e| e.to_string())?;
    }
    metrics.push((
        "frame.convert_ms_per_frame".into(),
        "ms",
        per_frame(ms_since(started), resized.len()),
    ));
    Ok(metrics)
}

/// Sums and counts of a snapshot, over every label set of a series.
struct Snap<'a>(&'a TelemetrySnapshot);

fn matches(key: &str, name: &str) -> bool {
    key == name || (key.starts_with(name) && key[name.len()..].starts_with('{'))
}

impl Snap<'_> {
    fn counter(&self, name: &str) -> u64 {
        self.0
            .counters
            .iter()
            .filter(|(k, _)| matches(k, name))
            .map(|(_, v)| v)
            .sum()
    }

    /// (count, sum in ns) of a histogram; `name` may name one exact label
    /// set.
    fn hist(&self, name: &str) -> (u64, u64) {
        self.0
            .histograms
            .iter()
            .filter(|(k, _)| matches(k, name))
            .fold((0, 0), |(c, s), (_, h)| (c + h.count, s + h.sum))
    }
}

/// The difference of one series between two snapshots.
struct Delta<'a> {
    before: Snap<'a>,
    after: Snap<'a>,
}

impl Delta<'_> {
    fn counter(&self, name: &str) -> f64 {
        self.after
            .counter(name)
            .saturating_sub(self.before.counter(name)) as f64
    }

    fn hist(&self, name: &str) -> (f64, f64) {
        let (c0, s0) = self.before.hist(name);
        let (c1, s1) = self.after.hist(name);
        (
            c1.saturating_sub(c0) as f64,
            s1.saturating_sub(s0) as f64 / 1e6,
        )
    }

    /// Total ms recorded by `name` during the window.
    fn ms(&self, name: &str) -> f64 {
        self.hist(name).1
    }

    /// Mean ms per sample recorded by `name` during the window.
    fn mean_ms(&self, name: &str) -> f64 {
        let (count, ms) = self.hist(name);
        ratio(ms, count)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric of a traced run, in `BENCHMARK.json` order.
pub fn per_layer(outcome: &Outcome) -> Vec<Metric> {
    let window = outcome
        .traced
        .as_ref()
        .expect("per-layer metrics need the traced window");
    let (before, after) = window
        .telemetry
        .as_ref()
        .expect("traced windows carry telemetry");
    let d = Delta {
        before: Snap(before),
        after: Snap(after),
    };
    let reads = window.reads.len() as f64;
    let ops = window.ops() as f64;
    let mean = |values: Vec<f64>| stats::mean(&values).unwrap_or(0.0);
    let ok_reads = || window.reads.iter().filter(|r| r.error.is_none());
    let client_ms: f64 = window.latencies().iter().filter(|l| l.is_finite()).sum();
    let read_payload: f64 = window.reads.iter().map(|r| r.payload_bytes as f64).sum();
    let append_payload: f64 = window.appends.iter().map(|a| a.raw_bytes as f64).sum();
    // The live subscriber's GOPs cross the wire too: they are payload.
    let live_sent: f64 = outcome
        .live_received
        .iter()
        .filter(|(at, _)| (window.span.0..=window.span.1).contains(at))
        .map(|(_, bytes)| *bytes as f64)
        .sum();
    let dispatch_ms = d.ms("net.dispatch.latency_ns");
    let (stream_n, stream_ms) = {
        let (rn, rms) = d.hist("net.read_stream.latency_ns");
        let (an, ams) = d.hist("net.append.latency_ns");
        (rn + an, rms + ams)
    };
    let (fsyncs, _) = d.hist("wal.journal.fsync_ns");
    let overhead = match (
        stats::mean(&outcome.untraced.measured()),
        stats::mean(&window.measured()),
    ) {
        (Some(u), Some(t)) if u > 0.0 && t.is_finite() && u.is_finite() => (t / u - 1.0) * 100.0,
        _ => 0.0,
    };
    let mut metrics: Vec<Metric> = vec![
        (
            "client.open_ms".into(),
            "ms",
            mean(ok_reads().map(|r| r.open_ms).collect()),
        ),
        (
            "client.first_chunk_ms".into(),
            "ms",
            mean(ok_reads().map(|r| r.first_chunk_ms).collect()),
        ),
        (
            "client.chunk_wait_ms".into(),
            "ms",
            mean(ok_reads().map(|r| r.chunk_wait_ms).collect()),
        ),
        (
            "client.append_ms".into(),
            "ms",
            mean(
                window
                    .appends
                    .iter()
                    .filter(|a| a.error.is_none())
                    .map(|a| a.latency_ms)
                    .collect(),
            ),
        ),
        (
            "client.cpu_ms_per_op".into(),
            "ms",
            ratio(window.client_cpu_ms, ops),
        ),
        (
            "net.sent_bytes_per_payload_byte".into(),
            "ratio",
            ratio(d.counter("net.conn.bytes_sent"), read_payload + live_sent),
        ),
        (
            "net.recv_bytes_per_payload_byte".into(),
            "ratio",
            ratio(d.counter("net.conn.bytes_received"), append_payload),
        ),
        ("net.stream_ms".into(), "ms", ratio(stream_ms, stream_n)),
        (
            "net.dispatch_ms".into(),
            "ms",
            d.mean_ms("net.dispatch.latency_ns"),
        ),
        (
            "net.credit_stall_ms".into(),
            "ms",
            ratio(d.ms("net.mux.credit_stall_ns{kind=read}"), reads),
        ),
        (
            "net.resets_per_stream".into(),
            "count",
            ratio(
                d.counter("net.mux.resets"),
                d.counter("net.mux.streams_opened{kind=read}")
                    + d.counter("net.mux.streams_opened{kind=write}"),
            ),
        ),
        (
            "server.lock_wait_ms".into(),
            "ms",
            ratio(d.ms("server.shard.lock_wait_ns"), ops),
        ),
        (
            "server.cache_hit_ratio".into(),
            "ratio",
            ratio(
                d.counter("server.shard.cache_hit_reads"),
                d.counter("server.shard.read_ops"),
            ),
        ),
        (
            "server.shed_ratio".into(),
            "ratio",
            ratio(d.counter("server.admission.shed_total"), ops),
        ),
        (
            "server.cpu_ms_per_op".into(),
            "ms",
            ratio(window.proc.1.cpu_ms - window.proc.0.cpu_ms, ops),
        ),
        (
            "server.threads_peak".into(),
            "count",
            window.threads_peak as f64,
        ),
        (
            "server.rss_mb".into(),
            "MB",
            stats::median(
                &window
                    .rss_kb
                    .iter()
                    .map(|&kb| kb as f64 / 1024.0)
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "server.peak_rss_mb".into(),
            "MB",
            outcome.server_peak_rss_mb,
        ),
        (
            "core.open_ms".into(),
            "ms",
            d.mean_ms("engine.read_stream.latency_ns"),
        ),
        (
            "core.append_ms".into(),
            "ms",
            d.mean_ms("engine.append.latency_ns"),
        ),
        (
            "core.readahead_stall_ms".into(),
            "ms",
            ratio(d.ms("stream.readahead.stall_ns"), reads),
        ),
    ];
    metrics.extend(outcome.replay.iter().cloned());
    metrics.extend([
        ("catalog.fsyncs_per_op".into(), "count", ratio(fsyncs, ops)),
        (
            "catalog.fsync_ms".into(),
            "ms",
            d.mean_ms("wal.journal.fsync_ns"),
        ),
        (
            "catalog.wal_append_ms".into(),
            "ms",
            ratio(d.ms("wal.journal.append_ns"), ops),
        ),
        (
            "live.lag_events".into(),
            "count",
            d.counter("live.hub.lag_events"),
        ),
        (
            "live.catchup_reads".into(),
            "count",
            d.counter("live.hub.catchup_reads"),
        ),
        (
            "live.server_lag_ms".into(),
            "ms",
            d.mean_ms("live.sub.delivery_lag_ns"),
        ),
        (
            "unattributed_ms".into(),
            "ms",
            ratio(client_ms - dispatch_ms - stream_ms, ops),
        ),
        ("trace.overhead_pct".into(), "%", overhead),
    ]);
    metrics
}
