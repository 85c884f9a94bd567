//! The three workloads and the closed-loop client threads that drive them.
//!
//! Every run: set up (render, spawn the server child, pre-write) several
//! times and keep the last; warm up; measure one untraced window; with
//! `--trace 1` measure a second, traced window; check every gate; stop the
//! child; re-check sampled reads in-process.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vss_codec::Codec;
use vss_core::{VideoStorage, WriteRequest};
use vss_frame::{FrameSequence, PixelFormat, Resolution};
use vss_net::{RemoteStore, SubEvent, SubscribeFrom};
use vss_server::VssServer;
use vss_telemetry::TelemetrySnapshot;
use vss_workload::{CameraMotion, SceneConfig, SceneRenderer};

use crate::child::{self, ProcSample, ServerChild};
use crate::plan::{self, Class, ReadMix, ReadOp, Rng, FPS, GOP_FRAMES, HEIGHT, WIDTH};
use crate::speed::SpeedProbe;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Warm-up before the first measured window.
const WARMUP: Duration = Duration::from_secs(1);
/// An op slower than this counts as failed (timed out).
const OP_TIMEOUT: Duration = Duration::from_secs(10);
/// How long past a window's end the clients may take to finish their last
/// op before the server is declared hung.
const HANG_GRACE: Duration = Duration::from_secs(30);
/// Distinct GOPs rendered per live camera; appends cycle through them.
const POOL_GOPS: usize = 10;
/// Live (appended) cameras.
const LIVE_CAMERAS: usize = 2;

/// A workload name from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One appender over two fresh cameras plus one live subscriber.
    Ingest,
    /// Two readers running the seeded read mix over pre-written cameras.
    Analytics,
    /// One appender beside one reader of the read mix.
    Mixed,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "ingest" => Some(Workload::Ingest),
            "analytics" => Some(Workload::Analytics),
            "mixed" => Some(Workload::Mixed),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Analytics => "analytics",
            Workload::Mixed => "mixed",
        }
    }

    fn readers(self) -> usize {
        match self {
            Workload::Ingest => 0,
            Workload::Analytics => 2,
            Workload::Mixed => 1,
        }
    }

    fn appends(self) -> bool {
        self != Workload::Analytics
    }
}

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of each measured window.
    pub seconds: f64,
    /// Whether to run the traced window too.
    pub trace: bool,
    /// Scratch directory of this run (removed at the end).
    pub work: PathBuf,
}

/// One measured read.
#[derive(Debug, Clone)]
pub struct ReadRecord {
    /// What was asked.
    pub op: ReadOp,
    /// Start, in seconds since the run's epoch.
    pub started: f64,
    /// Call to last chunk; `INFINITY` for a failed read.
    pub latency_ms: f64,
    /// Why the read failed, if it did.
    pub error: Option<String>,
    /// Traced windows only: `read_stream` call to return.
    pub open_ms: f64,
    /// Traced windows only: stream open to first chunk.
    pub first_chunk_ms: f64,
    /// Traced windows only: total time blocked waiting for chunks.
    pub chunk_wait_ms: f64,
    /// Bytes the caller asked for: encoded GOP bytes of compressed reads,
    /// frame bytes of raw ones.
    pub payload_bytes: u64,
    /// Digest of every returned byte, for sampled reads.
    pub digest: Option<u64>,
}

/// One measured append.
#[derive(Debug, Clone)]
pub struct AppendRecord {
    /// Live camera index.
    pub camera: usize,
    /// The GOP's sequence number on its camera.
    pub seq: u64,
    /// Start, in seconds since the run's epoch.
    pub started: f64,
    /// Call to durable ack; `INFINITY` for a failed append.
    pub latency_ms: f64,
    /// Why the append failed, if it did.
    pub error: Option<String>,
    /// When the ack arrived.
    pub acked: Instant,
    /// Raw RGB bytes appended.
    pub raw_bytes: u64,
    /// Whether the server persisted the GOP (a timed-out append that was
    /// acked still did).
    pub applied: bool,
}

/// What one measured window produced.
#[derive(Debug, Default)]
pub struct Window {
    /// Window start and end (seconds since epoch); the end covers the last
    /// op's completion.
    pub span: (f64, f64),
    /// Reads started inside the window.
    pub reads: Vec<ReadRecord>,
    /// Appends started inside the window.
    pub appends: Vec<AppendRecord>,
    /// Server telemetry at the window's edges (traced windows only).
    pub telemetry: Option<(TelemetrySnapshot, TelemetrySnapshot)>,
    /// Server `/proc` at the window's edges.
    pub proc: (ProcSample, ProcSample),
    /// Highest server thread count seen during the window.
    pub threads_peak: u64,
    /// Server `VmRSS` samples taken during the window, in kB.
    pub rss_kb: Vec<u64>,
    /// This process's CPU time over the window, in ms.
    pub client_cpu_ms: f64,
}

impl Window {
    /// Seconds the window lasted.
    pub fn seconds(&self) -> f64 {
        self.span.1 - self.span.0
    }

    /// Foreground ops (reads and appends) started inside the window.
    pub fn ops(&self) -> usize {
        self.reads.len() + self.appends.len()
    }

    /// Latencies of the workload's measured op type: reads where the
    /// workload reads (in `mixed` the appends are the interference),
    /// appends otherwise.
    pub fn measured(&self) -> Vec<f64> {
        if self.reads.is_empty() {
            self.appends.iter().map(|a| a.latency_ms).collect()
        } else {
            self.reads.iter().map(|r| r.latency_ms).collect()
        }
    }

    /// Latencies of every foreground op (failed ops are `INFINITY`).
    pub fn latencies(&self) -> Vec<f64> {
        self.reads
            .iter()
            .map(|r| r.latency_ms)
            .chain(self.appends.iter().map(|a| a.latency_ms))
            .collect()
    }
}

/// Everything a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Set-up time of each repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// The untraced window.
    pub untraced: Window,
    /// The traced window (`--trace 1` only).
    pub traced: Option<Window>,
    /// Foreground ops attempted over the whole run (warm-up included).
    pub attempted: usize,
    /// Foreground ops that failed or timed out.
    pub failed: usize,
    /// Correctness-gate violations.
    pub gate_failures: Vec<String>,
    /// Σ `bytes_used` over every camera ÷ raw RGB bytes written.
    pub storage_ratio: f64,
    /// Server child `VmHWM` at the end of the run, in MB.
    pub server_peak_rss_mb: f64,
    /// Live lag per delivered GOP (subscriber receive − writer ack), in ms.
    pub live_lags_ms: Vec<f64>,
    /// Each GOP the live subscriber received: when (seconds since the
    /// run's epoch) and its encoded size.
    pub live_received: Vec<(f64, u64)>,
    /// Per-layer metrics from the in-process replay (`--trace 1` only).
    pub replay: Vec<(String, &'static str, f64)>,
    /// CPU time of each host-speed probe burst over the run, in ms.
    pub probe_ms: Vec<f64>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Renders `frames` RGB frames of camera `camera` of the run seeded `seed`
/// (each camera is its own VisualRoad-style scene).
fn render_camera(seed: u64, camera: u64, frames: usize) -> FrameSequence {
    let mut rng = Rng::new(seed, 0xCA11_0000 + camera);
    SceneRenderer::new(SceneConfig {
        resolution: Resolution::new(WIDTH, HEIGHT),
        format: PixelFormat::Rgb8,
        frame_rate: FPS,
        overlap: 0.3,
        vehicles: 6 + rng.below(4),
        motion: CameraMotion::Static,
        noise_amplitude: 2,
        seed: rng.next_u64(),
    })
    .render_sequence((camera % 2) as usize, frames)
}

/// Names for the live cameras: the first ones that land on distinct shards,
/// so appends contend with reads on both shards.
pub fn live_camera_names(work: &Path) -> Result<Vec<String>, String> {
    let root = work.join("routing");
    let names = {
        let router = VssServer::open_sharded(vss_core::VssConfig::new(&root), child::SHARDS)
            .map_err(|e| format!("routing probe: {e}"))?;
        let mut names = Vec::new();
        for shard in 0..LIVE_CAMERAS.min(child::SHARDS) {
            let name = (0..)
                .map(|i| format!("live-{i}"))
                .find(|name| router.shard_of(name) == shard && !names.contains(name))
                .expect("some name lands on every shard");
            names.push(name);
        }
        names
    };
    let _ = std::fs::remove_dir_all(&root);
    Ok(names)
}

/// A set-up store: the server child plus what was written to it.
struct Prepared {
    child: ServerChild,
    root: PathBuf,
    /// Raw RGB bytes written so far.
    raw_bytes: u64,
    /// The appenders' GOP pool: `pool[camera][i]`.
    pool: Arc<Vec<Vec<FrameSequence>>>,
}

/// Runs `f` over `0..n` on two threads (set-up work, not load), returning
/// results in index order.
fn on_two_threads<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let f = &f;
    let mut halves: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|half| scope.spawn(move || (half..n).step_by(2).map(|i| (i, f(i))).collect()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("set-up thread panicked"))
            .collect()
    });
    let mut all: Vec<(usize, T)> = halves.drain(..).flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, t)| t).collect()
}

/// One set-up repetition: render, spawn the server, pre-write.
fn setup_once(opts: &Options, live: &[String], rep: usize) -> Result<(Prepared, f64), String> {
    let started = Instant::now();
    let workload = opts.workload;
    let read_cams = if workload.readers() > 0 {
        plan::READ_CAMERAS
    } else {
        0
    };
    let live_cams = if workload.appends() { live.len() } else { 0 };
    // Cameras 0.. are the pre-written ones; 100.. seed the appenders' pools.
    let mut rendered = on_two_threads(read_cams + live_cams, |i| {
        if i < read_cams {
            render_camera(opts.seed, i as u64, plan::READ_SECONDS * FPS as usize)
        } else {
            render_camera(
                opts.seed,
                100 + (i - read_cams) as u64,
                POOL_GOPS * GOP_FRAMES,
            )
        }
    });
    let pool: Vec<Vec<FrameSequence>> = rendered
        .split_off(read_cams)
        .iter()
        .map(|clip| {
            clip.frames()
                .chunks(GOP_FRAMES)
                .map(|gop| FrameSequence::new(gop.to_vec(), FPS).expect("uniform GOP"))
                .collect()
        })
        .collect();
    let root = opts.work.join(format!("store-{rep}"));
    let child = ServerChild::spawn(&root)?;
    // Every pre-written camera, then each live camera's first GOP (so every
    // later live GOP is an append), written over two connections.
    let writes: Vec<(String, &FrameSequence)> = rendered
        .iter()
        .enumerate()
        .map(|(i, frames)| (plan::read_camera(i), frames))
        .chain(
            live.iter()
                .take(live_cams)
                .zip(&pool)
                .map(|(name, gops)| (name.clone(), &gops[0])),
        )
        .collect();
    let addr = child.addr;
    let written = on_two_threads(2, |half| -> Result<u64, String> {
        let mut store = RemoteStore::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut bytes = 0;
        for (name, frames) in writes.iter().skip(half).step_by(2) {
            let report = store
                .write(&WriteRequest::new(name.as_str(), Codec::H264), frames)
                .map_err(|e| format!("pre-write {name}: {e}"))?;
            if report.frames_written != frames.len() {
                return Err(format!(
                    "pre-write {name} stored {} of {} frames",
                    report.frames_written,
                    frames.len()
                ));
            }
            bytes += frames.byte_len() as u64;
        }
        Ok(bytes)
    });
    let raw_bytes = written.into_iter().sum::<Result<u64, String>>()?;
    let elapsed = started.elapsed().as_secs_f64();
    Ok((
        Prepared {
            child,
            root,
            raw_bytes,
            pool: Arc::new(pool),
        },
        elapsed,
    ))
}

/// A closed-loop client thread's persistent state.
enum Worker {
    Reader {
        store: RemoteStore,
        mix: ReadMix,
    },
    Appender {
        store: RemoteStore,
        cams: Vec<String>,
        pool: Arc<Vec<Vec<FrameSequence>>>,
        next_seq: Vec<u64>,
        turn: usize,
    },
}

#[derive(Default)]
struct WorkerOutput {
    reads: Vec<ReadRecord>,
    appends: Vec<AppendRecord>,
}

impl Worker {
    /// Runs ops back to back until `until` (or `abort`).
    fn run(
        &mut self,
        until: Instant,
        abort: &AtomicBool,
        epoch: Instant,
        traced: bool,
        gates: &mut Vec<String>,
    ) -> WorkerOutput {
        let mut out = WorkerOutput::default();
        while Instant::now() < until && !abort.load(Ordering::Relaxed) {
            match self {
                Worker::Reader { store, mix } => {
                    let op = mix.next_op();
                    out.reads.push(read_once(store, op, epoch, traced, gates));
                }
                Worker::Appender {
                    store,
                    cams,
                    pool,
                    next_seq,
                    turn,
                } => {
                    let camera = *turn % cams.len();
                    *turn += 1;
                    let seq = next_seq[camera];
                    let gop = &pool[camera][seq as usize % pool[camera].len()];
                    let started = Instant::now();
                    let result = store.append(&cams[camera], gop);
                    let acked = Instant::now();
                    let mut latency_ms = ms(acked - started);
                    let applied = result.is_ok();
                    let error = match result {
                        Ok(report)
                            if report.gops_written == 1 && report.frames_written == GOP_FRAMES =>
                        {
                            None
                        }
                        Ok(report) => {
                            gates.push(format!(
                                "append to {} stored {} GOPs / {} frames, expected 1 / {GOP_FRAMES}",
                                cams[camera], report.gops_written, report.frames_written
                            ));
                            None
                        }
                        Err(e) => Some(e.to_string()),
                    };
                    let error = error.or_else(|| {
                        (acked - started > OP_TIMEOUT)
                            .then(|| format!("timed out after {latency_ms:.0} ms"))
                    });
                    if error.is_some() {
                        latency_ms = f64::INFINITY;
                    }
                    if applied {
                        next_seq[camera] += 1;
                    }
                    out.appends.push(AppendRecord {
                        camera,
                        seq,
                        started: (started - epoch).as_secs_f64(),
                        latency_ms,
                        error,
                        acked,
                        raw_bytes: gop.byte_len() as u64,
                        applied,
                    });
                }
            }
        }
        out
    }

    fn store(&self) -> &RemoteStore {
        match self {
            Worker::Reader { store, .. } | Worker::Appender { store, .. } => store,
        }
    }
}

/// Streams one read GOP by GOP, checking every chunk against the class's
/// expected shape.
fn read_once(
    store: &mut RemoteStore,
    op: ReadOp,
    epoch: Instant,
    traced: bool,
    gates: &mut Vec<String>,
) -> ReadRecord {
    let request = op.request();
    let started = Instant::now();
    let mut record = ReadRecord {
        started: (started - epoch).as_secs_f64(),
        latency_ms: f64::INFINITY,
        error: None,
        open_ms: 0.0,
        first_chunk_ms: 0.0,
        chunk_wait_ms: 0.0,
        payload_bytes: 0,
        digest: None,
        op,
    };
    let class = record.op.class;
    let mut stream = match store.read_stream(&request) {
        Ok(stream) => stream,
        Err(e) => {
            record.error = Some(e.to_string());
            return record;
        }
    };
    let opened = Instant::now();
    let mut digest = record.op.sampled.then(DefaultHasher::new);
    let (width, height, format) = class.expected_shape();
    let mut frames = 0usize;
    let mut gops = 0usize;
    let mut gop_frames = 0usize;
    let mut seen_format: Option<PixelFormat> = format;
    let mut waited = Duration::ZERO;
    let mut last = opened;
    let mut problem: Option<String> = None;
    loop {
        let next = stream.next();
        if traced {
            let now = Instant::now();
            if frames == 0 && gops == 0 {
                record.first_chunk_ms = ms(now - opened);
            }
            waited += now - last;
        }
        let chunk = match next {
            None => break,
            Some(Ok(chunk)) => chunk,
            Some(Err(e)) => {
                record.error = Some(e.to_string());
                return record;
            }
        };
        for frame in chunk.frames.frames() {
            let expected_format = *seen_format.get_or_insert(frame.format());
            if (frame.width(), frame.height(), frame.format()) != (width, height, expected_format) {
                problem.get_or_insert(format!(
                    "{} read returned a {}x{} {:?} frame, expected {width}x{height} {expected_format:?}",
                    class.name(),
                    frame.width(),
                    frame.height(),
                    frame.format()
                ));
            }
            if let Some(d) = digest.as_mut() {
                frame.data().hash(d);
            }
        }
        frames += chunk.frames.len();
        match (&chunk.encoded_gop, class.output_codec()) {
            (Some(gop), Some(codec)) => {
                if gop.codec() != codec {
                    problem.get_or_insert(format!(
                        "{} read returned {:?}, expected {codec:?}",
                        class.name(),
                        gop.codec()
                    ));
                }
                gops += 1;
                gop_frames += gop.frame_count();
                record.payload_bytes += gop.byte_len() as u64;
                if let Some(d) = digest.as_mut() {
                    gop.to_bytes().hash(d);
                }
            }
            (None, None) => record.payload_bytes += chunk.frames.byte_len() as u64,
            (Some(_), None) => {
                problem.get_or_insert(format!("{} read returned an encoded GOP", class.name()));
            }
            (None, Some(_)) => {
                problem.get_or_insert(format!(
                    "{} read chunk carried no encoded GOP",
                    class.name()
                ));
            }
        }
        if traced {
            last = Instant::now();
        }
    }
    let finished = Instant::now();
    let expected = class.expected_frames();
    if frames != expected {
        problem.get_or_insert(format!(
            "{} read returned {frames} frames, expected {expected}",
            class.name()
        ));
    }
    // Same-codec reads may be served as whole stored GOPs (a mid-GOP clip
    // comes back as the two GOPs around it), so the encoded output must
    // cover the range; the sampled in-process comparison checks it exactly.
    if class.output_codec().is_some() && gop_frames < expected {
        problem.get_or_insert(format!(
            "{} read encoded {gop_frames} frames, expected at least {expected}",
            class.name()
        ));
    }
    if class == Class::Export && gops != plan::EXPORT_SECONDS {
        problem.get_or_insert(format!(
            "export passthrough returned {gops} GOPs, expected {}",
            plan::EXPORT_SECONDS
        ));
    }
    if let Some(problem) = problem {
        gates.push(format!("{problem} ({:?})", request));
    }
    record.latency_ms = ms(finished - started);
    if finished - started > OP_TIMEOUT {
        record.error = Some(format!("timed out after {:.0} ms", record.latency_ms));
        record.latency_ms = f64::INFINITY;
    }
    if traced {
        record.open_ms = ms(opened - started);
        record.chunk_wait_ms = ms(waited);
    }
    record.digest = digest.map(|d| d.finish());
    record
}

/// The live subscriber of `ingest`: tails camera 0 from its start until the
/// video ends, checking sequence numbers and digesting every GOP.
struct LiveTail {
    digest: DefaultHasher,
    /// (sequence number, arrival, encoded bytes) per GOP.
    received: Vec<(u64, Instant, u64)>,
}

fn live_tail(store: RemoteStore, name: &str, count: &AtomicU64) -> Result<LiveTail, String> {
    let feed = store
        .subscribe(name, SubscribeFrom::Start)
        .map_err(|e| format!("subscribe {name}: {e}"))?;
    let mut tail = LiveTail {
        digest: DefaultHasher::new(),
        received: Vec::new(),
    };
    for event in feed {
        match event {
            Ok(SubEvent::Gop(gop)) => {
                let now = Instant::now();
                let expected = tail.received.len() as u64;
                if gop.seq != expected {
                    return Err(format!(
                        "live feed delivered GOP {} where {expected} was due",
                        gop.seq
                    ));
                }
                let bytes = gop.gop.to_bytes();
                bytes.hash(&mut tail.digest);
                tail.received.push((gop.seq, now, bytes.len() as u64));
                count.store(tail.received.len() as u64, Ordering::Release);
            }
            Ok(SubEvent::End) => return Ok(tail),
            Ok(other) => return Err(format!("unexpected live event {other:?}")),
            Err(e) => return Err(format!("live feed failed: {e}")),
        }
    }
    Ok(tail)
}

/// Runs one window: every worker on its own thread, the main thread
/// watching the child.
fn run_window(
    workers: &mut [Worker],
    child: &mut ServerChild,
    epoch: Instant,
    length: Duration,
    traced: bool,
    gates: &mut Vec<String>,
) -> Result<Window, String> {
    let telemetry_before = if traced {
        Some(
            workers[0]
                .store()
                .stats_snapshot()
                .map_err(|e| format!("stats snapshot: {e}"))?,
        )
    } else {
        None
    };
    let proc_before = child.sample()?;
    let cpu_before = child::self_cpu_ms();
    let abort = AtomicBool::new(false);
    let start = Instant::now();
    let until = start + length;
    let mut threads_peak = proc_before.threads;
    let mut rss_kb = vec![proc_before.rss_kb];
    let mut failure = None;
    let outputs: Vec<(WorkerOutput, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .map(|worker| {
                let abort = &abort;
                scope.spawn(move || {
                    let mut gates = Vec::new();
                    let out = worker.run(until, abort, epoch, traced, &mut gates);
                    (out, gates)
                })
            })
            .collect();
        while !handles.iter().all(|h| h.is_finished()) {
            std::thread::sleep(Duration::from_millis(25));
            match child.check_alive().and_then(|()| child.sample()) {
                Ok(sample) => {
                    threads_peak = threads_peak.max(sample.threads);
                    rss_kb.push(sample.rss_kb);
                }
                Err(e) => {
                    failure.get_or_insert(e);
                    abort.store(true, Ordering::Relaxed);
                }
            }
            if failure.is_none() && Instant::now() > until + HANG_GRACE {
                abort.store(true, Ordering::Relaxed);
                // Killing the child unblocks every client call.
                failure = Some(child.fail(&format!(
                    "clients still blocked {HANG_GRACE:?} after the window: server hung"
                )));
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    if let Some(failure) = failure {
        return Err(failure);
    }
    let client_cpu_ms = child::self_cpu_ms() - cpu_before;
    let proc_after = child.sample()?;
    let telemetry = match telemetry_before {
        Some(before) => {
            let after = workers[0]
                .store()
                .stats_snapshot()
                .map_err(|e| format!("stats snapshot: {e}"))?;
            Some((before, after))
        }
        None => None,
    };
    let mut window = Window {
        telemetry,
        proc: (proc_before, proc_after),
        threads_peak,
        rss_kb,
        client_cpu_ms,
        ..Window::default()
    };
    let mut end = (until - epoch).as_secs_f64();
    for (out, worker_gates) in outputs {
        gates.extend(worker_gates);
        for read in &out.reads {
            if read.latency_ms.is_finite() {
                end = end.max(read.started + read.latency_ms / 1e3);
            }
        }
        for append in &out.appends {
            end = end.max((append.acked - epoch).as_secs_f64());
        }
        window.reads.extend(out.reads);
        window.appends.extend(out.appends);
    }
    window.span = ((start - epoch).as_secs_f64(), end);
    Ok(window)
}

/// Runs the whole workload. `Err` means the run could not complete (dead or
/// hung child, lost connection); gate violations land in
/// [`Outcome::gate_failures`] instead.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let probe = SpeedProbe::start();
    std::fs::create_dir_all(&opts.work)
        .map_err(|e| format!("create {}: {e}", opts.work.display()))?;
    let live = if opts.workload.appends() {
        live_camera_names(&opts.work)?
    } else {
        Vec::new()
    };
    let mut outcome = Outcome::default();
    let mut prepared = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = prepared.take() {
            let Prepared { child, root, .. } = previous;
            child.shutdown()?;
            std::fs::remove_dir_all(&root)
                .map_err(|e| format!("remove {}: {e}", root.display()))?;
        }
        let (ready, seconds) = setup_once(opts, &live, rep)?;
        outcome.setup_s.push(seconds);
        prepared = Some(ready);
    }
    let Prepared {
        mut child,
        root,
        mut raw_bytes,
        pool,
    } = prepared.expect("at least one set-up");
    let epoch = Instant::now();

    let addr = child.addr;
    let connect = move || RemoteStore::connect(addr).map_err(|e| format!("connect: {e}"));
    let mut workers = Vec::new();
    if opts.workload.appends() {
        workers.push(Worker::Appender {
            store: connect()?,
            cams: live.clone(),
            pool: Arc::clone(&pool),
            next_seq: vec![1; live.len()],
            turn: 0,
        });
    }
    for stream in 0..opts.workload.readers() {
        workers.push(Worker::Reader {
            store: connect()?,
            mix: ReadMix::new(opts.seed, stream as u64),
        });
    }
    let live_count = Arc::new(AtomicU64::new(0));
    let tail = if opts.workload == Workload::Ingest {
        let store = connect()?;
        let name = live[0].clone();
        let count = Arc::clone(&live_count);
        Some(std::thread::spawn(move || live_tail(store, &name, &count)))
    } else {
        None
    };

    let mut gates = Vec::new();
    let mut all_reads = Vec::new();
    let mut acks: Vec<(u64, Instant)> = Vec::new();
    let mut account = |window: &Window, outcome: &mut Outcome, all_reads: &mut Vec<ReadRecord>| {
        outcome.attempted += window.ops();
        outcome.failed += window.reads.iter().filter(|r| r.error.is_some()).count()
            + window.appends.iter().filter(|a| a.error.is_some()).count();
        for append in window.appends.iter().filter(|a| a.applied) {
            raw_bytes += append.raw_bytes;
            if append.camera == 0 {
                acks.push((append.seq, append.acked));
            }
        }
        all_reads.extend(window.reads.iter().cloned());
    };
    let warmup = run_window(&mut workers, &mut child, epoch, WARMUP, false, &mut gates)?;
    account(&warmup, &mut outcome, &mut all_reads);
    let length = Duration::from_secs_f64(opts.seconds);
    let untraced = run_window(&mut workers, &mut child, epoch, length, false, &mut gates)?;
    account(&untraced, &mut outcome, &mut all_reads);
    outcome.untraced = untraced;
    if opts.trace {
        let traced = run_window(&mut workers, &mut child, epoch, length, true, &mut gates)?;
        account(&traced, &mut outcome, &mut all_reads);
        outcome.traced = Some(traced);
    }
    let next_seq = match &workers.first() {
        Some(Worker::Appender { next_seq, .. }) => next_seq.clone(),
        _ => Vec::new(),
    };
    // Every appended camera spans exactly its GOP count, one second each.
    let control = connect()?;
    for (c, name) in live.iter().enumerate() {
        let meta = control
            .metadata(name)
            .map_err(|e| format!("metadata {name}: {e}"))?;
        let expected = (0.0, next_seq[c] as f64 * GOP_FRAMES as f64 / FPS);
        match meta.time_range {
            Some(range)
                if (range.0 - expected.0).abs() < 1e-6 && (range.1 - expected.1).abs() < 1e-6 => {}
            other => gates.push(format!(
                "{name} spans {other:?} after {} GOPs, expected {expected:?}",
                next_seq[c]
            )),
        }
    }
    let mut bytes_used = 0u64;
    let names: Vec<String> = (0..opts.workload.readers().min(1) * plan::READ_CAMERAS)
        .map(plan::read_camera)
        .chain(live.iter().cloned())
        .collect();
    for name in &names {
        bytes_used += control
            .metadata(name)
            .map_err(|e| format!("metadata {name}: {e}"))?
            .bytes_used;
    }
    outcome.storage_ratio = bytes_used as f64 / raw_bytes as f64;

    if let Some(tail) = tail {
        let mut control = control;
        let expected = next_seq[0];
        let deadline = Instant::now() + HANG_GRACE;
        while live_count.load(Ordering::Acquire) < expected && Instant::now() < deadline {
            child.check_alive()?;
            std::thread::sleep(Duration::from_millis(10));
        }
        // The reference: a full passthrough read of camera 0.
        let mut reference = DefaultHasher::new();
        let request =
            vss_core::ReadRequest::new(live[0].as_str(), 0.0, expected as f64, Codec::H264)
                .uncacheable();
        let stream = control
            .read_stream(&request)
            .map_err(|e| format!("reference read: {e}"))?;
        for chunk in stream {
            let chunk = chunk.map_err(|e| format!("reference read: {e}"))?;
            let gop = chunk.encoded_gop.ok_or("reference read returned no GOP")?;
            gop.to_bytes().hash(&mut reference);
        }
        // Deleting the video ends the feed with `End`.
        control
            .delete(&live[0])
            .map_err(|e| format!("delete {}: {e}", live[0]))?;
        let tail = tail
            .join()
            .map_err(|_| "live subscriber panicked".to_string())??;
        if tail.received.len() as u64 != expected {
            gates.push(format!(
                "live subscriber received {} GOPs of {expected}",
                tail.received.len()
            ));
        } else if tail.digest.finish() != reference.finish() {
            gates.push("live subscriber bytes differ from a full read of the camera".into());
        }
        let acked: std::collections::HashMap<u64, Instant> = acks.into_iter().collect();
        for (seq, at, _) in &tail.received {
            if let Some(ack) = acked.get(seq) {
                let lag = if at >= ack {
                    ms(*at - *ack)
                } else {
                    -ms(*ack - *at)
                };
                outcome.live_lags_ms.push(lag);
            }
        }
        outcome.live_received = tail
            .received
            .iter()
            .map(|(_, at, bytes)| ((*at - epoch).as_secs_f64(), *bytes))
            .collect();
    } else {
        drop(control);
    }
    outcome.server_peak_rss_mb = child.sample()?.hwm_kb as f64 / 1024.0;
    drop(workers);
    child.shutdown()?;

    // In-process checks against the same store, now that the child is gone.
    let server = VssServer::open_sharded(vss_core::VssConfig::new(&root), child::SHARDS)
        .map_err(|e| format!("reopen store: {e}"))?;
    let session = server.session();
    for read in all_reads.iter().filter(|r| r.digest.is_some()) {
        match crate::layers::local_digest(&session, &read.op) {
            Ok(local) if Some(local) == read.digest => {}
            Ok(_) => gates.push(format!(
                "remote read differs from an in-process read of {:?}",
                read.op.request()
            )),
            Err(e) => gates.push(format!(
                "in-process read of {:?} failed: {e}",
                read.op.request()
            )),
        }
    }
    if let Some(traced) = &outcome.traced {
        let camera = if opts.workload.readers() > 0 {
            plan::read_camera(0)
        } else {
            live[1].clone()
        };
        outcome.replay = crate::layers::replay(&session, traced, &camera)?;
    }
    drop(session);
    drop(server);
    outcome.gate_failures = gates;
    outcome.probe_ms = probe.finish();
    Ok(outcome)
}
