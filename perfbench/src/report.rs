//! What a run prints: a human-readable block with every figure the run
//! measured, then one JSON line with the metrics `BENCHMARK.json` declares
//! (end-to-end ones untraced, per-layer ones with `--trace 1`).

use std::fmt::Write as _;

use crate::plan::Class;
use crate::run::{Outcome, Window, Workload};
use crate::speed;
use crate::stats::{self, percentile};

/// The end-to-end metrics, in `BENCHMARK.json` order. Each one applies to
/// every workload (a workload's own op mix defines its "ops").
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "ops_per_s",
    "op_mean_ms",
    "op_p90_ms",
    "storage_ratio",
];

/// The per-layer metrics, in `BENCHMARK.json` order.
pub const PER_LAYER: [&str; 41] = [
    "client.open_ms",
    "client.first_chunk_ms",
    "client.chunk_wait_ms",
    "client.append_ms",
    "client.cpu_ms_per_op",
    "net.sent_bytes_per_payload_byte",
    "net.recv_bytes_per_payload_byte",
    "net.stream_ms",
    "net.dispatch_ms",
    "net.credit_stall_ms",
    "net.resets_per_stream",
    "server.lock_wait_ms",
    "server.cache_hit_ratio",
    "server.shed_ratio",
    "server.cpu_ms_per_op",
    "server.threads_peak",
    "server.rss_mb",
    "server.peak_rss_mb",
    "core.open_ms",
    "core.append_ms",
    "core.readahead_stall_ms",
    "core.read_ms.index",
    "core.read_ms.clip",
    "core.read_ms.transcode",
    "core.read_ms.export",
    "solver.plan_ms",
    "solver.segments_per_read",
    "codec.decode_ms_per_frame.h264",
    "codec.decode_ms_per_frame.hevc",
    "codec.encode_ms_per_frame.h264",
    "codec.encode_ms_per_frame.hevc",
    "frame.resize_ms_per_frame",
    "frame.convert_ms_per_frame",
    "catalog.fsyncs_per_op",
    "catalog.fsync_ms",
    "catalog.wal_append_ms",
    "live.lag_events",
    "live.catchup_reads",
    "live.server_lag_ms",
    "unattributed_ms",
    "trace.overhead_pct",
];

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, starting with
/// a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn p(samples: &[f64], q: f64) -> Option<f64> {
    percentile(samples, q).filter(|v| v.is_finite())
}

/// Latencies of one window split by op family and read class.
struct Families {
    reads: Vec<f64>,
    appends: Vec<f64>,
    classes: Vec<(Class, Vec<f64>)>,
}

fn families(window: &Window) -> Families {
    Families {
        reads: window.reads.iter().map(|r| r.latency_ms).collect(),
        appends: window.appends.iter().map(|a| a.latency_ms).collect(),
        classes: Class::ALL
            .into_iter()
            .map(|c| {
                (
                    c,
                    window
                        .reads
                        .iter()
                        .filter(|r| r.op.class == c)
                        .map(|r| r.latency_ms)
                        .collect(),
                )
            })
            .collect(),
    }
}

/// The end-to-end metrics of the untraced window (`None` when a value is
/// unmeasurable, e.g. too few samples or failures reaching the percentile).
/// Times and rates are reported at the reference host's speed (see
/// [`crate::speed`]).
pub fn end_to_end(outcome: &Outcome) -> Vec<(&'static str, &'static str, Option<f64>)> {
    let w = &outcome.untraced;
    let completed = w.latencies().iter().filter(|l| l.is_finite()).count() as f64;
    let measured = w.measured();
    let slowdown = speed::slowdown(&outcome.probe_ms);
    let time = |raw: Option<f64>| Some(raw? / slowdown?);
    vec![
        ("setup_s", "s", time(Some(stats::median(&outcome.setup_s)))),
        (
            "ops_per_s",
            "ops/s",
            slowdown.map(|k| completed / w.seconds() * k),
        ),
        (
            "op_mean_ms",
            "ms",
            time(stats::mean(&measured).filter(|v| v.is_finite())),
        ),
        ("op_p90_ms", "ms", time(p(&measured, 0.9))),
        ("storage_ratio", "ratio", Some(outcome.storage_ratio)),
    ]
}

fn fmt_opt(v: Option<f64>, unit: &str, n: usize) -> String {
    match v {
        Some(v) => format!("{v:.3} {unit} (n={n})"),
        None => format!("n/a (n={n})"),
    }
}

/// The human-readable block: every end-to-end figure of the full
/// metric set that applies to this workload.
pub fn human(workload: Workload, outcome: &Outcome) -> String {
    let w = &outcome.untraced;
    let f = families(w);
    let mut out = String::new();
    let secs = w.seconds();
    let _ = writeln!(
        out,
        "# workload {} — {:.2} s untraced window",
        workload.name(),
        secs
    );
    match speed::slowdown(&outcome.probe_ms) {
        Some(k) => {
            let _ = writeln!(
                out,
                "# host_slowdown = {k:.4} (median probe burst {:.4} ms of {}, reference {} ms); \
                 the result line divides times by it and multiplies rates by it",
                stats::median(&outcome.probe_ms),
                outcome.probe_ms.len(),
                speed::REFERENCE_BURST_MS
            );
        }
        None => {
            let _ = writeln!(
                out,
                "# host_slowdown = n/a ({} probe bursts)",
                outcome.probe_ms.len()
            );
        }
    }
    let _ = writeln!(out, "# raw figures at this host's speed:");
    let _ = writeln!(
        out,
        "# setup_s = {:.3} s (median of {:?})",
        stats::median(&outcome.setup_s),
        outcome.setup_s
    );
    if !f.reads.is_empty() {
        let ok = f.reads.iter().filter(|l| l.is_finite()).count();
        let _ = writeln!(out, "# reads_per_s = {:.3} ops/s", ok as f64 / secs);
        let _ = writeln!(
            out,
            "# read_p50_ms = {}",
            fmt_opt(p(&f.reads, 0.5), "ms", f.reads.len())
        );
        let _ = writeln!(
            out,
            "# read_p99_ms = {}",
            fmt_opt(p(&f.reads, 0.99), "ms", f.reads.len())
        );
        for (class, samples) in &f.classes {
            let _ = writeln!(
                out,
                "# {}_p50_ms = {}",
                class.name(),
                fmt_opt(p(samples, 0.5), "ms", samples.len())
            );
        }
    }
    if !f.appends.is_empty() {
        let ok = f.appends.iter().filter(|l| l.is_finite()).count();
        let _ = writeln!(out, "# appends_per_s = {:.3} GOP/s", ok as f64 / secs);
        let _ = writeln!(
            out,
            "# append_p50_ms = {}",
            fmt_opt(p(&f.appends, 0.5), "ms", f.appends.len())
        );
        let _ = writeln!(
            out,
            "# append_p90_ms = {}",
            fmt_opt(p(&f.appends, 0.9), "ms", f.appends.len())
        );
    }
    if !outcome.live_lags_ms.is_empty() {
        let lags = &outcome.live_lags_ms;
        let _ = writeln!(
            out,
            "# live_lag_p50_ms = {}",
            fmt_opt(p(lags, 0.5), "ms", lags.len())
        );
        let _ = writeln!(
            out,
            "# live_lag_p90_ms = {}",
            fmt_opt(p(lags, 0.9), "ms", lags.len())
        );
    }
    let _ = writeln!(
        out,
        "# fail_ratio = {:.6} ({} of {} ops)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    let _ = writeln!(out, "# storage_ratio = {:.6}", outcome.storage_ratio);
    let rss: Vec<f64> = w.rss_kb.iter().map(|&kb| kb as f64 / 1024.0).collect();
    let _ = writeln!(
        out,
        "# server_rss_mb = {:.3} MB (median of {} samples)",
        stats::median(&rss),
        rss.len()
    );
    let _ = writeln!(
        out,
        "# server_peak_rss_mb = {:.3} MB",
        outcome.server_peak_rss_mb
    );
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The final result line. `metrics` holds (name, unit, value); values are
/// printed with every digit (Rust's shortest round-trip form).
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter(|(_, _, v)| v.is_finite())
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        for name in &all {
            assert!(valid_name(name), "bad metric name {name}");
        }
        let unique: std::collections::BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "duplicate metric names");
        assert!(!valid_name("core.read_ms{class=index}"));
        assert!(!valid_name(".leading_dot"));
        assert!(!valid_name(""));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let names: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').expect("closing quote")])
            .collect();
        for name in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(names.contains(name), "BENCHMARK.json lacks {name}");
        }
        // `mixed` runs on demand but is not declared (see NOTES.md).
        for name in ["ingest", "analytics"] {
            assert!(
                names.contains(&name),
                "BENCHMARK.json lacks workload {name}"
            );
        }
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len() + 2);
    }

    #[test]
    fn result_line_is_one_json_object_with_full_precision() {
        let line = result_line(true, 10, 0, &[("op_mean_ms".into(), "ms", 1.0 / 3.0)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"op_mean_ms\": {\"value\": 0.3333333333333333, \"unit\": \"ms\"}}}"
        );
        assert!(!line.contains('\n'));
    }
}
