//! Cross-process end-to-end benchmark of the VSS storage service.
//!
//! ```text
//! vss-perfbench --workload <ingest|analytics|mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Starts a VSS server in a child process (this binary, re-executed as
//! `vss-perfbench serve <root>`), drives it through the public
//! `RemoteStore` API over loopback TCP with at most two client threads and
//! two connections, checks every output, and prints one JSON result line
//! last. Exit status 0 means every correctness gate held; anything else
//! is a failed run. See `perfbench/NOTES.md` for the workloads, metrics and
//! findings.

mod child;
mod layers;
mod plan;
mod report;
mod run;
mod speed;
mod stats;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use run::{Options, Workload};

const USAGE: &str =
    "usage: vss-perfbench --workload <ingest|analytics|mixed> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} outside (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?} is not 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let seed = seed.ok_or("missing --seed")?;
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{seed}-{}",
        workload.name(),
        std::process::id()
    ));
    Ok(Options {
        workload,
        seed,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        work,
    })
}

/// Writes a window's per-op client records (one JSON object per op; the
/// span fields are zero outside the traced window) to
/// `.bench_out/<kind>-<workload>-<seed>.jsonl`.
fn write_spans(opts: &Options, kind: &str, window: &run::Window) -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{kind}-{}-{}.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    let mut out = String::new();
    let num = |v: f64| {
        if v.is_finite() {
            format!("{v:?}")
        } else {
            "null".into()
        }
    };
    for r in &window.reads {
        out.push_str(&format!(
            "{{\"op\": \"read\", \"class\": \"{}\", \"camera\": {}, \"window\": {}, \"start_s\": {}, \"total_ms\": {}, \"open_ms\": {}, \"first_chunk_ms\": {}, \"chunk_wait_ms\": {}, \"failed\": {}}}\n",
            r.op.class.name(),
            r.op.camera,
            r.op.window,
            num(r.started),
            num(r.latency_ms),
            num(r.open_ms),
            num(r.first_chunk_ms),
            num(r.chunk_wait_ms),
            r.error.is_some()
        ));
    }
    for a in &window.appends {
        out.push_str(&format!(
            "{{\"op\": \"append\", \"camera\": {}, \"seq\": {}, \"start_s\": {}, \"total_ms\": {}, \"failed\": {}}}\n",
            a.camera,
            a.seq,
            num(a.started),
            num(a.latency_ms),
            a.error.is_some()
        ));
    }
    std::fs::write(&path, out).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        let Some(root) = args.get(1) else {
            eprintln!("usage: vss-perfbench serve <store root>");
            return ExitCode::from(2);
        };
        return match child::serve(std::path::Path::new(root)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("vss-perfbench serve: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = run::run(&opts);
    let _ = std::fs::remove_dir_all(&opts.work);
    let _ = std::fs::remove_dir(".bench_work");
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("vss-perfbench: run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut stdout = std::io::stdout();
    let _ = write!(stdout, "{}", report::human(opts.workload, &outcome));
    for failure in &outcome.gate_failures {
        eprintln!("correctness gate failed: {failure}");
    }
    let (kind, window) = match &outcome.traced {
        Some(traced) => ("trace", traced),
        None => ("ops", &outcome.untraced),
    };
    match write_spans(&opts, kind, window) {
        Ok(path) => eprintln!("per-op records written to {}", path.display()),
        Err(e) => eprintln!("vss-perfbench: {e}"),
    }
    let metrics: Vec<(String, &str, Option<f64>)> = if opts.trace {
        layers::per_layer(&outcome)
            .into_iter()
            .map(|(n, u, v)| (n, u, Some(v)))
            .collect()
    } else {
        report::end_to_end(&outcome)
            .into_iter()
            .map(|(n, u, v)| (n.to_string(), u, v))
            .collect()
    };
    let expected: &[&str] = if opts.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    let names: Vec<&str> = metrics.iter().map(|(n, _, _)| n.as_str()).collect();
    assert_eq!(
        names, expected,
        "metric list out of sync with BENCHMARK.json"
    );
    assert!(
        names.iter().all(|n| report::valid_name(n)),
        "malformed metric name in {names:?}"
    );
    let mut measurable = true;
    for (name, _, value) in &metrics {
        let _ = writeln!(stdout, "# {name} = {value:?}");
        if !value.is_some_and(f64::is_finite) {
            eprintln!("vss-perfbench: {name} is unmeasurable in this run");
            measurable = false;
        }
    }
    let correct = outcome.gate_failures.is_empty();
    let values: Vec<(String, &str, f64)> = metrics
        .into_iter()
        .map(|(n, u, v)| (n, u, v.unwrap_or(f64::NAN)))
        .collect();
    let _ = writeln!(
        stdout,
        "{}",
        report::result_line(correct, outcome.attempted, outcome.failed, &values)
    );
    let _ = stdout.flush();
    if correct && measurable {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
