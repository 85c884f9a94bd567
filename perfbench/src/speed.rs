//! Host-speed probe.
//!
//! The benchmark runs on a few vCPUs of a shared host whose speed drifts by
//! 10–50 % over tens of seconds: a fixed CPU loop with no I/O slows down and
//! speeds up with it, and every timing of the run moves together. A probe
//! thread runs a fixed burst of CPU work every [`PERIOD`] for the whole run
//! and times each burst in thread CPU time. Thread CPU time leaves out the
//! time a thread waits for a CPU, so the probe reads how fast the CPU it
//! gets runs, not how busy the workload keeps the machine. The run's
//! slowdown is the median burst ÷ [`REFERENCE_BURST_MS`]. The gated times
//! are divided by it and the gated rates multiplied by it, which reports
//! them at the reference host's speed; the raw figures are printed beside.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::child::thread_cpu_ms;
use crate::stats;

/// Time between bursts; a burst takes about 2 % of it.
const PERIOD: Duration = Duration::from_millis(100);
/// Steps of one burst.
const BURST_STEPS: u64 = 1_100_000;
/// Median CPU time of one burst on the reference host (a 2-vCPU Intel Xeon
/// VM at 2.1 GHz), in ms.
pub const REFERENCE_BURST_MS: f64 = 2.0;
/// Bursts a run needs before its slowdown is reported.
const MIN_BURSTS: usize = 20;

/// A running probe thread; dropping it stops and joins the thread.
pub struct SpeedProbe {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<Vec<f64>>>,
}

impl SpeedProbe {
    /// Starts probing.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut bursts = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                bursts.push(burst());
                std::thread::sleep(PERIOD);
            }
            bursts
        });
        SpeedProbe {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops probing and returns the CPU time of every burst, in ms.
    pub fn finish(mut self) -> Vec<f64> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .take()
            .map(|h| h.join().expect("speed probe thread panicked"))
            .unwrap_or_default()
    }
}

impl Drop for SpeedProbe {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// One fixed burst of mixed arithmetic and L1-resident table updates; its
/// thread CPU time in ms.
fn burst() -> f64 {
    let start = thread_cpu_ms();
    let mut table = [0u32; 4096];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u32;
    for _ in 0..BURST_STEPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let i = (x >> 52) as usize;
        table[i] = table[i].wrapping_add(x as u32);
        acc ^= table[(i * 7) & 4095];
    }
    std::hint::black_box((acc, &table));
    thread_cpu_ms() - start
}

/// The run's slowdown against the reference host: median burst ÷
/// [`REFERENCE_BURST_MS`], or `None` with fewer than [`MIN_BURSTS`] bursts.
pub fn slowdown(bursts_ms: &[f64]) -> Option<f64> {
    (bursts_ms.len() >= MIN_BURSTS).then(|| stats::median(bursts_ms) / REFERENCE_BURST_MS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_median_burst_over_the_reference() {
        assert_eq!(slowdown(&[1.0; MIN_BURSTS - 1]), None);
        let mut bursts = vec![REFERENCE_BURST_MS * 1.5; MIN_BURSTS];
        bursts[0] = 1e6;
        assert_eq!(slowdown(&bursts), Some(1.5));
    }

    #[test]
    fn probe_records_bursts_and_stops() {
        let probe = SpeedProbe::start();
        std::thread::sleep(PERIOD * 3);
        let bursts = probe.finish();
        assert!(!bursts.is_empty());
        assert!(bursts.iter().all(|&ms| ms > 0.0 && ms.is_finite()));
    }
}
