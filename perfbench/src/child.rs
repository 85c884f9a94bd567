//! The server child process: how the benchmark starts it (its own binary,
//! re-executed as `serve <root>`), reads its address, samples it through
//! `/proc`, and stops it.
//!
//! The child serves `VssServer::open_sharded(VssConfig::new(root), 2)` with
//! the default `ServerConfig` over loopback TCP, prints `ADDR <socket>` on
//! stdout, and shuts down cleanly when its stdin closes. A child that dies
//! or hangs fails the run with its stderr; the parent never waits on it
//! without a deadline.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vss_core::VssConfig;
use vss_net::NetServer;
use vss_server::VssServer;

/// Shards the server child opens.
pub const SHARDS: usize = 2;
/// How long the child may take to print its address.
const START_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a clean shutdown may take before the child is killed.
const STOP_TIMEOUT: Duration = Duration::from_secs(20);

/// Entry point of the child: serve `root` until stdin reaches EOF.
pub fn serve(root: &Path) -> Result<(), String> {
    let server = VssServer::open_sharded(VssConfig::new(root), SHARDS)
        .map_err(|e| format!("open store at {}: {e}", root.display()))?;
    let net = NetServer::bind(server.clone(), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let mut stdout = std::io::stdout();
    writeln!(stdout, "ADDR {}", net.local_addr()).map_err(|e| e.to_string())?;
    stdout.flush().map_err(|e| e.to_string())?;
    // Block until the parent closes our stdin (or dies).
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    net.shutdown();
    if !server.shutdown(Duration::from_secs(10)) {
        return Err("server did not drain within 10 s".into());
    }
    Ok(())
}

/// One `/proc` reading of the child.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User + system CPU time consumed so far, in milliseconds.
    pub cpu_ms: f64,
    /// Current thread count.
    pub threads: u64,
    /// Current resident set size (`VmRSS`), in kB.
    pub rss_kb: u64,
    /// Peak resident set size so far (`VmHWM`), in kB.
    pub hwm_kb: u64,
}

/// A running server child.
pub struct ServerChild {
    child: Child,
    stdin: Option<ChildStdin>,
    /// The child's listen address, read from its stdout.
    pub addr: SocketAddr,
    stderr: Arc<Mutex<Vec<u8>>>,
    readers: Vec<JoinHandle<()>>,
}

impl ServerChild {
    /// Starts this binary as a server child over the store at `root`.
    pub fn spawn(root: &Path) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve")
            .arg(root)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server child: {e}"))?;
        let stderr = Arc::new(Mutex::new(Vec::new()));
        let mut readers = Vec::new();
        {
            let mut pipe = child.stderr.take().expect("piped stderr");
            let stderr = Arc::clone(&stderr);
            readers.push(std::thread::spawn(move || {
                let mut buf = [0u8; 4096];
                while let Ok(n) = pipe.read(&mut buf) {
                    if n == 0 {
                        break;
                    }
                    stderr
                        .lock()
                        .expect("stderr buffer")
                        .extend_from_slice(&buf[..n]);
                }
            }));
        }
        let (addr_tx, addr_rx) = mpsc::channel();
        {
            let pipe = child.stdout.take().expect("piped stdout");
            readers.push(std::thread::spawn(move || {
                let mut lines = BufReader::new(pipe).lines();
                if let Some(Ok(line)) = lines.next() {
                    let _ = addr_tx.send(line);
                }
                // Keep draining so the child can never block on a full pipe.
                for _ in lines {}
            }));
        }
        let stdin = child.stdin.take();
        let mut spawned = ServerChild {
            child,
            stdin,
            addr: "0.0.0.0:0".parse().expect("addr"),
            stderr,
            readers,
        };
        let line = match addr_rx.recv_timeout(START_TIMEOUT) {
            Ok(line) => line,
            Err(_) => return Err(spawned.fail("server child printed no address")),
        };
        match line
            .strip_prefix("ADDR ")
            .and_then(|a| a.trim().parse().ok())
        {
            Some(addr) => spawned.addr = addr,
            None => return Err(spawned.fail(&format!("unexpected first line {line:?}"))),
        }
        Ok(spawned)
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `Err` (with the child's stderr) if the child has exited.
    pub fn check_alive(&mut self) -> Result<(), String> {
        match self.child.try_wait() {
            Ok(None) => Ok(()),
            Ok(Some(status)) => Err(self.fail(&format!("server child exited early ({status})"))),
            Err(e) => Err(self.fail(&format!("cannot poll server child: {e}"))),
        }
    }

    /// Reads the child's CPU time, thread count and peak RSS from `/proc`.
    pub fn sample(&self) -> Result<ProcSample, String> {
        let pid = self.pid();
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
            .map_err(|e| format!("read /proc/{pid}/stat: {e}"))?;
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
        let cpu_ticks =
            parse_stat_cpu_ticks(&stat).ok_or_else(|| format!("unparsable /proc/{pid}/stat"))?;
        let field = |key: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("no {key} in /proc/{pid}/status"))
        };
        Ok(ProcSample {
            cpu_ms: cpu_ticks as f64 * 1e3 / clock_ticks_per_second(),
            threads: field("Threads:")?,
            rss_kb: field("VmRSS:")?,
            hwm_kb: field("VmHWM:")?,
        })
    }

    /// Closes the child's stdin and waits for a clean exit; a child that
    /// does not exit in time is killed and the shutdown reported as failed.
    pub fn shutdown(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + STOP_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => {
                    self.join_readers();
                    return Ok(());
                }
                Ok(Some(status)) => {
                    return Err(self.fail(&format!("server child exited with {status}")));
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Ok(None) => return Err(self.fail("server child hung on shutdown")),
                Err(e) => return Err(self.fail(&format!("cannot poll server child: {e}"))),
            }
        }
    }

    /// Kills the child (if still running), reaps it, and returns `what`
    /// followed by everything it wrote to stderr.
    pub fn fail(&mut self, what: &str) -> String {
        self.kill();
        let stderr = self.stderr.lock().expect("stderr buffer");
        format!(
            "{what}; server stderr:\n{}",
            String::from_utf8_lossy(&stderr)
        )
    }

    /// Kills the child (if still running) and reaps it.
    fn kill(&mut self) {
        drop(self.stdin.take());
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        self.join_readers();
    }

    fn join_readers(&mut self) {
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        self.kill();
    }
}

/// utime + stime (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name (field 2) may contain spaces, so fields are counted from
/// the closing parenthesis.
fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field n sits at index n - 3.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn clock_gettime(clock: i32, time: *mut TimeSpec) -> i32;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;
/// `RUSAGE_SELF`.
const RUSAGE_SELF: i32 = 0;
/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_ticks_per_second() -> f64 {
    // SAFETY: sysconf has no preconditions.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

#[repr(C)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct TimeSpec {
    sec: i64,
    nsec: i64,
}

#[repr(C)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    rest: [i64; 14],
}

/// CPU time (user + system) this process has used so far, in milliseconds.
pub fn self_cpu_ms() -> f64 {
    let mut usage = RUsage {
        utime: TimeVal { sec: 0, usec: 0 },
        stime: TimeVal { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a properly sized, writable `struct rusage`.
    if unsafe { getrusage(RUSAGE_SELF, &mut usage) } != 0 {
        return 0.0;
    }
    let ms = |t: &TimeVal| t.sec as f64 * 1e3 + t.usec as f64 / 1e3;
    ms(&usage.utime) + ms(&usage.stime)
}

/// CPU time the calling thread has used so far, in milliseconds (time
/// spent waiting for a CPU is not counted).
pub fn thread_cpu_ms() -> f64 {
    let mut time = TimeSpec { sec: 0, nsec: 0 };
    // SAFETY: `time` is a properly sized, writable `struct timespec`.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) } != 0 {
        return 0.0;
    }
    time.sec as f64 * 1e3 + time.nsec as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_fields_skip_the_command_name() {
        let line = "1234 (vss perf) S 1 2 3 4 5 6 7 8 9 10 250 70 0 0 20 0 9 0 100 2000 300";
        assert_eq!(parse_stat_cpu_ticks(line), Some(320));
    }

    #[test]
    fn own_cpu_time_is_monotone() {
        let before = self_cpu_ms();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(self_cpu_ms() >= before);
    }

    #[test]
    fn thread_cpu_time_counts_work_not_sleep() {
        let start = thread_cpu_ms();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = thread_cpu_ms() - start;
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let worked = thread_cpu_ms() - start - slept;
        assert!(slept < 25.0, "sleeping used {slept} ms of CPU");
        assert!(worked > 0.0, "work used no CPU time");
    }
}
