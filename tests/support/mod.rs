//! Helpers shared by the integration-test binaries (`mod support;`).

/// Number of live threads that the calling test started, its own thread
/// included (Linux); `None` where `/proc` is unavailable. Leak checks compare
/// this before and after the code under test.
///
/// libtest runs a binary's tests concurrently in one process, so the
/// process-wide count (`Threads:` in `/proc/self/status`) also counts the
/// threads of sibling tests. This counts instead the threads whose name
/// (`/proc/self/task/<tid>/comm`) equals the calling thread's, which relies
/// on inherited thread names:
///
/// * on Linux a new thread inherits its creator's name;
/// * libtest names each test's thread after the test, truncated to 15 bytes;
/// * no VSS thread sets a name of its own.
///
/// So the threads named like the caller are exactly the ones its test
/// started, directly or through other threads: accept loops, connection
/// handlers, stream workers, readahead and encode workers, client demux
/// readers. **If VSS threads are ever named, this helper must change with
/// them**, or their leaks go uncounted. Call it from the test's own thread;
/// a test that uses it needs a name whose first 15 bytes no other test in
/// its binary shares.
pub fn own_threads() -> Option<usize> {
    let own = std::fs::read("/proc/thread-self/comm").ok()?;
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    // A thread that exits between the listing and the read is not counted.
    Some(
        tasks
            .filter_map(|task| std::fs::read(task.ok()?.path().join("comm")).ok())
            .filter(|name| *name == own)
            .count(),
    )
}
