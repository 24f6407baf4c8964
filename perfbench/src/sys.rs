//! The one foreign call the load generator makes, plus `/proc` readers.

use std::path::Path;

#[cfg(target_os = "linux")]
extern "C" {
    fn prctl(option: std::os::raw::c_int, ...) -> std::os::raw::c_int;
}

/// Shrinks the calling thread's timer slack to 1 ns. Linux defers a
/// sleeping thread's wake-up by up to 50 µs by default to batch timers;
/// an open-loop generator would charge that delay to every operation it
/// sends, as lag.
pub fn tight_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        const PR_SET_TIMERSLACK: std::os::raw::c_int = 29;
        // SAFETY: prctl(PR_SET_TIMERSLACK, unsigned long) only changes the
        // calling thread's timer slack; it reads no memory from us. The
        // variadic argument is passed as the `unsigned long` it expects.
        // A failure leaves the default slack, which only adds lag.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1 as std::os::raw::c_ulong);
        }
    }
}

/// A `Name:   value kB` field of `/proc/<pid>/status`, in KiB.
pub fn proc_status_kib(pid: u32, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// How many threads of process `pid` carry the name `comm` (the kernel
/// truncates thread names to 15 bytes).
pub fn threads_named(pid: u32, comm: &str) -> usize {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else { return 0 };
    tasks
        .filter_map(Result::ok)
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.trim_end() == comm)
        })
        .count()
}

/// The CPU model line of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines().find_map(|l| {
                l.strip_prefix("model name")?.split_once(':').map(|x| x.1.trim().to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Output of a short command, trimmed; `None` when it cannot run.
pub fn command_output(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = std::process::Command::new(program).args(args).current_dir(dir).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}
