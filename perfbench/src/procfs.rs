//! What `/proc` says about a process: peak memory, CPU time, context
//! switches and thread count. Read from outside the process, so the
//! program under test needs no support for it.

use std::fs;

/// Clock ticks per second of `utime`/`stime` in `/proc/<pid>/stat`.
/// Linux reports them in `USER_HZ`, which is 100 on every supported
/// architecture; reading it properly needs `sysconf` from libc.
const USER_HZ: f64 = 100.0;

/// CPU time and scheduling counters of a process at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User-mode CPU seconds, all threads.
    pub user_s: f64,
    /// Kernel-mode CPU seconds, all threads.
    pub sys_s: f64,
    /// Voluntary plus involuntary context switches, all live threads.
    pub ctx_switches: u64,
    /// Live threads.
    pub threads: u64,
}

fn status_field(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size (`VmHWM`) of `pid` in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status_field(&status, "VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Sample `pid` now.
pub fn sample(pid: u32) -> Option<ProcSample> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name, which may itself
    // contain spaces: state is field 3, utime 14, stime 15.
    let after = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i - 3).and_then(|v| v.parse::<f64>().ok());
    let mut out = ProcSample {
        user_s: ticks(14)? / USER_HZ,
        sys_s: ticks(15)? / USER_HZ,
        ..ProcSample::default()
    };
    for task in fs::read_dir(format!("/proc/{pid}/task")).ok()?.flatten() {
        // A thread may exit between the listing and the read.
        let Ok(status) = fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        out.threads += 1;
        out.ctx_switches += status_field(&status, "voluntary_ctxt_switches").unwrap_or(0)
            + status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        let pid = std::process::id();
        assert!(peak_rss_mb(pid).unwrap() > 0.0);
        let s = sample(pid).unwrap();
        assert!(s.threads >= 1);
        assert!(s.user_s >= 0.0 && s.sys_s >= 0.0);
    }

    #[test]
    fn parses_status_fields() {
        let status = "Name:\tx\nVmHWM:\t  2048 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(status, "VmHWM"), Some(2048));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some(7));
        assert_eq!(status_field(status, "VmRSS"), None);
    }
}
