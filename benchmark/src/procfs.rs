//! The few `/proc` readings the benchmark takes of the server processes and
//! of itself: CPU time, context switches and peak resident memory. Measured
//! from outside, so the system under test needs no instrumentation.

use std::fs;
use std::io;

/// Kernel clock ticks per second. `/proc/<pid>/stat` counts in `USER_HZ`,
/// which Linux fixes at 100 on every architecture this repo builds for.
const TICKS_PER_SECOND: f64 = 100.0;

/// CPU time consumed so far, split the way the kernel accounts it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTime {
    pub user_us: f64,
    pub sys_us: f64,
}

impl CpuTime {
    pub fn total_us(&self) -> f64 {
        self.user_us + self.sys_us
    }

    pub fn since(&self, earlier: &CpuTime) -> CpuTime {
        CpuTime {
            user_us: self.user_us - earlier.user_us,
            sys_us: self.sys_us - earlier.sys_us,
        }
    }

    pub fn plus(&self, other: &CpuTime) -> CpuTime {
        CpuTime {
            user_us: self.user_us + other.user_us,
            sys_us: self.sys_us + other.sys_us,
        }
    }
}

/// Parses the contents of `/proc/<pid>/stat`. The command name (field 2) may
/// hold spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<CpuTime> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state); utime and stime are 14 and 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(CpuTime {
        user_us: utime / TICKS_PER_SECOND * 1e6,
        sys_us: stime / TICKS_PER_SECOND * 1e6,
    })
}

/// The value of a `Key:   123 kB`-style line of a `/proc/.../status` file.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// Voluntary plus involuntary context switches of one task's status file.
pub fn parse_status_ctx_switches(status: &str) -> Option<u64> {
    Some(
        parse_status_field(status, "voluntary_ctxt_switches")?
            + parse_status_field(status, "nonvoluntary_ctxt_switches")?,
    )
}

fn invalid(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// Tick-sampled CPU time of process `pid`, for the user/system split.
pub fn cpu_time(pid: u32) -> io::Result<CpuTime> {
    let path = format!("/proc/{pid}/stat");
    parse_stat_cpu(&fs::read_to_string(&path)?)
        .ok_or_else(|| invalid(format!("unparseable {path}")))
}

/// On-CPU nanoseconds, the first field of a `schedstat` file. Unlike the
/// tick-sampled `utime`/`stime` this is exact, which matters when threads
/// run in bursts far shorter than a tick.
pub fn parse_schedstat_on_cpu_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_ascii_whitespace().next()?.parse().ok()
}

/// Totals over the live threads of one process.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TaskTotals {
    pub on_cpu_us: f64,
    pub ctx_switches: u64,
}

/// Sums on-CPU time and context switches over every thread of `pid`.
/// Threads that exit between the listing and the read are skipped; the
/// server's threads live as long as the process, so deltas are exact.
pub fn task_totals(pid: u32) -> io::Result<TaskTotals> {
    let mut totals = TaskTotals::default();
    for task in fs::read_dir(format!("/proc/{pid}/task"))? {
        let task = task?.path();
        if let Ok(text) = fs::read_to_string(task.join("schedstat")) {
            totals.on_cpu_us += parse_schedstat_on_cpu_ns(&text).unwrap_or(0) as f64 / 1e3;
        }
        if let Ok(text) = fs::read_to_string(task.join("status")) {
            totals.ctx_switches += parse_status_ctx_switches(&text).unwrap_or(0);
        }
    }
    Ok(totals)
}

/// On-CPU microseconds of the calling thread so far.
pub fn thread_on_cpu_us() -> io::Result<f64> {
    let text = fs::read_to_string("/proc/thread-self/schedstat")?;
    parse_schedstat_on_cpu_ns(&text)
        .map(|ns| ns as f64 / 1e3)
        .ok_or_else(|| invalid("unparseable /proc/thread-self/schedstat".to_string()))
}

/// Peak resident set (`VmHWM`) of `pid` in MiB.
pub fn rss_peak_mib(pid: u32) -> io::Result<f64> {
    let path = format!("/proc/{pid}/status");
    parse_status_field(&fs::read_to_string(&path)?, "VmHWM")
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| invalid(format!("no VmHWM in {path}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (dandelion (serve) x) S 1 4242 4242 0 -1 4194304 1500 0 0 0 \
        1234 567 0 0 20 0 5 0 123456 104857600 2560 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    const STATUS: &str = "Name:\tdandelion-serve\nVmPeak:\t  204800 kB\nVmHWM:\t   20480 kB\n\
        VmRSS:\t   10240 kB\nThreads:\t5\nvoluntary_ctxt_switches:\t900\n\
        nonvoluntary_ctxt_switches:\t11\n";

    #[test]
    fn stat_cpu_fields_survive_a_hostile_command_name() {
        let cpu = parse_stat_cpu(STAT).unwrap();
        assert_eq!(cpu.user_us, 12_340_000.0);
        assert_eq!(cpu.sys_us, 5_670_000.0);
        assert_eq!(cpu.total_us(), 18_010_000.0);
        assert_eq!(parse_stat_cpu("1 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu("garbage"), None);
    }

    #[test]
    fn status_fields_and_ctx_switches() {
        assert_eq!(parse_status_field(STATUS, "VmHWM"), Some(20_480));
        assert_eq!(parse_status_field(STATUS, "Threads"), Some(5));
        // A key that is only a prefix of another line's key must not match.
        assert_eq!(parse_status_field(STATUS, "Vm"), None);
        assert_eq!(parse_status_field(STATUS, "VmSwap"), None);
        assert_eq!(parse_status_ctx_switches(STATUS), Some(911));
        assert_eq!(
            parse_schedstat_on_cpu_ns("24735356595 222604912232 65386\n"),
            Some(24_735_356_595)
        );
        assert_eq!(parse_schedstat_on_cpu_ns(""), None);
    }

    #[test]
    fn reads_this_process() {
        let pid = std::process::id();
        let before = cpu_time(pid).unwrap();
        let on_cpu_before = thread_on_cpu_us().unwrap();
        assert!(rss_peak_mib(pid).unwrap() > 0.0);
        assert!(task_totals(pid).unwrap().on_cpu_us >= 0.0);
        assert!(cpu_time(pid).unwrap().since(&before).total_us() >= 0.0);
        assert!(thread_on_cpu_us().unwrap() >= on_cpu_before);
    }
}
