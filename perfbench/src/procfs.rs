//! Process and host counters read from `/proc`: CPU time, peak resident
//! set, and CPU steal.

use std::fs;

/// Clock ticks per second of the `/proc` tick counters (`USER_HZ`, fixed at
/// 100 by the Linux user-space ABI).
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds of this process (all threads), from
/// `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_cpu_ticks(&stat).expect("parse /proc/self/stat") as f64 / TICKS_PER_SECOND
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name may hold
/// spaces and parentheses, so fields are counted after its closing `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields after the name start at `state` (field 3); utime and stime are
    // fields 14 and 15.
    Some(fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?)
}

/// Resets the peak resident set (`VmHWM`) to the current resident set by
/// writing `5` to `/proc/self/clear_refs`. Returns whether the kernel
/// accepted the reset; when it did not, [`peak_rss_mb`] keeps the peak
/// since process start.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set since start or the last [`reset_peak_rss`], in MiB,
/// from `VmHWM` in `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_kb(&status, "VmHWM:").expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// A snapshot of the host-wide CPU tick counters in `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct HostTicks {
    steal: u64,
    /// Idle and I/O-wait ticks.
    idle: u64,
    total: u64,
}

impl HostTicks {
    /// Reads the aggregate `cpu` line of `/proc/stat`.
    pub fn now() -> Self {
        let stat = fs::read_to_string("/proc/stat").expect("read /proc/stat");
        parse_host_ticks(&stat).expect("parse the cpu line of /proc/stat")
    }

    /// Share of host CPU time stolen by the hypervisor between `earlier`
    /// and `self`.
    pub fn steal_since(&self, earlier: &HostTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }

    /// Share of the host's busy CPU time (not idle, not waiting on I/O)
    /// stolen between `earlier` and `self`: the share of wall time a
    /// runnable thread lost to other tenants of the machine. An idle
    /// virtual CPU is never stolen from, so this, not
    /// [`HostTicks::steal_since`], is what a busy thread felt.
    pub fn stolen_while_busy(&self, earlier: &HostTicks) -> f64 {
        let busy = (self.total - self.idle).saturating_sub(earlier.total - earlier.idle);
        if busy == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / busy as f64
    }
}

/// The `cpu` line holds user, nice, system, idle, iowait, irq, softirq,
/// steal, then guest times that are already counted in user and nice.
fn parse_host_ticks(stat: &str) -> Option<HostTicks> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> =
        line.split_whitespace().skip(1).take(8).map(|v| v.parse().ok()).collect::<Option<_>>()?;
    (ticks.len() == 8).then(|| HostTicks {
        steal: ticks[7],
        idle: ticks[3] + ticks[4],
        total: ticks.iter().sum(),
    })
}

/// The commit the checkout was taken from, when it still carries git
/// metadata; `"unknown"` otherwise.
pub fn commit() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.is_empty() {
        "unknown".to_string()
    } else {
        hash.chars().take(12).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_skip_a_name_with_spaces_and_parens() {
        let stat = "4242 (my (odd) name) R 1 2 3 4 5 6 7 8 9 10 250 40 0 0 20 0 3 0";
        assert_eq!(parse_cpu_ticks(stat), Some(290));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn vmhwm_is_read_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    1248 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM:"), Some(1248));
        assert_eq!(parse_status_kb(status, "VmSwap:"), None);
    }

    #[test]
    fn steal_is_a_share_of_all_ticks() {
        let before = parse_host_ticks("cpu  100 0 50 800 0 0 0 50 7 0\ncpu0 1 2 3\n").unwrap();
        let after = parse_host_ticks("cpu  200 0 100 1600 0 0 0 100 9 0\n").unwrap();
        assert_eq!(after.steal_since(&before), 0.05);
        assert_eq!(before.steal_since(&before), 0.0);
        // 200 busy ticks (100 user, 50 system, 50 steal) beside 800 idle.
        assert_eq!(after.stolen_while_busy(&before), 0.25);
        assert_eq!(before.stolen_while_busy(&before), 0.0);
    }

    #[test]
    fn live_counters_are_readable() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        let t = HostTicks::now();
        assert!((0.0..=1.0).contains(&HostTicks::now().steal_since(&t)));
    }
}
