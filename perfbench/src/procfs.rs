//! Process CPU time and peak resident memory from `/proc/self`.
//!
//! Both return `None` when `/proc` is missing or unreadable: the caller
//! reports the metric as unavailable, never as 0.

/// Kernel clock ticks per second of the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, fixed at 100 on Linux for every architecture's user ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of the whole process, all threads included
/// (fields 14 and 15 of `/proc/self/stat`).
pub fn cpu_seconds() -> Option<f64> {
    parse_stat_cpu(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Peak resident set size in MB (10^6 bytes), from `VmHWM` of
/// `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    parse_status_hwm_kib(&std::fs::read_to_string("/proc/self/status").ok()?)
        .map(|kib| kib as f64 * 1024.0 / 1e6)
}

fn parse_stat_cpu(stat: &str) -> Option<f64> {
    // The command name (field 2) is parenthesised and may hold spaces, so
    // count fields from the last ')': field 3 is the first after it.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(14 - 3)?.parse().ok()?;
    let stime: u64 = fields.get(15 - 3)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

fn parse_status_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_fields_are_counted_past_the_command_name() {
        let stat = "1234 (a (b) c) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0";
        assert_eq!(parse_stat_cpu(stat), Some(3.0));
        assert_eq!(parse_stat_cpu("garbage"), None);
    }

    #[test]
    fn status_hwm_is_read_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t  2048 kB\n";
        assert_eq!(parse_status_hwm_kib(status), Some(2048));
        assert_eq!(parse_status_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn this_process_has_cpu_time_and_rss() {
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(cpu_seconds().is_some());
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }
}
