//! What the kernel says about this process: CPU time, peak resident
//! memory and thread count, parsed from `/proc/self`.

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`, fixed
/// at 100 on every Linux ABI this workspace builds for.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU ticks from the text of `/proc/<pid>/stat`. The
/// second field (`comm`) may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace();
    // After `comm` come state, ppid, ... ; utime and stime are the 14th
    // and 15th fields of the line, the 12th and 13th after `comm`.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `Key:   <n> kB`-style line of `/proc/<pid>/status`, as its number.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Whole-process user + system CPU seconds so far, all threads.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("stat: {e}"))?;
    parse_stat_cpu_ticks(&stat)
        .map(|ticks| ticks as f64 / TICKS_PER_SECOND)
        .ok_or_else(|| "stat: utime/stime not found".to_string())
}

fn status_field(key: &str) -> Result<u64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("status: {e}"))?;
    parse_status_field(&status, key).ok_or_else(|| format!("status: no {key} line"))
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    Ok(status_field("VmHWM")? as f64 / 1024.0)
}

/// Live OS threads of this process.
pub fn os_threads() -> Result<u64, String> {
    status_field("Threads")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_hostile_comm() {
        let stat = "4242 (nvc bench) 1)) R 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                    731 52 0 0 20 0 3 0 123456 1000000 2000 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(731 + 52));
        assert_eq!(parse_stat_cpu_ticks("no paren here"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn status_parser_reads_hwm_and_threads() {
        let status = "Name:\tnvc\nVmPeak:\t  900000 kB\nVmHWM:\t   51234 kB\n\
                      VmRSS:\t   40000 kB\nThreads:\t5\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(51234));
        assert_eq!(parse_status_field(status, "Threads"), Some(5));
        assert_eq!(parse_status_field(status, "VmSwap"), None);
        // A key that is a prefix of another line's key must not match it.
        assert_eq!(parse_status_field(status, "Vm"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mib().unwrap() > 0.5);
        assert!(os_threads().unwrap() >= 1);
    }
}
