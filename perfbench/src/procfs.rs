//! Readers for the three `/proc` files the benchmark measures with: the
//! process's CPU time, the calling thread's CPU time, and peak RSS. Each
//! parser takes the file's text, so the tests run on fixed strings.

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on
/// every architecture the kernel ABI defines it for.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds from a `/proc/<pid>/stat` line. The command
/// name (field 2) may hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat_cpu_s(text: &str) -> Option<f64> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the comm, fields start at `state` (field 3); utime is field
    // 14 and stime field 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// On-CPU nanoseconds from a `/proc/.../schedstat` line
/// (`run_ns wait_ns timeslices`).
pub fn parse_schedstat_ns(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// `VmHWM` (peak resident set) in MiB from a `/proc/<pid>/status` text.
pub fn parse_vmhwm_mib(text: &str) -> Option<f64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line["VmHWM:".len()..].trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib as f64 / 1024.0)
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// The whole process's user + system CPU seconds (exited threads included).
pub fn process_cpu_s() -> f64 {
    parse_stat_cpu_s(&read("/proc/self/stat")).expect("/proc/self/stat is readable")
}

/// The calling thread's on-CPU nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    parse_schedstat_ns(&read("/proc/thread-self/schedstat")).expect("schedstat is readable")
}

/// The process's peak resident set in MiB.
pub fn peak_rss_mib() -> f64 {
    parse_vmhwm_mib(&read("/proc/self/status")).expect("VmHWM is present")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_counts_fields_after_the_last_paren() {
        let line = "4242 (a (weird) name) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    250 37 0 0 20 0 5 0 123 456789 1234 18446744073709551615";
        assert_eq!(parse_stat_cpu_s(line), Some(2.87));
        assert_eq!(parse_stat_cpu_s("12 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu_s("garbage"), None);
    }

    #[test]
    fn schedstat_takes_the_run_time() {
        assert_eq!(parse_schedstat_ns("123456789 2000 17\n"), Some(123_456_789));
        assert_eq!(parse_schedstat_ns(""), None);
    }

    #[test]
    fn vmhwm_reads_kib_as_mib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  99999 kB\nVmHWM:\t   10240 kB\nVmRSS:\t 512 kB\n";
        assert_eq!(parse_vmhwm_mib(status), Some(10.0));
        assert_eq!(parse_vmhwm_mib("VmRSS:\t 512 kB\n"), None);
    }

    #[test]
    fn live_files_parse_on_this_kernel() {
        assert!(process_cpu_s() >= 0.0);
        assert!(thread_cpu_ns() > 0);
        assert!(peak_rss_mib() > 0.0);
    }
}
