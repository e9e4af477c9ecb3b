//! Process memory and CPU time from `/proc/self`.

use std::fs;

/// Linux reports `/proc/self/stat` times in `USER_HZ` ticks, which is 100
/// on every architecture this benchmark runs on.
const USER_HZ: f64 = 100.0;

/// Peak resident set size (`VmHWM`) in MiB, if `/proc` provides it.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User + system CPU seconds this process has used, if `/proc` provides it.
#[must_use]
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields resume after `)`.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_plausible() {
        assert!(peak_rss_mib().unwrap() > 0.5);
        let before = cpu_seconds().unwrap();
        let mut x = 1u64;
        while cpu_seconds().unwrap() - before < 0.05 {
            for i in 0..1_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
            }
        }
        assert!(cpu_seconds().unwrap() > before);
    }
}
