//! Peak resident set of the current process.

/// A `<field>: <n> kB` line of a `/proc/<pid>/status` text, in KiB.
#[must_use]
pub fn status_kib(status: &str, field: &str) -> Option<u64> {
    let line = status
        .lines()
        .find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))?;
    let mut fields = line[field.len() + 1..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

fn self_status_mib(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = status_kib(&status, field)
        .ok_or_else(|| format!("no {field} line in /proc/self/status"))?;
    Ok(kib as f64 / 1024.0)
}

/// Peak resident set (`VmHWM`) of this process so far, in MiB.
///
/// # Errors
///
/// Fails where `/proc/self/status` is missing or has no `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    self_status_mib("VmHWM")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_lines_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  20000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(status_kib(status, "VmHWM"), Some(5120));
        assert_eq!(status_kib(status, "VmRSS"), Some(4000));
        assert_eq!(status_kib(status, "VmHW"), None);
        assert_eq!(status_kib("VmHWM:\t 12 MB\n", "VmHWM"), None);
    }

    #[test]
    fn peak_covers_the_memory_touched() {
        const MIB: usize = 1024 * 1024;
        let resident_before = self_status_mib("VmRSS").unwrap();
        let mut block = vec![0u8; 64 * MIB];
        // Touch every page so it becomes resident.
        for page in block.chunks_mut(4096) {
            page[0] = 1;
        }
        let touched: usize = block.iter().step_by(4096).map(|&b| usize::from(b)).sum();
        assert_eq!(touched, 64 * MIB / 4096);
        let peak = peak_rss_mib().unwrap();
        assert!(
            peak >= resident_before + 60.0,
            "resident {resident_before} MiB + 64 MiB touched, peak {peak} MiB"
        );
        // A high-water mark: freeing does not lower it (beyond the
        // kernel's per-thread RSS counter batching, well under 1 MiB).
        drop(block);
        assert!(peak_rss_mib().unwrap() >= peak - 1.0);
    }
}
