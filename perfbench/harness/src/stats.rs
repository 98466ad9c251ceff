//! Estimators the runner reports: the paired-window slowdown, medians,
//! percentiles with enough tail samples, and process RSS.

/// One native window and the instrumented window that replayed the same
/// operation indices right after it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowPair {
    /// Window id: the index of the window's first operation block.
    pub id: u64,
    /// Wall time of the native window.
    pub native_ns: u64,
    /// Wall time of the instrumented window, drain barrier included.
    pub instr_ns: u64,
    /// Whether benchmark-side spans were recorded in this pair.
    pub traced: bool,
}

impl WindowPair {
    fn ratio(&self) -> f64 {
        self.instr_ns as f64 / self.native_ns.max(1) as f64
    }
}

/// The measured windows of one run, kept in pairs: a native window is
/// opened first and the instrumented window over the same operations closes
/// it. Anything else is a runner bug and panics.
#[derive(Debug, Default)]
pub struct WindowLog {
    open: Option<(u64, u64)>,
    pairs: Vec<WindowPair>,
}

impl WindowLog {
    /// Records the native half of window `id`.
    pub fn native(&mut self, id: u64, ns: u64) {
        assert!(self.open.is_none(), "native window {id} opened before the previous pair closed");
        self.open = Some((id, ns));
    }

    /// Records the instrumented half of window `id`, closing the pair.
    pub fn instrumented(&mut self, id: u64, ns: u64, traced: bool) {
        let (open_id, native_ns) =
            self.open.take().unwrap_or_else(|| panic!("instrumented window {id} has no native"));
        assert_eq!(open_id, id, "instrumented window paired with another window's native run");
        self.pairs.push(WindowPair { id, native_ns, instr_ns: ns, traced });
    }

    /// Closed pairs recorded with (`traced == true`) or without spans.
    pub fn pairs(&self, traced: bool) -> Vec<WindowPair> {
        self.pairs.iter().copied().filter(|p| p.traced == traced).collect()
    }

    /// Number of closed pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }
}

/// Slowdown as the ratio of summed instrumented to summed native window
/// time. `None` without pairs.
pub fn sum_ratio(pairs: &[WindowPair]) -> Option<f64> {
    let native: u64 = pairs.iter().map(|p| p.native_ns).sum();
    let instr: u64 = pairs.iter().map(|p| p.instr_ns).sum();
    (native > 0).then(|| instr as f64 / native as f64)
}

/// Slowdown as the median of per-pair ratios. `None` without pairs.
pub fn median_ratio(pairs: &[WindowPair]) -> Option<f64> {
    median(pairs.iter().map(WindowPair::ratio).collect())
}

/// The slowdown estimator the benchmark reports (see the README for why the
/// median of per-pair ratios was chosen over the summed ratio).
pub fn slowdown(pairs: &[WindowPair]) -> Option<f64> {
    median_ratio(pairs)
}

/// Median of `values` (mean of the middle two for even counts).
pub fn median(mut values: Vec<f64>) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    Some(if n % 2 == 1 { values[n / 2] } else { (values[n / 2 - 1] + values[n / 2]) / 2.0 })
}

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_TAIL: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p < 100`) of `sorted`, or
/// `None` when fewer than [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples must be sorted");
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n.saturating_sub(rank) < MIN_TAIL {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Parses the resident set size, in bytes, from `/proc/<pid>/status` text.
pub fn parse_rss_bytes(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let mut fields = line["VmRSS:".len()..].split_whitespace();
    let kib: u64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kib * 1024)
}

/// This process's resident set size in bytes.
pub fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_rss_bytes(&status).expect("VmRSS line in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(id: u64, native_ns: u64, instr_ns: u64) -> WindowPair {
        WindowPair { id, native_ns, instr_ns, traced: false }
    }

    #[test]
    fn window_log_pairs_native_with_its_instrumented_run() {
        let mut log = WindowLog::default();
        log.native(0, 100);
        log.instrumented(0, 150, false);
        log.native(1, 200);
        log.instrumented(1, 260, true);
        assert_eq!(log.len(), 2);
        assert_eq!(log.pairs(false), vec![pair(0, 100, 150)]);
        assert_eq!(log.pairs(true), vec![WindowPair { traced: true, ..pair(1, 200, 260) }]);
    }

    #[test]
    #[should_panic(expected = "another window")]
    fn window_log_rejects_mismatched_ids() {
        let mut log = WindowLog::default();
        log.native(3, 100);
        log.instrumented(4, 100, false);
    }

    #[test]
    #[should_panic(expected = "has no native")]
    fn window_log_rejects_unpaired_instrumented_window() {
        WindowLog::default().instrumented(0, 100, false);
    }

    #[test]
    #[should_panic(expected = "before the previous pair closed")]
    fn window_log_rejects_two_native_windows_in_a_row() {
        let mut log = WindowLog::default();
        log.native(0, 100);
        log.native(1, 100);
    }

    #[test]
    fn ratio_estimators() {
        let pairs = [pair(0, 100, 200), pair(1, 100, 150), pair(2, 1000, 1100)];
        assert_eq!(sum_ratio(&pairs), Some(1450.0 / 1200.0));
        assert_eq!(median_ratio(&pairs), Some(1.5));
        // One long native window dominates the summed ratio, not the median.
        let skewed = [pair(0, 100, 200), pair(1, 100, 200), pair(2, 100_000, 100_000)];
        assert!(sum_ratio(&skewed).unwrap() < 1.01);
        assert_eq!(median_ratio(&skewed), Some(2.0));
        assert_eq!(sum_ratio(&[]), None);
        assert_eq!(median_ratio(&[]), None);
        assert_eq!(slowdown(&pairs), median_ratio(&pairs));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(vec![]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(500.0));
        // Rank 990 leaves exactly ten samples beyond p99.
        assert_eq!(percentile(&samples, 99.0), Some(990.0));
        // p99.9 would leave one.
        assert_eq!(percentile(&samples, 99.9), None);
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&short, 99.0), None, "rank 990 of 999 leaves nine beyond");
        assert_eq!(percentile(&samples[..19], 50.0), None, "rank 10 of 19 leaves nine beyond");
        assert_eq!(percentile(&samples[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn rss_parsing() {
        let status = "Name:\tperfbench\nVmPeak:\t  10000 kB\nVmRSS:\t   5120 kB\nThreads:\t2\n";
        assert_eq!(parse_rss_bytes(status), Some(5120 * 1024));
        assert_eq!(parse_rss_bytes("Name:\tx\n"), None);
        assert_eq!(parse_rss_bytes("VmRSS:\tlots kB\n"), None);
        assert_eq!(parse_rss_bytes("VmRSS:\t12 MB\n"), None);
        assert!(rss_bytes() > 0);
    }
}
