//! Order statistics and outcome accounting shared by every workload.
//!
//! Percentiles use the nearest-rank definition: the `q`-quantile of `n`
//! ascending samples is sample number `⌈q·n⌉` (1-based). A percentile is
//! only trusted when at least [`MIN_BEYOND`] samples lie beyond it; the run
//! record states the count so a reader can see when it does not.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of ascending `sorted` samples; `0.0` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (nearest rank, any order); `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// A sorted copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Samples strictly beyond the nearest-rank `q`-quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).min(n)
}

/// Whether `n` samples support the `q`-quantile (≥ [`MIN_BEYOND`] beyond it).
pub fn supports(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_BEYOND
}

/// Mean of `values`; `0.0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// How one attempted operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered, and the answer matched the reference bit for bit.
    Verified,
    /// Answered, but the answer differed from the reference.
    Mismatch,
    /// Refused by the server (shed with `Overloaded`, or deadline expired).
    Refused,
    /// Any other error (closed connection, wire damage, failed call).
    Error,
}

/// Outcome counts of one phase. A refused or failed operation counts as
/// missing the latency limit, whatever its latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Verified answers.
    pub verified: u64,
    /// Answers that differed from the reference.
    pub mismatched: u64,
    /// Operations the server refused.
    pub refused: u64,
    /// Operations that failed otherwise.
    pub errored: u64,
    /// Verified answers within the latency limit.
    pub within_limit: u64,
}

impl Tally {
    /// Count one operation that took `latency_ms` against `limit_ms`.
    pub fn record(&mut self, outcome: Outcome, latency_ms: f64, limit_ms: f64) {
        self.attempted += 1;
        match outcome {
            Outcome::Verified => {
                self.verified += 1;
                if latency_ms <= limit_ms {
                    self.within_limit += 1;
                }
            }
            Outcome::Mismatch => self.mismatched += 1,
            Outcome::Refused => self.refused += 1,
            Outcome::Error => self.errored += 1,
        }
    }

    /// Errors + refusals + wrong answers.
    pub fn failed(&self) -> u64 {
        self.mismatched + self.refused + self.errored
    }

    /// `failed / attempted`; `0.0` when nothing was attempted.
    pub fn failed_share(&self) -> f64 {
        ratio(self.failed(), self.attempted)
    }

    /// Share of attempted operations answered correctly within the limit.
    pub fn slo_share(&self) -> f64 {
        ratio(self.within_limit, self.attempted)
    }

    /// Fold another phase's counts into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.verified += other.verified;
        self.mismatched += other.mismatched;
        self.refused += other.refused;
        self.errored += other.errored;
        self.within_limit += other.within_limit;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The end-to-end median minus the sum of the per-layer medians on its
/// blocking path: the time no layer measurement accounts for (socket,
/// scheduling, client threads). Negative when the layers overlap.
pub fn unattributed_ms(end_to_end_ms: f64, blocking_path_ms: &[f64]) -> f64 {
    end_to_end_ms - blocking_path_ms.iter().sum::<f64>()
}

/// The lowest per-window `q`-quantile of `(offset_s, value)` samples cut
/// into `windows` equal slices of `[0, seconds)` by offset (later offsets
/// fall into the last; empty windows are skipped), with the sample count of
/// the smallest non-empty window. Interference from outside the program —
/// CPU time a shared host gives other guests — only ever adds to a window's
/// tail, so the least disturbed window is the closest to the program's own.
pub fn lowest_window_quantile(
    samples: &[(f64, f64)],
    seconds: f64,
    windows: usize,
    q: f64,
) -> (f64, usize) {
    let windows = windows.max(1);
    let mut slices = vec![Vec::new(); windows];
    for &(offset, value) in samples {
        let w = ((offset / seconds * windows as f64).max(0.0) as usize).min(windows - 1);
        slices[w].push(value);
    }
    slices
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| (percentile(&sorted(v), q), v.len()))
        .fold(None, |best: Option<(f64, usize)>, (p, n)| match best {
            None => Some((p, n)),
            Some((bp, bn)) => Some((bp.min(p), bn.min(n))),
        })
        .unwrap_or((0.0, 0))
}

/// The median per-second rate of events at `offsets_s` over `windows`
/// equal slices of `[0, seconds)`; events outside it are not counted. A
/// stall on a shared host empties some windows, and the median leaves
/// them out where a pooled rate would not.
pub fn median_window_rate(offsets_s: &[f64], seconds: f64, windows: usize) -> f64 {
    let windows = windows.max(1);
    let width = seconds / windows as f64;
    let mut counts = vec![0usize; windows];
    for &t in offsets_s {
        if (0.0..seconds).contains(&t) {
            counts[((t / width) as usize).min(windows - 1)] += 1;
        }
    }
    median(&counts.iter().map(|&c| c as f64 / width).collect::<Vec<_>>())
}

/// Most frequent value (the smallest on ties); `0` when empty.
pub fn mode(values: &[usize]) -> usize {
    let mut counts = std::collections::BTreeMap::new();
    for &v in values {
        *counts.entry(v).or_insert(0usize) += 1;
    }
    let mut best = (0usize, 0usize);
    for (&v, &c) in &counts {
        if c > best.1 {
            best = (v, c);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // Ten samples: p99 is the maximum.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.99), 10.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(supports(1000, 0.99));
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert!(!supports(999, 0.99));
        assert_eq!(samples_beyond(10, 0.99), 0);
        assert_eq!(samples_beyond(0, 0.99), 0);
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
    }

    #[test]
    fn refusals_and_errors_miss_the_limit() {
        let mut t = Tally::default();
        t.record(Outcome::Verified, 5.0, 10.0);
        t.record(Outcome::Verified, 15.0, 10.0);
        t.record(Outcome::Refused, 1.0, 10.0);
        t.record(Outcome::Error, 1.0, 10.0);
        t.record(Outcome::Mismatch, 1.0, 10.0);
        assert_eq!(t.attempted, 5);
        assert_eq!(t.failed(), 3);
        assert!((t.failed_share() - 0.6).abs() < 1e-12);
        assert!((t.slo_share() - 0.2).abs() < 1e-12);
        let mut sum = Tally::default();
        sum.merge(&t);
        sum.merge(&t);
        assert_eq!(sum.attempted, 10);
        assert_eq!(sum.within_limit, 2);
        assert_eq!(Tally::default().slo_share(), 0.0);
        assert_eq!(Tally::default().failed_share(), 0.0);
    }

    #[test]
    fn residual_is_end_to_end_minus_blocking_path() {
        assert!((unattributed_ms(10.0, &[2.0, 3.5, 0.5]) - 4.0).abs() < 1e-12);
        assert!(unattributed_ms(1.0, &[2.0]) < 0.0);
        assert_eq!(unattributed_ms(3.0, &[]), 3.0);
    }

    #[test]
    fn lowest_window_quantile_skips_disturbed_windows() {
        // Three windows of 100 samples; the middle one is stalled.
        let mut samples = Vec::new();
        for i in 0..300 {
            let offset = i as f64 / 100.0;
            let slow = (100..200).contains(&i);
            let base = if i < 100 { 1.0 } else { 1.5 };
            samples.push((offset, if slow { 50.0 } else { base + (i % 100) as f64 / 100.0 }));
        }
        assert_eq!(lowest_window_quantile(&samples, 3.0, 3, 0.99), (1.98, 100));
        // Offsets past the phase land in the last window; empty windows
        // are skipped.
        let q = lowest_window_quantile(&[(0.5, 4.0), (9.0, 3.0), (9.5, 5.0)], 3.0, 3, 0.5);
        assert_eq!(q, (3.0, 1));
        assert_eq!(lowest_window_quantile(&[], 1.0, 3, 0.5), (0.0, 0));
    }

    #[test]
    fn median_window_rate_leaves_out_a_stalled_window() {
        // Four 1 s windows: 10, 10, 2 (stalled) and 12 events, plus two
        // events outside the phase.
        let mut offsets = vec![-0.5, 4.0];
        for (w, n) in [(0.0, 10), (1.0, 10), (2.0, 2), (3.0, 12)] {
            offsets.extend((0..n).map(|i| w + i as f64 / n as f64));
        }
        assert_eq!(median_window_rate(&offsets, 4.0, 4), 10.0);
        // Half-second windows report per second.
        assert_eq!(median_window_rate(&[0.1, 0.2, 0.6, 0.7], 1.0, 2), 4.0);
        assert_eq!(median_window_rate(&[], 1.0, 3), 0.0);
    }

    #[test]
    fn mode_prefers_the_smallest_on_ties() {
        assert_eq!(mode(&[1, 8, 8, 1, 3]), 1);
        assert_eq!(mode(&[8, 8, 1]), 8);
        assert_eq!(mode(&[]), 0);
    }
}
