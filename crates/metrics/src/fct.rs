//! Flow completion time collection.

use outran_simcore::{Dur, Percentiles};

/// The paper's flow-size buckets (Figure 15):
/// S = (0, 10 KB], M = (10 KB, 0.1 MB], L = (0.1 MB, ∞).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeBucket {
    /// Short flows — the latency-sensitive target class.
    Short,
    /// Medium flows.
    Medium,
    /// Long flows (heavy hitters).
    Long,
}

impl SizeBucket {
    /// Bucket for a flow of `bytes`.
    pub fn of(bytes: u64) -> SizeBucket {
        if bytes <= 10_000 {
            SizeBucket::Short
        } else if bytes <= 100_000 {
            SizeBucket::Medium
        } else {
            SizeBucket::Long
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            SizeBucket::Short => "S (0,10KB]",
            SizeBucket::Medium => "M (10KB,0.1MB]",
            SizeBucket::Long => "L (0.1MB,inf)",
        }
    }
}

/// Collects (flow size, FCT) pairs and summarises per bucket.
#[derive(Debug, Clone, Default)]
pub struct FctCollector {
    all: Percentiles,
    short: Percentiles,
    medium: Percentiles,
    long: Percentiles,
}

impl FctCollector {
    /// Create an empty collector.
    pub fn new() -> FctCollector {
        FctCollector::default()
    }

    /// Record one completed flow.
    pub fn record(&mut self, bytes: u64, fct: Dur) {
        let ms = fct.as_millis_f64();
        self.all.push(ms);
        match SizeBucket::of(bytes) {
            SizeBucket::Short => self.short.push(ms),
            SizeBucket::Medium => self.medium.push(ms),
            SizeBucket::Long => self.long.push(ms),
        }
    }

    /// Number of completed flows recorded.
    pub fn count(&self) -> usize {
        self.all.count()
    }

    /// Produce the summary report (milliseconds).
    pub fn report(&mut self) -> FctReport {
        FctReport {
            count: self.all.count(),
            overall_mean_ms: self.all.mean(),
            overall_p99_ms: self.all.percentile(99.0),
            short_mean_ms: self.short.mean(),
            short_p95_ms: self.short.percentile(95.0),
            short_p99_ms: self.short.percentile(99.0),
            medium_mean_ms: self.medium.mean(),
            long_mean_ms: self.long.mean(),
        }
    }
}

/// The summary a bench binary prints as one table row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FctReport {
    /// Completed flows.
    pub count: usize,
    /// Mean FCT over all flows (ms) — Fig 15(a)'s "Overall Average".
    pub overall_mean_ms: f64,
    /// 99th percentile over all flows (ms).
    pub overall_p99_ms: f64,
    /// Mean FCT of short flows (ms).
    pub short_mean_ms: f64,
    /// 95th percentile of short flows (ms) — Fig 15(b).
    pub short_p95_ms: f64,
    /// 99th percentile of short flows (ms) — Fig 3(a).
    pub short_p99_ms: f64,
    /// Mean FCT of medium flows (ms) — Fig 15(c).
    pub medium_mean_ms: f64,
    /// Mean FCT of long flows (ms) — Fig 15(d).
    pub long_mean_ms: f64,
}

outran_simcore::snap_fields! { FctCollector { all, short, medium, long } }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_match_paper_boundaries() {
        assert_eq!(SizeBucket::of(1), SizeBucket::Short);
        assert_eq!(SizeBucket::of(10_000), SizeBucket::Short);
        assert_eq!(SizeBucket::of(10_001), SizeBucket::Medium);
        assert_eq!(SizeBucket::of(100_000), SizeBucket::Medium);
        assert_eq!(SizeBucket::of(100_001), SizeBucket::Long);
    }

    #[test]
    fn report_aggregates_correctly() {
        let mut c = FctCollector::new();
        c.record(5_000, Dur::from_millis(10)); // S
        c.record(5_000, Dur::from_millis(30)); // S
        c.record(50_000, Dur::from_millis(100)); // M
        c.record(1_000_000, Dur::from_millis(1000)); // L
        let r = c.report();
        assert_eq!(r.count, 4);
        assert!((r.short_mean_ms - 20.0).abs() < 1e-9);
        assert!((r.medium_mean_ms - 100.0).abs() < 1e-9);
        assert!((r.long_mean_ms - 1000.0).abs() < 1e-9);
        assert!((r.overall_mean_ms - 285.0).abs() < 1e-9);
    }

    #[test]
    fn empty_buckets_are_nan_not_panic() {
        let mut c = FctCollector::new();
        c.record(5_000, Dur::from_millis(10));
        let r = c.report();
        assert!(r.medium_mean_ms.is_nan());
        assert!(r.long_mean_ms.is_nan());
        assert!(!r.short_mean_ms.is_nan());
    }

    #[test]
    fn percentiles_per_bucket() {
        let mut c = FctCollector::new();
        for i in 1..=100u64 {
            c.record(1_000, Dur::from_millis(i));
        }
        assert!((c.report().short_p95_ms - 95.05).abs() < 0.1);
    }
}
