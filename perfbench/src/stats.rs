//! Order statistics over recorded samples.

use std::time::Duration;

/// Nearest-rank percentile of `sorted` (ascending), `p` in `[0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Latency samples of one operation class, kept in recording order.
#[derive(Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64());
    }

    /// `(p50, p99)` in seconds; `None` when there are no samples.
    pub fn p50_p99(&self) -> Option<(f64, f64)> {
        if self.0.is_empty() {
            return None;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        Some((percentile(&v, 0.50), percentile(&v, 0.99)))
    }
}

/// Windows a run is cut into for its robust estimates.
pub const WINDOWS: usize = 5;
/// A window's p99 counts only if at least ten samples lie beyond it.
const P99_MIN_SAMPLES: usize = 1_000;

/// Operations of one class with their completion times, for estimates that
/// are robust to a noisy stretch of the run: each statistic is taken per
/// window of equal duration, and the median over the windows is reported.
#[derive(Default)]
pub struct Timeline {
    /// `(completed_at_s, latency_s, weight)`; weight is what the rate counts
    /// (edges for a commit, queries for a batch).
    ops: Vec<(f64, f64, f64)>,
}

impl Timeline {
    pub fn push(&mut self, completed_at: Duration, latency: Duration, weight: usize) {
        self.ops.push((
            completed_at.as_secs_f64(),
            latency.as_secs_f64(),
            weight as f64,
        ));
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn latencies(&self) -> Samples {
        Samples(self.ops.iter().map(|o| o.1).collect())
    }

    fn windows(&self, span: f64) -> Vec<Vec<(f64, f64, f64)>> {
        let mut out = vec![Vec::new(); WINDOWS];
        for &op in &self.ops {
            let w = ((op.0 / span * WINDOWS as f64) as usize).min(WINDOWS - 1);
            out[w].push(op);
        }
        out
    }

    /// Median over windows of weight per second of wall time; `span` is the
    /// run's duration.
    pub fn wall_rate(&self, span: f64) -> f64 {
        let per = span / WINDOWS as f64;
        let rates: Vec<f64> = self
            .windows(span)
            .iter()
            .map(|w| w.iter().map(|o| o.2).sum::<f64>() / per)
            .collect();
        median(&rates)
    }

    /// `(p50, p99)` in seconds: medians over windows of each window's
    /// percentile.  When a window is too small for its p99 to have ten
    /// samples beyond it, the p99 is taken over the whole run instead.
    pub fn p50_p99(&self, span: f64) -> (f64, f64) {
        let windows = self.windows(span);
        let stats: Vec<(f64, f64)> = windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| {
                Samples(w.iter().map(|o| o.1).collect())
                    .p50_p99()
                    .expect("non-empty")
            })
            .collect();
        let p50 = median(&stats.iter().map(|s| s.0).collect::<Vec<_>>());
        let p99 = if windows.iter().all(|w| w.len() >= P99_MIN_SAMPLES) {
            median(&stats.iter().map(|s| s.1).collect::<Vec<_>>())
        } else {
            self.latencies().p50_p99().expect("samples recorded").1
        };
        (p50, p99)
    }
}
