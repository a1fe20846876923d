//! Order statistics. The benchmark reports medians, quartiles and
//! percentiles only — no means — so that one slow window or one
//! descheduled query does not move a number.

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: usize,
}

impl Summary {
    /// Summarise `values` (sorted in place). Panics on an empty slice:
    /// every metric is fed by a phase that ran at least once.
    pub fn of(values: &mut [f64]) -> Summary {
        assert!(!values.is_empty(), "a metric needs at least one sample");
        values.sort_by(f64::total_cmp);
        Summary {
            median: quantile(values, 0.5),
            q1: quantile(values, 0.25),
            q3: quantile(values, 0.75),
            samples: values.len(),
        }
    }

    /// A count or ratio taken once: no spread to report.
    pub fn single(value: f64) -> Summary {
        Summary { median: value, q1: value, q3: value, samples: 1 }
    }
}

/// Linearly interpolated quantile of ascending `sorted` (`0 ≤ p ≤ 1`).
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    let pos = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted values.
pub fn median(values: &mut [f64]) -> f64 {
    Summary::of(values).median
}

/// Latency samples of one phase, in milliseconds, in slices.
///
/// A slice is a contiguous stretch of like operations (every slice
/// draws the same mix). A percentile is taken per slice and the median
/// over slices is reported: this sandbox slows down for seconds at a
/// time, a pooled median of a broad distribution moves with the share
/// of samples a slow stretch covers, and the median over slices drops
/// the slow slices as long as most are clean.
pub struct Latencies {
    samples: Vec<f64>,
    /// End of each finished slice in `samples`.
    slices: Vec<usize>,
}

impl Latencies {
    pub fn with_capacity(n: usize) -> Self {
        Latencies { samples: Vec::with_capacity(n), slices: Vec::new() }
    }

    pub fn push(&mut self, d: std::time::Duration) {
        self.samples.push(d.as_secs_f64() * 1e3);
    }

    /// Close the current slice.
    pub fn end_slice(&mut self) {
        if self.samples.len() > self.slices.last().copied().unwrap_or(0) {
            self.slices.push(self.samples.len());
        }
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Sum of all samples in seconds (the phase's busy time).
    pub fn total_s(&self) -> f64 {
        self.samples.iter().sum::<f64>() / 1e3
    }

    /// The `p`-th percentile (0 < p < 1) of every slice.
    pub fn per_slice(&mut self, p: f64) -> Vec<f64> {
        self.end_slice();
        let mut start = 0;
        let mut out = Vec::with_capacity(self.slices.len());
        for &end in &self.slices {
            let slice = &mut self.samples[start..end];
            slice.sort_by(f64::total_cmp);
            out.push(quantile(slice, p));
            start = end;
        }
        out
    }

    /// The median (and quartiles) over slices of each slice's `p`-th
    /// percentile. `samples` counts all operations.
    pub fn percentile(&mut self, p: f64) -> Summary {
        Summary { samples: self.samples.len(), ..Summary::of(&mut self.per_slice(p)) }
    }
}
