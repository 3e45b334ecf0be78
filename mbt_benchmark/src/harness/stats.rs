//! Order statistics for timing samples.
//!
//! Every timing metric is a median over the samples of one run, printed
//! with its quartiles, extremes and sample count. The quartiles follow
//! Python's `statistics.quantiles(values, n=4)` (exclusive method), which
//! is what the driver applies across runs, so a spread computed here and a
//! spread computed there mean the same thing.

/// Five-number digest of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// A digest of one value (counts, rates over the whole run).
    pub fn single(v: f64) -> Summary {
        Summary {
            n: 1,
            min: v,
            q1: v,
            median: v,
            q3: v,
            max: v,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (0 ≤ q ≤ 1) of an ascending slice under the exclusive
/// method: position `q·(n+1)` on 1-based ranks, linearly interpolated and
/// clamped to the extremes.
pub fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let n = v.len();
    let pos = q * (n as f64 + 1.0);
    if pos <= 1.0 {
        return v[0];
    }
    if pos >= n as f64 {
        return v[n - 1];
    }
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    v[lo - 1] + frac * (v[lo] - v[lo - 1])
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    Summary {
        n: v.len(),
        min: v[0],
        q1: quantile_sorted(&v, 0.25),
        median: quantile_sorted(&v, 0.5),
        q3: quantile_sorted(&v, 0.75),
        max: v[v.len() - 1],
    }
}

/// The tail of an op-latency sample: p99 when the run has at least 1000
/// ops (ten or more samples lie beyond it), otherwise the upper quartile —
/// the highest order statistic a few-dozen-op run can report steadily.
pub fn tail(values: &[f64]) -> f64 {
    let v = sorted(values);
    if v.len() >= 1000 {
        quantile_sorted(&v, 0.99)
    } else {
        quantile_sorted(&v, 0.75)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(Summary::single(4.0).spread(), 0.0);
    }

    #[test]
    fn tail_switches_on_sample_count() {
        let few: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(tail(&few), 6.0);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert!((tail(&many) - 990.99).abs() < 1e-9);
    }
}
