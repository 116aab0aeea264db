//! Order statistics, geomean and memory readings behind the reported metrics.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; below that it would measure a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Linear-interpolated quantile `q ∈ [0, 1]` of an ascending sample.
/// An infinite sample (a shed or failed request) propagates upward.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let h = (sorted.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    if lo == hi || sorted[lo] == sorted[hi] {
        sorted[lo]
    } else {
        sorted[lo] + (sorted[hi] - sorted[lo]) * (h - lo as f64)
    }
}

/// Sort a sample ascending (total order, so NaN cannot scramble it).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Number of samples out of `n` that lie beyond the `q` quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    // The epsilon keeps 1000 × (1 − 0.99) from rounding down to 9.
    ((n as f64) * (1.0 - q) + 1e-9).floor() as usize
}

/// A percentile with the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The quantile, e.g. 0.99.
    pub q: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was computed from.
    pub samples: usize,
    /// Samples beyond it.
    pub beyond: usize,
}

/// The `q` percentile of `values`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], q: f64) -> Option<Percentile> {
    let n = values.len();
    let b = beyond(n, q);
    (n > 0 && b >= MIN_BEYOND).then(|| Percentile {
        q,
        value: quantile(&sorted(values), q),
        samples: n,
        beyond: b,
    })
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(
        !values.is_empty() && values.iter().all(|v| *v > 0.0),
        "geomean needs positive values"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb)
}

/// Peak resident set of this process, MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn infinite_samples_stay_infinite_in_the_tail() {
        let mut v: Vec<f64> = (0..100).map(f64::from).collect();
        v[99] = f64::INFINITY;
        v[98] = f64::INFINITY;
        let s = sorted(&v);
        assert_eq!(quantile(&s, 1.0), f64::INFINITY);
        assert_eq!(quantile(&s, 0.995), f64::INFINITY);
        assert!(quantile(&s, 0.5).is_finite());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples: p90 has exactly 10 beyond, p99 only 1.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&v, 0.90).expect("p90 of 100 samples");
        assert_eq!((p90.samples, p90.beyond), (100, 10));
        assert!((p90.value - 90.1).abs() < 1e-9);
        assert!(percentile(&v, 0.99).is_none());
        assert!(percentile(&v[..99], 0.90).is_none());
        // 1000 samples: p99 has exactly 10 beyond.
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&w, 0.99).expect("p99 of 1000 samples");
        assert_eq!((p99.samples, p99.beyond), (1000, 10));
        assert!(percentile(&w[..999], 0.99).is_none());
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.5]) - 1.5).abs() < 1e-12);
        assert!((geomean(&[0.5, 2.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn vm_hwm_parses_from_status_text() {
        let status = "Name:\tneedle\nVmPeak:\t  123456 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t twelve kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
        assert!(peak_rss_mb().expect("this process has a status file") > 0.0);
    }
}
