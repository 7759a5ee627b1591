//! Sample summaries: medians, the tail percentile rule, and ratios.

/// Percentiles a `_tail` metric may report, highest last.
const TAIL_GRID: [f64; 4] = [50.0, 90.0, 95.0, 99.0];

/// Nearest-rank percentile of an unsorted sample set (0 when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The middle value, or the mean of the two middle values (0 when empty).
pub fn mid(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail percentile for `n` samples: the highest grid percentile
/// with at least ten samples beyond it, or the median when even that
/// has fewer.
pub fn tail_pct(n: usize) -> f64 {
    TAIL_GRID
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0)
        .unwrap_or(50.0)
}

/// `num / den`, or 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Megabytes per second (MiB = 2^20 bytes).
pub fn mib_s(bytes: u64, secs: f64) -> f64 {
    ratio(bytes as f64 / (1024.0 * 1024.0), secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_pct(19), 50.0);
        assert_eq!(tail_pct(100), 90.0);
        assert_eq!(tail_pct(200), 95.0);
        assert_eq!(tail_pct(999), 95.0);
        assert_eq!(tail_pct(1000), 99.0);
    }

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(mid(&[3.0, 1.0]), 2.0);
        assert_eq!(mid(&[3.0, 1.0, 2.0]), 2.0);
    }
}
