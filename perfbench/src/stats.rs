//! Order statistics over measured samples.

/// Nearest-rank quantile (`q` in `[0, 1]`) of an unsorted sample; `NaN`
/// on an empty one.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn sum(values: &[f64]) -> f64 {
    values.iter().sum()
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        sum(values) / values.len() as f64
    }
}

/// Mean of the middle of the sample: the lowest and highest `trim` share
/// are dropped. Unlike the median it moves smoothly when the machine
/// alternates between a fast and a slow speed during a run.
pub fn trimmed_mean(values: &[f64], trim: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = (sorted.len() as f64 * trim) as usize;
    mean(&sorted[cut..sorted.len() - cut])
}

/// The median of per-window `q`-quantiles: `values` (in arrival order)
/// is cut into `windows` equal slices. One stall lands in one window, so
/// this tail estimate moves far less from run to run than a single
/// quantile over the whole sample.
pub fn windowed_quantile(values: &[f64], q: f64, windows: usize) -> f64 {
    let per = values.len() / windows.max(1);
    if per == 0 {
        return quantile(values, q);
    }
    let tails: Vec<f64> = values
        .chunks(per)
        .take(windows)
        .map(|w| quantile(w, q))
        .collect();
    median(&tails)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn trimmed_mean_drops_both_tails() {
        let mut v: Vec<f64> = vec![10.0; 18];
        v.push(1000.0);
        v.push(-1000.0);
        assert_eq!(trimmed_mean(&v, 0.05), 10.0);
        assert_eq!(trimmed_mean(&[1.0, 2.0, 3.0], 0.0), 2.0);
    }

    #[test]
    fn windowed_quantile_ignores_one_bad_window() {
        let mut v = vec![1.0; 400];
        v[10] = 1000.0;
        v[11] = 1000.0;
        assert_eq!(windowed_quantile(&v, 0.99, 4), 1.0);
        assert_eq!(quantile(&v, 0.999), 1000.0);
    }
}
