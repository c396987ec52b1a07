//! Order statistics for timing samples.

/// Median of `samples` (mean of the middle pair for an even count); `NaN`
/// for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest whole percentile that still has at least ten samples beyond
/// it, with its nearest-rank value; `None` below eleven samples.
pub fn tail_percentile(samples: &[f64]) -> Option<(u32, f64)> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n < 11 {
        return None;
    }
    // Largest q with n * (1 - q/100) >= 10, i.e. q <= 100 * (n - 10) / n.
    let q = (100 * (n - 10) / n) as u32;
    let rank = (q as usize * n).div_ceil(100).max(1);
    Some((q, sorted[rank - 1]))
}

/// One line describing a timing series: median, sample count and tail.
pub fn describe(name: &str, unit: &str, samples: &[f64]) -> String {
    let tail = match tail_percentile(samples) {
        Some((q, value)) => format!("p{q} {value:.6} {unit}"),
        None => "too few samples for a tail percentile".to_owned(),
    };
    let all: Vec<String> = samples.iter().map(|s| format!("{s:.4}")).collect();
    format!(
        "{name}: median {:.6} {unit}, n={}, {tail}; samples [{}]",
        median(samples),
        samples.len(),
        all.join(" ")
    )
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}
