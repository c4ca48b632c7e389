//! Order statistics over measured samples.

/// The `q`-quantile (0..=1) of `xs` by nearest rank; 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median of `xs` (nearest rank); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The arithmetic mean of `xs`; 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Rates of consecutive chunks of `k` completions: `done_s` holds each
/// completion's time in seconds since the start, ascending. A trailing
/// partial chunk is dropped.
pub fn chunk_rates(done_s: &[f64], k: usize) -> Vec<f64> {
    let mut rates = Vec::new();
    let mut from = 0.0;
    for chunk in done_s.chunks_exact(k.max(1)) {
        let to = chunk[chunk.len() - 1];
        if to > from {
            rates.push(chunk.len() as f64 / (to - from));
        }
        from = to;
    }
    rates
}
