//! Order statistics over timing samples.

/// Quartiles `(q1, median, q3)` by the exclusive method (what Python's
/// `statistics.quantiles(values, n=4)` computes); a single sample is all
/// three. `None` for no samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        1 => Some((v[0], v[0], v[0])),
        _ => {
            let cut = |i: usize| {
                let m = (n + 1) * i;
                let j = (m / 4).clamp(1, n - 1);
                let delta = m as f64 - (4 * j) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((cut(1), cut(2), cut(3)))
        }
    }
}

/// The median; 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |(_, median, _)| median)
}
