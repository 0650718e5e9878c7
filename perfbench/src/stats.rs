//! Order statistics over timing samples.

/// A tail percentile needs at least this many samples beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The median, averaging the two middle samples of an even count.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The nearest-rank `q`-quantile (`0 < q < 1`), refused (`None`) when
/// fewer than [`TAIL_MIN_BEYOND`] samples lie beyond it.
pub fn tail(xs: &[f64], q: f64) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < TAIL_MIN_BEYOND {
        return None;
    }
    Some(s[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_is_refused_with_fewer_than_ten_samples_beyond_it() {
        // p90 of 99 samples leaves 9 beyond it; of 100 samples, 10.
        let short: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&short, 0.9), None);
        let enough: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&enough, 0.9), Some(90.0));
        // A median never needs the tail rule, but p50 of 19 samples has
        // only 9 beyond it and is refused as a tail.
        let nineteen: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&nineteen, 0.5), None);
        assert_eq!(tail(&[], 0.5), None);
    }
}
