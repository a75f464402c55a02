//! Median and quartiles, by the method of Python's
//! `statistics.quantiles(values, n=4)` (exclusive), which the driver uses on
//! the numbers this benchmark prints.

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// `None` for an empty sample; a single value is its own quartiles.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        1 => Some(Summary { n, q1: v[0], median: v[0], q3: v[0] }),
        _ => {
            let cut = |i: usize| {
                let j = (i * (n + 1) / 4).clamp(1, n - 1);
                let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some(Summary { n, q1: cut(1), median: cut(2), q3: cut(3) })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8], n=4) == [2.25, 4.5, 6.75]
        let s = summarize(&[8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0]).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (8, 2.25, 4.5, 6.75));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        let s = summarize(&[10.0, 20.0, 30.0, 40.0, 50.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (15.0, 30.0, 45.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn degenerate_samples() {
        assert_eq!(summarize(&[]), None);
        assert_eq!(summarize(&[3.0]), Some(Summary { n: 1, q1: 3.0, median: 3.0, q3: 3.0 }));
    }
}
