//! Order statistics over timing samples.

pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    (s[(n - 1) / 2] + s[n / 2]) / 2.0
}

/// Samples that must lie strictly beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a timing sample: the highest order statistic with at least
/// [`TAIL_BEYOND`] samples beyond it, capped at the 99th percentile.
/// Without the cap a 20k-request run would report p99.95, a single-digit
/// count of stragglers whose value no two runs of a shared host agree on.
/// Returns `(value, percentile, n)`; with `n ≤ TAIL_BEYOND` there is no
/// such statistic and the maximum is returned at percentile 100.
pub fn tail(v: &[f64]) -> (f64, f64, usize) {
    assert!(!v.is_empty(), "tail of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return (s[n - 1], 100.0, n);
    }
    let p99 = (0.99 * n as f64).ceil() as usize - 1;
    let k = (n - 1 - TAIL_BEYOND).min(p99);
    (s[k], 100.0 * (k + 1) as f64 / n as f64, n)
}

/// Samples per block for [`block_tail`]: enough that a block's p99 has
/// more than [`TAIL_BEYOND`] samples beyond it.
pub const TAIL_BLOCK: usize = 1100;

/// The tail of a long, time-ordered latency series: [`tail`] of each
/// consecutive block of [`TAIL_BLOCK`] samples, median over the blocks.
/// A stall of the shared host delays a burst of consecutive requests; it
/// moves the p99 of the blocks it hits, not the median of their p99s.
/// Series shorter than two blocks fall back to [`tail`].
pub fn block_tail(v: &[f64]) -> (f64, f64, usize) {
    if v.len() < 2 * TAIL_BLOCK {
        return tail(v);
    }
    let per_block: Vec<f64> = v.chunks_exact(TAIL_BLOCK).map(|b| tail(b).0).collect();
    (median(&per_block), tail(&v[..TAIL_BLOCK]).1, v.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn tail_leaves_ten_beyond() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        let (value, pct, n) = tail(&v);
        assert_eq!((value, n), (89.0, 100));
        assert_eq!(v.iter().filter(|&&x| x > value).count(), TAIL_BEYOND);
        assert_eq!(pct, 90.0);
        assert_eq!(tail(&[3.0, 1.0]), (3.0, 100.0, 2));
        let big: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(tail(&big), (9899.0, 99.0, 10_000));
    }

    #[test]
    fn block_tail_ignores_a_burst_in_one_block() {
        let mut v = vec![1.0; 4 * TAIL_BLOCK];
        v[..100].fill(50.0);
        assert_eq!(tail(&v).0, 50.0);
        assert_eq!(block_tail(&v), (1.0, 99.0, 4 * TAIL_BLOCK));
        v[..TAIL_BLOCK * 3].iter_mut().step_by(20).for_each(|x| *x = 9.0);
        assert_eq!(block_tail(&v).0, 9.0);
        assert_eq!(block_tail(&[3.0, 1.0]), tail(&[3.0, 1.0]));
    }
}
