//! Latency summaries: the median, and the tail at the highest percentile of
//! a fixed ladder that still has at least ten samples beyond it.

/// Percentile levels the tail is chosen from, lowest first. A fixed ladder
/// keeps the reported level the same across runs whose sample counts differ
/// a little, so medians of the tail compare like with like. It stops at p99:
/// further out, a two-core host shared with other tenants measures its
/// scheduler rather than the program.
pub const LADDER: [f64; 3] = [50.0, 90.0, 99.0];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p <= 100) of sorted `xs`.
///
/// # Panics
/// Panics when `xs` is empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    xs[rank(xs.len(), p) - 1]
}

/// One-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest [`LADDER`] level with at least [`MIN_BEYOND`] of `n` samples
/// beyond it, or `None` when even the median has fewer (`n < 20`).
pub fn tail_level(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// A latency summary of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail value at [`Summary::tail_p`].
    pub tail: f64,
    /// Percentile the tail was taken at (100 = the maximum, used only when
    /// the run has too few samples for any ladder level).
    pub tail_p: f64,
}

/// Summarize `xs` (any order).
///
/// # Panics
/// Panics when `xs` is empty.
pub fn summarize(xs: &[f64]) -> Summary {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let tail_p = tail_level(v.len()).unwrap_or(100.0);
    Summary {
        n: v.len(),
        p50: percentile(&v, 50.0),
        tail: percentile(&v, tail_p),
        tail_p,
    }
}

/// Median of `xs` (any order); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}
