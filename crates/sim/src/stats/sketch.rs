//! Deterministic fixed-size quantile sketches.
//!
//! [`P2Quantile`] is the classic P² algorithm (Jain & Chlamtac 1985):
//! five markers track one target quantile of an observation stream in
//! constant memory, adjusting marker heights by parabolic (or, at the
//! boundary, linear) interpolation. No randomness, no wall clock — the
//! final state is a pure function of the observation *sequence*, so
//! same-seed simulation runs produce bit-identical sketches (D1/D2
//! clean by construction).
//!
//! [`StreamSummary`] composes three sketches (p01 / p50 / p99) with
//! exact count / running mean / min / max into a `Copy` collector that
//! answers the same queries as [`Samples`](super::Samples) — the
//! streaming backend behind `--stream-stats`. Being `Copy` it provably
//! owns no heap: peak memory per metric is `size_of::<StreamSummary>()`
//! bytes regardless of how many observations stream through.
//!
//! Accuracy: below five observations every query is *exact* (the five
//! marker slots double as a buffer). From five on, the tracked
//! quantiles converge with error that the testkit differential oracle
//! (`ert-testkit::streamdiff`) pins to a documented tolerance band
//! across seeds and workload shapes; see EXPERIMENTS.md § Streaming
//! statistics tolerance.

use super::digest::{Digest, Record};

/// Sorts the first `m` slots of a five-slot buffer (insertion sort; the
/// buffer is tiny and `sort_unstable_by` on a stack array would pull in
/// the same comparisons anyway).
fn sort_prefix(buf: &mut [f64; 5], m: usize) {
    for i in 1..m {
        let mut j = i;
        while j > 0 && buf[j - 1] > buf[j] {
            buf.swap(j - 1, j);
            j -= 1;
        }
    }
}

/// A P² sketch of one target quantile: five markers, O(1) memory,
/// deterministic.
///
/// ```
/// use ert_sim::stats::P2Quantile;
/// let mut q = P2Quantile::new(0.5);
/// for i in 1..=1000 {
///     q.observe(i as f64);
/// }
/// let est = q.value();
/// assert!((est - 500.0).abs() < 20.0, "{est}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct P2Quantile {
    /// Target quantile in `[0, 1]`.
    p: f64,
    /// Observations absorbed.
    count: u64,
    /// Marker heights; below five observations, the raw buffer.
    q: [f64; 5],
    /// Marker positions (1-based observation ranks).
    n: [f64; 5],
    /// Desired marker positions.
    np: [f64; 5],
}

impl P2Quantile {
    /// A sketch targeting quantile `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn new(p: f64) -> P2Quantile {
        assert!((0.0..=1.0).contains(&p), "quantile out of range: {p}");
        P2Quantile {
            p,
            count: 0,
            q: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            np: [0.0; 5],
        }
    }

    /// The target quantile this sketch tracks.
    pub fn target(&self) -> f64 {
        self.p
    }

    /// Observations absorbed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Absorbs one observation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn observe(&mut self, value: f64) {
        assert!(!value.is_nan(), "NaN observation");
        if self.count < 5 {
            self.q[self.count as usize] = value;
            self.count += 1;
            if self.count == 5 {
                sort_prefix(&mut self.q, 5);
                self.n = [1.0, 2.0, 3.0, 4.0, 5.0];
                let p = self.p;
                self.np = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0];
            }
            return;
        }
        self.count += 1;

        // Locate the cell k with q[k] <= value < q[k+1], extending the
        // extreme markers when the observation falls outside them.
        let k = if value < self.q[0] {
            self.q[0] = value;
            0
        } else if value >= self.q[4] {
            self.q[4] = value;
            3
        } else {
            let mut k = 0;
            while k < 3 && value >= self.q[k + 1] {
                k += 1;
            }
            k
        };

        for i in (k + 1)..5 {
            self.n[i] += 1.0;
        }
        let p = self.p;
        let dnp = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0];
        for (np, d) in self.np.iter_mut().zip(dnp) {
            *np += d;
        }

        // Adjust the three interior markers toward their desired
        // positions by one rank at most, interpolating their heights.
        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1.0)
                || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1.0)
            {
                let d = d.signum();
                let parabolic = self.q[i]
                    + d / (self.n[i + 1] - self.n[i - 1])
                        * ((self.n[i] - self.n[i - 1] + d) * (self.q[i + 1] - self.q[i])
                            / (self.n[i + 1] - self.n[i])
                            + (self.n[i + 1] - self.n[i] - d) * (self.q[i] - self.q[i - 1])
                                / (self.n[i] - self.n[i - 1]));
                if self.q[i - 1] < parabolic && parabolic < self.q[i + 1] {
                    self.q[i] = parabolic;
                } else {
                    // Linear fallback toward the neighbor in direction d.
                    let j = if d > 0.0 { i + 1 } else { i - 1 };
                    self.q[i] += d * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i]);
                }
                self.n[i] += d;
            }
        }
    }

    /// Current estimate of the target quantile, or 0.0 when empty.
    /// Exact (nearest rank) below five observations.
    pub fn value(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let m = self.count as usize;
        if m >= 5 {
            return self.q[2];
        }
        let mut buf = self.q;
        sort_prefix(&mut buf, m);
        let rank = ((self.p * m as f64).ceil() as usize).max(1);
        buf[rank - 1]
    }
}

/// O(1)-memory streaming counterpart of [`Samples`](super::Samples):
/// exact count / mean / min / max plus P² sketches of the three
/// quantiles the reports use (p01, p50, p99).
///
/// The running mean accumulates observations in arrival order with the
/// same sequential additions `Samples::mean` performs, so `count`,
/// `mean`, and `max` are *bit-identical* to the exact collector;
/// only the interior quantiles are approximate (and exact below five
/// observations).
///
/// `StreamSummary` is `Copy`: it provably owns no heap, so peak
/// collector memory is `size_of::<StreamSummary>()` per metric no
/// matter how many observations stream through — the property the
/// 10^6-observation differential test in `ert-testkit` pins.
///
/// ```
/// use ert_sim::stats::{Digest, Record, StreamSummary};
/// let mut s = StreamSummary::new();
/// for v in 1..=100 {
///     s.observe(v as f64);
/// }
/// assert_eq!(s.count(), 100);
/// assert_eq!(s.mean(), 50.5);
/// assert_eq!(s.max(), 100.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSummary {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    q01: P2Quantile,
    q50: P2Quantile,
    q99: P2Quantile,
}

// The O(1)-memory claim, enforced at compile time: a Copy type of
// bounded size cannot grow with the observation count.
const _: () = assert!(std::mem::size_of::<StreamSummary>() <= 512);

impl StreamSummary {
    /// An empty streaming collector tracking p01 / p50 / p99.
    pub fn new() -> StreamSummary {
        StreamSummary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            q01: P2Quantile::new(0.01),
            q50: P2Quantile::new(0.50),
            q99: P2Quantile::new(0.99),
        }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest observation, or 0.0 when empty (exact).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }
}

impl Default for StreamSummary {
    fn default() -> Self {
        StreamSummary::new()
    }
}

impl Record for StreamSummary {
    fn observe(&mut self, value: f64) {
        assert!(!value.is_nan(), "NaN observation");
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.q01.observe(value);
        self.q50.observe(value);
        self.q99.observe(value);
    }
}

impl Digest for StreamSummary {
    fn count(&self) -> u64 {
        self.count
    }

    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Snaps `p` to the nearest tracked point among min (p≈0), p01,
    /// p50, p99, and max (p≈1); a three-sketch digest cannot answer
    /// arbitrary quantiles. Exact below five observations.
    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile out of range: {p}");
        if self.count == 0 {
            return 0.0;
        }
        if p < 0.005 {
            self.min
        } else if p < 0.255 {
            self.q01.value()
        } else if p < 0.745 {
            self.q50.value()
        } else if p < 0.995 {
            self.q99.value()
        } else {
            self.max
        }
    }

    /// Largest observation clamped to ≥ 0.0, mirroring
    /// [`Samples::max`](super::Samples::max).
    fn max(&self) -> f64 {
        self.max.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    /// Deterministic pseudo-uniform stream for accuracy tests: a plain
    /// LCG (constant seed, pure arithmetic) — not an ambient RNG.
    fn lcg_stream(seed: u64, len: usize) -> Vec<f64> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    fn exact_quantile(values: &[f64], p: f64) -> f64 {
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let rank = ((p * v.len() as f64).ceil() as usize).max(1);
        v[rank - 1]
    }

    #[test]
    fn empty_sketch_is_zero() {
        let q = P2Quantile::new(0.5);
        assert_eq!(q.value(), 0.0);
        assert_eq!(q.count(), 0);
        let s = StreamSummary::new();
        assert_eq!(s.quantile(0.99), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(Digest::max(&s), 0.0);
        assert!(s.is_empty());
        assert_eq!(s.summarize(), Summary::default());
    }

    #[test]
    fn below_five_observations_is_exact() {
        for n in 1..5usize {
            let values: Vec<f64> = [3.0, 1.0, 4.0, 1.5][..n].to_vec();
            let mut s = StreamSummary::new();
            for &v in &values {
                s.observe(v);
            }
            for p in [0.01, 0.5, 0.99] {
                assert_eq!(s.quantile(p), exact_quantile(&values, p), "n={n} p={p}");
            }
        }
    }

    #[test]
    fn median_of_linear_ramp_converges() {
        let mut q = P2Quantile::new(0.5);
        for i in 1..=10_000 {
            q.observe(i as f64);
        }
        let est = q.value();
        assert!((est - 5000.0).abs() < 100.0, "{est}");
    }

    #[test]
    fn uniform_stream_quantiles_within_band() {
        for seed in [7u64, 99, 12345] {
            let values = lcg_stream(seed, 50_000);
            let mut s = StreamSummary::new();
            for &v in &values {
                s.observe(v);
            }
            for (p, tol) in [(0.01, 0.01), (0.5, 0.02), (0.99, 0.01)] {
                let exact = exact_quantile(&values, p);
                let est = s.quantile(p);
                assert!(
                    (est - exact).abs() < tol,
                    "seed={seed} p={p}: est {est} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn count_mean_min_max_are_exact() {
        let values = lcg_stream(3, 1000);
        let mut s = StreamSummary::new();
        let mut sum = 0.0;
        for &v in &values {
            s.observe(v);
            sum += v;
        }
        // Same sequential additions as the exact collector's mean.
        assert_eq!(s.mean(), sum / 1000.0);
        assert_eq!(s.count(), 1000);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(Digest::max(&s), max.max(0.0));
        assert_eq!(s.min(), min);
    }

    #[test]
    fn same_sequence_gives_bit_identical_state() {
        let values = lcg_stream(42, 5000);
        let mut a = StreamSummary::new();
        let mut b = StreamSummary::new();
        for &v in &values {
            a.observe(v);
            b.observe(v);
        }
        assert_eq!(a, b);
        assert_eq!(a.quantile(0.99).to_bits(), b.quantile(0.99).to_bits());
    }

    #[test]
    fn copy_bound_proves_o1_memory() {
        // A Copy collector cannot own heap allocations; its size is the
        // peak per-metric memory, independent of observation count.
        fn assert_copy<T: Copy>() {}
        assert_copy::<StreamSummary>();
        assert!(std::mem::size_of::<StreamSummary>() <= 512);
    }

    #[test]
    fn negative_only_stream_clamps_max_like_samples() {
        let mut s = StreamSummary::new();
        s.observe(-3.0);
        s.observe(-1.0);
        assert_eq!(Digest::max(&s), 0.0);
        assert_eq!(s.min(), -3.0);
    }

    #[test]
    #[should_panic(expected = "NaN observation")]
    fn nan_rejected() {
        StreamSummary::new().observe(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn quantile_range_enforced() {
        StreamSummary::new().quantile(-0.1);
    }
}
