//! The [`Digest`] query trait shared by every statistics collector, the
//! [`Record`] write trait for the collectors that accept observations,
//! and [`Summary`], the fixed six-field digest the paper's figures plot.
//!
//! `Summary`'s serialized field order is part of the report format
//! pinned by `tests/parallel_determinism.rs` and must not change.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A digest of an observation stream: the statistics the paper's
/// figures plot.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// 1st percentile.
    pub p01: f64,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mean={:.4} p01={:.4} p50={:.4} p99={:.4} max={:.4} (n={})",
            self.mean, self.p01, self.p50, self.p99, self.max, self.count
        )
    }
}

/// The query side of a statistics collector: count, mean, quantiles,
/// max, and a [`Summary`] snapshot.
///
/// Implemented by the exact collectors ([`Samples`](super::Samples),
/// [`Histogram`](super::Histogram)), by the O(1)-memory streaming sketch
/// ([`StreamSummary`](super::StreamSummary)), and by [`Summary`] itself (whose
/// `quantile` snaps to the nearest stored percentile). Code that only
/// *reads* statistics can take `&dyn Digest` and stay agnostic to
/// whether the run retained raw samples or streamed them.
pub trait Digest {
    /// Number of observations absorbed.
    fn count(&self) -> u64;

    /// Arithmetic mean, or 0.0 when empty.
    fn mean(&self) -> f64;

    /// The `p`-quantile (`0.0 ..= 1.0`), or 0.0 when empty. Exact
    /// collectors answer by nearest rank; sketches answer from their
    /// tracked markers (see each implementation for its resolution).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    fn quantile(&self, p: f64) -> f64;

    /// Largest observation (clamped to ≥ 0.0, matching the exact
    /// collectors), or 0.0 when empty.
    fn max(&self) -> f64;

    /// Mean / 1st / 50th / 99th percentile / max snapshot.
    fn summarize(&self) -> Summary {
        Summary {
            count: self.count() as usize,
            mean: self.mean(),
            p01: self.quantile(0.01),
            p50: self.quantile(0.50),
            p99: self.quantile(0.99),
            max: self.max(),
        }
    }
}

/// The write side of a statistics collector.
///
/// Split from [`Digest`] because read-only digests exist ([`Summary`]
/// answers quantile queries but cannot absorb new observations).
pub trait Record {
    /// Absorbs one observation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN — a NaN would poison every quantile
    /// query downstream.
    fn observe(&mut self, value: f64);
}

impl Digest for Summary {
    fn count(&self) -> u64 {
        self.count as u64
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    /// Snaps to the nearest stored percentile: `p01` below 0.255, `p50`
    /// up to 0.745, `p99` up to 0.995, `max` above. A `Summary` is a
    /// five-point digest; intermediate quantiles are not recoverable.
    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile out of range: {p}");
        if p < 0.255 {
            self.p01
        } else if p < 0.745 {
            self.p50
        } else if p < 0.995 {
            self.p99
        } else {
            self.max
        }
    }

    fn max(&self) -> f64 {
        self.max
    }

    fn summarize(&self) -> Summary {
        *self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest() -> Summary {
        Summary {
            count: 100,
            mean: 5.0,
            p01: 1.0,
            p50: 4.0,
            p99: 9.0,
            max: 10.0,
        }
    }

    #[test]
    fn summary_quantile_snaps_to_stored_points() {
        let d = digest();
        assert_eq!(d.quantile(0.0), 1.0);
        assert_eq!(d.quantile(0.01), 1.0);
        assert_eq!(d.quantile(0.5), 4.0);
        assert_eq!(d.quantile(0.99), 9.0);
        assert_eq!(d.quantile(1.0), 10.0);
    }

    #[test]
    fn summary_summarize_is_identity() {
        let d = digest();
        assert_eq!(d.summarize(), d);
        assert_eq!(Digest::count(&d), 100);
        assert_eq!(Digest::mean(&d), 5.0);
        assert_eq!(Digest::max(&d), 10.0);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn summary_quantile_rejects_out_of_range() {
        digest().quantile(1.5);
    }

    #[test]
    fn display_shape() {
        let s = digest().to_string();
        assert!(s.contains("mean=5.0000"), "{s}");
        assert!(s.contains("(n=100)"), "{s}");
    }

    #[test]
    fn serialized_field_order_is_pinned() {
        // The report pin in tests/parallel_determinism.rs depends on
        // exactly this byte sequence.
        let d = digest();
        assert_eq!(
            serde::json::to_string(&d),
            "{\"count\":100,\"mean\":5.0,\"p01\":1.0,\"p50\":4.0,\"p99\":9.0,\"max\":10.0}"
        );
    }
}
