//! Deterministic span IDs for per-lookup causal tracing.
//!
//! Every hop a query takes through the network is one span; spans of a
//! query form a chain (hop *k*'s parent is hop *k−1*, hop 0's parent is
//! the per-lookup root). IDs are pure arithmetic over `(query id, hop
//! index)` — no RNG, no global counter — so two runs of the same seed
//! emit identical span trees.
//!
//! Layout: the low [`HOP_BITS`] bits hold `hop + 1` (zero is reserved
//! for the per-lookup root span), the rest hold the query id. A query
//! that re-serves at the same hop index after a churn handoff or a
//! retry re-emits the same span ID; the analyzer treats those as
//! sibling spans of one logical hop.

/// Bits reserved for the hop index (low bits of a span ID).
pub const HOP_BITS: u32 = 16;

/// Largest encodable hop index (`max_hops` configs sit far below).
pub const MAX_HOP: u32 = (1 << HOP_BITS) - 2;

/// The root span of a lookup: parent of its hop-0 span.
///
/// # Panics
///
/// Panics if `q` does not fit in the remaining high bits.
pub fn lookup_root(q: u64) -> u64 {
    assert!(q < 1 << (64 - HOP_BITS), "query id out of range: {q}");
    q << HOP_BITS
}

/// The span ID of hop `hop` of query `q`.
///
/// # Panics
///
/// Panics if `q` or `hop` is out of encodable range.
pub fn span_id(q: u64, hop: u32) -> u64 {
    assert!(hop <= MAX_HOP, "hop index out of range: {hop}");
    lookup_root(q) | (hop as u64 + 1)
}

/// The parent span ID of hop `hop` of query `q`: the previous hop, or
/// the lookup root for hop 0.
pub fn parent_id(q: u64, hop: u32) -> u64 {
    if hop == 0 {
        lookup_root(q)
    } else {
        span_id(q, hop - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_deterministic_and_distinct() {
        assert_eq!(span_id(3, 0), span_id(3, 0));
        assert_ne!(span_id(3, 0), span_id(3, 1));
        assert_ne!(span_id(3, 0), span_id(4, 0));
        assert_ne!(span_id(3, 0), lookup_root(3));
    }

    #[test]
    fn parent_chain_reaches_the_root() {
        let q = 42;
        assert_eq!(parent_id(q, 0), lookup_root(q));
        assert_eq!(parent_id(q, 5), span_id(q, 4));
    }

    #[test]
    #[should_panic(expected = "hop index out of range")]
    fn hop_overflow_rejected() {
        span_id(1, MAX_HOP + 1);
    }

    #[test]
    #[should_panic(expected = "query id out of range")]
    fn query_overflow_rejected() {
        lookup_root(1 << 48);
    }
}
