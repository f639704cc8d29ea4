//! Initial table construction and indegree expansion (Section 3.2,
//! Algorithms 1–2 of the paper).
//!
//! Both operations are written against the [`Directory`] trait — the
//! joining node's window onto the network — so the same logic drives the
//! Cycloid simulator in `ert-network`, the Chord/Pastry platforms in
//! `ert-minidht`, the live wire node in `ert-node` (over RPC) and
//! mock-based unit tests.

use ert_sim::SimRng;

use crate::params::ErtParams;

/// A node's view of the network during table construction and indegree
/// expansion.
///
/// `add_link(from, slot, to)` must perform the double bookkeeping the
/// paper describes: `to` gains an inlink (and records a backward finger
/// to know `from`), `from`'s table slot gains the outlink. The geometry
/// reads are local; the peer-state methods may have to ask the peer, so
/// they can fail (in-memory directories use `Infallible` errors).
pub trait Directory {
    /// Overlay node identifier.
    type Id: Copy + Eq + std::fmt::Debug;
    /// Routing-table slot identifier.
    type Slot: Copy + Eq + std::fmt::Debug;
    /// Failure of a peer-state read or write.
    type Error;

    /// The slots of `node`'s table, each with the live candidates its
    /// region currently contains.
    fn table_slots(&self, node: Self::Id) -> Vec<(Self::Slot, Vec<Self::Id>)>;

    /// `(slot-of-theirs, candidate)` pairs whose tables may legally
    /// point at `node`, in the probe order of Algorithm 1 (cubical
    /// region first, then cyclic, then ring neighbors).
    fn inlink_candidates(&self, node: Self::Id) -> Vec<(Self::Slot, Self::Id)>;

    /// `d^∞ − d` of `node` (may be negative after adaptation shrank
    /// `d^∞` below the current indegree).
    fn spare_indegree(&mut self, node: Self::Id) -> Result<i64, Self::Error>;

    /// Current indegree of `node`.
    fn indegree(&mut self, node: Self::Id) -> Result<u32, Self::Error>;

    /// Whether `from`'s table already holds `to` in `slot`.
    fn has_link(
        &mut self,
        from: Self::Id,
        slot: Self::Slot,
        to: Self::Id,
    ) -> Result<bool, Self::Error>;

    /// Creates the double link `from → to` in `from`'s `slot`.
    fn add_link(
        &mut self,
        from: Self::Id,
        slot: Self::Slot,
        to: Self::Id,
    ) -> Result<(), Self::Error>;
}

/// The initial indegree a joining node aims for: `β·d^∞`, at least 1
/// (Section 3.2: "The initial indegree of node *i* is `βd_i^∞`").
///
/// ```
/// use ert_core::{assign::initial_indegree_target, ErtParams};
/// let params = ErtParams { beta: 0.75, ..ErtParams::default() };
/// assert_eq!(initial_indegree_target(&params, 12), 9);
/// assert_eq!(initial_indegree_target(&params, 1), 1);
/// ```
pub fn initial_indegree_target(params: &ErtParams, d_max: u32) -> u32 {
    ((params.beta * d_max as f64).round() as u32).max(1)
}

/// Builds `node`'s basic routing table: for every slot, picks one
/// neighbor from the slot's region, honoring the paper's restriction
/// that "only nodes with available capacity `d^∞ − d ≥ 1` can be the
/// joining node's neighbors".
///
/// When a region has members but none with spare indegree, the member
/// with the most spare (least negative) indegree is taken anyway — a
/// table without a neighbor in a populated region would break routing,
/// and the periodic adaptation will shed the excess.
///
/// Returns the number of links created.
///
/// # Errors
///
/// Stops at the first failed directory call and returns its error.
pub fn build_table<D: Directory>(
    dir: &mut D,
    node: D::Id,
    rng: &mut SimRng,
) -> Result<usize, D::Error> {
    let mut created = 0;
    for (slot, candidates) in dir.table_slots(node) {
        let mut spares = Vec::with_capacity(candidates.len());
        for c in candidates.into_iter().filter(|&c| c != node) {
            spares.push((c, dir.spare_indegree(c)?));
        }
        let with_spare: Vec<D::Id> = spares
            .iter()
            .filter(|&&(_, spare)| spare >= 1)
            .map(|&(c, _)| c)
            .collect();
        let chosen = if with_spare.is_empty() {
            spares
                .iter()
                .max_by_key(|&&(_, spare)| spare)
                .map(|&(c, _)| c)
        } else {
            rng.choose(&with_spare).copied()
        };
        let Some(chosen) = chosen else {
            continue;
        };
        if !dir.has_link(node, slot, chosen)? {
            dir.add_link(node, slot, chosen)?;
            created += 1;
        }
    }
    Ok(created)
}

/// Expands `node`'s indegree toward `target` by probing its reverse
/// regions in order (Algorithm 1): each willing candidate adds `node`
/// to the corresponding slot of its own table and `node` records a
/// backward finger.
///
/// Returns the number of inlinks gained. Stops early when the candidate
/// supply is exhausted, so the achieved indegree can fall short of
/// `target` in sparse regions.
///
/// # Errors
///
/// Stops at the first failed directory call and returns its error.
pub fn expand_indegree<D: Directory>(
    dir: &mut D,
    node: D::Id,
    target: u32,
) -> Result<u32, D::Error> {
    let mut gained = 0;
    if dir.indegree(node)? >= target {
        return Ok(0);
    }
    for (slot, candidate) in dir.inlink_candidates(node) {
        if dir.indegree(node)? >= target {
            break;
        }
        if candidate == node || dir.has_link(candidate, slot, node)? {
            continue;
        }
        dir.add_link(candidate, slot, node)?;
        gained += 1;
    }
    Ok(gained)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A two-slot toy overlay: every node's table has slots 0 and 1;
    /// slot-0 candidates are even ids, slot-1 candidates odd ids.
    /// With `fail_at = Some(k)` the k-th peer-state call (1-based)
    /// fails with `Fault(k)`; `calls` counts every peer-state call.
    struct MockDir {
        members: Vec<u32>,
        d_max: BTreeMap<u32, i64>,
        links: Vec<(u32, u8, u32)>,
        indegree: BTreeMap<u32, u32>,
        fail_at: Option<usize>,
        calls: usize,
    }

    #[derive(Debug, PartialEq, Eq)]
    struct Fault(usize);

    impl MockDir {
        fn new(members: &[u32], d_max: i64) -> Self {
            MockDir {
                members: members.to_vec(),
                d_max: members.iter().map(|&m| (m, d_max)).collect(),
                links: Vec::new(),
                indegree: BTreeMap::new(),
                fail_at: None,
                calls: 0,
            }
        }

        fn call(&mut self) -> Result<(), Fault> {
            self.calls += 1;
            match self.fail_at {
                Some(k) if k == self.calls => Err(Fault(k)),
                _ => Ok(()),
            }
        }
    }

    impl Directory for MockDir {
        type Id = u32;
        type Slot = u8;
        type Error = Fault;

        fn table_slots(&self, node: u32) -> Vec<(u8, Vec<u32>)> {
            let evens = self
                .members
                .iter()
                .copied()
                .filter(|m| m % 2 == 0 && *m != node);
            let odds = self
                .members
                .iter()
                .copied()
                .filter(|m| m % 2 == 1 && *m != node);
            vec![(0, evens.collect()), (1, odds.collect())]
        }

        fn inlink_candidates(&self, node: u32) -> Vec<(u8, u32)> {
            let slot = (node % 2) as u8;
            self.members
                .iter()
                .copied()
                .filter(|&m| m != node)
                .map(|m| (slot, m))
                .collect()
        }

        fn spare_indegree(&mut self, node: u32) -> Result<i64, Fault> {
            self.call()?;
            Ok(self.d_max[&node] - self.indegree.get(&node).copied().unwrap_or(0) as i64)
        }

        fn indegree(&mut self, node: u32) -> Result<u32, Fault> {
            self.call()?;
            Ok(self.indegree.get(&node).copied().unwrap_or(0))
        }

        fn has_link(&mut self, from: u32, slot: u8, to: u32) -> Result<bool, Fault> {
            self.call()?;
            Ok(self.links.contains(&(from, slot, to)))
        }

        fn add_link(&mut self, from: u32, slot: u8, to: u32) -> Result<(), Fault> {
            self.call()?;
            assert!(!self.links.contains(&(from, slot, to)), "duplicate link");
            self.links.push((from, slot, to));
            *self.indegree.entry(to).or_insert(0) += 1;
            Ok(())
        }
    }

    #[test]
    fn build_table_fills_every_populated_slot() {
        let mut dir = MockDir::new(&[2, 3, 4, 5], 10);
        let mut rng = SimRng::seed_from(1);
        let created = build_table(&mut dir, 2, &mut rng);
        assert_eq!(created, Ok(2)); // one even, one odd neighbor
        assert!(dir.links.iter().all(|&(from, _, to)| from == 2 && to != 2));
    }

    #[test]
    fn build_table_prefers_nodes_with_spare_indegree() {
        let mut dir = MockDir::new(&[2, 4, 6], 10);
        dir.d_max.insert(4, 0); // node 4 is saturated
        let mut rng = SimRng::seed_from(2);
        for _ in 0..10 {
            dir.links.clear();
            dir.indegree.clear();
            build_table(&mut dir, 6, &mut rng).unwrap();
            assert_eq!(dir.links, vec![(6, 0, 2)], "must avoid saturated node 4");
        }
    }

    #[test]
    fn build_table_falls_back_when_all_saturated() {
        let mut dir = MockDir::new(&[2, 4], 10);
        dir.d_max.insert(2, 0);
        let mut rng = SimRng::seed_from(3);
        let created = build_table(&mut dir, 4, &mut rng);
        // Slot 0's only member (2) is saturated but still linked.
        assert_eq!(created, Ok(1));
        assert_eq!(dir.links, vec![(4, 0, 2)]);
    }

    #[test]
    fn expand_indegree_reaches_target() {
        let mut dir = MockDir::new(&[1, 2, 3, 4, 5, 6], 10);
        let gained = expand_indegree(&mut dir, 2, 3);
        assert_eq!(gained, Ok(3));
        assert_eq!(dir.indegree(2), Ok(3));
        // Every created link points at node 2 in its probe slot.
        assert!(dir.links.iter().all(|&(_, slot, to)| to == 2 && slot == 0));
    }

    #[test]
    fn expand_indegree_stops_when_candidates_run_out() {
        let mut dir = MockDir::new(&[1, 2], 10);
        let gained = expand_indegree(&mut dir, 2, 5);
        assert_eq!(gained, Ok(1)); // only node 1 can point at 2
        assert_eq!(dir.indegree(2), Ok(1));
    }

    #[test]
    fn expand_indegree_noop_when_already_at_target() {
        let mut dir = MockDir::new(&[1, 2, 3], 10);
        expand_indegree(&mut dir, 2, 2).unwrap();
        let before = dir.links.len();
        assert_eq!(expand_indegree(&mut dir, 2, 2), Ok(0));
        assert_eq!(dir.links.len(), before);
    }

    #[test]
    fn peer_state_errors_stop_build_and_expansion() {
        // Fail each peer-state call of a clean run in turn: the error
        // comes back unchanged and is the last call made, so no
        // `add_link` follows it.
        type Op = fn(&mut MockDir) -> Result<(), Fault>;
        let build: Op = |dir| build_table(dir, 2, &mut SimRng::seed_from(4)).map(drop);
        let expand: Op = |dir| expand_indegree(dir, 2, 3).map(drop);
        for op in [build, expand] {
            let mut clean = MockDir::new(&[1, 2, 3, 4, 5, 6], 10);
            op(&mut clean).unwrap();
            assert!(!clean.links.is_empty());
            for k in 1..=clean.calls {
                let mut dir = MockDir::new(&[1, 2, 3, 4, 5, 6], 10);
                dir.fail_at = Some(k);
                assert_eq!(op(&mut dir), Err(Fault(k)));
                assert_eq!(dir.calls, k, "call {k} failed but the run went on");
                assert!(clean.links.starts_with(&dir.links));
            }
        }
    }

    #[test]
    fn target_formula() {
        let p = ErtParams {
            beta: 0.5,
            ..ErtParams::default()
        };
        assert_eq!(initial_indegree_target(&p, 11), 6); // round(5.5)
        assert_eq!(initial_indegree_target(&p, 0), 1);
    }
}
