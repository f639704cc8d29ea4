//! The per-node ERT protocol, written once: [`MiniDht`](crate::MiniDht)
//! runs it for every simulated node and `ert-node`'s `WireNode` runs it
//! for itself. A node keeps its state in a [`NodeCore`] and reaches the
//! others only through a [`NodeDirectory`], which `MiniDht` implements
//! over its node vector and the wire node over RPCs. [`build_links`]
//! (strict elastic build, then Algorithm 1 via
//! [`ert_core::expand_indegree`]), [`hop`] (Algorithm 4) and [`adapt`]
//! (Algorithm 3) are therefore the same code on both sides.

use std::collections::{BTreeSet, VecDeque};

use ert_core::{
    adaptation_action, assign::initial_indegree_target, choose_next_b, expand_indegree,
    AdaptAction, Candidate, Directory, ElasticTable, ForwardPolicy,
};
use ert_sim::{SimDuration, SimRng};

use crate::geometry::Geometry;
use crate::platform::{AdaptTrace, MiniDhtConfig, MiniProtocol};

/// One node's protocol state: elastic table, adaptive bound and the
/// Table 2 single-server queue of `Q` (the host's per-lookup record).
#[derive(Debug)]
pub struct NodeCore<Q> {
    /// Ring id.
    pub id: u64,
    /// The protocol the node runs.
    pub protocol: MiniProtocol,
    /// Evaluated capacity (`max_indegree` of the normalized capacity).
    pub capacity_eval: u32,
    /// Current adaptive indegree bound `d^∞`.
    pub d_max: u32,
    /// Outlinks, backward fingers and forwarding memory.
    pub table: ElasticTable<u16, u64>,
    /// Lookups waiting for service.
    pub queue: VecDeque<Q>,
    /// The lookup in service.
    pub in_service: Option<Q>,
    /// Lookups received since the last adaptation round.
    pub period_load: u64,
    /// Lookups received in total.
    pub total_received: u64,
    /// Highest congestion (load over capacity) seen at an arrival.
    pub max_congestion: f64,
    /// Lookups that arrived while the node was heavy.
    pub heavy_encounters: u64,
}

impl<Q> NodeCore<Q> {
    /// An empty node; Classic nodes get an effectively unbounded `d_max`.
    pub fn new(id: u64, capacity_eval: u32, protocol: MiniProtocol) -> Self {
        let d_max = match protocol {
            MiniProtocol::Classic => u32::MAX >> 8,
            MiniProtocol::ElasticErt => capacity_eval,
        };
        NodeCore {
            id,
            protocol,
            capacity_eval,
            d_max,
            table: ElasticTable::new(),
            queue: VecDeque::new(),
            in_service: None,
            period_load: 0,
            total_received: 0,
            max_congestion: 0.0,
            heavy_encounters: 0,
        }
    }

    /// Queued plus in-service lookups.
    pub fn load(&self) -> usize {
        self.queue.len() + usize::from(self.in_service.is_some())
    }

    /// Whether the load exceeds the evaluated capacity.
    pub fn is_heavy(&self) -> bool {
        self.load() > self.capacity_eval as usize
    }

    /// `d^∞ − d` (negative after a shed).
    pub fn spare(&self) -> i64 {
        i64::from(self.d_max) - self.table.indegree() as i64
    }

    /// Service time of the lookup in service (heavy nodes are slow).
    pub fn service_time(&self, cfg: &MiniDhtConfig) -> SimDuration {
        if self.is_heavy() {
            cfg.heavy_service
        } else {
            cfg.light_service
        }
    }

    /// A lookup arrives: heavy accounting, service or queue, congestion
    /// high-water mark. Returns whether it went straight into service
    /// (the caller schedules completion after [`NodeCore::service_time`]).
    pub fn arrive(&mut self, q: Q) -> bool {
        if self.is_heavy() {
            self.heavy_encounters += 1;
        }
        self.total_received += 1;
        self.period_load += 1;
        let idle = self.in_service.is_none();
        if idle {
            self.in_service = Some(q);
        } else {
            self.queue.push_back(q);
        }
        let g = self.load() as f64 / f64::from(self.capacity_eval);
        if g > self.max_congestion {
            self.max_congestion = g;
        }
        idle
    }

    /// Drops every outlink to `peer` (the holder's half of a shed).
    pub fn drop_outlinks_to(&mut self, peer: u64) {
        let slots: Vec<u16> = self.table.occupied_slots().collect();
        for s in slots {
            self.table.remove_outlink(s, peer);
        }
    }

    /// Ends the current service, starts the next queued lookup (if any)
    /// and returns the finished one.
    pub fn finish_service(&mut self) -> Option<Q> {
        let done = self.in_service.take();
        self.in_service = self.queue.pop_front();
        done
    }

    /// Canonical routing-state fingerprint (bound, outlinks, memory,
    /// backward fingers): equal strings mean identical routing state.
    pub fn fingerprint(&self) -> String {
        let t = &self.table;
        let ids = |ids: &[u64]| ids.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        let out: Vec<String> = t
            .occupied_slots()
            .map(|s| format!("{s}:{}", ids(t.outlinks(s))))
            .collect();
        let mem: Vec<String> = t
            .occupied_slots()
            .filter_map(|s| t.memory(s).map(|m| format!("{s}:{m}")))
            .collect();
        format!(
            "id={};dmax={};out=[{}];mem=[{}];back=[{}]",
            self.id,
            self.d_max,
            out.join("|"),
            mem.join("|"),
            ids(t.backward_fingers())
        )
    }
}

/// What a load probe learned about one forwarding candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The peer reported its load and evaluated capacity.
    Report {
        /// Queued plus in-service lookups.
        load: u64,
        /// Evaluated capacity.
        capacity: u64,
    },
    /// No such peer: scored as load 0, capacity 1.
    Unknown,
    /// Partitioned away: skipped this hop.
    Unreachable,
}

/// The running node's window onto the overlay: the `ert_core`
/// [`Directory`] (its own id answered from its own state) plus load
/// probes and shed requests. Errors are the peers' protocol failures.
pub trait NodeDirectory: Directory<Id = u64, Slot = u16> {
    /// What the running node keeps per queued lookup.
    type Queued;
    /// The running node's own state.
    fn me(&mut self) -> &mut NodeCore<Self::Queued>;
    /// Probes `peer`'s load; `token` tags the lookup being forwarded.
    fn probe_load(&mut self, peer: u64, token: u64) -> Result<Probe, Self::Error>;
    /// Asks `victim` to drop its outlinks to the running node (the
    /// holder's half of shedding one inlink).
    fn drop_links(&mut self, victim: u64) -> Result<(), Self::Error>;
}

/// Builds the running node's table: the geometry's pick per slot, except
/// that ERT elastic slots draw a member with spare indegree ≥ 1 from
/// `rng` — strictly, so a saturated region stays empty (greedy routing
/// tolerates it) — and ERT then expands toward `β·d^∞` (Algorithm 1).
///
/// # Errors
///
/// The first failed directory call's error.
pub fn build_links<D: NodeDirectory, G: Geometry>(
    dir: &mut D,
    geometry: &G,
    cfg: &MiniDhtConfig,
    rng: &mut SimRng,
) -> Result<(), D::Error> {
    let (id, protocol) = (dir.me().id, dir.me().protocol);
    for (slot, members) in dir.table_slots(id) {
        let pick = if protocol == MiniProtocol::Classic || geometry.is_structural(slot) {
            geometry.classic_pick(id, slot, &members)
        } else {
            let mut eligible = Vec::with_capacity(members.len());
            for c in members {
                if dir.spare_indegree(c)? >= 1 {
                    eligible.push(c);
                }
            }
            rng.choose(&eligible).copied()
        };
        if let Some(pick) = pick {
            if !dir.has_link(id, slot, pick)? {
                dir.add_link(id, slot, pick)?;
            }
        }
    }
    if protocol == MiniProtocol::ElasticErt {
        let target = initial_indegree_target(&cfg.ert, dir.me().d_max);
        expand_indegree(dir, id, target)?;
    }
    Ok(())
}

/// A lookup's routing state, carried hop to hop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Route {
    /// The key being looked up.
    pub key: u64,
    /// Hops taken so far.
    pub hops: u32,
    /// The geometry's sticky numeric-endgame flag.
    pub numeric_mode: bool,
    /// Nodes this lookup has seen overloaded (Algorithm 4's avoid set).
    pub avoid: BTreeSet<u64>,
}

/// Outcome of one routing step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hop {
    /// The running node owns the key: the lookup is complete.
    Found,
    /// Forward to this node.
    Next(u64),
    /// The hop limit was reached.
    Dropped,
    /// No live owner, or no reachable candidate.
    Failed,
}

/// One routing step for a lookup the running node has served: owner,
/// hop-limit and no-owner checks, then Algorithm 4 — the geometry's
/// candidates, a load probe each, the b-way choice with memory (drawing
/// from `rng`), then the avoid-set, memory and hop-count updates.
///
/// # Errors
///
/// The first failed probe's error.
pub fn hop<D: NodeDirectory, G: Geometry>(
    dir: &mut D,
    geometry: &G,
    cfg: &MiniDhtConfig,
    route: &mut Route,
    token: u64,
    rng: &mut SimRng,
) -> Result<Hop, D::Error> {
    let me = dir.me();
    let owner = geometry.owner(route.key);
    if owner == Some(me.id) {
        return Ok(Hop::Found);
    }
    if route.hops >= cfg.max_hops {
        return Ok(Hop::Dropped);
    }
    let Some(owner) = owner else {
        return Ok(Hop::Failed);
    };
    let hc = geometry.hop_candidates(me.id, owner, &mut me.table, &mut route.numeric_mode);
    let mut cands: Vec<Candidate<u64>> = Vec::with_capacity(hc.ids.len());
    for &c in &hc.ids {
        let (load, capacity) = match dir.probe_load(c, token)? {
            Probe::Report { load, capacity } => (load as f64, capacity as f64),
            Probe::Unknown => (0.0, 1.0),
            Probe::Unreachable => continue,
        };
        cands.push(Candidate {
            id: c,
            load,
            capacity,
            logical_distance: geometry.metric(c, owner),
            physical_distance: 0.0,
        });
    }
    let me = dir.me();
    let policy = match me.protocol {
        MiniProtocol::Classic => ForwardPolicy::Deterministic,
        MiniProtocol::ElasticErt => ForwardPolicy::TwoChoice {
            topology_aware: true,
            use_memory: true,
        },
    };
    let Some(choice) = choose_next_b(
        policy,
        &cands,
        me.table.memory(hc.slot),
        &route.avoid,
        cfg.ert.gamma_l,
        cfg.ert.probe_width,
        rng,
    ) else {
        return Ok(Hop::Failed);
    };
    route.avoid.extend(choice.newly_overloaded);
    if let Some(mem) = choice.new_memory {
        me.table.set_memory(hc.slot, mem);
    }
    route.hops += 1;
    Ok(Hop::Next(choice.next))
}

/// One Algorithm 3 round: shed the most recently added inlinks (no
/// locality to rank by), or raise `d_max` (capped at `8·max(c, 8)`) and
/// grow toward it; then reset the period load.
///
/// # Errors
///
/// The first failed directory call's error.
pub fn adapt<D: NodeDirectory>(
    dir: &mut D,
    cfg: &MiniDhtConfig,
    round: u32,
) -> Result<AdaptTrace, D::Error> {
    let me = dir.me();
    let id = me.id;
    let mut delta = 0;
    match adaptation_action(me.period_load as f64, f64::from(me.capacity_eval), &cfg.ert) {
        AdaptAction::Keep => {}
        AdaptAction::Shed(x) => {
            let x = x.min(me.table.indegree() as u32);
            delta = -i64::from(x);
            let fingers = me.table.backward_fingers();
            let victims: Vec<u64> = fingers.iter().rev().take(x as usize).copied().collect();
            for v in victims {
                dir.drop_links(v)?;
                dir.me().table.remove_backward(v);
            }
            let me = dir.me();
            me.d_max = me.d_max.saturating_sub(x).max(1);
        }
        AdaptAction::Grow(x) => {
            delta = i64::from(x);
            let cap = 8 * me.capacity_eval.max(8);
            me.d_max = (me.d_max + x).min(cap);
            let target = (me.table.indegree() as u32 + x).min(me.d_max);
            expand_indegree(dir, id, target)?;
        }
    }
    let me = dir.me();
    me.period_load = 0;
    Ok(AdaptTrace {
        round,
        node: id,
        delta,
        d_max: me.d_max,
    })
}
