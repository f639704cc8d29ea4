//! The single-threaded live node.
//!
//! A [`WireNode`] owns exactly the state one `MiniNode` holds inside
//! the simulator — elastic table, service queue, adaptive bound — and
//! executes the same algorithms (`ert-core`'s Algorithm 4 forwarding
//! and Algorithm 3 adaptation) as wire exchanges through a
//! [`Transport`]. Every decision the simulator makes by reading shared
//! memory, the node makes by sending a frame: candidate loads arrive as
//! `ProbeLoad`/`LoadReport` RPCs, indegree expansion negotiates
//! `AdaptIndegree` ops with the candidate inlink holders, and lookups
//! are forwarded as `Lookup` datagrams. The differential oracle in
//! `ert-testkit` pins the two executions to identical decisions
//! hop-by-hop; see DESIGN.md "Wire Protocol & Live Node" for the
//! correspondence argument.
//!
//! Determinism: the node's only randomness is two private streams
//! derived from `seed ^ id` — the build stream (elastic slot picks at
//! join) and the `"decide"` fork (forwarding probes). It never reads a
//! clock (time comes from [`Transport::now`]) and never iterates an
//! unordered container.

use std::collections::{BTreeSet, VecDeque};
use std::fmt;

use ert_core::{
    adaptation_action, assign::initial_indegree_target, choose_next_b, AdaptAction, Candidate,
    ElasticTable, ErtParams, ForwardPolicy,
};
use ert_minidht::{AdaptTrace, ChordGeometry, Geometry, MiniDhtConfig, MiniProtocol};
use ert_sim::{SimDuration, SimRng};

use crate::codec::{decode, encode, AdaptOp, CodecError, LookupStatus, Message};
use crate::transport::{TimerKind, Transport, TransportError, CLIENT_ADDR};

/// Node-level protocol failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeError {
    /// A frame failed to decode.
    Codec(CodecError),
    /// The transport failed in a way the protocol cannot absorb.
    Transport(TransportError),
    /// A peer answered with an unexpected message.
    Protocol(String),
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::Codec(e) => write!(f, "codec: {e}"),
            NodeError::Transport(e) => write!(f, "transport: {e}"),
            NodeError::Protocol(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl std::error::Error for NodeError {}

impl From<CodecError> for NodeError {
    fn from(e: CodecError) -> Self {
        NodeError::Codec(e)
    }
}

impl From<TransportError> for NodeError {
    fn from(e: TransportError) -> Self {
        NodeError::Transport(e)
    }
}

/// A lookup while resident on this node (queued or in service).
#[derive(Debug, Clone)]
pub(crate) struct LookupState {
    pub(crate) query: u64,
    pub(crate) key: u64,
    pub(crate) hops: u32,
    pub(crate) attempts: u32,
    pub(crate) numeric_mode: bool,
    pub(crate) avoid: BTreeSet<u64>,
}

/// Result of probing one forwarding candidate.
enum Probe {
    /// The peer answered with (load, capacity).
    Report(u64, u64),
    /// No such peer; the simulator scores unknowns as load 0 capacity 1.
    Unknown,
    /// A partition hides the peer; it cannot be considered this hop.
    Unreachable,
}

/// One live DHT node: Chord geometry replica, elastic routing table,
/// single-server queue, and the ERT adaptation loop — all driven
/// through a [`Transport`].
#[derive(Debug)]
pub struct WireNode {
    pub(crate) id: u64,
    bits: u8,
    pub(crate) raw_capacity: f64,
    pub(crate) capacity_eval: u32,
    pub(crate) d_max: u32,
    geometry: ChordGeometry,
    members: BTreeSet<u64>,
    pub(crate) table: ElasticTable<u16, u64>,
    queue: VecDeque<LookupState>,
    in_service: Option<LookupState>,
    pub(crate) period_load: u64,
    pub(crate) total_received: u64,
    pub(crate) max_congestion: f64,
    pub(crate) heavy_encounters: u64,
    decide: SimRng,
    build_rng: SimRng,
    ert: ErtParams,
    light: SimDuration,
    heavy: SimDuration,
    max_hops: u32,
    protocol: MiniProtocol,
    adapt_round: u32,
    stabilize_round: u32,
}

impl WireNode {
    /// Creates a node with ring id `id` and an initial membership view.
    /// `capacity_eval` is the evaluated capacity (`max_indegree` over
    /// the normalized capacity), computed by whoever knows the full
    /// capacity distribution.
    pub fn new(
        id: u64,
        bits: u8,
        view: &[u64],
        raw_capacity: f64,
        capacity_eval: u32,
        cfg: &MiniDhtConfig,
        protocol: MiniProtocol,
    ) -> WireNode {
        let d_max = match protocol {
            MiniProtocol::Classic => u32::MAX >> 8,
            MiniProtocol::ElasticErt => capacity_eval,
        };
        let mut members: BTreeSet<u64> = view.iter().copied().collect();
        members.insert(id);
        let member_list: Vec<u64> = members.iter().copied().collect();
        WireNode {
            id,
            bits,
            raw_capacity,
            capacity_eval,
            d_max,
            geometry: ChordGeometry::from_members(bits, &member_list),
            members,
            table: ElasticTable::new(),
            queue: VecDeque::new(),
            in_service: None,
            period_load: 0,
            total_received: 0,
            max_congestion: 0.0,
            heavy_encounters: 0,
            decide: SimRng::seed_from(cfg.seed ^ id).fork("decide"),
            build_rng: SimRng::seed_from(cfg.seed ^ id),
            ert: cfg.ert,
            light: cfg.light_service,
            heavy: cfg.heavy_service,
            max_hops: cfg.max_hops,
            protocol,
            adapt_round: 0,
            stabilize_round: 0,
        }
    }

    /// Ring id of this node.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Current backward-finger count.
    pub fn indegree(&self) -> u32 {
        self.table.indegree() as u32
    }

    /// Current adaptive indegree bound.
    pub fn d_max(&self) -> u32 {
        self.d_max
    }

    /// Sorted membership view.
    pub fn members_view(&self) -> Vec<u64> {
        self.members.iter().copied().collect()
    }

    /// The node's geometry replica (rebuilt from the membership view).
    pub fn geometry(&self) -> &ChordGeometry {
        &self.geometry
    }

    fn load(&self) -> usize {
        self.queue.len() + usize::from(self.in_service.is_some())
    }

    fn is_heavy(&self) -> bool {
        self.load() > self.capacity_eval as usize
    }

    fn spare(&self) -> i64 {
        self.d_max as i64 - self.table.indegree() as i64
    }

    fn load_report(&self, token: u64) -> Message {
        Message::LoadReport {
            token,
            load: self.load() as u64,
            capacity: self.capacity_eval as u64,
            indegree: self.table.indegree() as u32,
            spare: self.spare(),
        }
    }

    /// Canonical routing-state fingerprint, formatted exactly like
    /// `MiniDht::table_fingerprints` so oracle comparisons are string
    /// equality.
    pub fn fingerprint(&self) -> String {
        let out: Vec<String> = self
            .table
            .occupied_slots()
            .map(|s| {
                let ids: Vec<String> = self.table.outlinks(s).iter().map(u64::to_string).collect();
                format!("{s}:{}", ids.join(","))
            })
            .collect();
        let mem: Vec<String> = self
            .table
            .occupied_slots()
            .filter_map(|s| self.table.memory(s).map(|m| format!("{s}:{m}")))
            .collect();
        let back: Vec<String> = self
            .table
            .backward_fingers()
            .iter()
            .map(u64::to_string)
            .collect();
        format!(
            "id={};dmax={};out=[{}];mem=[{}];back=[{}]",
            self.id,
            self.d_max,
            out.join("|"),
            mem.join("|"),
            back.join(",")
        )
    }

    fn rebuild_geometry(&mut self) {
        let member_list: Vec<u64> = self.members.iter().copied().collect();
        self.geometry = ChordGeometry::from_members(self.bits, &member_list);
    }

    fn merge_view(&mut self, others: &[u64]) -> bool {
        let before = self.members.len();
        self.members.extend(others.iter().copied());
        let grew = self.members.len() != before;
        if grew {
            self.rebuild_geometry();
        }
        grew
    }

    // ---- membership ----------------------------------------------------

    /// Joins the overlay through `bootstrap`: announces ourselves and
    /// merges the bootstrap's membership view from the reply.
    ///
    /// # Errors
    ///
    /// Fails when the bootstrap is unreachable or answers garbage.
    pub fn join_via(&mut self, t: &mut dyn Transport, bootstrap: u64) -> Result<(), NodeError> {
        let view = self.members_view();
        let reply = t.request(
            bootstrap,
            &encode(&Message::Join {
                id: self.id,
                members: view,
            }),
        )?;
        match decode(&reply)? {
            Message::Join { members, .. } | Message::Stabilize { members, .. } => {
                self.merge_view(&members);
                Ok(())
            }
            other => Err(NodeError::Protocol(format!(
                "join reply carried unexpected message {other:?}"
            ))),
        }
    }

    /// One stabilize round: exchange membership views with every peer in
    /// the current view (sorted order), merging each reply. Returns
    /// whether the view grew — `false` from every node means the
    /// cluster has reached its gossip fixpoint.
    ///
    /// # Errors
    ///
    /// Fails on peer-side protocol violations; unreachable peers are
    /// skipped.
    pub fn stabilize_once(&mut self, t: &mut dyn Transport) -> Result<bool, NodeError> {
        let round = self.stabilize_round;
        self.stabilize_round += 1;
        let peers = self.members_view();
        let mut grew = false;
        for peer in peers {
            if peer == self.id {
                continue;
            }
            let reply = match t.request(
                peer,
                &encode(&Message::Stabilize {
                    round,
                    members: self.members_view(),
                }),
            ) {
                Ok(bytes) => bytes,
                Err(TransportError::UnknownPeer(_) | TransportError::Partitioned { .. }) => {
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            match decode(&reply)? {
                Message::Stabilize { members, .. } | Message::Join { members, .. } => {
                    grew |= self.merge_view(&members);
                }
                other => {
                    return Err(NodeError::Protocol(format!(
                        "stabilize reply carried unexpected message {other:?}"
                    )))
                }
            }
        }
        Ok(grew)
    }

    /// Announces a graceful departure to every peer in the view.
    ///
    /// # Errors
    ///
    /// Only local send failures surface; the datagram may be lost.
    pub fn announce_leave(&mut self, t: &mut dyn Transport) -> Result<(), NodeError> {
        let frame = encode(&Message::Leave { id: self.id });
        for peer in self.members_view() {
            if peer != self.id {
                t.send(peer, &frame)?;
            }
        }
        Ok(())
    }

    // ---- link construction ---------------------------------------------

    /// Builds the routing table over the wire, replicating the
    /// simulator's `build_table` exactly: classic picks for structural
    /// slots, spare-indegree-restricted random picks (from the private
    /// build stream) for elastic slots, then indegree expansion to the
    /// `β`-target.
    ///
    /// # Errors
    ///
    /// Propagates peer protocol violations; unreachable candidates are
    /// skipped exactly where the simulator's directory returns its
    /// unknown-peer defaults.
    pub fn build_links(&mut self, t: &mut dyn Transport) -> Result<(), NodeError> {
        match self.protocol {
            MiniProtocol::Classic => {
                for (slot, members) in self.geometry.table_slots(self.id) {
                    if let Some(pick) = self.geometry.classic_pick(self.id, slot, &members) {
                        if !self.table.outlinks(slot).contains(&pick) {
                            self.add_link(t, slot, pick)?;
                        }
                    }
                }
            }
            MiniProtocol::ElasticErt => {
                for (slot, members) in self.geometry.table_slots(self.id) {
                    let pick = if self.geometry.is_structural(slot) {
                        self.geometry.classic_pick(self.id, slot, &members)
                    } else {
                        let mut eligible: Vec<u64> = Vec::new();
                        for c in members {
                            if self.spare_of(t, c)? >= 1 {
                                eligible.push(c);
                            }
                        }
                        self.build_rng.choose(&eligible).copied()
                    };
                    if let Some(pick) = pick {
                        if !self.table.outlinks(slot).contains(&pick) {
                            self.add_link(t, slot, pick)?;
                        }
                    }
                }
                let target = initial_indegree_target(&self.ert, self.d_max);
                self.expand_indegree(t, target)?;
            }
        }
        Ok(())
    }

    fn add_link(&mut self, t: &mut dyn Transport, slot: u16, pick: u64) -> Result<(), NodeError> {
        self.table.add_outlink(slot, pick);
        if !self.geometry.is_structural(slot) {
            match t.request(
                pick,
                &encode(&Message::AdaptIndegree {
                    from: self.id,
                    slot,
                    op: AdaptOp::AddBackward,
                }),
            ) {
                Ok(_) | Err(TransportError::UnknownPeer(_)) => {}
                Err(TransportError::Partitioned { .. }) => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Remote spare indegree, as the simulator's directory reports it:
    /// unknown or unreachable peers count as 0 (never eligible).
    fn spare_of(&mut self, t: &mut dyn Transport, peer: u64) -> Result<i64, NodeError> {
        match t.request(peer, &encode(&Message::ProbeLoad { token: 0 })) {
            Ok(bytes) => match decode(&bytes)? {
                Message::LoadReport { spare, .. } => Ok(spare),
                other => Err(NodeError::Protocol(format!(
                    "probe reply carried unexpected message {other:?}"
                ))),
            },
            Err(TransportError::UnknownPeer(_) | TransportError::Partitioned { .. }) => Ok(0),
            Err(e) => Err(e.into()),
        }
    }

    /// Wire mirror of `ert_core::expand_indegree`: walk the geometry's
    /// inlink candidates, querying each holder for an existing link and
    /// asking it to add one, until the indegree target is met. The loop
    /// body is intentionally the same shape as the shared-memory
    /// version; the differential oracle pins the equivalence.
    fn expand_indegree(&mut self, t: &mut dyn Transport, target: u32) -> Result<u32, NodeError> {
        let mut gained = 0;
        if self.indegree() >= target {
            return Ok(gained);
        }
        for (slot, cand) in self.geometry.inlink_candidates(self.id) {
            if self.indegree() >= target {
                break;
            }
            if cand == self.id {
                continue;
            }
            let has = match t.request(
                cand,
                &encode(&Message::AdaptIndegree {
                    from: self.id,
                    slot,
                    op: AdaptOp::QueryOutlink,
                }),
            ) {
                Ok(bytes) => match decode(&bytes)? {
                    Message::LoadReport { load, .. } => load != 0,
                    other => {
                        return Err(NodeError::Protocol(format!(
                            "query-outlink reply carried unexpected message {other:?}"
                        )))
                    }
                },
                Err(TransportError::UnknownPeer(_) | TransportError::Partitioned { .. }) => {
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            if has {
                continue;
            }
            match t.request(
                cand,
                &encode(&Message::AdaptIndegree {
                    from: self.id,
                    slot,
                    op: AdaptOp::AddOutlink,
                }),
            ) {
                Ok(_) => {}
                Err(TransportError::UnknownPeer(_) | TransportError::Partitioned { .. }) => {
                    continue;
                }
                Err(e) => return Err(e.into()),
            }
            self.table.add_backward(cand);
            gained += 1;
        }
        Ok(gained)
    }

    // ---- datagram lane -------------------------------------------------

    /// Handles one datagram frame (`Lookup` or `Leave`).
    ///
    /// # Errors
    ///
    /// Fails on undecodable frames or messages that do not belong on
    /// the datagram lane.
    pub fn on_frame(&mut self, t: &mut dyn Transport, frame: &[u8]) -> Result<(), NodeError> {
        match decode(frame)? {
            Message::Lookup {
                query,
                key,
                hops,
                attempts,
                flags,
                avoid,
            } => {
                let st = LookupState {
                    query,
                    key,
                    hops,
                    attempts,
                    numeric_mode: flags & 1 != 0,
                    avoid: avoid.into_iter().collect(),
                };
                self.on_lookup(t, st);
                Ok(())
            }
            Message::Leave { id } => {
                if self.members.remove(&id) {
                    self.table.purge_peer(id);
                    self.rebuild_geometry();
                }
                Ok(())
            }
            other => Err(NodeError::Protocol(format!(
                "message does not belong on the datagram lane: {other:?}"
            ))),
        }
    }

    /// Lookup arrival: the simulator's `on_arrive`, verbatim — heavy
    /// accounting, then service-or-queue, then the congestion high-water
    /// mark.
    fn on_lookup(&mut self, t: &mut dyn Transport, st: LookupState) {
        if self.is_heavy() {
            self.heavy_encounters += 1;
        }
        self.total_received += 1;
        self.period_load += 1;
        if self.in_service.is_none() {
            self.start_service(t, st);
        } else {
            self.queue.push_back(st);
        }
        let g = self.load() as f64 / self.capacity_eval as f64;
        if g > self.max_congestion {
            self.max_congestion = g;
        }
    }

    fn start_service(&mut self, t: &mut dyn Transport, st: LookupState) {
        let query = st.query;
        self.in_service = Some(st);
        let service = if self.is_heavy() {
            self.heavy
        } else {
            self.light
        };
        t.timer(service, TimerKind::ServiceDone { query });
    }

    // ---- RPC lane ------------------------------------------------------

    /// Handles one reliable RPC and returns the encoded reply. Pure
    /// local-state handler: it never issues transport calls, so nested
    /// RPC deadlock is impossible by construction.
    ///
    /// # Errors
    ///
    /// Fails on undecodable frames or messages that do not belong on
    /// the RPC lane.
    pub fn on_request(&mut self, frame: &[u8]) -> Result<Vec<u8>, NodeError> {
        match decode(frame)? {
            Message::ProbeLoad { token } => Ok(encode(&self.load_report(token))),
            Message::AdaptIndegree { from, slot, op } => {
                let reply = match op {
                    AdaptOp::QueryOutlink => {
                        let has = self.table.outlinks(slot).contains(&from);
                        Message::LoadReport {
                            token: u64::from(has),
                            load: u64::from(has),
                            capacity: self.capacity_eval as u64,
                            indegree: self.table.indegree() as u32,
                            spare: self.spare(),
                        }
                    }
                    AdaptOp::AddOutlink => {
                        self.table.add_outlink(slot, from);
                        self.load_report(0)
                    }
                    AdaptOp::DropOutlinks => {
                        let slots: Vec<u16> = self.table.occupied_slots().collect();
                        for s in slots {
                            self.table.remove_outlink(s, from);
                        }
                        self.load_report(0)
                    }
                    AdaptOp::AddBackward => {
                        self.table.add_backward(from);
                        self.load_report(0)
                    }
                };
                Ok(encode(&reply))
            }
            Message::Join { id, members } => {
                self.members.insert(id);
                self.merge_view(&members);
                self.rebuild_geometry();
                Ok(encode(&Message::Join {
                    id: self.id,
                    members: self.members_view(),
                }))
            }
            Message::Stabilize { round, members } => {
                self.merge_view(&members);
                Ok(encode(&Message::Stabilize {
                    round,
                    members: self.members_view(),
                }))
            }
            other => Err(NodeError::Protocol(format!(
                "message does not belong on the RPC lane: {other:?}"
            ))),
        }
    }

    // ---- timers --------------------------------------------------------

    /// Handles a timer callback. `AdaptTick` returns the adaptation
    /// outcome so the transport owner can record the trace.
    ///
    /// # Errors
    ///
    /// Propagates forwarding/adaptation wire failures.
    pub fn on_timer(
        &mut self,
        t: &mut dyn Transport,
        kind: TimerKind,
    ) -> Result<Option<AdaptTrace>, NodeError> {
        match kind {
            TimerKind::ServiceDone { query } => {
                if self.in_service.as_ref().map(|s| s.query) != Some(query) {
                    return Ok(None);
                }
                let Some(st) = self.in_service.take() else {
                    return Ok(None);
                };
                // Start the next service *before* forwarding, exactly as
                // the simulator schedules the next Done before the
                // forwarded Arrive — the (time, seq) merge key preserves
                // the relative order.
                if let Some(next) = self.queue.pop_front() {
                    self.start_service(t, next);
                }
                if self.geometry.owner(st.key) == Some(self.id) {
                    self.reply(t, st.query, LookupStatus::Found, self.id, st.hops)?;
                } else {
                    self.forward(t, st)?;
                }
                Ok(None)
            }
            TimerKind::AdaptTick => self.adapt(t).map(Some),
        }
    }

    fn reply(
        &mut self,
        t: &mut dyn Transport,
        query: u64,
        status: LookupStatus,
        owner: u64,
        hops: u32,
    ) -> Result<(), NodeError> {
        t.send(
            CLIENT_ADDR,
            &encode(&Message::LookupReply {
                query,
                status,
                owner,
                hops,
            }),
        )?;
        Ok(())
    }

    fn probe(&mut self, t: &mut dyn Transport, peer: u64, token: u64) -> Result<Probe, NodeError> {
        match t.request(peer, &encode(&Message::ProbeLoad { token })) {
            Ok(bytes) => match decode(&bytes)? {
                Message::LoadReport { load, capacity, .. } => Ok(Probe::Report(load, capacity)),
                other => Err(NodeError::Protocol(format!(
                    "probe reply carried unexpected message {other:?}"
                ))),
            },
            Err(TransportError::UnknownPeer(_)) => Ok(Probe::Unknown),
            Err(TransportError::Partitioned { .. }) => Ok(Probe::Unreachable),
            Err(e) => Err(e.into()),
        }
    }

    /// The simulator's `forward`, as wire exchanges: hop-limit check,
    /// owner resolution on the geometry replica, candidate discovery
    /// from the local table, per-candidate load probes, then
    /// `choose_next_b` on the private decide stream.
    fn forward(&mut self, t: &mut dyn Transport, mut st: LookupState) -> Result<(), NodeError> {
        if st.hops >= self.max_hops {
            return self.reply(t, st.query, LookupStatus::Dropped, 0, st.hops);
        }
        let Some(owner) = self.geometry.owner(st.key) else {
            return self.reply(t, st.query, LookupStatus::Failed, 0, st.hops);
        };
        let hc =
            self.geometry
                .hop_candidates(self.id, owner, &mut self.table, &mut st.numeric_mode);
        let mut cands: Vec<Candidate<u64>> = Vec::with_capacity(hc.ids.len());
        for &c in &hc.ids {
            let (load, capacity) = match self.probe(t, c, st.query)? {
                Probe::Report(load, capacity) => (load as f64, capacity as f64),
                Probe::Unknown => (0.0, 1.0),
                Probe::Unreachable => continue,
            };
            cands.push(Candidate {
                id: c,
                load,
                capacity,
                logical_distance: self.geometry.metric(c, owner),
                physical_distance: 0.0,
            });
        }
        let policy = match self.protocol {
            MiniProtocol::Classic => ForwardPolicy::Deterministic,
            MiniProtocol::ElasticErt => ForwardPolicy::TwoChoice {
                topology_aware: true,
                use_memory: true,
            },
        };
        let memory = self.table.memory(hc.slot);
        let Some(choice) = choose_next_b(
            policy,
            &cands,
            memory,
            &st.avoid,
            self.ert.gamma_l,
            self.ert.probe_width,
            &mut self.decide,
        ) else {
            // Every candidate was partition-hidden: terminal failure
            // rather than the simulator's panic (the sim never gets
            // here because its candidate list is never emptied).
            return self.reply(t, st.query, LookupStatus::Failed, 0, st.hops);
        };
        for o in &choice.newly_overloaded {
            st.avoid.insert(*o);
        }
        if let Some(mem) = choice.new_memory {
            if policy != ForwardPolicy::Deterministic {
                self.table.set_memory(hc.slot, mem);
            }
        }
        st.hops += 1;
        let frame = encode(&Message::Lookup {
            query: st.query,
            key: st.key,
            hops: st.hops,
            attempts: st.attempts,
            flags: u8::from(st.numeric_mode),
            avoid: st.avoid.iter().copied().collect(),
        });
        t.send(choice.next, &frame)?;
        Ok(())
    }

    /// One adaptation round for this node: the simulator's per-node
    /// `on_adapt` body with the victim/candidate operations issued as
    /// `AdaptIndegree` RPCs.
    fn adapt(&mut self, t: &mut dyn Transport) -> Result<AdaptTrace, NodeError> {
        let load = self.period_load as f64;
        let capacity = self.capacity_eval as f64;
        let mut delta: i64 = 0;
        match adaptation_action(load, capacity, &self.ert) {
            AdaptAction::Keep => {}
            AdaptAction::Shed(x) => {
                let x = x.min(self.table.indegree() as u32);
                delta = -(x as i64);
                let victims: Vec<u64> = self
                    .table
                    .backward_fingers()
                    .iter()
                    .rev()
                    .take(x as usize)
                    .copied()
                    .collect();
                for v in victims {
                    match t.request(
                        v,
                        &encode(&Message::AdaptIndegree {
                            from: self.id,
                            slot: 0,
                            op: AdaptOp::DropOutlinks,
                        }),
                    ) {
                        Ok(_)
                        | Err(
                            TransportError::UnknownPeer(_) | TransportError::Partitioned { .. },
                        ) => {}
                        Err(e) => return Err(e.into()),
                    }
                    self.table.remove_backward(v);
                }
                self.d_max = self.d_max.saturating_sub(x).max(1);
            }
            AdaptAction::Grow(x) => {
                delta = x as i64;
                let cap = 8 * self.capacity_eval.max(8);
                self.d_max = (self.d_max + x).min(cap);
                let target = (self.table.indegree() as u32 + x).min(self.d_max);
                self.expand_indegree(t, target)?;
            }
        }
        self.period_load = 0;
        let trace = AdaptTrace {
            round: self.adapt_round,
            node: self.id,
            delta,
            d_max: self.d_max,
        };
        self.adapt_round += 1;
        Ok(trace)
    }
}
