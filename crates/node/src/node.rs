//! The single-threaded live node.
//!
//! A [`WireNode`] runs the per-node protocol of [`ert_minidht::node`]
//! (table build with Algorithm 1 expansion, Algorithm 4 forwarding,
//! Algorithm 3 adaptation) — the code `MiniDht` runs for its simulated
//! nodes — over an RPC-backed [`NodeDirectory`]: candidate loads and
//! spare indegree arrive as `ProbeLoad`/`LoadReport` RPCs, link surgery
//! runs as `AdaptIndegree` ops, and lookups travel as `Lookup`
//! datagrams. This module keeps only membership, frame dispatch on the
//! two lanes, the RPC server half and that directory adapter; see
//! DESIGN.md "Wire Protocol & Live Node".
//!
//! Determinism: the node's only randomness is two private streams
//! derived from `seed ^ id` — the build stream (elastic slot picks at
//! join) and the `"decide"` fork (forwarding probes). It never reads a
//! clock (time comes from [`Transport::now`]) and never iterates an
//! unordered container.

use std::collections::BTreeSet;
use std::fmt;

use ert_core::Directory;
use ert_minidht::node::{self, Hop, NodeCore, NodeDirectory, Probe, Route};
use ert_minidht::{AdaptTrace, ChordGeometry, Geometry, MiniDhtConfig, MiniProtocol};
use ert_sim::SimRng;

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
    pub(crate) attempts: u32,
    pub(crate) route: Route,
}

/// A peer's answer to one RPC.
enum Reply {
    /// The peer's `LoadReport` (`load`, `capacity`, `indegree`, `spare`).
    Report(u64, u64, u32, i64),
    /// No such peer.
    Unknown,
    /// A partition separates us from the peer.
    Unreachable,
}

/// The running node's [`NodeDirectory`]: its own id is answered from
/// its own state, every other id by an RPC. Unknown or partitioned
/// peers read as the simulator's unknown-peer defaults (no indegree, no
/// spare), and an unreachable inlink candidate as already linked, so
/// Algorithm 1 skips it without a second request.
struct Rpc<'a> {
    core: &'a mut NodeCore<LookupState>,
    geometry: &'a ChordGeometry,
    t: &'a mut dyn Transport,
}

impl Rpc<'_> {
    fn ask(&mut self, peer: u64, msg: &Message) -> Result<Reply, NodeError> {
        match self.t.request(peer, &encode(msg)) {
            Ok(bytes) => match decode(&bytes)? {
                Message::LoadReport {
                    load,
                    capacity,
                    indegree,
                    spare,
                    ..
                } => Ok(Reply::Report(load, capacity, indegree, spare)),
                other => Err(NodeError::Protocol(format!(
                    "reply to {msg:?} carried unexpected message {other:?}"
                ))),
            },
            Err(TransportError::UnknownPeer(_)) => Ok(Reply::Unknown),
            Err(TransportError::Partitioned { .. }) => Ok(Reply::Unreachable),
            Err(e) => Err(e.into()),
        }
    }

    fn ask_op(&mut self, peer: u64, from: u64, slot: u16, op: AdaptOp) -> Result<Reply, NodeError> {
        self.ask(peer, &Message::AdaptIndegree { from, slot, op })
    }

    /// `(indegree, spare)` of `node`.
    fn degrees(&mut self, node: u64) -> Result<(u32, i64), NodeError> {
        if node == self.core.id {
            return Ok((self.core.table.indegree() as u32, self.core.spare()));
        }
        Ok(match self.ask(node, &Message::ProbeLoad { token: 0 })? {
            Reply::Report(_, _, indegree, spare) => (indegree, spare),
            Reply::Unknown | Reply::Unreachable => (0, 0),
        })
    }
}

impl Directory for Rpc<'_> {
    type Id = u64;
    type Slot = u16;
    type Error = NodeError;

    fn table_slots(&self, node: u64) -> Vec<(u16, Vec<u64>)> {
        self.geometry.table_slots(node)
    }

    fn inlink_candidates(&self, node: u64) -> Vec<(u16, u64)> {
        self.geometry.inlink_candidates(node)
    }

    fn spare_indegree(&mut self, node: u64) -> Result<i64, NodeError> {
        Ok(self.degrees(node)?.1)
    }

    fn indegree(&mut self, node: u64) -> Result<u32, NodeError> {
        Ok(self.degrees(node)?.0)
    }

    fn has_link(&mut self, from: u64, slot: u16, to: u64) -> Result<bool, NodeError> {
        if from == self.core.id {
            return Ok(self.core.table.outlinks(slot).contains(&to));
        }
        let reply = self.ask_op(from, to, slot, AdaptOp::QueryOutlink)?;
        Ok(!matches!(reply, Reply::Report(0, ..)))
    }

    fn add_link(&mut self, from: u64, slot: u16, to: u64) -> Result<(), NodeError> {
        let me = self.core.id;
        let elastic = !self.geometry.is_structural(slot);
        if from == me {
            self.core.table.add_outlink(slot, to);
            if elastic {
                self.ask_op(to, me, slot, AdaptOp::AddBackward)?;
            }
        } else if to == me {
            let reply = self.ask_op(from, me, slot, AdaptOp::AddOutlink)?;
            if elastic && matches!(reply, Reply::Report(..)) {
                self.core.table.add_backward(from);
            }
        } else {
            return Err(NodeError::Protocol(format!(
                "{me} cannot link {from} to {to}"
            )));
        }
        Ok(())
    }
}

impl NodeDirectory for Rpc<'_> {
    type Queued = LookupState;

    fn me(&mut self) -> &mut NodeCore<LookupState> {
        self.core
    }

    fn probe_load(&mut self, peer: u64, token: u64) -> Result<Probe, NodeError> {
        Ok(match self.ask(peer, &Message::ProbeLoad { token })? {
            Reply::Report(load, capacity, ..) => Probe::Report { load, capacity },
            Reply::Unknown => Probe::Unknown,
            Reply::Unreachable => Probe::Unreachable,
        })
    }

    fn drop_links(&mut self, victim: u64) -> Result<(), NodeError> {
        let me = self.core.id;
        self.ask_op(victim, me, 0, AdaptOp::DropOutlinks)?;
        Ok(())
    }
}

/// One live DHT node: Chord geometry replica, the shared per-node
/// protocol state, and the wire plumbing — all driven through a
/// [`Transport`].
#[derive(Debug)]
pub struct WireNode {
    pub(crate) core: NodeCore<LookupState>,
    bits: u8,
    pub(crate) raw_capacity: f64,
    geometry: ChordGeometry,
    members: BTreeSet<u64>,
    decide: SimRng,
    build_rng: SimRng,
    cfg: MiniDhtConfig,
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
        let mut members: BTreeSet<u64> = view.iter().copied().collect();
        members.insert(id);
        let member_list: Vec<u64> = members.iter().copied().collect();
        WireNode {
            core: NodeCore::new(id, capacity_eval, protocol),
            bits,
            raw_capacity,
            geometry: ChordGeometry::from_members(bits, &member_list),
            members,
            decide: SimRng::seed_from(cfg.seed ^ id).fork("decide"),
            build_rng: SimRng::seed_from(cfg.seed ^ id),
            cfg: *cfg,
            adapt_round: 0,
            stabilize_round: 0,
        }
    }

    /// Ring id of this node.
    pub fn id(&self) -> u64 {
        self.core.id
    }

    /// Current backward-finger count.
    pub fn indegree(&self) -> u32 {
        self.core.table.indegree() as u32
    }

    /// Sorted membership view.
    pub fn members_view(&self) -> Vec<u64> {
        self.members.iter().copied().collect()
    }

    /// The node's geometry replica (rebuilt from the membership view).
    pub fn geometry(&self) -> &ChordGeometry {
        &self.geometry
    }

    fn load_report(&self, token: u64) -> Message {
        Message::LoadReport {
            token,
            load: self.core.load() as u64,
            capacity: u64::from(self.core.capacity_eval),
            indegree: self.indegree(),
            spare: self.core.spare(),
        }
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

    /// Merges the membership view a `Join`/`Stabilize` reply carries.
    fn merge_reply(&mut self, reply: &[u8]) -> Result<bool, NodeError> {
        match decode(reply)? {
            Message::Join { members, .. } | Message::Stabilize { members, .. } => {
                Ok(self.merge_view(&members))
            }
            other => Err(NodeError::Protocol(format!(
                "membership reply carried unexpected message {other:?}"
            ))),
        }
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
                id: self.core.id,
                members: view,
            }),
        )?;
        self.merge_reply(&reply)?;
        Ok(())
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
            if peer == self.core.id {
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
            grew |= self.merge_reply(&reply)?;
        }
        Ok(grew)
    }

    /// Announces a graceful departure to every peer in the view.
    ///
    /// # Errors
    ///
    /// Only local send failures surface; the datagram may be lost.
    pub fn announce_leave(&mut self, t: &mut dyn Transport) -> Result<(), NodeError> {
        let frame = encode(&Message::Leave { id: self.core.id });
        for peer in self.members_view() {
            if peer != self.core.id {
                t.send(peer, &frame)?;
            }
        }
        Ok(())
    }

    // ---- link construction ---------------------------------------------

    /// Builds the routing table over the wire with the shared
    /// [`node::build_links`]: classic picks for structural slots,
    /// spare-indegree-restricted random picks (from the private build
    /// stream) for elastic slots, then indegree expansion to the
    /// `β`-target.
    ///
    /// # Errors
    ///
    /// Propagates peer protocol violations; unreachable candidates are
    /// skipped exactly where the simulator's directory returns its
    /// unknown-peer defaults.
    pub fn build_links(&mut self, t: &mut dyn Transport) -> Result<(), NodeError> {
        let mut rpc = Rpc {
            core: &mut self.core,
            geometry: &self.geometry,
            t,
        };
        node::build_links(&mut rpc, &self.geometry, &self.cfg, &mut self.build_rng)
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
                    attempts,
                    route: Route {
                        key,
                        hops,
                        numeric_mode: flags & 1 != 0,
                        avoid: avoid.into_iter().collect(),
                    },
                };
                if self.core.arrive(st) {
                    self.start_service_timer(t, query);
                }
                Ok(())
            }
            Message::Leave { id } => {
                if self.members.remove(&id) {
                    self.core.table.purge_peer(id);
                    self.rebuild_geometry();
                }
                Ok(())
            }
            other => Err(NodeError::Protocol(format!(
                "message does not belong on the datagram lane: {other:?}"
            ))),
        }
    }

    fn start_service_timer(&self, t: &mut dyn Transport, query: u64) {
        t.timer(
            self.core.service_time(&self.cfg),
            TimerKind::ServiceDone { query },
        );
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
                let table = &mut self.core.table;
                let reply = match op {
                    AdaptOp::QueryOutlink => {
                        let has = u64::from(table.outlinks(slot).contains(&from));
                        Message::LoadReport {
                            token: has,
                            load: has,
                            capacity: u64::from(self.core.capacity_eval),
                            indegree: self.indegree(),
                            spare: self.core.spare(),
                        }
                    }
                    AdaptOp::AddOutlink => {
                        table.add_outlink(slot, from);
                        self.load_report(0)
                    }
                    AdaptOp::DropOutlinks => {
                        self.core.drop_outlinks_to(from);
                        self.load_report(0)
                    }
                    AdaptOp::AddBackward => {
                        table.add_backward(from);
                        self.load_report(0)
                    }
                };
                Ok(encode(&reply))
            }
            Message::Join { id, mut members } => {
                members.push(id);
                self.merge_view(&members);
                Ok(encode(&Message::Join {
                    id: self.core.id,
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
                if self.core.in_service.as_ref().map(|s| s.query) != Some(query) {
                    return Ok(None);
                }
                let Some(st) = self.core.finish_service() else {
                    return Ok(None);
                };
                // Start the next service *before* forwarding, exactly as
                // the simulator schedules the next Done before the
                // forwarded Arrive — the (time, seq) merge key preserves
                // the relative order.
                if let Some(next) = self.core.in_service.as_ref().map(|s| s.query) {
                    self.start_service_timer(t, next);
                }
                self.forward(t, st)?;
                Ok(None)
            }
            TimerKind::AdaptTick => {
                let mut rpc = Rpc {
                    core: &mut self.core,
                    geometry: &self.geometry,
                    t,
                };
                let trace = node::adapt(&mut rpc, &self.cfg, self.adapt_round)?;
                self.adapt_round += 1;
                Ok(Some(trace))
            }
        }
    }

    /// Routes a served lookup with the shared [`node::hop`] (probes as
    /// RPCs, choices from the private decide stream): sends it on as a
    /// datagram, or answers the client when the step ends it.
    fn forward(&mut self, t: &mut dyn Transport, mut st: LookupState) -> Result<(), NodeError> {
        let mut rpc = Rpc {
            core: &mut self.core,
            geometry: &self.geometry,
            t,
        };
        let hop = node::hop(
            &mut rpc,
            &self.geometry,
            &self.cfg,
            &mut st.route,
            st.query,
            &mut self.decide,
        )?;
        let (status, owner) = match hop {
            Hop::Found => (LookupStatus::Found, self.core.id),
            Hop::Dropped => (LookupStatus::Dropped, 0),
            Hop::Failed => (LookupStatus::Failed, 0),
            Hop::Next(next) => {
                let frame = encode(&Message::Lookup {
                    query: st.query,
                    key: st.route.key,
                    hops: st.route.hops,
                    attempts: st.attempts,
                    flags: u8::from(st.route.numeric_mode),
                    avoid: st.route.avoid.into_iter().collect(),
                });
                t.send(next, &frame)?;
                return Ok(());
            }
        };
        let reply = Message::LookupReply {
            query: st.query,
            status,
            owner,
            hops: st.route.hops,
        };
        t.send(CLIENT_ADDR, &encode(&reply))?;
        Ok(())
    }
}
