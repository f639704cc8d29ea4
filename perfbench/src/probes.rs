//! Layer probes: each public call a layer is built from, timed in
//! isolation on the state a workload run left behind.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use ert_core::{choose_next_b, Candidate, Directory, ForwardPolicy};
use ert_network::{CycloidSlot, Network};
use ert_node::{codec, AdaptOp, LookupStatus, Message};
use ert_overlay::CycloidId;
use ert_sim::{Engine, SimDuration, SimRng, SimTime};

/// Minimum host time one probe measures; passes repeat until reached.
const PROBE_SECONDS: f64 = 0.1;
/// Frames in the codec probe's mix.
const CODEC_FRAMES: usize = 10_000;

/// Runs `pass` until [`PROBE_SECONDS`] have elapsed (at least once) and
/// returns the mean host seconds of one pass.
fn time_passes(mut pass: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut passes = 0u32;
    loop {
        pass();
        passes += 1;
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed >= PROBE_SECONDS {
            return elapsed / f64::from(passes);
        }
    }
}

/// Per-call costs of the simulator's layers on a run's end state.
#[derive(Debug, Clone, Copy)]
pub struct SimProbes {
    /// `Directory::inlink_candidates`, µs per live node.
    pub inlink_us_per_call: f64,
    /// Region members returned per `inlink_candidates` call.
    pub inlink_members_per_call: f64,
    /// `CycloidRegistry::owner`, ns per lookup key.
    pub owner_ns_per_call: f64,
    /// `ert_core::choose_next_b`, ns per decision.
    pub choose_ns_per_call: f64,
    /// `ert_sim::Engine` schedule + pop, ns per event.
    pub engine_ns_per_event: f64,
}

/// Probes `net`'s end-state topology. `keys` are the run's linearized
/// lookup keys, `policy` its forwarding policy, `arrivals` its
/// injection times and `events` its engine event count.
pub fn sim_probes(
    net: &Network,
    keys: &[u64],
    policy: ForwardPolicy,
    arrivals: &[SimTime],
    events: u64,
) -> SimProbes {
    let topo = net.topology();
    let live: Vec<CycloidId> = topo.registry.iter().collect();

    let members: usize = live
        .iter()
        .map(|&id| topo.inlink_candidates(id).len())
        .sum();
    let inlink_s = time_passes(|| {
        for &id in &live {
            black_box(topo.inlink_candidates(black_box(id)));
        }
    });

    let key_ids: Vec<CycloidId> = keys.iter().map(|&k| topo.space.from_lin(k)).collect();
    let owner_s = time_passes(|| {
        for &key in &key_ids {
            black_box(topo.registry.owner(black_box(key)));
        }
    });

    let decisions = decision_inputs(net, &key_ids);
    let params = topo.params;
    let no_avoid = BTreeSet::new();
    let mut rng = SimRng::seed_from(0x0c40_05e5);
    let choose_s = time_passes(|| {
        for (cands, memory) in &decisions {
            black_box(choose_next_b(
                policy,
                black_box(cands),
                *memory,
                &no_avoid,
                params.gamma_l,
                params.probe_width,
                &mut rng,
            ));
        }
    });

    let per = |total_s: f64, calls: usize| {
        if calls == 0 {
            0.0
        } else {
            total_s / calls as f64
        }
    };
    SimProbes {
        inlink_us_per_call: per(inlink_s, live.len()) * 1e6,
        inlink_members_per_call: per(members as f64, live.len()),
        owner_ns_per_call: per(owner_s, key_ids.len()) * 1e9,
        choose_ns_per_call: per(choose_s, decisions.len()) * 1e9,
        engine_ns_per_event: engine_ns_per_event(arrivals, events),
    }
}

/// One forwarding decision per filled descending slot of every live
/// node: its real outlink set, each candidate loaded to its host's peak
/// queue of the run, toward one of the run's keys.
fn decision_inputs(
    net: &Network,
    keys: &[CycloidId],
) -> Vec<(Vec<Candidate<CycloidId>>, Option<CycloidId>)> {
    let topo = net.topology();
    let mut out = Vec::new();
    for (i, node) in topo.nodes.iter().filter(|n| n.alive).enumerate() {
        let Some(&key) = keys.get(i % keys.len().max(1)) else {
            break;
        };
        for slot in [CycloidSlot::Cubical, CycloidSlot::Cyclic] {
            let cands: Vec<Candidate<CycloidId>> = node
                .table
                .outlinks(slot)
                .iter()
                .filter_map(|&id| {
                    let host = &topo.hosts[topo.host_of_id(id)?];
                    let capacity = f64::from(host.capacity_eval.max(1));
                    Some(Candidate {
                        id,
                        load: (host.max_congestion * capacity).round(),
                        capacity,
                        logical_distance: topo.logical_metric(id, key),
                        physical_distance: topo.phys_dist(node.id, id),
                    })
                })
                .collect();
            if !cands.is_empty() {
                out.push((cands, node.table.memory(slot)));
            }
        }
    }
    out
}

/// The hold model at the run's scale: the heap starts with every
/// injection (as `Network::run` schedules them), then each of `events`
/// pops reschedules one event a service-time-scale delay later.
fn engine_ns_per_event(arrivals: &[SimTime], events: u64) -> f64 {
    if events == 0 {
        return 0.0;
    }
    let mut rng = SimRng::seed_from(0xe1e0_7e57);
    let delays: Vec<SimDuration> = (0..events)
        .map(|_| SimDuration::from_secs_f64(rng.exp_secs(5.0)))
        .collect();
    let pass_s = time_passes(|| {
        let mut engine: Engine<u64> = Engine::new();
        for (i, &at) in arrivals.iter().enumerate() {
            engine.schedule_at(at, i as u64);
        }
        for &delay in &delays {
            let Some((_, ev)) = engine.pop() else { break };
            engine.schedule_in(delay, black_box(ev));
        }
        black_box(engine.pending());
    });
    pass_s / events as f64 * 1e9
}

/// RPC and lookup traffic of one wire run, the shape of the codec mix.
#[derive(Debug, Clone, Copy)]
pub struct WireTraffic {
    pub probe_rpcs: u64,
    pub adapt_rpcs: u64,
    pub hops: u64,
    pub completed: u64,
}

/// `codec::encode` and `codec::decode`, ns per frame, over a frame mix
/// in the proportions of `traffic`: every probe and adapt RPC is a
/// request plus a `LoadReport` reply, every hop a `Lookup`, every
/// completion a `LookupReply`.
pub fn codec_ns_per_frame(traffic: WireTraffic) -> (f64, f64) {
    let frames = codec_mix(traffic);
    if frames.is_empty() {
        return (0.0, 0.0);
    }
    let encode_s = time_passes(|| {
        for msg in &frames {
            black_box(codec::encode(black_box(msg)));
        }
    });
    let encoded: Vec<Vec<u8>> = frames.iter().map(codec::encode).collect();
    let decode_s = time_passes(|| {
        for frame in &encoded {
            black_box(codec::decode(black_box(frame)).expect("the codec decodes its own frames"));
        }
    });
    let n = frames.len() as f64;
    (encode_s / n * 1e9, decode_s / n * 1e9)
}

fn codec_mix(t: WireTraffic) -> Vec<Message> {
    let weights = [
        t.probe_rpcs,
        t.probe_rpcs + t.adapt_rpcs,
        t.adapt_rpcs,
        t.hops,
        t.completed,
    ];
    let total: u64 = weights.iter().sum();
    if total == 0 {
        return Vec::new();
    }
    let ops = [
        AdaptOp::QueryOutlink,
        AdaptOp::AddOutlink,
        AdaptOp::DropOutlinks,
        AdaptOp::AddBackward,
    ];
    let mut out = Vec::with_capacity(CODEC_FRAMES);
    for (kind, &w) in weights.iter().enumerate() {
        let count = (w as f64 / total as f64 * CODEC_FRAMES as f64).round() as u64;
        for i in 0..count {
            let v = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            out.push(match kind {
                0 => Message::ProbeLoad { token: v },
                1 => Message::LoadReport {
                    token: v,
                    load: i % 7,
                    capacity: 4 + i % 5,
                    indegree: (i % 40) as u32,
                    spare: 3 - (i % 7) as i64,
                },
                2 => Message::AdaptIndegree {
                    from: v >> 52,
                    slot: (i % 12) as u16,
                    op: ops[(i % 4) as usize],
                },
                3 => Message::Lookup {
                    query: i,
                    key: v >> 52,
                    hops: (i % 9) as u32,
                    attempts: 0,
                    flags: 0,
                    avoid: (0..i % 3).map(|a| (v >> 52) + a).collect(),
                },
                _ => Message::LookupReply {
                    query: i,
                    status: LookupStatus::Found,
                    owner: v >> 52,
                    hops: (i % 9) as u32,
                },
            });
        }
    }
    out
}
