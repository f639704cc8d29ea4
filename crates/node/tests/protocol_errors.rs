//! `NodeError::Protocol` paths: peers that answer every RPC with a
//! validly encoded but wrong message. The node runs `ert-minidht`'s
//! shared protocol over an RPC-backed directory, so the first bad reply
//! must surface as an error from table building, forwarding and
//! adaptation alike — never a panic, never a silent default.

use ert_minidht::{ChordGeometry, Geometry, MiniDhtConfig, MiniProtocol};
use ert_node::{encode, Message, NodeError, TimerKind, Transport, TransportError, WireNode};
use ert_sim::{SimDuration, SimRng, SimTime};

const BITS: u8 = 7;

/// Answers every request with `Leave` and counts the requests.
#[derive(Default)]
struct WrongReplies {
    requests: usize,
}

impl Transport for WrongReplies {
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }

    fn send(&mut self, _to: u64, _frame: &[u8]) -> Result<(), TransportError> {
        Ok(())
    }

    fn request(&mut self, to: u64, _frame: &[u8]) -> Result<Vec<u8>, TransportError> {
        self.requests += 1;
        Ok(encode(&Message::Leave { id: to }))
    }

    fn timer(&mut self, _delay: SimDuration, _kind: TimerKind) {}
}

fn node(protocol: MiniProtocol) -> (WireNode, ChordGeometry) {
    let geometry = ChordGeometry::populate(BITS, 24, &mut SimRng::seed_from(9));
    let members = geometry.members();
    let cfg = MiniDhtConfig::defaults(BITS, 9);
    let node = WireNode::new(members[0], BITS, &members, 1.0, 4, &cfg, protocol);
    (node, geometry)
}

fn assert_protocol_error<T: std::fmt::Debug>(out: Result<T, NodeError>, t: &WrongReplies) {
    assert!(
        matches!(out, Err(NodeError::Protocol(_))),
        "expected a protocol error, got {out:?}"
    );
    assert_eq!(t.requests, 1, "the first wrong reply must stop the node");
}

#[test]
fn elastic_build_links_rejects_a_wrong_probe_reply() {
    let (mut node, _) = node(MiniProtocol::ElasticErt);
    let mut t = WrongReplies::default();
    let out = node.build_links(&mut t);
    assert_protocol_error(out, &t);
}

#[test]
fn forwarding_on_service_done_rejects_a_wrong_probe_reply() {
    for protocol in [MiniProtocol::Classic, MiniProtocol::ElasticErt] {
        let (mut node, geometry) = node(protocol);
        let key = (0..1u64 << BITS)
            .find(|&k| geometry.owner(k) != Some(node.id()))
            .expect("some key is owned elsewhere");
        let mut t = WrongReplies::default();
        let lookup = encode(&Message::Lookup {
            query: 0,
            key,
            hops: 0,
            attempts: 0,
            flags: 0,
            avoid: Vec::new(),
        });
        node.on_frame(&mut t, &lookup)
            .expect("lookup enters service");
        assert_eq!(t.requests, 0);
        let out = node.on_timer(&mut t, TimerKind::ServiceDone { query: 0 });
        assert_protocol_error(out, &t);
    }
}

#[test]
fn grow_adapt_tick_rejects_a_wrong_query_outlink_reply() {
    // A node that has served nothing is underloaded: Algorithm 3 grows,
    // and the expansion's first `QueryOutlink` gets the wrong reply.
    let (mut node, _) = node(MiniProtocol::ElasticErt);
    let mut t = WrongReplies::default();
    let out = node.on_timer(&mut t, TimerKind::AdaptTick);
    assert_protocol_error(out, &t);
}
