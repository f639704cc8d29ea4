//! `ert-node` — a live wire-protocol node for the elastic routing
//! table, with the deterministic simulator as its differential oracle.
//!
//! The node runs `ert-minidht`'s per-node protocol (`ert_minidht::node`:
//! table build, forwarding, adaptation — the code `MiniDht` runs) over
//! an RPC-backed directory, and speaks a versioned, length-prefixed
//! frame protocol ([`codec`]) over a pluggable [`Transport`]: join,
//! stabilize, lookup forwarding, load probing and indegree adaptation
//! are wire exchanges between peers instead of method calls on one
//! struct.
//!
//! Two transports implement the trait:
//!
//! * [`WireCluster`] — a deterministic in-memory switch keyed on
//!   `(time, seq)` with `ert-faults` loss/partition hooks. This is the
//!   test harness and the half of the differential oracle that runs
//!   live nodes; `ert-testkit`'s `diff::wire` module drives it against
//!   `MiniDht` and asserts identical hop-by-hop routing decisions and
//!   indegree-adaptation sequences. With one copy of the algorithms,
//!   that oracle checks the codec, the two lanes, message order and
//!   fault adjudication.
//! * a UDP event loop (feature `udp`, module [`udp`]) behind the
//!   `ert-node` binary, for running a real process-per-node cluster.
//!
//! Determinism rules inherited from the workspace: no wall clock in
//! library code (the binary driver feeds elapsed time in), no
//! `HashMap`/`HashSet` (iteration-order hazards), and the codec never
//! panics on untrusted bytes — malformed input is a typed
//! [`CodecError`], enforced by `ert-lint`'s panic-path rule and the
//! bit-flip fuzz suite in `tests/codec_props.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod codec;
pub mod node;
pub mod transport;
#[cfg(feature = "udp")]
pub mod udp;

pub use cluster::{WireCluster, WireReport};
pub use codec::{decode, encode, AdaptOp, CodecError, LookupStatus, Message};
pub use node::{NodeError, WireNode};
pub use transport::{TimerKind, Transport, TransportError, CLIENT_ADDR};
