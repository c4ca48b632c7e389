//! `wsn-net`: the socket transport for the protocol state machines.
//!
//! The protocol crates (`wsn-core`) talk to the world only through the
//! [`wsn_core::transport::Transport`] seam. The discrete-event
//! simulator is the in-memory implementation; this crate provides the
//! real-socket one, built from `std::net` and threads alone (no async
//! runtime):
//!
//! - [`udp`]: a sharded UDP reactor — reader threads performing
//!   pre-crypto admission control feed per-cluster worker shards over
//!   bounded channels — serving the base station over real sockets.
//! - [`wal`]: the base station's snapshot + write-ahead-log store.
//! - [`intersink`]: the authenticated inter-sink control plane
//!   (failure detection, takeover, failback, replicated revocations).
//! - [`fault`]: the seeded datagram fault shim ([`FaultySocket`]).
//! - [`load`]: mote provisioning and the ARQ load-generator core.
//!
//! Binaries shipped with the crate: `wsn-bs` (a base-station daemon
//! on UDP), `motegen` (a load generator multiplexing 100k+ simulated
//! motes over a bounded socket pool), `net-soak` (a self-contained CI
//! smoke: in-process base station plus generator on 127.0.0.1), and
//! the `crash-soak` / `sink-failover-soak` kill gauntlets.

pub mod fault;
pub mod intersink;
pub mod load;
pub mod udp;
pub mod wal;

pub use fault::{FaultConfig, FaultCounters, FaultEngine, FaultySocket};
pub use intersink::{ControlPlane, ControlPlaneConfig, ControlStats, ControlTiming};
pub use udp::{NetStats, UdpServer, UdpServerConfig};
