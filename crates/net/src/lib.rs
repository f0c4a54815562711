//! # fireledger-net
//!
//! The real-time host for the sans-IO [`fireledger_types::Protocol`] state
//! machines, plus the framing layer its socket transport shares with client
//! RPC.
//!
//! [`RealtimeCluster`] runs one OS thread per node with wall-clock timers
//! over a static full mesh of real `std::net::TcpStream`s on localhost
//! ([`RealtimeCluster::spawn_engine`]), multiplexed by a fixed pool of
//! [`DEFAULT_REACTOR_THREADS`] nonblocking reactor threads (O(n) threads in
//! total, which is what makes n = 32–64 clusters practical on one host).
//! Every message is encoded through the workspace's binary wire format
//! (`docs/WIRE_FORMAT.md`) with length-prefixed framing ([`frame`]).
//!
//! It exists to show that the protocol implementations are genuinely
//! sans-IO — the exact same `FloNode` / `Worker` / baseline code runs under
//! the deterministic simulator and on real sockets, without a line of
//! protocol code changing. The lifecycle a driver uses (submit, crash,
//! pause/resume, kill/restart, deliveries, shutdown) is written once in
//! [`RealtimeCluster`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cluster;
pub mod frame;
mod node_loop;
mod reactor;
pub mod rpc;
mod shim;
mod tcp;

pub use cluster::{RealtimeCluster, TcpCluster};
pub use reactor::{TcpEngine, DEFAULT_REACTOR_THREADS};
pub use rpc::{RpcClient, RpcHandler, RpcServer};

/// Coarse node availability, mirrored out of each node's event loop every
/// iteration. The ingress layer reads it to answer `Syncing`/`Busy` instead
/// of accepting work a catching-up or dead node could lose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeStatus {
    /// Running and accepting work.
    Up,
    /// Catching up through state sync.
    Syncing,
    /// Crashed, paused, or killed.
    Down,
}

impl NodeStatus {
    /// Decodes the loop's atomic encoding (0 up, 1 syncing, everything
    /// else down — unknown values fail safe).
    pub fn from_u8(v: u8) -> Self {
        match v {
            0 => NodeStatus::Up,
            1 => NodeStatus::Syncing,
            _ => NodeStatus::Down,
        }
    }
}
