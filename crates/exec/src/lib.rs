//! # fireledger-exec
//!
//! The deterministic execution engine: an account/KV state machine applied
//! as a *pipeline stage behind consensus commit*, decoupling ordering from
//! execution (ROADMAP item 3; Overlord's layered design, adapted).
//!
//! Ordering in this workspace is cheap — crypto is off the consensus loop —
//! so executing transactions serially *inside* that loop would waste the
//! win. Instead the consensus layer hands each block to [`ExecShared`] at
//! the moment it is delivered (committed and immutable, so execution never
//! speculates and never rolls back), and execution proceeds behind the
//! commit frontier: on a dedicated stage thread under the real-time
//! runtimes, or inline at deterministic points under the simulator.
//!
//! The header for round `k` carries the canonical state root of the
//! executed prefix through round `k − (f+3)` — the newest round guaranteed
//! definite when that header is built (see [`root_lag`]) — and every
//! replica cross-checks delivered roots against its own execution
//! ([`ExecShared::expect_prefix`]); a divergence is a typed, counted fault.
//!
//! The crate is layered exactly like its proofs:
//!
//! * [`state`] — the state machine and one shared transition function,
//!   over an authenticated crit-bit map (`trie`) whose root rehashes only
//!   the paths a block wrote;
//! * [`apply`] — conflict-partitioned (factorized) block application,
//!   identical results at every width;
//! * [`serial`] — the naive reference executor the differential battery
//!   compares against;
//! * [`shared`] — the pipelined executor handle, lag rule, root
//!   cross-checks and stage thread.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod apply;
pub mod serial;
pub mod shared;
pub mod state;
mod trie;

pub use apply::execute_block;
pub use serial::SerialExecutor;
pub use shared::{
    prefix_for_header, root_lag, spawn_stage, ClaimCheck, ExecConfig, ExecShared, ExecStage,
    ExecStats, RootMismatch,
};
pub use state::{Account, StateAccess, StateMachine};
