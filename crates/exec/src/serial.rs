//! The naive serial reference executor.
//!
//! [`SerialExecutor`] is the specification the pipelined engine is measured
//! against: it applies every transaction of every block strictly in order on
//! one thread and recomputes every root from the state's entries alone. No
//! partitioning, no pool, no pipeline, no digest cache — deliberately
//! boring. The differential battery (`tests/tests/exec_matrix.rs`) demands
//! bit-identical roots and receipts between this and [`crate::ExecShared`]
//! at every width.

use crate::apply::execute_block;
use crate::state::StateMachine;
use fireledger_types::{Hash, Receipt, Transaction};

/// A strictly serial executor holding its own state.
#[derive(Clone, Debug, Default)]
pub struct SerialExecutor {
    state: StateMachine,
    blocks: u64,
}

impl SerialExecutor {
    /// An executor over the empty state.
    pub fn new() -> Self {
        SerialExecutor::default()
    }

    /// An executor over the deterministic genesis state (see
    /// [`StateMachine::with_genesis`]).
    pub fn with_genesis(accounts: u64, balance: u64) -> Self {
        SerialExecutor {
            state: StateMachine::with_genesis(accounts, balance),
            blocks: 0,
        }
    }

    /// Applies one block's transactions in order, returning their receipts.
    pub fn execute_block(&mut self, txs: &[Transaction]) -> Vec<Receipt> {
        self.blocks += 1;
        execute_block(&mut self.state, txs, 1)
    }

    /// The canonical state root, recomputed from scratch (no cached digest
    /// is read or written).
    pub fn root(&self) -> Hash {
        self.state.root_serial()
    }

    /// Number of blocks executed.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// A view of the underlying state (for test assertions).
    pub fn state(&self) -> &StateMachine {
        &self.state
    }
}
