//! Block execution: apply a block's transactions to the state, in order.
//!
//! [`execute_block`] decodes each transaction's payload and applies the
//! executable ops one after another through [`StateMachine::apply_op`];
//! opaque and malformed payloads get their receipt without touching the
//! state. The result — receipts in transaction order and the post-state —
//! is a pure function of the prior state and the block.

use crate::state::StateMachine;
use fireledger_types::{DecodedOp, Receipt, Transaction, TxOp};

/// Executes a block's transactions against `state`, returning one receipt
/// per transaction in order.
///
/// `_width` is unused: every block runs serially. The parameter stays
/// because the repo benchmark (`benchmark/`) calls this signature.
pub fn execute_block(state: &mut StateMachine, txs: &[Transaction], _width: usize) -> Vec<Receipt> {
    txs.iter()
        .map(|tx| match TxOp::classify_payload(&tx.payload) {
            DecodedOp::Op(op) => state.apply_op(&op),
            DecodedOp::Opaque => Receipt::Opaque,
            DecodedOp::Malformed => Receipt::Malformed,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireledger_types::Bytes;

    #[test]
    fn opaque_and_malformed_receipts_keep_their_positions() {
        let create = TxOp::CreateAccount {
            account: 1,
            balance: 1,
        };
        let block = vec![
            Transaction::zeroed(1, 0, 16),
            Transaction {
                client: 0,
                seq: 1,
                payload: create.encode_payload(),
            },
            Transaction {
                client: 1,
                seq: 2,
                payload: Bytes::from(vec![fireledger_types::OP_MAGIC, 0xFF]),
            },
        ];
        let mut state = StateMachine::new();
        assert_eq!(
            execute_block(&mut state, &block, 1),
            vec![Receipt::Opaque, Receipt::Applied, Receipt::Malformed]
        );
    }
}
