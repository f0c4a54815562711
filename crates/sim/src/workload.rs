//! Workload generation.
//!
//! The paper generates random transactions and, to simulate intensive load,
//! lets every proposer fill each block to its maximal size (§7.2). Two modes
//! are therefore useful:
//!
//! * **saturating** — the protocol's `fill_blocks` option pads blocks with
//!   generated transactions, so no explicit injection is required;
//! * **open-loop injection** — [`TxInjector`] submits transactions to nodes at
//!   a configurable aggregate rate, which is what the examples and the
//!   non-triviality tests use.

use fireledger_types::{DetRng, NodeId, Transaction};
use std::time::Duration;

use crate::time::SimTime;

/// An open-loop transaction injector.
///
/// Transactions are spread round-robin across the target nodes and spaced
/// evenly in time; payloads are random bytes of the configured size, matching
/// the paper's randomly generated transactions.
#[derive(Clone, Debug)]
pub struct TxInjector {
    /// Aggregate injection rate, transactions per second.
    pub rate_per_sec: f64,
    /// Payload size σ in bytes.
    pub tx_size: usize,
    /// Nodes that receive transactions.
    pub targets: Vec<NodeId>,
    seed: u64,
}

impl TxInjector {
    /// Creates an injector with the given aggregate rate and payload size,
    /// targeting all `n` nodes.
    pub fn new(rate_per_sec: f64, tx_size: usize, n: usize) -> Self {
        TxInjector {
            rate_per_sec,
            tx_size,
            targets: (0..n as u32).map(NodeId).collect(),
            seed: 0x7A_17_AD,
        }
    }

    /// Overrides the RNG seed used for payload generation.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the injection schedule for the window `[start, end)` as
    /// `(time, target node, transaction)` triples, in time order.
    pub fn schedule(&self, start: SimTime, end: SimTime) -> Vec<(SimTime, NodeId, Transaction)> {
        if self.rate_per_sec <= 0.0 || self.targets.is_empty() || end <= start {
            return Vec::new();
        }
        let interval = Duration::from_secs_f64(1.0 / self.rate_per_sec);
        let mut rng = DetRng::seed_from_u64(self.seed);
        let mut out = Vec::new();
        let mut t = start;
        let mut seq = 0u64;
        while t < end {
            let target = self.targets[(seq as usize) % self.targets.len()];
            let mut payload = vec![0u8; self.tx_size];
            rng.fill_bytes(payload.as_mut_slice());
            out.push((
                t,
                target,
                Transaction::new(1_000 + target.0 as u64, seq, payload),
            ));
            seq += 1;
            t += interval;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A batch of `count` random transactions of `tx_size` bytes.
    fn random_batch(count: usize, tx_size: usize, seed: u64) -> Vec<Transaction> {
        let mut rng = DetRng::seed_from_u64(seed);
        (0..count)
            .map(|i| {
                let mut payload = vec![0u8; tx_size];
                rng.fill_bytes(payload.as_mut_slice());
                Transaction::new(0xFEED, i as u64, payload)
            })
            .collect()
    }

    #[test]
    fn schedule_has_expected_rate_and_ordering() {
        let inj = TxInjector::new(100.0, 512, 4);
        let sched = inj.schedule(SimTime::ZERO, SimTime::from_secs(2));
        assert_eq!(sched.len(), 200);
        assert!(sched.windows(2).all(|w| w[0].0 <= w[1].0));
        // Round-robin across 4 nodes.
        assert_eq!(sched[0].1, NodeId(0));
        assert_eq!(sched[1].1, NodeId(1));
        assert_eq!(sched[4].1, NodeId(0));
        assert!(sched.iter().all(|(_, _, tx)| tx.payload_len() == 512));
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = TxInjector::new(50.0, 64, 2).with_seed(7);
        let b = TxInjector::new(50.0, 64, 2).with_seed(7);
        let c = TxInjector::new(50.0, 64, 2).with_seed(8);
        let sa = a.schedule(SimTime::ZERO, SimTime::from_secs(1));
        let sb = b.schedule(SimTime::ZERO, SimTime::from_secs(1));
        let sc = c.schedule(SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(sa, sb);
        assert_ne!(
            sa.iter()
                .map(|(_, _, t)| t.payload.clone())
                .collect::<Vec<_>>(),
            sc.iter()
                .map(|(_, _, t)| t.payload.clone())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_or_degenerate_schedules() {
        let inj = TxInjector::new(0.0, 512, 4);
        assert!(inj
            .schedule(SimTime::ZERO, SimTime::from_secs(1))
            .is_empty());
        let inj = TxInjector::new(10.0, 512, 4);
        assert!(inj
            .schedule(SimTime::from_secs(1), SimTime::from_secs(1))
            .is_empty());
        let mut inj = TxInjector::new(10.0, 512, 4);
        inj.targets.clear();
        assert!(inj
            .schedule(SimTime::ZERO, SimTime::from_secs(1))
            .is_empty());
    }

    #[test]
    fn targeted_injection_only_hits_targets() {
        let mut inj = TxInjector::new(10.0, 32, 4);
        inj.targets = vec![NodeId(2)];
        let sched = inj.schedule(SimTime::ZERO, SimTime::from_secs(1));
        assert!(sched.iter().all(|(_, node, _)| *node == NodeId(2)));
    }

    #[test]
    fn random_batch_sizes_and_uniqueness() {
        let batch = random_batch(10, 256, 1);
        assert_eq!(batch.len(), 10);
        assert!(batch.iter().all(|t| t.payload_len() == 256));
        // Sequence numbers are unique.
        let mut seqs: Vec<_> = batch.iter().map(|t| t.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 10);
        // Different seeds give different payloads.
        let other = random_batch(10, 256, 2);
        assert_ne!(batch[0].payload, other[0].payload);
    }
}
