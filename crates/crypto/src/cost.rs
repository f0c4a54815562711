//! CPU cost model for cryptographic operations.
//!
//! The paper's signature-rate experiment (Figure 5) establishes that the time
//! to sign a block is `t_sign = β · σ · t_hash + C` where `C` is the constant
//! ECDSA cost and `t_hash` the per-byte hashing cost, and uses the measured
//! rate as an upper bound on throughput (`tps ≤ sps · β`). The discrete-event
//! simulator charges exactly this model to each node's (multi-core) CPU, so
//! protocols that sign more (HotStuff: every replica signs every block) pay
//! proportionally more simulated CPU time than protocols that sign less
//! (FireLedger: only the proposer signs).
//!
//! Two presets reproduce the paper's machine classes, and
//! [`CostModel::calibrate`] measures the actual cost of this crate's ECDSA /
//! SHA-256 implementations on the local machine for the real-time runtime.

use std::time::{Duration, Instant};

/// Per-operation CPU costs of the cryptographic primitives.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Cost of one ECDSA signature over an already-hashed message (the
    /// constant `C` of §7.1).
    pub sign: Duration,
    /// Cost of one ECDSA signature verification.
    pub verify: Duration,
    /// Hashing cost per byte (`t_hash` of §7.1).
    pub hash_per_byte: Duration,
    /// Number of vCPUs available to one node.
    pub cores: usize,
}

impl CostModel {
    /// Cost model for the paper's default evaluation machines: AWS m5.xlarge
    /// (4 vCPUs of Xeon Platinum 8175) running a Java implementation with
    /// BouncyCastle-class ECDSA performance. Derived from Figure 5: with
    /// β = 10, σ = 512 the per-core signature rate is ≈ 1.1 k/s (C ≈ 0.9 ms)
    /// and large blocks are dominated by hashing at ≈ 160 MB/s per core.
    pub fn m5_xlarge() -> Self {
        CostModel {
            sign: Duration::from_micros(900),
            verify: Duration::from_micros(1100),
            hash_per_byte: Duration::from_nanos(6),
            cores: 4,
        }
    }

    /// Cost model for the comparison machines of §7.6: AWS c5.4xlarge
    /// (16 vCPUs, higher clocked), roughly 1.4× faster per core.
    pub fn c5_4xlarge() -> Self {
        CostModel {
            sign: Duration::from_micros(650),
            verify: Duration::from_micros(800),
            hash_per_byte: Duration::from_nanos(4),
            cores: 16,
        }
    }

    /// A cost model in which crypto is free — useful for isolating network
    /// effects in ablation experiments.
    pub fn free() -> Self {
        CostModel {
            sign: Duration::ZERO,
            verify: Duration::ZERO,
            hash_per_byte: Duration::ZERO,
            cores: 1,
        }
    }

    /// Measures the real cost of this workspace's signature
    /// ([`crate::LamportKeyStore`]) and SHA-256 implementations on the local
    /// machine. `iters` controls how many operations are timed; a few hundred
    /// gives a stable estimate in well under a second.
    pub fn calibrate(iters: usize, cores: usize) -> Self {
        use crate::keys::{CryptoProvider, LamportKeyStore};
        use crate::sha256::Sha256;
        use fireledger_types::NodeId;

        let iters = iters.max(8);
        let store = LamportKeyStore::generate(1, 0xF1E7);
        let msg = [0xabu8; 64];

        let start = Instant::now();
        let mut last = None;
        for _ in 0..iters {
            last = Some(store.sign(NodeId(0), &msg));
        }
        let sign = start.elapsed() / iters as u32;

        let sig = last.unwrap();
        let start = Instant::now();
        for _ in 0..iters {
            let _ = store.verify(NodeId(0), &msg, &sig);
        }
        let verify = start.elapsed() / iters as u32;

        let block = vec![0u8; 64 * 1024];
        let hash_iters = iters.max(16);
        let start = Instant::now();
        for _ in 0..hash_iters {
            let _ = Sha256::digest(&block);
        }
        let per_block = start.elapsed() / hash_iters as u32;
        let hash_per_byte =
            Duration::from_nanos((per_block.as_nanos() / block.len() as u128).max(1) as u64);

        CostModel {
            sign,
            verify,
            hash_per_byte,
            cores: cores.max(1),
        }
    }

    /// Time to hash `bytes` bytes.
    pub fn hash_time(&self, bytes: u64) -> Duration {
        self.hash_per_byte
            .saturating_mul(bytes.min(u32::MAX as u64) as u32)
    }

    /// Time to sign a block of `payload_bytes` (hash the payload, then one
    /// ECDSA signature): `t_sign = β·σ·t_hash + C`.
    pub fn block_sign_time(&self, payload_bytes: u64) -> Duration {
        self.hash_time(payload_bytes) + self.sign
    }

    /// The single-core signature rate (signatures per second) for blocks of
    /// `payload_bytes` — the quantity plotted in Figure 5 (per worker).
    pub fn signature_rate(&self, payload_bytes: u64) -> f64 {
        let t = self.block_sign_time(payload_bytes);
        if t.is_zero() {
            f64::INFINITY
        } else {
            1.0 / t.as_secs_f64()
        }
    }

    /// Total CPU time for a [`fireledger_types::runtime::CpuCharge`]-shaped
    /// workload: `signs` signatures, `verifies` verifications and
    /// `hashed_bytes` bytes of hashing.
    pub fn charge_time(&self, signs: u32, verifies: u32, hashed_bytes: u64) -> Duration {
        self.sign.saturating_mul(signs)
            + self.verify.saturating_mul(verifies)
            + self.hash_time(hashed_bytes)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::m5_xlarge()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CostModel {
        /// Overrides the number of cores.
        fn with_cores(mut self, cores: usize) -> Self {
            self.cores = cores.max(1);
            self
        }
    }

    #[test]
    fn presets_are_sane() {
        let m5 = CostModel::m5_xlarge();
        let c5 = CostModel::c5_4xlarge();
        assert!(c5.sign < m5.sign);
        assert!(c5.cores > m5.cores);
        assert_eq!(CostModel::free().sign, Duration::ZERO);
    }

    #[test]
    fn block_sign_time_grows_linearly_with_payload() {
        let m = CostModel::m5_xlarge();
        let t_small = m.block_sign_time(10 * 512);
        let t_big = m.block_sign_time(1000 * 4096);
        assert!(t_big > t_small);
        // β·σ·t_hash term: 4 MB at 6 ns/B ≈ 24.5 ms.
        assert!(t_big > Duration::from_millis(20));
        assert!(t_small < Duration::from_millis(2));
    }

    #[test]
    fn signature_rate_is_inverse_of_sign_time() {
        let m = CostModel::m5_xlarge();
        let rate = m.signature_rate(10 * 512);
        let t = m.block_sign_time(10 * 512).as_secs_f64();
        assert!((rate * t - 1.0).abs() < 1e-9);
        assert!(CostModel::free().signature_rate(1).is_infinite());
    }

    #[test]
    fn rate_ordering_matches_figure5() {
        // Smaller blocks → higher signature rate, for every machine class.
        for m in [CostModel::m5_xlarge(), CostModel::c5_4xlarge()] {
            let r_small = m.signature_rate(10 * 512);
            let r_mid = m.signature_rate(100 * 1024);
            let r_big = m.signature_rate(1000 * 4096);
            assert!(r_small > r_mid && r_mid > r_big);
        }
    }

    #[test]
    fn charge_time_combines_components() {
        let m = CostModel::m5_xlarge();
        let t = m.charge_time(2, 3, 1000);
        assert_eq!(t, m.sign * 2 + m.verify * 3 + m.hash_time(1000));
    }

    #[test]
    fn with_cores_clamps_to_one() {
        assert_eq!(CostModel::m5_xlarge().with_cores(0).cores, 1);
        assert_eq!(CostModel::m5_xlarge().with_cores(8).cores, 8);
    }

    #[test]
    fn calibration_produces_nonzero_costs() {
        let m = CostModel::calibrate(8, 4);
        assert!(m.sign > Duration::ZERO);
        assert!(m.verify > Duration::ZERO);
        assert!(m.hash_per_byte > Duration::ZERO);
        assert_eq!(m.cores, 4);
    }
}
