//! The local blockchain store of one FireLedger worker.
//!
//! FireLedger's chain is *dense in rounds*: the block decided in round `r`
//! sits at index `r`. The last `f + 1` blocks are **tentative** — the recovery
//! procedure may still replace them — and everything older is **definite**
//! (BBFC(f+1)-Finality). The store keeps the signed headers (the consensus
//! path), optionally the block bodies (the data path), and the definite/
//! tentative boundary, and implements the validation rules the protocol and
//! the recovery procedure rely on:
//!
//! * a header extends the chain iff its `parent` equals the hash of the
//!   current tip header and its round is the next round;
//! * a recovery *version* (a suffix of signed headers, Algorithm 3) is valid
//!   with respect to the agreed prefix iff it chains hash-by-hash from the
//!   prefix, every header is properly signed by its claimed proposer, and any
//!   `f + 1` consecutive blocks come from `f + 1` distinct proposers
//!   (Definition 5.3.1 / Lemma 5.3.2).

use fireledger_crypto::{hash_header, verify_header_cached, CryptoProvider};
use fireledger_types::{
    Block, ClusterConfig, Error, Hash, NodeId, Result, Round, SignedHeader, GENESIS_HASH,
};

/// One decided (tentative or definite) block of the chain.
#[derive(Clone, Debug)]
pub struct ChainEntry {
    /// The signed header that went through consensus.
    pub signed_header: SignedHeader,
    /// The block body, once known (bodies travel on the data path and may
    /// arrive after the header is decided).
    pub body: Option<Block>,
    /// Whether the entry is definite (depth > f + 1).
    pub definite: bool,
}

impl ChainEntry {
    /// Creates a tentative entry.
    pub fn new(signed_header: SignedHeader, body: Option<Block>) -> Self {
        ChainEntry {
            signed_header,
            body,
            definite: false,
        }
    }

    /// The round of this entry.
    pub fn round(&self) -> Round {
        self.signed_header.round()
    }

    /// The proposer of this entry.
    pub fn proposer(&self) -> NodeId {
        self.signed_header.proposer()
    }
}

/// A suffix of signed headers exchanged during recovery (a "version" in
/// Algorithm 3). An empty vector encodes the "empty version" a lagging node
/// submits.
pub type Version = Vec<SignedHeader>;

/// The per-worker blockchain store.
#[derive(Clone, Debug)]
pub struct Chain {
    cluster: ClusterConfig,
    entries: Vec<ChainEntry>,
    definite_len: usize,
}

impl Chain {
    /// Creates an empty chain for a cluster.
    pub fn new(cluster: ClusterConfig) -> Self {
        Chain {
            cluster,
            entries: Vec::new(),
            definite_len: 0,
        }
    }

    /// Total number of decided (tentative + definite) blocks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no block has been decided yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of definite blocks (the agreed, immutable prefix).
    pub fn definite_len(&self) -> usize {
        self.definite_len
    }

    /// The round the next block should carry.
    pub fn next_round(&self) -> Round {
        Round(self.entries.len() as u64)
    }

    /// Hash of the tip header (the parent the next block must reference), or
    /// the genesis hash for an empty chain.
    pub fn tip_hash(&self) -> Hash {
        self.entries
            .last()
            .map(|e| hash_header(&e.signed_header.header))
            .unwrap_or(GENESIS_HASH)
    }

    /// The entry decided at `round`, if any.
    pub fn get(&self, round: Round) -> Option<&ChainEntry> {
        self.entries.get(round.0 as usize)
    }

    /// Mutable access to the entry at `round`.
    pub fn get_mut(&mut self, round: Round) -> Option<&mut ChainEntry> {
        self.entries.get_mut(round.0 as usize)
    }

    /// All entries, oldest first.
    pub fn entries(&self) -> &[ChainEntry] {
        &self.entries
    }

    /// The hash the block at `round` must carry as its parent: the hash of
    /// the header at `round - 1`, or the genesis hash for round 0.
    pub fn parent_hash_for(&self, round: Round) -> Option<Hash> {
        if round == Round(0) {
            return Some(GENESIS_HASH);
        }
        self.get(round.prev())
            .map(|e| hash_header(&e.signed_header.header))
    }

    /// Checks that `signed` extends the current chain: correct next round,
    /// correct parent hash, and a valid proposer signature.
    pub fn validate_extension(
        &self,
        signed: &SignedHeader,
        crypto: &dyn CryptoProvider,
    ) -> Result<()> {
        let header = &signed.header;
        if header.round != self.next_round() {
            return Err(Error::InvalidBlock {
                round: header.round,
                reason: format!("expected round {}, got {}", self.next_round(), header.round),
            });
        }
        if header.parent != self.tip_hash() {
            return Err(Error::InvalidBlock {
                round: header.round,
                reason: format!(
                    "parent hash mismatch (expected {:?}, got {:?})",
                    self.tip_hash(),
                    header.parent
                ),
            });
        }
        // Memoized per header value: a signature verified at reception (or
        // batch-verified off-loop) is a cache read here.
        if !verify_header_cached(crypto, signed) {
            return Err(Error::InvalidSignature {
                signer: header.proposer,
                context: format!("header at {}", header.round),
            });
        }
        Ok(())
    }

    /// Appends an already-validated tentative block.
    pub fn append(&mut self, signed: SignedHeader, body: Option<Block>) {
        debug_assert_eq!(signed.round(), self.next_round());
        self.entries.push(ChainEntry::new(signed, body));
    }

    /// Appends one block replayed from the durable store during
    /// restart-from-disk recovery, marking it definite immediately.
    ///
    /// Only definite (BBFC-final) blocks are ever persisted — FLO writes a
    /// block to the block log at the moment it releases it to the
    /// application — so a replayed block re-enters the chain with the
    /// immutability it already had. The tentative suffix that existed at
    /// kill time was, by definition, never released and is legitimately
    /// lost: the restarted node resumes from its definite prefix.
    pub fn restore_definite(&mut self, signed: SignedHeader, body: Option<Block>) {
        debug_assert_eq!(signed.round(), self.next_round());
        let mut entry = ChainEntry::new(signed, body);
        entry.definite = true;
        self.entries.push(entry);
        self.definite_len = self.entries.len();
    }

    /// Attaches a late-arriving body to its decided header (data-path /
    /// consensus-path separation). Returns `false` when the body does not
    /// match the header's payload hash.
    pub fn attach_body(&mut self, round: Round, body: Block) -> bool {
        let Some(entry) = self.entries.get_mut(round.0 as usize) else {
            return false;
        };
        if entry.signed_header.header.payload_hash != body.header.payload_hash {
            return false;
        }
        if entry.body.is_none() {
            entry.body = Some(body);
        }
        true
    }

    /// Marks every block at depth greater than `f + 1` (with respect to the
    /// current tip) as definite, returning the rounds that were newly
    /// finalized in order.
    pub fn finalize_deep_blocks(&mut self) -> Vec<Round> {
        let tentative_window = self.cluster.f + 1;
        if self.entries.len() <= tentative_window {
            return Vec::new();
        }
        let target = self.entries.len() - tentative_window;
        let mut newly = Vec::new();
        while self.definite_len < target {
            self.entries[self.definite_len].definite = true;
            newly.push(Round(self.definite_len as u64));
            self.definite_len += 1;
        }
        newly
    }

    /// The suffix of signed headers from `from` (inclusive) to the tip — the
    /// version this node submits during recovery.
    pub fn version_from(&self, from: Round) -> Version {
        self.entries
            .iter()
            .skip(from.0 as usize)
            .map(|e| e.signed_header.clone())
            .collect()
    }

    /// Validates a recovery version received from a peer with respect to this
    /// chain's agreed (definite) prefix.
    ///
    /// `base_round` is the round the version starts at (r − (f+1) in
    /// Algorithm 3); the version's first header must chain from the local
    /// header at `base_round − 1` (or genesis). Empty versions are valid.
    pub fn validate_version(
        &self,
        base_round: Round,
        version: &Version,
        crypto: &dyn CryptoProvider,
    ) -> Result<()> {
        if version.is_empty() {
            return Ok(());
        }
        let first = &version[0];
        if first.round() != base_round {
            return Err(Error::InvalidVersion {
                from: first.proposer(),
                reason: format!(
                    "version starts at {}, expected {}",
                    first.round(),
                    base_round
                ),
            });
        }
        let mut expected_parent = if base_round == Round(0) {
            GENESIS_HASH
        } else {
            match self.parent_hash_for(base_round) {
                Some(h) => h,
                None => {
                    return Err(Error::InvalidVersion {
                        from: first.proposer(),
                        reason: "local chain does not contain the agreed prefix".into(),
                    })
                }
            }
        };
        let window = self.cluster.f + 1;
        for (i, signed) in version.iter().enumerate() {
            let header = &signed.header;
            if header.round != base_round.plus(i as u64) {
                return Err(Error::InvalidVersion {
                    from: header.proposer,
                    reason: format!("non-consecutive round {} at offset {i}", header.round),
                });
            }
            if header.parent != expected_parent {
                return Err(Error::InvalidVersion {
                    from: header.proposer,
                    reason: format!("broken hash chain at {}", header.round),
                });
            }
            if !verify_header_cached(crypto, signed) {
                return Err(Error::InvalidVersion {
                    from: header.proposer,
                    reason: format!("bad signature at {}", header.round),
                });
            }
            // Every f+1 consecutive blocks must come from f+1 distinct
            // proposers (Lemma 5.3.2).
            let start = i.saturating_sub(window - 1);
            for earlier in &version[start..i] {
                if earlier.proposer() == header.proposer {
                    return Err(Error::InvalidVersion {
                        from: header.proposer,
                        reason: format!(
                            "proposer {} repeats within {} consecutive blocks",
                            header.proposer, window
                        ),
                    });
                }
            }
            expected_parent = hash_header(header);
        }
        Ok(())
    }

    /// Adopts a recovery version: every entry from `base_round` onwards is
    /// replaced by the version's headers (bodies are kept when the header is
    /// unchanged, dropped otherwise so they can be re-fetched). Definite
    /// blocks are never replaced; attempts to do so are a protocol error.
    pub fn adopt_version(&mut self, base_round: Round, version: Version) -> Result<()> {
        let base = base_round.0 as usize;
        if base < self.definite_len {
            return Err(Error::InvalidState(format!(
                "recovery would rewrite definite prefix (base {base}, definite {})",
                self.definite_len
            )));
        }
        // Keep bodies of unchanged headers.
        let mut new_entries = Vec::with_capacity(version.len());
        for (i, signed) in version.into_iter().enumerate() {
            let body = self
                .entries
                .get(base + i)
                .filter(|e| e.signed_header == signed)
                .and_then(|e| e.body.clone());
            new_entries.push(ChainEntry::new(signed, body));
        }
        self.entries.truncate(base);
        self.entries.extend(new_entries);
        Ok(())
    }

    /// Rounds whose definite block bodies are still missing (they must be
    /// pulled before the block can be delivered to the application).
    pub fn missing_bodies(&self) -> Vec<Round> {
        self.entries
            .iter()
            .filter(|e| e.body.is_none())
            .map(|e| e.round())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireledger_crypto::{merkle_root, SimKeyStore};
    use fireledger_types::{BlockHeader, Transaction, WorkerId};

    fn crypto(n: usize) -> SimKeyStore {
        SimKeyStore::generate(n, 42)
    }

    fn make_block(
        chain: &Chain,
        proposer: NodeId,
        txs: Vec<Transaction>,
        crypto: &dyn CryptoProvider,
    ) -> (SignedHeader, Block) {
        let round = chain.next_round();
        let payload_hash = merkle_root(&txs);
        let payload_bytes = txs.iter().map(|t| t.payload.len() as u64).sum();
        let header = BlockHeader::new(
            round,
            WorkerId(0),
            proposer,
            chain.tip_hash(),
            payload_hash,
            txs.len() as u32,
            payload_bytes,
        );
        let sig = crypto.sign(proposer, &header.canonical_bytes());
        let signed = SignedHeader::new(header.clone(), sig);
        (signed, Block::new(header, txs))
    }

    fn grow(chain: &mut Chain, crypto: &dyn CryptoProvider, rounds: usize, n: usize) {
        for i in 0..rounds {
            let proposer = NodeId((chain.next_round().0 as usize % n) as u32);
            let (signed, block) = make_block(
                chain,
                proposer,
                vec![Transaction::zeroed(0, i as u64, 64)],
                crypto,
            );
            chain.validate_extension(&signed, crypto).unwrap();
            chain.append(signed, Some(block));
            chain.finalize_deep_blocks();
        }
    }

    #[test]
    fn empty_chain_starts_at_genesis() {
        let chain = Chain::new(ClusterConfig::new(4));
        assert!(chain.is_empty());
        assert_eq!(chain.next_round(), Round(0));
        assert_eq!(chain.tip_hash(), GENESIS_HASH);
        assert_eq!(chain.parent_hash_for(Round(0)), Some(GENESIS_HASH));
    }

    #[test]
    fn appending_valid_blocks_grows_and_finalizes() {
        let crypto = crypto(4);
        let mut chain = Chain::new(ClusterConfig::new(4));
        grow(&mut chain, &crypto, 10, 4);
        assert_eq!(chain.len(), 10);
        // f = 1: the last 2 blocks stay tentative.
        assert_eq!(chain.definite_len(), 8);
        assert!(chain.get(Round(7)).unwrap().definite);
        assert!(!chain.get(Round(8)).unwrap().definite);
        assert!(!chain.get(Round(9)).unwrap().definite);
    }

    #[test]
    fn finalize_returns_newly_definite_rounds_once() {
        let crypto = crypto(4);
        let mut chain = Chain::new(ClusterConfig::new(4));
        for i in 0..4 {
            let proposer = NodeId(i as u32 % 4);
            let (signed, _) = make_block(&chain, proposer, vec![], &crypto);
            chain.append(signed, None);
        }
        let newly = chain.finalize_deep_blocks();
        assert_eq!(newly, vec![Round(0), Round(1)]);
        assert!(chain.finalize_deep_blocks().is_empty());
    }

    #[test]
    fn extension_validation_rejects_bad_parent_round_and_signature() {
        let crypto = crypto(4);
        let mut chain = Chain::new(ClusterConfig::new(4));
        grow(&mut chain, &crypto, 3, 4);

        // Good extension validates.
        let (good, _) = make_block(&chain, NodeId(3), vec![], &crypto);
        assert!(chain.validate_extension(&good, &crypto).is_ok());

        // Wrong round.
        let mut wrong_round = good.clone();
        wrong_round.header.round = Round(7);
        assert!(matches!(
            chain.validate_extension(&wrong_round, &crypto),
            Err(Error::InvalidBlock { .. })
        ));

        // Wrong parent.
        let mut wrong_parent = good.clone();
        wrong_parent.header.parent = Hash([9u8; 32]);
        assert!(matches!(
            chain.validate_extension(&wrong_parent, &crypto),
            Err(Error::InvalidBlock { .. })
        ));

        // Signature by somebody else.
        let mut wrong_sig = good.clone();
        wrong_sig.signature = crypto.sign(NodeId(1), &wrong_sig.header.canonical_bytes());
        assert!(matches!(
            chain.validate_extension(&wrong_sig, &crypto),
            Err(Error::InvalidSignature { .. })
        ));
    }

    #[test]
    fn attach_body_checks_payload_hash() {
        let crypto = crypto(4);
        let mut chain = Chain::new(ClusterConfig::new(4));
        let txs = vec![Transaction::zeroed(0, 0, 128)];
        let (signed, block) = make_block(&chain, NodeId(0), txs, &crypto);
        chain.append(signed, None);
        assert!(chain.get(Round(0)).unwrap().body.is_none());
        assert_eq!(chain.missing_bodies(), vec![Round(0)]);

        // Mismatching body is rejected.
        let (_, other) = make_block(
            &chain,
            NodeId(1),
            vec![Transaction::zeroed(9, 9, 4)],
            &crypto,
        );
        assert!(!chain.attach_body(Round(0), other));

        assert!(chain.attach_body(Round(0), block));
        assert!(chain.get(Round(0)).unwrap().body.is_some());
        assert!(chain.missing_bodies().is_empty());
        assert!(!chain.attach_body(
            Round(5),
            Block::new(
                BlockHeader::new(
                    Round(5),
                    WorkerId(0),
                    NodeId(0),
                    GENESIS_HASH,
                    GENESIS_HASH,
                    0,
                    0
                ),
                vec![],
            )
        ));
    }

    #[test]
    fn version_roundtrip_validates_and_adopts() {
        let crypto = crypto(4);
        let mut chain = Chain::new(ClusterConfig::new(4));
        grow(&mut chain, &crypto, 8, 4);

        // A peer's chain that is one block longer.
        let mut longer = chain.clone();
        let (signed, _) = make_block(&longer, NodeId(0), vec![], &crypto);
        longer.append(signed, None);

        let base = Round(6);
        let version = longer.version_from(base);
        assert_eq!(version.len(), 3);
        chain.validate_version(base, &version, &crypto).unwrap();
        chain.adopt_version(base, version).unwrap();
        assert_eq!(chain.len(), 9);
        assert_eq!(chain.tip_hash(), longer.tip_hash());
        // Bodies of unchanged entries were preserved.
        assert!(chain.get(Round(6)).unwrap().body.is_some());
        // The newly adopted block has no body yet.
        assert!(chain.get(Round(8)).unwrap().body.is_none());
    }

    #[test]
    fn version_validation_rejects_forgeries() {
        let crypto = crypto(4);
        let mut chain = Chain::new(ClusterConfig::new(4));
        grow(&mut chain, &crypto, 8, 4);
        let base = Round(6);
        let good = chain.version_from(base);

        // Broken hash chain.
        let mut broken = good.clone();
        broken[1].header.parent = Hash([1u8; 32]);
        assert!(chain.validate_version(base, &broken, &crypto).is_err());

        // Wrong starting round.
        assert!(chain.validate_version(Round(5), &good, &crypto).is_err());

        // Bad signature.
        let mut bad_sig = good.clone();
        bad_sig[0].signature = fireledger_types::Signature::from(vec![1, 2, 3]);
        assert!(chain.validate_version(base, &bad_sig, &crypto).is_err());

        // Empty versions are always fine.
        assert!(chain.validate_version(base, &Vec::new(), &crypto).is_ok());
    }

    #[test]
    fn version_validation_enforces_distinct_proposers() {
        let crypto = crypto(4);
        let chain = Chain::new(ClusterConfig::new(4));
        // Build a forged version where the same proposer signs two consecutive
        // blocks (f = 1 → window of 2 must be distinct).
        let mut forged = Chain::new(ClusterConfig::new(4));
        for _ in 0..2 {
            let (signed, _) = make_block(&forged, NodeId(2), vec![], &crypto);
            forged.append(signed, None);
        }
        let version = forged.version_from(Round(0));
        let err = chain.validate_version(Round(0), &version, &crypto);
        assert!(matches!(err, Err(Error::InvalidVersion { .. })));
    }

    #[test]
    fn adoption_never_rewrites_definite_prefix() {
        let crypto = crypto(4);
        let mut chain = Chain::new(ClusterConfig::new(4));
        grow(&mut chain, &crypto, 10, 4);
        assert_eq!(chain.definite_len(), 8);
        let err = chain.adopt_version(Round(3), Vec::new());
        assert!(matches!(err, Err(Error::InvalidState(_))));
        // Adopting at the boundary is allowed.
        assert!(chain
            .adopt_version(Round(8), chain.version_from(Round(8)))
            .is_ok());
        assert_eq!(chain.len(), 10);
    }
}
