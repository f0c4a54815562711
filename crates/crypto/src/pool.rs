//! The crypto pool handle, vestigial.
//!
//! Every crypto operation runs inline on its caller's thread: one merkle
//! root per block body where the body arrives, one memoized verify per
//! header ([`verify_header_cached`](crate::verify_header_cached)).
//! [`CryptoPool`] remains only as the argument type of
//! `StateMachine::root_with_pool` and `ExecShared::new` in
//! `fireledger-exec`, whose signatures the repo benchmark calls.

use crate::keys::SharedCrypto;

/// A handle on a [`CryptoProvider`](crate::CryptoProvider) that runs
/// nothing itself (see the module docs).
#[derive(Clone)]
pub struct CryptoPool {
    crypto: SharedCrypto,
}

impl CryptoPool {
    /// A handle on `crypto`.
    pub fn inline(crypto: SharedCrypto) -> Self {
        CryptoPool { crypto }
    }

    /// The crypto provider this handle holds.
    pub fn crypto(&self) -> &SharedCrypto {
        &self.crypto
    }
}

impl std::fmt::Debug for CryptoPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CryptoPool({})", self.crypto.scheme())
    }
}
