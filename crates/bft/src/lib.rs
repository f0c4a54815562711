//! # fireledger-bft
//!
//! The classical BFT substrates FireLedger builds on (§3.2 of the paper):
//!
//! * [`rb`] — Bracha-style **Reliable Broadcast**, used to disseminate proofs
//!   of Byzantine behaviour ("panic" messages) before recovery;
//! * [`pbft`] — a PBFT-style **Atomic Broadcast** with rotating leader and
//!   view change. The paper's implementation delegates both its atomic
//!   broadcast and the OBBC fallback to BFT-SMaRt (§6.1.2, Figure 3); this
//!   module is our from-scratch stand-in for BFT-SMaRt and also serves as the
//!   BFT-SMaRt baseline ordering service of §7.6.
//!
//! OBBC (Appendix A) lives in the FireLedger worker, which submits each
//! attempt's fallback votes to a [`Pbft`] instance.
//!
//! All components are sans-IO state machines: they are embedded in a parent
//! [`fireledger_types::Protocol`] (the FireLedger worker, the WRB service, or
//! the baseline ordering node) that owns the wire and wraps their messages.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod pbft;
pub mod rb;

pub use pbft::{Pbft, PbftConfig, PbftMsg, PBFT_TIMER_KIND};
pub use rb::{RbMsg, ReliableBroadcast};
