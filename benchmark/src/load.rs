//! The open-loop client load: a seeded schedule of §11 `Submit` calls and
//! the single generator thread that sends them.
//!
//! Open loop means the schedule is fixed before the run: submission *k* is
//! due at `(k + jitter) / rate` whatever happened to submission *k − 1*, so
//! a stalled cluster keeps receiving requests and every latency is timed
//! from the **due** time — the wait a stall imposes on later requests is
//! counted, not hidden. How late the generator itself ran is reported as
//! its own metric.

use fireledger_net::RpcClient;
use fireledger_types::rpc::{Lane, RpcMsg, SubmitStatus};
use fireledger_types::{Bytes, DetRng, TxOp};
use std::time::{Duration, Instant};

/// Attempts one submission gets (the first try plus retries on the next
/// connection) before it counts as refused.
const MAX_ATTEMPTS: u32 = 3;

/// First key of the client `KvPut` keyspace — clear of the executable
/// filler's keys (hot set 0..4, disjoint set 64..320).
const CLIENT_KEY_BASE: u64 = 4096;

/// What a client transaction carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Payload {
    /// `size` zero bytes: ordered, executed as a no-op.
    Opaque { size: usize },
    /// A §12.1 `KvPut` on one of `keys` client keys.
    KvPut { keys: u64 },
}

/// One scheduled submission.
#[derive(Clone, Debug, PartialEq)]
pub struct Submission {
    /// When it is due, as an offset from the start of the load.
    pub due: Duration,
    /// Index of the client connection (and client identity) that sends it.
    pub conn: usize,
    pub client: u64,
    pub seq: u64,
    pub payload: Vec<u8>,
}

/// Builds the schedule: `rate` submissions per second for `duration`,
/// round-robin over `conns` client identities derived from `seed`.
pub fn schedule(
    seed: u64,
    rate: f64,
    duration: Duration,
    conns: usize,
    payload: Payload,
) -> Vec<Submission> {
    let mut rng = DetRng::seed_from_u64(seed ^ 0x10AD_5EED);
    // Client ids live far above the nodes' filler client namespace
    // (1_000_000 + node·1000 + worker), so a client tx is recognisable.
    let client_base = (1u64 << 40) | (rng.next_u64() >> 32 << 8);
    let count = (rate * duration.as_secs_f64()).floor() as u64;
    let mut seqs = vec![0u64; conns];
    (0..count)
        .map(|k| {
            // Jitter in [0, 0.5) of one period keeps due times monotone.
            let jitter = rng.gen_f64() * 0.5;
            let conn = (k % conns as u64) as usize;
            let seq = seqs[conn];
            seqs[conn] += 1;
            let payload = match payload {
                Payload::Opaque { size } => vec![0u8; size],
                Payload::KvPut { keys } => TxOp::KvPut {
                    key: CLIENT_KEY_BASE + rng.gen_below(keys),
                    value: Bytes::from(rng.next_u64().to_be_bytes().to_vec()),
                }
                .encode_payload()
                .as_slice()
                .to_vec(),
            };
            Submission {
                due: Duration::from_secs_f64((k as f64 + jitter) / rate),
                conn,
                client: client_base + conn as u64,
                seq,
                payload,
            }
        })
        .collect()
}

/// What happened to one submission.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Outcome {
    /// How long after its due time the first attempt was written.
    pub lateness: Duration,
    /// Round-trip time of the first attempt's `Submit` → `SubmitAck`.
    pub rtt: Duration,
    /// The connection whose node acked it `Accepted`; `None` when every
    /// attempt was refused or the transport failed.
    pub acked_by: Option<usize>,
}

/// Sends `subs` on schedule over `conns`, blocking the calling thread until
/// the last one is answered. `start` is the instant the load's clock starts.
pub fn run(conns: &mut [RpcClient], start: Instant, subs: &[Submission]) -> Vec<Outcome> {
    subs.iter()
        .map(|sub| {
            let due = start + sub.due;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let msg = RpcMsg::Submit {
                client: sub.client,
                seq: sub.seq,
                lane: Lane::Normal,
                payload: sub.payload.clone(),
            };
            let sent = Instant::now();
            let mut outcome = Outcome {
                lateness: sent.saturating_duration_since(due),
                rtt: Duration::ZERO,
                acked_by: None,
            };
            for attempt in 0..MAX_ATTEMPTS {
                let conn = (sub.conn + attempt as usize) % conns.len();
                let reply = conns[conn].call(&msg);
                if attempt == 0 {
                    outcome.rtt = sent.elapsed();
                }
                match reply {
                    // `Duplicate` answers a retry of something this node
                    // already admitted: it is in that node's pool.
                    Ok(RpcMsg::SubmitAck {
                        status: SubmitStatus::Accepted { .. } | SubmitStatus::Duplicate,
                        ..
                    }) => {
                        outcome.acked_by = Some(conn);
                        break;
                    }
                    // A typed refusal: the open loop does not wait out the
                    // back-off hint, it tries the next node at once.
                    Ok(_) => {}
                    // A dead connection stays dead; the submission failed.
                    Err(_) => break,
                }
            }
            outcome
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPAQUE: Payload = Payload::Opaque { size: 64 };

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = schedule(7, 500.0, Duration::from_secs(2), 2, OPAQUE);
        let b = schedule(7, 500.0, Duration::from_secs(2), 2, OPAQUE);
        let c = schedule(8, 500.0, Duration::from_secs(2), 2, OPAQUE);
        assert_eq!(a, b);
        assert_ne!(
            a.iter().map(|s| s.due).collect::<Vec<_>>(),
            c.iter().map(|s| s.due).collect::<Vec<_>>()
        );
        assert_ne!(a[0].client, c[0].client);
    }

    #[test]
    fn schedule_is_open_loop_at_the_stated_rate() {
        let subs = schedule(1, 1000.0, Duration::from_secs(3), 2, OPAQUE);
        assert_eq!(subs.len(), 3000);
        // Due times are fixed up front, monotone, and submission k falls in
        // period k: nothing about them depends on an earlier reply.
        for (k, pair) in subs.windows(2).enumerate() {
            assert!(pair[0].due < pair[1].due, "not monotone at {k}");
        }
        for (k, s) in subs.iter().enumerate() {
            let lo = k as f64 / 1000.0;
            let due = s.due.as_secs_f64();
            assert!((lo..lo + 0.0005 + 1e-9).contains(&due), "k={k} due={due}");
        }
    }

    #[test]
    fn clients_alternate_with_dense_sequences() {
        let subs = schedule(3, 100.0, Duration::from_secs(1), 2, OPAQUE);
        assert_eq!(subs[0].conn, 0);
        assert_eq!(subs[1].conn, 1);
        assert_eq!(subs[1].client, subs[0].client + 1);
        assert!(subs[0].client >= 1 << 40);
        for conn in 0..2 {
            let seqs: Vec<u64> = subs
                .iter()
                .filter(|s| s.conn == conn)
                .map(|s| s.seq)
                .collect();
            assert_eq!(seqs, (0..50).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn kv_payloads_decode_to_client_keyspace_puts() {
        use fireledger_types::DecodedOp;
        let subs = schedule(
            5,
            100.0,
            Duration::from_secs(1),
            2,
            Payload::KvPut { keys: 1024 },
        );
        for s in &subs {
            match TxOp::classify_payload(&s.payload) {
                DecodedOp::Op(TxOp::KvPut { key, .. }) => {
                    assert!((CLIENT_KEY_BASE..CLIENT_KEY_BASE + 1024).contains(&key));
                }
                other => panic!("not a KvPut: {other:?}"),
            }
        }
    }
}
