//! Bracha-style Reliable Broadcast.
//!
//! FireLedger uses reliable broadcast to disseminate proofs of Byzantine
//! behaviour: when a node detects a chain inconsistency, it RB-broadcasts the
//! signed conflicting headers (Algorithm 2, lines b6–b7) so that every correct
//! node eventually joins the recovery procedure (lines b12–b14).
//!
//! The implementation is the classical echo/ready protocol of Bracha
//! (Asynchronous Byzantine Agreement Protocols, 1987), which provides the
//! RB-Validity / RB-Agreement / RB-Termination properties of §3.2 for
//! `f < n/3`:
//!
//! 1. the sender broadcasts `Init(v)`;
//! 2. on the first `Init(v)` from that sender, a node broadcasts `Echo(v)`;
//! 3. on `2f+1` `Echo(v)` (or `f+1` `Ready(v)`), a node broadcasts `Ready(v)`;
//! 4. on `2f+1` `Ready(v)`, a node delivers `v`.

use fireledger_types::codec::{CodecError, Reader, WireCodec};
use fireledger_types::{ClusterConfig, NodeId, Outbox};
use std::collections::{HashMap, HashSet};
use std::fmt::Debug;
use std::hash::Hash;

/// Wire messages of the reliable-broadcast protocol.
///
/// `origin` is the node whose broadcast this message belongs to and `tag` is
/// the origin's local sequence number for it; together they name one RB
/// instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RbMsg<V> {
    /// The origin's initial dissemination of `value`.
    Init {
        /// Broadcast instance: the broadcasting node.
        origin: NodeId,
        /// Broadcast instance: the origin's sequence number.
        tag: u64,
        /// The broadcast payload.
        value: V,
    },
    /// Second-phase echo of `value`.
    Echo {
        /// Broadcast instance: the broadcasting node.
        origin: NodeId,
        /// Broadcast instance: the origin's sequence number.
        tag: u64,
        /// The echoed payload.
        value: V,
    },
    /// Third-phase ready message for `value`.
    Ready {
        /// Broadcast instance: the broadcasting node.
        origin: NodeId,
        /// Broadcast instance: the origin's sequence number.
        tag: u64,
        /// The payload the sender is ready to deliver.
        value: V,
    },
}

/// Layout per WIRE_FORMAT.md §5.1: a discriminant byte (`0x01` Init, `0x02`
/// Echo, `0x03` Ready) followed by `origin u32 | tag u64 | value`.
impl<V: WireCodec> WireCodec for RbMsg<V> {
    fn encode_to(&self, out: &mut Vec<u8>) {
        let (disc, origin, tag, value) = match self {
            RbMsg::Init { origin, tag, value } => (1u8, origin, tag, value),
            RbMsg::Echo { origin, tag, value } => (2, origin, tag, value),
            RbMsg::Ready { origin, tag, value } => (3, origin, tag, value),
        };
        out.push(disc);
        origin.encode_to(out);
        tag.encode_to(out);
        value.encode_to(out);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let disc = r.u8()?;
        if !(1..=3).contains(&disc) {
            return Err(CodecError::BadTag {
                what: "RbMsg",
                tag: disc,
            });
        }
        let origin = NodeId::decode_from(r)?;
        let tag = r.u64()?;
        let value = V::decode_from(r)?;
        Ok(match disc {
            1 => RbMsg::Init { origin, tag, value },
            2 => RbMsg::Echo { origin, tag, value },
            _ => RbMsg::Ready { origin, tag, value },
        })
    }

    fn encoded_len(&self) -> usize {
        let value = match self {
            RbMsg::Init { value, .. } | RbMsg::Echo { value, .. } | RbMsg::Ready { value, .. } => {
                value
            }
        };
        // discriminant + origin + tag + value
        1 + 4 + 8 + value.encoded_len()
    }
}

#[derive(Debug)]
struct RbInstance<V> {
    echoed: bool,
    readied: bool,
    delivered: bool,
    echoes: HashMap<V, HashSet<NodeId>>,
    readies: HashMap<V, HashSet<NodeId>>,
}

impl<V> Default for RbInstance<V> {
    fn default() -> Self {
        RbInstance {
            echoed: false,
            readied: false,
            delivered: false,
            echoes: HashMap::new(),
            readies: HashMap::new(),
        }
    }
}

/// The reliable-broadcast service of one node, multiplexing any number of
/// concurrent broadcast instances.
#[derive(Debug)]
pub struct ReliableBroadcast<V> {
    me: NodeId,
    cluster: ClusterConfig,
    next_tag: u64,
    instances: HashMap<(NodeId, u64), RbInstance<V>>,
}

impl<V> ReliableBroadcast<V>
where
    V: Clone + Eq + Hash + Debug,
{
    /// Creates the RB endpoint of node `me` in `cluster`.
    pub fn new(me: NodeId, cluster: ClusterConfig) -> Self {
        ReliableBroadcast {
            me,
            cluster,
            next_tag: 0,
            instances: HashMap::new(),
        }
    }

    /// Starts a new broadcast of `value` and returns its tag. The local node
    /// delivers its own broadcast through the normal echo/ready path.
    pub fn broadcast(&mut self, value: V, out: &mut Outbox<RbMsg<V>>) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        let init = RbMsg::Init {
            origin: self.me,
            tag,
            value: value.clone(),
        };
        out.broadcast(init.clone());
        // Process our own init locally (we do not send to ourselves).
        let mut delivered = self.on_message(self.me, init, out);
        debug_assert!(delivered.is_empty() || delivered.len() == 1);
        let _ = delivered.pop();
        tag
    }

    /// Handles an RB wire message from `from`; returns the broadcasts
    /// (origin, tag, value) that became deliverable as a result.
    pub fn on_message(
        &mut self,
        from: NodeId,
        msg: RbMsg<V>,
        out: &mut Outbox<RbMsg<V>>,
    ) -> Vec<(NodeId, u64, V)> {
        let quorum = self.cluster.bft_quorum();
        let ready_amplify = self.cluster.f + 1;
        let mut delivered = Vec::new();
        match msg {
            RbMsg::Init { origin, tag, value } => {
                // Only the origin itself may initiate its own broadcast.
                if from != origin {
                    return delivered;
                }
                let inst = self.instances.entry((origin, tag)).or_default();
                if !inst.echoed {
                    inst.echoed = true;
                    let echo = RbMsg::Echo {
                        origin,
                        tag,
                        value: value.clone(),
                    };
                    out.broadcast(echo.clone());
                    // Count our own echo.
                    delivered.extend(self.on_message(self.me, echo, out));
                }
            }
            RbMsg::Echo { origin, tag, value } => {
                let inst = self.instances.entry((origin, tag)).or_default();
                let votes = inst.echoes.entry(value.clone()).or_default();
                votes.insert(from);
                let count = votes.len();
                if count >= quorum && !inst.readied {
                    inst.readied = true;
                    let ready = RbMsg::Ready {
                        origin,
                        tag,
                        value: value.clone(),
                    };
                    out.broadcast(ready.clone());
                    delivered.extend(self.on_message(self.me, ready, out));
                }
            }
            RbMsg::Ready { origin, tag, value } => {
                let inst = self.instances.entry((origin, tag)).or_default();
                let votes = inst.readies.entry(value.clone()).or_default();
                votes.insert(from);
                let count = votes.len();
                if count >= ready_amplify && !inst.readied {
                    inst.readied = true;
                    let ready = RbMsg::Ready {
                        origin,
                        tag,
                        value: value.clone(),
                    };
                    out.broadcast(ready.clone());
                    delivered.extend(self.on_message(self.me, ready, out));
                    // Re-read the instance after recursion.
                }
                let inst = self.instances.entry((origin, tag)).or_default();
                let count = inst.readies.get(&value).map_or(0, |s| s.len());
                if count >= quorum && !inst.delivered {
                    inst.delivered = true;
                    delivered.push((origin, tag, value));
                }
            }
        }
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireledger_types::Action;

    type Payload = u64;

    struct Net {
        nodes: Vec<ReliableBroadcast<Payload>>,
        delivered: Vec<Vec<(NodeId, u64, Payload)>>,
    }

    impl Net {
        fn new(n: usize) -> Self {
            let cluster = ClusterConfig::new(n);
            Net {
                nodes: (0..n)
                    .map(|i| ReliableBroadcast::new(NodeId(i as u32), cluster))
                    .collect(),
                delivered: vec![Vec::new(); n],
            }
        }

        /// Applies a closure to node `i`, then synchronously routes all the
        /// produced messages (optionally dropping messages to some nodes).
        fn run<F>(&mut self, i: usize, f: F, unreachable: &[usize])
        where
            F: FnOnce(
                &mut ReliableBroadcast<Payload>,
                &mut Outbox<RbMsg<Payload>>,
            ) -> Vec<(NodeId, u64, Payload)>,
        {
            let mut out = Outbox::new();
            let newly = f(&mut self.nodes[i], &mut out);
            self.delivered[i].extend(newly);
            let actions = out.into_actions();
            for action in actions {
                match action {
                    Action::Broadcast { msg } => {
                        for j in 0..self.nodes.len() {
                            if j != i && !unreachable.contains(&j) {
                                self.deliver(i, j, msg.clone(), unreachable);
                            }
                        }
                    }
                    Action::Send { to, msg } if !unreachable.contains(&to.as_usize()) => {
                        self.deliver(i, to.as_usize(), msg, unreachable);
                    }
                    _ => {}
                }
            }
        }

        fn deliver(&mut self, from: usize, to: usize, msg: RbMsg<Payload>, unreachable: &[usize]) {
            self.run(
                to,
                |node, out| node.on_message(NodeId(from as u32), msg, out),
                unreachable,
            );
        }
    }

    #[test]
    fn broadcast_delivers_at_all_correct_nodes() {
        let mut net = Net::new(4);
        net.run(
            0,
            |node, out| {
                node.broadcast(42, out);
                Vec::new()
            },
            &[],
        );
        for i in 0..4 {
            assert_eq!(net.delivered[i], vec![(NodeId(0), 0, 42)], "node {i}");
            assert!(net.nodes[i].instances[&(NodeId(0), 0)].delivered);
        }
    }

    #[test]
    fn delivery_with_one_unreachable_node() {
        // f = 1 for n = 4: the protocol must terminate at the 3 reachable nodes.
        let mut net = Net::new(4);
        net.run(
            0,
            |node, out| {
                node.broadcast(7, out);
                Vec::new()
            },
            &[3],
        );
        for i in 0..3 {
            assert_eq!(net.delivered[i], vec![(NodeId(0), 0, 7)], "node {i}");
        }
        assert!(net.delivered[3].is_empty());
    }

    #[test]
    fn concurrent_broadcasts_are_independent() {
        let mut net = Net::new(7);
        net.run(
            0,
            |node, out| {
                node.broadcast(1, out);
                Vec::new()
            },
            &[],
        );
        net.run(
            5,
            |node, out| {
                node.broadcast(2, out);
                Vec::new()
            },
            &[],
        );
        net.run(
            0,
            |node, out| {
                node.broadcast(3, out);
                Vec::new()
            },
            &[],
        );
        for i in 0..7 {
            let got: HashSet<_> = net.delivered[i].iter().cloned().collect();
            assert!(got.contains(&(NodeId(0), 0, 1)));
            assert!(got.contains(&(NodeId(5), 0, 2)));
            assert!(got.contains(&(NodeId(0), 1, 3)));
            assert_eq!(got.len(), 3);
        }
    }

    #[test]
    fn init_spoofing_is_ignored() {
        // A node relaying an Init that claims a different origin is ignored.
        let mut rb = ReliableBroadcast::<Payload>::new(NodeId(1), ClusterConfig::new(4));
        let mut out = Outbox::new();
        let delivered = rb.on_message(
            NodeId(2),
            RbMsg::Init {
                origin: NodeId(0),
                tag: 0,
                value: 9,
            },
            &mut out,
        );
        assert!(delivered.is_empty());
        assert!(out.is_empty(), "spoofed init must not trigger an echo");
    }

    #[test]
    fn no_delivery_without_quorum_of_readies() {
        let cluster = ClusterConfig::new(4);
        let mut rb = ReliableBroadcast::<Payload>::new(NodeId(0), cluster);
        let mut out = Outbox::new();
        // Two Ready messages (below the 2f+1 = 3 quorum) do not deliver, but do
        // trigger ready amplification (f+1 = 2).
        let d1 = rb.on_message(
            NodeId(1),
            RbMsg::Ready {
                origin: NodeId(2),
                tag: 0,
                value: 5,
            },
            &mut out,
        );
        assert!(d1.is_empty());
        let d2 = rb.on_message(
            NodeId(2),
            RbMsg::Ready {
                origin: NodeId(2),
                tag: 0,
                value: 5,
            },
            &mut out,
        );
        // After amplification our own ready counts as the third — delivery happens.
        assert_eq!(d2, vec![(NodeId(2), 0, 5)]);
    }

    #[test]
    fn equivocating_origin_does_not_deliver_two_values() {
        // Origin 0 sends Init(1) to node 1 and Init(2) to node 2: echo counts
        // split and neither value can reach a ready quorum with only 4 nodes,
        // or at most one of them can — never both.
        let mut net = Net::new(4);
        // Hand-deliver conflicting inits.
        net.deliver(
            0,
            1,
            RbMsg::Init {
                origin: NodeId(0),
                tag: 0,
                value: 1,
            },
            &[],
        );
        net.deliver(
            0,
            2,
            RbMsg::Init {
                origin: NodeId(0),
                tag: 0,
                value: 2,
            },
            &[],
        );
        net.deliver(
            0,
            3,
            RbMsg::Init {
                origin: NodeId(0),
                tag: 0,
                value: 1,
            },
            &[],
        );
        let values_delivered: HashSet<Payload> =
            net.delivered.iter().flatten().map(|(_, _, v)| *v).collect();
        assert!(
            values_delivered.len() <= 1,
            "agreement violated: {values_delivered:?}"
        );
        assert!(!values_delivered.contains(&2));
    }

    #[test]
    fn wire_size_accounts_for_payload() {
        let m = RbMsg::Init {
            origin: NodeId(0),
            tag: 0,
            value: 7u64,
        };
        // variant tag + origin + tag + payload
        assert_eq!(m.encoded_len(), 1 + 4 + 8 + 8);
    }

    #[test]
    fn codec_roundtrips_every_variant() {
        let variants = [
            RbMsg::Init {
                origin: NodeId(1),
                tag: 9,
                value: 7u64,
            },
            RbMsg::Echo {
                origin: NodeId(2),
                tag: u64::MAX,
                value: 0,
            },
            RbMsg::Ready {
                origin: NodeId(3),
                tag: 0,
                value: 42,
            },
        ];
        for m in variants {
            let bytes = m.encode();
            assert_eq!(RbMsg::<u64>::decode(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn codec_rejects_unknown_discriminants() {
        let mut bytes = RbMsg::Init {
            origin: NodeId(0),
            tag: 0,
            value: 1u64,
        }
        .encode();
        bytes[0] = 0xEE;
        assert!(matches!(
            RbMsg::<u64>::decode(&bytes),
            Err(fireledger_types::CodecError::BadTag { what: "RbMsg", .. })
        ));
    }
}
