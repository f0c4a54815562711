//! The client-facing RPC front end (WIRE_FORMAT.md §11).
//!
//! Each node of a socket-mesh [`crate::RealtimeCluster`] can serve a client
//! listener: real `TcpStream`s carrying [`RpcMsg`] frames — the same 9-byte
//! frame header and strict validation as the inter-node mesh, but a
//! *request/reply* discipline instead of a full-duplex protocol stream.
//! [`crate::RealtimeCluster::rpc_call`] is the in-process client a driver
//! uses to reach it.
//!
//! The transport is deliberately policy-free: every decoded message goes to
//! an [`RpcHandler`] (implemented by the runtime layer over the admission
//! gate in `fireledger-core`), and an accepted submission is handed to the
//! node through the same event channel client transactions always used. The
//! one policy the transport does own is *how connections die*: a framing or
//! codec violation is answered with a typed [`RpcMsg::Reject`] before the
//! close, never a silent teardown — a client that sends garbage learns it
//! sent garbage.

use crate::frame::{read_frame_into, write_frame};
use fireledger_types::rpc::{RejectReason, RpcMsg};
use fireledger_types::{NodeId, Transaction, WireCodec};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Live client connections one node's listener serves concurrently. A
/// connection past this bound is refused *at accept* with a typed
/// [`RpcMsg::Reject`] `{ Busy }` before the socket closes — a client flood
/// can no longer spawn unbounded server threads; it gets told to back off.
/// The bound is per node, so cluster-wide RPC threads stay O(n).
pub const MAX_RPC_CONNS_PER_NODE: usize = 64;

/// Serves decoded client RPCs for a node.
///
/// Implementations decide admission (dedup, rate limits, lane shedding,
/// availability) and return the reply to send; a `Some` transaction means
/// the submission was accepted and must be handed to the node. The same
/// handler serves every runtime's transport.
pub trait RpcHandler: Send + Sync {
    /// Handles one client message addressed to `node`.
    fn handle(&self, node: NodeId, msg: &RpcMsg) -> (RpcMsg, Option<Transaction>);
}

/// Maps a frame-read failure to the reject the client is told before the
/// connection closes.
fn classify(e: &io::Error) -> RejectReason {
    if e.kind() == io::ErrorKind::InvalidData {
        // `FrameHeader::decode` distinguishes oversized lengths ("exceeds
        // MAX_FRAME_LEN") from magic/version violations.
        if e.to_string().contains("exceeds") {
            RejectReason::Oversized
        } else {
            RejectReason::BadFrame
        }
    } else {
        RejectReason::BadFrame
    }
}

/// Writes a typed reject frame and closes the connection.
fn reject_and_close(mut stream: TcpStream, reason: RejectReason) {
    let reject = RpcMsg::Reject { reason };
    let _ = write_frame(&mut stream, &reject.encode());
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

/// Serves one client connection: read a frame, decode, dispatch, reply.
/// Returns on clean close, on the server's stop flag, or after answering a
/// protocol violation with a typed reject.
fn serve_conn(
    mut stream: TcpStream,
    node: NodeId,
    handler: &dyn RpcHandler,
    submit: &dyn Fn(Transaction),
    stop: &AtomicBool,
) {
    // A periodic read timeout lets an idle connection observe the stop
    // flag; frame reads resume transparently (idle means no partial frame).
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut payload = Vec::new();
    loop {
        let len = match read_frame_into(&mut stream, &mut payload) {
            Ok(Some(len)) => len,
            Ok(None) => return,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(e) => {
                // Oversized length, bad magic, wrong version, torn frame:
                // tell the client why before hanging up.
                reject_and_close(stream, classify(&e));
                return;
            }
        };
        let msg = match RpcMsg::decode(&payload[..len]) {
            Ok(msg) => msg,
            Err(_) => {
                // A well-framed payload that is not a client verb.
                reject_and_close(stream, RejectReason::BadMessage);
                return;
            }
        };
        let (reply, tx) = handler.handle(node, &msg);
        if let Some(tx) = tx {
            submit(tx);
        }
        if write_frame(&mut stream, &reply.encode())
            .and_then(|()| stream.flush())
            .is_err()
        {
            return;
        }
    }
}

/// The per-node client listeners of a cluster: one `TcpListener` per node,
/// an accept thread each, and a **bounded** pool of connection threads —
/// at most [`MAX_RPC_CONNS_PER_NODE`] live connections per node, the rest
/// refused at accept with a typed `Busy` reject.
pub struct RpcServer {
    addrs: Vec<SocketAddr>,
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
}

impl RpcServer {
    /// Binds one loopback listener per submitter and starts the accept
    /// threads. `submitters[i]` receives the transactions node `i`'s
    /// handler accepts.
    pub(crate) fn spawn<S>(handler: Arc<dyn RpcHandler>, submitters: Vec<S>) -> io::Result<Self>
    where
        S: Fn(Transaction) + Clone + Send + 'static,
    {
        Self::spawn_limited(handler, submitters, MAX_RPC_CONNS_PER_NODE)
    }

    /// [`RpcServer::spawn`] with an explicit per-node connection bound
    /// (test hook — production listeners use the documented default).
    pub(crate) fn spawn_limited<S>(
        handler: Arc<dyn RpcHandler>,
        submitters: Vec<S>,
        limit: usize,
    ) -> io::Result<Self>
    where
        S: Fn(Transaction) + Clone + Send + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let mut addrs = Vec::with_capacity(submitters.len());
        let mut handles = Vec::with_capacity(submitters.len());
        for (i, submit) in submitters.into_iter().enumerate() {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            addrs.push(listener.local_addr()?);
            let node = NodeId(i as u32);
            let handler = handler.clone();
            let stop = stop.clone();
            let live = Arc::new(AtomicUsize::new(0));
            handles.push(std::thread::spawn(move || {
                let mut conns: Vec<JoinHandle<()>> = Vec::new();
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let _ = stream.set_nodelay(true);
                    // Reap finished connection threads so the handle list
                    // is bounded by the pool, not by connections served.
                    conns.retain(|c| !c.is_finished());
                    if live.load(Ordering::SeqCst) >= limit {
                        // Pool full: typed refusal at accept, before any
                        // request is read. No thread is spawned.
                        reject_and_close(stream, RejectReason::Busy);
                        continue;
                    }
                    live.fetch_add(1, Ordering::SeqCst);
                    let handler = handler.clone();
                    let submit = submit.clone();
                    let stop = stop.clone();
                    let live = live.clone();
                    conns.push(std::thread::spawn(move || {
                        serve_conn(stream, node, handler.as_ref(), &submit, &stop);
                        live.fetch_sub(1, Ordering::SeqCst);
                    }));
                }
                for c in conns {
                    let _ = c.join();
                }
            }));
        }
        Ok(RpcServer {
            addrs,
            stop,
            handles,
        })
    }

    /// The listening address of each node's client endpoint.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Accept threads the server runs (one per node). Connection threads
    /// are transient and bounded per node; they are not counted here.
    pub(crate) fn accept_threads(&self) -> usize {
        self.handles.len()
    }

    /// Stops the accept threads and joins every connection thread.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake each accept loop with a throwaway dial.
        for addr in &self.addrs {
            let _ = TcpStream::connect(addr);
        }
        for h in self.handles {
            let _ = h.join();
        }
    }
}

/// A framed request/reply client for one node's RPC endpoint — what the
/// load generator's TCP port and the ingress tests speak.
pub struct RpcClient {
    stream: TcpStream,
    payload: Vec<u8>,
}

impl RpcClient {
    /// Connects to a node's client endpoint.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(RpcClient {
            stream,
            payload: Vec::new(),
        })
    }

    /// Sends one request and blocks for its reply. A typed server reject
    /// comes back as `Ok(RpcMsg::Reject { .. })`; transport failures are
    /// `Err`.
    pub fn call(&mut self, msg: &RpcMsg) -> io::Result<RpcMsg> {
        write_frame(&mut self.stream, &msg.encode())?;
        self.stream.flush()?;
        match read_frame_into(&mut self.stream, &mut self.payload)? {
            Some(len) => RpcMsg::decode(&self.payload[..len])
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireledger_types::codec::{FrameHeader, FRAME_MAGIC, MAX_FRAME_LEN, WIRE_VERSION};
    use fireledger_types::rpc::{Lane, SubmitStatus};
    use std::sync::Mutex;

    impl RpcClient {
        /// Writes raw bytes on the connection — for malformed-frame
        /// behaviour — then reads one reply frame like [`RpcClient::call`].
        fn call_raw(&mut self, bytes: &[u8]) -> io::Result<RpcMsg> {
            self.stream.write_all(bytes)?;
            self.stream.flush()?;
            match read_frame_into(&mut self.stream, &mut self.payload)? {
                Some(len) => RpcMsg::decode(&self.payload[..len])
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
                None => Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )),
            }
        }
    }

    /// Accepts everything; ticket = seq. Lets the transport be tested
    /// without the admission layer.
    struct AcceptAllRpc;
    impl RpcHandler for AcceptAllRpc {
        fn handle(&self, _node: NodeId, msg: &RpcMsg) -> (RpcMsg, Option<Transaction>) {
            match msg {
                RpcMsg::Submit {
                    client,
                    seq,
                    payload,
                    ..
                } => (
                    RpcMsg::SubmitAck {
                        client: *client,
                        seq: *seq,
                        status: SubmitStatus::Accepted { ticket: *seq },
                    },
                    Some(Transaction::new(*client, *seq, payload.clone())),
                ),
                _ => (
                    RpcMsg::Reject {
                        reason: RejectReason::BadMessage,
                    },
                    None,
                ),
            }
        }
    }

    fn server() -> (RpcServer, Arc<Mutex<Vec<Transaction>>>) {
        let seen: Arc<Mutex<Vec<Transaction>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let submit = move |tx: Transaction| sink.lock().unwrap().push(tx);
        let server = RpcServer::spawn(Arc::new(AcceptAllRpc), vec![submit]).expect("bind");
        (server, seen)
    }

    #[test]
    fn submit_roundtrip_reaches_the_submitter() {
        let (server, seen) = server();
        let mut client = RpcClient::connect(server.addrs()[0]).expect("connect");
        let reply = client
            .call(&RpcMsg::Submit {
                client: 9,
                seq: 1,
                lane: Lane::Normal,
                payload: vec![1, 2, 3],
            })
            .expect("call");
        assert_eq!(
            reply,
            RpcMsg::SubmitAck {
                client: 9,
                seq: 1,
                status: SubmitStatus::Accepted { ticket: 1 }
            }
        );
        assert_eq!(
            seen.lock().unwrap().as_slice(),
            &[Transaction::new(9, 1, vec![1, 2, 3])]
        );
        server.shutdown();
    }

    #[test]
    fn bad_magic_frame_gets_a_typed_reject_before_close() {
        let (server, _) = server();
        let mut client = RpcClient::connect(server.addrs()[0]).expect("connect");
        let mut junk = FrameHeader::new(1).encode().to_vec();
        junk[0] = b'Z';
        junk.push(0);
        let reply = client.call_raw(&junk).expect("reject frame expected");
        assert_eq!(
            reply,
            RpcMsg::Reject {
                reason: RejectReason::BadFrame
            }
        );
        server.shutdown();
    }

    #[test]
    fn oversized_frame_gets_a_typed_reject_before_close() {
        let (server, _) = server();
        let mut client = RpcClient::connect(server.addrs()[0]).expect("connect");
        let mut junk = Vec::new();
        junk.extend_from_slice(&FRAME_MAGIC);
        junk.push(WIRE_VERSION);
        junk.extend_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
        let reply = client.call_raw(&junk).expect("reject frame expected");
        assert_eq!(
            reply,
            RpcMsg::Reject {
                reason: RejectReason::Oversized
            }
        );
        server.shutdown();
    }

    #[test]
    fn undecodable_payload_gets_a_typed_reject_before_close() {
        let (server, _) = server();
        let mut client = RpcClient::connect(server.addrs()[0]).expect("connect");
        // A perfectly framed payload with an unknown RPC discriminant.
        let mut junk = FrameHeader::new(1).encode().to_vec();
        junk.push(0xEE);
        let reply = client.call_raw(&junk).expect("reject frame expected");
        assert_eq!(
            reply,
            RpcMsg::Reject {
                reason: RejectReason::BadMessage
            }
        );
        server.shutdown();
    }

    #[test]
    fn idle_connections_do_not_block_shutdown() {
        let (server, _) = server();
        let _client = RpcClient::connect(server.addrs()[0]).expect("connect");
        // The connection stays open and idle; shutdown must still join.
        server.shutdown();
    }

    #[test]
    fn full_accept_pool_refuses_with_typed_busy_and_recovers() {
        let seen: Arc<Mutex<Vec<Transaction>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let submit = move |tx: Transaction| sink.lock().unwrap().push(tx);
        let server =
            RpcServer::spawn_limited(Arc::new(AcceptAllRpc), vec![submit], 2).expect("bind");
        let addr = server.addrs()[0];

        let submit_msg = |seq| RpcMsg::Submit {
            client: 5,
            seq,
            lane: Lane::Normal,
            payload: vec![],
        };
        // Fill the pool; a round-trip each proves both were truly accepted.
        let mut c1 = RpcClient::connect(addr).expect("connect");
        let mut c2 = RpcClient::connect(addr).expect("connect");
        c1.call(&submit_msg(1)).expect("pool slot 1");
        c2.call(&submit_msg(2)).expect("pool slot 2");

        // The third connection is refused at accept with a typed Busy —
        // read it straight off the raw stream (nothing was even sent).
        let mut extra = TcpStream::connect(addr).expect("connect");
        let frame = crate::frame::read_frame(&mut extra)
            .expect("read reject")
            .expect("reject frame");
        assert_eq!(
            RpcMsg::decode(&frame).expect("decode reject"),
            RpcMsg::Reject {
                reason: RejectReason::Busy
            }
        );

        // Closing a pooled connection frees its slot: a retrying client
        // gets in once the server reaps the finished thread.
        drop(c1);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let reply = loop {
            if let Ok(mut c3) = RpcClient::connect(addr) {
                // A Busy reject here means the freed slot isn't reaped yet;
                // keep retrying until a real ack (or the deadline).
                if let Ok(reply @ RpcMsg::SubmitAck { .. }) = c3.call(&submit_msg(3)) {
                    break reply;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "freed pool slot never became usable"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        assert_eq!(
            reply,
            RpcMsg::SubmitAck {
                client: 5,
                seq: 3,
                status: SubmitStatus::Accepted { ticket: 3 }
            }
        );
        server.shutdown();
    }
}
