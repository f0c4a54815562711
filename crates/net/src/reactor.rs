//! The event-driven socket engine: a small fixed pool of reactor threads
//! multiplexing every peer connection in the mesh.
//!
//! A reader and a writer thread per stream would cost O(n²) threads
//! cluster-wide and cap realistic cluster sizes in the single digits (the
//! engine this one replaced; `tests/tests/scale_matrix.rs` pins the O(n)
//! count). Instead, [`DEFAULT_REACTOR_THREADS`] **reactor
//! threads** drive the mesh with nonblocking I/O, partitioned **by local
//! node**: every connection of node `i` belongs to thread `i % k`:
//!
//! * every stream is `set_nonblocking(true)` and wrapped in a [`Conn`];
//! * a reactor thread sweeps its nodes in a loop, advancing each of a
//!   node's connections' **read state machine** ([`FrameReader`]:
//!   resumable partial-frame accumulation into a grow-only payload buffer)
//!   and **write state machine** ([`WriteCursor`]: the drain-and-coalesce
//!   batching of `write_coalesced`, made resumable across `WouldBlock`);
//! * everything a sweep decoded for one node reaches that node's event
//!   queue as **one** [`NodeEvent::Batch`] — one wakeup of the node thread
//!   per sweep instead of one per frame, which at n = 16 (240 votes per
//!   block) is most of the runtime's cost. A link's frames keep their order
//!   inside a batch, and a thread's batches arrive in sweep order;
//! * when a sweep makes no progress the thread backs off — first yielding,
//!   then sleeping — so an idle cluster costs ~0 CPU while a loaded one
//!   never sleeps.
//!
//! Frames enter through the per-connection mpsc outbox that
//! [`crate::tcp`]'s egress (and the fault shim's delay line) feed. Total
//! cluster threads are `n + DEFAULT_REACTOR_THREADS` (fewer reactor threads
//! only when there are fewer nodes than that).
//!
//! This is std-only by design (no epoll/kqueue binding): readiness is
//! discovered by attempting the nonblocking syscall and treating
//! `WouldBlock` as "not ready". For the mesh sizes this runtime targets
//! (n ≤ 64, a few thousand sockets) a sweep is cheap, and the adaptive
//! backoff keeps the idle cost negligible.

use crate::node_loop::NodeEvent;
use fireledger_types::codec::{FrameHeader, FRAME_HEADER_LEN};
use fireledger_types::{NodeId, WireCodec};
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Size of the reactor pool (at most one thread per node).
///
/// Four threads saturate a localhost mesh well past n = 64 while staying
/// below the core count of small CI hosts.
pub const DEFAULT_REACTOR_THREADS: usize = 4;

/// Frames decoded per connection per sweep before the reactor moves on —
/// bounds how long one hot peer can starve the rest of the partition.
const READ_BUDGET_FRAMES: usize = 64;

/// Outbox refills per connection per sweep (each up to `MAX_BATCH_FRAMES`
/// frames) — the write-side fairness bound.
const WRITE_BUDGET_BATCHES: usize = 2;

/// Idle sweeps before the reactor starts sleeping instead of yielding.
const SPIN_SWEEPS: u32 = 16;

/// How long an idle reactor thread sleeps between sweeps once past
/// [`SPIN_SWEEPS`]. Bounds added latency when traffic resumes.
const IDLE_SLEEP: Duration = Duration::from_micros(100);

/// The socket engine of a TCP cluster — there is one, this reactor with
/// [`DEFAULT_REACTOR_THREADS`] threads, so the type carries nothing.
///
/// Vestigial: it survives only because the repo benchmark passes
/// `ClusterBuilder::tcp_engine()` to `RealtimeCluster::spawn_engine`; the
/// next `[benchmark]` PR drops the parameter and this type with it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TcpEngine;

/// What one [`FrameReader::step`] call produced.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum ReadStep {
    /// A complete frame: the payload is in `reader.payload()[..len]`.
    Frame(usize),
    /// The socket has no more bytes right now; resume on the next sweep.
    WouldBlock,
    /// Clean end of stream, exactly at a frame boundary.
    Closed,
}

/// Resumable frame reader: the state machine form of
/// [`read_frame_into`](crate::frame::read_frame_into).
///
/// Unlike the blocking reader it can be suspended at *any* byte — mid-header
/// or mid-payload — when the socket returns `WouldBlock`, and picked up on a
/// later sweep exactly where it left off. The payload buffer is grow-only,
/// so steady state reads allocate nothing, and validation (magic, version,
/// [`MAX_FRAME_LEN`](fireledger_types::codec::MAX_FRAME_LEN)) is identical
/// to the blocking path.
pub(crate) struct FrameReader {
    header: [u8; FRAME_HEADER_LEN],
    /// Bytes of the current header already read (meaningful while
    /// `target.is_none()`).
    filled: usize,
    payload: Vec<u8>,
    /// `Some(len)` while reading a payload of `len` bytes; `filled` then
    /// counts payload bytes.
    target: Option<usize>,
}

impl FrameReader {
    pub(crate) fn new() -> Self {
        FrameReader {
            header: [0u8; FRAME_HEADER_LEN],
            filled: 0,
            payload: Vec::new(),
            target: None,
        }
    }

    /// The payload buffer; after `Ok(ReadStep::Frame(len))` the frame's
    /// bytes are `&payload()[..len]`.
    pub(crate) fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Advances the state machine as far as the socket allows: at most one
    /// complete frame, or up to the point the socket would block.
    pub(crate) fn step(&mut self, r: &mut impl Read) -> io::Result<ReadStep> {
        loop {
            match self.target {
                None => {
                    // Header phase.
                    match r.read(&mut self.header[self.filled..]) {
                        Ok(0) if self.filled == 0 => return Ok(ReadStep::Closed),
                        Ok(0) => {
                            return Err(io::Error::new(
                                io::ErrorKind::UnexpectedEof,
                                "stream closed inside a frame header",
                            ))
                        }
                        Ok(k) => self.filled += k,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            return Ok(ReadStep::WouldBlock)
                        }
                        Err(e) => return Err(e),
                    }
                    if self.filled == FRAME_HEADER_LEN {
                        let header = FrameHeader::decode(&self.header)
                            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                        let len = header.len as usize;
                        if self.payload.len() < len {
                            self.payload.resize(len, 0);
                        }
                        self.filled = 0;
                        self.target = Some(len);
                    }
                }
                Some(len) => {
                    // Payload phase.
                    if self.filled == len {
                        self.filled = 0;
                        self.target = None;
                        return Ok(ReadStep::Frame(len));
                    }
                    match r.read(&mut self.payload[self.filled..len]) {
                        Ok(0) => {
                            return Err(io::Error::new(
                                io::ErrorKind::UnexpectedEof,
                                "stream closed inside a frame payload",
                            ))
                        }
                        Ok(k) => self.filled += k,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            return Ok(ReadStep::WouldBlock)
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        }
    }
}

/// Resumable batch writer: the state machine form of
/// [`write_coalesced`](crate::frame::write_coalesced).
///
/// Holds a drained batch of pre-encoded frames plus a `(index, offset)`
/// cursor; each [`WriteCursor::step`] re-issues the unwritten remainder as
/// one vectored write and advances the cursor past whatever the kernel
/// accepted, so a `WouldBlock` mid-batch suspends the write and a later
/// sweep resumes at the exact byte.
pub(crate) struct WriteCursor {
    batch: Vec<Arc<Vec<u8>>>,
    /// First frame not fully written.
    idx: usize,
    /// Bytes of `batch[idx]` already written.
    off: usize,
}

impl WriteCursor {
    pub(crate) fn new() -> Self {
        WriteCursor {
            batch: Vec::new(),
            idx: 0,
            off: 0,
        }
    }

    /// True when every queued frame has been handed to the kernel.
    pub(crate) fn is_drained(&self) -> bool {
        self.idx >= self.batch.len()
    }

    /// Replaces the (fully drained) batch with up to `cap` frames from the
    /// outbox. Returns how many frames were taken and whether the outbox was
    /// observed *disconnected* (every sender dropped and the queue drained —
    /// `try_recv` only reports it once both hold). The caller must take the
    /// verdict from here rather than probing the channel again: a second
    /// `try_recv` could race a late producer (the delay line re-injecting a
    /// held frame) and steal a frame the next refill was owed.
    pub(crate) fn refill(&mut self, outbox: &Receiver<Arc<Vec<u8>>>, cap: usize) -> (usize, bool) {
        debug_assert!(self.is_drained(), "refill with frames still in flight");
        self.batch.clear();
        self.idx = 0;
        self.off = 0;
        let mut disconnected = false;
        while self.batch.len() < cap {
            match outbox.try_recv() {
                Ok(frame) => self.batch.push(frame),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        (self.batch.len(), disconnected)
    }

    /// Queues frames directly (tests and single-producer paths).
    #[cfg(test)]
    pub(crate) fn push(&mut self, frame: Arc<Vec<u8>>) {
        self.batch.push(frame);
    }

    /// Issues vectored writes until the batch drains or the socket blocks.
    /// Returns the bytes accepted by this call; check
    /// [`WriteCursor::is_drained`] to distinguish "done" from "blocked".
    pub(crate) fn step(&mut self, w: &mut impl Write) -> io::Result<usize> {
        let mut wrote = 0;
        loop {
            // Skip exhausted (or empty) frames.
            while self.idx < self.batch.len() && self.batch[self.idx].len() == self.off {
                self.idx += 1;
                self.off = 0;
            }
            if self.is_drained() {
                return Ok(wrote);
            }
            let mut slices = Vec::with_capacity(self.batch.len() - self.idx);
            slices.push(IoSlice::new(&self.batch[self.idx][self.off..]));
            slices.extend(self.batch[self.idx + 1..].iter().map(|f| IoSlice::new(f)));
            let written = match w.write_vectored(&slices) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "peer accepted zero bytes of a frame batch",
                    ))
                }
                Ok(k) => k,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(wrote),
                Err(e) => return Err(e),
            };
            wrote += written;
            // Advance (idx, off) past the bytes the kernel accepted.
            let mut remaining = written;
            while remaining > 0 {
                let avail = self.batch[self.idx].len() - self.off;
                let step = remaining.min(avail);
                self.off += step;
                remaining -= step;
                if self.off == self.batch[self.idx].len() {
                    self.idx += 1;
                    self.off = 0;
                }
            }
        }
    }
}

/// One mesh connection as the reactor sees it: the nonblocking stream plus
/// both direction's state machines and the outbox the egress feeds.
///
/// The read and write halves fail independently: a framing violation kills
/// only the read half; a write error kills only the write half.
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    /// The peer on the far end (the `from` of every decoded message).
    pub(crate) peer: NodeId,
    /// The local node this connection belongs to: its messages go to that
    /// node's event queue, and it picks the reactor thread.
    pub(crate) local: NodeId,
    pub(crate) outbox: Receiver<Arc<Vec<u8>>>,
    pub(crate) reader: FrameReader,
    pub(crate) writer: WriteCursor,
    read_dead: bool,
    write_dead: bool,
    /// Set when every outbox sender is gone (cluster tearing down): once the
    /// in-flight batch drains there will never be more to write.
    outbox_gone: bool,
}

impl Conn {
    pub(crate) fn new(
        stream: TcpStream,
        peer: NodeId,
        local: NodeId,
        outbox: Receiver<Arc<Vec<u8>>>,
    ) -> Self {
        Conn {
            stream,
            peer,
            local,
            outbox,
            reader: FrameReader::new(),
            writer: WriteCursor::new(),
            read_dead: false,
            write_dead: false,
            outbox_gone: false,
        }
    }

    /// Both halves finished: nothing left to read, nothing left to write.
    fn done(&self) -> bool {
        let write_done = self.write_dead || (self.outbox_gone && self.writer.is_drained());
        self.read_dead && write_done
    }

    /// Advances the write half; returns true when any progress was made.
    fn poll_write(&mut self, max_batch: usize) -> bool {
        if self.write_dead {
            return false;
        }
        let mut progress = false;
        for _ in 0..WRITE_BUDGET_BATCHES {
            if self.writer.is_drained() {
                let (taken, disconnected) = self.writer.refill(&self.outbox, max_batch);
                if disconnected {
                    self.outbox_gone = true;
                }
                if taken == 0 {
                    break;
                }
                progress = true;
            }
            match self.writer.step(&mut self.stream) {
                Ok(wrote) => {
                    progress |= wrote > 0;
                    if !self.writer.is_drained() {
                        break; // WouldBlock mid-batch: resume next sweep.
                    }
                }
                Err(_) => {
                    // Dead peer: the write half is done for good. The read
                    // half keeps going.
                    self.write_dead = true;
                    break;
                }
            }
        }
        progress
    }

    /// Advances the read half, appending each decoded message (tagged with
    /// its sender) to `batch`, or dropping it when `discard` is set; returns
    /// true when any progress was made.
    fn poll_read<M: WireCodec>(&mut self, batch: &mut Vec<(NodeId, M)>, discard: bool) -> bool {
        if self.read_dead {
            return false;
        }
        let mut progress = false;
        for _ in 0..READ_BUDGET_FRAMES {
            match self.reader.step(&mut self.stream) {
                Ok(ReadStep::Frame(len)) => {
                    progress = true;
                    if discard {
                        continue; // drain-and-discard: keep the peer unblocked
                    }
                    let backing =
                        fireledger_types::Bytes::copy_from_slice(&self.reader.payload()[..len]);
                    match M::decode_shared(&backing) {
                        Ok(msg) => batch.push((self.peer, msg)),
                        Err(e) => {
                            eprintln!(
                                "fireledger-net: tearing down link p{} -> p{}: \
                                 undecodable frame ({len} bytes): {e}",
                                self.peer.as_usize(),
                                self.local.as_usize(),
                            );
                            self.read_dead = true;
                            return true;
                        }
                    }
                }
                Ok(ReadStep::WouldBlock) => break,
                Ok(ReadStep::Closed) => {
                    // Clean close: the peer shut down — a benign crash under
                    // the paper's link model.
                    self.read_dead = true;
                    break;
                }
                Err(e) => {
                    if e.kind() == io::ErrorKind::InvalidData {
                        eprintln!(
                            "fireledger-net: tearing down link p{} -> p{}: {e}",
                            self.peer.as_usize(),
                            self.local.as_usize(),
                        );
                    }
                    self.read_dead = true;
                    break;
                }
            }
        }
        progress
    }
}

/// Every connection of one local node, swept by one reactor thread, plus
/// that node's event queue.
struct NodeGroup<M> {
    evt_tx: Sender<NodeEvent<M>>,
    /// Set when the node's event queue is gone: keep *consuming* frames so
    /// peers aren't back-pressured into a stall, but stop decoding them.
    evt_gone: bool,
    conns: Vec<Conn>,
    /// Messages decoded in the current sweep, in per-link order.
    batch: Vec<(NodeId, M)>,
}

impl<M: WireCodec> NodeGroup<M> {
    fn new(evt_tx: Sender<NodeEvent<M>>) -> Self {
        NodeGroup {
            evt_tx,
            evt_gone: false,
            conns: Vec::new(),
            batch: Vec::new(),
        }
    }

    /// Advances every connection once, then hands everything decoded to the
    /// node as one [`NodeEvent::Batch`] — one wakeup per sweep, not one per
    /// frame. Returns true when any progress was made.
    fn sweep(&mut self, max_batch: usize) -> bool {
        let mut progress = false;
        for conn in &mut self.conns {
            progress |= conn.poll_write(max_batch);
            progress |= conn.poll_read(&mut self.batch, self.evt_gone);
        }
        if !self.batch.is_empty() {
            // Sized like this sweep's batch: steady state is one allocation
            // per handed-over batch.
            let len = self.batch.len();
            let batch = std::mem::replace(&mut self.batch, Vec::with_capacity(len));
            if self.evt_tx.send(NodeEvent::Batch(batch)).is_err() {
                self.evt_gone = true;
            }
        }
        progress
    }

    fn done(&self) -> bool {
        self.conns.iter().all(Conn::done)
    }
}

/// Deals `conns` out to `k` reactor threads by local node: every connection
/// of node `i` goes to thread `i % k`, in one [`NodeGroup`] fed by
/// `evt_senders[i]`. A pool thread no node maps to gets an empty list.
fn partition<M: WireCodec>(
    conns: Vec<Conn>,
    evt_senders: &[Sender<NodeEvent<M>>],
    k: usize,
) -> Vec<Vec<NodeGroup<M>>> {
    let mut groups: Vec<Option<NodeGroup<M>>> = evt_senders.iter().map(|_| None).collect();
    for conn in conns {
        let i = conn.local.as_usize();
        groups[i]
            .get_or_insert_with(|| NodeGroup::new(evt_senders[i].clone()))
            .conns
            .push(conn);
    }
    let mut buckets: Vec<Vec<NodeGroup<M>>> = (0..k).map(|_| Vec::new()).collect();
    for (i, group) in groups.into_iter().enumerate() {
        if let Some(group) = group {
            buckets[i % k].push(group);
        }
    }
    buckets
}

/// The reactor pool: `k` threads, each sweeping every connection of a
/// static subset of the nodes.
pub(crate) struct Reactor {
    handles: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
}

impl Reactor {
    /// Partitions `conns` by local node over `threads` reactor threads (see
    /// [`partition`]) and starts the threads that got any; decoded messages
    /// for node `i` go to `evt_senders[i]`. Connections must already be
    /// nonblocking.
    pub(crate) fn spawn<M>(
        conns: Vec<Conn>,
        evt_senders: &[Sender<NodeEvent<M>>],
        threads: usize,
        max_batch: usize,
    ) -> Self
    where
        M: WireCodec + Send + Sync + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let handles = partition(conns, evt_senders, threads.max(1))
            .into_iter()
            .filter(|bucket| !bucket.is_empty())
            .map(|mut bucket| {
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut idle_sweeps: u32 = 0;
                    loop {
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        let mut progress = false;
                        let mut all_done = true;
                        for group in bucket.iter_mut() {
                            progress |= group.sweep(max_batch);
                            all_done &= group.done();
                        }
                        if all_done {
                            return;
                        }
                        if progress {
                            idle_sweeps = 0;
                        } else {
                            // Adaptive backoff: spin briefly (cheap wakeups
                            // while traffic is merely bursty), then sleep.
                            idle_sweeps = idle_sweeps.saturating_add(1);
                            if idle_sweeps <= SPIN_SWEEPS {
                                std::thread::yield_now();
                            } else {
                                std::thread::sleep(IDLE_SLEEP);
                            }
                        }
                    }
                })
            })
            .collect();
        Reactor { handles, stop }
    }

    /// Size of the pool.
    pub(crate) fn thread_count(&self) -> usize {
        self.handles.len()
    }

    /// Stops the pool and joins every thread. Call after the sockets have
    /// been shut down, so in-flight syscalls resolve immediately.
    pub(crate) fn stop_and_join(self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A `Read` that serves scripted chunks, returning `WouldBlock` between
    /// them — a socket whose readiness toggles under us.
    struct ChunkedReader {
        chunks: VecDeque<Vec<u8>>,
        /// What to do when the script runs out: block or report EOF.
        eof_at_end: bool,
    }

    impl Read for ChunkedReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.chunks.front_mut() {
                None => {
                    if self.eof_at_end {
                        Ok(0)
                    } else {
                        Err(io::Error::new(io::ErrorKind::WouldBlock, "not ready"))
                    }
                }
                Some(chunk) => {
                    if chunk.is_empty() {
                        // An empty scripted chunk models one WouldBlock.
                        self.chunks.pop_front();
                        return Err(io::Error::new(io::ErrorKind::WouldBlock, "not ready"));
                    }
                    let k = chunk.len().min(buf.len());
                    buf[..k].copy_from_slice(&chunk[..k]);
                    chunk.drain(..k);
                    if chunk.is_empty() {
                        self.chunks.pop_front();
                    }
                    Ok(k)
                }
            }
        }
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = FrameHeader::new(payload.len()).encode().to_vec();
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn partial_frame_resumes_across_wakeups() {
        // One frame dribbled in five chunks with blocks between them,
        // splitting both the header and the payload.
        let wire = framed(b"hello reactor");
        let mut r = ChunkedReader {
            chunks: [&wire[..3], &[][..], &wire[3..10], &[][..], &wire[10..]]
                .into_iter()
                .map(|c| c.to_vec())
                .collect(),
            eof_at_end: true,
        };
        let mut reader = FrameReader::new();
        assert_eq!(reader.step(&mut r).unwrap(), ReadStep::WouldBlock);
        assert_eq!(reader.step(&mut r).unwrap(), ReadStep::WouldBlock);
        assert_eq!(reader.step(&mut r).unwrap(), ReadStep::Frame(13));
        assert_eq!(&reader.payload()[..13], b"hello reactor");
        assert_eq!(reader.step(&mut r).unwrap(), ReadStep::Closed);
    }

    #[test]
    fn back_to_back_frames_in_one_chunk() {
        let mut wire = framed(b"first");
        wire.extend_from_slice(&framed(b"second, longer"));
        wire.extend_from_slice(&framed(b""));
        let mut r = ChunkedReader {
            chunks: [wire].into(),
            eof_at_end: true,
        };
        let mut reader = FrameReader::new();
        assert_eq!(reader.step(&mut r).unwrap(), ReadStep::Frame(5));
        assert_eq!(&reader.payload()[..5], b"first");
        assert_eq!(reader.step(&mut r).unwrap(), ReadStep::Frame(14));
        assert_eq!(&reader.payload()[..14], b"second, longer");
        assert_eq!(reader.step(&mut r).unwrap(), ReadStep::Frame(0));
        assert_eq!(reader.step(&mut r).unwrap(), ReadStep::Closed);
    }

    #[test]
    fn hangup_mid_header_and_mid_payload_are_errors() {
        // EOF three bytes into a header.
        let wire = framed(b"payload");
        let mut r = ChunkedReader {
            chunks: [wire[..3].to_vec()].into(),
            eof_at_end: true,
        };
        let mut reader = FrameReader::new();
        let err = reader.step(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // EOF mid-payload (header complete).
        let mut r = ChunkedReader {
            chunks: [wire[..FRAME_HEADER_LEN + 2].to_vec()].into(),
            eof_at_end: true,
        };
        let mut reader = FrameReader::new();
        let err = reader.step(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // EOF exactly at a frame boundary is a clean close.
        let mut r = ChunkedReader {
            chunks: [framed(b"whole")].into(),
            eof_at_end: true,
        };
        let mut reader = FrameReader::new();
        assert_eq!(reader.step(&mut r).unwrap(), ReadStep::Frame(5));
        assert_eq!(reader.step(&mut r).unwrap(), ReadStep::Closed);
    }

    #[test]
    fn bad_magic_is_invalid_data() {
        let mut wire = framed(b"x");
        wire[0] = b'?';
        let mut r = ChunkedReader {
            chunks: [wire].into(),
            eof_at_end: true,
        };
        let mut reader = FrameReader::new();
        let err = reader.step(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A `Write` that accepts a bounded number of bytes, then `WouldBlock`s
    /// until the allowance is topped up — a socket with a tiny send buffer.
    struct ThrottledWriter {
        accepted: Vec<u8>,
        allowance: usize,
    }

    impl Write for ThrottledWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.allowance == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            let k = buf.len().min(self.allowance);
            self.accepted.extend_from_slice(&buf[..k]);
            self.allowance -= k;
            Ok(k)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_write_resumes_mid_batch_after_wouldblock() {
        let frames: Vec<Arc<Vec<u8>>> = [&b"alpha"[..], b"beta", b"", b"gamma-gamma"]
            .iter()
            .map(|p| Arc::new(framed(p)))
            .collect();
        let expected: Vec<u8> = frames.iter().flat_map(|f| f.iter().copied()).collect();

        let mut w = ThrottledWriter {
            accepted: Vec::new(),
            allowance: 7, // splits the first frame's header
        };
        let mut cursor = WriteCursor::new();
        for f in &frames {
            cursor.push(f.clone());
        }
        assert_eq!(cursor.step(&mut w).unwrap(), 7);
        assert!(!cursor.is_drained());

        // Top the socket up a few bytes at a time until the batch drains —
        // every step resumes at the exact byte the kernel stopped at.
        let mut total = 7;
        while !cursor.is_drained() {
            w.allowance = 9;
            total += cursor.step(&mut w).unwrap();
        }
        assert_eq!(total, expected.len());
        assert_eq!(w.accepted, expected);
    }

    #[test]
    fn dead_peer_fails_the_write() {
        struct DeadWriter;
        impl Write for DeadWriter {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut cursor = WriteCursor::new();
        cursor.push(Arc::new(framed(b"doomed")));
        let err = cursor.step(&mut DeadWriter).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn refill_takes_at_most_cap_frames() {
        let (tx, rx) = std::sync::mpsc::channel::<Arc<Vec<u8>>>();
        for i in 0..10u8 {
            tx.send(Arc::new(framed(&[i]))).unwrap();
        }
        let mut cursor = WriteCursor::new();
        assert_eq!(cursor.refill(&rx, 4), (4, false));
        let mut sink = Vec::new();
        cursor.step(&mut sink).unwrap();
        assert!(cursor.is_drained());
        assert_eq!(cursor.refill(&rx, 100), (6, false));
    }

    #[test]
    fn refill_reports_disconnect_without_eating_late_frames() {
        // An empty-but-connected outbox is "idle", not "gone" — and a frame
        // that lands right after an empty refill (the delay line re-injecting
        // a held frame) must be picked up by the next refill, not swallowed
        // by a separate disconnect probe.
        let (tx, rx) = std::sync::mpsc::channel::<Arc<Vec<u8>>>();
        let mut cursor = WriteCursor::new();
        assert_eq!(cursor.refill(&rx, 8), (0, false));
        tx.send(Arc::new(framed(b"late"))).unwrap();
        assert_eq!(cursor.refill(&rx, 8), (1, false));
        let mut sink = Vec::new();
        cursor.step(&mut sink).unwrap();
        assert!(cursor.is_drained());
        // Only once every sender is gone *and* the queue is drained does
        // refill report the outbox disconnected.
        drop(tx);
        assert_eq!(cursor.refill(&rx, 8), (0, true));
    }

    /// A connected loopback pair: `(dialed, accepted)`.
    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let dialed = TcpStream::connect(listener.local_addr().expect("addr")).expect("dial");
        let (accepted, _) = listener.accept().expect("accept");
        (dialed, accepted)
    }

    /// `stream` as a nonblocking connection of node `local` to `peer`, with
    /// an outbox nothing feeds.
    fn conn(stream: TcpStream, local: u32, peer: u32) -> Conn {
        stream.set_nonblocking(true).expect("nonblocking");
        let (_, outbox) = std::sync::mpsc::channel();
        Conn::new(stream, NodeId(peer), NodeId(local), outbox)
    }

    /// Writes each value as one frame.
    fn send_frames(w: &mut TcpStream, values: &[u64]) {
        for v in values {
            crate::frame::write_frame(w, &v.encode()).expect("write frame");
        }
    }

    /// Blocks until `total` unread bytes sit in `stream`'s receive buffer,
    /// so the next sweep is certain to find them.
    fn wait_readable(stream: &TcpStream, total: usize) {
        let mut buf = vec![0u8; total];
        loop {
            match stream.peek(&mut buf) {
                Ok(k) if k >= total => return,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("peek: {e}"),
            }
            std::thread::yield_now();
        }
    }

    /// Bytes on the wire of `frames` frames carrying a `u64`.
    fn wire_len(frames: usize) -> usize {
        frames * (FRAME_HEADER_LEN + 0u64.encode().len())
    }

    /// The batches waiting in a node's event queue, as `(from, msg)` lists.
    fn batches(rx: &Receiver<NodeEvent<u64>>) -> Vec<Vec<(u32, u64)>> {
        rx.try_iter()
            .map(|event| match event {
                NodeEvent::Batch(items) => items.into_iter().map(|(f, m)| (f.0, m)).collect(),
                _ => panic!("the reactor sends only batches"),
            })
            .collect()
    }

    #[test]
    fn partition_gives_every_connection_of_node_i_to_thread_i_mod_k() {
        // Six nodes, two connections each (the two ends of loopback pairs),
        // dealt out in an order unrelated to the node ids.
        let mut conns = Vec::new();
        let mut keep = Vec::new();
        for i in [5u32, 2, 0, 3, 1, 4] {
            for _ in 0..2 {
                let (dialed, accepted) = loopback_pair();
                conns.push(conn(accepted, i, 9));
                keep.push(dialed);
            }
        }
        let (senders, _receivers): (Vec<_>, Vec<_>) = (0..6)
            .map(|_| std::sync::mpsc::channel::<NodeEvent<u64>>())
            .unzip();
        let buckets = partition(conns, &senders, 4);
        assert_eq!(buckets.len(), 4);
        for (t, bucket) in buckets.iter().enumerate() {
            let nodes: Vec<usize> = bucket
                .iter()
                .map(|group| {
                    let node = group.conns[0].local.as_usize();
                    assert_eq!(group.conns.len(), 2, "node {node} split across groups");
                    assert!(group.conns.iter().all(|c| c.local.as_usize() == node));
                    node
                })
                .collect();
            let expected: Vec<usize> = (0..6).filter(|i| i % 4 == t).collect();
            assert_eq!(nodes, expected, "thread {t}");
        }
    }

    #[test]
    fn one_sweep_hands_a_node_one_batch_in_per_link_order() {
        let (mut from1, at1) = loopback_pair();
        let (mut from2, at2) = loopback_pair();
        send_frames(&mut from1, &[10, 11, 12]);
        send_frames(&mut from2, &[20, 21]);
        wait_readable(&at1, wire_len(3));
        wait_readable(&at2, wire_len(2));

        let (evt_tx, evt_rx) = std::sync::mpsc::channel();
        let mut group = NodeGroup::new(evt_tx);
        group.conns = vec![conn(at1, 0, 1), conn(at2, 0, 2)];
        assert!(group.sweep(8));

        let got = batches(&evt_rx);
        assert_eq!(got.len(), 1, "one sweep, one event: {got:?}");
        let from = |peer: u32| -> Vec<u64> {
            got[0]
                .iter()
                .filter(|(f, _)| *f == peer)
                .map(|(_, m)| *m)
                .collect()
        };
        assert_eq!(from(1), [10, 11, 12]);
        assert_eq!(from(2), [20, 21]);

        // Nothing decoded, nothing sent.
        assert!(!group.sweep(8));
        assert!(batches(&evt_rx).is_empty());
    }

    #[test]
    fn a_gone_event_queue_drains_its_links_and_spares_the_other_nodes() {
        let (mut to_gone, at_gone) = loopback_pair();
        let (mut to_live, at_live) = loopback_pair();
        let gone_probe = at_gone.try_clone().expect("clone");
        let live_probe = at_live.try_clone().expect("clone");
        let (gone_tx, gone_rx) = std::sync::mpsc::channel();
        let (live_tx, live_rx) = std::sync::mpsc::channel();
        drop(gone_rx);
        let mut gone = NodeGroup::new(gone_tx);
        gone.conns = vec![conn(at_gone, 0, 1)];
        let mut live = NodeGroup::new(live_tx);
        live.conns = vec![conn(at_live, 4, 1)];
        // One reactor thread's bucket: nodes 0 and 4 share thread 0 of 4.
        let mut bucket = [gone, live];

        for round in 0..2u64 {
            send_frames(&mut to_gone, &[round, round]);
            send_frames(&mut to_live, &[100 + round]);
            wait_readable(&gone_probe, wire_len(2));
            wait_readable(&live_probe, wire_len(1));
            for group in &mut bucket {
                assert!(group.sweep(8));
            }
            assert!(bucket[0].evt_gone);
            // The gone node's frames were consumed all the same.
            let mut byte = [0u8; 1];
            let unread = gone_probe.peek(&mut byte);
            assert!(
                matches!(&unread, Err(e) if e.kind() == io::ErrorKind::WouldBlock),
                "round {round}: the gone node's link was not drained: {unread:?}"
            );
            assert!(!bucket[0].done(), "draining must not close the link");
            assert_eq!(batches(&live_rx), [vec![(1, 100 + round)]]);
        }
    }
}
