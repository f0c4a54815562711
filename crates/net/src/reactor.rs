//! The event-driven socket engine: a small fixed pool of reactor threads
//! multiplexing every peer connection in the mesh.
//!
//! A reader and a writer thread per stream would cost O(n²) threads
//! cluster-wide and cap realistic cluster sizes in the single digits (the
//! engine PR 10 replaced; its before/after rows are in
//! `BENCH_throughput.json`). Instead, [`DEFAULT_REACTOR_THREADS`] **reactor
//! threads** each own a static partition of the mesh's connections and
//! drive them with nonblocking I/O:
//!
//! * every stream is `set_nonblocking(true)` and wrapped in a [`Conn`];
//! * a reactor thread sweeps its connections in a loop, advancing each
//!   connection's **read state machine** ([`FrameReader`]: resumable
//!   partial-frame accumulation into a grow-only payload buffer) and
//!   **write state machine** ([`WriteCursor`]: the drain-and-coalesce
//!   batching of `write_coalesced`, made resumable across `WouldBlock`);
//! * when a sweep makes no progress the thread backs off — first yielding,
//!   then sleeping — so an idle cluster costs ~0 CPU while a loaded one
//!   never sleeps.
//!
//! Frames enter through the per-connection mpsc outbox that
//! [`crate::tcp`]'s egress (and the fault shim's delay line) feed, and
//! decoded messages leave through the node's event queue. Total cluster
//! threads are `n + DEFAULT_REACTOR_THREADS`.
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

/// Size of the reactor pool (at most one thread per connection).
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
/// both direction's state machines, the outbox the egress feeds, and the
/// event queue decoded messages drain into.
///
/// The read and write halves fail independently: a framing violation kills
/// only the read half; a write error kills only the write half.
pub(crate) struct Conn<M> {
    pub(crate) stream: TcpStream,
    /// The peer on the far end (the `from` of every decoded message).
    pub(crate) peer: NodeId,
    /// The local node this connection belongs to (for log messages).
    pub(crate) local: NodeId,
    pub(crate) outbox: Receiver<Arc<Vec<u8>>>,
    pub(crate) evt_tx: Sender<NodeEvent<M>>,
    pub(crate) reader: FrameReader,
    pub(crate) writer: WriteCursor,
    read_dead: bool,
    write_dead: bool,
    /// Set when every outbox sender is gone (cluster tearing down): once the
    /// in-flight batch drains there will never be more to write.
    outbox_gone: bool,
    /// Set when the node's event queue is gone: keep *consuming* frames so
    /// peers aren't back-pressured into a stall, but stop decoding them.
    evt_gone: bool,
}

impl<M: WireCodec> Conn<M> {
    pub(crate) fn new(
        stream: TcpStream,
        peer: NodeId,
        local: NodeId,
        outbox: Receiver<Arc<Vec<u8>>>,
        evt_tx: Sender<NodeEvent<M>>,
    ) -> Self {
        Conn {
            stream,
            peer,
            local,
            outbox,
            evt_tx,
            reader: FrameReader::new(),
            writer: WriteCursor::new(),
            read_dead: false,
            write_dead: false,
            outbox_gone: false,
            evt_gone: false,
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

    /// Advances the read half; returns true when any progress was made.
    fn poll_read(&mut self) -> bool {
        if self.read_dead {
            return false;
        }
        let mut progress = false;
        for _ in 0..READ_BUDGET_FRAMES {
            match self.reader.step(&mut self.stream) {
                Ok(ReadStep::Frame(len)) => {
                    progress = true;
                    if self.evt_gone {
                        continue; // drain-and-discard: keep the peer unblocked
                    }
                    let backing =
                        fireledger_types::Bytes::copy_from_slice(&self.reader.payload()[..len]);
                    match M::decode_shared(&backing) {
                        Ok(msg) => {
                            let from = self.peer;
                            if self.evt_tx.send(NodeEvent::Message { from, msg }).is_err() {
                                self.evt_gone = true;
                            }
                        }
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

/// The reactor pool: `k` threads, each sweeping a static partition of the
/// mesh's connections.
pub(crate) struct Reactor {
    handles: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
}

impl Reactor {
    /// Partitions `conns` round-robin over `threads` reactor threads and
    /// starts them. Connections must already be nonblocking.
    pub(crate) fn spawn<M>(conns: Vec<Conn<M>>, threads: usize, max_batch: usize) -> Self
    where
        M: WireCodec + Send + Sync + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let k = threads.max(1).min(conns.len().max(1));
        let mut buckets: Vec<Vec<Conn<M>>> = (0..k).map(|_| Vec::new()).collect();
        for (idx, conn) in conns.into_iter().enumerate() {
            buckets[idx % k].push(conn);
        }
        let handles = buckets
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
                        for conn in bucket.iter_mut() {
                            progress |= conn.poll_write(max_batch);
                            progress |= conn.poll_read();
                            all_done &= conn.done();
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

    /// Threads in the pool.
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
}
