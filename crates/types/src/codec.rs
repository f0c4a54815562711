//! The binary wire codec: [`WireCodec`] and the versioned frame header.
//!
//! This module implements the byte-level encoding specified normatively in
//! `docs/WIRE_FORMAT.md` (repository root) — the spec is the source of truth
//! and this file cites its section numbers; a change to either must change
//! both. The codec is what the TCP runtime (`fireledger-net`) puts on real
//! sockets, and [`framed_len`] — the frame header plus
//! [`WireCodec::encoded_len`] — is the one byte count both that runtime and
//! the simulator use, so a simulated message costs the bytes a socket sends.
//!
//! Core rules (WIRE_FORMAT.md §2):
//!
//! * all multi-byte integers are **fixed-width big-endian** (network byte
//!   order) — the format deliberately uses no varints, so that encoded sizes
//!   are input-independent and decoding is branch-free;
//! * `bool` is one byte, `0x00` or `0x01`; anything else is rejected;
//! * `Option<T>` is a one-byte presence tag (`0x00` absent / `0x01` present)
//!   followed by the payload when present;
//! * sequences are a `u32` element count followed by the elements; a count
//!   exceeding the bytes remaining in the buffer is rejected before any
//!   allocation happens, and decoded elements are accumulated incrementally
//!   so memory grows with the *input actually consumed*, never with the
//!   claimed count;
//! * enums are a one-byte discriminant followed by the variant's fields;
//!   unknown discriminants are rejected.

use crate::block::{Block, BlockHeader, Hash, Signature, SignedHeader};
use crate::bytes::Bytes;
use crate::ids::{NodeId, Round, WorkerId};
use crate::transaction::Transaction;
use std::fmt;

/// Magic bytes opening every frame (WIRE_FORMAT.md §3): ASCII `FLGR`.
pub const FRAME_MAGIC: [u8; 4] = *b"FLGR";

/// The wire-format version this implementation speaks (WIRE_FORMAT.md §1).
///
/// Bumped on any incompatible change to the frame header or to a message
/// layout; a receiver rejects frames whose version byte differs.
///
/// Version 2 extended [`BlockHeader`] with the lagged execution state root
/// (WIRE_FORMAT.md §12): canonical header bytes gained a trailing
/// `Option<Hash>` presence byte, shifting every layout that embeds a header.
pub const WIRE_VERSION: u8 = 2;

/// Upper bound on a frame's payload length in bytes (WIRE_FORMAT.md §3).
///
/// 32 MiB comfortably holds the largest legitimate message (a block of
/// β = 1000 transactions of σ = 4096 bytes is ≈ 4 MiB) while bounding the
/// memory an adversarial or corrupt length prefix can make a receiver
/// allocate.
pub const MAX_FRAME_LEN: u32 = 32 * 1024 * 1024;

/// Size in bytes of the encoded [`FrameHeader`]: magic + version + length.
pub const FRAME_HEADER_LEN: usize = 9;

/// Bytes one message occupies on a link: the frame header plus its payload
/// (WIRE_FORMAT.md §3). The TCP runtime sizes each frame with it and the
/// simulator charges each copy of a message with it.
pub fn framed_len<M: WireCodec>(msg: &M) -> usize {
    FRAME_HEADER_LEN + msg.encoded_len()
}

/// A decoding failure.
///
/// Every variant names the reason precisely so framing tests can assert the
/// exact rejection; the [`fmt::Display`] form is what reaches logs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before a fixed-size field could be read.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// An enum discriminant byte had no defined meaning.
    BadTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending discriminant.
        tag: u8,
    },
    /// A boolean byte was neither `0x00` nor `0x01`.
    BadBool(u8),
    /// A sequence claimed more elements than the buffer can possibly hold.
    BadLength {
        /// The type being decoded.
        what: &'static str,
        /// The claimed element count.
        claimed: u64,
        /// Bytes that were left to satisfy it.
        remaining: usize,
    },
    /// A frame did not start with [`FRAME_MAGIC`].
    BadMagic([u8; 4]),
    /// A frame carried an unsupported [`WIRE_VERSION`].
    BadVersion(u8),
    /// A frame's payload length exceeded [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// Decoding finished with unconsumed input left over.
    Trailing {
        /// Bytes left after the value was decoded.
        remaining: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "truncated input: needed {needed} bytes, {remaining} left"
                )
            }
            CodecError::BadTag { what, tag } => {
                write!(f, "unknown {what} discriminant 0x{tag:02x}")
            }
            CodecError::BadBool(b) => write!(f, "invalid boolean byte 0x{b:02x}"),
            CodecError::BadLength {
                what,
                claimed,
                remaining,
            } => write!(
                f,
                "{what} claims {claimed} elements but only {remaining} bytes remain"
            ),
            CodecError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            CodecError::BadVersion(v) => {
                write!(f, "unsupported wire version {v} (expected {WIRE_VERSION})")
            }
            CodecError::Oversized(len) => {
                write!(f, "frame payload of {len} bytes exceeds {MAX_FRAME_LEN}")
            }
            CodecError::Trailing { remaining } => {
                write!(f, "{remaining} trailing bytes after a complete value")
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for crate::error::Error {
    fn from(e: CodecError) -> Self {
        crate::error::Error::Codec(e.to_string())
    }
}

/// A cursor over a byte buffer being decoded.
///
/// All reads consume from the front and fail with
/// [`CodecError::Truncated`] instead of panicking; a reader that is not
/// [`Reader::is_empty`] after [`WireCodec::decode`] is a protocol error.
///
/// A reader started with [`Reader::new_shared`] additionally carries the
/// `Arc`-backed [`Bytes`] the input lives in; [`Reader::take_bytes`] then
/// hands out zero-copy *views* into that backing instead of copying
/// payloads out — the wire format is identical either way.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    /// The shared buffer `buf` is a suffix of, when decoding zero-copy.
    shared: Option<&'a Bytes>,
}

impl<'a> Reader<'a> {
    /// Starts reading `buf` from its first byte.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, shared: None }
    }

    /// Starts reading `bytes` from its first byte, remembering the shared
    /// backing so byte-payload fields decode as zero-copy views.
    pub fn new_shared(bytes: &'a Bytes) -> Self {
        Reader {
            buf: bytes.as_slice(),
            shared: Some(bytes),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::Truncated {
                needed: n,
                remaining: self.buf.len(),
            });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Consumes a fixed-size byte array.
    pub fn take_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let bytes = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(bytes);
        Ok(out)
    }

    /// Consumes one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Consumes a big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_be_bytes(self.take_array()?))
    }

    /// Consumes a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_be_bytes(self.take_array()?))
    }

    /// Consumes a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_be_bytes(self.take_array()?))
    }

    /// Consumes `n` bytes as an owned [`Bytes`] buffer.
    ///
    /// On a [`Reader::new_shared`] reader this is a zero-copy view into the
    /// shared backing (a reference bump); otherwise the bytes are copied
    /// into a fresh buffer. Decoded values are identical either way.
    pub fn take_bytes(&mut self, n: usize) -> Result<Bytes, CodecError> {
        match self.shared {
            Some(parent) => {
                // Offset of the cursor within the backing: the backing's
                // length minus what is still unread.
                let off = parent.len() - self.buf.len();
                self.take(n)?;
                Ok(parent.slice(off, n))
            }
            None => Ok(Bytes::copy_from_slice(self.take(n)?)),
        }
    }

    /// Consumes a sequence count (`u32` big-endian, WIRE_FORMAT.md §2.4) and
    /// validates it against the bytes remaining: every element encodes to at
    /// least one byte, so a count above [`Reader::remaining`] is corrupt and
    /// is rejected *before* any allocation sized by it.
    pub fn seq_len(&mut self, what: &'static str) -> Result<usize, CodecError> {
        let claimed = self.u32()? as u64;
        if claimed > self.remaining() as u64 {
            return Err(CodecError::BadLength {
                what,
                claimed,
                remaining: self.remaining(),
            });
        }
        Ok(claimed as usize)
    }
}

/// Types with a self-contained binary encoding (WIRE_FORMAT.md).
///
/// `decode_from(encode_to(v)) == v` must hold for every value, and the
/// encoding must be canonical: equal values produce identical bytes. The
/// trait is deliberately allocation-light — encoding appends to a caller-owned
/// buffer and decoding borrows from the input.
///
/// ## Size hints and buffer reuse
///
/// [`WireCodec::encoded_len`] must return *exactly* the number of bytes
/// [`WireCodec::encode_to`] appends (the `codec_api` integration tests
/// enforce this for every protocol message). The exact hint is what makes
/// the two convenience entry points allocation-disciplined:
///
/// * [`WireCodec::encode`] allocates its buffer once, at the right size —
///   no growth reallocations mid-encode;
/// * [`WireCodec::encode_into`] reuses a caller-owned buffer, so
///   steady-state encoding (the same scratch buffer fed back every message)
///   performs **zero** allocations once the buffer has grown to the
///   high-water mark.
pub trait WireCodec: Sized {
    /// Appends this value's encoding to `out`.
    fn encode_to(&self, out: &mut Vec<u8>);

    /// Decodes one value from the front of `r`, consuming exactly the bytes
    /// of its encoding.
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Exact size in bytes of this value's encoding — the number of bytes
    /// [`WireCodec::encode_to`] will append.
    fn encoded_len(&self) -> usize;

    /// This value's encoding as a fresh buffer, allocated once at exactly
    /// [`WireCodec::encoded_len`] bytes.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_to(&mut out);
        debug_assert_eq!(
            out.len(),
            self.encoded_len(),
            "encoded_len must match the bytes encode_to appends"
        );
        out
    }

    /// This value's encoding written into a reused buffer: `buf` is cleared,
    /// grown to at least [`WireCodec::encoded_len`] bytes once, and filled.
    /// Feeding the same buffer back for every message makes steady-state
    /// encoding allocation-free.
    fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.clear();
        buf.reserve(self.encoded_len());
        self.encode_to(buf);
        debug_assert_eq!(
            buf.len(),
            self.encoded_len(),
            "encoded_len must match the bytes encode_to appends"
        );
    }

    /// Decodes a value that must span `bytes` exactly; trailing bytes are a
    /// [`CodecError::Trailing`] error.
    fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let value = Self::decode_from(&mut r)?;
        if !r.is_empty() {
            return Err(CodecError::Trailing {
                remaining: r.remaining(),
            });
        }
        Ok(value)
    }

    /// Like [`WireCodec::decode`], but decodes zero-copy: byte-payload
    /// fields ([`Bytes`], [`Signature`]) become views into `bytes`' shared
    /// backing instead of fresh copies. The decoded value is equal to what
    /// [`WireCodec::decode`] produces; only the storage strategy differs.
    /// This is what the TCP reader threads use — one `Bytes` per received
    /// frame, every transaction payload a window into it.
    fn decode_shared(bytes: &Bytes) -> Result<Self, CodecError> {
        let mut r = Reader::new_shared(bytes);
        let value = Self::decode_from(&mut r)?;
        if !r.is_empty() {
            return Err(CodecError::Trailing {
                remaining: r.remaining(),
            });
        }
        Ok(value)
    }
}

/// The versioned header opening every frame (WIRE_FORMAT.md §3):
/// `FLGR | version u8 | payload length u32`, 9 bytes total.
///
/// The header is defined here, next to the codec, so every transport
/// (today's TCP mesh, tomorrow's QUIC or sharded gossip backends) frames
/// messages identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// Payload length in bytes (at most [`MAX_FRAME_LEN`]).
    pub len: u32,
}

impl FrameHeader {
    /// A header for a payload of `len` bytes.
    ///
    /// # Panics
    /// Panics if `len` exceeds [`MAX_FRAME_LEN`] — a sender producing an
    /// oversized frame is a local logic error, not a peer's misbehaviour.
    pub fn new(len: usize) -> Self {
        assert!(
            len as u64 <= MAX_FRAME_LEN as u64,
            "frame payload of {len} bytes exceeds MAX_FRAME_LEN"
        );
        FrameHeader { len: len as u32 }
    }

    /// Encodes the header into its 9-byte wire form.
    pub fn encode(&self) -> [u8; FRAME_HEADER_LEN] {
        let mut out = [0u8; FRAME_HEADER_LEN];
        out[..4].copy_from_slice(&FRAME_MAGIC);
        out[4] = WIRE_VERSION;
        out[5..9].copy_from_slice(&self.len.to_be_bytes());
        out
    }

    /// Decodes and validates a 9-byte header: magic, version, and the
    /// [`MAX_FRAME_LEN`] bound, in that order.
    pub fn decode(bytes: &[u8; FRAME_HEADER_LEN]) -> Result<Self, CodecError> {
        let magic: [u8; 4] = bytes[..4].try_into().expect("4-byte slice");
        if magic != FRAME_MAGIC {
            return Err(CodecError::BadMagic(magic));
        }
        if bytes[4] != WIRE_VERSION {
            return Err(CodecError::BadVersion(bytes[4]));
        }
        let len = u32::from_be_bytes(bytes[5..9].try_into().expect("4-byte slice"));
        if len > MAX_FRAME_LEN {
            return Err(CodecError::Oversized(len));
        }
        Ok(FrameHeader { len })
    }
}

// --- primitive encodings (WIRE_FORMAT.md §2.1–§2.4) ---

impl WireCodec for u8 {
    fn encode_to(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.u8()
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl WireCodec for u16 {
    fn encode_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.u16()
    }
    fn encoded_len(&self) -> usize {
        2
    }
}

impl WireCodec for u32 {
    fn encode_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.u32()
    }
    fn encoded_len(&self) -> usize {
        4
    }
}

impl WireCodec for u64 {
    fn encode_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.u64()
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl WireCodec for bool {
    fn encode_to(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError::BadBool(b)),
        }
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl<T: WireCodec> WireCodec for Option<T> {
    fn encode_to(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_to(out);
            }
        }
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode_from(r)?)),
            tag => Err(CodecError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, WireCodec::encoded_len)
    }
}

impl<T: WireCodec> WireCodec for Vec<T> {
    fn encode_to(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode_to(out);
        for item in self {
            item.encode_to(out);
        }
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.seq_len("Vec")?;
        // Cap the up-front reservation: `len` is attacker-controlled and an
        // element's in-memory size can exceed its (≥ 1 byte) encoded size, so
        // reserving `len` elements could allocate far more than the input
        // justifies. Growth beyond the cap is paid only as elements actually
        // decode — i.e. proportionally to input consumed.
        const MAX_PREALLOC_ELEMS: usize = 1024;
        let mut items = Vec::with_capacity(len.min(MAX_PREALLOC_ELEMS));
        for _ in 0..len {
            items.push(T::decode_from(r)?);
        }
        Ok(items)
    }
    fn encoded_len(&self) -> usize {
        4 + self.iter().map(WireCodec::encoded_len).sum::<usize>()
    }
}

impl<T: WireCodec> WireCodec for Box<T> {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.as_ref().encode_to(out);
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Box::new(T::decode_from(r)?))
    }
    fn encoded_len(&self) -> usize {
        self.as_ref().encoded_len()
    }
}

impl<A: WireCodec, B: WireCodec> WireCodec for (A, B) {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.0.encode_to(out);
        self.1.encode_to(out);
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode_from(r)?, B::decode_from(r)?))
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
}

impl WireCodec for Bytes {
    fn encode_to(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode_to(out);
        out.extend_from_slice(self.as_slice());
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.seq_len("Bytes")?;
        r.take_bytes(len)
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

// --- workspace types (WIRE_FORMAT.md §4) ---

impl WireCodec for NodeId {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.0.encode_to(out);
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(NodeId(r.u32()?))
    }
    fn encoded_len(&self) -> usize {
        4
    }
}

impl WireCodec for WorkerId {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.0.encode_to(out);
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(WorkerId(r.u32()?))
    }
    fn encoded_len(&self) -> usize {
        4
    }
}

impl WireCodec for Round {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.0.encode_to(out);
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Round(r.u64()?))
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl WireCodec for Hash {
    fn encode_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Hash(r.take_array()?))
    }
    fn encoded_len(&self) -> usize {
        32
    }
}

impl WireCodec for Signature {
    fn encode_to(&self, out: &mut Vec<u8>) {
        (self.0.len() as u32).encode_to(out);
        out.extend_from_slice(&self.0);
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.seq_len("Signature")?;
        // Arc-backed storage: zero-copy on a shared reader, one copy out of
        // the receive buffer otherwise — and every downstream clone of the
        // signature is a reference-count bump either way.
        Ok(Signature(r.take_bytes(len)?))
    }
    fn encoded_len(&self) -> usize {
        4 + self.0.len()
    }
}

impl WireCodec for Transaction {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.client.encode_to(out);
        self.seq.encode_to(out);
        self.payload.encode_to(out);
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Transaction {
            client: r.u64()?,
            seq: r.u64()?,
            payload: Bytes::decode_from(r)?,
        })
    }
    fn encoded_len(&self) -> usize {
        8 + 8 + self.payload.encoded_len()
    }
}

/// The header layout is byte-identical to
/// [`BlockHeader::canonical_bytes`] — the hashing/signing pre-image *is* the
/// wire form, so a receiver verifies signatures over exactly the bytes it
/// received (WIRE_FORMAT.md §4.5).
impl WireCodec for BlockHeader {
    fn encode_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.canonical_bytes());
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let header = BlockHeader::new(
            Round(r.u64()?),
            WorkerId(r.u32()?),
            NodeId(r.u32()?),
            Hash::decode_from(r)?,
            Hash::decode_from(r)?,
            r.u32()?,
            r.u64()?,
        );
        Ok(match Option::<Hash>::decode_from(r)? {
            Some(root) => header.with_exec_root(root),
            None => header,
        })
    }
    fn encoded_len(&self) -> usize {
        Self::CANONICAL_LEN + 1 + if self.exec_root.is_some() { 32 } else { 0 }
    }
}

impl WireCodec for SignedHeader {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.header.encode_to(out);
        self.signature.encode_to(out);
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SignedHeader::new(
            BlockHeader::decode_from(r)?,
            Signature::decode_from(r)?,
        ))
    }
    fn encoded_len(&self) -> usize {
        self.header.encoded_len() + self.signature.encoded_len()
    }
}

impl WireCodec for Block {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.header.encode_to(out);
        self.txs.encode_to(out);
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Block::new(
            BlockHeader::decode_from(r)?,
            Vec::<Transaction>::decode_from(r)?,
        ))
    }
    fn encoded_len(&self) -> usize {
        self.header.encoded_len() + self.txs.encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::GENESIS_HASH;

    fn roundtrip<T: WireCodec + PartialEq + fmt::Debug>(value: T) {
        let bytes = value.encode();
        assert_eq!(
            bytes.len(),
            value.encoded_len(),
            "encoded_len must match encode()"
        );
        // The buffer-reuse path must produce identical bytes even when the
        // scratch buffer arrives dirty.
        let mut scratch = vec![0xAA; 3];
        value.encode_into(&mut scratch);
        assert_eq!(scratch, bytes, "encode_into must equal encode");
        let back = T::decode(&bytes).expect("decode must succeed");
        assert_eq!(back, value);
    }

    fn header() -> BlockHeader {
        BlockHeader::new(
            Round(7),
            WorkerId(2),
            NodeId(3),
            Hash([0xAA; 32]),
            Hash([0xBB; 32]),
            5,
            2560,
        )
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(0xFFu8);
        roundtrip(0xBEEFu16);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(Some(42u64));
        roundtrip(None::<u64>);
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Box::new(9u64));
        roundtrip((3u32, 4u64));
    }

    #[test]
    fn integers_are_big_endian() {
        assert_eq!(0x0102_0304u32.encode(), vec![1, 2, 3, 4]);
        assert_eq!(0x0102u16.encode(), vec![1, 2]);
        assert_eq!(1u64.encode(), vec![0, 0, 0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn workspace_types_roundtrip() {
        roundtrip(NodeId(9));
        roundtrip(WorkerId(3));
        roundtrip(Round(u64::MAX));
        roundtrip(Hash([7u8; 32]));
        roundtrip(GENESIS_HASH);
        roundtrip(Signature::empty());
        roundtrip(Signature::from(vec![1, 2, 3]));
        roundtrip(Bytes::from(vec![5u8; 100]));
        roundtrip(Transaction::new(1, 2, vec![9u8, 8, 7]));
        roundtrip(Transaction::zeroed(0, 0, 0));
        roundtrip(header());
        roundtrip(header().with_exec_root(Hash([0xCC; 32])));
        roundtrip(SignedHeader::new(header(), Signature::from(vec![0x55; 64])));
        roundtrip(SignedHeader::new(
            header().with_exec_root(Hash([0xCD; 32])),
            Signature::from(vec![0x55; 64]),
        ));
        roundtrip(Block::new(
            header(),
            vec![Transaction::zeroed(1, 0, 16), Transaction::zeroed(1, 1, 16)],
        ));
    }

    #[test]
    fn header_encoding_is_the_signing_preimage() {
        let h = header();
        assert_eq!(h.encode(), h.canonical_bytes().as_slice());
        let rooted = header().with_exec_root(Hash([0x42; 32]));
        assert_eq!(rooted.encode(), rooted.canonical_bytes().as_slice());
    }

    #[test]
    fn truncated_input_is_rejected() {
        let bytes = header().encode();
        for cut in 0..bytes.len() {
            let err = BlockHeader::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CodecError::Truncated { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Round(5).encode();
        bytes.push(0);
        assert_eq!(
            Round::decode(&bytes),
            Err(CodecError::Trailing { remaining: 1 })
        );
    }

    #[test]
    fn corrupt_tags_are_rejected() {
        assert!(matches!(
            Option::<u64>::decode(&[2]),
            Err(CodecError::BadTag { what: "Option", .. })
        ));
        assert_eq!(bool::decode(&[9]), Err(CodecError::BadBool(9)));
    }

    #[test]
    fn absurd_sequence_counts_are_rejected_before_allocation() {
        // A Vec claiming u32::MAX elements with a 4-byte body.
        let mut bytes = u32::MAX.encode();
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert!(matches!(
            Vec::<u64>::decode(&bytes),
            Err(CodecError::BadLength { what: "Vec", .. })
        ));
        let mut bytes = 1000u32.encode();
        bytes.push(0);
        assert!(matches!(
            Bytes::decode(&bytes),
            Err(CodecError::BadLength { what: "Bytes", .. })
        ));
    }

    #[test]
    fn frame_header_roundtrip_and_layout() {
        let h = FrameHeader::new(0x0102_0304);
        let bytes = h.encode();
        assert_eq!(&bytes[..4], b"FLGR");
        assert_eq!(bytes[4], WIRE_VERSION);
        assert_eq!(&bytes[5..], &[1, 2, 3, 4]);
        assert_eq!(FrameHeader::decode(&bytes), Ok(h));
    }

    #[test]
    fn frame_header_rejections() {
        let good = FrameHeader::new(10).encode();

        let mut bad_magic = good;
        bad_magic[0] = b'X';
        assert!(matches!(
            FrameHeader::decode(&bad_magic),
            Err(CodecError::BadMagic(_))
        ));

        let mut bad_version = good;
        bad_version[4] = WIRE_VERSION + 1;
        assert_eq!(
            FrameHeader::decode(&bad_version),
            Err(CodecError::BadVersion(WIRE_VERSION + 1))
        );

        let mut oversized = good;
        oversized[5..].copy_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
        assert_eq!(
            FrameHeader::decode(&oversized),
            Err(CodecError::Oversized(MAX_FRAME_LEN + 1))
        );
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_FRAME_LEN")]
    fn oversized_frames_cannot_be_constructed() {
        let _ = FrameHeader::new(MAX_FRAME_LEN as usize + 1);
    }

    #[test]
    fn codec_error_converts_to_workspace_error() {
        let e: crate::error::Error = CodecError::BadBool(7).into();
        assert!(e.to_string().contains("invalid boolean byte"));
    }
}
