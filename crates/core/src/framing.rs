//! Stream framing: carrying obfuscated messages over byte streams.
//!
//! The paper's protocols run over TCP, where message boundaries must be
//! recovered from a stream. Obfuscated messages cannot rely on their own
//! delimiters (that is the point), so deployments frame them with an outer
//! length prefix — which leaks nothing beyond what the transport already
//! reveals through segment sizes.
//!
//! [`FrameWriter`]/[`FrameReader`] wrap any [`std::io::Write`]/[`Read`];
//! [`FrameBuffer`] supports feed-as-you-go reassembly for event-driven
//! code. Writers and readers each hold **one codec session**
//! ([`crate::serialize::SerializeSession`] /
//! [`crate::parse::ParseSession`]) plus reusable frame buffers, so
//! steady-state streaming does not allocate per message. The frame-size
//! sanity bound defaults to [`MAX_FRAME`] and is configurable per reader /
//! buffer via `max_frame`.

use std::io::{self, Read, Write};

use crate::codec::Codec;
use crate::error::{BuildError, ParseError};
use crate::message::Message;
use crate::parse::ParseSession;
use crate::serialize::SerializeSession;

/// Default maximum frame size accepted by readers (sanity bound against
/// corrupted or hostile length prefixes). Override per reader/buffer with
/// [`FrameReader::max_frame`] / [`FrameBuffer::max_frame`].
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Errors produced by the framing layer.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The message could not be serialized.
    Build(BuildError),
    /// The framed bytes did not parse under the codec.
    Parse(ParseError),
    /// A frame exceeded the configured size limit.
    TooLarge {
        /// The configured limit of the rejecting reader/writer/buffer.
        limit: usize,
        /// The offending frame size.
        got: usize,
    },
    /// The stream ended inside a frame.
    Truncated,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Build(e) => write!(f, "serialization error: {e}"),
            FrameError::Parse(e) => write!(f, "parse error: {e}"),
            FrameError::TooLarge { limit, got } => {
                write!(f, "frame of {got} bytes exceeds the limit of {limit}")
            }
            FrameError::Truncated => write!(f, "stream ended inside a frame"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            FrameError::Build(e) => Some(e),
            FrameError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes length-framed obfuscated messages to a byte stream, reusing one
/// serialization session and one body buffer across messages.
#[derive(Debug)]
pub struct FrameWriter<'c, W> {
    session: SerializeSession<'c>,
    inner: W,
    body: Vec<u8>,
    max_frame: usize,
}

impl<'c, W: Write> FrameWriter<'c, W> {
    /// Wraps a writer.
    pub fn new(codec: &'c Codec, inner: W) -> Self {
        FrameWriter { session: codec.serializer(), inner, body: Vec::new(), max_frame: MAX_FRAME }
    }

    /// Sets the maximum frame size this writer will emit (default
    /// [`MAX_FRAME`]).
    pub fn max_frame(mut self, limit: usize) -> Self {
        self.max_frame = limit;
        self
    }

    /// Serializes and sends one message. The serialization session and the
    /// frame buffer are reused: steady-state sends do not allocate.
    ///
    /// # Errors
    ///
    /// [`FrameError::Build`] for serialization failures, [`FrameError::Io`]
    /// for transport failures.
    pub fn send(&mut self, msg: &Message<'_>) -> Result<(), FrameError> {
        let mut body = std::mem::take(&mut self.body);
        let r = self.session.serialize_into(msg, &mut body).map_err(FrameError::Build);
        let r = r.and_then(|()| write_frame(&mut self.inner, &body, self.max_frame));
        self.body = body;
        r
    }

    /// Sends already-serialized bytes as one frame.
    ///
    /// # Errors
    ///
    /// [`FrameError::TooLarge`] / [`FrameError::Io`].
    pub fn send_raw(&mut self, body: &[u8]) -> Result<(), FrameError> {
        write_frame(&mut self.inner, body, self.max_frame)
    }

    /// Consumes the writer, returning the underlying stream.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

/// Serializes `msg` through an existing session and appends it to `out`
/// as one length-prefixed frame: the body is written straight into `out`
/// after a backfilled 4-byte prefix — no intermediate copy. On error,
/// `out` is left exactly as it was. The transport layer's
/// per-connection encoders frame through this routine.
///
/// # Errors
///
/// [`FrameError::Build`] for serialization failures,
/// [`FrameError::TooLarge`] when the body exceeds `max_frame`.
pub fn append_frame(
    session: &mut SerializeSession<'_>,
    msg: &Message<'_>,
    out: &mut Vec<u8>,
    max_frame: usize,
) -> Result<(), FrameError> {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    if let Err(e) = session.serialize_append(msg, out) {
        out.truncate(start);
        return Err(FrameError::Build(e));
    }
    let body_len = out.len() - start - 4;
    // The 4-byte prefix caps frames at u32::MAX even if the configured
    // limit is larger; a truncated prefix would desynchronize the peer.
    let limit = max_frame.min(u32::MAX as usize);
    if body_len > limit {
        out.truncate(start);
        return Err(FrameError::TooLarge { limit, got: body_len });
    }
    out[start..start + 4].copy_from_slice(&(body_len as u32).to_be_bytes());
    Ok(())
}

fn write_frame<W: Write>(inner: &mut W, body: &[u8], max_frame: usize) -> Result<(), FrameError> {
    // The 4-byte prefix caps frames at u32::MAX even if the configured
    // limit is larger; a truncated prefix would desynchronize the peer.
    let limit = max_frame.min(u32::MAX as usize);
    if body.len() > limit {
        return Err(FrameError::TooLarge { limit, got: body.len() });
    }
    let len = (body.len() as u32).to_be_bytes();
    inner.write_all(&len)?;
    inner.write_all(body)?;
    inner.flush()?;
    Ok(())
}

/// Reads length-framed obfuscated messages from a byte stream, reusing one
/// parse session and one body buffer across messages.
///
/// The reader is **resumable**: partial progress through a frame (both the
/// 4-byte prefix and the body) survives transient I/O errors. When the
/// underlying stream is non-blocking and `read` fails with
/// [`io::ErrorKind::WouldBlock`], the resulting [`FrameError::Io`] leaves
/// the reader in a consistent state — call [`FrameReader::recv`] again when
/// the stream is readable and the frame continues where it stopped.
/// [`io::ErrorKind::Interrupted`] is retried internally.
#[derive(Debug)]
pub struct FrameReader<'c, R> {
    session: ParseSession<'c>,
    inner: R,
    body: Vec<u8>,
    max_frame: usize,
    /// Prefix bytes accumulated so far (resumption state).
    header: [u8; 4],
    header_filled: usize,
    /// `Some(len)` once the prefix is complete and the body is being read.
    body_target: Option<usize>,
    body_filled: usize,
}

impl<'c, R: Read> FrameReader<'c, R> {
    /// Wraps a reader.
    pub fn new(codec: &'c Codec, inner: R) -> Self {
        FrameReader {
            session: codec.parser(),
            inner,
            body: Vec::new(),
            max_frame: MAX_FRAME,
            header: [0u8; 4],
            header_filled: 0,
            body_target: None,
            body_filled: 0,
        }
    }

    /// Sets the maximum accepted frame size (default [`MAX_FRAME`]).
    pub fn max_frame(mut self, limit: usize) -> Self {
        self.max_frame = limit;
        self
    }

    /// Receives and parses one message. Returns `Ok(None)` on a clean end
    /// of stream (EOF exactly at a frame boundary).
    ///
    /// The returned message is owned; for allocation-free steady-state
    /// reading use [`FrameReader::recv_borrowed`].
    ///
    /// # Errors
    ///
    /// [`FrameError::Truncated`] when the stream ends inside a frame,
    /// [`FrameError::Parse`] when the frame does not decode,
    /// [`FrameError::TooLarge`] when a length prefix exceeds the limit.
    pub fn recv(&mut self) -> Result<Option<Message<'c>>, FrameError> {
        if !self.fill_body()? {
            return Ok(None);
        }
        self.session.parse_in_place(&self.body).map_err(FrameError::Parse)?;
        Ok(Some(self.session.take_message()))
    }

    /// Receives and parses one message, borrowing the session's internal
    /// message (overwritten by the next call). Steady-state reads through
    /// this entry point perform no per-message allocation.
    ///
    /// # Errors
    ///
    /// See [`FrameReader::recv`].
    pub fn recv_borrowed(&mut self) -> Result<Option<&Message<'c>>, FrameError> {
        if !self.fill_body()? {
            return Ok(None);
        }
        let msg = self.session.parse_in_place(&self.body).map_err(FrameError::Parse)?;
        Ok(Some(msg))
    }

    /// Receives one raw frame body.
    ///
    /// # Errors
    ///
    /// See [`FrameReader::recv`].
    pub fn recv_raw(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if !self.fill_body()? {
            return Ok(None);
        }
        Ok(Some(self.body.clone()))
    }

    /// Reads the next frame into the reusable body buffer, resuming any
    /// partially-read prefix/body from a previous errored call. Returns
    /// `false` on clean EOF (stream end exactly at a frame boundary).
    fn fill_body(&mut self) -> Result<bool, FrameError> {
        if self.body_target.is_none() {
            while self.header_filled < 4 {
                match self.inner.read(&mut self.header[self.header_filled..]) {
                    Ok(0) if self.header_filled == 0 => return Ok(false),
                    Ok(0) => return Err(FrameError::Truncated),
                    Ok(n) => self.header_filled += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(FrameError::Io(e)),
                }
            }
            let len = u32::from_be_bytes(self.header) as usize;
            if len > self.max_frame {
                return Err(FrameError::TooLarge { limit: self.max_frame, got: len });
            }
            self.body.clear();
            self.body.resize(len, 0);
            self.body_target = Some(len);
            self.body_filled = 0;
        }
        let target = self.body_target.unwrap_or(0);
        while self.body_filled < target {
            match self.inner.read(&mut self.body[self.body_filled..target]) {
                Ok(0) => return Err(FrameError::Truncated),
                Ok(n) => self.body_filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
        // Frame complete: reset the resumption state for the next one.
        self.header_filled = 0;
        self.body_target = None;
        self.body_filled = 0;
        Ok(true)
    }

    /// Consumes the reader, returning the underlying stream.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

/// Capacity (bytes) a long-lived [`FrameBuffer`] shrinks back to after an
/// oversized backlog drains. Large enough that typical bulk frames never
/// trigger shrink/regrow churn, small enough that one peer trickling a
/// single near-limit frame cannot pin megabytes per connection forever.
pub const FRAME_BUFFER_RETAIN: usize = 256 * 1024;

/// Incremental frame reassembly for event-driven code: feed arbitrary
/// chunks, pop (or peek) complete frames.
///
/// Consumed frames advance a read cursor instead of memmoving the whole
/// buffer, so draining a burst of pipelined frames is linear in the bytes
/// fed, not quadratic; the buffer compacts itself once the drained prefix
/// dominates the live bytes. Capacity is **bounded over time**: a peer
/// that trickles one maximum-size frame grows the buffer to the frame
/// limit, but once that backlog is consumed the buffer shrinks back to
/// [`FRAME_BUFFER_RETAIN`] instead of holding the high-water allocation
/// for the rest of a long-lived gateway connection.
#[derive(Debug)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Read cursor: bytes before it were consumed and await compaction.
    start: usize,
    max_frame: usize,
}

impl Default for FrameBuffer {
    fn default() -> Self {
        FrameBuffer { buf: Vec::new(), start: 0, max_frame: MAX_FRAME }
    }
}

impl FrameBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Sets the maximum accepted frame size (default [`MAX_FRAME`]).
    pub fn max_frame(mut self, limit: usize) -> Self {
        self.max_frame = limit;
        self
    }

    /// Bytes of backing capacity currently held (buffered + spare).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Appends received bytes.
    pub fn feed(&mut self, chunk: &[u8]) {
        // Compact when the drained prefix is at least as large as the live
        // tail: amortized O(1) per byte over the buffer's lifetime.
        if self.start > 0 && self.start >= self.buf.len() - self.start {
            self.buf.copy_within(self.start.., 0);
            self.buf.truncate(self.buf.len() - self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Length of the next complete frame's body, or `None` if the buffered
    /// bytes do not yet hold a full frame.
    fn next_len(&self) -> Result<Option<usize>, FrameError> {
        let live = &self.buf[self.start..];
        if live.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([live[0], live[1], live[2], live[3]]) as usize;
        if len > self.max_frame {
            return Err(FrameError::TooLarge { limit: self.max_frame, got: len });
        }
        if live.len() < 4 + len {
            return Ok(None);
        }
        Ok(Some(len))
    }

    /// Borrows the next complete frame body without consuming it — the
    /// copy-free entry point for event-driven parsing: peek, parse in
    /// place, then [`FrameBuffer::consume`].
    ///
    /// # Errors
    ///
    /// [`FrameError::TooLarge`] when a buffered length prefix exceeds the
    /// limit (the stream should be dropped).
    pub fn peek(&self) -> Result<Option<&[u8]>, FrameError> {
        Ok(self.next_len()?.map(|len| &self.buf[self.start + 4..self.start + 4 + len]))
    }

    /// Consumes the frame last returned by [`FrameBuffer::peek`]. No-op if
    /// no complete frame is buffered.
    pub fn consume(&mut self) {
        if let Ok(Some(len)) = self.next_len() {
            self.start += 4 + len;
            if self.start == self.buf.len() {
                self.buf.clear();
                self.start = 0;
            }
            self.bound_capacity(4 + len);
        }
    }

    /// Returns an oversized backing allocation to the retained cap once
    /// the traffic that grew it is gone, so a long-lived connection does
    /// not keep paying for one historic burst. The shrink threshold
    /// scales with the frame just consumed: steady traffic of any frame
    /// size keeps its working set (no shrink/regrow churn per message);
    /// only a buffer left several times larger than the current frames —
    /// a drained backlog — is returned, at one realloc per episode.
    fn bound_capacity(&mut self, consumed: usize) {
        let threshold = FRAME_BUFFER_RETAIN.max(4 * consumed);
        if self.buf.capacity() <= threshold || self.buf.len() - self.start > FRAME_BUFFER_RETAIN {
            return;
        }
        if self.start > 0 {
            self.buf.copy_within(self.start.., 0);
            self.buf.truncate(self.buf.len() - self.start);
            self.start = 0;
        }
        self.buf.shrink_to(FRAME_BUFFER_RETAIN);
    }

    /// Pops the next complete frame body, if one is buffered.
    ///
    /// # Errors
    ///
    /// See [`FrameBuffer::peek`].
    pub fn pop(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let body = self.peek()?.map(<[u8]>::to_vec);
        if body.is_some() {
            self.consume();
        }
        Ok(body)
    }

    /// Bytes currently buffered and not yet consumed (complete or partial
    /// frame data).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Obfuscator;
    use crate::graph::{Boundary, GraphBuilder};

    fn codec() -> Codec {
        let mut b = GraphBuilder::new("f");
        let root = b.root_sequence("m", Boundary::End);
        b.uint_be(root, "id", 2);
        b.terminal(root, "body", crate::value::TerminalKind::Bytes, Boundary::End);
        let g = b.build().unwrap();
        Obfuscator::new(&g).seed(3).max_per_node(2).obfuscate().unwrap()
    }

    fn sample_stream(codec: &Codec, ids: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        {
            let mut w = FrameWriter::new(codec, &mut out);
            for &id in ids {
                let mut m = codec.message_seeded(id);
                m.set_uint("id", id).unwrap();
                m.set("body", format!("payload {id}").into_bytes()).unwrap();
                w.send(&m).unwrap();
            }
        }
        out
    }

    #[test]
    fn write_then_read_roundtrips_multiple_messages() {
        let c = codec();
        let stream = sample_stream(&c, &[1, 2, 3]);
        let mut r = FrameReader::new(&c, stream.as_slice());
        for expect in [1u64, 2, 3] {
            let m = r.recv().unwrap().expect("frame present");
            assert_eq!(m.get_uint("id").unwrap(), expect);
            assert_eq!(m.get_string("body").unwrap(), format!("payload {expect}"));
        }
        assert!(r.recv().unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn recv_borrowed_reuses_the_session_message() {
        let c = codec();
        let stream = sample_stream(&c, &[4, 5, 6]);
        let mut r = FrameReader::new(&c, stream.as_slice());
        for expect in [4u64, 5, 6] {
            let m = r.recv_borrowed().unwrap().expect("frame present");
            assert_eq!(m.get_uint("id").unwrap(), expect);
        }
        assert!(r.recv_borrowed().unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_stream_is_detected() {
        let c = codec();
        let stream = sample_stream(&c, &[7]);
        for cut in 1..stream.len() {
            let mut r = FrameReader::new(&c, &stream[..cut]);
            match r.recv() {
                Err(FrameError::Truncated) | Err(FrameError::Parse(_)) => {}
                Ok(None) => panic!("cut {cut} looked like clean EOF"),
                other => panic!("cut {cut}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_prefix_rejected() {
        let c = codec();
        let bogus = [(MAX_FRAME as u32 + 1).to_be_bytes().to_vec(), vec![0; 8]].concat();
        let mut r = FrameReader::new(&c, bogus.as_slice());
        match r.recv() {
            Err(FrameError::TooLarge { limit, got }) => {
                assert_eq!(limit, MAX_FRAME);
                assert_eq!(got, MAX_FRAME + 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn custom_reader_limit_applies() {
        let c = codec();
        let stream = sample_stream(&c, &[1]); // frame body well over 4 bytes
        let mut r = FrameReader::new(&c, stream.as_slice()).max_frame(4);
        assert!(matches!(r.recv(), Err(FrameError::TooLarge { limit: 4, .. })));
    }

    #[test]
    fn custom_writer_limit_applies() {
        let c = codec();
        let mut out = Vec::new();
        let mut w = FrameWriter::new(&c, &mut out).max_frame(4);
        match w.send_raw(&[0u8; 9]) {
            Err(FrameError::TooLarge { limit: 4, got: 9 }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Delivers at most one byte per `read` call: the hardest legal split
    /// pattern a stream can produce (slow-loris trickle).
    struct OneBytePer<R>(R);

    impl<R: Read> Read for OneBytePer<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(1);
            self.0.read(&mut buf[..n])
        }
    }

    /// Interleaves every delivered byte with a transient error: first
    /// `WouldBlock` (non-blocking readiness miss), then `Interrupted`
    /// (signal), then one real byte.
    struct Hostile<R> {
        inner: R,
        phase: u8,
    }

    impl<R: Read> Read for Hostile<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.phase = (self.phase + 1) % 3;
            match self.phase {
                1 => Err(io::Error::from(io::ErrorKind::WouldBlock)),
                2 => Err(io::Error::from(io::ErrorKind::Interrupted)),
                _ => {
                    let n = buf.len().min(1);
                    self.inner.read(&mut buf[..n])
                }
            }
        }
    }

    #[test]
    fn reader_survives_one_byte_trickle() {
        // 1-byte reads split both the 4-byte prefix and every body
        // boundary: the reader must reassemble without loss.
        let c = codec();
        let stream = sample_stream(&c, &[40, 41, 42]);
        let mut r = FrameReader::new(&c, OneBytePer(stream.as_slice()));
        for expect in [40u64, 41, 42] {
            let m = r.recv().unwrap().expect("frame present");
            assert_eq!(m.get_uint("id").unwrap(), expect);
        }
        assert!(r.recv().unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn reader_resumes_across_would_block() {
        // A non-blocking stream errors with WouldBlock mid-prefix and
        // mid-body; partial progress must survive so the next recv resumes
        // the same frame instead of desynchronizing.
        let c = codec();
        let stream = sample_stream(&c, &[50, 51]);
        let mut r = FrameReader::new(&c, Hostile { inner: stream.as_slice(), phase: 0 });
        let mut got = Vec::new();
        loop {
            match r.recv() {
                Ok(Some(m)) => got.push(m.get_uint("id").unwrap()),
                Ok(None) => break,
                Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert_eq!(got, [50, 51]);
    }

    #[test]
    fn frame_buffer_peek_consume_matches_pop() {
        let c = codec();
        let stream = sample_stream(&c, &[60, 61, 62]);
        let mut by_pop = FrameBuffer::new();
        by_pop.feed(&stream);
        let mut by_peek = FrameBuffer::new();
        by_peek.feed(&stream);
        while let Some(frame) = by_pop.pop().unwrap() {
            let peeked = by_peek.peek().unwrap().expect("same frame boundary");
            assert_eq!(peeked, frame.as_slice());
            by_peek.consume();
        }
        assert!(by_peek.peek().unwrap().is_none());
        assert_eq!(by_peek.pending(), 0);
    }

    #[test]
    fn frame_buffer_split_feed_across_prefix_boundary() {
        // Feeding stops inside the 4-byte prefix, then inside the body:
        // pop must return None (not a bogus frame) until the frame
        // completes.
        let body = b"frame body".to_vec();
        let mut wire = (body.len() as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(&body);
        for cut1 in 1..4 {
            for cut2 in cut1..wire.len() {
                let mut fb = FrameBuffer::new();
                fb.feed(&wire[..cut1]);
                assert_eq!(fb.pop().unwrap(), None, "cut inside prefix at {cut1}");
                fb.feed(&wire[cut1..cut2]);
                if cut2 < wire.len() {
                    assert_eq!(fb.pop().unwrap(), None, "cut inside body at {cut2}");
                    fb.feed(&wire[cut2..]);
                }
                assert_eq!(fb.pop().unwrap(), Some(body.clone()));
                assert_eq!(fb.pending(), 0);
            }
        }
    }

    #[test]
    fn frame_buffer_cursor_compaction_keeps_frames_intact() {
        // Many small frames consumed interleaved with feeds: the cursor +
        // compaction bookkeeping must never corrupt frame boundaries.
        let mut fb = FrameBuffer::new();
        let mut fed = 0u32;
        let mut popped = 0u32;
        while popped < 300 {
            while fed < popped + 3 {
                let body = fed.to_be_bytes();
                fb.feed(&(body.len() as u32).to_be_bytes());
                fb.feed(&body);
                fed += 1;
            }
            let frame = fb.pop().unwrap().expect("frame buffered");
            assert_eq!(frame, popped.to_be_bytes());
            popped += 1;
        }
    }

    #[test]
    fn frame_buffer_reassembles_byte_by_byte() {
        let c = codec();
        let stream = sample_stream(&c, &[10, 20]);
        let mut fb = FrameBuffer::new();
        let mut frames = Vec::new();
        for &b in &stream {
            fb.feed(&[b]);
            while let Some(frame) = fb.pop().unwrap() {
                frames.push(frame);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(fb.pending(), 0);
        let m = c.parse(&frames[1]).unwrap();
        assert_eq!(m.get_uint("id").unwrap(), 20);
    }

    #[test]
    fn frame_buffer_custom_limit() {
        let mut fb = FrameBuffer::new().max_frame(2);
        fb.feed(&3u32.to_be_bytes());
        fb.feed(&[1, 2, 3]);
        assert!(matches!(fb.pop(), Err(FrameError::TooLarge { limit: 2, got: 3 })));
    }

    #[test]
    fn frame_buffer_returns_oversized_capacity_after_trickled_giant_frame() {
        // A peer trickles one near-limit frame a byte at a time: the
        // buffer must grow to hold it, but once that backlog is consumed
        // a long-lived gateway connection must not hold the high-water
        // allocation forever — the next (small) frame returns it to the
        // retained cap.
        let big = vec![0x5A; 2 * 1024 * 1024];
        let mut wire = (big.len() as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(&big);
        let mut fb = FrameBuffer::new();
        for b in &wire {
            fb.feed(std::slice::from_ref(b));
        }
        assert!(fb.capacity() >= big.len(), "buffer grew to the backlog");
        assert_eq!(fb.pop().unwrap(), Some(big));
        // Many small frames afterwards: the first consume shrinks, and
        // the capacity stays bounded while the frames stay intact.
        for i in 0..1000u32 {
            let body = i.to_be_bytes();
            fb.feed(&(body.len() as u32).to_be_bytes());
            fb.feed(&body);
            assert_eq!(fb.pop().unwrap(), Some(body.to_vec()));
            assert!(
                fb.capacity() <= FRAME_BUFFER_RETAIN,
                "capacity {} still above the retain cap after small frame {i}",
                fb.capacity()
            );
        }
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn frame_buffer_steady_large_frames_do_not_shrink_churn() {
        // Frames consistently larger than the retain cap are the
        // connection's real working set: consuming them must keep the
        // capacity (the shrink threshold scales with the frame size), not
        // realloc on every message.
        let body = vec![7u8; FRAME_BUFFER_RETAIN + 1024];
        let mut fb = FrameBuffer::new();
        let mut high_water = 0;
        for _ in 0..5 {
            fb.feed(&(body.len() as u32).to_be_bytes());
            fb.feed(&body);
            assert_eq!(fb.pop().unwrap().as_deref(), Some(body.as_slice()));
            high_water = high_water.max(fb.capacity());
            assert!(fb.capacity() > FRAME_BUFFER_RETAIN, "working set kept");
        }
        assert_eq!(fb.capacity(), high_water, "no shrink/regrow churn");
    }

    #[test]
    fn empty_frame_supported() {
        // A zero-length frame is legal at the framing layer (the codec
        // will reject it, but framing must not hang or mis-frame).
        let mut fb = FrameBuffer::new();
        fb.feed(&0u32.to_be_bytes());
        assert_eq!(fb.pop().unwrap(), Some(Vec::new()));
    }
}
