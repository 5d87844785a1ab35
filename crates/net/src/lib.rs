//! Length-prefixed binary framing shared by the serving and distributed
//! runtimes.
//!
//! Every message on a WarpLDA socket is one **frame**: a little-endian `u32`
//! payload length followed by the payload. This crate owns the two pieces
//! every protocol built on that framing needs, so the query server
//! (`warplda-serve`) and the multi-process training runtime (`warplda-dist`)
//! share one implementation instead of two drifting copies:
//!
//! * [`FrameBuffer`] — an incremental frame reader over a byte stream. A
//!   short, would-block or timed-out read never loses bytes; data accumulates
//!   until a frame is complete, which is what lets an event loop read
//!   whatever a ready socket holds and serve every frame that completed. The
//!   maximum frame size is enforced in **exactly one place** (the internal
//!   length peek consulted by [`take_frame`](FrameBuffer::take_frame) and
//!   [`read_frame`](FrameBuffer::read_frame)), and is configurable per
//!   buffer: the query server keeps the conservative
//!   [`DEFAULT_MAX_FRAME_BYTES`], the distributed runtime raises it for
//!   corpus and record-delta frames.
//!
//! Encoding is in-place: [`begin_frame`]/[`end_frame`] reserve and patch the
//! length prefix so a frame is built directly in the output buffer, and
//! [`write_frame`] writes an already-encoded payload as one frame. What is
//! *inside* a payload is not this crate's business: both protocols parse
//! theirs with the workspace's one reader for bytes from outside,
//! `warplda_corpus::io::codec::Decoder`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Default bound on a single frame's payload. Frames announcing more are
/// rejected before any allocation happens — a corrupt or hostile length
/// prefix must not OOM the receiver.
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 16 << 20;

/// Errors of the framing layer.
#[derive(Debug)]
pub enum WireError {
    /// An underlying socket error.
    Io(std::io::Error),
    /// A frame announced a length above the receiver's configured bound.
    FrameTooLarge {
        /// The announced length.
        len: u32,
        /// The receiving buffer's configured bound.
        limit: u32,
    },
    /// The payload did not parse (truncated fields, unknown opcode, …).
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::FrameTooLarge { len, limit } => {
                write!(f, "frame of {len} bytes exceeds the {limit}-byte limit")
            }
            WireError::Malformed(what) => write!(f, "malformed message: {what}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Frame encoding
// ---------------------------------------------------------------------------

/// Reserves a length prefix in `out` and returns its position; pair with
/// [`end_frame`] once the payload has been appended.
pub fn begin_frame(out: &mut Vec<u8>) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    at
}

/// Patches the length prefix reserved by [`begin_frame`] at `at` to cover
/// everything appended since.
pub fn end_frame(out: &mut [u8], at: usize) {
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Writes one complete frame (length prefix + `payload`) to `w`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

// ---------------------------------------------------------------------------
// Incremental frame reading
// ---------------------------------------------------------------------------

/// An incremental frame reader over a byte stream.
///
/// Unlike `read_exact`, a short, would-block or timed-out read never loses
/// bytes: data accumulates in the internal buffer until a frame is complete.
/// The query server's event loop calls [`fill_from`](Self::fill_from) on a
/// readable non-blocking socket until it would block and, after each read,
/// [`take_frame`](Self::take_frame) until it returns `None`, so a pipelined
/// client's batch is dispatched off one read. The distributed runtime's
/// blocking links call [`read_frame`](Self::read_frame), which loops the same
/// two steps until a frame is whole; the socket's read timeout bounds the wait.
#[derive(Debug)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
    end: usize,
    max_frame: u32,
}

impl FrameBuffer {
    /// A buffer starting at `capacity` bytes (it grows to the largest frame
    /// seen and is then reused without further allocation), enforcing the
    /// [`DEFAULT_MAX_FRAME_BYTES`] bound.
    pub fn new(capacity: usize) -> Self {
        Self::with_max_frame(capacity, DEFAULT_MAX_FRAME_BYTES)
    }

    /// A buffer with an explicit frame-size bound (the distributed runtime
    /// ships corpus shards and record deltas larger than the serving bound).
    pub fn with_max_frame(capacity: usize, max_frame: u32) -> Self {
        Self { buf: vec![0; capacity.max(4096)], start: 0, end: 0, max_frame }
    }

    /// **The** single point where the frame-size bound is enforced: peeks the
    /// next frame's announced payload length, if a length prefix is buffered.
    /// Both read paths (`take_frame`, `read_frame`) funnel through here, so the
    /// bound cannot drift between them.
    fn peek_len(&self) -> Result<Option<usize>, WireError> {
        if self.end - self.start < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[self.start..self.start + 4].try_into().unwrap());
        if len > self.max_frame {
            return Err(WireError::FrameTooLarge { len, limit: self.max_frame });
        }
        Ok(Some(len as usize))
    }

    /// Takes the next complete frame, if one is buffered, returning the
    /// payload range (read it with [`payload`](Self::payload)). Rejects
    /// oversized length prefixes before buffering their payload.
    pub fn take_frame(&mut self) -> Result<Option<std::ops::Range<usize>>, WireError> {
        let Some(len) = self.peek_len()? else { return Ok(None) };
        if self.end - self.start < 4 + len {
            return Ok(None);
        }
        let range = self.start + 4..self.start + 4 + len;
        self.start = range.end;
        Ok(Some(range))
    }

    /// The bytes of a range returned by [`take_frame`](Self::take_frame).
    /// Only valid until the next [`fill_from`](Self::fill_from).
    pub fn payload(&self, range: std::ops::Range<usize>) -> &[u8] {
        &self.buf[range]
    }

    /// Reads once from `r` into the buffer (compacting/growing first if
    /// needed). Returns the number of bytes read — `0` means clean EOF.
    /// `WouldBlock`/`TimedOut` errors pass through for the caller to treat
    /// as "no data yet".
    pub fn fill_from(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        if self.end == self.buf.len() {
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            } else {
                let new_len = self.buf.len() * 2;
                self.buf.resize(new_len, 0);
            }
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Blocking receive: fills from `r` until one complete frame is buffered
    /// and returns its payload range. Returns `Ok(None)` on a clean EOF at a
    /// frame boundary; an EOF *inside* a frame is a typed
    /// [`WireError::Malformed`]. A read timeout configured on `r` passes
    /// through as [`WireError::Io`], which is what bounds every receive in
    /// the distributed coordinator — a dead peer surfaces as a typed error,
    /// never a hang.
    pub fn read_frame(
        &mut self,
        r: &mut impl Read,
    ) -> Result<Option<std::ops::Range<usize>>, WireError> {
        loop {
            if let Some(range) = self.take_frame()? {
                return Ok(Some(range));
            }
            let n = self.fill_from(r)?;
            if n == 0 {
                return if self.start == self.end {
                    Ok(None)
                } else {
                    Err(WireError::Malformed("connection closed mid-frame"))
                };
            }
        }
    }

    /// Bounded receive: waits at most `wait` for bytes on `stream` and
    /// reports what happened instead of treating a quiet peer as an error.
    /// This is the supervisor-side primitive — a liveness loop polls each
    /// worker with a short wait, interleaving heartbeat bookkeeping and
    /// child-exit checks between [`PollFrame::Idle`] returns.
    ///
    /// Sets the stream's read timeout to `wait` as a side effect.
    pub fn poll_frame(
        &mut self,
        stream: &mut TcpStream,
        wait: Duration,
    ) -> Result<PollFrame, WireError> {
        if let Some(range) = self.take_frame()? {
            return Ok(PollFrame::Frame(range));
        }
        stream.set_read_timeout(Some(wait.max(Duration::from_millis(1))))?;
        loop {
            match self.fill_from(stream) {
                Ok(0) => {
                    return if self.start == self.end {
                        Ok(PollFrame::Eof)
                    } else {
                        Err(WireError::Malformed("connection closed mid-frame"))
                    };
                }
                Ok(_) => {
                    if let Some(range) = self.take_frame()? {
                        return Ok(PollFrame::Frame(range));
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(PollFrame::Idle);
                }
                Err(e) => return Err(WireError::Io(e)),
            }
        }
    }
}

/// Outcome of one [`FrameBuffer::poll_frame`] call.
#[derive(Debug)]
pub enum PollFrame {
    /// A complete frame is buffered; the range indexes into the buffer.
    Frame(std::ops::Range<usize>),
    /// No complete frame arrived within the wait budget; the peer is quiet
    /// but the connection is intact.
    Idle,
    /// The peer closed the connection at a frame boundary.
    Eof,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).unwrap();
        out
    }

    #[test]
    fn frame_buffer_reassembles_split_and_batched_frames() {
        // Three frames, delivered in adversarial chunk sizes.
        let mut stream = Vec::new();
        for payload in [&b"alpha"[..], b"beta", b"gamma"] {
            stream.extend_from_slice(&frame(payload));
        }
        for chunk_size in [1usize, 3, 7, stream.len()] {
            let mut fb = FrameBuffer::new(8);
            let mut seen = Vec::new();
            let mut cursor = 0;
            while cursor < stream.len() {
                let end = (cursor + chunk_size).min(stream.len());
                cursor += fb.fill_from(&mut &stream[cursor..end]).unwrap();
                while let Some(range) = fb.take_frame().unwrap() {
                    seen.push(fb.payload(range).to_vec());
                }
            }
            assert_eq!(seen, vec![b"alpha".to_vec(), b"beta".to_vec(), b"gamma".to_vec()]);
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_buffering_it() {
        // Regression: the bound is enforced at the length peek, before any
        // payload is read: an error at once, no wait for unreachable bytes.
        let mut fb = FrameBuffer::new(16);
        let huge = (DEFAULT_MAX_FRAME_BYTES + 1).to_le_bytes();
        let mut src = &huge[..];
        fb.fill_from(&mut src).unwrap();
        match fb.take_frame() {
            Err(WireError::FrameTooLarge { len, limit }) => {
                assert_eq!(len, DEFAULT_MAX_FRAME_BYTES + 1);
                assert_eq!(limit, DEFAULT_MAX_FRAME_BYTES);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn custom_bound_is_enforced_and_permits_larger_frames() {
        let payload = vec![7u8; (DEFAULT_MAX_FRAME_BYTES as usize) + 8];
        let stream = frame(&payload);
        // The default bound rejects it...
        let mut fb = FrameBuffer::new(64);
        let mut src = &stream[..];
        fb.fill_from(&mut src).unwrap();
        assert!(matches!(fb.take_frame(), Err(WireError::FrameTooLarge { .. })));
        // ...a raised bound accepts the same bytes.
        let mut fb = FrameBuffer::with_max_frame(64, DEFAULT_MAX_FRAME_BYTES * 2);
        let mut src = &stream[..];
        let range = fb.read_frame(&mut src).unwrap().expect("one frame");
        assert_eq!(fb.payload(range).len(), payload.len());
    }

    #[test]
    fn read_frame_distinguishes_clean_eof_from_truncation() {
        // Clean EOF at a frame boundary: one frame, then None.
        let stream = frame(b"only");
        let mut fb = FrameBuffer::new(8);
        let mut src = &stream[..];
        let range = fb.read_frame(&mut src).unwrap().expect("one frame");
        assert_eq!(fb.payload(range), b"only");
        assert!(fb.read_frame(&mut src).unwrap().is_none());

        // EOF inside a frame: a typed error, not silence.
        let truncated = &stream[..stream.len() - 2];
        let mut fb = FrameBuffer::new(8);
        let mut src = truncated;
        match fb.read_frame(&mut src) {
            Err(WireError::Malformed(msg)) => assert!(msg.contains("mid-frame"), "{msg}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn poll_frame_distinguishes_idle_frames_and_eof() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let mut server = server_side;

        let mut fb = FrameBuffer::new(64);
        // Quiet peer → Idle, quickly.
        let start = std::time::Instant::now();
        match fb.poll_frame(&mut client, Duration::from_millis(20)).unwrap() {
            PollFrame::Idle => {}
            other => panic!("expected Idle, got {other:?}"),
        }
        assert!(start.elapsed() < Duration::from_secs(2));

        // A frame shows up → Frame with the right payload.
        write_frame(&mut server, b"pulse").unwrap();
        match fb.poll_frame(&mut client, Duration::from_millis(500)).unwrap() {
            PollFrame::Frame(range) => assert_eq!(fb.payload(range), b"pulse"),
            other => panic!("expected Frame, got {other:?}"),
        }

        // Peer closes at a frame boundary → Eof.
        drop(server);
        match fb.poll_frame(&mut client, Duration::from_millis(500)).unwrap() {
            PollFrame::Eof => {}
            other => panic!("expected Eof, got {other:?}"),
        }
    }
}
