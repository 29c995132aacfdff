//! Blocking byte-stream transports and frame I/O.
//!
//! ZLTP is transport-agnostic: anything that is `Read + Write` carries it.
//! Two transports ship here:
//!
//! * [`MemDuplex`] — an in-process duplex built on crossbeam channels, used
//!   by tests, benchmarks, and the sharded-deployment simulation (where one
//!   process stands in for a rack of machines).
//! * `std::net::TcpStream` — the real thing; [`crate::server::ZltpServer`]
//!   can listen on a socket, and every integration test that matters runs
//!   over both transports.
//!
//! [`FramedConn`] layers the ZLTP wire format over any such stream and
//! keeps per-direction byte counters — the raw material for the paper's
//! communication measurements (§5.1: 13.6 KiB per request).

use crate::error::ZltpError;
use crate::wire::{Frame, Message, MAX_FRAME_LEN, TRACE_EXT_FLAG};
use crossbeam::channel::{unbounded, Receiver, Sender};
use lightweb_telemetry::trace::TraceContext;
use std::io::{Read, Write};

/// Encode one protocol message into its complete wire image — 4-byte
/// big-endian length, type byte (trace flag set when `trace` is present),
/// payload, and optional 32-byte trace extension.
///
/// This is the single source of truth for ZLTP frame layout on the send
/// side; [`FramedConn::send_traced`] (blocking) and the reactor's write
/// queue (nonblocking) both go through it.
pub fn encode_frame(msg: &Message, trace: Option<&TraceContext>) -> Result<Vec<u8>, ZltpError> {
    let frame = msg.to_frame();
    debug_assert_eq!(
        frame.msg_type & TRACE_EXT_FLAG,
        0,
        "message types never carry the trace flag themselves"
    );
    let ext = trace.map(TraceContext::to_bytes);
    let ext_len = ext.as_ref().map_or(0, |e| e.len());
    let len = 1 + frame.payload.len() + ext_len;
    if len > MAX_FRAME_LEN {
        return Err(ZltpError::Wire(format!("frame too large: {len} bytes")));
    }
    let mut out = Vec::with_capacity(4 + len);
    out.extend_from_slice(&(len as u32).to_be_bytes());
    out.push(frame.msg_type | if ext.is_some() { TRACE_EXT_FLAG } else { 0 });
    out.extend_from_slice(&frame.payload);
    if let Some(ext) = &ext {
        out.extend_from_slice(ext);
    }
    Ok(out)
}

/// Incremental ZLTP frame decoder: feed it byte chunks as they arrive off
/// a nonblocking socket, pull complete messages out.
///
/// Unlike [`FramedConn::recv_traced`], which blocks inside `read_exact`
/// until a whole frame is present, the decoder holds partial state across
/// arbitrarily fragmented input — one byte at a time is fine. Invalid
/// length words (zero, or above [`MAX_FRAME_LEN`]) are rejected as soon as
/// the 5-byte header is visible, *before* any body is buffered, so a
/// hostile peer cannot make the server allocate for a frame it will never
/// accept. After an error the decoder is poisoned garbage; the connection
/// must be torn down.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted lazily to keep `extend` O(n)
    /// amortized instead of memmoving on every frame.
    pos: usize,
}

/// Frame header size: 4-byte length word + 1 type byte.
const HEADER_LEN: usize = 5;

impl FrameDecoder {
    /// A fresh decoder with no buffered bytes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append bytes read off the wire.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing if the dead prefix dominates the buffer.
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded (partial frame in flight).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Try to decode one complete message. `Ok(None)` means more bytes
    /// are needed; `Err` means the peer violated the framing and the
    /// connection should be closed.
    #[allow(clippy::type_complexity)]
    pub fn decode(&mut self) -> Result<Option<(Message, Option<TraceContext>)>, ZltpError> {
        if self.buffered() < HEADER_LEN {
            return Ok(None);
        }
        let head = &self.buf[self.pos..self.pos + HEADER_LEN];
        let len = u32::from_be_bytes(head[..4].try_into().unwrap()) as usize;
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(ZltpError::Wire(format!("invalid frame length {len}")));
        }
        if self.buffered() < 4 + len {
            return Ok(None);
        }
        let raw_type = head[4];
        let body = self.buf[self.pos + HEADER_LEN..self.pos + 4 + len].to_vec();
        self.pos += 4 + len;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        let (frame, trace) = Frame::strip_trace_ext(raw_type, body)?;
        Ok(Some((Message::from_frame(&frame)?, trace)))
    }
}

/// Apply ZLTP's latency-critical socket options to a TCP stream.
///
/// `TCP_NODELAY` matters because every ZLTP exchange is a single small
/// frame each way: with Nagle on, answers sit behind delayed ACKs and
/// loopback p50 goes from ~26 ms to ~380 ms (PR 6's first finding). A
/// failure to set the option is survivable — the connection still works,
/// just slower — so it is logged and counted
/// (`transport.socket.nodelay.errors`) rather than treated as fatal.
/// `who` labels the call site (e.g. `"server-accept"`, `"shard-link"`).
pub fn tune_zltp_socket(stream: &std::net::TcpStream, who: &'static str) {
    if let Err(e) = stream.set_nodelay(true) {
        lightweb_telemetry::counter!("transport.socket.nodelay.errors").inc();
        lightweb_telemetry::events::emit(
            "transport.socket.nodelay.error",
            &[
                ("who", lightweb_telemetry::events::Field::Str(who)),
                (
                    "error",
                    lightweb_telemetry::events::Field::Str(&e.to_string()),
                ),
            ],
        );
    }
}

/// The blocking TCP front door shared by the ZLTP and shard servers:
/// accept on a nonblocking listener, polling `shutdown` between accepts
/// (a 5 ms sleep when none is pending), tune each accepted socket
/// (labelled `who`), and serve it on a thread of its own. Threads are
/// named `{name}-accept` and `{name}-conn`. Spawn and accept failures go
/// to `log` as `(stage, error)`; an accept error ends the loop.
pub(crate) fn spawn_accept_loop(
    listener: std::net::TcpListener,
    name: &str,
    who: &'static str,
    shutdown: impl Fn() -> bool + Send + 'static,
    log: fn(&str, &str),
    serve: impl Fn(std::net::TcpStream) + Clone + Send + 'static,
) -> std::io::Result<std::thread::JoinHandle<()>> {
    listener.set_nonblocking(true)?;
    let conn_name = format!("{name}-conn");
    std::thread::Builder::new()
        .name(format!("{name}-accept"))
        .spawn(move || loop {
            if shutdown() {
                return;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false).ok();
                    tune_zltp_socket(&stream, who);
                    let serve = serve.clone();
                    let spawned = std::thread::Builder::new()
                        .name(conn_name.clone())
                        .spawn(move || serve(stream));
                    if let Err(e) = spawned {
                        // Out of threads: drop the stream (the peer sees
                        // a reset) instead of taking down the acceptor.
                        log("spawn-connection", &e.to_string());
                    }
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                Err(e) => {
                    log("accept", &e.to_string());
                    return;
                }
            }
        })
}

/// One end of an in-memory duplex byte stream.
///
/// Writes are delivered as chunks to the peer's receive queue; reads pull
/// chunks and buffer partial consumption. Dropping an end causes the peer's
/// reads to fail like a closed socket.
pub struct MemDuplex {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    /// Unconsumed remainder of the last received chunk.
    pending: Vec<u8>,
    pending_pos: usize,
}

/// Create a connected pair of in-memory duplex streams.
pub fn mem_pair() -> (MemDuplex, MemDuplex) {
    let (tx_a, rx_b) = unbounded();
    let (tx_b, rx_a) = unbounded();
    (
        MemDuplex {
            tx: tx_a,
            rx: rx_a,
            pending: Vec::new(),
            pending_pos: 0,
        },
        MemDuplex {
            tx: tx_b,
            rx: rx_b,
            pending: Vec::new(),
            pending_pos: 0,
        },
    )
}

impl Read for MemDuplex {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if self.pending_pos >= self.pending.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.pending = chunk;
                    self.pending_pos = 0;
                }
                // Peer hung up: EOF.
                Err(_) => return Ok(0),
            }
        }
        let n = (self.pending.len() - self.pending_pos).min(buf.len());
        buf[..n].copy_from_slice(&self.pending[self.pending_pos..self.pending_pos + n]);
        self.pending_pos += n;
        Ok(n)
    }
}

impl Write for MemDuplex {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.tx
            .send(buf.to_vec())
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::BrokenPipe, "peer closed"))?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A frame-oriented connection over any blocking byte stream, with byte
/// accounting.
pub struct FramedConn<S> {
    stream: S,
    bytes_sent: u64,
    bytes_received: u64,
}

impl<S: Read + Write> FramedConn<S> {
    /// Wrap a stream.
    pub fn new(stream: S) -> Self {
        Self {
            stream,
            bytes_sent: 0,
            bytes_received: 0,
        }
    }

    /// Total bytes written (frames incl. headers).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Total bytes read.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// Send one protocol message without a trace extension.
    pub fn send(&mut self, msg: &Message) -> Result<(), ZltpError> {
        self.send_traced(msg, None)
    }

    /// Send one protocol message, attaching `trace` as the frame's
    /// trace extension when present ([`TRACE_EXT_FLAG`] + 32 trailing
    /// bytes, counted in the length word and the byte accounting).
    pub fn send_traced(
        &mut self,
        msg: &Message,
        trace: Option<&TraceContext>,
    ) -> Result<(), ZltpError> {
        let wire = encode_frame(msg, trace)?;
        // Count before writing: once the peer observes this frame, the
        // counters are guaranteed settled, so a reader on the other side
        // can snapshot the registry without racing the sender thread. (A
        // failed write overcounts by one frame; the connection is dead at
        // that point and its accounting with it.)
        let n = wire.len() as u64;
        self.bytes_sent += n;
        lightweb_telemetry::counter!("transport.bytes.sent").add(n);
        lightweb_telemetry::counter!("transport.frames.sent").inc();
        self.stream.write_all(&wire)?;
        self.stream.flush()?;
        Ok(())
    }

    /// Receive one protocol message (blocking), dropping any trace
    /// extension.
    pub fn recv(&mut self) -> Result<Message, ZltpError> {
        self.recv_traced().map(|(msg, _)| msg)
    }

    /// Receive one protocol message plus its trace extension, if the
    /// peer attached one (blocking). Peers that predate tracing never
    /// set the flag, so this decodes their frames exactly as [`recv`]
    /// always has.
    ///
    /// [`recv`]: FramedConn::recv
    pub fn recv_traced(&mut self) -> Result<(Message, Option<TraceContext>), ZltpError> {
        let mut header = [0u8; 5];
        self.stream.read_exact(&mut header)?;
        let len = u32::from_be_bytes(header[..4].try_into().unwrap()) as usize;
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(ZltpError::Wire(format!("invalid frame length {len}")));
        }
        let raw_type = header[4];
        let mut body = vec![0u8; len - 1];
        self.stream.read_exact(&mut body)?;
        let n = (4 + len) as u64;
        self.bytes_received += n;
        lightweb_telemetry::counter!("transport.bytes.recv").add(n);
        lightweb_telemetry::counter!("transport.frames.recv").inc();
        let (frame, trace) = Frame::strip_trace_ext(raw_type, body)?;
        Ok((Message::from_frame(&frame)?, trace))
    }

    /// Borrow the inner stream (e.g. to inspect socket options).
    pub fn get_ref(&self) -> &S {
        &self.stream
    }

    /// Consume the wrapper and return the inner stream.
    pub fn into_inner(self) -> S {
        self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_pair_carries_bytes_both_ways() {
        let (mut a, mut b) = mem_pair();
        a.write_all(b"hello").unwrap();
        let mut buf = [0u8; 5];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        b.write_all(b"world").unwrap();
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"world");
    }

    #[test]
    fn partial_reads_buffer_correctly() {
        let (mut a, mut b) = mem_pair();
        a.write_all(&[1, 2, 3, 4, 5, 6]).unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
        let mut rest = [0u8; 2];
        b.read_exact(&mut rest).unwrap();
        assert_eq!(rest, [5, 6]);
    }

    #[test]
    fn dropped_peer_reads_eof_and_write_fails() {
        let (mut a, b) = mem_pair();
        drop(b);
        let mut buf = [0u8; 1];
        assert_eq!(a.read(&mut buf).unwrap(), 0, "EOF expected");
        assert!(a.write_all(b"x").is_err());
    }

    #[test]
    fn framed_messages_roundtrip_over_mem() {
        let (a, b) = mem_pair();
        let mut ca = FramedConn::new(a);
        let mut cb = FramedConn::new(b);
        let msg = Message::Get {
            request_id: 3,
            payload: vec![7; 100],
        };
        ca.send(&msg).unwrap();
        assert_eq!(cb.recv().unwrap(), msg);
        assert_eq!(ca.bytes_sent(), cb.bytes_received());
        assert!(ca.bytes_sent() > 100);
    }

    #[test]
    fn framed_messages_roundtrip_over_tcp() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = FramedConn::new(stream);
            let msg = conn.recv().unwrap();
            conn.send(&msg).unwrap(); // echo
        });
        let mut conn = FramedConn::new(std::net::TcpStream::connect(addr).unwrap());
        let msg = Message::GetResponse {
            request_id: 1,
            payload: vec![0xEE; 1024],
        };
        conn.send(&msg).unwrap();
        assert_eq!(conn.recv().unwrap(), msg);
        server.join().unwrap();
    }

    #[test]
    fn traced_frames_roundtrip_and_plain_peers_interop() {
        let (a, b) = mem_pair();
        let mut ca = FramedConn::new(a);
        let mut cb = FramedConn::new(b);
        let msg = Message::Get {
            request_id: 9,
            payload: vec![3; 50],
        };
        let ctx = TraceContext {
            trace_id: 42,
            span_id: 7,
            parent_id: 1,
        };
        // Traced sender → trace-aware receiver.
        ca.send_traced(&msg, Some(&ctx)).unwrap();
        assert_eq!(cb.recv_traced().unwrap(), (msg.clone(), Some(ctx)));
        // Traced sender → legacy receiver (recv drops the extension).
        ca.send_traced(&msg, Some(&ctx)).unwrap();
        assert_eq!(cb.recv().unwrap(), msg);
        // Legacy sender → trace-aware receiver.
        ca.send(&msg).unwrap();
        assert_eq!(cb.recv_traced().unwrap(), (msg.clone(), None));
        // Byte accounting covers the extension: the two traced sends
        // cost TRACE_EXT_LEN more than the plain one, each.
        let plain = ca.bytes_sent() - 2 * crate::wire::TRACE_EXT_LEN as u64;
        assert_eq!(plain % 3, 0, "three equal frames plus two extensions");
        assert_eq!(ca.bytes_sent(), cb.bytes_received());
    }

    #[test]
    fn encode_frame_matches_framed_conn_bytes() {
        let msg = Message::Get {
            request_id: 11,
            payload: vec![5; 37],
        };
        let ctx = TraceContext {
            trace_id: 1,
            span_id: 2,
            parent_id: 3,
        };
        for trace in [None, Some(ctx)] {
            let wire = encode_frame(&msg, trace.as_ref()).unwrap();
            let (a, b) = mem_pair();
            let mut ca = FramedConn::new(a);
            ca.send_traced(&msg, trace.as_ref()).unwrap();
            let mut got = vec![0u8; wire.len()];
            let mut rb = b;
            rb.read_exact(&mut got).unwrap();
            assert_eq!(got, wire);
        }
    }

    #[test]
    fn decoder_handles_byte_at_a_time_input() {
        let msg = Message::Get {
            request_id: 77,
            payload: vec![9; 300],
        };
        let ctx = TraceContext {
            trace_id: 0xABCD,
            span_id: 12,
            parent_id: 0,
        };
        let wire = encode_frame(&msg, Some(&ctx)).unwrap();
        let mut dec = FrameDecoder::new();
        for (i, byte) in wire.iter().enumerate() {
            assert!(
                dec.decode().unwrap().is_none(),
                "no frame before byte {i} of {}",
                wire.len()
            );
            dec.extend(std::slice::from_ref(byte));
        }
        assert_eq!(dec.decode().unwrap(), Some((msg, Some(ctx))));
        assert_eq!(dec.buffered(), 0);
        assert!(dec.decode().unwrap().is_none());
    }

    #[test]
    fn decoder_handles_frames_split_and_coalesced_across_reads() {
        let msgs: Vec<Message> = (0..5)
            .map(|i| Message::Get {
                request_id: i,
                payload: vec![i as u8; 64 * (i as usize + 1)],
            })
            .collect();
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&encode_frame(m, None).unwrap());
        }
        // Feed in ragged chunks that straddle frame boundaries.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for chunk in wire.chunks(97) {
            dec.extend(chunk);
            while let Some((m, t)) = dec.decode().unwrap() {
                assert_eq!(t, None);
                got.push(m);
            }
        }
        assert_eq!(got, msgs);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn decoder_rejects_oversized_frame_from_header_alone() {
        let mut dec = FrameDecoder::new();
        // Claim a 1 GiB frame; only the header ever arrives.
        dec.extend(&[0x40, 0, 0, 1, 3]);
        assert!(matches!(dec.decode(), Err(ZltpError::Wire(_))));
    }

    #[test]
    fn decoder_rejects_zero_length_frame() {
        let mut dec = FrameDecoder::new();
        dec.extend(&[0, 0, 0, 0, 0]);
        assert!(matches!(dec.decode(), Err(ZltpError::Wire(_))));
    }

    #[test]
    fn decoder_compacts_consumed_prefix() {
        let msg = Message::Get {
            request_id: 1,
            payload: vec![0; 2048],
        };
        let wire = encode_frame(&msg, None).unwrap();
        let mut dec = FrameDecoder::new();
        // Many frames through one decoder: buffered() must return to zero
        // and internal growth must stay bounded by the compaction rule.
        for _ in 0..64 {
            dec.extend(&wire);
            assert!(dec.decode().unwrap().is_some());
            assert_eq!(dec.buffered(), 0);
        }
        // Leave a partial frame in flight, then finish it.
        dec.extend(&wire[..wire.len() - 1]);
        assert!(dec.decode().unwrap().is_none());
        dec.extend(&wire[wire.len() - 1..]);
        assert_eq!(dec.decode().unwrap(), Some((msg, None)));
    }

    #[test]
    fn truncated_stream_is_an_io_error() {
        let (mut a, b) = mem_pair();
        // Write a header promising 100 bytes, then hang up.
        a.write_all(&[0, 0, 0, 100, 3]).unwrap();
        drop(a);
        let mut cb = FramedConn::new(b);
        assert!(matches!(cb.recv(), Err(ZltpError::Io(_))));
    }

    #[test]
    fn zero_length_frame_rejected() {
        let (mut a, b) = mem_pair();
        a.write_all(&[0, 0, 0, 0, 0]).unwrap();
        let mut cb = FramedConn::new(b);
        assert!(matches!(cb.recv(), Err(ZltpError::Wire(_))));
    }

    #[test]
    fn oversized_frame_rejected_without_allocation() {
        let (mut a, b) = mem_pair();
        // Claim a 1 GiB frame.
        a.write_all(&[0x40, 0, 0, 1, 3]).unwrap();
        let mut cb = FramedConn::new(b);
        assert!(matches!(cb.recv(), Err(ZltpError::Wire(_))));
    }

    #[test]
    fn flagged_frame_without_room_for_extension_rejected() {
        let (mut a, b) = mem_pair();
        // CLOSE with the trace flag but a 1-byte body: too short for the
        // 32-byte extension.
        a.write_all(&[0, 0, 0, 2, 8 | crate::wire::TRACE_EXT_FLAG, 0])
            .unwrap();
        let mut cb = FramedConn::new(b);
        assert!(matches!(cb.recv_traced(), Err(ZltpError::Wire(_))));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Frames with and without the trace extension round-trip over a
        /// real framed connection, in any interleaving.
        #[test]
        fn framed_conn_roundtrips_with_and_without_trace(
            request_id in any::<u32>(),
            payload in prop::collection::vec(any::<u8>(), 0..600),
            trace_id in any::<u128>(),
            span_id in any::<u64>(),
            parent_id in any::<u64>(),
            traced_first in any::<bool>(),
        ) {
            let ctx = TraceContext { trace_id, span_id, parent_id };
            let msg = Message::Get { request_id, payload };
            let (a, b) = mem_pair();
            let mut ca = FramedConn::new(a);
            let mut cb = FramedConn::new(b);
            let order = if traced_first {
                [Some(ctx), None]
            } else {
                [None, Some(ctx)]
            };
            for trace in order {
                ca.send_traced(&msg, trace.as_ref()).unwrap();
                let (got, got_trace) = cb.recv_traced().unwrap();
                prop_assert_eq!(&got, &msg);
                prop_assert_eq!(got_trace, trace);
            }
            prop_assert_eq!(ca.bytes_sent(), cb.bytes_received());
        }

        /// The incremental decoder produces exactly the sent message
        /// sequence under arbitrary fragmentation of the byte stream.
        #[test]
        fn decoder_is_fragmentation_invariant(
            payload_lens in prop::collection::vec(0usize..200, 1..6),
            traced in prop::collection::vec(any::<bool>(), 6..7),
            chunk in 1usize..64,
        ) {
            let ctx = TraceContext { trace_id: 7, span_id: 7, parent_id: 7 };
            let msgs: Vec<(Message, Option<TraceContext>)> = payload_lens
                .iter()
                .zip(traced.iter())
                .enumerate()
                .map(|(i, (len, t))| {
                    let m = Message::Get { request_id: i as u32, payload: vec![i as u8; *len] };
                    (m, t.then_some(ctx))
                })
                .collect();
            let mut wire = Vec::new();
            for (m, t) in &msgs {
                wire.extend_from_slice(&encode_frame(m, t.as_ref()).unwrap());
            }
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for piece in wire.chunks(chunk) {
                dec.extend(piece);
                while let Some(out) = dec.decode().unwrap() {
                    got.push(out);
                }
            }
            prop_assert_eq!(got, msgs);
            prop_assert_eq!(dec.buffered(), 0);
        }
    }
}
