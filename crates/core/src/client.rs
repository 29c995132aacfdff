//! ZLTP client sessions and the mode-aware client drivers.
//!
//! [`ZltpSession`] is one negotiated connection to one server. On top of it:
//!
//! * [`TwoServerZltp`] — the paper's prototype client: sessions with two
//!   non-colluding servers, DPF key-pair generation per GET, XOR
//!   combination of the answers (§2.2, §5.1).
//! * [`LweClientSession`] — single-server mode: downloads the offline
//!   material (manifest + hint) once, then issues Regev-encrypted queries.
//! * [`EnclaveClient`] — enclave mode: seals the keyword to the enclave
//!   over the (simulated) attested channel.
//!
//! All drivers expose byte/request counters so the harness can reproduce
//! the paper's communication table (13.6 KiB per request at `d = 22`,
//! §5.1) without instrumenting the network.

use crate::config::{Mode, ModeSet};
use crate::error::ZltpError;
use crate::transport::FramedConn;
use crate::wire::{Message, PROTOCOL_VERSION};
use lightweb_crypto::aead::{ChaCha20Poly1305, AEAD_NONCE_LEN};
use lightweb_crypto::SipHash24;
use lightweb_dpf::DpfParams;
use lightweb_pir::lwe::{LweClient, LweParams};
use lightweb_pir::{KeywordMap, TwoServerClient};
use lightweb_telemetry::trace::TraceSpan;
use std::io::{Read, Write};

/// Per-session traffic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Bytes sent on the wire (frames included).
    pub bytes_sent: u64,
    /// Bytes received.
    pub bytes_received: u64,
    /// Private-GETs issued.
    pub requests: u64,
}

/// One negotiated ZLTP session.
pub struct ZltpSession<S: Read + Write> {
    conn: FramedConn<S>,
    mode: Mode,
    universe_id: String,
    blob_len: usize,
    params: DpfParams,
    keyword_map: KeywordMap,
    keyword_hash_key: [u8; 16],
    extra: Vec<u8>,
    next_request_id: u32,
    requests: u64,
}

impl<S: Read + Write> ZltpSession<S> {
    /// Connect: send `ClientHello`, validate the `ServerHello`, and return
    /// the ready session.
    pub fn connect(stream: S, client_modes: &ModeSet) -> Result<Self, ZltpError> {
        let mut conn = FramedConn::new(stream);
        conn.send(&Message::ClientHello {
            version: PROTOCOL_VERSION,
            modes: client_modes.modes().iter().map(|m| m.to_wire()).collect(),
        })?;
        match conn.recv()? {
            Message::ServerHello {
                version,
                universe_id,
                mode,
                blob_len,
                domain_bits,
                term_bits,
                keyword_hash_key,
                extra,
            } => {
                if version != PROTOCOL_VERSION {
                    return Err(ZltpError::VersionMismatch {
                        ours: PROTOCOL_VERSION,
                        theirs: version,
                    });
                }
                let mode = Mode::from_wire(mode)
                    .ok_or_else(|| ZltpError::Wire(format!("unknown mode {mode}")))?;
                if !client_modes.contains(mode) {
                    return Err(ZltpError::NoCommonMode);
                }
                let params = DpfParams::new(domain_bits as u32, term_bits as u32)
                    .map_err(|e| ZltpError::Wire(e.to_string()))?;
                Ok(Self {
                    conn,
                    mode,
                    universe_id,
                    blob_len: blob_len as usize,
                    params,
                    keyword_map: KeywordMap::new(&keyword_hash_key, domain_bits as u32),
                    keyword_hash_key,
                    extra,
                    next_request_id: 1,
                    requests: 0,
                })
            }
            Message::Error { code, message } => Err(ZltpError::ServerError { code, message }),
            other => Err(ZltpError::UnexpectedMessage {
                expected: "ServerHello",
                got: other.name(),
            }),
        }
    }

    /// The negotiated mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The universe served on this session.
    pub fn universe_id(&self) -> &str {
        &self.universe_id
    }

    /// The fixed blob size on this session.
    pub fn blob_len(&self) -> usize {
        self.blob_len
    }

    /// The DPF parameters of the universe.
    pub fn params(&self) -> DpfParams {
        self.params
    }

    /// The keyword→slot map of the universe.
    pub fn keyword_map(&self) -> &KeywordMap {
        &self.keyword_map
    }

    /// Mode-specific metadata from the hello.
    pub fn extra(&self) -> &[u8] {
        &self.extra
    }

    /// Traffic counters.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            bytes_sent: self.conn.bytes_sent(),
            bytes_received: self.conn.bytes_received(),
            requests: self.requests,
        }
    }

    /// Issue one raw GET and wait for its response.
    ///
    /// A `zltp.client.transport` span covers send→receive (a child of the
    /// current trace context, otherwise the root of a fresh trace), and
    /// its context travels to the server as the frame's trace extension
    /// so server-side spans land in the same trace tree.
    pub fn get_raw(&mut self, payload: Vec<u8>) -> Result<Vec<u8>, ZltpError> {
        let span = TraceSpan::child_or_root("zltp.client.transport");
        let request_id = self.next_request_id;
        self.next_request_id = self.next_request_id.wrapping_add(1);
        self.conn.send_traced(
            &Message::Get {
                request_id,
                payload,
            },
            Some(&span.ctx()),
        )?;
        self.requests += 1;
        match self.conn.recv()? {
            Message::GetResponse {
                request_id: rid,
                payload,
            } => {
                if rid != request_id {
                    return Err(ZltpError::Wire(format!(
                        "response id {rid} does not match request id {request_id}"
                    )));
                }
                Ok(payload)
            }
            Message::Error { code, message } => Err(ZltpError::ServerError { code, message }),
            other => Err(ZltpError::UnexpectedMessage {
                expected: "GetResponse",
                got: other.name(),
            }),
        }
    }

    /// Send any message and receive the reply (used by mode drivers).
    pub(crate) fn exchange(&mut self, msg: &Message) -> Result<Message, ZltpError> {
        self.conn.send(msg)?;
        self.conn.recv()
    }

    /// Orderly close.
    pub fn close(mut self) -> Result<(), ZltpError> {
        self.conn.send(&Message::Close)?;
        // Best-effort: the server echoes Close; ignore errors on a peer
        // that already hung up.
        let _ = self.conn.recv();
        Ok(())
    }
}

/// The two-server PIR client: one session per server, XOR combination.
pub struct TwoServerZltp<S: Read + Write> {
    s0: ZltpSession<S>,
    s1: ZltpSession<S>,
    pir: TwoServerClient,
}

impl<S: Read + Write> TwoServerZltp<S> {
    /// Connect to both servers of a non-colluding pair; both must serve the
    /// same universe with identical parameters.
    pub fn connect(stream0: S, stream1: S) -> Result<Self, ZltpError> {
        let modes = ModeSet::new([Mode::TwoServerPir]);
        let s0 = ZltpSession::connect(stream0, &modes)?;
        let s1 = ZltpSession::connect(stream1, &modes)?;
        if s0.universe_id() != s1.universe_id() {
            return Err(ZltpError::ServerPairMismatch(format!(
                "universes differ: '{}' vs '{}'",
                s0.universe_id(),
                s1.universe_id()
            )));
        }
        if s0.params() != s1.params() || s0.blob_len() != s1.blob_len() {
            return Err(ZltpError::ServerPairMismatch("parameters differ".into()));
        }
        if s0.keyword_hash_key != s1.keyword_hash_key {
            return Err(ZltpError::ServerPairMismatch(
                "keyword hash keys differ".into(),
            ));
        }
        // `extra` carries the party id; a client talking to the same
        // physical server twice would get no non-collusion protection.
        if s0.extra() == s1.extra() {
            return Err(ZltpError::ServerPairMismatch(
                "both endpoints claim the same party id".into(),
            ));
        }
        let pir = TwoServerClient::new(s0.params(), s0.blob_len());
        Ok(Self { s0, s1, pir })
    }

    /// The universe id.
    pub fn universe_id(&self) -> &str {
        self.s0.universe_id()
    }

    /// The fixed blob size.
    pub fn blob_len(&self) -> usize {
        self.s0.blob_len()
    }

    /// The universe's DPF parameters (validated identical on both
    /// sessions at connect time).
    pub fn params(&self) -> DpfParams {
        self.s0.params()
    }

    /// The universe's keyword→slot map.
    pub fn keyword_map(&self) -> &KeywordMap {
        self.s0.keyword_map()
    }

    /// Private-GET by keyword: hash to a slot, query both servers, combine.
    ///
    /// An unpublished key returns the all-zero blob (indistinguishable from
    /// a published all-zero blob; the lightweb blob encoding layers a
    /// length prefix on top precisely so this case is recognizable).
    pub fn private_get(&mut self, key: &str) -> Result<Vec<u8>, ZltpError> {
        let slot = self.s0.keyword_map().slot(key.as_bytes());
        self.private_get_slot(slot)
    }

    /// Private-GET by raw slot. Also used for dummy (cover) queries: a
    /// fetch of a uniformly random slot is indistinguishable from a real
    /// one — the lightweb browser relies on this for its fixed per-page
    /// fetch count (§3.2).
    ///
    /// One `zltp.client.request` span covers the whole logical GET — both
    /// server hops, each a `zltp.client.transport` child — under the
    /// current trace context (e.g. the browser's per-page span), or as
    /// the root of a fresh trace.
    pub fn private_get_slot(&mut self, slot: u64) -> Result<Vec<u8>, ZltpError> {
        let _span = TraceSpan::child_or_root("zltp.client.request");
        let query = self.pir.query_slot(slot);
        let a0 = self.s0.get_raw(query.key0.to_bytes().to_vec())?;
        let a1 = self.s1.get_raw(query.key1.to_bytes().to_vec())?;
        if a0.len() != self.blob_len() || a1.len() != self.blob_len() {
            return Err(ZltpError::Wire("answer has wrong blob size".into()));
        }
        TwoServerClient::combine(&a0, &a1).map_err(|e| ZltpError::Engine(e.to_string()))
    }

    /// Combined traffic counters across both sessions.
    pub fn stats(&self) -> SessionStats {
        let a = self.s0.stats();
        let b = self.s1.stats();
        SessionStats {
            bytes_sent: a.bytes_sent + b.bytes_sent,
            bytes_received: a.bytes_received + b.bytes_received,
            requests: a.requests, // logical GETs (each touches both servers)
        }
    }

    /// Close both sessions.
    pub fn close(self) -> Result<(), ZltpError> {
        self.s0.close()?;
        self.s1.close()
    }
}

/// Single-server LWE client.
pub struct LweClientSession<S: Read + Write> {
    session: ZltpSession<S>,
    lwe: LweClient,
    /// Sorted key hashes; a key's record index is its rank here.
    manifest: Vec<u64>,
    hint: Vec<u32>,
    sip: SipHash24,
}

impl<S: Read + Write> LweClientSession<S> {
    /// Connect in LWE mode and download the offline material.
    pub fn connect(stream: S) -> Result<Self, ZltpError> {
        let modes = ModeSet::new([Mode::SingleServerLwe]);
        let mut session = ZltpSession::connect(stream, &modes)?;
        // extra = seed(32) || n(u32) || cols(u64)
        let extra = session.extra().to_vec();
        if extra.len() != 44 {
            return Err(ZltpError::Wire(format!(
                "bad LWE hello extra ({} bytes)",
                extra.len()
            )));
        }
        let seed: [u8; 32] = extra[..32].try_into().unwrap();
        let n = u32::from_be_bytes(extra[32..36].try_into().unwrap()) as usize;
        let cols = u64::from_be_bytes(extra[36..44].try_into().unwrap()) as usize;
        let lwe = LweClient::new(LweParams { n }, seed, cols, session.blob_len());

        let (manifest, hint) = match session.exchange(&Message::LweSetupRequest)? {
            Message::LweSetupResponse { key_hashes, hint } => (key_hashes, hint),
            Message::Error { code, message } => {
                return Err(ZltpError::ServerError { code, message })
            }
            other => {
                return Err(ZltpError::UnexpectedMessage {
                    expected: "LweSetupResponse",
                    got: other.name(),
                })
            }
        };
        let sip = SipHash24::new(&session.keyword_hash_key);
        Ok(Self {
            session,
            lwe,
            manifest,
            hint,
            sip,
        })
    }

    /// Size of the one-time offline download (hint + manifest).
    pub fn offline_bytes(&self) -> usize {
        self.hint.len() * 4 + self.manifest.len() * 8
    }

    /// Private-GET by keyword. Returns `None` when the key is not in the
    /// manifest (presence is public metadata in this mode); a *dummy* query
    /// is still issued so the server-visible traffic is identical.
    pub fn private_get(&mut self, key: &str) -> Result<Option<Vec<u8>>, ZltpError> {
        let h = self.sip.hash(key.as_bytes());
        let found = self.manifest.binary_search(&h).ok();
        if self.manifest.is_empty() {
            return Ok(None);
        }
        let _span = TraceSpan::child_or_root("zltp.client.request");
        let index = found.unwrap_or(0);
        let query = self.lwe.query(index);
        let mut payload = Vec::with_capacity(query.payload.len() * 4);
        for v in &query.payload {
            payload.extend_from_slice(&v.to_be_bytes());
        }
        let raw = self.session.get_raw(payload)?;
        if raw.len() % 4 != 0 {
            return Err(ZltpError::Wire("LWE answer not a u32 vector".into()));
        }
        let answer: Vec<u32> = raw
            .chunks_exact(4)
            .map(|c| u32::from_be_bytes(c.try_into().unwrap()))
            .collect();
        let blob = self
            .lwe
            .decode(&query, &self.hint, &answer)
            .map_err(|e| ZltpError::Engine(e.to_string()))?;
        Ok(found.map(|_| blob))
    }

    /// Traffic counters.
    pub fn stats(&self) -> SessionStats {
        self.session.stats()
    }

    /// Orderly close.
    pub fn close(self) -> Result<(), ZltpError> {
        self.session.close()
    }
}

/// Enclave-mode client: keywords travel sealed to the enclave.
pub struct EnclaveClient<S: Read + Write> {
    session: ZltpSession<S>,
    aead: ChaCha20Poly1305,
}

impl<S: Read + Write> EnclaveClient<S> {
    /// Connect in enclave mode. The hello's `extra` carries the session key
    /// that a real deployment would derive from remote attestation.
    pub fn connect(stream: S) -> Result<Self, ZltpError> {
        let modes = ModeSet::new([Mode::Enclave]);
        let session = ZltpSession::connect(stream, &modes)?;
        let key: [u8; 32] = session
            .extra()
            .try_into()
            .map_err(|_| ZltpError::Wire("bad enclave session key".into()))?;
        Ok(Self {
            session,
            aead: ChaCha20Poly1305::new(&key),
        })
    }

    /// Private-GET by keyword. Returns `None` for unpublished keys; the
    /// enclave performs the same ORAM work either way.
    pub fn private_get(&mut self, key: &str) -> Result<Option<Vec<u8>>, ZltpError> {
        let _span = TraceSpan::child_or_root("zltp.client.request");
        let mut nonce = [0u8; AEAD_NONCE_LEN];
        lightweb_crypto::fill_random(&mut nonce);
        let sealed = self
            .aead
            .seal(&nonce, b"zltp-enclave-query", key.as_bytes());
        let mut payload = Vec::with_capacity(AEAD_NONCE_LEN + sealed.len());
        payload.extend_from_slice(&nonce);
        payload.extend_from_slice(&sealed);

        let raw = self.session.get_raw(payload)?;
        if raw.len() < AEAD_NONCE_LEN {
            return Err(ZltpError::Wire("sealed response too short".into()));
        }
        let rn: [u8; AEAD_NONCE_LEN] = raw[..AEAD_NONCE_LEN].try_into().unwrap();
        let plain = self
            .aead
            .open(&rn, b"zltp-enclave-response", &raw[AEAD_NONCE_LEN..])
            .map_err(|_| ZltpError::Wire("sealed response failed to open".into()))?;
        if plain.len() != 1 + self.session.blob_len() {
            return Err(ZltpError::Wire("sealed response has wrong size".into()));
        }
        Ok(if plain[0] == 1 {
            Some(plain[1..].to_vec())
        } else {
            None
        })
    }

    /// Traffic counters.
    pub fn stats(&self) -> SessionStats {
        self.session.stats()
    }

    /// Orderly close.
    pub fn close(self) -> Result<(), ZltpError> {
        self.session.close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;
    use crate::server::{InProcServer, ZltpServer};

    fn pair(blob_len: usize) -> (InProcServer, InProcServer) {
        let mut c0 = ServerConfig::small("u", 0);
        c0.blob_len = blob_len;
        let mut c1 = ServerConfig::small("u", 1);
        c1.blob_len = blob_len;
        (
            InProcServer::new(ZltpServer::new(c0).unwrap()),
            InProcServer::new(ZltpServer::new(c1).unwrap()),
        )
    }

    fn publish_both(s0: &InProcServer, s1: &InProcServer, key: &str, blob: &[u8]) {
        s0.server().publish(key, blob).unwrap();
        s1.server().publish(key, blob).unwrap();
    }

    #[test]
    fn two_server_end_to_end() {
        let (s0, s1) = pair(64);
        publish_both(&s0, &s1, "nytimes.com/africa", &[7u8; 64]);
        publish_both(&s0, &s1, "cnn.com/world", &[9u8; 64]);

        let mut client = TwoServerZltp::connect(s0.connect(), s1.connect()).unwrap();
        assert_eq!(client.universe_id(), "u");
        assert_eq!(
            client.private_get("nytimes.com/africa").unwrap(),
            vec![7u8; 64]
        );
        assert_eq!(client.private_get("cnn.com/world").unwrap(), vec![9u8; 64]);
        // Unpublished key: all-zero blob.
        assert_eq!(client.private_get("unknown").unwrap(), vec![0u8; 64]);
        let stats = client.stats();
        assert_eq!(stats.requests, 3);
        assert!(stats.bytes_sent > 0 && stats.bytes_received > 0);
        client.close().unwrap();
    }

    #[test]
    fn two_server_rejects_same_party_pair() {
        let (s0, _s1) = pair(64);
        let Err(err) = TwoServerZltp::connect(s0.connect(), s0.connect()) else {
            panic!("same-party pair accepted")
        };
        assert!(matches!(err, ZltpError::ServerPairMismatch(_)), "{err}");
    }

    #[test]
    fn two_server_rejects_mismatched_universes() {
        let mut c0 = ServerConfig::small("alpha", 0);
        c0.blob_len = 64;
        let mut c1 = ServerConfig::small("beta", 1);
        c1.blob_len = 64;
        let s0 = InProcServer::new(ZltpServer::new(c0).unwrap());
        let s1 = InProcServer::new(ZltpServer::new(c1).unwrap());
        let Err(err) = TwoServerZltp::connect(s0.connect(), s1.connect()) else {
            panic!("mismatched universes accepted")
        };
        assert!(matches!(err, ZltpError::ServerPairMismatch(_)));
    }

    #[test]
    fn enclave_mode_end_to_end() {
        let mut cfg = ServerConfig::small("u", 0);
        cfg.blob_len = 32;
        cfg.modes = ModeSet::new([Mode::Enclave]);
        let s = InProcServer::new(ZltpServer::new(cfg).unwrap());
        s.server().publish("weather.com/94110", &[3u8; 32]).unwrap();

        let mut client = EnclaveClient::connect(s.connect()).unwrap();
        assert_eq!(
            client.private_get("weather.com/94110").unwrap(),
            Some(vec![3u8; 32])
        );
        assert_eq!(client.private_get("weather.com/00000").unwrap(), None);
        client.close().unwrap();
    }

    #[test]
    fn lwe_mode_end_to_end() {
        let mut cfg = ServerConfig::small("u", 0);
        cfg.blob_len = 32;
        cfg.modes = ModeSet::new([Mode::SingleServerLwe]);
        let s = InProcServer::new(ZltpServer::new(cfg).unwrap());
        s.server().publish("a.com/1", &[1u8; 32]).unwrap();
        s.server().publish("a.com/2", &[2u8; 32]).unwrap();
        s.server().publish("a.com/3", &[3u8; 32]).unwrap();

        let mut client = LweClientSession::connect(s.connect()).unwrap();
        assert!(client.offline_bytes() > 0);
        assert_eq!(client.private_get("a.com/2").unwrap(), Some(vec![2u8; 32]));
        assert_eq!(client.private_get("a.com/3").unwrap(), Some(vec![3u8; 32]));
        assert_eq!(client.private_get("a.com/404").unwrap(), None);
        client.close().unwrap();
    }

    #[test]
    fn mode_negotiation_follows_server_preference() {
        let mut cfg = ServerConfig::small("u", 0);
        cfg.blob_len = 32;
        cfg.modes = ModeSet::new([Mode::Enclave, Mode::TwoServerPir]);
        let s = InProcServer::new(ZltpServer::new(cfg).unwrap());
        let session = ZltpSession::connect(
            s.connect(),
            &ModeSet::new([Mode::TwoServerPir, Mode::Enclave]),
        )
        .unwrap();
        assert_eq!(session.mode(), Mode::Enclave);
    }

    #[test]
    fn no_common_mode_is_an_error() {
        let mut cfg = ServerConfig::small("u", 0);
        cfg.modes = ModeSet::new([Mode::Enclave]);
        let s = InProcServer::new(ZltpServer::new(cfg).unwrap());
        let Err(err) = ZltpSession::connect(s.connect(), &ModeSet::new([Mode::TwoServerPir]))
        else {
            panic!("incompatible mode accepted")
        };
        assert!(
            matches!(err, ZltpError::ServerError { .. } | ZltpError::NoCommonMode),
            "{err}"
        );
    }

    #[test]
    fn responses_have_fixed_size_regardless_of_key() {
        // The traffic-analysis defense: every PIR response is blob_len
        // bytes whether the key exists, is short, or is absent.
        let (s0, s1) = pair(128);
        publish_both(&s0, &s1, "site.com/a", &[1u8; 128]);
        let mut client = TwoServerZltp::connect(s0.connect(), s1.connect()).unwrap();
        let r1 = client.private_get("site.com/a").unwrap();
        let r2 = client
            .private_get("absent/key/with/a/much/longer/path")
            .unwrap();
        assert_eq!(r1.len(), 128);
        assert_eq!(r2.len(), 128);
    }

    #[test]
    fn dummy_slot_queries_work() {
        let (s0, s1) = pair(64);
        publish_both(&s0, &s1, "x", &[5u8; 64]);
        let mut client = TwoServerZltp::connect(s0.connect(), s1.connect()).unwrap();
        // Cover traffic: random slots must be servable.
        for slot in [0u64, 1, 12345] {
            let blob = client.private_get_slot(slot).unwrap();
            assert_eq!(blob.len(), 64);
        }
    }

    #[test]
    fn tcp_transport_end_to_end() {
        let mut c0 = ServerConfig::small("tcp-universe", 0);
        c0.blob_len = 64;
        let mut c1 = ServerConfig::small("tcp-universe", 1);
        c1.blob_len = 64;
        let server0 = ZltpServer::new(c0).unwrap();
        let server1 = ZltpServer::new(c1).unwrap();
        server0.publish("k", &[8u8; 64]).unwrap();
        server1.publish("k", &[8u8; 64]).unwrap();

        let l0 = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let a0 = l0.local_addr().unwrap();
        let a1 = l1.local_addr().unwrap();
        let _h0 = server0.serve_tcp(l0).unwrap();
        let _h1 = server1.serve_tcp(l1).unwrap();

        let mut client = TwoServerZltp::connect(
            std::net::TcpStream::connect(a0).unwrap(),
            std::net::TcpStream::connect(a1).unwrap(),
        )
        .unwrap();
        assert_eq!(client.private_get("k").unwrap(), vec![8u8; 64]);
        client.close().unwrap();
        server0.shutdown();
        server1.shutdown();
    }

    #[test]
    fn content_update_is_visible_to_new_queries() {
        let (s0, s1) = pair(64);
        publish_both(&s0, &s1, "news/today", &[1u8; 64]);
        let mut client = TwoServerZltp::connect(s0.connect(), s1.connect()).unwrap();
        assert_eq!(client.private_get("news/today").unwrap(), vec![1u8; 64]);
        publish_both(&s0, &s1, "news/today", &[2u8; 64]);
        assert_eq!(client.private_get("news/today").unwrap(), vec![2u8; 64]);
    }
}
