//! The enclave + Path ORAM backend.

use crate::error::EngineError;
use crate::query::PreparedQuery;
use crate::traits::QueryEngine;
use lightweb_crypto::aead::{ChaCha20Poly1305, AEAD_NONCE_LEN};
use lightweb_oram::SimulatedEnclave;
use lightweb_telemetry::trace::{self, TraceContext};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeSet;

/// Keywords travel sealed over the (simulated) attested channel; the
/// enclave looks them up through Path ORAM so the untrusted memory trace is
/// independent of the key. The engine owns the session key, the AEAD
/// seal/open of both directions, and the presence set (the ORAM store keeps
/// zero-blobs for unpublished keys, so presence must be tracked outside
/// it — previously the server's master map played this role).
pub struct EnclaveOramEngine {
    blob_len: usize,
    capacity: u64,
    /// Simulated attested-channel key handed to clients in the hello.
    session_key: [u8; 32],
    enclave: Mutex<SimulatedEnclave>,
    published: RwLock<BTreeSet<Vec<u8>>>,
}

impl EnclaveOramEngine {
    /// Create an engine able to hold `capacity` blobs of `blob_len` bytes.
    pub fn new(capacity: u64, blob_len: usize) -> Result<Self, EngineError> {
        let enclave = SimulatedEnclave::new(capacity, blob_len).map_err(EngineError::backend)?;
        Ok(Self {
            blob_len,
            capacity,
            session_key: lightweb_crypto::random_key(),
            enclave: Mutex::new(enclave),
            published: RwLock::new(BTreeSet::new()),
        })
    }

    fn aead(&self) -> ChaCha20Poly1305 {
        ChaCha20Poly1305::new(&self.session_key)
    }

    fn answer_one(&self, keyword: &[u8]) -> Result<Vec<u8>, EngineError> {
        // Presence comes from the published set: the ORAM store keeps
        // zero-blobs for unpublished keys.
        let present = self.published.read().contains(keyword);
        let value = self
            .enclave
            .lock()
            .get(keyword)
            .map_err(EngineError::backend)?;
        let mut plain = Vec::with_capacity(1 + self.blob_len);
        plain.push(present as u8);
        match value {
            Some(v) if present => plain.extend_from_slice(&v),
            _ => plain.extend_from_slice(&vec![0u8; self.blob_len]),
        }
        let mut resp_nonce = [0u8; AEAD_NONCE_LEN];
        lightweb_crypto::fill_random(&mut resp_nonce);
        let sealed = self
            .aead()
            .seal(&resp_nonce, b"zltp-enclave-response", &plain);
        let mut out = Vec::with_capacity(AEAD_NONCE_LEN + sealed.len());
        out.extend_from_slice(&resp_nonce);
        out.extend_from_slice(&sealed);
        Ok(out)
    }
}

impl QueryEngine for EnclaveOramEngine {
    fn name(&self) -> &'static str {
        "enclave_oram"
    }

    fn request_metric(&self) -> &'static str {
        "zltp.server.request.enclave.ns"
    }

    fn prepare(&self, payload: &[u8]) -> Result<PreparedQuery, EngineError> {
        // Payload: nonce || AEAD(session_key, nonce, "", key bytes).
        if payload.len() < AEAD_NONCE_LEN {
            return Err(EngineError::BadQuery("sealed query too short".into()));
        }
        let nonce: [u8; AEAD_NONCE_LEN] = payload[..AEAD_NONCE_LEN].try_into().unwrap();
        let keyword = self
            .aead()
            .open(&nonce, b"zltp-enclave-query", &payload[AEAD_NONCE_LEN..])
            .map_err(|_| EngineError::BadQuery("sealed query failed to open".into()))?;
        Ok(PreparedQuery::Keyword(keyword))
    }

    fn answer_batch(
        &self,
        queries: &[PreparedQuery],
        ctxs: &[Option<TraceContext>],
    ) -> Result<Vec<Vec<u8>>, EngineError> {
        // ORAM accesses are inherently sequential (each reshuffles state),
        // so a batch is simply answered in turn.
        queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let _ctx = trace::enter(ctxs.get(i).copied().flatten());
                let _span = trace::maybe_child("engine.oram.answer");
                match q {
                    PreparedQuery::Keyword(kw) => self.answer_one(kw),
                    other => Err(EngineError::BadQuery(format!(
                        "enclave cannot answer a {} query",
                        other.kind()
                    ))),
                }
            })
            .collect()
    }

    fn publish(&self, key: &[u8], blob: &[u8]) -> Result<(), EngineError> {
        self.enclave
            .lock()
            .put(key, blob)
            .map_err(EngineError::backend)?;
        self.published.write().insert(key.to_vec());
        Ok(())
    }

    fn unpublish(&self, key: &[u8]) -> Result<(), EngineError> {
        if self.published.write().remove(key) {
            // The enclave store has no delete; overwrite with zeros. The
            // published set is authoritative for presence.
            let zeros = vec![0u8; self.blob_len];
            self.enclave
                .lock()
                .put(key, &zeros)
                .map_err(EngineError::backend)?;
        }
        Ok(())
    }

    fn rebuild(&self, entries: &[(Vec<u8>, Vec<u8>)]) -> Result<(), EngineError> {
        let mut fresh =
            SimulatedEnclave::new(self.capacity, self.blob_len).map_err(EngineError::backend)?;
        fresh
            .load(entries.iter().map(|(k, v)| (k.as_slice(), v.as_slice())))
            .map_err(EngineError::backend)?;
        *self.enclave.lock() = fresh;
        *self.published.write() = entries.iter().map(|(k, _)| k.clone()).collect();
        Ok(())
    }

    fn session_extra(&self) -> Result<Vec<u8>, EngineError> {
        Ok(self.session_key.to_vec())
    }
}
