//! The single-server LWE PIR backend (SimplePIR-style).

use crate::error::EngineError;
use crate::query::PreparedQuery;
use crate::traits::{EngineSetup, QueryEngine};
use lightweb_crypto::SipHash24;
use lightweb_pir::lwe::{LweParams, LweServer};
use lightweb_telemetry::trace::{self, TraceContext};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// Materialized LWE state: the engine plus the manifest that maps sorted
/// key hashes to record indices.
struct LweBackend {
    server: LweServer,
    key_hashes: Vec<u64>,
}

/// Single-server PIR from the learning-with-errors assumption. Publishing
/// is cheap (a map update); the [`LweServer`] — whose hint depends on the
/// whole database — is rebuilt lazily on the next query or session, the
/// same build-on-demand policy the monolithic server used.
pub struct SingleServerLweEngine {
    blob_len: usize,
    lwe_n: usize,
    hash_key: [u8; 16],
    /// Authoritative content for this engine: key -> blob.
    entries: RwLock<BTreeMap<Vec<u8>, Vec<u8>>>,
    backend: Mutex<Option<LweBackend>>,
    dirty: AtomicBool,
}

impl SingleServerLweEngine {
    /// Create an empty engine. `hash_key` is the universe's keyword-hash
    /// key (the manifest hashes keys with it) and `lwe_n` the secret
    /// dimension.
    pub fn new(blob_len: usize, lwe_n: usize, hash_key: [u8; 16]) -> Self {
        Self {
            blob_len,
            lwe_n,
            hash_key,
            entries: RwLock::new(BTreeMap::new()),
            backend: Mutex::new(None),
            dirty: AtomicBool::new(true),
        }
    }

    fn ensure<R>(&self, f: impl FnOnce(&LweBackend) -> R) -> Result<R, EngineError> {
        let mut guard = self.backend.lock();
        if self.dirty.swap(false, Ordering::SeqCst) || guard.is_none() {
            let entries = self.entries.read();
            let sip = SipHash24::new(&self.hash_key);
            let mut hashed: Vec<(u64, &Vec<u8>)> =
                entries.iter().map(|(k, v)| (sip.hash(k), v)).collect();
            hashed.sort_by_key(|(h, _)| *h);
            let key_hashes: Vec<u64> = hashed.iter().map(|(h, _)| *h).collect();
            let records: Vec<Vec<u8>> = hashed.iter().map(|(_, v)| (*v).clone()).collect();
            let server = LweServer::new(LweParams { n: self.lwe_n }, self.blob_len, records)
                .map_err(EngineError::backend)?;
            *guard = Some(LweBackend { server, key_hashes });
        }
        Ok(f(guard.as_ref().expect("just materialized")))
    }
}

impl QueryEngine for SingleServerLweEngine {
    fn name(&self) -> &'static str {
        "single_server_lwe"
    }

    fn request_metric(&self) -> &'static str {
        "zltp.server.request.single_server_lwe.ns"
    }

    fn prepare(&self, payload: &[u8]) -> Result<PreparedQuery, EngineError> {
        if !payload.len().is_multiple_of(4) {
            return Err(EngineError::BadQuery("LWE query not a u32 vector".into()));
        }
        let query: Vec<u32> = payload
            .chunks_exact(4)
            .map(|c| u32::from_be_bytes(c.try_into().unwrap()))
            .collect();
        Ok(PreparedQuery::Lwe(query))
    }

    fn answer_batch(
        &self,
        queries: &[PreparedQuery],
        ctxs: &[Option<TraceContext>],
    ) -> Result<Vec<Vec<u8>>, EngineError> {
        queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let _ctx = trace::enter(ctxs.get(i).copied().flatten());
                let _span = trace::maybe_child("engine.lwe.answer");
                let query = match q {
                    PreparedQuery::Lwe(v) => v,
                    other => {
                        return Err(EngineError::BadQuery(format!(
                            "LWE PIR cannot answer a {} query",
                            other.kind()
                        )))
                    }
                };
                let ans = self
                    .ensure(|b| b.server.answer(query))?
                    .map_err(EngineError::bad_query)?;
                let mut out = Vec::with_capacity(ans.len() * 4);
                for v in ans {
                    out.extend_from_slice(&v.to_be_bytes());
                }
                Ok(out)
            })
            .collect()
    }

    fn publish(&self, key: &[u8], blob: &[u8]) -> Result<(), EngineError> {
        self.entries.write().insert(key.to_vec(), blob.to_vec());
        self.dirty.store(true, Ordering::SeqCst);
        Ok(())
    }

    fn unpublish(&self, key: &[u8]) -> Result<(), EngineError> {
        self.entries.write().remove(key);
        self.dirty.store(true, Ordering::SeqCst);
        Ok(())
    }

    fn rebuild(&self, entries: &[(Vec<u8>, Vec<u8>)]) -> Result<(), EngineError> {
        *self.entries.write() = entries.iter().cloned().collect();
        self.dirty.store(true, Ordering::SeqCst);
        Ok(())
    }

    fn session_extra(&self) -> Result<Vec<u8>, EngineError> {
        self.ensure(|b| {
            let mut e = Vec::with_capacity(32 + 4 + 8);
            e.extend_from_slice(&b.server.public_seed());
            e.extend_from_slice(&(self.lwe_n as u32).to_be_bytes());
            e.extend_from_slice(&(b.server.cols() as u64).to_be_bytes());
            e
        })
    }

    fn setup(&self) -> Result<Option<EngineSetup>, EngineError> {
        self.ensure(|b| {
            Some(EngineSetup {
                key_hashes: b.key_hashes.clone(),
                hint: b.server.hint().to_vec(),
            })
        })
    }
}
