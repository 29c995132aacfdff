//! The two-server DPF PIR backend — the paper's prototype mode.

use crate::error::EngineError;
use crate::pool::ScanPool;
use crate::query::PreparedQuery;
use crate::sharded::ShardedDeployment;
use crate::traits::QueryEngine;
use lightweb_dpf::{BitMatrix, DpfKey, DpfParams};
use lightweb_pir::{KeywordMap, PirError, PirServer};
use lightweb_telemetry::trace::{self, record_span_ctx, TraceContext};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

fn pir_error(e: PirError) -> EngineError {
    match e {
        PirError::ParamsMismatch => EngineError::BadQuery("DPF parameters mismatch".into()),
        other => EngineError::backend(other),
    }
}

/// One logical server of the non-colluding pair: the slot-indexed record
/// store, the full-domain DPF evaluation, and the XOR scan — all driven
/// through a [`ScanPool`] so both halves of the per-request cost (§5.1)
/// scale with cores. When built with `shard_prefix_bits > 0` the engine
/// serves queries through the §5.2 front-end split instead, with the
/// shards distributed across the same pool.
pub struct TwoServerDpfEngine {
    params: DpfParams,
    record_len: usize,
    party: u8,
    prefix_bits: u32,
    keyword_map: KeywordMap,
    pool: ScanPool,
    pir: RwLock<PirServer>,
    /// Sharded view (when `prefix_bits > 0`), rebuilt lazily from the
    /// monolithic store after changes.
    sharded: Mutex<Option<ShardedDeployment>>,
    sharded_dirty: AtomicBool,
}

impl TwoServerDpfEngine {
    /// Create an empty engine. `prefix_bits > 0` enables the sharded
    /// deployment path with `2^prefix_bits` shards.
    pub fn new(
        params: DpfParams,
        record_len: usize,
        party: u8,
        prefix_bits: u32,
        keyword_map: KeywordMap,
        pool: ScanPool,
    ) -> Result<Self, EngineError> {
        if prefix_bits > 0
            && (prefix_bits >= params.tree_depth() || params.domain_bits() - prefix_bits < 3)
        {
            return Err(EngineError::Backend(format!(
                "shard_prefix_bits {prefix_bits} invalid for domain {}",
                params.domain_bits()
            )));
        }
        Ok(Self {
            params,
            record_len,
            party,
            prefix_bits,
            keyword_map,
            pool,
            pir: RwLock::new(PirServer::new(params, record_len)),
            sharded: Mutex::new(None),
            sharded_dirty: AtomicBool::new(true),
        })
    }

    /// The pool this engine scans and evaluates on.
    pub fn pool(&self) -> &ScanPool {
        &self.pool
    }

    /// Number of records currently stored.
    pub fn len(&self) -> usize {
        self.pir.read().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.pir.read().is_empty()
    }

    fn expect_keys(queries: &[PreparedQuery]) -> Result<Vec<&DpfKey>, EngineError> {
        queries
            .iter()
            .map(|q| match q {
                PreparedQuery::Dpf(key) => Ok(key),
                other => Err(EngineError::BadQuery(format!(
                    "two-server PIR cannot answer a {} query",
                    other.kind()
                ))),
            })
            .collect()
    }

    /// Rebuild the sharded view from the monolithic store if stale, then
    /// answer through it on the pool.
    fn answer_sharded(&self, key: &DpfKey) -> Result<Vec<u8>, EngineError> {
        let mut guard = self.sharded.lock();
        if self.sharded_dirty.swap(false, Ordering::SeqCst) || guard.is_none() {
            let entries: Vec<(u64, Vec<u8>)> = {
                let pir = self.pir.read();
                pir.iter().map(|(slot, rec)| (slot, rec.to_vec())).collect()
            };
            *guard = Some(ShardedDeployment::from_entries(
                self.params,
                self.prefix_bits,
                self.record_len,
                entries,
            )?);
        }
        let dep = guard.as_ref().expect("just materialized");
        dep.answer_with_pool(key, &self.pool)
    }
}

impl QueryEngine for TwoServerDpfEngine {
    fn name(&self) -> &'static str {
        "two_server_pir"
    }

    fn request_metric(&self) -> &'static str {
        "zltp.server.request.two_server_pir.ns"
    }

    fn prepare(&self, payload: &[u8]) -> Result<PreparedQuery, EngineError> {
        let key = DpfKey::from_bytes(payload).map_err(EngineError::bad_query)?;
        if key.params() != self.params {
            return Err(EngineError::BadQuery("DPF parameters mismatch".into()));
        }
        Ok(PreparedQuery::Dpf(key))
    }

    fn answer_batch(
        &self,
        queries: &[PreparedQuery],
        ctxs: &[Option<TraceContext>],
    ) -> Result<Vec<Vec<u8>>, EngineError> {
        let keys = Self::expect_keys(queries)?;
        // Each query's own work runs with its context current, so the
        // pool's partition spans land in the right request's trace.
        let ctx_of = |i: usize| ctxs.get(i).copied().flatten();
        if self.prefix_bits > 0 {
            // §5.2: one front-end split + pooled shard scan per query. A
            // real deployment batches within each shard; this path models
            // it with one pass per request.
            return keys
                .into_iter()
                .enumerate()
                .map(|(i, key)| {
                    let _ctx = trace::enter(ctx_of(i));
                    let _span = trace::maybe_child("engine.two_server.answer");
                    self.answer_sharded(key)
                })
                .collect();
        }
        // One packed bit matrix holds every evaluated query — a single
        // allocation for the whole batch, with each key expanded directly
        // into its row.
        let mut matrix = BitMatrix::new(keys.len(), self.params.output_len());
        for (i, key) in keys.iter().enumerate() {
            let _ctx = trace::enter(ctx_of(i));
            let _eval = trace::maybe_child("engine.two_server.eval");
            self.pool.eval_full_into(key, matrix.row_mut(i));
        }
        // The scan is one shared pass over the data (§5.1): mint a scan
        // span per traced query up front, time the pass once, and record
        // the same interval under each — so every request's trace shows
        // the scan it amortized into.
        let scan_ctxs: Vec<TraceContext> = (0..keys.len())
            .filter_map(|i| ctx_of(i).map(|c| c.child()))
            .collect();
        let pir = self.pir.read();
        let start = Instant::now();
        let answers = {
            let _ctx = trace::enter(scan_ctxs.first().copied());
            self.pool.scan_matrix(&pir, &matrix).map_err(pir_error)?
        };
        let end = Instant::now();
        for ctx in &scan_ctxs {
            record_span_ctx(ctx, "engine.two_server.scan", start, end);
        }
        Ok(answers)
    }

    fn publish(&self, key: &[u8], blob: &[u8]) -> Result<(), EngineError> {
        let slot = self.keyword_map.slot(key);
        self.pir.write().upsert(slot, blob).map_err(pir_error)?;
        self.sharded_dirty.store(true, Ordering::SeqCst);
        Ok(())
    }

    fn unpublish(&self, key: &[u8]) -> Result<(), EngineError> {
        let slot = self.keyword_map.slot(key);
        self.pir.write().remove(slot);
        self.sharded_dirty.store(true, Ordering::SeqCst);
        Ok(())
    }

    fn rebuild(&self, entries: &[(Vec<u8>, Vec<u8>)]) -> Result<(), EngineError> {
        let slotted: Vec<(u64, Vec<u8>)> = entries
            .iter()
            .map(|(k, v)| (self.keyword_map.slot(k), v.clone()))
            .collect();
        let rebuilt =
            PirServer::from_entries(self.params, self.record_len, slotted).map_err(pir_error)?;
        *self.pir.write() = rebuilt;
        self.sharded_dirty.store(true, Ordering::SeqCst);
        Ok(())
    }

    fn session_extra(&self) -> Result<Vec<u8>, EngineError> {
        Ok(vec![self.party])
    }
}
