//! The `QueryEngine` abstraction every ZLTP mode implements.

use crate::error::EngineError;
use crate::query::PreparedQuery;
use lightweb_telemetry::trace::{self, TraceContext};

/// Offline setup material some engines publish to clients before the first
/// query (today: the LWE manifest + hint downloaded once per database
/// version).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineSetup {
    /// Sorted keyword hashes; a key's record index is its rank here.
    pub key_hashes: Vec<u64>,
    /// The LWE hint matrix, row-major.
    pub hint: Vec<u32>,
}

/// One private-read substrate (paper §2.2): everything a ZLTP server needs
/// to keep a mode's database in sync with published content and answer its
/// queries, behind one dyn-compatible interface.
///
/// All methods take `&self`; engines use interior mutability so one engine
/// instance can serve concurrent sessions, exactly as the server's backend
/// fields did before this trait existed.
pub trait QueryEngine: Send + Sync {
    /// Short engine name (`two_server_pir`, `single_server_lwe`,
    /// `enclave_oram`) used in telemetry labels and error messages.
    fn name(&self) -> &'static str;

    /// The per-engine request-latency histogram
    /// (`zltp.server.request.<mode>.ns`).
    fn request_metric(&self) -> &'static str;

    /// Decode and validate one GET payload into a [`PreparedQuery`].
    fn prepare(&self, payload: &[u8]) -> Result<PreparedQuery, EngineError>;

    /// Answer one prepared query. The default delegates to the batch path
    /// with a batch of one so batching semantics live in exactly one place
    /// per engine.
    ///
    /// The query is traced under the thread's current trace context, if
    /// any; engines record their per-phase child spans under it.
    fn answer(&self, query: &PreparedQuery) -> Result<Vec<u8>, EngineError> {
        let mut answers = self.answer_batch(std::slice::from_ref(query), &[trace::current()])?;
        answers
            .pop()
            .ok_or_else(|| EngineError::Backend("batch of one returned no answer".into()))
    }

    /// Answer a batch of prepared queries. Engines whose dominant cost is a
    /// data pass (the DPF scan) amortize it across the batch (§5.1); others
    /// simply answer each query in turn.
    ///
    /// `ctxs` carries one optional trace context per query, positionally:
    /// one batch carries many requests, so no single current context
    /// fits. Engines are lenient: a short (even empty) slice means the
    /// missing queries are untraced, so callers without tracing pass
    /// `&[]`.
    fn answer_batch(
        &self,
        queries: &[PreparedQuery],
        ctxs: &[Option<TraceContext>],
    ) -> Result<Vec<Vec<u8>>, EngineError>;

    /// Insert or update one published blob.
    fn publish(&self, key: &[u8], blob: &[u8]) -> Result<(), EngineError>;

    /// Remove one published blob.
    fn unpublish(&self, key: &[u8]) -> Result<(), EngineError>;

    /// Replace the engine's entire database with `entries` (bulk reseed —
    /// the restart/recovery path).
    fn rebuild(&self, entries: &[(Vec<u8>, Vec<u8>)]) -> Result<(), EngineError>;

    /// Mode-specific bytes for the `ServerHello` `extra` field (party id,
    /// LWE public parameters, enclave session key).
    fn session_extra(&self) -> Result<Vec<u8>, EngineError>;

    /// Offline setup material, for engines that have any.
    fn setup(&self) -> Result<Option<EngineSetup>, EngineError> {
        Ok(None)
    }
}
