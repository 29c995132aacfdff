//! The ZLTP server engine.
//!
//! One [`ZltpServer`] is one logical ZLTP endpoint: it owns the master
//! key-value store for its universe, materializes a
//! [`QueryEngine`](lightweb_engine::QueryEngine) per supported mode of
//! operation, negotiates sessions, and answers private-GETs. All per-mode
//! logic — payload decoding, scan/lookup, session metadata — lives in the
//! engines (`lightweb-engine`); the server is mode-agnostic dispatch,
//! session state machines, and the publisher API.
//!
//! Publishers push content through the (non-private) admin API
//! ([`ZltpServer::publish`]); §3.1's rule that a keyword collision is
//! resolved by the publisher "simply selecting another key name" shows up
//! here as a `KeywordCollision` publish failure.
//!
//! ## Batching (§5.1)
//!
//! In two-server PIR mode the dominant cost is the linear scan. The server
//! therefore funnels all DPF queries through a batcher thread that
//! collects up to `max_batch` requests (or as many as arrive within a short
//! window) and answers them with **one** scan pass. The paper's numbers —
//! batch of 16: 167 ms amortized per request, 2.6 s latency, 6 req/s vs
//! unbatched 0.51 s and 2 req/s — come from exactly this trade.

use crate::config::{Mode, ModeSet, ServerConfig};
use crate::error::ZltpError;
use crate::transport::{mem_pair, spawn_accept_loop, FramedConn, MemDuplex};
use crate::wire::{Message, PROTOCOL_VERSION};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use lightweb_engine::{
    EnclaveOramEngine, PreparedQuery, QueryEngine, ScanPool, SingleServerLweEngine,
    TwoServerDpfEngine,
};
use lightweb_pir::KeywordMap;
use lightweb_telemetry::trace::{self, record_span, record_span_ctx, TraceContext, TraceSpan};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Error codes carried in wire-level `Error` messages.
pub mod error_code {
    /// Protocol version not supported.
    pub const VERSION: u16 = 1;
    /// No common mode.
    pub const NO_MODE: u16 = 2;
    /// Malformed query payload.
    pub const BAD_QUERY: u16 = 3;
    /// Internal engine failure.
    pub const ENGINE: u16 = 4;
    /// Message not valid in this state.
    pub const STATE: u16 = 5;
}

/// Callback invoked exactly once with a request's finished answer.
///
/// This is how answers travel from wherever they are computed (the
/// batcher thread, an engine worker, or inline) back to whichever
/// transport front-end owns the connection — a blocking session thread
/// parks on a channel, the reactor pushes into its wakeup pipe. The
/// `Err` string is what goes into the wire-level `Error` message.
pub type Completion = Box<dyn FnOnce(Result<Vec<u8>, String>) + Send + 'static>;

/// What [`ZltpServer::submit_get`] did with a request.
pub enum Submitted {
    /// The answer is being produced elsewhere (batcher queue) or the
    /// completion has already fired (prepare error, shutdown). Nothing
    /// more for the caller to do.
    Dispatched,
    /// Unbatched modes: the caller must run this closure on a thread of
    /// its choosing — it performs the (potentially heavy) engine answer
    /// and then fires the completion. Blocking sessions run it in place;
    /// the reactor ships it to a worker so the event loop never scans.
    Work(Box<dyn FnOnce() + Send + 'static>),
}

/// A prepared query awaiting the next batched scan pass.
struct BatchJob {
    query: PreparedQuery,
    complete: Completion,
    /// When the job entered the batcher queue, for queue-wait accounting.
    enqueued_at: Instant,
    /// The request's trace context, if the session is being traced; the
    /// batcher records the queue wait as a `zltp.server.batch.wait` child
    /// span and hands the context to the engine for per-phase spans.
    ctx: Option<TraceContext>,
}

/// Counters exposed by [`ZltpServer::stats`].
///
/// All fields are maintained with `Ordering::Relaxed` atomics: each
/// counter is individually accurate, but a snapshot taken while the
/// server is under load is not a consistent cut across fields (e.g.
/// `batched_requests` may momentarily exceed what `batches` implies).
/// Read them after quiescing, or treat cross-field arithmetic as
/// approximate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Private-GETs answered (all modes).
    pub requests: u64,
    /// Scan passes performed by the batcher.
    pub batches: u64,
    /// Requests answered by batched scans (to derive mean batch size).
    pub batched_requests: u64,
    /// Sessions accepted.
    pub sessions: u64,
    /// Total nanoseconds requests spent waiting in the batcher queue
    /// (sum over all batched requests; divide by `batched_requests`
    /// for the mean queue wait).
    pub batch_wait_ns: u64,
    /// Largest batch the batcher has ever dispatched in one scan pass.
    pub max_batch_occupancy: u64,
}

#[derive(Default)]
struct AtomicStats {
    requests: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    sessions: AtomicU64,
    batch_wait_ns: AtomicU64,
    max_batch_occupancy: AtomicU64,
}

/// Count a session-level failure and surface it through the telemetry
/// event sink (a no-op unless a sink is installed). Replaces the former
/// panic/ignore paths in the connection threads.
fn log_session_error(stage: &str, err: &str) {
    lightweb_telemetry::counter!("zltp.session.errors").inc();
    lightweb_telemetry::events::emit(
        "zltp.session.error",
        &[
            ("stage", lightweb_telemetry::events::Field::Str(stage)),
            ("error", lightweb_telemetry::events::Field::Str(err)),
        ],
    );
}

/// RAII decrement for the saturation gauges below: the increment must be
/// undone on every exit path (peer hang-up, protocol error, `?`), so drop
/// order does the bookkeeping.
struct GaugeDec(lightweb_telemetry::Gauge);

impl Drop for GaugeDec {
    fn drop(&mut self) {
        self.0.add(-1);
    }
}

/// Sessions currently open on this process — the `open_connections`
/// number `/healthz` reports and the load harness watches for
/// saturation. Cached: the gauge is touched once per connection and once
/// per request.
fn open_connections_gauge() -> &'static lightweb_telemetry::Gauge {
    static G: std::sync::OnceLock<lightweb_telemetry::Gauge> = std::sync::OnceLock::new();
    G.get_or_init(|| {
        lightweb_telemetry::registry()
            .gauge(lightweb_telemetry::scrape::HEALTHZ_OPEN_CONNECTIONS_GAUGE)
    })
}

/// Requests currently being answered (between decode and response) — the
/// `inflight_requests` number `/healthz` reports.
fn inflight_requests_gauge() -> &'static lightweb_telemetry::Gauge {
    static G: std::sync::OnceLock<lightweb_telemetry::Gauge> = std::sync::OnceLock::new();
    G.get_or_init(|| {
        lightweb_telemetry::registry().gauge(lightweb_telemetry::scrape::HEALTHZ_INFLIGHT_GAUGE)
    })
}

struct ServerInner {
    config: ServerConfig,
    keyword_map: KeywordMap,
    /// Master content store: key -> blob (exactly `blob_len` bytes). The
    /// engines hold mode-specific views of this; the master copy backs
    /// introspection, collision detection, and engine reseeds.
    master: RwLock<BTreeMap<Vec<u8>, Vec<u8>>>,
    /// slot -> key, for publish-time collision detection.
    slot_owner: RwLock<std::collections::HashMap<u64, Vec<u8>>>,
    /// One query engine per supported mode, in preference order.
    engines: Vec<(Mode, Box<dyn QueryEngine>)>,
    /// Queue into the batcher (present iff batching is enabled).
    batch_tx: Mutex<Option<Sender<BatchJob>>>,
    stats: AtomicStats,
    shutdown: AtomicBool,
}

impl ServerInner {
    fn engine_for(&self, mode: Mode) -> Option<&dyn QueryEngine> {
        self.engines
            .iter()
            .find(|(m, _)| *m == mode)
            .map(|(_, e)| e.as_ref())
    }
}

/// A ZLTP server. Cheap to clone (shared state behind an `Arc`).
#[derive(Clone)]
pub struct ZltpServer {
    inner: Arc<ServerInner>,
}

impl ZltpServer {
    /// Create a server from its configuration: one engine per configured
    /// mode, sharing one scan pool. Spawns the batcher thread if batching
    /// is enabled.
    pub fn new(config: ServerConfig) -> Result<Self, ZltpError> {
        let params = config.dpf_params();
        let pool = ScanPool::new(config.scan_threads);
        let mut engines: Vec<(Mode, Box<dyn QueryEngine>)> = Vec::new();
        for &mode in config.modes.modes() {
            let engine: Box<dyn QueryEngine> = match mode {
                Mode::TwoServerPir => Box::new(TwoServerDpfEngine::new(
                    params,
                    config.blob_len,
                    config.party,
                    config.shard_prefix_bits,
                    KeywordMap::new(&config.keyword_hash_key, config.domain_bits),
                    pool,
                )?),
                Mode::SingleServerLwe => Box::new(SingleServerLweEngine::new(
                    config.blob_len,
                    config.lwe_n,
                    config.keyword_hash_key,
                )),
                Mode::Enclave => {
                    // Enclave capacity: a quarter of the slot domain,
                    // matching the paper's ~25% load factor, but at least
                    // 1024 so tiny test configs still hold content.
                    let cap = (params.domain_size() / 4).clamp(1024, 1 << 20);
                    Box::new(EnclaveOramEngine::new(cap, config.blob_len)?)
                }
            };
            // Surface the served mode on the scrape endpoint's /healthz.
            lightweb_telemetry::scrape::register_serving_mode(engine.name());
            engines.push((mode, engine));
        }
        let inner = Arc::new(ServerInner {
            keyword_map: KeywordMap::new(&config.keyword_hash_key, config.domain_bits),
            master: RwLock::new(BTreeMap::new()),
            slot_owner: RwLock::new(std::collections::HashMap::new()),
            engines,
            batch_tx: Mutex::new(None),
            stats: AtomicStats::default(),
            shutdown: AtomicBool::new(false),
            config,
        });
        let server = Self { inner };
        // The batcher amortizes the scan across DPF queries (§5.1). With
        // front-end sharding it still runs: each batched query goes
        // through its own front-end split (a real deployment batches
        // *within* each shard), so batching buys queue amortization and
        // the same wire semantics either way.
        if server.inner.config.batch.max_batch > 1
            && server.inner.config.modes.contains(Mode::TwoServerPir)
        {
            server.spawn_batcher();
        }
        Ok(server)
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.inner.config
    }

    /// Snapshot of the server counters. See the [`ServerStats`] note on
    /// relaxed-ordering consistency.
    pub fn stats(&self) -> ServerStats {
        let s = &self.inner.stats;
        ServerStats {
            requests: s.requests.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            batched_requests: s.batched_requests.load(Ordering::Relaxed),
            sessions: s.sessions.load(Ordering::Relaxed),
            batch_wait_ns: s.batch_wait_ns.load(Ordering::Relaxed),
            max_batch_occupancy: s.max_batch_occupancy.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the process-wide telemetry registry (counters, gauges,
    /// and latency histograms for every instrumented subsystem). The
    /// registry is global, so in multi-server processes (tests, the
    /// sharded simulation) the snapshot aggregates across servers; use
    /// [`lightweb_telemetry::Snapshot::counter_delta`] against an earlier
    /// snapshot to isolate a window.
    pub fn telemetry(&self) -> lightweb_telemetry::Snapshot {
        lightweb_telemetry::registry().snapshot()
    }

    /// Ask connection handlers and the batcher to wind down.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        *self.inner.batch_tx.lock() = None;
    }

    // ------------------------------------------------------------------
    // Publisher (admin) API — not private, mirrors the paper's publisher
    // push path (§3.1).
    // ------------------------------------------------------------------

    /// Publish (insert or update) a blob under `key`. The blob must be
    /// exactly `blob_len` bytes — padding to the universe's fixed size is
    /// the `lightweb-universe` layer's job. Every mode's engine is updated
    /// in lock-step with the master store.
    pub fn publish(&self, key: &str, blob: &[u8]) -> Result<(), ZltpError> {
        let cfg = &self.inner.config;
        if blob.len() != cfg.blob_len {
            return Err(ZltpError::Engine(format!(
                "blob is {} bytes; this universe serves fixed {}-byte blobs",
                blob.len(),
                cfg.blob_len
            )));
        }
        let slot = self.inner.keyword_map.slot(key.as_bytes());
        {
            let mut owners = self.inner.slot_owner.write();
            match owners.get(&slot) {
                Some(owner) if owner.as_slice() != key.as_bytes() => {
                    return Err(ZltpError::Engine(format!(
                        "keyword collision: '{}' hashes to the slot of '{}'; select another key name",
                        key,
                        String::from_utf8_lossy(owner)
                    )));
                }
                _ => {
                    owners.insert(slot, key.as_bytes().to_vec());
                }
            }
        }
        self.inner
            .master
            .write()
            .insert(key.as_bytes().to_vec(), blob.to_vec());
        for (_, engine) in &self.inner.engines {
            engine.publish(key.as_bytes(), blob)?;
        }
        Ok(())
    }

    /// Remove a blob. Returns whether it existed.
    pub fn unpublish(&self, key: &str) -> Result<bool, ZltpError> {
        let existed = self.inner.master.write().remove(key.as_bytes()).is_some();
        if existed {
            let slot = self.inner.keyword_map.slot(key.as_bytes());
            self.inner.slot_owner.write().remove(&slot);
            for (_, engine) in &self.inner.engines {
                engine.unpublish(key.as_bytes())?;
            }
        }
        Ok(existed)
    }

    /// Whether `key` is published.
    pub fn contains(&self, key: &str) -> bool {
        self.inner.master.read().contains_key(key.as_bytes())
    }

    /// Number of published blobs.
    pub fn num_blobs(&self) -> usize {
        self.inner.master.read().len()
    }

    /// Total content bytes stored (N × blob_len), the quantity per-request
    /// scan cost scales with.
    pub fn stored_bytes(&self) -> usize {
        self.num_blobs() * self.inner.config.blob_len
    }

    // ------------------------------------------------------------------
    // Batcher
    // ------------------------------------------------------------------

    fn spawn_batcher(&self) {
        let (tx, rx): (Sender<BatchJob>, Receiver<BatchJob>) = unbounded();
        *self.inner.batch_tx.lock() = Some(tx);
        let inner = Arc::downgrade(&self.inner);
        let spawned = std::thread::Builder::new()
            .name("zltp-batcher".into())
            .spawn(move || {
                while let Ok(first) = rx.recv() {
                    let Some(core) = inner.upgrade() else { break };
                    // Depth of the queue behind the job we just picked up:
                    // how far the batcher is lagging arrivals.
                    lightweb_telemetry::registry()
                        .gauge("zltp.server.batch.queue.depth")
                        .set(rx.len() as i64);
                    let mut jobs = vec![first];
                    let deadline = Instant::now() + core.config.batch.window;
                    while jobs.len() < core.config.batch.max_batch {
                        match rx.recv_deadline(deadline) {
                            Ok(job) => jobs.push(job),
                            Err(_) => break,
                        }
                    }
                    let picked_up = Instant::now();
                    let wait_hist =
                        lightweb_telemetry::registry().histogram("zltp.server.batch.wait.ns");
                    let mut wait_ns = 0u64;
                    for job in &jobs {
                        let w = picked_up.duration_since(job.enqueued_at).as_nanos() as u64;
                        wait_ns += w;
                        wait_hist.record(w);
                        if let Some(ctx) = &job.ctx {
                            record_span(ctx, "zltp.server.batch.wait", job.enqueued_at, picked_up);
                        }
                    }
                    lightweb_telemetry::registry()
                        .histogram("zltp.server.batch.size")
                        .record(jobs.len() as u64);
                    lightweb_telemetry::counter!("zltp.server.batches").inc();
                    let queries: Vec<PreparedQuery> =
                        jobs.iter().map(|j| j.query.clone()).collect();
                    let ctxs: Vec<Option<TraceContext>> = jobs.iter().map(|j| j.ctx).collect();
                    let result = {
                        // The batcher thread's CPU burn (the shared scan)
                        // otherwise escapes phase attribution: the wait
                        // spans above are externally timed and open no
                        // profile scope.
                        let _prof =
                            lightweb_telemetry::profile::Scope::enter("zltp.server.batch.answer");
                        core.engine_for(Mode::TwoServerPir)
                            .ok_or_else(|| {
                                lightweb_engine::EngineError::Backend(
                                    "batcher running without a two-server engine".into(),
                                )
                            })
                            .and_then(|engine| engine.answer_batch(&queries, &ctxs))
                    };
                    core.stats.batches.fetch_add(1, Ordering::Relaxed);
                    core.stats
                        .batched_requests
                        .fetch_add(jobs.len() as u64, Ordering::Relaxed);
                    core.stats
                        .batch_wait_ns
                        .fetch_add(wait_ns, Ordering::Relaxed);
                    core.stats
                        .max_batch_occupancy
                        .fetch_max(jobs.len() as u64, Ordering::Relaxed);
                    match result {
                        Ok(answers) => {
                            for (job, ans) in jobs.into_iter().zip(answers) {
                                (job.complete)(Ok(ans));
                            }
                        }
                        Err(e) => {
                            for job in jobs {
                                (job.complete)(Err(e.to_string()));
                            }
                        }
                    }
                }
            });
        if let Err(e) = spawned {
            // No batcher thread: fall back to unbatched scans rather than
            // killing the server at construction time.
            log_session_error("spawn-batcher", &e.to_string());
            *self.inner.batch_tx.lock() = None;
        }
    }

    // ------------------------------------------------------------------
    // Session handling
    // ------------------------------------------------------------------

    /// Whether [`ZltpServer::shutdown`] has been requested. Transport
    /// front-ends (the blocking accept loop, the reactor) poll this to
    /// wind down.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Account one accepted session: bumps the session counters and holds
    /// the open-connections gauge up for the ticket's lifetime. Every
    /// transport front-end opens one ticket per connection so `/healthz`
    /// sees the same numbers regardless of io model.
    pub fn begin_session(&self) -> SessionTicket {
        self.inner.stats.sessions.fetch_add(1, Ordering::Relaxed);
        lightweb_telemetry::counter!("zltp.server.sessions").inc();
        open_connections_gauge().add(1);
        SessionTicket {
            _open: GaugeDec(open_connections_gauge().clone()),
        }
    }

    /// Validate a client's opening message and negotiate the session mode.
    ///
    /// Pure protocol logic shared by the blocking session loop and the
    /// reactor's per-connection state machine; the caller owns all I/O
    /// (send the returned message, then either proceed or close).
    pub fn negotiate_hello(&self, hello: &Message) -> HelloOutcome {
        let (version, client_modes) = match hello {
            Message::ClientHello { version, modes } => (*version, modes.as_slice()),
            other => {
                return HelloOutcome::Rejected {
                    error: Message::Error {
                        code: error_code::STATE,
                        message: format!("expected ClientHello, got {}", other.name()),
                    },
                    reason: ZltpError::UnexpectedMessage {
                        expected: "ClientHello",
                        got: "other",
                    },
                }
            }
        };
        if version != PROTOCOL_VERSION {
            return HelloOutcome::Rejected {
                error: Message::Error {
                    code: error_code::VERSION,
                    message: format!("unsupported version {version}"),
                },
                reason: ZltpError::VersionMismatch {
                    ours: PROTOCOL_VERSION,
                    theirs: version,
                },
            };
        }
        let client_set = ModeSet::new(client_modes.iter().filter_map(|m| Mode::from_wire(*m)));
        let Some(mode) = ModeSet::negotiate(&self.inner.config.modes, &client_set) else {
            return HelloOutcome::Rejected {
                error: Message::Error {
                    code: error_code::NO_MODE,
                    message: "no common mode of operation".into(),
                },
                reason: ZltpError::NoCommonMode,
            };
        };
        let engine = match self.inner.engine_for(mode) {
            Some(e) => e,
            None => {
                return HelloOutcome::Rejected {
                    error: Message::Error {
                        code: error_code::ENGINE,
                        message: format!("mode {mode:?} not materialized"),
                    },
                    reason: ZltpError::Engine(format!("mode {mode:?} not materialized")),
                }
            }
        };
        match engine.session_extra() {
            Ok(extra) => HelloOutcome::Accepted {
                mode,
                server_hello: Message::ServerHello {
                    version: PROTOCOL_VERSION,
                    universe_id: self.inner.config.universe_id.clone(),
                    mode: mode.to_wire(),
                    blob_len: self.inner.config.blob_len as u32,
                    domain_bits: self.inner.config.domain_bits as u8,
                    term_bits: self.inner.config.term_bits as u8,
                    keyword_hash_key: self.inner.config.keyword_hash_key,
                    extra,
                },
            },
            Err(e) => HelloOutcome::Rejected {
                error: Message::Error {
                    code: error_code::ENGINE,
                    message: e.to_string(),
                },
                reason: e.into(),
            },
        }
    }

    /// Build the reply to an `LweSetupRequest` in session mode `mode`:
    /// the setup material, or a wire `Error` for requests outside LWE
    /// mode. `Err` means the engine itself failed and the session should
    /// die. Heavy (clones the LWE hint) — keep it off the reactor thread.
    pub fn setup_message(&self, mode: Mode) -> Result<Message, ZltpError> {
        if mode != Mode::SingleServerLwe {
            return Ok(Message::Error {
                code: error_code::STATE,
                message: "LweSetupRequest outside LWE mode".into(),
            });
        }
        let engine = self
            .inner
            .engine_for(mode)
            .ok_or_else(|| ZltpError::Engine(format!("mode {mode:?} not materialized")))?;
        let setup = engine
            .setup()
            .map_err(ZltpError::from)?
            .ok_or_else(|| ZltpError::Engine("engine has no setup material".into()))?;
        Ok(Message::LweSetupResponse {
            key_hashes: setup.key_hashes,
            hint: setup.hint,
        })
    }

    /// Submit one GET payload for answering, with `complete` fired exactly
    /// once when the answer (or error) is ready.
    ///
    /// All request accounting lives here — the in-flight gauge, request
    /// counters/histograms, the `zltp.server.request` trace span (minted
    /// as a child of the wire context and recorded when the completion
    /// fires, *before* the response frame leaves, so the client's root
    /// span is always the last of its trace) — which keeps the blocking
    /// and reactor paths from drifting apart.
    ///
    /// DPF queries route through the batcher when it is running, so one
    /// scan pass answers a whole batch (§5.1); those return
    /// [`Submitted::Dispatched`]. Unbatched modes return
    /// [`Submitted::Work`] for the caller to run wherever it likes.
    pub fn submit_get(
        &self,
        mode: Mode,
        payload: &[u8],
        wire_ctx: Option<&TraceContext>,
        complete: Completion,
    ) -> Submitted {
        let span_ctx = wire_ctx.map(TraceContext::child);
        let start = Instant::now();
        inflight_requests_gauge().add(1);
        let engine_metric = match self.inner.engine_for(mode) {
            Some(engine) => engine.request_metric(),
            None => "zltp.server.request.unknown_mode.ns",
        };
        let server = self.clone();
        let finish: Completion = Box::new(move |result: Result<Vec<u8>, String>| {
            let end = Instant::now();
            let elapsed_ns = end.duration_since(start).as_nanos() as u64;
            inflight_requests_gauge().add(-1);
            lightweb_telemetry::registry()
                .histogram("zltp.server.request.ns")
                .record(elapsed_ns);
            lightweb_telemetry::registry()
                .histogram(engine_metric)
                .record(elapsed_ns);
            match &result {
                Ok(_) => {
                    server.inner.stats.requests.fetch_add(1, Ordering::Relaxed);
                    lightweb_telemetry::counter!("zltp.server.requests").inc();
                }
                Err(e) => log_session_error("answer-get", e),
            }
            if let Some(ctx) = &span_ctx {
                record_span_ctx(ctx, "zltp.server.request", start, end);
            }
            complete(result);
        });
        let Some(engine) = self.inner.engine_for(mode) else {
            finish(Err(format!("mode {mode:?} not materialized")));
            return Submitted::Dispatched;
        };
        let query = {
            let _prepare = span_ctx.map(|c| TraceSpan::child(&c, "zltp.server.prepare"));
            match engine.prepare(payload) {
                Ok(q) => q,
                Err(e) => {
                    finish(Err(e.to_string()));
                    return Submitted::Dispatched;
                }
            }
        };
        if mode == Mode::TwoServerPir {
            let tx_opt = self.inner.batch_tx.lock().clone();
            if let Some(tx) = tx_opt {
                let job = BatchJob {
                    query,
                    complete: finish,
                    enqueued_at: Instant::now(),
                    ctx: span_ctx,
                };
                if let Err(err) = tx.send(job) {
                    (err.0.complete)(Err("server is shutting down".into()));
                }
                return Submitted::Dispatched;
            }
        }
        let server = self.clone();
        Submitted::Work(Box::new(move || {
            // Whichever thread runs the work answers under this request's
            // context, and only for as long as the work runs.
            let _ctx = trace::enter(span_ctx);
            let result = match server.inner.engine_for(mode) {
                Some(engine) => engine.answer(&query).map_err(|e| e.to_string()),
                None => Err(format!("mode {mode:?} not materialized")),
            };
            finish(result);
        }))
    }

    /// Run one ZLTP session over any byte stream, blocking until the peer
    /// closes or errors. Protocol errors are reported to the peer where
    /// possible and returned.
    pub fn handle_connection<S: Read + Write>(&self, stream: S) -> Result<(), ZltpError> {
        let mut conn = FramedConn::new(stream);
        let _ticket = self.begin_session();
        let _session = lightweb_telemetry::span!("zltp.server.session.ns");

        // --- Hello exchange ---
        let hello = conn.recv()?;
        let mode = match self.negotiate_hello(&hello) {
            HelloOutcome::Accepted { mode, server_hello } => {
                conn.send(&server_hello)?;
                mode
            }
            HelloOutcome::Rejected { error, reason } => {
                let _ = conn.send(&error);
                return Err(reason);
            }
        };

        // --- Request loop ---
        loop {
            if self.inner.shutdown.load(Ordering::SeqCst) {
                let _ = conn.send(&Message::Close);
                return Ok(());
            }
            let (msg, wire_ctx) = match conn.recv_traced() {
                Ok(m) => m,
                // Peer hang-up after a completed exchange is a normal end.
                Err(ZltpError::Io(_)) => return Ok(()),
                Err(e) => return Err(e),
            };
            match msg {
                Message::Get {
                    request_id,
                    payload,
                } => {
                    let (reply_tx, reply_rx) = bounded(1);
                    let complete: Completion = Box::new(move |res| {
                        let _ = reply_tx.send(res);
                    });
                    match self.submit_get(mode, &payload, wire_ctx.as_ref(), complete) {
                        // A blocking session has a whole thread to burn:
                        // run unbatched work right here.
                        Submitted::Work(work) => work(),
                        Submitted::Dispatched => {}
                    }
                    match reply_rx.recv() {
                        Ok(Ok(response)) => conn.send(&Message::GetResponse {
                            request_id,
                            payload: response,
                        })?,
                        Ok(Err(e)) => conn.send(&Message::Error {
                            code: error_code::BAD_QUERY,
                            message: e,
                        })?,
                        Err(_) => return Err(ZltpError::Closed),
                    }
                }
                Message::LweSetupRequest => {
                    conn.send(&self.setup_message(mode)?)?;
                }
                Message::Close => {
                    let _ = conn.send(&Message::Close);
                    return Ok(());
                }
                other => {
                    conn.send(&Message::Error {
                        code: error_code::STATE,
                        message: format!("unexpected {}", other.name()),
                    })?;
                }
            }
        }
    }

    /// Serve TCP connections with one blocking thread per session until
    /// `shutdown` is called. Returns the accept thread's handle.
    ///
    /// Errors if the listener cannot be made nonblocking or the accept
    /// thread cannot spawn. The nonblocking accept loop is what lets the
    /// thread observe `shutdown` between connections; the old behavior of
    /// limping along with a blocking listener left shutdown unobserved
    /// until the *next* accept returned — a hang in every process whose
    /// last client already left — so that degraded mode is now a hard
    /// error at bind time, when the operator is still looking.
    pub fn serve_tcp(
        &self,
        listener: std::net::TcpListener,
    ) -> std::io::Result<std::thread::JoinHandle<()>> {
        let server = self.clone();
        let watched = self.clone();
        spawn_accept_loop(
            listener,
            "zltp",
            "server-accept",
            move || watched.is_shutting_down(),
            log_session_error,
            move |stream| {
                if let Err(e) = server.handle_connection(stream) {
                    log_session_error("tcp-session", &e.to_string());
                }
            },
        )
    }
}

/// RAII accounting for one open session; see [`ZltpServer::begin_session`].
pub struct SessionTicket {
    _open: GaugeDec,
}

/// Result of [`ZltpServer::negotiate_hello`].
pub enum HelloOutcome {
    /// Negotiation succeeded: send `server_hello`, then serve requests
    /// in `mode`.
    Accepted {
        /// The negotiated mode of operation.
        mode: Mode,
        /// The `ServerHello` to send back.
        server_hello: Message,
    },
    /// Negotiation failed: best-effort send `error`, then close. `reason`
    /// is the session-level error for the caller's logging.
    Rejected {
        /// The wire-level `Error` to report to the peer.
        error: Message,
        /// Why the session is being refused.
        reason: ZltpError,
    },
}

/// An in-process ZLTP endpoint: every [`InProcServer::connect`] call yields
/// the client half of a fresh in-memory connection whose server half is
/// driven by a dedicated thread. Used by tests, examples, and the benchmark
/// harness, where one OS process simulates a whole deployment.
pub struct InProcServer {
    server: ZltpServer,
}

impl InProcServer {
    /// Wrap a server for in-process serving.
    pub fn new(server: ZltpServer) -> Self {
        Self { server }
    }

    /// The underlying server (for admin/publish calls).
    pub fn server(&self) -> &ZltpServer {
        &self.server
    }

    /// Open a new in-memory connection; the server side runs on its own
    /// thread until the session ends.
    pub fn connect(&self) -> MemDuplex {
        let (client_end, server_end) = mem_pair();
        let server = self.server.clone();
        let spawned = std::thread::Builder::new()
            .name("zltp-inproc-conn".into())
            .spawn(move || {
                if let Err(e) = server.handle_connection(server_end) {
                    log_session_error("inproc-session", &e.to_string());
                }
            });
        if let Err(e) = spawned {
            // The server end was dropped with the failed spawn, so the
            // caller's reads report EOF — same shape as a refused socket.
            log_session_error("spawn-inproc-connection", &e.to_string());
        }
        client_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_server() -> ZltpServer {
        let mut cfg = ServerConfig::small("test-universe", 0);
        cfg.blob_len = 64;
        ZltpServer::new(cfg).unwrap()
    }

    #[test]
    fn publish_and_introspect() {
        let server = small_server();
        assert_eq!(server.num_blobs(), 0);
        server.publish("a.com/x", &[1u8; 64]).unwrap();
        server.publish("a.com/y", &[2u8; 64]).unwrap();
        assert!(server.contains("a.com/x"));
        assert!(!server.contains("a.com/z"));
        assert_eq!(server.num_blobs(), 2);
        assert_eq!(server.stored_bytes(), 128);
        assert!(server.unpublish("a.com/x").unwrap());
        assert!(!server.unpublish("a.com/x").unwrap());
        assert_eq!(server.num_blobs(), 1);
    }

    #[test]
    fn wrong_blob_size_rejected() {
        let server = small_server();
        assert!(server.publish("a.com/x", &[0u8; 63]).is_err());
        assert!(server.publish("a.com/x", &[0u8; 65]).is_err());
    }

    #[test]
    fn republish_same_key_is_update_not_collision() {
        let server = small_server();
        server.publish("a.com/x", &[1u8; 64]).unwrap();
        server.publish("a.com/x", &[2u8; 64]).unwrap();
        assert_eq!(server.num_blobs(), 1);
    }

    #[test]
    fn keyword_collision_reported() {
        // 1-slot universes collide immediately.
        let mut cfg = ServerConfig::small("tiny", 0);
        cfg.domain_bits = 1;
        cfg.term_bits = 0;
        cfg.blob_len = 8;
        let server = ZltpServer::new(cfg).unwrap();
        // With a 2-slot domain, 3 distinct keys must produce a collision.
        let mut collided = false;
        for k in ["a", "b", "c"] {
            if server.publish(k, &[0u8; 8]).is_err() {
                collided = true;
            }
        }
        assert!(collided, "three keys fit in a two-slot domain?");
    }

    #[test]
    fn stats_start_at_zero() {
        let server = small_server();
        assert_eq!(server.stats(), ServerStats::default());
    }

    #[test]
    fn one_engine_per_configured_mode() {
        let mut cfg = ServerConfig::small("modes", 0);
        cfg.blob_len = 32;
        cfg.modes = ModeSet::new([Mode::Enclave, Mode::SingleServerLwe]);
        let server = ZltpServer::new(cfg).unwrap();
        assert!(server.inner.engine_for(Mode::Enclave).is_some());
        assert!(server.inner.engine_for(Mode::SingleServerLwe).is_some());
        assert!(server.inner.engine_for(Mode::TwoServerPir).is_none());
    }
}
