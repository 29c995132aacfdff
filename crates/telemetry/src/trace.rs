//! Causal request tracing: contexts, spans, and the trace collector.
//!
//! Aggregate histograms (the [`crate::span!`] substrate) answer "how slow
//! is this phase on average"; once queries fan out across batchers, scan
//! pools, and §5.2 shards, operators also need "where did *this* request
//! spend its time". This module provides that: a [`TraceContext`] — a
//! 128-bit trace id plus 64-bit span/parent ids — created per ZLTP
//! request and propagated across the wire; [`TraceSpan`] RAII guards
//! that record timed [`SpanRecord`]s; and a process-global
//! [`TraceCollector`] that assembles finished spans into [`Trace`] trees,
//! keeps a bounded ring of recent traces, and derives a slow-query log
//! (top-K by root duration, with per-phase breakdown).
//!
//! Within a thread the context travels implicitly: an open [`TraceSpan`]
//! is the thread's [`current`] context, so a layer opens its phase span
//! with [`maybe_child`] instead of taking a context parameter. Work that
//! hops threads reads [`current`] before the hop and [`enter`]s it on
//! the other side.
//!
//! ## Lifecycle and ordering
//!
//! A trace is *finalized* when its **root** span (the one with
//! `parent_id == 0`) is recorded. Instrumented code must therefore make
//! sure every child span is recorded (dropped) before the root guard
//! drops — which falls out naturally from RAII scoping plus the ZLTP
//! request ordering: a server records its spans before writing the
//! response, and the client's root guard outlives the response read.
//! Spans arriving for an already-finalized (or evicted) trace are counted
//! as orphans, never lost silently.
//!
//! ## Lock-lightness
//!
//! Recording takes two short mutexes: one shard of the pending-span map
//! (selected by trace id, so unrelated requests rarely contend) and the
//! per-phase aggregate map. No lock is held while trees are assembled
//! for rendering.

use crate::{quantile_from_buckets, BUCKETS};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Traces retained in the recent ring served by `GET /traces`.
pub const RECENT_TRACES: usize = 128;
/// Flat [`SpanRecord`]s retained for `GET /traces.json`. Deliberately
/// larger than [`RECENT_TRACES`]: shard-side spans of a cross-process
/// trace never finalize locally (their root lives in the front-end
/// process), so the fleet aggregator stitches from this flat ring, and
/// it must hold every hop of the traces the front end still remembers.
pub const RECENT_SPANS: usize = 8192;
/// Traces retained in the slow-query log (top-K by root duration).
pub const SLOW_TRACES: usize = 16;
/// Pending (un-finalized) traces per collector shard before the oldest
/// is evicted and its spans counted as orphans.
const MAX_PENDING_TRACES: usize = 128;
/// Shards of the pending map; requests land on a shard by trace id.
const PENDING_SHARDS: usize = 8;

// ---------------------------------------------------------------------
// Context and id generation.
// ---------------------------------------------------------------------

/// The causal identity of one span: which trace it belongs to, its own
/// id, and its parent's id (`0` for the root). `Copy`, 32 bytes, and
/// encodable to exactly 32 wire bytes — cheap enough to ride on every
/// frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// 128-bit id shared by every span of one request/page load.
    pub trace_id: u128,
    /// This span's id; unique within the process run.
    pub span_id: u64,
    /// The parent span's id, or 0 when this span is the trace root.
    pub parent_id: u64,
}

/// Encoded size of a [`TraceContext`]: trace id, span id, parent id,
/// all big-endian.
pub const TRACE_CONTEXT_LEN: usize = 32;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A fresh non-zero 64-bit id: a splitmix64 walk over a global counter,
/// seeded from the clock and process id. Not cryptographic — trace ids
/// only need to be unique, never unpredictable.
fn next_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    static SEED: OnceLock<u64> = OnceLock::new();
    let seed = *SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        splitmix64(nanos ^ ((std::process::id() as u64) << 32))
    });
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    splitmix64(seed.wrapping_add(n)).max(1)
}

// ---------------------------------------------------------------------
// Node identity.
// ---------------------------------------------------------------------

/// This process's node identity, stamped into every [`SpanRecord`] so
/// the fleet aggregator can attribute spans of a cross-process trace to
/// the process that recorded them. Resolved once, on first use, from
/// `LIGHTWEB_NODE_ID`; falls back to `node-<pid>` so two processes on
/// one machine never collide by default. The resolved name is leaked —
/// it lives as long as the process, and `&'static str` keeps
/// [`SpanRecord`] `Copy`.
pub fn node_id() -> &'static str {
    static NODE: OnceLock<&'static str> = OnceLock::new();
    NODE.get_or_init(|| {
        let raw = std::env::var("LIGHTWEB_NODE_ID")
            .ok()
            .map(|v| v.trim().to_string())
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| format!("node-{}", std::process::id()));
        Box::leak(raw.into_boxed_str())
    })
}

impl TraceContext {
    /// Start a new trace: fresh trace id, fresh span id, no parent.
    pub fn root() -> Self {
        TraceContext {
            trace_id: ((next_id() as u128) << 64) | next_id() as u128,
            span_id: next_id(),
            parent_id: 0,
        }
    }

    /// A child context in the same trace, parented to this span.
    pub fn child(&self) -> Self {
        TraceContext {
            trace_id: self.trace_id,
            span_id: next_id(),
            parent_id: self.span_id,
        }
    }

    /// Encode as 32 big-endian bytes (the ZLTP wire extension body).
    pub fn to_bytes(&self) -> [u8; TRACE_CONTEXT_LEN] {
        let mut out = [0u8; TRACE_CONTEXT_LEN];
        out[..16].copy_from_slice(&self.trace_id.to_be_bytes());
        out[16..24].copy_from_slice(&self.span_id.to_be_bytes());
        out[24..32].copy_from_slice(&self.parent_id.to_be_bytes());
        out
    }

    /// Decode the 32-byte encoding produced by [`Self::to_bytes`].
    /// Returns `None` when `bytes` is not exactly 32 bytes.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != TRACE_CONTEXT_LEN {
            return None;
        }
        Some(TraceContext {
            trace_id: u128::from_be_bytes(bytes[..16].try_into().ok()?),
            span_id: u64::from_be_bytes(bytes[16..24].try_into().ok()?),
            parent_id: u64::from_be_bytes(bytes[24..32].try_into().ok()?),
        })
    }
}

// ---------------------------------------------------------------------
// The current context.
// ---------------------------------------------------------------------

thread_local! {
    /// This thread's context stack: each open span or [`enter`] guard
    /// owns one entry, and the top entry is the current context. `None`
    /// entries mark untraced work.
    static CURRENT: RefCell<Vec<Option<TraceContext>>> = const { RefCell::new(Vec::new()) };
}

/// The calling thread's current trace context: the innermost open
/// [`TraceSpan`] or [`enter`]ed context, or `None` when the work on this
/// thread is not being traced.
pub fn current() -> Option<TraceContext> {
    CURRENT.with(|c| c.borrow().last().copied().flatten())
}

/// Make `ctx` the calling thread's current context until the guard
/// drops. This is the handoff at a thread hop: read [`current`] before
/// the hop and enter it on the other side. Entering `None` marks the
/// work untraced, whatever was current before.
pub fn enter(ctx: Option<TraceContext>) -> ContextGuard {
    let depth = CURRENT.with(|c| {
        let mut stack = c.borrow_mut();
        stack.push(ctx);
        stack.len() - 1
    });
    ContextGuard {
        depth,
        _not_send: PhantomData,
    }
}

/// Restores the previous current context on drop; see [`enter`].
///
/// `!Send`, so it always restores on the thread that set it:
///
/// ```compile_fail
/// fn send<T: Send>(_: T) {}
/// send(lightweb_telemetry::trace::enter(None));
/// ```
pub struct ContextGuard {
    /// Stack depth to restore on drop.
    depth: usize,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        // Truncate rather than pop: a guard dropped out of order takes
        // any inner entries with it, so the context it was opened under
        // comes back instead of a dangling inner one. `try_with` keeps a
        // guard dropped during thread teardown from panicking.
        let _ = CURRENT.try_with(|c| c.borrow_mut().truncate(self.depth));
    }
}

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

/// One finished span as reported to the collector.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u128,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id (0 = trace root).
    pub parent_id: u64,
    /// Phase name, e.g. `"zltp.server.request"`.
    pub name: &'static str,
    /// Node (process) that recorded this span — see [`node_id`].
    pub node: &'static str,
    /// Start time in microseconds since the collector's epoch.
    pub start_us: u64,
    /// Wall-clock duration in nanoseconds.
    pub duration_ns: u64,
}

/// RAII trace span: reports a [`SpanRecord`] to the global collector on
/// drop, and is the thread's [`current`] context while open. Create a
/// fresh root with [`TraceSpan::root`] and explicit descendants with
/// [`TraceSpan::child`].
pub struct TraceSpan {
    ctx: TraceContext,
    name: &'static str,
    start: Instant,
    /// CPU/allocation attribution for this phase (no-op unless
    /// profiling is enabled — see [`crate::profile`]).
    _prof: crate::profile::Scope,
    _current: ContextGuard,
}

impl TraceSpan {
    /// Open a root span, starting a new trace.
    pub fn root(name: &'static str) -> Self {
        Self::with_ctx(TraceContext::root(), name)
    }

    /// Open a span as a child of `parent`.
    pub fn child(parent: &TraceContext, name: &'static str) -> Self {
        Self::with_ctx(parent.child(), name)
    }

    /// Open a child of the current context, or the root of a fresh trace
    /// when nothing is current.
    pub fn child_or_root(name: &'static str) -> Self {
        Self::with_ctx(
            current().map_or_else(TraceContext::root, |c| c.child()),
            name,
        )
    }

    /// Open a span whose identity was fixed elsewhere (e.g. received
    /// over the wire as a pre-assigned child context).
    pub fn with_ctx(ctx: TraceContext, name: &'static str) -> Self {
        TraceSpan {
            ctx,
            name,
            start: Instant::now(),
            _prof: crate::profile::Scope::enter(name),
            _current: enter(Some(ctx)),
        }
    }

    /// This span's context.
    pub fn ctx(&self) -> TraceContext {
        self.ctx
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        let end = Instant::now();
        collector().record_timed(&self.ctx, self.name, self.start, end);
    }
}

/// Open a child span of the current context when the work on this
/// thread is traced, or no span at all: how a layer records its phase.
pub fn maybe_child(name: &'static str) -> Option<TraceSpan> {
    current().map(|p| TraceSpan::child(&p, name))
}

/// Record an externally-timed span as a **child** of `parent` (a fresh
/// span id is minted). Used when the timed interval is only known after
/// the fact, e.g. the batcher's queue wait.
pub fn record_span(parent: &TraceContext, name: &'static str, start: Instant, end: Instant) {
    collector().record_timed(&parent.child(), name, start, end);
}

/// Record an externally-timed span whose context was pre-minted (so
/// that children could already be parented to it): `ctx` **is** the
/// span being reported.
pub fn record_span_ctx(ctx: &TraceContext, name: &'static str, start: Instant, end: Instant) {
    collector().record_timed(ctx, name, start, end);
}

// ---------------------------------------------------------------------
// Assembled traces.
// ---------------------------------------------------------------------

/// One span within an assembled [`Trace`] tree. Children are ordered by
/// start time.
#[derive(Clone, Debug)]
pub struct TraceNode {
    /// Phase name.
    pub name: &'static str,
    /// Node (process) that recorded this span.
    pub node: &'static str,
    /// Span id.
    pub span_id: u64,
    /// Parent span id (0 for the root).
    pub parent_id: u64,
    /// Start time, microseconds since the collector epoch.
    pub start_us: u64,
    /// Duration in nanoseconds.
    pub duration_ns: u64,
    /// Child spans, ordered by `start_us`.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// First direct child with the given name.
    pub fn child_named(&self, name: &str) -> Option<&TraceNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// All direct children with the given name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a TraceNode> {
        self.children.iter().filter(move |c| c.name == name)
    }

    fn count(&self) -> usize {
        1 + self.children.iter().map(TraceNode::count).sum::<usize>()
    }

    fn visit<'a>(&'a self, f: &mut impl FnMut(&'a TraceNode)) {
        f(self);
        for c in &self.children {
            c.visit(f);
        }
    }
}

/// A finalized trace: the span tree of one request (or page load).
#[derive(Clone, Debug)]
pub struct Trace {
    /// Trace id shared by every span.
    pub trace_id: u128,
    /// The root span with its attached descendants.
    pub root: TraceNode,
    /// Spans attached to the tree (root included).
    pub span_count: usize,
    /// Spans that arrived for this trace but whose parent was missing
    /// when the root finalized; 0 means the trace is complete.
    pub orphan_spans: usize,
}

impl Trace {
    /// Total duration: the root span's wall time.
    pub fn duration_ns(&self) -> u64 {
        self.root.duration_ns
    }

    /// Whether every reported span found its parent.
    pub fn is_complete(&self) -> bool {
        self.orphan_spans == 0
    }

    /// First node with the given name, depth-first.
    pub fn find(&self, name: &str) -> Option<&TraceNode> {
        let mut found = None;
        self.root.visit(&mut |n| {
            if found.is_none() && n.name == name {
                found = Some(n);
            }
        });
        found
    }

    /// Total time per phase name across the whole tree.
    pub fn phase_totals(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        self.root.visit(&mut |n| {
            *totals.entry(n.name).or_insert(0u64) += n.duration_ns;
        });
        totals
    }

    fn assemble(root_rec: SpanRecord, others: Vec<SpanRecord>) -> Trace {
        let total = 1 + others.len();
        let mut by_parent: HashMap<u64, Vec<SpanRecord>> = HashMap::new();
        for s in others {
            by_parent.entry(s.parent_id).or_default().push(s);
        }
        fn build(rec: SpanRecord, by_parent: &mut HashMap<u64, Vec<SpanRecord>>) -> TraceNode {
            let mut node = TraceNode {
                name: rec.name,
                node: rec.node,
                span_id: rec.span_id,
                parent_id: rec.parent_id,
                start_us: rec.start_us,
                duration_ns: rec.duration_ns,
                children: Vec::new(),
            };
            if let Some(kids) = by_parent.remove(&node.span_id) {
                node.children = kids.into_iter().map(|k| build(k, by_parent)).collect();
                node.children.sort_by_key(|c| (c.start_us, c.span_id));
            }
            node
        }
        let trace_id = root_rec.trace_id;
        let root = build(root_rec, &mut by_parent);
        let span_count = root.count();
        Trace {
            trace_id,
            root,
            span_count,
            orphan_spans: total - span_count,
        }
    }
}

// ---------------------------------------------------------------------
// Collector.
// ---------------------------------------------------------------------

#[derive(Default)]
struct PendingShard {
    traces: HashMap<u128, Vec<SpanRecord>>,
    order: VecDeque<u128>,
}

impl PendingShard {
    /// Buffer a non-root span; returns how many spans were evicted to
    /// stay under the pending cap.
    fn push(&mut self, rec: SpanRecord) -> u64 {
        let mut evicted = 0u64;
        if !self.traces.contains_key(&rec.trace_id) {
            while self.order.len() >= MAX_PENDING_TRACES {
                if let Some(old) = self.order.pop_front() {
                    evicted += self.traces.remove(&old).map_or(0, |v| v.len() as u64);
                }
            }
            self.order.push_back(rec.trace_id);
        }
        self.traces.entry(rec.trace_id).or_default().push(rec);
        evicted
    }

    fn take(&mut self, trace_id: u128) -> Vec<SpanRecord> {
        match self.traces.remove(&trace_id) {
            Some(spans) => {
                self.order.retain(|t| *t != trace_id);
                spans
            }
            None => Vec::new(),
        }
    }
}

/// Per-phase duration aggregate (mean/p95/max) fed by every recorded
/// span, independent of whether its trace completes.
struct PhaseAgg {
    count: u64,
    sum: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl PhaseAgg {
    fn new() -> Self {
        PhaseAgg {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
        self.buckets[crate::bucket_index(v)] += 1;
    }
}

/// Summary statistics for one phase name, as exposed by
/// [`TraceCollector::phase_stats`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase (span) name.
    pub name: &'static str,
    /// Spans recorded under this name.
    pub count: u64,
    /// Mean duration in nanoseconds.
    pub mean_ns: u64,
    /// Estimated median duration (log₂-bucket estimate).
    pub p50_ns: u64,
    /// Estimated 95th-percentile duration (log₂-bucket estimate).
    pub p95_ns: u64,
    /// Estimated 99th-percentile duration (log₂-bucket estimate).
    pub p99_ns: u64,
    /// Largest recorded duration.
    pub max_ns: u64,
}

#[derive(Default)]
struct Finished {
    recent: VecDeque<Arc<Trace>>,
    slow: Vec<Arc<Trace>>,
}

#[derive(Default)]
struct SpanRing {
    spans: VecDeque<SpanRecord>,
    /// Spans pushed out of the ring since creation/reset — lets the
    /// aggregator tell "quiet node" from "ring wrapped".
    dropped: u64,
}

/// Assembles [`SpanRecord`]s into [`Trace`] trees. Use the process
/// global via [`collector()`]; independent instances exist for tests.
pub struct TraceCollector {
    epoch: Instant,
    pending: Vec<Mutex<PendingShard>>,
    finished: Mutex<Finished>,
    ring: Mutex<SpanRing>,
    phases: Mutex<BTreeMap<&'static str, PhaseAgg>>,
    completed: AtomicU64,
    orphaned: AtomicU64,
}

impl Default for TraceCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceCollector {
    /// An empty collector with its epoch set to now.
    pub fn new() -> Self {
        TraceCollector {
            epoch: Instant::now(),
            pending: (0..PENDING_SHARDS)
                .map(|_| Mutex::new(PendingShard::default()))
                .collect(),
            finished: Mutex::new(Finished::default()),
            ring: Mutex::new(SpanRing::default()),
            phases: Mutex::new(BTreeMap::new()),
            completed: AtomicU64::new(0),
            orphaned: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, trace_id: u128) -> &Mutex<PendingShard> {
        let h = (trace_id as u64) ^ ((trace_id >> 64) as u64);
        &self.pending[(h as usize) % PENDING_SHARDS]
    }

    fn record_timed(&self, ctx: &TraceContext, name: &'static str, start: Instant, end: Instant) {
        let start_us = start
            .checked_duration_since(self.epoch)
            .map(|d| d.as_micros().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        let duration_ns = end
            .checked_duration_since(start)
            .map(|d| d.as_nanos().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        self.record(SpanRecord {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_id: ctx.parent_id,
            name,
            node: node_id(),
            start_us,
            duration_ns,
        });
    }

    /// Report one finished span. A root span (parent id 0) finalizes
    /// its trace; any other span is buffered until its root arrives.
    pub fn record(&self, rec: SpanRecord) {
        self.phases
            .lock()
            .entry(rec.name)
            .or_insert_with(PhaseAgg::new)
            .observe(rec.duration_ns);
        {
            // Every span also enters the flat ring, finalized or not:
            // `/traces.json` serves these records so an aggregator can
            // stitch spans whose root finalized in another process.
            let mut ring = self.ring.lock();
            ring.spans.push_back(rec);
            while ring.spans.len() > RECENT_SPANS {
                ring.spans.pop_front();
                ring.dropped += 1;
            }
        }
        if rec.parent_id == 0 {
            let buffered = self.shard_of(rec.trace_id).lock().take(rec.trace_id);
            let trace = Arc::new(Trace::assemble(rec, buffered));
            self.completed.fetch_add(1, Ordering::Relaxed);
            crate::counter!("telemetry.trace.completed").inc();
            if !trace.is_complete() {
                self.orphaned
                    .fetch_add(trace.orphan_spans as u64, Ordering::Relaxed);
                crate::counter!("telemetry.trace.orphan_spans").add(trace.orphan_spans as u64);
            }
            let mut fin = self.finished.lock();
            fin.recent.push_back(trace.clone());
            while fin.recent.len() > RECENT_TRACES {
                fin.recent.pop_front();
            }
            let pos = fin
                .slow
                .partition_point(|t| t.duration_ns() >= trace.duration_ns());
            if pos < SLOW_TRACES {
                fin.slow.insert(pos, trace);
                fin.slow.truncate(SLOW_TRACES);
            }
        } else {
            let evicted = self.shard_of(rec.trace_id).lock().push(rec);
            if evicted > 0 {
                self.orphaned.fetch_add(evicted, Ordering::Relaxed);
                crate::counter!("telemetry.trace.orphan_spans").add(evicted);
            }
        }
    }

    /// The most recent finalized traces, oldest first (bounded by
    /// [`RECENT_TRACES`]).
    pub fn recent(&self) -> Vec<Arc<Trace>> {
        self.finished.lock().recent.iter().cloned().collect()
    }

    /// The flat ring of recently recorded spans, oldest first (bounded
    /// by [`RECENT_SPANS`]), plus how many older spans the ring has
    /// dropped. Includes spans of traces that never finalize locally —
    /// the raw material for cross-process stitching.
    pub fn recent_spans(&self) -> (Vec<SpanRecord>, u64) {
        let ring = self.ring.lock();
        (ring.spans.iter().copied().collect(), ring.dropped)
    }

    /// The slow-query log: the slowest finalized traces, slowest first
    /// (bounded by [`SLOW_TRACES`]).
    pub fn slowest(&self) -> Vec<Arc<Trace>> {
        self.finished.lock().slow.clone()
    }

    /// Traces finalized since creation/reset.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Spans that never joined a finalized trace: evicted while pending,
    /// or present at finalization with a missing parent.
    pub fn orphaned_spans(&self) -> u64 {
        self.orphaned.load(Ordering::Relaxed)
    }

    /// Spans currently buffered for traces whose root has not arrived.
    pub fn pending_spans(&self) -> usize {
        self.pending
            .iter()
            .map(|s| s.lock().traces.values().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Per-phase duration statistics, sorted by phase name.
    pub fn phase_stats(&self) -> Vec<PhaseStat> {
        self.phases
            .lock()
            .iter()
            .map(|(name, agg)| {
                let q = |p: f64| quantile_from_buckets(&agg.buckets, agg.count, agg.max, p);
                PhaseStat {
                    name,
                    count: agg.count,
                    mean_ns: agg.sum.checked_div(agg.count).unwrap_or(0),
                    p50_ns: q(0.50),
                    p95_ns: q(0.95),
                    p99_ns: q(0.99),
                    max_ns: agg.max,
                }
            })
            .collect()
    }

    /// Drop all state: pending spans, finished traces, phase aggregates,
    /// and counters. Handles stay valid; intended for per-experiment
    /// isolation alongside [`crate::Registry::reset`].
    pub fn reset(&self) {
        for shard in &self.pending {
            let mut s = shard.lock();
            s.traces.clear();
            s.order.clear();
        }
        let mut fin = self.finished.lock();
        fin.recent.clear();
        fin.slow.clear();
        drop(fin);
        let mut ring = self.ring.lock();
        ring.spans.clear();
        ring.dropped = 0;
        drop(ring);
        self.phases.lock().clear();
        self.completed.store(0, Ordering::Relaxed);
        self.orphaned.store(0, Ordering::Relaxed);
    }

    /// Render the slow-query log as an indented text table: one block
    /// per trace, slowest first, each span line showing name and
    /// duration.
    pub fn render_slow_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for trace in self.slowest() {
            let _ = writeln!(
                out,
                "trace {:032x} total {:.3} ms, {} spans{}",
                trace.trace_id,
                trace.duration_ns() as f64 / 1e6,
                trace.span_count,
                if trace.is_complete() {
                    String::new()
                } else {
                    format!(", {} orphaned", trace.orphan_spans)
                }
            );
            fn render_node(out: &mut String, node: &TraceNode, depth: usize) {
                use std::fmt::Write;
                let _ = writeln!(
                    out,
                    "{:indent$}{} {:.3} ms",
                    "",
                    node.name,
                    node.duration_ns as f64 / 1e6,
                    indent = 2 + depth * 2
                );
                for c in &node.children {
                    render_node(out, c, depth + 1);
                }
            }
            render_node(&mut out, &trace.root, 0);
        }
        out
    }
}

/// The process-wide trace collector every [`TraceSpan`] records into.
pub fn collector() -> &'static TraceCollector {
    static GLOBAL: OnceLock<TraceCollector> = OnceLock::new();
    GLOBAL.get_or_init(TraceCollector::new)
}

/// Render traces as JSON-lines: one JSON object per trace (the
/// `GET /traces` body). Ids are hex strings (64-bit span ids do not fit
/// JSON numbers losslessly); span names are trusted `'static` literals
/// and are emitted unescaped.
pub fn render_traces_jsonl(traces: &[Arc<Trace>]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for trace in traces {
        let _ = write!(
            out,
            "{{\"trace_id\":\"{:032x}\",\"duration_ns\":{},\"spans\":{},\"orphans\":{},\"root\":",
            trace.trace_id,
            trace.duration_ns(),
            trace.span_count,
            trace.orphan_spans
        );
        fn write_node(out: &mut String, node: &TraceNode) {
            use std::fmt::Write;
            let _ = write!(out, "{{\"name\":\"{}\",\"node\":\"", node.name);
            // Node ids come from the environment (`LIGHTWEB_NODE_ID`),
            // so unlike the 'static span names they must be escaped.
            crate::json::escape_str(out, node.node);
            let _ = write!(
                out,
                "\",\"span_id\":\"{:016x}\",\"parent_id\":\"{:016x}\",\"start_us\":{},\"duration_ns\":{},\"children\":[",
                node.span_id, node.parent_id, node.start_us, node.duration_ns
            );
            for (i, c) in node.children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_node(out, c);
            }
            out.push_str("]}");
        }
        write_node(&mut out, &trace.root);
        out.push_str("}\n");
    }
    out
}

/// Render this process's flat span ring as one JSON document (the
/// `GET /traces.json` body): node identity, span/orphan accounting, and
/// every retained [`SpanRecord`] — finalized or not. This is the scrape
/// format [`crate::fleet`] stitches across processes; a shard's spans
/// only ever leave the process through here, because their trace roots
/// finalize in the front end.
pub fn render_spans_json(c: &TraceCollector) -> String {
    use std::fmt::Write;
    let (spans, dropped) = c.recent_spans();
    let mut out = String::new();
    out.push_str("{\"node\":\"");
    crate::json::escape_str(&mut out, node_id());
    let _ = write!(
        out,
        "\",\"completed\":{},\"orphaned\":{},\"pending\":{},\"dropped\":{},\"spans\":[",
        c.completed(),
        c.orphaned_spans(),
        c.pending_spans(),
        dropped
    );
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"trace_id\":\"{:032x}\",\"span_id\":\"{:016x}\",\"parent_id\":\"{:016x}\",\"name\":\"{}\",\"node\":\"",
            s.trace_id, s.span_id, s.parent_id, s.name
        );
        crate::json::escape_str(&mut out, s.node);
        let _ = write!(
            out,
            "\",\"start_us\":{},\"duration_ns\":{}}}",
            s.start_us, s.duration_ns
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn rec(
        trace_id: u128,
        span_id: u64,
        parent_id: u64,
        name: &'static str,
        start_us: u64,
        duration_ns: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace_id,
            span_id,
            parent_id,
            name,
            node: "test-node",
            start_us,
            duration_ns,
        }
    }

    #[test]
    fn context_ids_are_fresh_and_linked() {
        let root = TraceContext::root();
        assert_eq!(root.parent_id, 0);
        assert_ne!(root.span_id, 0);
        assert_ne!(root.trace_id, 0);
        let child = root.child();
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent_id, root.span_id);
        assert_ne!(child.span_id, root.span_id);
        let other = TraceContext::root();
        assert_ne!(other.trace_id, root.trace_id);
    }

    #[test]
    fn context_roundtrips_through_bytes() {
        let ctx = TraceContext {
            trace_id: 0x0123_4567_89AB_CDEF_1122_3344_5566_7788,
            span_id: 0xDEAD_BEEF_CAFE_F00D,
            parent_id: 0x0102_0304_0506_0708,
        };
        let bytes = ctx.to_bytes();
        assert_eq!(bytes.len(), TRACE_CONTEXT_LEN);
        assert_eq!(TraceContext::from_bytes(&bytes), Some(ctx));
        assert_eq!(TraceContext::from_bytes(&bytes[..31]), None);
        assert_eq!(TraceContext::from_bytes(&[]), None);
    }

    #[test]
    fn collector_assembles_tree_on_root_completion() {
        let c = TraceCollector::new();
        let t = 77u128;
        // Children first (wire order), root last.
        c.record(rec(t, 3, 2, "leaf.a", 10, 100));
        c.record(rec(t, 4, 2, "leaf.b", 20, 200));
        c.record(rec(t, 2, 1, "middle", 5, 400));
        assert_eq!(c.completed(), 0);
        assert_eq!(c.pending_spans(), 3);
        c.record(rec(t, 1, 0, "root", 0, 1000));
        assert_eq!(c.completed(), 1);
        assert_eq!(c.pending_spans(), 0);
        let traces = c.recent();
        assert_eq!(traces.len(), 1);
        let trace = &traces[0];
        assert!(trace.is_complete(), "orphans: {}", trace.orphan_spans);
        assert_eq!(trace.span_count, 4);
        assert_eq!(trace.root.name, "root");
        let middle = trace.root.child_named("middle").unwrap();
        assert_eq!(middle.children.len(), 2);
        // Ordered by start time.
        assert_eq!(middle.children[0].name, "leaf.a");
        assert_eq!(middle.children[1].name, "leaf.b");
        assert_eq!(trace.find("leaf.b").unwrap().duration_ns, 200);
        let totals = trace.phase_totals();
        assert_eq!(totals["root"], 1000);
        assert_eq!(totals["leaf.a"], 100);
    }

    #[test]
    fn missing_parent_counts_as_orphan() {
        let c = TraceCollector::new();
        let t = 5u128;
        c.record(rec(t, 9, 42, "dangling", 0, 10));
        c.record(rec(t, 1, 0, "root", 0, 100));
        let trace = &c.recent()[0];
        assert_eq!(trace.span_count, 1);
        assert_eq!(trace.orphan_spans, 1);
        assert!(!trace.is_complete());
        assert_eq!(c.orphaned_spans(), 1);
    }

    #[test]
    fn pending_eviction_counts_orphans() {
        let c = TraceCollector::new();
        // Fill one shard past its cap with rootless traces. Trace ids
        // that are multiples of PENDING_SHARDS all land on shard 0.
        let n = (MAX_PENDING_TRACES + 10) as u128;
        for i in 0..n {
            c.record(rec(i * PENDING_SHARDS as u128, 2, 1, "never.roots", 0, 1));
        }
        assert!(c.orphaned_spans() >= 10, "orphaned {}", c.orphaned_spans());
        assert!(c.pending_spans() <= MAX_PENDING_TRACES);
    }

    #[test]
    fn recent_ring_and_slow_log_are_bounded_and_sorted() {
        let c = TraceCollector::new();
        for i in 0..(RECENT_TRACES + 40) as u64 {
            // Durations cycle so the slow log has a clear top end.
            c.record(rec(i as u128 + 1, 1, 0, "root", i, (i % 97) * 1000));
        }
        let recent = c.recent();
        assert_eq!(recent.len(), RECENT_TRACES);
        let slow = c.slowest();
        assert_eq!(slow.len(), SLOW_TRACES);
        for pair in slow.windows(2) {
            assert!(pair[0].duration_ns() >= pair[1].duration_ns());
        }
        assert_eq!(slow[0].duration_ns(), 96_000);
    }

    #[test]
    fn phase_stats_aggregate_all_spans() {
        let c = TraceCollector::new();
        for i in 1..=100u64 {
            c.record(rec(i as u128, 2, 1, "phase.x", 0, i * 1000));
        }
        let stats = c.phase_stats();
        let x = stats.iter().find(|s| s.name == "phase.x").unwrap();
        assert_eq!(x.count, 100);
        assert_eq!(x.mean_ns, 50_500);
        assert_eq!(x.max_ns, 100_000);
        assert!(x.p95_ns > x.mean_ns, "p95 {} mean {}", x.p95_ns, x.mean_ns);
        assert!(x.p95_ns <= x.max_ns);
        // The full quantile ladder is ordered and bounded.
        assert!(x.p50_ns > 0);
        assert!(
            x.p50_ns <= x.p95_ns && x.p95_ns <= x.p99_ns && x.p99_ns <= x.max_ns,
            "quantiles out of order: p50 {} p95 {} p99 {} max {}",
            x.p50_ns,
            x.p95_ns,
            x.p99_ns,
            x.max_ns
        );
    }

    #[test]
    fn span_guards_report_real_timings() {
        let c = collector();
        let before = c.completed();
        let root_ctx;
        {
            let root = TraceSpan::root("test.root");
            root_ctx = root.ctx();
            {
                let _child = TraceSpan::child(&root.ctx(), "test.child");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        assert!(c.completed() > before);
        let trace = c
            .recent()
            .into_iter()
            .find(|t| t.trace_id == root_ctx.trace_id)
            .expect("trace finalized");
        assert!(trace.is_complete());
        let child = trace.root.child_named("test.child").unwrap();
        assert!(child.duration_ns >= 2_000_000);
        assert!(trace.root.duration_ns >= child.duration_ns);
    }

    #[test]
    fn record_span_helpers_attach_children() {
        let c = collector();
        let ctx;
        let t0 = Instant::now();
        {
            let root = TraceSpan::root("helper.root");
            ctx = root.ctx();
            record_span(&ctx, "helper.wait", t0, Instant::now());
            let pre = ctx.child();
            record_span_ctx(&pre, "helper.scan", t0, Instant::now());
        }
        let trace = c
            .recent()
            .into_iter()
            .find(|t| t.trace_id == ctx.trace_id)
            .unwrap();
        assert!(trace.is_complete());
        assert!(trace.root.child_named("helper.wait").is_some());
        assert!(trace.root.child_named("helper.scan").is_some());
    }

    #[test]
    fn jsonl_and_slow_text_render() {
        let c = TraceCollector::new();
        c.record(rec(0xABC, 2, 1, "child.phase", 1, 500));
        c.record(rec(0xABC, 1, 0, "root.phase", 0, 2000));
        let jsonl = render_traces_jsonl(&c.recent());
        let line = jsonl.lines().next().unwrap();
        assert!(line.starts_with("{\"trace_id\":\"00000000000000000000000000000abc\""));
        assert!(line.contains("\"name\":\"root.phase\""));
        assert!(line.contains("\"name\":\"child.phase\""));
        assert!(line.contains("\"orphans\":0"));
        assert!(line.ends_with('}'));
        let text = c.render_slow_text();
        assert!(text.contains("root.phase"));
        assert!(text.contains("  child.phase"), "text:\n{text}");
    }

    #[test]
    fn node_id_is_stable_and_nonempty() {
        let a = node_id();
        let b = node_id();
        assert!(!a.is_empty());
        // Same leaked string every time.
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn flat_span_ring_retains_unfinalized_spans() {
        let c = TraceCollector::new();
        // A child with no root: never finalizes locally (the shard-side
        // situation), but must still be visible to the aggregator.
        c.record(rec(0xF00, 2, 1, "shard.side", 3, 500));
        assert_eq!(c.completed(), 0);
        let (spans, dropped) = c.recent_spans();
        assert_eq!(dropped, 0);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "shard.side");
        assert_eq!(spans[0].node, "test-node");
        let json = render_spans_json(&c);
        let v = crate::json::JsonValue::parse(&json).expect("valid json");
        assert_eq!(v.get("completed").and_then(|x| x.as_u64()), Some(0));
        let arr = v.get("spans").and_then(|s| s.as_arr()).unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(
            arr[0].get("trace_id").and_then(|x| x.as_str()),
            Some("00000000000000000000000000000f00")
        );
        assert_eq!(
            arr[0].get("node").and_then(|x| x.as_str()),
            Some("test-node")
        );
        assert_eq!(
            arr[0].get("duration_ns").and_then(|x| x.as_u64()),
            Some(500)
        );
    }

    #[test]
    fn flat_span_ring_is_bounded_and_counts_drops() {
        let c = TraceCollector::new();
        let extra = 10;
        for i in 0..(RECENT_SPANS + extra) as u64 {
            c.record(rec(i as u128 + 1, 1, 0, "ring.root", i, 1));
        }
        let (spans, dropped) = c.recent_spans();
        assert_eq!(spans.len(), RECENT_SPANS);
        assert_eq!(dropped, extra as u64);
        // Oldest were dropped: the first retained span is number `extra`.
        assert_eq!(spans[0].trace_id, extra as u128 + 1);
    }

    #[test]
    fn jsonl_nodes_carry_node_ids() {
        let c = TraceCollector::new();
        c.record(rec(0xABC, 2, 1, "child.phase", 1, 500));
        c.record(rec(0xABC, 1, 0, "root.phase", 0, 2000));
        let jsonl = render_traces_jsonl(&c.recent());
        assert!(
            jsonl.contains("\"node\":\"test-node\""),
            "jsonl missing node: {jsonl}"
        );
    }

    #[test]
    fn reset_clears_everything() {
        let c = TraceCollector::new();
        c.record(rec(9, 2, 1, "r.child", 0, 5));
        c.record(rec(9, 1, 0, "r.root", 0, 10));
        c.record(rec(10, 7, 3, "r.pending", 0, 5));
        c.reset();
        assert_eq!(c.completed(), 0);
        assert_eq!(c.orphaned_spans(), 0);
        assert_eq!(c.pending_spans(), 0);
        assert!(c.recent().is_empty());
        assert!(c.slowest().is_empty());
        assert!(c.phase_stats().is_empty());
        let (spans, dropped) = c.recent_spans();
        assert!(spans.is_empty());
        assert_eq!(dropped, 0);
    }
}
