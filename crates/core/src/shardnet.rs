//! The §5.2 deployment taken out of one address space: data-server
//! shards behind TCP, and the front-end fan-out that drives them.
//!
//! [`ShardedDeployment`](lightweb_engine::ShardedDeployment) reproduces
//! the paper's front-end/data-server split in-process. This module puts
//! the hop on a real wire: a [`ShardNetServer`] hosts one
//! [`DataShard`] and answers `(ShardKey, TreeNode)` requests; a
//! [`ShardFanout`] holds one connection per shard, performs the
//! front-end prefix evaluation, ships each sub-tree root to its shard,
//! and XOR-combines the partial answers — the paper's "front-end
//! servers process the client's DPF key before sending the DPF key to
//! the data servers".
//!
//! The shard hop reuses the ZLTP frame format (`Get`/`GetResponse`
//! inside length-prefixed frames), so byte/frame accounting, trace
//! extensions, and the adversarial-framing defenses all carry over.
//! Every link — accepted and dialed — goes through
//! [`tune_zltp_socket`]: shard RPCs are small (a sub-tree root is 17
//! bytes, a shard key a few hundred) and latency-critical, exactly the
//! traffic Nagle's algorithm would sit on, so `TCP_NODELAY` is applied
//! and its failure counted rather than ignored.

use crate::error::ZltpError;
use crate::server::error_code;
use crate::transport::{spawn_accept_loop, tune_zltp_socket, FramedConn};
use crate::wire::Message;
use lightweb_dpf::{DpfKey, DpfParams, ShardKey, TreeNode};
use lightweb_engine::DataShard;
use lightweb_store::record::{get_bytes, put_bytes};
use lightweb_telemetry::trace::{self, TraceContext};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Encode one shard request: the shard key and the sub-tree root for
/// this shard, as a `Get` payload.
fn encode_shard_request(shard_key: &[u8], node: &TreeNode) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + shard_key.len() + TreeNode::SERIALIZED_LEN);
    put_bytes(&mut out, shard_key);
    put_bytes(&mut out, &node.to_bytes());
    out
}

/// Decode a shard request payload back into key material.
fn decode_shard_request(mut payload: &[u8]) -> Result<(ShardKey, TreeNode), String> {
    let key_bytes = get_bytes(&mut payload).map_err(|e| e.to_string())?;
    let node_bytes = get_bytes(&mut payload).map_err(|e| e.to_string())?;
    if !payload.is_empty() {
        return Err(format!("{} trailing bytes in shard request", payload.len()));
    }
    let shard_key = ShardKey::from_bytes(&key_bytes).map_err(|e| e.to_string())?;
    let node = TreeNode::from_bytes(&node_bytes).map_err(|e| e.to_string())?;
    Ok((shard_key, node))
}

/// Count a shard-session failure and surface it to the event sink —
/// the shardnet mirror of the core server's session-error logging.
fn log_shardnet_error(err: &str) {
    lightweb_telemetry::counter!("shardnet.session.errors").inc();
    lightweb_telemetry::events::emit(
        "shardnet.session.error",
        &[("error", lightweb_telemetry::events::Field::Str(err))],
    );
}

struct ShardNetInner {
    shard: DataShard,
    shutdown: AtomicBool,
}

/// One data server of a wire-distributed §5.2 deployment: accepts
/// front-end connections and answers shard requests against its slice.
#[derive(Clone)]
pub struct ShardNetServer {
    inner: Arc<ShardNetInner>,
}

impl ShardNetServer {
    /// Host `shard` behind a TCP front door.
    pub fn new(shard: DataShard) -> Self {
        Self {
            inner: Arc::new(ShardNetInner {
                shard,
                shutdown: AtomicBool::new(false),
            }),
        }
    }

    /// Stop accepting and wind down the accept thread.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
    }

    /// Serve front-end connections on `listener` until shutdown.
    /// Connections are few (one per front-end) and long-lived, so a
    /// blocking thread per connection is the right shape here — the
    /// 10k-session reactor problem lives on the client-facing side.
    pub fn serve(&self, listener: TcpListener) -> std::io::Result<std::thread::JoinHandle<()>> {
        let inner = self.inner.clone();
        let watched = self.inner.clone();
        spawn_accept_loop(
            listener,
            "shardnet",
            "shard-accept",
            move || watched.shutdown.load(Ordering::SeqCst),
            |_stage, err| log_shardnet_error(err),
            move |stream| {
                if let Err(e) = serve_front_end(&inner, stream) {
                    log_shardnet_error(&e.to_string());
                }
            },
        )
    }
}

/// One front-end connection's request loop on a shard server.
///
/// Requests arrive with the front end's trace extension when the client
/// is tracing: the wire context is the front end's per-hop rpc span, so
/// the answer span recorded here is its child — stamped with *this*
/// process's node id, never finalized locally (the trace root lives in
/// the front end), and exported through `/traces.json` for the fleet
/// aggregator to stitch.
fn serve_front_end(inner: &ShardNetInner, stream: TcpStream) -> Result<(), ZltpError> {
    let mut conn = FramedConn::new(stream);
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            let _ = conn.send(&Message::Close);
            return Ok(());
        }
        let (msg, wire_ctx) = conn.recv_traced()?;
        match msg {
            Message::Get {
                request_id,
                payload,
            } => {
                lightweb_telemetry::counter!("shardnet.requests").inc();
                let span_ctx = wire_ctx.map(|c| c.child());
                let start = std::time::Instant::now();
                let _t = lightweb_telemetry::span!("zltp.shardnet.answer.ns");
                let reply = decode_shard_request(&payload)
                    .and_then(|(key, node)| {
                        let _ctx = trace::enter(span_ctx);
                        inner.shard.answer(&key, &node).map_err(|e| e.to_string())
                    })
                    .map(|partial| Message::GetResponse {
                        request_id,
                        payload: partial,
                    })
                    .unwrap_or_else(|e| {
                        lightweb_telemetry::counter!("shardnet.request.errors").inc();
                        Message::Error {
                            code: error_code::BAD_QUERY,
                            message: e,
                        }
                    });
                // Record before the response leaves: by the time the
                // front end sees the answer (and anyone scrapes on the
                // strength of it), this span is already in the ring.
                if let Some(ctx) = &span_ctx {
                    trace::record_span_ctx(
                        ctx,
                        "zltp.shardnet.answer",
                        start,
                        std::time::Instant::now(),
                    );
                }
                conn.send(&reply)?;
            }
            Message::Close => {
                let _ = conn.send(&Message::Close);
                return Ok(());
            }
            other => {
                conn.send(&Message::Error {
                    code: error_code::STATE,
                    message: format!("unexpected {} on shard link", other.name()),
                })?;
                return Ok(());
            }
        }
    }
}

/// The front-end's side of the wire: one connection per data-server
/// shard, fan-out of the prefix split, XOR combination of the partials.
pub struct ShardFanout {
    links: Vec<FramedConn<TcpStream>>,
    params: DpfParams,
    prefix_bits: u32,
    next_request_id: u32,
    /// Links currently counted in the `shardnet.links.connected` gauge;
    /// zeroed by [`ShardFanout::close`] so Drop never double-decrements.
    gauged_links: usize,
}

/// The gauge tracking how many shardnet links this process holds open —
/// surfaced on `/healthz` as `shardnet_links_connected`.
fn links_gauge() -> lightweb_telemetry::Gauge {
    lightweb_telemetry::registry().gauge(lightweb_telemetry::scrape::HEALTHZ_SHARD_LINKS_GAUGE)
}

impl ShardFanout {
    /// Dial every shard of a `2^prefix_bits`-way deployment.
    /// `shard_addrs[j]` must be the server holding slice `j` of the slot
    /// domain; the count must match the split exactly. Each link gets
    /// [`tune_zltp_socket`] (`TCP_NODELAY`) — the front-end↔shard hop
    /// sits inside the end-to-end latency budget of every private GET.
    pub fn connect<A: ToSocketAddrs>(
        shard_addrs: &[A],
        params: DpfParams,
        prefix_bits: u32,
    ) -> Result<Self, ZltpError> {
        if shard_addrs.len() != 1usize << prefix_bits {
            return Err(ZltpError::Wire(format!(
                "{} shard addresses for a 2^{prefix_bits}-way split",
                shard_addrs.len()
            )));
        }
        let links = shard_addrs
            .iter()
            .map(|addr| {
                let stream = TcpStream::connect(addr)?;
                tune_zltp_socket(&stream, "shard-link");
                Ok(FramedConn::new(stream))
            })
            .collect::<Result<Vec<_>, std::io::Error>>()?;
        let gauged_links = links.len();
        links_gauge().add(gauged_links as i64);
        Ok(Self {
            links,
            params,
            prefix_bits,
            next_request_id: 1,
            gauged_links,
        })
    }

    /// Number of shard links.
    pub fn shard_count(&self) -> usize {
        self.links.len()
    }

    /// `TCP_NODELAY` state of every shard link, in shard order. Exposed
    /// so deployments (and tests) can verify the option actually stuck
    /// rather than trusting that it was requested.
    pub fn nodelay_states(&self) -> std::io::Result<Vec<bool>> {
        self.links.iter().map(|l| l.get_ref().nodelay()).collect()
    }

    /// Answer one client key across the shards: evaluate the top
    /// `prefix_bits` levels here, ship sub-tree root `j` (plus the shared
    /// shard key) to shard `j`, and XOR the partial answers — the wire
    /// version of `ShardedDeployment::answer`.
    ///
    /// Requests go out on every link before any response is awaited, so
    /// the shards scan their slices concurrently; wall-clock stays at
    /// one shard's latency plus the fan-out round trip.
    ///
    /// Under a current trace context, each shard hop gets a pre-minted
    /// `zltp.shardnet.rpc` child that rides the wire as the 0x80 trace
    /// frame extension, so the shard server's spans join this trace under
    /// the client's 128-bit trace id. The hop span itself is recorded
    /// here (send-to-receive wall time) once the shard's partial answer
    /// arrives.
    pub fn answer(&mut self, key: &DpfKey) -> Result<Vec<u8>, ZltpError> {
        if key.params() != self.params {
            return Err(ZltpError::Wire("DPF parameters mismatch".into()));
        }
        let ctx = trace::current();
        let _t = lightweb_telemetry::span!("zltp.shardnet.fanout.ns");
        let (nodes, shard_key) = {
            let _fe = trace::maybe_child("zltp.shard.front_end");
            let _fe_ns = lightweb_telemetry::span!("zltp.shard.front_end.ns");
            (
                key.eval_prefix(self.prefix_bits),
                key.shard_key(self.prefix_bits),
            )
        };
        let key_bytes = shard_key.to_bytes();
        let request_id = self.next_request_id;
        self.next_request_id = self.next_request_id.wrapping_add(1);
        // All requests go out before any response is awaited (the shards
        // scan concurrently), so every hop's span opens at its own send.
        let mut hops: Vec<Option<(TraceContext, std::time::Instant)>> =
            Vec::with_capacity(self.links.len());
        for (link, node) in self.links.iter_mut().zip(nodes.iter()) {
            let hop_ctx = ctx.map(|c| c.child());
            link.send_traced(
                &Message::Get {
                    request_id,
                    payload: encode_shard_request(&key_bytes, node),
                },
                hop_ctx.as_ref(),
            )?;
            hops.push(hop_ctx.map(|c| (c, std::time::Instant::now())));
        }
        let mut acc: Option<Vec<u8>> = None;
        for (j, link) in self.links.iter_mut().enumerate() {
            let reply = link.recv()?;
            if let Some((hop_ctx, sent_at)) = hops[j].take() {
                trace::record_span_ctx(
                    &hop_ctx,
                    "zltp.shardnet.rpc",
                    sent_at,
                    std::time::Instant::now(),
                );
            }
            match reply {
                Message::GetResponse {
                    request_id: rid,
                    payload,
                } => {
                    if rid != request_id {
                        return Err(ZltpError::Wire(format!(
                            "shard {j} answered request {rid}, expected {request_id}"
                        )));
                    }
                    match &mut acc {
                        None => acc = Some(payload),
                        Some(acc) => {
                            if acc.len() != payload.len() {
                                return Err(ZltpError::Wire(format!(
                                    "shard {j} answer length {} != {}",
                                    payload.len(),
                                    acc.len()
                                )));
                            }
                            lightweb_crypto::xor_in_place(acc, &payload);
                        }
                    }
                }
                Message::Error { code, message } => {
                    return Err(ZltpError::ServerError { code, message })
                }
                other => {
                    return Err(ZltpError::UnexpectedMessage {
                        expected: "GetResponse",
                        got: other.name(),
                    })
                }
            }
        }
        acc.ok_or_else(|| ZltpError::Wire("no shards".into()))
    }

    /// Orderly close of every shard link.
    pub fn close(mut self) -> Result<(), ZltpError> {
        links_gauge().add(-(self.gauged_links as i64));
        self.gauged_links = 0;
        for link in &mut self.links {
            link.send(&Message::Close)?;
            let _ = link.recv();
        }
        Ok(())
    }
}

impl Drop for ShardFanout {
    fn drop(&mut self) {
        // `close` zeroes `gauged_links`, so this only fires for fanouts
        // dropped without an orderly close (errors, panics, tests).
        links_gauge().add(-(self.gauged_links as i64));
        self.gauged_links = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightweb_dpf::gen;
    use lightweb_engine::ShardedDeployment;

    /// Serialises tests that connect fan-outs: `shardnet.links.connected`
    /// is a process-global gauge, so exact before/after assertions need
    /// the other fanout-creating tests held off.
    static LINKS_GAUGE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn entries(n: u64, domain: u64, record_len: usize) -> Vec<(u64, Vec<u8>)> {
        (0..n)
            .map(|i| {
                let slot = (i * 2654435761) % domain;
                let mut rec = vec![0u8; record_len];
                rec[..8].copy_from_slice(&i.to_le_bytes());
                (slot, rec)
            })
            .collect::<std::collections::BTreeMap<_, _>>()
            .into_iter()
            .collect()
    }

    fn spawn_shards(
        params: DpfParams,
        prefix_bits: u32,
        record_len: usize,
        es: &[(u64, Vec<u8>)],
    ) -> (Vec<ShardNetServer>, Vec<std::net::SocketAddr>) {
        let mut servers = Vec::new();
        let mut addrs = Vec::new();
        for j in 0..(1usize << prefix_bits) {
            let shard =
                DataShard::from_entries(params, prefix_bits, j, record_len, es.to_vec()).unwrap();
            let server = ShardNetServer::new(shard);
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            addrs.push(listener.local_addr().unwrap());
            server.serve(listener).unwrap();
            servers.push(server);
        }
        (servers, addrs)
    }

    #[test]
    fn fanout_matches_in_process_deployment() {
        let _g = LINKS_GAUGE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let params = DpfParams::new(12, 3).unwrap();
        let es = entries(80, 1 << 12, 24);
        let dep = ShardedDeployment::from_entries(params, 2, 24, es.clone()).unwrap();
        let (servers, addrs) = spawn_shards(params, 2, 24, &es);
        let mut fanout = ShardFanout::connect(&addrs, params, 2).unwrap();
        assert_eq!(fanout.shard_count(), 4);
        for &(slot, _) in es.iter().take(6) {
            let (k0, k1) = gen(&params, slot);
            for k in [&k0, &k1] {
                assert_eq!(
                    fanout.answer(k).unwrap(),
                    dep.answer(k).unwrap().0,
                    "slot {slot}"
                );
            }
        }
        fanout.close().unwrap();
        for s in &servers {
            s.shutdown();
        }
    }

    #[test]
    fn shard_links_have_nodelay_applied() {
        // §5.2's front-end↔shard hop must not sit behind Nagle: assert
        // the option is actually set on the connected sockets, not just
        // requested.
        let _g = LINKS_GAUGE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let params = DpfParams::new(12, 3).unwrap();
        let es = entries(16, 1 << 12, 8);
        let (servers, addrs) = spawn_shards(params, 1, 8, &es);
        let fanout = ShardFanout::connect(&addrs, params, 1).unwrap();
        let states = fanout.nodelay_states().unwrap();
        assert_eq!(states.len(), 2);
        assert!(
            states.iter().all(|&on| on),
            "TCP_NODELAY missing on shard links: {states:?}"
        );
        fanout.close().unwrap();
        for s in &servers {
            s.shutdown();
        }
    }

    #[test]
    fn shard_server_rejects_garbage_and_wrong_split() {
        let params = DpfParams::new(12, 3).unwrap();
        let es = entries(16, 1 << 12, 8);
        let (servers, addrs) = spawn_shards(params, 1, 8, &es);

        // Address-count mismatch is refused before any bytes move.
        assert!(ShardFanout::connect(&addrs, params, 2).is_err());

        // A garbage payload earns a BAD_QUERY error, not a hang.
        let mut conn = FramedConn::new(TcpStream::connect(addrs[0]).unwrap());
        conn.send(&Message::Get {
            request_id: 9,
            payload: vec![0xff; 10],
        })
        .unwrap();
        match conn.recv().unwrap() {
            Message::Error { code, .. } => assert_eq!(code, error_code::BAD_QUERY),
            other => panic!("expected Error, got {}", other.name()),
        }

        // A shard key split at the wrong depth is rejected by the shard.
        let (k0, _) = gen(&params, 0);
        let wrong_key = k0.shard_key(2).to_bytes();
        let node = k0.eval_prefix(1)[0];
        conn.send(&Message::Get {
            request_id: 10,
            payload: encode_shard_request(&wrong_key, &node),
        })
        .unwrap();
        match conn.recv().unwrap() {
            Message::Error { code, .. } => assert_eq!(code, error_code::BAD_QUERY),
            other => panic!("expected Error, got {}", other.name()),
        }

        // The connection survived both errors: a valid request works.
        let good_key = k0.shard_key(1).to_bytes();
        conn.send(&Message::Get {
            request_id: 11,
            payload: encode_shard_request(&good_key, &node),
        })
        .unwrap();
        assert!(matches!(
            conn.recv().unwrap(),
            Message::GetResponse { request_id: 11, .. }
        ));
        for s in &servers {
            s.shutdown();
        }
    }

    #[test]
    fn two_party_reconstruction_over_the_wire() {
        // Both parties' fan-outs against the same shard fleet: XOR of the
        // two combined answers is the record — §2.2 privacy reconstruction
        // across a real network hop.
        let _g = LINKS_GAUGE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let params = DpfParams::new(12, 3).unwrap();
        let es = entries(48, 1 << 12, 16);
        let (servers, addrs) = spawn_shards(params, 2, 16, &es);
        let mut f0 = ShardFanout::connect(&addrs, params, 2).unwrap();
        let mut f1 = ShardFanout::connect(&addrs, params, 2).unwrap();
        let client = lightweb_pir::TwoServerClient::new(params, 16);
        for &(slot, ref rec) in es.iter().take(6) {
            let q = client.query_slot(slot);
            let a0 = f0.answer(&q.key0).unwrap();
            let a1 = f1.answer(&q.key1).unwrap();
            assert_eq!(
                &lightweb_pir::TwoServerClient::combine(&a0, &a1).unwrap(),
                rec,
                "slot {slot}"
            );
        }
        f0.close().unwrap();
        f1.close().unwrap();
        for s in &servers {
            s.shutdown();
        }
    }

    #[test]
    fn link_gauge_tracks_connect_close_and_drop() {
        let _g = LINKS_GAUGE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let gauge = links_gauge();
        let params = DpfParams::new(12, 3).unwrap();
        let es = entries(16, 1 << 12, 8);
        let (servers, addrs) = spawn_shards(params, 2, 8, &es);

        let before = gauge.get();
        let fanout = ShardFanout::connect(&addrs, params, 2).unwrap();
        assert_eq!(gauge.get(), before + 4, "connect registers all links");
        fanout.close().unwrap();
        assert_eq!(gauge.get(), before, "close releases them");

        // A fanout dropped without `close` (error paths) still releases.
        let dropped = ShardFanout::connect(&addrs, params, 2).unwrap();
        assert_eq!(gauge.get(), before + 4);
        drop(dropped);
        assert_eq!(gauge.get(), before, "drop without close releases too");

        for s in &servers {
            s.shutdown();
        }
    }

    #[test]
    fn traced_answer_stitches_fanout_and_shard_spans() {
        // The tentpole wire contract: a traced fan-out forwards the
        // caller's 128-bit trace id over the 0x80 extension, so the
        // shard side's spans land in the collector under the same trace
        // with the rpc hop as their parent. (Shards run in-process here,
        // so one global collector sees both halves.)
        let _g = LINKS_GAUGE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let params = DpfParams::new(12, 3).unwrap();
        let es = entries(32, 1 << 12, 16);
        let (servers, addrs) = spawn_shards(params, 1, 16, &es);
        let mut fanout = ShardFanout::connect(&addrs, params, 1).unwrap();

        let root = lightweb_telemetry::trace::TraceContext::root();
        let (k0, _) = gen(&params, es[0].0);
        {
            let _ctx = trace::enter(Some(root));
            fanout.answer(&k0).unwrap();
        }

        let (spans, _) = lightweb_telemetry::trace::collector().recent_spans();
        let ours: Vec<_> = spans
            .iter()
            .filter(|s| s.trace_id == root.trace_id)
            .collect();
        let named = |n: &str| ours.iter().filter(|s| s.name == n).collect::<Vec<_>>();

        let rpcs = named("zltp.shardnet.rpc");
        assert_eq!(rpcs.len(), 2, "one rpc hop per shard link");
        assert!(rpcs.iter().all(|s| s.parent_id == root.span_id));

        let answers = named("zltp.shardnet.answer");
        assert_eq!(answers.len(), 2, "shard side records under the wire ctx");
        for a in &answers {
            assert!(
                rpcs.iter().any(|r| r.span_id == a.parent_id),
                "shard span must hang off an rpc hop"
            );
        }
        assert_eq!(named("zltp.shard.answer").len(), 2);
        assert_eq!(named("zltp.shard.front_end").len(), 1);

        fanout.close().unwrap();
        for s in &servers {
            s.shutdown();
        }
    }
}
