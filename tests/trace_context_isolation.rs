//! The current trace context never outlives the work it belongs to.
//!
//! A context left current on a thread would join the next, unrelated
//! request into the same trace — exactly the cross-request link private
//! information retrieval exists to hide. This file drives the client
//! entry points and every server-side thread that answers a request (a
//! blocking session thread, a reactor worker, the batcher) through a
//! traced request followed by untraced ones, and asserts that nothing
//! carries over.
//!
//! The trace collector is process-global, so this file holds a single
//! test function.

use lightweb::dpf::gen;
use lightweb::zltp::{
    BatchConfig, FramedConn, InProcServer, IoModel, Message, Mode, ModeSet, ServerConfig,
    TwoServerZltp, ZltpServer, PROTOCOL_VERSION,
};
use lightweb_reactor::{serve_with, ReactorConfig};
use lightweb_telemetry::trace::{self, collector, SpanRecord, TraceContext};
use std::net::{SocketAddr, TcpListener, TcpStream};

const BLOB_LEN: usize = 64;
const PAGES: usize = 4;

fn config(party: u8, batch: BatchConfig, io_model: IoModel) -> ServerConfig {
    let mut cfg = ServerConfig::small("trace-isolation", party);
    cfg.blob_len = BLOB_LEN;
    cfg.modes = ModeSet::new([Mode::TwoServerPir]);
    cfg.batch = batch;
    cfg.io_model = io_model;
    cfg.scan_threads = 2;
    cfg
}

fn server(cfg: ServerConfig) -> ZltpServer {
    let server = ZltpServer::new(cfg).unwrap();
    for i in 0..PAGES {
        server
            .publish(&format!("iso/{i}"), &[i as u8; BLOB_LEN])
            .unwrap();
    }
    server
}

fn spans() -> Vec<SpanRecord> {
    collector().recent_spans().0
}

/// A bare ZLTP connection that chooses, per GET, whether to send a trace
/// extension.
struct RawSession {
    conn: FramedConn<TcpStream>,
    cfg: ServerConfig,
    next_id: u32,
}

impl RawSession {
    fn connect(addr: SocketAddr, cfg: &ServerConfig) -> Self {
        let mut conn = FramedConn::new(TcpStream::connect(addr).unwrap());
        conn.send(&Message::ClientHello {
            version: PROTOCOL_VERSION,
            modes: vec![Mode::TwoServerPir.to_wire()],
        })
        .unwrap();
        assert!(matches!(conn.recv().unwrap(), Message::ServerHello { .. }));
        RawSession {
            conn,
            cfg: cfg.clone(),
            next_id: 0,
        }
    }

    fn get(&mut self, trace: Option<TraceContext>) {
        self.next_id += 1;
        let (key, _) = gen(&self.cfg.dpf_params(), 5);
        let msg = Message::Get {
            request_id: self.next_id,
            payload: key.to_bytes().to_vec(),
        };
        self.conn.send_traced(&msg, trace.as_ref()).unwrap();
        assert!(matches!(
            self.conn.recv().unwrap(),
            Message::GetResponse { .. }
        ));
    }
}

/// Serve one traced GET, then untraced GETs on the same connection (the
/// same session thread) and on a new one (the same reactor worker), then
/// a second traced GET: the untraced requests must record no span at
/// all, and the second trace must hold only its own spans.
fn server_threads_forget_served_traces(batch: BatchConfig, io_model: IoModel, label: &str) {
    collector().reset();
    let cfg = config(0, batch, io_model);
    let srv = server(cfg.clone());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let reactor = ReactorConfig {
        workers: 1,
        ..ReactorConfig::default()
    };
    serve_with(&srv, listener, reactor).unwrap();

    let first = TraceContext::root();
    let mut a = RawSession::connect(addr, &cfg);
    a.get(Some(first));
    let first_spans = spans().len();
    assert!(first_spans > 0, "{label}: the traced GET recorded spans");
    assert!(
        spans().iter().all(|s| s.trace_id == first.trace_id),
        "{label}: only the traced GET's spans"
    );

    a.get(None);
    let mut b = RawSession::connect(addr, &cfg);
    b.get(None);
    assert_eq!(
        spans().len(),
        first_spans,
        "{label}: an untraced GET after a traced one recorded spans"
    );

    let second = TraceContext::root();
    b.get(Some(second));
    let later: Vec<_> = spans().split_off(first_spans);
    assert!(!later.is_empty(), "{label}: the second traced GET recorded");
    assert!(
        later.iter().all(|s| s.trace_id == second.trace_id),
        "{label}: a span of the second GET joined another trace"
    );
    let request = later
        .iter()
        .find(|s| s.name == "zltp.server.request")
        .expect("server request span");
    assert_eq!(request.parent_id, second.span_id, "{label}: parent link");
    srv.shutdown();
}

#[test]
fn the_current_context_never_leaks() {
    // Client side: a private GET leaves nothing current behind, so two
    // GETs in a row are two unrelated traces.
    collector().reset();
    let pair: Vec<_> = (0..2u8)
        .map(|party| {
            InProcServer::new(server(config(
                party,
                BatchConfig::unbatched(),
                IoModel::Threads,
            )))
        })
        .collect();
    let mut client = TwoServerZltp::connect(pair[0].connect(), pair[1].connect()).unwrap();
    assert_eq!(trace::current(), None);
    for i in 0..2 {
        assert_eq!(
            client.private_get(&format!("iso/{i}")).unwrap(),
            vec![i as u8; BLOB_LEN]
        );
        assert_eq!(trace::current(), None, "private_get left a context behind");
    }
    client.close().unwrap();
    let traces: Vec<_> = collector()
        .recent()
        .into_iter()
        .filter(|t| t.root.name == "zltp.client.request")
        .collect();
    assert_eq!(traces.len(), 2, "one trace per private GET");
    assert_ne!(
        traces[0].trace_id, traces[1].trace_id,
        "two untraced GETs joined one trace"
    );
    for t in &traces {
        assert!(t.is_complete());
        assert_eq!(t.root.parent_id, 0, "each GET roots its own trace");
    }

    // Server side: the blocking session thread and a reactor worker run
    // the unbatched work; the batcher thread runs batched work.
    server_threads_forget_served_traces(
        BatchConfig::unbatched(),
        IoModel::Threads,
        "session thread",
    );
    server_threads_forget_served_traces(
        BatchConfig::unbatched(),
        IoModel::Reactor,
        "reactor worker",
    );
    server_threads_forget_served_traces(BatchConfig::default(), IoModel::Threads, "batcher");
}
