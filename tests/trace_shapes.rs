//! The shape of the trace trees on every request path that is not the
//! batched sharded one (`tracing_integration.rs` pins that one).
//!
//! Each section drives real sessions and asserts span names, parent
//! links and counts:
//!
//! * the monolithic batched two-server path on a width-2 scan pool:
//!   `engine.two_server.eval` and `engine.two_server.scan` under
//!   `zltp.server.request`, each with one `engine.pool.partition` child
//!   per pool worker;
//! * the browser: `browser.page` is the parent of every
//!   `zltp.client.request` a real or cover page load issues;
//! * the single-server modes: `engine.lwe.answer` and
//!   `engine.oram.answer` under `zltp.server.request`.
//!
//! The trace collector is process-global, so this file holds a single
//! test function that runs the sections one after another.

use lightweb::browser::LightwebBrowser;
use lightweb::universe::json::Value;
use lightweb::universe::{Universe, UniverseConfig};
use lightweb::zltp::{
    BatchConfig, EnclaveClient, InProcServer, LweClientSession, Mode, ModeSet, ServerConfig,
    TwoServerZltp, ZltpServer,
};
use lightweb_telemetry::trace::{collector, Trace, TraceNode};
use std::sync::Arc;
use std::time::Duration;

const BLOB_LEN: usize = 96;
const PAGES: usize = 8;

fn assert_linked(parent: &TraceNode, child: &TraceNode) {
    assert_eq!(
        child.parent_id, parent.span_id,
        "span {} should hang off {}",
        child.name, parent.name
    );
}

/// Every node named `name` anywhere under `node`, `node` included.
fn count_named(node: &TraceNode, name: &str) -> usize {
    usize::from(node.name == name)
        + node
            .children
            .iter()
            .map(|c| count_named(c, name))
            .sum::<usize>()
}

/// Finalized traces rooted at `root_name`; every one must be complete,
/// and nothing may be left orphaned or pending.
fn traces_rooted_at(root_name: &str) -> Vec<Arc<Trace>> {
    assert_eq!(collector().orphaned_spans(), 0, "orphan spans recorded");
    assert_eq!(collector().pending_spans(), 0, "spans never finalized");
    let traces: Vec<_> = collector()
        .recent()
        .into_iter()
        .filter(|t| t.root.name == root_name)
        .collect();
    for t in &traces {
        assert!(t.is_complete(), "trace has orphan spans");
        assert_eq!(t.root.parent_id, 0, "root span must have no parent");
    }
    traces
}

fn server(cfg: ServerConfig) -> InProcServer {
    let server = ZltpServer::new(cfg).unwrap();
    for i in 0..PAGES {
        server
            .publish(&format!("shape/page-{i}"), &[0x30 + i as u8; BLOB_LEN])
            .unwrap();
    }
    InProcServer::new(server)
}

fn config(modes: &[Mode], party: u8) -> ServerConfig {
    let mut cfg = ServerConfig::small("trace-shapes", party);
    cfg.blob_len = BLOB_LEN;
    cfg.modes = ModeSet::new(modes.iter().copied());
    cfg
}

/// Batched, unsharded two-server GETs on a two-worker scan pool.
fn monolithic_batched_path() {
    collector().reset();
    let servers: Vec<_> = (0..2u8)
        .map(|party| {
            let mut cfg = config(&[Mode::TwoServerPir], party);
            cfg.shard_prefix_bits = 0;
            cfg.scan_threads = 2;
            cfg.batch = BatchConfig {
                max_batch: 4,
                window: Duration::from_millis(2),
            };
            server(cfg)
        })
        .collect();
    let mut client = TwoServerZltp::connect(servers[0].connect(), servers[1].connect()).unwrap();
    for i in 0..4 {
        let blob = client.private_get(&format!("shape/page-{i}")).unwrap();
        assert_eq!(blob, vec![0x30 + i as u8; BLOB_LEN]);
    }
    client.close().unwrap();

    let traces = traces_rooted_at("zltp.client.request");
    assert_eq!(traces.len(), 4, "one trace per private GET");
    for trace in &traces {
        let hops: Vec<_> = trace.root.children_named("zltp.client.transport").collect();
        assert_eq!(hops.len(), 2, "a two-server GET makes two wire hops");
        for hop in hops {
            assert_linked(&trace.root, hop);
            let req = hop
                .child_named("zltp.server.request")
                .expect("server request span crossed the wire");
            assert_linked(hop, req);
            for phase in ["zltp.server.prepare", "zltp.server.batch.wait"] {
                assert_linked(req, req.child_named(phase).expect(phase));
            }
            assert!(
                req.child_named("engine.two_server.answer").is_none(),
                "the unsharded path has no per-query answer span"
            );
            for phase in ["engine.two_server.eval", "engine.two_server.scan"] {
                let node = req.child_named(phase).expect(phase);
                assert_linked(req, node);
                let parts: Vec<_> = node.children_named("engine.pool.partition").collect();
                assert_eq!(parts.len(), 2, "{phase}: one partition per pool worker");
                for part in parts {
                    assert_linked(node, part);
                }
                assert_eq!(node.children.len(), 2, "{phase} has only partitions");
            }
            assert_eq!(
                count_named(req, "engine.pool.partition"),
                4,
                "partitions hang only off eval and scan"
            );
        }
    }
}

/// Real and cover page loads: each is one trace whose root parents every
/// private GET of the page.
fn browser_pages() {
    collector().reset();
    let u = Universe::new(UniverseConfig::small_test("shape-web")).unwrap();
    u.register_domain("shape.org", "Shape").unwrap();
    u.publish_code(
        "Shape",
        "shape.org",
        r#"
        route "/" {
            fetch "shape.org/front"
            fetch "shape.org/side"
            render "{data.0.t} {data.1.t}"
        }
        "#,
    )
    .unwrap();
    for (path, t) in [("shape.org/front", "front"), ("shape.org/side", "side")] {
        u.publish_json("Shape", path, &Value::object([("t", t.into())]))
            .unwrap();
    }
    let per_page = u.config().fetches_per_page;
    let mut browser = LightwebBrowser::connect(
        u.connect_code(),
        u.connect_data(),
        per_page,
        u.config().max_chain_parts,
    )
    .unwrap();
    let page = browser.browse("shape.org/").unwrap();
    assert_eq!(page.body, "front side");
    browser.browse("shape.org/").unwrap();
    browser.browse_cover().unwrap();

    assert!(
        traces_rooted_at("zltp.client.request").is_empty(),
        "every browser GET belongs to a page trace"
    );
    let pages = traces_rooted_at("browser.page");
    assert_eq!(pages.len(), 3, "one trace per page load");
    // The first load also fetches the domain's code blob; the second
    // hits the code cache; the cover load issues only dummy data GETs.
    for (trace, gets) in pages.iter().zip([per_page + 1, per_page, per_page]) {
        let root = &trace.root;
        let requests: Vec<_> = root.children_named("zltp.client.request").collect();
        assert_eq!(requests.len(), gets, "GETs under this page");
        assert_eq!(root.children.len(), gets, "the page parents only GETs");
        assert_eq!(
            count_named(root, "zltp.client.request"),
            gets,
            "no GET nests under another"
        );
        for req in requests {
            assert_linked(root, req);
            let hops: Vec<_> = req.children_named("zltp.client.transport").collect();
            assert_eq!(hops.len(), 2, "each GET makes two wire hops");
            for hop in hops {
                assert_linked(req, hop);
                assert_linked(hop, hop.child_named("zltp.server.request").unwrap());
            }
        }
    }
}

/// One GET per single-server mode, each its own trace.
fn single_server_modes() {
    collector().reset();
    let lwe_server = server(config(&[Mode::SingleServerLwe], 0));
    let enclave_server = server(config(&[Mode::Enclave], 0));
    let mut lwe = LweClientSession::connect(lwe_server.connect()).unwrap();
    let mut enclave = EnclaveClient::connect(enclave_server.connect()).unwrap();
    let want = vec![0x31; BLOB_LEN];
    assert_eq!(lwe.private_get("shape/page-1").unwrap().unwrap(), want);
    assert_eq!(enclave.private_get("shape/page-1").unwrap().unwrap(), want);

    let traces = traces_rooted_at("zltp.client.request");
    assert_eq!(traces.len(), 2, "one trace per private GET");
    for (trace, engine_span) in traces
        .iter()
        .zip(["engine.lwe.answer", "engine.oram.answer"])
    {
        let root = &trace.root;
        assert_eq!(root.children.len(), 1, "a single-server GET makes one hop");
        let hop = root.child_named("zltp.client.transport").unwrap();
        assert_linked(root, hop);
        let req = hop.child_named("zltp.server.request").unwrap();
        assert_linked(hop, req);
        assert_linked(req, req.child_named("zltp.server.prepare").unwrap());
        let answer = req.child_named(engine_span).expect(engine_span);
        assert_linked(req, answer);
        assert_eq!(req.children.len(), 2, "prepare and the engine answer");
        assert_eq!(trace.span_count, 5, "{engine_span}: whole tree");
    }
}

#[test]
fn trace_trees_keep_their_shape_on_every_path() {
    monolithic_batched_path();
    browser_pages();
    single_server_modes();
}
