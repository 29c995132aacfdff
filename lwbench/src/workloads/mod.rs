//! The four workloads and what they share: reactor-served server pairs,
//! the pipelined closed loop, and provenance.

mod lwe_get;
mod page_views;
mod publish_mix;
mod scan_bound;

use crate::measure::{ms, Clock, Metric, Segment};
use crate::pipeline::Pipeline;
use lightweb_core::ZltpServer;
use lightweb_pir::KeywordMap;
use lightweb_reactor::ReactorConfig;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The universe-wide fetch budget a page view spends (§3.2); the
/// GET-only workloads report `view_*` over groups of this many GETs.
pub const FETCHES_PER_VIEW: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ScanBound,
    PageViews,
    PublishMix,
    LweGet,
}

impl Workload {
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "scan_bound" => Workload::ScanBound,
            "page_views" => Workload::PageViews,
            "publish_mix" => Workload::PublishMix,
            "lwe_get" => Workload::LweGet,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanBound => "scan_bound",
            Workload::PageViews => "page_views",
            Workload::PublishMix => "publish_mix",
            Workload::LweGet => "lwe_get",
        }
    }

    /// Build the deployment, load its data and connect its clients.
    pub fn setup(self, seed: u64) -> Result<Deployment, String> {
        Ok(match self {
            Workload::ScanBound => Box::new(scan_bound::ScanBound::setup(seed)?),
            Workload::PageViews => Box::new(page_views::PageViews::setup(seed)?),
            Workload::PublishMix => Box::new(publish_mix::PublishMix::setup(seed)?),
            Workload::LweGet => Box::new(lwe_get::LweGet::setup(seed)?),
        })
    }
}

/// A running deployment with its clients connected.
pub trait Bench {
    /// Run untimed load until caches are warm and lazy set-up is done.
    fn warm_up(&mut self) -> Result<(), String>;
    /// Run the workload's load for `window`, then drain.
    fn run(&mut self, window: Duration, traced: bool) -> Result<Segment, String>;
    /// Tear the deployment down and call the server-side layers directly
    /// on the workload's own data.
    fn probe(self: Box<Self>) -> Result<Vec<Metric>, String>;
    fn shutdown(self: Box<Self>) -> Result<(), String>;
    /// The deployment shape, for provenance.
    fn shape(&self) -> Vec<(&'static str, String)>;
    /// Republish record `i` (modulo the record count) with its own
    /// content through the workload's publish path: an in-place update
    /// that leaves every answer unchanged. A workload that does not
    /// publish under load times these on its idle deployment for its
    /// `publish_*` metrics.
    fn update_in_place(&mut self, _i: usize) -> Result<(), String> {
        Err("this workload publishes under load".into())
    }
}

pub type Deployment = Box<dyn Bench>;

impl dyn Bench {
    /// One JSON object recording where a result came from.
    pub fn provenance(&self, seed: u64) -> String {
        let mut fields = vec![
            ("seed", seed.to_string()),
            ("commit", git_commit()),
            ("nproc", nproc().to_string()),
        ];
        fields.extend(self.shape());
        let body: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{v}\""))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a repository.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// ZLTP servers served by the reactor on loopback.
pub struct Served {
    pub servers: Vec<ZltpServer>,
    addrs: Vec<SocketAddr>,
    handles: Vec<JoinHandle<()>>,
}

impl Served {
    /// Serve each server with the default reactor tuning. The io model
    /// is the one each server's config names.
    pub fn start(servers: Vec<ZltpServer>) -> Result<Self, String> {
        let mut addrs = Vec::new();
        let mut handles = Vec::new();
        for s in &servers {
            let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
            addrs.push(listener.local_addr().map_err(|e| e.to_string())?);
            handles.push(
                lightweb_reactor::serve_with(s, listener, ReactorConfig::default())
                    .map_err(|e| e.to_string())?,
            );
        }
        Ok(Self {
            servers,
            addrs,
            handles,
        })
    }

    pub fn connect(&self, i: usize) -> Result<TcpStream, String> {
        connect(self.addrs[i])
    }

    /// Shut every server down and wait for its event loop to end.
    pub fn stop(self) -> Result<(), String> {
        for s in &self.servers {
            s.shutdown();
        }
        for h in self.handles {
            h.join().map_err(|_| "a reactor thread panicked")?;
        }
        Ok(())
    }
}

/// A loopback client connection; a reply slower than 30 s fails the run.
fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    Ok(s)
}

/// A 16-byte keyword-hash key derived from the seed, so the key-to-slot
/// layout is an input like the records themselves.
pub fn hash_key(seed: u64) -> [u8; 16] {
    let mut s = seed ^ 0x6b65_7968_6173_6821;
    let mut k = [0u8; 16];
    k[..8].copy_from_slice(&crate::oracle::splitmix(&mut s).to_le_bytes());
    k[8..].copy_from_slice(&crate::oracle::splitmix(&mut s).to_le_bytes());
    k
}

/// `n` keys with distinct slots, in record order, plus the record
/// indices in ascending slot order (the cheap order to load them in).
pub fn keys_with_distinct_slots(
    map: &KeywordMap,
    prefix: &str,
    n: usize,
) -> (Vec<String>, Vec<usize>) {
    let mut used = std::collections::HashMap::new();
    let mut keys = Vec::with_capacity(n);
    let mut i = 0u64;
    while keys.len() < n {
        let key = format!("{prefix}{i}");
        let slot = map.slot(key.as_bytes());
        if let std::collections::hash_map::Entry::Vacant(e) = used.entry(slot) {
            e.insert(keys.len());
            keys.push(key);
        }
        i += 1;
    }
    let mut by_slot: Vec<(u64, usize)> = used.into_iter().collect();
    by_slot.sort_unstable();
    (keys, by_slot.into_iter().map(|(_, i)| i).collect())
}

/// What a closed loop needs to know about the records it reads.
pub trait Oracle {
    /// Called when a GET for record `index` is issued; its result is
    /// handed back to `check`.
    fn at_issue(&self, index: usize) -> u64;
    /// Whether `blob` is a right answer for record `index`.
    fn check(&self, index: usize, blob: &[u8], issued: u64) -> bool;
}

struct Issued {
    index: usize,
    at: Instant,
    group: u64,
    oracle: u64,
}

/// Progress of one group of `FETCHES_PER_VIEW` consecutive GETs.
struct Group {
    first: Instant,
    done: usize,
}

/// Closed loop over a pipelined two-server client: keep `depth` GETs in
/// flight until `stop` says so, verify every answer, then drain.
pub fn closed_loop(
    pipe: &mut Pipeline<TcpStream>,
    depth: usize,
    keys: &[String],
    mut pick: impl FnMut() -> usize,
    oracle: &dyn Oracle,
    stop: &dyn Fn() -> bool,
    traced: bool,
) -> Result<Segment, String> {
    let mut seg = Segment::default();
    let bytes0 = pipe.wire_bytes();
    pipe.trace = traced;
    pipe.spans = Default::default();
    let mut meta: HashMap<u32, Issued> = HashMap::new();
    let mut groups: HashMap<u64, Group> = HashMap::new();
    let mut seq = 0u64;
    let mut stopping = false;
    let clock = Clock::start();
    loop {
        while !stopping && pipe.in_flight() < depth {
            let index = pick();
            let oracle_ctx = oracle.at_issue(index);
            let now = Instant::now();
            let id = pipe.issue(&keys[index])?;
            let group = seq / FETCHES_PER_VIEW as u64;
            groups.entry(group).or_insert(Group {
                first: now,
                done: 0,
            });
            meta.insert(
                id,
                Issued {
                    index,
                    at: now,
                    group,
                    oracle: oracle_ctx,
                },
            );
            seq += 1;
            seg.attempted += 1;
        }
        if pipe.in_flight() == 0 {
            break;
        }
        let (id, blob) = pipe.complete()?;
        let done = Instant::now();
        let issued = meta
            .remove(&id)
            .ok_or_else(|| format!("answer for unknown request {id}"))?;
        seg.get_ms.push(ms(done - issued.at));
        seg.ops += 1;
        if oracle.check(issued.index, &blob, issued.oracle) {
            seg.gets_ok += 1;
        } else {
            seg.failed += 1;
            seg.gets_failed += 1;
        }
        let g = groups
            .get_mut(&issued.group)
            .expect("group of an issued GET");
        g.done += 1;
        if g.done == FETCHES_PER_VIEW {
            seg.view_ms.push(ms(done - g.first));
            groups.remove(&issued.group);
        }
        stopping = stopping || stop();
    }
    let (wall, cpu) = clock.stop();
    seg.wall = wall;
    seg.cpu = cpu;
    seg.gets_attempted = seg.attempted;
    seg.wire_bytes = pipe.wire_bytes() - bytes0;
    seg.spans = pipe.spans;
    Ok(seg)
}
