//! `lwe_get`: the only workload on `pir::lwe` and `engine::lwe`. One
//! reactor-served single-server LWE server at the production dimension
//! n = 1024 over 4 MiB, and two client threads, each with its own
//! `LweClientSession`, in a closed loop.

use super::{hash_key, keys_with_distinct_slots, Bench, Served, FETCHES_PER_VIEW};
use crate::measure::{ms, Clock, Metric, Segment};
use crate::oracle;
use crate::probe;
use lightweb_core::{
    BatchConfig, IoModel, LweClientSession, Mode, ModeSet, ServerConfig, ZltpServer,
};
use lightweb_pir::KeywordMap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// 1024 records of 4 KiB: 4 MiB, and a 16 MiB hint.
const RECORDS: usize = 1024;
const BLOB_LEN: usize = 4096;
const LWE_N: usize = 1024;
const CLIENTS: usize = 2;

fn config(seed: u64) -> ServerConfig {
    ServerConfig {
        universe_id: "lwe".into(),
        blob_len: BLOB_LEN,
        domain_bits: 16,
        term_bits: 7,
        modes: ModeSet::new([Mode::SingleServerLwe]),
        keyword_hash_key: hash_key(seed),
        batch: BatchConfig::default(),
        party: 0,
        lwe_n: LWE_N,
        shard_prefix_bits: 0,
        scan_threads: 1,
        io_model: IoModel::Reactor,
    }
}

pub struct LweGet {
    seed: u64,
    keys: Vec<String>,
    sessions: Vec<LweClientSession<TcpStream>>,
    served: Served,
    rngs: Vec<StdRng>,
}

impl LweGet {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let cfg = config(seed);
        // The server still rejects two keys that share a keyword slot.
        let map = KeywordMap::new(&cfg.keyword_hash_key, cfg.domain_bits);
        let (keys, _) = keys_with_distinct_slots(&map, "lwe/record/", RECORDS);
        let server = ZltpServer::new(cfg).map_err(|e| e.to_string())?;
        let mut blob = vec![0u8; BLOB_LEN];
        let mut publish = |i: usize| {
            oracle::fill(seed, i as u64, 0, &mut blob);
            server.publish(&keys[i], &blob).map_err(|e| e.to_string())
        };
        for i in 0..RECORDS {
            publish(i)?;
        }
        let served = Served::start(vec![server])?;
        // The first session's hello builds the hint; each session then
        // downloads it.
        let sessions = (0..CLIENTS)
            .map(|_| LweClientSession::connect(served.connect(0)?).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            seed,
            keys,
            sessions,
            served,
            rngs: (0..CLIENTS)
                .map(|c| StdRng::seed_from_u64(seed.wrapping_add(c as u64)))
                .collect(),
        })
    }
}

/// One client's closed loop until `until`.
fn client_loop(
    seed: u64,
    keys: &[String],
    session: &mut LweClientSession<TcpStream>,
    rng: &mut StdRng,
    until: Instant,
) -> Segment {
    let mut seg = Segment::default();
    let stats0 = session.stats();
    let mut group_start = None;
    let mut in_group = 0;
    while Instant::now() < until {
        let index = rng.gen_range(0..RECORDS);
        let t = Instant::now();
        let got = session.private_get(&keys[index]);
        let done = Instant::now();
        seg.attempted += 1;
        let ok =
            matches!(&got, Ok(Some(b)) if *b == oracle::content(seed, index as u64, 0, BLOB_LEN));
        if !ok {
            seg.failed += 1;
            if got.is_err() {
                break;
            }
            continue;
        }
        seg.ops += 1;
        seg.gets_ok += 1;
        seg.get_ms.push(ms(done - t));
        let first = *group_start.get_or_insert(t);
        in_group += 1;
        if in_group == FETCHES_PER_VIEW {
            seg.view_ms.push(ms(done - first));
            group_start = None;
            in_group = 0;
        }
    }
    let stats = session.stats();
    seg.wire_bytes =
        stats.bytes_sent + stats.bytes_received - stats0.bytes_sent - stats0.bytes_received;
    seg.gets_attempted = seg.attempted;
    seg.gets_failed = seg.failed;
    seg
}

impl Bench for LweGet {
    fn warm_up(&mut self) -> Result<(), String> {
        self.run(Duration::from_millis(500), false).map(|_| ())
    }

    fn run(&mut self, window: Duration, _traced: bool) -> Result<Segment, String> {
        let until = Instant::now() + window;
        let (seed, keys) = (self.seed, &self.keys);
        let clock = Clock::start();
        let parts: Vec<Segment> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .sessions
                .iter_mut()
                .zip(&mut self.rngs)
                .map(|(session, rng)| {
                    scope.spawn(move || client_loop(seed, keys, session, rng, until))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "client thread panicked".to_string()))
                .collect::<Result<_, _>>()
        })?;
        let (wall, cpu) = clock.stop();
        let mut seg = Segment::default();
        for p in parts {
            seg.merge(p);
        }
        seg.wall = wall;
        seg.cpu = cpu;
        Ok(seg)
    }

    fn probe(self: Box<Self>) -> Result<Vec<Metric>, String> {
        let seed = self.seed;
        self.shutdown()?;
        let records = (0..RECORDS)
            .map(|i| oracle::content(seed, i as u64, 0, BLOB_LEN))
            .collect();
        probe::lwe(LWE_N, BLOB_LEN, records, seed)
    }

    fn shutdown(self: Box<Self>) -> Result<(), String> {
        let LweGet {
            sessions, served, ..
        } = *self;
        for s in sessions {
            s.close().map_err(|e| e.to_string())?;
        }
        served.stop()
    }

    fn update_in_place(&mut self, i: usize) -> Result<(), String> {
        let i = i % RECORDS;
        let blob = oracle::content(self.seed, i as u64, 0, BLOB_LEN);
        self.served.servers[0]
            .publish(&self.keys[i], &blob)
            .map_err(|e| e.to_string())
    }

    fn shape(&self) -> Vec<(&'static str, String)> {
        let cfg = self.served.servers[0].config();
        vec![
            ("workload", "lwe_get".into()),
            ("scan_kernel", "lwe (scalar multiply-accumulate)".into()),
            ("scan_threads", cfg.scan_threads.to_string()),
            ("io_model", cfg.io_model.name().into()),
            (
                "reactor_workers",
                lightweb_reactor::ReactorConfig::default()
                    .workers
                    .to_string(),
            ),
            ("records", format!("{RECORDS}x{BLOB_LEN}B")),
            ("lwe_n", LWE_N.to_string()),
            ("clients", CLIENTS.to_string()),
        ]
    }
}
