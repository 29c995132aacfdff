//! `scan_bound`: the §5.1 operating point. Two reactor-served parties,
//! each holding 64 MiB of 4 KiB records at a quarter slot load, answer a
//! closed loop that keeps a full batch of GETs in flight.

use super::{closed_loop, hash_key, keys_with_distinct_slots, Bench, Oracle, Served};
use crate::measure::{Metric, Segment};
use crate::oracle;
use crate::pipeline::Pipeline;
use crate::probe;
use lightweb_core::{BatchConfig, IoModel, Mode, ModeSet, ServerConfig, ZltpServer};
use lightweb_pir::KeywordMap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const RECORDS: usize = 16 * 1024;
const BLOB_LEN: usize = 4096;
/// 2^16 slots for 2^14 records: the paper's ≤ 1/4 load.
const DOMAIN_BITS: u32 = 16;
const TERM_BITS: u32 = 7;
/// GETs in flight: one full batch of the default batcher.
const DEPTH: usize = 16;
/// One scan thread per party: the two parties share the host's two cores.
const SCAN_THREADS: usize = 1;

pub struct ScanBound {
    seed: u64,
    served: Served,
    pipe: Pipeline<TcpStream>,
    /// Key of record `i`, and its slot order for loading.
    keys: Vec<String>,
    rng: StdRng,
}

fn config(seed: u64, party: u8) -> ServerConfig {
    ServerConfig {
        universe_id: "scan-bound".into(),
        blob_len: BLOB_LEN,
        domain_bits: DOMAIN_BITS,
        term_bits: TERM_BITS,
        modes: ModeSet::new([Mode::TwoServerPir]),
        keyword_hash_key: hash_key(seed),
        batch: BatchConfig::default(),
        party,
        lwe_n: 1024,
        shard_prefix_bits: 0,
        scan_threads: SCAN_THREADS,
        io_model: IoModel::Reactor,
    }
}

impl ScanBound {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let cfg = config(seed, 0);
        let map = KeywordMap::new(&cfg.keyword_hash_key, DOMAIN_BITS);
        let (keys, load_order) = keys_with_distinct_slots(&map, "c4/page/", RECORDS);
        let servers = [config(seed, 0), config(seed, 1)]
            .into_iter()
            .map(|c| ZltpServer::new(c).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let mut blob = vec![0u8; BLOB_LEN];
        let publish = |i: usize, blob: &mut [u8]| {
            oracle::fill(seed, i as u64, 0, blob);
            servers
                .iter()
                .try_for_each(|s| s.publish(&keys[i], blob))
                .map_err(|e| e.to_string())
        };
        for i in load_order {
            publish(i, &mut blob)?;
        }
        let served = Served::start(servers)?;
        let pipe = Pipeline::connect(served.connect(0)?, served.connect(1)?)?;
        Ok(Self {
            seed,
            served,
            pipe,
            keys,
            rng: StdRng::seed_from_u64(seed),
        })
    }
}

/// Records never change: an answer is right iff it is the record.
struct Fixed {
    seed: u64,
    len: usize,
}

impl Oracle for Fixed {
    fn at_issue(&self, _index: usize) -> u64 {
        0
    }

    fn check(&self, index: usize, blob: &[u8], _: u64) -> bool {
        blob == oracle::content(self.seed, index as u64, 0, self.len)
    }
}

impl Bench for ScanBound {
    fn warm_up(&mut self) -> Result<(), String> {
        self.run(Duration::from_millis(500), false).map(|_| ())
    }

    fn run(&mut self, window: Duration, traced: bool) -> Result<Segment, String> {
        let until = Instant::now() + window;
        let rng = &mut self.rng;
        closed_loop(
            &mut self.pipe,
            DEPTH,
            &self.keys,
            || rng.gen_range(0..RECORDS),
            &Fixed {
                seed: self.seed,
                len: BLOB_LEN,
            },
            &|| Instant::now() >= until,
            traced,
        )
    }

    fn probe(self: Box<Self>) -> Result<Vec<Metric>, String> {
        let ScanBound {
            seed, served, keys, ..
        } = *self;
        served.stop()?;
        let cfg = config(seed, 0);
        let records = move || {
            keys.iter()
                .enumerate()
                .map(|(i, k)| (k.clone(), oracle::content(seed, i as u64, 0, BLOB_LEN)))
                .collect()
        };
        probe::dpf(&cfg, DEPTH, records)
    }

    fn shutdown(self: Box<Self>) -> Result<(), String> {
        let ScanBound { served, pipe, .. } = *self;
        pipe.close()?;
        served.stop()
    }

    fn update_in_place(&mut self, i: usize) -> Result<(), String> {
        let i = i % RECORDS;
        let blob = oracle::content(self.seed, i as u64, 0, BLOB_LEN);
        self.served
            .servers
            .iter()
            .try_for_each(|s| s.publish(&self.keys[i], &blob))
            .map_err(|e| e.to_string())
    }

    fn shape(&self) -> Vec<(&'static str, String)> {
        let cfg = self.served.servers[0].config();
        vec![
            ("workload", "scan_bound".into()),
            ("scan_kernel", probe::scan_kernel(cfg)),
            ("scan_threads", cfg.scan_threads.to_string()),
            ("io_model", cfg.io_model.name().into()),
            (
                "batch",
                format!("{}x{}ms", cfg.batch.max_batch, cfg.batch.window.as_millis()),
            ),
            ("records", format!("{RECORDS}x{BLOB_LEN}B")),
            ("domain_bits", DOMAIN_BITS.to_string()),
            ("in_flight", DEPTH.to_string()),
        ]
    }
}
