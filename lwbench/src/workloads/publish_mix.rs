//! `publish_mix`: writes between reads on a durable Medium-tier universe.
//! Pipelined GETs run over the reactor-served data pair, and on an
//! open-loop schedule the GETs in flight drain and one update goes out
//! through `Universe::publish_data`, taking the PIR write lock, fsyncing
//! the WAL, writing the enclave ORAM and dirtying the LWE engine.
//!
//! A publish never overlaps a read. One that lands between a GET's two
//! per-party scans tears that GET (the client combines an answer from
//! before the write with one from after it), and the system has no guard
//! against it; `pipeline`'s tests show the tear. Every answer is still
//! checked, and any wrong one fails the run.

use super::{closed_loop, keys_with_distinct_slots, Bench, Oracle, Served};
use crate::measure::{ms, Clock, Metric, Segment};
use crate::oracle::{self, Versions};
use crate::pipeline::Pipeline;
use crate::probe;
use lightweb_core::ServerConfig;
use lightweb_pir::KeywordMap;
use lightweb_store::{DurableStore, StoreConfig, StoreOp, StoreState};
use lightweb_universe::blob::{blob_capacity, decode_blob, encode_blob};
use lightweb_universe::{Tier, Universe, UniverseConfig};
use lightweb_workload::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// 4000 one-blob values of 4 KiB: about 16 MiB.
const VALUES: usize = 4000;
const DOMAIN_BITS: u32 = 15;
const DOMAIN: &str = "mix.example";
const PUBLISHER: &str = "mix-publisher";
/// GETs in flight: a full batch. With half a batch the batcher lingers
/// its 10 ms window on every pass and the GET and publish figures spread
/// two to five times wider from run to run.
const DEPTH: usize = 16;
const PUBLISHES_PER_S: f64 = 20.0;
const ZIPF_EXPONENT: f64 = 0.99;

/// Where the durable state of each set-up lives, inside the working
/// directory; removed at shutdown.
const STATE_ROOT: &str = ".lwbench-state";

fn universe_config() -> UniverseConfig {
    UniverseConfig {
        id: "mix".into(),
        tier: Tier::Medium,
        data_domain_bits: DOMAIN_BITS,
        code_domain_bits: 10,
        code_blob_len: 8192,
        max_chain_parts: 1,
        fetches_per_page: 5,
    }
}

fn value_len() -> usize {
    blob_capacity(Tier::Medium.data_blob_len())
}

pub struct PublishMix {
    seed: u64,
    pipe: Pipeline<TcpStream>,
    served: Served,
    universe: Universe,
    paths: Vec<String>,
    versions: Versions,
    reader_rng: StdRng,
    writer_rng: StdRng,
    zipf: Zipf,
    by_rank: Vec<usize>,
    // Last, so it is dropped after the universe has closed its store.
    state_dir: StateDir,
}

/// A fresh state directory, removed (with an emptied state root) when
/// dropped, on the error paths of set-up too.
struct StateDir(PathBuf);

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Another run may still use the root; only an empty one goes.
        if let Some(root) = self.0.parent() {
            let _ = std::fs::remove_dir(root);
        }
    }
}

impl PublishMix {
    pub fn setup(seed: u64) -> Result<Self, String> {
        static SETUPS: AtomicU64 = AtomicU64::new(0);
        let state_dir = StateDir(
            std::env::current_dir()
                .map_err(|e| e.to_string())?
                .join(STATE_ROOT)
                .join(format!(
                    "mix-{}-{}",
                    std::process::id(),
                    SETUPS.fetch_add(1, Ordering::Relaxed)
                )),
        );
        if state_dir.0.exists() {
            std::fs::remove_dir_all(&state_dir.0).map_err(|e| e.to_string())?;
        }
        // The universe builds its servers from `ServerConfig::small`, so
        // its io model, scan threads and keyword-hash key come from there.
        // One scan thread per party, as in `scan_bound`: the two parties
        // share the host's two cores.
        std::env::set_var("LIGHTWEB_IO_MODEL", "reactor");
        std::env::set_var(lightweb_engine::SCAN_THREADS_ENV, "1");
        let hash_key = ServerConfig::small("", 0).keyword_hash_key;
        let map = KeywordMap::new(&hash_key, DOMAIN_BITS);
        let (paths, _) = keys_with_distinct_slots(&map, &format!("{DOMAIN}/r/"), VALUES);

        // Journal the domain registration and write the initial book of
        // record as one snapshot; opening the universe on it re-publishes
        // every value through both server pairs.
        let mut state = StoreState::default();
        let register = StoreOp::RegisterDomain {
            domain: DOMAIN.into(),
            publisher: PUBLISHER.into(),
        };
        state.apply(&register, None);
        for (i, p) in paths.iter().enumerate() {
            state.data.insert(
                p.clone(),
                oracle::versioned_value(seed, i as u64, 0, value_len()),
            );
        }
        {
            let (store, _) = DurableStore::open(&state_dir.0, StoreConfig::default())
                .map_err(|e| e.to_string())?;
            store.append(&register).map_err(|e| e.to_string())?;
            store.snapshot(&state).map_err(|e| e.to_string())?;
        }
        drop(state);
        let universe =
            Universe::open_durable(universe_config(), &state_dir.0, StoreConfig::default())
                .map_err(|e| e.to_string())?;
        let [d0, d1] = universe.data_servers();
        let served = Served::start(vec![d0.clone(), d1.clone()])?;
        let pipe = Pipeline::connect(served.connect(0)?, served.connect(1)?)?;
        let mut reader_rng = StdRng::seed_from_u64(seed);
        let mut by_rank: Vec<usize> = (0..VALUES).collect();
        for i in (1..VALUES).rev() {
            by_rank.swap(i, reader_rng.gen_range(0..=i));
        }
        Ok(Self {
            seed,
            pipe,
            served,
            universe,
            state_dir,
            paths,
            versions: Versions::new(VALUES),
            reader_rng,
            writer_rng: StdRng::seed_from_u64(seed ^ 0x7772_6974_6572),
            zipf: Zipf::new(VALUES, ZIPF_EXPONENT),
            by_rank,
        })
    }
}

/// Records change under the reader: an answer is right iff it decodes to
/// a version of the record that was current at some point while the GET
/// was in flight.
struct Versioned<'a> {
    seed: u64,
    versions: &'a Versions,
}

impl Oracle for Versioned<'_> {
    fn at_issue(&self, index: usize) -> u64 {
        self.versions.at_issue(index)
    }

    fn check(&self, index: usize, blob: &[u8], lo: u64) -> bool {
        let hi = self.versions.highest(index);
        decode_blob(blob).is_ok_and(|(header, value)| {
            !header.has_next && oracle::check_versioned(self.seed, index as u64, lo, hi, value)
        })
    }
}

impl Bench for PublishMix {
    fn warm_up(&mut self) -> Result<(), String> {
        self.run(Duration::from_millis(500), false).map(|_| ())
    }

    fn run(&mut self, window: Duration, traced: bool) -> Result<Segment, String> {
        // One publish due at a uniformly random point of each 1/rate slot:
        // a fixed count per window, no phase lock with the batch cycle
        // (which a fixed period has), and no Poisson bursts.
        let publishes = (PUBLISHES_PER_S * window.as_secs_f64()).round().max(1.0) as usize;
        let due_s: Vec<f64> = (0..publishes)
            .map(|i| (i as f64 + self.writer_rng.gen_range(0.0..1.0)) / PUBLISHES_PER_S)
            .collect();
        let Self {
            seed,
            pipe,
            universe,
            paths,
            versions,
            reader_rng,
            writer_rng,
            zipf,
            by_rank,
            ..
        } = self;
        let oracle = Versioned {
            seed: *seed,
            versions,
        };
        let mut seg = Segment::default();
        let clock = Clock::start();
        let start = Instant::now();
        for offset in due_s {
            // Read until the publish is due, then let the GETs in flight
            // finish: a publish never overlaps a read (see torn reads in
            // the module docs).
            let due = start + Duration::from_secs_f64(offset);
            seg.merge(closed_loop(
                pipe,
                DEPTH,
                paths,
                || by_rank[zipf.sample(reader_rng)],
                &oracle,
                &|| Instant::now() >= due,
                traced,
            )?);
            let began = Instant::now();
            let index = writer_rng.gen_range(0..VALUES);
            let version = versions.begin(index);
            let value = oracle::versioned_value(*seed, index as u64, version, value_len());
            seg.attempted += 1;
            universe
                .publish_data(PUBLISHER, &paths[index], &value)
                .map_err(|e| e.to_string())?;
            versions.commit(index, version);
            let done = Instant::now();
            seg.ops += 1;
            seg.publish_ms.push(ms(done - began));
            seg.writer_lag_ms
                .push(ms(began.saturating_duration_since(due)));
        }
        let (wall, cpu) = clock.stop();
        seg.wall = wall;
        seg.cpu = cpu;
        Ok(seg)
    }

    fn probe(self: Box<Self>) -> Result<Vec<Metric>, String> {
        let cfg = self.universe.data_servers()[0].config().clone();
        let (seed, paths, blob_len) = (self.seed, self.paths.clone(), cfg.blob_len);
        self.shutdown()?;
        let records = move || {
            paths
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let value = oracle::versioned_value(seed, i as u64, 0, value_len());
                    let blob = encode_blob(&value, blob_len).expect("value fits a blob");
                    (p.clone(), blob)
                })
                .collect()
        };
        probe::dpf(&cfg, cfg.batch.max_batch, records)
    }

    fn shutdown(self: Box<Self>) -> Result<(), String> {
        let PublishMix {
            pipe,
            served,
            universe,
            state_dir,
            ..
        } = *self;
        pipe.close()?;
        served.stop()?;
        drop(universe);
        drop(state_dir);
        Ok(())
    }

    fn shape(&self) -> Vec<(&'static str, String)> {
        let cfg = self.universe.data_servers()[0].config();
        let store = self.universe.backend().map(|b| b.config().clone());
        vec![
            ("workload", "publish_mix".into()),
            ("scan_kernel", probe::scan_kernel(cfg)),
            ("scan_threads", format!("{} (0 = auto)", cfg.scan_threads)),
            ("io_model", cfg.io_model.name().into()),
            (
                "batch",
                format!("{}x{}ms", cfg.batch.max_batch, cfg.batch.window.as_millis()),
            ),
            ("records", format!("{VALUES}x{}B", cfg.blob_len)),
            ("domain_bits", cfg.domain_bits.to_string()),
            ("in_flight", DEPTH.to_string()),
            ("publishes_per_s", PUBLISHES_PER_S.to_string()),
            (
                "store",
                store.map_or("none".into(), |s| {
                    format!(
                        "fsync={} snapshot_every={}",
                        s.fsync_wal, s.snapshot_every_ops
                    )
                }),
            ),
        ]
    }
}
