//! Layer probes: after the timed window, call the server-side layers
//! directly on the workload's own data, one thread, nothing else running.

use crate::measure::{median, ms, Metric};
use lightweb_core::ServerConfig;
use lightweb_dpf::BitMatrix;
use lightweb_engine::{QueryEngine, ScanPool, TwoServerDpfEngine};
use lightweb_pir::lwe::{LweClient, LweParams, LweServer};
use lightweb_pir::{KeywordMap, PirServer, TwoServerClient};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Repetitions of each probe; each reports the median.
const REPS: usize = 7;

/// The scan kernel a server with this config resolves to.
pub fn scan_kernel(cfg: &ServerConfig) -> String {
    PirServer::new(cfg.dpf_params(), cfg.blob_len)
        .scan_backend()
        .name()
        .to_string()
}

/// Single-thread memory bandwidth over `bytes` of memory: the median of
/// `REPS` XOR reductions, GB/s. The scan's ceiling on this host.
pub fn membw_gb_per_s(bytes: usize) -> f64 {
    let words: Vec<u64> = (0..bytes / 8).map(|i| i as u64 | 1).collect();
    let mut rates = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        let x = words.iter().fold(0u64, |a, &w| a ^ w);
        std::hint::black_box(x);
        rates.push(bytes as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    median(&rates)
}

/// Probe the engine, DPF and scan layers of a two-server deployment
/// shaped by `cfg` over `records` (key, blob): one batch of `batch`
/// queries through `TwoServerDpfEngine::answer_batch`, and the same
/// batch as a bare `PirServer::scan_matrix` against the memory-bandwidth
/// probe. Every probe answer is checked.
pub fn dpf(
    cfg: &ServerConfig,
    batch: usize,
    records: impl Fn() -> Vec<(String, Vec<u8>)>,
) -> Result<Vec<Metric>, String> {
    let params = cfg.dpf_params();
    let map = KeywordMap::new(&cfg.keyword_hash_key, cfg.domain_bits);
    let mut rng = StdRng::seed_from_u64(u64::from_le_bytes(
        cfg.keyword_hash_key[..8].try_into().expect("8 bytes"),
    ));

    let mut entries = records();
    entries.sort_by_key(|(k, _)| map.slot(k.as_bytes()));
    let picks: Vec<usize> = (0..batch)
        .map(|_| rng.gen_range(0..entries.len()))
        .collect();
    let keys: Vec<_> = picks
        .iter()
        .map(|&i| lightweb_dpf::gen(&params, map.slot(entries[i].0.as_bytes())))
        .collect();

    // Engine layer: the batched answer the batcher calls.
    let engine = TwoServerDpfEngine::new(params, cfg.blob_len, 0, 0, map, ScanPool::new(1))
        .map_err(|e| e.to_string())?;
    for (k, blob) in &entries {
        engine
            .publish(k.as_bytes(), blob)
            .map_err(|e| e.to_string())?;
    }
    let queries = keys
        .iter()
        .map(|(k0, _)| engine.prepare(&k0.to_bytes()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let ctxs = vec![None; batch];
    let mut answer_ms = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        let answers = engine
            .answer_batch(&queries, &ctxs)
            .map_err(|e| e.to_string())?;
        answer_ms.push(ms(t.elapsed()));
        if answers.len() != batch {
            return Err("engine probe answered the wrong number of queries".into());
        }
    }
    drop(engine);

    // Scan layer: the same batch as one pass over the aligned records.
    let slotted: Vec<(u64, Vec<u8>)> = entries
        .iter()
        .map(|(k, b)| (map.slot(k.as_bytes()), b.clone()))
        .collect();
    let expected: Vec<Vec<u8>> = picks.iter().map(|&i| entries[i].1.clone()).collect();
    drop(entries);
    let server =
        PirServer::from_entries(params, cfg.blob_len, slotted).map_err(|e| e.to_string())?;
    let mut shares = Vec::new();
    for party in 0..2 {
        let mut matrix = BitMatrix::new(batch, params.output_len());
        for (row, pair) in keys.iter().enumerate() {
            let key = if party == 0 { &pair.0 } else { &pair.1 };
            key.eval_full_into(matrix.row_mut(row));
        }
        shares.push(matrix);
    }
    let mut scan_ms = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        let answers = server.scan_matrix(&shares[0]).map_err(|e| e.to_string())?;
        scan_ms.push(ms(t.elapsed()));
        std::hint::black_box(answers);
    }
    let a0 = server.scan_matrix(&shares[0]).map_err(|e| e.to_string())?;
    let a1 = server.scan_matrix(&shares[1]).map_err(|e| e.to_string())?;
    for ((x, y), want) in a0.iter().zip(&a1).zip(&expected) {
        if &TwoServerClient::combine(x, y).map_err(|e| e.to_string())? != want {
            return Err("scan probe reconstructed a wrong record".into());
        }
    }
    let bytes = server.padded_bytes();
    drop(server);
    let scan_gb_per_s = bytes as f64 / (median(&scan_ms) / 1e3) / 1e9;
    let membw = membw_gb_per_s(bytes);
    Ok(vec![
        Metric::new("engine.answer_batch_ms", "ms", median(&answer_ms)),
        Metric::new("pir.probe_scan_gb_per_s", "GB/s", scan_gb_per_s),
        Metric::new("pir.scan_bw_fraction", "ratio", scan_gb_per_s / membw),
        Metric::new("bench.membw_gb_per_s", "GB/s", membw),
    ])
}

/// Probe the single-server LWE layers on `records`: build the server,
/// then time the client's query, the server's answer and the client's
/// decode for `REPS` random records, checking every decoded record.
pub fn lwe(
    n: usize,
    record_len: usize,
    records: Vec<Vec<u8>>,
    seed: u64,
) -> Result<Vec<Metric>, String> {
    let params = LweParams { n };
    let expected = records.clone();
    let server = LweServer::new(params, record_len, records).map_err(|e| e.to_string())?;
    let client = LweClient::new(params, server.public_seed(), server.cols(), record_len);
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut query_ms, mut answer_ms, mut decode_ms) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let index = rng.gen_range(0..expected.len());
        let t = Instant::now();
        let query = client.query(index);
        query_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        let answer = server.answer(&query.payload).map_err(|e| e.to_string())?;
        answer_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        let record = client
            .decode(&query, server.hint(), &answer)
            .map_err(|e| e.to_string())?;
        decode_ms.push(ms(t.elapsed()));
        if record != expected[index] {
            return Err("LWE probe decoded a wrong record".into());
        }
    }
    Ok(vec![
        Metric::new("client.lwe_query_ms", "ms", median(&query_ms)),
        Metric::new("pir.lwe_answer_ms", "ms", median(&answer_ms)),
        Metric::new("client.lwe_decode_ms", "ms", median(&decode_ms)),
        Metric::new("bench.membw_gb_per_s", "GB/s", membw_gb_per_s(64 << 20)),
    ])
}
