//! Engine conformance suite: one fixture universe, three backends, the same
//! answers.
//!
//! Every backend is driven through the `QueryEngine` trait exactly as the
//! ZLTP server drives it, and the client-side decode for each mode is
//! reproduced here so the comparison happens on *plaintext blobs*, not wire
//! payloads. The whole suite runs at pool sizes 1 and 4 (the sequential
//! and parallel scan paths must be indistinguishable to clients).

use lightweb_crypto::aead::{ChaCha20Poly1305, AEAD_NONCE_LEN};
use lightweb_crypto::SipHash24;
use lightweb_dpf::DpfParams;
use lightweb_engine::{
    EnclaveOramEngine, PreparedQuery, QueryEngine, ScanPool, SingleServerLweEngine,
    TwoServerDpfEngine,
};
use lightweb_pir::lwe::{LweClient, LweParams};
use lightweb_pir::{KeywordMap, TwoServerClient};

const BLOB_LEN: usize = 32;
const DOMAIN_BITS: u32 = 12;
const TERM_BITS: u32 = 7;
const LWE_N: usize = 64;
const HASH_KEY: [u8; 16] = [0x4c; 16];
const ENCLAVE_CAPACITY: u64 = 1024;

/// The fixture universe: three published pages, plus one key that is
/// published and then unpublished (tombstone), plus one never-published key.
const PRESENT: &[(&str, u8)] = &[
    ("nytimes.com/africa", 7),
    ("cnn.com/world", 9),
    ("weather.com/94110", 3),
];
const TOMBSTONE: &str = "old.example/retracted";
const ABSENT: &str = "never.example/published";

fn params() -> DpfParams {
    DpfParams::new(DOMAIN_BITS, TERM_BITS).unwrap()
}

fn blob(fill: u8) -> Vec<u8> {
    vec![fill; BLOB_LEN]
}

/// Publish the fixture into any engine, including the tombstone cycle.
fn seed_fixture(engine: &dyn QueryEngine) {
    for (key, fill) in PRESENT {
        engine.publish(key.as_bytes(), &blob(*fill)).unwrap();
    }
    engine.publish(TOMBSTONE.as_bytes(), &blob(0xEE)).unwrap();
    engine.unpublish(TOMBSTONE.as_bytes()).unwrap();
}

/// The non-colluding pair, sharing one universe.
struct TwoServerPair {
    e0: TwoServerDpfEngine,
    e1: TwoServerDpfEngine,
}

impl TwoServerPair {
    fn new(prefix_bits: u32, threads: usize) -> Self {
        let mk = |party| {
            TwoServerDpfEngine::new(
                params(),
                BLOB_LEN,
                party,
                prefix_bits,
                KeywordMap::new(&HASH_KEY, DOMAIN_BITS),
                ScanPool::new(threads),
            )
            .unwrap()
        };
        let pair = Self {
            e0: mk(0),
            e1: mk(1),
        };
        seed_fixture(&pair.e0);
        seed_fixture(&pair.e1);
        pair
    }

    /// Full client decode: DPF key pair, one answer per party, XOR combine.
    /// The all-zero blob means "not present" (indistinguishable on the wire
    /// by design; the blob encoding above this layer disambiguates).
    fn get(&self, key: &str) -> Option<Vec<u8>> {
        let map = KeywordMap::new(&HASH_KEY, DOMAIN_BITS);
        let client = TwoServerClient::new(params(), BLOB_LEN);
        let query = client.query_slot(map.slot(key.as_bytes()));
        let a0 = {
            let q = self.e0.prepare(&query.key0.to_bytes()).unwrap();
            self.e0.answer(&q).unwrap()
        };
        let a1 = {
            let q = self.e1.prepare(&query.key1.to_bytes()).unwrap();
            self.e1.answer(&q).unwrap()
        };
        let combined = TwoServerClient::combine(&a0, &a1).unwrap();
        assert_eq!(combined.len(), BLOB_LEN);
        if combined.iter().all(|&b| b == 0) {
            None
        } else {
            Some(combined)
        }
    }
}

/// Full LWE client decode: manifest lookup, Regev query, hint decode.
fn lwe_get(engine: &SingleServerLweEngine, key: &str) -> Option<Vec<u8>> {
    let extra = engine.session_extra().unwrap();
    assert_eq!(extra.len(), 44, "LWE hello extra must be 44 bytes");
    let seed: [u8; 32] = extra[..32].try_into().unwrap();
    let n = u32::from_be_bytes(extra[32..36].try_into().unwrap()) as usize;
    let cols = u64::from_be_bytes(extra[36..44].try_into().unwrap()) as usize;
    let setup = engine.setup().unwrap().expect("LWE engine has setup");

    let h = SipHash24::new(&HASH_KEY).hash(key.as_bytes());
    let index = setup.key_hashes.binary_search(&h).ok()?;
    let client = LweClient::new(LweParams { n }, seed, cols, BLOB_LEN);
    let query = client.query(index);
    let mut payload = Vec::with_capacity(query.payload.len() * 4);
    for v in &query.payload {
        payload.extend_from_slice(&v.to_be_bytes());
    }
    let prepared = engine.prepare(&payload).unwrap();
    let raw = engine.answer(&prepared).unwrap();
    let answer: Vec<u32> = raw
        .chunks_exact(4)
        .map(|c| u32::from_be_bytes(c.try_into().unwrap()))
        .collect();
    Some(client.decode(&query, &setup.hint, &answer).unwrap())
}

/// Full enclave client decode: seal the keyword, open the response,
/// interpret the presence byte.
fn enclave_get(engine: &EnclaveOramEngine, key: &str) -> Option<Vec<u8>> {
    let session_key: [u8; 32] = engine.session_extra().unwrap().try_into().unwrap();
    let aead = ChaCha20Poly1305::new(&session_key);
    let mut nonce = [0u8; AEAD_NONCE_LEN];
    lightweb_crypto::fill_random(&mut nonce);
    let sealed = aead.seal(&nonce, b"zltp-enclave-query", key.as_bytes());
    let mut payload = Vec::with_capacity(AEAD_NONCE_LEN + sealed.len());
    payload.extend_from_slice(&nonce);
    payload.extend_from_slice(&sealed);

    let prepared = engine.prepare(&payload).unwrap();
    let raw = engine.answer(&prepared).unwrap();
    let rn: [u8; AEAD_NONCE_LEN] = raw[..AEAD_NONCE_LEN].try_into().unwrap();
    let plain = aead
        .open(&rn, b"zltp-enclave-response", &raw[AEAD_NONCE_LEN..])
        .unwrap();
    assert_eq!(plain.len(), 1 + BLOB_LEN, "fixed-size enclave response");
    (plain[0] == 1).then(|| plain[1..].to_vec())
}

fn lwe_engine() -> SingleServerLweEngine {
    let engine = SingleServerLweEngine::new(BLOB_LEN, LWE_N, HASH_KEY);
    seed_fixture(&engine);
    engine
}

fn enclave_engine() -> EnclaveOramEngine {
    let engine = EnclaveOramEngine::new(ENCLAVE_CAPACITY, BLOB_LEN).unwrap();
    seed_fixture(&engine);
    engine
}

/// The conformance check proper: every backend, probed through its own
/// client decode, produces the same plaintext for present, absent, and
/// tombstoned keys — at pool sizes 1 and 4.
#[test]
fn all_backends_agree_on_fixture() {
    for threads in [1usize, 4] {
        let pair = TwoServerPair::new(0, threads);
        let lwe = lwe_engine();
        let enclave = enclave_engine();

        for (key, fill) in PRESENT {
            let expected = Some(blob(*fill));
            assert_eq!(pair.get(key), expected, "two-server, {key}, {threads}t");
            assert_eq!(lwe_get(&lwe, key), expected, "lwe, {key}, {threads}t");
            assert_eq!(enclave_get(&enclave, key), expected, "enclave, {key}");
        }
        for key in [ABSENT, TOMBSTONE] {
            assert_eq!(pair.get(key), None, "two-server, {key}, {threads}t");
            assert_eq!(lwe_get(&lwe, key), None, "lwe, {key}, {threads}t");
            assert_eq!(enclave_get(&enclave, key), None, "enclave, {key}");
        }
    }
}

/// §5.2 sharded two-server deployments must be client-indistinguishable
/// from the monolithic scan, again at pool sizes 1 and 4.
#[test]
fn sharded_matches_monolithic() {
    for threads in [1usize, 4] {
        let monolithic = TwoServerPair::new(0, threads);
        let sharded = TwoServerPair::new(2, threads);
        for (key, _) in PRESENT {
            assert_eq!(sharded.get(key), monolithic.get(key), "{key}, {threads}t");
        }
        assert_eq!(sharded.get(ABSENT), None, "{threads}t");
    }
}

/// `rebuild` (the bulk restart/recovery path) must land every engine in the
/// same state as incremental publishes.
#[test]
fn rebuild_matches_incremental_publish() {
    let entries: Vec<(Vec<u8>, Vec<u8>)> = PRESENT
        .iter()
        .map(|(k, f)| (k.as_bytes().to_vec(), blob(*f)))
        .collect();

    let pair = TwoServerPair::new(0, 2);
    pair.e0.rebuild(&entries).unwrap();
    pair.e1.rebuild(&entries).unwrap();
    let lwe = lwe_engine();
    lwe.rebuild(&entries).unwrap();
    let enclave = enclave_engine();
    enclave.rebuild(&entries).unwrap();

    for (key, fill) in PRESENT {
        let expected = Some(blob(*fill));
        assert_eq!(pair.get(key), expected, "two-server rebuilt, {key}");
        assert_eq!(lwe_get(&lwe, key), expected, "lwe rebuilt, {key}");
        assert_eq!(
            enclave_get(&enclave, key),
            expected,
            "enclave rebuilt, {key}"
        );
    }
    // The tombstone was not in the rebuild entries: gone everywhere.
    assert_eq!(pair.get(TOMBSTONE), None);
    assert_eq!(lwe_get(&lwe, TOMBSTONE), None);
    assert_eq!(enclave_get(&enclave, TOMBSTONE), None);
}

/// `answer` must be exactly `answer_batch` with a batch of one, and a
/// multi-query batch must equal its per-query answers (the §5.1 batched
/// scan may not change any answer).
#[test]
fn batch_answers_equal_individual_answers() {
    for threads in [1usize, 4] {
        let pair = TwoServerPair::new(0, threads);
        let map = KeywordMap::new(&HASH_KEY, DOMAIN_BITS);
        let client = TwoServerClient::new(params(), BLOB_LEN);
        let queries: Vec<PreparedQuery> = PRESENT
            .iter()
            .map(|(key, _)| {
                let q = client.query_slot(map.slot(key.as_bytes()));
                pair.e0.prepare(&q.key0.to_bytes()).unwrap()
            })
            .collect();
        let batched = pair.e0.answer_batch(&queries, &[]).unwrap();
        assert_eq!(batched.len(), queries.len());
        for (q, batch_answer) in queries.iter().zip(&batched) {
            assert_eq!(&pair.e0.answer(q).unwrap(), batch_answer, "{threads}t");
        }
    }
}

/// Cross-mode queries must be rejected as bad queries, not panic.
#[test]
fn engines_reject_foreign_queries() {
    let pair = TwoServerPair::new(0, 1);
    let lwe = lwe_engine();
    let enclave = enclave_engine();

    let keyword = PreparedQuery::Keyword(b"some.example/key".to_vec());
    assert!(pair.e0.answer(&keyword).is_err());
    assert!(lwe.answer(&keyword).is_err());

    let lwe_query = PreparedQuery::Lwe(vec![0u32; 8]);
    assert!(enclave.answer(&lwe_query).is_err());
}

/// Telemetry identity: names and request metrics are per-engine and stable
/// (the server keys dashboards off these strings).
#[test]
fn engine_naming_is_stable() {
    let pair = TwoServerPair::new(0, 1);
    let lwe = lwe_engine();
    let enclave = enclave_engine();
    assert_eq!(pair.e0.name(), "two_server_pir");
    assert_eq!(
        pair.e0.request_metric(),
        "zltp.server.request.two_server_pir.ns"
    );
    assert_eq!(lwe.name(), "single_server_lwe");
    assert_eq!(
        lwe.request_metric(),
        "zltp.server.request.single_server_lwe.ns"
    );
    assert_eq!(enclave.name(), "enclave_oram");
    assert_eq!(enclave.request_metric(), "zltp.server.request.enclave.ns");
}
