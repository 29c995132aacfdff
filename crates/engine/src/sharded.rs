//! The §5.2 scale-out architecture: a front-end splitting DPF evaluation
//! across data-server shards.
//!
//! To serve a 305 GiB dataset the paper proposes 305 data servers, each
//! holding a 1 GiB slice, plus front-end servers that "process the client's
//! DPF key before sending the DPF key to the data servers": the front-end
//! evaluates the top of the DPF tree once and ships each sub-tree root to
//! the data server owning that slice of the slot domain. Every data server
//! then does exactly the work of the small-domain microbenchmark — which is
//! how the deployment's latency stays pinned to the single-shard number
//! (2.6 s with batching) regardless of total size.
//!
//! [`ShardedDeployment`] reproduces that architecture in one process: the
//! shards are real [`PirServer`]s over disjoint slot ranges, the front-end
//! logic is the real prefix-evaluation split from `lightweb-dpf`, and the
//! combination step XORs the shard answers exactly as the paper's front-end
//! "combines the results". Shards can be driven sequentially (for clean
//! per-shard cost measurements) or across a [`ScanPool`]'s workers (for
//! wall-clock latency; how the
//! [`TwoServerDpfEngine`](crate::TwoServerDpfEngine) serves them).

use crate::error::EngineError;
use crate::pool::ScanPool;
use lightweb_dpf::{DpfKey, DpfParams, ShardKey, TreeNode};
use lightweb_pir::{PirError, PirServer};
use lightweb_telemetry::trace::maybe_child;
use std::path::Path;

/// The raw `(slot, record)` inputs a deployment is built from, as
/// recovered from a state directory.
pub type DeploymentEntries = Vec<(u64, Vec<u8>)>;

/// File name of a persisted deployment inside a state directory.
const DEPLOYMENT_FILE: &str = "deployment.bin";
/// Magic tag of the persisted-deployment format ("LWDP").
const DEPLOYMENT_MAGIC: u32 = 0x4C57_4450;
/// Version of the persisted-deployment format.
const DEPLOYMENT_VERSION: u32 = 1;

/// Per-query accounting from a sharded answer.
#[derive(Clone, Debug, Default)]
pub struct ShardedQueryStats {
    /// Number of shards that participated.
    pub shards: usize,
    /// Records scanned per shard.
    pub records_scanned: Vec<usize>,
    /// Bytes scanned per shard.
    pub bytes_scanned: Vec<usize>,
}

/// A front-end plus `2^prefix_bits` data-server shards.
pub struct ShardedDeployment {
    params: DpfParams,
    prefix_bits: u32,
    record_len: usize,
    shards: Vec<PirServer>,
}

impl ShardedDeployment {
    /// Build a deployment. `prefix_bits` fixes the shard count at
    /// `2^prefix_bits`; entries are routed to shards by the top bits of
    /// their slot.
    pub fn from_entries(
        params: DpfParams,
        prefix_bits: u32,
        record_len: usize,
        entries: Vec<(u64, Vec<u8>)>,
    ) -> Result<Self, EngineError> {
        if prefix_bits >= params.tree_depth() || params.domain_bits() - prefix_bits < 3 {
            return Err(EngineError::Backend(format!(
                "prefix_bits {prefix_bits} invalid for domain {} / tree depth {}",
                params.domain_bits(),
                params.tree_depth()
            )));
        }
        let shard_count = 1usize << prefix_bits;
        let shard_bits = params.domain_bits() - prefix_bits;
        let sub_params =
            DpfParams::new(shard_bits, params.term_bits()).map_err(EngineError::backend)?;
        let mut per_shard: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(); shard_count];
        for (slot, rec) in entries {
            if slot >= params.domain_size() {
                return Err(EngineError::Backend(format!("slot {slot} outside domain")));
            }
            let shard = (slot >> shard_bits) as usize;
            let local = slot & ((1u64 << shard_bits) - 1);
            per_shard[shard].push((local, rec));
        }
        let shards = per_shard
            .into_iter()
            .map(|e| PirServer::from_entries(sub_params, record_len, e))
            .collect::<Result<Vec<_>, PirError>>()
            .map_err(EngineError::backend)?;
        Ok(Self {
            params,
            prefix_bits,
            record_len,
            shards,
        })
    }

    /// Persist a deployment's inputs under `state_dir` so
    /// [`ShardedDeployment::from_state_dir`] can rebuild it after a
    /// restart. The file is one checksummed record written atomically, so
    /// a crash mid-write leaves the previous version (or nothing), never
    /// a torn file.
    pub fn persist_entries(
        state_dir: &Path,
        params: DpfParams,
        prefix_bits: u32,
        record_len: usize,
        entries: &[(u64, Vec<u8>)],
    ) -> Result<(), EngineError> {
        use lightweb_store::record::{put_bytes, put_u32, put_u64};
        let _t = lightweb_telemetry::span!("zltp.deployment.persist.ns");
        std::fs::create_dir_all(state_dir).map_err(EngineError::backend)?;
        let mut body = Vec::new();
        put_u32(&mut body, DEPLOYMENT_MAGIC);
        put_u32(&mut body, DEPLOYMENT_VERSION);
        put_u32(&mut body, params.domain_bits());
        put_u32(&mut body, params.term_bits());
        put_u32(&mut body, prefix_bits);
        put_u32(&mut body, record_len as u32);
        put_u64(&mut body, entries.len() as u64);
        for (slot, rec) in entries {
            put_u64(&mut body, *slot);
            put_bytes(&mut body, rec);
        }
        lightweb_telemetry::counter!("zltp.deployment.persist.bytes").add(body.len() as u64);
        lightweb_store::atomic_file::write_checksummed(&state_dir.join(DEPLOYMENT_FILE), &body)
            .map_err(EngineError::backend)
    }

    /// Rebuild a deployment from a state directory written by
    /// [`ShardedDeployment::persist_entries`], together with the raw
    /// entries (callers re-seed clients/manifests from them). Fails
    /// loudly on a missing, torn, or version-skewed file.
    pub fn from_state_dir(state_dir: &Path) -> Result<(Self, DeploymentEntries), EngineError> {
        use lightweb_store::record::{get_bytes, get_u32, get_u64};
        let _t = lightweb_telemetry::span!("zltp.deployment.recover.ns");
        let body = lightweb_store::atomic_file::read_checksummed(&state_dir.join(DEPLOYMENT_FILE))
            .map_err(EngineError::backend)?;
        let corrupt = |e: lightweb_store::StoreError| EngineError::backend(e);
        let mut buf = body.as_slice();
        if get_u32(&mut buf).map_err(corrupt)? != DEPLOYMENT_MAGIC {
            return Err(EngineError::Backend("not a persisted deployment".into()));
        }
        let version = get_u32(&mut buf).map_err(corrupt)?;
        if version != DEPLOYMENT_VERSION {
            return Err(EngineError::Backend(format!(
                "persisted deployment version {version}, expected {DEPLOYMENT_VERSION}"
            )));
        }
        let domain_bits = get_u32(&mut buf).map_err(corrupt)?;
        let term_bits = get_u32(&mut buf).map_err(corrupt)?;
        let prefix_bits = get_u32(&mut buf).map_err(corrupt)?;
        let record_len = get_u32(&mut buf).map_err(corrupt)? as usize;
        let count = get_u64(&mut buf).map_err(corrupt)?;
        let mut entries = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let slot = get_u64(&mut buf).map_err(corrupt)?;
            let rec = get_bytes(&mut buf).map_err(corrupt)?;
            entries.push((slot, rec));
        }
        if !buf.is_empty() {
            return Err(EngineError::Backend(
                "trailing bytes in persisted deployment".into(),
            ));
        }
        let params = DpfParams::new(domain_bits, term_bits).map_err(EngineError::backend)?;
        let dep = Self::from_entries(params, prefix_bits, record_len, entries.clone())?;
        Ok((dep, entries))
    }

    /// Number of data-server shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The full-domain DPF parameters queries must use.
    pub fn params(&self) -> DpfParams {
        self.params
    }

    /// Total records across shards.
    pub fn total_records(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Answer one query through the front-end split, driving shards
    /// sequentially. Returns the combined bucket plus accounting.
    pub fn answer(&self, key: &DpfKey) -> Result<(Vec<u8>, ShardedQueryStats), EngineError> {
        let (nodes, shard_key) = self.front_end(key)?;
        let mut acc = vec![0u8; self.record_len];
        let mut stats = ShardedQueryStats {
            shards: self.shards.len(),
            ..Default::default()
        };
        for (shard, node) in self.shards.iter().zip(nodes.iter()) {
            let partial = {
                let _answer = lightweb_telemetry::span!("zltp.shard.answer.ns");
                Self::shard_answer(shard, &shard_key, node)
            };
            let _combine = lightweb_telemetry::span!("zltp.shard.combine.ns");
            lightweb_crypto::xor_in_place(&mut acc, &partial);
            stats.records_scanned.push(shard.len());
            stats.bytes_scanned.push(shard.stored_bytes());
        }
        Ok((acc, stats))
    }

    /// Answer one query with the shards distributed across a
    /// [`ScanPool`]'s workers: contiguous runs of shards per worker rather
    /// than a thread per shard, so an in-process deployment with many
    /// shards does not oversubscribe the machine; a pool at least as wide
    /// as the shard count gives every shard its own thread, the wall-clock
    /// shape of the real deployment. Identical output to
    /// [`ShardedDeployment::answer`].
    ///
    /// Traced callers see the §5.2 front-end→shard hop per request: the
    /// front-end split records a `zltp.shard.front_end` child of the
    /// current context, and every data-server shard its own
    /// `zltp.shard.answer` child.
    pub fn answer_with_pool(&self, key: &DpfKey, pool: &ScanPool) -> Result<Vec<u8>, EngineError> {
        let (nodes, shard_key) = {
            let _fe_span = maybe_child("zltp.shard.front_end");
            self.front_end(key)?
        };
        let partials = pool.map_ranges(self.shards.len(), |range| {
            let mut acc = vec![0u8; self.record_len];
            for i in range {
                let _answer_span = maybe_child("zltp.shard.answer");
                let _answer = lightweb_telemetry::span!("zltp.shard.answer.ns");
                let partial = Self::shard_answer(&self.shards[i], &shard_key, &nodes[i]);
                lightweb_crypto::xor_in_place(&mut acc, &partial);
            }
            acc
        });
        let _combine = lightweb_telemetry::span!("zltp.shard.combine.ns");
        let mut acc = vec![0u8; self.record_len];
        for partial in partials {
            lightweb_crypto::xor_in_place(&mut acc, &partial);
        }
        Ok(acc)
    }

    /// The front-end step: validate, evaluate the top of the tree, and
    /// produce the per-shard key material.
    fn front_end(&self, key: &DpfKey) -> Result<(Vec<TreeNode>, ShardKey), EngineError> {
        if key.params() != self.params {
            return Err(EngineError::BadQuery("DPF parameters mismatch".into()));
        }
        let _fe = lightweb_telemetry::span!("zltp.shard.front_end.ns");
        let nodes = key.eval_prefix(self.prefix_bits);
        let shard_key = key.shard_key(self.prefix_bits);
        Ok((nodes, shard_key))
    }

    /// What one data server does: finish the sub-tree evaluation and scan
    /// its slice. Exactly the small-domain per-server work of §5.2.
    fn shard_answer(shard: &PirServer, shard_key: &ShardKey, node: &TreeNode) -> Vec<u8> {
        let mut bits = vec![0u8; shard_key.shard_output_len()];
        shard_key.eval(node, &mut bits);
        shard
            .scan(&bits)
            .expect("shard bit vector sized to shard params")
    }

    /// Answer for a single shard — the per-shard entry point a remote
    /// data server exposes over the wire. `shard` indexes into this
    /// deployment's shard list; `shard_key` and `node` come from the
    /// front-end split of the client's key.
    pub fn answer_shard(
        &self,
        shard: usize,
        shard_key: &ShardKey,
        node: &TreeNode,
    ) -> Result<Vec<u8>, EngineError> {
        let server = self
            .shards
            .get(shard)
            .ok_or_else(|| EngineError::BadQuery(format!("no shard {shard}")))?;
        if shard_key.params() != self.params || shard_key.prefix_bits() != self.prefix_bits {
            return Err(EngineError::BadQuery(
                "shard key parameters mismatch".into(),
            ));
        }
        let _answer = lightweb_telemetry::span!("zltp.shard.answer.ns");
        Ok(Self::shard_answer(server, shard_key, node))
    }
}

/// One data server of a §5.2 deployment, standing alone: it holds only
/// its slice of the database and answers `(ShardKey, TreeNode)` requests
/// from a front-end. This is what a shard *process* hosts when the
/// deployment leaves a single address space — [`ShardedDeployment`]
/// holds all of these in-process; `DataShard` is one of them, buildable
/// from the full entry list without materializing the rest.
pub struct DataShard {
    shard: PirServer,
    params: DpfParams,
    prefix_bits: u32,
    index: usize,
}

impl DataShard {
    /// Build shard `index` of a `2^prefix_bits`-way deployment from the
    /// full entry list; entries outside this shard's slice of the slot
    /// domain are dropped (each shard process feeds the same published
    /// dataset and keeps its own slice).
    pub fn from_entries(
        params: DpfParams,
        prefix_bits: u32,
        index: usize,
        record_len: usize,
        entries: Vec<(u64, Vec<u8>)>,
    ) -> Result<Self, EngineError> {
        if prefix_bits >= params.tree_depth() || params.domain_bits() - prefix_bits < 3 {
            return Err(EngineError::Backend(format!(
                "prefix_bits {prefix_bits} invalid for domain {}",
                params.domain_bits()
            )));
        }
        if index >= (1usize << prefix_bits) {
            return Err(EngineError::Backend(format!(
                "shard index {index} out of range for prefix_bits {prefix_bits}"
            )));
        }
        let shard_bits = params.domain_bits() - prefix_bits;
        let sub_params =
            DpfParams::new(shard_bits, params.term_bits()).map_err(EngineError::backend)?;
        let local: Vec<(u64, Vec<u8>)> = entries
            .into_iter()
            .filter(|(slot, _)| (slot >> shard_bits) as usize == index)
            .map(|(slot, rec)| (slot & ((1u64 << shard_bits) - 1), rec))
            .collect();
        let shard =
            PirServer::from_entries(sub_params, record_len, local).map_err(EngineError::backend)?;
        Ok(Self {
            shard,
            params,
            prefix_bits,
            index,
        })
    }

    /// Which shard of the deployment this is.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Records held by this shard.
    pub fn len(&self) -> usize {
        self.shard.len()
    }

    /// Whether the shard's slice is empty.
    pub fn is_empty(&self) -> bool {
        self.shard.len() == 0
    }

    /// Finish one sub-tree evaluation and scan the slice — the remote
    /// mirror of [`ShardedDeployment::answer_shard`]. Rejects key
    /// material split with the wrong parameters or prefix depth.
    ///
    /// Records a `zltp.shard.answer` child of the current context, which
    /// on a shardnet server is the context the front end shipped over the
    /// wire — so the scan shows up, attributed to this shard's node, when
    /// the fleet aggregator stitches the request's trace.
    pub fn answer(&self, shard_key: &ShardKey, node: &TreeNode) -> Result<Vec<u8>, EngineError> {
        if shard_key.params() != self.params || shard_key.prefix_bits() != self.prefix_bits {
            return Err(EngineError::BadQuery(
                "shard key parameters mismatch".into(),
            ));
        }
        let _answer_span = maybe_child("zltp.shard.answer");
        let _answer = lightweb_telemetry::span!("zltp.shard.answer.ns");
        Ok(ShardedDeployment::shard_answer(
            &self.shard,
            shard_key,
            node,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightweb_dpf::gen;
    use lightweb_pir::TwoServerClient;

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

    #[test]
    fn sharded_answer_matches_monolithic() {
        let params = DpfParams::new(12, 3).unwrap();
        let es = entries(100, 1 << 12, 32);
        let mono = PirServer::from_entries(params, 32, es.clone()).unwrap();
        for prefix in [1u32, 2, 4] {
            let dep = ShardedDeployment::from_entries(params, prefix, 32, es.clone()).unwrap();
            assert_eq!(dep.shard_count(), 1 << prefix);
            assert_eq!(dep.total_records(), mono.len());
            for &(slot, _) in es.iter().take(5) {
                let (k0, _) = gen(&params, slot);
                let (sharded, stats) = dep.answer(&k0).unwrap();
                assert_eq!(
                    sharded,
                    mono.answer(&k0).unwrap(),
                    "prefix={prefix} slot={slot}"
                );
                assert_eq!(stats.shards, 1 << prefix);
            }
        }
    }

    #[test]
    fn two_server_protocol_over_sharded_deployment() {
        // Full reconstruction through two sharded deployments.
        let params = DpfParams::new(12, 3).unwrap();
        let es = entries(64, 1 << 12, 16);
        let dep0 = ShardedDeployment::from_entries(params, 2, 16, es.clone()).unwrap();
        let dep1 = ShardedDeployment::from_entries(params, 2, 16, es.clone()).unwrap();
        let client = TwoServerClient::new(params, 16);
        for &(slot, ref rec) in es.iter().take(8) {
            let q = client.query_slot(slot);
            let (a0, _) = dep0.answer(&q.key0).unwrap();
            let (a1, _) = dep1.answer(&q.key1).unwrap();
            assert_eq!(&TwoServerClient::combine(&a0, &a1).unwrap(), rec);
        }
    }

    #[test]
    fn parallel_answer_matches_sequential() {
        let params = DpfParams::new(11, 2).unwrap();
        let es = entries(50, 1 << 11, 24);
        let dep = ShardedDeployment::from_entries(params, 3, 24, es.clone()).unwrap();
        let (k0, _) = gen(&params, es[3].0);
        let (seq, _) = dep.answer(&k0).unwrap();
        let par = dep
            .answer_with_pool(&k0, &ScanPool::new(dep.shard_count()))
            .unwrap();
        assert_eq!(seq, par);
        for threads in [1usize, 2, 4] {
            let pooled = dep.answer_with_pool(&k0, &ScanPool::new(threads)).unwrap();
            assert_eq!(seq, pooled, "pool threads={threads}");
        }
    }

    #[test]
    fn load_spreads_across_shards() {
        // With a multiplicative-hash slot spread, shards should each hold
        // some records (no shard starves) — the paper's balanced sharding.
        let params = DpfParams::new(12, 3).unwrap();
        let es = entries(512, 1 << 12, 8);
        let dep = ShardedDeployment::from_entries(params, 3, 8, es).unwrap();
        let (_, stats) = dep.answer(&gen(&params, 0).0).unwrap();
        let nonempty = stats.records_scanned.iter().filter(|&&n| n > 0).count();
        assert_eq!(
            nonempty, 8,
            "records per shard: {:?}",
            stats.records_scanned
        );
    }

    #[test]
    fn standalone_data_shards_reassemble_deployment_answer() {
        let params = DpfParams::new(12, 3).unwrap();
        let es = entries(100, 1 << 12, 32);
        let dep = ShardedDeployment::from_entries(params, 2, 32, es.clone()).unwrap();
        let shards: Vec<DataShard> = (0..4)
            .map(|i| DataShard::from_entries(params, 2, i, 32, es.clone()).unwrap())
            .collect();
        assert_eq!(
            shards.iter().map(|s| s.len()).sum::<usize>(),
            dep.total_records()
        );
        let (k0, _) = gen(&params, es[7].0);
        let nodes = k0.eval_prefix(2);
        let shard_key = k0.shard_key(2);
        let mut acc = vec![0u8; 32];
        for (shard, node) in shards.iter().zip(nodes.iter()) {
            let partial = shard.answer(&shard_key, node).unwrap();
            // The deployment's per-shard entry point agrees byte for byte.
            assert_eq!(
                partial,
                dep.answer_shard(shard.index(), &shard_key, node).unwrap()
            );
            lightweb_crypto::xor_in_place(&mut acc, &partial);
        }
        assert_eq!(acc, dep.answer(&k0).unwrap().0);
    }

    #[test]
    fn data_shard_rejects_mismatched_key_material() {
        let params = DpfParams::new(12, 3).unwrap();
        let shard = DataShard::from_entries(params, 2, 0, 8, vec![]).unwrap();
        let (k0, _) = gen(&params, 0);
        // Wrong prefix depth.
        let wrong = k0.shard_key(3);
        let node = k0.eval_prefix(2)[0];
        assert!(shard.answer(&wrong, &node).is_err());
        // Out-of-range shard index at build time.
        assert!(DataShard::from_entries(params, 2, 4, 8, vec![]).is_err());
    }

    #[test]
    fn invalid_prefix_rejected() {
        let params = DpfParams::new(8, 2).unwrap();
        assert!(ShardedDeployment::from_entries(params, 6, 8, vec![]).is_err());
        assert!(ShardedDeployment::from_entries(params, 7, 8, vec![]).is_err());
    }

    #[test]
    fn wrong_params_query_rejected() {
        let params = DpfParams::new(12, 3).unwrap();
        let dep = ShardedDeployment::from_entries(params, 2, 8, vec![]).unwrap();
        let other = DpfParams::new(10, 3).unwrap();
        let (k, _) = gen(&other, 0);
        assert!(dep.answer(&k).is_err());
    }

    #[test]
    fn persist_and_recover_roundtrip() {
        let dir =
            std::env::temp_dir().join(format!("lightweb-engine-{}-persist", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let params = DpfParams::new(12, 3).unwrap();
        let es = entries(64, 1 << 12, 16);
        ShardedDeployment::persist_entries(&dir, params, 2, 16, &es).unwrap();
        let (dep, recovered) = ShardedDeployment::from_state_dir(&dir).unwrap();
        assert_eq!(recovered, es);
        assert_eq!(dep.shard_count(), 4);
        // The recovered deployment answers exactly like a fresh one.
        let fresh = ShardedDeployment::from_entries(params, 2, 16, es.clone()).unwrap();
        for &(slot, _) in es.iter().take(4) {
            let (k0, _) = gen(&params, slot);
            assert_eq!(dep.answer(&k0).unwrap().0, fresh.answer(&k0).unwrap().0);
        }
    }

    #[test]
    fn recover_detects_corruption_and_absence() {
        let dir =
            std::env::temp_dir().join(format!("lightweb-engine-{}-corrupt", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(ShardedDeployment::from_state_dir(&dir).is_err(), "absent");
        let params = DpfParams::new(12, 3).unwrap();
        ShardedDeployment::persist_entries(&dir, params, 2, 16, &entries(16, 1 << 12, 16)).unwrap();
        let file = dir.join("deployment.bin");
        let mut raw = std::fs::read(&file).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x20;
        std::fs::write(&file, &raw).unwrap();
        assert!(ShardedDeployment::from_state_dir(&dir).is_err(), "torn");
    }

    #[test]
    fn out_of_domain_entry_rejected() {
        let params = DpfParams::new(10, 2).unwrap();
        let err = ShardedDeployment::from_entries(params, 2, 8, vec![(1 << 10, vec![0u8; 8])]);
        assert!(err.is_err());
    }
}
