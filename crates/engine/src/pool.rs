//! The shared scan/eval worker pool.
//!
//! The two dominant per-request server costs (§5.1) — full-domain DPF
//! evaluation and the XOR scan over the data — are both embarrassingly
//! parallel: the DPF tree splits into independent sub-trees (the same
//! prefix split §5.2 uses across machines, here across cores) and the scan
//! splits into disjoint record ranges whose partial accumulators XOR back
//! together. [`ScanPool`] owns that partitioning for every backend: the
//! monolithic scan, the batched scan, and the per-shard scans of a sharded
//! deployment all run through the same pool.
//!
//! Threads are scoped (crossbeam), spawned per call: the pool holds no
//! persistent workers, so a pool is free until used and `threads == 1`
//! degenerates to an inline call on the caller's thread with no spawn at
//! all — which is what the `LIGHTWEB_SCAN_THREADS=1` CI matrix leg pins.

use lightweb_dpf::{BitMatrix, DpfKey};
use lightweb_pir::{PirError, PirServer};
use lightweb_telemetry::trace;
use std::ops::Range;

/// Environment variable overriding the worker count when a config leaves
/// `scan_threads` at 0 (auto).
pub const SCAN_THREADS_ENV: &str = "LIGHTWEB_SCAN_THREADS";

/// A sizing policy plus the scoped-thread fan-out/fan-in machinery shared
/// by every scan-shaped workload.
#[derive(Clone, Copy, Debug)]
pub struct ScanPool {
    threads: usize,
}

impl ScanPool {
    /// Create a pool with a fixed worker count. `0` means auto: the
    /// `LIGHTWEB_SCAN_THREADS` environment variable if set, otherwise the
    /// machine's available parallelism.
    pub fn new(threads: usize) -> Self {
        let resolved = if threads > 0 {
            threads
        } else {
            std::env::var(SCAN_THREADS_ENV)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&t| t > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                })
        };
        lightweb_telemetry::registry()
            .gauge("engine.scan_pool.threads")
            .set(resolved as i64);
        Self { threads: resolved }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Split `0..n` into at most `threads` contiguous chunks and run `f`
    /// on each, in parallel when more than one chunk results. Results come
    /// back in range order. With one chunk (one thread, or tiny `n`) `f`
    /// runs inline on the caller's thread. Workers run under the caller's
    /// current trace context.
    pub fn map_ranges<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let workers = self.threads.min(n).max(1);
        if workers <= 1 {
            return vec![f(0..n)];
        }
        let chunk = n.div_ceil(workers);
        let ranges: Vec<Range<usize>> = (0..workers)
            .map(|w| (w * chunk).min(n)..((w + 1) * chunk).min(n))
            .collect();
        let f = &f;
        let ctx = trace::current();
        crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .into_iter()
                .map(|r| {
                    scope.spawn(move |_| {
                        let _ctx = trace::enter(ctx);
                        f(r)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scan pool worker"))
                .collect()
        })
        .expect("scan pool scope")
    }

    /// Full-domain DPF evaluation, parallelized by splitting the tree at a
    /// prefix (exactly the §5.2 front-end split, applied across cores):
    /// each worker expands a run of sub-trees into its slice of the packed
    /// output. Falls back to the serial evaluation when the pool has one
    /// thread or the domain is too small to split byte-aligned. When the
    /// caller is traced, each worker records an `engine.pool.partition`
    /// span under the current context.
    pub fn eval_full(&self, key: &DpfKey) -> Vec<u8> {
        let mut out = vec![0u8; key.params().output_len()];
        self.eval_full_into(key, &mut out);
        out
    }

    /// Full-domain evaluation straight into a caller-owned buffer (e.g. a
    /// [`BitMatrix`] row): workers write their sub-tree runs into disjoint
    /// slices of `out`, so the parallel path allocates nothing per call.
    /// `out` must be exactly `output_len()` bytes.
    pub fn eval_full_into(&self, key: &DpfKey, out: &mut [u8]) {
        let _eval = lightweb_telemetry::span!("pir.eval.ns");
        let params = key.params();
        assert_eq!(
            out.len(),
            params.output_len(),
            "output buffer must be exactly output_len() bytes"
        );
        // Deepest split that (a) yields >= one sub-tree per worker,
        // (b) stays above the terminal levels, (c) keeps every shard's
        // output byte-aligned.
        let mut prefix_bits = 0u32;
        while (1usize << (prefix_bits + 1)) <= self.threads
            && prefix_bits + 1 < params.tree_depth()
            && params.domain_bits() - (prefix_bits + 1) >= 3
        {
            prefix_bits += 1;
        }
        if self.threads <= 1 || prefix_bits == 0 {
            key.eval_full_into(out);
            return;
        }
        let nodes = key.eval_prefix(prefix_bits);
        let shard_key = key.shard_key(prefix_bits);
        let sub_len = shard_key.shard_output_len();
        let workers = self.threads.min(nodes.len()).max(1);
        let chunk = nodes.len().div_ceil(workers);
        let shard_key = &shard_key;
        let ctx = trace::current();
        crossbeam::thread::scope(|scope| {
            for (node_run, out_run) in nodes.chunks(chunk).zip(out.chunks_mut(chunk * sub_len)) {
                scope.spawn(move |_| {
                    let _ctx = trace::enter(ctx);
                    let _part = trace::maybe_child("engine.pool.partition");
                    // Workers run on scoped threads with empty profile
                    // stacks, so an explicit scope is the only thing
                    // attributing their CPU when the request is untraced.
                    let _prof =
                        lightweb_telemetry::profile::Scope::enter("engine.pool.eval.worker");
                    for (node, sub_out) in node_run.iter().zip(out_run.chunks_mut(sub_len)) {
                        shard_key.eval(node, sub_out);
                    }
                });
            }
        })
        .expect("eval pool scope");
    }

    /// Parallel XOR scan: partition the record range, scan chunks on the
    /// pool, XOR-reduce the partial accumulators. Identical output to
    /// [`PirServer::scan`]. Traced callers get an `engine.pool.partition`
    /// span per chunk under the current context.
    pub fn scan(&self, server: &PirServer, bits: &[u8]) -> Result<Vec<u8>, PirError> {
        if bits.len() != server.params().output_len() {
            return Err(PirError::ParamsMismatch);
        }
        let _scan = lightweb_telemetry::span!("pir.scan.ns");
        let partials = self.map_ranges(server.len(), |range| {
            let _part = trace::maybe_child("engine.pool.partition");
            let _prof = lightweb_telemetry::profile::Scope::enter("engine.pool.scan.worker");
            server.scan_range(range, bits)
        });
        let mut acc = vec![0u8; server.record_len()];
        for partial in partials {
            lightweb_crypto::xor_in_place(&mut acc, &partial);
        }
        Ok(acc)
    }

    /// Parallel batched scan (§5.1): one pass over the data per chunk
    /// answers every query, and per-query partials XOR-reduce across
    /// chunks. Identical output to [`PirServer::scan_batch`]. The pass is
    /// shared by the whole batch, so the current context (typically the
    /// first traced query's scan span) parents every partition span.
    pub fn scan_batch(
        &self,
        server: &PirServer,
        bit_vecs: &[Vec<u8>],
    ) -> Result<Vec<Vec<u8>>, PirError> {
        if bit_vecs
            .iter()
            .any(|bits| bits.len() != server.params().output_len())
        {
            return Err(PirError::ParamsMismatch);
        }
        let _scan = lightweb_telemetry::span!("pir.scan.ns");
        let partials = self.map_ranges(server.len(), |range| {
            let _part = trace::maybe_child("engine.pool.partition");
            let _prof = lightweb_telemetry::profile::Scope::enter("engine.pool.scan.worker");
            server.scan_batch_range(range, bit_vecs)
        });
        let mut accs = vec![vec![0u8; server.record_len()]; bit_vecs.len()];
        for partial in partials {
            for (acc, p) in accs.iter_mut().zip(partial) {
                lightweb_crypto::xor_in_place(acc, &p);
            }
        }
        Ok(accs)
    }

    /// Parallel batched scan over a packed [`BitMatrix`] of evaluated
    /// queries — the allocation-free companion to [`ScanPool::scan_batch`]
    /// used by the batch answer path. Identical output to
    /// [`PirServer::scan_matrix`], with partition spans as in
    /// [`ScanPool::scan_batch`].
    pub fn scan_matrix(
        &self,
        server: &PirServer,
        matrix: &BitMatrix,
    ) -> Result<Vec<Vec<u8>>, PirError> {
        if matrix.row_bytes() != server.params().output_len() {
            return Err(PirError::ParamsMismatch);
        }
        let _scan = lightweb_telemetry::span!("pir.scan.ns");
        let partials = self.map_ranges(server.len(), |range| {
            let _part = trace::maybe_child("engine.pool.partition");
            let _prof = lightweb_telemetry::profile::Scope::enter("engine.pool.scan.worker");
            server.scan_matrix_range(range, matrix)
        });
        let mut accs = vec![vec![0u8; server.record_len()]; matrix.rows()];
        for partial in partials {
            for (acc, p) in accs.iter_mut().zip(partial) {
                lightweb_crypto::xor_in_place(acc, &p);
            }
        }
        Ok(accs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightweb_dpf::{gen, DpfParams};

    fn sample_server(params: DpfParams, n: usize, record_len: usize) -> PirServer {
        let entries = (0..n as u64)
            .map(|i| {
                let slot = (i * 2654435761) % params.domain_size();
                let mut rec = vec![0u8; record_len];
                rec[..8].copy_from_slice(&i.to_le_bytes());
                (slot, rec)
            })
            .collect::<std::collections::BTreeMap<_, _>>()
            .into_iter()
            .collect();
        PirServer::from_entries(params, record_len, entries).unwrap()
    }

    #[test]
    fn map_ranges_covers_everything_in_order() {
        for threads in [1usize, 2, 3, 8] {
            let pool = ScanPool::new(threads);
            for n in [0usize, 1, 5, 16, 17] {
                let parts = pool.map_ranges(n, |r| r.collect::<Vec<usize>>());
                let flat: Vec<usize> = parts.into_iter().flatten().collect();
                assert_eq!(flat, (0..n).collect::<Vec<_>>(), "t={threads} n={n}");
            }
        }
    }

    #[test]
    fn parallel_eval_matches_serial() {
        let params = DpfParams::new(12, 3).unwrap();
        let (k0, k1) = gen(&params, 777);
        for threads in [1usize, 2, 4, 8] {
            let pool = ScanPool::new(threads);
            assert_eq!(pool.eval_full(&k0), k0.eval_full(), "t={threads}");
            assert_eq!(pool.eval_full(&k1), k1.eval_full(), "t={threads}");
        }
    }

    #[test]
    fn parallel_scan_matches_serial() {
        let params = DpfParams::new(11, 2).unwrap();
        let server = sample_server(params, 120, 32);
        let (k0, _) = gen(&params, 42);
        let bits = k0.eval_full();
        let serial = server.scan(&bits).unwrap();
        for threads in [1usize, 2, 4, 7] {
            let pool = ScanPool::new(threads);
            assert_eq!(pool.scan(&server, &bits).unwrap(), serial, "t={threads}");
        }
    }

    #[test]
    fn parallel_batch_scan_matches_serial() {
        let params = DpfParams::new(11, 2).unwrap();
        let server = sample_server(params, 90, 24);
        let bit_vecs: Vec<Vec<u8>> = [3u64, 900, 2000]
            .iter()
            .map(|&slot| gen(&params, slot).0.eval_full())
            .collect();
        let serial = server.scan_batch(&bit_vecs).unwrap();
        for threads in [1usize, 3, 4] {
            let pool = ScanPool::new(threads);
            assert_eq!(
                pool.scan_batch(&server, &bit_vecs).unwrap(),
                serial,
                "t={threads}"
            );
        }
    }

    #[test]
    fn eval_into_matrix_rows_matches_eval_full() {
        let params = DpfParams::new(12, 3).unwrap();
        let keys: Vec<_> = [5u64, 999, 3000]
            .iter()
            .map(|&slot| gen(&params, slot).0)
            .collect();
        for threads in [1usize, 2, 4, 8] {
            let pool = ScanPool::new(threads);
            let mut matrix = BitMatrix::new(keys.len(), params.output_len());
            for (i, key) in keys.iter().enumerate() {
                pool.eval_full_into(key, matrix.row_mut(i));
            }
            for (i, key) in keys.iter().enumerate() {
                assert_eq!(
                    matrix.row(i),
                    key.eval_full().as_slice(),
                    "t={threads} k={i}"
                );
            }
        }
    }

    #[test]
    fn parallel_matrix_scan_matches_batch_scan() {
        let params = DpfParams::new(11, 2).unwrap();
        let server = sample_server(params, 90, 24);
        let keys: Vec<_> = [3u64, 900, 2000]
            .iter()
            .map(|&slot| gen(&params, slot).0)
            .collect();
        let bit_vecs: Vec<Vec<u8>> = keys.iter().map(|k| k.eval_full()).collect();
        let matrix = BitMatrix::from_rows(params.output_len(), &bit_vecs).unwrap();
        let serial = server.scan_batch(&bit_vecs).unwrap();
        for threads in [1usize, 3, 4] {
            let pool = ScanPool::new(threads);
            assert_eq!(
                pool.scan_matrix(&server, &matrix).unwrap(),
                serial,
                "t={threads}"
            );
        }
        let wrong = BitMatrix::new(2, params.output_len() + 1);
        assert_eq!(
            ScanPool::new(2).scan_matrix(&server, &wrong).unwrap_err(),
            PirError::ParamsMismatch
        );
    }

    #[test]
    fn pool_rejects_wrong_length_bits() {
        let params = DpfParams::new(10, 2).unwrap();
        let server = sample_server(params, 10, 8);
        let pool = ScanPool::new(4);
        let short = vec![0u8; params.output_len() - 1];
        assert_eq!(
            pool.scan(&server, &short).unwrap_err(),
            PirError::ParamsMismatch
        );
        assert_eq!(
            pool.scan_batch(&server, &[short]).unwrap_err(),
            PirError::ParamsMismatch
        );
    }

    #[test]
    fn explicit_thread_count_wins_over_auto() {
        assert_eq!(ScanPool::new(3).threads(), 3);
        assert!(ScanPool::new(0).threads() >= 1);
    }
}
