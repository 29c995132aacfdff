//! The traced run's per-layer metrics and table.
//!
//! Three sources, all outside the program: spans the benchmark records
//! around its own calls (client, wire, browser, publish), deltas of the
//! histograms and counters the program already exports through
//! `lightweb_telemetry::registry()` (batcher, scan, DPF, server,
//! reactor, store), and the layer probes run after the timed window
//! (engine, scan bandwidth, LWE).

use crate::measure::{mean, percentile, Metric, Segment};
use crate::workloads::Workload;
use lightweb_telemetry::{FullSnapshot, HistogramBuckets};
use std::collections::BTreeMap;

/// Registry counters and histograms accumulated over the traced windows.
#[derive(Default)]
pub struct RegistryDelta {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramBuckets>,
}

impl RegistryDelta {
    /// Add what changed between two snapshots.
    pub fn add(&mut self, before: &FullSnapshot, after: &FullSnapshot) {
        for (name, v) in &after.counters {
            let b = before.counters.get(name).copied().unwrap_or(0);
            *self.counters.entry(name.clone()).or_default() += v.saturating_sub(b);
        }
        for (name, h) in &after.histograms {
            let mut d = h.clone();
            if let Some(b) = before.histograms.get(name) {
                for (x, y) in d.buckets.iter_mut().zip(&b.buckets) {
                    *x = x.saturating_sub(*y);
                }
                d.count = d.count.saturating_sub(b.count);
                d.sum = d.sum.saturating_sub(b.sum);
            }
            self.histograms
                .entry(name.clone())
                .or_default()
                .merge_from(&d);
        }
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    fn count(&self, name: &str) -> f64 {
        self.histograms.get(name).map_or(0.0, |h| h.count as f64)
    }

    fn sum(&self, name: &str) -> f64 {
        self.histograms.get(name).map_or(0.0, |h| h.sum as f64)
    }

    /// Exact mean of a histogram's observations (0 with none).
    fn mean(&self, name: &str) -> f64 {
        let n = self.count(name);
        if n == 0.0 {
            0.0
        } else {
            self.sum(name) / n
        }
    }

    /// The program's own log₂-bucket estimate of the median.
    fn p50(&self, name: &str) -> f64 {
        self.histograms
            .get(name)
            .map_or(0.0, |h| h.quantile(0.5) as f64)
    }
}

/// One operation split into layers, and the prediction it tests: a
/// claim and the measured share of the operation it is about.
struct Split {
    unit: &'static str,
    total: f64,
    rows: Vec<(&'static str, f64)>,
    prediction: Option<(&'static str, f64)>,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Every per-layer metric of `BENCHMARK.json` (0 where the layer is not
/// on the workload's path), and the table that splits one operation into
/// layers with an explicit unattributed residual.
pub fn per_layer(
    w: Workload,
    plain: &Segment,
    traced: &Segment,
    reg: &RegistryDelta,
    probed: &[Metric],
) -> (Vec<Metric>, Vec<String>) {
    let probe = |name: &str| {
        probed
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    const NS_PER_MS: f64 = 1e6;

    let batch_size = reg.mean("zltp.server.batch.size");
    let max_batch = 16.0;
    let scan_ms = reg.mean("pir.scan.ns") / NS_PER_MS;
    let eval_ms = reg.mean("pir.eval.ns") / NS_PER_MS;
    let wait_mean_ms = reg.mean("zltp.server.batch.wait.ns") / NS_PER_MS;
    let request_mean_ms = reg.mean("zltp.server.request.ns") / NS_PER_MS;
    let ops = traced.ops.max(1) as f64;
    let get_mean = mean(&traced.get_ms);
    let view_mean = mean(&traced.view_ms);
    // Server requests each GET waits for in sequence: the browser's
    // `TwoServerZltp` visits the parties one after the other, the
    // pipelined driver and the LWE client wait for one at a time.
    let hops_per_get = if w == Workload::PageViews { 2.0 } else { 1.0 };
    let hops_per_view = ratio(reg.counter("zltp.server.requests"), traced.views as f64);
    let local_ms_per_view = if w == Workload::PageViews {
        (traced.view_ms.iter().sum::<f64>() - traced.get_ms.iter().sum::<f64>()) / ops
    } else {
        0.0
    };
    let cpu_per_op = |s: &Segment| ratio(s.cpu.as_secs_f64(), s.ops as f64);
    let spans = traced.spans;

    // The split of one operation, and the predictions it tests.
    let Split {
        unit,
        total,
        rows,
        prediction,
    } = match w {
        Workload::ScanBound | Workload::PublishMix => {
            let rows = vec![
                ("client.keygen", spans.keygen.mean_us() / 1e3),
                ("wire.encode (2 frames)", 2.0 * spans.encode.mean_us() / 1e3),
                ("batcher.wait", wait_mean_ms),
                ("dpf.eval (whole batch)", eval_ms * batch_size),
                ("pir.scan (one pass)", scan_ms),
                ("wire.decode (2 frames)", 2.0 * spans.decode.mean_us() / 1e3),
                ("client.combine", spans.combine.mean_us() / 1e3),
            ];
            let prediction = (w == Workload::ScanBound).then(|| {
                (
                    "pir.scan_ms + dpf.eval_ms carry most of the GET time",
                    ratio(scan_ms + eval_ms * batch_size, get_mean),
                )
            });
            Split {
                unit: "GET",
                total: get_mean,
                rows,
                prediction,
            }
        }
        Workload::PageViews => {
            let rows = vec![
                ("batcher.wait", wait_mean_ms * hops_per_view),
                ("dpf.eval", eval_ms * hops_per_view),
                ("pir.scan", scan_ms * hops_per_view),
                ("browser.local", local_ms_per_view),
            ];
            let prediction = (
                "batcher.wait_ms carries most of the view time",
                ratio(wait_mean_ms * hops_per_view, view_mean),
            );
            Split {
                unit: "view",
                total: view_mean,
                rows,
                prediction: Some(prediction),
            }
        }
        Workload::LweGet => {
            let rows = vec![
                ("client.lwe_query", probe("client.lwe_query_ms")),
                ("pir.lwe_answer", probe("pir.lwe_answer_ms")),
                ("client.lwe_decode", probe("client.lwe_decode_ms")),
            ];
            Split {
                unit: "GET",
                total: get_mean,
                rows,
                prediction: None,
            }
        }
    };
    let attributed: f64 = rows.iter().map(|(_, v)| v).sum();
    let unattributed = total - attributed;
    let mut table = vec![format!(
        "# per-layer split of one {unit} on {}: mean {total:.3} ms over {} traced {unit}s",
        w.name(),
        if unit == "view" {
            traced.view_ms.len()
        } else {
            traced.get_ms.len()
        }
    )];
    table.push(format!("#   {:<26} {:>10} {:>8}", "layer", "ms", "share"));
    for (name, v) in rows.iter().chain([("unattributed", unattributed)].iter()) {
        table.push(format!(
            "#   {name:<26} {v:>10.3} {:>7.1}%",
            100.0 * ratio(*v, total)
        ));
    }
    if let Some((claim, share)) = &prediction {
        table.push(format!(
            "# prediction: {claim}: measured {:.1}% -> {}",
            100.0 * share,
            if *share > 0.5 { "holds" } else { "WRONG" }
        ));
    }

    let metrics = vec![
        Metric::new("pir.scan_ms", "ms", scan_ms),
        Metric::new(
            "pir.scan_gb_per_s",
            "GB/s",
            ratio(reg.counter("pir.scan.bytes"), reg.sum("pir.scan.ns")),
        ),
        Metric::new(
            "pir.probe_scan_gb_per_s",
            "GB/s",
            probe("pir.probe_scan_gb_per_s"),
        ),
        Metric::new(
            "pir.scan_bw_fraction",
            "ratio",
            probe("pir.scan_bw_fraction"),
        ),
        Metric::new("dpf.eval_ms", "ms", eval_ms),
        Metric::new(
            "engine.answer_batch_ms",
            "ms",
            probe("engine.answer_batch_ms"),
        ),
        Metric::new("batcher.size_mean", "count", batch_size),
        Metric::new("batcher.fill_ratio", "ratio", batch_size / max_batch),
        Metric::new(
            "batcher.wait_ms_p50",
            "ms",
            reg.p50("zltp.server.batch.wait.ns") / NS_PER_MS,
        ),
        Metric::new("batcher.wait_ms_mean", "ms", wait_mean_ms),
        Metric::new(
            "server.request_ms_p50",
            "ms",
            reg.p50("zltp.server.request.ns") / NS_PER_MS,
        ),
        Metric::new("server.request_ms_mean", "ms", request_mean_ms),
        Metric::new("client.keygen_us", "us", spans.keygen.mean_us()),
        Metric::new("client.combine_us", "us", spans.combine.mean_us()),
        Metric::new("wire.encode_us", "us", spans.encode.mean_us()),
        Metric::new("wire.decode_us", "us", spans.decode.mean_us()),
        Metric::new(
            "wire.overhead_ms",
            "ms",
            if get_mean > 0.0 {
                get_mean - hops_per_get * request_mean_ms
            } else {
                0.0
            },
        ),
        Metric::new(
            "reactor.dispatch_us_p50",
            "us",
            reg.p50("reactor.dispatch.ns") / 1e3,
        ),
        Metric::new(
            "reactor.tick_stalls",
            "count",
            reg.counter("reactor.tick.stalls"),
        ),
        Metric::new("client.lwe_query_ms", "ms", probe("client.lwe_query_ms")),
        Metric::new("client.lwe_decode_ms", "ms", probe("client.lwe_decode_ms")),
        Metric::new("pir.lwe_answer_ms", "ms", probe("pir.lwe_answer_ms")),
        Metric::new(
            "engine.lwe_concurrency",
            "ratio",
            ratio(
                reg.sum("zltp.server.request.single_server_lwe.ns"),
                traced.wall.as_nanos() as f64,
            ),
        ),
        Metric::new(
            "universe.publish_ms_p50",
            "ms",
            percentile(&traced.publish_ms, 0.5),
        ),
        Metric::new(
            "store.wal_fsync_ms_p50",
            "ms",
            reg.p50("store.wal.fsync.ns") / NS_PER_MS,
        ),
        Metric::new(
            "store.snapshots",
            "count",
            reg.counter("store.snapshot.count"),
        ),
        Metric::new(
            "browser.gets_per_view",
            "count",
            ratio(traced.browser_gets as f64, traced.views as f64),
        ),
        Metric::new(
            "browser.code_hit_ratio",
            "ratio",
            if traced.views > 0 {
                1.0 - traced.code_fetches as f64 / traced.views as f64
            } else {
                0.0
            },
        ),
        Metric::new("browser.local_ms_per_view", "ms", local_ms_per_view),
        Metric::new(
            "client.verify_fail_share",
            "ratio",
            ratio(
                (plain.gets_failed + traced.gets_failed) as f64,
                (plain.gets_attempted + traced.gets_attempted) as f64,
            ),
        ),
        Metric::new(
            "telemetry.trace_overhead_share",
            "ratio",
            ratio(cpu_per_op(traced), cpu_per_op(plain)) - 1.0,
        ),
        Metric::new(
            "bench.membw_gb_per_s",
            "GB/s",
            probe("bench.membw_gb_per_s"),
        ),
        Metric::new(
            "bench.writer_lag_ms_p99",
            "ms",
            percentile(&traced.writer_lag_ms, 0.99),
        ),
        Metric::new(
            "layer.unattributed_share",
            "ratio",
            ratio(unattributed, total),
        ),
    ];
    (metrics, table)
}
