//! Measurement primitives: metrics, per-window accumulation, process CPU
//! and memory, and the result line.

use std::time::{Duration, Instant};

/// One named, unit-carrying number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value }
    }
}

/// Sum and count of one span kind recorded by the benchmark around its
/// own calls into a layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Acc {
    pub ns: u64,
    pub count: u64,
}

impl Acc {
    pub fn add(&mut self, d: Duration) {
        self.ns += d.as_nanos() as u64;
        self.count += 1;
    }

    /// Time `f`, adding its duration when `on`.
    pub fn time<R>(&mut self, on: bool, f: impl FnOnce() -> R) -> R {
        if !on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.add(t.elapsed());
        r
    }

    pub fn merge(&mut self, other: Acc) {
        self.ns += other.ns;
        self.count += other.count;
    }

    /// Mean duration in microseconds (0 with no samples).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Client-side spans the benchmark records around its calls into the
/// client and wire layers (traced windows only).
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientSpans {
    /// `TwoServerClient::query_slot` (DPF key generation).
    pub keygen: Acc,
    /// `encode_frame` of one GET frame.
    pub encode: Acc,
    /// `FrameDecoder::decode` calls, per decoded frame.
    pub decode: Acc,
    /// `TwoServerClient::combine`.
    pub combine: Acc,
}

impl ClientSpans {
    pub fn merge(&mut self, o: ClientSpans) {
        self.keygen.merge(o.keygen);
        self.encode.merge(o.encode);
        self.decode.merge(o.decode);
        self.combine.merge(o.combine);
    }
}

/// Everything one timed window measured.
#[derive(Clone, Debug, Default)]
pub struct Segment {
    /// Wall time from the first operation to the end of the drain.
    pub wall: Duration,
    /// Process CPU time over the same interval (client and servers).
    pub cpu: Duration,
    /// Operations attempted (GETs, views and publishes).
    pub attempted: u64,
    /// Operations that were wrong, errored or timed out.
    pub failed: u64,
    /// Operations completed, the denominator of the per-op metrics.
    pub ops: u64,
    /// Verified GETs completed.
    pub gets_ok: u64,
    /// GETs attempted (the denominator of `client.verify_fail_share`).
    pub gets_attempted: u64,
    /// GETs that failed verification.
    pub gets_failed: u64,
    /// Per-GET latency, milliseconds.
    pub get_ms: Vec<f64>,
    /// Per-view latency, milliseconds.
    pub view_ms: Vec<f64>,
    /// Per-publish latency, from the call to its return, milliseconds.
    pub publish_ms: Vec<f64>,
    /// How late the writer started each publish after its due time (the
    /// reads in flight drain first), milliseconds.
    pub writer_lag_ms: Vec<f64>,
    /// Bytes sent plus received by the clients.
    pub wire_bytes: u64,
    pub spans: ClientSpans,
    /// Page views completed (browser workload).
    pub views: u64,
    /// GETs the browser issued, code and data (browser workload).
    pub browser_gets: u64,
    /// Code-blob GETs the browser issued (browser workload).
    pub code_fetches: u64,
}

impl Segment {
    pub fn merge(&mut self, o: Segment) {
        self.wall += o.wall;
        self.cpu += o.cpu;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.ops += o.ops;
        self.gets_ok += o.gets_ok;
        self.gets_attempted += o.gets_attempted;
        self.gets_failed += o.gets_failed;
        self.get_ms.extend(o.get_ms);
        self.view_ms.extend(o.view_ms);
        self.publish_ms.extend(o.publish_ms);
        self.writer_lag_ms.extend(o.writer_lag_ms);
        self.wire_bytes += o.wire_bytes;
        self.spans.merge(o.spans);
        self.views += o.views;
        self.browser_gets += o.browser_gets;
        self.code_fetches += o.code_fetches;
    }
}

/// Wall and process-CPU clocks started together.
pub struct Clock {
    wall: Instant,
    cpu: Duration,
}

impl Clock {
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu: process_cpu(),
        }
    }

    /// `(wall, cpu)` elapsed since `start`.
    pub fn stop(&self) -> (Duration, Duration) {
        (self.wall.elapsed(), process_cpu().saturating_sub(self.cpu))
    }
}

/// User plus system CPU time of this process, all threads, from
/// `/proc/self/stat` (clock ticks of 1/100 s, the fixed Linux USER_HZ).
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    Duration::from_millis((tick(11) + tick(12)) * 10)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Linear-interpolated quantile `p` of `values` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// At least this many samples per slice in `windowed_percentile`.
const SLICE_MIN: usize = 50;
/// At most this many slices per run.
const SLICES_MAX: usize = 10;

/// Quantile `p` of a run's samples, in the order they were taken, as the
/// median of the quantiles of up to ten consecutive slices of the run: a
/// host slow spell in part of the run moves it less than the quantile
/// of all the samples pooled.
pub fn windowed_percentile(values: &[f64], p: f64) -> f64 {
    let n = values.len();
    let slices = (n / SLICE_MIN).clamp(1, SLICES_MAX);
    let per_slice: Vec<f64> = (0..slices)
        .map(|i| percentile(&values[i * n / slices..(i + 1) * n / slices], p))
        .collect();
    median(&per_slice)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn windowed_percentile_ignores_a_slow_slice() {
        // Ten slices of 50: one slow slice does not move the result.
        let mut v: Vec<f64> = (0..500).map(|i| f64::from(i % 50)).collect();
        v[..50].iter_mut().for_each(|x| *x += 1000.0);
        assert_eq!(windowed_percentile(&v, 0.5), 24.5);
        // Too few samples for two slices: the pooled quantile.
        assert_eq!(windowed_percentile(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
        assert_eq!(windowed_percentile(&[], 0.9), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(true, 3, 0, &[Metric::new("setup_s", "s", 0.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn process_clocks_advance() {
        let c = Clock::start();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let (wall, _) = c.stop();
        assert!(wall > Duration::ZERO);
        assert!(rss_peak_mib() > 0.0);
    }
}
