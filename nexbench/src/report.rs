//! Metric names, units, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("explain_p50_ms", "ms"),
    ("explain_tail_ms", "ms"),
    ("explanations_per_s", "1/s"),
    ("cold_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. Every workload
/// reports all of them; a layer the workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kernel.rows_scanned", "count"),
    ("kernel.rows_per_s", "1/s"),
    ("kernel.hash_ops", "count"),
    ("kernel.dense_builds", "count"),
    ("kernel.narrow_scans", "count"),
    ("mcimr.ms", "ms"),
    ("mcimr.rows_scanned", "count"),
    ("mcimr.iterations", "count"),
    ("mcimr.pool_calls", "count"),
    ("responsibility.ms", "ms"),
    ("prune.offline_ms", "ms"),
    ("prune.online_ms", "ms"),
    ("prune.kept", "count"),
    ("engine.new_ms", "ms"),
    ("bias.ms", "ms"),
    ("bias.flagged", "count"),
    ("candidate.build_ms", "ms"),
    ("candidate.count", "count"),
    ("runtime.pool_tasks", "count"),
    ("runtime.busy_share", "share"),
    ("runtime.busy_ms", "ms"),
    ("runtime.capacity_ms", "ms"),
    ("memo.hit_rate", "share"),
    ("memo.hits", "count"),
    ("memo.lookups", "count"),
    ("memo.coalesced_waits", "count"),
    ("memo.resident_bytes", "bytes"),
    ("serve.cache.hit_rate", "share"),
    ("serve.cache.hits", "count"),
    ("serve.cache.lookups", "count"),
    ("serve.queue_p50_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.transport_p50_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("store.encode_ms", "ms"),
    ("store.decode_ms", "ms"),
    ("store.bytes_per_row", "bytes"),
    ("registry.materialize_ms", "ms"),
    ("trace.overhead_share", "share"),
    ("trace.unattributed_ms", "ms"),
];

/// What one run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Requests attempted in the measured phase.
    pub attempted: u64,
    /// Requests that failed, were refused, or mismatched their reference.
    pub failed: u64,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Failed requests over attempted ones.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether every attempted request succeeded and matched.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Prints one `name value unit` line per metric of `names`, then the
    /// JSON result as the last line of standard output. A metric the
    /// workload did not set reads 0.
    pub fn print(&self, names: &[(&'static str, &str)]) {
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            println!("{name} {value} {unit}");
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!(
            "failed_share {} ({} of {} attempted)",
            self.failed_share(),
            self.failed,
            self.attempted
        );
        println!("{json}");
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Milliseconds in `ns` nanoseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}
