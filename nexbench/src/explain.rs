//! The in-process explain workloads: one caller runs explanations back to
//! back (a closed loop with one client), plain for the end-to-end
//! metrics, stage by stage for the per-layer ones.

use std::time::{Duration, Instant};

use nexus_core::{
    apply_selection_bias_weights, build_candidates, mcimr_controlled, prune_offline, prune_online,
    responsibilities, CoreError, Engine, ExplainRequest, Nexus, NexusOptions, Parallelism,
    RunControl,
};
use nexus_datagen::flights::FlightsConfig;
use nexus_datagen::synth::{SynthConfig, SYN_Q_PLAIN};
use nexus_datagen::{flights, synth, Dataset, BENCH_QUERIES};
use nexus_kg::KnowledgeGraph;
use nexus_query::AggregateQuery;
use nexus_runtime::SplitMix64;
use nexus_table::Table;

use crate::digest::Digest;
use crate::references;
use crate::report::{ms, peak_rss_mb, Outcome};
use crate::spans::{kernel_counts, kernel_now, Recorder, SpanId};
use crate::stats::{median, tail, TAIL_BEYOND};

/// Times the set-up runs, to report the median set-up time.
pub const SETUPS: usize = 9;

/// A generated input table with its knowledge graph.
#[derive(Debug, Clone)]
pub enum Source {
    /// The region-blocked planted-confounder generator.
    Synth(SynthConfig),
    /// The Flights generator.
    Flights(FlightsConfig),
}

impl Source {
    /// Generates the dataset (deterministic in the config).
    pub fn generate(&self) -> Dataset {
        match self {
            Source::Synth(cfg) => synth::generate(cfg),
            Source::Flights(cfg) => flights::generate(cfg),
        }
    }
}

/// One request of a workload cycle.
#[derive(Debug, Clone)]
pub struct Item {
    /// Query id (`FL-Q4`, `SYN-W1`, `FL-Q3/TX`, ...).
    pub id: String,
    /// Index into the workload's sources.
    pub source: usize,
    /// The aggregate query.
    pub sql: String,
}

impl Item {
    fn new(id: impl Into<String>, source: usize, sql: impl Into<String>) -> Item {
        Item {
            id: id.into(),
            source,
            sql: sql.into(),
        }
    }
}

/// An in-process explain workload.
#[derive(Debug, Clone)]
pub struct ExplainWorkload {
    /// Workload name, as given to `--workload`.
    pub name: &'static str,
    /// Generated inputs.
    pub sources: Vec<Source>,
    /// The requests of one cycle.
    pub items: Vec<Item>,
    /// Wall time of one cycle on the reference box (2 cores), which turns
    /// `--seconds` into a cycle count.
    pub cycle_seconds: f64,
}

/// Samples a timed run takes at least: enough that the tail's
/// [`TAIL_BEYOND`] samples lie beyond a rank above the median.
pub const MIN_SAMPLES: usize = 2 * TAIL_BEYOND + 2;

/// Timed cycles of a run of about `seconds`: as many as fit in `seconds`
/// at the workload's nominal cycle time, but never fewer than give
/// [`MIN_SAMPLES`]. The count does not depend on how fast the program
/// runs, so every commit reports the same sample ranks.
pub fn cycles(w: &ExplainWorkload, seconds: u64) -> usize {
    let for_tail = MIN_SAMPLES.div_ceil(w.items.len());
    let for_time = (seconds as f64 / w.cycle_seconds) as usize;
    for_tail.max(for_time)
}

/// The SQL of a Table 2 query id.
pub fn bench_sql(id: &str) -> &'static str {
    BENCH_QUERIES
        .iter()
        .find(|q| q.id == id)
        .map(|q| q.sql)
        .expect("known benchmark query id")
}

/// Flights with `rows` rows and the generator's default seed and cities.
pub fn flights_source(rows: usize) -> Source {
    Source::Flights(FlightsConfig {
        n_rows: rows,
        ..FlightsConfig::default()
    })
}

/// `explain-scan`: counting-kernel-bound requests. SYN-B1's unweighted
/// scans coalesce runs; SYN-W1's IPW-weighted scans go row by row.
pub fn scan() -> ExplainWorkload {
    let synth = |bias| {
        Source::Synth(SynthConfig {
            n_rows: 200_000,
            bias,
            ..SynthConfig::default()
        })
    };
    ExplainWorkload {
        name: "explain-scan",
        sources: vec![synth(false), synth(true), flights_source(100_000)],
        items: vec![
            Item::new("SYN-B1", 0, SYN_Q_PLAIN),
            Item::new("SYN-W1", 1, SYN_Q_PLAIN),
            Item::new("FL-Q5", 2, bench_sql("FL-Q5")),
        ],
        cycle_seconds: 3.6,
    }
}

/// States of the FL-Q3 template in `explain-select`; `CA` is FL-Q3.
pub const SELECT_STATES: &[&str] = &["CA", "TX", "NY", "FL", "IL", "GA"];

/// `explain-select`: selection-bound requests over small scans: FL-Q4
/// on a small table, and FL-Q3's masked query for several states.
pub fn select() -> ExplainWorkload {
    let mut items = vec![Item::new("FL-Q4", 0, bench_sql("FL-Q4"))];
    for state in SELECT_STATES {
        let sql = bench_sql("FL-Q3").replace("'CA'", &format!("'{state}'"));
        let id = if *state == "CA" {
            "FL-Q3".to_string()
        } else {
            format!("FL-Q3/{state}")
        };
        items.push(Item::new(id, 1, sql));
    }
    ExplainWorkload {
        name: "explain-select",
        sources: vec![flights_source(2_000), flights_source(100_000)],
        items,
        cycle_seconds: 9.2,
    }
}

/// Worker threads the benchmark lets the program use.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pipeline options of every explain request: defaults, with a fixed
/// pool as wide as the machine.
pub fn options(threads: usize) -> NexusOptions {
    NexusOptions::builder()
        .parallelism(if threads <= 1 {
            Parallelism::Serial
        } else {
            Parallelism::Fixed(threads)
        })
        .build()
        .expect("valid benchmark options")
}

/// The plain path: one `Nexus::run_controlled` call.
pub fn run_plain(
    ds: &Dataset,
    query: &AggregateQuery,
    options: &NexusOptions,
) -> Result<Digest, CoreError> {
    let request = ExplainRequest::new()
        .table(&ds.table)
        .knowledge_graph(&ds.kg)
        .extraction_columns(ds.extraction_columns.clone())
        .query(query);
    let (explanation, _) =
        Nexus::new(options.clone()).run_controlled(&request, RunControl::none())?;
    Ok(Digest::of(&explanation))
}

/// What a staged run observed besides its spans.
#[derive(Debug, Clone)]
pub struct Staged {
    /// Digest of the explanation the stages produced.
    pub digest: Digest,
    /// The request's root span.
    pub root: SpanId,
    /// Candidates assembled.
    pub candidates: usize,
    /// Candidates left after both pruning passes.
    pub kept: usize,
    /// Candidates flagged as selection-biased.
    pub flagged: usize,
    /// Attributes MCIMR committed.
    pub iterations: usize,
    /// Pool regions entered during MCIMR.
    pub mcimr_pool_calls: u64,
    /// Pool tasks of the request.
    pub pool_tasks: u64,
    /// Summed worker busy time of the request's pool.
    pub pool_busy: Duration,
    /// Pool width.
    pub threads: usize,
}

/// The pipeline of `Nexus::run_controlled`, called stage by stage with a
/// span around each stage: `build_candidates` → `prune_offline` →
/// `Engine::with_parallelism_memo` → `prune_online` →
/// `apply_selection_bias_weights` → `mcimr_controlled` →
/// `responsibilities`. It must produce the same digest as the plain path.
pub fn run_staged(
    rec: &mut Recorder,
    request: u64,
    table: &Table,
    kg: &KnowledgeGraph,
    columns: &[String],
    query: &AggregateQuery,
    options: &NexusOptions,
) -> Result<Staged, CoreError> {
    let before = kernel_now();
    let root = rec.open("request", request, None);
    let p = Some(root);
    let mut set = rec.kernel_span("candidate.build", request, p, || {
        build_candidates(table, kg, columns, query, options)
    })?;
    let candidates = set.candidates.len();
    if options.offline_pruning {
        rec.kernel_span("prune.offline", request, p, || {
            prune_offline(&mut set, options)
        });
    }
    let engine = rec.kernel_span("engine.new", request, p, || {
        Engine::with_parallelism_memo(&set, options.parallelism, None)
    });
    if options.online_pruning {
        rec.kernel_span("prune.online", request, p, || {
            prune_online(&mut set, &engine, options)
        });
    }
    let kept = set.candidates.len();
    let flagged = if options.handle_selection_bias {
        rec.kernel_span("bias", request, p, || {
            apply_selection_bias_weights(&mut set, &engine, options)
        })
    } else {
        0
    };
    let calls_before = engine.pool().metrics().calls();
    let result = rec.kernel_span("mcimr", request, p, || {
        mcimr_controlled(&set, &engine, options, RunControl::none())
    })?;
    let mcimr_pool_calls = engine.pool().metrics().calls() - calls_before;
    let resp = rec.kernel_span("responsibility", request, p, || {
        responsibilities(&set, &engine, &result.selected)
    });
    let attributes: Vec<(String, f64, bool)> = result
        .selected
        .iter()
        .zip(&resp)
        .map(|(&idx, &r)| {
            let c = &set.candidates[idx];
            (c.name.clone(), r, c.is_weighted())
        })
        .collect();
    rec.close(root, kernel_counts(&kernel_now().delta(&before)));
    let pool = engine.pool();
    Ok(Staged {
        digest: Digest::of_parts(
            result.initial_cmi,
            result.final_cmi,
            result.stopped_by_responsibility,
            &attributes,
        ),
        root,
        candidates,
        kept,
        flagged,
        iterations: result.trace.len(),
        mcimr_pool_calls,
        pool_tasks: pool.metrics().tasks(),
        pool_busy: pool.metrics().busy(),
        threads: pool.threads(),
    })
}

/// A seeded permutation of `0..n`.
pub fn permutation(rng: &mut SplitMix64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// Generates the workload's inputs [`SETUPS`] times, each under a
/// `setup` span; returns the last generation and the median set-up time
/// in seconds.
fn setup(w: &ExplainWorkload, rec: &mut Recorder) -> (Vec<Dataset>, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut datasets = Vec::new();
    for _ in 0..SETUPS {
        drop(std::mem::take(&mut datasets));
        let t0 = Instant::now();
        let id = rec.open("setup", 0, None);
        datasets = w.sources.iter().map(Source::generate).collect();
        rec.close(id, Vec::new());
        times.push(t0.elapsed().as_secs_f64());
    }
    (datasets, median(&times).expect("at least one set-up"))
}

fn parse_all(w: &ExplainWorkload) -> Vec<AggregateQuery> {
    w.items
        .iter()
        .map(|i| nexus_query::parse(&i.sql).expect("benchmark SQL parses"))
        .collect()
}

/// Each item's stored reference digest, `None` (and a message) for an
/// item the reference file does not list.
fn stored(w: &ExplainWorkload) -> Vec<Option<Digest>> {
    w.items
        .iter()
        .map(|item| {
            let d = references::stored(w.name, &item.id);
            if d.is_none() {
                eprintln!("nexbench: no stored reference for {} {}", w.name, item.id);
            }
            d
        })
        .collect()
}

/// Whether `d` equals both the run's first digest of its request (set
/// to `d` if there is none yet) and the stored reference; says which it
/// missed otherwise.
fn matches(id: &str, d: &Digest, first: &mut Option<Digest>, stored: Option<&Digest>) -> bool {
    if d != first.get_or_insert_with(|| d.clone()) {
        eprintln!(
            "nexbench: {id} digest {} differs from this run's first",
            d.short()
        );
        false
    } else if Some(d) != stored {
        eprintln!(
            "nexbench: {id} digest {} differs from the stored reference",
            d.short()
        );
        false
    } else {
        true
    }
}

/// The untraced run: set-up, then [`cycles`] timed cycles, each a seeded
/// permutation of the items. Every digest must equal its request's first
/// digest in the run and its stored reference.
pub fn run(w: &ExplainWorkload, seed: u64, seconds: u64) -> Outcome {
    let opts = options(threads());
    let (datasets, setup_s) = setup(w, &mut Recorder::new());
    let queries = parse_all(w);
    let stored = stored(w);
    let mut out = Outcome::default();
    let mut first: Vec<Option<Digest>> = vec![None; w.items.len()];

    let mut rng = SplitMix64::new(seed);
    let mut latencies = Vec::new();
    let mut per_item: Vec<Vec<f64>> = vec![Vec::new(); w.items.len()];
    let t0 = Instant::now();
    for _ in 0..cycles(w, seconds) {
        for i in permutation(&mut rng, w.items.len()) {
            let item = &w.items[i];
            out.attempted += 1;
            let start = Instant::now();
            let result = run_plain(&datasets[item.source], &queries[i], &opts);
            let lat = start.elapsed().as_secs_f64() * 1e3;
            match result {
                Ok(d) if matches(&item.id, &d, &mut first[i], stored[i].as_ref()) => {
                    latencies.push(lat);
                    per_item[i].push(lat);
                }
                Ok(_) => out.failed += 1,
                Err(e) => {
                    out.failed += 1;
                    eprintln!("nexbench: {} failed: {e}", item.id);
                }
            }
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();

    for (item, lats) in w.items.iter().zip(&per_item) {
        println!(
            "request {} p50_ms {:.3} samples {}",
            item.id,
            median(lats).unwrap_or(0.0),
            lats.len()
        );
    }
    let p50 = median(&latencies).unwrap_or(0.0);
    out.set("setup_s", setup_s);
    out.set("explain_p50_ms", p50);
    if let Some(t) = tail(&latencies) {
        println!(
            "explain_tail at p{:.1} over {} samples ({} beyond)",
            t.percentile, t.samples, t.beyond
        );
        out.set("explain_tail_ms", t.value);
    }
    out.set("explanations_per_s", latencies.len() as f64 / elapsed);
    // No result cache sits in front of an in-process run: every request
    // is computed cold.
    out.set("cold_p50_ms", p50);
    out.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    out
}

/// Sums over the traced requests.
#[derive(Default)]
struct Totals {
    requests: u64,
    stage_self_ns: std::collections::BTreeMap<&'static str, u64>,
    unattributed_ns: u64,
    scoring_rows: u64,
    scoring_ns: u64,
    hash_ops: u64,
    dense_builds: u64,
    narrow_scans: u64,
    mcimr_rows: u64,
    iterations: u64,
    mcimr_pool_calls: u64,
    kept: u64,
    flagged: u64,
    candidates: u64,
    pool_tasks: u64,
    pool_busy_ns: u64,
    capacity_ns: u64,
    plain_ns: u64,
    staged_ns: u64,
}

/// Stage spans between candidate assembly and the result: the scoring
/// stages whose kernel work `PipelineStats.kernel` reports.
const SCORING: &[&str] = &[
    "prune.offline",
    "engine.new",
    "prune.online",
    "bias",
    "mcimr",
    "responsibility",
];

fn count(span: &crate::spans::Span, name: &str) -> u64 {
    span.counts
        .iter()
        .find(|(k, _)| *k == name)
        .map_or(0, |(_, v)| *v)
}

/// The traced run: [`cycles`] cycles, each request run plain and stage
/// by stage, the pair in a seeded order. The staged digest must equal the
/// plain one, the request's first plain digest, and its stored reference.
pub fn run_traced(w: &ExplainWorkload, seed: u64, seconds: u64, trace_path: &str) -> Outcome {
    let opts = options(threads());
    let mut rec = Recorder::new();
    let (datasets, _) = setup(w, &mut rec);
    let queries = parse_all(w);
    let stored = stored(w);
    let mut out = Outcome::default();
    let mut first: Vec<Option<Digest>> = vec![None; w.items.len()];
    let mut tot = Totals::default();
    let mut rng = SplitMix64::new(seed);
    let mut request = 0u64;
    let mut per_item: Vec<Option<u64>> = vec![None; w.items.len()];
    for _ in 0..cycles(w, seconds) {
        for i in permutation(&mut rng, w.items.len()) {
            let item = &w.items[i];
            let ds = &datasets[item.source];
            request += 1;
            out.attempted += 1;
            // The pair runs in seeded order, so neither side always runs
            // second, on warm caches.
            let staged_first = rng.next_below(2) == 1;
            let mut staged = None;
            let mut plain = None;
            for pass in 0..2 {
                let start = Instant::now();
                if (pass == 0) == staged_first {
                    let r = run_staged(
                        &mut rec,
                        request,
                        &ds.table,
                        &ds.kg,
                        &ds.extraction_columns,
                        &queries[i],
                        &opts,
                    );
                    tot.staged_ns += start.elapsed().as_nanos() as u64;
                    staged = Some(r);
                } else {
                    let r = run_plain(ds, &queries[i], &opts);
                    tot.plain_ns += start.elapsed().as_nanos() as u64;
                    plain = Some(r);
                }
            }
            let (Some(Ok(s)), Some(Ok(p))) = (staged, plain) else {
                out.failed += 1;
                eprintln!("nexbench: {} failed in the traced run", item.id);
                continue;
            };
            if s.digest != p {
                out.failed += 1;
                eprintln!(
                    "nexbench: {} staged digest {} differs from plain {}",
                    item.id,
                    s.digest.short(),
                    p.short()
                );
                continue;
            }
            if !matches(&item.id, &p, &mut first[i], stored[i].as_ref()) {
                out.failed += 1;
                continue;
            }
            let scoring_rows = tot.add(&rec, &s);
            per_item[i].get_or_insert(scoring_rows);
        }
    }
    // Per query, for comparison with `bench-explain`'s kernel pass at the
    // same rows and threads.
    for (item, rows) in w.items.iter().zip(&per_item) {
        if let Some(rows) = rows {
            println!("request {} kernel.rows_scanned {rows}", item.id);
        }
    }

    let n = tot.requests.max(1) as f64;
    let per = |ns: u64| ms(ns) / n;
    for (stage, ns) in &tot.stage_self_ns {
        println!("stage {stage} self_ms_per_request {:.3}", per(*ns));
    }
    let stage = |name: &str| tot.stage_self_ns.get(name).copied().unwrap_or(0);
    out.set("kernel.rows_scanned", tot.scoring_rows as f64 / n);
    out.set(
        "kernel.rows_per_s",
        tot.scoring_rows as f64 / (tot.scoring_ns as f64 / 1e9).max(1e-9),
    );
    out.set("kernel.hash_ops", tot.hash_ops as f64 / n);
    out.set("kernel.dense_builds", tot.dense_builds as f64 / n);
    out.set("kernel.narrow_scans", tot.narrow_scans as f64 / n);
    out.set("mcimr.ms", per(stage("mcimr")));
    out.set("mcimr.rows_scanned", tot.mcimr_rows as f64 / n);
    out.set("mcimr.iterations", tot.iterations as f64 / n);
    out.set("mcimr.pool_calls", tot.mcimr_pool_calls as f64 / n);
    out.set("responsibility.ms", per(stage("responsibility")));
    out.set("prune.offline_ms", per(stage("prune.offline")));
    out.set("prune.online_ms", per(stage("prune.online")));
    out.set("prune.kept", tot.kept as f64 / n);
    out.set("engine.new_ms", per(stage("engine.new")));
    out.set("bias.ms", per(stage("bias")));
    out.set("bias.flagged", tot.flagged as f64 / n);
    out.set("candidate.build_ms", per(stage("candidate.build")));
    out.set("candidate.count", tot.candidates as f64 / n);
    out.set("runtime.pool_tasks", tot.pool_tasks as f64 / n);
    out.set("runtime.busy_ms", per(tot.pool_busy_ns));
    out.set("runtime.capacity_ms", per(tot.capacity_ns));
    out.set(
        "runtime.busy_share",
        tot.pool_busy_ns as f64 / tot.capacity_ns.max(1) as f64,
    );
    out.set(
        "trace.overhead_share",
        (tot.staged_ns as f64 - tot.plain_ns as f64) / tot.plain_ns.max(1) as f64,
    );
    out.set("trace.unattributed_ms", per(tot.unattributed_ns));
    write_trace(trace_path, &rec.to_json(w.name, seed));
    out
}

impl Totals {
    /// Adds one staged request; returns its scoring-stage rows scanned.
    fn add(&mut self, rec: &Recorder, s: &Staged) -> u64 {
        let rows_before = self.scoring_rows;
        self.requests += 1;
        let spans = rec.spans();
        let root = &spans[s.root];
        for (id, span) in spans.iter().enumerate() {
            if span.parent != Some(s.root) {
                continue;
            }
            *self.stage_self_ns.entry(span.name).or_default() += rec.self_time_ns(id);
            if SCORING.contains(&span.name) {
                self.scoring_rows += count(span, "rows_scanned");
                self.scoring_ns += span.duration_ns();
                self.hash_ops += count(span, "hash_ops");
                self.dense_builds += count(span, "dense_builds");
                self.narrow_scans += count(span, "narrow_scans");
            }
            if span.name == "mcimr" {
                self.mcimr_rows += count(span, "rows_scanned");
            }
        }
        self.unattributed_ns += rec.self_time_ns(s.root);
        self.iterations += s.iterations as u64;
        self.mcimr_pool_calls += s.mcimr_pool_calls;
        self.kept += s.kept as u64;
        self.flagged += s.flagged as u64;
        self.candidates += s.candidates as u64;
        self.pool_tasks += s.pool_tasks;
        self.pool_busy_ns += s.pool_busy.as_nanos() as u64;
        self.capacity_ns += root.duration_ns() * s.threads as u64;
        self.scoring_rows - rows_before
    }
}

/// `(request id, digest)` of every item of `w`, from plain in-process runs:
/// the lines of the stored reference file.
pub fn reference_digests(w: &ExplainWorkload) -> Result<Vec<(String, Digest)>, String> {
    let opts = options(threads());
    let datasets: Vec<Dataset> = w.sources.iter().map(Source::generate).collect();
    let queries = parse_all(w);
    w.items
        .iter()
        .zip(&queries)
        .map(|(item, query)| {
            run_plain(&datasets[item.source], query, &opts)
                .map(|d| (item.id.clone(), d))
                .map_err(|e| format!("{} {}: {e}", w.name, item.id))
        })
        .collect()
}

/// Writes a trace document, reporting (not failing on) I/O errors: the
/// trace is a by-product, the metrics are the result.
pub fn write_trace(path: &str, json: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(path, json) {
        Ok(()) => eprintln!("nexbench: wrote {path}"),
        Err(e) => eprintln!("nexbench: cannot write {path}: {e}"),
    }
}
