//! Reproducible counting-kernel benchmark for the `explain` hot path.
//!
//! Runs one fixed-seed workload and emits a `BENCH_<id>.json` of **kernel
//! operation counters** (rows scanned, hash ops, dense ops, merge cells,
//! words skipped), never gated on wall-clock: counters are
//! machine-independent, so CI can gate on them without flaking.
//!
//! Workloads: any Table 5 query id (`FL-Q1`, `SO-Q2`, …) runs against the
//! matching paper dataset generator; `SYN-…` ids run against the
//! region-blocked planted-confounder generator
//! ([`nexus_datagen::synth`]), at 10M rows by default, in plain,
//! IPW-weighted (`SYN-W1`), and masked (`SYN-M1`) variants.
//!
//! Three passes run the workload: `kernel` plain, then `memo_cold` and
//! `memo_warm` against one shared sub-query [`MemoStore`] — cold
//! populates it, warm replays the identical request against it — so
//! `BENCH_<id>.json` (schema 4) also reports memo hit/coalescing counters
//! and the warm/cold pool-task ratio of a repeated workload. Each pass
//! records the FNV-1a digest of its explanation (`signature`), so reports
//! from two commits can be compared for bit-identical outputs.
//!
//! The harness asserts all passes produce bit-identical explanations and,
//! with `--check`, exits nonzero unless the acceptance thresholds hold:
//!
//! * dense accumulator writes strictly below rows scanned (run
//!   coalescing engaged),
//! * radix merge cells strictly below the v1 full-keyspace merge bill
//!   whenever parallel dense merges happened,
//! * at least one narrow (u8/u16) fused scan,
//! * pool tasks > 0 when run multi-threaded,
//! * memo passes' outputs identical to the plain pass,
//! * the warm memo pass hits the memo, misses nothing, and sheds real
//!   counted work versus the cold pass (no-worse pool tasks, and
//!   strictly fewer pool tasks or rows scanned).
//!
//! Comparisons against an earlier commit (rows scanned and hash ops no
//! higher, same signature) are made by `scripts/ci.sh bench` against the
//! checked-in reports under `results/bench_quick/`.
//!
//! Usage: `bench-explain [--rows N] [--cities N] [--threads N] [--quick]
//! [--query ID] [--out PATH] [--check]`

use std::fmt::Write as _;
use std::time::Instant;

use std::sync::Arc;

use nexus_core::{
    ExplainRequest, Explanation, MemoHandle, MemoStore, Nexus, NexusOptions, Parallelism,
    RunControl,
};
use nexus_datagen::flights::FlightsConfig;
use nexus_datagen::synth::{SynthConfig, SYNTH_WORKLOADS};
use nexus_datagen::{flights, synth, BENCH_QUERIES};
use nexus_info::KernelSnapshot;

struct Args {
    rows: Option<usize>,
    cities: usize,
    threads: usize,
    query: String,
    out: Option<String>,
    quick: bool,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        rows: None,
        cities: 320,
        threads: 8,
        query: "FL-Q1".to_string(),
        out: None,
        quick: false,
        check: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--rows" => {
                args.rows = Some(value(&mut i)?.parse().map_err(|e| format!("--rows: {e}"))?)
            }
            "--cities" => {
                args.cities = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--cities: {e}"))?
            }
            "--threads" => {
                args.threads = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--query" => args.query = value(&mut i)?,
            "--out" => args.out = Some(value(&mut i)?),
            "--quick" => {
                args.quick = true;
                args.cities = 120;
            }
            "--check" => args.check = true,
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    Ok(args)
}

/// One measured pipeline run.
struct RunResult {
    kernel: KernelSnapshot,
    pool_tasks: u64,
    wall_ms: u128,
    signature: String,
}

/// A byte-exact digest of everything user-visible in an explanation:
/// f64s are rendered as raw bits so "equal" means bit-identical. Reports
/// carry it as a 64-bit FNV-1a hash ([`fnv1a`]).
fn signature(e: &Explanation) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "initial={:016x};explained={:016x};stopped={};",
        e.initial_cmi.to_bits(),
        e.explained_cmi.to_bits(),
        e.stopped_by_responsibility
    );
    for a in &e.attributes {
        let _ = write!(
            s,
            "name={};resp={:016x};weighted={};",
            a.name,
            a.responsibility.to_bits(),
            a.weighted
        );
    }
    s
}

/// 64-bit FNV-1a of `s`, as 16 hex digits.
fn fnv1a(s: &str) -> String {
    let h = s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{h:016x}")
}

fn run(
    dataset: &nexus_datagen::Dataset,
    sql: &str,
    threads: usize,
    memo: Option<&MemoHandle>,
) -> RunResult {
    let query = nexus_query::parse(sql).expect("bench SQL parses");
    let options = NexusOptions::builder()
        .parallelism(if threads <= 1 {
            Parallelism::Serial
        } else {
            Parallelism::Fixed(threads)
        })
        .build()
        .expect("valid options");
    let request = ExplainRequest::new()
        .table(&dataset.table)
        .knowledge_graph(&dataset.kg)
        .extraction_columns(dataset.extraction_columns.clone())
        .query(&query);
    let ctl = match memo {
        Some(handle) => RunControl::none().with_memo(handle),
        None => RunControl::none(),
    };
    let t0 = Instant::now();
    let (explanation, _artifacts) = Nexus::new(options)
        .run_controlled(&request, ctl)
        .expect("pipeline runs");
    let wall_ms = t0.elapsed().as_millis();
    RunResult {
        kernel: explanation.stats.kernel,
        pool_tasks: explanation.stats.pool_tasks,
        wall_ms,
        signature: signature(&explanation),
    }
}

fn json_run(out: &mut String, label: &str, r: &RunResult) {
    let k = &r.kernel;
    let _ = write!(
        out,
        "  \"{label}\": {{\n    \"rows_scanned\": {},\n    \"hash_ops\": {},\n    \"dense_ops\": {},\n    \"dense_builds\": {},\n    \"sparse_builds\": {},\n    \"narrow_scans\": {},\n    \"packed_words_skipped\": {},\n    \"radix_merge_cells\": {},\n    \"full_merge_cells\": {},\n    \"builds_by_width\": {{\"w8\": {}, \"w16\": {}, \"w32\": {}, \"w64\": {}, \"w128\": {}}},\n    \"memo_hits\": {},\n    \"memo_misses\": {},\n    \"memo_inserts\": {},\n    \"memo_coalesced_waits\": {},\n    \"pool_tasks\": {},\n    \"wall_ms\": {},\n    \"signature\": \"{}\"\n  }}",
        k.rows_scanned,
        k.hash_ops,
        k.dense_ops,
        k.dense_builds,
        k.sparse_builds,
        k.narrow_scans,
        k.packed_words_skipped,
        k.radix_merge_cells,
        k.full_merge_cells,
        k.builds_w8,
        k.builds_w16,
        k.builds_w32,
        k.builds_w64,
        k.builds_w128,
        k.memo_hits_total(),
        k.memo_misses_total(),
        k.memo_inserts_total(),
        k.memo_coalesced_waits,
        r.pool_tasks,
        r.wall_ms,
        fnv1a(&r.signature)
    );
}

/// The generated dataset plus the workload descriptor fields that differ
/// between the paper-query and synthetic paths.
struct Workload {
    dataset: nexus_datagen::Dataset,
    sql: &'static str,
    dataset_label: String,
    rows: usize,
    detail: String,
}

fn build_workload(args: &Args) -> Result<Workload, String> {
    if args.query.starts_with("SYN-") {
        let w = SYNTH_WORKLOADS
            .iter()
            .find(|w| w.id == args.query)
            .ok_or_else(|| format!("unknown synthetic workload {}", args.query))?;
        let rows = args
            .rows
            .unwrap_or(if args.quick { 250_000 } else { 10_000_000 });
        let cfg = SynthConfig {
            n_rows: rows,
            bias: w.bias,
            ..SynthConfig::default()
        };
        eprintln!(
            "bench-explain: generating Synth (rows={}, regions={}, segments={}, bias={}, seed={:#x})",
            cfg.n_rows, cfg.n_regions, cfg.n_segments, cfg.bias, cfg.seed
        );
        Ok(Workload {
            dataset: synth::generate(&cfg),
            sql: w.sql,
            dataset_label: "Synth".into(),
            rows,
            detail: format!(
                "\"regions\": {}, \"segments\": {}, \"bias\": {}, \"seed\": {}",
                cfg.n_regions, cfg.n_segments, cfg.bias, cfg.seed
            ),
        })
    } else {
        let bench_query = BENCH_QUERIES
            .iter()
            .find(|q| q.id == args.query)
            .ok_or_else(|| format!("unknown query id {}", args.query))?;
        let rows = args
            .rows
            .unwrap_or(if args.quick { 20_000 } else { 1_000_000 });
        let cfg = FlightsConfig {
            n_rows: rows,
            n_cities: args.cities,
            ..FlightsConfig::default()
        };
        eprintln!(
            "bench-explain: generating Flights (rows={}, cities={}, seed={:#x})",
            cfg.n_rows, cfg.n_cities, cfg.seed
        );
        Ok(Workload {
            dataset: flights::generate(&cfg),
            sql: bench_query.sql,
            dataset_label: "Flights".into(),
            rows,
            detail: format!("\"cities\": {}, \"seed\": {}", cfg.n_cities, cfg.seed),
        })
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench-explain: {e}");
            std::process::exit(2);
        }
    };
    let workload = match build_workload(&args) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("bench-explain: {e}");
            std::process::exit(2);
        }
    };
    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| format!("BENCH_{}.json", args.query));

    eprintln!("bench-explain: kernel pass ({} thread(s))", args.threads);
    let fast = run(&workload.dataset, workload.sql, args.threads, None);

    // The repeated-workload passes share one memo store: cold populates
    // it, warm replays the identical request against it. Both must match
    // the un-memoized kernel pass bit for bit.
    let store = Arc::new(MemoStore::new(0));
    let handle = MemoHandle::new(Arc::clone(&store), workload.dataset.table.fingerprint());
    eprintln!("bench-explain: memo cold pass ({} thread(s))", args.threads);
    let memo_cold = run(&workload.dataset, workload.sql, args.threads, Some(&handle));
    eprintln!("bench-explain: memo warm pass ({} thread(s))", args.threads);
    let memo_warm = run(&workload.dataset, workload.sql, args.threads, Some(&handle));

    // Counter-based, machine-independent checks.
    let dense_ops_per_row = fast.kernel.dense_ops as f64 / fast.kernel.rows_scanned.max(1) as f64;
    let merge_ratio =
        fast.kernel.full_merge_cells as f64 / fast.kernel.radix_merge_cells.max(1) as f64;
    let pool_engaged = args.threads <= 1 || fast.pool_tasks > 0;
    // Run coalescing: dense accumulator writes strictly undercut rows.
    let dense_scan_improved = fast.kernel.dense_ops < fast.kernel.rows_scanned;
    // Whenever parallel dense merges happened, the radix bill must
    // strictly undercut the v1 full-keyspace-per-chunk bill.
    let merge_improved = fast.kernel.full_merge_cells == 0
        || fast.kernel.radix_merge_cells < fast.kernel.full_merge_cells;
    let narrow_engaged = fast.kernel.narrow_scans > 0;

    // Repeated-workload memo gates. All counters are per-run deltas, so
    // they are exact even though the process counters are global.
    let warm_lookups = memo_warm.kernel.memo_hits_total() + memo_warm.kernel.memo_misses_total();
    let memo_hit_rate = memo_warm.kernel.memo_hits_total() as f64 / warm_lookups.max(1) as f64;
    let memo_pool_ratio = memo_warm.pool_tasks as f64 / memo_cold.pool_tasks.max(1) as f64;
    let memo_engaged = memo_warm.kernel.memo_hits_total() > 0
        && memo_warm.kernel.memo_misses_total() == 0
        && memo_cold.kernel.memo_inserts_total() > 0;
    let memo_outputs_identical =
        memo_cold.signature == fast.signature && memo_warm.signature == fast.signature;
    // Memo hits must shed real counted work. Where the reuse shows up
    // depends on scale: large builds are row-partitioned onto the pool
    // (fewer pool tasks), small ones are built inline (fewer rows
    // scanned) — so require no-worse pool tasks plus a strict reduction
    // in at least one of the two.
    let memo_work_reduced = memo_warm.pool_tasks <= memo_cold.pool_tasks
        && (memo_warm.pool_tasks < memo_cold.pool_tasks
            || memo_warm.kernel.rows_scanned < memo_cold.kernel.rows_scanned);

    let mut out = String::from("{\n");
    let _ = write!(
        out,
        "  \"schema_version\": 4,\n  \"bench\": \"explain\",\n  \"workload\": {{\n    \"dataset\": \"{}\",\n    \"rows\": {},\n    {},\n    \"query_id\": \"{}\",\n    \"sql\": \"{}\",\n    \"threads\": {}\n  }},\n",
        workload.dataset_label, workload.rows, workload.detail, args.query, workload.sql, args.threads
    );
    json_run(&mut out, "kernel", &fast);
    out.push_str(",\n");
    json_run(&mut out, "memo_cold", &memo_cold);
    out.push_str(",\n");
    json_run(&mut out, "memo_warm", &memo_warm);
    let _ = write!(
        out,
        ",\n  \"ratios\": {{\n    \"dense_ops_per_row\": {dense_ops_per_row:.4},\n    \"merge_cells\": {merge_ratio:.2},\n    \"memo_hit_rate\": {memo_hit_rate:.4},\n    \"memo_pool_tasks\": {memo_pool_ratio:.4}\n  }},\n  \"checks\": {{\n    \"pool_engaged\": {pool_engaged},\n    \"dense_scan_improved\": {dense_scan_improved},\n    \"merge_improved\": {merge_improved},\n    \"narrow_engaged\": {narrow_engaged},\n    \"memo_engaged\": {memo_engaged},\n    \"memo_outputs_identical\": {memo_outputs_identical},\n    \"memo_work_reduced\": {memo_work_reduced}\n  }}\n}}\n"
    );

    std::fs::write(&out_path, &out).unwrap_or_else(|e| {
        eprintln!("bench-explain: cannot write {out_path}: {e}");
        std::process::exit(2);
    });
    eprintln!(
        "bench-explain: hash ops {}, rows {}, dense ops/row {dense_ops_per_row:.4}, merge cells {} radix vs {} full, narrow scans {}, memo warm hits {} (hit rate {memo_hit_rate:.2}), pool tasks {} cold -> {} warm, wrote {out_path}",
        fast.kernel.hash_ops,
        fast.kernel.rows_scanned,
        fast.kernel.radix_merge_cells,
        fast.kernel.full_merge_cells,
        fast.kernel.narrow_scans,
        memo_warm.kernel.memo_hits_total(),
        memo_cold.pool_tasks,
        memo_warm.pool_tasks,
    );

    let ok = pool_engaged
        && dense_scan_improved
        && merge_improved
        && narrow_engaged
        && memo_engaged
        && memo_outputs_identical
        && memo_work_reduced;
    if args.check && !ok {
        eprintln!(
            "bench-explain: CHECK FAILED (pool_engaged={pool_engaged}, dense_scan_improved={dense_scan_improved}, merge_improved={merge_improved}, narrow_engaged={narrow_engaged}, memo_engaged={memo_engaged}, memo_outputs_identical={memo_outputs_identical}, memo_work_reduced={memo_work_reduced})"
        );
        std::process::exit(1);
    }
}
