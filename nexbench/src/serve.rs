//! The served workload: a `nexus-serve` server on a Unix socket inside
//! the benchmark process, a store-backed Flights dataset, and two v2
//! sessions that each keep one request outstanding (a closed loop with
//! two clients). The explorer asks override variants of FL-Q2, FL-Q5
//! and FL-Q3 that miss the result cache but share memoized sub-queries;
//! the repeater asks the base queries again, one for every explorer
//! round, which hit the result cache.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nexus_core::{extract_column, NexusOptions};
use nexus_datagen::Dataset;
use nexus_runtime::SplitMix64;
use nexus_serve::wire::error_code;
use nexus_serve::{Client, ClientError, ExplainCall, ServeError, Server, ServerOptions, Session};

use crate::digest::Digest;
use crate::explain::{bench_sql, flights_source, options, permutation, run_plain, threads, SETUPS};
use crate::references;
use crate::report::{ms, peak_rss_mb, Outcome};
use crate::spans::{Recorder, Span};
use crate::stats::{median, tail};

/// Workload name, as given to `--workload`.
pub const NAME: &str = "serve-mixed";
/// Flights rows of the served dataset.
pub const ROWS: usize = 50_000;
/// Registered dataset name.
const DATASET: &str = "flights";
/// The query mix.
pub const QUERIES: &[&str] = &["FL-Q2", "FL-Q5", "FL-Q3"];
/// Concurrent sessions: the explorer and the repeater.
pub const SESSIONS: usize = 2;
/// `top_k` override of a query's `j`-th explorer variant: `TOP_K[j % 2]`.
/// FL-Q5 and FL-Q3 explanations stop at two attributes, so both values do
/// the same work for them; the base queries run with the default of five.
pub const TOP_K: &[u32] = &[3, 4];
/// Exclusion of a query's `j`-th explorer variant: `EXCLUDE[j / 2]` (none,
/// or one weak base column, so excluding it changes a request's cost
/// little).
pub const EXCLUDE: &[Option<&str>] = &[
    None,
    Some("Month"),
    Some("Day_of_week"),
    Some("Distance"),
    Some("Cancelled"),
    Some("Security_delay"),
];

/// One distinct request: a query, optionally with override values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Variant {
    /// Index into [`QUERIES`].
    pub query: usize,
    /// `top_k` override, if any.
    pub top_k: Option<u32>,
    /// Excluded column, if any.
    pub exclude: Option<&'static str>,
}

impl Variant {
    /// A query with no overrides.
    pub fn base(query: usize) -> Variant {
        Variant {
            query,
            top_k: None,
            exclude: None,
        }
    }

    /// The request's name in the reference file: the query id, then its
    /// overrides (`FL-Q2 top_k=3 exclude=Month`).
    pub fn label(&self) -> String {
        let mut label = QUERIES[self.query].to_string();
        if let Some(k) = self.top_k {
            label.push_str(&format!(" top_k={k}"));
        }
        if let Some(c) = self.exclude {
            label.push_str(&format!(" exclude={c}"));
        }
        label
    }

    fn call(&self) -> ExplainCall {
        let mut call = ExplainCall::new(DATASET, bench_sql(QUERIES[self.query]));
        if let Some(k) = self.top_k {
            call = call.top_k(k);
        }
        if let Some(c) = self.exclude {
            call = call.exclude(c);
        }
        call
    }

    /// The options the server runs this variant with: its base options
    /// with the overrides applied as the server applies them.
    fn options(&self, base: &NexusOptions) -> NexusOptions {
        let mut o = base.clone();
        if let Some(k) = self.top_k {
            o.max_explanation_size = k as usize;
        }
        if let Some(c) = self.exclude {
            o.excluded_columns.push(c.to_string());
            o.excluded_columns.sort();
            o.excluded_columns.dedup();
        }
        o
    }
}

/// The queries of one explorer round, as indices into [`QUERIES`]: one
/// FL-Q2, three FL-Q5 and one FL-Q3 miss. With the round's repeater hit,
/// the FL-Q5 misses fill half of the sorted latencies (the 9th to the
/// 20th of 24 at four rounds), so the median of all requests, the tail
/// and the cold median each sit at least three samples inside them. A
/// statistic at the edge of a query type's group would follow that one
/// request's noise, and a slow request could move it into another query
/// type.
pub const ROUND: &[usize] = &[0, 1, 1, 1, 2];

/// Most explorer rounds: each query has `TOP_K.len() * EXCLUDE.len()`
/// distinct variants, and FL-Q5 uses three a round.
pub const MAX_ROUNDS: usize = 4;

/// The explorer session's seeded requests: override variants that miss
/// the result cache, in [`MAX_ROUNDS`] rounds of [`ROUND`]. Each round
/// asks its queries in a seeded order; a query's `j`-th request asks
/// `top_k = TOP_K[j % 2]` and the exclusion `EXCLUDE[j / 2]`. So the
/// variants of the first `n` rounds do not depend on the seed, and none
/// repeats or equals a base query.
pub fn explorer(seed: u64) -> Vec<Variant> {
    let mut rng = SplitMix64::new(seed);
    let mut asked = [0usize; 3];
    let mut plan = Vec::new();
    for _ in 0..MAX_ROUNDS {
        for i in permutation(&mut rng, ROUND.len()) {
            let query = ROUND[i];
            let j = asked[query];
            asked[query] += 1;
            plan.push(Variant {
                query,
                top_k: Some(TOP_K[j % TOP_K.len()]),
                exclude: EXCLUDE[j / TOP_K.len()],
            });
        }
    }
    plan
}

/// Explorer rounds of a run measuring about `seconds`: one round per
/// seven seconds (a round takes about 7 s on the reference box), at least
/// one and at most [`MAX_ROUNDS`]. The count is fixed, not clocked, so
/// every run of the same length asks the same variants however fast the
/// program is. At 30 s that is four rounds.
pub fn explorer_rounds(seconds: u64) -> usize {
    ((seconds / 7) as usize).clamp(1, MAX_ROUNDS)
}

/// Explorer misses per repeater hit: one hit a round.
pub const MISSES_PER_HIT: usize = ROUND.len();

/// The repeater session's seeded requests for `misses` explorer requests:
/// one base query for every [`MISSES_PER_HIT`] misses (rounded up). The
/// base queries are primed before timing, so every one is a result-cache
/// hit.
pub fn repeater(seed: u64, misses: usize) -> Vec<Variant> {
    let mut rng = SplitMix64::new(seed ^ 0x5EED_0F4E_9EA7_E5A1);
    (0..misses.div_ceil(MISSES_PER_HIT))
        .map(|_| Variant::base(rng.next_below(QUERIES.len() as u64) as usize))
        .collect()
}

/// Every distinct request the workload can ask: the base queries, then
/// the explorer's variants of all rounds.
pub fn variants() -> Vec<Variant> {
    let mut all: Vec<Variant> = (0..QUERIES.len()).map(Variant::base).collect();
    for v in explorer(0) {
        if !all.contains(&v) {
            all.push(v);
        }
    }
    all
}

/// `(label, digest)` of every request of [`variants`], from plain
/// in-process runs over the generated (unpacked) dataset.
pub fn reference_digests() -> Result<Vec<(String, Digest)>, String> {
    let dataset = flights_source(ROWS).generate();
    let base = options(threads());
    variants()
        .iter()
        .map(|v| {
            let query = nexus_query::parse(bench_sql(QUERIES[v.query])).expect("bench SQL parses");
            run_plain(&dataset, &query, &v.options(&base))
                .map(|d| (v.label(), d))
                .map_err(|e| format!("{NAME} {}: {e}", v.label()))
        })
        .collect()
}

/// One answered (or failed) request.
struct Sample {
    variant: Variant,
    start_ns: u64,
    end_ns: u64,
    request: u64,
    reply: Result<Reply, String>,
}

struct Reply {
    digest: Digest,
    cache_hit: bool,
    queue_ns: u64,
    service_ns: u64,
}

/// A running server with its socket and accept thread.
struct Running {
    server: Server,
    socket: PathBuf,
    thread: JoinHandle<Result<(), ServeError>>,
}

impl Running {
    fn stop(self) -> Result<(), String> {
        Client::connect_unix(&self.socket)
            .and_then(|mut c| {
                c.shutdown()
                    .map_err(|e| std::io::Error::other(e.to_string()))
            })
            .map_err(|e| format!("shutdown: {e}"))?;
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// What one set-up measured.
#[derive(Clone, Copy)]
struct SetupStats {
    seconds: f64,
    encode_ns: u64,
    nxcol_bytes: usize,
    materialize_ns: u64,
}

/// One set-up: the dataset and the running server with its sessions.
struct Setup {
    dataset: Dataset,
    running: Running,
    sessions: Vec<Session>,
    stats: SetupStats,
}

fn stamp(rec: &mut Recorder, name: &'static str, parent: usize, f: impl FnOnce()) {
    let id = rec.open(name, 0, Some(parent));
    f();
    rec.close(id, Vec::new());
}

/// Generates and packs the dataset, starts a server over the packed
/// file, connects the sessions, and makes the dataset resident.
fn setup(dir: &Path, server_opts: &ServerOptions, rec: &mut Recorder) -> Result<Setup, String> {
    let t0 = Instant::now();
    let root = rec.open("setup", 0, None);
    let mut dataset = None;
    stamp(rec, "datagen", root, || {
        dataset = Some(flights_source(ROWS).generate())
    });
    let dataset = dataset.expect("generated");
    let table_path = dir.join("flights.nxcol");
    let kg_path = dir.join("flights.kg.tsv");
    let encode_start = Instant::now();
    let mut bytes = Vec::new();
    stamp(rec, "store.encode", root, || {
        bytes = nexus_store::encode_table(&dataset.table)
    });
    let encode_ns = encode_start.elapsed().as_nanos() as u64;
    let mut io = Ok(());
    stamp(rec, "store.write", root, || {
        io = std::fs::write(&table_path, &bytes)
            .and_then(|()| nexus_kg::write_kg_path(&dataset.kg, &kg_path))
    });
    io.map_err(|e| format!("writing the dataset files: {e}"))?;

    let server = Server::new(server_opts.clone());
    server
        .add_dataset_from_store(
            DATASET,
            &table_path,
            Some(kg_path),
            dataset.extraction_columns.clone(),
        )
        .map_err(|e| format!("registering: {e}"))?;
    let socket = dir.join("nexus.sock");
    let thread = {
        let server = server.clone();
        let socket = socket.clone();
        std::thread::spawn(move || server.serve_unix(socket))
    };
    let running = Running {
        server,
        socket,
        thread,
    };
    let waited = Instant::now();
    let mut sessions = Vec::new();
    while sessions.len() < SESSIONS {
        match Session::connect_unix(&running.socket) {
            Ok(s) => sessions.push(s),
            Err(_) if waited.elapsed() < Duration::from_secs(10) => {
                std::thread::sleep(Duration::from_millis(1))
            }
            Err(e) => return Err(format!("connecting: {e}")),
        }
    }

    // First touch makes a lazily registered dataset resident before the
    // query is parsed, so a request with an empty query materializes the
    // dataset and is then refused as a bad query.
    let probe = Instant::now();
    let id = rec.open("registry.materialize", 0, Some(root));
    let reply = sessions[0]
        .submit(&ExplainCall::new(DATASET, ""))
        .and_then(|t| t.wait());
    rec.close(id, Vec::new());
    let materialize_ns = probe.elapsed().as_nanos() as u64;
    match reply {
        Err(ClientError::Server(e)) if e.code == error_code::BAD_QUERY => {}
        other => return Err(format!("materialize probe: unexpected reply {other:?}")),
    }
    if running.server.dataset_kg_entities(DATASET).is_none() {
        return Err("dataset is not resident after the first request".into());
    }
    rec.close(root, Vec::new());
    Ok(Setup {
        dataset,
        running,
        sessions,
        stats: SetupStats {
            seconds: t0.elapsed().as_secs_f64(),
            encode_ns,
            nxcol_bytes: bytes.len(),
            materialize_ns,
        },
    })
}

/// One session's closed loop: the next request of `plan` as soon as the
/// previous one is answered.
fn drive(session: &Session, plan: &[Variant], rec: &Recorder, next_id: &AtomicU64) -> Vec<Sample> {
    let mut samples = Vec::new();
    for &variant in plan {
        let request = next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = rec.now_ns();
        let reply = ask(session, &variant);
        samples.push(Sample {
            variant,
            start_ns,
            end_ns: rec.now_ns(),
            request,
            reply,
        });
    }
    samples
}

fn ask(session: &Session, variant: &Variant) -> Result<Reply, String> {
    session
        .submit(&variant.call())
        .and_then(|t| t.wait())
        .map(|r| Reply {
            digest: Digest::of_wire(&r.explanation),
            cache_hit: r.stats.cache_hit,
            queue_ns: r.stats.queue_nanos,
            service_ns: r.stats.service_nanos,
        })
        .map_err(|e| e.to_string())
}

/// Server-wide counters read over a session; process-global kernel and
/// memo counters are only meaningful as whole-phase deltas.
fn metric_map(session: &Session) -> BTreeMap<String, u64> {
    session
        .metrics()
        .map(|m| m.into_iter().map(|m| (m.name, m.value)).collect())
        .unwrap_or_default()
}

fn delta(after: &BTreeMap<String, u64>, before: &BTreeMap<String, u64>, name: &str) -> u64 {
    let get = |m: &BTreeMap<String, u64>| m.get(name).copied().unwrap_or(0);
    get(after).saturating_sub(get(before))
}

/// Runs `serve-mixed`; with `trace_path`, records spans and reports the
/// per-layer metrics instead of the end-to-end ones.
pub fn run(seed: u64, seconds: u64, trace_path: Option<&str>) -> Result<Outcome, String> {
    let dir = PathBuf::from(format!(".nexbench/serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let result = run_in(&dir, seed, seconds, trace_path);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(
    dir: &Path,
    seed: u64,
    seconds: u64,
    trace_path: Option<&str>,
) -> Result<Outcome, String> {
    let server_opts = ServerOptions {
        nexus: options(threads()),
        trace_capacity: 0,
        ..ServerOptions::default()
    };
    let mut rec = Recorder::new();
    let mut setups = Vec::new();
    for i in 0..SETUPS {
        let s = setup(dir, &server_opts, &mut rec)?;
        setups.push(s.stats);
        if i + 1 == SETUPS {
            return measure(dir, s, setups, seed, seconds, trace_path, rec);
        }
        drop(s.sessions);
        s.running.stop()?;
    }
    unreachable!("SETUPS is at least one")
}

#[allow(clippy::too_many_arguments)]
fn measure(
    dir: &Path,
    s: Setup,
    setups: Vec<SetupStats>,
    seed: u64,
    seconds: u64,
    trace_path: Option<&str>,
    mut rec: Recorder,
) -> Result<Outcome, String> {
    // Fill the result cache with the base queries the repeater asks.
    let mut primed = Vec::new();
    for (q, name) in QUERIES.iter().enumerate() {
        let variant = Variant::base(q);
        match ask(&s.sessions[1], &variant) {
            Ok(r) if !r.cache_hit => primed.push((variant, r.digest)),
            other => return Err(format!("priming {name}: {:?}", other.map(|r| r.cache_hit))),
        }
    }
    let traced = trace_path.is_some();
    let before = if traced {
        metric_map(&s.sessions[0])
    } else {
        BTreeMap::new()
    };
    // Both sessions ask fixed plans: the explorer whole rounds, the
    // repeater one hit a round. The measured phase ends when both are
    // answered.
    let mut explorer_plan = explorer(seed);
    explorer_plan.truncate(explorer_rounds(seconds) * ROUND.len());
    let repeater_plan = repeater(seed, explorer_plan.len());
    let next_id = AtomicU64::new(1);
    let t0 = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let rec = &rec;
        let next_id = &next_id;
        let sessions = &s.sessions;
        let explorer = scope.spawn(move || drive(&sessions[0], &explorer_plan, rec, next_id));
        let repeater = scope.spawn(move || drive(&sessions[1], &repeater_plan, rec, next_id));
        let mut all = explorer.join().expect("explorer thread panicked");
        all.extend(repeater.join().expect("repeater thread panicked"));
        all
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let after = if traced {
        metric_map(&s.sessions[0])
    } else {
        BTreeMap::new()
    };
    let Setup {
        dataset,
        running,
        sessions,
        ..
    } = s;
    drop(sessions);
    running.stop()?;

    // Reference digests: each distinct request's stored in-process digest.
    let mut references: BTreeMap<Variant, Option<Digest>> = BTreeMap::new();
    let asked = primed
        .iter()
        .map(|(v, _)| *v)
        .chain(samples.iter().map(|s| s.variant));
    for variant in asked {
        references.entry(variant).or_insert_with(|| {
            let stored = references::stored(NAME, &variant.label());
            if stored.is_none() {
                eprintln!(
                    "nexbench: no stored reference for {NAME} {}",
                    variant.label()
                );
            }
            stored
        });
    }
    let base = options(threads());
    let mut out = Outcome::default();
    for (variant, digest) in &primed {
        if Some(digest) != references[variant].as_ref() {
            out.failed += 1;
            eprintln!(
                "nexbench: primed {} differs from the stored reference",
                variant.label()
            );
        }
    }
    let mut all = Vec::new();
    let mut cold = Vec::new();
    let mut hits = Vec::new();
    let mut queue = Vec::new();
    let mut service = Vec::new();
    let mut transport = Vec::new();
    let mut cold_by_query = vec![Vec::new(); QUERIES.len()];
    for sample in &samples {
        out.attempted += 1;
        let lat_ns = sample.end_ns - sample.start_ns;
        let reply = match &sample.reply {
            Ok(r) if Some(&r.digest) == references[&sample.variant].as_ref() => r,
            Ok(r) => {
                out.failed += 1;
                eprintln!(
                    "nexbench: {} served digest {} differs from the stored reference",
                    sample.variant.label(),
                    r.digest.short()
                );
                continue;
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("nexbench: {} failed: {e}", sample.variant.label());
                continue;
            }
        };
        let lat = ms(lat_ns);
        all.push(lat);
        if reply.cache_hit {
            hits.push(lat);
        } else {
            cold.push(lat);
            cold_by_query[sample.variant.query].push(lat);
            queue.push(ms(reply.queue_ns));
            service.push(ms(reply.service_ns));
        }
        // Service time includes queueing; the rest is client, wire and
        // socket time.
        transport.push(ms(lat_ns.saturating_sub(reply.service_ns)));
    }
    for (q, lats) in QUERIES.iter().zip(&cold_by_query) {
        println!(
            "request {q} cold_p50_ms {:.3} samples {}",
            median(lats).unwrap_or(0.0),
            lats.len()
        );
    }
    println!(
        "served {} requests: {} cold, {} cache hits, {} distinct",
        all.len(),
        cold.len(),
        hits.len(),
        references.len()
    );

    if let Some(path) = trace_path {
        let span_start = Instant::now();
        for sample in &samples {
            rec.push(Span {
                name: "serve.request",
                request: sample.request,
                parent: None,
                start_ns: sample.start_ns,
                end_ns: sample.end_ns,
                counts: match &sample.reply {
                    Ok(r) => vec![
                        ("cache_hit", r.cache_hit as u64),
                        ("queue_ns", r.queue_ns),
                        ("service_ns", r.service_ns),
                    ],
                    Err(_) => vec![("failed", 1)],
                },
            });
        }
        let bookkeeping = span_start.elapsed().as_secs_f64();
        let n = all.len().max(1) as f64;
        let d = |name: &str| delta(&after, &before, name);
        let lookups = hits.len() + cold.len();
        out.set("serve.cache.hits", hits.len() as f64);
        out.set("serve.cache.lookups", lookups as f64);
        out.set(
            "serve.cache.hit_rate",
            hits.len() as f64 / lookups.max(1) as f64,
        );
        out.set("serve.queue_p50_ms", median(&queue).unwrap_or(0.0));
        out.set("serve.service_p50_ms", median(&service).unwrap_or(0.0));
        out.set("serve.transport_p50_ms", median(&transport).unwrap_or(0.0));
        out.set("serve.hit_p50_ms", median(&hits).unwrap_or(0.0));
        out.set("kernel.rows_scanned", d("kernel.rows_scanned") as f64 / n);
        out.set(
            "kernel.rows_per_s",
            d("kernel.rows_scanned") as f64 / elapsed,
        );
        out.set("kernel.hash_ops", d("kernel.hash_ops") as f64 / n);
        out.set("kernel.dense_builds", d("kernel.builds.dense") as f64 / n);
        out.set("kernel.narrow_scans", d("kernel.narrow_scans") as f64 / n);
        let memo_hits = d("memo.hits");
        let memo_lookups = memo_hits + d("memo.misses");
        out.set("memo.hits", memo_hits as f64);
        out.set("memo.lookups", memo_lookups as f64);
        out.set(
            "memo.hit_rate",
            memo_hits as f64 / memo_lookups.max(1) as f64,
        );
        out.set("memo.coalesced_waits", d("memo.coalesced_waits") as f64);
        out.set(
            "memo.resident_bytes",
            after.get("memo.resident_bytes").copied().unwrap_or(0) as f64,
        );
        out.set(
            "runtime.pool_tasks",
            d("serve.pool.tasks_scored") as f64 / n,
        );

        let encode: Vec<f64> = setups.iter().map(|x| ms(x.encode_ns)).collect();
        let materialize: Vec<f64> = setups.iter().map(|x| ms(x.materialize_ns)).collect();
        out.set("store.encode_ms", median(&encode).unwrap_or(0.0));
        out.set(
            "registry.materialize_ms",
            median(&materialize).unwrap_or(0.0),
        );
        out.set(
            "store.bytes_per_row",
            setups
                .last()
                .map_or(0.0, |x| x.nxcol_bytes as f64 / ROWS as f64),
        );
        let nxcol = std::fs::read(dir.join("flights.nxcol")).unwrap_or_default();
        let id = rec.open("store.decode", 0, None);
        let decoded = nexus_store::decode_table(&nxcol);
        rec.close(id, Vec::new());
        out.set("store.decode_ms", ms(rec.spans()[id].duration_ns()));
        if decoded.ok().map(|t| t.fingerprint()) != Some(dataset.table.fingerprint()) {
            out.failed += 1;
            eprintln!("nexbench: the packed table does not decode to the generated one");
        }
        // The extraction work the registry does when it materializes.
        let id = rec.open("candidate.extract", 0, None);
        let mut count = 0;
        for column in &dataset.extraction_columns {
            match extract_column(&dataset.table, &dataset.kg, column, &base) {
                Ok(ex) => count += ex.candidates.len(),
                Err(e) => eprintln!("nexbench: extracting {column} failed: {e}"),
            }
        }
        rec.close(id, Vec::new());
        out.set("candidate.build_ms", ms(rec.spans()[id].duration_ns()));
        out.set("candidate.count", count as f64);
        out.set("trace.overhead_share", bookkeeping / elapsed);
        crate::explain::write_trace(path, &rec.to_json(NAME, seed));
    } else {
        let setup_s: Vec<f64> = setups.iter().map(|x| x.seconds).collect();
        out.set("setup_s", median(&setup_s).unwrap_or(0.0));
        out.set("explain_p50_ms", median(&all).unwrap_or(0.0));
        if let Some(t) = tail(&all) {
            println!(
                "explain_tail at p{:.1} over {} samples ({} beyond)",
                t.percentile, t.samples, t.beyond
            );
            out.set("explain_tail_ms", t.value);
        }
        out.set("explanations_per_s", all.len() as f64 / elapsed);
        out.set("cold_p50_ms", median(&cold).unwrap_or(0.0));
        println!(
            "hit_p50_ms {} over {} hits",
            median(&hits).unwrap_or(0.0),
            hits.len()
        );
        out.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    }
    Ok(out)
}
