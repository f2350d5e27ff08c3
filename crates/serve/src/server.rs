//! The resident explanation server.
//!
//! A [`Server`] hosts a registry of named datasets (table + knowledge
//! graph + extraction columns) — handed over in memory
//! ([`Server::add_dataset`]) or backed by NXCOL store files
//! ([`Server::add_dataset_from_store`], lazily materialized) — mines each extraction
//! column's KG candidates once per materialization
//! ([`nexus_core::extract_column`]), and then answers NEXUSRPC `Explain`
//! requests for the lifetime of the process:
//!
//! * requests run the query-dependent pipeline stages via
//!   [`Nexus::run_controlled`] over the resident extractions
//!   ([`ExplainRequest::extractions`]), whose candidate scoring executes
//!   on the `nexus-runtime` scoped pool;
//! * one [`MemoStore`], bounded by [`ServerOptions::max_resident_bytes`],
//!   holds everything kept between requests: the materialized datasets,
//!   their KG extractions, the sub-query units, and the encoded
//!   deterministic explanation bytes keyed by (dataset fingerprint,
//!   options fingerprint, canonical query signature). A result hit echoes
//!   the stored bytes verbatim, so hot replies are **byte-identical** to
//!   cold ones and skip candidate scoring entirely (`scored_tasks == 0`
//!   in the reply stats); an identical request arriving while one is in
//!   flight waits for its bytes instead of running the pipeline again;
//! * a [`nexus_runtime::Semaphore`] bounds concurrent pipeline runs; time
//!   spent waiting for a slot is reported as `queue_nanos`.
//!
//! [`Server::handle`] is a pure frame→frame function, so the full request
//! path is testable in-process; [`Server::serve_unix`] and
//! [`Server::serve_tcp`] wrap it in thread-per-connection socket loops.
//!
//! ## Connection governance
//!
//! The socket loops are bounded in every dimension a misbehaving peer
//! could otherwise exhaust:
//!
//! * **connections** — at most [`ServerOptions::max_connections`] handler
//!   threads run at once; an over-limit accept gets a one-shot
//!   [`error_code::BUSY`] reply (clients retry with jittered backoff) and
//!   is closed, never queued;
//! * **time** — reads run under [`read_frame_deadline`]: an idle
//!   connection is dropped after [`ServerOptions::io_timeout`] with an
//!   [`error_code::TIMEOUT`] reply, and a frame that starts but does not
//!   complete within the same budget (slow loris) is dropped too; writes
//!   carry the same timeout;
//! * **memory** — a header declaring more than
//!   [`crate::wire::MAX_PAYLOAD`] is refused before any payload is read,
//!   with an [`error_code::FRAME_TOO_LARGE`] reply;
//! * **shutdown** — `Shutdown` stops accepting, lets in-flight requests
//!   finish writing their replies, and joins every handler thread (up to
//!   [`ServerOptions::drain_timeout`]); idle handlers notice the abort
//!   flag within one deadline tick.
//!
//! Every enforcement action increments a counter reported in
//! [`Frame::StatsReply`], so tests assert governance outcomes on counters
//! rather than wall-clock timing.
//!
//! ## Telemetry
//!
//! Every server counter lives in a per-server `nexus-telemetry`
//! [`MetricsRegistry`] under a stable dotted name (`serve.cache.hits`,
//! `serve.rpc.ooo_replies`, …); process-global families (the counting
//! kernel) and component gauges (dataset registry, connection semaphore,
//! result cache) are bridged in at snapshot time, as deltas since server
//! construction where that is what `StatsReply` always reported.
//! [`Server::stats`] itself is fed **from** the registry
//! ([`ServerStatsWire::from_metrics`]) so the legacy fixed-field frame
//! stays byte-compatible while the registry is the single source of
//! truth; [`Server::metrics_snapshot`] exposes the full sorted snapshot
//! behind [`Frame::MetricsRequest`]. Each explain additionally records a
//! span trace (stage boundaries from the [`RunControl`] hooks, counted in
//! kernel builds — deterministic — plus monotonic durations for humans)
//! into a bounded [`TraceRing`] served by [`Frame::TraceRequest`];
//! [`ServerOptions::trace_capacity`] sizes the ring (0 disables tracing
//! entirely).

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nexus_core::memo::{Claim, MemoValue, WaitOutcome};
use nexus_core::{
    ColumnExtraction, CoreError, ExplainRequest, Explanation, MemoHandle, MemoKey, MemoKind,
    MemoStore, Nexus, NexusOptions, ProgressEvent, RunControl,
};
use nexus_kg::KnowledgeGraph;
use nexus_query::parse;
use nexus_runtime::Semaphore;
use nexus_table::Table;
use nexus_telemetry::{
    Counter, Gauge, Histogram, MetricValue, Registry as MetricsRegistry, TraceBuilder, TraceRing,
};

use crate::net::{deadline_tick, read_envelope_deadline, DeadlineStream, ReadError};
use crate::registry::{DatasetRegistry, DatasetSource, DatasetSpec, RegistryError};
use crate::wire::{
    encode_parts_into, error_code, v2, write_frame, DatasetAckWire, DatasetListWire, Envelope,
    ErrorWire, EvictDatasetWire, ExplainRequestWire, ExplanationReplyWire, ExplanationWire, Frame,
    HelloAckWire, LinkStatsWire, LoadDatasetWire, MetricWire, MetricsReplyWire, PartialWire,
    ProgressWire, ServeStatsWire, ServerStatsWire, SpanWire, TraceReplyWire, TraceWire,
    UnsupportedWire, WireError, MAX_VERSION, VERSION,
};

/// Server failures (setup and socket loops; per-request failures travel
/// back to the client as [`Frame::Error`]).
#[derive(Debug)]
pub enum ServeError {
    /// Dataset registration failed (bad column, pipeline rejection, …).
    Core(nexus_core::CoreError),
    /// Socket-level failure.
    Io(std::io::Error),
    /// A dataset store file or knowledge-graph TSV could not be loaded
    /// (I/O, NXCOL validation, or KG parse failure).
    Store(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Core(e) => write!(f, "pipeline error: {e}"),
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Store(msg) => write!(f, "store error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<nexus_core::CoreError> for ServeError {
    fn from(e: nexus_core::CoreError) -> Self {
        ServeError::Core(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Pipeline options shared by every request (their fingerprint is part
    /// of the cache key).
    pub nexus: NexusOptions,
    /// Maximum pipeline runs in flight; further requests queue.
    pub max_concurrent: usize,
    /// Maximum simultaneously served connections. An over-limit accept is
    /// answered with a one-shot [`error_code::BUSY`] reply and closed —
    /// never queued — so a connection flood cannot pile up handler
    /// threads.
    pub max_connections: usize,
    /// Per-connection I/O budget: the idle timeout between frames, the
    /// per-frame read budget (first byte → complete envelope), and the
    /// write timeout for replies.
    pub io_timeout: Duration,
    /// How long shutdown waits for in-flight handler threads before
    /// detaching the stragglers.
    pub drain_timeout: Duration,
    /// Most `Explain` requests a single v2 connection may hold in flight;
    /// further submissions draw an [`error_code::BUSY`] reply for their
    /// correlation id (the connection survives).
    pub max_inflight: usize,
    /// Byte budget of the one store that holds everything kept between
    /// requests — resident datasets, KG extractions, sub-query units and
    /// finished explanations (see [`nexus_core::MemoStore`]); `0` =
    /// unbounded. Past it, least-recently-used entries are evicted; an
    /// evicted dataset keeps its registration and re-materializes on
    /// demand, an evicted explanation is recomputed.
    pub max_resident_bytes: u64,
    /// Most recent request span traces retained for [`Frame::TraceRequest`]
    /// (0 disables span recording entirely; the hot path then pays
    /// nothing). Past capacity the oldest trace is dropped and the
    /// `trace.evicted` counter increments — memory stays bounded.
    pub trace_capacity: usize,
}

/// The default [`ServerOptions::max_resident_bytes`]: 1 GiB. One
/// full-scale Flights dataset (5,819,079 rows) is charged 385 MiB; with
/// 256 MiB of memoized sub-queries and results on top, that rounds up to
/// the next power of two. DESIGN.md §10 records the measurement.
pub const DEFAULT_MAX_RESIDENT_BYTES: u64 = 1 << 30;

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            nexus: NexusOptions::default(),
            max_concurrent: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2),
            max_connections: 64,
            io_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(5),
            max_inflight: 128,
            max_resident_bytes: DEFAULT_MAX_RESIDENT_BYTES,
            trace_capacity: 64,
        }
    }
}

/// A finished-handler signal shared between handler threads and the
/// accept loop: handlers push their id and notify; the loop reaps.
#[derive(Default)]
struct DoneList {
    finished: Mutex<Vec<u64>>,
    signal: Condvar,
}

impl DoneList {
    fn finished(&self) -> std::sync::MutexGuard<'_, Vec<u64>> {
        self.finished.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A handler's completion signal, sent when dropped — on return and
/// during a panic's unwind alike — so a panicking handler is still
/// reaped and still leaves the live-handler gauge.
struct Finished {
    id: u64,
    done: Arc<DoneList>,
    live: Gauge,
}

impl Drop for Finished {
    fn drop(&mut self) {
        self.live.sub(1);
        self.done.finished().push(self.id);
        self.done.signal.notify_all();
    }
}

/// The accept loop's ledger of live handler threads. Finished handlers
/// announce themselves on the [`DoneList`], so the loop joins them as it
/// goes (no unbounded `Vec<JoinHandle>` growth) and [`Registry::drain`]
/// can wait for the stragglers at shutdown without busy-polling.
struct Registry {
    next_id: u64,
    handlers: HashMap<u64, JoinHandle<()>>,
    done: Arc<DoneList>,
    /// Live handler threads (`serve.handlers.live`).
    live: Gauge,
}

impl Registry {
    fn new(live: Gauge) -> Registry {
        Registry {
            next_id: 0,
            handlers: HashMap::new(),
            done: Arc::new(DoneList::default()),
            live,
        }
    }

    /// Spawns a handler thread that counts itself live until it
    /// announces its completion, panic or not. Whatever `f` returns is
    /// dropped after the announcement.
    fn spawn<T: 'static>(&mut self, f: impl FnOnce() -> T + Send + 'static) {
        let id = self.next_id;
        self.next_id += 1;
        self.live.add(1);
        let finished = Finished {
            id,
            done: Arc::clone(&self.done),
            live: self.live.clone(),
        };
        let handle = std::thread::spawn(move || {
            let held = f();
            drop(finished);
            drop(held);
        });
        self.handlers.insert(id, handle);
    }

    /// Joins every handler that has announced completion. Returns the
    /// number joined.
    fn reap(&mut self) -> usize {
        let finished: Vec<u64> = std::mem::take(&mut *self.done.finished());
        let mut joined = 0;
        for id in finished {
            if let Some(handle) = self.handlers.remove(&id) {
                let _ = handle.join();
                joined += 1;
            }
        }
        joined
    }

    /// Joins handlers as they finish until none remain or `timeout`
    /// elapses; remaining handlers are detached. Returns `(joined,
    /// detached)`.
    fn drain(&mut self, timeout: Duration) -> (usize, usize) {
        let deadline = Instant::now() + timeout;
        let mut joined = self.reap();
        while !self.handlers.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            {
                let list = self.done.finished();
                if list.is_empty() {
                    // Wait for the next completion announcement (or
                    // deadline).
                    let _ = self.done.signal.wait_timeout(list, deadline - now);
                }
            }
            joined += self.reap();
        }
        let detached = self.handlers.len();
        self.handlers.clear(); // dropping a JoinHandle detaches the thread
        (joined, detached)
    }
}

/// Hot-path handles into the server's metrics registry, looked up once at
/// construction so request paths pay a single atomic op per event (never a
/// name hash). The dotted names are the public contract: they are what
/// `MetricsReply` reports and what [`ServerStatsWire::metrics`] maps the
/// legacy fixed fields onto.
struct ServeMetrics {
    hits: Counter,
    misses: Counter,
    requests: Counter,
    io_timeouts: Counter,
    oversize_frames: Counter,
    drained_handlers: Counter,
    live_handlers: Gauge,
    /// Highest simultaneous in-flight count seen on any v2 connection.
    inflight_peak: Gauge,
    ooo_replies: Counter,
    cancels_honored: Counter,
    partials_streamed: Counter,
    workspace_reuse_hits: Counter,
    /// v2 request workers that panicked and were answered with
    /// [`error_code::INTERNAL`].
    panics: Counter,
    /// Pool tasks scored across all cold explains (the per-request value
    /// travels in [`ServeStatsWire`]).
    pool_tasks: Counter,
    queue_nanos: Histogram,
    service_nanos: Histogram,
}

impl ServeMetrics {
    fn new(registry: &MetricsRegistry) -> ServeMetrics {
        ServeMetrics {
            hits: registry.counter("serve.cache.hits"),
            misses: registry.counter("serve.cache.misses"),
            requests: registry.counter("serve.requests.served"),
            io_timeouts: registry.counter("serve.io.timeouts"),
            oversize_frames: registry.counter("serve.frames.oversize"),
            drained_handlers: registry.counter("serve.handlers.drained"),
            live_handlers: registry.gauge("serve.handlers.live"),
            inflight_peak: registry.gauge("serve.rpc.inflight_peak"),
            ooo_replies: registry.counter("serve.rpc.ooo_replies"),
            cancels_honored: registry.counter("serve.rpc.cancels_honored"),
            partials_streamed: registry.counter("serve.rpc.partials_streamed"),
            workspace_reuse_hits: registry.counter("serve.rpc.workspace_reuse_hits"),
            panics: registry.counter("serve.panics"),
            pool_tasks: registry.counter("serve.pool.tasks_scored"),
            queue_nanos: registry.histogram("serve.request.queue_nanos"),
            service_nanos: registry.histogram("serve.request.service_nanos"),
        }
    }
}

struct Inner {
    registry: DatasetRegistry,
    nexus: Nexus,
    options_fp: u64,
    /// Bounds concurrent pipeline runs; requests queue on it.
    gate: Semaphore,
    /// Bounds concurrent connections; over-limit accepts are rejected with
    /// `Busy`, never queued. Its admitted/rejected counters feed
    /// `conns_accepted`/`busy_rejections` in [`ServerStatsWire`].
    conns: Arc<Semaphore>,
    io_timeout: Duration,
    drain_timeout: Duration,
    max_inflight: usize,
    /// This server's metrics registry. Per-server (not process-global) so
    /// servers coexisting in one test process never mix counters; the
    /// process-global kernel family is bridged in as a delta against
    /// `kernel_baseline` at snapshot time.
    metrics: MetricsRegistry,
    /// Pre-resolved hot-path handles into `metrics`.
    m: ServeMetrics,
    /// Bounded ring of finished request span traces.
    traces: TraceRing,
    /// The one store behind every request and the registry: datasets,
    /// extractions, sub-query units and finished explanations, a
    /// byte-budgeted LRU with single-flight admission.
    memo: Arc<MemoStore>,
    shutdown: AtomicBool,
    /// Counting-kernel counters at server construction; `stats()` reports
    /// movement since then, not since process start.
    kernel_baseline: nexus_info::KernelSnapshot,
    /// Test hook: the next cold explain panics once it holds its pipeline
    /// slot.
    #[cfg(test)]
    panic_next_explain: AtomicBool,
}

/// The resident explanation server. Cheap to clone (shared state behind an
/// [`Arc`]); clones serve the same datasets, cache, and counters.
#[derive(Clone)]
pub struct Server {
    inner: Arc<Inner>,
}

impl Server {
    /// A server with the given options and no datasets.
    pub fn new(options: ServerOptions) -> Server {
        let options_fp = options.nexus.fingerprint();
        let metrics = MetricsRegistry::new();
        let m = ServeMetrics::new(&metrics);
        let memo = Arc::new(MemoStore::new(options.max_resident_bytes));
        Server {
            inner: Arc::new(Inner {
                registry: DatasetRegistry::new(Arc::clone(&memo)),
                nexus: Nexus::new(options.nexus),
                options_fp,
                gate: Semaphore::new(options.max_concurrent),
                conns: Arc::new(Semaphore::new(options.max_connections)),
                io_timeout: options.io_timeout,
                drain_timeout: options.drain_timeout,
                max_inflight: options.max_inflight.max(1),
                metrics,
                m,
                traces: TraceRing::new(options.trace_capacity),
                memo,
                shutdown: AtomicBool::new(false),
                kernel_baseline: nexus_info::kernel::counters().snapshot(),
                #[cfg(test)]
                panic_next_explain: AtomicBool::new(false),
            }),
        }
    }

    /// Registers a dataset under `name` and materializes it eagerly,
    /// mining each extraction column's KG candidates once so subsequent
    /// requests only run the query-dependent pipeline stages. Replaces
    /// any dataset of the same name.
    pub fn add_dataset(
        &self,
        name: impl Into<String>,
        table: Table,
        kg: KnowledgeGraph,
        extraction_columns: Vec<String>,
    ) -> Result<(), ServeError> {
        let name = name.into();
        self.inner.registry.register(
            name.clone(),
            DatasetSpec {
                source: DatasetSource::Memory {
                    table: Arc::new(table),
                    kg: Arc::new(kg),
                },
                extraction_columns,
            },
        );
        self.inner
            .registry
            .ensure_resident(&name, &self.inner.nexus.options)
            .map(|_| ())
            .map_err(registry_to_serve)
    }

    /// Registers a store-backed dataset under `name`: `table_path` must
    /// be an NXCOL file (its header is validated now, so typos and
    /// corruption surface immediately) and `kg_path` an optional KG TSV.
    /// The table, the graph, and the KG extraction artifacts are
    /// materialized lazily, on the first request that needs them.
    /// Replaces any dataset of the same name.
    pub fn add_dataset_from_store(
        &self,
        name: impl Into<String>,
        table_path: impl Into<PathBuf>,
        kg_path: Option<PathBuf>,
        extraction_columns: Vec<String>,
    ) -> Result<(), ServeError> {
        let table_path = table_path.into();
        nexus_store::inspect_path(&table_path)
            .map_err(|e| ServeError::Store(format!("{}: {e}", table_path.display())))?;
        self.inner.registry.register(
            name.into(),
            DatasetSpec {
                source: DatasetSource::Store {
                    table_path,
                    kg_path,
                },
                extraction_columns,
            },
        );
        Ok(())
    }

    /// Names of the registered datasets (sorted; resident or not).
    pub fn dataset_names(&self) -> Vec<String> {
        self.inner.registry.names()
    }

    /// Entity count of a dataset's knowledge graph, if its artifacts are
    /// currently materialized.
    pub fn dataset_kg_entities(&self, name: &str) -> Option<usize> {
        self.inner.registry.kg_entities(name)
    }

    /// Extraction columns of a registered dataset.
    pub fn dataset_extraction_columns(&self, name: &str) -> Option<Vec<String>> {
        self.inner.registry.extraction_columns(name)
    }

    /// Whether a shutdown request has been received.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Cumulative server statistics — the legacy fixed-field frame, built
    /// **from** the metrics registry ([`ServerStatsWire::from_metrics`])
    /// so every one of its counters is reachable by name through
    /// [`Server::metrics_snapshot`] and the two can never disagree.
    pub fn stats(&self) -> ServerStatsWire {
        let snap = self.metrics_snapshot();
        ServerStatsWire::from_metrics(|name| {
            snap.binary_search_by(|m| m.name.as_str().cmp(name))
                .map(|i| snap[i].value)
                .unwrap_or(0)
        })
    }

    /// Folds component state the registry does not own — the
    /// process-global kernel counters (as deltas since server
    /// construction), the connection semaphore, the store, the dataset
    /// registry, and the trace ring — into bridge gauges, so one
    /// registry snapshot describes the whole server.
    fn bridge_component_metrics(&self) {
        let r = &self.inner.metrics;
        let kernel = nexus_info::kernel::counters()
            .snapshot()
            .delta(&self.inner.kernel_baseline);
        r.gauge("kernel.rows_scanned").set(kernel.rows_scanned);
        r.gauge("kernel.hash_ops").set(kernel.hash_ops);
        r.gauge("kernel.dense_ops").set(kernel.dense_ops);
        r.gauge("kernel.builds.dense").set(kernel.dense_builds);
        r.gauge("kernel.builds.sparse").set(kernel.sparse_builds);
        r.gauge("kernel.narrow_scans").set(kernel.narrow_scans);
        r.gauge("kernel.packed_words_skipped")
            .set(kernel.packed_words_skipped);
        r.gauge("kernel.merge.radix_cells")
            .set(kernel.radix_merge_cells);
        r.gauge("kernel.merge.full_cells")
            .set(kernel.full_merge_cells);
        r.gauge("kernel.builds.w8").set(kernel.builds_w8);
        r.gauge("kernel.builds.w16").set(kernel.builds_w16);
        r.gauge("kernel.builds.w32").set(kernel.builds_w32);
        r.gauge("kernel.builds.w64").set(kernel.builds_w64);
        r.gauge("kernel.builds.w128").set(kernel.builds_w128);
        r.gauge("memo.hits").set(kernel.memo_hits_total());
        r.gauge("memo.misses").set(kernel.memo_misses_total());
        r.gauge("memo.inserts").set(kernel.memo_inserts_total());
        r.gauge("memo.evictions").set(kernel.memo_evictions_total());
        r.gauge("memo.coalesced_waits")
            .set(kernel.memo_coalesced_waits);
        for kind in MemoKind::ALL {
            let i = kind as usize;
            r.gauge(&format!("memo.hits.{}", kind.label()))
                .set(kernel.memo_hits[i]);
            r.gauge(&format!("memo.misses.{}", kind.label()))
                .set(kernel.memo_misses[i]);
        }
        let memo = &self.inner.memo;
        r.gauge("memo.resident_bytes").set(memo.resident_bytes());
        r.gauge("memo.resident_entries")
            .set(memo.resident_entries() as u64);
        r.gauge("memo.max_bytes").set(memo.max_bytes());
        r.gauge("serve.cache.entries")
            .set(memo.usage(MemoKind::Result).entries);
        r.gauge("serve.conns.accepted")
            .set(self.inner.conns.admitted());
        r.gauge("serve.conns.busy_rejections")
            .set(self.inner.conns.rejected());
        let reg = &self.inner.registry;
        let datasets = memo.usage(MemoKind::Dataset);
        r.gauge("registry.datasets.registered")
            .set(reg.registered());
        r.gauge("registry.datasets.resident").set(datasets.entries);
        r.gauge("registry.datasets.loaded").set(reg.loads());
        r.gauge("registry.datasets.evicted")
            .set(datasets.evictions + reg.evictions());
        r.gauge("registry.store.bytes").set(datasets.bytes);
        r.gauge("registry.extraction.builds")
            .set(reg.extraction_builds());
        r.gauge("registry.fingerprint")
            .set(reg.combined_fingerprint());
        let traces = &self.inner.traces;
        r.gauge("trace.capacity").set(traces.capacity() as u64);
        r.gauge("trace.recorded").set(traces.recorded());
        r.gauge("trace.evicted").set(traces.evicted());
        r.gauge("trace.resident").set(traces.len() as u64);
    }

    /// The full metrics snapshot behind [`Frame::MetricsRequest`]: every
    /// registered metric, sorted by name — registry iteration order, the
    /// order sorted `--stats` output prints in.
    pub fn metrics_snapshot(&self) -> Vec<MetricValue> {
        self.bridge_component_metrics();
        self.inner.metrics.snapshot()
    }

    /// Answers a `MetricsRequest` with the sorted self-describing
    /// name→value snapshot.
    fn metrics_reply(&self) -> Frame {
        Frame::MetricsReply(MetricsReplyWire {
            metrics: self
                .metrics_snapshot()
                .into_iter()
                .map(|m| MetricWire {
                    name: m.name,
                    kind: m.kind.as_u8(),
                    value: m.value,
                })
                .collect(),
        })
    }

    /// The most recent `last` recorded span trees, newest first (fewer
    /// if the ring holds less).
    pub fn traces(&self, last: usize) -> Vec<nexus_telemetry::Trace> {
        self.inner.traces.last(last)
    }

    /// Answers a `TraceRequest` with the most recent `last` span trees,
    /// newest first.
    fn trace_reply(&self, last: u32) -> Frame {
        Frame::TraceReply(TraceReplyWire {
            traces: self
                .traces(last as usize)
                .into_iter()
                .map(|t| TraceWire {
                    corr_id: t.corr_id,
                    spans: t
                        .spans
                        .into_iter()
                        .map(|s| SpanWire {
                            name: s.name,
                            depth: s.depth,
                            count: s.count,
                            duration_nanos: s.duration_nanos,
                        })
                        .collect(),
                })
                .collect(),
        })
    }

    /// Traces recorded / evicted by the span ring — the bounded-memory
    /// proof counters (`trace.recorded`, `trace.evicted`).
    pub fn trace_counts(&self) -> (u64, u64) {
        (self.inner.traces.recorded(), self.inner.traces.evicted())
    }

    /// Answers one request frame — the full in-process request path, used
    /// by the socket loops and directly by tests.
    pub fn handle(&self, frame: Frame) -> Frame {
        match frame {
            Frame::Ping => Frame::Pong,
            Frame::Stats => Frame::StatsReply(self.stats()),
            Frame::Shutdown => {
                self.inner.shutdown.store(true, Ordering::SeqCst);
                Frame::ShutdownAck
            }
            Frame::Explain(req) => self.explain(&req),
            Frame::LoadDataset(w) => self.load_dataset_frame(&w),
            Frame::EvictDataset(w) => self.evict_dataset_frame(&w),
            Frame::ListDatasets => self.list_datasets_frame(),
            // Reply-only and unknown frames are not requests.
            other => Frame::Unsupported(UnsupportedWire {
                version: VERSION,
                frame_type: other.frame_type(),
                max_supported: VERSION,
            }),
        }
    }

    /// Answers a `LoadDataset`: registers a lazily-materialized
    /// store-backed dataset (the NXCOL header is validated immediately).
    fn load_dataset_frame(&self, w: &LoadDatasetWire) -> Frame {
        if self.is_shutting_down() {
            return error(error_code::SHUTTING_DOWN, "server is shutting down");
        }
        let kg_path = (!w.kg_path.is_empty()).then(|| PathBuf::from(&w.kg_path));
        match self.add_dataset_from_store(
            &w.name,
            PathBuf::from(&w.table_path),
            kg_path,
            w.extraction_columns.clone(),
        ) {
            Ok(()) => Frame::DatasetAck(DatasetAckWire {
                name: w.name.clone(),
                resident: false,
            }),
            Err(e) => error(error_code::STORE, e.to_string()),
        }
    }

    /// Answers an `EvictDataset`: drops resident artifacts, keeps the
    /// registration.
    fn evict_dataset_frame(&self, w: &EvictDatasetWire) -> Frame {
        match self.inner.registry.evict(&w.name) {
            Ok(_) => Frame::DatasetAck(DatasetAckWire {
                name: w.name.clone(),
                resident: false,
            }),
            Err(RegistryError::Unknown(_)) => error(
                error_code::UNKNOWN_DATASET,
                format!("no dataset named {:?}", w.name),
            ),
            Err(e) => error(error_code::STORE, e.to_string()),
        }
    }

    /// Answers a `ListDatasets` with the sorted registry listing.
    fn list_datasets_frame(&self) -> Frame {
        Frame::DatasetList(DatasetListWire {
            datasets: self.inner.registry.list(),
        })
    }

    fn explain(&self, req: &ExplainRequestWire) -> Frame {
        // v1 carries no correlation id; its traces record corr 0.
        self.explain_traced(req, 0, RunControl::none())
    }

    /// Current deterministic span work count: counting-kernel builds so
    /// far (dense + sparse). Build counts are one-per-statistic and thus
    /// invariant under pool thread count and row chunking — the property
    /// the span determinism test rests on. (Under concurrent traffic the
    /// process-global counter attributes overlapping requests' builds to
    /// whichever span is open — traces are diagnostics, not ledgers.)
    fn span_count_now() -> u64 {
        let snap = nexus_info::kernel::counters().snapshot();
        snap.dense_builds + snap.sparse_builds
    }

    /// [`Server::explain_ctl`] wrapped in span recording: stage
    /// transitions observed at the [`RunControl`] progress hooks open and
    /// close spans (durations monotonic, counts from
    /// [`Server::span_count_now`]), and the finished trace — rooted at an
    /// `explain` span — lands in the bounded ring. With
    /// [`ServerOptions::trace_capacity`] 0 this is exactly
    /// [`Server::explain_ctl`]: no builder, no extra hook work, and the
    /// explanation bytes are identical either way (the sink only reads).
    fn explain_traced(&self, req: &ExplainRequestWire, corr: u64, ctl: RunControl<'_>) -> Frame {
        if !self.inner.traces.enabled() {
            return self.explain_ctl(req, ctl);
        }
        let builder = TraceBuilder::new(corr, Self::span_count_now());
        let outer = ctl.progress;
        let sink = |event: ProgressEvent| {
            if let ProgressEvent::Stage { stage } = &event {
                builder.enter_stage(stage, Self::span_count_now());
            }
            if let Some(s) = outer {
                s(event);
            }
        };
        let traced = RunControl {
            abort: ctl.abort,
            progress: Some(&sink),
            memo: ctl.memo,
        };
        let reply = self.explain_ctl(req, traced);
        self.inner
            .traces
            .push(builder.finish(Self::span_count_now()));
        reply
    }

    /// The effective [`Nexus`] for a request: `None` when the request
    /// carries no overrides (the resident engine and its fingerprint are
    /// reused), otherwise an engine over the base options with the
    /// request's [`crate::wire::CallOverrides`] applied.
    fn overridden_nexus(&self, req: &ExplainRequestWire) -> Result<Option<Nexus>, Box<Frame>> {
        let o = &req.overrides;
        if o.is_none() {
            return Ok(None);
        }
        let mut opts = self.inner.nexus.options.clone();
        if let Some(k) = o.top_k {
            if k == 0 {
                return Err(Box::new(error(
                    error_code::BAD_QUERY,
                    "top_k override must be at least 1",
                )));
            }
            opts.max_explanation_size = k as usize;
        }
        if let Some(on) = o.weights {
            opts.handle_selection_bias = on;
        }
        if let Some(on) = o.offline_pruning {
            opts.offline_pruning = on;
        }
        if let Some(on) = o.online_pruning {
            opts.online_pruning = on;
        }
        if !o.excluded.is_empty() {
            // Union with the server's base exclusions, canonically ordered
            // so the options fingerprint (and thus the cache key) does not
            // depend on how the client spelled the list.
            opts.excluded_columns.extend(o.excluded.iter().cloned());
            opts.excluded_columns.sort();
            opts.excluded_columns.dedup();
        }
        Ok(Some(Nexus::new(opts)))
    }

    /// [`Server::explain`] under a [`RunControl`]: the abort flag is
    /// polled while queued for a pipeline slot and at every pipeline hook
    /// point (an aborted request answers [`error_code::CANCELLED`] and
    /// caches nothing), and progress events stream to the control's sink.
    fn explain_ctl(&self, req: &ExplainRequestWire, ctl: RunControl<'_>) -> Frame {
        let arrived = Instant::now();
        self.inner.m.requests.add(1);
        if self.is_shutting_down() {
            return error(error_code::SHUTTING_DOWN, "server is shutting down");
        }
        if ctl.check().is_err() {
            return error(error_code::CANCELLED, "request cancelled");
        }
        // Materializes the dataset if it is registered but not resident
        // (first touch after a lazy load or an eviction); a warm dataset
        // is an `Arc` clone.
        let dataset = match self
            .inner
            .registry
            .ensure_resident(&req.dataset, &self.inner.nexus.options)
        {
            Ok(d) => d,
            Err(RegistryError::Unknown(_)) => {
                return error(
                    error_code::UNKNOWN_DATASET,
                    format!("no resident dataset named {:?}", req.dataset),
                )
            }
            Err(RegistryError::Load(msg)) => return error(error_code::STORE, msg),
            Err(RegistryError::Core(e)) => return error(error_code::PIPELINE, e.to_string()),
        };
        let query = match parse(&req.sql) {
            Ok(q) => q,
            Err(e) => return error(error_code::BAD_QUERY, e.to_string()),
        };
        let custom = match self.overridden_nexus(req) {
            Ok(n) => n,
            Err(reply) => return *reply,
        };
        let nexus = custom.as_ref().unwrap_or(&self.inner.nexus);
        let options_fp = custom
            .as_ref()
            .map(|n| n.options.fingerprint())
            .unwrap_or(self.inner.options_fp);
        let key = MemoKey::new(
            MemoKind::Result,
            dataset.fingerprint,
            options_fp,
            0,
            query.canonical_signature(),
        );

        // Fast path: echo the stored bytes verbatim. No pipeline, no pool.
        // An identical request already in flight is waited for, holding no
        // pipeline slot; if it fails, this request is elected to build.
        let memo = &self.inner.memo;
        let ticket = match memo.claim(&key) {
            Claim::Hit(bytes) => return self.stored_reply(bytes, arrived),
            Claim::Build(ticket) => ticket,
            Claim::Wait => match memo.wait(&key) {
                WaitOutcome::Ready(_) if ctl.check().is_err() => {
                    return error(error_code::CANCELLED, "request cancelled")
                }
                WaitOutcome::Ready(bytes) => return self.stored_reply(bytes, arrived),
                WaitOutcome::Build(ticket) => ticket,
            },
        };
        let misses = self.inner.m.misses.add(1);

        // Cold path: wait for a pipeline slot, then run the
        // query-dependent stages over the resident extractions. A
        // cancellable request polls for its slot so a `Cancel` is honored
        // even while queued behind other pipelines.
        let queued = Instant::now();
        let _slot = if ctl.abort.is_some() {
            loop {
                if let Some(slot) = self.inner.gate.try_acquire() {
                    break slot;
                }
                if ctl.check().is_err() {
                    return error(error_code::CANCELLED, "request cancelled while queued");
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        } else {
            self.inner.gate.acquire()
        };
        let queue_nanos = queued.elapsed().as_nanos() as u64;
        #[cfg(test)]
        if self.inner.panic_next_explain.swap(false, Ordering::SeqCst) {
            panic!("injected pipeline fault");
        }

        // Attach the sub-query memo, scoped to this dataset's content
        // fingerprint: concurrent cold requests coalesce onto one builder
        // per sub-computation, warm requests skip the counting pool tasks
        // entirely, and the bytes that come out are identical either way.
        // A cancel, error or panic from here on drops the result ticket,
        // so nothing is cached and a waiter takes over.
        let memo = MemoHandle::new(Arc::clone(memo), dataset.fingerprint);
        let ctl = ctl.with_memo(&memo);
        let refs: Vec<&ColumnExtraction> = dataset.extractions.iter().map(Arc::as_ref).collect();
        let request = ExplainRequest::new()
            .table(&dataset.table)
            .extractions(&refs)
            .query(&query);
        match nexus.run_controlled(&request, ctl) {
            Ok((explanation, _artifacts)) => {
                let bytes = Arc::new(explanation_to_wire(&explanation).encode());
                ticket.publish(bytes.clone(), bytes.len() as u64);
                let service_nanos = arrived.elapsed().as_nanos() as u64;
                self.inner.m.queue_nanos.record(queue_nanos);
                self.inner.m.service_nanos.record(service_nanos);
                self.inner.m.pool_tasks.add(explanation.stats.pool_tasks);
                Frame::Explanation(ExplanationReplyWire {
                    explanation: bytes.as_ref().clone(),
                    stats: ServeStatsWire {
                        cache_hit: false,
                        cache_hits: self.inner.m.hits.get(),
                        cache_misses: misses,
                        scored_tasks: explanation.stats.pool_tasks,
                        queue_nanos,
                        service_nanos,
                    },
                })
            }
            Err(CoreError::Aborted) => error(error_code::CANCELLED, "request cancelled"),
            Err(e) => error(error_code::PIPELINE, e.to_string()),
        }
    }

    /// The reply for a stored result: its bytes verbatim, counted as a
    /// cache hit with no pipeline work.
    fn stored_reply(&self, bytes: MemoValue, arrived: Instant) -> Frame {
        let bytes = bytes
            .downcast::<Vec<u8>>()
            .expect("result entries hold encoded bytes");
        let hits = self.inner.m.hits.add(1);
        let service_nanos = arrived.elapsed().as_nanos() as u64;
        self.inner.m.service_nanos.record(service_nanos);
        Frame::Explanation(ExplanationReplyWire {
            explanation: bytes.as_ref().clone(),
            stats: ServeStatsWire {
                cache_hit: true,
                cache_hits: hits,
                cache_misses: self.inner.m.misses.get(),
                scored_tasks: 0,
                queue_nanos: 0,
                service_nanos,
            },
        })
    }

    /// Serves NEXUSRPC on a Unix socket at `path` until a `Shutdown` frame
    /// arrives. A stale socket file at `path` is removed before binding;
    /// the file is removed again on exit.
    pub fn serve_unix(&self, path: impl AsRef<Path>) -> Result<(), ServeError> {
        let path = path.as_ref();
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        let listener = std::os::unix::net::UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let result = self.accept_loop(|| match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).ok();
                Some(Ok(stream))
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
            Err(e) => Some(Err(e)),
        });
        let _ = std::fs::remove_file(path);
        result
    }

    /// Serves NEXUSRPC on a TCP listener bound to `addr` (use a loopback
    /// address — the protocol is unauthenticated) until a `Shutdown` frame
    /// arrives. Returns the bound address via `on_bound` (useful with port
    /// 0).
    pub fn serve_tcp(
        &self,
        addr: &str,
        on_bound: impl FnOnce(std::net::SocketAddr),
    ) -> Result<(), ServeError> {
        let listener = std::net::TcpListener::bind(addr)?;
        on_bound(listener.local_addr()?);
        listener.set_nonblocking(true)?;
        self.accept_loop(|| match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).ok();
                Some(Ok(stream))
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
            Err(e) => Some(Err(e)),
        })
    }

    /// Polls `accept` until shutdown, spawning one governed handler thread
    /// per admitted connection. Finished handlers are joined as the loop
    /// runs; shutdown drains the rest (bounded by the drain timeout).
    fn accept_loop<S>(
        &self,
        mut accept: impl FnMut() -> Option<std::io::Result<S>>,
    ) -> Result<(), ServeError>
    where
        S: DeadlineStream + Send + 'static,
    {
        let mut registry = Registry::new(self.inner.m.live_handlers.clone());
        let result = loop {
            // Join whatever finished since the last iteration, so the
            // ledger tracks live connections rather than growing forever.
            let reaped = registry.reap();
            self.inner.m.drained_handlers.add(reaped as u64);
            if self.is_shutting_down() {
                break Ok(());
            }
            match accept() {
                Some(Ok(stream)) => match self.inner.conns.try_acquire_owned() {
                    Some(slot) => {
                        let server = self.clone();
                        registry.spawn(move || {
                            server.serve_connection(stream);
                            slot // freed last, after the completion signal
                        });
                    }
                    None => self.reject_busy(stream),
                },
                Some(Err(e)) => break Err(ServeError::Io(e)),
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        let (joined, detached) = registry.drain(self.inner.drain_timeout);
        self.inner.m.drained_handlers.add(joined as u64);
        // Detached handlers (still counted in live_handlers) exceeded the
        // drain timeout; they die with the process.
        let _ = detached;
        result
    }

    /// Tells an over-limit connection it lost the admission race: a
    /// one-shot `Busy` error under a short write timeout, then close.
    fn reject_busy<S: DeadlineStream>(&self, mut stream: S) {
        let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
        let _ = write_frame(
            &mut stream,
            &error(
                error_code::BUSY,
                "connection limit reached; retry with backoff",
            ),
        );
    }

    /// Encodes `frame` as an envelope through the connection's reusable
    /// [`Workspace`] and writes it, folding the workspace's reuse-hit
    /// delta into the server counter.
    fn write_via<S: DeadlineStream>(
        &self,
        stream: &mut S,
        lane: &mut ReplyLane,
        version: u16,
        corr_id: u64,
        frame: &Frame,
    ) -> std::io::Result<()> {
        let bytes = encode_parts_into(version, corr_id, frame, &mut lane.ws);
        let result = stream.write_all(bytes).and_then(|()| stream.flush());
        let delta = lane.ws.reuse_hits() - lane.reported_reuse;
        if delta > 0 {
            self.inner.m.workspace_reuse_hits.add(delta);
            lane.reported_reuse = lane.ws.reuse_hits();
        }
        result
    }

    /// Frame loop over one established connection, governed by the
    /// server's I/O timeouts.
    ///
    /// The **first** well-formed envelope negotiates the protocol: a v1
    /// frame enters the classic one-request-at-a-time loop below, while a
    /// v2 envelope (which must be [`Frame::Hello`]) hands the stream to
    /// the multiplexing loop of [`Server::serve_v2`].
    ///
    /// Malformed envelopes that cannot be skipped safely (bad magic, bad
    /// CRC, truncation) drop the connection; well-formed frames of an
    /// unknown version or type get a [`Frame::Unsupported`] reply and the
    /// stream survives. Idle and slow-loris connections are dropped after
    /// an [`error_code::TIMEOUT`] reply; oversized declarations after an
    /// [`error_code::FRAME_TOO_LARGE`] reply — each tallied in the server
    /// stats. During shutdown the in-flight request (if any) finishes and
    /// its reply is written before the connection closes.
    pub fn serve_connection<S: DeadlineStream>(&self, mut stream: S) {
        let io_timeout = self.inner.io_timeout;
        let tick = deadline_tick(io_timeout);
        let _ = stream.set_write_timeout(Some(io_timeout));
        let mut lane = ReplyLane::new();
        // Until the first good envelope fixes the connection's version,
        // read at the build ceiling so a v2 `Hello` can negotiate up; a
        // v1 opener locks the loop to v1 (later v2 envelopes then draw
        // `Unsupported`, exactly as before v2 existed).
        let mut negotiating = true;
        loop {
            let ceiling = if negotiating { MAX_VERSION } else { VERSION };
            let reply = match read_envelope_deadline(
                &mut stream,
                io_timeout,
                io_timeout,
                tick,
                &|| self.is_shutting_down(),
                ceiling,
            ) {
                Ok(env) => {
                    if negotiating && env.version >= v2::VERSION {
                        self.serve_v2(stream, lane, env);
                        return;
                    }
                    negotiating = false;
                    let is_shutdown = matches!(env.frame, Frame::Shutdown);
                    let reply = self.handle(env.frame);
                    // The in-flight reply is always written — draining a
                    // shutdown means finishing started work, then closing.
                    if self
                        .write_via(&mut stream, &mut lane, VERSION, 0, &reply)
                        .is_err()
                        || is_shutdown
                        || self.is_shutting_down()
                    {
                        return;
                    }
                    continue;
                }
                Err(ReadError::IdleTimeout | ReadError::FrameTimeout) => {
                    self.inner.m.io_timeouts.add(1);
                    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
                    let _ = self.write_via(
                        &mut stream,
                        &mut lane,
                        VERSION,
                        0,
                        &error(error_code::TIMEOUT, "i/o deadline exceeded"),
                    );
                    return;
                }
                Err(ReadError::Closed | ReadError::Aborted) => return,
                Err(ReadError::Wire(WireError::PayloadTooLarge(n))) => {
                    self.inner.m.oversize_frames.add(1);
                    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
                    let _ = self.write_via(
                        &mut stream,
                        &mut lane,
                        VERSION,
                        0,
                        &error(
                            error_code::FRAME_TOO_LARGE,
                            format!(
                                "declared payload of {n} bytes exceeds the \
                                 {} byte cap",
                                crate::wire::MAX_PAYLOAD
                            ),
                        ),
                    );
                    return;
                }
                Err(ReadError::Wire(WireError::UnsupportedVersion(version))) => {
                    Frame::Unsupported(UnsupportedWire {
                        version,
                        frame_type: 0,
                        max_supported: MAX_VERSION,
                    })
                }
                Err(ReadError::Wire(WireError::UnknownFrameType(frame_type))) => {
                    Frame::Unsupported(UnsupportedWire {
                        version: VERSION,
                        frame_type,
                        max_supported: MAX_VERSION,
                    })
                }
                Err(ReadError::Wire(_)) => return,
            };
            if self
                .write_via(&mut stream, &mut lane, VERSION, 0, &reply)
                .is_err()
            {
                return;
            }
        }
    }

    /// The v2 session loop: one thread owns the stream and demultiplexes.
    ///
    /// Inbound envelopes are polled one tick at a time and dispatched —
    /// `Ping`/`Stats`/`Shutdown`/`Cancel` inline, each `Explain` onto its
    /// own worker thread; between polls the loop drains the workers'
    /// reply queue onto the wire. Single-threaded I/O keeps every write
    /// on one path (no stream cloning, one [`Workspace`]) at the cost of
    /// at most one tick of streaming latency.
    ///
    /// Request lifecycle counters (`inflight_peak`, `ooo_replies`,
    /// `cancels_honored`, `partials_streamed`) are maintained here, at
    /// registration and reply-write time, so tests assert multiplexing
    /// behaviour on counters rather than timing.
    fn serve_v2<S: DeadlineStream>(&self, mut stream: S, mut lane: ReplyLane, first: Envelope) {
        let io_timeout = self.inner.io_timeout;
        let tick = deadline_tick(io_timeout);
        let max_inflight = self.inner.max_inflight;

        // A v2 session opens with Hello; anything else is a protocol
        // violation worth naming before hanging up.
        let hello_corr = first.corr_id;
        if !matches!(first.frame, Frame::Hello(_)) {
            let _ = self.write_via(
                &mut stream,
                &mut lane,
                v2::VERSION,
                hello_corr,
                &error(
                    error_code::BAD_CORRELATION,
                    "a v2 session must open with Hello",
                ),
            );
            return;
        }
        if self
            .write_via(
                &mut stream,
                &mut lane,
                v2::VERSION,
                hello_corr,
                &Frame::HelloAck(HelloAckWire {
                    version: v2::VERSION,
                    max_inflight: max_inflight as u32,
                }),
            )
            .is_err()
        {
            return;
        }

        let mut inflight: HashMap<u64, InflightRequest> = HashMap::new();
        let (tx, rx) = mpsc::channel::<(u64, Frame)>();
        let mut next_seq: u64 = 0;
        let mut last_activity = Instant::now();
        let mut draining = false;

        loop {
            // Flush worker output before (and between) reads.
            while let Ok((corr, frame)) = rx.try_recv() {
                if matches!(frame, Frame::Explanation(_) | Frame::Error(_)) {
                    if let Some(done) = inflight.remove(&corr) {
                        // The worker sent its final reply, so the join is
                        // imminent, never a stall.
                        let _ = done.handle.join();
                        if inflight.values().any(|other| other.seq < done.seq) {
                            self.inner.m.ooo_replies.add(1);
                        }
                        if matches!(&frame, Frame::Error(e) if e.code == error_code::CANCELLED) {
                            self.inner.m.cancels_honored.add(1);
                        }
                    }
                } else if matches!(frame, Frame::Partial(_)) {
                    self.inner.m.partials_streamed.add(1);
                }
                if self
                    .write_via(&mut stream, &mut lane, v2::VERSION, corr, &frame)
                    .is_err()
                {
                    abort_and_join(&mut inflight);
                    return;
                }
                last_activity = Instant::now();
            }

            if self.is_shutting_down() {
                draining = true;
            }
            if draining && inflight.is_empty() {
                return;
            }

            // Poll for one inbound envelope. The short idle deadline (one
            // tick) makes IdleTimeout mean "nothing right now": the real
            // idle clock is `last_activity`, and a session with work in
            // flight is never idle.
            match read_envelope_deadline(
                &mut stream,
                tick,
                io_timeout,
                tick,
                &|| false,
                MAX_VERSION,
            ) {
                Ok(env) => {
                    last_activity = Instant::now();
                    let corr = env.corr_id;
                    // An inline reply overtakes every unfinished explain.
                    let overtakes = !inflight.is_empty();
                    let inline = match env.frame {
                        Frame::Ping => Some(Frame::Pong),
                        Frame::Stats => Some(Frame::StatsReply(self.stats())),
                        Frame::Shutdown => {
                            self.inner.shutdown.store(true, Ordering::SeqCst);
                            draining = true;
                            Some(Frame::ShutdownAck)
                        }
                        Frame::Hello(_) => Some(error(
                            error_code::BAD_CORRELATION,
                            "session already negotiated",
                        )),
                        Frame::LoadDataset(w) => Some(self.load_dataset_frame(&w)),
                        Frame::EvictDataset(w) => Some(self.evict_dataset_frame(&w)),
                        Frame::ListDatasets => Some(self.list_datasets_frame()),
                        Frame::MetricsRequest => Some(self.metrics_reply()),
                        Frame::TraceRequest(w) => Some(self.trace_reply(w.last)),
                        Frame::Cancel => {
                            // Unknown ids are a benign race against the
                            // final reply, not an error.
                            if let Some(req) = inflight.get(&corr) {
                                req.abort.store(true, Ordering::Release);
                            }
                            None
                        }
                        Frame::Explain(req) => {
                            if draining {
                                Some(error(error_code::SHUTTING_DOWN, "server is shutting down"))
                            } else if inflight.contains_key(&corr) {
                                Some(error(
                                    error_code::BAD_CORRELATION,
                                    "correlation id already in flight",
                                ))
                            } else if inflight.len() >= max_inflight {
                                Some(error(
                                    error_code::BUSY,
                                    "per-connection in-flight limit reached; \
                                     wait for a reply or cancel",
                                ))
                            } else {
                                let abort = Arc::new(AtomicBool::new(false));
                                let seq = next_seq;
                                next_seq += 1;
                                self.inner.m.inflight_peak.max(inflight.len() as u64 + 1);
                                let server = self.clone();
                                let worker_tx = tx.clone();
                                let flag = Arc::clone(&abort);
                                let handle = std::thread::spawn(move || {
                                    // A panicking worker must still send
                                    // a final reply: the client waits on
                                    // this id, and the session can neither
                                    // idle out nor drain while it stays in
                                    // flight.
                                    let reply = panic::catch_unwind(AssertUnwindSafe(|| {
                                        server.explain_streaming(&req, corr, &flag, &worker_tx)
                                    }))
                                    .unwrap_or_else(|_| {
                                        server.inner.m.panics.add(1);
                                        error(error_code::INTERNAL, "request worker panicked")
                                    });
                                    let _ = worker_tx.send((corr, reply));
                                });
                                inflight.insert(corr, InflightRequest { abort, seq, handle });
                                None
                            }
                        }
                        other => Some(Frame::Unsupported(UnsupportedWire {
                            version: v2::VERSION,
                            frame_type: other.frame_type(),
                            max_supported: MAX_VERSION,
                        })),
                    };
                    if let Some(reply) = inline {
                        let is_final = matches!(
                            reply,
                            Frame::Pong
                                | Frame::StatsReply(_)
                                | Frame::ShutdownAck
                                | Frame::Error(_)
                                | Frame::DatasetList(_)
                                | Frame::DatasetAck(_)
                                | Frame::MetricsReply(_)
                                | Frame::TraceReply(_)
                        );
                        if is_final && overtakes {
                            self.inner.m.ooo_replies.add(1);
                        }
                        if self
                            .write_via(&mut stream, &mut lane, v2::VERSION, corr, &reply)
                            .is_err()
                        {
                            abort_and_join(&mut inflight);
                            return;
                        }
                    }
                }
                Err(ReadError::IdleTimeout) => {
                    if inflight.is_empty() && !draining && last_activity.elapsed() >= io_timeout {
                        self.inner.m.io_timeouts.add(1);
                        let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
                        let _ = self.write_via(
                            &mut stream,
                            &mut lane,
                            v2::VERSION,
                            0,
                            &error(error_code::TIMEOUT, "i/o deadline exceeded"),
                        );
                        return;
                    }
                }
                Err(ReadError::FrameTimeout) => {
                    self.inner.m.io_timeouts.add(1);
                    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
                    let _ = self.write_via(
                        &mut stream,
                        &mut lane,
                        v2::VERSION,
                        0,
                        &error(error_code::TIMEOUT, "i/o deadline exceeded"),
                    );
                    abort_and_join(&mut inflight);
                    return;
                }
                Err(ReadError::Wire(WireError::PayloadTooLarge(n))) => {
                    self.inner.m.oversize_frames.add(1);
                    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
                    let _ = self.write_via(
                        &mut stream,
                        &mut lane,
                        v2::VERSION,
                        0,
                        &error(
                            error_code::FRAME_TOO_LARGE,
                            format!(
                                "declared payload of {n} bytes exceeds the \
                                 {} byte cap",
                                crate::wire::MAX_PAYLOAD
                            ),
                        ),
                    );
                    abort_and_join(&mut inflight);
                    return;
                }
                Err(ReadError::Wire(WireError::UnsupportedVersion(version))) => {
                    let reply = Frame::Unsupported(UnsupportedWire {
                        version,
                        frame_type: 0,
                        max_supported: MAX_VERSION,
                    });
                    if self
                        .write_via(&mut stream, &mut lane, v2::VERSION, 0, &reply)
                        .is_err()
                    {
                        abort_and_join(&mut inflight);
                        return;
                    }
                }
                Err(ReadError::Wire(WireError::UnknownFrameType(frame_type))) => {
                    let reply = Frame::Unsupported(UnsupportedWire {
                        version: v2::VERSION,
                        frame_type,
                        max_supported: MAX_VERSION,
                    });
                    if self
                        .write_via(&mut stream, &mut lane, v2::VERSION, 0, &reply)
                        .is_err()
                    {
                        abort_and_join(&mut inflight);
                        return;
                    }
                }
                // The peer is gone (or the stream is unframeable): abort
                // what it was waiting on and bail.
                Err(ReadError::Closed | ReadError::Aborted | ReadError::Wire(_)) => {
                    abort_and_join(&mut inflight);
                    return;
                }
            }
        }
    }

    /// The worker side of a v2 `Explain`: runs [`Server::explain_ctl`]
    /// with the request's abort flag and a progress sink that forwards
    /// pipeline events to the session loop as `Progress`/`Partial`
    /// frames addressed at `corr`.
    fn explain_streaming(
        &self,
        req: &ExplainRequestWire,
        corr: u64,
        abort: &AtomicBool,
        tx: &mpsc::Sender<(u64, Frame)>,
    ) -> Frame {
        // `Sender` is not `Sync`; the sink must be (progress events can
        // fire from pool threads), so gate it behind a mutex.
        let tx = Mutex::new(tx.clone());
        let sink = |event: ProgressEvent| {
            let frame = match event {
                ProgressEvent::Stage { stage } => Frame::Progress(ProgressWire {
                    stage: stage.to_string(),
                }),
                ProgressEvent::Selected {
                    names,
                    cmi_so_far,
                    initial_cmi,
                } => Frame::Partial(PartialWire {
                    selected: names,
                    cmi_so_far,
                    initial_cmi,
                }),
            };
            let _ = tx
                .lock()
                .expect("reply channel poisoned")
                .send((corr, frame));
        };
        let ctl = RunControl {
            abort: Some(abort),
            progress: Some(&sink),
            ..RunControl::default()
        };
        self.explain_traced(req, corr, ctl)
    }
}

/// A v2 request the session loop has dispatched to a worker thread.
struct InflightRequest {
    /// Raised by `Cancel` (or session teardown); the pipeline polls it.
    abort: Arc<AtomicBool>,
    /// Arrival order, for out-of-order reply detection.
    seq: u64,
    handle: JoinHandle<()>,
}

/// Raises every in-flight request's abort flag, then joins the workers
/// (prompt, since each pipeline polls its flag at every hook point).
fn abort_and_join(inflight: &mut HashMap<u64, InflightRequest>) {
    for (_, req) in inflight.drain() {
        req.abort.store(true, Ordering::Release);
        let _ = req.handle.join();
    }
}

/// Per-connection reply state: the reusable encode workspace plus the
/// high-water mark of reuse hits already folded into the server counter.
struct ReplyLane {
    ws: crate::wire::Workspace,
    reported_reuse: u64,
}

impl ReplyLane {
    fn new() -> ReplyLane {
        ReplyLane {
            ws: crate::wire::Workspace::new(),
            reported_reuse: 0,
        }
    }
}

fn error(code: u16, message: impl Into<String>) -> Frame {
    Frame::Error(ErrorWire {
        code,
        message: message.into(),
    })
}

/// Maps registry failures onto the public setup error type.
fn registry_to_serve(e: RegistryError) -> ServeError {
    match e {
        RegistryError::Core(e) => ServeError::Core(e),
        RegistryError::Load(msg) => ServeError::Store(msg),
        RegistryError::Unknown(name) => ServeError::Store(format!("no dataset named {name:?}")),
    }
}

/// Projects an [`Explanation`] onto its deterministic wire twin: only
/// values that are bit-identical across reruns at any thread count.
/// Timings and pool metrics stay out (they belong to [`ServeStatsWire`]).
pub fn explanation_to_wire(e: &Explanation) -> ExplanationWire {
    let mut link_stats: Vec<LinkStatsWire> = e
        .stats
        .link_stats
        .iter()
        .map(|(column, ls)| LinkStatsWire {
            column: column.clone(),
            linked: ls.linked as u64,
            not_found: ls.not_found as u64,
            ambiguous: ls.ambiguous as u64,
            null: ls.null as u64,
        })
        .collect();
    link_stats.sort_by(|a, b| a.column.cmp(&b.column));
    ExplanationWire {
        attributes: e
            .attributes
            .iter()
            .map(|a| crate::wire::AttributeWire {
                name: a.name.clone(),
                source: match &a.source {
                    nexus_core::CandidateSource::BaseTable => crate::wire::SourceWire::BaseTable,
                    nexus_core::CandidateSource::Extracted { column } => {
                        crate::wire::SourceWire::Extracted {
                            column: column.clone(),
                        }
                    }
                },
                responsibility: a.responsibility,
                weighted: a.weighted,
            })
            .collect(),
        initial_cmi: e.initial_cmi,
        explained_cmi: e.explained_cmi,
        stopped_by_responsibility: e.stopped_by_responsibility,
        n_candidates_initial: e.stats.n_candidates_initial as u64,
        n_after_offline: e.stats.n_after_offline as u64,
        n_after_online: e.stats.n_after_online as u64,
        n_biased: e.stats.n_biased as u64,
        link_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sends one v2 envelope.
    fn send(stream: &mut crate::faults::PipeStream, corr: u64, frame: Frame) {
        use std::io::Write;
        stream
            .write_all(&Envelope::v2(corr, frame).encode())
            .expect("send v2 envelope");
    }

    /// The next final reply, skipping streamed progress frames.
    fn next_final(stream: &mut crate::faults::PipeStream) -> (u64, Frame) {
        loop {
            let env = crate::wire::read_envelope(stream).expect("a reply before the read timeout");
            if !matches!(env.frame, Frame::Progress(_) | Frame::Partial(_)) {
                return (env.corr_id, env.frame);
            }
        }
    }

    #[test]
    fn panicking_v2_worker_answers_internal_and_frees_its_slot() {
        use crate::wire::{CallOverrides, ExplainRequestWire, HelloWire};
        use nexus_datagen::{load, queries_for, DatasetKind, Scale};

        // One in-flight slot per connection and one pipeline slot: a
        // slot the panicking request leaked would turn the next explain
        // into a BUSY reply or a hang.
        let d = load(DatasetKind::Covid, Scale::Small);
        let server = Server::new(ServerOptions {
            io_timeout: Duration::from_secs(30),
            max_concurrent: 1,
            max_inflight: 1,
            ..ServerOptions::default()
        });
        server
            .add_dataset("covid", d.table, d.kg, d.extraction_columns)
            .expect("dataset loads");
        let (mut client, server_end) = crate::faults::pipe();
        // A reply that never comes fails the test instead of hanging it.
        client
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("pipe timeout");
        let session = {
            let server = server.clone();
            std::thread::spawn(move || server.serve_connection(server_end))
        };
        send(
            &mut client,
            0,
            Frame::Hello(HelloWire {
                max_version: MAX_VERSION,
            }),
        );
        assert!(matches!(next_final(&mut client), (0, Frame::HelloAck(_))));

        let explain = || {
            Frame::Explain(ExplainRequestWire {
                dataset: "covid".into(),
                sql: queries_for(DatasetKind::Covid)[0].sql.into(),
                overrides: CallOverrides::default(),
            })
        };
        server
            .inner
            .panic_next_explain
            .store(true, Ordering::SeqCst);
        send(&mut client, 1, explain());
        match next_final(&mut client) {
            (1, Frame::Error(e)) => assert_eq!(e.code, error_code::INTERNAL),
            other => panic!("expected an INTERNAL error for corr 1, got {other:?}"),
        }
        assert_eq!(server.inner.m.panics.get(), 1);

        // Both slots are free again: the same request now explains.
        send(&mut client, 2, explain());
        match next_final(&mut client) {
            (2, Frame::Explanation(_)) => {}
            other => panic!("expected an explanation for corr 2, got {other:?}"),
        }

        // Nothing is left in flight, so the session drains and exits.
        send(&mut client, 3, Frame::Shutdown);
        assert!(matches!(next_final(&mut client), (3, Frame::ShutdownAck)));
        let deadline = Instant::now() + Duration::from_secs(30);
        while !session.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(session.is_finished(), "the session must drain and exit");
        session.join().expect("session thread exits cleanly");
        assert_eq!(server.inner.m.panics.get(), 1);
    }

    #[test]
    fn a_coalesced_waiter_cancelled_meanwhile_answers_cancelled() {
        use crate::wire::{CallOverrides, ExplainRequestWire};
        use nexus_datagen::{load, queries_for, DatasetKind, Scale};

        let d = load(DatasetKind::Covid, Scale::Small);
        let server = Server::new(ServerOptions::default());
        server
            .add_dataset("covid", d.table, d.kg, d.extraction_columns)
            .expect("dataset loads");
        let sql = queries_for(DatasetKind::Covid)[0].sql;
        let req = ExplainRequestWire {
            dataset: "covid".into(),
            sql: sql.into(),
            overrides: CallOverrides::default(),
        };
        // Stand in for an identical request in flight: hold the build
        // ticket of this request's result key.
        let inner = &server.inner;
        let dataset = inner
            .registry
            .ensure_resident("covid", &inner.nexus.options)
            .unwrap();
        let key = MemoKey::new(
            MemoKind::Result,
            dataset.fingerprint,
            inner.options_fp,
            0,
            parse(sql).unwrap().canonical_signature(),
        );
        let Claim::Build(ticket) = inner.memo.claim(&key) else {
            panic!("a fresh server has no stored result");
        };
        let abort = AtomicBool::new(false);
        let waits = || {
            nexus_info::kernel::counters()
                .snapshot()
                .memo_coalesced_waits
        };
        let before = waits();
        let reply = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let ctl = RunControl {
                    abort: Some(&abort),
                    ..RunControl::default()
                };
                server.explain_ctl(&req, ctl)
            });
            // Cancel once the request has parked on the build.
            let deadline = Instant::now() + Duration::from_secs(30);
            while waits() == before && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            abort.store(true, Ordering::SeqCst);
            ticket.publish(Arc::new(b"stored".to_vec()), 6);
            waiter.join().unwrap()
        });
        match reply {
            Frame::Error(e) => assert_eq!(e.code, error_code::CANCELLED),
            other => panic!("expected CANCELLED, got {other:?}"),
        }
        // The builder's bytes were stored all the same.
        match server.handle(Frame::Explain(req)) {
            Frame::Explanation(r) => assert_eq!(r.explanation, b"stored"),
            other => panic!("expected the stored bytes, got {other:?}"),
        }
    }

    #[test]
    fn panicking_handler_is_reaped_and_leaves_the_live_gauge() {
        let live = MetricsRegistry::new().gauge("serve.handlers.live");
        let mut registry = Registry::new(live.clone());
        registry.spawn(|| panic!("handler fault"));
        registry.spawn(|| ());
        // Counter-gated, not sleep-gated: poll until both handlers are
        // joined, with a generous bound so a regression fails instead of
        // hanging.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut joined = 0;
        while joined < 2 && Instant::now() < deadline {
            joined += registry.reap();
            std::thread::yield_now();
        }
        assert_eq!(joined, 2, "reap must join the panicked handler too");
        assert!(registry.handlers.is_empty());
        assert_eq!(live.get(), 0, "a panicked handler must leave the gauge");
    }
}
