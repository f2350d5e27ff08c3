//! Integration tests for the multi-dataset registry: explanations served
//! from a packed NXCOL store are byte-identical to in-memory serving,
//! warm requests skip re-ingest and KG re-extraction (asserted on
//! counters, never wall-clock), concurrent first touches share one load,
//! the store's one byte budget evicts and reloads transparently, and
//! corrupted store files are refused with typed errors.

use std::path::PathBuf;
use std::sync::Barrier;

use nexus_datagen::{load, queries_for, DatasetKind, Scale};
use nexus_serve::wire::{
    error_code, CallOverrides, EvictDatasetWire, ExplainRequestWire, Frame, LoadDatasetWire,
};
use nexus_serve::{ServeError, Server, ServerOptions};

const KIND: DatasetKind = DatasetKind::Covid;

/// A scratch directory holding the packed Covid sample (NXCOL + KG TSV).
/// Generation is deterministic, so every `Packed` holds the same bytes.
struct Packed {
    dir: PathBuf,
    table_path: PathBuf,
    kg_path: PathBuf,
    extraction_columns: Vec<String>,
}

impl Packed {
    fn create(tag: &str) -> Packed {
        let dir =
            std::env::temp_dir().join(format!("nexus-serve-registry-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let d = load(KIND, Scale::Small);
        let table_path = dir.join("covid.nxcol");
        let kg_path = dir.join("covid-kg.tsv");
        nexus_store::write_table_path(&d.table, &table_path).unwrap();
        nexus_kg::write_kg_path(&d.kg, &kg_path).unwrap();
        Packed {
            dir,
            table_path,
            kg_path,
            extraction_columns: d.extraction_columns,
        }
    }

    fn register(&self, server: &Server, name: &str) -> Result<(), ServeError> {
        server.add_dataset_from_store(
            name,
            &self.table_path,
            Some(self.kg_path.clone()),
            self.extraction_columns.clone(),
        )
    }
}

impl Drop for Packed {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn explain(server: &Server, dataset: &str, sql: &str) -> Vec<u8> {
    explain_with(server, dataset, sql, CallOverrides::default())
}

fn explain_with(server: &Server, dataset: &str, sql: &str, overrides: CallOverrides) -> Vec<u8> {
    let reply = server.handle(Frame::Explain(ExplainRequestWire {
        dataset: dataset.into(),
        sql: sql.into(),
        overrides,
    }));
    match reply {
        Frame::Explanation(r) => r.explanation,
        other => panic!("expected an explanation, got {other:?}"),
    }
}

#[test]
fn store_backed_serving_is_byte_identical_and_warm() {
    let packed = Packed::create("identity");
    let sql = queries_for(KIND)[0].sql;

    // Reference: classic in-memory registration.
    let mem = Server::new(ServerOptions::default());
    let d = load(KIND, Scale::Small);
    mem.add_dataset("covid", d.table, d.kg, d.extraction_columns)
        .unwrap();
    let reference = explain(&mem, "covid", sql);

    // Store-backed: registration is lazy — nothing materialized yet.
    let srv = Server::new(ServerOptions::default());
    packed.register(&srv, "covid").unwrap();
    let s = srv.stats();
    assert_eq!(
        (
            s.datasets,
            s.datasets_resident,
            s.datasets_loaded,
            s.extraction_builds
        ),
        (1, 0, 0, 0),
        "registration must not materialize"
    );
    assert_eq!(s.registry_fingerprint, 0);
    assert!(srv.dataset_kg_entities("covid").is_none());

    // First request materializes once and serves the exact same bytes the
    // in-memory server produced.
    let cold = explain(&srv, "covid", sql);
    assert_eq!(
        cold, reference,
        "store-backed explanation must be byte-identical to in-memory serving"
    );
    // One extraction build per configured column.
    let n_cols = packed.extraction_columns.len() as u64;
    assert!(n_cols > 0);
    let s = srv.stats();
    assert_eq!(
        (s.datasets_resident, s.datasets_loaded, s.extraction_builds),
        (1, 1, n_cols)
    );
    assert!(s.store_bytes > 0);
    assert_ne!(s.registry_fingerprint, 0);
    assert_eq!(
        srv.dataset_kg_entities("covid"),
        mem.dataset_kg_entities("covid"),
        "the KG must survive the TSV round-trip"
    );

    // A different query misses the result cache but finds the dataset
    // warm: no re-ingest, no KG re-extraction.
    let other = explain(&srv, "covid", queries_for(KIND)[1].sql);
    assert!(!other.is_empty());
    let s = srv.stats();
    assert_eq!(
        (s.datasets_loaded, s.extraction_builds),
        (1, n_cols),
        "a warm request must not re-materialize"
    );
    assert_eq!(s.cache_misses, 2);
}

#[test]
fn evicted_datasets_reload_transparently() {
    let packed = Packed::create("evict");
    let sql = queries_for(KIND)[0].sql;
    let srv = Server::new(ServerOptions::default());
    packed.register(&srv, "covid").unwrap();
    let first = explain(&srv, "covid", sql);

    // Explicit eviction drops the artifacts but keeps the registration.
    let ack = srv.handle(Frame::EvictDataset(EvictDatasetWire {
        name: "covid".into(),
    }));
    let Frame::DatasetAck(ack) = ack else {
        panic!("expected DatasetAck, got {ack:?}");
    };
    assert!(!ack.resident);
    let s = srv.stats();
    assert_eq!(
        (
            s.datasets,
            s.datasets_resident,
            s.dataset_evictions,
            s.store_bytes
        ),
        (1, 0, 1, 0)
    );
    assert_eq!(s.registry_fingerprint, 0);

    // The listing still knows the dataset (and its last fingerprint).
    let Frame::DatasetList(list) = srv.handle(Frame::ListDatasets) else {
        panic!("expected DatasetList");
    };
    assert_eq!(list.datasets.len(), 1);
    assert_eq!(list.datasets[0].name, "covid");
    assert!(!list.datasets[0].resident);
    assert_ne!(list.datasets[0].fingerprint, 0);

    // The next request re-materializes and serves identical bytes. The
    // result cache is keyed by the dataset's content fingerprint, which
    // survives eviction — so this is a cache hit.
    let again = explain(&srv, "covid", sql);
    assert_eq!(again, first);
    let n_cols = packed.extraction_columns.len() as u64;
    let s = srv.stats();
    assert_eq!(
        (s.datasets_loaded, s.extraction_builds),
        (2, n_cols),
        "the reload must hit the extraction memo instead of re-mining"
    );
    assert_eq!(s.cache_hits, 1, "content fingerprint must survive eviction");

    // Evicting a name that was never registered is a typed error.
    let Frame::Error(e) = srv.handle(Frame::EvictDataset(EvictDatasetWire {
        name: "ghost".into(),
    })) else {
        panic!("expected an error frame");
    };
    assert_eq!(e.code, error_code::UNKNOWN_DATASET);
}

#[test]
fn concurrent_first_touches_load_the_dataset_once() {
    let packed = Packed::create("first-touch");
    let sql = queries_for(KIND)[0].sql;
    let srv = Server::new(ServerOptions::default());
    packed.register(&srv, "covid").unwrap();

    // Four requests make the first touch at once: one loads the NXCOL
    // file and runs the pipeline, the others wait for its results.
    let barrier = Barrier::new(4);
    let replies: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    explain(&srv, "covid", sql)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert!(
        replies.windows(2).all(|w| w[0] == w[1]),
        "every first touch must serve the same bytes"
    );
    let s = srv.stats();
    assert_eq!(
        s.datasets_loaded, 1,
        "concurrent first touches share one load"
    );
    assert_eq!(s.extraction_builds, packed.extraction_columns.len() as u64);
    assert_eq!((s.cache_misses, s.cache_hits), (1, 3));
}

#[test]
fn byte_budget_bounds_the_resident_set() {
    let packed = Packed::create("budget");
    let sql = queries_for(KIND)[0].sql;
    // Probe what serving `a` leaves in the store and what one dataset is
    // charged. The budget is one byte short of holding that plus `b`'s
    // dataset, so the two datasets never stay resident together (a single
    // over-budget dataset still serves: the budget bounds the set).
    let probe = Server::new(ServerOptions::default());
    packed.register(&probe, "a").unwrap();
    explain(&probe, "a", sql);
    let p = probe.stats();
    let srv = Server::new(ServerOptions {
        max_resident_bytes: p.memo_resident_bytes + p.store_bytes - 1,
        ..ServerOptions::default()
    });
    packed.register(&srv, "a").unwrap();
    packed.register(&srv, "b").unwrap();

    let a = explain(&srv, "a", sql);
    let b = explain(&srv, "b", sql);
    assert_eq!(a, b, "same content behind both names");
    let s = srv.stats();
    assert_eq!(
        (s.datasets_resident, s.dataset_evictions, s.datasets_loaded),
        (1, 1, 2),
        "loading b must evict a under a one-dataset budget"
    );
    // The victim reloads on demand — correctness is unaffected.
    assert_eq!(explain(&srv, "a", sql), b);
    assert_eq!(srv.stats().datasets_loaded, 3);
}

#[test]
fn one_budget_bounds_the_store_under_a_mixed_burst() {
    // Two datasets, each asked four top-k variants, then the whole plan
    // again (repeats). Selection-bias weighting is off: it would only
    // make each request slower, not the store's traffic different.
    let datasets = [DatasetKind::Covid, DatasetKind::Forbes];
    let variants: Vec<CallOverrides> = [None, Some(1), Some(2), Some(3)]
        .into_iter()
        .map(|top_k| CallOverrides {
            top_k,
            weights: Some(false),
            ..CallOverrides::default()
        })
        .collect();
    let mut plan = Vec::new();
    for _ in 0..2 {
        for kind in datasets {
            for overrides in &variants {
                plan.push((kind, overrides.clone()));
            }
        }
    }
    let server = |max_resident_bytes: u64| {
        let srv = Server::new(ServerOptions {
            max_resident_bytes,
            ..ServerOptions::default()
        });
        for kind in datasets {
            let d = load(kind, Scale::Small);
            srv.add_dataset(format!("{kind:?}"), d.table, d.kg, d.extraction_columns)
                .unwrap();
        }
        srv
    };
    let run = |srv: &Server, kind: DatasetKind, overrides: &CallOverrides| {
        let sql = queries_for(kind)[0].sql;
        explain_with(srv, &format!("{kind:?}"), sql, overrides.clone())
    };

    let unbounded = server(0);
    let reference: Vec<Vec<u8>> = plan.iter().map(|(k, o)| run(&unbounded, *k, o)).collect();
    let all = unbounded.stats().memo_resident_bytes;
    let largest_dataset = match unbounded.handle(Frame::ListDatasets) {
        Frame::DatasetList(list) => list.datasets.iter().map(|d| d.store_bytes).max().unwrap(),
        other => panic!("expected DatasetList, got {other:?}"),
    };
    // Room for the largest dataset plus half of everything else: smaller
    // than what the burst keeps when nothing is evicted.
    let budget = largest_dataset + (all - largest_dataset) / 2;
    assert!(budget < all);

    let bounded = server(budget);
    for (i, (kind, overrides)) in plan.iter().enumerate() {
        assert_eq!(
            run(&bounded, *kind, overrides),
            reference[i],
            "request {i} must serve the unbounded server's bytes"
        );
        let resident = bounded.stats().memo_resident_bytes;
        assert!(
            resident <= budget,
            "request {i}: {resident} resident bytes over the {budget}-byte budget"
        );
    }
    assert!(
        bounded.stats().memo_resident_bytes < all,
        "the budget must have evicted something"
    );
}

/// The measurement behind the default budget: one full-scale Flights
/// table plus the 256 MiB the sub-query memo used to default to must fit.
/// A dataset entry is charged its table and KG estimates. Ignored by
/// default because generating 5.8M rows takes a while; run it with
/// `cargo test --release -p nexus-serve --test registry -- --ignored
/// --nocapture` to print the charge.
#[test]
#[ignore]
fn full_scale_flights_fits_the_default_budget() {
    let d = load(DatasetKind::Flights, Scale::Paper);
    assert_eq!(d.table.n_rows(), 5_819_079);
    let charge = d.table.approx_bytes() + d.kg.approx_bytes();
    println!("full-scale Flights dataset charge: {charge} bytes");
    assert!(charge + (256 << 20) <= ServerOptions::default().max_resident_bytes);
}

#[test]
fn corrupted_store_files_are_refused_with_typed_errors() {
    let packed = Packed::create("corrupt");

    // Garbage bytes: refused at registration (header validation).
    let garbage = packed.dir.join("garbage.nxcol");
    std::fs::write(&garbage, b"not an NXCOL file at all").unwrap();
    let srv = Server::new(ServerOptions::default());
    let err = srv
        .add_dataset_from_store("bad", &garbage, None, vec![])
        .unwrap_err();
    assert!(matches!(err, ServeError::Store(_)), "got {err:?}");
    assert_eq!(srv.stats().datasets, 0);

    // A truncated copy of a valid file: also refused, with the path in
    // the message.
    let bytes = std::fs::read(&packed.table_path).unwrap();
    let truncated = packed.dir.join("truncated.nxcol");
    std::fs::write(&truncated, &bytes[..20]).unwrap();
    match srv.add_dataset_from_store("bad", &truncated, None, vec![]) {
        Err(ServeError::Store(msg)) => assert!(msg.contains("truncated.nxcol"), "{msg}"),
        other => panic!("expected a store error, got {other:?}"),
    }

    // Over the wire: a LoadDataset naming a corrupt file answers a typed
    // STORE error frame; the server survives.
    let Frame::Error(e) = srv.handle(Frame::LoadDataset(LoadDatasetWire {
        name: "bad".into(),
        table_path: garbage.to_string_lossy().into_owned(),
        kg_path: String::new(),
        extraction_columns: vec![],
    })) else {
        panic!("expected an error frame");
    };
    assert_eq!(e.code, error_code::STORE);

    // A file corrupted *after* registration fails at materialization time
    // (per-section CRC), also typed, also survivable.
    packed.register(&srv, "flaky").unwrap();
    let mut bytes = std::fs::read(&packed.table_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&packed.table_path, &bytes).unwrap();
    let Frame::Error(e) = srv.handle(Frame::Explain(ExplainRequestWire {
        dataset: "flaky".into(),
        sql: queries_for(KIND)[0].sql.into(),
        overrides: Default::default(),
    })) else {
        panic!("expected an error frame");
    };
    assert_eq!(e.code, error_code::STORE);
    let s = srv.stats();
    assert_eq!((s.datasets_loaded, s.datasets_resident), (0, 0));
}
