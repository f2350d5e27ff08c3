//! The multi-dataset registry: named datasets, materialized lazily into
//! the server's [`MemoStore`].
//!
//! A [`DatasetRegistry`] maps names to [`DatasetSpec`]s — *how to obtain*
//! a dataset (an in-memory table + KG, or paths to an NXCOL store file
//! and a KG TSV). Registration is cheap: artifacts (the table, its
//! knowledge graph, and the per-column KG extractions mined by
//! [`nexus_core::extract_column`]) are materialized by
//! [`DatasetRegistry::ensure_resident`] on the first request that needs
//! them, single-flight, and published as one [`MemoKind::Dataset`] entry
//! keyed by (name, registration generation). The generation is bumped on
//! every [`DatasetRegistry::register`], so a replaced registration can
//! never serve its predecessor's artifacts. An entry leaves the store by
//! an explicit [`DatasetRegistry::evict`], by re-registration, or by the
//! store's byte budget, which weighs datasets against every other
//! memoized value and never drops an entry while its load is in flight.
//!
//! A dataset entry is charged the approximate in-memory size of its table
//! and KG ([`Table::approx_bytes`], [`KnowledgeGraph::approx_bytes`]).
//! Each column's extraction is a separate [`MemoKind::Extraction`] entry
//! keyed by (table fingerprint × KG fingerprint, options fingerprint,
//! column), so a re-materialization after an eviction hits the memo
//! instead of re-mining the KG. Every lifecycle transition moves a
//! counter ([`DatasetRegistry::loads`], [`DatasetRegistry::evictions`],
//! [`DatasetRegistry::extraction_builds`], and the store's per-kind
//! usage), so tests assert warm-load and eviction behaviour on counters
//! rather than wall-clock timing. In particular `extraction_builds`
//! staying flat across a request is the proof that the KG mining was
//! skipped, not merely fast: only genuine [`extract_column`] runs move it.
//!
//! Evicting a [`DatasetSource::Memory`] dataset drops its extraction
//! handles but not the backing table (the spec keeps it so the dataset
//! can re-materialize); evicting a [`DatasetSource::Store`] dataset frees
//! everything — the next request re-reads the NXCOL file.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use nexus_core::{
    extract_column, ColumnExtraction, CoreError, MemoKey, MemoKind, MemoStore, NexusOptions,
};
use nexus_kg::KnowledgeGraph;
use nexus_table::Table;

use crate::wire::DatasetEntryWire;

/// Registry failures. Per-request failures travel to clients as
/// [`crate::wire::error_code`] error frames.
#[derive(Debug)]
pub(crate) enum RegistryError {
    /// No dataset registered under the name.
    Unknown(String),
    /// The store file or KG TSV could not be loaded (I/O, NXCOL
    /// validation, or KG parse failure).
    Load(String),
    /// KG extraction failed while materializing.
    Core(CoreError),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Unknown(name) => write!(f, "no dataset named {name:?}"),
            RegistryError::Load(msg) => write!(f, "dataset load failed: {msg}"),
            RegistryError::Core(e) => write!(f, "extraction failed: {e}"),
        }
    }
}

/// Where a dataset's bytes come from when it materializes.
pub(crate) enum DatasetSource {
    /// Handed to the server in memory ([`crate::Server::add_dataset`]).
    /// The spec keeps the table and KG alive, so re-materialization after
    /// an eviction only re-mines the extractions.
    Memory {
        /// The queried table.
        table: Arc<Table>,
        /// Its knowledge source.
        kg: Arc<KnowledgeGraph>,
    },
    /// On disk: an NXCOL table file and an optional KG TSV, re-read on
    /// every materialization.
    Store {
        /// Path of the NXCOL file.
        table_path: PathBuf,
        /// Path of the KG TSV (`None` = empty knowledge graph).
        kg_path: Option<PathBuf>,
    },
}

/// How to obtain a dataset: its source plus the columns to mine KG
/// candidates from.
pub(crate) struct DatasetSpec {
    pub source: DatasetSource,
    pub extraction_columns: Vec<String>,
}

/// One materialized dataset: the table, its knowledge source, and the
/// query-independent extraction artifacts every request reuses.
pub(crate) struct DatasetState {
    pub table: Arc<Table>,
    pub kg: Arc<KnowledgeGraph>,
    /// Query-independent KG extraction artifacts, reused by every request.
    /// Arc'd so memoized re-materializations share them instead of
    /// re-mining the KG.
    pub extractions: Vec<Arc<ColumnExtraction>>,
    /// Content fingerprint of (table, kg, extraction columns) — the
    /// dataset component of every cache key, identical whether the bytes
    /// arrived in memory or from an NXCOL file.
    pub fingerprint: u64,
    /// What this dataset's store entry is charged: the approximate
    /// in-memory size of its table and KG (the extractions are charged
    /// as entries of their own).
    pub charge: u64,
}

struct Entry {
    spec: Arc<DatasetSpec>,
    /// The registration generation: the `set_fp` of this registration's
    /// [`MemoKind::Dataset`] key.
    generation: u64,
    /// Fingerprint of the last materialization (0 = never loaded), so the
    /// listing stays informative across evictions.
    last_fingerprint: u64,
}

/// The store key of one registration's materialized artifacts.
fn dataset_key(name: &str, generation: u64) -> MemoKey {
    MemoKey::new(MemoKind::Dataset, 0, generation, 0, name)
}

/// The store key of one column's extraction. Extraction depends only on
/// the table column, the KG, and the extraction options — exactly what
/// this key hashes. The dataset fingerprint also covers the column
/// *list*, which the per-column artifact must not depend on.
fn extraction_key(table_fp: u64, kg_fp: u64, options: &NexusOptions, column: &str) -> MemoKey {
    let mut h = nexus_table::Fnv64::new();
    h.write_u64(table_fp);
    h.write_u64(kg_fp);
    MemoKey::new(
        MemoKind::Extraction,
        h.finish(),
        options.fingerprint(),
        0,
        column,
    )
}

/// Named datasets whose artifacts live in the shared [`MemoStore`] (see
/// the module docs).
pub(crate) struct DatasetRegistry {
    entries: Mutex<HashMap<String, Entry>>,
    memo: Arc<MemoStore>,
    generation: AtomicU64,
    loads: AtomicU64,
    evictions: AtomicU64,
    extraction_builds: AtomicU64,
}

impl DatasetRegistry {
    pub(crate) fn new(memo: Arc<MemoStore>) -> DatasetRegistry {
        DatasetRegistry {
            entries: Mutex::new(HashMap::new()),
            memo,
            generation: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            extraction_builds: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<String, Entry>> {
        self.entries.lock().expect("registry poisoned")
    }

    /// The resident artifacts of a registration, if any (no LRU bump, no
    /// counters).
    fn resident(&self, name: &str, entry: &Entry) -> Option<Arc<DatasetState>> {
        self.memo.peek(&dataset_key(name, entry.generation))
    }

    /// Registers (or replaces) a dataset without materializing anything.
    /// Replacing a resident dataset drops its artifacts (counted as an
    /// eviction: the resident set shrank).
    pub(crate) fn register(&self, name: String, spec: DatasetSpec) {
        let generation = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        let mut entries = self.lock();
        let entry = Entry {
            spec: Arc::new(spec),
            generation,
            last_fingerprint: 0,
        };
        if let Some(old) = entries.insert(name.clone(), entry) {
            if self.memo.remove(&dataset_key(&name, old.generation)) {
                self.evictions.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    /// Returns the materialized artifacts for `name`, loading them if the
    /// dataset is registered but not resident. Concurrent first touches
    /// share one load. A warm call moves no registry counter.
    pub(crate) fn ensure_resident(
        &self,
        name: &str,
        options: &NexusOptions,
    ) -> Result<Arc<DatasetState>, RegistryError> {
        let (spec, key) = {
            let entries = self.lock();
            let Some(entry) = entries.get(name) else {
                return Err(RegistryError::Unknown(name.to_string()));
            };
            (Arc::clone(&entry.spec), dataset_key(name, entry.generation))
        };
        // Loads and extraction mining run outside the registry lock, so
        // other datasets' requests do not queue behind them.
        let state = self.memo.try_get_or_build(&key, || {
            let state = self.materialize(&spec, options)?;
            self.loads.fetch_add(1, Ordering::SeqCst);
            let charge = state.charge;
            Ok::<_, RegistryError>((Arc::new(state), charge))
        })?;

        let mut entries = self.lock();
        match entries.get_mut(name) {
            Some(entry) if entry.generation == key.set_fp => {
                entry.last_fingerprint = state.fingerprint;
            }
            // Replaced while loading: the stale artifacts still serve this
            // request but must not stay resident.
            _ => {
                self.memo.remove(&key);
            }
        }
        Ok(state)
    }

    fn materialize(
        &self,
        spec: &DatasetSpec,
        options: &NexusOptions,
    ) -> Result<DatasetState, RegistryError> {
        let (table, kg) = match &spec.source {
            DatasetSource::Memory { table, kg } => (Arc::clone(table), Arc::clone(kg)),
            DatasetSource::Store {
                table_path,
                kg_path,
            } => {
                let table = nexus_store::read_table_path(table_path)
                    .map_err(|e| RegistryError::Load(format!("{}: {e}", table_path.display())))?;
                let kg = match kg_path {
                    Some(path) => nexus_kg::read_kg_path(path)
                        .map_err(|e| RegistryError::Load(format!("{}: {e}", path.display())))?,
                    None => KnowledgeGraph::new(),
                };
                (Arc::new(table), Arc::new(kg))
            }
        };
        let (table_fp, kg_fp) = (table.fingerprint(), kg.fingerprint());
        let extractions = spec
            .extraction_columns
            .iter()
            .map(|column| {
                let key = extraction_key(table_fp, kg_fp, options, column);
                // A hit shares the artifact without touching
                // `extraction_builds`; an extraction error publishes
                // nothing, so a waiter is elected and sees it too.
                self.memo.try_get_or_build(&key, || {
                    let ext = extract_column(&table, &kg, column, options)
                        .map_err(RegistryError::Core)?;
                    self.extraction_builds.fetch_add(1, Ordering::SeqCst);
                    let bytes = extraction_approx_bytes(&ext);
                    Ok((Arc::new(ext), bytes))
                })
            })
            .collect::<Result<Vec<_>, RegistryError>>()?;
        let fingerprint = {
            let mut h = nexus_table::Fnv64::new();
            h.write_u64(table_fp);
            h.write_u64(kg_fp);
            h.write_u64(spec.extraction_columns.len() as u64);
            for c in &spec.extraction_columns {
                h.write_str(c);
            }
            h.finish()
        };
        let charge = table.approx_bytes() + kg.approx_bytes();
        Ok(DatasetState {
            table,
            kg,
            extractions,
            fingerprint,
            charge,
        })
    }

    /// Drops a dataset's resident artifacts, keeping the registration.
    /// Returns whether artifacts were actually resident.
    pub(crate) fn evict(&self, name: &str) -> Result<bool, RegistryError> {
        let entries = self.lock();
        let Some(entry) = entries.get(name) else {
            return Err(RegistryError::Unknown(name.to_string()));
        };
        let was_resident = self.memo.remove(&dataset_key(name, entry.generation));
        if was_resident {
            self.evictions.fetch_add(1, Ordering::SeqCst);
        }
        Ok(was_resident)
    }

    /// Registered names, sorted.
    pub(crate) fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// The registry listing, sorted by name.
    pub(crate) fn list(&self) -> Vec<DatasetEntryWire> {
        let entries = self.lock();
        let mut rows: Vec<DatasetEntryWire> = entries
            .iter()
            .map(|(name, e)| match self.resident(name, e) {
                Some(s) => DatasetEntryWire {
                    name: name.clone(),
                    resident: true,
                    rows: s.table.n_rows() as u64,
                    store_bytes: s.charge,
                    fingerprint: s.fingerprint,
                },
                None => DatasetEntryWire {
                    name: name.clone(),
                    resident: false,
                    rows: 0,
                    store_bytes: 0,
                    fingerprint: e.last_fingerprint,
                },
            })
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        rows
    }

    /// Extraction columns of a registered dataset.
    pub(crate) fn extraction_columns(&self, name: &str) -> Option<Vec<String>> {
        self.lock()
            .get(name)
            .map(|e| e.spec.extraction_columns.clone())
    }

    /// Entity count of a dataset's KG, if its artifacts are resident.
    pub(crate) fn kg_entities(&self, name: &str) -> Option<usize> {
        let entries = self.lock();
        let entry = entries.get(name)?;
        self.resident(name, entry).map(|s| s.kg.n_entities())
    }

    /// Registered datasets (resident or not).
    pub(crate) fn registered(&self) -> u64 {
        self.lock().len() as u64
    }

    /// Cumulative materializations (cold loads + reloads after eviction).
    pub(crate) fn loads(&self) -> u64 {
        self.loads.load(Ordering::SeqCst)
    }

    /// Cumulative explicit and replacement evictions (budget evictions
    /// are counted by the store, per kind).
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::SeqCst)
    }

    /// Cumulative per-column KG extraction builds.
    pub(crate) fn extraction_builds(&self) -> u64 {
        self.extraction_builds.load(Ordering::SeqCst)
    }

    /// Fingerprint over the sorted resident `(name, fingerprint)` pairs:
    /// changes exactly when the resident set (or a member's content)
    /// does; 0 when nothing is resident.
    pub(crate) fn combined_fingerprint(&self) -> u64 {
        let entries = self.lock();
        let mut resident: Vec<(&String, u64)> = entries
            .iter()
            .filter_map(|(name, e)| self.resident(name, e).map(|s| (name, s.fingerprint)))
            .collect();
        if resident.is_empty() {
            return 0;
        }
        resident.sort();
        let mut h = nexus_table::Fnv64::new();
        h.write_u64(resident.len() as u64);
        for (name, fp) in resident {
            h.write_str(name);
            h.write_u64(fp);
        }
        h.finish()
    }
}

/// Rough heap footprint of one extraction artifact, charged against the
/// memo byte budget. Counts the row codes, validity words, and per
/// candidate the entity-level code map and weights; small fixed terms
/// round up structural overhead.
fn extraction_approx_bytes(ext: &ColumnExtraction) -> u64 {
    let codes = ext.codes.codes.len() * 4
        + ext
            .codes
            .validity
            .as_ref()
            .map_or(0, |v| v.words().len() * 8);
    let candidates: usize = ext
        .candidates
        .iter()
        .map(|c| {
            let repr = match &c.repr {
                nexus_core::CandidateRepr::RowLevel(codes) => codes.codes.len() * 4,
                nexus_core::CandidateRepr::EntityLevel { map, .. } => map.len() * 4,
            };
            c.name.len() + repr + c.entity_weights.as_ref().map_or(0, |w| w.len() * 8) + 96
        })
        .sum();
    (codes + candidates + ext.column.len() + 64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_table::Column;

    fn memory_spec(rows: i64) -> DatasetSpec {
        let table =
            Table::new(vec![("x", Column::from_i64((0..rows).collect::<Vec<_>>()))]).unwrap();
        DatasetSpec {
            source: DatasetSource::Memory {
                table: Arc::new(table),
                kg: Arc::new(KnowledgeGraph::new()),
            },
            extraction_columns: vec![],
        }
    }

    /// A registry over a fresh store with the given budget.
    fn registry(max_bytes: u64) -> (DatasetRegistry, Arc<MemoStore>) {
        let memo = Arc::new(MemoStore::new(max_bytes));
        (DatasetRegistry::new(Arc::clone(&memo)), memo)
    }

    #[test]
    fn registration_is_lazy_and_loads_once() {
        let (reg, memo) = registry(0);
        reg.register("a".into(), memory_spec(10));
        assert_eq!(
            (
                reg.registered(),
                memo.usage(MemoKind::Dataset).entries,
                reg.loads()
            ),
            (1, 0, 0)
        );
        assert_eq!(reg.combined_fingerprint(), 0);

        let opts = NexusOptions::default();
        let first = reg.ensure_resident("a", &opts).unwrap();
        assert_eq!((memo.usage(MemoKind::Dataset).entries, reg.loads()), (1, 1));
        let warm = reg.ensure_resident("a", &opts).unwrap();
        assert!(
            Arc::ptr_eq(&first, &warm),
            "warm load returns the same artifacts"
        );
        assert_eq!(reg.loads(), 1, "warm load must not re-materialize");
        assert_ne!(reg.combined_fingerprint(), 0);
    }

    #[test]
    fn reregistration_drops_the_old_artifacts() {
        let (reg, memo) = registry(0);
        let opts = NexusOptions::default();
        reg.register("a".into(), memory_spec(10));
        let old = reg.ensure_resident("a", &opts).unwrap();
        reg.register("a".into(), memory_spec(20));
        assert_eq!(reg.evictions(), 1, "replacing a resident dataset evicts it");
        assert_eq!(memo.usage(MemoKind::Dataset).entries, 0);
        let new = reg.ensure_resident("a", &opts).unwrap();
        assert_eq!((old.table.n_rows(), new.table.n_rows()), (10, 20));
        assert_eq!(reg.loads(), 2);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let opts = NexusOptions::default();
        let (probe, _) = registry(0);
        probe.register("p".into(), memory_spec(64));
        let one = probe.ensure_resident("p", &opts).unwrap().charge;

        // Budget fits one dataset but not two.
        let (reg, memo) = registry(one + one / 2);
        reg.register("a".into(), memory_spec(64));
        reg.register("b".into(), memory_spec(64));
        reg.ensure_resident("a", &opts).unwrap();
        reg.ensure_resident("b", &opts).unwrap();
        let usage = memo.usage(MemoKind::Dataset);
        assert_eq!((usage.entries, usage.evictions), (1, 1), "a evicted for b");
        assert_eq!(usage.bytes, one);
        assert!(reg.kg_entities("a").is_none(), "a is no longer resident");
        assert!(reg.kg_entities("b").is_some());

        // Re-requesting the victim re-materializes (and evicts b).
        reg.ensure_resident("a", &opts).unwrap();
        assert_eq!(
            (reg.loads(), memo.usage(MemoKind::Dataset).evictions),
            (3, 2)
        );
        let listed = reg.list();
        assert_eq!(listed.len(), 2);
        assert!(listed[0].resident && listed[0].name == "a");
        assert_eq!(listed[0].store_bytes, one);
        assert!(!listed[1].resident && listed[1].name == "b");
        assert_ne!(
            listed[1].fingerprint, 0,
            "evicted entry remembers its fingerprint"
        );
    }

    #[test]
    fn memoized_extraction_survives_eviction_without_rebuilding() {
        let table = Arc::new(
            Table::new(vec![(
                "x",
                Column::from_opt_strs(&[Some("a"), Some("b"), Some("a"), None]),
            )])
            .unwrap(),
        );
        let spec = || DatasetSpec {
            source: DatasetSource::Memory {
                table: Arc::clone(&table),
                kg: Arc::new(KnowledgeGraph::new()),
            },
            extraction_columns: vec!["x".into()],
        };
        let opts = NexusOptions::default();
        let (reg, memo) = registry(0);
        reg.register("d".into(), spec());

        let cold = reg.ensure_resident("d", &opts).unwrap();
        assert_eq!(reg.extraction_builds(), 1);
        let mined = Arc::clone(&cold.extractions[0]);

        assert!(reg.evict("d").unwrap());
        let warm = reg.ensure_resident("d", &opts).unwrap();
        assert_eq!(reg.loads(), 2, "eviction forces a re-materialization");
        assert_eq!(
            reg.extraction_builds(),
            1,
            "memo hit must skip the KG re-mining"
        );
        assert!(
            Arc::ptr_eq(&mined, &warm.extractions[0]),
            "the memoized artifact is shared, not recomputed"
        );

        // Once the extraction entry is gone too, the same eviction forces
        // a genuine rebuild.
        let kg_fp = KnowledgeGraph::new().fingerprint();
        let extraction = extraction_key(table.fingerprint(), kg_fp, &opts, "x");
        assert!(memo.remove(&extraction));
        assert!(reg.evict("d").unwrap());
        reg.ensure_resident("d", &opts).unwrap();
        assert_eq!(reg.extraction_builds(), 2);
    }

    #[test]
    fn unknown_names_are_typed() {
        let (reg, _) = registry(0);
        assert!(matches!(
            reg.ensure_resident("ghost", &NexusOptions::default()),
            Err(RegistryError::Unknown(_))
        ));
        assert!(matches!(reg.evict("ghost"), Err(RegistryError::Unknown(_))));
    }

    #[test]
    fn store_load_failures_are_typed() {
        let (reg, memo) = registry(0);
        reg.register(
            "bad".into(),
            DatasetSpec {
                source: DatasetSource::Store {
                    table_path: PathBuf::from("/nonexistent/claims.nxcol"),
                    kg_path: None,
                },
                extraction_columns: vec![],
            },
        );
        assert!(matches!(
            reg.ensure_resident("bad", &NexusOptions::default()),
            Err(RegistryError::Load(_))
        ));
        assert_eq!(reg.loads(), 0, "a failed load is not a load");
        assert_eq!(
            memo.resident_entries(),
            0,
            "a failed load publishes nothing"
        );
    }
}
