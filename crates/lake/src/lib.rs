//! # nexus-lake
//!
//! A data-lake knowledge source for NEXUS. The paper's framework "can
//! extract candidate confounders from any knowledge source (e.g., related
//! tables, data lakes, web tables) as long as it can be integrated with the
//! input data" (Section 1); its related-work section points to
//! joinability-discovery systems (JOSIE, LSH-Ensemble, COCOA) as the
//! integration machinery. This crate supplies that substrate:
//!
//! * a [`DataLake`] of named tables,
//! * **joinability discovery** ([`DataLake::joinable_with`]): find lake
//!   columns whose value sets contain a query column's values (set
//!   containment, the JOSIE criterion),
//! * **attribute extraction** ([`DataLake::to_knowledge_graph`]): turn every
//!   joinable table into entity-level attributes named
//!   `"{table}.{column}"`, aggregating one-to-many matches — producing a
//!   [`KnowledgeGraph`] so the core NEXUS pipeline consumes lake attributes
//!   unchanged.

#![warn(missing_docs)]

use std::collections::{HashMap, HashSet};

use nexus_kg::KnowledgeGraph;
use nexus_table::{Column, ColumnData, DataType, Table};

/// A named collection of tables acting as a knowledge source.
#[derive(Debug, Default)]
pub struct DataLake {
    tables: Vec<(String, Table)>,
}

/// A discovered join partner for a query column.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinCandidate {
    /// Index into the lake's table list.
    pub table: usize,
    /// The lake table's name.
    pub table_name: String,
    /// The join-key column inside that table.
    pub key_column: String,
    /// Fraction of the query column's distinct values found in the key.
    pub containment: f64,
}

/// Options for lake extraction.
#[derive(Debug, Clone, Copy)]
pub struct LakeOptions {
    /// Minimum containment for a column pair to count as joinable.
    pub min_containment: f64,
    /// Maximum distinct values a join key may have (guards against joining
    /// on free-text columns).
    pub max_key_cardinality: usize,
}

impl Default for LakeOptions {
    fn default() -> Self {
        LakeOptions {
            min_containment: 0.5,
            max_key_cardinality: 100_000,
        }
    }
}

impl DataLake {
    /// An empty lake.
    pub fn new() -> DataLake {
        DataLake::default()
    }

    /// Registers a table.
    pub fn add_table(&mut self, name: impl Into<String>, table: Table) {
        self.tables.push((name.into(), table));
    }

    /// Loads every `*.nxcol` file in `dir` (non-recursively) as a lake
    /// table named after the file stem, in lexicographic filename order
    /// so the lake's table order — and everything derived from it — is
    /// independent of directory enumeration order.
    ///
    /// Each file is strictly validated by `nexus-store`; the first
    /// corrupt or unreadable file aborts the load with its typed error
    /// (stringified into [`nexus_table::TableError::Io`]).
    pub fn from_store(dir: impl AsRef<std::path::Path>) -> nexus_table::Result<DataLake> {
        let dir = dir.as_ref();
        let io = |m: String| nexus_table::TableError::Io(m);
        let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| io(format!("{}: {e}", dir.display())))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "nxcol"))
            .collect();
        paths.sort();
        let mut lake = DataLake::new();
        for path in paths {
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .ok_or_else(|| io(format!("{}: non-UTF-8 file name", path.display())))?
                .to_string();
            let table = nexus_store::read_table_path(&path)
                .map_err(|e| io(format!("{}: {e}", path.display())))?;
            lake.add_table(name, table);
        }
        Ok(lake)
    }

    /// Number of tables in the lake.
    pub fn n_tables(&self) -> usize {
        self.tables.len()
    }

    /// Table access by index; `None` when `i` is out of range.
    pub fn table(&self, i: usize) -> Option<(&str, &Table)> {
        self.tables.get(i).map(|(n, t)| (n.as_str(), t))
    }

    /// Finds lake columns joinable with `col` under the containment
    /// criterion, best-first.
    pub fn joinable_with(&self, col: &Column, options: &LakeOptions) -> Vec<JoinCandidate> {
        let query_values = distinct_strings(col);
        if query_values.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (ti, (name, table)) in self.tables.iter().enumerate() {
            for field in table.schema().fields() {
                if field.dtype != DataType::Utf8 {
                    continue;
                }
                let key = table.column(&field.name).expect("schema column");
                let key_values = distinct_strings(key);
                if key_values.is_empty() || key_values.len() > options.max_key_cardinality {
                    continue;
                }
                let overlap = query_values
                    .iter()
                    .filter(|v| key_values.contains(*v))
                    .count();
                let containment = overlap as f64 / query_values.len() as f64;
                if containment >= options.min_containment {
                    out.push(JoinCandidate {
                        table: ti,
                        table_name: name.clone(),
                        key_column: field.name.clone(),
                        containment,
                    });
                }
            }
        }
        out.sort_by(|a, b| b.containment.partial_cmp(&a.containment).expect("finite"));
        out
    }

    /// Builds a knowledge graph whose entities are the distinct values of
    /// `col` and whose properties are the columns of every joinable lake
    /// table (named `"{table}.{column}"`). Numeric columns matched by
    /// multiple rows are averaged; categorical ones take the most frequent
    /// value — the paper's one-to-many aggregation.
    pub fn to_knowledge_graph(&self, col: &Column, options: &LakeOptions) -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        let values = distinct_strings(col);
        let mut id_of = HashMap::new();
        for v in &values {
            id_of.insert(v.clone(), kg.add_entity(v.clone(), "LakeEntity"));
        }
        for candidate in self.joinable_with(col, options) {
            // Candidates come from this lake, so the index is always live.
            let Some((tname, table)) = self.table(candidate.table) else {
                continue;
            };
            let key = table.column(&candidate.key_column).expect("key column");
            // Rows of the lake table per entity value.
            let mut rows_of: HashMap<&str, Vec<usize>> = HashMap::new();
            for r in 0..table.n_rows() {
                if let Some(v) = key.str_at(r) {
                    if id_of.contains_key(v) {
                        rows_of.entry(v).or_default().push(r);
                    }
                }
            }
            for field in table.schema().fields() {
                if field.name == candidate.key_column {
                    continue;
                }
                let prop = format!("{tname}.{}", field.name);
                let data = table.column(&field.name).expect("schema column");
                for (v, rows) in &rows_of {
                    let entity = id_of[*v];
                    match data.dtype() {
                        DataType::Float64 | DataType::Int64 => {
                            let vals: Vec<f64> =
                                rows.iter().filter_map(|&r| data.f64_at(r)).collect();
                            if !vals.is_empty() {
                                let mean = vals.iter().sum::<f64>() / vals.len() as f64;
                                kg.set_literal(entity, &prop, mean);
                            }
                        }
                        DataType::Utf8 => {
                            let mut counts: HashMap<&str, usize> = HashMap::new();
                            for &r in rows {
                                if let Some(s) = data.str_at(r) {
                                    *counts.entry(s).or_insert(0) += 1;
                                }
                            }
                            if let Some((mode, _)) = counts.into_iter().max_by_key(|&(_, c)| c) {
                                kg.set_literal(entity, &prop, mode);
                            }
                        }
                        DataType::Bool => {
                            let mut ones = 0usize;
                            let mut total = 0usize;
                            for &r in rows {
                                if !data.is_null(r) {
                                    total += 1;
                                    if data.value(r) == nexus_table::Value::Bool(true) {
                                        ones += 1;
                                    }
                                }
                            }
                            if total > 0 {
                                kg.set_literal(entity, &prop, ones * 2 >= total);
                            }
                        }
                    }
                }
            }
        }
        kg
    }
}

/// Distinct non-null strings of a Utf8 column (empty set otherwise).
fn distinct_strings(col: &Column) -> HashSet<String> {
    match col.data() {
        ColumnData::Utf8(arr) => {
            let mut used = HashSet::new();
            for i in 0..col.len() {
                if !col.is_null(i) {
                    used.insert(arr.get(i).to_string());
                }
            }
            used
        }
        _ => HashSet::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Table {
        Table::new(vec![
            (
                "Country",
                Column::from_strs(&["A", "A", "B", "B", "C", "C"]),
            ),
            (
                "Salary",
                Column::from_f64(vec![90.0, 92.0, 50.0, 52.0, 70.0, 72.0]),
            ),
        ])
        .unwrap()
    }

    fn lake() -> DataLake {
        let mut lake = DataLake::new();
        // A joinable stats table (one row per country).
        lake.add_table(
            "wdi",
            Table::new(vec![
                ("iso", Column::from_strs(&["A", "B", "C", "D"])),
                ("hdi", Column::from_f64(vec![0.9, 0.5, 0.7, 0.6])),
                ("region", Column::from_strs(&["eu", "af", "as", "eu"])),
            ])
            .unwrap(),
        );
        // A one-to-many table (cities per country).
        lake.add_table(
            "cities",
            Table::new(vec![
                (
                    "country",
                    Column::from_strs(&["A", "A", "B", "C", "C", "C"]),
                ),
                (
                    "population",
                    Column::from_f64(vec![10.0, 20.0, 5.0, 1.0, 2.0, 3.0]),
                ),
            ])
            .unwrap(),
        );
        // An unrelated table.
        lake.add_table(
            "movies",
            Table::new(vec![
                ("title", Column::from_strs(&["x", "y"])),
                ("gross", Column::from_f64(vec![1.0, 2.0])),
            ])
            .unwrap(),
        );
        lake
    }

    #[test]
    fn joinability_discovery() {
        let base = base();
        let lake = lake();
        let col = base.column("Country").unwrap();
        let candidates = lake.joinable_with(col, &LakeOptions::default());
        assert_eq!(candidates.len(), 2, "{candidates:?}");
        assert_eq!(candidates[0].containment, 1.0);
        let names: Vec<&str> = candidates.iter().map(|c| c.table_name.as_str()).collect();
        assert!(names.contains(&"wdi"));
        assert!(names.contains(&"cities"));
    }

    #[test]
    fn containment_threshold_filters() {
        let base = base();
        let lake = lake();
        let col = base.column("Country").unwrap();
        let strict = LakeOptions {
            min_containment: 1.01,
            ..LakeOptions::default()
        };
        assert!(lake.joinable_with(col, &strict).is_empty());
    }

    #[test]
    fn lake_to_kg_extracts_and_aggregates() {
        let base = base();
        let lake = lake();
        let col = base.column("Country").unwrap();
        let kg = lake.to_knowledge_graph(col, &LakeOptions::default());
        assert_eq!(kg.n_entities(), 3);
        let linker = nexus_kg::EntityLinker::new(&kg);
        let nexus_kg::LinkOutcome::Linked(a) = linker.link("A") else {
            panic!("entity A missing");
        };
        // Scalar join.
        match kg.property(a, "wdi.hdi") {
            Some(nexus_kg::PropertyValue::Literal(v)) => assert_eq!(v.as_f64(), Some(0.9)),
            other => panic!("unexpected {other:?}"),
        }
        match kg.property(a, "wdi.region") {
            Some(nexus_kg::PropertyValue::Literal(v)) => assert_eq!(v.as_str(), Some("eu")),
            other => panic!("unexpected {other:?}"),
        }
        // One-to-many aggregation: mean city population of A = 15.
        match kg.property(a, "cities.population") {
            Some(nexus_kg::PropertyValue::Literal(v)) => assert_eq!(v.as_f64(), Some(15.0)),
            other => panic!("unexpected {other:?}"),
        }
        // Unrelated tables contribute nothing.
        assert!(kg.lookup_prop("movies.gross").is_none());
    }

    #[test]
    fn from_store_loads_packed_tables_in_name_order() {
        let dir = std::env::temp_dir().join(format!("nexus-lake-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wdi = Table::new(vec![
            ("iso", Column::from_strs(&["A", "B"])),
            ("hdi", Column::from_f64(vec![0.9, 0.5])),
        ])
        .unwrap();
        let cities = Table::new(vec![
            ("country", Column::from_strs(&["A", "B", "B"])),
            ("population", Column::from_f64(vec![1.0, 2.0, 3.0])),
        ])
        .unwrap();
        nexus_store::write_table_path(&wdi, dir.join("wdi.nxcol")).unwrap();
        nexus_store::write_table_path(&cities, dir.join("cities.nxcol")).unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();

        let lake = DataLake::from_store(&dir).unwrap();
        assert_eq!(lake.n_tables(), 2);
        // Lexicographic filename order, not insertion order.
        let (name0, t0) = lake.table(0).unwrap();
        assert_eq!(name0, "cities");
        assert_eq!(t0.fingerprint(), cities.fingerprint());
        let (name1, t1) = lake.table(1).unwrap();
        assert_eq!(name1, "wdi");
        assert_eq!(t1.fingerprint(), wdi.fingerprint());

        // A corrupt store file aborts the whole load with a typed error.
        std::fs::write(dir.join("bad.nxcol"), b"not a store file").unwrap();
        let err = DataLake::from_store(&dir).unwrap_err();
        assert!(matches!(err, nexus_table::TableError::Io(_)), "{err:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn end_to_end_with_core_pipeline() {
        // The whole point: the lake-derived KG feeds the NEXUS pipeline.
        let mut countries = Vec::new();
        let mut salaries = Vec::new();
        let mut hdi_col = Vec::new();
        let mut names = Vec::new();
        for c in 0..18 {
            let name = format!("N{c:02}");
            let hdi = (c % 3) as f64;
            names.push(name.clone());
            hdi_col.push(hdi);
            for i in 0..25 {
                countries.push(name.clone());
                // Enough within-country spread that the binned outcome is
                // not *logically equivalent* to hdi (which would rightly be
                // pruned as an FD of O).
                salaries.push(10.0 * hdi + (i % 5) as f64 * 0.9);
            }
        }
        let base = Table::new(vec![
            ("Country", Column::from_strs(&countries)),
            ("Salary", Column::from_f64(salaries)),
        ])
        .unwrap();
        let mut lake = DataLake::new();
        lake.add_table(
            "stats",
            Table::new(vec![
                ("name", Column::from_strs(&names)),
                ("hdi", Column::from_f64(hdi_col)),
            ])
            .unwrap(),
        );
        let kg = lake.to_knowledge_graph(base.column("Country").unwrap(), &LakeOptions::default());
        let query =
            nexus_query::parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
        let request = nexus_core::ExplainRequest::new()
            .table(&base)
            .lake(kg)
            .extraction_column("Country")
            .query(&query);
        let (e, _) = nexus_core::Nexus::default()
            .run_controlled(&request, nexus_core::RunControl::none())
            .unwrap();
        assert!(e.names().contains(&"Country::stats.hdi"), "{:?}", e.names());
        assert!(e.explained_fraction() > 0.8);
    }
}
