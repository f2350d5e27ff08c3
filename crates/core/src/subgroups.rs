//! Top-k unexplained data subgroups (Algorithm 2).
//!
//! After an explanation `E` is produced for query context `C`, the analyst
//! can ask which large data subgroups — context refinements `C' = C ∧
//! (A₁=v₁) ∧ …` — are *not* explained by `E` (their explanation score
//! `I(O;T|C',E)` exceeds a threshold τ). The refinement lattice is
//! traversed top-down through a max-heap ordered by group size, generating
//! each node once and skipping descendants of already-reported groups.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use nexus_info::InfoContext;
use nexus_table::{bin_to_column, Bitmap, Codes, Column, DataType, Table};

use crate::candidate::CandidateSet;
use crate::error::Result;
use crate::options::NexusOptions;

/// Options for the subgroup search.
#[derive(Debug, Clone, Copy)]
pub struct SubgroupOptions {
    /// Number of subgroups to report.
    pub k: usize,
    /// Score threshold τ: refinements with `I(O;T|C',E) > τ` are reported.
    pub tau: f64,
    /// Maximum number of conditions in a refinement.
    pub max_depth: usize,
    /// Minimum group size worth reporting (guards against noise estimates
    /// on tiny groups).
    pub min_size: usize,
    /// Safety bound on evaluated refinements.
    pub max_evaluations: usize,
}

impl Default for SubgroupOptions {
    fn default() -> Self {
        SubgroupOptions {
            k: 5,
            tau: 0.2,
            max_depth: 2,
            min_size: 30,
            max_evaluations: 5_000,
        }
    }
}

/// One unexplained subgroup.
#[derive(Debug, Clone)]
pub struct Subgroup {
    /// The conjunction of added conditions, as `(column, value)` pairs.
    pub conditions: Vec<(String, String)>,
    /// Number of rows in the refined context.
    pub size: usize,
    /// The explanation score `I(O;T|C',E)`.
    pub score: f64,
}

impl Subgroup {
    /// A SQL-ish rendering (`Continent == Europe AND …`).
    pub fn describe(&self) -> String {
        self.conditions
            .iter()
            .map(|(c, v)| format!("{c} == {v}"))
            .collect::<Vec<_>>()
            .join(" AND ")
    }
}

/// A refinement attribute: row-level codes plus display labels per code.
struct RefineAttr {
    name: String,
    codes: Codes,
    labels: Vec<String>,
}

/// Builds refinement attributes from the table's columns (binned when
/// numeric), excluding the exposure/outcome columns named in `exclude`.
fn refinement_attrs(
    table: &Table,
    exclude: &[&str],
    options: &NexusOptions,
) -> Result<Vec<RefineAttr>> {
    let mut out = Vec::new();
    for field in table.schema().fields() {
        if exclude.contains(&field.name.as_str()) {
            continue;
        }
        let col = table.column(&field.name)?;
        let (codes, labels) = match field.dtype {
            DataType::Utf8 | DataType::Bool => {
                let codes = col.category_codes()?;
                let labels = labels_for(col, &codes);
                (codes, labels)
            }
            _ => {
                let binned: Column = bin_to_column(col, options.candidate_bins)?;
                let codes = binned.category_codes()?;
                let labels = labels_for(&binned, &codes);
                (codes, labels)
            }
        };
        // Very-high-cardinality attributes make poor subgroup descriptors.
        if codes.cardinality >= 2 && codes.cardinality <= 64 {
            out.push(RefineAttr {
                name: field.name.clone(),
                codes,
                labels,
            });
        }
    }
    Ok(out)
}

/// Representative label per code.
fn labels_for(col: &Column, codes: &Codes) -> Vec<String> {
    let mut labels = vec![String::new(); codes.cardinality as usize];
    let mut found = 0u32;
    for i in 0..codes.len() {
        if codes.is_valid(i) {
            let c = codes.codes[i] as usize;
            if labels[c].is_empty() {
                labels[c] = col.value(i).to_string();
                found += 1;
                if found == codes.cardinality {
                    break;
                }
            }
        }
    }
    labels
}

/// A lattice node in the heap, ordered by group size.
struct Node {
    size: usize,
    /// `(attr index, code)` conditions, attr indices strictly increasing.
    conditions: Vec<(usize, u32)>,
    mask: Bitmap,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.size == other.size
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        self.size.cmp(&other.size)
    }
}

/// Finds the top-k largest unexplained subgroups (Algorithm 2).
///
/// `selected` are the indices of the explanation's attributes in `set`.
pub fn unexplained_subgroups(
    table: &Table,
    set: &CandidateSet,
    selected: &[usize],
    exclude: &[&str],
    options: &NexusOptions,
    sg: &SubgroupOptions,
) -> Result<Vec<Subgroup>> {
    let attrs = refinement_attrs(table, exclude, options)?;
    let explanation_rows: Vec<Codes> = selected
        .iter()
        .map(|&i| set.row_codes(&set.candidates[i]))
        .collect();

    let mut heap: BinaryHeap<Node> = BinaryHeap::new();
    let root_mask = set.mask.clone();
    push_children(
        &mut heap,
        &Node {
            size: root_mask.count_ones(),
            conditions: Vec::new(),
            mask: root_mask,
        },
        &attrs,
        sg,
    );

    let mut results: Vec<Subgroup> = Vec::new();
    let mut evaluations = 0usize;
    while let Some(node) = heap.pop() {
        if results.len() >= sg.k || evaluations >= sg.max_evaluations {
            break;
        }
        evaluations += 1;
        // Skip descendants of reported groups.
        if results.iter().any(|r| {
            r.conditions.iter().all(|(c, v)| {
                node.conditions.iter().any(|&(ai, code)| {
                    attrs[ai].name == *c && attrs[ai].labels[code as usize] == *v
                })
            })
        }) {
            continue;
        }
        let ctx = InfoContext::masked(&node.mask);
        let refs: Vec<&Codes> = explanation_rows.iter().collect();
        // Miller–Madow-corrected: small refinements must not look
        // unexplained through estimation bias alone.
        let score = ctx.cmi_mm(&set.o, &set.t, &refs);
        if score > sg.tau {
            results.push(Subgroup {
                conditions: node
                    .conditions
                    .iter()
                    .map(|&(ai, code)| {
                        (
                            attrs[ai].name.clone(),
                            attrs[ai].labels[code as usize].clone(),
                        )
                    })
                    .collect(),
                size: node.size,
                score,
            });
        } else if node.conditions.len() < sg.max_depth {
            push_children(&mut heap, &node, &attrs, sg);
        }
    }
    Ok(results)
}

/// Generates each child of `node` exactly once by only extending with
/// attributes beyond the last condition's attribute index.
fn push_children(
    heap: &mut BinaryHeap<Node>,
    node: &Node,
    attrs: &[RefineAttr],
    sg: &SubgroupOptions,
) {
    let start = node.conditions.last().map_or(0, |&(ai, _)| ai + 1);
    for (ai, attr) in attrs.iter().enumerate().skip(start) {
        for code in 0..attr.cardinality() {
            let mut mask = node.mask.clone();
            let mut size = 0usize;
            for i in 0..attr.codes.len() {
                if mask.get(i) {
                    if attr.codes.is_valid(i) && attr.codes.codes[i] == code {
                        size += 1;
                    } else {
                        mask.set(i, false);
                    }
                }
            }
            if size < sg.min_size {
                continue;
            }
            let mut conditions = node.conditions.clone();
            conditions.push((ai, code));
            heap.push(Node {
                size,
                conditions,
                mask,
            });
        }
    }
}

impl RefineAttr {
    fn cardinality(&self) -> u32 {
        self.codes.cardinality
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::build_candidates;
    use crate::engine::Engine;
    use crate::mcimr::mcimr;
    use nexus_kg::KnowledgeGraph;
    use nexus_query::parse;
    use nexus_runtime::Parallelism;
    use nexus_table::Column;

    /// Salary = hdi everywhere except in Europe, where it's driven by gini
    /// (hdi constant there). Explanation {hdi} then leaves Europe
    /// unexplained.
    fn setup() -> (Table, KnowledgeGraph) {
        let mut countries = Vec::new();
        let mut continents = Vec::new();
        let mut salaries = Vec::new();
        let mut kg = KnowledgeGraph::new();
        for c in 0..12 {
            let name = format!("C{c:02}");
            let europe = c < 6;
            let hdi = if europe { 3.0 } else { (c % 4) as f64 };
            let gini = (c % 3) as f64;
            let id = kg.add_entity(name.clone(), "Country");
            kg.set_literal(id, "hdi", hdi);
            kg.set_literal(id, "gini", gini);
            for i in 0..40 {
                countries.push(name.clone());
                continents.push(if europe { "Europe" } else { "Asia" });
                salaries.push(if europe {
                    30.0 - 7.0 * gini + (i % 2) as f64 * 0.1
                } else {
                    10.0 * hdi + (i % 2) as f64 * 0.1
                });
            }
        }
        let table = Table::new(vec![
            ("Country", Column::from_strs(&countries)),
            ("Continent", Column::from_strs(&continents)),
            ("Salary", Column::from_f64(salaries)),
        ])
        .unwrap();
        (table, kg)
    }

    #[test]
    fn finds_europe_as_unexplained() {
        let (table, kg) = setup();
        let q = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
        let options = NexusOptions::default();
        let set = build_candidates(&table, &kg, &["Country".to_string()], &q, &options).unwrap();
        let engine = Engine::with_parallelism_memo(&set, Parallelism::Serial, None);
        let hdi = set.index_of("Country::hdi").unwrap();
        // Force the explanation {hdi} as in the paper's Example 4.4.
        let _ = engine;
        let subgroups = unexplained_subgroups(
            &table,
            &set,
            &[hdi],
            &["Country", "Salary"],
            &options,
            &SubgroupOptions {
                tau: 0.2,
                ..SubgroupOptions::default()
            },
        )
        .unwrap();
        assert!(!subgroups.is_empty());
        let top = &subgroups[0];
        assert_eq!(top.conditions.len(), 1);
        assert_eq!(top.conditions[0].0, "Continent");
        assert_eq!(top.conditions[0].1, "Europe");
        assert!(top.score > 0.2);
        assert_eq!(top.size, 240);
        assert!(top.describe().contains("Continent == Europe"));
    }

    #[test]
    fn good_explanation_leaves_nothing_unexplained() {
        let (table, kg) = setup();
        let q = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
        let options = NexusOptions::default();
        let set = build_candidates(&table, &kg, &["Country".to_string()], &q, &options).unwrap();
        let engine = Engine::with_parallelism_memo(&set, Parallelism::Serial, None);
        let r = mcimr(&set, &engine, &options);
        // MCIMR itself should find {hdi, gini}-ish sets that cover Europe.
        let subgroups = unexplained_subgroups(
            &table,
            &set,
            &r.selected,
            &["Country", "Salary"],
            &options,
            &SubgroupOptions {
                tau: 0.35,
                ..SubgroupOptions::default()
            },
        )
        .unwrap();
        assert!(
            subgroups.is_empty(),
            "unexpected subgroups: {:?}",
            subgroups.iter().map(|s| s.describe()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn evaluation_cap_bounds_work() {
        let (table, kg) = setup();
        let q = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
        let options = NexusOptions::default();
        let set = build_candidates(&table, &kg, &["Country".to_string()], &q, &options).unwrap();
        let hdi = set.index_of("Country::hdi").unwrap();
        // With a 1-evaluation budget at most one group can be reported.
        let subgroups = unexplained_subgroups(
            &table,
            &set,
            &[hdi],
            &["Country", "Salary"],
            &options,
            &SubgroupOptions {
                max_evaluations: 1,
                tau: 0.0,
                min_size: 1,
                ..SubgroupOptions::default()
            },
        )
        .unwrap();
        assert!(subgroups.len() <= 1);
    }

    #[test]
    fn deeper_refinements_have_more_conditions() {
        let (table, kg) = setup();
        let q = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
        let options = NexusOptions::default();
        let set = build_candidates(&table, &kg, &["Country".to_string()], &q, &options).unwrap();
        let hdi = set.index_of("Country::hdi").unwrap();
        let subgroups = unexplained_subgroups(
            &table,
            &set,
            &[hdi],
            &["Country", "Salary"],
            &options,
            &SubgroupOptions {
                tau: 0.2,
                max_depth: 2,
                min_size: 10,
                ..SubgroupOptions::default()
            },
        )
        .unwrap();
        for s in &subgroups {
            assert!(!s.conditions.is_empty());
            assert!(s.conditions.len() <= 2);
            assert!(s.size >= 10);
        }
    }

    #[test]
    fn respects_min_size_and_k() {
        let (table, kg) = setup();
        let q = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
        let options = NexusOptions::default();
        let set = build_candidates(&table, &kg, &["Country".to_string()], &q, &options).unwrap();
        let hdi = set.index_of("Country::hdi").unwrap();
        let subgroups = unexplained_subgroups(
            &table,
            &set,
            &[hdi],
            &["Country", "Salary"],
            &options,
            &SubgroupOptions {
                k: 1,
                tau: 0.0,
                min_size: 1_000_000,
                ..SubgroupOptions::default()
            },
        )
        .unwrap();
        // Nothing is large enough.
        assert!(subgroups.is_empty());
    }
}
