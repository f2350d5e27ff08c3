//! The common interface all comparison methods implement.

use nexus_core::{CandidateSet, Engine, NexusOptions};

/// A selection strategy: given the (pruned) candidate set and the shared
/// estimation engine, pick an explanation.
///
/// All methods see the same candidates and the same estimator policy
/// (eligibility + calibrated CMI), so Table 2/3 compare *selection
/// strategies*, exactly as the paper's user study does.
pub trait ExplainMethod {
    /// Display name (matches the paper's Table 2 column).
    fn name(&self) -> &'static str;

    /// Indices (into `set.candidates`) of the selected attributes.
    fn select(&self, set: &CandidateSet, engine: &Engine, options: &NexusOptions) -> Vec<usize>;
}

/// The eligible candidate indices under the shared estimator policy.
pub fn eligible_indices(set: &CandidateSet, engine: &Engine, options: &NexusOptions) -> Vec<usize> {
    (0..set.candidates.len())
        .filter(|&i| engine.eligible(set, i, options))
        .collect()
}

#[cfg(test)]
pub(crate) mod testkit {
    //! A shared synthetic fixture for baseline tests: salary driven by two
    //! entity-level confounders (hdi strong, gini weaker), with a redundant
    //! copy of hdi and an irrelevant distractor.

    use nexus_core::{build_candidates, CandidateSet, Engine, NexusOptions, Parallelism};
    use nexus_kg::KnowledgeGraph;
    use nexus_query::parse;
    use nexus_table::{Column, Table};

    pub fn fixture() -> (CandidateSet, Engine, NexusOptions) {
        let mut countries = Vec::new();
        let mut salaries = Vec::new();
        let mut kg = KnowledgeGraph::new();
        for c in 0..96 {
            let name = format!("C{c:02}");
            let hdi = (c % 4) as f64;
            let gini = ((c / 4) % 3) as f64;
            let id = kg.add_entity(name.clone(), "Country");
            kg.set_literal(id, "hdi", hdi);
            kg.set_literal(id, "hdi copy", hdi * 3.0 + 1.0);
            kg.set_literal(id, "gini", gini);
            kg.set_literal(id, "shuffle", ((c * 37 + 5) % 96) as f64);
            for i in 0..10 {
                countries.push(name.clone());
                salaries.push(20.0 * hdi - 7.0 * gini + (i % 3) as f64 * 0.3);
            }
        }
        let table = Table::new(vec![
            ("Country", Column::from_strs(&countries)),
            ("Salary", Column::from_f64(salaries)),
        ])
        .unwrap();
        let q = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
        let options = NexusOptions::default();
        let set = build_candidates(&table, &kg, &["Country".to_string()], &q, &options).unwrap();
        let engine = Engine::with_parallelism_memo(&set, Parallelism::Serial, None);
        (set, engine, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eligibility_filter_applies() {
        let (set, engine, options) = testkit::fixture();
        let idx = eligible_indices(&set, &engine, &options);
        assert!(!idx.is_empty());
        assert!(idx.len() <= set.candidates.len());
        // The planted confounders are eligible.
        assert!(idx.contains(&set.index_of("Country::hdi").unwrap()));
        assert!(idx.contains(&set.index_of("Country::gini").unwrap()));
    }
}
