//! Pruning optimizations (Section 4.2).
//!
//! * **Offline** (query-independent, "across-queries"): drop constants,
//!   attributes with more than 90% missing values, and high-entropy
//!   identifier-like attributes.
//! * **Online** (query-specific): drop attributes logically dependent on
//!   the exposure or outcome (approximate FDs, Lemma A.2), and attributes
//!   with negligible individual relevance (the low-relevance test of the
//!   appendix).

use crate::candidate::{Candidate, CandidateRepr, CandidateSet, MISSING_CODE};

use crate::engine::Engine;
use crate::options::NexusOptions;

/// Why a candidate was pruned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneReason {
    /// Constant value (offline).
    Constant,
    /// More than the allowed fraction missing (offline).
    TooManyMissing,
    /// Near-unique identifier (offline).
    HighEntropy,
    /// Logically dependent on the exposure or outcome (online).
    LogicalDependency,
    /// Individually irrelevant to the outcome (online).
    LowRelevance,
    /// A row-level alias/mediator of the outcome (online).
    OutcomeAlias,
}

/// The outcome of a pruning pass.
#[derive(Debug, Default)]
pub struct PruneReport {
    /// `(candidate name, reason)` for each dropped candidate.
    pub dropped: Vec<(String, PruneReason)>,
}

impl PruneReport {
    /// Number of dropped candidates.
    pub fn n_dropped(&self) -> usize {
        self.dropped.len()
    }

    /// Number dropped for a particular reason.
    pub fn n_dropped_for(&self, reason: PruneReason) -> usize {
        self.dropped.iter().filter(|(_, r)| *r == reason).count()
    }
}

/// Offline pruning: evaluates each candidate's own value distribution
/// (constants, missingness, identifier-likeness) without touching the
/// query. Mutates `set.candidates` in place and reports what was dropped.
pub fn prune_offline(set: &mut CandidateSet, options: &NexusOptions) -> PruneReport {
    let mut report = PruneReport::default();
    let column_codes = &set.column_codes;
    set.candidates.retain(|cand| {
        let reason = offline_reason(cand, column_codes, options);
        match reason {
            Some(r) => {
                report.dropped.push((cand.name.clone(), r));
                false
            }
            None => true,
        }
    });
    report
}

fn offline_reason(
    cand: &Candidate,
    column_codes: &std::collections::HashMap<String, nexus_table::Codes>,
    options: &NexusOptions,
) -> Option<PruneReason> {
    match &cand.repr {
        CandidateRepr::EntityLevel {
            column,
            map,
            cardinality,
        } => {
            let n_entities = column_codes[column].cardinality as usize;
            let present = map.iter().filter(|&&e| e != MISSING_CODE).count();
            if present == 0 {
                return Some(PruneReason::TooManyMissing);
            }
            let missing_fraction = 1.0 - present as f64 / n_entities.max(1) as f64;
            if missing_fraction > options.max_missing_fraction {
                return Some(PruneReason::TooManyMissing);
            }
            let mut distinct = vec![false; *cardinality as usize];
            let mut n_distinct = 0usize;
            for &e in map.iter() {
                if e != MISSING_CODE && !distinct[e as usize] {
                    distinct[e as usize] = true;
                    n_distinct += 1;
                }
            }
            if n_distinct <= 1 {
                return Some(PruneReason::Constant);
            }
            // Identifier-likeness. Binning caps cardinality, so the 0.95
            // row-style ratio only fires on categorical identifiers…
            if n_distinct as f64 / present as f64 > options.high_entropy_ratio && present > 8 {
                return Some(PruneReason::HighEntropy);
            }
            // …while the entity-support ratio catches sparsely-observed
            // attributes that become injective over the few entities they
            // cover (spuriously "perfect" explanations).
            if n_entities >= options.min_entities_for_identifier_test
                && n_distinct as f64 / present as f64 > options.entity_identifier_ratio
            {
                return Some(PruneReason::HighEntropy);
            }
            None
        }
        CandidateRepr::RowLevel(codes) => {
            let n = codes.len();
            let valid = codes.valid_count();
            if valid == 0 {
                return Some(PruneReason::TooManyMissing);
            }
            if (1.0 - valid as f64 / n.max(1) as f64) > options.max_missing_fraction {
                return Some(PruneReason::TooManyMissing);
            }
            let mut distinct = vec![false; codes.cardinality as usize];
            let mut n_distinct = 0usize;
            for i in 0..n {
                if codes.is_valid(i) {
                    let c = codes.codes[i] as usize;
                    if !distinct[c] {
                        distinct[c] = true;
                        n_distinct += 1;
                    }
                }
            }
            if n_distinct <= 1 {
                return Some(PruneReason::Constant);
            }
            if n_distinct as f64 / valid as f64 > options.high_entropy_ratio && valid > 8 {
                return Some(PruneReason::HighEntropy);
            }
            None
        }
    }
}

/// Online pruning: logical-dependency and low-relevance tests against the
/// query's exposure and outcome. Requires the engine (contingencies).
/// Mutates `set.candidates` in place.
pub fn prune_online(
    set: &mut CandidateSet,
    engine: &Engine,
    options: &NexusOptions,
) -> PruneReport {
    // Per-candidate verdicts are independent, so they run on the engine's
    // pool; the verdict vector comes back in candidate order, keeping the
    // report and the compaction identical to the serial pass.
    let verdicts: Vec<Option<PruneReason>> = engine.pool().map(set.candidates.len(), |idx| {
        online_reason(set, engine, options, idx)
    });
    let mut report = PruneReport::default();
    for (idx, reason) in verdicts.iter().enumerate() {
        if let Some(r) = reason {
            report.dropped.push((set.candidates[idx].name.clone(), *r));
        }
    }
    let mut it = verdicts.into_iter();
    set.candidates
        .retain(|_| it.next().expect("verdicts aligned").is_none());
    report
}

/// The online verdict for one candidate (`None` = keep).
fn online_reason(
    set: &CandidateSet,
    engine: &Engine,
    options: &NexusOptions,
    idx: usize,
) -> Option<PruneReason> {
    let stats = engine.stats(set, idx);
    // Degenerate support (e.g. everything missing inside the context).
    if stats.support <= 1.0 {
        return Some(PruneReason::TooManyMissing);
    }
    // Logical dependency with T: both residual entropies ≈ 0 (Lemma
    // A.2); same test against O.
    let fd_t =
        stats.h_t_given_e() <= options.fd_epsilon && stats.h_e_given_t() <= options.fd_epsilon;
    let h_o_given_e = (stats.h_oe.0 - stats.h_e.0).max(0.0);
    let h_e_given_o = (stats.h_oe.0 - stats.h_o.0).max(0.0);
    let fd_o = h_o_given_e <= options.fd_epsilon && h_e_given_o <= options.fd_epsilon;
    if fd_t || fd_o {
        return Some(PruneReason::LogicalDependency);
    }
    // Outcome alias: a row-level attribute that tracks O within
    // exposure groups is a measurement of the outcome, not a
    // confounder.
    if matches!(set.candidates[idx].repr, CandidateRepr::RowLevel(_))
        && stats.relevance() > options.outcome_alias_fraction * stats.h_o.0
    {
        return Some(PruneReason::OutcomeAlias);
    }
    // Low relevance: E tells us nothing about O, marginally or within
    // exposure groups.
    if stats.relevance() <= options.relevance_epsilon
        && stats.relevance_given_t() <= options.relevance_epsilon
    {
        return Some(PruneReason::LowRelevance);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::build_candidates;
    use nexus_kg::KnowledgeGraph;
    use nexus_query::parse;
    use nexus_runtime::Parallelism;
    use nexus_table::{Column, Table};

    /// Countries with: hdi (real confounder), code/wiki_id (entity-unique
    /// identifiers), kind (constant); base columns CountryCode (FD with the
    /// exposure) and Shoe (row-level, provably irrelevant).
    fn toy() -> (Table, KnowledgeGraph, Vec<String>) {
        let names = ["A", "B", "C", "D", "E", "F", "G", "H", "I", "J"];
        let mut countries = Vec::new();
        let mut codes = Vec::new();
        let mut shoes = Vec::new();
        let mut salaries = Vec::new();
        for (ci, c) in names.iter().enumerate() {
            for i in 0..30 {
                countries.push(*c);
                codes.push(format!("CC_{c}"));
                shoes.push(if i % 2 == 0 { "s0" } else { "s1" });
                salaries.push(40.0 + 6.0 * ci as f64);
            }
        }
        let table = Table::new(vec![
            ("Country", Column::from_strs(&countries)),
            ("CountryCode", Column::from_strs(&codes)),
            ("Shoe", Column::from_strs(&shoes)),
            ("Salary", Column::from_f64(salaries)),
        ])
        .unwrap();
        let mut kg = KnowledgeGraph::new();
        for (ci, c) in names.iter().enumerate() {
            let id = kg.add_entity(*c, "Country");
            kg.set_literal(id, "hdi", 0.4 + 0.05 * ci as f64);
            kg.set_literal(id, "code", format!("CODE_{c}"));
            kg.set_literal(id, "kind", "country");
            kg.set_literal(id, "wiki_id", format!("Q{ci}00"));
        }
        (table, kg, vec!["Country".to_string()])
    }

    fn setup() -> CandidateSet {
        let (table, kg, cols) = toy();
        let q = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
        build_candidates(&table, &kg, &cols, &q, &NexusOptions::default()).unwrap()
    }

    #[test]
    fn offline_drops_constants_and_identifiers() {
        let mut set = setup();
        let report = prune_offline(&mut set, &NexusOptions::default());
        let dropped: Vec<&str> = report.dropped.iter().map(|(n, _)| n.as_str()).collect();
        assert!(dropped.contains(&"Country::kind"), "{dropped:?}");
        assert!(dropped.contains(&"Country::wiki_id"), "{dropped:?}");
        // Entity-unique categorical identifiers go too.
        assert!(dropped.contains(&"Country::code"), "{dropped:?}");
        // The binned numeric confounder survives (binning caps its
        // cardinality below the identifier threshold).
        assert!(set.index_of("Country::hdi").is_some());
        // Row-level CountryCode has only 10 distinct values over 300 rows —
        // not identifier-like; it is the online FD test's job.
        assert!(set.index_of("CountryCode").is_some());
        assert_eq!(report.n_dropped_for(PruneReason::Constant), 1);
        assert_eq!(report.n_dropped_for(PruneReason::HighEntropy), 2);
    }

    #[test]
    fn offline_drops_mostly_missing() {
        let (table, mut kg, cols) = toy();
        // An attribute present for one of ten countries (90% missing is the
        // threshold; 1/10 present = 90% missing — not above; make it 0/10
        // by adding to none; instead use a fresh attr on entity 0 only with
        // an 11-country roster trick: simply assert 1-present survives at
        // exactly the 0.9 boundary and tighten the option).
        kg.set_literal(0, "rare", 1.0);
        let q = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
        let mut set = build_candidates(&table, &kg, &cols, &q, &NexusOptions::default()).unwrap();
        let opts = NexusOptions {
            max_missing_fraction: 0.85,
            ..NexusOptions::default()
        };
        let report = prune_offline(&mut set, &opts);
        assert!(report
            .dropped
            .iter()
            .any(|(n, r)| n == "Country::rare" && *r == PruneReason::TooManyMissing));
    }

    #[test]
    fn online_drops_logical_dependency_and_irrelevance() {
        let mut set = setup();
        prune_offline(&mut set, &NexusOptions::default());
        let engine = Engine::with_parallelism_memo(&set, Parallelism::Serial, None);
        let report = prune_online(&mut set, &engine, &NexusOptions::default());
        let dropped: Vec<&str> = report.dropped.iter().map(|(n, _)| n.as_str()).collect();
        // CountryCode <-> Country is a bijection (the paper's example).
        assert!(dropped.contains(&"CountryCode"), "{dropped:?}");
        // Shoe is row-level and exactly independent of salary.
        assert!(dropped.contains(&"Shoe"), "{dropped:?}");
        // hdi must survive: it is the planted confounder. (It is bijective
        // with neither T nor O after quantile binning.)
        assert!(set.index_of("Country::hdi").is_some(), "{dropped:?}");
    }

    #[test]
    fn pruning_disabled_keeps_everything() {
        let set = setup();
        let n = set.candidates.len();
        // Without calling the prune passes nothing changes — trivial but
        // pins the MESA- baseline contract.
        assert_eq!(set.candidates.len(), n);
    }
}
