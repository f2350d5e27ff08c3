//! The simulated user study (Tables 2–3).
//!
//! The paper recruited 150 MTurk subjects to rate each method's explanation
//! for each query on a 1–5 scale. We cannot run MTurk, so we substitute a
//! deterministic **judge** that scores exactly the properties the subjects
//! rewarded (see DESIGN.md §4):
//!
//! * **precision** — are the selected attributes genuinely the planted
//!   confounders? (subjects found plausible real-world factors convincing);
//! * **explanatory strength** — how much of the correlation the selection
//!   explains away;
//! * **non-redundancy** — subjects penalized near-duplicate pairs like
//!   *Year Low F / Year Avg F* (the paper's Top-K critique);
//! * **having an explanation at all** — LR's empty outputs scored worst.
//!
//! Subject-level 1–5 ratings are then simulated with seeded noise so the
//! table reports a mean and a variance like the paper's Table 3.

use rand::rngs::StdRng;
use rand::SeedableRng;

use nexus_core::{CandidateSet, Engine};
use nexus_datagen::rng::normal_with;

/// A judged explanation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JudgedScore {
    /// Ground-truth precision in `[0,1]`.
    pub precision: f64,
    /// Explained fraction of the initial correlation in `[0,1]`.
    pub strength: f64,
    /// Redundancy among the selected attributes in `[0,1]`.
    pub redundancy: f64,
    /// Mean simulated subject score in `[1,5]`.
    pub mean: f64,
    /// Variance of the simulated subject scores.
    pub variance: f64,
}

/// Scoring configuration.
#[derive(Debug, Clone, Copy)]
pub struct JudgeOptions {
    /// Number of simulated subjects (the paper recruited 150).
    pub n_subjects: usize,
    /// Subject noise standard deviation on the 1–5 scale.
    pub subject_sd: f64,
    /// RNG seed.
    pub seed: u64,
    /// Pairwise normalized-MI threshold above which a pair counts
    /// redundant.
    pub redundancy_threshold: f64,
}

impl Default for JudgeOptions {
    fn default() -> Self {
        JudgeOptions {
            n_subjects: 150,
            subject_sd: 0.85,
            seed: 0x10_0b5,
            redundancy_threshold: 0.7,
        }
    }
}

/// Judges one explanation against the planted ground truth.
pub fn judge(
    set: &CandidateSet,
    engine: &Engine,
    selected_names: &[String],
    ground_truth: &[&str],
    explainability: f64,
    options: &JudgeOptions,
) -> JudgedScore {
    let baseline = engine.baseline_cmi();
    let quality;
    let precision;
    let strength;
    let redundancy;
    if selected_names.is_empty() {
        // "No explanation": subjects rate ~1.5.
        precision = 0.0;
        strength = 0.0;
        redundancy = 0.0;
        quality = 0.12;
    } else {
        let hits = selected_names
            .iter()
            .filter(|n| ground_truth.contains(&n.as_str()))
            .count();
        precision = hits as f64 / selected_names.len() as f64;
        strength = if baseline > 0.0 {
            (1.0 - explainability / baseline).clamp(0.0, 1.0)
        } else {
            0.0
        };
        redundancy = redundancy_of(set, engine, selected_names, options.redundancy_threshold);
        quality = 0.55 * precision + 0.25 * strength + 0.20 * (1.0 - redundancy);
    }

    // Simulated 1–5 subject ratings.
    let ideal = 1.0 + 4.0 * quality;
    let mut rng = StdRng::seed_from_u64(
        options.seed
            ^ selected_names
                .iter()
                .flat_map(|s| s.bytes())
                .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64)),
    );
    let scores: Vec<f64> = (0..options.n_subjects)
        .map(|_| normal_with(&mut rng, ideal, options.subject_sd).clamp(1.0, 5.0))
        .collect();
    let mean = scores.iter().sum::<f64>() / scores.len() as f64;
    let variance =
        scores.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (scores.len() - 1) as f64;
    JudgedScore {
        precision,
        strength,
        redundancy,
        mean,
        variance,
    }
}

/// Fraction of selected pairs that are redundant (normalized pairwise MI
/// above the threshold).
fn redundancy_of(set: &CandidateSet, engine: &Engine, names: &[String], threshold: f64) -> f64 {
    let indices: Vec<usize> = names.iter().filter_map(|n| set.index_of(n)).collect();
    if indices.len() < 2 {
        return 0.0;
    }
    let mut pairs = 0usize;
    let mut redundant = 0usize;
    for i in 0..indices.len() {
        for j in i + 1..indices.len() {
            pairs += 1;
            let mi = engine.mi_pair(set, indices[i], indices[j]);
            let h_min = engine
                .stats(set, indices[i])
                .h_e
                .0
                .min(engine.stats(set, indices[j]).h_e.0);
            if h_min > 1e-9 && mi / h_min > threshold {
                redundant += 1;
            }
        }
    }
    redundant as f64 / pairs as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_core::{build_candidates, Engine, NexusOptions, Parallelism};
    use nexus_kg::KnowledgeGraph;
    use nexus_query::parse;
    use nexus_table::{Column, Table};

    fn fixture() -> (CandidateSet, Engine) {
        let mut countries = Vec::new();
        let mut salaries = Vec::new();
        let mut kg = KnowledgeGraph::new();
        for c in 0..24 {
            let name = format!("C{c:02}");
            let hdi = (c % 4) as f64;
            let id = kg.add_entity(name.clone(), "Country");
            kg.set_literal(id, "hdi", hdi);
            kg.set_literal(id, "hdi copy", hdi * 2.0);
            kg.set_literal(id, "other", ((c / 4) % 3) as f64);
            for i in 0..20 {
                countries.push(name.clone());
                salaries.push(10.0 * hdi + (i % 2) as f64 * 0.1);
            }
        }
        let table = Table::new(vec![
            ("Country", Column::from_strs(&countries)),
            ("Salary", Column::from_f64(salaries)),
        ])
        .unwrap();
        let q = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
        let set = build_candidates(
            &table,
            &kg,
            &["Country".to_string()],
            &q,
            &NexusOptions::default(),
        )
        .unwrap();
        let engine = Engine::with_parallelism_memo(&set, Parallelism::Serial, None);
        (set, engine)
    }

    #[test]
    fn perfect_explanation_scores_high() {
        let (set, engine) = fixture();
        let s = judge(
            &set,
            &engine,
            &["Country::hdi".to_string()],
            &["Country::hdi", "Country::hdi copy"],
            0.0,
            &JudgeOptions::default(),
        );
        assert!(s.precision == 1.0);
        assert!(s.mean > 3.8, "{s:?}");
        assert!(s.variance > 0.1 && s.variance < 2.0);
    }

    #[test]
    fn empty_explanation_scores_low() {
        let (set, engine) = fixture();
        let s = judge(&set, &engine, &[], &["x"], 1.0, &JudgeOptions::default());
        assert!(s.mean < 2.0, "{s:?}");
    }

    #[test]
    fn wrong_attributes_score_low() {
        let (set, engine) = fixture();
        let s = judge(
            &set,
            &engine,
            &["Country::other".to_string()],
            &["Country::hdi"],
            1.2,
            &JudgeOptions::default(),
        );
        assert!(s.precision == 0.0);
        assert!(s.mean < 2.6, "{s:?}");
    }

    #[test]
    fn redundant_pair_penalized() {
        let (set, engine) = fixture();
        let redundant = judge(
            &set,
            &engine,
            &["Country::hdi".to_string(), "Country::hdi copy".to_string()],
            &["Country::hdi", "Country::hdi copy"],
            0.0,
            &JudgeOptions::default(),
        );
        let single = judge(
            &set,
            &engine,
            &["Country::hdi".to_string()],
            &["Country::hdi", "Country::hdi copy"],
            0.0,
            &JudgeOptions::default(),
        );
        assert!(redundant.redundancy > 0.9, "{redundant:?}");
        assert!(redundant.mean < single.mean, "{redundant:?} vs {single:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (set, engine) = fixture();
        let names = vec!["Country::hdi".to_string()];
        let a = judge(
            &set,
            &engine,
            &names,
            &["Country::hdi"],
            0.1,
            &JudgeOptions::default(),
        );
        let b = judge(
            &set,
            &engine,
            &names,
            &["Country::hdi"],
            0.1,
            &JudgeOptions::default(),
        );
        assert_eq!(a, b);
    }
}
