//! Ablations of the design choices DESIGN.md calls out: the Min-Redundancy
//! criterion (Eq. 5), permutation calibration, Miller–Madow correction, and
//! IPW selection-bias handling. Each variant swaps exactly one ingredient
//! of the selection loop; quality is measured against the planted ground
//! truth over the 14 benchmark queries.

use nexus_core::{
    apply_selection_bias_weights, build_candidates, prune_offline, prune_online, CandidateSet,
    Engine, NexusOptions, Parallelism,
};
use nexus_datagen::{DatasetKind, Scale, BENCH_QUERIES};

use crate::report::TextTable;
use crate::runner::{excluded_for, DatasetCache};

/// A selection-loop variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ablation {
    /// The full configuration.
    Full,
    /// Greedy Min-CMI without the redundancy term (Eq. 5 → Eq. 2 only).
    NoRedundancy,
    /// Raw Miller–Madow CMI without permutation calibration.
    NoCalibration,
    /// Plug-in CMI (no Miller–Madow, no calibration).
    PlugIn,
    /// Calibrated scores but selection-bias IPW disabled.
    NoIpw,
}

impl Ablation {
    /// All variants.
    pub const ALL: [Ablation; 5] = [
        Ablation::Full,
        Ablation::NoRedundancy,
        Ablation::NoCalibration,
        Ablation::PlugIn,
        Ablation::NoIpw,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Ablation::Full => "full",
            Ablation::NoRedundancy => "- redundancy",
            Ablation::NoCalibration => "- calibration",
            Ablation::PlugIn => "- calibration - MM",
            Ablation::NoIpw => "- IPW",
        }
    }
}

/// Greedy selection with the variant's scoring.
fn greedy_select(
    set: &CandidateSet,
    engine: &Engine,
    options: &NexusOptions,
    ablation: Ablation,
) -> Vec<usize> {
    let v1 = |idx: usize| -> f64 {
        match ablation {
            Ablation::Full | Ablation::NoRedundancy | Ablation::NoIpw => {
                engine.cmi_single(set, idx)
            }
            Ablation::NoCalibration => engine.cmi_single_raw(set, idx),
            Ablation::PlugIn => engine.stats(set, idx).cmi_plugin(),
        }
    };
    let use_redundancy = ablation != Ablation::NoRedundancy;
    let mut selected: Vec<usize> = Vec::new();
    let mut last = engine.baseline_cmi();
    for _ in 0..options.max_explanation_size {
        let mut best: Option<(usize, f64)> = None;
        for idx in 0..set.candidates.len() {
            if selected.contains(&idx) || !engine.eligible(set, idx, options) {
                continue;
            }
            let mut score = v1(idx);
            if use_redundancy && !selected.is_empty() {
                score += selected
                    .iter()
                    .map(|&s| engine.mi_pair(set, idx, s))
                    .sum::<f64>()
                    / selected.len() as f64;
            }
            if best.is_none_or(|(_, b)| score < b) {
                best = Some((idx, score));
            }
        }
        let Some((idx, _)) = best else { break };
        let mut trial = selected.clone();
        trial.push(idx);
        let cmi = engine.cmi_given(set, &trial);
        if last - cmi < options.min_improvement * engine.baseline_cmi().max(1e-9)
            && !selected.is_empty()
        {
            break;
        }
        selected = trial;
        last = cmi;
    }
    selected
}

/// Runs the ablation grid over the 14 benchmark queries.
pub fn ablations(cache: &mut DatasetCache, scale: Scale) -> String {
    let base_options = NexusOptions::default();
    let mut t = TextTable::new(&[
        "Variant",
        "GT precision",
        "Explained fraction",
        "Avg |E|",
        "Empty",
    ]);
    for ablation in Ablation::ALL {
        let mut precision_sum = 0.0;
        let mut explained_sum = 0.0;
        let mut size_sum = 0usize;
        let mut empties = 0usize;
        let mut n = 0usize;
        for kind in DatasetKind::ALL {
            cache.get(kind, scale);
        }
        for bench in BENCH_QUERIES {
            let dataset = cache.get(bench.dataset, scale);
            let query = bench.parsed();
            let options = NexusOptions {
                excluded_columns: excluded_for(dataset, &query),
                handle_selection_bias: base_options.handle_selection_bias
                    && ablation != Ablation::NoIpw,
                ..base_options.clone()
            };
            let mut set = build_candidates(
                &dataset.table,
                &dataset.kg,
                &dataset.extraction_columns,
                &query,
                &options,
            )
            .expect("candidates build");
            prune_offline(&mut set, &options);
            let engine = Engine::with_parallelism_memo(&set, Parallelism::Serial, None);
            prune_online(&mut set, &engine, &options);
            if options.handle_selection_bias {
                apply_selection_bias_weights(&mut set, &engine, &options);
            }
            let picks = greedy_select(&set, &engine, &options, ablation);
            n += 1;
            if picks.is_empty() {
                empties += 1;
                continue;
            }
            let hits = picks
                .iter()
                .filter(|&&i| {
                    bench
                        .ground_truth
                        .contains(&set.candidates[i].name.as_str())
                })
                .count();
            precision_sum += hits as f64 / picks.len() as f64;
            let final_cmi = engine.cmi_given(&set, &picks);
            let baseline = engine.baseline_cmi();
            if baseline > 0.0 {
                explained_sum += (1.0 - final_cmi / baseline).clamp(0.0, 1.0);
            }
            size_sum += picks.len();
        }
        t.row(vec![
            ablation.name().to_string(),
            format!("{:.2}", precision_sum / n.max(1) as f64),
            format!("{:.2}", explained_sum / n.max(1) as f64),
            format!("{:.1}", size_sum as f64 / n.max(1) as f64),
            empties.to_string(),
        ]);
    }
    format!(
        "# Ablations of the selection-loop design choices (14 queries)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_names_unique() {
        let names: std::collections::HashSet<&str> =
            Ablation::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), Ablation::ALL.len());
    }

    #[test]
    fn greedy_select_smoke() {
        let mut cache = DatasetCache::new();
        let dataset = cache.get(DatasetKind::Covid, Scale::Small);
        let bench = nexus_datagen::queries_for(DatasetKind::Covid)[0];
        let query = bench.parsed();
        let options = NexusOptions {
            excluded_columns: excluded_for(dataset, &query),
            ..NexusOptions::default()
        };
        let mut set = build_candidates(
            &dataset.table,
            &dataset.kg,
            &dataset.extraction_columns,
            &query,
            &options,
        )
        .unwrap();
        prune_offline(&mut set, &options);
        let engine = Engine::with_parallelism_memo(&set, Parallelism::Serial, None);
        prune_online(&mut set, &engine, &options);
        for ablation in Ablation::ALL {
            let picks = greedy_select(&set, &engine, &options, ablation);
            assert!(picks.len() <= options.max_explanation_size, "{ablation:?}");
        }
    }
}
