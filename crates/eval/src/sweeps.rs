//! Parameter sweeps: Figure 3 (robustness to missing data), Figure 4
//! (runtime vs candidate count), Figure 5 (runtime vs rows), Figure 6
//! (runtime vs explanation-size bound), plus the smaller reported numbers:
//! the Section 5.1 random-query usefulness rate, Section 5.2 missingness /
//! selection-bias prevalence, Section 5.4 multi-hop extraction, and the
//! appendix pruning statistics.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use nexus_core::{
    apply_selection_bias_weights, build_candidates, mcimr, prune_offline, prune_online,
    CandidateRepr, CandidateSet, Engine, Nexus, NexusOptions, Parallelism, MISSING_CODE,
};
use nexus_datagen::{queries_for, random_queries, DatasetKind, Scale};

use crate::report::{render_series, TextTable};
use crate::runner::{excluded_for, explain, DatasetCache};

/// Which pruning stages a timed run applies (the Figure 4 series).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruningVariant {
    /// No pruning at all.
    None,
    /// Offline pruning only.
    Offline,
    /// The full MCIMR configuration (offline + online).
    Full,
}

impl PruningVariant {
    /// Display name used in the figure.
    pub fn name(&self) -> &'static str {
        match self {
            PruningVariant::None => "No Pruning",
            PruningVariant::Offline => "Offline Pruning",
            PruningVariant::Full => "MCIMR",
        }
    }
}

/// Runs the query-time portion of the pipeline (engine build + online
/// pruning + bias handling + MCIMR) over a pre-built candidate set,
/// returning the measured duration and the selected names. Offline pruning
/// is applied before the clock starts — it is a preprocessing step in the
/// paper's accounting.
pub fn timed_query(
    mut set: CandidateSet,
    options: &NexusOptions,
    variant: PruningVariant,
) -> (Duration, Vec<String>, f64) {
    if variant != PruningVariant::None {
        prune_offline(&mut set, options);
    }
    let t0 = Instant::now();
    let engine = Engine::with_parallelism_memo(&set, options.parallelism, None);
    if variant == PruningVariant::Full {
        prune_online(&mut set, &engine, options);
    }
    if options.handle_selection_bias {
        apply_selection_bias_weights(&mut set, &engine, options);
    }
    let result = mcimr(&set, &engine, options);
    let elapsed = t0.elapsed();
    let names = result
        .selected
        .iter()
        .map(|&i| set.candidates[i].name.clone())
        .collect();
    (elapsed, names, result.final_cmi)
}

/// Keeps a uniformly random subset of `n` candidates (seeded).
fn sample_candidates(set: &CandidateSet, n: usize, seed: u64) -> CandidateSet {
    let mut out = set.clone();
    if out.candidates.len() > n {
        let mut rng = StdRng::seed_from_u64(seed);
        out.candidates.shuffle(&mut rng);
        out.candidates.truncate(n);
    }
    out
}

/// Figure 4: runtime vs number of candidate attributes.
pub fn fig4(cache: &mut DatasetCache, scale: Scale) -> String {
    let options = NexusOptions::default();
    let mut out = String::new();
    for kind in [DatasetKind::So, DatasetKind::Flights, DatasetKind::Forbes] {
        let dataset = cache.get(kind, scale);
        let bench = queries_for(kind)[0];
        let query = bench.parsed();
        let mut opts = options.clone();
        opts.excluded_columns = excluded_for(dataset, &query);
        let full = build_candidates(
            &dataset.table,
            &dataset.kg,
            &dataset.extraction_columns,
            &query,
            &opts,
        )
        .expect("candidates build");
        let total = full.candidates.len();
        let xs: Vec<usize> = [50usize, 100, 200, 300, 450, 600, 750]
            .into_iter()
            .filter(|&x| x < total)
            .chain(std::iter::once(total))
            .collect();
        let mut series: Vec<(&str, Vec<f64>)> = Vec::new();
        for variant in [
            PruningVariant::None,
            PruningVariant::Offline,
            PruningVariant::Full,
        ] {
            let ys: Vec<f64> = xs
                .iter()
                .map(|&n| {
                    let sampled = sample_candidates(&full, n, 0xF164 + n as u64);
                    let (t, _, _) = timed_query(sampled, &opts, variant);
                    t.as_secs_f64()
                })
                .collect();
            series.push((variant.name(), ys));
        }
        let xsf: Vec<f64> = xs.iter().map(|&x| x as f64).collect();
        out.push_str(&render_series(
            &format!(
                "Figure 4 ({}): runtime [s] vs number of candidate attributes",
                dataset.name
            ),
            "candidates",
            &xsf,
            &series,
        ));
        out.push('\n');
    }
    out
}

/// Figure 5: runtime vs number of rows.
pub fn fig5(cache: &mut DatasetCache, scale: Scale) -> String {
    let options = NexusOptions::default();
    let mut out = String::new();
    for kind in [DatasetKind::So, DatasetKind::Flights, DatasetKind::Forbes] {
        let dataset = cache.get(kind, scale);
        let bench = queries_for(kind)[0];
        let query = bench.parsed();
        let mut opts = options.clone();
        opts.excluded_columns = excluded_for(dataset, &query);
        let n = dataset.table.n_rows();
        let fracs = [0.2, 0.4, 0.6, 0.8, 1.0];
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for f in fracs {
            let keep = ((n as f64) * f) as usize;
            let mut rows: Vec<usize> = (0..n).collect();
            let mut rng = StdRng::seed_from_u64(0xF155);
            rows.shuffle(&mut rng);
            rows.truncate(keep);
            rows.sort_unstable();
            let sub = dataset.table.gather(&rows);
            let set = build_candidates(
                &sub,
                &dataset.kg,
                &dataset.extraction_columns,
                &query,
                &opts,
            )
            .expect("candidates build");
            let (t, _, _) = timed_query(set, &opts, PruningVariant::Full);
            xs.push(keep as f64);
            ys.push(t.as_secs_f64());
        }
        out.push_str(&render_series(
            &format!("Figure 5 ({}): runtime [s] vs number of rows", dataset.name),
            "rows",
            &xs,
            &[("MCIMR", ys)],
        ));
        out.push('\n');
    }
    out
}

/// Figure 6: runtime vs the bound `k` on the explanation size.
pub fn fig6(cache: &mut DatasetCache, scale: Scale) -> String {
    let options = NexusOptions::default();
    let mut out = String::new();
    for kind in [DatasetKind::So, DatasetKind::Flights, DatasetKind::Forbes] {
        let dataset = cache.get(kind, scale);
        let bench = queries_for(kind)[0];
        let query = bench.parsed();
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut sizes = Vec::new();
        for k in 1..=8usize {
            let mut opts = options.clone();
            opts.excluded_columns = excluded_for(dataset, &query);
            opts.max_explanation_size = k;
            let set = build_candidates(
                &dataset.table,
                &dataset.kg,
                &dataset.extraction_columns,
                &query,
                &opts,
            )
            .expect("candidates build");
            let (t, names, _) = timed_query(set, &opts, PruningVariant::Full);
            xs.push(k as f64);
            ys.push(t.as_secs_f64());
            sizes.push(names.len() as f64);
        }
        out.push_str(&render_series(
            &format!(
                "Figure 6 ({}): runtime [s] vs explanation-size bound k",
                dataset.name
            ),
            "k",
            &xs,
            &[("MCIMR", ys), ("|explanation|", sizes)],
        ));
        out.push('\n');
    }
    out
}

/// How to injure an attribute for the Figure 3 robustness experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// Missing completely at random.
    Random,
    /// Remove the top values (biased, MNAR).
    Biased,
}

/// How the injured attributes are then handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Handling {
    /// The system's approach: complete cases + selection-bias IPW.
    Ipw,
    /// Mean/mode imputation.
    Impute,
}

/// Injects missingness into the top-`n_attrs` most outcome-relevant
/// extracted candidates of a set (entity-level).
fn inject_into_set(
    set: &mut CandidateSet,
    engine: &Engine,
    fraction: f64,
    injection: Injection,
    handling: Handling,
    n_attrs: usize,
    seed: u64,
) {
    // Rank extracted candidates by relevance to O.
    let mut ranked: Vec<(usize, f64)> = (0..set.candidates.len())
        .filter(|&i| matches!(set.candidates[i].repr, CandidateRepr::EntityLevel { .. }))
        .map(|i| (i, engine.stats(set, i).relevance()))
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    let targets: Vec<usize> = ranked.iter().take(n_attrs).map(|&(i, _)| i).collect();

    let mut rng = StdRng::seed_from_u64(seed);
    for idx in targets {
        let CandidateRepr::EntityLevel {
            map, cardinality, ..
        } = &mut set.candidates[idx].repr
        else {
            continue;
        };
        let mut present: Vec<usize> = (0..map.len()).filter(|&e| map[e] != MISSING_CODE).collect();
        let k = ((present.len() as f64) * fraction).round() as usize;
        match injection {
            Injection::Random => present.shuffle(&mut rng),
            Injection::Biased => {
                // Highest codes first (bin codes are value-ordered).
                present.sort_by(|&a, &b| map[b].cmp(&map[a]));
            }
        }
        let removed: Vec<usize> = present.into_iter().take(k).collect();
        for &e in &removed {
            map[e] = MISSING_CODE;
        }
        if handling == Handling::Impute {
            // Mode imputation over the remaining values.
            let mut counts = vec![0usize; *cardinality as usize];
            for &v in map.iter() {
                if v != MISSING_CODE {
                    counts[v as usize] += 1;
                }
            }
            if let Some((mode, _)) = counts.iter().enumerate().max_by_key(|(_, &c)| c) {
                for v in map.iter_mut() {
                    if *v == MISSING_CODE {
                        *v = mode as u32;
                    }
                }
            }
        }
    }
}

/// Figure 3: explainability as a function of injected missing data, for SO
/// and Covid-19. Explanations are *selected* on the injured data and
/// *evaluated* on the clean data.
pub fn fig3(cache: &mut DatasetCache, scale: Scale) -> String {
    let options = NexusOptions::default();
    let fractions = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7];
    let mut out = String::new();
    for kind in [DatasetKind::So, DatasetKind::Covid] {
        let dataset = cache.get(kind, scale);
        let benches = queries_for(kind);
        let mut series: Vec<(&str, Vec<f64>)> = vec![
            ("NEXUS (random)", Vec::new()),
            ("NEXUS (biased)", Vec::new()),
            ("Imputation (random)", Vec::new()),
            ("Imputation (biased)", Vec::new()),
        ];
        for &fraction in &fractions {
            let mut sums = [0.0f64; 4];
            for bench in &benches {
                let query = bench.parsed();
                let mut opts = options.clone();
                opts.excluded_columns = excluded_for(dataset, &query);
                let clean = {
                    let mut set = build_candidates(
                        &dataset.table,
                        &dataset.kg,
                        &dataset.extraction_columns,
                        &query,
                        &opts,
                    )
                    .expect("candidates build");
                    prune_offline(&mut set, &opts);
                    set
                };
                let clean_engine = Engine::with_parallelism_memo(&clean, Parallelism::Serial, None);
                for (slot, (injection, handling)) in [
                    (Injection::Random, Handling::Ipw),
                    (Injection::Biased, Handling::Ipw),
                    (Injection::Random, Handling::Impute),
                    (Injection::Biased, Handling::Impute),
                ]
                .into_iter()
                .enumerate()
                {
                    let mut injured = clean.clone();
                    inject_into_set(
                        &mut injured,
                        &clean_engine,
                        fraction,
                        injection,
                        handling,
                        10,
                        0xF13 + slot as u64,
                    );
                    let engine = Engine::with_parallelism_memo(&injured, Parallelism::Serial, None);
                    let mut run_opts = opts.clone();
                    run_opts.handle_selection_bias = handling == Handling::Ipw;
                    prune_online(&mut injured, &engine, &run_opts);
                    if run_opts.handle_selection_bias {
                        apply_selection_bias_weights(&mut injured, &engine, &run_opts);
                    }
                    let result = mcimr(&injured, &engine, &run_opts);
                    // Evaluate the chosen names on the clean data.
                    let clean_indices: Vec<usize> = result
                        .selected
                        .iter()
                        .filter_map(|&i| clean.index_of(&injured.candidates[i].name))
                        .collect();
                    sums[slot] += clean_engine.cmi_given(&clean, &clean_indices);
                }
            }
            for (slot, s) in sums.iter().enumerate() {
                series[slot].1.push(s / benches.len() as f64);
            }
        }
        let xs: Vec<f64> = fractions.iter().map(|f| f * 100.0).collect();
        let series_refs: Vec<(&str, Vec<f64>)> =
            series.iter().map(|(n, v)| (*n, v.clone())).collect();
        out.push_str(&render_series(
            &format!(
                "Figure 3 ({}): avg explainability (lower = better) vs % injected missing values",
                dataset.name
            ),
            "% missing",
            &xs,
            &series_refs,
        ));
        out.push('\n');
    }
    out
}

/// Section 5.1: fraction of random queries for which the KG approach is
/// useful.
pub fn random_query_usefulness(cache: &mut DatasetCache, scale: Scale) -> String {
    let options = NexusOptions::default();
    let mut t = TextTable::new(&["Dataset", "Queries", "Useful", "Rate"]);
    let mut total = 0usize;
    let mut useful_total = 0usize;
    for kind in DatasetKind::ALL {
        let dataset = cache.get(kind, scale);
        let queries = random_queries(dataset, 10, 0x5EC51 + kind as u64);
        let mut useful = 0usize;
        for query in &queries {
            let mut opts = options.clone();
            opts.excluded_columns = excluded_for(dataset, query);
            let nexus = Nexus::new(opts);
            let Ok((e, _)) = explain(&nexus, dataset, query) else {
                continue;
            };
            let lowered = e.explained_cmi < e.initial_cmi - 1e-9;
            let has_extracted = e
                .attributes
                .iter()
                .any(|a| matches!(a.source, nexus_core::CandidateSource::Extracted { .. }));
            if lowered && has_extracted {
                useful += 1;
            }
        }
        t.row(vec![
            dataset.name.to_string(),
            queries.len().to_string(),
            useful.to_string(),
            format!("{:.1}%", 100.0 * useful as f64 / queries.len() as f64),
        ]);
        total += queries.len();
        useful_total += useful;
    }
    format!(
        "# Section 5.1: usefulness over {total} random queries (paper: 72.5%)\nOverall: {:.1}%\n{}",
        100.0 * useful_total as f64 / total.max(1) as f64,
        t.render()
    )
}

/// Section 5.2: missingness and selection-bias prevalence per dataset.
pub fn missing_stats(cache: &mut DatasetCache, scale: Scale) -> String {
    let options = NexusOptions::default();
    let mut t = TextTable::new(&[
        "Dataset",
        "% missing (extracted)",
        "% attrs selection-biased",
    ]);
    for kind in DatasetKind::ALL {
        let dataset = cache.get(kind, scale);
        let bench = queries_for(kind)[0];
        let query = bench.parsed();
        let mut opts = options.clone();
        opts.excluded_columns = excluded_for(dataset, &query);
        let set = build_candidates(
            &dataset.table,
            &dataset.kg,
            &dataset.extraction_columns,
            &query,
            &opts,
        )
        .expect("candidates build");
        let engine = Engine::with_parallelism_memo(&set, Parallelism::Serial, None);
        let mut missing_sum = 0.0;
        let mut n_extracted = 0usize;
        let mut n_biased = 0usize;
        for i in 0..set.candidates.len() {
            if let Some((mi_o, mi_t, missing)) = engine.bias_mi(&set, i) {
                n_extracted += 1;
                missing_sum += missing;
                if missing >= opts.bias_min_missing
                    && missing < 1.0
                    && (mi_o > opts.bias_mi_threshold || mi_t > opts.bias_mi_threshold)
                {
                    n_biased += 1;
                }
            }
        }
        t.row(vec![
            dataset.name.to_string(),
            format!("{:.1}%", 100.0 * missing_sum / n_extracted.max(1) as f64),
            format!(
                "{:.1}%",
                100.0 * n_biased as f64 / n_extracted.max(1) as f64
            ),
        ]);
    }
    format!(
        "# Section 5.2: missingness & selection-bias prevalence (paper: 37–73% / 13–29%)\n{}",
        t.render()
    )
}

/// Section 5.4: multi-hop extraction.
pub fn multihop(cache: &mut DatasetCache, scale: Scale) -> String {
    let options = NexusOptions::default();
    let mut t = TextTable::new(&["Dataset", "Hops", "Candidates", "Explanation", "Time"]);
    for kind in [DatasetKind::So, DatasetKind::Forbes] {
        let dataset = cache.get(kind, scale);
        let bench = queries_for(kind)[0];
        let query = bench.parsed();
        for hops in 1..=3usize {
            let mut opts = options.clone();
            opts.excluded_columns = excluded_for(dataset, &query);
            opts.hops = hops;
            let t0 = Instant::now();
            let nexus = Nexus::new(opts);
            let (e, _) = explain(&nexus, dataset, &query).expect("pipeline runs");
            t.row(vec![
                dataset.name.to_string(),
                hops.to_string(),
                e.stats.n_candidates_initial.to_string(),
                e.names().join(", "),
                format!("{:.2?}", t0.elapsed()),
            ]);
        }
    }
    format!("# Section 5.4: multi-hop extraction\n{}", t.render())
}

/// Appendix: pruning statistics per dataset.
pub fn pruning_stats(cache: &mut DatasetCache, scale: Scale) -> String {
    let options = NexusOptions::default();
    let mut t = TextTable::new(&[
        "Dataset",
        "Initial",
        "After offline",
        "After online",
        "% dropped offline",
        "% dropped online",
    ]);
    for kind in DatasetKind::ALL {
        let dataset = cache.get(kind, scale);
        let bench = queries_for(kind)[0];
        let query = bench.parsed();
        let mut opts = options.clone();
        opts.excluded_columns = excluded_for(dataset, &query);
        let nexus = Nexus::new(opts);
        let (e, _) = explain(&nexus, dataset, &query).expect("pipeline runs");
        let s = &e.stats;
        let off = s.n_candidates_initial - s.n_after_offline;
        let on = s.n_after_offline - s.n_after_online;
        t.row(vec![
            dataset.name.to_string(),
            s.n_candidates_initial.to_string(),
            s.n_after_offline.to_string(),
            s.n_after_online.to_string(),
            format!(
                "{:.1}%",
                100.0 * off as f64 / s.n_candidates_initial.max(1) as f64
            ),
            format!(
                "{:.1}%",
                100.0 * on as f64 / s.n_after_offline.max(1) as f64
            ),
        ]);
    }
    format!(
        "# Appendix: pruning statistics (paper offline: 41–73%)\n{}",
        t.render()
    )
}

/// One benchmark query per dataset, timed end-to-end — the headline
/// "interactive latency" claim (≤ 10 s on 5.8M rows).
pub fn latency(cache: &mut DatasetCache, scale: Scale) -> String {
    let options = NexusOptions::default();
    let mut t = TextTable::new(&["Query", "Rows", "Candidates", "Query-time", "Explanation"]);
    for bench in nexus_datagen::BENCH_QUERIES {
        let dataset = cache.get(bench.dataset, scale);
        let query = bench.parsed();
        let mut opts = options.clone();
        opts.excluded_columns = excluded_for(dataset, &query);
        let set = build_candidates(
            &dataset.table,
            &dataset.kg,
            &dataset.extraction_columns,
            &query,
            &opts,
        )
        .expect("candidates build");
        let n_candidates = set.candidates.len();
        let (elapsed, names, _) = timed_query(set, &opts, PruningVariant::Full);
        t.row(vec![
            bench.id.to_string(),
            dataset.table.n_rows().to_string(),
            n_candidates.to_string(),
            format!("{elapsed:.2?}"),
            names.join(", "),
        ]);
    }
    format!("# Query latency (paper: < 10 s per query)\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_query_variants_run() {
        let mut cache = DatasetCache::new();
        let dataset = cache.get(DatasetKind::Covid, Scale::Small);
        let query = queries_for(DatasetKind::Covid)[0].parsed();
        let opts = NexusOptions {
            excluded_columns: excluded_for(dataset, &query),
            ..NexusOptions::default()
        };
        let set = build_candidates(
            &dataset.table,
            &dataset.kg,
            &dataset.extraction_columns,
            &query,
            &opts,
        )
        .unwrap();
        for variant in [
            PruningVariant::None,
            PruningVariant::Offline,
            PruningVariant::Full,
        ] {
            let (t, _, cmi) = timed_query(set.clone(), &opts, variant);
            assert!(t.as_secs_f64() >= 0.0);
            assert!(cmi.is_finite());
        }
    }

    #[test]
    fn candidate_sampling_respects_bound() {
        let mut cache = DatasetCache::new();
        let dataset = cache.get(DatasetKind::Covid, Scale::Small);
        let query = queries_for(DatasetKind::Covid)[0].parsed();
        let set = build_candidates(
            &dataset.table,
            &dataset.kg,
            &dataset.extraction_columns,
            &query,
            &NexusOptions::default(),
        )
        .unwrap();
        let sampled = sample_candidates(&set, 20, 1);
        assert_eq!(sampled.candidates.len(), 20);
        let all = sample_candidates(&set, 10_000, 1);
        assert_eq!(all.candidates.len(), set.candidates.len());
    }

    #[test]
    fn injection_reduces_presence_and_imputation_restores() {
        let mut cache = DatasetCache::new();
        let dataset = cache.get(DatasetKind::Covid, Scale::Small);
        let query = queries_for(DatasetKind::Covid)[0].parsed();
        let set = build_candidates(
            &dataset.table,
            &dataset.kg,
            &dataset.extraction_columns,
            &query,
            &NexusOptions::default(),
        )
        .unwrap();
        let engine = Engine::with_parallelism_memo(&set, Parallelism::Serial, None);
        let count_missing = |s: &CandidateSet| -> usize {
            s.candidates
                .iter()
                .map(|c| match &c.repr {
                    CandidateRepr::EntityLevel { map, .. } => {
                        map.iter().filter(|&&v| v == MISSING_CODE).count()
                    }
                    _ => 0,
                })
                .sum()
        };
        let before = count_missing(&set);
        let mut injured = set.clone();
        inject_into_set(
            &mut injured,
            &engine,
            0.5,
            Injection::Random,
            Handling::Ipw,
            10,
            1,
        );
        assert!(count_missing(&injured) > before);
        let mut imputed = set.clone();
        inject_into_set(
            &mut imputed,
            &engine,
            0.5,
            Injection::Random,
            Handling::Impute,
            10,
            1,
        );
        assert_eq!(
            count_missing(&imputed),
            before - count_imputed_originals(&set, &imputed)
        );
    }

    /// Entities missing in the original stay missing targets after mode
    /// imputation only if the whole attribute was empty; count the
    /// difference for the assertion above.
    fn count_imputed_originals(original: &CandidateSet, imputed: &CandidateSet) -> usize {
        original
            .candidates
            .iter()
            .zip(&imputed.candidates)
            .map(|(o, i)| match (&o.repr, &i.repr) {
                (
                    CandidateRepr::EntityLevel { map: mo, .. },
                    CandidateRepr::EntityLevel { map: mi, .. },
                ) => mo
                    .iter()
                    .zip(mi)
                    .filter(|(&a, &b)| a == MISSING_CODE && b != MISSING_CODE)
                    .count(),
                _ => 0,
            })
            .sum()
    }
}
