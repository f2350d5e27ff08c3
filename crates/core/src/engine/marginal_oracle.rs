//! Bit-identity tests of the engine's ordered marginals against the
//! ordered-map (`BTreeMap`) computation they replaced. The oracle lives
//! only here, in test code.

use super::tests::setup;
use super::*;

/// The ordered-map [`CandStats`] computation the scoring path used
/// before [`OrderedMarginal`]: the bit-identity oracle.
fn oracle_stats(cont: &Contingency, map: &[u32], weights: Option<&[f64]>) -> CandStats {
    use std::collections::BTreeMap;
    let card_t = cont.card_t as u64;
    let mut m: [BTreeMap<u64, f64>; 7] = Default::default();
    let mut total = 0.0;
    for &(o, t, x, c) in &cont.cells {
        let e = map[x as usize];
        if e == MISSING_CODE {
            continue;
        }
        let w = c * weights.map_or(1.0, |w| w[x as usize]);
        if w <= 0.0 {
            continue;
        }
        total += w;
        let (o, t, e) = (o as u64, t as u64, e as u64);
        let ot = o * card_t + t;
        let keys = [o, t, e, ot, (o << 32) | e, (t << 32) | e, (ot << 32) | e];
        for (m, k) in m.iter_mut().zip(keys) {
            *m.entry(k).or_insert(0.0) += w;
        }
    }
    let h = |i: usize| {
        (
            entropy_from_counts(m[i].values().copied(), total),
            m[i].len(),
        )
    };
    CandStats {
        h_o: h(0),
        h_t: h(1),
        h_e: h(2),
        h_ot: h(3),
        h_oe: h(4),
        h_te: h(5),
        h_ote: h(6),
        support: total,
        present_entities: (0..map.len())
            .filter(|&x| map[x] != MISSING_CODE && cont.x_marginal[x] > 0.0)
            .count(),
    }
}

fn assert_stats_bits(got: &CandStats, want: &CandStats, what: &str) {
    let terms = |s: &CandStats| {
        [s.h_o, s.h_t, s.h_e, s.h_ot, s.h_oe, s.h_te, s.h_ote].map(|(h, k)| (h.to_bits(), k))
    };
    assert_eq!(terms(got), terms(want), "{what}: entropies / cells");
    assert_eq!(
        got.support.to_bits(),
        want.support.to_bits(),
        "{what}: support"
    );
    assert_eq!(got.present_entities, want.present_entities, "{what}");
    assert_eq!(got.cmi().to_bits(), want.cmi().to_bits(), "{what}: cmi");
}

/// A random `(O, T, X)` contingency with ascending `(x, t, o)` cells.
fn random_contingency(
    rng: &mut rand::rngs::StdRng,
    (card_o, card_t, card_x): (u32, u32, u32),
    n_cells: usize,
) -> Contingency {
    use rand::Rng;
    let mut keyed: Vec<(u64, f64)> = (0..n_cells)
        .map(|_| {
            let key = rng.gen_range(0..card_o as u64 * card_t as u64 * card_x as u64);
            (key, rng.gen_range(1..6u32) as f64)
        })
        .collect();
    keyed.sort_by_key(|&(k, _)| k);
    keyed.dedup_by_key(|&mut (k, _)| k);
    Contingency::from_sorted_cells(
        keyed.into_iter(),
        card_o as u64,
        card_t as u64,
        card_x as usize,
    )
}

#[test]
fn ordered_marginals_match_the_ordered_map_oracle() {
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0dd5_eed5);
    // (|O|, |T|, |X|), |E|, cells: the small shapes stay under the
    // dense cap; the wide-E shape puts (O,E), (T,E) and (O,T,E) past it
    // so those marginals take the sorted fallback.
    let shapes = [
        ((3, 4, 10), 4, 60),
        ((5, 40, 30), 9, 400),
        ((2, 6, 200), 50_000, 30),
    ];
    for (shape, card_e, n_cells) in shapes {
        for round in 0..8 {
            let cont = random_contingency(&mut rng, shape, n_cells);
            let card_x = shape.2 as usize;
            let map: Vec<u32> = (0..card_x)
                .map(|_| match rng.gen_range(0..5u32) {
                    0 => MISSING_CODE,
                    _ => rng.gen_range(0..card_e),
                })
                .collect();
            // IPW weights with exact zeros and negatives.
            let weights: Vec<f64> = (0..card_x)
                .map(|_| match rng.gen_range(0..6u32) {
                    0 => 0.0,
                    1 => -(rng.gen_range(1..4u32) as f64) * 0.5,
                    _ => rng.gen_range(1..40u32) as f64 * 0.125,
                })
                .collect();
            for w in [None, Some(weights.as_slice())] {
                let what = format!(
                    "shape {shape:?} |E|={card_e} round {round} weighted {}",
                    w.is_some()
                );
                let got = stats_from_cells(&cont, &map, card_e, w);
                assert_stats_bits(&got, &oracle_stats(&cont, &map, w), &what);

                // The calibration draws: four terms into one reused
                // scratch, each draw bit-identical to the oracle's cmi.
                let projections = Projection::cmi_terms(&cont, card_e);
                let mut scratch: [OrderedMarginal; 4] = Default::default();
                let mut perm = map.clone();
                for _ in 0..4 {
                    perm.shuffle(&mut rng);
                    let (support, [h_e, h_oe, h_te, h_ote]) =
                        marginalize_cells(&cont, &perm, w, &projections, &mut scratch);
                    let want = oracle_stats(&cont, &perm, w);
                    assert_eq!(support.to_bits(), want.support.to_bits(), "{what}");
                    assert_eq!(
                        cmi_mm(h_e, h_oe, h_te, h_ote, support).to_bits(),
                        want.cmi().to_bits(),
                        "{what}: calibration draw"
                    );
                }
            }
        }
    }
}

/// `compute_calibrated`'s entity-level branch over [`oracle_stats`].
fn oracle_calibrated(engine: &Engine, set: &CandidateSet, idx: usize) -> f64 {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let cand = &set.candidates[idx];
    let CandidateRepr::EntityLevel { column, map, .. } = &cand.repr else {
        unreachable!("entity-level only");
    };
    let cont = &engine.base[column];
    let weights = cand.entity_weights.as_deref();
    let observed = oracle_stats(cont, map, weights).cmi();
    let seed = cand.name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let present: Vec<usize> = (0..map.len())
        .filter(|&x| cont.x_marginal.get(x).is_some_and(|&w| w > 0.0))
        .collect();
    if present.len() < 2 {
        return engine.baseline_cmi;
    }
    let mut vals: Vec<(u32, f64)> = present
        .iter()
        .map(|&x| (map[x], weights.map_or(1.0, |w| w[x])))
        .collect();
    let mut map_buf = map.to_vec();
    let mut w_buf = vec![1.0f64; map.len()];
    let mut samples = Vec::new();
    for _ in 0..16 {
        vals.shuffle(&mut rng);
        for (&x, &(v, w)) in present.iter().zip(&vals) {
            map_buf[x] = v;
            w_buf[x] = w;
        }
        let w = weights.map(|_| w_buf.as_slice());
        samples.push(oracle_stats(cont, &map_buf, w).cmi());
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n - 1.0);
    let credit = (mean - observed - var.sqrt()).max(0.0);
    (engine.baseline_cmi - credit).max(0.0)
}

#[test]
fn calibrated_cmi_matches_the_ordered_map_oracle() {
    let (mut set, engine) = setup();
    let card = set.column_codes["Country"].cardinality as usize;
    for weighted in [false, true] {
        for idx in 0..set.candidates.len() {
            if !matches!(set.candidates[idx].repr, CandidateRepr::EntityLevel { .. }) {
                continue;
            }
            if weighted {
                let w = (0..card).map(|i| [0.0, 2.5, -1.0, 0.75][i % 4]).collect();
                set.candidates[idx].entity_weights = Some(w);
            }
            let name = &set.candidates[idx].name;
            let stats = engine.stats(&set, idx);
            let cand = &set.candidates[idx];
            let CandidateRepr::EntityLevel { column, map, .. } = &cand.repr else {
                unreachable!()
            };
            let want = oracle_stats(&engine.base[column], map, cand.entity_weights.as_deref());
            assert_stats_bits(&stats, &want, name);
            assert_eq!(
                engine.cmi_single(&set, idx).to_bits(),
                oracle_calibrated(&engine, &set, idx).to_bits(),
                "{name} weighted {weighted}"
            );
        }
    }
}
