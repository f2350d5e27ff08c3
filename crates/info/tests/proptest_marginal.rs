//! Oracle tests of the ordered marginal accumulator: every entropy,
//! occupied-cell count and support it produces must equal, bit for bit,
//! what an ordered map (`BTreeMap`) accumulating the same contributions in
//! the same order gives. The oracle lives only here.

use std::collections::BTreeMap;

use nexus_info::{entropy_from_counts, JointCounts, OrderedMarginal};
use nexus_table::{Bitmap, Codes};
use proptest::prelude::*;

/// Marks an absent value in an entity → code map (as NEXUS's candidate
/// maps do).
const MISSING_CODE: u32 = u32::MAX;

/// The ordered-map accumulation: `(entropy, occupied cells)` plus the
/// drained cells as `(key, sum bits)`.
fn oracle(contributions: &[(u64, f64)], total: f64) -> ((f64, usize), Vec<(u64, u64)>) {
    let mut m: BTreeMap<u64, f64> = BTreeMap::new();
    for &(k, w) in contributions {
        *m.entry(k).or_insert(0.0) += w;
    }
    let h = entropy_from_counts(m.values().copied(), total);
    let cells = m.iter().map(|(&k, &w)| (k, w.to_bits())).collect();
    ((h, m.len()), cells)
}

/// The same contributions through an [`OrderedMarginal`].
fn ordered(
    acc: &mut OrderedMarginal,
    space: u64,
    contributions: &[(u64, f64)],
    total: f64,
) -> ((f64, usize), Vec<(u64, u64)>) {
    acc.reset(space, contributions.len());
    for &(k, w) in contributions {
        acc.add(k, w);
    }
    let mut cells = Vec::new();
    let h = acc.drain_entropy_with(total, |k, w| cells.push((k, w.to_bits())));
    (h, cells)
}

fn bits(h: (f64, usize)) -> (u64, usize) {
    (h.0.to_bits(), h.1)
}

/// Weights including exact zeros and negatives.
fn weight() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(1.0), -2.0..2.0f64, 0.125..64.0f64]
}

/// Key spaces from a handful of cells to far past the dense cap.
fn space() -> impl Strategy<Value = u64> {
    prop_oneof![1..64u64, 64..4096u64, 4096..(1u64 << 40)]
}

/// Contributions over `0..space`; about half land on four shared keys,
/// so repeated keys occur at every key-space size.
fn contributions(space: u64) -> impl Strategy<Value = Vec<(u64, f64)>> {
    proptest::collection::vec((any::<bool>(), any::<u64>(), weight()), 0..80).prop_map(move |raw| {
        raw.into_iter()
            .map(|(shared, seed, w)| {
                let key = if shared {
                    (seed % 4) * (space / 4)
                } else {
                    seed % space
                };
                (key, w)
            })
            .collect()
    })
}

fn codes(max_card: u32, len: usize) -> impl Strategy<Value = Codes> {
    (
        prop_oneof![2..=max_card, 1000..=3000u32],
        proptest::collection::vec(any::<u32>(), len),
        proptest::collection::vec(prop::bool::weighted(0.9), len),
    )
        .prop_map(|(card, raw, valid)| Codes {
            codes: raw.into_iter().map(|c| c % card).collect(),
            cardinality: card,
            validity: Some(valid.into_iter().collect()),
        })
}

/// The joint-marginal path this crate used to take: `u128` digit
/// projection into an ordered map, one per marginal.
fn joint_oracle(joint: &JointCounts, keep: &[usize]) -> (f64, usize) {
    let mut m: BTreeMap<u128, f64> = BTreeMap::new();
    for (mut key, c) in joint.counts.iter() {
        let mut digits = [0u128; 16];
        for (d, &r) in digits.iter_mut().zip(&joint.radices) {
            *d = key % r;
            key /= r;
        }
        let marg = keep
            .iter()
            .rev()
            .fold(0u128, |m, &k| m * joint.radices[k] + digits[k]);
        *m.entry(marg).or_insert(0.0) += c;
    }
    (
        entropy_from_counts(m.values().copied(), joint.total),
        m.len(),
    )
}

const N: usize = 60;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn matches_ordered_map_on_random_contributions(
        first in space().prop_flat_map(|s| (Just(s), contributions(s))),
        second in space().prop_flat_map(|s| (Just(s), contributions(s))),
        total in prop_oneof![Just(0.0), 0.5..500.0f64],
    ) {
        let ((space, first), (space2, second)) = (first, second);
        // One accumulator across two accumulations: reuse must not leak
        // cells from the first into the second.
        let mut acc = OrderedMarginal::new();
        let a = ordered(&mut acc, space, &first, total);
        let b = ordered(&mut acc, space2, &second, total);
        for (got, want) in [(a, oracle(&first, total)), (b, oracle(&second, total))] {
            prop_assert_eq!(bits(got.0), bits(want.0));
            prop_assert_eq!(got.1, want.1);
        }
    }

    #[test]
    fn entity_cell_marginals_match_ordered_maps(
        raw_cells in proptest::collection::vec((0..4u32, 0..9u32, 0..12u32, 0.5..40.0f64), 0..120),
        map in proptest::collection::vec(prop_oneof![Just(MISSING_CODE), 0..6u32], 12),
        weights in proptest::collection::vec(weight(), 12),
        weighted in any::<bool>(),
    ) {
        // The entity-level scoring loop: (o, t, x) cells, an entity map
        // with missing codes, optional per-entity weights; seven
        // marginals keyed O-major over (O, T, E).
        let (co, ct, ce) = (4u64, 9u64, 6u64);
        let shapes: [(u64, u64, u64, u64); 7] = [
            (1, 0, 0, co), (0, 1, 0, ct), (0, 0, 1, ce), (ct, 1, 0, co * ct),
            (ce, 0, 1, co * ce), (0, ce, 1, ct * ce), (ct * ce, ce, 1, co * ct * ce),
        ];
        let mut per_shape: Vec<Vec<(u64, f64)>> = vec![Vec::new(); 7];
        let mut total = 0.0;
        for &(o, t, x, c) in &raw_cells {
            let e = map[x as usize];
            if e == MISSING_CODE {
                continue;
            }
            let w = c * if weighted { weights[x as usize] } else { 1.0 };
            if w <= 0.0 {
                continue;
            }
            total += w;
            for (s, &(so, st, se, _)) in per_shape.iter_mut().zip(&shapes) {
                s.push((o as u64 * so + t as u64 * st + e as u64 * se, w));
            }
        }
        let mut acc = OrderedMarginal::new();
        for (contribs, &(_, _, _, space)) in per_shape.iter().zip(&shapes) {
            let got = ordered(&mut acc, space, contribs, total);
            let want = oracle(contribs, total);
            prop_assert_eq!(bits(got.0), bits(want.0));
            prop_assert_eq!(got.1, want.1);
        }
    }

    #[test]
    fn joint_marginals_match_the_ordered_map_projection(
        x in codes(6, N),
        y in codes(5, N),
        z in codes(4, N),
        mask in proptest::collection::vec(prop::bool::weighted(0.8), N),
        weights in proptest::collection::vec(weight(), N),
        weighted in any::<bool>(),
    ) {
        let mask: Bitmap = mask.into_iter().collect();
        let w = weighted.then_some(weights.as_slice());
        let joint = JointCounts::count(&[&x, &y, &z], Some(&mask), w);
        let keeps: [&[usize]; 8] = [&[0], &[1], &[2], &[0, 1], &[0, 2], &[1, 2], &[2, 0], &[0, 1, 2]];
        let got = joint.entropies_and_cells(&keeps);
        for (keep, got) in keeps.iter().zip(&got) {
            prop_assert_eq!(bits(*got), bits(joint_oracle(&joint, keep)), "keep {:?}", keep);
        }
        prop_assert_eq!(bits(joint.entropy_and_cells()), bits(joint_oracle(&joint, &[0, 1, 2])));
    }
}

#[test]
fn both_layouts_are_exercised() {
    let contributions = [(3, 1.5), (1, 2.0), (3, -0.5), (2, 0.0)];
    let mut acc = OrderedMarginal::new();
    for (space, dense) in [(8u64, true), (1u64 << 40, false)] {
        let shifted: Vec<(u64, f64)> = contributions
            .iter()
            .map(|&(k, w)| (k * (space / 8), w))
            .collect();
        let got = ordered(&mut acc, space, &shifted, 3.0);
        assert_eq!(acc.is_dense(), dense, "space {space}");
        let want = oracle(&shifted, 3.0);
        assert_eq!(bits(got.0), bits(want.0));
        assert_eq!(got.1, want.1);
        assert_eq!(got.0 .1, 3, "a zero-sum cell is still occupied");
    }
}
