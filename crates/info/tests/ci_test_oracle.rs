//! `ci_test`'s stratum-local permutation loop against the row-scan loop
//! it replaced: permute X within each Z stratum of a full-length copy,
//! then recount the whole masked table with [`InfoContext::cmi`]. Both
//! must agree to the bit on the observed CMI and the p-value, over masks,
//! nulls carrying garbage codes, singleton strata, strata on both sides
//! of the dense/sorted cell switch, and weighted contexts with zero and
//! negative weights.

use std::collections::BTreeMap;

use nexus_info::{ci_test, CiTestOptions, CiTestResult, InfoContext};
use nexus_table::{Bitmap, Codes};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The original permutation loop: shuffle each stratum's X values, scatter
/// them into a clone of X, rescan the table.
fn row_scan_oracle(
    ctx: &InfoContext<'_>,
    x: &Codes,
    y: &Codes,
    z: &[&Codes],
    options: &CiTestOptions,
) -> CiTestResult {
    let cmi = |x: &Codes| match z {
        [] => ctx.mutual_information(x, y),
        _ => ctx.cmi(x, y, z),
    };
    let observed = cmi(x);
    let usable = (0..x.len()).filter(|&i| {
        ctx.mask.is_none_or(|m| m.get(i))
            && x.is_valid(i)
            && y.is_valid(i)
            && z.iter().all(|v| v.is_valid(i))
    });
    let mut strata: BTreeMap<u128, Vec<usize>> = BTreeMap::new();
    for i in usable {
        let key = z.iter().rev().fold(0u128, |k, v| {
            k * (v.cardinality as u128).max(1) + v.codes[i] as u128
        });
        strata.entry(key).or_default().push(i);
    }
    if strata.values().map(Vec::len).sum::<usize>() < 2 {
        return CiTestResult {
            observed_cmi: observed,
            p_value: 1.0,
            independent: true,
        };
    }
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut permuted = x.clone();
    let mut exceed = 0usize;
    for _ in 0..options.n_permutations {
        for stratum in strata.values() {
            let mut vals: Vec<u32> = stratum.iter().map(|&i| x.codes[i]).collect();
            vals.shuffle(&mut rng);
            for (&i, v) in stratum.iter().zip(vals) {
                permuted.codes[i] = v;
            }
        }
        exceed += (cmi(&permuted) >= observed) as usize;
    }
    let p_value = (exceed + 1) as f64 / (options.n_permutations + 1) as f64;
    CiTestResult {
        observed_cmi: observed,
        p_value,
        independent: p_value >= options.alpha,
    }
}

/// A column of `n` codes below `card`; about a tenth of the rows are null
/// (when `nulls`) and carry `u32::MAX` or another out-of-range code.
fn column(rng: &mut StdRng, n: usize, card: u32, nulls: bool) -> Codes {
    let mut codes: Vec<u32> = (0..n).map(|_| rng.gen_range(0..card)).collect();
    let validity = nulls.then(|| {
        let valid: Bitmap = (0..n).map(|_| rng.gen_range(0..10u32) != 0).collect();
        for (i, c) in codes.iter_mut().enumerate() {
            if !valid.get(i) {
                *c = if i % 2 == 0 {
                    u32::MAX
                } else {
                    card + i as u32
                };
            }
        }
        valid
    });
    Codes {
        codes,
        cardinality: card,
        validity,
    }
}

struct Case {
    x: Codes,
    y: Codes,
    z: Vec<Codes>,
    mask: Option<Bitmap>,
    weights: Option<Vec<f64>>,
}

/// The shapes a case is drawn in.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Small cardinalities under up to three Z variables: many singleton
    /// strata.
    Small,
    /// `|X|·|Y|` between 900 and 2500 cells over a few large or many
    /// small strata, so strata land on both sides of the dense/sorted
    /// cell switch.
    Wide,
    /// Binary Y in a handful of small strata: many permutations only swap
    /// rows of equal Y and rebuild the observed cells exactly, so the
    /// permuted CMI ties the observed one unless its fold order is wrong.
    Ties,
}

fn case(seed: u64, shape: Shape) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let (n_hi, x_card, y_card, z_vars, z_card) = match shape {
        Shape::Small => (120, (1, 4), (1, 4), (0, 3), (1, 3)),
        Shape::Wide => (400, (30, 50), (30, 50), (0, 3), (1, 3)),
        Shape::Ties => (48, (2, 3), (2, 2), (1, 2), (2, 3)),
    };
    let n = rng.gen_range(2..=n_hi);
    let col = |rng: &mut StdRng, (lo, hi): (u32, u32)| {
        let card = rng.gen_range(lo..=hi);
        let nulls = rng.gen::<bool>();
        column(rng, n, card, nulls)
    };
    let x = col(&mut rng, x_card);
    let y = col(&mut rng, y_card);
    let z = (0..rng.gen_range(z_vars.0..=z_vars.1))
        .map(|_| col(&mut rng, z_card))
        .collect();
    let mask = rng
        .gen::<bool>()
        .then(|| (0..n).map(|_| rng.gen_range(0..5u32) != 0).collect());
    let weights = rng.gen::<bool>().then(|| {
        (0..n)
            .map(|_| match rng.gen_range(0..6u32) {
                0 => 0.0,
                1 => -rng.gen_range(0.1..2.0),
                _ => rng.gen_range(0.05..4.0),
            })
            .collect()
    });
    Case {
        x,
        y,
        z,
        mask,
        weights,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(240))]

    #[test]
    fn stratum_local_loop_matches_the_row_scan_bit_for_bit(
        seed in any::<u64>(),
        shape in prop_oneof![Just(Shape::Small), Just(Shape::Wide), Just(Shape::Ties)],
    ) {
        let c = case(seed, shape);
        let ctx = InfoContext {
            mask: c.mask.as_ref(),
            weights: c.weights.as_deref(),
        };
        let z: Vec<&Codes> = c.z.iter().collect();
        let options = CiTestOptions {
            n_permutations: 24,
            seed: seed ^ 0x5eed,
            cmi_shortcut: 0.0,
            ..CiTestOptions::default()
        };
        let got = ci_test(&ctx, &c.x, &c.y, &z, &options);
        let want = row_scan_oracle(&ctx, &c.x, &c.y, &z, &options);
        prop_assert_eq!(got.observed_cmi.to_bits(), want.observed_cmi.to_bits());
        prop_assert_eq!(got.p_value.to_bits(), want.p_value.to_bits());
        prop_assert_eq!(got.independent, want.independent);
    }
}
