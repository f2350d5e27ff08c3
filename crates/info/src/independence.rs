//! Conditional-independence testing.
//!
//! The paper's responsibility test (Lemma 4.2) asks whether
//! `O ⫫ E | E_selected` holds; following the HypDB test the paper cites, we
//! use a stratified permutation test on the plug-in CMI: permute `X` within
//! each stratum of `Z` (which preserves `P(X|Z)` and `P(Y|Z)` but breaks any
//! conditional dependence) and compare the observed CMI against the
//! permutation distribution.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use nexus_table::{Bitmap, Codes};

use crate::counter::JointCounts;
use crate::estimator::{cmi_from_terms, cmi_terms, InfoContext};
use crate::kernel;
use crate::marginal::{EntropyFold, OrderedMarginal};

/// Configuration for the permutation test.
#[derive(Debug, Clone, Copy)]
pub struct CiTestOptions {
    /// Number of permutations.
    pub n_permutations: usize,
    /// Significance level: independence is rejected when the fraction of
    /// permuted CMIs ≥ the observed CMI is below `alpha`.
    pub alpha: f64,
    /// RNG seed (tests are deterministic given the seed).
    pub seed: u64,
    /// Fast path: if the observed CMI is below this threshold, declare
    /// independence without permuting; if above `10×` it, declare
    /// dependence. Set to 0 to always permute.
    pub cmi_shortcut: f64,
}

impl Default for CiTestOptions {
    fn default() -> Self {
        CiTestOptions {
            n_permutations: 100,
            alpha: 0.05,
            seed: 0x5eed,
            cmi_shortcut: 1e-3,
        }
    }
}

/// Result of a conditional-independence test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CiTestResult {
    /// The observed CMI `I(X;Y|Z)`.
    pub observed_cmi: f64,
    /// The permutation p-value (1.0 when the shortcut fired as independent,
    /// 0.0 when it fired as dependent).
    pub p_value: f64,
    /// Whether the data is consistent with `X ⫫ Y | Z`.
    pub independent: bool,
}

/// Tests `X ⫫ Y | Z` on the complete-case rows under `ctx`.
///
/// Each permutation is counted over compact per-stratum columns, not by
/// rescanning the table; the permuted CMIs are bit-identical to
/// recomputing [`InfoContext::cmi`] on a permuted copy of `x` (see
/// DESIGN.md §6d).
pub fn ci_test(
    ctx: &InfoContext<'_>,
    x: &Codes,
    y: &Codes,
    z: &[&Codes],
    options: &CiTestOptions,
) -> CiTestResult {
    let mut vars: Vec<&Codes> = Vec::with_capacity(z.len() + 2);
    vars.push(x);
    vars.push(y);
    vars.extend_from_slice(z);
    let joint = JointCounts::count(&vars, ctx.mask, ctx.weights);
    let observed_terms = cmi_terms(&joint).map(|(h, _)| h);
    let observed = cmi_from_terms(observed_terms);

    if options.cmi_shortcut > 0.0 {
        if observed < options.cmi_shortcut {
            return CiTestResult {
                observed_cmi: observed,
                p_value: 1.0,
                independent: true,
            };
        }
        if observed > options.cmi_shortcut * 10.0 && z.is_empty() {
            // Unconditional MI this large is effectively never a permutation
            // artifact at realistic sample sizes.
            return CiTestResult {
                observed_cmi: observed,
                p_value: 0.0,
                independent: false,
            };
        }
    }

    // Count the complete-case rows (mask + all validities) per stratum
    // of Z. Keyed order matters: the strata consume the permutation RNG
    // in sequence, so stratum order must be reproducible across runs. It
    // is also the joint key's Z order (first Z variable fastest), which
    // the entropy folds rely on.
    let complete =
        |i: &usize| ctx.mask.is_none_or(|m| m.get(*i)) && vars.iter().all(|v| v.is_valid(*i));
    let z_key = |i: usize| {
        z.iter().rev().fold(0u128, |key, v| {
            key * (v.cardinality as u128).max(1) + v.codes[i] as u128
        })
    };
    let mut sizes: BTreeMap<u128, usize> = BTreeMap::new();
    for i in (0..x.len()).filter(complete) {
        *sizes.entry(z_key(i)).or_default() += 1;
    }
    let usable: usize = sizes.values().sum();
    if usable < 2 {
        return CiTestResult {
            observed_cmi: observed,
            p_value: 1.0,
            independent: true,
        };
    }
    // Large-sample shortcut for the conditional case: at 10k+ complete
    // cases a CMI this far above zero cannot be a permutation artifact.
    if options.cmi_shortcut > 0.0 && observed > options.cmi_shortcut * 50.0 && usable > 10_000 {
        return CiTestResult {
            observed_cmi: observed,
            p_value: 0.0,
            independent: false,
        };
    }

    let rows = (0..x.len()).filter(complete).map(|i| (z_key(i), i));
    let strata = Strata::gather(x, y, ctx.weights, !z.is_empty(), sizes, rows);
    let mut scratch = Scratch::default();
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut exceed = 0usize;
    for _ in 0..options.n_permutations {
        strata.shuffle(&mut scratch.permuted, &mut rng);
        let terms = strata.permuted_terms(&mut scratch, observed_terms, joint.total);
        if cmi_from_terms(terms) >= observed {
            exceed += 1;
        }
    }
    // Each permutation counts every complete-case row once, as a rescan
    // of the permuted table would.
    kernel::counters().record_rows((usable * options.n_permutations) as u64);
    let p_value = (exceed + 1) as f64 / (options.n_permutations + 1) as f64;
    CiTestResult {
        observed_cmi: observed,
        p_value,
        independent: p_value >= options.alpha,
    }
}

/// The complete-case rows of one test, regrouped into compact columns:
/// strata in ascending Z-key order, each stratum's rows in ascending row
/// order.
struct Strata {
    /// Stratum `s` is `offsets[s]..offsets[s + 1]` of the columns.
    offsets: Vec<usize>,
    /// X codes, in their original (unpermuted) order.
    x: Vec<u32>,
    /// Y codes.
    y: Vec<u32>,
    /// Row weights; empty when the context is unweighted.
    w: Vec<f64>,
    /// `|X|`, the radix of the cell key's X digit.
    nx: u64,
    /// `|X| · |Y|`, the cells of one stratum.
    cells: u64,
    /// Whether Z has any variable (`H(Z)` is 0 otherwise).
    conditional: bool,
}

/// Per-test buffers reused by every permutation.
#[derive(Default)]
struct Scratch {
    /// The permuted X codes, laid out like [`Strata::x`].
    permuted: Vec<u32>,
    /// One stratum's `(x, y)` cells.
    cells: OrderedMarginal,
    /// One stratum's X marginal (weighted contexts only).
    x_marginal: OrderedMarginal,
}

impl Strata {
    /// Lays out the complete-case `rows`, given as `(Z key, row)` in
    /// ascending row order, stratum by stratum; `sizes` holds each
    /// stratum's row count.
    fn gather(
        x: &Codes,
        y: &Codes,
        weights: Option<&[f64]>,
        conditional: bool,
        mut sizes: BTreeMap<u128, usize>,
        rows: impl Iterator<Item = (u128, usize)>,
    ) -> Strata {
        // Turn each stratum's size into its next free slot.
        let mut offsets = vec![0];
        for next in sizes.values_mut() {
            let start = offsets[offsets.len() - 1];
            offsets.push(start + *next);
            *next = start;
        }
        let usable = offsets[offsets.len() - 1];
        let nx = (x.cardinality as u64).max(1);
        let mut strata = Strata {
            offsets,
            x: vec![0; usable],
            y: vec![0; usable],
            w: if weights.is_some() {
                vec![0.0; usable]
            } else {
                Vec::new()
            },
            nx,
            cells: nx * (y.cardinality as u64).max(1),
            conditional,
        };
        for (key, i) in rows {
            let next = sizes.get_mut(&key).expect("every stratum was counted");
            strata.x[*next] = x.codes[i];
            strata.y[*next] = y.codes[i];
            if let Some(w) = weights {
                strata.w[*next] = w[i];
            }
            *next += 1;
        }
        strata
    }

    /// Writes one within-stratum permutation of X into `permuted`,
    /// drawing from `rng` exactly as shuffling each stratum's gathered X
    /// values in stratum order does.
    fn shuffle(&self, permuted: &mut Vec<u32>, rng: &mut StdRng) {
        permuted.clear();
        permuted.extend_from_slice(&self.x);
        for bounds in self.offsets.windows(2) {
            permuted[bounds[0]..bounds[1]].shuffle(rng);
        }
    }

    /// `[H(X′,Y,Z), H(X′,Z), H(Y,Z), H(Z)]` of the permuted rows, where
    /// `invariant` holds the observed terms and `total` the observed
    /// joint's total weight.
    ///
    /// Unweighted, a within-stratum permutation leaves the integer cells
    /// of `(X,Z)`, `(Y,Z)` and `Z` unchanged, so only `H(X′,Y,Z)` is
    /// folded. Weighted, every f64 cell regroups, so all four terms are
    /// re-summed in the joint's order.
    fn permuted_terms(&self, scratch: &mut Scratch, invariant: [f64; 4], total: f64) -> [f64; 4] {
        let Scratch {
            permuted,
            cells,
            x_marginal,
        } = scratch;
        let weighted = !self.w.is_empty();
        let nx = self.nx;
        // Folds of H(X′,Y,Z), H(X′,Z), H(Y,Z), H(Z).
        let mut folds = [EntropyFold::default(); 4];
        for bounds in self.offsets.windows(2) {
            let rows = bounds[0]..bounds[1];
            cells.reset(self.cells, rows.len());
            if !weighted {
                for i in rows {
                    cells.add(self.y[i] as u64 * nx + permuted[i] as u64, 1.0);
                }
                cells.drain(|_, c| folds[0].push(c));
                continue;
            }
            for i in rows.clone() {
                // Zero and negative weights are skipped, as in
                // `JointCounts`.
                if self.w[i] > 0.0 {
                    cells.add(self.y[i] as u64 * nx + permuted[i] as u64, self.w[i]);
                }
            }
            // Cells drain in ascending `(y, x)` order: a Y-marginal cell
            // is a run of equal `y`, and each X-marginal cell receives its
            // `y`s in ascending order. Every sum starts from `0.0`, as an
            // `OrderedMarginal` cell does.
            x_marginal.reset(nx, rows.len());
            let mut y_cell: Option<(u64, f64)> = None;
            let mut z_cell = 0.0;
            cells.drain(|key, c| {
                folds[0].push(c);
                x_marginal.add(key % nx, c);
                match &mut y_cell {
                    Some((y, sum)) if *y == key / nx => *sum += c,
                    _ => {
                        if let Some((_, sum)) = y_cell {
                            folds[2].push(sum);
                        }
                        y_cell = Some((key / nx, 0.0 + c));
                    }
                }
                z_cell += c;
            });
            if let Some((_, sum)) = y_cell {
                folds[2].push(sum);
            }
            folds[3].push(z_cell);
            x_marginal.drain(|_, c| folds[1].push(c));
        }
        let h_xyz = folds[0].finish(total);
        if !weighted {
            return [h_xyz, invariant[1], invariant[2], invariant[3]];
        }
        [
            h_xyz,
            folds[1].finish(total),
            folds[2].finish(total),
            if self.conditional {
                folds[3].finish(total)
            } else {
                0.0
            },
        ]
    }
}

/// Convenience wrapper: unmasked, unweighted CI test with default options.
pub fn ci_test_default(x: &Codes, y: &Codes, z: &[&Codes]) -> CiTestResult {
    ci_test(&InfoContext::default(), x, y, z, &CiTestOptions::default())
}

/// Builds a mask over all rows (helper for callers that want explicit masks).
pub fn full_mask(n: usize) -> Bitmap {
    Bitmap::with_value(n, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(values: &[u32], card: u32) -> Codes {
        Codes {
            codes: values.to_vec(),
            cardinality: card,
            validity: None,
        }
    }

    fn lcg(seed: u64) -> impl FnMut() -> u32 {
        let mut s = seed;
        move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as u32
        }
    }

    #[test]
    fn independent_variables_pass() {
        let mut next = lcg(7);
        let n = 400;
        let x = codes(&(0..n).map(|_| next() % 3).collect::<Vec<_>>(), 3);
        let y = codes(&(0..n).map(|_| next() % 3).collect::<Vec<_>>(), 3);
        let r = ci_test_default(&x, &y, &[]);
        assert!(r.independent, "p={} cmi={}", r.p_value, r.observed_cmi);
    }

    #[test]
    fn dependent_variables_fail() {
        let mut next = lcg(11);
        let n = 400;
        let xv: Vec<u32> = (0..n).map(|_| next() % 3).collect();
        let yv: Vec<u32> = xv.to_vec(); // y == x
        let x = codes(&xv, 3);
        let y = codes(&yv, 3);
        let r = ci_test_default(&x, &y, &[]);
        assert!(!r.independent);
    }

    #[test]
    fn conditional_independence_detected() {
        // X <- Z -> Y: dependent marginally, independent given Z.
        let mut next = lcg(13);
        let n = 2000;
        let zv: Vec<u32> = (0..n).map(|_| next() % 2).collect();
        let xv: Vec<u32> = zv.iter().map(|&z| (z * 2 + next() % 2) % 4).collect();
        let yv: Vec<u32> = zv.iter().map(|&z| (z * 2 + next() % 2) % 4).collect();
        let z = codes(&zv, 2);
        let x = codes(&xv, 4);
        let y = codes(&yv, 4);
        let marg = ci_test_default(&x, &y, &[]);
        assert!(!marg.independent, "marginally dependent by construction");
        let cond = ci_test(
            &InfoContext::default(),
            &x,
            &y,
            &[&z],
            &CiTestOptions {
                cmi_shortcut: 0.0, // force the permutation path
                ..CiTestOptions::default()
            },
        );
        assert!(cond.independent, "p={}", cond.p_value);
    }

    #[test]
    fn conditional_dependence_detected() {
        let mut next = lcg(17);
        let n = 1000;
        let zv: Vec<u32> = (0..n).map(|_| next() % 2).collect();
        // X depends on Z and noise; Y = X xor Z -> Y depends on X given Z.
        let xv: Vec<u32> = (0..n).map(|_| next() % 2).collect();
        let yv: Vec<u32> = xv.iter().zip(&zv).map(|(&x, &z)| x ^ z).collect();
        let z = codes(&zv, 2);
        let x = codes(&xv, 2);
        let y = codes(&yv, 2);
        let r = ci_test(
            &InfoContext::default(),
            &x,
            &y,
            &[&z],
            &CiTestOptions::default(),
        );
        assert!(!r.independent);
    }

    #[test]
    fn shortcut_fires_for_tiny_cmi() {
        let x = codes(&[0, 1, 0, 1], 2);
        let y = codes(&[0, 0, 1, 1], 2);
        let r = ci_test_default(&x, &y, &[]);
        assert!(r.independent);
        assert_eq!(r.p_value, 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut next = lcg(23);
        let n = 300;
        let x = codes(&(0..n).map(|_| next() % 3).collect::<Vec<_>>(), 3);
        let y = codes(&(0..n).map(|_| next() % 3).collect::<Vec<_>>(), 3);
        let opts = CiTestOptions {
            cmi_shortcut: 0.0,
            ..CiTestOptions::default()
        };
        let ctx = InfoContext::default();
        let a = ci_test(&ctx, &x, &y, &[], &opts);
        let b = ci_test(&ctx, &x, &y, &[], &opts);
        assert_eq!(a.p_value, b.p_value);
    }

    #[test]
    fn degenerate_support_is_independent() {
        let mut x = codes(&[0, 1], 2);
        x.validity = Some(Bitmap::with_value(2, false));
        let y = codes(&[0, 1], 2);
        let r = ci_test_default(&x, &y, &[]);
        assert!(r.independent);
    }
}
