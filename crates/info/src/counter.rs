//! Joint-distribution counting over composite categorical keys.
//!
//! The estimators in this crate reduce every quantity to weighted counts of
//! composite keys built from one or more [`Codes`] variables. Keys are
//! mixed-radix encoded (first variable is the fastest digit); the
//! accumulator is a dense vector when the key space is small and a hash map
//! otherwise.
//!
//! # The scan loop
//!
//! The WHERE mask and every validity bitmap fold into one packed
//! selection bitmap, scanned **word at a time** by [`scan_packed`], the
//! one packed scan every counting build uses (these joint counts and the
//! engine's per-column contingencies alike): all-zero 64-bit words are
//! skipped without touching a row (counted in `packed_words_skipped`),
//! set bits inside surviving words decode with `trailing_zeros`. The key
//! width is classified once per build from the checked key-space
//! cardinality ([`kernel::ScanWidth`]); keys stay in one machine word up
//! to 64-bit spaces with a `u128` fallback beyond.
//!
//! Unweighted scans *run-coalesce*: a run of `r` consecutive rows with the
//! same composite key becomes one `counts[key] += r` write. Every
//! unweighted increment is exactly `1.0`, so the coalesced add stores the
//! same exact integer the per-row adds would have — bit-identical, while
//! `dense_ops`/`hash_ops` count accumulator writes, not rows. Weighted
//! scans keep strict per-row, ascending-order accumulation because f64
//! weight sums are order-sensitive in their low bits.

use std::collections::HashMap;
use std::ops::Range;

use nexus_table::{complete_case_mask, Bitmap, Codes};

use crate::kernel::{self, ScanWidth};
use crate::marginal::{EntropyFold, OrderedMarginal};

/// Key space up to which a counting build is unconditionally dense.
const DENSE_LIMIT: u128 = 1 << 21;

/// Row-aware dense upgrade factor: key spaces beyond [`DENSE_LIMIT`]
/// still go dense when within this multiple of the rows about to be
/// scanned — the zeroed table amortizes against the per-row hashing it
/// replaces.
const DENSE_ROWS_FACTOR: u128 = 32;

/// Hard cap on one dense accumulator's key space (2^25 f64 cells =
/// 256 MiB).
const DENSE_HARD_CAP: u128 = 1 << 25;

/// The dense-accumulator policy of every counting build: dense is always
/// taken under the unconditional budget, and still pays for larger key
/// spaces (up to a hard cap) when the space is within a small multiple of
/// the `rows_to_scan` rows the build will visit.
pub fn dense_for_scan(space: u128, rows_to_scan: u128) -> bool {
    space <= DENSE_LIMIT
        || (space <= DENSE_HARD_CAP && space <= rows_to_scan.saturating_mul(DENSE_ROWS_FACTOR))
}

/// Scans the set bits of the packed selection `words[range]` in ascending
/// row order: all-zero words are skipped, set bits decode with
/// `trailing_zeros`, and consecutive rows with equal `key_of(row)`
/// coalesce into one `sink(key, run_length)` flush. Run lengths are exact
/// integers, so coalesced adds are bit-identical to per-row adds in the
/// same order. Returns `(adds, words_skipped)`.
#[inline]
pub fn scan_packed<K, F, S>(
    words: &[u64],
    range: Range<usize>,
    key_of: F,
    mut sink: S,
) -> (u64, u64)
where
    K: Copy + PartialEq + Default,
    F: Fn(usize) -> K,
    S: FnMut(K, f64),
{
    let mut adds = 0u64;
    let mut skipped = 0u64;
    let mut last = K::default();
    let mut run = 0.0f64;
    for wi in range {
        let w = words[wi];
        if w == 0 {
            skipped += 1;
            continue;
        }
        let base = wi * 64;
        let mut bits = w;
        while bits != 0 {
            let i = base + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let key = key_of(i);
            if run > 0.0 && key == last {
                run += 1.0;
            } else {
                if run > 0.0 {
                    sink(last, run);
                    adds += 1;
                }
                last = key;
                run = 1.0;
            }
        }
    }
    if run > 0.0 {
        sink(last, run);
        adds += 1;
    }
    (adds, skipped)
}

/// A weighted count accumulator over composite keys.
#[derive(Debug)]
pub enum Accumulator {
    /// Dense counts indexed by key.
    Dense(Vec<f64>),
    /// Sparse counts for large key spaces.
    Sparse(HashMap<u128, f64>),
}

impl Accumulator {
    fn is_dense(&self) -> bool {
        matches!(self, Accumulator::Dense(_))
    }

    #[inline]
    fn add(&mut self, key: u128, w: f64) {
        match self {
            Accumulator::Dense(v) => v[key as usize] += w,
            Accumulator::Sparse(m) => *m.entry(key).or_insert(0.0) += w,
        }
    }

    /// Iterates over `(key, count)` pairs with nonzero count, **in key
    /// order**. Deterministic order matters: these counts feed f64
    /// entropy sums, whose low bits depend on summation order — and
    /// NEXUS guarantees bit-identical results across runs and thread
    /// counts.
    pub fn iter(&self) -> Box<dyn Iterator<Item = (u128, f64)> + '_> {
        match self {
            Accumulator::Dense(v) => Box::new(
                v.iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0.0)
                    .map(|(k, &c)| (k as u128, c)),
            ),
            Accumulator::Sparse(m) => {
                let mut cells: Vec<(u128, f64)> = m.iter().map(|(&k, &c)| (k, c)).collect();
                cells.sort_unstable_by_key(|&(k, _)| k);
                Box::new(cells.into_iter())
            }
        }
    }
}

/// Per-build scan accounting: accumulator writes performed and all-zero
/// packed selection words skipped.
#[derive(Debug, Default)]
struct ScanTally {
    adds: u64,
    words_skipped: u64,
}

/// Dispatches the scan across (packed mask | full range) × (weighted |
/// unweighted), keeping every hot loop monomorphic in the key type.
/// Returns the total weight and the number of rows counted.
fn scan<K, F>(
    selection: Option<&Bitmap>,
    n: usize,
    key_of: F,
    weights: Option<&[f64]>,
    counts: &mut Accumulator,
    tally: &mut ScanTally,
) -> (f64, usize)
where
    K: Copy + PartialEq + Default + Into<u128>,
    F: Fn(usize) -> K,
{
    let rows = match (selection, weights) {
        (Some(sel), None) => {
            let words = sel.words();
            let (adds, skipped) = scan_packed(words, 0..words.len(), &key_of, |k, run| {
                counts.add(k.into(), run)
            });
            tally.adds += adds;
            tally.words_skipped += skipped;
            sel.count_ones()
        }
        (None, None) => scan_range_unweighted(n, &key_of, counts, tally),
        (sel, Some(w)) => return scan_weighted(sel, n, &key_of, w, counts, tally),
    };
    // Unweighted increments are exactly 1.0, so the total is the exact
    // integer `rows` — identical to summing 1.0 per row.
    (rows as f64, rows)
}

/// Unconstrained scan (no mask, no nulls), unweighted, run-coalesced.
/// Returns the rows counted.
fn scan_range_unweighted<K, F>(
    n: usize,
    key_of: &F,
    counts: &mut Accumulator,
    tally: &mut ScanTally,
) -> usize
where
    K: Copy + PartialEq + Into<u128>,
    F: Fn(usize) -> K,
{
    let mut last: Option<K> = None;
    let mut run = 0.0f64;
    for i in 0..n {
        let key = key_of(i);
        if last == Some(key) {
            run += 1.0;
        } else {
            if let Some(k) = last {
                counts.add(k.into(), run);
                tally.adds += 1;
            }
            last = Some(key);
            run = 1.0;
        }
    }
    if let Some(k) = last {
        counts.add(k.into(), run);
        tally.adds += 1;
    }
    n
}

/// Weighted scan over the packed selection (or every row): strict
/// per-row ascending accumulation (f64 weight sums are order-sensitive),
/// zero/negative weights skipped. Returns the total weight and the rows
/// counted.
fn scan_weighted<K, F>(
    selection: Option<&Bitmap>,
    n: usize,
    key_of: &F,
    weights: &[f64],
    counts: &mut Accumulator,
    tally: &mut ScanTally,
) -> (f64, usize)
where
    K: Copy + Into<u128>,
    F: Fn(usize) -> K,
{
    let mut total = 0.0;
    let mut rows = 0usize;
    let mut visit = |i: usize| {
        let wt = weights[i];
        if wt > 0.0 {
            counts.add(key_of(i).into(), wt);
            total += wt;
            rows += 1;
        }
    };
    match selection {
        Some(sel) => {
            for (wi, &w) in sel.words().iter().enumerate() {
                if w == 0 {
                    tally.words_skipped += 1;
                    continue;
                }
                let base = wi * 64;
                let mut bits = w;
                while bits != 0 {
                    visit(base + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
            }
        }
        None => (0..n).for_each(&mut visit),
    }
    tally.adds += rows as u64;
    (total, rows)
}

/// Weighted joint counts over a set of variables.
#[derive(Debug)]
pub struct JointCounts {
    /// The accumulator of weighted counts.
    pub counts: Accumulator,
    /// Cardinality (radix) of each variable, fastest digit first.
    pub radices: Vec<u128>,
    /// Total weight over counted rows.
    pub total: f64,
    /// Number of rows counted (unweighted).
    pub rows: usize,
}

impl JointCounts {
    /// Counts the joint distribution of `vars` over rows that are
    ///
    /// * within `mask` (if given),
    /// * valid (non-null) in **every** variable,
    ///
    /// each contributing `weights[row]` (or 1).
    ///
    /// All variables must share the same length; `vars` must be non-empty.
    ///
    /// Rows are visited in ascending order, so every f64 accumulation
    /// order is fixed and the result is bit-identical run to run.
    pub fn count(vars: &[&Codes], mask: Option<&Bitmap>, weights: Option<&[f64]>) -> JointCounts {
        Self::count_impl(vars, mask, weights, false)
    }

    /// [`JointCounts::count`] with the accumulator forced sparse — a test
    /// hook so the equivalence suite can pit dense against hashed builds
    /// on key spaces that would normally dispatch dense.
    pub fn count_forced_sparse(
        vars: &[&Codes],
        mask: Option<&Bitmap>,
        weights: Option<&[f64]>,
    ) -> JointCounts {
        Self::count_impl(vars, mask, weights, true)
    }

    fn count_impl(
        vars: &[&Codes],
        mask: Option<&Bitmap>,
        weights: Option<&[f64]>,
        force_sparse: bool,
    ) -> JointCounts {
        assert!(
            !vars.is_empty(),
            "JointCounts requires at least one variable"
        );
        let n = vars[0].len();
        for v in vars {
            assert_eq!(v.len(), n, "variable length mismatch");
        }
        if let Some(w) = weights {
            assert_eq!(w.len(), n, "weights length mismatch");
        }
        if let Some(m) = mask {
            assert_eq!(m.len(), n, "mask length mismatch");
        }

        let radices: Vec<u128> = vars
            .iter()
            .map(|v| (v.cardinality as u128).max(1))
            .collect();
        let space: u128 = radices
            .iter()
            .try_fold(1u128, |acc, &r| acc.checked_mul(r))
            .expect("joint key space exceeds u128");
        // Fold the mask and every validity bitmap into one packed
        // word-level AND. `None` means no constraint exists and `0..n` is
        // the selection. Computed before the accumulator so the dense
        // decision can be row-aware.
        let validities: Vec<&Bitmap> = vars.iter().filter_map(|v| v.validity.as_ref()).collect();
        let selection = complete_case_mask(n, mask, &validities);
        let rows_to_scan = selection.as_ref().map_or(n, Bitmap::count_ones);

        let mut counts = if !force_sparse && dense_for_scan(space, rows_to_scan as u128) {
            Accumulator::Dense(vec![0.0; space as usize])
        } else {
            Accumulator::Sparse(HashMap::new())
        };
        let mut tally = ScanTally::default();
        let selection = selection.as_ref();
        let (total, rows) = if space <= u64::MAX as u128 {
            // All keys fit u64: mixed-radix arithmetic in one word.
            let radices64: Vec<u64> = radices.iter().map(|&r| r as u64).collect();
            let key_of = |i: usize| -> u64 {
                let mut key = 0u64;
                for (v, r) in vars.iter().zip(&radices64).rev() {
                    key = key * r + v.codes[i] as u64;
                }
                key
            };
            scan(selection, n, key_of, weights, &mut counts, &mut tally)
        } else {
            let key_of = |i: usize| -> u128 {
                let mut key = 0u128;
                for (v, r) in vars.iter().zip(&radices).rev() {
                    key = key * r + v.codes[i] as u128;
                }
                key
            };
            scan(selection, n, key_of, weights, &mut counts, &mut tally)
        };

        // One batched counter update per build. `tally.adds` counts
        // accumulator writes — counted rows on weighted scans, the
        // (smaller) number of coalesced runs on unweighted ones.
        let dense = counts.is_dense();
        let counters = kernel::counters();
        counters.record_build(
            rows_to_scan as u64,
            if dense { 0 } else { tally.adds },
            if dense { tally.adds } else { 0 },
            dense,
        );
        counters.record_scan_width(ScanWidth::for_space(space));
        if tally.words_skipped > 0 {
            counters.record_packed_words_skipped(tally.words_skipped);
        }

        JointCounts {
            counts,
            radices,
            total,
            rows,
        }
    }

    /// Shannon entropy (bits) of the counted joint distribution.
    pub fn entropy(&self) -> f64 {
        self.entropy_and_cells().0
    }

    /// Plug-in entropy together with the number of occupied cells
    /// (for Miller–Madow bias correction).
    pub fn entropy_and_cells(&self) -> (f64, usize) {
        let mut fold = EntropyFold::default();
        let mut cells = 0;
        for (_, c) in self.counts.iter() {
            fold.push(c);
            cells += 1;
        }
        (fold.finish(self.total), cells)
    }

    /// Entropy (bits) of the marginal over the variable subset `keep`
    /// (indices into the original `vars` order).
    pub fn marginal_entropy(&self, keep: &[usize]) -> f64 {
        self.marginal_entropy_and_cells(keep).0
    }

    /// Marginal plug-in entropy together with its occupied-cell count.
    pub fn marginal_entropy_and_cells(&self, keep: &[usize]) -> (f64, usize) {
        self.entropies_and_cells(&[keep])[0]
    }

    /// `(plug-in entropy, occupied cells)` of the marginal over each
    /// variable subset in `keeps`, from **one** ascending pass over the
    /// occupied joint cells. A subset listing every variable in order is
    /// the joint itself.
    ///
    /// Each marginal cell sums its joint cells in ascending joint-key
    /// order and the marginal cells fold in ascending marginal-key order
    /// (see [`OrderedMarginal`]), so the results are bit-identical to
    /// accumulating each marginal in an ordered map.
    pub fn entropies_and_cells(&self, keeps: &[&[usize]]) -> Vec<(f64, usize)> {
        let nvars = self.radices.len();
        let is_joint = |keep: &[usize]| keep.iter().copied().eq(0..nvars);
        if keeps.iter().all(|k| is_joint(k)) {
            return vec![self.entropy_and_cells(); keeps.len()];
        }
        if self.radices.iter().product::<u128>() > u64::MAX as u128 {
            return keeps.iter().map(|k| self.wide_marginal(k)).collect();
        }
        let radices: Vec<u64> = self.radices.iter().map(|&r| r as u64).collect();
        let cells: Vec<(u64, f64)> = self.counts.iter().map(|(k, c)| (k as u64, c)).collect();
        // `None` marks the joint itself.
        let mut margs: Vec<Option<MarginalPass>> = keeps
            .iter()
            .map(|&keep| {
                if is_joint(keep) {
                    return None;
                }
                let mut space = 1u64;
                let places = keep
                    .iter()
                    .map(|&k| {
                        let place = (k, space);
                        space *= radices[k];
                        place
                    })
                    .collect();
                let mut acc = OrderedMarginal::new();
                acc.reset(space, cells.len());
                Some(MarginalPass { places, acc })
            })
            .collect();
        let mut joint = EntropyFold::default();
        let mut digits = vec![0u64; nvars];
        for &(key, c) in &cells {
            joint.push(c);
            let mut rest = key;
            for (d, &r) in digits.iter_mut().zip(&radices) {
                *d = rest % r;
                rest /= r;
            }
            for m in margs.iter_mut().flatten() {
                m.acc
                    .add(m.places.iter().map(|&(k, p)| digits[k] * p).sum(), c);
            }
        }
        let joint = (joint.finish(self.total), cells.len());
        margs
            .iter_mut()
            .map(|marg| match marg {
                None => joint,
                Some(m) => m.acc.drain_entropy(self.total),
            })
            .collect()
    }

    /// One marginal of a joint whose key space exceeds `u64` (no shape in
    /// NEXUS reaches this; kept so the estimator has no size limit):
    /// `u128` digit decoding into a stably sorted list, summed per key in
    /// visit order.
    fn wide_marginal(&self, keep: &[usize]) -> (f64, usize) {
        let mut digits = vec![0u128; self.radices.len()];
        let mut pairs: Vec<(u128, f64)> = self
            .counts
            .iter()
            .map(|(mut key, c)| {
                for (d, &r) in digits.iter_mut().zip(&self.radices) {
                    *d = key % r;
                    key /= r;
                }
                let marg = keep
                    .iter()
                    .rev()
                    .fold(0u128, |m, &k| m * self.radices[k] + digits[k]);
                (marg, c)
            })
            .collect();
        pairs.sort_by_key(|&(k, _)| k);
        let mut fold = EntropyFold::default();
        let mut cells = 0;
        for run in pairs.chunk_by(|a, b| a.0 == b.0) {
            fold.push(run.iter().fold(0.0, |s, &(_, c)| s + c));
            cells += 1;
        }
        (fold.finish(self.total), cells)
    }
}

/// One proper marginal being accumulated by
/// [`JointCounts::entropies_and_cells`].
struct MarginalPass {
    /// `(variable, place value)` per kept variable; the first kept
    /// variable is the fastest digit, as in the joint key.
    places: Vec<(usize, u64)>,
    acc: OrderedMarginal,
}

/// Miller–Madow bias-corrected entropy in bits:
/// `Ĥ_MM = Ĥ + (K − 1) / (2 N ln 2)` where `K` is the number of occupied
/// cells and `N` the (weighted) sample size. The plug-in estimator
/// underestimates entropy by roughly this amount, which systematically
/// *deflates* conditional mutual information on small supports — exactly
/// the regime where sparsely-observed KG attributes would otherwise look
/// like spuriously perfect explanations.
pub fn entropy_mm(h_plugin: f64, cells: usize, total: f64) -> f64 {
    if total <= 0.0 {
        return h_plugin;
    }
    h_plugin + cells.saturating_sub(1) as f64 / (2.0 * total * std::f64::consts::LN_2)
}

/// Entropy in bits from raw weighted counts and their total.
pub fn entropy_from_counts(counts: impl Iterator<Item = f64>, total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    let mut fold = EntropyFold::default();
    counts.for_each(|c| fold.push(c));
    fold.finish(total)
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

    #[test]
    fn uniform_entropy_is_log2() {
        let x = codes(&[0, 1, 2, 3], 4);
        let j = JointCounts::count(&[&x], None, None);
        assert!((j.entropy() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn constant_entropy_is_zero() {
        let x = codes(&[1, 1, 1], 3);
        let j = JointCounts::count(&[&x], None, None);
        assert!(j.entropy().abs() < 1e-12);
    }

    #[test]
    fn joint_counts_respect_mask_and_validity() {
        let mut x = codes(&[0, 1, 0, 1], 2);
        let mut validity = Bitmap::with_value(4, true);
        validity.set(3, false);
        x.validity = Some(validity);
        let mask: Bitmap = vec![true, true, false, true].into_iter().collect();
        let j = JointCounts::count(&[&x], Some(&mask), None);
        // rows 0 and 1 survive (2 masked out, 3 null)
        assert_eq!(j.rows, 2);
        assert!((j.entropy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weights_shift_distribution() {
        let x = codes(&[0, 1], 2);
        let j = JointCounts::count(&[&x], None, Some(&[3.0, 1.0]));
        // p = (0.75, 0.25): H = 0.8113
        assert!((j.entropy() - 0.8112781244591328).abs() < 1e-9);
        assert_eq!(j.total, 4.0);
    }

    #[test]
    fn marginal_matches_direct_count() {
        let x = codes(&[0, 0, 1, 1, 0], 2);
        let y = codes(&[0, 1, 0, 1, 1], 2);
        let j = JointCounts::count(&[&x, &y], None, None);
        let hx_direct = JointCounts::count(&[&x], None, None).entropy();
        let hy_direct = JointCounts::count(&[&y], None, None).entropy();
        assert!((j.marginal_entropy(&[0]) - hx_direct).abs() < 1e-12);
        assert!((j.marginal_entropy(&[1]) - hy_direct).abs() < 1e-12);
        assert!((j.marginal_entropy(&[0, 1]) - j.entropy()).abs() < 1e-12);
    }

    #[test]
    fn zero_weight_rows_skipped() {
        let x = codes(&[0, 1], 2);
        let j = JointCounts::count(&[&x], None, Some(&[1.0, 0.0]));
        assert_eq!(j.rows, 1);
        assert!(j.entropy().abs() < 1e-12);
    }

    #[test]
    fn large_cardinality_uses_sparse() {
        // Force the sparse path with a huge synthetic cardinality.
        let x = codes(&[0, 1, 2], 3_000_000);
        let j = JointCounts::count(&[&x], None, None);
        assert!(matches!(j.counts, Accumulator::Sparse(_)));
        assert!((j.entropy() - (3.0f64).log2()).abs() < 1e-12);
    }

    #[test]
    fn entropy_from_counts_empty() {
        assert_eq!(entropy_from_counts(std::iter::empty(), 0.0), 0.0);
    }

    /// Collects `(key, count)` cells for bitwise comparison across paths.
    fn cells(j: &JointCounts) -> Vec<(u128, u64)> {
        j.counts.iter().map(|(k, c)| (k, c.to_bits())).collect()
    }

    /// The counting oracle: one ordered-map entry per complete-case row,
    /// visited in ascending row order, keyed by the same mixed-radix key
    /// (first variable fastest). Returns `(cells, total, rows)`.
    fn oracle(
        vars: &[&Codes],
        mask: Option<&Bitmap>,
        weights: Option<&[f64]>,
    ) -> (Vec<(u128, u64)>, u64, usize) {
        use std::collections::BTreeMap;
        let mut map: BTreeMap<u128, f64> = BTreeMap::new();
        let (mut total, mut rows) = (0.0f64, 0usize);
        for i in 0..vars[0].len() {
            let selected = mask.is_none_or(|m| m.get(i)) && vars.iter().all(|v| v.is_valid(i));
            let w = weights.map_or(1.0, |w| w[i]);
            if !selected || w <= 0.0 {
                continue;
            }
            let key = vars.iter().rev().fold(0u128, |k, v| {
                k * (v.cardinality as u128).max(1) + v.codes[i] as u128
            });
            *map.entry(key).or_insert(0.0) += w;
            total += w;
            rows += 1;
        }
        let cells = map.into_iter().map(|(k, c)| (k, c.to_bits())).collect();
        (cells, total.to_bits(), rows)
    }

    /// Asserts a build reproduces the oracle bit for bit.
    fn assert_matches_oracle(
        j: &JointCounts,
        vars: &[&Codes],
        mask: Option<&Bitmap>,
        w: Option<&[f64]>,
    ) {
        let (want, total, rows) = oracle(vars, mask, w);
        assert_eq!(cells(j), want);
        assert_eq!(j.total.to_bits(), total);
        assert_eq!(j.rows, rows);
    }

    #[test]
    fn kernel_paths_match_counting_oracle() {
        let mut x = codes(&[0, 3, 1, 2, 3, 0, 1, 1, 2, 2, 2, 3], 4);
        let mut validity = Bitmap::with_value(12, true);
        validity.set(4, false);
        x.validity = Some(validity);
        let y = codes(&[1, 0, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0], 2);
        let mask: Bitmap = (0..12).map(|i| i != 2).collect();
        let weights = [
            0.5, 1.25, 2.0, 0.0, 1.0, 3.5, 0.75, 1.0, 0.25, 1.5, -1.0, 2.25,
        ];
        let vars = [&x, &y];
        for m in [None, Some(&mask)] {
            for w in [None, Some(&weights[..])] {
                let dense = JointCounts::count(&vars, m, w);
                let sparse = JointCounts::count_forced_sparse(&vars, m, w);
                assert!(dense.counts.is_dense());
                assert!(!sparse.counts.is_dense());
                assert_matches_oracle(&dense, &vars, m, w);
                assert_matches_oracle(&sparse, &vars, m, w);
                assert_eq!(dense.entropy().to_bits(), sparse.entropy().to_bits());
            }
        }
        // No constraint at all: the unmasked range scan.
        let z = codes(&[2, 2, 2, 0, 1, 1, 0, 0, 0, 2, 1, 1], 3);
        assert_matches_oracle(
            &JointCounts::count(&[&z, &y], None, None),
            &[&z, &y],
            None,
            None,
        );
        // Long runs of equal keys, coalesced into one add each, masked and
        // unmasked.
        let runs: Vec<u32> = (0..300).map(|i| (i / 40 % 3) as u32).collect();
        let r = codes(&runs, 3);
        let every_third: Bitmap = (0..300).map(|i| i % 3 != 0).collect();
        for m in [None, Some(&every_third)] {
            assert_matches_oracle(&JointCounts::count(&[&r], m, None), &[&r], m, None);
        }
        // A key space beyond u64 takes the u128 keys.
        let wide = codes(&[7, 1 << 30, 5, 7, 9, 1 << 30, 7, 0, 0, 1, 2, 3], u32::MAX);
        let vars = [&wide, &wide, &wide, &y];
        for w in [None, Some(&weights[..])] {
            assert_matches_oracle(
                &JointCounts::count(&vars, Some(&mask), w),
                &vars,
                Some(&mask),
                w,
            );
        }
    }

    #[test]
    fn builds_move_kernel_counters() {
        let x = codes(&[0, 1, 0, 1], 2);
        let before = crate::kernel::counters().snapshot();
        let j = JointCounts::count(&[&x], None, None);
        assert!(j.counts.is_dense());
        let d = crate::kernel::counters().snapshot().delta(&before);
        assert!(d.rows_scanned >= 4);
        assert!(d.dense_ops >= 4);
        assert!(d.dense_builds >= 1);
    }
}
