//! The estimation engine.
//!
//! Every extracted candidate from extraction column `X` is a function of
//! `X`'s entity code, so all of its information-theoretic scores can be
//! derived from a single `(O, T, X)` contingency table built in **one pass
//! over the rows per extraction column** — independently of how many
//! hundreds of attributes `X` contributes. This is what keeps MCIMR under
//! interactive latency on the 5.8M-row Flights dataset.
//!
//! Row-level candidates (base-table attributes) and conditioning sets of
//! selected attributes fall back to direct row scans, which happen O(k)
//! times, not O(|𝒜|) times.
//!
//! ## The counting kernel (v2)
//!
//! Contingency builds are the scoring hot path, so they run on a layered
//! kernel rather than the naive per-row hashed scan:
//!
//! * the complete-case predicate (`mask ∧ valid(O) ∧ valid(T)`) and the
//!   fused `t·|O|+o` code column are precomputed **once per candidate
//!   set** ([`FusedSelection`]); the fused column is materialized at the
//!   narrowest integer width that holds `|O|·|T| − 1` (`u8`/`u16`/`u32`,
//!   chosen once from checked cardinality), so large scans stream narrow
//!   cache-friendly code lanes instead of full-width words;
//! * each per-column build ANDs `valid(X)` into the packed selection and
//!   scans it **word at a time**: all-zero 64-bit mask words are skipped
//!   without touching a row (`packed_words_skipped`), set bits decode via
//!   `trailing_zeros`, and runs of consecutive equal keys coalesce into
//!   one add. Every increment is exactly `1.0` (weights apply later, at
//!   entity level), so a run of length `r` adds the exact integer `r` —
//!   bit-identical to `r` separate adds;
//! * when the `X × T × O` key space fits the dense budget
//!   ([`nexus_info::dense_for_scan`], shared with every joint-count
//!   build), counts land in a [`RadixHistogram`]: the keyspace splits
//!   into 4096-cell partition blocks allocated lazily on first touch, so
//!   zeroing *and* merging scale with touched cells, not keyspace. Larger
//!   key spaces fall back to a hashed accumulator. Shapes whose fused
//!   `|O|·|T|` exceeds `u32` are counted by [`JointCounts::count`] over
//!   `(O, T, X)`, whose mixed-radix key is the same number;
//! * large selections split into one contiguous word span per pool
//!   thread. Spans scan into private sub-histograms and merge in
//!   ascending span order, touched blocks only. Cell sums are exact
//!   integers (< 2^53), so the merge arithmetic is associative
//!   bit-for-bit and results are identical at every thread count.
//!
//! All paths emit the same key `(x·|T| + t)·|O| + o` and drain cells in
//! ascending key order, so every downstream f64 fold sees the same cell
//! sequence and NEXUS's bit-identical-output promise holds across shapes
//! and thread counts.

use std::collections::HashMap;
use std::sync::Arc;

use nexus_info::kernel::{self, ScanWidth};
use nexus_info::{
    dense_for_scan, entropy_from_counts, entropy_mm, scan_packed, InfoContext, JointCounts,
    MemoKind, OrderedMarginal,
};
use nexus_runtime::{Parallelism, ThreadPool};
use nexus_table::{Bitmap, Codes};

use crate::candidate::{Candidate, CandidateRepr, CandidateSet, MISSING_CODE};
use crate::memo::{set_fingerprint, Claim, MemoHandle, MemoKey, WaitOutcome};
use crate::shard::{NameCache, PairCache};

/// Cap on `keyspace × span accumulators` for parallel dense builds,
/// bounding the worst-case transient allocation across all spans.
const KERNEL_DENSE_TOTAL_CAP: u128 = 1 << 27;

/// Selection length below which a build stays serial: span bookkeeping
/// and accumulator merging outweigh the scan itself on small contexts.
const KERNEL_PAR_ROWS: usize = 1 << 16;

/// Rows per parallel chunk in the v1 kernel. v2 scans one word span per
/// pool thread instead; this grid survives as the reference for the
/// `full_merge_cells` counter — the cell writes the v1 full-keyspace
/// merge discipline (one whole-array merge per 2^16-row chunk) would
/// have performed on the same build.
const KERNEL_V1_CHUNK_ROWS: usize = 1 << 16;

/// log2 of cells per radix partition block (4096 cells = 32 KiB of f64:
/// small enough that a sparsely-touched build allocates little, large
/// enough that block bookkeeping vanishes next to the scan).
const RADIX_BLOCK_BITS: u32 = 12;

/// Cells per radix partition block.
const RADIX_BLOCK_CELLS: usize = 1 << RADIX_BLOCK_BITS;

/// Entropy-level statistics of one candidate `E` against the outcome `O`
/// and exposure `T`, over the complete-case support of `(O, T, E)` within
/// the context. Everything the pruning tests and MCIMR need derives from
/// these seven entropies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandStats {
    /// `(H, cells)` of `O`.
    pub h_o: (f64, usize),
    /// `(H, cells)` of `T`.
    pub h_t: (f64, usize),
    /// `(H, cells)` of `E`.
    pub h_e: (f64, usize),
    /// `(H, cells)` of `(O,T)`.
    pub h_ot: (f64, usize),
    /// `(H, cells)` of `(O,E)`.
    pub h_oe: (f64, usize),
    /// `(H, cells)` of `(T,E)`.
    pub h_te: (f64, usize),
    /// `(H, cells)` of `(O,T,E)`.
    pub h_ote: (f64, usize),
    /// Total weight of the support.
    pub support: f64,
    /// Number of in-context entities with an observed value
    /// (`usize::MAX` for row-level candidates, where the notion is void).
    pub present_entities: usize,
}

impl CandStats {
    #[inline]
    fn mm(&self, e: (f64, usize)) -> f64 {
        nexus_info::entropy_mm(e.0, e.1, self.support)
    }

    /// `I(O;T|E)` — the Min-CMI criterion value, Miller–Madow corrected so
    /// candidates with different complete-case supports compare fairly.
    pub fn cmi(&self) -> f64 {
        cmi_mm(self.h_e, self.h_oe, self.h_te, self.h_ote, self.support)
    }

    /// Plug-in (uncorrected) `I(O;T|E)`.
    pub fn cmi_plugin(&self) -> f64 {
        (self.h_oe.0 + self.h_te.0 - self.h_ote.0 - self.h_e.0).max(0.0)
    }

    /// `I(O;E)` — individual relevance (Miller–Madow corrected).
    pub fn relevance(&self) -> f64 {
        (self.mm(self.h_o) + self.mm(self.h_e) - self.mm(self.h_oe)).max(0.0)
    }

    /// `I(O;E|T)` — relevance within exposure groups (Miller–Madow
    /// corrected).
    pub fn relevance_given_t(&self) -> f64 {
        (self.mm(self.h_ot) + self.mm(self.h_te) - self.mm(self.h_ote) - self.mm(self.h_t)).max(0.0)
    }

    /// `H(T|E)` — the forward FD residual (plug-in: FD detection wants the
    /// raw residual, not a sample-size-inflated one).
    pub fn h_t_given_e(&self) -> f64 {
        (self.h_te.0 - self.h_e.0).max(0.0)
    }

    /// `H(E|T)` — the backward FD residual (plug-in).
    pub fn h_e_given_t(&self) -> f64 {
        (self.h_te.0 - self.h_t.0).max(0.0)
    }

    /// `I(O;T)` on this candidate's support (Miller–Madow corrected).
    pub fn baseline(&self) -> f64 {
        (self.mm(self.h_o) + self.mm(self.h_t) - self.mm(self.h_ot)).max(0.0)
    }
}

/// A `(O, T, X)` contingency table for one extraction column.
#[derive(Debug)]
struct Contingency {
    /// Non-empty cells `(o, t, x, weight)`.
    cells: Vec<(u32, u32, u32, f64)>,
    /// Per-x total weight (index = x code).
    x_marginal: Vec<f64>,
    /// Total weight over all cells.
    total: f64,
    /// Number of entities with in-context rows.
    n_entities_ctx: usize,
    card_o: u32,
    card_t: u32,
}

/// Element of a narrow-materialized code column. The scan loop is
/// monomorphized per width, so narrow columns stream `u8`/`u16` lanes —
/// branch-free and auto-vectorizable — instead of full-width words.
trait NarrowCode: Copy + Send + Sync + 'static {
    /// The [`ScanWidth`] this element type represents.
    const WIDTH: ScanWidth;
    fn from_u64(v: u64) -> Self;
    fn as_u64(self) -> u64;
}

macro_rules! narrow_code {
    ($($t:ty => $w:expr),*) => {$(
        impl NarrowCode for $t {
            const WIDTH: ScanWidth = $w;
            #[inline]
            fn from_u64(v: u64) -> Self {
                v as $t
            }
            #[inline]
            fn as_u64(self) -> u64 {
                self as u64
            }
        }
    )*};
}
narrow_code!(u8 => ScanWidth::W8, u16 => ScanWidth::W16, u32 => ScanWidth::W32);

/// The fused `t·|O| + o` code column at the narrowest width that holds
/// `|O|·|T| − 1`, chosen once per candidate set from checked cardinality.
enum ToCodes {
    W8(Vec<u8>),
    W16(Vec<u16>),
    W32(Vec<u32>),
}

/// Per-candidate-set precomputation shared by every per-column kernel
/// build: the complete-case bitmap over `(mask, O, T)` and the fused
/// `t·|O| + o` code column.
///
/// Fusing as `t·|O| + o` (not `o·|T| + t`) makes the kernel key
/// `x·|TO| + to` *numerically equal* to the mixed-radix joint-count key
/// `(x·|T| + t)·|O| + o`, so wide shapes counted by [`JointCounts`] sort
/// cells identically and feed downstream f64 folds in the same order.
struct FusedSelection {
    /// `mask ∧ valid(O) ∧ valid(T)`; per-column builds AND in `valid(X)`.
    base: Bitmap,
    /// `t·|O| + o` per row; only meaningful where `base` is set.
    to: ToCodes,
    /// `|O| · |T|`.
    card_to: u64,
}

impl FusedSelection {
    /// Approximate resident size, for memo byte accounting.
    fn approx_bytes(&self) -> u64 {
        let to_bytes = match &self.to {
            ToCodes::W8(v) => v.len(),
            ToCodes::W16(v) => v.len() * 2,
            ToCodes::W32(v) => v.len() * 4,
        };
        (self.base.words().len() * 8 + to_bytes + 32) as u64
    }

    /// Builds the fused selection, or `None` when `|O|·|T|` exceeds `u32`
    /// and the fused codes would not fit the kernel's code column.
    fn build(set: &CandidateSet) -> Option<FusedSelection> {
        let o = &set.o;
        let t = &set.t;
        let n = o.len();
        let card_o = o.cardinality.max(1) as u64;
        let card_t = t.cardinality.max(1) as u64;
        let card_to = card_o * card_t;
        if card_to > u32::MAX as u64 {
            return None;
        }
        let mut maps: Vec<&Bitmap> = vec![&set.mask];
        maps.extend(o.validity.as_ref());
        maps.extend(t.validity.as_ref());
        let base = Bitmap::and_all(&maps).expect("mask always present");
        // Width selection: fused codes run 0..card_to, so the narrowest
        // integer that holds card_to − 1 carries them losslessly.
        let to = match ScanWidth::for_space(card_to as u128) {
            ScanWidth::W8 => ToCodes::W8(fuse_codes(n, &base, t, o, card_o)),
            ScanWidth::W16 => ToCodes::W16(fuse_codes(n, &base, t, o, card_o)),
            _ => ToCodes::W32(fuse_codes(n, &base, t, o, card_o)),
        };
        Some(FusedSelection { base, to, card_to })
    }
}

/// Materializes `t·|O| + o` at width `T`. Fuses only at selected rows:
/// codes at invalid rows are unspecified and could overflow the product.
fn fuse_codes<T: NarrowCode>(n: usize, base: &Bitmap, t: &Codes, o: &Codes, card_o: u64) -> Vec<T> {
    let mut out = vec![T::from_u64(0); n];
    for i in base.iter_ones() {
        out[i] = T::from_u64(t.codes[i] as u64 * card_o + o.codes[i] as u64);
    }
    out
}

/// A radix-partitioned sub-histogram over a dense `u64` key space.
///
/// The keyspace splits into [`RADIX_BLOCK_CELLS`]-cell partition blocks
/// (the partition index is the key's high bits), allocated lazily on
/// first touch. A scan over a clustered or small selection touches few
/// blocks, so zeroing and merging scale with *touched* cells; the
/// untouched tail of the keyspace costs nothing. Draining walks blocks in
/// ascending order, so cells come out in ascending key order exactly like
/// a flat array.
struct RadixHistogram {
    blocks: Vec<Option<Box<[f64]>>>,
    /// The logical keyspace; the tail block may extend past it.
    space: usize,
}

impl RadixHistogram {
    fn new(space: usize) -> RadixHistogram {
        RadixHistogram {
            blocks: vec![None; space.div_ceil(RADIX_BLOCK_CELLS)],
            space,
        }
    }

    #[inline]
    fn add(&mut self, key: u64, w: f64) {
        let block = self.blocks[(key >> RADIX_BLOCK_BITS) as usize]
            .get_or_insert_with(|| vec![0.0; RADIX_BLOCK_CELLS].into_boxed_slice());
        block[(key & (RADIX_BLOCK_CELLS as u64 - 1)) as usize] += w;
    }

    /// Merges `src`'s touched blocks into `self`, ascending block order.
    /// Cell sums are exact integer counts, so the addition is associative
    /// bit-for-bit regardless of how spans were grouped. Returns the
    /// number of in-keyspace cells merged (untouched source blocks cost
    /// nothing; blocks moved into an empty slot are counted
    /// conservatively as written).
    fn merge_from(&mut self, src: RadixHistogram) -> u64 {
        let mut cells = 0u64;
        for (bi, (slot, sb)) in self.blocks.iter_mut().zip(src.blocks).enumerate() {
            let Some(sb) = sb else { continue };
            cells += (self.space - bi * RADIX_BLOCK_CELLS).min(RADIX_BLOCK_CELLS) as u64;
            match slot {
                Some(db) => {
                    for (d, s) in db.iter_mut().zip(sb.iter()) {
                        *d += s;
                    }
                }
                None => *slot = Some(sb),
            }
        }
        cells
    }

    /// Nonzero cells in ascending key order.
    fn into_sorted_cells(self) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        for (bi, block) in self.blocks.into_iter().enumerate() {
            let Some(block) = block else { continue };
            let base = (bi * RADIX_BLOCK_CELLS) as u64;
            for (ci, &w) in block.iter().enumerate() {
                if w > 0.0 {
                    out.push((base + ci as u64, w));
                }
            }
        }
        out
    }
}

/// A per-span partial histogram for one kernel build.
enum KernelAcc {
    Dense(RadixHistogram),
    Sparse(HashMap<u64, f64>),
}

impl Contingency {
    /// Approximate resident size, for memo byte accounting.
    fn approx_bytes(&self) -> u64 {
        (self.cells.len() * std::mem::size_of::<(u32, u32, u32, f64)>()
            + self.x_marginal.len() * 8
            + 64) as u64
    }

    /// Builds the `(O, T, X)` contingency for one extraction column: the
    /// fused packed-mask kernel when the set has a [`FusedSelection`],
    /// else a [`JointCounts`] count over `(O, T, X)` for the wide shapes.
    ///
    /// The kernel ANDs `valid(X)` into the shared complete-case bitmap and
    /// scans the selection words directly (no index vector), accumulating
    /// `counts[x·|TO| + to] += run` into a radix-partitioned
    /// sub-histogram (hashed fallback beyond the dense budget), one word
    /// span per pool thread for large selections.
    fn build(
        set: &CandidateSet,
        column: &str,
        fused: Option<&FusedSelection>,
        pool: Option<&ThreadPool>,
    ) -> Contingency {
        let x = &set.column_codes[column];
        let Some(fused) = fused else {
            return Self::build_wide(set, x);
        };
        // |X|·|TO| < 2^64 because both factors fit u32.
        let card_to = fused.card_to;
        let space = x.cardinality.max(1) as u128 * card_to as u128;

        // Per-column packed selection: base ∧ valid(X), scanned word at a
        // time — the selection never materializes as row indices.
        let sel_owned;
        let sel = match &x.validity {
            Some(v) => {
                sel_owned = fused.base.and(v);
                &sel_owned
            }
            None => &fused.base,
        };

        match &fused.to {
            ToCodes::W8(to) => Self::scan_build(set, x, to, sel, card_to, space, pool),
            ToCodes::W16(to) => Self::scan_build(set, x, to, sel, card_to, space, pool),
            ToCodes::W32(to) => Self::scan_build(set, x, to, sel, card_to, space, pool),
        }
    }

    /// One monomorphized kernel build over a `T`-width fused code column.
    fn scan_build<T: NarrowCode>(
        set: &CandidateSet,
        x: &Codes,
        to: &[T],
        sel: &Bitmap,
        card_to: u64,
        space: u128,
        pool: Option<&ThreadPool>,
    ) -> Contingency {
        let words = sel.words();
        let selected = sel.count_ones();
        let parallel = pool.is_some_and(|p| p.threads() > 1) && selected >= KERNEL_PAR_ROWS;
        // One word span per pool thread, but never more spans than the v1
        // discipline had 2^16-row chunks: each extra span is one extra
        // merge, so capping at the v1 chunk count guarantees the radix
        // merge bill stays strictly below the old full-keyspace one.
        let v1_chunks = selected.div_ceil(KERNEL_V1_CHUNK_ROWS);
        let n_spans = if parallel {
            pool.expect("parallel requires a pool")
                .threads()
                .min(v1_chunks)
                .min(words.len().max(1))
        } else {
            1
        };
        // The shared dense policy, with every span's accumulator counted
        // against the cross-span cap.
        let dense = dense_for_scan(space, selected as u128)
            && space.saturating_mul(n_spans as u128) <= KERNEL_DENSE_TOTAL_CAP;

        let codes = &x.codes;
        let key_of = |i: usize| codes[i] as u64 * card_to + to[i].as_u64();
        let scan = |wr: std::ops::Range<usize>| -> (KernelAcc, u64, u64) {
            if dense {
                let mut h = RadixHistogram::new(space as usize);
                let (adds, skipped) = scan_packed(words, wr, key_of, |k, w| h.add(k, w));
                (KernelAcc::Dense(h), adds, skipped)
            } else {
                let mut m: HashMap<u64, f64> = HashMap::new();
                let (adds, skipped) =
                    scan_packed(words, wr, key_of, |k, w| *m.entry(k).or_insert(0.0) += w);
                (KernelAcc::Sparse(m), adds, skipped)
            }
        };

        let mut adds = 0u64;
        let mut skipped = 0u64;
        let mut radix_cells = 0u64;
        let acc = if parallel {
            let pool = pool.expect("parallel requires a pool");
            let span_words = words.len().div_ceil(n_spans);
            let results = pool.map(n_spans, |s| {
                let w0 = (s * span_words).min(words.len());
                let w1 = ((s + 1) * span_words).min(words.len());
                scan(w0..w1)
            });
            // Merge spans in ascending span order: the first span's
            // histogram is taken whole; later spans contribute touched
            // blocks only.
            let mut iter = results.into_iter();
            let (mut acc, a0, s0) = iter.next().expect("at least one span");
            adds += a0;
            skipped += s0;
            for (src, a, s) in iter {
                adds += a;
                skipped += s;
                radix_cells += match (&mut acc, src) {
                    (KernelAcc::Dense(dst), KernelAcc::Dense(sh)) => dst.merge_from(sh),
                    (KernelAcc::Sparse(dst), KernelAcc::Sparse(sm)) => {
                        for (k, w) in sm {
                            *dst.entry(k).or_insert(0.0) += w;
                        }
                        0
                    }
                    _ => unreachable!("kernel spans share one accumulator layout"),
                };
            }
            acc
        } else {
            let (acc, a, s) = scan(0..words.len());
            adds += a;
            skipped += s;
            acc
        };

        // Batched counter updates, once per build. `adds` counts
        // accumulator writes (coalesced runs), not rows.
        let counters = kernel::counters();
        counters.record_build(
            selected as u64,
            if dense { 0 } else { adds },
            if dense { adds } else { 0 },
            dense,
        );
        counters.record_scan_width(T::WIDTH);
        if skipped > 0 {
            counters.record_packed_words_skipped(skipped);
        }
        if parallel && dense {
            // What the v1 discipline would have cost on this build: one
            // full-keyspace merge per 2^16-row chunk of the selection.
            counters.record_merge(radix_cells, (space as u64).saturating_mul(v1_chunks as u64));
        }

        let card_o = set.o.cardinality.max(1) as u64;
        let card_t = set.t.cardinality.max(1) as u64;
        match acc {
            KernelAcc::Dense(h) => Self::from_sorted_cells(
                h.into_sorted_cells().into_iter(),
                card_o,
                card_t,
                x.cardinality as usize,
            ),
            KernelAcc::Sparse(m) => {
                let mut keyed: Vec<(u64, f64)> = m.into_iter().collect();
                keyed.sort_unstable_by_key(|&(k, _)| k);
                Self::from_sorted_cells(keyed.into_iter(), card_o, card_t, x.cardinality as usize)
            }
        }
    }

    /// The wide shapes (`|O|·|T|` beyond `u32`): a [`JointCounts`] count
    /// over `(O, T, X)`. Its mixed-radix key is `(x·|T|+t)·|O|+o` with `o`
    /// fastest, so its cells come out in the kernel's ascending order as
    /// the same exact integers; `u128` keys are decoded only here.
    fn build_wide(set: &CandidateSet, x: &Codes) -> Contingency {
        let joint = JointCounts::count(&[&set.o, &set.t, x], Some(&set.mask), None);
        let (card_o, card_t) = (joint.radices[0], joint.radices[1]);
        let cells = joint.counts.iter().map(|(key, w)| {
            let o = (key % card_o) as u32;
            let t = ((key / card_o) % card_t) as u32;
            (o, t, (key / (card_o * card_t)) as u32, w)
        });
        Self::from_cells(cells, card_o as u32, card_t as u32, x.cardinality as usize)
    }

    /// Decodes ascending `(key, weight)` cells (key = `(x·|T|+t)·|O|+o`)
    /// of a kernel build into a contingency.
    fn from_sorted_cells(
        keyed: impl Iterator<Item = (u64, f64)>,
        card_o: u64,
        card_t: u64,
        card_x: usize,
    ) -> Contingency {
        let cells = keyed.map(|(key, w)| {
            let o = (key % card_o) as u32;
            let t = ((key / card_o) % card_t) as u32;
            (o, t, (key / (card_o * card_t)) as u32, w)
        });
        Self::from_cells(cells, card_o as u32, card_t as u32, card_x)
    }

    /// Assembles ascending `(o, t, x, weight)` cells into the cell vector,
    /// x-marginal, and totals. Shared by every build so all shapes produce
    /// cells identically.
    fn from_cells(
        decoded: impl Iterator<Item = (u32, u32, u32, f64)>,
        card_o: u32,
        card_t: u32,
        card_x: usize,
    ) -> Contingency {
        let mut cells = Vec::new();
        let mut x_marginal = vec![0.0; card_x];
        let mut total = 0.0;
        for cell in decoded {
            x_marginal[cell.2 as usize] += cell.3;
            total += cell.3;
            cells.push(cell);
        }
        let n_entities_ctx = x_marginal.iter().filter(|&&w| w > 0.0).count();
        Contingency {
            cells,
            x_marginal,
            total,
            n_entities_ctx,
            card_o,
            card_t,
        }
    }
}

/// The estimation engine for one candidate set.
///
/// Caches are keyed by candidate *name* so they stay valid when the
/// candidate vector is compacted by pruning. All interior caches are
/// mutex-guarded and every cached value is a pure function of its key, so
/// the engine is freely shared across the worker threads of its
/// [`ThreadPool`]; a duplicated computation under contention is wasted
/// work, never a wrong answer.
pub struct Engine {
    /// `(O,T,X)` contingencies per extraction column. `Arc`'d so warm
    /// builds share the memoized tables instead of recounting rows.
    base: HashMap<String, Arc<Contingency>>,
    /// `I(O;T|C)` on the full in-context support.
    baseline_cmi: f64,
    /// Total in-context complete-case rows for (O,T).
    baseline_support: usize,
    /// The pool candidate-parallel stages (scoring, pruning, bias
    /// detection) run on.
    pool: ThreadPool,
    /// Cached per-candidate stats, keyed by `(name, weighted)`.
    stats_cache: NameCache<CandStats>,
    /// Cached calibrated CMI, keyed by `(name, weighted)`.
    calibrated_cache: NameCache<f64>,
    /// Cached pairwise MI, keyed by ordered candidate names.
    pair_cache: PairCache<f64>,
    /// Cached cross-column `(X₁, X₂)` joint counts.
    column_pairs: PairCache<Arc<PairCells>>,
}

/// Joint `(x₁, x₂, weight)` cells for a pair of extraction columns.
type PairCells = Vec<(u32, u32, f64)>;

impl Engine {
    /// Builds the engine: one counting pass per extraction column plus one
    /// for the baseline. The per-column contingency passes run on a pool
    /// of the given parallelism, and that pool drives every
    /// candidate-parallel stage scored through this engine.
    ///
    /// With a sub-query memo handle, per-set selection vectors,
    /// per-column contingencies, and the baseline CMI term are fetched
    /// from (and published to) the store instead of rebuilt. Results are
    /// byte-identical to the memo-less path; warm builds simply skip the
    /// per-column counting pool tasks.
    pub fn with_parallelism_memo(
        set: &CandidateSet,
        parallelism: Parallelism,
        memo: Option<&MemoHandle>,
    ) -> Engine {
        let pool = ThreadPool::new(parallelism);
        let mut columns: Vec<&String> = set.column_codes.keys().collect();
        columns.sort();
        // Every per-set memo entry shares one fingerprint over the context
        // mask words and the O/T codes (computed once per engine build).
        let scope = memo.map(|h| (h, set_fingerprint(&set.mask, &set.o, &set.t)));

        // The fused complete-case selection is a pure function of the set,
        // so it memoizes under the Selection kind.
        let fused: Arc<Option<FusedSelection>> = match &scope {
            None => Arc::new(FusedSelection::build(set)),
            Some((h, set_fp)) => {
                let key = MemoKey::new(MemoKind::Selection, h.dataset_fp, *set_fp, 0, "fused");
                h.store.get_or_build(&key, || {
                    let f = FusedSelection::build(set);
                    let bytes = f.as_ref().map_or(16, FusedSelection::approx_bytes);
                    (Arc::new(f), bytes)
                })
            }
        };
        let fused_ref: Option<&FusedSelection> = fused.as_ref().as_ref();
        // Parallelism policy: the pool's scoped workers must not nest (a
        // row-parallel build inside a column-parallel map would spawn
        // threads² workers), so large tables go row-parallel with columns
        // built serially, and everything else keeps the column-parallel
        // map with serial builds.
        let row_parallel =
            fused_ref.is_some() && pool.threads() > 1 && set.o.len() >= KERNEL_PAR_ROWS;

        let base: HashMap<String, Arc<Contingency>> = match &scope {
            None => {
                let contingencies: Vec<Arc<Contingency>> = if row_parallel {
                    columns
                        .iter()
                        .map(|column| {
                            Arc::new(Contingency::build(set, column, fused_ref, Some(&pool)))
                        })
                        .collect()
                } else {
                    pool.map_slice(&columns, |_, column| {
                        Arc::new(Contingency::build(set, column, fused_ref, None))
                    })
                };
                columns.into_iter().cloned().zip(contingencies).collect()
            }
            Some((h, set_fp)) => {
                let col_key = |column: &str| {
                    MemoKey::new(MemoKind::Contingency, h.dataset_fp, *set_fp, 0, column)
                };
                // Single-flight discipline: claim every column first (claim
                // never blocks), pool-build only this engine's Build claims,
                // publish them, and only then wait on other requests'
                // in-flight builds — so no engine ever waits while holding
                // an unbuilt ticket another engine could be waiting on.
                let mut resolved: HashMap<String, Arc<Contingency>> = HashMap::new();
                let mut builds = Vec::new();
                let mut waits: Vec<&String> = Vec::new();
                for column in &columns {
                    match h.store.claim(&col_key(column)) {
                        Claim::Hit(v) => {
                            let cont = v
                                .downcast::<Contingency>()
                                .expect("memo value type mismatch");
                            resolved.insert((*column).clone(), cont);
                        }
                        Claim::Build(ticket) => builds.push((*column, ticket)),
                        Claim::Wait => waits.push(column),
                    }
                }
                // The misses are the only pool tasks this build spawns: a
                // fully warm engine runs zero counting tasks, which is how
                // the CI suite asserts memo gains (counters, not clocks).
                let build_cols: Vec<&String> = builds.iter().map(|(c, _)| *c).collect();
                let built: Vec<Arc<Contingency>> = if build_cols.is_empty() {
                    Vec::new()
                } else if row_parallel {
                    build_cols
                        .iter()
                        .map(|column| {
                            Arc::new(Contingency::build(set, column, fused_ref, Some(&pool)))
                        })
                        .collect()
                } else {
                    pool.map_slice(&build_cols, |_, column| {
                        Arc::new(Contingency::build(set, column, fused_ref, None))
                    })
                };
                for ((column, ticket), cont) in builds.into_iter().zip(built) {
                    ticket.publish(cont.clone(), cont.approx_bytes());
                    resolved.insert(column.clone(), cont);
                }
                for column in waits {
                    let key = col_key(column);
                    let cont = match h.store.wait(&key) {
                        WaitOutcome::Ready(v) => v
                            .downcast::<Contingency>()
                            .expect("memo value type mismatch"),
                        WaitOutcome::Build(ticket) => {
                            // The original builder abandoned; build here.
                            let c =
                                Arc::new(Contingency::build(set, column, fused_ref, Some(&pool)));
                            ticket.publish(c.clone(), c.approx_bytes());
                            c
                        }
                    };
                    resolved.insert(column.clone(), cont);
                }
                resolved
            }
        };

        let (baseline_cmi, baseline_support) = {
            let compute = || {
                let ctx = InfoContext::masked(&set.mask);
                (
                    ctx.mutual_information_mm(&set.o, &set.t),
                    ctx.support(&[&set.o, &set.t]),
                )
            };
            match &scope {
                None => compute(),
                Some((h, set_fp)) => {
                    let key = MemoKey::new(MemoKind::CmiTerm, h.dataset_fp, *set_fp, 0, "baseline");
                    *h.store.get_or_build(&key, || (Arc::new(compute()), 24))
                }
            }
        };
        Engine {
            base,
            baseline_cmi,
            baseline_support,
            pool,
            stats_cache: NameCache::new(),
            calibrated_cache: NameCache::new(),
            pair_cache: PairCache::new(),
            column_pairs: PairCache::new(),
        }
    }

    /// The pool shared by every candidate-parallel stage of this engine.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// `I(O;T|C)` — the unexplained correlation the query exposes.
    pub fn baseline_cmi(&self) -> f64 {
        self.baseline_cmi
    }

    /// Number of complete-case `(O,T)` rows in the context.
    pub fn baseline_support(&self) -> usize {
        self.baseline_support
    }

    /// Whether a candidate's complete-case support covers at least
    /// `min_support_fraction` of the in-context rows — the estimator
    /// validity precondition shared by MCIMR and every baseline.
    pub fn eligible(
        &self,
        set: &CandidateSet,
        idx: usize,
        options: &crate::options::NexusOptions,
    ) -> bool {
        let s = self.stats(set, idx);
        if s.support < options.min_support_fraction * self.baseline_support as f64 {
            return false;
        }
        let k_e = s.h_e.1.max(1);
        if s.support < options.min_rows_per_category * k_e as f64 {
            return false;
        }
        // Vacuity guard for extracted candidates over rosters large enough
        // to judge (small rosters — continents, airlines — are exempt; the
        // paper's own explanations there are equally coarse).
        if let CandidateRepr::EntityLevel { column, .. } = &set.candidates[idx].repr {
            let roster = self.base[column].n_entities_ctx;
            if roster >= 16
                && (s.present_entities as f64) < options.min_entities_per_category * k_e as f64
            {
                return false;
            }
        }
        true
    }

    /// Per-candidate stats (cached; recomputed if weights were attached
    /// after a previous call).
    pub fn stats(&self, set: &CandidateSet, idx: usize) -> CandStats {
        let cand = &set.candidates[idx];
        let weighted = cand.is_weighted();
        if let Some(s) = self.stats_cache.get(&cand.name, weighted) {
            return s;
        }
        let s = self.compute_stats(set, cand);
        self.stats_cache.insert(&cand.name, weighted, s);
        s
    }

    fn compute_stats(&self, set: &CandidateSet, cand: &Candidate) -> CandStats {
        match &cand.repr {
            CandidateRepr::EntityLevel {
                column,
                map,
                cardinality,
            } => {
                let cont = &self.base[column];
                let weights = cand.entity_weights.as_deref();
                stats_from_cells(cont, map, *cardinality, weights)
            }
            CandidateRepr::RowLevel(codes) => {
                let joint = JointCounts::count(&[&set.o, &set.t, codes], Some(&set.mask), None);
                let h = joint.entropies_and_cells(&[
                    &[0],
                    &[1],
                    &[2],
                    &[0, 1],
                    &[0, 2],
                    &[1, 2],
                    &[0, 1, 2],
                ]);
                CandStats {
                    h_o: h[0],
                    h_t: h[1],
                    h_e: h[2],
                    h_ot: h[3],
                    h_oe: h[4],
                    h_te: h[5],
                    h_ote: h[6],
                    support: joint.total,
                    present_entities: usize::MAX,
                }
            }
        }
    }

    /// `I(O;T|C,E)` for a single candidate (the MCI criterion `v₁`),
    /// **permutation-calibrated**: the raw estimate is anchored against the
    /// mean CMI of random attributes with the same shape (cardinality,
    /// group sizes, missingness pattern) over the same entities:
    ///
    /// `calibrated = I(O;T|C) − max(0, mean_perm − observed − sd_perm)`
    ///
    /// A pure-noise attribute scores ≈ the baseline (no credit) regardless
    /// of how much it would *vacuously* shrink the plug-in CMI by slicing
    /// the support or near-identifying the exposure; a genuine confounder
    /// is credited exactly its improvement over chance. An attribute that
    /// is a bijection of the exposure (its permutations are all equivalent)
    /// gets no credit, consistent with the paper's logical-dependency rule.
    pub fn cmi_single(&self, set: &CandidateSet, idx: usize) -> f64 {
        let cand = &set.candidates[idx];
        let weighted = cand.is_weighted();
        if let Some(v) = self.calibrated_cache.get(&cand.name, weighted) {
            return v;
        }
        let v = self.compute_calibrated(set, idx);
        self.calibrated_cache.insert(&cand.name, weighted, v);
        v
    }

    /// The raw (uncalibrated, Miller–Madow) `I(O;T|C,E)` for one candidate.
    pub fn cmi_single_raw(&self, set: &CandidateSet, idx: usize) -> f64 {
        self.stats(set, idx).cmi()
    }

    fn compute_calibrated(&self, set: &CandidateSet, idx: usize) -> f64 {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        let cand = &set.candidates[idx];
        let observed = self.stats(set, idx).cmi();
        // Deterministic per-candidate seed.
        let seed = cand.name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

        let samples: Vec<f64> = match &cand.repr {
            CandidateRepr::EntityLevel {
                column,
                map,
                cardinality,
            } => {
                let cont = &self.base[column];
                // Entities that actually carry in-context rows.
                let present: Vec<usize> = (0..map.len())
                    .filter(|&x| cont.x_marginal.get(x).is_some_and(|&w| w > 0.0))
                    .collect();
                if present.len() < 2 {
                    return self.baseline_cmi;
                }
                let weights = cand.entity_weights.as_deref();
                let mut vals: Vec<(u32, f64)> = present
                    .iter()
                    .map(|&x| (map[x], weights.map_or(1.0, |w| w[x])))
                    .collect();
                let mut map_buf = map.to_vec();
                let mut w_buf = vec![1.0f64; map.len()];
                // Only the four entropies `CandStats::cmi` reads, into one
                // scratch reused by every draw.
                let projections = Projection::cmi_terms(cont, *cardinality);
                let mut scratch: [OrderedMarginal; 4] = Default::default();
                let mut samples = Vec::with_capacity(16);
                for _ in 0..16 {
                    vals.shuffle(&mut rng);
                    for (&x, &(v, w)) in present.iter().zip(&vals) {
                        map_buf[x] = v;
                        w_buf[x] = w;
                    }
                    let w = weights.map(|_| w_buf.as_slice());
                    let (support, [h_e, h_oe, h_te, h_ote]) =
                        marginalize_cells(cont, &map_buf, w, &projections, &mut scratch);
                    samples.push(cmi_mm(h_e, h_oe, h_te, h_ote, support));
                }
                samples
            }
            CandidateRepr::RowLevel(codes) => {
                // In-context rows carrying a candidate value, ascending.
                let rows = || (0..codes.len()).filter(|&i| set.mask.get(i) && codes.is_valid(i));
                if rows().nth(1).is_none() {
                    return self.baseline_cmi;
                }
                // A candidate that is (almost) a function of the exposure —
                // e.g. the `Continent` column under a per-country query —
                // must be permuted at the exposure-group level: per-row
                // shuffling would destroy structure a random group-level
                // attribute of the same shape retains.
                let group_level = self.stats(set, idx).h_e_given_t() < 0.05;
                let t = &set.t;
                let t_groups: Vec<u32> = if group_level {
                    let mut t_to_e: Vec<Option<u32>> = vec![None; t.cardinality as usize];
                    for i in rows() {
                        if t.is_valid(i) {
                            t_to_e[t.codes[i] as usize] = Some(codes.codes[i]);
                        }
                    }
                    (0..t.cardinality)
                        .filter(|&g| t_to_e[g as usize].is_some())
                        .collect()
                } else {
                    Vec::new()
                };
                let mut vals: Vec<u32> = if group_level {
                    // One representative value per exposure group.
                    let mut rep = vec![0u32; t.cardinality as usize];
                    for i in rows() {
                        if t.is_valid(i) {
                            rep[t.codes[i] as usize] = codes.codes[i];
                        }
                    }
                    t_groups.iter().map(|&g| rep[g as usize]).collect()
                } else {
                    rows().map(|i| codes.codes[i]).collect()
                };
                // The rows each draw's joint counts are those also valid in
                // O and T. Their O/T codes are gathered once into compact
                // columns, and `counted` marks their slots among `rows` (the
                // slots of `vals`). A draw rewrites only the compact
                // candidate column: the same cells in the same row order
                // as recounting a permuted full column under the mask.
                let in_joint = |i: usize| set.o.is_valid(i) && t.is_valid(i);
                let counted: Bitmap = rows().map(in_joint).collect();
                let m = counted.count_ones();
                let compact = |src: &Codes| {
                    let mut codes = Vec::with_capacity(m);
                    codes.extend(rows().filter(|&i| in_joint(i)).map(|i| src.codes[i]));
                    Codes {
                        codes,
                        cardinality: src.cardinality,
                        validity: None,
                    }
                };
                let (o_rows, t_rows) = (compact(&set.o), compact(t));
                let mut permuted = compact(codes);
                let mut samples = Vec::with_capacity(6);
                for _ in 0..6 {
                    vals.shuffle(&mut rng);
                    if group_level {
                        let mut assign = vec![0u32; t.cardinality as usize];
                        for (&g, &v) in t_groups.iter().zip(&vals) {
                            assign[g as usize] = v;
                        }
                        for (e, &g) in permuted.codes.iter_mut().zip(&t_rows.codes) {
                            *e = assign[g as usize];
                        }
                    } else {
                        for (e, k) in permuted.codes.iter_mut().zip(counted.iter_ones()) {
                            *e = vals[k];
                        }
                    }
                    let joint = JointCounts::count(&[&o_rows, &t_rows, &permuted], None, None);
                    let h = joint.entropies_and_cells(&[&[2], &[0, 2], &[1, 2], &[0, 1, 2]]);
                    samples.push(cmi_mm(h[0], h[1], h[2], h[3], joint.total));
                }
                samples
            }
        };
        let n = samples.len() as f64;
        let mean_perm = samples.iter().sum::<f64>() / n;
        let var = samples
            .iter()
            .map(|s| (s - mean_perm) * (s - mean_perm))
            .sum::<f64>()
            / (n - 1.0).max(1.0);
        // Credit only the deviation beyond one permutation-sd: with hundreds
        // of candidates competing, the winner's curse otherwise hands noisy
        // small-support attributes spurious credit.
        let credit = (mean_perm - observed - var.sqrt()).max(0.0);
        (self.baseline_cmi - credit).max(0.0)
    }

    /// Pairwise `I(Eᵢ;Eⱼ)` (the Min-Redundancy criterion), cached
    /// symmetrically.
    pub fn mi_pair(&self, set: &CandidateSet, a: usize, b: usize) -> f64 {
        let na = set.candidates[a].name.as_str();
        let nb = set.candidates[b].name.as_str();
        let (ka, kb) = if na <= nb { (na, nb) } else { (nb, na) };
        if let Some(v) = self.pair_cache.get(ka, kb) {
            return v;
        }
        let v = self.compute_mi_pair(set, a, b);
        self.pair_cache.insert(ka, kb, v);
        v
    }

    fn compute_mi_pair(&self, set: &CandidateSet, a: usize, b: usize) -> f64 {
        let ca = &set.candidates[a];
        let cb = &set.candidates[b];
        match (&ca.repr, &cb.repr) {
            (
                CandidateRepr::EntityLevel {
                    column: col_a,
                    map: map_a,
                    cardinality: card_a,
                },
                CandidateRepr::EntityLevel {
                    column: col_b,
                    map: map_b,
                    cardinality: card_b,
                },
            ) => {
                // The `(Eᵢ, Eⱼ)` joint keyed `eᵢ·|Eⱼ| + eⱼ`.
                let (card_a, card_b) = ((*card_a).max(1) as u64, (*card_b).max(1) as u64);
                let mut joint = OrderedMarginal::new();
                let mut total = 0.0;
                let mut add = |joint: &mut OrderedMarginal, ea: u32, eb: u32, w: f64| {
                    if ea != MISSING_CODE && eb != MISSING_CODE {
                        joint.add(ea as u64 * card_b + eb as u64, w);
                        total += w;
                    }
                };
                let contributions = if col_a == col_b {
                    // Both are functions of the same entity code.
                    let cont = &self.base[col_a];
                    joint.reset(card_a * card_b, cont.x_marginal.len());
                    for (x, &w) in cont.x_marginal.iter().enumerate() {
                        if w > 0.0 {
                            add(&mut joint, map_a[x], map_b[x], w);
                        }
                    }
                    cont.x_marginal.len()
                } else {
                    let pairs = self.column_pair_counts(set, col_a, col_b);
                    joint.reset(card_a * card_b, pairs.len());
                    for &(xa, xb, w) in pairs.iter() {
                        add(&mut joint, map_a[xa as usize], map_b[xb as usize], w);
                    }
                    pairs.len()
                };
                mi_from_joint(&mut joint, card_a, card_b, total, contributions)
            }
            _ => {
                // At least one row-level candidate: direct row scan.
                let ra = set.row_codes(ca);
                let rb = set.row_codes(cb);
                InfoContext::masked(&set.mask).mutual_information_mm(&ra, &rb)
            }
        }
    }

    /// Joint `(X₁, X₂)` counts across two extraction columns (cached, in
    /// ascending `(x₁, x₂)` order of the canonically ordered pair).
    fn column_pair_counts(&self, set: &CandidateSet, col_a: &str, col_b: &str) -> Arc<PairCells> {
        let (ka, kb) = if col_a <= col_b {
            (col_a, col_b)
        } else {
            (col_b, col_a)
        };
        let swap = col_a > col_b;
        let canonical = self.column_pairs.get(ka, kb);
        let canonical = canonical.unwrap_or_else(|| {
            let xa = &set.column_codes[ka];
            let xb = &set.column_codes[kb];
            let card_b = xb.cardinality.max(1) as u64;
            let mut acc = OrderedMarginal::new();
            acc.reset(xa.cardinality.max(1) as u64 * card_b, xa.len());
            for i in 0..xa.len() {
                if !set.mask.get(i) || !xa.is_valid(i) || !xb.is_valid(i) {
                    continue;
                }
                acc.add(xa.codes[i] as u64 * card_b + xb.codes[i] as u64, 1.0);
            }
            let mut cells = Vec::new();
            acc.drain(|k, w| cells.push(((k / card_b) as u32, (k % card_b) as u32, w)));
            let v: Arc<PairCells> = Arc::new(cells);
            self.column_pairs.insert(ka, kb, v.clone());
            v
        });
        if swap {
            Arc::new(canonical.iter().map(|&(a, b, w)| (b, a, w)).collect())
        } else {
            canonical
        }
    }

    /// `I(O;T|C, E₁,…,Eₖ)` for a conditioning set (row-level; `k` is small).
    /// Permutation-calibrated `I(O;T|C, E₁..Eₖ)` for a conditioning **set**:
    /// the same null as [`Engine::cmi_single`], with every member permuted
    /// jointly (each at its own granularity). Used by set-enumerating
    /// baselines (Brute-Force) so that a bundle of shape-lucky attributes
    /// cannot outscore genuine confounders.
    pub fn cmi_given_calibrated(&self, set: &CandidateSet, indices: &[usize]) -> f64 {
        use rand::SeedableRng;
        const N_PERMS: usize = 6;
        if indices.is_empty() {
            return self.baseline_cmi;
        }
        let observed = self.cmi_given(set, indices);
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for &i in indices {
            for b in set.candidates[i].name.bytes() {
                seed = (seed ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

        // Materialize row codes once; permute at entity level where
        // applicable, else per-row.
        let originals: Vec<Codes> = indices
            .iter()
            .map(|&i| set.row_codes(&set.candidates[i]))
            .collect();
        let mut samples = Vec::with_capacity(N_PERMS);
        for _ in 0..N_PERMS {
            let mut permuted: Vec<Codes> = Vec::with_capacity(indices.len());
            for (&idx, rows) in indices.iter().zip(&originals) {
                permuted.push(self.permute_codes(set, idx, rows, &mut rng));
            }
            let refs: Vec<&Codes> = permuted.iter().collect();
            samples.push(InfoContext::masked(&set.mask).cmi_mm(&set.o, &set.t, &refs));
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n - 1.0);
        let credit = (mean - observed - var.sqrt()).max(0.0);
        (self.baseline_cmi - credit).max(0.0)
    }

    /// One shape-preserving permutation of a candidate's row codes: entity
    /// level when the candidate is entity-backed, exposure-group level when
    /// it is a function of `T`, per-row otherwise.
    fn permute_codes(
        &self,
        set: &CandidateSet,
        idx: usize,
        rows: &Codes,
        rng: &mut rand::rngs::StdRng,
    ) -> Codes {
        use rand::seq::SliceRandom;
        match &set.candidates[idx].repr {
            CandidateRepr::EntityLevel { column, map, .. } => {
                let x = &set.column_codes[column];
                let cont = &self.base[column];
                let present: Vec<usize> = (0..map.len())
                    .filter(|&e| cont.x_marginal.get(e).is_some_and(|&w| w > 0.0))
                    .collect();
                let mut vals: Vec<u32> = present.iter().map(|&e| map[e]).collect();
                vals.shuffle(rng);
                let mut new_map = map.clone();
                for (&e, &v) in present.iter().zip(&vals) {
                    new_map[e] = v;
                }
                // Rebuild row codes through the permuted map.
                let n = x.len();
                let mut codes = vec![0u32; n];
                let mut validity = nexus_table::Bitmap::with_value(n, true);
                for i in 0..n {
                    if !x.is_valid(i) {
                        validity.set(i, false);
                        continue;
                    }
                    let e = new_map[x.codes[i] as usize];
                    if e == MISSING_CODE {
                        validity.set(i, false);
                    } else {
                        codes[i] = e;
                    }
                }
                Codes {
                    codes,
                    cardinality: rows.cardinality,
                    validity: Some(validity),
                }
            }
            CandidateRepr::RowLevel(_) => {
                let usable: Vec<usize> = (0..rows.len())
                    .filter(|&i| set.mask.get(i) && rows.is_valid(i))
                    .collect();
                let mut vals: Vec<u32> = usable.iter().map(|&i| rows.codes[i]).collect();
                vals.shuffle(rng);
                let mut permuted = rows.clone();
                for (&i, &v) in usable.iter().zip(&vals) {
                    permuted.codes[i] = v;
                }
                permuted
            }
        }
    }

    /// Raw (Miller–Madow) `I(O;T|C, E₁..Eₖ)` for a conditioning set.
    pub fn cmi_given(&self, set: &CandidateSet, indices: &[usize]) -> f64 {
        if indices.is_empty() {
            return self.baseline_cmi;
        }
        let rows: Vec<Codes> = indices
            .iter()
            .map(|&i| set.row_codes(&set.candidates[i]))
            .collect();
        let refs: Vec<&Codes> = rows.iter().collect();
        InfoContext::masked(&set.mask).cmi_mm(&set.o, &set.t, &refs)
    }

    /// Selection-bias diagnostics for an entity-level candidate:
    /// `(I(R_E;O|C), I(R_E;T|C), missing fraction over linked in-context
    /// rows)`. Returns `None` for row-level candidates.
    pub fn bias_mi(&self, set: &CandidateSet, idx: usize) -> Option<(f64, f64, f64)> {
        let cand = &set.candidates[idx];
        let CandidateRepr::EntityLevel { column, map, .. } = &cand.repr else {
            return None;
        };
        let cont = &self.base[column];
        // Joint (o, r) and (t, r) from the cells, keyed `a·2 + r` (ordered
        // accumulators: the counts feed f64 entropy sums that must
        // reproduce bit-for-bit).
        let n = cont.cells.len();
        let (card_o, card_t) = (cont.card_o as u64, cont.card_t as u64);
        let mut m_or = OrderedMarginal::new();
        let mut m_tr = OrderedMarginal::new();
        m_or.reset(card_o * 2, n);
        m_tr.reset(card_t * 2, n);
        let mut missing = 0.0;
        for &(o, t, x, w) in &cont.cells {
            let r = (map[x as usize] != MISSING_CODE) as u64;
            if r == 0 {
                missing += w;
            }
            m_or.add(o as u64 * 2 + r, w);
            m_tr.add(t as u64 * 2 + r, w);
        }
        let total = cont.total;
        if total <= 0.0 {
            return Some((0.0, 0.0, 0.0));
        }
        // I(A;R) = H(A)+H(R)-H(A,R)
        let mi = |m_ar: &mut OrderedMarginal, card_a: u64| {
            let mut m_a = OrderedMarginal::new();
            m_a.reset(card_a, n);
            let mut m_r = [0.0f64; 2];
            let (h_ar, _) = m_ar.drain_entropy_with(total, |k, w| {
                m_a.add(k >> 1, w);
                m_r[(k & 1) as usize] += w;
            });
            let (h_a, _) = m_a.drain_entropy(total);
            let h_r = entropy_from_counts(m_r.iter().copied(), total);
            (h_a + h_r - h_ar).max(0.0)
        };
        Some((
            mi(&mut m_or, card_o),
            mi(&mut m_tr, card_t),
            missing / total,
        ))
    }

    /// Per-x total weights for an extraction column (used for entity-level
    /// IPW fitting).
    pub fn x_marginal(&self, column: &str) -> Option<&[f64]> {
        self.base.get(column).map(|c| c.x_marginal.as_slice())
    }
}

/// `I(O;T|E)` from its four `(H, cells)` terms, Miller–Madow corrected
/// over `support` (the formula of [`CandStats::cmi`]).
fn cmi_mm(
    h_e: (f64, usize),
    h_oe: (f64, usize),
    h_te: (f64, usize),
    h_ote: (f64, usize),
    support: f64,
) -> f64 {
    let mm = |h: (f64, usize)| entropy_mm(h.0, h.1, support);
    (mm(h_oe) + mm(h_te) - mm(h_ote) - mm(h_e)).max(0.0)
}

/// One marginal of the `(O, T, E)` table an entity-level candidate
/// induces: cell `(o, t, e)` lands on key `o·so + t·st + e·se`, a
/// mixed-radix key over the kept variables with `O` most significant and
/// `E` least, so keys ascend in `(o, t, e)` order.
#[derive(Debug, Clone, Copy)]
struct Projection {
    so: u64,
    st: u64,
    se: u64,
    space: u64,
}

impl Projection {
    /// The seven [`CandStats`] projections in field order: `O`, `T`, `E`,
    /// `OT`, `OE`, `TE`, `OTE`.
    fn all(cont: &Contingency, card_e: u32) -> [Projection; 7] {
        // Each cardinality fits u32, so only the three-way product can
        // overflow u64.
        let (o, t, e) = (
            cont.card_o.max(1) as u64,
            cont.card_t.max(1) as u64,
            card_e.max(1) as u64,
        );
        let ote = o.checked_mul(t * e).expect("(O,T,E) key space exceeds u64");
        let p = |so, st, se, space| Projection { so, st, se, space };
        [
            p(1, 0, 0, o),
            p(0, 1, 0, t),
            p(0, 0, 1, e),
            p(t, 1, 0, o * t),
            p(e, 0, 1, o * e),
            p(0, e, 1, t * e),
            p(t * e, e, 1, ote),
        ]
    }

    /// The four terms [`CandStats::cmi`] reads: `E`, `OE`, `TE`, `OTE`.
    fn cmi_terms(cont: &Contingency, card_e: u32) -> [Projection; 4] {
        let [_, _, e, _, oe, te, ote] = Self::all(cont, card_e);
        [e, oe, te, ote]
    }

    #[inline]
    fn key(&self, o: u64, t: u64, e: u64) -> u64 {
        o * self.so + t * self.st + e * self.se
    }
}

/// Marginalizes an entity-level candidate's `(O, T, E)` table, read off
/// its column's contingency cells (with per-entity IPW weights when
/// present), onto each projection in one pass over the cells. Returns
/// the support and each projection's `(H, cells)`.
///
/// Every marginal cell sums its contributions in cell order and drains in
/// ascending key order, which is what the ordered maps this replaces
/// did, so the entropies are bit-identical to theirs.
fn marginalize_cells<const N: usize>(
    cont: &Contingency,
    map: &[u32],
    weights: Option<&[f64]>,
    projections: &[Projection; N],
    scratch: &mut [OrderedMarginal; N],
) -> (f64, [(f64, usize); N]) {
    for (m, p) in scratch.iter_mut().zip(projections) {
        m.reset(p.space, cont.cells.len());
    }
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
        for (m, p) in scratch.iter_mut().zip(projections) {
            m.add(p.key(o, t, e), w);
        }
    }
    (
        total,
        std::array::from_fn(|i| scratch[i].drain_entropy(total)),
    )
}

/// Builds [`CandStats`] for an entity-level candidate from the column's
/// contingency cells, applying per-entity IPW weights when present.
fn stats_from_cells(
    cont: &Contingency,
    map: &[u32],
    card_e: u32,
    weights: Option<&[f64]>,
) -> CandStats {
    let mut scratch: [OrderedMarginal; 7] = Default::default();
    let (support, [h_o, h_t, h_e, h_ot, h_oe, h_te, h_ote]) = marginalize_cells(
        cont,
        map,
        weights,
        &Projection::all(cont, card_e),
        &mut scratch,
    );
    let present_entities = (0..map.len())
        .filter(|&x| map[x] != MISSING_CODE && cont.x_marginal.get(x).is_some_and(|&w| w > 0.0))
        .count();
    CandStats {
        h_o,
        h_t,
        h_e,
        h_ot,
        h_oe,
        h_te,
        h_ote,
        support,
        present_entities,
    }
}

/// `I(A;B)` (Miller–Madow corrected) from the `(A, B)` joint keyed
/// `a·|B| + b`, which had `contributions` adds. The joint drains in
/// ascending `(a, b)` order and feeds both marginals as it goes.
fn mi_from_joint(
    joint: &mut OrderedMarginal,
    card_a: u64,
    card_b: u64,
    total: f64,
    contributions: usize,
) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    let mut m_a = OrderedMarginal::new();
    let mut m_b = OrderedMarginal::new();
    m_a.reset(card_a, contributions);
    m_b.reset(card_b, contributions);
    let (h, k) = joint.drain_entropy_with(total, |key, w| {
        m_a.add(key / card_b, w);
        m_b.add(key % card_b, w);
    });
    let h_ab = entropy_mm(h, k, total);
    let (h, k) = m_a.drain_entropy(total);
    let h_a = entropy_mm(h, k, total);
    let (h, k) = m_b.drain_entropy(total);
    let h_b = entropy_mm(h, k, total);
    (h_a + h_b - h_ab).max(0.0)
}

#[cfg(test)]
mod marginal_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::build_candidates;
    use crate::options::NexusOptions;
    use nexus_kg::KnowledgeGraph;
    use nexus_query::parse;
    use nexus_table::{Column, Table};

    /// 3 countries; salary driven entirely by country hdi; one sparse attr;
    /// one irrelevant attr.
    fn toy() -> (Table, KnowledgeGraph, Vec<String>) {
        let mut countries = Vec::new();
        let mut salaries = Vec::new();
        let mut genders = Vec::new();
        for (c, base) in [("A", 90.0), ("B", 50.0), ("C", 70.0)] {
            for i in 0..40 {
                countries.push(c);
                salaries.push(base + (i % 5) as f64); // small within-country noise
                genders.push(if i % 3 == 0 { "f" } else { "m" });
            }
        }
        let table = Table::new(vec![
            ("Country", Column::from_strs(&countries)),
            ("Gender", Column::from_strs(&genders)),
            ("Salary", Column::from_f64(salaries)),
        ])
        .unwrap();
        let mut kg = KnowledgeGraph::new();
        for (name, hdi, noise) in [("A", 0.9, 3.0), ("B", 0.5, 1.0), ("C", 0.7, 3.0)] {
            let id = kg.add_entity(name, "Country");
            kg.set_literal(id, "hdi", hdi);
            kg.set_literal(id, "noise", noise); // A and C share a value: not injective
            if name != "B" {
                kg.set_literal(id, "sparse", hdi * 2.0);
            }
        }
        (table, kg, vec!["Country".to_string()])
    }

    pub(super) fn setup() -> (CandidateSet, Engine) {
        let (table, kg, cols) = toy();
        let q = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
        let set = build_candidates(&table, &kg, &cols, &q, &NexusOptions::default()).unwrap();
        let engine = Engine::with_parallelism_memo(&set, Parallelism::Serial, None);
        (set, engine)
    }

    #[test]
    fn baseline_cmi_positive() {
        let (_, engine) = setup();
        assert!(
            engine.baseline_cmi() > 0.5,
            "baseline {}",
            engine.baseline_cmi()
        );
        assert_eq!(engine.baseline_support(), 120);
    }

    #[test]
    fn hdi_explains_away_country() {
        let (set, engine) = setup();
        let hdi = set.index_of("Country::hdi").unwrap();
        let raw = engine.cmi_single_raw(&set, hdi);
        // hdi is injective over countries -> conditioning on it zeroes the
        // raw CMI…
        assert!(raw < 0.05, "raw cmi {raw}");
        // …and the fast path agrees with the generic row-level path.
        let generic = engine.cmi_given(&set, &[hdi]);
        assert!((raw - generic).abs() < 1e-9, "fast {raw} generic {generic}");
        // …but a bijection of the exposure earns no *calibrated* credit:
        // permuting an injective map changes nothing, so the score stays at
        // the baseline.
        let calibrated = engine.cmi_single(&set, hdi);
        assert!(
            (calibrated - engine.baseline_cmi()).abs() < 0.05,
            "calibrated {calibrated} baseline {}",
            engine.baseline_cmi()
        );
    }

    #[test]
    fn fast_and_slow_paths_agree_on_all_stats() {
        let (set, engine) = setup();
        for idx in 0..set.candidates.len() {
            let cand = &set.candidates[idx];
            if !matches!(cand.repr, CandidateRepr::EntityLevel { .. }) {
                continue;
            }
            let fast = engine.stats(&set, idx);
            // Recompute via the row-level path.
            let rows = set.row_codes(cand);
            let joint = JointCounts::count(&[&set.o, &set.t, &rows], Some(&set.mask), None);
            let slow_cmi = (joint.marginal_entropy(&[0, 2]) + joint.marginal_entropy(&[1, 2])
                - joint.entropy()
                - joint.marginal_entropy(&[2]))
            .max(0.0);
            assert!(
                (fast.cmi_plugin() - slow_cmi).abs() < 1e-9,
                "{}: fast {} slow {}",
                cand.name,
                fast.cmi_plugin(),
                slow_cmi
            );
        }
    }

    #[test]
    fn relevance_separates_signal_from_noise() {
        let (set, engine) = setup();
        let hdi = engine.stats(&set, set.index_of("Country::hdi").unwrap());
        // Gender is independent of salary here.
        let gender = engine.stats(&set, set.index_of("Gender").unwrap());
        assert!(hdi.relevance() > 0.5);
        assert!(gender.relevance() < 0.1);
    }

    #[test]
    fn fd_residuals_detect_injectivity() {
        let (set, engine) = setup();
        let hdi = engine.stats(&set, set.index_of("Country::hdi").unwrap());
        // hdi <-> country is a bijection: both residuals ~0.
        assert!(hdi.h_t_given_e() < 0.01);
        assert!(hdi.h_e_given_t() < 0.01);
        // "noise" maps two countries to one value: T not recoverable from E.
        let noise = engine.stats(&set, set.index_of("Country::noise").unwrap());
        assert!(noise.h_t_given_e() > 0.3, "{}", noise.h_t_given_e());
        assert!(noise.h_e_given_t() < 0.01);
    }

    #[test]
    fn mi_pair_same_column_redundancy() {
        let (set, engine) = setup();
        let hdi = set.index_of("Country::hdi").unwrap();
        let sparse = set.index_of("Country::sparse").unwrap();
        let noise = set.index_of("Country::noise").unwrap();
        // sparse = 2*hdi on its support: maximal redundancy.
        let mi_hs = engine.mi_pair(&set, hdi, sparse);
        assert!(mi_hs > 0.9, "mi {mi_hs}");
        // hdi vs noise share less information (noise merges A and C).
        let mi_hn = engine.mi_pair(&set, hdi, noise);
        assert!(mi_hn < mi_hs);
        // Symmetric and cached.
        assert_eq!(engine.mi_pair(&set, sparse, hdi), mi_hs);
    }

    #[test]
    fn mi_pair_mixed_row_and_entity_level() {
        let (set, engine) = setup();
        let hdi = set.index_of("Country::hdi").unwrap();
        let gender = set.index_of("Gender").unwrap();
        let mi = engine.mi_pair(&set, hdi, gender);
        assert!(mi < 0.05, "gender and hdi should be ~independent: {mi}");
    }

    #[test]
    fn cmi_given_multiple() {
        let (set, engine) = setup();
        let gender = set.index_of("Gender").unwrap();
        let hdi = set.index_of("Country::hdi").unwrap();
        let with_gender = engine.cmi_given(&set, &[gender]);
        // Gender doesn't explain anything.
        assert!((with_gender - engine.baseline_cmi()).abs() < 0.2);
        let both = engine.cmi_given(&set, &[gender, hdi]);
        assert!(both < 0.05);
    }

    #[test]
    fn bias_mi_reports_missingness() {
        let (set, engine) = setup();
        let sparse = set.index_of("Country::sparse").unwrap();
        let (mi_o, _mi_t, missing) = engine.bias_mi(&set, sparse).unwrap();
        // B (a third of rows) is missing -> fraction ≈ 1/3, and missingness
        // is associated with the (country-driven) outcome.
        assert!((missing - 1.0 / 3.0).abs() < 0.05, "missing {missing}");
        assert!(mi_o > 0.1, "mi_o {mi_o}");
        // Row-level candidates have no entity-level bias diagnostics.
        let gender = set.index_of("Gender").unwrap();
        assert!(engine.bias_mi(&set, gender).is_none());
    }

    #[test]
    fn weighted_fast_path_matches_row_level() {
        // Entity-level IPW weights expanded to rows must give the same
        // plug-in entropies as the row-level weighted estimator.
        let (mut set, engine) = setup();
        let hdi = set.index_of("Country::hdi").unwrap();
        let card = set.column_codes["Country"].cardinality as usize;
        let w: Vec<f64> = (0..card).map(|i| 1.0 + i as f64).collect();
        set.candidates[hdi].entity_weights = Some(w);
        let fast = engine.stats(&set, hdi);

        let rows = set.row_codes(&set.candidates[hdi]);
        let row_weights = set.row_weights(&set.candidates[hdi]).expect("weighted");
        let joint = JointCounts::count(
            &[&set.o, &set.t, &rows],
            Some(&set.mask),
            Some(&row_weights),
        );
        let slow_cmi = (joint.marginal_entropy(&[0, 2]) + joint.marginal_entropy(&[1, 2])
            - joint.entropy()
            - joint.marginal_entropy(&[2]))
        .max(0.0);
        assert!(
            (fast.cmi_plugin() - slow_cmi).abs() < 1e-9,
            "fast {} slow {}",
            fast.cmi_plugin(),
            slow_cmi
        );
        assert!((fast.support - joint.total).abs() < 1e-9);
    }

    #[test]
    fn calibrated_never_exceeds_baseline_materially() {
        let (set, engine) = setup();
        for i in 0..set.candidates.len() {
            let c = engine.cmi_single(&set, i);
            assert!(
                c <= engine.baseline_cmi() + 1e-9,
                "{}: {c} > baseline",
                set.candidates[i].name
            );
        }
    }

    #[test]
    fn memoized_engine_is_bit_identical_and_hits() {
        use crate::memo::{MemoHandle, MemoStore};
        let (table, kg, cols) = toy();
        let q = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
        let set = build_candidates(&table, &kg, &cols, &q, &NexusOptions::default()).unwrap();
        let plain = Engine::with_parallelism_memo(&set, Parallelism::Serial, None);

        let store = Arc::new(MemoStore::new(0));
        let handle = MemoHandle::new(store.clone(), table.fingerprint());
        let before = kernel::counters().snapshot();
        let _cold = Engine::with_parallelism_memo(&set, Parallelism::Serial, Some(&handle));
        let mid = kernel::counters().snapshot();
        let warm = Engine::with_parallelism_memo(&set, Parallelism::Serial, Some(&handle));
        let after = kernel::counters().snapshot();

        // Warm memoized results are bit-identical to the memo-less engine.
        assert_eq!(
            warm.baseline_cmi().to_bits(),
            plain.baseline_cmi().to_bits()
        );
        assert_eq!(warm.baseline_support(), plain.baseline_support());
        for idx in 0..set.candidates.len() {
            let a = plain.stats(&set, idx);
            let b = warm.stats(&set, idx);
            assert_eq!(
                a.cmi().to_bits(),
                b.cmi().to_bits(),
                "{}",
                set.candidates[idx].name
            );
        }
        // The cold build published; the warm build hit every kind it asked
        // for. Counters are process-global, so these are lower bounds.
        let d_cold = mid.delta(&before);
        assert!(d_cold.memo_inserts[MemoKind::Contingency as usize] >= 1);
        assert!(d_cold.memo_inserts[MemoKind::Selection as usize] >= 1);
        assert!(d_cold.memo_inserts[MemoKind::CmiTerm as usize] >= 1);
        let d_warm = after.delta(&mid);
        assert!(d_warm.memo_hits[MemoKind::Contingency as usize] >= 1);
        assert!(d_warm.memo_hits[MemoKind::Selection as usize] >= 1);
        assert!(d_warm.memo_hits[MemoKind::CmiTerm as usize] >= 1);
        // The warm engine shares the memoized tables by pointer.
        assert!(store.resident_entries() >= 3);
    }

    /// The contingency counting oracle: one ordered-map entry per
    /// complete-case `(mask, O, T, X)` row in ascending row order, keyed
    /// `(x, t, o)` — the kernel's cell order.
    fn oracle_cells(set: &CandidateSet, x: &Codes) -> Vec<(u32, u32, u32, u64)> {
        use std::collections::BTreeMap;
        let (o, t) = (&set.o, &set.t);
        let mut map: BTreeMap<(u32, u32, u32), f64> = BTreeMap::new();
        for i in 0..x.len() {
            if set.mask.get(i) && o.is_valid(i) && t.is_valid(i) && x.is_valid(i) {
                let key = (x.codes[i], t.codes[i], o.codes[i]);
                *map.entry(key).or_insert(0.0) += 1.0;
            }
        }
        map.into_iter()
            .map(|((x, t, o), w)| (o, t, x, w.to_bits()))
            .collect()
    }

    /// A candidate-less set over random `(O, T, X)` codes below `span`,
    /// with nulls and a WHERE mask (the kernel-equivalence fixture shape)
    /// and the given cardinalities.
    fn counting_set(n: usize, seed: u64, cards: [u32; 3], span: u32) -> CandidateSet {
        let mut rng = nexus_runtime::SplitMix64::new(seed);
        let mut codes = |card: u32, null_every: u64| Codes {
            codes: (0..n)
                .map(|_| rng.next_below(card.min(span) as u64) as u32)
                .collect(),
            cardinality: card,
            validity: Some((0..n).map(|_| rng.next_below(null_every) != 0).collect()),
        };
        let (o, t, x) = (
            codes(cards[0], 17),
            codes(cards[1], 23),
            codes(cards[2], 11),
        );
        let mask = (0..n).map(|_| rng.next_below(4) != 0).collect();
        CandidateSet {
            candidates: Vec::new(),
            column_codes: HashMap::from([("X".to_string(), x)]),
            o,
            t,
            mask,
            link_stats: HashMap::new(),
        }
    }

    /// Builds the `X` contingency the way the engine does, at every pool
    /// width, and checks each bit for bit against the oracle.
    fn assert_cells_match_oracle(set: &CandidateSet, what: &str) {
        let x = &set.column_codes["X"];
        let want = oracle_cells(set, x);
        let fused = FusedSelection::build(set);
        for threads in [1, 3, 8] {
            let pool = ThreadPool::new(Parallelism::Fixed(threads));
            let cont = Contingency::build(set, "X", fused.as_ref(), Some(&pool));
            let got: Vec<_> = cont
                .cells
                .iter()
                .map(|&(o, t, x, w)| (o, t, x, w.to_bits()))
                .collect();
            assert_eq!(got, want, "{what} @ {threads} thread(s)");
            let total = want.iter().fold(0.0, |s, c| s + f64::from_bits(c.3));
            assert_eq!(cont.total.to_bits(), total.to_bits(), "{what}: total");
        }
    }

    #[test]
    fn contingency_cells_match_counting_oracle() {
        // Small and span-parallel (> 2^16 selected rows) selections.
        assert_cells_match_oracle(&counting_set(3_000, 1, [6, 5, 40], u32::MAX), "3k rows");
        assert_cells_match_oracle(&counting_set(120_000, 2, [6, 5, 40], u32::MAX), "120k rows");
        // `|T|·|O|` on and one step past the u8 and u16 boundaries: the
        // fused column at every width the kernel materializes.
        for (card_o, card_t) in [
            (5, 51),
            (4, 64),
            (4, 65),
            (5, 13_107),
            (16, 4_096),
            (17, 4_096),
        ] {
            let set = counting_set(
                2_500,
                (card_o * card_t) as u64,
                [card_o, card_t, 40],
                u32::MAX,
            );
            assert_cells_match_oracle(&set, &format!("|TO| = {}", card_o * card_t));
        }
        // Long runs of equal keys (region-blocked rows), which the scan
        // coalesces into one add each, within and across word spans.
        let mut set = counting_set(120_000, 5, [6, 5, 40], u32::MAX);
        let x = set.column_codes.get_mut("X").unwrap();
        for (c, block) in [(&mut set.o, 700), (&mut set.t, 300), (x, 1_100)] {
            let card = c.cardinality as usize;
            c.codes = (0..120_000).map(|i| (i / block % card) as u32).collect();
        }
        assert_cells_match_oracle(&set, "blocked runs");
        // Full selection (no mask, no nulls) and an empty context.
        let mut set = counting_set(80_000, 3, [4, 64, 40], u32::MAX);
        set.mask = Bitmap::with_value(80_000, true);
        for c in [&mut set.o, &mut set.t] {
            c.validity = None;
        }
        set.column_codes.get_mut("X").unwrap().validity = None;
        assert_cells_match_oracle(&set, "full selection");
        set.mask = Bitmap::with_value(80_000, false);
        assert_cells_match_oracle(&set, "empty context");
    }

    #[test]
    fn wide_key_shapes_match_counting_oracle() {
        // `|O|·|T|` beyond u32 with the `(O, T, X)` key still inside u64,
        // then a key space beyond u64: both count through `JointCounts`.
        // Codes stay small; only the declared cardinalities are wide.
        for (cards, what) in [
            ([70_000, 70_000, 40], "|TO| > u32"),
            ([1 << 31, 1 << 31, 40], "|XTO| > u64"),
        ] {
            let set = counting_set(5_000, 4, cards, 60);
            assert!(FusedSelection::build(&set).is_none(), "{what}");
            assert_cells_match_oracle(&set, what);
        }
    }

    #[test]
    fn weighted_stats_change() {
        let (mut set, engine) = setup();
        let sparse = set.index_of("Country::sparse").unwrap();
        let unweighted = engine.stats(&set, sparse);
        // Upweight entity A heavily.
        let card = set.column_codes["Country"].cardinality as usize;
        let mut w = vec![1.0; card];
        w[0] = 5.0;
        set.candidates[sparse].entity_weights = Some(w);
        let weighted = engine.stats(&set, sparse);
        assert!(weighted.support > unweighted.support);
        assert_ne!(weighted.h_e, unweighted.h_e);
    }
}
