//! Counting-kernel instrumentation and dispatch mode.
//!
//! Every score NEXUS produces reduces to building weighted contingency /
//! joint-count tables, so the per-row *accumulator operations* of those
//! builds — not wall-clock, which varies with the machine — are the
//! system's portable cost model. This module holds:
//!
//! * [`KernelCounters`] — process-global atomic counters bumped (in batch,
//!   once per build or chunk, never per row) by the counting kernels in
//!   this crate and by the engine's contingency builds in `nexus-core`;
//! * [`KernelSnapshot`] — a copyable snapshot with [`delta`] arithmetic so
//!   callers can attribute counter movement to one pipeline run;
//! * [`ScanWidth`] — the key width a build's scan loop ran at.
//!
//! Counters are monotone and `Relaxed`: they are diagnostics, never inputs
//! to any estimate, so they cannot perturb NEXUS's bit-identical-output
//! guarantee.
//!
//! # Kernel v2 counters
//!
//! The v2 scan loop adds four cost dimensions next to the v1 row/op
//! counts:
//!
//! * [`narrow_scans`] — builds whose inner loop ran at a narrow (8- or
//!   16-bit) code/key width, the precondition for cache-resident,
//!   auto-vectorizable scans;
//! * [`packed_words_skipped`] — all-zero 64-bit selection words the packed
//!   mask scan skipped without touching any row (zone-style early-out);
//! * [`radix_merge_cells`] / [`full_merge_cells`] — cells actually written
//!   by radix-partitioned sub-histogram merges vs the cells the v1
//!   full-keyspace merge discipline would have written for the same
//!   builds (`keyspace × merge events`). Their ratio is the merge-cost
//!   reduction, independent of wall-clock;
//! * `builds_w8 … builds_w128` — per-width build counts, recorded once
//!   per build via [`KernelCounters::record_scan_width`].
//!
//! # Memo counters
//!
//! The sub-query memo store (`nexus-core::memo`) records its traffic here
//! too, per cached-value kind ([`MemoKind`]): hits, misses, inserts, and
//! evictions, plus the number of times a request blocked on another
//! request's in-flight build instead of duplicating it
//! (`memo_coalesced_waits`). Like the kernel counters they are portable
//! cost evidence: a warm memoized run proves itself with `hits > 0` and
//! fewer pool tasks, never with wall-clock.
//!
//! [`delta`]: KernelSnapshot::delta
//! [`narrow_scans`]: KernelSnapshot::narrow_scans
//! [`packed_words_skipped`]: KernelSnapshot::packed_words_skipped
//! [`radix_merge_cells`]: KernelSnapshot::radix_merge_cells
//! [`full_merge_cells`]: KernelSnapshot::full_merge_cells

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of distinct [`MemoKind`] values (array dimension of the per-kind
/// memo counters).
pub const MEMO_KINDS: usize = 4;

/// What kind of sub-query value a memo entry caches. Doubles as the index
/// into the per-kind counter arrays of [`KernelCounters`] /
/// [`KernelSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum MemoKind {
    /// A per-column joint-count contingency table.
    Contingency = 0,
    /// A per-set complete-case selection (fused mask + codes).
    Selection = 1,
    /// A marginal entropy / conditional-mutual-information term.
    CmiTerm = 2,
    /// A KG extraction column (row→entity codes + candidates).
    Extraction = 3,
}

impl MemoKind {
    /// All kinds, in counter-array index order.
    pub const ALL: [MemoKind; MEMO_KINDS] = [
        MemoKind::Contingency,
        MemoKind::Selection,
        MemoKind::CmiTerm,
        MemoKind::Extraction,
    ];

    /// A stable lowercase label (used in dotted metric names).
    pub fn label(self) -> &'static str {
        match self {
            MemoKind::Contingency => "contingency",
            MemoKind::Selection => "selection",
            MemoKind::CmiTerm => "cmi_term",
            MemoKind::Extraction => "extraction",
        }
    }
}

/// The element width a counting build's inner loop ran at: the width of
/// the fused (T,O)/candidate code column (engine builds) or of the packed
/// mixed-radix key (joint-count builds).
///
/// Chosen once per build from the *checked* key-space cardinality, never
/// per row, so the scan loop itself is monomorphic and branch-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanWidth {
    /// Key space fits in 8 bits (≤ 256 cells / codes).
    W8,
    /// Key space fits in 16 bits (≤ 65 536).
    W16,
    /// Key space fits in 32 bits.
    W32,
    /// Key space fits in 64 bits.
    W64,
    /// Anything wider (`u128` keys).
    W128,
}

impl ScanWidth {
    /// The narrowest width whose key range covers `space` cells
    /// (keys run `0..space`).
    pub fn for_space(space: u128) -> ScanWidth {
        if space <= 1 << 8 {
            ScanWidth::W8
        } else if space <= 1 << 16 {
            ScanWidth::W16
        } else if space <= 1 << 32 {
            ScanWidth::W32
        } else if space <= u64::MAX as u128 + 1 {
            ScanWidth::W64
        } else {
            ScanWidth::W128
        }
    }

    /// Whether this width counts as a narrow scan (8/16-bit codes, the
    /// cache-resident fast class).
    pub fn is_narrow(self) -> bool {
        matches!(self, ScanWidth::W8 | ScanWidth::W16)
    }
}

/// Process-global counters for every counting-kernel invocation.
///
/// All counters are cumulative over the process lifetime; use
/// [`KernelCounters::snapshot`] + [`KernelSnapshot::delta`] to scope them
/// to one region.
#[derive(Debug, Default)]
pub struct KernelCounters {
    rows_scanned: AtomicU64,
    hash_ops: AtomicU64,
    dense_ops: AtomicU64,
    dense_builds: AtomicU64,
    sparse_builds: AtomicU64,
    narrow_scans: AtomicU64,
    packed_words_skipped: AtomicU64,
    radix_merge_cells: AtomicU64,
    full_merge_cells: AtomicU64,
    builds_w8: AtomicU64,
    builds_w16: AtomicU64,
    builds_w32: AtomicU64,
    builds_w64: AtomicU64,
    builds_w128: AtomicU64,
    memo_hits: [AtomicU64; MEMO_KINDS],
    memo_misses: [AtomicU64; MEMO_KINDS],
    memo_inserts: [AtomicU64; MEMO_KINDS],
    memo_evictions: [AtomicU64; MEMO_KINDS],
    memo_coalesced_waits: AtomicU64,
}

/// A four-slot array of zeroed atomics (const-initializable; used only to
/// build the static below, never shared between fields).
#[allow(clippy::declare_interior_mutable_const)]
const MEMO_ZEROS: [AtomicU64; MEMO_KINDS] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// The global counter instance.
static COUNTERS: KernelCounters = KernelCounters {
    rows_scanned: AtomicU64::new(0),
    hash_ops: AtomicU64::new(0),
    dense_ops: AtomicU64::new(0),
    dense_builds: AtomicU64::new(0),
    sparse_builds: AtomicU64::new(0),
    narrow_scans: AtomicU64::new(0),
    packed_words_skipped: AtomicU64::new(0),
    radix_merge_cells: AtomicU64::new(0),
    full_merge_cells: AtomicU64::new(0),
    builds_w8: AtomicU64::new(0),
    builds_w16: AtomicU64::new(0),
    builds_w32: AtomicU64::new(0),
    builds_w64: AtomicU64::new(0),
    builds_w128: AtomicU64::new(0),
    memo_hits: MEMO_ZEROS,
    memo_misses: MEMO_ZEROS,
    memo_inserts: MEMO_ZEROS,
    memo_evictions: MEMO_ZEROS,
    memo_coalesced_waits: AtomicU64::new(0),
};

/// The process-global [`KernelCounters`].
pub fn counters() -> &'static KernelCounters {
    &COUNTERS
}

impl KernelCounters {
    /// Records one finished counting build: `rows` row visits, `hash_ops`
    /// hash-map entry operations, `dense_ops` flat-array increments, and
    /// whether the build used a dense accumulator.
    ///
    /// Under run-coalescing, `dense_ops`/`hash_ops` count *accumulator
    /// writes* (one per coalesced run), so they may be lower than `rows`.
    pub fn record_build(&self, rows: u64, hash_ops: u64, dense_ops: u64, dense: bool) {
        self.rows_scanned.fetch_add(rows, Ordering::Relaxed);
        self.hash_ops.fetch_add(hash_ops, Ordering::Relaxed);
        self.dense_ops.fetch_add(dense_ops, Ordering::Relaxed);
        if dense {
            self.dense_builds.fetch_add(1, Ordering::Relaxed);
        } else {
            self.sparse_builds.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records `rows` row visits made outside a joint-count build: the
    /// permutation test recounts its complete-case rows stratum by
    /// stratum (batched once per test).
    pub fn record_rows(&self, rows: u64) {
        self.rows_scanned.fetch_add(rows, Ordering::Relaxed);
    }

    /// Records the scan width one build ran at (once per build). Narrow
    /// widths (8/16-bit) also bump `narrow_scans`.
    pub fn record_scan_width(&self, width: ScanWidth) {
        let bucket = match width {
            ScanWidth::W8 => &self.builds_w8,
            ScanWidth::W16 => &self.builds_w16,
            ScanWidth::W32 => &self.builds_w32,
            ScanWidth::W64 => &self.builds_w64,
            ScanWidth::W128 => &self.builds_w128,
        };
        bucket.fetch_add(1, Ordering::Relaxed);
        if width.is_narrow() {
            self.narrow_scans.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records `words` all-zero 64-bit selection words skipped by a packed
    /// mask scan (batched per build or chunk).
    pub fn record_packed_words_skipped(&self, words: u64) {
        self.packed_words_skipped
            .fetch_add(words, Ordering::Relaxed);
    }

    /// Records one histogram merge event: `radix_cells` cells actually
    /// written by the radix-partitioned merge vs `full_cells` the v1
    /// full-keyspace merge would have written (keyspace size).
    pub fn record_merge(&self, radix_cells: u64, full_cells: u64) {
        self.radix_merge_cells
            .fetch_add(radix_cells, Ordering::Relaxed);
        self.full_merge_cells
            .fetch_add(full_cells, Ordering::Relaxed);
    }

    /// Records one memo-store lookup that found a published entry.
    pub fn record_memo_hit(&self, kind: MemoKind) {
        self.memo_hits[kind as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one memo-store lookup that found nothing (the caller
    /// becomes the builder or a coalesced waiter).
    pub fn record_memo_miss(&self, kind: MemoKind) {
        self.memo_misses[kind as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one value published into the memo store.
    pub fn record_memo_insert(&self, kind: MemoKind) {
        self.memo_inserts[kind as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` entries of `kind` evicted by budget enforcement.
    pub fn record_memo_evictions(&self, kind: MemoKind, n: u64) {
        self.memo_evictions[kind as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Records one request blocking on another request's in-flight build
    /// instead of duplicating it.
    pub fn record_memo_coalesced_wait(&self) {
        self.memo_coalesced_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough copy of the counters (each counter is read
    /// atomically; the set is not a transaction, which is fine for
    /// monotone diagnostics).
    pub fn snapshot(&self) -> KernelSnapshot {
        KernelSnapshot {
            rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
            hash_ops: self.hash_ops.load(Ordering::Relaxed),
            dense_ops: self.dense_ops.load(Ordering::Relaxed),
            dense_builds: self.dense_builds.load(Ordering::Relaxed),
            sparse_builds: self.sparse_builds.load(Ordering::Relaxed),
            narrow_scans: self.narrow_scans.load(Ordering::Relaxed),
            packed_words_skipped: self.packed_words_skipped.load(Ordering::Relaxed),
            radix_merge_cells: self.radix_merge_cells.load(Ordering::Relaxed),
            full_merge_cells: self.full_merge_cells.load(Ordering::Relaxed),
            builds_w8: self.builds_w8.load(Ordering::Relaxed),
            builds_w16: self.builds_w16.load(Ordering::Relaxed),
            builds_w32: self.builds_w32.load(Ordering::Relaxed),
            builds_w64: self.builds_w64.load(Ordering::Relaxed),
            builds_w128: self.builds_w128.load(Ordering::Relaxed),
            memo_hits: load4(&self.memo_hits),
            memo_misses: load4(&self.memo_misses),
            memo_inserts: load4(&self.memo_inserts),
            memo_evictions: load4(&self.memo_evictions),
            memo_coalesced_waits: self.memo_coalesced_waits.load(Ordering::Relaxed),
        }
    }
}

/// Relaxed load of a per-kind counter array.
fn load4(a: &[AtomicU64; MEMO_KINDS]) -> [u64; MEMO_KINDS] {
    [
        a[0].load(Ordering::Relaxed),
        a[1].load(Ordering::Relaxed),
        a[2].load(Ordering::Relaxed),
        a[3].load(Ordering::Relaxed),
    ]
}

/// Element-wise saturating subtraction of per-kind counter arrays.
fn sub4(a: [u64; MEMO_KINDS], b: [u64; MEMO_KINDS]) -> [u64; MEMO_KINDS] {
    [
        a[0].saturating_sub(b[0]),
        a[1].saturating_sub(b[1]),
        a[2].saturating_sub(b[2]),
        a[3].saturating_sub(b[3]),
    ]
}

/// A point-in-time copy of [`KernelCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelSnapshot {
    /// Row visits inside counting loops.
    pub rows_scanned: u64,
    /// Hash-map entry operations (one per coalesced run reaching a sparse
    /// accumulator).
    pub hash_ops: u64,
    /// Dense flat-array increments (one per coalesced run reaching a dense
    /// accumulator).
    pub dense_ops: u64,
    /// Builds that ran on a dense accumulator.
    pub dense_builds: u64,
    /// Builds that fell back to a sparse (hashed) accumulator.
    pub sparse_builds: u64,
    /// Builds whose inner loop ran at a narrow (8/16-bit) code width.
    pub narrow_scans: u64,
    /// All-zero 64-bit selection words skipped by packed mask scans.
    pub packed_words_skipped: u64,
    /// Cells written by radix-partitioned sub-histogram merges.
    pub radix_merge_cells: u64,
    /// Cells the v1 full-keyspace merge discipline would have written for
    /// the same merge events (keyspace × merges).
    pub full_merge_cells: u64,
    /// Builds scanned at 8-bit width.
    pub builds_w8: u64,
    /// Builds scanned at 16-bit width.
    pub builds_w16: u64,
    /// Builds scanned at 32-bit width.
    pub builds_w32: u64,
    /// Builds scanned at 64-bit width.
    pub builds_w64: u64,
    /// Builds whose keys needed 128 bits.
    pub builds_w128: u64,
    /// Memo-store hits, indexed by [`MemoKind`].
    pub memo_hits: [u64; MEMO_KINDS],
    /// Memo-store misses, indexed by [`MemoKind`].
    pub memo_misses: [u64; MEMO_KINDS],
    /// Values published into the memo store, indexed by [`MemoKind`].
    pub memo_inserts: [u64; MEMO_KINDS],
    /// Entries evicted by budget enforcement, indexed by [`MemoKind`].
    pub memo_evictions: [u64; MEMO_KINDS],
    /// Requests that blocked on another request's in-flight build.
    pub memo_coalesced_waits: u64,
}

impl KernelSnapshot {
    /// Total memo hits across all kinds.
    pub fn memo_hits_total(&self) -> u64 {
        self.memo_hits.iter().sum()
    }

    /// Total memo misses across all kinds.
    pub fn memo_misses_total(&self) -> u64 {
        self.memo_misses.iter().sum()
    }

    /// Total memo inserts across all kinds.
    pub fn memo_inserts_total(&self) -> u64 {
        self.memo_inserts.iter().sum()
    }

    /// Total memo evictions across all kinds.
    pub fn memo_evictions_total(&self) -> u64 {
        self.memo_evictions.iter().sum()
    }
}

impl KernelSnapshot {
    /// Counter movement since `earlier` (saturating, so a stale snapshot
    /// never underflows).
    pub fn delta(&self, earlier: &KernelSnapshot) -> KernelSnapshot {
        KernelSnapshot {
            rows_scanned: self.rows_scanned.saturating_sub(earlier.rows_scanned),
            hash_ops: self.hash_ops.saturating_sub(earlier.hash_ops),
            dense_ops: self.dense_ops.saturating_sub(earlier.dense_ops),
            dense_builds: self.dense_builds.saturating_sub(earlier.dense_builds),
            sparse_builds: self.sparse_builds.saturating_sub(earlier.sparse_builds),
            narrow_scans: self.narrow_scans.saturating_sub(earlier.narrow_scans),
            packed_words_skipped: self
                .packed_words_skipped
                .saturating_sub(earlier.packed_words_skipped),
            radix_merge_cells: self
                .radix_merge_cells
                .saturating_sub(earlier.radix_merge_cells),
            full_merge_cells: self
                .full_merge_cells
                .saturating_sub(earlier.full_merge_cells),
            builds_w8: self.builds_w8.saturating_sub(earlier.builds_w8),
            builds_w16: self.builds_w16.saturating_sub(earlier.builds_w16),
            builds_w32: self.builds_w32.saturating_sub(earlier.builds_w32),
            builds_w64: self.builds_w64.saturating_sub(earlier.builds_w64),
            builds_w128: self.builds_w128.saturating_sub(earlier.builds_w128),
            memo_hits: sub4(self.memo_hits, earlier.memo_hits),
            memo_misses: sub4(self.memo_misses, earlier.memo_misses),
            memo_inserts: sub4(self.memo_inserts, earlier.memo_inserts),
            memo_evictions: sub4(self.memo_evictions, earlier.memo_evictions),
            memo_coalesced_waits: self
                .memo_coalesced_waits
                .saturating_sub(earlier.memo_coalesced_waits),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_delta() {
        let c = KernelCounters::default();
        let before = c.snapshot();
        c.record_build(100, 0, 100, true);
        c.record_build(50, 50, 0, false);
        let d = c.snapshot().delta(&before);
        assert_eq!(d.rows_scanned, 150);
        assert_eq!(d.hash_ops, 50);
        assert_eq!(d.dense_ops, 100);
        assert_eq!(d.dense_builds, 1);
        assert_eq!(d.sparse_builds, 1);
    }

    #[test]
    fn record_v2_counters() {
        let c = KernelCounters::default();
        let before = c.snapshot();
        c.record_scan_width(ScanWidth::W8);
        c.record_scan_width(ScanWidth::W16);
        c.record_scan_width(ScanWidth::W32);
        c.record_scan_width(ScanWidth::W64);
        c.record_scan_width(ScanWidth::W128);
        c.record_packed_words_skipped(7);
        c.record_merge(128, 4096);
        let d = c.snapshot().delta(&before);
        assert_eq!(d.narrow_scans, 2);
        assert_eq!(
            (
                d.builds_w8,
                d.builds_w16,
                d.builds_w32,
                d.builds_w64,
                d.builds_w128
            ),
            (1, 1, 1, 1, 1)
        );
        assert_eq!(d.packed_words_skipped, 7);
        assert_eq!(d.radix_merge_cells, 128);
        assert_eq!(d.full_merge_cells, 4096);
    }

    #[test]
    fn width_selection_boundaries() {
        assert_eq!(ScanWidth::for_space(1), ScanWidth::W8);
        assert_eq!(ScanWidth::for_space(256), ScanWidth::W8);
        assert_eq!(ScanWidth::for_space(257), ScanWidth::W16);
        assert_eq!(ScanWidth::for_space(65536), ScanWidth::W16);
        assert_eq!(ScanWidth::for_space(65537), ScanWidth::W32);
        assert_eq!(ScanWidth::for_space(1 << 32), ScanWidth::W32);
        assert_eq!(ScanWidth::for_space((1 << 32) + 1), ScanWidth::W64);
        assert_eq!(ScanWidth::for_space(u64::MAX as u128 + 1), ScanWidth::W64);
        assert_eq!(ScanWidth::for_space(u64::MAX as u128 + 2), ScanWidth::W128);
        assert!(ScanWidth::W8.is_narrow());
        assert!(ScanWidth::W16.is_narrow());
        assert!(!ScanWidth::W32.is_narrow());
    }

    #[test]
    fn record_memo_counters() {
        let c = KernelCounters::default();
        let before = c.snapshot();
        c.record_memo_hit(MemoKind::Contingency);
        c.record_memo_hit(MemoKind::Contingency);
        c.record_memo_miss(MemoKind::Selection);
        c.record_memo_insert(MemoKind::Selection);
        c.record_memo_evictions(MemoKind::CmiTerm, 3);
        c.record_memo_hit(MemoKind::Extraction);
        c.record_memo_coalesced_wait();
        let d = c.snapshot().delta(&before);
        assert_eq!(d.memo_hits[MemoKind::Contingency as usize], 2);
        assert_eq!(d.memo_hits[MemoKind::Extraction as usize], 1);
        assert_eq!(d.memo_hits_total(), 3);
        assert_eq!(d.memo_misses_total(), 1);
        assert_eq!(d.memo_inserts[MemoKind::Selection as usize], 1);
        assert_eq!(d.memo_evictions[MemoKind::CmiTerm as usize], 3);
        assert_eq!(d.memo_evictions_total(), 3);
        assert_eq!(d.memo_coalesced_waits, 1);
    }

    #[test]
    fn memo_kind_labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            MemoKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), MEMO_KINDS);
    }

    #[test]
    fn delta_saturates() {
        let a = KernelSnapshot {
            rows_scanned: 5,
            ..KernelSnapshot::default()
        };
        let b = KernelSnapshot {
            rows_scanned: 9,
            ..KernelSnapshot::default()
        };
        assert_eq!(a.delta(&b).rows_scanned, 0);
    }
}
