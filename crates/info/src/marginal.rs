//! Ordered marginal accumulation.
//!
//! Every score NEXUS reports is an f64 fold over the cells of some
//! marginal table, and NEXUS promises bit-identical output. Two orders
//! fix an f64 fold's low bits:
//!
//! * the order in which contributions to **one** cell are summed, and
//! * the order in which the finished cells are folded into an entropy.
//!
//! An ordered map (`BTreeMap`) pins both: each cell sums its
//! contributions in the caller's visit order, and cells drain in
//! ascending key order. [`OrderedMarginal`] pins the same two orders
//! without a tree. It is a dense array indexed by the mixed-radix key:
//! `sums[key] += w` adds in visit order, and a touched-cell bitset drains
//! the cells in ascending key order. Occupancy is counted at first touch
//! (as an ordered map counts entries), so a cell whose contributions sum
//! to zero still counts toward the Miller–Madow cell count.
//!
//! The dense array is only taken when the key space is small next to the
//! number of contributions the caller announces
//! ([`OrderedMarginal::reset`]); scratch memory therefore scales with
//! the cells being marginalized, not with the product of cardinalities.
//! Above that cap the accumulator records `(key, weight)` pairs, stably
//! sorts them by key and folds each run of equal keys in visit order —
//! the same two orders again.

/// Key spaces up to this many cells always take the dense layout
/// (8 KiB of sums plus a 128-byte bitset).
const DENSE_FLOOR: u64 = 1 << 10;

/// Beyond the floor, the dense layout is taken while the key space is at
/// most this many times the announced number of contributions.
const DENSE_CELL_FACTOR: u64 = 16;

/// An ordered, occupancy-counting accumulator over one marginal's
/// mixed-radix keys. Reusable: [`OrderedMarginal::reset`] before each
/// accumulation, then drain once.
#[derive(Debug, Default)]
pub struct OrderedMarginal {
    /// Key space of the current accumulation.
    space: u64,
    /// Whether the current accumulation uses the dense layout.
    dense: bool,
    /// Dense cell sums, indexed by key. All zero between accumulations.
    sums: Vec<f64>,
    /// Dense touched-cell bitset. All zero between accumulations.
    touched: Vec<u64>,
    /// Distinct keys touched so far (dense layout).
    occupied: usize,
    /// Sorted-fallback contributions in visit order.
    pairs: Vec<(u64, f64)>,
}

impl OrderedMarginal {
    /// An empty accumulator; allocates nothing until first use.
    pub fn new() -> OrderedMarginal {
        OrderedMarginal::default()
    }

    /// Prepares an accumulation over keys `0..space`, fed by at most
    /// `contributions` calls to [`OrderedMarginal::add`]. Chooses the
    /// dense layout when the key space is within the floor or within
    /// [`DENSE_CELL_FACTOR`] times the contributions, the sorted fallback
    /// otherwise. Discards anything not yet drained.
    pub fn reset(&mut self, space: u64, contributions: usize) {
        self.discard();
        let cap = DENSE_FLOOR.max((contributions as u64).saturating_mul(DENSE_CELL_FACTOR));
        self.space = space;
        self.dense = space <= cap;
        if self.dense {
            let cells = space as usize;
            if self.sums.len() < cells {
                self.sums.resize(cells, 0.0);
            }
            let words = cells.div_ceil(64);
            if self.touched.len() < words {
                self.touched.resize(words, 0);
            }
        }
    }

    /// Whether the current accumulation uses the dense layout.
    pub fn is_dense(&self) -> bool {
        self.dense
    }

    /// Adds `w` to cell `key` (which must be below the reset key space).
    /// Any weight counts, including zero and negative ones: the cell is
    /// occupied from its first touch.
    #[inline]
    pub fn add(&mut self, key: u64, w: f64) {
        debug_assert!(key < self.space, "key {key} outside space {}", self.space);
        if self.dense {
            let k = key as usize;
            let bit = 1u64 << (k & 63);
            let word = &mut self.touched[k >> 6];
            if *word & bit == 0 {
                *word |= bit;
                self.occupied += 1;
            }
            self.sums[k] += w;
        } else {
            self.pairs.push((key, w));
        }
    }

    /// Visits every occupied cell as `(key, sum)` in ascending key order,
    /// leaves the accumulator empty, and returns the occupied-cell count.
    pub fn drain(&mut self, mut visit: impl FnMut(u64, f64)) -> usize {
        if self.dense {
            let occupied = self.occupied;
            if occupied > 0 {
                let words = (self.space as usize).div_ceil(64);
                for (wi, word) in self.touched[..words].iter_mut().enumerate() {
                    let mut bits = std::mem::take(word);
                    while bits != 0 {
                        let k = wi * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        visit(k as u64, std::mem::take(&mut self.sums[k]));
                    }
                }
            }
            self.occupied = 0;
            occupied
        } else {
            // A stable sort keeps equal keys in visit order, so each run
            // sums exactly as the dense cell would have.
            self.pairs.sort_by_key(|&(k, _)| k);
            let mut cells = 0;
            let mut i = 0;
            while i < self.pairs.len() {
                let key = self.pairs[i].0;
                let mut sum = 0.0;
                while i < self.pairs.len() && self.pairs[i].0 == key {
                    sum += self.pairs[i].1;
                    i += 1;
                }
                visit(key, sum);
                cells += 1;
            }
            self.pairs.clear();
            cells
        }
    }

    /// Drains into `(plug-in entropy in bits, occupied cells)`, folding
    /// the cells in ascending key order exactly as
    /// [`entropy_from_counts`](crate::entropy_from_counts) would.
    pub fn drain_entropy(&mut self, total: f64) -> (f64, usize) {
        self.drain_entropy_with(total, |_, _| {})
    }

    /// [`OrderedMarginal::drain_entropy`] that also hands every drained
    /// cell to `visit`, in the same ascending order — for callers that
    /// marginalize the drained cells further.
    pub fn drain_entropy_with(
        &mut self,
        total: f64,
        mut visit: impl FnMut(u64, f64),
    ) -> (f64, usize) {
        let mut fold = EntropyFold::default();
        let cells = self.drain(|k, c| {
            fold.push(c);
            visit(k, c);
        });
        (fold.finish(total), cells)
    }

    /// Drops undrained contributions, restoring the all-zero invariant.
    fn discard(&mut self) {
        if self.dense {
            self.drain(|_, _| {});
        }
        self.pairs.clear();
    }
}

/// The running `Σ c·log₂ c` of a plug-in entropy, fed cell by cell. The
/// one fold every entropy in this crate goes through, so a marginal
/// drained from an [`OrderedMarginal`] and one collected into a slice
/// give the same bits.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct EntropyFold {
    acc: f64,
}

impl EntropyFold {
    /// Folds one cell; non-positive cells contribute nothing.
    #[inline]
    pub(crate) fn push(&mut self, c: f64) {
        if c > 0.0 {
            self.acc += c * c.log2();
        }
    }

    /// The entropy in bits of the folded cells over `total`.
    pub(crate) fn finish(self, total: f64) -> f64 {
        if total <= 0.0 {
            return 0.0;
        }
        (total.log2() - self.acc / total).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_ascending_and_counts_first_touch() {
        for contributions in [1, 1 << 20] {
            let mut m = OrderedMarginal::new();
            // 1 << 16 cells: sorted fallback for one contribution, dense
            // when a million are announced.
            m.reset(1 << 16, contributions);
            assert_eq!(m.is_dense(), contributions > 1);
            m.add(9, 1.0);
            m.add(3, 2.0);
            m.add(9, -1.0);
            m.add(40_000, 0.0);
            let mut seen = Vec::new();
            let cells = m.drain(|k, c| seen.push((k, c)));
            assert_eq!(cells, 3);
            assert_eq!(seen, vec![(3, 2.0), (9, 0.0), (40_000, 0.0)]);
            // Drained means empty: a second drain sees nothing.
            assert_eq!(m.drain(|_, _| panic!("drained twice")), 0);
        }
    }

    #[test]
    fn reset_discards_undrained_cells() {
        let mut m = OrderedMarginal::new();
        m.reset(64, 4);
        m.add(5, 1.0);
        m.reset(64, 4);
        m.add(6, 1.0);
        let mut seen = Vec::new();
        assert_eq!(m.drain(|k, c| seen.push((k, c))), 1);
        assert_eq!(seen, vec![(6, 1.0)]);
    }

    #[test]
    fn entropy_matches_the_slice_fold() {
        let mut m = OrderedMarginal::new();
        m.reset(8, 8);
        for (k, w) in [(1, 0.5), (7, 2.25), (1, 1.0), (4, 3.0)] {
            m.add(k, w);
        }
        let (h, cells) = m.drain_entropy(6.75);
        let direct = crate::entropy_from_counts([1.5, 3.0, 2.25].into_iter(), 6.75);
        assert_eq!(h.to_bits(), direct.to_bits());
        assert_eq!(cells, 3);
    }
}
