//! Edge routing for the sharded service: [`RowBlock`] maps every edge
//! to the shard that owns it.
//!
//! Routing is a *policy*, not a storage constraint: shard `s` owns
//! exactly the edges `shard_of` assigns to it, each shard drainer
//! replays only its own slice of the update log into its own
//! sub-matrix, and the published snapshot is the disjoint union of all
//! shard sub-matrices at one epoch. Because `shard_of` is a pure
//! function of the (canonicalized) edge key, every update to one edge
//! is serialized through one shard — per-edge last-write-wins order is
//! preserved at any shard count, which is what makes the S∈{1,2,4}
//! differential tests bit-identical.
//!
//! On undirected graphs the service canonicalizes each edge to
//! `(min, max)` *before* routing, and the owning shard replays both
//! arcs.

use graphblas::Index;

/// 1D row-block partitioning: shard `s` owns the contiguous row range
/// `[s·⌈n/S⌉, (s+1)·⌈n/S⌉)`. Replay locality is high (each shard
/// assembles a contiguous CSR row band) and the combine step unions
/// non-overlapping row ranges.
///
/// # Examples
///
/// ```
/// use lagraph::service::RowBlock;
///
/// let p = RowBlock::new(1000, 4);
/// assert_eq!(p.shards(), 4);
/// assert_eq!(p.shard_of(0, 999), 0); // row 0 → first block
/// assert_eq!(p.shard_of(999, 0), 3); // row 999 → last block
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowBlock {
    n: Index,
    shards: usize,
    rows_per_shard: Index,
}

impl RowBlock {
    /// Partition `n` rows into `shards` contiguous blocks (`shards`
    /// clamped to `1..=n`).
    pub fn new(n: Index, shards: usize) -> Self {
        let shards = shards.clamp(1, n.max(1));
        RowBlock { n, shards, rows_per_shard: n.div_ceil(shards).max(1) }
    }

    /// Number of shards routed across (≥ 1).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning edge `(row, col)`; always `< self.shards()`.
    pub fn shard_of(&self, row: Index, _col: Index) -> usize {
        debug_assert!(row < self.n);
        (row / self.rows_per_shard).min(self.shards - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covers_all_shards(p: &RowBlock, n: Index) {
        let mut seen = vec![false; p.shards()];
        for i in 0..n {
            for j in 0..n {
                let s = p.shard_of(i, j);
                assert!(s < p.shards(), "routed ({i},{j}) to {s}");
                seen[s] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "left a shard empty over a full grid");
    }

    #[test]
    fn row_block_is_total_and_contiguous() {
        let p = RowBlock::new(10, 3);
        covers_all_shards(&p, 10);
        // Contiguity: shard index is monotone in the row.
        let mut last = 0;
        for i in 0..10 {
            let s = p.shard_of(i, 0);
            assert!(s >= last);
            last = s;
        }
    }

    #[test]
    fn row_block_more_shards_than_rows_clamps() {
        let p = RowBlock::new(2, 8);
        assert_eq!(p.shards(), 2);
        covers_all_shards(&p, 2);
    }
}
