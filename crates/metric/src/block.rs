//! The arrival-ordered block behind a guess's c-attractor family `A`.
//!
//! The sliding-window Update (Algorithm 1, lines 11–20) tests every
//! arrival against every c-attractor of every guess, and almost every
//! test fails. `A` is bounded by the doubling dimension, not by `k`, so
//! on high-dimensional streams one guess holds thousands of attractors,
//! and a scan that resolves each of them through the arena spends its
//! time chasing payload pointers. An [`ArrivalBlock`] keeps `A` as rows
//! of `(arrival time, arena id)` in arrival order. For metrics that
//! stage one ([`Metric::block_coords`]), each row also holds the
//! attractor's first 16 coordinates, the first two early-exit chunks of
//! [`Euclidean::within`](crate::Euclidean), in [`LANES`]-row
//! coordinate-major tiles: the [`SoaBlock`](crate::SoaBlock) layout.
//! [`Metric::scan_within`] streams those tiles and reads the arena only
//! for rows the staged head does not settle.
//!
//! `A` changes in three ways, and each is cheap on a ring of tiles:
//!
//! * a new c-attractor arrives at the current time, so it appends at the
//!   back ([`push`](ArrivalBlock::push));
//! * window expiry removes the oldest row
//!   ([`remove_front`](ArrivalBlock::remove_front));
//! * Cleanup drops every row older than the oldest v-attractor, a prefix
//!   ([`drop_before`](ArrivalBlock::drop_before)).
//!
//! So rows never need sorting, and a tile leaves the ring with its last
//! row. A buffer shrinks once its capacity exceeds four times what it
//! holds, so a guess whose `A` collapses (after Cleanup, say) does not
//! keep its peak allocation.

use crate::kernel::{Lane64, LANES};
use crate::metric::STAGED;
use crate::store::PointId;
use std::collections::VecDeque;
use std::ops::Range;

#[cfg(doc)]
use crate::Metric;

/// Rows of `(arrival time, arena id)` in arrival order, with optional
/// staged leading coordinates (see the [module docs](self)).
///
/// All staged rows share one dimension. A row that offers no
/// coordinates, or coordinates of another dimension, unstages the whole
/// block until it empties; [`Metric::scan_within`] then falls back to
/// per-row [`Metric::within`], so the decisions never depend on what is
/// staged.
#[derive(Clone, Debug, Default)]
pub struct ArrivalBlock {
    /// `(arrival time, arena id)` per row, times strictly increasing.
    rows: VecDeque<(u64, PointId)>,
    /// The dimension of every row while the heads are staged.
    dim: Option<usize>,
    /// Per tile, `min(dim, 16)` lane groups: group `d` holds coordinate
    /// `d` of the tile's rows, one lane per row. The last tile's unused
    /// lanes are zero.
    heads: VecDeque<Lane64>,
    /// Lanes of the first tile whose rows already left (`< LANES`).
    skip: usize,
}

/// Capacity below which a buffer is never shrunk.
const MIN_TRIM: usize = 64;

impl ArrivalBlock {
    /// An empty block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the block holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Arrival time of row `row` (rows count from the oldest).
    #[inline]
    pub fn time(&self, row: usize) -> u64 {
        self.rows[row].0
    }

    /// Arena id of row `row`.
    #[inline]
    pub fn id(&self, row: usize) -> PointId {
        self.rows[row].1
    }

    /// The rows as `(arrival time, arena id)`, oldest first.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (u64, PointId)> + '_ {
        self.rows.iter().copied()
    }

    /// The arrival times, oldest first.
    pub fn times(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.rows.iter().map(|&(t, _)| t)
    }

    /// The arena id of the row that arrived at `t`, if any.
    pub fn get(&self, t: u64) -> Option<PointId> {
        let row = self.rows.binary_search_by_key(&t, |&(rt, _)| rt).ok()?;
        Some(self.rows[row].1)
    }

    /// Bytes of staged coordinates: `min(dim, 16)` `f64`s per row, `0`
    /// when nothing is staged. The allocation adds at most two partly
    /// filled tiles and the buffers' spare capacity.
    pub fn staged_bytes(&self) -> usize {
        self.dim.map_or(0, |dim| {
            self.rows.len() * head_width(dim) * std::mem::size_of::<f64>()
        })
    }

    /// Appends the row that arrived at `t`, later than every row held,
    /// staging the leading entries of `coords` when the block stages
    /// rows of that dimension. An empty block adopts the dimension of
    /// `coords`; `None`, or another dimension, unstages the block until
    /// it empties.
    pub fn push(&mut self, t: u64, id: PointId, coords: Option<&[f64]>) {
        assert!(
            self.rows.back().is_none_or(|&(last, _)| last < t),
            "block rows must arrive in increasing time order"
        );
        if self.rows.is_empty() {
            self.dim = coords.map(<[f64]>::len);
        }
        match coords {
            Some(c) if self.dim == Some(c.len()) => self.stage(c),
            _ => {
                self.dim = None;
                self.heads = VecDeque::new();
                self.skip = 0;
            }
        }
        self.rows.push_back((t, id));
    }

    /// Writes the head of the row about to be pushed into its lane,
    /// opening a zeroed tile when the last one is full.
    fn stage(&mut self, coords: &[f64]) {
        let width = head_width(coords.len());
        let slot = self.skip + self.rows.len();
        if slot.is_multiple_of(LANES) {
            self.heads
                .extend(std::iter::repeat_n(Lane64::default(), width));
        }
        let base = self.heads.len() - width;
        for (group, &x) in self.heads.range_mut(base..).zip(coords) {
            group.0[slot % LANES] = x;
        }
    }

    /// Removes the oldest row if it arrived at `t`, returning its id.
    /// Window expiry at `t` can remove no other row: rows arrive in time
    /// order, and every row older than `t` expired before.
    pub fn remove_front(&mut self, t: u64) -> Option<PointId> {
        debug_assert!(
            self.rows.front().is_none_or(|&(first, _)| first >= t),
            "row older than the expiring time {t}"
        );
        if self.rows.front()?.0 != t {
            return None;
        }
        let (_, id) = self.pop_front();
        self.trim();
        Some(id)
    }

    /// Removes every row that arrived before `t`, oldest first, handing
    /// each one's time and id to `removed`.
    pub fn drop_before(&mut self, t: u64, mut removed: impl FnMut(u64, PointId)) {
        while self.rows.front().is_some_and(|&(first, _)| first < t) {
            let (rt, id) = self.pop_front();
            removed(rt, id);
        }
        self.trim();
    }

    /// Pops the oldest row (the block must not be empty), retiring its
    /// tile once every lane of it has left.
    fn pop_front(&mut self) -> (u64, PointId) {
        let row = self.rows.pop_front().expect("pop from an empty block");
        if self.rows.is_empty() {
            self.dim = None;
            self.heads.clear();
            self.skip = 0;
        } else if let Some(dim) = self.dim {
            self.skip += 1;
            if self.skip == LANES {
                self.heads.drain(..head_width(dim));
                self.skip = 0;
            }
        }
        row
    }

    /// Shrinks a buffer to twice its contents once its capacity exceeds
    /// four times them, so shrinking stays amortized `O(1)` per removal.
    fn trim(&mut self) {
        fn trim<T>(v: &mut VecDeque<T>) {
            if v.capacity() > MIN_TRIM && v.capacity() > 4 * v.len() {
                v.shrink_to(2 * v.len());
            }
        }
        trim(&mut self.rows);
        trim(&mut self.heads);
    }

    /// Walks the staged heads tile by tile, oldest first, when the rows
    /// have dimension `dim`: `tile(lanes, row, groups)` gets the tile's
    /// `min(dim, 16)` lane groups (group `d` holds coordinate `d`, one
    /// lane per row) and the lanes holding rows, whose first lane holds
    /// row `row`. Returns `false`, visiting nothing, when nothing is
    /// staged or the rows have another dimension.
    ///
    /// Always inlined, so a kernel built for a wider ISA compiles the
    /// walk, and an `#[inline(always)]` `tile`, for that ISA too.
    #[inline(always)]
    pub(crate) fn for_each_tile(
        &self,
        dim: usize,
        mut tile: impl FnMut(Range<usize>, usize, &[Lane64]),
    ) -> bool {
        if self.dim != Some(dim) {
            return false;
        }
        let width = head_width(dim);
        let (front, back) = self.heads.as_slices();
        // A tile that straddles the ring's wrap is copied out whole; the
        // buffer is filled only then, so a scan pays nothing for it.
        let mut straddle;
        let end = self.skip + self.rows.len();
        for base in (0..end).step_by(LANES) {
            let at = base / LANES * width;
            let groups = if at + width <= front.len() {
                &front[at..at + width]
            } else if at >= front.len() {
                &back[at - front.len()..at - front.len() + width]
            } else {
                let split = front.len() - at;
                straddle = [Lane64::default(); STAGED];
                straddle[..split].copy_from_slice(&front[at..]);
                straddle[split..width].copy_from_slice(&back[..width - split]);
                &straddle[..width]
            };
            let lanes = self.skip.saturating_sub(base)..LANES.min(end - base);
            tile(lanes.clone(), base + lanes.start - self.skip, groups);
        }
        true
    }
}

/// Coordinates staged per row of dimension `dim`.
#[inline]
fn head_width(dim: usize) -> usize {
    dim.min(STAGED)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PointStore;

    fn ids(n: usize) -> Vec<PointId> {
        let mut store = PointStore::new();
        (0..n).map(|i| store.insert(i as u64 + 1, ())).collect()
    }

    /// Reads every staged head back out of the tiles, row by row.
    fn heads(block: &ArrivalBlock) -> Vec<Vec<f64>> {
        let dim = block.dim.expect("staged");
        let mut rows = Vec::new();
        block.for_each_tile(dim, |lanes, row, groups| {
            assert_eq!(row, rows.len(), "tiles visit rows in order");
            for lane in lanes {
                rows.push(groups.iter().map(|g| g.0[lane]).collect());
            }
        });
        assert_eq!(rows.len(), block.len());
        rows
    }

    #[test]
    fn ring_keeps_rows_and_heads_in_order_across_tiles() {
        let ids = ids(40);
        let mut block = ArrivalBlock::new();
        let coords = |i: usize| -> Vec<f64> { (0..11).map(|d| (i * 100 + d) as f64).collect() };
        for (i, &id) in ids.iter().enumerate().take(30) {
            block.push(i as u64 + 1, id, Some(&coords(i)));
        }
        assert_eq!(block.remove_front(0), None, "no row arrived at 0");
        assert_eq!(block.remove_front(1), Some(ids[0]));
        let mut dropped = Vec::new();
        block.drop_before(12, |t, _| dropped.push(t));
        assert_eq!(dropped, (2..12).collect::<Vec<u64>>());
        for (i, &id) in ids.iter().enumerate().skip(30) {
            block.push(i as u64 + 1, id, Some(&coords(i)));
        }
        assert_eq!(block.len(), 29);
        assert_eq!(
            block.times().collect::<Vec<_>>(),
            (12..=40).collect::<Vec<u64>>()
        );
        for (row, head) in heads(&block).iter().enumerate() {
            let i = block.time(row) as usize - 1;
            assert_eq!(block.id(row), ids[i]);
            assert_eq!(head[..], coords(i)[..]);
        }
        assert_eq!(block.get(20), Some(ids[19]));
        assert_eq!(block.get(5), None);
        assert_eq!(block.staged_bytes(), 29 * 88);
    }

    #[test]
    fn long_rows_stage_two_chunks() {
        let ids = ids(9);
        let mut block = ArrivalBlock::new();
        let coords = |i: usize| -> Vec<f64> { (0..54).map(|d| (i * 100 + d) as f64).collect() };
        for (i, &id) in ids.iter().enumerate() {
            block.push(i as u64 + 1, id, Some(&coords(i)));
        }
        for (row, head) in heads(&block).iter().enumerate() {
            assert_eq!(head[..], coords(row)[..STAGED]);
        }
        assert_eq!(block.staged_bytes(), 9 * 128);
    }

    #[test]
    fn a_wide_tile_straddles_the_ring_wrap() {
        // A tile buffer grown for 7-coordinate rows keeps a capacity of
        // 56 lane groups, no multiple of 16, once the block empties; a
        // ring of at most 16 wide rows then fits in it and wraps inside
        // a tile of 16 groups, which the walk must copy out whole.
        let ids = ids(64 + 300);
        let mut block = ArrivalBlock::new();
        for (i, &id) in ids.iter().enumerate().take(64) {
            block.push(i as u64 + 1, id, Some(&[i as f64; 7]));
        }
        block.drop_before(u64::MAX, |_, _| {});
        let coords = |i: usize| -> Vec<f64> { (0..24).map(|d| (i * 100 + d) as f64).collect() };
        let mut straddled = 0;
        for (i, &id) in ids.iter().enumerate().skip(64) {
            block.push(i as u64 + 1, id, Some(&coords(i)));
            if block.len() > 16 {
                let oldest = block.time(0);
                assert!(block.remove_front(oldest).is_some());
            }
            let (front, back) = block.heads.as_slices();
            if !back.is_empty() && !front.len().is_multiple_of(STAGED) {
                straddled += 1;
            }
            let expected: Vec<Vec<f64>> = block
                .times()
                .map(|t| coords(t as usize - 1)[..STAGED].to_vec())
                .collect();
            assert_eq!(heads(&block), expected, "after arrival {i}");
        }
        assert!(straddled > 0, "no tile straddled the wrap");
    }

    #[test]
    fn a_steady_ring_wraps_without_losing_heads() {
        // Three coordinates per row: tiles of three lane groups, so the
        // ring's wrap point falls inside tiles as well as between them.
        let ids = ids(600);
        let coords = |i: usize| vec![i as f64, 0.5 * i as f64, -(i as f64)];
        let mut block = ArrivalBlock::new();
        for (i, &id) in ids.iter().enumerate() {
            block.push(i as u64 + 1, id, Some(&coords(i)));
            if block.len() > 37 {
                let oldest = block.time(0);
                assert!(block.remove_front(oldest).is_some());
            }
            let expected: Vec<Vec<f64>> = block.times().map(|t| coords(t as usize - 1)).collect();
            assert_eq!(heads(&block), expected, "after arrival {i}");
        }
    }

    #[test]
    fn short_rows_stage_their_whole_point() {
        let ids = ids(3);
        let mut block = ArrivalBlock::new();
        for (i, &id) in ids.iter().enumerate() {
            block.push(i as u64 + 1, id, Some(&[i as f64, -(i as f64), 0.5]));
        }
        assert_eq!(block.staged_bytes(), 3 * 3 * 8);
        assert_eq!(heads(&block)[2], [2.0, -2.0, 0.5]);
    }

    #[test]
    fn a_mismatched_row_unstages_until_the_block_empties() {
        let ids = ids(4);
        let mut block = ArrivalBlock::new();
        block.push(1, ids[0], Some(&[1.0; 9]));
        block.push(2, ids[1], Some(&[1.0; 3]));
        assert!(!block.for_each_tile(9, |_, _, _| {}) && !block.for_each_tile(3, |_, _, _| {}));
        block.push(3, ids[2], Some(&[1.0; 9]));
        assert_eq!(block.staged_bytes(), 0);
        block.drop_before(4, |_, _| {});
        assert!(block.is_empty());
        block.push(4, ids[3], Some(&[1.0; 9]));
        assert!(block.for_each_tile(9, |_, _, _| {}));
        // A metric that stages nothing leaves times and ids only.
        let mut plain = ArrivalBlock::new();
        plain.push(1, ids[0], None);
        assert!(!plain.for_each_tile(9, |_, _, _| {}));
        assert_eq!(plain.staged_bytes(), 0);
    }

    #[test]
    fn buffers_shrink_after_the_block_collapses() {
        let ids = ids(2000);
        let mut block = ArrivalBlock::new();
        for (i, &id) in ids.iter().enumerate() {
            block.push(i as u64 + 1, id, Some(&[i as f64; 16]));
        }
        let peak = (block.rows.capacity(), block.heads.capacity());
        block.drop_before(1990, |_, _| {});
        assert!(
            block.rows.capacity() < peak.0 / 8,
            "row buffer kept its peak"
        );
        assert!(
            block.heads.capacity() < peak.1 / 8,
            "tile buffer kept its peak"
        );
        block.drop_before(u64::MAX, |_, _| {});
        assert!(block.rows.capacity() <= MIN_TRIM && block.heads.capacity() <= MIN_TRIM);
    }
}
