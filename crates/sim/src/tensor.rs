//! Dense tensors and distributed blocks for the virtual cluster.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tce_expr::{IndexId, IndexSpace, Tensor};

/// A rectangular block of a conceptual global array: global index `ranges`
/// per dimension, dense row-major storage. A block whose ranges span the
/// whole extent of every dimension *is* the full array.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    /// Dimension index variables, in storage order.
    pub dims: Vec<IndexId>,
    /// Global index range held per dimension.
    pub ranges: Vec<Range<u64>>,
    /// Row-major data over the local lengths.
    pub data: Vec<f64>,
}

impl Block {
    /// A zero-filled block.
    pub fn zeros(dims: Vec<IndexId>, ranges: Vec<Range<u64>>) -> Self {
        assert_eq!(dims.len(), ranges.len());
        let len: usize = ranges.iter().map(|r| (r.end - r.start) as usize).product();
        Self { dims, ranges, data: vec![0.0; len] }
    }

    /// The full array of `tensor`, zero-filled.
    pub fn full(tensor: &Tensor, space: &IndexSpace) -> Self {
        let ranges = tensor.dims.iter().map(|&d| 0..space.extent(d)).collect();
        Self::zeros(tensor.dims.clone(), ranges)
    }

    /// The full array of `tensor`, filled with reproducible pseudo-random
    /// values in `[-1, 1)`.
    pub fn random(tensor: &Tensor, space: &IndexSpace, seed: u64) -> Self {
        let mut b = Self::full(tensor, space);
        let mut rng = StdRng::seed_from_u64(seed);
        for v in &mut b.data {
            *v = rng.gen_range(-1.0..1.0);
        }
        b
    }

    /// Words stored.
    pub fn words(&self) -> u128 {
        self.data.len() as u128
    }

    fn offset(&self, global: &[u64]) -> usize {
        debug_assert_eq!(global.len(), self.dims.len());
        let mut off = 0usize;
        for (d, &g) in global.iter().enumerate() {
            let r = &self.ranges[d];
            debug_assert!(r.contains(&g), "index {g} outside block range {r:?}");
            off = off * (r.end - r.start) as usize + (g - r.start) as usize;
        }
        off
    }

    /// Read by global indices (must lie within the ranges).
    pub fn get(&self, global: &[u64]) -> f64 {
        self.data[self.offset(global)]
    }

    /// Write by global indices.
    pub fn set(&mut self, global: &[u64], v: f64) {
        let off = self.offset(global);
        self.data[off] = v;
    }

    /// The position of dimension `id`, if present.
    pub fn dim_pos(&self, id: IndexId) -> Option<usize> {
        self.dims.iter().position(|&d| d == id)
    }

    /// Extract the sub-block with the given ranges (must be contained in
    /// this block's ranges, same dimension order).
    pub fn sub_block(&self, ranges: Vec<Range<u64>>) -> Block {
        assert_eq!(ranges.len(), self.dims.len());
        for (mine, req) in self.ranges.iter().zip(&ranges) {
            assert!(
                req.start >= mine.start && req.end <= mine.end,
                "sub-block {req:?} outside {mine:?}"
            );
        }
        let mut out = Block::zeros(self.dims.clone(), ranges);
        out.combine(&[self], |_, v| v);
        out
    }

    /// Add every element of `other` (same dims, ranges ⊆ ours) into self.
    pub fn accumulate(&mut self, other: &Block) {
        assert_eq!(self.dims, other.dims);
        self.combine(&[other], |a, v| a + v);
    }

    /// Largest absolute difference on the intersection of ranges.
    pub fn max_abs_diff(&self, other: &Block) -> f64 {
        assert_eq!(self.dims, other.dims);
        assert_eq!(self.ranges, other.ranges);
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
    }

    /// The one block loop: `self[p] = f(self[p], Π srcs[p])` at every point
    /// `p` of the loop box; returns the number of points visited. The box
    /// spans the union of the sources' dimensions (first source's first,
    /// then each later source's new ones, last dimension fastest), each
    /// over the intersection of the ranges of every block carrying it,
    /// `self` included, so misaligned blocks yield wrong *values* (caught
    /// by verification) rather than panics. `self`'s dimensions must all
    /// come from the sources; a dimension it lacks is summed (`a + v`) or
    /// overwritten (`|_, v| v`). The walk steps per-block offsets by
    /// precomputed strides, so it allocates nothing per point.
    pub fn combine(&mut self, srcs: &[&Block], f: impl Fn(f64, f64) -> f64) -> u128 {
        assert!(!srcs.is_empty(), "combine needs a source block");
        let mut dims: Vec<IndexId> = Vec::new();
        for &d in srcs.iter().flat_map(|s| &s.dims) {
            if !dims.contains(&d) {
                dims.push(d);
            }
        }
        assert!(self.dims.iter().all(|d| dims.contains(d)), "result dim missing from sources");
        let blocks = || std::iter::once(&*self).chain(srcs.iter().copied());
        let ranges: Vec<Range<u64>> = dims
            .iter()
            .map(|&d| {
                blocks()
                    .filter_map(|b| b.dim_pos(d).map(|p| &b.ranges[p]))
                    .fold(0..u64::MAX, |acc, r| acc.start.max(r.start)..acc.end.min(r.end))
            })
            .collect();
        if ranges.iter().any(|r| r.is_empty()) {
            return 0;
        }
        let lens: Vec<usize> = ranges.iter().map(|r| (r.end - r.start) as usize).collect();
        // Per block, `self` first: the offset of the box's first point and
        // the stride of each loop dimension (0 where the block lacks it).
        let (mut offs, strides): (Vec<usize>, Vec<Vec<usize>>) =
            blocks().map(|b| b.walk(&dims, &ranges)).unzip();
        let outer = dims.len().saturating_sub(1);
        let inner = lens.get(outer).copied().unwrap_or(1);
        let step: Vec<usize> = strides.iter().map(|s| s.get(outer).copied().unwrap_or(0)).collect();
        let mut odometer = vec![0usize; outer];
        loop {
            for i in 0..inner {
                let mut v = srcs[0].data[offs[1] + i * step[1]];
                for (s, src) in srcs.iter().enumerate().skip(1) {
                    v *= src.data[offs[s + 1] + i * step[s + 1]];
                }
                let o = offs[0] + i * step[0];
                self.data[o] = f(self.data[o], v);
            }
            // Advance the odometer over the outer dimensions.
            let mut d = outer;
            loop {
                if d == 0 {
                    return lens.iter().map(|&n| n as u128).product();
                }
                d -= 1;
                odometer[d] += 1;
                if odometer[d] < lens[d] {
                    for (o, s) in offs.iter_mut().zip(&strides) {
                        *o += s[d];
                    }
                    break;
                }
                odometer[d] = 0;
                for (o, s) in offs.iter_mut().zip(&strides) {
                    *o -= s[d] * (lens[d] - 1);
                }
            }
        }
    }

    /// Where a walk over the box `ranges` of loop dimensions `dims` starts
    /// in this block's data, and the row-major stride of each loop
    /// dimension (0 for one this block does not carry).
    fn walk(&self, dims: &[IndexId], ranges: &[Range<u64>]) -> (usize, Vec<usize>) {
        let mut row = vec![0usize; self.dims.len()];
        let mut stride = 1;
        for (p, r) in self.ranges.iter().enumerate().rev() {
            row[p] = stride;
            stride *= (r.end - r.start) as usize;
        }
        let mut start = 0;
        let strides = dims
            .iter()
            .zip(ranges)
            .map(|(&d, r)| match self.dim_pos(d) {
                Some(p) => {
                    start += (r.start - self.ranges[p].start) as usize * row[p];
                    row[p]
                }
                None => 0,
            })
            .collect();
        (start, strides)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce_expr::IndexSpace;

    /// Iterate over every point of a multi-dimensional index box, last
    /// dimension fastest: the per-point walk `combine` replaced, kept as
    /// its reference.
    struct BoxIter {
        ranges: Vec<Range<u64>>,
        current: Vec<u64>,
        done: bool,
    }

    impl BoxIter {
        fn new(ranges: Vec<Range<u64>>) -> Self {
            let done = ranges.iter().any(|r| r.is_empty());
            let current = ranges.iter().map(|r| r.start).collect();
            Self { ranges, current, done }
        }
    }

    impl Iterator for BoxIter {
        type Item = Vec<u64>;
        fn next(&mut self) -> Option<Vec<u64>> {
            if self.done {
                return None;
            }
            let out = self.current.clone();
            for d in (0..self.ranges.len()).rev() {
                self.current[d] += 1;
                if self.current[d] < self.ranges[d].end {
                    return Some(out);
                }
                self.current[d] = self.ranges[d].start;
            }
            self.done = true;
            Some(out)
        }
    }

    /// `combine` point by point: build every index tuple and read and write
    /// through `get`/`set`.
    fn combine_per_point(out: &mut Block, srcs: &[&Block], f: impl Fn(f64, f64) -> f64) -> u128 {
        let mut dims: Vec<IndexId> = Vec::new();
        for s in srcs {
            for &d in &s.dims {
                if !dims.contains(&d) {
                    dims.push(d);
                }
            }
        }
        let mut ranges = Vec::new();
        for &d in &dims {
            let mut r = 0..u64::MAX;
            for b in std::iter::once(&*out).chain(srcs.iter().copied()) {
                if let Some(p) = b.dim_pos(d) {
                    r.start = r.start.max(b.ranges[p].start);
                    r.end = r.end.min(b.ranges[p].end);
                }
            }
            ranges.push(r);
        }
        let pick = |b: &Block, point: &[u64]| -> Vec<u64> {
            b.dims.iter().map(|d| point[dims.iter().position(|x| x == d).unwrap()]).collect()
        };
        let mut points = 0;
        for point in BoxIter::new(ranges) {
            let v = srcs.iter().map(|s| s.get(&pick(s, &point))).reduce(|a, b| a * b).unwrap();
            let idx = pick(out, &point);
            out.set(&idx, f(out.get(&idx), v));
            points += 1;
        }
        points
    }

    /// A block over a random ordered subset of `pool` (at least `min_dims`
    /// of them), with random, possibly empty, sub-ranges of each extent.
    fn random_block(rng: &mut StdRng, pool: &[(IndexId, u64)], min_dims: usize) -> Block {
        let mut dims: Vec<(IndexId, u64)> = pool.to_vec();
        for i in (1..dims.len()).rev() {
            dims.swap(i, rng.gen_range(0..=i));
        }
        dims.truncate(rng.gen_range(min_dims..=pool.len()));
        let ranges = dims
            .iter()
            .map(|&(_, n)| {
                let start = rng.gen_range(0..=n);
                start..rng.gen_range(start..=n)
            })
            .collect();
        let mut b = Block::zeros(dims.iter().map(|&(d, _)| d).collect(), ranges);
        for v in &mut b.data {
            *v = rng.gen_range(-1.0..1.0);
        }
        b
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// The strided walk equals the per-point walk bit for bit, over
        /// random dimension orders, partially overlapping and empty range
        /// intersections, one and two sources, and both `+=` and copy.
        #[test]
        fn combine_matches_the_per_point_walk(
            seed in 0u64..u64::MAX,
            two in proptest::bool::ANY,
            copy in proptest::bool::ANY,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sp = IndexSpace::new();
            let pool: Vec<(IndexId, u64)> = (0..4)
                .map(|i| {
                    let n = rng.gen_range(1..6);
                    (sp.declare(&format!("x{i}"), n), n)
                })
                .collect();
            let mut srcs = vec![random_block(&mut rng, &pool, 0)];
            if two {
                srcs.push(random_block(&mut rng, &pool, 0));
            }
            let union: Vec<(IndexId, u64)> =
                pool.iter().copied().filter(|(d, _)| srcs.iter().any(|s| s.dims.contains(d))).collect();
            let mut out = random_block(&mut rng, &union, 0);
            let mut want = out.clone();
            let refs: Vec<&Block> = srcs.iter().collect();
            let f = move |a: f64, v: f64| if copy { v } else { a + v };
            let points = out.combine(&refs, f);
            proptest::prop_assert_eq!(points, combine_per_point(&mut want, &refs, f));
            let bits = |b: &Block| b.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(&out), bits(&want));
        }
    }

    fn space() -> (IndexSpace, IndexId, IndexId, IndexId) {
        let mut sp = IndexSpace::new();
        let i = sp.declare("i", 4);
        let j = sp.declare("j", 5);
        let k = sp.declare("k", 6);
        (sp, i, j, k)
    }

    #[test]
    fn box_iter_covers_all_points() {
        let pts: Vec<_> = BoxIter::new(vec![0..2, 3..5]).collect();
        assert_eq!(pts, vec![vec![0, 3], vec![0, 4], vec![1, 3], vec![1, 4]]);
        assert_eq!(BoxIter::new(vec![0..0, 1..3]).count(), 0);
        assert_eq!(BoxIter::new(vec![]).count(), 1, "empty box has one point");
    }

    #[test]
    fn block_get_set_roundtrip() {
        let (sp, i, j, _) = space();
        let t = Tensor::new("X", vec![i, j]);
        let mut b = Block::full(&t, &sp);
        b.set(&[2, 3], 7.5);
        assert_eq!(b.get(&[2, 3]), 7.5);
        assert_eq!(b.get(&[0, 0]), 0.0);
        assert_eq!(b.words(), 20);
    }

    #[test]
    fn sub_block_extracts_ranges() {
        let (sp, i, j, _) = space();
        let t = Tensor::new("X", vec![i, j]);
        let mut b = Block::full(&t, &sp);
        for idx in BoxIter::new(b.ranges.clone()) {
            let v = (idx[0] * 10 + idx[1]) as f64;
            b.set(&idx, v);
        }
        let s = b.sub_block(vec![1..3, 2..4]);
        assert_eq!(s.get(&[1, 2]), 12.0);
        assert_eq!(s.get(&[2, 3]), 23.0);
        assert_eq!(s.words(), 4);
    }

    #[test]
    fn contract_matches_manual_matmul() {
        let (sp, i, j, k) = space();
        let a = Tensor::new("A", vec![i, k]);
        let b = Tensor::new("B", vec![k, j]);
        let c = Tensor::new("C", vec![i, j]);
        let ab = Block::random(&a, &sp, 1);
        let bb = Block::random(&b, &sp, 2);
        let mut cb = Block::full(&c, &sp);
        let points = cb.combine(&[&ab, &bb], |a, v| a + v);
        assert_eq!(2 * points, 2 * 4 * 5 * 6);
        // Manual check at one point.
        let mut want = 0.0;
        for kk in 0..6 {
            want += ab.get(&[1, kk]) * bb.get(&[kk, 3]);
        }
        assert!((cb.get(&[1, 3]) - want).abs() < 1e-12);
    }

    #[test]
    fn contract_partial_blocks_accumulate() {
        // Split the k range in two; the two partial contractions must sum
        // to the full one — the essence of Cannon's accumulation.
        let (sp, i, j, k) = space();
        let a = Tensor::new("A", vec![i, k]);
        let b = Tensor::new("B", vec![k, j]);
        let c = Tensor::new("C", vec![i, j]);
        let ab = Block::random(&a, &sp, 3);
        let bb = Block::random(&b, &sp, 4);
        let mut full = Block::full(&c, &sp);
        full.combine(&[&ab, &bb], |a, v| a + v);
        let mut partial = Block::full(&c, &sp);
        let a1 = ab.sub_block(vec![0..4, 0..3]);
        let b1 = bb.sub_block(vec![0..3, 0..5]);
        let a2 = ab.sub_block(vec![0..4, 3..6]);
        let b2 = bb.sub_block(vec![3..6, 0..5]);
        partial.combine(&[&a1, &b1], |a, v| a + v);
        partial.combine(&[&a2, &b2], |a, v| a + v);
        assert!(full.max_abs_diff(&partial) < 1e-12);
    }

    #[test]
    fn reduce_block_sums_dimension() {
        let (sp, i, j, _) = space();
        let t = Tensor::new("X", vec![i, j]);
        let b = Block::random(&t, &sp, 5);
        let r = Tensor::new("R", vec![j]);
        let mut out = Block::full(&r, &sp);
        out.combine(&[&b], |a, v| a + v);
        let mut want = 0.0;
        for ii in 0..4 {
            want += b.get(&[ii, 2]);
        }
        assert!((out.get(&[2]) - want).abs() < 1e-12);
    }

    #[test]
    fn elementwise_matches() {
        let (sp, i, j, _) = space();
        let t = Tensor::new("X", vec![i, j]);
        let x = Block::random(&t, &sp, 6);
        let y = Block::random(&Tensor::new("Y", vec![i, j]), &sp, 7);
        let mut out = Block::full(&Tensor::new("Z", vec![i, j]), &sp);
        out.combine(&[&x, &y], |a, v| a + v);
        assert!((out.get(&[1, 2]) - x.get(&[1, 2]) * y.get(&[1, 2])).abs() < 1e-12);
    }

    #[test]
    fn random_is_reproducible() {
        let (sp, i, j, _) = space();
        let t = Tensor::new("X", vec![i, j]);
        assert_eq!(Block::random(&t, &sp, 9), Block::random(&t, &sp, 9));
        assert_ne!(Block::random(&t, &sp, 9), Block::random(&t, &sp, 10));
    }
}
