//! n-dimensional chunk grid: maps a rectangular field onto a regular grid
//! of chunks (C-order / row-major, last axis fastest — matching
//! `fzgpu-data`'s layout) and computes which chunks a subregion
//! intersects. All index math is plain integer arithmetic; no chunk data
//! is touched here.

/// A half-open n-D box `[lo, hi)` in global coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Inclusive lower corner, one entry per axis.
    pub lo: Vec<usize>,
    /// Exclusive upper corner, one entry per axis.
    pub hi: Vec<usize>,
}

impl Region {
    /// The whole box of a field with the given dims.
    pub fn full(dims: &[usize]) -> Self {
        Self { lo: vec![0; dims.len()], hi: dims.to_vec() }
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.lo.len()
    }

    /// Extent per axis.
    pub fn extents(&self) -> Vec<usize> {
        self.lo.iter().zip(&self.hi).map(|(&l, &h)| h - l).collect()
    }

    /// Total values in the box.
    pub fn count(&self) -> usize {
        self.lo.iter().zip(&self.hi).map(|(&l, &h)| h - l).product()
    }

    /// Check the region is well-formed and inside `dims`. The error
    /// string names the offending axis.
    pub fn validate(&self, dims: &[usize]) -> Result<(), String> {
        if self.lo.len() != dims.len() || self.hi.len() != dims.len() {
            return Err(format!(
                "region rank {} does not match array rank {}",
                self.lo.len().max(self.hi.len()),
                dims.len()
            ));
        }
        for (a, &dim) in dims.iter().enumerate() {
            if self.lo[a] >= self.hi[a] {
                return Err(format!(
                    "region is empty on axis {a} ({}..{})",
                    self.lo[a], self.hi[a]
                ));
            }
            if self.hi[a] > dim {
                return Err(format!(
                    "region {}..{} exceeds axis {a} extent {dim}",
                    self.lo[a], self.hi[a]
                ));
            }
        }
        Ok(())
    }

    /// Intersection with another box, `None` when disjoint.
    pub fn intersect(&self, other: &Region) -> Option<Region> {
        let lo: Vec<usize> = self.lo.iter().zip(&other.lo).map(|(&a, &b)| a.max(b)).collect();
        let hi: Vec<usize> = self.hi.iter().zip(&other.hi).map(|(&a, &b)| a.min(b)).collect();
        if lo.iter().zip(&hi).any(|(&l, &h)| l >= h) {
            return None;
        }
        Some(Region { lo, hi })
    }
}

/// A regular chunking of an n-D field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkGrid {
    /// Field extents per axis.
    pub dims: Vec<usize>,
    /// Chunk extents per axis (edge chunks are clamped).
    pub chunk: Vec<usize>,
}

impl ChunkGrid {
    /// Build a grid; rejects rank mismatches, zero extents, and dims whose
    /// value count overflows `usize` (the chunk count, at most the value
    /// count, then fits too).
    pub fn new(dims: Vec<usize>, chunk: Vec<usize>) -> Result<Self, String> {
        if dims.is_empty() {
            return Err("array rank must be at least 1".into());
        }
        if dims.len() != chunk.len() {
            return Err(format!(
                "chunk rank {} does not match array rank {}",
                chunk.len(),
                dims.len()
            ));
        }
        for a in 0..dims.len() {
            if dims[a] == 0 {
                return Err(format!("axis {a} has zero extent"));
            }
            if chunk[a] == 0 {
                return Err(format!("chunk extent on axis {a} is zero"));
            }
        }
        if dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d)).is_none() {
            return Err(format!("dims {dims:?} hold more values than usize can count"));
        }
        Ok(Self { dims, chunk })
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total values in the field.
    pub fn total_values(&self) -> usize {
        self.dims.iter().product()
    }

    /// Chunks per axis.
    pub fn chunk_counts(&self) -> Vec<usize> {
        self.dims.iter().zip(&self.chunk).map(|(&d, &c)| d.div_ceil(c)).collect()
    }

    /// Total chunk count.
    pub fn num_chunks(&self) -> usize {
        self.chunk_counts().iter().product()
    }

    /// The grid coordinate of chunk `id` (row-major over chunk counts).
    fn chunk_coord(&self, id: usize) -> Vec<usize> {
        let counts = self.chunk_counts();
        let mut rem = id;
        let mut coord = vec![0; counts.len()];
        for a in (0..counts.len()).rev() {
            coord[a] = rem % counts[a];
            rem /= counts[a];
        }
        coord
    }

    /// The global box chunk `id` covers (clamped at field edges).
    pub fn chunk_box(&self, id: usize) -> Region {
        let coord = self.chunk_coord(id);
        let lo: Vec<usize> = coord.iter().zip(&self.chunk).map(|(&c, &s)| c * s).collect();
        let hi: Vec<usize> = lo
            .iter()
            .zip(&self.chunk)
            .zip(&self.dims)
            .map(|((&l, &s), &d)| (l + s).min(d))
            .collect();
        Region { lo, hi }
    }

    /// The extents of chunk `id` (edge chunks may be short).
    pub fn chunk_extents(&self, id: usize) -> Vec<usize> {
        self.chunk_box(id).extents()
    }

    /// Chunk ids (sorted ascending) whose boxes intersect `region`.
    pub fn chunks_intersecting(&self, region: &Region) -> Vec<usize> {
        let counts = self.chunk_counts();
        // Per-axis chunk index ranges the region spans.
        let lo: Vec<usize> = region.lo.iter().zip(&self.chunk).map(|(&l, &c)| l / c).collect();
        let hi: Vec<usize> =
            region.hi.iter().zip(&self.chunk).map(|(&h, &c)| (h - 1) / c + 1).collect();
        let mut out = Vec::new();
        let mut coord = lo.clone();
        'outer: loop {
            let mut id = 0usize;
            for a in 0..counts.len() {
                id = id * counts[a] + coord[a];
            }
            out.push(id);
            // Odometer increment, last axis fastest (C order → ascending ids).
            for a in (0..coord.len()).rev() {
                coord[a] += 1;
                if coord[a] < hi[a] {
                    continue 'outer;
                }
                coord[a] = lo[a];
                if a == 0 {
                    break 'outer;
                }
            }
        }
        out
    }

    /// Gather the values of chunk `id` out of the full field (C order).
    pub fn gather_chunk(&self, data: &[f32], id: usize) -> Vec<f32> {
        let bx = self.chunk_box(id);
        let mut out = vec![0.0f32; bx.count()];
        copy_region(data, &self.dims, &vec![0; self.rank()], &mut out, &bx.extents(), &bx.lo, &bx);
        out
    }

    /// Extract an arbitrary region out of the full field (C order).
    pub fn extract(&self, data: &[f32], region: &Region) -> Vec<f32> {
        let mut out = vec![0.0f32; region.count()];
        copy_region(
            data,
            &self.dims,
            &vec![0; self.rank()],
            &mut out,
            &region.extents(),
            &region.lo,
            region,
        );
        out
    }
}

/// Copy the global box `region` from a source window to a destination
/// window. `src` holds a C-order array of `src_shape` whose origin sits at
/// `src_origin` in global coordinates; likewise for `dst`. `region` must
/// lie inside both windows. Rows along the last axis copy contiguously.
pub fn copy_region(
    src: &[f32],
    src_shape: &[usize],
    src_origin: &[usize],
    dst: &mut [f32],
    dst_shape: &[usize],
    dst_origin: &[usize],
    region: &Region,
) {
    let rank = region.rank();
    debug_assert_eq!(src_shape.len(), rank);
    debug_assert_eq!(dst_shape.len(), rank);
    let strides = |shape: &[usize]| -> Vec<usize> {
        let mut s = vec![1usize; rank];
        for a in (0..rank.saturating_sub(1)).rev() {
            s[a] = s[a + 1] * shape[a + 1];
        }
        s
    };
    let src_strides = strides(src_shape);
    let dst_strides = strides(dst_shape);
    let row = region.hi[rank - 1] - region.lo[rank - 1];
    // Odometer over every axis but the last.
    let mut idx = region.lo.clone();
    loop {
        let mut s_off = 0usize;
        let mut d_off = 0usize;
        for a in 0..rank {
            s_off += (idx[a] - src_origin[a]) * src_strides[a];
            d_off += (idx[a] - dst_origin[a]) * dst_strides[a];
        }
        dst[d_off..d_off + row].copy_from_slice(&src[s_off..s_off + row]);
        if rank == 1 {
            break;
        }
        let mut a = rank - 2;
        loop {
            idx[a] += 1;
            if idx[a] < region.hi[a] {
                break;
            }
            idx[a] = region.lo[a];
            if a == 0 {
                return;
            }
            a -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32).collect()
    }

    #[test]
    fn grid_counts_and_edge_clamping() {
        let g = ChunkGrid::new(vec![10, 7], vec![4, 3]).unwrap();
        assert_eq!(g.chunk_counts(), vec![3, 3]);
        assert_eq!(g.num_chunks(), 9);
        // Last chunk in both axes is clamped: rows 8..10, cols 6..7.
        let bx = g.chunk_box(8);
        assert_eq!(bx, Region { lo: vec![8, 6], hi: vec![10, 7] });
        assert_eq!(g.chunk_extents(8), vec![2, 1]);
    }

    #[test]
    fn region_validation_names_the_axis() {
        let dims = [10usize, 7];
        assert!(Region { lo: vec![0, 0], hi: vec![10, 7] }.validate(&dims).is_ok());
        let err = Region { lo: vec![0, 3], hi: vec![10, 3] }.validate(&dims).unwrap_err();
        assert!(err.contains("axis 1"), "{err}");
        let err = Region { lo: vec![0, 0], hi: vec![11, 7] }.validate(&dims).unwrap_err();
        assert!(err.contains("axis 0"), "{err}");
        let err = Region { lo: vec![0], hi: vec![10] }.validate(&dims).unwrap_err();
        assert!(err.contains("rank"), "{err}");
    }

    #[test]
    fn intersecting_chunks_are_exact_and_sorted() {
        let g = ChunkGrid::new(vec![10, 7], vec![4, 3]).unwrap();
        // A region inside the middle chunk only.
        let r = Region { lo: vec![4, 3], hi: vec![6, 5] };
        assert_eq!(g.chunks_intersecting(&r), vec![4]);
        // Spanning all chunks.
        let r = Region::full(&g.dims);
        assert_eq!(g.chunks_intersecting(&r), (0..9).collect::<Vec<_>>());
        // The brute-force cross-check: every chunk either intersects or not.
        let r = Region { lo: vec![3, 2], hi: vec![9, 4] };
        let got = g.chunks_intersecting(&r);
        let want: Vec<usize> =
            (0..9).filter(|&id| g.chunk_box(id).intersect(&r).is_some()).collect();
        assert_eq!(got, want);
        assert!(got.windows(2).all(|w| w[0] < w[1]), "sorted ascending");
    }

    #[test]
    fn gather_extract_roundtrip_3d() {
        let g = ChunkGrid::new(vec![4, 6, 5], vec![2, 3, 2]).unwrap();
        let data = seq(4 * 6 * 5);
        // Reassembling every chunk must reproduce the field.
        let mut rebuilt = vec![-1.0f32; data.len()];
        for id in 0..g.num_chunks() {
            let bx = g.chunk_box(id);
            let vals = g.gather_chunk(&data, id);
            copy_region(&vals, &bx.extents(), &bx.lo, &mut rebuilt, &g.dims, &[0, 0, 0], &bx);
        }
        assert_eq!(rebuilt, data);
        // Extract matches direct indexing.
        let r = Region { lo: vec![1, 2, 1], hi: vec![3, 5, 4] };
        let got = g.extract(&data, &r);
        let mut want = Vec::new();
        for z in 1..3 {
            for y in 2..5 {
                for x in 1..4 {
                    want.push(data[(z * 6 + y) * 5 + x]);
                }
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn rank_1_and_rank_4_grids_work() {
        let g = ChunkGrid::new(vec![11], vec![4]).unwrap();
        assert_eq!(g.num_chunks(), 3);
        let data = seq(11);
        assert_eq!(g.gather_chunk(&data, 2), vec![8.0, 9.0, 10.0]);
        let g4 = ChunkGrid::new(vec![2, 3, 2, 4], vec![1, 2, 2, 2]).unwrap();
        let data = seq(2 * 3 * 2 * 4);
        let r = Region { lo: vec![0, 1, 0, 1], hi: vec![2, 3, 1, 3] };
        let got = g4.extract(&data, &r);
        assert_eq!(got.len(), r.count());
        let ids = g4.chunks_intersecting(&r);
        let want: Vec<usize> =
            (0..g4.num_chunks()).filter(|&id| g4.chunk_box(id).intersect(&r).is_some()).collect();
        assert_eq!(ids, want);
    }

    #[test]
    fn bad_grids_are_rejected() {
        assert!(ChunkGrid::new(vec![], vec![]).is_err());
        assert!(ChunkGrid::new(vec![4, 4], vec![2]).is_err());
        assert!(ChunkGrid::new(vec![4, 0], vec![2, 2]).is_err());
        assert!(ChunkGrid::new(vec![4, 4], vec![2, 0]).is_err());
        // 2^62 * 4 values wrap an unchecked product to 0.
        let err = ChunkGrid::new(vec![1 << 62, 4], vec![1 << 62, 4]).unwrap_err();
        assert!(err.contains("more values than usize can count"), "{err}");
        assert!(ChunkGrid::new(vec![usize::MAX, 1], vec![1, 1]).is_ok());
    }
}
