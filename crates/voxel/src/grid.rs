//! Bit-packed 3-D occupancy grids.

use vsim_geom::{Mat3, Vec3};

/// A dense, bit-packed 3-D occupancy grid.
///
/// Voxel `(x, y, z)` with `0 ≤ x < nx`, … is addressed in x-fastest order.
/// In the paper's notation a set bit is an element of `Vᵒ`, the voxels
/// covered by object `o`.
#[derive(Debug, Clone, PartialEq)]
pub struct VoxelGrid {
    nx: usize,
    ny: usize,
    nz: usize,
    bits: Vec<u64>,
}

impl VoxelGrid {
    /// An all-empty grid of the given dimensions.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "grid dimensions must be positive");
        let words = (nx * ny * nz).div_ceil(64);
        VoxelGrid { nx, ny, nz, bits: vec![0; words] }
    }

    /// A cubic `r × r × r` grid (the paper's raster resolution `r`).
    pub fn cubic(r: usize) -> Self {
        VoxelGrid::new(r, r, r)
    }

    #[inline]
    pub fn dims(&self) -> [usize; 3] {
        [self.nx, self.ny, self.nz]
    }

    /// Number of addressable voxels (`nx · ny · nz`).
    pub fn capacity(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    #[inline]
    fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        (z * self.ny + y) * self.nx + x
    }

    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> bool {
        let i = self.idx(x, y, z);
        self.bits[i >> 6] & (1u64 << (i & 63)) != 0
    }

    /// Bounds-checked read: out-of-grid coordinates read as empty.
    #[inline]
    pub fn get_i(&self, x: isize, y: isize, z: isize) -> bool {
        if x < 0 || y < 0 || z < 0 {
            return false;
        }
        let (x, y, z) = (x as usize, y as usize, z as usize);
        x < self.nx && y < self.ny && z < self.nz && self.get(x, y, z)
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: bool) {
        let i = self.idx(x, y, z);
        if v {
            self.bits[i >> 6] |= 1u64 << (i & 63);
        } else {
            self.bits[i >> 6] &= !(1u64 << (i & 63));
        }
    }

    /// OR `bits` into the row `(·, y, z)`: bit `i` sets voxel `(x0 + i, y, z)`.
    /// No bit of `bits` may address a voxel past the end of the row.
    pub(crate) fn or_row(&mut self, x0: usize, y: usize, z: usize, bits: u64) {
        if bits == 0 {
            return;
        }
        debug_assert!(x0 + (64 - bits.leading_zeros() as usize) <= self.nx);
        let i = self.idx(x0, y, z);
        let shift = i & 63;
        self.bits[i >> 6] |= bits << shift;
        if shift != 0 && bits >> (64 - shift) != 0 {
            self.bits[(i >> 6) + 1] |= bits >> (64 - shift);
        }
    }

    /// The read twin of `or_row`: bit `i` is voxel `(x0 + i, y, z)`, for the
    /// up to 64 voxels from `x0` to the end of the row; higher bits are zero.
    #[inline]
    pub fn row(&self, x0: usize, y: usize, z: usize) -> u64 {
        let n = (self.nx - x0).min(64);
        let i = self.idx(x0, y, z);
        let (word, shift) = (i >> 6, i & 63);
        let mut bits = self.bits[word] >> shift;
        if shift != 0 && shift + n > 64 {
            bits |= self.bits[word + 1] << (64 - shift);
        }
        if n < 64 {
            bits &= (1u64 << n) - 1;
        }
        bits
    }

    /// Number of set voxels, `|Vᵒ|`.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Iterate over the coordinates of all set voxels.
    pub fn iter_set(&self) -> impl Iterator<Item = [usize; 3]> + '_ {
        let (nx, ny) = (self.nx, self.ny);
        (0..self.capacity()).filter_map(move |i| {
            if self.bits[i >> 6] & (1u64 << (i & 63)) != 0 {
                let x = i % nx;
                let y = (i / nx) % ny;
                let z = i / (nx * ny);
                Some([x, y, z])
            } else {
                None
            }
        })
    }

    /// Number of voxels where `self` and `other` differ — the symmetric
    /// volume difference `|O XOR S|` of the cover-sequence model.
    pub fn xor_count(&self, other: &VoxelGrid) -> usize {
        assert_eq!(self.dims(), other.dims(), "grid dimensions differ");
        self.bits.iter().zip(&other.bits).map(|(a, b)| (a ^ b).count_ones() as usize).sum()
    }

    /// True if the set voxel at `(x, y, z)` lies on the object surface,
    /// i.e. has at least one empty 6-neighbor (voxels outside the grid
    /// count as empty). Surface voxels form the paper's set `V̄ᵒ`.
    pub fn is_surface(&self, x: usize, y: usize, z: usize) -> bool {
        if !self.get(x, y, z) {
            return false;
        }
        let (xi, yi, zi) = (x as isize, y as isize, z as isize);
        const N: [[isize; 3]; 6] =
            [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]];
        N.iter().any(|d| !self.get_i(xi + d[0], yi + d[1], zi + d[2]))
    }

    /// Grid containing exactly the surface voxels `V̄ᵒ`.
    pub fn surface(&self) -> VoxelGrid {
        let mut out = VoxelGrid::new(self.nx, self.ny, self.nz);
        for [x, y, z] in self.iter_set() {
            if self.is_surface(x, y, z) {
                out.set(x, y, z, true);
            }
        }
        out
    }

    /// Grid containing exactly the interior voxels `V̇ᵒ = Vᵒ \ V̄ᵒ`.
    pub fn interior(&self) -> VoxelGrid {
        let mut out = VoxelGrid::new(self.nx, self.ny, self.nz);
        for [x, y, z] in self.iter_set() {
            if !self.is_surface(x, y, z) {
                out.set(x, y, z, true);
            }
        }
        out
    }

    /// Tight bounds of the occupied region as `Some((min, max))` with
    /// inclusive corners, or `None` for an empty grid.
    pub fn occupied_bounds(&self) -> Option<([usize; 3], [usize; 3])> {
        let mut min = [usize::MAX; 3];
        let mut max = [0usize; 3];
        let mut any = false;
        for v in self.iter_set() {
            any = true;
            for d in 0..3 {
                min[d] = min[d].min(v[d]);
                max[d] = max[d].max(v[d]);
            }
        }
        any.then_some((min, max))
    }

    /// Centroid of the set voxel centers (in voxel coordinates).
    /// Returns `None` for empty grids.
    pub fn centroid(&self) -> Option<Vec3> {
        let mut sum = Vec3::ZERO;
        let mut n = 0usize;
        for [x, y, z] in self.iter_set() {
            sum += Vec3::new(x as f64 + 0.5, y as f64 + 0.5, z as f64 + 0.5);
            n += 1;
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// Covariance matrix of the set voxel centers around their centroid.
    /// Returns `None` for empty grids. Input to the principal-axis
    /// transform of Section 3.2.
    pub fn covariance(&self) -> Option<Mat3> {
        let c = self.centroid()?;
        let mut m = [[0.0f64; 3]; 3];
        let mut n = 0usize;
        for [x, y, z] in self.iter_set() {
            let d = Vec3::new(x as f64 + 0.5, y as f64 + 0.5, z as f64 + 0.5) - c;
            let a = d.to_array();
            for i in 0..3 {
                for j in 0..3 {
                    m[i][j] += a[i] * a[j];
                }
            }
            n += 1;
        }
        let inv = 1.0 / n as f64;
        for row in &mut m {
            for e in row {
                *e *= inv;
            }
        }
        Some(Mat3::new(m))
    }

    /// Union in place; dimensions must match.
    pub fn union_with(&mut self, other: &VoxelGrid) {
        assert_eq!(self.dims(), other.dims());
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Remove all voxels of `other` from `self`; dimensions must match.
    pub fn subtract(&mut self, other: &VoxelGrid) {
        assert_eq!(self.dims(), other.dims());
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= !b;
        }
    }

    /// Raw words of the bitset.
    #[cfg(test)]
    fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Rebuild from raw parts; the dimensions must be positive, `words`
    /// must have exactly `ceil(nx·ny·nz / 64)` entries, and the bits past
    /// voxel `nx·ny·nz − 1` must be clear, as `words` leaves them.
    #[cfg(test)]
    fn from_words(nx: usize, ny: usize, nz: usize, words: Vec<u64>) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "grid dimensions must be positive");
        let n = nx * ny * nz;
        assert_eq!(words.len(), n.div_ceil(64), "word count mismatch");
        let used = n % 64;
        assert!(used == 0 || words[words.len() - 1] >> used == 0, "bits set past the last voxel");
        VoxelGrid { nx, ny, nz, bits: words }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled_box(r: usize, lo: usize, hi: usize) -> VoxelGrid {
        let mut g = VoxelGrid::cubic(r);
        for z in lo..hi {
            for y in lo..hi {
                for x in lo..hi {
                    g.set(x, y, z, true);
                }
            }
        }
        g
    }

    #[test]
    fn set_get_roundtrip() {
        let mut g = VoxelGrid::new(5, 7, 3);
        assert!(!g.get(4, 6, 2));
        g.set(4, 6, 2, true);
        assert!(g.get(4, 6, 2));
        assert_eq!(g.count(), 1);
        g.set(4, 6, 2, false);
        assert!(g.is_empty());
    }

    #[test]
    fn out_of_bounds_reads_empty() {
        let mut g = VoxelGrid::cubic(4);
        g.set(0, 0, 0, true);
        assert!(g.get_i(0, 0, 0));
        assert!(!g.get_i(-1, 0, 0));
        assert!(!g.get_i(0, 4, 0));
        assert!(!g.get_i(0, 0, 100));
    }

    #[test]
    fn iter_set_matches_count_and_coords() {
        let mut g = VoxelGrid::new(3, 4, 5);
        let pts = [[0, 0, 0], [2, 3, 4], [1, 2, 3]];
        for p in pts {
            g.set(p[0], p[1], p[2], true);
        }
        let mut got: Vec<_> = g.iter_set().collect();
        got.sort();
        let mut want = pts.to_vec();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(g.count(), 3);
    }

    #[test]
    fn surface_and_interior_partition_a_cube() {
        // 4^3 solid block inside an 8^3 grid: interior is the 2^3 core.
        let g = filled_box(8, 2, 6);
        let s = g.surface();
        let i = g.interior();
        assert_eq!(g.count(), 64);
        assert_eq!(i.count(), 8);
        assert_eq!(s.count(), 64 - 8);
        // Partition: disjoint and union = V.
        let mut u = s.clone();
        u.union_with(&i);
        assert_eq!(u, g);
        assert_eq!(s.xor_count(&i), s.count() + i.count());
    }

    #[test]
    fn grid_boundary_voxels_are_surface() {
        // A fully filled grid: every voxel touching the grid boundary is
        // surface (outside counts as empty).
        let g = filled_box(3, 0, 3);
        assert_eq!(g.surface().count(), 27 - 1); // all but the very center
        assert!(g.is_surface(0, 0, 0));
        assert!(!g.is_surface(1, 1, 1));
    }

    #[test]
    fn xor_count_is_symmetric_difference() {
        let a = filled_box(6, 0, 3);
        let b = filled_box(6, 1, 4);
        let overlap = 2 * 2 * 2; // [1,3)^3
        assert_eq!(a.xor_count(&b), 27 + 27 - 2 * overlap);
        assert_eq!(a.xor_count(&a), 0);
        assert_eq!(a.xor_count(&b), b.xor_count(&a));
    }

    #[test]
    fn occupied_bounds_are_tight() {
        let mut g = VoxelGrid::cubic(10);
        assert!(g.occupied_bounds().is_none());
        g.set(2, 3, 4, true);
        g.set(7, 3, 5, true);
        let (min, max) = g.occupied_bounds().unwrap();
        assert_eq!(min, [2, 3, 4]);
        assert_eq!(max, [7, 3, 5]);
    }

    #[test]
    fn centroid_of_symmetric_block_is_center() {
        let g = filled_box(8, 2, 6);
        let c = g.centroid().unwrap();
        assert!((c - Vec3::splat(4.0)).norm() < 1e-12);
        assert!(VoxelGrid::cubic(3).centroid().is_none());
    }

    #[test]
    fn covariance_reflects_elongation() {
        // Rod along x.
        let mut g = VoxelGrid::new(16, 4, 4);
        for x in 0..16 {
            g.set(x, 1, 1, true);
        }
        let cov = g.covariance().unwrap();
        assert!(cov.rows[0][0] > 10.0 * cov.rows[1][1]);
        assert!(cov.rows[1][1].abs() < 1e-9); // single voxel thick
    }

    #[test]
    fn boolean_ops() {
        let mut a = filled_box(4, 0, 2);
        let b = filled_box(4, 1, 3);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.count(), 8 + 8 - 1);
        a.subtract(&b);
        assert_eq!(a.count(), 7);
        assert!(!a.get(1, 1, 1));
    }

    #[test]
    fn words_roundtrip() {
        let g = filled_box(5, 1, 4);
        let w = g.words().to_vec();
        let g2 = VoxelGrid::from_words(5, 5, 5, w);
        assert_eq!(g, g2);
    }

    #[test]
    #[should_panic(expected = "bits set past the last voxel")]
    fn from_words_refuses_padding_bits() {
        // Bit 125 of a 125-voxel grid: no `get` reads it, but `count` would.
        let _ = VoxelGrid::from_words(5, 5, 5, vec![0, 1 << 61]);
    }

    #[test]
    #[should_panic(expected = "grid dimensions must be positive")]
    fn from_words_refuses_zero_dimensions() {
        let _ = VoxelGrid::from_words(0, 5, 5, vec![]);
    }

    #[test]
    fn row_reads_what_get_reads() {
        // Rows of 3, 15 and 70 voxels start at every bit offset of a word,
        // and the 70-voxel rows need two reads from some `x0`.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for nx in [3, 15, 70] {
            let mut g = VoxelGrid::new(nx, 5, 4);
            for z in 0..4 {
                for y in 0..5 {
                    for x in 0..nx {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        g.set(x, y, z, state >> 62 == 0);
                    }
                }
            }
            for z in 0..4 {
                for y in 0..5 {
                    for x0 in 0..nx {
                        let want = (x0..nx.min(x0 + 64))
                            .map(|x| u64::from(g.get(x, y, z)) << (x - x0))
                            .fold(0, |a, b| a | b);
                        assert_eq!(g.row(x0, y, z), want, "nx {nx} x0 {x0} y {y} z {z}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let a = VoxelGrid::cubic(4);
        let b = VoxelGrid::cubic(5);
        let _ = a.xor_count(&b);
    }
}
