//! Greedy cover sequences (Section 3.3.3) and the vector set model built
//! on them (Section 4).
//!
//! An object `O` is approximated by a sequence
//! `S_k = (((C₀ σ₁ C₁) σ₂ C₂) … σ_k C_k)` of axis-parallel cuboid covers
//! combined with union (`+`) or difference (`−`), chosen greedily to
//! minimize the symmetric volume difference `Err = |O XOR S|`
//! (Jagadish & Bruckstein's polynomial-time algorithm — the one the
//! paper's experiments use).
//!
//! ## Search strategy
//!
//! Each greedy step maximizes the error reduction ("gain") over *all*
//! axis-parallel cuboids and both signs. A gain is a sum of signed voxel
//! weights over the cuboid:
//!
//! * plus: `+1` on `O∖S` (gets covered), `−1` outside `O ∪ S` (gets
//!   spoiled), `0` on `S`;
//! * minus: `+1` on `S∖O` (gets cleared), `−1` on `S ∩ O` (gets lost),
//!   `0` outside `S`.
//!
//! Both are additive over the z-slabs of a cuboid, so for every
//! `(x₀,x₁,y₀,y₁)` footprint the optimal z-interval is a maximum-sum
//! subarray found by Kadane's algorithm in `O(r)`. That is
//! `O(r⁴ · r) = O(r⁵)` for the full step, against `O(r⁶)` for box
//! enumeration with per-box counting.
//!
//! The slab gains come from one signed 2-D prefix-sum table `T` per sign,
//! stored `[x][z][y]`: y-contiguous, each `(x, z)` row padded to a
//! multiple of eight lanes. A strip `[x₀,x₁)` forms `D = T[x₁] − T[x₀]`
//! once; footprint `[y₀,y₁)` then gains `D[z][y₁] − D[z][y₀]` in slab
//! `z`. For one `y₀`, every `y₁` runs Kadane's recurrence
//! `run = max(run, 0) + D[z][y₁] − D[z][y₀]`, `m = max(m, run)` at once,
//! eight `y₁` to a lane chunk, so `m` is each footprint's best gain.
//! Only the footprints whose `m` beats the best so far, in ascending
//! `y₁`, run Kadane again with the start of the z-interval tracked, and
//! that pass replaces the best unit.
//!
//! Most rows never reach the lanes. A plus-gain cannot exceed the `O∖S`
//! voxels of its footprint column, a minus-gain not its `S∖O` voxels;
//! both counts ("caps") are O(1) from the two tables projected along z,
//! and only grow with the footprint. A strip whose `[0, r)` caps are no
//! more than the best gain so far is skipped, and so is the rest of the
//! `y₀` loop once `[y₀, r)` falls short. In a row, a sign whose cap falls
//! short stays out of the lanes, and the lanes start at the chunk of the
//! first `y₁` whose cap exceeds the best.
//!
//! Between two steps only what the last unit changed is refilled: slab
//! `z` of the tables depends on slab `z` of `O` and `S` alone, and the
//! column counts behind the caps change only inside the unit's cuboid.
//! The first step fills everything; the caps are rebuilt every step.
//!
//! ## Lane type
//!
//! Every table entry, cap, strip difference, lane run and gain is a
//! signed count of the voxels of a sub-box of the raster, so no value
//! exceeds `r³` in magnitude — including lanes that hold no footprint,
//! and the padding, whose entries are 0. The cap recurrence is grouped so
//! that its partial sums are such counts too. The search therefore runs
//! in `i16` while `r³ ≤ i16::MAX` (r ≤ 31): eight lanes fill one SSE2
//! register, whose `max` is native, where an `i32` lane's is emulated on
//! the baseline x86-64 target. Above that it runs in `i32`. The result is
//! the same in both; no arithmetic wraps, which the test profile's
//! overflow checks confirm at r = 31.
//!
//! ## Exactness
//!
//! The search is exact, ties included. The best unit is replaced only on
//! a strictly larger gain, and no cuboid of a footprint left out — by a
//! cap or by its `m` — exceeds the best gain at the moment it is left
//! out, so none would have replaced it. The scan order `(x₀, x₁, y₀, y₁,
//! z-end, plus before minus)` therefore decides every tie exactly as a
//! scan of all footprints does.

use std::num::TryFromIntError;
use std::ops::{Add, AddAssign, Range, Sub};
use vsim_setdist::VectorSet;
use vsim_voxel::VoxelGrid;

/// An axis-parallel cuboid in voxel coordinates, half-open:
/// `[min, max)` per axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cuboid {
    pub min: [usize; 3],
    pub max: [usize; 3],
}

impl Cuboid {
    pub fn volume(&self) -> usize {
        (0..3).map(|d| self.max[d] - self.min[d]).product()
    }

    pub fn extent(&self, d: usize) -> usize {
        self.max[d] - self.min[d]
    }

    /// Center in (fractional) voxel coordinates.
    pub fn center(&self, d: usize) -> f64 {
        (self.min[d] + self.max[d]) as f64 / 2.0
    }

    pub fn contains(&self, v: [usize; 3]) -> bool {
        (0..3).all(|d| v[d] >= self.min[d] && v[d] < self.max[d])
    }
}

/// Whether a cover is added to or subtracted from the approximation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sign {
    Plus,
    Minus,
}

/// One unit `(Cᵢ, σᵢ)` of a cover sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverUnit {
    pub cuboid: Cuboid,
    pub sign: Sign,
    /// Error reduction achieved by this unit.
    pub gain: usize,
}

impl CoverUnit {
    /// Union the cuboid into `approx` (plus) or carve it out (minus).
    fn apply(&self, approx: &mut VoxelGrid) {
        let c = &self.cuboid;
        for z in c.min[2]..c.max[2] {
            for y in c.min[1]..c.max[1] {
                for x in c.min[0]..c.max[0] {
                    approx.set(x, y, z, matches!(self.sign, Sign::Plus));
                }
            }
        }
    }
}

/// A greedy cover sequence for one object.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverSequence {
    /// Raster resolution of the source grid.
    pub r: usize,
    pub units: Vec<CoverUnit>,
    /// `errors[0]` is the initial error `|O|` (empty approximation);
    /// `errors[i]` is the symmetric volume difference after unit `i`.
    pub errors: Vec<usize>,
}

impl CoverSequence {
    /// Final symmetric volume difference `Err_k`.
    pub fn final_error(&self) -> usize {
        *self.errors.last().unwrap()
    }

    /// Rebuild the approximation grid `S_k` by applying all units.
    pub fn reconstruct(&self) -> VoxelGrid {
        let mut s = VoxelGrid::cubic(self.r);
        for u in &self.units {
            u.apply(&mut s);
        }
        s
    }
}

/// Lanes of the row kernel: one `y₁` each.
const LANES: usize = 8;

/// The integer type of the search's tables, lanes and gains (module doc,
/// "Lane type").
trait Gain:
    Copy
    + Ord
    + Default
    + From<bool>
    + Add<Output = Self>
    + Sub<Output = Self>
    + AddAssign
    + TryInto<usize, Error = TryFromIntError>
{
    const MAX: usize;
}

impl Gain for i16 {
    const MAX: usize = i16::MAX as usize;
}

impl Gain for i32 {
    const MAX: usize = i32::MAX as usize;
}

/// Workspace of the greedy step, allocated once per sequence and brought
/// up to date after each unit. The tables are 2-D prefix sums over
/// `(x, y)` with the usual zero row and column.
struct CoverSearch<G> {
    r: usize,
    /// Length of one y-row: `r + 1` rounded up to a multiple of [`LANES`].
    /// The padding lanes are never written and stay zero.
    yp: usize,
    /// Length of `fill`'s x-rows: `r` rounded up to a multiple of [`LANES`].
    xp: usize,
    /// The signed tables `T`, y-contiguous: `[(x·(r+1) + z)·yp + y]` sums
    /// the weights of `[0,x) × [0,y)` in slab `z < r`. "Slab" `r` holds the
    /// caps: the same sum over the column counts of `O∖S` (plus) or `S∖O`
    /// (minus).
    plus: Vec<G>,
    minus: Vec<G>,
    /// `T[x₁] − T[x₀]` for the strip `[x₀,x₁)` under the scan,
    /// `[z·yp + y]`: footprint `[y₀,y₁)` gains `strip[z·yp + y₁] −
    /// strip[z·yp + y₀]` in slab `z`, and caps at the same difference in
    /// row `r`.
    strip_plus: Vec<G>,
    strip_minus: Vec<G>,
    /// The best gain of footprint `[y₀,y₁)`, both signs, at `[y₁]`, for the
    /// `y₀` under the scan.
    row_best: Vec<G>,
    /// `fill`'s running column sums along y of the slab under the scan,
    /// `[x]`.
    col_plus: Vec<G>,
    col_minus: Vec<G>,
    /// The counts of `O∖S` and `S∖O` per column, `[y·xp + x]`.
    need_add: Vec<G>,
    need_del: Vec<G>,
    /// Start-tracking passes, and those of them that raised the best.
    #[cfg(test)]
    tracked: [usize; 2],
}

impl<G: Gain> CoverSearch<G> {
    fn new(r: usize) -> Self {
        assert!(r.pow(3) <= G::MAX, "raster resolution {r} overflows the gain tables");
        let (yp, xp) = ((r + 1).next_multiple_of(LANES), r.next_multiple_of(LANES));
        let block = (r + 1) * yp;
        let zeros = |n: usize| vec![G::default(); n];
        CoverSearch {
            r,
            yp,
            xp,
            plus: zeros((r + 1) * block),
            minus: zeros((r + 1) * block),
            strip_plus: zeros(block),
            strip_minus: zeros(block),
            row_best: zeros(yp),
            col_plus: zeros(xp),
            col_minus: zeros(xp),
            need_add: zeros(r * xp),
            need_del: zeros(r * xp),
            #[cfg(test)]
            tracked: [0; 2],
        }
    }

    /// The greedy sequence of at most `k` units: one `best` per unit, and
    /// before it the tables brought up to date with the unit before.
    fn sequence(&mut self, object: &VoxelGrid, k: usize) -> CoverSequence {
        let r = self.r;
        let mut approx = VoxelGrid::cubic(r);
        let mut err = object.count();
        let mut seq = CoverSequence { r, units: Vec::new(), errors: vec![err] };
        while seq.units.len() < k {
            match seq.units.last() {
                None => self.load(object, &approx),
                Some(last) => self.apply(object, &mut approx, last),
            }
            let Some(unit) = self.best() else {
                break;
            };
            err -= unit.gain;
            seq.units.push(unit);
            seq.errors.push(err);
            if err == 0 {
                break;
            }
        }
        debug_assert_eq!(err, object.xor_count(&seq.reconstruct()));
        seq
    }

    /// Load every table for approximation `approx`.
    fn load(&mut self, object: &VoxelGrid, approx: &VoxelGrid) {
        let r = self.r;
        self.need_add.fill(G::default());
        self.need_del.fill(G::default());
        self.count_columns(object, approx, &Cuboid { min: [0; 3], max: [r; 3] }, true);
        self.fill(object, approx, 0..r);
    }

    /// Apply `unit` to `approx`, and refill what it changed: its cuboid's
    /// columns in the counts, the slabs it spans, the caps.
    fn apply(&mut self, object: &VoxelGrid, approx: &mut VoxelGrid, unit: &CoverUnit) {
        let c = &unit.cuboid;
        self.count_columns(object, approx, c, false);
        unit.apply(approx);
        self.count_columns(object, approx, c, true);
        self.fill(object, approx, c.min[2]..c.max[2]);
    }

    /// Add the `O∖S` and `S∖O` voxels of cuboid `c` to their column counts,
    /// or, if not `add`, take them away.
    fn count_columns(&mut self, object: &VoxelGrid, approx: &VoxelGrid, c: &Cuboid, add: bool) {
        let ([x0, y0, z0], [x1, y1, z1]) = (c.min, c.max);
        let one = G::from(true);
        for z in z0..z1 {
            for y in y0..y1 {
                for x in (x0..x1).step_by(64) {
                    let (o, s) = (object.row(x, y, z), approx.row(x, y, z));
                    let inside = u64::MAX >> (64 - (x1 - x).min(64));
                    let (add_bits, del_bits) = (o & !s & inside, s & !o & inside);
                    for (need, mut bits) in
                        [(&mut self.need_add, add_bits), (&mut self.need_del, del_bits)]
                    {
                        let row = &mut need[y * self.xp + x..];
                        while bits != 0 {
                            let n = &mut row[bits.trailing_zeros() as usize];
                            *n = if add { *n + one } else { *n - one };
                            bits &= bits - 1;
                        }
                    }
                }
            }
        }
    }

    /// Refill slabs `slabs` of the tables from approximation `approx`,
    /// reading both grids a row of up to 64 voxels at a time and weighing
    /// eight voxels at once; then the caps, from the column counts.
    fn fill(&mut self, object: &VoxelGrid, approx: &VoxelGrid, slabs: Range<usize>) {
        let (r, yp, xp) = (self.r, self.yp, self.xp);
        let block = (r + 1) * yp;
        for z in slabs {
            self.col_plus.fill(G::default());
            self.col_minus.fill(G::default());
            for y in 0..r {
                for x0 in (0..r).step_by(64) {
                    let (o, s) = (object.row(x0, y, z), approx.row(x0, y, z));
                    // Plus: +1 on O∖S, −1 outside O ∪ S, 0 on S.
                    // Minus: +1 on S∖O, −1 on S ∩ O, 0 outside S.
                    // Lanes from `r` on are spoiled, and never read.
                    let [add, spoil, del, keep] = [o & !s, !(o | s), s & !o, s & o];
                    for c in (x0..xp.min(x0 + 64)).step_by(LANES) {
                        let lanes = |bits: u64| -> [G; LANES] {
                            let bits = (bits >> (c - x0)) as u32;
                            std::array::from_fn(|l| G::from(bits & 1 << l != 0))
                        };
                        let (add, spoil) = (lanes(add), lanes(spoil));
                        let col = &mut self.col_plus[c..c + LANES];
                        for l in 0..LANES {
                            col[l] += add[l] - spoil[l];
                        }
                        if s != 0 {
                            let (del, keep) = (lanes(del), lanes(keep));
                            let col = &mut self.col_minus[c..c + LANES];
                            for l in 0..LANES {
                                col[l] += del[l] - keep[l];
                            }
                        }
                    }
                }
                // `[0,x+1) × [0,y+1)` of slab `z` sums the first x+1 columns.
                let at = z * yp + y + 1;
                let (mut p, mut m) = (G::default(), G::default());
                let tables =
                    self.plus.chunks_exact_mut(block).zip(self.minus.chunks_exact_mut(block));
                for ((tp, tm), (&cp, &cm)) in
                    tables.skip(1).zip(self.col_plus.iter().zip(&self.col_minus))
                {
                    (p, m) = (p + cp, m + cm);
                    (tp[at], tm[at]) = (p, m);
                }
            }
        }
        for (t, need) in [(&mut self.plus, &self.need_add), (&mut self.minus, &self.need_del)] {
            let cap = |x: usize, y: usize| x * block + r * yp + y;
            for x in 1..=r {
                for y in 1..=r {
                    // Grouped so that every partial sum counts the voxels of
                    // a sub-box, as the lane type needs.
                    t[cap(x, y)] = need[(y - 1) * xp + x - 1]
                        + (t[cap(x - 1, y)] - t[cap(x - 1, y - 1)])
                        + t[cap(x, y - 1)];
                }
            }
        }
    }

    /// One greedy step: the best `(cuboid, sign, gain)` over all cuboids,
    /// or `None` if no cuboid has positive gain.
    fn best(&mut self) -> Option<CoverUnit> {
        let (r, yp) = (self.r, self.yp);
        let (slabs, block) = (r * yp, (r + 1) * yp);
        let mut best = Best { gain: G::default(), unit: None };
        for x0 in 0..r {
            for x1 in (x0 + 1)..=r {
                // The strip's caps over `[0, r)`: its `y = 0` entries are 0.
                let strip_cap = |t: &[G]| t[x1 * block + slabs + r] - t[x0 * block + slabs + r];
                if strip_cap(&self.plus).max(strip_cap(&self.minus)) <= best.gain {
                    continue;
                }
                for (d, t) in
                    [(&mut self.strip_plus, &self.plus), (&mut self.strip_minus, &self.minus)]
                {
                    let (t0, t1) = (&t[x0 * block..][..block], &t[x1 * block..][..block]);
                    for ((d, &a), &b) in d.iter_mut().zip(t1).zip(t0) {
                        *d = a - b;
                    }
                }
                let strips = [&self.strip_plus[..slabs], &self.strip_minus[..slabs]];
                let caps = [&self.strip_plus[slabs..], &self.strip_minus[slabs..]];
                let cap = |sign: usize, y0: usize, y1: usize| caps[sign][y1] - caps[sign][y0];
                // The most any cuboid on footprint `[x0,x1) × [y0,y1)` gains.
                let bound = |y0: usize, y1: usize| cap(0, y0, y1).max(cap(1, y0, y1));
                for y0 in 0..r {
                    // `cap(y0, y1)` grows with `y1` and falls with `y0`:
                    // `cap(y0, r)` tops the row and every later one.
                    let row_caps = [cap(0, y0, r), cap(1, y0, r)];
                    if row_caps[0].max(row_caps[1]) <= best.gain {
                        break;
                    }
                    // The lanes start at the first chunk whose last footprint's
                    // cap beats the best (a footprint with `y1 <= y0` caps at 0).
                    let from = (0..yp)
                        .step_by(LANES)
                        .find(|&c| bound(y0, r.min(c + LANES - 1)) > best.gain)
                        .unwrap_or(yp);
                    self.row_best[from..].fill(G::default());
                    for (row_cap, strip) in row_caps.into_iter().zip(strips) {
                        if row_cap > best.gain {
                            kadane_lanes(strip, yp, y0, from, &mut self.row_best);
                        }
                    }
                    for y1 in (y0 + 1).max(from)..=r {
                        if self.row_best[y1] > best.gain {
                            #[cfg(test)]
                            let before = best.gain;
                            best.track(strips, yp, [x0, x1, y0, y1]);
                            #[cfg(test)]
                            {
                                self.tracked[0] += 1;
                                self.tracked[1] += usize::from(best.gain > before);
                            }
                        }
                    }
                }
            }
        }
        let gain = best.gain.try_into().expect("the best gain is never negative");
        best.unit.map(|(cuboid, sign)| CoverUnit { cuboid, sign, gain })
    }
}

/// For every `y₁` in the lane chunks from `from` on, raise `out[y₁]` to
/// the best gain of footprint `[y₀,y₁)` of one sign's strip over all
/// z-intervals, if positive: Kadane's maximum-sum recurrence with eight
/// `y₁` in lanes. Lanes with `y₁ ≤ y₀` or `y₁ > r` hold no footprint;
/// their values are finite and never read.
fn kadane_lanes<G: Gain>(strip: &[G], yp: usize, y0: usize, from: usize, out: &mut [G]) {
    let zero = G::default();
    for c in (from..yp).step_by(LANES) {
        let (mut run, mut top) = ([zero; LANES], [zero; LANES]);
        for row in strip.chunks_exact(yp) {
            let (base, lanes) = (row[y0], &row[c..c + LANES]);
            for l in 0..LANES {
                run[l] = run[l].max(zero) + (lanes[l] - base);
                top[l] = top[l].max(run[l]);
            }
        }
        for (o, t) in out[c..c + LANES].iter_mut().zip(top) {
            *o = (*o).max(t);
        }
    }
}

/// The best unit so far of one greedy step.
struct Best<G> {
    gain: G,
    unit: Option<(Cuboid, Sign)>,
}

impl<G: Gain> Best<G> {
    /// Kadane over z with start tracking, both signs at once, on footprint
    /// `[x₀,x₁) × [y₀,y₁)` of the strip: the unit is replaced only on a
    /// strictly larger gain, in the order `(z-end, plus before minus)`.
    fn track(&mut self, [plus, minus]: [&[G]; 2], yp: usize, [x0, x1, y0, y1]: [usize; 4]) {
        let zero = G::default();
        let mut runs = [(zero, 0usize, Sign::Plus, plus), (zero, 0, Sign::Minus, minus)];
        for z in 0..plus.len() / yp {
            for (run, start, sign, t) in &mut runs {
                if *run <= zero {
                    *run = zero;
                    *start = z;
                }
                *run += t[z * yp + y1] - t[z * yp + y0];
                if *run > self.gain {
                    self.gain = *run;
                    let cuboid = Cuboid { min: [x0, y0, *start], max: [x1, y1, z + 1] };
                    self.unit = Some((cuboid, *sign));
                }
            }
        }
    }
}

/// Greedy cover sequence of at most `k` units (Jagadish/Bruckstein's
/// polynomial algorithm). Stops early when no cuboid reduces the error —
/// the paper exploits exactly this in the vector set model ("if the
/// approximation is optimal with less than the maximum number of covers,
/// only this smaller number of vectors has to be stored").
pub fn greedy_cover_sequence(object: &VoxelGrid, k: usize) -> CoverSequence {
    let [rx, ry, rz] = object.dims();
    assert!(rx == ry && ry == rz, "cover sequences require a cubic grid");
    if rx.pow(3) <= <i16 as Gain>::MAX {
        CoverSearch::<i16>::new(rx).sequence(object, k)
    } else {
        CoverSearch::<i32>::new(rx).sequence(object, k)
    }
}

/// The 6 feature values of one cover (Section 3.3.3): position (cuboid
/// center, *relative to the raster center*) and extension per axis,
/// normalized by the raster resolution. Positions live in `[-0.5, 0.5]`,
/// extents in `(0, 1]`. The centered frame makes `ω = 0` the natural
/// neutral element of Section 4.3 — a cover at the data-space center
/// with no volume, which indeed "has the shortest average distance
/// within the position and has no volume".
fn cover_features(c: &Cuboid, r: usize) -> [f64; 6] {
    let rf = r as f64;
    [
        (c.center(0) - rf / 2.0) / rf,
        (c.center(1) - rf / 2.0) / rf,
        (c.center(2) - rf / 2.0) / rf,
        c.extent(0) as f64 / rf,
        c.extent(1) as f64 / rf,
        c.extent(2) as f64 / rf,
    ]
}

/// The paper's *vector set model*: the same covers represented as a set
/// of 6-dimensional feature vectors with cardinality ≤ `k` — no dummy
/// covers needed (Section 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorSetModel {
    /// Maximum set cardinality `k`.
    pub k: usize,
}

impl VectorSetModel {
    pub fn new(k: usize) -> Self {
        assert!(k > 0);
        VectorSetModel { k }
    }

    pub fn extract(&self, grid: &VoxelGrid) -> VectorSet {
        let seq = greedy_cover_sequence(grid, self.k);
        self.from_sequence(&seq)
    }

    pub fn from_sequence(&self, seq: &CoverSequence) -> VectorSet {
        let mut s = VectorSet::with_capacity(6, seq.units.len().min(self.k));
        for u in seq.units.iter().take(self.k) {
            s.push(&cover_features(&u.cuboid, seq.r));
        }
        s
    }
}

/// Apply one of the 48 cube symmetries to a cover feature vector
/// `[px, py, pz, ex, ey, ez]` (normalized, raster-center-relative
/// coordinates): the position is rotated about the origin and the
/// extents are permuted (and kept positive). Implements the transform
/// set `T` of Definition 2 directly in feature space, avoiding
/// re-voxelization.
pub fn transform_cover_vector(v: &[f64], m: &vsim_geom::Mat3) -> [f64; 6] {
    use vsim_geom::Vec3;
    // Positions are already raster-center-relative, so the rotation
    // applies directly; extents are permuted and kept positive.
    let p = Vec3::new(v[0], v[1], v[2]);
    let e = Vec3::new(v[3], v[4], v[5]);
    let rp = *m * p;
    let re = (*m * e).abs();
    [rp.x, rp.y, rp.z, re.x, re.y, re.z]
}

/// Transform a whole vector set (see [`transform_cover_vector`]).
pub fn transform_vector_set(s: &VectorSet, m: &vsim_geom::Mat3) -> VectorSet {
    assert_eq!(s.dim(), 6);
    let mut out = VectorSet::with_capacity(6, s.len());
    for v in s.iter() {
        out.push(&transform_cover_vector(v, m));
    }
    out
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;

    fn block(r: usize, min: [usize; 3], max: [usize; 3]) -> VoxelGrid {
        let mut g = VoxelGrid::cubic(r);
        for z in min[2]..max[2] {
            for y in min[1]..max[1] {
                for x in min[0]..max[0] {
                    g.set(x, y, z, true);
                }
            }
        }
        g
    }

    /// One greedy step on a fresh workspace of gain type `G`.
    fn step<G: Gain>(object: &VoxelGrid, approx: &VoxelGrid) -> Option<CoverUnit> {
        let mut search = CoverSearch::<G>::new(object.dims()[0]);
        search.load(object, approx);
        search.best()
    }

    /// One greedy step on a fresh workspace, in `i32` and, where `r³`
    /// fits, in `i16`, which must agree.
    pub(super) fn best_cover(object: &VoxelGrid, approx: &VoxelGrid) -> Option<CoverUnit> {
        let wide = step::<i32>(object, approx);
        if object.dims()[0].pow(3) <= <i16 as Gain>::MAX {
            assert_eq!(step::<i16>(object, approx), wide, "the i16 step differs from the i32 step");
        }
        wide
    }

    /// Brute-force best cover: enumerate every cuboid and sign.
    fn brute_best_gain(object: &VoxelGrid, approx: &VoxelGrid) -> i64 {
        let [r, _, _] = object.dims();
        let count_in = |c: &Cuboid, pred: &dyn Fn(usize, usize, usize) -> bool| -> i64 {
            let mut n = 0;
            for z in c.min[2]..c.max[2] {
                for y in c.min[1]..c.max[1] {
                    for x in c.min[0]..c.max[0] {
                        n += pred(x, y, z) as i64;
                    }
                }
            }
            n
        };
        let mut best = 0i64;
        for x0 in 0..r {
            for x1 in (x0 + 1)..=r {
                for y0 in 0..r {
                    for y1 in (y0 + 1)..=r {
                        for z0 in 0..r {
                            for z1 in (z0 + 1)..=r {
                                let c = Cuboid { min: [x0, y0, z0], max: [x1, y1, z1] };
                                let add = count_in(&c, &|x, y, z| {
                                    object.get(x, y, z) && !approx.get(x, y, z)
                                });
                                let bad = count_in(&c, &|x, y, z| {
                                    !object.get(x, y, z) && !approx.get(x, y, z)
                                });
                                best = best.max(add - bad);
                                let del = count_in(&c, &|x, y, z| {
                                    !object.get(x, y, z) && approx.get(x, y, z)
                                });
                                let keep = count_in(&c, &|x, y, z| {
                                    object.get(x, y, z) && approx.get(x, y, z)
                                });
                                best = best.max(del - keep);
                            }
                        }
                    }
                }
            }
        }
        best
    }

    #[test]
    fn greedy_step_matches_brute_force_on_random_grids() {
        // Pseudo-random object and partial approximation on a 5-cube:
        // the bounded prefix-sum + Kadane search must find the same best gain as
        // full enumeration over all cuboids and both signs.
        let mut state = 0xabcdef12345u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        for trial in 0..10 {
            let mut object = VoxelGrid::cubic(5);
            let mut approx = VoxelGrid::cubic(5);
            for z in 0..5 {
                for y in 0..5 {
                    for x in 0..5 {
                        if next() % 3 == 0 {
                            object.set(x, y, z, true);
                        }
                        if next() % 4 == 0 {
                            approx.set(x, y, z, true);
                        }
                    }
                }
            }
            let want = brute_best_gain(&object, &approx);
            let got = best_cover(&object, &approx).map_or(0, |u| u.gain as i64);
            assert_eq!(got, want, "trial {trial}");
        }
    }

    #[test]
    fn single_box_is_covered_exactly_in_one_step() {
        let g = block(10, [2, 3, 4], [7, 8, 9]);
        let seq = greedy_cover_sequence(&g, 5);
        assert_eq!(seq.units.len(), 1);
        assert_eq!(seq.final_error(), 0);
        let u = &seq.units[0];
        assert_eq!(u.cuboid, Cuboid { min: [2, 3, 4], max: [7, 8, 9] });
        assert_eq!(u.sign, Sign::Plus);
        assert_eq!(seq.reconstruct(), g);
    }

    #[test]
    fn two_disjoint_boxes_need_two_covers() {
        let mut g = block(12, [0, 0, 0], [4, 4, 4]);
        let g2 = block(12, [7, 7, 7], [12, 12, 12]);
        g.union_with(&g2);
        let seq = greedy_cover_sequence(&g, 5);
        assert_eq!(seq.units.len(), 2);
        assert_eq!(seq.final_error(), 0);
        // Greedy picks the larger box first (5^3 = 125 > 64).
        assert_eq!(seq.units[0].cuboid.volume(), 125);
        assert_eq!(seq.units[1].cuboid.volume(), 64);
    }

    #[test]
    fn minus_cover_carves_a_hole() {
        // A box with a rectangular hole: optimal is big plus, small minus.
        let mut g = block(12, [1, 1, 1], [11, 11, 11]);
        let hole = block(12, [4, 4, 4], [8, 8, 8]);
        g.subtract(&hole);
        let seq = greedy_cover_sequence(&g, 4);
        assert_eq!(seq.final_error(), 0);
        assert_eq!(seq.units.len(), 2);
        assert_eq!(seq.units[0].sign, Sign::Plus);
        assert_eq!(seq.units[1].sign, Sign::Minus);
        assert_eq!(seq.units[1].cuboid, Cuboid { min: [4, 4, 4], max: [8, 8, 8] });
    }

    #[test]
    fn errors_are_monotone_nonincreasing_and_consistent() {
        // An L-shaped object.
        let mut g = block(10, [0, 0, 0], [10, 3, 10]);
        g.union_with(&block(10, [0, 0, 0], [3, 10, 10]));
        let seq = greedy_cover_sequence(&g, 6);
        for w in seq.errors.windows(2) {
            assert!(w[1] < w[0], "greedy gains must be strictly positive");
        }
        assert_eq!(seq.final_error(), g.xor_count(&seq.reconstruct()));
        assert_eq!(seq.errors[0], g.count());
    }

    #[test]
    fn empty_object_yields_empty_sequence() {
        let g = VoxelGrid::cubic(8);
        let seq = greedy_cover_sequence(&g, 3);
        assert!(seq.units.is_empty());
        assert_eq!(seq.final_error(), 0);
    }

    #[test]
    fn k_limits_sequence_length() {
        // Checkerboard-ish object needing many covers.
        let mut g = VoxelGrid::cubic(8);
        for z in 0..8 {
            for y in 0..8 {
                for x in 0..8 {
                    if (x / 2 + y / 2 + z / 2) % 2 == 0 {
                        g.set(x, y, z, true);
                    }
                }
            }
        }
        let seq = greedy_cover_sequence(&g, 3);
        assert_eq!(seq.units.len(), 3);
        assert!(seq.final_error() > 0);
    }

    #[test]
    fn vector_set_has_no_dummies() {
        let g = block(10, [2, 2, 2], [8, 8, 8]);
        let s = VectorSetModel::new(7).extract(&g);
        assert_eq!(s.len(), 1);
        assert_eq!(s.dim(), 6);
        assert_eq!(s.get(0), &[0.0, 0.0, 0.0, 0.6, 0.6, 0.6]);
    }

    #[test]
    fn transforming_features_matches_transforming_the_grid() {
        // Rotating the voxel grid and re-extracting must equal
        // transforming the extracted features directly (up to set order).
        use vsim_geom::Mat3;
        use vsim_voxel::rotate_grid;
        let mut g = block(12, [1, 2, 3], [5, 9, 6]);
        g.union_with(&block(12, [6, 1, 7], [11, 4, 12]));
        let model = VectorSetModel::new(4);
        let vs = model.extract(&g);
        for m in Mat3::cube_symmetries().iter().step_by(7) {
            let rotated = rotate_grid(&g, m);
            let vs_rot = model.extract(&rotated);
            let vs_trans = transform_vector_set(&vs, m);
            // Compare as sorted multisets of rows.
            let norm = |s: &VectorSet| {
                let mut rows: Vec<Vec<i64>> = s
                    .iter()
                    .map(|r| r.iter().map(|x| (x * 1e6).round() as i64).collect())
                    .collect();
                rows.sort();
                rows
            };
            assert_eq!(norm(&vs_rot), norm(&vs_trans), "symmetry {m:?}");
        }
    }

    #[test]
    fn greedy_error_decreases_with_more_covers() {
        // A staircase object: more covers, better approximation.
        let mut g = VoxelGrid::cubic(12);
        for step in 0..4 {
            for z in 0..(3 * (step + 1)) {
                for y in 0..12 {
                    for x in (3 * step)..(3 * step + 3) {
                        g.set(x, y, z, true);
                    }
                }
            }
        }
        let e3 = greedy_cover_sequence(&g, 3).final_error();
        let e5 = greedy_cover_sequence(&g, 5).final_error();
        let e7 = greedy_cover_sequence(&g, 7).final_error();
        assert!(e3 >= e5 && e5 >= e7);
        assert_eq!(e7, 0); // 4 slabs are enough... with <=7 certainly
    }
}
