//! Differential tests of the greedy step against the two searches it
//! replaced, which must agree with it on the *identical* unit (cuboid,
//! sign and gain), so that every tie falls the same way:
//!
//! * the exhaustive search: four unsigned per-slab tables, every
//!   footprint scanned, no pruning — affordable at small `r`;
//! * the per-footprint scan: the same caps, one footprint at a time, with
//!   start-tracking Kadane on every footprint they admit, from
//!   z-contiguous tables — the reference on the part families at r = 15,
//!   30, 31, 32, 33 and 70, on both sides of the switch from `i16` to
//!   `i32` lanes.
//!
//! Also here: the golden digest of the covers of two datasets, the count
//! of start-tracking passes, and the tables refilled after each unit
//! against a fresh load.

use super::tests::best_cover;
use super::*;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rand::prelude::*;
use vsim_datagen::greeble::standard_greebles;
use vsim_datagen::{aircraft, car, Family};
use vsim_voxel::{voxelize_solid, NormalizeMode};

/// Per-z-slab 2-D prefix sums over a set of "marked" voxels, used to
/// answer `count(rect, z-slab)` in O(1).
struct SlabPrefix {
    r: usize,
    /// `[z][(y)(r+1) + x]`, standard inclusive-exclusive 2-D table.
    tables: Vec<Vec<u32>>,
}

impl SlabPrefix {
    /// Build from a predicate over voxel coordinates.
    fn build(r: usize, mut f: impl FnMut(usize, usize, usize) -> bool) -> Self {
        let w = r + 1;
        let mut tables = Vec::with_capacity(r);
        for z in 0..r {
            let mut t = vec![0u32; w * w];
            for y in 1..=r {
                let mut row = 0u32;
                for x in 1..=r {
                    row += f(x - 1, y - 1, z) as u32;
                    t[y * w + x] = row + t[(y - 1) * w + x];
                }
            }
            tables.push(t);
        }
        SlabPrefix { r, tables }
    }

    /// Count of marked voxels in `[x0,x1) × [y0,y1)` at height `z`.
    #[inline]
    fn rect(&self, z: usize, x0: usize, x1: usize, y0: usize, y1: usize) -> u32 {
        let w = self.r + 1;
        let t = &self.tables[z];
        t[y1 * w + x1] + t[y0 * w + x0] - t[y0 * w + x1] - t[y1 * w + x0]
    }
}

/// The greedy step as it was before the bounded search.
fn reference_best_cover(object: &VoxelGrid, approx: &VoxelGrid) -> Option<CoverUnit> {
    let [r, _, _] = object.dims();
    // Gain tables:
    //   plus : a(z-slab) = |slab ∩ O∖S| − (slab_area − |slab ∩ (O∪S)|)
    //   minus: b(z-slab) = |slab ∩ S∖O| − |slab ∩ (S∩O)|
    let need_add = SlabPrefix::build(r, |x, y, z| object.get(x, y, z) && !approx.get(x, y, z));
    let in_either = SlabPrefix::build(r, |x, y, z| object.get(x, y, z) || approx.get(x, y, z));
    let need_del = SlabPrefix::build(r, |x, y, z| !object.get(x, y, z) && approx.get(x, y, z));
    let in_both = SlabPrefix::build(r, |x, y, z| object.get(x, y, z) && approx.get(x, y, z));

    let mut best_gain = 0i64;
    let mut best: Option<(Cuboid, Sign)> = None;

    let mut a = vec![0i64; r];
    let mut b = vec![0i64; r];
    for x0 in 0..r {
        for x1 in (x0 + 1)..=r {
            for y0 in 0..r {
                for y1 in (y0 + 1)..=r {
                    let area = ((x1 - x0) * (y1 - y0)) as i64;
                    for z in 0..r {
                        let add = need_add.rect(z, x0, x1, y0, y1) as i64;
                        let either = in_either.rect(z, x0, x1, y0, y1) as i64;
                        a[z] = add - (area - either);
                        let del = need_del.rect(z, x0, x1, y0, y1) as i64;
                        let both = in_both.rect(z, x0, x1, y0, y1) as i64;
                        b[z] = del - both;
                    }
                    // Kadane over z for both signs simultaneously.
                    let mut run_a = 0i64;
                    let mut start_a = 0usize;
                    let mut run_b = 0i64;
                    let mut start_b = 0usize;
                    for z in 0..r {
                        if run_a <= 0 {
                            run_a = 0;
                            start_a = z;
                        }
                        run_a += a[z];
                        if run_a > best_gain {
                            best_gain = run_a;
                            best = Some((
                                Cuboid { min: [x0, y0, start_a], max: [x1, y1, z + 1] },
                                Sign::Plus,
                            ));
                        }
                        if run_b <= 0 {
                            run_b = 0;
                            start_b = z;
                        }
                        run_b += b[z];
                        if run_b > best_gain {
                            best_gain = run_b;
                            best = Some((
                                Cuboid { min: [x0, y0, start_b], max: [x1, y1, z + 1] },
                                Sign::Minus,
                            ));
                        }
                    }
                }
            }
        }
    }

    best.map(|(cuboid, sign)| CoverUnit { cuboid, sign, gain: best_gain as usize })
}

/// The per-footprint scan, z-contiguous: the greedy step the row kernel
/// replaced.
struct ScanSearch {
    r: usize,
    /// Length of one z-column: `r` rounded up to a multiple of 8. The
    /// padding lanes are never written and stay zero.
    zp: usize,
    /// Signed voxel weights per z-slab, z-contiguous:
    /// `[(y·(r+1) + x)·zp + z]`.
    plus: Vec<i32>,
    minus: Vec<i32>,
    /// The projections along z, `[y·(r+1) + x]`: `|column ∩ O∖S|` and
    /// `|column ∩ S∖O|`.
    plus_cap: Vec<i32>,
    minus_cap: Vec<i32>,
    /// Slab gains `a[z]`, `b[z]` of the footprint under the scan.
    a: Vec<i32>,
    b: Vec<i32>,
}

impl ScanSearch {
    fn new(r: usize) -> Self {
        let zp = r.next_multiple_of(8);
        let cells = (r + 1) * (r + 1);
        ScanSearch {
            r,
            zp,
            plus: vec![0; cells * zp],
            minus: vec![0; cells * zp],
            plus_cap: vec![0; cells],
            minus_cap: vec![0; cells],
            a: vec![0; zp],
            b: vec![0; zp],
        }
    }

    fn fill(&mut self, object: &VoxelGrid, approx: &VoxelGrid) {
        let (r, w, zp) = (self.r, self.r + 1, self.zp);
        for y in 1..=r {
            for x in 1..=r {
                let at = y * w + x;
                let (up, left, diag) = (at - w, at - 1, at - w - 1);
                let (mut need_add, mut need_del) = (0, 0);
                for z in 0..r {
                    let (p, m) = match (object.get(x - 1, y - 1, z), approx.get(x - 1, y - 1, z)) {
                        (true, false) => (1, 0),
                        (false, false) => (-1, 0),
                        (false, true) => (0, 1),
                        (true, true) => (0, -1),
                    };
                    need_add += i32::from(p == 1);
                    need_del += i32::from(m == 1);
                    for (t, v) in [(&mut self.plus, p), (&mut self.minus, m)] {
                        t[at * zp + z] = v + t[up * zp + z] + t[left * zp + z] - t[diag * zp + z];
                    }
                }
                for (t, v) in [(&mut self.plus_cap, need_add), (&mut self.minus_cap, need_del)] {
                    t[at] = v + t[up] + t[left] - t[diag];
                }
            }
        }
    }

    fn best(&mut self) -> Option<CoverUnit> {
        let (r, w, zp) = (self.r, self.r + 1, self.zp);
        let (plus, minus) = (&self.plus[..], &self.minus[..]);
        let (plus_cap, minus_cap) = (&self.plus_cap[..], &self.minus_cap[..]);
        let (a, b) = (&mut self.a[..zp], &mut self.b[..zp]);

        let mut best_gain = 0i32;
        let mut best: Option<(Cuboid, Sign)> = None;
        for x0 in 0..r {
            for x1 in (x0 + 1)..=r {
                let rect = |t: &[i32], y0: usize, y1: usize| {
                    t[y1 * w + x1] + t[y0 * w + x0] - t[y0 * w + x1] - t[y1 * w + x0]
                };
                let bound =
                    |y0: usize, y1: usize| rect(plus_cap, y0, y1).max(rect(minus_cap, y0, y1));
                for y0 in 0..r {
                    if bound(y0, r) <= best_gain {
                        break;
                    }
                    for y1 in (y0 + 1)..=r {
                        if bound(y0, y1) <= best_gain {
                            continue;
                        }
                        for (t, out) in [(plus, &mut *a), (minus, &mut *b)] {
                            let col = |y: usize, x: usize| &t[(y * w + x) * zp..][..zp];
                            let (c11, c00, c01, c10) =
                                (col(y1, x1), col(y0, x0), col(y0, x1), col(y1, x0));
                            for z in 0..zp {
                                out[z] = c11[z] + c00[z] - c01[z] - c10[z];
                            }
                        }
                        let mut run_a = 0i32;
                        let mut start_a = 0usize;
                        let mut run_b = 0i32;
                        let mut start_b = 0usize;
                        for z in 0..r {
                            if run_a <= 0 {
                                run_a = 0;
                                start_a = z;
                            }
                            run_a += a[z];
                            if run_a > best_gain {
                                best_gain = run_a;
                                best = Some((
                                    Cuboid { min: [x0, y0, start_a], max: [x1, y1, z + 1] },
                                    Sign::Plus,
                                ));
                            }
                            if run_b <= 0 {
                                run_b = 0;
                                start_b = z;
                            }
                            run_b += b[z];
                            if run_b > best_gain {
                                best_gain = run_b;
                                best = Some((
                                    Cuboid { min: [x0, y0, start_b], max: [x1, y1, z + 1] },
                                    Sign::Minus,
                                ));
                            }
                        }
                    }
                }
            }
        }

        best.map(|(cuboid, sign)| CoverUnit { cuboid, sign, gain: best_gain as usize })
    }
}

/// One greedy step of the per-footprint scan on a fresh workspace.
fn scan_best_cover(object: &VoxelGrid, approx: &VoxelGrid) -> Option<CoverUnit> {
    let mut search = ScanSearch::new(object.dims()[0]);
    search.fill(object, approx);
    search.best()
}

/// A greedy sequence of at most `k` units chosen by `step`.
fn sequence_by(
    object: &VoxelGrid,
    k: usize,
    mut step: impl FnMut(&VoxelGrid, &VoxelGrid) -> Option<CoverUnit>,
) -> CoverSequence {
    let r = object.dims()[0];
    let mut approx = VoxelGrid::cubic(r);
    let mut err = object.count();
    let mut seq = CoverSequence { r, units: Vec::new(), errors: vec![err] };
    while seq.units.len() < k && err > 0 {
        let Some(unit) = step(object, &approx) else {
            break;
        };
        unit.apply(&mut approx);
        err -= unit.gain;
        seq.units.push(unit);
        seq.errors.push(err);
    }
    seq
}

/// `greedy_cover_sequence` driven by the exhaustive step.
fn reference_sequence(object: &VoxelGrid, k: usize) -> CoverSequence {
    sequence_by(object, k, reference_best_cover)
}

/// `greedy_cover_sequence` driven by the per-footprint scan.
fn scan_sequence(object: &VoxelGrid, k: usize) -> CoverSequence {
    let mut search = ScanSearch::new(object.dims()[0]);
    sequence_by(object, k, |object, approx| {
        search.fill(object, approx);
        search.best()
    })
}

/// A grid with each voxel set with probability `eighths / 8`.
fn noise(rng: &mut TestRng, r: usize, eighths: u64) -> VoxelGrid {
    let mut g = VoxelGrid::cubic(r);
    for z in 0..r {
        for y in 0..r {
            for x in 0..r {
                g.set(x, y, z, rng.below(8) < eighths);
            }
        }
    }
    g
}

/// A non-empty random cuboid inside `[0, r)³`.
fn random_box(rng: &mut TestRng, r: usize) -> Cuboid {
    let mut c = Cuboid { min: [0; 3], max: [0; 3] };
    for d in 0..3 {
        let (p, q) = (rng.below(r as u64 + 1) as usize, rng.below(r as u64) as usize);
        // `q` skips `p`, so the two ends differ.
        let q = q + usize::from(q >= p);
        (c.min[d], c.max[d]) = (p.min(q), p.max(q));
    }
    c
}

fn filled(r: usize, boxes: &[Cuboid]) -> VoxelGrid {
    let mut g = VoxelGrid::cubic(r);
    for &cuboid in boxes {
        CoverUnit { cuboid, sign: Sign::Plus, gain: 0 }.apply(&mut g);
    }
    g
}

/// The mirror image of `g` along `axis`.
fn flipped(g: &VoxelGrid, axis: usize) -> VoxelGrid {
    let r = g.dims()[0];
    let mut out = VoxelGrid::cubic(r);
    for mut v in g.iter_set() {
        v[axis] = r - 1 - v[axis];
        out.set(v[0], v[1], v[2], true);
    }
    out
}

/// `g` united with its mirror image along `axis`.
fn mirrored(g: &VoxelGrid, axis: usize) -> VoxelGrid {
    let mut out = flipped(g, axis);
    out.union_with(g);
    out
}

/// One `(object, approx)` pair of the given kind. Kinds 1.. are built so
/// that several cuboids tie for the best gain.
fn grid_pair(kind: usize, r: usize, seed: u64) -> (VoxelGrid, VoxelGrid) {
    let rng = &mut TestRng::from_name(&format!("cover-differential-{seed}"));
    let (d_object, d_approx) = (rng.below(9), rng.below(9));
    let axis = rng.below(3) as usize;
    match kind {
        // Independent noise at densities from empty to full.
        0 => (noise(rng, r, d_object), noise(rng, r, d_approx)),
        // Mirror-symmetric object: every cover has an equal twin.
        1 => (mirrored(&noise(rng, r, d_object.min(3)), axis), VoxelGrid::cubic(r)),
        2 => {
            let boxes = [random_box(rng, r), random_box(rng, r), random_box(rng, r)];
            let object = mirrored(&filled(r, &boxes), axis);
            let approx = mirrored(&filled(r, &boxes[..1]), axis);
            (object, approx)
        }
        // Two equal boxes, the second half a grid further along one axis.
        3 => {
            let half = r / 2;
            let mut a = random_box(rng, r);
            a.min[axis] = a.min[axis].min(half - 1);
            a.max[axis] = a.max[axis].clamp(a.min[axis] + 1, half);
            let mut b = a;
            b.min[axis] += half;
            b.max[axis] += half;
            (filled(r, &[a, b]), VoxelGrid::cubic(r))
        }
        // Nothing left to gain.
        4 => {
            let object = noise(rng, r, d_object);
            (object.clone(), object)
        }
        // Approximation full: only minus covers can gain.
        5 => (noise(rng, r, d_object), filled(r, &[Cuboid { min: [0; 3], max: [r; 3] }])),
        // Box unions, as a greedy sequence meets them mid-way.
        _ => {
            let boxes: Vec<Cuboid> = (0..5).map(|_| random_box(rng, r)).collect();
            (filled(r, &boxes[..4]), filled(r, &boxes[2..]))
        }
    }
}

proptest! {
    #[test]
    fn step_is_identical_to_the_reference(kind in 0usize..7, r in 4usize..=17, seed in 0u64..u64::MAX) {
        let (object, approx) = grid_pair(kind, r, seed);
        let got = best_cover(&object, &approx);
        prop_assert_eq!(got, reference_best_cover(&object, &approx), "kind {} r {} seed {}", kind, r, seed);
        prop_assert_eq!(got, scan_best_cover(&object, &approx), "kind {} r {} seed {}", kind, r, seed);
    }

    #[test]
    fn sequence_is_identical_to_the_reference(kind in 0usize..4, r in 4usize..=17, seed in 0u64..u64::MAX) {
        let (object, _) = grid_pair(kind, r, seed);
        prop_assert_eq!(
            greedy_cover_sequence(&object, 9),
            reference_sequence(&object, 9),
            "kind {} r {} seed {}", kind, r, seed
        );
    }
}

#[test]
fn tie_generators_do_produce_ties() {
    // The mirrored and twin-box kinds are only worth their name if the
    // best gain is reached by more than one cuboid: mirroring the object
    // must give the same gain with, somewhere, a different winner.
    let mut moved = 0;
    for seed in 0..40 {
        for kind in [1, 2, 3] {
            let (object, approx) = grid_pair(kind, 8, seed);
            let Some(unit) = best_cover(&object, &approx) else { continue };
            for axis in 0..3 {
                let twin = best_cover(&flipped(&object, axis), &flipped(&approx, axis)).unwrap();
                assert_eq!(twin.gain, unit.gain);
                let mut image = unit.cuboid;
                (image.min[axis], image.max[axis]) =
                    (8 - unit.cuboid.max[axis], 8 - unit.cuboid.min[axis]);
                moved += usize::from(twin.cuboid != image);
            }
        }
    }
    assert!(moved > 20, "only {moved} tie-broken steps");
}

/// Two solids of every aircraft and car family, greebled as the dataset
/// builders do.
fn family_solids() -> Vec<(&'static str, Box<dyn vsim_geom::Solid>)> {
    let families = aircraft::aircraft_families().into_iter().chain(car::car_families());
    let mut rng = StdRng::seed_from_u64(13);
    let mut out = Vec::new();
    for f in families {
        for _ in 0..2 {
            out.push((f.name, standard_greebles((f.gen)(&mut rng), &mut rng)));
        }
    }
    out
}

#[test]
fn sequences_equal_the_reference_on_every_part_family() {
    for (name, solid) in family_solids() {
        let grid = voxelize_solid(solid.as_ref(), 15, NormalizeMode::Uniform).grid;
        assert_eq!(greedy_cover_sequence(&grid, 9), reference_sequence(&grid, 9), "{name}");
    }
}

#[test]
fn padding_lanes_stay_out_of_the_scan() {
    // r = 10, 12, 16 and 20 leave 5, 3, 7 and 3 padding lanes behind each
    // y-row of r + 1 entries.
    let solids = family_solids();
    for r in [10, 12, 16, 20] {
        for (name, solid) in solids.iter().step_by(9) {
            let grid = voxelize_solid(solid.as_ref(), r, NormalizeMode::Uniform).grid;
            assert_eq!(
                greedy_cover_sequence(&grid, 7),
                reference_sequence(&grid, 7),
                "{name} r={r}"
            );
        }
        let (object, approx) = grid_pair(0, r, r as u64);
        assert_eq!(best_cover(&object, &approx), reference_best_cover(&object, &approx), "r={r}");
    }
}

/// Every family, greebled as `build_dataset` greebles it, `seeds` seeds
/// each, at rasters `rs` in `modes`: the sequence of `k` units equals the
/// per-footprint scan's.
fn assert_families_match_the_scan(
    families: Vec<Family>,
    seeds: u64,
    rs: &[usize],
    modes: &[NormalizeMode],
    k: usize,
) {
    for (fi, family) in families.iter().enumerate() {
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(seed * 0x9e37_79b9 + fi as u64);
            let solid = standard_greebles((family.gen)(&mut rng), &mut rng);
            for &r in rs {
                for &mode in modes {
                    let grid = voxelize_solid(solid.as_ref(), r, mode).grid;
                    assert_eq!(
                        greedy_cover_sequence(&grid, k),
                        scan_sequence(&grid, k),
                        "{} seed {seed} r {r} {mode:?}",
                        family.name
                    );
                }
            }
        }
    }
}

const BOTH_MODES: [NormalizeMode; 2] = [NormalizeMode::Uniform, NormalizeMode::PerAxis];

#[test]
fn aircraft_families_equal_the_scan() {
    assert_families_match_the_scan(aircraft::aircraft_families(), 8, &[15, 30, 33], &BOTH_MODES, 7);
}

#[test]
fn car_families_equal_the_scan() {
    assert_families_match_the_scan(car::car_families(), 8, &[15, 30, 33], &BOTH_MODES, 7);
}

// r = 31 is the largest raster whose r³ fits an `i16` lane; r = 32 runs
// in `i32`.

#[test]
fn aircraft_families_equal_the_scan_across_the_lane_switch() {
    assert_families_match_the_scan(aircraft::aircraft_families(), 2, &[31, 32], &BOTH_MODES, 7);
}

#[test]
fn car_families_equal_the_scan_across_the_lane_switch() {
    assert_families_match_the_scan(car::car_families(), 2, &[31, 32], &BOTH_MODES, 7);
}

#[test]
fn extreme_grids_at_r_31_equal_the_scan() {
    // The full cube's first gain, 31³ = 29 791, is the largest an `i16`
    // search meets; the checkerboard admits every footprint to the lanes;
    // the cube without its centre needs a minus unit.
    let r = 31;
    let full = filled(r, &[Cuboid { min: [0; 3], max: [r; 3] }]);
    let mut holed = full.clone();
    holed.set(15, 15, 15, false);
    let mut checkerboard = VoxelGrid::cubic(r);
    for z in 0..r {
        for y in 0..r {
            for x in 0..r {
                checkerboard.set(x, y, z, (x + y + z) % 2 == 0);
            }
        }
    }
    let mut sequences = Vec::new();
    for (name, grid) in [("full", &full), ("checkerboard", &checkerboard), ("holed", &holed)] {
        let seq = greedy_cover_sequence(grid, 7);
        assert_eq!(seq, scan_sequence(grid, 7), "{name}");
        sequences.push(seq);
    }
    assert_eq!(sequences[0].units[0].gain, 31 * 31 * 31);
    let centre = Cuboid { min: [15; 3], max: [16; 3] };
    assert_eq!(sequences[2].units[1], CoverUnit { cuboid: centre, sign: Sign::Minus, gain: 1 });
    assert_eq!(sequences[2].final_error(), 0);
}

#[test]
fn every_family_equals_the_scan_at_r_70() {
    // Rows of 70 voxels take two grid words and nine lane chunks. Three
    // units keep the scan affordable: its later steps cost it 1–4 s each.
    let families = aircraft::aircraft_families().into_iter().chain(car::car_families()).collect();
    assert_families_match_the_scan(families, 1, &[70], &[NormalizeMode::Uniform], 3);
}

/// FNV-1a over every unit of every sequence, and each sequence's length.
fn digest(sequences: impl IntoIterator<Item = CoverSequence>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: usize| {
        for b in (v as u64).to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for seq in sequences {
        eat(seq.units.len());
        for u in &seq.units {
            u.cuboid.min.into_iter().chain(u.cuboid.max).for_each(&mut eat);
            eat(usize::from(u.sign == Sign::Minus));
            eat(u.gain);
        }
    }
    h
}

#[test]
fn the_covers_of_two_datasets_keep_their_digest() {
    // Taken from the per-footprint scan, before the row kernel replaced
    // it: a voxel or cover change that moves any unit of these 80
    // objects moves the digest.
    let covers = |d: vsim_datagen::Dataset| {
        d.objects.into_iter().map(|o| greedy_cover_sequence(&o.grid15, 7)).collect::<Vec<_>>()
    };
    let aircraft = covers(aircraft::aircraft_dataset(7, 64));
    let car = covers(car::car_dataset(8, 16));
    assert_eq!(format!("{:016x}", digest(aircraft)), "041ce1d9c8b06c73");
    assert_eq!(format!("{:016x}", digest(car)), "3603221b8474d5c4");
}

#[test]
fn every_tracked_footprint_raises_the_best() {
    // The lanes admit a footprint to start tracking only when it beats
    // the best. The per-footprint scan ran start-tracking Kadane on
    // ≈ 25 000 footprints an object of these 64; ≈ 61 raised the best
    // (94 at most).
    let parts = aircraft::aircraft_dataset(7, 64);
    for o in &parts.objects {
        let mut search = CoverSearch::<i16>::new(15);
        search.sequence(&o.grid15, 7);
        let [tracked, raised] = search.tracked;
        assert_eq!(tracked, raised, "object {}", o.id);
        assert!(tracked <= 200, "object {}: {tracked} tracked passes", o.id);
    }
}

/// Up to seven greedy steps from `approx` in gain type `G`: after each,
/// the tables and column counts refilled for the unit equal a fresh load
/// of the same `(object, approx)`.
fn assert_refill_equals_a_load<G: Gain>(object: &VoxelGrid, approx: &VoxelGrid, what: &str) {
    let r = object.dims()[0];
    let (mut search, mut approx) = (CoverSearch::<G>::new(r), approx.clone());
    search.load(object, &approx);
    for step in 0..7 {
        let Some(unit) = search.best() else { return };
        search.apply(object, &mut approx, &unit);
        let mut fresh = CoverSearch::<G>::new(r);
        fresh.load(object, &approx);
        assert!(
            search.plus == fresh.plus
                && search.minus == fresh.minus
                && search.need_add == fresh.need_add
                && search.need_del == fresh.need_del,
            "{what}: the tables refilled after step {step} differ from a fresh load"
        );
    }
}

/// [`assert_refill_equals_a_load`] in `i32` and, where `r³` fits, `i16`.
fn assert_refill_equals_a_load_in_both(object: &VoxelGrid, approx: &VoxelGrid, what: &str) {
    assert_refill_equals_a_load::<i32>(object, approx, what);
    if object.dims()[0].pow(3) <= <i16 as Gain>::MAX {
        assert_refill_equals_a_load::<i16>(object, approx, what);
    }
}

#[test]
fn refilled_tables_equal_a_fresh_load() {
    let empty = VoxelGrid::cubic(15);
    for o in &aircraft::aircraft_dataset(7, 64).objects {
        assert_refill_equals_a_load_in_both(&o.grid15, &empty, &format!("object {}", o.id));
    }
    // From a partial or full approximation, and across the lane chunk.
    for kind in 0..7 {
        for r in 4..=17 {
            for seed in 0..2 {
                let (object, approx) = grid_pair(kind, r, seed);
                assert_refill_equals_a_load_in_both(
                    &object,
                    &approx,
                    &format!("kind {kind} r {r} seed {seed}"),
                );
            }
        }
    }
    // On both sides of the lane switch.
    for r in [31, 32] {
        let empty = VoxelGrid::cubic(r);
        for (name, solid) in family_solids().iter().step_by(7) {
            let grid = voxelize_solid(solid.as_ref(), r, NormalizeMode::Uniform).grid;
            assert_refill_equals_a_load_in_both(&grid, &empty, &format!("{name} r {r}"));
        }
        for kind in [2, 5, 6] {
            let (object, approx) = grid_pair(kind, r, 1);
            assert_refill_equals_a_load_in_both(&object, &approx, &format!("kind {kind} r {r}"));
        }
    }
}
