//! Voxelization of solids and triangle meshes into normalized grids.
//!
//! Objects are stored "normalized to the center of the coordinate system"
//! with respect to translation and scaling (Section 3.2); the per-axis
//! scale factors are retained in [`Voxelization`] so that scaling
//! invariance can be (de)activated at query time.

use crate::grid::VoxelGrid;
use vsim_geom::solid::padded_cover;
use vsim_geom::{Aabb, Solid, TriMesh, Vec3};

/// How an object is scaled into the raster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NormalizeMode {
    /// Preserve aspect ratio: the largest extent spans the grid.
    Uniform,
    /// Scale each axis independently so the object spans the grid in all
    /// three dimensions (the paper stores the three scale factors).
    PerAxis,
}

/// A voxelized object together with its normalization parameters.
#[derive(Debug, Clone)]
pub struct Voxelization {
    pub grid: VoxelGrid,
    /// World-space size of one voxel along each axis. Stored so that
    /// scaling invariance is tunable (Section 3.2): comparing
    /// `scale_factors` distinguishes objects of different physical size.
    pub scale_factors: Vec3,
    /// World-space position of the grid corner `(0, 0, 0)`.
    pub origin: Vec3,
}

impl Voxelization {
    /// World-space center of voxel `(x, y, z)`.
    #[cfg(test)]
    fn voxel_center(&self, x: usize, y: usize, z: usize) -> Vec3 {
        self.origin
            + Vec3::new(
                (x as f64 + 0.5) * self.scale_factors.x,
                (y as f64 + 0.5) * self.scale_factors.y,
                (z as f64 + 0.5) * self.scale_factors.z,
            )
    }
}

/// Compute grid origin and voxel size for an object with bounds
/// `[min, max]`, normalized into an `r³` raster with a small margin so
/// the object never touches the raster boundary exactly.
///
/// Panics when the origin or the cell is not finite: a NaN bound, or an
/// extent that overflows to ∞, would otherwise frame an empty grid.
fn framing(min: Vec3, max: Vec3, r: usize, mode: NormalizeMode) -> (Vec3, Vec3) {
    let extent = (max - min).max(Vec3::splat(1e-9));
    let usable = r as f64; // voxels per axis
    let cell = match mode {
        NormalizeMode::Uniform => Vec3::splat(extent.max_elem() / usable),
        NormalizeMode::PerAxis => extent / usable,
    };
    // Center the object in the raster.
    let world_span = Vec3::new(cell.x * usable, cell.y * usable, cell.z * usable);
    let center = (min + max) * 0.5;
    let origin = center - world_span * 0.5;
    assert!(
        origin.is_finite() && cell.is_finite(),
        "cannot voxelize an object whose bounds are not finite: origin {origin:?}, cell {cell:?}"
    );
    (origin, cell)
}

/// The probe coordinates of one axis with origin `o` and cell `c`: voxel
/// `i`'s center, then its two sub-sample positions.
fn axis_probes(o: f64, c: f64, r: usize) -> [Vec<f64>; 3] {
    [0.5, 0.25, 0.75].map(|s| (0..r).map(|i| (o + i as f64 * c) + s * c).collect())
}

/// A row is asked in chunks of up to 32 voxels, so that both x
/// sub-samples of a chunk fit one 64-point call: the 0.25 positions of the
/// chunk, then its 0.75 positions.
const CHUNK: usize = 32;

/// Where one box of the cover meets the probe lattice.
struct BoxProbes {
    /// Per voxel of the y and z axes: bit `k` is set when probe `k` of
    /// [`axis_probes`] lies in the box.
    y: Vec<u8>,
    z: Vec<u8>,
    /// Per chunk: the centers and the sub-sample row of the chunk that lie
    /// in the box, as masks of a `contains_row` call.
    x: Vec<[u64; 2]>,
}

impl BoxProbes {
    fn new(b: &Aabb, [cx, sub_xs]: [&[f64]; 2], ys: &[Vec<f64>; 3], zs: &[Vec<f64>; 3]) -> Self {
        let inside = |v: f64, lo: f64, hi: f64| lo <= v && v <= hi;
        let mask = |xs: &[f64]| {
            xs.iter()
                .enumerate()
                .fold(0u64, |m, (i, &x)| m | u64::from(inside(x, b.min.x, b.max.x)) << i)
        };
        let axis = |p: &[Vec<f64>; 3], lo: f64, hi: f64| -> Vec<u8> {
            (0..p[0].len())
                .map(|i| (0..3).fold(0u8, |m, k| m | u8::from(inside(p[k][i], lo, hi)) << k))
                .collect()
        };
        let x = cx
            .chunks(CHUNK)
            .zip(sub_xs.chunks(2 * CHUNK))
            .map(|(centers, subs)| [mask(centers), mask(subs)])
            .collect();
        BoxProbes { y: axis(ys, b.min.y, b.max.y), z: axis(zs, b.min.z, b.max.z), x }
    }

    /// The calls of row `(y, z)` that meet the box: bit 0 the centers, bit
    /// `1 + 2·kz + ky` the sub-samples at y position `ky` and z position
    /// `kz`, in the order `voxelize_solid` makes them.
    #[inline]
    fn calls(&self, y: usize, z: usize) -> u8 {
        let (y, z) = (self.y[y], self.z[z]);
        let sub_y = (y >> 1) & 3;
        let at = |kz: u8| if z & (2 << kz) != 0 { sub_y << (1 + 2 * kz) } else { 0 };
        (y & z & 1) | at(0) | at(1)
    }
}

/// Voxelize an implicit solid into a normalized `r³` grid.
///
/// Each voxel is probed at its center and, if the center misses, at a
/// 2×2×2 lattice of interior sub-samples; the voxel is set when any
/// probe lies inside. Center-only sampling drops features thinner than
/// one voxel (a door panel or washer can vanish entirely when its plane
/// falls between two center planes); the sub-samples make thin CAD walls
/// robust at the paper's coarse `r = 15` raster.
///
/// The probes go to the solid a row at a time ([`Solid::contains_row`]):
/// one row of centers, then up to four rows of sub-samples for the
/// voxels still unset. A probe is a pure predicate of its point, so the
/// grid does not depend on the order in which they are asked.
///
/// The tree is never asked about a probe outside every box of the
/// solid's [`padded_cover`]: such a probe is outside the solid, so leaving
/// it unasked changes no voxel. Each call's mask keeps only the probes
/// that some box holds, and a call whose mask is empty is not made.
pub fn voxelize_solid(solid: &dyn Solid, r: usize, mode: NormalizeMode) -> Voxelization {
    let b = solid.aabb();
    assert!(!b.is_empty(), "cannot voxelize an empty solid");
    let (origin, cell) = framing(b.min, b.max, r, mode);
    let mut grid = VoxelGrid::cubic(r);
    let [xs, ys, zs] = [(origin.x, cell.x), (origin.y, cell.y), (origin.z, cell.z)]
        .map(|(o, c)| axis_probes(o, c, r));
    let sub_xs: Vec<f64> = (0..r)
        .step_by(CHUNK)
        .flat_map(|x0| {
            let x1 = (x0 + CHUNK).min(r);
            xs[1][x0..x1].iter().chain(&xs[2][x0..x1]).copied()
        })
        .collect();
    let boxes: Vec<BoxProbes> = padded_cover(solid)
        .iter()
        .map(|b| BoxProbes::new(b, [&xs[0], &sub_xs], &ys, &zs))
        .collect();
    let mut slab = Vec::with_capacity(boxes.len());
    for z in 0..r {
        slab.clear();
        slab.extend(boxes.iter().filter(|b| b.z[z] != 0));
        if slab.is_empty() {
            continue;
        }
        for y in 0..r {
            for (chunk, x0) in (0..r).step_by(CHUNK).enumerate() {
                let n = CHUNK.min(r - x0);
                let all = (1u64 << n) - 1;
                // The probes of each of the row's five calls that a box holds.
                let mut ask = [0u64; 5];
                for b in &slab {
                    let (calls, [centers, subs]) = (b.calls(y, z), b.x[chunk]);
                    for (k, a) in ask.iter_mut().enumerate() {
                        if calls >> k & 1 == 1 {
                            *a |= if k == 0 { centers } else { subs };
                        }
                    }
                }
                let mut set = 0;
                if ask[0] != 0 {
                    set = solid.contains_row(&xs[0][x0..x0 + n], ys[0][y], zs[0][z], ask[0]);
                }
                'sub: for (kz, pz) in zs[1..].iter().enumerate() {
                    for (ky, py) in ys[1..].iter().enumerate() {
                        let unset = all & !set;
                        if unset == 0 {
                            break 'sub;
                        }
                        let ask = (unset | unset << n) & ask[1 + 2 * kz + ky];
                        if ask != 0 {
                            let row = &sub_xs[2 * x0..2 * (x0 + n)];
                            let hit = solid.contains_row(row, py[y], pz[z], ask);
                            set |= (hit | hit >> n) & all;
                        }
                    }
                }
                grid.or_row(x0, y, z, set);
            }
        }
    }
    Voxelization { grid, scale_factors: cell, origin }
}

/// Voxelize a *closed* triangle mesh into a normalized `r³` grid:
/// conservative surface rasterization (triangle/box SAT overlap) followed
/// by an exterior flood fill; everything not reachable from outside is
/// interior.
pub fn voxelize_mesh(mesh: &TriMesh, r: usize, mode: NormalizeMode) -> Voxelization {
    let b = mesh.aabb();
    assert!(!b.is_empty(), "cannot voxelize an empty mesh");
    let (origin, cell) = framing(b.min, b.max, r, mode);

    // 1. Surface rasterization. The SAT box is inflated by a relative
    // epsilon so triangles lying *exactly* on a voxel-boundary plane
    // (e.g. a cap coinciding with the outer grid face after
    // normalization) cannot be missed to floating-point rounding — an
    // unsealed cap would let the exterior flood fill leak inside.
    let mut surface = VoxelGrid::cubic(r);
    let half = cell * (0.5 + 1e-7);
    for t in 0..mesh.triangles.len() {
        let tri = mesh.triangle(t);
        // Voxel range overlapped by the triangle's bounding box.
        let tb_min = tri[0].min(tri[1]).min(tri[2]);
        let tb_max = tri[0].max(tri[1]).max(tri[2]);
        // Conservative voxel range: expand by one cell on each side so
        // triangles lying exactly on a voxel-boundary plane still cover
        // the adjacent layers; the SAT test filters precisely.
        let lo = |v: f64, o: f64, c: f64| ((((v - o) / c).floor() - 1.0).max(0.0)) as usize;
        let hi = |v: f64, o: f64, c: f64, n: usize| {
            ((((v - o) / c).floor() as isize) + 2).clamp(0, n as isize) as usize
        };
        let (x0, x1) = (lo(tb_min.x, origin.x, cell.x), hi(tb_max.x, origin.x, cell.x, r));
        let (y0, y1) = (lo(tb_min.y, origin.y, cell.y), hi(tb_max.y, origin.y, cell.y, r));
        let (z0, z1) = (lo(tb_min.z, origin.z, cell.z), hi(tb_max.z, origin.z, cell.z, r));
        for z in z0..z1.min(r) {
            for y in y0..y1.min(r) {
                for x in x0..x1.min(r) {
                    if surface.get(x, y, z) {
                        continue;
                    }
                    let center = origin
                        + Vec3::new(
                            (x as f64 + 0.5) * cell.x,
                            (y as f64 + 0.5) * cell.y,
                            (z as f64 + 0.5) * cell.z,
                        );
                    if tri_box_overlap(center, half, &tri) {
                        surface.set(x, y, z, true);
                    }
                }
            }
        }
    }

    // 2. Exterior flood fill (6-connectivity) from all boundary voxels.
    let mut exterior = VoxelGrid::cubic(r);
    let mut stack: Vec<[usize; 3]> = Vec::new();
    let push = |g: &mut VoxelGrid,
                s: &mut Vec<[usize; 3]>,
                x: usize,
                y: usize,
                z: usize,
                surf: &VoxelGrid| {
        if !surf.get(x, y, z) && !g.get(x, y, z) {
            g.set(x, y, z, true);
            s.push([x, y, z]);
        }
    };
    for a in 0..r {
        for b2 in 0..r {
            for (x, y, z) in
                [(0, a, b2), (r - 1, a, b2), (a, 0, b2), (a, r - 1, b2), (a, b2, 0), (a, b2, r - 1)]
            {
                push(&mut exterior, &mut stack, x, y, z, &surface);
            }
        }
    }
    while let Some([x, y, z]) = stack.pop() {
        let (xi, yi, zi) = (x as isize, y as isize, z as isize);
        for d in [[1isize, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]] {
            let (nx, ny, nz) = (xi + d[0], yi + d[1], zi + d[2]);
            if nx < 0 || ny < 0 || nz < 0 {
                continue;
            }
            let (nx, ny, nz) = (nx as usize, ny as usize, nz as usize);
            if nx >= r || ny >= r || nz >= r {
                continue;
            }
            push(&mut exterior, &mut stack, nx, ny, nz, &surface);
        }
    }

    // 3. Object = everything that is not exterior.
    let mut grid = VoxelGrid::cubic(r);
    for z in 0..r {
        for y in 0..r {
            for x in 0..r {
                if !exterior.get(x, y, z) {
                    grid.set(x, y, z, true);
                }
            }
        }
    }
    Voxelization { grid, scale_factors: cell, origin }
}

/// Triangle / axis-aligned-box overlap test (Akenine-Möller separating
/// axis test: 3 box normals, the triangle normal, and 9 edge cross
/// products).
pub fn tri_box_overlap(box_center: Vec3, box_half: Vec3, tri: &[Vec3; 3]) -> bool {
    let v0 = tri[0] - box_center;
    let v1 = tri[1] - box_center;
    let v2 = tri[2] - box_center;
    let e0 = v1 - v0;
    let e1 = v2 - v1;
    let e2 = v0 - v2;
    let h = box_half;

    // 1. Box normals (AABB of the triangle vs the box).
    for ax in 0..3 {
        let (lo, hi) = min_max(v0[ax], v1[ax], v2[ax]);
        if lo > h[ax] || hi < -h[ax] {
            return false;
        }
    }

    // 2. Triangle normal.
    let n = e0.cross(e1);
    let d = n.dot(v0);
    let rad = h.x * n.x.abs() + h.y * n.y.abs() + h.z * n.z.abs();
    if d.abs() > rad {
        return false;
    }

    // 3. Nine cross-product axes a = e_i × unit_j.
    let edges = [e0, e1, e2];
    let verts = [v0, v1, v2];
    for (i, e) in edges.iter().enumerate() {
        for j in 0..3 {
            let mut axis = Vec3::ZERO;
            match j {
                0 => {
                    axis.y = -e.z;
                    axis.z = e.y;
                }
                1 => {
                    axis.x = e.z;
                    axis.z = -e.x;
                }
                _ => {
                    axis.x = -e.y;
                    axis.y = e.x;
                }
            }
            // Project the two non-edge vertices (projections of the edge's
            // endpoints coincide); projecting all three is also correct.
            let p0 = verts[i].dot(axis);
            let p1 = verts[(i + 2) % 3].dot(axis);
            let (lo, hi) = if p0 < p1 { (p0, p1) } else { (p1, p0) };
            let rad = h.x * axis.x.abs() + h.y * axis.y.abs() + h.z * axis.z.abs();
            if lo > rad || hi < -rad {
                return false;
            }
        }
    }
    true
}

fn min_max(a: f64, b: f64, c: f64) -> (f64, f64) {
    (a.min(b).min(c), a.max(b).max(c))
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use vsim_geom::solid::{CylinderZ, Sphere};
    use vsim_geom::SolidExt;

    #[test]
    fn tri_box_basic_cases() {
        let tri = [Vec3::new(-1.0, -1.0, 0.0), Vec3::new(1.0, -1.0, 0.0), Vec3::new(0.0, 1.0, 0.0)];
        // Box straddling the triangle plane and overlapping it.
        assert!(tri_box_overlap(Vec3::ZERO, Vec3::splat(0.5), &tri));
        // Box far away.
        assert!(!tri_box_overlap(Vec3::new(5.0, 0.0, 0.0), Vec3::splat(0.5), &tri));
        // Box just above the triangle plane.
        assert!(!tri_box_overlap(Vec3::new(0.0, 0.0, 1.0), Vec3::splat(0.4), &tri));
        // Box touching only via a corner region near an edge.
        assert!(tri_box_overlap(Vec3::new(0.0, -1.0, 0.0), Vec3::splat(0.3), &tri));
    }

    #[test]
    fn solid_sphere_voxel_volume() {
        let s = Sphere { radius: 1.0 };
        let v = voxelize_solid(&s, 30, NormalizeMode::Uniform);
        let frac = v.grid.count() as f64 / 30f64.powi(3);
        // Sphere inscribed in its bounding cube fills pi/6 of it; the
        // any-inside sub-sampling is slightly dilating (thin-feature
        // robustness), so allow a one-sided bias of a few percent.
        let exact = std::f64::consts::PI / 6.0;
        assert!(frac >= exact - 0.02 && frac <= exact + 0.06, "fill {frac} vs {exact}");
    }

    #[test]
    fn normalization_is_scale_invariant() {
        // The same shape at different physical sizes voxelizes identically.
        let small = Sphere { radius: 1.0 };
        let big = Sphere { radius: 37.5 };
        let a = voxelize_solid(&small, 15, NormalizeMode::Uniform);
        let b = voxelize_solid(&big, 15, NormalizeMode::Uniform);
        assert_eq!(a.grid, b.grid);
        // ... but the stored scale factors differ by exactly the ratio.
        assert!((b.scale_factors.x / a.scale_factors.x - 37.5).abs() < 1e-9);
    }

    #[test]
    fn per_axis_mode_fills_all_dimensions() {
        let flat = vsim_geom::solid::Cuboid::new(Vec3::new(4.0, 1.0, 1.0));
        let u = voxelize_solid(&flat, 16, NormalizeMode::Uniform);
        let p = voxelize_solid(&flat, 16, NormalizeMode::PerAxis);
        let (umin, umax) = u.grid.occupied_bounds().unwrap();
        let (pmin, pmax) = p.grid.occupied_bounds().unwrap();
        // Uniform keeps the aspect ratio: y-range much smaller than x-range.
        assert!(umax[0] - umin[0] > 2 * (umax[1] - umin[1]));
        // Per-axis stretches the object to fill the raster in y too.
        assert_eq!(pmax[1] - pmin[1], pmax[0] - pmin[0]);
    }

    #[test]
    fn mesh_and_solid_voxelizations_agree_for_a_box() {
        let solid = vsim_geom::solid::Cuboid::new(Vec3::new(1.0, 1.5, 2.0));
        let mesh = TriMesh::make_box(Vec3::new(-1.0, -1.5, -2.0), Vec3::new(1.0, 1.5, 2.0));
        let a = voxelize_solid(&solid, 15, NormalizeMode::Uniform);
        let b = voxelize_mesh(&mesh, 15, NormalizeMode::Uniform);
        // Conservative surface rasterization can add a 1-voxel shell;
        // agreement within that tolerance.
        let diff = a.grid.xor_count(&b.grid);
        let surf = a.grid.surface().count();
        assert!(diff <= surf * 2, "diff {diff} exceeds 2x surface voxels {surf}");
        // The solid-based grid must be a subset of the mesh-based one.
        let mut sub = a.grid.clone();
        sub.subtract(&b.grid);
        assert!(
            sub.count() <= surf / 4,
            "solid grid not (nearly) contained in mesh grid: {} stray voxels",
            sub.count()
        );
    }

    #[test]
    fn mesh_voxelization_fills_interior() {
        let mesh = TriMesh::make_sphere(1.0, 16, 24);
        let v = voxelize_mesh(&mesh, 20, NormalizeMode::Uniform);
        // Center voxel must be inside.
        assert!(v.grid.get(10, 10, 10));
        // Interior is nonempty and substantial.
        assert!(v.grid.interior().count() > 500);
        // Corners stay empty.
        assert!(!v.grid.get(0, 0, 0));
        assert!(!v.grid.get(19, 19, 19));
    }

    #[test]
    fn mesh_cylinder_interior_is_sealed() {
        // Regression: the cylinder caps lie exactly on the outer grid
        // faces after normalization; a rounding error in the SAT test
        // once left the top cap unrasterized, letting the flood fill
        // hollow out the whole object.
        let m = TriMesh::make_cylinder(0.8, 2.5, 32);
        let v = voxelize_mesh(&m, 15, NormalizeMode::Uniform);
        assert!(
            v.grid.interior().count() > 100,
            "cylinder interior missing: {} of {} voxels interior",
            v.grid.interior().count(),
            v.grid.count()
        );
        // Both cap layers are solid discs, not rings.
        let disc_filled = |z: usize| v.grid.get(7, 7, z);
        assert!(disc_filled(0), "bottom cap not sealed");
        assert!(disc_filled(14), "top cap not sealed");
    }

    #[test]
    fn hollow_solid_keeps_hole_open() {
        // A tube voxelized: the bore must remain empty.
        let tube = vsim_geom::solid::difference(
            CylinderZ { radius: 1.0, half_height: 1.0 }.boxed(),
            CylinderZ { radius: 0.45, half_height: 1.5 }.boxed(),
        );
        let v = voxelize_solid(tube.as_ref(), 21, NormalizeMode::Uniform);
        let c = 10; // center voxel index
        assert!(!v.grid.get(c, c, c));
        assert!(v.grid.get(c + 8, c, c));
    }

    #[test]
    #[should_panic(expected = "bounds are not finite")]
    fn a_solid_with_a_nan_box_is_refused() {
        // `!is_empty()` holds for a NaN box; it framed 0 voxels at origin NaN.
        voxelize_solid(&Sphere { radius: f64::NAN }, 15, NormalizeMode::Uniform);
    }

    #[test]
    #[should_panic(expected = "bounds are not finite")]
    fn a_solid_whose_extent_overflows_is_refused() {
        // Extent 2e308 = ∞: it framed 0 voxels at origin −∞, cell ∞.
        let huge = vsim_geom::solid::Cuboid::new(Vec3::new(1e308, 1.0, 1.0));
        voxelize_solid(&huge, 15, NormalizeMode::Uniform);
    }

    #[test]
    #[should_panic(expected = "bounds are not finite")]
    fn a_mesh_whose_extent_overflows_is_refused() {
        let huge = TriMesh::make_box(Vec3::new(-1e308, -1.0, -1.0), Vec3::new(1e308, 1.0, 1.0));
        voxelize_mesh(&huge, 15, NormalizeMode::Uniform);
    }

    #[test]
    fn voxel_center_roundtrip() {
        let s = Sphere { radius: 2.0 };
        let v = voxelize_solid(&s, 10, NormalizeMode::Uniform);
        let p = v.voxel_center(0, 0, 0);
        assert!((p - (v.origin + v.scale_factors * 0.5)).norm() < 1e-12);
    }
}
