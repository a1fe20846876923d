//! The benchmark's own input generator: vector sets shaped like the
//! ones the cover pipeline produces, without the pipeline's cost.
//!
//! Cover extraction costs about 11 ms of CPU per object, so real data
//! cannot reach n = 50 000 inside a run. `synth_sets` draws from a
//! skewed mixture of part-family prototypes instead: every family is
//! 2–7 six-dimensional covers `[px, py, pz, ex, ey, ez]` (positions in
//! `[-0.5, 0.5]`, extents in `(0, 1]`, the first cover the part's bulk,
//! later ones smaller details — the order the greedy cover search
//! emits), every object is its family's prototype with Gaussian jitter
//! (part per object, part per vector), and trailing covers are
//! sometimes dropped. The
//! constants below were tuned once so that the filter selectivity of
//! 10-NN at n = 1500 (`synth.refine_frac`) stays within 2× of the real
//! aircraft sets' (`real.refine_frac`); the `ingest` workload prints
//! both so a drift shows.
//!
//! What a 10-NN query costs is set almost wholly by its family and by
//! how many covers it lost: one query in a thousand refines a quarter
//! of the database, a hundred times the median, and the mean over 3000
//! independent draws moves by 6 % with the few of those it holds. So
//! draws come in **blocks** whose make-up is fixed: a block of `len`
//! objects holds every (family, covers kept) pair as often as its
//! probability says, to the object; the seed shuffles the block and
//! jitters every object. Two blocks of one length are equally hard,
//! whatever the seed, up to the jitter.

use rand::prelude::*;
use vsim_setdist::VectorSet;

/// Cover dimension of the vector set model.
pub const DIM: usize = 6;
/// The part catalogue is the same for every seed — like the aircraft
/// families, which are code — so that a workload is equally hard on
/// every seed; the seed draws the parts, the queries and the inserts.
const CATALOGUE_SEED: u64 = 0x6d69_7874_7572_6507;
/// Number of part families in the catalogue.
const FAMILIES: usize = 120;
/// Family `r` has weight `1 / (r + 1)^SKEW`: many fasteners, few wings.
const SKEW: f64 = 0.7;
/// Per-family jitter (standard deviation per coordinate) is drawn
/// uniformly from this range; aircraft families jitter 12–20 % of
/// dimensions that are themselves 0.1–1.0 wide.
const SIGMA: std::ops::Range<f64> = 0.015..0.07;
/// Share of an object's jitter that all its covers have in common (a
/// part that is 10 % longer moves every cover); the rest is drawn per
/// vector. A larger share makes the centroid filter tighter.
const COMMON: f64 = 0.6;
/// Probability that an object loses its last cover (applied repeatedly).
const DROP: f64 = 0.12;

struct Family {
    covers: Vec<[f64; DIM]>,
    sigma: f64,
}

/// Objects of one family that keep their first `cards` covers: the
/// share `upto - (the cell before).upto` of all objects.
struct Cell {
    family: usize,
    cards: usize,
    upto: f64,
}

/// The mixture of part families; objects and queries are seeded draws.
pub struct Mixture {
    families: Vec<Family>,
    /// Every (family, covers kept) pair, dividing `[0, 1)` into
    /// intervals as long as the pair is probable.
    cells: Vec<Cell>,
}

fn gaussian(rng: &mut StdRng) -> f64 {
    // Box–Muller; the vendored rand has no normal distribution.
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let v: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
}

impl Mixture {
    /// The catalogue, with sets of at most `k` covers.
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "a family needs room for at least two covers");
        let mut rng = StdRng::seed_from_u64(CATALOGUE_SEED);
        let mut families = Vec::with_capacity(FAMILIES);
        for _ in 0..FAMILIES {
            let cards = rng.gen_range(2..=k);
            let mut covers = Vec::with_capacity(cards);
            for c in 0..cards {
                // The bulk cover is centred and large; details shrink
                // and move outwards with their rank in the sequence.
                let shrink = 1.0 / (1.0 + c as f64);
                let reach = if c == 0 { 0.05 } else { 0.45 };
                let mut v = [0.0; DIM];
                for (d, slot) in v.iter_mut().enumerate() {
                    *slot = if d < 3 {
                        rng.gen_range(-reach..reach)
                    } else {
                        (rng.gen_range(0.2..1.0) * shrink).max(1.0 / 15.0)
                    };
                }
                covers.push(v);
            }
            families.push(Family { covers, sigma: rng.gen_range(SIGMA) });
        }
        let weight = |r: usize| 1.0 / ((r + 1) as f64).powf(SKEW);
        let total: f64 = (0..FAMILIES).map(weight).sum();
        let mut cells = Vec::new();
        let mut upto = 0.0;
        for (family, f) in families.iter().enumerate() {
            // The last cover goes with probability `DROP`, then the one
            // before it, and so on down to one cover.
            let full = f.covers.len();
            for cards in (1..=full).rev() {
                let lost = DROP.powi((full - cards) as i32);
                let stops = if cards > 1 { 1.0 - DROP } else { 1.0 };
                upto += weight(family) / total * lost * stops;
                cells.push(Cell { family, cards, upto });
            }
        }
        Mixture { families, cells }
    }

    /// One object of `cell`: its family's first `cards` covers, jittered.
    fn draw(&self, cell: &Cell, rng: &mut StdRng) -> VectorSet {
        let (f, cards) = (&self.families[cell.family], cell.cards);
        let mut set = VectorSet::with_capacity(DIM, cards);
        let mut common = [0.0; DIM];
        for c in common.iter_mut() {
            *c = f.sigma * COMMON * gaussian(rng);
        }
        for proto in &f.covers[..cards] {
            let mut v = *proto;
            for (d, x) in v.iter_mut().enumerate() {
                *x += common[d] + f.sigma * (1.0 - COMMON) * gaussian(rng);
                *x = if d < 3 { x.clamp(-0.5, 0.5) } else { x.clamp(1.0 / 15.0, 1.0) };
            }
            set.push(&v);
        }
        set
    }

    /// `blocks` blocks of `len` draws each from stream `stream` of
    /// `seed`: stream 0 is the database, other streams are fresh queries
    /// or inserts. Object `j` of a block is of the cell that holds
    /// `(j + 0.5) / len`, so every block of one length has the same
    /// make-up; the seed shuffles it and jitters the objects.
    pub fn blocks(&self, seed: u64, stream: u64, blocks: usize, len: usize) -> Vec<VectorSet> {
        let mut rng =
            StdRng::seed_from_u64(seed.wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        let last = self.cells.len() - 1;
        let mut makeup: Vec<&Cell> = (0..len)
            .map(|j| {
                let u = (j as f64 + 0.5) / len as f64;
                &self.cells[self.cells.partition_point(|c| c.upto <= u).min(last)]
            })
            .collect();
        let mut out = Vec::with_capacity(blocks * len);
        for _ in 0..blocks {
            makeup.shuffle(&mut rng);
            out.extend(makeup.iter().map(|cell| self.draw(cell, &mut rng)));
        }
        out
    }

    /// One block of `n` draws.
    pub fn sets(&self, seed: u64, stream: u64, n: usize) -> Vec<VectorSet> {
        self.blocks(seed, stream, 1, n)
    }
}
