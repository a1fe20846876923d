//! `cluster`: the paper's own evaluation method — the full pairwise
//! distance matrix, then an OPTICS ordering — on 2000 synthetic sets.
//!
//! `setdist` does nearly everything, through the **unbounded** kernel
//! (`distance_prepared`; k-NN uses the bounded, f32-prefiltered one),
//! `parallel` tiles it, and `index`, `store` and `query` are bypassed:
//! this is the "no change" workload for any index or store
//! optimisation, and the one that shows a kernel change which helps the
//! bounded path but slows the unbounded one.

use super::{Config, Spans, TAIL};
use crate::metrics::{Pieces, Report, Tally};
use crate::stats::{Latencies, Summary};
use crate::synth::Mixture;
use crate::trace::{self, Tracer, ROOT};
use crate::verify;
use std::time::Instant;
use vsim_optics::{pairwise_tiled, ClusterOrdering, CondensedDistanceMatrix, Optics};
use vsim_setdist::{MatchingEngine, MinimalMatching, PreparedSet, VectorSet};

/// Objects: 2 M exact matchings per matrix.
const N: usize = 2000;
const PAIRS: usize = N * (N - 1) / 2;
/// Tile edge of the parallel matrix build, as `ProcessedDataset` uses.
const TILE: usize = 32;
/// Matrix + ordering repetitions of a 10-second run.
const REPS: usize = 8;
/// 1-client rows (one object against all others) after every
/// repetition: a slice. The objects are drawn in blocks of this length,
/// every block with the same make-up (`synth`), and a slice is the rows
/// of one block: all slices are equally hard.
const SLICE_ROWS: usize = 250;
/// Matrix cells checked against `MinimalMatching::distance_value`.
const VERIFY_CELLS: usize = 1000;
/// Child processes of an end-to-end run: a quarter of the repetitions
/// and slices each.
pub const PARTS: usize = 4;
/// Generation and preparation take milliseconds: every part repeats
/// them this often.
const SETUP_REPS: usize = 8;

pub fn describe() -> String {
    format!(
        "{{\"n\": {N}, \"pairs\": {PAIRS}, \"tile\": {TILE}, \"reps\": {REPS}, \"slice_rows\": {SLICE_ROWS}, \
         \"verify_cells\": {VERIFY_CELLS}, \"parts\": {PARTS}, \"setup_reps_per_part\": {SETUP_REPS}}}"
    )
}

struct Built {
    sets: Vec<VectorSet>,
    prepared: Vec<PreparedSet>,
    prepare_ns_per_set: f64,
}

fn build(cfg: &Config) -> Built {
    let sets = Mixture::new(super::K).blocks(cfg.seed, 0, N / SLICE_ROWS, SLICE_ROWS);
    let mm = MinimalMatching::vector_set_model();
    let t = Instant::now();
    let prepared: Vec<PreparedSet> =
        sets.iter().map(|s| PreparedSet::new(s.clone(), &mm)).collect();
    let prepare_ns_per_set = t.elapsed().as_secs_f64() * 1e9 / N as f64;
    Built { sets, prepared, prepare_ns_per_set }
}

/// One repetition: the matrix on `nproc` workers, then the ordering.
/// Returns both and their times in seconds.
fn repetition(
    b: &Built,
    tracer: Option<(&Tracer, u32)>,
) -> (CondensedDistanceMatrix, ClusterOrdering, f64, f64) {
    let (tracer, op) = (tracer.map(|(t, _)| t), tracer.map_or(0, |(_, op)| op));
    let root = tracer.map_or(ROOT, |t| t.begin("cluster.rep", ROOT, op));
    let t = Instant::now();
    let matrix = trace::span(tracer, "optics.pairwise_tiled", root, op, || {
        pairwise_tiled(
            N,
            TILE,
            || MatchingEngine::new(MinimalMatching::vector_set_model()),
            |engine, i, j| engine.distance_prepared(&b.prepared[i], &b.prepared[j]),
        )
    });
    let matrix_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let ordering = trace::span(tracer, "optics.run_matrix", root, op, || {
        Optics::default().run_matrix(&matrix)
    });
    let order_s = t.elapsed().as_secs_f64();
    if let Some(t) = tracer {
        t.end(root);
    }
    (matrix, ordering, matrix_s, order_s)
}

/// One client: object `i` against every other, as OPTICS asks for a
/// neighbourhood when no matrix is kept; one object after the other.
struct Rows {
    engine: MatchingEngine,
    latencies: Latencies,
    next: usize,
    sink: f64,
}

impl Rows {
    fn new() -> Self {
        Rows {
            engine: MatchingEngine::new(MinimalMatching::vector_set_model()),
            latencies: Latencies::with_capacity(N),
            next: 0,
            sink: 0.0,
        }
    }

    fn run(&mut self, b: &Built, count: usize) {
        for _ in 0..count {
            let i = self.next % N;
            self.next += 1;
            let t = Instant::now();
            for j in 0..N {
                if j != i {
                    self.sink += self.engine.distance_prepared(&b.prepared[i], &b.prepared[j]);
                }
            }
            self.latencies.push(t.elapsed());
        }
        std::hint::black_box(self.sink);
        self.latencies.end_slice();
    }
}

/// Sampled cells against the reference matching, and the ordering must
/// be a permutation of the objects.
fn verify_outputs(
    tally: &mut impl Tally,
    cfg: &Config,
    b: &Built,
    m: &CondensedDistanceMatrix,
    o: &ClusterOrdering,
) {
    let mm = MinimalMatching::vector_set_model();
    let mut state = (cfg.seed + cfg.part as u64) | 1;
    for _ in 0..VERIFY_CELLS / cfg.parts {
        // xorshift: two distinct objects per cell, seeded.
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % N as u64) as usize
        };
        let (i, j) = (next(), next());
        let ok = i == j || verify::close(m.get(i, j), mm.distance_value(&b.sets[i], &b.sets[j]));
        tally.ops(1, u64::from(!ok));
    }
    let mut seen = vec![false; N];
    o.order.iter().for_each(|&i| seen[i] = true);
    tally.ops(1, u64::from(o.len() != N || seen.contains(&false)));
}

/// One part of an end-to-end run: `SETUP_REPS` set-ups, then this
/// part's share of the repetitions and rows.
pub fn timed(cfg: &Config, pieces: &mut Pieces) {
    let mut b = None;
    for _ in 0..SETUP_REPS {
        drop(b.take());
        let t = Instant::now();
        b = Some(build(cfg));
        pieces.push("setup_s", t.elapsed().as_secs_f64());
    }
    let b = b.expect("at least one set-up");
    repetition(&b, None); // warm-up: thread stacks, the matrix allocation

    // A repetition on `nproc` workers, then a slice of 1-client rows:
    // both metrics sample the whole part.
    let reps = cfg.pieces(REPS);
    let mut rows = Rows::new();
    let mut last = None;
    for _ in 0..reps {
        let (m, o, matrix_s, _) = repetition(&b, None);
        pieces.push("ops_per_s", PAIRS as f64 / matrix_s);
        last = Some((m, o));
        rows.run(&b, SLICE_ROWS);
    }
    pieces.ops((reps + rows.latencies.len()) as u64, 0);
    pieces.extend("p50_ms", rows.latencies.per_slice(0.5));
    let (m, o) = last.expect("at least one repetition");
    verify_outputs(pieces, cfg, &b, &m, &o);
}

/// The traced run: per-layer metrics and the span buffer.
pub fn traced(cfg: &Config, report: &mut Report) -> Spans {
    let b = build(cfg);
    report.set("setdist.prepare_ns_per_set", b.prepare_ns_per_set);
    repetition(&b, None);
    let reps = cfg.scaled(REPS / 2).max(1);
    let wall = |traced: Option<&Tracer>| {
        let mut out = Vec::with_capacity(reps);
        for r in 0..reps {
            let t = Instant::now();
            let (m, o, matrix_s, order_s) = repetition(&b, traced.map(|t| (t, r as u32)));
            out.push((t.elapsed().as_secs_f64(), matrix_s, order_s, m, o));
        }
        out
    };
    let mut plain: Vec<f64> = wall(None).iter().map(|r| r.0).collect();
    let tracer = Tracer::new(Instant::now(), 3 * reps);
    let traced = wall(Some(&tracer));
    report.ops(2 * reps as u64, 0);
    let mut walls: Vec<f64> = traced.iter().map(|r| r.0).collect();
    let cluster_s = Summary::of(&mut walls);
    report.put("cluster.cluster_s", cluster_s);
    report.set("trace.overhead_frac", cluster_s.median / Summary::of(&mut plain).median - 1.0);
    let mut rates: Vec<f64> = traced.iter().map(|r| PAIRS as f64 / r.1).collect();
    let pairs_per_s = Summary::of(&mut rates);
    report.put("cluster.pairs_per_s", pairs_per_s);
    let mut order_s: Vec<f64> = traced.iter().map(|r| r.2).collect();
    report.put("optics.order_s", Summary::of(&mut order_s));

    let mut rows = Rows::new();
    rows.run(&b, cfg.scaled(REPS) * SLICE_ROWS / 4);
    report.ops(rows.latencies.len() as u64, 0);
    let row_ms = rows.latencies.percentile(0.5).median;
    report.put("client.p95_ms", rows.latencies.percentile(TAIL));
    let per_pair_ns = row_ms * 1e6 / (N - 1) as f64;
    report.set("setdist.full_ns_per_pair", per_pair_ns);
    report.set("parallel.tile_speedup", pairs_per_s.median * per_pair_ns / 1e9);

    let spans = tracer.into_spans();
    let totals = trace::totals(&spans);
    let rep = totals["cluster.rep"];
    report.set("trace.share_sum", 1.0 - rep.self_ns as f64 / rep.total_ns as f64);
    report.set("trace.spans", spans.len() as f64);
    let (_, _, _, m, o) = traced.last().expect("at least one repetition");
    verify_outputs(report, cfg, &b, m, o);
    vec![spans]
}
