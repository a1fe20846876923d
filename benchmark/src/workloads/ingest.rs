//! `ingest`: the paper's pipeline end to end on aircraft solids —
//! `voxelize_solid` at r = 15 and r = 30, `greedy_cover_sequence` with
//! k = 7, vector sets — then `FilterRefineIndex::build`, `save`,
//! `open` / `open_mmap` and queries on every backend.
//!
//! `voxel` and `features` do over 90 % of the work; `setdist`, `index`
//! and `store` almost none. Throughput comes from `nproc` workers
//! through the real batch entry points (`aircraft_dataset`,
//! `ProcessedDataset::build`, `vector_sets`), latency from one client
//! calling the same per-object public functions one by one. Both draw
//! the part families in their catalogue proportions, so every window
//! and every seed sees the same mix of wings and rivets.

use super::{Config, Spans, K, KNN, TAIL, VERIFY_QUERIES};
use crate::metrics::{Pieces, Report, Tally};
use crate::stats::{median, Latencies, Summary};
use crate::synth::{Mixture, DIM};
use crate::trace::{self, Tracer, ROOT};
use crate::verify;
use rand::prelude::*;
use std::time::Instant;
use vsim_core::ProcessedDataset;
use vsim_datagen::aircraft::{aircraft_dataset, aircraft_families};
use vsim_datagen::greeble::standard_greebles;
use vsim_datagen::{Family, R_COVER, R_HISTO};
use vsim_features::{greedy_cover_sequence, VectorSetModel};
use vsim_query::FilterRefineIndex;
use vsim_setdist::VectorSet;
use vsim_voxel::{voxelize_solid, NormalizeMode};

/// Windows of `nproc` workers in a 10-second run, over all parts, and
/// as many 1-client slices.
const WINDOWS: usize = 10;
/// Objects per `nproc`-worker window.
const WINDOW_OBJECTS: usize = 64;
/// 1-client objects (latency samples) of a slice.
const SLICE_OBJECTS: usize = 30;
/// Objects of the warm-up pass that set-up times.
const WARMUP_OBJECTS: usize = 16;
/// Set-up takes a tenth of a second: every part repeats it this often.
const SETUP_REPS: u64 = 3;
/// Child processes of an end-to-end run.
pub const PARTS: usize = 5;
/// Objects of the parallel-against-sequential cover comparison.
const SPEEDUP_OBJECTS: usize = 64;

pub fn describe() -> String {
    format!(
        "{{\"window_objects\": {WINDOW_OBJECTS}, \"windows\": {WINDOWS}, \"slice_objects\": {SLICE_OBJECTS}, \
         \"warmup_objects\": {WARMUP_OBJECTS}, \"setup_reps_per_part\": {SETUP_REPS}, \"parts\": {PARTS}, \"speedup_objects\": {SPEEDUP_OBJECTS}}}"
    )
}

/// `n` objects through the batch pipeline on `nproc` workers.
fn batch(seed: u64, n: usize) -> Vec<VectorSet> {
    ProcessedDataset::build(aircraft_dataset(seed, n), K).vector_sets(K)
}

/// Seed of window `w`: distinct per window and per run seed.
fn window_seed(cfg: &Config, w: usize) -> u64 {
    cfg.seed.wrapping_mul(0x1_0000).wrapping_add(w as u64)
}

/// `nproc` workers: windows of `objects` objects each through `batch`.
struct Windows<'a> {
    cfg: &'a Config,
    objects: usize,
    sets: Vec<VectorSet>,
    /// Objects per second of each window.
    rates: Vec<f64>,
}

impl<'a> Windows<'a> {
    fn new(cfg: &'a Config, objects: usize) -> Self {
        Windows { cfg, objects, sets: Vec::new(), rates: Vec::with_capacity(WINDOWS) }
    }

    fn run(&mut self) {
        // Every window of every part draws its own objects.
        let window = self.cfg.part * self.cfg.pieces(WINDOWS) + self.rates.len();
        let t = Instant::now();
        self.sets.extend(batch(window_seed(self.cfg, window), self.objects));
        self.rates.push(self.objects as f64 / t.elapsed().as_secs_f64());
    }

    /// Count the windows' objects; returns the rates and the ingested sets.
    fn finish(self, tally: &mut impl Tally) -> (Vec<f64>, Vec<VectorSet>) {
        let expected = self.rates.len() * self.objects;
        tally.ops(expected as u64, (expected - self.sets.len()) as u64);
        (self.rates, self.sets)
    }
}

/// Family labels for `n` objects in catalogue proportions, shuffled —
/// the stratified assignment `build_dataset` makes.
fn labels(families: &[Family], n: usize, seed: u64) -> Vec<usize> {
    let total: f64 = families.iter().map(|f| f.weight).sum();
    let mut labels = Vec::with_capacity(n);
    let mut acc = 0.0;
    for (label, f) in families.iter().enumerate() {
        acc += f.weight;
        let upto = ((acc / total) * n as f64).round() as usize;
        labels.resize(upto.clamp(labels.len(), n), label);
    }
    labels.resize(n, families.len() - 1);
    labels.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5eed_5eed));
    labels
}

/// One object through the per-object public calls, a span around each.
fn object(family: &Family, seed: u64, tracer: Option<(&Tracer, u32)>) -> VectorSet {
    let (tracer, op) = (tracer.map(|(t, _)| t), tracer.map_or(0, |(_, op)| op));
    let root = tracer.map_or(ROOT, |t| t.begin("ingest.object", ROOT, op));
    let mut rng = StdRng::seed_from_u64(seed);
    let solid = trace::span(tracer, "datagen.solid", root, op, || {
        standard_greebles((family.gen)(&mut rng), &mut rng)
    });
    let grid15 = trace::span(tracer, "voxel.voxelize_r15", root, op, || {
        voxelize_solid(solid.as_ref(), R_COVER, NormalizeMode::Uniform).grid
    });
    // The histogram models' raster: part of every ingested object.
    let grid30 = trace::span(tracer, "voxel.voxelize_r30", root, op, || {
        voxelize_solid(solid.as_ref(), R_HISTO, NormalizeMode::Uniform).grid
    });
    std::hint::black_box(&grid30);
    let sequence =
        trace::span(tracer, "features.cover", root, op, || greedy_cover_sequence(&grid15, K));
    let set = trace::span(tracer, "features.vector_set", root, op, || {
        VectorSetModel::new(K).from_sequence(&sequence)
    });
    if let Some(t) = tracer {
        t.end(root);
    }
    set
}

/// One client: objects one by one through `object`, in slices that
/// each hold the catalogue's family mix.
struct OneClient<'a> {
    families: &'a [Family],
    seed: u64,
    sets: Vec<VectorSet>,
    latencies: Latencies,
}

impl<'a> OneClient<'a> {
    fn new(families: &'a [Family], cfg: &Config) -> Self {
        OneClient {
            families,
            seed: cfg.seed.wrapping_add(0x6f62_6a00 + ((cfg.part as u64) << 32)),
            sets: Vec::new(),
            latencies: Latencies::with_capacity(WINDOWS * SLICE_OBJECTS),
        }
    }

    /// One slice of `count` objects.
    fn run(&mut self, count: usize, tracer: Option<&Tracer>) {
        let slice_seed = self.seed.wrapping_add(self.sets.len() as u64);
        for label in labels(self.families, count, slice_seed) {
            let i = self.sets.len();
            let seed = self.seed.wrapping_add(i as u64 * 0x9e37_79b9);
            let t = Instant::now();
            let set = object(&self.families[label], seed, tracer.map(|t| (t, i as u32)));
            self.latencies.push(t.elapsed());
            self.sets.push(set);
        }
        self.latencies.end_slice();
    }
}

/// Build, save, open and mmap an index over `sets`; run `queries` on
/// the three backends: memory against a brute-force scan, the other two
/// bit-identical to it. Returns the near-tie id count.
fn backends(
    tally: &mut impl Tally,
    cfg: &Config,
    sets: &[VectorSet],
    queries: &[VectorSet],
) -> u64 {
    let path = cfg.scratch("ingest.idx");
    let mem = FilterRefineIndex::build(sets, DIM, K);
    mem.save(&path).expect("save the index");
    let file = FilterRefineIndex::open(&path).expect("reopen the index");
    let mmap = FilterRefineIndex::open_mmap(&path).expect("open_mmap");
    let mut near_ties = 0;
    for q in queries {
        let want = verify::brute_force(
            sets.iter().enumerate().map(|(i, s)| (i as u64, s)),
            q,
            KNN,
            |x, y| mem.exact_distance(x, y),
        );
        let (failed, ties) = verify::check_backends(&[&mem, &file, &mmap], q, KNN, &want);
        tally.ops(3, failed);
        near_ties += ties;
    }
    std::fs::remove_file(&path).expect("remove the scratch index");
    near_ties
}

/// One part of an end-to-end run: set up once, then this part's share
/// of the windows and slices.
pub fn timed(cfg: &Config, pieces: &mut Pieces) {
    // Set-up: the family catalogue and a warm-up pass of the pipeline.
    let mut families = Vec::new();
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        families = aircraft_families();
        std::hint::black_box(batch(cfg.seed ^ 0x7761_726d ^ rep, WARMUP_OBJECTS));
        pieces.push("setup_s", t.elapsed().as_secs_f64());
    }

    // A window of `nproc` workers, then a slice of 1-client objects:
    // both metrics sample the whole part.
    let verified = cfg.verify_range().len();
    let mut windows = Windows::new(cfg, WINDOW_OBJECTS);
    let mut client = OneClient::new(&families, cfg);
    for _ in 0..cfg.pieces(WINDOWS) {
        windows.run();
        client.run(SLICE_OBJECTS, None);
    }
    let (rates, sets) = windows.finish(pieces);
    pieces.extend("ops_per_s", rates);
    pieces.ops(client.sets.len() as u64, 0);
    pieces.extend("p50_ms", client.latencies.per_slice(0.5));
    backends(pieces, cfg, &sets, &client.sets[..verified]);
}

/// Refinements per query and object of 10-NN over `sets`.
fn refine_frac(sets: &[VectorSet], queries: &[VectorSet]) -> f64 {
    let index = FilterRefineIndex::build(sets, DIM, K);
    let refinements: u64 = queries.iter().map(|q| index.knn_planned(q, KNN).1.refinements).sum();
    refinements as f64 / (queries.len() * sets.len()) as f64
}

/// The traced run: per-layer metrics and the span buffer.
pub fn traced(cfg: &Config, report: &mut Report) -> Spans {
    let families = aircraft_families();
    std::hint::black_box(batch(cfg.seed ^ 0x7761_726d, WARMUP_OBJECTS));

    let mut windows = Windows::new(cfg, WINDOW_OBJECTS);
    for _ in 0..cfg.scaled(WINDOWS) / 2 {
        windows.run();
    }
    let (mut rates, mut sets) = windows.finish(report);
    report.put("ingest.objects_per_s", Summary::of(&mut rates));

    // The same objects one by one, untraced then traced.
    let n = (cfg.scaled(WINDOWS) * SLICE_OBJECTS / 4).max(VERIFY_QUERIES);
    let mut plain = OneClient::new(&families, cfg);
    plain.run(n, None);
    let tracer = Tracer::new(Instant::now(), 6 * n);
    let mut traced = OneClient::new(&families, cfg);
    traced.run(n, Some(&tracer));
    report.ops(2 * n as u64, 0);
    report.set("trace.overhead_frac", traced.latencies.total_s() / plain.latencies.total_s() - 1.0);
    report.put("client.p95_ms", plain.latencies.percentile(TAIL));
    let queries = traced.sets;
    let spans = tracer.into_spans();
    report.set("trace.spans", spans.len() as f64);
    let per_object = |name: &str, scale: f64| {
        let mut d: Vec<f64> = trace::durations(&spans, name).iter().map(|ns| ns * scale).collect();
        Summary::of(&mut d)
    };
    report.put("datagen.solid_us_per_obj", per_object("datagen.solid", 1e-3));
    report.put("voxel.voxelize_r15_ms_per_obj", per_object("voxel.voxelize_r15", 1e-6));
    report.put("voxel.voxelize_r30_ms_per_obj", per_object("voxel.voxelize_r30", 1e-6));
    report.put("features.cover_ms_per_obj", per_object("features.cover", 1e-6));
    report.put("features.vector_set_us_per_obj", per_object("features.vector_set", 1e-3));
    let mut covers: Vec<f64> = queries.iter().map(|s| s.len() as f64).collect();
    report.put("features.covers_per_obj", Summary::of(&mut covers));
    let totals = trace::totals(&spans);
    let wall = totals["ingest.object"].total_ns as f64;
    let share =
        |names: &[&str]| names.iter().map(|n| totals[n].total_ns as f64).sum::<f64>() / wall;
    report.set(
        "ingest.voxel_features_share",
        share(&[
            "voxel.voxelize_r15",
            "voxel.voxelize_r30",
            "features.cover",
            "features.vector_set",
        ]),
    );
    report.set("trace.share_sum", 1.0 - totals["ingest.object"].self_ns as f64 / wall);

    // `ProcessedDataset::build` on `nproc` workers against the
    // benchmark's own sequential loop over the same grids.
    let (mut sequential_s, mut parallel_s) = (Vec::new(), Vec::new());
    for rep in 0..3 {
        let dataset = aircraft_dataset((cfg.seed ^ 0x7370_6565) + rep, SPEEDUP_OBJECTS);
        let t = Instant::now();
        for o in &dataset.objects {
            std::hint::black_box(greedy_cover_sequence(&o.grid15, K));
        }
        sequential_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let processed = ProcessedDataset::build(dataset, K);
        parallel_s.push(t.elapsed().as_secs_f64());
        sets.extend(processed.vector_sets(K));
    }
    let parallel = Summary::of(&mut parallel_s);
    report.put("core.processed_build_s", parallel);
    report.set("parallel.ingest_speedup", median(&mut sequential_s) / parallel.median);

    // Is the synthetic generator as selective as real data? Same n,
    // fresh queries on both sides.
    let queries = &queries[..VERIFY_QUERIES];
    report.set("real.refine_frac", refine_frac(&sets, queries));
    let mix = Mixture::new(K);
    let synth_queries = mix.sets(cfg.seed, 1, VERIFY_QUERIES);
    report
        .set("synth.refine_frac", refine_frac(&mix.sets(cfg.seed, 0, sets.len()), &synth_queries));

    let t = Instant::now();
    std::hint::black_box(FilterRefineIndex::build(&sets, DIM, K));
    report.set("query.build_ms", t.elapsed().as_secs_f64() * 1e3);
    let near_ties = backends(report, cfg, &sets, queries);
    report.set("query.near_tie_id_mismatch", near_ties as f64);
    vec![spans]
}
