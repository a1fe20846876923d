//! The five workloads and what they share: the run's configuration and
//! how a run is cut into parts and pieces.
//!
//! Every loop is closed (the next operation starts when the previous
//! one returned) and all load comes from one process at a time on at
//! most `nproc` threads. A piece of a timed phase has a fixed operation
//! count, tuned once and then frozen, and a run has a fixed number of
//! pieces per ten seconds of `--seconds`: two commits do the same work
//! and counters repeat exactly.
//!
//! This sandbox shares its host: for a second or for minutes the same
//! code runs a tenth or a quarter slower. So no number is taken from
//! one stretch of a run, from one process or from one database. An
//! end-to-end run is several **parts**, each a child process that draws
//! inputs of its own from the seed, sets up once and measures its share
//! of like **pieces** — windows of a throughput phase, slices of a
//! latency phase (alternating), blocks of `churn`. Pieces are alike by
//! construction (`synth`: every block of queries or objects has the
//! same make-up); the parent pools the pieces of all parts and reports
//! their median: a rate is the median window, a latency the median over
//! slices of the slice's median, `setup_s` and `peak_rss_mb` the median
//! over parts. No means anywhere. The traced run is one process.

pub mod churn;
pub mod cluster;
pub mod ingest;
pub mod knn;

use crate::metrics::{Pieces, Report};
use crate::synth::DIM;
use crate::trace::Span;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use vsim_index::{MTree, PointFile, StoreResult, VectorSetStore, XTree, PAGE_SIZE};
use vsim_setdist::{extended_centroid, Distance, VectorSet};

/// Covers per vector set (the paper's k = 7).
pub const K: usize = 7;
/// Neighbours per query (Table 2 runs 10-NN).
pub const KNN: usize = 10;
/// Queries checked against brute force after timing, over all parts.
pub const VERIFY_QUERIES: usize = 64;
/// The tail percentile of the 1-client operation (`client.p95_ms`): the
/// highest round one with ten samples beyond it on the workload with
/// the fewest samples (`ingest`). It is a per-layer metric, taken in
/// the traced run's untraced pass, and not an end-to-end one: on a
/// shared host a tail is the host's — runs of the same code read it a
/// quarter apart — and no bound the driver allows holds it.
pub const TAIL: f64 = 0.95;

pub struct Config {
    /// The seed of this process's inputs: the run's `--seed`, moved on
    /// for every part after the first.
    pub seed: u64,
    pub seconds: u64,
    /// `benchmark/out/`: scratch files, traces, results.
    pub out: PathBuf,
    /// This process is part `part` of the run's `parts` (the traced run
    /// is part 0 of 1).
    pub part: usize,
    pub parts: usize,
}

impl Config {
    /// A count tuned for a 10-second run, scaled to this one.
    pub fn scaled(&self, per_10s: usize) -> usize {
        (per_10s * self.seconds as usize / 10).max(1)
    }

    /// This part's pieces of a phase that has `per_10s` of them, over
    /// all parts, in a 10-second run: a longer run measures more pieces
    /// of the same size.
    pub fn pieces(&self, per_10s: usize) -> usize {
        self.share(self.scaled(per_10s))
    }

    /// A scratch file of this part.
    pub fn scratch(&self, name: &str) -> PathBuf {
        self.out.join(format!("part{}_{name}", self.part))
    }

    /// This part's share of a phase's `total` pieces.
    pub fn share(&self, total: usize) -> usize {
        (total / self.parts).max(1)
    }

    /// The queries this part verifies: its share of `VERIFY_QUERIES`,
    /// distinct from the other parts'.
    pub fn verify_range(&self) -> std::ops::Range<usize> {
        let share = VERIFY_QUERIES.div_ceil(self.parts);
        self.part * share..(self.part + 1) * share
    }
}

/// The operation counts and sizes of every workload, as a JSON object
/// for the environment block of a result file.
pub fn loads() -> String {
    format!(
        "{{\"ingest\": {}, \"knn\": {}, \"churn\": {}, \"cluster\": {}}}",
        ingest::describe(),
        knn::describe(),
        churn::describe(),
        cluster::describe()
    )
}

/// The span buffers of the threads a traced run used.
pub type Spans = Vec<Vec<Span>>;

/// Parts (child processes) of an end-to-end run of `seconds` seconds of
/// workload `name`; `None` if the name is not one of the five.
pub fn parts(name: &str, seconds: u64) -> Option<usize> {
    match name {
        "ingest" => Some(ingest::PARTS),
        "knn_mem" | "knn_file" => Some(knn::PARTS),
        "churn" => Some((churn::BLOCKS * seconds as usize / 10).max(1)),
        "cluster" => Some(cluster::PARTS),
        _ => None,
    }
}

/// One part of an end-to-end run of workload `name`.
pub fn timed(name: &str, cfg: &Config, pieces: &mut Pieces) {
    match name {
        "ingest" => ingest::timed(cfg, pieces),
        "knn_mem" => knn::timed(cfg, pieces, false),
        "knn_file" => knn::timed(cfg, pieces, true),
        "churn" => churn::timed(cfg, pieces),
        "cluster" => cluster::timed(cfg, pieces),
        _ => panic!("unknown workload `{name}`"),
    }
}

/// The traced run of workload `name`: its per-layer report and spans.
pub fn traced(name: &'static str, cfg: &Config) -> (Report, Spans) {
    let mut report = Report::new(name, true);
    let spans = match name {
        "ingest" => ingest::traced(cfg, &mut report),
        "knn_mem" => knn::traced(cfg, &mut report, false),
        "knn_file" => knn::traced(cfg, &mut report, true),
        "churn" => churn::traced(cfg, &mut report),
        "cluster" => cluster::traced(cfg, &mut report),
        _ => panic!("unknown workload `{name}`"),
    };
    (report, spans)
}

/// Whether a timed query failed: a storage error or the wrong number of
/// hits. (Distances are checked after timing, on a sample.)
pub fn query_failed(outcome: &StoreResult<Vec<(u64, f64)>>, want_hits: usize) -> bool {
    !matches!(outcome, Ok(hits) if hits.len() == want_hits)
}

/// The extended centroid the filter structures index: k = `K`, ω = 0.
pub fn centroid(set: &VectorSet) -> Vec<f64> {
    extended_centroid(set, K, &[0.0; DIM])
}

/// The four structures of a filter/refine index, built by the benchmark
/// from the same sets as `FilterRefineIndex::build` builds its own.
pub struct Parts {
    pub xtree: XTree,
    pub mtree: MTree<Vec<f64>>,
    pub points: PointFile,
    pub heap: VectorSetStore,
}

/// Build the four structures over `sets`, one timed loop each
/// (`index.build_*_ms`).
pub fn build_parts(report: &mut Report, sets: &[VectorSet]) -> Parts {
    let centroids: Vec<Vec<f64>> = sets.iter().map(centroid).collect();
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let mut xtree = XTree::new(DIM);
    for (i, c) in centroids.iter().enumerate() {
        xtree.insert(c, i as u64);
    }
    report.set("index.build_xtree_ms", ms(t));

    let t = Instant::now();
    let entry_bytes = 8 * DIM + 16;
    let dist: Arc<dyn Distance<Vec<f64>>> = Arc::new(|a: &Vec<f64>, b: &Vec<f64>| {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
    });
    let mut mtree = MTree::new(dist, (PAGE_SIZE / entry_bytes).max(4), entry_bytes);
    for (i, c) in centroids.iter().enumerate() {
        mtree.insert(c.clone(), i as u64);
    }
    report.set("index.build_mtree_ms", ms(t));

    let t = Instant::now();
    let points = PointFile::build(DIM, &centroids);
    report.set("index.build_pointfile_ms", ms(t));

    let t = Instant::now();
    let heap = VectorSetStore::build(sets);
    report.set("index.build_heap_ms", ms(t));
    Parts { xtree, mtree, points, heap }
}
