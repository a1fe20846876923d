#![forbid(unsafe_code)]
//! # vsim-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (Section 5):
//!
//! | binary       | reproduces | paper artifact |
//! |--------------|------------|----------------|
//! | `exp_table1` | % of proper permutations for k ∈ {3,5,7,9} | Table 1 |
//! | `exp_table2` | 10-NN cost: 1-vector X-tree vs. filter vs. scan | Table 2 |
//! | `exp_fig5`   | didactic 2-D reachability plot | Figure 5 |
//! | `exp_fig6`   | volume + solid-angle reachability plots | Figure 6 |
//! | `exp_fig7`   | cover sequence model plots (7 covers) | Figure 7 |
//! | `exp_fig8`   | cover sequence + permutation distance plots | Figure 8 |
//! | `exp_fig9`   | vector set model plots (3 and 7 covers) | Figure 9 |
//! | `exp_fig10`  | cluster-content evaluation of the cuts | Figure 10 |
//!
//! Extension / ablation binaries (DESIGN.md §7):
//!
//! | binary | question |
//! |--------|----------|
//! | `exp_ablation_distances` | matching distance vs. Hausdorff / SMD / (fair) surjection / link — retrieval quality and metric-axiom violations |
//! | `exp_ablation_index` | centroid-filter X-tree vs. M-tree vs. scan across database sizes |
//! | `diag_contrast` | evaluation-noise-free intra/inter contrast and 1-NN accuracy per model |
//!
//! The library holds what only experiments run: Table 2's two baselines,
//! the one-vector X-tree ([`OneVectorIndex`]) and the vector set
//! sequential scan ([`SequentialScanIndex`]), the naive and Korn k-NN
//! baselines, and the rejected set distances ([`setdists`], [`flow`]).
//!
//! Every binary accepts the environment variables `CAR_N` (default 200)
//! and `AIRCRAFT_N` (default 5000) to scale the datasets, writes CSV
//! series to `target/experiments/`, and prints a paper-vs-measured
//! summary. Results are recorded in `EXPERIMENTS.md`.

pub mod flow;
mod onevector;
mod scan;
pub mod setdists;

pub use onevector::OneVectorIndex;
pub use scan::SequentialScanIndex;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use vsim_core::prelude::*;
use vsim_index::{CandidateSource, StoreResult};
use vsim_query::{multi_step_knn, AccessPath, TopK};
use vsim_setdist::{MatchingEngine, PrefilteredDistance};

/// Dataset sizes from the environment (defaults = the paper's sizes).
pub fn car_n() -> usize {
    std::env::var("CAR_N").ok().and_then(|v| v.parse().ok()).unwrap_or(200)
}

pub fn aircraft_n() -> usize {
    std::env::var("AIRCRAFT_N").ok().and_then(|v| v.parse().ok()).unwrap_or(5000)
}

/// Where experiment CSVs land.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("cannot create target/experiments");
    dir
}

/// The standard seeds (fixed so every experiment sees the same data).
pub const CAR_SEED: u64 = 42;
pub const AIRCRAFT_SEED: u64 = 1;

/// Generate + preprocess the Car Dataset. Nothing is cached: every
/// experiment is computed from the code it runs.
pub fn processed_car(k_max: usize) -> ProcessedDataset {
    let n = car_n();
    eprintln!("[setup] generating car dataset (n = {n}) ...");
    let data = car_dataset(CAR_SEED, n);
    eprintln!("[setup] computing cover sequences (k_max = {k_max}) ...");
    ProcessedDataset::build(data, k_max)
}

/// Generate + preprocess the Aircraft Dataset.
pub fn processed_aircraft(k_max: usize) -> ProcessedDataset {
    let n = aircraft_n();
    eprintln!("[setup] generating aircraft dataset (n = {n}) ...");
    let data = aircraft_dataset(AIRCRAFT_SEED, n);
    eprintln!("[setup] computing cover sequences (k_max = {k_max}) ...");
    ProcessedDataset::build(data, k_max)
}

/// Run OPTICS under a model over its condensed distance matrix, with an
/// optional permutation counter. Table 1 hooks into every distance the
/// matrix evaluates: each pair once, `n(n-1)/2` in all. The counting
/// matrix's cells equal [`ProcessedDataset::pairwise_matrix`]'s, so the
/// ordering is the same with or without the counter.
pub fn run_optics(
    p: &ProcessedDataset,
    model: &SimilarityModel,
    min_pts: usize,
    permutation_counter: Option<(&AtomicU64, &AtomicU64)>,
) -> ClusterOrdering {
    let reprs = p.representations(model);
    let matrix = if let Some((needed, total)) = permutation_counter {
        let counted = |_: &mut (), i: usize, j: usize| {
            let out = model
                .match_outcome(&reprs[i], &reprs[j])
                .expect("permutation counting requires a set-based model");
            total.fetch_add(1, Ordering::Relaxed);
            if out.permutation_needed {
                needed.fetch_add(1, Ordering::Relaxed);
            }
            out.cost
        };
        vsim_optics::pairwise_tiled(reprs.len(), 32, || (), counted)
    } else {
        p.pairwise_matrix(model, &reprs)
    };
    Optics { min_pts, eps: f64::INFINITY }.run_matrix(&matrix)
}

/// OPTICS + reachability CSV + ASCII plot + best-cut quality, the common
/// body of the figure experiments.
pub fn figure_run(
    p: &ProcessedDataset,
    model: &SimilarityModel,
    dataset_tag: &str,
    figure_tag: &str,
    min_pts: usize,
) -> CutQuality {
    eprintln!("[run ] OPTICS: {} on {dataset_tag} ...", model.name());
    let ordering = run_optics(p, model, min_pts, None);
    let plot = ReachabilityPlot::from_ordering(&ordering);

    let path = out_dir().join(format!("{figure_tag}_{dataset_tag}.csv"));
    let f = std::fs::File::create(&path).expect("cannot write plot CSV");
    plot.write_csv(std::io::BufWriter::new(f)).expect("CSV write failed");

    println!("\n=== {figure_tag} / {dataset_tag}: {} ===", model.name());
    print!("{}", plot.ascii(100, 10));
    let labels = p.labels();
    let q = best_cut(&ordering, &labels, 4, vsim_optics::DEFAULT_GRID);
    println!(
        "best cut: eps = {:.3}  clusters = {}  noise = {}  purity = {:.3}  F1 = {:.3}  ARI = {:.3}",
        q.eps, q.num_clusters, q.noise, q.purity, q.f1, q.ari
    );
    println!("series written to {}", path.display());
    q
}

/// Pretty table-row helper for the summaries.
pub fn print_quality_table(rows: &[(String, CutQuality)]) {
    println!(
        "\n{:40} {:>9} {:>7} {:>8} {:>8} {:>8}",
        "model / dataset", "clusters", "noise", "purity", "F1", "ARI"
    );
    for (name, q) in rows {
        println!(
            "{:40} {:>9} {:>7} {:>8.3} {:>8.3} {:>8.3}",
            name, q.num_clusters, q.noise, q.purity, q.f1, q.ari
        );
    }
}

pub use vsim_optics::CutQuality;

/// Run a baseline k-NN strategy over `idx`'s X-tree candidate stream for
/// `q` against a cold context, the way `FilterRefineIndex::knn` runs the
/// production one. `card` is the cardinality bound `idx` was built with.
fn baseline_knn(
    idx: &FilterRefineIndex,
    card: usize,
    q: &VectorSet,
    strategy: impl FnOnce(&mut dyn CandidateSource, &QueryContext) -> StoreResult<Vec<(u64, f64)>>,
) -> (Vec<(u64, f64)>, QueryStats) {
    let ctx = QueryContext::ephemeral();
    let t0 = Instant::now();
    let cq = extended_centroid(q, card, &vec![0.0; q.dim()]);
    let hits = idx
        .with_candidate_source(AccessPath::XTreeCursor, &cq, &ctx, |src| strategy(src, &ctx))
        .expect("baselines run on in-memory indexes");
    (hits, ctx.stats(t0.elapsed()))
}

/// The unbounded baseline: the production multi-step loop, but every
/// refinement runs the full matching kernel (`exact_distance`: fresh
/// allocations per call, no early abort). Same candidates, same
/// refinement count, bit-identical hits — the reference of the
/// bit-identity tests.
pub fn knn_naive(
    idx: &FilterRefineIndex,
    card: usize,
    q: &VectorSet,
    kq: usize,
) -> (Vec<(u64, f64)>, QueryStats) {
    baseline_knn(idx, card, q, |src, ctx| {
        multi_step_knn(src, kq, ctx, |id, _upper| {
            Ok(Some(idx.exact_distance(q, &idx.record(id, ctx)?)))
        })
    })
}

/// The batch (Korn-style) multi-step baseline the optimal algorithm
/// improves on: refine the first `kq` candidates of the ranking
/// unbounded, take the largest refined distance `d_max`, then refine
/// *every* candidate whose filter bound is within `d_max`. Correct, and
/// refines a superset of what the optimal loop refines — on every query
/// `refinements(Korn) ≥ refinements(optimal)` with bit-identical hits
/// (asserted by the query integration tests). `model` must be the
/// refinement model of `idx`.
pub fn knn_korn(
    idx: &FilterRefineIndex,
    model: &MinimalMatching,
    card: usize,
    q: &VectorSet,
    kq: usize,
) -> (Vec<(u64, f64)>, QueryStats) {
    let mut engine = MatchingEngine::new(*model);
    baseline_knn(idx, card, q, |src, ctx| {
        let mut result = TopK::new(kq);
        let mut dmax = f64::INFINITY;
        while let Some((id, lower)) = src.next_candidate() {
            ctx.count_filter_steps(1);
            ctx.count_candidates(1);
            if lower > dmax {
                ctx.count_refinements_saved(1);
                break;
            }
            ctx.count_refinements(1);
            let set = idx.record(id, ctx)?;
            if !result.is_full() {
                // Phase 1: unbounded refinement of the kq filter-nearest
                // candidates fixes the conservative cutoff d_max.
                let d = engine.distance(q, &set, f64::INFINITY).value();
                result.push(id, d.expect("unbounded solve cannot prune"));
                dmax = result.bound();
            } else {
                // Phase 2: refine everything the filter cannot exclude
                // at d_max. The optimal loop instead tightens its bound
                // after every refinement — exactly the refinement gap.
                match engine.distance(q, &set, dmax) {
                    PrefilteredDistance::Exact(d) => result.push(id, d),
                    _ => ctx.count_pruned(1),
                }
            }
        }
        Ok(result.into_vec())
    })
}
