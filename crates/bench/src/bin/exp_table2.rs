//! Table 2 — runtimes for sample 10-NN queries on the Aircraft Dataset:
//! 100 random query objects, three access paths, CPU time plus simulated
//! I/O time (8 ms per page access, 200 ns per byte read).
//!
//! Queries are *invariant* queries exactly as the paper's system poses
//! them (Section 3.2: reflection and 90°-rotation invariance realized by
//! "carrying out 48 different permutations of the query object at
//! runtime"): the index paths execute 48 transformed queries and merge;
//! the sequential scan evaluates the 48-transform minimum in one pass
//! over the file.
//!
//! Paper values (seconds, 100 queries, Xeon 1.7 GHz):
//!   1-Vect.              CPU  142.82   I/O 2632.06   total 2774.88
//!   Vect. Set w. filter  CPU  105.88   I/O  932.80   total 1038.68
//!   Vect. Set seq. scan  CPU 1025.32   I/O  806.40   total 1831.72
//!
//! Shape to reproduce:
//!   (a) the 42-d one-vector X-tree pays by far the largest I/O bill,
//!   (b) the filter step cuts exact-distance CPU ~10x vs. the scan,
//!   (c) total: filter < seq. scan < one-vector.
//!
//! Besides measured 2026 CPU we report a 2003-normalized CPU obtained by
//! charging each distance evaluation the per-evaluation cost implied by
//! the paper's own scan row (see EXPERIMENTS.md).
//!
//! The query workload runs on the [`QueryExecutor`]: the 100 invariant
//! queries fan out across worker threads, each against a cold per-query
//! buffer pool, so the accounting is identical to running them one by
//! one (the cold-cache setting the paper measures).
//!
//! `cargo run --release -p vsim-bench --bin exp_table2`
//! (env: `AIRCRAFT_N`, default 5000)

use rand::prelude::*;
use vsim_bench::{processed_aircraft, OneVectorIndex, SequentialScanIndex};
use vsim_core::prelude::*;
use vsim_features::cover::{transform_feature_vector, transform_vector_set};
use vsim_geom::Mat3;

fn main() {
    let k_covers = 7;
    let n_queries = 100;
    let knn = 10;
    let p = processed_aircraft(k_covers);
    let n = p.len();

    let sets = p.vector_sets(k_covers);
    let vectors = p.cover_vectors(k_covers);

    eprintln!("[setup] building indexes ...");
    let one_vec = OneVectorIndex::build(&vectors);
    let filter = FilterRefineIndex::build(&sets, 6, k_covers);
    let scan = SequentialScanIndex::build(&sets);
    let (pages, supernodes) = one_vec.index_pages();
    eprintln!("[info ] 42-d X-tree: {pages} pages, {supernodes} supernodes");

    let mut rng = StdRng::seed_from_u64(0xdead_beef);
    let queries: Vec<usize> = (0..n_queries).map(|_| rng.gen_range(0..n)).collect();
    let syms = Mat3::cube_symmetries();

    // Each invariant query is a workload of 48 transformed variants; all
    // variants of one query share that query's buffer scope.
    let set_workloads: Vec<Vec<VectorSet>> = queries
        .iter()
        .map(|&q| syms.iter().map(|m| transform_vector_set(&sets[q], m)).collect())
        .collect();
    let vec_workloads: Vec<Vec<Vec<f64>>> = queries
        .iter()
        .map(|&q| syms.iter().map(|m| transform_feature_vector(&vectors[q], m)).collect())
        .collect();

    // The cost-based planner picks the filter pipeline's access path
    // for this dataset; the invariant merge then runs on it.
    let plan = filter.plan_knn(knn);
    eprintln!("[plan ] filter access path: {} ({:.2} ms est/query)", plan.path, plan.chosen_ms());
    for (path, ms) in plan.est_ms {
        eprintln!("[plan ]   {path}: {ms:.2} ms");
    }

    let cm = CostModel::default();
    let ex = QueryExecutor::cold();
    eprintln!(
        "[run  ] {n_queries} x {knn}-NN invariant queries (48 permutations) over {n} objects \
         on {} worker threads ...",
        vsim_parallel::worker_count()
    );
    let b0 = ex.run_batch(&vec_workloads, |v, ctx| one_vec.knn_invariant_with(v, knn, ctx));
    let b1 = ex.run_batch(&set_workloads, |v, ctx| {
        filter.execute(&Query::knn(v, knn).via(plan.path), ctx)
    });
    let b2 = ex.run_batch(&set_workloads, |v, ctx| scan.execute(&Query::knn(v, knn), ctx));
    for (r1, r2) in b1.hits.iter().zip(&b2.hits) {
        for (a, b) in r1.iter().zip(r2) {
            assert!((a.1 - b.1).abs() < 1e-9, "filter/scan results diverge");
        }
    }
    let totals = [b0.aggregate, b1.aggregate, b2.aggregate];

    let paper = [
        ("1-Vect.", 142.82, 2632.06, 2774.88),
        ("Vect. Set w. filter", 105.88, 932.80, 1038.68),
        ("Vect. Set seq. scan", 1025.32, 806.40, 1831.72),
    ];

    // 2003-CPU normalization, calibrated from the paper's own rows:
    //   scan: 1025.32 s / (100 q x 5000 obj x 48 transforms)
    //       = 42.7 us per matching-distance evaluation;
    //   1-Vect: 142.82 s / (100 q x 48 x ~5000 evals) = 6 us per 42-d
    //       Euclidean evaluation (~1/7 of a k=7 matching — consistent).
    const S_PER_MATCHING: f64 = 42.7e-6;
    const S_PER_VEC_EVAL: f64 = 6.0e-6;
    let cpu_2003 = |row: usize, t: &QueryStats| -> f64 {
        match row {
            0 => t.candidates as f64 * S_PER_VEC_EVAL,
            _ => t.refinements as f64 * S_PER_MATCHING,
        }
    };

    println!("\n=== Table 2: runtimes for {n_queries} sample {knn}-NN invariant queries [s] ===");
    println!(
        "{:22} | {:>8} {:>8} {:>8} | {:>8} {:>8} | {:>8} {:>8} | {:>11}",
        "model",
        "paperCPU",
        "paperI/O",
        "paperTot",
        "measCPU",
        "simI/O",
        "2003CPU",
        "2003Tot",
        "dist.evals"
    );
    let mut ours = Vec::new();
    for (row, ((name, pc, pi, pt), t)) in paper.iter().zip(&totals).enumerate() {
        let cpu = t.cpu.as_secs_f64();
        let io = t.io_seconds(&cm);
        let c2003 = cpu_2003(row, t);
        let evals = if row == 0 { t.candidates } else { t.refinements };
        println!(
            "{:22} | {:>8.2} {:>8.2} {:>8.2} | {:>8.3} {:>8.2} | {:>8.2} {:>8.2} | {:>11}",
            name,
            pc,
            pi,
            pt,
            cpu,
            io,
            c2003,
            c2003 + io,
            evals
        );
        ours.push((name, cpu, io, c2003, c2003 + io));
    }

    println!("\nshape checks:");
    let io_ok = ours[0].2 > ours[1].2 && ours[0].2 > ours[2].2;
    println!(
        "  one-vector X-tree has the largest I/O: {}",
        if io_ok { "YES (paper: YES)" } else { "NO (paper: YES)" }
    );
    let cpu_ratio = ours[2].3 / ours[1].3.max(1e-12);
    println!("  filter CPU reduction vs. seq. scan: {:.1}x (paper: 9.7x)", cpu_ratio);
    let meas_ratio = ours[2].1 / ours[1].1.max(1e-12);
    println!("  (measured-CPU reduction on 2026 hardware: {:.1}x)", meas_ratio);
    let beats_onevec = ours[1].4 < ours[0].4;
    println!(
        "  filter total well below one-vector total: {}",
        if beats_onevec { "YES (paper: YES, 2.7x)" } else { "NO (paper: YES)" }
    );
    let ratio_scan = ours[1].4 / ours[2].4.max(1e-12);
    println!(
        "  filter total vs. seq. scan total: {:.2}x (paper: 0.57x; \
         'same order of magnitude' — the paper's own summary). The exact \
         crossover depends on the CPU/I-O balance: with 2003 CPU costs the \
         scan burns ~1000 s CPU, with page-packed sequential reads the scan \
         I/O is cheap; see EXPERIMENTS.md for the discussion.",
        ratio_scan
    );
}
