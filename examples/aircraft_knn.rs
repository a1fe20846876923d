//! k-NN queries over the Aircraft Dataset, comparing the paper's three
//! access paths (Table 2 setting, at configurable scale):
//!
//! 1. one-vector cover-sequence features in a 42-d X-tree,
//! 2. vector sets with the extended-centroid filter step,
//! 3. vector sets by sequential scan.
//!
//! Run with: `cargo run --release --example aircraft_knn [n_objects]`

use std::slice::from_ref;
use vsim_bench::{OneVectorIndex, SequentialScanIndex};
use vsim_core::prelude::*;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(1000);
    let k_covers = 7;
    let n_queries = 20;
    let knn = 10;

    println!("generating {n} synthetic aircraft parts...");
    let data = aircraft_dataset(1, n);
    let labels = data.labels();
    let names = data.class_names.clone();
    let processed = ProcessedDataset::build(data, k_covers);

    let sets = processed.vector_sets(k_covers);
    let vectors = processed.cover_vectors(k_covers);

    println!("building indexes...");
    let one_vec = OneVectorIndex::build(&vectors);
    let filter = FilterRefineIndex::build(&sets, 6, k_covers);
    let scan = SequentialScanIndex::build(&sets);
    let (pages, supernodes) = one_vec.index_pages();
    println!("  42-d X-tree: {pages} pages, {supernodes} supernodes");

    let cm = CostModel::default();
    let mut totals = [QueryStats::default(); 3];
    let queries: Vec<usize> = (0..n_queries).map(|i| (i * 37) % n).collect();

    for &q in &queries {
        let (_, s1) = one_vec.knn(&vectors[q], knn);
        let (r2, s2) = filter.knn(&sets[q], knn);
        let (r3, s3) = scan.run(&Query::knn(from_ref(&sets[q]), knn));
        totals[0].accumulate(&s1);
        totals[1].accumulate(&s2);
        totals[2].accumulate(&s3);
        // Filter and scan must agree exactly.
        for (a, b) in r2.iter().zip(&r3) {
            assert!((a.1 - b.1).abs() < 1e-9, "filter/scan disagree");
        }
    }

    println!("\n{n_queries} x {knn}-NN queries (simulated I/O: 8 ms/page + 200 ns/byte):");
    println!(
        "{:22} {:>10} {:>10} {:>10} {:>12}",
        "access path", "CPU s", "I/O s", "total s", "refinements"
    );
    for (name, t) in
        ["1-Vect (X-tree)", "Vect.Set w. filter", "Vect.Set seq.scan"].iter().zip(&totals)
    {
        println!(
            "{:22} {:>10.3} {:>10.3} {:>10.3} {:>12}",
            name,
            t.cpu.as_secs_f64(),
            t.io_seconds(&cm),
            t.total_seconds(&cm),
            t.refinements
        );
    }

    // Show one query's neighbors with their part families.
    let q = queries[0];
    let (hits, _) = filter.knn(&sets[q], knn);
    println!("\nexample: {knn}-NN of object {q} ({}):", names[labels[q]]);
    for (id, d) in hits {
        println!("  {id:5} {:16} d = {d:.4}", names[labels[id as usize]]);
    }
}
