//! `FilterRefineIndex::build` packs its X-tree of centroids; the
//! reference here is the same index built by inserting every set one at
//! a time, which splits nodes and grows supernodes as a dynamic index
//! does. A query's hits and its loop counters depend on the centroid
//! ranking alone, never on the shape of the tree that serves it, so the
//! two builds must agree bit for bit: on both access paths, for k-NN
//! and ε-range, in memory and after `save` / `open`.

use rand::prelude::*;
use std::path::PathBuf;
use std::slice::from_ref;
use vsim_query::{AccessPath, FilterRefineIndex, Query};
use vsim_setdist::VectorSet;

/// Cardinality bound of every set.
const K: usize = 5;
const PATHS: [AccessPath; 2] = [AccessPath::XTreeCursor, AccessPath::SeqScan];

fn random_set(rng: &mut StdRng) -> VectorSet {
    let mut s = VectorSet::new(6);
    for _ in 0..rng.gen_range(1..=K) {
        let v: Vec<f64> = (0..6).map(|_| rng.gen_range(0.05..1.0)).collect();
        s.push(&v);
    }
    s
}

fn random_sets(n: usize, seed: u64) -> Vec<VectorSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| random_set(&mut rng)).collect()
}

/// `n` sets, each an exact copy of one of `groups` random sets: a query
/// meets whole groups tied at equal centroid and exact distance, which
/// each tree hands out in an order of its own.
fn duplicated_sets(n: usize, groups: usize, seed: u64) -> Vec<VectorSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool: Vec<VectorSet> = (0..groups).map(|_| random_set(&mut rng)).collect();
    (0..n).map(|_| pool[rng.gen_range(0..groups)].clone()).collect()
}

/// The reference build: an empty index, then every set inserted.
fn inserted(sets: &[VectorSet]) -> FilterRefineIndex {
    let mut idx = FilterRefineIndex::build(&[], 6, K);
    for (i, s) in sets.iter().enumerate() {
        assert_eq!(idx.insert(s).unwrap(), i as u64);
    }
    idx
}

struct TempFile(PathBuf);
impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// `idx` saved to a page file and opened again through `pread`.
fn reopened(idx: &FilterRefineIndex, tag: &str) -> (FilterRefineIndex, TempFile) {
    let name = format!("vsim_packed_build_{tag}_{}.vsix", std::process::id());
    let file = TempFile(std::env::temp_dir().join(name));
    idx.save(&file.0).unwrap();
    (FilterRefineIndex::open(&file.0).unwrap(), file)
}

/// What one query answered: its hits as `(id, distance bits)` and the
/// counters `refinements`, `filter_steps`, `pruned`, `f32_prefilter`.
type Answer = (Vec<(u64, u64)>, [u64; 4]);

/// Every query as 10-NN and as an ε-range, on both access paths.
fn answers(idx: &FilterRefineIndex, queries: &[VectorSet]) -> Vec<(String, Answer)> {
    let mut out = Vec::new();
    for (qi, q) in queries.iter().enumerate() {
        for path in PATHS {
            for (kind, query) in
                [("knn", Query::knn(from_ref(q), 10)), ("range", Query::range(from_ref(q), 1.5))]
            {
                let (hits, s) = idx.run(&query.via(path));
                assert!(s.error.is_none(), "q{qi} {kind} {path}: {:?}", s.error);
                let hits: Vec<_> = hits.iter().map(|&(id, d)| (id, d.to_bits())).collect();
                let counters = [s.refinements, s.filter_steps, s.pruned, s.f32_prefilter];
                out.push((format!("q{qi} {kind} {path}"), (hits, counters)));
            }
        }
    }
    out
}

/// Both builds of `sets`, in memory and reopened from a page file, and
/// the files, which are removed when they are dropped.
type Builds = Vec<(&'static str, FilterRefineIndex, FilterRefineIndex)>;

fn both_builds(sets: &[VectorSet], tag: &str) -> (Builds, [TempFile; 2]) {
    let (packed, reference) = (FilterRefineIndex::build(sets, 6, K), inserted(sets));
    let (packed_file, p) = reopened(&packed, &format!("{tag}_packed"));
    let (reference_file, r) = reopened(&reference, &format!("{tag}_inserted"));
    (vec![("memory", packed, reference), ("file", packed_file, reference_file)], [p, r])
}

#[test]
fn packed_and_inserted_builds_answer_random_sets_bit_identically() {
    let sets = random_sets(4000, 41);
    let queries = random_sets(12, 42);
    let (builds, _files) = both_builds(&sets, "random");
    for (backend, packed, reference) in builds {
        let (got, want) = (answers(&packed, &queries), answers(&reference, &queries));
        for ((what, g), (_, w)) in got.iter().zip(&want) {
            assert_eq!(g, w, "{backend} {what}");
        }
    }
}

#[test]
fn packed_and_inserted_builds_rank_exact_duplicates_at_equal_distances() {
    let sets = duplicated_sets(3000, 40, 43);
    let queries: Vec<VectorSet> =
        random_sets(4, 44).into_iter().chain(sets[..4].iter().cloned()).collect();
    let (builds, _files) = both_builds(&sets, "duplicates");
    for (backend, packed, reference) in builds {
        let (got, want) = (answers(&packed, &queries), answers(&reference, &queries));
        for ((what, (g, _)), (_, (w, _))) in got.iter().zip(&want) {
            assert_eq!(g.len(), w.len(), "{backend} {what}: hit counts");
            for (rank, (a, b)) in g.iter().zip(w).enumerate() {
                assert_eq!(a.1, b.1, "{backend} {what}: distance bits at rank {rank}");
            }
        }
    }
}
