//! End-to-end durability: a filter/refine index saved to a real page
//! file and reopened — via `pread` and via mmap — must answer every
//! query class bit-identically to the in-memory index it was built as,
//! with the same loop counters, and the two durable read paths must
//! charge identical simulated I/O. One client's charges through a
//! bounded shared pool are pinned to the count.

use rand::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use vsim_index::{Backend, BufferPool, CacheCounts, FilePageStore, PageStore, QueryContext};
use vsim_query::{AccessPath, FilterRefineIndex, Query, QueryExecutor};
use vsim_setdist::{MinimalMatching, VectorSet};

fn random_sets(n: usize, k: usize, seed: u64) -> Vec<VectorSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let card = rng.gen_range(1..=k);
            let mut s = VectorSet::new(6);
            for _ in 0..card {
                let v: Vec<f64> = (0..6).map(|_| rng.gen_range(0.05..1.0)).collect();
                s.push(&v);
            }
            s
        })
        .collect()
}

fn temp_index(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vsim_file_backed_{tag}_{}.vsix", std::process::id()))
}

struct TempFile(PathBuf);
impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn assert_hits_bit_identical(a: &[(u64, f64)], b: &[(u64, f64)], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: hit counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.0, y.0, "{what}: ids diverge");
        assert_eq!(x.1.to_bits(), y.1.to_bits(), "{what}: distances not bit-identical");
    }
}

#[test]
fn saved_index_answers_every_query_class_bit_identically() {
    let sets = random_sets(300, 5, 71);
    let built = FilterRefineIndex::build(&sets, 6, 5);
    let path = TempFile(temp_index("queries"));
    built.save(&path.0).unwrap();

    let file = FilterRefineIndex::open(&path.0).unwrap();
    let mmap = FilterRefineIndex::open_mmap(&path.0).unwrap();
    assert_eq!(built.backend(), Backend::Memory);
    assert_eq!(file.backend(), Backend::File);
    assert_eq!(mmap.backend(), Backend::Mmap);
    assert_eq!(file.len(), built.len());

    let queries: Vec<VectorSet> = (0..12).map(|i| sets[i * 23].clone()).collect();
    for (qi, q) in queries.iter().enumerate() {
        // k-NN on every access path.
        for ap in [AccessPath::XTreeCursor, AccessPath::SeqScan] {
            let (cb, cf, cp) =
                (QueryContext::ephemeral(), QueryContext::ephemeral(), QueryContext::ephemeral());
            let hb = built.knn_via_with(ap, q, 8, &cb).unwrap();
            let hf = file.knn_via_with(ap, q, 8, &cf).unwrap();
            let hp = mmap.knn_via_with(ap, q, 8, &cp).unwrap();
            assert_hits_bit_identical(&hb, &hf, &format!("knn q{qi} {ap} file"));
            assert_hits_bit_identical(&hb, &hp, &format!("knn q{qi} {ap} mmap"));
            // Identical touch logic → identical loop counters on all
            // media, and identical charging on the two durable ones.
            // Memory = File is *not* claimed for `io`: `save` writes the
            // heap file in X-tree leaf order while the in-memory image
            // stays in id order (`DynamicIndex` appends to it), so the
            // same refinements read other — fewer — heap pages from the
            // file (`saved_layout.rs` pins how many fewer).
            let z = std::time::Duration::ZERO;
            let (sb, sf, sp) = (cb.stats(z), cf.stats(z), cp.stats(z));
            assert_eq!(sf.io, sp.io, "knn q{qi} {ap}: mmap charging diverged");
            for s in [&sf, &sp] {
                assert_eq!(s.refinements, sb.refinements, "knn q{qi} {ap}");
                assert_eq!(s.filter_steps, sb.filter_steps, "knn q{qi} {ap}");
                assert_eq!(s.pruned, sb.pruned, "knn q{qi} {ap}");
                assert_eq!(s.f32_prefilter, sb.f32_prefilter, "knn q{qi} {ap}");
                assert_eq!(s.distance_evals, sb.distance_evals, "knn q{qi} {ap}");
            }
        }
        // ε-range on the default path, invariant k-NN on the planner's.
        let (rb, _) = built.range_query(q, 0.5);
        let (rf, _) = file.range_query(q, 0.5);
        let (rp, _) = mmap.range_query(q, 0.5);
        assert_hits_bit_identical(&rb, &rf, &format!("range q{qi} file"));
        assert_hits_bit_identical(&rb, &rp, &format!("range q{qi} mmap"));

        let invariant = Query::knn(&queries[qi..(qi + 3).min(queries.len())], 6);
        let ((ib, _), (if_, _), (ip, _)) =
            (built.run(&invariant), file.run(&invariant), mmap.run(&invariant));
        assert_hits_bit_identical(&ib, &if_, &format!("invariant q{qi} file"));
        assert_hits_bit_identical(&ib, &ip, &format!("invariant q{qi} mmap"));
    }
}

/// An index saved under either matching model reopens under it: the
/// 10-NN of every query are the same ids and distance bits in memory,
/// through pread and through mmap, and equal the model's brute-force
/// scan.
#[test]
fn a_reopened_index_answers_under_the_model_it_was_saved_with() {
    let sets = random_sets(300, 5, 78);
    for mm in [MinimalMatching::vector_set_model(), MinimalMatching::permutation_model()] {
        let built = FilterRefineIndex::build(&sets, 6, 5).with_model(mm);
        let path = TempFile(temp_index("model"));
        built.save(&path.0).unwrap();
        let file = FilterRefineIndex::open(&path.0).unwrap();
        let mmap = FilterRefineIndex::open_mmap(&path.0).unwrap();
        for qi in (0..sets.len()).step_by(29) {
            let q = &sets[qi];
            let mut brute: Vec<(u64, f64)> = sets
                .iter()
                .enumerate()
                .map(|(id, s)| (id as u64, mm.distance_value(q, s)))
                .collect();
            brute.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            brute.truncate(10);
            for (medium, idx) in [("memory", &built), ("file", &file), ("mmap", &mmap)] {
                let what = format!("{mm:?} q{qi} {medium}");
                assert_hits_bit_identical(&idx.knn(q, 10).0, &brute, &what);
            }
        }
    }
}

#[test]
fn reopened_index_plans_against_its_real_backend() {
    let sets = random_sets(250, 4, 72);
    let built = FilterRefineIndex::build(&sets, 6, 4);
    let path = TempFile(temp_index("planner"));
    built.save(&path.0).unwrap();
    let file = FilterRefineIndex::open(&path.0).unwrap();

    assert_eq!(built.dataset_stats().backend, Backend::Memory);
    assert_eq!(file.dataset_stats().backend, Backend::File);
    // Durable estimates use measured device constants — far below the
    // simulated 8 ms/page model — without changing the chosen ranking's
    // results.
    let (pm, pf) = (built.plan_knn(8), file.plan_knn(8));
    assert!(pf.chosen_ms() < pm.chosen_ms(), "{} vs {}", pf.chosen_ms(), pm.chosen_ms());
    let q = &sets[17];
    let ctx_m = QueryContext::ephemeral();
    let ctx_f = QueryContext::ephemeral();
    let hm = built.knn_via_with(pm.path, q, 8, &ctx_m).unwrap();
    let hf = file.knn_via_with(pf.path, q, 8, &ctx_f).unwrap();
    assert_hits_bit_identical(&hm, &hf, "planned knn");
}

#[test]
fn executor_batches_are_bit_identical_across_backends() {
    let sets = random_sets(220, 4, 73);
    let built = FilterRefineIndex::build(&sets, 6, 4);
    let path = TempFile(temp_index("executor"));
    built.save(&path.0).unwrap();
    let file = FilterRefineIndex::open(&path.0).unwrap();
    let mmap = FilterRefineIndex::open_mmap(&path.0).unwrap();

    let queries: Vec<VectorSet> = (0..8).map(|i| sets[i * 19].clone()).collect();
    // A bounded shared pool exercises concurrent reads of one durable
    // store, including evictions (so one worker recycles the page
    // buffer of a frame it evicts while another may still hold its
    // image), without perturbing results. Its charges are not compared:
    // which of two racing workers takes a fault (and pays the bytes of
    // its own record), and so what is evicted and read again, is
    // scheduling, not backend. Per-query pools charge deterministically.
    for (ex, bounded) in [(QueryExecutor::cold(), false), (QueryExecutor::shared(8), true)] {
        let [bm, bf, bp] = [&built, &file, &mmap]
            .map(|idx| ex.run_batch(&queries, |q, ctx| idx.knn_with(q, 6, ctx)));
        for i in 0..queries.len() {
            assert_hits_bit_identical(&bm.hits[i], &bf.hits[i], &format!("batch q{i} file"));
            assert_hits_bit_identical(&bm.hits[i], &bp.hits[i], &format!("batch q{i} mmap"));
        }
        if bounded {
            assert!(bf.aggregate.cache.evictions > 0, "the shared pool evicts");
        } else {
            assert_eq!(bf.aggregate.io, bp.aggregate.io, "file/mmap batches charge alike");
        }
    }
}

#[test]
fn open_rejects_a_missing_or_damaged_file() {
    let path = TempFile(temp_index("damaged"));
    assert!(FilterRefineIndex::open(&path.0).is_err(), "missing file must not open");

    let sets = random_sets(60, 3, 74);
    FilterRefineIndex::build(&sets, 6, 3).save(&path.0).unwrap();
    // Truncating the tail must surface as an error, not wrong answers.
    let full = std::fs::read(&path.0).unwrap();
    std::fs::write(&path.0, &full[..full.len() / 2]).unwrap();
    assert!(FilterRefineIndex::open(&path.0).is_err(), "truncated file must not open");
}

#[test]
fn an_opened_index_file_is_never_written() {
    let sets = random_sets(80, 3, 75);
    let path = TempFile(temp_index("read_only"));
    FilterRefineIndex::build(&sets, 6, 3).save(&path.0).unwrap();
    let saved = std::fs::read(&path.0).unwrap();
    {
        let mut file = FilterRefineIndex::open(&path.0).unwrap();
        let mut mmap = FilterRefineIndex::open_mmap(&path.0).unwrap();
        assert!(file.insert(&sets[0]).is_err(), "insert into a pread-opened index");
        assert!(mmap.insert(&sets[0]).is_err(), "insert into an mmap-opened index");
        assert_eq!((file.len(), mmap.len()), (80, 80), "a refused insert adds nothing");

        let store = FilePageStore::open(&path.0).unwrap();
        assert!(store.allocate(1).is_err(), "allocate in an opened page file");
        assert!(store.write_page(0, &[0xaa; 16]).is_err(), "write to an opened page file");
        store.set_root(0);
        assert!(store.sync().is_err(), "re-commit of an opened page file");
    }
    assert!(std::fs::read(&path.0).unwrap() == saved, "the saved bytes changed");
}

/// The charges of one client through a bounded shared pool, pinned.
/// With one client, which frame a miss evicts depends only on the order
/// of touches, so the hits, misses and evictions of a fixed query
/// sequence are a function of the pool's policy. The constants were
/// recorded with the shard-local exact LRU: a policy or charging change
/// that moves any of them shows here before it shows as a benchmark's
/// fault rate. A page's shard hashes its page number, not its store's
/// process-wide id, so the tests beside this one do not move them.
#[test]
fn single_client_charges_through_a_bounded_pool_are_pinned() {
    // 8 000 sets save to well over 256 pages, so the pool (8 shards of
    // 32 frames, the `knn_file` shape) evicts on most misses.
    let sets = random_sets(8000, 5, 76);
    let path = TempFile(temp_index("fault_pin"));
    FilterRefineIndex::build(&sets, 6, 5).save(&path.0).unwrap();
    let file = FilterRefineIndex::open(&path.0).unwrap();
    assert_eq!(file.backend(), Backend::File);

    let pool = BufferPool::new(256);
    let mut summed = CacheCounts::default();
    for q in &random_sets(64, 5, 77) {
        let ctx = QueryContext::with_pool(Arc::clone(&pool));
        file.knn_with(q, 10, &ctx).unwrap();
        summed = summed + ctx.stats(std::time::Duration::ZERO).cache;
    }
    assert_eq!(pool.stats().counts, summed, "pool totals are the queries' sum");
    assert_eq!(summed, CacheCounts { hits: 101_740, misses: 7_102, evictions: 6_846 });
}

/// A record that is not there — deleted, or never stored — is a typed
/// `NotFound` error, not a panic, in memory and on a reopened file. (A
/// reopened index is read-only and a tombstoned one cannot be saved,
/// so on a file the missing id is one past the end.)
#[test]
fn record_of_a_deleted_or_unknown_id_is_not_found() {
    let sets = random_sets(40, 5, 79);
    let mut built = FilterRefineIndex::build(&sets, 6, 5);
    let path = TempFile(temp_index("not_found"));
    built.save(&path.0).unwrap();
    let file = FilterRefineIndex::open(&path.0).unwrap();
    let mmap = FilterRefineIndex::open_mmap(&path.0).unwrap();
    assert!(built.delete(7).unwrap());

    let not_found = |idx: &FilterRefineIndex, id: u64| {
        let err = idx.record(id, &QueryContext::ephemeral()).unwrap_err();
        assert_eq!(err.io_kind(), std::io::ErrorKind::NotFound, "id {id}: {err}");
    };
    not_found(&built, 7);
    for idx in [&built, &file, &mmap] {
        not_found(idx, sets.len() as u64);
        not_found(idx, u64::MAX);
        assert_eq!(idx.record(8, &QueryContext::ephemeral()).unwrap(), sets[8]);
    }
}
