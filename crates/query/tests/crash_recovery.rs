//! Crash-recovery torture tests for the durable index save path.
//!
//! The harness records the number of page-store operations a real save
//! executes, then replays that save with a simulated crash at *every*
//! operation index. After each crash the file must reopen as either the
//! complete old index or the complete new one — never a torn mix — and
//! the cost-based planner plus the batch executor must return planned
//! k-NN results bit-identical to one of the two complete states.
//!
//! Alongside the matrix: an injected-`ENOSPC` save must fail cleanly
//! (old index intact), a save whose final rename fails must leave no
//! `.tmp` sibling behind, and a corrupt record page must fail exactly
//! the batch queries that touch it while the rest of the shared-pool
//! batch completes with correct results.

use rand::prelude::*;
use std::path::{Path, PathBuf};
use vsim_index::{Fault, FaultPlan, StoreErrorKind};
use vsim_query::{FilterRefineIndex, QueryExecutor};
use vsim_setdist::VectorSet;

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
    std::env::temp_dir().join(format!("vsim_crash_recovery_{tag}_{}.vsix", std::process::id()))
}

struct TempFile(PathBuf);
impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let mut tmp = self.0.file_name().map(|n| n.to_os_string()).unwrap_or_default();
        tmp.push(".tmp");
        let _ = std::fs::remove_file(self.0.with_file_name(tmp));
    }
}

/// Planned k-NN over the whole query workload through the batch
/// executor — the paths the recovery matrix must keep bit-identical.
fn planned_hits(path: &Path, queries: &[VectorSet], k: usize) -> Vec<Vec<(u64, f64)>> {
    let idx = FilterRefineIndex::open(path).expect("recovered file must open");
    let (batch, _) = QueryExecutor::cold().batch_knn_planned(&idx, queries, k);
    for s in &batch.stats {
        assert_eq!(s.error, None, "recovered index must answer without storage errors");
    }
    batch.hits
}

fn bits_equal(a: &[Vec<(u64, f64)>], b: &[Vec<(u64, f64)>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len()
                && x.iter().zip(y).all(|(p, q)| p.0 == q.0 && p.1.to_bits() == q.1.to_bits())
        })
}

#[test]
fn crash_at_every_op_reopens_complete_old_or_complete_new() {
    let old_sets = random_sets(60, 4, 91);
    let new_sets = random_sets(60, 4, 92);
    let old_idx = FilterRefineIndex::build(&old_sets, 6, 4);
    let new_idx = FilterRefineIndex::build(&new_sets, 6, 4);
    // Queries drawn from both generations so old and new answers differ.
    let queries: Vec<VectorSet> = (0..3)
        .map(|i| old_sets[i * 17].clone())
        .chain((0..3).map(|i| new_sets[i * 13].clone()))
        .collect();

    let path = TempFile(temp_index("matrix"));

    // Install the old generation, then snapshot its bytes and its
    // answers: every crashed re-save restarts from this exact state.
    old_idx.save(&path.0).unwrap();
    let old_bytes = std::fs::read(&path.0).unwrap();
    let old_hits = planned_hits(&path.0, &queries, 8);

    // One clean run of the save under test fixes the op count and the
    // complete-new reference answers.
    let total_ops = new_idx.save_with(&path.0, FaultPlan::none()).unwrap();
    assert!(total_ops > 10, "a real save must execute many page-store ops");
    let new_hits = planned_hits(&path.0, &queries, 8);
    assert!(
        !bits_equal(&old_hits, &new_hits),
        "old and new generations must answer differently for the matrix to mean anything"
    );

    // The rename is the commit and comes after the last page-store op,
    // so every crash point rolls back to the old generation.
    for n in 0..total_ops {
        std::fs::write(&path.0, &old_bytes).unwrap();
        let err = new_idx
            .save_with(&path.0, FaultPlan::crash_at(n))
            .expect_err(&format!("crash at op {n} must fail the save"));
        assert_eq!(err.kind(), StoreErrorKind::Crashed, "op {n}");
        // The save under test streams the heap file out in leaf order,
        // page by page; none of those ops may touch the target.
        assert!(std::fs::read(&path.0).unwrap() == old_bytes, "crash at op {n} changed the file");

        let hits = planned_hits(&path.0, &queries, 8);
        assert!(
            bits_equal(&hits, &old_hits),
            "crash at op {n} of {total_ops} did not recover the complete old state"
        );
    }
}

#[test]
fn enospc_during_save_fails_cleanly_and_preserves_the_old_index() {
    let old_sets = random_sets(50, 4, 93);
    let new_sets = random_sets(50, 4, 94);
    let old_idx = FilterRefineIndex::build(&old_sets, 6, 4);
    let new_idx = FilterRefineIndex::build(&new_sets, 6, 4);
    let queries: Vec<VectorSet> = (0..4).map(|i| old_sets[i * 11].clone()).collect();

    let path = TempFile(temp_index("enospc"));
    old_idx.save(&path.0).unwrap();
    let old_bytes = std::fs::read(&path.0).unwrap();
    let old_hits = planned_hits(&path.0, &queries, 6);
    let total_ops = new_idx.save_with(&path.0, FaultPlan::none()).unwrap();

    // The device fills up at every possible point of the save. An
    // ENOSPC plan only bites on allocate/write ops — at read and sync
    // indices the save runs to completion, which is fine — but every
    // bitten save must fail cleanly with the old index intact.
    let mut bitten = 0u64;
    for op in 0..total_ops {
        std::fs::write(&path.0, &old_bytes).unwrap();
        let plan = FaultPlan::none().with_fault(op, Fault::Enospc);
        match new_idx.save_with(&path.0, plan) {
            Ok(_) => continue, // op `op` was not an allocate/write
            Err(err) => {
                assert_eq!(err.kind(), StoreErrorKind::Io, "op {op}");
                bitten += 1;
            }
        }
        let hits = planned_hits(&path.0, &queries, 6);
        assert!(
            bits_equal(&hits, &old_hits),
            "ENOSPC at op {op} must leave the old index untouched"
        );
    }
    assert!(bitten > 0, "no save op was susceptible to ENOSPC");
}

#[test]
fn a_failed_rename_leaves_no_tmp_sibling() {
    // The target path is an existing directory, so every page of the
    // save is written and synced and only the final rename fails.
    let dir = std::env::temp_dir().join(format!("vsim_crash_recovery_dir_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let idx = FilterRefineIndex::build(&random_sets(20, 4, 95), 6, 4);
    let result = idx.save(&dir);
    let mut tmp = dir.clone().into_os_string();
    tmp.push(".tmp");
    let tmp_left_behind = Path::new(&tmp).exists();
    let _ = std::fs::remove_file(&tmp);
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(result.is_err(), "renaming a file over a directory must fail");
    assert!(!tmp_left_behind, "the failed save left its .tmp sibling behind");
}

#[test]
fn a_corrupt_record_page_fails_only_the_queries_that_touch_it() {
    let sets = random_sets(120, 4, 96);
    let built = FilterRefineIndex::build(&sets, 6, 4);
    let path = TempFile(temp_index("isolation"));
    built.save(&path.0).unwrap();

    let queries: Vec<VectorSet> = (0..6).map(|i| sets[i * 19].clone()).collect();
    let baseline = {
        let idx = FilterRefineIndex::open(&path.0).unwrap();
        let batch =
            QueryExecutor::shared(256).run_batch(&queries, |q, ctx| idx.knn_with(q, 4, ctx));
        assert!(batch.failed().is_empty(), "clean file must not error");
        batch.hits
    };

    // Flip one bit in successive data pages until the damage lands in a
    // vector-set record some query refines. Index structures are decoded
    // at open time, so only record reads can be hit at query time.
    let pristine = std::fs::read(&path.0).unwrap();
    let page_size = 4096;
    let data_start = page_size; // the header page
    let mut exercised = false;
    for page in 0..(pristine.len() - data_start) / page_size {
        let mut bytes = pristine.clone();
        bytes[data_start + page * page_size + 100] ^= 0x40;
        std::fs::write(&path.0, &bytes).unwrap();
        let Ok(idx) = FilterRefineIndex::open(&path.0) else {
            continue; // damage hit a structure stream: detected at open
        };
        let batch =
            QueryExecutor::shared(256).run_batch(&queries, |q, ctx| idx.knn_with(q, 4, ctx));
        let failed = batch.failed();
        if failed.is_empty() || failed.len() == queries.len() {
            // Page untouched by this workload, or so central that every
            // query refines a record on it — keep looking for one with
            // partial reach.
            continue;
        }
        for (i, expected) in baseline.iter().enumerate() {
            if failed.contains(&i) {
                assert_eq!(batch.stats[i].error, Some(StoreErrorKind::Corruption));
                assert!(batch.hits[i].is_empty(), "a failed query reports no hits");
            } else {
                assert_eq!(batch.stats[i].error, None);
                assert_eq!(
                    &batch.hits[i], expected,
                    "page {page}: unaffected query {i} must stay bit-identical"
                );
            }
        }
        exercised = true;
        break;
    }
    assert!(exercised, "no data page corruption reached a refined record");
    std::fs::write(&path.0, &pristine).unwrap();
}
