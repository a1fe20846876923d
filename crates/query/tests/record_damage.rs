//! A record whose header lies about its shape, on a page whose
//! checksum is *valid*: the page-level integrity check has nothing to
//! object to, so the record decoder is the last line of defence. It
//! must turn the lie into a typed storage error for the queries that
//! refine that record — not a panic in a byte getter, not an absurd
//! allocation — while every other query of the same shared-pool batch
//! completes bit-identically.

use rand::prelude::*;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use vsim_index::{
    checksum, FilePageStore, PageStore, PageStreamReader, PageStreamWriter, StoreErrorKind,
    PAGE_SIZE,
};
use vsim_query::{FilterRefineIndex, QueryExecutor};
use vsim_setdist::VectorSet;

const DIM: usize = 6;

fn random_sets(n: usize, k: usize, seed: u64) -> Vec<VectorSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut s = VectorSet::new(DIM);
            for _ in 0..rng.gen_range(1..=k) {
                let v: Vec<f64> = (0..DIM).map(|_| rng.gen_range(0.05..1.0)).collect();
                s.push(&v);
            }
            s
        })
        .collect()
}

struct TempFile(PathBuf);
impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn read_stream(store: &dyn PageStore, first: u64) -> Vec<u64> {
    let mut bytes = Vec::new();
    PageStreamReader::open(store, first).unwrap().read_to_end(&mut bytes).unwrap();
    bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect()
}

fn write_stream(store: &dyn PageStore, words: &[u64]) -> u64 {
    let mut w = PageStreamWriter::new(store);
    for word in words {
        w.write_all(&word.to_le_bytes()).unwrap();
    }
    w.finish().unwrap().first
}

/// Raise the vector count in record `id`'s header by one, then make the
/// lie consistent with every checksum above it: the page's sum in the
/// heap file's metadata stream, and — both streams being rewritten —
/// the heap file's entry in the index directory and the file's root.
/// Returns false when the header straddles a page boundary.
fn damage_record_header(path: &Path, id: usize) -> bool {
    let store = FilePageStore::open(path).unwrap();
    // Directory stream: tag, k, dim, ω[dim], then the first pages of
    // the X-tree, M-tree, point-file and heap-file streams.
    let mut dir = read_stream(&store, store.root().unwrap());
    let heap_slot = 3 + DIM + 3;
    // Heap-file stream: tag, dim, image first page, image bytes, the
    // offset table (count, then offsets), one checksum per image page.
    let mut heap = read_stream(&store, dir[heap_slot]);
    let (image_first, offsets) = (heap[2], heap[4] as usize);
    let at = heap[5 + id] as usize;
    if at % PAGE_SIZE + 8 > PAGE_SIZE {
        return false;
    }
    let page = at / PAGE_SIZE;
    let mut image = vec![0u8; PAGE_SIZE];
    store.read_into(image_first + page as u64, &mut image).unwrap();
    let n = &mut image[at % PAGE_SIZE + 4];
    *n += 1;
    store.write_page(image_first + page as u64, &image).unwrap();
    heap[5 + offsets + page] = checksum(&image);
    dir[heap_slot] = write_stream(&store, &heap);
    store.set_root(write_stream(&store, &dir));
    store.sync().unwrap();
    true
}

#[test]
fn a_damaged_record_header_fails_only_the_queries_that_refine_it() {
    let sets = random_sets(150, 4, 97);
    let built = FilterRefineIndex::build(&sets, DIM, 4);
    let path = TempFile(
        std::env::temp_dir().join(format!("vsim_record_damage_{}.vsix", std::process::id())),
    );
    let queries: Vec<VectorSet> = (0..8).map(|i| sets[i * 17].clone()).collect();
    let run = |idx: &FilterRefineIndex| {
        QueryExecutor::shared(256).run_batch(&queries, |q, ctx| idx.knn_with(q, 4, ctx))
    };
    built.save(&path.0).unwrap();
    let baseline = run(&FilterRefineIndex::open(&path.0).unwrap());
    assert!(baseline.failed().is_empty(), "clean file must not error");

    // Every query refines its own record (distance 0), so damaging
    // query `victim`'s record must fail at least that query.
    let mut exercised = false;
    for victim in 0..queries.len() {
        built.save(&path.0).unwrap();
        if !damage_record_header(&path.0, victim * 17) {
            continue;
        }
        // Nothing above the record notices: the file opens, every page
        // and stream checksum holds.
        let idx = FilterRefineIndex::open(&path.0).expect("the damage is below every checksum");
        let batch = run(&idx);
        let failed = batch.failed();
        assert!(failed.contains(&victim), "query {victim} refines its own, damaged record");
        for (i, want) in baseline.hits.iter().enumerate() {
            if failed.contains(&i) {
                // Typed, and not a checksum mismatch: the page is intact.
                assert_eq!(batch.stats[i].error, Some(StoreErrorKind::Io));
                assert!(batch.hits[i].is_empty(), "a failed query reports no hits");
            } else {
                assert_eq!(batch.stats[i].error, None);
                assert_eq!(&batch.hits[i], want, "unaffected query {i} must stay bit-identical");
                assert!(
                    want.iter().all(|&(id, _)| id as usize != victim * 17),
                    "query {i} reported the damaged record without decoding it"
                );
            }
        }
        exercised |= failed.len() < queries.len();
    }
    assert!(exercised, "every damaged record was refined by every query");
}
