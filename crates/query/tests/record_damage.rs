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

fn read_stream(store: &dyn PageStore, first: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    PageStreamReader::open(store, first).unwrap().read_to_end(&mut bytes).unwrap();
    bytes
}

fn write_stream(store: &dyn PageStore, bytes: &[u8]) -> u64 {
    let mut w = PageStreamWriter::new(store);
    w.write_all(bytes).unwrap();
    w.finish().unwrap().first
}

/// The `i`-th 8-byte word of a stream.
fn word(stream: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(stream[8 * i..8 * i + 8].try_into().unwrap())
}

fn set_word(stream: &mut [u8], i: usize, v: u64) {
    stream[8 * i..8 * i + 8].copy_from_slice(&v.to_le_bytes());
}

/// Raise the vector count in record `id`'s header by one, then make the
/// lie consistent with every checksum above it: the page's sum in the
/// heap file's metadata stream, and — both streams being rewritten —
/// the heap file's entry in the index directory and the file's root.
/// An opened page file is read-only, so the damage is forged in a copy
/// (a fresh sibling holding the same data pages) that then replaces
/// the file. Returns false when the header straddles a page boundary.
fn damage_record_header(path: &Path, id: usize) -> bool {
    let saved = FilePageStore::open(path).unwrap();
    // Directory stream: tag, k, dim, the matching model, then the first
    // pages of the X-tree, point-file and heap-file streams.
    let mut dir = read_stream(&saved, saved.root().unwrap());
    let heap_entry = 4 + 2;
    // Heap-file stream (v4): tag, dim, image first page, image bytes,
    // the offset table by slot (count, then offsets), one checksum per
    // image page, then the id → slot table (count, then `u32`s). A saved
    // index keeps its records in X-tree leaf order, so the table is
    // there and record `id` starts at the offset of its slot.
    let mut heap = read_stream(&saved, word(&dir, heap_entry));
    let (image_first, total, offsets) =
        (word(&heap, 2), word(&heap, 3) as usize, word(&heap, 4) as usize);
    let sums = 5 + offsets;
    let slots = sums + total.div_ceil(PAGE_SIZE);
    assert_eq!(word(&heap, slots) as usize, offsets - 1, "a saved index has a slot table");
    let entry = 8 * (slots + 1) + 4 * id;
    let slot = u32::from_le_bytes(heap[entry..entry + 4].try_into().unwrap()) as usize;
    let at = word(&heap, 5 + slot) as usize;
    if at % PAGE_SIZE + 8 > PAGE_SIZE {
        return false;
    }
    let copy = path.with_extension("forged");
    let store = FilePageStore::create(&copy, u64::MAX).unwrap();
    let mut image = vec![0u8; PAGE_SIZE];
    store.allocate(saved.page_count()).unwrap();
    for p in 0..saved.page_count() {
        saved.read_into(p, &mut image).unwrap();
        store.write_page(p, &image).unwrap();
    }
    let page = at / PAGE_SIZE;
    store.read_into(image_first + page as u64, &mut image).unwrap();
    let n = &mut image[at % PAGE_SIZE + 4];
    *n += 1;
    store.write_page(image_first + page as u64, &image).unwrap();
    set_word(&mut heap, sums + page, checksum(&image));
    let heap_first = write_stream(&store, &heap);
    set_word(&mut dir, heap_entry, heap_first);
    store.set_root(write_stream(&store, &dir));
    store.sync().unwrap();
    std::fs::rename(&copy, path).unwrap();
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
