//! What `save` buys, in counts: a saved index keeps its heap file in
//! X-tree leaf order, so the records a query refines one after another
//! — ascending in centroid distance — share pages, where the in-memory
//! image (id order) spreads them over the file. On a clustered dataset
//! the reopened index must read markedly fewer heap pages for the same
//! refinements. Pages, not wall time: the numbers repeat exactly.

use rand::prelude::*;
use std::path::PathBuf;
use std::time::Duration;
use vsim_index::QueryContext;
use vsim_query::{AccessPath, FilterRefineIndex};
use vsim_setdist::{extended_centroid, VectorSet};

const DIM: usize = 6;
const K: usize = 7;

/// One member of a part family: the prototype's vectors, each moved a
/// little. Members of one family are neighbours in centroid space and,
/// families being dealt round-robin, never neighbours in id order.
fn member(proto: &VectorSet, rng: &mut StdRng) -> VectorSet {
    let mut s = VectorSet::new(DIM);
    for v in proto.iter() {
        let moved: Vec<f64> = v.iter().map(|x| x + rng.gen_range(-0.01..0.01)).collect();
        s.push(&moved);
    }
    s
}

struct TempFile(PathBuf);
impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// One cold 10-NN query: its hits, all pages it read, and the node
/// pages among them (the X-tree cursor pulled `filter_steps` times on a
/// context of its own).
fn cold_knn(idx: &FilterRefineIndex, q: &VectorSet) -> (Vec<(u64, f64)>, u64, u64) {
    let ctx = QueryContext::ephemeral();
    let hits = idx.knn_with(q, 10, &ctx).unwrap();
    let stats = ctx.stats(Duration::ZERO);
    let nodes = QueryContext::ephemeral();
    let cq = extended_centroid(q, K, &[0.0; DIM]);
    idx.with_candidate_source(AccessPath::XTreeCursor, &cq, &nodes, |src| {
        for _ in 0..stats.filter_steps {
            src.next_candidate();
        }
        Ok(())
    })
    .unwrap();
    (hits, stats.io.pages, nodes.stats(Duration::ZERO).io.pages)
}

#[test]
fn a_reopened_index_reads_fewer_heap_pages_for_the_same_refinements() {
    let mut rng = StdRng::seed_from_u64(2003);
    let protos: Vec<VectorSet> = (0..40)
        .map(|_| {
            let mut s = VectorSet::new(DIM);
            for _ in 0..rng.gen_range(3..=K) {
                let v: Vec<f64> = (0..DIM).map(|_| rng.gen_range(0.05..1.0)).collect();
                s.push(&v);
            }
            s
        })
        .collect();
    let sets: Vec<VectorSet> = (0..4000).map(|i| member(&protos[i % 40], &mut rng)).collect();
    let queries: Vec<VectorSet> =
        (0..64).map(|i| member(&protos[(i * 7) % 40], &mut rng)).collect();

    let built = FilterRefineIndex::build(&sets, DIM, K);
    let path = TempFile(
        std::env::temp_dir().join(format!("vsim_saved_layout_{}.vsix", std::process::id())),
    );
    built.save(&path.0).unwrap();
    let file = FilterRefineIndex::open(&path.0).unwrap();
    let mmap = FilterRefineIndex::open_mmap(&path.0).unwrap();

    let (mut heap_mem, mut heap_file) = (0, 0);
    for q in &queries {
        let (hm, pages_mem, nodes_mem) = cold_knn(&built, q);
        let (hf, pages_file, nodes_file) = cold_knn(&file, q);
        let (hp, pages_mmap, _) = cold_knn(&mmap, q);
        assert_eq!(hm, hf, "the layout is invisible in results");
        assert_eq!(hm, hp);
        assert_eq!(nodes_mem, nodes_file, "the saved tree charges the spans it was built with");
        assert_eq!(pages_file, pages_mmap, "pread and mmap read the same pages");
        heap_mem += pages_mem - nodes_mem;
        heap_file += pages_file - nodes_file;
    }
    assert!(
        10 * heap_file <= 7 * heap_mem,
        "64 queries read {heap_file} heap pages from the saved file, {heap_mem} from the \
         in-memory image: leaf order should save at least 30 %"
    );
}
