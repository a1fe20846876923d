//! What `FilterRefineIndex::open` checks before a query can: the three
//! streams of an index file share one dense id space, and the directory
//! that names them is of the version this build reads and names a
//! matching model it knows. The files here
//! are hand-written — every stream by its structure's public `save_to`,
//! the directory word by word — so each one is valid page by page and
//! stream by stream, and only `open` can notice what is wrong with it.

use rand::prelude::*;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use vsim_index::{
    FilePageStore, MTree, PageStore, PageStreamWriter, PointFile, VectorSetStore, XTree,
};
use vsim_query::FilterRefineIndex;
use vsim_setdist::{extended_centroid, Distance, MinimalMatching, VectorSet};

const DIM: usize = 6;
const K: usize = 4;
const FRIX: u64 = 0x4652_4958_0000_0000;

fn random_sets(n: usize, seed: u64) -> Vec<VectorSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut s = VectorSet::new(DIM);
            for _ in 0..rng.gen_range(1..=K) {
                let v: Vec<f64> = (0..DIM).map(|_| rng.gen_range(0.05..1.0)).collect();
                s.push(&v);
            }
            s
        })
        .collect()
}

fn centroids(sets: &[VectorSet]) -> Vec<Vec<f64>> {
    sets.iter().map(|s| extended_centroid(s, K, &[0.0; DIM])).collect()
}

fn xtree(points: &[Vec<f64>], ids: impl IntoIterator<Item = u64>) -> XTree {
    let mut tree = XTree::new(points[0].len());
    for (p, id) in points.iter().zip(ids) {
        tree.insert(p, id);
    }
    tree
}

struct TempFile(PathBuf);
impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn temp_index(tag: &str) -> TempFile {
    TempFile(
        std::env::temp_dir()
            .join(format!("vsim_open_validation_{tag}_{}.vsix", std::process::id())),
    )
}

/// Write an index file whose directory is `head` followed by the roots
/// of whatever `streams` saves into the file.
fn write_index(path: &Path, head: &[u64], streams: impl FnOnce(&FilePageStore) -> Vec<u64>) {
    let store = FilePageStore::create(path, 4096).unwrap();
    let roots = streams(&store);
    let mut w = PageStreamWriter::new(&store);
    for word in head.iter().copied().chain(roots) {
        w.write_all(&word.to_le_bytes()).unwrap();
    }
    store.set_root(w.finish().unwrap().first);
    store.sync().unwrap();
}

/// The head of a v3 directory: `k`, `dim` and the matching model's word.
fn v3_head(model: u64) -> Vec<u64> {
    vec![FRIX | 3, K as u64, DIM as u64, model]
}

/// The head of a v1 or v2 directory: `k`, `dim` and ω = 0.
fn old_head(version: u64) -> Vec<u64> {
    [FRIX | version, K as u64, DIM as u64].into_iter().chain([0.0f64.to_bits(); DIM]).collect()
}

/// A file of the three given structures under directory `head`.
fn write_three(path: &Path, head: &[u64], tree: &XTree, cfile: &PointFile, heap: &VectorSetStore) {
    write_index(path, head, |store| {
        vec![
            tree.save_to(store).unwrap().first,
            cfile.save_to(store).unwrap().first,
            heap.save_to(store).unwrap().first,
        ]
    });
}

/// A v3 file of the vector set model.
fn write_v3(path: &Path, tree: &XTree, cfile: &PointFile, heap: &VectorSetStore) {
    write_three(path, &v3_head(0), tree, cfile, heap);
}

fn assert_refused(path: &Path, what: &str, needle: &str) {
    for (medium, opened) in
        [("open", FilterRefineIndex::open(path)), ("open_mmap", FilterRefineIndex::open_mmap(path))]
    {
        let err = opened.err().unwrap_or_else(|| panic!("{what}: {medium} accepted the file"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}, {medium}: {err}");
        assert!(err.to_string().contains(needle), "{what}, {medium}: {err}");
    }
}

#[test]
fn streams_that_disagree_are_refused_at_open_not_at_query_time() {
    let sets = random_sets(40, 5);
    let points = centroids(&sets);
    let path = temp_index("streams");
    let (tree, cfile, heap) =
        (xtree(&points, 0..40), PointFile::build(DIM, &points), VectorSetStore::build(&sets));

    // The hand-writer writes what `save` writes: three consistent
    // streams open and answer like the index built from the same sets,
    // under the model the directory names.
    for (word, mm) in
        [(0, MinimalMatching::vector_set_model()), (1, MinimalMatching::permutation_model())]
    {
        write_three(&path.0, &v3_head(word), &tree, &cfile, &heap);
        let built = FilterRefineIndex::build(&sets, DIM, K).with_model(mm);
        for opened in [FilterRefineIndex::open(&path.0), FilterRefineIndex::open_mmap(&path.0)] {
            assert_eq!(opened.unwrap().knn(&sets[3], 10).0, built.knn(&sets[3], 10).0, "{mm:?}");
        }
    }

    // A heap file of 10 records under 40 centroids: the first 10-NN
    // used to die fetching record 30 of 10.
    let disagree = "index streams disagree";
    write_v3(&path.0, &tree, &cfile, &VectorSetStore::build(&sets[..10]));
    assert_refused(&path.0, "short heap file", disagree);
    write_v3(&path.0, &tree, &PointFile::build(DIM, &points[..39]), &heap);
    assert_refused(&path.0, "short point file", disagree);
    write_v3(&path.0, &xtree(&points[..39], 0..39), &cfile, &heap);
    assert_refused(&path.0, "short X-tree", disagree);

    // Forty entries that are not the ids 0..40.
    write_v3(&path.0, &xtree(&points, (0..40).map(|i| if i == 12 { 7 } else { i })), &cfile, &heap);
    assert_refused(&path.0, "an id named twice", disagree);
    write_v3(
        &path.0,
        &xtree(&points, (0..40).map(|i| if i == 12 { 40 } else { i })),
        &cfile,
        &heap,
    );
    assert_refused(&path.0, "an id out of range", disagree);

    // Centroids of another dimension than the directory's.
    let flat: Vec<Vec<f64>> = points.iter().map(|p| p[..5].to_vec()).collect();
    write_v3(&path.0, &tree, &PointFile::build(5, &flat), &heap);
    assert_refused(&path.0, "a 5-d point file", "dimension disagrees");
    write_v3(&path.0, &xtree(&flat, 0..40), &cfile, &heap);
    assert_refused(&path.0, "a 5-d X-tree", "dimension disagrees");
}

#[test]
fn a_v1_index_file_is_refused_by_version_not_as_foreign() {
    let sets = random_sets(40, 6);
    let points = centroids(&sets);
    let path = temp_index("v1");
    // FRIX v1: four roots, the second a centroid M-tree.
    let euclid: Arc<dyn Distance<Vec<f64>>> = Arc::new(|a: &Vec<f64>, b: &Vec<f64>| {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
    });
    let mut mtree = MTree::new(euclid, 64, 8 * DIM + 16);
    for (i, p) in points.iter().enumerate() {
        mtree.insert(p.clone(), i as u64);
    }
    write_index(&path.0, &old_head(1), |store| {
        vec![
            xtree(&points, 0..40).save_to(store).unwrap().first,
            mtree.save_to(store).unwrap().first,
            PointFile::build(DIM, &points).save_to(store).unwrap().first,
            VectorSetStore::build(&sets).save_to(store).unwrap().first,
        ]
    });
    assert_refused(&path.0, "a v1 directory", "version 1 (this build reads 3)");

    // Another kind of stream at the root is still named as such.
    write_index(&path.0, &[0x4D54_5245_0000_0001], |_| Vec::new());
    assert_refused(&path.0, "an M-tree tag", "is not a filter/refine index directory tag");
}

#[test]
fn a_v2_directory_and_an_unknown_model_are_refused() {
    let sets = random_sets(40, 7);
    let points = centroids(&sets);
    let path = temp_index("v2");
    let (tree, cfile, heap) =
        (xtree(&points, 0..40), PointFile::build(DIM, &points), VectorSetStore::build(&sets));
    // FRIX v2: ω where v3 names the model, so it cannot say which model
    // its answers were under.
    write_three(&path.0, &old_head(2), &tree, &cfile, &heap);
    assert_refused(&path.0, "a v2 directory", "version 2 (this build reads 3)");
    for word in [2, 0x8000_0000_0000_0000, u64::MAX] {
        write_three(&path.0, &v3_head(word), &tree, &cfile, &heap);
        assert_refused(&path.0, "an unknown model", &format!("matching model {word}"));
    }
}
