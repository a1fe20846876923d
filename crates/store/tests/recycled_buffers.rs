//! Every page store writes all of a page into the buffer it is given:
//! the buffer pool reads into page buffers recycled from evicted
//! frames, so a byte a store leaves alone would show the evicted
//! page's data. Each read here goes into a buffer full of `0xAA`.

use std::path::PathBuf;
use vsim_store::{
    Fault, FaultInjectingPageStore, FaultPlan, FilePageStore, InMemoryPageStore, PageStore,
    PAGE_SIZE,
};

/// Read `page` into a buffer full of `0xAA`.
fn read_dirty(store: &dyn PageStore, page: u64) -> Vec<u8> {
    let mut buf = vec![0xAA; PAGE_SIZE];
    store.read_into(page, &mut buf).unwrap();
    buf
}

/// `data` followed by zeros, one page long.
fn padded(data: &[u8]) -> Vec<u8> {
    let mut page = data.to_vec();
    page.resize(PAGE_SIZE, 0);
    page
}

/// Page 0 written in full, page 1 written short, page 2 never written.
fn write_pages(store: &dyn PageStore) {
    assert_eq!(store.allocate(3).unwrap(), 0);
    store.write_page(0, &[7; PAGE_SIZE]).unwrap();
    store.write_page(1, &[9; 100]).unwrap();
}

/// What [`write_pages`] wrote must read back, whatever the buffer held.
fn assert_reads_back(store: &dyn PageStore, what: &str) {
    assert_eq!(read_dirty(store, 0), vec![7; PAGE_SIZE], "{what}: a full page");
    assert_eq!(read_dirty(store, 1), padded(&[9; 100]), "{what}: a short-written page");
    assert_eq!(read_dirty(store, 2), vec![0; PAGE_SIZE], "{what}: a never-written page");
}

#[test]
fn in_memory_reads_overwrite_a_dirty_buffer() {
    let store = InMemoryPageStore::new();
    write_pages(&store);
    assert_reads_back(&store, "memory");
}

#[test]
fn file_reads_overwrite_a_dirty_buffer_via_pread_and_mmap() {
    let path: PathBuf =
        std::env::temp_dir().join(format!("vsim_recycled_buffers_{}.vspf", std::process::id()));
    {
        let store = FilePageStore::create(&path, 8).unwrap();
        write_pages(&store);
        store.sync().unwrap();
    }
    for open in [FilePageStore::open, FilePageStore::open_mmap] {
        let store = open(&path).unwrap();
        assert_reads_back(&store, &format!("{:?}", store.backend()));
    }
    // Cut the file 50 bytes into page 1: pread (and the mapping's
    // fallback to it) reads 50 bytes, then page 2 reads nothing at all.
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes.len(), 4 * PAGE_SIZE, "a header page and three data pages");
    std::fs::write(&path, &bytes[..2 * PAGE_SIZE + 50]).unwrap();
    for open in [FilePageStore::open, FilePageStore::open_mmap] {
        let store = open(&path).unwrap();
        let what = store.backend();
        assert_eq!(read_dirty(&store, 0), vec![7; PAGE_SIZE], "{what}: a whole page");
        assert_eq!(read_dirty(&store, 1), padded(&[9; 50]), "{what}: a page cut short");
        assert_eq!(read_dirty(&store, 2), vec![0; PAGE_SIZE], "{what}: a page past the end");
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn fault_injected_reads_overwrite_a_dirty_buffer() {
    let inner = InMemoryPageStore::new();
    write_pages(&inner);
    // The wrapper counts operations from its first read: op 0 is cut
    // after 10 bytes, the rest are clean.
    let store = FaultInjectingPageStore::new(
        inner,
        FaultPlan::none().with_fault(0, Fault::ShortRead { len: 10 }),
    );
    assert_eq!(read_dirty(&store, 0), padded(&[7; 10]), "a short read");
    assert_reads_back(&store, "fault-injecting");
}
