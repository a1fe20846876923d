//! Page identity, allocation, and page-granular contents.
//!
//! Every persistent structure (an index, the vector-set heap file)
//! owns a page store; the store hands out page numbers and a unique
//! [`StoreId`] so the shared [`BufferPool`](crate::BufferPool) can
//! cache pages from many structures without collisions. Since the
//! file-backed refactor a store also holds page *contents*: the
//! in-memory backend keeps written pages in a map (structures that only
//! simulate I/O never write any), while
//! [`FilePageStore`](crate::FilePageStore) puts them in a real page
//! file.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::cost::PAGE_SIZE;
use crate::error::StoreResult;

static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(1);

/// Process-unique identity of one page store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreId(u64);

impl StoreId {
    pub(crate) fn fresh() -> Self {
        StoreId(NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed))
    }
}

/// Global identity of one page: which store, which page within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageKey {
    pub store: StoreId,
    pub page: u64,
}

/// Which medium a page store reads from. Decides whether the cost model
/// *charges* the paper's simulated constants (memory) or estimates
/// *measured* device costs (file/mmap) — see
/// [`CostModel::for_backend`](crate::CostModel::for_backend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Main-memory store; I/O is simulated and charged.
    Memory,
    /// Page file read through `pread`.
    File,
    /// Page file with a read-only memory mapping.
    Mmap,
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::Memory => "memory",
            Backend::File => "file",
            Backend::Mmap => "mmap",
        })
    }
}

/// A source of pages that the buffer pool can cache: identity and
/// allocation plus page-granular read/write.
pub trait PageStore: Send + Sync {
    /// Process-unique identity, used as the cache-key namespace.
    fn id(&self) -> StoreId;
    /// Number of pages allocated so far (high-water mark).
    fn page_count(&self) -> u64;
    /// The medium this store reads from.
    fn backend(&self) -> Backend;
    /// Allocate a contiguous span of `pages` pages past the high-water
    /// mark; returns the first page number of the span. Fails with
    /// [`StoreError::Full`](crate::StoreError::Full) when the span would
    /// pass a bounded store's capacity. Page numbers are never reused.
    fn allocate(&self, pages: u64) -> StoreResult<u64>;
    /// Read one page into `buf` (at least [`PAGE_SIZE`] bytes),
    /// writing all of its first [`PAGE_SIZE`] bytes whatever they held:
    /// the pool reads into recycled page buffers. Pages that were
    /// allocated but never written read as zeros.
    fn read_into(&self, page: u64, buf: &mut [u8]) -> StoreResult<()>;
    /// Write one page (`data.len() <= PAGE_SIZE`; a short write leaves
    /// the page tail unspecified — record layouts carry their lengths).
    fn write_page(&self, page: u64, data: &[u8]) -> StoreResult<()>;
    /// Persist the written pages and the page count and root behind
    /// them (the file's header). No-op in memory.
    fn sync(&self) -> StoreResult<()>;
}

/// Page store for a main-memory structure. Thread-safe: allocation
/// uses an atomic bump pointer, so index nodes can allocate fresh page
/// spans (e.g. X-tree supernode growth) from behind a shared reference.
/// Contents are kept only for pages actually written — the simulated-I/O
/// access methods allocate spans for accounting and never write them.
#[derive(Debug)]
pub struct InMemoryPageStore {
    id: StoreId,
    pages: AtomicU64,
    data: Mutex<HashMap<u64, Box<[u8]>>>,
}

impl Default for InMemoryPageStore {
    fn default() -> Self {
        Self::new()
    }
}

impl InMemoryPageStore {
    pub fn new() -> Self {
        InMemoryPageStore {
            id: StoreId::fresh(),
            pages: AtomicU64::new(0),
            data: Mutex::new(HashMap::new()),
        }
    }

    /// The content map holds independent per-page entries, so a writer
    /// that panicked mid-operation cannot leave it torn; recover the
    /// guard instead of propagating the poison.
    fn contents(&self) -> MutexGuard<'_, HashMap<u64, Box<[u8]>>> {
        self.data.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl PageStore for InMemoryPageStore {
    fn id(&self) -> StoreId {
        self.id
    }

    fn page_count(&self) -> u64 {
        self.pages.load(Ordering::Relaxed)
    }

    fn backend(&self) -> Backend {
        Backend::Memory
    }

    fn allocate(&self, pages: u64) -> StoreResult<u64> {
        Ok(self.pages.fetch_add(pages, Ordering::Relaxed))
    }

    fn read_into(&self, page: u64, buf: &mut [u8]) -> StoreResult<()> {
        let buf = &mut buf[..PAGE_SIZE];
        let written = match self.contents().get(&page) {
            Some(d) => {
                buf[..d.len()].copy_from_slice(d);
                d.len()
            }
            None => 0,
        };
        buf[written..].fill(0);
        Ok(())
    }

    fn write_page(&self, page: u64, data: &[u8]) -> StoreResult<()> {
        assert!(data.len() <= PAGE_SIZE, "page write of {} bytes", data.len());
        self.contents().insert(page, data.into());
        Ok(())
    }

    fn sync(&self) -> StoreResult<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_ids_are_unique() {
        let a = InMemoryPageStore::new();
        let b = InMemoryPageStore::new();
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn allocation_is_contiguous_and_counted() {
        let s = InMemoryPageStore::new();
        assert_eq!(s.allocate(3).unwrap(), 0);
        assert_eq!(s.allocate(1).unwrap(), 3);
        assert_eq!(s.allocate(2).unwrap(), 4);
        assert_eq!(s.page_count(), 6);
    }

    #[test]
    fn concurrent_allocation_never_overlaps() {
        let s = InMemoryPageStore::new();
        let spans: Vec<(u64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope
                        .spawn(|| (0..100).map(|_| (s.allocate(2).unwrap(), 2)).collect::<Vec<_>>())
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let mut firsts: Vec<u64> = spans.iter().map(|&(f, _)| f).collect();
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), 400);
        assert_eq!(s.page_count(), 800);
    }

    #[test]
    fn written_pages_read_back_and_unwritten_read_zero() {
        let s = InMemoryPageStore::new();
        let first = s.allocate(2).unwrap();
        s.write_page(first, &[7u8; 100]).unwrap();
        let mut buf = vec![0xffu8; PAGE_SIZE];
        s.read_into(first, &mut buf).unwrap();
        assert_eq!(&buf[..100], &[7u8; 100][..]);
        assert!(buf[100..].iter().all(|&b| b == 0), "page tail reads as zeros");
        s.read_into(first + 1, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0), "never-written page reads as zeros");
    }

    #[test]
    fn backend_is_memory_and_simulated() {
        let s = InMemoryPageStore::new();
        assert_eq!(s.backend(), Backend::Memory);
        let charged = crate::CostModel::for_backend(s.backend());
        assert_eq!(charged.ms_per_page, crate::CostModel::default().ms_per_page);
    }
}
