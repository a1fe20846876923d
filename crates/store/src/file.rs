//! Durable page file: the real-I/O counterpart of
//! [`InMemoryPageStore`](crate::InMemoryPageStore).
//!
//! # On-disk layout (version 4, written once)
//!
//! ```text
//! physical page 0      header: magic, version, page size, data-page
//!                      count, root pointer, checksum of those fields
//! physical pages 1..   data pages; data page p lives at byte offset
//!                      (1 + p) * PAGE_SIZE
//! ```
//!
//! Data pages are addressed logically from 0, so page numbers are
//! interchangeable with the in-memory store's and the buffer pool never
//! sees the header. Allocation bumps the data-page count and spans are
//! contiguous; a page number is never reused. A file of an older
//! version is refused by its version field rather than misreported as
//! corrupt.
//!
//! # One commit
//!
//! A page file is written once, through the handle [`create`] returns,
//! and committed by [`PageStore::sync`]: `fdatasync` makes the data
//! pages durable, then the header is written and `fsync` makes it
//! durable too, so a header never counts pages that did not reach the
//! disk. [`open`] and [`open_mmap`] open the file read-only, so a file
//! that was opened is never written again and there is no in-place
//! re-commit for a crash to tear. A crash inside the one commit can
//! tear the header, which then fails its checksum at open; that is why
//! a saved index is written to a temporary sibling and renamed over its
//! target only once it is committed (`FilterRefineIndex::save` in
//! `vsim-query`). A torn *data* tail (file cut mid-page) reads as
//! zeros, which the length-prefixed, checksummed record streams above
//! this layer detect — see `stream.rs`.
//!
//! [`create`]: FilePageStore::create
//! [`open`]: FilePageStore::open
//! [`open_mmap`]: FilePageStore::open_mmap

use std::fs::{File, OpenOptions};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::checksum::checksum;
use crate::cost::PAGE_SIZE;
use crate::error::{StoreError, StoreResult};
use crate::page::{Backend, PageStore, StoreId};

const FILE_MAGIC: u32 = 0x5653_5046; // "VSPF"
const FILE_VERSION: u32 = 4;
/// The checksummed header fields: magic, version and page size (`u32`
/// each at bytes 0, 4, 8), data-page count and root pointer (`u64`
/// each at bytes 12, 20). Their checksum follows.
const FIELDS_LEN: usize = 28;
const HEADER_LEN: usize = FIELDS_LEN + 8;

/// Largest data-page count whose pages all have a byte offset; a header
/// claiming more is not one this store could have written.
const MAX_DATA_PAGES: u64 = u64::MAX / PAGE_SIZE as u64 - 1;

/// Little-endian field readers over a header buffer; offsets are
/// compile-time constants `< HEADER_LEN`, so these never slice out of
/// bounds.
fn le_u32(buf: &[u8], offset: usize) -> u32 {
    let mut v = [0u8; 4];
    v.copy_from_slice(&buf[offset..offset + 4]);
    u32::from_le_bytes(v)
}

fn le_u64(buf: &[u8], offset: usize) -> u64 {
    let mut v = [0u8; 8];
    v.copy_from_slice(&buf[offset..offset + 8]);
    u64::from_le_bytes(v)
}

/// Byte offset of data page `page`: the header page comes first.
fn data_offset(page: u64) -> u64 {
    (1 + page) * PAGE_SIZE as u64
}

#[cfg(unix)]
mod mmap {
    use std::ffi::c_void;
    use std::io;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const MAP_SHARED: i32 = 1;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// Read-only shared mapping of the page file as it was opened.
    /// Pages past the mapped length (a data tail cut short by a crash)
    /// fall back to `pread` in the caller.
    #[derive(Debug)]
    pub(super) struct Map {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ/MAP_SHARED over a regular file;
    // the pointer is only ever read, never handed out mutably, and the
    // region stays valid until Drop unmaps it, so concurrent reads from
    // multiple threads are safe.
    unsafe impl Send for Map {}
    // SAFETY: as above — shared read-only access to an immutable-length
    // mapping needs no synchronization.
    unsafe impl Sync for Map {}

    impl Map {
        pub(super) fn new(file: &std::fs::File, len: usize) -> io::Result<Map> {
            if len == 0 {
                return Ok(Map { ptr: std::ptr::null_mut(), len: 0 });
            }
            // SAFETY: mmap is called with a valid open fd, a length we
            // just measured, and no fixed address; the result is checked
            // against MAP_FAILED before use.
            let ptr = unsafe {
                mmap(std::ptr::null_mut(), len, PROT_READ, MAP_SHARED, file.as_raw_fd(), 0)
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Map { ptr, len })
        }

        pub(super) fn len(&self) -> usize {
            self.len
        }

        /// Copy `buf.len()` bytes starting at `offset`; the caller must
        /// keep `offset + buf.len() <= self.len()`.
        pub(super) fn read(&self, offset: usize, buf: &mut [u8]) {
            assert!(offset + buf.len() <= self.len);
            // SAFETY: the assert above keeps the source range inside the
            // live mapping, and src/dst do not overlap (buf is a caller
            // buffer, never the mapping itself).
            unsafe {
                std::ptr::copy_nonoverlapping(
                    (self.ptr as *const u8).add(offset),
                    buf.as_mut_ptr(),
                    buf.len(),
                );
            }
        }
    }

    impl Drop for Map {
        fn drop(&mut self) {
            if !self.ptr.is_null() {
                // SAFETY: ptr/len came from a successful mmap in new()
                // and are unmapped exactly once.
                unsafe {
                    munmap(self.ptr, self.len);
                }
            }
        }
    }
}

/// A single-file durable page store, written once and then only read,
/// with an optional read-only mmap fast path. See the module docs for
/// the on-disk layout and the commit.
#[derive(Debug)]
pub struct FilePageStore {
    id: StoreId,
    file: File,
    /// Data pages [`allocate`](PageStore::allocate) may hand out: the
    /// caller's budget for a created file, the page count for an opened
    /// (read-only) one.
    capacity: u64,
    /// High-water mark: data pages backed by file space so far.
    data_pages: Mutex<u64>,
    /// User-defined root pointer persisted in the header (e.g. the first
    /// page of a directory stream).
    root: AtomicU64,
    /// Whether allocations or root changes happened since the last sync
    /// (Drop only syncs a dirty store).
    dirty: AtomicBool,
    #[cfg(unix)]
    map: Option<mmap::Map>,
}

/// The typed error of a file that is not (or no longer) a page file
/// this store could have written.
fn corrupt(what: impl Into<String>) -> StoreError {
    StoreError::Io(io::Error::new(io::ErrorKind::InvalidData, what.into()))
}

impl FilePageStore {
    /// Create a fresh page file that hands out at most `capacity_pages`
    /// data pages. The limit belongs to this handle; the file does not
    /// record it. Truncates any existing file at `path`.
    pub fn create(path: &Path, capacity_pages: u64) -> StoreResult<FilePageStore> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        let store = FilePageStore {
            id: StoreId::fresh(),
            file,
            capacity: capacity_pages.min(MAX_DATA_PAGES),
            data_pages: Mutex::new(0),
            root: AtomicU64::new(u64::MAX),
            dirty: AtomicBool::new(false),
            #[cfg(unix)]
            map: None,
        };
        store.sync()?;
        Ok(store)
    }

    /// Open an existing page file read-only. The header is validated
    /// (magic, version, page size, checksum over its fields, a plausible
    /// page count) and must fill its page; a file that fails any check
    /// is rejected with a typed `InvalidData` error. Writes to the
    /// opened store fail: [`allocate`](PageStore::allocate) with
    /// [`StoreError::Full`], [`write_page`](PageStore::write_page) with
    /// the OS's error. A truncated data tail is only detectable by the
    /// checksummed record streams above.
    pub fn open(path: &Path) -> StoreResult<FilePageStore> {
        Self::open_inner(path, false)
    }

    /// Like [`open`](Self::open), but reads go through a read-only
    /// memory mapping of the file (pages past a data tail cut short by
    /// a crash fall back to `pread`, which reads them as zeros).
    pub fn open_mmap(path: &Path) -> StoreResult<FilePageStore> {
        Self::open_inner(path, true)
    }

    fn open_inner(path: &Path, want_map: bool) -> StoreResult<FilePageStore> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        // A short file reads as zeros past EOF, so a header cut inside
        // its fields fails the magic or checksum check.
        let mut header = [0u8; HEADER_LEN];
        read_up_to_at(&file, &mut header, 0)?;
        if le_u32(&header, 0) != FILE_MAGIC {
            return Err(corrupt("not a vsim page file (bad magic)"));
        }
        let version = le_u32(&header, 4);
        if version != FILE_VERSION {
            return Err(corrupt(format!(
                "unsupported page-file version {version} (this build reads version {FILE_VERSION})"
            )));
        }
        if le_u32(&header, 8) as usize != PAGE_SIZE {
            return Err(corrupt("page file written with a different page size"));
        }
        let (expected, found) = (le_u64(&header, FIELDS_LEN), checksum(&header[..FIELDS_LEN]));
        if found != expected {
            return Err(StoreError::Corruption { page: 0, expected, found });
        }
        let data_pages = le_u64(&header, 12);
        if data_pages > MAX_DATA_PAGES {
            return Err(corrupt("page-file header out of range"));
        }
        if file_len < PAGE_SIZE as u64 {
            return Err(corrupt("page file truncated inside its header page"));
        }
        let map = if want_map { Some(mmap::Map::new(&file, file_len as usize)?) } else { None };
        Ok(FilePageStore {
            id: StoreId::fresh(),
            file,
            capacity: data_pages,
            data_pages: Mutex::new(data_pages),
            root: AtomicU64::new(le_u64(&header, 20)),
            dirty: AtomicBool::new(false),
            #[cfg(unix)]
            map,
        })
    }

    /// The persisted root pointer, or `None` if never set.
    pub fn root(&self) -> Option<u64> {
        match self.root.load(Ordering::Relaxed) {
            u64::MAX => None,
            page => Some(page),
        }
    }

    /// Set the root pointer; persisted on the next [`PageStore::sync`].
    pub fn set_root(&self, page: u64) {
        self.root.store(page, Ordering::Relaxed);
        self.dirty.store(true, Ordering::Relaxed);
    }

    /// Close this store *without* the best-effort sync-on-drop: the
    /// on-disk state stays exactly what the last successful
    /// [`sync`](PageStore::sync) committed. Crash simulation uses this
    /// to model a process that died before it could flush — a failed
    /// save must not commit its partial work on the way out.
    pub fn abandon(self) {
        self.dirty.store(false, Ordering::Relaxed);
    }
}

impl PageStore for FilePageStore {
    fn id(&self) -> StoreId {
        self.id
    }

    fn page_count(&self) -> u64 {
        // Reading one u64 is safe even if a writer panicked mid-update.
        *self.data_pages.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn backend(&self) -> Backend {
        #[cfg(unix)]
        if self.map.is_some() {
            return Backend::Mmap;
        }
        Backend::File
    }

    fn allocate(&self, pages: u64) -> StoreResult<u64> {
        assert!(pages >= 1, "cannot allocate an empty span");
        let mut data_pages = self.data_pages.lock().map_err(|_| StoreError::Poisoned)?;
        let first = *data_pages;
        let end = first
            .checked_add(pages)
            .filter(|&end| end <= self.capacity)
            .ok_or(StoreError::Full { requested: pages, capacity: self.capacity })?;
        // Extend so even never-written pages are readable (zeros).
        self.file.set_len(data_offset(end))?;
        *data_pages = end;
        self.dirty.store(true, Ordering::Relaxed);
        Ok(first)
    }

    fn read_into(&self, page: u64, buf: &mut [u8]) -> StoreResult<()> {
        let buf = &mut buf[..PAGE_SIZE];
        let offset = data_offset(page);
        #[cfg(unix)]
        if let Some(map) = &self.map {
            if offset as usize + PAGE_SIZE <= map.len() {
                map.read(offset as usize, buf);
                return Ok(());
            }
        }
        let read = read_up_to_at(&self.file, buf, offset)?;
        buf[read..].fill(0);
        Ok(())
    }

    fn write_page(&self, page: u64, data: &[u8]) -> StoreResult<()> {
        assert!(data.len() <= PAGE_SIZE, "page write of {} bytes", data.len());
        {
            let data_pages = self.data_pages.lock().map_err(|_| StoreError::Poisoned)?;
            assert!(page < *data_pages, "write to unallocated page {page}");
        }
        write_all_at(&self.file, data, data_offset(page))?;
        Ok(())
    }

    /// Commit: flush the data pages, then write the header (page count,
    /// root, checksum) and flush again. Data goes first, so a durable
    /// header never counts pages that are not.
    fn sync(&self) -> StoreResult<()> {
        let data_pages = *self.data_pages.lock().map_err(|_| StoreError::Poisoned)?;
        // 1. Data first: the header must never become durable before
        //    the pages it counts.
        self.file.sync_data()?;
        let mut header = vec![0u8; PAGE_SIZE];
        header[0..4].copy_from_slice(&FILE_MAGIC.to_le_bytes());
        header[4..8].copy_from_slice(&FILE_VERSION.to_le_bytes());
        header[8..12].copy_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
        header[12..20].copy_from_slice(&data_pages.to_le_bytes());
        header[20..28].copy_from_slice(&self.root.load(Ordering::Relaxed).to_le_bytes());
        let sum = checksum(&header[..FIELDS_LEN]);
        header[FIELDS_LEN..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
        write_all_at(&self.file, &header, 0)?;
        // 2. Commit: the header becomes durable.
        self.file.sync_all()?;
        self.dirty.store(false, Ordering::Relaxed);
        Ok(())
    }
}

impl Drop for FilePageStore {
    fn drop(&mut self) {
        // Best-effort durability for callers that forget to sync.
        if self.dirty.load(Ordering::Relaxed) {
            let _ = self.sync();
        }
    }
}

#[cfg(unix)]
fn write_all_at(file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::write_all_at(file, buf, offset)
}

/// Read up to `buf.len()` bytes at `offset`; returns how many were
/// read. Bytes past EOF are left untouched.
#[cfg(unix)]
fn read_up_to_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<usize> {
    use std::os::unix::fs::FileExt;
    let mut read = 0;
    while read < buf.len() {
        match file.read_at(&mut buf[read..], offset + read as u64)? {
            0 => break,
            n => read += n,
        }
    }
    Ok(read)
}

#[cfg(not(unix))]
compile_error!("FilePageStore currently requires a unix target (pread/pwrite)");

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAGE_SIZE;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("vsim_file_store_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn write_read_round_trip_survives_reopen() {
        let path = tmp("round_trip.vspf");
        let payload: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 251) as u8).collect();
        {
            let store = FilePageStore::create(&path, 64).unwrap();
            let first = store.allocate(3).unwrap();
            store.write_page(first + 1, &payload).unwrap();
            store.set_root(first);
            store.sync().unwrap();
        }
        let store = FilePageStore::open(&path).unwrap();
        assert_eq!(store.page_count(), 3);
        assert_eq!(store.root(), Some(0));
        assert_eq!(store.backend(), Backend::File);
        let mut buf = vec![0u8; PAGE_SIZE];
        store.read_into(1, &mut buf).unwrap();
        assert_eq!(buf, payload);
        store.read_into(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0), "never-written page is zeros");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mmap_reads_match_pread() {
        let path = tmp("mmap.vspf");
        {
            let store = FilePageStore::create(&path, 16).unwrap();
            let first = store.allocate(2).unwrap();
            store.write_page(first, &[0xabu8; 100]).unwrap();
            store.write_page(first + 1, &[0xcdu8; PAGE_SIZE]).unwrap();
            store.sync().unwrap();
        }
        let plain = FilePageStore::open(&path).unwrap();
        let mapped = FilePageStore::open_mmap(&path).unwrap();
        assert_eq!(mapped.backend(), Backend::Mmap);
        let (mut a, mut b) = (vec![0u8; PAGE_SIZE], vec![0u8; PAGE_SIZE]);
        for page in 0..2 {
            plain.read_into(page, &mut a).unwrap();
            mapped.read_into(page, &mut b).unwrap();
            assert_eq!(a, b, "page {page} differs between pread and mmap");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn exhausted_capacity_is_a_typed_error_not_a_panic() {
        let path = tmp("full.vspf");
        let store = FilePageStore::create(&path, 8).unwrap();
        // One allocation larger than the whole file.
        match store.allocate(9) {
            Err(StoreError::Full { requested, capacity }) => {
                assert_eq!((requested, capacity), (9, 8))
            }
            other => panic!("expected Full, got {other:?}"),
        }
        // The store keeps working after the failed allocation.
        let first = store.allocate(1).unwrap();
        store.write_page(first, &[1u8; 4]).unwrap();
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_corrupted_header_is_rejected() {
        let path = tmp("corrupt.vspf");
        {
            let store = FilePageStore::create(&path, 16).unwrap();
            store.allocate(1).unwrap();
            store.sync().unwrap();
        }
        // Flip one byte of the page count, leaving the checksum.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[12] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = FilePageStore::open(&path).unwrap_err();
        assert!(err.to_string().contains("checksum"), "got: {err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_metadata_is_rejected() {
        let path = tmp("truncated.vspf");
        {
            FilePageStore::create(&path, 16).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..PAGE_SIZE / 2]).unwrap();
        let err = FilePageStore::open(&path).unwrap_err();
        let io: io::Error = err.into();
        assert_eq!(io.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn garbage_and_out_of_range_headers_are_rejected() {
        let path = tmp("garbage.vspf");
        // Arbitrary garbage: bad magic.
        std::fs::write(&path, vec![0x5au8; 3 * PAGE_SIZE]).unwrap();
        let err = FilePageStore::open(&path).unwrap_err();
        assert!(err.to_string().contains("magic"), "got: {err}");

        // A header whose checksum holds but whose page count no byte
        // offset can reach.
        let mut bytes = vec![0u8; 3 * PAGE_SIZE];
        bytes[0..4].copy_from_slice(&FILE_MAGIC.to_le_bytes());
        bytes[4..8].copy_from_slice(&FILE_VERSION.to_le_bytes());
        bytes[8..12].copy_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
        bytes[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        let sum = checksum(&bytes[..FIELDS_LEN]);
        bytes[FIELDS_LEN..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = FilePageStore::open(&path).unwrap_err();
        assert!(err.to_string().contains("out of range"), "got: {err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_version_3_file_is_refused_by_version_not_as_corrupt() {
        // What a save by a version-3 store left behind: the header of
        // its second commit at page 0, that of its first at page 1, and
        // two one-page allocation bitmaps before the data. Read as
        // version 4, page 1 would be a data page and the checksum would
        // sit at another offset; the version field is what refuses it.
        let path = tmp("v3.vspf");
        let mut bytes = vec![0u8; 5 * PAGE_SIZE];
        for (page, commit, data_pages) in [(0, 2u64, 1u64), (1, 1, 0)] {
            let mut header = Vec::new();
            header.extend_from_slice(&FILE_MAGIC.to_le_bytes());
            header.extend_from_slice(&3u32.to_le_bytes());
            header.extend_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
            header.extend_from_slice(&1u32.to_le_bytes()); // bitmap pages
            header.extend_from_slice(&data_pages.to_le_bytes());
            header.extend_from_slice(&0u64.to_le_bytes()); // root
            header.extend_from_slice(&commit.to_le_bytes());
            let sum = checksum(&header);
            header.extend_from_slice(&sum.to_le_bytes());
            bytes[page * PAGE_SIZE..page * PAGE_SIZE + header.len()].copy_from_slice(&header);
        }
        bytes[2 * PAGE_SIZE] = 1; // the newer bitmap: data page 0 in use
        std::fs::write(&path, &bytes).unwrap();
        for open in [FilePageStore::open, FilePageStore::open_mmap] {
            let err = open(&path).unwrap_err();
            assert!(err.to_string().contains("unsupported page-file version 3"), "got: {err}");
            assert_eq!(err.io_kind(), io::ErrorKind::InvalidData);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_data_tail_reads_as_zeros() {
        let path = tmp("torn_tail.vspf");
        {
            let store = FilePageStore::create(&path, 16).unwrap();
            let first = store.allocate(1).unwrap();
            store.write_page(first, &[7u8; PAGE_SIZE]).unwrap();
            store.sync().unwrap();
        }
        // Cut the file mid data page (simulates a torn append).
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - PAGE_SIZE / 2]).unwrap();
        for open in [FilePageStore::open, FilePageStore::open_mmap] {
            let store = open(&path).unwrap();
            let mut buf = vec![0xffu8; PAGE_SIZE];
            store.read_into(0, &mut buf).unwrap();
            assert_eq!(&buf[..PAGE_SIZE / 2], &[7u8; PAGE_SIZE / 2][..], "{:?}", store.backend());
            assert!(buf[PAGE_SIZE / 2..].iter().all(|&b| b == 0), "torn tail reads as zeros");
        }
        std::fs::remove_file(&path).unwrap();
    }
}
