//! Durable page file: the real-I/O counterpart of
//! [`InMemoryPageStore`](crate::InMemoryPageStore).
//!
//! # On-disk layout (version 3, shadow metadata)
//!
//! Version 3 has version 2's layout; what changed is the checksum
//! function every stored sum is computed with ([`checksum`] replaced
//! FNV-1a), so a version-2 file is refused by its version field rather
//! than misreported as corrupt.
//!
//! ```text
//! physical page 0            header slot A (magic, version, page size,
//!                            free-map size, data-page high-water,
//!                            root pointer, generation, checksum)
//! physical page 1            header slot B (same fields)
//! physical pages 2..2+F      free-map copy A: one bit per data page
//!                            (1 = allocated), F fixed at create time
//! physical pages 2+F..2+2F   free-map copy B
//! physical pages 2+2F..      data pages; logical data page p lives at
//!                            byte offset (2 + 2F + p) * PAGE_SIZE
//! ```
//!
//! Data pages are addressed logically from 0, so page numbers are
//! interchangeable with the in-memory store's and the buffer pool never
//! sees the header or free map. Allocation is first-fit over the bitmap
//! and spans are contiguous; [`PageStore::free`] clears bits so the
//! space is genuinely reused.
//!
//! # Crash atomicity
//!
//! Metadata commits alternate between the two header/free-map slots
//! under a monotonically increasing *generation* counter:
//! [`PageStore::sync`] first makes all data-page writes durable
//! (`fdatasync`), then writes free-map copy and header for slot
//! `generation % 2` — never the slot holding the last committed state —
//! and ends with `fsync`. Each header's checksum covers the header
//! fields *and* that slot's free-map copy, so a crash anywhere mid-sync
//! leaves the previous slot byte-identical and valid: [`open`] validates
//! both slots and adopts the valid one with the highest generation.
//! The committed state therefore moves atomically from one complete
//! metadata snapshot to the next, and because data is flushed *before*
//! the commit record, a committed root never points at unwritten pages.
//! A torn *data* tail (file cut mid-page) reads as zeros, which the
//! length-prefixed, checksummed record streams above this layer detect —
//! see `stream.rs`.
//!
//! [`open`]: FilePageStore::open

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
const FILE_VERSION: u32 = 3;
const HEADER_LEN: usize = 48;
/// Physical pages before the free-map copies (the two header slots).
const HEADER_SLOTS: u64 = 2;

/// Data pages addressable per free-map page (one bit each).
const PAGES_PER_MAP_PAGE: u64 = (PAGE_SIZE * 8) as u64;

/// Upper bound on the free-map size a header may claim (64 Ki map pages
/// ⇒ 8 TiB of data); anything larger is a corrupted header, not a file
/// this store could have written.
const MAX_FREEMAP_PAGES: u64 = 1 << 16;

/// Little-endian field readers over a buffer that is always a full
/// page; offsets are compile-time constants `< HEADER_LEN <<
/// PAGE_SIZE`, so these never slice out of bounds.
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

#[derive(Debug)]
struct FreeState {
    /// One bit per data page, 1 = allocated. Length is fixed at create
    /// time (`freemap_pages * PAGE_SIZE` bytes).
    bitmap: Vec<u8>,
    /// High-water mark: data pages backed by file space so far.
    data_pages: u64,
}

impl FreeState {
    fn bit(&self, page: u64) -> bool {
        self.bitmap[(page / 8) as usize] & (1 << (page % 8)) != 0
    }

    fn set_bit(&mut self, page: u64, on: bool) {
        let (byte, mask) = ((page / 8) as usize, 1u8 << (page % 8));
        if on {
            self.bitmap[byte] |= mask;
        } else {
            self.bitmap[byte] &= !mask;
        }
    }

    /// First-fit search for a contiguous run of `pages` free bits.
    fn find_run(&self, pages: u64, capacity: u64) -> Option<u64> {
        let mut run_start = 0u64;
        let mut run_len = 0u64;
        for page in 0..capacity {
            if self.bit(page) {
                run_len = 0;
                run_start = page + 1;
            } else {
                run_len += 1;
                if run_len == pages {
                    return Some(run_start);
                }
            }
        }
        None
    }

    /// Highest allocated bit + 1, i.e. the smallest consistent
    /// high-water mark for this bitmap.
    fn min_data_pages(&self) -> u64 {
        for (byte_idx, &byte) in self.bitmap.iter().enumerate().rev() {
            if byte != 0 {
                return byte_idx as u64 * 8 + (8 - byte.leading_zeros() as u64);
            }
        }
        0
    }
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

    /// Read-only shared mapping of the front of the page file. Pages
    /// past the mapped length (the file grew after opening) fall back
    /// to `pread` in the caller.
    #[derive(Debug)]
    pub struct Map {
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
        pub fn new(file: &std::fs::File, len: usize) -> io::Result<Map> {
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

        pub fn len(&self) -> usize {
            self.len
        }

        /// Copy `buf.len()` bytes starting at `offset`; the caller must
        /// keep `offset + buf.len() <= self.len()`.
        pub fn read(&self, offset: usize, buf: &mut [u8]) {
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

/// A single-file durable page store with a free map for page reuse,
/// shadow-slot crash-atomic metadata commits, and an optional read-only
/// mmap fast path. See the module docs for the on-disk layout and
/// recovery story.
#[derive(Debug)]
pub struct FilePageStore {
    id: StoreId,
    file: File,
    freemap_pages: u64,
    state: Mutex<FreeState>,
    /// User-defined root pointer persisted in the header (e.g. the first
    /// page of a directory stream).
    root: AtomicU64,
    /// Generation of the last committed metadata snapshot.
    generation: AtomicU64,
    /// Whether allocations/frees/root changes happened since the last
    /// sync (Drop only syncs a dirty store, so generations don't churn).
    dirty: AtomicBool,
    #[cfg(unix)]
    map: Option<mmap::Map>,
}

/// The typed error of a file that is not (or no longer) a page file
/// this store could have written.
fn corrupt(what: impl Into<String>) -> StoreError {
    StoreError::Io(io::Error::new(io::ErrorKind::InvalidData, what.into()))
}

/// One parsed-and-validated header slot.
struct Slot {
    freemap_pages: u64,
    data_pages: u64,
    root: u64,
    generation: u64,
    bitmap: Vec<u8>,
}

impl FilePageStore {
    /// Create a fresh page file able to hold at least `capacity_pages`
    /// data pages (rounded up to whole free-map pages; one free-map
    /// page covers 32768 data pages = 128 MiB). Truncates any existing
    /// file at `path`.
    pub fn create(path: &Path, capacity_pages: u64) -> StoreResult<FilePageStore> {
        let freemap_pages = capacity_pages.div_ceil(PAGES_PER_MAP_PAGE).max(1);
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        let store = FilePageStore {
            id: StoreId::fresh(),
            file,
            freemap_pages,
            state: Mutex::new(FreeState {
                bitmap: vec![0; (freemap_pages * PAGE_SIZE as u64) as usize],
                data_pages: 0,
            }),
            root: AtomicU64::new(u64::MAX),
            generation: AtomicU64::new(0),
            dirty: AtomicBool::new(false),
            #[cfg(unix)]
            map: None,
        };
        store.sync()?;
        Ok(store)
    }

    /// Open an existing page file: both header slots are validated
    /// (magic, version, page size, plausible free-map size, checksum
    /// over header + free-map copy) and the valid slot with the highest
    /// generation wins, so a crash during the previous [`sync`] rolls
    /// back to the last complete commit. A file where *no* slot is
    /// valid — truncated, garbage, or corrupted in both slots — is
    /// rejected with a typed error. A truncated data tail is only
    /// detectable by the checksummed record streams above.
    ///
    /// [`sync`]: PageStore::sync
    pub fn open(path: &Path) -> StoreResult<FilePageStore> {
        Self::open_inner(path, false)
    }

    /// Like [`open`](Self::open), but reads go through a read-only
    /// memory mapping of the file (pages appended after opening fall
    /// back to `pread`).
    pub fn open_mmap(path: &Path) -> StoreResult<FilePageStore> {
        Self::open_inner(path, true)
    }

    /// Parse and validate one header slot: `Ok(None)` when nothing that
    /// claims to be a header is there (a slot no sync ever reached reads
    /// as zeros), `Err` with the reason a header is unusable.
    fn read_slot(file: &File, file_len: u64, slot: u64) -> StoreResult<Option<Slot>> {
        // Short files read as zeros past EOF, so a truncated header
        // fails the magic check instead of slicing out of bounds.
        let mut header = vec![0u8; PAGE_SIZE];
        read_up_to_at(file, &mut header, slot * PAGE_SIZE as u64)?;
        if le_u32(&header, 0) != FILE_MAGIC {
            return Ok(None);
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
        let freemap_pages = le_u32(&header, 12) as u64;
        let data_pages = le_u64(&header, 16);
        let root = le_u64(&header, 24);
        let generation = le_u64(&header, 32);
        let stored_checksum = le_u64(&header, 40);
        if freemap_pages == 0
            || freemap_pages > MAX_FREEMAP_PAGES
            || data_pages > freemap_pages * PAGES_PER_MAP_PAGE
        {
            return Err(corrupt("page-file header out of range"));
        }
        if file_len < (HEADER_SLOTS + 2 * freemap_pages) * PAGE_SIZE as u64 {
            return Err(corrupt("page file truncated inside its free map"));
        }
        let mut bitmap = vec![0u8; (freemap_pages * PAGE_SIZE as u64) as usize];
        let map_offset = (HEADER_SLOTS + slot * freemap_pages) * PAGE_SIZE as u64;
        read_exact_at(file, &mut bitmap, map_offset)?;
        let mut meta = header[..HEADER_LEN - 8].to_vec();
        meta.extend_from_slice(&bitmap);
        let found = checksum(&meta);
        if found != stored_checksum {
            return Err(StoreError::Corruption { page: slot, expected: stored_checksum, found });
        }
        let state = FreeState { bitmap, data_pages };
        if state.min_data_pages() > data_pages {
            return Err(corrupt("free map allocates pages beyond the recorded page count"));
        }
        Ok(Some(Slot { freemap_pages, data_pages, root, generation, bitmap: state.bitmap }))
    }

    fn open_inner(path: &Path, want_map: bool) -> StoreResult<FilePageStore> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let file_len = file.metadata()?.len();
        // The valid slot with the highest generation wins (slot 0 on a
        // tie); if there is none, the first unusable header says why.
        let (mut best, mut why) = (None::<Slot>, None);
        for slot in 0..HEADER_SLOTS {
            match Self::read_slot(&file, file_len, slot) {
                Ok(Some(s)) if best.as_ref().is_none_or(|b| s.generation > b.generation) => {
                    best = Some(s);
                }
                Ok(_) => {}
                Err(e) => why = why.or(Some(e)),
            }
        }
        let Some(best) = best else {
            return Err(why.unwrap_or_else(|| corrupt("not a vsim page file (bad magic)")));
        };
        let map = if want_map { Some(mmap::Map::new(&file, file_len as usize)?) } else { None };
        Ok(FilePageStore {
            id: StoreId::fresh(),
            file,
            freemap_pages: best.freemap_pages,
            state: Mutex::new(FreeState { bitmap: best.bitmap, data_pages: best.data_pages }),
            root: AtomicU64::new(best.root),
            generation: AtomicU64::new(best.generation),
            dirty: AtomicBool::new(false),
            #[cfg(unix)]
            map,
        })
    }

    /// Maximum data pages this file can ever hold (fixed at create).
    pub fn capacity_pages(&self) -> u64 {
        self.freemap_pages * PAGES_PER_MAP_PAGE
    }

    /// Data pages currently marked allocated in the free map.
    pub fn allocated_pages(&self) -> u64 {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.bitmap.iter().map(|b| b.count_ones() as u64).sum()
    }

    /// Generation of the last committed metadata snapshot.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
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

    fn data_offset(&self, page: u64) -> u64 {
        (HEADER_SLOTS + 2 * self.freemap_pages + page) * PAGE_SIZE as u64
    }
}

impl PageStore for FilePageStore {
    fn id(&self) -> StoreId {
        self.id
    }

    fn page_count(&self) -> u64 {
        // Reading one u64 is safe even if a writer panicked mid-update.
        self.state.lock().unwrap_or_else(PoisonError::into_inner).data_pages
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
        let mut state = self.state.lock().map_err(|_| StoreError::Poisoned)?;
        let capacity = self.capacity_pages();
        let Some(first) = state.find_run(pages, capacity) else {
            return Err(StoreError::Full { requested: pages, capacity });
        };
        for page in first..first + pages {
            state.set_bit(page, true);
        }
        self.dirty.store(true, Ordering::Relaxed);
        if first + pages > state.data_pages {
            state.data_pages = first + pages;
            // Extend so even never-written pages are readable (zeros).
            self.file.set_len(self.data_offset(state.data_pages))?;
        }
        Ok(first)
    }

    fn free(&self, first: u64, pages: u64) -> StoreResult<()> {
        let mut state = self.state.lock().map_err(|_| StoreError::Poisoned)?;
        for page in first..first + pages {
            state.set_bit(page, false);
        }
        self.dirty.store(true, Ordering::Relaxed);
        Ok(())
    }

    fn read_into(&self, page: u64, buf: &mut [u8]) -> StoreResult<()> {
        let buf = &mut buf[..PAGE_SIZE];
        let offset = self.data_offset(page);
        #[cfg(unix)]
        if let Some(map) = &self.map {
            if offset as usize + PAGE_SIZE <= map.len() {
                map.read(offset as usize, buf);
                return Ok(());
            }
        }
        buf.fill(0);
        read_up_to_at(&self.file, buf, offset)?;
        Ok(())
    }

    fn write_page(&self, page: u64, data: &[u8]) -> StoreResult<()> {
        assert!(data.len() <= PAGE_SIZE, "page write of {} bytes", data.len());
        {
            let state = self.state.lock().map_err(|_| StoreError::Poisoned)?;
            assert!(page < state.data_pages, "write to unallocated page {page}");
        }
        write_all_at(&self.file, data, self.data_offset(page))?;
        Ok(())
    }

    /// Commit the current metadata atomically: flush data pages, then
    /// write free-map copy and header into the *other* slot at the next
    /// generation, then flush again. A crash at any point leaves the
    /// previous slot intact, so [`open`](FilePageStore::open) recovers
    /// either the old or the new complete state, never a mix.
    fn sync(&self) -> StoreResult<()> {
        let (bitmap, data_pages) = {
            let state = self.state.lock().map_err(|_| StoreError::Poisoned)?;
            (state.bitmap.clone(), state.data_pages)
        };
        // 1. Data first: the commit record must never become durable
        //    before the pages it points at.
        self.file.sync_data()?;
        let generation = self.generation.load(Ordering::Relaxed) + 1;
        let slot = generation % 2;
        let mut meta = Vec::with_capacity(HEADER_LEN - 8 + bitmap.len());
        meta.extend_from_slice(&FILE_MAGIC.to_le_bytes());
        meta.extend_from_slice(&FILE_VERSION.to_le_bytes());
        meta.extend_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
        meta.extend_from_slice(&(self.freemap_pages as u32).to_le_bytes());
        meta.extend_from_slice(&data_pages.to_le_bytes());
        meta.extend_from_slice(&self.root.load(Ordering::Relaxed).to_le_bytes());
        meta.extend_from_slice(&generation.to_le_bytes());
        meta.extend_from_slice(&bitmap);
        let sum = checksum(&meta);
        let (header_prefix, bitmap_slice) = meta.split_at(HEADER_LEN - 8);
        let mut header = vec![0u8; PAGE_SIZE];
        header[..HEADER_LEN - 8].copy_from_slice(header_prefix);
        header[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
        let map_offset = (HEADER_SLOTS + slot * self.freemap_pages) * PAGE_SIZE as u64;
        write_all_at(&self.file, bitmap_slice, map_offset)?;
        write_all_at(&self.file, &header, slot * PAGE_SIZE as u64)?;
        // 2. Commit: both slot writes become durable; if this fsync
        //    never completes, the other slot still holds the last
        //    committed generation.
        self.file.sync_all()?;
        self.generation.store(generation, Ordering::Relaxed);
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
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

#[cfg(unix)]
fn write_all_at(file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::write_all_at(file, buf, offset)
}

/// Read up to `buf.len()` bytes at `offset`; bytes past EOF are left
/// untouched (callers pre-zero), so a short tail reads as zeros.
#[cfg(unix)]
fn read_up_to_at(file: &File, mut buf: &mut [u8], mut offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    while !buf.is_empty() {
        match file.read_at(buf, offset)? {
            0 => return Ok(()),
            n => {
                buf = &mut buf[n..];
                offset += n as u64;
            }
        }
    }
    Ok(())
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

    /// Byte offset of slot `slot`'s free-map copy in a file with one
    /// free-map page per copy (the capacity every test here uses).
    fn map_offset(slot: u64) -> usize {
        ((HEADER_SLOTS + slot) * PAGE_SIZE as u64) as usize
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
        // A page appended after mapping falls back to pread.
        let extra = mapped.allocate(1).unwrap();
        mapped.write_page(extra, &[9u8; 8]).unwrap();
        mapped.read_into(extra, &mut b).unwrap();
        assert_eq!(&b[..8], &[9u8; 8][..]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn freed_spans_are_reused_first_fit() {
        let path = tmp("reuse.vspf");
        let store = FilePageStore::create(&path, 64).unwrap();
        let a = store.allocate(2).unwrap(); // [0, 1]
        let b = store.allocate(3).unwrap(); // [2, 4]
        assert_eq!((a, b), (0, 2));
        store.free(a, 2).unwrap();
        assert_eq!(store.allocate(1).unwrap(), 0, "freed space is reused");
        assert_eq!(store.allocate(1).unwrap(), 1);
        assert_eq!(store.allocate(2).unwrap(), 5, "no free run of 2 before the high-water mark");
        assert_eq!(store.page_count(), 7);
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn exhausted_capacity_is_a_typed_error_not_a_panic() {
        let path = tmp("full.vspf");
        let store = FilePageStore::create(&path, 8).unwrap();
        let capacity = store.capacity_pages();
        // One allocation larger than the whole file.
        match store.allocate(capacity + 1) {
            Err(StoreError::Full { requested, capacity: cap }) => {
                assert_eq!(requested, capacity + 1);
                assert_eq!(cap, capacity);
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
    fn both_slots_corrupted_is_rejected() {
        let path = tmp("corrupt.vspf");
        {
            let store = FilePageStore::create(&path, 16).unwrap();
            store.allocate(1).unwrap();
            store.sync().unwrap();
        }
        // Flip one byte in each free-map copy, leaving the checksums.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[map_offset(0) + 100] ^= 0xff;
        bytes[map_offset(1) + 100] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = FilePageStore::open(&path).unwrap_err();
        assert!(err.to_string().contains("checksum"), "got: {err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupting_the_newest_slot_falls_back_to_the_previous_commit() {
        let path = tmp("fallback.vspf");
        {
            let store = FilePageStore::create(&path, 16).unwrap(); // gen 1, slot 1
            assert_eq!(store.generation(), 1);
            store.allocate(2).unwrap();
            store.sync().unwrap(); // gen 2, slot 0
            assert_eq!(store.generation(), 2);
        }
        // Corrupt the newest commit (generation 2 lives in slot 0).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[map_offset(0)] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let store = FilePageStore::open(&path).unwrap();
        assert_eq!(store.generation(), 1, "rolled back to the surviving commit");
        assert_eq!(store.allocated_pages(), 0, "generation 1 predates the allocation");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sync_alternates_slots_and_open_picks_the_newest() {
        let path = tmp("alternate.vspf");
        {
            let store = FilePageStore::create(&path, 16).unwrap();
            store.allocate(1).unwrap();
            store.sync().unwrap();
            store.allocate(1).unwrap();
            store.sync().unwrap();
            assert_eq!(store.generation(), 3);
        }
        let store = FilePageStore::open(&path).unwrap();
        assert_eq!(store.generation(), 3);
        assert_eq!(store.allocated_pages(), 2);
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
        // Arbitrary garbage: bad magic in both slots.
        std::fs::write(&path, vec![0x5au8; 3 * PAGE_SIZE]).unwrap();
        let err = FilePageStore::open(&path).unwrap_err();
        assert!(err.to_string().contains("magic"), "got: {err}");

        // A structurally valid header claiming an impossible free-map
        // size must be rejected before any huge allocation happens.
        let mut header = vec![0u8; PAGE_SIZE];
        header[0..4].copy_from_slice(&FILE_MAGIC.to_le_bytes());
        header[4..8].copy_from_slice(&FILE_VERSION.to_le_bytes());
        header[8..12].copy_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
        header[12..16].copy_from_slice(&u32::MAX.to_le_bytes()); // freemap_pages
        let mut bytes = vec![0u8; 3 * PAGE_SIZE];
        bytes[..PAGE_SIZE].copy_from_slice(&header);
        std::fs::write(&path, &bytes).unwrap();
        let err = FilePageStore::open(&path).unwrap_err();
        assert!(err.to_string().contains("out of range"), "got: {err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_version_2_file_is_refused_by_version_not_as_corrupt() {
        // What `create` of a version-2 store left behind: an empty
        // generation-1 commit in slot 1, slot 0 never written. The
        // layout is version 3's and only the checksum function differs,
        // so without the version bump this file would read as "checksum
        // mismatch"; with it, the sum (whatever it is) is never looked at.
        let path = tmp("v2.vspf");
        let mut bytes = vec![0u8; 4 * PAGE_SIZE];
        let mut header = Vec::new();
        header.extend_from_slice(&FILE_MAGIC.to_le_bytes());
        header.extend_from_slice(&2u32.to_le_bytes());
        header.extend_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
        header.extend_from_slice(&1u32.to_le_bytes()); // freemap_pages
        header.extend_from_slice(&0u64.to_le_bytes()); // data_pages
        header.extend_from_slice(&u64::MAX.to_le_bytes()); // root
        header.extend_from_slice(&1u64.to_le_bytes()); // generation
        header.extend_from_slice(&0x5eed_u64.to_le_bytes()); // a sum of another function
        bytes[PAGE_SIZE..PAGE_SIZE + HEADER_LEN].copy_from_slice(&header);
        std::fs::write(&path, &bytes).unwrap();
        for open in [FilePageStore::open, FilePageStore::open_mmap] {
            let err = open(&path).unwrap_err();
            assert!(err.to_string().contains("unsupported page-file version 2"), "got: {err}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn freemap_page_count_mismatch_is_rejected() {
        let path = tmp("mismatch.vspf");
        {
            let store = FilePageStore::create(&path, 16).unwrap();
            store.allocate(1).unwrap();
            store.sync().unwrap(); // gen 2 in slot 0
        }
        // Mark a page allocated beyond the recorded page count in both
        // slots and fix up both checksums, so only the semantic check
        // can catch the mismatch.
        let mut bytes = std::fs::read(&path).unwrap();
        for slot in 0..2usize {
            let m = map_offset(slot as u64);
            bytes[m + 2] |= 0x80; // data page 23, page count is <= 2
            let mut meta = bytes[slot * PAGE_SIZE..slot * PAGE_SIZE + HEADER_LEN - 8].to_vec();
            meta.extend_from_slice(&bytes[m..m + PAGE_SIZE]);
            let sum = checksum(&meta);
            bytes[slot * PAGE_SIZE + HEADER_LEN - 8..slot * PAGE_SIZE + HEADER_LEN]
                .copy_from_slice(&sum.to_le_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();
        let err = FilePageStore::open(&path).unwrap_err();
        assert!(err.to_string().contains("beyond the recorded page count"), "got: {err}");
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
        let store = FilePageStore::open(&path).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        store.read_into(0, &mut buf).unwrap();
        assert_eq!(&buf[..PAGE_SIZE / 2], &[7u8; PAGE_SIZE / 2][..]);
        assert!(buf[PAGE_SIZE / 2..].iter().all(|&b| b == 0), "torn tail reads as zeros");
        std::fs::remove_file(&path).unwrap();
    }
}
