//! A paged heap file of vector sets with byte-accurate simulated I/O.
//!
//! The refinement step of the filter/refine pipeline "loads the vector
//! sets" of candidate objects (Section 4.3); the sequential-scan baseline
//! of Table 2 reads the whole file. Records are serialized into a
//! contiguous byte image (via `bytes`) so page-access and byte counts
//! reflect a real layout, including records straddling page boundaries.
//!
//! Both files come in two backings: the classic in-memory image (pages
//! are allocated for accounting only and never written), and a *shared*
//! backing where the image occupies a span of a durable
//! [`PageStore`] — typically a
//! [`FilePageStore`](vsim_store::FilePageStore) — and every access
//! physically reads page bytes through the query's buffer pool. The
//! two backings decode bit-identical `f64`s, and a file saved in id
//! order (`save_to`) charges the page/byte counts of the image it was
//! saved from. A saved *index* keeps its heap file in X-tree leaf order:
//! it reads other — fewer — pages than the in-memory image for the same
//! records, and identical ones through `pread` and mmap.
//!
//! The in-memory files are append-only apart from their tombstone
//! flags, and they keep image, offsets, coordinates and flags in
//! `SegVec`s: a `snapshot()` shares every segment with its origin and
//! the next append or tombstone copies the one segment it writes.

use std::borrow::Cow;
use std::io::{self, Read, Write};
use std::ops::Range;
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use vsim_setdist::VectorSet;
use vsim_store::{
    checksum, InMemoryPageStore, PageStore, PageStreamReader, PageStreamWriter, QueryContext,
    StoreError, StoreResult, StreamHandle, PAGE_SIZE,
};

use crate::cursor::SortedScan;
use crate::persist::{expect_tag, get_len, get_u64, get_usize, invalid, put_u64, same_span};
use crate::segvec::SegVec;

/// Segment lengths of the in-memory files (see [`SegVec`]): what the
/// first append or tombstone after a snapshot copies of each.
const IMAGE_SEGMENT: usize = 1 << 16;
const OFFSET_SEGMENT: usize = 1 << 12;
const FLAG_SEGMENT: usize = 1 << 12;
/// In points, so that no point straddles two segments.
const POINT_SEGMENT: usize = 1 << 10;

/// Stream tags distinguishing persisted structure kinds ("VSET"/"PNTF"
/// plus a version — v2: per-page image checksums; VSET v3: the dimension;
/// VSET v4: the slot table).
const VSET_TAG: u64 = 0x5653_4554_0000_0004;
const POINT_TAG: u64 = 0x504E_5446_0000_0002;

/// On-"disk" record image: `u32` dim, `u32` count, then `dim·count` f64s.
fn encode(set: &VectorSet) -> Bytes {
    let mut b = BytesMut::with_capacity(8 + 8 * set.flat().len());
    b.put_u32_le(set.dim() as u32);
    b.put_u32_le(set.len() as u32);
    for v in set.flat() {
        b.put_f64_le(*v);
    }
    b.freeze()
}

/// The body of a record image, once its header agrees with its extent
/// (`buf.len()`, from the checksummed offset table) and the file's
/// dimension: a damaged header under a valid page checksum is a typed
/// error, never a panic in a getter or an absurd allocation.
fn record_body(mut buf: &[u8], dim: usize) -> StoreResult<&[u8]> {
    if buf.len() >= 8 {
        let (d, n) = (buf.get_u32_le() as u64, buf.get_u32_le() as u64);
        // `d · n` of two `u32`s cannot overflow a `u64`.
        if d == dim as u64 && buf.len().is_multiple_of(8) && d * n == (buf.len() / 8) as u64 {
            return Ok(buf);
        }
    }
    Err(invalid("heap-file record header disagrees with its extent or the file's dimension").into())
}

/// The little-endian `f64`s packed in `bytes`.
fn le_f64s(bytes: &[u8]) -> impl Iterator<Item = f64> + '_ {
    bytes.as_chunks::<8>().0.iter().map(|word| f64::from_le_bytes(*word))
}

/// Where a heap/point file's byte image lives.
enum Backing {
    /// Build-time default: the image is a RAM buffer; the page store
    /// only provides identity and page numbers for simulated I/O.
    Memory(InMemoryPageStore),
    /// The image occupies pages `first..first+total_pages` of a shared
    /// (usually durable) page store and is physically read on access.
    Shared { store: Arc<dyn PageStore>, first: u64 },
}

impl std::fmt::Debug for Backing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backing::Memory(s) => f.debug_tuple("Memory").field(&s.id()).finish(),
            Backing::Shared { store, first } => {
                f.debug_struct("Shared").field("store", &store.id()).field("first", first).finish()
            }
        }
    }
}

impl Backing {
    fn store(&self) -> &dyn PageStore {
        match self {
            Backing::Memory(s) => s,
            Backing::Shared { store, .. } => store.as_ref(),
        }
    }
}

/// Write the `total`-byte image that `parts` concatenate to into freshly
/// allocated pages of `target`, assembled one page at a time; returns
/// the first page of the span plus one [`checksum`] per page (computed
/// over the zero-padded full-page image, exactly what reads return).
fn write_image(
    target: &dyn PageStore,
    total: usize,
    parts: impl Iterator<Item = impl AsRef<[u8]>>,
) -> io::Result<(u64, Vec<u64>)> {
    let pages = total.div_ceil(PAGE_SIZE);
    let first = if pages > 0 { target.allocate(pages as u64)? } else { 0 };
    let mut sums = Vec::with_capacity(pages);
    let mut page = vec![0u8; PAGE_SIZE];
    let mut used = 0;
    let mut write = |page: &mut [u8], used: usize| {
        target.write_page(first + sums.len() as u64, &page[..used])?;
        page[used..].fill(0);
        sums.push(checksum(page));
        io::Result::Ok(())
    };
    for part in parts {
        let mut part = part.as_ref();
        while !part.is_empty() {
            let take = part.len().min(PAGE_SIZE - used);
            page[used..used + take].copy_from_slice(&part[..take]);
            (used, part) = (used + take, &part[take..]);
            if used == PAGE_SIZE {
                write(&mut page, used)?;
                used = 0;
            }
        }
    }
    if used > 0 {
        write(&mut page, used)?;
    }
    debug_assert_eq!(sums.len(), pages, "the parts must add up to `total` bytes");
    Ok((first, sums))
}

/// Charge a read of the whole `total`-byte image of an in-memory file:
/// every page through the context's buffer pool, the used bytes of
/// every missed one.
fn charge_image(pages: &InMemoryPageStore, total: usize, ctx: &QueryContext) {
    for page in 0..total.div_ceil(PAGE_SIZE) as u64 {
        if ctx.access(pages.id(), page, 1) > 0 {
            ctx.record_bytes((total - page as usize * PAGE_SIZE).min(PAGE_SIZE) as u64);
        }
    }
}

/// [`charge_image`]'s shared-backing twin: physically read the image,
/// every page verified against `sums` ([`QueryContext::load_verified`]).
fn load_image(
    store: &dyn PageStore,
    first: u64,
    total: usize,
    sums: &[u64],
    ctx: &QueryContext,
) -> StoreResult<Vec<u8>> {
    let mut img = Vec::with_capacity(total);
    for page in 0..total.div_ceil(PAGE_SIZE) as u64 {
        let (data, missed) = ctx.load_verified(store, first + page, sums[page as usize])?;
        let used = (total - page as usize * PAGE_SIZE).min(PAGE_SIZE);
        if missed > 0 {
            ctx.record_bytes(used as u64);
        }
        img.extend_from_slice(&data[..used]);
    }
    Ok(img)
}

/// A heap file of vector sets, addressed by dense `u64` ids. The file
/// occupies a span of pages in a page store; queries read them through
/// the buffer pool of a [`QueryContext`]. The in-memory backing is
/// *dynamic*: records can be [`append`](Self::append)ed at the tail and
/// [`tombstone`](Self::tombstone)d in place; tombstoned bytes keep
/// occupying their pages (and keep being charged by scans): nothing
/// compacts a tombstoned file yet (ROADMAP item 9).
#[derive(Debug)]
pub struct VectorSetStore {
    /// Dimension of every record; 0 while the file has never held one.
    dim: usize,
    /// The records back to back (empty in shared backing).
    image: SegVec<u8, IMAGE_SEGMENT>,
    /// Byte offset of the record in *slot* `i` (position in the image);
    /// `offsets[len]` = total size.
    offsets: SegVec<usize, OFFSET_SEGMENT>,
    /// Slot of record `id`, for an image whose records are in another
    /// order than their ids; empty = the identity (every in-memory file).
    slot_of: Vec<u32>,
    /// Tombstone flags: `dead[i]` marks record `i` deleted. Dead records
    /// are skipped by [`scan`](Self::scan) but their bytes stay in the
    /// image until compaction.
    dead: SegVec<bool, FLAG_SEGMENT>,
    /// Records not tombstoned: `dead` recounted, kept by
    /// [`append`](Self::append) and [`tombstone`](Self::tombstone).
    live: usize,
    /// Per-page checksums of the image span (shared backing only;
    /// empty for the in-memory backing, which is never torn).
    page_sums: Vec<u64>,
    backing: Backing,
}

impl VectorSetStore {
    pub fn build(sets: &[VectorSet]) -> Self {
        let dim = sets.first().map_or(0, VectorSet::dim);
        let mut image = SegVec::new(1);
        let mut offsets = Vec::with_capacity(sets.len() + 1);
        for s in sets {
            assert_eq!(s.dim(), dim, "a heap file holds sets of one dimension");
            offsets.push(image.len());
            image.extend_from_slice(&encode(s));
        }
        offsets.push(image.len());
        let pages = InMemoryPageStore::new();
        #[allow(
            clippy::expect_used,
            reason = "the unbounded in-memory store cannot fail to allocate"
        )]
        pages
            .allocate(image.len().div_ceil(PAGE_SIZE) as u64)
            .expect("in-memory page-charge allocation failed");
        VectorSetStore {
            dim,
            image,
            offsets: SegVec::from_slice(1, &offsets),
            slot_of: Vec::new(),
            dead: SegVec::from_slice(1, &vec![false; sets.len()]),
            live: sets.len(),
            page_sums: Vec::new(),
            backing: Backing::Memory(pages),
        }
    }

    /// Append one record at the tail of the heap file and return its new
    /// id (`== len()` before the call). New pages are allocated for the
    /// grown image so scan charges stay byte-accurate. Only the
    /// in-memory backing is appendable; a file opened from a page store
    /// is a read-only snapshot.
    pub fn append(&mut self, set: &VectorSet) -> io::Result<u64> {
        let Backing::Memory(pages) = &self.backing else {
            return Err(invalid("cannot append to a heap file opened from a page store"));
        };
        let id = self.len() as u64;
        if id == 0 {
            self.dim = set.dim();
        }
        assert_eq!(set.dim(), self.dim, "a heap file holds sets of one dimension");
        let old_pages = self.total_pages() as u64;
        self.image.extend_from_slice(&encode(set));
        self.offsets.extend_from_slice(&[self.image.len()]);
        self.dead.extend_from_slice(&[false]);
        self.live += 1;
        let new_pages = self.image.len().div_ceil(PAGE_SIZE) as u64;
        if new_pages > old_pages {
            pages.allocate(new_pages - old_pages)?;
        }
        Ok(id)
    }

    /// Mark record `id` deleted. Returns `false` if the id is out of
    /// range or already dead. The record's bytes are *not* reclaimed —
    /// they keep occupying (and charging) their pages, and a file with
    /// a tombstone can no longer be saved (see [`save_to`](Self::save_to)).
    pub fn tombstone(&mut self, id: u64) -> bool {
        let live = self.is_live(id);
        if live {
            self.dead.set(id as usize, &[true]);
            self.live -= 1;
        }
        live
    }

    /// Whether record `id` exists and is not tombstoned.
    pub fn is_live(&self, id: u64) -> bool {
        matches!(self.dead.get(id as usize), Some([false]))
    }

    /// Number of live (non-tombstoned) records.
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// The file as it is now, under a fresh page-store identity with the
    /// same page span: access charges are identical, but the snapshot's
    /// pages are distinct to every buffer pool. Nothing is copied — the
    /// snapshot shares every segment of the image, the offset table and
    /// the tombstone flags with this file, and whichever of the two is
    /// written to first copies the one segment it touches. Only the
    /// in-memory backing can be snapshotted.
    pub fn snapshot(&self) -> io::Result<Self> {
        let Backing::Memory(pages) = &self.backing else {
            return Err(invalid("cannot snapshot a heap file opened from a page store"));
        };
        Ok(VectorSetStore {
            dim: self.dim,
            image: self.image.clone(),
            offsets: self.offsets.clone(),
            slot_of: self.slot_of.clone(),
            dead: self.dead.clone(),
            live: self.live,
            page_sums: self.page_sums.clone(),
            backing: Backing::Memory(same_span(pages)?),
        })
    }

    /// The backing page store.
    pub fn page_store(&self) -> &dyn PageStore {
        self.backing.store()
    }

    /// Persist the heap file into `target` with its records in id
    /// order: [`write_ordered`](Self::write_ordered) of `0..len`.
    pub fn save_to(&self, target: &dyn PageStore) -> io::Result<StreamHandle> {
        self.write_ordered(target, &Vec::from_iter(0..self.len() as u64))
    }

    /// Persist the heap file into `target`, record `order[0]` first: the
    /// raw image span, then a checksummed metadata stream (tag,
    /// dimension, image location, offset table by slot, page checksums,
    /// and the id → slot table unless `order` is the identity). `order`
    /// must name every id once. Records that are fetched together should
    /// be neighbours in it — a saved index passes its X-tree's
    /// [`leaf_order`](crate::XTree::leaf_order). Returns the metadata
    /// stream handle for a directory.
    pub fn write_ordered(&self, target: &dyn PageStore, order: &[u64]) -> io::Result<StreamHandle> {
        if matches!(self.backing, Backing::Shared { .. }) {
            return Err(invalid("cannot re-save a heap file opened from a page store"));
        }
        if self.live != self.len() {
            // Persisting tombstone holes would skew the dense-id contract
            // shared with the trees. No compacting save exists yet, so a
            // tombstoned index cannot be saved (ROADMAP item 9).
            return Err(invalid("cannot save a heap file with tombstoned records; compact first"));
        }
        // Filling the table is the permutation check: as many slots as
        // ids, every id in range and in a slot nobody took.
        const FREE: u32 = u32::MAX;
        let not_a_permutation = || invalid("heap-file save order is not a permutation of its ids");
        if order.len() != self.len() || order.len() >= FREE as usize {
            return Err(not_a_permutation());
        }
        let mut slot_of = vec![FREE; order.len()];
        let mut offsets = vec![0];
        for (slot, &id) in order.iter().enumerate() {
            match slot_of.get_mut(id as usize) {
                Some(s @ &mut FREE) => *s = slot as u32,
                _ => return Err(not_a_permutation()),
            }
            offsets.push(offsets[slot] + self.record_bytes(id));
        }
        let records = order.iter().map(|&id| self.image.slice(self.extent(id)));
        let (first, sums) = write_image(target, self.image.len(), records)?;
        if slot_of.iter().enumerate().all(|(id, &slot)| id == slot as usize) {
            slot_of.clear();
        }
        let mut meta = Vec::new();
        put_u64(&mut meta, VSET_TAG);
        put_u64(&mut meta, self.dim as u64);
        put_u64(&mut meta, first);
        put_u64(&mut meta, self.image.len() as u64);
        put_u64(&mut meta, offsets.len() as u64);
        for &o in &offsets {
            put_u64(&mut meta, o as u64);
        }
        for &s in &sums {
            put_u64(&mut meta, s);
        }
        put_u64(&mut meta, slot_of.len() as u64);
        for slot in slot_of {
            meta.extend_from_slice(&slot.to_le_bytes());
        }
        let mut w = PageStreamWriter::new(target);
        w.write_all(&meta)?;
        w.finish()
    }

    /// Reopen a heap file persisted by [`save_to`](Self::save_to) or
    /// [`write_ordered`](Self::write_ordered). Every field of the
    /// metadata stream is validated in O(n) — every extent holds at
    /// least a record header, the slot table is a permutation — so a
    /// truncated or corrupted file surfaces as `InvalidData`, never as
    /// garbage records or a panic in a getter.
    pub fn open_from(store: Arc<dyn PageStore>, meta_first: u64) -> io::Result<Self> {
        let mut r = PageStreamReader::open(store.as_ref(), meta_first)?;
        let mut meta = Vec::new();
        r.read_to_end(&mut meta)?;
        let r = &mut &meta[..];
        expect_tag(r, VSET_TAG, "vector-set heap file")?;
        let dim = get_len(r, "heap-file dim")?;
        let first = get_u64(r)?;
        let total = get_usize(r)?;
        let n = get_len(r, "heap-file offset")?;
        if n == 0 {
            return Err(invalid("heap file is missing its offset table"));
        }
        let offsets: Vec<usize> = (0..n).map(|_| get_usize(r)).collect::<io::Result<_>>()?;
        let headers_fit =
            offsets.windows(2).all(|w| w[0].checked_add(8).is_some_and(|h| h <= w[1]));
        if !headers_fit || offsets.last() != Some(&total) || (dim == 0 && n > 1) {
            return Err(invalid("heap-file offset table or dimension is inconsistent"));
        }
        let pages = total.div_ceil(PAGE_SIZE);
        if first + pages as u64 > store.page_count() {
            return Err(invalid("heap-file image span exceeds the page store"));
        }
        let page_sums: Vec<u64> = (0..pages).map(|_| get_u64(r)).collect::<io::Result<_>>()?;
        let slots = get_len(r, "heap-file slot")?;
        if (slots != 0 && slots != n - 1) || r.len() < 4 * slots {
            return Err(invalid("heap-file slot table does not cover its records"));
        }
        let slot_of: Vec<u32> = (0..slots).map(|_| r.get_u32_le()).collect();
        let mut taken = vec![false; slots];
        let claim =
            |&s: &u32| taken.get_mut(s as usize).is_some_and(|t| !std::mem::replace(t, true));
        if !slot_of.iter().all(claim) {
            return Err(invalid("heap-file slot table is not a permutation"));
        }
        Ok(VectorSetStore {
            dim,
            image: SegVec::new(1),
            offsets: SegVec::from_slice(1, &offsets),
            slot_of,
            dead: SegVec::from_slice(1, &vec![false; n - 1]),
            live: n - 1,
            page_sums,
            backing: Backing::Shared { store, first },
        })
    }

    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total size of the file image in bytes.
    pub fn total_bytes(&self) -> usize {
        self.offsets.get(self.len()).map_or(0, |end| end[0])
    }

    /// Pages occupied by the file.
    pub fn total_pages(&self) -> usize {
        self.total_bytes().div_ceil(PAGE_SIZE)
    }

    /// Where record `id` lies in the image — the one place that maps an
    /// id to its slot. One lookup: both ends come out of one segment of
    /// the offset table, unless the slot is the last of its segment.
    fn extent(&self, id: u64) -> Range<usize> {
        let slot = self.slot_of.get(id as usize).map_or(id as usize, |&s| s as usize);
        let ends = self.offsets.slice(slot..slot + 2);
        ends[0]..ends[1]
    }

    /// Size of record `id` in bytes.
    pub fn record_bytes(&self, id: u64) -> usize {
        self.extent(id).len()
    }

    /// Random access: reads the page(s) the record spans through the
    /// context's buffer pool, then decodes it. Missed pages are charged
    /// by the pool; the record's bytes are charged iff at least one of
    /// its pages missed (a fully resident record costs nothing). On the
    /// shared backing every page is verified against its saved checksum
    /// ([`QueryContext::load_verified`]) before decoding, so a torn or
    /// flipped page surfaces as a typed error, never a garbage set.
    pub fn get(&self, id: u64, ctx: &QueryContext) -> StoreResult<VectorSet> {
        let mut set = VectorSet::new(self.dim.max(1));
        self.get_into(id, ctx, &mut set)?;
        Ok(set)
    }

    /// [`get`](Self::get) into a caller-owned set, reusing its
    /// allocation across a refinement loop's fetches. The record is
    /// decoded straight from the pool frame; only one that straddles a
    /// page boundary — or, in memory, a segment boundary of the image —
    /// is assembled in a buffer first. A deleted or unknown `id` is an
    /// [`io::ErrorKind::NotFound`] error.
    pub fn get_into(&self, id: u64, ctx: &QueryContext, out: &mut VectorSet) -> StoreResult<()> {
        if !self.is_live(id) {
            let msg = format!("record {id} is deleted or was never stored");
            return Err(StoreError::Io(io::Error::new(io::ErrorKind::NotFound, msg)));
        }
        let Range { start, end } = self.extent(id);
        let first_page = (start / PAGE_SIZE) as u64;
        let last_page = ((end - 1) / PAGE_SIZE) as u64;
        match &self.backing {
            Backing::Memory(pages) => {
                if ctx.access(pages.id(), first_page, last_page - first_page + 1) > 0 {
                    ctx.record_bytes((end - start) as u64);
                }
                let record = self.image.slice(start..end);
                out.refill(self.dim, le_f64s(record_body(&record, self.dim)?));
            }
            Backing::Shared { store, first } => {
                let load = |page: u64| {
                    ctx.load_verified(store.as_ref(), first + page, self.page_sums[page as usize])
                };
                let in_page = |page: u64| (end - page as usize * PAGE_SIZE).min(PAGE_SIZE);
                let (head, mut missed) = load(first_page)?;
                let mut record = Cow::Borrowed(&head[start % PAGE_SIZE..in_page(first_page)]);
                for page in first_page + 1..=last_page {
                    let (data, m) = load(page)?;
                    missed += m;
                    record.to_mut().extend_from_slice(&data[..in_page(page)]);
                }
                if missed > 0 {
                    ctx.record_bytes((end - start) as u64);
                }
                out.refill(self.dim, le_f64s(record_body(&record, self.dim)?));
            }
        }
        Ok(())
    }

    /// Sequential scan: reads every page of the file through the
    /// context's buffer pool (a cold pool charges exactly the file's
    /// total pages and bytes — tombstoned bytes included, the honest
    /// cost of un-reclaimed space), then yields `(id, set)` pairs for
    /// live records only. The shared backing verifies page checksums
    /// up front.
    pub fn scan<'a>(
        &'a self,
        ctx: &QueryContext,
    ) -> StoreResult<impl Iterator<Item = (u64, VectorSet)> + 'a> {
        let total = self.total_bytes();
        let loaded: Option<Vec<u8>> = match &self.backing {
            Backing::Memory(pages) => {
                charge_image(pages, total, ctx);
                None
            }
            Backing::Shared { store, first } => {
                Some(load_image(store.as_ref(), *first, total, &self.page_sums, ctx)?)
            }
        };
        // Every live record's header is validated before the first is
        // yielded, so the lazy decode below cannot meet a bad one.
        let live = move |&id: &u64| self.is_live(id);
        for id in (0..self.len() as u64).filter(live) {
            record_body(&self.record_image(loaded.as_deref(), id), self.dim)?;
        }
        Ok((0..self.len() as u64).filter(live).map(move |id| {
            let record = self.record_image(loaded.as_deref(), id);
            (id, VectorSet::from_flat(self.dim, le_f64s(&record[8..]).collect()))
        }))
    }

    /// The bytes of record `id`: out of the image a scan `loaded`, or
    /// out of the resident one.
    fn record_image<'a>(&'a self, loaded: Option<&'a [u8]>, id: u64) -> Cow<'a, [u8]> {
        match loaded {
            Some(image) => Cow::Borrowed(&image[self.extent(id)]),
            None => self.image.slice(self.extent(id)),
        }
    }
}

/// A paged flat file of fixed-dimension `f64` points with dense `u64`
/// ids — the sequential-scan access path of the filter layer. Where
/// [`VectorSetStore`] holds the variable-length vector sets for
/// refinement, a `PointFile` holds the fixed-length filter features
/// (e.g. the 6-d extended centroids): `8·dim` bytes per record, packed
/// densely so a full scan charges exactly
/// `ceil(8·dim·n / PAGE_SIZE)` pages.
#[derive(Debug)]
pub struct PointFile {
    dim: usize,
    len: usize,
    /// One row of `dim` coordinates per point (empty in shared backing).
    data: SegVec<f64, POINT_SEGMENT>,
    /// Tombstone flags, parallel to records; dead points are skipped by
    /// [`scan_ranked`](Self::scan_ranked) but keep occupying pages.
    dead: SegVec<bool, FLAG_SEGMENT>,
    /// Points not tombstoned (see [`VectorSetStore`]'s field).
    live: usize,
    /// Per-page checksums of the image span (shared backing only;
    /// empty for the in-memory backing, which is never torn).
    page_sums: Vec<u64>,
    backing: Backing,
}

impl PointFile {
    pub fn build(dim: usize, points: &[Vec<f64>]) -> Self {
        assert!(dim > 0);
        let mut data = SegVec::new(dim);
        for p in points {
            assert_eq!(p.len(), dim);
            data.extend_from_slice(p);
        }
        let pages = InMemoryPageStore::new();
        #[allow(
            clippy::expect_used,
            reason = "the unbounded in-memory store cannot fail to allocate"
        )]
        pages
            .allocate((points.len() * dim * 8).div_ceil(PAGE_SIZE) as u64)
            .expect("in-memory page-charge allocation failed");
        PointFile {
            dim,
            len: points.len(),
            data,
            dead: SegVec::from_slice(1, &vec![false; points.len()]),
            live: points.len(),
            page_sums: Vec::new(),
            backing: Backing::Memory(pages),
        }
    }

    /// Append one point at the tail of the file and return its new id.
    /// Only the in-memory backing is appendable.
    pub fn append(&mut self, point: &[f64]) -> io::Result<u64> {
        assert_eq!(point.len(), self.dim);
        let Backing::Memory(pages) = &self.backing else {
            return Err(invalid("cannot append to a point file opened from a page store"));
        };
        let id = self.len as u64;
        let old_pages = self.total_pages() as u64;
        self.data.extend_from_slice(point);
        self.len += 1;
        self.dead.extend_from_slice(&[false]);
        self.live += 1;
        let new_pages = self.total_pages() as u64;
        if new_pages > old_pages {
            pages.allocate(new_pages - old_pages)?;
        }
        Ok(id)
    }

    /// Mark point `id` deleted; scans stop yielding it. Returns `false`
    /// if the id is out of range or already dead.
    pub fn tombstone(&mut self, id: u64) -> bool {
        let live = self.is_live(id);
        if live {
            self.dead.set(id as usize, &[true]);
            self.live -= 1;
        }
        live
    }

    /// Whether point `id` exists and is not tombstoned.
    pub fn is_live(&self, id: u64) -> bool {
        matches!(self.dead.get(id as usize), Some([false]))
    }

    /// Number of live (non-tombstoned) points.
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// The stored coordinates of point `id`, tombstoned or not — the
    /// exact bits that were appended, so deleting from the trees can use
    /// the identical key. In-memory backing only (the shared backing
    /// holds no resident coordinates); `None` when unavailable.
    pub fn point(&self, id: u64) -> Option<&[f64]> {
        self.data.get(id as usize)
    }

    /// The file as it is now under a fresh page-store identity, sharing
    /// every segment of coordinates and flags with this one (see
    /// [`VectorSetStore::snapshot`]). In-memory backing only.
    pub fn snapshot(&self) -> io::Result<Self> {
        let Backing::Memory(pages) = &self.backing else {
            return Err(invalid("cannot snapshot a point file opened from a page store"));
        };
        Ok(PointFile {
            dim: self.dim,
            len: self.len,
            data: self.data.clone(),
            dead: self.dead.clone(),
            live: self.live,
            page_sums: self.page_sums.clone(),
            backing: Backing::Memory(same_span(pages)?),
        })
    }

    /// Persist the point file into `target`: the packed LE image span,
    /// then a metadata stream. `f64` bits round-trip exactly.
    pub fn save_to(&self, target: &dyn PageStore) -> io::Result<StreamHandle> {
        if matches!(self.backing, Backing::Shared { .. }) {
            return Err(invalid("cannot re-save a point file opened from a page store"));
        }
        if self.live != self.len() {
            return Err(invalid("cannot save a point file with tombstoned records; compact first"));
        }
        let mut image = Vec::with_capacity(self.total_bytes());
        for &v in self.data.chunks().flatten() {
            image.extend_from_slice(&v.to_le_bytes());
        }
        let (first, sums) = write_image(target, image.len(), [image].iter())?;
        let mut meta = Vec::new();
        put_u64(&mut meta, POINT_TAG);
        put_u64(&mut meta, self.dim as u64);
        put_u64(&mut meta, self.len as u64);
        put_u64(&mut meta, first);
        for &s in &sums {
            put_u64(&mut meta, s);
        }
        let mut w = PageStreamWriter::new(target);
        w.write_all(&meta)?;
        w.finish()
    }

    /// Reopen a point file persisted by [`save_to`](Self::save_to).
    pub fn open_from(store: Arc<dyn PageStore>, meta_first: u64) -> io::Result<Self> {
        let mut r = PageStreamReader::open(store.as_ref(), meta_first)?;
        let mut meta = Vec::new();
        r.read_to_end(&mut meta)?;
        let r = &mut &meta[..];
        expect_tag(r, POINT_TAG, "point file")?;
        let dim = get_len(r, "point-file dim")?;
        let len = get_len(r, "point-file record")?;
        let first = get_u64(r)?;
        if dim == 0 {
            return Err(invalid("point file has zero dimension"));
        }
        let pages = (len * dim * 8).div_ceil(PAGE_SIZE);
        if first + pages as u64 > store.page_count() {
            return Err(invalid("point-file image span exceeds the page store"));
        }
        let page_sums: Vec<u64> = (0..pages).map(|_| get_u64(r)).collect::<io::Result<_>>()?;
        Ok(PointFile {
            dim,
            len,
            data: SegVec::new(dim),
            dead: SegVec::from_slice(1, &vec![false; len]),
            live: len,
            page_sums,
            backing: Backing::Shared { store, first },
        })
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The backing page store.
    pub fn page_store(&self) -> &dyn PageStore {
        self.backing.store()
    }

    pub fn total_bytes(&self) -> usize {
        self.len * self.dim * 8
    }

    pub fn total_pages(&self) -> usize {
        self.total_bytes().div_ceil(PAGE_SIZE)
    }

    /// Scan the whole file, computing the Euclidean distance of every
    /// *live* point to `center`, and return the result as a
    /// [`SortedScan`] candidate stream. All pages and bytes are charged
    /// up front — tombstoned bytes included, the honest cost of
    /// un-reclaimed space — but distance evaluations are only counted
    /// (and computed) for live records. The shared backing verifies
    /// page checksums before any distance is computed.
    pub fn scan_ranked(&self, center: &[f64], ctx: &QueryContext) -> StoreResult<SortedScan> {
        assert_eq!(center.len(), self.dim);
        let total = self.total_bytes();
        let loaded: Option<Vec<f64>> = match &self.backing {
            Backing::Memory(pages) => {
                charge_image(pages, total, ctx);
                None
            }
            Backing::Shared { store, first } => {
                let img = load_image(store.as_ref(), *first, total, &self.page_sums, ctx)?;
                Some(le_f64s(&img).collect())
            }
        };
        // The loaded image, or the resident chunks: a shared backing
        // holds none.
        let chunks = loaded.as_deref().into_iter().chain(self.data.chunks());
        ctx.count_distance_evals(self.live_len() as u64);
        let cands: Vec<(u64, f64)> = chunks
            .flat_map(|chunk| chunk.chunks_exact(self.dim))
            .enumerate()
            .filter(|(i, _)| self.is_live(*i as u64))
            .map(|(i, p)| {
                let d2: f64 = p.iter().zip(center).map(|(a, b)| (a - b) * (a - b)).sum();
                (i as u64, d2.sqrt())
            })
            .collect();
        Ok(SortedScan::new(cands))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::{drain, CandidateSource};

    fn sample_sets() -> Vec<VectorSet> {
        sample(20)
    }

    fn sample(n: usize) -> Vec<VectorSet> {
        (0..n)
            .map(|i| {
                let mut s = VectorSet::new(6);
                for j in 0..(i % 7 + 1) {
                    let v: Vec<f64> = (0..6).map(|d| (i * 31 + j * 7 + d) as f64 * 0.1).collect();
                    s.push(&v);
                }
                s
            })
            .collect()
    }

    #[test]
    fn roundtrip_preserves_sets() {
        let sets = sample_sets();
        let store = VectorSetStore::build(&sets);
        let ctx = QueryContext::ephemeral();
        assert_eq!(store.len(), sets.len());
        for (i, s) in sets.iter().enumerate() {
            assert_eq!(&store.get(i as u64, &ctx).unwrap(), s);
        }
    }

    #[test]
    fn record_bytes_match_layout() {
        let sets = sample_sets();
        let store = VectorSetStore::build(&sets);
        for (i, s) in sets.iter().enumerate() {
            assert_eq!(store.record_bytes(i as u64), 8 + 8 * s.flat().len());
            assert_eq!(store.record_bytes(i as u64), s.storage_bytes());
        }
        let total: usize = (0..sets.len()).map(|i| store.record_bytes(i as u64)).sum();
        assert_eq!(total, store.total_bytes());
    }

    #[test]
    fn random_access_charges_record_io() {
        let sets = sample_sets();
        let store = VectorSetStore::build(&sets);
        let ctx = QueryContext::ephemeral();
        let _ = store.get(3, &ctx);
        let snap = ctx.stats(std::time::Duration::ZERO);
        assert!(snap.io.pages >= 1);
        assert_eq!(snap.io.bytes as usize, store.record_bytes(3));
    }

    #[test]
    fn repeated_get_through_warm_pool_is_free() {
        let sets = sample_sets();
        let store = VectorSetStore::build(&sets);
        let ctx = QueryContext::ephemeral();
        let _ = store.get(3, &ctx);
        let cold = ctx.stats(std::time::Duration::ZERO);
        let _ = store.get(3, &ctx);
        let warm = ctx.stats(std::time::Duration::ZERO);
        assert_eq!(warm.io.pages, cold.io.pages, "no new pages on a re-read");
        assert_eq!(warm.io.bytes, cold.io.bytes, "no new bytes on a re-read");
    }

    #[test]
    fn scan_charges_whole_file() {
        let sets = sample_sets();
        let store = VectorSetStore::build(&sets);
        let ctx = QueryContext::ephemeral();
        let n = store.scan(&ctx).unwrap().count();
        assert_eq!(n, sets.len());
        let snap = ctx.stats(std::time::Duration::ZERO);
        assert_eq!(snap.io.pages as usize, store.total_pages());
        assert_eq!(snap.io.bytes as usize, store.total_bytes());
    }

    #[test]
    fn page_straddling_records_charge_both_pages() {
        // Many 7-vector sets (344 bytes each): some records straddle the
        // 4096-byte page boundary and must charge 2 pages.
        let sets: Vec<VectorSet> = (0..40)
            .map(|_| {
                let mut s = VectorSet::new(6);
                for j in 0..7 {
                    s.push(&[j as f64; 6]);
                }
                s
            })
            .collect();
        let store = VectorSetStore::build(&sets);
        let mut straddlers = 0;
        for i in 0..store.len() {
            let ctx = QueryContext::ephemeral();
            let _ = store.get(i as u64, &ctx);
            if ctx.stats(std::time::Duration::ZERO).io.pages == 2 {
                straddlers += 1;
            }
        }
        assert!(straddlers > 0, "expected at least one page-straddling record");
    }

    #[test]
    fn empty_store() {
        let store = VectorSetStore::build(&[]);
        let ctx = QueryContext::ephemeral();
        assert!(store.is_empty());
        assert_eq!(store.total_pages(), 0);
        assert_eq!(store.scan(&ctx).unwrap().count(), 0);
    }

    #[test]
    fn point_file_scan_charges_whole_file_and_ranks() {
        let points: Vec<Vec<f64>> =
            (0..300).map(|i| (0..6).map(|d| ((i * 13 + d * 7) % 100) as f64).collect()).collect();
        let pf = PointFile::build(6, &points);
        assert_eq!(pf.len(), 300);
        assert_eq!(pf.total_bytes(), 300 * 6 * 8);
        let ctx = QueryContext::ephemeral();
        let q = vec![50.0; 6];
        let mut scan = pf.scan_ranked(&q, &ctx).unwrap();
        let snap = ctx.stats(std::time::Duration::ZERO);
        assert_eq!(snap.io.pages as usize, pf.total_pages());
        assert_eq!(snap.io.bytes as usize, pf.total_bytes());
        assert_eq!(snap.distance_evals, 300);
        let ranked = drain(&mut scan);
        assert_eq!(ranked.len(), 300);
        for w in ranked.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        // Distances bit-match the X-tree leaf formula.
        let (id0, d0) = ranked[0];
        let p = &points[id0 as usize];
        let want: f64 = p.iter().zip(&q).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
        assert_eq!(d0.to_bits(), want.to_bits());
    }

    #[test]
    fn point_file_warm_pool_rescan_is_free() {
        let points: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64; 6]).collect();
        let pf = PointFile::build(6, &points);
        let ctx = QueryContext::ephemeral();
        let _ = pf.scan_ranked(&[0.0; 6], &ctx);
        let cold = ctx.stats(std::time::Duration::ZERO);
        let _ = pf.scan_ranked(&[1.0; 6], &ctx);
        let warm = ctx.stats(std::time::Duration::ZERO);
        assert_eq!(warm.io.pages, cold.io.pages, "warm rescan reads no new pages");
        assert_eq!(warm.io.bytes, cold.io.bytes);
    }

    #[test]
    fn empty_point_file() {
        let pf = PointFile::build(4, &[]);
        assert!(pf.is_empty());
        assert_eq!(pf.total_pages(), 0);
        let ctx = QueryContext::ephemeral();
        let mut s = pf.scan_ranked(&[0.0; 4], &ctx).unwrap();
        assert_eq!(s.next_candidate(), None);
    }

    // ---- dynamic (append/tombstone) operations ----

    #[test]
    fn append_extends_heap_file_with_accurate_charges() {
        let sets = sample_sets();
        let mut store = VectorSetStore::build(&sets[..10]);
        for (i, s) in sets[10..].iter().enumerate() {
            let id = store.append(s).unwrap();
            assert_eq!(id, (10 + i) as u64);
        }
        let built = VectorSetStore::build(&sets);
        assert_eq!(store.len(), built.len());
        assert_eq!(store.total_bytes(), built.total_bytes());
        assert_eq!(store.total_pages(), built.total_pages());
        let ctx = QueryContext::ephemeral();
        for (i, s) in sets.iter().enumerate() {
            assert_eq!(&store.get(i as u64, &ctx).unwrap(), s);
        }
        // A cold scan of the appended store charges exactly what a
        // freshly built store of the same records charges.
        let (ca, cb) = (QueryContext::ephemeral(), QueryContext::ephemeral());
        let a: Vec<_> = store.scan(&ca).unwrap().collect();
        let b: Vec<_> = built.scan(&cb).unwrap().collect();
        assert_eq!(a, b);
        let (sa, sb) = (ca.stats(std::time::Duration::ZERO), cb.stats(std::time::Duration::ZERO));
        assert_eq!(sa.io.pages, sb.io.pages);
        assert_eq!(sa.io.bytes, sb.io.bytes);
    }

    #[test]
    fn tombstone_hides_records_but_keeps_charging_their_pages() {
        let sets = sample_sets();
        let mut store = VectorSetStore::build(&sets);
        assert!(store.tombstone(3));
        assert!(!store.tombstone(3), "second tombstone is a no-op");
        assert!(store.tombstone(7));
        assert!(!store.tombstone(999), "out of range");
        assert_eq!(store.live_len(), sets.len() - 2);
        assert!(!store.is_live(3) && store.is_live(4));
        let ctx = QueryContext::ephemeral();
        let ids: Vec<u64> = store.scan(&ctx).unwrap().map(|(id, _)| id).collect();
        assert!(!ids.contains(&3) && !ids.contains(&7));
        assert_eq!(ids.len(), sets.len() - 2);
        // Un-reclaimed space still costs: the scan charges the whole
        // file, dead bytes included.
        let snap = ctx.stats(std::time::Duration::ZERO);
        assert_eq!(snap.io.pages as usize, store.total_pages());
        assert_eq!(snap.io.bytes as usize, store.total_bytes());
    }

    #[test]
    fn tombstoned_files_refuse_to_save_uncompacted() {
        let mut store = VectorSetStore::build(&sample_sets());
        store.tombstone(0);
        let target = InMemoryPageStore::new();
        assert!(store.save_to(&target).is_err());

        let mut pf = PointFile::build(4, &[vec![0.0; 4], vec![1.0; 4]]);
        pf.tombstone(1);
        assert!(pf.save_to(&target).is_err());
    }

    #[test]
    fn reopened_files_refuse_append() {
        let mem = VectorSetStore::build(&sample_sets());
        let target = shared(InMemoryPageStore::new());
        let handle = mem.save_to(target.as_ref()).unwrap();
        let mut opened = VectorSetStore::open_from(Arc::clone(&target), handle.first).unwrap();
        assert!(opened.append(&sample_sets()[0]).is_err());

        let pf = PointFile::build(4, &[vec![0.0; 4]]);
        let handle = pf.save_to(target.as_ref()).unwrap();
        let mut opened = PointFile::open_from(target, handle.first).unwrap();
        assert!(opened.append(&[1.0; 4]).is_err());
    }

    #[test]
    fn point_file_append_and_tombstone_shape_the_ranking() {
        let mut pf = PointFile::build(2, &[vec![0.0, 0.0], vec![3.0, 4.0]]);
        assert_eq!(pf.append(&[6.0, 8.0]).unwrap(), 2);
        assert_eq!(pf.len(), 3);
        assert!(pf.tombstone(1));
        assert_eq!(pf.live_len(), 2);
        let ctx = QueryContext::ephemeral();
        let ranked = drain(&mut pf.scan_ranked(&[0.0, 0.0], &ctx).unwrap());
        assert_eq!(ranked.iter().map(|&(id, _)| id).collect::<Vec<_>>(), vec![0, 2]);
        let snap = ctx.stats(std::time::Duration::ZERO);
        assert_eq!(snap.distance_evals, 2, "dead points cost no distance evals");
        assert_eq!(snap.io.pages as usize, pf.total_pages(), "but their pages still charge");
    }

    #[test]
    fn point_file_append_allocates_pages_like_build() {
        // 6-d points are 48 bytes: appending past 4096/48 ≈ 85 records
        // must grow the page span exactly as a fresh build would.
        let points: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64; 6]).collect();
        let mut grown = PointFile::build(6, &points[..50]);
        for p in &points[50..] {
            grown.append(p).unwrap();
        }
        let built = PointFile::build(6, &points);
        assert_eq!(grown.total_pages(), built.total_pages());
        let (ca, cb) = (QueryContext::ephemeral(), QueryContext::ephemeral());
        let a = drain(&mut grown.scan_ranked(&[7.0; 6], &ca).unwrap());
        let b = drain(&mut built.scan_ranked(&[7.0; 6], &cb).unwrap());
        assert_eq!(a, b);
        let (sa, sb) = (ca.stats(std::time::Duration::ZERO), cb.stats(std::time::Duration::ZERO));
        assert_eq!(sa.io.pages, sb.io.pages);
        assert_eq!(sa.io.bytes, sb.io.bytes);
    }

    // ---- snapshots share, writes copy ----

    /// Everything a query can read off a heap file: every live record
    /// by `get` and the `scan`, with what both charge.
    fn heap_reads(store: &VectorSetStore) -> (Vec<Option<VectorSet>>, Vec<(u64, VectorSet)>, u64) {
        let ctx = QueryContext::ephemeral();
        let gets = (0..store.len() as u64)
            .map(|id| store.is_live(id).then(|| store.get(id, &ctx).unwrap()))
            .collect();
        let scanned = store.scan(&ctx).unwrap().collect();
        (gets, scanned, ctx.stats(std::time::Duration::ZERO).io.bytes)
    }

    fn saved_bytes(save: impl FnOnce(&InMemoryPageStore) -> io::Result<StreamHandle>) -> Vec<u8> {
        let target = InMemoryPageStore::new();
        save(&target).unwrap();
        let mut bytes = Vec::new();
        let mut page = vec![0u8; PAGE_SIZE];
        for p in 0..target.page_count() {
            target.read_into(p, &mut page).unwrap();
            bytes.extend_from_slice(&page);
        }
        bytes
    }

    #[test]
    fn a_heap_file_snapshot_is_not_moved_by_writes_to_its_origin() {
        // 800 records cross two boundaries of the image's segments, the
        // appends a third.
        let sets = sample(1400);
        let mut store = VectorSetStore::build(&sets[..800]);
        assert!(store.total_bytes() > 2 * IMAGE_SEGMENT);
        let first = (store.snapshot().unwrap(), heap_reads(&store));
        for id in [0, 7, 799] {
            assert!(store.tombstone(id));
        }
        let second = (store.snapshot().unwrap(), heap_reads(&store));
        assert_ne!(second.0.page_store().id(), store.page_store().id());
        for s in &sets[800..] {
            store.append(s).unwrap();
        }
        assert!(store.total_bytes() > 3 * IMAGE_SEGMENT);
        for id in (0..1400).step_by(3) {
            store.tombstone(id);
        }
        for (snapshot, then) in [&first, &second] {
            assert_eq!(&heap_reads(snapshot), then);
            assert_eq!(snapshot.total_pages() as u64, snapshot.page_store().page_count());
        }
        assert_eq!((first.0.live_len(), second.0.live_len()), (800, 797));
        // The first snapshot has no tombstone: it still saves, and saves
        // what a file of its 800 records saves.
        let fresh = VectorSetStore::build(&sets[..800]);
        assert_eq!(saved_bytes(|t| first.0.save_to(t)), saved_bytes(|t| fresh.save_to(t)));
        // A snapshot is a file like any other: appending to it leaves
        // its origin alone.
        let (mut snapshot, _) = second;
        let before = heap_reads(&store);
        assert_eq!(snapshot.append(&sets[0]).unwrap(), 800);
        assert_eq!(heap_reads(&store), before);
        assert_eq!(snapshot.get(800, &QueryContext::ephemeral()).unwrap(), sets[0]);
    }

    #[test]
    fn a_point_file_snapshot_is_not_moved_by_writes_to_its_origin() {
        let points: Vec<Vec<f64>> =
            (0..3000).map(|i| (0..6).map(|d| ((i * 13 + d * 7) % 101) as f64).collect()).collect();
        let ranked = |pf: &PointFile| {
            let ctx = QueryContext::ephemeral();
            let ranking = drain(&mut pf.scan_ranked(&[50.0; 6], &ctx).unwrap());
            let stats = ctx.stats(std::time::Duration::ZERO);
            (ranking, stats.io.pages, stats.distance_evals)
        };
        // 1500 points are one full segment and a half.
        let mut pf = PointFile::build(6, &points[..1500]);
        let snapshot = pf.snapshot().unwrap();
        let then = (ranked(&snapshot), saved_bytes(|t| snapshot.save_to(t)));
        for p in &points[1500..] {
            pf.append(p).unwrap();
        }
        for id in (0..3000).step_by(7) {
            assert!(pf.tombstone(id));
        }
        assert_eq!((ranked(&snapshot), saved_bytes(|t| snapshot.save_to(t))), then);
        assert_eq!((snapshot.len(), snapshot.live_len()), (1500, 1500));
        for (id, p) in points.iter().enumerate() {
            assert_eq!(pf.point(id as u64), Some(&p[..]), "a point is one slice at any id");
            assert_eq!(snapshot.point(id as u64).is_some(), id < 1500);
        }
        assert_eq!(ranked(&pf).2, 3000 - 429);
    }

    /// A flat publish, as a count: what a round of 150
    /// appends and 150 tombstones copies of files a snapshot shares is
    /// the tail of each and one segment of flags per tombstone at most —
    /// the same bound at ten times the records.
    #[test]
    fn a_round_copies_a_bounded_number_of_segments_however_long_the_files() {
        const ROUND: usize = 150;
        for n in [2_000, 20_000] {
            let sets = sample(n + ROUND);
            let points: Vec<Vec<f64>> = (0..n + ROUND).map(|i| vec![i as f64; 6]).collect();
            let mut heap = VectorSetStore::build(&sets[..n]);
            let mut pf = PointFile::build(6, &points[..n]);
            let (heap_then, pf_then) = (heap.snapshot().unwrap(), pf.snapshot().unwrap());
            for (s, p) in sets[n..].iter().zip(&points[n..]) {
                heap.append(s).unwrap();
                pf.append(p).unwrap();
            }
            for id in (0..n as u64).step_by(n / ROUND).take(ROUND) {
                assert!(heap.tombstone(id) && pf.tombstone(id));
            }
            // 150 records are under one segment of bytes, offsets or
            // points: the tail, and the one the tail may spill into.
            assert!(heap.image.unshared_segments(&heap_then.image) <= 2, "n = {n}: image");
            assert!(heap.offsets.unshared_segments(&heap_then.offsets) <= 2, "n = {n}: offsets");
            assert!(pf.data.unshared_segments(&pf_then.data) <= 2, "n = {n}: points");
            for (flags, then) in [(&heap.dead, &heap_then.dead), (&pf.dead, &pf_then.dead)] {
                let copied = flags.unshared_segments(then);
                assert!((1..=ROUND + 1).contains(&copied), "n = {n}: {copied} flag segments");
            }
        }
    }

    // ---- shared (file-backed) backing ----

    fn shared(store: InMemoryPageStore) -> Arc<dyn PageStore> {
        Arc::new(store)
    }

    #[test]
    fn vset_save_open_round_trips_with_identical_charging() {
        let sets = sample_sets();
        let mem = VectorSetStore::build(&sets);
        let target = shared(InMemoryPageStore::new());
        let handle = mem.save_to(target.as_ref()).unwrap();
        let opened = VectorSetStore::open_from(Arc::clone(&target), handle.first).unwrap();
        assert_eq!(opened.len(), mem.len());
        assert_eq!(opened.total_bytes(), mem.total_bytes());

        // get(): identical records, identical page/byte accounting.
        for i in 0..sets.len() as u64 {
            let (ca, cb) = (QueryContext::ephemeral(), QueryContext::ephemeral());
            assert_eq!(mem.get(i, &ca).unwrap(), opened.get(i, &cb).unwrap());
            let (sa, sb) =
                (ca.stats(std::time::Duration::ZERO), cb.stats(std::time::Duration::ZERO));
            assert_eq!(sa.io.pages, sb.io.pages, "record {i} page charge");
            assert_eq!(sa.io.bytes, sb.io.bytes, "record {i} byte charge");
        }

        // scan(): identical sequence and whole-file accounting.
        let (ca, cb) = (QueryContext::ephemeral(), QueryContext::ephemeral());
        let a: Vec<_> = mem.scan(&ca).unwrap().collect();
        let b: Vec<_> = opened.scan(&cb).unwrap().collect();
        assert_eq!(a, b);
        let (sa, sb) = (ca.stats(std::time::Duration::ZERO), cb.stats(std::time::Duration::ZERO));
        assert_eq!(sa.io.pages, sb.io.pages);
        assert_eq!(sa.io.bytes, sb.io.bytes);
    }

    #[test]
    fn point_file_save_open_ranks_bit_identically() {
        let points: Vec<Vec<f64>> =
            (0..150).map(|i| (0..6).map(|d| (i * 17 + d * 3) as f64 * 0.25).collect()).collect();
        let mem = PointFile::build(6, &points);
        let target = shared(InMemoryPageStore::new());
        let handle = mem.save_to(target.as_ref()).unwrap();
        let opened = PointFile::open_from(Arc::clone(&target), handle.first).unwrap();
        assert_eq!(opened.len(), mem.len());
        assert_eq!(opened.dim(), mem.dim());

        let q = vec![10.0; 6];
        let (ca, cb) = (QueryContext::ephemeral(), QueryContext::ephemeral());
        let a = drain(&mut mem.scan_ranked(&q, &ca).unwrap());
        let b = drain(&mut opened.scan_ranked(&q, &cb).unwrap());
        assert_eq!(a.len(), b.len());
        for ((ia, da), (ib, db)) in a.iter().zip(&b) {
            assert_eq!(ia, ib);
            assert_eq!(da.to_bits(), db.to_bits(), "distance bits for id {ia}");
        }
        let (sa, sb) = (ca.stats(std::time::Duration::ZERO), cb.stats(std::time::Duration::ZERO));
        assert_eq!(sa.io.pages, sb.io.pages);
        assert_eq!(sa.io.bytes, sb.io.bytes);
        assert_eq!(sa.distance_evals, sb.distance_evals);
    }

    #[test]
    fn corrupted_metadata_stream_is_rejected() {
        let sets = sample_sets();
        let mem = VectorSetStore::build(&sets);
        let target = shared(InMemoryPageStore::new());
        let handle = mem.save_to(target.as_ref()).unwrap();
        // Zero out the metadata stream's first page: checksum mismatch.
        target.write_page(handle.first, &[0u8; PAGE_SIZE]).unwrap();
        let err = VectorSetStore::open_from(target, handle.first).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    /// The metadata stream of a heap file saved into `target`.
    fn read_meta(target: &dyn PageStore, handle: StreamHandle) -> Vec<u8> {
        let mut meta = Vec::new();
        PageStreamReader::open(target, handle.first).unwrap().read_to_end(&mut meta).unwrap();
        meta
    }

    /// `words` as a metadata stream of its own in `target`, opened.
    fn open_words(target: Arc<dyn PageStore>, words: &[u64]) -> io::Result<VectorSetStore> {
        let mut w = PageStreamWriter::new(target.as_ref());
        for word in words {
            w.write_all(&word.to_le_bytes()).unwrap();
        }
        let first = w.finish().unwrap().first;
        VectorSetStore::open_from(target, first)
    }

    #[test]
    fn save_to_writes_the_v3_bytes_apart_from_the_tag_and_the_table() {
        // 100 records over five pages, saved in id order: the image span
        // and the stream behind its tag are what the commit before the
        // slot table wrote (checksum measured there); the v4 stream ends
        // in one more word, the length of a table it does not need.
        let mem = VectorSetStore::build(&sample(100));
        let target = InMemoryPageStore::new();
        let handle = mem.save_to(&target).unwrap();
        let meta = read_meta(&target, handle);
        let mut pinned = Vec::new();
        let mut page = vec![0u8; PAGE_SIZE];
        for p in 0..mem.total_pages() as u64 {
            target.read_into(p, &mut page).unwrap();
            pinned.extend_from_slice(&page);
        }
        let (v3, table) = meta[8..].split_at(meta.len() - 16);
        pinned.extend_from_slice(v3);
        assert_eq!(checksum(&pinned), 0xd8ac_9a02_42a7_e276);
        assert_eq!(meta[..8], VSET_TAG.to_le_bytes());
        assert_eq!(table, 0u64.to_le_bytes(), "the identity order writes no slot table");
    }

    #[test]
    fn an_extent_shorter_than_a_record_header_is_rejected_at_open() {
        // A valid one-record file, then the same stream with an empty
        // extent in front of the record: `get` would compute the last
        // page of bytes `0..0`.
        let target = shared(InMemoryPageStore::new());
        let handle = VectorSetStore::build(&sample(1)).save_to(target.as_ref()).unwrap();
        let meta = read_meta(target.as_ref(), handle);
        let words: Vec<u64> =
            meta.as_chunks::<8>().0.iter().map(|word| u64::from_le_bytes(*word)).collect();
        let [tag, dim, first, total, 2, 0, end, sum, 0] = words[..] else {
            panic!("unexpected one-record stream {words:?}");
        };
        assert_eq!((tag, total, end), (VSET_TAG, 56, 56));
        open_words(Arc::clone(&target), &words).expect("the stream as saved");
        for offsets in [[0, 0, 56], [0, 49, 56], [0, 56, 56]] {
            let mut short = vec![tag, dim, first, total, 3];
            short.extend(offsets);
            short.extend([sum, 0]);
            let err = open_words(Arc::clone(&target), &short).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{offsets:?}: {err}");
        }
    }

    #[test]
    fn a_v3_heap_file_is_refused_by_version_not_as_corrupt() {
        let err = open_words(shared(InMemoryPageStore::new()), &[VSET_TAG - 1, 6, 0, 0, 1, 0])
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("version 3") && msg.contains("reads 4"), "{msg}");
    }

    #[test]
    fn wrong_structure_tag_is_rejected() {
        let points: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64; 4]).collect();
        let pf = PointFile::build(4, &points);
        let target = shared(InMemoryPageStore::new());
        let handle = pf.save_to(target.as_ref()).unwrap();
        let err = VectorSetStore::open_from(target, handle.first).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("tag"), "{err}");
    }

    #[test]
    fn damaged_record_header_is_a_typed_error_for_that_record_only() {
        // Damage headers in the RAM image *before* saving, so every page
        // checksum is valid and only the decoder can notice: a count
        // that overruns the record, one that would allocate 32 GiB, and
        // a dimension whose product with the count still fits.
        let sets = sample_sets();
        let damaged = |store: &mut VectorSetStore, id: u64, dim: u32, n: u32| {
            let at = store.extent(id).start;
            for (i, byte) in dim.to_le_bytes().into_iter().chain(n.to_le_bytes()).enumerate() {
                store.image.set(at + i, &[byte]);
            }
        };
        let mut mem = VectorSetStore::build(&sets);
        damaged(&mut mem, 3, 6, sets[3].len() as u32 + 1);
        damaged(&mut mem, 9, 6, u32::MAX);
        assert_eq!(sets[12].len(), 6);
        damaged(&mut mem, 12, 9, 4);
        let target = shared(InMemoryPageStore::new());
        let handle = mem.save_to(target.as_ref()).unwrap();
        let opened = VectorSetStore::open_from(target, handle.first).unwrap();
        for store in [&mem, &opened] {
            let ctx = QueryContext::ephemeral();
            for (i, s) in sets.iter().enumerate() {
                match store.get(i as u64, &ctx) {
                    Ok(got) => assert_eq!(&got, s, "record {i}"),
                    Err(e) => {
                        assert_eq!(e.io_kind(), std::io::ErrorKind::InvalidData, "{e}");
                        assert!([3, 9, 12].contains(&i), "record {i} is intact: {e}");
                    }
                }
            }
            let err = store.scan(&ctx).err().expect("a scan decodes every record");
            assert_eq!(err.io_kind(), std::io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn reopened_file_cannot_be_resaved() {
        let mem = VectorSetStore::build(&sample_sets());
        let target = shared(InMemoryPageStore::new());
        let handle = mem.save_to(target.as_ref()).unwrap();
        let opened = VectorSetStore::open_from(Arc::clone(&target), handle.first).unwrap();
        assert!(opened.save_to(target.as_ref()).is_err());
    }
}
