//! Checksummed, length-prefixed record streams over a [`PageStore`].
//!
//! A *stream* is a singly linked chain of pages, each carrying a small
//! header and up to [`STREAM_PAYLOAD`] payload bytes:
//!
//! ```text
//! offset  0  next page (u64 LE, u64::MAX = none)
//! offset  8  payload length (u16 LE, <= STREAM_PAYLOAD)
//! offset 10  flags (u16 LE, bit 0 = last page)
//! offset 12  [`checksum`] of the payload (u64 LE)
//! offset 20  payload
//! ```
//!
//! Streams are how structures serialize themselves into a page store:
//! the writer allocates pages one at a time, and the reader verifies
//! every page's length and checksum. Because a truncated page file
//! reads its torn tail as zeros, a cut-off stream surfaces as a
//! checksum/length error instead of silently decoding garbage.

use std::io::{self, Read, Write};

use crate::checksum::checksum;
use crate::cost::PAGE_SIZE;
use crate::error::StoreError;
use crate::page::PageStore;

/// Bytes of stream header per page.
const STREAM_HEADER: usize = 20;
/// Payload bytes per stream page.
pub const STREAM_PAYLOAD: usize = PAGE_SIZE - STREAM_HEADER;

const NO_PAGE: u64 = u64::MAX;
const FLAG_LAST: u16 = 1;

/// Location and size of a finished stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHandle {
    /// First page of the chain.
    pub first: u64,
    /// Pages in the chain.
    pub pages: u64,
    /// Total payload bytes.
    pub bytes: u64,
}

/// [`Write`] adapter that spills into a chain of stream pages.
/// Call [`finish`](Self::finish) to seal the last page and get the
/// stream's location; dropping without finishing leaks the chain.
pub struct PageStreamWriter<'a> {
    store: &'a dyn PageStore,
    /// A filled page waiting for its successor's number.
    pending: Option<(u64, Vec<u8>)>,
    first: Option<u64>,
    pages: u64,
    bytes: u64,
    buf: Vec<u8>,
}

impl<'a> PageStreamWriter<'a> {
    pub fn new(store: &'a dyn PageStore) -> Self {
        PageStreamWriter {
            store,
            pending: None,
            first: None,
            pages: 0,
            bytes: 0,
            buf: Vec::with_capacity(STREAM_PAYLOAD),
        }
    }

    /// Move the full buffer into `pending`, flushing the previously
    /// pending page now that its `next` pointer is known.
    fn seal_page(&mut self) -> io::Result<()> {
        let page = self.store.allocate(1)?;
        self.first.get_or_insert(page);
        self.pages += 1;
        let payload = std::mem::replace(&mut self.buf, Vec::with_capacity(STREAM_PAYLOAD));
        if let Some((prev_page, prev_payload)) = self.pending.replace((page, payload)) {
            write_stream_page(self.store, prev_page, page, 0, &prev_payload)?;
        }
        Ok(())
    }

    /// Seal the stream and return where it lives.
    pub fn finish(mut self) -> io::Result<StreamHandle> {
        // Always seal, so even an empty stream occupies one page and
        // has a well-defined first page.
        if self.pending.is_none() || !self.buf.is_empty() {
            self.seal_page()?;
        }
        // seal_page always leaves a pending page and records the first
        // page of the chain; a missing one means the writer itself is
        // broken, which is reported rather than unwrapped.
        let Some((page, payload)) = self.pending.take() else {
            return Err(io::Error::other("stream writer sealed no page"));
        };
        write_stream_page(self.store, page, NO_PAGE, FLAG_LAST, &payload)?;
        let first = self.first.unwrap_or(page);
        Ok(StreamHandle { first, pages: self.pages, bytes: self.bytes })
    }
}

impl Write for PageStreamWriter<'_> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let mut rest = data;
        while !rest.is_empty() {
            let room = STREAM_PAYLOAD - self.buf.len();
            let take = room.min(rest.len());
            self.buf.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.buf.len() == STREAM_PAYLOAD {
                self.seal_page()?;
            }
        }
        self.bytes += data.len() as u64;
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn write_stream_page(
    store: &dyn PageStore,
    page: u64,
    next: u64,
    flags: u16,
    payload: &[u8],
) -> io::Result<()> {
    let mut image = Vec::with_capacity(STREAM_HEADER + payload.len());
    image.extend_from_slice(&next.to_le_bytes());
    image.extend_from_slice(&(payload.len() as u16).to_le_bytes());
    image.extend_from_slice(&flags.to_le_bytes());
    image.extend_from_slice(&checksum(payload).to_le_bytes());
    image.extend_from_slice(payload);
    store.write_page(page, &image)?;
    Ok(())
}

/// One decoded stream page.
struct StreamPage {
    next: Option<u64>,
    payload: Vec<u8>,
}

/// Checksum-failed pages are re-read this many extra times before the
/// corruption is declared permanent — a transient fault (a bad transfer
/// rather than bad media) heals on retry.
const READ_RETRIES: usize = 2;

/// Little-endian field readers over the page image (always a full
/// [`PAGE_SIZE`] buffer, so the constant offsets cannot slice out of
/// bounds).
fn le_u64(buf: &[u8], offset: usize) -> u64 {
    let mut v = [0u8; 8];
    v.copy_from_slice(&buf[offset..offset + 8]);
    u64::from_le_bytes(v)
}

fn le_u16(buf: &[u8], offset: usize) -> u16 {
    let mut v = [0u8; 2];
    v.copy_from_slice(&buf[offset..offset + 2]);
    u16::from_le_bytes(v)
}

fn decode_stream_page(store: &dyn PageStore, page: u64) -> io::Result<StreamPage> {
    let mut attempt = 0;
    loop {
        match decode_stream_page_once(store, page) {
            Err(e) if attempt < READ_RETRIES && is_checksum_mismatch(&e) => attempt += 1,
            result => return result,
        }
    }
}

fn is_checksum_mismatch(e: &io::Error) -> bool {
    e.get_ref().is_some_and(|r| {
        matches!(r.downcast_ref::<StoreError>(), Some(StoreError::Corruption { .. }))
    })
}

fn decode_stream_page_once(store: &dyn PageStore, page: u64) -> io::Result<StreamPage> {
    let bad = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    if page >= store.page_count() {
        return Err(bad(format!("stream page {page} out of bounds (truncated page file?)")));
    }
    let mut image = vec![0u8; PAGE_SIZE];
    store.read_into(page, &mut image)?;
    let next = le_u64(&image, 0);
    let len = le_u16(&image, 8) as usize;
    let flags = le_u16(&image, 10);
    let expected = le_u64(&image, 12);
    if len > STREAM_PAYLOAD {
        return Err(bad(format!("stream page {page} has impossible length {len}")));
    }
    let last = flags & FLAG_LAST != 0;
    if last != (next == NO_PAGE) {
        return Err(bad(format!("stream page {page} has inconsistent tail marker")));
    }
    let payload = image[STREAM_HEADER..STREAM_HEADER + len].to_vec();
    let found = checksum(&payload);
    if found != expected {
        return Err(StoreError::Corruption { page, expected, found }.into());
    }
    Ok(StreamPage { next: (!last).then_some(next), payload })
}

/// [`Read`] adapter over a stream chain, verifying every page.
pub struct PageStreamReader<'a> {
    store: &'a dyn PageStore,
    next: Option<u64>,
    current: Vec<u8>,
    pos: usize,
    pages_read: u64,
}

impl std::fmt::Debug for PageStreamReader<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageStreamReader")
            .field("next", &self.next)
            .field("pos", &self.pos)
            .field("pages_read", &self.pages_read)
            .finish_non_exhaustive()
    }
}

impl<'a> PageStreamReader<'a> {
    /// Open the stream starting at `first`; the first page is read and
    /// verified eagerly so corruption fails fast.
    pub fn open(store: &'a dyn PageStore, first: u64) -> io::Result<Self> {
        let mut reader = PageStreamReader {
            store,
            next: Some(first),
            current: Vec::new(),
            pos: 0,
            pages_read: 0,
        };
        reader.advance()?;
        Ok(reader)
    }

    fn advance(&mut self) -> io::Result<bool> {
        let Some(page) = self.next else {
            return Ok(false);
        };
        // A corrupted next-pointer cycle would otherwise loop forever.
        if self.pages_read > self.store.page_count() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "stream chain longer than the page file (cycle?)",
            ));
        }
        let decoded = decode_stream_page(self.store, page)?;
        self.next = decoded.next;
        self.current = decoded.payload;
        self.pos = 0;
        self.pages_read += 1;
        Ok(true)
    }
}

impl Read for PageStreamReader<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        loop {
            let avail = self.current.len() - self.pos;
            if avail > 0 {
                let take = avail.min(out.len());
                out[..take].copy_from_slice(&self.current[self.pos..self.pos + take]);
                self.pos += take;
                return Ok(take);
            }
            if !self.advance()? {
                return Ok(0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::InMemoryPageStore;

    fn round_trip(len: usize) {
        let store = InMemoryPageStore::new();
        let data: Vec<u8> = (0..len).map(|i| (i * 31 % 256) as u8).collect();
        let mut w = PageStreamWriter::new(&store);
        w.write_all(&data).unwrap();
        let handle = w.finish().unwrap();
        assert_eq!(handle.bytes, len as u64);
        assert_eq!(handle.pages, (len.div_ceil(STREAM_PAYLOAD) as u64).max(1));
        let mut r = PageStreamReader::open(&store, handle.first).unwrap();
        let mut back = Vec::new();
        r.read_to_end(&mut back).unwrap();
        assert_eq!(back, data, "round trip of {len} bytes");
    }

    #[test]
    fn round_trips_across_page_boundaries() {
        for len in
            [0, 1, STREAM_PAYLOAD - 1, STREAM_PAYLOAD, STREAM_PAYLOAD + 1, 3 * STREAM_PAYLOAD + 17]
        {
            round_trip(len);
        }
    }

    #[test]
    fn corrupted_page_is_detected() {
        let store = InMemoryPageStore::new();
        let mut w = PageStreamWriter::new(&store);
        w.write_all(&vec![5u8; 2 * STREAM_PAYLOAD]).unwrap();
        let handle = w.finish().unwrap();
        // Corrupt the second page's payload, keeping its header intact.
        let mut image = vec![0u8; PAGE_SIZE];
        let second = handle.first + 1;
        store.read_into(second, &mut image).unwrap();
        image[STREAM_HEADER + 10] ^= 0xff;
        store.write_page(second, &image).unwrap();
        let mut r = PageStreamReader::open(&store, handle.first).unwrap();
        let err = r.read_to_end(&mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("checksum"), "got: {err}");
    }

    #[test]
    fn truncated_tail_is_detected_not_ub() {
        let store = InMemoryPageStore::new();
        let mut w = PageStreamWriter::new(&store);
        w.write_all(&vec![9u8; 2 * STREAM_PAYLOAD + 5]).unwrap();
        let handle = w.finish().unwrap();
        // Zero the last page: this is exactly what a torn file tail
        // reads as after reopen.
        store.write_page(handle.first + 2, &[0u8; PAGE_SIZE]).unwrap();
        let mut r = PageStreamReader::open(&store, handle.first).unwrap();
        let err = r.read_to_end(&mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn out_of_bounds_first_page_is_detected() {
        let store = InMemoryPageStore::new();
        let err = PageStreamReader::open(&store, 3).unwrap_err();
        assert!(err.to_string().contains("out of bounds"));
    }

    #[test]
    fn all_zero_page_fails_its_own_zero_checksum_field() {
        // What `pread` returns for a torn tail: no `next`, length 0,
        // checksum field 0 — and `checksum(&[])` is not 0.
        let store = InMemoryPageStore::new();
        let page = store.allocate(1).unwrap();
        let err = decode_stream_page(&store, page).err().expect("zeros decoded as a page");
        assert!(is_checksum_mismatch(&err), "got: {err}");
    }
}
