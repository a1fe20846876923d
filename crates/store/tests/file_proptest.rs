//! Property tests for the durable page file: arbitrary workloads
//! round-trip bit-identically across a close/reopen (pread and mmap),
//! and corruption or truncation of the header page is always detected
//! at open — never silently accepted, never UB.

use proptest::prelude::*;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use vsim_store::{
    Fault, FaultInjectingPageStore, FaultPlan, FilePageStore, InMemoryPageStore, PageStore,
    PageStreamReader, PageStreamWriter, PAGE_SIZE,
};

static SEQ: AtomicU64 = AtomicU64::new(0);

/// Unique path per proptest case; the wrapper removes it on drop so
/// repeated cases never observe each other's files.
fn temp_file(tag: &str) -> TempFile {
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    TempFile(std::env::temp_dir().join(format!("vsim_prop_{tag}_{}_{n}.vspf", std::process::id())))
}

struct TempFile(PathBuf);
impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Deterministic page image for span `s`, page `p` — cheap to recompute
/// on the read side for bit-exact comparison.
fn page_image(s: usize, p: u64, len: usize) -> Vec<u8> {
    (0..len).map(|i| (s.wrapping_mul(31) + p as usize * 7 + i) as u8).collect()
}

/// `(pages, byte_len)` span shapes: 1–3 pages, 1..=PAGE_SIZE bytes
/// written to each.
fn span_shape() -> impl Strategy<Value = (u64, usize)> {
    (0u64..3 * PAGE_SIZE as u64).prop_map(|x| (1 + x % 3, 1 + (x / 3) as usize % PAGE_SIZE))
}

/// The header page; data starts here.
const META_BYTES: usize = PAGE_SIZE;

/// Bytes of the header's checksummed fields and their checksum.
const HEADER_BYTES: usize = 36;

proptest! {
    #[test]
    fn any_workload_round_trips_bit_identically_after_reopen(
        spans in proptest::collection::vec(span_shape(), 1..12),
        root in 0u64..16,
    ) {
        let path = temp_file("round_trip");
        let mut placed = Vec::new();
        {
            let store = FilePageStore::create(&path.0, 256).unwrap();
            for (s, &(pages, len)) in spans.iter().enumerate() {
                let first = store.allocate(pages).unwrap();
                for p in 0..pages {
                    store.write_page(first + p, &page_image(s, p, len)).unwrap();
                }
                placed.push((first, pages, len));
            }
            store.set_root(root);
            store.sync().unwrap();
        }
        for open in [FilePageStore::open, FilePageStore::open_mmap] {
            let store = open(&path.0).unwrap();
            prop_assert_eq!(store.root(), Some(root));
            prop_assert_eq!(store.page_count(), spans.iter().map(|&(p, _)| p).sum::<u64>());
            let mut buf = vec![0u8; PAGE_SIZE];
            for (s, &(first, pages, len)) in placed.iter().enumerate() {
                for p in 0..pages {
                    store.read_into(first + p, &mut buf).unwrap();
                    prop_assert_eq!(&buf[..len], &page_image(s, p, len)[..]);
                    prop_assert!(
                        buf[len..].iter().all(|&b| b == 0),
                        "unwritten page tail must read as zeros"
                    );
                }
            }
        }
    }

    #[test]
    fn a_flipped_header_byte_is_invalid_data(
        offset in 0usize..HEADER_BYTES,
        mask in 1u8..=255,
    ) {
        let path = temp_file("corrupt");
        {
            let store = FilePageStore::create(&path.0, 64).unwrap();
            store.allocate(3).unwrap();
            store.set_root(1);
            store.sync().unwrap();
        }
        // Any byte of magic, version, page size, page count, root or
        // the checksum itself.
        let mut bytes = std::fs::read(&path.0).unwrap();
        bytes[offset] ^= mask;
        std::fs::write(&path.0, &bytes).unwrap();
        for open in [FilePageStore::open, FilePageStore::open_mmap] {
            let err = open(&path.0).unwrap_err();
            prop_assert_eq!(err.io_kind(), std::io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn a_cut_inside_the_header_page_is_invalid_data(cut in 0usize..PAGE_SIZE) {
        let path = temp_file("meta_trunc");
        {
            let store = FilePageStore::create(&path.0, 64).unwrap();
            store.allocate(2).unwrap();
            store.sync().unwrap();
        }
        let bytes = std::fs::read(&path.0).unwrap();
        std::fs::write(&path.0, &bytes[..cut]).unwrap();
        for open in [FilePageStore::open, FilePageStore::open_mmap] {
            let err = open(&path.0).unwrap_err();
            prop_assert_eq!(err.io_kind(), std::io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn stream_payloads_survive_reopen_and_detect_a_torn_tail(
        payload in proptest::collection::vec(1u8..=255, 64..2 * PAGE_SIZE),
        cut_frac in 0.0f64..0.95,
    ) {
        let path = temp_file("stream");
        {
            let store = FilePageStore::create(&path.0, 64).unwrap();
            let mut w = PageStreamWriter::new(&store);
            w.write_all(&payload).unwrap();
            let h = w.finish().unwrap();
            store.set_root(h.first);
            store.sync().unwrap();
        }
        // Intact file: the payload reads back bit-identically.
        {
            let store = FilePageStore::open(&path.0).unwrap();
            let mut r = PageStreamReader::open(&store, store.root().unwrap()).unwrap();
            let mut got = Vec::new();
            r.read_to_end(&mut got).unwrap();
            prop_assert_eq!(&got, &payload);
        }
        // Torn data tail: bytes past the cut read as zeros; the stream's
        // checksum/framing must turn that into an error, not wrong bytes.
        // Cut strictly inside the stream's meaningful extent (full pages
        // carry STREAM_PAYLOAD payload bytes each behind a 20-byte
        // header; the final partial page only its written prefix), so —
        // payload bytes being nonzero — at least one real byte is lost.
        const STREAM_PAYLOAD: usize = PAGE_SIZE - 20;
        let (full, rem) = (payload.len() / STREAM_PAYLOAD, payload.len() % STREAM_PAYLOAD);
        let extent = full * PAGE_SIZE + if rem > 0 { 20 + rem } else { 0 };
        let bytes = std::fs::read(&path.0).unwrap();
        let keep = META_BYTES + (extent as f64 * cut_frac) as usize;
        std::fs::write(&path.0, &bytes[..keep]).unwrap();
        let store = FilePageStore::open(&path.0).unwrap();
        let mut got = Vec::new();
        let outcome = PageStreamReader::open(&store, store.root().unwrap())
            .and_then(|mut r| r.read_to_end(&mut got));
        prop_assert!(outcome.is_err(), "torn stream tail must be an error");
    }

    /// An empty [`FaultPlan`] makes the wrapper a transparent
    /// pass-through: the same workload against a bare store and a
    /// wrapped one observes identical placements, identical read-back
    /// bytes, and identical page counts (memory backend).
    #[test]
    fn empty_fault_plan_is_bit_identical_to_the_bare_memory_store(
        spans in proptest::collection::vec(span_shape(), 2..10),
    ) {
        let bare = InMemoryPageStore::new();
        let wrapped = FaultInjectingPageStore::new(InMemoryPageStore::new(), FaultPlan::none());
        let a = run_workload(&bare, &spans);
        let b = run_workload(&wrapped, &spans);
        prop_assert_eq!(a, b);
    }

    /// Same pass-through property on the durable backend, strengthened
    /// to the on-disk image: after identical workloads plus a sync, the
    /// bare store's file and the wrapped store's file are bit-identical,
    /// and an mmap reopen of the wrapped file (itself re-wrapped) reads
    /// back the same observables.
    #[test]
    fn empty_fault_plan_is_bit_identical_on_file_and_mmap(
        spans in proptest::collection::vec(span_shape(), 2..8),
    ) {
        let (pa, pb) = (temp_file("ident_bare"), temp_file("ident_wrap"));
        let a = run_workload(&FilePageStore::create(&pa.0, 256).unwrap(), &spans);
        let wrapped = FaultInjectingPageStore::new(
            FilePageStore::create(&pb.0, 256).unwrap(),
            FaultPlan::none(),
        );
        let b = run_workload(&wrapped, &spans);
        drop(wrapped);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(
            std::fs::read(&pa.0).unwrap(),
            std::fs::read(&pb.0).unwrap(),
            "wrapped and bare stores must leave bit-identical files"
        );
        let mmap = FaultInjectingPageStore::new(
            FilePageStore::open_mmap(&pb.0).unwrap(),
            FaultPlan::none(),
        );
        prop_assert_eq!(replay_reads(&mmap, &spans, &a.0), a.1);
    }

    /// A persistent (write-side) bit flip anywhere in the checksummed
    /// extent of a stream page — the stored checksum itself or the
    /// payload — is always caught when the stream is read back; a
    /// corrupt page never decodes into wrong bytes.
    #[test]
    fn injected_write_corruption_is_always_caught_by_stream_checksums(
        seed in 0u8..=255,
        bit in 12 * 8..PAGE_SIZE * 8,
    ) {
        // One full-page payload: op 0 allocates the page, op 1 writes
        // it — the flip lands in the written image and stays on media.
        let payload: Vec<u8> =
            (0..vsim_store::STREAM_PAYLOAD).map(|i| 1 + (seed as usize + i) as u8 % 255).collect();
        let store = FaultInjectingPageStore::new(
            InMemoryPageStore::new(),
            FaultPlan::none().with_fault(1, Fault::BitFlip { bit }),
        );
        let mut w = PageStreamWriter::new(&store);
        w.write_all(&payload).unwrap();
        let h = w.finish().unwrap();
        let mut got = Vec::new();
        let outcome = PageStreamReader::open(store.inner(), h.first)
            .and_then(|mut r| r.read_to_end(&mut got));
        prop_assert!(outcome.is_err(), "flipped bit decoded as valid");
        prop_assert_eq!(outcome.unwrap_err().kind(), std::io::ErrorKind::InvalidData);
    }
}

/// Drive a fixed workload (allocate + write every span, sync, read
/// everything back) and collect every observable:
/// span placements, read-back images, and the final page count.
fn run_workload(store: &dyn PageStore, spans: &[(u64, usize)]) -> (Vec<u64>, Vec<u8>, u64) {
    let mut firsts = Vec::new();
    for (s, &(pages, len)) in spans.iter().enumerate() {
        let first = store.allocate(pages).unwrap();
        for p in 0..pages {
            store.write_page(first + p, &page_image(s, p, len)).unwrap();
        }
        firsts.push(first);
    }
    store.sync().unwrap();
    let readback = replay_reads(store, spans, &firsts);
    (firsts, readback, store.page_count())
}

/// Re-read the spans of [`run_workload`]'s layout and concatenate the
/// raw page images.
fn replay_reads(store: &dyn PageStore, spans: &[(u64, usize)], firsts: &[u64]) -> Vec<u8> {
    let mut readback = Vec::new();
    let mut buf = vec![0u8; PAGE_SIZE];
    for (&first, &(pages, _)) in firsts.iter().zip(spans) {
        for p in 0..pages {
            store.read_into(first + p, &mut buf).unwrap();
            readback.extend_from_slice(&buf);
        }
    }
    readback
}
