//! Page-level persistence for index structures.
//!
//! Every structure in this crate serializes itself into a checksummed
//! page stream (`vsim_store::PageStreamWriter`) of a target page store,
//! so an X-tree, M-tree, point file, or vector-set heap file can be
//! written once into a [`FilePageStore`](vsim_store::FilePageStore) and
//! reopened crash-safely: a truncated or torn file surfaces as a
//! decode error, never as garbage query results. This module holds the
//! shared pieces:
//!
//! * tiny LE codec helpers over `io::Read`/`Vec<u8>`;
//! * [`PagePayload`] — objects an [`MTree`](crate::MTree) can persist;
//! * `NodeStore` — a node-page store that is either *owned* (the
//!   classic in-memory bump allocator) or *shared* (a span inside a
//!   durable page file, where page numbers were fixed at save time).

use std::io::{self, Read};
use std::sync::Arc;

use vsim_setdist::VectorSet;
use vsim_store::{InMemoryPageStore, PageStore, StoreId};

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// The next little-endian `u64` of a metadata stream.
pub fn get_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// The next `f64` of a metadata stream, bit for bit.
pub fn get_f64(r: &mut impl Read) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

pub(crate) fn get_usize(r: &mut impl Read) -> io::Result<usize> {
    let v = get_u64(r)?;
    usize::try_from(v)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "length overflows usize"))
}

/// An `InvalidData` error: what every failed check on a persisted
/// stream returns.
pub fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Read and check a structure tag (kind in the high half, format
/// version in the low); persisted streams start with one so opening the
/// wrong kind of stream fails loudly, and the right kind in another
/// version is refused by version, not as corrupt.
pub fn expect_tag(r: &mut impl Read, want: u64, what: &str) -> io::Result<()> {
    let got = get_u64(r)?;
    if got == want {
        return Ok(());
    }
    Err(invalid(if got >> 32 == want >> 32 {
        format!("{what} tag is version {} (this build reads {})", got as u32, want as u32)
    } else {
        format!("stream tag {got:#018x} is not a {what} tag")
    }))
}

/// Sanity bound for deserialized collection lengths: a corrupted count
/// must not turn into a huge allocation.
pub(crate) fn get_len(r: &mut impl Read, what: &str) -> io::Result<usize> {
    let v = get_usize(r)?;
    if v > (1 << 32) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("implausible {what} count {v}"),
        ));
    }
    Ok(v)
}

/// An object type that can live inside a persisted [`MTree`]:
/// fixed-point-free binary encode/decode (f64 bits round-trip exactly,
/// so reopened trees return bit-identical distances).
///
/// [`MTree`]: crate::MTree
pub trait PagePayload: Sized {
    fn encode_into(&self, out: &mut Vec<u8>);
    fn decode_from(r: &mut impl Read) -> io::Result<Self>;
}

impl PagePayload for Vec<f64> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.len() as u64);
        for &v in self {
            put_f64(out, v);
        }
    }

    fn decode_from(r: &mut impl Read) -> io::Result<Self> {
        let n = get_len(r, "point coordinate")?;
        (0..n).map(|_| get_f64(r)).collect()
    }
}

impl PagePayload for VectorSet {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.dim() as u64);
        put_u64(out, self.flat().len() as u64);
        for &v in self.flat() {
            put_f64(out, v);
        }
    }

    fn decode_from(r: &mut impl Read) -> io::Result<Self> {
        let dim = get_len(r, "vector-set dim")?;
        let n = get_len(r, "vector-set coordinate")?;
        if dim == 0 || n % dim != 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "vector-set shape mismatch"));
        }
        let flat: Vec<f64> = (0..n).map(|_| get_f64(r)).collect::<io::Result<_>>()?;
        Ok(VectorSet::from_flat(dim, flat))
    }
}

/// A fresh page-store identity with `of`'s page span: what a snapshot
/// charges its accesses to.
pub(crate) fn same_span(of: &InMemoryPageStore) -> io::Result<InMemoryPageStore> {
    let fresh = InMemoryPageStore::new();
    if of.page_count() > 0 {
        fresh.allocate(of.page_count())?;
    }
    Ok(fresh)
}

/// Where an index's node pages live: an owned in-memory bump allocator
/// (the build-time default) or a shared durable page store, inside
/// which the node spans were allocated at save time.
pub(crate) enum NodeStore {
    Owned(InMemoryPageStore),
    Shared(Arc<dyn PageStore>),
}

impl std::fmt::Debug for NodeStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeStore::Owned(s) => f.debug_tuple("Owned").field(&s.id()).finish(),
            NodeStore::Shared(s) => f.debug_tuple("Shared").field(&s.id()).finish(),
        }
    }
}

impl NodeStore {
    pub(crate) fn fresh() -> Self {
        NodeStore::Owned(InMemoryPageStore::new())
    }

    /// A fresh in-memory store with the same page span allocated, so
    /// node page numbers recorded by the owning tree stay valid in its
    /// snapshot. The new store has its own identity: a snapshot is a
    /// distinct file to every buffer pool. Shared (durable) stores
    /// cannot be snapshotted — dynamic epochs are in-memory only.
    pub(crate) fn snapshot(&self) -> io::Result<NodeStore> {
        match self {
            NodeStore::Owned(s) => Ok(NodeStore::Owned(same_span(s)?)),
            NodeStore::Shared(_) => {
                Err(invalid("cannot snapshot an index opened from a page store"))
            }
        }
    }

    pub(crate) fn as_store(&self) -> &dyn PageStore {
        match self {
            NodeStore::Owned(s) => s,
            NodeStore::Shared(s) => s.as_ref(),
        }
    }

    pub(crate) fn id(&self) -> StoreId {
        self.as_store().id()
    }

    /// Allocate a node span. A tree is only mutated through
    /// `FilterRefineIndex` or `DynamicIndex` (in `vsim-query`), and both
    /// refuse an index opened from a page file at the heap file's
    /// `append`, before the tree is touched; so a span is only ever
    /// allocated from an in-memory store, which is unbounded. (A page
    /// file opened read-only would refuse it.)
    #[allow(
        clippy::expect_used,
        reason = "trees are only mutated while their store is in memory (see doc comment)"
    )]
    pub(crate) fn allocate(&self, pages: u64) -> u64 {
        self.as_store().allocate(pages).expect("node page allocation failed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: PagePayload + PartialEq + std::fmt::Debug>(v: &T) {
        let mut buf = Vec::new();
        v.encode_into(&mut buf);
        let back = T::decode_from(&mut &buf[..]).unwrap();
        assert_eq!(&back, v);
    }

    #[test]
    fn payload_codecs_round_trip_bit_exactly() {
        round_trip(&vec![1.5f64, -0.0, f64::MIN_POSITIVE, 1e300]);
        round_trip(&Vec::<f64>::new());
        let mut s = VectorSet::new(3);
        s.push(&[1.0, 2.0, 3.0]);
        s.push(&[-1.0, 0.25, 1e-12]);
        round_trip(&s);
    }

    #[test]
    fn corrupted_payload_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        vec![1.0f64; 4].encode_into(&mut buf);
        assert!(Vec::<f64>::decode_from(&mut &buf[..buf.len() - 3]).is_err(), "truncated");
        let huge = u64::MAX.to_le_bytes();
        assert!(Vec::<f64>::decode_from(&mut &huge[..]).is_err(), "implausible length");
    }
}
