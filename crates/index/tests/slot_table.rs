//! The heap file's extent table under every record order: whatever
//! permutation a save lays the records out in, the reopened file must be
//! indistinguishable through `get`, `scan` and `record_bytes` — and what
//! is not a permutation must be refused, by the save that is handed it
//! and by the open that finds it in a stream.

use std::io::{ErrorKind, Read, Write};
use std::sync::Arc;

use proptest::prelude::*;
use vsim_index::{
    InMemoryPageStore, PageStore, PageStreamReader, PageStreamWriter, QueryContext, VectorSetStore,
};
use vsim_setdist::VectorSet;

/// Set `i` holds `cards[i]` 6-d vectors whose values name the set.
fn sets(cards: &[usize]) -> Vec<VectorSet> {
    cards
        .iter()
        .enumerate()
        .map(|(i, &card)| {
            let mut s = VectorSet::new(6);
            for j in 0..card {
                s.push(&[(i * 8 + j) as f64 * 0.25; 6]);
            }
            s
        })
        .collect()
}

/// The permutation that sorts `keys` (ties by position).
fn argsort(keys: &[u64]) -> Vec<u64> {
    let mut order: Vec<u64> = (0..keys.len() as u64).collect();
    order.sort_by_key(|&i| keys[i as usize]);
    order
}

fn shared() -> Arc<dyn PageStore> {
    Arc::new(InMemoryPageStore::new())
}

proptest! {
    /// Cardinalities 0..=40 make records of 8 to 1928 bytes, so images
    /// run over several pages and records straddle their boundaries.
    #[test]
    fn any_record_order_reopens_as_the_same_file(
        cards in proptest::collection::vec(0usize..=40, 0..60),
        keys in proptest::collection::vec(0u64..16, 60),
    ) {
        let sets = sets(&cards);
        let mem = VectorSetStore::build(&sets);
        let target = shared();
        let order = argsort(&keys[..sets.len()]);
        let handle = mem.write_ordered(target.as_ref(), &order).unwrap();
        let opened = VectorSetStore::open_from(Arc::clone(&target), handle.first).unwrap();
        prop_assert_eq!(opened.len(), sets.len());
        prop_assert_eq!(opened.total_bytes(), mem.total_bytes());
        let ctx = QueryContext::ephemeral();
        for (id, set) in sets.iter().enumerate() {
            prop_assert_eq!(&opened.get(id as u64, &ctx).unwrap(), set);
            prop_assert_eq!(opened.record_bytes(id as u64), set.storage_bytes());
        }
        let scanned: Vec<(u64, VectorSet)> = opened.scan(&ctx).unwrap().collect();
        let want: Vec<(u64, VectorSet)> = (0..).zip(sets.iter().cloned()).collect();
        prop_assert_eq!(scanned, want);
    }
}

#[test]
fn a_save_order_that_is_not_a_permutation_is_rejected() {
    let mem = VectorSetStore::build(&sets(&[1, 2, 3, 4]));
    let target = InMemoryPageStore::new();
    for (order, what) in [
        (&[0, 1, 1, 3][..], "a repeated id"),
        (&[0, 1, 2, 4], "an id out of range"),
        (&[0, 1, 2], "a short table"),
        (&[0, 1, 2, 3, 0], "a long table"),
    ] {
        let err = mem.write_ordered(&target, order).expect_err(what);
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{what}: {err}");
    }
    assert_eq!(target.page_count(), 0, "a refused save writes nothing");
    mem.write_ordered(&target, &[3, 1, 0, 2]).unwrap();
}

/// A saved stream with its slot table (count word, then one `u32` per
/// id, the last thing in the stream) replaced by `table`, reopened.
fn reopen_with_table(count: u64, table: &[u32]) -> std::io::Result<VectorSetStore> {
    let mem = VectorSetStore::build(&sets(&[1, 2, 3, 4]));
    let target = shared();
    let handle = mem.write_ordered(target.as_ref(), &[3, 1, 0, 2]).unwrap();
    let mut stream = Vec::new();
    PageStreamReader::open(target.as_ref(), handle.first)
        .unwrap()
        .read_to_end(&mut stream)
        .unwrap();
    stream.truncate(stream.len() - 8 - 4 * 4);
    stream.extend_from_slice(&count.to_le_bytes());
    for slot in table {
        stream.extend_from_slice(&slot.to_le_bytes());
    }
    let mut w = PageStreamWriter::new(target.as_ref());
    w.write_all(&stream).unwrap();
    let first = w.finish().unwrap().first;
    VectorSetStore::open_from(target, first)
}

#[test]
fn a_stream_whose_slot_table_is_not_a_permutation_is_rejected() {
    // The table the save wrote (id → slot of the order [3, 1, 0, 2])
    // reopens; so does none at all, as the identity.
    let opened = reopen_with_table(4, &[2, 1, 3, 0]).unwrap();
    assert_eq!(opened.record_bytes(3), 8 + 4 * 48, "record 3 is in slot 0");
    // (Id 3 then reads slot 3, where the save put record 2.)
    assert_eq!(reopen_with_table(0, &[]).unwrap().record_bytes(3), 8 + 3 * 48);
    for (count, table, what) in [
        (4, &[2, 1, 1, 0][..], "a repeated slot"),
        (4, &[2, 1, 4, 0], "a slot out of range"),
        (3, &[2, 1, 0], "a short table"),
        (5, &[2, 1, 3, 0, 0], "a long table"),
    ] {
        let err = reopen_with_table(count, table).expect_err(what);
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{what}: {err}");
    }
    // A count that promises more than the stream holds runs into its end.
    assert!(reopen_with_table(4, &[2, 1, 3]).is_err());
}
