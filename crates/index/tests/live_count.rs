//! The live count the planner reads is a field of the heap file and of
//! the point file, moved by `append` and `tombstone` — not a walk over
//! the tombstone flags. After any interleaving of the two it must equal
//! a recount of the flags, and nothing but an append may move `len()`.

use proptest::prelude::*;
use vsim_index::{PointFile, VectorSetStore};
use vsim_setdist::VectorSet;

proptest! {
    /// An op is `kind = op % 10`, `pick = op / 10`: kinds 0–3 append
    /// (kind 3 a set and a point of NaNs — counts are integers,
    /// coordinates cannot reach them), kinds 4–8 tombstone id
    /// `pick % len` (live or already dead: a double tombstone), kind 9
    /// an id past the end.
    #[test]
    fn live_len_is_a_recount_of_the_flags_after_any_history(
        initial in 0usize..20,
        ops in proptest::collection::vec(0usize..10_000, 0..80),
    ) {
        let set = |v: f64| VectorSet::from_rows(6, &[&[v; 6]]);
        let seeded: Vec<VectorSet> = (0..initial).map(|i| set(i as f64)).collect();
        let points: Vec<Vec<f64>> = (0..initial).map(|i| vec![i as f64; 6]).collect();
        let mut heap = VectorSetStore::build(&seeded);
        let mut file = PointFile::build(6, &points);
        let mut live = vec![true; initial];

        for op in ops {
            let (kind, pick) = (op % 10, op / 10);
            match kind {
                0..=3 => {
                    let v = if kind == 3 { f64::NAN } else { pick as f64 };
                    prop_assert_eq!(heap.append(&set(v)).unwrap(), live.len() as u64);
                    prop_assert_eq!(file.append(&[v; 6]).unwrap(), live.len() as u64);
                    live.push(true);
                }
                _ => {
                    let id = if kind == 9 { live.len() + pick } else { pick % live.len().max(1) };
                    let was_live = live.get(id).copied().unwrap_or(false);
                    prop_assert_eq!(heap.tombstone(id as u64), was_live);
                    prop_assert_eq!(file.tombstone(id as u64), was_live);
                    if let Some(flag) = live.get_mut(id) {
                        *flag = false;
                    }
                }
            }
            let recount = live.iter().filter(|&&l| l).count();
            prop_assert_eq!((heap.live_len(), heap.len()), (recount, live.len()));
            prop_assert_eq!((file.live_len(), file.len()), (recount, live.len()));
        }
        for (id, &l) in live.iter().enumerate() {
            prop_assert_eq!((heap.is_live(id as u64), file.is_live(id as u64)), (l, l));
        }
    }
}
