//! An append-mostly sequence whose clones share what neither has
//! written since.
//!
//! A published epoch is a snapshot of files that are append-only apart
//! from their tombstone flags, so a snapshot need not copy them: a
//! [`SegVec`] keeps its values in `Arc`-shared segments, `Clone` copies
//! the segment pointers, and a write copies the one segment it touches
//! iff a clone still shares it — an append at most the tail segment
//! once per generation, a tombstone one segment of flags.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

/// Rows of `width` values each (1 for a plain sequence) in segments of
/// `ROWS` rows, a power of two: row `i` is in segment `i / ROWS`, and no
/// row straddles two segments whatever the width.
#[derive(Debug, Clone)]
pub(crate) struct SegVec<T, const ROWS: usize> {
    /// Every segment is allocated at its full `ROWS · width` values;
    /// the last one is filler past row `len`.
    segs: Vec<Arc<[T]>>,
    width: usize,
    /// Rows held.
    len: usize,
}

impl<T: Copy + Default, const ROWS: usize> SegVec<T, ROWS> {
    pub(crate) fn new(width: usize) -> Self {
        const { assert!(ROWS.is_power_of_two()) };
        assert!(width > 0);
        SegVec { segs: Vec::new(), width, len: 0 }
    }

    /// `values` as the rows of a new sequence.
    pub(crate) fn from_slice(width: usize, values: &[T]) -> Self {
        let mut v = Self::new(width);
        v.extend_from_slice(values);
        v
    }

    /// Rows held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Where row `row` starts inside its segment.
    #[inline]
    fn at(&self, row: usize) -> usize {
        row % ROWS * self.width
    }

    /// Row `row`.
    #[inline]
    pub(crate) fn get(&self, row: usize) -> Option<&[T]> {
        (row < self.len).then(|| &self.segs[row / ROWS][self.at(row)..][..self.width])
    }

    /// Overwrite row `row`.
    pub(crate) fn set(&mut self, row: usize, values: &[T]) {
        assert!(row < self.len, "row {row} of {}", self.len);
        let at = self.at(row);
        Arc::make_mut(&mut self.segs[row / ROWS])[at..][..self.width].copy_from_slice(values);
    }

    /// Append whole rows.
    pub(crate) fn extend_from_slice(&mut self, mut values: &[T]) {
        assert!(values.len().is_multiple_of(self.width), "whole rows only");
        let full = ROWS * self.width;
        while !values.is_empty() {
            let at = self.at(self.len);
            if at == 0 {
                self.segs.push(std::iter::repeat_n(T::default(), full).collect());
            }
            let take = values.len().min(full - at);
            Arc::make_mut(&mut self.segs[self.len / ROWS])[at..at + take]
                .copy_from_slice(&values[..take]);
            self.len += take / self.width;
            values = &values[take..];
        }
    }

    /// The values of rows `rows`: borrowed, unless the range straddles a
    /// segment boundary and has to be assembled.
    #[inline]
    pub(crate) fn slice(&self, rows: Range<usize>) -> Cow<'_, [T]> {
        assert!(rows.start <= rows.end && rows.end <= self.len, "rows {rows:?} of {}", self.len);
        if rows.is_empty() {
            return Cow::Borrowed(&[]);
        }
        if rows.start / ROWS == (rows.end - 1) / ROWS {
            let seg = &self.segs[rows.start / ROWS];
            return Cow::Borrowed(&seg[self.at(rows.start)..][..rows.len() * self.width]);
        }
        Cow::Owned(self.assemble(rows))
    }

    /// [`slice`](Self::slice) across segments.
    #[cold]
    fn assemble(&self, rows: Range<usize>) -> Vec<T> {
        let (first, last) = (rows.start / ROWS, (rows.end - 1) / ROWS);
        let mut out = Vec::with_capacity(rows.len() * self.width);
        out.extend_from_slice(&self.segs[first][self.at(rows.start)..]);
        for seg in &self.segs[first + 1..last] {
            out.extend_from_slice(seg);
        }
        out.extend_from_slice(&self.segs[last][..(rows.end - last * ROWS) * self.width]);
        out
    }

    /// The whole sequence as the slices that concatenate to it, each a
    /// whole number of rows.
    pub(crate) fn chunks(&self) -> impl Iterator<Item = &[T]> {
        let full = ROWS * self.width;
        let total = self.len * self.width;
        self.segs.iter().enumerate().map(move |(s, seg)| &seg[..(total - s * full).min(full)])
    }

    /// Segments of `self` that are not the very allocation `other` holds
    /// in the same place: what writes since a clone have copied or added.
    #[cfg(test)]
    pub(crate) fn unshared_segments(&self, other: &Self) -> usize {
        let shared = self.segs.iter().zip(&other.segs).filter(|(a, b)| Arc::ptr_eq(a, b)).count();
        self.segs.len() - shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Four rows a segment, so a few dozen operations cross many
    /// boundaries.
    type Small = SegVec<u32, 4>;

    fn contents(v: &Small) -> Vec<u32> {
        v.chunks().flatten().copied().collect()
    }

    /// Everything a reader can ask of `v`, against the `Vec` it models.
    fn check(v: &Small, model: &[u32], width: usize, probe: usize) {
        assert_eq!(v.len() * width, model.len());
        assert_eq!(contents(v), model);
        assert!(v.chunks().all(|c| !c.is_empty() && c.len().is_multiple_of(width)));
        assert_eq!(v.get(v.len()), None);
        // Ranges over zero, one and two segments (and more), from `probe`.
        for rows in [0, 1, 3, 5, 9] {
            let start = probe % (v.len() + 1);
            let end = (start + rows).min(v.len());
            let got = v.slice(start..end);
            assert_eq!(&got[..], &model[start * width..end * width]);
            let straddles = end > start && start / 4 != (end - 1) / 4;
            assert_eq!(matches!(got, Cow::Owned(_)), straddles, "rows {start}..{end}");
            if let Some(row) = v.get(start) {
                assert_eq!(row, &model[start * width..][..width]);
            }
        }
    }

    proptest! {
        /// Any interleaving of appends (of one row, and of runs that
        /// cross a boundary), overwrites and clones: the sequence reads
        /// like the `Vec` it models, and a clone reads for ever as it
        /// read when it was taken.
        #[test]
        fn reads_like_a_vec_and_clones_do_not_move(
            width in 1usize..4,
            ops in proptest::collection::vec(0u32..u32::MAX, 1..80),
        ) {
            let mut v = Small::new(width);
            let mut model: Vec<u32> = Vec::new();
            let mut clones: Vec<(Small, Vec<u32>)> = Vec::new();
            for (step, &op) in ops.iter().enumerate() {
                let arg = (op / 4) as usize;
                match op % 4 {
                    0 => {
                        let rows = if arg.is_multiple_of(3) { 1 } else { arg % 11 };
                        let values: Vec<u32> = (0..rows * width).map(|i| op ^ i as u32).collect();
                        v.extend_from_slice(&values);
                        model.extend_from_slice(&values);
                    }
                    1 | 2 if v.len() > 0 => {
                        let row = arg % v.len();
                        let values = vec![op; width];
                        v.set(row, &values);
                        model[row * width..][..width].copy_from_slice(&values);
                    }
                    3 => clones.push((v.clone(), model.clone())),
                    _ => {}
                }
                check(&v, &model, width, arg + step);
                for (clone, then) in &clones {
                    prop_assert_eq!(&contents(clone), then);
                }
            }
            // And the other way round: writing to a clone leaves the
            // origin and the other clones alone.
            if let Some((clone, then)) = clones.first_mut() {
                clone.extend_from_slice(&vec![7; width]);
                then.extend(vec![7; width]);
                if clone.len() > 1 {
                    clone.set(0, &vec![9; width]);
                    then[..width].fill(9);
                }
            }
            check(&v, &model, width, 0);
            for (clone, then) in &clones {
                check(clone, then, width, 1);
            }
        }
    }

    #[test]
    fn a_write_copies_the_segment_it_touches_iff_a_clone_shares_it() {
        let mut v = Small::from_slice(1, &[0; 10]); // segments 0..4, 4..8, 8..10
        let before = v.clone();
        assert_eq!(v.unshared_segments(&before), 0);
        v.set(5, &[1]);
        v.set(6, &[1]);
        assert_eq!(v.unshared_segments(&before), 1, "two writes, one segment");
        v.extend_from_slice(&[2; 3]); // fills the tail, opens a fourth
        assert_eq!(v.unshared_segments(&before), 3);
        assert_eq!(contents(&before), [0; 10]);
        // Nobody shares `v`'s segments now: writing copies nothing more.
        let again = v.clone();
        drop(again);
        v.set(0, &[3]);
        assert_eq!(v.unshared_segments(&before), 4);
    }
}
