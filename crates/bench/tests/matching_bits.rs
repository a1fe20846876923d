//! What `match_sets` returns on real data is pinned to the bit: a change
//! to how the minimal matching is solved must keep every distance, every
//! matched pair and every `permutation_needed` flag — the statistic
//! Table 1's "proper permutations" counts — of both paper models.

use vsim_core::prelude::{aircraft_dataset, car_dataset, Dataset, ProcessedDataset};
use vsim_setdist::{MinimalMatching, VectorSet};

/// FNV-1a over every ordered pair of distinct sets, in index order: the
/// cost's bits, the matched pairs and the permutation flag.
fn checksum(sets: &[VectorSet], mm: MinimalMatching) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: u64| h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    for (i, x) in sets.iter().enumerate() {
        for (j, y) in sets.iter().enumerate() {
            if i == j {
                continue;
            }
            let out = mm.match_sets(x, y);
            mix(out.cost.to_bits());
            for &(a, b) in &out.pairs {
                mix(a as u64);
                mix(b as u64);
            }
            mix(out.permutation_needed as u64);
        }
    }
    h
}

/// Both models' checksums over the dataset's sets of at most 7 covers.
fn checksums(data: Dataset) -> [u64; 2] {
    let sets = ProcessedDataset::build(data, 7).vector_sets(7);
    [MinimalMatching::vector_set_model(), MinimalMatching::permutation_model()]
        .map(|mm| checksum(&sets, mm))
}

#[test]
fn match_sets_keeps_its_bits_on_real_covers() {
    assert_eq!(checksums(car_dataset(42, 24)), [0x03f3_3fab_79c0_a1a5, 0x1b3c_346f_539e_e807]);
    assert_eq!(checksums(aircraft_dataset(1, 24)), [0xfea9_32ca_1e01_c2c7, 0xd7a8_9863_69c5_e1d1]);
}
