//! The histogram models' representations are pinned to the bit: a
//! change to where or how the `r = 30` rasters are made must keep every
//! coordinate of every volume and solid-angle histogram.

use vsim_bench::{Corpus, Repr, SimilarityModel};

/// FNV-1a over the bits of every coordinate, in object order.
fn checksum(reprs: &[Repr]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in reprs {
        let Repr::Vector(v) = r else { panic!("a histogram is one vector") };
        for x in v {
            h = (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn checksums(p: &Corpus) -> [u64; 2] {
    [SimilarityModel::volume(6), SimilarityModel::solid_angle(6, 3)]
        .map(|model| checksum(&model.representations(p)))
}

#[test]
fn histogram_representations_keep_their_bits() {
    let car = Corpus::car(42, 24, 1);
    let aircraft = Corpus::aircraft(1, 24, 1);
    assert_eq!(checksums(&car), [0xa662_8f4b_4c46_8263, 0x6f7d_e0ad_a95d_f692]);
    assert_eq!(checksums(&aircraft), [0x7a2e_a8b9_7758_94e8, 0xbbce_ff99_8672_d80a]);
}
