//! The one integrity checksum of the page-file format (since version 3).
//!
//! Stream payloads, image pages and the file header are all
//! verified against a stored [`checksum`] before a byte of them is
//! decoded. The function is built so that verifying a 4 KiB page costs
//! what reading it from memory costs: the input is consumed in 32-byte
//! blocks as four independent 64-bit lanes, one multiplication per
//! 8-byte word, so the four multiply chains overlap instead of one
//! chain serializing every byte (as the format-v2 FNV-1a did).
//!
//! # What is detected with certainty
//!
//! Every step — a word into its lane, a lane into the fold, the final
//! avalanche — is [`mix`] or a bijection of the running state, and
//! `mix(state, word)` is a bijection of `state` for a fixed `word` *and*
//! of `word` for a fixed `state` (xor, multiplication by an odd
//! constant and rotation are all invertible on `u64`). Two inputs of
//! equal length that differ only inside one aligned 8-byte word
//! therefore diverge at the step that consumes that word and can never
//! re-converge: every later step sees equal words on unequal states.
//! So any damage confined to one word — every single-bit flip, every
//! single corrupted byte — changes the sum with certainty; wider damage
//! (a torn page) is caught with the odds of a 64-bit hash. The length is folded
//! in, so appended or stripped zero bytes change the sum too, and the
//! empty input does not hash to 0 — an all-zero stream page, which is
//! what a torn file tail reads as, fails its own (zero) checksum field.

const SEEDS: [u64; 4] =
    [0x9E37_79B9_7F4A_7C15, 0xC2B2_AE3D_27D4_EB4F, 0x1656_67B1_9E37_79F9, 0x27D4_EB2F_1656_67C5];
const MULTIPLIER: u64 = 0xD6E8_FEB8_6659_FD93;

fn mix(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(MULTIPLIER).rotate_left(29)
}

fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// 64-bit checksum of `data` (see the module docs for its guarantees).
/// Words are read little-endian, so the value is the same on every
/// target; it is part of the file format.
pub fn checksum(data: &[u8]) -> u64 {
    let mut lanes = SEEDS;
    let mut blocks = data.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(*lane, le_word(word));
        }
    }
    // The tail (< 32 bytes) as up to four more words, the last one
    // zero-padded; the folded length tells padding from data.
    let mut sum = lanes.into_iter().fold(data.len() as u64, mix);
    for word in blocks.remainder().chunks(8) {
        sum = mix(sum, le_word(word));
    }
    sum ^= sum >> 32;
    sum = sum.wrapping_mul(MULTIPLIER);
    sum ^ (sum >> 29)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::PAGE_SIZE;

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + i / 7 + 5) as u8).collect()
    }

    /// The format-v3 anchor (values from an independent model of the
    /// definition): a change to the function is a change to the file
    /// format and must bump `FILE_VERSION`.
    #[test]
    fn checksum_matches_the_format_v3_reference_vectors() {
        assert_eq!(checksum(b""), 0x20b3_d870_62ac_fdb5);
        assert_eq!(checksum(b"a"), 0xe5a5_620f_f100_710b);
        assert_eq!(checksum(&pattern(PAGE_SIZE)), 0x262a_04a1_1e85_be4e);
    }

    #[test]
    fn every_single_bit_flip_changes_the_sum() {
        // A full page, the stream payload sizes around a block boundary,
        // and short inputs with and without a partial tail word.
        for len in [PAGE_SIZE, PAGE_SIZE - 20, 1, 7, 8, 9, 31, 32, 33, 40, 63, 64, 100] {
            let mut data = pattern(len);
            let clean = checksum(&data);
            for bit in 0..len * 8 {
                data[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum(&data), clean, "len {len}: flip of bit {bit} went unnoticed");
                data[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn empty_and_all_zero_inputs_never_hash_to_zero() {
        let zeros = vec![0u8; PAGE_SIZE];
        for len in 0..=PAGE_SIZE {
            assert_ne!(checksum(&zeros[..len]), 0, "{len} zero bytes hash to 0");
        }
    }

    #[test]
    fn appended_or_stripped_zero_bytes_change_the_sum() {
        for len in [0, 1, 8, 24, 31, 32, 100, PAGE_SIZE - 20] {
            let mut data = pattern(len);
            if let Some(last) = data.last_mut() {
                *last = 0;
            }
            let sum = checksum(&data);
            for extra in [1, 7, 8, 32] {
                let mut longer = data.clone();
                longer.resize(len + extra, 0);
                assert_ne!(checksum(&longer), sum, "len {len}: {extra} appended zeros");
            }
            if len > 0 {
                assert_ne!(checksum(&data[..len - 1]), sum, "len {len}: stripped zero");
            }
        }
    }

    #[test]
    fn words_are_position_dependent() {
        // Swapping two words of different lanes, or of the same lane in
        // different blocks, is not a single-word change — but it must
        // still move the sum.
        let data = pattern(128);
        for (a, b) in [(0, 8), (0, 32), (8, 104), (96, 120)] {
            let mut swapped = data.clone();
            for i in 0..8 {
                swapped.swap(a + i, b + i);
            }
            assert_ne!(checksum(&swapped), checksum(&data), "words at {a} and {b}");
        }
    }
}
