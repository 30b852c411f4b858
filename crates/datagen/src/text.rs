//! Pseudo-text generation for the word-count application (Q4).
//!
//! The engine experiments route on *word strings* (as the paper's Storm
//! deployment does), not on integer ids. [`word_for_rank`] maps a Zipf rank
//! to a deterministic, unique, pronounceable pseudo-word — rank 0 is the
//! "the" of the vocabulary. Sampling a rank from a fitted Zipf law and
//! spelling it makes a word stream with the law's frequencies.

const CONSONANTS: [char; 14] =
    ['b', 'd', 'f', 'g', 'k', 'l', 'm', 'n', 'p', 'r', 's', 't', 'v', 'z'];
const VOWELS: [char; 5] = ['a', 'e', 'i', 'o', 'u'];

/// Longest pseudo-word in bytes: a `u64` rank is at most 11 base-70
/// syllables of 2 ASCII bytes each.
const MAX_WORD_LEN: usize = 22;

/// Deterministic unique pseudo-word for a vocabulary rank: the rank is
/// written in base 70 where each "digit" is a consonant-vowel syllable.
pub fn word_for_rank(rank: u64) -> String {
    let (buf, len) = word_bytes_for_rank(rank);
    String::from_utf8(buf[..len].to_vec()).expect("syllables are ASCII")
}

/// [`word_for_rank`] without the heap allocation: writes the syllables into
/// a stack buffer and returns `(buffer, length)`. Hot spouts use this to
/// build tuples whose keys stay inline (every word fits a `TupleKey`'s
/// inline capacity, so the emit path allocates nothing per message).
pub fn word_bytes_for_rank(rank: u64) -> ([u8; MAX_WORD_LEN], usize) {
    let base = (CONSONANTS.len() * VOWELS.len()) as u64; // 70 syllables
    let mut buf = [0u8; MAX_WORD_LEN];
    let mut len = 0;
    let mut r = rank;
    loop {
        let digit = (r % base) as usize;
        buf[len] = CONSONANTS[digit / VOWELS.len()] as u8;
        buf[len + 1] = VOWELS[digit % VOWELS.len()] as u8;
        len += 2;
        r /= base;
        if r == 0 {
            break;
        }
    }
    (buf, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn words_are_unique_per_rank() {
        let mut seen = HashSet::new();
        for r in 0..10_000u64 {
            assert!(seen.insert(word_for_rank(r)), "collision at rank {r}");
        }
    }

    #[test]
    fn words_are_short_for_small_ranks() {
        assert_eq!(word_for_rank(0).len(), 2);
        assert!(word_for_rank(69).len() == 2);
        assert!(word_for_rank(70).len() == 4);
    }

    #[test]
    fn word_bytes_match_the_string_form_and_fit_the_buffer() {
        for r in [0u64, 1, 69, 70, 4_899, 12_345_678, u64::MAX] {
            let (buf, len) = word_bytes_for_rank(r);
            assert!(len <= MAX_WORD_LEN);
            assert_eq!(&buf[..len], word_for_rank(r).as_bytes());
        }
    }
}
