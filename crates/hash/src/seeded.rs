//! Seeded hash families: the `H_1 .. H_d : K -> [n]` of the paper's
//! chromatic balls-and-bins model (§IV).
//!
//! A [`HashFamily`] is constructed from the number of choices `d` and an
//! experiment seed; member `i` is Murmur3 seeded with a distinct per-member
//! seed derived by mixing the experiment seed with the member index. Members
//! are therefore independent in the sense required by the analysis (they are
//! drawn from a universal family), and the whole experiment is reproducible
//! from the single seed.

use crate::murmur3::{fmix64, murmur3_64, murmur3_64_u64};

/// A key that can be hashed by a seeded hash function.
///
/// Partitioners are generic over `StreamKey` so the same code routes raw
/// `u64` key identifiers (used by the simulator for speed) and byte-string
/// keys such as words or URLs (used by the engine and applications).
pub trait StreamKey {
    /// Hash the key with a Murmur3 function of the given seed.
    fn hash_seeded(&self, seed: u64) -> u64;

    /// A stable 64-bit identity for the key, used by partitioners that keep
    /// per-key routing state (static PoTC, the greedy baselines). For byte
    /// keys this is a Murmur3 fingerprint; 64-bit collisions are negligible
    /// at the paper's scale (≤ 31M keys) and merely merge two keys' routing
    /// entries if they ever occur.
    fn key_id(&self) -> u64;
}

impl StreamKey for u64 {
    #[inline]
    fn hash_seeded(&self, seed: u64) -> u64 {
        murmur3_64_u64(*self, seed)
    }

    #[inline]
    fn key_id(&self) -> u64 {
        *self
    }
}

impl StreamKey for [u8] {
    #[inline]
    fn hash_seeded(&self, seed: u64) -> u64 {
        murmur3_64(self, seed)
    }

    #[inline]
    fn key_id(&self) -> u64 {
        murmur3_64(self, KEY_ID_SEED)
    }
}

impl StreamKey for str {
    #[inline]
    fn hash_seeded(&self, seed: u64) -> u64 {
        murmur3_64(self.as_bytes(), seed)
    }

    #[inline]
    fn key_id(&self) -> u64 {
        murmur3_64(self.as_bytes(), KEY_ID_SEED)
    }
}

impl StreamKey for &str {
    #[inline]
    fn hash_seeded(&self, seed: u64) -> u64 {
        murmur3_64(self.as_bytes(), seed)
    }

    #[inline]
    fn key_id(&self) -> u64 {
        murmur3_64(self.as_bytes(), KEY_ID_SEED)
    }
}

impl StreamKey for Vec<u8> {
    #[inline]
    fn hash_seeded(&self, seed: u64) -> u64 {
        murmur3_64(self, seed)
    }

    #[inline]
    fn key_id(&self) -> u64 {
        murmur3_64(self, KEY_ID_SEED)
    }
}

/// Fixed seed used to fingerprint byte keys into [`StreamKey::key_id`]s.
const KEY_ID_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// Maximum number of choices supported without heap allocation.
///
/// The paper restricts its study to `d = 2` ("using more than two choices
/// only brings constant factor improvements"), but the ablation experiments
/// sweep `d` up to this bound; larger `d` degenerates into shuffle grouping.
pub const MAX_CHOICES: usize = 16;

/// The seed of member `index` of the (conceptually unbounded) hash sequence
/// derived from `experiment_seed`.
///
/// [`HashFamily`] materializes the first `d` members of this sequence;
/// partitioners that extend a key's candidate set adaptively (the
/// D-Choices/W-Choices schemes in `pkg-core::choice`) walk the same sequence
/// past `MAX_CHOICES`, so their first two candidates coincide with plain
/// PKG's and extra candidates are reproducible from the experiment seed
/// alone.
#[inline]
pub fn member_seed(experiment_seed: u64, index: u64) -> u64 {
    // fmix64 decorrelates consecutive indices into well-spread seeds.
    fmix64(experiment_seed ^ fmix64(index.wrapping_add(0x517c_c1b7_2722_0a95)))
}

/// A family of `d` independent seeded hash functions mapping keys to
/// `[0, n)` — the candidate workers of the power-of-`d`-choices scheme.
#[derive(Debug, Clone)]
pub struct HashFamily {
    seeds: Vec<u64>,
}

impl HashFamily {
    /// Create a family of `d` hash functions derived from `experiment_seed`.
    ///
    /// # Panics
    /// Panics if `d == 0` or `d > MAX_CHOICES`.
    pub fn new(d: usize, experiment_seed: u64) -> Self {
        assert!(d >= 1, "a hash family needs at least one member");
        assert!(d <= MAX_CHOICES, "at most {MAX_CHOICES} choices supported");
        let seeds = (0..d as u64).map(|i| member_seed(experiment_seed, i)).collect();
        Self { seeds }
    }

    /// Number of members (choices) in the family.
    #[inline]
    pub fn d(&self) -> usize {
        self.seeds.len()
    }

    /// The `i`-th hash of `key`, reduced to `[0, n)`.
    #[inline]
    pub fn choice<K: StreamKey + ?Sized>(&self, i: usize, key: &K, n: usize) -> usize {
        debug_assert!(n > 0);
        (key.hash_seeded(self.seeds[i]) % n as u64) as usize
    }

    /// Write all `d` candidate workers for `key` among `n` workers into
    /// `out` (no allocation); returns the filled prefix. `out` must have
    /// length ≥ `d`.
    ///
    /// Note that candidates may collide (two hash functions can pick the same
    /// worker); the paper's model allows this — a key with colliding choices
    /// simply behaves like a key-grouped key.
    #[inline]
    pub fn choices_into<'a, K: StreamKey + ?Sized>(
        &self,
        key: &K,
        n: usize,
        out: &'a mut [usize],
    ) -> &'a [usize] {
        let d = self.seeds.len();
        debug_assert!(out.len() >= d);
        for (slot, &s) in out.iter_mut().zip(self.seeds.iter()) {
            *slot = (key.hash_seeded(s) % n as u64) as usize;
        }
        &out[..d]
    }

    /// The `i`-th hash of `key`, reduced onto a *membership subset*: the
    /// result is an element of `live`, not a raw index in `[0, n)`.
    ///
    /// When `live` is exactly `[0, n)` this computes `hash % n` — the same
    /// value as [`Self::choice`] — so elastic routing over a full live set
    /// is byte-identical to fixed-`W` routing. A surviving member keeps its
    /// identity across membership changes (ids are positions in the fixed
    /// id space); only the modulus changes with `live.len()`.
    #[inline]
    pub fn choice_in<K: StreamKey + ?Sized>(&self, i: usize, key: &K, live: &[usize]) -> usize {
        debug_assert!(!live.is_empty());
        live[(key.hash_seeded(self.seeds[i]) % live.len() as u64) as usize]
    }

    /// The seeds of the family members (exposed for tests and diagnostics).
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl HashFamily {
        /// All `d` candidates of `key`, owned.
        fn choices<K: StreamKey + ?Sized>(&self, key: &K, n: usize) -> Vec<usize> {
            self.choices_into(key, n, &mut [0; MAX_CHOICES]).to_vec()
        }
    }

    #[test]
    fn choice_in_full_set_matches_choice() {
        let fam = HashFamily::new(3, 11);
        let live: Vec<usize> = (0..17).collect();
        for key in 0..500u64 {
            for i in 0..3 {
                assert_eq!(fam.choice_in(i, &key, &live), fam.choice(i, &key, 17));
            }
        }
    }

    #[test]
    fn choice_in_lands_only_on_live_members() {
        let fam = HashFamily::new(2, 5);
        let live = [1usize, 4, 9, 12];
        for key in 0..500u64 {
            for i in 0..fam.d() {
                assert!(live.contains(&fam.choice_in(i, &key, &live)));
            }
        }
    }

    #[test]
    fn family_members_are_distinct_functions() {
        let fam = HashFamily::new(4, 7);
        let h: Vec<u64> = fam.seeds().iter().map(|&s| 12345u64.hash_seeded(s)).collect();
        for i in 0..h.len() {
            for j in (i + 1)..h.len() {
                assert_ne!(h[i], h[j], "members {i} and {j} agree on a key");
            }
        }
    }

    #[test]
    fn choices_are_deterministic_and_in_range() {
        let fam = HashFamily::new(2, 42);
        for key in 0u64..1000 {
            let c = fam.choices(&key, 10);
            assert_eq!(c, fam.choices(&key, 10));
            assert!(c.iter().all(|&w| w < 10));
        }
    }

    #[test]
    fn choices_into_matches_choices() {
        let fam = HashFamily::new(3, 9);
        let mut buf = [0usize; MAX_CHOICES];
        for key in 0u64..100 {
            let reference: Vec<usize> = (0..fam.d()).map(|i| fam.choice(i, &key, 7)).collect();
            assert_eq!(fam.choices_into(&key, 7, &mut buf), reference.as_slice());
        }
    }

    #[test]
    fn str_and_bytes_keys_agree() {
        let fam = HashFamily::new(2, 1);
        assert_eq!(fam.choices("word", 9), fam.choices("word".as_bytes(), 9));
        assert_eq!("word".key_id(), "word".as_bytes().key_id());
    }

    #[test]
    fn different_experiment_seeds_give_different_families() {
        let a = HashFamily::new(2, 1);
        let b = HashFamily::new(2, 2);
        // With 1000 keys over 100 workers the probability that every key maps
        // identically under independent families is essentially zero.
        let differs = (0u64..1000).any(|k| a.choices(&k, 100) != b.choices(&k, 100));
        assert!(differs);
    }

    #[test]
    fn two_choices_cover_most_workers() {
        // Sanity check of the §IV discussion: with n workers and many keys the
        // union of candidate sets covers ≈ (1 - 1/e^2) of the bins for d = 2.
        let fam = HashFamily::new(2, 3);
        let n = 100;
        let mut used = vec![false; n];
        for key in 0u64..(n as u64) {
            for w in fam.choices(&key, n) {
                used[w] = true;
            }
        }
        let covered = used.iter().filter(|&&u| u).count();
        // E[covered] = n(1 - (1 - 1/n)^{2n}) ≈ 86.5; allow wide slack.
        assert!((70..=97).contains(&covered), "covered = {covered}");
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn zero_choices_panics() {
        let _ = HashFamily::new(0, 0);
    }

    #[test]
    fn member_seed_extends_family_seeds() {
        // The unbounded sequence and the materialized family agree on every
        // shared index — the property adaptive schemes rely on.
        let fam = HashFamily::new(MAX_CHOICES, 77);
        for (i, &s) in fam.seeds().iter().enumerate() {
            assert_eq!(s, member_seed(77, i as u64));
        }
        // And the sequence keeps going past MAX_CHOICES with distinct seeds.
        let far: Vec<u64> = (0..100).map(|i| member_seed(77, i)).collect();
        let mut dedup = far.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), far.len(), "sequence members collide");
    }
}
