//! Hashing substrate for the Partial Key Grouping reproduction.
//!
//! The PKG paper routes messages with "a 64-bit Murmur hash function to
//! minimize the probability of collision" and needs a *family* of `d`
//! independent hash functions for the power-of-`d`-choices scheme
//! (`H_1 .. H_d : K -> [n]`, §IV of the paper). This crate provides:
//!
//! * [`murmur3`] — a from-scratch implementation of MurmurHash3
//!   (the x64 128-bit variant, of which we expose the low 64 bits, plus the
//!   32-bit variant), verified against the reference test vectors.
//! * [`seeded`] — [`seeded::HashFamily`], `d` independent seeded hash
//!   functions over arbitrary keys, and the [`seeded::StreamKey`] trait that
//!   lets partitioners hash `u64` key identifiers, strings and byte slices
//!   uniformly.
//! * [`FxHasher`] — a fast non-cryptographic hasher (the `FxHash` algorithm
//!   used by rustc) for *internal* hash maps on the hot path, where
//!   SipHash's HashDoS protection is unnecessary; plus the [`FxHashMap`] /
//!   [`FxHashSet`] aliases.
//!
//! # Example
//!
//! ```
//! use pkg_hash::seeded::HashFamily;
//!
//! let family = HashFamily::new(2, 42); // d = 2 choices, experiment seed 42
//! let mut buf = [0; 2];
//! let candidates = family.choices_into(&"barcelona", 10, &mut buf).to_vec(); // workers 0..10
//! assert_eq!(candidates.len(), 2);
//! assert!(candidates.iter().all(|&w| w < 10));
//! // Routing is deterministic: the same key always gets the same candidates.
//! assert_eq!(candidates, family.choices_into(&"barcelona", 10, &mut buf));
//! ```

#![forbid(unsafe_code)]

mod fx;
pub mod murmur3;
pub mod seeded;

pub use fx::{FxHashMap, FxHashSet, FxHasher};
pub use murmur3::{murmur3_128, murmur3_64};
pub use seeded::{member_seed, HashFamily, StreamKey};
