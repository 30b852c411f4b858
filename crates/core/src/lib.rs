//! # Partial Key Grouping — core partitioners
//!
//! This crate implements the paper's contribution and every baseline it is
//! evaluated against.
//!
//! **One greedy family.** The paper's scheme is one line — route each
//! message to `argmin_{i ∈ candidates(k)} L_i(t)` (§IV) — and every
//! load-consulting scheme here is that line over one [`LoadView`] (load
//! estimate × capacity weights × live set, the only argmin in the crate),
//! configured by *how many* candidates a key gets ([`CandidatePolicy`]) and
//! whether a key may be **split** over them ([`PartialKeyGrouping`]) or is
//! **pinned** to the first choice ([`PinnedGreedy`]):
//!
//! | Scheme ([`SchemeSpec`]) | Candidates of key `k` | Split / pin | Load `L_i` | Compared |
//! |---|---|---|---|---|
//! | PKG, Greedy-`d` (§III, §IV) | `Fixed(d)`: `H_1(k)..H_d(k)` | split | any [`Estimate`] | `L_i`, or `L_i/c_i` with capacities |
//! | D-Choices (`choice` docs) | `Head{ε, d(p̂)}`: 2, head keys `⌈p̂·W/(1+ε)⌉` | split | 〃 | 〃 |
//! | W-Choices (`choice` docs) | `Head{ε, All}`: 2, head keys all live | split | 〃 | 〃 |
//! | PoTC, static (§III-A, Table II) | `H_1(k), H_2(k)` at first sight | pin | 〃 | 〃 |
//! | On-Greedy (§V, Q1) | all live workers at first sight | pin | 〃 | 〃 |
//!
//! The estimate is one of the three strategies of Q2 ([`estimator::Estimate`]):
//! global oracle ("G"), per-source local estimation ("L", the paper's
//! proposal), local with periodic probing ("LP"); a global estimate over
//! signal-bearing [`SharedLoads`] reads the pluggable load signal
//! (pending requests, Peak-EWMA latency) instead of the tuple count.
//!
//! Three reference baselines consult no load and stand outside the family:
//! [`KeyGrouping`] (KG / hashing "H", §II-A — what `Fixed(1)` must equal),
//! [`ShuffleGrouping`] (SG, §II-A) and [`OfflineGreedy`] (Off-Greedy, §V).
//!
//! Every partitioner routes 64-bit key identifiers (byte-string keys are
//! fingerprinted via [`pkg_hash::StreamKey::key_id`]; the engine crate does
//! this at its edge). [`Partitioner`] is the one router over all five, one
//! enum arm each: the simulator's sources ([`SchemeSpec::build`]) and every
//! keyed engine edge route through it.
//!
//! ## Quick start
//!
//! ```
//! use pkg_core::{PartialKeyGrouping, estimator::Estimate};
//!
//! let workers = 8;
//! // PKG with d = 2 choices and local load estimation — the paper's setup.
//! let mut pkg = PartialKeyGrouping::new(workers, 2, Estimate::local(workers), 42);
//! let w = pkg.route(12345, 0);
//! assert!(w < workers);
//! // A key's messages may go to *both* of its two candidates (key
//! // splitting), but never anywhere else:
//! let cands = pkg.candidates(12345);
//! for t in 0..100 {
//!     assert!(cands.contains(&pkg.route(12345, t)));
//! }
//! ```

#![forbid(unsafe_code)]

pub mod choice;
pub mod estimator;
pub mod greedy;
pub mod head_tracker;
pub mod key_grouping;
pub mod load_view;
pub mod partitioner;
pub mod pinned;
pub mod pkg;
pub mod replication;
pub mod shuffle;
pub mod signals;

pub use choice::{AdaptiveChoices, ChoiceConfig, DEFAULT_EPSILON};
pub use estimator::{Estimate, EstimateKind, SharedLoads};
pub use greedy::{KeyFrequencies, OfflineGreedy};
pub use head_tracker::HeadTracker;
pub use key_grouping::KeyGrouping;
pub use load_view::LoadView;
pub use partitioner::{Partitioner, SchemeSpec};
pub use pinned::PinnedGreedy;
pub use pkg::{CandidatePolicy, HeadCap, PartialKeyGrouping};
pub use replication::ReplicationTracker;
pub use shuffle::ShuffleGrouping;
pub use signals::{LoadSignalOptions, SharedSignals};
