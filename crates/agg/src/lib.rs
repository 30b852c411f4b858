//! Windowed partial aggregation — the **second phase** of Partial Key
//! Grouping.
//!
//! PKG's key splitting spreads each key's state over two workers, so every
//! real deployment runs a downstream aggregation that periodically merges
//! the partial results; the paper quantifies its overhead — aggregation
//! messages and memory versus the period `T` — in §V-D / Fig. 5. This crate
//! makes that phase a reusable subsystem instead of per-application flush
//! loops:
//!
//! * [`PartialAgg`] — the algebra: identity / `insert` / associative
//!   `merge` / `emit`, plus an `encode`/`decode` codec so partial states
//!   travel as tuple payloads.
//! * Ready-made instances: [`Count`], [`Sum`], [`Max`],
//!   [`Mean`] (Welford), [`TopK`] (SpaceSaving with mergeable-summary
//!   combination, §VI-C), [`Distinct`] (BH-histogram sketch).
//! * [`window`] — [`TumblingWindow`] / [`SlidingWindow`] managers keyed by
//!   stream key, with per-pane staleness bookkeeping.
//!
//! The sketch substrates themselves — [`spacesaving`] and
//! [`histogram_sketch`] — live here too, because the aggregation layer is
//! what makes them *mergeable summaries* in the sense of Berinde et al.
//! [TODS'10]. [`SpaceSaving`] is also the summary `pkg-core`'s head
//! tracker classifies routed keys over, which is why this crate stays a
//! leaf.
//!
//! The crate is a leaf over `pkg-hash` and `pkg-metrics`: it knows nothing
//! of the engine. The two-phase bolts that run this algebra inside a
//! topology live in `pkg-apps`, beside the topologies that wire them.
//!
//! ```
//! use pkg_agg::{PartialAgg, Sum, TumblingWindow};
//!
//! // Two workers each hold a partial sum for the same key …
//! let mut w: TumblingWindow<&str, Sum> = TumblingWindow::new(10);
//! w.insert("pkg", 1, 3, 0);
//! let mut a = w.flush().expect("pane open").accs.remove("pkg").expect("key present");
//! let mut b = Sum::identity();
//! b.insert(1, 4);
//! // … and the aggregation phase merges them.
//! a.merge(&b);
//! assert_eq!(a.emit(), 7);
//! ```

#![forbid(unsafe_code)]

mod accumulators;
pub mod histogram_sketch;
pub mod partial;
pub mod spacesaving;
pub mod window;

pub use accumulators::{Count, Distinct, Max, Mean, Sum, TopK};
pub use histogram_sketch::BhHistogram;
pub use partial::{canonical_merge, PartialAgg};
pub use spacesaving::SpaceSaving;
pub use window::{Pane, SlidingWindow, TumblingWindow};
