//! # pkg-elastic — runtime worker membership
//!
//! The paper fixes the worker set `W` at construction; a production cluster
//! scales with traffic. This crate is the membership-change layer the rest
//! of the workspace threads through: a scripted sequence of
//! [`Change::Insert`]/[`Change::Remove`] events (modeled on tower-discover's
//! `Change` stream) grouped into **epochs**. Epoch 0 is the full initial
//! worker set; each subsequent epoch applies one batch of changes when a
//! router's tuple count crosses the step's threshold.
//!
//! Two invariants make elasticity cheap downstream:
//!
//! * **Stable id space.** Workers are identified by their index in
//!   `0..capacity` forever; a membership change only toggles which indices
//!   are *live*. Load vectors, estimators and channels are allocated at
//!   `capacity` once and never reshaped, and a surviving member `i` keeps
//!   its hash seed `pkg_hash::member_seed(seed, i)` across epochs, so its
//!   hash sequence — and therefore every tail key's candidate pair — is
//!   stable for the members that remain.
//! * **Identity degeneration.** An empty plan (or a live set equal to
//!   `0..capacity`) must route byte-identically to today's fixed-`W` code;
//!   the `Resizable` implementations in `pkg-core` are pinned to this by
//!   property tests.
//!
//! ```
//! use pkg_elastic::{Change, MembershipPlan};
//!
//! // 4 workers; halve at 1000 tuples, restore at 2000.
//! let plan = MembershipPlan::new(4)
//!     .with_step(1000, [Change::Remove(2), Change::Remove(3)])
//!     .with_step(2000, [Change::Insert(2), Change::Insert(3)]);
//! assert_eq!(plan.epochs(), 3);
//! assert_eq!(plan.live(1), &[0, 1]);
//! assert_eq!(plan.epoch_at(1500), 1);
//! ```

#![forbid(unsafe_code)]

use std::fmt;

/// One membership event, tower-discover style: a worker index joins or
/// leaves the live set. Indices are stable across the plan's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Change {
    /// Worker `i` (re)joins the live set.
    Insert(usize),
    /// Worker `i` leaves the live set: it receives no new tuples, and what
    /// it already holds flushes downstream as one more split of each key.
    Remove(usize),
}

impl fmt::Display for Change {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Change::Insert(i) => write!(f, "+{i}"),
            Change::Remove(i) => write!(f, "-{i}"),
        }
    }
}

/// One scripted step: at `at` routed tuples, apply `changes`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Step {
    at: u64,
    changes: Vec<Change>,
    /// Live set *after* this step, sorted (precomputed at build time).
    live: Vec<usize>,
}

/// A scripted join/leave schedule over a fixed id space `0..capacity`.
///
/// Epoch `e` (for `e ≥ 1`) comes into force when a router has routed
/// `step(e).at` tuples; epoch 0 is the initial full set. Validation is
/// eager: thresholds strictly increase, removals hit live workers, inserts
/// hit dead ones, and no epoch's live set is empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipPlan {
    capacity: usize,
    /// Epoch 0's live set: all of `0..capacity`.
    initial: Vec<usize>,
    steps: Vec<Step>,
}

impl MembershipPlan {
    /// A static plan over `capacity` workers (no membership changes — the
    /// fixed-`W` world).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "need at least one worker");
        Self { capacity, initial: (0..capacity).collect(), steps: Vec::new() }
    }

    /// Append a step applying `changes` once `at` tuples have been routed.
    ///
    /// # Panics
    /// On a non-increasing threshold, an out-of-range index, a removal of a
    /// dead worker, an insert of a live worker, or an empty resulting live
    /// set.
    #[must_use]
    pub fn with_step<I: IntoIterator<Item = Change>>(mut self, at: u64, changes: I) -> Self {
        if let Some(prev) = self.steps.last() {
            assert!(at > prev.at, "step thresholds must strictly increase ({at} <= {})", prev.at);
        }
        let mut live =
            self.steps.last().map_or_else(|| (0..self.capacity).collect(), |s| s.live.clone());
        let changes: Vec<Change> = changes.into_iter().collect();
        assert!(!changes.is_empty(), "a step must change something");
        for &c in &changes {
            match c {
                Change::Insert(i) => {
                    assert!(i < self.capacity, "insert of worker {i} >= capacity");
                    let pos = live.binary_search(&i);
                    assert!(pos.is_err(), "insert of already-live worker {i}");
                    live.insert(pos.unwrap_err(), i);
                }
                Change::Remove(i) => {
                    assert!(i < self.capacity, "remove of worker {i} >= capacity");
                    let pos = live
                        .binary_search(&i)
                        .unwrap_or_else(|_| panic!("remove of non-live worker {i}"));
                    live.remove(pos);
                }
            }
        }
        assert!(!live.is_empty(), "a step may not empty the live set");
        self.steps.push(Step { at, changes, live });
        self
    }

    /// The fixed id-space size; every live set is a subset of
    /// `0..capacity`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of epochs (steps + 1; a static plan has exactly one).
    pub fn epochs(&self) -> u32 {
        self.steps.len() as u32 + 1
    }

    /// The live worker indices of `epoch`, sorted ascending.
    ///
    /// # Panics
    /// If `epoch >= self.epochs()`.
    pub fn live(&self, epoch: u32) -> &[usize] {
        assert!(epoch < self.epochs(), "epoch {epoch} out of range");
        match epoch {
            0 => &self.initial,
            e => &self.steps[e as usize - 1].live,
        }
    }

    /// The tuple-count threshold at which `epoch` comes into force
    /// (`epoch ≥ 1`).
    pub fn threshold(&self, epoch: u32) -> u64 {
        assert!(epoch >= 1 && epoch < self.epochs(), "epoch {epoch} has no threshold");
        self.steps[epoch as usize - 1].at
    }

    /// The epoch in force after `count` tuples have been routed (epoch `e`
    /// applies from `threshold(e)` inclusive).
    pub fn epoch_at(&self, count: u64) -> u32 {
        let mut e = 0u32;
        for (i, s) in self.steps.iter().enumerate() {
            if count >= s.at {
                e = i as u32 + 1;
            } else {
                break;
            }
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn halve_double() -> MembershipPlan {
        MembershipPlan::new(4)
            .with_step(1000, [Change::Remove(2), Change::Remove(3)])
            .with_step(2000, [Change::Insert(2), Change::Insert(3)])
    }

    #[test]
    fn static_plan_has_one_full_epoch() {
        let p = MembershipPlan::new(5);
        assert_eq!(p.epochs(), 1);
        assert_eq!(p.live(0), &[0, 1, 2, 3, 4]);
        assert_eq!(p.epoch_at(u64::MAX), 0);
    }

    #[test]
    fn halve_then_double_live_sets() {
        let p = halve_double();
        assert_eq!(p.epochs(), 3);
        assert_eq!(p.live(0), &[0, 1, 2, 3]);
        assert_eq!(p.live(1), &[0, 1]);
        assert_eq!(p.live(2), &[0, 1, 2, 3]);
    }

    #[test]
    fn epoch_at_uses_inclusive_thresholds() {
        let p = halve_double();
        assert_eq!(p.epoch_at(0), 0);
        assert_eq!(p.epoch_at(999), 0);
        assert_eq!(p.epoch_at(1000), 1);
        assert_eq!(p.epoch_at(1999), 1);
        assert_eq!(p.epoch_at(2000), 2);
        assert_eq!(p.epoch_at(5000), 2);
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn thresholds_must_increase() {
        let _ = MembershipPlan::new(3)
            .with_step(10, [Change::Remove(2)])
            .with_step(10, [Change::Insert(2)]);
    }

    #[test]
    #[should_panic(expected = "non-live worker")]
    fn removing_a_dead_worker_panics() {
        let _ = MembershipPlan::new(3).with_step(10, [Change::Remove(2), Change::Remove(2)]);
    }

    #[test]
    #[should_panic(expected = "already-live worker")]
    fn inserting_a_live_worker_panics() {
        let _ = MembershipPlan::new(3).with_step(10, [Change::Insert(1)]);
    }

    #[test]
    #[should_panic(expected = "empty the live set")]
    fn emptying_the_live_set_panics() {
        let _ = MembershipPlan::new(1).with_step(10, [Change::Remove(0)]);
    }

    #[test]
    #[should_panic(expected = ">= capacity")]
    fn out_of_range_index_panics() {
        let _ = MembershipPlan::new(3).with_step(10, [Change::Remove(7)]);
    }

    #[test]
    fn display_formats_changes() {
        assert_eq!(Change::Insert(3).to_string(), "+3");
        assert_eq!(Change::Remove(0).to_string(), "-0");
    }
}
