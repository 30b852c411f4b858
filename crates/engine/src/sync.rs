//! Facade over the concurrency primitives the instance runtime is built on.
//!
//! Normal builds re-export the `std::sync` / vendored-crossbeam types
//! unchanged — a pure renaming with identical codegen. With the `pkg_model`
//! feature the same names resolve to `pkg-model`'s model-aware types, whose
//! every operation is a scheduling point of the deterministic interleaving
//! explorer (`vendor/loom`), and whose blocking goes through the controlled
//! scheduler so lost wakes surface as detected deadlocks.
//!
//! ```text
//!                pool.rs / timer.rs
//!                        │ (only import concurrency types from here;
//!                        │  enforced by pkg-lint rule `facade-isolation`)
//!                 crate::sync facade
//!                ┌───────┴────────┐
//!        default │                │ --features pkg_model
//!   std::sync::{Mutex, atomic}   pkg_model::sync::{Mutex, atomic}
//!   crossbeam::sync::Parker      pkg_model::sync::Parker
//!                                 (via crossbeam's own `pkg_model` facade)
//! ```
//!
//! `Instant` is re-exported from `std::time` in both modes: the model does
//! not virtualize time, and the model suite only exercises code paths whose
//! scheduling decisions are time-independent, or freezes the clock (an
//! epoch in the future) where one is not: the pool's idle spin. A
//! busy-wait's pause goes through [`spin_loop`], which under the model is a
//! scheduling point, so a spinning thread cannot run ahead of the threads
//! it waits for.

#[cfg(not(feature = "pkg_model"))]
pub(crate) use std::sync::{Mutex, MutexGuard};

#[cfg(feature = "pkg_model")]
pub(crate) use pkg_model::sync::{Mutex, MutexGuard};

// `Arc` is the std type in both modes: the model explores lock and atomic
// interleavings, and reference-count plumbing contributes no scheduling
// decisions of its own.
pub(crate) use std::sync::Arc;

pub(crate) use crossbeam::sync::{Parker, Unparker};

pub(crate) use std::time::Instant;

pub(crate) mod atomic {
    #[cfg(not(feature = "pkg_model"))]
    pub(crate) use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize};

    #[cfg(feature = "pkg_model")]
    pub(crate) use pkg_model::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize};

    pub(crate) use std::sync::atomic::Ordering;
}

/// One round of a busy-wait: `std::hint::spin_loop` in normal builds; under
/// the model a pure scheduling point (`pkg_model::thread::yield_now`).
#[inline]
pub(crate) fn spin_loop() {
    #[cfg(not(feature = "pkg_model"))]
    std::hint::spin_loop();
    #[cfg(feature = "pkg_model")]
    pkg_model::thread::yield_now();
}

/// Lock a facade mutex. The engine's workers never panic while holding a
/// lock, so poisoning is unreachable; this helper centralizes that argument
/// (and is the one place the facade is allowed to panic on it).
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(_) => panic!("engine lock poisoned: a worker thread panicked"),
    }
}
