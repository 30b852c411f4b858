//! Ingress middleware primitives for overload survival.
//!
//! Heavy traffic means sustained input above capacity; without an ingress
//! layer a saturated topology just parks its producers until the spout
//! drains. This crate holds the *mechanisms* — deterministic token-bucket
//! admission ([`TokenBucket`]) and a pluggable load-shedding policy
//! ([`ShedPolicy`] with the [`HardDrop`] baseline) — modeled on tower's
//! `tower-limit` / `tower-load-shed` middleware. The *wiring* (where depth
//! watermarks come from) lives in `pkg-engine`'s ingress module; the
//! *degrade* policy that absorbs shed tuples into a sketch lives in
//! `pkg-apps` (over `pkg-agg`'s sketches).
//! This crate depends on nothing, so both can depend on it.
//!
//! Everything here is deterministic by construction: the token bucket is a
//! pure function of its (rate, burst) parameters and the observed clock
//! sequence, so replaying a run with a logical clock reproduces the exact
//! admit/shed decision sequence regardless of executor or host speed.

#![forbid(unsafe_code)]

pub mod bucket;
pub mod shed;

pub use bucket::TokenBucket;
pub use shed::{HardDrop, Shed, ShedPolicy};
