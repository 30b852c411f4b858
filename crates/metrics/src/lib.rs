//! Measurement substrate for the Partial Key Grouping reproduction.
//!
//! The paper's evaluation reports three families of quantities, and this
//! crate implements all of them:
//!
//! * **Load and imbalance** (§II): the load of worker `i` at time `t` is the
//!   number of messages routed to it up to `t`; the imbalance is
//!   `I(t) = max_i L_i(t) − avg_i L_i(t)`. Figures 2–4 report the *fraction
//!   of imbalance* (imbalance normalized by the number of messages). See
//!   [`load::LoadVector`] and [`mod@imbalance`].
//! * **Time series** (Fig. 3): imbalance sampled through (simulated) time.
//!   See [`TimeSeries`].
//! * **Latency** (Fig. 5): end-to-end engine latencies. See
//!   [`histogram::LatencyHistogram`] (a log-bucketed histogram, since
//!   per-message latencies span orders of magnitude).
//!
//! [`Welford`] provides numerically stable running mean/variance
//! used by several experiment drivers.
//!
//! For heterogeneous clusters, [`capacity::Capacities`] carries per-worker
//! capacity weights and the `weighted_*` accessors measure imbalance
//! relative to what each worker can absorb (`max_i L_i/c_i − avg`); with
//! uniform capacities every weighted quantity degenerates exactly to its
//! unweighted counterpart.
//!
//! [`load_metric::LoadMetricKind`] makes the *minimized signal itself*
//! pluggable (tuple count, in-flight depth, Peak-EWMA latency), and
//! [`CapacityEstimator`] re-derives capacity weights
//! online from observed service rates — see the module docs for the
//! byte-identity contracts both uphold in their default/uniform regimes.

#![forbid(unsafe_code)]

pub mod capacity;
mod capacity_estimator;
pub mod histogram;
pub mod imbalance;
pub mod load;
pub mod load_metric;
mod timeseries;
mod welford;

pub use capacity::{prefers, weighted_imbalance, weighted_imbalance_fraction, Capacities};
pub use capacity_estimator::{CapacityEstimator, DEFAULT_ESTIMATOR_WINDOW};
pub use histogram::LatencyHistogram;
pub use imbalance::{imbalance, imbalance_fraction, worst_case_imbalance};
pub use load::LoadVector;
pub use load_metric::{peak_ewma_step, LoadMetricKind, LoadObservation};
pub use timeseries::TimeSeries;
pub use welford::Welford;
