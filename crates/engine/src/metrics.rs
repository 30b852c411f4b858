//! Runtime measurement results.

use std::time::Duration;

use pkg_metrics::LatencyHistogram;

/// Statistics of one component instance, reported when its task completes.
#[derive(Debug)]
pub struct InstanceStats {
    /// Component name.
    pub component: String,
    /// Instance index within the component.
    pub instance: usize,
    /// Tuples processed (bolts) or produced (spouts).
    pub processed: u64,
    /// Tuples emitted downstream.
    pub emitted: u64,
    /// Histogram of input-tuple age at processing time (ns) — end-to-end
    /// latency when measured at terminal bolts.
    pub latency: LatencyHistogram,
    /// [`crate::bolt::Bolt::state_size`] at end of stream, sampled *before*
    /// the final flush (partial counters drain on finish; this captures the
    /// state they actually held).
    pub final_state: usize,
    /// Maximum observed state size (sampled at every tick and at finish).
    pub max_state: usize,
    /// Mean of the state-size samples.
    pub avg_state: f64,
    /// Number of ticks fired.
    pub ticks: u64,
    /// Emulated service time charged via [`crate::bolt::Emitter::stall`],
    /// in nanoseconds, *after* capacity scaling
    /// ([`crate::runtime::RuntimeOptions::capacities`]). Deterministic in
    /// the requested durations, so a half-speed instance reports exactly
    /// twice the stall of a full-speed one under either schedule.
    pub stalled_ns: u64,
    /// Activations that drove this instance: how often a thread ran the
    /// task (the batching quantum's amortization denominator), under
    /// either schedule.
    pub activations: u64,
    /// Tuples refused at ingress and discarded outright (spouts only; zero
    /// when the ingress layer is disabled).
    pub shed_dropped: u64,
    /// Tuples refused at ingress and absorbed into a degraded summary
    /// (spouts only; see `pkg_ingress::Shed::Absorbed`).
    pub shed_degraded: u64,
    /// High-water mark of this instance's input queue depth (bolts only):
    /// the deepest its mailbox got at any point in the run.
    pub max_depth: u64,
    /// Packets this instance's flushes could not hand to a downstream
    /// mailbox (full, or an earlier spill still waiting) and queued in its
    /// outbox for a later retry. The Eof markers, which always queue there,
    /// are not counted.
    pub spilled: u64,
}

/// Scheduler counters of one pool worker, reported when the run ends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Activations this worker ran. Summed over the workers, it equals
    /// the instances' summed `InstanceStats::activations`.
    pub runs: u64,
    /// Tasks this worker took from a sibling's deque or inbox (a subset of
    /// its runs).
    pub steals: u64,
    /// Idle waits that parked the thread (`park_timeout`).
    pub parks: u64,
    /// Idle waits that spun toward a timer deadline instead of parking. An
    /// idle wait whose re-check found every queue empty ends in exactly one
    /// park or one spin.
    pub spins: u64,
    /// Timer-wheel entries (ticks and stall ends) this worker fired.
    pub timers_fired: u64,
    /// Σ(fire time − deadline) over those entries, in nanoseconds: how
    /// late the wheel's deadlines were met.
    pub timer_late_ns: u64,
}

/// Accumulates state-size samples (at every tick and at end of stream).
#[derive(Debug, Default)]
pub(crate) struct StateSampler {
    sum: f64,
    count: u64,
    pub(crate) max: usize,
}

impl StateSampler {
    pub(crate) fn sample(&mut self, size: usize) {
        self.sum += size as f64;
        self.count += 1;
        self.max = self.max.max(size);
    }

    pub(crate) fn avg(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Results of one topology run.
#[derive(Debug)]
pub struct RunStats {
    /// Wall-clock time from spawn to full drain.
    pub wall: Duration,
    /// All instance statistics.
    pub instances: Vec<InstanceStats>,
    /// Per-worker scheduler counters, indexed by worker id (the pool
    /// schedule only; empty under dedicated threads).
    pub workers: Vec<WorkerStats>,
}

impl RunStats {
    /// Total tuples processed by a component.
    pub fn processed(&self, component: &str) -> u64 {
        self.instances.iter().filter(|i| i.component == component).map(|i| i.processed).sum()
    }

    /// Total tuples emitted by a component.
    pub fn emitted(&self, component: &str) -> u64 {
        self.instances.iter().filter(|i| i.component == component).map(|i| i.emitted).sum()
    }

    /// Per-instance processed counts of a component (the engine-level load
    /// vector — its imbalance is the paper's `I(t)` on a live topology).
    pub fn loads(&self, component: &str) -> Vec<u64> {
        let mut v: Vec<(usize, u64)> = self
            .instances
            .iter()
            .filter(|i| i.component == component)
            .map(|i| (i.instance, i.processed))
            .collect();
        v.sort_unstable();
        v.into_iter().map(|(_, p)| p).collect()
    }

    /// Throughput of a component in tuples/second over the whole run.
    pub fn throughput(&self, component: &str) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.processed(component) as f64 / secs
        }
    }

    /// Total activations of a component (see
    /// [`InstanceStats::activations`]).
    pub fn activations(&self, component: &str) -> u64 {
        self.instances.iter().filter(|i| i.component == component).map(|i| i.activations).sum()
    }

    /// Per-instance charged service time of a component, in nanoseconds,
    /// sorted by instance index (see [`InstanceStats::stalled_ns`]).
    pub fn stalled_ns(&self, component: &str) -> Vec<u64> {
        let mut v: Vec<(usize, u64)> = self
            .instances
            .iter()
            .filter(|i| i.component == component)
            .map(|i| (i.instance, i.stalled_ns))
            .collect();
        v.sort_unstable();
        v.into_iter().map(|(_, s)| s).collect()
    }

    /// Merged latency histogram of a component.
    pub fn latency(&self, component: &str) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new(5);
        for i in self.instances.iter().filter(|i| i.component == component) {
            merged.merge(&i.latency);
        }
        merged
    }

    /// Sum of final state sizes of a component (total live counters).
    pub fn final_state(&self, component: &str) -> usize {
        self.instances.iter().filter(|i| i.component == component).map(|i| i.final_state).sum()
    }

    /// Sum of per-instance *average* state sizes — the "average memory
    /// (counters)" axis of Fig. 5(b).
    pub fn avg_state(&self, component: &str) -> f64 {
        self.instances.iter().filter(|i| i.component == component).map(|i| i.avg_state).sum()
    }

    /// Sum of per-instance maximum state sizes.
    pub fn max_state(&self, component: &str) -> usize {
        self.instances.iter().filter(|i| i.component == component).map(|i| i.max_state).sum()
    }

    /// Tuples a component's ingress layer dropped outright.
    pub fn shed_dropped(&self, component: &str) -> u64 {
        self.instances.iter().filter(|i| i.component == component).map(|i| i.shed_dropped).sum()
    }

    /// Tuples a component's ingress layer absorbed into degraded summaries.
    pub fn shed_degraded(&self, component: &str) -> u64 {
        self.instances.iter().filter(|i| i.component == component).map(|i| i.shed_degraded).sum()
    }

    /// Always 0: the engine duplicates no tuple. Kept only for the
    /// benchmark's conservation check, which still adds it in.
    pub fn hedges(&self, _component: &str) -> u64 {
        0
    }

    /// Packets a component's flushes spilled into outboxes (see
    /// [`InstanceStats::spilled`]).
    pub fn spilled(&self, component: &str) -> u64 {
        self.instances.iter().filter(|i| i.component == component).map(|i| i.spilled).sum()
    }

    /// Deepest input queue any instance of a component reached.
    pub fn max_depth(&self, component: &str) -> u64 {
        self.instances
            .iter()
            .filter(|i| i.component == component)
            .map(|i| i.max_depth)
            .max()
            .unwrap_or(0)
    }

    /// `[p50, p99, p999]` of a component's merged input-age histogram, in
    /// nanoseconds (end-to-end latency at terminal bolts).
    pub fn latency_percentiles(&self, component: &str) -> [u64; 3] {
        let merged = self.latency(component);
        [merged.quantile(0.50), merged.quantile(0.99), merged.quantile(0.999)]
    }
}
