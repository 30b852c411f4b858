//! The engine's one instance runtime, assembled: the state every schedule
//! shares ([`Shared`]), the schedule seam ([`Schedule`]), the clock
//! ([`Shared::now_ns`]), and [`run_pool`], which builds every task once
//! ([`crate::task`], [`crate::transport`]) and picks the schedule.
//!
//! Two schedules decide only *who calls [`run_task`] and when*:
//!
//! * **Pool** ([`crate::pool`]): a fixed set of worker threads share every
//!   task through per-worker deques, an injector and one timer wheel.
//! * **Dedicated threads** ([`crate::threads`]): one thread per task runs
//!   that task only, and keeps its task's deadlines itself.
//!
//! [`Schedule`] is a closed enum with one arm per schedule, each holding
//! only that schedule's state; its `wake`, `arm`, `requeue` and `run` are
//! the only code that tells the two apart, and `run_pool`'s one match on
//! [`ExecutorMode`] the only place one is chosen.
//!
//! # Memory ordering policy
//!
//! Every runtime atomic (here and in `task`, `transport`, `pool` and
//! `threads`) uses `SeqCst`, deliberately. The correctness argument for the
//! wake/idle handshake is the model-checked suite in `pool_model.rs`
//! (`--features pkg_model`), and the vendored checker explores
//! **sequentially consistent** interleavings only — a weaker ordering would
//! be outside what the model proves. Per-site `// ordering:` comments
//! (enforced by `pkg-lint`) state what each access must order against;
//! "SC-only model" refers back to this paragraph.
//!
//! All concurrency primitives are imported via the [`crate::sync`] facade
//! (also lint-enforced) so the same code runs under the model checker. The
//! wall clock is read here alone (`pkg-lint` rule `clock`).
//!
//! [`run_task`]: crate::task::run_task

#![warn(clippy::pedantic)]
// Curated pedantic allows, each deliberate:
// - cast_possible_truncation: ns-since-epoch u128→u64 overflows after ~584
//   years of run time; every cast site is such a conversion.
#![allow(clippy::cast_possible_truncation)]

use std::time::{Duration, Instant};

use crate::bolt::{EdgeTx, OutEdge};
use crate::grouping::Router;
use crate::ingress::{HedgeState, SpoutIngress};
use crate::metrics::{InstanceStats, RunStats, WorkerStats};
use crate::pool::Pool;
use crate::ring::SpscRing;
use crate::runtime::{ExecutorMode, RuntimeOptions};
use crate::sync::atomic::{AtomicU8, AtomicUsize};
use crate::sync::Mutex;
use crate::task::{TaskBody, TaskKind, TaskSlot, WakeKind, IDLE, QUEUED};
use crate::threads::{self, Owner};
use crate::topology::{ComponentKind, Topology};
use crate::transport::Mailbox;

/// Default batch quantum: packets drained per task activation.
pub(crate) const DEFAULT_BATCH: usize = 256;

/// Upper bound on an idle worker's (or dedicated owner's) sleep. A
/// defensive backstop: all wakes are edge-triggered, so this only bounds
/// recovery latency, it is not a correctness mechanism.
pub(crate) const MAX_IDLE_PARK: Duration = Duration::from_millis(100);

/// Shared runtime state; an [`Emitter`](crate::bolt::Emitter) delivers
/// through it without blocking.
pub(crate) struct Shared {
    pub(crate) tasks: Vec<TaskSlot>,
    pub(crate) schedule: Schedule,
    pub(crate) epoch: Instant,
    /// The quantum: packets per drain, offers per spout run, staged emissions.
    pub(crate) batch: usize,
    pub(crate) stats: Mutex<Vec<InstanceStats>>,
}

impl Shared {
    /// The clock: ns since `epoch`, never 0.
    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        (self.epoch.elapsed().as_nanos() as u64).max(1)
    }
}

/// Who runs a task's activations, and when.
pub(crate) enum Schedule {
    /// A fixed set of worker threads over shared run queues.
    Pool(Pool),
    /// One owner per task, indexed by task id.
    Threads(Vec<Owner>),
}

impl Schedule {
    /// Queue task `t`, which a wake just made QUEUED; `wid` is the worker
    /// whose activation raised the wake, `None` from outside one.
    pub(crate) fn wake(&self, t: usize, kind: &WakeKind, wid: Option<usize>) {
        match self {
            Schedule::Pool(pool) => pool.wake(t, kind, wid),
            // A dedicated owner is its task's only run queue.
            Schedule::Threads(owners) => owners[t].unparker.unpark(),
        }
    }

    /// Arm a deadline for task `t`: a tick (`Notify`) or the end of a stall
    /// (`Unpark`). The pool inserts it into the shared timer wheel; a
    /// dedicated owner records it as its task's own next deadline.
    pub(crate) fn arm(&self, t: usize, deadline_ns: u64, kind: &WakeKind) {
        match self {
            Schedule::Pool(pool) => pool.arm(t, deadline_ns, kind),
            Schedule::Threads(owners) => owners[t].arm(deadline_ns, kind),
        }
    }

    /// Requeue task `t`, just stored QUEUED after an activation on worker
    /// `wid` (a `source` is a spout).
    pub(crate) fn requeue(&self, t: usize, wid: usize, source: bool) {
        match self {
            Schedule::Pool(pool) => pool.requeue(t, wid, source),
            // The owner's next pass finds its task QUEUED and runs it.
            Schedule::Threads(_) => {}
        }
    }

    /// Drive every task to DONE; returns the pool workers' counters (none
    /// under dedicated threads).
    fn run(&self, shared: &Shared) -> Vec<WorkerStats> {
        match self {
            Schedule::Pool(pool) => pool.run(shared),
            Schedule::Threads(owners) => {
                threads::run(shared, owners);
                Vec::new()
            }
        }
    }
}

/// Execute `topology` under `opts`: build every task once, then drive them
/// with the schedule `opts.executor` names — a pool of worker threads, or
/// one dedicated thread per task. With `opts.spsc_rings` on, destinations
/// fed by exactly one upstream sender instance get lock-free SPSC ring
/// mailboxes instead of mutexed queues.
#[allow(clippy::too_many_lines)] // one topology build
pub(crate) fn run_pool(topology: &Topology, opts: &RuntimeOptions) -> RunStats {
    // Mailboxes are asynchronous queues with no rendezvous mode: a
    // capacity-0 mailbox could never accept a packet and every producer
    // would park forever, so capacity 0 clamps to 1.
    let mailbox_capacity = opts.channel_capacity.max(1);
    let n_components = topology.components.len();
    let out_edges = crate::runtime::build_out_edges(topology, opts.seed);
    let upstream = crate::runtime::upstream_sender_counts(topology);
    // Shared load signals per destination component, so every sender of
    // an edge routes on the same signal state.
    let parallelism: Vec<usize> = topology.components.iter().map(|c| c.parallelism).collect();
    let component_shared =
        crate::load::component_signals(opts.load.as_ref(), &out_edges, &parallelism);
    let mut first_task = Vec::with_capacity(n_components);
    let mut total_instances = 0usize;
    for c in &topology.components {
        first_task.push(total_instances);
        total_instances += c.parallelism;
    }
    let (schedule, batch) = match opts.executor {
        ExecutorMode::ThreadPerInstance => {
            (Schedule::Threads((0..total_instances).map(|_| Owner::new()).collect()), 0)
        }
        ExecutorMode::Pool { workers, batch } => {
            let workers = if workers == 0 {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            } else {
                workers
            };
            (Schedule::Pool(Pool::new(workers, total_instances)), batch)
        }
    };

    // A destination whose in-edges carry exactly one upstream sender
    // instance in total is single-producer: its mailbox can be a lock-free
    // SPSC ring (the task state machine serializes that sender's
    // activations, so the discipline holds across worker migration).
    let use_ring = |ci: usize| opts.spsc_rings && upstream[ci] == 1;

    let epoch = Instant::now();
    let mut tasks = Vec::with_capacity(total_instances);
    let mut first_ticks = Vec::new();
    let mut sources = Vec::new();
    for (ci, c) in topology.components.iter().enumerate() {
        for i in 0..c.parallelism {
            let tid = first_task[ci] + i;
            let is_spout = matches!(c.kind, ComponentKind::Spout(_));
            let edges: Vec<OutEdge> = out_edges[ci]
                .iter()
                .map(|(to, grouping, edge_seed)| OutEdge {
                    router: Router::with_shared(
                        grouping,
                        topology.components[*to].parallelism,
                        *edge_seed,
                        i,
                        component_shared[*to].as_ref(),
                    ),
                    tx: {
                        let dests = (0..topology.components[*to].parallelism)
                            .map(|j| first_task[*to] + j)
                            .collect();
                        if use_ring(*to) {
                            EdgeTx::TaskRings(dests)
                        } else {
                            EdgeTx::Tasks(dests)
                        }
                    },
                    hedge: match &opts.ingress {
                        // The sender id derives from (component, instance)
                        // only, so hedge tags are schedule-independent.
                        Some(ingress) if is_spout => ingress
                            .hedge_depth_budget
                            .map(|budget| HedgeState::new(budget, (ci as u64) << 16 | i as u64)),
                        _ => None,
                    },
                    signals: component_shared[*to].clone(),
                })
                .collect();
            let (kind, mailbox, initial_state) = match &c.kind {
                ComponentKind::Spout(factory) => {
                    sources.push(tid);
                    let ing = opts.ingress.as_ref().map(|ingress| SpoutIngress::new(ingress, i));
                    (
                        TaskKind::Spout { spout: factory(i), exhausted: false, ingress: ing },
                        None,
                        QUEUED,
                    )
                }
                ComponentKind::Bolt(factory) => {
                    let period_ns = c.tick_every.map(|p| (p.as_nanos() as u64).max(1));
                    let next_tick_ns = match period_ns {
                        Some(p) => {
                            let deadline = (epoch.elapsed().as_nanos() as u64).max(1) + p;
                            first_ticks.push((tid, deadline));
                            deadline
                        }
                        None => u64::MAX,
                    };
                    let mailbox = if use_ring(ci) {
                        Mailbox::Ring(SpscRing::new(mailbox_capacity))
                    } else {
                        Mailbox::Mutexed {
                            cap: mailbox_capacity,
                            inner: Mutex::default(),
                            depth: AtomicUsize::new(0),
                        }
                    };
                    (
                        TaskKind::Bolt {
                            bolt: factory(i),
                            eof_remaining: upstream[ci],
                            tick_period_ns: period_ns,
                            next_tick_ns,
                        },
                        Some(mailbox),
                        IDLE,
                    )
                }
            };
            tasks.push(TaskSlot {
                state: AtomicU8::new(initial_state),
                mailbox,
                depth_high: AtomicUsize::new(0),
                body: Mutex::new(Some(Box::new(TaskBody::new(
                    c.name.clone(),
                    i,
                    kind,
                    edges,
                    opts.capacities.stall_scale(&c.name, i),
                    component_shared[ci].clone(),
                )))),
            });
        }
    }

    let shared = Shared {
        tasks,
        schedule,
        epoch,
        batch: if batch == 0 { DEFAULT_BATCH } else { batch },
        stats: Mutex::new(Vec::with_capacity(total_instances)),
    };
    // The sources start QUEUED: each is queued as its requeue would be.
    for tid in sources {
        shared.schedule.requeue(tid, 0, true);
    }
    for (tid, deadline) in first_ticks {
        shared.schedule.arm(tid, deadline, &WakeKind::Notify);
    }

    let workers = shared.schedule.run(&shared);

    let wall = epoch.elapsed();
    let Ok(mut instances) = shared.stats.into_inner() else {
        panic!("engine lock poisoned: a worker thread panicked");
    };
    assert_eq!(instances.len(), total_instances, "every task reports stats");
    instances.sort_by(|a, b| a.component.cmp(&b.component).then(a.instance.cmp(&b.instance)));
    RunStats { wall, instances, workers }
}
