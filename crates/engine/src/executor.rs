//! Per-instance executor loops.

use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError};
use pkg_core::SharedLoads;
use pkg_metrics::LatencyHistogram;

use crate::bolt::{Bolt, EdgeTx, Emitter, OutEdge, Sink};
use crate::ingress::{DepthGauge, SpoutIngress};
use crate::metrics::InstanceStats;
use crate::spout::Spout;
use crate::sync::Arc;
use crate::tuple::Packet;

/// Accumulates state-size samples (shared with the pool executor).
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

fn send_eof(edges: &mut [OutEdge]) {
    for edge in edges {
        match &edge.tx {
            EdgeTx::Channels(txs) => {
                for tx in txs {
                    // Downstream may only hang up after receiving Eof from
                    // every sender; if it already did, shutdown is in
                    // progress anyway.
                    let _ = tx.send(Packet::Eof);
                }
            }
            EdgeTx::Tasks(_) | EdgeTx::TaskRings(_) => {
                unreachable!("thread executor edges are channels")
            }
        }
    }
}

/// Drive a spout until exhaustion; stamps tuples' birth timestamps.
pub(crate) fn run_spout(
    component: String,
    instance: usize,
    mut spout: Box<dyn Spout>,
    mut edges: Vec<OutEdge>,
    epoch: Instant,
    stall_scale: f64,
    mut ingress: Option<SpoutIngress>,
) -> InstanceStats {
    let mut processed = 0u64;
    let mut emitted = 0u64;
    let mut stalled_ns = 0u64;
    loop {
        if let Some(wait) = spout.not_before() {
            std::thread::sleep(wait);
            continue;
        }
        let Some(tuple) = spout.next() else { break };
        processed += 1;
        let now_ns = epoch.elapsed().as_nanos() as u64;
        if let Some(ing) = ingress.as_mut() {
            // Scan every destination's gauge only when admission reads it.
            let depth = if ing.needs_depth() {
                edges.iter().map(OutEdge::max_gauge_depth).max().unwrap_or(0)
            } else {
                0
            };
            if !ing.offer(&tuple.key, tuple.key_id(), tuple.value, depth, now_ns) {
                continue;
            }
        }
        let mut em = Emitter {
            edges: &mut edges,
            sink: Sink::Blocking,
            inherit_born_ns: 0,
            // Guard against a zero elapsed reading: 0 means "stamp me".
            now_ns: now_ns.max(1),
            emitted: &mut emitted,
            stall_scale,
            stalled_ns: 0,
        };
        em.emit(tuple);
        stalled_ns += em.stalled_ns;
    }
    // Drain phase: re-inject whatever the shed policy retained (degraded
    // summaries), as ordinary tuples ahead of Eof.
    if let Some(ing) = ingress.as_mut() {
        ing.start_drain();
        while let Some(tuple) = ing.next_drained() {
            let now_ns = (epoch.elapsed().as_nanos() as u64).max(1);
            let mut em = Emitter {
                edges: &mut edges,
                sink: Sink::Blocking,
                inherit_born_ns: 0,
                now_ns,
                emitted: &mut emitted,
                stall_scale,
                stalled_ns: 0,
            };
            em.emit(tuple);
            stalled_ns += em.stalled_ns;
        }
    }
    send_eof(&mut edges);
    InstanceStats {
        component,
        instance,
        processed,
        emitted,
        latency: LatencyHistogram::new(5),
        final_state: 0,
        max_state: 0,
        avg_state: 0.0,
        ticks: 0,
        stalled_ns,
        activations: 1,
        shed_dropped: ingress.as_ref().map_or(0, SpoutIngress::dropped),
        shed_degraded: ingress.as_ref().map_or(0, SpoutIngress::degraded),
        hedges: edges.iter().map(|e| e.hedge.as_ref().map_or(0, |h| h.issued)).sum(),
        max_depth: 0,
    }
}

/// Drive a bolt until every upstream sender has delivered its Eof.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_bolt(
    component: String,
    instance: usize,
    mut bolt: Box<dyn Bolt>,
    rx: Receiver<Packet>,
    mut edges: Vec<OutEdge>,
    mut eof_remaining: usize,
    tick_every: Option<Duration>,
    epoch: Instant,
    stall_scale: f64,
    gauge: Option<Arc<DepthGauge>>,
    signals: Option<SharedLoads>,
) -> InstanceStats {
    let mut processed = 0u64;
    let mut emitted = 0u64;
    let mut ticks = 0u64;
    let mut stalled_ns = 0u64;
    let mut latency = LatencyHistogram::new(5);
    let mut sampler = StateSampler::default();
    let mut next_tick = tick_every.map(|p| Instant::now() + p);
    // Virtual service clock (`Emitter::stall`): when the service time charged
    // so far ends, in ns since `epoch`; 0 = idle.
    let mut busy_until = 0u64;

    loop {
        if busy_until != 0 {
            // Sleep off what the clock is ahead of the wall (`sleep`
            // overshoots; the clock catches that up on later tuples). With
            // nothing queued the instance then goes idle, and the next
            // tuple's service starts on its arrival.
            let ahead = busy_until.saturating_sub(epoch.elapsed().as_nanos() as u64);
            std::thread::sleep(Duration::from_nanos(ahead));
            if gauge.as_ref().is_some_and(|g| g.load() == 0) {
                busy_until = 0;
            }
        }
        let packet = match next_tick {
            Some(deadline) => {
                let now = Instant::now();
                if now >= deadline {
                    let Some(period) = tick_every else {
                        unreachable!("deadline implies period");
                    };
                    let now_ns = (epoch.elapsed().as_nanos() as u64).max(1);
                    // Sample state at its peak, *before* the tick flushes it
                    // (Fig. 5(b)'s "average memory" is the live counter
                    // count at aggregation boundaries).
                    sampler.sample(bolt.state_size());
                    let mut em = Emitter {
                        edges: &mut edges,
                        sink: Sink::Blocking,
                        inherit_born_ns: 0,
                        now_ns,
                        emitted: &mut emitted,
                        stall_scale,
                        stalled_ns: 0,
                    };
                    bolt.tick(&mut em);
                    stalled_ns += em.stalled_ns;
                    ticks += 1;
                    next_tick = Some(deadline + period);
                    continue;
                }
                match rx.recv_timeout(deadline - now) {
                    Ok(p) => p,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            None => match rx.recv() {
                Ok(p) => p,
                Err(_) => break,
            },
        };
        match packet {
            Packet::Tuple(tuple) => {
                // Balance the sender-side increment (see `Sink::deliver`).
                if let Some(g) = &gauge {
                    g.dec();
                }
                let now_ns = (epoch.elapsed().as_nanos() as u64).max(1);
                latency.record(now_ns.saturating_sub(tuple.born_ns));
                let mut em = Emitter {
                    edges: &mut edges,
                    sink: Sink::Blocking,
                    inherit_born_ns: tuple.born_ns,
                    now_ns,
                    emitted: &mut emitted,
                    stall_scale,
                    stalled_ns: 0,
                };
                let tuple_stalled = {
                    bolt.execute(tuple, &mut em);
                    em.stalled_ns
                };
                // Feed the load signals: this tuple is no longer in flight,
                // and its capacity-scaled service time is the latency sample
                // for Peak-EWMA and the online capacity estimator.
                if let Some(s) = signals.as_ref().and_then(SharedLoads::signals) {
                    s.complete(instance, tuple_stalled);
                }
                stalled_ns += tuple_stalled;
                processed += 1;
                if tuple_stalled > 0 {
                    // Service starts when the previous tuple's ended.
                    busy_until = if busy_until == 0 { now_ns } else { busy_until } + tuple_stalled;
                }
            }
            Packet::Eof => {
                eof_remaining -= 1;
                if eof_remaining == 0 {
                    break;
                }
            }
        }
    }

    // Sample peak state, final flush, then propagate shutdown.
    sampler.sample(bolt.state_size());
    let final_state = bolt.state_size();
    {
        let now_ns = (epoch.elapsed().as_nanos() as u64).max(1);
        let mut em = Emitter {
            edges: &mut edges,
            sink: Sink::Blocking,
            inherit_born_ns: 0,
            now_ns,
            emitted: &mut emitted,
            stall_scale,
            stalled_ns: 0,
        };
        bolt.finish(&mut em);
        stalled_ns += em.stalled_ns;
    }
    send_eof(&mut edges);

    InstanceStats {
        component,
        instance,
        processed,
        emitted,
        latency,
        final_state,
        max_state: sampler.max,
        avg_state: sampler.avg(),
        ticks,
        stalled_ns,
        activations: 1,
        shed_dropped: 0,
        shed_degraded: 0,
        hedges: edges.iter().map(|e| e.hedge.as_ref().map_or(0, |h| h.issued)).sum(),
        max_depth: gauge.as_ref().map_or(0, |g| g.high() as u64),
    }
}
