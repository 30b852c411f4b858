//! Queue-depth signals and overload behavior across schedules and
//! transports.
//!
//! The ingress layer's shed decisions key off one signal — "tuples
//! queued downstream" — read from the destination mailboxes' lengths, with
//! a producer-side high-water mark per mailbox, under both schedules
//! (thread-per-instance and the worker pool) and both transports (mutexed
//! queue and SPSC ring). These tests pin that the signal behaves the same
//! everywhere: bounded by the channel capacity, saturating under a slow
//! consumer, and — for the schedule-independent token-bucket arm —
//! yielding byte-identical admit/shed sequences.

use std::time::Duration;

use partial_key_grouping::apps::Collector;
use partial_key_grouping::engine::prelude::*;
use partial_key_grouping::engine::ExecutorMode;

/// A bolt that holds each tuple for a fixed wall-clock interval before
/// forwarding it — the simplest way to force a standing queue upstream.
struct Slow(Duration);

impl Bolt for Slow {
    fn execute(&mut self, t: Tuple, out: &mut Emitter<'_>) {
        std::thread::sleep(self.0);
        out.emit(t);
    }
}

const CAP: usize = 8;

/// Single spout → single slow bolt → collector sink. One upstream sender,
/// so under the pool's default options the slow bolt's mailbox is an SPSC
/// ring; `spsc_rings: false` forces the mutexed transport instead.
fn slow_chain(
    messages: u64,
    ingress: Option<IngressOptions>,
    executor: ExecutorMode,
    rings: bool,
    hold: Duration,
) -> (Collector, partial_key_grouping::engine::RunStats) {
    let collector = Collector::new();
    let mut topo = Topology::new();
    let src = topo.add_spout("src", 1, move |_| {
        spout_from_iter((0..messages).map(|i| Tuple::new(format!("k{}", i % 13).into_bytes(), 1)))
    });
    let slow =
        topo.add_bolt("slow", 1, move |_| Box::new(Slow(hold))).input(src, Grouping::Key).id();
    let c = collector.clone();
    let _sink = topo.add_bolt("sink", 1, move |_| c.bolt()).input(slow, Grouping::Global);
    let options = RuntimeOptions {
        channel_capacity: CAP,
        seed: 11,
        executor,
        spsc_rings: rings,
        ingress,
        ..RuntimeOptions::default()
    };
    (collector, Runtime::with_options(options).run(topo))
}

/// The comparison shape for byte-identity: (key, value, payload).
type Triple = (Box<[u8]>, i64, Box<[u8]>);

fn triples(c: &Collector) -> Vec<Triple> {
    c.tuples().into_iter().map(|t| (t.key.into_boxed(), t.value, t.payload)).collect()
}

/// Pool executor, both transports: a slow consumer behind a capacity-8
/// edge drives the producer-side high-water mark into the top half of the
/// capacity range without ever exceeding it — and swapping the transport
/// changes nothing observable.
#[test]
fn pool_ring_and_mutex_depth_signals_are_comparable() {
    let pool = ExecutorMode::Pool { workers: 0, batch: 0 };
    let mut baseline: Option<Vec<Triple>> = None;
    for rings in [true, false] {
        let (collector, stats) = slow_chain(600, None, pool, rings, Duration::from_micros(20));
        let depth = stats.max_depth("slow");
        assert!(
            (CAP as u64 / 2..=CAP as u64).contains(&depth),
            "rings={rings}: high-water {depth} outside [{}, {CAP}]",
            CAP / 2
        );
        assert_eq!(stats.processed("slow"), 600, "rings={rings} conservation");
        let got = triples(&collector);
        match &baseline {
            None => baseline = Some(got),
            Some(want) => assert_eq!(&got, want, "transports diverged"),
        }
    }
}

/// Thread executor: the sender-side gauge saturates under the same slow
/// consumer and stays within two in-flight tuples of the channel capacity
/// — the increment lands before a blocking send, and the consumer's
/// decrement lands after its receive frees the blocked sender's slot, so a
/// single sender can observe `cap` queued plus one tuple in each hand.
#[test]
fn thread_gauge_depth_is_bounded_by_capacity() {
    let (_, stats) =
        slow_chain(600, None, ExecutorMode::ThreadPerInstance, true, Duration::from_micros(20));
    let depth = stats.max_depth("slow");
    assert!(depth >= 1, "a slow consumer must build some queue");
    assert!(depth <= CAP as u64 + 2, "gauge high-water {depth} exceeds capacity + 2");
    assert_eq!(stats.processed("slow"), 600);
}

/// Token-bucket-only shedding on a logical clock is a pure function of the
/// offered stream: the thread oracle, the ring pool, and the mutex pool
/// must agree on every admit/shed decision — same shed counts, same
/// surviving bytes.
#[test]
fn bucket_shedding_is_byte_identical_across_executors_and_transports() {
    // 10k offered/s logical, 4k admitted/s: roughly 6 of every 10 offers
    // shed, decided entirely by the offer index.
    let ingress = IngressOptions {
        rate_per_sec: Some(4_000),
        burst: 4,
        logical_step_ns: Some(100_000),
        ..IngressOptions::default()
    };
    let legs = [
        (ExecutorMode::ThreadPerInstance, true),
        (ExecutorMode::Pool { workers: 0, batch: 0 }, true),
        (ExecutorMode::Pool { workers: 0, batch: 0 }, false),
    ];
    let mut baseline: Option<(Vec<Triple>, u64)> = None;
    for (executor, rings) in legs {
        let (collector, stats) =
            slow_chain(500, Some(ingress.clone()), executor, rings, Duration::ZERO);
        assert!(stats.shed_dropped("src") > 0, "the bucket must refuse something");
        assert_eq!(stats.shed_degraded("src"), 0, "HardDrop never degrades");
        assert_eq!(stats.processed("src"), 500, "processed counts offered tuples, shed included");
        let got = (triples(&collector), stats.shed_dropped("src"));
        match &baseline {
            None => baseline = Some(got),
            Some(want) => assert_eq!(&got, want, "executors diverged on shed decisions"),
        }
    }
}

/// The depth watermark engages under forced backlog in both executors:
/// with a capacity-8 edge, a watermark at half of it, and a consumer an
/// order of magnitude slower than the producer, some offers must observe
/// depth ≥ watermark and shed.
#[test]
fn watermark_shedding_engages_under_backlog_in_both_executors() {
    let ingress = IngressOptions { watermark: Some(CAP / 2), ..IngressOptions::default() };
    for executor in [ExecutorMode::ThreadPerInstance, ExecutorMode::Pool { workers: 0, batch: 0 }] {
        let (collector, stats) =
            slow_chain(600, Some(ingress.clone()), executor, true, Duration::from_micros(50));
        let shed = stats.shed_dropped("src");
        assert!(shed > 0, "{executor:?}: watermark never engaged under 10x overload");
        assert_eq!(stats.processed("src"), 600, "{executor:?}: processed counts offered tuples");
        // Conservation: everything not shed reaches the sink.
        assert_eq!(
            collector.tuples().len() as u64,
            600 - shed,
            "{executor:?}: admitted tuples must all arrive"
        );
    }
}
