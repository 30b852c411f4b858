//! Engine-side wiring of the pluggable load signals.
//!
//! [`LoadSignalOptions`] (defined in `pkg-core`, shared with the simulator)
//! selects which load *signal* the load-consulting groupings — every
//! [`Grouping::Greedy`] edge without a membership plan — minimize, and
//! whether an online capacity estimator re-derives per-instance capacity
//! weights from observed service times. When set, every component that is
//! the destination of at least one load-consulting edge gets one shared
//! [`SharedLoads`] — all senders route on the same signal, fed by real
//! observations: dispatches from the emitters, completions (with the
//! tuple's capacity-scaled `stalled_ns` as the service-time sample) from
//! the activation loop, under either schedule identically.
//!
//! The default (`None`, or `TupleCount` with no estimator) attaches
//! nothing: the builders below return `None` per component and every
//! routing path stays byte-identical to an engine without this module.

pub use pkg_core::LoadSignalOptions;
use pkg_core::SharedLoads;

use crate::grouping::Grouping;

/// Whether a grouping consults downstream load when routing: a greedy edge
/// without a membership plan. (An elastic edge deliberately stays on
/// per-sender local estimation: its epoch replay is defined over the
/// sender's own routed count.)
pub(crate) fn consults_load(grouping: &Grouping) -> bool {
    matches!(grouping, Grouping::Greedy { plan: None, .. })
}

/// One shared load-signal handle per destination component: `Some` exactly
/// for components fed by a load-consulting edge when `load` selects a
/// non-default configuration. `parallelism[c]` is component `c`'s instance
/// count; `out_edges[c]` its outgoing `(dest, grouping, seed)` edges.
pub(crate) fn component_signals(
    load: Option<&LoadSignalOptions>,
    out_edges: &[Vec<(usize, Grouping, u64)>],
    parallelism: &[usize],
) -> Vec<Option<SharedLoads>> {
    let mut shared: Vec<Option<SharedLoads>> = vec![None; parallelism.len()];
    let Some(opts) = load else {
        return shared;
    };
    for (to, grouping, _) in out_edges.iter().flatten() {
        if consults_load(grouping) && shared[*to].is_none() {
            // The default configuration collapses to no signal state; leave
            // the component on the pre-existing local path then.
            shared[*to] = Some(opts.attach(SharedLoads::new(parallelism[*to])))
                .filter(|sl| sl.signals().is_some());
        }
    }
    shared
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_consulting_groupings_are_exactly_the_greedy_ones() {
        assert!(consults_load(&Grouping::partial_key()));
        assert!(consults_load(&Grouping::d_choices()));
        assert!(consults_load(&Grouping::w_choices()));
        assert!(!consults_load(&Grouping::Shuffle));
        assert!(!consults_load(&Grouping::Key));
        assert!(!consults_load(&Grouping::Global));
        assert!(!consults_load(&Grouping::Broadcast));
        assert!(!consults_load(&Grouping::elastic(pkg_elastic::MembershipPlan::new(4))));
    }

    #[test]
    fn default_options_attach_nothing() {
        let edges = vec![vec![(1usize, Grouping::partial_key(), 7u64)]];
        let none = component_signals(None, &edges, &[1, 4]);
        assert!(none.iter().all(Option::is_none));
        let count = LoadSignalOptions::metric(pkg_metrics::LoadMetricKind::TupleCount);
        let collapsed = component_signals(Some(&count), &edges, &[1, 4]);
        assert!(collapsed.iter().all(Option::is_none), "TupleCount collapses per contract");
    }

    #[test]
    fn signals_attach_only_to_load_consulting_destinations() {
        let edges = vec![
            vec![(1usize, Grouping::partial_key(), 7u64), (2usize, Grouping::Key, 8u64)],
            vec![],
            vec![],
        ];
        let opts = LoadSignalOptions::adaptive();
        let shared = component_signals(Some(&opts), &edges, &[1, 4, 3]);
        assert!(shared[0].is_none(), "no in-edge at all");
        let s1 = shared[1].as_ref().expect("PKG destination gets signals");
        assert_eq!(s1.n(), 4);
        assert!(s1.signals().is_some());
        assert!(s1.signals().and_then(|s| s.estimator().cloned()).is_some());
        assert!(shared[2].is_none(), "key-grouped destination consults no load");
    }
}
