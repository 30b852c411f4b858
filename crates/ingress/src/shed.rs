//! Load-shedding policies: what happens to a tuple the ingress layer
//! refuses to admit.
//!
//! The engine decides *when* to shed (token bucket empty, downstream depth
//! at the watermark); the policy decides *what
//! happens to the refused tuple*. [`HardDrop`] discards it — cheapest,
//! loses information. The *degrade* policy (in `pkg-apps`, over `pkg-agg`'s
//! sketch types) absorbs the tuple into a Space-Saving summary and returns
//! the surviving heavy-hitter counts through [`ShedPolicy::drain`] at
//! end-of-stream, so aggregate answers keep sketch-level accuracy for the
//! head of the distribution even though individual tuples were refused.

/// What a [`ShedPolicy`] did with a refused tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shed {
    /// The tuple is gone; its contribution is lost.
    Dropped,
    /// The tuple was folded into a degraded (sketch-accuracy) summary that
    /// [`ShedPolicy::drain`] will surface at end-of-stream.
    Absorbed,
}

/// A policy consulted once per refused tuple.
///
/// Implementations must be deterministic in their input sequence: the
/// ingress layer guarantees reproducible *decision* sequences (see
/// `pkg-ingress::bucket`), and a policy must not break that downstream.
pub trait ShedPolicy: Send {
    /// Handle one refused tuple (key bytes, the engine's hashed key id,
    /// and the tuple's value).
    fn shed(&mut self, key: &[u8], key_id: u64, value: i64) -> Shed;

    /// Surface whatever the policy retained, as `(key, value)` pairs to be
    /// re-injected into the stream at end-of-stream. Called once, after
    /// the source is exhausted; the default retains nothing.
    fn drain(&mut self) -> Vec<(Vec<u8>, i64)> {
        Vec::new()
    }
}

/// The baseline policy: every refused tuple is discarded.
#[derive(Debug, Default, Clone, Copy)]
pub struct HardDrop;

impl ShedPolicy for HardDrop {
    fn shed(&mut self, _key: &[u8], _key_id: u64, _value: i64) -> Shed {
        Shed::Dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hard_drop_drops_and_drains_nothing() {
        let mut p = HardDrop;
        assert_eq!(p.shed(b"k", 1, 7), Shed::Dropped);
        assert!(p.drain().is_empty());
    }
}
