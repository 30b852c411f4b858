//! Stream sources.

use std::time::Duration;

use crate::tuple::Tuple;

/// A source of tuples (Storm's spout). `next` returning `None` ends the
/// stream; the runtime then propagates end-of-stream markers downstream and
/// shuts the topology down once they drain.
pub trait Spout: Send {
    /// Produce the next tuple, or `None` at end of stream.
    fn next(&mut self) -> Option<Tuple>;

    /// How long until the next tuple is due; `None` (the default) means
    /// now. The runtime asks before every [`Spout::next`]. On `Some(wait)`
    /// it ends the spout's quantum, delivers what it produced and parks the
    /// task until the deadline — on the timer wheel under the pool, holding
    /// no worker; on its own thread under thread-per-instance. It may ask
    /// again early: answer from the source's clock.
    fn not_before(&mut self) -> Option<Duration> {
        None
    }
}

/// A spout from a closure.
pub fn spout_from_fn<F>(f: F) -> Box<dyn Spout>
where
    F: FnMut() -> Option<Tuple> + Send + 'static,
{
    struct FnSpout<F>(F);
    impl<F: FnMut() -> Option<Tuple> + Send> Spout for FnSpout<F> {
        fn next(&mut self) -> Option<Tuple> {
            (self.0)()
        }
    }
    Box::new(FnSpout(f))
}

/// A spout from any iterator of tuples.
pub fn spout_from_iter<I>(iter: I) -> Box<dyn Spout>
where
    I: IntoIterator<Item = Tuple>,
    I::IntoIter: Send + 'static,
{
    struct IterSpout<I>(I);
    impl<I: Iterator<Item = Tuple> + Send> Spout for IterSpout<I> {
        fn next(&mut self) -> Option<Tuple> {
            self.0.next()
        }
    }
    Box::new(IterSpout(iter.into_iter()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_spout_yields_then_ends() {
        let mut n = 0;
        let mut s = spout_from_fn(move || {
            n += 1;
            (n <= 3).then(|| Tuple::new(vec![n as u8], 0))
        });
        assert!(s.next().is_some());
        assert!(s.next().is_some());
        assert!(s.next().is_some());
        assert!(s.next().is_none());
    }

    #[test]
    fn iter_spout_drains_iterator() {
        let tuples = vec![Tuple::new(b"a".to_vec(), 1), Tuple::new(b"b".to_vec(), 2)];
        let mut s = spout_from_iter(tuples);
        assert_eq!(s.next().expect("first").value, 1);
        assert_eq!(s.next().expect("second").value, 2);
        assert!(s.next().is_none());
    }
}
