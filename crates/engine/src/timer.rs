//! Central timer wheel for the pool schedule's tick and stall deadlines.
//!
//! A dedicated thread per instance can sleep until its own next deadline;
//! the pool's shared workers cannot. They replace all those per-instance
//! timers with this single hashed wheel: tasks register `(deadline, task)`
//! entries, and the workers' scheduling loop calls [`TimerWheel::fire`] to
//! collect everything due, waking those tasks.
//!
//! Layout: 256 slots of ~1 ms granules (`GRANULE_NS` is a power of two so
//! the slot index is a shift, not a division), giving a ~268 ms horizon.
//! Entries beyond the horizon go to an overflow list and migrate into the
//! wheel as the cursor approaches them. Firing is exact: an entry only
//! fires once `now >= deadline`, never early — slot membership is a
//! coarsening for scan efficiency, not for firing decisions.

#![warn(clippy::pedantic)]

/// Slot granularity in nanoseconds (`2^20` ≈ 1.05 ms).
const GRANULE_NS: u64 = 1 << 20;
/// Number of wheel slots; horizon = `SLOTS * GRANULE_NS` ≈ 268 ms.
const SLOTS: u64 = 256;

#[derive(Debug, Clone, Copy)]
struct Entry {
    deadline_ns: u64,
    task: usize,
    /// `true` for `Outcome::Stall` deadlines (charged service time, a source
    /// not due yet), which wake the PARKED task (`WakeKind::Unpark`); tick
    /// deadlines wake with `Notify` and leave parked tasks alone.
    unpark: bool,
}

/// A hashed timer wheel over `(deadline, task)` entries.
#[derive(Debug)]
pub(crate) struct TimerWheel {
    slots: Vec<Vec<Entry>>,
    /// Next granule to inspect; all entries with `granule < cursor` have
    /// fired.
    cursor: u64,
    /// Entries whose granule lies beyond `cursor + SLOTS`.
    overflow: Vec<Entry>,
    len: usize,
}

#[inline]
fn granule(deadline_ns: u64) -> u64 {
    deadline_ns / GRANULE_NS
}

impl TimerWheel {
    pub(crate) fn new() -> Self {
        Self {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            cursor: 0,
            overflow: Vec::new(),
            len: 0,
        }
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Register `task` to be tick-woken (`Notify`) once the clock reaches
    /// `deadline_ns` (nanoseconds on the same clock passed to
    /// [`TimerWheel::fire`]).
    pub(crate) fn insert(&mut self, deadline_ns: u64, task: usize) {
        self.insert_entry(Entry { deadline_ns, task, unpark: false });
    }

    /// Register an `Outcome::Stall` deadline: fires as an `Unpark` wake,
    /// which resumes the stalled (parked) task.
    pub(crate) fn insert_unpark(&mut self, deadline_ns: u64, task: usize) {
        self.insert_entry(Entry { deadline_ns, task, unpark: true });
    }

    fn insert_entry(&mut self, entry: Entry) {
        let g = granule(entry.deadline_ns).max(self.cursor);
        if g < self.cursor + SLOTS {
            self.slots[(g % SLOTS) as usize].push(entry);
        } else {
            self.overflow.push(entry);
        }
        self.len += 1;
    }

    /// Collect every `(task, unpark)` whose deadline is `<= now_ns` into
    /// `due` and advance the cursor. Returns how late they fire: the sum of
    /// `now_ns - deadline` over the collected entries.
    pub(crate) fn fire(&mut self, now_ns: u64, due: &mut Vec<(usize, bool)>) -> u64 {
        let mut late_ns = 0;
        if self.len == 0 {
            // Keep the cursor tracking the clock so late inserts land in
            // live slots rather than a long-dead window.
            self.cursor = self.cursor.max(granule(now_ns));
            return late_ns;
        }
        let now_granule = granule(now_ns);
        while self.cursor <= now_granule {
            let slot = &mut self.slots[(self.cursor % SLOTS) as usize];
            let cursor = self.cursor;
            let mut kept = 0;
            for i in 0..slot.len() {
                let e = slot[i];
                // A slot holds this granule's entries plus later wrap-around
                // residents; fire only the former, and of those only the
                // truly-due (the cursor granule itself may be mid-flight).
                if granule(e.deadline_ns).max(cursor) == cursor && e.deadline_ns <= now_ns {
                    due.push((e.task, e.unpark));
                    late_ns += now_ns - e.deadline_ns;
                    self.len -= 1;
                } else {
                    slot[kept] = e;
                    kept += 1;
                }
            }
            slot.truncate(kept);
            if self.cursor == now_granule {
                break;
            }
            self.cursor += 1;
            // Crossing into a new granule opens one slot of horizon; pull
            // any overflow entries that now fit.
            if !self.overflow.is_empty() {
                let horizon = self.cursor + SLOTS;
                let mut i = 0;
                while i < self.overflow.len() {
                    if granule(self.overflow[i].deadline_ns) < horizon {
                        let e = self.overflow.swap_remove(i);
                        let g = granule(e.deadline_ns).max(self.cursor);
                        self.slots[(g % SLOTS) as usize].push(e);
                    } else {
                        i += 1;
                    }
                }
            }
        }
        late_ns
    }

    /// Earliest pending deadline, if any — the idle workers' sleep bound.
    /// O(entries); called only when a worker is about to park.
    pub(crate) fn next_deadline_ns(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        self.slots.iter().flatten().chain(self.overflow.iter()).map(|e| e.deadline_ns).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fired(w: &mut TimerWheel, now: u64) -> Vec<usize> {
        let mut due = Vec::new();
        w.fire(now, &mut due);
        let mut tasks: Vec<usize> = due.into_iter().map(|(t, _)| t).collect();
        tasks.sort_unstable();
        tasks
    }

    #[test]
    fn fires_at_deadline_not_before() {
        let mut w = TimerWheel::new();
        w.insert(5 * GRANULE_NS + 17, 1);
        assert!(fired(&mut w, 5 * GRANULE_NS + 16).is_empty(), "one ns early");
        assert_eq!(fired(&mut w, 5 * GRANULE_NS + 17), vec![1], "exactly due");
        assert!(w.is_empty());
    }

    #[test]
    fn same_granule_split_by_exact_deadline() {
        let mut w = TimerWheel::new();
        w.insert(100, 1);
        w.insert(200, 2);
        assert_eq!(fired(&mut w, 150), vec![1]);
        assert_eq!(fired(&mut w, 250), vec![2]);
    }

    #[test]
    fn wrap_around_does_not_cross_fire() {
        let mut w = TimerWheel::new();
        // Same slot index, SLOTS granules apart.
        w.insert(3 * GRANULE_NS, 1);
        w.insert((3 + SLOTS) * GRANULE_NS, 2);
        assert_eq!(fired(&mut w, 4 * GRANULE_NS), vec![1]);
        assert!(fired(&mut w, (SLOTS + 2) * GRANULE_NS).is_empty());
        assert_eq!(fired(&mut w, (SLOTS + 4) * GRANULE_NS), vec![2]);
    }

    #[test]
    fn overflow_entries_migrate_and_fire() {
        let mut w = TimerWheel::new();
        let far = 5 * SLOTS * GRANULE_NS + 42;
        w.insert(far, 9);
        assert!(fired(&mut w, far - GRANULE_NS).is_empty());
        assert_eq!(fired(&mut w, far), vec![9]);
        assert!(w.is_empty());
    }

    #[test]
    fn next_deadline_is_minimum_across_wheel_and_overflow() {
        let mut w = TimerWheel::new();
        assert_eq!(w.next_deadline_ns(), None);
        w.insert(10 * SLOTS * GRANULE_NS, 1);
        w.insert(7 * GRANULE_NS, 2);
        assert_eq!(w.next_deadline_ns(), Some(7 * GRANULE_NS));
    }

    #[test]
    fn stale_clock_insert_still_fires() {
        let mut w = TimerWheel::new();
        let _ = fired(&mut w, 50 * GRANULE_NS); // cursor advanced
        w.insert(3, 4); // deadline long past the cursor
        assert_eq!(fired(&mut w, 50 * GRANULE_NS + 1), vec![4]);
    }

    #[test]
    fn unpark_flag_survives_the_wheel() {
        let mut w = TimerWheel::new();
        w.insert(3 * GRANULE_NS, 1);
        w.insert_unpark(3 * GRANULE_NS + 1, 2);
        let mut due = Vec::new();
        w.fire(4 * GRANULE_NS, &mut due);
        due.sort_unstable();
        assert_eq!(due, vec![(1, false), (2, true)]);
    }

    #[test]
    fn fire_reports_the_summed_lateness() {
        let mut w = TimerWheel::new();
        w.insert(100, 1);
        w.insert_unpark(250, 2);
        w.insert(5 * GRANULE_NS, 3);
        let mut due = Vec::new();
        assert_eq!(w.fire(300, &mut due), 200 + 50, "Σ(now − deadline) over the two due");
        assert_eq!(due.len(), 2);
        assert_eq!(w.fire(301, &mut Vec::new()), 0, "nothing due, nothing late");
    }

    #[test]
    fn periodic_rearm_pattern() {
        let mut w = TimerWheel::new();
        let period = 5 * GRANULE_NS;
        let mut deadline = period;
        let mut fires = 0;
        for step in 1..=100u64 {
            let now = step * GRANULE_NS;
            for t in fired(&mut w, now) {
                assert_eq!(t, 0);
                fires += 1;
                deadline += period;
                w.insert(deadline, 0);
            }
            if step == 1 {
                w.insert(deadline, 0);
            }
        }
        assert_eq!(fires, 20, "one fire per elapsed period");
    }
}
