//! A monotonic event queue with stable ordering for simultaneous events.
//!
//! The cell simulator is clocked: the xNodeB MAC runs every TTI. But flow
//! arrivals, TCP timers and wired-link deliveries happen at arbitrary
//! instants between TTIs. [`EventQueue`] merges both worlds: the main loop
//! drains all events up to the next TTI boundary, runs the TTI, repeats.
//!
//! Events scheduled for the same instant pop in FIFO order (insertion
//! order), which keeps runs reproducible regardless of queue internals.
//!
//! ## Implementation
//!
//! A hierarchical timer wheel: a TTI-granular near wheel (256 slots of
//! ~1.05 ms, covering ~268 ms) backed by two coarse far wheels
//! (64×~268 ms ≈ 17 s, 64×~17 s ≈ 18 min) and an overflow list beyond
//! that. Near-term schedule/pop are O(1) amortized and recycle slot
//! capacity, so the steady-state event path performs no heap allocation.
//! `peek_time` stays O(1) `&self`, which the event-driven engine's
//! `next_activity_time()` relies on.
//!
//! Pop order is exactly the `(time, seq)` total order of a binary heap
//! for any insert sequence (enforced by a differential property test
//! against a test-local `BinaryHeap` model), so runs, golden traces and
//! checkpoints do not depend on the wheel's internal layout.

use std::cmp::Reverse;

use crate::time::Time;

/// Log2 of the near-wheel tick in nanoseconds: 2^20 ns ≈ 1.05 ms ≈ 1 TTI.
const TICK_SHIFT: u32 = 20;
/// Near wheel: 256 one-tick slots (≈ 268 ms span).
const L0_BITS: u32 = 8;
const L0_SLOTS: usize = 1 << L0_BITS;
/// Mid wheel: 64 slots of 2^8 ticks (≈ 17.2 s span).
const L1_BITS: u32 = 6;
const L1_SLOTS: usize = 1 << L1_BITS;
/// Far wheel: 64 slots of 2^14 ticks (≈ 18.3 min span).
const L2_BITS: u32 = 6;
const L2_SLOTS: usize = 1 << L2_BITS;

#[inline]
fn tick_of(t: Time) -> u64 {
    t.0 >> TICK_SHIFT
}

/// First set bit at or after `from` in a 256-bit occupancy mask, or `None`.
fn scan256(occ: &[u64; 4], from: usize, upto: usize) -> Option<usize> {
    let mut pos = from;
    while pos < upto {
        let word = pos >> 6;
        let masked = occ[word] & (u64::MAX << (pos & 63));
        if masked != 0 {
            let hit = (word << 6) + masked.trailing_zeros() as usize;
            if hit < upto {
                return Some(hit);
            }
            return None;
        }
        pos = (word + 1) << 6;
    }
    None
}

/// First set bit at or after `from` in a 64-bit occupancy mask, or `None`.
fn scan64(occ: u64, from: usize, upto: usize) -> Option<usize> {
    if from >= 64 {
        return None;
    }
    let masked = occ & (u64::MAX << from);
    if masked != 0 {
        let hit = masked.trailing_zeros() as usize;
        if hit < upto {
            return Some(hit);
        }
    }
    None
}

/// Hierarchical timer wheel holding `(Time, seq, E)` entries.
///
/// The cursor `cur` is a tick: every entry with `tick <= cur` has been
/// moved to `drain` (or popped); every entry still in a level or the
/// overflow list has `tick > cur`. The cursor advances one 256-tick
/// window at a time (fast-skipping provably empty stretches), cascading
/// each coarse slot exactly when its window becomes current — so a slot
/// never mixes epochs and two entries with the same tick can never sit
/// at different levels once either is drainable. Pop order is therefore
/// exactly the heap's `(time, seq)` order (enforced by a differential
/// property test).
///
/// Invariants:
///
/// * `drain` is sorted **descending** by `(time, seq)` — the minimum is
///   at the end, so pop and peek are O(1).
/// * Level-0 holds ticks in `[cur + 1, cur + 256]`, level-1 windows
///   `tick >> 8` in `[cur>>8 + 1, cur>>8 + 64]`, level-2 windows
///   `tick >> 14` in `[cur>>14 + 1, cur>>14 + 64]`, overflow beyond.
///   Each range is a run of consecutive values, so slot indexing
///   (`value % slots`) is collision-free.
/// * After any `&mut` operation, `drain` is non-empty whenever the queue
///   is non-empty (so `peek_time` can stay `&self`).
#[derive(Debug)]
struct Wheel<E> {
    drain: Vec<(Time, u64, E)>,
    slots0: Vec<Vec<(Time, u64, E)>>,
    occ0: [u64; 4],
    slots1: Vec<Vec<(Time, u64, E)>>,
    occ1: u64,
    slots2: Vec<Vec<(Time, u64, E)>>,
    occ2: u64,
    overflow: Vec<(Time, u64, E)>,
    overflow_min_tick: u64,
    cur: u64,
    /// First 256-aligned boundary whose cascade has *not* run yet. The
    /// drainable level-0 range is `(cur, window_end)`; invariant
    /// `cur < window_end <= cur + 257`.
    window_end: u64,
    /// Entries in slots + overflow (excludes `drain`).
    in_wheels: usize,
}

impl<E> Wheel<E> {
    fn new() -> Wheel<E> {
        let mut slots0 = Vec::new();
        slots0.resize_with(L0_SLOTS, Vec::new);
        let mut slots1 = Vec::new();
        slots1.resize_with(L1_SLOTS, Vec::new);
        let mut slots2 = Vec::new();
        slots2.resize_with(L2_SLOTS, Vec::new);
        Wheel {
            drain: Vec::new(),
            slots0,
            occ0: [0; 4],
            slots1,
            occ1: 0,
            slots2,
            occ2: 0,
            overflow: Vec::new(),
            overflow_min_tick: u64::MAX,
            cur: 0,
            window_end: L0_SLOTS as u64,
            in_wheels: 0,
        }
    }

    fn len(&self) -> usize {
        self.drain.len() + self.in_wheels
    }

    fn schedule(&mut self, at: Time, seq: u64, event: E) {
        if tick_of(at) <= self.cur {
            // Due now (or scheduled "in the past" relative to the wheel
            // cursor, which the engine is allowed to do): keep the drain
            // buffer sorted with a binary insert.
            let key = (at, seq);
            let pos = self.drain.partition_point(|&(t, s, _)| (t, s) > key);
            self.drain.insert(pos, (at, seq, event));
        } else {
            self.insert_levels(at, seq, event);
            if self.drain.is_empty() {
                self.refill();
            }
        }
    }

    /// Place an entry with `tick > cur` into the right level.
    fn insert_levels(&mut self, at: Time, seq: u64, event: E) {
        let tk = tick_of(at);
        debug_assert!(tk > self.cur);
        self.in_wheels += 1;
        if tk - self.cur <= L0_SLOTS as u64 {
            let s = (tk % L0_SLOTS as u64) as usize;
            self.slots0[s].push((at, seq, event));
            self.occ0[s >> 6] |= 1 << (s & 63);
            return;
        }
        let t1 = tk >> L0_BITS;
        if t1 - (self.cur >> L0_BITS) <= L1_SLOTS as u64 {
            let s = (t1 % L1_SLOTS as u64) as usize;
            self.slots1[s].push((at, seq, event));
            self.occ1 |= 1 << s;
            return;
        }
        let t2 = tk >> (L0_BITS + L1_BITS);
        if t2 - (self.cur >> (L0_BITS + L1_BITS)) <= L2_SLOTS as u64 {
            let s = (t2 % L2_SLOTS as u64) as usize;
            self.slots2[s].push((at, seq, event));
            self.occ2 |= 1 << s;
            return;
        }
        self.overflow_min_tick = self.overflow_min_tick.min(tk);
        self.overflow.push((at, seq, event));
    }

    /// Earliest occupied level-0 tick inside the current window, i.e. in
    /// `(cur, window_end)`. Level-0 ticks at or past `window_end` are not
    /// drainable until that boundary's cascade runs: a coarse slot
    /// cascading there may hold earlier `(time, seq)` keys for the same
    /// ticks.
    fn next_l0_in_window(&self) -> Option<u64> {
        let block = self.window_end - L0_SLOTS as u64;
        // Drainable ticks T satisfy cur < T < window_end, so their slot
        // index T % 256 == T - block lies in [cur + 1 - block, 256); any
        // level-0 tick at or past window_end wraps to an index below
        // that range and is skipped.
        let lo = (self.cur + 1 - block) as usize;
        scan256(&self.occ0, lo, L0_SLOTS).map(|p| block + p as u64)
    }

    /// Earliest occupied mid-wheel window (absolute `tick >> 8`), if any.
    /// Windows live in `[cur>>8 + 1, cur>>8 + 64]`, so the start slot
    /// position maps to distance 64, not 0.
    fn min_l1_slot(&self) -> Option<u64> {
        let o1 = self.cur >> L0_BITS;
        let start = (o1 % L1_SLOTS as u64) as usize;
        if let Some(p) = scan64(self.occ1, start + 1, L1_SLOTS) {
            return Some(o1 + (p - start) as u64);
        }
        scan64(self.occ1, 0, start + 1).map(|p| o1 + (p + L1_SLOTS - start) as u64)
    }

    /// Earliest occupied far-wheel window (absolute `tick >> 14`), if any.
    fn min_l2_slot(&self) -> Option<u64> {
        let o2 = self.cur >> (L0_BITS + L1_BITS);
        let start = (o2 % L2_SLOTS as u64) as usize;
        if let Some(p) = scan64(self.occ2, start + 1, L2_SLOTS) {
            return Some(o2 + (p - start) as u64);
        }
        scan64(self.occ2, 0, start + 1).map(|p| o2 + (p + L2_SLOTS - start) as u64)
    }

    /// Cascade the mid-wheel slot whose window starts at the 256-aligned
    /// boundary `b` down into level 0 (the cursor sits at `b - 1`).
    fn cascade_l1(&mut self, b: u64) {
        let s = ((b >> L0_BITS) % L1_SLOTS as u64) as usize;
        if self.occ1 & (1 << s) == 0 {
            return;
        }
        self.occ1 &= !(1 << s);
        let mut slot = std::mem::take(&mut self.slots1[s]);
        self.in_wheels -= slot.len();
        for (at, seq, e) in slot.drain(..) {
            self.insert_levels(at, seq, e);
        }
        self.slots1[s] = slot; // retains capacity for reuse
    }

    /// Cascade the far-wheel slot whose window starts at the
    /// 2^14-tick-aligned boundary `b` down into levels 1/0.
    fn cascade_l2(&mut self, b: u64) {
        let s = ((b >> (L0_BITS + L1_BITS)) % L2_SLOTS as u64) as usize;
        if self.occ2 & (1 << s) == 0 {
            return;
        }
        self.occ2 &= !(1 << s);
        let mut slot = std::mem::take(&mut self.slots2[s]);
        self.in_wheels -= slot.len();
        for (at, seq, e) in slot.drain(..) {
            self.insert_levels(at, seq, e);
        }
        self.slots2[s] = slot;
    }

    /// Pull overflow entries that fit the far-wheel horizon back into the
    /// levels. Runs whenever the cursor crosses a 2^20-tick boundary.
    fn refill_overflow(&mut self) {
        if self.overflow.is_empty() {
            return;
        }
        let o2 = self.cur >> (L0_BITS + L1_BITS);
        let mut remaining_min = u64::MAX;
        let mut i = 0;
        while i < self.overflow.len() {
            let tk = tick_of(self.overflow[i].0);
            if (tk >> (L0_BITS + L1_BITS)) - o2 <= L2_SLOTS as u64 {
                let (at, seq, e) = self.overflow.swap_remove(i);
                self.in_wheels -= 1;
                self.insert_levels(at, seq, e);
            } else {
                remaining_min = remaining_min.min(tk);
                i += 1;
            }
        }
        self.overflow_min_tick = remaining_min;
    }

    /// Move the earliest remaining events into the drain buffer. Called
    /// whenever the drain empties while the wheels still hold entries.
    fn refill(&mut self) {
        const L2_LOG: u32 = L0_BITS + L1_BITS + L2_BITS;
        const L2_SPAN: u64 = 1 << L2_LOG; // ticks per full far-wheel turn
        const L1_SPAN: u64 = 1 << (L0_BITS + L1_BITS);
        const L0_SPAN: u64 = 1 << L0_BITS;
        while self.drain.is_empty() && self.in_wheels > 0 {
            // 1. Drain the next occupied level-0 slot before the window
            //    boundary; `append` leaves the slot's capacity in place.
            if let Some(tk) = self.next_l0_in_window() {
                self.cur = tk;
                let s = (tk % L0_SLOTS as u64) as usize;
                self.occ0[s >> 6] &= !(1 << (s & 63));
                self.in_wheels -= self.slots0[s].len();
                let slot = &mut self.slots0[s];
                self.drain.append(slot);
                continue;
            }
            // 2. Nothing due in the current window: enter the next one,
            //    cascading the coarse slots whose windows start there.
            //    When level 0 is completely empty, fast-skip straight to
            //    the earliest occupied coarse window (everything between
            //    is provably empty, so skipped boundary cascades would
            //    have been no-ops).
            let mut b = self.window_end;
            if self.occ0 == [0; 4] {
                let mut cand = u64::MAX;
                if let Some(t1) = self.min_l1_slot() {
                    cand = cand.min(t1 << L0_BITS);
                }
                if let Some(t2) = self.min_l2_slot() {
                    cand = cand.min(t2 << (L0_BITS + L1_BITS));
                }
                if !self.overflow.is_empty() {
                    // Overflow pulls in only at 2^20-tick boundaries.
                    cand = cand.min(((self.cur >> L2_LOG) + 1) << L2_LOG);
                }
                debug_assert!(cand != u64::MAX, "in_wheels > 0 but no candidate");
                b = cand.max(self.window_end);
            }
            self.cur = b - 1;
            self.window_end = b + L0_SPAN;
            if b & (L2_SPAN - 1) == 0 {
                self.refill_overflow();
            }
            if b & (L1_SPAN - 1) == 0 {
                self.cascade_l2(b);
            }
            self.cascade_l1(b);
        }
        // Descending, so the earliest (time, seq) pops from the end.
        self.drain.sort_by_key(|e| Reverse((e.0, e.1)));
    }

    fn peek(&self) -> Option<(Time, u64)> {
        self.drain.last().map(|&(t, s, _)| (t, s))
    }

    fn pop(&mut self) -> Option<(Time, u64, E)> {
        let out = self.drain.pop();
        if self.drain.is_empty() && self.in_wheels > 0 {
            self.refill();
        }
        out
    }

    fn iter(&self) -> impl Iterator<Item = (Time, u64, &E)> {
        self.drain
            .iter()
            .chain(self.slots0.iter().flatten())
            .chain(self.slots1.iter().flatten())
            .chain(self.slots2.iter().flatten())
            .chain(self.overflow.iter())
            .map(|(t, s, e)| (*t, *s, e))
    }
}

/// Priority queue of `(Time, E)` pairs, popping earliest-first and FIFO
/// within an instant.
#[derive(Debug)]
pub struct EventQueue<E> {
    wheel: Wheel<E>,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            wheel: Wheel::new(),
            seq: 0,
        }
    }

    /// Schedule `event` at `at`.
    pub fn schedule(&mut self, at: Time, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.wheel.schedule(at, seq, event);
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.wheel.peek().map(|(t, _)| t)
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.wheel.pop().map(|(t, _, e)| (t, e))
    }

    /// Pop the earliest event only if it is due at or before `now`.
    pub fn pop_due(&mut self, now: Time) -> Option<(Time, E)> {
        match self.peek_time() {
            Some(t) if t <= now => self.pop(),
            _ => None,
        }
    }

    /// Current value of the insertion counter (checkpointing). The
    /// counter never resets, so restoring it keeps FIFO tie-breaking
    /// identical across a resume.
    pub fn seq_counter(&self) -> u64 {
        self.seq
    }

    /// Overwrite the insertion counter (checkpoint restore only).
    pub fn set_seq_counter(&mut self, seq: u64) {
        self.seq = seq;
    }

    /// Schedule with an explicit sequence number (checkpoint restore
    /// only — normal scheduling must go through [`EventQueue::schedule`]).
    pub fn schedule_with_seq(&mut self, at: Time, seq: u64, event: E) {
        self.wheel.schedule(at, seq, event);
    }

    /// All pending events in deterministic `(time, seq)` order, with
    /// their exact sequence numbers (checkpointing). The wheel's
    /// internal layout is not deterministic; the sorted view is.
    pub fn sorted_entries(&self) -> Vec<(Time, u64, &E)> {
        let mut out: Vec<(Time, u64, &E)> = self.wheel.iter().collect();
        out.sort_by_key(|&(t, seq, _)| (t, seq));
        out
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_millis(5), "c");
        q.schedule(Time::from_millis(1), "a");
        q.schedule(Time::from_millis(3), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        let t = Time::from_millis(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_millis(10), "later");
        q.schedule(Time::from_millis(1), "soon");
        assert_eq!(
            q.pop_due(Time::from_millis(5)).map(|(_, e)| e),
            Some("soon")
        );
        assert_eq!(q.pop_due(Time::from_millis(5)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(
            q.pop_due(Time::from_millis(10)).map(|(_, e)| e),
            Some("later")
        );
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(Time::from_millis(2), 0);
        q.schedule(Time::from_millis(2) + Dur::from_nanos(1), 1);
        assert_eq!(q.peek_time(), Some(Time::from_millis(2)));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, Time::from_millis(2));
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_sorted() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_millis(4), 4);
        q.schedule(Time::from_millis(2), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        q.schedule(Time::from_millis(1), 1); // earlier than remaining
        q.schedule(Time::from_millis(3), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 4);
    }

    #[test]
    fn wheel_cascades_across_all_levels() {
        // One event per level: near wheel, mid wheel, far wheel, overflow.
        let mut q = EventQueue::new();
        let near = Time::from_millis(5);
        let mid = Time::from_millis(2_000); // ~2 s: beyond the 268 ms near span
        let far = Time::from_millis(60_000); // ~1 min: beyond the 17 s mid span
        let beyond = Time::from_millis(7_200_000); // ~2 h: beyond the far span
        q.schedule(beyond, 3);
        q.schedule(far, 2);
        q.schedule(near, 0);
        q.schedule(mid, 1);
        assert_eq!(q.len(), 4);
        for want in 0..4 {
            let (_, e) = q.pop().unwrap();
            assert_eq!(e, want);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn wheel_interleaves_near_events_with_cascaded_far_events() {
        // A far event must not be drained before near events that land
        // inside its window after the cascade.
        let mut q = EventQueue::new();
        let far = Time::from_millis(30_000);
        q.schedule(far, 99);
        // Pop/refill so the cursor chases the far event, then schedule a
        // nearer one behind it.
        q.schedule(Time::from_millis(1), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule(far - Dur::from_nanos(1), 50);
        assert_eq!(q.pop().unwrap().1, 50);
        assert_eq!(q.pop().unwrap().1, 99);
    }
}
