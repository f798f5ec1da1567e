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
//! Two tiers. A near wheel of 64 one-TTI slots (≈ 67 ms) takes every
//! event scheduled a link delay ahead — packets, ACKs and STATUS PDUs,
//! which land 9–50 ms out in every configuration the figures run — with
//! O(1) amortized schedule/pop. The slots are index-linked lists in one
//! node store per queue, whose drained nodes go to a free list: the
//! store grows to the most entries the slots held at once, not to the
//! sum of each slot's largest burst, and once it has, the event path
//! does not allocate. One `BinaryHeap` takes
//! what lies further out (in practice, flow arrivals); it is pulled into
//! the near slots as the window advances, and jumped to directly when
//! the near wheel is empty. `peek_time` stays O(1) `&self`, which the
//! event-driven engine's `next_activity_time()` relies on. The heap gives
//! its capacity back as it drains — a day of arrivals scheduled up front
//! does not hold its peak allocation once the arrivals have fired.
//!
//! Pop order is exactly the `(time, seq)` total order of a binary heap
//! for any insert sequence (enforced by a differential property test
//! against a test-local `BinaryHeap` model), so runs, golden traces and
//! checkpoints do not depend on which tier holds an event.

use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::time::Time;

/// Log2 of the near-wheel tick in nanoseconds: 2^20 ns ≈ 1.05 ms ≈ 1 TTI.
const TICK_SHIFT: u32 = 20;
/// Near wheel: 64 one-tick slots (≈ 67 ms span), one bit each in `occ`.
const NEAR_SLOTS: u64 = 64;
/// The null node index: the end of a slot's list or of the free list.
const NIL: u32 = u32::MAX;

#[inline]
fn tick_of(t: Time) -> u64 {
    t.0 >> TICK_SHIFT
}

/// A node of the near tier's store: an entry and the next node of its
/// slot's list — or, with no entry, of the free list.
#[derive(Debug)]
struct Node<E> {
    entry: Option<(Time, u64, E)>,
    next: u32,
}

/// A heap entry, ordered on `(time, seq)` *reversed* so the max-heap
/// yields the earliest first. `seq` is unique: the payload never compares.
#[derive(Debug)]
struct Far<E>(Time, u64, E);

impl<E> PartialEq for Far<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.0, self.1) == (other.0, other.1)
    }
}
impl<E> Eq for Far<E> {}
impl<E> PartialOrd for Far<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Far<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.0, other.1).cmp(&(self.0, self.1))
    }
}

/// Priority queue of `(Time, E)` pairs, popping earliest-first and FIFO
/// within an instant.
///
/// The cursor `cur` is a tick: every entry with `tick <= cur` has been
/// moved to `drain` (or popped); every entry in a slot or the heap has
/// `tick > cur`. The cursor advances one 64-tick window at a time and
/// pulls the heap entries of each window into the slots as it enters, so
/// entries that share a tick share a slot before either is drainable.
///
/// Invariants:
///
/// * `drain` is sorted **descending** by `(time, seq)` — the minimum is
///   at the end, so pop and peek are O(1).
/// * The slots hold ticks in `[cur + 1, cur + 64]`, consecutive values,
///   so slot indexing (`tick % 64`) is collision-free; the heap holds
///   ticks at or past `window_end`.
/// * Slot `s`'s list runs from `head[s]` to `tail[s]` in insertion order
///   when bit `s` of `occ` is set (the two are stale otherwise); every
///   other node of `nodes` is on the free list.
/// * After any `&mut` operation, `drain` is non-empty whenever the queue
///   is non-empty (so `peek_time` can stay `&self`).
#[derive(Debug)]
pub struct EventQueue<E> {
    drain: Vec<(Time, u64, E)>,
    /// The near tier's node store. It grows only when the free list is
    /// empty, so its length is the most entries the slots held at once.
    nodes: Vec<Node<E>>,
    head: [u32; NEAR_SLOTS as usize],
    tail: [u32; NEAR_SLOTS as usize],
    /// First node of the free list.
    free: u32,
    occ: u64,
    /// Entries in the slots (excludes `drain`).
    in_near: usize,
    far: BinaryHeap<Far<E>>,
    cur: u64,
    /// First 64-aligned boundary whose heap entries have *not* been
    /// pulled yet. The drainable slot range is `(cur, window_end)`;
    /// invariant `cur < window_end <= cur + 65`.
    window_end: u64,
    /// Entries ever pushed onto the heap (never serialized).
    far_pushes: u64,
    /// The insertion counter: the next `seq`.
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
            drain: Vec::new(),
            nodes: Vec::new(),
            head: [NIL; NEAR_SLOTS as usize],
            tail: [NIL; NEAR_SLOTS as usize],
            free: NIL,
            occ: 0,
            in_near: 0,
            far: BinaryHeap::new(),
            cur: 0,
            window_end: NEAR_SLOTS,
            far_pushes: 0,
            seq: 0,
        }
    }

    /// Schedule `event` at `at`.
    pub fn schedule(&mut self, at: Time, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.schedule_with_seq(at, seq, event);
    }

    /// Schedule with an explicit sequence number (checkpoint restore
    /// only — normal scheduling must go through [`EventQueue::schedule`]).
    pub fn schedule_with_seq(&mut self, at: Time, seq: u64, event: E) {
        let tk = tick_of(at);
        if tk <= self.cur {
            // Due now (or scheduled "in the past" relative to the wheel
            // cursor, which the engine is allowed to do): keep the drain
            // buffer sorted with a binary insert.
            let pos = self.drain.partition_point(|&(t, s, _)| (t, s) > (at, seq));
            self.drain.insert(pos, (at, seq, event));
        } else if self.is_empty() {
            // An empty queue has no window to keep: re-base the cursor, so
            // a queue that ran dry while the clock moved on never sends a
            // link-delay event to the heap.
            self.cur = tk;
            self.window_end = (tk & !(NEAR_SLOTS - 1)) + NEAR_SLOTS;
            self.drain.push((at, seq, event));
        } else if tk - self.cur <= NEAR_SLOTS {
            // Non-empty, so `drain` is too: no refill.
            self.push_near(at, seq, event);
        } else {
            self.far_pushes += 1;
            self.far.push(Far(at, seq, event));
        }
    }

    /// Place an entry with `tick` in `(cur, cur + 64]` into its slot.
    fn push_near(&mut self, at: Time, seq: u64, event: E) {
        debug_assert!(tick_of(at) > self.cur && tick_of(at) - self.cur <= NEAR_SLOTS);
        let node = Node {
            entry: Some((at, seq, event)),
            next: NIL,
        };
        let mut i = self.free;
        if let Some(free) = self.nodes.get_mut(i as usize) {
            self.free = free.next;
            *free = node;
        } else {
            // Grow by doubling, exactly: the capacity stays within twice
            // the high water.
            if self.nodes.len() == self.nodes.capacity() {
                self.nodes.reserve_exact(self.nodes.len().max(1));
            }
            // A queue never holds 2^32 - 1 near entries.
            i = self.nodes.len() as u32;
            self.nodes.push(node);
        }
        let s = (tick_of(at) % NEAR_SLOTS) as usize;
        if self.occ & (1 << s) == 0 {
            self.head[s] = i;
        } else {
            self.nodes[self.tail[s] as usize].next = i;
        }
        self.tail[s] = i;
        self.occ |= 1 << s;
        self.in_near += 1;
    }

    /// Earliest occupied tick in `(cur, window_end)`. Slot ticks at or
    /// past `window_end` wait for the window to advance: the heap may
    /// hold earlier `(time, seq)` keys for the same ticks.
    fn next_near_in_window(&self) -> Option<u64> {
        // A tick T of the window has slot index T - block, at least
        // cur + 1 - block; ticks past window_end wrap below that.
        let block = self.window_end - NEAR_SLOTS;
        let lo = (self.cur + 1 - block) as u32;
        let masked = self.occ & u64::MAX.checked_shl(lo).unwrap_or(0);
        (masked != 0).then(|| block + masked.trailing_zeros() as u64)
    }

    /// Move the earliest remaining events into the drain buffer. Called
    /// whenever the drain empties.
    fn refill(&mut self) {
        while self.drain.is_empty() && self.in_near + self.far.len() > 0 {
            // 1. Drain the next occupied slot of the window (into the
            //    empty drain, so it holds exactly the slot's entries),
            //    then put its whole list on the free list.
            if let Some(tk) = self.next_near_in_window() {
                self.cur = tk;
                let s = (tk % NEAR_SLOTS) as usize;
                self.occ &= !(1 << s);
                let mut i = self.head[s];
                while let Some(node) = self.nodes.get_mut(i as usize) {
                    if let Some(e) = node.entry.take() {
                        self.drain.push(e);
                    }
                    i = node.next;
                }
                self.nodes[self.tail[s] as usize].next = self.free;
                self.free = self.head[s];
                self.in_near -= self.drain.len();
                continue;
            }
            // 2. Enter the next window — with the slots empty, the heap's
            //    earliest (all between is provably empty) — and pull its
            //    heap entries in.
            let mut b = self.window_end;
            if self.occ == 0 {
                let earliest = self.far.peek().map_or(b, |f| tick_of(f.0));
                b = b.max(earliest & !(NEAR_SLOTS - 1));
            }
            self.cur = b - 1;
            self.window_end = b + NEAR_SLOTS;
            let window_end = self.window_end;
            loop {
                let top = self.far.peek_mut();
                let Some(top) = top.filter(|f| tick_of(f.0) < window_end) else {
                    break;
                };
                let Far(at, seq, e) = PeekMut::pop(top);
                self.push_near(at, seq, e);
            }
            // Less than a quarter in use: shrink to twice the length,
            // so each reallocation is paid for by the pops before it.
            if 4 * self.far.len() < self.far.capacity() {
                self.far.shrink_to(2 * self.far.len());
            }
        }
        // Descending, so the earliest (time, seq) pops from the end.
        self.drain.sort_by_key(|e| Reverse((e.0, e.1)));
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.drain.last().map(|e| e.0)
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let out = self.drain.pop();
        if self.drain.is_empty() {
            self.refill();
        }
        out.map(|(t, _, e)| (t, e))
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

    /// All pending events in deterministic `(time, seq)` order, with
    /// their exact sequence numbers (checkpointing). Which tier holds an
    /// entry depends on the queue's history; the sorted view does not.
    pub fn sorted_entries(&self) -> Vec<(Time, u64, &E)> {
        let slots = self.nodes.iter().filter_map(|n| n.entry.as_ref());
        let near = self.drain.iter().chain(slots);
        let far = self.far.iter().map(|Far(t, s, e)| (*t, *s, e));
        let mut out: Vec<(Time, u64, &E)> = near.map(|(t, s, e)| (*t, *s, e)).chain(far).collect();
        out.sort_by_key(|&(t, seq, _)| (t, seq));
        out
    }

    /// Events this queue has sent to its heap — a deterministic work
    /// counter, not serialized: a restored queue counts from its restore.
    #[doc(hidden)]
    pub fn far_pushes(&self) -> u64 {
        self.far_pushes
    }

    /// `(len, capacity)` of the heap tier — a memory probe for tests.
    #[doc(hidden)]
    pub fn far_footprint(&self) -> (usize, usize) {
        (self.far.len(), self.far.capacity())
    }

    /// `(high water, capacity)` of the near tier's node store: the most
    /// entries the slots held at once, and what the store allocated for
    /// them — a memory probe for tests.
    #[doc(hidden)]
    pub fn near_footprint(&self) -> (usize, usize) {
        (self.nodes.len(), self.nodes.capacity())
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.drain.len() + self.in_near + self.far.len()
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
    fn wheel_sends_only_the_far_span_to_the_heap() {
        // Near (inside the 64-tick span), just past it, ~2 s and ~2 h
        // out: the last three go to the heap, and all pop in order.
        let mut q = EventQueue::new();
        q.schedule(Time::from_millis(1), 0);
        let near = Time::from_millis(40);
        let past_span = Time::from_millis(80);
        let far = Time::from_millis(2_000);
        let beyond = Time::from_millis(7_200_000);
        q.schedule(beyond, 4);
        q.schedule(far, 3);
        q.schedule(near, 1);
        q.schedule(past_span, 2);
        assert_eq!((q.len(), q.far_pushes()), (5, 3));
        for want in 0..5 {
            assert_eq!(q.pop().unwrap().1, want);
        }
        assert!(q.is_empty());
        // A queue that ran dry re-bases on its next event: a link delay
        // ahead of a clock that moved on is near, not far.
        q.schedule(Time::from_millis(9_000_025), 5);
        q.schedule(Time::from_millis(9_000_050), 6);
        assert_eq!(q.far_pushes(), 3);
        assert_eq!((q.pop().unwrap().1, q.pop().unwrap().1), (5, 6));
    }

    #[test]
    fn wheel_merges_pulled_heap_entries_with_near_ones_on_shared_ticks() {
        // Entries in a near slot past `window_end` share tick 100 with
        // heap entries scheduled before the cursor came within range:
        // the pull at the window edge merges them in `(time, seq)` order.
        let at = |tick: u64, ns: u64| Time((tick << TICK_SHIFT) + ns);
        let mut q = EventQueue::new();
        q.schedule(at(0, 0), 0);
        q.schedule(at(100, 500), 3); // 100 ticks out: heap
        q.schedule(at(100, 900), 5);
        q.schedule(at(50, 0), 1);
        assert_eq!(q.pop().unwrap().1, 0); // the cursor moves to tick 50
        q.schedule(at(100, 100), 2); // 50 ticks out: near, past window_end
        q.schedule(at(100, 500), 4); // ties the heap's 3, later seq
        assert_eq!(q.far_pushes(), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
        // A near wheel that empties jumps straight to the heap's window.
        let far = Time::from_millis(30_000);
        q.schedule(Time::from_millis(1), 6);
        q.schedule(far, 8);
        assert_eq!(q.pop().unwrap().1, 6);
        q.schedule(far - Dur::from_nanos(1), 7);
        assert_eq!((q.pop().unwrap().1, q.pop().unwrap().1), (7, 8));
        assert_eq!(q.far_pushes(), 3);
    }

    #[test]
    fn near_slots_share_one_node_store() {
        // 40 events on each of the 64 slots in turn, behind one event due
        // first (a queue that ran dry would re-base onto the burst's
        // tick), never more than 41 pending: 64 per-slot buffers would
        // each keep 40 entries, the one store keeps 40 in all.
        let mut q = EventQueue::new();
        for tick in 1..=256u64 {
            q.schedule(Time(tick << TICK_SHIFT), 0);
            for i in 1..=40 {
                q.schedule(Time((tick + 5) << TICK_SHIFT), i);
            }
            for want in 0..=40 {
                assert_eq!(q.pop().unwrap().1, want);
            }
        }
        assert!(q.is_empty());
        let (high_water, cap) = q.near_footprint();
        assert!(
            high_water == 40 && cap <= 2 * high_water,
            "{high_water} / {cap}"
        );
    }

    #[test]
    fn far_heap_gives_capacity_back_as_it_drains() {
        // 10 000 arrivals scheduled up front, one every 3 ms past the
        // near span, all go to the heap; draining them must not keep the
        // peak allocation.
        let mut q = EventQueue::new();
        q.schedule(Time::ZERO, 0);
        for i in 1..=10_000u64 {
            q.schedule(Time::from_millis(100 + 3 * i), i);
        }
        let (len, cap) = q.far_footprint();
        assert!(len == 10_000 && cap >= len, "{len} / {cap}");
        for want in 0..=10_000u64 {
            assert_eq!(q.pop().unwrap().1, want);
            let (len, cap) = q.far_footprint();
            assert!(cap <= 4 * len, "after pop {want}: {len} in {cap}");
        }
        assert_eq!(q.far_footprint(), (0, 0));
    }
}
