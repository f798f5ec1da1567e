//! Differential property test: the two-tier event queue (a 64-slot near
//! wheel on one node store plus a far `BinaryHeap`) must pop in exactly the `(time, seq)`
//! order of a `BinaryHeap` reference model for arbitrary interleavings
//! of schedules and pops — including same-instant bursts, exact tick
//! boundaries, heap entries pulled in at a window edge onto ticks the
//! near slots already hold, horizons hours out, and scheduling "in the
//! past" relative to the wheel cursor.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use outran_simcore::{Dur, EventQueue, Rng, Time};

/// Reference model: a `BinaryHeap` keyed on `(time, seq)` — the order
/// the wheel must reproduce. `seq` is unique, so the payload never
/// takes part in a comparison.
#[derive(Default)]
struct HeapModel<E: Ord> {
    heap: BinaryHeap<Reverse<(Time, u64, E)>>,
    seq: u64,
}

impl<E: Ord> HeapModel<E> {
    fn schedule(&mut self, at: Time, event: E) {
        self.heap.push(Reverse((at, self.seq, event)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|Reverse((t, _, e))| (t, e))
    }

    fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// One tick of the near wheel in nanoseconds (2^20 ≈ 1.05 ms).
const TICK: u64 = 1 << 20;

/// Time horizons that exercise both tiers: inside the 64-tick near span
/// (≈ 67 ms), just past it (so heap entries reach the near window a few
/// ticks after they were pushed), and hours out.
const HORIZONS: [u64; 3] = [
    40 * TICK,
    90 * TICK,         // just past the near span
    40_000_000 * TICK, // ~11.7 h
];

fn drive(rng: &mut Rng, ops: u64, pop_bias: f64) {
    let mut wheel: EventQueue<u32> = EventQueue::new();
    let mut heap: HeapModel<u32> = HeapModel::default();
    let mut now = Time::ZERO;
    let mut payload = 0u32;
    for _ in 0..ops {
        if rng.chance(pop_bias) {
            let a = wheel.pop();
            let b = heap.pop();
            assert_eq!(a, b);
            if let Some((t, _)) = a {
                // The engine never travels backwards.
                now = now.max(t);
            }
        } else {
            let h = HORIZONS[rng.index(HORIZONS.len())];
            let mut at = now + Dur::from_nanos(rng.below(h));
            if rng.chance(0.25) {
                // Snap to an exact tick boundary (slot-edge case).
                at = Time(at.0 - at.0 % TICK);
            }
            if rng.chance(0.15) {
                // Schedule in the past relative to the popped frontier.
                at = Time(now.0.saturating_sub(rng.below(2 * TICK)));
            }
            let burst = if rng.chance(0.2) { 1 + rng.below(8) } else { 1 };
            for _ in 0..burst {
                wheel.schedule(at, payload);
                heap.schedule(at, payload);
                payload += 1;
            }
        }
        assert_eq!(wheel.len(), heap.len());
        assert_eq!(wheel.peek_time(), heap.peek_time());
    }
    // Drain to empty: every heap entry is pulled in on the way.
    loop {
        let a = wheel.pop();
        let b = heap.pop();
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
    assert!(wheel.is_empty() && heap.len() == 0);
}

#[test]
fn wheel_pops_match_heap() {
    outran_simcore::check("wheel_pops_match_heap", 48, |rng| {
        let ops = 50 + rng.below(550);
        let pop_bias = rng.range_f64(0.2, 0.8);
        drive(rng, ops, pop_bias);
    });
}

/// Same-instant bursts and exact tick boundaries (multiples of 2^20 ns)
/// scattered deterministically over ~18 s.
#[test]
fn wheel_matches_heap_on_dense_same_tick_bursts() {
    let mut wheel: EventQueue<u64> = EventQueue::new();
    let mut heap: HeapModel<u64> = HeapModel::default();
    let mut t = 0u64;
    for i in 0..2_000u64 {
        t = (t.wrapping_mul(6364136223846793005).wrapping_add(i)) % (1 << 34);
        let at = Time(t - t % if i % 3 == 0 { TICK } else { 1 });
        wheel.schedule(at, i);
        heap.schedule(at, i);
    }
    loop {
        let a = wheel.pop();
        assert_eq!(a, heap.pop());
        if a.is_none() {
            break;
        }
    }
}

/// The checkpoint view — sorted entries plus the insertion counter —
/// carries exactly the model's `(time, seq)` contents, independent of
/// which tier happens to hold each entry.
#[test]
fn sorted_entries_match_the_model() {
    let mut rng = Rng::new(7);
    let mut wheel: EventQueue<u64> = EventQueue::new();
    let mut heap: HeapModel<u64> = HeapModel::default();
    for i in 0..500 {
        let at = Time(rng.below(HORIZONS[(i % 3) as usize]));
        wheel.schedule(at, i);
        heap.schedule(at, i);
        if i % 7 == 0 {
            assert_eq!(wheel.pop(), heap.pop());
        }
    }
    let w: Vec<(Time, u64, u64)> = wheel
        .sorted_entries()
        .into_iter()
        .map(|(t, s, e)| (t, s, *e))
        .collect();
    let h: Vec<(Time, u64, u64)> = heap
        .heap
        .into_sorted_vec()
        .into_iter()
        .rev()
        .map(|Reverse(k)| k)
        .collect();
    assert_eq!(w, h);
    assert_eq!(wheel.seq_counter(), heap.seq);
}

/// A cursor that crawls a tick or two at a time while every schedule
/// lands 56–72 ticks ahead: each tick is first reached by heap pushes
/// (more than 64 ticks out) and later by near-slot entries that sit past
/// `window_end` until the window advances and the heap entries are
/// pulled onto the same ticks — ties at the same instant included.
#[test]
fn near_entries_past_window_end_merge_with_heap_entries_on_shared_ticks() {
    let mut rng = Rng::new(11);
    let mut wheel: EventQueue<u64> = EventQueue::new();
    let mut heap: HeapModel<u64> = HeapModel::default();
    let mut now = Time::ZERO;
    wheel.schedule(now, 0);
    heap.schedule(now, 0);
    for i in 1..20_000u64 {
        if i % 3 == 0 {
            let a = wheel.pop();
            assert_eq!(a, heap.pop());
            now = a.map_or(now, |(t, _)| t);
        } else {
            // Few distinct instants per tick, so same-instant ties recur.
            let ticks = 56 + rng.below(17);
            let at = Time(((now.0 >> 20) + ticks) << 20) + Dur::from_nanos(rng.below(4) << 18);
            wheel.schedule(at, i);
            heap.schedule(at, i);
        }
        assert_eq!(wheel.peek_time(), heap.peek_time());
    }
    let pushes = wheel.far_pushes();
    assert!(pushes > 1_000 && pushes < 12_000, "{pushes} heap pushes");
    loop {
        let a = wheel.pop();
        assert_eq!(a, heap.pop());
        if a.is_none() {
            break;
        }
    }
}

/// Bursts of 200–400 events on one tick, drained with schedules onto
/// other ticks interleaved, over and over: the order still matches the
/// model, and the near tier's one node store recycles the drained nodes
/// — its capacity stays within twice the most entries it held at once.
#[test]
fn same_tick_bursts_recycle_the_near_store() {
    let mut rng = Rng::new(13);
    let mut wheel: EventQueue<u64> = EventQueue::new();
    let mut heap: HeapModel<u64> = HeapModel::default();
    let mut now = Time::ZERO;
    let mut payload = 0u64;
    let mut live_high_water = 0;
    for _ in 0..40 {
        // One tick 2–60 ticks ahead takes the whole burst, behind an
        // event due now (a queue that ran dry re-bases onto its next
        // event's tick, and the burst would skip the slots).
        wheel.schedule(now, payload);
        heap.schedule(now, payload);
        payload += 1;
        let tick = (now.0 >> 20) + 2 + rng.below(59);
        for _ in 0..200 + rng.below(201) {
            let at = Time((tick << 20) + rng.below(TICK));
            wheel.schedule(at, payload);
            heap.schedule(at, payload);
            payload += 1;
        }
        while heap.len() > 0 {
            let a = wheel.pop();
            assert_eq!(a, heap.pop());
            now = a.map_or(now, |(t, _)| t);
            if rng.chance(0.1) {
                // A few stragglers onto other near ticks, each popped
                // with the rest before the next burst.
                let at = now + Dur::from_nanos(rng.below(50 * TICK));
                wheel.schedule(at, payload);
                heap.schedule(at, payload);
                payload += 1;
            }
            live_high_water = live_high_water.max(heap.len());
            assert_eq!(wheel.peek_time(), heap.peek_time());
        }
    }
    let (high_water, cap) = wheel.near_footprint();
    assert!(
        (200..=live_high_water).contains(&high_water) && cap <= 2 * high_water,
        "near store {high_water} / {cap}, live high water {live_high_water}"
    );
}
