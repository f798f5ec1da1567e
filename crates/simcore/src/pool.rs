//! Recycled-memory primitives for the zero-allocation steady state.
//!
//! The dense-cell hot loop used to allocate a handful of short-lived
//! containers every TTI (RLC pull vectors, HARQ payloads, TCP emit
//! batches). Each is tiny, but at metro scale (100+ cells × thousands
//! of TTIs/s) the allocator traffic dominates the SoA kernels the
//! pipeline actually runs. This module provides the three recycling
//! shapes the simulator needs, all `std`-only and `forbid(unsafe)`:
//!
//! * [`VecPool<T>`] — recycles `Vec<T>` containers with their capacity
//!   retained, for buffers whose *ownership travels* across stages
//!   (e.g. a HARQ payload built in PHY-transmit and consumed by
//!   delivery several TTIs later).
//! * [`BufPool`] — recycles byte buffers in power-of-two size classes,
//!   for wire-image scratch (header builds, snapshot I/O staging).
//! * [`Slab<T>`] — a generation-checked arena: stable handles, O(1)
//!   insert/remove, and stale handles that *fail closed* (return
//!   `None`) instead of aliasing a recycled slot.
//!
//! Every pool counts its traffic in a [`PoolStats`]: a **hit** is a
//! take served from recycled memory, a **miss** is a take that had to
//! allocate. The steady-state invariant the benches enforce is
//! *misses-after-warmup == 0*: once a dense cell has seen its deepest
//! backlog, every per-TTI container is served from the pool and the
//! heap is never touched again. Pools are deliberately **not**
//! serialized by checkpoints — they are a performance artifact, not
//! simulation state — and are rebuilt empty on restore
//! (construct-then-overlay), which the checkpoint tests pin down.

use std::mem;

/// Traffic counters for one pool. Deltas across a measurement window
/// give allocations-saved (`hits`) and the steady-state invariant
/// (`misses` delta == 0 after warmup).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Takes served from recycled memory (allocations avoided).
    pub hits: u64,
    /// Takes that had to allocate (pool empty, or class too small).
    pub misses: u64,
    /// Buffers handed back for reuse.
    pub returns: u64,
    /// Largest number of buffers ever resident in the pool at once.
    pub high_water: u64,
}

impl PoolStats {
    /// Fold another pool's counters into this one (cell-level rollup).
    pub fn merge(&mut self, other: &PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.returns += other.returns;
        self.high_water += other.high_water;
    }

    /// Counter-wise difference versus an earlier snapshot of the same
    /// pool (`high_water` is a level, not a flow, and is kept as-is).
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            returns: self.returns - earlier.returns,
            high_water: self.high_water,
        }
    }
}

/// A recycler for `Vec<T>` containers whose ownership travels.
///
/// `take` pops a previously returned (empty, capacity-retaining)
/// vector, or allocates a fresh empty one on a miss; `put` clears the
/// buffer and shelves it. Capacity is retained across the cycle, so a
/// warmed pool serves every take without touching the allocator.
#[derive(Debug)]
pub struct VecPool<T> {
    free: Vec<Vec<T>>,
    stats: PoolStats,
}

impl<T> Default for VecPool<T> {
    fn default() -> Self {
        VecPool::new()
    }
}

impl<T> VecPool<T> {
    /// An empty pool (the first takes will be misses — that is the
    /// warmup the steady-state invariant is defined against).
    pub fn new() -> VecPool<T> {
        VecPool {
            free: Vec::new(),
            stats: PoolStats::default(),
        }
    }

    /// Pre-populate the pool with `n` fresh (zero-capacity) buffers.
    ///
    /// Construction-time population is not traffic: it touches none of
    /// the counters, so the steady-state invariant (`misses` delta ==
    /// 0) is judged purely on what the data path does. A prewarmed pool
    /// only ever misses if more buffers are simultaneously in flight
    /// than it was built with — sizing the population is the arena
    /// decision, and the miss counter is the audit that it was sized
    /// right.
    pub fn prewarm(&mut self, n: usize) {
        self.free.extend((0..n).map(|_| Vec::new()));
    }

    /// Take an empty vector, recycled if possible.
    pub fn take(&mut self) -> Vec<T> {
        match self.free.pop() {
            Some(v) => {
                self.stats.hits += 1;
                v
            }
            None => {
                self.stats.misses += 1;
                Vec::new()
            }
        }
    }

    /// Return a vector for reuse; its contents are dropped, its
    /// capacity is kept.
    pub fn put(&mut self, mut v: Vec<T>) {
        v.clear();
        self.free.push(v);
        self.stats.returns += 1;
        self.stats.high_water = self.stats.high_water.max(self.free.len() as u64);
    }

    /// Traffic counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Buffers currently shelved.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// Whether no buffers are shelved.
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }

    /// Bytes of element storage currently retained by shelved buffers.
    pub fn retained_bytes(&self) -> usize {
        self.free
            .iter()
            .map(|v| v.capacity() * mem::size_of::<T>())
            .sum()
    }
}

/// Smallest size class of [`BufPool`] (64 B).
const BUF_MIN_CLASS: u32 = 6;
/// Largest size class of [`BufPool`] (64 KiB). Larger requests are
/// served by plain allocation and dropped on return (counted as
/// misses, so oversized traffic is visible in the stats).
const BUF_MAX_CLASS: u32 = 16;
const BUF_CLASSES: usize = (BUF_MAX_CLASS - BUF_MIN_CLASS + 1) as usize;

/// A byte-buffer recycler with power-of-two size classes.
///
/// `take(len)` returns an empty `Vec<u8>` with capacity at least
/// `len`, rounded up to the request's size class so a recycled buffer
/// from that class always fits. `put` shelves the buffer back into the
/// class its capacity belongs to.
#[derive(Debug, Default)]
pub struct BufPool {
    classes: [Vec<Vec<u8>>; BUF_CLASSES],
    stats: PoolStats,
}

/// The size class covering `len` bytes, or `None` when `len` exceeds
/// the largest class.
fn buf_class(len: usize) -> Option<usize> {
    let bits = usize::BITS - len.saturating_sub(1).leading_zeros();
    let class = bits.max(BUF_MIN_CLASS);
    (class <= BUF_MAX_CLASS).then_some((class - BUF_MIN_CLASS) as usize)
}

impl BufPool {
    /// An empty pool.
    pub fn new() -> BufPool {
        BufPool::default()
    }

    /// Take an empty buffer with capacity ≥ `len`.
    pub fn take(&mut self, len: usize) -> Vec<u8> {
        match buf_class(len) {
            Some(c) => match self.classes[c].pop() {
                Some(b) => {
                    self.stats.hits += 1;
                    b
                }
                None => {
                    self.stats.misses += 1;
                    Vec::with_capacity(1usize << (c as u32 + BUF_MIN_CLASS))
                }
            },
            None => {
                // Oversized: allocate exactly; return will drop it.
                self.stats.misses += 1;
                Vec::with_capacity(len)
            }
        }
    }

    /// Return a buffer for reuse. A buffer whose capacity does not fill
    /// any class (oversized, or shrunk below the minimum) is dropped.
    pub fn put(&mut self, mut b: Vec<u8>) {
        b.clear();
        // Shelve by the class the capacity *fills* (round down), so a
        // later `take` of that class is guaranteed to fit.
        let cap = b.capacity();
        if cap < (1usize << BUF_MIN_CLASS) {
            return;
        }
        let bits = (usize::BITS - 1 - cap.leading_zeros()).min(BUF_MAX_CLASS);
        let c = (bits - BUF_MIN_CLASS) as usize;
        self.classes[c].push(b);
        self.stats.returns += 1;
        let resident: usize = self.classes.iter().map(|v| v.len()).sum();
        self.stats.high_water = self.stats.high_water.max(resident as u64);
    }

    /// Traffic counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Bytes of storage currently retained across all classes.
    pub fn retained_bytes(&self) -> usize {
        self.classes
            .iter()
            .flat_map(|c| c.iter())
            .map(|b| b.capacity())
            .sum()
    }
}

/// A handle into a [`Slab`]: slot index plus the generation the slot
/// had when this value was inserted. A handle outlives its value only
/// in the caller's hands — the slab detects the mismatch and refuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlabHandle {
    index: u32,
    generation: u32,
}

impl SlabHandle {
    /// The raw slot index (diagnostics only — never use it to bypass
    /// the generation check).
    pub fn index(&self) -> usize {
        self.index as usize
    }
}

#[derive(Debug)]
enum Slot<T> {
    Occupied {
        generation: u32,
        value: T,
    },
    Vacant {
        generation: u32,
        next_free: Option<u32>,
    },
}

/// A generation-checked slab arena: O(1) insert/remove with stable
/// handles, recycled slots, and stale-handle detection.
///
/// Removing a value bumps the slot's generation, so any handle issued
/// before the removal dereferences to `None` — a use-after-free
/// becomes a visible, testable failure instead of silent aliasing.
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free_head: Option<u32>,
    len: usize,
    stats: PoolStats,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Slab<T> {
        Slab {
            slots: Vec::new(),
            free_head: None,
            len: 0,
            stats: PoolStats::default(),
        }
    }

    /// Insert a value, recycling a vacant slot when one exists.
    pub fn insert(&mut self, value: T) -> SlabHandle {
        self.len += 1;
        if let Some(idx) = self.free_head {
            let slot = &mut self.slots[idx as usize];
            let Slot::Vacant {
                generation,
                next_free,
            } = *slot
            else {
                // outran-lint: allow(D5) -- free-list entries are vacant by construction
                unreachable!("free list points at an occupied slot");
            };
            self.free_head = next_free;
            *slot = Slot::Occupied { generation, value };
            self.stats.hits += 1;
            return SlabHandle {
                index: idx,
                generation,
            };
        }
        let idx = self.slots.len() as u32;
        self.slots.push(Slot::Occupied {
            generation: 0,
            value,
        });
        self.stats.misses += 1;
        self.stats.high_water = self.stats.high_water.max(self.slots.len() as u64);
        SlabHandle {
            index: idx,
            generation: 0,
        }
    }

    /// Read the value behind `h`; `None` when the handle is stale (the
    /// slot was removed, and possibly reused, since `h` was issued).
    pub fn get(&self, h: SlabHandle) -> Option<&T> {
        match self.slots.get(h.index as usize) {
            Some(Slot::Occupied { generation, value }) if *generation == h.generation => {
                Some(value)
            }
            _ => None,
        }
    }

    /// Mutable access behind `h`; `None` when the handle is stale.
    pub fn get_mut(&mut self, h: SlabHandle) -> Option<&mut T> {
        match self.slots.get_mut(h.index as usize) {
            Some(Slot::Occupied { generation, value }) if *generation == h.generation => {
                Some(value)
            }
            _ => None,
        }
    }

    /// Remove and return the value behind `h`; `None` when stale. The
    /// slot's generation is bumped so outstanding handles to the old
    /// value die with it.
    pub fn remove(&mut self, h: SlabHandle) -> Option<T> {
        let slot = self.slots.get_mut(h.index as usize)?;
        match slot {
            Slot::Occupied { generation, .. } if *generation == h.generation => {
                let next_gen = generation.wrapping_add(1);
                let old = mem::replace(
                    slot,
                    Slot::Vacant {
                        generation: next_gen,
                        next_free: self.free_head,
                    },
                );
                self.free_head = Some(h.index);
                self.len -= 1;
                self.stats.returns += 1;
                match old {
                    Slot::Occupied { value, .. } => Some(value),
                    // outran-lint: allow(D5) -- outer match arm already proved occupancy
                    Slot::Vacant { .. } => unreachable!("matched occupied above"),
                }
            }
            _ => None,
        }
    }

    /// Live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab holds no live values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots ever allocated (live + vacant).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Traffic counters (`hits` = recycled slots, `misses` = slab
    /// growth, `high_water` = peak slot count).
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_pool_recycles_capacity_and_counts() {
        let mut p: VecPool<u64> = VecPool::new();
        let mut v = p.take();
        assert_eq!(p.stats().misses, 1);
        v.extend(0..100);
        let cap = v.capacity();
        p.put(v);
        let v2 = p.take();
        assert_eq!(p.stats().hits, 1);
        assert!(v2.is_empty());
        assert!(v2.capacity() >= cap, "capacity must be retained");
        assert_eq!(p.stats().since(&p.stats()).misses, 0);
    }

    #[test]
    fn vec_pool_steady_state_has_no_misses() {
        let mut p: VecPool<u8> = VecPool::new();
        // Warmup: 3 buffers in flight at peak.
        let bufs: Vec<Vec<u8>> = (0..3).map(|_| p.take()).collect();
        for b in bufs {
            p.put(b);
        }
        let warm = p.stats();
        for _ in 0..1000 {
            let a = p.take();
            let b = p.take();
            p.put(a);
            p.put(b);
        }
        let d = p.stats().since(&warm);
        assert_eq!(d.misses, 0, "warmed pool must never allocate");
        assert_eq!(d.hits, 2000);
    }

    #[test]
    fn prewarm_counts_no_traffic_and_absorbs_in_flight_growth() {
        let mut p: VecPool<u8> = VecPool::new();
        p.prewarm(8);
        assert_eq!(p.stats(), PoolStats::default(), "prewarm is not traffic");
        assert_eq!(p.len(), 8);
        assert_eq!(p.retained_bytes(), 0, "prewarmed buffers are capacity-free");
        // Deepest in-flight population of 8 never touches the allocator.
        let held: Vec<Vec<u8>> = (0..8).map(|_| p.take()).collect();
        assert_eq!(p.stats().misses, 0);
        assert_eq!(p.stats().hits, 8);
        for b in held {
            p.put(b);
        }
        // The ninth concurrent buffer is a real miss — the audit that
        // the population was undersized.
        let a = p.take();
        let held: Vec<Vec<u8>> = (0..8).map(|_| p.take()).collect();
        assert_eq!(p.stats().misses, 1);
        drop((a, held));
    }

    #[test]
    fn buf_pool_size_classes_round_up() {
        let mut p = BufPool::new();
        let b = p.take(100);
        assert!(b.capacity() >= 128, "100 B rounds up to the 128 B class");
        p.put(b);
        // A same-class request hits; a larger class misses.
        let b2 = p.take(120);
        assert_eq!(p.stats().hits, 1);
        let b3 = p.take(4096);
        assert_eq!(p.stats().misses, 2);
        p.put(b2);
        p.put(b3);
        assert_eq!(p.stats().returns, 3);
        assert!(p.retained_bytes() >= 128 + 4096);
    }

    #[test]
    fn buf_pool_tiny_and_oversized_requests() {
        let mut p = BufPool::new();
        let tiny = p.take(1);
        assert!(tiny.capacity() >= 64, "minimum class is 64 B");
        p.put(tiny);
        assert!(p.take(1).capacity() >= 64);
        // Oversized requests allocate exactly and are not shelved.
        let big = p.take(1 << 20);
        assert!(big.capacity() >= 1 << 20);
        let returns_before = p.stats().returns;
        p.put(big);
        // Capacity 1 MiB rounds *down* to the largest class, so it is
        // shelved there (usable for any ≤64 KiB take).
        assert_eq!(p.stats().returns, returns_before + 1);
    }

    #[test]
    fn slab_insert_get_remove_roundtrip() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&"a"));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(b), Some(&"b"));
    }

    #[test]
    fn slab_stale_handle_fails_closed() {
        let mut s = Slab::new();
        let h = s.insert(7u32);
        assert_eq!(s.remove(h), Some(7));
        // The handle is now stale: every access refuses.
        assert_eq!(s.get(h), None);
        assert_eq!(s.get_mut(h), None);
        assert_eq!(s.remove(h), None);
        // The slot is recycled for a new value under a new generation;
        // the stale handle still refuses even though the index matches.
        let h2 = s.insert(9u32);
        assert_eq!(h2.index(), h.index(), "slot must be recycled");
        assert_eq!(s.get(h), None, "stale generation must not alias");
        assert_eq!(s.get(h2), Some(&9));
    }

    #[test]
    fn slab_recycling_shows_in_stats() {
        let mut s = Slab::new();
        let h1 = s.insert(1);
        s.remove(h1);
        let _h2 = s.insert(2);
        let st = s.stats();
        assert_eq!(st.misses, 1, "one slab growth");
        assert_eq!(st.hits, 1, "one recycled slot");
        assert_eq!(st.high_water, 1);
        assert_eq!(s.capacity(), 1);
    }
}
