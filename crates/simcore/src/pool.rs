//! Recycled-memory primitives for the zero-allocation steady state.
//!
//! The dense-cell hot loop used to allocate a handful of short-lived
//! containers every TTI (RLC pull vectors, HARQ payloads, TCP emit
//! batches). Each is tiny, but at metro scale (100+ cells × thousands
//! of TTIs/s) the allocator traffic dominates the SoA kernels the
//! pipeline actually runs. [`VecPool<T>`] recycles `Vec<T>` containers
//! with their capacity retained, for buffers whose *ownership travels*
//! across stages (e.g. a HARQ payload built in PHY-transmit and
//! consumed by delivery several TTIs later).
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
}
