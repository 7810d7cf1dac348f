//! A byte-capped block cache between disk-backed segments and scans.
//!
//! Sealed segments live on disk (see [`crate::segment`]); scans pull
//! individual column blocks through this pool. It holds one kind of
//! value: the CRC-verified *encoded* payload of a block, exactly as it
//! sits in the segment file. Predicate evaluation and decoding both start
//! from that, per access (a memcpy-class cost next to the read + CRC of a
//! miss), so a dictionary block is never blown up to `String`s to be
//! cached and a byte of pool holds a byte of file. The pool hands out
//! `Arc<[u8]>`s, so an in-flight scan keeps its blocks alive even if they
//! are evicted underneath it — eviction only drops the pool's own
//! reference.
//!
//! Eviction is second-chance clock: every hit sets a referenced bit, the
//! clock hand clears it on first pass and evicts on second. This gives
//! LRU-like behavior without per-access list surgery — one mutex, O(1)
//! amortized per operation.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hylite_common::telemetry::{Counter, Gauge, MetricsRegistry};
use hylite_common::Result;
use parking_lot::Mutex;

/// Cache key: (segment id, column index, block index).
pub type BlockKey = (u64, u32, u32);

/// A cached block: its verified encoded payload.
pub type BlockBytes = Arc<[u8]>;

struct Slot {
    data: BlockBytes,
    bytes: usize,
    referenced: bool,
}

#[derive(Default)]
struct PoolInner {
    slots: HashMap<BlockKey, Slot>,
    clock: VecDeque<BlockKey>,
    used: usize,
}

/// Point-in-time pool statistics (for the `hylite.storage` view).
#[derive(Debug, Clone, Copy)]
pub struct PoolStats {
    /// Configured capacity in bytes.
    pub cap_bytes: usize,
    /// Bytes currently cached.
    pub used_bytes: usize,
    /// Lookups served from cache.
    pub hits: u64,
    /// Lookups that had to load from disk.
    pub misses: u64,
    /// Blocks evicted to stay under the cap.
    pub evictions: u64,
}

impl PoolStats {
    /// Hit fraction in `[0, 1]`; `1.0` when there were no lookups yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The block cache. Cheap to share (`Arc` it); all methods take `&self`.
pub struct BufferPool {
    cap: usize,
    inner: Mutex<PoolInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    m_hits: Arc<Counter>,
    m_misses: Arc<Counter>,
    m_evictions: Arc<Counter>,
    m_bytes: Arc<Gauge>,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("BufferPool")
            .field("cap_bytes", &s.cap_bytes)
            .field("used_bytes", &s.used_bytes)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

impl BufferPool {
    /// A pool holding at most `cap_bytes` of encoded blocks. Telemetry
    /// lands in `metrics` under `storage.pool.*`.
    pub fn new(cap_bytes: usize, metrics: &MetricsRegistry) -> BufferPool {
        BufferPool {
            cap: cap_bytes,
            inner: Mutex::new(PoolInner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            m_hits: metrics.counter("storage.pool.hits"),
            m_misses: metrics.counter("storage.pool.misses"),
            m_evictions: metrics.counter("storage.pool.evictions"),
            m_bytes: metrics.gauge("storage.pool.bytes"),
        }
    }

    /// Configured capacity in bytes.
    pub fn cap_bytes(&self) -> usize {
        self.cap
    }

    /// Fetch a block, loading (and caching) it on a miss. The loader runs
    /// outside the pool lock, so a slow disk read does not serialize every
    /// other scan; two racing loads of the same block both succeed and one
    /// result wins the cache slot.
    pub fn get_or_load(
        &self,
        key: BlockKey,
        load: impl FnOnce() -> Result<BlockBytes>,
    ) -> Result<BlockBytes> {
        {
            let mut inner = self.inner.lock();
            if let Some(slot) = inner.slots.get_mut(&key) {
                slot.referenced = true;
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.m_hits.inc();
                return Ok(Arc::clone(&slot.data));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.m_misses.inc();
        let data = load()?;
        let bytes = data.len().max(1);
        if bytes > self.cap {
            // A block bigger than the whole pool: hand it out uncached
            // rather than flushing everything else for a one-shot read.
            return Ok(data);
        }
        let mut inner = self.inner.lock();
        if let Some(slot) = inner.slots.get_mut(&key) {
            // Racing load landed first; keep its copy.
            slot.referenced = true;
            return Ok(Arc::clone(&slot.data));
        }
        inner.slots.insert(
            key,
            Slot {
                data: Arc::clone(&data),
                bytes,
                referenced: false,
            },
        );
        inner.clock.push_back(key);
        inner.used += bytes;
        self.evict_to_cap(&mut inner);
        self.m_bytes.set(inner.used as i64);
        Ok(data)
    }

    fn evict_to_cap(&self, inner: &mut PoolInner) {
        while inner.used > self.cap {
            let Some(key) = inner.clock.pop_front() else {
                break;
            };
            let Some(slot) = inner.slots.get_mut(&key) else {
                continue; // stale clock entry
            };
            if slot.referenced {
                slot.referenced = false;
                inner.clock.push_back(key);
                continue;
            }
            let bytes = slot.bytes;
            inner.slots.remove(&key);
            inner.used -= bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.m_evictions.inc();
        }
    }

    /// Drop every cached block of one segment (after its file is garbage
    /// collected). Stale clock entries are skipped lazily by the hand.
    pub fn evict_segment(&self, segment_id: u64) {
        let mut inner = self.inner.lock();
        let keys: Vec<BlockKey> = inner
            .slots
            .keys()
            .filter(|(sid, _, _)| *sid == segment_id)
            .copied()
            .collect();
        for key in keys {
            if let Some(slot) = inner.slots.remove(&key) {
                inner.used -= slot.bytes;
            }
        }
        self.m_bytes.set(inner.used as i64);
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> PoolStats {
        let used = self.inner.lock().used;
        PoolStats {
            cap_bytes: self.cap,
            used_bytes: used,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` i64s' worth of payload bytes.
    fn block(n: usize, fill: i64) -> BlockBytes {
        vec![fill as u8; n * 8].into()
    }

    fn pool(cap: usize) -> BufferPool {
        BufferPool::new(cap, &MetricsRegistry::new())
    }

    #[test]
    fn hit_after_load() {
        let p = pool(1 << 20);
        let a = p.get_or_load((1, 0, 0), || Ok(block(10, 7))).unwrap();
        let b = p
            .get_or_load((1, 0, 0), || panic!("must be cached"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = p.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn cap_is_enforced_by_eviction() {
        // Each block is 100 i64s = 800 bytes; cap fits two.
        let p = pool(1700);
        for i in 0..5u32 {
            p.get_or_load((1, 0, i), || Ok(block(100, i as i64)))
                .unwrap();
        }
        let s = p.stats();
        assert!(s.used_bytes <= 1700, "{} over cap", s.used_bytes);
        assert!(s.evictions >= 3);
        // Evicted blocks reload fine.
        let v = p.get_or_load((1, 0, 0), || Ok(block(100, 0))).unwrap();
        assert_eq!(v.len(), 800);
    }

    #[test]
    fn recently_hit_blocks_survive_the_clock() {
        let p = pool(1700);
        p.get_or_load((1, 0, 0), || Ok(block(100, 0))).unwrap();
        p.get_or_load((1, 0, 1), || Ok(block(100, 1))).unwrap();
        // Touch block 0 so it has its referenced bit set...
        p.get_or_load((1, 0, 0), || panic!("cached")).unwrap();
        // ...then force one eviction: block 1 (unreferenced) must go first.
        p.get_or_load((1, 0, 2), || Ok(block(100, 2))).unwrap();
        p.get_or_load((1, 0, 0), || panic!("survived the clock"))
            .unwrap();
    }

    #[test]
    fn oversized_block_is_not_cached() {
        let p = pool(100);
        p.get_or_load((1, 0, 0), || Ok(block(1000, 1))).unwrap();
        assert_eq!(p.stats().used_bytes, 0);
    }

    #[test]
    fn evict_segment_clears_only_that_segment() {
        let p = pool(1 << 20);
        p.get_or_load((1, 0, 0), || Ok(block(10, 1))).unwrap();
        p.get_or_load((2, 0, 0), || Ok(block(10, 2))).unwrap();
        p.evict_segment(1);
        let mut loaded = false;
        p.get_or_load((1, 0, 0), || {
            loaded = true;
            Ok(block(10, 1))
        })
        .unwrap();
        assert!(loaded, "segment 1 was dropped");
        p.get_or_load((2, 0, 0), || panic!("segment 2 untouched"))
            .unwrap();
    }
}
