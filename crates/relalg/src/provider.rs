//! Image providers: the seam between segmented storage and scans.
//!
//! An [`ImageProvider`] hands scan cursors decoded segments of one
//! relation's image — in-memory compressed segments or on-disk segment
//! files — behind a layout interface (`seg_rows`/`zone`) so the cursor
//! never needs to know where the bytes live. The implementations trade
//! memory for decode/IO work:
//!
//! * [`MemImageProvider`] decodes each segment at most once and keeps it
//!   resident — the segmented analog of the plain in-memory image;
//! * the pooled provider (`store::PooledImageProvider`) leases decoded
//!   segments from a [`crate::store::BufferPool`] shared across
//!   relations, so the decoded *working set*, not the table, is what
//!   occupies memory. On a miss it decodes in-memory encoded segments
//!   (paged storage) or reads them from a page file (disk storage).
//!
//! Providers are created per scan node at prepare time and shared by
//! all workers of that scan, so decode work is deduplicated across
//! morsels.

use crate::error::Result;
use crate::fault::{self, FaultInjector};
use crate::segment::{DecodedSegment, SegmentedImage, ZoneMap};
use std::fmt::Debug;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Storage-side counters shared by every cursor of one execution:
/// bytes materialized by fresh decodes, pages read from segment files,
/// and buffer-pool hit/miss tallies. Atomics because parallel morsel
/// workers bump them concurrently. Also carries the execution's fault
/// injector (if any) down to the storage edges — read and lease faults
/// draw their ticks through here.
#[derive(Debug, Default)]
pub struct IoCounters {
    /// Approximate bytes materialized by fresh segment decodes (cache
    /// and pool hits add nothing).
    pub decoded_bytes: AtomicUsize,
    /// 4 KiB pages read from on-disk segment files.
    pub pages_read: AtomicUsize,
    /// Buffer-pool lookups served by a resident segment.
    pub pool_hits: AtomicUsize,
    /// Buffer-pool lookups that had to read and decode from disk.
    pub pool_misses: AtomicUsize,
    /// The execution's fault injector, `None` when faults are disabled.
    faults: Option<Arc<FaultInjector>>,
}

impl IoCounters {
    /// Counters wired to an execution's fault injector.
    pub fn with_faults(faults: Option<Arc<FaultInjector>>) -> IoCounters {
        IoCounters {
            faults,
            ..IoCounters::default()
        }
    }

    /// The fault injector drawn by this execution's storage edges.
    pub fn faults(&self) -> Option<&FaultInjector> {
        self.faults.as_deref()
    }

    /// Record a fresh decode of `bytes` materialized bytes.
    pub fn decoded(&self, bytes: usize) {
        self.decoded_bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Serves decoded segments of one relation image to scan cursors.
///
/// The layout accessors (`seg_rows`, `seg_count`, `zone`) expose just
/// enough of the image for a cursor to walk segment boundaries and
/// consult zone maps without decoding — identically for in-memory and
/// on-disk backends.
pub trait ImageProvider: Send + Sync + Debug {
    /// Rows per segment (the last segment may be short).
    fn seg_rows(&self) -> usize;

    /// Number of segments.
    fn seg_count(&self) -> usize;

    /// The zone map of (column `col`, segment `seg`).
    fn zone(&self, col: usize, seg: usize) -> &ZoneMap;

    /// A decoded view of segment `seg`. Every *fresh* decode adds the
    /// segment's materialized size to `io.decoded_bytes` (cache hits add
    /// nothing), which is how [`crate::exec::ExecStats`] observes decode
    /// traffic and cache effectiveness; pool-backed providers also
    /// account pool hits/misses, and disk-backed ones pages read.
    /// Fallible: disk reads can fail for real, and the pool lease and
    /// disk read edges draw from `io`'s fault injector when one is
    /// configured.
    fn segment(&self, seg: usize, io: &IoCounters) -> Result<Arc<DecodedSegment>>;
}

/// Decode-once, keep-forever provider: segment `s` is decoded by the
/// first cursor that touches it and stays resident for the query.
pub struct MemImageProvider {
    image: Arc<SegmentedImage>,
    decoded: Mutex<Vec<Option<Arc<DecodedSegment>>>>,
}

impl MemImageProvider {
    /// Provider over `image` with an empty decode cache.
    pub fn new(image: Arc<SegmentedImage>) -> Self {
        let slots = image.seg_count();
        MemImageProvider {
            image,
            decoded: Mutex::new(vec![None; slots]),
        }
    }
}

impl Debug for MemImageProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemImageProvider")
            .field("segments", &self.image.seg_count())
            .finish()
    }
}

impl ImageProvider for MemImageProvider {
    fn seg_rows(&self) -> usize {
        self.image.seg_rows()
    }

    fn seg_count(&self) -> usize {
        self.image.seg_count()
    }

    fn zone(&self, col: usize, seg: usize) -> &ZoneMap {
        self.image.zone(col, seg)
    }

    fn segment(&self, seg: usize, io: &IoCounters) -> Result<Arc<DecodedSegment>> {
        // A resident segment is a pure lock-and-clone; a miss decodes
        // under the lock. That is fine *here*: the cache is unbounded,
        // so each segment is decoded exactly once per provider and a
        // blocked peer would only have re-decoded the same segment.
        let mut slots = fault::lock_recover(&self.decoded);
        if let Some(d) = &slots[seg] {
            return Ok(Arc::clone(d));
        }
        let d = Arc::new(self.image.decode(seg));
        io.decoded(d.bytes);
        slots[seg] = Some(Arc::clone(&d));
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{BufferPool, PooledImageProvider, SegmentSource};
    use crate::value::Value;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    use std::sync::{Barrier, Condvar};
    use std::time::Duration;

    fn image(rows: usize, seg_rows: usize) -> Arc<SegmentedImage> {
        let rows: Vec<crate::relation::Row> = (0..rows)
            .map(|i| vec![Value::Int(i as i64)].into_boxed_slice())
            .collect();
        Arc::new(SegmentedImage::build(1, &rows, seg_rows))
    }

    #[test]
    fn mem_provider_decodes_each_segment_once() {
        let p = MemImageProvider::new(image(10, 4));
        let io = IoCounters::default();
        let a = p.segment(0, &io).unwrap();
        let after_first = io.decoded_bytes.load(Ordering::Relaxed);
        assert!(after_first > 0);
        let b = p.segment(0, &io).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(io.decoded_bytes.load(Ordering::Relaxed), after_first); // cache hit
        assert_eq!(a.start, 0);
        assert_eq!(a.len, 4);
        assert_eq!(p.segment(2, &io).unwrap().len, 2); // tail segment
        assert_eq!(p.seg_rows(), 4);
        assert_eq!(p.seg_count(), 3);
        assert_eq!(p.zone(0, 0).min, Value::Int(0));
    }

    /// The paged provider: in-memory encoded segments leased from a
    /// private buffer pool of `cap` decoded segments.
    fn paged(image: Arc<SegmentedImage>, cap: usize) -> PooledImageProvider {
        PooledImageProvider::new(SegmentSource::Mem(image), Arc::new(BufferPool::new(cap)))
    }

    #[test]
    fn paged_provider_evicts_cold_segments() {
        let p = paged(image(12, 4), 2);
        let io = IoCounters::default();
        p.segment(0, &io).unwrap();
        p.segment(1, &io).unwrap();
        let full = io.decoded_bytes.load(Ordering::Relaxed);
        assert_eq!(io.pool_misses.load(Ordering::Relaxed), 2);
        // Hits don't decode.
        p.segment(0, &io).unwrap();
        assert_eq!(io.decoded_bytes.load(Ordering::Relaxed), full);
        assert_eq!(io.pool_hits.load(Ordering::Relaxed), 1);
        // A third segment evicts one of the two; touring all three with
        // cap 2 forces re-decodes.
        p.segment(2, &io).unwrap();
        p.segment(0, &io).unwrap();
        p.segment(1, &io).unwrap();
        assert!(io.decoded_bytes.load(Ordering::Relaxed) > full);
        // Values still come back correct after eviction churn.
        let d = p.segment(1, &io).unwrap();
        assert_eq!(d.cols[0].get(0), Value::Int(4));
        assert_eq!(
            io.pages_read.load(Ordering::Relaxed),
            0,
            "paged reads no pages"
        );
    }

    /// The in-flight latch dedups concurrent decodes: 4 workers racing
    /// over every segment of one paged provider (pool capacity ≥ segment
    /// count, so nothing is ever evicted) decode each segment exactly
    /// once — total decoded bytes equal one full tour of the image.
    #[test]
    fn concurrent_workers_decode_each_segment_once() {
        let img = image(64, 4);
        let segs = img.seg_count();
        let one_tour: usize = (0..segs).map(|s| img.decode(s).bytes).sum();
        let p = Arc::new(paged(Arc::clone(&img), segs));
        let io = Arc::new(IoCounters::default());
        let barrier = Arc::new(Barrier::new(4));
        let workers: Vec<_> = (0..4)
            .map(|w| {
                let (p, io, barrier) = (Arc::clone(&p), Arc::clone(&io), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..segs {
                        // Different starting offsets maximize overlap on
                        // different segments at any instant.
                        let seg = (i + w * segs / 4) % segs;
                        let d = p.segment(seg, &io).unwrap();
                        assert_eq!(d.start, seg * 4);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(
            io.decoded_bytes.load(Ordering::Relaxed),
            one_tour,
            "latch failed: some segment was decoded more than once"
        );
        assert_eq!(io.pool_misses.load(Ordering::Relaxed), segs);
    }

    /// A pool-miss load of segment `seg` of `img` that blocks inside the
    /// `load` closure — after the pool lock is released — until
    /// `release` is set, announcing entry through `entered`.
    fn gated_get(
        pool: &BufferPool,
        img: &SegmentedImage,
        seg: usize,
        io: &IoCounters,
        entered: &(Mutex<usize>, Condvar),
        release: &AtomicBool,
    ) -> Arc<DecodedSegment> {
        pool.get((img.id(), seg), io, || {
            let (count, cv) = entered;
            *count.lock().unwrap() += 1;
            cv.notify_all();
            while !release.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let d = img.decode(seg);
            io.decoded(d.bytes);
            Ok(Arc::new(d))
        })
        .unwrap()
    }

    /// Block until `entered` counts at least one load in progress.
    fn wait_entered(entered: &(Mutex<usize>, Condvar)) -> usize {
        let (count, cv) = entered;
        let mut count = count.lock().unwrap();
        while *count == 0 {
            count = cv.wait(count).unwrap();
        }
        *count
    }

    /// Loads must not serialize the whole pool: while one worker is
    /// stuck inside the load of segment 0, a second worker must still
    /// complete a *hit* on an already-resident segment. If loading ever
    /// moves back under the pool lock, the second worker blocks and this
    /// test fails by timeout instead of hanging the suite.
    #[test]
    fn decode_does_not_hold_the_cache_lock() {
        let img = image(12, 4);
        let pool = Arc::new(BufferPool::new(3));
        let io = Arc::new(IoCounters::default());
        let entered = Arc::new((Mutex::new(0usize), Condvar::new()));
        let release = Arc::new(AtomicBool::new(false));
        // Make segment 1 resident before anything blocks.
        let resident =
            PooledImageProvider::new(SegmentSource::Mem(Arc::clone(&img)), Arc::clone(&pool));
        resident.segment(1, &io).unwrap();
        let blocked = {
            let (pool, img, io) = (Arc::clone(&pool), Arc::clone(&img), Arc::clone(&io));
            let (entered, release) = (Arc::clone(&entered), Arc::clone(&release));
            std::thread::spawn(move || gated_get(&pool, &img, 0, &io, &entered, &release))
        };
        wait_entered(&entered);
        // A hit on segment 1 must complete while the load is stuck.
        let (tx, rx) = mpsc::channel();
        let hitter = {
            let io = Arc::clone(&io);
            std::thread::spawn(move || {
                let d = resident.segment(1, &io).unwrap();
                tx.send(d.start).unwrap();
            })
        };
        let start = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("hit on a resident segment serialized behind an in-flight load");
        assert_eq!(start, 4);
        release.store(true, Ordering::Release);
        assert_eq!(blocked.join().unwrap().start, 0);
        hitter.join().unwrap();
        assert_eq!(pool.in_flight_len(), 0);
    }

    /// Two workers asking for the *same* in-flight segment: the second
    /// waits on the latch and reuses the first worker's load (exactly
    /// one decode total), rather than duplicating it.
    #[test]
    fn same_segment_waiters_share_one_decode() {
        let img = image(8, 4);
        let pool = Arc::new(BufferPool::new(2));
        let io = Arc::new(IoCounters::default());
        let entered = Arc::new((Mutex::new(0usize), Condvar::new()));
        let release = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let (pool, img, io) = (Arc::clone(&pool), Arc::clone(&img), Arc::clone(&io));
                let (entered, release) = (Arc::clone(&entered), Arc::clone(&release));
                std::thread::spawn(move || gated_get(&pool, &img, 0, &io, &entered, &release))
            })
            .collect();
        // Exactly one worker reaches the load; the other parks on the
        // latch. (Give the loser a moment to park, then release.)
        assert_eq!(wait_entered(&entered), 1, "both workers entered the load");
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            *entered.0.lock().unwrap(),
            1,
            "latch let a duplicate load in"
        );
        release.store(true, Ordering::Release);
        let decs: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        assert!(Arc::ptr_eq(&decs[0], &decs[1]), "waiter got its own decode");
        assert_eq!(
            io.decoded_bytes.load(Ordering::Relaxed),
            img.decode(0).bytes
        );
        assert_eq!(io.pool_misses.load(Ordering::Relaxed), 1);
        assert_eq!(io.pool_hits.load(Ordering::Relaxed), 1);
    }
}
