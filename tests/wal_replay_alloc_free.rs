//! Zero-allocation gate for streaming WAL replay.
//!
//! `wal::recover` walks the log frame by frame and applies each one as it
//! passes: a commit payload decodes straight into one reusable staging row
//! and is admitted through the engine's `insert_moments` path, a remove
//! recycles its slab row, and no `WalRecord` or per-frame vector is ever
//! built. So the allocator-call count of a recovery depends on the
//! checkpoint, not on the log length. This binary pins that with a
//! counting global allocator: logs of `N` and `2N` balanced remove +
//! commit frames, recovered from one checkpoint, cost the same number of
//! allocator calls. It holds exactly one test so no concurrently running
//! test can pollute the counter (integration-test files compile to
//! separate processes).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ucpc::core::incremental::{IncrementalUcpc, ObjectHandle};
use ucpc::core::wal::{recover, VecIo, WalFsync, WalWriter};
use ucpc::core::PruningConfig;
use ucpc::uncertain::{UncertainObject, UnivariatePdf};

/// System allocator with a global counter of alloc/realloc calls.
struct CountingAlloc;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const M: usize = 8;

fn obj(i: usize) -> UncertainObject {
    UncertainObject::new(
        (0..M)
            .map(|j| UnivariatePdf::normal(((i * M + j) % 23) as f64 * 0.75 - 8.0, 0.3))
            .collect(),
    )
}

/// Allocator calls of one `recover`, the fewest over a few attempts: the
/// counter is process-global, so the libtest harness thread can race a
/// handful of its own allocations into the window, while a per-frame
/// allocation would show up on every attempt.
fn recover_allocs(checkpoint: &[u8], log: &[u8], frames: u64) -> usize {
    (0..5)
        .map(|_| {
            let before = ALLOC_CALLS.load(Ordering::Relaxed);
            let rec = recover(checkpoint, log).expect("own log recovers");
            let during = ALLOC_CALLS.load(Ordering::Relaxed) - before;
            assert_eq!(rec.frames_applied, frames);
            assert!(rec.damage.is_none());
            during
        })
        .min()
        .unwrap()
}

#[test]
fn replay_allocations_do_not_grow_with_the_log() {
    let n = 200;
    for pruning in [PruningConfig::Off, PruningConfig::Bounds] {
        let mut live = IncrementalUcpc::new(M, 4).unwrap();
        live.set_pruning(pruning);
        let mut window: Vec<ObjectHandle> =
            (0..64).map(|i| live.insert(&obj(i)).unwrap()).collect();
        live.stabilize(3);
        let checkpoint = live.snapshot();

        // One log of 2n remove + commit pairs; its first half (cut at the
        // n-th pair's frame boundary) is the log of n pairs. Both exist
        // before anything is counted.
        let mut w = WalWriter::create(VecIo::new(), M, WalFsync::Off).unwrap();
        let mut half = 0;
        for step in 0..2 * n {
            let victim = window.remove(0);
            w.log_remove(victim).unwrap();
            live.remove(victim).unwrap();
            let arrival = obj(1000 + step);
            let mo = arrival.moments();
            w.log_commit(mo.mu(), mo.mu2()).unwrap();
            window.push(live.insert(&arrival).unwrap());
            if step + 1 == n {
                half = w.bytes_logged() as usize;
            }
        }
        let log = w.into_io().into_bytes();

        let short = recover_allocs(&checkpoint, &log[..half], 2 * n as u64);
        let long = recover_allocs(&checkpoint, &log, 4 * n as u64);
        assert_eq!(
            short,
            long,
            "{pruning:?}: recovering {n} more remove + commit pairs cost {} more \
             allocator calls",
            long as isize - short as isize
        );

        // The streamed replay is still the uninterrupted run.
        let rec = recover(&checkpoint, &log).unwrap();
        assert_eq!(rec.engine.live_labels(), live.live_labels());
        assert_eq!(rec.engine.cluster_stats(), live.cluster_stats());
        assert_eq!(rec.engine.objective().to_bits(), live.objective().to_bits());
    }
}
