//! The metrics registry allocates only when a key is first written: updates
//! to an existing counter, gauge or histogram look the key up by `&str` and
//! allocate nothing. The daemon updates counters on every response, from
//! every batcher worker and connection thread, while holding the registry
//! lock, so a per-update `String` would be paid on the hottest path.
//!
//! A counting global allocator measures it. Only allocations made by the
//! thread that armed the counter are counted, so the test harness's own
//! threads cannot disturb the figure.

use routenet_obs::Telemetry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to the system allocator unchanged; the only
// addition is a relaxed counter bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by this thread while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn updates_to_existing_keys_allocate_nothing() {
    let tel = Telemetry::in_memory("alloc-test", "registry");
    // First writes insert the keys, and may allocate.
    tel.counter_add("serve.responses", 1);
    tel.gauge_set("serve.queue_len", 0.0);
    tel.observe_s("serve.latency_s", 1e-3);

    let n = 10_000u64;
    let allocs = allocations_during(|| {
        for i in 0..n {
            tel.counter_add("serve.responses", 1);
            tel.gauge_set("serve.queue_len", i as f64);
            tel.observe_s("serve.latency_s", 1e-3 + i as f64 * 1e-7);
        }
    });
    assert_eq!(allocs, 0, "{n} updates to existing keys allocated");

    // The updates landed.
    assert_eq!(tel.counter("serve.responses"), n + 1);
    assert_eq!(tel.gauge("serve.queue_len"), Some((n - 1) as f64));
    assert_eq!(
        tel.histogram_summary("serve.latency_s").map(|h| h.count),
        Some(n + 1)
    );

    // The counter is live: a first write to a new key is seen.
    assert!(allocations_during(|| tel.counter_add("serve.new_key", 1)) > 0);
}
