//! Allocation gate for the trace reader: counts allocator calls and
//! live heap bytes while `read_trace_sanitized` reads a simulated
//! 200-sensor × 2-day CSV from memory. Both bounds are counts, not
//! timings, so they hold on any host.
//!
//! - Allocations: at most one per accepted reading (its values, copied
//!   out at exact length) plus a constant for the growing buffers.
//! - Peak live heap: within 10 % of what the returned trace and report
//!   keep, so no second copy of the rows is ever live.
//!
//! Run it with `cargo test -p sentinet-sim --test read_alloc`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sentinet_sim::{gdi, read_trace_sanitized, simulate, write_trace, SimConfig, DAY_S};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to [`System`], counting calls and live bytes. A `realloc`
/// counts as one call and moves the live total by the size change.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; the counters only observe.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::SeqCst);
        grew(layout.size());
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::SeqCst);
        grew(layout.size());
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::SeqCst);
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::SeqCst);
        }
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn sanitized_read_allocates_once_per_reading_and_holds_one_copy() {
    let cfg = SimConfig {
        num_sensors: 200,
        duration: 2 * DAY_S,
        ..gdi::day_config()
    };
    let trace = simulate(&cfg, &mut StdRng::seed_from_u64(11));
    let mut csv = Vec::new();
    write_trace(&trace, cfg.ranges.len(), &mut csv).unwrap();
    drop(trace);

    let calls_before = CALLS.load(Ordering::SeqCst);
    let live_before = LIVE.load(Ordering::SeqCst);
    PEAK.store(live_before, Ordering::SeqCst);
    let (read, report) = read_trace_sanitized(&csv[..]).unwrap();
    let calls = CALLS.load(Ordering::SeqCst) - calls_before;
    let peak = PEAK.load(Ordering::SeqCst) - live_before;
    let retained = LIVE.load(Ordering::SeqCst) - live_before;

    assert!(report.is_clean());
    assert!(report.accepted > 50_000, "{} accepted", report.accepted);
    assert!(
        calls <= report.accepted + 64,
        "{calls} allocations for {} accepted readings ({:.2} per reading)",
        report.accepted,
        calls as f64 / report.accepted as f64
    );
    assert!(
        peak as f64 <= 1.1 * retained as f64,
        "peak live heap {peak} B is {:.2}x the {retained} B the result retains",
        peak as f64 / retained as f64
    );
    assert_eq!(read.len(), 200 * 576);
}
