//! Proof that causal-id tracking is free when tracing is detached:
//! allocating ids, stamping them onto packets, and comparing them performs
//! no heap allocation. Companion to the sim crate's counting-allocator
//! test for the trace recorder itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sesame_net::{CauseAlloc, CauseId};

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Thread-local so that the test
    /// harness and sibling tests running on other threads cannot leak
    /// into a measured window. Const-initialized with no destructor, so
    /// touching it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the slot is unavailable while the thread is torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn allocating_causal_ids_never_touches_the_heap() {
    let mut alloc = CauseAlloc::new();
    let before = allocations();
    let mut last = CauseId::NONE;
    for _ in 0..100_000 {
        let id = alloc.fresh();
        assert!(id.is_some() && id > last);
        last = id;
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "causal-id allocation must be a bare counter increment"
    );
    assert_eq!(alloc.allocated(), 100_000);
}
