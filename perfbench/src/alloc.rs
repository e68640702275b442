//! A counting global allocator.
//!
//! Counts are kept per thread: the traced replays run each layer call on
//! the calling thread (the simulated network answers inline on the
//! sender's thread), so a per-thread count is exact and does not pick up
//! whatever the server's or the generator's threads allocate meanwhile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only while the thread's locals are being torn down;
    // allocations made then are not part of any measured window.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) made so far by
/// the calling thread.
pub fn thread_allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the only extra work is a
// thread-local counter update, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from this allocator, which hands out `System`
        // blocks, so `System.realloc` receives a block it allocated.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`, the block belongs to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}
