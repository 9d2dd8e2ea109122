//! A global allocator that counts allocations, for tests that bound how
//! often a code path allocates.
//!
//! [`CountingAlloc`] hands every request to [`System`] and counts, per
//! thread, each call that obtains memory: `alloc`, `alloc_zeroed` and
//! `realloc`. Counting per thread keeps a measurement on the test's own
//! thread exact while the test harness's other threads allocate.
//!
//! ```
//! use counting_alloc::{allocations, CountingAlloc};
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc;
//!
//! let before = allocations();
//! let v = vec![1u8; 16];
//! assert_eq!(allocations() - before, 1);
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// This thread's allocation count. Const-initialised and without a
    /// destructor, so reading it never allocates.
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// How many allocations the current thread has made so far through
/// [`CountingAlloc`].
pub fn allocations() -> u64 {
    COUNT.with(Cell::get)
}

fn count() {
    // `try_with`: a thread may still allocate while its locals are torn
    // down; that allocation is simply not counted.
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
}

/// [`System`], counting each allocation on the thread that makes it.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// thread-local `Cell` and never allocates.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}
