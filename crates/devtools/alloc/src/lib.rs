//! A counting global allocator for the bench suite.
//!
//! [`CountingAlloc`] wraps the system allocator and counts, per thread,
//! allocation calls and cumulative bytes requested, and, for the whole
//! process, bytes currently live and the high-water mark of live bytes.
//! The accounting itself never allocates, so installing it cannot perturb
//! what it measures beyond a few counter adds per call.
//!
//! Counting is compiled in only with the `count` feature (the bench suite
//! enables it; everyone else gets a zero-overhead passthrough), so linking
//! the crate costs nothing unless a binary explicitly opts into profiling.
//!
//! # Usage
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: wmn_alloc::CountingAlloc = wmn_alloc::CountingAlloc;
//!
//! let (result, stats) = wmn_alloc::measure(|| run_workload());
//! println!("{} allocations, peak {} bytes", stats.allocs, stats.peak_bytes_in_use);
//! ```
//!
//! [`measure`] reports the calls and bytes of the calling thread only, so
//! allocations made concurrently on other threads — a sibling test, the
//! test harness, or worker threads the measured code spawns — are not
//! counted. Its peak of live bytes is a process-wide high-water mark (live
//! bytes are freed on whichever thread drops them), so it is exact only
//! while nothing else allocates concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
#[cfg(feature = "count")]
use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(feature = "count")]
static BYTES_IN_USE: AtomicU64 = AtomicU64::new(0);
#[cfg(feature = "count")]
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

#[cfg(feature = "count")]
static PHASE_ALLOCS: [AtomicU64; Phase::COUNT] =
    [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];
#[cfg(feature = "count")]
static PHASE_BYTES: [AtomicU64; Phase::COUNT] =
    [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

#[cfg(feature = "count")]
thread_local! {
    /// The phase allocations on this thread are attributed to. Const-initialised
    /// `Cell<u8>` so reading it from inside the allocator never allocates
    /// (no lazy TLS init, no destructor registration).
    static CURRENT_PHASE: std::cell::Cell<u8> = const { std::cell::Cell::new(0) };
    /// Allocation calls made on this thread (const-initialised like
    /// `CURRENT_PHASE`, for the same reason).
    static THREAD_ALLOCS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Bytes requested by this thread's allocation calls.
    static THREAD_BYTES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A [`System`]-backed allocator that counts calls and bytes when the
/// `count` feature is on, and forwards untouched otherwise.
pub struct CountingAlloc;

#[cfg(feature = "count")]
fn on_alloc(bytes: usize) {
    let bytes = bytes as u64;
    THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
    THREAD_BYTES.with(|c| c.set(c.get() + bytes));
    let live = BYTES_IN_USE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    let phase = CURRENT_PHASE.with(|p| p.get()) as usize;
    PHASE_ALLOCS[phase].fetch_add(1, Ordering::Relaxed);
    PHASE_BYTES[phase].fetch_add(bytes, Ordering::Relaxed);
}

#[cfg(feature = "count")]
fn on_dealloc(bytes: usize) {
    BYTES_IN_USE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        #[cfg(feature = "count")]
        on_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        #[cfg(feature = "count")]
        on_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        #[cfg(feature = "count")]
        on_dealloc(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow/shrink counts as one allocation event for the new size;
        // the old block's bytes retire. This matches how a `Vec` growth
        // would look if it were a fresh alloc + copy + free, so
        // `allocs_per_frame` cannot be gamed by reallocating in place.
        #[cfg(feature = "count")]
        {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// A snapshot of allocator activity over one [`measure`] region.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocation calls on the measuring thread (including the alloc half
    /// of every realloc).
    pub allocs: u64,
    /// Total bytes requested across those calls.
    pub bytes_allocated: u64,
    /// High-water mark of live bytes during the region, measured from the
    /// region's own starting point (bytes already live at entry included).
    pub peak_bytes_in_use: u64,
}

/// Whether allocation counting is compiled in. `false` means every
/// [`AllocStats`] this process reports is all zeros.
pub const fn counting_enabled() -> bool {
    cfg!(feature = "count")
}

/// An attribution bucket for the scoped phase counters.
///
/// Hot-loop code marks its regions with [`phase_scope`]; every allocation
/// made on that thread while the guard lives is charged to the bucket, so
/// the bench suite can itemise *where* residual steady-state allocations
/// come from instead of reporting one opaque total. Anything outside a
/// scope lands in [`Phase::Unattributed`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Allocations made outside any phase scope (setup, result collection).
    Unattributed = 0,
    /// Frame assembly, MAC action dispatch, and broadcast — the transmit path.
    TxPath = 1,
    /// Interface-queue and transport enqueue traffic.
    Queue = 2,
    /// Event-loop bookkeeping: the future-event list and event payloads.
    EventLoop = 3,
}

impl Phase {
    /// Number of attribution buckets (array size for the counters).
    pub const COUNT: usize = 4;

    /// Every bucket, in counter order.
    pub const ALL: [Phase; Phase::COUNT] =
        [Phase::Unattributed, Phase::TxPath, Phase::Queue, Phase::EventLoop];

    /// Stable snake_case key for reports and JSON artefacts.
    pub const fn label(self) -> &'static str {
        match self {
            Phase::Unattributed => "unattributed",
            Phase::TxPath => "tx_path",
            Phase::Queue => "queue",
            Phase::EventLoop => "event_loop",
        }
    }
}

/// Cumulative per-phase allocator activity on this process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Allocation calls charged to the phase.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes_allocated: u64,
}

/// Attributes this thread's allocations to `phase` until the returned
/// guard drops. Scopes nest; the innermost wins, and dropping restores the
/// enclosing phase. Compiled to a no-op without the `count` feature, so
/// production binaries pay nothing for the markers.
pub fn phase_scope(phase: Phase) -> PhaseGuard {
    #[cfg(feature = "count")]
    {
        let prev = CURRENT_PHASE.with(|p| p.replace(phase as u8));
        PhaseGuard { prev }
    }
    #[cfg(not(feature = "count"))]
    {
        let _ = phase;
        PhaseGuard {}
    }
}

/// RAII guard of one [`phase_scope`]; restores the previous phase on drop.
#[must_use = "the phase lasts only while the guard lives"]
pub struct PhaseGuard {
    #[cfg(feature = "count")]
    prev: u8,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        #[cfg(feature = "count")]
        CURRENT_PHASE.with(|p| p.set(self.prev));
    }
}

/// Cumulative per-phase totals since process start, indexed like
/// [`Phase::ALL`]. Callers wanting a region's attribution snapshot this
/// before and after and subtract.
pub fn phase_totals() -> [PhaseStats; Phase::COUNT] {
    #[allow(unused_mut)]
    let mut out = [PhaseStats::default(); Phase::COUNT];
    #[cfg(feature = "count")]
    for (i, slot) in out.iter_mut().enumerate() {
        slot.allocs = PHASE_ALLOCS[i].load(Ordering::Relaxed);
        slot.bytes_allocated = PHASE_BYTES[i].load(Ordering::Relaxed);
    }
    out
}

/// Runs `f` and reports the allocator activity it caused on the calling
/// thread. Allocations on other threads, including threads `f` itself
/// spawns, are excluded from `allocs` and `bytes_allocated`; the peak is
/// process-wide (see the crate docs).
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, AllocStats) {
    #[cfg(feature = "count")]
    {
        let calls_before = THREAD_ALLOCS.with(std::cell::Cell::get);
        let bytes_before = THREAD_BYTES.with(std::cell::Cell::get);
        // Rebase the high-water mark to the region entry so the reported
        // peak is this region's own, not some earlier workload's.
        PEAK_BYTES.store(BYTES_IN_USE.load(Ordering::Relaxed), Ordering::Relaxed);
        let value = f();
        let stats = AllocStats {
            allocs: THREAD_ALLOCS.with(std::cell::Cell::get) - calls_before,
            bytes_allocated: THREAD_BYTES.with(std::cell::Cell::get) - bytes_before,
            peak_bytes_in_use: PEAK_BYTES.load(Ordering::Relaxed),
        };
        (value, stats)
    }
    #[cfg(not(feature = "count"))]
    {
        (f(), AllocStats::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary installs the counting allocator for itself; these
    // tests are meaningless (all-zero stats) without the feature.
    #[cfg(feature = "count")]
    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    #[test]
    fn measure_counts_a_boxed_alloc() {
        let (_, stats) = measure(|| std::hint::black_box(vec![0u8; 4096]));
        if counting_enabled() {
            assert!(stats.allocs >= 1, "a 4 KiB Vec must register");
            assert!(stats.bytes_allocated >= 4096);
            assert!(stats.peak_bytes_in_use >= 4096);
        } else {
            assert_eq!(stats, AllocStats::default());
        }
    }

    #[test]
    fn phase_scopes_attribute_and_nest() {
        let before = phase_totals();
        {
            let _queue = phase_scope(Phase::Queue);
            std::hint::black_box(vec![0u8; 1024]);
            {
                let _tx = phase_scope(Phase::TxPath);
                std::hint::black_box(vec![0u8; 2048]);
            }
            // Back in the queue scope after the inner guard dropped.
            std::hint::black_box(vec![0u8; 512]);
        }
        let after = phase_totals();
        let delta = |p: Phase| {
            (
                after[p as usize].allocs - before[p as usize].allocs,
                after[p as usize].bytes_allocated - before[p as usize].bytes_allocated,
            )
        };
        if counting_enabled() {
            let (q_allocs, q_bytes) = delta(Phase::Queue);
            let (tx_allocs, tx_bytes) = delta(Phase::TxPath);
            assert!(q_allocs >= 2, "both queue-scoped Vecs must be charged to Queue");
            assert!(q_bytes >= 1024 + 512);
            assert!(tx_allocs >= 1, "the nested Vec must be charged to TxPath");
            assert!(tx_bytes >= 2048);
        } else {
            assert_eq!(after, before, "phase counters stay zero without `count`");
        }
    }

    #[test]
    fn phase_labels_are_stable_report_keys() {
        let labels: Vec<&str> = Phase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels, vec!["unattributed", "tx_path", "queue", "event_loop"]);
    }

    #[test]
    fn measure_excludes_allocations_on_other_threads() {
        let (bytes, stats) = measure(|| {
            std::thread::scope(|scope| {
                scope.spawn(|| std::hint::black_box(vec![0u8; 1 << 20]).len()).join().unwrap()
            })
        });
        assert_eq!(bytes, 1 << 20);
        // Spawning the thread allocates on this thread (its handle and
        // closure packet); the 1 MiB buffer must not be among those bytes.
        assert!(
            stats.bytes_allocated < 1 << 20,
            "the spawned thread's 1 MiB was counted: {stats:?}"
        );
    }

    #[test]
    fn measure_of_pure_arithmetic_is_allocation_free() {
        let (sum, stats) = measure(|| (0u64..100).map(std::hint::black_box).sum::<u64>());
        assert_eq!(sum, 4950);
        assert_eq!(stats.allocs, 0, "no heap traffic from register arithmetic");
        assert_eq!(stats.bytes_allocated, 0);
    }
}
