//! Minimal, dependency-free stand-in for `arc-swap`: an [`ArcSwap`] cell
//! holding an `Arc<T>` that readers use without ever blocking behind a
//! writer.
//!
//! Only the shape this workspace uses is provided: `new`, `read`,
//! `load_full`, `store`, and `swap`. The implementation is a
//! two-generation ("epoch-parity") RCU rather than arc-swap's debt lists,
//! which is plenty for the reference monitor's rare-writer / hot-reader
//! pattern:
//!
//! * **Readers are lock-free and write no shared line.** [`read`]
//!   pins one of two generation counters, validates the epoch, runs the
//!   caller's closure on `&T` in place, and unpins. The pin counters live
//!   in a fixed array of cache-line-aligned stripes; a thread always pins its
//!   own stripe (picked once, round-robin), so readers on different
//!   threads touch different lines and the `Arc`'s strong count is never
//!   written. [`load_full`] is `read` with a closure that clones the
//!   `Arc`, for holders that outlive a short borrow.
//! * **Writers are serialized and briefly blocking.** A store swaps the
//!   pointer, flips the epoch, then waits for readers pinned on the
//!   *previous* parity — on every stripe — to drain before releasing the
//!   old `Arc`. Writers are expected to be rare and batched.
//!
//! [`read`]: ArcSwap::read
//! [`load_full`]: ArcSwap::load_full
//!
//! # The contract of `read`
//!
//! A reader's pin is held for the whole of its closure, and a writer
//! waits for it. So the closure must be **short** (an index probe, a
//! field copy — not I/O, not caller-supplied code of unknown length), and
//! it must **not `store` or `swap` the same cell**: that writer would wait
//! for its own pin. Anything long-lived or arbitrary takes
//! [`load_full`](ArcSwap::load_full) and runs outside the pin. Nested
//! `read`/`load_full` of the same cell inside the closure is fine; neither
//! ever waits.
//!
//! # Why this is sound
//!
//! The reader protocol is pin (its stripe, parity `e mod 2` of the epoch
//! `e` it just read) → validate epoch → load pointer → re-validate epoch →
//! run the closure on the pointee → unpin. The writer protocol (under the
//! writer mutex) is swap pointer → increment epoch → wait, on **every**
//! stripe, for the pre-flip parity's pin count to reach zero → release the
//! old `Arc`.
//!
//! Suppose a reader passes both validations against epoch value `e`
//! (full 64-bit value, so no parity ABA). Then no epoch increment
//! became visible between its pin and its pointer load, and the loaded
//! pointer `p` was the cell's value inside that window. Whichever
//! writer later swaps `p` out must increment the epoch from some
//! `e' >= e` and then wait for all pins on parity `e' mod 2`, on every
//! stripe. If `e' = e` that wait includes this reader's pin, whatever
//! stripe holds it, and the pin is released only after the closure
//! returned. If `e' > e`, some earlier writer already performed the
//! `e -> e+1` increment, and *that* writer's grace period waited on this
//! reader's pin (parity `e mod 2`, its stripe among all of them) —
//! writers are serialized by the mutex, so the `p`-freeing writer cannot
//! even start until the closure has returned. Either way the cell's
//! reference to `p` is released strictly after the closure's last use of
//! `&*p`, so `p` is never dereferenced after its last `Arc` drops; a
//! `load_full` closure bumps the strong count inside that window, so its
//! `Arc` is a reference of its own.
//!
//! The pin/validate handshake itself is the Dekker pattern (reader:
//! write pin, read epoch; writer: write epoch, read pins) and all the
//! participating atomics are `SeqCst`, so at least one side always
//! observes the other: a reader that missed the flip is seen by the
//! writer's drain loop — which reads every stripe, so the reader's among
//! them — and a reader the writer missed sees the flip and retries.
//! Threads that share a stripe (more threads than stripes) share its
//! counters: the counts add, the drain waits for all of them, and only
//! speed suffers.

use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

/// How many pin stripes a cell has: threads beyond this many share one.
const STRIPES: usize = 16;

/// One stripe's pin counters, one per epoch parity, alone on its cache
/// lines (128 bytes covers adjacent-line prefetch).
#[repr(align(128))]
struct Stripe([AtomicUsize; 2]);

/// Hands each thread its stripe, round-robin in first-use order.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Relaxed: the index only spreads threads over stripes; it publishes
    // nothing, and any value is correct.
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Relaxed) % STRIPES;
}

/// Releases a pin when dropped, so a panicking closure still unpins.
struct Pin<'a>(&'a AtomicUsize);

impl Drop for Pin<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, SeqCst);
    }
}

/// A cell holding an `Arc<T>` with lock-free reads and serialized,
/// grace-period stores.
pub struct ArcSwap<T> {
    /// In-flight reader pins, per stripe and epoch parity.
    stripes: [Stripe; STRIPES],
    /// Raw pointer from `Arc::into_raw`; the cell always owns exactly one
    /// strong reference to the pointee.
    ptr: AtomicPtr<T>,
    /// Full epoch value; low bit selects the active reader generation.
    epoch: AtomicU64,
    /// Serializes writers (readers never touch it).
    writer: Mutex<()>,
}

// SAFETY: the cell owns an `Arc<T>` (`ptr`) that other threads borrow
// (`read` hands out `&T`) and clone (`load_full`), and a writer on any
// thread may drop it — the bounds `Arc<T>` itself needs to be `Send` and
// `Sync`. The remaining fields are atomics and a `Mutex<()>`.
unsafe impl<T: Send + Sync> Send for ArcSwap<T> {}
// SAFETY: as for `Send`: shared access only ever reads the pointee
// through `&T` or clones and drops `Arc<T>`s, which `T: Send + Sync`
// permits from any thread.
unsafe impl<T: Send + Sync> Sync for ArcSwap<T> {}

impl<T> ArcSwap<T> {
    /// Wraps an initial value.
    pub fn new(value: Arc<T>) -> Self {
        ArcSwap {
            stripes: std::array::from_fn(|_| Stripe([AtomicUsize::new(0), AtomicUsize::new(0)])),
            ptr: AtomicPtr::new(Arc::into_raw(value) as *mut T),
            epoch: AtomicU64::new(0),
            writer: Mutex::new(()),
        }
    }

    /// Wraps a value, allocating the `Arc`.
    pub fn from_pointee(value: T) -> Self {
        ArcSwap::new(Arc::new(value))
    }

    /// Runs `f` on the current value in place and returns its result.
    /// Lock-free, and it never touches the `Arc`'s count: it pins the
    /// calling thread's stripe, retrying only when a writer flipped the
    /// epoch inside the (nanoseconds-wide) validation window, and unpins
    /// when `f` returns or unwinds.
    ///
    /// `f` must be short and must not `store` or `swap` this cell; see
    /// the [module docs](self).
    pub fn read<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let pins = &self.stripes[STRIPE.with(|s| *s)].0;
        loop {
            let e = self.epoch.load(SeqCst);
            let pin = Pin(&pins[(e & 1) as usize]);
            pin.0.fetch_add(1, SeqCst);
            if self.epoch.load(SeqCst) == e {
                let p = self.ptr.load(SeqCst);
                if self.epoch.load(SeqCst) == e {
                    // SAFETY: both validations read epoch `e`, so `p` was
                    // the published pointer while this thread's pin on
                    // parity `e & 1` was visible; per the module-level
                    // argument every writer that could release `p` first
                    // drains that parity on every stripe, and `pin` is
                    // dropped only after `f` returns or unwinds.
                    return f(unsafe { &*p });
                }
            }
            drop(pin);
            std::hint::spin_loop();
        }
    }

    /// Loads the current value as an owned `Arc`: a [`read`](Self::read)
    /// that clones. For holders that keep the value past a short borrow.
    pub fn load_full(&self) -> Arc<T> {
        self.read(|value| {
            let p: *const T = value;
            // SAFETY: `p` is the cell's `Arc` pointee, kept alive by the
            // pin `read` holds until this closure returns; the strong
            // count bumped here is handed to the new `Arc`.
            unsafe {
                Arc::increment_strong_count(p);
                Arc::from_raw(p)
            }
        })
    }

    /// Publishes `new`, releasing the cell's reference to the previous
    /// value after the grace period.
    pub fn store(&self, new: Arc<T>) {
        drop(self.swap(new));
    }

    /// Publishes `new` and returns the previous value.
    pub fn swap(&self, new: Arc<T>) -> Arc<T> {
        let _guard = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let e = self.epoch.load(SeqCst);
        let slot = (e & 1) as usize;
        let old = self.ptr.swap(Arc::into_raw(new) as *mut T, SeqCst);
        self.epoch.store(e + 1, SeqCst);
        // Grace period: readers pinned on the pre-flip parity either saw
        // the flip (and retried onto the new parity) or may still be
        // using a pointer this writer is about to release — wait them
        // out, on every stripe.
        for stripe in &self.stripes {
            while stripe.0[slot].load(SeqCst) != 0 {
                std::thread::yield_now();
            }
        }
        // SAFETY: `old` came from `Arc::into_raw` and the cell's strong
        // reference to it is transferred to the returned Arc; no reader
        // can still be using it (drained above).
        unsafe { Arc::from_raw(old) }
    }
}

impl<T> Drop for ArcSwap<T> {
    fn drop(&mut self) {
        // SAFETY: the cell owns one strong reference to the current
        // pointee; `&mut self` means no readers exist.
        unsafe { drop(Arc::from_raw(self.ptr.load(SeqCst))) };
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ArcSwap<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArcSwap")
            .field("value", &self.load_full())
            .field("epoch", &self.epoch.load(SeqCst))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn load_and_store_round_trip() {
        let cell = ArcSwap::from_pointee(1u32);
        assert_eq!(*cell.load_full(), 1);
        assert_eq!(cell.read(|v| *v), 1);
        cell.store(Arc::new(2));
        assert_eq!(*cell.load_full(), 2);
        let old = cell.swap(Arc::new(3));
        assert_eq!(*old, 2);
        assert_eq!(cell.read(|v| *v), 3);
    }

    #[test]
    fn refcounts_balance() {
        let first = Arc::new(10u32);
        let cell = ArcSwap::new(Arc::clone(&first));
        let loaded = cell.load_full();
        assert_eq!(Arc::strong_count(&first), 3); // first + cell + loaded
        cell.read(|v| {
            assert_eq!(*v, 10);
            assert_eq!(Arc::strong_count(&first), 3, "read takes no count");
        });
        cell.store(Arc::new(11));
        assert_eq!(Arc::strong_count(&first), 2); // cell's ref released
        drop(loaded);
        assert_eq!(Arc::strong_count(&first), 1);
    }

    #[test]
    fn dropping_the_cell_releases_the_value() {
        let value = Arc::new(5u32);
        let cell = ArcSwap::new(Arc::clone(&value));
        drop(cell);
        assert_eq!(Arc::strong_count(&value), 1);
    }

    #[test]
    fn a_panicking_reader_unpins() {
        let cell = ArcSwap::from_pointee(1u32);
        let caught = std::panic::catch_unwind(|| cell.read(|_| panic!("reader fails")));
        assert!(caught.is_err());
        // A leaked pin would make this swap wait forever.
        cell.store(Arc::new(2));
        assert_eq!(cell.read(|v| *v), 2);
    }

    /// Marks `dropped[id]` when freed, so a test can see whether a value
    /// a reader still uses was released under it.
    struct Tracked<'a> {
        id: usize,
        dropped: &'a [AtomicBool],
    }

    impl Drop for Tracked<'_> {
        fn drop(&mut self) {
            self.dropped[self.id].store(true, Ordering::SeqCst);
        }
    }

    /// A reader parked inside `read` holds the writer: `swap` does not
    /// return, and the old value is not dropped, until the closure exits.
    #[test]
    fn swap_waits_for_a_reader_inside_read() {
        let dropped = [AtomicBool::new(false), AtomicBool::new(false)];
        let cell = ArcSwap::from_pointee(Tracked {
            id: 0,
            dropped: &dropped,
        });
        let pinned = Barrier::new(2);
        let swap_returned = AtomicBool::new(false);
        let closure_exited = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                cell.read(|v| {
                    assert_eq!(v.id, 0);
                    pinned.wait();
                    // Wait until the writer has published and flipped, so
                    // it is now in its grace period, waiting on this pin.
                    while cell.epoch.load(SeqCst) == 0 {
                        std::thread::yield_now();
                    }
                    for _ in 0..100 {
                        std::thread::yield_now();
                    }
                    assert!(!swap_returned.load(SeqCst), "swap returned under a pin");
                    assert!(!dropped[0].load(SeqCst), "value freed under a pin");
                    assert_eq!(v.id, 0);
                    closure_exited.store(true, SeqCst);
                });
            });
            s.spawn(|| {
                pinned.wait();
                let old = cell.swap(Arc::new(Tracked {
                    id: 1,
                    dropped: &dropped,
                }));
                swap_returned.store(true, SeqCst);
                assert!(
                    closure_exited.load(SeqCst),
                    "swap returned before the reader left"
                );
                assert!(!dropped[0].load(SeqCst));
                drop(old);
                assert!(dropped[0].load(SeqCst));
            });
        });
        assert_eq!(cell.read(|v| v.id), 1);
        assert!(!dropped[1].load(SeqCst));
    }

    /// Hammer the cell from more readers than stripes, half through
    /// `read` and half through `load_full`, while a writer republishes
    /// continuously. Each published value is internally consistent
    /// (`(n, n)` pairs), so a torn or dangling read would show up as a
    /// mismatched pair; and each value marks itself dropped, so a reader
    /// still using a released value fails outright.
    #[test]
    fn concurrent_readers_see_only_published_pairs() {
        const VALUES: usize = 10_000;
        struct Pair<'a> {
            n: u64,
            m: u64,
            _tracked: Tracked<'a>,
        }
        let dropped: Vec<AtomicBool> = (0..=VALUES).map(|_| AtomicBool::new(false)).collect();
        let pair = |n: u64| Pair {
            n,
            m: n,
            _tracked: Tracked {
                id: n as usize,
                dropped: &dropped,
            },
        };
        let cell = ArcSwap::from_pointee(pair(0));
        let stop = AtomicBool::new(false);
        let reads = AtomicUsize::new(0);
        let start = Barrier::new(STRIPES + 3);
        let check = |v: &Pair, last: &mut u64| {
            assert_eq!(v.n, v.m, "torn read");
            assert!(v.n >= *last, "went backwards");
            assert!(!dropped[v.n as usize].load(SeqCst), "dropped while in use");
            *last = v.n;
        };
        std::thread::scope(|s| {
            for reader in 0..STRIPES + 2 {
                let (cell, stop, reads, start, check) = (&cell, &stop, &reads, &start, &check);
                s.spawn(move || {
                    let mut last = 0;
                    start.wait();
                    while !stop.load(Ordering::Relaxed) {
                        if reader % 2 == 0 {
                            cell.read(|v| {
                                check(v, &mut last);
                                std::hint::spin_loop();
                                check(v, &mut last);
                            });
                        } else {
                            let v = cell.load_full();
                            check(&v, &mut last);
                            std::thread::yield_now();
                            check(&v, &mut last);
                        }
                        reads.fetch_add(1, Ordering::Relaxed);
                        // Yield outside any pin: with more threads than
                        // cores, readers preempted inside their pins would
                        // hold each grace period for a scheduling round.
                        std::thread::yield_now();
                    }
                });
            }
            s.spawn(|| {
                start.wait();
                for n in 1..=VALUES {
                    cell.store(Arc::new(pair(n as u64)));
                    // Pace the writer to the readers, so every value is
                    // published under reads in flight.
                    while reads.load(Ordering::Relaxed) < n {
                        std::thread::yield_now();
                    }
                }
                stop.store(true, Ordering::Relaxed);
            });
        });
        assert_eq!(cell.load_full().n, VALUES as u64);
        let freed = dropped.iter().filter(|d| d.load(SeqCst)).count();
        assert_eq!(freed, VALUES, "every value but the current one freed");
    }
}
