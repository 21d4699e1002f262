//! Runtime invariant sanitizer — the dynamic cross-check for ndlint's
//! static concurrency rules. Compiled to no-ops unless the build sets
//! `RUSTFLAGS='--cfg ndpipe_sanitize'` (CI runs the failover,
//! event-server and pipelined FT-DMP suites once in that configuration;
//! see scripts/check.sh).
//!
//! Two witnesses:
//!
//! - **Lock-ordering witness**: every instrumented acquisition pushes
//!   `(rank, name)` onto a thread-local stack and panics if the new rank
//!   is *lower* than the rank currently on top — i.e. the thread is
//!   acquiring against the declared global order and a concurrent thread
//!   walking the same pair in declared order could deadlock it. The
//!   declared order (low rank acquired first) mirrors ndlint's
//!   `lock_order` acquisition graph:
//!
//!   | rank | lock |
//!   |-----:|------|
//!   | 10   | `store` — the `RwLock<PipeStore>` every RPC path enters |
//!   | 20   | `placement` — the epoch-versioned placement map |
//!   | 30   | `photos` — per-bucket photo-record locks |
//!   | 40   | `published` — the published-model snapshot |
//!   | 50   | `feature_cache` — a store's cached FT-DMP feature slices (held for lookup and insert only) |
//!   | 90   | `first_error` — terminal error slot (leaf; never nests) |
//!
//! - **Channel-depth watchdog**: send-side sampling of the bounded
//!   queues. Panics if a queue ever reports a depth above its declared
//!   capacity (a broken bound) and records per-queue high-water marks
//!   that soak/failover tests assert against via [`high_water`].
//!
//! The no-op variants keep the exact same signatures, so call sites need
//! no `cfg` of their own and the instrumented binary differs only by the
//! flag.

/// Acquisition rank of the `RwLock<PipeStore>` store lock.
pub const RANK_STORE: u8 = 10;
/// Acquisition rank of the placement-map lock.
pub const RANK_PLACEMENT: u8 = 20;
/// Acquisition rank of the photo-bucket locks.
pub const RANK_PHOTOS: u8 = 30;
/// Acquisition rank of the published-model lock.
pub const RANK_PUBLISHED: u8 = 40;
/// Acquisition rank of a store's feature-cache lock.
pub const RANK_FEATURES: u8 = 50;
/// Acquisition rank of the server's terminal-error slot (leaf).
pub const RANK_FIRST_ERROR: u8 = 90;

#[cfg(ndpipe_sanitize)]
mod active {
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    thread_local! {
        static LOCK_STACK: RefCell<Vec<(u8, &'static str)>> = const { RefCell::new(Vec::new()) };
    }

    /// Total witness validations performed (both kinds), for the tests'
    /// "the sanitizer actually ran" sanity check.
    static CHECKS: AtomicU64 = AtomicU64::new(0);

    /// Per-queue high-water marks, keyed by queue name.
    static HIGH_WATER: Mutex<BTreeMap<&'static str, usize>> = Mutex::new(BTreeMap::new());

    /// RAII witness for one instrumented lock acquisition.
    pub struct OrderWitness {
        rank: u8,
    }

    /// Validates `rank` against the thread's acquisition stack; panics
    /// on inversion. The returned witness pops on drop, so hold it
    /// exactly as long as the guard it shadows.
    #[track_caller]
    pub fn order(rank: u8, name: &'static str) -> OrderWitness {
        // ndlint: allow(relaxed, reason = "monotone diagnostics counter; tests only need an eventually-visible lower bound")
        CHECKS.fetch_add(1, Ordering::Relaxed);
        LOCK_STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(&(top_rank, top_name)) = s.last() {
                assert!(
                    top_rank <= rank,
                    "ndpipe_sanitize: lock-order violation: acquiring `{name}` \
                     (rank {rank}) while `{top_name}` (rank {top_rank}) is \
                     held; declared order requires `{name}` first"
                );
            }
            s.push((rank, name));
        });
        OrderWitness { rank }
    }

    impl Drop for OrderWitness {
        fn drop(&mut self) {
            LOCK_STACK.with(|s| {
                let mut s = s.borrow_mut();
                // Pop the most recent entry of this rank — witnesses of
                // equal rank are indistinguishable and interchangeable.
                if let Some(i) = s.iter().rposition(|&(r, _)| r == self.rank) {
                    s.remove(i);
                }
            });
        }
    }

    /// Records a bounded queue's depth at a send; panics if the bound is
    /// broken.
    #[track_caller]
    pub fn channel_depth(name: &'static str, len: usize, cap: usize) {
        // ndlint: allow(relaxed, reason = "monotone diagnostics counter; tests only need an eventually-visible lower bound")
        CHECKS.fetch_add(1, Ordering::Relaxed);
        assert!(
            len <= cap,
            "ndpipe_sanitize: bounded queue `{name}` reports depth {len} \
             above its capacity {cap}"
        );
        let mut hw = HIGH_WATER.lock().unwrap_or_else(|e| e.into_inner());
        let entry = hw.entry(name).or_insert(0);
        if len > *entry {
            *entry = len;
        }
    }

    /// High-water mark recorded for `name` (0 if never sampled).
    pub fn high_water(name: &str) -> usize {
        let hw = HIGH_WATER.lock().unwrap_or_else(|e| e.into_inner());
        hw.get(name).copied().unwrap_or(0)
    }

    /// Number of witness validations performed so far, process-wide.
    pub fn checks_performed() -> u64 {
        // ndlint: allow(relaxed, reason = "diagnostics read; a stale lower bound is acceptable to the asserting test")
        CHECKS.load(Ordering::Relaxed)
    }
}

#[cfg(ndpipe_sanitize)]
pub use active::{channel_depth, checks_performed, high_water, order, OrderWitness};

#[cfg(not(ndpipe_sanitize))]
mod inert {
    /// No-op stand-in; constructing it costs nothing.
    pub struct OrderWitness;

    #[inline(always)]
    pub fn order(_rank: u8, _name: &'static str) -> OrderWitness {
        OrderWitness
    }

    #[inline(always)]
    pub fn channel_depth(_name: &'static str, _len: usize, _cap: usize) {}

    #[inline(always)]
    pub fn high_water(_name: &str) -> usize {
        0
    }

    #[inline(always)]
    pub fn checks_performed() -> u64 {
        0
    }
}

#[cfg(not(ndpipe_sanitize))]
pub use inert::{channel_depth, checks_performed, high_water, order, OrderWitness};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_acquisition_is_quiet() {
        let a = order(RANK_STORE, "store");
        let b = order(RANK_PUBLISHED, "published");
        drop(b);
        drop(a);
    }

    #[cfg(ndpipe_sanitize)]
    #[test]
    fn inverted_acquisition_panics() {
        let result = std::panic::catch_unwind(|| {
            let _hi = order(RANK_FIRST_ERROR, "first_error");
            let _lo = order(RANK_STORE, "store");
        });
        assert!(result.is_err(), "inversion must panic under the sanitizer");
        // The unwound witnesses must not poison this thread's stack.
        let _ok = order(RANK_STORE, "store");
    }

    #[cfg(ndpipe_sanitize)]
    #[test]
    fn broken_bound_panics_and_high_water_tracks() {
        channel_depth("test.queue", 3, 8);
        channel_depth("test.queue", 5, 8);
        assert_eq!(high_water("test.queue"), 5);
        let result = std::panic::catch_unwind(|| channel_depth("test.queue", 9, 8));
        assert!(result.is_err());
        assert!(checks_performed() >= 3);
    }

    #[cfg(not(ndpipe_sanitize))]
    #[test]
    fn inert_build_reports_nothing() {
        channel_depth("test.queue", usize::MAX, 0); // would panic if active
        assert_eq!(high_water("test.queue"), 0);
        assert_eq!(checks_performed(), 0);
    }
}
