//! The metric primitives: atomic counters, gauges, log-bucketed
//! histograms and RAII span timers.
//!
//! Every type is a cheap-to-clone handle around shared atomics, so call
//! sites resolve a metric once (at construction / session start) and the
//! hot path never touches the registry.

use crate::snapshot::HistogramSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of log₂ buckets; bucket `i` holds values in
/// `(2^(i-1-BUCKET_SHIFT), 2^(i-BUCKET_SHIFT)]`.
pub const BUCKETS: usize = 64;
/// Exponent offset: bucket 0's upper bound is `2^-BUCKET_SHIFT`.
const BUCKET_SHIFT: i64 = 26;

/// Upper bound of bucket `i` (`2^(i - BUCKET_SHIFT)`), spanning ~15 ns
/// at the bottom to ~1.4e11 at the top — wide enough for latencies in
/// seconds, payloads in bytes and dimensionless ratios alike.
pub fn bucket_upper(i: usize) -> f64 {
    ((i as i64 - BUCKET_SHIFT) as f64).exp2()
}

/// Smallest bucket whose upper bound is ≥ `v`.
#[allow(
    clippy::neg_cmp_op_on_partial_ord,
    reason = "`!(v > 0.0)` sends NaN to bucket 0 along with non-positive values"
)]
pub fn bucket_index(v: f64) -> usize {
    if !(v > 0.0) {
        return 0;
    }
    let idx = v.log2().ceil() as i64 + BUCKET_SHIFT;
    idx.clamp(0, BUCKETS as i64 - 1) as usize
}

/// Lock-free `f64` accumulator over an `AtomicU64` bit pattern.
#[derive(Debug, Default)]
struct AtomicF64(AtomicU64);

impl AtomicF64 {
    fn get(&self) -> f64 {
        // ndlint: allow(relaxed, reason = "single scalar sample; scrapes tolerate torn-free stale reads, no dependent data")
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn set(&self, v: f64) {
        // ndlint: allow(relaxed, reason = "single scalar sample; nothing is published through a gauge store")
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    fn update(&self, f: impl Fn(f64) -> f64) {
        // ndlint: allow(relaxed, reason = "CAS retry loop over one scalar; the value itself carries all the state")
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = f(f64::from_bits(cur)).to_bits();
            match self.0.compare_exchange_weak(
                cur,
                next,
                // ndlint: allow(relaxed, reason = "CAS on one self-contained scalar; no other memory is ordered by it")
                Ordering::Relaxed,
                // ndlint: allow(relaxed, reason = "failure ordering of the same self-contained CAS")
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// A monotonically increasing `u64` (requests, bytes, items).
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh, unregistered counter (usually obtained from a
    /// [`crate::Registry`] instead).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        // ndlint: allow(relaxed, reason = "pure monotonic counter; scrapes only need eventual visibility")
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ndlint: allow(relaxed, reason = "pure monotonic counter; a slightly stale scrape is correct by design")
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous `f64` (queue depth, occupancy, live objects).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicF64>);

impl Gauge {
    /// A fresh, unregistered gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Replaces the value.
    pub fn set(&self, v: f64) {
        self.0.set(v);
    }

    /// Adds `v` (may be negative).
    pub fn add(&self, v: f64) {
        self.0.update(|cur| cur + v);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        self.0.get()
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicF64,
    min: AtomicF64,
    max: AtomicF64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicF64::default(),
            min: AtomicF64(AtomicU64::new(f64::INFINITY.to_bits())),
            max: AtomicF64(AtomicU64::new(f64::NEG_INFINITY.to_bits())),
        }
    }
}

/// A log₂-bucketed value distribution: O(1) observation, quantile
/// estimates by within-bucket interpolation.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// A fresh, unregistered histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one value. Non-finite values are dropped.
    pub fn observe(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let c = &self.0;
        // ndlint: allow(relaxed, reason = "independent monotonic bucket tallies; snapshots are documented as consistent-enough, not atomic")
        c.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        // ndlint: allow(relaxed, reason = "monotonic observation counter; same consistent-enough snapshot contract")
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.update(|s| s + v);
        c.min.update(|m| m.min(v));
        c.max.update(|m| m.max(v));
    }

    /// Starts a scoped timer that observes the elapsed seconds on drop.
    pub fn start_timer(&self) -> SpanTimer {
        SpanTimer {
            hist: self.clone(),
            start: Instant::now(),
            armed: true,
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        // ndlint: allow(relaxed, reason = "monotonic counter read; staleness is acceptable to scrapes")
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.0.sum.get()
    }

    /// A consistent-enough point-in-time copy (buckets are read one by
    /// one; concurrent writers may skew totals by in-flight updates).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let c = &self.0;
        // ndlint: allow(relaxed, reason = "snapshot is documented as consistent-enough; per-bucket skew from in-flight updates is accepted")
        let count = c.count.load(Ordering::Relaxed);
        let mut buckets = Vec::new();
        for (i, b) in c.buckets.iter().enumerate() {
            // ndlint: allow(relaxed, reason = "same consistent-enough snapshot contract as the count read above")
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((bucket_upper(i), n));
            }
        }
        HistogramSnapshot {
            count,
            sum: c.sum.get(),
            min: if count == 0 { 0.0 } else { c.min.get() },
            max: if count == 0 { 0.0 } else { c.max.get() },
            buckets,
        }
    }

    /// Estimated quantile `q` in `[0, 1]`; see
    /// [`HistogramSnapshot::quantile`].
    pub fn quantile(&self, q: f64) -> f64 {
        self.snapshot().quantile(q)
    }
}

/// RAII stage timer: records elapsed wall-clock seconds into its
/// histogram when dropped (or explicitly via
/// [`SpanTimer::observe_and_disarm`]).
#[derive(Debug)]
pub struct SpanTimer {
    hist: Histogram,
    start: Instant,
    armed: bool,
}

impl SpanTimer {
    /// Seconds elapsed so far.
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Records now and disarms the drop-time observation, returning the
    /// elapsed seconds.
    pub fn observe_and_disarm(mut self) -> f64 {
        let secs = self.elapsed_secs();
        self.hist.observe(secs);
        self.armed = false;
        secs
    }

    /// Discards the span without recording.
    pub fn discard(mut self) {
        self.armed = false;
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if self.armed {
            self.hist.observe(self.start.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);

        let g = Gauge::new();
        g.set(3.5);
        g.add(-1.0);
        assert!((g.get() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn bucket_bounds_cover_exact_powers() {
        // 2^k lands in the bucket whose upper bound is exactly 2^k.
        for k in [-20i64, -3, 0, 5, 20] {
            let v = (k as f64).exp2();
            let i = bucket_index(v);
            assert!(v <= bucket_upper(i), "v={v} upper={}", bucket_upper(i));
            assert!(i == 0 || v > bucket_upper(i - 1));
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(f64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let h = Histogram::new();
        for i in 1..=1000 {
            h.observe(i as f64 / 1000.0); // 0.001 ..= 1.0
        }
        assert_eq!(h.count(), 1000);
        assert!((h.sum() - 500.5).abs() < 1e-6);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        // Log buckets are coarse; quantiles must be ordered and inside
        // the observed range.
        assert!((0.001..=1.0).contains(&p50), "p50={p50}");
        assert!(p99 >= p50, "p50={p50} p99={p99}");
        assert!(h.quantile(0.0) >= 0.001);
        assert!(h.quantile(1.0) <= 1.0 + 1e-12);
    }

    #[test]
    fn histogram_ignores_non_finite() {
        let h = Histogram::new();
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count(), 0);
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn span_timer_records_on_drop() {
        let h = Histogram::new();
        {
            let _t = h.start_timer();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 0.002);

        let t = h.start_timer();
        t.discard();
        assert_eq!(h.count(), 1, "discarded span must not record");

        let t = h.start_timer();
        let secs = t.observe_and_disarm();
        assert!(secs >= 0.0);
        assert_eq!(h.count(), 2, "observe_and_disarm records exactly once");
    }
}
