//! # ndpipe-telemetry — cluster-wide metrics & tracing
//!
//! NDPipe's design is steered by measured per-stage rates: APO balances
//! the Store and Tuner stages from throughput measurements, and the NPE
//! analysis depends on observed load / decompress / FE&Cl times. This
//! crate is the unified way those rates are observed:
//!
//! - [`Counter`] — monotonically increasing `u64` (requests, bytes),
//! - [`Gauge`] — instantaneous `f64` (queue depth, occupancy),
//! - [`Histogram`] — log-bucketed value distribution with p50/p95/p99
//!   estimates (latencies, batch sizes),
//! - [`SpanTimer`] — RAII stage timer recording into a histogram,
//! - [`catalog`] — every metric name the workspace registers, with its
//!   kind and HELP text, declared once,
//! - [`Registry`] — a named collection of the above; every process has a
//!   [`global()`] registry and components with identity (a PipeStore, an
//!   object store) can own local ones,
//! - [`Snapshot`] — a point-in-time copy of a registry that can be
//!   merged across machines (the Tuner scrapes every PipeStore over RPC
//!   and folds the snapshots into one cluster-wide view), rendered as
//!   Prometheus text exposition ([`Snapshot::to_prometheus`]) or JSON
//!   ([`Snapshot::to_json`]), and shipped over the wire
//!   ([`Snapshot::to_bytes`]),
//! - [`codec`] — the bounds-checked little-endian reader and writers
//!   every peer-supplied byte format in the workspace decodes through.
//!
//! Hot-path cost is one relaxed atomic RMW per counter update and a few
//! per histogram observation; instrumented call sites additionally gate
//! on [`enabled()`] so the overhead bench can measure a true zero
//! baseline.
//!
//! ## Naming scheme
//!
//! `ndpipe_<subsystem>_<quantity>[_<unit>]` with Prometheus conventions:
//! `_total` for counters, `_seconds`/`_bytes` units, lowercase snake
//! case, dimensions as labels (`{op="describe"}`, `{stage="decode"}`).
//!
//! ```
//! use telemetry::{catalog, Registry};
//!
//! let reg = Registry::new();
//! reg.counter(catalog::ONLINE_REQUESTS_TOTAL).add(3);
//! let h = reg.histogram(catalog::ONLINE_QUEUE_WAIT_SECONDS);
//! h.observe(0.004);
//! h.observe(0.009);
//! let snap = reg.snapshot();
//! assert!(snap.to_prometheus().contains("ndpipe_online_requests_total 3"));
//! assert!(telemetry::export::validate_json(&snap.to_json()).is_ok());
//! ```

pub mod catalog;
pub mod codec;
pub mod export;
pub mod metrics;
pub mod registry;
pub mod snapshot;

pub use metrics::{Counter, Gauge, Histogram, SpanTimer};
pub use registry::Registry;
pub use snapshot::{HistogramSnapshot, Sample, SampleValue, Snapshot};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
static ENABLED: AtomicBool = AtomicBool::new(true);

/// The process-wide registry. Singleton components (the RPC client, the
/// FT-DMP driver, Check-N-Run encoding) record here; components with
/// identity (each PipeStore) own local registries and are merged at
/// scrape time.
pub fn global() -> &'static Arc<Registry> {
    GLOBAL.get_or_init(|| Arc::new(Registry::new()))
}

/// Whether instrumented call sites should record. Defaults to `true`;
/// the overhead benchmark flips it to measure an uninstrumented
/// baseline. Handles stay valid either way — only recording is skipped.
pub fn enabled() -> bool {
    // ndlint: allow(relaxed, reason = "advisory kill switch; a stale read only delays when recording toggles, it guards no data")
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording at instrumented call sites on or off (see
/// [`enabled`]).
pub fn set_enabled(on: bool) {
    // ndlint: allow(relaxed, reason = "advisory kill switch; no other memory is published through this flag")
    ENABLED.store(on, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_a_singleton() {
        let a = global().clone();
        a.counter(catalog::CounterDef::new("ndpipe_test_global_total", "test"))
            .inc();
        let b = global();
        let snap = b.snapshot();
        assert!(snap.counter_value("ndpipe_test_global_total").unwrap_or(0) >= 1);
    }

    #[test]
    fn enable_flag_round_trips() {
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }
}
