//! The metric registry: a named, labelled collection of counters,
//! gauges and histograms.
//!
//! Every metric is registered from its [`crate::catalog`] def. Lookup
//! takes a `RwLock`; handles returned by `counter`/`gauge`/
//! `histogram` are cheap clones of the shared atomics, so resolve once
//! and keep the handle on hot paths.

use crate::catalog::{CounterDef, GaugeDef, HistogramDef};
use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::{Sample, SampleValue, Snapshot};
use std::collections::BTreeMap;
use std::sync::RwLock;

/// Identity of one time series: metric name plus sorted label pairs.
type MetricKey = (String, Vec<(String, String)>);

enum MetricEntry {
    Counter { help: String, m: Counter },
    Gauge { help: String, m: Gauge },
    Histogram { help: String, m: Histogram },
}

impl MetricEntry {
    fn kind(&self) -> &'static str {
        match self {
            MetricEntry::Counter { .. } => "counter",
            MetricEntry::Gauge { .. } => "gauge",
            MetricEntry::Histogram { .. } => "histogram",
        }
    }
}

/// A collection of metrics keyed by `(name, labels)`.
///
/// Registering the same key twice returns a handle to the same
/// underlying metric; registering it with a different *kind* panics —
/// that is always a programming error worth failing loudly on.
#[derive(Default)]
pub struct Registry {
    entries: RwLock<BTreeMap<MetricKey, MetricEntry>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Registry({} series)", self.len())
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Counter with no labels.
    pub fn counter(&self, def: CounterDef) -> Counter {
        self.counter_with(def, &[])
    }

    /// Counter with labels.
    pub fn counter_with(&self, def: CounterDef, labels: &[(&str, &str)]) -> Counter {
        self.get_or_insert(def.name, labels, "counter", || MetricEntry::Counter {
            help: def.help.to_string(),
            m: Counter::new(),
        })
        .into_counter()
    }

    /// Gauge with no labels.
    pub fn gauge(&self, def: GaugeDef) -> Gauge {
        self.gauge_with(def, &[])
    }

    /// Gauge with labels.
    pub fn gauge_with(&self, def: GaugeDef, labels: &[(&str, &str)]) -> Gauge {
        self.get_or_insert(def.name, labels, "gauge", || MetricEntry::Gauge {
            help: def.help.to_string(),
            m: Gauge::new(),
        })
        .into_gauge()
    }

    /// Histogram with no labels.
    pub fn histogram(&self, def: HistogramDef) -> Histogram {
        self.histogram_with(def, &[])
    }

    /// Histogram with labels.
    pub fn histogram_with(&self, def: HistogramDef, labels: &[(&str, &str)]) -> Histogram {
        self.get_or_insert(def.name, labels, "histogram", || MetricEntry::Histogram {
            help: def.help.to_string(),
            m: Histogram::new(),
        })
        .into_histogram()
    }

    fn get_or_insert(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        want_kind: &str,
        make: impl FnOnce() -> MetricEntry,
    ) -> Handle {
        let mut sorted: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        sorted.sort();
        let key = (name.to_string(), sorted);

        // Fast path: already registered.
        {
            let entries = self.entries.read().expect("telemetry registry poisoned");
            if let Some(e) = entries.get(&key) {
                return Handle::of(e, name, want_kind);
            }
        }
        let mut entries = self.entries.write().expect("telemetry registry poisoned");
        let e = entries.entry(key).or_insert_with(make);
        Handle::of(e, name, want_kind)
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.entries
            .read()
            .expect("telemetry registry poisoned")
            .len()
    }

    /// Whether no series are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Freezes every series into a [`Snapshot`], in key order.
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.entries.read().expect("telemetry registry poisoned");
        let samples = entries
            .iter()
            .map(|((name, labels), e)| {
                let (help, value) = match e {
                    MetricEntry::Counter { help, m } => {
                        (help.clone(), SampleValue::Counter(m.get()))
                    }
                    MetricEntry::Gauge { help, m } => (help.clone(), SampleValue::Gauge(m.get())),
                    MetricEntry::Histogram { help, m } => {
                        (help.clone(), SampleValue::Histogram(m.snapshot()))
                    }
                };
                Sample {
                    name: name.clone(),
                    labels: labels.clone(),
                    help,
                    value,
                }
            })
            .collect();
        Snapshot { samples }
    }
}

/// A kind-checked handle to a live entry, taken while a lock is held.
enum Handle {
    C(Counter),
    G(Gauge),
    H(Histogram),
}

impl Handle {
    fn of(e: &MetricEntry, name: &str, want_kind: &str) -> Handle {
        assert_eq!(
            e.kind(),
            want_kind,
            "metric `{name}` already registered as a {}, requested as a {want_kind}",
            e.kind()
        );
        match e {
            MetricEntry::Counter { m, .. } => Handle::C(m.clone()),
            MetricEntry::Gauge { m, .. } => Handle::G(m.clone()),
            MetricEntry::Histogram { m, .. } => Handle::H(m.clone()),
        }
    }

    fn into_counter(self) -> Counter {
        match self {
            Handle::C(m) => m,
            _ => unreachable!("kind checked in Handle::of"),
        }
    }

    fn into_gauge(self) -> Gauge {
        match self {
            Handle::G(m) => m,
            _ => unreachable!("kind checked in Handle::of"),
        }
    }

    fn into_histogram(self) -> Histogram {
        match self {
            Handle::H(m) => m,
            _ => unreachable!("kind checked in Handle::of"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const C: CounterDef = CounterDef::new("c_total", "help");
    const OPS: CounterDef = CounterDef::new("ops_total", "h");
    const OPS2: CounterDef = CounterDef::new("ops2_total", "h");
    const CONTENDED: CounterDef = CounterDef::new("ndpipe_test_contended_total", "contention");
    const CONTENDED_S: HistogramDef =
        HistogramDef::new("ndpipe_test_contended_seconds", "contention");
    const CONTENDED_D: GaugeDef = GaugeDef::new("ndpipe_test_contended_depth", "contention");

    #[test]
    fn same_key_returns_same_metric() {
        let reg = Registry::new();
        reg.counter(C).add(2);
        reg.counter(C).add(3);
        assert_eq!(reg.counter(C).get(), 5);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn labels_make_distinct_series() {
        let reg = Registry::new();
        reg.counter_with(OPS, &[("op", "get")]).inc();
        reg.counter_with(OPS, &[("op", "put")]).add(2);
        // Label order must not matter.
        let c = reg.counter_with(OPS2, &[("a", "1"), ("b", "2")]);
        let c2 = reg.counter_with(OPS2, &[("b", "2"), ("a", "1")]);
        c.inc();
        c2.inc();
        assert_eq!(c.get(), 2);
        assert_eq!(reg.len(), 3);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_value("ops_total"), Some(3));
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter(CounterDef::new("x", "h"));
        reg.gauge(GaugeDef::new("x", "h"));
    }

    #[test]
    fn contention_totals_are_exact() {
        let reg = Arc::new(Registry::new());
        let threads = 8;
        let per_thread = 10_000u64;
        let mut handles = Vec::new();
        for t in 0..threads {
            let reg = reg.clone();
            handles.push(std::thread::spawn(move || {
                // Half the threads resolve the handle once, half hammer
                // the registry lookup path too.
                let c = reg.counter(CONTENDED);
                let h = reg.histogram(CONTENDED_S);
                let g = reg.gauge(CONTENDED_D);
                for i in 0..per_thread {
                    if t % 2 == 0 {
                        c.inc();
                        h.observe(0.001);
                    } else {
                        reg.counter(CONTENDED).inc();
                        reg.histogram(CONTENDED_S).observe(0.001);
                    }
                    if i % 1000 == 0 {
                        g.add(1.0);
                        g.add(-1.0);
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("worker");
        }
        let snap = reg.snapshot();
        let expect = threads as u64 * per_thread;
        assert_eq!(
            snap.counter_value("ndpipe_test_contended_total"),
            Some(expect)
        );
        match &snap
            .find("ndpipe_test_contended_seconds")
            .expect("hist")
            .value
        {
            SampleValue::Histogram(h) => {
                assert_eq!(h.count, expect);
                assert!((h.sum - expect as f64 * 0.001).abs() < 1e-6 * expect as f64);
            }
            other => panic!("expected histogram, got {}", other.kind()),
        }
        match &snap
            .find("ndpipe_test_contended_depth")
            .expect("gauge")
            .value
        {
            SampleValue::Gauge(v) => assert!(v.abs() < 1e-9, "gauge must net to zero, got {v}"),
            other => panic!("expected gauge, got {}", other.kind()),
        }
    }
}
