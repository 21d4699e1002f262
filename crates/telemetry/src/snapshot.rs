//! Point-in-time registry snapshots: mergeable across machines and
//! encodable for the RPC scrape path.
//!
//! A [`Snapshot`] is plain data — the Tuner pulls one per PipeStore over
//! the `Metrics` RPC op, tags each with a peer label, and folds them
//! with [`Snapshot::merge_from`] into a single cluster-wide view.

use crate::codec::{put_f64, put_str, put_u32, put_u64, Reader};

/// One metric's point-in-time value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (`ndpipe_<subsystem>_..`).
    pub name: String,
    /// Sorted `(key, value)` label pairs.
    pub labels: Vec<(String, String)>,
    /// Help text (one line).
    pub help: String,
    /// The value, by metric kind.
    pub value: SampleValue,
}

impl Sample {
    /// Stable ordering/identity key: name then labels.
    fn key(&self) -> (&str, &[(String, String)]) {
        (&self.name, &self.labels)
    }
}

/// A sample's value.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Monotonic count.
    Counter(u64),
    /// Instantaneous value.
    Gauge(f64),
    /// Distribution.
    Histogram(HistogramSnapshot),
}

impl SampleValue {
    /// Kind name as it appears in exports (`counter`/`gauge`/`histogram`).
    pub fn kind(&self) -> &'static str {
        match self {
            SampleValue::Counter(_) => "counter",
            SampleValue::Gauge(_) => "gauge",
            SampleValue::Histogram(_) => "histogram",
        }
    }
}

/// A histogram's frozen state: sparse `(upper_bound, count)` buckets in
/// ascending bound order, plus count/sum/min/max.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramSnapshot {
    /// Observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value (0 when empty).
    pub min: f64,
    /// Largest observed value (0 when empty).
    pub max: f64,
    /// Non-empty buckets: `(upper_bound, count)`, not cumulative.
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated quantile `q ∈ [0, 1]` by within-bucket linear
    /// interpolation, clamped to the observed `[min, max]`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut cum = 0u64;
        let mut lower = self.min;
        for &(upper, n) in &self.buckets {
            let next = cum + n;
            if next as f64 >= target {
                let frac = if n == 0 {
                    0.0
                } else {
                    ((target - cum as f64) / n as f64).clamp(0.0, 1.0)
                };
                let hi = upper.min(self.max);
                let lo = lower.max(self.min).min(hi);
                return (lo + frac * (hi - lo)).clamp(self.min, self.max);
            }
            cum = next;
            lower = upper;
        }
        self.max
    }

    /// Folds another histogram into this one (bucket-wise sum).
    pub fn merge_from(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        let mut merged: Vec<(f64, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ua, na)), Some(&&(ub, nb))) if ua == ub => {
                    merged.push((ua, na + nb));
                    a.next();
                    b.next();
                }
                (Some(&&(ua, na)), Some(&&(ub, _))) if ua < ub => {
                    merged.push((ua, na));
                    a.next();
                }
                (Some(_), Some(&&(ub, nb))) => {
                    merged.push((ub, nb));
                    b.next();
                }
                (Some(&&(ua, na)), None) => {
                    merged.push((ua, na));
                    a.next();
                }
                (None, Some(&&(ub, nb))) => {
                    merged.push((ub, nb));
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
    }
}

/// A frozen registry: every sample at one point in time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Samples in registry (name, labels) order.
    pub samples: Vec<Sample>,
}

impl Snapshot {
    /// Whether the snapshot holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// First sample with this name (any labels).
    pub fn find(&self, name: &str) -> Option<&Sample> {
        self.samples.iter().find(|s| s.name == name)
    }

    /// Sample with this exact name and label set.
    pub fn find_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Sample> {
        self.samples.iter().find(|s| {
            s.name == name
                && s.labels.len() == labels.len()
                && s.labels
                    .iter()
                    .zip(labels)
                    .all(|((k, v), (lk, lv))| k == lk && v == lv)
        })
    }

    /// Sum of every counter sample with this name, across label sets.
    /// `None` when the name is absent.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let mut total = None;
        for s in &self.samples {
            if s.name == name {
                if let SampleValue::Counter(v) = s.value {
                    *total.get_or_insert(0) += v;
                }
            }
        }
        total
    }

    /// Adds a label to every sample (e.g. `peer=10.0.0.3:7401` before a
    /// cluster merge that should keep per-store resolution).
    pub fn with_label(mut self, key: &str, value: &str) -> Snapshot {
        for s in &mut self.samples {
            s.labels.push((key.to_string(), value.to_string()));
            s.labels.sort();
        }
        self
    }

    /// Folds `other` into `self`: samples with the same name + labels
    /// combine (counters add, gauges add, histograms merge bucket-wise);
    /// new samples append. Gauges add because every cluster-level gauge
    /// we expose (queue depths, live objects) is meaningful as a sum.
    pub fn merge_from(&mut self, other: &Snapshot) {
        for theirs in &other.samples {
            match self.samples.iter_mut().find(|s| s.key() == theirs.key()) {
                Some(ours) => match (&mut ours.value, &theirs.value) {
                    (SampleValue::Counter(a), SampleValue::Counter(b)) => *a += b,
                    (SampleValue::Gauge(a), SampleValue::Gauge(b)) => *a += b,
                    (SampleValue::Histogram(a), SampleValue::Histogram(b)) => {
                        a.merge_from(b);
                    }
                    // Kind conflict across sources: keep ours, append
                    // theirs so nothing is silently dropped.
                    _ => self.samples.push(theirs.clone()),
                },
                None => self.samples.push(theirs.clone()),
            }
        }
        self.samples
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    }

    /// Merges many snapshots into a fresh cluster-wide view.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a Snapshot>) -> Snapshot {
        let mut out = Snapshot::default();
        for p in parts {
            out.merge_from(p);
        }
        out
    }

    /// Encodes the snapshot for the RPC scrape path (little-endian,
    /// through [`crate::codec`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 * self.samples.len() + 8);
        put_u32(&mut out, self.samples.len() as u32);
        for s in &self.samples {
            put_str(&mut out, &s.name);
            put_str(&mut out, &s.help);
            put_u32(&mut out, s.labels.len() as u32);
            for (k, v) in &s.labels {
                put_str(&mut out, k);
                put_str(&mut out, v);
            }
            match &s.value {
                SampleValue::Counter(v) => {
                    out.push(0);
                    put_u64(&mut out, *v);
                }
                SampleValue::Gauge(v) => {
                    out.push(1);
                    put_f64(&mut out, *v);
                }
                SampleValue::Histogram(h) => {
                    out.push(2);
                    put_u64(&mut out, h.count);
                    put_f64(&mut out, h.sum);
                    put_f64(&mut out, h.min);
                    put_f64(&mut out, h.max);
                    put_u32(&mut out, h.buckets.len() as u32);
                    for &(upper, n) in &h.buckets {
                        put_f64(&mut out, upper);
                        put_u64(&mut out, n);
                    }
                }
            }
        }
        out
    }

    /// Decodes a snapshot previously written by [`Snapshot::to_bytes`].
    ///
    /// # Errors
    ///
    /// A static description of the first malformation found.
    pub fn from_bytes(buf: &[u8]) -> Result<Snapshot, &'static str> {
        let mut c = Reader::new(buf);
        // Smallest sample: two empty strings, no labels, a counter.
        let n = c.count(4 + 4 + 4 + 1 + 8)?;
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            let name = c.string()?;
            let help = c.string()?;
            // A label is two strings, each at least its length prefix.
            let n_labels = c.count(8)?;
            let mut labels = Vec::with_capacity(n_labels);
            for _ in 0..n_labels {
                labels.push((c.string()?, c.string()?));
            }
            let value = match c.u8()? {
                0 => SampleValue::Counter(c.u64()?),
                1 => SampleValue::Gauge(c.f64()?),
                2 => {
                    let count = c.u64()?;
                    let sum = c.f64()?;
                    let min = c.f64()?;
                    let max = c.f64()?;
                    let nb = c.count(16)?;
                    let mut buckets = Vec::with_capacity(nb);
                    for _ in 0..nb {
                        buckets.push((c.f64()?, c.u64()?));
                    }
                    SampleValue::Histogram(HistogramSnapshot {
                        count,
                        sum,
                        min,
                        max,
                        buckets,
                    })
                }
                _ => return Err("unknown sample kind"),
            };
            samples.push(Sample {
                name,
                labels,
                help,
                value,
            });
        }
        c.finish()?;
        Ok(Snapshot { samples })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter(name: &str, v: u64) -> Sample {
        Sample {
            name: name.into(),
            labels: Vec::new(),
            help: "h".into(),
            value: SampleValue::Counter(v),
        }
    }

    #[test]
    fn merge_sums_matching_and_appends_new() {
        let mut a = Snapshot {
            samples: vec![counter("x_total", 3)],
        };
        let b = Snapshot {
            samples: vec![counter("x_total", 4), counter("y_total", 1)],
        };
        a.merge_from(&b);
        assert_eq!(a.counter_value("x_total"), Some(7));
        assert_eq!(a.counter_value("y_total"), Some(1));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn labels_separate_series() {
        let mut s1 = Snapshot {
            samples: vec![counter("ops_total", 2)],
        }
        .with_label("peer", "a");
        let s2 = Snapshot {
            samples: vec![counter("ops_total", 5)],
        }
        .with_label("peer", "b");
        s1.merge_from(&s2);
        assert_eq!(s1.len(), 2, "different peers must not collapse");
        assert_eq!(s1.counter_value("ops_total"), Some(7));
        assert!(s1.find_with("ops_total", &[("peer", "b")]).is_some());
    }

    #[test]
    fn histogram_merge_is_bucketwise() {
        let mut a = HistogramSnapshot {
            count: 2,
            sum: 3.0,
            min: 1.0,
            max: 2.0,
            buckets: vec![(1.0, 1), (2.0, 1)],
        };
        let b = HistogramSnapshot {
            count: 3,
            sum: 10.0,
            min: 2.0,
            max: 4.0,
            buckets: vec![(2.0, 1), (4.0, 2)],
        };
        a.merge_from(&b);
        assert_eq!(a.count, 5);
        assert_eq!(a.buckets, vec![(1.0, 1), (2.0, 2), (4.0, 2)]);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 4.0);
        assert!((a.sum - 13.0).abs() < 1e-12);
    }

    #[test]
    fn wire_roundtrip_preserves_everything() {
        let snap = Snapshot {
            samples: vec![
                counter("a_total", 9),
                Sample {
                    name: "g".into(),
                    labels: vec![("k".into(), "v".into())],
                    help: "a gauge".into(),
                    value: SampleValue::Gauge(-2.25),
                },
                Sample {
                    name: "h_seconds".into(),
                    labels: Vec::new(),
                    help: "a histogram".into(),
                    value: SampleValue::Histogram(HistogramSnapshot {
                        count: 4,
                        sum: 1.5,
                        min: 0.1,
                        max: 0.9,
                        buckets: vec![(0.125, 1), (0.5, 2), (1.0, 1)],
                    }),
                },
            ],
        };
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).expect("decode");
        assert_eq!(back, snap);
    }

    #[test]
    fn malformed_bytes_rejected() {
        assert!(Snapshot::from_bytes(&[1, 2, 3]).is_err());
        // Absurd sample count.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        assert!(Snapshot::from_bytes(&buf).is_err());
        // Trailing garbage.
        let snap = Snapshot {
            samples: vec![counter("a", 1)],
        };
        let mut bytes = snap.to_bytes();
        bytes.push(0);
        assert!(Snapshot::from_bytes(&bytes).is_err());
    }

    #[test]
    fn quantiles_on_merged_histograms_stay_in_range() {
        let mut a = HistogramSnapshot::default();
        let b = HistogramSnapshot {
            count: 10,
            sum: 5.0,
            min: 0.25,
            max: 1.0,
            buckets: vec![(0.5, 5), (1.0, 5)],
        };
        a.merge_from(&b);
        let p50 = a.quantile(0.5);
        let p99 = a.quantile(0.99);
        assert!((0.25..=1.0).contains(&p50));
        assert!(p99 >= p50 && p99 <= 1.0);
        assert_eq!(a.quantile(0.0).min(a.min), a.min);
    }
}
