//! Snapshot exporters: Prometheus text exposition and JSON.
//!
//! Both are hand-rolled over [`Snapshot`] — the workspace's `serde` is a
//! vendored no-op shim, so JSON is built by string concatenation exactly
//! like the bench reports do, plus a recursive-descent [`validate_json`]
//! so smoke tests can assert well-formedness without a parser crate.

use crate::snapshot::{Sample, SampleValue, Snapshot};
use std::fmt::Write as _;

impl Snapshot {
    /// Prometheus text exposition (version 0.0.4): `# HELP` / `# TYPE`
    /// per metric name, histograms as cumulative `_bucket{le=..}` plus
    /// `_sum`/`_count`, and a final `+Inf` bucket.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for s in &self.samples {
            if last_name != Some(s.name.as_str()) {
                let _ = writeln!(out, "# HELP {} {}", s.name, escape_help(&s.help));
                let _ = writeln!(out, "# TYPE {} {}", s.name, s.value.kind());
                last_name = Some(&s.name);
            }
            match &s.value {
                SampleValue::Counter(v) => {
                    let _ = writeln!(out, "{}{} {}", s.name, label_block(&s.labels, &[]), v);
                }
                SampleValue::Gauge(v) => {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        s.name,
                        label_block(&s.labels, &[]),
                        fmt_f64(*v)
                    );
                }
                SampleValue::Histogram(h) => {
                    let mut cum = 0u64;
                    for &(upper, n) in &h.buckets {
                        cum += n;
                        let le = fmt_f64(upper);
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            s.name,
                            label_block(&s.labels, &[("le", &le)]),
                            cum
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        s.name,
                        label_block(&s.labels, &[("le", "+Inf")]),
                        h.count
                    );
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        s.name,
                        label_block(&s.labels, &[]),
                        fmt_f64(h.sum)
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        s.name,
                        label_block(&s.labels, &[]),
                        h.count
                    );
                }
            }
        }
        out
    }

    /// JSON document: `{"samples": [{"name", "labels", "help", "kind",
    /// ...value fields}]}`. Histograms include derived `mean`/`p50`/
    /// `p95`/`p99` so dumps are readable without post-processing.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"samples\": [");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&sample_json(s));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn sample_json(s: &Sample) -> String {
    let mut o = String::from("{");
    let _ = write!(o, "\"name\": {}", json_str(&s.name));
    o.push_str(", \"labels\": {");
    for (i, (k, v)) in s.labels.iter().enumerate() {
        if i > 0 {
            o.push_str(", ");
        }
        let _ = write!(o, "{}: {}", json_str(k), json_str(v));
    }
    o.push('}');
    let _ = write!(o, ", \"help\": {}", json_str(&s.help));
    let _ = write!(o, ", \"kind\": {}", json_str(s.value.kind()));
    match &s.value {
        SampleValue::Counter(v) => {
            let _ = write!(o, ", \"value\": {v}");
        }
        SampleValue::Gauge(v) => {
            let _ = write!(o, ", \"value\": {}", json_f64(*v));
        }
        SampleValue::Histogram(h) => {
            let _ = write!(o, ", \"count\": {}", h.count);
            let _ = write!(o, ", \"sum\": {}", json_f64(h.sum));
            let _ = write!(o, ", \"min\": {}", json_f64(h.min));
            let _ = write!(o, ", \"max\": {}", json_f64(h.max));
            let _ = write!(o, ", \"mean\": {}", json_f64(h.mean()));
            let _ = write!(o, ", \"p50\": {}", json_f64(h.quantile(0.50)));
            let _ = write!(o, ", \"p95\": {}", json_f64(h.quantile(0.95)));
            let _ = write!(o, ", \"p99\": {}", json_f64(h.quantile(0.99)));
            o.push_str(", \"buckets\": [");
            for (i, &(upper, n)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    o.push_str(", ");
                }
                let _ = write!(o, "[{}, {}]", json_f64(upper), n);
            }
            o.push(']');
        }
    }
    o.push('}');
    o
}

/// Renders `{k1="v1",k2="v2"}` from sorted labels plus extras (used for
/// `le`), or nothing when both are empty.
fn label_block(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut o = String::from("{");
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().copied())
    {
        if !first {
            o.push(',');
        }
        first = false;
        let _ = write!(o, "{k}=\"{}\"", escape_label(v));
    }
    o.push('}');
    o
}

/// Prometheus float formatting: integral values without a trailing
/// `.0`, everything else via shortest-roundtrip `{}`.
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// JSON has no NaN/Infinity: map them to 0 / ±1e308 rather than emit an
/// invalid document.
fn json_f64(v: f64) -> String {
    if v.is_nan() {
        "0".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "1e308" } else { "-1e308" }.to_string()
    } else {
        fmt_f64(v)
    }
}

fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            '\n' => o.push_str("\\n"),
            '\r' => o.push_str("\\r"),
            '\t' => o.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Checks that `s` is one complete, well-formed JSON value. Numbers,
/// strings (with escapes), arrays, objects, booleans and null are all
/// verified structurally. Returns the byte offset and a description of
/// the first error.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut p = JsonParser { b, pos: 0 };
    p.skip_ws();
    p.value()?;
    p.skip_ws();
    if p.pos != b.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(())
}

struct JsonParser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.eat(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.eat(b'"')?;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => self.pos += 1,
                                    _ => return Err(self.err("bad \\u escape")),
                                }
                            }
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control char in string")),
                Some(_) => self.pos += 1,
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected exponent digits"));
            }
        }
        Ok(())
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err("bad literal"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{CounterDef, GaugeDef, HistogramDef};
    use crate::Registry;

    /// Golden-format check: exact exposition text for a small registry.
    #[test]
    fn prometheus_exposition_golden() {
        let reg = Registry::new();
        reg.counter(CounterDef::new(
            "ndpipe_demo_requests_total",
            "requests served",
        ))
        .add(7);
        reg.gauge_with(
            GaugeDef::new("ndpipe_demo_queue_depth", "items queued"),
            &[("stage", "decode")],
        )
        .set(3.0);
        let h = reg.histogram(HistogramDef::new(
            "ndpipe_demo_latency_seconds",
            "request latency",
        ));
        // 0.5 and 2.0 are exact bucket bounds, so the exposition is
        // deterministic.
        h.observe(0.5);
        h.observe(0.5);
        h.observe(2.0);

        let got = reg.snapshot().to_prometheus();
        let want = "\
# HELP ndpipe_demo_latency_seconds request latency
# TYPE ndpipe_demo_latency_seconds histogram
ndpipe_demo_latency_seconds_bucket{le=\"0.5\"} 2
ndpipe_demo_latency_seconds_bucket{le=\"2\"} 3
ndpipe_demo_latency_seconds_bucket{le=\"+Inf\"} 3
ndpipe_demo_latency_seconds_sum 3
ndpipe_demo_latency_seconds_count 3
# HELP ndpipe_demo_queue_depth items queued
# TYPE ndpipe_demo_queue_depth gauge
ndpipe_demo_queue_depth{stage=\"decode\"} 3
# HELP ndpipe_demo_requests_total requests served
# TYPE ndpipe_demo_requests_total counter
ndpipe_demo_requests_total 7
";
        assert_eq!(got, want);
    }

    #[test]
    fn json_export_is_valid_and_contains_quantiles() {
        let reg = Registry::new();
        reg.counter_with(
            CounterDef::new("ops_total", "ops with a \"quote\""),
            &[("op", "a\"b")],
        )
        .inc();
        let h = reg.histogram(HistogramDef::new("lat_seconds", "latency"));
        for i in 1..=100 {
            h.observe(i as f64 / 100.0);
        }
        let json = reg.snapshot().to_json();
        validate_json(&json).expect("exporter must emit valid JSON");
        assert!(json.contains("\"p99\""));
        assert!(json.contains("\"op\": \"a\\\"b\""));
    }

    #[test]
    fn validate_json_rejects_malformed() {
        assert!(validate_json("{").is_err());
        assert!(validate_json("{\"a\": }").is_err());
        assert!(validate_json("[1, 2,]").is_err());
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_json("{} trailing").is_err());
        assert!(validate_json("NaN").is_err());
        assert!(validate_json("01").is_ok()); // lenient: leading zero accepted
        assert!(validate_json("{\"a\": [1.5, -2e-3, true, null, \"x\\n\"]}").is_ok());
    }

    #[test]
    fn empty_snapshot_exports_cleanly() {
        let snap = Registry::new().snapshot();
        assert_eq!(snap.to_prometheus(), "");
        validate_json(&snap.to_json()).expect("empty snapshot JSON");
    }
}
