//! `ledger --agree <runA.json> <runB.json>`: do two result sets agree
//! within the benchmark's own bounds? One row per workload × end-to-end
//! metric with the relative difference and the bound; any row outside
//! its bound makes the tool exit non-zero.

use crate::json::Value;

/// One comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// `|b − a| ÷ |a|`.
    pub rel_diff: f64,
    pub bound: f64,
}

impl Row {
    /// Whether the two runs agree on this row.
    pub fn within(&self) -> bool {
        self.rel_diff <= self.bound
    }
}

fn metric_value(set: &Value, workload: &str, metric: &str) -> Option<f64> {
    set.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Compares result sets `a` and `b` on every workload and end-to-end
/// metric `bench` (a parsed `BENCHMARK.json`) names.
///
/// # Errors
///
/// A description of the first workload, metric or field that is missing
/// from `bench` or from either set.
pub fn compare(bench: &Value, a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let list = |key: &str| {
        bench
            .get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))
    };
    let mut rows = Vec::new();
    for w in list("workloads")? {
        let workload = w
            .get("name")
            .and_then(Value::as_str)
            .ok_or("a workload without a name")?;
        for m in list("end_to_end")? {
            let metric = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("a metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{metric}: no bound"))?;
            let read = |set: &Value, which: &str| {
                metric_value(set, workload, metric)
                    .ok_or_else(|| format!("run {which} has no {workload}/{metric}"))
            };
            let (va, vb) = (read(a, "A")?, read(b, "B")?);
            rows.push(Row {
                workload: workload.to_string(),
                metric: metric.to_string(),
                a: va,
                b: vb,
                rel_diff: if va == vb {
                    0.0
                } else {
                    (vb - va).abs() / va.abs()
                },
                bound,
            });
        }
    }
    Ok(rows)
}

/// The comparison as a table, one row per line, ending in a verdict.
pub fn render(rows: &[Row]) -> String {
    let mut s = format!(
        "{:<20} {:<22} {:>14} {:>14} {:>9} {:>7}\n",
        "workload", "metric", "run A", "run B", "rel diff", "bound"
    );
    for r in rows {
        s.push_str(&format!(
            "{:<20} {:<22} {:>14.4} {:>14.4} {:>9.4} {:>7.3}{}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.rel_diff,
            r.bound,
            if r.within() { "" } else { "  OUTSIDE" }
        ));
    }
    let outside = rows.iter().filter(|r| !r.within()).count();
    s.push_str(&format!(
        "{} of {} rows outside their bound\n",
        outside,
        rows.len()
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    const BENCH: &str = r#"{
        "workloads": [{"name": "online_infer", "why": "w"}],
        "end_to_end": [
            {"name": "op_ms", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#;

    fn set(p50: f64, setup: f64) -> Value {
        parse(&format!(
            r#"{{"workloads": {{"online_infer": {{"metrics": {{
                "op_ms": {{"value": {p50}, "unit": "ms"}},
                "setup_s": {{"value": {setup}, "unit": "s"}}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn rows_inside_and_outside_their_bounds() {
        let bench = parse(BENCH).unwrap();
        let rows = compare(&bench, &set(2.0, 1.0), &set(2.1, 1.5)).unwrap();
        assert_eq!(rows.len(), 2);
        assert!((rows[0].rel_diff - 0.05).abs() < 1e-12 && rows[0].within());
        assert!((rows[1].rel_diff - 0.5).abs() < 1e-12 && !rows[1].within());
        let table = render(&rows);
        assert!(table.contains("OUTSIDE") && table.contains("1 of 2 rows outside"));
        // The difference is symmetric in direction.
        let back = compare(&bench, &set(2.0, 1.0), &set(1.9, 1.0)).unwrap();
        assert!(back.iter().all(Row::within));
    }

    #[test]
    fn a_missing_metric_is_an_error_not_agreement() {
        let bench = parse(BENCH).unwrap();
        let empty = parse(r#"{"workloads": {}}"#).unwrap();
        let err = compare(&bench, &set(1.0, 1.0), &empty).unwrap_err();
        assert!(err.contains("run B has no online_infer/op_ms"), "{err}");
        assert!(compare(&parse("{}").unwrap(), &empty, &empty).is_err());
    }
}
