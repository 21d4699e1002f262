//! Golden-diagnostic tests over the fixture corpus: every rule family has
//! a `_bad.rs` fixture that must fire at the marked line and an `_ok.rs`
//! twin that must stay clean. Expected lines are located via `// MARK:`
//! comments so the fixtures can be edited without renumbering tests.

use ndlint::scan::SourceFile;
use ndlint::{run, Config, Finding, FnFilter, WireCheck, WireSite, Zone};
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn fixture(name: &str) -> (SourceFile, String) {
    let path = fixture_path(name);
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
    (SourceFile::parse(&path, name, &src), src)
}

/// 1-based line of the (unique) line containing `mark`.
fn marker_line(src: &str, mark: &str) -> u32 {
    let hits: Vec<u32> = src
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains(mark))
        .map(|(i, _)| i as u32 + 1)
        .collect();
    assert_eq!(hits.len(), 1, "marker {mark:?} must appear exactly once");
    hits[0]
}

fn lines_of(findings: &[Finding], rule: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

fn panic_zone(file: &str) -> Config {
    Config {
        zones: vec![Zone {
            file_suffix: file.to_string(),
            filter: FnFilter::All,
        }],
        ..Config::default()
    }
}

fn wire_config(file: &str) -> Config {
    let site = |fn_name: &str, label: &str| WireSite {
        file_suffix: file.to_string(),
        impl_target: Some("Op".to_string()),
        fn_name: fn_name.to_string(),
        label: label.to_string(),
    };
    Config {
        wire_checks: vec![WireCheck {
            enum_file_suffix: file.to_string(),
            enum_name: "Op".to_string(),
            sites: vec![site("encode_body", "encode"), site("decode_body", "decode")],
        }],
        ..Config::default()
    }
}

#[test]
fn relaxed_bad_fires_at_marked_line() {
    let (sf, src) = fixture("relaxed_bad.rs");
    let report = run(&[sf], &Config::default());
    assert_eq!(
        lines_of(&report.findings, "relaxed"),
        vec![marker_line(&src, "MARK: relaxed-finding")],
        "findings: {:?}",
        report.findings
    );
    assert_eq!(report.findings.len(), 1);
}

#[test]
fn relaxed_ok_is_clean() {
    let (sf, _) = fixture("relaxed_ok.rs");
    let report = run(&[sf], &Config::default());
    assert!(report.is_clean(), "findings: {:?}", report.findings);
}

#[test]
fn panic_bad_fires_on_unwrap_macro_and_index() {
    let (sf, src) = fixture("panic_bad.rs");
    let report = run(&[sf], &panic_zone("panic_bad.rs"));
    let mut lines = lines_of(&report.findings, "panic");
    lines.sort_unstable();
    assert_eq!(
        lines,
        vec![
            marker_line(&src, "MARK: panic-unwrap"),
            marker_line(&src, "MARK: panic-macro"),
            marker_line(&src, "MARK: panic-index"),
        ],
        "findings: {:?}",
        report.findings
    );
}

#[test]
fn panic_bad_is_clean_outside_any_zone() {
    // The rule is zone-gated: the same file with no zone configured is fine.
    let (sf, _) = fixture("panic_bad.rs");
    let report = run(&[sf], &Config::default());
    assert!(report.is_clean(), "findings: {:?}", report.findings);
}

#[test]
fn panic_ok_is_clean_inside_the_zone() {
    let (sf, _) = fixture("panic_ok.rs");
    let report = run(&[sf], &panic_zone("panic_ok.rs"));
    assert!(report.is_clean(), "findings: {:?}", report.findings);
}

#[test]
fn lock_order_bad_reports_the_inversion_at_both_later_sites() {
    let (sf, src) = fixture("lock_order_bad.rs");
    let report = run(&[sf], &Config::default());
    let mut lines = lines_of(&report.findings, "lock_order");
    lines.sort_unstable();
    assert_eq!(
        lines,
        vec![
            marker_line(&src, "MARK: lock-order-ab"),
            marker_line(&src, "MARK: lock-order-ba"),
        ],
        "findings: {:?}",
        report.findings
    );
    for f in &report.findings {
        assert!(
            f.message.contains("lock-order cycle"),
            "message: {}",
            f.message
        );
    }
}

#[test]
fn lock_order_ok_is_clean() {
    let (sf, _) = fixture("lock_order_ok.rs");
    let report = run(&[sf], &Config::default());
    assert!(report.is_clean(), "findings: {:?}", report.findings);
}

#[test]
fn wire_bad_flags_the_missing_variant_in_decode_only() {
    let (sf, src) = fixture("wire_bad.rs");
    let report = run(&[sf], &wire_config("wire_bad.rs"));
    let wire: Vec<&Finding> = report
        .findings
        .iter()
        .filter(|f| f.rule == "wire")
        .collect();
    assert_eq!(wire.len(), 1, "findings: {:?}", report.findings);
    assert_eq!(wire[0].line, marker_line(&src, "MARK: wire-missing-del"));
    assert!(
        wire[0].message.contains("`Op::Del`"),
        "message: {}",
        wire[0].message
    );
    assert!(
        wire[0].message.contains("decode"),
        "message: {}",
        wire[0].message
    );
}

#[test]
fn wire_ok_is_clean() {
    let (sf, _) = fixture("wire_ok.rs");
    let report = run(&[sf], &wire_config("wire_ok.rs"));
    assert!(report.is_clean(), "findings: {:?}", report.findings);
}

// ---- v2 interprocedural families ------------------------------------

fn event_config(file: &str) -> Config {
    Config {
        event_zones: vec![ndlint::EventZone {
            file_suffix: file.to_string(),
            impl_target: Some("Loop".to_string()),
            fn_name: "run".to_string(),
            label: "test event loop".to_string(),
        }],
        ..Config::default()
    }
}

fn policy_config(file: &str) -> Config {
    Config {
        policy_paths: vec![file.to_string()],
        ..Config::default()
    }
}

#[test]
fn blocking_bad_fires_on_direct_and_transitive_sites() {
    let (sf, src) = fixture("blocking_bad.rs");
    let report = run(&[sf], &Config::default());
    let mut lines = lines_of(&report.findings, "blocking");
    lines.sort_unstable();
    assert_eq!(
        lines,
        vec![
            marker_line(&src, "MARK: blocking-direct"),
            marker_line(&src, "MARK: blocking-transitive"),
        ],
        "findings: {:?}",
        report.findings
    );
    // The transitive finding must carry the call-chain witness.
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.message.contains("flush_to_peer")),
        "findings: {:?}",
        report.findings
    );
}

#[test]
fn blocking_ok_snapshot_then_drop_is_clean() {
    let (sf, _) = fixture("blocking_ok.rs");
    let report = run(&[sf], &Config::default());
    assert!(report.is_clean(), "findings: {:?}", report.findings);
}

#[test]
fn event_zone_bad_fires_on_every_reachable_primitive() {
    let (sf, src) = fixture("event_zone_bad.rs");
    let report = run(&[sf], &event_config("event_zone_bad.rs"));
    let mut lines = lines_of(&report.findings, "event_zone");
    lines.sort_unstable();
    assert_eq!(
        lines,
        vec![
            marker_line(&src, "MARK: event-zone-sleep"),
            marker_line(&src, "MARK: event-zone-read"),
        ],
        "findings: {:?}",
        report.findings
    );
}

#[test]
fn event_zone_bad_is_clean_without_a_configured_entry() {
    let (sf, _) = fixture("event_zone_bad.rs");
    let report = run(&[sf], &Config::default());
    assert!(report.is_clean(), "findings: {:?}", report.findings);
}

#[test]
fn event_zone_ok_reasoned_suppression_is_clean() {
    let (sf, _) = fixture("event_zone_ok.rs");
    let report = run(&[sf], &event_config("event_zone_ok.rs"));
    assert!(report.is_clean(), "findings: {:?}", report.findings);
}

#[test]
fn channel_policy_bad_fires_on_all_three_shapes() {
    let (sf, src) = fixture("channel_policy_bad.rs");
    let report = run(&[sf], &policy_config("channel_policy_bad.rs"));
    let mut lines = lines_of(&report.findings, "channel_policy");
    lines.sort_unstable();
    let mut expected = vec![
        marker_line(&src, "MARK: policy-missing"),
        marker_line(&src, "MARK: policy-send-mismatch"),
        marker_line(&src, "MARK: policy-stale"),
    ];
    expected.sort_unstable();
    assert_eq!(lines, expected, "findings: {:?}", report.findings);
}

#[test]
fn channel_policy_bad_is_clean_outside_policy_paths() {
    let (sf, _) = fixture("channel_policy_bad.rs");
    let report = run(&[sf], &Config::default());
    assert!(report.is_clean(), "findings: {:?}", report.findings);
}

#[test]
fn channel_policy_ok_is_clean() {
    let (sf, _) = fixture("channel_policy_ok.rs");
    let report = run(&[sf], &policy_config("channel_policy_ok.rs"));
    assert!(report.is_clean(), "findings: {:?}", report.findings);
}

#[test]
fn lock_order_transitive_bad_reports_the_cross_fn_cycle() {
    let (sf, src) = fixture("lock_order_transitive_bad.rs");
    let report = run(&[sf], &Config::default());
    let mut lines = lines_of(&report.findings, "lock_order");
    lines.sort_unstable();
    assert_eq!(
        lines,
        vec![
            marker_line(&src, "MARK: lock-order-transitive-ab"),
            marker_line(&src, "MARK: lock-order-transitive-ba"),
        ],
        "findings: {:?}",
        report.findings
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.message.contains("transitively acquires")),
        "findings: {:?}",
        report.findings
    );
}

#[test]
fn lock_order_transitive_ok_is_clean() {
    let (sf, _) = fixture("lock_order_transitive_ok.rs");
    let report = run(&[sf], &Config::default());
    assert!(report.is_clean(), "findings: {:?}", report.findings);
}
