//! Tier-1 gate: the whole workspace must pass the ndlint static pass.
//!
//! This is the same analysis `cargo run -p ndlint` performs — lock-order
//! cycles, unannotated `Ordering::Relaxed`, panic surface in the no-panic
//! zones, wire/dispatch exhaustiveness, blocking under held guards and on
//! the event thread, and declared channel overload policies. It also
//! uses ndlint's scanner to check that every `telemetry::catalog` entry
//! is registered by non-test code.

use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = ndlint::run_workspace(root);
    let rendered: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        report.is_clean(),
        "{}\n{}",
        rendered.join("\n"),
        report.summary()
    );
}

#[test]
fn workspace_scan_covers_the_crates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = ndlint::run_workspace(root);
    assert!(
        report.files_scanned >= 40,
        "expected the crates/*/src walk to find a real workspace, got {} files",
        report.files_scanned
    );
}

#[test]
fn workspace_config_zones_and_sites_resolve() {
    // Guard against silent rot: every zone file and wire-check site named
    // in the workspace config must actually exist in the scanned set (a
    // rename would otherwise quietly disable the rule).
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let paths = ndlint::workspace_sources(root);
    let rels: Vec<String> = paths
        .iter()
        .map(|p| p.to_string_lossy().replace('\\', "/"))
        .collect();
    let cfg = ndlint::Config::workspace();
    for zone in &cfg.zones {
        assert!(
            rels.iter().any(|r| r.ends_with(&zone.file_suffix)),
            "zone file {} missing from scan set",
            zone.file_suffix
        );
    }
    for wc in &cfg.wire_checks {
        assert!(
            rels.iter().any(|r| r.ends_with(&wc.enum_file_suffix)),
            "wire enum file {} missing from scan set",
            wc.enum_file_suffix
        );
        for site in &wc.sites {
            assert!(
                rels.iter().any(|r| r.ends_with(&site.file_suffix)),
                "wire site file {} missing from scan set",
                site.file_suffix
            );
        }
    }
}

// ---- determinism, config resolution, mutations ----------------------

/// The workspace sources, parsed, with one file's source patched — the
/// mutation-test harness proving each check actually guards the gate.
fn patched_files(
    target_suffix: &str,
    patch: impl Fn(&str) -> String,
) -> Vec<ndlint::scan::SourceFile> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let paths = ndlint::workspace_sources(root);
    let (mut files, errs) = ndlint::parse_files(root, &paths);
    assert!(errs.is_empty(), "unreadable sources: {errs:?}");
    let i = files
        .iter()
        .position(|f| f.rel.ends_with(target_suffix))
        .unwrap_or_else(|| panic!("{target_suffix} not in the scan set"));
    let src = std::fs::read_to_string(&paths[i]).expect("re-read target");
    let patched = patch(&src);
    assert_ne!(
        src, patched,
        "mutation must actually change {target_suffix}"
    );
    let rel = files[i].rel.clone();
    files[i] = ndlint::scan::SourceFile::parse(&paths[i], &rel, &patched);
    files
}

/// Re-runs the full analysis with one workspace file's source patched.
fn mutated_report(target_suffix: &str, patch: impl Fn(&str) -> String) -> ndlint::Report {
    ndlint::run(
        &patched_files(target_suffix, patch),
        &ndlint::Config::workspace(),
    )
}

fn rules_fired<'a>(r: &'a ndlint::Report, file_suffix: &str) -> Vec<&'a str> {
    r.findings
        .iter()
        .filter(|f| f.file.ends_with(file_suffix))
        .map(|f| f.rule)
        .collect()
}

#[test]
fn seeded_blocking_under_lock_fails_the_gate() {
    let r = mutated_report("core/src/rpc/server.rs", |src| {
        src.replacen(
            "let mut slot = shared.first_error.lock();",
            "let mut slot = shared.first_error.lock();\n    \
             std::thread::sleep(std::time::Duration::from_millis(250));",
            1,
        )
    });
    assert!(
        rules_fired(&r, "rpc/server.rs").contains(&"blocking"),
        "seeded sleep under the first_error guard must fire `blocking`: {:?}",
        r.findings
    );
}

#[test]
fn seeded_event_thread_blocking_fails_the_gate() {
    let r = mutated_report("core/src/rpc/server.rs", |src| {
        src.replacen(
            "let stopping = self.shared.stop.load(Ordering::Acquire);",
            "std::thread::sleep(std::time::Duration::from_millis(5));\n            \
             let stopping = self.shared.stop.load(Ordering::Acquire);",
            1,
        )
    });
    assert!(
        rules_fired(&r, "rpc/server.rs").contains(&"event_zone"),
        "a sleep seeded into EventLoop::event_loop must fire `event_zone`: {:?}",
        r.findings
    );
}

#[test]
fn deleted_policy_directive_fails_the_gate() {
    let r = mutated_report("core/src/rpc/server.rs", |src| {
        src.lines()
            .filter(|l| !l.contains("ndlint: policy("))
            .collect::<Vec<_>>()
            .join("\n")
    });
    assert!(
        rules_fired(&r, "rpc/server.rs").contains(&"channel_policy"),
        "stripping the policy directives must fire `channel_policy`: {:?}",
        r.findings
    );
}

#[test]
fn seeded_transitive_lock_inversion_fails_the_gate() {
    let r = mutated_report("core/src/rpc/server.rs", |src| {
        format!(
            "{src}\n\
             fn ndlint_mut_takes_b() {{ let g = ndlint_mut_b.lock(); drop(g); }}\n\
             fn ndlint_mut_ab() {{ let g = ndlint_mut_a.lock(); ndlint_mut_takes_b(); drop(g); }}\n\
             fn ndlint_mut_ba() {{ let g = ndlint_mut_b.lock(); let h = ndlint_mut_a.lock(); drop(h); drop(g); }}\n"
        )
    });
    let fired = rules_fired(&r, "rpc/server.rs");
    assert!(
        fired.contains(&"lock_order"),
        "the appended cross-fn AB/BA inversion must fire `lock_order`: {:?}",
        r.findings
    );
}

#[test]
fn findings_are_identical_across_runs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let a = ndlint::run_workspace(root);
    let b = ndlint::run_workspace(root);
    assert_eq!(
        a.findings, b.findings,
        "two runs over the same tree must agree"
    );
    assert_eq!(a.files_scanned, b.files_scanned);
}

#[test]
fn event_zones_and_policy_paths_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let rels: Vec<String> = ndlint::workspace_sources(root)
        .iter()
        .map(|p| p.to_string_lossy().replace('\\', "/"))
        .collect();
    let cfg = ndlint::Config::workspace();
    assert!(
        !cfg.event_zones.is_empty(),
        "workspace must declare an event zone"
    );
    for z in &cfg.event_zones {
        assert!(
            rels.iter().any(|r| r.ends_with(&z.file_suffix)),
            "event zone file {} missing from scan set",
            z.file_suffix
        );
    }
    assert!(
        !cfg.policy_paths.is_empty(),
        "workspace must declare policy paths"
    );
    for p in &cfg.policy_paths {
        assert!(
            rels.iter().any(|r| r.contains(p.as_str())),
            "policy path {p} matches no scanned file"
        );
    }
}

// ---- metric catalog: every entry has a registration site -------------

/// Catalog consts of `telemetry::catalog::ALL` that no non-test code
/// outside `crates/telemetry` names as `catalog::<CONST>`. A def's fields
/// are private to `telemetry`, so outside it the only use of a def is to
/// hand it to a `Registry` constructor: a const named nowhere is a metric
/// that DESIGN.md lists and no code registers.
fn unregistered_catalog_entries(files: &[ndlint::scan::SourceFile]) -> Vec<&'static str> {
    let mut named = std::collections::BTreeSet::new();
    let outside_telemetry = files
        .iter()
        .filter(|f| !f.rel.starts_with("crates/telemetry/"));
    for sf in outside_telemetry {
        let toks = sf.tokens();
        for (i, w) in toks.windows(4).enumerate() {
            if w[0].is_ident("catalog")
                && w[1].is_punct(':')
                && w[2].is_punct(':')
                && !sf.in_test(i)
            {
                if let Some(id) = w[3].ident() {
                    named.insert(id.to_string());
                }
            }
        }
    }
    telemetry::catalog::ALL
        .iter()
        .map(|&(id, ..)| id)
        .filter(|id| !named.contains(*id))
        .collect()
}

#[test]
fn every_catalog_metric_is_registered_outside_tests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (files, errs) = ndlint::parse_files(root, &ndlint::workspace_sources(root));
    assert!(errs.is_empty(), "unreadable sources: {errs:?}");
    let orphans = unregistered_catalog_entries(&files);
    assert!(
        orphans.is_empty(),
        "catalogued (and listed in DESIGN.md) but never registered outside tests: {orphans:?}"
    );
}

#[test]
fn deleted_registration_site_fails_the_metric_check() {
    let files = patched_files("core/src/rpc/cluster.rs", |src| {
        src.replace(
            ".counter(catalog::SHARD_REROUTES_TOTAL)",
            ".counter(telemetry_gone)",
        )
    });
    assert_eq!(
        unregistered_catalog_entries(&files),
        ["SHARD_REROUTES_TOTAL"],
        "deleting the last registration of a catalogued metric must fail the check"
    );
}

#[test]
fn test_only_registration_does_not_count() {
    let files = patched_files("core/src/rpc/cluster.rs", |src| {
        let moved = src.replace(
            ".counter(catalog::SHARD_REROUTES_TOTAL)",
            ".counter(telemetry_gone)",
        );
        format!(
            "{moved}\n#[cfg(test)]\nmod registered_only_here {{\n    \
             fn f(r: &telemetry::Registry) {{ r.counter(telemetry::catalog::SHARD_REROUTES_TOTAL).inc(); }}\n}}\n"
        )
    });
    assert_eq!(
        unregistered_catalog_entries(&files),
        ["SHARD_REROUTES_TOTAL"],
        "a registration inside #[cfg(test)] must not satisfy the check"
    );
}
