//! The lint must fail on seeded violations (fixtures) and pass on the
//! live workspace — both directions, so a rule that silently stops
//! firing breaks the build just like a rule violation does.

use std::path::{Path, PathBuf};

use xtask::lexer::lex;
use xtask::model::SourceFile;
use xtask::{
    archdoc, check_atomics, check_crate_attrs, check_fixed_paths, check_fixed_ports,
    check_lock_unwrap, check_metric_names, check_spec_strings_rs, check_wire_tags,
    documented_metric_names, lint_workspace, lint_workspace_rules, lock_cycle_findings, lock_edges,
    render_json,
};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Load one fixture as a model [`SourceFile`], the shape every
/// token-based rule consumes.
fn fixture(name: &str) -> SourceFile {
    let path = fixtures_dir().join(name);
    let content = std::fs::read_to_string(&path).expect("fixture exists");
    let tokens = lex(&content);
    SourceFile {
        rel: name.to_string(),
        crate_name: None,
        in_tests: name.contains("tests/"),
        path,
        content,
        tokens,
    }
}

#[test]
fn seeded_missing_attrs_are_flagged() {
    let f = fixture("bad_lib.rs");
    let findings = check_crate_attrs(&f.path, &f.content);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings
        .iter()
        .any(|f| f.message.contains("forbid(unsafe_code)")));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("deny(missing_docs)")));
}

#[test]
fn seeded_fixed_port_is_flagged_but_os_assigned_is_not() {
    let f = fixture("tests/bad_test.rs");
    let findings = check_fixed_ports(&f);
    assert_eq!(findings.len(), 1, "{findings:?}");
    // (Port spelled without the host so this assertion is not itself a
    // fixed-port finding — tests/ dirs are in the rule's scan scope.)
    assert!(findings[0].message.contains("7878"));
}

#[test]
fn seeded_lock_unwrap_is_flagged() {
    let f = fixture("tests/bad_test.rs");
    let findings = check_lock_unwrap(&f);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("into_inner"));
}

#[test]
fn seeded_fixed_path_is_flagged_but_derived_scratch_dirs_are_not() {
    let f = fixture("tests/bad_test.rs");
    let findings = check_fixed_paths(&f);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("ltree-test"), "{findings:?}");
    assert!(findings[0].message.contains("scratch_dir"), "{findings:?}");
}

#[test]
fn seeded_bad_spec_is_flagged_and_healthy_spans_are_not() {
    let f = fixture("bad_docs.rs");
    let reg = ltree::default_registry();
    let findings = check_spec_strings_rs(&f, &reg);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(
        findings[0].message.contains("no-such-scheme"),
        "{findings:?}"
    );
}

#[test]
fn seeded_undocumented_metric_name_is_flagged_but_table_rows_cover_families() {
    let f = fixture("bad_metrics.rs");
    // A miniature naming table: an exact row and two `<i>` family rows.
    let documented = vec![
        "net/requests".to_string(),
        "net/conn<i>/round-trips".to_string(),
        "seg/<i>/label-writes".to_string(),
    ];
    let findings = check_metric_names(&f, &documented);
    assert_eq!(findings.len(), 2, "{findings:?}");
    // (Names assembled at runtime so this test is not itself a finding.)
    let bad = ["obs", "op", "no_such_op"].join("/");
    assert!(findings[0].message.contains(&bad), "{findings:?}");
    let bad_segment = ["seg", "2", "bytes-in"].join("/");
    assert!(findings[1].message.contains(&bad_segment), "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == "metric-names"));
}

// ------------------------------------------------------------------
// Token migration regression: the old substring scanner flagged rule
// patterns inside comments and string literals; the token-based rules
// must not.
// ------------------------------------------------------------------

#[test]
fn rule_patterns_inside_comments_and_strings_are_not_findings() {
    let f = fixture("false_positives.rs");
    assert!(check_fixed_ports(&f).is_empty(), "R2 false positive");
    assert!(check_lock_unwrap(&f).is_empty(), "R3 false positive");
    assert!(check_fixed_paths(&f).is_empty(), "R5 false positive");
    // An empty naming table makes every minted name a finding — so zero
    // findings proves the quoted names were never treated as minted.
    assert!(check_metric_names(&f, &[]).is_empty(), "R6 false positive");
    assert!(check_atomics(&f).is_empty(), "R8 false positive");
}

// ------------------------------------------------------------------
// R7 · lock-order
// ------------------------------------------------------------------

#[test]
fn seeded_lock_order_cycle_is_flagged_with_both_sites() {
    let f = fixture("bad_lock_order.rs");
    let findings = lock_cycle_findings(&lock_edges(&f));
    assert_eq!(findings.len(), 1, "{findings:?}");
    let msg = &findings[0].message;
    assert!(msg.contains("`recv` then `send`"), "{msg}");
    assert!(msg.contains("`send` then `recv`"), "{msg}");
    // Both lock sites are named file:line — the forward acquisition of
    // `send` (line 7) and the backward acquisition of `recv` (line 14).
    assert!(msg.contains("bad_lock_order.rs:7"), "{msg}");
    assert!(msg.contains("bad_lock_order.rs:14"), "{msg}");
    assert_eq!(findings[0].rule, "lock-order");
}

// ------------------------------------------------------------------
// R8 · atomics-audit
// ------------------------------------------------------------------

#[test]
fn seeded_atomics_violations_are_flagged_and_the_healthy_case_is_not() {
    let f = fixture("bad_atomics.rs");
    let findings = check_atomics(&f);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(
        findings
            .iter()
            .any(|x| x.line == 10 && x.message.contains("why-comment")),
        "doc comment must not satisfy the audit: {findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|x| x.line == 15 && x.message.contains("deny-by-default")),
        "unjustified SeqCst: {findings:?}"
    );
}

// ------------------------------------------------------------------
// R10 · wire-tags
// ------------------------------------------------------------------

#[test]
fn seeded_wire_tag_drift_is_flagged() {
    let f = fixture("bad_wire.rs");
    let table =
        archdoc::parse_wire_tags("[xtask:wire-error-tags]\n0 = UnknownHandle\n2 = EmptyTree\n")
            .expect("table parses");
    let findings = check_wire_tags(&f, None, &table);
    let msgs: Vec<&str> = findings.iter().map(|x| x.message.as_str()).collect();
    assert!(
        msgs.iter()
            .any(|m| m.contains("tag 0 to both `UnknownHandle` and `DeletedLeaf`")),
        "duplicate encode tag: {msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("tag 2 encodes `EmptyTree` but decodes `NotEmpty`")),
        "encode/decode drift: {msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("tag 7 (`Remote`) is decoded but never encoded")),
        "decode-only tag: {msgs:?}"
    );
    assert!(findings.iter().all(|x| x.rule == "wire-tags"));
}

// ------------------------------------------------------------------
// End-to-end over the fixture mini-workspace: R1/R2/R3/R5/R7/R8/R9,
// the escape hatch, `--rule` filtering and the `--json` output, all
// through the same `lint_workspace` entry point CI uses.
// ------------------------------------------------------------------

fn ws_root() -> PathBuf {
    fixtures_dir().join("ws")
}

#[test]
fn fixture_workspace_yields_the_expected_findings() {
    let findings = lint_workspace(&ws_root()).expect("fixture ws readable");
    let brief: Vec<String> = findings
        .iter()
        .map(|f| format!("{}:{}:{}", f.rule, f.path.display(), f.line))
        .collect();

    let count = |rule: &str| findings.iter().filter(|f| f.rule == rule).count();
    assert_eq!(count("crate-attrs"), 2, "{brief:?}");
    assert_eq!(count("fixed-port"), 1, "{brief:?}");
    assert_eq!(count("lock-unwrap"), 1, "{brief:?}");
    assert_eq!(count("fixed-path"), 1, "{brief:?}");
    assert_eq!(count("lock-order"), 1, "{brief:?}");
    assert_eq!(count("atomics-audit"), 1, "{brief:?}");
    assert_eq!(count("crate-layering"), 2, "{brief:?}");
    assert_eq!(count("xtask-allow"), 1, "{brief:?}");
    assert_eq!(findings.len(), 10, "{brief:?}");

    // The two-lock cycle names both sites of the seeded deadlock.
    let cycle = findings.iter().find(|f| f.rule == "lock-order").unwrap();
    assert!(cycle.message.contains("Queues::recv"), "{}", cycle.message);
    assert!(cycle.message.contains("Queues::send"), "{}", cycle.message);

    // R9 fires on the undeclared edge in both the manifest and the use.
    let layering: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "crate-layering")
        .collect();
    assert!(
        layering.iter().any(|f| f.path.ends_with("Cargo.toml")),
        "{brief:?}"
    );
    assert!(
        layering.iter().any(|f| f.path.ends_with("lib.rs")),
        "{brief:?}"
    );

    // The justified hatch suppressed the bare Relaxed in allowed.rs:
    // the only atomics finding is the SeqCst one in src/lib.rs.
    let atomics = findings.iter().find(|f| f.rule == "atomics-audit").unwrap();
    assert!(atomics.path.ends_with("lib.rs"), "{brief:?}");

    // Every finding reports a real file and line.
    for f in &findings {
        assert!(f.path.exists(), "finding path vanished: {f}");
    }
}

#[test]
fn rule_filtering_restricts_the_run() {
    let only = vec!["lock-order".to_string()];
    let findings = lint_workspace_rules(&ws_root(), &only).expect("fixture ws readable");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "lock-order");
}

#[test]
fn json_output_parses_and_lists_every_finding() {
    let findings = lint_workspace(&ws_root()).expect("fixture ws readable");
    let json = render_json(&findings);
    let parsed = ltree_bench::json::Json::parse(&json).expect("lint --json output parses");
    assert_eq!(
        parsed.get("count").and_then(|c| c.as_u64()),
        Some(findings.len() as u64)
    );
    let listed = parsed
        .get("findings")
        .and_then(|f| f.as_array())
        .expect("findings array");
    assert_eq!(listed.len(), findings.len());
    for (entry, f) in listed.iter().zip(&findings) {
        assert_eq!(entry.get("rule").and_then(|v| v.as_str()), Some(f.rule));
        assert_eq!(
            entry.get("line").and_then(|v| v.as_u64()),
            Some(f.line as u64)
        );
        let file = entry.get("file").and_then(|v| v.as_str()).expect("file");
        assert!(f.path.display().to_string() == file, "{file}");
    }
}

// ------------------------------------------------------------------
// Live workspace: the architecture tables stay load-bearing and the
// tree stays clean under all ten rules.
// ------------------------------------------------------------------

#[test]
fn the_architecture_naming_table_covers_the_live_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(root.join("ARCHITECTURE.md")).expect("doc exists");
    let documented = documented_metric_names(&text);
    // The table documents at least the big families; an empty scrape of
    // the doc would make rule 6 vacuously fire on everything.
    for expected in ["net/requests", "wal/fsync-duration", "audit/runs"] {
        assert!(
            documented.iter().any(|d| d == expected),
            "naming table lost `{expected}`: {documented:?}"
        );
    }
    assert!(documented.iter().any(|d| d.starts_with("obs/op/")));
}

#[test]
fn the_architecture_machine_sections_parse() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(root.join("ARCHITECTURE.md")).expect("doc exists");
    let graph = archdoc::parse_crate_graph(&text).expect("crate graph parses");
    assert!(graph.declares("ltree-core"));
    assert!(graph.allows("ltree-remote", "ltree-obs", false));
    assert!(
        !graph.allows("ltree-obs", "ltree-remote", false),
        "obs must stay core-only"
    );
    let tags = archdoc::parse_wire_tags(&text).expect("wire tags parse");
    assert_eq!(tags.tags.get(&0).map(String::as_str), Some("UnknownHandle"));
    assert!(tags.canonicalized.contains("InvalidParams"));
}

#[test]
fn live_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = lint_workspace(&root).expect("workspace readable");
    assert!(
        findings.is_empty(),
        "live workspace has lint findings:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
