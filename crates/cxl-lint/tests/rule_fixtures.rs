//! One seeded-violation fixture per rule: each fixture contains exactly
//! one planted violation, and the test asserts the engine reports it
//! with the right rule id — and that the `cxl-lint` binary exits
//! nonzero on it. A clean fixture pins exit code 0, and a bad flag or an
//! unreadable root pins exit code 2. (The rules that moved to clippy are
//! proved to bite by the `canary/` package and its `ci.sh` step.)

use std::path::PathBuf;
use std::process::Command;

use cxl_lint::lint_files;

const CYCLE_SRC: &str = r#"
fn mk() { let a = TrackedMutex::new("cy.a", ()); let b = TrackedMutex::new("cy.b", ()); }
fn ab(a: &TrackedMutex<()>, b: &TrackedMutex<()>) { let ga = a.lock(); let gb = b.lock(); }
fn ba(a: &TrackedMutex<()>, b: &TrackedMutex<()>) { let gb = b.lock(); let ga = a.lock(); }
"#;

/// One static `ord.a → ord.b` edge and nothing else.
const ORDERED_SRC: &str = r#"
fn mk() { let a = TrackedMutex::new("ord.a", ()); let b = TrackedMutex::new("ord.b", ()); }
fn ab(a: &TrackedMutex<()>, b: &TrackedMutex<()>) { let ga = a.lock(); let gb = b.lock(); }
"#;

fn lint_one(src: &str, runtime: Option<&[(String, String)]>) -> cxl_lint::Report {
    lint_files(
        &[("crates/det/src/lib.rs".to_string(), src.to_string())],
        runtime,
    )
}

fn rules_and_lines(src: &str) -> Vec<(&'static str, u32)> {
    let report = lint_one(src, None);
    report.violations.iter().map(|v| (v.rule, v.line)).collect()
}

#[test]
fn non_exhaustive_error_fixture() {
    assert_eq!(
        rules_and_lines("pub enum StoreError { Full }\n"),
        vec![("non-exhaustive-error", 1)]
    );
    assert!(rules_and_lines("#[non_exhaustive]\npub enum StoreError { Full }\n").is_empty());
    // Private enums may be matched exhaustively within their crate.
    assert!(rules_and_lines("enum StoreError { Full }\n").is_empty());
}

#[test]
fn lock_cycle_fixture() {
    assert_eq!(rules_and_lines(CYCLE_SRC), vec![("lock-cycle", 0)]);
}

#[test]
fn lock_order_contradiction_fixture() {
    let pair = |h: &str, a: &str| (h.to_string(), a.to_string());
    let runtime = [
        pair("ord.b", "ord.a"),
        pair("cxl_mem.device.shard07", "cxl_mem.device.shard03"),
    ];
    let report = lint_one(ORDERED_SRC, Some(&runtime));
    let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
    assert_eq!(
        rules,
        vec!["lock-order-contradiction"; 2],
        "{:?}",
        report.violations
    );
}

#[test]
fn lock_coverage_gap_is_a_warning_not_an_error() {
    let report = lint_one(ORDERED_SRC, Some(&[]));
    assert!(report.is_clean(), "{:?}", report.violations);
    assert_eq!(
        report.coverage_gaps,
        vec![("ord.a".to_string(), "ord.b".to_string())]
    );
}

// ---------------------------------------------------------------------
// Binary exit codes, over on-disk fixture workspaces
// ---------------------------------------------------------------------

struct FixtureDir(PathBuf);

impl FixtureDir {
    fn new(name: &str, lib_rs: &str) -> FixtureDir {
        let root =
            std::env::temp_dir().join(format!("cxl-lint-fixture-{}-{name}", std::process::id()));
        let src = root.join("crates/det/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("lib.rs"), lib_rs).unwrap();
        FixtureDir(root)
    }
}

impl Drop for FixtureDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_lint(root: &std::path::Path, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cxl-lint"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("spawn cxl-lint")
}

#[test]
fn binary_exits_zero_on_a_clean_tree() {
    let fx = FixtureDir::new("clean", "pub fn fine() {}\n");
    let out = run_lint(&fx.0, &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn binary_exits_one_on_a_seeded_violation_and_names_the_rule() {
    let fx = FixtureDir::new("dirty", CYCLE_SRC);
    let out = run_lint(&fx.0, &[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[lock-cycle]"), "{stdout}");
}

#[test]
fn binary_exits_two_on_an_unknown_flag() {
    // `--json` is gone with the JSON renderer: `--root` is the only flag.
    let fx = FixtureDir::new("badflag", "pub fn fine() {}\n");
    let out = run_lint(&fx.0, &["--json"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument `--json`"), "{stderr}");
}

#[test]
fn binary_exits_two_on_an_unreadable_root() {
    let fx = FixtureDir::new("noroot", "pub fn fine() {}\n");
    let out = run_lint(&fx.0.join("no-such-dir"), &[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}
