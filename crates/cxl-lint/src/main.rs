//! The `cxl-lint` binary: lints the workspace and exits nonzero on any
//! finding. This is a hard CI gate (`ci.sh` runs it before the test
//! suites).
//!
//! ```text
//! cxl-lint [--root DIR]
//! ```
//!
//! `--root DIR` is the workspace root (default: the current directory).
//! Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use cxl_lint::lint_workspace;

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("cxl-lint: {message}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = PathBuf::from(args.next().ok_or("--root needs a value")?),
            "--help" | "-h" => {
                println!("usage: cxl-lint [--root DIR]");
                return Ok(true);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    let report =
        lint_workspace(&root, None).map_err(|e| format!("walking {}: {e}", root.display()))?;
    print!("{report}");
    Ok(report.is_clean())
}
