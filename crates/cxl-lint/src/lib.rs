//! `cxl-lint` — the static analysis the toolchain cannot do.
//!
//! Most of the workspace's source-level invariants are clippy's to
//! enforce (`crates/clippy.toml`: no wall clock, no hash containers, no
//! raw locks; scoped `unwrap_used`/`expect_used` on the device path).
//! What clippy cannot express stays here:
//!
//! * **Lock order.** Every lock is a
//!   [`TrackedMutex`](../cxl_mem/lockdep) / `TrackedRwLock` with a class
//!   name, and the acquisition *order* written in the source must form a
//!   DAG even on paths no test drives. [`lockgraph`] extracts that
//!   lock-class graph statically, checks it for cycles, and cross-checks
//!   it against the edges runtime lockdep recorded.
//! * **Error enums stay open.** Every `pub enum …Error` must be
//!   `#[non_exhaustive]` (see [`engine`]).
//!
//! Both run from a hand-rolled [`lexer`] (no `syn`/`quote` — the build
//! container has no network): class names are string literals and guard
//! lifetimes are brace scopes, so token fidelity is all they need.
//!
//! Run it as `cargo run -p cxl-lint`; DESIGN.md §12 is the policy
//! document.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod engine;
pub mod lexer;
pub mod lockgraph;

pub use diag::{Report, Violation};
pub use engine::{lint_files, lint_workspace, SourceFile};
