//! `tsqr-lint` — dependency-free static analysis for the grid-tsqr
//! workspace.
//!
//! This library backs three binaries (see `docs/static-analysis.md`):
//!
//! * **`commlint`** — the line-level determinism lint: wall-clock
//!   reads, HashMap/HashSet iteration, wildcard receives, tag-protocol
//!   declaration drift.
//! * **`archlint`** — the workspace-level analyzer: the crate-layering
//!   pass ([`layering`], spec in `scripts/layering.toml`), the
//!   nondeterminism-taint propagation pass ([`taint`], catching the
//!   indirect `Instant::now` two calls away that commlint cannot see),
//!   the static message-flow/protocol model ([`flow`], golden in
//!   `scripts/archlint.model`), the hermetic-manifest pass
//!   ([`registry`]: every dependency resolves to an in-repo path), and
//!   the reachability pass ([`reach`]: every shipped `pub fn` is reached
//!   from a binary, example, test or benchmark).
//! * **`linkcheck`** — the markdown link/anchor gate for the docs.
//!
//! Everything is deliberately `syn`-free: the workspace builds offline
//! with no external dependencies, so the analyses are line-level token
//! scanners over comment/string-stripped sources ([`scan`]). They are
//! conservative where they must guess, and every accepted exception
//! lives either in a committed allowlist (`scripts/*.allow`, with
//! stale entries themselves denied) or in an in-source
//! `archlint: allow(taint)` / `archlint: allow(reach)` annotation that
//! carries its justification.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flow;
pub mod layering;
pub mod protocol;
pub mod reach;
pub mod registry;
pub mod scan;
pub mod taint;
pub mod workspace;
