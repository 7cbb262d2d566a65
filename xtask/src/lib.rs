//! Workspace automation for sentinet: the project's static-analysis
//! suite, invoked as `cargo run -p xtask -- <command>`.
//!
//! - [`lint`] — a hand-rolled lint engine with ten project lints over
//!   the library crates (panic-family usage, float equality, unseeded
//!   RNG, crate-header hygiene, hot-path allocation, stray thread
//!   spawns), suppressible inline with
//!   `// sentinet-allow(lint-name): reason`;
//! - [`model_check`] — a loom-style exhaustive schedule explorer that
//!   replays the engine's coordinator loop under every
//!   worker/coordinator interleaving and asserts bit-identical
//!   equivalence with the serial pipeline;
//! - [`bench_check`] — schema validation for `BENCH_engine.json`;
//! - the `analyze` command additionally re-runs the numeric test
//!   suites with the `check-invariants` feature, turning every HMM
//!   matrix mutation and cluster update into a checked invariant.
//!
//! See DESIGN.md § "Static analysis" for the lint catalogue and the
//! rules for adding a lint.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bench_check;
pub mod lexer;
pub mod lint;
pub mod model_check;
pub mod protocol_check;
