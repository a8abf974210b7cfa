//! # minion-testkit
//!
//! The adversarial **scenario-matrix harness** for the Minion reproduction.
//!
//! The paper's claim — uTCP/uTLS deliver datagrams out of order while staying
//! wire-compatible with TCP/TLS and their middleboxes — is only credible if
//! the stack survives a *matrix* of network conditions, not a handful of
//! hand-picked tests. This crate programmatically generates two-host(-plus-
//! middlebox) worlds from a cross product of axes:
//!
//! * **loss model** — none / Bernoulli / Gilbert–Elliott burst / an explicit
//!   dropped segment ([`LossAxis`]);
//! * **round-trip time** — 10–300 ms ([`CellSpec::rtt_ms`]);
//! * **bottleneck rate** ([`CellSpec::rate_bps`]);
//! * **middlebox behaviour** — pass-through, re-segmenting `Split`, or
//!   `Coalesce` ([`MiddleboxAxis`]);
//! * **protocol** — uCOBS, uTLS, or msTCP, each over a standard-TCP or a
//!   uTCP receiver ([`PayloadProtocol`], [`StackMode`]);
//! * **concurrent flows** — 1, 64, or 1024 connections multiplexed through
//!   the `minion-engine` event runtime ([`CellSpec::flows`]; multi-flow
//!   cells assert exactly-once delivery and per-stream order *per flow*).
//!
//! Each cell runs under a fixed seed and [`verify_cell`] asserts the paper's
//! invariants in *every* cell:
//!
//! 1. **Exactly-once delivery**: the multiset of delivered payloads equals
//!    the multiset of sent payloads (no loss, duplication, or corruption —
//!    for uTLS this doubles as the MAC-intact check, since every delivered
//!    record was confirmed by its MAC and must decrypt to the sent bytes).
//! 2. **Out-of-order only under uTCP**: a datagram is flagged out-of-order
//!    only when the receiver runs the uTCP extensions; with a deterministic
//!    mid-stream drop and a uTCP receiver, out-of-order delivery *must*
//!    occur.
//! 3. **Per-stream ordering for msTCP**: every stream's bytes reassemble to
//!    exactly the sent messages, in order, regardless of transport-level
//!    reordering.
//! 4. **Determinism**: running the same cell twice under the same seed
//!    produces an identical [`CellReport`], byte for byte.
//!
//! The harness is the regression surface for later performance and scaling
//! work: `tests/scenario_matrix.rs` in the workspace root pins a ≥24-cell
//! matrix.
//!
//! Sweeps parallelise with `minion_engine::par_map`: cells are independent
//! jobs ([`run_matrix_threads`]), cell seeds are a stable hash of axis
//! coordinates ([`CellSpec::coordinate_seed`]), and reports come back in
//! cell order — so a sweep's output is byte-identical at any thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod axes;
pub mod load;
pub mod runner;
pub mod world;

pub use axes::{CellSpec, LossAxis, MatrixSpec, MiddleboxAxis, PayloadProtocol, StackMode};
pub use load::{load_scenario_of, run_load_cell};
pub use minion_tcp::CcAlgorithm;
pub use runner::{
    run_cell, run_matrix, run_matrix_once, run_matrix_threads, summarize, verify_cell, CellReport,
};
pub use world::{build_world, CellWorld};
// The canonical loss-model types: `LossAxis` is a selector over these, not a
// re-implementation — consumers needing a loss model use the simnet type.
pub use minion_simnet::{LossConfig, LossModel};
