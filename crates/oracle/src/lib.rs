//! # bd-oracle
//!
//! Differential verification for the simulation stack: a deliberately
//! **naive reference engine** plus a fuzz harness that checks it against
//! the optimized `bd-runtime` engine on full trajectories.
//!
//! ## Why a second engine
//!
//! The fast engine earns its speed with machinery that is easy to get
//! subtly wrong: incremental occupancy tracked through dirty lists,
//! rosters re-sorted only when stale, bulletins cleared through touched
//! lists, and whole idle stretches fast-forwarded in one jump. None of
//! that machinery is part of the paper's model — it is all supposed to be
//! *unobservable*. The way to make that claim falsifiable is a second
//! implementation with **none** of it:
//!
//! * [`engine::OracleEngine`] rebuilds occupancy and rosters into fresh
//!   `BTreeMap`s every round, allocates bulletins per round, and steps
//!   every single round — straight-line code whose only shared surface
//!   with the fast engine is the model itself (§1.1 rounds and
//!   sub-rounds, weak/strong ID stamping, simultaneous movement,
//!   Byzantine teleport clamping).
//! * [`diff::check_cell`] runs one scenario on both engines **with the
//!   identical controller roster** (via [`bd_dispersion::build_roster`])
//!   and compares everything trajectory-observable: the
//!   movement-normalized event trace, the verifier report, round count,
//!   final positions, and move odometers. Work measures (`messages`,
//!   `subrounds_executed`, `rounds_skipped`, wall-clock) are exempt —
//!   doing less work is the fast path's job.
//! * [`fuzz::run_fuzz`] samples random cells across
//!   {algorithm × adversary × graph family × n × k × f × seed × start
//!   configuration}, stops at the first divergence, and greedily
//!   minimizes it (smallest `n`, then `f`, then `k` that still diverges,
//!   with the round of first mismatch when the traces split).
//! * [`dynamic::check_dynamic_cell`] extends the differential surface to
//!   event-scheduled worlds: the naive engine implements `bd-dynamic`'s
//!   `EpochBackend` (same world-event hook, restated naively), so whole
//!   epoch sequences — joins, leaves, edge failures, adversary switches —
//!   are compared per epoch and on the cumulative trace, and
//!   [`dynamic::run_dynamic_fuzz`] samples event schedules on top of the
//!   static case space (minimization drops event batches greedily).
//!
//! Because the controllers are shared object-for-object, a divergence can
//! never be a protocol bug: it is always an engine bug, on one side or
//! the other. The harness is symmetric on purpose — it would have caught
//! a naive-side mistake in this crate just as loudly.
//!
//! ## Proving the harness has teeth
//!
//! A differential gate that has never failed is indistinguishable from a
//! gate that cannot fail. `EngineConfig::with_ff_overshoot(1)` exists for
//! exactly this: it sabotages the fast engine's fast-forward clamp by one
//! round (a realistic off-by-one — the jump lands *past* the round the
//! earliest robot meant to act in), and the crate's tests assert the
//! harness catches it. See `VERIFICATION.md` at the repo root for the
//! layering and the mandatory-gate workflow.

pub mod diff;
pub mod dynamic;
pub mod engine;
pub mod fuzz;

pub use diff::{check_cell, check_cell_tuned, run_oracle, CellVerdict, Divergence};
pub use dynamic::{
    check_dynamic_cell, check_dynamic_cell_tuned, run_dynamic_fuzz, run_dynamic_fuzz_with,
    run_dynamic_oracle, DynamicFuzzFailure, DynamicFuzzReport, DynamicSketch,
};
pub use engine::OracleEngine;
pub use fuzz::{
    run_fuzz, run_fuzz_with, CaseSketch, FuzzConfig, FuzzFailure, FuzzReport, GraphFamily,
};
