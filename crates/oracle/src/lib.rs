//! Differential security oracle for the OPEC pipeline.
//!
//! The enforcement stack — partition, resource analysis, layout,
//! shadowing, MPU-plan generation, switch-time sub-region arithmetic,
//! peripheral-window virtualization, BusFault emulation — is many
//! layers deep, and a bug in any of them can silently over- or
//! under-privilege an operation while every unit test stays green.
//! This crate checks the *composition* end to end:
//!
//! 1. [`matrix::AccessMatrix`] — the ground-truth answer to "may
//!    operation *i* access address *a*?", computed straight from the
//!    partition and resource-dependency results plus the placement
//!    map, deliberately independent of the MPU-config and shadowing
//!    codegen it audits.
//! 2. [`shadow`](mod@shadow) — a lockstep [`opec_vm::Watcher`] that compares every
//!    resolved access, function entry and operation switch against the
//!    matrix, probing the MPU model at sentinel addresses on every
//!    switch, and reports typed [`divergence::Divergence`]s: *escapes*
//!    (runtime allowed, matrix denies) and *spurious denials* (runtime
//!    trapped, matrix allows).
//! 3. [`gen`] / [`shrink`](mod@shrink) — seeded random firmware plans pushed
//!    through the production pipeline, with greedy shrinking to a
//!    minimal divergent program when the oracle fires.
//!
//! 4. [`firmware`] — one firmware under test (a paper application or a
//!    generated plan) built as the vanilla baseline, under OPEC or under
//!    ACES, with each build's supervisor and matrix derived from it; every
//!    harness in the workspace boots its subjects through it.
//!
//! `opec-eval check` drives all of it over the paper's applications
//! and a batch of generated firmwares; `crates/oracle/tests` prove the
//! oracle actually catches deliberately broken MPU configurations.

#![warn(missing_docs)]

pub mod corpus;
pub mod coverage;
pub mod divergence;
pub mod firmware;
pub mod gen;
pub mod matrix;
pub mod mutate;
pub mod run;
pub mod shadow;
pub mod shrink;
pub mod tamper;

pub use corpus::{Corpus, CorpusEntry};
pub use coverage::{divergence_key, CoverageMap};
pub use divergence::{Divergence, Observed};
pub use firmware::{AcesBuild, Firmware, OpecBuild, System};
pub use gen::{generate, FirmwareSpec};
pub use matrix::{AccessMatrix, Expect};
pub use mutate::{mutate, mutate_stacked, periph_owners, well_formed, Mutator, ALL_MUTATORS};
pub use run::{
    run_opec_on, BuildOutput, RunBudget, RunHalt, RunRecord, RunRequest, Verdict, GEN_FUEL,
};
pub use shadow::{shadow, OracleHandle, OracleState, ShadowOracle};
pub use shrink::{describe, shrink};
pub use tamper::{break_mpu, break_mpu_latent, LATENT_MIN_WINDOWS};
