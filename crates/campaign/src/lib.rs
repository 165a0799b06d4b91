//! Resilient campaign engine for the OPEC evaluation.
//!
//! The paper's evaluation (§7) is a pile of campaigns — attack
//! matrices, differential-oracle sweeps, lockstep equivalence runs —
//! and every one of them used to assume each job terminates and never
//! panics: one runaway generated firmware or one host-side bug lost
//! the whole `--seeds N` run. This crate is the shared harness that
//! drops that assumption, treating every firmware as hostile to the
//! harness itself:
//!
//! * [`engine`] — the supervised work queue: fuel budgets, wall-clock
//!   watchdogs, `catch_unwind` containment, one-shot retry with
//!   transient/deterministic classification, and repro artifacts for
//!   deterministic failures.
//! * [`quantum`] — cooperative fuel-quantum scheduling for *resident*
//!   tasks: fleet device VMs that run a bounded quantum, park, and
//!   re-queue, thousands of them pinned across a few worker shards.
//! * [`journal`] — the crash-safe JSONL checkpoint: fsync-batched
//!   appends keyed by deterministic job id, torn-tail recovery, and
//!   resume-by-skipping so a killed campaign finishes with aggregates
//!   byte-identical to an uninterrupted run.
//! * [`json`] — the workspace's JSON codec, [`opec_obs::json`],
//!   re-exported under its historical path.
//!
//! Supervision milestones surface as [`opec_obs::Event::Job`] events
//! and in [`engine::CampaignReport::summary`]; nothing is shed
//! silently.

#![warn(missing_docs)]

pub mod engine;
pub mod journal;
pub mod quantum;

pub use opec_obs::json;

pub use engine::{
    panic_message, run_campaign, CampaignOpts, CampaignReport, Job, JobCtx, JobOutcome, JobRecord,
    JobResult, PanicPayload, DEFAULT_TIMEOUT_SECS,
};
pub use journal::{Journal, Record, SYNC_BATCH};
pub use quantum::{run_quanta, Poll, Quantum, QuantumCtx, QuantumOpts, ShardReport};
