//! The evaluation harness: regenerates every table and figure of the
//! paper's Section 6.
//!
//! * [`runs`] — builds and executes each application three ways
//!   (vanilla baseline, OPEC, ACES under the three strategies) and
//!   collects cycles, image footprints, traces, and analysis artifacts,
//!   fanning independent runs across scoped threads;
//! * [`cache`] — memoizes runs per `(app, configuration)` so one set of
//!   runs serves every table, figure, CSV export, and bench;
//! * [`metrics`] — the paper's two new metrics: partition-time
//!   over-privilege (PT, Equation 1) and execution-time over-privilege
//!   (ET, Equation 2), plus the Table 1 security metrics;
//! * [`report`] — renderers for Table 1, Figure 9, Table 2, Figure 10,
//!   Figure 11, and Table 3, as aligned text tables and CSV series;
//! * [`table`] — a small text-table formatter;
//! * [`cli`] — one shared flag vocabulary for every subcommand;
//! * [`engine`] — the eval-side face of the shared campaign engine
//!   (`opec-campaign`): CLI flags resolved to fuel budgets, watchdog
//!   deadlines, worker counts, and the checkpoint journal that
//!   `attack-matrix`, `check`, and `bench-vm` all run under;
//! * [`obsreport`] — the `report` subcommand: per-operation overhead
//!   breakdowns, metrics JSON, and Chrome `trace_event` exports cut
//!   from the [`opec_obs`] stream, OPEC and ACES measured identically;
//! * [`attack`] — the seeded attack-campaign matrix (`attack-matrix`):
//!   every app under every `opec-inject` attack class in three
//!   configurations (OPEC / ACES / baseline), scored with containment
//!   verdicts;
//! * [`check`] — the differential security oracle (`check`): every app
//!   and a batch of generated firmwares run in lockstep against the
//!   ground-truth access matrix, with PT/ET recomputed independently
//!   and cross-checked against the report's numbers; `--lockstep`
//!   instead holds the VM's pre-decoded fast path to observational
//!   equivalence with the plain interpreter;
//! * [`benchvm`] — the VM throughput benchmark (`bench-vm`): plain vs
//!   decoded instructions/sec, campaign resets/sec, snapshot restore
//!   latency, and the lockstep divergence count (`BENCH_vm.json`);
//! * [`fuzz`] — coverage-guided fuzzing (`fuzz`): structure-aware
//!   mutation of generated firmware plans, scheduled from a persistent
//!   minimized corpus, run as supervised campaign rounds, plus the
//!   guided-vs-random time-to-find benchmark (`BENCH_fuzz.json`).
//!
//! The `opec-eval` binary drives everything:
//!
//! ```text
//! opec-eval all           # every table and figure, from one memoized pass
//! opec-eval table1 | figure9 | table2 | figure10 | figure11 | table3
//! opec-eval case-study    # the §6.1 PinLock attack demonstration
//! opec-eval bench-json    # machine-readable solver + pipeline timings
//! ```

#![warn(missing_docs)]

pub mod attack;
pub mod benchjson;
pub mod benchvm;
pub mod cache;
pub mod check;
pub mod cli;
pub mod engine;
pub mod fuzz;
pub mod metrics;
pub mod obsreport;
pub mod report;
pub mod runs;
pub mod table;

pub use cache::EvalCache;
pub use cli::CliArgs;
pub use metrics::{et_by_task, pt_of_compartments, table1_row, EtSeries, Table1Row};
pub use runs::{evaluate_app, evaluate_many, AcesRun, AppEval, OpecRun};
