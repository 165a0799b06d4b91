//! The `check` subcommand: the differential security oracle over the
//! whole pipeline.
//!
//! Runs every paper application under OPEC (and the five comparison
//! apps under ACES) with the [`opec_oracle`] shadow monitor attached,
//! plus a batch of seeded random firmwares under both stacks, and
//! reports every divergence between the enforcement layers and the
//! ground-truth access matrix. On top of the lockstep checks it
//! cross-validates the evaluation's own numbers: PT recomputed from
//! the matrix's granted/needed byte counts must equal
//! [`pt_of_compartments`], and ET recomputed from the oracle's
//! independently recorded execution sets must equal [`et_by_task`].
//!
//! Exit policy (enforced by `main`): any divergence, run error, or
//! failed cross-check is a failure. ACES build rejections of generated
//! firmwares (group-region overflow) are recorded as skips — that is
//! an ACES scalability property the paper discusses, not an oracle
//! disagreement.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;

use opec_aces::{build_aces_image, AcesRuntime, AcesStrategy};
use opec_apps::programs::{aces_comparison_apps, all_apps};
use opec_apps::App;
use opec_armv7m::Machine;
use opec_campaign::json::{self, Value};
use opec_campaign::{run_campaign, CampaignOpts, CampaignReport, Job, JobOutcome, JobResult};
use opec_core::{compile, OpecMonitor};
use opec_fleet::FleetBackend;
use opec_ir::{GlobalId, Module};
use opec_obs::export::{event_log, metrics_json};
use opec_obs::{Obs, OpId, Recorder};
use opec_oracle::{
    describe, divergence_key, generate, run_aces_with, run_opec_on, shadow, shrink, AccessMatrix,
    Corpus, FirmwareSpec, OracleState, RunBudget, RunHalt, Verdict, GEN_FUEL,
};
use opec_vm::{ExecMode, LoadedImage, RunOutcome, Supervisor, Trace, Vm, VmError, VmStats};

use crate::engine::{EngineOpts, RunLimits};
use crate::metrics::{et_by_task, pt_of_compartments};
use crate::runs::{AppEval, OpecRun};

/// Tolerance for the PT/ET cross-checks: both sides are exact integer
/// byte ratios, so any disagreement beyond rounding is a real bug.
const EPS: f64 = 1e-9;

/// Shrink budget (pipeline re-runs) per divergent generated firmware.
const SHRINK_BUDGET: usize = 200;

/// Options for [`run_check`].
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// How many generated firmware seeds to run.
    pub seeds: u64,
    /// Shrink divergent generated firmwares to a minimal program.
    pub shrink: bool,
    /// Protection backend the OPEC stack runs on. The ACES comparison
    /// exists only on ARMv7-M; on other backends its cases are
    /// recorded as skip notes.
    pub backend: FleetBackend,
    /// Fuzzing corpus directory: when set, `--shrink` consults the
    /// corpus for a smaller already-known plan covering the same
    /// divergence key and shrinks from the smaller of the two.
    pub corpus: Option<String>,
}

impl Default for CheckOptions {
    fn default() -> CheckOptions {
        CheckOptions { seeds: 16, shrink: false, backend: FleetBackend::Armv7m, corpus: None }
    }
}

/// The oracle's verdict over one subject (one app or one generated
/// firmware under one enforcement stack).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseResult {
    /// Subject name (`PinLock`, `gen[7]`, ...).
    pub name: String,
    /// Enforcement stack (`OPEC` or `ACES`).
    pub system: &'static str,
    /// Rendered divergences (capped by the oracle).
    pub divergences: Vec<String>,
    /// Total divergence count (uncapped).
    pub total: u64,
    /// Lockstep access checks performed.
    pub checks: u64,
    /// MPU probes performed.
    pub probes: u64,
    /// Accepted switches observed.
    pub switches: u64,
    /// Terminal run error, if the run did not end cleanly.
    pub run_error: Option<String>,
    /// Shrunk counterexample description, when shrinking ran.
    pub shrunk: Option<String>,
    /// Non-failure annotation (e.g. an ACES build skip).
    pub note: Option<String>,
}

impl CaseResult {
    fn failed(&self) -> bool {
        self.total > 0 || self.run_error.is_some()
    }
}

/// One recomputed-metric agreement check.
#[derive(Debug, Clone)]
pub struct CrossCheck {
    /// What was compared.
    pub name: String,
    /// Whether the two derivations agree.
    pub ok: bool,
    /// Agreement summary or the first disagreement.
    pub detail: String,
}

/// Everything `check` produced.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// The protection backend the OPEC cases ran on.
    pub backend: &'static str,
    /// Per-subject oracle verdicts.
    pub cases: Vec<CaseResult>,
    /// Metric cross-checks.
    pub crosschecks: Vec<CrossCheck>,
}

impl Default for CheckReport {
    fn default() -> CheckReport {
        CheckReport {
            backend: FleetBackend::Armv7m.name(),
            cases: Vec::new(),
            crosschecks: Vec::new(),
        }
    }
}

impl CheckReport {
    /// Every failure, rendered: divergent cases, run errors, failed
    /// cross-checks.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for c in &self.cases {
            if c.total > 0 {
                out.push(format!("{} ({}): {} divergences", c.name, c.system, c.total));
            }
            if let Some(e) = &c.run_error {
                out.push(format!("{} ({}): run error: {e}", c.name, c.system));
            }
        }
        for x in &self.crosschecks {
            if !x.ok {
                out.push(format!("cross-check {}: {}", x.name, x.detail));
            }
        }
        out
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "Differential oracle (backend: {})\n===================\n",
            self.backend
        ));
        for c in &self.cases {
            let status = if c.failed() { "FAIL" } else { "  ok" };
            s.push_str(&format!(
                "{status}  {:<22} {:<4}  {:>3} divergences  {:>8} checks  {:>5} probes  {:>4} switches",
                c.name, c.system, c.total, c.checks, c.probes, c.switches
            ));
            if let Some(n) = &c.note {
                s.push_str(&format!("  [{n}]"));
            }
            s.push('\n');
            if let Some(e) = &c.run_error {
                s.push_str(&format!("      run error: {e}\n"));
            }
            for d in &c.divergences {
                s.push_str(&format!("      {d}\n"));
            }
            if let Some(sh) = &c.shrunk {
                s.push_str("      shrunk counterexample:\n");
                for line in sh.lines() {
                    s.push_str(&format!("        {line}\n"));
                }
            }
        }
        s.push_str("\nMetric cross-checks\n-------------------\n");
        for x in &self.crosschecks {
            let status = if x.ok { "  ok" } else { "FAIL" };
            s.push_str(&format!("{status}  {:<30} {}\n", x.name, x.detail));
        }
        let failures = self.failures();
        s.push_str(&format!(
            "\n{} cases, {} cross-checks, {} failures\n",
            self.cases.len(),
            self.crosschecks.len(),
            failures.len()
        ));
        s
    }

    /// Machine-readable artifact (the CI `oracle.json`).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
        }
        fn opt(s: &Option<String>) -> String {
            match s {
                Some(v) => format!("\"{}\"", esc(v)),
                None => "null".to_string(),
            }
        }
        let mut s = format!("{{\n  \"backend\": \"{}\",\n  \"cases\": [\n", self.backend);
        for (i, c) in self.cases.iter().enumerate() {
            let divs = c
                .divergences
                .iter()
                .map(|d| format!("\"{}\"", esc(d)))
                .collect::<Vec<_>>()
                .join(", ");
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"system\": \"{}\", \"total_divergences\": {}, \
                 \"checks\": {}, \"probes\": {}, \"switches\": {}, \"run_error\": {}, \
                 \"note\": {}, \"shrunk\": {}, \"divergences\": [{divs}]}}{}\n",
                esc(&c.name),
                c.system,
                c.total,
                c.checks,
                c.probes,
                c.switches,
                opt(&c.run_error),
                opt(&c.note),
                opt(&c.shrunk),
                if i + 1 < self.cases.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n  \"crosschecks\": [\n");
        for (i, x) in self.crosschecks.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"ok\": {}, \"detail\": \"{}\"}}{}\n",
                esc(&x.name),
                x.ok,
                esc(&x.detail),
                if i + 1 < self.crosschecks.len() { "," } else { "" }
            ));
        }
        s.push_str(&format!("  ],\n  \"failures\": {}\n}}\n", self.failures().len()));
        s
    }
}

/// Whether (and how) a job's VM work was cut short by its budget.
/// Folded over every run the job performs, then mapped onto the
/// engine's [`JobResult`]: a watchdog stop may be transient host load
/// (retried once), fuel exhaustion is guest-deterministic (never
/// retried).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BudgetHalt {
    /// Every run finished within budget.
    Ran,
    /// A run exhausted its guest fuel budget.
    Fuel,
    /// The wall-clock watchdog stopped a run.
    Timeout,
}

impl BudgetHalt {
    pub(crate) fn from_oracle(halt: Option<RunHalt>) -> BudgetHalt {
        match halt {
            None => BudgetHalt::Ran,
            Some(RunHalt::FuelExhausted) => BudgetHalt::Fuel,
            Some(RunHalt::TimedOut) => BudgetHalt::Timeout,
        }
    }

    /// The more severe of two halts (`Timeout > Fuel > Ran`).
    fn worst(self, other: BudgetHalt) -> BudgetHalt {
        self.max(other)
    }

    pub(crate) fn result(self, payload: String) -> JobResult {
        match self {
            BudgetHalt::Ran => JobResult::Done(payload),
            BudgetHalt::Fuel => JobResult::FuelExhausted(payload),
            BudgetHalt::Timeout => JobResult::TimedOut(payload),
        }
    }
}

// ---------------------------------------------------------------------
// Journal payloads.
// ---------------------------------------------------------------------

/// Serialises a case as single-line JSON. [`case_from`] inverts it
/// field-for-field, so aggregates rendered from a resumed journal are
/// byte-identical to the uninterrupted run's.
fn case_json(c: &CaseResult) -> String {
    use std::fmt::Write as _;
    let opt = |v: &Option<String>| match v {
        Some(s) => format!("\"{}\"", json::escape(s)),
        None => "null".to_string(),
    };
    let mut s = format!(
        "{{\"name\":\"{}\",\"system\":\"{}\",\"total\":{},\"checks\":{},\"probes\":{},\
         \"switches\":{},\"run_error\":{},\"shrunk\":{},\"note\":{},\"divergences\":[",
        json::escape(&c.name),
        c.system,
        c.total,
        c.checks,
        c.probes,
        c.switches,
        opt(&c.run_error),
        opt(&c.shrunk),
        opt(&c.note),
    );
    for (i, d) in c.divergences.iter().enumerate() {
        write!(s, "{}\"{}\"", if i == 0 { "" } else { "," }, json::escape(d))
            .expect("write to String");
    }
    s.push_str("]}");
    s
}

/// Parses a [`case_json`] document back.
fn case_from(v: &Value) -> Result<CaseResult, String> {
    let text = |key: &str| v.get(key).and_then(Value::as_str).map(str::to_string);
    let num = |key: &str| v.get(key).and_then(Value::as_u64).ok_or_else(|| format!("no {key}"));
    let system = match v.get("system").and_then(Value::as_str) {
        Some("OPEC") => "OPEC",
        Some("ACES") => "ACES",
        other => return Err(format!("bad system {other:?}")),
    };
    Ok(CaseResult {
        name: text("name").ok_or("no name")?,
        system,
        divergences: v
            .get("divergences")
            .and_then(Value::as_arr)
            .ok_or("no divergences")?
            .iter()
            .map(|d| d.as_str().map(str::to_string).ok_or("bad divergence".to_string()))
            .collect::<Result<Vec<_>, _>>()?,
        total: num("total")?,
        checks: num("checks")?,
        probes: num("probes")?,
        switches: num("switches")?,
        run_error: text("run_error"),
        shrunk: text("shrunk"),
        note: text("note"),
    })
}

fn crosscheck_json(x: &CrossCheck) -> String {
    format!(
        "{{\"name\":\"{}\",\"ok\":{},\"detail\":\"{}\"}}",
        json::escape(&x.name),
        x.ok,
        json::escape(&x.detail)
    )
}

fn crosscheck_from(v: &Value) -> Result<CrossCheck, String> {
    Ok(CrossCheck {
        name: v.get("name").and_then(Value::as_str).ok_or("no name")?.to_string(),
        ok: v.get("ok").and_then(Value::as_bool).ok_or("no ok")?,
        detail: v.get("detail").and_then(Value::as_str).ok_or("no detail")?.to_string(),
    })
}

/// The case synthesised for a job that panicked on both attempts: the
/// subject is preserved in the report with the panic as its run error,
/// so a host bug is a visible failure, never a missing row.
fn panicked_case(name: String, system: &'static str, payload: &str) -> CaseResult {
    let msg = json::parse(payload)
        .ok()
        .and_then(|v| v.get("panic").and_then(Value::as_str).map(str::to_string))
        .unwrap_or_else(|| "lost payload".to_string());
    CaseResult {
        name,
        system,
        divergences: Vec::new(),
        total: 0,
        checks: 0,
        probes: 0,
        switches: 0,
        run_error: Some(format!("host panic: {msg}")),
        shrunk: None,
        note: None,
    }
}

fn bytes_of(module: &Module, globals: &BTreeSet<GlobalId>) -> u64 {
    globals.iter().map(|&g| u64::from(module.global_size(g).max(1))).sum()
}

fn et(used: u64, needed: u64) -> f64 {
    if needed == 0 {
        0.0
    } else {
        1.0 - (used.min(needed)) as f64 / needed as f64
    }
}

fn state_case(
    name: String,
    system: &'static str,
    st: &OracleState,
    run_error: Option<String>,
) -> CaseResult {
    CaseResult {
        name,
        system,
        divergences: st.divergences.iter().map(|d| d.to_string()).collect(),
        total: st.total_divergences,
        checks: st.checks,
        probes: st.probes,
        switches: st.switches,
        run_error,
        shrunk: None,
        note: None,
    }
}

fn verdict_case(name: String, system: &'static str, v: &Verdict) -> CaseResult {
    CaseResult {
        name,
        system,
        divergences: v.divergences.iter().map(|d| d.to_string()).collect(),
        total: v.total_divergences,
        checks: v.checks,
        probes: v.probes,
        switches: v.switches,
        run_error: v.run_error.clone(),
        shrunk: None,
        note: None,
    }
}

/// Runs one application under OPEC with the oracle attached and
/// cross-checks ET: the trace-derived execution sets against the
/// oracle's, and Equation 2 recomputed from the matrix against
/// [`et_by_task`].
pub fn check_opec_app(
    app: &App,
    limits: &RunLimits,
    sel: FleetBackend,
) -> (CaseResult, Vec<CrossCheck>, BudgetHalt) {
    let backend = sel.dyn_backend();
    let (module, specs) = (app.build)();
    let out =
        compile(module, app.board, &specs).unwrap_or_else(|e| panic!("{} compile: {e}", app.name));
    let matrix = AccessMatrix::opec(&out.image.module, &out.partition, &out.policy)
        .with_boundary_granularity(backend.boundary_granularity(out.policy.stack));
    let trace = Rc::new(RefCell::new(Trace::new()));
    let obs = Obs::single(trace.clone());
    let (watcher, handle) = shadow(matrix.clone(), obs.clone());
    let mut machine = backend.make_machine(app.board);
    (app.setup)(&mut machine);
    let mut vm = Vm::builder(machine, out.image.clone())
        .supervisor(OpecMonitor::with_backend(out.policy.clone(), backend))
        .obs(obs)
        .watcher(watcher)
        .build()
        .expect("opec vm");
    vm.set_deadline(limits.deadline);
    // A budget stop is still a run error here — a paper app that fails
    // to halt within its budget is a check failure — but it is also
    // surfaced as the job's outcome, so the campaign summary and exit
    // code distinguish "bounded" from "diverged".
    let (cycles, mut run_error, halt) = match vm.run(limits.fuel) {
        Ok(run @ RunOutcome::Halted { .. }) => (run.cycles(), None, BudgetHalt::Ran),
        Ok(run) => (run.cycles(), Some(format!("did not halt: {run:?}")), BudgetHalt::Ran),
        Err(e @ VmError::OutOfFuel) => (0, Some(format!("{e}")), BudgetHalt::Fuel),
        Err(e @ VmError::TimedOut) => (0, Some(format!("{e}")), BudgetHalt::Timeout),
        Err(e) => (0, Some(format!("{e}")), BudgetHalt::Ran),
    };
    if run_error.is_none() {
        if let Err(e) = (app.check)(&mut vm.machine) {
            run_error = Some(format!("workload check: {e}"));
        }
    }
    let st = handle.take();
    let case = state_case(app.name.to_string(), "OPEC", &st, run_error);

    // The evaluation's view of the same run, for the ET cross-check.
    let eval = AppEval {
        name: app.name,
        board: app.board,
        base_cycles: 1,
        base_flash: 0,
        base_sram: 0,
        opec: Arc::new(OpecRun {
            cycles,
            flash_used: out.image.flash_used,
            sram_used: out.image.sram_used,
            trace: trace.borrow().clone(),
            monitor: vm.supervisor.stats,
            compile: out,
        }),
        aces: Vec::new(),
    };
    let mut crosschecks = Vec::new();

    // 1. Execution sets: the trace's per-task attribution vs the
    //    oracle's independent per-switch recording (op 0 is main's
    //    residue, which the trace's task list never reports).
    let mut from_trace: BTreeMap<OpId, BTreeSet<_>> = BTreeMap::new();
    for (op, _entry, funcs) in eval.opec.trace.tasks() {
        from_trace.entry(op).or_default().extend(funcs);
    }
    let from_oracle: BTreeMap<OpId, BTreeSet<_>> = st
        .exec
        .iter()
        .filter(|(op, _)| usize::from(**op) != 0)
        .map(|(op, fs)| (*op, fs.clone()))
        .collect();
    crosschecks.push(CrossCheck {
        name: format!("{}: exec sets", app.name),
        ok: from_trace == from_oracle,
        detail: if from_trace == from_oracle {
            format!("{} operations, identical function sets", from_trace.len())
        } else {
            format!("trace sees {} operations, oracle sees {}", from_trace.len(), from_oracle.len())
        },
    });

    // 2. ET (Equation 2): recompute from the oracle's execution sets
    //    and the matrix's needed-byte counts, compare against the
    //    evaluation's own series.
    let series = et_by_task(&eval);
    let module = &eval.opec.compile.image.module;
    let resources = &eval.opec.compile.resources;
    let oracle_et: Vec<f64> = from_oracle
        .iter()
        .map(|(op, funcs)| {
            let used: BTreeSet<GlobalId> =
                funcs.iter().flat_map(|f| resources.of(*f).globals()).collect();
            let needed = matrix.ops.get(usize::from(*op)).map(|e| e.needed_bytes).unwrap_or(0);
            et(bytes_of(module, &used), needed)
        })
        .collect();
    let ok = oracle_et.len() == series.opec.len()
        && oracle_et.iter().zip(&series.opec).all(|(a, b)| (a - b).abs() < EPS);
    crosschecks.push(CrossCheck {
        name: format!("{}: ET recompute", app.name),
        ok,
        detail: if ok {
            format!("{} tasks agree to {EPS}", oracle_et.len())
        } else {
            format!("oracle {oracle_et:?} vs report {:?}", series.opec)
        },
    });
    (case, crosschecks, halt)
}

/// Runs one comparison application under ACES (Filename strategy) with
/// the oracle attached and cross-checks PT: Equation 1 recomputed from
/// the matrix's granted/needed byte counts against
/// [`pt_of_compartments`].
fn check_aces_app(app: &App, limits: &RunLimits) -> (CaseResult, Vec<CrossCheck>, BudgetHalt) {
    let (module, _) = (app.build)();
    let out = build_aces_image(module, app.board, AcesStrategy::Filename)
        .unwrap_or_else(|e| panic!("{} ACES build: {e}", app.name));
    let main_comp = out.comps.of(out.image.entry);
    let matrix = AccessMatrix::aces(
        &out.image.module,
        &out.comps,
        &out.regions,
        out.stack,
        app.board.flash.base,
        main_comp,
    );

    let reference = pt_of_compartments(&out.image.module, &out.comps, &out.regions);
    let matrix_pt: Vec<f64> = matrix
        .ops
        .iter()
        .map(|e| {
            if e.granted_bytes == 0 {
                0.0
            } else {
                e.granted_bytes.saturating_sub(e.needed_bytes) as f64 / e.granted_bytes as f64
            }
        })
        .collect();
    let ok = matrix_pt.len() == reference.len()
        && matrix_pt.iter().zip(&reference).all(|(a, b)| (a - b).abs() < EPS);
    let crosschecks = vec![CrossCheck {
        name: format!("{}: PT recompute", app.name),
        ok,
        detail: if ok {
            format!("{} compartments agree to {EPS}", matrix_pt.len())
        } else {
            format!("matrix {matrix_pt:?} vs report {reference:?}")
        },
    }];

    let rt = AcesRuntime::new(
        &out.image.module,
        out.comps.clone(),
        out.regions.clone(),
        app.board,
        out.stack,
        main_comp,
    );
    let (watcher, handle) = shadow(matrix, Obs::disabled());
    let mut machine = Machine::new(app.board);
    (app.setup)(&mut machine);
    let mut vm =
        Vm::builder(machine, out.image).supervisor(rt).watcher(watcher).build().expect("aces vm");
    vm.set_deadline(limits.deadline);
    let (mut run_error, halt) = match vm.run(limits.fuel) {
        Ok(RunOutcome::Halted { .. }) => (None, BudgetHalt::Ran),
        Ok(run) => (Some(format!("did not halt: {run:?}")), BudgetHalt::Ran),
        Err(e @ VmError::OutOfFuel) => (Some(format!("{e}")), BudgetHalt::Fuel),
        Err(e @ VmError::TimedOut) => (Some(format!("{e}")), BudgetHalt::Timeout),
        Err(e) => (Some(format!("{e}")), BudgetHalt::Ran),
    };
    if run_error.is_none() {
        if let Err(e) = (app.check)(&mut vm.machine) {
            run_error = Some(format!("workload check: {e}"));
        }
    }
    let st = handle.take();
    (state_case(app.name.to_string(), "ACES", &st, run_error), crosschecks, halt)
}

/// The plan shrinking should start from: the divergent input itself,
/// or a strictly smaller corpus entry recorded under the same
/// divergence coverage key. A corpus entry's recorded coverage may
/// date from another backend or an older build, so the candidate is
/// re-verified to still diverge before it displaces the original —
/// otherwise shrinking would chase a stale reproducer and report a
/// "minimal" program that no longer exhibits the bug.
fn shrink_start<'a>(
    spec: &'a FirmwareSpec,
    v: &Verdict,
    corpus: Option<&'a Corpus>,
    diverges: &mut dyn FnMut(&FirmwareSpec) -> bool,
) -> &'a FirmwareSpec {
    let Some(corpus) = corpus else { return spec };
    for d in &v.divergences {
        let key = divergence_key(d.op, d.kind, d.layer);
        if let Some(entry) = corpus.smallest_with(key) {
            if entry.size() < spec.size() && diverges(&entry.spec) {
                return &entry.spec;
            }
        }
    }
    spec
}

/// One generated firmware under the OPEC stack on `sel`, within
/// `budget`.
fn gen_opec_case(
    spec: &FirmwareSpec,
    seed: u64,
    do_shrink: bool,
    budget: &RunBudget,
    sel: FleetBackend,
    corpus: Option<&Corpus>,
) -> (CaseResult, BudgetHalt) {
    match run_opec_on(spec, None, budget, sel.dyn_backend()) {
        Ok(v) => {
            let mut case = verdict_case(format!("gen[{seed}]"), "OPEC", &v);
            let halt = BudgetHalt::from_oracle(v.halt);
            if halt != BudgetHalt::Ran {
                case.note = Some("stopped by budget".to_string());
            }
            if !v.clean() && do_shrink {
                let mut diverges = |s: &FirmwareSpec| {
                    run_opec_on(s, None, budget, sel.dyn_backend())
                        .is_ok_and(|v| v.total_divergences > 0)
                };
                let start = shrink_start(spec, &v, corpus, &mut diverges);
                let small = shrink(start, &mut diverges, SHRINK_BUDGET);
                case.shrunk = Some(describe(&small));
            }
            (case, halt)
        }
        Err(e) => (
            CaseResult {
                name: format!("gen[{seed}]"),
                system: "OPEC",
                divergences: Vec::new(),
                total: 0,
                checks: 0,
                probes: 0,
                switches: 0,
                run_error: Some(e),
                shrunk: None,
                note: None,
            },
            BudgetHalt::Ran,
        ),
    }
}

/// One generated firmware under the ACES stack, within `budget`.
fn gen_aces_case(
    spec: &FirmwareSpec,
    seed: u64,
    do_shrink: bool,
    budget: &RunBudget,
) -> (CaseResult, BudgetHalt) {
    match run_aces_with(spec, budget) {
        Ok(v) => {
            let mut case = verdict_case(format!("gen[{seed}]"), "ACES", &v);
            let halt = BudgetHalt::from_oracle(v.halt);
            if halt != BudgetHalt::Ran {
                case.note = Some("stopped by budget".to_string());
            }
            if !v.clean() && do_shrink {
                let small = shrink(
                    spec,
                    |s| run_aces_with(s, budget).is_ok_and(|v| v.total_divergences > 0),
                    SHRINK_BUDGET,
                );
                case.shrunk = Some(describe(&small));
            }
            (case, halt)
        }
        // ACES can reject a plan outright (group-region overflow on
        // MPU hardware limits) — a scalability property, not a
        // divergence.
        Err(e) => (
            CaseResult {
                name: format!("gen[{seed}]"),
                system: "ACES",
                divergences: Vec::new(),
                total: 0,
                checks: 0,
                probes: 0,
                switches: 0,
                run_error: None,
                shrunk: None,
                note: Some(format!("build skipped: {e}")),
            },
            BudgetHalt::Ran,
        ),
    }
}

/// Job-id fragment for an application name (journal id charset only).
fn job_slug(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || "._-".contains(c) { c } else { '-' })
        .collect()
}

/// Job-id segment for the backend: empty on the default ARMv7-M (the
/// historical id shape, so existing journals still resume) and
/// `<name>/` on every other backend (`rv32-pmp/`) — a journal written
/// under one backend must never satisfy a resume under another.
pub(crate) fn backend_segment(sel: FleetBackend) -> String {
    if sel == FleetBackend::default() {
        String::new()
    } else {
        format!("{}/", sel.name())
    }
}

/// The ACES-side skip case recorded for every comparison subject when
/// the selected backend has no ACES port.
fn aces_skip_case(name: String, sel: FleetBackend) -> CaseResult {
    CaseResult {
        name,
        system: "ACES",
        divergences: Vec::new(),
        total: 0,
        checks: 0,
        probes: 0,
        switches: 0,
        run_error: None,
        shrunk: None,
        note: Some(format!("skipped: ACES targets the ARMv7-M MPU, not {}", sel.name())),
    }
}

/// The oracle's generated-firmware budget for one job attempt: the
/// site default [`GEN_FUEL`] capped by the campaign budget, plus the
/// attempt's watchdog deadline.
pub(crate) fn gen_budget(limits: &RunLimits) -> RunBudget {
    RunBudget { fuel: limits.capped(GEN_FUEL), deadline: limits.deadline }
}

/// What kind of subject a check job runs — kept alongside the job list
/// so aggregation can synthesise the right case shape for a job that
/// panicked on both attempts.
#[derive(Clone, Copy)]
enum CheckJob<'a> {
    OpecApp(&'a App),
    AcesApp(&'a App),
    Gen(u64),
}

/// Runs the whole differential check: all seven applications under
/// OPEC, the five comparison applications under ACES, and
/// `opts.seeds` generated firmwares under both stacks — with default
/// supervision (no journal).
pub fn run_check(opts: &CheckOptions) -> CheckReport {
    run_check_campaign(opts, &EngineOpts::default()).expect("check campaign").0
}

/// [`run_check`] as a supervised campaign: one job per application and
/// one per generated seed (its OPEC and ACES runs share a payload),
/// with fuel budgets, a watchdog, panic containment, and
/// checkpoint/resume via the engine options.
pub fn run_check_campaign(
    opts: &CheckOptions,
    engine: &EngineOpts,
) -> Result<(CheckReport, CampaignReport), String> {
    run_check_with(opts, &engine.campaign_opts("check"))
}

/// [`run_check_campaign`] under explicit campaign options (the test
/// entry point: fault-injection hooks set directly, no env).
pub fn run_check_with(
    opts: &CheckOptions,
    copts: &CampaignOpts,
) -> Result<(CheckReport, CampaignReport), String> {
    let sel = opts.backend;
    let seg = backend_segment(sel);
    // Loaded once up front (re-minimized); shared read-only by every
    // generated-firmware job. Shrinking never mutates the corpus.
    let corpus = match &opts.corpus {
        Some(dir) => Some(Corpus::load(std::path::Path::new(dir))?),
        None => None,
    };
    let corpus = corpus.as_ref();
    let apps = all_apps();
    let cmp = aces_comparison_apps();
    let mut kinds: Vec<CheckJob<'_>> = Vec::new();
    kinds.extend(apps.iter().map(CheckJob::OpecApp));
    if sel.has_aces() {
        kinds.extend(cmp.iter().map(CheckJob::AcesApp));
    }
    kinds.extend((0..opts.seeds).map(CheckJob::Gen));
    let do_shrink = opts.shrink;

    let jobs: Vec<Job<'_>> = kinds
        .iter()
        .map(|&kind| match kind {
            CheckJob::OpecApp(app) => Job::new(
                format!("check/{seg}app/{}/opec", job_slug(app.name)),
                format!(
                    "{{\"app\":\"{}\",\"system\":\"OPEC\",\"backend\":\"{}\"}}",
                    json::escape(app.name),
                    sel.name()
                ),
                move |ctx| {
                    let limits = RunLimits::from_ctx(ctx);
                    let (case, xcs, halt) = check_opec_app(app, &limits, sel);
                    halt.result(app_payload(&case, &xcs))
                },
            ),
            CheckJob::AcesApp(app) => Job::new(
                format!("check/{seg}app/{}/aces", job_slug(app.name)),
                format!("{{\"app\":\"{}\",\"system\":\"ACES\"}}", json::escape(app.name)),
                move |ctx| {
                    let limits = RunLimits::from_ctx(ctx);
                    let (case, xcs, halt) = check_aces_app(app, &limits);
                    halt.result(app_payload(&case, &xcs))
                },
            ),
            CheckJob::Gen(seed) => Job::new(
                format!("check/{seg}gen/{seed}"),
                format!(
                    "{{\"seed\":{seed},\"shrink\":{do_shrink},\"backend\":\"{}\"}}",
                    sel.name()
                ),
                move |ctx| {
                    let budget = gen_budget(&RunLimits::from_ctx(ctx));
                    let spec = generate(seed);
                    let (opec_case, h1) =
                        gen_opec_case(&spec, seed, do_shrink, &budget, sel, corpus);
                    if !sel.has_aces() {
                        return h1.result(format!("{{\"opec\":{}}}", case_json(&opec_case)));
                    }
                    let (aces_case, h2) = gen_aces_case(&spec, seed, do_shrink, &budget);
                    h1.worst(h2).result(format!(
                        "{{\"opec\":{},\"aces\":{}}}",
                        case_json(&opec_case),
                        case_json(&aces_case)
                    ))
                },
            ),
        })
        .collect();
    let report = run_campaign(copts, &jobs)?;

    // Aggregate from the records alone, in job-definition order: the
    // same payload bytes produce the same report whether the job ran
    // now, was resumed from the journal, or panicked.
    let mut out = CheckReport { backend: sel.name(), ..CheckReport::default() };
    for (rec, &kind) in report.records.iter().zip(&kinds) {
        match (kind, rec.outcome) {
            (CheckJob::OpecApp(app), JobOutcome::Panicked) => {
                out.cases.push(panicked_case(app.name.to_string(), "OPEC", &rec.payload));
            }
            (CheckJob::AcesApp(app), JobOutcome::Panicked) => {
                out.cases.push(panicked_case(app.name.to_string(), "ACES", &rec.payload));
            }
            (CheckJob::Gen(seed), JobOutcome::Panicked) => {
                out.cases.push(panicked_case(format!("gen[{seed}]"), "OPEC", &rec.payload));
                if sel.has_aces() {
                    out.cases.push(panicked_case(format!("gen[{seed}]"), "ACES", &rec.payload));
                }
            }
            (CheckJob::OpecApp(_) | CheckJob::AcesApp(_), _) => {
                let (case, xcs) = app_payload_from(&rec.payload)?;
                out.cases.push(case);
                out.crosschecks.extend(xcs);
            }
            (CheckJob::Gen(_), _) => {
                let doc = json::parse(&rec.payload).map_err(|e| format!("gen payload: {e}"))?;
                let v = doc.get("opec").ok_or("gen payload: no opec")?;
                out.cases.push(case_from(v)?);
                match doc.get("aces") {
                    Some(v) => out.cases.push(case_from(v)?),
                    None if !sel.has_aces() => {}
                    None => return Err("gen payload: no aces".to_string()),
                }
            }
        }
    }
    // The ACES side is recorded as explicit skips on a backend without
    // an ACES port — visible in the report, never silently dropped.
    if !sel.has_aces() {
        for app in &cmp {
            out.cases.push(aces_skip_case(app.name.to_string(), sel));
        }
    }
    Ok((out, report))
}

/// The payload of one app job: its case plus its cross-checks.
fn app_payload(case: &CaseResult, xcs: &[CrossCheck]) -> String {
    use std::fmt::Write as _;
    let mut s = format!("{{\"case\":{},\"crosschecks\":[", case_json(case));
    for (i, x) in xcs.iter().enumerate() {
        write!(s, "{}{}", if i == 0 { "" } else { "," }, crosscheck_json(x))
            .expect("write to String");
    }
    s.push_str("]}");
    s
}

fn app_payload_from(payload: &str) -> Result<(CaseResult, Vec<CrossCheck>), String> {
    let doc = json::parse(payload).map_err(|e| format!("app payload: {e}"))?;
    let case = case_from(doc.get("case").ok_or("app payload: no case")?)?;
    let xcs = doc
        .get("crosschecks")
        .and_then(Value::as_arr)
        .ok_or("app payload: no crosschecks")?
        .iter()
        .map(crosscheck_from)
        .collect::<Result<Vec<_>, _>>()?;
    Ok((case, xcs))
}

// ---------------------------------------------------------------------
// Cached-vs-plain lockstep (`check --lockstep`).
// ---------------------------------------------------------------------

/// Ring capacity for lockstep recorders: big enough that every app's
/// full event stream (functions included) fits without shedding, so the
/// streams are compared event for event, not just in aggregate.
const LOCKSTEP_RING: usize = 1 << 18;

/// Everything one lockstep side produced.
struct LockRun {
    /// Rendered event stream (the same format as the golden file).
    log: String,
    /// Aggregate metrics JSON.
    metrics: String,
    /// Total events emitted (including any the ring shed).
    total_events: u64,
    /// Accepted switches (the [`CaseResult::switches`] column).
    switches: u64,
    /// VM execution counters.
    stats: VmStats,
    /// How the run ended, rendered (outcome or error).
    outcome: String,
}

/// Runs one subject once under `mode` with a recorder attached. The
/// second component reports whether the run was stopped by the fuel
/// budget (both modes burn identical fuel, so under a tight `--fuel`
/// the two sides halt at the same instruction and still compare equal).
fn lock_run<S: Supervisor>(
    image: Arc<LoadedImage>,
    supervisor: S,
    machine: Machine,
    mode: ExecMode,
    fuel: u64,
) -> (LockRun, bool) {
    let rec = Rc::new(RefCell::new(Recorder::with_capacity(LOCKSTEP_RING).with_funcs()));
    let mut vm = Vm::builder(machine, image)
        .supervisor(supervisor)
        .exec_mode(mode)
        .obs(Obs::single(rec.clone()))
        .build()
        .expect("lockstep image");
    let (outcome, halted) = match vm.run(fuel) {
        Ok(o) => (format!("{o:?}"), false),
        Err(e @ VmError::OutOfFuel) => (format!("error: {e}"), true),
        Err(e) => (format!("error: {e}"), false),
    };
    let stats = vm.stats;
    drop(vm);
    let rec = Rc::try_unwrap(rec).expect("sole recorder handle").into_inner();
    let run = LockRun {
        log: event_log(&rec.ring.to_vec()),
        metrics: metrics_json(&rec.metrics),
        total_events: rec.ring.total(),
        switches: rec.metrics.total_switches(),
        stats,
        outcome,
    };
    (run, halted)
}

/// Folds the two sides into a [`CaseResult`]; every difference is a
/// divergence. A trap is fine — as long as both modes trap identically.
fn compare_lock(name: String, system: &'static str, plain: &LockRun, dec: &LockRun) -> CaseResult {
    let mut divergences = Vec::new();
    if plain.outcome != dec.outcome {
        divergences.push(format!("outcome: plain {} vs decoded {}", plain.outcome, dec.outcome));
    }
    if plain.stats != dec.stats {
        divergences.push(format!("vm stats: plain {:?} vs decoded {:?}", plain.stats, dec.stats));
    }
    if plain.total_events != dec.total_events {
        divergences.push(format!(
            "event count: plain {} vs decoded {}",
            plain.total_events, dec.total_events
        ));
    }
    if plain.log != dec.log {
        divergences.push(first_log_diff(&plain.log, &dec.log));
    }
    if plain.metrics != dec.metrics {
        divergences.push("metrics aggregates differ".to_string());
    }
    CaseResult {
        name,
        system,
        total: divergences.len() as u64,
        divergences,
        checks: plain.total_events,
        probes: 0,
        switches: plain.switches,
        run_error: None,
        shrunk: None,
        note: Some("plain vs decoded lockstep".into()),
    }
}

/// The first differing event of two rendered streams.
fn first_log_diff(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("event stream diverges at event {i}: plain `{la}` vs decoded `{lb}`");
        }
    }
    format!(
        "event stream lengths differ: plain {} vs decoded {} events",
        a.lines().count(),
        b.lines().count()
    )
}

/// A subject that could not be built at all (neither side ran).
fn lock_error(name: String, system: &'static str, error: String) -> CaseResult {
    CaseResult {
        name,
        system,
        divergences: Vec::new(),
        total: 0,
        checks: 0,
        probes: 0,
        switches: 0,
        run_error: Some(error),
        shrunk: None,
        note: Some("plain vs decoded lockstep".into()),
    }
}

fn lockstep_opec_app(app: &App, fuel: u64, sel: FleetBackend) -> (CaseResult, BudgetHalt) {
    let backend = sel.dyn_backend();
    let (module, specs) = (app.build)();
    match compile(module, app.board, &specs) {
        Ok(out) => {
            let policy = out.policy.clone();
            let image = Arc::new(out.image);
            let run = |mode| {
                let mut machine = backend.make_machine(app.board);
                (app.setup)(&mut machine);
                lock_run(
                    image.clone(),
                    OpecMonitor::with_backend(policy.clone(), Arc::clone(&backend)),
                    machine,
                    mode,
                    fuel,
                )
            };
            let (plain, h1) = run(ExecMode::Plain);
            let (decoded, h2) = run(ExecMode::Decoded);
            let halt = if h1 || h2 { BudgetHalt::Fuel } else { BudgetHalt::Ran };
            (compare_lock(app.name.to_string(), "OPEC", &plain, &decoded), halt)
        }
        Err(e) => {
            (lock_error(app.name.to_string(), "OPEC", format!("compile: {e}")), BudgetHalt::Ran)
        }
    }
}

fn lockstep_aces_app(app: &App, fuel: u64) -> (CaseResult, BudgetHalt) {
    let (module, _) = (app.build)();
    match build_aces_image(module, app.board, AcesStrategy::Filename) {
        Ok(out) => {
            let main_comp = out.comps.of(out.image.entry);
            let image = Arc::new(out.image);
            let run = |mode| {
                let rt = AcesRuntime::new(
                    &image.module,
                    out.comps.clone(),
                    out.regions.clone(),
                    app.board,
                    out.stack,
                    main_comp,
                );
                let mut machine = Machine::new(app.board);
                (app.setup)(&mut machine);
                lock_run(image.clone(), rt, machine, mode, fuel)
            };
            let (plain, h1) = run(ExecMode::Plain);
            let (decoded, h2) = run(ExecMode::Decoded);
            let halt = if h1 || h2 { BudgetHalt::Fuel } else { BudgetHalt::Ran };
            (compare_lock(app.name.to_string(), "ACES", &plain, &decoded), halt)
        }
        Err(e) => {
            (lock_error(app.name.to_string(), "ACES", format!("ACES build: {e}")), BudgetHalt::Ran)
        }
    }
}

fn lockstep_generated(seed: u64, fuel: u64, sel: FleetBackend) -> (CaseResult, BudgetHalt) {
    let backend = sel.dyn_backend();
    let spec = generate(seed);
    let specs = spec.op_specs();
    match compile(spec.build_module(), spec.board(), &specs) {
        Ok(out) => {
            let policy = out.policy.clone();
            let image = Arc::new(out.image);
            let run = |mode| {
                let mut machine = backend.make_machine(spec.board());
                spec.install_devices(&mut machine);
                lock_run(
                    image.clone(),
                    OpecMonitor::with_backend(policy.clone(), Arc::clone(&backend)),
                    machine,
                    mode,
                    fuel,
                )
            };
            let (plain, h1) = run(ExecMode::Plain);
            let (decoded, h2) = run(ExecMode::Decoded);
            let halt = if h1 || h2 { BudgetHalt::Fuel } else { BudgetHalt::Ran };
            (compare_lock(format!("gen[{seed}]"), "OPEC", &plain, &decoded), halt)
        }
        Err(e) => {
            (lock_error(format!("gen[{seed}]"), "OPEC", format!("compile: {e}")), BudgetHalt::Ran)
        }
    }
}

/// Runs every subject twice — plain interpreter vs the pre-decoded
/// block cache — and reports any difference in the event stream, the
/// aggregate metrics, the execution counters, or the run outcome as a
/// divergence. This is the fast path's correctness contract: the cache
/// is an optimisation, never a semantic change.
///
/// Subjects: the seven paper applications under OPEC, the five
/// comparison applications under ACES, and `seeds` generated firmwares
/// under OPEC.
pub fn run_lockstep(seeds: u64, sel: FleetBackend) -> CheckReport {
    run_lockstep_campaign(seeds, &EngineOpts::default(), sel).expect("lockstep campaign").0
}

/// [`run_lockstep`] as a supervised campaign: one job per subject and
/// mode pair. The watchdog stays disarmed (see
/// [`EngineOpts::lockstep_opts`]) — wall-clock differs between exec
/// modes, and a deadline would manufacture divergence — but the fuel
/// budget applies identically to both sides, so the equivalence
/// contract holds even on truncated runs.
pub fn run_lockstep_campaign(
    seeds: u64,
    engine: &EngineOpts,
    sel: FleetBackend,
) -> Result<(CheckReport, CampaignReport), String> {
    run_lockstep_with(seeds, &engine.lockstep_opts("lockstep"), sel)
}

/// [`run_lockstep_campaign`] under explicit campaign options.
pub fn run_lockstep_with(
    seeds: u64,
    copts: &CampaignOpts,
    sel: FleetBackend,
) -> Result<(CheckReport, CampaignReport), String> {
    let seg = backend_segment(sel);
    let apps = all_apps();
    let cmp = aces_comparison_apps();
    let mut kinds: Vec<CheckJob<'_>> = Vec::new();
    kinds.extend(apps.iter().map(CheckJob::OpecApp));
    if sel.has_aces() {
        kinds.extend(cmp.iter().map(CheckJob::AcesApp));
    }
    kinds.extend((0..seeds).map(CheckJob::Gen));

    let jobs: Vec<Job<'_>> = kinds
        .iter()
        .map(|&kind| match kind {
            CheckJob::OpecApp(app) => Job::new(
                format!("lockstep/{seg}app/{}/opec", job_slug(app.name)),
                format!(
                    "{{\"app\":\"{}\",\"system\":\"OPEC\",\"backend\":\"{}\"}}",
                    json::escape(app.name),
                    sel.name()
                ),
                move |ctx| {
                    let (case, halt) = lockstep_opec_app(app, ctx.fuel, sel);
                    halt.result(case_json(&case))
                },
            ),
            CheckJob::AcesApp(app) => Job::new(
                format!("lockstep/{seg}app/{}/aces", job_slug(app.name)),
                format!("{{\"app\":\"{}\",\"system\":\"ACES\"}}", json::escape(app.name)),
                move |ctx| {
                    let (case, halt) = lockstep_aces_app(app, ctx.fuel);
                    halt.result(case_json(&case))
                },
            ),
            CheckJob::Gen(seed) => Job::new(
                format!("lockstep/{seg}gen/{seed}"),
                format!("{{\"seed\":{seed},\"backend\":\"{}\"}}", sel.name()),
                move |ctx| {
                    let (case, halt) = lockstep_generated(seed, ctx.fuel, sel);
                    halt.result(case_json(&case))
                },
            ),
        })
        .collect();
    let report = run_campaign(copts, &jobs)?;

    let mut out = CheckReport { backend: sel.name(), ..CheckReport::default() };
    for (rec, &kind) in report.records.iter().zip(&kinds) {
        let (name, system) = match kind {
            CheckJob::OpecApp(app) => (app.name.to_string(), "OPEC"),
            CheckJob::AcesApp(app) => (app.name.to_string(), "ACES"),
            CheckJob::Gen(seed) => (format!("gen[{seed}]"), "OPEC"),
        };
        if rec.outcome == JobOutcome::Panicked {
            out.cases.push(panicked_case(name, system, &rec.payload));
        } else {
            let doc = json::parse(&rec.payload).map_err(|e| format!("lockstep payload: {e}"))?;
            out.cases.push(case_from(&doc)?);
        }
    }
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runs::FUEL;

    #[test]
    fn pinlock_is_divergence_free_with_agreeing_metrics() {
        let app = opec_apps::programs::pinlock::app();
        let limits = RunLimits::unsupervised();
        let (case, crosschecks, halt) = check_opec_app(&app, &limits, FleetBackend::Armv7m);
        assert!(!case.failed(), "{:?}", case);
        assert!(case.checks > 0 && case.probes > 0 && case.switches > 0);
        assert!(crosschecks.iter().all(|x| x.ok), "{crosschecks:?}");
        assert_eq!(halt, BudgetHalt::Ran);

        let (case, crosschecks, halt) = check_aces_app(&app, &limits);
        assert!(!case.failed(), "{:?}", case);
        assert!(crosschecks.iter().all(|x| x.ok), "{crosschecks:?}");
        assert_eq!(halt, BudgetHalt::Ran);
    }

    #[test]
    fn pinlock_lockstep_has_zero_divergences() {
        let app = opec_apps::programs::pinlock::app();
        let (case, halt) = lockstep_opec_app(&app, FUEL, FleetBackend::Armv7m);
        assert_eq!(case.total, 0, "OPEC: {:?}", case.divergences);
        assert!(case.run_error.is_none(), "{:?}", case.run_error);
        assert!(case.checks > 0 && case.switches > 0);
        assert_eq!(halt, BudgetHalt::Ran);
        let (case, _) = lockstep_aces_app(&app, FUEL);
        assert_eq!(case.total, 0, "ACES: {:?}", case.divergences);
        let (case, _) = lockstep_generated(0, FUEL, FleetBackend::Armv7m);
        assert_eq!(case.total, 0, "gen[0]: {:?}", case.divergences);
    }

    #[test]
    fn lockstep_under_tight_fuel_halts_both_sides_identically() {
        // Fuel bounds the lockstep pair identically: both sides stop at
        // the same instruction, compare equal, and the job surfaces the
        // truncation as FuelExhausted instead of diverging or hanging.
        let app = opec_apps::programs::pinlock::app();
        let (case, halt) = lockstep_opec_app(&app, 10_000, FleetBackend::Armv7m);
        assert_eq!(case.total, 0, "tight fuel: {:?}", case.divergences);
        assert_eq!(halt, BudgetHalt::Fuel);
    }

    #[test]
    fn case_payload_roundtrips_byte_identically() {
        let case = CaseResult {
            name: "gen[3]".into(),
            system: "OPEC",
            divergences: vec!["op 1: escape \"quoted\"".into(), "op 2".into()],
            total: 2,
            checks: 10,
            probes: 4,
            switches: 2,
            run_error: Some("late \\ fail".into()),
            shrunk: Some("seed 3\nmain: call op1".into()),
            note: Some("n".into()),
        };
        let payload = case_json(&case);
        let doc = json::parse(&payload).unwrap();
        let back = case_from(&doc).unwrap();
        assert_eq!(case, back);
        // And re-rendering yields the same bytes — the property the
        // journal's byte-identical resume relies on.
        assert_eq!(payload, case_json(&back));
    }

    #[test]
    fn report_json_is_wellformed_enough() {
        let report = CheckReport {
            backend: "armv7m",
            cases: vec![CaseResult {
                name: "gen[0]".into(),
                system: "OPEC",
                divergences: vec!["op 1: escape \"quoted\"".into()],
                total: 1,
                checks: 10,
                probes: 4,
                switches: 2,
                run_error: None,
                shrunk: Some("seed 0\nmain: call op1".into()),
                note: None,
            }],
            crosschecks: vec![CrossCheck { name: "x".into(), ok: false, detail: "a\\b".into() }],
        };
        let json = report.to_json();
        assert!(json.contains("\"total_divergences\": 1"));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\\n"));
        assert!(json.contains("a\\\\b"));
        assert!(json.contains("\"failures\": 2"));
        assert_eq!(report.failures().len(), 2);
    }

    #[test]
    fn shrink_starts_from_the_smaller_of_spec_and_corpus_entry() {
        use opec_obs::{OracleKind, OracleLayer};
        use opec_oracle::{CoverageMap, Divergence, Observed};

        let (a, b) = (generate(1), generate(2));
        let (small, big) = if a.size() <= b.size() { (a, b) } else { (b, a) };
        assert!(small.size() < big.size(), "seeds 1 and 2 must differ in size");

        let key = divergence_key(1, OracleKind::Escape, OracleLayer::Mpu);
        let mut v = Verdict::default();
        v.divergences.push(Divergence {
            op: 1,
            kind: OracleKind::Escape,
            layer: OracleLayer::Mpu,
            observed: Observed::Probe,
            addr: 0x0800_0000,
            size: 4,
            pc: 0,
            detail: "test".into(),
        });
        let mut corpus = Corpus::in_memory();
        corpus.admit(small.clone(), CoverageMap::from_features([key]));

        // Corpus holds a smaller entry for the same coverage key that
        // still diverges: shrink from it, not the original.
        let mut always = |_: &FirmwareSpec| true;
        assert_eq!(shrink_start(&big, &v, Some(&corpus), &mut always), &small);
        // No corpus bound: shrink from the original.
        assert_eq!(shrink_start(&big, &v, None, &mut always), &big);
        // The corpus entry went stale (no longer diverges): fall back
        // to the original instead of shrinking a clean plan.
        let mut never = |_: &FirmwareSpec| false;
        assert_eq!(shrink_start(&big, &v, Some(&corpus), &mut never), &big);
        // The corpus entry is not smaller than the failing spec: keep
        // the original (re-shrinking it can only do better).
        assert_eq!(shrink_start(&small, &v, Some(&corpus), &mut always), &small);
    }
}
