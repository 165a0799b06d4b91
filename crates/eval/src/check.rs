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

use opec_apps::programs::{aces_comparison_apps, all_apps};
use opec_apps::App;
use opec_campaign::{run_campaign, CampaignReport, Job, JobOutcome, JobResult, PanicPayload};
use opec_fleet::FleetBackend;
use opec_ir::{GlobalId, Module};
use opec_obs::export::{event_log, metrics_json};
use opec_obs::json::{self, DecodeError, FromJson, Layout, ToJson, Value, Writer};
use opec_obs::{OpId, Recorder};
use opec_oracle::{
    describe, divergence_key, generate, shrink, BuildOutput, Corpus, Firmware, FirmwareSpec,
    RunBudget, RunHalt, RunRecord, RunRequest, System, Verdict, GEN_FUEL,
};
use opec_vm::{ExecMode, Trace, VmStats};

use crate::engine::{job_budget, EngineOpts};
use crate::metrics::{et_by_task, pt_of_compartments};
use crate::runs::{AppEval, OpecRun};

/// Tolerance for the PT/ET cross-checks: both sides are exact integer
/// byte ratios, so any disagreement beyond rounding is a real bug.
const EPS: f64 = 1e-9;

/// Shrink budget (pipeline re-runs) per divergent generated firmware.
const SHRINK_BUDGET: usize = 200;

/// Options for [`run_check_campaign`].
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

    /// Machine-readable artifact (the CI `oracle.json`). Its case rows
    /// call the journal form's `total` field `total_divergences`.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new(Layout::Report);
        w.obj().field("backend", self.backend).key("cases").rows();
        for c in &self.cases {
            w.obj().field("name", &c.name).field("system", c.system);
            w.field("total_divergences", &c.total).field("checks", &c.checks);
            w.field("probes", &c.probes).field("switches", &c.switches);
            w.field("run_error", &c.run_error).field("note", &c.note).field("shrunk", &c.shrunk);
            w.field("divergences", &c.divergences).end();
        }
        w.end().key("crosschecks").rows();
        for x in &self.crosschecks {
            w.val(x);
        }
        w.end().field("failures", &self.failures().len()).end();
        w.finish() + "\n"
    }
}

/// Maps how a job's VM work ended onto the engine's [`JobResult`]: a
/// watchdog stop may be transient host load (retried once), fuel
/// exhaustion is guest-deterministic (never retried). `halt` is the
/// worst over every run the job performed.
pub(crate) fn job_result(halt: Option<RunHalt>, payload: String) -> JobResult {
    match halt {
        None => JobResult::Done(payload),
        Some(RunHalt::FuelExhausted) => JobResult::FuelExhausted(payload),
        Some(RunHalt::TimedOut) => JobResult::TimedOut(payload),
    }
}

// ---------------------------------------------------------------------
// Journal payloads.
// ---------------------------------------------------------------------

/// A case's journal form. [`FromJson`] inverts it field for field, so
/// aggregates rendered from a resumed journal are byte-identical to
/// the uninterrupted run's.
impl ToJson for CaseResult {
    fn write_json(&self, w: &mut Writer) {
        w.obj().field("name", &self.name).field("system", self.system);
        w.field("total", &self.total).field("checks", &self.checks).field("probes", &self.probes);
        w.field("switches", &self.switches).field("run_error", &self.run_error);
        w.field("shrunk", &self.shrunk).field("note", &self.note);
        w.field("divergences", &self.divergences).end();
    }
}

impl FromJson for CaseResult {
    fn from_json(v: &Value) -> Result<CaseResult, DecodeError> {
        let system = match v.tag("system")? {
            "OPEC" => "OPEC",
            "ACES" => "ACES",
            other => {
                return Err(DecodeError::new(format!("unknown system {other:?}")).in_field("system"))
            }
        };
        Ok(CaseResult {
            name: v.field("name")?,
            system,
            divergences: v.field("divergences")?,
            total: v.field("total")?,
            checks: v.field("checks")?,
            probes: v.field("probes")?,
            switches: v.field("switches")?,
            run_error: v.field("run_error")?,
            shrunk: v.field("shrunk")?,
            note: v.field("note")?,
        })
    }
}

impl ToJson for CrossCheck {
    fn write_json(&self, w: &mut Writer) {
        w.obj().field("name", &self.name).field("ok", &self.ok);
        w.field("detail", &self.detail).end();
    }
}

impl FromJson for CrossCheck {
    fn from_json(v: &Value) -> Result<CrossCheck, DecodeError> {
        Ok(CrossCheck { name: v.field("name")?, ok: v.field("ok")?, detail: v.field("detail")? })
    }
}

/// The payload of one app job: its case plus its cross-checks.
fn app_payload(case: &CaseResult, crosschecks: &[CrossCheck]) -> String {
    let mut w = Writer::new(Layout::Compact);
    w.obj().field("case", case).field("crosschecks", crosschecks).end();
    w.finish()
}

/// A job's identifying fragment for its repro artifact: the subject
/// and the backend it ran on.
fn app_repro(app: &App, system: &str, sel: FleetBackend) -> String {
    let mut w = Writer::new(Layout::Compact);
    w.obj().field("app", app.name).field("system", system);
    if system == "OPEC" {
        w.field("backend", sel.name());
    }
    w.end();
    w.finish()
}

/// The case synthesised for a job that panicked on both attempts: the
/// subject is preserved in the report with the panic as its run error,
/// so a host bug is a visible failure, never a missing row.
fn panicked_case(name: String, system: &'static str, payload: &str) -> CaseResult {
    let msg =
        json::decode(payload).map_or_else(|_| "lost payload".to_string(), |p: PanicPayload| p.0);
    CaseResult { name, system, run_error: Some(format!("host panic: {msg}")), ..Default::default() }
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

/// The case of a paper application's run. An application that stops at
/// its budget has failed its check, so the budget stop is reported as
/// the case's run error as well as the job's outcome.
fn app_case(app: &App, system: &'static str, v: &Verdict) -> CaseResult {
    CaseResult { run_error: v.finished().err(), ..verdict_case(app.name.to_string(), system, v) }
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
        ..Default::default()
    }
}

/// Runs one application under OPEC with the oracle attached and
/// cross-checks ET: the trace-derived execution sets against the
/// oracle's, and Equation 2 recomputed from the matrix against
/// [`et_by_task`].
pub fn check_opec_app(
    app: &App,
    budget: RunBudget,
    sel: FleetBackend,
) -> (CaseResult, Vec<CrossCheck>, Option<RunHalt>) {
    let fw = Firmware::from(app);
    let trace = Rc::new(RefCell::new(Trace::new()));
    let rec = RunRequest::new(&fw, System::Opec)
        .on(sel.dyn_backend())
        .budget(budget)
        .oracle()
        .sink(trace.clone())
        .run()
        .unwrap_or_else(|e| panic!("{} OPEC run: {e}", app.name));
    let cycles = rec.cycles();
    let RunRecord { verdict: v, monitor, build, matrix, .. } = rec;
    let (Some(monitor), BuildOutput::Opec(compile), Some(matrix)) = (monitor, build, matrix) else {
        unreachable!("an OPEC run with the oracle attached")
    };
    let halt = v.halt;
    let case = app_case(app, "OPEC", &v);

    // The evaluation's view of the same run, for the ET cross-check.
    let eval = AppEval {
        name: app.name,
        board: app.board,
        base_cycles: 1,
        base_flash: 0,
        base_sram: 0,
        opec: Arc::new(OpecRun {
            cycles,
            flash_used: compile.image.flash_used,
            sram_used: compile.image.sram_used,
            trace: trace.take(),
            monitor,
            compile,
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
    let from_oracle: BTreeMap<OpId, BTreeSet<_>> = v
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
fn check_aces_app(app: &App, budget: RunBudget) -> (CaseResult, Vec<CrossCheck>, Option<RunHalt>) {
    let fw = Firmware::from(app);
    let rec = RunRequest::new(&fw, System::Aces)
        .budget(budget)
        .oracle()
        .run()
        .unwrap_or_else(|e| panic!("{} ACES run: {e}", app.name));
    let (BuildOutput::Aces(out), Some(matrix)) = (&rec.build, &rec.matrix) else {
        unreachable!("an ACES run with the oracle attached")
    };
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
    (app_case(app, "ACES", &rec.verdict), crosschecks, rec.verdict.halt)
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

/// The report's name for an isolation system.
fn system_label(system: System) -> &'static str {
    match system {
        System::Opec => "OPEC",
        System::Aces => "ACES",
        System::Baseline => "baseline",
    }
}

/// One generated firmware under `system` on `sel`, within `budget`.
/// Shrinking starts from the smaller of the plan and its `corpus`
/// match (see [`shrink_start`]).
fn gen_case(
    spec: &FirmwareSpec,
    seed: u64,
    system: System,
    do_shrink: bool,
    budget: RunBudget,
    sel: FleetBackend,
    corpus: Option<&Corpus>,
) -> (CaseResult, Option<RunHalt>) {
    let name = format!("gen[{seed}]");
    let label = system_label(system);
    let verdict = |s: &FirmwareSpec| {
        let fw = Firmware::from(s);
        let request = RunRequest::new(&fw, system).on(sel.dyn_backend()).budget(budget);
        request.oracle().run().map(|r| r.verdict)
    };
    match verdict(spec) {
        Ok(v) => {
            let mut case = verdict_case(name, label, &v);
            if v.halt.is_some() {
                case.note = Some("stopped by budget".to_string());
            }
            if !v.clean() && do_shrink {
                let mut diverges =
                    |s: &FirmwareSpec| verdict(s).is_ok_and(|v| v.total_divergences > 0);
                let start = shrink_start(spec, &v, corpus, &mut diverges);
                let small = shrink(start, &mut diverges, SHRINK_BUDGET);
                case.shrunk = Some(describe(&small));
            }
            (case, v.halt)
        }
        // ACES can reject a plan outright (group-region overflow on
        // MPU hardware limits) — a scalability property, not a
        // divergence. OPEC must build every plan.
        Err(e) if system == System::Aces => {
            let note = Some(format!("build skipped: {e}"));
            (CaseResult { name, system: label, note, ..Default::default() }, None)
        }
        Err(e) => {
            (CaseResult { name, system: label, run_error: Some(e), ..Default::default() }, None)
        }
    }
}

/// Job-id fragment for an application name (journal id charset only).
pub(crate) fn job_slug(name: &str) -> String {
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
        note: Some(format!("skipped: ACES targets the ARMv7-M MPU, not {}", sel.name())),
        ..Default::default()
    }
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

/// Runs the whole differential check — all seven applications under
/// OPEC, the five comparison applications under ACES, and
/// `opts.seeds` generated firmwares under both stacks — as a
/// supervised campaign: one job per application and
/// one per generated seed (its OPEC and ACES runs share a payload),
/// with fuel budgets, a watchdog, panic containment, and
/// checkpoint/resume via the engine options.
pub fn run_check_campaign(
    opts: &CheckOptions,
    engine: &EngineOpts,
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
                app_repro(app, "OPEC", sel),
                move |ctx| {
                    let (case, crosschecks, halt) = check_opec_app(app, job_budget(ctx), sel);
                    job_result(halt, app_payload(&case, &crosschecks))
                },
            ),
            CheckJob::AcesApp(app) => Job::new(
                format!("check/{seg}app/{}/aces", job_slug(app.name)),
                app_repro(app, "ACES", sel),
                move |ctx| {
                    let (case, crosschecks, halt) = check_aces_app(app, job_budget(ctx));
                    job_result(halt, app_payload(&case, &crosschecks))
                },
            ),
            CheckJob::Gen(seed) => Job::new(
                format!("check/{seg}gen/{seed}"),
                {
                    let mut w = Writer::new(Layout::Compact);
                    w.obj().field("seed", &seed).field("shrink", &do_shrink);
                    w.field("backend", sel.name()).end();
                    w.finish()
                },
                move |ctx| {
                    let budget = job_budget(ctx).capped(GEN_FUEL);
                    let spec = generate(seed);
                    let (opec, mut halt) =
                        gen_case(&spec, seed, System::Opec, do_shrink, budget, sel, corpus);
                    // The payload: the OPEC case, plus the ACES case on
                    // a backend with an ACES port.
                    let mut w = Writer::new(Layout::Compact);
                    w.obj().field("opec", &opec);
                    if sel.has_aces() {
                        let (aces, h2) =
                            gen_case(&spec, seed, System::Aces, do_shrink, budget, sel, None);
                        w.field("aces", &aces);
                        halt = halt.max(h2);
                    }
                    w.end();
                    job_result(halt, w.finish())
                },
            ),
        })
        .collect();
    let report = run_campaign(&engine.campaign_opts("check"), &jobs)?;

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
                let doc = json::parse(&rec.payload).map_err(|e| format!("app payload: {e}"))?;
                let bad = |e: DecodeError| format!("app payload: {e}");
                out.cases.push(doc.field("case").map_err(bad)?);
                out.crosschecks.extend(doc.field::<Vec<CrossCheck>>("crosschecks").map_err(bad)?);
            }
            (CheckJob::Gen(_), _) => {
                let doc = json::parse(&rec.payload).map_err(|e| format!("gen payload: {e}"))?;
                let case =
                    |key| doc.field::<CaseResult>(key).map_err(|e| format!("gen payload: {e}"));
                out.cases.push(case("opec")?);
                if sel.has_aces() {
                    out.cases.push(case("aces")?);
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
    /// How the run ended, rendered (outcome, budget stop and error).
    outcome: String,
}

/// Runs one subject once under `mode` with a recorder attached, and
/// reports whether its budget stopped it (both modes burn identical
/// fuel, so under a tight `--fuel` the two sides halt at the same
/// instruction and still compare equal).
fn lock_run(
    fw: &Firmware<'_>,
    system: System,
    sel: FleetBackend,
    mode: ExecMode,
    fuel: u64,
) -> Result<(LockRun, Option<RunHalt>), String> {
    let rec = Rc::new(RefCell::new(Recorder::with_capacity(LOCKSTEP_RING).with_funcs()));
    let run = RunRequest::new(fw, system)
        .on(sel.dyn_backend())
        .budget(RunBudget { fuel, deadline: None })
        .mode(mode)
        .sink(rec.clone())
        .run()?;
    let rec = Rc::try_unwrap(rec).expect("sole recorder handle").into_inner();
    let v = &run.verdict;
    let lock = LockRun {
        log: event_log(&rec.ring.to_vec()),
        metrics: metrics_json(&rec.metrics),
        total_events: rec.ring.total(),
        switches: rec.metrics.total_switches(),
        stats: run.stats,
        outcome: format!("{:?}, halt {:?}, error {:?}", run.outcome, v.halt, v.run_error),
    };
    Ok((lock, v.halt))
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
        note: Some("plain vs decoded lockstep".into()),
        ..Default::default()
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
        run_error: Some(error),
        note: Some("plain vs decoded lockstep".into()),
        ..Default::default()
    }
}

/// Runs one subject under `system` in both execution modes and
/// compares the two sides.
fn lockstep(
    fw: &Firmware<'_>,
    system: System,
    sel: FleetBackend,
    fuel: u64,
) -> (CaseResult, Option<RunHalt>) {
    let run = |mode| lock_run(fw, system, sel, mode, fuel);
    let label = system_label(system);
    match run(ExecMode::Plain).and_then(|plain| Ok((plain, run(ExecMode::Decoded)?))) {
        Ok(((plain, h1), (decoded, h2))) => {
            (compare_lock(fw.name(), label, &plain, &decoded), h1.max(h2))
        }
        Err(e) => (lock_error(fw.name(), label, e), None),
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
/// under OPEC, as a supervised campaign with one job per subject and
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
                app_repro(app, "OPEC", sel),
                move |ctx| {
                    let (case, halt) = lockstep(&Firmware::from(app), System::Opec, sel, ctx.fuel);
                    job_result(halt, json::to_string(&case, Layout::Compact))
                },
            ),
            CheckJob::AcesApp(app) => Job::new(
                format!("lockstep/{seg}app/{}/aces", job_slug(app.name)),
                app_repro(app, "ACES", sel),
                move |ctx| {
                    let (case, halt) = lockstep(&Firmware::from(app), System::Aces, sel, ctx.fuel);
                    job_result(halt, json::to_string(&case, Layout::Compact))
                },
            ),
            CheckJob::Gen(seed) => Job::new(
                format!("lockstep/{seg}gen/{seed}"),
                {
                    let mut w = Writer::new(Layout::Compact);
                    w.obj().field("seed", &seed).field("backend", sel.name()).end();
                    w.finish()
                },
                move |ctx| {
                    let spec = generate(seed);
                    let (case, halt) =
                        lockstep(&Firmware::from(&spec), System::Opec, sel, ctx.fuel);
                    job_result(halt, json::to_string(&case, Layout::Compact))
                },
            ),
        })
        .collect();
    let report = run_campaign(&engine.lockstep_opts("lockstep"), &jobs)?;

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
            out.cases
                .push(json::decode(&rec.payload).map_err(|e| format!("lockstep payload: {e}"))?);
        }
    }
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runs::{EVAL_BUDGET, FUEL};
    use proptest::prelude::*;

    #[test]
    fn pinlock_is_divergence_free_with_agreeing_metrics() {
        let app = opec_apps::programs::pinlock::app();
        let (case, crosschecks, halt) = check_opec_app(&app, EVAL_BUDGET, FleetBackend::Armv7m);
        assert!(!case.failed(), "{:?}", case);
        assert!(case.checks > 0 && case.probes > 0 && case.switches > 0);
        assert!(crosschecks.iter().all(|x| x.ok), "{crosschecks:?}");
        assert_eq!(halt, None);

        let (case, crosschecks, halt) = check_aces_app(&app, EVAL_BUDGET);
        assert!(!case.failed(), "{:?}", case);
        assert!(crosschecks.iter().all(|x| x.ok), "{crosschecks:?}");
        assert_eq!(halt, None);
    }

    #[test]
    fn pinlock_lockstep_has_zero_divergences() {
        let app = opec_apps::programs::pinlock::app();
        let (case, halt) =
            lockstep(&Firmware::from(&app), System::Opec, FleetBackend::Armv7m, FUEL);
        assert_eq!(case.total, 0, "OPEC: {:?}", case.divergences);
        assert!(case.run_error.is_none(), "{:?}", case.run_error);
        assert!(case.checks > 0 && case.switches > 0);
        assert_eq!(halt, None);
        let (case, _) = lockstep(&Firmware::from(&app), System::Aces, FleetBackend::Armv7m, FUEL);
        assert_eq!(case.total, 0, "ACES: {:?}", case.divergences);
        let spec = generate(0);
        let (case, _) = lockstep(&Firmware::from(&spec), System::Opec, FleetBackend::Armv7m, FUEL);
        assert_eq!(case.total, 0, "gen[0]: {:?}", case.divergences);
    }

    #[test]
    fn lockstep_under_tight_fuel_halts_both_sides_identically() {
        // Fuel bounds the lockstep pair identically: both sides stop at
        // the same instruction, compare equal, and the job surfaces the
        // truncation as FuelExhausted instead of diverging or hanging.
        let app = opec_apps::programs::pinlock::app();
        let fw = Firmware::from(&app);
        let (case, halt) = lockstep(&fw, System::Opec, FleetBackend::Armv7m, 10_000);
        assert_eq!(case.total, 0, "tight fuel: {:?}", case.divergences);
        assert_eq!(halt, Some(RunHalt::FuelExhausted));
    }

    fn opt(keep: bool, s: String) -> Option<String> {
        keep.then_some(s)
    }

    proptest! {
        #[test]
        fn case_results_round_trip(
            texts in (any::<String>(), any::<String>(), any::<String>(), any::<bool>()),
            counts in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            opts in (any::<String>(), any::<bool>(), any::<String>(), any::<bool>(), any::<String>(), any::<bool>()),
        ) {
            let (name, div, more, aces) = texts;
            let (total, checks, probes, switches) = counts;
            let (e, has_e, sh, has_sh, note, has_note) = opts;
            let case = CaseResult {
                name,
                system: if aces { "ACES" } else { "OPEC" },
                divergences: vec![div, more],
                total,
                checks,
                probes,
                switches,
                run_error: opt(has_e, e),
                shrunk: opt(has_sh, sh),
                note: opt(has_note, note),
            };
            let payload = json::to_string(&case, Layout::Compact);
            let back: CaseResult = json::decode(&payload).unwrap();
            prop_assert_eq!(&case, &back);
            // Re-rendering yields the same bytes — the property the
            // journal's byte-identical resume relies on.
            prop_assert_eq!(payload, json::to_string(&back, Layout::Compact));
        }

        #[test]
        fn crosschecks_round_trip(name in any::<String>(), ok in any::<bool>(), detail in any::<String>()) {
            let x = CrossCheck { name, ok, detail };
            let back: CrossCheck = json::decode(&json::to_string(&x, Layout::Compact)).unwrap();
            prop_assert_eq!((&x.name, x.ok, &x.detail), (&back.name, back.ok, &back.detail));
        }
    }

    #[test]
    fn report_json_escapes_every_string() {
        let nasty = "tab\t nl\n quote\" back\\ \u{1} é";
        let report = CheckReport {
            backend: "armv7m",
            cases: vec![CaseResult {
                name: nasty.into(),
                system: "OPEC",
                divergences: vec![nasty.into()],
                run_error: Some(nasty.into()),
                shrunk: Some(nasty.into()),
                note: Some(nasty.into()),
                ..Default::default()
            }],
            crosschecks: vec![CrossCheck { name: nasty.into(), ok: true, detail: nasty.into() }],
        };
        let text = report.to_json();
        // Layout newlines only: no raw tab or control character.
        assert!(!text.contains(['\t', '\u{1}']), "{text}");
        let v = json::parse(&text).expect("valid JSON");
        let case = &v.get("cases").and_then(Value::as_arr).unwrap()[0];
        for key in ["name", "run_error", "shrunk", "note"] {
            assert_eq!(case.tag(key), Ok(nasty), "{key}");
        }
        assert_eq!(case.field::<Vec<String>>("divergences"), Ok(vec![nasty.to_string()]));
        let x = &v.get("crosschecks").and_then(Value::as_arr).unwrap()[0];
        assert_eq!((x.tag("name"), x.tag("detail")), (Ok(nasty), Ok(nasty)));
    }

    #[test]
    fn an_empty_report_keeps_its_layout() {
        let json = CheckReport::default().to_json();
        assert_eq!(
            json,
            "{\n  \"backend\": \"armv7m\",\n  \"cases\": [\n  ],\n  \"crosschecks\": [\n  ],\n  \
             \"failures\": 0\n}\n"
        );
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
