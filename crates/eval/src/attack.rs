//! The attack matrix (`opec-eval attack-matrix`).
//!
//! Runs every evaluation application under seeded attack campaigns
//! (crate `opec-inject`) in three configurations — OPEC, ACES, and the
//! unprotected baseline — and scores each `(app, config, attack, seed)`
//! cell with a containment [`Verdict`]. The acceptance bar mirrors the
//! paper's §7 security argument: OPEC contains every applicable attack
//! class with a typed trap, the baseline lets every data and peripheral
//! attack through, and ACES lands in between (containment depends on
//! which compartment the compromised code sits in).
//!
//! Targets are resolved *per configuration* from the artifacts the
//! builds actually produce (policy, image layout, installed devices),
//! so the same logical attack hits a meaningful address in each world.
//! Campaign trigger steps come from `(seed, app, attack class)` alone,
//! so re-running the matrix with the same seeds is bit-identical —
//! that is what lets CI fail on any OPEC escape.

use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use opec_aces::{build_aces_image, AcesCompileOutput, AcesRuntime, AcesStrategy};
use opec_apps::programs::{aces_comparison_apps, all_apps};
use opec_apps::App;
use opec_armv7m::{Machine, MemRegion};
use opec_campaign::json::{self, Value};
use opec_campaign::{run_campaign, CampaignOpts, CampaignReport, Job, JobOutcome, JobResult};
use opec_core::{compile, CompileOutput, OpecMonitor};
use opec_fleet::FleetBackend;
use opec_inject::{score, Attack, AttackKind, CampaignInjector, CampaignResult, Verdict};
use opec_vm::{
    link_baseline, InjectAction, LoadedImage, NullSupervisor, OpId, Supervisor, Vm, VmError,
    VmSnapshot,
};

use crate::check::backend_segment;
use crate::engine::{EngineOpts, RunLimits};
use crate::runs::FUEL;
use crate::table::TextTable;

/// Fuel for campaign runs whose verdict is decided at (or shortly
/// after) the fire moment: hostile accesses are adjudicated on the
/// spot, and an armed switch corruption resolves at the next
/// operation/compartment call. Campaigns trigger within the first 2048
/// steps, so the tail of the run — possibly corrupted into a loop by
/// the attack itself — is not worth simulating.
const SHORT_FUEL: u64 = 300_000;

/// The ACES strategy the matrix attacks (the paper's default
/// filename-based compartmentalisation).
const ACES_MATRIX_STRATEGY: AcesStrategy = AcesStrategy::Filename;

/// MPU_CTRL, the register an in-application attacker writes to turn
/// protection off.
const MPU_CTRL: u32 = 0xE000_ED94;

/// Core-peripheral registers worth attacking, in preference order.
const PPB_TARGETS: [u32; 3] = [0xE000_E010, 0xE000_E100, 0xE000_ED08];

/// The isolation configuration of one matrix column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// Full OPEC: operations + privileged monitor.
    Opec,
    /// ACES compartments (filename strategy).
    Aces,
    /// Vanilla image, no MPU policy at all.
    Baseline,
}

impl Config {
    /// Display / JSON label.
    pub fn label(self) -> &'static str {
        match self {
            Config::Opec => "opec",
            Config::Aces => "aces",
            Config::Baseline => "baseline",
        }
    }

    /// Matrix column order.
    pub const ALL: [Config; 3] = [Config::Opec, Config::Aces, Config::Baseline];
}

/// One matrix cell: the verdicts of every seed for
/// `(app, config, attack)`.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Application name.
    pub app: &'static str,
    /// Isolation configuration.
    pub config: Config,
    /// Attack class.
    pub kind: AttackKind,
    /// `(seed, verdict)` per campaign, in seed order.
    pub verdicts: Vec<(u64, Verdict)>,
}

impl Cell {
    /// Aggregate display label: the common label when every seed agrees,
    /// otherwise per-label counts (`C:6 E:2`).
    pub fn agg_label(&self) -> String {
        let first = match self.verdicts.first() {
            Some((_, v)) => v.label(),
            None => return "n/a".into(),
        };
        if self.verdicts.iter().all(|(_, v)| v.label() == first) {
            return first.to_string();
        }
        let mut parts = Vec::new();
        for label in ["CONTAINED", "ESCAPED", "CRASHED", "UNDECIDED", "n/a"] {
            let n = self.verdicts.iter().filter(|(_, v)| v.label() == label).count();
            if n > 0 {
                parts.push(format!("{}:{n}", &label[..1]));
            }
        }
        parts.join(" ")
    }
}

/// The full campaign outcome.
#[derive(Debug, Clone)]
pub struct AttackMatrix {
    /// The protection backend the matrix ran against.
    pub backend: &'static str,
    /// Seeds each cell was run under (`0..seeds`).
    pub seeds: u64,
    /// All cells, in app → attack → config order.
    pub cells: Vec<Cell>,
}

/// Runs the attack matrix over all seven applications with default
/// supervision (no journal).
pub fn attack_matrix(seeds: u64) -> AttackMatrix {
    attack_matrix_for(&all_apps(), seeds)
}

/// Runs the attack matrix over `apps` with seeds `0..seeds` under
/// default supervision. Kept for the legacy call sites; the engine
/// cannot fail without a journal configured.
pub fn attack_matrix_for(apps: &[App], seeds: u64) -> AttackMatrix {
    attack_matrix_campaign(apps, seeds, &EngineOpts::default(), FleetBackend::Armv7m)
        .expect("attack campaign")
        .0
}

/// Runs the attack matrix as a supervised campaign: one job per
/// application (each job's verdicts for every `attack × config × seed`
/// cell are one journal payload), scheduled by the shared engine with
/// fuel budgets, a wall-clock watchdog, panic containment, and
/// checkpoint/resume via `opts.journal`.
pub fn attack_matrix_campaign(
    apps: &[App],
    seeds: u64,
    opts: &EngineOpts,
    sel: FleetBackend,
) -> Result<(AttackMatrix, CampaignReport), String> {
    attack_matrix_with(apps, seeds, &opts.campaign_opts("attack-matrix"), sel)
}

/// [`attack_matrix_campaign`] under explicit campaign options (the
/// test entry point: fault-injection hooks set directly, no env).
pub fn attack_matrix_with(
    apps: &[App],
    seeds: u64,
    opts: &CampaignOpts,
    sel: FleetBackend,
) -> Result<(AttackMatrix, CampaignReport), String> {
    let seg = backend_segment(sel);
    let aces_apps: Vec<&'static str> = aces_comparison_apps().iter().map(|a| a.name).collect();
    let meta: Vec<(&App, bool)> =
        apps.iter().map(|app| (app, aces_apps.contains(&app.name) && sel.has_aces())).collect();
    let jobs: Vec<Job<'_>> = meta
        .iter()
        .map(|&(app, with_aces)| {
            // The id carries the seed count: a resume under different
            // `--seeds` must not splice cells from a different-shaped
            // run into this one. The backend segment likewise keeps the
            // two backends' journals disjoint.
            let id = format!("attack/{seg}app/{}/seeds/{seeds}", job_slug(app.name));
            let repro = format!(
                "{{\"app\":\"{}\",\"seeds\":{seeds},\"aces\":{with_aces},\"backend\":\"{}\"}}",
                json::escape(app.name),
                sel.name()
            );
            Job::new(id, repro, move |ctx| {
                let limits = RunLimits::from_ctx(ctx);
                JobResult::Done(cells_json(&app_cells(app, seeds, with_aces, &limits, sel)))
            })
        })
        .collect();
    let report = run_campaign(opts, &jobs)?;

    // Aggregate from the records alone — fresh, resumed, or panicked,
    // the same payload bytes produce the same cells, which is what
    // makes a kill-and-resume matrix byte-identical to an
    // uninterrupted one.
    let mut cells = Vec::new();
    for (rec, &(app, with_aces)) in report.records.iter().zip(&meta) {
        match rec.outcome {
            JobOutcome::Panicked => {
                cells.extend(crashed_cells(app.name, seeds, with_aces, &rec.payload));
            }
            _ => cells.extend(cells_from(app.name, &rec.payload)?),
        }
    }
    Ok((AttackMatrix { backend: sel.name(), seeds, cells }, report))
}

/// Job-id fragment for an application name (journal id charset only).
fn job_slug(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || "._-".contains(c) { c } else { '-' })
        .collect()
}

/// The full `attack × config × seed` grid scored [`Verdict::Crashed`]:
/// the cells of an application whose job panicked on both attempts.
/// The grid has the same shape [`app_cells`] would have produced, so
/// rendering stays aligned.
fn crashed_cells(app: &'static str, seeds: u64, with_aces: bool, payload: &str) -> Vec<Cell> {
    let detail = json::parse(payload)
        .ok()
        .and_then(|v| v.get("panic").and_then(Value::as_str).map(str::to_string))
        .map_or_else(|| "host panic (lost payload)".to_string(), |m| format!("host panic: {m}"));
    let mut cells = Vec::new();
    for kind in AttackKind::ALL {
        for config in Config::ALL {
            let verdicts = if config == Config::Aces && !with_aces {
                Vec::new()
            } else {
                (0..seeds).map(|s| (s, Verdict::Crashed { detail: detail.clone() })).collect()
            };
            cells.push(Cell { app, config, kind, verdicts });
        }
    }
    cells
}

/// Per-application build artifacts, produced once and cloned into each
/// campaign run. A failed build poisons every cell of its column with
/// [`Verdict::Crashed`] — a malformed image must surface, not panic.
struct Artifacts {
    devices: Vec<Device>,
    opec: Result<CompileOutput, String>,
    aces: Option<Result<AcesCompileOutput, String>>,
    baseline: Result<LoadedImage, String>,
}

/// Converts a possibly-panicking build into a `Result`.
fn caught<T>(what: &str, r: std::thread::Result<Result<T, String>>) -> Result<T, String> {
    match r {
        Ok(inner) => inner,
        Err(payload) => Err(format!("{what}: {}", panic_message(&payload))),
    }
}

fn build_artifacts(app: &App, with_aces: bool) -> Artifacts {
    let devices = {
        let mut m = Machine::new(app.board);
        (app.setup)(&mut m);
        m.device_regions()
    };
    let opec = caught(
        "OPEC build",
        panic::catch_unwind(AssertUnwindSafe(|| {
            let (module, specs) = (app.build)();
            compile(module, app.board, &specs).map_err(|e| format!("OPEC compile: {e}"))
        })),
    );
    let aces = with_aces.then(|| {
        caught(
            "ACES build",
            panic::catch_unwind(AssertUnwindSafe(|| {
                let (module, _) = (app.build)();
                build_aces_image(module, app.board, ACES_MATRIX_STRATEGY)
                    .map_err(|e| format!("ACES build: {e}"))
            })),
        )
    });
    let baseline = caught(
        "baseline link",
        panic::catch_unwind(AssertUnwindSafe(|| {
            let (module, _) = (app.build)();
            link_baseline(module, app.board).map_err(|e| format!("baseline link: {e}"))
        })),
    );
    Artifacts { devices, opec, aces, baseline }
}

/// All cells of one application: every attack class under every
/// configuration. One VM per configuration is built, loaded and booted
/// exactly once, then reset per campaign from its post-boot snapshot —
/// the fork-server pattern that makes the matrix cheap.
fn app_cells(
    app: &App,
    seeds: u64,
    with_aces: bool,
    limits: &RunLimits,
    sel: FleetBackend,
) -> Vec<Cell> {
    let art = build_artifacts(app, with_aces);
    let mut opec = caught_runner("OPEC init", || prepare_opec(app, &art, sel));
    let mut aces = with_aces.then(|| caught_runner("ACES init", || prepare_aces(app, &art)));
    let mut baseline = caught_runner("baseline init", || prepare_baseline(app, &art, sel));
    let mut cells = Vec::new();
    for kind in AttackKind::ALL {
        for config in Config::ALL {
            if config == Config::Aces && !with_aces {
                cells.push(Cell { app: app.name, config, kind, verdicts: Vec::new() });
                continue;
            }
            // Never panic out of a cell: host panics score as
            // [`Verdict::Crashed`], which the matrix (and CI) treat as
            // a robustness bug. A panic mid-campaign cannot poison the
            // next one — every campaign starts from the snapshot.
            let verdicts = (0..seeds)
                .map(|seed| {
                    let outcome = panic::catch_unwind(AssertUnwindSafe(|| match config {
                        Config::Opec => run_opec_cell(app, &art, &mut opec, kind, seed, limits),
                        Config::Aces => {
                            let runner = aces.as_mut().expect("ACES requested");
                            run_aces_cell(app, &art, runner, kind, seed, limits)
                        }
                        Config::Baseline => {
                            run_baseline_cell(app, &art, &mut baseline, kind, seed, limits)
                        }
                    }));
                    let verdict = match outcome {
                        Ok(Ok(verdict)) => verdict,
                        Ok(Err(e)) => Verdict::Crashed { detail: e },
                        Err(payload) => Verdict::Crashed { detail: panic_message(&payload) },
                    };
                    (seed, verdict)
                })
                .collect();
            cells.push(Cell { app: app.name, config, kind, verdicts });
        }
    }
    cells
}

/// One reusable VM for an `(app, config)` column: built and booted
/// once, then reset per campaign from a copy-on-write snapshot instead
/// of being reconstructed from scratch for each `attack × seed` run.
enum Runner<S: Supervisor + Clone> {
    /// Boot succeeded; each campaign restores `snap` and resumes.
    /// Boxed: a VM plus its snapshot dwarf the other variant.
    Ready {
        /// The booted VM.
        vm: Box<Vm<S>>,
        /// Its post-boot state (machine, supervisor, frames).
        snap: Box<VmSnapshot<S>>,
    },
    /// The VM aborted during boot. Boot is deterministic, so every
    /// campaign of the column would have ended the same way before the
    /// injector could fire; the stored result is replayed per cell.
    BootFailed(CampaignResult),
}

impl<S: Supervisor + Clone> Runner<S> {
    /// Boots `vm` once and snapshots the post-boot state.
    fn new(mut vm: Vm<S>) -> Result<Self, String> {
        match vm.boot() {
            Ok(()) => {}
            Err(VmError::Aborted { trap, .. }) => {
                return Ok(Runner::BootFailed(CampaignResult::Aborted(trap)));
            }
            Err(other) => {
                return Ok(Runner::BootFailed(CampaignResult::OtherError(other.to_string())));
            }
        }
        let snap = vm.snapshot().map_err(|e| format!("snapshot: {e}"))?;
        Ok(Runner::Ready { vm: Box::new(vm), snap: Box::new(snap) })
    }

    /// Restores the post-boot snapshot, installs the campaign's
    /// injector, arms the watchdog, and drives one run to a verdict.
    fn campaign(
        &mut self,
        attack: Attack,
        seed: u64,
        app: &'static str,
        kind: AttackKind,
        fuel: u64,
        deadline: Option<Instant>,
    ) -> Verdict {
        match self {
            Runner::BootFailed(result) => score(kind, &[], result),
            Runner::Ready { vm, snap } => {
                vm.restore(snap);
                vm.set_deadline(deadline);
                vm.set_injector(Some(Box::new(CampaignInjector::new(attack, seed, app))));
                debug_assert_eq!(vm.boots(), 1, "per-app init must run exactly once");
                let result = match vm.resume(fuel) {
                    Ok(_) => CampaignResult::Completed,
                    Err(VmError::Aborted { trap, .. }) => CampaignResult::Aborted(trap),
                    // Budget stops are supervision outcomes, not host
                    // errors: the scorer turns them into n/a or
                    // UNDECIDED, never CRASHED.
                    Err(VmError::OutOfFuel) => CampaignResult::FuelExhausted,
                    Err(VmError::TimedOut) => CampaignResult::TimedOut,
                    Err(other) => CampaignResult::OtherError(other.to_string()),
                };
                vm.set_deadline(None);
                score(kind, &vm.inject_log, &result)
            }
        }
    }

    /// Reads memory of the just-driven VM (`None` after a boot failure).
    fn peek(&mut self, addr: u32, size: u32) -> Option<u32> {
        match self {
            Runner::Ready { vm, .. } => vm.machine.peek(addr, size),
            Runner::BootFailed(_) => None,
        }
    }
}

/// Converts a possibly-panicking VM construction into a `Result`.
fn caught_runner<S: Supervisor + Clone>(
    what: &str,
    f: impl FnOnce() -> Result<Runner<S>, String>,
) -> Result<Runner<S>, String> {
    caught(what, panic::catch_unwind(AssertUnwindSafe(f)))
}

fn prepare_opec(
    app: &App,
    art: &Artifacts,
    sel: FleetBackend,
) -> Result<Runner<OpecMonitor>, String> {
    let out = art.opec.as_ref().map_err(Clone::clone)?;
    let backend = sel.dyn_backend();
    let mut machine = backend.make_machine(app.board);
    (app.setup)(&mut machine);
    let vm = Vm::builder(machine, out.image.clone())
        .supervisor(OpecMonitor::with_backend(out.policy.clone(), backend))
        .build()
        .map_err(|e| format!("OPEC image: {e}"))?;
    Runner::new(vm)
}

fn prepare_aces(app: &App, art: &Artifacts) -> Result<Runner<AcesRuntime>, String> {
    let out = art.aces.as_ref().expect("ACES requested").as_ref().map_err(Clone::clone)?;
    let main_comp = out.comps.of(out.image.entry);
    let rt = AcesRuntime::new(
        &out.image.module,
        out.comps.clone(),
        out.regions.clone(),
        app.board,
        out.stack,
        main_comp,
    );
    let mut machine = Machine::new(app.board);
    (app.setup)(&mut machine);
    let vm = Vm::builder(machine, out.image.clone())
        .supervisor(rt)
        .build()
        .map_err(|e| format!("ACES image: {e}"))?;
    Runner::new(vm)
}

fn prepare_baseline(
    app: &App,
    art: &Artifacts,
    sel: FleetBackend,
) -> Result<Runner<NullSupervisor>, String> {
    let image = art.baseline.as_ref().map_err(Clone::clone)?;
    let mut machine = sel.dyn_backend().make_machine(app.board);
    (app.setup)(&mut machine);
    let vm =
        Vm::builder(machine, image.clone()).build().map_err(|e| format!("baseline image: {e}"))?;
    Runner::new(vm)
}

type Device = (String, MemRegion);

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("host panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("host panic: {s}")
    } else {
        "host panic (non-string payload)".into()
    }
}

fn run_opec_cell(
    app: &App,
    art: &Artifacts,
    runner: &mut Result<Runner<OpecMonitor>, String>,
    kind: AttackKind,
    seed: u64,
    limits: &RunLimits,
) -> Result<Verdict, String> {
    let out = art.opec.as_ref().map_err(Clone::clone)?;
    let Some(attack) = opec_attack(kind, out, &art.devices) else {
        return Ok(Verdict::NotApplicable);
    };
    let runner = runner.as_mut().map_err(|e| e.clone())?;
    // A bit flip's verdict shows up at the faulted operation's next
    // sync-out, and an armed switch corruption at the next operation
    // entry — either may be anywhere in the workload, so those get the
    // full budget. Everything else resolves at the fire moment.
    let fuel = limits.capped(match kind {
        AttackKind::ShadowBitFlip | AttackKind::SvcCorrupt => FUEL,
        _ => SHORT_FUEL,
    });
    let mut verdict = runner.campaign(attack.clone(), seed, app.name, kind, fuel, limits.deadline);
    // A flipped shadow bit the operation legitimately overwrote before
    // its next sync-out was masked, not contained and not escaped — the
    // standard fault-injection "benign fault" outcome.
    if kind == AttackKind::ShadowBitFlip && matches!(verdict, Verdict::Escaped { .. }) {
        if let InjectAction::FlipBit { addr, bit } = attack.action {
            let still_set = runner.peek(addr, 4).is_some_and(|v| (v >> bit) & 1 == 1);
            if !still_set {
                verdict = Verdict::NotApplicable;
            }
        }
    }
    Ok(verdict)
}

fn run_aces_cell(
    app: &App,
    art: &Artifacts,
    runner: &mut Result<Runner<AcesRuntime>, String>,
    kind: AttackKind,
    seed: u64,
    limits: &RunLimits,
) -> Result<Verdict, String> {
    let out = art.aces.as_ref().expect("ACES requested").as_ref().map_err(Clone::clone)?;
    let Some(attack) = aces_attack(kind, &out.image, out.stack, &art.devices) else {
        return Ok(Verdict::NotApplicable);
    };
    let runner = runner.as_mut().map_err(|e| e.clone())?;
    let fuel = limits.capped(if kind == AttackKind::SvcCorrupt { FUEL } else { SHORT_FUEL });
    Ok(runner.campaign(attack, seed, app.name, kind, fuel, limits.deadline))
}

fn run_baseline_cell(
    app: &App,
    art: &Artifacts,
    runner: &mut Result<Runner<NullSupervisor>, String>,
    kind: AttackKind,
    seed: u64,
    limits: &RunLimits,
) -> Result<Verdict, String> {
    let image = art.baseline.as_ref().map_err(Clone::clone)?;
    let Some(attack) = baseline_attack(kind, image, &art.devices) else {
        return Ok(Verdict::NotApplicable);
    };
    let runner = runner.as_mut().map_err(|e| e.clone())?;
    Ok(runner.campaign(attack, seed, app.name, kind, limits.capped(SHORT_FUEL), limits.deadline))
}

// ---------------------------------------------------------------------
// Target resolution.
// ---------------------------------------------------------------------

/// Device registers in the memory-mapped peripheral space (PPB devices
/// are attacked separately).
fn peripheral_bases(devices: &[Device]) -> Vec<u32> {
    devices
        .iter()
        .filter(|(_, r)| (0x4000_0000..0x6000_0000).contains(&r.base))
        .map(|(_, r)| r.base)
        .collect()
}

/// Resolves `kind` against an OPEC build: a concrete address that the
/// firing operation's policy must deny, plus the set of operations the
/// campaign may fire in. `None` when the app has no such target (the
/// cell scores n/a).
fn opec_attack(kind: AttackKind, out: &CompileOutput, devices: &[Device]) -> Option<Attack> {
    let policy = &out.policy;
    let all_ops: Vec<OpId> = (0..policy.ops.len() as u8).collect();
    match kind {
        AttackKind::DataWrite => {
            // The public master copy of a shared variable: writable only
            // by the privileged monitor during switch synchronisation.
            let g = policy.externals.first()?;
            let addr = *policy.public_addrs.get(g)?;
            Some(Attack::anytime(
                kind,
                InjectAction::HostileStore { addr, size: 4, value: 0xDEAD_BEEF },
            ))
        }
        AttackKind::PeriphRead | AttackKind::PeriphWrite => {
            // The mapped device register denied to the most operations;
            // the campaign fires only in those, so the access is judged
            // against a policy that must refuse it.
            let (addr, denied) = peripheral_bases(devices)
                .into_iter()
                .map(|addr| {
                    let denied: Vec<OpId> = all_ops
                        .iter()
                        .copied()
                        .filter(|&op| {
                            !policy.op(op).periph_windows.iter().any(|w| w.contains(addr))
                        })
                        .collect();
                    (addr, denied)
                })
                .max_by_key(|(_, denied)| denied.len())?;
            if denied.is_empty() {
                return None;
            }
            let action = if kind == AttackKind::PeriphRead {
                InjectAction::HostileLoad { addr, size: 4 }
            } else {
                InjectAction::HostileStore { addr, size: 4, value: 0xFFFF_FFFF }
            };
            Some(Attack::in_ops(kind, action, denied))
        }
        AttackKind::PpbWrite => {
            let (addr, denied) = PPB_TARGETS.iter().find_map(|&addr| {
                let denied: Vec<OpId> = all_ops
                    .iter()
                    .copied()
                    .filter(|&op| !policy.op(op).core_windows.iter().any(|w| w.contains(addr)))
                    .collect();
                (!denied.is_empty()).then_some((addr, denied))
            })?;
            Some(Attack::in_ops(
                kind,
                InjectAction::HostileStore { addr, size: 4, value: 0 },
                denied,
            ))
        }
        AttackKind::MpuDisable => Some(Attack::anytime(
            kind,
            InjectAction::HostileStore { addr: MPU_CTRL, size: 4, value: 0 },
        )),
        AttackKind::StackSmash => {
            // Overwrite the calling operation's live stack data. The VM
            // resolves the address at fire time (the caller's saved
            // stack pointer), which under OPEC always falls in the
            // SRD-disabled sub-regions of the entered operation.
            let ops: Vec<OpId> = all_ops.into_iter().filter(|&op| op != 0).collect();
            if ops.is_empty() {
                return None;
            }
            Some(Attack::in_ops(kind, InjectAction::SmashCallerStack { value: 0x4141_4141 }, ops))
        }
        AttackKind::RelocWrite => {
            let addr = *policy.reloc_entries.values().next()?;
            Some(Attack::anytime(
                kind,
                InjectAction::HostileStore { addr, size: 4, value: 0x2000_0000 },
            ))
        }
        AttackKind::SvcCorrupt => {
            if policy.ops.len() < 2 {
                return None;
            }
            // Arm wherever the trigger lands: the next operation entry
            // then carries a bogus id the monitor has no policy for.
            Some(Attack::anytime(kind, InjectAction::CorruptNextSwitchOp { bogus: 200 }))
        }
        AttackKind::ShadowBitFlip => {
            // A sanitized shared variable: setting a high bit of its
            // live shadow pushes it out of declared range, which the
            // monitor must catch at the next sync-out. Prefer flipping
            // the shadow of an operation that only *reads* the variable
            // — a writer would repair the fault with its next store (a
            // masked fault), a reader carries it to sync-out.
            let mut fallback = None;
            for (op, p) in policy.ops.iter().enumerate() {
                for sv in &p.shared {
                    let Some((_, hi)) = sv.range else { continue };
                    if hi >= 0x80 {
                        continue;
                    }
                    let attack = Attack::in_ops(
                        kind,
                        InjectAction::FlipBit { addr: sv.shadow_addr, bit: 7 },
                        vec![op as OpId],
                    );
                    let Some(part_op) = out.partition.ops.get(op) else { continue };
                    let res = &part_op.resources;
                    if res.globals_read.contains(&sv.global)
                        && !res.globals_written.contains(&sv.global)
                    {
                        return Some(attack);
                    }
                    fallback.get_or_insert(attack);
                }
            }
            fallback
        }
    }
}

/// First fixed-address global of a linked image (data-attack victim).
fn first_fixed_global(image: &LoadedImage) -> Option<u32> {
    image.global_slots.iter().find_map(|slot| match slot {
        opec_vm::GlobalSlot::Fixed(addr) => Some(*addr),
        _ => None,
    })
}

/// Resolves `kind` against the unprotected baseline. Attacks on OPEC-
/// or compartment-specific infrastructure have no baseline equivalent.
fn baseline_attack(kind: AttackKind, image: &LoadedImage, devices: &[Device]) -> Option<Attack> {
    let action = match kind {
        AttackKind::DataWrite => InjectAction::HostileStore {
            addr: first_fixed_global(image)?,
            size: 4,
            value: 0xDEAD_BEEF,
        },
        AttackKind::PeriphRead => {
            InjectAction::HostileLoad { addr: *peripheral_bases(devices).first()?, size: 4 }
        }
        AttackKind::PeriphWrite => InjectAction::HostileStore {
            addr: *peripheral_bases(devices).first()?,
            size: 4,
            value: 0xFFFF_FFFF,
        },
        AttackKind::PpbWrite => {
            InjectAction::HostileStore { addr: PPB_TARGETS[0], size: 4, value: 0 }
        }
        AttackKind::MpuDisable => InjectAction::HostileStore { addr: MPU_CTRL, size: 4, value: 0 },
        AttackKind::StackSmash => {
            InjectAction::HostileStore { addr: image.stack.end() - 8, size: 4, value: 0x4141_4141 }
        }
        AttackKind::RelocWrite | AttackKind::SvcCorrupt | AttackKind::ShadowBitFlip => return None,
    };
    Some(Attack::anytime(kind, action))
}

/// Resolves `kind` against an ACES build. ACES attacks fire in whatever
/// compartment is current at the trigger step: containment there
/// genuinely depends on which compartment the compromised code sits in
/// (and on whether it was lifted to the privileged level), which is the
/// comparison the matrix is after.
fn aces_attack(
    kind: AttackKind,
    image: &LoadedImage,
    stack: MemRegion,
    devices: &[Device],
) -> Option<Attack> {
    let action = match kind {
        AttackKind::DataWrite => InjectAction::HostileStore {
            addr: first_fixed_global(image)?,
            size: 4,
            value: 0xDEAD_BEEF,
        },
        AttackKind::PeriphRead => {
            InjectAction::HostileLoad { addr: *peripheral_bases(devices).first()?, size: 4 }
        }
        AttackKind::PeriphWrite => InjectAction::HostileStore {
            addr: *peripheral_bases(devices).first()?,
            size: 4,
            value: 0xFFFF_FFFF,
        },
        AttackKind::PpbWrite => {
            InjectAction::HostileStore { addr: PPB_TARGETS[0], size: 4, value: 0 }
        }
        AttackKind::MpuDisable => InjectAction::HostileStore { addr: MPU_CTRL, size: 4, value: 0 },
        AttackKind::StackSmash => {
            // ACES keeps one flat stack region every compartment can
            // reach — the paper's point about missing stack isolation.
            InjectAction::HostileStore { addr: stack.end() - 8, size: 4, value: 0x4141_4141 }
        }
        AttackKind::SvcCorrupt => InjectAction::CorruptNextSwitchOp { bogus: 200 },
        AttackKind::RelocWrite | AttackKind::ShadowBitFlip => return None,
    };
    Some(Attack::anytime(kind, action))
}

// ---------------------------------------------------------------------
// Journal payloads.
// ---------------------------------------------------------------------

/// Serialises one application's cells as the job's single-line journal
/// payload. [`cells_from`] inverts it exactly: every verdict variant
/// round-trips field-for-field, so an aggregate rendered from a
/// resumed journal is byte-identical to the uninterrupted run's.
fn cells_json(cells: &[Cell]) -> String {
    let mut out = String::from("{\"cells\":[");
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(
            out,
            "{{\"config\":\"{}\",\"attack\":\"{}\",\"verdicts\":[",
            cell.config.label(),
            cell.kind.name()
        )
        .expect("write to String");
        for (j, (seed, verdict)) in cell.verdicts.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write!(out, "{{\"seed\":{seed},").expect("write to String");
            let field = |out: &mut String, key: &str, value: &str| {
                write!(out, ",\"{key}\":\"{}\"", json::escape(value)).expect("write to String");
            };
            match verdict {
                Verdict::Contained { op, cause } => {
                    write!(out, "\"v\":\"contained\",\"op\":{op}").expect("write to String");
                    field(&mut out, "cause", cause);
                }
                Verdict::Escaped { evidence } => {
                    out.push_str("\"v\":\"escaped\"");
                    field(&mut out, "evidence", evidence);
                }
                Verdict::Crashed { detail } => {
                    out.push_str("\"v\":\"crashed\"");
                    field(&mut out, "detail", detail);
                }
                Verdict::NotApplicable => out.push_str("\"v\":\"na\""),
                Verdict::Undecided { reason } => {
                    out.push_str("\"v\":\"undecided\"");
                    field(&mut out, "reason", reason);
                }
            }
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Parses a job payload back into cells. `app` comes from the job
/// list, not the payload — the aggregate is defined by this run's
/// applications.
fn cells_from(app: &'static str, payload: &str) -> Result<Vec<Cell>, String> {
    let bad = |what: &str| format!("{app} payload: {what}");
    let doc = json::parse(payload).map_err(|e| bad(&e))?;
    let cells = doc.get("cells").and_then(Value::as_arr).ok_or_else(|| bad("no cells"))?;
    cells
        .iter()
        .map(|cell| {
            let config = match cell.get("config").and_then(Value::as_str) {
                Some("opec") => Config::Opec,
                Some("aces") => Config::Aces,
                Some("baseline") => Config::Baseline,
                other => return Err(bad(&format!("bad config {other:?}"))),
            };
            let name = cell.get("attack").and_then(Value::as_str).unwrap_or("");
            let kind = *AttackKind::ALL
                .iter()
                .find(|k| k.name() == name)
                .ok_or_else(|| bad(&format!("bad attack {name:?}")))?;
            let verdicts = cell
                .get("verdicts")
                .and_then(Value::as_arr)
                .ok_or_else(|| bad("no verdicts"))?
                .iter()
                .map(|v| verdict_from(v).ok_or_else(|| bad("bad verdict")))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Cell { app, config, kind, verdicts })
        })
        .collect()
}

fn verdict_from(v: &Value) -> Option<(u64, Verdict)> {
    let seed = v.get("seed")?.as_u64()?;
    let text = |key: &str| v.get(key).and_then(Value::as_str).map(str::to_string);
    let verdict = match v.get("v")?.as_str()? {
        "contained" => {
            Verdict::Contained { op: v.get("op")?.as_u64()? as OpId, cause: text("cause")? }
        }
        "escaped" => Verdict::Escaped { evidence: text("evidence")? },
        "crashed" => Verdict::Crashed { detail: text("detail")? },
        "na" => Verdict::NotApplicable,
        "undecided" => Verdict::Undecided { reason: text("reason")? },
        _ => return None,
    };
    Some((seed, verdict))
}

// ---------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------

impl AttackMatrix {
    /// Cells of one app, in [`AttackKind::ALL`] × [`Config::ALL`] order.
    fn app_block(&self, app: &str) -> Vec<&Cell> {
        self.cells.iter().filter(|c| c.app == app).collect()
    }

    fn app_names(&self) -> Vec<&'static str> {
        let mut names = Vec::new();
        for c in &self.cells {
            if !names.contains(&c.app) {
                names.push(c.app);
            }
        }
        names
    }

    /// Human-readable matrix, one table per application.
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "Attack containment matrix ({} seeds per cell, backend: {})",
            self.seeds, self.backend
        )
        .unwrap();
        writeln!(out, "C = contained, E = escaped, X = crashed, U = undecided\n").unwrap();
        for app in self.app_names() {
            let block = self.app_block(app);
            let mut table = TextTable::new(&["attack", "OPEC", "ACES", "baseline"]);
            for kind in AttackKind::ALL {
                let cell = |config| {
                    block
                        .iter()
                        .find(|c| c.kind == kind && c.config == config)
                        .map_or_else(|| "n/a".to_string(), |c| c.agg_label())
                };
                table.row(vec![
                    kind.name().to_string(),
                    cell(Config::Opec),
                    cell(Config::Aces),
                    cell(Config::Baseline),
                ]);
            }
            writeln!(out, "== {app} ==").unwrap();
            out.push_str(&table.render());
            out.push('\n');
        }
        out
    }

    /// Serialises every per-seed verdict as a JSON document (the CI
    /// artifact).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        writeln!(out, "  \"backend\": {},", jstr(self.backend)).unwrap();
        writeln!(out, "  \"seeds\": {},", self.seeds).unwrap();
        out.push_str("  \"cells\": [\n");
        for (i, cell) in self.cells.iter().enumerate() {
            write!(
                out,
                "    {{\"app\": {}, \"config\": \"{}\", \"attack\": \"{}\", \"verdicts\": [",
                jstr(cell.app),
                cell.config.label(),
                cell.kind.name()
            )
            .unwrap();
            for (j, (seed, verdict)) in cell.verdicts.iter().enumerate() {
                write!(
                    out,
                    "{}{{\"seed\": {seed}, \"verdict\": \"{}\", \"detail\": {}}}",
                    if j == 0 { "" } else { ", " },
                    verdict.label(),
                    jstr(&verdict_detail(verdict)),
                )
                .unwrap();
            }
            writeln!(out, "]}}{}", if i + 1 == self.cells.len() { "" } else { "," }).unwrap();
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Verdicts the campaign could not decide (fuel-starved or
    /// timed-out runs): not hard failures, but not clean either —
    /// they drive the distinct "unknown outcome" exit code.
    pub fn undecided(&self) -> usize {
        self.cells
            .iter()
            .flat_map(|c| &c.verdicts)
            .filter(|(_, v)| matches!(v, Verdict::Undecided { .. }))
            .count()
    }

    /// Everything that must fail CI: an OPEC cell that escaped or
    /// crashed, or a host crash in any configuration.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for cell in &self.cells {
            for (seed, verdict) in &cell.verdicts {
                let bad = match verdict {
                    Verdict::Escaped { .. } => cell.config == Config::Opec,
                    Verdict::Crashed { .. } => true,
                    _ => false,
                };
                if bad {
                    out.push(format!(
                        "{} / {} / {} / seed {}: {} ({})",
                        cell.app,
                        cell.config.label(),
                        cell.kind.name(),
                        seed,
                        verdict.label(),
                        verdict_detail(verdict),
                    ));
                }
            }
        }
        out
    }
}

/// The human-readable payload of a verdict.
fn verdict_detail(v: &Verdict) -> String {
    match v {
        Verdict::Contained { op, cause } => format!("operation {op}: {cause}"),
        Verdict::Escaped { evidence } => evidence.clone(),
        Verdict::Crashed { detail } => detail.clone(),
        Verdict::NotApplicable => String::new(),
        Verdict::Undecided { reason } => reason.clone(),
    }
}

/// Minimal JSON string escaping.
fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).unwrap();
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pinlock_matrix(seeds: u64) -> AttackMatrix {
        attack_matrix_for(&[opec_apps::programs::pinlock::app()], seeds)
    }

    #[test]
    fn pinlock_opec_contains_every_applicable_attack() {
        let m = pinlock_matrix(2);
        for cell in m.cells.iter().filter(|c| c.config == Config::Opec) {
            for (seed, v) in &cell.verdicts {
                assert!(
                    matches!(v, Verdict::Contained { .. } | Verdict::NotApplicable),
                    "OPEC {} seed {seed}: {v:?}",
                    cell.kind.name()
                );
            }
        }
        // The core attack classes actually fire (and are contained)
        // rather than silently scoring n/a. Stack smashing is not in
        // this list: PinLock never passes stack arguments across an
        // operation boundary, so there is no caller frame to smash
        // (the VM-level containment test lives in `opec-vm`).
        for kind in [
            AttackKind::DataWrite,
            AttackKind::PeriphRead,
            AttackKind::PeriphWrite,
            AttackKind::PpbWrite,
            AttackKind::MpuDisable,
            AttackKind::RelocWrite,
            AttackKind::SvcCorrupt,
        ] {
            let cell = m
                .cells
                .iter()
                .find(|c| c.config == Config::Opec && c.kind == kind)
                .expect("cell exists");
            assert!(
                cell.verdicts.iter().all(|(_, v)| matches!(v, Verdict::Contained { .. })),
                "{}: {:?}",
                kind.name(),
                cell.verdicts
            );
        }
        assert!(m.failures().is_empty(), "{:?}", m.failures());
    }

    #[test]
    fn pinlock_baseline_lets_data_and_peripheral_attacks_through() {
        let m = pinlock_matrix(2);
        for kind in [
            AttackKind::DataWrite,
            AttackKind::PeriphRead,
            AttackKind::PeriphWrite,
            AttackKind::PpbWrite,
            AttackKind::MpuDisable,
            AttackKind::StackSmash,
        ] {
            let cell = m
                .cells
                .iter()
                .find(|c| c.config == Config::Baseline && c.kind == kind)
                .expect("cell exists");
            assert!(
                cell.verdicts.iter().all(|(_, v)| matches!(v, Verdict::Escaped { .. })),
                "baseline {}: {:?}",
                kind.name(),
                cell.verdicts
            );
        }
    }

    fn test_opts(name: &str) -> CampaignOpts {
        let mut o = CampaignOpts::new(name, FUEL);
        // Debug-build runs are slow; fuel still bounds every cell, so
        // the watchdog would only add flakiness here. The hooks are
        // cleared so a stray environment cannot leak into the test.
        o.timeout_secs = None;
        o.kill_after = None;
        o.panic_inject = None;
        o.workers = 2;
        o.repro_dir =
            std::env::temp_dir().join("opec-eval-tests/repros").to_string_lossy().into_owned();
        o
    }

    #[test]
    fn panicking_job_is_retried_contained_and_scored_crashed() {
        let mut o = test_opts("attack-panic");
        o.panic_inject = Some("attack/app/PinLock".to_string());
        let (m, rep) =
            attack_matrix_with(&[opec_apps::programs::pinlock::app()], 1, &o, FleetBackend::Armv7m)
                .unwrap();
        // The injected fault panicked both attempts: one retry, then
        // classified deterministic — and the campaign itself survived.
        assert_eq!(rep.records.len(), 1);
        assert_eq!(rep.records[0].outcome, JobOutcome::Panicked);
        assert_eq!(rep.records[0].attempts, 2);
        assert_eq!(rep.retried, 1);
        assert_eq!(rep.unknown(), 1);
        // The matrix still renders a full grid, every run cell CRASHED.
        assert_eq!(m.cells.len(), AttackKind::ALL.len() * Config::ALL.len());
        for cell in m.cells.iter().filter(|c| c.config != Config::Aces) {
            assert!(
                cell.verdicts.iter().all(|(_, v)| matches!(v, Verdict::Crashed { .. })),
                "{}: {:?}",
                cell.kind.name(),
                cell.verdicts
            );
        }
        assert!(!m.failures().is_empty(), "host crashes must fail the matrix");
    }

    #[test]
    fn journalled_matrix_resumes_byte_identically() {
        let dir = std::env::temp_dir().join("opec-eval-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir
            .join(format!("attack-resume-{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let _ = std::fs::remove_file(&path);
        let mut o = test_opts("attack-resume");
        o.journal = Some(path.clone());
        let apps = [opec_apps::programs::pinlock::app()];
        let (fresh, first) = attack_matrix_with(&apps, 2, &o, FleetBackend::Armv7m).unwrap();
        assert_eq!(first.resumed, 0);
        let (resumed, second) = attack_matrix_with(&apps, 2, &o, FleetBackend::Armv7m).unwrap();
        assert_eq!(second.resumed, 1, "the journaled job must not re-run");
        assert_eq!(fresh.to_json(), resumed.to_json());
        assert_eq!(fresh.render(), resumed.render());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn matrix_is_deterministic_and_serialisable() {
        let a = pinlock_matrix(2);
        let b = pinlock_matrix(2);
        let flat = |m: &AttackMatrix| {
            m.cells
                .iter()
                .flat_map(|c| {
                    c.verdicts.iter().map(move |(s, v)| {
                        (c.app, c.config.label(), c.kind.name(), *s, format!("{v:?}"))
                    })
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(flat(&a), flat(&b));
        let json = a.to_json();
        assert!(json.contains("\"app\": \"PinLock\""), "{json}");
        assert!(json.contains("\"attack\": \"data-write\""), "{json}");
        assert!(!a.render().is_empty());
    }
}
