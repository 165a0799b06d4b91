//! One run: a firmware built under one isolation system and run to its
//! stop condition on a fresh board. A [`RunRequest`] names what the run
//! depends on; [`RunRequest::run`] builds, runs within the
//! [`RunBudget`], applies [`Firmware::check`] and folds in the oracle,
//! returning one [`RunRecord`] from which each caller takes its part.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use opec_aces::{AcesCompileOutput, AcesStrategy};
use opec_armv7m::Machine;
use opec_core::backend::{Armv7mBackend, Backend};
use opec_core::{CompileOutput, MonitorStats, SystemPolicy};
use opec_ir::FuncId;
use opec_obs::{Obs, OpId, Sink, SinkHandle};
use opec_vm::{
    ExecMode, LoadedImage, NullSupervisor, RunOutcome, Supervisor, Vm, VmError, VmStats,
};

use crate::divergence::Divergence;
use crate::firmware::{Firmware, System};
use crate::gen::FirmwareSpec;
use crate::matrix::AccessMatrix;
use crate::shadow::{shadow, OracleState};

/// Fuel for generated firmwares — they are tiny; this is generous.
pub const GEN_FUEL: u64 = 5_000_000;

/// Resource bounds for one oracle run: the deterministic guest fuel
/// budget plus an optional host wall-clock deadline. The default is
/// [`GEN_FUEL`] with no deadline — the historical behaviour.
#[derive(Debug, Clone, Copy)]
pub struct RunBudget {
    /// Guest instruction budget.
    pub fuel: u64,
    /// Host wall-clock deadline, armed via `Vm::set_deadline`.
    pub deadline: Option<Instant>,
}

impl Default for RunBudget {
    fn default() -> RunBudget {
        RunBudget { fuel: GEN_FUEL, deadline: None }
    }
}

impl RunBudget {
    /// This budget with its fuel capped at a call site's own default,
    /// so a smaller campaign-wide `--fuel` still bounds every run.
    pub fn capped(self, site_fuel: u64) -> RunBudget {
        RunBudget { fuel: self.fuel.min(site_fuel), ..self }
    }
}

/// Why a bounded run stopped early. Distinct from
/// [`Verdict::run_error`]: hitting a budget is expected supervision,
/// not a guest failure, and the divergence counts collected up to the
/// stop are still meaningful. Ordered by severity, so the worst of
/// several runs' `Option<RunHalt>` is their `max`: a finished run
/// (`None`) before fuel exhaustion before a watchdog stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RunHalt {
    /// The guest exhausted [`RunBudget::fuel`]; deterministic.
    FuelExhausted,
    /// The wall-clock deadline passed; may be transient host load.
    TimedOut,
}

/// Renders as the VM error it stands for (`fuel exhausted`, ...).
impl fmt::Display for RunHalt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunHalt::FuelExhausted => VmError::OutOfFuel.fmt(f),
            RunHalt::TimedOut => VmError::TimedOut.fmt(f),
        }
    }
}

/// Classifies how a run of `fw` ended into its budget stop and its
/// error. A budget stop is a [`RunHalt`], not an error; any other VM
/// error is rendered with `Debug`; a run that ended cleanly is held to
/// `fw`'s workload check ([`Firmware::check`]).
fn run_end<S: Supervisor>(
    fw: &Firmware<'_>,
    vm: &mut Vm<S>,
    result: Result<RunOutcome, VmError>,
) -> (Option<RunHalt>, Option<String>) {
    match result {
        Ok(outcome) => (None, fw.check(&outcome, &mut vm.machine).err()),
        Err(VmError::OutOfFuel) => (Some(RunHalt::FuelExhausted), None),
        Err(VmError::TimedOut) => (Some(RunHalt::TimedOut), None),
        Err(e) => (None, Some(format!("{e:?}"))),
    }
}

/// The oracle's verdict over one run.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Divergences (capped), in observation order.
    pub divergences: Vec<Divergence>,
    /// Total divergences (uncapped count).
    pub total_divergences: u64,
    /// Lockstep access checks performed.
    pub checks: u64,
    /// MPU probes performed.
    pub probes: u64,
    /// Accepted switches observed.
    pub switches: u64,
    /// Functions entered per operation (trace-mirroring attribution).
    pub exec: BTreeMap<OpId, BTreeSet<FuncId>>,
    /// The VM's terminal error, if the run did not end cleanly.
    pub run_error: Option<String>,
    /// Set when the run was stopped by its budget rather than by the
    /// guest; `run_error` stays `None` in that case.
    pub halt: Option<RunHalt>,
}

impl Verdict {
    /// Folds the shadow oracle's state and how the run ended (its
    /// budget stop and its error) into a verdict.
    pub fn new(st: OracleState, halt: Option<RunHalt>, run_error: Option<String>) -> Verdict {
        Verdict {
            divergences: st.divergences,
            total_divergences: st.total_divergences,
            checks: st.checks,
            probes: st.probes,
            switches: st.switches,
            exec: st.exec,
            run_error,
            halt,
        }
    }

    /// True when the run produced no divergence.
    pub fn clean(&self) -> bool {
        self.total_divergences == 0
    }

    /// `Ok` when the run ended within its budget, without a VM error
    /// and (for an application) passing its workload check; otherwise
    /// the budget stop or the error.
    pub fn finished(&self) -> Result<(), String> {
        match (self.halt, &self.run_error) {
            (Some(halt), _) => Err(halt.to_string()),
            (None, Some(e)) => Err(e.clone()),
            (None, None) => Ok(()),
        }
    }
}

/// One run of a firmware: what to build, where and how to run it, and
/// what to attach. Start from [`RunRequest::new`] and set what differs.
pub struct RunRequest<'a> {
    fw: &'a Firmware<'a>,
    system: System,
    strategy: AcesStrategy,
    backend: Arc<dyn Backend>,
    budget: RunBudget,
    tamper: Option<&'a dyn Fn(&mut SystemPolicy)>,
    oracle: bool,
    sinks: Vec<SinkHandle>,
    mode: ExecMode,
}

impl<'a> RunRequest<'a> {
    /// A request to build `fw` under `system` (ACES with the filename
    /// strategy) and run it on the ARMv7-M MPU within the default
    /// [`RunBudget`], decoded, with no oracle, sink or tamper.
    pub fn new(fw: &'a Firmware<'a>, system: System) -> RunRequest<'a> {
        RunRequest {
            fw,
            system,
            strategy: AcesStrategy::Filename,
            backend: Arc::new(Armv7mBackend),
            budget: RunBudget::default(),
            tamper: None,
            oracle: false,
            sinks: Vec::new(),
            mode: ExecMode::Decoded,
        }
    }

    /// Runs on `backend` (the access matrix stays backend-independent).
    pub fn on(mut self, backend: Arc<dyn Backend>) -> RunRequest<'a> {
        self.backend = backend;
        self
    }

    /// Builds ACES under `strategy` (Table 2 runs all three).
    pub fn strategy(mut self, strategy: AcesStrategy) -> RunRequest<'a> {
        self.strategy = strategy;
        self
    }

    /// Runs within `budget`.
    pub fn budget(mut self, budget: RunBudget) -> RunRequest<'a> {
        self.budget = budget;
        self
    }

    /// Tampers with the enforced policy after the matrix is derived
    /// (OPEC only: the other systems have no policy to tamper with).
    pub fn tamper(mut self, tamper: Option<&'a dyn Fn(&mut SystemPolicy)>) -> RunRequest<'a> {
        self.tamper = tamper;
        self
    }

    /// Attaches the shadow oracle and records its matrix (OPEC and
    /// ACES: the baseline has no isolation to check).
    pub fn oracle(mut self) -> RunRequest<'a> {
        self.oracle = true;
        self
    }

    /// Adds an observability sink for the VM's and the oracle's events.
    pub fn sink<S: Sink + 'static>(mut self, sink: Rc<RefCell<S>>) -> RunRequest<'a> {
        self.sinks.push(sink);
        self
    }

    /// Selects the dispatch path (the lockstep sweep runs both).
    pub fn mode(mut self, mode: ExecMode) -> RunRequest<'a> {
        self.mode = mode;
        self
    }

    /// Builds, runs and records. `Err` means nothing ran: the build or
    /// the image load failed, or ACES was asked for off ARMv7-M.
    pub fn run(self) -> Result<RunRecord, String> {
        let RunRequest { fw, system, strategy, backend, budget, tamper, oracle, sinks, mode } =
            self;
        if system == System::Aces && backend.name() != Armv7mBackend.name() {
            return Err(format!("ACES targets the ARMv7-M MPU, not {}", backend.name()));
        }
        let obs = if sinks.is_empty() { Obs::disabled() } else { Obs::new(sinks) };
        let drive = Drive { fw, machine: fw.machine(&*backend), budget, mode, obs };
        match system {
            System::Opec => {
                let mut build = fw.opec().map_err(|e| format!("compile: {e:?}"))?;
                let matrix = oracle.then(|| build.matrix(&*backend));
                if let Some(tamper) = tamper {
                    tamper(&mut build.out.policy);
                }
                let monitor = build.monitor(backend);
                let mut out = build.out;
                let (ran, monitor, image) = drive.run(out.image, monitor, matrix)?;
                out.image = image;
                Ok(ran.record(Some(monitor.stats), BuildOutput::Opec(out)))
            }
            System::Aces => {
                let build = fw.aces(strategy).map_err(|e| format!("aces image: {e:?}"))?;
                let (matrix, runtime) = (oracle.then(|| build.matrix()), build.runtime());
                let mut out = build.out;
                let (ran, _, image) = drive.run(out.image, runtime, matrix)?;
                out.image = image;
                Ok(ran.record(None, BuildOutput::Aces(out)))
            }
            System::Baseline => {
                let image = fw.baseline().map_err(|e| format!("link: {e:?}"))?;
                let footprint = BuildOutput::Baseline(image.flash_used, image.sram_used);
                Ok(drive.run(image, NullSupervisor, None)?.0.record(None, footprint))
            }
        }
    }
}

/// What a [`RunRequest`] built.
pub enum BuildOutput {
    /// Everything the OPEC compiler produced.
    Opec(CompileOutput),
    /// Everything the ACES pipeline produced.
    Aces(AcesCompileOutput),
    /// The vanilla image's `(flash, sram)` footprint in bytes.
    Baseline(u32, u32),
}

/// How one [`RunRequest`] went.
pub struct RunRecord {
    /// How the run ended (budget stop, error or failed workload check)
    /// and, with the oracle attached, the oracle's counts.
    pub verdict: Verdict,
    /// The outcome of a run that ended without a VM error.
    pub outcome: Option<RunOutcome>,
    /// The VM's execution counters.
    pub stats: VmStats,
    /// The OPEC monitor's counters; `None` for the other systems.
    pub monitor: Option<MonitorStats>,
    /// What was built.
    pub build: BuildOutput,
    /// The access matrix the oracle checked against, when it ran.
    pub matrix: Option<AccessMatrix>,
}

impl RunRecord {
    /// Cycles to the stop point; 0 when the run ended in a VM error.
    pub fn cycles(&self) -> u64 {
        self.outcome.as_ref().map_or(0, RunOutcome::cycles)
    }
}

/// A request's run settings and its fresh machine.
struct Drive<'a> {
    fw: &'a Firmware<'a>,
    machine: Machine,
    budget: RunBudget,
    mode: ExecMode,
    obs: Obs,
}

/// What [`Drive::run`] saw, before the build output is attached.
struct Ran {
    verdict: Verdict,
    outcome: Option<RunOutcome>,
    stats: VmStats,
    matrix: Option<Rc<AccessMatrix>>,
}

impl Drive<'_> {
    /// Runs `image` under `supervisor`, with the oracle given a matrix;
    /// hands the image back so the record carries it without a copy.
    fn run<S: Supervisor>(
        self,
        image: LoadedImage,
        supervisor: S,
        matrix: Option<AccessMatrix>,
    ) -> Result<(Ran, S, LoadedImage), String> {
        let vm = Vm::builder(self.machine, image).supervisor(supervisor).exec_mode(self.mode);
        let matrix = matrix.map(Rc::new);
        let (vm, handle) = match &matrix {
            Some(m) => {
                let (watcher, handle) = shadow(Rc::clone(m), self.obs.clone());
                (vm.watcher(watcher), Some(handle))
            }
            None => (vm, None),
        };
        let mut vm = vm.obs(self.obs).build().map_err(|e| format!("image: {e:?}"))?;
        vm.set_deadline(self.budget.deadline);
        let result = vm.run(self.budget.fuel);
        let outcome = result.as_ref().ok().cloned();
        let (halt, run_error) = run_end(self.fw, &mut vm, result);
        let state = handle.map_or_else(OracleState::default, |h| h.take());
        let verdict = Verdict::new(state, halt, run_error);
        let ran = Ran { verdict, outcome, stats: vm.stats, matrix };
        Ok((ran, vm.supervisor, Arc::unwrap_or_clone(vm.image)))
    }
}

impl Ran {
    /// The record; the oracle's share of the matrix went with the VM.
    fn record(self, monitor: Option<MonitorStats>, build: BuildOutput) -> RunRecord {
        let Ran { verdict, outcome, stats, matrix } = self;
        let matrix = matrix.map(Rc::unwrap_or_clone);
        RunRecord { verdict, outcome, stats, monitor, build, matrix }
    }
}

/// The oracle's verdict on a generated plan under OPEC on `backend`.
pub fn run_opec_on(
    spec: &FirmwareSpec,
    mutate: Option<&dyn Fn(&mut SystemPolicy)>,
    budget: &RunBudget,
    backend: Arc<dyn Backend>,
) -> Result<Verdict, String> {
    let fw = Firmware::from(spec);
    let request = RunRequest::new(&fw, System::Opec).on(backend).budget(*budget);
    request.tamper(mutate).oracle().run().map(|r| r.verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn run_end_reports_budget_stops_as_halts_not_errors() {
        let spec = generate(0);
        let fw = Firmware::from(&spec);
        let build = fw.opec().expect("compile");
        let mut vm = Vm::builder(fw.machine(&Armv7mBackend), build.out.image.clone())
            .supervisor(build.monitor(Arc::new(Armv7mBackend)))
            .build()
            .expect("vm");
        let mut halt = |err| run_end(&fw, &mut vm, Err(err));
        assert_eq!(halt(VmError::OutOfFuel), (Some(RunHalt::FuelExhausted), None));
        assert_eq!(halt(VmError::TimedOut), (Some(RunHalt::TimedOut), None));
        let result = vm.run(crate::GEN_FUEL);
        assert_eq!(run_end(&fw, &mut vm, result), (None, None));
        // The worst halt of several runs is their maximum, and a halt
        // renders as the VM error it stands for.
        assert!(None < Some(RunHalt::FuelExhausted));
        assert!(RunHalt::FuelExhausted < RunHalt::TimedOut);
        assert_eq!(RunHalt::FuelExhausted.to_string(), VmError::OutOfFuel.to_string());
        assert_eq!(RunHalt::TimedOut.to_string(), VmError::TimedOut.to_string());
    }
}
