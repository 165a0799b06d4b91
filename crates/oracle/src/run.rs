//! One-call pipelines: plan → compile → image → VM with the shadow
//! oracle attached, for both enforcement stacks.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use opec_aces::AcesStrategy;
use opec_core::backend::{Armv7mBackend, Backend};
use opec_core::SystemPolicy;
use opec_ir::FuncId;
use opec_obs::{Obs, OpId};
use opec_vm::{RunOutcome, Supervisor, Vm, VmError};

use crate::coverage::CoverageMap;
use crate::divergence::Divergence;
use crate::firmware::Firmware;
use crate::gen::FirmwareSpec;
use crate::shadow::{shadow, OracleHandle, OracleState};

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

impl RunHalt {
    /// The budget stop `err` reports, or `None` for a guest error.
    pub fn of(err: &VmError) -> Option<RunHalt> {
        match err {
            VmError::OutOfFuel => Some(RunHalt::FuelExhausted),
            VmError::TimedOut => Some(RunHalt::TimedOut),
            _ => None,
        }
    }
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
pub fn run_end<S: Supervisor>(
    fw: &Firmware<'_>,
    vm: &mut Vm<S>,
    result: Result<RunOutcome, VmError>,
) -> (Option<RunHalt>, Option<String>) {
    match result {
        Ok(outcome) => (None, fw.check(&outcome, &mut vm.machine).err()),
        Err(e) => match RunHalt::of(&e) {
            Some(halt) => (Some(halt), None),
            None => (None, Some(format!("{e:?}"))),
        },
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
    /// Folds the shadow oracle's state and how the run ended (see
    /// [`run_end`]) into a verdict.
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
}

/// Runs a generated firmware under the full OPEC stack with the shadow
/// oracle attached, under the default [`RunBudget`]. `mutate` tampers
/// with the *enforced* policy after the ground-truth matrix is derived
/// — the hook the broken-MPU self-tests use to prove the oracle
/// catches enforcement bugs.
pub fn run_opec(
    spec: &FirmwareSpec,
    mutate: Option<&dyn Fn(&mut SystemPolicy)>,
) -> Result<Verdict, String> {
    run_opec_with(spec, mutate, &RunBudget::default())
}

/// [`run_opec`] under an explicit budget, on the paper's ARMv7-M MPU
/// backend.
pub fn run_opec_with(
    spec: &FirmwareSpec,
    mutate: Option<&dyn Fn(&mut SystemPolicy)>,
    budget: &RunBudget,
) -> Result<Verdict, String> {
    run_opec_on(spec, mutate, budget, Arc::new(Armv7mBackend))
}

/// [`run_opec`] on an explicit protection backend: the machine, its
/// protection unit, the monitor's region plan and the oracle's
/// boundary prediction all come from `backend`, while the access
/// matrix itself stays backend-independent — which is what makes a
/// cross-backend lockstep comparison meaningful.
pub fn run_opec_on(
    spec: &FirmwareSpec,
    mutate: Option<&dyn Fn(&mut SystemPolicy)>,
    budget: &RunBudget,
    backend: Arc<dyn Backend>,
) -> Result<Verdict, String> {
    run_opec_cov(spec, mutate, budget, backend).map(|(v, _)| v)
}

/// [`run_opec_on`] with coverage extraction: a [`CoverageMap`] sink
/// rides both the VM's event stream (switch edges, virtualization
/// hits/evictions/misses, traps) and the shadow oracle's (probe cells,
/// divergence classes), and the folded map is returned alongside the
/// verdict. The map is a pure feature set, so it is deterministic for
/// a given `(spec, mutate, backend)` regardless of budgets generous
/// enough to finish the run.
pub fn run_opec_cov(
    spec: &FirmwareSpec,
    mutate: Option<&dyn Fn(&mut SystemPolicy)>,
    budget: &RunBudget,
    backend: Arc<dyn Backend>,
) -> Result<(Verdict, CoverageMap), String> {
    let fw = Firmware::from(spec);
    let mut build = fw.opec().map_err(|e| format!("compile: {e:?}"))?;
    let matrix = build.matrix(&*backend);
    if let Some(m) = mutate {
        m(&mut build.out.policy);
    }
    let cov = Rc::new(RefCell::new(CoverageMap::new()));
    let obs = Obs::single(cov.clone());
    let (watcher, handle) = shadow(matrix, obs.clone());
    let machine = fw.machine(&*backend);
    let monitor = build.monitor(backend);
    let vm = Vm::builder(machine, build.out.image)
        .supervisor(monitor)
        .watcher(watcher)
        .obs(obs)
        .build()
        .map_err(|e| format!("image: {e:?}"))?;
    let verdict = judge(&fw, vm, &handle, budget);
    let coverage = cov.borrow().clone();
    Ok((verdict, coverage))
}

/// Runs a generated firmware under the ACES stack (Filename strategy)
/// with the shadow oracle attached, under the default [`RunBudget`].
pub fn run_aces(spec: &FirmwareSpec) -> Result<Verdict, String> {
    run_aces_with(&spec.into(), &RunBudget::default())
}

/// [`run_aces`] for any firmware, under an explicit budget. A paper
/// application is also held to its workload check.
pub fn run_aces_with(fw: &Firmware<'_>, budget: &RunBudget) -> Result<Verdict, String> {
    let build = fw.aces(AcesStrategy::Filename).map_err(|e| format!("aces image: {e:?}"))?;
    let (watcher, handle) = shadow(build.matrix(), Obs::disabled());
    let runtime = build.runtime();
    let vm = Vm::builder(fw.machine(&Armv7mBackend), build.out.image)
        .supervisor(runtime)
        .watcher(watcher)
        .build()
        .map_err(|e| format!("image: {e:?}"))?;
    Ok(judge(fw, vm, &handle, budget))
}

/// Runs `vm` within `budget` and folds the shadow oracle's state into
/// the verdict.
fn judge<S: Supervisor>(
    fw: &Firmware<'_>,
    mut vm: Vm<S>,
    handle: &OracleHandle,
    budget: &RunBudget,
) -> Verdict {
    vm.set_deadline(budget.deadline);
    let result = vm.run(budget.fuel);
    let (halt, run_error) = run_end(fw, &mut vm, result);
    Verdict::new(handle.take(), halt, run_error)
}
