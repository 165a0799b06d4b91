//! One-call pipelines: plan → compile → image → VM with the shadow
//! oracle attached, for both enforcement stacks.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use opec_aces::{build_aces_image, AcesRuntime, AcesStrategy};
use opec_armv7m::Machine;
use opec_core::backend::{Armv7mBackend, Backend};
use opec_core::{compile, OpecMonitor, SystemPolicy};
use opec_ir::FuncId;
use opec_obs::{Obs, OpId};
use opec_vm::{Vm, VmError};

use crate::coverage::CoverageMap;
use crate::divergence::Divergence;
use crate::gen::FirmwareSpec;
use crate::matrix::AccessMatrix;
use crate::shadow::shadow;

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
/// stop are still meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunHalt {
    /// The guest exhausted [`RunBudget::fuel`].
    FuelExhausted,
    /// The wall-clock deadline passed.
    TimedOut,
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
    /// True when the run produced no divergence.
    pub fn clean(&self) -> bool {
        self.total_divergences == 0
    }
}

/// Splits a run's terminal error into (budget halt, guest error).
fn classify(err: Option<VmError>) -> (Option<RunHalt>, Option<String>) {
    match err {
        None => (None, None),
        Some(VmError::OutOfFuel) => (Some(RunHalt::FuelExhausted), None),
        Some(VmError::TimedOut) => (Some(RunHalt::TimedOut), None),
        Some(e) => (None, Some(format!("{e:?}"))),
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
    let board = spec.board();
    let module = spec.build_module();
    let specs = spec.op_specs();
    let out = compile(module, board, &specs).map_err(|e| format!("compile: {e:?}"))?;
    let matrix = AccessMatrix::opec(&out.image.module, &out.partition, &out.policy)
        .with_boundary_granularity(backend.boundary_granularity(out.policy.stack));
    let mut policy = out.policy.clone();
    if let Some(m) = mutate {
        m(&mut policy);
    }
    let mut machine = backend.make_machine(board);
    spec.install_devices(&mut machine);
    let cov = Rc::new(RefCell::new(CoverageMap::new()));
    let obs = Obs::single(cov.clone());
    let (watcher, handle) = shadow(matrix, obs.clone());
    let mut vm = Vm::builder(machine, out.image.clone())
        .supervisor(OpecMonitor::with_backend(policy, backend))
        .watcher(watcher)
        .obs(obs)
        .build()
        .map_err(|e| format!("image: {e:?}"))?;
    vm.set_deadline(budget.deadline);
    let (halt, run_error) = classify(vm.run(budget.fuel).err());
    let st = handle.take();
    let verdict = Verdict {
        divergences: st.divergences,
        total_divergences: st.total_divergences,
        checks: st.checks,
        probes: st.probes,
        switches: st.switches,
        exec: st.exec,
        run_error,
        halt,
    };
    let coverage = cov.borrow().clone();
    Ok((verdict, coverage))
}

/// Runs a generated firmware under the ACES stack (Filename strategy)
/// with the shadow oracle attached, under the default [`RunBudget`].
pub fn run_aces(spec: &FirmwareSpec) -> Result<Verdict, String> {
    run_aces_with(spec, &RunBudget::default())
}

/// [`run_aces`] under an explicit budget.
pub fn run_aces_with(spec: &FirmwareSpec, budget: &RunBudget) -> Result<Verdict, String> {
    let board = spec.board();
    let module = spec.build_module();
    let out = build_aces_image(module, board, AcesStrategy::Filename)
        .map_err(|e| format!("aces image: {e:?}"))?;
    let main_comp = out.comps.of(out.image.entry);
    let matrix = AccessMatrix::aces(
        &out.image.module,
        &out.comps,
        &out.regions,
        out.stack,
        board.flash.base,
        main_comp,
    );
    let runtime = AcesRuntime::new(
        &out.image.module,
        out.comps.clone(),
        out.regions.clone(),
        board,
        out.stack,
        main_comp,
    );
    let mut machine = Machine::new(board);
    spec.install_devices(&mut machine);
    let (watcher, handle) = shadow(matrix, Obs::disabled());
    let mut vm = Vm::builder(machine, out.image.clone())
        .supervisor(runtime)
        .watcher(watcher)
        .build()
        .map_err(|e| format!("image: {e:?}"))?;
    vm.set_deadline(budget.deadline);
    let (halt, run_error) = classify(vm.run(budget.fuel).err());
    let st = handle.take();
    Ok(Verdict {
        divergences: st.divergences,
        total_divergences: st.total_divergences,
        checks: st.checks,
        probes: st.probes,
        switches: st.switches,
        exec: st.exec,
        run_error,
        halt,
    })
}
