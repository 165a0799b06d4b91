//! One firmware under test, built under any isolation system.
//!
//! The paper's unit of evaluation (§6.2) is one firmware built three
//! ways — vanilla, OPEC and ACES — with each build run to its stop
//! condition on a freshly set-up board. [`Firmware`] names the firmware
//! (a paper [`App`] or a generated [`FirmwareSpec`]) and sets up its
//! machine; [`Firmware::baseline`], [`Firmware::opec`] and
//! [`Firmware::aces`] are the three builds. Each product derives what
//! its VM needs: [`OpecBuild::monitor`] and [`OpecBuild::matrix`] for a
//! given backend, [`AcesBuild::runtime`] and [`AcesBuild::matrix`] for
//! the compartments it was built with. A run of one build is a
//! [`RunRequest`](crate::RunRequest), which sets up the machine, the
//! supervisor and the oracle from these pieces.

use std::borrow::Cow;
use std::sync::Arc;

use opec_aces::image::AcesImageError;
use opec_aces::{build_aces_image, AcesCompileOutput, AcesRuntime, AcesStrategy};
use opec_apps::App;
use opec_armv7m::{Board, Machine};
use opec_core::backend::Backend;
use opec_core::{compile, CompileError, CompileOutput, OpecMonitor, OperationSpec};
use opec_ir::Module;
use opec_vm::{link_baseline, ImageError, LoadedImage, RunOutcome};

use crate::gen::FirmwareSpec;
use crate::matrix::AccessMatrix;

/// The isolation system a firmware is built for, in the attack
/// matrix's column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// OPEC: operations isolated by the privileged monitor.
    Opec,
    /// ACES compartments.
    Aces,
    /// The vanilla image, no isolation at all.
    Baseline,
}

impl System {
    /// Every system, in column order.
    pub const ALL: [System; 3] = [System::Opec, System::Aces, System::Baseline];

    /// Display and JSON label.
    pub fn label(self) -> &'static str {
        match self {
            System::Opec => "opec",
            System::Aces => "aces",
            System::Baseline => "baseline",
        }
    }
}

/// The firmware under test: a paper application or a generated plan.
/// Per-run callers borrow the plan; long-lived holders such as fleet
/// templates own it.
pub enum Firmware<'a> {
    /// A paper application: scripted devices and a workload check.
    App(App),
    /// A generated firmware: plain-storage peripheral windows, no
    /// workload check.
    Generated(Cow<'a, FirmwareSpec>),
}

impl From<&App> for Firmware<'_> {
    fn from(app: &App) -> Self {
        Firmware::App(*app)
    }
}

impl<'a> From<&'a FirmwareSpec> for Firmware<'a> {
    fn from(spec: &'a FirmwareSpec) -> Self {
        Firmware::Generated(Cow::Borrowed(spec))
    }
}

impl Firmware<'_> {
    /// Subject name in reports: the application's name, or `gen[seed]`.
    pub fn name(&self) -> String {
        match self {
            Firmware::App(app) => app.name.to_string(),
            Firmware::Generated(spec) => format!("gen[{}]", spec.seed),
        }
    }

    /// The board the firmware targets.
    fn board(&self) -> Board {
        match self {
            Firmware::App(app) => app.board,
            Firmware::Generated(spec) => spec.board(),
        }
    }

    /// A fresh IR module and its operation entry list.
    fn module(&self) -> (Module, Vec<OperationSpec>) {
        match self {
            Firmware::App(app) => (app.build)(),
            Firmware::Generated(spec) => (spec.build_module(), spec.op_specs()),
        }
    }

    /// A fresh machine with `backend`'s protection unit, the firmware's
    /// devices installed and its workload inputs scripted.
    pub fn machine(&self, backend: &dyn Backend) -> Machine {
        let mut machine = backend.make_machine(self.board());
        match self {
            Firmware::App(app) => (app.setup)(&mut machine),
            Firmware::Generated(spec) => spec.install_devices(&mut machine),
        }
        machine
    }

    /// Checks how a run that ended without a VM error went: an
    /// application must halt and pass its workload check; a generated
    /// firmware may end either way and has no check.
    pub fn check(&self, outcome: &RunOutcome, machine: &mut Machine) -> Result<(), String> {
        let Firmware::App(app) = self else { return Ok(()) };
        if !matches!(outcome, RunOutcome::Halted { .. }) {
            return Err(format!("did not halt: {outcome:?}"));
        }
        (app.check)(machine).map_err(|e| format!("workload check: {e}"))
    }

    /// The vanilla build: the module linked with no isolation.
    pub fn baseline(&self) -> Result<LoadedImage, ImageError> {
        link_baseline(self.module().0, self.board())
    }

    /// The OPEC build.
    pub fn opec(&self) -> Result<OpecBuild, CompileError> {
        let (module, specs) = self.module();
        compile(module, self.board(), &specs).map(|out| OpecBuild { out })
    }

    /// The ACES build under `strategy`.
    pub fn aces(&self, strategy: AcesStrategy) -> Result<AcesBuild, AcesImageError> {
        let board = self.board();
        build_aces_image(self.module().0, board, strategy).map(|out| AcesBuild { out, board })
    }
}

/// The OPEC build of a firmware. The compile is backend-independent;
/// the monitor and the matrix's boundary prediction are derived per
/// backend.
pub struct OpecBuild {
    /// Everything the compiler produced.
    pub out: CompileOutput,
}

impl OpecBuild {
    /// A monitor enforcing the compiled policy through `backend`.
    pub fn monitor(&self, backend: Arc<dyn Backend>) -> OpecMonitor {
        OpecMonitor::with_backend(self.out.policy.clone(), backend)
    }

    /// The ground-truth access matrix, with the stack-boundary
    /// granularity `backend` enforces.
    pub fn matrix(&self, backend: &dyn Backend) -> AccessMatrix {
        let out = &self.out;
        AccessMatrix::opec(&out.image.module, &out.partition, &out.policy)
            .with_boundary_granularity(backend.boundary_granularity(out.policy.stack))
    }
}

/// The ACES build of a firmware. ACES targets the ARMv7-M MPU only.
pub struct AcesBuild {
    /// Everything the ACES pipeline produced.
    pub out: AcesCompileOutput,
    board: Board,
}

impl AcesBuild {
    /// The ACES runtime (the compartment-switching supervisor).
    pub fn runtime(&self) -> AcesRuntime {
        self.out.runtime(self.board)
    }

    /// The ground-truth access matrix over the compartments.
    pub fn matrix(&self) -> AccessMatrix {
        let out = &self.out;
        AccessMatrix::aces(
            &out.image.module,
            &out.comps,
            &out.regions,
            out.stack,
            self.board.flash.base,
            out.main_comp(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use opec_core::Armv7mBackend;

    #[test]
    fn an_app_must_halt_and_pass_its_check_a_generated_plan_need_not() {
        let returned = RunOutcome::Returned { value: None, cycles: 1 };
        let halted = RunOutcome::Halted { cycles: 1 };
        let spec = generate(0);
        let gen = Firmware::from(&spec);
        let mut m = gen.machine(&Armv7mBackend);
        assert_eq!(gen.check(&returned, &mut m), Ok(()));

        let app = Firmware::from(&opec_apps::programs::pinlock::app());
        let mut m = app.machine(&Armv7mBackend);
        let err = app.check(&returned, &mut m).unwrap_err();
        assert!(err.starts_with("did not halt: Returned"), "{err}");
        // A machine that never ran has served none of the scripted input.
        let err = app.check(&halted, &mut m).unwrap_err();
        assert!(err.starts_with("workload check: "), "{err}");
    }
}
