//! The seven evaluation applications.
//!
//! Each module exports an [`App`]: how to build the IR program and its
//! operation entry list, how to set up and script the devices, and how
//! to verify the run did what the paper's workload description says
//! (100 unlocks/locks, 11 pictures, file round-trip, 5 echoed packets,
//! a saved photo, a validated benchmark run).

use opec_armv7m::{Board, Machine};
use opec_core::OperationSpec;
use opec_ir::Module;

pub mod animation;
pub mod camera;
pub mod coremark;
pub mod fatfs_usd;
pub mod lcd_usd;
pub mod pinlock;
pub mod tcp_echo;

/// One buildable, runnable, checkable workload. `Copy`: a name, a
/// board and three function pointers.
#[derive(Clone, Copy)]
pub struct App {
    /// Application name as in the paper's tables.
    pub name: &'static str,
    /// The board it runs on.
    pub board: Board,
    /// Builds the IR module and the operation entry list.
    pub build: fn() -> (Module, Vec<OperationSpec>),
    /// Installs devices and scripts the workload inputs.
    pub setup: fn(&mut Machine),
    /// Verifies the externally visible outcome after a run.
    pub check: fn(&mut Machine) -> Result<(), String>,
}

/// All seven applications, in the paper's table order.
pub fn all_apps() -> Vec<App> {
    vec![
        pinlock::app(),
        animation::app(),
        fatfs_usd::app(),
        lcd_usd::app(),
        tcp_echo::app(),
        camera::app(),
        coremark::app(),
    ]
}

/// The five applications the ACES comparison uses (Table 2, Figures
/// 10–11).
pub fn aces_comparison_apps() -> Vec<App> {
    vec![pinlock::app(), animation::app(), fatfs_usd::app(), lcd_usd::app(), tcp_echo::app()]
}

#[cfg(test)]
pub(crate) mod harness {
    //! Shared test harness: run an app on the baseline and under OPEC
    //! and check the workload outcome both ways.

    use super::*;
    use opec_core::{compile, OpecMonitor};
    use opec_vm::{link_baseline, RunOutcome, Vm};

    /// Generous fuel for full workload runs.
    pub const FUEL: u64 = opec_vm::exec::DEFAULT_FUEL;

    /// Runs `app` on the vanilla baseline and checks the outcome.
    pub fn run_baseline(app: &App) -> u64 {
        let (module, _) = (app.build)();
        let image = link_baseline(module, app.board).unwrap();
        let mut machine = Machine::new(app.board);
        (app.setup)(&mut machine);
        let mut vm = Vm::builder(machine, image).build().unwrap();
        let out = vm.run(FUEL).unwrap_or_else(|e| panic!("{} baseline: {e}", app.name));
        assert!(matches!(out, RunOutcome::Halted { .. }), "{} must halt", app.name);
        (app.check)(&mut vm.machine).unwrap_or_else(|e| panic!("{} baseline check: {e}", app.name));
        out.cycles()
    }

    /// Runs `app` under OPEC and checks the outcome.
    pub fn run_opec(app: &App) -> (u64, opec_core::MonitorStats) {
        let (module, specs) = (app.build)();
        let out = compile(module, app.board, &specs)
            .unwrap_or_else(|e| panic!("{} compile: {e}", app.name));
        let mut machine = Machine::new(app.board);
        (app.setup)(&mut machine);
        let mut vm = Vm::builder(machine, out.image)
            .supervisor(OpecMonitor::new(out.policy))
            .build()
            .unwrap();
        let run = vm.run(FUEL).unwrap_or_else(|e| panic!("{} under OPEC: {e}", app.name));
        assert!(matches!(run, RunOutcome::Halted { .. }), "{} must halt", app.name);
        (app.check)(&mut vm.machine).unwrap_or_else(|e| panic!("{} OPEC check: {e}", app.name));
        (run.cycles(), vm.supervisor.stats)
    }
}
