//! Shared helpers for the table/figure benchmark harness.
//!
//! Each Criterion bench in `benches/` regenerates one table or figure
//! of the paper (printing the rows/series) and then measures the code
//! paths behind it. `cargo bench` therefore both re-derives every
//! evaluation artifact and times the toolchain that produces it.

#![warn(missing_docs)]

use std::sync::Arc;

use opec_apps::App;
use opec_core::{Armv7mBackend, CompileOutput};
use opec_oracle::Firmware;
use opec_vm::{RunOutcome, Vm};

/// Fuel for benchmark runs.
pub const FUEL: u64 = opec_vm::exec::DEFAULT_FUEL;

/// Compiles an app with OPEC (panicking on failure).
pub fn compile_app(app: &App) -> CompileOutput {
    Firmware::from(app).opec().unwrap_or_else(|e| panic!("{} compile: {e}", app.name)).out
}

/// One full baseline run; returns cycles.
pub fn run_baseline_once(app: &App) -> u64 {
    let fw = Firmware::from(app);
    let image = fw.baseline().expect("link");
    let mut vm = Vm::builder(fw.machine(&Armv7mBackend), image).build().expect("vm");
    match vm.run(FUEL).expect("baseline run") {
        RunOutcome::Halted { cycles } | RunOutcome::Returned { cycles, .. } => cycles,
    }
}

/// One full OPEC run; returns cycles.
pub fn run_opec_once(app: &App) -> u64 {
    let fw = Firmware::from(app);
    let build = fw.opec().unwrap_or_else(|e| panic!("{} compile: {e}", app.name));
    let monitor = build.monitor(Arc::new(Armv7mBackend));
    let mut vm = Vm::builder(fw.machine(&Armv7mBackend), build.out.image)
        .supervisor(monitor)
        .build()
        .expect("vm");
    match vm.run(FUEL).expect("OPEC run") {
        RunOutcome::Halted { cycles } | RunOutcome::Returned { cycles, .. } => cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_run_pinlock() {
        let app = opec_apps::programs::pinlock::app();
        assert!(run_baseline_once(&app) > 0);
        assert!(run_opec_once(&app) > 0);
    }
}
