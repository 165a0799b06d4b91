//! Build-and-execute orchestration for the evaluation.
//!
//! Every application is measured exactly like the paper measures it:
//! two individual binaries are produced — one vanilla, one armed with
//! the isolation system — each is run to its workload's stop condition
//! on a freshly scripted machine, and cycle counts come from the
//! simulated DWT (the machine clock).
//!
//! Runs are pure functions of `(app, configuration)`, so
//! [`evaluate_app`] fans the baseline/OPEC/ACES runs of one app across
//! scoped threads and [`evaluate_many`] fans whole apps, joining in
//! input order so output is deterministic regardless of scheduling.
//! The `*_sequential` variants preserve the seed's single-threaded
//! behaviour for benchmarking against. Shareable artifacts are held in
//! [`Arc`] so the memoized pipeline (`crate::cache`) can hand the same
//! run to every renderer.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::thread;

use opec_aces::{AcesStrategy, Compartments, DataRegions};
use opec_apps::App;
use opec_armv7m::Board;
use opec_core::{CompileOutput, MonitorStats};
use opec_oracle::{BuildOutput, Firmware, RunBudget, RunRecord, RunRequest, System};
use opec_vm::Trace;

/// Fuel for evaluation runs.
pub const FUEL: u64 = opec_vm::exec::DEFAULT_FUEL;

/// The budget of an evaluation run: [`FUEL`], no watchdog.
pub const EVAL_BUDGET: RunBudget = RunBudget { fuel: FUEL, deadline: None };

/// The three ACES strategies, in the paper's Table 2 order.
pub const ACES_STRATEGIES: [AcesStrategy; 3] =
    [AcesStrategy::Filename, AcesStrategy::FilenameNoOpt, AcesStrategy::Peripheral];

/// Joins a scoped thread, re-raising any panic from inside it.
fn join<T>(handle: thread::ScopedJoinHandle<'_, T>) -> T {
    handle.join().unwrap_or_else(|e| std::panic::resume_unwind(e))
}

/// Artifacts of the OPEC build + run of one application.
pub struct OpecRun {
    /// Cycles to the workload stop point.
    pub cycles: u64,
    /// Flash footprint of the OPEC image.
    pub flash_used: u32,
    /// SRAM footprint of the OPEC image.
    pub sram_used: u32,
    /// Everything the compiler produced (partition, policy, analyses).
    pub compile: CompileOutput,
    /// The function-level execution trace (for the ET metric).
    pub trace: Trace,
    /// Monitor counters.
    pub monitor: MonitorStats,
}

/// Artifacts of one ACES build + run.
pub struct AcesRun {
    /// Strategy used.
    pub strategy: AcesStrategy,
    /// Cycles to the stop point.
    pub cycles: u64,
    /// Flash footprint.
    pub flash_used: u32,
    /// SRAM footprint.
    pub sram_used: u32,
    /// The compartmentalisation.
    pub comps: Compartments,
    /// The (merged) data-region assignment.
    pub regions: DataRegions,
    /// Bytes of application code lifted to the privileged level.
    pub privileged_code_bytes: u32,
    /// Total application code bytes.
    pub total_code_bytes: u32,
}

/// Everything measured for one application. Cloning is cheap: the run
/// artifacts are behind [`Arc`] and shared, which is what lets the
/// memoized pipeline serve every renderer from one set of runs.
#[derive(Clone)]
pub struct AppEval {
    /// Application name.
    pub name: &'static str,
    /// Board (decides the Flash/SRAM denominators).
    pub board: Board,
    /// Baseline cycles.
    pub base_cycles: u64,
    /// Baseline Flash footprint.
    pub base_flash: u32,
    /// Baseline SRAM footprint.
    pub base_sram: u32,
    /// The OPEC build + run.
    pub opec: Arc<OpecRun>,
    /// ACES builds + runs (empty unless requested).
    pub aces: Vec<Arc<AcesRun>>,
}

/// Runs `request` within [`EVAL_BUDGET`] to its workload's stop point and
/// checks the outcome. `what` names the build in panic messages.
fn run_to_halt(request: RunRequest<'_>, name: &str, what: &str) -> RunRecord {
    let run = request.budget(EVAL_BUDGET).run();
    run.and_then(|rec| rec.verdict.finished().map(|()| rec))
        .unwrap_or_else(|e| panic!("{name} under {what}: {e}"))
}

/// Runs the vanilla baseline. Returns `(cycles, flash, sram)`.
pub(crate) fn run_baseline(app: &App) -> (u64, u32, u32) {
    let fw = Firmware::from(app);
    let rec = run_to_halt(RunRequest::new(&fw, System::Baseline), app.name, "the baseline");
    let BuildOutput::Baseline(flash, sram) = rec.build else { unreachable!("a baseline run") };
    (rec.cycles(), flash, sram)
}

/// Runs the OPEC build with tracing.
pub(crate) fn run_opec(app: &App) -> OpecRun {
    let fw = Firmware::from(app);
    let trace = Rc::new(RefCell::new(Trace::new()));
    let rec = run_to_halt(RunRequest::new(&fw, System::Opec).sink(trace.clone()), app.name, "OPEC");
    let cycles = rec.cycles();
    let (BuildOutput::Opec(compile), Some(monitor)) = (rec.build, rec.monitor) else {
        unreachable!("an OPEC run")
    };
    OpecRun {
        cycles,
        flash_used: compile.image.flash_used,
        sram_used: compile.image.sram_used,
        compile,
        trace: trace.take(),
        monitor,
    }
}

/// Runs one ACES build.
pub(crate) fn run_aces_strategy(app: &App, strategy: AcesStrategy) -> AcesRun {
    let fw = Firmware::from(app);
    let request = RunRequest::new(&fw, System::Aces).strategy(strategy);
    let rec = run_to_halt(request, app.name, strategy.label());
    let cycles = rec.cycles();
    let BuildOutput::Aces(out) = rec.build else { unreachable!("an ACES run") };
    AcesRun {
        strategy,
        cycles,
        flash_used: out.image.flash_used,
        sram_used: out.image.sram_used,
        privileged_code_bytes: out.comps.privileged_code_bytes(&out.image.module),
        total_code_bytes: out.image.module.total_code_size(),
        comps: out.comps,
        regions: out.regions,
    }
}

/// Evaluates one application; `with_aces` additionally builds and runs
/// the three ACES strategies (used for the five comparison apps).
///
/// The baseline, OPEC, and ACES runs are independent of each other
/// (each rebuilds its own module and machine), so they execute on
/// scoped threads; joins happen in a fixed order, so the result is
/// identical to the sequential variant.
pub fn evaluate_app(app: &App, with_aces: bool) -> AppEval {
    thread::scope(|s| {
        let base = s.spawn(|| run_baseline(app));
        let opec = s.spawn(|| run_opec(app));
        let aces_handles: Vec<_> = if with_aces {
            ACES_STRATEGIES.iter().map(|&st| s.spawn(move || run_aces_strategy(app, st))).collect()
        } else {
            Vec::new()
        };
        let (base_cycles, base_flash, base_sram) = join(base);
        let opec = Arc::new(join(opec));
        let aces = aces_handles.into_iter().map(|h| Arc::new(join(h))).collect();
        AppEval { name: app.name, board: app.board, base_cycles, base_flash, base_sram, opec, aces }
    })
}

/// Evaluates one application on the calling thread only (the seed's
/// behaviour).
pub fn evaluate_app_sequential(app: &App, with_aces: bool) -> AppEval {
    let (base_cycles, base_flash, base_sram) = run_baseline(app);
    let opec = Arc::new(run_opec(app));
    let aces = if with_aces {
        ACES_STRATEGIES.into_iter().map(|st| Arc::new(run_aces_strategy(app, st))).collect()
    } else {
        Vec::new()
    };
    AppEval { name: app.name, board: app.board, base_cycles, base_flash, base_sram, opec, aces }
}

/// Evaluates a list of applications, one scoped thread per app, results
/// in input order.
pub fn evaluate_many(apps: &[App], with_aces: bool) -> Vec<AppEval> {
    thread::scope(|s| {
        let handles: Vec<_> =
            apps.iter().map(|a| s.spawn(move || evaluate_app(a, with_aces))).collect();
        handles.into_iter().map(join).collect()
    })
}

impl AppEval {
    /// Runtime overhead of OPEC vs the baseline, in percent.
    pub fn runtime_overhead_pct(&self) -> f64 {
        (self.opec.cycles as f64 / self.base_cycles as f64 - 1.0) * 100.0
    }

    /// Flash overhead (increase over baseline / device flash), percent.
    pub fn flash_overhead_pct(&self) -> f64 {
        (self.opec.flash_used.saturating_sub(self.base_flash)) as f64 / self.board.flash.size as f64
            * 100.0
    }

    /// SRAM overhead (increase over baseline / device SRAM), percent.
    pub fn sram_overhead_pct(&self) -> f64 {
        (self.opec.sram_used.saturating_sub(self.base_sram)) as f64 / self.board.sram.size as f64
            * 100.0
    }
}

impl AcesRun {
    /// Runtime overhead ratio vs a baseline cycle count.
    pub fn runtime_ratio(&self, base_cycles: u64) -> f64 {
        self.cycles as f64 / base_cycles as f64
    }

    /// Flash overhead percent vs the baseline footprint on `board`.
    pub fn flash_overhead_pct(&self, base_flash: u32, board: Board) -> f64 {
        (self.flash_used.saturating_sub(base_flash)) as f64 / board.flash.size as f64 * 100.0
    }

    /// SRAM overhead percent.
    pub fn sram_overhead_pct(&self, base_sram: u32, board: Board) -> f64 {
        (self.sram_used.saturating_sub(base_sram)) as f64 / board.sram.size as f64 * 100.0
    }

    /// Privileged application code, percent of total application code.
    pub fn pac_pct(&self) -> f64 {
        self.privileged_code_bytes as f64 / self.total_code_bytes as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinlock_evaluates_under_all_systems() {
        let app = opec_apps::programs::pinlock::app();
        let eval = evaluate_app(&app, true);
        assert!(eval.base_cycles > 0);
        assert!(eval.opec.cycles > eval.base_cycles, "OPEC adds switch work");
        assert_eq!(eval.aces.len(), 3);
        for a in &eval.aces {
            assert!(a.cycles >= eval.base_cycles);
        }
        // Footprints: OPEC image is bigger than the baseline.
        assert!(eval.opec.flash_used > eval.base_flash);
        assert!(eval.opec.sram_used > eval.base_sram);
        // Overheads are positive and sane.
        assert!(eval.runtime_overhead_pct() > 0.0);
        assert!(eval.flash_overhead_pct() > 0.0);
        assert!(eval.sram_overhead_pct() > 0.0);
        assert!(eval.runtime_overhead_pct() < 400.0);
    }

    #[test]
    fn coremark_evaluates_without_aces() {
        let app = opec_apps::programs::coremark::app();
        let eval = evaluate_app(&app, false);
        assert!(eval.aces.is_empty());
        assert!(!eval.opec.trace.is_empty());
        assert!(eval.opec.monitor.switches >= 60);
    }
}
