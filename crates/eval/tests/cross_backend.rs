//! Cross-backend oracle agreement: the backend-independent access
//! matrix, checked in lockstep by the shadow watcher, must reach the
//! same verdict for every app on the ARMv7-M MPU and the RISC-V PMP.
//!
//! The matrix is derived from the partition and policy alone — neither
//! backend's region encoding enters it — so a divergence on exactly
//! one backend would mean that backend's plan (or its protection-unit
//! model) enforces something other than the policy. A divergence on
//! both would mean the compiler broke; either way this test pins the
//! §7 portability claim: same policy, same verdict, different
//! hardware.

use std::cell::RefCell;
use std::rc::Rc;

use opec_apps::programs::all_apps;
use opec_core::compile;
use opec_eval::check::{check_opec_app, BudgetHalt, CaseResult};
use opec_eval::engine::RunLimits;
use opec_fleet::FleetBackend;
use opec_obs::{Event, Obs, Sink, Stamped};

fn verdict(case: &CaseResult) -> Result<(), String> {
    if case.total > 0 {
        return Err(format!("{} divergences: {:?}", case.total, case.divergences));
    }
    if let Some(err) = &case.run_error {
        return Err(format!("run error: {err}"));
    }
    Ok(())
}

#[test]
fn access_matrix_verdicts_agree_on_both_backends() {
    let limits = RunLimits::unsupervised();
    for app in all_apps() {
        let mut verdicts = Vec::new();
        for sel in FleetBackend::ALL {
            let (case, crosschecks, halt) = check_opec_app(&app, &limits, sel);
            assert!(
                matches!(halt, BudgetHalt::Ran),
                "{} on {}: run did not finish within budget ({halt:?})",
                app.name,
                sel.name()
            );
            assert!(case.checks > 0, "{} on {}: oracle saw no checks", app.name, sel.name());
            for cc in &crosschecks {
                assert!(
                    cc.ok,
                    "{} on {}: cross-check {} failed: {}",
                    app.name,
                    sel.name(),
                    cc.name,
                    cc.detail
                );
            }
            verdicts.push((sel, verdict(&case)));
        }
        // Same verdict on every backend — and that verdict is clean.
        for (sel, v) in &verdicts {
            assert_eq!(
                v,
                &Ok(()),
                "{} on {}: oracle verdict diverged from the other backend's clean run",
                app.name,
                sel.name()
            );
        }
    }
}

/// Collects the register counts of every full protection-unit reload.
#[derive(Default)]
struct Loads(Vec<u32>);

impl Sink for Loads {
    fn record(&mut self, ev: Stamped) {
        match ev.ev {
            Event::MpuLoad { regions } => self.0.push(u32::from(regions)),
            Event::PmpLoad { entries } => self.0.push(u32::from(entries)),
            _ => {}
        }
    }
}

/// The monitor charges and counts `op_write_count(op)` protection
/// writes per switch *before* the plan programs the unit, and never
/// looks at what `apply_op` actually wrote. Pin that the two agree: for
/// every operation of every app on every backend, one `apply_op` emits
/// exactly one reload event, and its register count is the plan's.
#[test]
fn switch_reload_writes_exactly_the_counted_registers() {
    for app in all_apps() {
        let (module, specs) = (app.build)();
        let out = compile(module, app.board, &specs).unwrap();
        let policy = &out.policy;
        for sel in FleetBackend::ALL {
            let backend = sel.dyn_backend();
            let plan = backend.plan(policy);
            for op in 0..policy.ops.len() as u8 {
                let boundary = policy.stack.base + 7 * (policy.stack.size / 8);
                let loads = Rc::new(RefCell::new(Loads::default()));
                let mut machine = backend.make_machine(app.board);
                machine.protection_mut().attach_obs(Obs::single(loads.clone()));
                plan.apply_op(&mut machine, op, boundary).unwrap();
                assert_eq!(
                    loads.borrow().0,
                    vec![plan.op_write_count(op)],
                    "{} on {}: op {op} reload disagrees with the counted writes",
                    app.name,
                    sel.name()
                );
            }
        }
    }
}
