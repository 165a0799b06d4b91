//! The `report` subcommand: per-operation overhead breakdown from the
//! observability stream.
//!
//! Every application runs under OPEC on *both* protection backends
//! (ARMv7-M MPU and RISC-V PMP; `--backend` narrows to one) — and the
//! five comparison applications additionally under ACES — with an
//! [`opec_obs::Recorder`] attached, so switch counts, switch-latency
//! histograms, protection-unit virtualization traffic, core-peripheral
//! emulations, and instruction attribution all come out of the *same*
//! event stream for every system and backend. That is the
//! overhead-breakdown complement to Figure 9 / Table 2: those report
//! end-to-end cycle ratios, this reports where the cycles went,
//! operation by operation — and, per backend, what one operation
//! switch costs.
//!
//! Collection fans cells across scoped threads exactly like
//! [`crate::runs`]; the `Rc`-based [`Obs`] handle never crosses a
//! thread (each cell builds, runs, and drains its recorder locally and
//! sends plain data back).

use std::cell::RefCell;
use std::rc::Rc;
use std::thread;

use opec_aces::{build_aces_image, AcesRuntime, AcesStrategy};
use opec_apps::programs::{aces_comparison_apps, all_apps};
use opec_apps::App;
use opec_armv7m::Machine;
use opec_core::{compile, OpecMonitor};
use opec_fleet::FleetBackend;
use opec_obs::{chrome_trace, metrics_json, Metrics, Obs, Recorder, Stamped};
use opec_vm::{RunOutcome, Vm};

use crate::cli::CliArgs;
use crate::runs::FUEL;
use crate::table::TextTable;

/// The ACES strategy the obs report instruments (the paper's default
/// filename-based compartmentalisation, as in the attack matrix).
const OBS_ACES_STRATEGY: AcesStrategy = AcesStrategy::Filename;

/// One instrumented run: the drained recorder plus run outcome.
pub struct ObsRun {
    /// Application name.
    pub app: &'static str,
    /// `"opec"` or `"aces"`.
    pub system: &'static str,
    /// Protection backend the run executed on (`"armv7m"` or
    /// `"rv32-pmp"`; ACES only exists on `"armv7m"`).
    pub backend: &'static str,
    /// Cycles to the workload stop point.
    pub cycles: u64,
    /// The raw event stream (ring contents, oldest first).
    pub events: Vec<Stamped>,
    /// Online aggregates over the *full* stream (drops never affect
    /// these; only the ring sheds).
    pub metrics: Metrics,
    /// Events offered to the ring.
    pub events_total: u64,
    /// Events the ring shed. Nonzero means the raw stream (and the
    /// Chrome trace cut from it) is incomplete; grow `--ring`.
    pub dropped: u64,
}

/// Everything the `report` subcommand collected.
pub struct ObsReport {
    /// Successful runs, apps in table order, OPEC before ACES.
    pub runs: Vec<ObsRun>,
    /// Cells that did not run: `(cell label, reason)`.
    pub skipped: Vec<(String, String)>,
}

impl ObsReport {
    /// Total events shed across all runs.
    pub fn total_dropped(&self) -> u64 {
        self.runs.iter().map(|r| r.dropped).sum()
    }
}

fn recorder(args: &CliArgs) -> Rc<RefCell<Recorder>> {
    let rec = match args.ring {
        Some(cap) => Recorder::with_capacity(cap),
        None => Recorder::new(),
    };
    Rc::new(RefCell::new(if args.funcs { rec.with_funcs() } else { rec }))
}

fn drain(
    app: &App,
    system: &'static str,
    backend: &'static str,
    cycles: u64,
    rec: &Rc<RefCell<Recorder>>,
) -> ObsRun {
    let rec = rec.borrow();
    ObsRun {
        app: app.name,
        system,
        backend,
        cycles,
        events: rec.ring.to_vec(),
        metrics: rec.metrics.clone(),
        events_total: rec.ring.total(),
        dropped: rec.ring.dropped(),
    }
}

fn run_opec_obs(app: &App, args: &CliArgs, sel: FleetBackend) -> Result<ObsRun, String> {
    let (module, specs) = (app.build)();
    let out = compile(module, app.board, &specs).map_err(|e| format!("compile: {e}"))?;
    let backend = sel.dyn_backend();
    let mut machine = backend.make_machine(app.board);
    (app.setup)(&mut machine);
    let rec = recorder(args);
    let mut vm = Vm::builder(machine, out.image)
        .supervisor(OpecMonitor::with_backend(out.policy, backend))
        .obs(Obs::single(rec.clone()))
        .build()
        .map_err(|e| format!("image: {e}"))?;
    let run = vm.run(FUEL).map_err(|e| format!("run: {e}"))?;
    if !matches!(run, RunOutcome::Halted { .. }) {
        return Err(format!("unexpected outcome {run:?}"));
    }
    (app.check)(&mut vm.machine).map_err(|e| format!("check: {e}"))?;
    Ok(drain(app, "opec", sel.name(), run.cycles(), &rec))
}

fn run_aces_obs(app: &App, args: &CliArgs) -> Result<ObsRun, String> {
    let (module, _) = (app.build)();
    let out = build_aces_image(module, app.board, OBS_ACES_STRATEGY)
        .map_err(|e| format!("ACES build: {e}"))?;
    let main_comp = out.comps.of(out.image.entry);
    let rt = AcesRuntime::new(
        &out.image.module,
        out.comps,
        out.regions,
        app.board,
        out.stack,
        main_comp,
    );
    let mut machine = Machine::new(app.board);
    (app.setup)(&mut machine);
    let rec = recorder(args);
    let mut vm = Vm::builder(machine, out.image)
        .supervisor(rt)
        .obs(Obs::single(rec.clone()))
        .build()
        .map_err(|e| format!("image: {e}"))?;
    let run = vm.run(FUEL).map_err(|e| format!("run: {e}"))?;
    if !matches!(run, RunOutcome::Halted { .. }) {
        return Err(format!("unexpected outcome {run:?}"));
    }
    (app.check)(&mut vm.machine).map_err(|e| format!("check: {e}"))?;
    Ok(drain(app, "aces", "armv7m", run.cycles(), &rec))
}

/// The backends the report instruments: both when `--backend` is
/// absent (the per-backend switch-cost comparison is the point of the
/// report), just the named one otherwise.
fn selected_backends(args: &CliArgs) -> Vec<FleetBackend> {
    FleetBackend::list_from_flag(args.backend.as_deref())
        .unwrap_or_else(|_| vec![FleetBackend::default()])
}

/// Runs every selected cell (apps × backends × {OPEC, ACES}) on scoped
/// threads and collects the drained recorders, joining in table order.
pub fn collect(args: &CliArgs) -> ObsReport {
    let apps: Vec<App> = all_apps().into_iter().filter(|a| args.app_matches(a.name)).collect();
    let aces_names: Vec<&'static str> = aces_comparison_apps().iter().map(|a| a.name).collect();
    let backends = selected_backends(args);
    let aces_available = backends.iter().any(|b| b.has_aces());
    let mut runs = Vec::new();
    let mut skipped = Vec::new();
    thread::scope(|s| {
        let handles: Vec<_> = apps
            .iter()
            .map(|app| {
                let with_aces = aces_names.contains(&app.name) && aces_available;
                let opec: Vec<_> = backends
                    .iter()
                    .map(|&sel| (sel, s.spawn(move || run_opec_obs(app, args, sel))))
                    .collect();
                let aces = with_aces.then(|| s.spawn(move || run_aces_obs(app, args)));
                (app.name, aces_names.contains(&app.name), opec, aces)
            })
            .collect();
        for (name, is_aces_app, opec, aces) in handles {
            for (sel, h) in opec {
                match h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)) {
                    Ok(r) => runs.push(r),
                    Err(e) => skipped.push((format!("{name}/opec/{}", sel.name()), e)),
                }
            }
            match aces {
                Some(h) => match h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)) {
                    Ok(r) => runs.push(r),
                    Err(e) => skipped.push((format!("{name}/aces"), e)),
                },
                None => skipped.push((
                    format!("{name}/aces"),
                    if is_aces_app {
                        "ACES targets the ARMv7-M MPU (not instrumented on rv32-pmp)".to_string()
                    } else {
                        "not an ACES comparison app (Table 2 runs five of the seven)".to_string()
                    },
                )),
            }
        }
    });
    ObsReport { runs, skipped }
}

/// Renders the per-operation overhead breakdown as a text table.
pub fn render(report: &ObsReport) -> String {
    let mut t = TextTable::new(&[
        "App",
        "System",
        "Backend",
        "Op",
        "Enters",
        "Switch cy",
        "Avg enter cy",
        "Virt hit/evict/miss",
        "Emul L/S",
        "Insts",
        "Funcs",
    ]);
    for r in &report.runs {
        for (op, m) in r.metrics.ops() {
            let avg_enter = if m.enter_cycles.count() > 0 {
                format!("{:.0}", m.enter_cycles.mean())
            } else {
                "-".to_string()
            };
            t.row(vec![
                r.app.to_string(),
                r.system.to_string(),
                r.backend.to_string(),
                format!("op{op}"),
                m.enters.to_string(),
                m.switch_cycles().to_string(),
                avg_enter,
                format!("{}/{}/{}", m.virt_hits, m.virt_evictions, m.virt_misses),
                format!("{}/{}", m.emulated_loads, m.emulated_stores),
                m.insts_retired.to_string(),
                m.func_enters.to_string(),
            ]);
        }
        t.row(vec![
            r.app.to_string(),
            r.system.to_string(),
            r.backend.to_string(),
            "total".to_string(),
            r.metrics.total_switches().to_string(),
            r.metrics.total_switch_cycles().to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            r.metrics.total_insts.to_string(),
            format!("{} cy", r.cycles),
        ]);
    }
    let mut out = String::from("Per-operation overhead breakdown (observability stream)\n");
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(&render_switch_costs(report));
    for r in &report.runs {
        if r.dropped > 0 {
            out.push_str(&format!(
                "WARNING: {}/{} shed {} of {} events — raise --ring\n",
                r.app, r.system, r.dropped, r.events_total
            ));
        }
    }
    for (cell, reason) in &report.skipped {
        out.push_str(&format!("skipped {cell}: {reason}\n"));
    }
    out
}

/// The per-backend switch-cost summary: OPEC runs only, aggregated
/// over every collected app — the same obs event stream the breakdown
/// table is cut from, folded to what one operation switch costs on
/// each protection unit (cycles, and region/entry write traffic).
fn render_switch_costs(report: &ObsReport) -> String {
    let mut t = TextTable::new(&[
        "Backend",
        "OPEC runs",
        "Switches",
        "Switch cy",
        "Avg cy/switch",
        "Unit reloads+writes",
        "Per switch",
    ]);
    for sel in FleetBackend::ALL {
        let runs: Vec<_> =
            report.runs.iter().filter(|r| r.system == "opec" && r.backend == sel.name()).collect();
        if runs.is_empty() {
            continue;
        }
        let switches: u64 = runs.iter().map(|r| r.metrics.total_switches()).sum();
        let cycles: u64 = runs.iter().map(|r| r.metrics.total_switch_cycles()).sum();
        // A switch reloads the whole unit (one MpuLoad/PmpLoad event);
        // virtualization faults additionally rewrite single slots.
        let writes: u64 = runs
            .iter()
            .map(|r| {
                r.metrics.mpu_loads
                    + r.metrics.mpu_region_writes
                    + r.metrics.pmp_loads
                    + r.metrics.pmp_entry_writes
            })
            .sum();
        let per = |n: u64| {
            if switches > 0 {
                format!("{:.1}", n as f64 / switches as f64)
            } else {
                "-".to_string()
            }
        };
        t.row(vec![
            sel.name().to_string(),
            runs.len().to_string(),
            switches.to_string(),
            cycles.to_string(),
            per(cycles),
            writes.to_string(),
            per(writes),
        ]);
    }
    let mut out = String::from("Per-backend operation-switch cost (OPEC, same obs stream)\n");
    out.push_str(&t.render());
    out
}

/// Renders the whole report as one JSON document (`--obs-json`).
pub fn to_json(report: &ObsReport) -> String {
    let mut runs = Vec::new();
    for r in &report.runs {
        runs.push(format!(
            "{{\"app\":\"{}\",\"system\":\"{}\",\"backend\":\"{}\",\"cycles\":{},\"events_total\":{},\"events_dropped\":{},\"metrics\":{}}}",
            r.app,
            r.system,
            r.backend,
            r.cycles,
            r.events_total,
            r.dropped,
            metrics_json(&r.metrics),
        ));
    }
    let skipped: Vec<String> = report
        .skipped
        .iter()
        .map(|(cell, reason)| {
            format!(
                "{{\"cell\":\"{}\",\"reason\":\"{}\"}}",
                cell,
                reason.replace('\\', "\\\\").replace('"', "\\\"")
            )
        })
        .collect();
    format!("{{\"runs\":[{}],\"skipped\":[{}]}}\n", runs.join(","), skipped.join(","))
}

/// The Chrome trace for the first collected run (`--trace`); filter
/// with `--apps` to pick the app. `None` when nothing ran.
pub fn first_chrome_trace(report: &ObsReport) -> Option<(String, String)> {
    let r = report.runs.first()?;
    let label = format!("{}/{}/{}", r.app, r.system, r.backend);
    Some((label.clone(), chrome_trace(&r.events, &label)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pinlock_args() -> CliArgs {
        CliArgs { apps: Some("pinlock".to_string()), ..CliArgs::default() }
    }

    #[test]
    fn pinlock_breakdown_under_both_systems() {
        let report = collect(&pinlock_args());
        assert_eq!(report.runs.len(), 3, "OPEC on both backends + ACES");
        assert_eq!(report.total_dropped(), 0, "default ring must not shed");
        let opec = &report.runs[0];
        assert_eq!((opec.system, opec.backend), ("opec", "armv7m"));
        assert!(opec.metrics.total_switches() > 0);
        assert!(opec.metrics.total_switch_cycles() > 0);
        assert!(opec.metrics.mpu_loads > 0, "every op switch reloads the MPU");
        assert!(!opec.events.is_empty());
        let pmp = &report.runs[1];
        assert_eq!((pmp.system, pmp.backend), ("opec", "rv32-pmp"));
        assert!(pmp.metrics.total_switches() > 0);
        assert!(pmp.metrics.pmp_loads > 0, "every op switch reloads the PMP");
        assert_eq!(
            pmp.metrics.mpu_loads + pmp.metrics.mpu_region_writes,
            0,
            "no MPU traffic on the PMP backend"
        );
        let aces = &report.runs[2];
        assert_eq!(aces.system, "aces");
        assert!(aces.metrics.total_switches() > 0);
        // All systems' switch costs come from the same event stream,
        // so they are directly comparable — including across backends.
        let text = render(&report);
        assert!(text.contains("PinLock"));
        assert!(text.contains("opec"));
        assert!(text.contains("aces"));
        assert!(text.contains("Per-backend operation-switch cost"), "{text}");
        assert!(text.contains("rv32-pmp"), "{text}");
        let json = to_json(&report);
        assert!(json.contains("\"system\":\"opec\""));
        assert!(json.contains("\"system\":\"aces\""));
        assert!(json.contains("\"backend\":\"rv32-pmp\""));
        let (label, trace) = first_chrome_trace(&report).unwrap();
        assert_eq!(label, "PinLock/opec/armv7m");
        assert!(trace.contains("\"traceEvents\""));
    }

    #[test]
    fn backend_flag_narrows_the_report_to_one_backend() {
        let args = CliArgs { backend: Some("rv32-pmp".to_string()), ..pinlock_args() };
        let report = collect(&args);
        assert_eq!(report.runs.len(), 1, "one OPEC run, ACES skipped");
        assert_eq!(report.runs[0].backend, "rv32-pmp");
        assert!(report
            .skipped
            .iter()
            .any(|(cell, reason)| cell == "PinLock/aces" && reason.contains("ARMv7-M")));
    }
}
