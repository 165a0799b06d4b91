//! The VM fast-path throughput benchmark (`opec-eval bench-vm`).
//!
//! Emits `BENCH_vm.json`, the perf-trajectory file for the execution
//! engine, with four sections — everything measured in-process, in this
//! invocation, with no saved baselines:
//!
//! * `"microbench"` — a dense-ALU loop firmware interpreted under the
//!   plain per-`Inst` path and under the pre-decoded block cache, as
//!   instructions/second each (the headline fast-path speedup);
//! * `"apps"` — the same before/after for every paper application
//!   (seven under OPEC, five under ACES), full pipeline included;
//! * `"campaign"` — campaign resets/second the seed way (rebuild the
//!   machine, reload the image, boot, per seed) versus the fork-server
//!   way (restore a copy-on-write snapshot per seed), plus the raw
//!   restore latency;
//! * `"lockstep"` — the cached-vs-plain equivalence sweep
//!   ([`crate::check::run_lockstep`]) folded to a divergence count, so
//!   CI can fail the benchmark if the fast path ever stops being a
//!   pure optimisation.

use std::fmt::Write as _;
use std::time::Instant;

use opec_aces::{build_aces_image, AcesRuntime, AcesStrategy};
use opec_apps::programs::{aces_comparison_apps, all_apps};
use opec_apps::App;
use opec_armv7m::{Board, Machine};
use opec_core::{compile, OpecMonitor};
use opec_ir::{BinOp, Module, ModuleBuilder, Operand, Ty};
use opec_vm::{link_baseline, ExecMode, LoadedImage, Supervisor, Vm};

use opec_campaign::CampaignReport;
use opec_fleet::FleetBackend;

use crate::check::run_lockstep_campaign;
use crate::engine::EngineOpts;
use crate::runs::FUEL;

/// Loop iterations of the ALU microbenchmark (~40 instructions each).
const MICRO_ITERS: u32 = 100_000;

/// Timed repetitions per application run (averages out clock noise).
const APP_REPS: u32 = 3;

/// Rebuild-from-scratch resets timed for the naive campaign shape.
const NAIVE_RESETS: u32 = 50;

/// Snapshot restores timed for the fork-server campaign shape.
const SNAP_RESETS: u32 = 2_000;

/// Fuel spent dirtying the VM between resets, so every restore has
/// real dirty pages to undo (charged outside the timed region on both
/// sides).
const DIRTY_FUEL: u64 = 5_000;

/// A countdown loop whose body is a chain of ALU ops ending in one
/// global store: the densest straight-line dispatch the IR can express,
/// which is exactly what the decoded path accelerates.
fn alu_module() -> Module {
    let mut mb = ModuleBuilder::new("vmbench");
    let acc = mb.global("acc", Ty::I32, "bench.c");
    mb.func("main", vec![], Some(Ty::I32), "bench.c", |fb| {
        let header = fb.block();
        let body = fb.block();
        let exit = fb.block();
        let i = fb.reg();
        fb.mov(i, Operand::Imm(MICRO_ITERS));
        fb.br(header);
        fb.switch_to(header);
        fb.cond_br(Operand::Reg(i), body, exit);
        fb.switch_to(body);
        let mut v = fb.bin(BinOp::Add, Operand::Reg(i), Operand::Imm(0x9E37_79B9));
        for k in 0..32u32 {
            v = fb.bin(BinOp::Xor, Operand::Reg(v), Operand::Imm(k.wrapping_mul(0x85EB_CA6B)));
        }
        fb.store_global(acc, 0, Operand::Reg(v), 4);
        let next = fb.bin(BinOp::Sub, Operand::Reg(i), Operand::Imm(1));
        fb.mov(i, Operand::Reg(next));
        fb.br(header);
        fb.switch_to(exit);
        let r = fb.load_global(acc, 0, 4);
        fb.ret(Operand::Reg(r));
    });
    mb.finish()
}

/// One timed run: executes `image` under `mode` and returns
/// `(instructions, seconds)`.
fn timed_run<S: Supervisor>(
    image: std::sync::Arc<LoadedImage>,
    supervisor: S,
    machine: Machine,
    mode: ExecMode,
) -> (u64, f64) {
    let mut vm = Vm::builder(machine, image)
        .supervisor(supervisor)
        .exec_mode(mode)
        .build()
        .expect("bench image");
    let start = Instant::now();
    let _ = vm.run(FUEL);
    (vm.stats.insts, start.elapsed().as_secs_f64())
}

/// Instructions/second of one subject under both execution modes.
struct Throughput {
    name: String,
    system: &'static str,
    insts: u64,
    plain_ips: f64,
    decoded_ips: f64,
}

impl Throughput {
    fn speedup(&self) -> f64 {
        if self.plain_ips > 0.0 {
            self.decoded_ips / self.plain_ips
        } else {
            0.0
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"app\": \"{}\", \"system\": \"{}\", \"insts\": {}, \
             \"plain_insts_per_sec\": {:.0}, \"decoded_insts_per_sec\": {:.0}, \
             \"speedup\": {:.2}}}",
            self.name,
            self.system,
            self.insts,
            self.plain_ips,
            self.decoded_ips,
            self.speedup(),
        )
    }
}

/// Measures one subject `reps` times per mode and keeps each mode's
/// best rate: scheduler noise only ever slows a rep down, so the
/// fastest rep is the least-perturbed measurement. `run` performs one
/// fresh, timed execution under the given mode.
fn throughput(
    name: String,
    system: &'static str,
    reps: u32,
    run: impl Fn(ExecMode) -> (u64, f64),
) -> Throughput {
    let measure = |mode| {
        let (mut insts, mut best) = (0u64, 0f64);
        for _ in 0..reps {
            let (i, s) = run(mode);
            insts = i;
            best = best.max(i as f64 / s.max(1e-9));
        }
        (insts, best)
    };
    let (insts, plain_ips) = measure(ExecMode::Plain);
    let (_, decoded_ips) = measure(ExecMode::Decoded);
    Throughput { name, system, insts, plain_ips, decoded_ips }
}

/// The ALU microbenchmark: baseline link, no supervisor, no devices.
fn micro_throughput() -> Throughput {
    let board = Board::stm32f4_discovery();
    let image = std::sync::Arc::new(link_baseline(alu_module(), board).expect("bench link"));
    throughput("alu-loop".into(), "micro", 5, |mode| {
        timed_run(image.clone(), opec_vm::NullSupervisor, Machine::new(board), mode)
    })
}

fn opec_throughput(app: &App, sel: FleetBackend) -> Throughput {
    let (module, specs) = (app.build)();
    let out =
        compile(module, app.board, &specs).unwrap_or_else(|e| panic!("{} compile: {e}", app.name));
    let policy = out.policy.clone();
    let image = std::sync::Arc::new(out.image);
    let backend = sel.dyn_backend();
    throughput(app.name.to_string(), "OPEC", APP_REPS, |mode| {
        let mut m = backend.make_machine(app.board);
        (app.setup)(&mut m);
        timed_run(
            image.clone(),
            OpecMonitor::with_backend(policy.clone(), std::sync::Arc::clone(&backend)),
            m,
            mode,
        )
    })
}

/// Protection-switch cost of one application on one backend: a single
/// full OPEC run, read back from the monitor's own counters. The same
/// firmware image runs on both backends, so the per-switch write counts
/// are directly comparable (ARMv7-M MPU region writes vs RISC-V PMP
/// entry writes).
struct SwitchCost {
    app: &'static str,
    switches: u64,
    prot_writes: u64,
}

impl SwitchCost {
    fn json(&self) -> String {
        let per_switch =
            if self.switches > 0 { self.prot_writes as f64 / self.switches as f64 } else { 0.0 };
        format!(
            "{{\"app\": \"{}\", \"switches\": {}, \"prot_writes\": {}, \
             \"writes_per_switch\": {per_switch:.2}}}",
            self.app, self.switches, self.prot_writes,
        )
    }
}

fn switch_costs(sel: FleetBackend) -> Vec<SwitchCost> {
    all_apps()
        .iter()
        .map(|app| {
            let (module, specs) = (app.build)();
            let out = compile(module, app.board, &specs)
                .unwrap_or_else(|e| panic!("{} compile: {e}", app.name));
            let backend = sel.dyn_backend();
            let mut m = backend.make_machine(app.board);
            (app.setup)(&mut m);
            let mut vm = Vm::builder(m, out.image)
                .supervisor(OpecMonitor::with_backend(out.policy.clone(), backend))
                .build()
                .unwrap_or_else(|e| panic!("{} image: {e}", app.name));
            let _ = vm.run(FUEL);
            let stats = &vm.supervisor.stats;
            SwitchCost { app: app.name, switches: stats.switches, prot_writes: stats.prot_writes }
        })
        .collect()
}

fn aces_throughput(app: &App) -> Throughput {
    let (module, _) = (app.build)();
    let out = build_aces_image(module, app.board, AcesStrategy::Filename)
        .unwrap_or_else(|e| panic!("{} ACES build: {e}", app.name));
    let main_comp = out.comps.of(out.image.entry);
    let image = std::sync::Arc::new(out.image);
    throughput(app.name.to_string(), "ACES", APP_REPS, |mode| {
        let rt = AcesRuntime::new(
            &image.module,
            out.comps.clone(),
            out.regions.clone(),
            app.board,
            out.stack,
            main_comp,
        );
        let mut m = Machine::new(app.board);
        (app.setup)(&mut m);
        timed_run(image.clone(), rt, m, mode)
    })
}

/// Campaign reset rates: rebuild-per-seed vs snapshot-restore-per-seed
/// over the PinLock OPEC configuration (the attack matrix's subject).
struct CampaignBench {
    naive_resets_per_sec: f64,
    snapshot_resets_per_sec: f64,
    restore_latency_us: f64,
}

fn campaign_bench() -> CampaignBench {
    let app = opec_apps::programs::pinlock::app();
    let (module, specs) = (app.build)();
    let out = compile(module, app.board, &specs).expect("pinlock compile");
    let policy = out.policy.clone();
    let image = std::sync::Arc::new(out.image);

    // The seed shape: every campaign reconstructs the world.
    let mut naive_secs = 0f64;
    for _ in 0..NAIVE_RESETS {
        let start = Instant::now();
        let mut machine = Machine::new(app.board);
        (app.setup)(&mut machine);
        let mut vm = Vm::builder(machine, image.clone())
            .supervisor(OpecMonitor::new(policy.clone()))
            .build()
            .expect("pinlock image");
        vm.boot().expect("pinlock boot");
        naive_secs += start.elapsed().as_secs_f64();
        let _ = vm.resume(DIRTY_FUEL);
    }

    // The fork-server shape: one world, reset by dirty-page restore.
    let mut machine = Machine::new(app.board);
    (app.setup)(&mut machine);
    let mut vm = Vm::builder(machine, image.clone())
        .supervisor(OpecMonitor::new(policy))
        .build()
        .expect("pinlock image");
    vm.boot().expect("pinlock boot");
    let snap = vm.snapshot().expect("pinlock snapshot");
    let _ = vm.resume(DIRTY_FUEL);
    let mut snap_secs = 0f64;
    for _ in 0..SNAP_RESETS {
        let start = Instant::now();
        vm.restore(&snap);
        snap_secs += start.elapsed().as_secs_f64();
        let _ = vm.resume(DIRTY_FUEL);
    }

    CampaignBench {
        naive_resets_per_sec: f64::from(NAIVE_RESETS) / naive_secs.max(1e-9),
        snapshot_resets_per_sec: f64::from(SNAP_RESETS) / snap_secs.max(1e-9),
        restore_latency_us: snap_secs * 1e6 / f64::from(SNAP_RESETS),
    }
}

/// Runs every measurement and renders `BENCH_vm.json` with default
/// supervision. Returns the document and the lockstep divergence count
/// (non-zero must fail the caller).
pub fn bench_vm(gen_seeds: u64) -> (String, u64) {
    let (doc, bad, _) = bench_vm_campaign(gen_seeds, &EngineOpts::default(), FleetBackend::Armv7m)
        .expect("bench-vm");
    (doc, bad)
}

/// [`bench_vm`] with the lockstep sweep routed through the supervised
/// campaign engine: `--fuel` bounds every lockstep subject, a panicking
/// subject is contained and reported instead of tearing the benchmark
/// down, and `--journal` lets a killed sweep resume. The timing
/// sections stay inline — they are wall-clock measurements, and
/// journaling a timing would just replay a stale number.
pub fn bench_vm_campaign(
    gen_seeds: u64,
    engine: &EngineOpts,
    sel: FleetBackend,
) -> Result<(String, u64, CampaignReport), String> {
    let mut out = String::from("{\n");
    writeln!(out, "  \"schema\": \"opec-bench-vm-v1\",").expect("write to String");
    writeln!(out, "  \"host\": {},", opec_fleet::bench::host_json()).expect("write to String");
    writeln!(out, "  \"backend\": \"{}\",", sel.name()).expect("write to String");

    eprintln!("[bench-vm] ALU microbenchmark (plain vs decoded)...");
    let micro = micro_throughput();
    writeln!(
        out,
        "  \"microbench\": {{\"iters\": {MICRO_ITERS}, \"insts\": {}, \
         \"plain_insts_per_sec\": {:.0}, \"decoded_insts_per_sec\": {:.0}, \
         \"speedup\": {:.2}}},",
        micro.insts,
        micro.plain_ips,
        micro.decoded_ips,
        micro.speedup(),
    )
    .expect("write to String");

    eprintln!(
        "[bench-vm] per-app throughput ({APP_REPS} reps per mode, backend {})...",
        sel.name()
    );
    let mut apps: Vec<Throughput> =
        all_apps().iter().map(|app| opec_throughput(app, sel)).collect();
    if sel.has_aces() {
        apps.extend(aces_comparison_apps().iter().map(aces_throughput));
    }
    out.push_str("  \"apps\": [\n");
    for (i, t) in apps.iter().enumerate() {
        writeln!(out, "    {}{}", t.json(), if i + 1 < apps.len() { "," } else { "" })
            .expect("write to String");
    }
    out.push_str("  ],\n");

    eprintln!("[bench-vm] per-backend protection-switch costs (both backends)...");
    out.push_str("  \"switch_costs\": {\n");
    for (bi, backend) in FleetBackend::ALL.iter().enumerate() {
        let costs = switch_costs(*backend);
        writeln!(out, "    \"{}\": [", backend.name()).expect("write to String");
        for (i, c) in costs.iter().enumerate() {
            writeln!(out, "      {}{}", c.json(), if i + 1 < costs.len() { "," } else { "" })
                .expect("write to String");
        }
        writeln!(out, "    ]{}", if bi + 1 < FleetBackend::ALL.len() { "," } else { "" })
            .expect("write to String");
    }
    out.push_str("  },\n");

    eprintln!("[bench-vm] campaign resets ({NAIVE_RESETS} rebuilds vs {SNAP_RESETS} restores)...");
    let camp = campaign_bench();
    writeln!(
        out,
        "  \"campaign\": {{\"naive_resets_per_sec\": {:.1}, \
         \"snapshot_resets_per_sec\": {:.1}, \"speedup\": {:.2}, \
         \"restore_latency_us\": {:.3}}},",
        camp.naive_resets_per_sec,
        camp.snapshot_resets_per_sec,
        camp.snapshot_resets_per_sec / camp.naive_resets_per_sec.max(1e-9),
        camp.restore_latency_us,
    )
    .expect("write to String");

    eprintln!(
        "[bench-vm] cached-vs-plain lockstep ({gen_seeds} firmwares, backend {})...",
        sel.name()
    );
    let (rep, campaign) = run_lockstep_campaign(gen_seeds, engine, sel)?;
    let divergences: u64 = rep.cases.iter().map(|c| c.total).sum();
    let build_errors = rep.cases.iter().filter(|c| c.run_error.is_some()).count();
    writeln!(
        out,
        "  \"lockstep\": {{\"subjects\": {}, \"generated_seeds\": {gen_seeds}, \
         \"divergences\": {divergences}, \"build_errors\": {build_errors}}}",
        rep.cases.len(),
    )
    .expect("write to String");
    out.push_str("}\n");
    Ok((out, divergences + build_errors as u64, campaign))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microbench_decoded_is_not_slower_and_counts_are_stable() {
        let t = micro_throughput();
        // Both modes execute the same firmware, so the instruction
        // count is architecture-determined, not timing-determined.
        assert!(t.insts > u64::from(MICRO_ITERS) * 30, "{}", t.insts);
        assert!(t.plain_ips > 0.0 && t.decoded_ips > 0.0);
        let json = t.json();
        assert!(json.contains("\"speedup\""), "{json}");
    }

    #[test]
    fn campaign_snapshot_reset_beats_rebuild() {
        let c = campaign_bench();
        assert!(
            c.snapshot_resets_per_sec > c.naive_resets_per_sec,
            "restore {:.1}/s vs rebuild {:.1}/s",
            c.snapshot_resets_per_sec,
            c.naive_resets_per_sec
        );
        assert!(c.restore_latency_us > 0.0);
    }
}
