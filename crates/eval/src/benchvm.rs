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
//!   ([`crate::check::run_lockstep_campaign`]) folded to a divergence count, so
//!   CI can fail the benchmark if the fast path ever stops being a
//!   pure optimisation.

use std::sync::Arc;
use std::time::Instant;

use opec_aces::AcesStrategy;
use opec_apps::programs::{aces_comparison_apps, all_apps};
use opec_apps::App;
use opec_armv7m::{Board, Machine};
use opec_core::Armv7mBackend;
use opec_ir::{BinOp, Module, ModuleBuilder, Operand, Ty};
use opec_oracle::{Firmware, RunRequest, System};
use opec_vm::{link_baseline, ExecMode, Supervisor, Vm, VmBuilder};

use opec_campaign::CampaignReport;
use opec_fleet::bench::Host;
use opec_fleet::FleetBackend;
use opec_obs::json::{Layout, ToJson, Writer};

use crate::check::run_lockstep_campaign;
use crate::engine::EngineOpts;
use crate::runs::{EVAL_BUDGET, FUEL};

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

/// One timed run: builds `vm` under `mode`, executes it and returns
/// `(instructions, seconds)`.
fn timed_run<S: Supervisor>(vm: VmBuilder<S>, mode: ExecMode) -> (u64, f64) {
    let mut vm = vm.exec_mode(mode).build().expect("bench image");
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
}

impl ToJson for Throughput {
    fn write_json(&self, w: &mut Writer) {
        w.obj().field("app", &self.name).field("system", self.system);
        w.field("insts", &self.insts);
        self.write_rates(w);
        w.end();
    }
}

impl Throughput {
    /// The rate fields shared by the app rows and the microbenchmark.
    fn write_rates(&self, w: &mut Writer) {
        w.key("plain_insts_per_sec").fixed(self.plain_ips, 0);
        w.key("decoded_insts_per_sec").fixed(self.decoded_ips, 0);
        w.key("speedup").fixed(self.speedup(), 2);
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
    let image = Arc::new(link_baseline(alu_module(), board).expect("bench link"));
    throughput("alu-loop".into(), "micro", 5, |mode| {
        timed_run(Vm::builder(Machine::new(board), image.clone()), mode)
    })
}

fn opec_throughput(app: &App, sel: FleetBackend) -> Throughput {
    let fw = Firmware::from(app);
    let build = fw.opec().unwrap_or_else(|e| panic!("{} compile: {e}", app.name));
    let image = Arc::new(build.out.image.clone());
    let backend = sel.dyn_backend();
    throughput(app.name.to_string(), "OPEC", APP_REPS, |mode| {
        let vm = Vm::builder(fw.machine(&*backend), image.clone())
            .supervisor(build.monitor(Arc::clone(&backend)));
        timed_run(vm, mode)
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

impl ToJson for SwitchCost {
    fn write_json(&self, w: &mut Writer) {
        let per_switch =
            if self.switches > 0 { self.prot_writes as f64 / self.switches as f64 } else { 0.0 };
        w.obj().field("app", self.app).field("switches", &self.switches);
        w.field("prot_writes", &self.prot_writes);
        w.key("writes_per_switch").fixed(per_switch, 2).end();
    }
}

fn switch_costs(sel: FleetBackend) -> Vec<SwitchCost> {
    all_apps()
        .iter()
        .map(|app| {
            let fw = Firmware::from(app);
            let request =
                RunRequest::new(&fw, System::Opec).on(sel.dyn_backend()).budget(EVAL_BUDGET);
            let run = request.run().unwrap_or_else(|e| panic!("{} OPEC run: {e}", app.name));
            let stats = run.monitor.expect("an OPEC run has monitor counters");
            SwitchCost { app: app.name, switches: stats.switches, prot_writes: stats.prot_writes }
        })
        .collect()
}

fn aces_throughput(app: &App) -> Throughput {
    let fw = Firmware::from(app);
    let build =
        fw.aces(AcesStrategy::Filename).unwrap_or_else(|e| panic!("{} ACES build: {e}", app.name));
    let image = Arc::new(build.out.image.clone());
    throughput(app.name.to_string(), "ACES", APP_REPS, |mode| {
        let vm = Vm::builder(fw.machine(&Armv7mBackend), image.clone()).supervisor(build.runtime());
        timed_run(vm, mode)
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
    let fw = Firmware::from(&opec_apps::programs::pinlock::app());
    let build = fw.opec().expect("pinlock compile");
    let image = Arc::new(build.out.image.clone());
    let boot = || {
        let mut vm = Vm::builder(fw.machine(&Armv7mBackend), image.clone())
            .supervisor(build.monitor(Arc::new(Armv7mBackend)))
            .build()
            .expect("pinlock image");
        vm.boot().expect("pinlock boot");
        vm
    };

    // The seed shape: every campaign reconstructs the world.
    let mut naive_secs = 0f64;
    for _ in 0..NAIVE_RESETS {
        let start = Instant::now();
        let mut vm = boot();
        naive_secs += start.elapsed().as_secs_f64();
        let _ = vm.resume(DIRTY_FUEL);
    }

    // The fork-server shape: one world, reset by dirty-page restore.
    let mut vm = boot();
    let Ok(snap) = vm.snapshot();
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

/// Runs every measurement and renders `BENCH_vm.json`, with the
/// lockstep sweep routed through the supervised campaign engine: `--fuel` bounds every lockstep subject, a panicking
/// subject is contained and reported instead of tearing the benchmark
/// down, and `--journal` lets a killed sweep resume. The timing
/// sections stay inline — they are wall-clock measurements, and
/// journaling a timing would just replay a stale number.
pub fn bench_vm_campaign(
    gen_seeds: u64,
    engine: &EngineOpts,
    sel: FleetBackend,
) -> Result<(String, u64, CampaignReport), String> {
    let mut w = Writer::new(Layout::Report);
    w.obj().field("schema", "opec-bench-vm-v1").field("host", &Host);
    w.field("backend", sel.name());

    eprintln!("[bench-vm] ALU microbenchmark (plain vs decoded)...");
    let micro = micro_throughput();
    w.key("microbench").obj().field("iters", &MICRO_ITERS).field("insts", &micro.insts);
    micro.write_rates(&mut w);
    w.end();

    eprintln!(
        "[bench-vm] per-app throughput ({APP_REPS} reps per mode, backend {})...",
        sel.name()
    );
    let mut apps: Vec<Throughput> =
        all_apps().iter().map(|app| opec_throughput(app, sel)).collect();
    if sel.has_aces() {
        apps.extend(aces_comparison_apps().iter().map(aces_throughput));
    }
    w.key("apps").rows();
    for t in &apps {
        w.val(t);
    }
    w.end();

    eprintln!("[bench-vm] per-backend protection-switch costs (both backends)...");
    w.key("switch_costs").block();
    for backend in FleetBackend::ALL {
        w.key(backend.name()).rows();
        for c in switch_costs(backend) {
            w.val(&c);
        }
        w.end();
    }
    w.end();

    eprintln!("[bench-vm] campaign resets ({NAIVE_RESETS} rebuilds vs {SNAP_RESETS} restores)...");
    let camp = campaign_bench();
    w.key("campaign").obj();
    w.key("naive_resets_per_sec").fixed(camp.naive_resets_per_sec, 1);
    w.key("snapshot_resets_per_sec").fixed(camp.snapshot_resets_per_sec, 1);
    w.key("speedup").fixed(camp.snapshot_resets_per_sec / camp.naive_resets_per_sec.max(1e-9), 2);
    w.key("restore_latency_us").fixed(camp.restore_latency_us, 3).end();

    eprintln!(
        "[bench-vm] cached-vs-plain lockstep ({gen_seeds} firmwares, backend {})...",
        sel.name()
    );
    let (rep, campaign) = run_lockstep_campaign(gen_seeds, engine, sel)?;
    let divergences: u64 = rep.cases.iter().map(|c| c.total).sum();
    let build_errors = rep.cases.iter().filter(|c| c.run_error.is_some()).count();
    w.key("lockstep").obj().field("subjects", &rep.cases.len());
    w.field("generated_seeds", &gen_seeds).field("divergences", &divergences);
    w.field("build_errors", &build_errors).end().end();
    Ok((w.finish() + "\n", divergences + build_errors as u64, campaign))
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
        let json = opec_obs::json::to_string(&t, Layout::Compact);
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
