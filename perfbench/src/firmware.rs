//! The compile and run-to-halt phases: the workload's firmware set is
//! compiled with `opec_core::compile`, then each firmware runs from a
//! fresh machine to `halt` under OPEC on both backends and, for the
//! paper's ACES-comparison apps, under ACES (filename strategy).
//!
//! The traced variants call the same public functions with timers
//! around them: the compiler stages one by one in the order
//! `pipeline::compile` uses, and the supervisor behind a forwarding
//! [`Timed`] wrapper.

use std::sync::Arc;
use std::time::Instant;

use opec_aces::{build_aces_image, AcesRuntime, AcesStrategy, Compartments, DataRegions};
use opec_analysis::{CallGraph, PointsTo, ResourceAnalysis};
use opec_apps::programs::{aces_comparison_apps, App};
use opec_armv7m::machine::MachineStats;
use opec_armv7m::{FaultInfo, Machine, MemRegion, Mode};
use opec_core::layout::build_layout;
use opec_core::{build_image, compile, MonitorStats, OpecMonitor, Partition, SystemPolicy};
use opec_fleet::FleetBackend;
use opec_vm::{
    link_baseline, CpuContext, FaultFixup, LoadedImage, OpId, RunOutcome, Supervisor,
    SwitchRequest, TrapError, Vm,
};

/// Guest fuel for a run to halt (the evaluation's budget).
const FUEL: u64 = opec_vm::exec::DEFAULT_FUEL;

/// `tick_devices` calls timed per row to estimate the per-instruction
/// device-tick cost.
const TICK_PROBES: u32 = 20_000;

/// A firmware with everything its runs need, built once at set-up.
pub struct Built {
    pub app: App,
    opec: Arc<LoadedImage>,
    policy: SystemPolicy,
    aces: Option<AcesParts>,
    /// Guest cycles of the vanilla (`link_baseline`) run on armv7m.
    pub base_cycles: u64,
    /// Footprint of the OPEC image, to check the staged compile against.
    footprint: (u32, u32),
}

struct AcesParts {
    image: Arc<LoadedImage>,
    comps: Compartments,
    regions: DataRegions,
    stack: MemRegion,
    main_comp: OpId,
}

/// Set-up for one firmware: compile the OPEC and ACES images and run the
/// vanilla baseline to halt for the cycle-overhead reference.
pub fn build(app: App) -> Result<Built, String> {
    let board = app.board;
    let (module, specs) = (app.build)();
    let out = compile(module, board, &specs).map_err(|e| format!("{} compile: {e}", app.name))?;
    let aces = if aces_comparison_apps().iter().any(|a| a.name == app.name) {
        let (module, _) = (app.build)();
        let a = build_aces_image(module, board, AcesStrategy::Filename)
            .map_err(|e| format!("{} ACES build: {e:?}", app.name))?;
        let main_comp = a.comps.of(a.image.entry);
        Some(AcesParts {
            image: Arc::new(a.image),
            comps: a.comps,
            regions: a.regions,
            stack: a.stack,
            main_comp,
        })
    } else {
        None
    };
    let (module, _) = (app.build)();
    let base = link_baseline(module, board).map_err(|e| format!("{} link: {e:?}", app.name))?;
    let mut machine = Machine::new(board);
    (app.setup)(&mut machine);
    let done = run_to_halt(&app, machine, Arc::new(base), opec_vm::NullSupervisor)?;
    Ok(Built {
        footprint: (out.image.flash_used, out.image.sram_used),
        opec: Arc::new(out.image),
        policy: out.policy,
        aces,
        base_cycles: done.cycles,
        app,
    })
}

/// Host milliseconds of one `opec_core::compile` of each firmware, in
/// set order. The modules are built before the clock starts.
pub fn compile_pass(set: &[Built]) -> Vec<Result<f64, String>> {
    set.iter()
        .map(|b| {
            let (module, specs) = (b.app.build)();
            let board = b.app.board;
            let start = Instant::now();
            let out = compile(module, board, &specs);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            out.map(|_| ms).map_err(|e| format!("{} compile: {e}", b.app.name))
        })
        .collect()
}

/// Host seconds per compiler stage of one staged compile.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageTimes {
    pub points_to: f64,
    pub callgraph: f64,
    pub resources: f64,
    pub partition: f64,
    pub layout: f64,
    pub image: f64,
    /// The whole staged compile, validation and report included.
    pub wall: f64,
}

impl StageTimes {
    pub fn add(&mut self, o: &StageTimes) {
        self.points_to += o.points_to;
        self.callgraph += o.callgraph;
        self.resources += o.resources;
        self.partition += o.partition;
        self.layout += o.layout;
        self.image += o.image;
        self.wall += o.wall;
    }

    /// Staged wall time no stage timer covers.
    pub fn unattributed(&self) -> f64 {
        self.wall
            - (self.points_to
                + self.callgraph
                + self.resources
                + self.partition
                + self.layout
                + self.image)
    }
}

/// Compiles one firmware stage by stage, in `pipeline::compile` order,
/// and checks the image matches the one `compile` produced at set-up.
pub fn staged_compile(b: &Built) -> Result<StageTimes, String> {
    let name = &b.app.name;
    let board = b.app.board;
    let (module, specs) = (b.app.build)();
    let mut t = StageTimes::default();
    let start = Instant::now();
    opec_ir::validate(&module).map_err(|e| format!("{name} invalid IR: {e}"))?;
    let lap = Instant::now();
    let pt = PointsTo::analyze(&module);
    t.points_to = lap.elapsed().as_secs_f64();
    let lap = Instant::now();
    let cg = CallGraph::build(&module, &pt);
    t.callgraph = lap.elapsed().as_secs_f64();
    let lap = Instant::now();
    let ra = ResourceAnalysis::analyze(&module, &pt);
    t.resources = lap.elapsed().as_secs_f64();
    let lap = Instant::now();
    let partition = Partition::build(&module, &cg, &ra, &specs)
        .map_err(|e| format!("{name} partitioning: {e}"))?;
    t.partition = lap.elapsed().as_secs_f64();
    let lap = Instant::now();
    let policy =
        build_layout(&module, &partition, board).map_err(|e| format!("{name} layout: {e}"))?;
    t.layout = lap.elapsed().as_secs_f64();
    // `compile` reads these into its report between layout and image.
    std::hint::black_box((cg.icall_stats(), pt.stats.duration, module.total_code_size()));
    let lap = Instant::now();
    let image = build_image(module, &partition, &policy, board)
        .map_err(|e| format!("{name} image: {e}"))?;
    t.image = lap.elapsed().as_secs_f64();
    t.wall = start.elapsed().as_secs_f64();
    if (image.flash_used, image.sram_used) != b.footprint {
        return Err(format!("{name}: staged compile produced a different image"));
    }
    Ok(t)
}

/// Calls and host nanoseconds spent in one supervisor hook.
#[derive(Debug, Default, Clone, Copy)]
pub struct Hook {
    pub calls: u64,
    pub nanos: u64,
}

impl Hook {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.nanos += start.elapsed().as_nanos() as u64;
        self.calls += 1;
        out
    }

    pub fn add(&mut self, o: &Hook) {
        self.calls += o.calls;
        self.nanos += o.nanos;
    }

    /// Mean microseconds per call (0 without calls).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.nanos as f64 / self.calls as f64 / 1e3
        }
    }
}

/// Host time per supervisor hook.
#[derive(Debug, Default, Clone, Copy)]
pub struct HookTimes {
    pub enter: Hook,
    pub exit: Hook,
    pub mem_fault: Hook,
    pub bus_fault: Hook,
    /// Reset, explicit SVCs, switch queries and quarantine.
    pub other: Hook,
}

impl HookTimes {
    pub fn total_secs(&self) -> f64 {
        (self.enter.nanos
            + self.exit.nanos
            + self.mem_fault.nanos
            + self.bus_fault.nanos
            + self.other.nanos) as f64
            / 1e9
    }

    pub fn add(&mut self, o: &HookTimes) {
        self.enter.add(&o.enter);
        self.exit.add(&o.exit);
        self.mem_fault.add(&o.mem_fault);
        self.bus_fault.add(&o.bus_fault);
        self.other.add(&o.other);
    }
}

/// A forwarding supervisor that times every hook of the one it wraps
/// and changes nothing else.
pub struct Timed<S> {
    pub inner: S,
    pub times: HookTimes,
}

impl<S: Supervisor> Supervisor for Timed<S> {
    fn attach_obs(&mut self, obs: &opec_obs::Obs) {
        self.inner.attach_obs(obs);
    }

    fn wants_switch(&mut self, op: u8) -> bool {
        let inner = &mut self.inner;
        self.times.other.time(|| inner.wants_switch(op))
    }

    fn on_reset(&mut self, machine: &mut Machine) -> Result<(), TrapError> {
        let inner = &mut self.inner;
        self.times.other.time(|| inner.on_reset(machine))
    }

    fn on_operation_enter(
        &mut self,
        machine: &mut Machine,
        req: &mut SwitchRequest<'_>,
    ) -> Result<(), TrapError> {
        let inner = &mut self.inner;
        self.times.enter.time(|| inner.on_operation_enter(machine, req))
    }

    fn on_operation_exit(
        &mut self,
        machine: &mut Machine,
        req: &mut SwitchRequest<'_>,
    ) -> Result<(), TrapError> {
        let inner = &mut self.inner;
        self.times.exit.time(|| inner.on_operation_exit(machine, req))
    }

    fn on_svc(&mut self, machine: &mut Machine, imm: u8) -> Result<(), TrapError> {
        let inner = &mut self.inner;
        self.times.other.time(|| inner.on_svc(machine, imm))
    }

    fn on_mem_fault(
        &mut self,
        machine: &mut Machine,
        fault: FaultInfo,
        cpu: &mut CpuContext,
    ) -> FaultFixup {
        let inner = &mut self.inner;
        self.times.mem_fault.time(|| inner.on_mem_fault(machine, fault, cpu))
    }

    fn on_bus_fault(
        &mut self,
        machine: &mut Machine,
        fault: FaultInfo,
        cpu: &mut CpuContext,
    ) -> FaultFixup {
        let inner = &mut self.inner;
        self.times.bus_fault.time(|| inner.on_bus_fault(machine, fault, cpu))
    }

    fn on_quarantine(
        &mut self,
        machine: &mut Machine,
        op: OpId,
        resume_mode: &mut Mode,
    ) -> Result<(), TrapError> {
        let inner = &mut self.inner;
        self.times.other.time(|| inner.on_quarantine(machine, op, resume_mode))
    }
}

/// A supervisor whose counters and hook times a row reads back.
trait Probe: Supervisor {
    fn monitor(&self) -> Option<MonitorStats>;
    fn hooks(&self) -> Option<HookTimes>;
}

impl Probe for opec_vm::NullSupervisor {
    fn monitor(&self) -> Option<MonitorStats> {
        None
    }
    fn hooks(&self) -> Option<HookTimes> {
        None
    }
}

impl Probe for OpecMonitor {
    fn monitor(&self) -> Option<MonitorStats> {
        Some(self.stats)
    }
    fn hooks(&self) -> Option<HookTimes> {
        None
    }
}

impl Probe for AcesRuntime {
    fn monitor(&self) -> Option<MonitorStats> {
        None
    }
    fn hooks(&self) -> Option<HookTimes> {
        None
    }
}

impl<S: Probe> Probe for Timed<S> {
    fn monitor(&self) -> Option<MonitorStats> {
        self.inner.monitor()
    }
    fn hooks(&self) -> Option<HookTimes> {
        Some(self.times)
    }
}

/// What one run to halt left behind.
struct Done {
    cycles: u64,
    insts: u64,
    switches: u64,
    run_secs: f64,
    monitor: Option<MonitorStats>,
    hooks: Option<HookTimes>,
    machine: MachineStats,
    devices: usize,
}

/// Runs `image` from a fresh machine to `halt` and checks the outcome.
/// Only `Vm::run` is on the clock.
fn run_to_halt<S: Probe>(
    app: &App,
    machine: Machine,
    image: Arc<LoadedImage>,
    supervisor: S,
) -> Result<Done, String> {
    let mut vm = Vm::builder(machine, image)
        .supervisor(supervisor)
        .build()
        .map_err(|e| format!("{} image: {e:?}", app.name))?;
    let start = Instant::now();
    let out = vm.run(FUEL);
    let run_secs = start.elapsed().as_secs_f64();
    match out {
        Ok(RunOutcome::Halted { cycles }) => {
            (app.check)(&mut vm.machine).map_err(|e| format!("{} check: {e}", app.name))?;
            Ok(Done {
                cycles,
                insts: vm.stats.insts,
                switches: vm.stats.op_enters,
                run_secs,
                monitor: vm.supervisor.monitor(),
                hooks: vm.supervisor.hooks(),
                machine: vm.machine.stats,
                devices: vm.machine.device_regions().len(),
            })
        }
        Ok(other) => Err(format!("{} did not halt: {other:?}", app.name)),
        Err(e) => Err(format!("{}: {e}", app.name)),
    }
}

/// Which isolation system a row runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    Opec(FleetBackend),
    Aces,
}

impl System {
    pub fn label(self) -> &'static str {
        match self {
            System::Opec(_) => "OPEC",
            System::Aces => "ACES",
        }
    }

    pub fn backend(self) -> &'static str {
        match self {
            System::Opec(b) => b.name(),
            System::Aces => "armv7m",
        }
    }
}

/// One (firmware, system, backend) run.
pub struct Row {
    pub firmware: &'static str,
    pub system: System,
    pub insts: u64,
    pub cycles: u64,
    pub switches: u64,
    pub run_secs: f64,
    pub base_cycles: u64,
    pub monitor: Option<MonitorStats>,
    pub machine: MachineStats,
    pub devices: usize,
    /// Traced runs only: hook times and the per-call device-tick cost.
    pub hooks: Option<HookTimes>,
    pub tick_ns: Option<f64>,
    /// Host seconds the device-tick probe took (tracing cost).
    pub probe_secs: f64,
}

impl Row {
    /// The guest counts a traced run must reproduce exactly.
    pub fn guest_counts(&self) -> (u64, u64, u64) {
        (self.insts, self.cycles, self.switches)
    }
}

/// Every (system, backend) a firmware runs under, in row order.
pub fn systems(b: &Built) -> Vec<System> {
    let mut s: Vec<System> = FleetBackend::ALL.iter().map(|&be| System::Opec(be)).collect();
    if b.aces.is_some() {
        s.push(System::Aces);
    }
    s
}

/// A fresh machine for `system`, with the firmware's devices installed.
fn fresh_machine(b: &Built, system: System) -> Machine {
    let board = b.app.board;
    let mut m = match system {
        System::Opec(be) => be.dyn_backend().make_machine(board),
        System::Aces => Machine::new(board),
    };
    (b.app.setup)(&mut m);
    m
}

/// Host nanoseconds per `Machine::tick_devices` call on a freshly set
/// up machine for `system`.
fn tick_ns(b: &Built, system: System) -> f64 {
    let mut m = fresh_machine(b, system);
    let start = Instant::now();
    for _ in 0..TICK_PROBES {
        m.tick_devices(std::hint::black_box(1));
    }
    start.elapsed().as_nanos() as f64 / f64::from(TICK_PROBES)
}

/// Runs `b` under `system` to halt; `traced` wraps the supervisor in
/// [`Timed`] and probes the device-tick cost.
pub fn run_row(b: &Built, system: System, traced: bool) -> Result<Row, String> {
    let machine = fresh_machine(b, system);
    let done = match (system, traced) {
        (System::Opec(be), false) => run_to_halt(
            &b.app,
            machine,
            b.opec.clone(),
            OpecMonitor::with_backend(b.policy.clone(), be.dyn_backend()),
        ),
        (System::Opec(be), true) => run_to_halt(
            &b.app,
            machine,
            b.opec.clone(),
            Timed {
                inner: OpecMonitor::with_backend(b.policy.clone(), be.dyn_backend()),
                times: HookTimes::default(),
            },
        ),
        (System::Aces, _) => {
            let a = b.aces.as_ref().expect("ACES rows exist only for ACES builds");
            let rt = AcesRuntime::new(
                &a.image.module,
                a.comps.clone(),
                a.regions.clone(),
                b.app.board,
                a.stack,
                a.main_comp,
            );
            if traced {
                let timed = Timed { inner: rt, times: HookTimes::default() };
                run_to_halt(&b.app, machine, a.image.clone(), timed)
            } else {
                run_to_halt(&b.app, machine, a.image.clone(), rt)
            }
        }
    }?;
    let probe = Instant::now();
    let tick_ns = traced.then(|| tick_ns(b, system));
    let probe_secs = if traced { probe.elapsed().as_secs_f64() } else { 0.0 };
    Ok(Row {
        firmware: b.app.name,
        system,
        insts: done.insts,
        cycles: done.cycles,
        switches: done.switches,
        run_secs: done.run_secs,
        base_cycles: b.base_cycles,
        monitor: done.monitor,
        machine: done.machine,
        devices: done.devices,
        hooks: done.hooks,
        tick_ns,
        probe_secs,
    })
}
