//! The IR interpreter.
//!
//! Executes a [`LoadedImage`] over a [`Machine`], raising supervisor
//! events for operation switches and faults. See the crate docs for the
//! behavioural commitments.

use std::rc::Rc;
use std::sync::Arc;

use opec_armv7m::clock::costs;
use opec_armv7m::{Exception, Machine, MachineDelta, MachineSnapshot, Mode};
use opec_ir::module::{BinOp, UnOp};
use opec_ir::{FuncId, GlobalId, Inst, LocalId, Operand, RegId, Terminator};
use opec_obs::{Event, Obs};

use crate::decode::{decode_func, frame_layout, mem_cost, DecodedFunc, DecodedTerm, MicroOp};
use crate::image::{GlobalSlot, ImageError, LoadedImage, OpId};
use crate::inject::{InjectAction, InjectOutcome, Injector};
use crate::supervisor::{
    CpuContext, FaultFixup, NullSupervisor, Supervisor, SwitchKind, SwitchRequest, TrapCause,
    TrapError,
};
use crate::watch::{AccessKind, WatchedAccess, WatchedSwitch, Watcher};

/// Maps an instruction's value/address virtual registers onto the
/// architectural registers used in its emitted Thumb-2 encoding.
///
/// `rt` (the transfer register) is drawn from r0–r5 and `rn` (the base
/// register) from r6–r11, so the two never collide even for immediate
/// operands. Image generators and the VM must agree on this mapping:
/// the generator encodes the instruction word with these registers, and
/// the VM materialises the corresponding values into the
/// [`CpuContext`] before each access so a fault handler can decode and
/// emulate faithfully.
pub fn thumb_regs_for(value_reg: Option<RegId>, addr_reg: Option<RegId>) -> (u8, u8) {
    let rt = value_reg.map(|r| (r.0 % 6) as u8).unwrap_or(0);
    let rn = 6 + addr_reg.map(|r| (r.0 % 6) as u8).unwrap_or(0);
    (rt, rn)
}

/// Maps an injector action/outcome pair onto its compact event.
fn inject_event(action: &InjectAction, outcome: &InjectOutcome) -> Event {
    let kind = match action {
        InjectAction::FlipBit { .. } => opec_obs::InjectKind::FlipBit,
        InjectAction::HostileLoad { .. } => opec_obs::InjectKind::HostileLoad,
        InjectAction::HostileStore { .. } => opec_obs::InjectKind::HostileStore,
        InjectAction::SmashCallerStack { .. } => opec_obs::InjectKind::SmashCallerStack,
        InjectAction::CorruptNextSwitchOp { .. } => opec_obs::InjectKind::CorruptSwitchOp,
        InjectAction::CorruptNextSwitchArg { .. } => opec_obs::InjectKind::CorruptSwitchArg,
    };
    let verdict = match outcome {
        InjectOutcome::Applied => opec_obs::InjectVerdict::Applied,
        InjectOutcome::Skipped => opec_obs::InjectVerdict::Skipped,
        InjectOutcome::AccessOk { .. } => opec_obs::InjectVerdict::AccessOk,
        InjectOutcome::Trapped(_) => opec_obs::InjectVerdict::Trapped,
        InjectOutcome::Armed => opec_obs::InjectVerdict::Armed,
    };
    Event::Inject { kind, verdict }
}

/// Maps a trap verdict onto its compact event.
fn trap_event(trap: &TrapError) -> Event {
    let (kind, address) = match &trap.cause {
        TrapCause::PolicyDeniedMem { address, .. } => {
            (opec_obs::TrapKind::PolicyDeniedMem, *address)
        }
        TrapCause::PolicyDeniedCore { address } => (opec_obs::TrapKind::PolicyDeniedCore, *address),
        TrapCause::Sanitization { .. } => (opec_obs::TrapKind::Sanitization, 0),
        TrapCause::BadSwitch { .. } => (opec_obs::TrapKind::BadSwitch, 0),
        TrapCause::MemFault { address } => (opec_obs::TrapKind::MemFault, *address),
        TrapCause::BusFault { address } => (opec_obs::TrapKind::BusFault, *address),
        TrapCause::Unrecoverable(_) => (opec_obs::TrapKind::Unrecoverable, 0),
    };
    Event::Trap { op: trap.op, kind, address }
}

/// Why a run ended successfully.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The program executed a `halt` (the profiling stop point).
    Halted {
        /// Cycle count at the halt.
        cycles: u64,
    },
    /// `main` returned.
    Returned {
        /// `main`'s return value, if it produces one.
        value: Option<u32>,
        /// Cycle count at return.
        cycles: u64,
    },
}

impl RunOutcome {
    /// Cycles consumed by the run.
    pub fn cycles(&self) -> u64 {
        match self {
            RunOutcome::Halted { cycles } | RunOutcome::Returned { cycles, .. } => *cycles,
        }
    }
}

/// Why a run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum VmError {
    /// The supervisor terminated the program (security violation,
    /// sanitization failure, unrecoverable fault).
    Aborted {
        /// The typed verdict: which operation misbehaved and how.
        trap: TrapError,
        /// PC of the instruction that triggered the abort.
        pc: u32,
    },
    /// An indirect call did not land on a function.
    BadIndirectCall {
        /// The bogus target address.
        target: u32,
    },
    /// The fuel budget was exhausted.
    OutOfFuel,
    /// The wall-clock deadline (see [`Vm::set_deadline`]) passed. Fuel
    /// is the deterministic guest budget; the deadline is the host
    /// watchdog that bounds runs whose *host* cost per instruction is
    /// pathological.
    TimedOut,
    /// Call depth exceeded the frame limit.
    StackExhausted,
    /// Internal inconsistency (a bug in the image or VM).
    Internal(String),
}

impl core::fmt::Display for VmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VmError::Aborted { trap, pc } => write!(f, "aborted at {pc:#010x}: {trap}"),
            VmError::BadIndirectCall { target } => {
                write!(f, "indirect call to non-function address {target:#010x}")
            }
            VmError::OutOfFuel => write!(f, "fuel exhausted"),
            VmError::TimedOut => write!(f, "wall-clock deadline exceeded"),
            VmError::StackExhausted => write!(f, "frame limit exceeded"),
            VmError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for VmError {}

/// Execution counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Instructions executed.
    pub insts: u64,
    /// Direct + indirect calls performed.
    pub calls: u64,
    /// Operation switches (enter events).
    pub op_enters: u64,
    /// Faults resolved by `Retry` (MPU virtualization hits).
    pub faults_retried: u64,
    /// Faults resolved by `Emulated` (core-peripheral emulation hits).
    pub faults_emulated: u64,
    /// Explicit `svc` instructions executed.
    pub svcs: u64,
    /// Interrupt handler dispatches.
    pub irqs: u64,
    /// Operations killed and unwound under
    /// [`ContainmentMode::Quarantine`].
    pub quarantines: u64,
}

/// What the VM does with an [`FaultFixup::Abort`] verdict.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ContainmentMode {
    /// Terminate the run with [`VmError::Aborted`] (the paper's default
    /// response: the violation is fatal to the program).
    #[default]
    Terminate,
    /// Kill only the offending operation: unwind its frames, zero its
    /// result, notify the supervisor
    /// ([`Supervisor::on_quarantine`]) and keep executing the caller.
    /// Falls back to `Terminate` when no operation is active.
    Quarantine,
}

#[derive(Clone)]
struct Frame {
    func: FuncId,
    regs: Vec<u32>,
    block: usize,
    inst: usize,
    locals_base: u32,
    local_offsets: Vec<u32>,
    saved_sp: u32,
    ret_dst: Option<RegId>,
    op_call: Option<OpCall>,
    /// For interrupt frames: the thread mode to restore on return.
    irq_restore_mode: Option<Mode>,
}

#[derive(Clone)]
struct OpCall {
    op: u8,
    entry: FuncId,
    args: Vec<u32>,
    stack_args_addr: Option<u32>,
    n_stack_args: u32,
}

/// Which dispatch path [`Vm`] executes on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Pre-decoded micro-op dispatch (see [`crate::decode`]); blocks
    /// are lowered lazily on first execution. The default.
    #[default]
    Decoded,
    /// Interpret [`Inst`]s straight from the module. The reference
    /// semantics the decoded path is held to in lockstep checks.
    Plain,
}

/// Default instruction budget for [`Vm::run`].
pub const DEFAULT_FUEL: u64 = 200_000_000;
const MAX_FRAMES: usize = 256;

/// The virtual machine: machine + image + supervisor.
pub struct Vm<S: Supervisor> {
    /// The simulated microcontroller.
    pub machine: Machine,
    /// The program image. Shared (`Arc`) so campaign drivers can build
    /// many VMs — or lockstep pairs — over one image without cloning
    /// the module; mutate it only through [`Vm::patch_image`], which
    /// invalidates the decoded-block cache.
    pub image: Arc<LoadedImage>,
    /// The privileged runtime.
    pub supervisor: S,
    /// Architectural register mirror used by fault handlers.
    pub cpu: CpuContext,
    /// Execution counters.
    pub stats: VmStats,
    /// The observability handle events are emitted through (disabled
    /// unless a sink was attached at build time).
    pub obs: Obs,
    /// Log of every injected action and its outcome, in order.
    pub inject_log: Vec<(InjectAction, InjectOutcome)>,
    /// Verdicts of operations killed under
    /// [`ContainmentMode::Quarantine`], in order.
    pub contained: Vec<TrapError>,
    /// What to do when the supervisor aborts an operation.
    pub containment: ContainmentMode,
    injector: Option<Box<dyn Injector>>,
    watcher: Option<Box<dyn Watcher>>,
    pending_op_corrupt: Option<OpId>,
    pending_arg_corrupt: Vec<(usize, u32)>,
    sp: u32,
    frames: Vec<Frame>,
    irq_depth: u32,
    exec_mode: ExecMode,
    /// Host wall-clock watchdog: when set, the run loop returns
    /// [`VmError::TimedOut`] once `Instant::now()` passes it. Config,
    /// not state: snapshots do not capture it and restore does not
    /// touch it, exactly like the injector and the watcher.
    deadline: Option<std::time::Instant>,
    /// Lazily filled decoded-block cache, one entry per function.
    decoded: Vec<Option<Rc<DecodedFunc>>>,
    /// How many times this VM booted (reset + supervisor init + entry
    /// call). Campaign drivers assert this stays 1 per device when
    /// resetting via snapshots.
    boots: u64,
}

/// A cheap checkpoint of a [`Vm`], taken with [`Vm::snapshot`].
///
/// Captures the interpreter (frames, registers, stack pointer, pending
/// injections, logs, counters), the supervisor by clone, and the
/// machine via [`MachineSnapshot`] (dirty-page tracked memory). Not
/// captured: the image (restore never changes it — re-apply
/// [`Vm::patch_image`] yourself if you patched after snapshotting), the
/// injector and watcher (swap injectors with [`Vm::set_injector`]), and
/// the obs sinks (event streams are append-only; the restored clock
/// makes re-runs emit identical events).
pub struct VmSnapshot<S: Supervisor> {
    machine: MachineSnapshot,
    supervisor: S,
    cpu: CpuContext,
    stats: VmStats,
    inject_log: Vec<(InjectAction, InjectOutcome)>,
    contained: Vec<TrapError>,
    pending_op_corrupt: Option<OpId>,
    pending_arg_corrupt: Vec<(usize, u32)>,
    sp: u32,
    frames: Vec<Frame>,
    irq_depth: u32,
}

/// A parked logical device: the divergence of a running [`Vm`] from a
/// golden [`VmSnapshot`], captured by [`Vm::park`] and re-applied by
/// [`Vm::unpark`].
///
/// Where a [`VmSnapshot`] holds full golden memory copies, a delta
/// holds only the dirty pages ([`opec_armv7m::MachineDelta`]) plus the
/// interpreter registers and frames, so a fleet keeps thousands of
/// parked devices forked from one golden image at a few pages each.
pub struct VmDelta<S: Supervisor> {
    machine: MachineDelta,
    supervisor: S,
    cpu: CpuContext,
    stats: VmStats,
    inject_log: Vec<(InjectAction, InjectOutcome)>,
    contained: Vec<TrapError>,
    pending_op_corrupt: Option<OpId>,
    pending_arg_corrupt: Vec<(usize, u32)>,
    sp: u32,
    frames: Vec<Frame>,
    irq_depth: u32,
}

impl<S: Supervisor> VmDelta<S> {
    /// Bytes of dirty-page payload this parked device carries.
    pub fn page_bytes(&self) -> usize {
        self.machine.page_bytes()
    }
}

/// Staged configuration for a [`Vm`].
///
/// Everything that used to be poked in after construction — the
/// supervisor, a fault injector, tracing — is declared up front and
/// fixed for the VM's lifetime:
///
/// ```ignore
/// let vm = Vm::builder(machine, image)
///     .supervisor(monitor)
///     .injector(campaign)
///     .obs(Obs::single(recorder.clone()))
///     .build()?;
/// ```
///
/// [`VmBuilder::supervisor`] changes the builder's type parameter, so
/// the supervisor choice is part of the VM's type, as before. Without
/// it, [`build`](VmBuilder::build) yields the no-isolation baseline
/// (`Vm<NullSupervisor>`).
pub struct VmBuilder<S: Supervisor = NullSupervisor> {
    machine: Machine,
    image: Arc<LoadedImage>,
    supervisor: S,
    injector: Option<Box<dyn Injector>>,
    watcher: Option<Box<dyn Watcher>>,
    obs: Obs,
    containment: ContainmentMode,
    exec_mode: ExecMode,
    deadline: Option<std::time::Instant>,
}

impl Vm<NullSupervisor> {
    /// Starts building a VM over `machine` and `image`. The image may
    /// be owned or pre-shared (`Arc<LoadedImage>`): campaign drivers
    /// share one image across many VMs.
    pub fn builder(
        machine: Machine,
        image: impl Into<Arc<LoadedImage>>,
    ) -> VmBuilder<NullSupervisor> {
        VmBuilder {
            machine,
            image: image.into(),
            supervisor: NullSupervisor,
            injector: None,
            watcher: None,
            obs: Obs::disabled(),
            containment: ContainmentMode::Terminate,
            exec_mode: ExecMode::Decoded,
            deadline: None,
        }
    }
}

impl<S: Supervisor> VmBuilder<S> {
    /// Selects the privileged runtime (changes the VM's type).
    pub fn supervisor<T: Supervisor>(self, supervisor: T) -> VmBuilder<T> {
        VmBuilder {
            machine: self.machine,
            image: self.image,
            supervisor,
            injector: self.injector,
            watcher: self.watcher,
            obs: self.obs,
            containment: self.containment,
            exec_mode: self.exec_mode,
            deadline: self.deadline,
        }
    }

    /// Selects the dispatch path (defaults to [`ExecMode::Decoded`]).
    pub fn exec_mode(mut self, mode: ExecMode) -> VmBuilder<S> {
        self.exec_mode = mode;
        self
    }

    /// Attaches a fault injector, polled between instructions.
    pub fn injector(mut self, injector: Box<dyn Injector>) -> VmBuilder<S> {
        self.injector = Some(injector);
        self
    }

    /// Attaches a passive lockstep watcher (see [`Watcher`]); it
    /// observes resolved accesses and switches but never alters them.
    pub fn watcher(mut self, watcher: Box<dyn Watcher>) -> VmBuilder<S> {
        self.watcher = Some(watcher);
        self
    }

    /// Attaches an observability handle. The VM, the MPU model and the
    /// supervisor all emit into it; pass [`Obs::disabled`] (the
    /// default) for zero-cost operation.
    pub fn obs(mut self, obs: Obs) -> VmBuilder<S> {
        self.obs = obs;
        self
    }

    /// Sets what an abort verdict does (terminate vs. quarantine).
    pub fn containment(mut self, mode: ContainmentMode) -> VmBuilder<S> {
        self.containment = mode;
        self
    }

    /// Arms the host wall-clock watchdog (see [`Vm::set_deadline`]).
    pub fn deadline(mut self, deadline: std::time::Instant) -> VmBuilder<S> {
        self.deadline = Some(deadline);
        self
    }

    /// Programs the image into the machine, wires the observability
    /// handle through every layer, and yields a VM ready to
    /// [`run`](Vm::run).
    pub fn build(self) -> Result<Vm<S>, ImageError> {
        let VmBuilder {
            mut machine,
            image,
            mut supervisor,
            injector,
            watcher,
            obs,
            containment,
            exec_mode,
            deadline,
        } = self;
        image.load_into(&mut machine)?;
        machine.protection_mut().attach_obs(obs.clone());
        supervisor.attach_obs(&obs);
        let sp = image.stack.end();
        let num_funcs = image.module.funcs.len();
        Ok(Vm {
            machine,
            image,
            supervisor,
            cpu: CpuContext::default(),
            stats: VmStats::default(),
            obs,
            inject_log: Vec::new(),
            contained: Vec::new(),
            containment,
            injector,
            watcher,
            pending_op_corrupt: None,
            pending_arg_corrupt: Vec::new(),
            sp,
            frames: Vec::new(),
            irq_depth: 0,
            exec_mode,
            deadline,
            decoded: vec![None; num_funcs],
            boots: 0,
        })
    }
}

impl<S: Supervisor> Vm<S> {
    /// Current stack pointer (for tests and the monitor's assertions).
    pub fn sp(&self) -> u32 {
        self.sp
    }

    /// The innermost operation currently executing (0 = `main`).
    pub fn current_op(&self) -> OpId {
        self.frames.iter().rev().find_map(|f| f.op_call.as_ref().map(|oc| oc.op)).unwrap_or(0)
    }

    /// The name of the protection unit guarding this VM's machine
    /// (`"armv7m-mpu"` unless the machine was built with another).
    pub fn backend_name(&self) -> &'static str {
        self.machine.protection().name()
    }

    /// Notifies the watcher of one resolved checked access.
    fn watch_access(&mut self, kind: AccessKind, addr: u32, size: u8, allowed: bool) {
        let Some(mut w) = self.watcher.take() else { return };
        let acc = WatchedAccess {
            kind,
            addr,
            size,
            allowed,
            mode: self.machine.mode,
            op: self.current_op(),
            pc: self.machine.current_pc,
        };
        w.on_access(&self.machine, &acc);
        self.watcher = Some(w);
    }

    /// Notifies the watcher of one resolved operation switch.
    fn watch_switch(&mut self, sw: WatchedSwitch) {
        let Some(mut w) = self.watcher.take() else { return };
        w.on_switch(&self.machine, &sw);
        self.watcher = Some(w);
    }

    /// Runs the program from reset until halt, return of `main`, an
    /// error, or fuel exhaustion. Equivalent to [`Vm::boot`] followed by
    /// [`Vm::resume`].
    pub fn run(&mut self, fuel: u64) -> Result<RunOutcome, VmError> {
        let result = self.boot().and_then(|()| self.resume_inner(fuel));
        // Aggregators flush pending attribution and exporters close
        // open spans on this event, for clean and aborted runs alike.
        self.obs.emit_at(self.machine.clock.now(), || Event::RunEnd { insts: self.stats.insts });
        result
    }

    /// Performs the reset sequence — application privilege level,
    /// supervisor initialisation, call of the entry function — without
    /// executing any instructions. Campaign drivers boot once, take a
    /// [`Vm::snapshot`], and then restore + [`Vm::resume`] per seed.
    pub fn boot(&mut self) -> Result<(), VmError> {
        debug_assert!(self.frames.is_empty(), "boot on a VM with live frames");
        self.boots += 1;
        // Reset: start at the image's application privilege level; the
        // supervisor's initialisation (which performs its own work at
        // the privileged level explicitly) has the final word — OPEC
        // drops to unprivileged, ACES picks the main compartment's
        // level, the baseline stays as linked.
        self.machine.mode = self.image.app_mode;
        self.supervisor
            .on_reset(&mut self.machine)
            .map_err(|trap| VmError::Aborted { trap, pc: self.machine.current_pc })?;
        let entry = self.image.entry;
        self.push_call(entry, Vec::new(), None)
    }

    /// Continues execution of an already booted (or snapshot-restored)
    /// VM until halt, return of `main`, an error, or fuel exhaustion.
    pub fn resume(&mut self, fuel: u64) -> Result<RunOutcome, VmError> {
        let result = self.resume_inner(fuel);
        self.obs.emit_at(self.machine.clock.now(), || Event::RunEnd { insts: self.stats.insts });
        result
    }

    fn resume_inner(&mut self, fuel: u64) -> Result<RunOutcome, VmError> {
        let mut remaining = fuel;
        loop {
            if remaining == 0 {
                return Err(VmError::OutOfFuel);
            }
            remaining -= 1;
            // Interrupt dispatch between instructions (cheap check,
            // throttled to every 32 steps).
            if remaining & 31 == 0 {
                if let Err(e) = self.dispatch_irq() {
                    self.contain(e)?;
                    continue;
                }
                // Host wall-clock watchdog. Decoded spans stop at these
                // same boundaries, so both exec modes poll at identical
                // instruction counts; the extra 8k-instruction throttle
                // keeps the clock syscall off the fast path.
                if remaining & 8191 == 0 {
                    if let Some(deadline) = self.deadline {
                        if std::time::Instant::now() >= deadline {
                            return Err(VmError::TimedOut);
                        }
                    }
                }
            }
            // Fault injection between instructions.
            if self.injector.is_some() {
                if let Err(e) = self.apply_injections() {
                    self.contain(e)?;
                    continue;
                }
            }
            let step_result = if self.exec_mode == ExecMode::Decoded {
                // With no injector to poll, the decoded path may run a
                // whole straight-line span in one go — but only up to
                // the next IRQ poll point, so interrupt dispatch (and
                // therefore device timing and the event stream) lands
                // at exactly the same instruction boundaries as
                // single-stepping would.
                let span = if self.injector.is_some() {
                    1
                } else {
                    let until_irq_check = remaining % 32;
                    let span = if until_irq_check == 0 { 32 } else { until_irq_check as usize };
                    span.min(remaining as usize + 1)
                };
                let (executed, r) = self.step_decoded(span);
                remaining -= executed as u64 - 1;
                r
            } else {
                self.step_plain()
            };
            match step_result {
                Ok(StepResult::Continue) => {}
                Ok(StepResult::Halted) => {
                    return Ok(RunOutcome::Halted { cycles: self.machine.clock.now() })
                }
                Ok(StepResult::MainReturned(value)) => {
                    return Ok(RunOutcome::Returned { value, cycles: self.machine.clock.now() })
                }
                Err(e) => self.contain(e)?,
            }
        }
    }

    /// How many times this VM has booted (see [`Vm::boot`]).
    pub fn boots(&self) -> u64 {
        self.boots
    }

    /// Replaces (or removes) the fault injector. Campaign drivers call
    /// this between a snapshot restore and a [`Vm::resume`] so one
    /// booted device serves every seed.
    pub fn set_injector(&mut self, injector: Option<Box<dyn Injector>>) {
        self.injector = injector;
    }

    /// Arms (or disarms) the host wall-clock watchdog: once
    /// `Instant::now()` passes `deadline`, the run loop returns
    /// [`VmError::TimedOut`] at the next poll boundary (every 8192
    /// instructions, identically placed in both exec modes). Like the
    /// injector, the deadline is configuration: snapshots do not
    /// capture it and [`Vm::restore`] leaves it alone, so campaign
    /// drivers re-arm it per attempt.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.deadline = deadline;
    }

    /// Mutates the loaded image and drops every decoded block, so the
    /// next step re-decodes against the patched module. This is the
    /// only sanctioned way to change the image mid-run.
    pub fn patch_image(&mut self, patch: impl FnOnce(&mut LoadedImage)) {
        patch(Arc::make_mut(&mut self.image));
        self.invalidate_decoded();
    }

    /// Drops the decoded-block cache (re-filled lazily on execution).
    pub fn invalidate_decoded(&mut self) {
        for slot in &mut self.decoded {
            *slot = None;
        }
    }

    /// Decides what a run-loop error means under the containment mode:
    /// under [`ContainmentMode::Quarantine`] an [`VmError::Aborted`]
    /// with an active operation kills only that operation and the run
    /// continues (`Ok`); everything else terminates the run (`Err`).
    fn contain(&mut self, e: VmError) -> Result<(), VmError> {
        if let VmError::Aborted { trap, .. } = &e {
            self.obs.emit_at(self.machine.clock.now(), || trap_event(trap));
        }
        match e {
            VmError::Aborted { trap, pc } => {
                if self.containment == ContainmentMode::Quarantine && self.quarantine(&trap)? {
                    Ok(())
                } else {
                    Err(VmError::Aborted { trap, pc })
                }
            }
            other => Err(other),
        }
    }

    /// Unwinds the innermost active operation after a trap: pops its
    /// frames (restoring interrupted modes for any nested IRQ frames),
    /// restores the stack pointer, zeroes the operation's result in the
    /// caller, and gives the supervisor a privileged
    /// [`Supervisor::on_quarantine`] callback to drop its state for the
    /// dead operation. Returns `false` when no operation frame exists
    /// (the trap is then fatal).
    fn quarantine(&mut self, trap: &TrapError) -> Result<bool, VmError> {
        let Some(pos) = self.frames.iter().rposition(|f| f.op_call.is_some()) else {
            return Ok(false);
        };
        if pos == 0 {
            return Ok(false);
        }
        let mut op_frame = None;
        while self.frames.len() > pos {
            let f = self.frames.pop().expect("frame during unwind");
            if let Some(mode) = f.irq_restore_mode {
                self.machine.mode = mode;
                self.irq_depth = self.irq_depth.saturating_sub(1);
            }
            op_frame = Some(f);
        }
        let frame = op_frame.expect("operation frame during unwind");
        let op = frame.op_call.as_ref().map(|oc| oc.op).unwrap_or(0);
        self.sp = frame.saved_sp;
        self.notify_quarantine(op)?;
        self.obs.emit_at(self.machine.clock.now(), || Event::Quarantine { op });
        if let Some(dst) = frame.ret_dst {
            self.set_reg(dst, 0);
        }
        self.contained.push(trap.clone());
        self.stats.quarantines += 1;
        Ok(true)
    }

    /// Runs the privileged quarantine callback; its errors are fatal.
    fn notify_quarantine(&mut self, op: OpId) -> Result<(), VmError> {
        self.charge(costs::EXC_ENTRY);
        let mut resume_mode = self.machine.mode;
        self.machine.mode = Mode::Privileged;
        let result = self.supervisor.on_quarantine(&mut self.machine, op, &mut resume_mode);
        self.machine.mode = resume_mode;
        self.charge(costs::EXC_RETURN);
        if let Some(mut w) = self.watcher.take() {
            w.on_quarantine(&self.machine, op);
            self.watcher = Some(w);
        }
        result.map_err(|trap| VmError::Aborted { trap, pc: self.machine.current_pc })
    }

    /// Appends to the injection log and mirrors the entry into the
    /// event stream.
    fn log_inject(&mut self, action: InjectAction, outcome: InjectOutcome) {
        self.obs.emit_at(self.machine.clock.now(), || inject_event(&action, &outcome));
        self.inject_log.push((action, outcome));
    }

    /// Polls the injector and applies its actions. Hostile accesses go
    /// through the full checked pipeline; a trapped access surfaces as
    /// the corresponding [`VmError::Aborted`] (which the run loop then
    /// terminates or quarantines on).
    fn apply_injections(&mut self) -> Result<(), VmError> {
        let step = self.stats.insts;
        let op = self.current_op();
        let mut injector = self.injector.take().expect("injector present");
        let actions = injector.actions(step, op);
        self.injector = Some(injector);
        for action in actions {
            match action {
                InjectAction::FlipBit { addr, bit } => {
                    let outcome = if self.machine.flip_bit(addr, bit) {
                        InjectOutcome::Applied
                    } else {
                        InjectOutcome::Skipped
                    };
                    self.log_inject(action, outcome);
                }
                InjectAction::HostileLoad { addr, size } => {
                    match self.checked_load(addr, size, None, None) {
                        Ok(value) => {
                            self.log_inject(action, InjectOutcome::AccessOk { value });
                        }
                        Err(VmError::Aborted { trap, pc }) => {
                            self.log_inject(action, InjectOutcome::Trapped(trap.clone()));
                            return Err(VmError::Aborted { trap, pc });
                        }
                        Err(other) => return Err(other),
                    }
                }
                InjectAction::HostileStore { addr, size, value } => {
                    match self.checked_store(addr, size, value, None, None) {
                        Ok(()) => {
                            self.log_inject(action, InjectOutcome::AccessOk { value });
                        }
                        Err(VmError::Aborted { trap, pc }) => {
                            self.log_inject(action, InjectOutcome::Trapped(trap.clone()));
                            return Err(VmError::Aborted { trap, pc });
                        }
                        Err(other) => return Err(other),
                    }
                }
                InjectAction::SmashCallerStack { value } => {
                    // The innermost operation call whose caller left
                    // live data on the stack; `saved_sp` is the lowest
                    // address of that data, and under OPEC it always
                    // falls in the SRD-disabled sub-regions of the
                    // operation entered from it.
                    let target = self
                        .frames
                        .iter()
                        .rev()
                        .filter(|f| f.op_call.is_some())
                        .map(|f| f.saved_sp)
                        .find(|&sp| sp < self.image.stack.end());
                    let Some(addr) = target else {
                        self.log_inject(action, InjectOutcome::Skipped);
                        continue;
                    };
                    match self.checked_store(addr, 4, value, None, None) {
                        Ok(()) => {
                            self.log_inject(action, InjectOutcome::AccessOk { value });
                        }
                        Err(VmError::Aborted { trap, pc }) => {
                            self.log_inject(action, InjectOutcome::Trapped(trap.clone()));
                            return Err(VmError::Aborted { trap, pc });
                        }
                        Err(other) => return Err(other),
                    }
                }
                InjectAction::CorruptNextSwitchOp { bogus } => {
                    self.pending_op_corrupt = Some(bogus);
                    self.log_inject(action, InjectOutcome::Armed);
                }
                InjectAction::CorruptNextSwitchArg { index, value } => {
                    self.pending_arg_corrupt.push((index, value));
                    self.log_inject(action, InjectOutcome::Armed);
                }
            }
        }
        Ok(())
    }

    fn frame(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("no active frame")
    }

    fn reg(&self, r: RegId) -> u32 {
        self.frames.last().expect("no active frame").regs[r.0 as usize]
    }

    fn set_reg(&mut self, r: RegId, v: u32) {
        self.frame().regs[r.0 as usize] = v;
    }

    fn op_value(&self, op: &Operand) -> u32 {
        match op {
            Operand::Reg(r) => self.reg(*r),
            Operand::Imm(v) => *v,
        }
    }

    fn charge(&mut self, cycles: u64) {
        // Device-internal time (baud pacing, block busy periods, frame
        // gaps, capture delays) advances with CPU time.
        self.machine.charge(cycles);
    }

    /// Resolves the runtime address of a global, going through the
    /// relocation table when the image says so (and paying for the extra
    /// indirection, which is part of OPEC's measured overhead).
    fn global_addr(&mut self, g: GlobalId) -> Result<u32, VmError> {
        match self.image.global_slots[g.0 as usize] {
            GlobalSlot::Fixed(a) => Ok(a),
            GlobalSlot::Reloc { entry_addr } => {
                self.charge(costs::MEM);
                self.checked_load(entry_addr, 4, None, None)
            }
        }
    }

    fn local_addr(&self, l: LocalId) -> u32 {
        let f = self.frames.last().expect("no active frame");
        f.locals_base + f.local_offsets[l.0 as usize]
    }

    /// A load with full fault handling. `value_reg`/`addr_reg` are the
    /// virtual registers behind the access (for the Thumb-2 register
    /// mapping); pass `None` for internal accesses such as
    /// relocation-table reads.
    fn checked_load(
        &mut self,
        addr: u32,
        size: u8,
        value_reg: Option<RegId>,
        addr_reg: Option<RegId>,
    ) -> Result<u32, VmError> {
        let (rt, rn) = thumb_regs_for(value_reg, addr_reg);
        self.cpu.regs[rn as usize] = addr;
        let mut attempts = 0;
        loop {
            match self.machine.load(addr, u32::from(size), self.machine.mode) {
                Ok(v) => {
                    self.watch_access(AccessKind::Load, addr, size, true);
                    return Ok(v);
                }
                Err(exc) => {
                    attempts += 1;
                    if attempts > 2 {
                        let op = self.current_op();
                        self.watch_access(AccessKind::Load, addr, size, false);
                        return Err(VmError::Aborted {
                            trap: TrapError::new(
                                op,
                                TrapCause::Unrecoverable(format!(
                                    "repeated fault loading {addr:#010x}"
                                )),
                            ),
                            pc: self.machine.current_pc,
                        });
                    }
                    match self.dispatch_fault(exc)? {
                        FaultFixup::Retry => continue,
                        FaultFixup::Emulated => {
                            self.watch_access(AccessKind::Load, addr, size, true);
                            return Ok(self.cpu.regs[rt as usize]);
                        }
                        FaultFixup::Abort(trap) => {
                            self.watch_access(AccessKind::Load, addr, size, false);
                            return Err(VmError::Aborted { trap, pc: self.machine.current_pc });
                        }
                    }
                }
            }
        }
    }

    /// A store with full fault handling.
    fn checked_store(
        &mut self,
        addr: u32,
        size: u8,
        value: u32,
        value_reg: Option<RegId>,
        addr_reg: Option<RegId>,
    ) -> Result<(), VmError> {
        let (rt, rn) = thumb_regs_for(value_reg, addr_reg);
        self.cpu.regs[rn as usize] = addr;
        self.cpu.regs[rt as usize] = value;
        let mut attempts = 0;
        loop {
            match self.machine.store(addr, u32::from(size), value, self.machine.mode) {
                Ok(()) => {
                    self.watch_access(AccessKind::Store, addr, size, true);
                    return Ok(());
                }
                Err(exc) => {
                    attempts += 1;
                    if attempts > 2 {
                        let op = self.current_op();
                        self.watch_access(AccessKind::Store, addr, size, false);
                        return Err(VmError::Aborted {
                            trap: TrapError::new(
                                op,
                                TrapCause::Unrecoverable(format!(
                                    "repeated fault storing {addr:#010x}"
                                )),
                            ),
                            pc: self.machine.current_pc,
                        });
                    }
                    match self.dispatch_fault(exc)? {
                        FaultFixup::Retry => continue,
                        FaultFixup::Emulated => {
                            self.watch_access(AccessKind::Store, addr, size, true);
                            return Ok(());
                        }
                        FaultFixup::Abort(trap) => {
                            self.watch_access(AccessKind::Store, addr, size, false);
                            return Err(VmError::Aborted { trap, pc: self.machine.current_pc });
                        }
                    }
                }
            }
        }
    }

    fn dispatch_fault(&mut self, exc: Exception) -> Result<FaultFixup, VmError> {
        self.charge(costs::EXC_ENTRY);
        let saved_mode = self.machine.mode;
        self.machine.mode = Mode::Privileged;
        let fixup = match exc {
            Exception::MemManage(fi) => {
                self.supervisor.on_mem_fault(&mut self.machine, fi, &mut self.cpu)
            }
            Exception::BusFault(fi) => {
                self.supervisor.on_bus_fault(&mut self.machine, fi, &mut self.cpu)
            }
            other => FaultFixup::Abort(TrapError::internal(format!(
                "unrecoverable exception {}",
                other.name()
            ))),
        };
        self.machine.mode = saved_mode;
        self.charge(costs::EXC_RETURN);
        match &fixup {
            FaultFixup::Retry => self.stats.faults_retried += 1,
            FaultFixup::Emulated => self.stats.faults_emulated += 1,
            FaultFixup::Abort(_) => {}
        }
        Ok(fixup)
    }

    fn push_call(
        &mut self,
        callee: FuncId,
        mut args: Vec<u32>,
        ret_dst: Option<RegId>,
    ) -> Result<(), VmError> {
        if self.frames.len() >= MAX_FRAMES {
            return Err(VmError::StackExhausted);
        }
        self.charge(costs::CALL);
        self.stats.calls += 1;
        let saved_sp = self.sp;
        // Stack-passed arguments (beyond the first four).
        let n_stack_args = args.len().saturating_sub(4) as u32;
        let mut stack_args_addr = None;
        if n_stack_args > 0 {
            self.sp -= 4 * n_stack_args;
            let base = self.sp;
            stack_args_addr = Some(base);
            for i in 0..n_stack_args {
                self.charge(costs::MEM);
                let v = args[4 + i as usize];
                self.checked_store(base + 4 * i, 4, v, None, None)?;
            }
        }
        // Operation switch (the compiler-inserted SVC before the call).
        let mut op_call = None;
        if let Some(&op) = self.image.op_entries.get(&callee) {
            if self.supervisor.wants_switch(op) {
                // Armed switch corruptions (a tampered SVC number or
                // argument) fire here, before the supervisor sees the
                // request.
                let mut op = op;
                if let Some(bogus) = self.pending_op_corrupt.take() {
                    op = bogus;
                    self.log_inject(
                        InjectAction::CorruptNextSwitchOp { bogus },
                        InjectOutcome::Applied,
                    );
                }
                for (index, value) in std::mem::take(&mut self.pending_arg_corrupt) {
                    if index < args.len() {
                        args[index] = value;
                    }
                    self.log_inject(
                        InjectAction::CorruptNextSwitchArg { index, value },
                        InjectOutcome::Applied,
                    );
                }
                self.stats.op_enters += 1;
                let from = self.current_op();
                let insts = self.stats.insts;
                self.obs.emit_at(self.machine.clock.now(), || Event::SwitchBegin {
                    dir: opec_obs::Dir::Enter,
                    from,
                    to: op,
                    entry: callee.0,
                    insts,
                });
                let sp_before = self.sp;
                self.charge(costs::EXC_ENTRY);
                let saved_mode = self.machine.mode;
                self.machine.mode = Mode::Privileged;
                let mut app_mode = saved_mode;
                let mut req = SwitchRequest {
                    kind: SwitchKind::Enter,
                    entry: callee,
                    op,
                    args: &mut args,
                    stack_args_addr,
                    n_stack_args,
                    sp: &mut self.sp,
                    app_mode: &mut app_mode,
                };
                let result = self.supervisor.on_operation_enter(&mut self.machine, &mut req);
                self.machine.mode = app_mode;
                self.charge(costs::EXC_RETURN);
                let ok = result.is_ok();
                self.obs.emit_at(self.machine.clock.now(), || Event::SwitchEnd {
                    dir: opec_obs::Dir::Enter,
                    from,
                    to: op,
                    entry: callee.0,
                    ok,
                });
                self.watch_switch(WatchedSwitch {
                    kind: SwitchKind::Enter,
                    from,
                    to: op,
                    entry: callee,
                    ok,
                    sp_before,
                    sp_after: self.sp,
                });
                result.map_err(|trap| VmError::Aborted { trap, pc: self.machine.current_pc })?;
                op_call = Some(OpCall {
                    op,
                    entry: callee,
                    args: args.clone(),
                    stack_args_addr,
                    n_stack_args,
                });
            }
        }
        // Allocate stack locals.
        let (local_offsets, locals_size) = frame_layout(&self.image.module, callee);
        self.sp -= locals_size;
        let locals_base = self.sp;
        let num_regs = self.image.module.func(callee).num_regs as usize;
        let mut regs = vec![0u32; num_regs];
        for (i, v) in args.iter().enumerate().take(num_regs) {
            regs[i] = *v;
        }
        if self.watcher.is_some() {
            let wop = op_call.as_ref().map(|oc| oc.op).unwrap_or_else(|| self.current_op());
            let mode = self.machine.mode;
            let mut w = self.watcher.take().expect("watcher present");
            w.on_func_enter(&self.machine, wop, callee, mode);
            self.watcher = Some(w);
        }
        self.obs.emit_at(self.machine.clock.now(), || Event::FuncEnter { func: callee.0 });
        self.frames.push(Frame {
            func: callee,
            regs,
            block: 0,
            inst: 0,
            locals_base,
            local_offsets,
            saved_sp,
            ret_dst,
            op_call,
            irq_restore_mode: None,
        });
        Ok(())
    }

    /// Dispatches a pending device interrupt, if any: the handler runs
    /// at the privileged level on the current stack, like an ARMv7-M
    /// exception (handler mode), and is never an operation entry.
    fn dispatch_irq(&mut self) -> Result<(), VmError> {
        if self.irq_depth > 0 || self.image.irq_vector.is_empty() {
            return Ok(());
        }
        let vector = &self.image.irq_vector;
        let Some(handler) = self.machine.first_pending_irq(|dev| vector.get(dev).copied()) else {
            return Ok(());
        };
        self.stats.irqs += 1;
        self.irq_depth += 1;
        self.charge(costs::EXC_ENTRY);
        let restore = self.machine.mode;
        self.machine.mode = Mode::Privileged;
        self.push_call(handler, Vec::new(), None)?;
        self.frame().irq_restore_mode = Some(restore);
        Ok(())
    }

    fn pop_return(&mut self, value: Option<u32>) -> Result<Option<Option<u32>>, VmError> {
        self.charge(costs::RET);
        let frame = self.frames.pop().expect("return without frame");
        if let Some(restore) = frame.irq_restore_mode {
            // Exception return: drop back to thread mode.
            self.machine.mode = restore;
            self.irq_depth = self.irq_depth.saturating_sub(1);
            self.charge(costs::EXC_RETURN);
        }
        self.obs.emit_at(self.machine.clock.now(), || Event::FuncExit { func: frame.func.0 });
        // Operation exit (the compiler-inserted SVC after the call).
        if let Some(mut oc) = frame.op_call {
            let to = self.current_op();
            let insts = self.stats.insts;
            self.obs.emit_at(self.machine.clock.now(), || Event::SwitchBegin {
                dir: opec_obs::Dir::Exit,
                from: oc.op,
                to,
                entry: oc.entry.0,
                insts,
            });
            let sp_before = self.sp;
            self.charge(costs::EXC_ENTRY);
            let saved_mode = self.machine.mode;
            self.machine.mode = Mode::Privileged;
            let mut app_mode = saved_mode;
            let mut req = SwitchRequest {
                kind: SwitchKind::Exit,
                entry: oc.entry,
                op: oc.op,
                args: &mut oc.args,
                stack_args_addr: oc.stack_args_addr,
                n_stack_args: oc.n_stack_args,
                sp: &mut self.sp,
                app_mode: &mut app_mode,
            };
            let result = self.supervisor.on_operation_exit(&mut self.machine, &mut req);
            self.machine.mode = app_mode;
            self.charge(costs::EXC_RETURN);
            let ok = result.is_ok();
            self.obs.emit_at(self.machine.clock.now(), || Event::SwitchEnd {
                dir: opec_obs::Dir::Exit,
                from: oc.op,
                to,
                entry: oc.entry.0,
                ok,
            });
            self.watch_switch(WatchedSwitch {
                kind: SwitchKind::Exit,
                from: oc.op,
                to,
                entry: oc.entry,
                ok,
                sp_before,
                sp_after: self.sp,
            });
            if let Err(trap) = result {
                // An exit-time violation (sanitization failure, context
                // mismatch). The frame is already gone; under
                // quarantine the operation's result is poisoned to zero
                // and the caller resumes.
                if self.containment == ContainmentMode::Quarantine && !self.frames.is_empty() {
                    self.sp = frame.saved_sp;
                    self.notify_quarantine(oc.op)?;
                    self.obs.emit_at(self.machine.clock.now(), || trap_event(&trap));
                    self.obs.emit_at(self.machine.clock.now(), || Event::Quarantine { op: oc.op });
                    if let Some(dst) = frame.ret_dst {
                        self.set_reg(dst, 0);
                    }
                    self.contained.push(trap);
                    self.stats.quarantines += 1;
                    return Ok(None);
                }
                return Err(VmError::Aborted { trap, pc: self.machine.current_pc });
            }
        }
        self.sp = frame.saved_sp;
        if self.frames.is_empty() {
            return Ok(Some(value));
        }
        if let Some(dst) = frame.ret_dst {
            if let Some(v) = value {
                self.set_reg(dst, v);
            }
        }
        Ok(None)
    }

    /// The reference interpreter step: fetches the current [`Inst`]
    /// from the module by reference (no clones) and executes it.
    fn step_plain(&mut self) -> Result<StepResult, VmError> {
        self.stats.insts += 1;
        let (func, block, inst_idx) = {
            let f = self.frames.last().expect("no active frame");
            (f.func, f.block, f.inst)
        };
        let image = Arc::clone(&self.image);
        let b = &image.module.func(func).blocks[block];
        if inst_idx >= b.insts.len() {
            // Terminator.
            return self.exec_term(&b.term);
        }
        let inst = &b.insts[inst_idx];
        self.machine.current_pc = image.inst_addr(func, block, inst_idx);
        self.frame().inst += 1;
        if matches!(inst, Inst::Halt) {
            return Ok(StepResult::Halted);
        }
        self.exec_inst(inst)?;
        Ok(StepResult::Continue)
    }

    /// Executes up to `max` steps (instructions and terminators) on the
    /// decoded fast path and returns how many actually ran (always at
    /// least one) along with the final step result. Control transfers
    /// re-enter the outer loop so the straight-line run below always
    /// executes a single block's micro-ops.
    fn step_decoded(&mut self, max: usize) -> (usize, Result<StepResult, VmError>) {
        debug_assert!(max >= 1);
        let mut done = 0usize;
        'blocks: while done < max {
            let (func, block, mut idx) = {
                let f = self.frames.last().expect("no active frame");
                (f.func, f.block, f.inst)
            };
            let fi = func.0 as usize;
            if self.decoded[fi].is_none() {
                self.decoded[fi] = Some(Rc::new(decode_func(&self.image, func)));
            }
            // A cheap non-atomic clone pins the block for this span, so
            // micro-op execution below can borrow `self` freely.
            let df = Rc::clone(self.decoded[fi].as_ref().expect("decoded above"));
            let blk = &df.blocks[block];
            if idx >= blk.ops.len() {
                done += 1;
                self.stats.insts += 1;
                match self.exec_decoded_term(blk.term) {
                    Ok(StepResult::Continue) => continue,
                    other => return (done, other),
                }
            }
            // Straight-line span: stay inside this block until it ends,
            // the span budget runs out, or a call transfers control.
            // The frame's instruction pointer is written back only at
            // span exits (and before calls, which push a new frame on
            // top): nothing inside a straight-line run reads it.
            while done < max && idx < blk.ops.len() {
                // Pure register runs execute against a pinned top frame:
                // these ops touch only the frame's registers and the
                // clock, so the per-op frame lookup (and the shared
                // dispatch below) is skipped for the whole run. Charge
                // order mirrors `exec_inst` exactly.
                {
                    let machine = &mut self.machine;
                    let stats = &mut self.stats;
                    let frame = self.frames.last_mut().expect("no active frame");
                    let locals_base = frame.locals_base;
                    let regs = &mut frame.regs;
                    fn val(regs: &[u32], o: Operand) -> u32 {
                        match o {
                            Operand::Reg(r) => regs[r.0 as usize],
                            Operand::Imm(v) => v,
                        }
                    }
                    while done < max && idx < blk.ops.len() {
                        match blk.ops[idx] {
                            MicroOp::Mov { dst, src } => {
                                machine.current_pc = blk.pcs[idx];
                                machine.charge(costs::ALU);
                                regs[dst.0 as usize] = val(regs, src);
                            }
                            MicroOp::Un { dst, op, src } => {
                                machine.current_pc = blk.pcs[idx];
                                machine.charge(costs::ALU);
                                let v = val(regs, src);
                                regs[dst.0 as usize] = match op {
                                    UnOp::Neg => v.wrapping_neg(),
                                    UnOp::Not => !v,
                                };
                            }
                            MicroOp::Bin { dst, op, lhs, rhs } => {
                                machine.current_pc = blk.pcs[idx];
                                machine.charge(costs::ALU);
                                let a = val(regs, lhs);
                                let b = val(regs, rhs);
                                regs[dst.0 as usize] = eval_bin(op, a, b);
                            }
                            MicroOp::AddrImm { dst, addr } => {
                                machine.current_pc = blk.pcs[idx];
                                machine.charge(costs::ALU);
                                regs[dst.0 as usize] = addr;
                            }
                            MicroOp::AddrLocal { dst, off } => {
                                machine.current_pc = blk.pcs[idx];
                                machine.charge(costs::ALU);
                                regs[dst.0 as usize] = locals_base + off;
                            }
                            MicroOp::Nop => {
                                machine.current_pc = blk.pcs[idx];
                                machine.charge(costs::ALU);
                            }
                            _ => break,
                        }
                        stats.insts += 1;
                        done += 1;
                        idx += 1;
                    }
                }
                if done >= max || idx >= blk.ops.len() {
                    break;
                }
                // One op through the shared implementation (memory,
                // calls, SVCs — anything that needs more than the
                // frame's registers).
                let op = blk.ops[idx];
                self.machine.current_pc = blk.pcs[idx];
                self.stats.insts += 1;
                done += 1;
                idx += 1;
                if matches!(op, MicroOp::Call { .. } | MicroOp::CallInd { .. }) {
                    // The return must land on the instruction after the
                    // call, so the caller's pointer is synced before the
                    // callee's frame goes on top.
                    self.frames.last_mut().expect("no active frame").inst = idx;
                }
                match self.exec_micro_op(op, &df) {
                    Ok(MicroStep::Next) => {}
                    // A transfer pushed a new frame; its pointer must
                    // not be clobbered by this span's write-back.
                    Ok(MicroStep::Transfer) => continue 'blocks,
                    Ok(MicroStep::Halted) => {
                        self.frames.last_mut().expect("no active frame").inst = idx;
                        return (done, Ok(StepResult::Halted));
                    }
                    Err(e) => {
                        self.frames.last_mut().expect("no active frame").inst = idx;
                        return (done, Err(e));
                    }
                }
            }
            self.frames.last_mut().expect("no active frame").inst = idx;
        }
        (done, Ok(StepResult::Continue))
    }

    /// Executes one micro-op that needs more than the frame's registers
    /// (memory, calls, SVCs). Charge order, fault order and event
    /// emission mirror [`Vm::exec_inst`] exactly — the lockstep checks
    /// depend on it.
    fn exec_micro_op(&mut self, op: MicroOp, df: &DecodedFunc) -> Result<MicroStep, VmError> {
        match op {
            MicroOp::Mov { .. }
            | MicroOp::Un { .. }
            | MicroOp::Bin { .. }
            | MicroOp::AddrImm { .. }
            | MicroOp::AddrLocal { .. }
            | MicroOp::Nop => {
                unreachable!("register-only micro-ops run inline in `step_decoded`")
            }
            MicroOp::AddrReloc { dst, entry_addr, offset } => {
                self.charge(costs::ALU);
                self.charge(costs::MEM);
                let base = self.checked_load(entry_addr, 4, None, None)?;
                self.set_reg(dst, base + offset);
            }
            MicroOp::LoadFixed { dst, addr, size, cost } => {
                self.charge(u64::from(cost));
                let v = self.checked_load(addr, size, Some(dst), None)?;
                self.set_reg(dst, v);
            }
            MicroOp::StoreFixed { addr, value, size, cost } => {
                self.charge(u64::from(cost));
                let v = self.op_value(&value);
                let vreg = match value {
                    Operand::Reg(r) => Some(r),
                    Operand::Imm(_) => None,
                };
                self.checked_store(addr, size, v, vreg, None)?;
            }
            MicroOp::LoadReloc { dst, entry_addr, offset, size } => {
                self.charge(costs::MEM);
                let base = self.checked_load(entry_addr, 4, None, None)?;
                let addr = base + offset;
                self.charge(mem_cost(addr));
                let v = self.checked_load(addr, size, Some(dst), None)?;
                self.set_reg(dst, v);
            }
            MicroOp::StoreReloc { entry_addr, offset, value, size } => {
                self.charge(costs::MEM);
                let base = self.checked_load(entry_addr, 4, None, None)?;
                let addr = base + offset;
                self.charge(mem_cost(addr));
                let v = self.op_value(&value);
                let vreg = match value {
                    Operand::Reg(r) => Some(r),
                    Operand::Imm(_) => None,
                };
                self.checked_store(addr, size, v, vreg, None)?;
            }
            MicroOp::LoadInd { dst, addr, size } => {
                let a = self.op_value(&addr);
                self.charge(mem_cost(a));
                let areg = match addr {
                    Operand::Reg(r) => Some(r),
                    Operand::Imm(_) => None,
                };
                let v = self.checked_load(a, size, Some(dst), areg)?;
                self.set_reg(dst, v);
            }
            MicroOp::StoreInd { addr, value, size } => {
                let a = self.op_value(&addr);
                self.charge(mem_cost(a));
                let v = self.op_value(&value);
                let areg = match addr {
                    Operand::Reg(r) => Some(r),
                    Operand::Imm(_) => None,
                };
                let vreg = match value {
                    Operand::Reg(r) => Some(r),
                    Operand::Imm(_) => None,
                };
                self.checked_store(a, size, v, vreg, areg)?;
            }
            MicroOp::Call { dst, callee, args_start, args_len } => {
                let range = args_start as usize..(args_start + args_len) as usize;
                let vals: Vec<u32> = df.call_args[range].iter().map(|a| self.op_value(a)).collect();
                self.push_call(callee, vals, dst)?;
                return Ok(MicroStep::Transfer);
            }
            MicroOp::CallInd { dst, fptr, args_start, args_len } => {
                let target_addr = self.op_value(&fptr);
                let callee = self
                    .image
                    .func_at(target_addr)
                    .ok_or(VmError::BadIndirectCall { target: target_addr })?;
                let range = args_start as usize..(args_start + args_len) as usize;
                let vals: Vec<u32> = df.call_args[range].iter().map(|a| self.op_value(a)).collect();
                self.charge(costs::ALU); // blx register setup
                self.push_call(callee, vals, dst)?;
                return Ok(MicroStep::Transfer);
            }
            MicroOp::Memcpy { dst, src, len } => {
                let d = self.op_value(&dst);
                let s = self.op_value(&src);
                let n = self.op_value(&len);
                self.charge(u64::from(n));
                for i in 0..n {
                    let b = self.checked_load(s + i, 1, None, None)?;
                    self.checked_store(d + i, 1, b, None, None)?;
                }
            }
            MicroOp::Memset { dst, val, len } => {
                let d = self.op_value(&dst);
                let v = self.op_value(&val);
                let n = self.op_value(&len);
                self.charge(u64::from(n) / 2 + 1);
                for i in 0..n {
                    self.checked_store(d + i, 1, v & 0xFF, None, None)?;
                }
            }
            MicroOp::Svc { imm } => {
                self.stats.svcs += 1;
                self.charge(costs::EXC_ENTRY);
                let saved_mode = self.machine.mode;
                self.machine.mode = Mode::Privileged;
                let result = self.supervisor.on_svc(&mut self.machine, imm);
                self.machine.mode = saved_mode;
                self.charge(costs::EXC_RETURN);
                result.map_err(|trap| VmError::Aborted { trap, pc: self.machine.current_pc })?;
            }
            MicroOp::Halt => return Ok(MicroStep::Halted),
        }
        Ok(MicroStep::Next)
    }

    /// Executes a decoded terminator; mirrors [`Vm::exec_term`].
    fn exec_decoded_term(&mut self, term: DecodedTerm) -> Result<StepResult, VmError> {
        match term {
            DecodedTerm::Br { target } => {
                self.charge(costs::BRANCH_TAKEN);
                let f = self.frame();
                f.block = target;
                f.inst = 0;
                Ok(StepResult::Continue)
            }
            DecodedTerm::CondBr { cond, then_to, else_to } => {
                let c = self.op_value(&cond);
                let target = if c != 0 { then_to } else { else_to };
                self.charge(if c != 0 { costs::BRANCH_TAKEN } else { costs::BRANCH_NOT_TAKEN });
                let f = self.frame();
                f.block = target;
                f.inst = 0;
                Ok(StepResult::Continue)
            }
            DecodedTerm::Ret { value } => {
                let value = value.map(|op| self.op_value(&op));
                match self.pop_return(value)? {
                    Some(main_value) => Ok(StepResult::MainReturned(main_value)),
                    None => Ok(StepResult::Continue),
                }
            }
            DecodedTerm::Unreachable => Err(VmError::Internal(format!(
                "unreachable executed at {:#010x}",
                self.machine.current_pc
            ))),
        }
    }

    fn exec_term(&mut self, term: &Terminator) -> Result<StepResult, VmError> {
        match *term {
            Terminator::Br(t) => {
                self.charge(costs::BRANCH_TAKEN);
                let f = self.frame();
                f.block = t.0 as usize;
                f.inst = 0;
                Ok(StepResult::Continue)
            }
            Terminator::CondBr { cond, then_to, else_to } => {
                let c = self.op_value(&cond);
                let target = if c != 0 { then_to } else { else_to };
                self.charge(if c != 0 { costs::BRANCH_TAKEN } else { costs::BRANCH_NOT_TAKEN });
                let f = self.frame();
                f.block = target.0 as usize;
                f.inst = 0;
                Ok(StepResult::Continue)
            }
            Terminator::Ret(v) => {
                let value = v.map(|op| self.op_value(&op));
                match self.pop_return(value)? {
                    Some(main_value) => Ok(StepResult::MainReturned(main_value)),
                    None => Ok(StepResult::Continue),
                }
            }
            Terminator::Unreachable => Err(VmError::Internal(format!(
                "unreachable executed at {:#010x}",
                self.machine.current_pc
            ))),
        }
    }

    fn exec_inst(&mut self, inst: &Inst) -> Result<(), VmError> {
        match *inst {
            Inst::Mov { dst, src } => {
                self.charge(costs::ALU);
                let v = self.op_value(&src);
                self.set_reg(dst, v);
            }
            Inst::Un { dst, op, src } => {
                self.charge(costs::ALU);
                let v = self.op_value(&src);
                let r = match op {
                    UnOp::Neg => v.wrapping_neg(),
                    UnOp::Not => !v,
                };
                self.set_reg(dst, r);
            }
            Inst::Bin { dst, op, lhs, rhs } => {
                self.charge(costs::ALU);
                let a = self.op_value(&lhs);
                let b = self.op_value(&rhs);
                self.set_reg(dst, eval_bin(op, a, b));
            }
            Inst::AddrOfGlobal { dst, global, offset } => {
                self.charge(costs::ALU);
                let base = self.global_addr(global)?;
                self.set_reg(dst, base + offset);
            }
            Inst::AddrOfLocal { dst, local, offset } => {
                self.charge(costs::ALU);
                let a = self.local_addr(local) + offset;
                self.set_reg(dst, a);
            }
            Inst::AddrOfFunc { dst, func } => {
                self.charge(costs::ALU);
                let a = self.image.func_addrs[func.0 as usize];
                self.set_reg(dst, a);
            }
            Inst::LoadGlobal { dst, global, offset, size } => {
                let base = self.global_addr(global)?;
                let addr = base + offset;
                self.charge(mem_cost(addr));
                let v = self.checked_load(addr, size, Some(dst), None)?;
                self.set_reg(dst, v);
            }
            Inst::StoreGlobal { global, offset, value, size } => {
                let base = self.global_addr(global)?;
                let addr = base + offset;
                self.charge(mem_cost(addr));
                let v = self.op_value(&value);
                let vreg = match value {
                    Operand::Reg(r) => Some(r),
                    Operand::Imm(_) => None,
                };
                self.checked_store(addr, size, v, vreg, None)?;
            }
            Inst::Load { dst, addr, size } => {
                let a = self.op_value(&addr);
                self.charge(mem_cost(a));
                let areg = match addr {
                    Operand::Reg(r) => Some(r),
                    Operand::Imm(_) => None,
                };
                let v = self.checked_load(a, size, Some(dst), areg)?;
                self.set_reg(dst, v);
            }
            Inst::Store { addr, value, size } => {
                let a = self.op_value(&addr);
                self.charge(mem_cost(a));
                let v = self.op_value(&value);
                let areg = match addr {
                    Operand::Reg(r) => Some(r),
                    Operand::Imm(_) => None,
                };
                let vreg = match value {
                    Operand::Reg(r) => Some(r),
                    Operand::Imm(_) => None,
                };
                self.checked_store(a, size, v, vreg, areg)?;
            }
            Inst::Call { dst, callee, ref args } => {
                let vals: Vec<u32> = args.iter().map(|a| self.op_value(a)).collect();
                self.push_call(callee, vals, dst)?;
            }
            Inst::CallIndirect { dst, fptr, ref args, .. } => {
                let target_addr = self.op_value(&fptr);
                let callee = self
                    .image
                    .func_at(target_addr)
                    .ok_or(VmError::BadIndirectCall { target: target_addr })?;
                let vals: Vec<u32> = args.iter().map(|a| self.op_value(a)).collect();
                self.charge(costs::ALU); // blx register setup
                self.push_call(callee, vals, dst)?;
            }
            Inst::Memcpy { dst, src, len } => {
                let d = self.op_value(&dst);
                let s = self.op_value(&src);
                let n = self.op_value(&len);
                self.charge(u64::from(n));
                for i in 0..n {
                    let b = self.checked_load(s + i, 1, None, None)?;
                    self.checked_store(d + i, 1, b, None, None)?;
                }
            }
            Inst::Memset { dst, val, len } => {
                let d = self.op_value(&dst);
                let v = self.op_value(&val);
                let n = self.op_value(&len);
                self.charge(u64::from(n) / 2 + 1);
                for i in 0..n {
                    self.checked_store(d + i, 1, v & 0xFF, None, None)?;
                }
            }
            Inst::Svc { imm } => {
                self.stats.svcs += 1;
                self.charge(costs::EXC_ENTRY);
                let saved_mode = self.machine.mode;
                self.machine.mode = Mode::Privileged;
                let result = self.supervisor.on_svc(&mut self.machine, imm);
                self.machine.mode = saved_mode;
                self.charge(costs::EXC_RETURN);
                result.map_err(|trap| VmError::Aborted { trap, pc: self.machine.current_pc })?;
            }
            Inst::Halt => {
                // `step` intercepts Halt before dispatching here.
                return Err(VmError::Internal("halt reached exec_inst".into()));
            }
            Inst::Nop => {
                self.charge(costs::ALU);
            }
        }
        Ok(())
    }
}

enum StepResult {
    Continue,
    Halted,
    MainReturned(Option<u32>),
}

/// What one micro-op did with control flow.
enum MicroStep {
    /// Fall through to the next micro-op in the block.
    Next,
    /// Control transferred to another frame (call); re-resolve.
    Transfer,
    /// The profiling stop point executed.
    Halted,
}

impl<S: Supervisor> Vm<S> {
    /// Exposes total cycles (the DWT view).
    pub fn cycles(&self) -> u64 {
        self.machine.clock.now()
    }
}

impl<S: Supervisor + Clone> Vm<S> {
    /// Captures a [`VmSnapshot`] of the whole execution state and arms
    /// the machine's dirty-page tracking, so restores of this snapshot
    /// copy back only touched memory. Fails if a registered device does
    /// not support [`opec_armv7m::MmioDevice::clone_box`].
    pub fn snapshot(&mut self) -> Result<VmSnapshot<S>, String> {
        Ok(VmSnapshot {
            machine: self.machine.snapshot()?,
            supervisor: self.supervisor.clone(),
            cpu: self.cpu,
            stats: self.stats,
            inject_log: self.inject_log.clone(),
            contained: self.contained.clone(),
            pending_op_corrupt: self.pending_op_corrupt,
            pending_arg_corrupt: self.pending_arg_corrupt.clone(),
            sp: self.sp,
            frames: self.frames.clone(),
            irq_depth: self.irq_depth,
        })
    }

    /// Rolls the VM back to `snap`. Configuration (exec mode,
    /// containment, obs, watcher, injector) and the decoded-block cache
    /// are left as they are; the boot counter keeps counting, which is
    /// how campaign drivers assert device init ran exactly once.
    pub fn restore(&mut self, snap: &VmSnapshot<S>) {
        self.machine.restore(&snap.machine);
        self.supervisor = snap.supervisor.clone();
        self.cpu = snap.cpu;
        self.stats = snap.stats;
        self.inject_log.clone_from(&snap.inject_log);
        self.contained.clone_from(&snap.contained);
        self.pending_op_corrupt = snap.pending_op_corrupt;
        self.pending_arg_corrupt.clone_from(&snap.pending_arg_corrupt);
        self.sp = snap.sp;
        self.frames.clone_from(&snap.frames);
        self.irq_depth = snap.irq_depth;
    }

    /// Parks the VM: captures its divergence from the golden snapshot
    /// the machine's dirty-page tracking is armed against. The VM is
    /// left untouched (park is a read), and the dirty bitmap stays
    /// armed, so a following [`Vm::restore`] of the golden snapshot
    /// undoes exactly the parked pages. A fleet scheduler multiplexes
    /// thousands of logical devices over one resident VM this way:
    /// unpark, run a fuel quantum, park, restore to golden, next
    /// device.
    pub fn park(&mut self) -> Result<VmDelta<S>, String> {
        Ok(VmDelta {
            machine: self.machine.delta()?,
            supervisor: self.supervisor.clone(),
            cpu: self.cpu,
            stats: self.stats,
            inject_log: self.inject_log.clone(),
            contained: self.contained.clone(),
            pending_op_corrupt: self.pending_op_corrupt,
            pending_arg_corrupt: self.pending_arg_corrupt.clone(),
            sp: self.sp,
            frames: self.frames.clone(),
            irq_depth: self.irq_depth,
        })
    }

    /// Unparks a device: re-applies a [`VmDelta`] onto a VM freshly
    /// restored to the golden snapshot the delta was parked against.
    /// Fails on a snapshot-id mismatch rather than silently mixing two
    /// devices' memory.
    pub fn unpark(&mut self, delta: &VmDelta<S>) -> Result<(), String> {
        self.machine.apply_delta(&delta.machine)?;
        self.supervisor = delta.supervisor.clone();
        self.cpu = delta.cpu;
        self.stats = delta.stats;
        self.inject_log.clone_from(&delta.inject_log);
        self.contained.clone_from(&delta.contained);
        self.pending_op_corrupt = delta.pending_op_corrupt;
        self.pending_arg_corrupt.clone_from(&delta.pending_arg_corrupt);
        self.sp = delta.sp;
        self.frames.clone_from(&delta.frames);
        self.irq_depth = delta.irq_depth;
        Ok(())
    }
}

fn eval_bin(op: BinOp, a: u32, b: u32) -> u32 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        // DIV by zero yields 0 (a Cortex-M with DIV_0_TRP clear).
        BinOp::UDiv => a.checked_div(b).unwrap_or(0),
        BinOp::URem => a.checked_rem(b).unwrap_or(0),
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b),
        BinOp::Shr => a.wrapping_shr(b),
        BinOp::CmpEq => u32::from(a == b),
        BinOp::CmpNe => u32::from(a != b),
        BinOp::CmpLtU => u32::from(a < b),
        BinOp::CmpLtS => u32::from((a as i32) < (b as i32)),
    }
}

#[cfg(test)]
mod tests;
