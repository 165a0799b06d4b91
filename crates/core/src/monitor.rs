//! OPEC-Monitor: the privileged runtime (paper Section 5).
//!
//! Implements [`opec_vm::Supervisor`] over a [`SystemPolicy`]:
//!
//! * **Initialisation** (§5.1) — copies initial values into every
//!   shadow copy, points the relocation table at the `main` operation,
//!   programs the MPU (regions 0–3 plus up to four peripheral regions),
//!   and drops to the unprivileged level.
//! * **Operation switch** (§5.3) — on enter: sanitize + write back the
//!   outgoing operation's shadows to the public section, pull the
//!   incoming operation's shadows from it, rewrite the relocation table,
//!   redirect pointer fields that still point into other operations'
//!   sections, relocate stack-passed data into the incoming operation's
//!   stack sub-regions, and reload the MPU. On exit: the mirror image,
//!   plus copying relocated buffers back (Figure 8(e)).
//! * **MPU virtualization** (§5.2) — a protection fault on an address
//!   inside the operation's peripheral allow list swaps the window into
//!   one of the backend's reserved slots (round-robin) and retries;
//!   anything else is a genuine violation and aborts.
//! * **Core-peripheral emulation** (§5.2) — a bus fault from an
//!   unprivileged PPB access is served by fetching the faulting Thumb-2
//!   instruction from Flash, decoding it, checking the address against
//!   the operation's core-peripheral allow list, and performing the
//!   access at the privileged level.
//!
//! All monitor work charges the machine clock so the runtime overhead
//! it induces is visible to the DWT-based measurement.
//!
//! The monitor is backend-generic: all protection-unit programming goes
//! through [`Backend`] (fault classification, stack boundaries) and its
//! [`RegionPlan`] (switch-path reprogramming, virtualization), so the
//! same monitor code enforces OPEC on the ARMv7-M MPU and on the
//! RISC-V PMP.

use std::sync::Arc;

use opec_armv7m::clock::costs;
use opec_armv7m::thumb::{LdStInst, LdStOp};
use opec_armv7m::{FaultInfo, Machine, Mode};
use opec_ir::GlobalId;
use opec_obs::{Access, Event, Obs};
use opec_vm::{CpuContext, FaultFixup, OpId, Supervisor, SwitchRequest, TrapCause, TrapError};

use crate::backend::{Armv7mBackend, Backend, FaultClass, RegionPlan};
use crate::layout::SystemPolicy;

/// Monitor-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Operation switches handled (enter events).
    pub switches: u64,
    /// Bytes synchronized through the public section.
    pub sync_bytes: u64,
    /// Sanitization range checks performed.
    pub sanitize_checks: u64,
    /// Protection-region virtualization faults served.
    pub virt_faults: u64,
    /// Protection registers written (MPU regions / PMP entries) across
    /// all reprogrammings — the raw material of the per-backend
    /// switch-cost comparison.
    pub prot_writes: u64,
    /// Core-peripheral load/store emulations performed.
    pub emulations: u64,
    /// Bytes relocated for stack protection.
    pub stack_reloc_bytes: u64,
    /// Pointer fields redirected during switches.
    pub ptr_redirects: u64,
}

#[derive(Debug, Clone)]
struct Relocation {
    orig: u32,
    copy: u32,
    size: u32,
    /// `(offset-in-copy, original word)` pairs restored before the
    /// copy-back, so deep-copied pointer fields return to the caller
    /// unchanged.
    fixups: Vec<(u32, u32)>,
}

#[derive(Debug, Clone)]
struct OpContext {
    op: OpId,
    /// Exclusive upper bound of the live stack `[stack.base, boundary)`
    /// granted to this operation (the backend turns it into sub-region
    /// masks or a TOR bound).
    boundary: u32,
    relocations: Vec<Relocation>,
}

/// The OPEC-Monitor runtime.
#[derive(Clone)]
pub struct OpecMonitor {
    /// Shared, immutable after construction: cloning a monitor (the
    /// snapshot/restore path does it per campaign) must not copy the
    /// whole policy.
    policy: Arc<SystemPolicy>,
    /// The protection backend all unit programming dispatches through.
    backend: Arc<dyn Backend>,
    /// The backend's precomputed region plan for `policy`.
    plan: Arc<dyn RegionPlan>,
    ctx: Vec<OpContext>,
    rr: usize,
    /// Which peripheral window (index into the current operation's
    /// `periph_windows`) each of the backend's reserved slots holds.
    /// Reset whenever the full region file is reprogrammed.
    virt_slots: Vec<Option<u8>>,
    obs: Obs,
    /// Counters for the evaluation.
    pub stats: MonitorStats,
}

impl OpecMonitor {
    /// Creates a monitor enforcing `policy` on the paper's platform
    /// (the ARMv7-M MPU backend).
    pub fn new(policy: SystemPolicy) -> OpecMonitor {
        OpecMonitor::with_backend(policy, Arc::new(Armv7mBackend))
    }

    /// Creates a monitor enforcing `policy` through `backend`.
    pub fn with_backend(policy: SystemPolicy, backend: Arc<dyn Backend>) -> OpecMonitor {
        let policy = Arc::new(policy);
        let plan = backend.plan(&policy);
        let slots = backend.virt_slots();
        OpecMonitor {
            policy,
            backend,
            plan,
            ctx: Vec::new(),
            rr: 0,
            virt_slots: vec![None; slots],
            obs: Obs::disabled(),
            stats: MonitorStats::default(),
        }
    }

    /// The currently executing operation.
    pub fn current_op(&self) -> OpId {
        self.ctx.last().map(|c| c.op).unwrap_or(0)
    }

    /// Read access to the enforced policy.
    pub fn policy(&self) -> &SystemPolicy {
        &self.policy
    }

    /// The protection backend this monitor programs.
    pub fn backend(&self) -> &Arc<dyn Backend> {
        &self.backend
    }

    fn priv_copy(
        &mut self,
        machine: &mut Machine,
        from: u32,
        to: u32,
        size: u32,
    ) -> Result<(), String> {
        let mut off = 0;
        while off < size {
            let chunk = if size - off >= 4 { 4 } else { 1 };
            let v = machine
                .load(from + off, chunk, Mode::Privileged)
                .map_err(|e| format!("monitor copy load fault: {}", e.name()))?;
            machine
                .store(to + off, chunk, v, Mode::Privileged)
                .map_err(|e| format!("monitor copy store fault: {}", e.name()))?;
            off += chunk;
            machine.clock.tick(costs::COPY_WORD);
        }
        self.stats.sync_bytes += u64::from(size);
        Ok(())
    }

    /// Sanitize + write back `op`'s shadows to the public section.
    fn sync_out(&mut self, machine: &mut Machine, op: OpId) -> Result<(), TrapError> {
        let shared = self.policy.op(op).shared.clone();
        for sv in shared {
            if let Some((lo, hi)) = sv.range {
                self.stats.sanitize_checks += 1;
                machine.clock.tick(costs::SANITIZE_CHECK);
                let chunk = sv.size.min(4);
                let v = machine
                    .load(sv.shadow_addr, chunk, Mode::Privileged)
                    .map_err(|e| format!("sanitize load fault: {}", e.name()))?;
                if v < lo || v > hi {
                    return Err(TrapError::new(
                        op,
                        TrapCause::Sanitization {
                            var: global_name(&self.policy, sv.global, machine),
                            value: v,
                            lo: i64::from(lo),
                            hi: i64::from(hi),
                        },
                    ));
                }
            }
            self.priv_copy(machine, sv.shadow_addr, sv.public_addr, sv.size)?;
        }
        Ok(())
    }

    /// Pull `op`'s shadows from the public section.
    fn sync_in(&mut self, machine: &mut Machine, op: OpId) -> Result<(), String> {
        let shared = self.policy.op(op).shared.clone();
        for sv in shared {
            self.priv_copy(machine, sv.public_addr, sv.shadow_addr, sv.size)?;
        }
        Ok(())
    }

    /// Point every relocation-table entry at `op`'s copy (shadow if the
    /// operation shares the variable, the public master otherwise).
    fn update_reloc_table(&mut self, machine: &mut Machine, op: OpId) -> Result<(), String> {
        let entries: Vec<(GlobalId, u32)> =
            self.policy.reloc_entries.iter().map(|(g, a)| (*g, *a)).collect();
        for (g, entry_addr) in entries {
            let target =
                self.policy.shadow_addr(op, g).unwrap_or_else(|| self.policy.public_addrs[&g]);
            machine
                .store(entry_addr, 4, target, Mode::Privileged)
                .map_err(|e| format!("reloc table store fault: {}", e.name()))?;
            machine.clock.tick(costs::MEM);
        }
        Ok(())
    }

    /// If `addr` lands inside some copy (shadow or public master) of an
    /// external variable, return the variable and the offset within it.
    fn locate_external(&self, addr: u32) -> Option<(GlobalId, u32)> {
        for op in &self.policy.ops {
            for sv in &op.shared {
                if addr >= sv.shadow_addr && addr < sv.shadow_addr + sv.size {
                    return Some((sv.global, addr - sv.shadow_addr));
                }
            }
        }
        for (g, base) in &self.policy.public_addrs {
            if !self.policy.reloc_entries.contains_key(g) {
                continue;
            }
            // Size lookup via any sharer's record.
            if let Some(size) = self
                .policy
                .ops
                .iter()
                .flat_map(|o| o.shared.iter())
                .find(|sv| sv.global == *g)
                .map(|sv| sv.size)
            {
                if addr >= *base && addr < *base + size {
                    return Some((*g, addr - *base));
                }
            }
        }
        None
    }

    /// Rewrite pointer fields of `op`'s shared variables that point into
    /// another operation's shadow (or the public master) of an external
    /// variable, so they reference `op`'s own copy (paper §5.3).
    fn redirect_pointer_fields(&mut self, machine: &mut Machine, op: OpId) -> Result<(), String> {
        let shared = self.policy.op(op).shared.clone();
        for sv in shared {
            for &field in &sv.ptr_fields {
                let slot = sv.shadow_addr + field;
                let ptr = machine
                    .load(slot, 4, Mode::Privileged)
                    .map_err(|e| format!("ptr field load fault: {}", e.name()))?;
                machine.clock.tick(costs::MEM);
                if let Some((g, off)) = self.locate_external(ptr) {
                    let target = self
                        .policy
                        .shadow_addr(op, g)
                        .unwrap_or_else(|| self.policy.public_addrs[&g])
                        + off;
                    if target != ptr {
                        machine
                            .store(slot, 4, target, Mode::Privileged)
                            .map_err(|e| format!("ptr field store fault: {}", e.name()))?;
                        machine.clock.tick(costs::MEM);
                        self.stats.ptr_redirects += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// Program the protection unit for `op` with the live stack
    /// `[stack.base, boundary)`.
    fn apply_protection(
        &mut self,
        machine: &mut Machine,
        op: OpId,
        boundary: u32,
    ) -> Result<(), String> {
        // The first `virt_slots()` peripheral covers are preloaded
        // index-aligned into the reserved slots (the backend contract);
        // the virtualization bookkeeping must match what the region
        // file now holds.
        let slots = self.backend.virt_slots();
        self.virt_slots = vec![None; slots];
        for i in 0..self.policy.op(op).periph_covers.len().min(slots) {
            self.virt_slots[i] = Some(i as u8);
        }
        let writes = self.plan.op_write_count(op);
        machine.clock.tick(self.backend.write_cost() * u64::from(writes));
        self.obs.set_now(machine.clock.now());
        self.plan.apply_op(machine, op, boundary)?;
        self.stats.prot_writes += u64::from(writes);
        Ok(())
    }

    /// Stack relocation on entry (paper Figure 8): copy stack-passed
    /// arguments and pointed-to buffers below the backend's stack
    /// boundary, rewrite the pointer arguments, move SP, and return the
    /// boundary protecting previous frames.
    fn relocate_stack(
        &mut self,
        machine: &mut Machine,
        req: &mut SwitchRequest<'_>,
    ) -> Result<(u32, Vec<Relocation>), TrapError> {
        let op = req.op;
        let bad = move |detail: String| TrapError::new(op, TrapCause::BadSwitch { detail });
        let stack = self.policy.stack;
        let sp = *req.sp;
        if sp < stack.base || sp > stack.end() {
            return Err(bad(format!("stack pointer {sp:#010x} outside the stack window")));
        }
        // The backend rounds SP down to its protection granularity
        // (ARM: a sub-region multiple; PMP: a word). `None` means the
        // incoming operation would have no usable live stack.
        let Some(boundary) = self.backend.stack_boundary(stack, sp) else {
            return Err(bad(format!(
                "no live stack available for operation {}",
                self.policy.op(req.op).name
            )));
        };
        let mut cursor = boundary;
        let mut relocations = Vec::new();
        // Copy the stack-passed argument block.
        // Every downward move of the relocation cursor is checked
        // against the stack base: a (possibly corrupted) oversized
        // argument must become a typed abort, not an underflow panic.
        let lower = |cursor: u32, size: u32| -> Result<u32, TrapError> {
            match cursor.checked_sub(size) {
                Some(c) if c >= stack.base => Ok(c & !3),
                _ => Err(bad(format!(
                    "stack relocation of {size:#x} bytes exhausts the stack window"
                ))),
            }
        };
        if let Some(args_addr) = req.stack_args_addr {
            let bytes = 4 * req.n_stack_args;
            if bytes > 0 {
                cursor = lower(cursor, bytes)?;
                self.priv_copy(machine, args_addr, cursor, bytes)?;
                self.stats.stack_reloc_bytes += u64::from(bytes);
            }
        }
        // Copy pointed-to data that lives in the now-disabled stack
        // area. `Buffer` arguments are flat copies; `Nested` arguments
        // are deep-copied one level (object + the buffers its pointer
        // fields reference), with the copied fields fixed up — the
        // paper's future-work extension.
        let arg_infos = self.policy.op(req.op).args.clone();
        let needs_reloc = |ptr: u32| stack.contains(ptr) && ptr >= boundary;
        for (i, info) in arg_infos.iter().enumerate() {
            let Some(ptr) = req.args.get(i).copied() else { continue };
            match info {
                crate::spec::ArgInfo::Value => {}
                crate::spec::ArgInfo::Buffer { size } => {
                    if !needs_reloc(ptr) {
                        continue;
                    }
                    cursor = lower(cursor, *size)?;
                    self.priv_copy(machine, ptr, cursor, *size)?;
                    self.stats.stack_reloc_bytes += u64::from(*size);
                    relocations.push(Relocation {
                        orig: ptr,
                        copy: cursor,
                        size: *size,
                        fixups: Vec::new(),
                    });
                    req.args[i] = cursor;
                }
                crate::spec::ArgInfo::Nested { size, fields } => {
                    if !needs_reloc(ptr) {
                        continue;
                    }
                    // 1. Relocate the object itself.
                    cursor = lower(cursor, *size)?;
                    let obj_copy = cursor;
                    self.priv_copy(machine, ptr, obj_copy, *size)?;
                    self.stats.stack_reloc_bytes += u64::from(*size);
                    // 2. Relocate each pointed-to buffer and fix the
                    //    copied field up, remembering the original
                    //    value so exit can restore it before copying
                    //    the object back.
                    let mut fixups = Vec::new();
                    for (field_off, pointee_size) in fields {
                        let field_addr = obj_copy + field_off;
                        let inner = machine
                            .load(field_addr, 4, Mode::Privileged)
                            .map_err(|e| format!("deep-copy field load: {}", e.name()))?;
                        machine.clock.tick(costs::MEM);
                        if !needs_reloc(inner) {
                            continue;
                        }
                        cursor = lower(cursor, *pointee_size)?;
                        self.priv_copy(machine, inner, cursor, *pointee_size)?;
                        self.stats.stack_reloc_bytes += u64::from(*pointee_size);
                        relocations.push(Relocation {
                            orig: inner,
                            copy: cursor,
                            size: *pointee_size,
                            fixups: Vec::new(),
                        });
                        machine
                            .store(field_addr, 4, cursor, Mode::Privileged)
                            .map_err(|e| format!("deep-copy field store: {}", e.name()))?;
                        machine.clock.tick(costs::MEM);
                        fixups.push((*field_off, inner));
                        self.stats.ptr_redirects += 1;
                    }
                    relocations.push(Relocation { orig: ptr, copy: obj_copy, size: *size, fixups });
                    req.args[i] = obj_copy;
                }
            }
        }
        *req.sp = cursor & !7;
        Ok((boundary, relocations))
    }
}

fn global_name(policy: &SystemPolicy, g: GlobalId, _machine: &Machine) -> String {
    // Policies do not carry names; fall back to the id. The pipeline's
    // callers have the module for pretty diagnostics.
    let _ = policy;
    format!("global g{}", g.0)
}

impl Supervisor for OpecMonitor {
    fn attach_obs(&mut self, obs: &Obs) {
        self.obs = obs.clone();
    }

    fn on_reset(&mut self, machine: &mut Machine) -> Result<(), TrapError> {
        // Shadow-copy initialisation: every operation's shadows start
        // from the public masters (which the image's .data staging
        // filled with the initial values).
        let ops: Vec<OpId> = self.policy.ops.iter().map(|o| o.id).collect();
        for op in ops {
            self.sync_in(machine, op)?;
        }
        // Relocation table and protection plan for the default (main)
        // operation; the whole stack is live at reset.
        let full = self.policy.stack.end();
        self.update_reloc_table(machine, 0)?;
        self.apply_protection(machine, 0, full)?;
        self.backend.enable(machine).map_err(TrapError::internal)?;
        // Drop privilege: application code runs unprivileged from here.
        machine.mode = Mode::Unprivileged;
        self.ctx = vec![OpContext { op: 0, boundary: full, relocations: Vec::new() }];
        Ok(())
    }

    fn on_operation_enter(
        &mut self,
        machine: &mut Machine,
        req: &mut SwitchRequest<'_>,
    ) -> Result<(), TrapError> {
        machine.clock.tick(costs::SWITCH_FIXED);
        self.stats.switches += 1;
        let from = self.current_op();
        let to = req.op;
        // A corrupted SVC can carry any operation id; reject it before
        // touching monitor state so the fault stays attributable to the
        // operation that issued the switch.
        if usize::from(to) >= self.policy.ops.len() {
            return Err(TrapError::new(
                from,
                TrapCause::BadSwitch { detail: format!("unknown operation id {to}") },
            ));
        }
        // Data synchronization through the public section (Figure 7).
        self.sync_out(machine, from)?;
        self.sync_in(machine, to)?;
        self.update_reloc_table(machine, to)?;
        self.redirect_pointer_fields(machine, to)?;
        // Pointer-type *arguments* that reference another operation's
        // shadow of a shared variable are redirected to the incoming
        // operation's copy — the same §5.3 mechanism applied to the
        // entry arguments the developer declared as pointers.
        let arg_infos = self.policy.op(to).args.clone();
        for (i, spec) in arg_infos.iter().enumerate() {
            if !spec.is_pointer() {
                continue;
            }
            let Some(ptr) = req.args.get(i).copied() else { continue };
            if let Some((g, off)) = self.locate_external(ptr) {
                let target =
                    self.policy.shadow_addr(to, g).unwrap_or_else(|| self.policy.public_addrs[&g])
                        + off;
                if target != ptr {
                    req.args[i] = target;
                    machine.clock.tick(costs::ALU);
                    self.stats.ptr_redirects += 1;
                }
            }
        }
        // Stack protection (Figure 8).
        let (boundary, relocations) = self.relocate_stack(machine, req)?;
        // Resource isolation: reload the protection unit for the new
        // operation.
        self.apply_protection(machine, to, boundary)?;
        self.ctx.push(OpContext { op: to, boundary, relocations });
        Ok(())
    }

    fn on_operation_exit(
        &mut self,
        machine: &mut Machine,
        req: &mut SwitchRequest<'_>,
    ) -> Result<(), TrapError> {
        machine.clock.tick(costs::SWITCH_FIXED);
        // Peek, don't pop: if sanitization (or any other step) fails,
        // the dead operation must still sit on top of the context stack
        // so a quarantine can identify and discard it.
        let leaving = self.ctx.last().cloned().ok_or_else(|| {
            TrapError::new(
                req.op,
                TrapCause::BadSwitch { detail: "operation exit without matching enter".into() },
            )
        })?;
        if leaving.op != req.op {
            return Err(TrapError::new(
                req.op,
                TrapCause::BadSwitch {
                    detail: format!(
                        "operation context mismatch: exiting {} but top of stack is {}",
                        req.op, leaving.op
                    ),
                },
            ));
        }
        let back_to = if self.ctx.len() >= 2 { self.ctx[self.ctx.len() - 2].op } else { 0 };
        // Write back and resynchronise (Figure 7(c)).
        self.sync_out(machine, leaving.op)?;
        self.sync_in(machine, back_to)?;
        self.update_reloc_table(machine, back_to)?;
        self.redirect_pointer_fields(machine, back_to)?;
        // Copy relocated data back to their original frames
        // (Figure 8(e)) — privileged, so the disabled sub-regions do
        // not stop the monitor. Deep-copied pointer fields are restored
        // to their original values first, so the caller's object comes
        // back intact.
        for r in &leaving.relocations {
            for (off, orig_val) in &r.fixups {
                machine
                    .store(r.copy + off, 4, *orig_val, Mode::Privileged)
                    .map_err(|e| format!("fixup restore: {}", e.name()))?;
                machine.clock.tick(costs::MEM);
            }
            let (copy, orig, size) = (r.copy, r.orig, r.size);
            self.priv_copy(machine, copy, orig, size)?;
        }
        // Everything fallible succeeded — retire the context.
        self.ctx.pop();
        // Restore the previous operation's protection view (saved
        // context).
        let boundary = self.ctx.last().map(|c| c.boundary).unwrap_or(self.policy.stack.end());
        self.apply_protection(machine, back_to, boundary)?;
        // Register clearing (the paper zeroes GP registers on exit; our
        // frames are private per call, so only the cost is modelled).
        machine.clock.tick(13 * costs::ALU);
        Ok(())
    }

    fn on_mem_fault(
        &mut self,
        machine: &mut Machine,
        fault: FaultInfo,
        _cpu: &mut CpuContext,
    ) -> FaultFixup {
        let op = self.current_op();
        if self.backend.fault_class(&fault) != FaultClass::Protection {
            return FaultFixup::Abort(TrapError::new(
                op,
                TrapCause::MemFault { address: fault.address },
            ));
        }
        // Protection-unit virtualization: is the address inside the
        // operation's peripheral allow list? Windows and their prepared
        // covers are index-aligned by construction (see
        // `layout::OpPolicy`), so the window's position selects the
        // cover directly — finding the cover by base address breaks
        // when several windows share one covering range.
        let widx = {
            let policy = self.policy.op(op);
            policy.periph_windows.iter().position(|w| w.contains(fault.address))
        };
        if let Some(widx) = widx {
            let slots = self.backend.virt_slots();
            let slot = self.rr % slots;
            self.rr += 1;
            // The hardware-facing slot label (absolute region/entry
            // number) the backend programs; events carry it so traces
            // stay comparable with real register dumps.
            let label = self.backend.virt_slot_label(slot);
            machine.clock.tick(self.backend.write_cost());
            self.obs.set_now(machine.clock.now());
            self.obs.emit(|| Event::VirtHit {
                op,
                address: fault.address,
                window: widx as u8,
                slot: label,
            });
            if let Some(old_window) = self.virt_slots[slot] {
                self.obs.emit(|| Event::VirtEvict {
                    op,
                    slot: label,
                    old_window,
                    new_window: widx as u8,
                });
            }
            self.virt_slots[slot] = Some(widx as u8);
            if let Err(e) = self.plan.virtualize(machine, op, widx, slot) {
                return FaultFixup::Abort(TrapError::new(
                    op,
                    TrapCause::Unrecoverable(format!("virtualization failed: {e}")),
                ));
            }
            self.stats.prot_writes += 1;
            self.stats.virt_faults += 1;
            return FaultFixup::Retry;
        }
        self.obs.emit_at(machine.clock.now(), || Event::VirtMiss {
            op,
            address: fault.address,
            write: fault.kind.is_write(),
        });
        FaultFixup::Abort(TrapError::new(
            op,
            TrapCause::PolicyDeniedMem { address: fault.address, write: fault.kind.is_write() },
        ))
    }

    fn on_bus_fault(
        &mut self,
        machine: &mut Machine,
        fault: FaultInfo,
        cpu: &mut CpuContext,
    ) -> FaultFixup {
        let op = self.current_op();
        let oops = |detail: String| {
            FaultFixup::Abort(TrapError::new(op, TrapCause::Unrecoverable(detail)))
        };
        if self.backend.fault_class(&fault) != FaultClass::ControlPriv {
            return FaultFixup::Abort(TrapError::new(
                op,
                TrapCause::BusFault { address: fault.address },
            ));
        }
        let allowed = self.policy.op(op).core_windows.iter().any(|w| w.contains(fault.address));
        if !allowed {
            return FaultFixup::Abort(TrapError::new(
                op,
                TrapCause::PolicyDeniedCore { address: fault.address },
            ));
        }
        // Fetch and decode the faulting instruction (real Thumb-2 words
        // are emitted into Flash by image generation).
        machine.clock.tick(costs::DECODE);
        let Some(word) = machine.peek(fault.pc, 4) else {
            return oops(format!("cannot fetch instruction at {:#010x}", fault.pc));
        };
        let inst = match LdStInst::decode(word) {
            Ok(i) => i,
            Err(e) => return oops(format!("emulation decode failed: {e}")),
        };
        let ea = inst.effective_address(cpu.reg(inst.rn));
        if ea != fault.address {
            return oops(format!(
                "emulation address mismatch: decoded {ea:#010x}, faulted {:#010x}",
                fault.address
            ));
        }
        let size = u32::from(inst.size);
        match inst.op {
            LdStOp::Load => match machine.load(ea, size, Mode::Privileged) {
                Ok(v) => cpu.set_reg(inst.rt, v),
                Err(e) => return oops(format!("emulated load failed: {}", e.name())),
            },
            LdStOp::Store => {
                let v = cpu.reg(inst.rt);
                if let Err(e) = machine.store(ea, size, v, Mode::Privileged) {
                    return oops(format!("emulated store failed: {}", e.name()));
                }
            }
        }
        self.stats.emulations += 1;
        self.obs.emit_at(machine.clock.now(), || Event::Emulated {
            op,
            address: ea,
            access: match inst.op {
                LdStOp::Load => Access::Load,
                LdStOp::Store => Access::Store,
            },
            size: inst.size,
            rt: inst.rt,
            rn: inst.rn,
        });
        FaultFixup::Emulated
    }

    fn on_quarantine(
        &mut self,
        machine: &mut Machine,
        op: OpId,
        resume_mode: &mut Mode,
    ) -> Result<(), TrapError> {
        machine.clock.tick(costs::SWITCH_FIXED);
        // Discard the dead operation's context. Its relocations are
        // deliberately NOT copied back and its shadows are NOT synced
        // out: the operation is compromised, so nothing it produced may
        // reach the public section or the caller's frames.
        if self.ctx.len() > 1 && self.ctx.last().map(|c| c.op) == Some(op) {
            self.ctx.pop();
        }
        let survivor = self.current_op();
        let boundary = self.ctx.last().map(|c| c.boundary).unwrap_or(self.policy.stack.end());
        self.update_reloc_table(machine, survivor)?;
        self.apply_protection(machine, survivor, boundary)?;
        // Application code resumes at the unprivileged level no matter
        // what mode the fault interrupted.
        *resume_mode = Mode::Unprivileged;
        Ok(())
    }
}

#[cfg(test)]
mod tests;
