//! The protection backend trait (multi-ISA isolation, ROADMAP item 3).
//!
//! OPEC's isolation argument is architecture-agnostic: operations,
//! shadowing and the access matrix are defined over abstract
//! compartments, and only the last mile — *programming a protection
//! unit so the hardware enforces the per-operation view* — is
//! ISA-specific. [`Backend`] captures exactly that last mile:
//!
//! * **Region-plan generation** is a per-backend strategy. The ARMv7-M
//!   MPU wants eight prioritised power-of-two regions and expresses the
//!   live-stack boundary by disabling sub-regions (rounding the
//!   boundary down to `stack.size / 8`); the RISC-V PMP wants sixteen
//!   lowest-wins TOR/NAPOT entries and expresses the stack boundary
//!   *exactly* with a TOR pair (granularity 4 bytes).
//!   [`Backend::plan`] precomputes a [`RegionPlan`] from a
//!   [`SystemPolicy`].
//! * **The switch path** ([`RegionPlan::apply_op`]) reprograms the unit
//!   at every operation switch; [`RegionPlan::virtualize`] serves the
//!   region-file-too-small case (MPU virtualization, §5.2) by swapping
//!   one peripheral window into a reserved slot.
//! * **Fault classification** ([`Backend::fault_class`]) folds machine
//!   faults to the backend-neutral [`FaultClass`] the monitor
//!   dispatches on.
//!
//! Both traits are object-safe: the monitor, oracle and evaluation hold
//! an `Arc<dyn Backend>` and an `Arc<dyn RegionPlan>`, so adding a
//! backend never touches them. The access-matrix oracle is
//! backend-independent by construction, which is what lets it check
//! that the isolation guarantees survive a port.

use std::sync::Arc;

use opec_armv7m::clock::costs;
use opec_armv7m::mpu::{region_size_for, MpuRegion, RegionAttr};
use opec_armv7m::{Board, FaultCause, FaultInfo, Machine, MemRegion};
use opec_vm::OpId;

use crate::layout::SystemPolicy;

/// Backend-neutral fault classification the monitor dispatches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// The protection unit denied the access (MPU MemManage / PMP
    /// access fault): a candidate for virtualization, otherwise a
    /// policy violation.
    Protection,
    /// Unprivileged access to privileged control space (ARM PPB bus
    /// fault / RISC-V CSR privilege trap): a candidate for core-
    /// peripheral load/store emulation.
    ControlPriv,
    /// Anything else (unmapped address, ...): never recoverable.
    Other,
}

impl From<FaultCause> for FaultClass {
    fn from(c: FaultCause) -> FaultClass {
        match c {
            FaultCause::MpuViolation => FaultClass::Protection,
            FaultCause::PpbUnprivileged => FaultClass::ControlPriv,
            FaultCause::Unmapped => FaultClass::Other,
        }
    }
}

/// A protection backend: one ISA's machine construction + protection
/// unit programming strategy.
pub trait Backend: Send + Sync {
    /// Stable backend name (`"armv7m"`, `"rv32-pmp"`): the CLI
    /// vocabulary and report labels.
    fn name(&self) -> &'static str;

    /// Builds a machine with this backend's protection unit installed
    /// (disabled — reset state — until [`Backend::enable`]).
    fn make_machine(&self, board: Board) -> Machine;

    /// Generates the region plan for `policy`. Pure: same policy, same
    /// plan. Shared (`Arc`) so monitor clones do not copy it.
    fn plan(&self, policy: &SystemPolicy) -> Arc<dyn RegionPlan>;

    /// Turns enforcement on (MPU ENABLE+PRIVDEFENA / PMP armed).
    fn enable(&self, machine: &mut Machine) -> Result<(), String>;

    /// Number of reserved slots for peripheral-window virtualization
    /// (ARM: 4 MPU regions; PMP: 6 entries).
    fn virt_slots(&self) -> usize;

    /// The hardware label of virtualization slot `slot` (ARM: MPU
    /// region `4 + slot`; PMP: entry `3 + slot`) — used in obs events
    /// so traces name real registers.
    fn virt_slot_label(&self, slot: usize) -> u8;

    /// Cycles one protection-register write costs.
    fn write_cost(&self) -> u64;

    /// The stack-protection boundary for an operation entered with
    /// stack pointer `sp`: the live stack becomes `[stack.base,
    /// boundary)`. `None` when no usable live stack remains. ARM
    /// rounds `sp` down to a sub-region multiple; PMP rounds to a
    /// word.
    fn stack_boundary(&self, stack: MemRegion, sp: u32) -> Option<u32>;

    /// The granularity [`Backend::stack_boundary`] rounds to — the
    /// oracle uses it to predict the boundary independently.
    fn boundary_granularity(&self, stack: MemRegion) -> u32;

    /// Folds a machine fault into the neutral class the monitor
    /// dispatches on.
    fn fault_class(&self, fault: &FaultInfo) -> FaultClass;
}

/// Everything a backend precomputes from a [`SystemPolicy`] (region
/// files, entry files, cover geometry), plus the switch-path
/// programming that consumes it.
pub trait RegionPlan: Send + Sync {
    /// How many protection registers [`RegionPlan::apply_op`] will
    /// write for `op` (the caller charges the clock *before* the writes
    /// so the emitted events carry post-charge timestamps, matching the
    /// hardware where the reprogramming has happened by the time
    /// anything observes it).
    fn op_write_count(&self, op: OpId) -> u32;

    /// Programs the unit for `op` with the live stack extending from
    /// the stack base up to `boundary` (exclusive), writing exactly
    /// [`RegionPlan::op_write_count`] registers. Contract: the first
    /// `min(periph_covers.len(), virt_slots())` peripheral covers are
    /// preloaded *index-aligned* into the reserved slots — the caller's
    /// virtualization bookkeeping relies on it. Does not charge the
    /// clock.
    fn apply_op(&self, machine: &mut Machine, op: OpId, boundary: u32) -> Result<(), String>;

    /// Swaps peripheral cover `widx` of `op` into reserved slot
    /// `slot` (one register write; the caller charges the clock).
    fn virtualize(
        &self,
        machine: &mut Machine,
        op: OpId,
        widx: usize,
        slot: usize,
    ) -> Result<(), String>;
}

/// The ARMv7-M region plan: the paper's original MPU layout.
///
/// Regions 0–2 are shared by all operations (background, Flash
/// execute, stack with sub-regions managed at switch time), region 3
/// is the per-operation data section, regions 4–7 the first four
/// peripheral covers; further covers are virtualized round-robin.
#[derive(Debug, Clone)]
pub struct ArmRegionPlan {
    base: [(usize, MpuRegion); 3],
    sections: Vec<MpuRegion>,
    periph: Vec<Vec<MpuRegion>>,
    stack: MemRegion,
}

impl ArmRegionPlan {
    /// Generates the MPU region plan for `policy`.
    pub fn new(policy: &SystemPolicy) -> ArmRegionPlan {
        // Region 0: code + SRAM read-only (privileged RW) — the
        // background that lets unprivileged code read Flash, rodata,
        // the public section and the relocation table, while every
        // write needs a higher region. Unlike the paper's 4 GiB region
        // 0, ours stops at the peripheral space so unauthorised
        // peripheral *reads* are also denied.
        // Region 1: Flash executable. Region 2: the stack, read-write,
        // sub-regions managed per switch.
        let base = [
            (0, MpuRegion::new(0, 0x4000_0000, RegionAttr::priv_rw_unpriv_ro(true))),
            (
                1,
                MpuRegion::new(
                    policy.board.flash.base,
                    region_size_for(policy.board.flash.size),
                    RegionAttr::read_only(false),
                ),
            ),
            (2, MpuRegion::new(policy.stack.base, policy.stack.size, RegionAttr::read_write_xn())),
        ];
        let sections = policy
            .ops
            .iter()
            .map(|o| MpuRegion::new(o.section.base, o.section.size, RegionAttr::read_write_xn()))
            .collect();
        let periph = policy
            .ops
            .iter()
            .map(|o| {
                o.periph_covers
                    .iter()
                    .map(|c| MpuRegion::new(c.base, c.size, RegionAttr::read_write_xn()))
                    .collect()
            })
            .collect();
        ArmRegionPlan { base, sections, periph, stack: policy.stack }
    }

    /// The static regions 0–2 shared by every operation.
    pub fn base_regions(&self) -> [(usize, MpuRegion); 3] {
        self.base
    }

    /// The region-3 (operation data section) region for `op`.
    pub fn section_region(&self, op: OpId) -> MpuRegion {
        self.sections[usize::from(op)]
    }
}

/// Reserved virtualization slots on ARM (MPU regions 4–7).
const ARM_VIRT_SLOTS: usize = 4;

impl RegionPlan for ArmRegionPlan {
    fn op_write_count(&self, op: OpId) -> u32 {
        let preload = self.periph[usize::from(op)].len().min(ARM_VIRT_SLOTS);
        (self.base.len() + 1 + preload) as u32
    }

    fn apply_op(&self, machine: &mut Machine, op: OpId, boundary: u32) -> Result<(), String> {
        // Translate the exact boundary back into the sub-region
        // disable mask: sub-regions `idx..8` (previous operations'
        // frames) are disabled. `boundary == stack.end()` is the whole
        // stack (reset state), mask 0.
        let sub = self.stack.size / 8;
        let idx = ((boundary.saturating_sub(self.stack.base)) / sub).min(8);
        let srd = if idx >= 8 { 0 } else { (0xFFu32 << idx) as u8 };
        let mut regions: Vec<(usize, MpuRegion)> = Vec::with_capacity(8);
        for (n, mut r) in self.base {
            if n == 2 {
                r.srd = srd;
            }
            regions.push((n, r));
        }
        regions.push((3, self.section_region(op)));
        for (i, r) in self.periph[usize::from(op)].iter().take(ARM_VIRT_SLOTS).enumerate() {
            regions.push((ARM_VIRT_SLOTS + i, *r));
        }
        machine.mpu_mut().load_regions(&regions).map_err(|e| format!("MPU programming: {e}"))
    }

    fn virtualize(
        &self,
        machine: &mut Machine,
        op: OpId,
        widx: usize,
        slot: usize,
    ) -> Result<(), String> {
        let region = self.periph[usize::from(op)]
            .get(widx)
            .copied()
            .ok_or_else(|| format!("no prepared MPU region for peripheral window {widx}"))?;
        machine
            .mpu_mut()
            .set_region(ARM_VIRT_SLOTS + slot, region)
            .map_err(|e| format!("MPU virtualization failed: {e}"))
    }
}

/// The ARMv7-M MPU backend: the paper's platform.
#[derive(Debug, Clone, Copy, Default)]
pub struct Armv7mBackend;

impl Backend for Armv7mBackend {
    fn name(&self) -> &'static str {
        "armv7m"
    }

    fn make_machine(&self, board: Board) -> Machine {
        // `Machine::new` installs the ARMv7-M MPU: the back-compat
        // default *is* this backend.
        Machine::new(board)
    }

    fn plan(&self, policy: &SystemPolicy) -> Arc<dyn RegionPlan> {
        Arc::new(ArmRegionPlan::new(policy))
    }

    fn enable(&self, machine: &mut Machine) -> Result<(), String> {
        let mpu = machine
            .protection_mut()
            .as_any_mut()
            .downcast_mut::<opec_armv7m::Mpu>()
            .ok_or("armv7m backend: machine protection unit is not the ARMv7-M MPU")?;
        mpu.enabled = true;
        mpu.priv_default_enabled = true;
        Ok(())
    }

    fn virt_slots(&self) -> usize {
        ARM_VIRT_SLOTS
    }

    fn virt_slot_label(&self, slot: usize) -> u8 {
        (ARM_VIRT_SLOTS + slot) as u8
    }

    fn write_cost(&self) -> u64 {
        costs::MPU_REGION_WRITE
    }

    fn stack_boundary(&self, stack: MemRegion, sp: u32) -> Option<u32> {
        let sub = stack.size / 8;
        let idx = ((sp.checked_sub(stack.base)?) / sub).min(8);
        if idx == 0 {
            return None;
        }
        Some(stack.base + idx * sub)
    }

    fn boundary_granularity(&self, stack: MemRegion) -> u32 {
        (stack.size / 8).max(1)
    }

    fn fault_class(&self, fault: &FaultInfo) -> FaultClass {
        fault.cause.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack() -> MemRegion {
        MemRegion::new(0x2002_F000, 0x1000)
    }

    #[test]
    fn arm_boundary_rounds_down_to_subregions() {
        let b = Armv7mBackend;
        let s = stack();
        // SP in the middle of sub-region 5 rounds down to its base.
        assert_eq!(b.stack_boundary(s, s.base + 5 * 0x200 + 0x57), Some(s.base + 5 * 0x200));
        // SP at the very top keeps the whole stack.
        assert_eq!(b.stack_boundary(s, s.end()), Some(s.end()));
        // SP inside the lowest sub-region leaves nothing usable.
        assert_eq!(b.stack_boundary(s, s.base + 0x1FF), None);
        assert_eq!(b.boundary_granularity(s), 0x200);
    }

    #[test]
    fn arm_fault_classes() {
        let b = Armv7mBackend;
        let fi = |cause| FaultInfo {
            address: 0,
            len: 4,
            kind: opec_armv7m::AccessKind::Read,
            cause,
            pc: 0,
            write_value: None,
        };
        assert_eq!(b.fault_class(&fi(FaultCause::MpuViolation)), FaultClass::Protection);
        assert_eq!(b.fault_class(&fi(FaultCause::PpbUnprivileged)), FaultClass::ControlPriv);
        assert_eq!(b.fault_class(&fi(FaultCause::Unmapped)), FaultClass::Other);
    }
}
