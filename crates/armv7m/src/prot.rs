//! The protection-unit abstraction.
//!
//! [`Machine`](crate::Machine) checks every data access and every
//! instruction fetch through one pluggable [`ProtectionUnit`] instead of
//! a hard-wired ARMv7-M MPU. The unit decides *allow or deny* for a
//! `(address, length, direction, privilege)` query; everything above it
//! — fault delivery, routing, emulation — is shared machine substrate.
//!
//! Two units ship with the reproduction: the ARMv7-M MPU
//! ([`crate::mpu::Mpu`], eight prioritised power-of-two regions with
//! sub-region disables, highest region number wins) and the RISC-V PMP
//! (`opec-pmp`, sixteen TOR/NAPOT entries, lowest entry number wins).
//! Backend-specific *programming* — region files, entry files, switch
//! costs — lives behind the `opec-core` backend trait; this trait is
//! only the machine-facing *checking* surface, which is why it is
//! object-safe and deliberately small.

use std::any::Any;

use crate::mpu::MpuDecision;
use crate::Mode;

/// A pluggable memory-protection model the [`crate::Machine`] consults
/// on every checked access.
///
/// Implementations are behavioural models (the ARMv7-M MPU, the RISC-V
/// PMP): they answer permission queries and expose enough hooks for the
/// machine to snapshot them and for privileged code to reach their
/// memory-mapped/CSR control state. They never route memory themselves.
/// Units are `Clone`: [`UnitState`] derives the clone and downcast
/// hooks from it.
pub trait ProtectionUnit: UnitState {
    /// Stable unit name (`"armv7m-mpu"`, `"rv32-pmp"`), used in
    /// diagnostics and reports.
    fn name(&self) -> &'static str;

    /// Permission decision for a data access of `len` bytes at `addr`.
    fn check_data(&self, addr: u32, len: u32, write: bool, mode: Mode) -> MpuDecision;

    /// Permission decision for an instruction fetch at `addr`.
    fn check_exec(&self, addr: u32, mode: Mode) -> MpuDecision;

    /// Whether the unit currently enforces anything (reset state is
    /// disabled / allow-all for both shipped models).
    fn enforcing(&self) -> bool;

    /// Attaches the observability handle so the unit can emit
    /// reprogramming events.
    fn attach_obs(&mut self, _obs: opec_obs::Obs) {}

    /// Hook for writes to the unit's memory-mapped control registers
    /// (the ARMv7-M MPU_CTRL lives on the PPB; the PMP has no such
    /// window and ignores this). Called for every PPB register write.
    fn ppb_ctrl_write(&mut self, _addr: u32, _value: u32) {}

    /// Copies `src`'s enforcement state into `self` without
    /// allocating, returning `false` when the concrete types differ.
    /// Snapshot restores run this every device spawn of a pooled fleet.
    /// Hand-written rather than `Clone::clone_from` so a unit can skip
    /// configuration such as its obs handle.
    fn copy_unit_from(&mut self, src: &dyn ProtectionUnit) -> bool;
}

/// Snapshot and downcast hooks every [`ProtectionUnit`] gets from its
/// `Clone` impl (blanket-implemented for `T: ProtectionUnit + Clone +
/// 'static`).
pub trait UnitState {
    /// Clones the unit's full state for machine snapshots.
    fn clone_unit(&self) -> Box<dyn ProtectionUnit>;

    /// Downcasting hook so backend code can reach the concrete model.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcasting hook (backends program the concrete model).
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: ProtectionUnit + Clone + 'static> UnitState for T {
    fn clone_unit(&self) -> Box<dyn ProtectionUnit> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// `clone_from` copies in place through
/// [`ProtectionUnit::copy_unit_from`] and replaces the box with a clone
/// when the concrete types differ.
impl Clone for Box<dyn ProtectionUnit> {
    fn clone(&self) -> Self {
        self.clone_unit()
    }

    fn clone_from(&mut self, src: &Self) {
        if !self.copy_unit_from(src.as_ref()) {
            *self = src.clone_unit();
        }
    }
}

impl std::fmt::Debug for dyn ProtectionUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ProtectionUnit({})", self.name())
    }
}
