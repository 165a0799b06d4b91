//! ARMv7-M machine model for the OPEC reproduction.
//!
//! This crate models the subset of the ARMv7-M architecture that the OPEC
//! paper (EuroSys '22) relies on for its isolation guarantees:
//!
//! * the fixed 4 GiB memory map (Code / SRAM / Peripheral / External /
//!   Private Peripheral Bus / Vendor) — [`mem`];
//! * two privilege levels and the rule that Private Peripheral Bus (PPB)
//!   accesses from unprivileged code raise a bus fault — [`Mode`];
//! * the Memory Protection Unit with eight prioritised regions,
//!   power-of-two size and alignment constraints, and eight individually
//!   disableable sub-regions per region — [`mpu`];
//! * the exception kinds OPEC-Monitor hooks (SVC, MemManage, BusFault) —
//!   [`exception`];
//! * a cycle clock with Cortex-M4-style costs — [`clock`];
//! * a Thumb-2 load/store encoder/decoder used by the monitor's
//!   core-peripheral emulation path — [`thumb`];
//! * the composed [`machine::Machine`] that owns Flash, SRAM, the MPU and
//!   memory-mapped devices and enforces all of the above on every access.
//!
//! The model is deliberately a *behavioural* one: it enforces the same
//! access-control rules as real silicon (region priority, sub-region
//! fall-through, PPB privilege, alignment) without interpreting real
//! Thumb-2 code, except in the instruction-emulation path where real
//! encodings are decoded.

#![warn(missing_docs)]

pub mod board;
pub mod clock;
pub mod exception;
pub mod machine;
pub mod mem;
pub mod mpu;
pub mod prot;
pub mod thumb;

pub use board::Board;
pub use clock::{costs, Clock};
pub use exception::{AccessKind, Exception, FaultCause, FaultInfo};
pub use machine::{DeviceState, Machine, MachineDelta, MachineSnapshot, MmioDevice};
pub use mem::{AddressClass, MemRegion};
pub use mpu::{AccessPerm, Mpu, MpuRegion, RegionAttr, MPU_MIN_REGION_SIZE, MPU_NUM_REGIONS};
pub use prot::{ProtectionUnit, UnitState};

/// Processor privilege level.
///
/// ARMv7-M thread mode runs either privileged or unprivileged; handler
/// mode is always privileged. OPEC runs all application code unprivileged
/// and only OPEC-Monitor (exception handlers) privileged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Privileged execution (handler mode / privileged thread mode).
    Privileged,
    /// Unprivileged thread mode; the level OPEC assigns to application code.
    Unprivileged,
}

impl Mode {
    /// Returns `true` for privileged execution.
    pub fn is_privileged(self) -> bool {
        matches!(self, Mode::Privileged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_predicates() {
        assert!(Mode::Privileged.is_privileged());
        assert!(!Mode::Unprivileged.is_privileged());
    }
}
