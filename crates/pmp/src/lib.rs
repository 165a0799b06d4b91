//! RISC-V Physical Memory Protection (PMP): OPEC's second backend.
//!
//! The paper's §7 names three requirements for porting OPEC to another
//! platform, the first being "a memory protection unit, which has
//! enough regions enforcing the physical memory permissions similar to
//! the ARM MPU, e.g., RISC-V PMP". This crate substantiates that claim
//! as a first-class backend rather than a one-shot encoder:
//!
//! * [`Pmp`] models the RV32 PMP as specified in the privileged ISA —
//!   sixteen entries with `R`/`W`/`X` permissions, `OFF`/`TOR`/`NA4`/
//!   `NAPOT` address matching, **lowest-numbered-entry-wins** priority
//!   (the opposite of the ARM MPU), and the M-mode default-allow /
//!   S/U-mode default-deny rule;
//! * [`PmpUnit`] plugs the model into the machine's
//!   [`ProtectionUnit`] checking surface (operations run in U-mode,
//!   the monitor in M-mode — modelled entries are unlocked, so M-mode
//!   accesses are never constrained, exactly the real-PMP rule for
//!   entries without the `L` bit);
//! * [`Rv32PmpBackend`] implements the `opec-core`
//!   [`Backend`] trait: per-operation entry files with a `TOR` pair
//!   for the live part of the stack (PMP has no sub-regions, but
//!   `TOR`'s arbitrary top bound expresses the boundary *exactly*, to
//!   the word), `NAPOT` entries for the operation data section and
//!   peripheral windows, and background entries for Flash
//!   (read/execute) and SRAM (read-only).
//!
//! Core peripherals have no PMP analogue — on RISC-V they are CSRs,
//! reachable only from M-mode, which is precisely the situation OPEC's
//! load/store emulation handles on ARM (the monitor emulates the
//! access from the trap handler); [`Rv32PmpBackend`] classifies that
//! trap as [`FaultClass::ControlPriv`].

#![warn(missing_docs)]

use std::sync::Arc;

use opec_armv7m::mpu::MpuDecision;
use opec_armv7m::{Board, FaultInfo, Machine, MemRegion, Mode, ProtectionUnit};
use opec_core::backend::{Backend, FaultClass, RegionPlan};
use opec_core::SystemPolicy;
use opec_vm::OpId;

/// Number of PMP entries modelled (RV32: up to 64; 16 is the common
/// implementation size and plenty for OPEC's plan).
pub const PMP_ENTRIES: usize = 16;

/// The minimum NAPOT region size: `pmpaddr` encodes the size in
/// trailing ones below the address bits, so the smallest expressible
/// naturally-aligned power-of-two region is 8 bytes (4-byte regions
/// use `NA4`).
pub const NAPOT_MIN_SIZE: u32 = 8;

/// Cycles one PMP entry write costs (a `pmpcfg` byte plus a `pmpaddr`
/// CSR write — CSR writes are cheaper than the ARM MPU's two MMIO
/// stores, which cost [`opec_armv7m::costs::MPU_REGION_WRITE`]).
pub const PMP_ENTRY_WRITE: u64 = 4;

/// Address-matching mode of one entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PmpMode {
    /// Entry disabled.
    Off,
    /// Top-of-range: matches `[pmpaddr[i-1], pmpaddr[i])` (or
    /// `[0, pmpaddr[0])` for entry 0).
    Tor,
    /// Naturally aligned four-byte region.
    Na4,
    /// Naturally aligned power-of-two region, ≥ 8 bytes.
    Napot,
}

/// One PMP entry: configuration byte + address register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmpEntry {
    /// Read permission.
    pub r: bool,
    /// Write permission.
    pub w: bool,
    /// Execute permission.
    pub x: bool,
    /// Address-matching mode.
    pub mode: PmpMode,
    /// The `pmpaddr` register value (physical address >> 2, with the
    /// NAPOT size encoded in trailing ones).
    pub addr: u32,
}

impl PmpEntry {
    /// A disabled entry.
    pub const OFF: PmpEntry =
        PmpEntry { r: false, w: false, x: false, mode: PmpMode::Off, addr: 0 };

    /// The `pmpcfg` byte for this entry (R bit 0, W bit 1, X bit 2,
    /// A bits 3–4; the `L` bit is never set — OPEC reprograms entries
    /// at every switch).
    pub fn cfg_byte(&self) -> u8 {
        let a = match self.mode {
            PmpMode::Off => 0,
            PmpMode::Tor => 1,
            PmpMode::Na4 => 2,
            PmpMode::Napot => 3,
        };
        u8::from(self.r) | (u8::from(self.w) << 1) | (u8::from(self.x) << 2) | (a << 3)
    }
}

/// Encodes a naturally aligned power-of-two region into a `pmpaddr`
/// value. `size` must be a power of two with `base` aligned to it;
/// sizes below [`NAPOT_MIN_SIZE`] are rounded up to the minimum
/// granule (real PMP cannot express a NAPOT region smaller than
/// 8 bytes — the old encoder underflowed `(size >> 3) - 1` to an
/// all-ones address for them).
pub fn napot_addr(base: u32, size: u32) -> u32 {
    let size = size.max(NAPOT_MIN_SIZE);
    debug_assert!(size.is_power_of_two());
    debug_assert_eq!(base % size, 0);
    (base >> 2) | ((size >> 3) - 1)
}

/// Decodes a NAPOT `pmpaddr` back into `(base, size)`.
///
/// 29 or more trailing ones encode a size of at least 2³² — past the
/// 32-bit address space, so the region is the whole space (the
/// all-ones "NAPOT everything" idiom). [`napot_addr`] and
/// [`napot_cover`] never emit such a region; the model folds it to
/// `(0, u32::MAX)` rather than overflow the shift on hand-written
/// `pmpaddr` bits.
pub fn napot_decode(addr: u32) -> (u32, u32) {
    let trailing = addr.trailing_ones();
    if trailing >= 29 {
        return (0, u32::MAX);
    }
    let size = 8u32 << trailing;
    let base = (addr & !((1 << trailing) - 1)) << 2;
    (base, size)
}

/// The smallest NAPOT region `(base, size)` containing `window`:
/// `size` is a power of two ≥ [`NAPOT_MIN_SIZE`] and `base` is aligned
/// to it. Misaligned windows grow until alignment and coverage meet
/// (the same rounding the ARM plan applies with
/// `region_size_for`, so both backends over-approximate peripheral
/// windows the same way the hardware forces them to).
pub fn napot_cover(window: MemRegion) -> (u32, u32) {
    let mut size = window.size.next_power_of_two().max(NAPOT_MIN_SIZE);
    loop {
        let base = window.base & !(size - 1);
        // A cover whose end overflows reaches the top of the address
        // space, so it contains the window by construction.
        let covered = base.checked_add(size).is_none_or(|end| window.end() <= end);
        if covered {
            return (base, size);
        }
        match size.checked_mul(2) {
            Some(next) => size = next,
            None => return (0, size),
        }
    }
}

/// The access being checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PmpAccess {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Exec,
}

/// The privilege mode performing the access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrivMode {
    /// Machine mode (the monitor). Unmatched accesses are allowed.
    Machine,
    /// User mode (operations). Unmatched accesses are denied.
    User,
}

/// The modelled PMP unit.
#[derive(Debug, Clone)]
pub struct Pmp {
    entries: [PmpEntry; PMP_ENTRIES],
}

impl Default for Pmp {
    fn default() -> Pmp {
        Pmp::new()
    }
}

impl Pmp {
    /// All entries off.
    pub fn new() -> Pmp {
        Pmp { entries: [PmpEntry::OFF; PMP_ENTRIES] }
    }

    /// Programs entry `i`.
    pub fn set(&mut self, i: usize, e: PmpEntry) {
        self.entries[i] = e;
    }

    /// Loads a full entry file (remaining entries are switched off).
    pub fn load(&mut self, entries: &[(usize, PmpEntry)]) {
        self.entries = [PmpEntry::OFF; PMP_ENTRIES];
        for &(i, e) in entries {
            self.entries[i] = e;
        }
    }

    /// Returns entry `i`.
    pub fn entry(&self, i: usize) -> PmpEntry {
        self.entries[i]
    }

    /// The byte range matched by entry `i`, if enabled. A `TOR` entry
    /// whose bound does not exceed its predecessor's address (a
    /// zero-length or inverted range) matches nothing — it neither
    /// grants nor denies, per the privileged ISA.
    fn range(&self, i: usize) -> Option<(u32, u32)> {
        let e = self.entries[i];
        match e.mode {
            PmpMode::Off => None,
            PmpMode::Na4 => {
                let base = e.addr << 2;
                Some((base, base.checked_add(4)?))
            }
            PmpMode::Napot => {
                let (base, size) = napot_decode(e.addr);
                Some((base, base.checked_add(size)?))
            }
            PmpMode::Tor => {
                let lo = if i == 0 { 0 } else { self.entries[i - 1].addr << 2 };
                let hi = e.addr << 2;
                if lo < hi {
                    Some((lo, hi))
                } else {
                    None
                }
            }
        }
    }

    /// Checks an access of `len` bytes at `addr`: every byte must be
    /// permitted. The **lowest-numbered** matching entry decides, per
    /// the privileged ISA.
    pub fn check(&self, addr: u32, len: u32, access: PmpAccess, mode: PrivMode) -> bool {
        for off in 0..len.max(1) {
            let Some(a) = addr.checked_add(off) else { return false };
            if !self.check_byte(a, access, mode) {
                return false;
            }
        }
        true
    }

    fn check_byte(&self, addr: u32, access: PmpAccess, mode: PrivMode) -> bool {
        for i in 0..PMP_ENTRIES {
            if let Some((lo, hi)) = self.range(i) {
                if addr >= lo && addr < hi {
                    let e = self.entries[i];
                    return match access {
                        PmpAccess::Read => e.r,
                        PmpAccess::Write => e.w,
                        PmpAccess::Exec => e.x,
                    };
                }
            }
        }
        // No match: M-mode falls through, U-mode faults.
        mode == PrivMode::Machine
    }
}

/// The PMP as a machine-pluggable [`ProtectionUnit`].
///
/// OPEC's privilege split maps directly: operations run in U-mode
/// (unmatched accesses denied), the monitor in M-mode. The modelled
/// entries never set the lock bit, so — like real PMP — they do not
/// constrain M-mode at all.
#[derive(Debug, Clone)]
pub struct PmpUnit {
    /// The entry file.
    pub pmp: Pmp,
    /// Whether an entry file has been armed ([`Rv32PmpBackend::enable`]
    /// sets this at monitor initialisation; before that the machine
    /// boots unconstrained, like reset-state PMP with all entries off).
    pub enabled: bool,
    obs: opec_obs::Obs,
}

impl Default for PmpUnit {
    fn default() -> PmpUnit {
        PmpUnit::new()
    }
}

impl PmpUnit {
    /// A disabled unit with all entries off.
    pub fn new() -> PmpUnit {
        PmpUnit { pmp: Pmp::new(), enabled: false, obs: opec_obs::Obs::disabled() }
    }

    /// Programs entry `i`, emitting [`opec_obs::Event::PmpEntryWrite`].
    pub fn set_entry(&mut self, i: usize, e: PmpEntry) {
        self.pmp.set(i, e);
        self.obs.emit(|| opec_obs::Event::PmpEntryWrite {
            entry: i as u8,
            addr: e.addr,
            cfg: e.cfg_byte(),
        });
    }

    /// Replaces the entire entry file (the per-switch reload),
    /// emitting [`opec_obs::Event::PmpLoad`].
    pub fn load_entries(&mut self, entries: &[(usize, PmpEntry)]) {
        self.pmp.load(entries);
        self.obs.emit(|| opec_obs::Event::PmpLoad { entries: entries.len() as u8 });
    }
}

impl ProtectionUnit for PmpUnit {
    fn name(&self) -> &'static str {
        "rv32-pmp"
    }

    fn check_data(&self, addr: u32, len: u32, write: bool, mode: Mode) -> MpuDecision {
        if !self.enabled || mode.is_privileged() {
            return MpuDecision::Allowed;
        }
        let access = if write { PmpAccess::Write } else { PmpAccess::Read };
        if self.pmp.check(addr, len, access, PrivMode::User) {
            MpuDecision::Allowed
        } else {
            MpuDecision::Denied
        }
    }

    fn check_exec(&self, addr: u32, mode: Mode) -> MpuDecision {
        if !self.enabled || mode.is_privileged() {
            return MpuDecision::Allowed;
        }
        if self.pmp.check(addr, 4, PmpAccess::Exec, PrivMode::User) {
            MpuDecision::Allowed
        } else {
            MpuDecision::Denied
        }
    }

    fn enforcing(&self) -> bool {
        self.enabled
    }

    fn attach_obs(&mut self, obs: opec_obs::Obs) {
        self.obs = obs;
    }

    fn copy_unit_from(&mut self, src: &dyn ProtectionUnit) -> bool {
        match src.as_any().downcast_ref::<PmpUnit>() {
            Some(s) => {
                self.pmp = s.pmp.clone();
                self.enabled = s.enabled;
                // `obs` is configuration, not state: the live unit and
                // the snapshotted one were attached to the same stream.
                true
            }
            None => false,
        }
    }
}

/// Reserved virtualization slots on PMP (entries 3–8: six, against the
/// ARM MPU's four — sixteen entries leave room even with the stack
/// pair and three background entries).
const PMP_VIRT_SLOTS: usize = 6;
/// First virtualization entry.
const PMP_VIRT_BASE: usize = 3;
/// Flash background entry (R+X).
const PMP_FLASH_ENTRY: usize = PMP_VIRT_BASE + PMP_VIRT_SLOTS;
/// SRAM read-only background entry.
const PMP_SRAM_ENTRY: usize = PMP_FLASH_ENTRY + 1;

/// The PMP entry plan: per-operation entry files precomputed from a
/// [`SystemPolicy`].
///
/// Entry order (lowest wins, so the most specific comes first):
///
/// | # | what | mode | perms |
/// |---|------|------|-------|
/// | 0–1 | live stack `[base, boundary)` | TOR pair | RW |
/// | 2 | operation data section | NAPOT | RW |
/// | 3–8 | peripheral covers (first six) | NAPOT | RW |
/// | 9 | Flash | NAPOT | R+X |
/// | 10 | SRAM background | NAPOT | R |
#[derive(Debug, Clone)]
pub struct PmpPlan {
    stack: MemRegion,
    sections: Vec<PmpEntry>,
    periph: Vec<Vec<PmpEntry>>,
    flash: PmpEntry,
    sram: PmpEntry,
}

impl PmpPlan {
    /// Generates the PMP entry plan for `policy`.
    pub fn new(policy: &SystemPolicy) -> PmpPlan {
        let sections = policy.ops.iter().map(|o| napot_rw(o.section)).collect();
        let periph = policy
            .ops
            .iter()
            .map(|o| o.periph_covers.iter().map(|c| napot_rw(*c)).collect())
            .collect();
        let (fb, fs) = napot_cover(policy.board.flash);
        let flash =
            PmpEntry { r: true, w: false, x: true, mode: PmpMode::Napot, addr: napot_addr(fb, fs) };
        let (sb, ss) = napot_cover(policy.board.sram);
        let sram = PmpEntry {
            r: true,
            w: false,
            x: false,
            mode: PmpMode::Napot,
            addr: napot_addr(sb, ss),
        };
        PmpPlan { stack: policy.stack, sections, periph, flash, sram }
    }

    /// The entry protecting `op`'s data section.
    pub fn section_entry(&self, op: OpId) -> PmpEntry {
        self.sections[usize::from(op)]
    }

    /// The prepared peripheral-cover entries for `op`.
    pub fn periph_entries(&self, op: OpId) -> &[PmpEntry] {
        &self.periph[usize::from(op)]
    }

    /// The Flash (R+X) and SRAM (read-only) background entries.
    pub fn background(&self) -> (PmpEntry, PmpEntry) {
        (self.flash, self.sram)
    }
}

fn napot_rw(window: MemRegion) -> PmpEntry {
    let (base, size) = napot_cover(window);
    PmpEntry { r: true, w: true, x: false, mode: PmpMode::Napot, addr: napot_addr(base, size) }
}

fn pmp_unit(machine: &mut Machine) -> Result<&mut PmpUnit, String> {
    machine
        .protection_mut()
        .as_any_mut()
        .downcast_mut::<PmpUnit>()
        .ok_or_else(|| "rv32-pmp backend: machine protection unit is not the PMP".to_string())
}

impl RegionPlan for PmpPlan {
    fn op_write_count(&self, op: OpId) -> u32 {
        let preload = self.periph[usize::from(op)].len().min(PMP_VIRT_SLOTS);
        // Stack pair (2) + section + Flash + SRAM background.
        (5 + preload) as u32
    }

    fn apply_op(&self, machine: &mut Machine, op: OpId, boundary: u32) -> Result<(), String> {
        let mut entries: Vec<(usize, PmpEntry)> = Vec::with_capacity(11);
        // The live-stack TOR pair: entry 0 (any mode; only its addr
        // matters) anchors the bottom, entry 1 bounds the top exactly
        // at the boundary — no sub-region rounding.
        entries.push((
            0,
            PmpEntry {
                r: false,
                w: false,
                x: false,
                mode: PmpMode::Off,
                addr: self.stack.base >> 2,
            },
        ));
        entries.push((
            1,
            PmpEntry { r: true, w: true, x: false, mode: PmpMode::Tor, addr: boundary >> 2 },
        ));
        entries.push((2, self.section_entry(op)));
        for (i, e) in self.periph[usize::from(op)].iter().take(PMP_VIRT_SLOTS).enumerate() {
            entries.push((PMP_VIRT_BASE + i, *e));
        }
        entries.push((PMP_FLASH_ENTRY, self.flash));
        entries.push((PMP_SRAM_ENTRY, self.sram));
        pmp_unit(machine)?.load_entries(&entries);
        Ok(())
    }

    fn virtualize(
        &self,
        machine: &mut Machine,
        op: OpId,
        widx: usize,
        slot: usize,
    ) -> Result<(), String> {
        let entry = self.periph[usize::from(op)]
            .get(widx)
            .copied()
            .ok_or_else(|| format!("no prepared PMP entry for peripheral window {widx}"))?;
        pmp_unit(machine)?.set_entry(PMP_VIRT_BASE + slot, entry);
        Ok(())
    }
}

/// The RISC-V PMP backend: the paper's §7 port, first-class.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rv32PmpBackend;

impl Backend for Rv32PmpBackend {
    fn name(&self) -> &'static str {
        "rv32-pmp"
    }

    fn make_machine(&self, board: Board) -> Machine {
        Machine::with_protection(board, Box::new(PmpUnit::new()))
    }

    fn plan(&self, policy: &SystemPolicy) -> Arc<dyn RegionPlan> {
        Arc::new(PmpPlan::new(policy))
    }

    fn enable(&self, machine: &mut Machine) -> Result<(), String> {
        pmp_unit(machine)?.enabled = true;
        Ok(())
    }

    fn virt_slots(&self) -> usize {
        PMP_VIRT_SLOTS
    }

    fn virt_slot_label(&self, slot: usize) -> u8 {
        (PMP_VIRT_BASE + slot) as u8
    }

    fn write_cost(&self) -> u64 {
        PMP_ENTRY_WRITE
    }

    fn stack_boundary(&self, stack: MemRegion, sp: u32) -> Option<u32> {
        // PMP's TOR bound is word-granular: round SP down to the word.
        let boundary = sp & !3;
        if boundary <= stack.base {
            return None;
        }
        Some(boundary.min(stack.end()))
    }

    fn boundary_granularity(&self, _stack: MemRegion) -> u32 {
        4
    }

    fn fault_class(&self, fault: &FaultInfo) -> FaultClass {
        // The shared machine substrate raises its ARM-flavoured causes.
        // In RISC-V terms they are a PMP access fault, an illegal-
        // instruction trap from a U-mode CSR access (the shape of
        // OPEC's core-peripheral emulation case) and an access to an
        // unimplemented physical address; the neutral classes match.
        fault.cause.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opec_armv7m::FaultCause;

    #[test]
    fn napot_roundtrip() {
        for (base, size) in [(0x2000_0000u32, 32u32), (0x4000_4000, 0x400), (0x0800_0000, 1 << 20)]
        {
            let a = napot_addr(base, size);
            assert_eq!(napot_decode(a), (base, size));
        }
    }

    #[test]
    fn napot_minimum_granularity() {
        // Sizes below the 8-byte granule round up to it instead of
        // underflowing the trailing-ones encoding (the old encoder
        // produced an all-ones pmpaddr — a 32 GiB region — for them).
        assert_eq!(napot_addr(0x2000_0000, 4), napot_addr(0x2000_0000, 8));
        assert_eq!(napot_decode(napot_addr(0x2000_0000, 1)), (0x2000_0000, 8));
        // The all-ones pmpaddr (the "whole address space" idiom) must
        // decode to the whole space, not overflow the trailing-ones
        // shift.
        assert_eq!(napot_decode(u32::MAX), (0, u32::MAX));
        // And the cover helper never yields an undersized region.
        let (base, size) = napot_cover(MemRegion::new(0x2000_0001, 2));
        assert!(size >= NAPOT_MIN_SIZE);
        assert!(base <= 0x2000_0001 && base + size >= 0x2000_0003);
    }

    #[test]
    fn napot_cover_grows_past_misalignment() {
        // A window straddling a power-of-two boundary needs a larger
        // cover than its size alone suggests.
        let (base, size) = napot_cover(MemRegion::new(0x2000_00F8, 0x10));
        assert!(size.is_power_of_two());
        assert_eq!(base % size, 0);
        assert!(base <= 0x2000_00F8);
        assert!(base + size >= 0x2000_0108);
    }

    #[test]
    fn lowest_entry_wins() {
        let mut pmp = Pmp::new();
        // Entry 0: RW window inside...
        pmp.set(
            0,
            PmpEntry {
                r: true,
                w: true,
                x: false,
                mode: PmpMode::Napot,
                addr: napot_addr(0x2000_0100, 0x100),
            },
        );
        // ...entry 1: read-only cover of the whole page.
        pmp.set(
            1,
            PmpEntry {
                r: true,
                w: false,
                x: false,
                mode: PmpMode::Napot,
                addr: napot_addr(0x2000_0000, 0x1000),
            },
        );
        assert!(pmp.check(0x2000_0180, 4, PmpAccess::Write, PrivMode::User));
        assert!(!pmp.check(0x2000_0480, 4, PmpAccess::Write, PrivMode::User));
        assert!(pmp.check(0x2000_0480, 4, PmpAccess::Read, PrivMode::User));
    }

    #[test]
    fn unmatched_access_mode_rule() {
        let pmp = Pmp::new();
        assert!(pmp.check(0x1234, 4, PmpAccess::Read, PrivMode::Machine));
        assert!(!pmp.check(0x1234, 4, PmpAccess::Read, PrivMode::User));
    }

    #[test]
    fn tor_pair_matches_exact_range() {
        let mut pmp = Pmp::new();
        pmp.set(
            0,
            PmpEntry { r: false, w: false, x: false, mode: PmpMode::Off, addr: 0x2000_0000 >> 2 },
        );
        pmp.set(
            1,
            PmpEntry { r: true, w: true, x: false, mode: PmpMode::Tor, addr: 0x2000_0600 >> 2 },
        );
        assert!(pmp.check(0x2000_0000, 4, PmpAccess::Write, PrivMode::User));
        assert!(pmp.check(0x2000_05FC, 4, PmpAccess::Write, PrivMode::User));
        assert!(!pmp.check(0x2000_0600, 4, PmpAccess::Write, PrivMode::User));
        // TOR's arbitrary bound expresses what the ARM MPU needs
        // sub-regions for.
        assert!(!pmp.check(0x2000_05FE, 4, PmpAccess::Write, PrivMode::User));
    }

    #[test]
    fn tor_zero_length_matches_nothing() {
        // A TOR bound equal to (or below) its predecessor's address is
        // a zero-length range: it must neither grant nor deny — lower
        // entries and the default rule still apply.
        let mut pmp = Pmp::new();
        pmp.set(
            0,
            PmpEntry { r: false, w: false, x: false, mode: PmpMode::Off, addr: 0x2000_0000 >> 2 },
        );
        pmp.set(
            1,
            PmpEntry { r: true, w: true, x: false, mode: PmpMode::Tor, addr: 0x2000_0000 >> 2 },
        );
        // The would-be stack bytes fall through to default-deny (U)
        // and default-allow (M).
        assert!(!pmp.check(0x2000_0000, 4, PmpAccess::Write, PrivMode::User));
        assert!(pmp.check(0x2000_0000, 4, PmpAccess::Write, PrivMode::Machine));
        // An inverted pair (bound below the anchor) is equally inert.
        pmp.set(
            1,
            PmpEntry { r: true, w: true, x: false, mode: PmpMode::Tor, addr: 0x1FFF_F000 >> 2 },
        );
        assert!(!pmp.check(0x1FFF_F800, 4, PmpAccess::Read, PrivMode::User));
        // A lower-priority granting entry behind the dead pair still
        // decides.
        pmp.set(
            2,
            PmpEntry {
                r: true,
                w: false,
                x: false,
                mode: PmpMode::Napot,
                addr: napot_addr(0x2000_0000, 0x1000),
            },
        );
        assert!(pmp.check(0x2000_0000, 4, PmpAccess::Read, PrivMode::User));
        assert!(!pmp.check(0x2000_0000, 4, PmpAccess::Write, PrivMode::User));
    }

    #[test]
    fn straddling_access_is_denied() {
        let mut pmp = Pmp::new();
        pmp.set(
            0,
            PmpEntry {
                r: true,
                w: true,
                x: false,
                mode: PmpMode::Napot,
                addr: napot_addr(0x2000_0000, 0x100),
            },
        );
        assert!(!pmp.check(0x2000_00FE, 4, PmpAccess::Write, PrivMode::User));
    }

    #[test]
    fn unit_is_transparent_until_enabled_and_to_machine_mode() {
        let mut unit = PmpUnit::new();
        assert_eq!(unit.check_data(0x2000_0000, 4, true, Mode::Unprivileged), MpuDecision::Allowed);
        unit.enabled = true;
        assert_eq!(unit.check_data(0x2000_0000, 4, true, Mode::Unprivileged), MpuDecision::Denied);
        // Unlocked entries never constrain M-mode.
        assert_eq!(unit.check_data(0x2000_0000, 4, true, Mode::Privileged), MpuDecision::Allowed);
        assert!(unit.enforcing());
    }

    #[test]
    fn cfg_byte_layout() {
        let e = PmpEntry { r: true, w: false, x: true, mode: PmpMode::Napot, addr: 0 };
        assert_eq!(e.cfg_byte(), 0b11_101);
        assert_eq!(PmpEntry::OFF.cfg_byte(), 0);
    }

    #[test]
    fn backend_boundary_is_word_granular() {
        let b = Rv32PmpBackend;
        let s = MemRegion::new(0x2002_F000, 0x1000);
        assert_eq!(b.stack_boundary(s, s.base + 0x57), Some(s.base + 0x54));
        assert_eq!(b.stack_boundary(s, s.end()), Some(s.end()));
        // SP at (or rounding to) the base leaves no live stack.
        assert_eq!(b.stack_boundary(s, s.base + 3), None);
        assert_eq!(b.stack_boundary(s, s.base), None);
        assert_eq!(b.boundary_granularity(s), 4);
    }

    #[test]
    fn backend_fault_vocabulary() {
        let b = Rv32PmpBackend;
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
