//! Configuration-class peripherals: RCC (clock control), DMA
//! controllers, and general-purpose timers.
//!
//! These exist because the real HAL init paths (`System_Init`,
//! `Uart_Init`, ...) configure them, and OPEC must grant each operation
//! access to exactly the peripherals it configures. Their register
//! behaviour is storage plus a couple of self-clearing ready bits.

use opec_armv7m::mem::MemRegion;
use opec_armv7m::MmioDevice;

/// Reset and clock control. Writes stick; the PLL-ready flag (offset
/// 0x00, bit 25) reads as set once the PLL-on bit (bit 24) was written.
#[derive(Clone)]
pub struct Rcc {
    base: u32,
    cr: u32,
    regs: [u32; 32],
}

impl Rcc {
    /// Creates the RCC at `base`.
    pub fn new(base: u32) -> Rcc {
        Rcc { base, cr: 0, regs: [0; 32] }
    }
}

impl MmioDevice for Rcc {
    fn name(&self) -> &str {
        "RCC"
    }

    fn region(&self) -> MemRegion {
        MemRegion::new(self.base, 0x400)
    }

    fn read(&mut self, offset: u32, _len: u32, _now: u64) -> u32 {
        if offset == 0 {
            // PLLRDY mirrors PLLON.
            self.cr | ((self.cr >> 24) & 1) << 25
        } else {
            self.regs.get((offset / 4) as usize).copied().unwrap_or(0)
        }
    }

    fn write(&mut self, offset: u32, _len: u32, value: u32, _now: u64) {
        if offset == 0 {
            self.cr = value;
        } else if let Some(slot) = self.regs.get_mut((offset / 4) as usize) {
            *slot = value;
        }
    }
}

/// A DMA controller modelled as a register file; channel-enable bits
/// complete instantly (transfer-complete flag at offset 0x00).
#[derive(Clone)]
pub struct Dma {
    name: String,
    base: u32,
    regs: [u32; 64],
    complete: u32,
}

impl Dma {
    /// Creates a DMA controller at `base`.
    pub fn new(name: impl Into<String>, base: u32) -> Dma {
        Dma { name: name.into(), base, regs: [0; 64], complete: 0 }
    }
}

impl MmioDevice for Dma {
    fn name(&self) -> &str {
        &self.name
    }

    fn region(&self) -> MemRegion {
        MemRegion::new(self.base, 0x400)
    }

    fn read(&mut self, offset: u32, _len: u32, _now: u64) -> u32 {
        if offset == 0 {
            self.complete
        } else {
            self.regs.get((offset / 4) as usize).copied().unwrap_or(0)
        }
    }

    fn write(&mut self, offset: u32, _len: u32, value: u32, _now: u64) {
        if offset == 0x04 {
            // Channel enable: transfers are instantaneous in the model.
            self.complete |= value;
        } else if let Some(slot) = self.regs.get_mut((offset / 4) as usize) {
            *slot = value;
        }
    }
}

/// A plain register file: every word offset is storage. Used for
/// configuration-only peripherals (PWR, EXTI-style blocks) whose only
/// observable behaviour is retaining what firmware wrote.
#[derive(Clone)]
pub struct RegFile {
    name: String,
    base: u32,
    regs: [u32; 64],
}

impl RegFile {
    /// Creates a register file at `base` with a 0x400 window.
    pub fn new(name: impl Into<String>, base: u32) -> RegFile {
        RegFile { name: name.into(), base, regs: [0; 64] }
    }
}

impl MmioDevice for RegFile {
    fn name(&self) -> &str {
        &self.name
    }
    fn region(&self) -> MemRegion {
        MemRegion::new(self.base, 0x400)
    }
    fn read(&mut self, offset: u32, _len: u32, _now: u64) -> u32 {
        self.regs.get((offset / 4) as usize).copied().unwrap_or(0)
    }
    fn write(&mut self, offset: u32, _len: u32, value: u32, _now: u64) {
        if let Some(slot) = self.regs.get_mut((offset / 4) as usize) {
            *slot = value;
        }
    }
}

/// A free-running timer; `CNT` (offset 0x24) is the machine time spent
/// with `CR.EN` (offset 0x00, bit 0) set, divided by the prescaler
/// (offset 0x28, default 1).
#[derive(Clone)]
pub struct Timer {
    name: String,
    base: u32,
    /// Enabled cycles accumulated up to the last `CR` write.
    counted: u64,
    /// Device-local time of the last `CR` write.
    cr_at: u64,
    prescaler: u32,
    cr: u32,
}

impl Timer {
    /// Creates a timer at `base`.
    pub fn new(name: impl Into<String>, base: u32) -> Timer {
        Timer { name: name.into(), base, counted: 0, cr_at: 0, prescaler: 1, cr: 0 }
    }

    /// Enabled cycles up to device-local time `now`.
    fn cycles(&self, now: u64) -> u64 {
        if self.cr & 1 != 0 {
            self.counted + (now - self.cr_at)
        } else {
            self.counted
        }
    }
}

impl MmioDevice for Timer {
    fn name(&self) -> &str {
        &self.name
    }

    fn region(&self) -> MemRegion {
        MemRegion::new(self.base, 0x400)
    }

    fn read(&mut self, offset: u32, _len: u32, now: u64) -> u32 {
        match offset {
            0x00 => self.cr,
            0x24 => (self.cycles(now) / u64::from(self.prescaler.max(1))) as u32,
            0x28 => self.prescaler,
            _ => 0,
        }
    }

    fn write(&mut self, offset: u32, _len: u32, value: u32, now: u64) {
        match offset {
            0x00 => {
                // Fold the run since the last CR write into the count
                // before the enable bit can change.
                self.counted = self.cycles(now);
                self.cr_at = now;
                self.cr = value;
            }
            0x28 => self.prescaler = value.max(1),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rcc_pll_ready_follows_pll_on() {
        let mut rcc = Rcc::new(0x4002_3800);
        assert_eq!(rcc.read(0x00, 4, 0) & (1 << 25), 0);
        rcc.write(0x00, 4, 1 << 24, 0);
        assert_ne!(rcc.read(0x00, 4, 0) & (1 << 25), 0);
    }

    #[test]
    fn rcc_registers_are_storage() {
        let mut rcc = Rcc::new(0x4002_3800);
        rcc.write(0x30, 4, 0xFFFF, 0);
        assert_eq!(rcc.read(0x30, 4, 0), 0xFFFF);
    }

    #[test]
    fn dma_enable_completes_instantly() {
        let mut dma = Dma::new("DMA2", 0x4002_6400);
        assert_eq!(dma.read(0x00, 4, 0), 0);
        dma.write(0x04, 4, 0b101, 0);
        assert_eq!(dma.read(0x00, 4, 0), 0b101);
    }

    #[test]
    fn regfile_is_storage() {
        let mut r = RegFile::new("PWR", 0x4000_7000);
        r.write(0x00, 4, 0x4000, 0);
        assert_eq!(r.read(0x00, 4, 0), 0x4000);
        assert_eq!(r.read(0x3C, 4, 0), 0);
    }

    #[test]
    fn timer_counts_when_enabled() {
        let mut t = Timer::new("TIM2", 0x4000_0000);
        assert_eq!(t.read(0x24, 4, 100), 0); // disabled
        t.write(0x00, 4, 1, 100);
        assert_eq!(t.read(0x24, 4, 200), 100);
        t.write(0x28, 4, 10, 200);
        assert_eq!(t.read(0x24, 4, 300), 20);
    }

    #[test]
    fn timer_freezes_while_disabled_and_resumes() {
        let mut t = Timer::new("TIM2", 0x4000_0000);
        t.write(0x00, 4, 1, 0);
        assert_eq!(t.read(0x24, 4, 50), 50);
        // Disable at 50: CNT freezes.
        t.write(0x00, 4, 0, 50);
        assert_eq!(t.read(0x24, 4, 50), 50);
        assert_eq!(t.read(0x24, 4, 1_000), 50);
        // A prescaler write while disabled does not restart counting.
        t.write(0x28, 4, 5, 1_000);
        assert_eq!(t.read(0x24, 4, 1_500), 10);
        // Re-enable at 2000: counting resumes from the frozen total.
        t.write(0x00, 4, 1, 2_000);
        assert_eq!(t.read(0x24, 4, 2_100), 30);
        // A CR write that keeps EN set folds without losing cycles.
        t.write(0x00, 4, 0b11, 2_100);
        assert_eq!(t.read(0x24, 4, 2_200), 50);
        // The prescaler applies to the whole count, as before.
        t.write(0x28, 4, 1, 2_200);
        assert_eq!(t.read(0x24, 4, 2_250), 300);
        assert_eq!(t.read(0x00, 4, 2_250), 0b11);
    }
}
