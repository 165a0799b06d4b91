//! UART model (USART-style registers).
//!
//! Register map (offsets from the device base):
//!
//! | Offset | Register | Behaviour |
//! |--------|----------|-----------|
//! | 0x00   | `SR`     | bit0 RXNE (rx data ready), bit1 TXE (always 1) |
//! | 0x04   | `DR`     | read pops the rx queue; write appends to the tx log |
//! | 0x08   | `BRR`    | baud-rate divisor (plain storage) |
//! | 0x0C   | `CR1`    | control (bit0 enable, bit5 RXNEIE) |
//!
//! The host (test harness / workload driver) feeds input with
//! [`Uart::feed`] and observes output with [`Uart::take_tx`].

use std::collections::VecDeque;

use opec_armv7m::mem::MemRegion;
use opec_armv7m::MmioDevice;

/// `SR` bit: receive data register not empty.
pub const SR_RXNE: u32 = 1 << 0;
/// `SR` bit: transmit data register empty.
pub const SR_TXE: u32 = 1 << 1;

/// A polled UART with host-visible FIFOs.
#[derive(Clone)]
pub struct Uart {
    name: String,
    base: u32,
    rx: VecDeque<u8>,
    tx: Vec<u8>,
    brr: u32,
    cr1: u32,
    byte_delay: u64,
    /// Device-local time the head of `rx` becomes visible.
    ready_at: u64,
}

impl Uart {
    /// Creates a UART at `base` with a 0x400-byte window. Bytes are
    /// available immediately; see [`Uart::with_byte_delay`] for baud
    /// pacing.
    pub fn new(name: impl Into<String>, base: u32) -> Uart {
        Uart {
            name: name.into(),
            base,
            rx: VecDeque::new(),
            tx: Vec::new(),
            brr: 0,
            cr1: 0,
            byte_delay: 0,
            ready_at: 0,
        }
    }

    /// Paces reception: each byte becomes visible `cycles` machine
    /// cycles after the previous one was read — the wire-time the
    /// paper's I/O-bound workloads spend waiting on.
    pub fn with_byte_delay(mut self, cycles: u64) -> Uart {
        self.byte_delay = cycles;
        self
    }

    fn rx_ready(&self, now: u64) -> bool {
        !self.rx.is_empty() && now >= self.ready_at
    }

    /// Host side: queues bytes for the firmware to receive.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.rx.extend(bytes.iter().copied());
    }

    /// Host side: drains everything the firmware transmitted.
    pub fn take_tx(&mut self) -> Vec<u8> {
        core::mem::take(&mut self.tx)
    }

    /// Bytes still waiting in the receive queue.
    pub fn rx_pending(&self) -> usize {
        self.rx.len()
    }
}

impl MmioDevice for Uart {
    fn name(&self) -> &str {
        &self.name
    }

    fn region(&self) -> MemRegion {
        MemRegion::new(self.base, 0x400)
    }

    fn read(&mut self, offset: u32, _len: u32, now: u64) -> u32 {
        match offset {
            0x00 => {
                let mut sr = SR_TXE;
                if self.rx_ready(now) {
                    sr |= SR_RXNE;
                }
                sr
            }
            0x04 => {
                if !self.rx_ready(now) {
                    return 0;
                }
                let b = self.rx.pop_front().unwrap_or(0);
                self.ready_at = now + self.byte_delay;
                u32::from(b)
            }
            0x08 => self.brr,
            0x0C => self.cr1,
            _ => 0,
        }
    }

    fn write(&mut self, offset: u32, _len: u32, value: u32, _now: u64) {
        match offset {
            0x04 => self.tx.push((value & 0xFF) as u8),
            0x08 => self.brr = value,
            0x0C => self.cr1 = value,
            _ => {}
        }
    }

    fn irq_pending(&self, now: u64) -> bool {
        // Level-triggered: RXNEIE enabled and a byte is ready.
        self.cr1 & (1 << 5) != 0 && self.rx_ready(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rx_path_pops_in_order() {
        let mut u = Uart::new("USART2", 0x4000_4400);
        assert_eq!(u.read(0x00, 4, 0) & SR_RXNE, 0);
        u.feed(b"ok");
        assert_eq!(u.read(0x00, 4, 0) & SR_RXNE, SR_RXNE);
        assert_eq!(u.read(0x04, 4, 0), u32::from(b'o'));
        assert_eq!(u.read(0x04, 4, 0), u32::from(b'k'));
        assert_eq!(u.read(0x00, 4, 0) & SR_RXNE, 0);
        // Reading an empty DR yields 0 rather than stalling.
        assert_eq!(u.read(0x04, 4, 0), 0);
    }

    #[test]
    fn tx_path_collects_writes() {
        let mut u = Uart::new("USART2", 0x4000_4400);
        for b in b"UNLOCKED" {
            u.write(0x04, 4, u32::from(*b), 0);
        }
        assert_eq!(u.take_tx(), b"UNLOCKED");
        assert!(u.take_tx().is_empty());
    }

    #[test]
    fn txe_always_set() {
        let mut u = Uart::new("u", 0x4000_4400);
        assert_eq!(u.read(0x00, 4, 0) & SR_TXE, SR_TXE);
    }

    #[test]
    fn irq_is_level_triggered_on_rxneie() {
        let mut u = Uart::new("u", 0x4000_4400);
        u.feed(b"x");
        // Data ready but the interrupt is masked.
        assert!(!u.irq_pending(0));
        // Enabling RXNEIE raises the line for already-queued data.
        u.write(0x0C, 4, 1 << 5, 0);
        assert!(u.irq_pending(0));
        // Draining the data register clears the source.
        let _ = u.read(0x04, 4, 0);
        assert!(!u.irq_pending(0));
    }

    #[test]
    fn byte_delay_paces_reception() {
        let mut u = Uart::new("u", 0x4000_4400).with_byte_delay(100);
        u.feed(b"ab");
        // First byte available immediately.
        assert_eq!(u.read(0x00, 4, 0) & SR_RXNE, SR_RXNE);
        assert_eq!(u.read(0x04, 4, 0), u32::from(b'a'));
        // Second byte is on the wire for 100 cycles.
        assert_eq!(u.read(0x00, 4, 0) & SR_RXNE, 0);
        assert_eq!(u.read(0x04, 4, 0), 0);
        assert_eq!(u.read(0x00, 4, 99) & SR_RXNE, 0);
        assert_eq!(u.read(0x00, 4, 100) & SR_RXNE, SR_RXNE);
        assert_eq!(u.read(0x04, 4, 100), u32::from(b'b'));
    }

    #[test]
    fn config_registers_are_storage() {
        let mut u = Uart::new("u", 0x4000_4400);
        u.write(0x08, 4, 0x683, 0);
        assert_eq!(u.read(0x08, 4, 0), 0x683);
    }
}
