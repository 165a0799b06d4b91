//! Ethernet MAC model for the TCP-Echo workload.
//!
//! | Offset | Register    | Behaviour |
//! |--------|-------------|-----------|
//! | 0x00   | `RX_STATUS` | 0 when idle; length of the head frame otherwise |
//! | 0x04   | `RX_DATA`   | 32-bit FIFO over the head frame; popping past the end discards it |
//! | 0x08   | `TX_DATA`   | 32-bit FIFO into the staging frame |
//! | 0x0C   | `TX_CTRL`   | write N = commit the first N bytes of the staged frame |
//!
//! The host pushes raw frames with [`EthMac::push_frame`] and collects
//! transmissions with [`EthMac::take_tx_frames`]. The lwIP-like stack in
//! `opec-apps` parses these frames itself — the MAC only moves bytes.

use std::collections::VecDeque;

use opec_armv7m::mem::MemRegion;
use opec_armv7m::MmioDevice;

/// A polled Ethernet MAC with host-visible frame queues.
#[derive(Clone)]
pub struct EthMac {
    base: u32,
    rx: VecDeque<Vec<u8>>,
    rx_cursor: usize,
    tx_stage: Vec<u8>,
    tx_done: Vec<Vec<u8>>,
    frame_gap: u64,
    /// Device-local time the head of `rx` becomes visible.
    next_frame_at: u64,
}

impl EthMac {
    /// Creates a MAC at `base`.
    pub fn new(base: u32) -> EthMac {
        EthMac {
            base,
            rx: VecDeque::new(),
            rx_cursor: 0,
            tx_stage: Vec::new(),
            tx_done: Vec::new(),
            frame_gap: 0,
            next_frame_at: 0,
        }
    }

    /// Paces reception: after a frame is consumed, the next one becomes
    /// visible only `cycles` machine cycles later (inter-arrival time).
    pub fn with_frame_gap(mut self, cycles: u64) -> EthMac {
        self.frame_gap = cycles;
        self
    }

    fn frame_visible(&self, now: u64) -> bool {
        !self.rx.is_empty() && now >= self.next_frame_at
    }

    /// Host side: enqueues a received frame.
    pub fn push_frame(&mut self, frame: &[u8]) {
        self.rx.push_back(frame.to_vec());
    }

    /// Host side: drains transmitted frames.
    pub fn take_tx_frames(&mut self) -> Vec<Vec<u8>> {
        core::mem::take(&mut self.tx_done)
    }

    /// Frames still queued for reception.
    pub fn rx_pending(&self) -> usize {
        self.rx.len()
    }
}

impl MmioDevice for EthMac {
    fn name(&self) -> &str {
        "ETH"
    }

    fn region(&self) -> MemRegion {
        MemRegion::new(self.base, 0x400)
    }

    fn read(&mut self, offset: u32, _len: u32, now: u64) -> u32 {
        match offset {
            0x00 if self.frame_visible(now) => self.rx.front().map(|f| f.len() as u32).unwrap_or(0),
            0x04 => {
                if !self.frame_visible(now) {
                    return 0;
                }
                let Some(frame) = self.rx.front() else { return 0 };
                let mut word = [0u8; 4];
                for (i, b) in word.iter_mut().enumerate() {
                    *b = frame.get(self.rx_cursor + i).copied().unwrap_or(0);
                }
                self.rx_cursor += 4;
                if self.rx_cursor >= frame.len() {
                    self.rx.pop_front();
                    self.rx_cursor = 0;
                    self.next_frame_at = now + self.frame_gap;
                }
                u32::from_le_bytes(word)
            }
            _ => 0,
        }
    }

    fn write(&mut self, offset: u32, _len: u32, value: u32, _now: u64) {
        match offset {
            0x08 => self.tx_stage.extend_from_slice(&value.to_le_bytes()),
            0x0C => {
                let n = (value as usize).min(self.tx_stage.len());
                let frame = self.tx_stage[..n].to_vec();
                self.tx_stage.clear();
                self.tx_done.push(frame);
            }
            _ => {}
        }
    }

    fn irq_pending(&self, now: u64) -> bool {
        self.frame_visible(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_reception_word_by_word() {
        let mut mac = EthMac::new(0x4002_8000);
        mac.push_frame(&[1, 2, 3, 4, 5, 6]);
        assert_eq!(mac.read(0x00, 4, 0), 6);
        assert_eq!(mac.read(0x04, 4, 0), u32::from_le_bytes([1, 2, 3, 4]));
        assert_eq!(mac.read(0x04, 4, 0), u32::from_le_bytes([5, 6, 0, 0]));
        // Frame consumed.
        assert_eq!(mac.read(0x00, 4, 0), 0);
    }

    #[test]
    fn multiple_frames_queue() {
        let mut mac = EthMac::new(0x4002_8000);
        mac.push_frame(&[0xAA; 4]);
        mac.push_frame(&[0xBB; 4]);
        assert_eq!(mac.rx_pending(), 2);
        let _ = mac.read(0x04, 4, 0);
        assert_eq!(mac.rx_pending(), 1);
        assert_eq!(mac.read(0x04, 4, 0), 0xBBBB_BBBB);
        assert_eq!(mac.rx_pending(), 0);
    }

    #[test]
    fn transmission_commits_staged_bytes() {
        let mut mac = EthMac::new(0x4002_8000);
        mac.write(0x08, 4, u32::from_le_bytes(*b"ping"), 0);
        mac.write(0x08, 4, u32::from_le_bytes(*b"pong"), 0);
        mac.write(0x0C, 4, 6, 0); // commit first 6 bytes
        let frames = mac.take_tx_frames();
        assert_eq!(frames, vec![b"pingpo".to_vec()]);
    }

    #[test]
    fn rx_irq_reflects_queue() {
        let mut mac = EthMac::new(0x4002_8000);
        assert!(!mac.irq_pending(0));
        mac.push_frame(&[0; 4]);
        assert!(mac.irq_pending(0));
    }

    #[test]
    fn frame_gap_paces_arrival() {
        let mut mac = EthMac::new(0x4002_8000).with_frame_gap(500);
        mac.push_frame(&[1, 2, 3, 4]);
        mac.push_frame(&[5, 6, 7, 8]);
        // First frame visible immediately; consume it at 10.
        assert_eq!(mac.read(0x00, 4, 10), 4);
        let _ = mac.read(0x04, 4, 10);
        // Second frame held back for the inter-arrival gap.
        assert_eq!(mac.read(0x00, 4, 10), 0);
        assert_eq!(mac.read(0x00, 4, 509), 0);
        assert!(!mac.irq_pending(509));
        assert_eq!(mac.read(0x00, 4, 510), 4);
        assert!(mac.irq_pending(510));
    }

    #[test]
    fn reading_empty_rx_yields_zero() {
        let mut mac = EthMac::new(0x4002_8000);
        assert_eq!(mac.read(0x04, 4, 0), 0);
    }
}
