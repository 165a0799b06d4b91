//! DCMI camera model for the Camera workload.
//!
//! | Offset | Register | Behaviour |
//! |--------|----------|-----------|
//! | 0x00   | `CTRL`   | write 1 = start a capture |
//! | 0x04   | `STATUS` | bit0 frame ready |
//! | 0x08   | `DATA`   | 32-bit FIFO over the captured frame |
//! | 0x0C   | `SIZE`   | frame size in bytes |
//!
//! Captured frames are deterministic pseudo-images so a saved photo can
//! be verified byte-for-byte by the harness.

use opec_armv7m::mem::MemRegion;
use opec_armv7m::MmioDevice;

/// The DCMI camera interface.
#[derive(Clone)]
pub struct Dcmi {
    base: u32,
    frame_bytes: u32,
    ready: bool,
    cursor: u32,
    capture_count: u32,
    capture_delay: u64,
    /// Device-local time the current capture's frame becomes ready.
    ready_at: u64,
}

impl Dcmi {
    /// Creates a camera producing frames of `frame_bytes` bytes
    /// (rounded up to a word).
    pub fn new(base: u32, frame_bytes: u32) -> Dcmi {
        Dcmi {
            base,
            frame_bytes: (frame_bytes + 3) & !3,
            ready: false,
            cursor: 0,
            capture_count: 0,
            capture_delay: 0,
            ready_at: 0,
        }
    }

    /// Models exposure/DMA time: a capture's frame becomes ready only
    /// `cycles` machine cycles after `CTRL` starts it.
    pub fn with_capture_delay(mut self, cycles: u64) -> Dcmi {
        self.capture_delay = cycles;
        self
    }

    /// The deterministic pixel word at byte offset `off` of capture `n`.
    pub fn expected_word(capture: u32, off: u32) -> u32 {
        (capture.wrapping_mul(0x9E37_79B9)) ^ off.wrapping_mul(0x85EB_CA6B)
    }

    /// Number of captures started.
    pub fn captures(&self) -> u32 {
        self.capture_count
    }
}

impl MmioDevice for Dcmi {
    fn name(&self) -> &str {
        "DCMI"
    }

    fn region(&self) -> MemRegion {
        MemRegion::new(self.base, 0x400)
    }

    fn read(&mut self, offset: u32, _len: u32, now: u64) -> u32 {
        match offset {
            0x04 => u32::from(self.ready && now >= self.ready_at),
            0x08 => {
                if !self.ready || now < self.ready_at {
                    return 0;
                }
                let v = Dcmi::expected_word(self.capture_count, self.cursor);
                self.cursor += 4;
                if self.cursor >= self.frame_bytes {
                    self.ready = false;
                }
                v
            }
            0x0C => self.frame_bytes,
            _ => 0,
        }
    }

    fn write(&mut self, offset: u32, _len: u32, value: u32, now: u64) {
        if offset == 0x00 && value == 1 {
            self.capture_count += 1;
            self.ready = true;
            self.cursor = 0;
            self.ready_at = now + self.capture_delay;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_produces_deterministic_frame() {
        let mut cam = Dcmi::new(0x5005_0000, 16);
        assert_eq!(cam.read(0x04, 4, 0), 0);
        cam.write(0x00, 4, 1, 0);
        assert_eq!(cam.read(0x04, 4, 0), 1);
        for off in (0..16).step_by(4) {
            assert_eq!(cam.read(0x08, 4, 0), Dcmi::expected_word(1, off));
        }
        // Frame drained.
        assert_eq!(cam.read(0x04, 4, 0), 0);
        assert_eq!(cam.captures(), 1);
    }

    #[test]
    fn second_capture_differs() {
        let mut cam = Dcmi::new(0x5005_0000, 8);
        cam.write(0x00, 4, 1, 0);
        let a = cam.read(0x08, 4, 0);
        let _ = cam.read(0x08, 4, 0);
        cam.write(0x00, 4, 1, 0);
        let b = cam.read(0x08, 4, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn data_without_capture_is_zero() {
        let mut cam = Dcmi::new(0x5005_0000, 8);
        assert_eq!(cam.read(0x08, 4, 0), 0);
    }

    #[test]
    fn capture_delay_models_exposure() {
        let mut cam = Dcmi::new(0x5005_0000, 8).with_capture_delay(1000);
        cam.write(0x00, 4, 1, 500);
        assert_eq!(cam.read(0x04, 4, 500), 0, "not ready during exposure");
        assert_eq!(cam.read(0x08, 4, 1499), 0);
        assert_eq!(cam.read(0x04, 4, 1500), 1);
        assert_eq!(cam.read(0x08, 4, 1500), Dcmi::expected_word(1, 0));
    }

    #[test]
    fn size_register_reports_frame_bytes() {
        let mut cam = Dcmi::new(0x5005_0000, 13);
        assert_eq!(cam.read(0x0C, 4, 0), 16); // rounded to a word
    }
}
