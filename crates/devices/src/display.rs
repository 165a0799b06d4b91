//! LCD controller model (LTDC-flavoured).
//!
//! | Offset | Register | Behaviour |
//! |--------|----------|-----------|
//! | 0x00   | `CTRL`   | bit0 enable |
//! | 0x04   | `X`      | cursor column |
//! | 0x08   | `Y`      | cursor row |
//! | 0x0C   | `PIXEL`  | write paints at (X, Y) and advances X |
//! | 0x10   | `STATUS` | bit0 vsync (toggles every [`Lcd::VSYNC_CYCLES`] of device-local time) |
//! | 0x14   | `BRIGHT` | backlight brightness (fade effects write this) |
//!
//! The framebuffer is host-visible so tests can assert on rendered
//! pictures; the workloads only need "pixels were written" semantics.

use opec_armv7m::mem::MemRegion;
use opec_armv7m::MmioDevice;

/// A small LCD panel.
#[derive(Clone)]
pub struct Lcd {
    base: u32,
    /// Panel width in pixels.
    pub width: u32,
    /// Panel height in pixels.
    pub height: u32,
    fb: Vec<u32>,
    x: u32,
    y: u32,
    ctrl: u32,
    bright: u32,
    /// Total pixels painted since reset.
    pub pixels_written: u64,
}

impl Lcd {
    /// Cycles per vsync-flag toggle.
    pub const VSYNC_CYCLES: u64 = 10_000;

    /// Creates an LCD at `base`.
    pub fn new(base: u32, width: u32, height: u32) -> Lcd {
        Lcd {
            base,
            width,
            height,
            fb: vec![0; (width * height) as usize],
            x: 0,
            y: 0,
            ctrl: 0,
            bright: 0,
            pixels_written: 0,
        }
    }

    /// Host view of pixel (x, y).
    pub fn pixel(&self, x: u32, y: u32) -> Option<u32> {
        if x < self.width && y < self.height {
            Some(self.fb[(y * self.width + x) as usize])
        } else {
            None
        }
    }

    /// Current backlight brightness (fade effects are observable here).
    pub fn brightness(&self) -> u32 {
        self.bright
    }
}

impl MmioDevice for Lcd {
    fn name(&self) -> &str {
        "LCD"
    }

    fn region(&self) -> MemRegion {
        MemRegion::new(self.base, 0x400)
    }

    fn read(&mut self, offset: u32, _len: u32, now: u64) -> u32 {
        match offset {
            0x00 => self.ctrl,
            0x04 => self.x,
            0x08 => self.y,
            0x10 => u32::from((now / Lcd::VSYNC_CYCLES).is_multiple_of(2)),
            0x14 => self.bright,
            _ => 0,
        }
    }

    fn write(&mut self, offset: u32, _len: u32, value: u32, _now: u64) {
        match offset {
            0x00 => self.ctrl = value,
            0x04 => self.x = value,
            0x08 => self.y = value,
            0x0C => {
                if self.x < self.width && self.y < self.height {
                    self.fb[(self.y * self.width + self.x) as usize] = value;
                    self.pixels_written += 1;
                }
                self.x += 1;
                if self.x >= self.width {
                    self.x = 0;
                    self.y = (self.y + 1) % self.height.max(1);
                }
            }
            0x14 => self.bright = value,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pixels_paint_and_advance() {
        let mut lcd = Lcd::new(0x4001_6800, 4, 2);
        lcd.write(0x04, 4, 0, 0);
        lcd.write(0x08, 4, 0, 0);
        lcd.write(0x0C, 4, 0xFF0000, 0);
        lcd.write(0x0C, 4, 0x00FF00, 0);
        assert_eq!(lcd.pixel(0, 0), Some(0xFF0000));
        assert_eq!(lcd.pixel(1, 0), Some(0x00FF00));
        assert_eq!(lcd.pixels_written, 2);
    }

    #[test]
    fn cursor_wraps_rows() {
        let mut lcd = Lcd::new(0x4001_6800, 2, 2);
        for i in 0..4 {
            lcd.write(0x0C, 4, i, 0);
        }
        assert_eq!(lcd.pixel(0, 1), Some(2));
        assert_eq!(lcd.pixel(1, 1), Some(3));
    }

    #[test]
    fn brightness_is_observable() {
        let mut lcd = Lcd::new(0x4001_6800, 2, 2);
        lcd.write(0x14, 4, 55, 0);
        assert_eq!(lcd.brightness(), 55);
        assert_eq!(lcd.read(0x14, 4, 0), 55);
    }

    #[test]
    fn vsync_toggles_with_time() {
        let mut lcd = Lcd::new(0x4001_6800, 2, 2);
        let v0 = lcd.read(0x10, 4, 0);
        assert_eq!(lcd.read(0x10, 4, Lcd::VSYNC_CYCLES - 1), v0);
        let v1 = lcd.read(0x10, 4, Lcd::VSYNC_CYCLES);
        assert_ne!(v0, v1);
        assert_eq!(lcd.read(0x10, 4, 2 * Lcd::VSYNC_CYCLES), v0);
    }

    #[test]
    fn out_of_range_pixel_read_is_none() {
        let lcd = Lcd::new(0x4001_6800, 2, 2);
        assert_eq!(lcd.pixel(5, 0), None);
    }
}
