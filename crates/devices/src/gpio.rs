//! GPIO port and user-button models.
//!
//! GPIO register map (a thin slice of the STM32 one):
//!
//! | Offset | Register | Behaviour |
//! |--------|----------|-----------|
//! | 0x00   | `MODER`  | pin mode bits (plain storage) |
//! | 0x10   | `IDR`    | input data (host-settable pin states) |
//! | 0x14   | `ODR`    | output data |
//!
//! [`Button`] is a host-side convenience wrapping one input pin.

use opec_armv7m::mem::MemRegion;
use opec_armv7m::MmioDevice;

/// One GPIO port (16 pins).
#[derive(Clone)]
pub struct Gpio {
    name: String,
    base: u32,
    moder: u32,
    idr: u32,
    odr: u32,
}

impl Gpio {
    /// Creates a port at `base`.
    pub fn new(name: impl Into<String>, base: u32) -> Gpio {
        Gpio { name: name.into(), base, moder: 0, idr: 0, odr: 0 }
    }

    /// Host side: drives input pin `pin` to `high`.
    pub fn set_input(&mut self, pin: u8, high: bool) {
        if high {
            self.idr |= 1 << pin;
        } else {
            self.idr &= !(1 << pin);
        }
    }

    /// Host side: reads output pin `pin`.
    pub fn output(&self, pin: u8) -> bool {
        self.odr & (1 << pin) != 0
    }
}

impl MmioDevice for Gpio {
    fn name(&self) -> &str {
        &self.name
    }

    fn region(&self) -> MemRegion {
        MemRegion::new(self.base, 0x400)
    }

    fn read(&mut self, offset: u32, _len: u32, _now: u64) -> u32 {
        match offset {
            0x00 => self.moder,
            0x10 => self.idr,
            0x14 => self.odr,
            _ => 0,
        }
    }

    fn write(&mut self, offset: u32, _len: u32, value: u32, _now: u64) {
        match offset {
            0x00 => self.moder = value,
            0x14 => self.odr = value,
            _ => {}
        }
    }
}

/// A debounced user button on one GPIO pin, scripted from the host.
///
/// The Camera workload waits for a press; tests schedule one with
/// [`Button::press_after`].
#[derive(Clone)]
pub struct Button {
    gpio_base: u32,
    pin: u8,
    press_at: Option<u64>,
    pressed: bool,
}

impl Button {
    /// Creates a button on `pin` of the GPIO port at `gpio_base`.
    /// The button device itself owns a small window above the port for
    /// its latch register at offset 0: reads return 1 once pressed.
    pub fn new(gpio_base: u32, pin: u8) -> Button {
        Button { gpio_base, pin, press_at: None, pressed: false }
    }

    /// Schedules a press at device-local time `cycles`: that many
    /// machine cycles after the button was attached.
    pub fn press_after(&mut self, cycles: u64) {
        self.press_at = Some(cycles);
    }

    /// Latches a scheduled press whose time has come.
    fn settle(&mut self, now: u64) {
        if self.press_at.is_some_and(|at| at <= now) {
            self.pressed = true;
            self.press_at = None;
        }
    }

    /// Presses the button immediately.
    pub fn press_now(&mut self) {
        self.pressed = true;
    }
}

impl MmioDevice for Button {
    fn name(&self) -> &str {
        "BUTTON"
    }

    fn region(&self) -> MemRegion {
        // The latch register lives in the EXTI-adjacent window.
        MemRegion::new(self.gpio_base, 0x20)
    }

    fn read(&mut self, offset: u32, _len: u32, now: u64) -> u32 {
        self.settle(now);
        match offset {
            0x00 => u32::from(self.pressed),
            0x04 => u32::from(self.pin),
            _ => 0,
        }
    }

    fn write(&mut self, offset: u32, _len: u32, value: u32, now: u64) {
        self.settle(now);
        // Writing 1 to the latch clears it (write-one-to-clear).
        if offset == 0x00 && value == 1 {
            self.pressed = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpio_input_output() {
        let mut g = Gpio::new("GPIOA", 0x4002_0000);
        g.set_input(3, true);
        assert_eq!(g.read(0x10, 4, 0), 1 << 3);
        g.write(0x14, 4, 1 << 5, 0);
        assert!(g.output(5));
        assert!(!g.output(4));
    }

    #[test]
    fn gpio_moder_is_storage() {
        let mut g = Gpio::new("GPIOA", 0x4002_0000);
        g.write(0x00, 4, 0x5555, 0);
        assert_eq!(g.read(0x00, 4, 0), 0x5555);
    }

    #[test]
    fn button_press_after_delay() {
        let mut b = Button::new(0x4001_3C00, 0);
        b.press_after(100);
        assert_eq!(b.read(0x00, 4, 0), 0);
        assert_eq!(b.read(0x00, 4, 50), 0);
        assert_eq!(b.read(0x00, 4, 110), 1);
        // Write-one-to-clear.
        b.write(0x00, 4, 1, 110);
        assert_eq!(b.read(0x00, 4, 110), 0);
        // The press is latched once, not re-raised later.
        assert_eq!(b.read(0x00, 4, 500), 0);
    }

    #[test]
    fn button_clear_settles_a_due_press_first() {
        // A write-one-to-clear at or after the press time clears the
        // press that was due, exactly as if it had latched on time.
        let mut b = Button::new(0x4001_3C00, 0);
        b.press_after(100);
        b.write(0x00, 4, 1, 100);
        assert_eq!(b.read(0x00, 4, 200), 0);
        // A clear before the press time leaves the press scheduled.
        let mut b = Button::new(0x4001_3C00, 0);
        b.press_after(100);
        b.write(0x00, 4, 1, 99);
        assert_eq!(b.read(0x00, 4, 100), 1);
    }

    #[test]
    fn button_press_after_is_relative_to_attach() {
        use opec_armv7m::{Board, Machine, Mode};
        let mut m = Machine::new(Board::stm32f4_discovery());
        m.charge(10_000);
        let mut b = Button::new(0x4001_3C00, 0);
        b.press_after(100);
        m.add_device(Box::new(b)).unwrap();
        m.charge(99);
        assert_eq!(m.load(0x4001_3C00, 4, Mode::Privileged).unwrap(), 0);
        m.charge(1);
        assert_eq!(m.load(0x4001_3C00, 4, Mode::Privileged).unwrap(), 1);
    }

    #[test]
    fn button_immediate_press() {
        let mut b = Button::new(0x4001_3C00, 13);
        b.press_now();
        assert_eq!(b.read(0x00, 4, 0), 1);
        assert_eq!(b.read(0x04, 4, 0), 13);
    }
}
