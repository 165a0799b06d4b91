//! Block-storage models: the SD card (SDIO) and the USB mass-storage
//! disk used by the Camera workload.
//!
//! Both expose the same simple block interface:
//!
//! | Offset | Register | Behaviour |
//! |--------|----------|-----------|
//! | 0x00   | `CMD`    | write 1 = read block, 2 = write block |
//! | 0x04   | `ARG`    | block number |
//! | 0x08   | `DATA`   | 32-bit FIFO port into the 512-byte block buffer |
//! | 0x0C   | `STATUS` | bit0 ready (always), bit1 error (bad block) |
//!
//! A read command fills the internal buffer from the backing store and
//! resets the FIFO cursor; a write command flushes the buffer to the
//! backing store. Firmware moves data one word at a time through `DATA`,
//! exactly the polling pattern the real HAL drivers use between DMA
//! transfers.

use std::collections::HashMap;

use opec_armv7m::mem::MemRegion;
use opec_armv7m::MmioDevice;

/// Block size in bytes.
pub const BLOCK_SIZE: usize = 512;
/// Words per block through the `DATA` FIFO.
pub const BLOCK_WORDS: usize = BLOCK_SIZE / 4;

/// `CMD` value: fill the buffer from block `ARG`.
pub const CMD_READ_BLOCK: u32 = 1;
/// `CMD` value: flush the buffer to block `ARG`.
pub const CMD_WRITE_BLOCK: u32 = 2;

/// Sparse block store shared by both storage devices.
#[derive(Debug, Clone, Default)]
pub struct BlockDevice {
    blocks: HashMap<u32, [u8; BLOCK_SIZE]>,
    capacity_blocks: u32,
}

impl BlockDevice {
    /// Creates a store with the given capacity.
    pub fn new(capacity_blocks: u32) -> BlockDevice {
        BlockDevice { blocks: HashMap::new(), capacity_blocks }
    }

    /// Reads a block (zeroes if never written).
    pub fn read_block(&self, n: u32) -> Option<[u8; BLOCK_SIZE]> {
        if n >= self.capacity_blocks {
            return None;
        }
        Some(self.blocks.get(&n).copied().unwrap_or([0; BLOCK_SIZE]))
    }

    /// Writes a block.
    pub fn write_block(&mut self, n: u32, data: [u8; BLOCK_SIZE]) -> bool {
        if n >= self.capacity_blocks {
            return false;
        }
        self.blocks.insert(n, data);
        true
    }

    /// Number of blocks that have been written.
    pub fn written_blocks(&self) -> usize {
        self.blocks.len()
    }
}

/// Shared register-level implementation.
#[derive(Clone)]
struct BlockPort {
    store: BlockDevice,
    buffer: [u8; BLOCK_SIZE],
    cursor: usize,
    arg: u32,
    error: bool,
    busy_cycles: u64,
    /// Device-local time the current command's busy period ends.
    busy_until: u64,
}

impl BlockPort {
    fn new(store: BlockDevice) -> BlockPort {
        BlockPort {
            store,
            buffer: [0; BLOCK_SIZE],
            cursor: 0,
            arg: 0,
            error: false,
            busy_cycles: 0,
            busy_until: 0,
        }
    }

    fn read(&mut self, offset: u32, now: u64) -> u32 {
        match offset {
            0x08 => {
                let w = self.cursor.min(BLOCK_SIZE - 4);
                let v = u32::from_le_bytes(self.buffer[w..w + 4].try_into().unwrap());
                self.cursor = (self.cursor + 4).min(BLOCK_SIZE);
                v
            }
            0x0C => {
                let ready = now >= self.busy_until;
                u32::from(ready) | u32::from(self.error) << 1
            }
            0x04 => self.arg,
            _ => 0,
        }
    }

    fn write(&mut self, offset: u32, value: u32, now: u64) {
        match offset {
            0x00 => {
                // Every command starts a busy period (media access
                // time); STATUS.ready clears until it elapses.
                self.busy_until = now + self.busy_cycles;
                match value {
                    CMD_READ_BLOCK => match self.store.read_block(self.arg) {
                        Some(b) => {
                            self.buffer = b;
                            self.cursor = 0;
                            self.error = false;
                        }
                        None => self.error = true,
                    },
                    CMD_WRITE_BLOCK => {
                        self.error = !self.store.write_block(self.arg, self.buffer);
                        self.cursor = 0;
                    }
                    // Other command codes (init/status commands) are
                    // accepted but have no data effect.
                    _ => {}
                }
            }
            0x04 => {
                // Selecting a block starts a new transaction: the FIFO
                // cursor rewinds.
                self.arg = value;
                self.cursor = 0;
            }
            0x08 => {
                let w = self.cursor.min(BLOCK_SIZE - 4);
                self.buffer[w..w + 4].copy_from_slice(&value.to_le_bytes());
                self.cursor = (self.cursor + 4).min(BLOCK_SIZE);
            }
            _ => {}
        }
    }
}

/// The SD card behind the SDIO controller window.
#[derive(Clone)]
pub struct SdCard {
    port: BlockPort,
    base: u32,
}

impl SdCard {
    /// Creates an SD card model at `base` with `capacity_blocks` blocks.
    pub fn new(base: u32, capacity_blocks: u32) -> SdCard {
        SdCard { port: BlockPort::new(BlockDevice::new(capacity_blocks)), base }
    }

    /// Models media access time: each block command keeps the card busy
    /// for `cycles` machine cycles.
    pub fn with_busy_cycles(mut self, cycles: u64) -> SdCard {
        self.port.busy_cycles = cycles;
        self
    }

    /// Pre-loads a block (e.g. pictures or a FAT image prepared by the
    /// host).
    pub fn preload(&mut self, block: u32, data: &[u8]) {
        let mut b = [0u8; BLOCK_SIZE];
        b[..data.len().min(BLOCK_SIZE)].copy_from_slice(&data[..data.len().min(BLOCK_SIZE)]);
        self.port.store.write_block(block, b);
    }

    /// Host-side view of a block.
    pub fn block(&self, n: u32) -> Option<[u8; BLOCK_SIZE]> {
        self.port.store.read_block(n)
    }
}

impl MmioDevice for SdCard {
    fn name(&self) -> &str {
        "SDIO"
    }
    fn region(&self) -> MemRegion {
        MemRegion::new(self.base, 0x400)
    }
    fn read(&mut self, offset: u32, _len: u32, now: u64) -> u32 {
        self.port.read(offset, now)
    }
    fn write(&mut self, offset: u32, _len: u32, value: u32, now: u64) {
        self.port.write(offset, value, now)
    }
}

/// The USB mass-storage disk (Camera saves captured photos to it).
#[derive(Clone)]
pub struct UsbMsc {
    port: BlockPort,
    base: u32,
}

impl UsbMsc {
    /// Creates a USB disk at `base`.
    pub fn new(base: u32, capacity_blocks: u32) -> UsbMsc {
        UsbMsc { port: BlockPort::new(BlockDevice::new(capacity_blocks)), base }
    }

    /// Models media access time per block command.
    pub fn with_busy_cycles(mut self, cycles: u64) -> UsbMsc {
        self.port.busy_cycles = cycles;
        self
    }

    /// Host-side view of a block.
    pub fn block(&self, n: u32) -> Option<[u8; BLOCK_SIZE]> {
        self.port.store.read_block(n)
    }

    /// Number of blocks written by the firmware.
    pub fn written_blocks(&self) -> usize {
        self.port.store.written_blocks()
    }
}

impl MmioDevice for UsbMsc {
    fn name(&self) -> &str {
        "USB_MSC"
    }
    fn region(&self) -> MemRegion {
        MemRegion::new(self.base, 0x400)
    }
    fn read(&mut self, offset: u32, _len: u32, now: u64) -> u32 {
        self.port.read(offset, now)
    }
    fn write(&mut self, offset: u32, _len: u32, value: u32, now: u64) {
        self.port.write(offset, value, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_store_bounds() {
        let mut bd = BlockDevice::new(4);
        assert!(bd.write_block(3, [1; BLOCK_SIZE]));
        assert!(!bd.write_block(4, [1; BLOCK_SIZE]));
        assert_eq!(bd.read_block(3).unwrap()[0], 1);
        assert_eq!(bd.read_block(0).unwrap()[0], 0);
        assert!(bd.read_block(9).is_none());
    }

    #[test]
    fn sd_read_block_through_fifo() {
        let mut sd = SdCard::new(0x4001_2C00, 16);
        let mut data = [0u8; BLOCK_SIZE];
        data[0..4].copy_from_slice(&0xAABBCCDDu32.to_le_bytes());
        data[4..8].copy_from_slice(&0x11223344u32.to_le_bytes());
        sd.preload(2, &data);
        sd.write(0x04, 4, 2, 0); // ARG = block 2
        sd.write(0x00, 4, CMD_READ_BLOCK, 0);
        assert_eq!(sd.read(0x0C, 4, 0) & 0b10, 0); // no error
        assert_eq!(sd.read(0x08, 4, 0), 0xAABBCCDD);
        assert_eq!(sd.read(0x08, 4, 0), 0x11223344);
    }

    #[test]
    fn sd_write_block_roundtrip() {
        let mut sd = SdCard::new(0x4001_2C00, 16);
        sd.write(0x04, 4, 5, 0);
        for i in 0..BLOCK_WORDS as u32 {
            sd.write(0x08, 4, i, 0);
        }
        sd.write(0x00, 4, CMD_WRITE_BLOCK, 0);
        let b = sd.block(5).unwrap();
        assert_eq!(u32::from_le_bytes(b[0..4].try_into().unwrap()), 0);
        assert_eq!(u32::from_le_bytes(b[8..12].try_into().unwrap()), 2);
        // Read it back through the FIFO.
        sd.write(0x00, 4, CMD_READ_BLOCK, 0);
        assert_eq!(sd.read(0x08, 4, 0), 0);
        assert_eq!(sd.read(0x08, 4, 0), 1);
    }

    #[test]
    fn out_of_range_block_sets_error() {
        let mut sd = SdCard::new(0x4001_2C00, 2);
        sd.write(0x04, 4, 99, 0);
        sd.write(0x00, 4, CMD_READ_BLOCK, 0);
        assert_eq!(sd.read(0x0C, 4, 0) & 0b10, 0b10);
    }

    #[test]
    fn busy_cycles_gate_the_ready_flag() {
        let mut sd = SdCard::new(0x4001_2C00, 4).with_busy_cycles(2000);
        sd.write(0x04, 4, 1, 300);
        sd.write(0x00, 4, CMD_READ_BLOCK, 300);
        assert_eq!(sd.read(0x0C, 4, 300) & 1, 0, "busy right after the command");
        assert_eq!(sd.read(0x0C, 4, 2299) & 1, 0);
        assert_eq!(sd.read(0x0C, 4, 2300) & 1, 1);
    }

    #[test]
    fn usb_disk_counts_writes() {
        let mut usb = UsbMsc::new(0x5000_0000, 64);
        assert_eq!(usb.written_blocks(), 0);
        usb.write(0x04, 4, 0, 0);
        usb.write(0x08, 4, 0xFEED, 0);
        usb.write(0x00, 4, CMD_WRITE_BLOCK, 0);
        assert_eq!(usb.written_blocks(), 1);
        assert_eq!(u32::from_le_bytes(usb.block(0).unwrap()[0..4].try_into().unwrap()), 0xFEED);
    }
}
