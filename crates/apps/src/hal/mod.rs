//! The synthetic hardware abstraction layer.
//!
//! Shaped after the STM32Cube HAL/BSP split the paper's applications
//! use: one "source file" per driver family, functions with realistic
//! call structure (init → msp-init → register config; I/O → flag poll →
//! data port), handle structs with pointer fields (so the monitor's
//! pointer-field redirection has real work), and error-handling paths
//! that a healthy run never takes (the execution-time over-privilege
//! material of Section 6.4).
//!
//! Each submodule registers its functions into a [`crate::Ctx`]; apps
//! compose exactly the families they need, so different apps get
//! different call graphs and peripheral footprints.

pub mod dcmi;
pub mod dma;
pub mod eth;
pub mod gpio;
pub mod lcd;
pub mod sd;
pub mod sysclk;
pub mod uart;
pub mod usb;
