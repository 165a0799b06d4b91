//! OPEC: operation-based security isolation (the paper's contribution).
//!
//! This crate implements both halves of the system:
//!
//! **Stage I — compiler-assisted operation partitioning** (paper §4):
//! * [`spec`] — the developer inputs: the operation entry-function list
//!   and per-entry stack information;
//! * [`partition`] — DFS over the call graph from each entry with
//!   backtracking at other entries, producing operations and their
//!   merged resource dependencies;
//! * [`layout`] — global-variable shadowing: internal/external
//!   classification, operation data sections (size-sorted, MPU-aligned),
//!   the public data section, the variables relocation table, peripheral
//!   window merging, and MPU configuration generation;
//! * [`image`] — final image generation: code layout, Thumb-2 word
//!   emission for every load/store (the monitor's emulation path decodes
//!   these), global address slots, operation metadata accounting, and
//!   operation-entry (SVC) marking.
//!
//! **Stage II — hardware-assisted operation isolation** (paper §5):
//! * [`monitor`] — OPEC-Monitor: initialisation (shadow setup, MPU
//!   programming, privilege drop), the operation switch (synchronisation
//!   through the public section, data sanitization, pointer-field
//!   redirection, stack-argument relocation with MPU sub-regions), MPU
//!   virtualization for peripherals, and load/store emulation for core
//!   peripherals.
//!
//! The one-call entry point is [`pipeline::compile`], which runs the
//! analyses, partitions, lays out, and links — returning a
//! [`opec_vm::LoadedImage`] plus the [`layout::SystemPolicy`] the
//! monitor enforces.

#![warn(missing_docs)]

pub mod backend;
pub mod image;
pub mod layout;
pub mod monitor;
pub mod partition;
pub mod pipeline;
pub mod spec;

pub use backend::{Armv7mBackend, Backend, FaultClass, RegionPlan};
pub use image::build_image;
pub use layout::{OpPolicy, SharedVar, SystemPolicy};
pub use monitor::{MonitorStats, OpecMonitor};
pub use partition::{Operation, Partition};
pub use pipeline::{compile, CompileError, CompileOutput, CompileReport};
pub use spec::{ArgInfo, OperationSpec};

/// Modelled OPEC-Monitor code size in bytes, charged to the privileged
/// code / Flash accounting (the paper's Table 1 reports ~8.2–8.6 KiB of
/// privileged code, dominated by the monitor).
pub const MONITOR_CODE_BYTES: u32 = 8200;
