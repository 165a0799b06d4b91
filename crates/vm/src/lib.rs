//! The firmware execution engine.
//!
//! This crate interprets [`opec_ir`] programs over the
//! [`opec_armv7m::Machine`], giving every load and store the same
//! privilege/MPU treatment real silicon would. It is deliberately split
//! from the OPEC runtime: the VM only knows about a *loaded image*
//! ([`image::LoadedImage`]) and a pluggable [`supervisor::Supervisor`]
//! that receives SVCs and faults. The OPEC-Monitor (in `opec-core`) and
//! the ACES runtime (in `opec-aces`) are two implementations of that
//! trait; the no-isolation baseline uses [`supervisor::NullSupervisor`].
//!
//! Behavioural commitments that matter to the paper's evaluation:
//!
//! * every data access is checked by the machine (privilege + MPU), so
//!   isolation violations surface exactly where they would on hardware;
//! * calls follow an AAPCS-flavoured convention — the first four
//!   arguments travel in registers, the rest are written to the stack
//!   *through checked stores*, and stack frames live in simulated SRAM,
//!   which is what makes the paper's stack sub-region protection
//!   meaningful;
//! * calls to operation entry functions raise enter/exit supervisor
//!   calls, modelling the compiler-inserted `SVC` instructions;
//! * the cycle clock is charged per instruction with Cortex-M4-style
//!   costs, and supervisors charge their own handler work, so runtime
//!   overhead is measurable via the simulated DWT;
//! * the VM emits structured [`opec_obs`] events — operation switches
//!   with begin/end timing, function entries/exits, injector actions,
//!   trap verdicts — through an [`opec_obs::Obs`] handle attached at
//!   build time; the [`trace::Trace`] sink over that stream is the
//!   stand-in for the paper's GDB single-stepping when computing the
//!   ET metric.
//!
//! VMs are built with [`Vm::builder`]: supervisor, injector,
//! observability and containment are all fixed at construction.

#![warn(missing_docs)]

pub mod decode;
pub mod exec;
pub mod image;
pub mod inject;
pub mod supervisor;
pub mod trace;
pub mod watch;

pub use opec_obs as obs;

pub use decode::{decode_func, DecodedBlock, DecodedFunc, DecodedTerm, MicroOp};
pub use exec::{
    ContainmentMode, ExecMode, RunOutcome, Vm, VmBuilder, VmDelta, VmError, VmSnapshot, VmStats,
};
pub use image::{link_baseline, GlobalSlot, ImageError, LoadedImage, OpId};
pub use inject::{InjectAction, InjectOutcome, Injector, ScheduledInjector};
pub use obs::{Obs, Recorder, Sink};
pub use supervisor::{
    CpuContext, FaultFixup, NullSupervisor, Supervisor, SwitchKind, SwitchRequest, TrapCause,
    TrapError,
};
pub use trace::Trace;
pub use watch::{AccessKind, WatchedAccess, WatchedSwitch, Watcher};
