//! Observability for the OPEC runtime: structured events, online
//! per-operation metrics, and exporters.
//!
//! The paper's runtime-overhead breakdown (§7) needs to know what
//! happens *inside* an operation switch — SVC entry/exit, MPU region
//! reloads, peripheral-window virtualization, BusFault emulation. This
//! crate provides the plumbing to measure that from the inside:
//!
//! * [`event::Event`] — the typed taxonomy: switch begin/end with
//!   old/new operation ids, virtualization hit/miss/evict, emulated
//!   core-peripheral accesses with the decoded Thumb-2 operands,
//!   injector actions, trap verdicts, quarantines.
//! * [`sink::Obs`] — the cloneable handle the VM, the OPEC-Monitor,
//!   the MPU model and the ACES runtime emit through. Disabled (the
//!   default) it is a `None` check per potential event and the
//!   event-constructing closure never runs.
//! * [`ring::RingBuffer`] — a bounded raw stream with drop counting;
//!   nonzero drops mean the exported timeline is incomplete and CI
//!   fails the report.
//! * [`metrics::Metrics`] — online per-op aggregates: switch counts,
//!   switch-latency cycle histograms, virtualization faults, emulated
//!   accesses, instructions retired per op.
//! * [`export`] — Chrome `trace_event` JSON for timeline viewing and a
//!   metrics JSON consumed by `opec-eval report`.
//!
//! Both the OPEC and ACES runtimes emit into the same taxonomy, so
//! their switch costs are compared from one event stream rather than
//! from two ad-hoc counters.

#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod json;
pub mod metrics;
pub mod prom;
pub mod ring;
pub mod sink;

pub use event::{
    Access, Dir, Event, InjectKind, InjectVerdict, JobEventKind, OpId, OracleKind, OracleLayer,
    Stamped, TrapKind,
};
pub use export::{chrome_trace, event_log, metrics_json};
pub use metrics::{Histogram, Metrics, OpMetrics, Recorder};
pub use prom::PromWriter;
pub use ring::{RingBuffer, DEFAULT_RING_CAPACITY};
pub use sink::{Obs, Sink, SinkHandle};
