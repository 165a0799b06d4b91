//! Fleet-scale evaluation daemon for the OPEC reproduction.
//!
//! Everything before this crate is batch-shaped: one VM, one campaign,
//! one JSON artifact. Real deployments of compartmentalized firmware
//! are fleets, and enforcement cost is a sustained-traffic property —
//! so this crate turns the evaluation into a resident service that
//! multiplexes thousands of logical device VMs over a few worker
//! threads:
//!
//! * [`mix`] — which firmwares run (paper apps + generated fuzz
//!   firmwares), on which protection backends, in what proportion.
//! * [`template`] — one compiled image and golden post-boot snapshot
//!   per `(kind, backend)`: device spawn/reset is a dirty-page restore,
//!   not a rebuild.
//! * [`sched`] — the cooperative scheduler: devices execute fuel
//!   quanta on worker-resident VMs, park their dirty pages
//!   ([`opec_vm::VmDelta`]), and re-queue; per-device metrics fold into
//!   sharded aggregates merged at scrape time.
//! * [`bench`](mod@bench) — `BENCH_fleet.json`: device-steps/sec across fleet
//!   sizes, the worker-scaling curve, pooled-vs-scratch spawn latency,
//!   and p50/p99 operation-switch latency under load.
//! * [`http`] — the dependency-free HTTP/1.1 scrape surface:
//!   `GET /metrics` (Prometheus text), `GET /devices` (JSON status),
//!   `POST /firmware` (submit a generated-firmware plan, read back its
//!   differential-oracle verdict).

#![warn(missing_docs)]

pub mod bench;
pub mod http;
pub mod mix;
pub mod sched;
pub mod template;

pub use bench::{fleet_bench, BenchConfig};
pub use http::{serve, ServeState};
pub use mix::{DeviceKind, FleetBackend, Mix};
pub use sched::{
    resolve_workers, run_fleet, DeviceStatus, FleetConfig, FleetOutcome, FleetShared,
    DEFAULT_QUANTUM_FUEL,
};
pub use template::Template;
