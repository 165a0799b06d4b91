//! The fleet scheduler: N logical devices multiplexed over a few
//! worker threads in fuel-sliced rounds.
//!
//! Every device is a [`opec_vm::VmDelta`] (its dirty pages plus
//! interpreter registers) and an [`opec_obs::Metrics`] aggregate; the
//! heavyweight state — compiled image, booted machine, golden
//! snapshot — lives once per worker per template
//! ([`crate::template::ResidentVm`]). A device's quantum is:
//!
//! 1. restore the resident VM to the template's golden snapshot
//!    (dirty-page copy, undoing the previous tenant),
//! 2. unpark the device's delta onto it,
//! 3. swap the device's `Metrics` into the resident obs slot,
//! 4. `resume` one fuel quantum,
//! 5. swap the metrics back out and park the new delta.
//!
//! Devices are pinned to workers by `id % workers` (the
//! [`opec_campaign::quantum`] contract), and per-device aggregates
//! merge in device-id order, so a fixed-round fleet produces
//! byte-identical merged metrics at any worker count. Workers publish
//! their shard aggregates into [`FleetShared`] on a fixed quantum
//! cadence; a scraper merges the shard views without ever touching a
//! lock a worker holds across guest execution.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use opec_campaign::{run_quanta, Poll, Quantum, QuantumCtx, QuantumOpts};
use opec_obs::{Metrics, RingBuffer};

use crate::template::RingSink;
use opec_vm::{VmDelta, VmError};

use opec_core::OpecMonitor;

use crate::mix::{plan_devices, FleetBackend, Mix};
use crate::template::{ResidentVm, Template};

/// Default guest-instruction budget per device quantum.
pub const DEFAULT_QUANTUM_FUEL: u64 = 20_000;

/// Quanta between a worker's shard publications.
const PUBLISH_QUANTA: u64 = 64;

/// Shape of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Logical device count.
    pub devices: usize,
    /// Worker threads; `None` means one per core.
    pub workers: Option<usize>,
    /// Guest instruction budget per device quantum.
    pub quantum_fuel: u64,
    /// Stop after this many scheduler rounds (the deterministic mode).
    pub rounds: Option<u64>,
    /// Wall-clock stop for the whole run.
    pub duration: Option<Duration>,
    /// Firmware mix.
    pub mix: Mix,
    /// Protection backends devices alternate through.
    pub backends: Vec<FleetBackend>,
    /// Capacity of an optional per-worker diagnostic event ring. The
    /// rings are bounded, so a saturated fleet sheds timeline events —
    /// counted, surfaced in every export, never silent.
    pub ring: Option<usize>,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            devices: 64,
            workers: None,
            quantum_fuel: DEFAULT_QUANTUM_FUEL,
            rounds: None,
            duration: None,
            mix: Mix::default(),
            backends: FleetBackend::ALL.to_vec(),
            ring: None,
        }
    }
}

/// Resolves a `workers` option the way the campaign engine does:
/// absent means one per core.
pub fn resolve_workers(workers: Option<usize>) -> usize {
    match workers {
        Some(n) => n,
        None => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    }
}

/// One device's externally visible counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceStatus {
    /// Device id (global, stable across worker counts).
    pub id: u64,
    /// Firmware kind name.
    pub kind: &'static str,
    /// Protection backend name.
    pub backend: &'static str,
    /// Guest instructions executed (the fleet's "device steps").
    pub steps: u64,
    /// Quanta scheduled.
    pub quanta: u64,
    /// Respawns from the golden snapshot (workload completions and
    /// contained faults).
    pub resets: u64,
    /// Quanta that ended in a guest fault (aborts, bad icalls); the
    /// device respawns, the fleet keeps going.
    pub faults: u64,
    /// Bytes of dirty memory in the current parked delta.
    pub parked_bytes: usize,
    /// Set when a host-side panic retired the device.
    pub panicked: bool,
}

/// One worker's published aggregate, refreshed every
/// `PUBLISH_QUANTA` quanta.
#[derive(Default)]
pub struct ShardView {
    /// Merged metrics of the shard's devices (in local order).
    pub metrics: Metrics,
    /// Events shed by the worker's diagnostic ring (0 without a ring).
    pub sheds: u64,
    /// Device counters, in local shard order.
    pub devices: Vec<DeviceStatus>,
}

/// The lock-free-at-quantum-granularity scrape surface: workers
/// publish into their own slot; scrapers merge across slots.
pub struct FleetShared {
    /// One slot per worker.
    pub shards: Vec<Mutex<ShardView>>,
    /// Cooperative stop: devices retire at their next quantum.
    pub stop: AtomicBool,
    /// Set once the schedule has drained.
    pub done: AtomicBool,
}

impl FleetShared {
    /// Empty shard slots for `workers` workers.
    pub fn new(workers: usize) -> FleetShared {
        FleetShared {
            shards: (0..workers).map(|_| Mutex::new(ShardView::default())).collect(),
            stop: AtomicBool::new(false),
            done: AtomicBool::new(false),
        }
    }

    /// Merges every shard view into one `(metrics, sheds, statuses)`
    /// scrape, statuses sorted by device id.
    pub fn merged(&self) -> (Metrics, u64, Vec<DeviceStatus>) {
        let mut metrics = Metrics::new();
        let mut sheds = 0;
        let mut devices = Vec::new();
        for slot in &self.shards {
            let view = slot.lock().expect("shard slot poisoned");
            metrics.merge(&view.metrics);
            sheds += view.sheds;
            devices.extend(view.devices.iter().cloned());
        }
        devices.sort_by_key(|d| d.id);
        (metrics, sheds, devices)
    }
}

/// The settled outcome of one fleet run.
pub struct FleetOutcome {
    /// Per-device `(counters, aggregate)` in device-id order.
    pub devices: Vec<(DeviceStatus, Metrics)>,
    /// All device aggregates merged in device-id order.
    pub metrics: Metrics,
    /// Total events shed by diagnostic rings.
    pub sheds: u64,
    /// Wall-clock time of the schedule.
    pub wall: Duration,
    /// Worker threads the schedule ran on.
    pub workers: usize,
    /// `(device id, panic message)` for devices retired by host panics.
    pub panics: Vec<(u64, String)>,
}

impl FleetOutcome {
    /// Total guest instructions executed.
    pub fn steps(&self) -> u64 {
        self.devices.iter().map(|(d, _)| d.steps).sum()
    }

    /// Total quanta scheduled.
    pub fn quanta(&self) -> u64 {
        self.devices.iter().map(|(d, _)| d.quanta).sum()
    }

    /// Total device respawns.
    pub fn resets(&self) -> u64 {
        self.devices.iter().map(|(d, _)| d.resets).sum()
    }

    /// Total contained guest faults.
    pub fn faults(&self) -> u64 {
        self.devices.iter().map(|(d, _)| d.faults).sum()
    }

    /// Device steps per wall-clock second.
    pub fn steps_per_sec(&self) -> f64 {
        self.steps() as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Per-worker mutable state every task on the worker shares.
struct WorkerCtx {
    /// Resident VM per template index (built only for templates the
    /// shard actually uses).
    residents: Vec<Option<ResidentVm>>,
    /// Per-local-device aggregates (swapped into the resident obs slot
    /// around each quantum).
    metrics: Vec<Metrics>,
    /// Per-local-device counters.
    status: Vec<DeviceStatus>,
    /// Shared diagnostic ring, when configured.
    ring: Option<Rc<RefCell<RingSink>>>,
    /// Quanta since the last shard publication.
    since_publish: u64,
}

impl WorkerCtx {
    fn publish(&self, shared: &FleetShared, worker: usize) {
        let mut merged = Metrics::new();
        for m in &self.metrics {
            merged.merge(m);
        }
        let sheds = self.ring.as_ref().map(|r| r.borrow().0.dropped()).unwrap_or(0);
        let mut slot = shared.shards[worker].lock().expect("shard slot poisoned");
        slot.metrics = merged;
        slot.sheds = sheds;
        slot.devices = self.status.clone();
    }
}

/// One logical device, pinned to its worker.
struct DeviceTask {
    /// Index into the worker's local vectors.
    local: usize,
    /// Index into the template table.
    template: usize,
    /// The parked state; `None` means spawn fresh from golden.
    delta: Option<VmDelta<OpecMonitor>>,
    ctx: Rc<RefCell<WorkerCtx>>,
    shared: Option<Arc<FleetShared>>,
    worker: usize,
}

/// One device's settled output, plus (from one task per shard) the
/// worker ring's final shed count.
struct DeviceOut {
    status: DeviceStatus,
    metrics: Metrics,
    /// `Some` only for the shard's first task: events the worker's
    /// diagnostic ring shed over the whole run.
    shard_sheds: Option<u64>,
}

impl Quantum for DeviceTask {
    type Output = DeviceOut;

    fn quantum(&mut self, q: &QuantumCtx) -> Poll {
        if let Some(shared) = &self.shared {
            if shared.stop.load(Ordering::Relaxed) {
                return Poll::Done;
            }
        }
        let mut ctx = self.ctx.borrow_mut();
        let ctx = &mut *ctx;
        let res = ctx.residents[self.template]
            .as_mut()
            .expect("resident VM built for every template in the shard");
        let vm = &mut res.vm;
        vm.restore(&res.golden);
        if let Some(d) = &self.delta {
            vm.unpark(d).expect("parked delta matches its own resident's golden snapshot");
        }
        std::mem::swap(&mut ctx.metrics[self.local], &mut *res.slot.borrow_mut());
        let before = vm.stats.insts;
        let r = vm.resume(q.fuel);
        let executed = vm.stats.insts - before;
        std::mem::swap(&mut ctx.metrics[self.local], &mut *res.slot.borrow_mut());
        let st = &mut ctx.status[self.local];
        st.steps += executed;
        st.quanta += 1;
        match r {
            // The normal case: budget spent mid-workload; park the
            // dirty pages and re-queue.
            Err(VmError::OutOfFuel) => {
                let d = vm.park().expect("park after an in-budget quantum");
                st.parked_bytes = d.page_bytes();
                self.delta = Some(d);
            }
            // Workload ran to completion: respawn from golden at the
            // next quantum (the device keeps generating traffic).
            Ok(_) => {
                self.delta = None;
                st.parked_bytes = 0;
                st.resets += 1;
            }
            // Guest fault: contained to the device, which respawns.
            Err(_) => {
                self.delta = None;
                st.parked_bytes = 0;
                st.faults += 1;
                st.resets += 1;
            }
        }
        if let Some(shared) = &self.shared {
            ctx.since_publish += 1;
            if ctx.since_publish >= PUBLISH_QUANTA {
                ctx.since_publish = 0;
                ctx.publish(shared, self.worker);
            }
        }
        Poll::Yielded
    }

    fn finish(self) -> DeviceOut {
        let mut ctx = self.ctx.borrow_mut();
        // The shard's first task settles worker-level state: the final
        // ring shed count, and one last publication (before any task's
        // entries are drained) so scrapers see the settled shard.
        let shard_sheds = (self.local == 0).then(|| {
            if let Some(shared) = &self.shared {
                ctx.publish(shared, self.worker);
            }
            ctx.ring.as_ref().map(|r| r.borrow().0.dropped()).unwrap_or(0)
        });
        let status = std::mem::take(&mut ctx.status[self.local]);
        let metrics = std::mem::take(&mut ctx.metrics[self.local]);
        DeviceOut { status, metrics, shard_sheds }
    }
}

/// Runs one fleet schedule to completion and settles its outcome.
///
/// `shared`, when given, is the live scrape surface (`opec-eval
/// serve`); workers publish into it during the run and its `done` flag
/// is set when the schedule drains. Without it the run is a pure batch
/// (`opec-eval fleet`).
pub fn run_fleet(
    cfg: &FleetConfig,
    shared: Option<Arc<FleetShared>>,
) -> Result<FleetOutcome, String> {
    if cfg.devices == 0 {
        return Err("a fleet needs at least one device".to_string());
    }
    if cfg.backends.is_empty() {
        return Err("a fleet needs at least one backend".to_string());
    }
    let plan = plan_devices(cfg.devices, &cfg.mix, &cfg.backends);

    // Compile each (kind, backend) template once; device plan entries
    // index into this table.
    let mut templates: Vec<Template> = Vec::new();
    let mut tpl_of = Vec::with_capacity(plan.len());
    for &(kind, backend) in &plan {
        let idx = match templates.iter().position(|t| t.kind == kind && t.backend == backend) {
            Some(i) => i,
            None => {
                templates.push(Template::build(kind, backend)?);
                templates.len() - 1
            }
        };
        tpl_of.push(idx);
    }
    // Validate every template boots before fanning out: worker-side
    // resident construction must not be the first to find out.
    for t in &templates {
        t.resident(None)?;
    }

    let workers = resolve_workers(cfg.workers);
    if let Some(shared) = &shared {
        assert_eq!(shared.shards.len(), workers, "shared scrape surface sized for the run");
    }
    let opts = QuantumOpts {
        workers,
        fuel_quantum: cfg.quantum_fuel,
        max_rounds: cfg.rounds,
        deadline: cfg.duration.map(|d| Instant::now() + d),
    };

    let templates = &templates;
    let tpl_of = &tpl_of;
    let plan = &plan;
    let shared_ref = &shared;
    let ring_cap = cfg.ring;
    let start = Instant::now();
    let reports = run_quanta(&opts, |worker, nworkers| {
        let ring = ring_cap.map(|cap| Rc::new(RefCell::new(RingSink(RingBuffer::new(cap)))));
        let locals: Vec<usize> = (0..plan.len()).filter(|i| i % nworkers == worker).collect();
        let mut residents: Vec<Option<ResidentVm>> = templates.iter().map(|_| None).collect();
        for &dev in &locals {
            let t = tpl_of[dev];
            if residents[t].is_none() {
                residents[t] = Some(
                    templates[t]
                        .resident(ring.clone())
                        .expect("validated template builds a resident"),
                );
            }
        }
        let status = locals
            .iter()
            .map(|&dev| DeviceStatus {
                id: dev as u64,
                kind: plan[dev].0.name(),
                backend: plan[dev].1.name(),
                ..DeviceStatus::default()
            })
            .collect();
        let ctx = Rc::new(RefCell::new(WorkerCtx {
            residents,
            metrics: locals.iter().map(|_| Metrics::new()).collect(),
            status,
            ring,
            since_publish: 0,
        }));
        let tasks: Vec<DeviceTask> = locals
            .iter()
            .enumerate()
            .map(|(local, &dev)| DeviceTask {
                local,
                template: tpl_of[dev],
                delta: None,
                ctx: ctx.clone(),
                shared: shared_ref.clone(),
                worker,
            })
            .collect();
        tasks
    });
    let wall = start.elapsed();

    // Settle: fold shard outputs back into device-id order.
    let mut devices: Vec<(DeviceStatus, Metrics)> = Vec::with_capacity(plan.len());
    let mut panics = Vec::new();
    let mut sheds = 0;
    for report in reports {
        for (shard_idx, msg) in &report.panicked {
            let id = shard_to_id(report.worker, workers, *shard_idx);
            panics.push((id as u64, msg.clone()));
        }
        for (shard_idx, out) in report.outputs.into_iter().enumerate() {
            let mut status = out.status;
            status.id = shard_to_id(report.worker, workers, shard_idx) as u64;
            sheds += out.shard_sheds.unwrap_or(0);
            devices.push((status, out.metrics));
        }
    }
    devices.sort_by_key(|(d, _)| d.id);
    for (id, _) in &panics {
        if let Some((st, _)) = devices.iter_mut().find(|(d, _)| d.id == *id) {
            st.panicked = true;
        }
    }
    let mut metrics = Metrics::new();
    for (_, m) in &devices {
        metrics.merge(m);
    }
    // Final publication so a scraper sees the settled state.
    if let Some(shared) = &shared {
        shared.done.store(true, Ordering::Release);
    }
    Ok(FleetOutcome { devices, metrics, sheds, wall, workers, panics })
}

/// The global device id of shard position `shard_idx` on `worker` of
/// `workers` (the inverse of the `id % workers` pinning).
fn shard_to_id(worker: usize, workers: usize, shard_idx: usize) -> usize {
    worker + shard_idx * workers
}
