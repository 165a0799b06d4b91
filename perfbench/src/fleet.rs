//! The fleet phase: `opec_fleet::run_fleet` on one worker for a fixed
//! number of rounds, so the guest work is identical on every run.
//!
//! The traced variant is a replica of the scheduler's per-device
//! quantum driven through the public `Template::resident`,
//! `Vm::restore`, `Vm::unpark`, `Vm::resume` and `Vm::park` calls, with
//! a timer around each. With one worker the real scheduler visits
//! devices in id order every round, so the replica reproduces its guest
//! work exactly; the benchmark checks that it does.

use std::sync::Arc;
use std::time::Instant;

use opec_fleet::mix::plan_devices;
use opec_fleet::sched::ShardView;
use opec_fleet::template::ResidentVm;
use opec_fleet::{run_fleet, DeviceStatus, FleetBackend, FleetConfig, FleetShared, Mix, Template};
use opec_obs::Metrics;
use opec_vm::VmError;

use crate::stats::timed;

/// Quanta between shard publications (the scheduler's cadence).
const PUBLISH_QUANTA: u64 = 64;

/// The fleet a workload runs.
#[derive(Debug, Clone, Copy)]
pub struct FleetShape {
    pub devices: usize,
    /// A `--mix` spec.
    pub mix: &'static str,
    pub quantum: u64,
    pub rounds: u64,
}

impl FleetShape {
    fn mix(&self) -> Mix {
        Mix::parse(self.mix).expect("workload mixes are valid")
    }
}

/// The guest work a fleet run did, and how long it took.
pub struct FleetRun {
    pub steps: u64,
    pub quanta: u64,
    pub resets: u64,
    /// Host seconds of the schedule (template builds excluded, as in
    /// `FleetOutcome::wall`).
    pub wall: f64,
    /// The settled scrape surface.
    pub shared: Arc<FleetShared>,
}

impl FleetRun {
    pub fn steps_per_sec(&self) -> f64 {
        self.steps as f64 / self.wall.max(1e-9)
    }

    pub fn guest_counts(&self) -> (u64, u64, u64) {
        (self.steps, self.quanta, self.resets)
    }
}

/// One `run_fleet`; fails on any panic, guest fault or shed event.
pub fn run(shape: &FleetShape) -> Result<FleetRun, String> {
    let shared = Arc::new(FleetShared::new(1));
    let cfg = FleetConfig {
        devices: shape.devices,
        workers: Some(1),
        quantum_fuel: shape.quantum,
        rounds: Some(shape.rounds),
        duration: None,
        mix: shape.mix(),
        backends: FleetBackend::ALL.to_vec(),
        ring: None,
    };
    let out = run_fleet(&cfg, Some(shared.clone()))?;
    if !out.panics.is_empty() {
        return Err(format!(
            "fleet: {} device panics, first {:?}",
            out.panics.len(),
            out.panics[0]
        ));
    }
    if out.faults() > 0 || out.sheds > 0 {
        return Err(format!("fleet: {} guest faults, {} shed events", out.faults(), out.sheds));
    }
    Ok(FleetRun {
        steps: out.steps(),
        quanta: out.quanta(),
        resets: out.resets(),
        wall: out.wall.as_secs_f64(),
        shared,
    })
}

/// Host seconds per scheduler step of the replica.
#[derive(Debug, Default, Clone, Copy)]
pub struct FleetTimes {
    /// Quantum loop wall time, template builds excluded.
    pub wall: f64,
    pub template: f64,
    pub restore: f64,
    pub unpark: f64,
    pub quantum: f64,
    pub park: f64,
    pub publish: f64,
    pub quanta: u64,
    pub unparks: u64,
    pub parks: u64,
    pub publishes: u64,
    pub parked_bytes: u64,
}

impl FleetTimes {
    /// Time spent in the scheduler steps a quantum is made of.
    pub fn attributed(&self) -> f64 {
        self.restore + self.unpark + self.quantum + self.park + self.publish
    }

    pub fn add(&mut self, o: &FleetTimes) {
        self.wall += o.wall;
        self.template += o.template;
        self.restore += o.restore;
        self.unpark += o.unpark;
        self.quantum += o.quantum;
        self.park += o.park;
        self.publish += o.publish;
        self.quanta += o.quanta;
        self.unparks += o.unparks;
        self.parks += o.parks;
        self.publishes += o.publishes;
        self.parked_bytes += o.parked_bytes;
    }
}

struct Device {
    template: usize,
    delta: Option<opec_vm::VmDelta<opec_core::OpecMonitor>>,
    metrics: Metrics,
    status: DeviceStatus,
}

fn publish(shared: &FleetShared, devices: &[Device]) {
    let mut merged = Metrics::new();
    for d in devices {
        merged.merge(&d.metrics);
    }
    let mut slot = shared.shards[0].lock().expect("shard slot poisoned");
    *slot = ShardView {
        metrics: merged,
        sheds: 0,
        devices: devices.iter().map(|d| d.status.clone()).collect(),
    };
}

/// The traced fleet: the scheduler's quantum loop replayed step by step.
pub fn replica(shape: &FleetShape) -> Result<(FleetRun, FleetTimes), String> {
    let mut t = FleetTimes::default();
    let plan = plan_devices(shape.devices, &shape.mix(), &FleetBackend::ALL);
    let build = Instant::now();
    let mut templates: Vec<Template> = Vec::new();
    let mut devices = Vec::with_capacity(plan.len());
    for (id, &(kind, backend)) in plan.iter().enumerate() {
        let template = match templates.iter().position(|t| t.kind == kind && t.backend == backend) {
            Some(i) => i,
            None => {
                templates.push(Template::build(kind, backend)?);
                templates.len() - 1
            }
        };
        let status = DeviceStatus {
            id: id as u64,
            kind: kind.name(),
            backend: backend.name(),
            ..DeviceStatus::default()
        };
        devices.push(Device { template, delta: None, metrics: Metrics::new(), status });
    }
    let mut residents: Vec<ResidentVm> =
        templates.iter().map(|t| t.resident(None)).collect::<Result<_, _>>()?;
    t.template = build.elapsed().as_secs_f64();

    let shared = Arc::new(FleetShared::new(1));
    let start = Instant::now();
    let mut since_publish = 0;
    for _ in 0..shape.rounds {
        for i in 0..devices.len() {
            let dev = &mut devices[i];
            let res = &mut residents[dev.template];
            timed(&mut t.restore, || res.vm.restore(&res.golden));
            if let Some(d) = &dev.delta {
                timed(&mut t.unpark, || res.vm.unpark(d)).0?;
                t.unparks += 1;
            }
            std::mem::swap(&mut dev.metrics, &mut *res.slot.borrow_mut());
            let before = res.vm.stats.insts;
            let (r, _) = timed(&mut t.quantum, || res.vm.resume(shape.quantum));
            t.quanta += 1;
            let executed = res.vm.stats.insts - before;
            std::mem::swap(&mut dev.metrics, &mut *res.slot.borrow_mut());
            let st = &mut dev.status;
            st.steps += executed;
            st.quanta += 1;
            match r {
                Err(VmError::OutOfFuel) => {
                    let d = timed(&mut t.park, || res.vm.park()).0?;
                    t.parks += 1;
                    st.parked_bytes = d.page_bytes();
                    t.parked_bytes += st.parked_bytes as u64;
                    dev.delta = Some(d);
                }
                Ok(_) => {
                    dev.delta = None;
                    st.parked_bytes = 0;
                    st.resets += 1;
                }
                Err(e) => return Err(format!("fleet replica: device {} faulted: {e}", st.id)),
            }
            since_publish += 1;
            if since_publish >= PUBLISH_QUANTA {
                since_publish = 0;
                timed(&mut t.publish, || publish(&shared, &devices));
                t.publishes += 1;
            }
        }
    }
    timed(&mut t.publish, || publish(&shared, &devices));
    t.publishes += 1;
    t.wall = start.elapsed().as_secs_f64();
    let sum = |f: fn(&DeviceStatus) -> u64| devices.iter().map(|d| f(&d.status)).sum::<u64>();
    let run = FleetRun {
        steps: sum(|s| s.steps),
        quanta: sum(|s| s.quanta),
        resets: sum(|s| s.resets),
        wall: t.wall,
        shared,
    };
    Ok((run, t))
}
