//! `BENCH_fleet.json`: the sustained-traffic benchmark.
//!
//! Four measurements, all from the same schedule machinery the live
//! daemon runs:
//!
//! * **Spawn latency** — per template, init-from-scratch (machine +
//!   devices + monitor + boot) vs snapshot-pooled (dirty-page restore
//!   of the golden snapshot). The pooled path must be ≥10× faster or
//!   the pool is not paying for itself.
//! * **Fleet ladder** — device-steps/sec at ≥3 fleet sizes up to
//!   `--devices`, with p50/p99 operation-switch latency under load
//!   read from the merged cycle histograms.
//! * **Worker scaling** — the same fleet at 1, 2, 4, … workers.
//! * **Shed accounting** — events shed by diagnostic rings; the
//!   benchmark runs metrics-only (nothing to shed), so a nonzero here
//!   is a measurement-integrity bug, reported loudly.

use std::time::{Duration, Instant};

use opec_obs::json::{Layout, ToJson, Writer};
use opec_obs::{Histogram, Metrics, Obs};

use crate::mix::{FleetBackend, Mix};
use crate::sched::{resolve_workers, run_fleet, FleetConfig, DEFAULT_QUANTUM_FUEL};
use crate::template::Template;

/// Shape of one benchmark invocation.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Largest fleet size on the ladder.
    pub devices: usize,
    /// Total wall-clock budget in seconds, split across the ladder and
    /// scaling runs.
    pub duration: f64,
    /// Worker threads; `None` means one per core.
    pub workers: Option<usize>,
    /// Guest instruction budget per device quantum.
    pub quantum_fuel: u64,
    /// Firmware mix.
    pub mix: Mix,
    /// Protection backends devices alternate through.
    pub backends: Vec<FleetBackend>,
}

impl Default for BenchConfig {
    fn default() -> BenchConfig {
        BenchConfig {
            devices: 2048,
            duration: 20.0,
            workers: None,
            quantum_fuel: DEFAULT_QUANTUM_FUEL,
            mix: Mix::default(),
            backends: FleetBackend::ALL.to_vec(),
        }
    }
}

/// The rendered benchmark plus the headline facts the CLI gates on.
pub struct BenchReport {
    /// The `BENCH_fleet.json` payload.
    pub json: String,
    /// Worst pooled-vs-scratch spawn speedup across templates.
    pub min_spawn_speedup: f64,
    /// Total events shed across every run (0 on a clean benchmark).
    pub sheds: u64,
}

/// Host metadata for cross-machine perf-trajectory diffing; shared by
/// `BENCH_fleet.json` and `BENCH_vm.json`.
pub struct Host;

impl ToJson for Host {
    fn write_json(&self, w: &mut Writer) {
        let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        w.obj().field("os", std::env::consts::OS).field("arch", std::env::consts::ARCH);
        w.field("cpus", &cpus).end();
    }
}

/// The upper bound of the histogram bucket holding quantile `q`, in
/// the same `2^i - 1` vocabulary the Prometheus exporter uses.
fn hist_quantile(h: &Histogram, q: f64) -> u64 {
    let n = h.count();
    if n == 0 {
        return 0;
    }
    let target = ((n as f64) * q).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    for (lo, count) in h.buckets() {
        cum += count;
        if cum >= target {
            return if lo == 0 { 0 } else { lo.saturating_mul(2) - 1 };
        }
    }
    u64::MAX
}

/// Enter/exit switch-latency histograms merged across operations.
fn switch_hists(m: &Metrics) -> (Histogram, Histogram) {
    let mut enter = Histogram::new();
    let mut exit = Histogram::new();
    for (_, op) in m.ops() {
        enter.merge(&op.enter_cycles);
        exit.merge(&op.exit_cycles);
    }
    (enter, exit)
}

fn median_ns(mut samples: Vec<u128>) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

struct SpawnRow {
    kind: &'static str,
    backend: &'static str,
    init_us: f64,
    pooled_us: f64,
    speedup: f64,
}

/// Measures init-from-scratch vs snapshot-pooled spawn for one
/// template.
fn spawn_row(t: &Template) -> Result<SpawnRow, String> {
    const INIT_ITERS: usize = 8;
    const POOL_ITERS: usize = 256;
    let mut init = Vec::with_capacity(INIT_ITERS);
    for _ in 0..INIT_ITERS {
        let t0 = Instant::now();
        let vm = t.fresh_vm(Obs::disabled())?;
        init.push(t0.elapsed().as_nanos());
        drop(vm);
    }
    let mut resident = t.resident(None)?;
    let mut pooled = Vec::with_capacity(POOL_ITERS);
    for _ in 0..POOL_ITERS {
        // Dirty the machine the way a real tenant would, then time the
        // restore that spawns the next device.
        let _ = resident.vm.resume(DEFAULT_QUANTUM_FUEL);
        let t0 = Instant::now();
        resident.vm.restore(&resident.golden);
        pooled.push(t0.elapsed().as_nanos());
    }
    let init_us = median_ns(init) as f64 / 1e3;
    let pooled_us = median_ns(pooled) as f64 / 1e3;
    Ok(SpawnRow {
        kind: t.kind.name(),
        backend: t.backend.name(),
        init_us,
        pooled_us,
        speedup: init_us / pooled_us.max(1e-3),
    })
}

/// Runs the whole benchmark and renders `BENCH_fleet.json`.
pub fn fleet_bench(cfg: &BenchConfig) -> Result<BenchReport, String> {
    if cfg.devices < 4 {
        return Err("--devices must be at least 4 for a 3-point ladder".to_string());
    }
    let workers = resolve_workers(cfg.workers);

    // Ladder: three fleet sizes up to the configured maximum.
    let mut ladder = vec![(cfg.devices / 32).max(2), (cfg.devices / 4).max(4), cfg.devices];
    ladder.dedup();

    // Worker scaling: powers of two up to the resolved worker count,
    // at the ladder's middle fleet size.
    let scale_devices = ladder[ladder.len() / 2];
    let mut scale_workers = Vec::new();
    let mut w = 1;
    while w < workers {
        scale_workers.push(w);
        w *= 2;
    }
    scale_workers.push(workers);

    let runs = ladder.len() + scale_workers.len();
    let share = Duration::from_secs_f64((cfg.duration / runs as f64).max(0.2));

    // Spawn latency per template.
    let mut spawn_rows = Vec::new();
    for kind in cfg.mix.cycle().iter().copied().collect::<std::collections::BTreeSet<_>>() {
        for &backend in &cfg.backends {
            let t = Template::build(kind, backend)?;
            spawn_rows.push(spawn_row(&t)?);
        }
    }
    let min_spawn_speedup = spawn_rows.iter().map(|r| r.speedup).fold(f64::INFINITY, f64::min);

    let fleet_cfg = |devices: usize, workers: Option<usize>| FleetConfig {
        devices,
        workers,
        quantum_fuel: cfg.quantum_fuel,
        rounds: None,
        duration: Some(share),
        mix: cfg.mix.clone(),
        backends: cfg.backends.clone(),
        ring: None,
    };

    let mut w = Writer::new(Layout::Report);
    w.obj().field("schema", "opec-bench-fleet-v1").field("host", &Host);
    w.field("mix", &cfg.mix.spec()).key("backends").arr();
    for b in &cfg.backends {
        w.val(b.name());
    }
    w.end().field("quantum_fuel", &cfg.quantum_fuel).field("workers", &workers);
    w.key("spawn").rows();
    for r in &spawn_rows {
        w.obj().field("kind", r.kind).field("backend", r.backend);
        w.key("init_us").fixed(r.init_us, 1).key("pooled_us").fixed(r.pooled_us, 1);
        w.key("speedup").fixed(r.speedup, 1).end();
    }
    w.end().key("spawn_speedup_min").fixed(min_spawn_speedup, 1);

    let mut sheds = 0u64;
    w.key("ladder").rows();
    for &devices in &ladder {
        eprintln!("[opec-fleet] ladder: {devices} devices, {workers} workers, {share:.1?}...");
        let out = run_fleet(&fleet_cfg(devices, cfg.workers), None)?;
        sheds += out.sheds;
        let (enter, exit) = switch_hists(&out.metrics);
        w.obj().field("devices", &devices).field("workers", &out.workers);
        w.field("wall_ms", &out.wall.as_millis()).field("steps", &out.steps());
        w.key("steps_per_sec").fixed(out.steps_per_sec(), 0);
        w.field("quanta", &out.quanta()).field("resets", &out.resets());
        w.field("faults", &out.faults());
        w.field("switch_enter_p50_cycles", &hist_quantile(&enter, 0.50));
        w.field("switch_enter_p99_cycles", &hist_quantile(&enter, 0.99));
        w.field("switch_exit_p50_cycles", &hist_quantile(&exit, 0.50));
        w.field("switch_exit_p99_cycles", &hist_quantile(&exit, 0.99));
        w.field("sheds", &out.sheds).field("panics", &out.panics.len()).end();
    }
    w.end();

    w.key("worker_scaling").rows();
    for &workers in &scale_workers {
        eprintln!(
            "[opec-fleet] scaling: {scale_devices} devices, {workers} workers, {share:.1?}..."
        );
        let out = run_fleet(&fleet_cfg(scale_devices, Some(workers)), None)?;
        sheds += out.sheds;
        w.obj().field("workers", &workers).field("devices", &scale_devices);
        w.field("wall_ms", &out.wall.as_millis()).field("steps", &out.steps());
        w.key("steps_per_sec").fixed(out.steps_per_sec(), 0).end();
    }
    w.end().field("shed_events", &sheds).end();
    Ok(BenchReport { json: w.finish() + "\n", min_spawn_speedup, sheds })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_the_exporter_bucket_vocabulary() {
        let mut h = Histogram::new();
        for v in 0..100u64 {
            h.record(v);
        }
        assert_eq!(hist_quantile(&h, 0.0), 0);
        // Rank 50 lands in [32, 64) → upper bound 63.
        assert_eq!(hist_quantile(&h, 0.50), 63);
        assert_eq!(hist_quantile(&h, 1.0), 127);
        assert_eq!(hist_quantile(&Histogram::new(), 0.99), 0);
    }

    #[test]
    fn host_json_is_wellformed() {
        let v = opec_obs::json::parse(&opec_obs::json::to_string(&Host, Layout::Spaced)).unwrap();
        assert!(v.get("cpus").and_then(|c| c.as_u64()).unwrap() >= 1);
        assert!(v.get("os").and_then(|o| o.as_str()).is_some());
    }
}
