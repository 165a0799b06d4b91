//! End-to-end and per-layer benchmark of the OPEC reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-apps|daemon --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload runs the daemon's life cycle as four phases over its
//! own inputs: compile the firmware set, run it to halt under OPEC and
//! ACES, run a fixed-round fleet, and serve that fleet over loopback
//! HTTP. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! alternates an untraced and a traced round and prints the per-layer
//! metrics, one row per (firmware, system, backend), and the traced
//! wall time split by layer. See `perfbench/README.md`.

mod firmware;
mod fleet;
mod http;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use opec_apps::programs::{all_apps, camera, pinlock, tcp_echo, App};
use opec_fleet::FleetBackend;

use firmware::{Built, HookTimes, Row, StageTimes, System};
use fleet::{FleetRun, FleetShape, FleetTimes};
use http::{HttpRun, Server, ServiceTimes};
use stats::{geomean, median, quantile, Rng};

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Request bodies generated per run (the closed loop cycles through
/// them).
const SUBMISSIONS: usize = 256;

/// End-to-end metrics and their units, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 11] = [
    ("sim_insts_per_sec", "1/s"),
    ("compile_ms", "ms"),
    ("opec_cycle_overhead_pct", "%"),
    ("aces_cycle_overhead_pct", "%"),
    ("device_steps_per_sec", "1/s"),
    ("verdict_ms_p50", "ms"),
    ("verdict_ms_p90", "ms"),
    ("scrape_ms_p50", "ms"),
    ("scrape_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics and their units, printed with `--trace 1`.
const PER_LAYER: [(&str, &str); 47] = [
    ("analysis.points_to_ms", "ms"),
    ("analysis.callgraph_ms", "ms"),
    ("analysis.resources_ms", "ms"),
    ("core.partition_ms", "ms"),
    ("core.layout_ms", "ms"),
    ("core.image_ms", "ms"),
    ("core.compile_unattributed_ms", "ms"),
    ("vm.run_ms", "ms"),
    ("vm.self_ms", "ms"),
    ("vm.host_ns_per_inst", "ns"),
    ("monitor.enter_us", "us"),
    ("monitor.exit_us", "us"),
    ("monitor.mem_fault_us", "us"),
    ("monitor.bus_fault_us", "us"),
    ("aces.self_ms", "ms"),
    ("vm.insts", "count"),
    ("monitor.switches", "count"),
    ("monitor.prot_writes", "count"),
    ("monitor.virt_faults", "count"),
    ("monitor.emulations", "count"),
    ("monitor.sync_bytes", "bytes"),
    ("machine.data_accesses", "count"),
    ("machine.mmio_accesses", "count"),
    ("devices.attached", "count"),
    ("devices.tick_ns", "ns"),
    ("devices.tick_share_est", "share"),
    ("fleet.restore_us", "us"),
    ("fleet.unpark_us", "us"),
    ("fleet.quantum_us", "us"),
    ("fleet.park_us", "us"),
    ("fleet.publish_us", "us"),
    ("fleet.sched_unattributed_share", "share"),
    ("fleet.quanta", "count"),
    ("fleet.resets", "count"),
    ("fleet.parked_bytes_mean", "bytes"),
    ("http.accept_wait_ms", "ms"),
    ("http.verdict_service_ms", "ms"),
    ("campaign.json_parse_us", "us"),
    ("oracle.spec_from_us", "us"),
    ("oracle.compile_ms", "ms"),
    ("oracle.run_ms", "ms"),
    ("oracle.checks", "count"),
    ("http.scrape_service_ms", "ms"),
    ("obs.shard_merge_ms", "ms"),
    ("obs.prom_render_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_share", "share"),
];

/// One workload: the inputs each phase runs over, and the work of one
/// round. A run repeats rounds until its seconds have passed, so every
/// phase samples the whole run rather than one slice of it.
struct Workload {
    name: &'static str,
    firmware: fn() -> Vec<App>,
    fleet: FleetShape,
    /// Compile passes over the firmware set per round.
    compile_passes: usize,
    /// Fleet runs per round.
    fleet_runs: usize,
    /// `POST /firmware` + `GET /metrics` pairs per round.
    request_pairs: usize,
    /// Verdicts per run, at least.
    min_requests: usize,
}

/// The paper apps among the fleet's firmware kinds.
fn daemon_firmware() -> Vec<App> {
    vec![tcp_echo::app(), pinlock::app(), camera::app()]
}

const WORKLOADS: [Workload; 2] = [
    // Batch: large compiles and long runs to halt with devices attached;
    // the fleet (paper apps only, default 20 000-fuel quanta) and the
    // HTTP loop are small.
    Workload {
        name: "paper-apps",
        firmware: all_apps,
        fleet: FleetShape {
            devices: 64,
            mix: "tcp_echo,pinlock,camera",
            quantum: opec_fleet::DEFAULT_QUANTUM_FUEL,
            rounds: 8,
        },
        compile_passes: 12,
        fleet_runs: 1,
        request_pairs: 12,
        min_requests: 50,
    },
    // What `opec-eval serve` does: 512 devices of the default mix in
    // 500-fuel quanta, then a closed-loop client on the settled fleet.
    // Its compile and run phases cover the fleet's own paper apps.
    Workload {
        name: "daemon",
        firmware: daemon_firmware,
        fleet: FleetShape {
            devices: 512,
            mix: "tcp_echo,pinlock,camera,fuzz",
            quantum: 500,
            rounds: 40,
        },
        compile_passes: 30,
        fleet_runs: 2,
        request_pairs: 40,
        min_requests: 100,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: opec-perfbench --workload paper-apps|daemon --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if !matches!(flag.as_str(), "--workload" | "--seed" | "--seconds" | "--trace") {
            return Err(format!("unknown argument {flag:?}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing {k}"));
    let name = get("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// Operations attempted and failed, with the first few failures.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn record<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(e);
        }
    }

    /// Checks a guest count that must repeat exactly.
    fn same<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, a: T, b: T) {
        self.attempted += 1;
        if a != b {
            self.fail(format!("{what}: {a:?} != {b:?}"));
        }
    }
}

/// The workload's inputs, drawn from the seed, and its compiled
/// firmware with vanilla reference cycles.
struct Prepared {
    set: Vec<Built>,
    subs: Vec<String>,
}

fn setup(w: &Workload, seed: u64) -> Result<Prepared, String> {
    let mut rng = Rng::new(seed);
    let mut apps = (w.firmware)();
    rng.shuffle(&mut apps);
    let set = apps.into_iter().map(firmware::build).collect::<Result<Vec<_>, _>>()?;
    let subs = http::submissions(&mut rng, SUBMISSIONS);
    Ok(Prepared { set, subs })
}

/// Total ms of one compile pass; `None` if any compile failed.
fn compile_pass(set: &[Built], tally: &mut Tally) -> Option<f64> {
    let results = firmware::compile_pass(set);
    let ok = results.len();
    let ms: Vec<f64> = results.into_iter().filter_map(|r| tally.record(r)).collect();
    (ms.len() == ok).then(|| ms.iter().sum())
}

/// One run pass: every firmware under every system. The rows run in a
/// fresh seeded order each pass, so host-speed swings do not always
/// land on the same rows; they come back in set order.
fn run_pass(set: &[Built], order: &mut Rng, traced: bool, tally: &mut Tally) -> Option<Vec<Row>> {
    let jobs: Vec<(&Built, System)> =
        set.iter().flat_map(|b| firmware::systems(b).into_iter().map(move |s| (b, s))).collect();
    let mut idx: Vec<usize> = (0..jobs.len()).collect();
    order.shuffle(&mut idx);
    let mut rows: Vec<Option<Row>> = jobs.iter().map(|_| None).collect();
    for i in idx {
        let (b, system) = jobs[i];
        rows[i] = tally.record(firmware::run_row(b, system, traced));
    }
    rows.into_iter().collect()
}

/// Runs a closed loop against a fresh server over `run`'s fleet.
/// Returns the loop and the seconds spent starting and stopping the
/// server.
fn http_phase(
    run: &FleetRun,
    prep: &Prepared,
    next_sub: &mut usize,
    pairs: usize,
    traced: bool,
    tally: &mut Tally,
) -> Option<(HttpRun, f64)> {
    let start = Instant::now();
    let server = tally.record(Server::start(run.shared.clone()))?;
    let mut server_s = start.elapsed().as_secs_f64();
    let devices = run.shared.merged().2.len();
    let out = http::closed_loop(&server, &prep.subs, next_sub, pairs, (devices, run.steps), traced);
    tally.attempted += out.attempted();
    for e in &out.errors {
        tally.fail(e.clone());
    }
    let stop = Instant::now();
    tally.record(server.stop())?;
    server_s += stop.elapsed().as_secs_f64();
    Some((out, server_s))
}

/// `(cycles / vanilla cycles)` geometric mean, as percent overhead.
fn cycle_overhead_pct(rows: &[Row], system: System) -> f64 {
    let ratios: Vec<f64> = rows
        .iter()
        .filter(|r| r.system == system)
        .map(|r| r.cycles as f64 / r.base_cycles as f64)
        .collect();
    (geomean(&ratios) - 1.0) * 100.0
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

type Metrics = Vec<(&'static str, f64)>;

/// One untraced round.
struct Round {
    wall: f64,
    compile_ms: Vec<f64>,
    rows: Vec<Row>,
    fleets: Vec<FleetRun>,
    http: HttpRun,
}

fn round(
    w: &Workload,
    prep: &Prepared,
    order: &mut Rng,
    next_sub: &mut usize,
    tally: &mut Tally,
) -> Option<Round> {
    let start = Instant::now();
    let compile_ms: Vec<f64> =
        (0..w.compile_passes).filter_map(|_| compile_pass(&prep.set, tally)).collect();
    let rows = run_pass(&prep.set, order, false, tally)?;
    let fleets: Vec<FleetRun> =
        (0..w.fleet_runs).filter_map(|_| tally.record(fleet::run(&w.fleet))).collect();
    let (http, _) = http_phase(fleets.last()?, prep, next_sub, w.request_pairs, false, tally)?;
    Some(Round { wall: start.elapsed().as_secs_f64(), compile_ms, rows, fleets, http })
}

/// The untraced run: rounds until the run's seconds have passed and
/// enough verdicts are in; end-to-end metrics from medians.
fn measure(
    args: &Args,
    prep: &Prepared,
    setup_s: f64,
    tally: &mut Tally,
) -> Result<Metrics, String> {
    let w = args.workload;
    let mut order = Rng::new(args.seed);
    let mut next_sub = 0;
    let mut rounds: Vec<Round> = Vec::new();
    let mut verdicts = 0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || verdicts < w.min_requests {
        let Some(r) = round(w, prep, &mut order, &mut next_sub, tally) else { break };
        verdicts += r.http.verdict_ms.len();
        rounds.push(r);
    }
    let first = &rounds.first().ok_or("no round completed")?.rows;
    for r in &rounds[1..] {
        for (a, b) in first.iter().zip(&r.rows) {
            let what =
                format!("{} {} {} guest counts", a.firmware, a.system.label(), a.system.backend());
            tally.same(&what, a.guest_counts(), b.guest_counts());
        }
    }
    let fleets: Vec<&FleetRun> = rounds.iter().flat_map(|r| &r.fleets).collect();
    for f in &fleets {
        tally.same("fleet guest counts", fleets[0].guest_counts(), f.guest_counts());
    }
    let row_rates: Vec<f64> = (0..first.len())
        .map(|i| {
            let rates: Vec<f64> =
                rounds.iter().map(|r| r.rows[i].insts as f64 / r.rows[i].run_secs).collect();
            median(&rates)
        })
        .collect();
    let all = |f: fn(&Round) -> &Vec<f64>| rounds.iter().flat_map(f).copied().collect::<Vec<_>>();
    let verdict_ms = all(|r| &r.http.verdict_ms);
    let scrape_ms = all(|r| &r.http.scrape_ms);
    Ok(vec![
        ("sim_insts_per_sec", geomean(&row_rates)),
        ("compile_ms", median(&all(|r| &r.compile_ms))),
        ("opec_cycle_overhead_pct", cycle_overhead_pct(first, System::Opec(FleetBackend::Armv7m))),
        ("aces_cycle_overhead_pct", cycle_overhead_pct(first, System::Aces)),
        (
            "device_steps_per_sec",
            median(&fleets.iter().map(|f| f.steps_per_sec()).collect::<Vec<_>>()),
        ),
        ("verdict_ms_p50", quantile(&verdict_ms, 0.5)),
        ("verdict_ms_p90", quantile(&verdict_ms, 0.9)),
        ("scrape_ms_p50", quantile(&scrape_ms, 0.5)),
        ("scrape_ms_p90", quantile(&scrape_ms, 0.9)),
        ("peak_rss_mb", peak_rss_mb()?),
        ("setup_s", setup_s),
    ])
}

/// What one traced round measured.
struct Traced {
    wall: f64,
    stages: StageTimes,
    /// Module building around the staged compiles.
    compile_inputs: f64,
    rows: Vec<Row>,
    /// Machine, VM build and output check around the timed runs.
    run_setup: f64,
    /// The last replica fleet run, and all replica runs' step times.
    fleet: FleetRun,
    fleet_times: FleetTimes,
    http: HttpRun,
    /// Server start and stop.
    http_server: f64,
}

/// A round of the same size as [`round`], with every layer timed.
fn traced_round(
    w: &Workload,
    prep: &Prepared,
    order: &mut Rng,
    next_sub: &mut usize,
    tally: &mut Tally,
) -> Option<Traced> {
    let start = Instant::now();
    let mut stages = StageTimes::default();
    for _ in 0..w.compile_passes {
        for b in &prep.set {
            stages.add(&tally.record(firmware::staged_compile(b))?);
        }
    }
    let compile_inputs = start.elapsed().as_secs_f64() - stages.wall;

    let run_start = Instant::now();
    let rows = run_pass(&prep.set, order, true, tally)?;
    let run_setup = run_start.elapsed().as_secs_f64()
        - rows.iter().map(|r| r.run_secs + r.probe_secs).sum::<f64>();

    let mut fleet_times = FleetTimes::default();
    let mut fleet = None;
    for _ in 0..w.fleet_runs {
        let (run, times) = tally.record(fleet::replica(&w.fleet))?;
        fleet_times.add(&times);
        fleet = Some(run);
    }
    let fleet = fleet?;

    let (http, http_server) = http_phase(&fleet, prep, next_sub, w.request_pairs, true, tally)?;
    Some(Traced {
        wall: start.elapsed().as_secs_f64(),
        stages,
        compile_inputs,
        rows,
        run_setup,
        fleet,
        fleet_times,
        http,
        http_server,
    })
}

/// A traced run pass summed over its rows.
#[derive(Default)]
struct RowTotals {
    /// OPEC monitor hooks.
    monitor: HookTimes,
    counts: opec_core::MonitorStats,
    /// Seconds in `Vm::run`, in supervisor hooks, in ACES hooks, and in
    /// the device-tick probe.
    run: f64,
    hooks: f64,
    aces: f64,
    probe: f64,
    insts: u64,
    data_accesses: u64,
    mmio_accesses: u64,
    devices: usize,
    tick_ns: f64,
    /// Estimated seconds of device ticking: per-call cost times insts.
    tick_est: f64,
}

fn totals(rows: &[Row]) -> RowTotals {
    let mut t = RowTotals::default();
    for r in rows {
        let hooks = r.hooks.unwrap_or_default();
        t.run += r.run_secs;
        t.hooks += hooks.total_secs();
        t.probe += r.probe_secs;
        t.insts += r.insts;
        t.data_accesses += r.machine.loads + r.machine.stores;
        t.mmio_accesses += r.machine.mmio_accesses;
        t.devices += r.devices;
        let tick = r.tick_ns.unwrap_or_default();
        t.tick_ns += tick;
        t.tick_est += tick * r.insts as f64 / 1e9;
        match r.system {
            System::Opec(_) => t.monitor.add(&hooks),
            System::Aces => t.aces += hooks.total_secs(),
        }
        if let Some(m) = r.monitor {
            t.counts.switches += m.switches;
            t.counts.prot_writes += m.prot_writes;
            t.counts.virt_faults += m.virt_faults;
            t.counts.emulations += m.emulations;
            t.counts.sync_bytes += m.sync_bytes;
        }
    }
    t
}

/// The traced round's wall time split into layer self-times, in
/// seconds; the remainder is `unattributed`.
fn layers(t: &Traced) -> Vec<(&'static str, f64)> {
    let rt = totals(&t.rows);
    let monitor = &rt.monitor;
    let ns = |h: &firmware::Hook| h.nanos as f64 / 1e9;
    let s: ServiceTimes = t.http.service.unwrap_or_default();
    let verdict_parts = s.json_parse + s.spec_from + s.oracle_compile + s.oracle_run;
    let scrape_parts = s.shard_merge + s.prom_render;
    let f = &t.fleet_times;
    let mut out = vec![
        ("compile.inputs", t.compile_inputs),
        ("analysis.points_to", t.stages.points_to),
        ("analysis.callgraph", t.stages.callgraph),
        ("analysis.resources", t.stages.resources),
        ("core.partition", t.stages.partition),
        ("core.layout", t.stages.layout),
        ("core.image", t.stages.image),
        ("core.compile_unattributed", t.stages.unattributed()),
        ("vm.setup", t.run_setup),
        ("vm.self", rt.run - rt.hooks),
        ("monitor.enter", ns(&monitor.enter)),
        ("monitor.exit", ns(&monitor.exit)),
        ("monitor.mem_fault", ns(&monitor.mem_fault)),
        ("monitor.bus_fault", ns(&monitor.bus_fault)),
        ("monitor.other", ns(&monitor.other)),
        ("aces.self", rt.aces),
        ("trace.tick_probe", rt.probe),
        ("fleet.template", f.template),
        ("fleet.restore", f.restore),
        ("fleet.unpark", f.unpark),
        ("fleet.quantum", f.quantum),
        ("fleet.park", f.park),
        ("fleet.publish", f.publish),
        ("fleet.replica_loop", f.wall - f.attributed()),
        ("http.accept_wait", s.accept_wait),
        ("campaign.json_parse", s.json_parse),
        ("oracle.spec_from", s.spec_from),
        ("oracle.compile", s.oracle_compile),
        ("oracle.run", s.oracle_run),
        ("http.verdict_other", s.verdict_service - verdict_parts),
        ("obs.shard_merge", s.shard_merge),
        ("obs.prom_render", s.prom_render),
        ("http.scrape_other", s.scrape_service - scrape_parts),
        ("trace.service_replica", s.replica),
        ("http.server", t.http_server),
    ];
    let attributed: f64 = out.iter().map(|(_, v)| v).sum();
    out.push(("unattributed", t.wall - attributed));
    out
}

fn per_call(total_secs: f64, calls: u64, scale: f64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        total_secs * scale / calls as f64
    }
}

/// The per-layer metrics of one traced round, against the untraced
/// round it was paired with.
fn layer_metrics(
    w: &Workload,
    t: &Traced,
    u: &Round,
    layer_split: &[(&'static str, f64)],
) -> Metrics {
    let rt = totals(&t.rows);
    let n_rows = t.rows.len().max(1) as f64;
    let f = &t.fleet_times;
    let s = t.http.service.unwrap_or_default();
    let (verdicts, scrapes) = (t.http.verdict_ms.len() as u64, t.http.scrape_ms.len() as u64);
    let ms = 1e3;
    let us = 1e6;
    // Compile stages per pass over the firmware set.
    let pass_ms = ms / w.compile_passes as f64;
    let u_fleet_wall: f64 = u.fleets.iter().map(|r| r.wall).sum();
    let unattributed = layer_split.last().map(|(_, v)| *v).unwrap_or_default();
    vec![
        ("analysis.points_to_ms", t.stages.points_to * pass_ms),
        ("analysis.callgraph_ms", t.stages.callgraph * pass_ms),
        ("analysis.resources_ms", t.stages.resources * pass_ms),
        ("core.partition_ms", t.stages.partition * pass_ms),
        ("core.layout_ms", t.stages.layout * pass_ms),
        ("core.image_ms", t.stages.image * pass_ms),
        ("core.compile_unattributed_ms", t.stages.unattributed() * pass_ms),
        ("vm.run_ms", rt.run * ms),
        ("vm.self_ms", (rt.run - rt.hooks) * ms),
        ("vm.host_ns_per_inst", per_call(rt.run, rt.insts, 1e9)),
        ("monitor.enter_us", rt.monitor.enter.mean_us()),
        ("monitor.exit_us", rt.monitor.exit.mean_us()),
        ("monitor.mem_fault_us", rt.monitor.mem_fault.mean_us()),
        ("monitor.bus_fault_us", rt.monitor.bus_fault.mean_us()),
        ("aces.self_ms", rt.aces * ms),
        ("vm.insts", rt.insts as f64),
        ("monitor.switches", rt.counts.switches as f64),
        ("monitor.prot_writes", rt.counts.prot_writes as f64),
        ("monitor.virt_faults", rt.counts.virt_faults as f64),
        ("monitor.emulations", rt.counts.emulations as f64),
        ("monitor.sync_bytes", rt.counts.sync_bytes as f64),
        ("machine.data_accesses", rt.data_accesses as f64),
        ("machine.mmio_accesses", rt.mmio_accesses as f64),
        ("devices.attached", rt.devices as f64 / n_rows),
        ("devices.tick_ns", rt.tick_ns / n_rows),
        ("devices.tick_share_est", rt.tick_est / rt.run.max(1e-12)),
        ("fleet.restore_us", per_call(f.restore, f.quanta, us)),
        ("fleet.unpark_us", per_call(f.unpark, f.unparks, us)),
        ("fleet.quantum_us", per_call(f.quantum, f.quanta, us)),
        ("fleet.park_us", per_call(f.park, f.parks, us)),
        ("fleet.publish_us", per_call(f.publish, f.publishes, us)),
        (
            "fleet.sched_unattributed_share",
            (u_fleet_wall - f.attributed()) / u_fleet_wall.max(1e-12),
        ),
        ("fleet.quanta", t.fleet.quanta as f64),
        ("fleet.resets", t.fleet.resets as f64),
        ("fleet.parked_bytes_mean", per_call(f.parked_bytes as f64, f.parks, 1.0)),
        ("http.accept_wait_ms", per_call(s.accept_wait, verdicts + scrapes, ms)),
        ("http.verdict_service_ms", per_call(s.verdict_service, verdicts, ms)),
        ("campaign.json_parse_us", per_call(s.json_parse, verdicts, us)),
        ("oracle.spec_from_us", per_call(s.spec_from, verdicts, us)),
        ("oracle.compile_ms", per_call(s.oracle_compile, verdicts, ms)),
        ("oracle.run_ms", per_call(s.oracle_run, verdicts, ms)),
        ("oracle.checks", s.oracle_checks as f64),
        ("http.scrape_service_ms", per_call(s.scrape_service, scrapes, ms)),
        ("obs.shard_merge_ms", per_call(s.shard_merge, scrapes, ms)),
        ("obs.prom_render_ms", per_call(s.prom_render, scrapes, ms)),
        ("trace.overhead_pct", (t.wall / u.wall - 1.0) * 100.0),
        ("trace.unattributed_share", unattributed / t.wall),
    ]
}

/// Checks the traced round reproduced the untraced round's guest work.
fn check_fidelity(t: &Traced, u: &Round, tally: &mut Tally) {
    tally.same("traced row count", t.rows.len(), u.rows.len());
    for (a, b) in t.rows.iter().zip(&u.rows) {
        let what = format!(
            "{} {} {} traced guest counts",
            a.firmware,
            a.system.label(),
            a.system.backend()
        );
        tally.same(&what, a.guest_counts(), b.guest_counts());
    }
    let last = u.fleets.last().map(FleetRun::guest_counts);
    tally.same("traced fleet guest counts", Some(t.fleet.guest_counts()), last);
}

fn row_json(r: &Row) -> String {
    let hooks = r.hooks.unwrap_or_default();
    let m = r.monitor.unwrap_or_default();
    let tick = r.tick_ns.unwrap_or_default();
    let aces_ms = if r.system == System::Aces { hooks.total_secs() * 1e3 } else { 0.0 };
    format!(
        "{{\"row\": {{\"firmware\": \"{}\", \"system\": \"{}\", \"backend\": \"{}\", \
         \"vm.insts\": {}, \"guest_cycles\": {}, \"vanilla_cycles\": {}, \
         \"vm.run_ms\": {}, \"vm.self_ms\": {}, \"vm.host_ns_per_inst\": {}, \
         \"monitor.enter_us\": {}, \"monitor.exit_us\": {}, \"monitor.mem_fault_us\": {}, \
         \"monitor.bus_fault_us\": {}, \"aces.self_ms\": {aces_ms}, \
         \"vm.switches\": {}, \"monitor.switches\": {}, \"monitor.prot_writes\": {}, \
         \"monitor.virt_faults\": {}, \
         \"monitor.emulations\": {}, \"monitor.sync_bytes\": {}, \
         \"machine.data_accesses\": {}, \"machine.mmio_accesses\": {}, \
         \"devices.attached\": {}, \"devices.tick_ns\": {tick}, \"devices.tick_share_est\": {}}}}}",
        r.firmware,
        r.system.label(),
        r.system.backend(),
        r.insts,
        r.cycles,
        r.base_cycles,
        r.run_secs * 1e3,
        (r.run_secs - hooks.total_secs()) * 1e3,
        r.run_secs * 1e9 / r.insts.max(1) as f64,
        hooks.enter.mean_us(),
        hooks.exit.mean_us(),
        hooks.mem_fault.mean_us(),
        hooks.bus_fault.mean_us(),
        r.switches,
        m.switches,
        m.prot_writes,
        m.virt_faults,
        m.emulations,
        m.sync_bytes,
        r.machine.loads + r.machine.stores,
        r.machine.mmio_accesses,
        r.devices,
        tick * r.insts as f64 / 1e9 / r.run_secs.max(1e-12),
    )
}

fn layers_json(split: &[(&str, f64)], wall: f64) -> String {
    let parts: Vec<String> = split
        .iter()
        .map(|(name, s)| {
            format!("{{\"layer\": \"{name}\", \"ms\": {}, \"share\": {}}}", s * 1e3, s / wall)
        })
        .collect();
    format!(
        "{{\"layers\": {{\"traced_wall_ms\": {}, \"split\": [{}]}}}}",
        wall * 1e3,
        parts.join(", ")
    )
}

/// The traced run: untraced and traced rounds in pairs until the run's
/// seconds have passed; per-layer metrics are the pairs' medians.
fn trace(args: &Args, prep: &Prepared, tally: &mut Tally) -> Result<Metrics, String> {
    let w = args.workload;
    let start = Instant::now();
    let mut next_sub = 0;
    let mut order = Rng::new(args.seed);
    let mut pairs: Vec<Metrics> = Vec::new();
    while pairs.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let u = round(w, prep, &mut order, &mut next_sub, tally).ok_or("untraced round failed")?;
        let t =
            traced_round(w, prep, &mut order, &mut next_sub, tally).ok_or("traced round failed")?;
        check_fidelity(&t, &u, tally);
        let split = layers(&t);
        for r in &t.rows {
            println!("{}", row_json(r));
        }
        println!("{}", layers_json(&split, t.wall));
        pairs.push(layer_metrics(w, &t, &u, &split));
    }
    Ok(pairs[0]
        .iter()
        .enumerate()
        .map(|(i, (name, _))| (*name, median(&pairs.iter().map(|p| p[i].1).collect::<Vec<_>>())))
        .collect())
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where the numbers were measured.
fn context_json(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name").and_then(|v| v.split_once(':')))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    // Only a checkout that is itself a repository names its commit.
    let commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    let esc = |s: String| s.replace('\\', "\\\\").replace('"', "\\\"");
    format!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host\": {{\"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"}}}}}}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        esc(cpu),
        esc(command_line("rustc", &["--version"])),
        esc(commit),
    )
}

fn result_json(tally: &Tally, metrics: &Metrics, units: &[(&str, &str)]) -> String {
    let mut body = String::new();
    for (i, (name, unit)) in units.iter().enumerate() {
        let value = metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        let value = value.filter(|v| v.is_finite()).unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        write!(body, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            .expect("write to String");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
    )
}

fn run(args: &Args) -> Result<String, String> {
    println!("{}", context_json(args));
    let mut setup_s = Vec::new();
    let mut prep = None;
    for _ in 0..if args.trace { 1 } else { SETUP_REPS } {
        let start = Instant::now();
        prep = Some(setup(args.workload, args.seed)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let prep = prep.expect("at least one set-up");
    let mut tally = Tally::default();
    let (metrics, units): (Metrics, &[(&str, &str)]) = if args.trace {
        (trace(args, &prep, &mut tally)?, &PER_LAYER)
    } else {
        (measure(args, &prep, median(&setup_s), &mut tally)?, &END_TO_END)
    };
    for e in &tally.errors {
        eprintln!("[perfbench] failure: {e}");
    }
    Ok(result_json(&tally, &metrics, units))
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("[perfbench] {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opec_campaign::json::{parse, Value};

    /// The metric tables printed here are the ones `BENCHMARK.json`
    /// declares, in the same order and with the same units.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let declared: Vec<(&str, &str)> = doc
                .get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Value::as_str).expect("name and unit");
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(declared, table, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("workload name"))
            .collect();
        assert_eq!(workloads, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
    }
}
