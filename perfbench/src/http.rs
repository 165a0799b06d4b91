//! The HTTP phase: `opec_fleet::serve` over loopback, serving the
//! settled fleet's scrape surface, driven by one closed-loop client
//! connection that alternates `POST /firmware` and `GET /metrics`.
//!
//! Latency is measured at the client, from connect to the full
//! response. The traced variant also calls the service functions
//! directly (`ServeState::submit_firmware`, `FleetShared::merged`,
//! `prom::render`, and the oracle steps a verdict is made of) on a
//! second `ServeState` over the same fleet, so each request's latency
//! splits into service time and the wait before the server accepted.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use opec_campaign::json::{parse, Value};
use opec_fleet::{FleetBackend, FleetShared, ServeState};
use opec_oracle::corpus::{spec_from, spec_json};
use opec_oracle::{generate, mutate_stacked, run_opec_on, FirmwareSpec, RunBudget};

use crate::stats::{timed, Rng};

/// Guest fuel the server gives one submitted firmware.
const FIRMWARE_FUEL: u64 = 5_000_000;

/// Generated plan seeds stay below 2^32 so they survive the JSON
/// number round trip exactly.
const PLAN_SEEDS: u64 = 1 << 32;

/// Seeded request bodies: half `{"seed": N}` requests, half mutated
/// plans rendered with `spec_json`, each on a seeded backend.
pub fn submissions(rng: &mut Rng, n: usize) -> Vec<String> {
    (0..n)
        .map(|_| {
            let backend = FleetBackend::ALL[rng.below(2) as usize].name();
            let seed = rng.below(PLAN_SEEDS);
            if rng.below(2) == 0 {
                format!("{{\"seed\": {seed}, \"backend\": \"{backend}\"}}")
            } else {
                let steps = 1 + rng.below(3) as u32;
                let plan = mutate_stacked(&generate(seed), rng.below(PLAN_SEEDS), steps);
                format!("{{\"spec\": {}, \"backend\": \"{backend}\"}}", spec_json(&plan))
            }
        })
        .collect()
}

/// The daemon's HTTP thread over a settled fleet.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServeState>,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Server {
    pub fn start(shared: Arc<FleetShared>) -> Result<Server, String> {
        let listener =
            TcpListener::bind(("127.0.0.1", 0)).map_err(|e| format!("bind loopback: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("local addr: {e}"))?;
        let state = Arc::new(ServeState::new(shared));
        let thread = {
            let state = state.clone();
            std::thread::spawn(move || opec_fleet::serve(listener, state))
        };
        Ok(Server { addr, state, thread })
    }

    /// Raises the fleet's stop flag and waits for the server to exit.
    pub fn stop(self) -> Result<(), String> {
        self.state.shared.stop.store(true, Ordering::Relaxed);
        match self.thread.join() {
            Ok(r) => r.map_err(|e| format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

/// One request over a fresh connection: `(status, body, seconds)`,
/// timed from connect to the full response.
fn request(addr: SocketAddr, head: &str, body: &str) -> Result<(u16, String, f64), String> {
    let start = Instant::now();
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
    s.write_all(head.as_bytes())
        .and_then(|_| s.write_all(body.as_bytes()))
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).map_err(|e| format!("receive: {e}"))?;
    let secs = start.elapsed().as_secs_f64();
    let text = String::from_utf8_lossy(&raw);
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse::<u16>().ok())
        .ok_or_else(|| format!("malformed response {:?}", text.lines().next()))?;
    let payload = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Ok((status, payload, secs))
}

/// A verdict the server returned, checked: HTTP 200, clean, no run
/// error and no budget halt. Returns the lockstep check count.
fn check_verdict(status: u16, payload: &str) -> Result<u64, String> {
    if status != 200 {
        return Err(format!("POST /firmware returned {status}: {payload}"));
    }
    let v = parse(payload).map_err(|e| format!("verdict JSON: {e}"))?;
    let clean = v.get("clean").and_then(Value::as_bool) == Some(true);
    let no_error = matches!(v.get("run_error"), Some(Value::Null));
    let no_halt = v.get("halted_by_budget").and_then(Value::as_bool) == Some(false);
    if !(clean && no_error && no_halt) {
        return Err(format!("unclean verdict: {payload}"));
    }
    v.get("checks").and_then(Value::as_u64).ok_or_else(|| format!("no checks in {payload}"))
}

/// A scrape checked against the fleet it exposes.
fn check_scrape(status: u16, payload: &str, expect: &[String]) -> Result<(), String> {
    if status != 200 {
        return Err(format!("GET /metrics returned {status}"));
    }
    match expect.iter().find(|line| !payload.lines().any(|l| l == line.as_str())) {
        Some(missing) => Err(format!("scrape lacks {missing:?}")),
        None => Ok(()),
    }
}

/// Host seconds of the service steps behind the traced requests.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServiceTimes {
    /// Client latency minus service time, summed.
    pub accept_wait: f64,
    pub json_parse: f64,
    pub spec_from: f64,
    pub oracle_compile: f64,
    pub oracle_run: f64,
    pub verdict_service: f64,
    pub shard_merge: f64,
    pub prom_render: f64,
    pub scrape_service: f64,
    /// Wall time of the direct service calls (the tracing cost).
    pub replica: f64,
    pub oracle_checks: u64,
}

/// Everything one HTTP phase measured.
#[derive(Default)]
pub struct HttpRun {
    pub verdict_ms: Vec<f64>,
    pub scrape_ms: Vec<f64>,
    pub errors: Vec<String>,
    /// Traced runs only.
    pub service: Option<ServiceTimes>,
}

impl HttpRun {
    pub fn attempted(&self) -> u64 {
        (self.verdict_ms.len() + self.scrape_ms.len() + self.errors.len()) as u64
    }
}

/// The steps `submit_firmware` is made of, each called and timed on
/// its own, then the whole call; returns its service seconds and the
/// replica's lockstep check count.
fn traced_verdict(
    replica: &ServeState,
    body: &str,
    t: &mut ServiceTimes,
) -> Result<(f64, u64), String> {
    let (v, _) = timed(&mut t.json_parse, || parse(body));
    let v = v.map_err(|e| format!("request JSON: {e}"))?;
    let (spec, _) = timed(&mut t.spec_from, || -> Result<FirmwareSpec, String> {
        match v.get("spec") {
            Some(plan) => spec_from(plan),
            None => v
                .get("seed")
                .and_then(Value::as_u64)
                .map(generate)
                .ok_or_else(|| "body has neither spec nor seed".to_string()),
        }
    });
    let spec = spec?;
    let backend = FleetBackend::list_from_flag(v.get("backend").and_then(Value::as_str))?[0];
    let (compiled, compile_s) = timed(&mut t.oracle_compile, || {
        opec_core::compile(spec.build_module(), spec.board(), &spec.op_specs())
    });
    compiled.map_err(|e| format!("plan compile: {e}"))?;
    let budget = RunBudget { fuel: FIRMWARE_FUEL, deadline: None };
    let mut run_s = 0.0;
    let (verdict, _) =
        timed(&mut run_s, || run_opec_on(&spec, None, &budget, backend.dyn_backend()));
    // `run_opec_on` compiles the plan again before running it.
    t.oracle_run += run_s - compile_s;
    let checks = verdict?.checks;
    let (json, service) = timed(&mut t.verdict_service, || replica.submit_firmware(body));
    check_verdict(200, &json?)?;
    Ok((service, checks))
}

/// Runs `pairs` rounds of one verdict and one scrape. `fleet` is the
/// settled fleet's `(devices, steps)`, which every scrape must report.
pub fn closed_loop(
    server: &Server,
    subs: &[String],
    next_sub: &mut usize,
    pairs: usize,
    fleet: (usize, u64),
    traced: bool,
) -> HttpRun {
    let expect =
        [format!("opec_fleet_devices {}", fleet.0), format!("opec_fleet_steps_total {}", fleet.1)];
    let replica = ServeState::new(server.state.shared.clone());
    let mut t = ServiceTimes::default();
    let mut run = HttpRun::default();
    for _ in 0..pairs {
        let body = &subs[*next_sub % subs.len()];
        *next_sub += 1;
        let head = format!(
            "POST /firmware HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n",
            body.len()
        );
        let verdict = request(server.addr, &head, body).and_then(|(status, payload, s)| {
            let checks = check_verdict(status, &payload)?;
            if traced {
                let replica_start = Instant::now();
                let (service, replica_checks) = traced_verdict(&replica, body, &mut t)?;
                t.replica += replica_start.elapsed().as_secs_f64();
                if replica_checks != checks {
                    return Err(format!(
                        "replica verdict ran {replica_checks} checks, server {checks}"
                    ));
                }
                t.accept_wait += s - service;
                t.oracle_checks += checks;
            }
            Ok(s)
        });
        match verdict {
            Ok(s) => run.verdict_ms.push(s * 1e3),
            Err(e) => run.errors.push(e),
        }

        let head = "GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
        let scrape = request(server.addr, head, "").and_then(|(status, payload, s)| {
            check_scrape(status, &payload, &expect)?;
            if traced {
                let replica_start = Instant::now();
                let shared = &server.state.shared;
                let ((metrics, sheds, _), _) = timed(&mut t.shard_merge, || shared.merged());
                timed(&mut t.prom_render, || opec_obs::prom::render(&metrics, sheds));
                let (text, service) = timed(&mut t.scrape_service, || replica.metrics_text());
                check_scrape(200, &text, &expect)?;
                t.replica += replica_start.elapsed().as_secs_f64();
                t.accept_wait += s - service;
            }
            Ok(s)
        });
        match scrape {
            Ok(s) => run.scrape_ms.push(s * 1e3),
            Err(e) => run.errors.push(e),
        }
    }
    if traced {
        run.service = Some(t);
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The load generator only produces requests the daemon answers with
    /// a clean verdict, whatever the seed.
    #[test]
    fn generated_requests_get_clean_verdicts() {
        let state = ServeState::new(Arc::new(FleetShared::new(1)));
        for seed in 0..8 {
            for body in submissions(&mut Rng::new(seed), 64) {
                let verdict = state.submit_firmware(&body).expect("accepted request");
                check_verdict(200, &verdict).unwrap_or_else(|e| panic!("{body}: {e}"));
            }
        }
    }
}
