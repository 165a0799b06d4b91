//! The daemon's scrape surface: a dependency-free HTTP/1.1 server on
//! `std::net::TcpListener`.
//!
//! The evaluation container is network-less and the workspace adds no
//! crates, so this is a deliberately small hand-rolled server: one
//! blocking accept loop on the thread that calls [`serve`], one
//! connection at a time, bounded reads, three routes —
//!
//! * `GET /metrics` — Prometheus text exposition: the merged shard
//!   aggregates through [`opec_obs::prom::render`], plus fleet-level
//!   gauge/counter families appended with the same writer.
//! * `GET /devices` — JSON fleet status (capped device list, explicit
//!   truncation flag).
//! * `POST /firmware` — submit a generated-firmware plan (canonical
//!   corpus JSON, `{"spec": …}`, or `{"seed": N}`); the plan's decoder
//!   range-checks every number and applies [`opec_oracle::well_formed`]
//!   (invariants and size caps), the differential oracle runs it, and
//!   the verdict is returned and retained for `GET /firmware/<id>` in a
//!   bounded ring.
//!
//! Each connection gets one [`CONNECTION_DEADLINE`] for its socket
//! I/O, so a slow or silent client holds the serving thread for a
//! bounded time. A panic while routing is contained to its request
//! and answered with `500`.
//!
//! Scrapes read the sharded aggregates workers publish on a quantum
//! cadence ([`FleetShared::merged`]); they never block guest
//! execution.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use opec_campaign::panic_message;
use opec_obs::json::{parse, Layout, ToJson, Value, Writer};
use opec_obs::{prom, PromWriter};
use opec_oracle::corpus::spec_from;
use opec_oracle::{generate, run_opec_on, RunBudget};

use crate::mix::FleetBackend;
use crate::sched::{DeviceStatus, FleetShared};

/// Guest fuel for one submitted firmware's oracle run.
const FIRMWARE_FUEL: u64 = 5_000_000;
/// Host wall-clock budget for one submitted firmware's oracle run.
const FIRMWARE_TIMEOUT: Duration = Duration::from_secs(30);
/// Device rows `GET /devices` returns before truncating.
const DEVICE_LIST_CAP: usize = 256;
/// Largest request (headers + body) the server reads.
const MAX_REQUEST: usize = 1 << 20;
/// Firmware verdicts retained for `GET /firmware/<id>`; older ones are
/// evicted and answer `404`.
const VERDICT_LOG_CAP: usize = 4096;
/// Socket I/O budget of one connection: reading the request plus
/// writing the response. Routing time does not count against it.
pub const CONNECTION_DEADLINE: Duration = Duration::from_secs(5);
/// Least write timeout, so a connection whose deadline has passed can
/// still be told `408`.
const MIN_WRITE_TIMEOUT: Duration = Duration::from_millis(10);
/// How often the stop watcher checks the stop flag, and how long the
/// accept loop backs off after a failed `accept`.
const STOP_POLL: Duration = Duration::from_millis(25);

/// The newest [`VERDICT_LOG_CAP`] firmware verdicts, by id. Ids are
/// consecutive, so lookup is an index: `id - oldest`.
#[derive(Default)]
struct VerdictLog {
    /// Id of `verdicts[0]`.
    oldest: u64,
    verdicts: VecDeque<String>,
}

impl VerdictLog {
    /// The id the next pushed verdict gets.
    fn next_id(&self) -> u64 {
        self.oldest + self.verdicts.len() as u64
    }

    /// Retains `json` under [`VerdictLog::next_id`], evicting the
    /// oldest verdict when full.
    fn push(&mut self, json: String) {
        if self.verdicts.len() == VERDICT_LOG_CAP {
            self.verdicts.pop_front();
            self.oldest += 1;
        }
        self.verdicts.push_back(json);
    }

    fn get(&self, id: u64) -> Option<&String> {
        let index = usize::try_from(id.checked_sub(self.oldest)?).ok()?;
        self.verdicts.get(index)
    }
}

/// Shared state behind the HTTP surface.
pub struct ServeState {
    /// The live fleet's scrape surface.
    pub shared: Arc<FleetShared>,
    firmware: Mutex<VerdictLog>,
    started: Instant,
}

impl ServeState {
    /// Fresh state over a fleet's shard slots.
    pub fn new(shared: Arc<FleetShared>) -> ServeState {
        ServeState { shared, firmware: Mutex::default(), started: Instant::now() }
    }

    /// Renders the full `/metrics` payload.
    pub fn metrics_text(&self) -> String {
        let (metrics, sheds, devices) = self.shared.merged();
        let mut text = prom::render(&metrics, sheds);
        let mut w = PromWriter::new();
        w.family("opec_fleet_devices", "gauge", "Logical devices scheduled.");
        w.sample("opec_fleet_devices", &[], devices.len() as u64);
        w.family("opec_fleet_steps_total", "counter", "Guest instructions executed fleet-wide.");
        w.sample("opec_fleet_steps_total", &[], devices.iter().map(|d| d.steps).sum());
        w.family("opec_fleet_quanta_total", "counter", "Device quanta scheduled.");
        w.sample("opec_fleet_quanta_total", &[], devices.iter().map(|d| d.quanta).sum());
        w.family(
            "opec_fleet_resets_total",
            "counter",
            "Device respawns from the golden snapshot (completions + contained faults).",
        );
        w.sample("opec_fleet_resets_total", &[], devices.iter().map(|d| d.resets).sum());
        w.family("opec_fleet_faults_total", "counter", "Guest faults contained to their device.");
        w.sample("opec_fleet_faults_total", &[], devices.iter().map(|d| d.faults).sum());
        w.family("opec_fleet_parked_bytes", "gauge", "Dirty memory held by parked device deltas.");
        w.sample(
            "opec_fleet_parked_bytes",
            &[],
            devices.iter().map(|d| d.parked_bytes as u64).sum(),
        );
        w.family("opec_fleet_uptime_seconds", "gauge", "Daemon uptime.");
        w.sample("opec_fleet_uptime_seconds", &[], self.started.elapsed().as_secs());
        text.push_str(&w.finish());
        text
    }

    /// Renders the `GET /devices` JSON.
    pub fn devices_json(&self) -> String {
        let (_, sheds, devices) = self.shared.merged();
        let sum = |f: fn(&DeviceStatus) -> u64| devices.iter().map(f).sum::<u64>();
        let mut w = Writer::new(Layout::Spaced);
        w.obj().field("devices", &devices.len()).field("steps", &sum(|d| d.steps));
        w.field("quanta", &sum(|d| d.quanta)).field("resets", &sum(|d| d.resets));
        w.field("faults", &sum(|d| d.faults)).field("sheds", &sheds);
        w.field("done", &self.shared.done.load(Ordering::Acquire));
        w.field("truncated", &(devices.len() > DEVICE_LIST_CAP));
        w.field("list", &devices[..devices.len().min(DEVICE_LIST_CAP)]).end();
        w.finish()
    }

    /// Checks a submitted firmware plan, runs it under the
    /// differential oracle, and retains + returns the verdict JSON.
    pub fn submit_firmware(&self, body: &str) -> Result<String, String> {
        let v = parse(body).map_err(|e| format!("bad JSON body: {e}"))?;
        let spec_value = v.get("spec").unwrap_or(&v);
        let spec = if spec_value.get("funcs").is_some() {
            spec_from(spec_value)?
        } else if let Some(seed) = v.get("seed").and_then(Value::as_u64) {
            generate(seed)
        } else {
            return Err("body must be a plan (canonical corpus JSON), an object with a \"spec\" \
                        plan, or an object with a \"seed\" number"
                .to_string());
        };
        let backends = FleetBackend::list_from_flag(v.get("backend").and_then(Value::as_str))?;
        let backend = backends[0];
        let budget =
            RunBudget { fuel: FIRMWARE_FUEL, deadline: Some(Instant::now() + FIRMWARE_TIMEOUT) };
        let verdict = run_opec_on(&spec, None, &budget, backend.dyn_backend())?;
        let mut log = self.firmware.lock().unwrap_or_else(PoisonError::into_inner);
        let mut w = Writer::new(Layout::Spaced);
        w.obj().field("id", &log.next_id()).field("backend", backend.name());
        w.field("seed", &spec.seed);
        w.field("clean", &(verdict.total_divergences == 0 && verdict.run_error.is_none()));
        w.field("divergences", &verdict.total_divergences).field("checks", &verdict.checks);
        w.field("probes", &verdict.probes).field("switches", &verdict.switches);
        w.field("run_error", &verdict.run_error);
        w.field("halted_by_budget", &verdict.halt.is_some()).end();
        let json = w.finish();
        log.push(json.clone());
        Ok(json)
    }

    /// Looks up a retained verdict; `None` once it has been evicted.
    pub fn firmware_json(&self, id: u64) -> Option<String> {
        self.firmware.lock().unwrap_or_else(PoisonError::into_inner).get(id).cloned()
    }
}

/// One `GET /devices` row.
impl ToJson for DeviceStatus {
    fn write_json(&self, w: &mut Writer) {
        w.obj().field("id", &self.id).field("kind", self.kind).field("backend", self.backend);
        w.field("steps", &self.steps).field("quanta", &self.quanta).field("resets", &self.resets);
        w.field("faults", &self.faults).field("parked_bytes", &self.parked_bytes).end();
    }
}

struct Response {
    status: &'static str,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn ok(content_type: &'static str, body: String) -> Response {
        Response { status: "200 OK", content_type, body }
    }

    fn error(status: &'static str, msg: &str) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: {
                let mut w = Writer::new(Layout::Spaced);
                w.obj().field("error", msg).end();
                w.finish() + "\n"
            },
        }
    }
}

/// Routes one parsed request. Split from the socket plumbing so tests
/// can drive it without a listener.
fn route(state: &ServeState, method: &str, path: &str, body: &str) -> Response {
    match (method, path) {
        ("GET", "/metrics") => {
            Response::ok("text/plain; version=0.0.4; charset=utf-8", state.metrics_text())
        }
        ("GET", "/devices") => Response::ok("application/json", state.devices_json()),
        ("POST", "/firmware") => match state.submit_firmware(body) {
            Ok(json) => Response::ok("application/json", json),
            Err(e) => Response::error("400 Bad Request", &e),
        },
        ("GET", p) if p.starts_with("/firmware/") => {
            match p["/firmware/".len()..].parse::<u64>().ok().and_then(|id| state.firmware_json(id))
            {
                Some(json) => Response::ok("application/json", json),
                None => Response::error("404 Not Found", "no such firmware verdict"),
            }
        }
        ("GET", _) => Response::error("404 Not Found", "routes: /metrics, /devices, /firmware"),
        _ => Response::error("405 Method Not Allowed", "unsupported method"),
    }
}

/// Runs `route`, answering a panic with `500` and the panic message
/// so one bad request cannot take the daemon down.
fn contained(route: impl FnOnce() -> Response) -> Response {
    // Soundness of `AssertUnwindSafe`: what a route shares across
    // requests is the fleet's atomics and mutexes and the verdict log,
    // whose lock is taken poison-tolerantly and which is only touched
    // by whole-verdict pushes.
    catch_unwind(AssertUnwindSafe(route)).unwrap_or_else(|payload| {
        Response::error("500 Internal Server Error", &panic_message(payload.as_ref()))
    })
}

/// What reading one connection produced.
enum Incoming {
    /// A complete request.
    Request { method: String, path: String, body: String },
    /// A request answered without routing.
    Reject(Response),
    /// The peer closed before completing its headers.
    Closed,
}

/// The time left until `deadline`, `None` once it has passed.
fn time_left(deadline: Instant) -> Option<Duration> {
    deadline.checked_duration_since(Instant::now()).filter(|d| !d.is_zero())
}

/// One `read` with the read timeout set to the time left; `Ok(None)`
/// when the deadline passes first.
fn read_by(
    stream: &mut TcpStream,
    deadline: Instant,
    buf: &mut [u8],
) -> std::io::Result<Option<usize>> {
    let Some(left) = time_left(deadline) else { return Ok(None) };
    stream.set_read_timeout(Some(left))?;
    match stream.read(buf) {
        Ok(n) => Ok(Some(n)),
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(None),
        Err(e) => Err(e),
    }
}

fn read_request(stream: &mut TcpStream, deadline: Instant) -> std::io::Result<Incoming> {
    let expired =
        || Incoming::Reject(Response::error("408 Request Timeout", "connection deadline passed"));
    let mut buf = Vec::new();
    let mut tmp = [0u8; 4096];
    let header_end = loop {
        let Some(n) = read_by(stream, deadline, &mut tmp)? else { return Ok(expired()) };
        if n == 0 {
            return Ok(Incoming::Closed);
        }
        // The terminator may straddle the previous read.
        let from = buf.len().saturating_sub(3);
        buf.extend_from_slice(&tmp[..n]);
        if let Some(pos) = buf[from..].windows(4).position(|w| w == b"\r\n\r\n") {
            break from + pos + 4;
        }
        if buf.len() > MAX_REQUEST {
            let resp = Response::error("431 Request Header Fields Too Large", "headers");
            return Ok(Incoming::Reject(resp));
        }
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).to_string();
    let mut lines = head.lines();
    let mut parts = lines.next().unwrap_or_default().split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    let content_length = match lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
    {
        None => 0,
        Some((_, v)) => match v.trim().parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                let resp = Response::error("400 Bad Request", "unparseable Content-Length");
                return Ok(Incoming::Reject(resp));
            }
        },
    };
    if content_length > MAX_REQUEST {
        return Ok(Incoming::Reject(Response::error("413 Payload Too Large", "body")));
    }
    let body_end = header_end + content_length;
    while buf.len() < body_end {
        let Some(n) = read_by(stream, deadline, &mut tmp)? else { return Ok(expired()) };
        if n == 0 {
            let resp = Response::error("400 Bad Request", "body shorter than Content-Length");
            return Ok(Incoming::Reject(resp));
        }
        buf.extend_from_slice(&tmp[..n]);
    }
    let body = String::from_utf8_lossy(&buf[header_end..body_end]).to_string();
    Ok(Incoming::Request { method, path, body })
}

/// Reads one request, routes it, writes the response. Connection:
/// close — one request per connection keeps the loop trivially robust.
/// Reads and writes share one [`CONNECTION_DEADLINE`]; the clock stops
/// while the request is routed.
fn handle(stream: &mut TcpStream, state: &ServeState) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let mut deadline = Instant::now() + CONNECTION_DEADLINE;
    let resp = match read_request(stream, deadline)? {
        Incoming::Closed => return Ok(()),
        Incoming::Reject(resp) => resp,
        Incoming::Request { method, path, body } => {
            let routing = Instant::now();
            let resp = contained(|| route(state, &method, &path, &body));
            deadline += routing.elapsed();
            resp
        }
    };
    write_response(stream, &resp, deadline)
}

/// Writes `resp`. Each write's timeout is the time left, but at least
/// [`MIN_WRITE_TIMEOUT`]; writing stops once the deadline has passed.
fn write_response(
    stream: &mut TcpStream,
    resp: &Response,
    deadline: Instant,
) -> std::io::Result<()> {
    let bytes = format!(
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        resp.status,
        resp.content_type,
        resp.body.len(),
        resp.body
    );
    let mut rest = bytes.as_bytes();
    while !rest.is_empty() {
        let left = time_left(deadline).unwrap_or_default().max(MIN_WRITE_TIMEOUT);
        stream.set_write_timeout(Some(left))?;
        match stream.write(rest)? {
            0 => return Err(ErrorKind::WriteZero.into()),
            n => rest = &rest[n..],
        }
        if !rest.is_empty() && time_left(deadline).is_none() {
            return Err(ErrorKind::TimedOut.into());
        }
    }
    Ok(())
}

/// Where the stop watcher connects to wake a blocked `accept`: the
/// listener's address, with an unspecified bind address mapped to
/// loopback.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Serves until the fleet's stop flag is raised. The listener must be
/// in blocking mode (the default).
///
/// `accept` blocks, and every request is handled on the calling thread,
/// so a request is answered as soon as it arrives. A stop watcher
/// thread checks [`FleetShared::stop`] every 25 ms and, once it is
/// raised, wakes the blocked `accept` with one loopback connection; the
/// loop re-checks the flag after every `accept` and returns. The
/// watcher does no request work. Per-connection errors and panics are
/// contained to their connection.
pub fn serve(listener: TcpListener, state: Arc<ServeState>) -> std::io::Result<()> {
    let wake = wake_addr(listener.local_addr()?);
    let stop = &state.shared.stop;
    let exited = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            // Until the accept loop is gone: retry the wake connection
            // in case one fails.
            while !exited.load(Ordering::Relaxed) {
                if stop.load(Ordering::Relaxed)
                    && TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok()
                {
                    return;
                }
                std::thread::sleep(STOP_POLL);
            }
        });
        loop {
            let accepted = listener.accept();
            if stop.load(Ordering::Relaxed) {
                break;
            }
            match accepted {
                // Connection errors never kill the loop.
                Ok((mut stream, _)) => {
                    let _ = handle(&mut stream, &state);
                }
                // E.g. out of file descriptors: back off, don't spin.
                Err(_) => std::thread::sleep(STOP_POLL),
            }
        }
        exited.store(true, Ordering::Relaxed);
        // Joined here, not at the end of the scope: `join` returns only
        // once the thread has fully exited and released its malloc
        // arena, so glibc hands the next serving thread its own arena
        // back. Left to the scope, the release order varied, and now
        // and then the next serving thread started on the watcher's
        // arena and filled a second arena with oracle-run fragments (up
        // to +70 % peak RSS in benchmark runs).
        watcher.join().expect("the stop watcher does not panic");
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> ServeState {
        ServeState::new(Arc::new(FleetShared::new(2)))
    }

    #[test]
    fn metrics_route_renders_prometheus_text() {
        let s = state();
        let r = route(&s, "GET", "/metrics", "");
        assert_eq!(r.status, "200 OK");
        assert!(r.body.contains("# TYPE opec_events_seen_total counter"));
        assert!(r.body.contains("opec_fleet_devices 0"));
        assert!(r.body.contains("opec_ring_shed_events_total 0"));
    }

    #[test]
    fn devices_route_is_wellformed_json() {
        let s = state();
        let r = route(&s, "GET", "/devices", "");
        let v = parse(&r.body).unwrap();
        assert_eq!(v.get("devices").and_then(Value::as_u64), Some(0));
        assert_eq!(v.get("truncated").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn firmware_submit_by_seed_returns_a_clean_verdict() {
        let s = state();
        let r = route(&s, "POST", "/firmware", "{\"seed\": 3}");
        assert_eq!(r.status, "200 OK", "{}", r.body);
        let v = parse(&r.body).unwrap();
        assert_eq!(v.get("clean").and_then(Value::as_bool), Some(true), "{}", r.body);
        assert_eq!(v.get("divergences").and_then(Value::as_u64), Some(0));
        // The verdict is retained for polling.
        let id = v.get("id").and_then(Value::as_u64).unwrap();
        let polled = route(&s, "GET", &format!("/firmware/{id}"), "");
        assert_eq!(polled.body, r.body);
    }

    #[test]
    fn bad_submissions_and_unknown_routes_fail_cleanly() {
        let s = state();
        assert_eq!(route(&s, "POST", "/firmware", "not json").status, "400 Bad Request");
        assert_eq!(route(&s, "POST", "/firmware", "{}").status, "400 Bad Request");
        assert_eq!(route(&s, "GET", "/firmware/99", "").status, "404 Not Found");
        assert_eq!(route(&s, "GET", "/nope", "").status, "404 Not Found");
        assert_eq!(route(&s, "DELETE", "/metrics", "").status, "405 Method Not Allowed");
    }

    #[test]
    fn submitted_plans_must_be_well_formed_and_within_caps() {
        let s = state();
        let mut plan = generate(3);
        plan.globals[0].words = 4_000_000_000;
        let body = format!("{{\"spec\": {}}}", opec_oracle::corpus::spec_json(&plan));
        let r = route(&s, "POST", "/firmware", &body);
        assert_eq!(r.status, "400 Bad Request");
        assert!(r.body.contains("exceeds cap 256"), "{}", r.body);
        // A broken invariant is refused the same way.
        let mut plan = generate(3);
        plan.funcs[0].entry_of = Some(1);
        let r = route(&s, "POST", "/firmware", &opec_oracle::corpus::spec_json(&plan));
        assert_eq!(r.status, "400 Bad Request");
        assert!(r.body.contains("ill-formed plan"), "{}", r.body);
        // Nothing refused was retained.
        assert_eq!(s.firmware.lock().unwrap().next_id(), 0);
    }

    #[test]
    fn a_panicking_route_answers_500_with_its_message() {
        let r = contained(|| panic!("plan blew up"));
        assert_eq!(r.status, "500 Internal Server Error");
        assert!(r.body.contains("plan blew up"), "{}", r.body);
        let r = contained(|| Response::ok("text/plain", "fine".to_string()));
        assert_eq!((r.status, r.body.as_str()), ("200 OK", "fine"));
    }

    #[test]
    fn a_poisoned_verdict_log_keeps_serving() {
        let s = state();
        let _ = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _log = s.firmware.lock().unwrap();
                    panic!("poison the verdict log");
                })
                .join()
        });
        assert!(s.firmware.is_poisoned());
        assert_eq!(route(&s, "GET", "/firmware/0", "").status, "404 Not Found");
        let r = route(&s, "POST", "/firmware", "{\"seed\": 3}");
        assert_eq!(r.status, "200 OK", "{}", r.body);
        assert_eq!(route(&s, "GET", "/firmware/0", "").body, r.body);
    }

    #[test]
    fn verdict_log_keeps_the_newest_verdicts_by_id() {
        let mut log = VerdictLog::default();
        assert_eq!(log.get(0), None);
        for id in 0..=VERDICT_LOG_CAP as u64 {
            assert_eq!(log.next_id(), id);
            log.push(format!("v{id}"));
        }
        let newest = VERDICT_LOG_CAP as u64;
        assert_eq!(log.verdicts.len(), VERDICT_LOG_CAP);
        assert_eq!(log.get(0), None, "the oldest verdict is evicted");
        assert_eq!(log.get(1).map(String::as_str), Some("v1"));
        assert_eq!(log.get(newest).map(String::as_str), Some(format!("v{newest}").as_str()));
        assert_eq!(log.get(newest + 1), None);
        assert_eq!(log.get(u64::MAX), None);
    }

    #[test]
    fn evicted_verdicts_answer_404() {
        let s = state();
        {
            let mut log = s.firmware.lock().unwrap();
            for id in 0..=VERDICT_LOG_CAP as u64 {
                log.push(format!("{{\"id\": {id}}}"));
            }
        }
        assert_eq!(route(&s, "GET", "/firmware/0", "").status, "404 Not Found");
        let r = route(&s, "GET", &format!("/firmware/{VERDICT_LOG_CAP}"), "");
        assert_eq!(r.status, "200 OK");
        assert_eq!(r.body, format!("{{\"id\": {VERDICT_LOG_CAP}}}"));
    }

    #[test]
    fn wake_address_maps_unspecified_to_loopback() {
        let v4: SocketAddr = "0.0.0.0:9321".parse().unwrap();
        assert_eq!(wake_addr(v4), "127.0.0.1:9321".parse().unwrap());
        let v6: SocketAddr = "[::]:9321".parse().unwrap();
        assert_eq!(wake_addr(v6), "[::1]:9321".parse().unwrap());
        let bound: SocketAddr = "10.0.0.7:80".parse().unwrap();
        assert_eq!(wake_addr(bound), bound);
    }
}
