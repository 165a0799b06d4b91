//! End-to-end HTTP tests: a real fleet running on worker threads while
//! a real `TcpListener` serves scrapes — the exact deployment shape of
//! `opec-eval serve`, on an ephemeral port — plus the server's latency,
//! shutdown, deadline and input checks against an idle fleet.

use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use opec_fleet::http::CONNECTION_DEADLINE;
use opec_fleet::{run_fleet, serve, FleetConfig, FleetShared, ServeState};
use opec_obs::json;
use opec_oracle::corpus::spec_json;
use opec_oracle::generate;

/// One request over a fresh connection (the server is
/// `Connection: close`), returning `(status_line, body)`.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read response");
    let (head, payload) = raw.split_once("\r\n\r\n").expect("header terminator");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, payload.to_string())
}

#[test]
fn serve_answers_scrapes_while_a_fleet_runs() {
    let workers = 2;
    let shared = Arc::new(FleetShared::new(workers));
    let state = Arc::new(ServeState::new(shared.clone()));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");

    let server = {
        let state = state.clone();
        std::thread::spawn(move || serve(listener, state))
    };
    let fleet = {
        let shared = shared.clone();
        let cfg = FleetConfig {
            devices: 8,
            workers: Some(workers),
            rounds: None,
            duration: Some(Duration::from_secs(120)), // backstop; stop flag ends it sooner
            ..FleetConfig::default()
        };
        std::thread::spawn(move || run_fleet(&cfg, Some(shared)))
    };

    // Scrape until the fleet has published work (publication happens
    // every PUBLISH_QUANTA quanta, so poll briefly).
    let mut metrics = String::new();
    for _ in 0..600 {
        let (status, body) = request(addr, "GET", "/metrics", "");
        assert_eq!(status, "HTTP/1.1 200 OK");
        if body.contains("opec_fleet_devices 8") && body.contains("opec_fleet_steps_total") {
            metrics = body;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        metrics.contains("opec_fleet_devices 8"),
        "fleet never published its device census to /metrics"
    );
    assert!(metrics.contains("# TYPE opec_switches_total counter"));
    assert!(metrics.contains("opec_ring_shed_events_total"));

    // /devices: well-formed JSON with one entry per device.
    let (status, body) = request(addr, "GET", "/devices", "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let v = json::parse(&body).expect("devices JSON parses");
    assert_eq!(v.get("devices").and_then(|d| d.as_u64()), Some(8));
    let listed = v.get("list").and_then(|l| l.as_arr()).expect("device list");
    assert_eq!(listed.len(), 8);

    // POST /firmware: a generated plan by seed, run under the
    // differential oracle while the fleet keeps executing.
    let (status, body) = request(addr, "POST", "/firmware", "{\"seed\": 3}");
    assert_eq!(status, "HTTP/1.1 200 OK", "firmware submit failed: {body}");
    let verdict = json::parse(&body).expect("verdict JSON parses");
    assert_eq!(verdict.get("clean").and_then(|c| c.as_bool()), Some(true), "{body}");
    assert_eq!(verdict.get("divergences").and_then(|d| d.as_u64()), Some(0));
    let id = verdict.get("id").and_then(|i| i.as_u64()).expect("verdict id");

    // The verdict is retained and readable back.
    let (status, replay) = request(addr, "GET", &format!("/firmware/{id}"), "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(replay, body);

    // Unknown routes stay contained.
    let (status, _) = request(addr, "GET", "/nope", "");
    assert_eq!(status, "HTTP/1.1 404 Not Found");

    // Cooperative shutdown: raise the stop flag; the fleet drains and
    // the server loop exits.
    shared.stop.store(true, Ordering::Relaxed);
    let outcome = fleet.join().expect("fleet thread").expect("fleet outcome");
    assert_eq!(outcome.devices.len(), 8);
    assert!(outcome.panics.is_empty(), "device panics: {:?}", outcome.panics);
    server.join().expect("server thread").expect("server exits cleanly");
}

/// A server over an idle one-worker fleet on an ephemeral port.
struct Idle {
    addr: SocketAddr,
    shared: Arc<FleetShared>,
    server: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Idle {
    fn start() -> Idle {
        let shared = Arc::new(FleetShared::new(1));
        let state = Arc::new(ServeState::new(shared.clone()));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = listener.local_addr().expect("local addr");
        let server = std::thread::spawn(move || serve(listener, state));
        Idle { addr, shared, server }
    }

    /// Raises the stop flag and returns how long `serve` took to exit.
    fn stop(self) -> Duration {
        let raised = Instant::now();
        self.shared.stop.store(true, Ordering::Relaxed);
        self.server.join().expect("server thread").expect("server exits cleanly");
        raised.elapsed()
    }
}

/// Sends raw bytes, half-closes, and returns the response's status
/// line.
fn raw_status(addr: SocketAddr, raw: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(raw).expect("send");
    s.shutdown(Shutdown::Write).expect("half-close");
    let mut resp = String::new();
    s.read_to_string(&mut resp).expect("read response");
    resp.lines().next().unwrap_or_default().to_string()
}

#[test]
fn closed_loop_requests_do_not_wait_for_a_poll() {
    let idle = Idle::start();
    // Let the server reach its accept before timing.
    assert_eq!(request(idle.addr, "GET", "/metrics", "").0, "HTTP/1.1 200 OK");
    let start = Instant::now();
    for _ in 0..40 {
        let (status, body) = request(idle.addr, "GET", "/metrics", "");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains("opec_fleet_devices 0"));
    }
    let took = start.elapsed();
    assert!(took < Duration::from_millis(400), "40 sequential scrapes took {took:?}");
    idle.stop();
}

#[test]
fn serve_returns_promptly_after_stop_with_no_traffic() {
    let idle = Idle::start();
    // Give the server time to block in `accept`.
    std::thread::sleep(Duration::from_millis(100));
    let took = idle.stop();
    assert!(took < Duration::from_secs(1), "serve took {took:?} to stop");
}

#[test]
fn a_trickling_client_is_cut_at_the_connection_deadline() {
    let idle = Idle::start();
    let addr = idle.addr;
    let (connected, queued) = std::sync::mpsc::channel();
    let trickler = std::thread::spawn(move || {
        let start = Instant::now();
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(b"GET /metrics HTTP/1.1\r\nHo").expect("half a header");
        connected.send(()).expect("main thread waits");
        // One byte every 100 ms: each read alone is far inside any
        // per-read timeout, so only a whole-connection deadline ends it.
        s.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
        let mut buf = [0u8; 512];
        while start.elapsed() < Duration::from_secs(15) {
            match s.read(&mut buf) {
                Ok(n) => {
                    let status =
                        String::from_utf8_lossy(&buf[..n]).lines().next().map(str::to_string);
                    return (start.elapsed(), status);
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                // Reset by the server's close: cut without a readable 408.
                Err(_) => return (start.elapsed(), None),
            }
            if s.write_all(b"x").is_err() {
                return (start.elapsed(), None);
            }
        }
        (start.elapsed(), None)
    });
    // Connected first, so accepted first: the next client waits behind
    // the trickler, then gets served.
    queued.recv().expect("trickler connected");
    let (status, _) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let (cut_after, status) = trickler.join().expect("trickler thread");
    assert!(
        cut_after >= CONNECTION_DEADLINE - Duration::from_millis(200)
            && cut_after < CONNECTION_DEADLINE + Duration::from_secs(2),
        "trickler cut after {cut_after:?}"
    );
    if let Some(status) = status {
        assert_eq!(status, "HTTP/1.1 408 Request Timeout");
    }
    idle.stop();
}

#[test]
fn a_silent_client_gets_408_at_the_deadline() {
    let idle = Idle::start();
    let start = Instant::now();
    let mut s = TcpStream::connect(idle.addr).expect("connect");
    s.write_all(b"GET /metrics HTTP/1.1\r\n").expect("half a header");
    s.set_read_timeout(Some(Duration::from_secs(15))).unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).expect("read response");
    let took = start.elapsed();
    assert!(resp.starts_with("HTTP/1.1 408 Request Timeout\r\n"), "{resp}");
    assert!(took >= CONNECTION_DEADLINE - Duration::from_millis(200), "cut after {took:?}");
    assert!(took < CONNECTION_DEADLINE + Duration::from_secs(2), "cut after {took:?}");
    idle.stop();
}

#[test]
fn an_oversized_plan_is_refused_before_compiling() {
    let idle = Idle::start();
    let mut plan = generate(3);
    plan.globals[0].words = 4_000_000_000;
    let body = format!("{{\"spec\": {}}}", spec_json(&plan));
    let start = Instant::now();
    let (status, payload) = request(idle.addr, "POST", "/firmware", &body);
    let took = start.elapsed();
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(payload.contains("exceeds cap"), "{payload}");
    assert!(took < Duration::from_millis(100), "refusal took {took:?}");
    // The daemon keeps serving.
    assert_eq!(request(idle.addr, "GET", "/metrics", "").0, "HTTP/1.1 200 OK");
    idle.stop();
}

#[test]
fn malformed_requests_get_the_right_4xx() {
    let idle = Idle::start();
    let addr = idle.addr;
    assert_eq!(
        raw_status(addr, b"POST /firmware HTTP/1.1\r\nContent-Length: ten\r\n\r\n{}"),
        "HTTP/1.1 400 Bad Request"
    );
    // The peer closes with the body short of its Content-Length.
    assert_eq!(
        raw_status(addr, b"POST /firmware HTTP/1.1\r\nContent-Length: 40\r\n\r\n{\"seed\": 3}"),
        "HTTP/1.1 400 Bad Request"
    );
    assert_eq!(
        raw_status(addr, b"POST /firmware HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"),
        "HTTP/1.1 413 Payload Too Large"
    );
    // One byte over the 1 MiB limit in total, so the server has read
    // everything when it answers and its close sends no reset.
    let mut huge = b"GET /metrics HTTP/1.1\r\nX-Pad: ".to_vec();
    huge.resize((1 << 20) + 1, b'a');
    assert_eq!(raw_status(addr, &huge), "HTTP/1.1 431 Request Header Fields Too Large");
    assert_eq!(request(addr, "GET", "/metrics", "").0, "HTTP/1.1 200 OK");
    idle.stop();
}

#[test]
fn a_deeply_nested_body_is_refused_and_the_daemon_keeps_serving() {
    let idle = Idle::start();
    // As much nesting as fits in one request: the parser refuses it at
    // its depth cap instead of recursing a million frames deep.
    let body = "[".repeat((1 << 20) - 128);
    let (status, payload) = request(idle.addr, "POST", "/firmware", &body);
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(payload.contains("nesting depth 65 exceeds 64"), "{payload}");
    assert_eq!(request(idle.addr, "GET", "/metrics", "").0, "HTTP/1.1 200 OK");
    idle.stop();
}
