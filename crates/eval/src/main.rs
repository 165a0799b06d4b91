//! `opec-eval`: regenerates the paper's tables and figures.
//!
//! Run `opec-eval help` for the full usage text (also in
//! [`USAGE`]). Every subcommand shares one flag vocabulary
//! ([`opec_eval::CliArgs`]); flags a subcommand does not use are
//! rejected rather than ignored.
//!
//! Every subcommand draws its runs from one process-wide memoized
//! cache, so `all` (and `csv`, which needs both evaluation shapes)
//! performs each baseline/OPEC/ACES run exactly once and the renderers
//! share the results.

use std::io::Write as _;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use opec_apps::programs::all_apps;
use opec_eval::engine::EngineOpts;
use opec_eval::{attack, benchjson, benchvm, check, fuzz, obsreport, report, CliArgs};
use opec_fleet::{
    fleet_bench, resolve_workers, run_fleet, BenchConfig, FleetBackend, FleetConfig, FleetShared,
    Mix, ServeState,
};

/// The usage text (`opec-eval help`).
const USAGE: &str = "\
opec-eval — regenerate the paper's tables and figures

  opec-eval all                 everything (Tables 1-3, Figures 9-11, case study)
  opec-eval table1              security metrics
  opec-eval figure9             OPEC overheads
  opec-eval table2              OPEC vs ACES overheads + PAC
  opec-eval figure10            PT cumulative distributions
  opec-eval figure11            ET per task
  opec-eval table3              icall analysis efficiency
  opec-eval case-study          the §6.1 PinLock attack demonstration
  opec-eval csv [--out DIR]     every table/figure as CSV (default: results/)
  opec-eval bench-json [--json FILE]
                                machine-readable timings (default: stdout)
  opec-eval bench-vm [--backend B] [--seeds N] [--json FILE] [CAMPAIGN FLAGS]
                                VM fast-path benchmark (BENCH_vm.json):
                                plain vs pre-decoded instructions/sec per app,
                                per-backend protection-switch costs (always
                                both backends), campaign resets/sec (rebuild
                                vs snapshot restore), restore latency, and the
                                cached-vs-plain lockstep sweep over the apps +
                                N generated firmwares (default: 16).
                                Exits 1 on any lockstep divergence.
  opec-eval attack-matrix [--backend B] [--seeds N] [--json FILE]
                          [CAMPAIGN FLAGS]
                                §7 containment matrix (default: 4 seeds)
  opec-eval check [--backend B] [--seeds N] [--shrink] [--lockstep]
                  [--json FILE] [CAMPAIGN FLAGS]
                                differential security oracle: every app under
                                OPEC (comparison apps also under ACES) plus N
                                generated firmwares (default: 16), run in
                                lockstep against the ground-truth access
                                matrix; PT/ET recomputed independently and
                                cross-checked. --shrink reduces a divergent
                                generated firmware to a minimal program.
                                --lockstep instead runs every subject twice —
                                plain interpreter vs pre-decoded block cache —
                                and reports any event-stream, counter, or
                                outcome difference.
                                Exits 1 on any divergence.
  opec-eval fuzz [--backend B] [--seeds N] [--corpus DIR] [--mode M]
                 [--json FILE] [CAMPAIGN FLAGS]
                                coverage-guided fuzzing of the whole pipeline:
                                N structure-aware inputs (fresh plans plus
                                stacked mutants of earlier ones), each compiled
                                and run under the shadow oracle, with coverage
                                folded from the obs event stream. Plans that
                                contribute new coverage join the minimized
                                corpus at DIR (re-minimized on load; stale
                                entries pruned on save). --mode guided (default)
                                schedules mutation bases from the corpus;
                                --mode random mutates uniformly over all prior
                                inputs, with no coverage feedback.
                                Exits 1 on any divergence or run error.
  opec-eval fuzz --time-to-find [--trials T] [--seeds N] [--json FILE]
                                the fuzzing benchmark (BENCH_fuzz.json): median
                                jobs and wall-clock until the planted latent
                                broken-MPU bug is detected, guided vs random,
                                on both backends (T trials each, budget N jobs
                                per trial), plus a corpus-replay determinism
                                check. Exits 1 if the replay digests differ.
  opec-eval fleet [--devices N] [--duration SECS] [--mix SPEC] [--backend B]
                  [--quantum N] [--workers N] [--json FILE]
                                fleet-scale sustained-traffic benchmark
                                (BENCH_fleet.json): N logical device VMs
                                (default 2048) multiplexed over the worker
                                pool, every device forked from a pooled
                                golden snapshot. Reports device-steps/sec
                                across a three-point fleet ladder, the
                                worker-scaling curve, pooled-vs-scratch
                                spawn latency, and p50/p99 protection-switch
                                latency under load. --mix picks firmware
                                proportions (kind[=weight],... over
                                tcp_echo|pinlock|camera|fuzz; default all
                                equally). Exits 1 if any events were shed
                                or the pooled spawn speedup falls below 10x.
  opec-eval serve [--port P] [--devices N] [--duration SECS] [--mix SPEC]
                  [--backend B] [--quantum N] [--workers N] [--ring N]
                                resident fleet daemon on 127.0.0.1:P
                                (default 9100): runs the fleet continuously
                                (forever unless --duration is given) while
                                serving
                                  GET  /metrics   Prometheus text format
                                  GET  /devices   per-device status JSON
                                  POST /firmware  submit a generated-firmware
                                                  plan (JSON body: a plan, a
                                                  {\"spec\": ...} wrapper, or
                                                  {\"seed\": N}); the reply is
                                                  its differential-oracle
                                                  verdict, also readable back
                                                  at GET /firmware/<id>
                                --ring N arms a bounded diagnostic event
                                ring per worker; shed counts surface in
                                /metrics as opec_ring_shed_events_total.
  opec-eval report [--backend B] [--obs-json FILE] [--trace FILE]
                   [--apps FILTER] [--ring N] [--funcs]
                                per-operation overhead breakdown from the
                                observability stream, OPEC and ACES measured
                                from the same event format. Without --backend,
                                OPEC runs on both backends and the report ends
                                with a per-backend switch-cost comparison.
                                  --obs-json  write metrics JSON
                                  --trace     write a Chrome trace_event JSON
                                              of the first run (pick the app
                                              with --apps; load in Perfetto)
                                  --apps      comma-separated name filter
                                  --ring      event ring capacity (default 2^20)
                                  --funcs     keep function enter/exit events
                                              in the ring (bigger traces)
                                Exits 1 if any ring shed events.

--backend B (bench-vm, attack-matrix, check, fuzz, report, fleet, serve)
selects the protection backend: armv7m (the paper's ARMv7-M MPU, the
default) or rv32-pmp (the §7 RISC-V PMP port). The ACES comparison stack
is an ARMv7-M artifact; under rv32-pmp its cells are recorded as skips.
For fleet and serve, omitting --backend runs devices on BOTH backends,
alternating.

CAMPAIGN FLAGS (bench-vm, attack-matrix, check, fuzz): these subcommands run
their VM work as supervised campaign jobs — fuel-budgeted, watchdogged,
panic-contained, and resumable.

  --fuel N        guest instruction budget per job (default: 200e6)
  --timeout SECS  wall-clock watchdog per job attempt; 0 disarms it
                  (default: 120; always disarmed for lockstep runs,
                  where wall-clock would manufacture divergence)
  --journal FILE  crash-safe job journal (JSONL, fsynced); rerunning
                  with the same path resumes, skipping recorded jobs —
                  the aggregate output is byte-identical to an
                  uninterrupted run
  --workers N     campaign worker threads (default: one per core)

Exit codes: 0 clean; 1 hard failures (escapes, divergences, crashes);
2 usage errors; 3 no hard failures but unknown outcomes — jobs that
exhausted fuel, timed out, or panicked, or verdicts left undecided.

Legacy positional forms `csv DIR` and `bench-json FILE` still work.
";

/// The subcommand's own flags plus the shared campaign supervision
/// flags (`bench-vm`, `attack-matrix`, `check`, and `fuzz` all accept
/// them).
fn campaign_flags(base: &[&'static str]) -> Vec<&'static str> {
    let mut v = base.to_vec();
    v.extend(["--fuel", "--timeout", "--journal", "--workers"]);
    v
}

fn fail(msg: &str) -> ! {
    eprintln!("opec-eval: {msg}");
    eprintln!("run `opec-eval help` for usage");
    std::process::exit(2);
}

/// Opens `path` for writing, failing fast: runs take a while, so an
/// unwritable artifact path should abort before them, not after.
fn create(path: &str) -> std::fs::File {
    std::fs::File::create(path).unwrap_or_else(|e| fail(&format!("cannot create {path}: {e}")))
}

fn main() {
    let cmd = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let args = CliArgs::parse(std::env::args().skip(2)).unwrap_or_else(|e| fail(&e));
    let no_flags = |allowed: &[&str]| {
        args.forbid_unused(&cmd, allowed).unwrap_or_else(|e| fail(&e));
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => print!("{USAGE}"),
        "table1" => {
            no_flags(&[]);
            println!("{}", report::table1(&report::run_all_apps()));
        }
        "figure9" => {
            no_flags(&[]);
            println!("{}", report::figure9(&report::run_all_apps()));
        }
        "table2" => {
            no_flags(&[]);
            println!("{}", report::table2(&report::run_comparison_apps()));
        }
        "figure10" => {
            no_flags(&[]);
            println!("{}", report::figure10(&report::run_comparison_apps()));
        }
        "figure11" => {
            no_flags(&[]);
            println!("{}", report::figure11(&report::run_comparison_apps()));
        }
        "table3" => {
            no_flags(&[]);
            println!("{}", report::table3(&report::run_all_apps()));
        }
        "case-study" => {
            no_flags(&[]);
            println!("{}", report::case_study());
        }
        "csv" => {
            no_flags(&["--out", "positional"]);
            let dir = args
                .out
                .clone()
                .or_else(|| args.positional.first().cloned())
                .unwrap_or_else(|| "results".to_string());
            eprintln!("[opec-eval] running all workloads for CSV export...");
            let evals = report::run_all_apps();
            let cmp = report::run_comparison_apps();
            let written = report::write_csv(std::path::Path::new(&dir), &evals, &cmp)
                .expect("write CSV files");
            for p in written {
                println!("wrote {}", p.display());
            }
        }
        "all" => {
            no_flags(&[]);
            eprintln!(
                "[opec-eval] building and running all workloads once \
                 (baseline + OPEC, memoized)..."
            );
            let evals = report::run_all_apps();
            println!("{}", report::table1(&evals));
            println!("{}", report::figure9(&evals));
            println!("{}", report::table3(&evals));
            eprintln!(
                "[opec-eval] ACES comparison (baseline/OPEC reused from cache; \
                 3 strategies x 5 apps run now)..."
            );
            let cmp = report::run_comparison_apps();
            println!("{}", report::table2(&cmp));
            println!("{}", report::figure10(&cmp));
            println!("{}", report::figure11(&cmp));
            println!("{}", report::case_study());
        }
        "bench-json" => {
            no_flags(&["--json", "positional"]);
            let path = args.json.clone().or_else(|| args.positional.first().cloned());
            let out = path.map(|p| (create(&p), p));
            let json = benchjson::bench_json();
            match out {
                Some((mut file, path)) => {
                    file.write_all(json.as_bytes()).expect("write bench JSON");
                    eprintln!("[opec-eval] wrote {path}");
                }
                None => print!("{json}"),
            }
        }
        "bench-vm" => {
            no_flags(&campaign_flags(&["--backend", "--seeds", "--json"]));
            let sel = FleetBackend::from_flag(args.backend.as_deref()).unwrap_or_else(|e| fail(&e));
            let seeds = args.seeds.unwrap_or(16);
            let engine = EngineOpts::from_args(&args);
            let out = args.json.clone().map(|p| (create(&p), p));
            let (json, divergences, campaign) =
                benchvm::bench_vm_campaign(seeds, &engine, sel).unwrap_or_else(|e| fail(&e));
            match out {
                Some((mut file, path)) => {
                    file.write_all(json.as_bytes()).expect("write BENCH_vm.json");
                    eprintln!("[opec-eval] wrote {path}");
                }
                None => print!("{json}"),
            }
            eprintln!("[opec-eval] {}", campaign.summary());
            if divergences > 0 {
                eprintln!("[opec-eval] bench-vm FAILED: {divergences} lockstep divergences");
                std::process::exit(1);
            }
            if campaign.unknown() > 0 {
                eprintln!(
                    "[opec-eval] bench-vm UNKNOWN: {} lockstep jobs without a verdict",
                    campaign.unknown()
                );
                std::process::exit(3);
            }
            eprintln!("[opec-eval] bench-vm clean: decoded path lockstep-identical");
        }
        "attack-matrix" => {
            no_flags(&campaign_flags(&["--backend", "--seeds", "--json"]));
            let sel = FleetBackend::from_flag(args.backend.as_deref()).unwrap_or_else(|e| fail(&e));
            let seeds = args.seeds.unwrap_or(4);
            let engine = EngineOpts::from_args(&args);
            let out = args.json.clone().map(|p| (create(&p), p));
            eprintln!(
                "[opec-eval] running attack campaigns ({seeds} seeds per cell, backend {})...",
                sel.name()
            );
            let (matrix, campaign) =
                attack::attack_matrix_campaign(&all_apps(), seeds, &engine, sel)
                    .unwrap_or_else(|e| fail(&e));
            print!("{}", matrix.render());
            if let Some((mut file, path)) = out {
                file.write_all(matrix.to_json().as_bytes()).expect("write matrix JSON");
                eprintln!("[opec-eval] wrote {path}");
            }
            eprintln!("[opec-eval] {}", campaign.summary());
            let failures = matrix.failures();
            if !failures.is_empty() {
                eprintln!("[opec-eval] containment FAILURES:");
                for f in &failures {
                    eprintln!("  {f}");
                }
                std::process::exit(1);
            }
            let unknown = campaign.unknown() + matrix.undecided();
            if unknown > 0 {
                eprintln!(
                    "[opec-eval] attack-matrix UNKNOWN: {} jobs without a final outcome, \
                     {} undecided verdicts (raise --fuel / --timeout)",
                    campaign.unknown(),
                    matrix.undecided()
                );
                std::process::exit(3);
            }
            eprintln!("[opec-eval] containment matrix clean: no OPEC escapes, no crashes");
        }
        "check" => {
            no_flags(&campaign_flags(&[
                "--backend",
                "--seeds",
                "--json",
                "--shrink",
                "--lockstep",
                "--corpus",
            ]));
            let sel = FleetBackend::from_flag(args.backend.as_deref()).unwrap_or_else(|e| fail(&e));
            let seeds = args.seeds.unwrap_or(16);
            let engine = EngineOpts::from_args(&args);
            let out = args.json.clone().map(|p| (create(&p), p));
            let (rep, campaign) = if args.lockstep {
                if args.shrink {
                    fail("--shrink does not apply to --lockstep");
                }
                if args.corpus.is_some() {
                    fail("--corpus does not apply to --lockstep");
                }
                eprintln!(
                    "[opec-eval] cached-vs-plain lockstep: apps + {seeds} generated \
                     firmwares on backend {}, each run under both execution modes...",
                    sel.name()
                );
                check::run_lockstep_campaign(seeds, &engine, sel).unwrap_or_else(|e| fail(&e))
            } else {
                eprintln!(
                    "[opec-eval] differential oracle: 7 apps + {seeds} generated firmwares \
                     on backend {}...",
                    sel.name()
                );
                check::run_check_campaign(
                    &check::CheckOptions {
                        seeds,
                        shrink: args.shrink,
                        backend: sel,
                        corpus: args.corpus.clone(),
                    },
                    &engine,
                )
                .unwrap_or_else(|e| fail(&e))
            };
            print!("{}", rep.render());
            if let Some((mut file, path)) = out {
                file.write_all(rep.to_json().as_bytes()).expect("write oracle JSON");
                eprintln!("[opec-eval] wrote {path}");
            }
            eprintln!("[opec-eval] {}", campaign.summary());
            let failures = rep.failures();
            if !failures.is_empty() {
                eprintln!(
                    "[opec-eval] {} FAILURES:",
                    if args.lockstep { "lockstep" } else { "oracle" }
                );
                for f in &failures {
                    eprintln!("  {f}");
                }
                std::process::exit(1);
            }
            if campaign.unknown() > 0 {
                eprintln!(
                    "[opec-eval] check UNKNOWN: {} jobs without a final outcome \
                     (raise --fuel / --timeout)",
                    campaign.unknown()
                );
                std::process::exit(3);
            }
            if args.lockstep {
                eprintln!(
                    "[opec-eval] lockstep clean: the decoded fast path is \
                     observationally identical to the plain interpreter"
                );
            } else {
                eprintln!(
                    "[opec-eval] oracle clean: every enforcement layer agrees with the \
                     ground-truth matrix"
                );
            }
        }
        "fuzz" => {
            no_flags(&campaign_flags(&[
                "--backend",
                "--seeds",
                "--json",
                "--corpus",
                "--mode",
                "--time-to-find",
                "--trials",
            ]));
            let sel = FleetBackend::from_flag(args.backend.as_deref()).unwrap_or_else(|e| fail(&e));
            let out = args.json.clone().map(|p| (create(&p), p));
            if args.time_to_find {
                if args.corpus.is_some() || args.mode.is_some() || args.journal.is_some() {
                    fail("--time-to-find runs both modes in-process; --corpus, --mode and --journal do not apply");
                }
                let defaults = fuzz::BenchOptions::default();
                let bopts = fuzz::BenchOptions {
                    trials: args.trials.unwrap_or(defaults.trials),
                    budget: args.seeds.unwrap_or(defaults.budget),
                };
                eprintln!(
                    "[opec-eval] time-to-find: guided vs random, both backends, {} trials \
                     x {} jobs budget...",
                    bopts.trials, bopts.budget
                );
                let json = fuzz::bench_time_to_find(&bopts).unwrap_or_else(|e| {
                    eprintln!("opec-eval: fuzz benchmark FAILED: {e}");
                    std::process::exit(1);
                });
                match out {
                    Some((mut file, path)) => {
                        file.write_all(json.as_bytes()).expect("write BENCH_fuzz.json");
                        eprintln!("[opec-eval] wrote {path}");
                    }
                    None => print!("{json}"),
                }
                return;
            }
            if args.trials.is_some() {
                fail("--trials only applies to --time-to-find");
            }
            let mode = fuzz::FuzzMode::from_flag(args.mode.as_deref()).unwrap_or_else(|e| fail(&e));
            let opts = fuzz::FuzzOptions {
                seeds: args.seeds.unwrap_or(256),
                backend: sel,
                corpus: args.corpus.clone(),
                mode,
                round: fuzz::DEFAULT_ROUND,
            };
            let engine = EngineOpts::from_args(&args);
            eprintln!(
                "[opec-eval] coverage-guided fuzz: {} jobs on backend {}, mode {}{}...",
                opts.seeds,
                sel.name(),
                mode.name(),
                match &opts.corpus {
                    Some(d) => format!(", corpus {d}"),
                    None => ", in-memory corpus".to_string(),
                }
            );
            let (rep, campaign) =
                fuzz::run_fuzz_campaign(&opts, &engine).unwrap_or_else(|e| fail(&e));
            print!("{}", rep.render());
            if let Some((mut file, path)) = out {
                file.write_all(rep.to_json().as_bytes()).expect("write fuzz JSON");
                eprintln!("[opec-eval] wrote {path}");
            }
            eprintln!("[opec-eval] {}", campaign.summary());
            let failures = rep.failures();
            if !failures.is_empty() {
                eprintln!("[opec-eval] fuzz FAILURES:");
                for f in &failures {
                    eprintln!("  {f}");
                }
                std::process::exit(1);
            }
            if campaign.unknown() > 0 {
                eprintln!(
                    "[opec-eval] fuzz UNKNOWN: {} jobs without a final outcome \
                     (raise --fuel / --timeout)",
                    campaign.unknown()
                );
                std::process::exit(3);
            }
            eprintln!(
                "[opec-eval] fuzz clean: {} jobs, {} corpus entries, {} features, no divergences",
                rep.jobs, rep.entries, rep.features
            );
        }
        "fleet" => {
            no_flags(&[
                "--backend",
                "--devices",
                "--duration",
                "--mix",
                "--quantum",
                "--workers",
                "--json",
            ]);
            let backends =
                FleetBackend::list_from_flag(args.backend.as_deref()).unwrap_or_else(|e| fail(&e));
            let mix = match args.mix.as_deref() {
                Some(spec) => Mix::parse(spec).unwrap_or_else(|e| fail(&e)),
                None => Mix::default(),
            };
            let defaults = BenchConfig::default();
            let cfg = BenchConfig {
                devices: args.devices.unwrap_or(defaults.devices),
                duration: args.duration.unwrap_or(defaults.duration),
                workers: args.workers,
                quantum_fuel: args.quantum.unwrap_or(defaults.quantum_fuel),
                mix,
                backends,
            };
            let out = args.json.clone().map(|p| (create(&p), p));
            eprintln!(
                "[opec-eval] fleet benchmark: up to {} devices, ~{:.0}s budget, mix {}, \
                 backends {}...",
                cfg.devices,
                cfg.duration,
                cfg.mix.spec(),
                cfg.backends.iter().map(|b| b.name()).collect::<Vec<_>>().join("+"),
            );
            let rep = fleet_bench(&cfg).unwrap_or_else(|e| fail(&e));
            match out {
                Some((mut file, path)) => {
                    file.write_all(rep.json.as_bytes()).expect("write BENCH_fleet.json");
                    eprintln!("[opec-eval] wrote {path}");
                }
                None => print!("{}", rep.json),
            }
            if rep.sheds > 0 {
                eprintln!(
                    "[opec-eval] fleet FAILED: {} events shed during benchmark runs — \
                     the numbers are not trustworthy",
                    rep.sheds
                );
                std::process::exit(1);
            }
            if rep.min_spawn_speedup < 10.0 {
                eprintln!(
                    "[opec-eval] fleet FAILED: pooled spawn only {:.1}x faster than \
                     init-from-scratch (floor is 10x)",
                    rep.min_spawn_speedup
                );
                std::process::exit(1);
            }
            eprintln!(
                "[opec-eval] fleet clean: no sheds, pooled spawn {:.0}x faster than scratch",
                rep.min_spawn_speedup
            );
        }
        "serve" => {
            no_flags(&[
                "--backend",
                "--devices",
                "--duration",
                "--mix",
                "--quantum",
                "--workers",
                "--port",
                "--ring",
            ]);
            let backends =
                FleetBackend::list_from_flag(args.backend.as_deref()).unwrap_or_else(|e| fail(&e));
            let mix = match args.mix.as_deref() {
                Some(spec) => Mix::parse(spec).unwrap_or_else(|e| fail(&e)),
                None => Mix::default(),
            };
            let workers = resolve_workers(args.workers);
            let cfg = FleetConfig {
                devices: args.devices.unwrap_or(64),
                workers: Some(workers),
                quantum_fuel: args.quantum.unwrap_or(opec_fleet::DEFAULT_QUANTUM_FUEL),
                rounds: None,
                duration: args.duration.map(std::time::Duration::from_secs_f64),
                mix,
                backends,
                ring: args.ring,
            };
            let port = args.port.unwrap_or(9100);
            let listener = std::net::TcpListener::bind(("127.0.0.1", port))
                .unwrap_or_else(|e| fail(&format!("cannot bind 127.0.0.1:{port}: {e}")));
            let shared = Arc::new(FleetShared::new(workers));
            let state = Arc::new(ServeState::new(shared.clone()));
            eprintln!(
                "[opec-eval] serving http://127.0.0.1:{port} — GET /metrics, GET /devices, \
                 POST /firmware ({} devices, {} workers{})",
                cfg.devices,
                workers,
                match cfg.duration {
                    Some(d) => format!(", stopping after {:.0}s", d.as_secs_f64()),
                    None => ", until killed".to_string(),
                },
            );
            let server = {
                let state = state.clone();
                std::thread::spawn(move || opec_fleet::serve(listener, state))
            };
            // The fleet runs on the main thread; without --duration it
            // only returns on an error. Either way the HTTP thread is
            // told to stop before we report.
            let outcome = run_fleet(&cfg, Some(shared.clone()));
            shared.stop.store(true, Ordering::Relaxed);
            server
                .join()
                .expect("HTTP server thread")
                .unwrap_or_else(|e| fail(&format!("HTTP server: {e}")));
            let fleet = outcome.unwrap_or_else(|e| fail(&e));
            eprintln!(
                "[opec-eval] fleet drained: {} devices, {} steps ({:.0} steps/sec), \
                 {} sheds, {} panics",
                fleet.devices.len(),
                fleet.steps(),
                fleet.steps_per_sec(),
                fleet.sheds,
                fleet.panics.len(),
            );
            if !fleet.panics.is_empty() || fleet.sheds > 0 {
                std::process::exit(1);
            }
        }
        "report" => {
            no_flags(&["--backend", "--obs-json", "--trace", "--apps", "--ring", "--funcs"]);
            let _ = FleetBackend::from_flag(args.backend.as_deref()).unwrap_or_else(|e| fail(&e));
            // Fail on unwritable artifact paths before the runs.
            let obs_out = args.obs_json.clone().map(|p| (create(&p), p));
            let trace_out = args.trace.clone().map(|p| (create(&p), p));
            eprintln!(
                "[opec-eval] instrumented runs (OPEC all apps on {}, ACES comparison apps)...",
                match args.backend.as_deref() {
                    None => "both backends",
                    Some(b) => b,
                }
            );
            let rep = obsreport::collect(&args);
            print!("{}", obsreport::render(&rep));
            if let Some((mut file, path)) = obs_out {
                file.write_all(obsreport::to_json(&rep).as_bytes()).expect("write metrics JSON");
                eprintln!("[opec-eval] wrote {path}");
            }
            if let Some((mut file, path)) = trace_out {
                match obsreport::first_chrome_trace(&rep) {
                    Some((label, json)) => {
                        file.write_all(json.as_bytes()).expect("write chrome trace");
                        eprintln!("[opec-eval] wrote {path} ({label}; open in Perfetto)");
                    }
                    None => eprintln!("[opec-eval] no runs collected; {path} left empty"),
                }
            }
            let dropped = rep.total_dropped();
            if dropped > 0 {
                eprintln!("[opec-eval] {dropped} events shed — raise --ring");
                std::process::exit(1);
            }
            eprintln!("[opec-eval] event stream complete: no drops at the configured capacity");
        }
        other => {
            fail(&format!("unknown command {other}"));
        }
    }
}
