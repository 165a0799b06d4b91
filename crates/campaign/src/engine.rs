//! The supervised job queue.
//!
//! [`run_campaign`] takes a list of [`Job`]s — deterministic id plus a
//! closure that builds, runs and tears down its own VM — and executes
//! them across a worker pool with three layers of containment:
//!
//! 1. **Fuel**: [`JobCtx::fuel`] is the deterministic guest
//!    instruction budget the closure must pass to `Vm::run`/`resume`.
//! 2. **Watchdog**: [`JobCtx::deadline`] is the host wall-clock bound
//!    the closure must arm via `Vm::set_deadline`.
//! 3. **Panic containment**: the closure runs under `catch_unwind`, so
//!    a host-side bug in one job becomes a [`JobOutcome::Panicked`]
//!    record instead of tearing down the campaign.
//!
//! Finished jobs append to the crash-safe [`Journal`]; a rerun with the
//! same journal path skips journaled jobs and aggregates from their
//! stored payloads, so a killed campaign resumes to byte-identical
//! output. Failed jobs (panic / watchdog) get exactly one retry with a
//! fresh context — success on retry marks the failure transient; the
//! same failure twice is deterministic and emits a repro artifact.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use opec_obs::{Event, JobEventKind};

use crate::journal::{valid_id, Journal, Record};
use crate::json::{self, DecodeError, FromJson, Layout, ToJson, Value, Writer};

/// Default per-job wall-clock budget. Generous: the watchdog exists
/// for pathological host-cost-per-instruction runs, not as a pacing
/// mechanism — fuel is the primary (and deterministic) bound.
pub const DEFAULT_TIMEOUT_SECS: u64 = 120;

/// Campaign-wide configuration.
#[derive(Debug, Clone)]
pub struct CampaignOpts {
    /// Campaign name; written into the journal header and repro
    /// artifacts.
    pub name: String,
    /// Guest instruction budget per job.
    pub fuel: u64,
    /// Host wall-clock budget per job attempt; `None` disarms the
    /// watchdog (lockstep campaigns do this — wall-clock differs
    /// between exec modes, so a deadline there would manufacture
    /// divergence).
    pub timeout_secs: Option<u64>,
    /// Worker threads; 0 means one per available core.
    pub workers: usize,
    /// Journal path; `None` runs without checkpointing.
    pub journal: Option<String>,
    /// Directory for repro artifacts of deterministic failures.
    pub repro_dir: String,
    /// Crash-injection hook: abort the process after this many
    /// journaled records (see [`Journal::open`]).
    pub kill_after: Option<usize>,
    /// Fault-injection hook: any job whose id contains this substring
    /// panics inside the containment boundary, on every attempt.
    pub panic_inject: Option<String>,
}

impl CampaignOpts {
    /// Options with defaults: no journal, watchdog at
    /// [`DEFAULT_TIMEOUT_SECS`], one worker per core, and the test
    /// hooks read from `OPEC_CAMPAIGN_KILL_AFTER` /
    /// `OPEC_CAMPAIGN_PANIC_JOB` (tests set the fields directly
    /// instead, avoiding env races under the parallel test harness).
    pub fn new(name: &str, fuel: u64) -> CampaignOpts {
        CampaignOpts {
            name: name.to_string(),
            fuel,
            timeout_secs: Some(DEFAULT_TIMEOUT_SECS),
            workers: 0,
            journal: None,
            repro_dir: "repros".to_string(),
            kill_after: std::env::var("OPEC_CAMPAIGN_KILL_AFTER").ok().and_then(|v| v.parse().ok()),
            panic_inject: std::env::var("OPEC_CAMPAIGN_PANIC_JOB").ok(),
        }
    }
}

/// Per-attempt execution context handed to the job closure.
#[derive(Debug, Clone, Copy)]
pub struct JobCtx {
    /// Guest instruction budget to pass to `Vm::run`/`resume`.
    pub fuel: u64,
    /// Wall-clock deadline to arm via `Vm::set_deadline`. Fresh per
    /// attempt, so a retry gets a full budget.
    pub deadline: Option<Instant>,
    /// 1 on the first try, 2 on the retry.
    pub attempt: u8,
}

/// What a job closure reports back. Every variant carries the job's
/// single-line JSON payload: even a fuel-exhausted or timed-out job
/// must describe itself, because aggregates are rendered exclusively
/// from payloads (fresh or journaled — same bytes either way).
#[derive(Debug, Clone)]
pub enum JobResult {
    /// The job's VM work ran to completion.
    Done(String),
    /// The guest exhausted [`JobCtx::fuel`]. Deterministic — never
    /// retried.
    FuelExhausted(String),
    /// The watchdog deadline passed. Possibly transient host load —
    /// retried once.
    TimedOut(String),
}

/// Final classification of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Ran to completion.
    Completed,
    /// Guest fuel budget exhausted.
    FuelExhausted,
    /// Wall-clock watchdog fired (on every attempt).
    TimedOut,
    /// The closure panicked (on every attempt, or the retry failed
    /// differently).
    Panicked,
}

impl JobOutcome {
    /// The journal tag.
    pub fn tag(self) -> &'static str {
        match self {
            JobOutcome::Completed => "completed",
            JobOutcome::FuelExhausted => "fuel_exhausted",
            JobOutcome::TimedOut => "timed_out",
            JobOutcome::Panicked => "panicked",
        }
    }

    fn from_tag(tag: &str) -> Option<JobOutcome> {
        Some(match tag {
            "completed" => JobOutcome::Completed,
            "fuel_exhausted" => JobOutcome::FuelExhausted,
            "timed_out" => JobOutcome::TimedOut,
            "panicked" => JobOutcome::Panicked,
            _ => return None,
        })
    }

    fn event_kind(self) -> JobEventKind {
        match self {
            JobOutcome::Completed => JobEventKind::Completed,
            JobOutcome::FuelExhausted => JobEventKind::FuelExhausted,
            JobOutcome::TimedOut => JobEventKind::TimedOut,
            JobOutcome::Panicked => JobEventKind::Panicked,
        }
    }
}

/// One unit of campaign work.
pub struct Job<'a> {
    id: String,
    repro: String,
    run: Box<dyn Fn(&JobCtx) -> JobResult + Send + Sync + 'a>,
}

impl<'a> Job<'a> {
    /// A job. `id` must be unique within the campaign, deterministic
    /// across runs (it keys the journal), and drawn from the journal
    /// id charset (`[A-Za-z0-9._:/-]`). `repro` is a self-contained
    /// JSON fragment describing how to reproduce the job (seed,
    /// config, app, snapshot lineage); it is embedded verbatim in the
    /// repro artifact of a deterministic failure.
    pub fn new(
        id: impl Into<String>,
        repro: String,
        run: impl Fn(&JobCtx) -> JobResult + Send + Sync + 'a,
    ) -> Job<'a> {
        Job { id: id.into(), repro, run: Box::new(run) }
    }

    /// The job's id.
    pub fn id(&self) -> &str {
        &self.id
    }
}

/// The record of one job in the final report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRecord {
    /// The job id.
    pub id: String,
    /// Final classification.
    pub outcome: JobOutcome,
    /// Attempts taken (1, or 2 after a retry).
    pub attempts: u32,
    /// Whether this record was read back from the journal rather than
    /// run in this process.
    pub resumed: bool,
    /// Repro artifact path, for deterministic failures.
    pub repro: Option<String>,
    /// The job's payload: its own JSON or, for panics, a
    /// `{"panic":"..."}` object carrying the payload message.
    pub payload: String,
}

/// The end-of-run report.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// One record per job, in job-definition order — independent of
    /// worker count, scheduling, and kill point.
    pub records: Vec<JobRecord>,
    /// Jobs skipped because the journal already recorded them.
    pub resumed: usize,
    /// Retry attempts issued.
    pub retried: usize,
    /// Retries that then completed (transient failures).
    pub recovered: usize,
    /// Torn journal lines truncated on open.
    pub torn_lines: usize,
}

impl CampaignReport {
    /// Jobs that did not complete — the "unknown outcome" count that
    /// drives the distinct process exit code.
    pub fn unknown(&self) -> usize {
        self.records.iter().filter(|r| r.outcome != JobOutcome::Completed).count()
    }

    /// The supervision milestones as obs events, in job-definition
    /// order (deterministic; emit them into a sink after the run).
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for rec in &self.records {
            if rec.resumed {
                out.push(Event::Job { kind: JobEventKind::Resumed, attempt: rec.attempts as u8 });
                continue;
            }
            if rec.attempts > 1 {
                out.push(Event::Job { kind: JobEventKind::Retried, attempt: 2 });
            }
            out.push(Event::Job { kind: rec.outcome.event_kind(), attempt: rec.attempts as u8 });
        }
        out
    }

    /// One-line human summary for the end of the run. Every
    /// non-completed outcome and every retry is named here — nothing
    /// is shed silently.
    pub fn summary(&self) -> String {
        let count = |o: JobOutcome| self.records.iter().filter(|r| r.outcome == o).count();
        let mut s = format!(
            "campaign {}: {} jobs ({} resumed), {} completed",
            self.name,
            self.records.len(),
            self.resumed,
            count(JobOutcome::Completed),
        );
        for (outcome, label) in [
            (JobOutcome::FuelExhausted, "fuel-exhausted"),
            (JobOutcome::TimedOut, "timed-out"),
            (JobOutcome::Panicked, "panicked"),
        ] {
            let n = count(outcome);
            if n > 0 {
                s.push_str(&format!(", {n} {label}"));
            }
        }
        if self.retried > 0 {
            s.push_str(&format!("; {} retried ({} recovered)", self.retried, self.recovered));
        }
        if self.torn_lines > 0 {
            s.push_str(&format!("; {} torn journal line(s) truncated", self.torn_lines));
        }
        s
    }
}

/// The text of a caught panic payload (`&str` or `String`).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The payload the engine records for a job that panicked, carrying
/// the panic message: `{"panic":"<message>"}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicPayload(pub String);

impl ToJson for PanicPayload {
    fn write_json(&self, w: &mut Writer) {
        w.obj().field("panic", &self.0).end();
    }
}

impl FromJson for PanicPayload {
    fn from_json(v: &Value) -> Result<PanicPayload, DecodeError> {
        Ok(PanicPayload(v.field("panic")?))
    }
}

/// The repro artifact of a deterministic failure: the campaign, the
/// job, its budget and outcome, and the job's own repro fragment.
struct ReproArtifact<'a> {
    campaign: &'a str,
    job: &'a Job<'a>,
    fuel: u64,
    out: &'a AttemptOutcome,
}

impl ToJson for ReproArtifact<'_> {
    fn write_json(&self, w: &mut Writer) {
        w.obj().field("campaign", self.campaign).field("job", &self.job.id);
        w.field("fuel", &self.fuel).field("outcome", self.out.outcome.tag());
        w.field("detail", &self.out.detail).key("repro");
        w.raw(if self.job.repro.is_empty() { "null" } else { &self.job.repro }).end();
    }
}

struct AttemptOutcome {
    outcome: JobOutcome,
    payload: String,
    detail: String,
}

fn run_attempt(job: &Job<'_>, ctx: &JobCtx, panic_inject: Option<&str>) -> AttemptOutcome {
    // Soundness of `AssertUnwindSafe`: the closure borrows only the
    // campaign's immutable job inputs (app lists, seeds, configs) and
    // builds every piece of mutable state — VM, machine, snapshots,
    // sinks — fresh inside this call, dropping them on unwind. No
    // mutable state survives the boundary to be observed torn, and a
    // retry gets a brand-new context, so a panic cannot poison later
    // attempts or other jobs.
    let caught = catch_unwind(AssertUnwindSafe(|| {
        if let Some(needle) = panic_inject {
            if job.id.contains(needle) {
                panic!("injected campaign fault in {}", job.id);
            }
        }
        (job.run)(ctx)
    }));
    match caught {
        Ok(JobResult::Done(payload)) => {
            AttemptOutcome { outcome: JobOutcome::Completed, payload, detail: String::new() }
        }
        Ok(JobResult::FuelExhausted(payload)) => AttemptOutcome {
            outcome: JobOutcome::FuelExhausted,
            payload,
            detail: "guest instruction budget exhausted".to_string(),
        },
        Ok(JobResult::TimedOut(payload)) => AttemptOutcome {
            outcome: JobOutcome::TimedOut,
            payload,
            detail: "wall-clock deadline exceeded".to_string(),
        },
        Err(panic) => {
            let msg = panic_message(panic.as_ref());
            AttemptOutcome {
                outcome: JobOutcome::Panicked,
                payload: json::to_string(&PanicPayload(msg.clone()), Layout::Compact),
                detail: msg,
            }
        }
    }
}

/// Writes the self-contained repro artifact for a deterministic
/// failure; returns its path. Best-effort: an unwritable repro dir
/// downgrades to no artifact rather than failing the job record.
fn write_repro(
    opts_name: &str,
    dir: &str,
    job: &Job<'_>,
    fuel: u64,
    out: &AttemptOutcome,
) -> Option<String> {
    std::fs::create_dir_all(dir).ok()?;
    let path = format!("{}/{}.json", dir, job.id.replace(['/', ':'], "-"));
    let body =
        json::to_string(&ReproArtifact { campaign: opts_name, job, fuel, out }, Layout::Compact);
    std::fs::write(&path, body + "\n").ok()?;
    Some(path)
}

/// Runs `jobs` under supervision. Returns a report whose `records` are
/// in job-definition order regardless of scheduling; aggregate output
/// built from those records is therefore byte-identical across worker
/// counts, kill points, and resumes.
pub fn run_campaign(opts: &CampaignOpts, jobs: &[Job<'_>]) -> Result<CampaignReport, String> {
    for (i, job) in jobs.iter().enumerate() {
        if !valid_id(&job.id) {
            return Err(format!("job {i} has invalid id {:?}", job.id));
        }
        if jobs[..i].iter().any(|other| other.id == job.id) {
            return Err(format!("duplicate job id {:?}", job.id));
        }
    }

    let mut journal = None;
    let mut loaded_records: Vec<Record> = Vec::new();
    let mut torn_lines = 0;
    if let Some(path) = &opts.journal {
        let (j, loaded) = Journal::open(path, &opts.name, opts.fuel, opts.kill_after)?;
        journal = Some(j);
        loaded_records = loaded.records;
        torn_lines = loaded.torn_lines;
    }

    let mut slots: Vec<Mutex<Option<JobRecord>>> = Vec::with_capacity(jobs.len());
    for _ in jobs {
        slots.push(Mutex::new(None));
    }
    let mut resumed = 0;
    for rec in loaded_records {
        let Some(idx) = jobs.iter().position(|j| j.id == rec.id) else {
            // A journaled job the current invocation does not define
            // (e.g. resumed with fewer seeds): ignore the record; the
            // aggregate is defined by this run's job list.
            continue;
        };
        let Some(outcome) = JobOutcome::from_tag(&rec.outcome) else {
            return Err(format!("journal records unknown outcome {:?}", rec.outcome));
        };
        let slot = slots[idx].get_mut().unwrap();
        if slot.is_some() {
            return Err(format!("journal records job {:?} twice", rec.id));
        }
        *slot = Some(JobRecord {
            id: rec.id,
            outcome,
            attempts: rec.attempts,
            resumed: true,
            repro: rec.repro,
            payload: rec.payload,
        });
        resumed += 1;
    }

    let pending: Vec<usize> =
        (0..jobs.len()).filter(|&i| slots[i].get_mut().unwrap().is_none()).collect();
    let workers = match opts.workers {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    }
    .min(pending.len().max(1));

    // Scalars only cross into the worker threads; anything obs-flavoured
    // stays on the caller thread (Obs is not Sync) and is emitted after
    // the pool joins, via CampaignReport::events().
    let fuel = opts.fuel;
    let timeout = opts.timeout_secs;
    let panic_inject = opts.panic_inject.as_deref();
    let repro_dir = opts.repro_dir.as_str();
    let name = opts.name.as_str();
    let journal = journal.as_ref();

    let retried = AtomicUsize::new(0);
    let recovered = AtomicUsize::new(0);
    let cursor = AtomicUsize::new(0);
    let failure: Mutex<Option<String>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let at = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&idx) = pending.get(at) else { break };
                let job = &jobs[idx];

                let mut attempts = 1u32;
                let mut out = run_attempt(
                    job,
                    &JobCtx {
                        fuel,
                        deadline: timeout.map(|s| Instant::now() + Duration::from_secs(s)),
                        attempt: 1,
                    },
                    panic_inject,
                );
                // One-shot retry for host-side failures. Fuel
                // exhaustion is a property of the guest alone —
                // deterministic by construction — so retrying it
                // would only double the cost of the same answer.
                if matches!(out.outcome, JobOutcome::Panicked | JobOutcome::TimedOut) {
                    retried.fetch_add(1, Ordering::Relaxed);
                    attempts = 2;
                    out = run_attempt(
                        job,
                        &JobCtx {
                            fuel,
                            deadline: timeout.map(|s| Instant::now() + Duration::from_secs(s)),
                            attempt: 2,
                        },
                        panic_inject,
                    );
                    if out.outcome == JobOutcome::Completed {
                        recovered.fetch_add(1, Ordering::Relaxed);
                    }
                }
                let repro = if matches!(out.outcome, JobOutcome::Panicked | JobOutcome::TimedOut) {
                    write_repro(name, repro_dir, job, fuel, &out)
                } else {
                    None
                };

                let record = JobRecord {
                    id: job.id.clone(),
                    outcome: out.outcome,
                    attempts,
                    resumed: false,
                    repro,
                    payload: out.payload,
                };
                if let Some(journal) = journal {
                    if let Err(e) = journal.append(&Record {
                        id: record.id.clone(),
                        outcome: record.outcome.tag().to_string(),
                        attempts: record.attempts,
                        repro: record.repro.clone(),
                        payload: record.payload.clone(),
                    }) {
                        *failure.lock().unwrap() = Some(e);
                        break;
                    }
                }
                *slots[idx].lock().unwrap() = Some(record);
            });
        }
    });

    if let Some(e) = failure.into_inner().unwrap() {
        return Err(e);
    }
    if let Some(journal) = journal {
        journal.finish()?;
    }

    let mut records = Vec::with_capacity(jobs.len());
    for (i, slot) in slots.into_iter().enumerate() {
        match slot.into_inner().unwrap() {
            Some(rec) => records.push(rec),
            // Unreachable by construction (every pending index is
            // visited); guarded so a future scheduling bug surfaces as
            // an error, never as a silently shed job.
            None => return Err(format!("job {:?} was shed", jobs[i].id)),
        }
    }

    Ok(CampaignReport {
        name: opts.name.clone(),
        records,
        resumed,
        retried: retried.into_inner(),
        recovered: recovered.into_inner(),
        torn_lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicU32;

    proptest! {
        #[test]
        fn panic_payload_round_trips(message in any::<String>()) {
            let payload = json::to_string(&PanicPayload(message.clone()), Layout::Compact);
            prop_assert_eq!(json::decode(&payload), Ok(PanicPayload(message)));
        }

        #[test]
        fn repro_artifact_parses_back(campaign in any::<String>(), detail in any::<String>(), fuel in any::<u64>()) {
            let job = Job::new("a/b", "{\"seed\":3}".to_string(), |_| JobResult::Done(String::new()));
            let out = AttemptOutcome { outcome: JobOutcome::Panicked, payload: String::new(), detail: detail.clone() };
            let text = json::to_string(&ReproArtifact { campaign: &campaign, job: &job, fuel, out: &out }, Layout::Compact);
            let v = json::parse(&text).unwrap();
            prop_assert_eq!(v.field::<String>("campaign"), Ok(campaign));
            prop_assert_eq!(v.field::<String>("job"), Ok("a/b".to_string()));
            prop_assert_eq!(v.field::<u64>("fuel"), Ok(fuel));
            prop_assert_eq!(v.field::<String>("outcome"), Ok("panicked".to_string()));
            prop_assert_eq!(v.field::<String>("detail"), Ok(detail));
            prop_assert_eq!(v.get("repro").and_then(|r| r.get("seed")).and_then(Value::as_u64), Some(3));
        }
    }

    fn opts(name: &str) -> CampaignOpts {
        CampaignOpts {
            name: name.to_string(),
            fuel: 1000,
            timeout_secs: None,
            workers: 2,
            journal: None,
            repro_dir: std::env::temp_dir()
                .join("opec-campaign-tests/repros")
                .to_string_lossy()
                .into_owned(),
            kill_after: None,
            panic_inject: None,
        }
    }

    #[test]
    fn records_come_back_in_definition_order() {
        let jobs: Vec<Job<'_>> = (0..17)
            .map(|i| {
                Job::new(format!("job/{i}"), String::new(), move |_ctx| {
                    JobResult::Done(format!("{i}"))
                })
            })
            .collect();
        let report = run_campaign(&opts("order"), &jobs).unwrap();
        let ids: Vec<&str> = report.records.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, (0..17).map(|i| format!("job/{i}")).collect::<Vec<_>>());
        assert_eq!(report.unknown(), 0);
    }

    #[test]
    fn deterministic_panic_is_contained_retried_once_and_reported() {
        let mut o = opts("panic");
        o.panic_inject = Some("job/3".to_string());
        let jobs: Vec<Job<'_>> = (0..6)
            .map(|i| {
                Job::new(format!("job/{i}"), "{\"seed\":3}".to_string(), move |_| {
                    JobResult::Done(format!("{i}"))
                })
            })
            .collect();
        let report = run_campaign(&o, &jobs).unwrap();
        // The campaign survived and every other job completed.
        assert_eq!(report.records.len(), 6);
        let bad = &report.records[3];
        assert_eq!(bad.outcome, JobOutcome::Panicked);
        assert_eq!(bad.attempts, 2, "one retry, then classified deterministic");
        assert!(bad.payload.contains("injected campaign fault"));
        let repro = bad.repro.as_ref().expect("deterministic panic emits a repro artifact");
        let body = std::fs::read_to_string(repro).unwrap();
        assert!(body.contains("\"seed\":3"));
        assert_eq!(report.retried, 1);
        assert_eq!(report.recovered, 0);
        assert_eq!(report.unknown(), 1);
        assert!(report.summary().contains("1 panicked"));
    }

    #[test]
    fn transient_failure_recovers_on_retry() {
        let first = AtomicU32::new(0);
        let jobs = vec![Job::new("flaky", String::new(), |_| {
            if first.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("transient");
            }
            JobResult::Done("42".to_string())
        })];
        let report = run_campaign(&opts("flaky"), &jobs).unwrap();
        assert_eq!(report.records[0].outcome, JobOutcome::Completed);
        assert_eq!(report.records[0].attempts, 2);
        assert_eq!(report.recovered, 1);
        assert_eq!(report.unknown(), 0);
    }

    #[test]
    fn fuel_exhaustion_is_never_retried() {
        let calls = AtomicU32::new(0);
        let jobs = vec![Job::new("hot", String::new(), |_| {
            calls.fetch_add(1, Ordering::Relaxed);
            JobResult::FuelExhausted("{}".to_string())
        })];
        let report = run_campaign(&opts("fuel"), &jobs).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(report.records[0].outcome, JobOutcome::FuelExhausted);
        assert_eq!(report.retried, 0);
    }

    #[test]
    fn resume_skips_journaled_jobs_and_keeps_payload_bytes() {
        let path = std::env::temp_dir()
            .join("opec-campaign-tests/resume.jsonl")
            .to_string_lossy()
            .into_owned();
        let _ = std::fs::remove_file(&path);
        let mut o = opts("resume");
        o.journal = Some(path.clone());

        let ran = AtomicU32::new(0);
        let make = |upto: u32| -> Vec<Job<'_>> {
            (0..4)
                .map(|i| {
                    let ran = &ran;
                    Job::new(format!("j/{i}"), String::new(), move |_| {
                        ran.fetch_add(1, Ordering::Relaxed);
                        assert!(i < upto, "job {i} should have been resumed, not re-run");
                        JobResult::Done(format!("{{\"value\": {i}}}"))
                    })
                })
                .collect()
        };

        // First run completes everything.
        let full = run_campaign(&o, &make(4)).unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 4);

        // Second run with the same journal must not re-run anything.
        let resumed = run_campaign(&o, &make(0)).unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 4);
        assert_eq!(resumed.resumed, 4);
        for (a, b) in full.records.iter().zip(&resumed.records) {
            assert_eq!(a.payload, b.payload);
            assert_eq!(a.outcome, b.outcome);
        }
    }

    #[test]
    fn duplicate_and_invalid_ids_are_rejected() {
        let dup = vec![
            Job::new("same", String::new(), |_| JobResult::Done("1".into())),
            Job::new("same", String::new(), |_| JobResult::Done("2".into())),
        ];
        assert!(run_campaign(&opts("dup"), &dup).is_err());
        let bad = vec![Job::new("spa ce", String::new(), |_| JobResult::Done("1".into()))];
        assert!(run_campaign(&opts("bad"), &bad).is_err());
    }

    #[test]
    fn events_follow_definition_order_with_retry_milestones() {
        let mut o = opts("events");
        o.panic_inject = Some("b".to_string());
        let jobs = vec![
            Job::new("a", String::new(), |_| JobResult::Done("1".into())),
            Job::new("b", String::new(), |_| JobResult::Done("2".into())),
        ];
        let report = run_campaign(&o, &jobs).unwrap();
        let events = report.events();
        use opec_obs::JobEventKind as K;
        assert_eq!(
            events,
            vec![
                Event::Job { kind: K::Completed, attempt: 1 },
                Event::Job { kind: K::Retried, attempt: 2 },
                Event::Job { kind: K::Panicked, attempt: 2 },
            ]
        );
    }
}
