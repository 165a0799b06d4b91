//! The `fuzz` subcommand: coverage-guided fuzzing of the OPEC
//! pipeline, with a persistent minimized corpus and a time-to-find
//! benchmark.
//!
//! Every input is a structured [`FirmwareSpec`] plan — either freshly
//! generated or a stacked mutation of an earlier plan — pushed through
//! the full production pipeline (`build_module` → `compile` → image →
//! VM with the shadow oracle attached). The coverage signal is the
//! deterministic feature set [`CoverageMap`] folds from the obs event
//! stream: operation-switch edges, virtualization hit/evict/miss
//! slots, fault classes, and the oracle's probe cells. A plan that
//! contributes a feature the corpus aggregate lacks is admitted to the
//! [`Corpus`] and becomes a mutation base for later rounds.
//!
//! The campaign runs in *rounds*: each round's inputs are planned from
//! the aggregate state after the previous round, then executed as one
//! [`run_campaign`] batch — so fuel budgets, the watchdog, panic
//! containment, `--workers` sharding, and journal resume all apply
//! unchanged. Planning is deterministic from the journal-replayable
//! round results, which is what makes a killed-and-resumed fuzz run
//! aggregate to byte-identical output (and why coverage can never be
//! double-counted: the map is a feature *set*, and union is
//! idempotent).
//!
//! Two scheduling modes share the same generator and mutator catalog
//! and differ only in where mutation bases come from:
//!
//! * `guided` — bases are drawn from the minimized corpus, biased
//!   toward the most recently admitted entries (the coverage
//!   frontier);
//! * `random` — bases are drawn uniformly from *every* previously
//!   executed plan, with no coverage feedback.
//!
//! `--time-to-find` benchmarks that difference against the self-test's
//! deliberately broken MPU plan ([`break_mpu_latent`]): a bug gated on
//! a policy shape (a non-root operation with ≥ [`LATENT_MIN_WINDOWS`]
//! peripheral windows) that fresh generation can never produce, only
//! mutation chains can. `BENCH_fuzz.json` records the median jobs and
//! wall-clock to first detection per mode and backend, plus a
//! corpus-replay determinism check.

use std::path::Path;
use std::time::Instant;

use opec_campaign::json::{self, Value};
use opec_campaign::{run_campaign, CampaignOpts, CampaignReport, Job, JobOutcome};
use opec_core::SystemPolicy;
use opec_fleet::FleetBackend;
use opec_inject::SplitMix64;
use opec_obs::{OracleKind, OracleLayer};
use opec_oracle::corpus::{spec_from, spec_json};
use opec_oracle::divergence::Observed;
use opec_oracle::{
    break_mpu_latent, generate, mutate_stacked, run_opec_cov, Corpus, CoverageMap, FirmwareSpec,
    RunBudget, Verdict, LATENT_MIN_WINDOWS,
};

use crate::check::{backend_segment, gen_budget, BudgetHalt};
use crate::engine::{EngineOpts, RunLimits};

/// Default jobs per campaign round. Inputs for round *r + 1* are
/// planned from the aggregate state after round *r*, so the round size
/// trades scheduling freshness against campaign-batch overhead.
pub const DEFAULT_ROUND: u64 = 32;

/// Every `FRESH_EVERY`-th input in a round is a fresh generated plan,
/// keeping exploration alive however rich the corpus gets.
const FRESH_EVERY: u64 = 8;

/// In guided mode, this fraction denominator of mutants draws its base
/// from the whole corpus; the rest mutate the coverage frontier (the
/// most recently admitted entries).
const EXPLORE_EVERY: u64 = 8;

/// How many recently admitted entries count as the frontier.
const FRONTIER: usize = 4;

/// Stacked mutations per mutant: 1..=MAX_STACK [`opec_oracle::mutate`]
/// passes. Kept shallow on purpose: deep stacks would let a *single*
/// lottery-ticket chain brute-force structural depth in one job, which
/// rewards raw throughput; shallow stacks force depth to accumulate
/// across corpus generations, which is the signal the guided mode's
/// feedback loop provides.
const MAX_STACK: u64 = 3;

/// Divergence renderings kept per job payload (totals stay uncapped).
const DIV_CAP: usize = 3;

/// Base-selection policy (the only thing that differs between the
/// benchmark's two arms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzMode {
    /// Mutation bases come from the minimized coverage corpus,
    /// frontier-biased.
    Guided,
    /// Mutation bases come uniformly from all previously executed
    /// plans — same mutators, no coverage feedback.
    Random,
}

impl FuzzMode {
    /// The CLI / job-id name.
    pub fn name(self) -> &'static str {
        match self {
            FuzzMode::Guided => "guided",
            FuzzMode::Random => "random",
        }
    }

    /// Parses `--mode`.
    pub fn from_flag(flag: Option<&str>) -> Result<FuzzMode, String> {
        match flag {
            None | Some("guided") => Ok(FuzzMode::Guided),
            Some("random") => Ok(FuzzMode::Random),
            Some(other) => Err(format!("unknown --mode {other:?} (guided, random)")),
        }
    }
}

/// Options for [`run_fuzz_campaign`].
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Total jobs to run.
    pub seeds: u64,
    /// Protection backend.
    pub backend: FleetBackend,
    /// On-disk corpus directory; `None` keeps the corpus in memory.
    pub corpus: Option<String>,
    /// Base-selection mode.
    pub mode: FuzzMode,
    /// Jobs per round ([`DEFAULT_ROUND`]).
    pub round: u64,
}

impl Default for FuzzOptions {
    fn default() -> FuzzOptions {
        FuzzOptions {
            seeds: 256,
            backend: FleetBackend::Armv7m,
            corpus: None,
            mode: FuzzMode::Guided,
            round: DEFAULT_ROUND,
        }
    }
}

/// What a fuzz campaign produced.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Backend name.
    pub backend: &'static str,
    /// Mode name.
    pub mode: &'static str,
    /// Jobs executed or resumed.
    pub jobs: u64,
    /// Campaign rounds.
    pub rounds: u64,
    /// Corpus entries after re-minimization.
    pub entries: usize,
    /// Entries admitted by this run (not loaded from disk).
    pub new_entries: usize,
    /// Features in the aggregate coverage map.
    pub features: usize,
    /// FNV digest of the aggregate coverage map — the replay
    /// determinism witness.
    pub coverage_digest: u64,
    /// Divergent jobs, rendered (any entry here is a hard failure).
    pub divergent: Vec<String>,
    /// Run errors and panics, rendered (also hard failures).
    pub errors: Vec<String>,
    /// Where the corpus was saved, when dir-bound.
    pub saved: Option<String>,
}

impl FuzzReport {
    /// Every hard failure, rendered.
    pub fn failures(&self) -> Vec<String> {
        self.divergent.iter().chain(&self.errors).cloned().collect()
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut s = format!(
            "Coverage-guided fuzz (backend: {}, mode: {})\n====================\n",
            self.backend, self.mode
        );
        s.push_str(&format!("  jobs      {} ({} rounds)\n", self.jobs, self.rounds));
        s.push_str(&format!(
            "  corpus    {} entries ({} admitted this run), {} features, digest {:016x}\n",
            self.entries, self.new_entries, self.features, self.coverage_digest
        ));
        if let Some(dir) = &self.saved {
            s.push_str(&format!("  saved     {dir}\n"));
        }
        s.push_str(&format!(
            "  verdicts  {} divergent, {} errors\n",
            self.divergent.len(),
            self.errors.len()
        ));
        for d in &self.divergent {
            s.push_str(&format!("      {d}\n"));
        }
        for e in &self.errors {
            s.push_str(&format!("      {e}\n"));
        }
        s
    }

    /// Machine-readable artifact (the CI `fuzz.json`).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "{{\n  \"backend\": \"{}\",\n  \"mode\": \"{}\",\n  \"jobs\": {},\n  \
             \"rounds\": {},\n  \"corpus_entries\": {},\n  \"new_entries\": {},\n  \
             \"features\": {},\n  \"coverage_digest\": \"{:016x}\",\n  \"divergent\": [",
            self.backend,
            self.mode,
            self.jobs,
            self.rounds,
            self.entries,
            self.new_entries,
            self.features,
            self.coverage_digest,
        );
        for (i, d) in self.divergent.iter().enumerate() {
            write!(s, "{}\"{}\"", if i == 0 { "" } else { ", " }, json::escape(d))
                .expect("write to String");
        }
        s.push_str("],\n  \"errors\": [");
        for (i, e) in self.errors.iter().enumerate() {
            write!(s, "{}\"{}\"", if i == 0 { "" } else { ", " }, json::escape(e))
                .expect("write to String");
        }
        s.push_str(&format!("],\n  \"failures\": {}\n}}\n", self.failures().len()));
        s
    }
}

/// One planned input: the derived plan plus a self-describing repro
/// fragment (how the plan was obtained, embedded in journal records
/// and repro artifacts).
struct Planned {
    spec: FirmwareSpec,
    desc: String,
}

/// Plans one round of inputs from the aggregate state so far. Fully
/// deterministic in `(mode, salt, round, count, corpus, frontier,
/// pool)` — resuming a killed campaign replays earlier rounds from the
/// journal, rebuilds the same state, and therefore re-plans the same
/// inputs under the same job ids.
#[allow(clippy::too_many_arguments)]
fn plan_round(
    mode: FuzzMode,
    salt: u64,
    round: u64,
    count: u64,
    corpus: &Corpus,
    frontier: &[FirmwareSpec],
    pool: &[FirmwareSpec],
) -> Vec<Planned> {
    let mut rng =
        SplitMix64::new(salt ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xf00d_5eed_c0de_face);
    let mut out = Vec::with_capacity(count as usize);
    for i in 0..count {
        let have_bases = match mode {
            FuzzMode::Guided => !corpus.entries.is_empty(),
            FuzzMode::Random => !pool.is_empty(),
        };
        if !have_bases || i % FRESH_EVERY == 0 {
            let seed = salt ^ (round * DEFAULT_ROUND.max(count) + i);
            out.push(Planned {
                spec: generate(seed),
                desc: format!("{{\"kind\":\"fresh\",\"seed\":{seed}}}"),
            });
            continue;
        }
        let steps = 1 + rng.gen_range(0, MAX_STACK) as u32;
        let mseed = rng.next_u64();
        let (base, from) = match mode {
            FuzzMode::Guided => {
                if !frontier.is_empty() && rng.gen_range(0, EXPLORE_EVERY) != 0 {
                    let k = rng.gen_range(0, frontier.len() as u64) as usize;
                    (&frontier[k], format!("frontier[{k}]"))
                } else {
                    let k = rng.gen_range(0, corpus.entries.len() as u64) as usize;
                    (&corpus.entries[k].spec, corpus.entries[k].key.clone())
                }
            }
            FuzzMode::Random => {
                let k = rng.gen_range(0, pool.len() as u64) as usize;
                (&pool[k], format!("pool[{k}]"))
            }
        };
        out.push(Planned {
            spec: mutate_stacked(base, mseed, steps),
            desc: format!(
                "{{\"kind\":\"mutant\",\"base\":\"{}\",\"mseed\":{mseed},\"steps\":{steps}}}",
                json::escape(&from)
            ),
        });
    }
    out
}

/// The single-line journal payload of one fuzz job: the input
/// descriptor, the canonical plan (so aggregation never re-derives
/// it), the run's coverage features, and its verdict summary.
fn job_payload(desc: &str, spec: &FirmwareSpec, v: &Verdict, cov: &CoverageMap) -> String {
    use std::fmt::Write as _;
    let mut s = format!("{{\"desc\":{desc},\"spec\":{},\"total\":{}", spec_json(spec), {
        v.total_divergences
    });
    match &v.run_error {
        Some(e) => write!(s, ",\"run_error\":\"{}\"", json::escape(e)).expect("write to String"),
        None => s.push_str(",\"run_error\":null"),
    }
    s.push_str(",\"divergences\":[");
    for (i, d) in v.divergences.iter().take(DIV_CAP).enumerate() {
        write!(s, "{}\"{}\"", if i == 0 { "" } else { "," }, json::escape(&format!("{d}")))
            .expect("write to String");
    }
    s.push_str("],\"coverage\":[");
    for (i, f) in cov.features().enumerate() {
        write!(s, "{}{f}", if i == 0 { "" } else { "," }).expect("write to String");
    }
    s.push_str("]}");
    s
}

/// The payload of a job whose pipeline rejected the plan outright
/// (mutants must always compile — this is a hard failure, not a skip).
fn error_payload(desc: &str, spec: &FirmwareSpec, e: &str) -> String {
    format!(
        "{{\"desc\":{desc},\"spec\":{},\"total\":0,\"run_error\":\"{}\",\
         \"divergences\":[],\"coverage\":[]}}",
        spec_json(spec),
        json::escape(e)
    )
}

/// Folds one round's records (fresh or journal-resumed — same bytes
/// either way) into the aggregate state: corpus admission, the random
/// pool, the frontier, and the report's failure lists.
fn fold_round(
    rep: &CampaignReport,
    corpus: &mut Corpus,
    frontier: &mut Vec<FirmwareSpec>,
    pool: &mut Vec<FirmwareSpec>,
    report: &mut FuzzReport,
) -> Result<(), String> {
    for rec in &rep.records {
        report.jobs += 1;
        if rec.outcome == JobOutcome::Panicked {
            report.errors.push(format!("{}: {}", rec.id, rec.payload));
            continue;
        }
        let doc = json::parse(&rec.payload).map_err(|e| format!("{} payload: {e}", rec.id))?;
        let spec = spec_from(doc.get("spec").ok_or_else(|| format!("{}: no spec", rec.id))?)
            .map_err(|e| format!("{} spec: {e}", rec.id))?;
        let total = doc
            .get("total")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{}: no total", rec.id))?;
        if total > 0 {
            let first = doc
                .get("divergences")
                .and_then(Value::as_arr)
                .and_then(|a| a.first())
                .and_then(Value::as_str)
                .unwrap_or("");
            report.divergent.push(format!("{}: {total} divergences: {first}", rec.id));
        }
        if let Some(e) = doc.get("run_error").and_then(Value::as_str) {
            report.errors.push(format!("{}: run error: {e}", rec.id));
        }
        let feats = doc
            .get("coverage")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("{}: no coverage", rec.id))?
            .iter()
            .map(|f| f.as_u64().ok_or_else(|| format!("{}: bad feature", rec.id)))
            .collect::<Result<Vec<_>, _>>()?;
        let cov = CoverageMap::from_features(feats);
        if corpus.admit(spec.clone(), cov).is_some() {
            report.new_entries += 1;
            frontier.push(spec.clone());
            if frontier.len() > FRONTIER {
                frontier.remove(0);
            }
        }
        pool.push(spec);
    }
    Ok(())
}

/// Merges per-round campaign reports into one, so `main` sees a single
/// summary / unknown count spanning the whole fuzz run.
fn merge_campaigns(into: &mut Option<CampaignReport>, rep: CampaignReport) {
    match into {
        None => *into = Some(rep),
        Some(all) => {
            all.records.extend(rep.records);
            all.resumed += rep.resumed;
            all.retried += rep.retried;
            all.recovered += rep.recovered;
            all.torn_lines += rep.torn_lines;
        }
    }
}

/// Runs the fuzz campaign under the engine's supervision options.
pub fn run_fuzz_campaign(
    opts: &FuzzOptions,
    engine: &EngineOpts,
) -> Result<(FuzzReport, CampaignReport), String> {
    run_fuzz_with(opts, &engine.campaign_opts("fuzz"))
}

/// [`run_fuzz_campaign`] under explicit campaign options (the test
/// entry point: fault-injection hooks set directly, no env).
pub fn run_fuzz_with(
    opts: &FuzzOptions,
    copts: &CampaignOpts,
) -> Result<(FuzzReport, CampaignReport), String> {
    let sel = opts.backend;
    let seg = backend_segment(sel);
    let round_size = opts.round.max(1);
    let mut corpus = match &opts.corpus {
        Some(dir) => Corpus::load(Path::new(dir))?,
        None => Corpus::in_memory(),
    };
    let mut frontier: Vec<FirmwareSpec> = Vec::new();
    let mut pool: Vec<FirmwareSpec> = Vec::new();
    let mut report =
        FuzzReport { backend: sel.name(), mode: opts.mode.name(), ..FuzzReport::default() };
    let mut campaigns: Option<CampaignReport> = None;

    let mut done = 0u64;
    let mut round = 0u64;
    while done < opts.seeds {
        let n = round_size.min(opts.seeds - done);
        let planned = plan_round(opts.mode, 0, round, n, &corpus, &frontier, &pool);
        let jobs: Vec<Job<'_>> = planned
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let spec = p.spec.clone();
                let desc = p.desc.clone();
                Job::new(
                    format!("fuzz/{seg}{}/r{round}/{i}", opts.mode.name()),
                    format!(
                        "{{\"input\":{},\"backend\":\"{}\",\"mode\":\"{}\"}}",
                        desc,
                        sel.name(),
                        opts.mode.name()
                    ),
                    move |ctx| {
                        let budget = gen_budget(&RunLimits::from_ctx(ctx));
                        match run_opec_cov(&spec, None, &budget, sel.dyn_backend()) {
                            Ok((v, cov)) => BudgetHalt::from_oracle(v.halt)
                                .result(job_payload(&desc, &spec, &v, &cov)),
                            Err(e) => BudgetHalt::Ran.result(error_payload(&desc, &spec, &e)),
                        }
                    },
                )
            })
            .collect();
        let rep = run_campaign(copts, &jobs)?;
        fold_round(&rep, &mut corpus, &mut frontier, &mut pool, &mut report)?;
        merge_campaigns(&mut campaigns, rep);
        done += n;
        round += 1;
    }

    report.rounds = round;
    report.entries = corpus.entries.len();
    report.features = corpus.aggregate.len();
    report.coverage_digest = corpus.aggregate.digest();
    if opts.corpus.is_some() {
        corpus.save()?;
        report.saved.clone_from(&opts.corpus);
    }
    let campaigns = campaigns.unwrap_or(CampaignReport {
        name: copts.name.clone(),
        records: Vec::new(),
        resumed: 0,
        retried: 0,
        recovered: 0,
        torn_lines: 0,
    });
    Ok((report, campaigns))
}

// ---------------------------------------------------------------------
// Time-to-find benchmark (`fuzz --time-to-find`).
// ---------------------------------------------------------------------

/// Options for [`bench_time_to_find`].
#[derive(Debug, Clone, Copy)]
pub struct BenchOptions {
    /// Trials per (backend, mode) cell; the JSON reports medians.
    pub trials: u64,
    /// Job budget per trial; a trial that never detects the planted
    /// bug is censored at this budget.
    pub budget: u64,
}

impl Default for BenchOptions {
    fn default() -> BenchOptions {
        BenchOptions { trials: 5, budget: 8192 }
    }
}

/// The detection signature of the planted broken-MPU bug: the shadow
/// oracle's probe sweep reports a writable flash base the matrix
/// denies. Shared (by construction) with the `oracle_checks`
/// self-test, so the benchmark and the test agree on what "found"
/// means.
fn found_broken_mpu(v: &Verdict, flash_base: u32) -> bool {
    v.divergences.iter().any(|d| {
        d.kind == OracleKind::Escape
            && d.layer == OracleLayer::Mpu
            && d.observed == Observed::Probe
            && d.addr == flash_base
    })
}

/// One trial outcome.
struct Trial {
    /// Jobs executed until first detection; `None` if censored at the
    /// budget.
    jobs: Option<u64>,
    /// Wall-clock milliseconds until detection (or until the budget).
    ms: u64,
    /// The trial's final corpus (guided trials feed the replay check).
    corpus: Corpus,
}

/// Runs one in-process time-to-find trial: the same round planner as
/// the campaign path, sequential (wall-clock stays honest), with the
/// latent broken-MPU tamper applied to every run.
fn trial(mode: FuzzMode, sel: FleetBackend, opts: &BenchOptions, salt: u64) -> Trial {
    let start = Instant::now();
    let tamper = |p: &mut SystemPolicy| break_mpu_latent(p, LATENT_MIN_WINDOWS);
    let mut corpus = Corpus::in_memory();
    let mut frontier: Vec<FirmwareSpec> = Vec::new();
    let mut pool: Vec<FirmwareSpec> = Vec::new();
    let mut executed = 0u64;
    let mut round = 0u64;
    while executed < opts.budget {
        let n = DEFAULT_ROUND.min(opts.budget - executed);
        let planned = plan_round(mode, salt, round, n, &corpus, &frontier, &pool);
        for p in planned {
            executed += 1;
            let flash_base = p.spec.board().flash.base;
            let Ok((v, cov)) =
                run_opec_cov(&p.spec, Some(&tamper), &RunBudget::default(), sel.dyn_backend())
            else {
                continue;
            };
            if found_broken_mpu(&v, flash_base) {
                return Trial {
                    jobs: Some(executed),
                    ms: start.elapsed().as_millis() as u64,
                    corpus,
                };
            }
            if corpus.admit(p.spec.clone(), cov).is_some() {
                frontier.push(p.spec.clone());
                if frontier.len() > FRONTIER {
                    frontier.remove(0);
                }
            }
            pool.push(p.spec);
        }
        round += 1;
    }
    Trial { jobs: None, ms: start.elapsed().as_millis() as u64, corpus }
}

/// The median of `xs` (censored values already substituted).
fn median(xs: &mut [u64]) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Replays every corpus entry through the production pipeline and
/// folds the coverage into one aggregate digest. Two invocations over
/// the same corpus must agree bit-for-bit — the determinism the corpus
/// format (and resume) rests on.
pub fn replay_digest(corpus: &Corpus, sel: FleetBackend) -> Result<u64, String> {
    let mut agg = CoverageMap::new();
    for e in &corpus.entries {
        let (_, cov) = run_opec_cov(&e.spec, None, &RunBudget::default(), sel.dyn_backend())?;
        agg.merge(&cov);
    }
    Ok(agg.digest())
}

/// One (backend, mode) cell of the benchmark.
struct Cell {
    found: u64,
    jobs: Vec<Option<u64>>,
    ms: Vec<u64>,
    median_jobs: u64,
    median_ms: u64,
}

fn bench_cell(mode: FuzzMode, sel: FleetBackend, opts: &BenchOptions) -> (Cell, Option<Corpus>) {
    let mut jobs = Vec::new();
    let mut ms = Vec::new();
    let mut last_corpus = None;
    for t in 0..opts.trials {
        let r = trial(mode, sel, opts, (t + 1).wrapping_mul(0x5851_f42d_4c95_7f2d));
        eprintln!(
            "[opec-eval]   {} / {}: trial {t}: {}",
            sel.name(),
            mode.name(),
            match r.jobs {
                Some(j) => format!("found at job {j} ({} ms)", r.ms),
                None => format!("censored at {} jobs ({} ms)", opts.budget, r.ms),
            }
        );
        jobs.push(r.jobs);
        ms.push(r.ms);
        last_corpus = Some(r.corpus);
    }
    let found = jobs.iter().filter(|j| j.is_some()).count() as u64;
    let mut censored_jobs: Vec<u64> = jobs.iter().map(|j| j.unwrap_or(opts.budget)).collect();
    let median_jobs = median(&mut censored_jobs);
    let mut ms_sorted = ms.clone();
    let median_ms = median(&mut ms_sorted);
    (Cell { found, jobs, ms, median_jobs, median_ms }, last_corpus)
}

fn cell_json(c: &Cell) -> String {
    let jobs = c
        .jobs
        .iter()
        .map(|j| match j {
            Some(v) => v.to_string(),
            None => "null".to_string(),
        })
        .collect::<Vec<_>>()
        .join(", ");
    let ms = c.ms.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
    format!(
        "{{\"found\": {}, \"median_jobs\": {}, \"median_ms\": {}, \"jobs\": [{jobs}], \
         \"ms\": [{ms}]}}",
        c.found, c.median_jobs, c.median_ms
    )
}

/// Runs the full time-to-find benchmark (both backends × both modes ×
/// `opts.trials` trials) plus the corpus-replay determinism check, and
/// renders `BENCH_fuzz.json`.
pub fn bench_time_to_find(opts: &BenchOptions) -> Result<String, String> {
    let mut out = format!(
        "{{\n  \"schema\": \"opec-bench-fuzz-v1\",\n  \"trials\": {},\n  \
         \"budget_jobs\": {},\n  \"round\": {},\n  \"latent_min_windows\": {},\n  \
         \"backends\": [\n",
        opts.trials, opts.budget, DEFAULT_ROUND, LATENT_MIN_WINDOWS
    );
    let mut replay: Option<(FleetBackend, Corpus)> = None;
    let backends = FleetBackend::ALL;
    for (bi, &sel) in backends.iter().enumerate() {
        eprintln!("[opec-eval] time-to-find on {} ({} trials per mode)...", sel.name(), {
            opts.trials
        });
        let (guided, guided_corpus) = bench_cell(FuzzMode::Guided, sel, opts);
        let (random, _) = bench_cell(FuzzMode::Random, sel, opts);
        // Advantage: random-only median jobs over guided median jobs.
        // Censored random trials count the full budget, so the true
        // ratio is at least this.
        let advantage = random.median_jobs as f64 / guided.median_jobs.max(1) as f64;
        out.push_str(&format!(
            "    {{\"backend\": \"{}\",\n     \"guided\": {},\n     \"random\": {},\n     \
             \"advantage_jobs\": {:.2},\n     \"random_censored\": {}}}{}\n",
            sel.name(),
            cell_json(&guided),
            cell_json(&random),
            advantage,
            opts.trials - random.found,
            if bi + 1 < backends.len() { "," } else { "" }
        ));
        if replay.is_none() {
            if let Some(c) = guided_corpus {
                if !c.entries.is_empty() {
                    replay = Some((sel, c));
                }
            }
        }
    }
    out.push_str("  ],\n");
    let (sel, corpus) = replay.ok_or("no guided trial produced a corpus to replay")?;
    eprintln!(
        "[opec-eval] replaying a {}-entry guided corpus twice on {}...",
        corpus.entries.len(),
        sel.name()
    );
    let a = replay_digest(&corpus, sel)?;
    let b = replay_digest(&corpus, sel)?;
    out.push_str(&format!(
        "  \"replay\": {{\"backend\": \"{}\", \"entries\": {}, \"digest_a\": \"{a:016x}\", \
         \"digest_b\": \"{b:016x}\", \"deterministic\": {}}}\n}}\n",
        sel.name(),
        corpus.entries.len(),
        a == b
    ));
    if a != b {
        return Err("corpus replay was non-deterministic".to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use opec_campaign::CampaignOpts;

    fn copts() -> CampaignOpts {
        CampaignOpts {
            name: "fuzz".to_string(),
            fuel: crate::runs::FUEL,
            timeout_secs: None,
            workers: 2,
            journal: None,
            repro_dir: std::env::temp_dir()
                .join("opec-fuzz-tests/repros")
                .to_string_lossy()
                .into_owned(),
            kill_after: None,
            panic_inject: None,
        }
    }

    #[test]
    fn small_guided_campaign_is_clean_and_grows_a_corpus() {
        let opts = FuzzOptions { seeds: 10, round: 5, ..FuzzOptions::default() };
        let (report, campaign) = run_fuzz_with(&opts, &copts()).expect("fuzz");
        assert_eq!(report.jobs, 10);
        assert_eq!(report.rounds, 2);
        assert!(report.failures().is_empty(), "{:?}", report.failures());
        assert!(report.entries > 0, "nothing was admitted");
        assert!(report.features > 0);
        assert_eq!(campaign.unknown(), 0);
    }

    #[test]
    fn planning_is_deterministic() {
        let corpus = Corpus::in_memory();
        let a = plan_round(FuzzMode::Guided, 7, 3, 6, &corpus, &[], &[]);
        let b = plan_round(FuzzMode::Guided, 7, 3, 6, &corpus, &[], &[]);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.spec, y.spec);
            assert_eq!(x.desc, y.desc);
        }
    }

    #[test]
    fn latent_tamper_is_invisible_to_fresh_generation() {
        // The benchmark's planted bug must be unreachable without
        // mutation: fresh plans stay divergence-free under the latent
        // tamper (the non-latent break_mpu self-test, by contrast,
        // fires on every fresh plan).
        let tamper = |p: &mut SystemPolicy| break_mpu_latent(p, LATENT_MIN_WINDOWS);
        for seed in 0..6 {
            let spec = generate(seed);
            let (v, _) = run_opec_cov(
                &spec,
                Some(&tamper),
                &RunBudget::default(),
                FleetBackend::Armv7m.dyn_backend(),
            )
            .expect("pipeline");
            assert!(v.clean(), "seed {seed} diverged under the latent tamper");
        }
    }
}
