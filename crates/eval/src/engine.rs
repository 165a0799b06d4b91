//! Eval-side configuration for the shared campaign engine.
//!
//! Every campaign subcommand (`attack-matrix`, `check`, `bench-vm`)
//! routes its per-job VM work through [`opec_campaign::run_campaign`];
//! this module owns the translation from CLI flags to
//! [`opec_campaign::CampaignOpts`] and the per-job resource bounds
//! ([`job_budget`]) that the job closures hand to their runs.

use opec_campaign::{CampaignOpts, CampaignReport, JobCtx, DEFAULT_TIMEOUT_SECS};
use opec_obs::Obs;
use opec_oracle::RunBudget;

use crate::cli::CliArgs;
use crate::runs::FUEL;

/// Supervision knobs for one eval campaign, resolved from the CLI.
#[derive(Debug, Clone)]
pub struct EngineOpts {
    /// Guest instruction budget per job (`--fuel`).
    pub fuel: u64,
    /// Host wall-clock budget per job attempt (`--timeout`, seconds);
    /// `None` disarms the watchdog (`--timeout 0`).
    pub timeout_secs: Option<u64>,
    /// Checkpoint journal path (`--journal`); a rerun with the same
    /// path skips already-recorded jobs.
    pub journal: Option<String>,
    /// Worker-thread override (`--workers`); `None` means one per core.
    pub workers: Option<usize>,
}

impl Default for EngineOpts {
    fn default() -> EngineOpts {
        EngineOpts {
            fuel: FUEL,
            timeout_secs: Some(DEFAULT_TIMEOUT_SECS),
            journal: None,
            workers: None,
        }
    }
}

impl EngineOpts {
    /// Resolves the engine options from parsed CLI flags.
    pub fn from_args(args: &CliArgs) -> EngineOpts {
        let mut opts = EngineOpts::default();
        if let Some(fuel) = args.fuel {
            opts.fuel = fuel;
        }
        if let Some(secs) = args.timeout {
            opts.timeout_secs = if secs == 0 { None } else { Some(secs) };
        }
        opts.journal.clone_from(&args.journal);
        opts.workers = args.workers;
        opts
    }

    /// The [`CampaignOpts`] for campaign `name` under these knobs (the
    /// crash/fault-injection hooks come from the environment, via
    /// [`CampaignOpts::new`]).
    pub fn campaign_opts(&self, name: &str) -> CampaignOpts {
        let mut opts = CampaignOpts::new(name, self.fuel);
        opts.timeout_secs = self.timeout_secs;
        opts.journal.clone_from(&self.journal);
        if let Some(workers) = self.workers {
            opts.workers = workers;
        }
        opts
    }

    /// Like [`EngineOpts::campaign_opts`], but with the watchdog
    /// disarmed: lockstep campaigns time the same guest work twice, and
    /// wall-clock differs between exec modes, so a deadline there would
    /// manufacture divergence between otherwise-identical runs.
    pub fn lockstep_opts(&self, name: &str) -> CampaignOpts {
        let mut opts = self.campaign_opts(name);
        opts.timeout_secs = None;
        opts
    }
}

/// The resource bounds one job attempt must thread into its runs.
pub fn job_budget(ctx: &JobCtx) -> RunBudget {
    RunBudget { fuel: ctx.fuel, deadline: ctx.deadline }
}

/// Emits a campaign's supervision milestones into `obs` (post-run, on
/// the caller thread — `Obs` is not `Sync`) and prints the end-of-run
/// summary to stderr. Nothing about supervision is ever silent.
pub fn surface(report: &CampaignReport, obs: &Obs) {
    for event in report.events() {
        obs.emit(|| event);
    }
    eprintln!("[opec-eval] {}", report.summary());
}
