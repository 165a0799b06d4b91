//! Memoized evaluation pipeline.
//!
//! Every run the evaluation performs is a pure function of
//! `(application, configuration)`: the module is rebuilt from scratch,
//! the machine is freshly scripted, and the simulated clock is
//! deterministic. [`EvalCache`] exploits that by memoizing at exactly
//! that granularity — one entry per baseline run, per OPEC run, and
//! per `(app, ACES strategy)` run — so the seven-app pass and the
//! five-app comparison pass *share* their baseline and OPEC runs
//! instead of redoing them, and every renderer (tables, figures, CSV
//! export, benches) is served from a single set of runs.
//!
//! Determinism: cache hits return the same [`Arc`]-shared artifact a
//! miss would have computed, threads only decide *when* a unit is
//! computed (never *what*), and assembly joins in input order — so
//! output is byte-identical to the sequential, uncached pipeline.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;

use opec_aces::AcesStrategy;
use opec_apps::App;

use crate::runs::{self, AcesRun, AppEval, OpecRun, ACES_STRATEGIES};

/// Memoizes evaluation runs per `(app, configuration)`.
///
/// Concurrent misses on the same key may compute the unit twice; both
/// computations produce identical results (runs are deterministic), so
/// whichever insert lands last is indistinguishable from the other.
#[derive(Default)]
pub struct EvalCache {
    baseline: Mutex<HashMap<&'static str, (u64, u32, u32)>>,
    opec: Mutex<HashMap<&'static str, Arc<OpecRun>>>,
    aces: Mutex<HashMap<(&'static str, AcesStrategy), Arc<AcesRun>>>,
}

fn join<T>(handle: thread::ScopedJoinHandle<'_, T>) -> T {
    handle.join().unwrap_or_else(|e| std::panic::resume_unwind(e))
}

impl EvalCache {
    /// A fresh, empty cache (benchmarks use private caches to measure
    /// cold paths).
    pub fn new() -> EvalCache {
        EvalCache::default()
    }

    /// The process-wide cache every CLI subcommand and bench harness
    /// shares.
    pub fn global() -> &'static EvalCache {
        static GLOBAL: OnceLock<EvalCache> = OnceLock::new();
        GLOBAL.get_or_init(EvalCache::default)
    }

    fn baseline(&self, app: &App) -> (u64, u32, u32) {
        if let Some(&v) = self.baseline.lock().unwrap().get(app.name) {
            return v;
        }
        let v = runs::run_baseline(app);
        self.baseline.lock().unwrap().insert(app.name, v);
        v
    }

    fn opec(&self, app: &App) -> Arc<OpecRun> {
        if let Some(v) = self.opec.lock().unwrap().get(app.name) {
            return Arc::clone(v);
        }
        let v = Arc::new(runs::run_opec(app));
        self.opec.lock().unwrap().insert(app.name, Arc::clone(&v));
        v
    }

    fn aces(&self, app: &App, strategy: AcesStrategy) -> Arc<AcesRun> {
        let key = (app.name, strategy);
        if let Some(v) = self.aces.lock().unwrap().get(&key) {
            return Arc::clone(v);
        }
        let v = Arc::new(runs::run_aces_strategy(app, strategy));
        self.aces.lock().unwrap().insert(key, Arc::clone(&v));
        v
    }

    /// [`runs::evaluate_app`] through the cache: misses run on scoped
    /// threads, hits are handed out as shared [`Arc`]s.
    pub fn evaluate_app(&self, app: &App, with_aces: bool) -> AppEval {
        thread::scope(|s| {
            let base = s.spawn(|| self.baseline(app));
            let opec = s.spawn(|| self.opec(app));
            let aces_handles: Vec<_> = if with_aces {
                ACES_STRATEGIES.iter().map(|&st| s.spawn(move || self.aces(app, st))).collect()
            } else {
                Vec::new()
            };
            let (base_cycles, base_flash, base_sram) = join(base);
            let opec = join(opec);
            let aces = aces_handles.into_iter().map(join).collect();
            AppEval {
                name: app.name,
                board: app.board,
                base_cycles,
                base_flash,
                base_sram,
                opec,
                aces,
            }
        })
    }

    /// [`runs::evaluate_many`] through the cache: one scoped thread per
    /// app, results in input order.
    pub fn evaluate_many(&self, apps: &[App], with_aces: bool) -> Vec<AppEval> {
        thread::scope(|s| {
            let handles: Vec<_> =
                apps.iter().map(|a| s.spawn(move || self.evaluate_app(a, with_aces))).collect();
            handles.into_iter().map(join).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_shares_runs_between_passes() {
        let cache = EvalCache::new();
        let app = opec_apps::programs::pinlock::app();
        // First pass: no ACES (the all-apps shape).
        let first = cache.evaluate_app(&app, false);
        // Second pass: with ACES (the comparison shape) — the baseline
        // and OPEC units must be reused, not recomputed.
        let second = cache.evaluate_app(&app, true);
        assert!(Arc::ptr_eq(&first.opec, &second.opec), "OPEC run not shared");
        assert_eq!(first.base_cycles, second.base_cycles);
        assert_eq!(second.aces.len(), 3);
        // Third pass: everything is a hit and aliases the same runs.
        let third = cache.evaluate_app(&app, true);
        assert!(Arc::ptr_eq(&second.opec, &third.opec));
        for (a, b) in second.aces.iter().zip(&third.aces) {
            assert!(Arc::ptr_eq(a, b), "ACES run not shared");
        }
    }

    #[test]
    fn cached_results_match_sequential_uncached() {
        let cache = EvalCache::new();
        let app = opec_apps::programs::pinlock::app();
        let cached = cache.evaluate_app(&app, true);
        let plain = runs::evaluate_app_sequential(&app, true);
        assert_eq!(cached.base_cycles, plain.base_cycles);
        assert_eq!(cached.opec.cycles, plain.opec.cycles);
        assert_eq!(cached.opec.flash_used, plain.opec.flash_used);
        let cached_cycles: Vec<u64> = cached.aces.iter().map(|a| a.cycles).collect();
        let plain_cycles: Vec<u64> = plain.aces.iter().map(|a| a.cycles).collect();
        assert_eq!(cached_cycles, plain_cycles);
    }
}
