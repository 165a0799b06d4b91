//! The paper's metrics: Table 1 security numbers, the PT metric
//! (Equation 1), and the ET metric (Equation 2).

use std::collections::{BTreeMap, BTreeSet};

use opec_aces::{Compartments, DataRegions};
use opec_ir::{FuncId, GlobalId, Module};
use opec_vm::OpId;

use crate::runs::AppEval;

fn bytes_of(module: &Module, globals: &BTreeSet<GlobalId>) -> u64 {
    globals.iter().map(|g| u64::from(module.global_size(*g).max(1))).sum()
}

fn total_mutable_global_bytes(module: &Module) -> u64 {
    module
        .globals
        .iter()
        .enumerate()
        .filter(|(_, g)| !g.is_const)
        .map(|(i, _)| u64::from(module.global_size(GlobalId(i as u32)).max(1)))
        .sum()
}

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Application name.
    pub app: String,
    /// Number of operations (the developer-specified entries; the
    /// default `main` operation exists besides, as in the paper).
    pub ops: usize,
    /// Average member functions per operation.
    pub avg_funcs: f64,
    /// Privileged code bytes (the monitor).
    pub pri_code_bytes: u32,
    /// Privileged code as a percentage of the application code (all of
    /// which runs privileged in the baseline).
    pub pri_code_pct: f64,
    /// Average accessible global-variable bytes per operation.
    pub avg_gvars_bytes: f64,
    /// ... as a percentage of all mutable global bytes.
    pub avg_gvars_pct: f64,
}

/// Computes the Table 1 row for one evaluated application.
pub fn table1_row(eval: &AppEval) -> Table1Row {
    let module = &eval.opec.compile.image.module;
    let partition = &eval.opec.compile.partition;
    // Exclude the default main operation, matching the paper's counts
    // (PinLock: 6).
    let ops: Vec<_> = partition.ops.iter().filter(|o| o.id != 0).collect();
    let n = ops.len().max(1);
    let avg_funcs = ops.iter().map(|o| o.funcs.len()).sum::<usize>() as f64 / n as f64;
    let total_code = module.total_code_size();
    let pri = opec_core::MONITOR_CODE_BYTES;
    let total_gv = total_mutable_global_bytes(module).max(1);
    let avg_gv =
        ops.iter().map(|o| bytes_of(module, &o.resources.globals()) as f64).sum::<f64>() / n as f64;
    Table1Row {
        app: eval.name.to_string(),
        ops: ops.len(),
        avg_funcs,
        pri_code_bytes: pri,
        pri_code_pct: pri as f64 / (total_code + pri) as f64 * 100.0,
        avg_gvars_bytes: avg_gv,
        avg_gvars_pct: avg_gv / total_gv as f64 * 100.0,
    }
}

/// Per-compartment PT values (Equation 1): the share of a
/// compartment's *accessible* global bytes that it does not need.
pub fn pt_of_compartments(
    module: &Module,
    comps: &Compartments,
    regions: &DataRegions,
) -> Vec<f64> {
    comps
        .comps
        .iter()
        .map(|c| {
            let granted = regions.granted_globals(c.id);
            let accessible = bytes_of(module, &granted);
            if accessible == 0 {
                return 0.0;
            }
            let needed: BTreeSet<GlobalId> =
                granted.intersection(&c.resources.globals()).copied().collect();
            let unneeded = accessible - bytes_of(module, &needed);
            unneeded as f64 / accessible as f64
        })
        .collect()
}

/// Cumulative-distribution points for a PT population: returns
/// `(pt_value, cumulative_ratio)` pairs sorted by PT.
pub fn cumulative(mut values: Vec<f64>) -> Vec<(f64, f64)> {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = values.len().max(1) as f64;
    values.iter().enumerate().map(|(i, v)| (*v, (i + 1) as f64 / n)).collect()
}

/// The ET metric per task, for OPEC and each ACES strategy.
#[derive(Debug, Clone)]
pub struct EtSeries {
    /// Task labels (operation names), in task-number order.
    pub tasks: Vec<String>,
    /// OPEC ET per task.
    pub opec: Vec<f64>,
    /// ACES ET per task, one series per strategy label.
    pub aces: Vec<(String, Vec<f64>)>,
}

/// Computes ET (Equation 2) for every executed task of an application.
///
/// The executed-function sets come from the VM trace (the stand-in for
/// the paper's GDB single-stepping); for OPEC the needed set is the
/// operation's dependency, for ACES it is the dependency of every
/// compartment involved in the task's execution.
pub fn et_by_task(eval: &AppEval) -> EtSeries {
    let module = &eval.opec.compile.image.module;
    let partition = &eval.opec.compile.partition;
    let resources = &eval.opec.compile.resources;
    // Aggregate executed functions per operation across invocations.
    let mut executed: BTreeMap<OpId, BTreeSet<FuncId>> = BTreeMap::new();
    for (op, _entry, funcs) in eval.opec.trace.tasks() {
        executed.entry(op).or_default().extend(funcs);
    }
    let mut tasks = Vec::new();
    let mut opec_et = Vec::new();
    let mut aces_et: Vec<(String, Vec<f64>)> =
        eval.aces.iter().map(|a| (a.strategy.label().to_string(), Vec::new())).collect();
    for (op, funcs) in &executed {
        let used: BTreeSet<GlobalId> =
            funcs.iter().flat_map(|f| resources.of(*f).globals()).collect();
        let used_bytes = bytes_of(module, &used);
        tasks.push(partition.op(*op).name.clone());
        // OPEC: needed = the operation's dependency.
        let needed = bytes_of(module, &partition.op(*op).resources.globals());
        opec_et.push(et(used_bytes, needed));
        // ACES: needed = dependencies of every compartment involved.
        for (ai, aces) in eval.aces.iter().enumerate() {
            let involved = aces.comps.owners(funcs);
            let needed_globals: BTreeSet<GlobalId> = involved
                .iter()
                .flat_map(|c| aces.comps.comps[usize::from(*c)].resources.globals())
                .collect();
            let needed = bytes_of(module, &needed_globals);
            aces_et[ai].1.push(et(used_bytes, needed));
        }
    }
    EtSeries { tasks, opec: opec_et, aces: aces_et }
}

fn et(used: u64, needed: u64) -> f64 {
    if needed == 0 {
        0.0
    } else {
        1.0 - (used.min(needed)) as f64 / needed as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runs::evaluate_app;

    #[test]
    fn cumulative_points_are_sorted_and_normalised() {
        let pts = cumulative(vec![0.5, 0.0, 0.25, 0.25]);
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0], (0.0, 0.25));
        assert_eq!(pts[3], (0.5, 1.0));
    }

    #[test]
    fn et_bounds() {
        assert_eq!(et(0, 0), 0.0);
        assert_eq!(et(10, 10), 0.0);
        assert_eq!(et(5, 10), 0.5);
        assert_eq!(et(20, 10), 0.0); // clamped
    }

    #[test]
    fn pinlock_metrics_have_paper_shape() {
        let app = opec_apps::programs::pinlock::app();
        let eval = evaluate_app(&app, true);
        let row = table1_row(&eval);
        assert_eq!(row.ops, 6);
        assert!(row.avg_funcs > 1.0);
        assert!(row.avg_gvars_pct > 0.0 && row.avg_gvars_pct <= 100.0);
        // OPEC has zero partition-time over-privilege by construction:
        // every operation's section holds exactly its dependency.
        // ACES strategies may show PT > 0 once regions merge.
        for aces in &eval.aces {
            let module = &eval.opec.compile.image.module;
            let pts = pt_of_compartments(module, &aces.comps, &aces.regions);
            assert_eq!(pts.len(), aces.comps.comps.len());
            for p in pts {
                assert!((0.0..=1.0).contains(&p));
            }
        }
        // ET series cover the executed tasks for all four systems.
        let ets = et_by_task(&eval);
        assert!(!ets.tasks.is_empty());
        assert_eq!(ets.opec.len(), ets.tasks.len());
        for (_, series) in &ets.aces {
            assert_eq!(series.len(), ets.tasks.len());
        }
        for v in ets.opec.iter().chain(ets.aces.iter().flat_map(|(_, s)| s.iter())) {
            assert!((0.0..=1.0).contains(v));
        }
    }
}
