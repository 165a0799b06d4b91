//! Compartment formation under the three ACES strategies the OPEC
//! paper evaluates (filename, filename-without-optimisation,
//! peripheral).
//!
//! Unlike OPEC's operations, ACES compartments partition the program
//! **disjointly**: every function belongs to exactly one compartment,
//! and the execution of one task may cross many compartments (the
//! execution-time over-privilege and switch-frequency issues of
//! Section 3.1).

use std::collections::{BTreeMap, BTreeSet};

use opec_analysis::{CallGraph, FuncResources, ResourceAnalysis};
use opec_ir::{FuncId, Inst, Module};
use opec_vm::OpId;

/// The three partitioning strategies from the OPEC paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AcesStrategy {
    /// "Filename" — one compartment per source file, then the merge
    /// optimisation that fuses the most call-coupled compartments to
    /// reduce switch frequency (ACES1).
    Filename,
    /// "Filename without optimization" — one compartment per source
    /// file, no merging (ACES2).
    FilenameNoOpt,
    /// "Peripheral" — functions grouped by the set of peripherals they
    /// access; peripheral-free functions fall back to per-file groups
    /// (ACES3).
    Peripheral,
}

impl AcesStrategy {
    /// Short label used in tables ("ACES1"… like the paper).
    pub fn label(self) -> &'static str {
        match self {
            AcesStrategy::Filename => "ACES-1",
            AcesStrategy::FilenameNoOpt => "ACES-2",
            AcesStrategy::Peripheral => "ACES-3",
        }
    }
}

/// One ACES compartment.
#[derive(Debug, Clone)]
pub struct Compartment {
    /// Compartment id.
    pub id: OpId,
    /// Diagnostic name (file name or peripheral signature).
    pub name: String,
    /// Member functions (disjoint across compartments).
    pub funcs: BTreeSet<FuncId>,
    /// Merged resource needs of the members.
    pub resources: FuncResources,
    /// Compartments that access core (PPB) peripherals are lifted to
    /// the privileged level — ACES's workaround that OPEC's emulation
    /// avoids.
    pub privileged: bool,
}

/// A full compartmentalisation.
#[derive(Debug, Clone)]
pub struct Compartments {
    /// The strategy that produced it.
    pub strategy: AcesStrategy,
    /// Compartments; index = id.
    pub comps: Vec<Compartment>,
    /// Function → owning compartment.
    pub owner: BTreeMap<FuncId, OpId>,
}

impl Compartments {
    /// Forms compartments for `module` under `strategy`.
    pub fn build(
        module: &Module,
        cg: &CallGraph,
        resources: &ResourceAnalysis,
        strategy: AcesStrategy,
    ) -> Compartments {
        let mut groups: BTreeMap<String, BTreeSet<FuncId>> = BTreeMap::new();
        for (i, f) in module.funcs.iter().enumerate() {
            let fid = FuncId(i as u32);
            let key = match strategy {
                AcesStrategy::Filename | AcesStrategy::FilenameNoOpt => f.source_file.clone(),
                AcesStrategy::Peripheral => {
                    let res = resources.of(fid);
                    if res.peripherals.is_empty() && res.core_peripherals.is_empty() {
                        format!("file:{}", f.source_file)
                    } else {
                        let mut names: Vec<&str> = res
                            .peripherals
                            .iter()
                            .chain(res.core_peripherals.iter())
                            .map(|&pi| module.peripherals[pi].name.as_str())
                            .collect();
                        names.sort_unstable();
                        format!("periph:{}", names.join("+"))
                    }
                }
            };
            groups.entry(key).or_default().insert(fid);
        }
        let mut comp_sets: Vec<(String, BTreeSet<FuncId>)> = groups.into_iter().collect();
        if strategy == AcesStrategy::Filename {
            merge_optimisation(module, cg, &mut comp_sets);
        }
        let comps: Vec<Compartment> = comp_sets
            .into_iter()
            .enumerate()
            .map(|(i, (name, funcs))| {
                let res = resources.merged(funcs.iter().copied());
                let privileged = !res.core_peripherals.is_empty();
                Compartment { id: i as OpId, name, funcs, resources: res, privileged }
            })
            .collect();
        let mut owner = BTreeMap::new();
        for c in &comps {
            for f in &c.funcs {
                owner.insert(*f, c.id);
            }
        }
        Compartments { strategy, comps, owner }
    }

    /// The compartment owning function `f`.
    pub fn of(&self, f: FuncId) -> OpId {
        self.owner[&f]
    }

    /// The compartments owning any of `funcs`.
    pub fn owners<'a>(&self, funcs: impl IntoIterator<Item = &'a FuncId>) -> BTreeSet<OpId> {
        funcs.into_iter().map(|&f| self.of(f)).collect()
    }

    /// Total modelled code bytes of privileged (lifted) compartments —
    /// the numerator of the paper's PAC metric.
    pub fn privileged_code_bytes(&self, module: &Module) -> u32 {
        self.comps
            .iter()
            .filter(|c| c.privileged)
            .flat_map(|c| c.funcs.iter())
            .map(|f| module.func(*f).code_size())
            .sum()
    }
}

/// ACES1's merge optimisation: repeatedly fuse the pair of compartments
/// with the highest cross-call count, stopping when no pair exchanges
/// more than one call edge or the compartment count has halved. This
/// reduces switch frequency at the cost of coarser isolation — the
/// trade the OPEC paper describes for the optimised filename strategy.
fn merge_optimisation(
    module: &Module,
    cg: &CallGraph,
    comps: &mut Vec<(String, BTreeSet<FuncId>)>,
) {
    let target = (comps.len() / 2).max(1);
    loop {
        if comps.len() <= target {
            break;
        }
        // Count call edges between compartments.
        let owner: BTreeMap<FuncId, usize> = comps
            .iter()
            .enumerate()
            .flat_map(|(i, (_, fs))| fs.iter().map(move |f| (*f, i)))
            .collect();
        // Weight = number of *call sites* crossing the pair (dedup
        // would hide hot boundaries).
        let mut weight: BTreeMap<(usize, usize), u32> = BTreeMap::new();
        for (fi, func) in module.funcs.iter().enumerate() {
            let f = FuncId(fi as u32);
            let a = owner[&f];
            let mut add = |callee: FuncId| {
                let b = owner[&callee];
                if a != b {
                    let key = (a.min(b), a.max(b));
                    *weight.entry(key).or_default() += 1;
                }
            };
            for block in &func.blocks {
                for inst in &block.insts {
                    if let Inst::Call { callee, .. } = inst {
                        add(*callee);
                    }
                }
            }
            let _ = cg;
        }
        let Some((&(a, b), &w)) = weight.iter().max_by_key(|(k, w)| (**w, std::cmp::Reverse(**k)))
        else {
            break;
        };
        if w <= 1 {
            break;
        }
        let (bname, bfuncs) = comps.remove(b);
        comps[a].0 = format!("{}+{}", comps[a].0, bname);
        comps[a].1.extend(bfuncs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opec_analysis::PointsTo;
    use opec_ir::{ModuleBuilder, Operand, Ty};

    fn sample() -> Module {
        let mut mb = ModuleBuilder::new("t");
        mb.peripheral("USART2", 0x4000_4400, 0x400, false);
        mb.peripheral("SysTick", 0xE000_E010, 0x10, true);
        let g = mb.global("g", Ty::I32, "main.c");
        let uart_send = mb.func("uart_send", vec![("b", Ty::I32)], None, "uart.c", |fb| {
            fb.mmio_write(0x4000_4404, Operand::Reg(fb.param(0)), 4);
            fb.ret_void();
        });
        let tick_cfg = mb.func("tick_cfg", vec![], None, "sys.c", |fb| {
            fb.mmio_write(0xE000_E014, Operand::Imm(100), 4);
            fb.ret_void();
        });
        let helper = mb.func("helper", vec![], None, "main.c", |fb| {
            fb.store_global(g, 0, Operand::Imm(1), 4);
            fb.ret_void();
        });
        mb.func("main", vec![], None, "main.c", |fb| {
            fb.call_void(tick_cfg, vec![]);
            fb.call_void(helper, vec![]);
            fb.call_void(uart_send, vec![Operand::Imm(0x41)]);
            fb.call_void(uart_send, vec![Operand::Imm(0x42)]);
            fb.call_void(uart_send, vec![Operand::Imm(0x43)]);
            fb.halt();
            fb.ret_void();
        });
        mb.finish()
    }

    fn build(strategy: AcesStrategy) -> (Module, Compartments) {
        let m = sample();
        let pt = PointsTo::analyze(&m);
        let cg = CallGraph::build(&m, &pt);
        let ra = ResourceAnalysis::analyze(&m, &pt);
        let c = Compartments::build(&m, &cg, &ra, strategy);
        (m, c)
    }

    #[test]
    fn filename_no_opt_gives_one_compartment_per_file() {
        let (m, c) = build(AcesStrategy::FilenameNoOpt);
        assert_eq!(c.comps.len(), 3); // uart.c, sys.c, main.c
                                      // Disjoint and complete.
        let total: usize = c.comps.iter().map(|x| x.funcs.len()).sum();
        assert_eq!(total, m.funcs.len());
        for f in 0..m.funcs.len() {
            assert!(c.owner.contains_key(&FuncId(f as u32)));
        }
    }

    #[test]
    fn filename_opt_merges_call_coupled_files() {
        let (_, c) = build(AcesStrategy::Filename);
        // main.c calls uart.c three times — the optimisation fuses them.
        assert!(c.comps.len() < 3);
        let merged = c.comps.iter().find(|x| x.name.contains('+')).expect("a merged comp");
        assert!(merged.name.contains("main.c") && merged.name.contains("uart.c"));
    }

    #[test]
    fn peripheral_strategy_groups_by_signature() {
        let (m, c) = build(AcesStrategy::Peripheral);
        let uart = m.func_by_name("uart_send").unwrap();
        let tick = m.func_by_name("tick_cfg").unwrap();
        let helper = m.func_by_name("helper").unwrap();
        assert_ne!(c.of(uart), c.of(tick));
        assert_ne!(c.of(uart), c.of(helper));
        let uart_comp = &c.comps[usize::from(c.of(uart))];
        assert!(uart_comp.name.contains("USART2"));
    }

    #[test]
    fn core_peripheral_compartments_are_lifted() {
        let (m, c) = build(AcesStrategy::FilenameNoOpt);
        let tick = m.func_by_name("tick_cfg").unwrap();
        assert!(c.comps[usize::from(c.of(tick))].privileged);
        let uart = m.func_by_name("uart_send").unwrap();
        assert!(!c.comps[usize::from(c.of(uart))].privileged);
        assert!(c.privileged_code_bytes(&m) > 0);
    }

    #[test]
    fn labels_match_paper_names() {
        assert_eq!(AcesStrategy::Filename.label(), "ACES-1");
        assert_eq!(AcesStrategy::FilenameNoOpt.label(), "ACES-2");
        assert_eq!(AcesStrategy::Peripheral.label(), "ACES-3");
    }
}
