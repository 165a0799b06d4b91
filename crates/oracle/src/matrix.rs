//! The ground-truth access matrix.
//!
//! For every operation (OPEC) or compartment (ACES) the matrix answers:
//! *may this subject access this address, and how confident are we?*
//! It is computed **directly** from the partition / compartmentalization
//! results and the resource-dependency analysis plus the data-placement
//! map — deliberately *not* from the generated MPU region lists or the
//! shadowing code, so that a bug in MPU-plan generation, sub-region
//! encoding, window virtualization or shadow synchronisation shows up
//! as a disagreement instead of being faithfully replicated on both
//! sides of the comparison. The only shared inputs are addresses (where
//! a global or section was placed), because an access check is
//! meaningless without them.
//!
//! Three-valued answers:
//!
//! * [`Expect::Allow`] — the design grants the access. A runtime denial
//!   is a *spurious denial* (under-privilege bug).
//! * [`Expect::Deny`] — the design forbids it. A runtime grant is an
//!   *escape* (enforcement bug).
//! * [`Expect::Tolerate`] — inside known hardware over-cover: MPU
//!   regions are power-of-two sized, so section fragments and merged
//!   peripheral covers legally over-grant. Never flagged either way.

use std::collections::BTreeSet;

use opec_aces::{Compartments, DataRegions};
use opec_armv7m::mem::AddressClass;
use opec_armv7m::mpu::region_size_for;
use opec_armv7m::MemRegion;
use opec_core::layout::HEAP_GLOBAL;
use opec_core::{Partition, SystemPolicy};
use opec_ir::{FuncId, GlobalId, Module};
use opec_obs::OpId;

/// The matrix's verdict for one (subject, address, direction) query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The design grants the access.
    Allow,
    /// Hardware-rounding over-cover: granted in practice, not needed by
    /// the design; never flagged.
    Tolerate,
    /// The design forbids the access.
    Deny,
}

/// A sentinel address the oracle asks the MPU model about at every
/// accepted switch, without the firmware having to issue the access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    /// Address probed (1-byte access).
    pub addr: u32,
    /// Probe as a write (`true`) or a read.
    pub write: bool,
    /// [`Expect::Allow`] or [`Expect::Deny`]; `Tolerate` is never
    /// probed.
    pub expect: Expect,
    /// What the sentinel is (diagnostics).
    pub what: &'static str,
}

/// Per-subject expectations.
#[derive(Debug, Clone)]
pub struct OpExpect {
    /// Diagnostic name.
    pub name: String,
    /// Exact writable data placements (shadow copies, internal
    /// variables, ACES granted group regions).
    pub allow_w: Vec<MemRegion>,
    /// Write-tolerated over-cover (OPEC: the rest of the own data
    /// section; ACES: power-of-two rounding of group regions).
    pub tolerate_w: Vec<MemRegion>,
    /// Exact read+write windows (peripheral datasheet windows, heap).
    pub allow_rw: Vec<MemRegion>,
    /// Read+write-tolerated over-cover (merged/aligned peripheral MPU
    /// covers minus the exact windows).
    pub tolerate_rw: Vec<MemRegion>,
    /// Core (PPB) windows served by load/store emulation (OPEC only).
    pub core: Vec<MemRegion>,
    /// Member functions — the execution-membership ground truth.
    pub funcs: BTreeSet<FuncId>,
    /// Needed data bytes (the resource dependency), for PT
    /// cross-checks.
    pub needed_bytes: u64,
    /// Exactly granted data bytes, for PT cross-checks.
    pub granted_bytes: u64,
    /// MPU probes to run when this subject is switched in.
    pub probes: Vec<Probe>,
}

/// The full ground-truth matrix for one compiled firmware.
#[derive(Debug, Clone)]
pub struct AccessMatrix {
    /// Per-operation / per-compartment expectations; index = id.
    pub ops: Vec<OpExpect>,
    /// The top-level subject: the one executing when no switch frame is
    /// open (OPEC: operation 0 = `main`; ACES: the compartment holding
    /// the entry function, which need not be id 0).
    pub root: OpId,
    /// The application stack.
    pub stack: MemRegion,
    /// Whether the design confines an operation to the stack below its
    /// entry frame (OPEC sub-region protection; ACES grants the whole
    /// stack).
    pub track_stack_boundary: bool,
    /// The granularity the enforcing backend rounds the stack boundary
    /// to (ARM MPU: an eighth of the stack region; RISC-V PMP: a
    /// word). The oracle predicts the boundary independently from the
    /// observed entry SP, so it must round the same way.
    pub boundary_granularity: u32,
    /// Placement gaps found while building the matrix (an operation
    /// needs a variable no layout slot maps): each is itself a
    /// divergence between analysis and layout.
    pub anomalies: Vec<String>,
}

fn within(regions: &[MemRegion], addr: u32) -> bool {
    regions.iter().any(|r| r.contains(addr))
}

/// Merges sorted windows that overlap or touch, then covers each merged
/// window with the smallest aligned power-of-two region — the same
/// hardware constraint the layout honours, reimplemented here so the
/// two derivations stay independent.
fn aligned_covers(windows: &[MemRegion]) -> Vec<MemRegion> {
    let mut sorted: Vec<MemRegion> = windows.iter().copied().filter(|w| w.size > 0).collect();
    sorted.sort_by_key(|w| w.base);
    let mut merged: Vec<MemRegion> = Vec::new();
    for w in sorted {
        match merged.last_mut() {
            Some(last) if w.base <= last.end() => {
                let end = last.end().max(w.end());
                last.size = end - last.base;
            }
            _ => merged.push(w),
        }
    }
    merged
        .iter()
        .map(|w| {
            let mut size = region_size_for(w.size);
            loop {
                let base = w.base & !(size - 1);
                if w.end() <= base.saturating_add(size) {
                    return MemRegion::new(base, size);
                }
                size = size.checked_mul(2).expect("cover fits the address space");
            }
        })
        .collect()
}

fn global_bytes(module: &Module, globals: &BTreeSet<GlobalId>) -> u64 {
    globals.iter().map(|&g| u64::from(module.global_size(g).max(1))).sum()
}

impl AccessMatrix {
    /// Ground truth for an OPEC compilation: one subject per operation,
    /// write grants at the exact placements of the operation's resource
    /// dependency, peripheral grants at the exact datasheet windows,
    /// PPB grants at the exact core windows, stack confinement on.
    pub fn opec(module: &Module, partition: &Partition, policy: &SystemPolicy) -> AccessMatrix {
        let heap_gid = module.global_by_name(HEAP_GLOBAL);
        let mut anomalies = Vec::new();
        let mut ops: Vec<OpExpect> = partition
            .ops
            .iter()
            .map(|op| {
                let pol = policy.op(op.id);
                let mut allow_w = Vec::new();
                let mut granted = 0u64;
                for &g in &op.resources.globals() {
                    if Some(g) == heap_gid || module.global(g).is_const {
                        continue;
                    }
                    let size = module.global_size(g).max(1);
                    match policy.shadow_addr(op.id, g) {
                        Some(addr) => {
                            allow_w.push(MemRegion::new(addr, size));
                            granted += u64::from(size);
                        }
                        None => anomalies.push(format!(
                            "op {} ({}) depends on global {} ({}) but the layout placed no \
                             copy it can reach",
                            op.id,
                            op.name,
                            g.0,
                            module.global(g).name
                        )),
                    }
                }
                let mut allow_rw = Vec::new();
                for &p in &op.resources.peripherals {
                    let def = &module.peripherals[p];
                    allow_rw.push(MemRegion::new(def.base, def.size));
                }
                if let (Some(h), Some(hg)) = (policy.heap, heap_gid) {
                    if op.resources.globals().contains(&hg) {
                        allow_rw.push(h);
                    }
                }
                let mut core = Vec::new();
                for &p in &op.resources.core_peripherals {
                    let def = &module.peripherals[p];
                    core.push(MemRegion::new(def.base, def.size));
                }
                let tolerate_w = if pol.section.size > 0 { vec![pol.section] } else { Vec::new() };
                OpExpect {
                    name: op.name.clone(),
                    tolerate_rw: aligned_covers(&allow_rw),
                    allow_w,
                    tolerate_w,
                    allow_rw,
                    core,
                    funcs: op.funcs.clone(),
                    needed_bytes: global_bytes(module, &op.resources.globals()),
                    granted_bytes: granted,
                    probes: Vec::new(),
                }
            })
            .collect();
        let sections: Vec<(OpId, MemRegion, u32)> =
            policy.ops.iter().map(|p| (p.id, p.section, p.section_used)).collect();
        for i in 0..ops.len() {
            let mut probes = Vec::new();
            for &(j, section, used) in &sections {
                if usize::from(j) == i || used == 0 {
                    continue;
                }
                probes.push(Probe {
                    addr: section.base,
                    write: true,
                    expect: Expect::Deny,
                    what: "another operation's data section",
                });
            }
            if policy.public_section.size > 0 {
                probes.push(Probe {
                    addr: policy.public_section.base,
                    write: true,
                    expect: Expect::Deny,
                    what: "public data section (master copies)",
                });
            }
            if policy.reloc_table.size > 0 {
                probes.push(Probe {
                    addr: policy.reloc_table.base,
                    write: true,
                    expect: Expect::Deny,
                    what: "variables relocation table",
                });
            }
            probes.push(Probe {
                addr: policy.board.flash.base,
                write: true,
                expect: Expect::Deny,
                what: "flash",
            });
            for (p, def) in module.peripherals.iter().enumerate() {
                if def.is_core {
                    continue;
                }
                let w = MemRegion::new(def.base, def.size);
                let op = &ops[i];
                if within(&op.allow_rw, w.base) || within(&op.tolerate_rw, w.base) {
                    continue;
                }
                if partition.ops[i].resources.peripherals.contains(&p) {
                    continue;
                }
                probes.push(Probe {
                    addr: w.base,
                    write: true,
                    expect: Expect::Deny,
                    what: "peripheral outside the operation's dependency",
                });
            }
            let (_, section, used) = sections[i];
            if used > 0 {
                probes.push(Probe {
                    addr: section.base,
                    write: true,
                    expect: Expect::Allow,
                    what: "own data section",
                });
            }
            probes.truncate(24);
            ops[i].probes = probes;
        }
        AccessMatrix {
            ops,
            root: 0,
            stack: policy.stack,
            track_stack_boundary: true,
            boundary_granularity: (policy.stack.size / 8).max(1),
            anomalies,
        }
    }

    /// Overrides the stack-boundary rounding granularity (the ARM
    /// eighth-of-stack default) with the enforcing backend's — the
    /// backend-parameterized runners feed
    /// [`opec_core::Backend::boundary_granularity`] through here.
    pub fn with_boundary_granularity(mut self, granularity: u32) -> AccessMatrix {
        self.boundary_granularity = granularity.max(1);
        self
    }

    /// Ground truth for an ACES compilation: one subject per
    /// compartment, write grants at the granted group regions, the
    /// whole stack granted, peripheral grants at the exact windows with
    /// the per-compartment covering region tolerated. Privileged
    /// (lifted) compartments never reach the oracle — their accesses
    /// bypass the MPU by design, which is exactly the PAC cost the
    /// paper charges ACES for.
    pub fn aces(
        module: &Module,
        comps: &Compartments,
        regions: &DataRegions,
        stack: MemRegion,
        flash_base: u32,
        main_comp: OpId,
    ) -> AccessMatrix {
        let mut ops: Vec<OpExpect> = comps
            .comps
            .iter()
            .map(|c| {
                let granted_idx = regions.granted.get(&c.id).cloned().unwrap_or_default();
                let allow_w: Vec<MemRegion> =
                    granted_idx.iter().map(|&gi| regions.group_regions[gi]).collect();
                let tolerate_w: Vec<MemRegion> = aligned_covers(&allow_w);
                let mut allow_rw = Vec::new();
                for &p in &c.resources.peripherals {
                    let def = &module.peripherals[p];
                    allow_rw.push(MemRegion::new(def.base, def.size));
                }
                // One covering region spans all the compartment's
                // windows — everything inside it that is not an exact
                // window is ACES over-privilege the oracle tolerates
                // (and the PT/probe layers measure elsewhere).
                let tolerate_rw = if allow_rw.is_empty() {
                    Vec::new()
                } else {
                    let lo = allow_rw.iter().map(|w| w.base).min().unwrap();
                    let hi = allow_rw.iter().map(|w| w.end()).max().unwrap();
                    aligned_covers(&[MemRegion::new(lo, hi - lo)])
                };
                OpExpect {
                    name: c.name.clone(),
                    granted_bytes: u64::from(regions.granted_bytes(module, c.id)),
                    needed_bytes: global_bytes(module, &c.resources.globals()),
                    allow_w,
                    tolerate_w,
                    allow_rw,
                    tolerate_rw,
                    core: Vec::new(),
                    funcs: c.funcs.clone(),
                    probes: Vec::new(),
                }
            })
            .collect();
        let all_regions: Vec<MemRegion> = regions.group_regions.clone();
        for (i, op) in ops.iter_mut().enumerate() {
            if comps.comps[i].privileged {
                continue; // never switched in unprivileged; probes would lie
            }
            let mut probes = Vec::new();
            for r in &all_regions {
                if r.size == 0 {
                    continue;
                }
                if within(&op.allow_w, r.base) || within(&op.tolerate_w, r.base) {
                    continue;
                }
                probes.push(Probe {
                    addr: r.base,
                    write: true,
                    expect: Expect::Deny,
                    what: "group region not granted to this compartment",
                });
            }
            probes.push(Probe {
                addr: flash_base,
                write: true,
                expect: Expect::Deny,
                what: "flash",
            });
            for def in module.peripherals.iter().filter(|d| !d.is_core) {
                if within(&op.allow_rw, def.base) || within(&op.tolerate_rw, def.base) {
                    continue;
                }
                probes.push(Probe {
                    addr: def.base,
                    write: true,
                    expect: Expect::Deny,
                    what: "peripheral outside the compartment's dependency",
                });
            }
            if let Some(r) = op.allow_w.first().filter(|r| r.size > 0) {
                probes.push(Probe {
                    addr: r.base,
                    write: true,
                    expect: Expect::Allow,
                    what: "own granted group region",
                });
            }
            probes.truncate(24);
            op.probes = probes;
        }
        AccessMatrix {
            ops,
            root: main_comp,
            stack,
            track_stack_boundary: false,
            boundary_granularity: (stack.size / 8).max(1),
            anomalies: Vec::new(),
        }
    }

    /// The matrix's verdict for a data access. Stack addresses are the
    /// caller's business (the boundary is runtime state); everything
    /// else is decided statically.
    pub fn expect_data(&self, op: OpId, addr: u32, write: bool) -> Expect {
        let Some(e) = self.ops.get(usize::from(op)) else {
            return Expect::Deny;
        };
        if within(&e.allow_rw, addr) {
            return Expect::Allow;
        }
        if within(&e.core, addr) {
            return Expect::Allow;
        }
        if write {
            if within(&e.allow_w, addr) {
                return Expect::Allow;
            }
            if within(&e.tolerate_w, addr) || within(&e.tolerate_rw, addr) {
                return Expect::Tolerate;
            }
            Expect::Deny
        } else {
            if within(&e.tolerate_rw, addr) {
                return Expect::Tolerate;
            }
            // The read-only background (code + SRAM) is granted to
            // everything by both designs.
            match AddressClass::of(addr) {
                AddressClass::Code | AddressClass::Sram => Expect::Allow,
                _ => Expect::Deny,
            }
        }
    }
}
