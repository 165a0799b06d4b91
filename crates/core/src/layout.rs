//! Data layout and policy generation (paper Sections 4.4 and 5.2).
//!
//! This module turns a [`Partition`] into the concrete memory picture of
//! Figure 6 and the per-operation policies the monitor enforces:
//!
//! * globals are classified **internal** (used by exactly one operation
//!   → placed directly in that operation's data section) or **external**
//!   (used by two or more → a master copy in the *public data section*
//!   plus a shadow copy in every sharing operation's section, reached
//!   through the *variables relocation table*);
//! * operation data sections are sorted by size descending, rounded to
//!   MPU-legal power-of-two sizes, and placed at size-aligned addresses
//!   (the fragment bytes this creates are the paper's main SRAM cost);
//! * each operation's peripherals are sorted by base address, adjacent
//!   windows merged, and each merged window covered by one aligned MPU
//!   region; the first four load into MPU regions 4–7 and the rest are
//!   served by MPU-region virtualization at runtime;
//! * the static MPU plan per operation: region 0 = code+SRAM read-only
//!   background (privileged RW), region 1 = Flash execute, region 2 =
//!   stack (sub-regions managed at switch time), region 3 = the
//!   operation data section.

use std::collections::{BTreeMap, BTreeSet};

use opec_armv7m::mem::MemRegion;
use opec_armv7m::mpu::{align_up, region_size_for};
use opec_armv7m::Board;
use opec_ir::{GlobalId, Module};
use opec_vm::OpId;

use crate::partition::Partition;
use crate::spec::ArgInfo;

/// Name of the conventional heap global: a module-level byte array that
/// the layout places in its own section instead of shadowing (paper
/// §5.2, "Heap").
pub const HEAP_GLOBAL: &str = "__heap";

/// Default application stack size (power of two; 8 MPU sub-regions).
pub const STACK_SIZE: u32 = 0x1000;

/// One shared (external) variable as seen by one operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedVar {
    /// The variable.
    pub global: GlobalId,
    /// Size in bytes.
    pub size: u32,
    /// Master copy address in the public data section.
    pub public_addr: u32,
    /// This operation's shadow copy address.
    pub shadow_addr: u32,
    /// Developer sanitization range for the first word, if any.
    pub range: Option<(u32, u32)>,
    /// Byte offsets of pointer fields (for redirection at switch time).
    pub ptr_fields: Vec<u32>,
}

/// Everything the monitor needs to know about one operation.
#[derive(Debug, Clone)]
pub struct OpPolicy {
    /// Operation id.
    pub id: OpId,
    /// Diagnostic name.
    pub name: String,
    /// The operation data section (power-of-two, size-aligned).
    pub section: MemRegion,
    /// Bytes actually used inside the section.
    pub section_used: u32,
    /// Shared variables this operation accesses.
    pub shared: Vec<SharedVar>,
    /// Merged + power-of-two-aligned cover ranges for this operation's
    /// general peripherals (and the heap window if used) — the
    /// enforcement-side geometry every backend programs from (the ARM
    /// backend turns each cover into an MPU region, the PMP backend
    /// into a NAPOT entry). The first `virt_slots()` preload into the
    /// backend's reserved slots; the rest are virtualized.
    pub periph_covers: Vec<MemRegion>,
    /// Exact allow-list windows for general peripherals (virtualization
    /// checks against these, not the over-covering ranges).
    pub periph_windows: Vec<MemRegion>,
    /// Allow-list windows for core (PPB) peripherals, served by
    /// load/store emulation.
    pub core_windows: Vec<MemRegion>,
    /// Per-parameter stack information of the entry (relocation info).
    pub args: Vec<ArgInfo>,
}

/// The full system policy: per-operation policies plus the shared
/// memory picture.
#[derive(Debug, Clone)]
pub struct SystemPolicy {
    /// Board geometry.
    pub board: Board,
    /// Per-operation policies; index = `OpId`.
    pub ops: Vec<OpPolicy>,
    /// The public data section (master copies of external variables).
    pub public_section: MemRegion,
    /// The variables relocation table.
    pub reloc_table: MemRegion,
    /// Relocation-table entry address per external variable.
    pub reloc_entries: BTreeMap<GlobalId, u32>,
    /// Public-copy address per external variable (also used for
    /// variables no operation claims).
    pub public_addrs: BTreeMap<GlobalId, u32>,
    /// Fixed in-section address per internal variable.
    pub internal_addrs: BTreeMap<GlobalId, (OpId, u32)>,
    /// The heap section, if the module declares [`HEAP_GLOBAL`].
    pub heap: Option<MemRegion>,
    /// The application stack (one MPU region, eight sub-regions).
    pub stack: MemRegion,
    /// Externally visible list of external variables (stable order).
    pub externals: Vec<GlobalId>,
    /// Total SRAM bytes used (sections + fragments + public + reloc +
    /// heap + stack).
    pub sram_used: u32,
    /// Bytes of operation metadata stored in Flash (MPU configs,
    /// peripheral lists, sanitization values, stack info, relocation
    /// pointers) — the paper's main Flash cost.
    pub metadata_flash_bytes: u32,
}

/// Layout failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// The data image does not fit in SRAM.
    SramOverflow {
        /// Bytes needed.
        needed: u32,
        /// Bytes available.
        available: u32,
    },
}

impl core::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LayoutError::SramOverflow { needed, available } => {
                write!(f, "SRAM overflow: need {needed:#x} bytes, have {available:#x}")
            }
        }
    }
}

impl std::error::Error for LayoutError {}

/// Builds the system layout and policies.
pub fn build_layout(
    module: &Module,
    partition: &Partition,
    board: Board,
) -> Result<SystemPolicy, LayoutError> {
    let heap_global = module.global_by_name(HEAP_GLOBAL);
    // 1. Classify globals. Const globals live in Flash and are ignored
    //    here. The heap global gets its own section.
    let mut users: BTreeMap<GlobalId, Vec<OpId>> = BTreeMap::new();
    for op in &partition.ops {
        for g in op.resources.globals() {
            users.entry(g).or_default().push(op.id);
        }
    }
    let mut internal: BTreeMap<GlobalId, OpId> = BTreeMap::new();
    let mut externals: Vec<GlobalId> = Vec::new();
    let mut unclaimed: Vec<GlobalId> = Vec::new();
    for (i, g) in module.globals.iter().enumerate() {
        let gid = GlobalId(i as u32);
        if g.is_const || Some(gid) == heap_global {
            continue;
        }
        match users.get(&gid).map(Vec::as_slice) {
            Some([one]) => {
                internal.insert(gid, *one);
            }
            Some(_) => externals.push(gid),
            // Analysed as unused by any operation: keep a public copy so
            // the address still exists (dead data, but sound).
            None => unclaimed.push(gid),
        }
    }

    let mut cursor = board.sram.base;

    // 2. Public data section: master copies of externals + unclaimed.
    let public_base = cursor;
    let mut public_addrs = BTreeMap::new();
    for gid in externals.iter().chain(unclaimed.iter()) {
        let size = module.global_size(*gid).max(1);
        let align = module.types.align_of(&module.global(*gid).ty).max(4);
        cursor = align_up(cursor, align);
        public_addrs.insert(*gid, cursor);
        cursor += size;
    }
    let public_section = MemRegion::new(public_base, cursor - public_base);

    // 3. Variables relocation table: one 4-byte pointer per external.
    cursor = align_up(cursor, 4);
    let reloc_base = cursor;
    let mut reloc_entries = BTreeMap::new();
    for gid in &externals {
        reloc_entries.insert(*gid, cursor);
        cursor += 4;
    }
    let reloc_table = MemRegion::new(reloc_base, cursor - reloc_base);

    // 4. Heap section.
    let heap = heap_global.map(|hg| {
        let size = module.global_size(hg).max(4);
        cursor = align_up(cursor, 8);
        let r = MemRegion::new(cursor, size);
        cursor += size;
        r
    });

    // 5. Operation data sections: compute contents, then sort by
    //    (rounded) size descending and place at aligned addresses.
    struct SectionPlan {
        op: OpId,
        used: u32,
        rounded: u32,
        vars: Vec<(GlobalId, u32)>, // (global, offset in section)
    }
    let mut plans: Vec<SectionPlan> = partition
        .ops
        .iter()
        .map(|op| {
            let mut off = 0u32;
            let mut vars = Vec::new();
            for g in op.resources.globals() {
                if module.global(g).is_const || Some(g) == heap_global {
                    continue;
                }
                let align = module.types.align_of(&module.global(g).ty).max(4);
                off = align_up(off, align);
                vars.push((g, off));
                off += module.global_size(g).max(1);
            }
            SectionPlan { op: op.id, used: off, rounded: region_size_for(off.max(1)), vars }
        })
        .collect();
    plans.sort_by(|a, b| b.rounded.cmp(&a.rounded).then(a.op.cmp(&b.op)));

    let mut sections: BTreeMap<OpId, (MemRegion, u32)> = BTreeMap::new();
    let mut shadow_addrs: BTreeMap<(OpId, GlobalId), u32> = BTreeMap::new();
    let mut internal_addrs: BTreeMap<GlobalId, (OpId, u32)> = BTreeMap::new();
    for plan in &plans {
        cursor = align_up(cursor, plan.rounded);
        let base = cursor;
        for (g, off) in &plan.vars {
            shadow_addrs.insert((plan.op, *g), base + off);
            if internal.get(g) == Some(&plan.op) {
                internal_addrs.insert(*g, (plan.op, base + off));
            }
        }
        sections.insert(plan.op, (MemRegion::new(base, plan.rounded), plan.used));
        cursor += plan.rounded;
    }

    // 6. Stack at the top of SRAM (size-aligned so it is MPU-legal).
    let stack_base = (board.sram.end() - STACK_SIZE) & !(STACK_SIZE - 1);
    let stack = MemRegion::new(stack_base, STACK_SIZE);
    if cursor > stack.base {
        return Err(LayoutError::SramOverflow {
            needed: cursor - board.sram.base + STACK_SIZE,
            available: board.sram.size,
        });
    }

    // 7. Per-operation policies.
    let mut ops_policies = Vec::with_capacity(partition.ops.len());
    let mut metadata_bytes = 0u32;
    for op in &partition.ops {
        let (section, section_used) = sections[&op.id];
        let shared: Vec<SharedVar> = op
            .resources
            .globals()
            .into_iter()
            .filter(|g| reloc_entries.contains_key(g))
            .map(|g| SharedVar {
                global: g,
                size: module.global_size(g).max(1),
                public_addr: public_addrs[&g],
                shadow_addr: shadow_addrs[&(op.id, g)],
                range: module.global(g).valid_range,
                ptr_fields: module.types.pointer_field_offsets(&module.global(g).ty),
            })
            .collect();
        // Peripheral windows: sort, merge adjacent, cover with regions.
        let mut windows: Vec<MemRegion> = op
            .resources
            .peripherals
            .iter()
            .map(|&pi| {
                let p = &module.peripherals[pi];
                MemRegion::new(p.base, p.size)
            })
            .collect();
        windows.sort_by_key(|w| w.base);
        let merged = merge_adjacent(&windows);
        let mut merged = merged;
        let mut periph_covers: Vec<MemRegion> = merged.iter().map(covering_region).collect();
        // The heap window rides in the same reserved-region pool and
        // allow list (the monitor's virtualization check consults the
        // allow list).
        let uses_heap = heap_global.is_some_and(|hg| op.resources.globals().contains(&hg));
        if uses_heap {
            if let Some(h) = heap {
                periph_covers.insert(0, covering_region(&h));
                merged.insert(0, h);
            }
        }
        let core_windows: Vec<MemRegion> = op
            .resources
            .core_peripherals
            .iter()
            .map(|&pi| {
                let p = &module.peripherals[pi];
                MemRegion::new(p.base, p.size)
            })
            .collect();
        // Metadata accounting: MPU configs (8 regions × 8 bytes), stack
        // info (4 bytes/arg), sanitization (8 bytes/range), peripheral
        // list (8 bytes/window), relocation pointers (4 bytes/shared).
        metadata_bytes += 8 * 8
            + op.args
                .iter()
                .map(|a| match a {
                    ArgInfo::Nested { fields, .. } => 4 + 8 * fields.len() as u32,
                    _ => 4,
                })
                .sum::<u32>()
            + shared.iter().map(|s| 4 + if s.range.is_some() { 8 } else { 0 }).sum::<u32>()
            + 8 * (periph_covers.len() + core_windows.len()) as u32;
        ops_policies.push(OpPolicy {
            id: op.id,
            name: op.name.clone(),
            section,
            section_used,
            shared,
            periph_covers,
            periph_windows: merged,
            core_windows,
            args: op.args.clone(),
        });
    }

    let sram_used = (cursor - board.sram.base) + STACK_SIZE;
    Ok(SystemPolicy {
        board,
        ops: ops_policies,
        public_section,
        reloc_table,
        reloc_entries,
        public_addrs,
        internal_addrs,
        heap,
        stack,
        externals,
        sram_used,
        metadata_flash_bytes: metadata_bytes,
    })
}

impl SystemPolicy {
    /// The policy for operation `id`.
    pub fn op(&self, id: OpId) -> &OpPolicy {
        &self.ops[usize::from(id)]
    }

    /// The shadow address of `g` in operation `id`, if that operation
    /// has a copy (shared shadow or internal placement).
    pub fn shadow_addr(&self, id: OpId, g: GlobalId) -> Option<u32> {
        if let Some(sv) = self.op(id).shared.iter().find(|s| s.global == g) {
            return Some(sv.shadow_addr);
        }
        match self.internal_addrs.get(&g) {
            Some((owner, addr)) if *owner == id => Some(*addr),
            _ => None,
        }
    }

    /// All operations sharing global `g` (used by sync tests).
    pub fn sharers(&self, g: GlobalId) -> BTreeSet<OpId> {
        self.ops.iter().filter(|o| o.shared.iter().any(|s| s.global == g)).map(|o| o.id).collect()
    }
}

/// Merges overlapping or exactly adjacent windows (input sorted by
/// base).
fn merge_adjacent(windows: &[MemRegion]) -> Vec<MemRegion> {
    let mut out: Vec<MemRegion> = Vec::new();
    for w in windows {
        match out.last_mut() {
            Some(prev) if w.base <= prev.end() => {
                let end = prev.end().max(w.end());
                prev.size = end - prev.base;
            }
            _ => out.push(*w),
        }
    }
    out
}

/// The smallest MPU-legal range covering `window`: power-of-two size,
/// base aligned to size. May over-cover (the hardware-imposed
/// over-privilege the paper accepts for peripherals). Power-of-two
/// alignment makes the cover directly programmable by both backends
/// (an ARM region, a PMP NAPOT entry).
fn covering_region(window: &MemRegion) -> MemRegion {
    let mut size = region_size_for(window.size);
    loop {
        let base = window.base & !(size - 1);
        if window.end() <= base.saturating_add(size) {
            return MemRegion::new(base, size);
        }
        size *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::OperationSpec;
    use opec_analysis::{CallGraph, PointsTo, ResourceAnalysis};
    use opec_ir::{ModuleBuilder, Operand, Ty};

    fn build(m: &Module, specs: &[OperationSpec]) -> (Partition, SystemPolicy) {
        let pt = PointsTo::analyze(m);
        let cg = CallGraph::build(m, &pt);
        let ra = ResourceAnalysis::analyze(m, &pt);
        let p = Partition::build(m, &cg, &ra, specs).unwrap();
        let sp = build_layout(m, &p, Board::stm32f4_discovery()).unwrap();
        (p, sp)
    }

    /// Two tasks sharing `shared_buf`; task_a additionally owns `a_only`.
    fn two_task_module() -> Module {
        let mut mb = ModuleBuilder::new("t");
        let shared =
            mb.sanitized_global("shared_buf", Ty::Array(Box::new(Ty::I32), 4), "m.c", (0, 100));
        let a_only = mb.global("a_only", Ty::I32, "m.c");
        mb.peripheral("USART2", 0x4000_4400, 0x400, false);
        mb.peripheral("TIM2", 0x4000_0000, 0x400, false);
        mb.peripheral("TIM3", 0x4000_0400, 0x400, false);
        let task_a = mb.func("task_a", vec![], None, "m.c", |fb| {
            fb.store_global(shared, 0, Operand::Imm(1), 4);
            fb.store_global(a_only, 0, Operand::Imm(2), 4);
            fb.mmio_write(0x4000_4400, Operand::Imm(0), 4);
            fb.ret_void();
        });
        let task_b = mb.func("task_b", vec![], None, "m.c", |fb| {
            let _ = fb.load_global(shared, 0, 4);
            fb.mmio_write(0x4000_0004, Operand::Imm(0), 4);
            fb.mmio_write(0x4000_0404, Operand::Imm(0), 4);
            fb.ret_void();
        });
        mb.func("main", vec![], None, "m.c", |fb| {
            fb.call_void(task_a, vec![]);
            fb.call_void(task_b, vec![]);
            fb.halt();
            fb.ret_void();
        });
        mb.finish()
    }

    #[test]
    fn internal_vs_external_classification() {
        let m = two_task_module();
        let (_, sp) = build(&m, &[OperationSpec::plain("task_a"), OperationSpec::plain("task_b")]);
        let shared = m.global_by_name("shared_buf").unwrap();
        let a_only = m.global_by_name("a_only").unwrap();
        assert!(sp.reloc_entries.contains_key(&shared));
        assert!(!sp.reloc_entries.contains_key(&a_only));
        assert!(sp.internal_addrs.contains_key(&a_only));
        assert_eq!(sp.sharers(shared).len(), 2);
    }

    #[test]
    fn every_sharer_gets_its_own_shadow() {
        let m = two_task_module();
        let (_, sp) = build(&m, &[OperationSpec::plain("task_a"), OperationSpec::plain("task_b")]);
        let shared = m.global_by_name("shared_buf").unwrap();
        let a = sp.shadow_addr(1, shared).unwrap();
        let b = sp.shadow_addr(2, shared).unwrap();
        assert_ne!(a, b);
        assert!(sp.op(1).section.contains(a));
        assert!(sp.op(2).section.contains(b));
        // The public master copy is outside both sections.
        let pub_addr = sp.public_addrs[&shared];
        assert!(sp.public_section.contains(pub_addr));
        assert!(!sp.op(1).section.contains(pub_addr));
    }

    #[test]
    fn sections_are_mpu_legal_and_disjoint() {
        let m = two_task_module();
        let (_, sp) = build(&m, &[OperationSpec::plain("task_a"), OperationSpec::plain("task_b")]);
        for op in &sp.ops {
            assert!(op.section.size.is_power_of_two());
            assert!(op.section.size >= 32);
            assert_eq!(op.section.base % op.section.size, 0);
        }
        for (i, a) in sp.ops.iter().enumerate() {
            for b in &sp.ops[i + 1..] {
                assert!(!a.section.overlaps(&b.section), "sections overlap");
            }
        }
    }

    #[test]
    fn adjacent_peripherals_merge_into_one_region() {
        let m = two_task_module();
        let (_, sp) = build(&m, &[OperationSpec::plain("task_a"), OperationSpec::plain("task_b")]);
        // task_b touches TIM2 (0x40000000) and TIM3 (0x40000400):
        // adjacent, so one merged window and one MPU region.
        let b = sp.op(2);
        assert_eq!(b.periph_windows.len(), 1);
        assert_eq!(b.periph_windows[0], MemRegion::new(0x4000_0000, 0x800));
        assert_eq!(b.periph_covers.len(), 1);
        assert_eq!(b.periph_covers[0].size, 0x800);
        // task_a touches only USART2.
        let a = sp.op(1);
        assert_eq!(a.periph_windows.len(), 1);
        assert_eq!(a.periph_windows[0].base, 0x4000_4400);
    }

    #[test]
    fn covering_region_handles_misaligned_windows() {
        // A 0x400 window at 0x4000_4400 is 0x400-aligned: exact cover.
        let r = covering_region(&MemRegion::new(0x4000_4400, 0x400));
        assert_eq!((r.base, r.size), (0x4000_4400, 0x400));
        // A 0x800 window at 0x4000_0400 is not 0x800-aligned: the
        // covering region must grow.
        let r = covering_region(&MemRegion::new(0x4000_0400, 0x800));
        assert!(r.base.is_multiple_of(r.size));
        assert!(r.base <= 0x4000_0400 && r.base + r.size >= 0x4000_0C00);
        assert!(r.size.is_power_of_two());
    }

    #[test]
    fn merge_adjacent_windows() {
        let merged = merge_adjacent(&[
            MemRegion::new(0x100, 0x100),
            MemRegion::new(0x200, 0x100),
            MemRegion::new(0x400, 0x100),
        ]);
        assert_eq!(merged, vec![MemRegion::new(0x100, 0x200), MemRegion::new(0x400, 0x100)]);
    }

    #[test]
    fn base_regions_are_valid_and_cover_the_right_things() {
        use crate::backend::ArmRegionPlan;
        let m = two_task_module();
        let (_, sp) = build(&m, &[OperationSpec::plain("task_a")]);
        let plan = ArmRegionPlan::new(&sp);
        for (n, r) in plan.base_regions() {
            r.validate().unwrap_or_else(|e| panic!("region {n}: {e}"));
        }
        let [r0, r1, r2] = plan.base_regions();
        assert!(r0.1.range().contains(0x0800_0000)); // flash readable
        assert!(r0.1.range().contains(0x2000_0000)); // sram readable
        assert!(!r0.1.range().contains(0x4000_4400)); // peripherals NOT covered
        assert!(!r1.1.attr.execute_never);
        assert_eq!(r2.1.range(), sp.stack);
    }

    #[test]
    fn sanitization_range_propagates_to_policy() {
        let m = two_task_module();
        let (_, sp) = build(&m, &[OperationSpec::plain("task_a"), OperationSpec::plain("task_b")]);
        let shared = m.global_by_name("shared_buf").unwrap();
        let sv = sp.op(1).shared.iter().find(|s| s.global == shared).unwrap();
        assert_eq!(sv.range, Some((0, 100)));
    }

    #[test]
    fn heap_global_gets_its_own_section() {
        let mut mb = ModuleBuilder::new("t");
        let heap = mb.global(HEAP_GLOBAL, Ty::Array(Box::new(Ty::I8), 256), "heap.c");
        let t = mb.func("t", vec![], None, "m.c", |fb| {
            let p = fb.addr_of_global(heap, 0);
            fb.store(Operand::Reg(p), Operand::Imm(1), 1);
            fb.ret_void();
        });
        let _ = t;
        mb.func("main", vec![], None, "m.c", |fb| {
            fb.ret_void();
        });
        let m = mb.finish();
        let (_, sp) = build(&m, &[OperationSpec::plain("t")]);
        let h = sp.heap.expect("heap section");
        assert_eq!(h.size, 256);
        // The heap is not shadowed.
        assert!(!sp.reloc_entries.contains_key(&heap));
        // The using operation gets the heap window in its cover pool.
        assert!(!sp.op(1).periph_covers.is_empty());
        assert!(sp.op(1).periph_covers[0].contains(h.base));
    }

    #[test]
    fn metadata_accounting_is_nonzero() {
        let m = two_task_module();
        let (_, sp) = build(&m, &[OperationSpec::plain("task_a")]);
        assert!(sp.metadata_flash_bytes > 0);
        assert!(sp.sram_used >= STACK_SIZE);
    }
}
