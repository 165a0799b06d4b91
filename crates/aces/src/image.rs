//! ACES image generation.
//!
//! Produces a [`LoadedImage`] where every global has a fixed address
//! inside its (possibly merged) region group, and every function is
//! marked with its compartment id so the VM raises switch events. The
//! [`crate::runtime::AcesRuntime`] declines same-compartment switches
//! via `wants_switch`, so only genuine cross-compartment calls pay the
//! SVC + MPU-reload cost, as on real ACES.

use std::collections::BTreeMap;

use opec_armv7m::{Board, Mode};
use opec_ir::{GlobalId, Module};
use opec_vm::image::layout_code;
use opec_vm::{GlobalSlot, LoadedImage, OpId};

use crate::regions::DataRegions;
use crate::runtime::AcesRuntime;
use crate::strategy::{AcesStrategy, Compartments};
use crate::ACES_RT_BYTES;

/// Everything an ACES compile produces.
pub struct AcesCompileOutput {
    /// The linked image.
    pub image: LoadedImage,
    /// The compartmentalisation.
    pub comps: Compartments,
    /// The data-region assignment (with placement).
    pub regions: DataRegions,
    /// Stack window (whole-stack accessible — ACES's oversized stack
    /// permission).
    pub stack: opec_armv7m::MemRegion,
}

impl AcesCompileOutput {
    /// The compartment `main` starts in.
    pub fn main_comp(&self) -> OpId {
        self.comps.of(self.image.entry)
    }

    /// The runtime enforcing this build's compartments on `board`.
    pub fn runtime(&self, board: Board) -> AcesRuntime {
        AcesRuntime::new(
            &self.image.module,
            self.comps.clone(),
            self.regions.clone(),
            board,
            self.stack,
            self.main_comp(),
        )
    }
}

/// Errors from ACES image generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcesImageError {
    /// No `main` function.
    NoMain,
    /// Data + stack exceed SRAM.
    SramOverflow,
}

impl core::fmt::Display for AcesImageError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AcesImageError::NoMain => write!(f, "module has no main"),
            AcesImageError::SramOverflow => write!(f, "ACES data image exceeds SRAM"),
        }
    }
}

impl std::error::Error for AcesImageError {}

/// Compiles `module` with ACES under `strategy`.
pub fn build_aces_image(
    module: Module,
    board: Board,
    strategy: AcesStrategy,
) -> Result<AcesCompileOutput, AcesImageError> {
    let pt = opec_analysis::PointsTo::analyze(&module);
    let cg = opec_analysis::CallGraph::build(&module, &pt);
    let ra = opec_analysis::ResourceAnalysis::analyze(&module, &pt);
    let comps = Compartments::build(&module, &cg, &ra, strategy);
    let mut regions = DataRegions::build(&module, &comps);

    let entry = module.func_by_name("main").ok_or(AcesImageError::NoMain)?;
    let code_base = board.flash.base + ACES_RT_BYTES;
    let (func_addrs, inst_addrs, code_end) = layout_code(&module, code_base);

    // Place grouped data regions.
    let data_end = regions.place(&module, board.sram.base);

    // Stack at the top of SRAM.
    let stack_size: u32 = 0x1000;
    let stack_base = (board.sram.end() - stack_size) & !(stack_size - 1);
    let stack = opec_armv7m::MemRegion::new(stack_base, stack_size);
    if data_end > stack.base {
        return Err(AcesImageError::SramOverflow);
    }

    // Constant globals to flash; mutable globals at their region slots.
    let mut flash_cursor = (code_end + 3) & !3;
    let mut const_addrs: BTreeMap<GlobalId, u32> = BTreeMap::new();
    let mut flash_init = Vec::new();
    for (i, g) in module.globals.iter().enumerate() {
        if !g.is_const {
            continue;
        }
        let gid = GlobalId(i as u32);
        let size = module.types.size_of(&g.ty).max(1);
        let align = module.types.align_of(&g.ty).max(4);
        flash_cursor = flash_cursor.div_ceil(align) * align;
        const_addrs.insert(gid, flash_cursor);
        let mut bytes = g.init.clone();
        bytes.resize(size as usize, 0);
        flash_init.push((flash_cursor, bytes));
        flash_cursor += size;
    }
    // Compartment metadata: per compartment, MPU configurations, the
    // region table, and micro-emulator allow lists.
    let metadata = comps.comps.len() as u32 * crate::ACES_COMP_METADATA_BYTES;
    let flash_used = (flash_cursor - board.flash.base) + metadata;

    let mut global_slots = Vec::with_capacity(module.globals.len());
    let mut sram_init = Vec::new();
    for (i, g) in module.globals.iter().enumerate() {
        let gid = GlobalId(i as u32);
        if g.is_const {
            global_slots.push(GlobalSlot::Fixed(const_addrs[&gid]));
            continue;
        }
        let addr = regions.addrs[&gid];
        global_slots.push(GlobalSlot::Fixed(addr));
        if !g.init.is_empty() {
            let size = module.types.size_of(&g.ty).max(1);
            let mut bytes = g.init.clone();
            bytes.resize(size as usize, 0);
            sram_init.push((addr, bytes));
        }
    }

    // Every function (except main itself) is a potential compartment
    // boundary.
    let op_entries = (0..module.funcs.len())
        .map(|i| opec_ir::FuncId(i as u32))
        .filter(|f| *f != entry)
        .map(|f| (f, comps.of(f)))
        .collect();

    let sram_used = (data_end - board.sram.base) + stack_size;
    let image = LoadedImage {
        module,
        func_addrs,
        inst_addrs,
        global_slots,
        entry,
        op_entries,
        irq_vector: std::collections::HashMap::new(),
        stack,
        app_mode: Mode::Unprivileged,
        flash_init,
        sram_init,
        flash_used,
        sram_used,
    };
    Ok(AcesCompileOutput { image, comps, regions, stack })
}

#[cfg(test)]
mod tests {
    use super::*;
    use opec_ir::{ModuleBuilder, Operand, Ty};

    fn sample() -> Module {
        let mut mb = ModuleBuilder::new("t");
        let a = mb.global_init("a", Ty::I32, vec![7, 0, 0, 0], "x.c");
        let helper = mb.func("helper", vec![], None, "x.c", |fb| {
            fb.store_global(a, 0, Operand::Imm(1), 4);
            fb.ret_void();
        });
        mb.func("main", vec![], None, "main.c", |fb| {
            fb.call_void(helper, vec![]);
            fb.halt();
            fb.ret_void();
        });
        mb.finish()
    }

    #[test]
    fn image_builds_with_fixed_slots_and_markers() {
        let out =
            build_aces_image(sample(), Board::stm32f4_discovery(), AcesStrategy::FilenameNoOpt)
                .unwrap();
        let a = out.image.module.global_by_name("a").unwrap();
        assert!(matches!(out.image.global_slots[a.0 as usize], GlobalSlot::Fixed(_)));
        let helper = out.image.module.func_by_name("helper").unwrap();
        let main = out.image.module.func_by_name("main").unwrap();
        assert!(out.image.op_entries.contains_key(&helper));
        assert!(!out.image.op_entries.contains_key(&main));
        assert!(out.image.flash_used > crate::ACES_RT_BYTES - 1);
        assert_eq!(out.image.op_entries[&helper], out.comps.of(helper));
    }

    #[test]
    fn initialisers_staged_at_region_addresses() {
        let out =
            build_aces_image(sample(), Board::stm32f4_discovery(), AcesStrategy::FilenameNoOpt)
                .unwrap();
        let a = out.image.module.global_by_name("a").unwrap();
        let addr = out.regions.addrs[&a];
        assert!(out.image.sram_init.iter().any(|(x, b)| *x == addr && b[0] == 7));
    }
}
