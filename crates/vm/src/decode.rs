//! Pre-decoded basic blocks: the VM's fast dispatch path.
//!
//! The plain interpreter re-fetches each [`Inst`] from the module and
//! re-resolves its operands (global slots, local offsets, function
//! addresses, per-access cycle costs) on every step. This module lowers
//! each basic block once into a flat array of [`MicroOp`]s with all of
//! that pre-resolved:
//!
//! * fixed global addresses are folded into the op (`base + offset`);
//! * relocated globals keep only their relocation-entry address, since
//!   the extra indirection is runtime behaviour OPEC pays for;
//! * local addresses are pre-summed against the frame layout
//!   (`frame_layout`), leaving a single add against `locals_base`;
//! * the per-access cycle cost of fixed-address loads/stores is
//!   pre-computed ([`MicroOp::LoadFixed`]);
//! * instruction addresses are pre-materialised per block
//!   ([`DecodedBlock::pcs`]), so the hot path never walks the image's
//!   nested `inst_addrs` tables;
//! * call argument lists are flattened into a per-function operand pool
//!   so every micro-op is `Copy` and dispatch never clones.
//!
//! Keying and invalidation: the cache lives in the VM as one entry per
//! [`FuncId`], each holding every block of that function, and is filled
//! lazily on first execution. It is derived state over
//! `LoadedImage.module` and the link tables only — machine memory, MPU
//! programming and privilege are *not* baked in (every access is still
//! checked at execution time), so privilege/MPU changes need no
//! invalidation. Mutating the image itself (e.g. patching a block
//! mid-run) must go through `Vm::patch_image`, which drops every cached
//! function.
//!
//! Execution of a decoded block charges the clock and raises faults in
//! exactly the order of the plain interpreter; the differential oracle
//! and the cached-vs-plain lockstep mode (`opec-eval check --lockstep`)
//! hold the two paths to byte-identical event streams.

use opec_armv7m::clock::costs;
use opec_armv7m::mem::AddressClass;
use opec_ir::module::{BinOp, UnOp};
use opec_ir::{FuncId, Inst, Module, Operand, RegId, Terminator};

use crate::image::{GlobalSlot, LoadedImage};

/// Cycle cost of a data access to `addr` (peripheral vs. memory).
pub(crate) fn mem_cost(addr: u32) -> u64 {
    if AddressClass::of(addr).is_peripheral() {
        costs::MMIO
    } else {
        costs::MEM
    }
}

/// Stack-frame layout of `f`: per-local offsets and the 8-byte-aligned
/// total size. Single source of truth shared by the call path and the
/// decoder (which pre-sums local offsets into [`MicroOp::AddrLocal`]).
pub(crate) fn frame_layout(module: &Module, f: FuncId) -> (Vec<u32>, u32) {
    let func = module.func(f);
    let mut offsets = Vec::with_capacity(func.locals.len());
    let mut cursor = 0u32;
    for l in &func.locals {
        let align = module.types.align_of(&l.ty).max(4);
        cursor = (cursor + align - 1) & !(align - 1);
        offsets.push(cursor);
        cursor += module.types.size_of(&l.ty);
    }
    (offsets, (cursor + 7) & !7)
}

/// One pre-resolved straight-line micro-operation.
///
/// Every variant is `Copy`: operands are registers or immediates,
/// addresses are pre-computed where the image fixes them, and call
/// argument lists are ranges into the owning function's operand pool
/// ([`DecodedFunc::call_args`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // Field names are the documentation, as in `Inst`.
pub enum MicroOp {
    /// `dst = src`.
    Mov { dst: RegId, src: Operand },
    /// `dst = op src`.
    Un { dst: RegId, op: UnOp, src: Operand },
    /// `dst = lhs op rhs`.
    Bin { dst: RegId, op: BinOp, lhs: Operand, rhs: Operand },
    /// `dst = addr` — a pre-resolved fixed global or function address.
    AddrImm { dst: RegId, addr: u32 },
    /// `dst = locals_base + off` (local offset pre-summed).
    AddrLocal { dst: RegId, off: u32 },
    /// `dst = *entry_addr + offset` — a relocated global's address.
    AddrReloc { dst: RegId, entry_addr: u32, offset: u32 },
    /// Load from a pre-resolved fixed address; `cost` pre-computed.
    LoadFixed { dst: RegId, addr: u32, size: u8, cost: u8 },
    /// Store to a pre-resolved fixed address; `cost` pre-computed.
    StoreFixed { addr: u32, value: Operand, size: u8, cost: u8 },
    /// Load through a relocation-table entry.
    LoadReloc { dst: RegId, entry_addr: u32, offset: u32, size: u8 },
    /// Store through a relocation-table entry.
    StoreReloc { entry_addr: u32, offset: u32, value: Operand, size: u8 },
    /// Load through a register-held address.
    LoadInd { dst: RegId, addr: Operand, size: u8 },
    /// Store through a register-held address.
    StoreInd { addr: Operand, value: Operand, size: u8 },
    /// Direct call; arguments are `call_args[start..start + len]`.
    Call { dst: Option<RegId>, callee: FuncId, args_start: u32, args_len: u32 },
    /// Indirect call through a function pointer.
    CallInd { dst: Option<RegId>, fptr: Operand, args_start: u32, args_len: u32 },
    /// `memcpy(dst, src, len)`.
    Memcpy { dst: Operand, src: Operand, len: Operand },
    /// `memset(dst, val, len)`.
    Memset { dst: Operand, val: Operand, len: Operand },
    /// Explicit supervisor call.
    Svc { imm: u8 },
    /// The profiling stop point.
    Halt,
    /// No-op (still costs an ALU cycle).
    Nop,
}

/// A pre-decoded terminator (block indices widened to `usize`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // Field names are the documentation, as in `Terminator`.
pub enum DecodedTerm {
    /// Unconditional branch.
    Br { target: usize },
    /// Two-way conditional branch.
    CondBr { cond: Operand, then_to: usize, else_to: usize },
    /// Function return.
    Ret { value: Option<Operand> },
    /// Must never execute.
    Unreachable,
}

/// One pre-decoded basic block.
#[derive(Debug, Clone)]
pub struct DecodedBlock {
    /// The block's straight-line micro-ops.
    pub ops: Box<[MicroOp]>,
    /// Pre-materialised instruction addresses, parallel to `ops`.
    pub pcs: Box<[u32]>,
    /// The block's terminator.
    pub term: DecodedTerm,
}

/// All blocks of one function, plus its flattened call-operand pool.
#[derive(Debug, Clone)]
pub struct DecodedFunc {
    /// Blocks, indexed by `BlockId`.
    pub blocks: Box<[DecodedBlock]>,
    /// Flattened call-argument operands referenced by
    /// [`MicroOp::Call`]/[`MicroOp::CallInd`] ranges.
    pub call_args: Box<[Operand]>,
}

/// Lowers every block of `func` against the image's link tables.
pub fn decode_func(image: &LoadedImage, func: FuncId) -> DecodedFunc {
    let module = &image.module;
    let f = module.func(func);
    let (local_offsets, _) = frame_layout(module, func);
    let mut call_args: Vec<Operand> = Vec::new();
    let mut blocks = Vec::with_capacity(f.blocks.len());
    for (bi, b) in f.blocks.iter().enumerate() {
        let mut ops = Vec::with_capacity(b.insts.len());
        let mut pcs = Vec::with_capacity(b.insts.len());
        for (ii, inst) in b.insts.iter().enumerate() {
            pcs.push(image.inst_addr(func, bi, ii));
            ops.push(lower(image, &local_offsets, &mut call_args, inst));
        }
        let term = match b.term {
            Terminator::Br(t) => DecodedTerm::Br { target: t.0 as usize },
            Terminator::CondBr { cond, then_to, else_to } => DecodedTerm::CondBr {
                cond,
                then_to: then_to.0 as usize,
                else_to: else_to.0 as usize,
            },
            Terminator::Ret(value) => DecodedTerm::Ret { value },
            Terminator::Unreachable => DecodedTerm::Unreachable,
        };
        blocks.push(DecodedBlock {
            ops: ops.into_boxed_slice(),
            pcs: pcs.into_boxed_slice(),
            term,
        });
    }
    DecodedFunc { blocks: blocks.into_boxed_slice(), call_args: call_args.into_boxed_slice() }
}

fn lower(
    image: &LoadedImage,
    local_offsets: &[u32],
    pool: &mut Vec<Operand>,
    inst: &Inst,
) -> MicroOp {
    let mut flatten = |args: &[Operand]| {
        let start = pool.len() as u32;
        pool.extend_from_slice(args);
        (start, args.len() as u32)
    };
    match *inst {
        Inst::Mov { dst, src } => MicroOp::Mov { dst, src },
        Inst::Un { dst, op, src } => MicroOp::Un { dst, op, src },
        Inst::Bin { dst, op, lhs, rhs } => MicroOp::Bin { dst, op, lhs, rhs },
        Inst::AddrOfGlobal { dst, global, offset } => match image.global_slots[global.0 as usize] {
            GlobalSlot::Fixed(base) => MicroOp::AddrImm { dst, addr: base.wrapping_add(offset) },
            GlobalSlot::Reloc { entry_addr } => MicroOp::AddrReloc { dst, entry_addr, offset },
        },
        Inst::AddrOfLocal { dst, local, offset } => {
            MicroOp::AddrLocal { dst, off: local_offsets[local.0 as usize].wrapping_add(offset) }
        }
        Inst::AddrOfFunc { dst, func } => {
            MicroOp::AddrImm { dst, addr: image.func_addrs[func.0 as usize] }
        }
        Inst::LoadGlobal { dst, global, offset, size } => {
            match image.global_slots[global.0 as usize] {
                GlobalSlot::Fixed(base) => {
                    let addr = base.wrapping_add(offset);
                    MicroOp::LoadFixed { dst, addr, size, cost: mem_cost(addr) as u8 }
                }
                GlobalSlot::Reloc { entry_addr } => {
                    MicroOp::LoadReloc { dst, entry_addr, offset, size }
                }
            }
        }
        Inst::StoreGlobal { global, offset, value, size } => {
            match image.global_slots[global.0 as usize] {
                GlobalSlot::Fixed(base) => {
                    let addr = base.wrapping_add(offset);
                    MicroOp::StoreFixed { addr, value, size, cost: mem_cost(addr) as u8 }
                }
                GlobalSlot::Reloc { entry_addr } => {
                    MicroOp::StoreReloc { entry_addr, offset, value, size }
                }
            }
        }
        Inst::Load { dst, addr, size } => MicroOp::LoadInd { dst, addr, size },
        Inst::Store { addr, value, size } => MicroOp::StoreInd { addr, value, size },
        Inst::Call { dst, callee, ref args } => {
            let (args_start, args_len) = flatten(args);
            MicroOp::Call { dst, callee, args_start, args_len }
        }
        Inst::CallIndirect { dst, fptr, ref args, .. } => {
            let (args_start, args_len) = flatten(args);
            MicroOp::CallInd { dst, fptr, args_start, args_len }
        }
        Inst::Memcpy { dst, src, len } => MicroOp::Memcpy { dst, src, len },
        Inst::Memset { dst, val, len } => MicroOp::Memset { dst, val, len },
        Inst::Svc { imm } => MicroOp::Svc { imm },
        Inst::Halt => MicroOp::Halt,
        Inst::Nop => MicroOp::Nop,
    }
}
