//! DMA stream configuration and descriptor callbacks (`hal_dma.c`).
//!
//! Real drivers park their transfer-complete callbacks in DMA stream
//! descriptors; the pointer round-trips through *device* memory, which
//! no points-to analysis can track. Those icall sites are therefore
//! resolved by the **type-based fallback** (paper §4.1) — and since the
//! fallback matches any function with the same shape, it also picks up
//! spurious candidates like `HAL_NVIC_SetPriority`, reproducing the
//! paper's over-approximation effects (Table 3's `#Type` column and the
//! spurious-target contribution to ET in §6.4).
//!
//! Stream descriptor slots in the DMA2 register window:
//!
//! | Offset | Stream owner |
//! |--------|--------------|
//! | 0x10   | SDIO rx      |
//! | 0x14   | SDIO tx      |
//! | 0x18   | ETH rx       |
//! | 0x1C   | ETH tx       |
//! | 0x20   | LCD blit     |
//! | 0x24   | DCMI frame   |
//! | 0x28   | USB bulk     |

use opec_devices::map::bases;
use opec_ir::module::BinOp;
use opec_ir::types::{ParamKind, SigKey};
use opec_ir::{FunctionBuilder, Operand, SigId, Ty};

use crate::builder::Ctx;

/// Descriptor slot offsets within the DMA2 window.
pub mod slots {
    /// SDIO receive stream.
    pub const SD_RX: u32 = 0x10;
    /// SDIO transmit stream.
    pub const SD_TX: u32 = 0x14;
    /// Ethernet receive stream.
    pub const ETH_RX: u32 = 0x18;
    /// Ethernet transmit stream.
    pub const ETH_TX: u32 = 0x1C;
    /// LCD blit stream.
    pub const LCD: u32 = 0x20;
    /// DCMI frame stream.
    pub const DCMI: u32 = 0x24;
    /// USB bulk stream.
    pub const USB: u32 = 0x28;
}

/// The descriptor-callback signature: `(stream, len) -> void`.
pub fn cb_sig() -> SigKey {
    SigKey { params: vec![ParamKind::Int, ParamKind::Int], ret: None }
}

/// Registers the DMA family: stream init plus the four generic stream
/// callbacks the drivers park in descriptors.
pub fn build(cx: &mut Ctx) {
    cx.global("dma_cplt_count", Ty::I32, "hal_dma.c");
    cx.global("dma_error_count", Ty::I32, "hal_dma.c");

    for (name, counter) in [
        ("DMA_Stream_TxCplt", "dma_cplt_count"),
        ("DMA_Stream_RxCplt", "dma_cplt_count"),
        ("DMA_Stream_HalfCplt", "dma_cplt_count"),
        ("DMA_Stream_Error", "dma_error_count"),
    ] {
        let g = cx.g(counter);
        cx.def(name, vec![("stream", Ty::I32), ("len", Ty::I32)], None, "hal_dma.c", move |fb| {
            let v = fb.load_global(g, 0, 4);
            let v2 = fb.bin(BinOp::Add, Operand::Reg(v), Operand::Imm(1));
            fb.store_global(g, 0, Operand::Reg(v2), 4);
            fb.ret_void();
        });
    }

    cx.def("HAL_DMA_Init", vec![("stream", Ty::I32)], None, "hal_dma.c", {
        let clk = cx.f("LL_RCC_DMA2_CLK_ENABLE");
        move |fb| {
            fb.call_void(clk, vec![]);
            // Stream priority/config registers (storage in the model).
            fb.mmio_write(bases::DMA2 + 0x30, Operand::Reg(fb.param(0)), 4);
            fb.ret_void();
        }
    });
}

/// Emits the transfer-time half of the descriptor pattern: read the
/// descriptor at `slot` back out of the device and invoke it (guarded
/// against an unparked stream). This is the icall the points-to
/// analysis cannot resolve.
pub fn emit_fire_callback(
    fb: &mut FunctionBuilder<'_>,
    sig: SigId,
    slot: u32,
    stream: u32,
    len: Operand,
) {
    let cb = fb.mmio_read(bases::DMA2 + slot, 4);
    let fire = fb.block();
    let done = fb.block();
    fb.cond_br(Operand::Reg(cb), fire, done);
    fb.switch_to(fire);
    fb.icall_void(Operand::Reg(cb), sig, vec![Operand::Imm(stream), len]);
    fb.br(done);
    fb.switch_to(done);
}

#[cfg(test)]
mod tests {
    use super::*;
    use opec_analysis::{CallGraph, IcallResolution, PointsTo};

    #[test]
    fn descriptor_callbacks_are_type_resolved_not_pt_resolved() {
        let mut cx = Ctx::new("t");
        crate::hal::sysclk::build(&mut cx);
        crate::hal::gpio::build(&mut cx);
        build(&mut cx);
        let sig = cx.mb.sig(cb_sig());
        // A driver that parks the callback at init and fires it on
        // transfer completion.
        cx.def("drv_start", vec![], None, "drv.c", {
            let cb = cx.f("DMA_Stream_RxCplt");
            move |fb| {
                let p = fb.addr_of_func(cb);
                fb.mmio_write(opec_devices::map::bases::DMA2 + slots::SD_RX, Operand::Reg(p), 4);
                fb.ret_void();
            }
        });
        let xfer = cx.def("drv_xfer", vec![], None, "drv.c", move |fb| {
            emit_fire_callback(fb, sig, slots::SD_RX, 3, Operand::Imm(512));
            fb.ret_void();
        });
        cx.def("main", vec![], None, "main.c", {
            let start = cx.f("drv_start");
            let x = cx.f("drv_xfer");
            move |fb| {
                fb.call_void(start, vec![]);
                fb.call_void(x, vec![]);
                fb.ret_void();
            }
        });
        let m = cx.finish();
        opec_ir::validate(&m).unwrap();
        let pt = PointsTo::analyze(&m);
        let cg = CallGraph::build(&m, &pt);
        let site =
            cg.icall_sites.iter().find(|s| s.site.func == xfer).expect("the descriptor icall site");
        // Points-to cannot see through device memory; the type fallback
        // resolves it, over-approximately.
        assert_eq!(site.resolution, IcallResolution::TypeBased);
        let target_names: Vec<&str> =
            site.targets.iter().map(|f| m.func(*f).name.as_str()).collect();
        assert!(target_names.contains(&"DMA_Stream_RxCplt"));
        // The spurious same-shape candidate is included too.
        assert!(target_names.contains(&"HAL_NVIC_SetPriority"));
    }
}
