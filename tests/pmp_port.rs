//! Portability check (paper §7): the PMP backend enforces the same
//! decisions as the ARM MPU backend — address by address, over a
//! compiled application's real policy, with both protection units
//! programmed through the same [`RegionPlan`] switch path the monitor
//! uses.

use opec::prelude::*;
use opec_armv7m::mpu::MpuDecision;
use opec_armv7m::Machine;
use opec_core::backend::{ArmRegionPlan, Armv7mBackend, Backend, RegionPlan};
use opec_pmp::{PmpPlan, Rv32PmpBackend};

/// Programs a fresh machine for `op` through `plan`'s switch path,
/// exactly as `OpecMonitor::apply_protection` does.
fn machine_for(
    backend: &dyn Backend,
    plan: &dyn RegionPlan,
    policy: &opec::core::SystemPolicy,
    op: u8,
    boundary: u32,
) -> Machine {
    let mut machine = backend.make_machine(policy.board);
    plan.apply_op(&mut machine, op, boundary).unwrap();
    backend.enable(&mut machine).unwrap();
    machine
}

#[test]
fn pmp_backend_matches_the_arm_mpu_for_pinlock() {
    let (module, specs) = opec_apps::programs::pinlock::build();
    let out = opec::core::compile(module, Board::stm32f4_discovery(), &specs).unwrap();
    let policy = &out.policy;

    for op in 0..policy.ops.len() as u8 {
        // A boundary both backends can express exactly: a sub-region
        // multiple (the top eighth protected, as the monitor computes
        // on the first switch). PMP can do better — see the byte-exact
        // test below — but lockstep comparison needs common ground.
        let boundary = policy.stack.base + 7 * (policy.stack.size / 8);
        let arm = machine_for(&Armv7mBackend, &ArmRegionPlan::new(policy), policy, op, boundary);
        let pmp = machine_for(&Rv32PmpBackend, &PmpPlan::new(policy), policy, op, boundary);

        // Probe addresses across every interesting window.
        let mut probes: Vec<u32> = vec![
            policy.board.flash.base + 0x100,
            policy.public_section.base,
            policy.reloc_table.base,
            policy.stack.base,
            policy.stack.base + 0x10,
            boundary.saturating_sub(4),
            boundary,
            policy.stack.end() - 4,
        ];
        for p in &policy.ops {
            probes.push(p.section.base);
            probes.push(p.section.base + p.section.size - 4);
        }
        // Only the windows both backends preload statically (ARM has
        // four reserved MPU regions; covers past them are granted
        // on-demand by virtualization on either backend).
        for w in policy.op(op).periph_windows.iter().take(4) {
            probes.push(w.base);
            probes.push(w.end() - 4);
        }
        for addr in probes {
            for write in [false, true] {
                let a = arm.protection().check_data(addr, 4, write, Mode::Unprivileged)
                    == MpuDecision::Allowed;
                let r = pmp.protection().check_data(addr, 4, write, Mode::Unprivileged)
                    == MpuDecision::Allowed;
                assert_eq!(
                    a, r,
                    "op {op} divergence at {addr:#010x} (write={write}): ARM {a}, PMP {r}"
                );
            }
        }
    }
}

#[test]
fn pmp_stack_protection_is_byte_exact() {
    // PMP's TOR bound expresses the stack protection without the
    // MPU's eighth-of-region granularity: the boundary can be any
    // word-aligned address.
    let (module, specs) = opec_apps::programs::pinlock::build();
    let out = opec::core::compile(module, Board::stm32f4_discovery(), &specs).unwrap();
    let policy = &out.policy;
    let boundary = policy.stack.base + 0x123 * 4; // arbitrary, word-aligned
    let machine = machine_for(&Rv32PmpBackend, &PmpPlan::new(policy), policy, 1, boundary);
    let unit = machine.protection();
    assert_eq!(unit.check_data(boundary - 4, 4, true, Mode::Unprivileged), MpuDecision::Allowed);
    assert_eq!(unit.check_data(boundary, 4, true, Mode::Unprivileged), MpuDecision::Denied);
    // The protected area is still readable (the SRAM background).
    assert_eq!(unit.check_data(boundary, 4, false, Mode::Unprivileged), MpuDecision::Allowed);
}

#[test]
fn pmp_virtualization_grants_on_demand() {
    // The PMP backend's reserved entries swap peripheral covers in
    // just like ARM MPU virtualization (paper §5.2), through the same
    // RegionPlan::virtualize surface.
    let (module, specs) = opec_apps::programs::pinlock::build();
    let out = opec::core::compile(module, Board::stm32f4_discovery(), &specs).unwrap();
    let policy = &out.policy;
    let backend = Rv32PmpBackend;
    let plan = PmpPlan::new(policy);
    // Find an operation with at least one peripheral cover.
    let Some(op) = (0..policy.ops.len() as u8).find(|&o| !policy.op(o).periph_covers.is_empty())
    else {
        return;
    };
    let mut machine = backend.make_machine(policy.board);
    // Program with no peripheral preload by using a plan-driven apply
    // then clobbering the virt entries: simplest is to virtualize into
    // a different slot and check the window opens there.
    plan.apply_op(&mut machine, op, policy.stack.end()).unwrap();
    backend.enable(&mut machine).unwrap();
    let window = policy.op(op).periph_windows[0];
    assert_eq!(
        machine.protection().check_data(window.base, 4, true, Mode::Unprivileged),
        MpuDecision::Allowed
    );
    // Re-virtualizing the same window into the last slot keeps it
    // reachable (lowest-entry-wins means the preloaded entry already
    // grants; the call must still succeed and program the slot).
    plan.virtualize(&mut machine, op, 0, backend.virt_slots() - 1).unwrap();
    let unit = machine.protection().as_any().downcast_ref::<opec_pmp::PmpUnit>().unwrap();
    let slot_entry = unit.pmp.entry(usize::from(backend.virt_slot_label(backend.virt_slots() - 1)));
    assert_eq!(slot_entry, plan.periph_entries(op)[0]);
}
