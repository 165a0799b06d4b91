use super::*;
use crate::image::link_baseline;
use crate::supervisor::NullSupervisor;
use opec_armv7m::mpu::{MpuRegion, RegionAttr};
use opec_armv7m::{Board, FaultInfo};
use opec_ir::{ModuleBuilder, Ty};

fn boot<S: Supervisor>(module: opec_ir::Module, supervisor: S) -> Vm<S> {
    let board = Board::stm32f4_discovery();
    let image = link_baseline(module, board).unwrap();
    Vm::builder(Machine::new(board), image).supervisor(supervisor).build().unwrap()
}

#[test]
fn arithmetic_and_return_value() {
    let mut mb = ModuleBuilder::new("t");
    let add = mb.func("add", vec![("a", Ty::I32), ("b", Ty::I32)], Some(Ty::I32), "a.c", |fb| {
        let s = fb.bin(BinOp::Add, Operand::Reg(fb.param(0)), Operand::Reg(fb.param(1)));
        fb.ret(Operand::Reg(s));
    });
    mb.func("main", vec![], Some(Ty::I32), "a.c", |fb| {
        let r = fb.call(add, vec![Operand::Imm(40), Operand::Imm(2)]);
        fb.ret(Operand::Reg(r));
    });
    let mut vm = boot(mb.finish(), NullSupervisor);
    let out = vm.run(DEFAULT_FUEL).unwrap();
    assert_eq!(out, RunOutcome::Returned { value: Some(42), cycles: out.cycles() });
    assert!(out.cycles() > 0);
}

#[test]
fn global_roundtrip_and_initialiser() {
    let mut mb = ModuleBuilder::new("t");
    let g = mb.global_init("counter", Ty::I32, vec![5, 0, 0, 0], "a.c");
    mb.func("main", vec![], Some(Ty::I32), "a.c", |fb| {
        let v = fb.load_global(g, 0, 4);
        let v2 = fb.bin(BinOp::Mul, Operand::Reg(v), Operand::Imm(3));
        fb.store_global(g, 0, Operand::Reg(v2), 4);
        let v3 = fb.load_global(g, 0, 4);
        fb.ret(Operand::Reg(v3));
    });
    let mut vm = boot(mb.finish(), NullSupervisor);
    match vm.run(DEFAULT_FUEL).unwrap() {
        RunOutcome::Returned { value, .. } => assert_eq!(value, Some(15)),
        other => panic!("unexpected outcome {other:?}"),
    }
}

#[test]
fn locals_live_on_the_simulated_stack() {
    let mut mb = ModuleBuilder::new("t");
    mb.func("main", vec![], Some(Ty::I32), "a.c", |fb| {
        let buf = fb.local("buf", Ty::Array(Box::new(Ty::I8), 16));
        let p = fb.addr_of_local(buf, 0);
        fb.memset(Operand::Reg(p), Operand::Imm(0x41), Operand::Imm(16));
        let last = fb.addr_of_local(buf, 15);
        let v = fb.load(Operand::Reg(last), 1);
        fb.ret(Operand::Reg(v));
    });
    let mut vm = boot(mb.finish(), NullSupervisor);
    match vm.run(DEFAULT_FUEL).unwrap() {
        RunOutcome::Returned { value, .. } => assert_eq!(value, Some(0x41)),
        other => panic!("unexpected outcome {other:?}"),
    }
    // SP restored after main's frame pops.
    assert_eq!(vm.sp(), vm.image.stack.end());
}

#[test]
fn six_arguments_spill_to_stack() {
    let mut mb = ModuleBuilder::new("t");
    let sum6 = mb.func(
        "sum6",
        vec![
            ("a", Ty::I32),
            ("b", Ty::I32),
            ("c", Ty::I32),
            ("d", Ty::I32),
            ("e", Ty::I32),
            ("f", Ty::I32),
        ],
        Some(Ty::I32),
        "a.c",
        |fb| {
            let mut acc = fb.param(0);
            for i in 1..6 {
                acc = fb.bin(BinOp::Add, Operand::Reg(acc), Operand::Reg(fb.param(i)));
            }
            fb.ret(Operand::Reg(acc));
        },
    );
    mb.func("main", vec![], Some(Ty::I32), "a.c", |fb| {
        let r = fb.call(
            sum6,
            vec![
                Operand::Imm(1),
                Operand::Imm(2),
                Operand::Imm(3),
                Operand::Imm(4),
                Operand::Imm(5),
                Operand::Imm(6),
            ],
        );
        fb.ret(Operand::Reg(r));
    });
    let mut vm = boot(mb.finish(), NullSupervisor);
    match vm.run(DEFAULT_FUEL).unwrap() {
        RunOutcome::Returned { value, .. } => assert_eq!(value, Some(21)),
        other => panic!("unexpected outcome {other:?}"),
    }
}

#[test]
fn indirect_call_through_function_address() {
    let mut mb = ModuleBuilder::new("t");
    let twice = mb.func("twice", vec![("x", Ty::I32)], Some(Ty::I32), "a.c", |fb| {
        let r = fb.bin(BinOp::Mul, Operand::Reg(fb.param(0)), Operand::Imm(2));
        fb.ret(Operand::Reg(r));
    });
    let sig = mb.sig_of(twice);
    mb.func("main", vec![], Some(Ty::I32), "a.c", |fb| {
        let fp = fb.addr_of_func(twice);
        let r = fb.icall(Operand::Reg(fp), sig, vec![Operand::Imm(21)]);
        fb.ret(Operand::Reg(r));
    });
    let mut vm = boot(mb.finish(), NullSupervisor);
    match vm.run(DEFAULT_FUEL).unwrap() {
        RunOutcome::Returned { value, .. } => assert_eq!(value, Some(42)),
        other => panic!("unexpected outcome {other:?}"),
    }
}

#[test]
fn bogus_indirect_call_is_an_error() {
    let mut mb = ModuleBuilder::new("t");
    let sig = mb.sig(opec_ir::types::SigKey { params: vec![], ret: None });
    mb.func("main", vec![], None, "a.c", |fb| {
        fb.icall_void(Operand::Imm(0xDEAD_BEEF), sig, vec![]);
        fb.ret_void();
    });
    let mut vm = boot(mb.finish(), NullSupervisor);
    assert_eq!(vm.run(DEFAULT_FUEL).unwrap_err(), VmError::BadIndirectCall { target: 0xDEAD_BEEF });
}

#[test]
fn halt_ends_the_run() {
    let mut mb = ModuleBuilder::new("t");
    mb.func("main", vec![], None, "a.c", |fb| {
        fb.nop();
        fb.halt();
        fb.ret_void();
    });
    let mut vm = boot(mb.finish(), NullSupervisor);
    assert!(matches!(vm.run(DEFAULT_FUEL).unwrap(), RunOutcome::Halted { .. }));
}

#[test]
fn infinite_loop_runs_out_of_fuel() {
    let mut mb = ModuleBuilder::new("t");
    mb.func("main", vec![], None, "a.c", |fb| {
        let spin = fb.block();
        fb.br(spin);
        fb.switch_to(spin);
        fb.br(spin);
    });
    let mut vm = boot(mb.finish(), NullSupervisor);
    assert_eq!(vm.run(10_000).unwrap_err(), VmError::OutOfFuel);
}

fn spin_module() -> opec_ir::Module {
    let mut mb = ModuleBuilder::new("t");
    mb.func("main", vec![], None, "a.c", |fb| {
        let spin = fb.block();
        fb.br(spin);
        fb.switch_to(spin);
        fb.br(spin);
    });
    mb.finish()
}

#[test]
fn unpark_refuses_a_delta_from_another_golden_snapshot() {
    let mut mb = ModuleBuilder::new("t");
    let g = mb.global_init("counter", Ty::I32, vec![0; 4], "a.c");
    mb.func("main", vec![], None, "a.c", |fb| {
        let spin = fb.block();
        fb.br(spin);
        fb.switch_to(spin);
        let v = fb.load_global(g, 0, 4);
        let v2 = fb.bin(BinOp::Add, Operand::Reg(v), Operand::Imm(1));
        fb.store_global(g, 0, Operand::Reg(v2), 4);
        fb.br(spin);
    });
    let mut vm = boot(mb.finish(), NullSupervisor);
    let GlobalSlot::Fixed(addr) = vm.image.global_slots[g.0 as usize] else {
        panic!("baseline globals live at fixed addresses");
    };
    let counter = |vm: &Vm<NullSupervisor>| vm.machine.peek(addr, 4).unwrap();
    vm.boot().unwrap();
    let Ok(golden) = vm.snapshot();
    assert_eq!(vm.resume(200).unwrap_err(), VmError::OutOfFuel);
    let parked = vm.park().unwrap();
    let parked_count = counter(&vm);
    assert!(parked_count > 0);

    // Re-snapshotting moves the lineage; the old delta no longer fits.
    vm.restore(&golden);
    let Ok(_other) = vm.snapshot();
    assert_eq!(vm.resume(50).unwrap_err(), VmError::OutOfFuel);
    let (count, stats) = (counter(&vm), vm.stats);
    assert!(vm.unpark(&parked).is_err());
    assert_eq!(counter(&vm), count);
    assert_eq!(vm.stats, stats);

    // Restored to its own golden snapshot, the delta applies.
    vm.restore(&golden);
    vm.unpark(&parked).unwrap();
    assert_eq!(counter(&vm), parked_count);
}

#[test]
fn expired_deadline_times_out_in_both_exec_modes() {
    for mode in [ExecMode::Plain, ExecMode::Decoded] {
        let board = Board::stm32f4_discovery();
        let image = link_baseline(spin_module(), board).unwrap();
        let mut vm = Vm::builder(Machine::new(board), image)
            .supervisor(NullSupervisor)
            .exec_mode(mode)
            .deadline(std::time::Instant::now())
            .build()
            .unwrap();
        assert_eq!(vm.run(DEFAULT_FUEL).unwrap_err(), VmError::TimedOut, "{mode:?}");
    }
}

#[test]
fn fuel_exhaustion_wins_under_a_live_deadline() {
    let board = Board::stm32f4_discovery();
    let image = link_baseline(spin_module(), board).unwrap();
    let mut vm = Vm::builder(Machine::new(board), image)
        .supervisor(NullSupervisor)
        .deadline(std::time::Instant::now() + std::time::Duration::from_secs(3600))
        .build()
        .unwrap();
    assert_eq!(vm.run(10_000).unwrap_err(), VmError::OutOfFuel);
}

#[test]
fn generous_deadline_does_not_perturb_a_terminating_run() {
    let mut mb = ModuleBuilder::new("t");
    mb.func("main", vec![], Some(Ty::I32), "a.c", |fb| {
        fb.ret(Operand::Imm(42));
    });
    let mut vm = boot(mb.finish(), NullSupervisor);
    vm.set_deadline(Some(std::time::Instant::now() + std::time::Duration::from_secs(3600)));
    let out = vm.run(DEFAULT_FUEL).unwrap();
    assert_eq!(out, RunOutcome::Returned { value: Some(42), cycles: out.cycles() });
}

#[test]
fn mpu_violation_aborts_under_null_supervisor() {
    let mut mb = ModuleBuilder::new("t");
    mb.func("main", vec![], None, "a.c", |fb| {
        let p = fb.imm(0x2001_0000);
        fb.store(Operand::Reg(p), Operand::Imm(7), 4);
        fb.ret_void();
    });
    let board = Board::stm32f4_discovery();
    let mut image = link_baseline(mb.finish(), board).unwrap();
    image.app_mode = Mode::Unprivileged;
    let mut machine = Machine::new(board);
    machine.mpu_mut().enabled = true;
    // Stack + code accessible, but not 0x20010000.
    machine
        .mpu_mut()
        .set_region(1, MpuRegion::new(0x0800_0000, 0x10_0000, RegionAttr::read_only(false)))
        .unwrap();
    machine
        .mpu_mut()
        .set_region(2, MpuRegion::new(0x2002_0000, 0x1_0000, RegionAttr::read_write_xn()))
        .unwrap();
    let mut vm = Vm::builder(machine, image).build().unwrap();
    match vm.run(DEFAULT_FUEL).unwrap_err() {
        VmError::Aborted { trap, .. } => assert!(trap.to_string().contains("MemManage")),
        other => panic!("unexpected error {other:?}"),
    }
}

/// A supervisor that records operation switches and emulates one PPB
/// access.
#[derive(Default)]
struct Recorder {
    enters: Vec<(u8, u32)>,
    exits: Vec<u8>,
    emulated: u32,
}

impl Supervisor for Recorder {
    fn on_reset(&mut self, machine: &mut Machine) -> Result<(), TrapError> {
        machine.mode = Mode::Unprivileged;
        Ok(())
    }

    fn on_operation_enter(
        &mut self,
        _machine: &mut Machine,
        req: &mut SwitchRequest<'_>,
    ) -> Result<(), TrapError> {
        self.enters.push((req.op, req.args.first().copied().unwrap_or(0)));
        Ok(())
    }

    fn on_operation_exit(
        &mut self,
        _machine: &mut Machine,
        req: &mut SwitchRequest<'_>,
    ) -> Result<(), TrapError> {
        self.exits.push(req.op);
        Ok(())
    }

    fn on_mem_fault(
        &mut self,
        _machine: &mut Machine,
        fault: FaultInfo,
        _cpu: &mut CpuContext,
    ) -> FaultFixup {
        FaultFixup::Abort(format!("mem fault at {:#010x}", fault.address).into())
    }

    fn on_bus_fault(
        &mut self,
        _machine: &mut Machine,
        _fault: FaultInfo,
        cpu: &mut CpuContext,
    ) -> FaultFixup {
        self.emulated += 1;
        // The transfer register is in r0..=r5 by the VM's mapping; set
        // them all so the load observes the emulated value.
        for r in 0..6 {
            cpu.set_reg(r, 0xCAFE);
        }
        FaultFixup::Emulated
    }
}

#[test]
fn operation_entries_raise_switch_events() {
    let mut mb = ModuleBuilder::new("t");
    let task = mb.func("task", vec![("x", Ty::I32)], None, "a.c", |fb| fb.ret_void());
    mb.func("main", vec![], None, "a.c", |fb| {
        fb.call_void(task, vec![Operand::Imm(9)]);
        fb.call_void(task, vec![Operand::Imm(11)]);
        fb.ret_void();
    });
    let board = Board::stm32f4_discovery();
    let mut image = link_baseline(mb.finish(), board).unwrap();
    let task_id = image.module.func_by_name("task").unwrap();
    image.op_entries.insert(task_id, 3);
    let trace = std::rc::Rc::new(std::cell::RefCell::new(crate::trace::Trace::new()));
    let mut vm = Vm::builder(Machine::new(board), image)
        .supervisor(Recorder::default())
        .obs(Obs::single(trace.clone()))
        .build()
        .unwrap();
    vm.run(DEFAULT_FUEL).unwrap();
    assert_eq!(vm.supervisor.enters, vec![(3, 9), (3, 11)]);
    assert_eq!(vm.supervisor.exits, vec![3, 3]);
    assert_eq!(vm.stats.op_enters, 2);
    let trace = trace.borrow();
    assert_eq!(trace.op_switches(), 2);
    assert_eq!(trace.tasks().len(), 2);
}

#[test]
fn unprivileged_ppb_access_is_emulated_by_supervisor() {
    let mut mb = ModuleBuilder::new("t");
    mb.func("main", vec![], Some(Ty::I32), "a.c", |fb| {
        // SysTick CSR read: PPB, so unprivileged access bus-faults.
        let v = fb.mmio_read(0xE000_E010, 4);
        fb.ret(Operand::Reg(v));
    });
    let mut vm = boot(mb.finish(), Recorder::default());
    match vm.run(DEFAULT_FUEL).unwrap() {
        RunOutcome::Returned { value, .. } => assert_eq!(value, Some(0xCAFE)),
        other => panic!("unexpected outcome {other:?}"),
    }
    assert_eq!(vm.supervisor.emulated, 1);
    assert_eq!(vm.stats.faults_emulated, 1);
}

#[test]
fn retry_fixup_reexecutes_the_access() {
    /// Grants an MPU region on first fault, then lets the access retry.
    struct Granter;
    impl Supervisor for Granter {
        fn on_reset(&mut self, machine: &mut Machine) -> Result<(), TrapError> {
            machine.mpu_mut().enabled = true;
            machine.mode = Mode::Unprivileged;
            // Code + stack accessible; peripheral not yet mapped.
            machine
                .mpu_mut()
                .set_region(1, MpuRegion::new(0x0800_0000, 0x10_0000, RegionAttr::read_only(false)))
                .map_err(|e| TrapError::internal(e.to_string()))?;
            machine
                .mpu_mut()
                .set_region(2, MpuRegion::new(0x2000_0000, 0x4_0000, RegionAttr::read_write_xn()))
                .map_err(|e| TrapError::internal(e.to_string()))?;
            Ok(())
        }
        fn on_operation_enter(
            &mut self,
            _m: &mut Machine,
            _r: &mut SwitchRequest<'_>,
        ) -> Result<(), TrapError> {
            Ok(())
        }
        fn on_operation_exit(
            &mut self,
            _m: &mut Machine,
            _r: &mut SwitchRequest<'_>,
        ) -> Result<(), TrapError> {
            Ok(())
        }
        fn on_mem_fault(
            &mut self,
            machine: &mut Machine,
            fault: FaultInfo,
            _cpu: &mut CpuContext,
        ) -> FaultFixup {
            // Map the faulting peripheral page and retry — the MPU
            // virtualization pattern.
            let base = fault.address & !0x3FF;
            machine
                .mpu_mut()
                .set_region(4, MpuRegion::new(base, 0x400, RegionAttr::read_write_xn()))
                .unwrap();
            FaultFixup::Retry
        }
        fn on_bus_fault(
            &mut self,
            _machine: &mut Machine,
            fault: FaultInfo,
            _cpu: &mut CpuContext,
        ) -> FaultFixup {
            FaultFixup::Abort(format!("bus fault at {:#010x}", fault.address).into())
        }
    }

    #[derive(Clone)]
    struct Dummy;
    impl opec_armv7m::MmioDevice for Dummy {
        fn name(&self) -> &str {
            "dummy"
        }
        fn region(&self) -> opec_armv7m::MemRegion {
            opec_armv7m::MemRegion::new(0x4000_0000, 0x400)
        }
        fn read(&mut self, _o: u32, _l: u32, _now: u64) -> u32 {
            0x77
        }
        fn write(&mut self, _o: u32, _l: u32, _v: u32, _now: u64) {}
    }

    let mut mb = ModuleBuilder::new("t");
    mb.func("main", vec![], Some(Ty::I32), "a.c", |fb| {
        let v = fb.mmio_read(0x4000_0000, 4);
        fb.ret(Operand::Reg(v));
    });
    let board = Board::stm32f4_discovery();
    let image = link_baseline(mb.finish(), board).unwrap();
    let mut machine = Machine::new(board);
    machine.add_device(Box::new(Dummy)).unwrap();
    let mut vm = Vm::builder(machine, image).supervisor(Granter).build().unwrap();
    match vm.run(DEFAULT_FUEL).unwrap() {
        RunOutcome::Returned { value, .. } => assert_eq!(value, Some(0x77)),
        other => panic!("unexpected outcome {other:?}"),
    }
    assert_eq!(vm.stats.faults_retried, 1);
}

#[test]
fn thumb_reg_mapping_is_disjoint() {
    for v in 0..40u32 {
        for a in 0..40u32 {
            let (rt, rn) = thumb_regs_for(Some(RegId(v)), Some(RegId(a)));
            assert!(rt < 6);
            assert!((6..12).contains(&rn));
        }
    }
    let (rt, rn) = thumb_regs_for(None, None);
    assert_eq!((rt, rn), (0, 6));
}

/// Module + machine where `main` calls operation entry `task` (op 3),
/// which performs a store to an address the MPU denies, and `main`
/// then returns `task`'s result plus 100. Returns the builder so tests
/// can add an injector or containment mode before building.
fn rogue_op_setup() -> VmBuilder<Recorder> {
    let mut mb = ModuleBuilder::new("t");
    let task = mb.func("task", vec![], Some(Ty::I32), "a.c", |fb| {
        let p = fb.imm(0x2001_0000);
        fb.store(Operand::Reg(p), Operand::Imm(7), 4);
        fb.ret(Operand::Imm(7));
    });
    mb.func("main", vec![], Some(Ty::I32), "a.c", |fb| {
        let r = fb.call(task, vec![]);
        let out = fb.bin(BinOp::Add, Operand::Reg(r), Operand::Imm(100));
        fb.ret(Operand::Reg(out));
    });
    let board = Board::stm32f4_discovery();
    let mut image = link_baseline(mb.finish(), board).unwrap();
    let task_id = image.module.func_by_name("task").unwrap();
    image.op_entries.insert(task_id, 3);
    let mut machine = Machine::new(board);
    machine.mpu_mut().enabled = true;
    machine
        .mpu_mut()
        .set_region(1, MpuRegion::new(0x0800_0000, 0x10_0000, RegionAttr::read_only(false)))
        .unwrap();
    machine
        .mpu_mut()
        .set_region(2, MpuRegion::new(0x2000_0000, 0x1_0000, RegionAttr::read_write_xn()))
        .unwrap();
    machine
        .mpu_mut()
        .set_region(3, MpuRegion::new(0x2002_F000, 0x1000, RegionAttr::read_write_xn()))
        .unwrap();
    Vm::builder(machine, image).supervisor(Recorder::default())
}

#[test]
fn quarantine_kills_only_the_offending_operation() {
    let mut vm = rogue_op_setup().containment(ContainmentMode::Quarantine).build().unwrap();
    match vm.run(DEFAULT_FUEL).unwrap() {
        // task's result is poisoned to 0; main still completes.
        RunOutcome::Returned { value, .. } => assert_eq!(value, Some(100)),
        other => panic!("unexpected outcome {other:?}"),
    }
    assert_eq!(vm.stats.quarantines, 1);
    assert_eq!(vm.contained.len(), 1);
    assert!(vm.contained[0].to_string().contains("mem fault"));
    // SP fully restored after the unwind + main's return.
    assert_eq!(vm.sp(), vm.image.stack.end());
    assert_eq!(vm.current_op(), 0);
}

#[test]
fn terminate_mode_reports_the_typed_trap() {
    let mut vm = rogue_op_setup().build().unwrap();
    match vm.run(DEFAULT_FUEL).unwrap_err() {
        VmError::Aborted { trap, .. } => assert!(trap.to_string().contains("mem fault")),
        other => panic!("unexpected error {other:?}"),
    }
    assert_eq!(vm.stats.quarantines, 0);
}

#[test]
fn hostile_injection_is_adjudicated_by_the_mpu() {
    use crate::inject::{InjectAction, InjectOutcome, ScheduledInjector};
    // Denied under the Recorder's unprivileged setup...
    let mut vm = rogue_op_setup()
        .injector(Box::new(ScheduledInjector::new(vec![(
            2,
            InjectAction::HostileStore { addr: 0x2001_0100, size: 4, value: 0x41 },
        )])))
        .build()
        .unwrap();
    let err = vm.run(DEFAULT_FUEL).unwrap_err();
    assert!(matches!(err, VmError::Aborted { .. }));
    assert!(vm
        .inject_log
        .iter()
        .any(|(_, outcome)| matches!(outcome, InjectOutcome::Trapped(t) if t.to_string().contains("mem fault"))));
    // ...but permitted (an escape) on the privileged, MPU-off baseline.
    let mut mb = ModuleBuilder::new("t");
    mb.func("main", vec![], None, "a.c", |fb| {
        for _ in 0..32 {
            fb.nop();
        }
        fb.halt();
        fb.ret_void();
    });
    let board = Board::stm32f4_discovery();
    let image = link_baseline(mb.finish(), board).unwrap();
    let mut vm = Vm::builder(Machine::new(board), image)
        .injector(Box::new(ScheduledInjector::new(vec![(
            2,
            InjectAction::HostileStore { addr: 0x2001_0100, size: 4, value: 0x41 },
        )])))
        .build()
        .unwrap();
    vm.run(DEFAULT_FUEL).unwrap();
    assert!(vm
        .inject_log
        .iter()
        .any(|(_, outcome)| matches!(outcome, InjectOutcome::AccessOk { .. })));
    assert_eq!(vm.machine.peek(0x2001_0100, 4), Some(0x41));
}

#[test]
fn armed_switch_corruption_fires_at_the_next_switch() {
    use crate::inject::{InjectAction, InjectOutcome, ScheduledInjector};
    let mut mb = ModuleBuilder::new("t");
    let task = mb.func("task", vec![("x", Ty::I32)], None, "a.c", |fb| fb.ret_void());
    mb.func("main", vec![], None, "a.c", |fb| {
        for _ in 0..8 {
            fb.nop();
        }
        fb.call_void(task, vec![Operand::Imm(9)]);
        fb.ret_void();
    });
    let board = Board::stm32f4_discovery();
    let mut image = link_baseline(mb.finish(), board).unwrap();
    let task_id = image.module.func_by_name("task").unwrap();
    image.op_entries.insert(task_id, 3);
    let mut vm = Vm::builder(Machine::new(board), image)
        .supervisor(Recorder::default())
        .injector(Box::new(ScheduledInjector::new(vec![
            (2, InjectAction::CorruptNextSwitchOp { bogus: 9 }),
            (2, InjectAction::CorruptNextSwitchArg { index: 0, value: 0xBAD }),
        ])))
        .build()
        .unwrap();
    vm.run(DEFAULT_FUEL).unwrap();
    // The supervisor saw the corrupted op id and argument.
    assert_eq!(vm.supervisor.enters, vec![(9, 0xBAD)]);
    let fired = vm
        .inject_log
        .iter()
        .filter(|(_, outcome)| matches!(outcome, InjectOutcome::Applied))
        .count();
    assert_eq!(fired, 2);
}

#[test]
fn flip_bit_injection_bypasses_the_mpu() {
    use crate::inject::{InjectAction, InjectOutcome, ScheduledInjector};
    let mut mb = ModuleBuilder::new("t");
    let g = mb.global_init("counter", Ty::I32, vec![0, 0, 0, 0], "a.c");
    mb.func("main", vec![], Some(Ty::I32), "a.c", |fb| {
        for _ in 0..32 {
            fb.nop();
        }
        let v = fb.load_global(g, 0, 4);
        fb.ret(Operand::Reg(v));
    });
    let board = Board::stm32f4_discovery();
    let image = link_baseline(mb.finish(), board).unwrap();
    let addr = match image.global_slots[0] {
        GlobalSlot::Fixed(a) => a,
        other => panic!("unexpected slot {other:?}"),
    };
    let mut vm = Vm::builder(Machine::new(board), image)
        .injector(Box::new(ScheduledInjector::new(vec![(
            2,
            InjectAction::FlipBit { addr, bit: 3 },
        )])))
        .build()
        .unwrap();
    match vm.run(DEFAULT_FUEL).unwrap() {
        RunOutcome::Returned { value, .. } => assert_eq!(value, Some(8)),
        other => panic!("unexpected outcome {other:?}"),
    }
    assert_eq!(
        vm.inject_log,
        vec![(InjectAction::FlipBit { addr, bit: 3 }, InjectOutcome::Applied)]
    );
}

#[test]
fn smash_caller_stack_is_skipped_when_no_caller_data_is_on_the_stack() {
    use crate::inject::{InjectAction, InjectOutcome, ScheduledInjector};
    let mut mb = ModuleBuilder::new("t");
    let task = mb.func("task", vec![], Some(Ty::I32), "a.c", |fb| {
        for _ in 0..8 {
            fb.nop();
        }
        fb.ret(Operand::Imm(7));
    });
    mb.func("main", vec![], Some(Ty::I32), "a.c", |fb| {
        let r = fb.call(task, vec![]);
        let out = fb.bin(BinOp::Add, Operand::Reg(r), Operand::Imm(100));
        fb.ret(Operand::Reg(out));
    });
    let board = Board::stm32f4_discovery();
    let mut image = link_baseline(mb.finish(), board).unwrap();
    let task_id = image.module.func_by_name("task").unwrap();
    image.op_entries.insert(task_id, 3);
    let mut vm = Vm::builder(Machine::new(board), image)
        .supervisor(Recorder::default())
        .injector(Box::new(ScheduledInjector::new(vec![(
            3,
            InjectAction::SmashCallerStack { value: 0x4141_4141 },
        )])))
        .build()
        .unwrap();
    // `main` passes no stack arguments, so the operation is entered
    // with the caller's stack empty: there is nothing to smash and the
    // action must degrade to Skipped rather than store anywhere.
    match vm.run(DEFAULT_FUEL).unwrap() {
        RunOutcome::Returned { value, .. } => assert_eq!(value, Some(107)),
        other => panic!("unexpected outcome {other:?}"),
    }
    assert_eq!(
        vm.inject_log,
        vec![(InjectAction::SmashCallerStack { value: 0x4141_4141 }, InjectOutcome::Skipped)]
    );
}

#[test]
fn deep_recursion_hits_frame_limit() {
    let mut mb = ModuleBuilder::new("t");
    let f = mb.declare("rec", vec![("n", Ty::I32)], None, "a.c");
    mb.define(f, |fb| {
        fb.call_void(f, vec![Operand::Reg(fb.param(0))]);
        fb.ret_void();
    });
    mb.func("main", vec![], None, "a.c", |fb| {
        fb.call_void(f, vec![Operand::Imm(0)]);
        fb.ret_void();
    });
    let mut vm = boot(mb.finish(), NullSupervisor);
    assert_eq!(vm.run(DEFAULT_FUEL).unwrap_err(), VmError::StackExhausted);
}
