//! Device time is lazy: devices see the machine's device clock only
//! when firmware touches them or the interpreter polls for interrupts.
//! These tests pin the two properties that make that equivalent to
//! advancing every device on every instruction: only instruction-charged
//! cycles count as device time, and the device clock survives
//! snapshot/restore and park/unpark exactly.

use opec::apps::programs::{camera, pinlock, App};
use opec::devices::map::bases;
use opec::devices::Uart;
use opec::prelude::*;

const FUEL: u64 = 50_000_000;

/// Quantum a fleet device runs before it is parked.
const QUANTUM: u64 = 500;

/// Everything a run leaves observable: instructions, both clocks, UART
/// output and the button latch.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    insts: u64,
    cycles: u64,
    device_clock: u64,
    uart_tx: Vec<u8>,
    button: u32,
}

fn opec_vm(app: &App) -> Vm<OpecMonitor> {
    let (module, specs) = (app.build)();
    let out = compile(module, app.board, &specs).expect("app compiles");
    let mut machine = Machine::new(app.board);
    (app.setup)(&mut machine);
    Vm::builder(machine, out.image)
        .supervisor(OpecMonitor::new(out.policy))
        .build()
        .expect("image loads")
}

fn observe(vm: &mut Vm<OpecMonitor>) -> Observed {
    let machine = &mut vm.machine;
    let uart_tx = machine.device_as::<Uart>("USART2").expect("USART2").take_tx();
    Observed {
        insts: vm.stats.insts,
        cycles: machine.clock.now(),
        device_clock: machine.device_clock(),
        uart_tx,
        button: machine.load(bases::EXTI, 4, Mode::Privileged).expect("button latch"),
    }
}

fn straight_run(app: &App) -> Observed {
    let mut vm = opec_vm(app);
    vm.boot().expect("boot");
    assert!(matches!(vm.resume(FUEL), Ok(RunOutcome::Halted { .. })), "{} halts", app.name);
    observe(&mut vm)
}

/// The fleet pattern: fork from a golden post-boot snapshot, run one
/// quantum, park, restore the golden image, unpark, next quantum.
fn quantum_run(app: &App) -> Observed {
    let mut vm = opec_vm(app);
    vm.boot().expect("boot");
    let golden = vm.snapshot().expect("snapshot");
    let mut parked = None;
    for _ in 0..FUEL / QUANTUM {
        vm.restore(&golden);
        if let Some(delta) = &parked {
            vm.unpark(delta).expect("unpark");
        }
        match vm.resume(QUANTUM) {
            Err(VmError::OutOfFuel) => parked = Some(vm.park().expect("park")),
            Ok(RunOutcome::Halted { .. }) => return observe(&mut vm),
            other => panic!("{}: unexpected outcome {other:?}", app.name),
        }
    }
    panic!("{} did not halt", app.name);
}

/// UART byte pacing (PinLock) and block busy periods, the capture delay
/// and the scheduled button press (Camera) all straddle quantum
/// boundaries; parking and unparking every 500 instructions must not
/// move any of them by a cycle.
#[test]
fn park_unpark_quanta_match_a_straight_run() {
    for app in [pinlock::app(), camera::app()] {
        let straight = straight_run(&app);
        assert!(straight.device_clock > 100 * QUANTUM, "{}: run spans many quanta", app.name);
        assert_eq!(quantum_run(&app), straight, "{}", app.name);
    }
}

/// A snapshot taken mid-run, restored and replayed, reproduces the
/// straight run: device deadlines are relative to a device clock the
/// snapshot carries.
#[test]
fn snapshot_restore_mid_wait_replays_identically() {
    let app = pinlock::app();
    let straight = straight_run(&app);
    let mut vm = opec_vm(&app);
    vm.boot().expect("boot");
    assert!(matches!(vm.resume(25_000), Err(VmError::OutOfFuel)));
    let snap = vm.snapshot().expect("snapshot");
    assert!(matches!(vm.resume(FUEL), Ok(RunOutcome::Halted { .. })));
    vm.restore(&snap);
    assert!(matches!(vm.resume(FUEL), Ok(RunOutcome::Halted { .. })));
    assert_eq!(observe(&mut vm), straight);
}

/// Device time counts only the cycles the interpreter charges for
/// instructions. The baseline build has no monitor, so both clocks
/// agree; under OPEC the monitor's switch work advances the cycle clock
/// alone.
#[test]
fn monitor_cycles_do_not_advance_device_time() {
    let app = pinlock::app();
    let (module, _) = (app.build)();
    let image = link_baseline(module, app.board).expect("link");
    let mut machine = Machine::new(app.board);
    (app.setup)(&mut machine);
    let mut vm = Vm::builder(machine, image).build().expect("image loads");
    assert!(matches!(vm.run(FUEL), Ok(RunOutcome::Halted { .. })));
    assert_eq!(vm.machine.device_clock(), vm.machine.clock.now());

    let mut vm = opec_vm(&app);
    assert!(matches!(vm.run(FUEL), Ok(RunOutcome::Halted { .. })));
    assert!(vm.supervisor.stats.switches > 0);
    assert!(vm.machine.device_clock() < vm.machine.clock.now());
}
