//! The lockstep shadow monitor.
//!
//! A [`Watcher`] implementation that rides the VM step loop and checks
//! every resolved unprivileged access, every function entry and every
//! accepted operation switch against the ground-truth
//! [`AccessMatrix`]. Divergences are typed ([`Divergence`]) and also
//! emitted as [`Event::OracleDivergence`] observability events so they
//! land in the same timeline as the switches and faults they implicate.
//!
//! Two observation channels:
//!
//! * **Lockstep** — the outcome of accesses the firmware actually
//!   issued. Catches both escapes (allowed but matrix-denied) and
//!   spurious denials (aborted but matrix-allowed) on the exercised
//!   path.
//! * **Probes** — at every accepted switch the oracle asks the MPU
//!   model directly about sentinel addresses (other operations'
//!   sections, the public section, the relocation table, flash,
//!   foreign peripherals, the stack sub-region boundary). This catches
//!   over-privileged region files even when the firmware never touches
//!   the address. Peripheral windows are *not* Allow-probed: the
//!   virtualized ones legally read as denied until faulted in.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use opec_armv7m::mpu::MpuDecision;
use opec_armv7m::{Machine, Mode};
use opec_ir::FuncId;
use opec_obs::{Event, Obs, OpId, OracleKind, OracleLayer};
use opec_vm::supervisor::SwitchKind;
use opec_vm::{AccessKind, WatchedAccess, WatchedSwitch, Watcher};

use crate::divergence::{Divergence, Observed};
use crate::matrix::{AccessMatrix, Expect};

/// How many divergences are kept verbatim; the count keeps running.
const KEEP: usize = 64;

/// Everything the oracle accumulated over one run.
#[derive(Debug, Default)]
pub struct OracleState {
    /// Divergences, the first `KEEP` kept verbatim.
    pub divergences: Vec<Divergence>,
    /// Total divergences observed (may exceed `divergences.len()`).
    pub total_divergences: u64,
    /// Lockstep access checks performed.
    pub checks: u64,
    /// MPU probes performed.
    pub probes: u64,
    /// Accepted switches observed.
    pub switches: u64,
    /// Every function entered, per operation, any privilege level —
    /// mirrors the trace's attribution for ET cross-checks.
    pub exec: BTreeMap<OpId, BTreeSet<FuncId>>,
    /// Stack of (operation, write-deny boundary) for nested switches.
    boundaries: Vec<(OpId, u32)>,
    /// The oracle's own subject stack, mirrored from accepted switches.
    /// The VM's per-access op attribution falls back to id 0 at top
    /// level, which is wrong for ACES (the entry compartment need not
    /// be 0), so the oracle never relies on it.
    subjects: Vec<OpId>,
}

impl OracleState {
    fn record(&mut self, obs: &Obs, d: Divergence) {
        self.total_divergences += 1;
        obs.emit(|| Event::OracleDivergence {
            op: d.op,
            kind: d.kind,
            layer: d.layer,
            address: d.addr,
        });
        if self.divergences.len() < KEEP {
            self.divergences.push(d);
        }
    }
}

/// Shared handle to the oracle's state, usable after the VM (which owns
/// the watcher box) has been dropped.
pub struct OracleHandle(Rc<RefCell<OracleState>>);

impl OracleHandle {
    /// Takes the accumulated state, leaving an empty one behind.
    pub fn take(&self) -> OracleState {
        self.0.replace(OracleState::default())
    }
}

/// The watcher. Construct with [`shadow`].
pub struct ShadowOracle {
    matrix: Rc<AccessMatrix>,
    state: Rc<RefCell<OracleState>>,
    obs: Obs,
}

/// Builds a shadow oracle over `matrix`, returning the boxed watcher
/// (for [`opec_vm::VmBuilder::watcher`]) and a handle to read the
/// verdicts afterwards. The matrix is shared, so the caller can keep
/// it once the VM is gone. Matrix build-time anomalies are surfaced
/// immediately as analysis-layer divergences.
pub fn shadow(matrix: Rc<AccessMatrix>, obs: Obs) -> (Box<ShadowOracle>, OracleHandle) {
    let mut st = OracleState::default();
    for a in &matrix.anomalies {
        st.record(
            &obs,
            Divergence {
                op: 0,
                kind: OracleKind::SpuriousDenial,
                layer: OracleLayer::Analysis,
                observed: Observed::Exec,
                addr: 0,
                size: 0,
                pc: 0,
                detail: a.clone(),
            },
        );
    }
    let state = Rc::new(RefCell::new(st));
    let handle = OracleHandle(state.clone());
    (Box::new(ShadowOracle { matrix, state, obs }), handle)
}

impl ShadowOracle {
    /// The innermost stack write-deny boundary, if any operation with
    /// caller frames above it is active.
    fn boundary(&self, st: &OracleState) -> Option<u32> {
        st.boundaries.last().map(|&(_, b)| b)
    }

    /// The subject currently switched in, per the oracle's own stack.
    fn subject(&self, st: &OracleState) -> OpId {
        st.subjects.last().copied().unwrap_or(self.matrix.root)
    }

    fn expect_for(&self, st: &OracleState, op: OpId, addr: u32, write: bool) -> Expect {
        let stack = self.matrix.stack;
        if stack.contains(addr) {
            if !self.matrix.track_stack_boundary || !write {
                return Expect::Allow;
            }
            return match self.boundary(st) {
                Some(b) if addr >= b => Expect::Deny,
                _ => Expect::Allow,
            };
        }
        self.matrix.expect_data(op, addr, write)
    }

    fn probe_sweep(&self, machine: &Machine, st: &mut OracleState, op: OpId) {
        let Some(e) = self.matrix.ops.get(usize::from(op)) else { return };
        let stack = self.matrix.stack;
        let mut extra: Vec<(u32, bool, Expect, &'static str)> = Vec::new();
        if self.matrix.track_stack_boundary {
            if let Some(b) = st.boundaries.last().map(|&(_, b)| b) {
                if b > stack.base && b < stack.end() {
                    extra.push((
                        b,
                        true,
                        Expect::Deny,
                        "caller stack above the sub-region boundary",
                    ));
                    extra.push((
                        b - 4,
                        true,
                        Expect::Allow,
                        "own stack below the sub-region boundary",
                    ));
                }
            }
        }
        let probes = e
            .probes
            .iter()
            .map(|p| (p.addr, p.write, p.expect, p.what))
            .chain(extra)
            .collect::<Vec<_>>();
        for (cell, (addr, write, expect, what)) in probes.into_iter().enumerate() {
            st.probes += 1;
            let allowed = matches!(
                machine.protection().check_data(addr, 1, write, Mode::Unprivileged),
                MpuDecision::Allowed
            );
            // Coverage channel: every cell exercised, hit or miss. The
            // cell index is stable (matrix row order, stack-boundary
            // extras appended), so the same policy shape maps to the
            // same coverage features across runs.
            self.obs.emit(|| Event::OracleProbe {
                op,
                cell: cell.min(u16::MAX as usize) as u16,
                allowed,
            });
            let kind = match (allowed, expect) {
                (true, Expect::Deny) => OracleKind::Escape,
                (false, Expect::Allow) => OracleKind::SpuriousDenial,
                _ => continue,
            };
            st.record(
                &self.obs,
                Divergence {
                    op,
                    kind,
                    layer: OracleLayer::Mpu,
                    observed: Observed::Probe,
                    addr,
                    size: 1,
                    pc: 0,
                    detail: format!("{what}: MPU region file disagrees with the matrix"),
                },
            );
        }
    }
}

impl Watcher for ShadowOracle {
    fn on_access(&mut self, _machine: &Machine, acc: &WatchedAccess) {
        if acc.mode == Mode::Privileged {
            return;
        }
        let state = self.state.clone();
        let mut st = state.borrow_mut();
        st.checks += 1;
        let op = self.subject(&st);
        let write = acc.kind == AccessKind::Store;
        let expect = self.expect_for(&st, op, acc.addr, write);
        let kind = match (acc.allowed, expect) {
            (true, Expect::Deny) => OracleKind::Escape,
            (false, Expect::Allow) => OracleKind::SpuriousDenial,
            _ => return,
        };
        // Peripheral-space and PPB decisions involve the monitor
        // (window virtualization, load/store emulation); plain
        // memory decisions are the static region file's alone.
        let layer = match opec_armv7m::AddressClass::of(acc.addr) {
            opec_armv7m::AddressClass::Peripheral | opec_armv7m::AddressClass::Ppb => {
                OracleLayer::Monitor
            }
            _ => OracleLayer::Mpu,
        };
        st.record(
            &self.obs,
            Divergence {
                op,
                kind,
                layer,
                observed: if write { Observed::Store } else { Observed::Load },
                addr: acc.addr,
                size: acc.size,
                pc: acc.pc,
                detail: format!(
                    "runtime {} a {} the matrix says {:?}",
                    if acc.allowed { "allowed" } else { "denied" },
                    if write { "store" } else { "load" },
                    expect
                ),
            },
        );
    }

    fn on_func_enter(&mut self, _machine: &Machine, op: OpId, func: FuncId, mode: Mode) {
        let state = self.state.clone();
        let mut st = state.borrow_mut();
        st.exec.entry(op).or_default().insert(func);
        if mode == Mode::Privileged {
            return; // IRQ handlers and lifted compartments
        }
        let subject = self.subject(&st);
        let member =
            self.matrix.ops.get(usize::from(subject)).is_some_and(|e| e.funcs.contains(&func));
        if !member {
            st.record(
                &self.obs,
                Divergence {
                    op: subject,
                    kind: OracleKind::ExecOutsideOperation,
                    layer: OracleLayer::Analysis,
                    observed: Observed::Exec,
                    addr: 0,
                    size: 0,
                    pc: 0,
                    detail: format!(
                        "function {} executed unprivileged outside the member set",
                        func.0
                    ),
                },
            );
        }
    }

    fn on_switch(&mut self, machine: &Machine, sw: &WatchedSwitch) {
        if !sw.ok {
            return;
        }
        let state = self.state.clone();
        let mut st = state.borrow_mut();
        st.switches += 1;
        match sw.kind {
            SwitchKind::Enter => {
                st.subjects.push(sw.to);
                if self.matrix.track_stack_boundary {
                    let stack = self.matrix.stack;
                    let g = self.matrix.boundary_granularity.max(1);
                    let boundary = if stack.contains(sw.sp_before) || sw.sp_before == stack.end() {
                        let idx = ((sw.sp_before - stack.base) / g).min(stack.size / g);
                        stack.base + idx * g
                    } else {
                        stack.end()
                    };
                    st.boundaries.push((sw.to, boundary));
                }
                self.probe_sweep(machine, &mut st, sw.to);
            }
            SwitchKind::Exit => {
                if st.subjects.last() == Some(&sw.from) {
                    st.subjects.pop();
                }
                if st.boundaries.last().is_some_and(|&(o, _)| o == sw.from) {
                    st.boundaries.pop();
                }
                let back = self.subject(&st);
                self.probe_sweep(machine, &mut st, back);
            }
        }
    }

    fn on_quarantine(&mut self, _machine: &Machine, op: OpId) {
        let state = self.state.clone();
        let mut st = state.borrow_mut();
        while let Some(&o) = st.subjects.last() {
            st.subjects.pop();
            if o == op {
                break;
            }
        }
        while let Some(&(o, _)) = st.boundaries.last() {
            st.boundaries.pop();
            if o == op {
                break;
            }
        }
    }
}
