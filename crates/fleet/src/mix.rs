//! Device mixes: which firmwares a fleet runs, on which protection
//! backends, in what proportion.
//!
//! A `--mix` spec is a comma-separated list of `kind=weight` terms
//! (`tcp_echo=2,pinlock=1,fuzz=1`); a bare `kind` means weight 1. The
//! weighted mix expands into a deterministic cycle, and device `i`
//! takes `cycle[i % len]` for its firmware and alternates protection
//! backends — so any prefix of the device list is itself a
//! representative mix, and the assignment is a pure function of the
//! device id (which is what makes worker-count determinism possible).

use std::sync::Arc;

use opec_core::{Armv7mBackend, Backend};
use opec_pmp::Rv32PmpBackend;

/// A firmware kind a fleet device can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DeviceKind {
    /// The paper's `tcp_echo` workload (5 echoed packets, then halt).
    TcpEcho,
    /// The paper's `PinLock` workload (100 unlock/lock cycles).
    Pinlock,
    /// The paper's `Camera` workload (capture and save a photo).
    Camera,
    /// A generated firmware from the fuzzer's structure-aware planner.
    Fuzz,
}

impl DeviceKind {
    /// Every kind, in mix-vocabulary order.
    pub const ALL: [DeviceKind; 4] =
        [DeviceKind::TcpEcho, DeviceKind::Pinlock, DeviceKind::Camera, DeviceKind::Fuzz];

    /// The stable mix-spec / report name.
    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::TcpEcho => "tcp_echo",
            DeviceKind::Pinlock => "pinlock",
            DeviceKind::Camera => "camera",
            DeviceKind::Fuzz => "fuzz",
        }
    }

    fn from_name(s: &str) -> Result<DeviceKind, String> {
        match s {
            "tcp_echo" => Ok(DeviceKind::TcpEcho),
            "pinlock" => Ok(DeviceKind::Pinlock),
            "camera" => Ok(DeviceKind::Camera),
            "fuzz" => Ok(DeviceKind::Fuzz),
            other => Err(format!(
                "unknown device kind {other:?} (expected tcp_echo, pinlock, camera or fuzz)"
            )),
        }
    }
}

/// A protection backend, by name: the one selector every CLI flag,
/// HTTP field and fleet device resolves through.
///
/// Adding a backend adds a variant here (and to [`Self::ALL`]), its
/// name in [`Self::name`] and its constructor in [`Self::dyn_backend`];
/// everything else programs against the `Arc<dyn Backend>` this
/// returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FleetBackend {
    /// The paper's ARMv7-M MPU (the default).
    #[default]
    Armv7m,
    /// The §7 RISC-V PMP port.
    Rv32Pmp,
}

impl FleetBackend {
    /// Every backend, in CLI-vocabulary order.
    pub const ALL: [FleetBackend; 2] = [FleetBackend::Armv7m, FleetBackend::Rv32Pmp];

    /// The stable CLI/report label.
    pub fn name(self) -> &'static str {
        match self {
            FleetBackend::Armv7m => "armv7m",
            FleetBackend::Rv32Pmp => "rv32-pmp",
        }
    }

    /// Resolves a backend name. An unknown name is a usage error
    /// naming the operand.
    pub fn from_name(name: &str) -> Result<FleetBackend, String> {
        FleetBackend::ALL.into_iter().find(|b| b.name() == name).ok_or_else(|| {
            let names: Vec<&str> = FleetBackend::ALL.iter().map(|b| b.name()).collect();
            let (last, rest) = names.split_last().expect("at least one backend");
            format!("unknown backend {name:?} (expected {} or {last})", rest.join(", "))
        })
    }

    /// Resolves a single-backend flag (`opec-eval --backend`); absence
    /// means the default, ARMv7-M.
    pub fn from_flag(flag: Option<&str>) -> Result<FleetBackend, String> {
        flag.map_or(Ok(FleetBackend::default()), FleetBackend::from_name)
    }

    /// Resolves a fleet backend flag; absence means every backend.
    pub fn list_from_flag(flag: Option<&str>) -> Result<Vec<FleetBackend>, String> {
        match flag {
            None => Ok(FleetBackend::ALL.to_vec()),
            Some(name) => Ok(vec![FleetBackend::from_name(name)?]),
        }
    }

    /// The backend the monitor and oracle stack program against.
    pub fn dyn_backend(self) -> Arc<dyn Backend> {
        match self {
            FleetBackend::Armv7m => Arc::new(Armv7mBackend),
            FleetBackend::Rv32Pmp => Arc::new(Rv32PmpBackend),
        }
    }

    /// Whether the ACES comparison stack exists on this backend. ACES
    /// compartmentalisation targets the ARMv7-M MPU; on other backends
    /// its cells are recorded as skips, never silently dropped.
    pub fn has_aces(self) -> bool {
        self == FleetBackend::Armv7m
    }
}

/// A weighted firmware mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mix {
    /// `(kind, weight)` terms in spec order; weights are all nonzero.
    weights: Vec<(DeviceKind, u32)>,
}

impl Default for Mix {
    /// All four kinds, weight 1 each.
    fn default() -> Mix {
        Mix { weights: DeviceKind::ALL.iter().map(|&k| (k, 1)).collect() }
    }
}

impl Mix {
    /// Parses a `--mix` spec: comma-separated `kind[=weight]` terms.
    /// A zero weight, an unknown kind, or an empty spec is an error.
    pub fn parse(spec: &str) -> Result<Mix, String> {
        let mut weights = Vec::new();
        for term in spec.split(',') {
            let term = term.trim();
            if term.is_empty() {
                continue;
            }
            let (name, weight) = match term.split_once('=') {
                Some((n, w)) => {
                    let w: u32 = w
                        .trim()
                        .parse()
                        .map_err(|e| format!("bad weight in mix term {term:?}: {e}"))?;
                    (n.trim(), w)
                }
                None => (term, 1),
            };
            if weight == 0 {
                return Err(format!("mix term {term:?} has zero weight; drop it instead"));
            }
            weights.push((DeviceKind::from_name(name)?, weight));
        }
        if weights.is_empty() {
            return Err("empty --mix spec".to_string());
        }
        Ok(Mix { weights })
    }

    /// The spec round-tripped into canonical form.
    pub fn spec(&self) -> String {
        self.weights.iter().map(|(k, w)| format!("{}={w}", k.name())).collect::<Vec<_>>().join(",")
    }

    /// The expanded kind cycle device ids index into.
    pub fn cycle(&self) -> Vec<DeviceKind> {
        let mut cycle = Vec::new();
        for &(kind, weight) in &self.weights {
            cycle.extend(std::iter::repeat_n(kind, weight as usize));
        }
        cycle
    }
}

/// Assigns every device id its `(kind, backend)` pair: the kind from
/// the mix cycle, the backend alternating through `backends`.
pub fn plan_devices(
    devices: usize,
    mix: &Mix,
    backends: &[FleetBackend],
) -> Vec<(DeviceKind, FleetBackend)> {
    let cycle = mix.cycle();
    (0..devices).map(|i| (cycle[i % cycle.len()], backends[i % backends.len()])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_weights_and_bare_kinds() {
        let m = Mix::parse("tcp_echo=2, pinlock ,fuzz=1").unwrap();
        assert_eq!(m.spec(), "tcp_echo=2,pinlock=1,fuzz=1");
        assert_eq!(
            m.cycle(),
            vec![DeviceKind::TcpEcho, DeviceKind::TcpEcho, DeviceKind::Pinlock, DeviceKind::Fuzz]
        );
    }

    #[test]
    fn rejects_bad_specs_naming_the_term() {
        assert!(Mix::parse("tcp_echo=0").unwrap_err().contains("zero weight"));
        assert!(Mix::parse("floppy").unwrap_err().contains("floppy"));
        assert!(Mix::parse("tcp_echo=x").unwrap_err().contains("tcp_echo=x"));
        assert!(Mix::parse("  ,, ").unwrap_err().contains("empty"));
    }

    #[test]
    fn plan_is_a_pure_function_of_the_device_id() {
        let mix = Mix::default();
        let plan = plan_devices(10, &mix, &FleetBackend::ALL);
        assert_eq!(plan.len(), 10);
        assert_eq!(plan[0], (DeviceKind::TcpEcho, FleetBackend::Armv7m));
        assert_eq!(plan[1], (DeviceKind::Pinlock, FleetBackend::Rv32Pmp));
        // Same id, same assignment, regardless of fleet size.
        let bigger = plan_devices(100, &mix, &FleetBackend::ALL);
        assert_eq!(&bigger[..10], &plan[..]);
    }

    #[test]
    fn backend_flag_resolution() {
        // Fleet/serve: absence means every backend.
        assert_eq!(FleetBackend::list_from_flag(None).unwrap(), FleetBackend::ALL.to_vec());
        assert_eq!(
            FleetBackend::list_from_flag(Some("rv32-pmp")).unwrap(),
            vec![FleetBackend::Rv32Pmp]
        );
        assert!(FleetBackend::list_from_flag(Some("avr")).unwrap_err().contains("avr"));
        // `opec-eval --backend`: absence means ARMv7-M.
        assert_eq!(FleetBackend::from_flag(None).unwrap(), FleetBackend::Armv7m);
        assert_eq!(FleetBackend::from_flag(Some("armv7m")).unwrap(), FleetBackend::Armv7m);
        assert_eq!(FleetBackend::from_flag(Some("rv32-pmp")).unwrap(), FleetBackend::Rv32Pmp);
        // An unknown name is a usage error naming the operand and the
        // vocabulary.
        let err = FleetBackend::from_flag(Some("avr")).unwrap_err();
        assert_eq!(err, "unknown backend \"avr\" (expected armv7m or rv32-pmp)");
        // ACES exists only on the paper's platform.
        assert!(FleetBackend::Armv7m.has_aces());
        assert!(!FleetBackend::Rv32Pmp.has_aces());
        // Every backend round-trips through its name, and the backend
        // object agrees with the selector on it.
        for b in FleetBackend::ALL {
            assert_eq!(FleetBackend::from_name(b.name()).unwrap(), b);
            assert_eq!(b.dyn_backend().name(), b.name());
        }
    }
}
