//! End-to-end oracle checks: generated firmwares run divergence-free
//! under the real enforcement stacks, and a deliberately broken MPU
//! configuration is caught and shrunk to a minimal counterexample.

use opec_core::SystemPolicy;
use opec_obs::{OracleKind, OracleLayer};
use opec_oracle::divergence::Observed;
use opec_oracle::{
    break_mpu, generate, shrink, Firmware, FirmwareSpec, RunRequest, System, Verdict,
};

/// The oracle's verdict on `spec` under `system` on ARMv7-M, with the
/// enforced policy tampered by `tamper`.
fn verdict(
    spec: &FirmwareSpec,
    system: System,
    tamper: Option<&dyn Fn(&mut SystemPolicy)>,
) -> Result<Verdict, String> {
    let fw = Firmware::from(spec);
    RunRequest::new(&fw, system).tamper(tamper).oracle().run().map(|r| r.verdict)
}

#[test]
fn generated_firmwares_are_divergence_free_under_opec() {
    for seed in 0..12 {
        let spec = generate(seed);
        let v = verdict(&spec, System::Opec, None).expect("pipeline");
        assert!(
            v.divergences.is_empty(),
            "seed {seed}: {} divergences, first: {}",
            v.total_divergences,
            v.divergences[0]
        );
        assert!(v.switches > 0, "seed {seed}: no operation switch was exercised");
        assert!(v.checks > 0, "seed {seed}: no access was checked");
    }
}

#[test]
fn generated_firmwares_are_divergence_free_under_aces() {
    let mut ran = 0;
    for seed in 0..12 {
        let spec = generate(seed);
        let v = match verdict(&spec, System::Aces, None) {
            Ok(v) => v,
            // Some plans exceed ACES group limits; that is an ACES
            // scalability property, not an oracle divergence.
            Err(e) => {
                eprintln!("seed {seed}: aces build skipped: {e}");
                continue;
            }
        };
        ran += 1;
        assert!(
            v.divergences.is_empty(),
            "seed {seed}: {} divergences, first: {}",
            v.total_divergences,
            v.divergences[0]
        );
    }
    assert!(ran >= 6, "too few seeds built under ACES ({ran}/12)");
}

// The tampering the oracle must catch — `opec_oracle::tamper::break_mpu`,
// shared with `opec-eval check --self-test` and the fuzzing benchmark:
// a bogus read-write cover over flash prepended to every non-root
// operation's peripheral-cover plan, as a mis-generated protection
// config would do (every backend turns covers into writable
// regions/entries).

#[test]
fn broken_mpu_config_is_caught_and_shrinks_to_minimal_program() {
    let seed = 3;
    let spec = generate(seed);
    let flash_base = spec.board().flash.base;
    let diverges = |s: &FirmwareSpec| {
        verdict(s, System::Opec, Some(&break_mpu)).is_ok_and(|v| {
            v.divergences.iter().any(|d| {
                d.kind == OracleKind::Escape
                    && d.layer == OracleLayer::Mpu
                    && d.observed == Observed::Probe
                    && d.addr == flash_base
            })
        })
    };
    assert!(diverges(&spec), "the oracle missed a writable-flash MPU region");
    // Sanity: the untampered policy is clean.
    let clean = verdict(&spec, System::Opec, None).expect("pipeline");
    assert!(clean.divergences.is_empty(), "clean run diverged: {}", clean.divergences[0]);

    let small = shrink(&spec, diverges, 300);
    assert!(diverges(&small), "shrinking lost the divergence");
    // Pinned minimal shape: one switch is necessary and sufficient —
    // a single call from main into an operation entry, everything else
    // stripped.
    assert_eq!(
        small.size(),
        1,
        "expected a 1-statement counterexample:\n{}",
        opec_oracle::describe(&small)
    );
    assert!(
        small.funcs[0].body.iter().all(|s| matches!(
            s,
            opec_oracle::gen::Stmt::Call { .. } | opec_oracle::gen::Stmt::ICall { .. }
        )),
        "the surviving statement must be the operation switch:\n{}",
        opec_oracle::describe(&small)
    );
}
