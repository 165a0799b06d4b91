//! Mutator soundness properties.
//!
//! The fuzzer's whole design rests on plan-level mutation keeping every
//! mutant inside the production pipeline's envelope: a mutant that
//! fails to compile (or diverges on a stock pipeline) would poison the
//! corpus with inputs that measure the mutator, not the enforcement
//! stack. So the properties drive every catalog mutator over generated
//! plans and demand (a) the generator invariants survive, (b) the full
//! compile → image → VM → shadow-oracle path still runs clean, and
//! (c) mutation is a pure function of its PRNG seed.

use proptest::prelude::*;

use opec_inject::SplitMix64;
use opec_oracle::{
    generate, mutate, mutate_stacked, well_formed, Firmware, FirmwareSpec, RunRequest, System,
    Verdict, ALL_MUTATORS,
};

/// The oracle's verdict on `spec` under OPEC on ARMv7-M.
fn opec_verdict(spec: &FirmwareSpec) -> Result<Verdict, String> {
    let fw = Firmware::from(spec);
    RunRequest::new(&fw, System::Opec).oracle().run().map(|r| r.verdict)
}

/// Applies one specific catalog mutator (by index) with a seeded PRNG.
/// Returns the mutant and whether the mutator found an application
/// site.
fn apply_one(spec: &FirmwareSpec, which: usize, seed: u64) -> (FirmwareSpec, bool) {
    let mut rng = SplitMix64::new(seed);
    let mut out = spec.clone();
    let applied = ALL_MUTATORS[which % ALL_MUTATORS.len()].apply(&mut out, &mut rng);
    (out, applied)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every catalog mutator, applied to a generated plan, yields a
    /// plan that still satisfies the generator invariants and still
    /// compiles and runs divergence-free through the full production
    /// pipeline.
    #[test]
    fn every_mutator_output_compiles_and_runs_clean(
        gen_seed in 0u64..512,
        which in 0usize..ALL_MUTATORS.len(),
        mut_seed in any::<u64>(),
    ) {
        let spec = generate(gen_seed);
        let (mutant, applied) = apply_one(&spec, which, mut_seed);
        if !applied {
            prop_assert_eq!(&mutant, &spec, "a declined mutator must not touch the plan");
            return Ok(());
        }
        well_formed(&mutant)
            .map_err(|e| TestCaseError::fail(format!("{:?} broke invariants: {e}",
                ALL_MUTATORS[which])))?;
        let v = opec_verdict(&mutant)
            .map_err(|e| TestCaseError::fail(format!("{:?} mutant failed the pipeline: {e}",
                ALL_MUTATORS[which])))?;
        prop_assert!(v.clean(),
            "{:?} mutant diverged on a stock pipeline: {:?}", ALL_MUTATORS[which], v.divergences);
        prop_assert!(v.run_error.is_none(), "{:?}", v.run_error);
    }

    /// Stacked chains (the fuzzer's actual operator) stay inside the
    /// envelope too: invariants hold and the pipeline stays clean after
    /// several compounded edits.
    #[test]
    fn stacked_mutants_compile_and_run_clean(
        gen_seed in 0u64..512,
        mut_seed in any::<u64>(),
        steps in 1u32..6,
    ) {
        let mutant = mutate_stacked(&generate(gen_seed), mut_seed, steps);
        well_formed(&mutant).map_err(TestCaseError::fail)?;
        let v = opec_verdict(&mutant).map_err(TestCaseError::fail)?;
        prop_assert!(v.clean(), "{:?}", v.divergences);
    }

    /// Mutation is deterministic in its seed — the property journal
    /// resume and corpus replay lean on: re-planning a round must
    /// rebuild byte-identical inputs.
    #[test]
    fn mutation_is_a_pure_function_of_its_seed(
        gen_seed in 0u64..512,
        mut_seed in any::<u64>(),
        steps in 1u32..6,
    ) {
        let spec = generate(gen_seed);
        prop_assert_eq!(mutate(&spec, mut_seed), mutate(&spec, mut_seed));
        prop_assert_eq!(
            mutate_stacked(&spec, mut_seed, steps),
            mutate_stacked(&spec, mut_seed, steps)
        );
        // And the base plan is never mutated in place.
        prop_assert_eq!(&spec, &generate(gen_seed));
    }
}
