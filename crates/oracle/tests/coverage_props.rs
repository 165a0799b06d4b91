//! Coverage-map algebra and corpus round-trip properties.
//!
//! The fuzzer's aggregation is only deterministic because coverage is
//! a feature *set*: merge must be a plain union — associative,
//! commutative, idempotent — so the aggregate is independent of worker
//! interleaving, journal resume order, and replay count. And a corpus
//! written to disk must replay to the byte-identical aggregate the
//! admitting run computed, or the nightly job's restored corpus would
//! silently drift from the artifact it uploaded.

use proptest::prelude::*;

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use opec_core::backend::{Armv7mBackend, Backend};
use opec_oracle::{
    generate, mutate, Corpus, CoverageMap, Firmware, FirmwareSpec, RunRequest, System, Verdict,
};
use opec_pmp::Rv32PmpBackend;

static CASE: AtomicU32 = AtomicU32::new(0);

/// The oracle's verdict on `spec` under OPEC on `backend`, with the
/// coverage a [`CoverageMap`] sink folded from the run.
fn covered(
    spec: &FirmwareSpec,
    backend: Arc<dyn Backend>,
) -> Result<(Verdict, CoverageMap), String> {
    let fw = Firmware::from(spec);
    let cov = Rc::new(RefCell::new(CoverageMap::new()));
    let rec = RunRequest::new(&fw, System::Opec).on(backend).oracle().sink(cov.clone()).run()?;
    Ok((rec.verdict, cov.take()))
}

fn backends() -> [Arc<dyn Backend>; 2] {
    [Arc::new(Armv7mBackend), Arc::new(Rv32PmpBackend)]
}

fn tmp_corpus_dir() -> std::path::PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("opec-corpus-props-{}-{n}", std::process::id()))
}

/// Feature payloads stay under the 56-bit tag boundary, like every
/// real feature [`CoverageMap::observe`] emits.
fn feats() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..(1 << 56), 0..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merge is a set union: associative, commutative, idempotent,
    /// with the empty map as identity.
    #[test]
    fn merge_is_associative_commutative_idempotent(
        a in feats(), b in feats(), c in feats(),
    ) {
        let (a, b, c) = (
            CoverageMap::from_features(a),
            CoverageMap::from_features(b),
            CoverageMap::from_features(c),
        );
        let merged = |x: &CoverageMap, y: &CoverageMap| {
            let mut m = x.clone();
            m.merge(y);
            m
        };
        // (a ∪ b) ∪ c == a ∪ (b ∪ c)
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
        // a ∪ b == b ∪ a
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
        // a ∪ a == a, and a ∪ ∅ == a
        prop_assert_eq!(merged(&a, &a), a.clone());
        prop_assert_eq!(merged(&a, &CoverageMap::new()), a.clone());
        // Digest is a function of the set, so the laws transfer to it.
        prop_assert_eq!(merged(&a, &b).digest(), merged(&b, &a).digest());
    }

    /// Serialization round-trips: `features()` → `from_features` is
    /// the identity, in canonical order.
    #[test]
    fn feature_serialization_roundtrips(a in feats()) {
        let m = CoverageMap::from_features(a);
        let back = CoverageMap::from_features(m.features().collect::<Vec<_>>());
        prop_assert_eq!(&m, &back);
        let fs = m.features().collect::<Vec<_>>();
        let mut sorted = fs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(fs, sorted, "features() must iterate sorted and deduped");
    }

    /// A corpus saved to disk and re-loaded replays — through the full
    /// pipeline — to the byte-identical aggregate coverage map the
    /// admitting run computed.
    #[test]
    fn corpus_replay_from_disk_reproduces_the_aggregate(
        gen_seed in 0u64..256,
        mut_seed in any::<u64>(),
    ) {
        let mut corpus = Corpus::in_memory();
        for (i, spec) in [generate(gen_seed), generate(gen_seed + 1)]
            .into_iter()
            .flat_map(|s| [mutate(&s, mut_seed), s])
            .enumerate()
        {
            let (v, cov) = covered(&spec, Arc::new(Armv7mBackend)).map_err(TestCaseError::fail)?;
            prop_assert!(v.clean(), "input {i}: {:?}", v.divergences);
            corpus.admit(spec, cov);
        }
        prop_assert!(!corpus.entries.is_empty());

        // Save → load → replay every entry; the union must equal the
        // loaded aggregate, which must equal the admitted aggregate.
        let dir = tmp_corpus_dir();
        let mut bound = Corpus::load(&dir).map_err(TestCaseError::fail)?;
        for e in &corpus.entries {
            bound.admit(e.spec.clone(), e.coverage.clone());
        }
        bound.save().map_err(TestCaseError::fail)?;
        let loaded = Corpus::load(&dir).map_err(TestCaseError::fail)?;
        prop_assert_eq!(&loaded.aggregate, &corpus.aggregate);

        let mut replayed = CoverageMap::new();
        for e in &loaded.entries {
            let (_, cov) = covered(&e.spec, Arc::new(Armv7mBackend)).map_err(TestCaseError::fail)?;
            replayed.merge(&cov);
        }
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(replayed.digest(), corpus.aggregate.digest(),
            "replay must reproduce the admitted aggregate byte-for-byte");
        prop_assert_eq!(replayed, corpus.aggregate);
    }

    /// A coverage sink only observes: on both backends a request with
    /// one reaches the verdict a request without one reaches.
    #[test]
    fn a_coverage_sink_does_not_change_the_verdict(
        gen_seed in 0u64..512,
        mut_seed in any::<u64>(),
    ) {
        let spec = mutate(&generate(gen_seed), mut_seed);
        let fw = Firmware::from(&spec);
        for backend in backends() {
            let bare = RunRequest::new(&fw, System::Opec).on(Arc::clone(&backend)).oracle().run()
                .map_err(TestCaseError::fail)?;
            let (v, cov) = covered(&spec, backend).map_err(TestCaseError::fail)?;
            prop_assert_eq!(format!("{:?}", bare.verdict), format!("{v:?}"));
            prop_assert!(!cov.is_empty());
        }
    }
}

/// The maps the sink folds are the maps the fuzzer has always stored:
/// the aggregate over 32 fresh plans is pinned to its value from before
/// coverage became a request sink, on both backends.
#[test]
fn coverage_of_fresh_plans_is_pinned() {
    for backend in backends() {
        let mut agg = CoverageMap::new();
        for seed in 0..32 {
            let (v, cov) = covered(&generate(seed), Arc::clone(&backend)).expect("pipeline");
            assert!(v.clean(), "{} seed {seed}: {:?}", backend.name(), v.divergences);
            agg.merge(&cov);
        }
        assert_eq!(agg.digest(), 0xee2e_3c03_d8e9_eef9, "{}", backend.name());
    }
}

/// ACES exists on the ARMv7-M MPU only: asking for it on the PMP is an
/// error, not a panic.
#[test]
fn aces_on_the_pmp_is_refused() {
    let spec = generate(0);
    let fw = Firmware::from(&spec);
    let run = RunRequest::new(&fw, System::Aces).on(Arc::new(Rv32PmpBackend)).oracle().run();
    assert_eq!(run.err().as_deref(), Some("ACES targets the ARMv7-M MPU, not rv32-pmp"));
}
