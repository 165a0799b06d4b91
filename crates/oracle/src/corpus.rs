//! The persistent, minimized fuzzing corpus.
//!
//! One JSON file per entry, named by the entry's *key*: the FNV digest
//! of the coverage features the entry uniquely contributed to the
//! aggregate at admission time. Each file carries the full
//! [`FirmwareSpec`] plan (so a corpus is self-contained and
//! re-runnable on any backend) plus the entry's whole coverage set (so
//! loading a corpus never needs to re-execute anything to know what it
//! covers).
//!
//! Minimization is a greedy set cover, re-run on every load: entries
//! are visited smallest-plan-first (key as the tie-break, so the
//! result is deterministic) and kept only if they still contribute a
//! feature the kept set lacks. Stale files — entries another, smaller
//! entry has since subsumed — are deleted on [`Corpus::save`], which
//! is what keeps a long-lived CI corpus from growing monotonically.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use opec_obs::json::{self, DecodeError, FromJson, Layout, ToJson, Value, Writer};

use crate::coverage::CoverageMap;
use crate::gen::{FirmwareSpec, FuncSpec, GlobalSpec, Stmt};
use crate::mutate::well_formed;

/// One corpus entry: a plan and the coverage it achieved.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusEntry {
    /// 16-hex-digit digest of the features the entry contributed when
    /// admitted (the on-disk file stem).
    pub key: String,
    /// The firmware plan.
    pub spec: FirmwareSpec,
    /// The full coverage the plan achieved on its admitting run.
    pub coverage: CoverageMap,
}

impl CorpusEntry {
    /// Plan size (the minimizer's primary sort key).
    pub fn size(&self) -> usize {
        self.spec.size()
    }
}

/// An in-memory corpus, optionally bound to an on-disk directory.
#[derive(Debug, Default)]
pub struct Corpus {
    dir: Option<PathBuf>,
    /// Kept entries, smallest plan first (key-ordered tie-break).
    pub entries: Vec<CorpusEntry>,
    /// Union of every kept entry's coverage.
    pub aggregate: CoverageMap,
}

impl Corpus {
    /// An empty, memory-only corpus (benchmarks, tests).
    pub fn in_memory() -> Corpus {
        Corpus::default()
    }

    /// Loads and re-minimizes the corpus at `dir`, creating the
    /// directory if absent. Unparseable or ill-formed entries are
    /// reported as errors, never silently skipped — a poisoned corpus
    /// would quietly misdirect every subsequent campaign.
    pub fn load(dir: &Path) -> Result<Corpus, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("corpus dir {}: {e}", dir.display()))?;
        let mut raw = Vec::new();
        let mut names = std::fs::read_dir(dir)
            .map_err(|e| format!("corpus dir {}: {e}", dir.display()))?
            .filter_map(|ent| ent.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect::<Vec<_>>();
        names.sort();
        for path in names {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("corpus entry {}: {e}", path.display()))?;
            let entry = json::decode::<CorpusEntry>(&text)
                .map_err(|e| format!("corpus entry {}: {e}", path.display()))?;
            raw.push(entry);
        }
        let mut c = Corpus { dir: Some(dir.to_path_buf()), ..Corpus::default() };
        c.entries = minimize(raw);
        for e in &c.entries {
            c.aggregate.merge(&e.coverage);
        }
        Ok(c)
    }

    /// Offers `(spec, coverage)` to the corpus. Admitted — and
    /// returned — only when the coverage contributes at least one
    /// feature the aggregate lacks; the entry is keyed by that unique
    /// contribution.
    pub fn admit(&mut self, spec: FirmwareSpec, coverage: CoverageMap) -> Option<&CorpusEntry> {
        let fresh = coverage.minus(&self.aggregate);
        if fresh.is_empty() {
            return None;
        }
        let key = format!("{:016x}", fresh.digest());
        self.aggregate.merge(&coverage);
        let entry = CorpusEntry { key, spec, coverage };
        // Insert at the minimizer's canonical position so iteration
        // order never depends on admission order vs. load order.
        let at = self
            .entries
            .partition_point(|e| (e.size(), e.key.as_str()) < (entry.size(), entry.key.as_str()));
        self.entries.insert(at, entry);
        Some(&self.entries[at])
    }

    /// The smallest entry whose coverage contains `feat` (the
    /// `check --shrink` corpus lookup: `feat` is a divergence key).
    pub fn smallest_with(&self, feat: u64) -> Option<&CorpusEntry> {
        self.entries.iter().find(|e| e.coverage.contains(feat))
    }

    /// Writes every kept entry to the bound directory and deletes
    /// stale `.json` files the minimizer dropped. No-op when
    /// memory-only.
    pub fn save(&self) -> Result<(), String> {
        let Some(dir) = &self.dir else { return Ok(()) };
        let keep: BTreeSet<String> =
            self.entries.iter().map(|e| format!("{}.json", e.key)).collect();
        for e in &self.entries {
            let path = dir.join(format!("{}.json", e.key));
            std::fs::write(&path, json::to_string(e, Layout::Compact))
                .map_err(|err| format!("corpus write {}: {err}", path.display()))?;
        }
        for ent in std::fs::read_dir(dir).map_err(|e| format!("corpus dir: {e}"))? {
            let Ok(ent) = ent else { continue };
            let name = ent.file_name().to_string_lossy().into_owned();
            if name.ends_with(".json") && !keep.contains(&name) {
                let _ = std::fs::remove_file(ent.path());
            }
        }
        Ok(())
    }
}

/// Greedy set-cover minimization: smallest plan first (key tie-break),
/// keep an entry only if it covers something the kept set misses.
fn minimize(mut raw: Vec<CorpusEntry>) -> Vec<CorpusEntry> {
    raw.sort_by(|a, b| (a.size(), a.key.as_str()).cmp(&(b.size(), b.key.as_str())));
    let mut kept = Vec::new();
    let mut agg = CoverageMap::new();
    for e in raw {
        if !e.coverage.subset_of(&agg) {
            agg.merge(&e.coverage);
            kept.push(e);
        }
    }
    kept
}

// ---- JSON: compact, canonical field order, no floats ----

impl ToJson for Stmt {
    fn write_json(&self, w: &mut Writer) {
        w.obj();
        match *self {
            Stmt::LoadG { g, off } => w.field("k", "loadg").field("g", &g).field("off", &off),
            Stmt::StoreG { g, off, val } => {
                w.field("k", "storeg").field("g", &g).field("off", &off).field("val", &val)
            }
            Stmt::Mmio { p, reg, write } => {
                w.field("k", "mmio").field("p", &p).field("reg", &reg).field("write", &write)
            }
            Stmt::Call { f } => w.field("k", "call").field("f", &f),
            Stmt::ICall { f } => w.field("k", "icall").field("f", &f),
            Stmt::Work => w.field("k", "work"),
        };
        w.end();
    }
}

impl FromJson for Stmt {
    fn from_json(v: &Value) -> Result<Stmt, DecodeError> {
        Ok(match v.tag("k")? {
            "loadg" => Stmt::LoadG { g: v.field("g")?, off: v.field("off")? },
            "storeg" => {
                Stmt::StoreG { g: v.field("g")?, off: v.field("off")?, val: v.field("val")? }
            }
            "mmio" => {
                Stmt::Mmio { p: v.field("p")?, reg: v.field("reg")?, write: v.field("write")? }
            }
            "call" => Stmt::Call { f: v.field("f")? },
            "icall" => Stmt::ICall { f: v.field("f")? },
            "work" => Stmt::Work,
            other => {
                return Err(DecodeError::new(format!("unknown stmt kind {other:?}")).in_field("k"))
            }
        })
    }
}

impl ToJson for GlobalSpec {
    fn write_json(&self, w: &mut Writer) {
        w.obj().field("words", &self.words).field("clusters", &self.clusters).end();
    }
}

impl FromJson for GlobalSpec {
    fn from_json(v: &Value) -> Result<GlobalSpec, DecodeError> {
        Ok(GlobalSpec { words: v.field("words")?, clusters: v.field("clusters")? })
    }
}

impl ToJson for FuncSpec {
    fn write_json(&self, w: &mut Writer) {
        w.obj().field("cluster", &self.cluster).field("entry_of", &self.entry_of);
        w.field("body", &self.body).end();
    }
}

impl FromJson for FuncSpec {
    fn from_json(v: &Value) -> Result<FuncSpec, DecodeError> {
        Ok(FuncSpec {
            cluster: v.field("cluster")?,
            entry_of: v.field("entry_of")?,
            body: v.field("body")?,
        })
    }
}

impl ToJson for FirmwareSpec {
    fn write_json(&self, w: &mut Writer) {
        w.obj().field("seed", &self.seed).field("periph_bases", &self.periph_bases);
        w.field("globals", &self.globals).field("funcs", &self.funcs).end();
    }
}

/// Decoding a plan also checks it with [`well_formed`]: every plan the
/// workspace loads (corpus files, journals, `POST /firmware`) is
/// validated here, before it can reach the compiler.
impl FromJson for FirmwareSpec {
    fn from_json(v: &Value) -> Result<FirmwareSpec, DecodeError> {
        let spec = FirmwareSpec {
            seed: v.field("seed")?,
            periph_bases: v.field("periph_bases")?,
            globals: v.field("globals")?,
            funcs: v.field("funcs")?,
        };
        well_formed(&spec).map_err(|e| DecodeError::new(format!("ill-formed plan: {e}")))?;
        Ok(spec)
    }
}

/// Renders a plan as canonical JSON.
pub fn spec_json(spec: &FirmwareSpec) -> String {
    json::to_string(spec, Layout::Compact)
}

/// Decodes and validates a plan: every number range-checked, then
/// [`well_formed`].
pub fn spec_from(v: &Value) -> Result<FirmwareSpec, String> {
    Ok(FirmwareSpec::from_json(v)?)
}

impl ToJson for CorpusEntry {
    fn write_json(&self, w: &mut Writer) {
        w.obj().field("key", &self.key).field("spec", &self.spec).key("coverage").arr();
        for f in self.coverage.features() {
            w.val(&f);
        }
        w.end().end();
    }
}

impl FromJson for CorpusEntry {
    fn from_json(v: &Value) -> Result<CorpusEntry, DecodeError> {
        Ok(CorpusEntry {
            key: v.field("key")?,
            spec: v.field("spec")?,
            coverage: CoverageMap::from_features(v.field::<Vec<u64>>("coverage")?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use proptest::prelude::*;

    fn cov(feats: &[u64]) -> CoverageMap {
        CoverageMap::from_features(feats.iter().copied())
    }

    /// A well-formed plan: a generated one, mutated `steps` times.
    fn plan(seed: u64, steps: u32) -> FirmwareSpec {
        crate::mutate_stacked(&generate(seed), seed.rotate_left(17), steps)
    }

    proptest! {
        #[test]
        fn specs_round_trip(seed in any::<u64>(), steps in 0u32..4) {
            let spec = plan(seed, steps);
            let text = spec_json(&spec);
            let back = spec_from(&json::parse(&text).expect("parse")).expect("decode");
            prop_assert_eq!(&spec, &back);
            // Canonical: render(decode(render)) is byte-identical.
            prop_assert_eq!(text, spec_json(&back));
        }

        #[test]
        fn corpus_entries_round_trip(seed in any::<u64>(), key in any::<String>(), feats in proptest::collection::vec(any::<u64>(), 0..8)) {
            let entry = CorpusEntry { key, spec: plan(seed, 1), coverage: CoverageMap::from_features(feats) };
            let text = json::to_string(&entry, Layout::Compact);
            prop_assert_eq!(json::decode::<CorpusEntry>(&text), Ok(entry));
        }

        /// Byte-level edits of a valid plan: every input ends in `Ok` or
        /// `Err`, never a panic.
        #[test]
        fn mangled_plans_never_panic(
            seed in any::<u64>(),
            edits in proptest::collection::vec((any::<usize>(), 0usize..20, any::<u8>()), 1..6),
        ) {
            const BYTES: &[u8] = b"0123456789-.e\"[]{},:nt";
            let mut bytes = spec_json(&generate(seed)).into_bytes();
            for (at, pick, random) in edits {
                let at = at % bytes.len();
                let b = BYTES.get(pick).copied().unwrap_or(random);
                match pick % 3 {
                    0 => bytes[at] = b,
                    1 => bytes.insert(at, b),
                    _ => {
                        bytes.remove(at);
                    }
                }
            }
            if let Ok(v) = json::parse(&String::from_utf8_lossy(&bytes)) {
                let _ = FirmwareSpec::from_json(&v);
            }
        }
    }

    #[test]
    fn out_of_range_numbers_are_refused_not_truncated() {
        let text = r#"{"seed":1,"periph_bases":[],"globals":[{"words":1,"clusters":[0]}],
            "funcs":[{"cluster":0,"entry_of":null,"body":[{"k":"loadg","g":0,"off":4294967300}]}]}"#;
        let err = spec_from(&json::parse(text).unwrap()).unwrap_err();
        assert_eq!(err, "funcs[0].body[0].off: 4294967300 out of range for u32");
        let ok = text.replace("4294967300", "0");
        assert!(spec_from(&json::parse(&ok).unwrap()).is_ok());
        let bad_base = ok.replace("\"periph_bases\":[]", "\"periph_bases\":[4294967296]");
        assert_eq!(
            spec_from(&json::parse(&bad_base).unwrap()).unwrap_err(),
            "periph_bases[0]: 4294967296 out of range for u32"
        );
    }

    #[test]
    fn ill_formed_plans_are_refused_on_decode() {
        let mut spec = generate(3);
        spec.globals[0].words = 4_000_000_000;
        let err = spec_from(&json::parse(&spec_json(&spec)).unwrap()).unwrap_err();
        assert_eq!(err, "ill-formed plan: global 0 has 4000000000 words, exceeds cap 256");
    }

    #[test]
    fn admit_keys_by_unique_contribution() {
        let mut c = Corpus::in_memory();
        let a = c.admit(generate(1), cov(&[1, 2])).expect("first entry admits").key.clone();
        // Fully subsumed coverage is rejected.
        assert!(c.admit(generate(2), cov(&[2])).is_none());
        // Only the fresh feature keys the new entry.
        let b = c.admit(generate(3), cov(&[2, 5])).expect("fresh feature").key.clone();
        assert_ne!(a, b);
        assert_eq!(b, format!("{:016x}", cov(&[5]).digest()));
        assert_eq!(c.aggregate, cov(&[1, 2, 5]));
    }

    #[test]
    fn load_minimizes_and_save_drops_stale_files() {
        let dir = std::env::temp_dir().join(format!("opec-corpus-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut c = Corpus::load(&dir).expect("fresh dir");
            // A big plan covering {1,2} and a small one covering {1,2}
            // plus {3}: after re-minimization the small one subsumes
            // the big one only if it covers a superset.
            let mut big = generate(4);
            while big.size() <= generate(8).size() {
                big.funcs[0].body.push(crate::gen::Stmt::Work);
            }
            c.admit(big, cov(&[1, 2])).expect("admitted");
            c.admit(generate(8), cov(&[1, 2, 3])).expect("admitted");
            c.save().expect("save");
        }
        let c = Corpus::load(&dir).expect("reload");
        // The small superset entry wins; the big one is dropped.
        assert_eq!(c.entries.len(), 1);
        assert_eq!(c.aggregate, cov(&[1, 2, 3]));
        c.save().expect("save prunes");
        let files: Vec<_> = std::fs::read_dir(&dir)
            .expect("dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
            .collect();
        assert_eq!(files.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn smallest_with_prefers_the_smallest_plan() {
        let mut c = Corpus::in_memory();
        let mut big = generate(11);
        for _ in 0..8 {
            big.funcs[0].body.push(crate::gen::Stmt::Work);
        }
        let small = crate::shrink::shrink(&generate(11), |_| true, usize::MAX);
        // `shrink` with an always-true predicate reduces to a tiny plan.
        c.admit(big, cov(&[7, 8])).expect("big admits");
        c.admit(small.clone(), cov(&[7, 9])).expect("small admits");
        assert_eq!(c.smallest_with(7).expect("feature present").spec, small);
    }
}
