//! Structure-aware mutators over [`FirmwareSpec`] plans.
//!
//! Mutation operates on the *plan*, never the lowered module, for the
//! same reason the shrinker does: a plan stays well-formed under edits.
//! Every mutator preserves the generator's invariants, so mutants are
//! still policy-clean by construction and compile through the full
//! production pipeline:
//!
//! * global accesses stay inside the issuing cluster's assigned set;
//! * every peripheral is touched by at most one cluster (single
//!   ownership), derived from the existing `Mmio` statements;
//! * calls go strictly up the function index, to a same-cluster helper
//!   or to any operation entry (recursion-free, bounded stacks);
//! * store offsets stay inside the global's word count;
//! * peripheral windows are 1 KiB and never overlap.
//!
//! What mutation *can* do that fresh generation cannot: grow a plan
//! beyond the generator's envelope. [`Mutator::GrowMmio`] may mint a
//! brand-new peripheral window (non-adjacent, so merged MPU covers
//! keep counting it separately) — corpus entries therefore accumulate
//! structurally richer policies round over round, which is exactly the
//! feedback loop the time-to-find benchmark measures.

use opec_inject::SplitMix64;

use crate::gen::{FirmwareSpec, Stmt};

/// Hard cap on peripherals a mutated plan may declare. Well past the
/// generator's 3 and past every backend's preload-slot count, so
/// window virtualization gets exercised, with enough headroom that a
/// single cluster can still accumulate windows after minting has
/// spread peripherals across every cluster — but bounded so plans stay
/// small and fast.
pub const MAX_PERIPHS: usize = 12;

/// Hard cap on statements per function body.
const MAX_BODY: usize = 24;

/// The mutator catalog (see DESIGN.md §4i).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutator {
    /// Insert a `Call`/`ICall` to a legal callee at a random position.
    SpliceCall,
    /// Flip a global between private and shared by adding a cluster to
    /// its assigned set, or removing one no statement relies on.
    FlipGlobal,
    /// Re-point an existing call to another legal callee, or toggle it
    /// between direct and indirect.
    RetargetCall,
    /// Add an MMIO touch: a new register of an owned peripheral, a
    /// claim of an untouched one, or a brand-new window past the
    /// current address ceiling.
    GrowMmio,
    /// Delete one MMIO touch.
    ShrinkMmio,
    /// Append plain work or an in-set global access to a body.
    GrowBody,
}

/// Every mutator, in catalog order (the dispatch table for
/// [`mutate`]).
pub const ALL_MUTATORS: [Mutator; 6] = [
    Mutator::SpliceCall,
    Mutator::FlipGlobal,
    Mutator::RetargetCall,
    Mutator::GrowMmio,
    Mutator::ShrinkMmio,
    Mutator::GrowBody,
];

/// Owner cluster of each peripheral, derived from the plan's `Mmio`
/// statements: `Some(c)` when cluster `c` touches it, `None` when no
/// statement does (a free peripheral any cluster may claim). The
/// generator guarantees — and every mutator preserves — that no two
/// clusters touch the same peripheral.
pub fn periph_owners(spec: &FirmwareSpec) -> Vec<Option<usize>> {
    let mut owners = vec![None; spec.periph_bases.len()];
    for f in &spec.funcs {
        for s in &f.body {
            if let Stmt::Mmio { p, .. } = s {
                owners[*p] = Some(f.cluster);
            }
        }
    }
    owners
}

/// Callees function `i` may legally reach: strictly higher index, same
/// cluster (helper call) or any operation entry (a switch).
fn callees_of(spec: &FirmwareSpec, i: usize) -> Vec<usize> {
    (i + 1..spec.funcs.len())
        .filter(|&f| {
            spec.funcs[f].cluster == spec.funcs[i].cluster || spec.funcs[f].entry_of.is_some()
        })
        .collect()
}

fn pick<T: Copy>(rng: &mut SplitMix64, xs: &[T]) -> Option<T> {
    if xs.is_empty() {
        None
    } else {
        Some(xs[rng.gen_range(0, xs.len() as u64) as usize])
    }
}

impl Mutator {
    /// Applies the mutator to `spec` in place. Returns `false` (spec
    /// untouched) when the plan offers no legal application site.
    pub fn apply(self, spec: &mut FirmwareSpec, rng: &mut SplitMix64) -> bool {
        match self {
            Mutator::SpliceCall => splice_call(spec, rng),
            Mutator::FlipGlobal => flip_global(spec, rng),
            Mutator::RetargetCall => retarget_call(spec, rng),
            Mutator::GrowMmio => grow_mmio(spec, rng),
            Mutator::ShrinkMmio => shrink_mmio(spec, rng),
            Mutator::GrowBody => grow_body(spec, rng),
        }
    }
}

fn splice_call(spec: &mut FirmwareSpec, rng: &mut SplitMix64) -> bool {
    let sites: Vec<usize> = (0..spec.funcs.len())
        .filter(|&i| spec.funcs[i].body.len() < MAX_BODY && !callees_of(spec, i).is_empty())
        .collect();
    let Some(i) = pick(rng, &sites) else { return false };
    let f = pick(rng, &callees_of(spec, i)).expect("site filtered on non-empty callees");
    let stmt = if rng.gen_range(0, 3) == 0 { Stmt::ICall { f } } else { Stmt::Call { f } };
    let at = rng.gen_range(0, spec.funcs[i].body.len() as u64 + 1) as usize;
    spec.funcs[i].body.insert(at, stmt);
    true
}

fn flip_global(spec: &mut FirmwareSpec, rng: &mut SplitMix64) -> bool {
    if spec.globals.is_empty() {
        return false;
    }
    let n_clusters = spec.funcs.iter().map(|f| f.cluster).max().unwrap_or(0) + 1;
    let g = rng.gen_range(0, spec.globals.len() as u64) as usize;
    // Clusters whose statements actually touch g — these may never be
    // removed from the assigned set.
    let used: Vec<usize> = (0..n_clusters)
        .filter(|&c| {
            spec.funcs.iter().any(|f| {
                f.cluster == c
                    && f.body.iter().any(
                        |s| matches!(s, Stmt::LoadG { g: gg, .. } | Stmt::StoreG { g: gg, .. } if *gg == g),
                    )
            })
        })
        .collect();
    let gl = &mut spec.globals[g];
    let removable: Vec<usize> = gl.clusters.iter().copied().filter(|c| !used.contains(c)).collect();
    let addable: Vec<usize> = (0..n_clusters).filter(|c| !gl.clusters.contains(c)).collect();
    // Prefer the direction that exists; flip a coin when both do.
    let remove = !removable.is_empty() && (addable.is_empty() || rng.gen_range(0, 2) == 0);
    if remove && gl.clusters.len() > 1 {
        let c = pick(rng, &removable).expect("non-empty");
        // Keep the first cluster stable when possible: it selects the
        // global's defining file, and churning it would reshuffle the
        // whole ACES filename clustering for an unrelated edit.
        if let Some(pos) = gl.clusters.iter().rposition(|&x| x == c) {
            if pos > 0 || gl.clusters.len() > 1 {
                gl.clusters.remove(pos);
                return true;
            }
        }
        false
    } else if !addable.is_empty() {
        let c = pick(rng, &addable).expect("non-empty");
        gl.clusters.push(c);
        true
    } else {
        false
    }
}

fn retarget_call(spec: &mut FirmwareSpec, rng: &mut SplitMix64) -> bool {
    let mut sites: Vec<(usize, usize)> = Vec::new();
    for (i, f) in spec.funcs.iter().enumerate() {
        for (j, s) in f.body.iter().enumerate() {
            if true_call(s) {
                sites.push((i, j));
            }
        }
    }
    let Some((i, j)) = pick(rng, &sites) else { return false };
    let callees = callees_of(spec, i);
    let (old, indirect) = match spec.funcs[i].body[j] {
        Stmt::Call { f } => (f, false),
        Stmt::ICall { f } => (f, true),
        _ => unreachable!("sites hold calls only"),
    };
    let others: Vec<usize> = callees.iter().copied().filter(|&f| f != old).collect();
    // Retarget when another callee exists, else toggle call kind.
    let new = if !others.is_empty() && rng.gen_range(0, 2) == 0 {
        pick(rng, &others).expect("non-empty")
    } else {
        old
    };
    let flip = new == old;
    spec.funcs[i].body[j] = match (flip, indirect) {
        (true, true) => Stmt::Call { f: new },
        (true, false) => Stmt::ICall { f: new },
        (false, true) => Stmt::ICall { f: new },
        (false, false) => Stmt::Call { f: new },
    };
    true
}

fn true_call(s: &Stmt) -> bool {
    matches!(s, Stmt::Call { .. } | Stmt::ICall { .. })
}

fn grow_mmio(spec: &mut FirmwareSpec, rng: &mut SplitMix64) -> bool {
    let owners = periph_owners(spec);
    let n_clusters = spec.funcs.iter().map(|f| f.cluster).max().unwrap_or(0) + 1;
    let c = rng.gen_range(0, n_clusters as u64) as usize;
    let hosts: Vec<usize> = (0..spec.funcs.len())
        .filter(|&i| spec.funcs[i].cluster == c && spec.funcs[i].body.len() < MAX_BODY)
        .collect();
    let Some(host) = pick(rng, &hosts) else { return false };
    // Peripherals this cluster may touch without breaking single
    // ownership: its own, plus untouched ones.
    let reachable: Vec<usize> =
        (0..spec.periph_bases.len()).filter(|&p| owners[p].is_none_or(|o| o == c)).collect();
    let mint =
        spec.periph_bases.len() < MAX_PERIPHS && (reachable.is_empty() || rng.gen_range(0, 3) == 0);
    let p = if mint {
        // A fresh window past the ceiling, with a ≥ 1 KiB gap so the
        // layout's adjacent-window merging keeps it a *separate* MPU
        // cover — this is the edit that grows an operation's window
        // count beyond the generator's envelope.
        let ceiling = spec.periph_bases.iter().copied().max().unwrap_or(0x4000_0000);
        spec.periph_bases.push(ceiling + 0x400 * rng.gen_range(2, 5) as u32);
        spec.periph_bases.len() - 1
    } else {
        match pick(rng, &reachable) {
            Some(p) => p,
            None => return false,
        }
    };
    let stmt = Stmt::Mmio { p, reg: rng.gen_range(0, 16) as u32, write: rng.gen_range(0, 2) == 0 };
    let at = rng.gen_range(0, spec.funcs[host].body.len() as u64 + 1) as usize;
    spec.funcs[host].body.insert(at, stmt);
    true
}

fn shrink_mmio(spec: &mut FirmwareSpec, rng: &mut SplitMix64) -> bool {
    let mut sites: Vec<(usize, usize)> = Vec::new();
    for (i, f) in spec.funcs.iter().enumerate() {
        for (j, s) in f.body.iter().enumerate() {
            if matches!(s, Stmt::Mmio { .. }) {
                sites.push((i, j));
            }
        }
    }
    let Some((i, j)) = pick(rng, &sites) else { return false };
    spec.funcs[i].body.remove(j);
    true
}

fn grow_body(spec: &mut FirmwareSpec, rng: &mut SplitMix64) -> bool {
    let sites: Vec<usize> =
        (0..spec.funcs.len()).filter(|&i| spec.funcs[i].body.len() < MAX_BODY).collect();
    let Some(i) = pick(rng, &sites) else { return false };
    let c = spec.funcs[i].cluster;
    let accessible: Vec<usize> =
        (0..spec.globals.len()).filter(|&g| spec.globals[g].clusters.contains(&c)).collect();
    let stmt = match rng.gen_range(0, 3) {
        0 => Stmt::Work,
        n => match pick(rng, &accessible) {
            Some(g) => {
                let off = rng.gen_range(0, u64::from(spec.globals[g].words.max(1))) as u32;
                if n == 1 {
                    Stmt::LoadG { g, off }
                } else {
                    Stmt::StoreG { g, off, val: rng.gen_range(0, 1 << 16) as u32 }
                }
            }
            None => Stmt::Work,
        },
    };
    let at = rng.gen_range(0, spec.funcs[i].body.len() as u64 + 1) as usize;
    spec.funcs[i].body.insert(at, stmt);
    true
}

/// Applies one random mutator to a copy of `spec`, deterministically in
/// `seed`. Tries mutators until one finds an application site (every
/// plan admits `GrowBody`, so this terminates).
pub fn mutate(spec: &FirmwareSpec, seed: u64) -> FirmwareSpec {
    let mut rng = SplitMix64::new(seed ^ 0xd1b5_4a32_d192_ed03);
    let mut out = spec.clone();
    for _ in 0..16 {
        let m = ALL_MUTATORS[rng.gen_range(0, ALL_MUTATORS.len() as u64) as usize];
        if m.apply(&mut out, &mut rng) {
            return out;
        }
    }
    // Every body at MAX_BODY and nothing else applicable: fall back to
    // deleting an MMIO touch or returning the spec unchanged.
    Mutator::ShrinkMmio.apply(&mut out, &mut rng);
    out
}

/// Applies `steps` successive [`mutate`] passes, each seeded from the
/// same deterministic stream — the fuzzer's stacked-mutation operator.
/// Stacking is what lets a single scheduling decision compound edits
/// (e.g. minting a window *and* touching it from another function)
/// that one mutation alone cannot express.
pub fn mutate_stacked(spec: &FirmwareSpec, seed: u64, steps: u32) -> FirmwareSpec {
    let mut rng = SplitMix64::new(seed ^ 0x94d0_49bb_1331_11eb);
    let mut out = spec.clone();
    for _ in 0..steps.max(1) {
        out = mutate(&out, rng.next_u64());
    }
    out
}

/// Checks the generator invariants a plan must satisfy to be
/// policy-clean; returns the first violation. Used by the mutation
/// proptests and by corpus load (a hand-edited corpus entry that
/// breaks the invariants would poison every mutant derived from it).
pub fn well_formed(spec: &FirmwareSpec) -> Result<(), String> {
    if spec.funcs.is_empty() || spec.funcs[0].entry_of.is_some() {
        return Err("func 0 must be main (no entry_of)".into());
    }
    if spec.periph_bases.len() > MAX_PERIPHS {
        return Err(format!("{} peripherals exceeds cap {MAX_PERIPHS}", spec.periph_bases.len()));
    }
    let mut bases = spec.periph_bases.clone();
    bases.sort_unstable();
    for w in bases.windows(2) {
        if w[1] - w[0] < 0x400 {
            return Err(format!("peripheral windows {:#x} and {:#x} overlap", w[0], w[1]));
        }
    }
    let mut owners: Vec<Option<usize>> = vec![None; spec.periph_bases.len()];
    for (i, f) in spec.funcs.iter().enumerate() {
        for s in &f.body {
            match *s {
                Stmt::LoadG { g, off } | Stmt::StoreG { g, off, .. } => {
                    let Some(gl) = spec.globals.get(g) else {
                        return Err(format!("func {i} touches unknown global {g}"));
                    };
                    if !gl.clusters.contains(&f.cluster) {
                        return Err(format!(
                            "func {i} (cluster {}) touches global {g} outside its set",
                            f.cluster
                        ));
                    }
                    if off >= gl.words.max(1) {
                        return Err(format!("func {i} global {g} offset {off} out of bounds"));
                    }
                }
                Stmt::Mmio { p, .. } => {
                    if p >= spec.periph_bases.len() {
                        return Err(format!("func {i} touches unknown peripheral {p}"));
                    }
                    match owners[p] {
                        None => owners[p] = Some(f.cluster),
                        Some(o) if o == f.cluster => {}
                        Some(o) => {
                            return Err(format!(
                                "peripheral {p} touched by clusters {o} and {}",
                                f.cluster
                            ))
                        }
                    }
                }
                Stmt::Call { f: callee } | Stmt::ICall { f: callee } => {
                    if callee <= i || callee >= spec.funcs.len() {
                        return Err(format!("func {i} calls {callee}: not strictly upward"));
                    }
                    let target = &spec.funcs[callee];
                    if target.cluster != f.cluster && target.entry_of.is_none() {
                        return Err(format!(
                            "func {i} calls foreign non-entry {callee} (cluster {})",
                            target.cluster
                        ));
                    }
                }
                Stmt::Work => {}
            }
        }
    }
    for (g, gl) in spec.globals.iter().enumerate() {
        if gl.clusters.is_empty() {
            return Err(format!("global {g} assigned to no cluster"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn mutate_is_deterministic_in_seed() {
        let spec = generate(42);
        assert_eq!(mutate(&spec, 7), mutate(&spec, 7));
        // And the input is untouched.
        assert_eq!(spec, generate(42));
    }

    #[test]
    fn generated_specs_are_well_formed() {
        for seed in 0..32 {
            well_formed(&generate(seed)).expect("generator output must satisfy its invariants");
        }
    }

    #[test]
    fn mutants_stay_well_formed_under_long_chains() {
        let mut spec = generate(5);
        for round in 0..64u64 {
            spec = mutate(&spec, round);
            well_formed(&spec).unwrap_or_else(|e| panic!("round {round}: {e}"));
        }
    }

    #[test]
    fn grow_mmio_can_exceed_the_generator_envelope() {
        // Repeated growth must eventually mint windows past the
        // generator's 3-peripheral cap (the latent-bug reachability
        // argument in the time-to-find benchmark rests on this).
        let mut spec = generate(1);
        let mut rng = SplitMix64::new(99);
        for _ in 0..256 {
            Mutator::GrowMmio.apply(&mut spec, &mut rng);
        }
        assert!(spec.periph_bases.len() > 3, "minting never happened");
        assert!(spec.periph_bases.len() <= MAX_PERIPHS);
        well_formed(&spec).expect("grown spec");
    }
}
