//! Inclusion-based (Andersen) points-to analysis with on-the-fly
//! indirect-call resolution — the stand-in for SVF (paper Section 4.1).
//!
//! The analysis is flow- and field-insensitive and conservative, like the
//! paper's: "the results of the point-to analysis are conservative and
//! over-approximated, which contains false positives. Otherwise, an
//! unsound call graph will bring dependency miss to operations."
//!
//! Abstract objects are globals, stack locals, and functions; pointer
//! variables are virtual registers, object contents ("cells"), and
//! function return values. The usual four constraint forms are derived
//! from the IR (address-of, copy, load, store) plus inter-procedural
//! copies for calls. Indirect calls are resolved while solving: whenever
//! a function object reaches an icall's pointer, argument/return copies
//! for that target are added and solving continues to fixpoint.
//!
//! # Solving algorithm
//!
//! The paper reports analysis *time* as a first-class result (Table 3),
//! so the solver is the worklist formulation with **difference
//! propagation**: every node keeps, besides its points-to set, a
//! *delta* of bits not yet forwarded. Processing a node forwards only
//! its delta along copy edges ([`BitSet::union_into_delta`]), expands
//! the load/store/icall constraints indexed *on that node* for the new
//! objects only, and never rescans the constraint system. Copy-edge
//! cycles — which otherwise spin deltas around forever — are detected
//! with an iterative Tarjan pass and collapsed through a union-find so
//! every cycle member shares one representative set; detection runs
//! once up front and periodically as on-the-fly edges accumulate.
//! [`PointsToStats`] exposes the propagation and SCC counters.
//!
//! The seed's round-robin whole-graph solver is preserved as
//! `oracle` (tests / the `oracle` feature only) and the two are
//! asserted equivalent on random modules and on the paper's apps.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::time::{Duration, Instant};

use opec_ir::{FuncId, GlobalId, Inst, LocalId, Module, Operand, RegId, Terminator};

use crate::bitset::BitSet;

/// An abstract memory object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AbsObj {
    /// A global variable.
    Global(GlobalId),
    /// A stack local of a function.
    Local(FuncId, LocalId),
    /// A function (the target of function pointers).
    Func(FuncId),
}

/// Identifies an indirect call site: function, block index, instruction
/// index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId {
    /// Enclosing function.
    pub func: FuncId,
    /// Block index within the function.
    pub block: u32,
    /// Instruction index within the block.
    pub inst: u32,
}

/// Solver statistics (Table 3 reports analysis time; the counters make
/// the worklist solver's behaviour visible in reports).
#[derive(Debug, Clone, Copy, Default)]
pub struct PointsToStats {
    /// Number of pointer nodes.
    pub nodes: usize,
    /// Number of abstract objects.
    pub objects: usize,
    /// Solver passes: 1 + the number of periodic SCC re-runs.
    pub rounds: usize,
    /// Worklist pops that carried a non-empty delta.
    pub worklist_pops: usize,
    /// Total points-to bits forwarded along copy edges (difference
    /// propagation forwards each bit per edge at most once).
    pub propagated_bits: usize,
    /// Copy edges in the final constraint graph.
    pub copy_edges: usize,
    /// SCC detection passes executed.
    pub scc_runs: usize,
    /// Nodes eliminated by collapsing copy cycles.
    pub scc_collapsed: usize,
    /// Wall-clock solving time.
    pub duration: Duration,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum NodeKey {
    Reg(FuncId, RegId),
    Cell(u32),
    Ret(FuncId),
    Temp(u32),
}

struct IcallConstraint {
    site: SiteId,
    args: Vec<Option<usize>>,
    dst: Option<usize>,
    wired: BTreeSet<FuncId>,
}

struct Solver<'m> {
    module: &'m Module,
    node_ids: HashMap<NodeKey, usize>,
    nodes: Vec<NodeKey>,
    objs: Vec<AbsObj>,
    obj_ids: HashMap<AbsObj, usize>,
    /// Union-find parent; `parent[n] == n` for representatives.
    parent: Vec<usize>,
    /// Points-to set per representative.
    pts: Vec<BitSet>,
    /// Not-yet-forwarded bits per representative (always ⊆ `pts`).
    delta: Vec<BitSet>,
    /// Copy-edge successors per representative (targets may be stale
    /// after collapsing; remapped through `find` at use).
    succ: Vec<BTreeSet<usize>>,
    /// Load constraints indexed by address node: destination nodes.
    loads_at: Vec<Vec<usize>>,
    /// Store constraints indexed by address node: value nodes.
    stores_at: Vec<Vec<usize>>,
    /// Icall constraints indexed by function-pointer node.
    icalls_at: Vec<Vec<usize>>,
    icalls: Vec<IcallConstraint>,
    worklist: VecDeque<usize>,
    queued: Vec<bool>,
    temp_count: u32,
    stats: PointsToStats,
}

/// The analysis result.
pub struct PointsTo {
    reg_pts: HashMap<(FuncId, RegId), BTreeSet<AbsObj>>,
    cell_pts: HashMap<AbsObj, BTreeSet<AbsObj>>,
    /// Targets resolved per indirect call site by the points-to analysis.
    pub icall_targets: HashMap<SiteId, BTreeSet<FuncId>>,
    /// Solver statistics.
    pub stats: PointsToStats,
}

impl PointsTo {
    /// Runs the analysis over `module`.
    pub fn analyze(module: &Module) -> PointsTo {
        let start = Instant::now();
        let mut s = Solver {
            module,
            node_ids: HashMap::new(),
            nodes: Vec::new(),
            objs: Vec::new(),
            obj_ids: HashMap::new(),
            parent: Vec::new(),
            pts: Vec::new(),
            delta: Vec::new(),
            succ: Vec::new(),
            loads_at: Vec::new(),
            stores_at: Vec::new(),
            icalls_at: Vec::new(),
            icalls: Vec::new(),
            worklist: VecDeque::new(),
            queued: Vec::new(),
            temp_count: 0,
            stats: PointsToStats::default(),
        };
        s.generate();
        s.solve();
        let mut reg_pts = HashMap::new();
        let mut cell_pts = HashMap::new();
        for i in 0..s.nodes.len() {
            let rep = s.find(i);
            let set: BTreeSet<AbsObj> = s.pts[rep].iter().map(|o| s.objs[o]).collect();
            match s.nodes[i] {
                NodeKey::Reg(f, r) if !set.is_empty() => {
                    reg_pts.insert((f, r), set);
                }
                NodeKey::Cell(o) if !set.is_empty() => {
                    cell_pts.insert(s.objs[o as usize], set);
                }
                _ => {}
            }
        }
        let icall_targets =
            s.icalls.iter().map(|c| (c.site, c.wired.clone())).collect::<HashMap<_, _>>();
        let mut stats = s.stats;
        stats.nodes = s.nodes.len();
        stats.objects = s.objs.len();
        stats.duration = start.elapsed();
        PointsTo { reg_pts, cell_pts, icall_targets, stats }
    }

    /// The points-to set of register `r` in function `f` (empty set if
    /// the register holds no pointers).
    pub fn reg(&self, f: FuncId, r: RegId) -> BTreeSet<AbsObj> {
        self.reg_pts.get(&(f, r)).cloned().unwrap_or_default()
    }

    /// The points-to set of the *contents* of an abstract object.
    pub fn cell(&self, obj: AbsObj) -> BTreeSet<AbsObj> {
        self.cell_pts.get(&obj).cloned().unwrap_or_default()
    }

    /// All registers with non-empty points-to sets.
    pub fn reg_entries(&self) -> impl Iterator<Item = (&(FuncId, RegId), &BTreeSet<AbsObj>)> {
        self.reg_pts.iter()
    }

    /// All object cells with non-empty points-to sets.
    pub fn cell_entries(&self) -> impl Iterator<Item = (&AbsObj, &BTreeSet<AbsObj>)> {
        self.cell_pts.iter()
    }

    /// Globals that `f`'s register `r` may point to.
    pub fn reg_globals(&self, f: FuncId, r: RegId) -> BTreeSet<GlobalId> {
        self.reg(f, r)
            .into_iter()
            .filter_map(|o| match o {
                AbsObj::Global(g) => Some(g),
                _ => None,
            })
            .collect()
    }
}

/// Splits `pts` into the source set of `src` and the mutable
/// destination set of `dst` (`src != dst`).
fn pts_pair(pts: &mut [BitSet], src: usize, dst: usize) -> (&BitSet, &mut BitSet) {
    debug_assert_ne!(src, dst);
    if src < dst {
        let (l, r) = pts.split_at_mut(dst);
        (&l[src], &mut r[0])
    } else {
        let (l, r) = pts.split_at_mut(src);
        (&r[0], &mut l[dst])
    }
}

impl<'m> Solver<'m> {
    fn node(&mut self, key: NodeKey) -> usize {
        if let Some(&i) = self.node_ids.get(&key) {
            return i;
        }
        let i = self.nodes.len();
        self.nodes.push(key);
        self.node_ids.insert(key, i);
        self.parent.push(i);
        self.pts.push(BitSet::new());
        self.delta.push(BitSet::new());
        self.succ.push(BTreeSet::new());
        self.loads_at.push(Vec::new());
        self.stores_at.push(Vec::new());
        self.icalls_at.push(Vec::new());
        self.queued.push(false);
        i
    }

    fn obj(&mut self, obj: AbsObj) -> usize {
        if let Some(&i) = self.obj_ids.get(&obj) {
            return i;
        }
        let i = self.objs.len();
        self.objs.push(obj);
        self.obj_ids.insert(obj, i);
        i
    }

    fn temp(&mut self) -> usize {
        let t = self.temp_count;
        self.temp_count += 1;
        self.node(NodeKey::Temp(t))
    }

    /// Union-find lookup with path halving.
    fn find(&mut self, mut n: usize) -> usize {
        while self.parent[n] != n {
            let grandparent = self.parent[self.parent[n]];
            self.parent[n] = grandparent;
            n = grandparent;
        }
        n
    }

    fn enqueue(&mut self, n: usize) {
        if !self.queued[n] {
            self.queued[n] = true;
            self.worklist.push_back(n);
        }
    }

    /// Adds a copy edge and flows everything currently known at `from`
    /// into `to`. Returns `true` if the edge is new.
    fn add_edge(&mut self, from: usize, to: usize) -> bool {
        let from = self.find(from);
        let to = self.find(to);
        if from == to || !self.succ[from].insert(to) {
            return false;
        }
        self.stats.copy_edges += 1;
        if !self.pts[from].is_empty() {
            let changed = {
                let (src, dst) = pts_pair(&mut self.pts, from, to);
                dst.union_into_delta(src, &mut self.delta[to])
            };
            if changed {
                self.enqueue(to);
            }
        }
        true
    }

    fn base(&mut self, node: usize, obj: AbsObj) {
        let o = self.obj(obj);
        self.pts[node].insert(o);
    }

    fn op_node(&mut self, f: FuncId, op: &Operand) -> Option<usize> {
        match op {
            Operand::Reg(r) => Some(self.node(NodeKey::Reg(f, *r))),
            Operand::Imm(_) => None,
        }
    }

    fn generate(&mut self) {
        for (fi, func) in self.module.funcs.iter().enumerate() {
            let fid = FuncId(fi as u32);
            for (bi, block) in func.blocks.iter().enumerate() {
                for (ii, inst) in block.insts.iter().enumerate() {
                    self.gen_inst(fid, bi as u32, ii as u32, inst);
                }
                if let Terminator::Ret(Some(Operand::Reg(r))) = block.term {
                    let from = self.node(NodeKey::Reg(fid, r));
                    let to = self.node(NodeKey::Ret(fid));
                    self.succ[from].insert(to);
                }
            }
        }
    }

    fn gen_inst(&mut self, f: FuncId, block: u32, inst_idx: u32, inst: &Inst) {
        match inst {
            Inst::Mov { dst, src } | Inst::Un { dst, src, .. } => {
                let d = self.node(NodeKey::Reg(f, *dst));
                if let Some(s) = self.op_node(f, src) {
                    if s != d {
                        self.succ[s].insert(d);
                    }
                }
            }
            Inst::Bin { dst, lhs, rhs, .. } => {
                // Pointer arithmetic: either operand may carry the
                // pointer (field-insensitive, so offsets are dropped).
                let d = self.node(NodeKey::Reg(f, *dst));
                for op in [lhs, rhs] {
                    if let Some(s) = self.op_node(f, op) {
                        if s != d {
                            self.succ[s].insert(d);
                        }
                    }
                }
            }
            Inst::AddrOfGlobal { dst, global, .. } => {
                let d = self.node(NodeKey::Reg(f, *dst));
                self.base(d, AbsObj::Global(*global));
            }
            Inst::AddrOfLocal { dst, local, .. } => {
                let d = self.node(NodeKey::Reg(f, *dst));
                self.base(d, AbsObj::Local(f, *local));
            }
            Inst::AddrOfFunc { dst, func } => {
                let d = self.node(NodeKey::Reg(f, *dst));
                self.base(d, AbsObj::Func(*func));
            }
            Inst::LoadGlobal { dst, global, .. } => {
                let o = self.obj(AbsObj::Global(*global));
                let cell = self.node(NodeKey::Cell(o as u32));
                let d = self.node(NodeKey::Reg(f, *dst));
                if cell != d {
                    self.succ[cell].insert(d);
                }
            }
            Inst::StoreGlobal { global, value, .. } => {
                if let Some(v) = self.op_node(f, value) {
                    let o = self.obj(AbsObj::Global(*global));
                    let cell = self.node(NodeKey::Cell(o as u32));
                    if v != cell {
                        self.succ[v].insert(cell);
                    }
                }
            }
            Inst::Load { dst, addr, .. } => {
                if let Some(a) = self.op_node(f, addr) {
                    let d = self.node(NodeKey::Reg(f, *dst));
                    self.loads_at[a].push(d);
                }
            }
            Inst::Store { addr, value, .. } => {
                if let (Some(a), Some(v)) = (self.op_node(f, addr), self.op_node(f, value)) {
                    self.stores_at[a].push(v);
                }
            }
            Inst::Call { dst, callee, args } => {
                self.wire_call(f, *callee, args, *dst);
            }
            Inst::CallIndirect { dst, fptr, args, .. } => {
                if let Some(a) = self.op_node(f, fptr) {
                    let arg_nodes = args.iter().map(|op| self.op_node(f, op)).collect();
                    let dst_node = dst.map(|d| self.node(NodeKey::Reg(f, d)));
                    let ci = self.icalls.len();
                    self.icalls.push(IcallConstraint {
                        site: SiteId { func: f, block, inst: inst_idx },
                        args: arg_nodes,
                        dst: dst_node,
                        wired: BTreeSet::new(),
                    });
                    self.icalls_at[a].push(ci);
                }
            }
            Inst::Memcpy { dst, src, .. } => {
                // *dst ⊇ *src via a temporary: t ⊇ *src; *dst ⊇ t.
                if let (Some(d), Some(s)) = (self.op_node(f, dst), self.op_node(f, src)) {
                    let t = self.temp();
                    self.loads_at[s].push(t);
                    self.stores_at[d].push(t);
                }
            }
            Inst::Memset { .. } | Inst::Svc { .. } | Inst::Halt | Inst::Nop => {}
        }
    }

    fn wire_call(&mut self, caller: FuncId, callee: FuncId, args: &[Operand], dst: Option<RegId>) {
        let param_count = self.module.funcs[callee.0 as usize].params.len();
        for (i, arg) in args.iter().enumerate().take(param_count) {
            if let Some(a) = self.op_node(caller, arg) {
                let p = self.node(NodeKey::Reg(callee, RegId(i as u32)));
                if a != p {
                    self.succ[a].insert(p);
                }
            }
        }
        if let Some(d) = dst {
            let r = self.node(NodeKey::Ret(callee));
            let dn = self.node(NodeKey::Reg(caller, d));
            if r != dn {
                self.succ[r].insert(dn);
            }
        }
    }

    fn cell_of(&mut self, obj_idx: usize) -> Option<usize> {
        match self.objs[obj_idx] {
            AbsObj::Func(_) => None,
            _ => Some(self.node(NodeKey::Cell(obj_idx as u32))),
        }
    }

    /// Worklist fixpoint with difference propagation.
    fn solve(&mut self) {
        // Seed: every base fact is an unforwarded delta.
        for n in 0..self.nodes.len() {
            if !self.pts[n].is_empty() {
                self.delta[n] = self.pts[n].clone();
                self.enqueue(n);
            }
        }
        self.collapse_sccs();
        self.stats.rounds = 1;
        let mut pops_since_scc = 0usize;
        while let Some(popped) = self.worklist.pop_front() {
            self.queued[popped] = false;
            let n = self.find(popped);
            let d = self.delta[n].take();
            if d.is_empty() {
                continue;
            }
            self.stats.worklist_pops += 1;
            self.stats.propagated_bits += d.len();

            // Expand the complex constraints indexed on this node for
            // the *new* objects only.
            let loads = self.loads_at[n].clone();
            let stores = self.stores_at[n].clone();
            let icall_idxs = self.icalls_at[n].clone();
            for o in d.iter() {
                if !loads.is_empty() || !stores.is_empty() {
                    if let Some(cell) = self.cell_of(o) {
                        for &dst in &loads {
                            self.add_edge(cell, dst);
                        }
                        for &val in &stores {
                            self.add_edge(val, cell);
                        }
                    }
                }
                if !icall_idxs.is_empty() {
                    if let AbsObj::Func(target) = self.objs[o] {
                        for &ci in &icall_idxs {
                            self.wire_icall_target(ci, target);
                        }
                    }
                }
            }

            // Forward only the delta along copy edges.
            let succs: Vec<usize> = self.succ[n].iter().copied().collect();
            for raw_to in succs {
                let to = self.find(raw_to);
                if to == n {
                    continue;
                }
                if self.pts[to].union_into_delta(&d, &mut self.delta[to]) {
                    self.enqueue(to);
                }
            }

            // Periodically collapse copy cycles formed by on-the-fly
            // edges; cycles otherwise keep deltas circulating.
            pops_since_scc += 1;
            if pops_since_scc >= self.nodes.len().max(128) && !self.worklist.is_empty() {
                self.collapse_sccs();
                self.stats.rounds += 1;
                pops_since_scc = 0;
            }
        }
    }

    fn wire_icall_target(&mut self, ci: usize, target: FuncId) {
        if self.icalls[ci].wired.contains(&target) {
            return;
        }
        self.icalls[ci].wired.insert(target);
        let args = self.icalls[ci].args.clone();
        let dst = self.icalls[ci].dst;
        let param_count = self.module.funcs[target.0 as usize].params.len();
        for (i, arg) in args.iter().enumerate().take(param_count) {
            if let Some(a) = *arg {
                let p = self.node(NodeKey::Reg(target, RegId(i as u32)));
                self.add_edge(a, p);
            }
        }
        if let Some(d) = dst {
            let r = self.node(NodeKey::Ret(target));
            self.add_edge(r, d);
        }
    }

    /// Successor representatives of `v`, deduplicated, self-loops
    /// dropped.
    fn rep_succs(&mut self, v: usize) -> Vec<usize> {
        let raw: Vec<usize> = self.succ[v].iter().copied().collect();
        let mut out: BTreeSet<usize> = BTreeSet::new();
        for t in raw {
            let t = self.find(t);
            if t != v {
                out.insert(t);
            }
        }
        out.into_iter().collect()
    }

    /// Iterative Tarjan over the copy graph's representatives; every
    /// multi-node SCC is collapsed into its smallest member.
    fn collapse_sccs(&mut self) {
        self.stats.scc_runs += 1;
        const UNVISITED: u32 = u32::MAX;
        let n = self.nodes.len();
        let mut index = vec![UNVISITED; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut sccs: Vec<Vec<usize>> = Vec::new();
        let mut next = 0u32;
        struct Frame {
            v: usize,
            succs: Vec<usize>,
            pos: usize,
        }
        enum Step {
            Child(usize, usize),
            Done(usize),
        }
        let mut frames: Vec<Frame> = Vec::new();
        for root in 0..n {
            if self.parent[root] != root || index[root] != UNVISITED {
                continue;
            }
            index[root] = next;
            low[root] = next;
            next += 1;
            stack.push(root);
            on_stack[root] = true;
            let succs = self.rep_succs(root);
            frames.push(Frame { v: root, succs, pos: 0 });
            while !frames.is_empty() {
                let step = {
                    let f = frames.last_mut().expect("non-empty");
                    if f.pos < f.succs.len() {
                        let w = f.succs[f.pos];
                        f.pos += 1;
                        Step::Child(f.v, w)
                    } else {
                        Step::Done(f.v)
                    }
                };
                match step {
                    Step::Child(v, w) => {
                        if index[w] == UNVISITED {
                            index[w] = next;
                            low[w] = next;
                            next += 1;
                            stack.push(w);
                            on_stack[w] = true;
                            let succs = self.rep_succs(w);
                            frames.push(Frame { v: w, succs, pos: 0 });
                        } else if on_stack[w] {
                            low[v] = low[v].min(index[w]);
                        }
                    }
                    Step::Done(v) => {
                        frames.pop();
                        if let Some(parent_frame) = frames.last() {
                            let pv = parent_frame.v;
                            low[pv] = low[pv].min(low[v]);
                        }
                        if low[v] == index[v] {
                            let mut comp = Vec::new();
                            while let Some(w) = stack.pop() {
                                on_stack[w] = false;
                                comp.push(w);
                                if w == v {
                                    break;
                                }
                            }
                            if comp.len() > 1 {
                                sccs.push(comp);
                            }
                        }
                    }
                }
            }
        }
        for comp in sccs {
            self.merge_scc(&comp);
        }
    }

    /// Collapses one copy cycle into its smallest member and schedules
    /// a full re-propagation of the merged set (sound: difference
    /// propagation tolerates duplicate forwarding).
    fn merge_scc(&mut self, comp: &[usize]) {
        let rep = *comp.iter().min().expect("non-empty SCC");
        for &m in comp {
            if m == rep {
                continue;
            }
            self.parent[m] = rep;
            let m_pts = self.pts[m].take();
            self.pts[rep].union_with(&m_pts);
            self.delta[m].clear();
            let m_succ = std::mem::take(&mut self.succ[m]);
            self.succ[rep].extend(m_succ);
            let m_loads = std::mem::take(&mut self.loads_at[m]);
            self.loads_at[rep].extend(m_loads);
            let m_stores = std::mem::take(&mut self.stores_at[m]);
            self.stores_at[rep].extend(m_stores);
            let m_icalls = std::mem::take(&mut self.icalls_at[m]);
            self.icalls_at[rep].extend(m_icalls);
            self.stats.scc_collapsed += 1;
        }
        if !self.pts[rep].is_empty() {
            self.delta[rep] = self.pts[rep].clone();
            self.enqueue(rep);
        }
    }
}

/// The seed's round-robin, whole-graph solver, kept verbatim as a
/// differential-testing oracle. Compiled only for tests (or under the
/// `oracle` feature, which the workspace enables from dev-dependencies
/// so integration tests can compare the solvers on the paper's apps).
#[cfg(any(test, feature = "oracle"))]
#[doc(hidden)]
pub mod oracle {
    use super::{AbsObj, NodeKey, SiteId};
    use crate::bitset::BitSet;
    use opec_ir::{FuncId, Inst, Module, Operand, RegId, Terminator};
    use std::collections::{BTreeSet, HashMap};

    /// Result of the reference solver, shaped for whole-map equality
    /// assertions against [`super::PointsTo`].
    pub struct OracleResult {
        pub reg_pts: HashMap<(FuncId, RegId), BTreeSet<AbsObj>>,
        pub cell_pts: HashMap<AbsObj, BTreeSet<AbsObj>>,
        pub icall_targets: HashMap<SiteId, BTreeSet<FuncId>>,
    }

    struct IcallConstraint {
        site: SiteId,
        fptr: usize,
        args: Vec<Option<usize>>,
        dst: Option<usize>,
        wired: BTreeSet<FuncId>,
    }

    struct Solver<'m> {
        module: &'m Module,
        node_ids: HashMap<NodeKey, usize>,
        nodes: Vec<NodeKey>,
        objs: Vec<AbsObj>,
        obj_ids: HashMap<AbsObj, usize>,
        pts: Vec<BitSet>,
        succ: Vec<BTreeSet<usize>>,
        loads: Vec<(usize, usize)>,
        stores: Vec<(usize, usize)>,
        icalls: Vec<IcallConstraint>,
        temp_count: u32,
    }

    /// Runs the seed's round-robin analysis over `module`.
    pub fn analyze(module: &Module) -> OracleResult {
        let mut s = Solver {
            module,
            node_ids: HashMap::new(),
            nodes: Vec::new(),
            objs: Vec::new(),
            obj_ids: HashMap::new(),
            pts: Vec::new(),
            succ: Vec::new(),
            loads: Vec::new(),
            stores: Vec::new(),
            icalls: Vec::new(),
            temp_count: 0,
        };
        s.generate();
        s.solve();
        let mut reg_pts = HashMap::new();
        let mut cell_pts = HashMap::new();
        for (i, key) in s.nodes.iter().enumerate() {
            let set: BTreeSet<AbsObj> = s.pts[i].iter().map(|o| s.objs[o]).collect();
            match *key {
                NodeKey::Reg(f, r) if !set.is_empty() => {
                    reg_pts.insert((f, r), set);
                }
                NodeKey::Cell(o) if !set.is_empty() => {
                    cell_pts.insert(s.objs[o as usize], set);
                }
                _ => {}
            }
        }
        let icall_targets = s.icalls.iter().map(|c| (c.site, c.wired.clone())).collect();
        OracleResult { reg_pts, cell_pts, icall_targets }
    }

    impl<'m> Solver<'m> {
        fn node(&mut self, key: NodeKey) -> usize {
            if let Some(&i) = self.node_ids.get(&key) {
                return i;
            }
            let i = self.nodes.len();
            self.nodes.push(key);
            self.node_ids.insert(key, i);
            self.pts.push(BitSet::new());
            self.succ.push(BTreeSet::new());
            i
        }

        fn obj(&mut self, obj: AbsObj) -> usize {
            if let Some(&i) = self.obj_ids.get(&obj) {
                return i;
            }
            let i = self.objs.len();
            self.objs.push(obj);
            self.obj_ids.insert(obj, i);
            i
        }

        fn temp(&mut self) -> usize {
            let t = self.temp_count;
            self.temp_count += 1;
            self.node(NodeKey::Temp(t))
        }

        fn copy(&mut self, from: usize, to: usize) -> bool {
            if from == to {
                return false;
            }
            self.succ[from].insert(to)
        }

        fn base(&mut self, node: usize, obj: AbsObj) {
            let o = self.obj(obj);
            self.pts[node].insert(o);
        }

        fn op_node(&mut self, f: FuncId, op: &Operand) -> Option<usize> {
            match op {
                Operand::Reg(r) => Some(self.node(NodeKey::Reg(f, *r))),
                Operand::Imm(_) => None,
            }
        }

        fn generate(&mut self) {
            for (fi, func) in self.module.funcs.iter().enumerate() {
                let fid = FuncId(fi as u32);
                for (bi, block) in func.blocks.iter().enumerate() {
                    for (ii, inst) in block.insts.iter().enumerate() {
                        self.gen_inst(fid, bi as u32, ii as u32, inst);
                    }
                    if let Terminator::Ret(Some(Operand::Reg(r))) = block.term {
                        let from = self.node(NodeKey::Reg(fid, r));
                        let to = self.node(NodeKey::Ret(fid));
                        self.copy(from, to);
                    }
                }
            }
        }

        fn gen_inst(&mut self, f: FuncId, block: u32, inst_idx: u32, inst: &Inst) {
            match inst {
                Inst::Mov { dst, src } | Inst::Un { dst, src, .. } => {
                    let d = self.node(NodeKey::Reg(f, *dst));
                    if let Some(s) = self.op_node(f, src) {
                        self.copy(s, d);
                    }
                }
                Inst::Bin { dst, lhs, rhs, .. } => {
                    let d = self.node(NodeKey::Reg(f, *dst));
                    for op in [lhs, rhs] {
                        if let Some(s) = self.op_node(f, op) {
                            self.copy(s, d);
                        }
                    }
                }
                Inst::AddrOfGlobal { dst, global, .. } => {
                    let d = self.node(NodeKey::Reg(f, *dst));
                    self.base(d, AbsObj::Global(*global));
                }
                Inst::AddrOfLocal { dst, local, .. } => {
                    let d = self.node(NodeKey::Reg(f, *dst));
                    self.base(d, AbsObj::Local(f, *local));
                }
                Inst::AddrOfFunc { dst, func } => {
                    let d = self.node(NodeKey::Reg(f, *dst));
                    self.base(d, AbsObj::Func(*func));
                }
                Inst::LoadGlobal { dst, global, .. } => {
                    let o = self.obj(AbsObj::Global(*global));
                    let cell = self.node(NodeKey::Cell(o as u32));
                    let d = self.node(NodeKey::Reg(f, *dst));
                    self.copy(cell, d);
                }
                Inst::StoreGlobal { global, value, .. } => {
                    if let Some(v) = self.op_node(f, value) {
                        let o = self.obj(AbsObj::Global(*global));
                        let cell = self.node(NodeKey::Cell(o as u32));
                        self.copy(v, cell);
                    }
                }
                Inst::Load { dst, addr, .. } => {
                    if let Some(a) = self.op_node(f, addr) {
                        let d = self.node(NodeKey::Reg(f, *dst));
                        self.loads.push((a, d));
                    }
                }
                Inst::Store { addr, value, .. } => {
                    if let (Some(a), Some(v)) = (self.op_node(f, addr), self.op_node(f, value)) {
                        self.stores.push((a, v));
                    }
                }
                Inst::Call { dst, callee, args } => {
                    self.wire_call(f, *callee, args, *dst);
                }
                Inst::CallIndirect { dst, fptr, args, .. } => {
                    if let Some(a) = self.op_node(f, fptr) {
                        let arg_nodes = args.iter().map(|op| self.op_node(f, op)).collect();
                        let dst_node = dst.map(|d| self.node(NodeKey::Reg(f, d)));
                        self.icalls.push(IcallConstraint {
                            site: SiteId { func: f, block, inst: inst_idx },
                            fptr: a,
                            args: arg_nodes,
                            dst: dst_node,
                            wired: BTreeSet::new(),
                        });
                    }
                }
                Inst::Memcpy { dst, src, .. } => {
                    if let (Some(d), Some(s)) = (self.op_node(f, dst), self.op_node(f, src)) {
                        let t = self.temp();
                        self.loads.push((s, t));
                        self.stores.push((d, t));
                    }
                }
                Inst::Memset { .. } | Inst::Svc { .. } | Inst::Halt | Inst::Nop => {}
            }
        }

        fn wire_call(
            &mut self,
            caller: FuncId,
            callee: FuncId,
            args: &[Operand],
            dst: Option<RegId>,
        ) {
            let param_count = self.module.funcs[callee.0 as usize].params.len();
            for (i, arg) in args.iter().enumerate().take(param_count) {
                if let Some(a) = self.op_node(caller, arg) {
                    let p = self.node(NodeKey::Reg(callee, RegId(i as u32)));
                    self.copy(a, p);
                }
            }
            if let Some(d) = dst {
                let r = self.node(NodeKey::Ret(callee));
                let dn = self.node(NodeKey::Reg(caller, d));
                self.copy(r, dn);
            }
        }

        fn cell_of(&mut self, obj_idx: usize) -> Option<usize> {
            match self.objs[obj_idx] {
                AbsObj::Func(_) => None,
                _ => Some(self.node(NodeKey::Cell(obj_idx as u32))),
            }
        }

        fn solve(&mut self) {
            loop {
                // 1. Propagate along copy edges to a local fixpoint.
                let mut changed = true;
                while changed {
                    changed = false;
                    for from in 0..self.nodes.len() {
                        if self.pts[from].is_empty() {
                            continue;
                        }
                        let src = self.pts[from].clone();
                        let succs: Vec<usize> = self.succ[from].iter().copied().collect();
                        for to in succs {
                            if self.pts[to].union_with(&src) {
                                changed = true;
                            }
                        }
                    }
                }
                // 2. Expand complex constraints; repeat if new edges appear.
                let mut new_edges = false;
                for li in 0..self.loads.len() {
                    let (addr, dst) = self.loads[li];
                    let objs: Vec<usize> = self.pts[addr].iter().collect();
                    for o in objs {
                        if let Some(cell) = self.cell_of(o) {
                            if self.copy(cell, dst) {
                                new_edges = true;
                            }
                        }
                    }
                }
                for si in 0..self.stores.len() {
                    let (addr, value) = self.stores[si];
                    let objs: Vec<usize> = self.pts[addr].iter().collect();
                    for o in objs {
                        if let Some(cell) = self.cell_of(o) {
                            if self.copy(value, cell) {
                                new_edges = true;
                            }
                        }
                    }
                }
                for ci in 0..self.icalls.len() {
                    let fptr = self.icalls[ci].fptr;
                    let targets: Vec<FuncId> = self.pts[fptr]
                        .iter()
                        .filter_map(|o| match self.objs[o] {
                            AbsObj::Func(f) => Some(f),
                            _ => None,
                        })
                        .collect();
                    for t in targets {
                        if self.icalls[ci].wired.contains(&t) {
                            continue;
                        }
                        self.icalls[ci].wired.insert(t);
                        new_edges = true;
                        let args = self.icalls[ci].args.clone();
                        let dst = self.icalls[ci].dst;
                        let param_count = self.module.funcs[t.0 as usize].params.len();
                        for (i, arg) in args.iter().enumerate().take(param_count) {
                            if let Some(a) = *arg {
                                let p = self.node(NodeKey::Reg(t, RegId(i as u32)));
                                self.copy(a, p);
                            }
                        }
                        if let Some(d) = dst {
                            let r = self.node(NodeKey::Ret(t));
                            self.copy(r, d);
                        }
                    }
                }
                if !new_edges {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opec_ir::module::BinOp;
    use opec_ir::{ModuleBuilder, Ty};

    #[test]
    fn addr_of_global_flows_through_mov_and_call() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global("buf", Ty::Array(Box::new(Ty::I8), 16), "a.c");
        let callee = mb.declare("use_ptr", vec![("p", Ty::Ptr(Box::new(Ty::I8)))], None, "a.c");
        let caller = mb.func("caller", vec![], None, "a.c", |fb| {
            let p = fb.addr_of_global(g, 0);
            fb.call_void(callee, vec![opec_ir::Operand::Reg(p)]);
            fb.ret_void();
        });
        mb.define(callee, |fb| {
            let p = fb.param(0);
            fb.store(opec_ir::Operand::Reg(p), opec_ir::Operand::Imm(0), 1);
            fb.ret_void();
        });
        let m = mb.finish();
        let pt = PointsTo::analyze(&m);
        let _ = caller;
        // Parameter register 0 of callee points to the global.
        assert_eq!(pt.reg_globals(callee, RegId(0)).into_iter().collect::<Vec<_>>(), vec![g]);
    }

    #[test]
    fn pointer_stored_in_global_and_reloaded() {
        let mut mb = ModuleBuilder::new("t");
        let target = mb.global("target", Ty::I32, "a.c");
        let holder = mb.global("holder", Ty::Ptr(Box::new(Ty::I32)), "a.c");
        let writer = mb.func("writer", vec![], None, "a.c", |fb| {
            let p = fb.addr_of_global(target, 0);
            fb.store_global(holder, 0, opec_ir::Operand::Reg(p), 4);
            fb.ret_void();
        });
        let reader = mb.func("reader", vec![], None, "a.c", |fb| {
            let p = fb.load_global(holder, 0, 4);
            let _v = fb.load(opec_ir::Operand::Reg(p), 4);
            fb.ret_void();
        });
        let _ = writer;
        let m = mb.finish();
        let pt = PointsTo::analyze(&m);
        // The reloaded pointer points to `target`.
        let set = pt.reg_globals(reader, RegId(0));
        assert!(set.contains(&target));
    }

    #[test]
    fn icall_resolved_on_the_fly() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global("hit", Ty::I32, "a.c");
        let handler = mb.func("handler", vec![], None, "a.c", |fb| {
            fb.store_global(g, 0, opec_ir::Operand::Imm(1), 4);
            fb.ret_void();
        });
        let sig = mb.sig_of(handler);
        let disp = mb.func("dispatch", vec![], None, "a.c", |fb| {
            let fp = fb.addr_of_func(handler);
            fb.icall_void(opec_ir::Operand::Reg(fp), sig, vec![]);
            fb.ret_void();
        });
        let m = mb.finish();
        let pt = PointsTo::analyze(&m);
        let site = SiteId { func: disp, block: 0, inst: 1 };
        assert_eq!(
            pt.icall_targets.get(&site).cloned().unwrap_or_default(),
            [handler].into_iter().collect::<BTreeSet<_>>()
        );
    }

    #[test]
    fn pointer_arith_keeps_target() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global("arr", Ty::Array(Box::new(Ty::I32), 8), "a.c");
        let f = mb.func("f", vec![], None, "a.c", |fb| {
            let p = fb.addr_of_global(g, 0);
            let q = fb.bin(BinOp::Add, opec_ir::Operand::Reg(p), opec_ir::Operand::Imm(4));
            let _v = fb.load(opec_ir::Operand::Reg(q), 4);
            fb.ret_void();
        });
        let m = mb.finish();
        let pt = PointsTo::analyze(&m);
        assert!(pt.reg_globals(f, RegId(1)).contains(&g));
    }

    #[test]
    fn memcpy_propagates_cell_contents() {
        let mut mb = ModuleBuilder::new("t");
        let target = mb.global("the_target", Ty::I32, "a.c");
        let src = mb.global("src_slot", Ty::Ptr(Box::new(Ty::I32)), "a.c");
        let dst = mb.global("dst_slot", Ty::Ptr(Box::new(Ty::I32)), "a.c");
        mb.func("seed", vec![], None, "a.c", |fb| {
            let p = fb.addr_of_global(target, 0);
            fb.store_global(src, 0, opec_ir::Operand::Reg(p), 4);
            fb.ret_void();
        });
        mb.func("copyit", vec![], None, "a.c", |fb| {
            let d = fb.addr_of_global(dst, 0);
            let s = fb.addr_of_global(src, 0);
            fb.memcpy(opec_ir::Operand::Reg(d), opec_ir::Operand::Reg(s), opec_ir::Operand::Imm(4));
            fb.ret_void();
        });
        let m = mb.finish();
        let pt = PointsTo::analyze(&m);
        assert!(pt.cell(AbsObj::Global(dst)).contains(&AbsObj::Global(target)));
    }

    #[test]
    fn return_value_flows_to_caller() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global("singleton", Ty::I32, "a.c");
        let getter = mb.func("get", vec![], Some(Ty::Ptr(Box::new(Ty::I32))), "a.c", |fb| {
            let p = fb.addr_of_global(g, 0);
            fb.ret(opec_ir::Operand::Reg(p));
        });
        let user = mb.func("user", vec![], None, "a.c", |fb| {
            let p = fb.call(getter, vec![]);
            let _ = fb.load(opec_ir::Operand::Reg(p), 4);
            fb.ret_void();
        });
        let m = mb.finish();
        let pt = PointsTo::analyze(&m);
        assert!(pt.reg_globals(user, RegId(0)).contains(&g));
    }

    #[test]
    fn stats_populated() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("empty", vec![], None, "a.c", |fb| fb.ret_void());
        let pt = PointsTo::analyze(&mb.finish());
        assert!(pt.stats.rounds >= 1);
        assert!(pt.stats.scc_runs >= 1);
    }

    #[test]
    fn copy_cycle_is_collapsed() {
        // p0 -> p1 -> p2 -> p0 via movs; one address seeds the cycle.
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global("obj", Ty::I32, "a.c");
        let f = mb.func("spin", vec![], None, "a.c", |fb| {
            let a = fb.addr_of_global(g, 0);
            let b = fb.reg();
            let c = fb.reg();
            fb.mov(b, opec_ir::Operand::Reg(a));
            fb.mov(c, opec_ir::Operand::Reg(b));
            fb.mov(a, opec_ir::Operand::Reg(c));
            fb.ret_void();
        });
        let m = mb.finish();
        let pt = PointsTo::analyze(&m);
        for r in 0..3 {
            assert!(pt.reg_globals(f, RegId(r)).contains(&g), "r{r} lost the target");
        }
        assert!(pt.stats.scc_collapsed >= 2, "cycle not collapsed: {:?}", pt.stats);
    }

    /// Whole-result equality against the seed solver on a module
    /// exercising every constraint form at once.
    #[test]
    fn matches_oracle_on_mixed_module() {
        let m = dense_test_module();
        assert_same_results(&m);
    }

    fn dense_test_module() -> opec_ir::Module {
        let mut mb = ModuleBuilder::new("mixed");
        let slots: Vec<_> = (0..4)
            .map(|i| mb.global(format!("slot{i}"), Ty::Ptr(Box::new(Ty::I32)), "a.c"))
            .collect();
        let objs: Vec<_> = (0..3).map(|i| mb.global(format!("obj{i}"), Ty::I32, "a.c")).collect();
        let ptr_ty = Ty::Ptr(Box::new(Ty::I32));
        let h1 = mb.declare("h1", vec![("p", ptr_ty.clone())], Some(ptr_ty.clone()), "a.c");
        let h2 = mb.declare("h2", vec![("p", ptr_ty.clone())], Some(ptr_ty.clone()), "a.c");
        mb.define(h1, |fb| {
            let p = fb.param(0);
            fb.ret(opec_ir::Operand::Reg(p));
        });
        mb.define(h2, |fb| {
            let p = fb.param(0);
            let q = fb.load(opec_ir::Operand::Reg(p), 4);
            fb.ret(opec_ir::Operand::Reg(q));
        });
        let sig = mb.sig_of(h1);
        mb.func("driver", vec![], None, "a.c", |fb| {
            let o0 = fb.addr_of_global(objs[0], 0);
            let o1 = fb.addr_of_global(objs[1], 0);
            fb.store_global(slots[0], 0, opec_ir::Operand::Reg(o0), 4);
            fb.store_global(slots[1], 0, opec_ir::Operand::Reg(o1), 4);
            let s0 = fb.addr_of_global(slots[0], 0);
            let s1 = fb.addr_of_global(slots[1], 0);
            fb.memcpy(
                opec_ir::Operand::Reg(s1),
                opec_ir::Operand::Reg(s0),
                opec_ir::Operand::Imm(4),
            );
            let fp1 = fb.addr_of_func(h1);
            fb.store_global(slots[2], 0, opec_ir::Operand::Reg(fp1), 4);
            let fp2 = fb.addr_of_func(h2);
            fb.store_global(slots[3], 0, opec_ir::Operand::Reg(fp2), 4);
            let fpa = fb.load_global(slots[2], 0, 4);
            let fpb = fb.load_global(slots[3], 0, 4);
            // A two-target icall whose argument is itself a pointer.
            let r1 = fb.icall(opec_ir::Operand::Reg(fpa), sig, vec![opec_ir::Operand::Reg(s0)]);
            let r2 = fb.icall(opec_ir::Operand::Reg(fpb), sig, vec![opec_ir::Operand::Reg(r1)]);
            // Copy cycle closed through a global cell.
            fb.store_global(slots[0], 0, opec_ir::Operand::Reg(r2), 4);
            let back = fb.load_global(slots[0], 0, 4);
            let cyc = fb.bin(BinOp::Add, opec_ir::Operand::Reg(back), opec_ir::Operand::Imm(0));
            fb.store_global(slots[0], 0, opec_ir::Operand::Reg(cyc), 4);
            fb.ret_void();
        });
        mb.finish()
    }

    fn assert_same_results(m: &opec_ir::Module) {
        let fast = PointsTo::analyze(m);
        let slow = oracle::analyze(m);
        assert_eq!(fast.reg_pts, slow.reg_pts, "register points-to sets differ");
        assert_eq!(fast.cell_pts, slow.cell_pts, "cell points-to sets differ");
        assert_eq!(fast.icall_targets, slow.icall_targets, "icall resolutions differ");
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// One random instruction; indices are taken modulo whatever is
        /// available at build time.
        #[derive(Debug, Clone)]
        enum Op {
            AddrGlobal(usize),
            AddrFunc(usize),
            Mov(usize),
            Bin(usize, usize),
            LoadGlobal(usize),
            StoreGlobal(usize, usize),
            Load(usize),
            Store(usize, usize),
            Call(usize, usize),
            Icall(usize, usize),
            Memcpy(usize, usize),
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            let i = || 0usize..16;
            prop_oneof![
                i().prop_map(Op::AddrGlobal),
                i().prop_map(Op::AddrFunc),
                i().prop_map(Op::Mov),
                (i(), i()).prop_map(|(a, b)| Op::Bin(a, b)),
                i().prop_map(Op::LoadGlobal),
                (i(), i()).prop_map(|(a, b)| Op::StoreGlobal(a, b)),
                i().prop_map(Op::Load),
                (i(), i()).prop_map(|(a, b)| Op::Store(a, b)),
                (i(), i()).prop_map(|(a, b)| Op::Call(a, b)),
                (i(), i()).prop_map(|(a, b)| Op::Icall(a, b)),
                (i(), i()).prop_map(|(a, b)| Op::Memcpy(a, b)),
            ]
        }

        /// Builds a module of `nfuncs` single-pointer-param functions
        /// whose bodies execute the random op lists.
        fn build_module(nglobals: usize, bodies: &[Vec<Op>]) -> opec_ir::Module {
            let mut mb = ModuleBuilder::new("prop");
            let ptr_ty = Ty::Ptr(Box::new(Ty::I8));
            let globals: Vec<_> =
                (0..nglobals).map(|i| mb.global(format!("g{i}"), ptr_ty.clone(), "p.c")).collect();
            let funcs: Vec<_> = (0..bodies.len())
                .map(|i| {
                    mb.declare(
                        format!("f{i}"),
                        vec![("p", ptr_ty.clone())],
                        Some(ptr_ty.clone()),
                        "p.c",
                    )
                })
                .collect();
            let sigs: Vec<_> = funcs.iter().map(|&f| mb.sig_of(f)).collect();
            for (fi, body) in bodies.iter().enumerate() {
                let globals = globals.clone();
                let funcs = funcs.clone();
                let sigs = sigs.clone();
                let body = body.clone();
                mb.define(funcs[fi], move |fb| {
                    use opec_ir::Operand::Reg;
                    let mut regs = vec![fb.param(0)];
                    let r = |k: usize, regs: &Vec<opec_ir::RegId>| regs[k % regs.len()];
                    for op in &body {
                        match *op {
                            Op::AddrGlobal(g) => {
                                regs.push(fb.addr_of_global(globals[g % globals.len()], 0));
                            }
                            Op::AddrFunc(f) => {
                                regs.push(fb.addr_of_func(funcs[f % funcs.len()]));
                            }
                            Op::Mov(s) => {
                                let d = fb.reg();
                                fb.mov(d, Reg(r(s, &regs)));
                                regs.push(d);
                            }
                            Op::Bin(a, b) => {
                                regs.push(fb.bin(BinOp::Add, Reg(r(a, &regs)), Reg(r(b, &regs))));
                            }
                            Op::LoadGlobal(g) => {
                                regs.push(fb.load_global(globals[g % globals.len()], 0, 4));
                            }
                            Op::StoreGlobal(g, v) => {
                                fb.store_global(globals[g % globals.len()], 0, Reg(r(v, &regs)), 4);
                            }
                            Op::Load(a) => {
                                regs.push(fb.load(Reg(r(a, &regs)), 4));
                            }
                            Op::Store(a, v) => {
                                fb.store(Reg(r(a, &regs)), Reg(r(v, &regs)), 4);
                            }
                            Op::Call(f, a) => {
                                regs.push(fb.call(funcs[f % funcs.len()], vec![Reg(r(a, &regs))]));
                            }
                            Op::Icall(p, a) => {
                                regs.push(fb.icall(
                                    Reg(r(p, &regs)),
                                    sigs[0],
                                    vec![Reg(r(a, &regs))],
                                ));
                            }
                            Op::Memcpy(d, s) => {
                                fb.memcpy(
                                    Reg(r(d, &regs)),
                                    Reg(r(s, &regs)),
                                    opec_ir::Operand::Imm(4),
                                );
                            }
                        }
                    }
                    let last = *regs.last().expect("at least the param");
                    fb.ret(Reg(last));
                });
            }
            mb.finish()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// The worklist/difference-propagation solver computes
            /// exactly what the seed's round-robin solver computes, on
            /// random modules mixing every constraint form.
            #[test]
            fn worklist_equals_round_robin(
                nglobals in 1usize..5,
                bodies in proptest::collection::vec(
                    proptest::collection::vec(arb_op(), 1..10),
                    1..5,
                ),
            ) {
                let m = build_module(nglobals, &bodies);
                let fast = PointsTo::analyze(&m);
                let slow = oracle::analyze(&m);
                prop_assert_eq!(&fast.reg_pts, &slow.reg_pts);
                prop_assert_eq!(&fast.cell_pts, &slow.cell_pts);
                prop_assert_eq!(&fast.icall_targets, &slow.icall_targets);
            }
        }
    }
}
