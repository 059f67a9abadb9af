//! Value-flow path enumeration (Def. 6.2) by forward/backward slicing.
//!
//! Paths run from *interaction-data sources* (interface parameters, API
//! returns, globals, literals) to *uses* (API arguments, interface returns,
//! global stores, sensitive operations). Slicing follows data-dependence
//! edges only; conditions come from [`crate::cond`], and enumeration is
//! budgeted (depth and path-count caps) the way the paper bounds its
//! inter-procedural searching with summaries (§6.2.3).

use crate::cond::{CondCtx, CondVar};
use crate::graph::{NodeId, NodeKind, Pdg, UseKind};
use seal_ir::tac::{Inst, Operand, Rvalue, Terminator};
use seal_runtime::Symbol;
use seal_solver::{Formula, IncrementalTheory};
use std::collections::BTreeSet;

/// Budgets for path enumeration.
#[derive(Debug, Clone, Copy)]
pub struct SliceConfig {
    /// Maximum path length in nodes.
    pub max_depth: usize,
    /// Maximum number of paths returned per query.
    pub max_paths: usize,
}

impl Default for SliceConfig {
    fn default() -> Self {
        SliceConfig {
            max_depth: 48,
            max_paths: 512,
        }
    }
}

/// One inter-procedural value-flow path.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueFlowPath {
    /// Nodes from source to sink.
    pub nodes: Vec<NodeId>,
    /// Path condition `Ψ(p)` over PDG value nodes.
    pub cond: Formula<CondVar>,
    /// Classification of the final hop, when it is a `U`-domain use.
    pub sink_kind: Option<UseKind>,
}

impl ValueFlowPath {
    /// Source node.
    pub fn source(&self) -> NodeId {
        *self.nodes.first().expect("paths are non-empty")
    }

    /// Sink node.
    pub fn sink(&self) -> NodeId {
        *self.nodes.last().expect("paths are non-empty")
    }

    /// Stable structural signature, line-number free (paper §5 step 2:
    /// "statements inside paths are identical despite different line
    /// numbers").
    pub fn signature(&self, pdg: &Pdg<'_>) -> String {
        self.nodes
            .iter()
            .map(|&n| node_signature(pdg, n))
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// Whether a node originates interaction data (a Fig. 2 `V` element):
/// parameters of interface implementations or scope entries, API call
/// results, globals, and literals.
pub fn is_source(pdg: &Pdg<'_>, n: NodeId) -> bool {
    match pdg.kind(n) {
        NodeKind::Param { func, .. } => {
            let name = &pdg.module.body(*func).name;
            !pdg.module.interfaces_of(name).is_empty() || pdg.data_preds(n).is_empty()
        }
        NodeKind::GlobalDef { .. } | NodeKind::ConstArg { .. } => true,
        NodeKind::Ret { .. } => false,
        NodeKind::Inst(loc) => {
            if loc.is_terminator() {
                return matches!(
                    pdg.module.body(loc.func).block(loc.block).terminator,
                    Terminator::Return(Some(Operand::Const(_)))
                        | Terminator::Return(Some(Operand::Null))
                );
            }
            match pdg.module.body(loc.func).inst_at(*loc) {
                Some(Inst::Call { callee, dest, .. }) => {
                    dest.is_some()
                        && matches!(callee, seal_ir::tac::Callee::Direct(name) if pdg.module.is_api(name))
                }
                Some(Inst::Assign {
                    rv: Rvalue::Use(Operand::Const(_) | Operand::Null),
                    ..
                }) => true,
                Some(Inst::Store {
                    value: Operand::Const(_) | Operand::Null,
                    ..
                }) => true,
                _ => false,
            }
        }
    }
}

/// Literal value carried by a source node, when the source is a literal.
pub fn literal_of(pdg: &Pdg<'_>, n: NodeId) -> Option<i64> {
    match pdg.kind(n) {
        NodeKind::ConstArg { value, .. } => Some(*value),
        NodeKind::Inst(loc) => {
            if loc.is_terminator() {
                match &pdg.module.body(loc.func).block(loc.block).terminator {
                    Terminator::Return(Some(Operand::Const(c))) => Some(*c),
                    Terminator::Return(Some(Operand::Null)) => Some(0),
                    _ => None,
                }
            } else {
                match pdg.module.body(loc.func).inst_at(*loc) {
                    Some(Inst::Assign {
                        rv: Rvalue::Use(Operand::Const(c)),
                        ..
                    }) => Some(*c),
                    Some(Inst::Assign {
                        rv: Rvalue::Use(Operand::Null),
                        ..
                    }) => Some(0),
                    Some(Inst::Store {
                        value: Operand::Const(c),
                        ..
                    }) => Some(*c),
                    Some(Inst::Store {
                        value: Operand::Null,
                        ..
                    }) => Some(0),
                    _ => None,
                }
            }
        }
        _ => None,
    }
}

/// Enumerates forward value-flow paths from `start` to sinks.
pub fn forward_paths(
    pdg: &Pdg<'_>,
    cctx: &mut CondCtx<'_, '_>,
    start: NodeId,
    cfg: SliceConfig,
) -> Vec<ValueFlowPath> {
    let mut out = Vec::new();
    let mut stack = vec![start];
    dfs_forward(pdg, cctx, &mut stack, &mut out, cfg);
    seal_obs::metrics::counter_add("slice.paths", out.len() as u64);
    out
}

fn dfs_forward(
    pdg: &Pdg<'_>,
    cctx: &mut CondCtx<'_, '_>,
    stack: &mut Vec<NodeId>,
    out: &mut Vec<ValueFlowPath>,
    cfg: SliceConfig,
) {
    if out.len() >= cfg.max_paths {
        return;
    }
    let cur = *stack.last().expect("stack never empty");
    if stack.len() >= cfg.max_depth {
        out.push(finish_path(pdg, cctx, stack, None));
        return;
    }
    let succs: Vec<NodeId> = pdg.data_succs(cur).to_vec();
    let mut extended = false;
    for next in succs {
        if stack.contains(&next) {
            continue; // cycle
        }
        let kind = pdg.use_kind(cur, next);
        if kind.is_sink() {
            let mut nodes = stack.clone();
            nodes.push(next);
            out.push(finish_path_nodes(pdg, cctx, nodes, Some(kind)));
            if out.len() >= cfg.max_paths {
                return;
            }
            // A use is not the end of the value: a dereference loads a new
            // value that keeps flowing (Fig. 6(a) passes through loads of
            // `risc->cpu`), so traversal continues past the sink.
        }
        stack.push(next);
        dfs_forward(pdg, cctx, stack, out, cfg);
        stack.pop();
        extended = true;
    }
    if !extended {
        // Dead end: record the path so the differ can observe removals of
        // flows that previously reached further (paths ending at
        // irrelevant locals are filtered by the caller).
        out.push(finish_path(pdg, cctx, stack, None));
    }
}

/// Enumerates backward value-flow paths from `end` to sources. Returned
/// paths are oriented source → end.
pub fn backward_paths(
    pdg: &Pdg<'_>,
    cctx: &mut CondCtx<'_, '_>,
    end: NodeId,
    cfg: SliceConfig,
) -> Vec<ValueFlowPath> {
    let mut out = Vec::new();
    let mut stack = vec![end];
    dfs_backward(pdg, cctx, &mut stack, &mut out, cfg);
    out
}

fn dfs_backward(
    pdg: &Pdg<'_>,
    cctx: &mut CondCtx<'_, '_>,
    stack: &mut Vec<NodeId>,
    out: &mut Vec<ValueFlowPath>,
    cfg: SliceConfig,
) {
    if out.len() >= cfg.max_paths {
        return;
    }
    let cur = *stack.last().expect("stack never empty");
    if is_source(pdg, cur) || stack.len() >= cfg.max_depth {
        let nodes: Vec<NodeId> = stack.iter().rev().copied().collect();
        out.push(finish_path_nodes(pdg, cctx, nodes, None));
        return;
    }
    let preds: Vec<NodeId> = pdg.data_preds(cur).to_vec();
    if preds.is_empty() {
        let nodes: Vec<NodeId> = stack.iter().rev().copied().collect();
        out.push(finish_path_nodes(pdg, cctx, nodes, None));
        return;
    }
    for prev in preds {
        if stack.contains(&prev) {
            continue;
        }
        stack.push(prev);
        dfs_backward(pdg, cctx, stack, out, cfg);
        stack.pop();
        if out.len() >= cfg.max_paths {
            return;
        }
    }
}

/// Full source→sink paths passing through a criterion node (§6.2.1).
pub fn paths_through(
    pdg: &Pdg<'_>,
    cctx: &mut CondCtx<'_, '_>,
    criterion: NodeId,
    cfg: SliceConfig,
) -> Vec<ValueFlowPath> {
    let back = backward_paths(pdg, cctx, criterion, cfg);
    let fwd = forward_paths(pdg, cctx, criterion, cfg);
    let mut out = Vec::new();
    for b in &back {
        for f in &fwd {
            if out.len() >= cfg.max_paths {
                return out;
            }
            // Join at the criterion (drop the duplicated node).
            let mut nodes = b.nodes.clone();
            nodes.extend(f.nodes.iter().skip(1).copied());
            // Reject joins that revisit nodes (spurious cycles).
            let set: BTreeSet<NodeId> = nodes.iter().copied().collect();
            if set.len() != nodes.len() {
                continue;
            }
            out.push(finish_path_nodes(pdg, cctx, nodes, f.sink_kind.clone()));
        }
    }
    out
}

fn finish_path(
    pdg: &Pdg<'_>,
    cctx: &mut CondCtx<'_, '_>,
    stack: &[NodeId],
    sink_kind: Option<UseKind>,
) -> ValueFlowPath {
    finish_path_nodes(pdg, cctx, stack.to_vec(), sink_kind)
}

fn finish_path_nodes(
    _pdg: &Pdg<'_>,
    cctx: &mut CondCtx<'_, '_>,
    nodes: Vec<NodeId>,
    sink_kind: Option<UseKind>,
) -> ValueFlowPath {
    // Ψ(p): conjunction of per-node execution conditions, deduplicated.
    let mut conjuncts: BTreeSet<Formula<CondVar>> = BTreeSet::new();
    for &n in &nodes {
        let c = cctx.node_cond(n);
        collect_conjuncts(c, &mut conjuncts);
    }
    let cond = conjuncts.into_iter().fold(Formula::True, Formula::and);
    ValueFlowPath {
        nodes,
        cond,
        sink_kind,
    }
}

fn collect_conjuncts(f: Formula<CondVar>, out: &mut BTreeSet<Formula<CondVar>>) {
    match f {
        Formula::True => {}
        Formula::And(xs) => {
            for x in xs {
                collect_conjuncts(x, out);
            }
        }
        other => {
            out.insert(other);
        }
    }
}

/// A stable, line-number-free signature for a node, used to match paths
/// across pre-/post-patch PDGs. Named locals print by name, temporaries as
/// `_`, so renumbering between versions does not break matching.
pub fn node_signature(pdg: &Pdg<'_>, n: NodeId) -> String {
    let render_op = |func: seal_ir::ids::FuncId, op: &Operand| -> String {
        match op {
            Operand::Local(l) => {
                let decl = &pdg.module.body(func).locals[l.index()];
                if decl.is_temp {
                    "_".to_string()
                } else {
                    decl.name.clone()
                }
            }
            other => other.to_string(),
        }
    };
    match pdg.kind(n) {
        NodeKind::Param { func, index } => {
            format!("{}#param{}", pdg.module.body(*func).name, index)
        }
        NodeKind::Ret { func } => format!("{}#ret", pdg.module.body(*func).name),
        NodeKind::GlobalDef { name } => format!("@{name}"),
        NodeKind::ConstArg { value, index, .. } => format!("const{value}#arg{index}"),
        NodeKind::Inst(loc) => {
            let body = pdg.module.body(loc.func);
            let fname = &body.name;
            if loc.is_terminator() {
                let t = &body.block(loc.block).terminator;
                return match t {
                    Terminator::Return(Some(op)) => {
                        format!("{fname}#ret({})", render_op(loc.func, op))
                    }
                    Terminator::Return(None) => format!("{fname}#ret()"),
                    Terminator::Branch { cond, .. } => {
                        format!("{fname}#br({})", render_op(loc.func, cond))
                    }
                    Terminator::Switch { disc, .. } => {
                        format!("{fname}#switch({})", render_op(loc.func, disc))
                    }
                    _ => format!("{fname}#goto"),
                };
            }
            // A node whose location no longer resolves (possible only for
            // graphs built over foreign inputs) degrades to an opaque
            // signature instead of panicking mid-render.
            let Some(inst) = body.inst_at(*loc) else {
                return format!("{fname}#invalid-loc");
            };
            let sig = match inst {
                Inst::Assign { rv, .. } => match rv {
                    Rvalue::Use(a) => format!("use({})", render_op(loc.func, a)),
                    Rvalue::Unary(op, a) => {
                        format!("un({op:?},{})", render_op(loc.func, a))
                    }
                    Rvalue::Binary(op, a, b) => format!(
                        "bin({},{},{})",
                        op.as_str(),
                        render_op(loc.func, a),
                        render_op(loc.func, b)
                    ),
                },
                Inst::Load { place, .. } => format!("load({})", place_sig(pdg, loc.func, place)),
                Inst::Store { place, value } => format!(
                    "store({},{})",
                    place_sig(pdg, loc.func, place),
                    render_op(loc.func, value)
                ),
                Inst::AddrOf { place, .. } => {
                    format!("addr({})", place_sig(pdg, loc.func, place))
                }
                Inst::Call { callee, args, .. } => {
                    let target = match callee {
                        seal_ir::tac::Callee::Direct(name) => name.clone(),
                        seal_ir::tac::Callee::Indirect { via_field, .. } => via_field
                            .as_ref()
                            .map(|(s, f)| format!("{s}::{f}"))
                            .unwrap_or_else(|| "*".to_string()),
                    };
                    let rendered: Vec<String> =
                        args.iter().map(|a| render_op(loc.func, a)).collect();
                    format!("call {target}({})", rendered.join(","))
                }
            };
            format!("{fname}#{sig}")
        }
    }
}

// --------------------------------------------------------------------------
// Search-phase optimizations: reverse sink-reachability, incremental
// UNSAT-prefix pruning, and interned signatures. The naive entry points
// above stay untouched as the reference semantics the oracle tests compare
// against.

/// Counters for one pruned enumeration (summed into `DetectStats`).
#[derive(Debug, Default, Clone, Copy)]
pub struct SliceStats {
    /// DFS subtrees abandoned because the prefix condition went UNSAT.
    pub subtrees_pruned: u64,
}

/// Reverse-reachability pre-pass: a bitset over [`NodeId`] of nodes that
/// can still take part in a *match-capable* path.
///
/// The seed set is every node that can end such a path: origins of sink
/// edges ([`Pdg::is_sink_edge`]), `Ret` aggregation nodes, and
/// `return <value>` terminators — the last two because a path that *stops*
/// there classifies as an interface return (`RetI`) even though its final
/// hop is not a sink edge. `reaches_sink` is the backward closure of the
/// seeds over data edges: outside it, a DFS can only record dead-end paths
/// that no specification use can ever match.
#[derive(Debug)]
pub struct SinkReach {
    can_sink: Vec<u64>,
    reach: Vec<u64>,
}

fn bit_get(bits: &[u64], i: usize) -> bool {
    bits[i >> 6] & (1u64 << (i & 63)) != 0
}

fn bit_set(bits: &mut [u64], i: usize) -> bool {
    let word = &mut bits[i >> 6];
    let mask = 1u64 << (i & 63);
    let fresh = *word & mask == 0;
    *word |= mask;
    fresh
}

impl SinkReach {
    /// Computes the pre-pass for one PDG: `O(V + E)` with one cheap edge
    /// classification per data edge.
    pub fn build(pdg: &Pdg<'_>) -> SinkReach {
        let n = pdg.len();
        let words = n.div_ceil(64).max(1);
        let mut can_sink = vec![0u64; words];
        let mut reach = vec![0u64; words];
        let mut worklist: Vec<NodeId> = Vec::new();
        let seed = |reach: &mut Vec<u64>, worklist: &mut Vec<NodeId>, u: NodeId| {
            if bit_set(reach, u as usize) {
                worklist.push(u);
            }
        };
        for u in 0..n as NodeId {
            if pdg.data_succs(u).iter().any(|&v| pdg.is_sink_edge(u, v)) {
                bit_set(&mut can_sink, u as usize);
                seed(&mut reach, &mut worklist, u);
            }
            // Path-end classification (`roles::sink_use`'s fallback): a
            // path stopping at a `Ret` node or a value-returning terminator
            // is an interface-return use.
            let path_end = match pdg.kind(u) {
                NodeKind::Ret { .. } => true,
                NodeKind::Inst(loc) if loc.is_terminator() => matches!(
                    pdg.module.body(loc.func).block(loc.block).terminator,
                    Terminator::Return(Some(_))
                ),
                _ => false,
            };
            if path_end {
                seed(&mut reach, &mut worklist, u);
            }
        }
        while let Some(u) = worklist.pop() {
            for &p in pdg.data_preds(u) {
                if bit_set(&mut reach, p as usize) {
                    worklist.push(p);
                }
            }
        }
        SinkReach { can_sink, reach }
    }

    /// Whether some match-capable path end is reachable from `n`.
    pub fn reaches_sink(&self, n: NodeId) -> bool {
        bit_get(&self.reach, n as usize)
    }

    /// Whether `n` originates at least one sink edge (gates per-edge
    /// classification in the DFS hot loop).
    pub fn has_sink_succ(&self, n: NodeId) -> bool {
        bit_get(&self.can_sink, n as usize)
    }
}

/// Asserts the not-yet-seen conjuncts of `n`'s execution condition into
/// the theory, recording them in `seen`. Returns the conjuncts added here
/// (for undo) and whether the state is still consistent.
fn assert_node_conjuncts(
    cctx: &mut CondCtx<'_, '_>,
    theory: &mut IncrementalTheory<CondVar>,
    seen: &mut BTreeSet<Formula<CondVar>>,
    n: NodeId,
) -> (Vec<Formula<CondVar>>, bool) {
    let mut fresh = BTreeSet::new();
    collect_conjuncts(cctx.node_cond(n), &mut fresh);
    let mut added = Vec::new();
    let mut ok = true;
    for c in fresh {
        if seen.contains(&c) {
            continue;
        }
        ok = theory.assert_formula(&c);
        seen.insert(c.clone());
        added.push(c);
        if !ok {
            break;
        }
    }
    (added, ok)
}

struct PruneCtx<'a> {
    reach: Option<&'a SinkReach>,
    /// Restrict descent to the sink cone (only with `reach`): correct when
    /// the caller consumes match-capable paths only, because out-of-cone
    /// subtrees produce nothing but unclassifiable dead ends.
    cone: bool,
    theory: Option<&'a mut IncrementalTheory<CondVar>>,
    seen: BTreeSet<Formula<CondVar>>,
    stats: &'a mut SliceStats,
}

impl PruneCtx<'_> {
    fn undo(&mut self, mark: Option<seal_solver::Mark>, added: Vec<Formula<CondVar>>) {
        if let (Some(t), Some(m)) = (self.theory.as_deref_mut(), mark) {
            t.undo_to(m);
        }
        for c in added {
            self.seen.remove(&c);
        }
    }
}

/// [`forward_paths`] with the search-phase prunings applied; with
/// `reach = None`, `cone = false`, and `theory = None` it enumerates
/// exactly like the naive DFS.
///
/// Identity contract (relied on by detection and asserted against the
/// naive enumeration by the oracle tests): after the caller's `is_sat`
/// feasibility filter, the result equals the naive filtered enumeration —
/// exactly with `cone = false`, and restricted to match-capable paths
/// (classified sinks and `Ret`/`return`-terminated path ends, which is all
/// path matching ever consumes) with `cone = true` — whenever `max_paths`
/// does not truncate the enumeration.
#[allow(clippy::too_many_arguments)]
pub fn forward_paths_pruned(
    pdg: &Pdg<'_>,
    cctx: &mut CondCtx<'_, '_>,
    start: NodeId,
    cfg: SliceConfig,
    reach: Option<&SinkReach>,
    cone: bool,
    mut theory: Option<&mut IncrementalTheory<CondVar>>,
    stats: &mut SliceStats,
) -> Vec<ValueFlowPath> {
    let mut out = Vec::new();
    let outer_mark = theory.as_ref().map(|t| t.mark());
    let mut seen = BTreeSet::new();
    let mut ok = true;
    if let Some(t) = theory.as_deref_mut() {
        let (_, o) = assert_node_conjuncts(cctx, t, &mut seen, start);
        ok = o;
    }
    if ok {
        let mut stack = vec![start];
        let mut ctx = PruneCtx {
            reach,
            cone: cone && reach.is_some(),
            theory: theory.as_deref_mut(),
            seen,
            stats,
        };
        dfs_forward_pruned(pdg, cctx, &mut stack, &mut out, cfg, &mut ctx);
    } else {
        // The source's own execution condition is UNSAT: every enumerated
        // path would fail the caller's feasibility filter.
        stats.subtrees_pruned += 1;
    }
    if let (Some(t), Some(m)) = (theory, outer_mark) {
        t.undo_to(m);
    }
    seal_obs::metrics::counter_add("slice.paths", out.len() as u64);
    out
}

fn dfs_forward_pruned(
    pdg: &Pdg<'_>,
    cctx: &mut CondCtx<'_, '_>,
    stack: &mut Vec<NodeId>,
    out: &mut Vec<ValueFlowPath>,
    cfg: SliceConfig,
    ctx: &mut PruneCtx<'_>,
) {
    if out.len() >= cfg.max_paths {
        return;
    }
    let cur = *stack.last().expect("stack never empty");
    if stack.len() >= cfg.max_depth {
        out.push(finish_path(pdg, cctx, stack, None));
        return;
    }
    let succs: Vec<NodeId> = pdg.data_succs(cur).to_vec();
    let mut extended = false;
    let cur_can_sink = ctx.reach.is_none_or(|r| r.has_sink_succ(cur));
    for next in succs {
        if stack.contains(&next) {
            continue; // cycle
        }
        // Conjoin `next`'s execution condition incrementally; an UNSAT
        // prefix dooms the sink path through `next` and every extension —
        // all of which the final feasibility filter would drop.
        let mut mark = None;
        let mut added = Vec::new();
        if let Some(theory) = ctx.theory.as_deref_mut() {
            let m = theory.mark();
            mark = Some(m);
            let (a, consistent) = assert_node_conjuncts(cctx, theory, &mut ctx.seen, next);
            added = a;
            if !consistent {
                ctx.stats.subtrees_pruned += 1;
                ctx.undo(mark, added);
                extended = true;
                continue;
            }
        }
        if cur_can_sink && pdg.is_sink_edge(cur, next) {
            let kind = pdg.use_kind(cur, next);
            let mut nodes = stack.clone();
            nodes.push(next);
            out.push(finish_path_nodes(pdg, cctx, nodes, Some(kind)));
            if out.len() >= cfg.max_paths {
                // Abort the whole enumeration; `forward_paths_pruned`
                // rewinds the theory to the entry mark.
                return;
            }
        }
        if ctx.cone && !ctx.reach.expect("cone implies reach").reaches_sink(next) {
            // Out of the sink cone: the subtree can only record dead ends
            // no specification use matches. (Sink edges into `next` were
            // recorded above, exactly as the naive DFS does.)
            ctx.undo(mark, added);
            extended = true;
            continue;
        }
        stack.push(next);
        dfs_forward_pruned(pdg, cctx, stack, out, cfg, ctx);
        stack.pop();
        extended = true;
        ctx.undo(mark, added);
    }
    if !extended {
        out.push(finish_path(pdg, cctx, stack, None));
    }
}

/// Per-PDG memo of interned node/path signatures.
///
/// The naive [`ValueFlowPath::signature`] re-renders every node's string
/// for every path; paths from one source share most nodes, so the memo
/// renders each node once and joins cached `&'static str`s. The resulting
/// [`Symbol`] is the interned form of exactly the naive string, so symbol
/// order (content order, see `seal-runtime`) reproduces string order and
/// downstream grouping is byte-identical.
#[derive(Debug, Default)]
pub struct SigInterner {
    memo: Vec<Option<Symbol>>,
}

impl SigInterner {
    /// A fresh, empty memo (node ids index into it lazily).
    pub fn new() -> Self {
        SigInterner::default()
    }

    /// Interned [`node_signature`], rendered at most once per node.
    pub fn node_symbol(&mut self, pdg: &Pdg<'_>, n: NodeId) -> Symbol {
        let i = n as usize;
        if i >= self.memo.len() {
            self.memo.resize(i + 1, None);
        }
        if let Some(s) = self.memo[i] {
            return s;
        }
        let s = Symbol::intern(&node_signature(pdg, n));
        self.memo[i] = Some(s);
        s
    }

    /// Interned [`ValueFlowPath::signature`] built from memoized node
    /// symbols.
    pub fn path_symbol(&mut self, pdg: &Pdg<'_>, path: &ValueFlowPath) -> Symbol {
        let mut joined = String::new();
        for (i, &n) in path.nodes.iter().enumerate() {
            if i > 0 {
                joined.push_str(" -> ");
            }
            joined.push_str(self.node_symbol(pdg, n).as_str());
        }
        Symbol::intern(&joined)
    }
}

fn place_sig(pdg: &Pdg<'_>, func: seal_ir::ids::FuncId, place: &seal_ir::tac::Place) -> String {
    use seal_ir::tac::{PlaceBase, Projection};
    let mut s = match &place.base {
        PlaceBase::Local(l) => {
            let decl = &pdg.module.body(func).locals[l.index()];
            if decl.is_temp {
                "_".to_string()
            } else {
                decl.name.clone()
            }
        }
        PlaceBase::Global(g) => format!("@{g}"),
    };
    for p in &place.projections {
        match p {
            Projection::Deref => s.push('*'),
            Projection::Field { field, .. } => {
                s.push('.');
                s.push_str(field);
            }
            Projection::Index { .. } => s.push_str("[]"),
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_ir::callgraph::CallGraph;
    use seal_ir::ids::FuncId;
    use seal_ir::lower;
    use seal_kir::compile;
    use std::collections::BTreeSet;

    fn setup(src: &str) -> (seal_ir::Module, CallGraph) {
        let m = lower(&compile(src, "t.c").unwrap());
        let cg = CallGraph::build(&m);
        (m, cg)
    }

    fn full(m: &seal_ir::Module) -> BTreeSet<FuncId> {
        (0..m.functions.len() as u32).map(FuncId).collect()
    }

    const FIG3_POST: &str = "\
struct riscmem { int *cpu; };
void *dma_alloc_coherent(unsigned long size);
struct vb2_ops { int (*buf_prepare)(struct riscmem *risc); };
int vbibuffer(struct riscmem *risc) {
    risc->cpu = (int *)dma_alloc_coherent(64);
    if (risc->cpu == NULL) return -12;
    return 0;
}
int buffer_prepare(struct riscmem *risc) {
    return vbibuffer(risc);
}
struct vb2_ops qops = { .buf_prepare = buffer_prepare, };
";

    #[test]
    fn error_code_path_reaches_interface_return() {
        let (m, cg) = setup(FIG3_POST);
        let pdg = Pdg::build(&m, &cg, &full(&m));
        let mut cctx = CondCtx::new(&pdg);
        // Source: the `return -12` terminator in vbibuffer.
        let f = m.function("vbibuffer").unwrap();
        let src = f
            .all_locs()
            .find(|&loc| {
                loc.is_terminator()
                    && matches!(
                        f.block(loc.block).terminator,
                        Terminator::Return(Some(Operand::Const(-12)))
                    )
            })
            .unwrap();
        let n = pdg.node(&NodeKind::Inst(src)).unwrap();
        assert!(is_source(&pdg, n), "literal return is a source");
        assert_eq!(literal_of(&pdg, n), Some(-12));
        let paths = forward_paths(&pdg, &mut cctx, n, SliceConfig::default());
        // One of the paths must end at buffer_prepare's return.
        let hit = paths.iter().find(|p| {
            matches!(
                &p.sink_kind,
                Some(UseKind::FuncRet { func }) if func == "buffer_prepare"
            )
        });
        assert!(hit.is_some(), "paths: {:#?}", paths.len());
        // Its condition mentions the dma_alloc_coherent return == NULL.
        let p = hit.unwrap();
        assert!(p.cond.atom_count() >= 1);
    }

    #[test]
    fn api_return_is_source() {
        let (m, cg) = setup(FIG3_POST);
        let pdg = Pdg::build(&m, &cg, &full(&m));
        let f = m.function("vbibuffer").unwrap();
        let call_loc = f
            .inst_locs()
            .find(|&loc| matches!(f.inst_at(loc), Some(Inst::Call { .. })))
            .unwrap();
        let n = pdg.node(&NodeKind::Inst(call_loc)).unwrap();
        assert!(is_source(&pdg, n));
    }

    #[test]
    fn backward_paths_reach_api_source() {
        let (m, cg) = setup(
            "void *dma_alloc_coherent(unsigned long size);\n\
             void writeb(int v, int *addr);\n\
             void f(void) {\n\
               int *p = (int *)dma_alloc_coherent(8);\n\
               writeb(1, p);\n\
             }",
        );
        let pdg = Pdg::build(&m, &cg, &full(&m));
        let mut cctx = CondCtx::new(&pdg);
        let f = m.function("f").unwrap();
        // The writeb call node.
        let call_loc = f
            .inst_locs()
            .filter(|&loc| matches!(f.inst_at(loc), Some(Inst::Call { .. })))
            .nth(1)
            .unwrap();
        let n = pdg.node(&NodeKind::Inst(call_loc)).unwrap();
        let paths = backward_paths(&pdg, &mut cctx, n, SliceConfig::default());
        assert!(paths.iter().any(|p| is_source(&pdg, p.source())));
    }

    #[test]
    fn paths_through_criterion_join() {
        let (m, cg) = setup(
            "int sanitize(int v) { return v; }\n\
             int f(int x) { int y = sanitize(x); return y; }",
        );
        let pdg = Pdg::build(&m, &cg, &full(&m));
        let mut cctx = CondCtx::new(&pdg);
        // Criterion: the call instruction in f.
        let f = m.function("f").unwrap();
        let call_loc = f
            .inst_locs()
            .find(|&loc| matches!(f.inst_at(loc), Some(Inst::Call { .. })))
            .unwrap();
        let n = pdg.node(&NodeKind::Inst(call_loc)).unwrap();
        let paths = paths_through(&pdg, &mut cctx, n, SliceConfig::default());
        assert!(!paths.is_empty());
        // Some path starts at f's x param and ends at f's return.
        let fx = pdg
            .node(&NodeKind::Param {
                func: m.func_id("f").unwrap(),
                index: 0,
            })
            .unwrap();
        assert!(paths.iter().any(|p| p.source() == fx
            && matches!(&p.sink_kind, Some(UseKind::FuncRet { func }) if func == "f")));
    }

    #[test]
    fn signatures_ignore_line_numbers() {
        let (m1, cg1) = setup("int f(int x) { int y = x + 1; return y; }");
        let (m2, cg2) = setup("\n\n\nint f(int x) { int y = x + 1;\n\n return y; }");
        let p1 = Pdg::build(&m1, &cg1, &full(&m1));
        let p2 = Pdg::build(&m2, &cg2, &full(&m2));
        let sigs1: BTreeSet<String> = (0..p1.len() as NodeId)
            .map(|n| node_signature(&p1, n))
            .collect();
        let sigs2: BTreeSet<String> = (0..p2.len() as NodeId)
            .map(|n| node_signature(&p2, n))
            .collect();
        assert_eq!(sigs1, sigs2);
    }

    #[test]
    fn budget_limits_path_count() {
        // A diamond chain produces exponentially many paths; the budget
        // keeps enumeration bounded.
        let mut src = String::from("int g(int v);\nint f(int x) { int a = x;\n");
        for i in 0..10 {
            src.push_str(&format!(
                "if (x > {i}) {{ a = a + 1; }} else {{ a = a + 2; }}\n"
            ));
        }
        src.push_str("return a; }\n");
        let (m, cg) = setup(&src);
        let pdg = Pdg::build(&m, &cg, &full(&m));
        let mut cctx = CondCtx::new(&pdg);
        let fx = pdg
            .node(&NodeKind::Param {
                func: m.func_id("f").unwrap(),
                index: 0,
            })
            .unwrap();
        let cfg = SliceConfig {
            max_depth: 48,
            max_paths: 64,
        };
        let paths = forward_paths(&pdg, &mut cctx, fx, cfg);
        assert!(paths.len() <= 64);
        assert!(!paths.is_empty());
    }

    #[test]
    fn deref_sink_classified() {
        let (m, cg) = setup("int f(int *p) { return *p; }");
        let pdg = Pdg::build(&m, &cg, &full(&m));
        let mut cctx = CondCtx::new(&pdg);
        let px = pdg
            .node(&NodeKind::Param {
                func: m.func_id("f").unwrap(),
                index: 0,
            })
            .unwrap();
        let paths = forward_paths(&pdg, &mut cctx, px, SliceConfig::default());
        assert!(paths.iter().any(|p| p.sink_kind == Some(UseKind::Deref)));
    }

    #[test]
    fn global_store_sink_classified() {
        let (m, cg) = setup("int shared;\nvoid f(int x) { shared = x; }");
        let pdg = Pdg::build(&m, &cg, &full(&m));
        let mut cctx = CondCtx::new(&pdg);
        let px = pdg
            .node(&NodeKind::Param {
                func: m.func_id("f").unwrap(),
                index: 0,
            })
            .unwrap();
        let paths = forward_paths(&pdg, &mut cctx, px, SliceConfig::default());
        assert!(paths.iter().any(
            |p| matches!(&p.sink_kind, Some(UseKind::GlobalStore { name }) if name == "shared")
        ));
    }

    /// A program whose nested branch condition contradicts the outer one,
    /// so the theory prunes at least one subtree.
    const CONTRA_SRC: &str = "\
int shared;
int g(int v);
int f(int x) {
    int a = x;
    if (x > 10) {
        if (x < 5) { a = a + 1; }
        a = a + 2;
    } else {
        shared = a;
    }
    return a;
}
";

    fn feasible(pdg: &Pdg<'_>, mut paths: Vec<ValueFlowPath>) -> Vec<ValueFlowPath> {
        let _ = pdg;
        paths.retain(|p| seal_solver::is_sat(&p.cond).possibly_sat());
        paths
    }

    fn source_nodes(pdg: &Pdg<'_>) -> Vec<NodeId> {
        (0..pdg.len() as NodeId)
            .filter(|&n| is_source(pdg, n))
            .collect()
    }

    #[test]
    fn sink_edge_mirrors_use_kind() {
        for src in [FIG3_POST, CONTRA_SRC] {
            let (m, cg) = setup(src);
            let pdg = Pdg::build(&m, &cg, &full(&m));
            for u in 0..pdg.len() as NodeId {
                for &v in pdg.data_succs(u) {
                    assert_eq!(
                        pdg.is_sink_edge(u, v),
                        pdg.use_kind(u, v).is_sink(),
                        "edge {u} -> {v} in {src:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn pruned_full_mode_matches_naive_filtered() {
        for src in [FIG3_POST, CONTRA_SRC] {
            let (m, cg) = setup(src);
            let pdg = Pdg::build(&m, &cg, &full(&m));
            let reach = SinkReach::build(&pdg);
            let cfg = SliceConfig::default();
            let mut theory = IncrementalTheory::new();
            let mut stats = SliceStats::default();
            for n in source_nodes(&pdg) {
                let mut cctx = CondCtx::new(&pdg);
                let naive = feasible(&pdg, forward_paths(&pdg, &mut cctx, n, cfg));
                let mut cctx = CondCtx::new(&pdg);
                let pruned = feasible(
                    &pdg,
                    forward_paths_pruned(
                        &pdg,
                        &mut cctx,
                        n,
                        cfg,
                        Some(&reach),
                        false,
                        Some(&mut theory),
                        &mut stats,
                    ),
                );
                assert_eq!(naive, pruned, "source {n} in {src:?}");
            }
        }
    }

    #[test]
    fn theory_actually_prunes_contradictory_subtrees() {
        let (m, cg) = setup(CONTRA_SRC);
        let pdg = Pdg::build(&m, &cg, &full(&m));
        let mut stats = SliceStats::default();
        let mut theory = IncrementalTheory::new();
        for n in source_nodes(&pdg) {
            let mut cctx = CondCtx::new(&pdg);
            forward_paths_pruned(
                &pdg,
                &mut cctx,
                n,
                SliceConfig::default(),
                None,
                false,
                Some(&mut theory),
                &mut stats,
            );
        }
        assert!(stats.subtrees_pruned > 0, "stats: {stats:?}");
        assert!(theory.is_consistent(), "theory fully rewound between calls");
    }

    #[test]
    fn cone_mode_keeps_all_match_capable_paths() {
        for src in [FIG3_POST, CONTRA_SRC] {
            let (m, cg) = setup(src);
            let pdg = Pdg::build(&m, &cg, &full(&m));
            let reach = SinkReach::build(&pdg);
            let cfg = SliceConfig::default();
            for n in source_nodes(&pdg) {
                let mut cctx = CondCtx::new(&pdg);
                let naive = feasible(&pdg, forward_paths(&pdg, &mut cctx, n, cfg));
                let mut cctx = CondCtx::new(&pdg);
                let mut stats = SliceStats::default();
                let mut theory = IncrementalTheory::new();
                let cone = feasible(
                    &pdg,
                    forward_paths_pruned(
                        &pdg,
                        &mut cctx,
                        n,
                        cfg,
                        Some(&reach),
                        true,
                        Some(&mut theory),
                        &mut stats,
                    ),
                );
                // Every cone path is a naive path (in the same order)...
                let mut it = naive.iter();
                for p in &cone {
                    assert!(
                        it.any(|q| q == p),
                        "cone path not a naive path (or out of order) for source {n}"
                    );
                }
                // ...and every classified-sink naive path survives.
                let naive_sinks: Vec<_> = naive.iter().filter(|p| p.sink_kind.is_some()).collect();
                let cone_sinks: Vec<_> = cone.iter().filter(|p| p.sink_kind.is_some()).collect();
                assert_eq!(naive_sinks, cone_sinks, "source {n} in {src:?}");
            }
        }
    }

    #[test]
    fn unreachable_sources_have_empty_sink_cone() {
        // `x` flows only into a local add that goes nowhere matchable in
        // an isolated function with no interface return use... hard to get
        // naturally; instead just check consistency: a source outside the
        // cone yields no classified-sink naive paths.
        for src in [FIG3_POST, CONTRA_SRC] {
            let (m, cg) = setup(src);
            let pdg = Pdg::build(&m, &cg, &full(&m));
            let reach = SinkReach::build(&pdg);
            for n in source_nodes(&pdg) {
                if reach.reaches_sink(n) {
                    continue;
                }
                let mut cctx = CondCtx::new(&pdg);
                let naive = forward_paths(&pdg, &mut cctx, n, SliceConfig::default());
                assert!(
                    naive.iter().all(|p| p.sink_kind.is_none()),
                    "source {n} outside cone but has a classified sink path"
                );
                assert!(
                    !naive.iter().any(|p| {
                        matches!(pdg.kind(p.sink()), NodeKind::Ret { .. })
                            || matches!(
                                pdg.kind(p.sink()),
                                NodeKind::Inst(loc) if loc.is_terminator() && matches!(
                                    pdg.module.body(loc.func).block(loc.block).terminator,
                                    Terminator::Return(Some(_))
                                )
                            )
                    }),
                    "source {n} outside cone but a path ends at a return"
                );
            }
        }
    }

    #[test]
    fn sig_interner_matches_naive_signature() {
        let (m, cg) = setup(FIG3_POST);
        let pdg = Pdg::build(&m, &cg, &full(&m));
        let mut cctx = CondCtx::new(&pdg);
        let mut interner = SigInterner::new();
        for n in source_nodes(&pdg) {
            for p in forward_paths(&pdg, &mut cctx, n, SliceConfig::default()) {
                let sym = interner.path_symbol(&pdg, &p);
                assert_eq!(sym.as_str(), p.signature(&pdg));
                assert_eq!(sym, Symbol::intern(&p.signature(&pdg)));
            }
        }
    }
}
