//! Stage ④ — path-sensitive bug detection (§6.4).
//!
//! For every specification, detection regions are the other
//! implementations of the same function pointer (resolved through the
//! module's interface bindings) or, for interface-free specifications, the
//! other usages of the same APIs. Per region, the spec's values and uses
//! are instantiated (`𝔸⁻¹`); if either set is empty the region is skipped
//! (§6.4.1). Realizable value-flow paths are then searched bottom-up over
//! a demand-built PDG (cached per scope, the summary reuse of §6.2.3) and
//! checked against the spec's condition, order, and quantifier.

use crate::cache::{self, AnalysisCache, ShardPayload};
use crate::error::{DetectError, SealError};
use crate::report::{classify_spec, BugReport};
use crate::roles;
use seal_ir::callgraph::CallGraph;
use seal_ir::ids::FuncId;
use seal_ir::module::{InterfaceId, Module};
use seal_pdg::cond::{CondCtx, CondVar};
use seal_pdg::graph::{NodeId, Pdg};
use seal_pdg::slice::{forward_paths_pruned, SinkReach, SliceConfig, SliceStats, ValueFlowPath};
use seal_solver::{Formula, IncrementalTheory, SolverCache, Verdict};
use seal_spec::{Quantifier, Relation, SpecUse, SpecValue, Specification};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Budgets and the paper's two ablation levers for detection.
#[derive(Debug, Clone, Copy)]
pub struct DetectConfig {
    /// Path-search budgets.
    pub slice: SliceConfig,
    /// Cap on regions examined per specification.
    pub max_regions: usize,
    /// Reuse demand-built PDGs across regions with the same scope (the
    /// summary memoization of §6.2.3). Disable to measure its effect.
    pub reuse_pdg_cache: bool,
    /// Evaluate path feasibility and condition consistency with the solver
    /// (§6.4's path sensitivity). Disable for the ablation baseline.
    pub path_sensitive: bool,
}

impl Default for DetectConfig {
    fn default() -> Self {
        DetectConfig {
            slice: SliceConfig::default(),
            max_regions: 512,
            reuse_pdg_cache: true,
            path_sensitive: true,
        }
    }
}

/// Phase timing and counters for one detection run (§8.4's split between
/// PDG generation and path searching).
#[derive(Debug, Default, Clone, Copy)]
pub struct DetectStats {
    /// Time spent building PDGs.
    pub pdg_time: std::time::Duration,
    /// Time spent searching and examining paths.
    pub search_time: std::time::Duration,
    /// Regions examined.
    pub regions: usize,
    /// Regions skipped by the instantiation check (§6.4.1).
    pub skipped: usize,
    /// Satisfiability queries issued by the search phase (counted whether
    /// or not the memo answers them).
    pub solver_queries: u64,
    /// Queries answered from the interned-formula verdict memo.
    pub solver_cache_hits: u64,
    /// DFS subtrees abandoned on an UNSAT prefix condition.
    pub subtrees_pruned: u64,
    /// Spec sources skipped because their sink cone is empty.
    pub sources_skipped_unreachable: u64,
}

/// One shard's worth of work: every `(spec, region)` pair whose region has
/// the same scope, tagged with `(spec index, region rank)` for the merge.
struct Shard {
    scope: BTreeSet<FuncId>,
    items: Vec<(usize, usize, FuncId)>,
}

/// Checks all specifications against a module on `jobs` workers, backed
/// by an artifact cache, and reports violations with phase statistics.
///
/// Fault-isolated: a shard that fails — invalid PDG scope or a contained
/// panic mid-search — costs only its own `(spec, region)` items and comes
/// back as a [`SealError`] instead of unwinding.
///
/// Reports, their order, and every `DetectStats` counter are independent
/// of `jobs` (phase *durations* are summed across workers and naturally
/// vary). Shards whose key (scope bodies, environment, items, config
/// fingerprint) is in the store replay their recorded reports and
/// counters instead of building a PDG; reports and all counts are
/// byte-identical to an uncached run, only the phase durations shrink.
pub fn detect_bugs_isolated_cached(
    module: &Module,
    specs: &[Specification],
    cfg: &DetectConfig,
    jobs: usize,
    cache: &AnalysisCache,
) -> (Vec<BugReport>, DetectStats, Vec<SealError>) {
    let cg = CallGraph::build(module);

    // Spec-identity memoization: detection sees a spec only through its
    // interface and constraints, so groups that agree on both are checked
    // once, through the group's *earliest* member — exactly the one whose
    // reports would survive `dedup_reports` in a full sequential run.
    // Duplicates mined from different historical patches therefore cannot
    // contribute surviving reports; skipping them changes only the work.
    let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
    let spec_indices: Vec<usize> = (0..specs.len())
        .filter(|&si| {
            let s = &specs[si];
            seen.insert(format!("{:?}|{:?}", s.interface, s.constraints))
        })
        .collect();

    // Group work items by region scope so each shard builds one PDG and
    // keeps the §6.2.3 summary reuse local to a worker. `BTreeMap` keeps
    // the shard order deterministic.
    let mut shards: std::collections::BTreeMap<BTreeSet<FuncId>, Vec<(usize, usize, FuncId)>> =
        std::collections::BTreeMap::new();
    let mut stats = DetectStats::default();
    for &si in &spec_indices {
        let spec = &specs[si];
        for (ri, region) in regions_for_with_cg(module, &cg, spec)
            .into_iter()
            .take(cfg.max_regions)
            .enumerate()
        {
            stats.regions += 1;
            let scope = region_scope(&cg, region);
            shards.entry(scope).or_default().push((si, ri, region));
        }
    }
    let shards: Vec<Shard> = shards
        .into_iter()
        .map(|(scope, items)| Shard { scope, items })
        .collect();

    // Pre-intern every checked spec condition once, in deterministic spec
    // order, into an immutable snapshot each shard's solver cache is
    // seeded from. Shards share nothing mutable: the snapshot is read-only
    // and each worker copies it into its own cache at shard start. With a
    // warm layer attached (`seal serve`), the snapshot is reused across
    // requests keyed on the deduped specs' content — its node table is a
    // pure function of those conditions in that order, so an exact-content
    // re-request skips the rebuild entirely.
    let build_snapshot = || {
        seal_solver::FormulaSnapshot::build(spec_indices.iter().flat_map(|&si| {
            specs[si]
                .constraints
                .iter()
                .filter_map(|c| match &c.relation {
                    Relation::Reach { cond, .. } => Some(cond),
                    Relation::Order { .. } => None,
                })
        }))
    };
    let spec_cond_snapshot = if cache.warm().is_some() {
        let mut h = seal_store::Hasher128::new();
        h.update_str("detect.snapshot.v1");
        h.update_u64(spec_indices.len() as u64);
        for &si in &spec_indices {
            let enc = seal_spec::binary::encode_specs(std::slice::from_ref(&specs[si]));
            h.update(seal_store::ContentHash::of(&enc).as_bytes());
        }
        let key = h.finish();
        match cache.get_snapshot(&key) {
            Some(s) => s,
            None => {
                let s = Arc::new(build_snapshot());
                cache.put_snapshot(key, &s);
                s
            }
        }
    } else {
        Arc::new(build_snapshot())
    };

    // Cache-key ingredients, hashed once and shared read-only across
    // workers. The environment hash plus per-scope body hashes (instead of
    // one whole-module hash) are what keep invalidation proportional to
    // the edit set: a mutated function only moves the keys of shards whose
    // scope contains it.
    let cache_on = cache.is_enabled();
    let detect_fp = cache_on.then(|| cache::detect_fingerprint(cfg));
    let env_hash = cache_on.then(|| seal_ir::codec::env_hash(module));
    let body_hashes: Vec<seal_store::ContentHash> = if cache_on {
        module
            .functions
            .iter()
            .map(seal_ir::codec::body_hash)
            .collect()
    } else {
        Vec::new()
    };
    let spec_hashes: Vec<seal_store::ContentHash> = if cache_on {
        specs
            .iter()
            .map(|s| {
                seal_store::ContentHash::of(&seal_spec::binary::encode_specs(std::slice::from_ref(
                    s,
                )))
            })
            .collect()
    } else {
        Vec::new()
    };

    let run_shard = |shard: &Shard| -> Result<ShardOut, SealError> {
        // A task root: the shard subtree is identical whether it ran inline
        // (jobs = 1) or on a pool worker, keeping the trace jobs-invariant.
        let _span = seal_obs::task_span!(
            "detect.shard",
            scope = scope_names(module, &shard.scope),
            items = shard.items.len(),
        );
        let key = detect_fp.map(|fp| {
            cache::shard_key(
                fp,
                env_hash.as_ref().unwrap(),
                &body_hashes,
                &spec_hashes,
                &shard.scope,
                &shard.items,
            )
        });
        if let Some(key) = &key {
            if let Some(bytes) = cache.get_shard(key) {
                match decode_shard(&bytes[..], &shard.items) {
                    Some(o) => return Ok(o),
                    // Undecodable or mis-shaped payload: degrade to a
                    // recompute, exactly like on-disk corruption.
                    None => cache.note_invalidation(),
                }
            }
        }
        let mut o = ShardOut {
            results: Vec::with_capacity(shard.items.len()),
            pdg_time: std::time::Duration::ZERO,
            search_time: std::time::Duration::ZERO,
            counters: SearchCounters::default(),
        };
        if cfg.reuse_pdg_cache {
            let t0 = std::time::Instant::now();
            let pdg = Pdg::try_build(module, &cg, &shard.scope)?;
            o.pdg_time += t0.elapsed();
            let mut paths = PathCache::new(&pdg, cfg, &spec_cond_snapshot);
            let _search = seal_obs::span!("detect.search", items = shard.items.len());
            for &(si, ri, region) in &shard.items {
                let t1 = std::time::Instant::now();
                let r = check_region(module, &pdg, &mut paths, &specs[si], region, cfg);
                o.search_time += t1.elapsed();
                o.results.push((si, ri, r));
            }
            o.counters.add(paths.counters);
        } else {
            // Ablation: rebuild the PDG (and path cache) per region, the
            // no-summary-reuse baseline of §8.4.
            for &(si, ri, region) in &shard.items {
                let t0 = std::time::Instant::now();
                let pdg = Pdg::try_build(module, &cg, &shard.scope)?;
                o.pdg_time += t0.elapsed();
                let mut paths = PathCache::new(&pdg, cfg, &spec_cond_snapshot);
                let t1 = std::time::Instant::now();
                let r = check_region(module, &pdg, &mut paths, &specs[si], region, cfg);
                o.search_time += t1.elapsed();
                o.results.push((si, ri, r));
                o.counters.add(paths.counters);
            }
        }
        if let Some(key) = key {
            cache.put_shard(key, encode_shard(&o));
        }
        Ok(o)
    };
    // Second fence on top of the typed errors: a panic anywhere in the
    // shard (PDG construction invariants, path search, the solver) is
    // contained and attributed to the shard's scope.
    let shard_outs: Vec<Result<ShardOut, SealError>> =
        seal_runtime::par_map_isolated_jobs(jobs, &shards, run_shard)
            .into_iter()
            .zip(&shards)
            .map(|(slot, shard)| match slot {
                Ok(r) => r,
                Err(p) => Err(DetectError::ShardFailed {
                    scope: scope_names(module, &shard.scope),
                    message: p.message,
                }
                .into()),
            })
            .collect();

    // Deterministic merge: restore the sequential (spec, region) order.
    // Counters sum commutatively over shards whose composition is fixed by
    // the `BTreeMap` grouping above, so every `DetectStats` count (like
    // the reports) is independent of `jobs`. A failed shard contributes its
    // error and nothing else — its items are simply absent.
    let mut tagged: Vec<(usize, usize, Option<BugReport>)> = Vec::with_capacity(stats.regions);
    let mut errors: Vec<SealError> = Vec::new();
    for so in shard_outs {
        match so {
            Ok(so) => {
                stats.pdg_time += so.pdg_time;
                stats.search_time += so.search_time;
                stats.solver_queries += so.counters.solver_queries;
                stats.solver_cache_hits += so.counters.solver_cache_hits;
                stats.subtrees_pruned += so.counters.subtrees_pruned;
                stats.sources_skipped_unreachable += so.counters.sources_skipped_unreachable;
                tagged.extend(so.results);
            }
            Err(e) => errors.push(e),
        }
    }
    tagged.sort_by_key(|&(si, ri, _)| (si, ri));
    let mut out = Vec::new();
    for (_, _, report) in tagged {
        match report {
            Some(report) => out.push(report),
            None => stats.skipped += 1,
        }
    }
    dedup_reports(&mut out);
    // Flush the deterministic aggregates into the metrics registry at the
    // merge point: every count below is jobs-invariant by the same argument
    // as `DetectStats` (commutative sums over a fixed shard composition).
    seal_obs::metrics::counter_add("detect.shards", shards.len() as u64);
    seal_obs::metrics::counter_add("detect.regions", stats.regions as u64);
    seal_obs::metrics::counter_add("detect.skipped", stats.skipped as u64);
    seal_obs::metrics::counter_add("detect.reports", out.len() as u64);
    seal_obs::metrics::counter_add("detect.errors", errors.len() as u64);
    seal_obs::metrics::counter_add("detect.solver_queries", stats.solver_queries);
    seal_obs::metrics::counter_add("detect.solver_cache_hits", stats.solver_cache_hits);
    seal_obs::metrics::counter_add("detect.subtrees_pruned", stats.subtrees_pruned);
    seal_obs::metrics::counter_add(
        "detect.sources_skipped_unreachable",
        stats.sources_skipped_unreachable,
    );
    (out, stats, errors)
}

/// [`detect_bugs_isolated_cached`] for callers whose module and specs are
/// trusted: a failed shard is a caller bug, not data, so the first error
/// panics instead of coming back.
pub fn detect_bugs_with_stats_jobs_cached(
    module: &Module,
    specs: &[Specification],
    cfg: &DetectConfig,
    jobs: usize,
    cache: &AnalysisCache,
) -> (Vec<BugReport>, DetectStats) {
    let (reports, stats, errors) = detect_bugs_isolated_cached(module, specs, cfg, jobs, cache);
    if let Some(e) = errors.into_iter().next() {
        panic!("{e}");
    }
    (reports, stats)
}

/// One shard's results plus its phase timings and counters.
struct ShardOut {
    results: Vec<(usize, usize, Option<BugReport>)>,
    pdg_time: std::time::Duration,
    search_time: std::time::Duration,
    counters: SearchCounters,
}

/// Serializes a computed shard for the artifact cache. Report slots are
/// stored in item order; the `(si, ri)` tags are re-derived from the
/// shard's items on replay (the key already pins their identity), so a
/// renumbered-but-identical spec list replays cleanly.
fn encode_shard(o: &ShardOut) -> Vec<u8> {
    cache::encode_shard_payload(&ShardPayload {
        reports: o.results.iter().map(|(_, _, r)| r.clone()).collect(),
        counters: [
            o.counters.solver_queries,
            o.counters.solver_cache_hits,
            o.counters.subtrees_pruned,
            o.counters.sources_skipped_unreachable,
        ],
    })
}

/// Replays a cached shard against the current item list. `None` on any
/// decode failure or item-count mismatch — the caller recomputes. Phase
/// durations stay zero: a replayed shard truthfully spent no time building
/// PDGs or searching paths.
fn decode_shard(bytes: &[u8], items: &[(usize, usize, FuncId)]) -> Option<ShardOut> {
    let p = cache::decode_shard_payload(bytes).ok()?;
    if p.reports.len() != items.len() {
        return None;
    }
    Some(ShardOut {
        results: items
            .iter()
            .zip(p.reports)
            .map(|(&(si, ri, _), r)| (si, ri, r))
            .collect(),
        pdg_time: std::time::Duration::ZERO,
        search_time: std::time::Duration::ZERO,
        counters: SearchCounters {
            solver_queries: p.counters[0],
            solver_cache_hits: p.counters[1],
            subtrees_pruned: p.counters[2],
            sources_skipped_unreachable: p.counters[3],
        },
    })
}

/// Human-readable scope label for shard-level errors: function names where
/// the id resolves, the raw id where it does not (an invalid scope is
/// exactly the case these errors exist for).
fn scope_names(module: &Module, scope: &BTreeSet<FuncId>) -> String {
    scope
        .iter()
        .map(|&fid| {
            if fid.index() < module.functions.len() {
                module.body(fid).name.clone()
            } else {
                fid.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// Detection regions for a specification (§6.4.1): sibling implementations
/// of the interface, or usages of the spec's APIs for interface-free
/// specs. An API "usage" includes every function that reaches the API
/// through its direct-call scope — drivers routinely wrap allocations in
/// local helpers, and the violation may sit in the wrapper's caller.
pub fn regions_for(module: &Module, spec: &Specification) -> Vec<FuncId> {
    let cg = CallGraph::build(module);
    regions_for_with_cg(module, &cg, spec)
}

/// [`regions_for`] with a prebuilt call graph.
pub fn regions_for_with_cg(module: &Module, cg: &CallGraph, spec: &Specification) -> Vec<FuncId> {
    match &spec.interface {
        Some(iface) => {
            let Some((s, f)) = iface.split_once("::") else {
                return vec![];
            };
            module
                .implementations(&InterfaceId::new(s, f))
                .into_iter()
                .map(|b| b.id)
                .collect()
        }
        None => {
            // Direct callers plus their transitive callers.
            let mut out: BTreeSet<FuncId> = BTreeSet::new();
            let mut frontier: Vec<FuncId> = Vec::new();
            for api in spec.apis() {
                for (body, _) in module.callers_of_api(&api) {
                    if out.insert(body.id) {
                        frontier.push(body.id);
                    }
                }
            }
            while let Some(f) = frontier.pop() {
                for caller in cg.callers(f) {
                    if out.insert(caller) {
                        frontier.push(caller);
                    }
                }
            }
            out.into_iter().collect()
        }
    }
}

/// Region scope: the region function plus its transitive defined callees
/// (bottom-up summaries stay within direct calls; indirect calls are not
/// expanded, matching "our slicing does not cross the boundary of function
/// pointers", §7).
fn region_scope(cg: &CallGraph, region: FuncId) -> BTreeSet<FuncId> {
    cg.reachable_from(&[region])
}

/// Search-phase counters for one shard (summed into [`DetectStats`]).
#[derive(Debug, Default, Clone, Copy)]
struct SearchCounters {
    solver_queries: u64,
    solver_cache_hits: u64,
    subtrees_pruned: u64,
    sources_skipped_unreachable: u64,
}

impl SearchCounters {
    fn add(&mut self, o: SearchCounters) {
        self.solver_queries += o.solver_queries;
        self.solver_cache_hits += o.solver_cache_hits;
        self.subtrees_pruned += o.subtrees_pruned;
        self.sources_skipped_unreachable += o.sources_skipped_unreachable;
    }
}

/// Per-scope path provider: one condition context plus a memo of the
/// *feasible* forward paths from each source node.
///
/// `forward_paths` depends only on the PDG, the start node, and the slice
/// budgets, and the per-path feasibility test `is_sat(Ψ(p))` is intrinsic
/// to the path — neither varies with the specification — so caching the
/// filtered path set per source is behavior-preserving while eliminating
/// the dominant repeated work when many specs target one region (§8.4's
/// "path searching" phase).
///
/// The search phase also carries:
/// * a per-scope [`SinkReach`] cone with separate memos for
///   cone-restricted and full enumerations,
/// * one reusable [`IncrementalTheory`] threaded through the DFS to
///   abandon UNSAT prefixes (only with `path_sensitive`: without the
///   feasibility filter the naive enumeration keeps UNSAT paths),
/// * hash-consed solver caches for path feasibility (`Formula<CondVar>`)
///   and spec-condition consistency (`Formula<SpecValue>`), plus a memo of
///   the Ψ abstraction keyed on the path.
///
/// Each is output-identical: the excluded paths can never match, and the
/// solver is deterministic, so memoized verdicts equal fresh ones.
struct PathCache<'p, 'm> {
    pdg: &'p Pdg<'m>,
    cctx: CondCtx<'p, 'm>,
    memo_full: HashMap<NodeId, std::rc::Rc<Vec<ValueFlowPath>>>,
    memo_cone: HashMap<NodeId, std::rc::Rc<Vec<ValueFlowPath>>>,
    path_sensitive: bool,
    slice: SliceConfig,
    reach: SinkReach,
    theory: Option<IncrementalTheory<CondVar>>,
    cond_solver: SolverCache<CondVar>,
    spec_solver: SolverCache<SpecValue>,
    psi_memo: HashMap<PathKey, Formula<SpecValue>>,
    consistency_memo: HashMap<(PathKey, seal_solver::FormulaId, bool), bool>,
    roles_memo: HashMap<PathKey, PathRoles>,
    instantiate_memo: HashMap<(FuncId, SpecValue), std::rc::Rc<Vec<NodeId>>>,
    counters: SearchCounters,
}

/// A path's classification into the spec domain — its source value and
/// sink use — both pure functions of the path, recomputed for every
/// (specification, region) pair without the memo.
type PathRoles = (Option<SpecValue>, Option<(SpecUse, Option<String>)>);

/// Identity of one enumerated path within a [`PathCache`]: source node,
/// index in that source's enumeration, and whether the enumeration was
/// cone-restricted. Enumeration is deterministic, so the key pins down
/// the path's content without hashing its (large) condition formula —
/// which is what makes the Ψ and consistency memo lookups O(1).
type PathKey = (NodeId, u32, bool);

impl<'p, 'm> PathCache<'p, 'm> {
    fn new(
        pdg: &'p Pdg<'m>,
        cfg: &DetectConfig,
        spec_base: &seal_solver::FormulaSnapshot<SpecValue>,
    ) -> Self {
        PathCache {
            pdg,
            cctx: CondCtx::new(pdg),
            memo_full: HashMap::new(),
            memo_cone: HashMap::new(),
            path_sensitive: cfg.path_sensitive,
            slice: cfg.slice,
            reach: SinkReach::build(pdg),
            theory: cfg.path_sensitive.then(IncrementalTheory::new),
            cond_solver: SolverCache::new(),
            spec_solver: SolverCache::with_base(spec_base),
            psi_memo: HashMap::new(),
            consistency_memo: HashMap::new(),
            roles_memo: HashMap::new(),
            instantiate_memo: HashMap::new(),
            counters: SearchCounters::default(),
        }
    }

    /// Whether `s` has an empty sink cone (no path from it can ever match
    /// a specification use).
    fn source_unreachable(&self, s: NodeId) -> bool {
        !self.reach.reaches_sink(s)
    }

    /// Satisfiability of an IR-level path condition, counted and memoized.
    fn sat_cond(&mut self, f: &Formula<CondVar>) -> Verdict {
        self.counters.solver_queries += 1;
        let h0 = self.cond_solver.hits;
        let v = self.cond_solver.is_sat(f);
        self.counters.solver_cache_hits += self.cond_solver.hits - h0;
        v
    }

    /// Satisfiability of a spec-level condition, counted and memoized.
    fn sat_spec(&mut self, f: &Formula<SpecValue>) -> Verdict {
        self.counters.solver_queries += 1;
        let h0 = self.spec_solver.hits;
        let v = self.spec_solver.is_sat(f);
        self.counters.solver_cache_hits += self.spec_solver.hits - h0;
        v
    }

    /// Ψ abstraction of a path condition (§6.4.2), memoized per path.
    /// `abstract_cond` is pure in the formula and the enumeration behind
    /// `key` is deterministic, so the path key is a safe stand-in for the
    /// condition itself.
    fn abstract_cond_of(&mut self, key: PathKey, p: &ValueFlowPath) -> Formula<SpecValue> {
        if let Some(f) = self.psi_memo.get(&key) {
            return f.clone();
        }
        let f = roles::abstract_cond(self.pdg, &p.cond);
        self.psi_memo.insert(key, f.clone());
        f
    }

    /// Condition consistency (§6.4.2), directional by quantifier:
    ///
    /// * `∄` specs forbid the flow *under* `c`; a path counts when its own
    ///   condition does not preclude `c` — joint satisfiability. (A
    ///   guarded sibling whose `Ψ` contradicts `c` is safe; an unguarded
    ///   one is not.)
    /// * `∃`/`∀` specs require the flow to cover situation `c`; besides
    ///   joint satisfiability, the relaxed containment check asks that the
    ///   critical interaction data of `c` occur along `Ψ(p)` at all.
    fn cond_consistent(
        &mut self,
        key: PathKey,
        cid: seal_solver::FormulaId,
        p: &ValueFlowPath,
        cond: &Formula<SpecValue>,
        strict: bool,
    ) -> bool {
        if matches!(cond, Formula::True) {
            return true;
        }
        // Deduped specs re-check the same (path, condition) pair across
        // many regions; the verdict is pure in both, so memoize it on the
        // path key plus the interned spec condition (`cid`, hoisted out of
        // the path loop by the caller).
        let mk = (key, cid, strict);
        if let Some(&v) = self.consistency_memo.get(&mk) {
            self.counters.solver_queries += 1;
            self.counters.solver_cache_hits += 1;
            return v;
        }
        let v = self.cond_consistent_uncached(key, p, cond, strict);
        self.consistency_memo.insert(mk, v);
        v
    }

    fn cond_consistent_uncached(
        &mut self,
        key: PathKey,
        p: &ValueFlowPath,
        cond: &Formula<SpecValue>,
        strict: bool,
    ) -> bool {
        let psi = self.abstract_cond_of(key, p);
        let joint = cond.clone().and(psi.clone());
        if !self.sat_spec(&joint).possibly_sat() {
            return false;
        }
        if !strict {
            return true;
        }
        let cond_vars = cond.vars();
        let psi_vars = psi.vars();
        if psi_vars.is_empty() {
            return true;
        }
        cond_vars.iter().any(|v| psi_vars.contains(v)) || matches!(psi, Formula::True)
    }

    /// Spec-domain roles of a path (source value + sink use), memoized per
    /// path: classification walks the path and allocates, and every
    /// (specification, region) pair re-asks it.
    fn roles_of(&mut self, key: PathKey, p: &ValueFlowPath) -> PathRoles {
        let pdg = self.pdg;
        self.roles_memo
            .entry(key)
            .or_insert_with(|| (roles::source_value(pdg, p), roles::sink_use(pdg, p)))
            .clone()
    }

    /// Source-node instantiation of a spec value in a region (𝔸⁻¹),
    /// memoized: the scan over the region's nodes is pure in
    /// `(region, value)`, and specs sharing a value pattern re-ask it for
    /// every region in the shard.
    fn instantiate(&mut self, region: FuncId, value: &SpecValue) -> std::rc::Rc<Vec<NodeId>> {
        let pdg = self.pdg;
        self.instantiate_memo
            .entry((region, value.clone()))
            .or_insert_with(|| std::rc::Rc::new(roles::instantiate_value(pdg, region, value)))
            .clone()
    }

    /// Interns a spec-level condition for use as a consistency-memo key.
    /// Hoisted out of the per-path loop: interning traverses the formula,
    /// the id never changes.
    fn intern_spec_cond(&mut self, cond: &Formula<SpecValue>) -> seal_solver::FormulaId {
        self.spec_solver.intern(cond)
    }

    /// Whether a path realizes `value ↪ use_` (see [`roles_match`]).
    fn path_matches(
        &mut self,
        key: PathKey,
        p: &ValueFlowPath,
        value: &SpecValue,
        use_: &SpecUse,
        region_name: &str,
    ) -> bool {
        let roles = self.roles_of(key, p);
        roles_match(&roles, value, use_, region_name)
    }

    /// Feasible forward paths from `s` (all paths when path sensitivity is
    /// off), memoized per source: every spec checked against the same
    /// region reuses one path search and one feasibility pass.
    ///
    /// `cone` restricts enumeration to match-capable paths (classified
    /// sinks and interface-return path ends) via the [`SinkReach`]
    /// pre-pass; callers may request it only when they consume nothing
    /// else. Cone and full results are memoized separately.
    fn paths_from(&mut self, s: NodeId, cone: bool) -> std::rc::Rc<Vec<ValueFlowPath>> {
        let memo = if cone {
            &self.memo_cone
        } else {
            &self.memo_full
        };
        if let Some(cached) = memo.get(&s) {
            return cached.clone();
        }
        let mut sstats = SliceStats::default();
        let mut paths = forward_paths_pruned(
            self.pdg,
            &mut self.cctx,
            s,
            self.slice,
            Some(&self.reach),
            cone,
            self.theory.as_mut(),
            &mut sstats,
        );
        self.counters.subtrees_pruned += sstats.subtrees_pruned;
        if self.path_sensitive {
            paths.retain(|p| self.sat_cond(&p.cond).possibly_sat());
        }
        let rc = std::rc::Rc::new(paths);
        let memo = if cone {
            &mut self.memo_cone
        } else {
            &mut self.memo_full
        };
        memo.insert(s, rc.clone());
        rc
    }
}

/// Evaluates one specification in one region.
fn check_region(
    module: &Module,
    pdg: &Pdg<'_>,
    paths: &mut PathCache<'_, '_>,
    spec: &Specification,
    region: FuncId,
    cfg: &DetectConfig,
) -> Option<BugReport> {
    let constraint = spec.constraints.first()?;
    let body = module.body(region);

    match (&constraint.quantifier, &constraint.relation) {
        (q, Relation::Reach { value, use_, cond }) => {
            let sources = paths.instantiate(region, value);
            if sources.is_empty() {
                return None;
            }
            // Condition variables must also instantiate in this region.
            for v in cond.vars() {
                if paths.instantiate(region, &v).is_empty() {
                    return None;
                }
            }
            if !use_instantiable(pdg, region, use_) {
                return None;
            }
            let cid = paths.intern_spec_cond(cond);
            // Gather matching realizable paths; track whether the spec's
            // condition region is reachable from the sources at all.
            //
            // The applicability probe is the one consumer of paths that
            // never classify a sink (`∃`/`∀` with a non-trivial `c` tests
            // every path's condition); everything else only ever examines
            // match-capable paths, so the sink cone applies and sources
            // with an empty cone can be skipped outright.
            let strict = !matches!(q, Quantifier::NotExists);
            let needs_applicable = strict && !matches!(cond, Formula::True);
            let cone = !needs_applicable;
            let mut matching: Vec<ValueFlowPath> = Vec::new();
            let mut applicable = !needs_applicable;
            'sources: for &s in sources.iter() {
                if cone && paths.source_unreachable(s) {
                    paths.counters.sources_skipped_unreachable += 1;
                    continue;
                }
                let ps = paths.paths_from(s, cone);
                for (i, p) in ps.iter().enumerate() {
                    let key = (s, i as u32, cone);
                    if !applicable
                        && (!cfg.path_sensitive || paths.cond_consistent(key, cid, p, cond, false))
                    {
                        applicable = true;
                        if !matching.is_empty() {
                            break 'sources;
                        }
                    }
                    if !paths.path_matches(key, p, value, use_, &body.name) {
                        continue;
                    }
                    if !cfg.path_sensitive || paths.cond_consistent(key, cid, p, cond, strict) {
                        matching.push(p.clone());
                        // `∄` reports the first witness; `∃`/`∀` only ask
                        // whether a matching path exists once applicable.
                        if !strict || applicable {
                            break 'sources;
                        }
                    }
                }
            }
            match q {
                Quantifier::Exists | Quantifier::ForAll => {
                    // A required flow is only demanded where the triggering
                    // situation `c` is reachable (§6.4.1's "cease analysis"
                    // rule, lifted from syntax to conditions).
                    if !applicable {
                        return None;
                    }
                    if matching.is_empty() {
                        return Some(make_report(
                            module,
                            spec,
                            region,
                            vec![],
                            format!(
                                "required flow `{value} ↪ {use_}` is missing in `{}`",
                                body.name
                            ),
                        ));
                    }
                    None
                }
                Quantifier::NotExists => {
                    let witness = matching.first()?;
                    let lines = witness_lines(pdg, witness);
                    Some(make_report(
                        module,
                        spec,
                        region,
                        lines,
                        format!(
                            "forbidden flow `{value} ↪ {use_}` is realizable in `{}`",
                            body.name
                        ),
                    ))
                }
            }
        }
        (
            Quantifier::NotExists,
            Relation::Order {
                value,
                first,
                second,
            },
        ) => {
            let sources = paths.instantiate(region, value);
            if sources.is_empty() {
                return None;
            }
            let mut first_hits: Vec<(NodeId, ValueFlowPath)> = Vec::new();
            let mut second_hits: Vec<(NodeId, ValueFlowPath)> = Vec::new();
            for &s in sources.iter() {
                // Order checks consume classified sinks only: cone mode.
                if paths.source_unreachable(s) {
                    paths.counters.sources_skipped_unreachable += 1;
                    continue;
                }
                let ps = paths.paths_from(s, true);
                for (i, p) in ps.iter().enumerate() {
                    let Some((u, _)) = paths.roles_of((s, i as u32, true), p).1 else {
                        continue;
                    };
                    if use_matches(&u, first) {
                        first_hits.push((p.sink(), p.clone()));
                    }
                    if use_matches(&u, second) {
                        second_hits.push((p.sink(), p.clone()));
                    }
                }
            }
            for (fnode, fpath) in &first_hits {
                for (snode, spath) in &second_hits {
                    if fnode == snode {
                        continue;
                    }
                    let (Some(fo), Some(so)) = (pdg.omega(*fnode), pdg.omega(*snode)) else {
                        continue;
                    };
                    if fo.func != so.func {
                        continue;
                    }
                    if fo < so {
                        // Forbidden order realized.
                        let mut lines = witness_lines(pdg, fpath);
                        lines.extend(witness_lines(pdg, spath));
                        return Some(make_report(
                            module,
                            spec,
                            region,
                            lines,
                            format!(
                                "forbidden order `{first} ≺ {second}` on `{value}` in `{}`",
                                body.name
                            ),
                        ));
                    }
                }
            }
            None
        }
        // ∃/∀ order constraints are not produced by extraction.
        _ => None,
    }
}

/// Whether a use of the spec's kind is instantiable in the region at all.
fn use_instantiable(pdg: &Pdg<'_>, region: FuncId, u: &SpecUse) -> bool {
    use seal_ir::tac::{Callee, Inst, PlaceBase, Terminator};
    let module = pdg.module;
    for &f in &pdg.scope {
        let body = module.body(f);
        for loc in body.all_locs() {
            if loc.is_terminator() {
                if matches!(u, SpecUse::RetI)
                    && f == region
                    && matches!(
                        body.block(loc.block).terminator,
                        Terminator::Return(Some(_))
                    )
                {
                    return true;
                }
                continue;
            }
            let Some(inst) = body.inst_at(loc) else {
                continue;
            };
            let hit = match (u, inst) {
                (
                    SpecUse::ArgF { api, .. },
                    Inst::Call {
                        callee: Callee::Direct(n),
                        ..
                    },
                ) => n == api,
                (SpecUse::Deref, Inst::Load { place, .. })
                | (SpecUse::Deref, Inst::Store { place, .. }) => place.is_indirect(),
                (SpecUse::Div, Inst::Assign { rv, .. }) => matches!(
                    rv,
                    seal_ir::tac::Rvalue::Binary(
                        seal_kir::ast::BinOp::Div | seal_kir::ast::BinOp::Rem,
                        ..
                    )
                ),
                (SpecUse::IndexUse, Inst::Load { place, .. })
                | (SpecUse::IndexUse, Inst::Store { place, .. }) => place
                    .projections
                    .iter()
                    .any(|p| matches!(p, seal_ir::tac::Projection::Index { .. })),
                (SpecUse::GlobalStore { name }, Inst::Store { place, .. }) => {
                    matches!(&place.base, PlaceBase::Global(g) if g == name)
                }
                _ => false,
            };
            if hit {
                return true;
            }
        }
    }
    false
}

/// Whether a concrete path instantiates the abstract `(value, use)` pair.
/// `RetI` sinks only count when the returning function is the region
/// itself (an interface has a single return; §4.2).
fn roles_match(roles: &PathRoles, value: &SpecValue, use_: &SpecUse, region_name: &str) -> bool {
    let Some(v) = &roles.0 else {
        return false;
    };
    if !value_matches(v, value) {
        return false;
    }
    let Some((u, ret_func)) = &roles.1 else {
        return false;
    };
    if matches!(use_, SpecUse::RetI) && ret_func.as_deref() != Some(region_name) {
        return false;
    }
    use_matches(u, use_)
}

fn value_matches(concrete: &SpecValue, spec: &SpecValue) -> bool {
    match (spec, concrete) {
        (
            SpecValue::ArgI { index, fields },
            SpecValue::ArgI {
                index: i2,
                fields: f2,
            },
        ) => index == i2 && (fields.is_empty() || fields == f2),
        (a, b) => a == b,
    }
}

fn use_matches(concrete: &SpecUse, spec: &SpecUse) -> bool {
    concrete == spec
}

fn witness_lines(pdg: &Pdg<'_>, p: &ValueFlowPath) -> Vec<u32> {
    let mut lines: Vec<u32> = p.nodes.iter().map(|&n| pdg.line_of(n)).collect();
    lines.dedup();
    lines.retain(|&l| l != 0);
    lines
}

fn make_report(
    module: &Module,
    spec: &Specification,
    region: FuncId,
    witness_lines: Vec<u32>,
    explanation: String,
) -> BugReport {
    let body = module.body(region);
    BugReport {
        spec: spec.clone(),
        module: module.name.clone(),
        function: body.name.clone(),
        line: body.span.line,
        bug_type: classify_spec(spec),
        witness_lines,
        explanation,
    }
}

fn dedup_reports(reports: &mut Vec<BugReport>) {
    // Identity excludes the origin patch: the same logical violation found
    // through specs mined from different historical patches is one report.
    let mut seen = BTreeSet::new();
    reports.retain(|r| {
        seen.insert((
            r.module.clone(),
            r.function.clone(),
            r.bug_type,
            format!("{:?}{:?}", r.spec.interface, r.spec.constraints),
        ))
    });
}

#[cfg(test)]
mod tests {
    use crate::patch::Patch;
    use crate::Seal;

    /// End-to-end Fig. 1/Fig. 3 scenario: the spec inferred from the
    /// cx23885 patch finds the same bug in a sibling implementation.
    #[test]
    fn fig3_spec_finds_sibling_npd() {
        let shared = "\
struct riscmem { int *cpu; };
void *dma_alloc_coherent(unsigned long size);
struct vb2_ops { int (*buf_prepare)(struct riscmem *risc); };
";
        let pre = format!(
            "{shared}\
int vbibuffer(struct riscmem *risc) {{
    risc->cpu = (int *)dma_alloc_coherent(64);
    if (risc->cpu == NULL) return -12;
    return 0;
}}
int buffer_prepare(struct riscmem *risc) {{ vbibuffer(risc); return 0; }}
struct vb2_ops qops = {{ .buf_prepare = buffer_prepare, }};"
        );
        let post = format!(
            "{shared}\
int vbibuffer(struct riscmem *risc) {{
    risc->cpu = (int *)dma_alloc_coherent(64);
    if (risc->cpu == NULL) return -12;
    return 0;
}}
int buffer_prepare(struct riscmem *risc) {{ return vbibuffer(risc); }}
struct vb2_ops qops = {{ .buf_prepare = buffer_prepare, }};"
        );
        // Target: another driver implementing the same interface with the
        // same dropped-error-code bug, and a correct sibling.
        let target_src = format!(
            "{shared}\
int tw68_alloc(struct riscmem *risc) {{
    risc->cpu = (int *)dma_alloc_coherent(128);
    if (risc->cpu == NULL) return -12;
    return 0;
}}
int tw68_buf_prepare(struct riscmem *risc) {{ tw68_alloc(risc); return 0; }}
int good_buf_prepare(struct riscmem *risc) {{
    risc->cpu = (int *)dma_alloc_coherent(128);
    if (risc->cpu == NULL) return -12;
    return 0;
}}
struct vb2_ops tw68_qops = {{ .buf_prepare = tw68_buf_prepare, }};
struct vb2_ops good_qops = {{ .buf_prepare = good_buf_prepare, }};"
        );
        let target = seal_ir::lower(&seal_kir::compile(&target_src, "target.c").unwrap());
        let seal = Seal::default();
        let reports = seal.run(&Patch::new("fig3", pre, post), &target).unwrap();
        assert!(
            reports.iter().any(|r| r.function == "tw68_buf_prepare"),
            "reports: {:#?}",
            reports.iter().map(|r| r.to_string()).collect::<Vec<_>>()
        );
        assert!(
            !reports.iter().any(|r| r.function == "good_buf_prepare"),
            "correct sibling must not be flagged"
        );
    }

    /// Fig. 4 scenario: missing bounds check caught in a sibling.
    #[test]
    fn fig4_spec_finds_missing_check() {
        let shared = "\
struct smbus_data { int len; char block[34]; };
struct i2c_algorithm { int (*smbus_xfer)(int size, struct smbus_data *data); };
";
        let body_unchecked = "\
               char sink;
               int i;
               if (size == 1) {
                 for (i = 1; i <= data->len; i++) { sink = data->block[i]; }
               }
               return (int)sink;";
        let body_checked = "\
               char sink;
               int i;
               if (size == 1) {
                 if (data->len <= 32) {
                   for (i = 1; i <= data->len; i++) { sink = data->block[i]; }
                 }
               }
               return (int)sink;";
        let pre = format!(
            "{shared}int xfer_emulated(int size, struct smbus_data *data) {{\n{body_unchecked}\n}}\n\
             struct i2c_algorithm alg = {{ .smbus_xfer = xfer_emulated, }};"
        );
        let post = format!(
            "{shared}int xfer_emulated(int size, struct smbus_data *data) {{\n{body_checked}\n}}\n\
             struct i2c_algorithm alg = {{ .smbus_xfer = xfer_emulated, }};"
        );
        let target_src = format!(
            "{shared}int xgene_xfer(int size, struct smbus_data *data) {{\n{body_unchecked}\n}}\n\
             int safe_xfer(int size, struct smbus_data *data) {{\n{body_checked}\n}}\n\
             struct i2c_algorithm a1 = {{ .smbus_xfer = xgene_xfer, }};\n\
             struct i2c_algorithm a2 = {{ .smbus_xfer = safe_xfer, }};"
        );
        let target = seal_ir::lower(&seal_kir::compile(&target_src, "target.c").unwrap());
        let seal = Seal::default();
        let reports = seal.run(&Patch::new("fig4", pre, post), &target).unwrap();
        assert!(
            reports.iter().any(|r| r.function == "xgene_xfer"),
            "reports: {:#?}",
            reports.iter().map(|r| r.to_string()).collect::<Vec<_>>()
        );
        assert!(!reports.iter().any(|r| r.function == "safe_xfer"));
    }

    /// Fig. 5 scenario: use-after-put order violation in a sibling.
    #[test]
    fn fig5_spec_finds_order_violation() {
        let shared = "\
struct device { int devt; };
struct platform_device { struct device dev; };
struct platform_driver { int (*remove)(struct platform_device *pdev); };
void put_device(struct device *dev);
void release_resources(struct device *dev);
";
        let pre = format!(
            "{shared}int telem_remove(struct platform_device *pdev) {{\n\
               put_device(&pdev->dev);\n\
               release_resources(&pdev->dev);\n\
               return 0;\n\
             }}\nstruct platform_driver telem_driver = {{ .remove = telem_remove, }};"
        );
        let post = format!(
            "{shared}int telem_remove(struct platform_device *pdev) {{\n\
               release_resources(&pdev->dev);\n\
               put_device(&pdev->dev);\n\
               return 0;\n\
             }}\nstruct platform_driver telem_driver = {{ .remove = telem_remove, }};"
        );
        let target_src = format!(
            "{shared}int viacam_remove(struct platform_device *pdev) {{\n\
               put_device(&pdev->dev);\n\
               release_resources(&pdev->dev);\n\
               return 0;\n\
             }}\n\
             int ok_remove(struct platform_device *pdev) {{\n\
               release_resources(&pdev->dev);\n\
               put_device(&pdev->dev);\n\
               return 0;\n\
             }}\n\
             struct platform_driver d1 = {{ .remove = viacam_remove, }};\n\
             struct platform_driver d2 = {{ .remove = ok_remove, }};"
        );
        let target = seal_ir::lower(&seal_kir::compile(&target_src, "target.c").unwrap());
        let seal = Seal::default();
        let reports = seal.run(&Patch::new("fig5", pre, post), &target).unwrap();
        assert!(
            reports.iter().any(|r| r.function == "viacam_remove"),
            "reports: {:#?}",
            reports.iter().map(|r| r.to_string()).collect::<Vec<_>>()
        );
        assert!(!reports.iter().any(|r| r.function == "ok_remove"));
    }

    #[test]
    fn region_skipped_when_value_missing() {
        // Spec requires -12 literal; region never mentions it → no report.
        let shared = "\
struct riscmem { int *cpu; };
void *dma_alloc_coherent(unsigned long size);
struct vb2_ops { int (*buf_prepare)(struct riscmem *risc); };
";
        let pre = format!(
            "{shared}int bp(struct riscmem *r) {{\n\
               r->cpu = (int *)dma_alloc_coherent(64);\n\
               if (r->cpu == NULL) return -12;\n\
               return 0;\n\
             }}\n\
             int outer(struct riscmem *r) {{ bp(r); return 0; }}\n\
             struct vb2_ops q = {{ .buf_prepare = outer, }};"
        );
        let post = format!(
            "{shared}int bp(struct riscmem *r) {{\n\
               r->cpu = (int *)dma_alloc_coherent(64);\n\
               if (r->cpu == NULL) return -12;\n\
               return 0;\n\
             }}\n\
             int outer(struct riscmem *r) {{ return bp(r); }}\n\
             struct vb2_ops q = {{ .buf_prepare = outer, }};"
        );
        let target_src = format!(
            "{shared}int simple_prepare(struct riscmem *r) {{ return 0; }}\n\
             struct vb2_ops q2 = {{ .buf_prepare = simple_prepare, }};"
        );
        let target = seal_ir::lower(&seal_kir::compile(&target_src, "t2.c").unwrap());
        let seal = Seal::default();
        let reports = seal.run(&Patch::new("p", pre, post), &target).unwrap();
        assert!(
            reports.is_empty(),
            "{:#?}",
            reports.iter().map(|r| r.to_string()).collect::<Vec<_>>()
        );
    }
}
