//! Stage ② — PDG differentiation (Alg. 1).
//!
//! Collects the interaction-data value-flow paths of both patch versions
//! (restricted, as in §6.2.1, to paths that touch patched functions), then
//! matches them by their line-number-free structural signatures and
//! classifies differences into the four sets of Alg. 1:
//!
//! * `P−` — paths present only pre-patch,
//! * `P+` — paths present only post-patch,
//! * `PΨ` — matched paths whose conditions are not equivalent,
//! * `PΩ` — matched paths (candidates for use-site order analysis).

use crate::patch::CompiledPatch;
use crate::roles;
use seal_ir::callgraph::CallGraph;
use seal_ir::ids::FuncId;
use seal_ir::module::Module;
use seal_pdg::cond::CondCtx;
use seal_pdg::graph::{NodeId, Pdg};
use seal_pdg::slice::{forward_paths, is_source, SigInterner, SliceConfig};
use seal_runtime::Symbol;
use seal_solver::{Formula, SolverCache};
use seal_spec::{SpecUse, SpecValue};
use std::collections::{BTreeMap, BTreeSet};

/// Budgets for the differencing stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiffConfig {
    /// Path-enumeration budgets.
    pub slice: SliceConfig,
}

/// A version-independent snapshot of one value-flow path, carrying
/// everything Alg. 2 needs.
#[derive(Debug, Clone, PartialEq)]
pub struct AbstractPath {
    /// Structural signature used for cross-version matching (interned;
    /// symbol order is content order, so grouping by `Symbol` iterates
    /// exactly like grouping by the rendered string).
    pub sig: Symbol,
    /// Abstracted source (`V`).
    pub value: SpecValue,
    /// Abstracted sink (`U`).
    pub use_: SpecUse,
    /// Function whose return the sink is, for `RetI` sinks.
    pub ret_func: Option<String>,
    /// Interface context (`struct::field`).
    pub interface: Option<String>,
    /// Abstracted path condition over `V`.
    pub cond: Formula<SpecValue>,
    /// Sink order stamp `(function name, block order, index)` for `Ω`
    /// comparisons.
    pub sink_omega: Option<(String, u32, u32)>,
    /// Source line numbers along the path (for reports).
    pub lines: Vec<u32>,
}

/// Output of Alg. 1.
#[derive(Debug, Default)]
pub struct ChangedPaths {
    /// `P−`.
    pub removed: Vec<AbstractPath>,
    /// `P+`.
    pub added: Vec<AbstractPath>,
    /// `PΨ` as (pre, post) pairs.
    pub cond_changed: Vec<(AbstractPath, AbstractPath)>,
    /// `PΩ` candidates: matched pairs with equivalent conditions.
    pub unchanged_pairs: Vec<(AbstractPath, AbstractPath)>,
}

impl ChangedPaths {
    /// Total number of changed paths across all categories.
    pub fn total_changed(&self) -> usize {
        self.removed.len() + self.added.len() + self.cond_changed.len()
    }
}

/// Runs Alg. 1 over a compiled patch.
///
/// Paths are grouped by structural signature. Within one group (several
/// syntactically identical statements — e.g. two `kfree(buf)` calls on
/// different error paths), pre and post paths are first paired by
/// *condition equivalence*, so a second cleanup call added by the patch is
/// recognized as an addition rather than a condition change of the
/// existing one.
pub fn diff_patch(patch: &CompiledPatch, cfg: &DiffConfig) -> ChangedPaths {
    let pre_paths = collect_paths(&patch.pre, &patch.changed, cfg);
    let post_paths = collect_paths(&patch.post, &patch.changed, cfg);

    let mut pre_by_sig: BTreeMap<Symbol, Vec<AbstractPath>> = BTreeMap::new();
    for p in pre_paths {
        let group = pre_by_sig.entry(p.sig).or_default();
        if !group.iter().any(|q| q.cond == p.cond) {
            group.push(p);
        }
    }
    let mut post_by_sig: BTreeMap<Symbol, Vec<AbstractPath>> = BTreeMap::new();
    for p in post_paths {
        let group = post_by_sig.entry(p.sig).or_default();
        if !group.iter().any(|q| q.cond == p.cond) {
            group.push(p);
        }
    }

    // Condition equivalence is quadratic within a group and the same
    // conditions recur across groups; memoize `implies` on interned ids.
    let mut solver: SolverCache<SpecValue> = SolverCache::new();
    let mut out = ChangedPaths::default();
    for (sig, pre_group) in &pre_by_sig {
        let mut post_group: Vec<AbstractPath> = post_by_sig.get(sig).cloned().unwrap_or_default();
        let mut unmatched_pre: Vec<AbstractPath> = Vec::new();
        // Pass 1: equivalent-condition pairs (unchanged / PΩ candidates).
        for pre in pre_group {
            if let Some(i) = post_group
                .iter()
                .position(|post| solver.equivalent(&pre.cond, &post.cond))
            {
                let post = post_group.remove(i);
                out.unchanged_pairs.push((pre.clone(), post));
            } else {
                unmatched_pre.push(pre.clone());
            }
        }
        // Pass 2: leftover pre/post of the same signature pair into PΨ.
        for pre in unmatched_pre {
            if post_group.is_empty() {
                out.removed.push(pre);
            } else {
                let post = post_group.remove(0);
                out.cond_changed.push((pre, post));
            }
        }
        // Pass 3: remaining post paths are additions.
        out.added.extend(post_group);
    }
    for (sig, post_group) in &post_by_sig {
        if !pre_by_sig.contains_key(sig) {
            out.added.extend(post_group.iter().cloned());
        }
    }
    out
}

/// Collects abstract interaction paths of one version that touch patched
/// functions.
pub fn collect_paths(
    module: &Module,
    changed: &BTreeSet<String>,
    cfg: &DiffConfig,
) -> Vec<AbstractPath> {
    let cg = CallGraph::build(module);
    let scope = patch_scope(module, &cg, changed);
    if scope.is_empty() {
        return vec![];
    }
    let pdg = Pdg::build(module, &cg, &scope);
    let mut cctx = CondCtx::new(&pdg);

    let changed_ids: BTreeSet<FuncId> = changed.iter().filter_map(|n| module.func_id(n)).collect();

    let mut out = Vec::new();
    // Path signatures come from per-node interned symbols (each node
    // rendered once per PDG), the interned form of exactly
    // `ValueFlowPath::signature`.
    let mut sigs = SigInterner::new();
    for n in 0..pdg.nodes.len() as NodeId {
        if !is_source(&pdg, n) {
            continue;
        }
        for path in forward_paths(&pdg, &mut cctx, n, cfg.slice) {
            // Only paths that touch a patched function are patch-related.
            let touches = path.nodes.iter().any(|&x| {
                pdg.func_of(x)
                    .map(|f| changed_ids.contains(&f))
                    .unwrap_or(false)
            });
            if !touches {
                continue;
            }
            if let Some(ap) = abstract_path(&pdg, &path, &mut sigs) {
                out.push(ap);
            }
        }
    }
    out
}

/// The demand scope for a patch: changed functions, their direct callers,
/// and all transitive callees (§7, "Demand-driven PDG Generation" — we stop
/// at interface boundaries because indirect calls are not expanded here).
fn patch_scope(module: &Module, cg: &CallGraph, changed: &BTreeSet<String>) -> BTreeSet<FuncId> {
    let changed_ids: Vec<FuncId> = changed.iter().filter_map(|n| module.func_id(n)).collect();
    let mut roots: BTreeSet<FuncId> = changed_ids.iter().copied().collect();
    for &f in &changed_ids {
        roots.extend(cg.callers(f));
    }
    let root_list: Vec<FuncId> = roots.iter().copied().collect();
    cg.reachable_from(&root_list)
}

/// Builds the version-independent snapshot of a concrete path.
fn abstract_path(
    pdg: &Pdg<'_>,
    path: &seal_pdg::slice::ValueFlowPath,
    sigs: &mut SigInterner,
) -> Option<AbstractPath> {
    let value = roles::source_value(pdg, path)?;
    let (use_, ret_func) = roles::sink_use(pdg, path)?;
    // Paths that merely feed a value back as an uninteresting
    // function-return of a helper are kept: the `RetI` mapping only makes
    // sense for interface-bound or entry functions, which extraction
    // decides; here we record the function name.
    let interface = roles::path_interface(pdg, path);
    let cond = roles::abstract_cond(pdg, &path.cond);
    let sink_omega = pdg
        .omega(path.sink())
        .map(|o| (pdg.module.body(o.func).name.clone(), o.block, o.idx));
    let lines = path.nodes.iter().map(|&n| pdg.line_of(n)).collect();
    let sig = sigs.path_symbol(pdg, path);
    Some(AbstractPath {
        sig,
        value,
        use_,
        ret_func,
        interface,
        cond,
        sink_omega,
        lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patch::Patch;

    fn diff(pre: &str, post: &str) -> ChangedPaths {
        let patch = Patch::new("t", pre, post).compile().unwrap();
        diff_patch(&patch, &DiffConfig::default())
    }

    /// Fig. 3: conveying the error code adds a value-flow path from the
    /// literal to the interface return.
    #[test]
    fn fig3_adds_error_code_path() {
        let shared = "\
struct riscmem { int *cpu; };
void *dma_alloc_coherent(unsigned long size);
struct vb2_ops { int (*buf_prepare)(struct riscmem *risc); };
int vbibuffer(struct riscmem *risc) {
    risc->cpu = (int *)dma_alloc_coherent(64);
    if (risc->cpu == NULL) return -12;
    return 0;
}
";
        let pre = format!(
            "{shared}\nint buffer_prepare(struct riscmem *risc) {{ vbibuffer(risc); return 0; }}\n\
             struct vb2_ops qops = {{ .buf_prepare = buffer_prepare, }};"
        );
        let post = format!(
            "{shared}\nint buffer_prepare(struct riscmem *risc) {{ return vbibuffer(risc); }}\n\
             struct vb2_ops qops = {{ .buf_prepare = buffer_prepare, }};"
        );
        let changed = diff(&pre, &post);
        // A new path: literal -12 ↪ ret of buffer_prepare.
        let hit = changed.added.iter().find(|p| {
            p.value == SpecValue::Literal(-12)
                && p.use_ == SpecUse::RetI
                && p.ret_func.as_deref() == Some("buffer_prepare")
        });
        assert!(hit.is_some(), "added: {:#?}", changed.added);
        let ap = hit.unwrap();
        // Condition mentions the API failure.
        assert!(ap
            .cond
            .vars()
            .contains(&SpecValue::ret_of("dma_alloc_coherent")));
        assert_eq!(ap.interface.as_deref(), Some("vb2_ops::buf_prepare"));
    }

    /// Fig. 4: adding a sanity check changes the condition of the
    /// param-to-deref path.
    #[test]
    fn fig4_changes_condition() {
        let shared = "\
struct smbus_data { int len; char block[34]; };
struct i2c_algorithm { int (*smbus_xfer)(int size, struct smbus_data *data); };
";
        let pre = format!(
            "{shared}\nint xfer_emulated(int size, struct smbus_data *data) {{\n\
               char sink;\n\
               int i;\n\
               if (size == 1) {{\n\
                 for (i = 1; i <= data->len; i++) {{ sink = data->block[i]; }}\n\
               }}\n\
               return (int)sink;\n\
             }}\n\
             struct i2c_algorithm alg = {{ .smbus_xfer = xfer_emulated, }};"
        );
        let post = format!(
            "{shared}\nint xfer_emulated(int size, struct smbus_data *data) {{\n\
               char sink;\n\
               int i;\n\
               if (size == 1) {{\n\
                 if (data->len <= 32) {{\n\
                   for (i = 1; i <= data->len; i++) {{ sink = data->block[i]; }}\n\
                 }}\n\
               }}\n\
               return (int)sink;\n\
             }}\n\
             struct i2c_algorithm alg = {{ .smbus_xfer = xfer_emulated, }};"
        );
        let changed = diff(&pre, &post);
        // The block→deref-ish path must land in PΨ.
        assert!(
            !changed.cond_changed.is_empty(),
            "added={} removed={} unchanged={}",
            changed.added.len(),
            changed.removed.len(),
            changed.unchanged_pairs.len()
        );
    }

    /// Fig. 5: reordering statements produces identical path sets with
    /// different Ω stamps.
    #[test]
    fn fig5_order_only_change() {
        let shared = "\
struct device { int devt; };
struct platform_device { struct device dev; };
struct platform_driver { int (*remove)(struct platform_device *pdev); };
struct ida { int x; };
struct ida telem_ida;
void put_device(struct device *dev);
void ida_free(struct ida *ida, int id);
";
        let pre = format!(
            "{shared}\nint telem_remove(struct platform_device *pdev) {{\n\
               put_device(&pdev->dev);\n\
               ida_free(&telem_ida, pdev->dev.devt);\n\
               return 0;\n\
             }}\n\
             struct platform_driver telem_driver = {{ .remove = telem_remove, }};"
        );
        let post = format!(
            "{shared}\nint telem_remove(struct platform_device *pdev) {{\n\
               ida_free(&telem_ida, pdev->dev.devt);\n\
               put_device(&pdev->dev);\n\
               return 0;\n\
             }}\n\
             struct platform_driver telem_driver = {{ .remove = telem_remove, }};"
        );
        let changed = diff(&pre, &post);
        // No additions or condition changes. (A may-write edge from the
        // pre-patch `put_device` into the later `devt` load disappears with
        // the reordering, so `removed` may carry that clobber path; the
        // extraction stage suppresses it via the surviving-endpoints check.)
        assert!(changed.added.is_empty(), "{:#?}", changed.added);
        assert!(changed.cond_changed.is_empty());
        assert!(!changed.unchanged_pairs.is_empty());
        // And at least one matched pair flipped its sink order.
        let flipped = order_flips(&changed);
        assert!(!flipped.is_empty());
    }

    /// Helper mirroring extraction's Ω analysis for the test.
    fn order_flips(changed: &ChangedPaths) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (i, (pre_a, post_a)) in changed.unchanged_pairs.iter().enumerate() {
            for (pre_b, post_b) in changed.unchanged_pairs.iter().skip(i + 1) {
                if crate::extract::comparable_value(&pre_a.value, &pre_b.value).is_none() {
                    continue;
                }
                let (Some(oa_pre), Some(ob_pre), Some(oa_post), Some(ob_post)) = (
                    &pre_a.sink_omega,
                    &pre_b.sink_omega,
                    &post_a.sink_omega,
                    &post_b.sink_omega,
                ) else {
                    continue;
                };
                if oa_pre.0 != ob_pre.0 || oa_post.0 != ob_post.0 {
                    continue;
                }
                let pre_lt = (oa_pre.1, oa_pre.2) < (ob_pre.1, ob_pre.2);
                let post_lt = (oa_post.1, oa_post.2) < (ob_post.1, ob_post.2);
                if pre_lt != post_lt {
                    out.push((pre_a.sig.to_string(), pre_b.sig.to_string()));
                }
            }
        }
        out
    }

    #[test]
    fn no_change_produces_empty_sets() {
        let src = "int f(int *p) { if (p == NULL) { return -22; } return *p; }";
        let changed = diff(src, src);
        assert_eq!(changed.total_changed(), 0);
    }

    #[test]
    fn removed_path_lands_in_p_minus() {
        let shared = "void kfree(void *p);\nvoid *kmalloc(unsigned long n);\n";
        let pre = format!(
            "{shared}\nint f(void) {{ void *p = kmalloc(8); kfree(p); kfree(p); return 0; }}"
        );
        let post = format!("{shared}\nint f(void) {{ void *p = kmalloc(8); kfree(p); return 0; }}");
        let changed = diff(&pre, &post);
        // Double-free fix: one kmalloc→kfree path disappears? Both kfree
        // calls have identical signatures, so the *path set* may collapse;
        // at minimum nothing is added.
        assert!(changed.added.is_empty());
    }
}
