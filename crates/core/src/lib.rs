//! `seal-core` — SEAL's specification inference and violation detection.
//!
//! Implements the four-stage workflow of Fig. 7:
//!
//! 1. **PDG construction** for the pre- and post-patch versions of a
//!    security patch ([`patch`]),
//! 2. **PDG differentiation** into changed value-flow path sets
//!    `P−, P+, PΨ, PΩ` ([`diff`], Alg. 1),
//! 3. **specification extraction** with domain mapping `𝔸` and quantifier
//!    inference ([`extract`], Alg. 2 and §6.3.3),
//! 4. **path-sensitive bug detection** by reachability search in other
//!    implementations/usages of the same interface ([`detect`], §6.4).
//!
//! The [`Seal`] facade ties the stages together:
//!
//! ```
//! use seal_core::{Patch, Seal};
//!
//! let pre = "
//! struct ops { int (*prep)(int *p); };
//! int do_prep(int *p) { return *p; }
//! struct ops t = { .prep = do_prep, };
//! ";
//! let post = "
//! struct ops { int (*prep)(int *p); };
//! int do_prep(int *p) { if (p == NULL) return -22; return *p; }
//! struct ops t = { .prep = do_prep, };
//! ";
//! let seal = Seal::default();
//! let specs = seal.infer(&Patch::new("p1", pre, post)).unwrap();
//! assert!(!specs.is_empty());
//! ```

pub mod batch;
pub mod cache;
pub mod detect;
pub mod diff;
pub mod error;
pub mod extract;
pub mod patch;
pub mod report;
pub mod roles;
pub mod spill;
pub mod warm;

pub use batch::infer_batch;
pub use cache::AnalysisCache;
pub use detect::{
    detect_bugs_isolated_cached, detect_bugs_with_stats_jobs_cached, DetectConfig, DetectStats,
};
pub use diff::{ChangedPaths, DiffConfig};
pub use error::{DetectError, SealError, Stage};
pub use patch::{CompiledPatch, Patch};
pub use report::{BugReport, BugType};
pub use warm::{WarmMemory, WarmStats};

use seal_runtime::catch_task_panic;
use seal_spec::Specification;

/// End-to-end SEAL driver with tunable budgets.
#[derive(Debug, Clone, Default)]
pub struct Seal {
    /// Differencing budgets.
    pub diff: DiffConfig,
    /// Detection budgets.
    pub detect: DetectConfig,
    /// Incremental artifact cache (disabled by default; see [`cache`]).
    pub cache: AnalysisCache,
}

impl Seal {
    /// Infers interface specifications from one security patch
    /// (stages ①–③).
    ///
    /// Fault-isolated per stage: frontend/lowering failures come back as
    /// their typed [`SealError`] variants, and a panic inside
    /// differentiation or extraction is contained into
    /// [`SealError::Panic`] tagged with the stage instead of unwinding.
    /// With an enabled [`cache`], inference is two-level incremental: a
    /// raw-text hit returns the cached specs with zero parsing; otherwise
    /// the patch is compiled and the semantic key (KIR unit hashes, stable
    /// under formatting/reordering edits) is tried before the expensive
    /// differencing runs. Cached and recomputed specs are byte-identical
    /// — both keys cover the patch id, both source texts' identity, and
    /// the diff-config fingerprint.
    pub fn infer(&self, patch: &Patch) -> Result<Vec<Specification>, SealError> {
        let fp = cache::diff_fingerprint(&self.diff);
        if self.cache.is_enabled() {
            if let Some(specs) = self.cache.get_specs_raw(fp, patch) {
                seal_obs::metrics::counter_add("infer.specs", specs.len() as u64);
                return Ok(specs);
            }
        }
        let compiled = if self.cache.is_enabled() {
            patch.compile_hashed()?
        } else {
            patch.compile()?
        };
        if self.cache.is_enabled() {
            if let Some(specs) = self.cache.get_specs_sem(fp, &compiled) {
                // Promote: the next run with this exact text short-circuits
                // before the frontend.
                self.cache.put_specs_raw(fp, patch, &specs);
                seal_obs::metrics::counter_add("infer.specs", specs.len() as u64);
                return Ok(specs);
            }
        }
        let changed = catch_task_panic(|| {
            let _span = seal_obs::span!("infer.diff");
            diff::diff_patch(&compiled, &self.diff)
        })
        .map_err(|p| SealError::panic(Stage::Diff, p))?;
        seal_obs::metrics::counter_add("diff.paths.removed", changed.removed.len() as u64);
        seal_obs::metrics::counter_add("diff.paths.added", changed.added.len() as u64);
        seal_obs::metrics::counter_add(
            "diff.paths.cond_changed",
            changed.cond_changed.len() as u64,
        );
        seal_obs::metrics::counter_add(
            "diff.paths.unchanged_pairs",
            changed.unchanged_pairs.len() as u64,
        );
        let specs = catch_task_panic(|| {
            let _span = seal_obs::span!("infer.extract");
            extract::extract_specs(&compiled, &changed)
        })
        .map_err(|p| SealError::panic(Stage::Extract, p));
        if let Ok(specs) = &specs {
            seal_obs::metrics::counter_add("infer.specs", specs.len() as u64);
            if self.cache.is_enabled() {
                self.cache.put_specs_raw(fp, patch, specs);
                self.cache.put_specs_sem(fp, &compiled, specs);
            }
        }
        specs
    }

    /// Detects violations of `specs` inside `module` (stage ④), serving
    /// unchanged shards from the cache when one is attached.
    pub fn detect(&self, module: &seal_ir::Module, specs: &[Specification]) -> Vec<BugReport> {
        detect::detect_bugs_with_stats_jobs_cached(
            module,
            specs,
            &self.detect,
            seal_runtime::worker_count(),
            &self.cache,
        )
        .0
    }

    /// Convenience: infer from a patch and immediately hunt for violations
    /// in a target module.
    pub fn run(
        &self,
        patch: &Patch,
        target: &seal_ir::Module,
    ) -> Result<Vec<BugReport>, SealError> {
        let specs = self.infer(patch)?;
        Ok(self.detect(target, &specs))
    }
}
