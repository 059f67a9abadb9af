//! The bounded-memory scale tier: a streamed pipeline over 10–100x
//! corpora with disk-spilled chunks.
//!
//! The materialized pipeline holds the whole corpus (every patch and the
//! full target source), the complete AST of one giant translation unit,
//! the lowered module, and all specs at once. At the paper's workload
//! size that peak is exactly what dies first. This module runs the same
//! analysis as a fold over [`seal_corpus::stream::CorpusStream`]:
//!
//! * **Patches** are inferred in small batches as they stream by and
//!   immediately dropped — only the (small) specification sets survive,
//!   spilled to disk under budget pressure.
//! * **Drivers** accumulate into fixed-size chunks. Each chunk compiles
//!   into its own module — padded with blank lines so every function
//!   keeps its exact line/column position from the single-TU layout —
//!   and is spilled via [`seal_core::spill`] (binary codecs) or kept,
//!   budget permitting. At most one chunk's AST exists at a time.
//! * **Detection** reloads chunks *sequentially*, runs the sharded
//!   detector per chunk, and merges reports into the exact order the
//!   whole-module run produces. Corrupt spill files degrade to
//!   recomputing the chunk from the corpus seed — a typed
//!   [`SealError::Store`] per damaged file, never a panic, and
//!   byte-identical surviving reports.
//!
//! Byte-identity with the materialized path holds because detection
//! regions are per-driver (drivers are self-contained; interfaces live in
//! the shared header every chunk carries), chunk order equals source
//! order, and report identity keys are function-unique. The scale suite
//! (`tests/scale.rs`) and the bench `scale` section assert it end to end.

use seal_core::spill::{SpillBudget, SpillDir, SpillHandle};
use seal_core::{
    detect_bugs_with_stats_jobs_cached, AnalysisCache, BugReport, DetectConfig, DetectStats, Seal,
    SealError,
};
use seal_corpus::ledger::{score, Score, SeededBug};
use seal_corpus::stream::{CorpusStream, StreamItem};
use seal_corpus::{generate, CorpusConfig};
use seal_spec::Specification;
use std::collections::HashMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Base configuration of the scale tier (the RQ harness evaluation
/// config); `--scale N` multiplies it via [`CorpusConfig::at_scale`].
pub fn eval_base_config() -> CorpusConfig {
    CorpusConfig {
        seed: 0x5EA1,
        drivers_per_template: 60,
        bug_rate: 0.18,
        patches_per_template: 6,
        refactor_patches: 20,
        scale: 1,
    }
}

/// Detection configuration of the scale tier: region caps off, so chunked
/// and whole-module runs examine the same regions at any corpus size.
pub fn scale_detect_config() -> DetectConfig {
    DetectConfig {
        max_regions: usize::MAX,
        ..DetectConfig::default()
    }
}

/// Knobs for one scale-tier run.
#[derive(Debug, Clone)]
pub struct ScaleOptions {
    /// Corpus configuration (set `config.scale` for 10x/100x).
    pub config: CorpusConfig,
    /// Worker count (capped at available parallelism).
    pub jobs: usize,
    /// Streamed (chunked, spillable) or materialized (whole corpus).
    pub streamed: bool,
    /// Drivers per compiled chunk (streamed mode).
    pub chunk_drivers: usize,
    /// Patches per inference batch (streamed mode).
    pub patch_batch: usize,
    /// RSS budget in MiB: `None` never spills, `Some(0)` always spills,
    /// otherwise spill once VmRSS approaches the budget.
    pub max_rss_mb: Option<u64>,
    /// Spill directory. `None` auto-creates one under the system temp dir
    /// and removes it when the run finishes; an explicit directory is
    /// left in place (tests corrupt files between the two phases).
    pub spill_dir: Option<PathBuf>,
}

impl Default for ScaleOptions {
    fn default() -> Self {
        ScaleOptions {
            config: eval_base_config(),
            jobs: seal_runtime::worker_count(),
            streamed: true,
            chunk_drivers: 256,
            patch_batch: 64,
            max_rss_mb: None,
            spill_dir: None,
        }
    }
}

/// Spill activity over one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpillSummary {
    /// Payloads written to the spill directory.
    pub writes: u64,
    /// Payloads read back intact.
    pub reads: u64,
    /// Payload bytes written.
    pub bytes_written: u64,
    /// Payload bytes read back.
    pub bytes_read: u64,
    /// Chunks/segments recomputed from the seed after a corrupt reload.
    pub recomputes: u64,
}

/// Result of one scale-tier run.
#[derive(Debug)]
pub struct ScaleOutcome {
    /// Final reports, byte-identical across streamed/materialized modes
    /// and worker counts.
    pub reports: Vec<BugReport>,
    /// Summed detection stats.
    pub stats: DetectStats,
    /// Precision/recall against the streamed ledger.
    pub score: Score,
    /// Target drivers processed.
    pub drivers: usize,
    /// Patches processed (refactors included).
    pub patches: usize,
    /// Specifications inferred.
    pub specs: usize,
    /// Compiled chunks (1 in materialized mode).
    pub chunks: usize,
    /// Spill counters.
    pub spill: SpillSummary,
    /// Typed store errors from corrupt spill files (each one was
    /// recomputed; reports are unaffected).
    pub store_errors: Vec<SealError>,
    /// Wall clock of generation + inference (phase A).
    pub gen_infer: Duration,
    /// Wall clock of detection (phase B).
    pub detect: Duration,
}

impl ScaleOutcome {
    /// Items processed per second (drivers + patches over both phases).
    pub fn items_per_sec(&self) -> f64 {
        let secs = (self.gen_infer + self.detect).as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            (self.drivers + self.patches) as f64 / secs
        }
    }
}

/// Deterministic render of a report list (used for byte-identity
/// comparisons across modes, processes, and worker counts).
pub fn render_reports(reports: &[BugReport]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for r in reports {
        writeln!(out, "{r}\n  origin: {}", r.spec.origin_patch).unwrap();
    }
    out
}

/// FNV-64 fingerprint of the rendered reports.
pub fn reports_fingerprint(reports: &[BugReport]) -> u64 {
    seal_store::fnv64(render_reports(reports).as_bytes())
}

/// Where a chunk's compiled module lives between the two phases.
enum ModuleSlot {
    Mem(Box<seal_ir::Module>),
    Disk(SpillHandle),
}

/// One sealed driver chunk.
struct Chunk {
    /// Newlines preceding this chunk's first driver in the single-TU
    /// layout (prelude included) — the padding that keeps spans exact.
    start_newlines: usize,
    /// Global driver index range.
    drivers: Range<usize>,
    slot: ModuleSlot,
}

/// Where one inference batch's specs live between the two phases.
enum SpecSlot {
    Mem(Vec<Specification>),
    Disk(SpillHandle),
}

/// One inferred patch segment.
struct SpecSeg {
    /// Global patch index range.
    patches: Range<usize>,
    slot: SpecSlot,
}

/// A streamed scale run, split into two phases so tests can interpose on
/// the spill directory between inference and detection.
pub struct ScaleRun {
    opts: ScaleOptions,
    jobs: usize,
    seal: Seal,
    prelude: String,
    prelude_newlines: usize,
    chunks: Vec<Chunk>,
    segs: Vec<SpecSeg>,
    ground_truth: Vec<SeededBug>,
    drivers: usize,
    patches: usize,
    spill: Option<SpillDir>,
    /// Auto-created spill dir to remove on finish.
    cleanup_dir: Option<PathBuf>,
    budget: SpillBudget,
    gen_infer: Duration,
    recomputes: u64,
    store_errors: Vec<SealError>,
}

impl ScaleRun {
    /// Phase A: streams the corpus once — inferring and dropping patches,
    /// compiling and (under budget) spilling driver chunks.
    pub fn prepare(opts: ScaleOptions) -> Result<ScaleRun, SealError> {
        let t0 = Instant::now();
        let jobs = seal_runtime::effective_jobs(opts.jobs.max(1));
        let budget = SpillBudget::from_mb(opts.max_rss_mb);
        let (spill, cleanup_dir) = if budget.is_bounded() {
            match &opts.spill_dir {
                Some(dir) => (Some(SpillDir::create(dir)?), None),
                None => {
                    let dir = std::env::temp_dir().join(format!(
                        "seal-scale-{}-{:x}",
                        std::process::id(),
                        opts.config.seed
                    ));
                    (Some(SpillDir::create(&dir)?), Some(dir))
                }
            }
        } else {
            (None, None)
        };

        let mut stream = CorpusStream::new(&opts.config);
        let prelude = stream.prelude().to_string();
        let prelude_newlines = prelude.matches('\n').count();
        let mut run = ScaleRun {
            jobs,
            seal: Seal::default(),
            prelude,
            prelude_newlines,
            chunks: Vec::new(),
            segs: Vec::new(),
            ground_truth: Vec::new(),
            drivers: 0,
            patches: 0,
            spill,
            cleanup_dir,
            budget,
            gen_infer: Duration::ZERO,
            recomputes: 0,
            store_errors: Vec::new(),
            opts,
        };

        // The streaming fold: chunk text + a patch batch are the only
        // corpus state held between items.
        let mut newlines = prelude_newlines;
        let mut chunk_text = String::new();
        let mut chunk_start_newlines = prelude_newlines;
        let mut chunk_first_driver = 0usize;
        let mut chunk_count = 0usize;
        let mut batch: Vec<seal_core::Patch> = Vec::new();
        let mut batch_first_patch = 0usize;

        for item in &mut stream {
            match item {
                StreamItem::Driver(d) => {
                    if chunk_count == 0 {
                        chunk_start_newlines = newlines;
                        chunk_first_driver = d.index;
                    }
                    newlines += d.source.matches('\n').count() + 1;
                    chunk_text.push_str(&d.source);
                    chunk_text.push('\n');
                    chunk_count += 1;
                    self_extend(&mut run.ground_truth, d.bug);
                    run.drivers += 1;
                    if chunk_count == run.opts.chunk_drivers.max(1) {
                        run.seal_chunk(
                            chunk_start_newlines,
                            chunk_first_driver..chunk_first_driver + chunk_count,
                            &mut chunk_text,
                        )?;
                        chunk_count = 0;
                    }
                }
                StreamItem::Patch(p) => {
                    if batch.is_empty() {
                        batch_first_patch = p.index;
                    }
                    batch.push(p.patch);
                    run.patches += 1;
                    if batch.len() == run.opts.patch_batch.max(1) {
                        run.flush_batch(batch_first_patch, &mut batch)?;
                    }
                }
            }
        }
        if chunk_count > 0 {
            run.seal_chunk(
                chunk_start_newlines,
                chunk_first_driver..chunk_first_driver + chunk_count,
                &mut chunk_text,
            )?;
        }
        if !batch.is_empty() {
            run.flush_batch(batch_first_patch, &mut batch)?;
        }
        run.gen_infer = t0.elapsed();
        Ok(run)
    }

    /// The spill directory in use, if any.
    pub fn spill_path(&self) -> Option<&Path> {
        self.spill.as_ref().map(|s| s.path())
    }

    /// Compiles the accumulated chunk and stores it in memory or on disk.
    fn seal_chunk(
        &mut self,
        start_newlines: usize,
        drivers: Range<usize>,
        text: &mut String,
    ) -> Result<(), SealError> {
        let module = compile_chunk(&self.prelude, self.prelude_newlines, start_newlines, text);
        text.clear();
        let slot = match (&mut self.spill, self.budget.should_spill()) {
            (Some(spill), true) => {
                ModuleSlot::Disk(spill.spill_module(&format!("chunk-{}", drivers.start), &module)?)
            }
            _ => ModuleSlot::Mem(Box::new(module)),
        };
        self.chunks.push(Chunk {
            start_newlines,
            drivers,
            slot,
        });
        self.enforce_budget()?;
        Ok(())
    }

    /// Infers the accumulated patch batch and stores the spec segment.
    fn flush_batch(
        &mut self,
        first_patch: usize,
        batch: &mut Vec<seal_core::Patch>,
    ) -> Result<(), SealError> {
        let specs = infer_batch_ordered(&self.seal, self.jobs, batch)?;
        let range = first_patch..first_patch + batch.len();
        batch.clear();
        let slot = match (&mut self.spill, self.budget.should_spill()) {
            (Some(spill), true) => {
                SpecSlot::Disk(spill.spill_specs(&format!("specs-{first_patch}"), &specs)?)
            }
            _ => SpecSlot::Mem(specs),
        };
        self.segs.push(SpecSeg {
            patches: range,
            slot,
        });
        self.enforce_budget()?;
        Ok(())
    }

    /// While the budget is under pressure, pushes the oldest resident
    /// chunks/segments out to disk (oldest first: detection reloads in
    /// order, so the newest resident data is the next to be useful).
    fn enforce_budget(&mut self) -> Result<(), SealError> {
        let Some(mut spill) = self.spill.take() else {
            return Ok(());
        };
        for c in &mut self.chunks {
            if !self.budget.should_spill() {
                break;
            }
            if let ModuleSlot::Mem(m) = &c.slot {
                c.slot =
                    ModuleSlot::Disk(spill.spill_module(&format!("chunk-{}", c.drivers.start), m)?);
            }
        }
        for s in &mut self.segs {
            if !self.budget.should_spill() {
                break;
            }
            if let SpecSlot::Mem(v) = &s.slot {
                s.slot =
                    SpecSlot::Disk(spill.spill_specs(&format!("specs-{}", s.patches.start), v)?);
            }
        }
        self.spill = Some(spill);
        Ok(())
    }

    /// Phase B: reloads spec segments and chunks sequentially, detects per
    /// chunk, merges into whole-module report order, and scores.
    pub fn finish(mut self) -> Result<ScaleOutcome, SealError> {
        let t0 = Instant::now();
        let cfg = scale_detect_config();

        // Reload the full spec list (small next to any module chunk).
        let mut specs: Vec<Specification> = Vec::new();
        let segs = std::mem::take(&mut self.segs);
        for seg in segs {
            match seg.slot {
                SpecSlot::Mem(v) => specs.extend(v),
                SpecSlot::Disk(h) => {
                    let loaded = self.spill.as_ref().expect("disk slot implies spill");
                    match loaded.load_specs(&h) {
                        Ok(v) => specs.extend(v),
                        Err(e) => {
                            self.store_errors.push(e);
                            self.recomputes += 1;
                            specs.extend(regen_specs(
                                &self.opts.config,
                                seg.patches.clone(),
                                self.jobs,
                                &self.seal,
                            )?);
                        }
                    }
                }
            }
        }

        // Sequential chunk reload + detection. Merging must restore the
        // whole-module report order, which is (spec index, region order),
        // where per-spec region order depends on the spec kind: interface
        // specs enumerate implementations through the module's bindings —
        // sorted by function name in `seal_ir::lower` — while API specs
        // walk a `FuncId` set, i.e. definition order, which is chunk-major
        // by construction. The sort key below encodes both: the function
        // name dominates for interface specs; `(chunk, position)` breaks
        // the (constant-key) tie for API specs.
        let mut spec_index: HashMap<&Specification, usize> = HashMap::new();
        for (i, s) in specs.iter().enumerate() {
            spec_index.entry(s).or_insert(i);
        }
        let mut merged: Vec<(usize, Option<String>, usize, usize, BugReport)> = Vec::new();
        let mut stats = DetectStats::default();
        let chunks = std::mem::take(&mut self.chunks);
        let n_chunks = chunks.len();
        for (ci, chunk) in chunks.into_iter().enumerate() {
            let module = match chunk.slot {
                ModuleSlot::Mem(m) => *m,
                ModuleSlot::Disk(h) => {
                    let spill = self.spill.as_ref().expect("disk slot implies spill");
                    match spill.load_module(&h) {
                        Ok(m) => m,
                        Err(e) => {
                            self.store_errors.push(e);
                            self.recomputes += 1;
                            seal_obs::metrics::counter_add_nd("spill.recomputes", 1);
                            regen_chunk_module(
                                &self.opts.config,
                                &self.prelude,
                                self.prelude_newlines,
                                chunk.start_newlines,
                                chunk.drivers.clone(),
                            )
                        }
                    }
                }
            };
            let (reports, s) = detect_bugs_with_stats_jobs_cached(
                &module,
                &specs,
                &cfg,
                self.jobs,
                &AnalysisCache::disabled(),
            );
            for (pos, r) in reports.into_iter().enumerate() {
                let si = spec_index.get(&r.spec).copied().unwrap_or(usize::MAX);
                let name_key = r.spec.interface.is_some().then(|| r.function.clone());
                merged.push((si, name_key, ci, pos, r));
            }
            add_stats(&mut stats, &s);
        }
        merged.sort_by(|a, b| (a.0, &a.1, a.2, a.3).cmp(&(b.0, &b.1, b.2, b.3)));
        let reports: Vec<BugReport> = merged.into_iter().map(|(_, _, _, _, r)| r).collect();

        let spill_stats = self.spill.as_ref().map(|s| s.stats()).unwrap_or_default();
        if let Some(dir) = &self.cleanup_dir {
            std::fs::remove_dir_all(dir).ok();
        }
        let outcome = ScaleOutcome {
            score: score(&reports, &self.ground_truth),
            stats,
            drivers: self.drivers,
            patches: self.patches,
            specs: specs.len(),
            chunks: n_chunks,
            spill: SpillSummary {
                writes: spill_stats.writes,
                reads: spill_stats.reads,
                bytes_written: spill_stats.bytes_written,
                bytes_read: spill_stats.bytes_read,
                recomputes: self.recomputes,
            },
            store_errors: std::mem::take(&mut self.store_errors),
            gen_infer: self.gen_infer,
            detect: t0.elapsed(),
            reports,
        };
        Ok(outcome)
    }
}

/// Runs one scale-tier configuration end to end.
pub fn run(opts: ScaleOptions) -> Result<ScaleOutcome, SealError> {
    if opts.streamed {
        ScaleRun::prepare(opts)?.finish()
    } else {
        run_materialized(opts)
    }
}

/// The reference path: materialize everything, compile one TU, detect
/// once. Same spec order, same detect config — the streamed path must
/// reproduce its reports byte for byte.
fn run_materialized(opts: ScaleOptions) -> Result<ScaleOutcome, SealError> {
    let jobs = seal_runtime::effective_jobs(opts.jobs.max(1));
    let seal = Seal::default();
    let t0 = Instant::now();
    let corpus = generate(&opts.config);
    let target = corpus.target_module();
    let specs = infer_batch_ordered(&seal, jobs, &corpus.patches)?;
    let gen_infer = t0.elapsed();

    let t1 = Instant::now();
    let (reports, stats) = detect_bugs_with_stats_jobs_cached(
        &target,
        &specs,
        &scale_detect_config(),
        jobs,
        &AnalysisCache::disabled(),
    );
    Ok(ScaleOutcome {
        score: score(&reports, &corpus.ground_truth),
        stats,
        drivers: seal_corpus::stream::total_drivers(&opts.config),
        patches: corpus.patches.len(),
        specs: specs.len(),
        chunks: 1,
        spill: SpillSummary::default(),
        store_errors: Vec::new(),
        gen_infer,
        detect: t1.elapsed(),
        reports,
    })
}

/// Builds a chunk's translation unit with blank-line padding so every
/// function keeps its single-TU line/column, then compiles and lowers it.
fn compile_chunk(
    prelude: &str,
    prelude_newlines: usize,
    start_newlines: usize,
    text: &str,
) -> seal_ir::Module {
    let pad = start_newlines - prelude_newlines;
    let mut src = String::with_capacity(prelude.len() + pad + text.len());
    src.push_str(prelude);
    for _ in 0..pad {
        src.push('\n');
    }
    src.push_str(text);
    let tu = seal_kir::compile(&src, "kernel.c").expect("generated kernel chunk must compile");
    seal_ir::lower(&tu)
}

/// Infers a patch batch in parallel through [`seal_core::infer_batch`],
/// concatenating in patch order (so the merged spec list is
/// byte-identical to a sequential run). The first failed patch fails the
/// batch.
fn infer_batch_ordered(
    seal: &Seal,
    jobs: usize,
    batch: &[seal_core::Patch],
) -> Result<Vec<Specification>, SealError> {
    let mut specs = Vec::new();
    for s in seal_core::infer_batch(seal, batch, jobs) {
        specs.extend(s?);
    }
    Ok(specs)
}

/// Regenerates one chunk's module from the corpus seed (the degradation
/// path for a corrupt spill file: the stream is deterministic, so the
/// recomputed chunk is byte-identical to the lost one).
fn regen_chunk_module(
    config: &CorpusConfig,
    prelude: &str,
    prelude_newlines: usize,
    start_newlines: usize,
    drivers: Range<usize>,
) -> seal_ir::Module {
    let mut text = String::new();
    for item in CorpusStream::new(config) {
        if let StreamItem::Driver(d) = item {
            if d.index >= drivers.end {
                break;
            }
            if d.index >= drivers.start {
                text.push_str(&d.source);
                text.push('\n');
            }
        }
    }
    compile_chunk(prelude, prelude_newlines, start_newlines, &text)
}

/// Regenerates one spec segment by re-streaming and re-inferring its
/// patches (degradation path for a corrupt spec spill file).
fn regen_specs(
    config: &CorpusConfig,
    patches: Range<usize>,
    jobs: usize,
    seal: &Seal,
) -> Result<Vec<Specification>, SealError> {
    seal_obs::metrics::counter_add_nd("spill.recomputes", 1);
    let mut batch = Vec::new();
    for item in CorpusStream::new(config) {
        if let StreamItem::Patch(p) = item {
            if p.index >= patches.end {
                break;
            }
            if p.index >= patches.start {
                batch.push(p.patch);
            }
        }
    }
    infer_batch_ordered(seal, jobs, &batch)
}

fn add_stats(acc: &mut DetectStats, s: &DetectStats) {
    acc.pdg_time += s.pdg_time;
    acc.search_time += s.search_time;
    acc.regions += s.regions;
    acc.skipped += s.skipped;
    acc.solver_queries += s.solver_queries;
    acc.solver_cache_hits += s.solver_cache_hits;
    acc.subtrees_pruned += s.subtrees_pruned;
    acc.sources_skipped_unreachable += s.sources_skipped_unreachable;
}

fn self_extend(v: &mut Vec<SeededBug>, bug: Option<SeededBug>) {
    v.extend(bug);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(streamed: bool) -> ScaleOptions {
        ScaleOptions {
            config: CorpusConfig {
                seed: 0x5EA1,
                drivers_per_template: 6,
                bug_rate: 0.18,
                patches_per_template: 2,
                refactor_patches: 4,
                scale: 1,
            },
            jobs: 2,
            streamed,
            chunk_drivers: 16,
            patch_batch: 8,
            max_rss_mb: None,
            spill_dir: None,
        }
    }

    #[test]
    fn streamed_matches_materialized_reports() {
        let a = run(tiny(true)).unwrap();
        let b = run(tiny(false)).unwrap();
        assert!(a.chunks > 1, "chunking must actually engage");
        assert_eq!(render_reports(&a.reports), render_reports(&b.reports));
        assert_eq!(a.stats.regions, b.stats.regions);
        assert_eq!(a.specs, b.specs);
        assert!(a.reports.len() > 5, "tiny corpus still finds bugs");
    }

    #[test]
    fn forced_spill_round_trips_and_matches() {
        let mut opts = tiny(true);
        opts.max_rss_mb = Some(0); // always spill
        let spilled = run(opts).unwrap();
        assert!(
            spilled.spill.writes > 0,
            "no spill writes under zero budget"
        );
        assert!(spilled.spill.reads > 0, "nothing reloaded from spill");
        assert!(spilled.store_errors.is_empty());
        let plain = run(tiny(true)).unwrap();
        assert_eq!(
            render_reports(&spilled.reports),
            render_reports(&plain.reports)
        );
    }
}
