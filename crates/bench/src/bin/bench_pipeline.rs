//! Hand-rolled pipeline benchmark (replaces the former criterion bench).
//!
//! Times the pipeline phases — specification inference, PDG construction,
//! path search, and total detection — over warmup + measured iterations
//! across a workers × corpus-size matrix (jobs ∈ {1, 2, 4, 8} at 1x and 4x
//! corpus scale), verifies that specs, reports, and scores are
//! byte-identical across worker counts, and writes `BENCH_pipeline.json`.
//!
//! Each worker count reports `speedup_vs_1worker` — thread scaling
//! (bounded by the CPUs of the machine, recorded in `cpus`).
//!
//! Iteration counts come from `SEAL_BENCH_WARMUP` / `SEAL_BENCH_ITERS`
//! (defaults 1 and 5). Within each corpus scale the worker counts are
//! measured interleaved, round-robin per iteration, so machine-load
//! drift cannot skew one cell's median against another's.
//!
//! A `serve` section compares the solo CLI against the `seal serve`
//! daemon on a per-patch hunt workload: N cold CLI spawns, the same
//! batch as the daemon's first request, then warm re-requests with 10%
//! of the patch files mutated each round. The daemon's outputs must be
//! byte-identical to the CLI's, and the warm median must beat the cold
//! CLI by at least 5x.

use seal_bench::{eval_config, run_parts, run_pipeline, PipelineParts, PipelineResult};
use seal_core::AnalysisCache;
use seal_corpus::CorpusConfig;
use seal_spec::parse::to_line;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// The eval corpus scaled up: `scale`× the drivers (and with them the
/// detection regions), so the matrix exercises both the per-item and the
/// per-shard cost paths.
fn scaled_config(scale: usize) -> CorpusConfig {
    let base = eval_config();
    CorpusConfig {
        drivers_per_template: base.drivers_per_template * scale,
        ..base
    }
}

/// CPUs visible to this process *right now*. Queried at measurement time
/// (not once at startup) so every matrix row records the parallelism that
/// actually applied to it.
fn cpus_now() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Millisecond samples for one pipeline configuration.
#[derive(Default)]
struct Samples {
    total: Vec<f64>,
    infer: Vec<f64>,
    pdg: Vec<f64>,
    search: Vec<f64>,
    detect: Vec<f64>,
}

fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    s[s.len() / 2]
}

/// Minimum sample: the low-noise estimator. Timing noise on a shared
/// host is strictly additive, so the min is the closest observation to
/// the true cost and is what the scaling ratios (and the CI gate) use;
/// median/p90 stay in the report for distribution shape.
fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn p90(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((s.len() as f64) * 0.9).ceil() as usize;
    s[idx.saturating_sub(1).min(s.len() - 1)]
}

/// Canonical rendering of everything the pipeline outputs; equal strings
/// mean a byte-identical run.
fn fingerprint(r: &PipelineResult) -> String {
    fingerprint_parts(&PipelineParts {
        specs: r.specs.clone(),
        per_patch_specs: r.per_patch_specs.clone(),
        reports: r.reports.clone(),
        score: r.score.clone(),
        infer_time: r.infer_time,
        detect_time: r.detect_time,
        detect_stats: r.detect_stats,
    })
}

fn fingerprint_parts(r: &PipelineParts) -> String {
    let mut out = String::new();
    for s in &r.specs {
        out.push_str(&to_line(s));
        out.push('\n');
    }
    for (id, n) in &r.per_patch_specs {
        let _ = writeln!(out, "{id}\t{n}");
    }
    for rep in &r.reports {
        let _ = writeln!(out, "{rep}");
    }
    let _ = writeln!(out, "{:?}", r.score);
    let _ = writeln!(
        out,
        "regions={} skipped={}",
        r.detect_stats.regions, r.detect_stats.skipped
    );
    // Search-phase counters are part of the determinism contract too:
    // pruning and memoization must behave identically for any job count.
    let _ = writeln!(
        out,
        "solver_queries={} solver_cache_hits={} subtrees_pruned={} sources_skipped_unreachable={}",
        r.detect_stats.solver_queries,
        r.detect_stats.solver_cache_hits,
        r.detect_stats.subtrees_pruned,
        r.detect_stats.sources_skipped_unreachable,
    );
    out
}

/// One matrix cell: samples, output fingerprint, and the parallelism that
/// was actually available while the cell was measured.
struct Cell {
    samples: Samples,
    fingerprint: String,
    cpus: usize,
}

/// Measures every worker count over one corpus configuration with the
/// iterations *interleaved* round-robin across the worker counts: sample
/// `i` of every cell runs back to back, so slow machine-load drift hits
/// all cells alike instead of skewing whichever cell ran last. Cells come
/// back in `worker_counts` order.
fn measure_row(
    config: &CorpusConfig,
    worker_counts: &[usize],
    warmup: usize,
    iters: usize,
) -> Vec<(usize, Cell)> {
    let cpus = cpus_now();
    for _ in 0..warmup {
        let _ = run_pipeline(config, worker_counts[0]);
    }
    let mut cells: Vec<(usize, Cell)> = worker_counts
        .iter()
        .map(|&jobs| {
            (
                jobs,
                Cell {
                    samples: Samples::default(),
                    fingerprint: String::new(),
                    cpus,
                },
            )
        })
        .collect();
    for i in 0..iters {
        for (jobs, cell) in &mut cells {
            let t0 = Instant::now();
            let r = run_pipeline(config, *jobs);
            let s = &mut cell.samples;
            s.total.push(t0.elapsed().as_secs_f64() * 1e3);
            s.infer.push(r.infer_time.as_secs_f64() * 1e3);
            s.pdg.push(r.detect_stats.pdg_time.as_secs_f64() * 1e3);
            s.search
                .push(r.detect_stats.search_time.as_secs_f64() * 1e3);
            s.detect.push(r.detect_time.as_secs_f64() * 1e3);
            if i == 0 {
                cell.fingerprint = fingerprint(&r);
            }
        }
    }
    cells
}

/// One row of the incremental-cache benchmark: the store mode it ran in,
/// the analysis time samples (inference + detection, excluding corpus
/// generation, which is cache-independent), and the store's session
/// counters from the first sample.
struct CacheRow {
    row: &'static str,
    mode: &'static str,
    analysis_ms: Vec<f64>,
    hits: u64,
    misses: u64,
    bytes_read: u64,
    invalidations: u64,
    hit_rate: f64,
    extra: String,
}

impl CacheRow {
    fn json(&self, cold_median: f64) -> String {
        let stat = format!(
            "{{\"min\":{},\"median\":{},\"p90\":{}}}",
            num(min(&self.analysis_ms)),
            num(median(&self.analysis_ms)),
            num(p90(&self.analysis_ms))
        );
        let speedup = if self.row == "cold" {
            String::new()
        } else {
            format!(
                ",\"speedup_vs_cold\":{:.3}",
                cold_median / median(&self.analysis_ms)
            )
        };
        format!(
            "{{\"row\":\"{}\",\"mode\":\"{}\",\"analysis_ms\":{stat},\
             \"hits\":{},\"misses\":{},\"hit_rate\":{:.3},\
             \"bytes_read\":{},\"invalidations\":{}{speedup}{}}}",
            self.row,
            self.mode,
            self.hits,
            self.misses,
            self.hit_rate,
            self.bytes_read,
            self.invalidations,
            self.extra,
        )
    }
}

/// Simulates a 10% edit to the target: every tenth function's definition
/// span moves (what a real edit higher up in the file does to everything
/// below it). The positional body hash of exactly those functions changes,
/// so only shards whose scope contains one of them should miss.
fn mutate_tenth_of_functions(m: &mut seal_ir::Module) -> usize {
    let mut mutated = 0;
    for (i, f) in m.functions.iter_mut().enumerate() {
        if i % 10 == 0 {
            f.span.line += 977;
            mutated += 1;
        }
    }
    mutated
}

/// Semantically mutates every tenth patch: both versions gain one (unused,
/// identical) helper function, so the patch's diff — and its specs — are
/// unchanged, but its raw and semantic cache keys both move and the patch
/// re-infers from scratch.
fn mutate_tenth_of_patches(patches: &mut [seal_core::Patch]) -> usize {
    let mut mutated = 0;
    for (i, p) in patches.iter_mut().enumerate() {
        if i % 10 == 0 {
            let pad = "\nint seal_bench_mut_pad(int x) { return x + 1; }\n";
            p.pre.push_str(pad);
            p.post.push_str(pad);
            mutated += 1;
        }
    }
    mutated
}

/// Measures the incremental cache: cold (fresh rw store per sample), warm
/// (read-only over a populated store), and a 10%-mutated corpus over the
/// same populated store. Returns the JSON section plus the equivalence and
/// warm-speedup verdicts.
fn measure_cache(iters: usize) -> (String, bool, f64) {
    let config = eval_config();
    let corpus = seal_corpus::generate(&config);
    let target = corpus.target_module();
    let disabled = AnalysisCache::disabled();

    // Uncached reference (doubles as warmup).
    let base = run_parts(&corpus, &target, 1, &disabled);
    let fp_base = fingerprint_parts(&base);

    let tmp = std::env::temp_dir().join(format!("seal-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("cannot create cache bench dir");
    let cold_dir = tmp.join("cold");
    let warm_dir = tmp.join("warm");

    let mut identical = true;
    let run_cached = |dir: &std::path::Path,
                      mode: seal_store::CacheMode,
                      corpus: &seal_corpus::Corpus,
                      target: &seal_ir::Module|
     -> (f64, PipelineParts, AnalysisCache) {
        let cache = AnalysisCache::open(dir, mode).expect("cannot open bench cache");
        let t0 = Instant::now();
        let r = run_parts(corpus, target, 1, &cache);
        cache.flush().expect("cannot flush bench cache");
        (t0.elapsed().as_secs_f64() * 1e3, r, cache)
    };

    // Cold: every sample starts from an empty store in rw mode (flush
    // included in the sample — writing the store is part of the cold cost).
    let mut cold = CacheRow {
        row: "cold",
        mode: "rw",
        analysis_ms: Vec::new(),
        hits: 0,
        misses: 0,
        bytes_read: 0,
        invalidations: 0,
        hit_rate: 0.0,
        extra: String::new(),
    };
    for i in 0..iters {
        let _ = std::fs::remove_dir_all(&cold_dir);
        std::fs::create_dir_all(&cold_dir).expect("cannot create cold dir");
        let (ms, r, cache) = run_cached(
            &cold_dir,
            seal_store::CacheMode::ReadWrite,
            &corpus,
            &target,
        );
        cold.analysis_ms.push(ms);
        identical &= fingerprint_parts(&r) == fp_base;
        if i == 0 {
            let s = cache.stats();
            cold.hits = s.hits;
            cold.misses = s.misses;
            cold.bytes_read = s.bytes_read;
            cold.invalidations = s.invalidations;
            cold.hit_rate = s.hit_rate();
        }
    }

    // Populate the warm store once.
    std::fs::create_dir_all(&warm_dir).expect("cannot create warm dir");
    let _ = run_cached(
        &warm_dir,
        seal_store::CacheMode::ReadWrite,
        &corpus,
        &target,
    );

    // Warm: read-only over the populated store; everything replays.
    let mut warm = CacheRow {
        row: "warm",
        mode: "ro",
        ..warm_row_default()
    };
    for i in 0..iters {
        let (ms, r, cache) =
            run_cached(&warm_dir, seal_store::CacheMode::ReadOnly, &corpus, &target);
        warm.analysis_ms.push(ms);
        identical &= fingerprint_parts(&r) == fp_base;
        if i == 0 {
            let s = cache.stats();
            warm.hits = s.hits;
            warm.misses = s.misses;
            warm.bytes_read = s.bytes_read;
            warm.invalidations = s.invalidations;
            warm.hit_rate = s.hit_rate();
        }
    }

    // 10%-mutated corpus over the same populated store: misses should be
    // proportional to the edit set (only shards touching a mutated
    // function, only mutated patches), not a full recompute.
    let mut mut_corpus = corpus;
    let mutated_patches = mutate_tenth_of_patches(&mut mut_corpus.patches);
    let mut mut_target = target;
    let mutated_functions = mutate_tenth_of_functions(&mut mut_target);
    let total_functions = mut_target.functions.len();
    let fp_mut = fingerprint_parts(&run_parts(&mut_corpus, &mut_target, 1, &disabled));
    let mut mutated = CacheRow {
        row: "mutated_10pct",
        mode: "ro",
        ..warm_row_default()
    };
    mutated.extra = format!(
        ",\"mutated_functions\":{mutated_functions},\"total_functions\":{total_functions},\
         \"mutated_patches\":{mutated_patches},\"total_patches\":{}",
        mut_corpus.patches.len()
    );
    for i in 0..iters {
        let (ms, r, cache) = run_cached(
            &warm_dir,
            seal_store::CacheMode::ReadOnly,
            &mut_corpus,
            &mut_target,
        );
        mutated.analysis_ms.push(ms);
        identical &= fingerprint_parts(&r) == fp_mut;
        if i == 0 {
            let s = cache.stats();
            mutated.hits = s.hits;
            mutated.misses = s.misses;
            mutated.bytes_read = s.bytes_read;
            mutated.invalidations = s.invalidations;
            mutated.hit_rate = s.hit_rate();
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);

    assert!(
        identical,
        "cached pipeline output differs from the uncached run — cache equivalence broken"
    );
    // Proportionality: the mutated run must sit strictly between the warm
    // and cold extremes — some misses (the edit set), mostly hits.
    assert!(
        mutated.misses > 0,
        "mutated corpus produced no cache misses"
    );
    assert!(mutated.hits > 0, "mutated corpus produced no cache hits");
    assert!(
        mutated.misses < cold.misses,
        "mutated corpus re-computed everything (misses {} vs cold {})",
        mutated.misses,
        cold.misses
    );

    let cold_median = median(&cold.analysis_ms);
    let warm_speedup = cold_median / median(&warm.analysis_ms);
    let rows = [&cold, &warm, &mutated]
        .iter()
        .map(|r| r.json(cold_median))
        .collect::<Vec<_>>()
        .join(",\n      ");
    let section = format!(
        "{{\n    \"jobs\": 1,\n    \"corpus\": \"1x\",\n    \"rows\": [\n      {rows}\n    ],\n    \
         \"identical_reports_cold_warm_uncached\": {identical},\n    \
         \"warm_speedup_vs_cold_median\": {:.3}\n  }}",
        warm_speedup
    );
    (section, identical, warm_speedup)
}

/// One `seal serve` benchmark row: per-item latency samples plus the
/// daemon-side counters captured right after the row was measured.
struct ServeRow {
    row: &'static str,
    per_item_ms: Vec<f64>,
    /// Daemon-only fields (absent on the `cold_cli` row).
    daemon: Option<ServeDaemonStats>,
}

struct ServeDaemonStats {
    rss_peak_kb: u64,
    warm_hits: u64,
    warm_hit_rate: f64,
    evictions: u64,
}

impl ServeRow {
    fn json(&self) -> String {
        let s = &self.per_item_ms;
        let mut out = format!(
            "{{\"row\":\"{}\",\"per_item_ms\":{{\"min\":{},\"median\":{},\"p90\":{}}},\
             \"items_per_sec\":{:.2}",
            self.row,
            num(min(s)),
            num(median(s)),
            num(p90(s)),
            1e3 / median(s),
        );
        if let Some(d) = &self.daemon {
            out.push_str(&format!(
                ",\"rss_peak_kb\":{},\"warm_hits\":{},\"warm_hit_rate\":{:.3},\
                 \"evictions\":{}",
                d.rss_peak_kb, d.warm_hits, d.warm_hit_rate, d.evictions
            ));
        }
        out.push('}');
        out
    }
}

/// Reads one JSONL response line from the daemon.
fn serve_read_line(stdout: &mut impl std::io::BufRead) -> seal::json::Json {
    let mut buf = String::new();
    let n = stdout.read_line(&mut buf).expect("daemon stdout read");
    assert!(n > 0, "daemon closed its stdout early");
    seal::json::Json::parse(buf.trim_end())
        .unwrap_or_else(|e| panic!("bad daemon response `{buf}`: {e}"))
}

fn serve_num(v: &seal::json::Json, key: &str) -> f64 {
    v.get(key)
        .and_then(seal::json::Json::as_num)
        .unwrap_or_else(|| panic!("missing number `{key}` in daemon stats"))
}

/// Measures `seal serve` against the solo CLI over a per-patch hunt
/// workload: N cold CLI spawns, then the same N items as one batch on a
/// fresh daemon (first request), then re-requests with 10% of the patch
/// files mutated each round (append-only pads, so the diffs — and the
/// outputs — are unchanged). Returns the JSON section, the output-identity
/// verdict, and the warm speedup over the cold CLI.
fn measure_serve(iters: usize) -> Option<(String, bool, f64)> {
    use seal::json::{escape, Json};
    use std::io::{BufReader, Write as _};
    use std::process::{Command, Stdio};

    let seal_bin = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("seal")))?;
    if !seal_bin.exists() {
        eprintln!(
            "bench_pipeline: skipping serve section ({} not built)",
            seal_bin.display()
        );
        return None;
    }

    // Materialize the eval corpus as the file tree the CLI consumes.
    let corpus = seal_corpus::generate(&eval_config());
    let tmp = std::env::temp_dir().join(format!("seal-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("cannot create serve bench dir");
    let tree = seal_corpus::files::write_to_dir(&corpus, &tmp).expect("cannot write corpus tree");
    let target = tree.kernel_files[0].clone();
    let items: Vec<(PathBuf, PathBuf)> = tree
        .patch_files
        .iter()
        .take(10)
        .map(|(_, pre, post)| (pre.clone(), post.clone()))
        .collect();
    let n = items.len();
    assert!(n >= 2, "corpus too small for the serve benchmark");

    // Cold CLI: one full process per item — startup, target compile, and
    // detection all paid from scratch every time.
    let mut cold = ServeRow {
        row: "cold_cli",
        per_item_ms: Vec::new(),
        daemon: None,
    };
    let mut cli_outputs: Vec<String> = Vec::new();
    for (pre, post) in &items {
        let t0 = Instant::now();
        let out = Command::new(&seal_bin)
            .arg("hunt")
            .arg("--pre")
            .arg(pre)
            .arg("--post")
            .arg(post)
            .arg("--target")
            .arg(&target)
            .args(["--jobs", "1"])
            .env_remove("SEAL_CACHE_DIR")
            .output()
            .expect("cannot spawn solo seal hunt");
        cold.per_item_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        assert!(
            out.status.success(),
            "solo hunt failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        cli_outputs.push(String::from_utf8(out.stdout).expect("non-utf8 hunt output"));
    }

    // The daemon, on stdin/stdout with one worker (matching the CLI runs).
    let mut child = Command::new(&seal_bin)
        .args(["serve", "--jobs", "1"])
        .env_remove("SEAL_CACHE_DIR")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("cannot spawn seal serve");
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    // Ping first so daemon startup is not billed to the first request.
    writeln!(stdin, "{{\"cmd\":\"ping\"}}").unwrap();
    let _ = serve_read_line(&mut stdout);

    let batch_line = |items: &[(PathBuf, PathBuf)]| {
        let body: Vec<String> = items
            .iter()
            .map(|(pre, post)| {
                format!(
                    "{{\"cmd\":\"hunt\",\"pre\":\"{}\",\"post\":\"{}\",\"target\":\"{}\"}}",
                    escape(&pre.display().to_string()),
                    escape(&post.display().to_string()),
                    escape(&target.display().to_string()),
                )
            })
            .collect();
        format!("{{\"cmd\":\"batch\",\"items\":[{}]}}", body.join(","))
    };
    let mut identical = true;
    let run_batch = |stdin: &mut std::process::ChildStdin,
                     stdout: &mut BufReader<std::process::ChildStdout>,
                     identical: &mut bool|
     -> f64 {
        let t0 = Instant::now();
        writeln!(stdin, "{}", batch_line(&items)).unwrap();
        stdin.flush().unwrap();
        for reference in &cli_outputs {
            let r = serve_read_line(stdout);
            *identical &= r.get("ok") == Some(&Json::Bool(true))
                && r.get("output").and_then(Json::as_str) == Some(reference.as_str());
        }
        t0.elapsed().as_secs_f64() * 1e3 / n as f64
    };
    let stats = |stdin: &mut std::process::ChildStdin,
                 stdout: &mut BufReader<std::process::ChildStdout>|
     -> ServeDaemonStats {
        writeln!(stdin, "{{\"cmd\":\"stats\"}}").unwrap();
        stdin.flush().unwrap();
        let s = serve_read_line(stdout);
        let warm = s.get("warm").expect("daemon stats carry no warm section");
        ServeDaemonStats {
            rss_peak_kb: serve_num(&s, "rss_peak_kb") as u64,
            warm_hits: serve_num(warm, "hits") as u64,
            warm_hit_rate: serve_num(warm, "hits")
                / (serve_num(warm, "hits") + serve_num(warm, "misses")).max(1.0),
            evictions: serve_num(warm, "evictions") as u64,
        }
    };

    // First request: the daemon is running but its warm layer is empty.
    let first_ms = run_batch(&mut stdin, &mut stdout, &mut identical);
    let first = ServeRow {
        row: "first_request",
        per_item_ms: vec![first_ms],
        daemon: Some(stats(&mut stdin, &mut stdout)),
    };

    // Warm re-requests: every round appends a fresh (semantics-preserving)
    // pad to every tenth patch pair, so each sample re-infers 10% of the
    // items against a warm target module and snapshot.
    let mut warm = ServeRow {
        row: "warm_mutated_10pct",
        per_item_ms: Vec::new(),
        daemon: None,
    };
    for round in 0..iters.max(3) {
        for (i, (pre, post)) in items.iter().enumerate() {
            if i % 10 == 0 {
                for p in [pre, post] {
                    let mut text = std::fs::read_to_string(p).expect("cannot reread patch");
                    text.push_str(&format!(
                        "\nint seal_bench_mut_pad_{round}(int x) {{ return x + 1; }}\n"
                    ));
                    std::fs::write(p, text).expect("cannot mutate patch");
                }
            }
        }
        warm.per_item_ms
            .push(run_batch(&mut stdin, &mut stdout, &mut identical));
    }
    warm.daemon = Some(stats(&mut stdin, &mut stdout));

    writeln!(stdin, "{{\"cmd\":\"shutdown\"}}").unwrap();
    let _ = serve_read_line(&mut stdout);
    drop(stdin);
    let status = child.wait().expect("daemon did not exit");
    assert!(status.success(), "daemon exited with {status}");
    let _ = std::fs::remove_dir_all(&tmp);

    let warm_speedup = median(&cold.per_item_ms) / median(&warm.per_item_ms);
    let rows = [&cold, &first, &warm]
        .iter()
        .map(|r| r.json())
        .collect::<Vec<_>>()
        .join(",\n      ");
    let section = format!(
        "{{\n    \"items\": {n},\n    \"jobs\": 1,\n    \"rows\": [\n      {rows}\n    ],\n    \
         \"identical_outputs\": {identical},\n    \
         \"warm_speedup_vs_cold_cli\": {warm_speedup:.3}\n  }}"
    );
    Some((section, identical, warm_speedup))
}

/// Measures the concurrent daemon over a Unix socket: 1/4/8 simultaneous
/// clients each issuing the per-patch hunt workload as individual
/// requests against one pre-warmed daemon. Reports per-client p90 item
/// latency, aggregate items/sec (the scaling signal the gate bounds), and
/// the warm hit rate under contention; verifies every response under
/// contention is byte-identical to the solo CLI. Returns the JSON section
/// and the identity verdict. `None` off unix or when the binary is absent.
#[cfg(unix)]
fn measure_serve_concurrency(iters: usize) -> Option<(String, bool)> {
    use seal::json::{escape, Json};
    use std::io::{BufRead, BufReader, Write as _};
    use std::os::unix::net::UnixStream;
    use std::process::{Command, Stdio};
    use std::sync::atomic::{AtomicBool, Ordering};

    let seal_bin = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("seal")))?;
    if !seal_bin.exists() {
        eprintln!(
            "bench_pipeline: skipping serve_concurrency section ({} not built)",
            seal_bin.display()
        );
        return None;
    }
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let corpus = seal_corpus::generate(&eval_config());
    let tmp = std::env::temp_dir().join(format!("seal-bench-serve-conc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("cannot create serve bench dir");
    let tree = seal_corpus::files::write_to_dir(&corpus, &tmp).expect("cannot write corpus tree");
    let target = tree.kernel_files[0].clone();
    let items: Vec<(PathBuf, PathBuf)> = tree
        .patch_files
        .iter()
        .take(10)
        .map(|(_, pre, post)| (pre.clone(), post.clone()))
        .collect();
    let n = items.len();

    // Solo CLI references, one per item (jobs=1, like the daemon).
    let mut cli_outputs: Vec<String> = Vec::new();
    for (pre, post) in &items {
        let out = Command::new(&seal_bin)
            .arg("hunt")
            .arg("--pre")
            .arg(pre)
            .arg("--post")
            .arg(post)
            .arg("--target")
            .arg(&target)
            .args(["--jobs", "1"])
            .env_remove("SEAL_CACHE_DIR")
            .output()
            .expect("cannot spawn solo seal hunt");
        assert!(out.status.success(), "solo hunt failed");
        cli_outputs.push(String::from_utf8(out.stdout).expect("non-utf8 hunt output"));
    }
    let request_lines: Vec<String> = items
        .iter()
        .map(|(pre, post)| {
            format!(
                "{{\"cmd\":\"hunt\",\"pre\":\"{}\",\"post\":\"{}\",\"target\":\"{}\"}}",
                escape(&pre.display().to_string()),
                escape(&post.display().to_string()),
                escape(&target.display().to_string()),
            )
        })
        .collect();

    let sock = tmp.join("bench.sock");
    let mut child = Command::new(&seal_bin)
        .arg("serve")
        .arg("--listen")
        .arg(&sock)
        .args(["--jobs", "1", "--max-conns", "32"])
        .env_remove("SEAL_CACHE_DIR")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("cannot spawn seal serve --listen");
    let deadline = Instant::now() + std::time::Duration::from_secs(10);
    while UnixStream::connect(&sock).is_err() {
        assert!(Instant::now() < deadline, "daemon never came up");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    let connect = || {
        let stream = UnixStream::connect(&sock).expect("cannot connect to bench daemon");
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    };
    let read_json = |reader: &mut BufReader<UnixStream>| -> Json {
        let mut buf = String::new();
        let n = reader.read_line(&mut buf).expect("daemon socket read");
        assert!(n > 0, "daemon closed the connection early");
        Json::parse(buf.trim_end()).unwrap_or_else(|e| panic!("bad daemon response `{buf}`: {e}"))
    };

    // Warm the daemon once so every row measures the contended warm path,
    // not first-touch compilation.
    {
        let (mut stream, mut reader) = connect();
        for line in &request_lines {
            writeln!(stream, "{line}").unwrap();
            stream.flush().unwrap();
            let _ = read_json(&mut reader);
        }
    }

    let identical = AtomicBool::new(true);
    let rounds = iters.max(3);
    let mut rows = Vec::new();
    for clients in [1usize, 4, 8] {
        let mut per_item_ms: Vec<f64> = Vec::new();
        let mut round_items_per_sec: Vec<f64> = Vec::new();
        for _ in 0..rounds {
            let t0 = Instant::now();
            let samples: Vec<Vec<f64>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..clients)
                    .map(|_| {
                        let (connect, read_json) = (&connect, &read_json);
                        let (request_lines, cli_outputs, identical) =
                            (&request_lines, &cli_outputs, &identical);
                        scope.spawn(move || {
                            let (mut stream, mut reader) = connect();
                            let mut samples = Vec::with_capacity(request_lines.len());
                            for (line, reference) in request_lines.iter().zip(cli_outputs) {
                                let t = Instant::now();
                                writeln!(stream, "{line}").unwrap();
                                stream.flush().unwrap();
                                let r = read_json(&mut reader);
                                samples.push(t.elapsed().as_secs_f64() * 1e3);
                                if r.get("ok") != Some(&Json::Bool(true))
                                    || r.get("output").and_then(Json::as_str)
                                        != Some(reference.as_str())
                                {
                                    identical.store(false, Ordering::Relaxed);
                                }
                            }
                            samples
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let wall = t0.elapsed().as_secs_f64();
            round_items_per_sec.push((clients * n) as f64 / wall);
            per_item_ms.extend(samples.into_iter().flatten());
        }
        // Warm hit rate under this row's contention level.
        let warm_hit_rate = {
            let (mut stream, mut reader) = connect();
            writeln!(stream, "{{\"cmd\":\"stats\"}}").unwrap();
            stream.flush().unwrap();
            let s = read_json(&mut reader);
            let warm = s.get("warm").expect("daemon stats carry no warm section");
            serve_num(warm, "hits") / (serve_num(warm, "hits") + serve_num(warm, "misses")).max(1.0)
        };
        rows.push(format!(
            "{{\"clients\":{clients},\"per_item_ms\":{{\"min\":{},\"median\":{},\"p90\":{}}},\
             \"aggregate_items_per_sec\":{:.2},\"warm_hit_rate\":{warm_hit_rate:.3}}}",
            num(min(&per_item_ms)),
            num(median(&per_item_ms)),
            num(p90(&per_item_ms)),
            median(&round_items_per_sec),
        ));
    }

    {
        let (mut stream, mut reader) = connect();
        writeln!(stream, "{{\"cmd\":\"shutdown\"}}").unwrap();
        stream.flush().unwrap();
        let _ = read_json(&mut reader);
    }
    let status = child.wait().expect("daemon did not exit");
    assert!(status.success(), "daemon exited with {status}");
    let _ = std::fs::remove_dir_all(&tmp);

    let identical = identical.load(Ordering::Relaxed);
    let section = format!(
        "{{\n    \"items\": {n},\n    \"jobs\": 1,\n    \"cpus\": {cpus},\n    \"rows\": [\n      {}\n    ],\n    \
         \"identical_outputs\": {identical}\n  }}",
        rows.join(",\n      ")
    );
    Some((section, identical))
}

#[cfg(not(unix))]
fn measure_serve_concurrency(_iters: usize) -> Option<(String, bool)> {
    None
}

/// Measures the scale tier: the eval corpus at 1x and 10x, streamed
/// (always-spill, `--max-rss-mb 0`) versus materialized, one `seal
/// scale-run` child process per row — peak RSS (VmHWM) is monotonic over
/// a process lifetime, so a shared process could not attribute a peak to
/// a row. Returns the JSON section, the report-identity verdict, and the
/// streamed/materialized peak-RSS ratio at 10x (the gated headline:
/// streaming must cost at most half the materialized peak while the
/// reports stay byte-identical). `None` when the binary is absent.
fn measure_scale() -> Option<(String, bool, f64)> {
    use seal::json::Json;
    use std::process::Command;

    let seal_bin = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("seal")))?;
    if !seal_bin.exists() {
        eprintln!(
            "bench_pipeline: skipping scale section ({} not built)",
            seal_bin.display()
        );
        return None;
    }

    let field = |j: &Json, key: &str| -> f64 {
        j.get(key)
            .and_then(Json::as_num)
            .unwrap_or_else(|| panic!("scale-run summary misses `{key}`"))
    };
    let mut rows: Vec<String> = Vec::new();
    let mut identical = true;
    let mut rss = std::collections::HashMap::new();
    let mut fingerprints = std::collections::HashMap::new();
    for &(scale, mode) in &[
        (1usize, "streamed"),
        (1, "materialized"),
        (10, "streamed"),
        (10, "materialized"),
    ] {
        let mut cmd = Command::new(&seal_bin);
        cmd.args(["scale-run", "--jobs", "4", "--mode", mode])
            .arg("--scale")
            .arg(scale.to_string());
        if mode == "streamed" {
            // Always-spill: the row demonstrates the bounded-memory
            // discipline, not a lucky corpus that fits in the budget.
            cmd.args(["--max-rss-mb", "0"]);
        }
        let out = cmd.output().expect("cannot spawn seal scale-run");
        assert!(
            out.status.success(),
            "scale-run --scale {scale} --mode {mode} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("non-utf8 scale-run output");
        let line = stdout
            .lines()
            .last()
            .expect("scale-run prints a summary line");
        let j = Json::parse(line).unwrap_or_else(|e| panic!("bad scale-run summary: {e}"));
        let fp = j
            .get("fingerprint")
            .and_then(Json::as_str)
            .expect("scale-run summary misses `fingerprint`")
            .to_string();
        identical &= fingerprints.entry(scale).or_insert_with(|| fp.clone()) == &fp;
        if mode == "streamed" {
            assert!(
                field(j.get("spill").expect("spill"), "writes") > 0.0,
                "streamed {scale}x row never spilled under a zero budget"
            );
        }
        rss.insert((scale, mode), field(&j, "rss_peak_kb"));
        rows.push(line.to_string());
    }
    let rss_ratio_10x = rss[&(10, "streamed")] / rss[&(10, "materialized")];
    let section = format!(
        "{{\n    \"jobs\": 4,\n    \"rows\": [\n      {}\n    ],\n    \
         \"identical_reports_streamed_vs_materialized\": {identical},\n    \
         \"streamed_rss_ratio_10x\": {rss_ratio_10x:.3}\n  }}",
        rows.join(",\n      ")
    );
    Some((section, identical, rss_ratio_10x))
}

fn warm_row_default() -> CacheRow {
    CacheRow {
        row: "",
        mode: "",
        analysis_ms: Vec::new(),
        hits: 0,
        misses: 0,
        bytes_read: 0,
        invalidations: 0,
        hit_rate: 0.0,
        extra: String::new(),
    }
}

/// Minimal JSON emitter (numbers rounded to 0.01 ms).
fn num(x: f64) -> String {
    format!("{:.2}", x)
}

/// Per-stage metrics block from one instrumented run, so a regression in
/// the medians above is attributable to a stage instead of end-to-end.
fn metrics_json(snap: &seal_obs::MetricsSnapshot) -> String {
    use seal_obs::metrics::MetricValue;
    let mut parts = Vec::new();
    for (name, m) in &snap.metrics {
        let v = match &m.value {
            MetricValue::Counter(c) => {
                format!("{{\"kind\":\"counter\",\"det\":{},\"value\":{c}}}", m.det)
            }
            MetricValue::Gauge(g) => {
                format!("{{\"kind\":\"gauge\",\"det\":{},\"value\":{g}}}", m.det)
            }
            MetricValue::Hist { count, sum, .. } => format!(
                "{{\"kind\":\"hist\",\"det\":{},\"count\":{count},\"sum\":{sum}}}",
                m.det
            ),
        };
        parts.push(format!("\"{name}\": {v}"));
    }
    format!("{{{}}}", parts.join(",\n    "))
}

fn phase_json(s: &Samples) -> String {
    let stat = |xs: &[f64]| {
        format!(
            "{{\"min\":{},\"median\":{},\"p90\":{}}}",
            num(min(xs)),
            num(median(xs)),
            num(p90(xs))
        )
    };
    format!(
        "{{\"end_to_end_ms\":{},\"infer_ms\":{},\"pdg_ms\":{},\
         \"search_ms\":{},\"detect_ms\":{}}}",
        stat(&s.total),
        stat(&s.infer),
        stat(&s.pdg),
        stat(&s.search),
        stat(&s.detect),
    )
}

fn main() {
    let warmup = env_usize("SEAL_BENCH_WARMUP", 1);
    let iters = env_usize("SEAL_BENCH_ITERS", 5).max(1);
    let cpus = cpus_now();
    let worker_counts = [1usize, 2, 4, 8];
    let corpus_scales = [(1usize, "1x"), (4, "4x")];

    eprintln!("bench_pipeline: warmup={warmup} iters={iters} cpus={cpus}");

    // corpus scale -> per-jobs cells, in worker_counts order.
    let mut matrix: Vec<(&str, Vec<(usize, Cell)>)> = Vec::new();
    let mut identical = true;
    for &(scale, label) in &corpus_scales {
        let config = scaled_config(scale);
        eprintln!("measuring corpus {label}, jobs {worker_counts:?} (interleaved)");
        let cells = measure_row(&config, &worker_counts, warmup, iters);
        let scale_identical = cells
            .iter()
            .all(|(_, c)| c.fingerprint == cells[0].1.fingerprint);
        assert!(
            scale_identical,
            "pipeline output differs across worker counts at corpus {label} — \
             determinism contract broken"
        );
        identical &= scale_identical;
        matrix.push((label, cells));
    }

    // Scaling ratios are *paired*: within each round-robin iteration the
    // cells run back to back, so the per-iteration ratio cancels any
    // machine-load burst that a cross-cell min-over-min (or median-over-
    // median) comparison would mistake for a scaling change. The median
    // of the paired ratios is the reported statistic.
    let paired_ratio = |reference: &[f64], sample: &[f64]| {
        let ratios: Vec<f64> = reference.iter().zip(sample).map(|(r, s)| r / s).collect();
        median(&ratios)
    };
    let row_json = |jobs: usize, cell: &Cell, one_worker: &Samples| {
        // More workers than CPUs measures scheduling overhead, not
        // parallel speedup; annotate so readers discount those rows.
        // Both `cpus` and `oversubscribed` reflect the parallelism
        // available while this row was measured, not a startup snapshot.
        let oversubscribed = jobs > cell.cpus;
        let jobs_effective = jobs.min(cell.cpus);
        format!(
            "{{\"jobs\":{jobs},\"jobs_effective\":{jobs_effective},\"cpus\":{},\
             \"oversubscribed\":{oversubscribed},\"phases\":{},\
             \"speedup_vs_1worker\":{},\
             \"pdg_ms_ratio_vs_1worker\":{}}}",
            cell.cpus,
            phase_json(&cell.samples),
            format_args!(
                "{:.3}",
                paired_ratio(&one_worker.total, &cell.samples.total)
            ),
            // Inverted pairing: >1 means this cell's PDG phase costs more
            // than the 1-worker run's (the regression the gate bounds).
            format_args!("{:.3}", paired_ratio(&cell.samples.pdg, &one_worker.pdg)),
        )
    };

    let mut matrix_json = Vec::new();
    for (label, cells) in &matrix {
        let one_worker = &cells[0].1.samples;
        let rows: Vec<String> = cells
            .iter()
            .map(|(jobs, cell)| row_json(*jobs, cell, one_worker))
            .collect();
        matrix_json.push(format!(
            "{{\"corpus\":\"{label}\",\"workers\":[\n      {}\n    ]}}",
            rows.join(",\n      ")
        ));
    }

    // Back-compat view: the 1x-corpus rows under the original key.
    let workers_json: Vec<String> = {
        let (_, cells) = &matrix[0];
        let one_worker = &cells[0].1.samples;
        cells
            .iter()
            .map(|(jobs, cell)| row_json(*jobs, cell, one_worker))
            .collect()
    };

    eprintln!("measuring incremental cache (cold / warm / 10%-mutated, jobs=1)");
    let (cache_json, cache_identical, warm_speedup) = measure_cache(iters);
    assert!(
        warm_speedup >= 2.0,
        "warm cache run is only {warm_speedup:.2}x faster than cold (acceptance floor: 2.0x)"
    );

    eprintln!("measuring seal serve (cold CLI / first request / warm mutated-10%)");
    let serve = measure_serve(iters);
    if let Some((_, identical, speedup)) = &serve {
        assert!(
            identical,
            "daemon outputs differ from the solo CLI — serve equivalence broken"
        );
        assert!(
            *speedup >= 5.0,
            "warm daemon request is only {speedup:.2}x faster than the cold CLI \
             (acceptance floor: 5.0x)"
        );
    }
    let serve_json = serve
        .as_ref()
        .map(|(s, _, _)| format!("\n  \"serve\": {s},"))
        .unwrap_or_default();

    eprintln!("measuring seal serve concurrency (1/4/8 simultaneous clients)");
    let serve_conc = measure_serve_concurrency(iters);
    if let Some((_, identical)) = &serve_conc {
        assert!(
            identical,
            "daemon outputs under contention differ from the solo CLI — \
             concurrent serve equivalence broken"
        );
    }
    let serve_conc_json = serve_conc
        .as_ref()
        .map(|(s, _)| format!("\n  \"serve_concurrency\": {s},"))
        .unwrap_or_default();

    eprintln!("measuring scale tier (1x/10x, streamed always-spill vs materialized)");
    let scale = measure_scale();
    if let Some((_, identical, rss_ratio)) = &scale {
        assert!(
            identical,
            "streamed and materialized scale runs produced different reports — \
             scale-tier equivalence broken"
        );
        assert!(
            *rss_ratio <= 0.5,
            "streamed 10x peak RSS is {:.0}% of materialized (acceptance ceiling: 50%)",
            rss_ratio * 100.0
        );
    }
    let scale_json = scale
        .as_ref()
        .map(|(s, _, _)| format!("\n  \"scale\": {s},"))
        .unwrap_or_default();

    // One instrumented run: every measured run above had the registry
    // disabled (the default), so the medians include only the disabled-path
    // cost; this extra run collects the per-stage counters for the report.
    eprintln!("collecting per-stage metrics (1 instrumented run)");
    seal_obs::metrics::enable();
    let _ = run_pipeline(&eval_config(), *worker_counts.last().unwrap());
    let stage_metrics = seal_obs::metrics::take();

    let cfg = eval_config();
    let json = format!(
        "{{\n  \"bench\": \"pipeline\",\n  \"cpus\": {cpus},\n  \"warmup_iters\": {warmup},\n  \
         \"measured_iters\": {iters},\n  \
         \"config\": {{\"seed\": {}, \"drivers_per_template\": {}, \"bug_rate\": {}, \
         \"patches_per_template\": {}, \"refactor_patches\": {}}},\n  \
         \"workers\": [\n    {}\n  ],\n  \
         \"matrix\": [\n    {}\n  ],\n  \
         \"cache\": {},{serve_json}{serve_conc_json}{scale_json}\n  \
         \"stage_metrics\": {},\n  \
         \"identical_output_across_workers\": {identical}\n}}\n",
        cfg.seed,
        cfg.drivers_per_template,
        cfg.bug_rate,
        cfg.patches_per_template,
        cfg.refactor_patches,
        workers_json.join(",\n    "),
        matrix_json.join(",\n    "),
        cache_json,
        metrics_json(&stage_metrics),
    );

    std::fs::write("BENCH_pipeline.json", &json).expect("cannot write BENCH_pipeline.json");
    println!("{json}");

    for (label, cells) in &matrix {
        let one_worker = cells[0].1.samples.total.clone();
        for (jobs, cell) in cells {
            println!(
                "corpus={label} workers={jobs}: min {:.1} ms, median {:.1} ms  (vs 1 worker {:.2}x paired)",
                min(&cell.samples.total),
                median(&cell.samples.total),
                paired_ratio(&one_worker, &cell.samples.total),
            );
        }
    }
    println!("output identical across worker counts: {identical}");
    println!(
        "cache: warm {warm_speedup:.2}x faster than cold (median, jobs=1), \
         outputs identical cold/warm/uncached: {cache_identical}"
    );
    if let Some((_, serve_identical, serve_speedup)) = &serve {
        println!(
            "serve: warm daemon request {serve_speedup:.2}x faster than the cold CLI \
             (median per item), outputs identical: {serve_identical}"
        );
    }
    if let Some((_, identical)) = &serve_conc {
        println!(
            "serve concurrency: 1/4/8 simultaneous clients measured, \
             outputs identical under contention: {identical}"
        );
    }
    if let Some((_, identical, rss_ratio)) = &scale {
        println!(
            "scale: streamed 10x peak RSS at {:.0}% of materialized, \
             reports identical streamed/materialized: {identical}",
            rss_ratio * 100.0
        );
    }
}
