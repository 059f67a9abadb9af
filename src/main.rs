//! `seal` — command-line front end for the SEAL pipeline.
//!
//! Implements the maintainer workflow of the paper's §9: as security
//! patches land, run inference to grow a specification dataset, and sweep
//! the tree for further violations.
//!
//! ```text
//! seal infer  --pre old.c --post new.c [--id fix-1] [--out specs.txt]
//! seal detect --target kernel.c --specs specs.txt
//! seal hunt   --pre old.c --post new.c --target kernel.c
//! ```
//!
//! Batch items are fault-isolated (DESIGN.md, "Fault tolerance"): one bad
//! patch never aborts its siblings. Failures are summarized per item on
//! stderr and reflected in the exit code — `0` all items succeeded, `1`
//! usage or fatal error, `2` completed but some items failed.

use seal::core::AnalysisCache;
use seal::request::{run_request, ItemFailure, RequestKind, RunCtx, RunResult};
use seal_spec::merge::merge_specs;
use seal_spec::parse::{parse_lines, to_line};
use std::collections::HashMap;
use std::process::ExitCode;

/// How a completed run went: every item succeeded, or some failed (their
/// failures already summarized on stderr).
enum Outcome {
    Full,
    Partial,
}

/// Prints the per-item failure summary (nothing when all items passed).
fn report_failures(failures: &[ItemFailure]) {
    if failures.is_empty() {
        return;
    }
    eprintln!("seal: {} item(s) failed:", failures.len());
    for f in failures {
        let mut lines = f.message.lines();
        eprintln!("  {} [{}] {}", f.id, f.stage, lines.next().unwrap_or(""));
        for l in lines {
            eprintln!("      {l}");
        }
    }
}

/// A fatal CLI error: the message plus the exit code to report. Usage and
/// I/O errors exit 1; invalid worker counts exit 2 (see [`validate_jobs`]).
struct Fatal {
    msg: String,
    code: u8,
}

impl From<String> for Fatal {
    fn from(msg: String) -> Self {
        Fatal { msg, code: 1 }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(Outcome::Full) => ExitCode::SUCCESS,
        Ok(Outcome::Partial) => ExitCode::from(2),
        Err(f) => {
            eprintln!("seal: {}", f.msg);
            ExitCode::from(f.code)
        }
    }
}

fn run(args: &[String]) -> Result<Outcome, Fatal> {
    let Some(cmd) = args.first() else {
        return Err(usage().into());
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{}", usage());
        return Ok(Outcome::Full);
    }
    let Some(known) = known_flags(cmd) else {
        return Err(format!("unknown command `{cmd}`\n{}", usage()).into());
    };
    let opts = parse_opts(&args[1..], known)?;
    if known.contains(&"jobs") {
        validate_jobs(&opts).map_err(|msg| Fatal { msg, code: 2 })?;
    }
    match cmd.as_str() {
        // The analysis commands support --trace/--metrics: observability is
        // armed before any pipeline work and the files are written after.
        "infer" | "detect" | "hunt" => {
            // The cache is opened once per command and shared by every
            // stage (spec inference, target lowering, detection shards), so
            // a `hunt` never races two handles over one store file.
            let cache = open_cache(&opts).map_err(Fatal::from)?;
            let obs = ObsRun::start(&opts)?;
            let out = match cmd.as_str() {
                "infer" => infer(&opts, &cache),
                "detect" => detect(&opts, &cache),
                _ => infer_and_detect(&opts, &cache),
            };
            match &out {
                Ok(_) => {
                    cache
                        .flush()
                        .map_err(|e| Fatal::from(format!("cannot flush cache: {e}")))?;
                    obs.finish()?
                }
                Err(_) => obs.abort(),
            }
            out.map_err(Fatal::from)
        }
        "serve" => {
            // Validate the whole daemon configuration before any side
            // effect (cache open, obs run): a garbage SEAL_SERVE_MAX_LINE
            // or --max-conns is a misconfiguration, not a cue to silently
            // serve with defaults — usage class 2, same as an invalid
            // --jobs.
            let sopts = seal::serve::ServeOptions {
                listen: opts.get("listen").cloned(),
                jobs: jobs(&opts).map_err(Fatal::from)?,
                max_conns: max_conns(&opts).map_err(|msg| Fatal { msg, code: 2 })?,
                max_line: seal::serve::resolve_max_line().map_err(|msg| Fatal { msg, code: 2 })?,
            };
            let cache = open_cache(&opts).map_err(Fatal::from)?;
            let obs = ObsRun::start(&opts)?;
            let budget = warm_budget(&opts).map_err(Fatal::from)?;
            let cache = cache.with_warm(seal::core::WarmMemory::new(budget));
            let out = seal::serve::serve(&cache, &sopts);
            match &out {
                Ok(_) => obs.finish()?,
                Err(_) => obs.abort(),
            }
            match out {
                Ok(true) => Ok(Outcome::Full),
                Ok(false) => Ok(Outcome::Partial),
                Err(e) => Err(Fatal::from(e)),
            }
        }
        "merge" => merge(&opts).map_err(Fatal::from),
        "scale-run" => scale_run(&opts).map_err(Fatal::from),
        "gen-corpus" => gen_corpus(&opts).map_err(Fatal::from),
        "mutate" => mutate(&opts).map_err(Fatal::from),
        "stats" => stats(&opts).map_err(Fatal::from),
        other => Err(format!("unknown command `{other}`\n{}", usage()).into()),
    }
}

/// The connection bound for `seal serve --listen`: `--max-conns`
/// (default [`seal::serve::DEFAULT_MAX_CONNS`]). Zero and garbage are
/// rejected — a daemon that admits no connections is a misconfiguration.
fn max_conns(opts: &HashMap<String, String>) -> Result<usize, String> {
    match opts.get("max-conns") {
        None => Ok(seal::serve::DEFAULT_MAX_CONNS),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if (1..=1024).contains(&n) => Ok(n),
            _ => Err(format!(
                "--max-conns must be an integer in 1..=1024, got `{v}`"
            )),
        },
    }
}

/// The warm-memory byte budget for `seal serve`: `SEAL_WARM_BYTES`
/// (exact bytes, test hook) wins over `--warm-mb` (default 256 MiB).
fn warm_budget(opts: &HashMap<String, String>) -> Result<u64, String> {
    if let Ok(v) = std::env::var("SEAL_WARM_BYTES") {
        return v
            .parse()
            .map_err(|_| format!("SEAL_WARM_BYTES must be a byte count, got `{v}`"));
    }
    match opts.get("warm-mb") {
        Some(v) => match v.parse::<u64>() {
            Ok(mb) if mb >= 1 => Ok(mb * 1024 * 1024),
            _ => Err(format!("--warm-mb must be a positive integer, got `{v}`")),
        },
        None => Ok(seal::core::warm::DEFAULT_WARM_BUDGET),
    }
}

/// Flags each command accepts, or `None` for an unknown command. The
/// allowlist is what lets [`parse_opts`] reject typos (`--trce x`) instead
/// of silently ignoring them.
fn known_flags(cmd: &str) -> Option<&'static [&'static str]> {
    Some(match cmd {
        "infer" => &[
            "pre",
            "post",
            "id",
            "out",
            "jobs",
            "trace",
            "metrics",
            "cache-dir",
            "cache",
        ],
        "detect" => &[
            "target",
            "specs",
            "jobs",
            "trace",
            "metrics",
            "cache-dir",
            "cache",
        ],
        "hunt" => &[
            "pre",
            "post",
            "id",
            "target",
            "jobs",
            "trace",
            "metrics",
            "cache-dir",
            "cache",
        ],
        "serve" => &[
            "listen",
            "jobs",
            "max-conns",
            "trace",
            "metrics",
            "cache-dir",
            "cache",
            "warm-mb",
        ],
        "merge" => &["specs", "out"],
        "scale-run" => &[
            "scale",
            "mode",
            "jobs",
            "seed",
            "max-rss-mb",
            "spill-dir",
            "chunk-drivers",
            "reports-out",
        ],
        "gen-corpus" => &["dir", "seed", "drivers"],
        "mutate" => &["src", "out", "n", "seed"],
        "stats" => &["trace", "metrics", "cache-dir"],
        _ => return None,
    })
}

/// Opens the incremental artifact cache for one analysis command.
///
/// The directory comes from `--cache-dir` (or `SEAL_CACHE_DIR`), the mode
/// from `--cache` (or `SEAL_CACHE`): `off`, `ro`, or `rw` (the default
/// when a directory is given). With no directory configured the cache is
/// disabled and every command behaves exactly as before the cache existed.
fn open_cache(opts: &HashMap<String, String>) -> Result<AnalysisCache, String> {
    let dir = opts
        .get("cache-dir")
        .cloned()
        .or_else(|| std::env::var("SEAL_CACHE_DIR").ok());
    let mode_str = opts
        .get("cache")
        .cloned()
        .or_else(|| std::env::var("SEAL_CACHE").ok());
    let mode = match &mode_str {
        Some(s) => seal_store::CacheMode::parse(s)
            .ok_or_else(|| format!("--cache must be one of off, ro, rw; got `{s}`"))?,
        None => seal_store::CacheMode::ReadWrite,
    };
    match dir {
        None => {
            if opts.contains_key("cache") {
                return Err(
                    "--cache needs --cache-dir (or SEAL_CACHE_DIR) to point at a store".to_string(),
                );
            }
            Ok(AnalysisCache::disabled())
        }
        Some(_) if mode == seal_store::CacheMode::Off => Ok(AnalysisCache::disabled()),
        Some(dir) => AnalysisCache::open(std::path::Path::new(&dir), mode)
            .map_err(|e| format!("cannot open cache: {e}")),
    }
}

/// Observability state for one analysis command: a trace collector and/or
/// the metrics registry, armed from `--trace`/`--metrics` before the
/// pipeline runs and flushed to their files afterwards.
struct ObsRun {
    trace: Option<(seal_obs::Trace, String)>,
    metrics_path: Option<String>,
}

impl ObsRun {
    fn start(opts: &HashMap<String, String>) -> Result<ObsRun, String> {
        let trace = match opts.get("trace") {
            Some(path) => {
                let t = seal_obs::Trace::install()
                    .ok_or_else(|| "a trace is already installed in this process".to_string())?;
                Some((t, path.clone()))
            }
            None => None,
        };
        let metrics_path = opts.get("metrics").cloned();
        if metrics_path.is_some() {
            seal_obs::metrics::enable();
        }
        Ok(ObsRun {
            trace,
            metrics_path,
        })
    }

    /// Writes the requested files (the command completed, fully or
    /// partially — a partial run's trace is exactly what one debugs with).
    fn finish(self) -> Result<(), String> {
        if let Some((t, path)) = self.trace {
            let data = t.finish();
            std::fs::write(&path, data.to_jsonl())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote trace to {path}");
        }
        if let Some(path) = self.metrics_path {
            let snap = seal_obs::metrics::take();
            std::fs::write(&path, snap.to_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote metrics to {path}");
        }
        Ok(())
    }

    /// Tears down without writing (the command failed before producing
    /// anything worth tracing; dropping the trace guard uninstalls it).
    fn abort(self) {
        if self.metrics_path.is_some() {
            let _ = seal_obs::metrics::take();
        }
    }
}

/// `seal stats`: aggregates any of a `--trace` file (per-span timing
/// table), a `--metrics` file (counter/gauge/histogram table, including
/// the `cache.*` session counters), and a `--cache-dir` (on-disk artifact
/// store summary). At least one source is required.
fn stats(opts: &HashMap<String, String>) -> Result<Outcome, String> {
    use std::collections::BTreeMap;

    if !["trace", "metrics", "cache-dir"]
        .iter()
        .any(|k| opts.contains_key(*k))
    {
        return Err(format!(
            "stats needs at least one of --trace/--metrics/--cache-dir\n{}",
            usage()
        ));
    }

    if let Some(trace_path) = opts.get("trace") {
        let data = seal_obs::TraceData::parse_jsonl(&read_file(trace_path)?)
            .map_err(|e| format!("malformed trace file {trace_path}: {e}"))?;

        #[derive(Default)]
        struct Agg {
            count: u64,
            total_us: u64,
            self_us: u64,
        }
        fn walk<'a>(r: &'a seal_obs::SpanRec, by: &mut BTreeMap<&'a str, Agg>) {
            let child_us: u64 = r.children.iter().map(|c| c.dur_us).sum();
            let a = by.entry(r.name).or_default();
            a.count += 1;
            a.total_us += r.dur_us;
            a.self_us += r.dur_us.saturating_sub(child_us);
            for c in &r.children {
                walk(c, by);
            }
        }
        let mut by_name: BTreeMap<&str, Agg> = BTreeMap::new();
        for r in &data.roots {
            walk(r, &mut by_name);
        }
        println!(
            "{:<24} {:>8} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, a) in &by_name {
            println!(
                "{:<24} {:>8} {:>12.2} {:>12.2}",
                name,
                a.count,
                a.total_us as f64 / 1e3,
                a.self_us as f64 / 1e3
            );
        }
    }

    if let Some(mpath) = opts.get("metrics") {
        let snap = seal_obs::MetricsSnapshot::parse(&read_file(mpath)?)
            .map_err(|e| format!("malformed metrics file {mpath}: {e}"))?;
        println!();
        println!(
            "{:<40} {:>8} {:>5} {:>16}",
            "metric", "kind", "det", "value"
        );
        for (name, m) in &snap.metrics {
            let (kind, value) = match &m.value {
                seal_obs::metrics::MetricValue::Counter(c) => ("counter", c.to_string()),
                seal_obs::metrics::MetricValue::Gauge(g) => ("gauge", g.to_string()),
                seal_obs::metrics::MetricValue::Hist { count, sum, .. } => {
                    ("hist", format!("n={count} sum={sum}"))
                }
            };
            println!("{:<40} {:>8} {:>5} {:>16}", name, kind, m.det, value);
        }
        // Derived daemon hit rates: how often `seal serve` answered from
        // its in-process warm layer instead of the store or a recompute.
        let counter = |name: &str| match snap.metrics.get(name) {
            Some(seal_obs::metrics::Metric {
                value: seal_obs::metrics::MetricValue::Counter(c),
                ..
            }) => *c,
            _ => 0,
        };
        let (wh, wm) = (counter("serve.warm_hits"), counter("serve.warm_misses"));
        if wh + wm > 0 {
            println!();
            println!(
                "serve warm hit rate: {:.1}% ({wh} hits / {} lookups, {} evictions)",
                100.0 * wh as f64 / (wh + wm) as f64,
                wh + wm,
                counter("serve.evictions")
            );
        }
        // Connection summary for a concurrent daemon run.
        let gauge = |name: &str| match snap.metrics.get(name) {
            Some(seal_obs::metrics::Metric {
                value: seal_obs::metrics::MetricValue::Gauge(g),
                ..
            }) => *g,
            _ => 0,
        };
        let conns = counter("serve.conns_total");
        if conns > 0 {
            println!(
                "serve connections: {conns} served (peak {} active, {} rejected busy, {} conn errors)",
                gauge("serve.conns_active_peak"),
                counter("serve.conns_rejected"),
                counter("serve.conn_errors")
            );
        }
    }

    // With `--cache-dir`, summarize the on-disk artifact store (the
    // session counters — cache.hits/misses/bytes_read/invalidations —
    // live in the metrics snapshot above; this is the disk-side view).
    if let Some(dir) = opts.get("cache-dir") {
        let cache = AnalysisCache::open(std::path::Path::new(dir), seal_store::CacheMode::ReadOnly)
            .map_err(|e| format!("cannot open cache: {e}"))?;
        // Open reads record headers only; checksum every payload here so
        // corruption in the middle of the file is counted too.
        cache.store().verify();
        let s = cache.stats();
        let file = std::path::Path::new(dir).join(seal_store::STORE_FILE);
        let bytes = std::fs::metadata(&file).map(|m| m.len()).unwrap_or(0);
        println!();
        println!("cache store {}", file.display());
        println!("{:<24} {:>12}", "disk_entries", s.disk_entries);
        println!("{:<24} {:>12}", "file_bytes", bytes);
        println!("{:<24} {:>12}", "scan_invalidations", s.invalidations);
    }
    Ok(Outcome::Full)
}

fn usage() -> String {
    "usage:\n  \
     seal infer  --pre <file,...> --post <file,...> [--id <patch-id>] [--out <specs-file>] [--jobs <n>]\n  \
     seal detect --target <file,...> --specs <specs-file> [--jobs <n>]\n  \
     seal hunt   --pre <file,...> --post <file,...> --target <file,...> [--jobs <n>]\n  \
     seal merge  --specs <file,file,...> --out <specs-file>\n  \
     seal scale-run [--scale <n>] [--mode streamed|materialized] [--jobs <n>] [--seed <n>]\n  \
     \u{20}              [--max-rss-mb <mb>] [--spill-dir <dir>] [--chunk-drivers <n>] [--reports-out <file>]\n  \
     seal gen-corpus --dir <dir> [--seed <n>] [--drivers <n>]\n  \
     seal mutate --src <file,...> --out <dir> [--n <k>] [--seed <n>]\n  \
     seal serve  [--listen <socket>] [--jobs <n>] [--warm-mb <mb>] [--max-conns <n>]\n  \
     seal stats  [--trace <trace-file>] [--metrics <metrics-file>] [--cache-dir <dir>]\n\
     \n\
     serve reads JSONL requests from stdin (or a --listen Unix socket) and\n\
     answers one JSON line per item, keeping analysis state warm across\n\
     requests: {\"cmd\":\"hunt\",\"pre\":[...],\"post\":[...],\"target\":[...]},\n\
     {\"cmd\":\"batch\",\"items\":[...]}, plus ping/stats/shutdown. Item outputs\n\
     are byte-identical to solo CLI runs; a malformed line answers an error\n\
     and the daemon keeps serving. --warm-mb bounds the in-process warm\n\
     memory (default 256 MiB, LRU-evicted). With --listen, connections are\n\
     served concurrently up to --max-conns (default 16); one beyond the\n\
     bound is answered with a `server busy` protocol error and closed, and\n\
     a --listen path already owned by a live daemon is a fatal error.\n\
     \n\
     scale-run executes the scale tier: the seeded evaluation corpus,\n\
     multiplied by --scale, streamed through chunked compile + inference +\n\
     detection (default) or fully materialized (--mode materialized), and\n\
     prints one JSON line with score, throughput, peak RSS, and spill\n\
     counters. --max-rss-mb arms the disk-spill budget (0 = always spill);\n\
     --reports-out dumps the rendered reports, byte-identical across\n\
     modes, worker counts, and spill settings.\n\
     \n\
     infer/detect/hunt accept [--cache-dir <dir>] [--cache off|ro|rw] (or\n\
     SEAL_CACHE_DIR / SEAL_CACHE) to reuse per-function artifacts across\n\
     runs: unchanged inputs replay cached specs, lowered modules, and\n\
     detection shards, byte-identically to a cold run. Default mode with a\n\
     directory is rw; a corrupt or stale store is never fatal — damaged\n\
     records are invalidated and recomputed.\n\
     \n\
     --pre/--post accept comma-separated lists of equal length; the pairs\n\
     are inferred in parallel and the specs are merged in argument order.\n\
     --jobs overrides the worker count (otherwise SEAL_JOBS, default:\n\
     available parallelism); results are identical for any worker count.\n\
     \n\
     infer/detect/hunt also accept [--trace <file>] [--metrics <file>] to\n\
     record a span trace (JSON Lines) and a metrics snapshot; summarize\n\
     them with `seal stats`. The trace structure and every deterministic\n\
     metric are identical for any worker count (only durations vary).\n\
     \n\
     Batch items are fault-isolated: a failing item is reported on stderr\n\
     and the rest proceed. Exit codes: 0 all items succeeded, 1 usage or\n\
     fatal error, 2 completed but some items failed."
        .to_string()
}

/// Hard ceiling on the worker count. Far above any real machine; a value
/// beyond it is a typo'd or corrupted setting, not a request we should
/// honor by spawning thousands of threads.
const MAX_JOBS: usize = 1024;

/// Parses one worker-count setting, rejecting zero, garbage, and absurd
/// values instead of clamping them: a silently "repaired" `--jobs 0` or
/// `SEAL_JOBS=1o24` would quietly change the parallelism the user thinks
/// they measured.
fn parse_jobs(source: &str, v: &str) -> Result<usize, String> {
    match v.trim().parse::<usize>() {
        Ok(n) if (1..=MAX_JOBS).contains(&n) => Ok(n),
        Ok(n) => Err(format!(
            "{source} must be between 1 and {MAX_JOBS}, got `{n}`"
        )),
        Err(_) => Err(format!("{source} must be a positive integer, got `{v}`")),
    }
}

/// Validates every worker-count source before any pipeline work starts,
/// so a bad value is a clean exit-2 error instead of a mid-run surprise.
/// `--jobs` is checked when present; `SEAL_JOBS` is checked whenever it
/// is set, even if `--jobs` overrides it — an invalid value in the
/// environment is a latent bug for the next invocation.
fn validate_jobs(opts: &HashMap<String, String>) -> Result<(), String> {
    if let Some(v) = opts.get("jobs") {
        parse_jobs("--jobs", v)?;
    }
    if let Ok(v) = std::env::var("SEAL_JOBS") {
        parse_jobs("SEAL_JOBS", &v)?;
    }
    Ok(())
}

/// Worker count for this invocation: `--jobs` wins over `SEAL_JOBS` (which
/// [`seal_runtime::worker_count`] reads), which wins over the machine's
/// available parallelism. Values were vetted by [`validate_jobs`] before
/// the command started.
fn jobs(opts: &HashMap<String, String>) -> Result<usize, String> {
    match opts.get("jobs") {
        Some(v) => parse_jobs("--jobs", v),
        None => Ok(seal_runtime::worker_count()),
    }
}

fn parse_opts(args: &[String], known: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut opts = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(key) = flag.strip_prefix("--") else {
            return Err(format!("expected a --flag, found `{flag}`"));
        };
        // A typo'd flag must fail loudly, not be silently ignored (a
        // mistyped `--trce f` would otherwise just produce no trace file).
        if !known.contains(&key) {
            return Err(format!(
                "unknown flag --{key} for this command (expected one of: {})",
                known
                    .iter()
                    .map(|k| format!("--{k}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        // A flag where a value belongs means the value was forgotten
        // (`--pre --post b.c` must not silently set pre to "--post").
        if value.starts_with("--") {
            return Err(format!("--{key} needs a value, found flag `{value}`"));
        }
        if opts.insert(key.to_string(), value.clone()).is_some() {
            return Err(format!("--{key} given more than once"));
        }
    }
    Ok(opts)
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn list(opts: &HashMap<String, String>, key: &str) -> Result<Vec<String>, String> {
    let raw = opts
        .get(key)
        .ok_or_else(|| format!("missing --{key}\n{}", usage()))?;
    let items: Vec<String> = raw.split(',').map(str::to_string).collect();
    if items.iter().any(|s| s.trim().is_empty()) {
        return Err(format!(
            "--{key} contains an empty entry (stray comma?): `{raw}`"
        ));
    }
    Ok(items)
}

/// The execution context shared by the analysis commands: the cache
/// handle plus the validated worker count.
fn run_ctx(opts: &HashMap<String, String>, cache: &AnalysisCache) -> Result<RunCtx, String> {
    Ok(RunCtx {
        cache: cache.clone(),
        jobs: jobs(opts)?,
    })
}

/// Prints one completed request the way the CLI always has: stdout bytes
/// verbatim, then the informational notes and the per-item failure
/// summary on stderr.
fn finish_result(result: RunResult) -> Result<Outcome, String> {
    print!("{}", result.stdout);
    for n in &result.notes {
        eprintln!("{n}");
    }
    report_failures(&result.failures);
    Ok(if result.failures.is_empty() {
        Outcome::Full
    } else {
        Outcome::Partial
    })
}

fn infer(opts: &HashMap<String, String>, cache: &AnalysisCache) -> Result<Outcome, String> {
    let kind = RequestKind::Infer {
        pre: list(opts, "pre")?,
        post: list(opts, "post")?,
        id: opts
            .get("id")
            .cloned()
            .unwrap_or_else(|| "patch".to_string()),
    };
    let mut result = run_request(&run_ctx(opts, cache)?, &kind)?;
    if let Some(path) = opts.get("out") {
        let mut text = String::from("# SEAL specification dataset\n");
        text.push_str(&result.spec_lines.join("\n"));
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!(
            "wrote {} specification(s) to {path}",
            result.spec_lines.len()
        );
        result.stdout.clear(); // the dataset went to the file, not stdout
    }
    finish_result(result)
}

/// Merges one or more spec datasets (deduplicating and disjoining same-
/// shape constraints, §9) into one file. A malformed input file loses its
/// own specs, not the merge.
fn merge(opts: &HashMap<String, String>) -> Result<Outcome, String> {
    let paths = list(opts, "specs")?;
    let mut all = Vec::new();
    let mut failures = Vec::new();
    for path in &paths {
        let parsed = read_file(path)
            .and_then(|text| parse_lines(&text).map_err(|e| format!("malformed spec file: {e}")));
        match parsed {
            Ok(specs) => all.extend(specs),
            Err(message) => failures.push(ItemFailure {
                id: path.clone(),
                stage: "input".to_string(),
                message,
            }),
        }
    }
    let before = all.len();
    let merged = merge_specs(all);
    let out_path = opts
        .get("out")
        .ok_or_else(|| format!("missing --out\n{}", usage()))?;
    let mut text = String::from("# SEAL specification dataset (merged)\n");
    for s in &merged {
        text.push_str(&to_line(s));
        text.push('\n');
    }
    std::fs::write(out_path, text).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    eprintln!(
        "merged {before} -> {} specification(s) into {out_path}",
        merged.len()
    );
    report_failures(&failures);
    Ok(if failures.is_empty() {
        Outcome::Full
    } else {
        Outcome::Partial
    })
}

/// Runs one scale-tier configuration and prints a single JSON line with
/// the score, throughput, peak RSS, and spill counters. Benches and the
/// gated scale suite spawn one process per row: VmHWM is process-lifetime
/// monotonic, so a fresh process is what makes per-row peak RSS readable.
fn scale_run(opts: &HashMap<String, String>) -> Result<Outcome, String> {
    let parse_num = |key: &str, default: u64| -> Result<u64, String> {
        match opts.get(key) {
            Some(v) => v.parse().map_err(|_| format!("--{key} must be a number")),
            None => Ok(default),
        }
    };
    let streamed = match opts.get("mode").map(String::as_str) {
        None | Some("streamed") => true,
        Some("materialized") => false,
        Some(m) => {
            return Err(format!(
                "--mode must be streamed or materialized, got `{m}`"
            ))
        }
    };
    let mut config = seal::scale::eval_base_config();
    config.seed = parse_num("seed", config.seed)?;
    config.scale = parse_num("scale", 1)?.max(1) as usize;
    let sopts = seal::scale::ScaleOptions {
        config,
        jobs: jobs(opts)?,
        streamed,
        chunk_drivers: parse_num("chunk-drivers", 256)?.max(1) as usize,
        max_rss_mb: opts
            .get("max-rss-mb")
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--max-rss-mb must be a number, got `{v}`"))
            })
            .transpose()?,
        spill_dir: opts.get("spill-dir").map(std::path::PathBuf::from),
        ..seal::scale::ScaleOptions::default()
    };
    let scale = sopts.config.scale;
    let jobs_used = seal_runtime::effective_jobs(sopts.jobs);
    let out = seal::scale::run(sopts).map_err(|e| format!("scale run failed: {e}"))?;
    if let Some(path) = opts.get("reports-out") {
        std::fs::write(path, seal::scale::render_reports(&out.reports))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    for e in &out.store_errors {
        eprintln!("scale-run: degraded spill reload (recomputed): {e}");
    }
    println!(
        "{{\"mode\":\"{mode}\",\"scale\":{scale},\"jobs\":{jobs_used},\
         \"drivers\":{},\"patches\":{},\"specs\":{},\"reports\":{},\"chunks\":{},\
         \"fingerprint\":\"{:016x}\",\"precision\":{:.4},\"recall\":{:.4},\
         \"gen_infer_secs\":{:.3},\"detect_secs\":{:.3},\"items_per_sec\":{:.2},\
         \"rss_peak_kb\":{},\"spill\":{{\"writes\":{},\"reads\":{},\
         \"bytes_written\":{},\"bytes_read\":{},\"recomputes\":{}}},\
         \"store_errors\":{}}}",
        out.drivers,
        out.patches,
        out.specs,
        out.reports.len(),
        out.chunks,
        seal::scale::reports_fingerprint(&out.reports),
        out.score.precision(),
        out.score.recall(),
        out.gen_infer.as_secs_f64(),
        out.detect.as_secs_f64(),
        out.items_per_sec(),
        seal::core::spill::proc_status_kb("VmHWM").unwrap_or(0),
        out.spill.writes,
        out.spill.reads,
        out.spill.bytes_written,
        out.spill.bytes_read,
        out.spill.recomputes,
        out.store_errors.len(),
        mode = if streamed { "streamed" } else { "materialized" },
    );
    Ok(Outcome::Full)
}

/// Materializes a synthetic kernel + patch corpus on disk, ready for the
/// infer/merge/detect workflow (and with a ground-truth ledger to score
/// against).
fn gen_corpus(opts: &HashMap<String, String>) -> Result<Outcome, String> {
    let dir = opts
        .get("dir")
        .ok_or_else(|| format!("missing --dir\n{}", usage()))?;
    let parse_num = |key: &str, default: u64| -> Result<u64, String> {
        match opts.get(key) {
            Some(v) => v.parse().map_err(|_| format!("--{key} must be a number")),
            None => Ok(default),
        }
    };
    let config = seal::corpus::CorpusConfig {
        seed: parse_num("seed", 0xC0FFEE)?,
        drivers_per_template: parse_num("drivers", 24)? as usize,
        ..seal::corpus::CorpusConfig::default()
    };
    let corpus = seal::corpus::generate(&config);
    let tree = seal::corpus::files::write_to_dir(&corpus, std::path::Path::new(dir))
        .map_err(|e| format!("cannot write corpus: {e}"))?;
    eprintln!(
        "wrote {} kernel file(s), {} patch pair(s), and GROUND_TRUTH.tsv to {dir}\n\
         ({} seeded bugs; try: seal infer --pre <patches/X.pre.c> --post <patches/X.post.c>)",
        tree.kernel_files.len(),
        tree.patch_files.len(),
        corpus.ground_truth.len()
    );
    Ok(Outcome::Full)
}

/// Writes deterministic mutants of the given sources, for fault-injection
/// smoke tests (`scripts/ci.sh`) and manual robustness probing.
fn mutate(opts: &HashMap<String, String>) -> Result<Outcome, String> {
    let srcs = list(opts, "src")?;
    let out_dir = opts
        .get("out")
        .ok_or_else(|| format!("missing --out\n{}", usage()))?;
    let parse_num = |key: &str, default: u64| -> Result<u64, String> {
        match opts.get(key) {
            Some(v) => v.parse().map_err(|_| format!("--{key} must be a number")),
            None => Ok(default),
        }
    };
    let n = parse_num("n", 8)? as usize;
    let seed = parse_num("seed", 0xFA11)?;
    std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {out_dir}: {e}"))?;
    let mut written = 0usize;
    for (si, src_path) in srcs.iter().enumerate() {
        let text = read_file(src_path)?;
        let stem = std::path::Path::new(src_path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("src");
        for (mi, m) in seal::corpus::mutate::mutants(&text, n, seed ^ (si as u64))
            .iter()
            .enumerate()
        {
            let path = format!("{out_dir}/{stem}.mut{mi}.c");
            std::fs::write(&path, m).map_err(|e| format!("cannot write {path}: {e}"))?;
            written += 1;
        }
    }
    eprintln!("wrote {written} mutant(s) to {out_dir}");
    Ok(Outcome::Full)
}

fn detect(opts: &HashMap<String, String>, cache: &AnalysisCache) -> Result<Outcome, String> {
    let kind = RequestKind::Detect {
        target: list(opts, "target")?,
        specs: opts
            .get("specs")
            .cloned()
            .ok_or_else(|| format!("missing --specs\n{}", usage()))?,
    };
    finish_result(run_request(&run_ctx(opts, cache)?, &kind)?)
}

fn infer_and_detect(
    opts: &HashMap<String, String>,
    cache: &AnalysisCache,
) -> Result<Outcome, String> {
    let kind = RequestKind::Hunt {
        pre: list(opts, "pre")?,
        post: list(opts, "post")?,
        id: opts
            .get("id")
            .cloned()
            .unwrap_or_else(|| "patch".to_string()),
        target: list(opts, "target")?,
    };
    finish_result(run_request(&run_ctx(opts, cache)?, &kind)?)
}
