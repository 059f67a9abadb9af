//! `seal-replay` — the per-layer half of the SEAL benchmark.
//!
//! Replays one workload's items in-process through the public functions
//! the `seal` CLI and daemon call, with a span (name, start, end, parent,
//! item) around each call, and prints one JSON line of per-layer metrics.
//!
//! Every run makes two passes over the same items. The first runs with
//! tracing off for about `--seconds`/2 and counts how many items it
//! finished; the second replays that many items with tracing on. The
//! metrics come from the traced pass, and the ratio of the two pass walls
//! is `trace.overhead_ratio`. Spans stay in memory and are written to
//! `<out>/spans.jsonl` at exit.
//!
//! ```text
//! seal-replay --workload sweep_cold|rehunt_edit|serve_mixed --data <dir>
//!             --out <dir> --seed <n> --seconds <s> --seal <seal binary>
//! ```
//!
//! `--data` is the per-seed input directory `benchmark/run.py` generates
//! (corpus, edit rounds, request list, reference outputs); `--data` and
//! `--out` are relative to the working directory, which is the repository
//! root. See `benchmark/README.md` for the layer → metric → workload map.
//!
//! `seal-replay launch` is the benchmark's process launcher instead: see
//! [`launch`].

use seal::core::{AnalysisCache, Patch, WarmMemory};
use seal::json::escape;
use seal::request::{run_request, RequestKind, RunCtx};
use seal_store::CacheMode;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The target path every workload passes to `hunt`. Reports print it, so
/// it must be the same string the reference outputs were made with.
const TARGET: &str = "kernel/core/kernel.c";

/// One recorded call into a layer.
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    item: usize,
}

/// In-memory span recorder. With `on` false, [`Tracer::span`] only runs
/// the closure, so the untraced pass does the same work without records.
struct Tracer {
    on: bool,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    item: Cell<usize>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            item: Cell::new(0),
        }
    }

    fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start: self.t0.elapsed(),
                end: Duration::ZERO,
                parent: self.stack.borrow().last().copied(),
                item: self.item.get(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end = self.t0.elapsed();
        out
    }

    /// Self time per span name in milliseconds: each span's duration minus
    /// the part of it its child spans cover.
    fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child = vec![Duration::ZERO; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut by_name = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let own = (s.end - s.start).saturating_sub(child[i]);
            *by_name.entry(s.name).or_insert(0.0) += own.as_secs_f64() * 1e3;
        }
        by_name
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for s in self.spans.borrow().iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent},\"item\":{}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.item
            );
        }
        std::fs::write(path, text)
    }
}

/// How many items a pass replays.
#[derive(Clone, Copy)]
enum Budget {
    /// Until the deadline passes (at least one item).
    Until(Instant),
    /// Exactly this many items.
    Items(usize),
}

impl Budget {
    fn more(self, done: usize) -> bool {
        match self {
            Budget::Until(t) => done == 0 || Instant::now() < t,
            Budget::Items(n) => done < n,
        }
    }
}

/// What one pass produced: items replayed and failed, its wall time, and
/// the workload's counters (already normalized where noted).
struct Pass {
    items: usize,
    failed: usize,
    wall: Duration,
    values: BTreeMap<&'static str, f64>,
}

struct Args {
    workload: String,
    /// The input directory, absolute (the replay changes directory).
    data: PathBuf,
    /// The input directory as given, relative to the repository root.
    data_rel: PathBuf,
    out: PathBuf,
    seed: u64,
    seconds: f64,
    seal: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, found `{flag}`"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key, value);
    }
    let get = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let data_rel = PathBuf::from(get("data")?);
    Ok(Args {
        workload: get("workload")?,
        data: std::env::current_dir()
            .map_err(|e| format!("no working directory: {e}"))?
            .join(&data_rel),
        data_rel,
        out: PathBuf::from(get("out")?),
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed must be an integer".to_string())?,
        seconds: get("seconds")?
            .parse()
            .map_err(|_| "--seconds must be a number".to_string())?,
        seal: PathBuf::from(get("seal")?),
    })
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("benchmark input {} is unreadable: {e}", path.display()))
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Splits a comma-separated list of data-relative paths into absolute
/// ones, so they resolve from any working directory.
fn abs_list(data: &Path, csv: &str) -> Vec<String> {
    csv.split(',')
        .map(|p| data.join(p).to_string_lossy().into_owned())
        .collect()
}

// ---------------------------------------------------------------- sweep_cold

/// One sweep = the streamed scale tier's work, replayed layer by layer
/// (corpus stream, KIR compile, IR lower/decode, per-patch inference,
/// detection at 2 and 1 workers), then the real `ScaleRun` with a
/// zero-budget spill directory. Reports from both detection calls and
/// from the scale run must match the materialized reference.
fn sweep_pass(a: &Args, tr: &Tracer, budget: Budget, tag: &str) -> Pass {
    use seal::corpus::stream::{CorpusStream, StreamItem};
    let reference = read(&a.data.join("ref_reports.txt"));
    let mut config = seal::scale::eval_base_config();
    config.seed = a.seed;
    let detect_cfg = seal::scale::scale_detect_config();
    let diff_cfg = seal::core::DiffConfig::default();
    let no_cache = AnalysisCache::disabled();
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut items, mut failed) = (0, 0);
    let t0 = Instant::now();
    while budget.more(items) {
        tr.item.set(items);
        tr.span("sweep", || {
            let (target, patches) = tr.span("corpus.stream", || {
                let mut stream = CorpusStream::new(&config);
                let mut target = stream.prelude().to_string();
                let mut patches = Vec::new();
                for item in stream.by_ref() {
                    match item {
                        StreamItem::Driver(d) => {
                            target.push_str(&d.source);
                            target.push('\n');
                        }
                        StreamItem::Patch(p) => patches.push(p.patch),
                    }
                }
                (target, patches)
            });
            *v.entry("kir.lines").or_default() += target.lines().count() as f64;
            let tu = tr
                .span("kir.compile", || seal::kir::compile(&target, "kernel.c"))
                .expect("the generated kernel compiles");
            let module = tr
                .span("ir.lower", || seal::ir::lower_checked(&tu))
                .expect("the generated kernel lowers");
            let bytes = seal::ir::codec::encode_module(&module);
            let decoded = tr.span("ir.decode", || seal::ir::codec::decode_module(&bytes));
            std::hint::black_box(decoded.expect("an encoded module decodes"));
            *v.entry("ir.functions").or_default() += module.functions.len() as f64;

            let mut specs = Vec::new();
            for p in &patches {
                let Ok(compiled) = tr.span("infer.compile", || p.compile()) else {
                    failed += 1;
                    continue;
                };
                let changed = tr.span("infer.diff", || {
                    seal::core::diff::diff_patch(&compiled, &diff_cfg)
                });
                specs.extend(tr.span("infer.extract", || {
                    seal::core::extract::extract_specs(&compiled, &changed)
                }));
            }
            *v.entry("infer.patches").or_default() += patches.len() as f64;
            *v.entry("infer.specs").or_default() += specs.len() as f64;

            let t2 = Instant::now();
            let (reports, st) = tr.span("detect", || {
                seal::core::detect::detect_bugs_with_stats_jobs_cached(
                    &module,
                    &specs,
                    &detect_cfg,
                    2,
                    &no_cache,
                )
            });
            let wall2 = ms(t2.elapsed());
            let t1 = Instant::now();
            let (reports1, st1) = tr.span("detect.jobs1", || {
                seal::core::detect::detect_bugs_with_stats_jobs_cached(
                    &module,
                    &specs,
                    &detect_cfg,
                    1,
                    &no_cache,
                )
            });
            let wall1 = ms(t1.elapsed());
            if seal::scale::render_reports(&reports) != reference
                || seal::scale::render_reports(&reports1) != reference
            {
                failed += 1;
            }
            let cpu2 = ms(st.pdg_time) + ms(st.search_time);
            for (k, x) in [
                ("detect.wall_ms", wall2),
                ("detect.pdg_cpu_ms", ms(st.pdg_time)),
                ("detect.search_cpu_ms", ms(st.search_time)),
                ("detect.regions", st.regions as f64),
                ("detect.regions_skipped", st.skipped as f64),
                ("detect.solver_queries", st.solver_queries as f64),
                ("detect.solver_hits", st.solver_cache_hits as f64),
                ("detect.subtrees_pruned", st.subtrees_pruned as f64),
                ("detect.reports", reports.len() as f64),
                ("detect.jobs1_wall_ms", wall1),
                ("detect.jobs1_pdg_cpu_ms", ms(st1.pdg_time)),
                ("detect.cpu_ms", cpu2),
            ] {
                *v.entry(k).or_default() += x;
            }

            let spill = a.out.join(format!("spill-{tag}-{items}"));
            let run = tr
                .span("scale.prepare", || {
                    seal::scale::ScaleRun::prepare(seal::scale::ScaleOptions {
                        config: config.clone(),
                        jobs: 2,
                        streamed: true,
                        max_rss_mb: Some(0),
                        spill_dir: Some(spill.clone()),
                        ..seal::scale::ScaleOptions::default()
                    })
                })
                .expect("the scale tier prepares");
            let out = tr
                .span("scale.finish", || run.finish())
                .expect("the scale tier finishes");
            if seal::scale::render_reports(&out.reports) != reference || out.score.recall() < 1.0 {
                failed += 1;
            }
            for (k, x) in [
                ("spill.writes", out.spill.writes),
                ("spill.reads", out.spill.reads),
                ("spill.bytes_written", out.spill.bytes_written),
                ("spill.recomputes", out.spill.recomputes),
                ("spill.dir_bytes", dir_bytes(&spill)),
            ] {
                *v.entry(k).or_default() += x as f64;
            }
            let _ = std::fs::remove_dir_all(&spill);
        });
        items += 1;
    }
    Pass {
        items,
        failed,
        wall: t0.elapsed(),
        values: v,
    }
}

/// Shard count of one detection call, read from the program's own
/// `detect.shards` counter (a separate, untimed call: enabling the
/// metrics registry would perturb the timed ones).
fn sweep_shards(a: &Args) -> f64 {
    let mut config = seal::scale::eval_base_config();
    config.seed = a.seed;
    let corpus = seal::corpus::generate(&config);
    let module = corpus.target_module();
    let seal = seal::core::Seal::default();
    let specs: Vec<_> = corpus
        .patches
        .iter()
        .filter_map(|p| seal.infer(p).ok())
        .flatten()
        .collect();
    seal::obs::metrics::enable();
    let _ = seal::core::detect::detect_bugs_with_stats_jobs_cached(
        &module,
        &specs,
        &seal::scale::scale_detect_config(),
        2,
        &AnalysisCache::disabled(),
    );
    counter(&seal::obs::metrics::take(), "detect.shards")
}

fn counter(snap: &seal::obs::MetricsSnapshot, name: &str) -> f64 {
    match snap.metrics.get(name).map(|m| &m.value) {
        Some(seal::obs::metrics::MetricValue::Counter(c)) => *c as f64,
        _ => 0.0,
    }
}

// --------------------------------------------------------------- rehunt_edit

/// One round = what one `seal hunt --jobs 2 --cache-dir D` process does
/// over the round's edited corpus: open the store, run the request, flush.
/// The frontend work on the edited target (KIR compile, IR lower, module
/// decode) is also timed on its own, from the layers' public functions.
fn rehunt_pass(a: &Args, tr: &Tracer, budget: Budget, tag: &str) -> Pass {
    let reference = read(&a.data.join("ref.txt"));
    let rounds: Vec<(PathBuf, Vec<String>, Vec<String>)> = read(&a.data.join("rounds.tsv"))
        .lines()
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            (
                a.data.join(f[0]),
                abs_list(&a.data, f[1]),
                abs_list(&a.data, f[2]),
            )
        })
        .collect();
    let base = read(&a.data.join("base.tsv"));
    let base: Vec<&str> = base.trim_end().split('\t').collect();
    let hunt = |pre: &[String], post: &[String]| RequestKind::Hunt {
        pre: pre.to_vec(),
        post: post.to_vec(),
        id: "patch".to_string(),
        target: vec![TARGET.to_string()],
    };
    let cwd = std::env::current_dir().expect("the working directory exists");
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut items, mut failed) = (0, 0);
    let t0 = Instant::now();

    // Whole epochs, as in the end-to-end run: an empty store, one cold
    // set-up hunt over the unedited corpus, then every round in order.
    while budget.more(items) {
        let store = cwd.join(&a.out).join(format!("store-{tag}"));
        let _ = std::fs::remove_dir_all(&store);
        std::env::set_current_dir(a.data.join(base[0])).expect("the corpus directory exists");
        tr.item.set(usize::MAX);
        tr.span("setup", || {
            let cache = AnalysisCache::open(&store, CacheMode::ReadWrite).expect("the store opens");
            let ctx = RunCtx { cache, jobs: 2 };
            let base = hunt(&abs_list(&a.data, base[1]), &abs_list(&a.data, base[2]));
            match run_request(&ctx, &base) {
                Ok(r) if r.stdout == reference => {}
                _ => failed += 1,
            }
            ctx.cache.flush().expect("the store flushes");
        });
        for (dir, pre, post) in &rounds {
            std::env::set_current_dir(dir).expect("the round directory exists");
            tr.item.set(items);
            tr.span("round", || {
                let cache = tr
                    .span("store.open", || {
                        AnalysisCache::open(&store, CacheMode::ReadWrite)
                    })
                    .expect("the store opens");
                let text = read(Path::new(TARGET));
                let tu = tr
                    .span("kir.compile", || {
                        seal::kir::compile_many(&[(TARGET, &text)])
                    })
                    .expect("the edited kernel compiles");
                *v.entry("kir.lines").or_default() += text.lines().count() as f64;
                let module = tr
                    .span("ir.lower", || seal::ir::lower_checked(&tu))
                    .expect("the edited kernel lowers");
                *v.entry("ir.functions").or_default() += module.functions.len() as f64;
                let bytes = seal::ir::codec::encode_module(&module);
                let decoded = tr.span("ir.decode", || seal::ir::codec::decode_module(&bytes));
                std::hint::black_box(decoded.expect("an encoded module decodes"));
                let ctx = RunCtx { cache, jobs: 2 };
                let res = tr.span("request.run", || run_request(&ctx, &hunt(pre, post)));
                match res {
                    Ok(r) if r.stdout == reference && r.failures.is_empty() => {}
                    _ => failed += 1,
                }
                if tr.span("store.flush", || ctx.cache.flush()).is_err() {
                    failed += 1;
                }
                let s = ctx.cache.stats();
                for (k, x) in [
                    ("store.hits", s.hits),
                    ("store.misses", s.misses),
                    ("store.bytes_read", s.bytes_read),
                    ("store.invalidations", s.invalidations),
                ] {
                    *v.entry(k).or_default() += x as f64;
                }
            });
            items += 1;
        }
        let file = std::fs::metadata(store.join(seal_store::STORE_FILE)).map_or(0, |m| m.len());
        v.insert("store.file_bytes", file as f64);
    }
    std::env::set_current_dir(&cwd).expect("the working directory exists");
    let wall = t0.elapsed();
    Pass {
        items,
        failed,
        wall,
        values: v,
    }
}

// --------------------------------------------------------------- serve_mixed

/// One line of `requests.tsv`: a per-patch hunt, fresh (edited, never
/// seen) or a repeat of a primed base patch, and its reference output.
struct Request {
    fresh: bool,
    pre: String,
    post: String,
    reference: String,
}

fn load_requests(a: &Args, file: &str) -> Vec<Request> {
    let refs = a.data.join("refs");
    let mut texts: BTreeMap<String, String> = BTreeMap::new();
    read(&a.data.join(file))
        .lines()
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            let reference = texts
                .entry(f[3].to_string())
                .or_insert_with(|| read(&refs.join(format!("{}.txt", f[3]))))
                .clone();
            Request {
                fresh: f[0] == "fresh",
                pre: a.data.join(f[1]).to_string_lossy().into_owned(),
                post: a.data.join(f[2]).to_string_lossy().into_owned(),
                reference,
            }
        })
        .collect()
}

fn hunt_one(r: &Request) -> RequestKind {
    RequestKind::Hunt {
        pre: vec![r.pre.clone()],
        post: vec![r.post.clone()],
        id: "patch".to_string(),
        target: vec![TARGET.to_string()],
    }
}

/// The daemon's request path in-process: one warm-layered cache shared by
/// every request (no store), primed with every base patch, then the
/// seeded request sequence. A fresh request's inference is also timed on
/// its own through `Patch::compile`, `diff_patch` and `extract_specs`.
fn serve_pass(a: &Args, tr: &Tracer, budget: Budget) -> Pass {
    let prime = load_requests(a, "prime.tsv");
    let requests = load_requests(a, "requests.tsv");
    let diff_cfg = seal::core::DiffConfig::default();
    let cwd = std::env::current_dir().expect("the working directory exists");
    std::env::set_current_dir(a.data.join("corpus")).expect("the corpus directory exists");
    let ctx = RunCtx {
        cache: AnalysisCache::disabled().with_warm(WarmMemory::with_default_budget()),
        jobs: 1,
    };
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut items, mut failed) = (0, 0);
    let t0 = Instant::now();
    tr.item.set(usize::MAX);
    tr.span("setup", || {
        for r in &prime {
            match run_request(&ctx, &hunt_one(r)) {
                Ok(res) if res.stdout == r.reference => {}
                _ => failed += 1,
            }
        }
    });
    while budget.more(items) && items < requests.len() {
        let r = &requests[items];
        tr.item.set(items);
        tr.span("request", || {
            if r.fresh {
                let p = Patch::new("patch", read(Path::new(&r.pre)), read(Path::new(&r.post)));
                if let Ok(c) = tr.span("infer.compile", || p.compile()) {
                    let changed =
                        tr.span("infer.diff", || seal::core::diff::diff_patch(&c, &diff_cfg));
                    let specs = tr.span("infer.extract", || {
                        seal::core::extract::extract_specs(&c, &changed)
                    });
                    *v.entry("infer.patches").or_default() += 1.0;
                    *v.entry("infer.specs").or_default() += specs.len() as f64;
                }
            }
            match tr.span("request.run", || run_request(&ctx, &hunt_one(r))) {
                Ok(res) if res.stdout == r.reference && res.failures.is_empty() => {}
                _ => failed += 1,
            }
        });
        items += 1;
    }
    let wall = t0.elapsed();
    std::env::set_current_dir(&cwd).expect("the working directory exists");
    let w = ctx
        .cache
        .warm()
        .expect("the replay cache is warm-layered")
        .stats();
    for (k, x) in [
        ("warm.hits", w.hits),
        ("warm.misses", w.misses),
        ("warm.evictions", w.evictions),
        ("warm.used_bytes", w.used_bytes),
    ] {
        v.insert(k, x as f64);
    }
    Pass {
        items,
        failed,
        wall,
        values: v,
    }
}

/// A `seal serve` daemon for the round-trip half of `serve.overhead_ms`.
struct Daemon {
    child: Child,
    sock: String,
}

impl Daemon {
    fn spawn(seal: &Path, dir: &Path, sock: &str) -> Daemon {
        let child = Command::new(seal)
            .args(["serve", "--listen", sock, "--jobs", "1"])
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("the seal binary starts");
        Daemon {
            child,
            sock: sock.to_string(),
        }
    }

    fn connect(&self) -> std::os::unix::net::UnixStream {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match std::os::unix::net::UnixStream::connect(&self.sock) {
                Ok(s) => return s,
                Err(e) if Instant::now() > deadline => panic!("the daemon never listened: {e}"),
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// `serve.overhead_ms`: median socket round trip of a warm repeat request
/// minus the median in-process `run_request` time of the same requests.
/// Socket paths are short relative paths (the daemon and this process
/// share the corpus directory as working directory) because a Unix socket
/// path is limited to ~108 bytes.
fn serve_overhead(a: &Args) -> (f64, usize) {
    let prime = load_requests(a, "prime.tsv");
    let corpus = a.data.join("corpus");
    let depth = a.data_rel.join("corpus").components().count();
    let sock = format!("{}{}/replay.sock", "../".repeat(depth), a.out.display());
    let cwd = std::env::current_dir().expect("the working directory exists");
    std::env::set_current_dir(&corpus).expect("the corpus directory exists");
    let line = |r: &Request| {
        format!(
            "{{\"cmd\":\"hunt\",\"pre\":[\"{}\"],\"post\":[\"{}\"],\"target\":[\"{TARGET}\"]}}\n",
            escape(&r.pre),
            escape(&r.post)
        )
    };
    let mut failed = 0;
    let round_trips = {
        let daemon = Daemon::spawn(&a.seal, &corpus, &sock);
        let stream = daemon.connect();
        let mut writer = stream.try_clone().expect("the socket clones");
        let mut reader = BufReader::new(stream);
        let mut ask = |text: &str| {
            let t = Instant::now();
            writer.write_all(text.as_bytes()).expect("the daemon reads");
            let mut resp = String::new();
            reader.read_line(&mut resp).expect("the daemon answers");
            (ms(t.elapsed()), resp)
        };
        for r in &prime {
            ask(&line(r));
        }
        let mut rts = Vec::new();
        for r in prime.iter().cycle().take(2 * prime.len()) {
            let (t, resp) = ask(&line(r));
            let answer = seal::json::Json::parse(resp.trim_end()).ok();
            let output = answer
                .as_ref()
                .and_then(|j| j.get("output"))
                .and_then(seal::json::Json::as_str);
            if output != Some(r.reference.as_str()) {
                failed += 1;
            }
            rts.push(t);
        }
        ask("{\"cmd\":\"shutdown\"}\n");
        rts
    };
    let ctx = RunCtx {
        cache: AnalysisCache::disabled().with_warm(WarmMemory::with_default_budget()),
        jobs: 1,
    };
    for r in &prime {
        let _ = run_request(&ctx, &hunt_one(r));
    }
    let mut runs = Vec::new();
    for r in prime.iter().cycle().take(2 * prime.len()) {
        let t = Instant::now();
        let _ = std::hint::black_box(run_request(&ctx, &hunt_one(r)));
        runs.push(ms(t.elapsed()));
    }
    std::env::set_current_dir(&cwd).expect("the working directory exists");
    (median(round_trips) - median(runs), failed)
}

// ---------------------------------------------------------------------- main

fn run_pass(a: &Args, tr: &Tracer, budget: Budget, tag: &str) -> Pass {
    match a.workload.as_str() {
        "sweep_cold" => sweep_pass(a, tr, budget, tag),
        "rehunt_edit" => rehunt_pass(a, tr, budget, tag),
        "serve_mixed" => serve_pass(a, tr, budget),
        other => panic!("unknown workload `{other}`"),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

// -------------------------------------------------------------------- launch

// The layouts below are the 64-bit Linux ones; elsewhere wait4 would write
// a differently shaped struct.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("seal-replay reads the 64-bit Linux `struct rusage`");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs of which
/// the first is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reaps `pid` and returns (exit status word, user+sys CPU s, peak RSS KiB).
fn reap(pid: u32) -> (i32, f64, i64) {
    let mut status = 0i32;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        _rest: [0; 13],
    };
    let pid = i32::try_from(pid).expect("a pid fits in pid_t");
    // SAFETY: `status` and `ru` are live, writable and laid out as the
    // kernel's `int` and 64-bit Linux `struct rusage`; `pid` is our own
    // unreaped child, so wait4 writes both exactly once and returns.
    let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
    assert_eq!(r, pid, "wait4 failed on our own child");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    (status, secs(&ru.utime) + secs(&ru.stime), ru.maxrss)
}

/// The benchmark's process launcher. A child's `ru_maxrss` counts the
/// memory image it was forked from, so processes spawned straight from
/// the Python harness would report the interpreter's RSS as their peak.
/// This small process spawns them instead. It reads one command per stdin
/// line, `cwd \t stdout-file \t argv...`, runs it with stderr discarded,
/// and answers `wall_s cpu_s peak_rss_kib exit_code` on stdout.
fn launch() {
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    for line in stdin.lock().lines() {
        let line = line.expect("the harness writes text lines");
        let f: Vec<&str> = line.split('\t').collect();
        let out = std::fs::File::create(f[1]).expect("the stdout file can be created");
        let t0 = Instant::now();
        let answer = match Command::new(f[2])
            .args(&f[3..])
            .current_dir(f[0])
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(Stdio::null())
            .spawn()
        {
            Ok(child) => {
                let (status, cpu, rss) = reap(child.id());
                let wall = t0.elapsed().as_secs_f64();
                // WIFEXITED: low 7 bits clear; then the code is bits 8..16.
                let code = if status & 0x7f == 0 {
                    (status >> 8) & 0xff
                } else {
                    -1
                };
                format!("{wall:.9} {cpu:.6} {rss} {code}")
            }
            Err(_) => "0 0 0 -1".to_string(),
        };
        writeln!(stdout, "{answer}").expect("the harness reads answers");
        stdout.flush().expect("the harness reads answers");
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("launch") {
        return launch();
    }
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("seal-replay: {e}");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(&a.out).expect("the output directory can be created");
    let half = Duration::from_secs_f64((a.seconds / 2.0).max(0.1));
    let off = run_pass(
        &a,
        &Tracer::new(false),
        Budget::Until(Instant::now() + half),
        "off",
    );
    let tr = Tracer::new(true);
    let on = run_pass(&a, &tr, Budget::Items(off.items), "on");
    tr.write_jsonl(&a.out.join("spans.jsonl"))
        .expect("the span file can be written");

    let n = on.items.max(1) as f64;
    let self_ms = tr.self_ms();
    let per_item = |name: &str| self_ms.get(name).copied().unwrap_or(0.0) / n;
    let val = |name: &str| on.values.get(name).copied().unwrap_or(0.0);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (metric, span) in [
        ("corpus.stream_ms", "corpus.stream"),
        ("kir.compile_ms", "kir.compile"),
        ("ir.lower_ms", "ir.lower"),
        ("ir.decode_ms", "ir.decode"),
        ("infer.compile_ms", "infer.compile"),
        ("infer.diff_ms", "infer.diff"),
        ("infer.extract_ms", "infer.extract"),
        ("scale.prepare_ms", "scale.prepare"),
        ("scale.finish_ms", "scale.finish"),
        ("store.open_ms", "store.open"),
        ("store.flush_ms", "store.flush"),
        ("request.run_ms", "request.run"),
    ] {
        m.insert(metric, per_item(span));
    }
    m.insert(
        "kir.lines_per_ms",
        ratio(
            val("kir.lines"),
            self_ms.get("kir.compile").copied().unwrap_or(0.0),
        ),
    );
    for name in [
        "ir.functions",
        "infer.patches",
        "infer.specs",
        "detect.wall_ms",
        "detect.pdg_cpu_ms",
        "detect.search_cpu_ms",
        "detect.regions",
        "detect.regions_skipped",
        "detect.solver_queries",
        "detect.subtrees_pruned",
        "detect.reports",
        "spill.writes",
        "spill.reads",
        "spill.bytes_written",
        "spill.recomputes",
        "store.hits",
        "store.misses",
        "store.bytes_read",
        "store.invalidations",
    ] {
        m.insert(name, val(name) / n);
    }
    m.insert("spill.dir_mb", val("spill.dir_bytes") / n / 1048576.0);
    m.insert(
        "detect.solver_hit_ratio",
        ratio(val("detect.solver_hits"), val("detect.solver_queries")),
    );
    m.insert(
        "runtime.busy_ratio",
        ratio(val("detect.cpu_ms"), 2.0 * val("detect.wall_ms")),
    );
    m.insert(
        "runtime.speedup_2v1",
        ratio(val("detect.jobs1_wall_ms"), val("detect.wall_ms")),
    );
    m.insert(
        "detect.pdg_cpu_ratio_2v1",
        ratio(val("detect.pdg_cpu_ms"), val("detect.jobs1_pdg_cpu_ms")),
    );
    m.insert(
        "store.hit_ratio",
        ratio(val("store.hits"), val("store.hits") + val("store.misses")),
    );
    m.insert("store.file_mb", val("store.file_bytes") / 1048576.0);
    for name in ["warm.hits", "warm.misses", "warm.evictions"] {
        m.insert(name, val(name));
    }
    m.insert(
        "warm.hit_ratio",
        ratio(val("warm.hits"), val("warm.hits") + val("warm.misses")),
    );
    m.insert("warm.used_mb", val("warm.used_bytes") / 1048576.0);
    m.insert("trace.overhead_ratio", ratio(ms(on.wall), ms(off.wall)));

    let mut failed = off.failed + on.failed;
    let mut attempted = off.items + on.items;
    match a.workload.as_str() {
        "sweep_cold" => {
            m.insert("detect.shards", sweep_shards(&a));
        }
        "serve_mixed" => {
            let (overhead, bad) = serve_overhead(&a);
            m.insert("serve.overhead_ms", overhead);
            failed += bad;
            attempted += 1;
        }
        _ => {}
    }
    m.entry("detect.shards").or_insert(0.0);
    m.entry("serve.overhead_ms").or_insert(0.0);

    let mut line = format!(
        "{{\"attempted\":{attempted},\"failed\":{failed},\"items\":{},\"wall_off_ms\":{:.3},\"wall_on_ms\":{:.3},\"spans\":{},\"metrics\":{{",
        on.items,
        ms(off.wall),
        ms(on.wall),
        tr.spans.borrow().len()
    );
    for (i, (k, x)) in m.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(line, "{sep}\"{k}\":{x}");
    }
    line.push_str("}}");
    println!("{line}");
}
