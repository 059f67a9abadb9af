//! `seal serve` — the warm-state analysis daemon.
//!
//! A long-running process accepting batches of infer/detect/hunt requests
//! over a line-oriented JSONL protocol, on stdin/stdout or a `--listen`
//! Unix socket. Request lines are JSON objects:
//!
//! ```text
//! {"cmd":"hunt","pre":["p.pre.c"],"post":["p.post.c"],"target":["kernel.c"]}
//! {"cmd":"batch","items":[{"cmd":"infer","pre":[…],"post":[…]}, …]}
//! {"cmd":"ping"}   {"cmd":"stats"}   {"cmd":"shutdown"}
//! ```
//!
//! and every *item* yields exactly one JSON response line:
//!
//! ```text
//! {"seq":3,"item":0,"ok":true,"code":0,"output":"…","notes":[…],"failures":[]}
//! ```
//!
//! `output` is byte-identical to the stdout of the equivalent solo CLI
//! invocation — both run through [`crate::request::run_request`]. Failure
//! semantics follow the CLI's exit-code classes: `code` 0 all items
//! succeeded, 1 fatal (with `stage` + `error` fields), 2 completed with
//! per-item failures (listed with their `[stage]`). A malformed or
//! oversized request line yields a per-line `stage:"protocol"` error and
//! the daemon keeps serving; a panic inside an item is contained by the
//! PR-4 fence and reported the same way.
//!
//! **Concurrency.** The socket mode serves N connections at once: the
//! accept loop spawns one handler thread per connection, bounded by
//! `--max-conns` — a connection beyond the bound is answered with one
//! `stage:"protocol"` "server busy" line (`seq` 0, since no request was
//! read) and closed. Each connection gets its own [`Session`] (its `seq`
//! counter starts at 1 and is gapless per connection, never shared across
//! clients), while the warm state is daemon-global and thread-safe: the
//! [`AnalysisCache`] and its [`WarmMemory`] are `Sync` (sharded LRU,
//! mutexed store maps), and store flushes are serialized behind the
//! store's flush lock. A panic in one handler is contained by the PR-4
//! fence and never kills sibling connections.
//!
//! `{"cmd":"shutdown"}` (from any connection) stops the accept loop,
//! drains in-flight connections (handlers notice the flag within their
//! 100 ms read-timeout tick; the drain waits up to
//! `SEAL_SERVE_DRAIN_TIMEOUT_MS`, default 30 s), then performs the one
//! atomic final flush. Connection-level I/O errors never kill the daemon:
//! each logs one stderr line and bumps `serve.conn_errors`; a failed
//! *flush* additionally sets the daemon's exit-code class to 2 so silent
//! persistence failures are visible to CI.
//!
//! What stays warm across requests: the open store handle, the
//! [`AnalysisCache`] with its [`WarmMemory`] LRU (lowered modules, spec
//! lists, shard results keyed by scope signature, the solver's
//! [`FormulaSnapshot`](seal_solver::FormulaSnapshot)), and the process
//! itself (symbol interner shards, allocator state). EOF and an explicit
//! `shutdown` both flush the store atomically before exit.

use crate::json::{escape, Json};
use crate::request::{run_request, RequestKind, RunCtx};
use seal_core::AnalysisCache;
use seal_runtime::catch_task_panic;
use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default ceiling on one request line (64 MiB). Overridable via
/// `SEAL_SERVE_MAX_LINE` (bytes) — tests use a small value.
pub const DEFAULT_MAX_LINE: usize = 64 * 1024 * 1024;

/// Default bound on simultaneously served connections (`--max-conns`).
pub const DEFAULT_MAX_CONNS: usize = 16;

/// How long a drained handler can go without noticing the shutdown flag:
/// the per-connection socket read timeout.
const READ_TICK: Duration = Duration::from_millis(100);

/// Default ceiling on waiting for in-flight connections at shutdown.
const DEFAULT_DRAIN_TIMEOUT_MS: u64 = 30_000;

/// Resolves the request-line ceiling from `SEAL_SERVE_MAX_LINE`. An
/// unparseable or zero value is an error — silently falling back to the
/// 64 MiB default would make a typo'd limit invisible. `main` maps the
/// error to the usage exit class (2).
pub fn resolve_max_line() -> Result<usize, String> {
    match std::env::var("SEAL_SERVE_MAX_LINE") {
        Err(_) => Ok(DEFAULT_MAX_LINE),
        Ok(raw) => match raw.parse::<usize>() {
            Ok(0) => Err("SEAL_SERVE_MAX_LINE must be at least 1 byte, got `0`".to_string()),
            Ok(n) => Ok(n),
            Err(_) => Err(format!(
                "SEAL_SERVE_MAX_LINE must be a byte count, got `{raw}`"
            )),
        },
    }
}

/// Daemon configuration, resolved (and validated) from CLI flags and the
/// environment by `main`.
pub struct ServeOptions {
    /// Unix-socket path to listen on; `None` serves stdin/stdout.
    pub listen: Option<String>,
    /// Default worker count for items that carry no `"jobs"` field.
    pub jobs: usize,
    /// Bound on simultaneously served socket connections.
    pub max_conns: usize,
    /// Ceiling on one request line, in bytes.
    pub max_line: usize,
}

/// Daemon-global state, shared by every connection handler. Everything
/// mutable here is atomic or lock-protected; per-connection state lives in
/// [`Session`].
struct Daemon {
    cache: AnalysisCache,
    default_jobs: usize,
    max_line: usize,
    /// The socket path (socket mode only) — the shutdown waker connects to
    /// it to unblock the accept loop.
    listen_path: Option<String>,
    /// Set by `{"cmd":"shutdown"}` on any connection; checked by the
    /// accept loop and by every handler's read tick.
    shutdown: AtomicBool,
    /// Whether any served item failed anywhere (daemon exit-code class 2).
    any_failed: AtomicBool,
    /// Currently served connections, for admission and drain.
    active: Mutex<usize>,
    /// Signaled whenever a handler exits (the drain waits on this).
    idle: Condvar,
}

/// One connection's private state. `seq` counts this connection's request
/// lines (malformed lines included: their error responses need an
/// identity too) — per-connection, so it is gapless and deterministic no
/// matter what sibling connections do.
struct Session<'a> {
    daemon: &'a Daemon,
    seq: u64,
    /// Whether any item on this connection failed.
    any_failed: bool,
    /// Set by `{"cmd":"shutdown"}` received on this connection.
    shutdown: bool,
}

/// Runs the daemon to completion. Returns whether every served item
/// succeeded; `Err` is the fatal class (socket bind failure, broken
/// output stream, failed final flush).
pub fn serve(cache: &AnalysisCache, opts: &ServeOptions) -> Result<bool, String> {
    let daemon = Arc::new(Daemon {
        cache: cache.clone(),
        default_jobs: opts.jobs,
        max_line: opts.max_line,
        listen_path: opts.listen.clone(),
        shutdown: AtomicBool::new(false),
        any_failed: AtomicBool::new(false),
        active: Mutex::new(0),
        idle: Condvar::new(),
    });
    match &opts.listen {
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let mut session = Session {
                daemon: &daemon,
                seq: 0,
                any_failed: false,
                shutdown: false,
            };
            serve_stream(
                &mut session,
                stdin.lock(),
                stdout.lock(),
                opts.max_line,
                &|| false,
            )?;
            if session.any_failed {
                daemon.any_failed.store(true, Ordering::Release);
            }
        }
        Some(path) => serve_unix(&daemon, path, opts.max_conns)?,
    }
    // EOF and shutdown both land here: one atomic store flush, then exit.
    daemon
        .cache
        .store()
        .flush_atomic()
        .map_err(|e| format!("cannot flush cache: {e}"))?;
    Ok(!daemon.any_failed.load(Ordering::Acquire))
}

#[cfg(unix)]
fn serve_unix(daemon: &Arc<Daemon>, path: &str, max_conns: usize) -> Result<(), String> {
    use std::os::unix::net::{UnixListener, UnixStream};
    // Reclaiming the path must not steal a *running* daemon's address:
    // probe first. A live daemon accepts the connect; a genuinely stale
    // file (previous daemon died without unlinking) refuses it.
    if std::fs::metadata(path).is_ok() {
        match UnixStream::connect(path) {
            Ok(_) => {
                return Err(format!(
                    "cannot listen on {path}: address in use by a live daemon \
                     (shut it down or pick another --listen path)"
                ))
            }
            Err(_) => {
                let _ = std::fs::remove_file(path);
            }
        }
    }
    let listener = UnixListener::bind(path).map_err(|e| format!("cannot listen on {path}: {e}"))?;
    eprintln!("seal serve: listening on {path}");
    loop {
        let (stream, _) = match listener.accept() {
            Ok(s) => s,
            Err(e) => return Err(format!("accept failed on {path}: {e}")),
        };
        if daemon.shutdown.load(Ordering::Acquire) {
            break; // The accepted stream is the shutdown waker (or a late client); drop it.
        }
        {
            let mut active = daemon.active.lock().unwrap();
            if *active >= max_conns {
                drop(active);
                seal_obs::metrics::counter_add_nd("serve.conns_rejected", 1);
                // No request line was read, so the busy error carries seq 0.
                let busy = protocol_error(
                    0,
                    &format!("server busy: {max_conns} connection(s) already active (--max-conns)"),
                );
                if let Err(e) = write_line(&mut (&stream), &busy) {
                    conn_error(&e);
                }
                continue;
            }
            *active += 1;
            seal_obs::metrics::counter_add_nd("serve.conns_total", 1);
            seal_obs::metrics::gauge_set_nd("serve.conns_active", *active as i64);
            seal_obs::metrics::gauge_max_nd("serve.conns_active_peak", *active as i64);
        }
        let daemon = Arc::clone(daemon);
        std::thread::spawn(move || {
            // The fence contains a handler panic to its own connection;
            // siblings and the accept loop keep running.
            if let Err(p) = catch_task_panic(|| handle_connection(&daemon, stream)) {
                conn_error(&format!("connection handler panicked: {p}"));
            }
            let mut active = daemon.active.lock().unwrap();
            *active -= 1;
            seal_obs::metrics::gauge_set_nd("serve.conns_active", *active as i64);
            drop(active);
            daemon.idle.notify_all();
        });
    }
    drain(daemon);
    let _ = std::fs::remove_file(path);
    Ok(())
}

#[cfg(not(unix))]
fn serve_unix(_daemon: &Arc<Daemon>, path: &str, _max_conns: usize) -> Result<(), String> {
    Err(format!(
        "--listen {path}: unix sockets are not supported on this platform"
    ))
}

/// Serves one accepted socket connection to its end.
#[cfg(unix)]
fn handle_connection(daemon: &Arc<Daemon>, stream: std::os::unix::net::UnixStream) {
    let _span = seal_obs::task_span!("serve.conn");
    // The read timeout is the drain tick: a handler blocked on an idle
    // client re-checks the shutdown flag every READ_TICK instead of
    // stalling the drain forever.
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(e) => {
            conn_error(&format!("cannot clone socket stream: {e}"));
            return;
        }
    };
    let mut session = Session {
        daemon,
        seq: 0,
        any_failed: false,
        shutdown: false,
    };
    let d = Arc::clone(daemon);
    let stop = move || d.shutdown.load(Ordering::Acquire);
    // A broken connection ends that connection, not the daemon — but it
    // is logged and counted, never silently dropped.
    if let Err(e) = serve_stream(&mut session, reader, &stream, daemon.max_line, &stop) {
        conn_error(&e);
    }
    if session.any_failed {
        daemon.any_failed.store(true, Ordering::Release);
    }
    // Persist incrementally at connection end; the atomic rewrite happens
    // once at daemon exit. A failed flush is a persistence failure CI must
    // see: exit-code class 2.
    if let Err(e) = daemon.cache.flush() {
        conn_error(&format!("incremental flush failed: {e}"));
        daemon.any_failed.store(true, Ordering::Release);
    }
    if session.shutdown {
        // This connection carried {"cmd":"shutdown"}: wake the accept
        // loop, which is blocked in accept(), so it observes the flag.
        if let Some(path) = &daemon.listen_path {
            let _ = std::os::unix::net::UnixStream::connect(path);
        }
    }
}

/// Waits for in-flight connections to finish, up to
/// `SEAL_SERVE_DRAIN_TIMEOUT_MS`. Handlers observe the shutdown flag on
/// their next read tick and return; a handler stuck past the deadline is
/// abandoned (the final atomic flush is still safe — flushes are
/// serialized by the store's flush lock).
fn drain(daemon: &Daemon) {
    let timeout_ms = std::env::var("SEAL_SERVE_DRAIN_TIMEOUT_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(DEFAULT_DRAIN_TIMEOUT_MS);
    let deadline = Instant::now() + Duration::from_millis(timeout_ms);
    let mut active = daemon.active.lock().unwrap();
    while *active > 0 {
        let now = Instant::now();
        if now >= deadline {
            eprintln!(
                "seal serve: shutdown drain timed out with {} connection(s) still active",
                *active
            );
            break;
        }
        let (guard, _) = daemon.idle.wait_timeout(active, deadline - now).unwrap();
        active = guard;
    }
}

/// Logs one dropped connection-level error and counts it. Connection
/// errors are per-client events (broken pipe, mid-line disconnect); they
/// never terminate the daemon, but they must not vanish either.
fn conn_error(msg: &str) {
    seal_obs::metrics::counter_add_nd("serve.conn_errors", 1);
    eprintln!("seal serve: connection error: {msg}");
}

/// Serves one line stream until EOF, shutdown, or a drain stop.
fn serve_stream(
    session: &mut Session,
    mut reader: impl BufRead,
    mut writer: impl Write,
    max_line: usize,
    should_stop: &dyn Fn() -> bool,
) -> Result<(), String> {
    loop {
        match read_bounded_line(&mut reader, max_line, should_stop) {
            Err(e) => return Err(format!("cannot read request line: {e}")),
            Ok(LineRead::Eof) => return Ok(()),
            Ok(LineRead::TooLong(len)) => {
                session.seq += 1;
                session.any_failed = true;
                seal_obs::metrics::counter_add_nd("serve.requests", 1);
                let line = protocol_error(
                    session.seq,
                    &format!("request line of {len} bytes exceeds the {max_line}-byte limit"),
                );
                write_line(&mut writer, &line)?;
            }
            Ok(LineRead::Line(text)) => {
                if text.trim().is_empty() {
                    continue;
                }
                session.seq += 1;
                seal_obs::metrics::counter_add_nd("serve.requests", 1);
                let responses = {
                    let _span = seal_obs::span!("serve.request");
                    handle_request(session, &text)
                };
                for line in &responses {
                    write_line(&mut writer, line)?;
                }
                if session.shutdown {
                    return Ok(());
                }
            }
        }
    }
}

fn write_line(writer: &mut impl Write, line: &str) -> Result<(), String> {
    writeln!(writer, "{line}")
        .and_then(|_| writer.flush())
        .map_err(|e| format!("cannot write response: {e}"))
}

/// Handles one parsed-or-not request line; returns the response lines.
fn handle_request(session: &mut Session, text: &str) -> Vec<String> {
    let seq = session.seq;
    let req = match Json::parse(text) {
        Ok(v) => v,
        Err(e) => {
            session.any_failed = true;
            return vec![protocol_error(seq, &format!("malformed JSON: {e}"))];
        }
    };
    let Some(cmd) = req.get("cmd").and_then(Json::as_str) else {
        session.any_failed = true;
        return vec![protocol_error(seq, "missing string field `cmd`")];
    };
    match cmd {
        "ping" => vec![format!("{{\"seq\":{seq},\"ok\":true,\"pong\":true}}")],
        "stats" => vec![stats_line(session, seq)],
        "shutdown" => {
            session.shutdown = true;
            session.daemon.shutdown.store(true, Ordering::Release);
            vec![format!("{{\"seq\":{seq},\"ok\":true,\"shutdown\":true}}")]
        }
        "batch" => {
            let Some(items) = req.get("items").and_then(Json::as_arr) else {
                session.any_failed = true;
                return vec![protocol_error(seq, "batch needs an `items` array")];
            };
            items
                .iter()
                .enumerate()
                .map(|(i, item)| run_item(session, item, seq, i))
                .collect()
        }
        "infer" | "detect" | "hunt" => vec![run_item(session, &req, seq, 0)],
        other => {
            session.any_failed = true;
            vec![protocol_error(seq, &format!("unknown cmd `{other}`"))]
        }
    }
}

/// Executes one item and renders its response line. Never panics out:
/// shape errors become `protocol` responses, fatal run errors `request`
/// responses, and a contained panic a `panic` response.
fn run_item(session: &mut Session, item: &Json, seq: u64, idx: usize) -> String {
    seal_obs::metrics::counter_add_nd("serve.items", 1);
    let kind = match parse_kind(item) {
        Ok(k) => k,
        Err(e) => {
            session.any_failed = true;
            return item_error(seq, idx, "protocol", &e);
        }
    };
    let jobs = match item.get("jobs") {
        None => session.daemon.default_jobs,
        Some(v) => match v.as_num().filter(|n| n.fract() == 0.0 && *n >= 1.0) {
            Some(n) if (n as usize) <= 1024 => n as usize,
            _ => {
                session.any_failed = true;
                return item_error(
                    seq,
                    idx,
                    "protocol",
                    "`jobs` must be an integer in 1..=1024",
                );
            }
        },
    };
    let ctx = RunCtx {
        cache: session.daemon.cache.clone(),
        jobs,
    };
    // Final fence: run_request is already staged-and-isolated inside, but
    // a panic anywhere else in the request path must poison this item
    // only, never the daemon.
    match catch_task_panic(|| run_request(&ctx, &kind)) {
        Ok(Ok(result)) => {
            let code = result.code();
            if code != 0 {
                session.any_failed = true;
            }
            let mut line = format!(
                "{{\"seq\":{seq},\"item\":{idx},\"ok\":{},\"code\":{code},\"output\":\"{}\"",
                code == 0,
                escape(&result.stdout)
            );
            if !result.notes.is_empty() {
                line.push_str(",\"notes\":[");
                for (i, n) in result.notes.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    line.push_str(&format!("\"{}\"", escape(n)));
                }
                line.push(']');
            }
            line.push_str(",\"failures\":[");
            for (i, f) in result.failures.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push_str(&format!(
                    "{{\"id\":\"{}\",\"stage\":\"{}\",\"message\":\"{}\"}}",
                    escape(&f.id),
                    escape(&f.stage),
                    escape(&f.message)
                ));
            }
            line.push_str("]}");
            line
        }
        Ok(Err(fatal)) => {
            session.any_failed = true;
            item_error(seq, idx, "request", &fatal)
        }
        Err(p) => {
            session.any_failed = true;
            item_error(seq, idx, "panic", &p.to_string())
        }
    }
}

/// Normalizes one item object into a [`RequestKind`].
fn parse_kind(item: &Json) -> Result<RequestKind, String> {
    let cmd = item
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or("missing string field `cmd`")?;
    let id = || -> Result<String, String> {
        match item.get("id") {
            None => Ok("patch".to_string()),
            Some(v) => v
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| "`id` must be a string".to_string()),
        }
    };
    match cmd {
        "infer" => Ok(RequestKind::Infer {
            pre: path_list(item, "pre")?,
            post: path_list(item, "post")?,
            id: id()?,
        }),
        "detect" => Ok(RequestKind::Detect {
            target: path_list(item, "target")?,
            specs: item
                .get("specs")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or("missing string field `specs`")?,
        }),
        "hunt" => Ok(RequestKind::Hunt {
            pre: path_list(item, "pre")?,
            post: path_list(item, "post")?,
            id: id()?,
            target: path_list(item, "target")?,
        }),
        other => Err(format!("unknown item cmd `{other}`")),
    }
}

/// A file-list field: either an array of strings or one comma-separated
/// string with the CLI's semantics (empty entries rejected).
fn path_list(item: &Json, key: &str) -> Result<Vec<String>, String> {
    let paths = match item.get(key) {
        None => return Err(format!("missing field `{key}`")),
        Some(Json::Str(s)) => s.split(',').map(str::to_string).collect::<Vec<_>>(),
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("`{key}` must contain only strings"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        Some(_) => return Err(format!("`{key}` must be a string or an array of strings")),
    };
    if paths.is_empty() || paths.iter().any(|s| s.trim().is_empty()) {
        return Err(format!("`{key}` contains an empty entry"));
    }
    Ok(paths)
}

fn protocol_error(seq: u64, msg: &str) -> String {
    format!(
        "{{\"seq\":{seq},\"ok\":false,\"code\":1,\"stage\":\"protocol\",\"error\":\"{}\"}}",
        escape(msg)
    )
}

fn item_error(seq: u64, idx: usize, stage: &str, msg: &str) -> String {
    format!(
        "{{\"seq\":{seq},\"item\":{idx},\"ok\":false,\"code\":1,\"stage\":\"{stage}\",\"error\":\"{}\"}}",
        escape(msg)
    )
}

/// Renders the `stats` reply: warm-layer counters, store counters, and
/// the process's peak resident set (`VmHWM`).
fn stats_line(session: &Session, seq: u64) -> String {
    let mut line = format!("{{\"seq\":{seq},\"ok\":true");
    if let Some(warm) = session.daemon.cache.warm() {
        let w = warm.stats();
        line.push_str(&format!(
            ",\"warm\":{{\"hits\":{},\"misses\":{},\"insertions\":{},\"evictions\":{},\
             \"used_bytes\":{},\"budget_bytes\":{},\"entries\":{}}}",
            w.hits, w.misses, w.insertions, w.evictions, w.used_bytes, w.budget_bytes, w.entries
        ));
    }
    let s = session.daemon.cache.stats();
    line.push_str(&format!(
        ",\"store\":{{\"hits\":{},\"misses\":{},\"bytes_read\":{},\"invalidations\":{},\
         \"disk_entries\":{},\"pending_puts\":{}}}",
        s.hits, s.misses, s.bytes_read, s.invalidations, s.disk_entries, s.pending_puts
    ));
    line.push_str(&format!(
        ",\"rss_peak_kb\":{}}}",
        seal_core::spill::proc_status_kb("VmHWM").unwrap_or(0)
    ));
    line
}

/// One bounded line read.
enum LineRead {
    /// A complete line (newline stripped) within the limit.
    Line(String),
    /// The line exceeded `max` bytes; it was consumed (through its
    /// newline) and discarded, so the stream is resynced. Carries the
    /// discarded length.
    TooLong(usize),
    /// Clean end of stream.
    Eof,
}

/// True for the error kinds a socket read timeout produces (the drain
/// tick), which are retried rather than treated as connection failures.
fn is_read_tick(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::Interrupted
    )
}

/// Reads one `\n`-terminated line, buffering at most `max` bytes. An
/// oversized line is drained without buffering, so a hostile megabyte
/// line costs I/O but not memory. A read-timeout tick re-checks
/// `should_stop` (the daemon's shutdown flag) and otherwise retries with
/// the partial line intact, so an idle connection never stalls a
/// shutdown drain but a slow client never loses bytes.
fn read_bounded_line(
    r: &mut impl BufRead,
    max: usize,
    should_stop: &dyn Fn() -> bool,
) -> std::io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = match r.fill_buf() {
            Ok(c) => c,
            Err(e) if is_read_tick(&e) => {
                if should_stop() {
                    return Ok(LineRead::Eof);
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                let fits = buf.len() + i <= max;
                if fits {
                    buf.extend_from_slice(&chunk[..i]);
                }
                let total = buf.len() + if fits { 0 } else { i };
                r.consume(i + 1);
                return Ok(if fits {
                    LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
                } else {
                    LineRead::TooLong(total)
                });
            }
            None => {
                let n = chunk.len();
                if buf.len() + n > max {
                    // Over budget with no newline in sight: drain the rest
                    // of the line chunk-by-chunk without keeping it.
                    let mut total = buf.len() + n;
                    buf.clear();
                    r.consume(n);
                    loop {
                        let chunk = match r.fill_buf() {
                            Ok(c) => c,
                            Err(e) if is_read_tick(&e) => {
                                if should_stop() {
                                    return Ok(LineRead::TooLong(total));
                                }
                                continue;
                            }
                            Err(e) => return Err(e),
                        };
                        if chunk.is_empty() {
                            return Ok(LineRead::TooLong(total));
                        }
                        match chunk.iter().position(|&b| b == b'\n') {
                            Some(i) => {
                                total += i;
                                r.consume(i + 1);
                                return Ok(LineRead::TooLong(total));
                            }
                            None => {
                                total += chunk.len();
                                let n = chunk.len();
                                r.consume(n);
                            }
                        }
                    }
                }
                buf.extend_from_slice(chunk);
                r.consume(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NEVER: &dyn Fn() -> bool = &|| false;

    #[test]
    fn bounded_line_reader_handles_the_edge_cases() {
        let mut r = std::io::Cursor::new(b"short\nx".to_vec());
        assert!(matches!(
            read_bounded_line(&mut r, 100, NEVER).unwrap(),
            LineRead::Line(l) if l == "short"
        ));
        // Final line without a newline still comes back.
        assert!(matches!(
            read_bounded_line(&mut r, 100, NEVER).unwrap(),
            LineRead::Line(l) if l == "x"
        ));
        assert!(matches!(
            read_bounded_line(&mut r, 100, NEVER).unwrap(),
            LineRead::Eof
        ));
    }

    #[test]
    fn oversized_line_is_drained_and_stream_resyncs() {
        let mut data = vec![b'a'; 1000];
        data.push(b'\n');
        data.extend_from_slice(b"next\n");
        let mut r = std::io::Cursor::new(data);
        assert!(matches!(
            read_bounded_line(&mut r, 10, NEVER).unwrap(),
            LineRead::TooLong(1000)
        ));
        // The stream is positioned at the next line.
        assert!(matches!(
            read_bounded_line(&mut r, 10, NEVER).unwrap(),
            LineRead::Line(l) if l == "next"
        ));
    }

    #[test]
    fn exact_limit_line_is_accepted() {
        let mut r = std::io::Cursor::new(b"abcde\n".to_vec());
        assert!(matches!(
            read_bounded_line(&mut r, 5, NEVER).unwrap(),
            LineRead::Line(l) if l == "abcde"
        ));
    }

    /// A reader that yields timeout errors between chunks, like a socket
    /// with a read timeout and a slow peer.
    struct Ticky {
        chunks: Vec<Option<Vec<u8>>>, // None = one timeout tick
        at: usize,
        buf: Vec<u8>,
    }

    impl std::io::Read for Ticky {
        fn read(&mut self, _b: &mut [u8]) -> std::io::Result<usize> {
            unreachable!("BufRead is implemented directly")
        }
    }

    impl BufRead for Ticky {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            if self.buf.is_empty() {
                match self.chunks.get(self.at) {
                    None => return Ok(&[]),
                    Some(None) => {
                        self.at += 1;
                        return Err(std::io::Error::from(std::io::ErrorKind::WouldBlock));
                    }
                    Some(Some(c)) => {
                        self.buf = c.clone();
                        self.at += 1;
                    }
                }
            }
            Ok(&self.buf)
        }
        fn consume(&mut self, n: usize) {
            self.buf.drain(..n);
        }
    }

    #[test]
    fn timeout_ticks_preserve_the_partial_line_until_stop() {
        // tick, "he", tick, "llo\n" — must come back as one line.
        let mut r = Ticky {
            chunks: vec![None, Some(b"he".to_vec()), None, Some(b"llo\n".to_vec())],
            at: 0,
            buf: Vec::new(),
        };
        assert!(matches!(
            read_bounded_line(&mut r, 100, NEVER).unwrap(),
            LineRead::Line(l) if l == "hello"
        ));
        // With stop requested, the first tick ends the stream.
        let mut r = Ticky {
            chunks: vec![None, Some(b"never\n".to_vec())],
            at: 0,
            buf: Vec::new(),
        };
        assert!(matches!(
            read_bounded_line(&mut r, 100, &|| true).unwrap(),
            LineRead::Eof
        ));
    }
}
