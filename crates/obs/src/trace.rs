//! Hierarchical spans with monotonic timing and a deterministic JSONL
//! serialization.
//!
//! # Model
//!
//! A [`Span`] guard opened with [`crate::span!`] nests under the innermost
//! open span *on the same thread* (a thread-local stack); one opened with
//! [`crate::task_span!`] is always a root. Closing a span (dropping the
//! guard) stamps its duration; completed roots are shipped into the
//! installed [`Trace`].
//!
//! # Determinism contract
//!
//! The serialized forest is identical — ids, ordering, names, fields,
//! nesting — for any worker count and across repeated runs of a
//! deterministic program; only `dur_us` varies:
//!
//! * children appear in execution order, which is sequential (hence
//!   deterministic) within one task;
//! * attached roots (opened on the thread that installed the trace) keep
//!   their record order — the main thread runs phases sequentially;
//! * task roots (`task_span!`, or any root completing on another thread)
//!   are sorted by their canonical *masked* rendering — name, fields, and
//!   subtree shape, durations zeroed — so pool scheduling order cannot
//!   leak into the trace. Instrumentation must give concurrent task roots
//!   distinct names/fields/shapes (patch ids and shard scopes do).
//!
//! The practical discipline this imposes: every span recorded on a pool
//! worker must sit inside a `task_span!`.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTOR: Mutex<Option<Collector>> = Mutex::new(None);

struct Collector {
    /// Completed roots in arrival order, tagged `detached` for task roots.
    roots: Vec<(bool, SpanRec)>,
    /// The thread that installed the trace; roots completed elsewhere are
    /// treated as detached even without `task_span!`.
    owner: ThreadId,
}

/// Whether a trace is currently installed. The macros check this before
/// evaluating their field expressions.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One completed span: a node of the trace forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Span name (dot-separated stage path, e.g. `pdg.build`).
    pub name: &'static str,
    /// Key→value annotations captured at open time.
    pub fields: Vec<(&'static str, String)>,
    /// Wall-clock duration in microseconds (the one nondeterministic
    /// component; masked by golden comparisons).
    pub dur_us: u64,
    /// Child spans in execution order.
    pub children: Vec<SpanRec>,
}

struct Pending {
    rec: SpanRec,
    start: Instant,
    detached: bool,
}

thread_local! {
    static STACK: RefCell<Vec<Pending>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for one open span. Created by the [`crate::span!`] and
/// [`crate::task_span!`] macros; closing happens on drop.
#[must_use = "a span measures the scope it is bound to; bind it with `let _span = ...`"]
pub struct Span {
    active: bool,
}

impl Span {
    /// Opens a nesting span (macro backend; prefer [`crate::span!`]).
    pub fn enter(name: &'static str, fields: Vec<(&'static str, String)>) -> Span {
        Span::begin(name, fields, false)
    }

    /// Opens a task-root span (macro backend; prefer
    /// [`crate::task_span!`]).
    pub fn root(name: &'static str, fields: Vec<(&'static str, String)>) -> Span {
        Span::begin(name, fields, true)
    }

    /// The no-op guard the macros return while tracing is disabled.
    pub fn disabled() -> Span {
        Span { active: false }
    }

    fn begin(name: &'static str, fields: Vec<(&'static str, String)>, detached: bool) -> Span {
        if !enabled() {
            return Span::disabled();
        }
        STACK.with(|s| {
            s.borrow_mut().push(Pending {
                rec: SpanRec {
                    name,
                    fields,
                    dur_us: 0,
                    children: Vec::new(),
                },
                start: Instant::now(),
                detached,
            })
        });
        Span { active: true }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let Some(mut p) = stack.pop() else {
                return; // trace swapped out mid-span; nothing to attribute
            };
            p.rec.dur_us = p.start.elapsed().as_micros() as u64;
            if !p.detached {
                if let Some(parent) = stack.last_mut() {
                    parent.rec.children.push(p.rec);
                    return;
                }
            }
            let mut guard = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(c) = guard.as_mut() {
                let detached = p.detached || std::thread::current().id() != c.owner;
                c.roots.push((detached, p.rec));
            }
        });
    }
}

/// Handle to the installed per-run trace. Only one trace can be installed
/// per process at a time; spans recorded anywhere in the process while it
/// is installed land in it.
pub struct Trace {
    finished: bool,
}

impl Trace {
    /// Installs a fresh trace collector and enables span recording.
    /// Returns `None` when a trace is already installed.
    pub fn install() -> Option<Trace> {
        let mut guard = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
        if guard.is_some() {
            return None;
        }
        *guard = Some(Collector {
            roots: Vec::new(),
            owner: std::thread::current().id(),
        });
        ENABLED.store(true, Ordering::Relaxed);
        Some(Trace { finished: false })
    }

    /// Disables recording and returns the canonically ordered span forest.
    pub fn finish(mut self) -> TraceData {
        self.finished = true;
        ENABLED.store(false, Ordering::Relaxed);
        let collected = COLLECTOR
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .map(|c| c.roots)
            .unwrap_or_default();
        let mut attached = Vec::new();
        let mut detached = Vec::new();
        for (is_detached, rec) in collected {
            if is_detached {
                detached.push(rec);
            } else {
                attached.push(rec);
            }
        }
        // Canonical order for task roots: the masked rendering of the whole
        // subtree, so completion order (pool scheduling) cannot leak in and
        // even equal (name, fields) pairs order deterministically as long
        // as their subtrees are deterministic.
        detached.sort_by_cached_key(masked_key);
        attached.extend(detached);
        TraceData { roots: attached }
    }
}

impl Drop for Trace {
    fn drop(&mut self) {
        if !self.finished {
            ENABLED.store(false, Ordering::Relaxed);
            COLLECTOR.lock().unwrap_or_else(|e| e.into_inner()).take();
        }
    }
}

fn masked_key(r: &SpanRec) -> String {
    let mut out = String::new();
    masked_key_into(r, &mut out);
    out
}

fn masked_key_into(r: &SpanRec, out: &mut String) {
    out.push_str(r.name);
    for (k, v) in &r.fields {
        out.push('\u{1}');
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out.push('[');
    for c in &r.children {
        masked_key_into(c, out);
        out.push(';');
    }
    out.push(']');
}

/// A finished trace: the canonically ordered span forest plus its JSONL
/// round-trip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceData {
    /// Root spans in canonical order.
    pub roots: Vec<SpanRec>,
}

impl TraceData {
    /// Serializes to JSON Lines: a header line, then one line per span in
    /// depth-first order with ids assigned in that order (ids and `parent`
    /// references are therefore as deterministic as the forest itself).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::from("{\"seal_trace\":1}\n");
        let mut next_id = 1u64;
        for r in &self.roots {
            write_span(r, 0, &mut next_id, &mut out);
        }
        out
    }

    /// Parses the output of [`TraceData::to_jsonl`] back into a forest.
    /// This is a reader for *our own* writer, not a general JSON parser.
    pub fn parse_jsonl(text: &str) -> Result<TraceData, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        match lines.next() {
            Some(h) if h.contains("\"seal_trace\":") => {}
            _ => return Err("missing seal_trace header line".to_string()),
        }
        // (id, parent, rec) in file order; parents always precede children.
        let mut spans: Vec<(u64, u64, SpanRec)> = Vec::new();
        for line in lines {
            let id = json_u64(line, "id").ok_or_else(|| format!("span line without id: {line}"))?;
            let parent = json_u64(line, "parent")
                .ok_or_else(|| format!("span line without parent: {line}"))?;
            let name =
                json_str(line, "name").ok_or_else(|| format!("span line without name: {line}"))?;
            let dur_us = json_u64(line, "dur_us")
                .ok_or_else(|| format!("span line without dur_us: {line}"))?;
            spans.push((
                id,
                parent,
                SpanRec {
                    name: leak(name),
                    fields: json_fields(line)?
                        .into_iter()
                        .map(|(k, v)| (leak(k), v))
                        .collect(),
                    dur_us,
                    children: Vec::new(),
                },
            ));
        }
        // Rebuild bottom-up: children attach to the nearest earlier parent.
        let mut forest: Vec<(u64, u64, SpanRec)> = Vec::new();
        for span in spans {
            forest.push(span);
        }
        let mut roots = Vec::new();
        while let Some((id, parent, rec)) = forest.pop() {
            if parent == 0 {
                roots.push(rec);
            } else {
                let p = forest
                    .iter_mut()
                    .find(|(pid, _, _)| *pid == parent)
                    .ok_or_else(|| format!("span {id} references missing parent {parent}"))?;
                p.2.children.insert(0, rec);
            }
        }
        roots.reverse();
        Ok(TraceData { roots })
    }

    /// Flattened `(depth, span)` view in serialization order, for
    /// aggregation (`seal stats`) and structural assertions.
    pub fn flatten(&self) -> Vec<(usize, &SpanRec)> {
        let mut out = Vec::new();
        fn walk<'a>(r: &'a SpanRec, depth: usize, out: &mut Vec<(usize, &'a SpanRec)>) {
            out.push((depth, r));
            for c in &r.children {
                walk(c, depth + 1, out);
            }
        }
        for r in &self.roots {
            walk(r, 0, &mut out);
        }
        out
    }
}

/// Replaces every `"dur_us":<digits>` value in a serialized trace with
/// `"dur_us":0` — the masking golden comparisons apply before diffing.
pub fn mask_durations(jsonl: &str) -> String {
    let mut out = String::with_capacity(jsonl.len());
    let needle = "\"dur_us\":";
    for line in jsonl.lines() {
        if let Some(at) = line.find(needle) {
            let tail = &line[at + needle.len()..];
            let digits = tail.chars().take_while(|c| c.is_ascii_digit()).count();
            out.push_str(&line[..at + needle.len()]);
            out.push('0');
            out.push_str(&tail[digits..]);
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

fn write_span(r: &SpanRec, parent: u64, next_id: &mut u64, out: &mut String) {
    let id = *next_id;
    *next_id += 1;
    out.push_str(&format!("{{\"id\":{id},\"parent\":{parent},\"name\":\""));
    escape_into(r.name, out);
    out.push_str("\",\"fields\":{");
    for (i, (k, v)) in r.fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(k, out);
        out.push_str("\":\"");
        escape_into(v, out);
        out.push('"');
    }
    out.push_str(&format!("}},\"dur_us\":{}}}\n", r.dur_us));
    for c in &r.children {
        write_span(c, id, next_id, out);
    }
}

/// Appends `s` escaped for embedding in a JSON string literal (quotes
/// excluded) — the one JSON string escaper of the workspace.
pub fn escape_into(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                if let Some(c) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    out.push(c);
                }
            }
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// Extracts `"key":<u64>` from one serialized line.
pub(crate) fn json_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let digits: String = line[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Extracts `"key":"<string>"` (unescaped) from one serialized line.
pub(crate) fn json_str(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":\"");
    let at = line.find(&needle)? + needle.len();
    let end = raw_string_end(&line[at..])?;
    Some(unescape(&line[at..at + end]))
}

/// Byte offset of the closing quote of a JSON string body.
fn raw_string_end(s: &str) -> Option<usize> {
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if escaped {
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '"' {
            return Some(i);
        }
    }
    None
}

/// Extracts the `"fields":{...}` object from one span line.
fn json_fields(line: &str) -> Result<Vec<(String, String)>, String> {
    let needle = "\"fields\":{";
    let Some(start) = line.find(needle) else {
        return Err(format!("span line without fields: {line}"));
    };
    let mut rest = &line[start + needle.len()..];
    let mut out = Vec::new();
    loop {
        rest = rest.trim_start_matches([',', ' ']);
        if let Some(r) = rest.strip_prefix('}') {
            let _ = r;
            return Ok(out);
        }
        let Some(r) = rest.strip_prefix('"') else {
            return Err(format!("malformed fields object: {line}"));
        };
        let kend = raw_string_end(r).ok_or_else(|| format!("unterminated field key: {line}"))?;
        let key = unescape(&r[..kend]);
        let r = r[kend + 1..]
            .strip_prefix(":\"")
            .ok_or_else(|| format!("malformed field value: {line}"))?;
        let vend = raw_string_end(r).ok_or_else(|| format!("unterminated field value: {line}"))?;
        out.push((key, unescape(&r[..vend])));
        rest = &r[vend + 1..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Trace installation is process-global; serialize the tests that use it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn spans_nest_on_one_thread() {
        let _l = lock();
        let trace = Trace::install().unwrap();
        {
            let _a = crate::span!("outer", item = 1);
            let _b = crate::span!("inner");
        }
        let data = trace.finish();
        assert_eq!(data.roots.len(), 1);
        assert_eq!(data.roots[0].name, "outer");
        assert_eq!(data.roots[0].fields, vec![("item", "1".to_string())]);
        assert_eq!(data.roots[0].children.len(), 1);
        assert_eq!(data.roots[0].children[0].name, "inner");
    }

    #[test]
    fn task_roots_do_not_nest_and_sort_canonically() {
        let _l = lock();
        let trace = Trace::install().unwrap();
        {
            let _outer = crate::span!("phase");
            // Reverse key order: canonical sort must restore b < c.
            {
                let _t = crate::task_span!("item", id = "c");
            }
            {
                let _t = crate::task_span!("item", id = "b");
            }
        }
        let data = trace.finish();
        let names: Vec<_> = data
            .roots
            .iter()
            .map(|r| (r.name, r.fields.clone()))
            .collect();
        assert_eq!(names[0].0, "phase");
        assert_eq!(names[1].1, vec![("id", "b".to_string())]);
        assert_eq!(names[2].1, vec![("id", "c".to_string())]);
    }

    #[test]
    fn worker_thread_roots_are_detached() {
        let _l = lock();
        let trace = Trace::install().unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _t = crate::span!("on.worker");
            });
        });
        let data = trace.finish();
        assert_eq!(data.roots.len(), 1);
        assert_eq!(data.roots[0].name, "on.worker");
    }

    #[test]
    fn jsonl_roundtrip_and_masking() {
        let data = TraceData {
            roots: vec![SpanRec {
                name: "a",
                fields: vec![("k", "v \"quoted\"".to_string())],
                dur_us: 1234,
                children: vec![SpanRec {
                    name: "b",
                    fields: vec![],
                    dur_us: 56,
                    children: vec![],
                }],
            }],
        };
        let jsonl = data.to_jsonl();
        let back = TraceData::parse_jsonl(&jsonl).unwrap();
        assert_eq!(back, data);
        let masked = mask_durations(&jsonl);
        assert!(masked.contains("\"dur_us\":0"));
        assert!(!masked.contains("1234"));
        // Masking is idempotent and structure-preserving.
        assert_eq!(mask_durations(&masked), masked);
        let remasked = TraceData::parse_jsonl(&masked).unwrap();
        assert_eq!(remasked.flatten().len(), data.flatten().len());
    }

    #[test]
    fn disabled_spans_cost_nothing_and_record_nothing() {
        let _l = lock();
        assert!(!enabled());
        let _s = crate::span!("never");
        let trace = Trace::install().unwrap();
        let data = trace.finish();
        assert!(data.roots.is_empty());
    }

    #[test]
    fn second_install_is_rejected() {
        let _l = lock();
        let t1 = Trace::install().unwrap();
        assert!(Trace::install().is_none());
        drop(t1); // dropping uninstalls
        let t2 = Trace::install().unwrap();
        t2.finish();
    }
}
