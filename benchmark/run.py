#!/usr/bin/env python3
"""End-to-end benchmark of the `seal` CLI and daemon.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 benchmark/run.py --self-test

Run from the repository root (any working directory works; paths are
resolved from this file). The script builds `seal` and the replay harness
from source (`cargo build --release --offline`, into `$CARGO_TARGET_DIR`,
default `.bench_build`), generates the seed's inputs and reference outputs
once under `.bench_data/`, and measures one workload:

  sweep_cold   repeated `seal scale-run --mode streamed --jobs 2 --max-rss-mb 0`
  rehunt_edit  repeated `seal hunt --jobs 2 --cache-dir D` over edited rounds
  serve_mixed  one `seal serve --listen S --jobs 1` daemon, 2 closed-loop clients

With `--trace 0` it reports the end-to-end metrics of BENCHMARK.json; with
`--trace 1` it runs `seal-replay`, which replays the same items in-process
with spans around each layer call, and reports the per-layer metrics. Every
item's output is compared byte for byte with its reference. A human
readable table goes to stdout first; the last stdout line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

See benchmark/README.md for why each workload exists and what each metric
is meant to move.
"""

import argparse
import json
import math
import os
import random
import re
import shutil
import socket
import selectors
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sweep_cold", "rehunt_edit", "serve_mixed")
TARGET = "kernel/core/kernel.c"
# Bump when the generated inputs change shape, so stale data is not reused.
DATA_VERSION = "v1"

# Workload sizes. Each workload is one harness process driving the
# program with at most 2 worker threads or 2 connections.
SIZES = {
    "full": {
        "rehunt_drivers": 48,
        "rehunt_rounds": 30,
        "serve_drivers": 48,
        "serve_requests": 30000,
    },
    "tiny": {
        "rehunt_drivers": 4,
        "rehunt_rounds": 4,
        "serve_drivers": 4,
        "serve_requests": 200,
    },
}
EDIT_SHARE = 0.10  # patch pairs and target functions edited per round
FRESH_SHARE = 0.10  # serve requests that carry a never-seen patch
SETUP_REPEATS = 5  # set-ups per run; setup_s is their median
WINDOW_S = 1.0  # serve_mixed throughput and CPU are medians over windows
# serve_mixed peak RSS is read after this many timed requests: the warm
# layer grows with every fresh patch, so a later reading would grow with
# the host's speed rather than with the program's memory use.
RSS_AFTER = 6000
KEEP_SEEDS = 4  # per-seed input directories kept per workload


class BenchError(Exception):
    """The benchmark cannot run (build failure, bad inputs, program crash)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Builds `seal` and `seal-replay`; returns their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for extra in (["--bin", "seal"], ["--manifest-path", "benchmark/replay/Cargo.toml"]):
        r = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet"] + extra,
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            stderr=sys.stderr,
        )
        if r.returncode != 0:
            raise BenchError("cargo build failed: " + " ".join(extra))
    rel = os.path.join(target_dir(), "release")
    return os.path.join(rel, "seal"), os.path.join(rel, "seal-replay")


# -------------------------------------------------------------- processes


class Launcher:
    """Runs timed program processes through `seal-replay launch`.

    A child's `ru_maxrss` includes the image it was forked from, so a
    process forked from this interpreter would report the interpreter's
    RSS as its peak; the launcher is a small process whose children report
    their own. It times each process from spawn to reap.
    """

    def __init__(self, replay_bin):
        self.proc = subprocess.Popen(
            [replay_bin, "launch"], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def run(self, argv, cwd, stdout_path):
        """Returns (wall s, cpu s, peak RSS KiB, exit code) of one process."""
        self.proc.stdin.write("\t".join([cwd, stdout_path] + argv) + "\n")
        self.proc.stdin.flush()
        wall, cpu, rss, code = self.proc.stdout.readline().split()
        return float(wall), float(cpu), int(rss), int(code)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def run_checked(argv, cwd):
    """Runs an untimed program step (input generation); returns stdout."""
    r = subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if r.returncode != 0:
        raise BenchError(f"{' '.join(argv[:3])} failed ({r.returncode}): {r.stderr.decode()[-400:]}")
    return r.stdout


def dir_bytes(path):
    total = 0
    for base, _, files in os.walk(path):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(base, f))
            except OSError:
                pass
    return total


def read(path):
    with open(path) as f:
        return f.read()


def write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(text)


# ------------------------------------------------------ scoring and edits

REPORT = re.compile(r"^\[[^\]]+\] .* in \S+:(\w+) \(line \d+\)$", re.M)


def reported_functions(output):
    return set(REPORT.findall(output))


def score(functions, ledger_path):
    """Precision and recall of reported functions against GROUND_TRUTH.tsv,
    at function granularity as `seal_corpus::ledger::score` counts them."""
    bugs = set()
    for line in read(ledger_path).splitlines():
        if line and not line.startswith("#"):
            bugs.add(line.split("\t")[0])
    tp = len(functions & bugs)
    precision = tp / len(functions) if functions else 0.0
    recall = tp / len(bugs) if bugs else 0.0
    return precision, recall


FUNC_HEADER = re.compile(r"^[A-Za-z_][\w \t*]*?\b(\w+)\s*\([^;{}]*\)\s*\{")


def function_lines(lines):
    """Maps function name -> index of the line that opens its body
    (`... name(...) {`, possibly with the body on the same line)."""
    out = {}
    for i, line in enumerate(lines):
        m = FUNC_HEADER.match(line)
        if m:
            out[m.group(1)] = i
    return out


def dead_local(tag, rng):
    return f" int bench_edit_{tag} = {rng.randrange(1, 1 << 20)};"


def edit_functions(text, names, tag, rng):
    """Inserts a dead local declaration right after the opening brace of
    each named function. Line numbers, data flow and seeded bugs are
    unchanged, so the reports stay byte-identical, while the function's
    content hash (and so every cache key over it) changes."""
    lines = text.split("\n")
    heads = function_lines(lines)
    for j, name in enumerate(sorted(names)):
        line = lines[heads[name]]
        brace = line.index("{", line.index("(")) + 1
        lines[heads[name]] = line[:brace] + dead_local(f"{tag}_{j}", rng) + line[brace:]
    return "\n".join(lines)


def edit_patch(pre, post, tag, rng):
    """Edits one function present in both versions of a patch, identically
    on both sides, so the patch's difference and its specs are unchanged."""
    common = sorted(set(function_lines(pre.split("\n"))) & set(function_lines(post.split("\n"))))
    name = rng.choice(common)
    state = rng.getstate()
    new_pre = edit_functions(pre, [name], tag, rng)
    rng.setstate(state)
    return new_pre, edit_functions(post, [name], tag, rng)


def patch_pairs(corpus):
    pdir = os.path.join(corpus, "patches")
    pres = sorted(f for f in os.listdir(pdir) if f.endswith(".pre.c"))
    return [(f"patches/{f}", f"patches/{f[: -len('.pre.c')]}.post.c") for f in pres]


# ------------------------------------------------------------ input data


class Inputs:
    """One seed's generated inputs and references for one workload."""

    def __init__(self, workload, seed, seal, size, root):
        self.workload, self.seed, self.seal, self.size = workload, seed, seal, SIZES[size]
        self.base = os.path.join(root, workload)
        self.dir = os.path.join(self.base, f"seed-{seed}")

    def stamp(self):
        st = os.stat(self.seal)
        return f"{DATA_VERSION} {st.st_size} {st.st_mtime_ns} {json.dumps(self.size, sort_keys=True)}"

    def ensure(self):
        marker = os.path.join(self.dir, "READY")
        if os.path.exists(marker) and read(marker) == self.stamp():
            os.utime(marker)
            return self
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        t0 = time.perf_counter()
        getattr(self, "gen_" + self.workload)()
        write(marker, self.stamp())
        log(f"generated {self.workload} inputs for seed {self.seed} in {time.perf_counter() - t0:.1f}s")
        self.evict()
        return self

    def evict(self):
        seeds = []
        for d in os.listdir(self.base):
            m = os.path.join(self.base, d, "READY")
            if os.path.join(self.base, d) != self.dir and os.path.exists(m):
                seeds.append((os.path.getmtime(m), d))
        for _, d in sorted(seeds)[: max(0, len(seeds) - (KEEP_SEEDS - 1))]:
            shutil.rmtree(os.path.join(self.base, d), ignore_errors=True)

    def gen_corpus(self, drivers):
        corpus = os.path.join(self.dir, "corpus")
        run_checked([self.seal, "gen-corpus", "--dir", corpus, "--seed", str(self.seed), "--drivers", str(drivers)], ROOT)
        return corpus

    def cold_hunt(self, cwd, pres, posts):
        """The reference path: one cold, uncached `seal hunt`."""
        out = run_checked(
            [self.seal, "hunt", "--jobs", "2", "--pre", ",".join(pres), "--post", ",".join(posts), "--target", TARGET],
            cwd,
        )
        return out.decode()

    def gen_sweep_cold(self):
        ref = os.path.join(self.dir, "ref_reports.txt")
        line = run_checked(
            [self.seal, "scale-run", "--mode", "materialized", "--jobs", "2", "--seed", str(self.seed), "--reports-out", ref],
            ROOT,
        )
        write(os.path.join(self.dir, "ref.json"), line.decode())

    def gen_rehunt_edit(self):
        corpus = self.gen_corpus(self.size["rehunt_drivers"])
        pairs = patch_pairs(corpus)
        abs_pre = [os.path.join(corpus, p) for p, _ in pairs]
        abs_post = [os.path.join(corpus, q) for _, q in pairs]
        write(os.path.join(self.dir, "ref.txt"), self.cold_hunt(corpus, abs_pre, abs_post))
        write(
            os.path.join(self.dir, "base.tsv"),
            "corpus\t" + ",".join(f"corpus/{p}" for p, _ in pairs) + "\t" + ",".join(f"corpus/{q}" for _, q in pairs) + "\n",
        )
        kernel = read(os.path.join(corpus, TARGET))
        funcs = sorted(function_lines(kernel.split("\n")))
        texts = {p: read(os.path.join(corpus, p)) for pair in pairs for p in pair}
        n_pairs = max(1, round(EDIT_SHARE * len(pairs)))
        n_funcs = max(1, round(EDIT_SHARE * len(funcs)))
        rows = []
        for r in range(self.size["rehunt_rounds"]):
            rng = random.Random(f"rehunt:{self.seed}:{r}")
            rdir = f"rounds/r{r:04d}"
            write(os.path.join(self.dir, rdir, TARGET), edit_functions(kernel, rng.sample(funcs, n_funcs), f"r{r}", rng))
            pre_list, post_list = [], []
            edited = set(rng.sample(range(len(pairs)), n_pairs))
            for i, (p, q) in enumerate(pairs):
                if i in edited:
                    new_pre, new_post = edit_patch(texts[p], texts[q], f"r{r}p{i}", rng)
                    write(os.path.join(self.dir, rdir, p), new_pre)
                    write(os.path.join(self.dir, rdir, q), new_post)
                    pre_list.append(f"{rdir}/{p}")
                    post_list.append(f"{rdir}/{q}")
                else:
                    pre_list.append(f"corpus/{p}")
                    post_list.append(f"corpus/{q}")
            rows.append(f"{rdir}\t{','.join(pre_list)}\t{','.join(post_list)}")
        write(os.path.join(self.dir, "rounds.tsv"), "\n".join(rows) + "\n")
        # The edits must not change what a cold run prints.
        ref = read(os.path.join(self.dir, "ref.txt"))
        for row in (rows[0], rows[-1]):
            rdir, pres, posts = row.split("\t")
            out = self.cold_hunt(
                os.path.join(self.dir, rdir),
                [os.path.join(self.dir, p) for p in pres.split(",")],
                [os.path.join(self.dir, p) for p in posts.split(",")],
            )
            if out != ref:
                raise BenchError(f"edited round {rdir} changes the cold output")

    def gen_serve_mixed(self):
        corpus = self.gen_corpus(self.size["serve_drivers"])
        pairs = patch_pairs(corpus)
        prime = []
        for i, (p, q) in enumerate(pairs):
            out = self.cold_hunt(corpus, [os.path.join(corpus, p)], [os.path.join(corpus, q)])
            write(os.path.join(self.dir, "refs", f"b{i}.txt"), out)
            prime.append(f"base\tcorpus/{p}\tcorpus/{q}\tb{i}")
        write(os.path.join(self.dir, "prime.tsv"), "\n".join(prime) + "\n")
        rng = random.Random(f"serve:{self.seed}")
        rows, fresh = [], 0
        for _ in range(self.size["serve_requests"]):
            i = rng.randrange(len(pairs))
            p, q = pairs[i]
            if rng.random() < FRESH_SHARE:
                new_pre, new_post = edit_patch(
                    read(os.path.join(corpus, p)), read(os.path.join(corpus, q)), f"f{fresh}", rng
                )
                fp, fq = f"fresh/f{fresh:05d}.pre.c", f"fresh/f{fresh:05d}.post.c"
                write(os.path.join(self.dir, fp), new_pre)
                write(os.path.join(self.dir, fq), new_post)
                rows.append(f"fresh\t{fp}\t{fq}\tb{i}")
                fresh += 1
            else:
                rows.append(f"base\tcorpus/{p}\tcorpus/{q}\tb{i}")
        write(os.path.join(self.dir, "requests.tsv"), "\n".join(rows) + "\n")
        checked = 0
        for row in rows:
            kind, fp, fq, ref = row.split("\t")
            if kind == "fresh" and checked < 3:
                out = self.cold_hunt(corpus, [os.path.join(self.dir, fp)], [os.path.join(self.dir, fq)])
                if out != read(os.path.join(self.dir, "refs", f"{ref}.txt")):
                    raise BenchError(f"edited patch {fp} changes the cold output")
                checked += 1


# ------------------------------------------------------------- measuring


def quantile(values, q):
    """Nearest-rank quantile of a non-empty list (q in (0, 1])."""
    return sorted(values)[math.ceil(q * len(values)) - 1]


class Run:
    """Accumulates one run's items, failures and notes."""

    def __init__(self, out):
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def item(self, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def latency_metrics(lat_s):
    return {
        "item_p50_ms": statistics.median(lat_s) * 1e3,
        "item_p90_ms": quantile(lat_s, 0.90) * 1e3,
    }


def measure_sweep_cold(inp, run, seconds, launcher):
    ref_reports = read(os.path.join(inp.dir, "ref_reports.txt"))
    ref = json.loads(read(os.path.join(inp.dir, "ref.json")))

    def sweep(tag):
        spill = os.path.join(run.out, f"spill-{tag}")
        reports = os.path.join(run.out, f"reports-{tag}.txt")
        stdout = os.path.join(run.out, f"stdout-{tag}.json")
        wall, cpu, rss, code = launcher.run(
            [inp.seal, "scale-run", "--mode", "streamed", "--jobs", "2", "--max-rss-mb", "0",
             "--spill-dir", spill, "--seed", str(inp.seed), "--reports-out", reports],
            ROOT,
            stdout,
        )
        ok = code == 0
        stats = {}
        if ok:
            stats = json.loads(read(stdout).strip().splitlines()[-1])
            ok = (
                read(reports) == ref_reports
                and stats["recall"] == ref["recall"]
                and stats["precision"] == ref["precision"]
                and stats["store_errors"] == 0
            )
        disk = dir_bytes(spill)
        shutil.rmtree(spill, ignore_errors=True)
        for f in (reports, stdout):
            if os.path.exists(f):
                os.remove(f)
        return ok, wall, cpu, rss, disk, stats

    setups = []
    for i in range(SETUP_REPEATS):
        ok, wall, _, rss, _, _ = sweep(f"setup{i}")
        if not ok:
            run.item(False)
        setups.append(wall)
    walls, rates, cpus, rsss, disks = [], [], [], [], []
    last = {}
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or not walls:
        ok, wall, cpu, rss, disk, stats = sweep(len(walls))
        run.item(ok)
        walls.append(wall)
        rsss.append(rss)
        disks.append(disk)
        if ok:
            items = stats["drivers"] + stats["patches"]
            rates.append(items / wall)
            cpus.append(1e3 * cpu / items)
            last = stats
    run.notes.append(
        f"{len(walls)} sweeps of {last.get('drivers', 0)} drivers + {last.get('patches', 0)} patches; "
        f"spill dir {statistics.median(disks) / 2**20:.2f} MB"
    )
    m = {
        "setup_s": statistics.median(setups),
        "items_per_s": median_or_zero(rates),
        "cpu_ms_per_item": median_or_zero(cpus),
        "peak_rss_mb": max(rsss) / 1024,
        "precision": last.get("precision", 0.0),
        "recall": last.get("recall", 0.0),
    }
    m.update(latency_metrics(walls))
    return m, len(walls)


def measure_rehunt_edit(inp, run, seconds, launcher):
    ref = read(os.path.join(inp.dir, "ref.txt"))
    _, base_pre, base_post = read(os.path.join(inp.dir, "base.tsv")).rstrip("\n").split("\t")
    rounds = [r.split("\t") for r in read(os.path.join(inp.dir, "rounds.tsv")).splitlines()]
    stdout = os.path.join(run.out, "stdout.txt")
    functions = set()

    def hunt(cwd, store, pres, posts):
        wall, cpu, rss, code = launcher.run(
            [inp.seal, "hunt", "--jobs", "2", "--cache-dir", store,
             "--pre", ",".join(os.path.join(inp.dir, p) for p in pres.split(",")),
             "--post", ",".join(os.path.join(inp.dir, p) for p in posts.split(",")),
             "--target", TARGET],
            cwd,
            stdout,
        )
        out = read(stdout)
        functions.update(reported_functions(out))
        return code == 0 and out == ref, wall, cpu, rss

    # The store grows with every round, and so does a round's latency.
    # The run is therefore whole epochs (an empty store, its cold set-up
    # hunt, then every generated round in order), so each epoch sees the
    # same growth whatever the host's speed; at least SETUP_REPEATS epochs,
    # and none started after `seconds`.
    setups, walls, rates, cpus, rsss, disks = [], [], [], [], [], []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(setups) < SETUP_REPEATS:
        store = os.path.join(run.out, f"store-{len(setups)}")
        ok, wall, _, rss = hunt(os.path.join(inp.dir, "corpus"), store, base_pre, base_post)
        if not ok:
            run.item(False)
        setups.append(wall)
        rsss.append(rss)
        epoch_wall = epoch_cpu = 0.0
        for rdir, pres, posts in rounds:
            ok, wall, cpu, rss = hunt(os.path.join(inp.dir, rdir), store, pres, posts)
            run.item(ok)
            walls.append(wall)
            rsss.append(rss)
            epoch_wall += wall
            epoch_cpu += cpu
        rates.append(len(rounds) / epoch_wall)
        cpus.append(1e3 * epoch_cpu / len(rounds))
        disks.append(dir_bytes(store))
        shutil.rmtree(store)
    run.notes.append(f"{len(setups)} epochs of {len(rounds)} rounds; store at epoch end {statistics.median(disks) / 2**20:.2f} MB")
    precision, recall = score(functions, os.path.join(inp.dir, "corpus", "GROUND_TRUTH.tsv"))
    m = {
        "setup_s": statistics.median(setups),
        "items_per_s": statistics.median(rates),
        "cpu_ms_per_item": statistics.median(cpus),
        "peak_rss_mb": max(rsss) / 1024,
        "precision": precision,
        "recall": recall,
    }
    m.update(latency_metrics(walls))
    return m, len(walls)


def proc_cpu_s(pid):
    """utime + stime of a live process, in seconds."""
    fields = read(f"/proc/{pid}/stat").rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_hwm_kb(pid):
    for line in read(f"/proc/{pid}/status").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


class Client:
    """One closed-loop JSONL connection to the daemon."""

    def __init__(self, path, deadline):
        while True:
            try:
                self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                self.sock.connect(path)
                break
            except OSError:
                self.sock.close()
                if time.perf_counter() > deadline:
                    raise BenchError("the daemon never started listening")
                time.sleep(0.002)
        self.reader = self.sock.makefile("rb")

    def ask(self, line):
        self.sock.sendall(line.encode() + b"\n")
        resp = self.reader.readline()
        if not resp:
            raise BenchError("the daemon closed the connection")
        return json.loads(resp)

    def close(self):
        self.reader.close()
        self.sock.close()


def closed_loop(clients, lines, seconds, cpu, hwm):
    """Sends `lines` in order over the connections, each connection sending
    its next request only when its previous answer arrived, until
    `seconds` pass or the lines run out. One thread multiplexes the
    connections. Returns [(line index, latency s, raw answer)], one
    (items, wall s, cpu s) triple per whole WINDOW_S window, where `cpu()`
    reads the program's CPU seconds, and `hwm()` (the program's peak RSS)
    read once RSS_AFTER answers arrived, or at the end if fewer did."""
    sel = selectors.DefaultSelector()
    pending = {}  # connection -> (line index, send time, bytes received)
    results = []
    windows = []
    nxt = 0
    t0 = time.perf_counter()
    t_end = t0 + seconds
    tick = (t0, cpu(), 0)  # window start: time, cpu, results so far
    peak = None

    def send(c):
        nonlocal nxt
        if nxt < len(lines) and time.perf_counter() < t_end:
            pending[c] = (nxt, time.perf_counter(), b"")
            c.sock.sendall(lines[nxt].encode() + b"\n")
            nxt += 1
        else:
            sel.unregister(c.sock)

    for c in clients:
        sel.register(c.sock, selectors.EVENT_READ, c)
        send(c)
    while sel.get_map():
        for key, _ in sel.select():
            c = key.data
            chunk = c.sock.recv(1 << 20)
            if not chunk:
                raise BenchError("the daemon closed the connection")
            i, t, buf = pending[c]
            buf += chunk
            if buf.endswith(b"\n"):
                now = time.perf_counter()
                results.append((i, now - t, buf))
                if len(results) == RSS_AFTER:
                    peak = hwm()
                if now - tick[0] >= WINDOW_S:
                    used = cpu()
                    windows.append((len(results) - tick[2], now - tick[0], used - tick[1]))
                    tick = (now, used, len(results))
                send(c)
            else:
                pending[c] = (i, t, buf)
    return results, windows, peak if peak is not None else hwm()


def hunt_line(inp, pre, post):
    return json.dumps(
        {"cmd": "hunt", "pre": [os.path.join(inp.dir, pre)], "post": [os.path.join(inp.dir, post)], "target": [TARGET]}
    )


def measure_serve_mixed(inp, run, seconds, _launcher):
    corpus = os.path.join(inp.dir, "corpus")
    refs = {}

    def ref(name):
        if name not in refs:
            refs[name] = read(os.path.join(inp.dir, "refs", f"{name}.txt"))
        return refs[name]

    prime = [r.split("\t") for r in read(os.path.join(inp.dir, "prime.tsv")).splitlines()]
    requests = [r.split("\t") for r in read(os.path.join(inp.dir, "requests.tsv")).splitlines()]
    lines = [hunt_line(inp, r[1], r[2]) for r in requests]
    sock = os.path.join(run.out, "seal.sock")
    functions = set()

    def check(resp, name):
        out = resp.get("output", "")
        functions.update(reported_functions(out))
        return resp.get("ok") is True and resp.get("code") == 0 and out == ref(name)

    def start():
        """Spawns a daemon, waits for its first `ping`, primes it with every
        base patch; returns (process, client, set-up seconds)."""
        if os.path.exists(sock):
            os.remove(sock)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [inp.seal, "serve", "--listen", os.path.relpath(sock, corpus), "--jobs", "1"],
            cwd=corpus,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            client = Client(os.path.relpath(sock, ROOT), t0 + 60)
            if client.ask('{"cmd":"ping"}').get("pong") is not True:
                raise BenchError("the daemon did not answer ping")
            for _, pre, post, name in prime:
                if not check(client.ask(hunt_line(inp, pre, post)), name):
                    run.item(False)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        return proc, client, time.perf_counter() - t0

    def stop(proc, client):
        hwm = proc_hwm_kb(proc.pid)
        client.ask('{"cmd":"shutdown"}')
        client.close()
        if proc.wait(timeout=60) != 0:
            run.item(False)
        return hwm

    setups, hwms = [], []
    for _ in range(SETUP_REPEATS - 1):
        proc, client, secs = start()
        setups.append(secs)
        hwms.append(stop(proc, client))
    proc, client, secs = start()
    setups.append(secs)
    clients = [client]
    try:
        clients.append(Client(os.path.relpath(sock, ROOT), time.perf_counter() + 60))
        results, windows, peak = closed_loop(
            clients, lines, seconds, lambda: proc_cpu_s(proc.pid), lambda: proc_hwm_kb(proc.pid)
        )
        hwms.append(peak)
        clients[1].close()
        stop(proc, client)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    # Responses are checked after the timed loop, so the client's parsing
    # never delays the other connection's next request.
    for i, _, raw in results:
        run.item(check(json.loads(raw), requests[i][3]))
    if len(results) == len(lines):
        run.notes.append(f"all {len(lines)} generated requests used before {seconds}s")
    fresh = sum(1 for i, _, _ in results if requests[i][0] == "fresh")
    run.notes.append(f"{len(results)} requests ({fresh} fresh) over {len(clients)} connections")
    lat = [x for _, x, _ in results]
    precision, recall = score(functions, os.path.join(corpus, "GROUND_TRUTH.tsv"))
    m = {
        "setup_s": statistics.median(setups),
        "items_per_s": median_or_zero([n / wall for n, wall, _ in windows]),
        "cpu_ms_per_item": median_or_zero([1e3 * cpu / n for n, _, cpu in windows]),
        "peak_rss_mb": max(hwms) / 1024,
        "precision": precision,
        "recall": recall,
    }
    m.update(latency_metrics(lat))
    return m, len(results)


MEASURE = {
    "sweep_cold": measure_sweep_cold,
    "rehunt_edit": measure_rehunt_edit,
    "serve_mixed": measure_serve_mixed,
}


def replay(inp, run, seconds, replay_bin):
    """--trace 1: the per-layer metrics from the in-process replay."""
    out = subprocess.run(
        [replay_bin, "--workload", inp.workload, "--data", os.path.relpath(inp.dir, ROOT),
         "--out", os.path.relpath(run.out, ROOT), "--seed", str(inp.seed),
         "--seconds", str(seconds), "--seal", inp.seal],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    if out.returncode != 0:
        raise BenchError(f"seal-replay failed ({out.returncode}): {out.stderr.decode()[-600:]}")
    res = json.loads(out.stdout.decode().strip().splitlines()[-1])
    run.attempted += res["attempted"]
    run.failed += res["failed"]
    run.notes.append(
        f"replayed {res['items']} items twice: {res['wall_off_ms']:.1f} ms untraced, "
        f"{res['wall_on_ms']:.1f} ms traced, {res['spans']} spans in {os.path.relpath(run.out, ROOT)}/spans.jsonl"
    )
    return res["metrics"], res["items"]


# ------------------------------------------------------------------- host


def host_fingerprint():
    model = "unknown"
    try:
        for line in read("/proc/cpuinfo").splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model}


def steal_ticks():
    try:
        return int(read("/proc/stat").splitlines()[0].split()[8])
    except (OSError, IndexError, ValueError):
        return 0


# ------------------------------------------------------------------- main


def load_spec():
    return json.loads(read(os.path.join(ROOT, "BENCHMARK.json")))


def measure(workload, seed, seconds, trace, bins, size="full", data_root=None, out_root=None):
    """One benchmark run; returns the result object (without printing)."""
    spec = load_spec()
    seal, replay_bin = bins
    data_root = data_root or os.path.join(ROOT, ".bench_data", DATA_VERSION)
    out_root = out_root or os.path.join(ROOT, ".bench_out")
    inp = Inputs(workload, seed, seal, size, data_root).ensure()
    out = os.path.join(out_root, f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    run = Run(out)
    steal0 = steal_ticks()
    if trace:
        values, samples = replay(inp, run, seconds, replay_bin)
        wanted = spec["per_layer"]
    else:
        launcher = Launcher(replay_bin)
        try:
            values, samples = MEASURE[workload](inp, run, seconds, launcher)
        finally:
            launcher.close()
        wanted = spec["end_to_end"]
    host = host_fingerprint()
    host["steal_ticks"] = steal_ticks() - steal0
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    detail = dict(result, workload=workload, seed=seed, trace=trace, samples=samples, host=host, notes=run.notes)
    write(os.path.join(out, "result.json"), json.dumps(detail, indent=1) + "\n")
    if not trace:
        # Per-run state (stores, sockets) is not kept; the result
        # file and span files are.
        for f in os.listdir(out):
            if f != "result.json":
                p = os.path.join(out, f)
                shutil.rmtree(p) if os.path.isdir(p) else os.remove(p)
    return result, detail


def print_table(result, detail):
    print(f"workload {detail['workload']}  seed {detail['seed']}  trace {detail['trace']}  "
          f"samples {detail['samples']}  attempted {result['attempted']}  failed {result['failed']}")
    h = detail["host"]
    print(f"host nproc={h['nproc']} cpu=\"{h['cpu_model']}\" steal_ticks={h['steal_ticks']}")
    for n in detail["notes"]:
        print(f"note {n}")
    for name, m in result["metrics"].items():
        print(f"  {name:<28} {m['value']:>14.4f} {m['unit']}")


def self_test(bins):
    """Tiny-size run of every workload in both modes: every named metric
    must appear with its unit, and a corrupted reference must count as a
    failed item."""
    spec = load_spec()
    data_root = os.path.join(ROOT, ".bench_data", "selftest")
    out_root = os.path.join(ROOT, ".bench_out", "selftest")
    shutil.rmtree(data_root, ignore_errors=True)
    corrupt = {
        "sweep_cold": "ref_reports.txt",
        "rehunt_edit": "ref.txt",
        "serve_mixed": os.path.join("refs", "b0.txt"),
    }
    problems = []
    for w in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            res, _ = measure(w, 1, 1, trace, bins, "tiny", data_root, out_root)
            for m in wanted:
                got = res["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{w} trace {trace}: metric {m['name']} missing or without its unit")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{w} trace {trace}: clean run reported failures ({res['failed']}/{res['attempted']})")
        ref = os.path.join(data_root, w, "seed-1", corrupt[w])
        with open(ref, "a") as f:
            f.write("corrupted\n")
        for trace in (0, 1):
            res, _ = measure(w, 1, 1, trace, bins, "tiny", data_root, out_root)
            if res["correct"] or res["failed"] == 0:
                problems.append(f"{w} trace {trace}: a corrupted reference was not caught")
        log(f"self-test {w}: done")
    shutil.rmtree(data_root, ignore_errors=True)
    shutil.rmtree(out_root, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not (args.self_test or args.workload):
        ap.error("--workload or --self-test is required")
    if not os.path.exists(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(os.path.join(ROOT, "src")):
        log(f"benchmark: {ROOT} holds no SEAL source tree to build")
        return 2
    # Relative paths below (socket paths in particular, which are limited
    # to ~108 bytes) are relative to the repository root.
    os.chdir(ROOT)
    try:
        bins = build()
        if args.self_test:
            return self_test(bins)
        result, detail = measure(args.workload, args.seed, args.seconds, args.trace, bins)
    except BenchError as e:
        log(f"benchmark: {e}")
        return 1
    print_table(result, detail)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
