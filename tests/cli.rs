//! End-to-end tests of the `seal` CLI binary (infer → merge → detect),
//! exercising the maintainer workflow of §9 through the real executable.

use std::path::PathBuf;
use std::process::Command;

fn seal_bin() -> &'static str {
    env!("CARGO_BIN_EXE_seal")
}

fn write(dir: &std::path::Path, name: &str, content: &str) -> PathBuf {
    let p = dir.join(name);
    std::fs::write(&p, content).unwrap();
    p
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seal-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const SHARED: &str = "
struct riscmem { int *cpu; };
void *dma_alloc_coherent(unsigned long size);
struct vb2_ops { int (*buf_prepare)(struct riscmem *risc); };
int vbi(struct riscmem *risc) {
    risc->cpu = (int *)dma_alloc_coherent(64);
    if (risc->cpu == NULL) return -12;
    return 0;
}
";

#[test]
fn infer_merge_detect_pipeline() {
    let dir = temp_dir("pipeline");
    let pre = write(
        &dir,
        "pre.c",
        &format!(
            "{SHARED}int buffer_prepare(struct riscmem *r) {{ vbi(r); return 0; }}\n\
             struct vb2_ops q = {{ .buf_prepare = buffer_prepare, }};"
        ),
    );
    let post = write(
        &dir,
        "post.c",
        &format!(
            "{SHARED}int buffer_prepare(struct riscmem *r) {{ return vbi(r); }}\n\
             struct vb2_ops q = {{ .buf_prepare = buffer_prepare, }};"
        ),
    );
    let target = write(
        &dir,
        "kernel.c",
        &format!(
            "{SHARED}int tw68_buf_prepare(struct riscmem *r) {{ vbi(r); return 0; }}\n\
             struct vb2_ops tw = {{ .buf_prepare = tw68_buf_prepare, }};"
        ),
    );
    let specs1 = dir.join("s1.txt");
    let specs2 = dir.join("s2.txt");
    let merged = dir.join("merged.txt");

    // infer twice under different ids.
    for (id, out) in [("fix-a", &specs1), ("fix-b", &specs2)] {
        let st = Command::new(seal_bin())
            .args(["infer", "--pre"])
            .arg(&pre)
            .arg("--post")
            .arg(&post)
            .args(["--id", id, "--out"])
            .arg(out)
            .status()
            .unwrap();
        assert!(st.success());
        assert!(std::fs::read_to_string(out).unwrap().contains("spec["));
    }

    // merge the two datasets: origins combine, count stays the same.
    let st = Command::new(seal_bin())
        .arg("merge")
        .arg("--specs")
        .arg(format!("{},{}", specs1.display(), specs2.display()))
        .arg("--out")
        .arg(&merged)
        .status()
        .unwrap();
    assert!(st.success());
    let merged_text = std::fs::read_to_string(&merged).unwrap();
    assert!(merged_text.contains("fix-a+fix-b"));

    // detect with the merged dataset: the buggy sibling is flagged.
    let out = Command::new(seal_bin())
        .arg("detect")
        .arg("--target")
        .arg(&target)
        .arg("--specs")
        .arg(&merged)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("tw68_buf_prepare"),
        "detect output: {stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hunt_runs_both_stages() {
    let dir = temp_dir("hunt");
    let pre = write(
        &dir,
        "pre.c",
        &format!(
            "{SHARED}int bp(struct riscmem *r) {{ vbi(r); return 0; }}\n\
             struct vb2_ops q = {{ .buf_prepare = bp, }};"
        ),
    );
    let post = write(
        &dir,
        "post.c",
        &format!(
            "{SHARED}int bp(struct riscmem *r) {{ return vbi(r); }}\n\
             struct vb2_ops q = {{ .buf_prepare = bp, }};"
        ),
    );
    let target = write(
        &dir,
        "kernel.c",
        &format!(
            "{SHARED}int ok_prepare(struct riscmem *r) {{ return vbi(r); }}\n\
             struct vb2_ops okq = {{ .buf_prepare = ok_prepare, }};"
        ),
    );
    let out = Command::new(seal_bin())
        .arg("hunt")
        .arg("--pre")
        .arg(&pre)
        .arg("--post")
        .arg(&post)
        .arg("--target")
        .arg(&target)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no violations found"), "got: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--jobs` overrides the worker count (and `SEAL_JOBS`), accepts only
/// positive integers, and leaves the output byte-identical.
#[test]
fn jobs_flag_overrides_env_and_preserves_output() {
    let dir = temp_dir("jobs");
    let pre = write(
        &dir,
        "pre.c",
        &format!(
            "{SHARED}int bp(struct riscmem *r) {{ vbi(r); return 0; }}\n\
             struct vb2_ops q = {{ .buf_prepare = bp, }};"
        ),
    );
    let post = write(
        &dir,
        "post.c",
        &format!(
            "{SHARED}int bp(struct riscmem *r) {{ return vbi(r); }}\n\
             struct vb2_ops q = {{ .buf_prepare = bp, }};"
        ),
    );
    let target = write(
        &dir,
        "kernel.c",
        &format!(
            "{SHARED}int tw68_buf_prepare(struct riscmem *r) {{ vbi(r); return 0; }}\n\
             struct vb2_ops tw = {{ .buf_prepare = tw68_buf_prepare, }};"
        ),
    );
    let hunt = |jobs: &str| {
        let out = Command::new(seal_bin())
            .arg("hunt")
            .arg("--pre")
            .arg(&pre)
            .arg("--post")
            .arg(&post)
            .arg("--target")
            .arg(&target)
            .args(["--jobs", jobs])
            // `--jobs` must win even when the environment disagrees.
            .env("SEAL_JOBS", "3")
            .output()
            .unwrap();
        assert!(out.status.success(), "--jobs {jobs} failed");
        out.stdout
    };
    let one = hunt("1");
    let four = hunt("4");
    assert_eq!(one, four, "reports must not depend on the worker count");
    assert!(String::from_utf8_lossy(&one).contains("tw68_buf_prepare"));

    // Rejected values fail with a clear message.
    for bad in ["0", "-2", "many"] {
        let out = Command::new(seal_bin())
            .args(["detect", "--jobs", bad, "--target"])
            .arg(&target)
            .args(["--specs", "/nonexistent.txt"])
            .output()
            .unwrap();
        assert!(!out.status.success(), "--jobs {bad} must be rejected");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--jobs"),
            "stderr should mention --jobs"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Invalid worker counts — `--jobs 0`, an absurd `--jobs`, or a bad
/// `SEAL_JOBS` in the environment — are a clean exit-code-2 error before
/// any pipeline work starts, never a silent clamp. The target/specs files
/// here don't exist: the error must come from jobs validation, not I/O.
#[test]
fn invalid_jobs_exit_2_before_any_work() {
    let detect = |jobs: Option<&str>, env: Option<&str>| {
        let mut cmd = Command::new(seal_bin());
        cmd.args(["detect", "--target", "/nonexistent.c"])
            .args(["--specs", "/nonexistent.txt"]);
        if let Some(j) = jobs {
            cmd.args(["--jobs", j]);
        }
        cmd.env_remove("SEAL_JOBS");
        if let Some(e) = env {
            cmd.env("SEAL_JOBS", e);
        }
        cmd.output().unwrap()
    };

    for bad in ["0", "1000000", "many", "-4"] {
        let out = detect(Some(bad), None);
        assert_eq!(out.status.code(), Some(2), "--jobs {bad} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--jobs"), "stderr: {stderr}");
        // Validation fires before the pipeline ever touches the files.
        assert!(!stderr.contains("nonexistent"), "stderr: {stderr}");
    }

    for bad in ["0", "1000000", "1o24"] {
        let out = detect(None, Some(bad));
        assert_eq!(out.status.code(), Some(2), "SEAL_JOBS={bad} must exit 2");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("SEAL_JOBS"),
            "stderr should name SEAL_JOBS"
        );
    }

    // A bad environment value is rejected even when --jobs overrides it:
    // leaving it latent would bite the next invocation.
    let out = detect(Some("1"), Some("0"));
    assert_eq!(out.status.code(), Some(2));

    // Valid values at both sources still fail on the missing file (exit 1).
    let out = detect(Some("2"), Some("3"));
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn bad_input_fails_cleanly() {
    // Unknown command.
    let out = Command::new(seal_bin()).arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    // Missing file.
    let out = Command::new(seal_bin())
        .args([
            "detect",
            "--target",
            "/nonexistent.c",
            "--specs",
            "/nonexistent.txt",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // Uncompilable patch.
    let dir = temp_dir("bad");
    let junk = write(&dir, "junk.c", "int f( { ;;; }");
    let ok = write(&dir, "ok.c", "int f(void) { return 0; }");
    let out = Command::new(seal_bin())
        .arg("infer")
        .arg("--pre")
        .arg(&junk)
        .arg("--post")
        .arg(&ok)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("does not compile"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Exit-code protocol: 0 when every item succeeds, 1 for usage/fatal
/// errors, 2 when the run completes but some batch items failed.
#[test]
fn exit_codes_distinguish_full_partial_and_fatal() {
    let dir = temp_dir("codes");
    let pre = write(
        &dir,
        "pre.c",
        &format!(
            "{SHARED}int bp(struct riscmem *r) {{ vbi(r); return 0; }}\n\
             struct vb2_ops q = {{ .buf_prepare = bp, }};"
        ),
    );
    let post = write(
        &dir,
        "post.c",
        &format!(
            "{SHARED}int bp(struct riscmem *r) {{ return vbi(r); }}\n\
             struct vb2_ops q = {{ .buf_prepare = bp, }};"
        ),
    );
    let junk = write(&dir, "junk.c", "int f( { ;;; }");

    // All items fine -> 0.
    let out = Command::new(seal_bin())
        .arg("infer")
        .arg("--pre")
        .arg(&pre)
        .arg("--post")
        .arg(&post)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));

    // One of two items fails -> 2 (partial).
    let out = Command::new(seal_bin())
        .arg("infer")
        .arg("--pre")
        .arg(format!("{},{}", pre.display(), junk.display()))
        .arg("--post")
        .arg(format!("{},{}", post.display(), post.display()))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "partial failure must exit 2");

    // Usage error -> 1.
    let out = Command::new(seal_bin())
        .args(["infer", "--pre"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "usage error must exit 1");

    std::fs::remove_dir_all(&dir).ok();
}

/// A failing patch in a batch costs only its own item: survivors' specs are
/// still written, and stderr names the failed item with its stage.
#[test]
fn partial_failure_keeps_survivors_and_summarizes() {
    let dir = temp_dir("partial");
    let pre = write(
        &dir,
        "pre.c",
        &format!(
            "{SHARED}int bp(struct riscmem *r) {{ vbi(r); return 0; }}\n\
             struct vb2_ops q = {{ .buf_prepare = bp, }};"
        ),
    );
    let post = write(
        &dir,
        "post.c",
        &format!(
            "{SHARED}int bp(struct riscmem *r) {{ return vbi(r); }}\n\
             struct vb2_ops q = {{ .buf_prepare = bp, }};"
        ),
    );
    let junk = write(&dir, "junk.c", "int f( { ;;; }");
    let specs_out = dir.join("specs.txt");
    let out = Command::new(seal_bin())
        .arg("infer")
        .arg("--pre")
        .arg(format!("{},{}", junk.display(), pre.display()))
        .arg("--post")
        .arg(format!("{},{}", post.display(), post.display()))
        .args(["--id", "fix"])
        .arg("--out")
        .arg(&specs_out)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    // Survivor (item 2) still produced its specs.
    let written = std::fs::read_to_string(&specs_out).unwrap();
    assert!(written.contains("spec["), "survivor specs lost: {written}");
    // The summary names the failed item, its stage, and the cause.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fix-1"), "stderr: {stderr}");
    assert!(stderr.contains("[frontend]"), "stderr: {stderr}");
    assert!(stderr.contains("does not compile"), "stderr: {stderr}");
    // An unreadable file is also one item, not a fatal error.
    let out = Command::new(seal_bin())
        .arg("infer")
        .arg("--pre")
        .arg(format!("{},/nonexistent-pre.c", pre.display()))
        .arg("--post")
        .arg(format!("{},{}", post.display(), post.display()))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

/// A malformed dataset in `seal merge` loses its own specs, not the merge.
#[test]
fn merge_survives_malformed_spec_file() {
    let dir = temp_dir("merge-bad");
    let pre = write(
        &dir,
        "pre.c",
        &format!(
            "{SHARED}int bp(struct riscmem *r) {{ vbi(r); return 0; }}\n\
             struct vb2_ops q = {{ .buf_prepare = bp, }};"
        ),
    );
    let post = write(
        &dir,
        "post.c",
        &format!(
            "{SHARED}int bp(struct riscmem *r) {{ return vbi(r); }}\n\
             struct vb2_ops q = {{ .buf_prepare = bp, }};"
        ),
    );
    let good = dir.join("good.txt");
    let st = Command::new(seal_bin())
        .arg("infer")
        .arg("--pre")
        .arg(&pre)
        .arg("--post")
        .arg(&post)
        .arg("--out")
        .arg(&good)
        .status()
        .unwrap();
    assert!(st.success());
    let bad = write(&dir, "bad.txt", "spec[this is not a well-formed line\n");
    let merged = dir.join("merged.txt");
    let out = Command::new(seal_bin())
        .arg("merge")
        .arg("--specs")
        .arg(format!("{},{}", good.display(), bad.display()))
        .arg("--out")
        .arg(&merged)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad.txt"), "stderr: {stderr}");
    let merged_text = std::fs::read_to_string(&merged).unwrap();
    assert!(
        merged_text.contains("spec["),
        "survivors lost: {merged_text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Comma lists reject empty entries instead of treating them as the empty
/// path (`--pre a.c,,b.c` used to try to read "").
#[test]
fn empty_list_entries_are_rejected() {
    let dir = temp_dir("empty-entry");
    let ok = write(&dir, "ok.c", "int f(void) { return 0; }");
    let out = Command::new(seal_bin())
        .arg("infer")
        .arg("--pre")
        .arg(format!("{},,{}", ok.display(), ok.display()))
        .arg("--post")
        .arg(format!(
            "{},{},{}",
            ok.display(),
            ok.display(),
            ok.display()
        ))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("empty entry"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Option parsing is strict: a flag can't swallow the next flag as its
/// value, and a repeated flag is an error instead of a silent overwrite.
#[test]
fn option_parsing_rejects_flag_values_and_duplicates() {
    let dir = temp_dir("optparse");
    let ok = write(&dir, "ok.c", "int f(void) { return 0; }");
    // `--pre --post x.c` used to set pre="--post" silently.
    let out = Command::new(seal_bin())
        .args(["infer", "--pre", "--post"])
        .arg(&ok)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("needs a value"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Duplicate flag: the second occurrence used to win silently.
    let out = Command::new(seal_bin())
        .arg("infer")
        .arg("--pre")
        .arg(&ok)
        .arg("--pre")
        .arg(&ok)
        .arg("--post")
        .arg(&ok)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("more than once"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_flags_are_rejected_per_command() {
    let dir = temp_dir("unknown-flag");
    let ok = write(&dir, "ok.c", "int f(void) { return 0; }");
    // A typo'd flag used to be swallowed into the option map silently.
    let out = Command::new(seal_bin())
        .arg("infer")
        .arg("--pre")
        .arg(&ok)
        .arg("--post")
        .arg(&ok)
        .args(["--trce", "t.jsonl"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --trce"), "stderr: {stderr}");
    // The error names the command's accepted flags.
    assert!(stderr.contains("expected one of"), "stderr: {stderr}");
    assert!(stderr.contains("--trace"), "stderr: {stderr}");

    // A flag that exists on another command is still unknown here.
    let out = Command::new(seal_bin())
        .args(["merge", "--specs", "a.txt", "--out", "b.txt", "--jobs", "2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown flag --jobs"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_and_metrics_flags_parse_like_the_rest() {
    let dir = temp_dir("obs-flags");
    let ok = write(&dir, "ok.c", "int f(void) { return 0; }");
    // Flag-as-value: `--trace --metrics m.json` must not set trace="--metrics".
    let out = Command::new(seal_bin())
        .arg("detect")
        .arg("--target")
        .arg(&ok)
        .args(["--specs", "s.txt", "--trace", "--metrics"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--trace needs a value, found flag"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Duplicates are rejected rather than last-one-wins.
    let out = Command::new(seal_bin())
        .arg("detect")
        .arg("--target")
        .arg(&ok)
        .args([
            "--specs",
            "s.txt",
            "--metrics",
            "a.json",
            "--metrics",
            "b.json",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--metrics given more than once"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_requires_a_trace_file() {
    let out = Command::new(seal_bin()).arg("stats").output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr)
            .contains("stats needs at least one of --trace/--metrics/--cache-dir"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // And it refuses a file that is not a seal trace.
    let dir = temp_dir("stats-bad");
    let bogus = write(&dir, "bogus.jsonl", "not a trace\n");
    let out = Command::new(seal_bin())
        .arg("stats")
        .arg("--trace")
        .arg(&bogus)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_cache_dir_alone_summarizes_the_store() {
    let dir = temp_dir("stats-cache");
    let out = Command::new(seal_bin())
        .arg("stats")
        .arg("--cache-dir")
        .arg(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cache store"), "stdout: {stdout}");
    assert!(stdout.contains("disk_entries"), "stdout: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_cache_dir_counts_a_corrupt_payload_in_the_middle_of_the_store() {
    let dir = temp_dir("stats-flip");
    let store = dir.join("store");
    let data = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    let hunt = Command::new(seal_bin())
        .arg("hunt")
        .arg("--pre")
        .arg(data.join("npd-check.pre.c"))
        .arg("--post")
        .arg(data.join("npd-check.post.c"))
        .arg("--target")
        .arg(data.join("target.c"))
        .arg("--cache-dir")
        .arg(&store)
        .output()
        .unwrap();
    assert!(matches!(hunt.status.code(), Some(0 | 2)), "{hunt:?}");
    let stats = || {
        let out = Command::new(seal_bin())
            .arg("stats")
            .arg("--cache-dir")
            .arg(&store)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let line = stdout
            .lines()
            .find(|l| l.starts_with("scan_invalidations"))
            .unwrap_or_else(|| panic!("stdout: {stdout}"));
        line.split_whitespace()
            .last()
            .unwrap()
            .parse::<u64>()
            .unwrap()
    };
    assert_eq!(stats(), 0);

    // Walk the record headers ([kind 1][key 16][len 4][sum 8]) after the
    // 16-byte file header and flip the first payload byte of the middle
    // non-empty record: the headers stay intact, only its checksum fails.
    let file = store.join("seal-store.v1.bin");
    let mut bytes = std::fs::read(&file).unwrap();
    let mut payloads = Vec::new();
    let mut pos = 16;
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos + 17..pos + 21].try_into().unwrap()) as usize;
        if len > 0 {
            payloads.push(pos + 29);
        }
        pos += 29 + len;
    }
    assert!(
        payloads.len() >= 2,
        "store too small: {} records",
        payloads.len()
    );
    bytes[payloads[payloads.len() / 2]] ^= 0x01;
    std::fs::write(&file, &bytes).unwrap();
    assert!(stats() >= 1, "a corrupt payload went uncounted");
    std::fs::remove_dir_all(&dir).ok();
}
