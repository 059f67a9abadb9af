//! Byte-level pin of the eval-corpus detection output.
//!
//! Runs the full SEAL pipeline on the RQ evaluation corpus (the corpus
//! `--bin ablation` and the scale tier's 1x run use) at one and two
//! workers, and compares against `tests/golden/eval_detect.txt`:
//!
//! * every report, rendered by `seal::scale::render_reports`, byte for
//!   byte;
//! * every `DetectStats` count (phase durations excluded), plus the
//!   reports / true-positive / precision line.
//!
//! Detection-path refactors must leave this file untouched: a diff here
//! means a change was not output-neutral. Regenerate only after an
//! intentional output change, with
//! `BLESS=1 cargo test -p seal-bench --test golden_eval`.

use seal_bench::eval_config;
use seal_core::detect::detect_bugs_with_stats_jobs_cached;
use seal_core::{infer_batch, AnalysisCache, Seal};
use seal_corpus::generate;
use seal_corpus::ledger::score;
use std::fmt::Write;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/eval_detect.txt")
}

/// The golden text for one worker count.
fn render_at(jobs: usize) -> String {
    let corpus = generate(&eval_config());
    let target = corpus.target_module();
    let seal = Seal::default();
    let mut specs = Vec::new();
    for r in infer_batch(&seal, &corpus.patches, jobs) {
        specs.extend(r.expect("corpus patches compile"));
    }
    let (reports, stats) = detect_bugs_with_stats_jobs_cached(
        &target,
        &specs,
        &seal.detect,
        jobs,
        &AnalysisCache::disabled(),
    );
    let s = score(&reports, &corpus.ground_truth);
    let mut out = String::from("# golden: eval-corpus detection (BLESS=1 to regenerate)\n");
    writeln!(
        out,
        "reports {} scored {} tp {} precision {:.1}% recall {:.1}%",
        reports.len(),
        s.true_positives.len() + s.false_positives.len(),
        s.true_positives.len(),
        100.0 * s.precision(),
        100.0 * s.recall()
    )
    .unwrap();
    writeln!(
        out,
        "specs {} regions {} skipped {} solver_queries {} solver_cache_hits {} \
         subtrees_pruned {} sources_skipped_unreachable {}",
        specs.len(),
        stats.regions,
        stats.skipped,
        stats.solver_queries,
        stats.solver_cache_hits,
        stats.subtrees_pruned,
        stats.sources_skipped_unreachable
    )
    .unwrap();
    out.push_str(&seal::scale::render_reports(&reports));
    out
}

#[test]
fn eval_corpus_reports_and_counts_match_golden_at_jobs_1_and_2() {
    let one = render_at(1);
    let path = golden_path();
    if std::env::var("BLESS").map(|v| v == "1").unwrap_or(false) {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &one).unwrap();
        eprintln!("blessed {}", path.display());
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with BLESS=1 cargo test -p seal-bench --test golden_eval",
            path.display()
        )
    });
    assert!(
        one == golden,
        "jobs=1 eval-corpus output diverges from {}",
        path.display()
    );
    let two = render_at(2);
    assert!(
        two == golden,
        "jobs=2 eval-corpus output diverges from {}",
        path.display()
    );
}
