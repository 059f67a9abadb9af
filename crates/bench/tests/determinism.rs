//! Worker-count independence: the pipeline must produce byte-identical
//! specifications, reports, and scores for any number of workers.

use seal_bench::{run_pipeline, PipelineResult};
use seal_corpus::CorpusConfig;
use seal_spec::parse::to_line;

fn config() -> CorpusConfig {
    CorpusConfig {
        seed: 0x0DD5EED,
        drivers_per_template: 12,
        bug_rate: 0.25,
        patches_per_template: 2,
        refactor_patches: 4,
        scale: 1,
    }
}

fn render(r: &PipelineResult) -> String {
    let mut out = String::new();
    for s in &r.specs {
        out.push_str(&to_line(s));
        out.push('\n');
    }
    for (id, n) in &r.per_patch_specs {
        out.push_str(&format!("{id}\t{n}\n"));
    }
    for rep in &r.reports {
        out.push_str(&format!("{rep}\n"));
    }
    out.push_str(&format!("{:?}\n", r.score));
    out.push_str(&format!(
        "regions={} skipped={}\n",
        r.detect_stats.regions, r.detect_stats.skipped
    ));
    out.push_str(&format!(
        "solver_queries={} solver_cache_hits={} subtrees_pruned={} sources_skipped_unreachable={}\n",
        r.detect_stats.solver_queries,
        r.detect_stats.solver_cache_hits,
        r.detect_stats.subtrees_pruned,
        r.detect_stats.sources_skipped_unreachable
    ));
    out
}

#[test]
fn one_vs_four_workers_byte_identical() {
    let cfg = config();
    let seq = run_pipeline(&cfg, 1);
    let par = run_pipeline(&cfg, 4);
    assert!(
        !seq.specs.is_empty(),
        "config too small to exercise inference"
    );
    assert!(
        !seq.reports.is_empty(),
        "config too small to exercise detection"
    );
    assert_eq!(render(&seq), render(&par));
}

#[test]
fn oversubscribed_pool_is_still_deterministic() {
    let cfg = config();
    let seq = run_pipeline(&cfg, 1);
    // More workers than shards/patches: workers must idle without
    // perturbing merge order.
    let par = run_pipeline(&cfg, 17);
    assert_eq!(render(&seq), render(&par));
}
