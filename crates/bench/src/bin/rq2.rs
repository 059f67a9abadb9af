//! RQ2 (§8.2) — specification characteristics: relation counts by
//! provenance category, zero-relation patches, and specification
//! correctness.

use seal_bench::{eval_config, print_table, provenance_counts, run_pipeline};
use seal_spec::Provenance;

fn main() {
    let r = run_pipeline(&eval_config(), seal_runtime::worker_count());
    let counts = provenance_counts(&r.specs);
    let total: usize = counts.iter().map(|(_, n)| n).sum();

    println!("RQ2: specification characteristics (§8.2)\n");
    let paper = |p: Provenance| match p {
        Provenance::RemovedPath => ("P-", 2084usize),
        Provenance::AddedPath => ("P+", 5499),
        Provenance::CondChanged => ("PΨ", 3757),
        Provenance::OrderChanged => ("PΩ", 982),
    };
    let paper_total = 12322.0f64;
    let mut rows = Vec::new();
    for (p, n) in counts {
        let (label, paper_n) = paper(p);
        rows.push(vec![
            label.to_string(),
            n.to_string(),
            format!("{:.1}%", 100.0 * n as f64 / total.max(1) as f64),
            format!("{:.1}%", 100.0 * paper_n as f64 / paper_total),
        ]);
    }
    print_table(
        &["Relation source", "Measured", "Share", "Paper share"],
        &rows,
    );

    // Zero-relation patches.
    let zero = r.per_patch_specs.iter().filter(|(_, n)| *n == 0).count();
    println!(
        "\nzero-relation patches: {zero} of {} (paper: 1,529 of 12,571)",
        r.per_patch_specs.len()
    );

    // Specification correctness: specs from ambiguity patches are
    // incorrect by construction (the paper samples 1,000 specs and finds
    // 57.8% correct).
    let incorrect = r
        .specs
        .iter()
        .filter(|s| r.corpus.ambiguous_patch_ids.contains(&s.origin_patch))
        .count();
    let correct_pct = 100.0 * (r.specs.len() - incorrect) as f64 / r.specs.len().max(1) as f64;
    println!(
        "specification correctness: {correct_pct:.1}% of {} relations (paper: 57.8% of sampled 1,000)",
        r.specs.len()
    );

    // Dataset merging (§9): identical/equivalent relations learned from
    // different patches collapse.
    let merged = seal_spec::merge::merge_specs(r.specs.clone());
    println!(
        "merged dataset: {} -> {} specifications (cross-patch duplicates collapsed)",
        r.specs.len(),
        merged.len()
    );

    // Violation attribution: reports from correct vs incorrect specs.
    let fp_from_incorrect = r
        .reports
        .iter()
        .filter(|rep| {
            r.corpus
                .ambiguous_patch_ids
                .contains(&rep.spec.origin_patch)
        })
        .count();
    println!(
        "reports from incorrect specifications: {fp_from_incorrect} of {} (paper: 53 of 232)",
        r.reports.len()
    );
}
