//! Table 2 — bug types and root causes of reported bugs.
//!
//! Prints the distribution of confirmed (true-positive) bugs by class,
//! side by side with the paper's proportions, plus the root-cause buckets
//! ①–④ and CWE ids.

use seal_bench::{eval_config, print_table, run_pipeline};
use seal_core::BugType;

fn main() {
    let r = run_pipeline(&eval_config(), seal_runtime::worker_count());
    let total = r.score.true_positives.len().max(1);

    let classes: [(BugType, f64, &str, &str); 7] = [
        (BugType::Npd, 31.0, "1-4", "CWE-476"),
        (BugType::MemLeak, 23.7, "3", "CWE-401/402"),
        (BugType::WrongEc, 19.8, "2,3", "CWE-393"),
        (BugType::Oob, 10.3, "1", "CWE-125/787"),
        (BugType::Uaf, 9.2, "2,4", "CWE-415/416"),
        (BugType::Dbz, 4.3, "1", "CWE-369"),
        (BugType::Uninit, 1.7, "2", "CWE-456/457"),
    ];

    println!("Table 2: bug types and root causes of reported bugs\n");
    let mut rows = Vec::new();
    for (ty, paper_pct, causes, cwe) in classes {
        let n = r
            .score
            .true_positives
            .iter()
            .filter(|(_, t, _)| *t == ty)
            .count();
        rows.push(vec![
            ty.label().to_string(),
            format!("{:.1}%", 100.0 * n as f64 / total as f64),
            format!("{paper_pct:.1}%"),
            causes.to_string(),
            cwe.to_string(),
        ]);
    }
    print_table(
        &[
            "Bug types",
            "Prop (measured)",
            "Prop (paper)",
            "Causes",
            "CWE ID",
        ],
        &rows,
    );
    println!(
        "\nCauses: 1 incorrect/missing checks, 2 incorrect return values,\n\
         3 incorrect/missing error handling of APIs, 4 incorrect usage orders of APIs.\n\
         {} confirmed bugs measured.",
        total
    );
}
