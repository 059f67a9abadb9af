//! Fig. 8(b) — distribution of the number of violations per specification
//! (zero-violation specs excluded, as in the paper).

use seal_bench::{eval_config, print_table, run_pipeline};
use std::collections::BTreeMap;

fn main() {
    let r = run_pipeline(&eval_config(), seal_runtime::worker_count());

    // Violations per specification: count reports citing each spec's
    // constraints (origin-independent identity).
    let mut per_spec: BTreeMap<String, usize> = BTreeMap::new();
    for report in &r.reports {
        let key = format!("{:?}|{:?}", report.spec.interface, report.spec.constraints);
        *per_spec.entry(key).or_default() += 1;
    }
    let counts: Vec<usize> = per_spec.values().copied().collect();
    let total = counts.len().max(1);

    println!("Fig. 8(b): #violations per specification (0 excluded)\n");
    type Bucket = (&'static str, fn(usize) -> bool);
    let buckets: [Bucket; 4] = [
        ("1", |n| n == 1),
        ("2", |n| n == 2),
        ("3-5", |n| (3..=5).contains(&n)),
        (">5", |n| n > 5),
    ];
    let mut rows = Vec::new();
    for (label, pred) in &buckets {
        let n = counts.iter().filter(|&&c| pred(c)).count();
        let pct = 100.0 * n as f64 / total as f64;
        rows.push(vec![
            label.to_string(),
            n.to_string(),
            format!("{pct:.0}%"),
            "#".repeat((pct / 2.0).round() as usize),
        ]);
    }
    print_table(&["#violations", "Specs", "Share", "Histogram"], &rows);
    let over5 = 100.0 * counts.iter().filter(|&&c| c > 5).count() as f64 / total as f64;
    println!(
        "\n{} violated specifications; {over5:.0}% violated more than five times (paper: 11%).",
        total
    );
}
