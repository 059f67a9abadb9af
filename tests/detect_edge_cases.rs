//! Edge-case behaviour of the detection stage (§6.4): budgets, region
//! skipping, quantifier corner cases, and robustness to odd inputs.

use seal::core::detect::{detect_bugs_with_stats_jobs_cached, regions_for, DetectConfig};
use seal::core::{AnalysisCache, BugReport, Patch, Seal};
use seal::spec::{Constraint, Provenance, Quantifier, Relation, SpecUse, SpecValue, Specification};
use seal_solver::{CmpOp, Formula};

/// Uncached detection on two workers (the test inputs are trusted, so a
/// failed shard panics).
fn detect(module: &seal_ir::Module, specs: &[Specification], cfg: &DetectConfig) -> Vec<BugReport> {
    detect_bugs_with_stats_jobs_cached(module, specs, cfg, 2, &AnalysisCache::disabled()).0
}

fn module_of(src: &str) -> seal_ir::Module {
    seal_ir::lower(&seal_kir::compile(src, "t.c").unwrap())
}

fn npd_spec() -> Specification {
    Specification {
        interface: None,
        constraints: vec![Constraint {
            quantifier: Quantifier::NotExists,
            relation: Relation::Reach {
                value: SpecValue::ret_of("kmalloc"),
                use_: SpecUse::Deref,
                cond: Formula::cmp(SpecValue::ret_of("kmalloc"), CmpOp::Eq, 0),
            },
        }],
        origin_patch: "hand-written".into(),
        provenance: Provenance::CondChanged,
    }
}

const KMALLOC_USERS: &str = "
void *kmalloc(unsigned long n);
int unchecked(int x) {
    int *p = (int *)kmalloc(8);
    *p = x;
    return 0;
}
int checked(int x) {
    int *p = (int *)kmalloc(8);
    if (p == NULL) return -12;
    *p = x;
    return 0;
}
";

#[test]
fn hand_written_api_spec_detects_npd() {
    // Specs need not come from patches: a hand-maintained dataset entry
    // (the §9 maintainer suggestion) works directly.
    let module = module_of(KMALLOC_USERS);
    let reports = detect(&module, &[npd_spec()], &DetectConfig::default());
    assert!(reports.iter().any(|r| r.function == "unchecked"));
    assert!(!reports.iter().any(|r| r.function == "checked"));
}

#[test]
fn empty_spec_list_reports_nothing() {
    let module = module_of(KMALLOC_USERS);
    assert!(detect(&module, &[], &DetectConfig::default()).is_empty());
}

#[test]
fn unknown_interface_has_no_regions() {
    let module = module_of(KMALLOC_USERS);
    let mut spec = npd_spec();
    spec.interface = Some("nonexistent_ops::cb".into());
    assert!(regions_for(&module, &spec).is_empty());
    assert!(detect(&module, &[spec], &DetectConfig::default()).is_empty());
}

#[test]
fn malformed_interface_string_is_tolerated() {
    let module = module_of(KMALLOC_USERS);
    let mut spec = npd_spec();
    spec.interface = Some("no-separator".into());
    assert!(detect(&module, &[spec], &DetectConfig::default()).is_empty());
}

#[test]
fn max_regions_budget_is_respected() {
    // Many callers of kmalloc; a budget of 1 region caps the reports.
    let mut src = String::from("void *kmalloc(unsigned long n);\n");
    for i in 0..8 {
        src.push_str(&format!(
            "int user{i}(int x) {{ int *p = (int *)kmalloc(8); *p = x; return 0; }}\n"
        ));
    }
    let module = module_of(&src);
    let unbounded = detect(&module, &[npd_spec()], &DetectConfig::default());
    assert!(unbounded.len() >= 8);
    let bounded = detect(
        &module,
        &[npd_spec()],
        &DetectConfig {
            max_regions: 1,
            ..DetectConfig::default()
        },
    );
    assert_eq!(bounded.len(), 1);
}

#[test]
fn forall_quantifier_behaves_like_exists_per_instance() {
    // A ∀-quantified required flow is checked per value instance, like ∃
    // (§6.3.3 infers ∀/∃ for positive relations). Demanding that the
    // kmalloc result itself reach the return flags every implementation —
    // neither routes the pointer to its return value.
    let mut spec = npd_spec();
    spec.constraints[0].quantifier = Quantifier::ForAll;
    spec.constraints[0].relation = Relation::Reach {
        value: SpecValue::ret_of("kmalloc"),
        use_: SpecUse::RetI,
        cond: Formula::cmp(SpecValue::ret_of("kmalloc"), CmpOp::Eq, 0),
    };
    let module = module_of(KMALLOC_USERS);
    let reports = detect(&module, &[spec], &DetectConfig::default());
    assert!(reports.iter().any(|r| r.function == "unchecked"));
    // Reports for required-flow violations carry no witness path (the
    // violation is an absence).
    for r in &reports {
        assert!(r.witness_lines.is_empty());
    }
}

#[test]
fn detection_is_deterministic() {
    let module = module_of(KMALLOC_USERS);
    let a = detect(&module, &[npd_spec()], &DetectConfig::default());
    let b = detect(&module, &[npd_spec()], &DetectConfig::default());
    let render = |rs: &[BugReport]| rs.iter().map(|r| r.to_string()).collect::<Vec<_>>();
    assert_eq!(render(&a), render(&b));
}

#[test]
fn recursive_functions_do_not_hang_detection() {
    let src = "
void *kmalloc(unsigned long n);
int recur(int depth) {
    if (depth <= 0) return 0;
    int *p = (int *)kmalloc(8);
    *p = depth;
    return recur(depth - 1);
}
";
    let module = module_of(src);
    let reports = detect(&module, &[npd_spec()], &DetectConfig::default());
    assert!(reports.iter().any(|r| r.function == "recur"));
}

#[test]
fn specs_from_patch_never_flag_the_patched_code_itself() {
    // Self-consistency: detecting on the *post*-patch module with the
    // specs inferred from that patch must be clean.
    let shared = "
struct riscmem { int *cpu; };
void *dma_alloc_coherent(unsigned long size);
struct vb2_ops { int (*buf_prepare)(struct riscmem *risc); };
int vbi(struct riscmem *risc) {
    risc->cpu = (int *)dma_alloc_coherent(64);
    if (risc->cpu == NULL) return -12;
    return 0;
}
";
    let pre = format!(
        "{shared}int bp(struct riscmem *r) {{ vbi(r); return 0; }}\n\
         struct vb2_ops q = {{ .buf_prepare = bp, }};"
    );
    let post = format!(
        "{shared}int bp(struct riscmem *r) {{ return vbi(r); }}\n\
         struct vb2_ops q = {{ .buf_prepare = bp, }};"
    );
    let seal = Seal::default();
    let patch = Patch::new("p", pre, post.clone());
    let specs = seal.infer(&patch).unwrap();
    let post_module = module_of(&post);
    let reports = seal.detect(&post_module, &specs);
    assert!(
        reports.is_empty(),
        "fixed code flagged by its own patch's specs: {:#?}",
        reports.iter().map(|r| r.to_string()).collect::<Vec<_>>()
    );
}
