//! Input signatures for PDG construction.
//!
//! A demand-built PDG is a pure function of the bodies of the functions in
//! its scope and the module environment those bodies reference (struct
//! layouts for field offsets, globals, interface bindings for indirect-call
//! resolution). [`scope_sig`] folds exactly those inputs into one 128-bit
//! key, so a cache entry derived from a PDG (a detection shard's results,
//! say) is invalidated by editing any
//! function in scope — and *only* by that: edits to functions outside the
//! scope leave the signature unchanged, which is what makes incremental
//! re-analysis proportional to the change set.

use seal_ir::{FuncId, Module};
use seal_store::{ContentHash, Hasher128};
use std::collections::BTreeSet;

/// Content signature of one PDG scope over a module.
///
/// Positional (spans included via `seal_ir::codec::body_hash`): PDG nodes
/// carry line numbers into bug reports, so two scopes that differ only in
/// line numbers must not share cached report bytes.
pub fn scope_sig(module: &Module, scope: &BTreeSet<FuncId>) -> ContentHash {
    let mut h = Hasher128::new();
    h.update_str("pdg.scope.v1");
    h.update(seal_ir::codec::env_hash(module).as_bytes());
    h.update_u64(scope.len() as u64);
    for &fid in scope {
        h.update_u32(fid.0);
        // Out-of-range ids (foreign scopes) hash as a marker rather than
        // panicking; Pdg::try_build rejects them later.
        match module.functions.get(fid.index()) {
            Some(body) => h.update(seal_ir::codec::body_hash(body).as_bytes()),
            None => h.update_str("<missing>"),
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_ir::lower;

    fn module(src: &str) -> Module {
        lower(&seal_kir::compile(src, "t.c").unwrap())
    }

    fn scope_of(m: &Module, names: &[&str]) -> BTreeSet<FuncId> {
        names.iter().map(|n| m.func_id(n).unwrap()).collect()
    }

    const TWO_FUNCS: &str = "int a(int x) { return x + 1; }\n\
                             int b(int x) { return x * 2; }\n";

    #[test]
    fn same_inputs_same_sig() {
        let m1 = module(TWO_FUNCS);
        let m2 = module(TWO_FUNCS);
        let s = scope_of(&m1, &["a"]);
        assert_eq!(scope_sig(&m1, &s), scope_sig(&m2, &s));
    }

    #[test]
    fn out_of_scope_edit_leaves_sig_unchanged() {
        let m1 = module(TWO_FUNCS);
        let m2 = module(
            "int a(int x) { return x + 1; }\n\
             int b(int x) { return x * 3; }\n",
        );
        let s = scope_of(&m1, &["a"]);
        assert_eq!(scope_sig(&m1, &s), scope_sig(&m2, &s));
        // ...but a scope that contains the edited function changes.
        let sb = scope_of(&m1, &["a", "b"]);
        assert_ne!(scope_sig(&m1, &sb), scope_sig(&m2, &sb));
    }

    #[test]
    fn sig_sees_environment() {
        let m1 = module(TWO_FUNCS);
        let s = scope_of(&m1, &["a"]);
        let m2 = module(&format!("int g_extra = 7;\n{TWO_FUNCS}"));
        assert_ne!(scope_sig(&m1, &s), scope_sig(&m2, &s));
    }

    #[test]
    fn foreign_scope_ids_do_not_panic() {
        let m = module(TWO_FUNCS);
        let mut s = BTreeSet::new();
        s.insert(FuncId(99));
        let _ = scope_sig(&m, &s);
    }
}
