//! Incremental-solving support: frozen per-prefix solver state (see
//! `DESIGN.md` §12).
//!
//! [`SolveCtx`] is the solver state left over after a *clean* solve of a
//! path condition — typing environment, union-find, residual atoms, and
//! the interval stores — frozen under a `OnceLock` on the condition's
//! newest chain node. A later query on a descendant condition finds the
//! deepest frozen ancestor and propagates only the conjuncts pushed
//! since, instead of re-solving the whole conjunction (the incremental,
//! functional solver-state technique Soteria reports as a headline
//! optimization).

use crate::intervals::{IntDomain, NumDomain};
use crate::sat::{Atoms, SatResult};
use crate::typing::TypeEnv;
use crate::uf::UnionFind;
use gillian_gil::{BinOp, Expr};
use std::sync::Arc;

/// The frozen result of solving one path-condition prefix.
///
/// `verdict` is always `Sat` or `Unsat` — `Unknown` verdicts reflect an
/// exhausted or interrupted budget and are never frozen. `state` is
/// present exactly for clean `Sat` solves (no case splits decided the
/// verdict, closure converged); an `Unsat` context needs no state, since
/// every extension of an unsatisfiable prefix is unsatisfiable.
#[derive(Debug)]
pub(crate) struct SolveCtx {
    pub(crate) verdict: SatResult,
    pub(crate) state: Option<CapturedState>,
}

/// The solver state at the end of a clean `Sat` solve, shared
/// copy-on-extend: every field sits behind an `Arc`, so freezing a
/// context costs refcount bumps for whatever the extension did not touch
/// (the union-find in particular is shared untouched by the fast path).
#[derive(Clone, Debug)]
pub(crate) struct CapturedState {
    /// The typing environment the solve ran under.
    pub(crate) env: Arc<TypeEnv>,
    /// Equality classes after substitution closure.
    pub(crate) uf: Arc<UnionFind>,
    /// Residual atoms (equalities drained into `uf`, no disjunctions).
    pub(crate) atoms: Arc<Atoms>,
    /// Integer interval/difference domain after propagation.
    pub(crate) ints: Arc<IntDomain>,
    /// Float literal-bound domain.
    pub(crate) nums: Arc<NumDomain>,
    /// Candidate mask-identity sites `(x & m, x, m)` occurring anywhere
    /// in the captured atoms, so the incremental fast path can re-check
    /// the mask-learning trigger without re-scanning every atom tree.
    pub(crate) mask_sites: Arc<[(Expr, Expr, i64)]>,
}

/// Collects candidate mask-identity sites `(x & m, x, m)` (with `m+1` a
/// power of two) from the given expressions, deduplicated by site. The
/// satisfiability checker learns `x & m = x` once the interval of `x`
/// fits inside the mask; the captured site list lets an incremental
/// extension re-test exactly those triggers.
pub(crate) fn collect_mask_sites(exprs: &[Expr], out: &mut Vec<(Expr, Expr, i64)>) {
    for e in exprs {
        e.visit(&mut |sub| {
            if let Expr::Bin(BinOp::BitAnd, a, b) = sub {
                let (x, mask) = match (a.as_int(), b.as_int()) {
                    (Some(m), None) => (b.as_ref(), m),
                    (None, Some(m)) => (a.as_ref(), m),
                    _ => return,
                };
                if mask >= 0
                    && (mask.wrapping_add(1) & mask) == 0
                    && !out.iter().any(|(s, _, _)| s == sub)
                {
                    out.push((sub.clone(), x.clone(), mask));
                }
            }
        });
    }
}
