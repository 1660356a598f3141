//! Bounded, self-verifying model finding.
//!
//! Produces an assignment `ε : X̂ → V` (a *logical environment*, paper §3.2)
//! satisfying a conjunction of boolean expressions. The search is a bounded
//! backtracking enumeration over per-variable candidate values harvested
//! from the constraints themselves (equality classes, interval endpoints,
//! literals occurring in the formula, type defaults).
//!
//! Every returned model is **verified**: all conjuncts are concretely
//! evaluated under the assignment through the interpreter's own operator
//! semantics. The engine relies on this to guarantee that reported bugs are
//! true positives; a `None` from [`find_model`] never means "unsat", only
//! "not found within budget".

use crate::intervals::{IntDomain, NumDomain};
use crate::sat::SatBudget;
use crate::simplify::simplify;
use crate::typing::{absorb_type_fact, infer, TypeEnv};
use crate::uf::UnionFind;
use gillian_gil::eval::{eval, Store};
use gillian_gil::{BinOp, Expr, LVar, Sym, TypeTag, Value};
use std::collections::{BTreeMap, BTreeSet};

/// A logical environment: a concrete value for each logical variable.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Model {
    assignment: BTreeMap<LVar, Value>,
}

impl Model {
    /// Creates a model from an explicit assignment.
    pub fn from_assignment(assignment: BTreeMap<LVar, Value>) -> Self {
        Model { assignment }
    }

    /// Looks up the value of a logical variable.
    pub fn get(&self, x: LVar) -> Option<&Value> {
        self.assignment.get(&x)
    }

    /// Iterates over the assignment in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (&LVar, &Value)> {
        self.assignment.iter()
    }

    /// Number of assigned variables.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// True when no variables are assigned.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Substitutes the assignment into `e` and evaluates it concretely.
    ///
    /// # Errors
    ///
    /// Fails when `e` mentions an unassigned variable or an operator is
    /// applied outside its domain.
    pub fn eval(&self, e: &Expr) -> Result<Value, gillian_gil::EvalError> {
        let substituted = e.subst(&|sub| match sub {
            Expr::LVar(x) => self.assignment.get(x).map(|v| Expr::Val(v.clone())),
            _ => None,
        });
        eval(&Store::new(), &substituted)
    }

    /// Checks that every conjunct evaluates to `true` under the model.
    pub fn satisfies(&self, conjuncts: &[Expr]) -> bool {
        conjuncts
            .iter()
            .all(|c| matches!(self.eval(c), Ok(Value::Bool(true))))
    }
}

impl std::fmt::Display for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, (x, v)) in self.assignment.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x} ↦ {v}")?;
        }
        write!(f, "}}")
    }
}

/// Limits for the model search.
#[derive(Clone, Copy, Debug)]
pub struct ModelBudget {
    /// Maximum search-tree nodes visited.
    pub max_nodes: usize,
    /// Maximum candidate values tried per variable.
    pub candidates_per_var: usize,
}

impl Default for ModelBudget {
    fn default() -> Self {
        ModelBudget {
            max_nodes: 50_000,
            candidates_per_var: 16,
        }
    }
}

/// Attempts to find a verified model of the conjunction.
pub fn find_model(conjuncts: &[Expr], budget: ModelBudget) -> Option<Model> {
    let mut env = TypeEnv::new();
    for c in conjuncts {
        if !absorb_type_fact(&mut env, c) {
            return None;
        }
    }
    crate::sat::absorb_usage_types_pub(&mut env, conjuncts);

    let mut flat: Vec<Expr> = Vec::new();
    for c in conjuncts {
        if !flatten(&simplify(&env, c), &mut flat) {
            return None;
        }
    }

    // Collect variables from the *original* conjuncts: simplification may
    // discharge a conjunct (e.g. a `typeOf` fact) whose variable must still
    // be assigned for the final verification against the originals.
    let mut vars: BTreeSet<LVar> = BTreeSet::new();
    for c in conjuncts {
        vars.extend(c.lvars());
    }
    for c in &flat {
        vars.extend(c.lvars());
    }
    if vars.is_empty() {
        // Verify against the *original* conjuncts too: simplification may
        // have discharged a conjunct whose evaluation actually errors.
        let m = Model::default();
        return (m.satisfies(&flat) && m.satisfies(conjuncts)).then_some(m);
    }

    // Equality classes pin some variables outright.
    let mut uf = UnionFind::new();
    let mut ints = IntDomain::new();
    let mut nums = NumDomain::new();
    for c in &flat {
        match c {
            Expr::Bin(BinOp::Eq, a, b) if !uf.union(a, b) => {
                return None;
            }
            Expr::Bin(op @ (BinOp::Lt | BinOp::Leq), a, b) => {
                let strict = *op == BinOp::Lt;
                if infer(&env, a) == Some(TypeTag::Int) || infer(&env, b) == Some(TypeTag::Int) {
                    let _ = ints.assert_cmp(a, b, strict);
                } else if let Expr::Val(Value::Num(x)) = b.as_ref() {
                    let _ = nums.assert_cmp_const(a, x.get(), true, strict);
                } else if let Expr::Val(Value::Num(x)) = a.as_ref() {
                    let _ = nums.assert_cmp_const(b, x.get(), false, strict);
                }
            }
            _ => {}
        }
    }

    let mut fixed: BTreeMap<LVar, Value> = BTreeMap::new();
    for x in &vars {
        if let Some(v) = uf.value_of(&Expr::LVar(*x)) {
            fixed.insert(*x, v);
        }
    }

    // Literal pool from the formula, by type.
    let mut pool: BTreeMap<TypeTag, Vec<Value>> = BTreeMap::new();
    for c in &flat {
        c.visit(&mut |e| {
            if let Expr::Val(v) = e {
                let t = v.type_of();
                let entry = pool.entry(t).or_default();
                if !entry.contains(v) && entry.len() < 24 {
                    entry.push(v.clone());
                    // Neighbours help satisfy strict bounds / disequalities.
                    if let Value::Int(n) = v {
                        for d in [n.saturating_sub(1), n.saturating_add(1)] {
                            let nv = Value::Int(d);
                            if !entry.contains(&nv) && entry.len() < 24 {
                                entry.push(nv);
                            }
                        }
                    }
                }
            }
        });
    }

    let free: Vec<LVar> = vars
        .iter()
        .copied()
        .filter(|x| !fixed.contains_key(x))
        .collect();
    let candidates: Vec<Vec<Value>> = free
        .iter()
        .map(|x| candidate_values(*x, &env, &pool, &ints, &nums, budget.candidates_per_var))
        .collect();

    let mut nodes = 0usize;
    let mut assignment = fixed;
    if search(
        &flat,
        &free,
        &candidates,
        0,
        &mut assignment,
        &mut nodes,
        budget.max_nodes,
    ) {
        let m = Model::from_assignment(assignment);
        debug_assert!(m.satisfies(&flat));
        // `flat` came from `conjuncts` by semantics-preserving rewrites,
        // but verify against the originals to be safe.
        m.satisfies(conjuncts).then_some(m)
    } else {
        None
    }
}

fn flatten(e: &Expr, out: &mut Vec<Expr>) -> bool {
    match e {
        Expr::Val(Value::Bool(true)) => true,
        Expr::Val(Value::Bool(false)) => false,
        Expr::Bin(BinOp::And, a, b) => flatten(a, out) && flatten(b, out),
        other => {
            out.push(other.clone());
            true
        }
    }
}

fn candidate_values(
    x: LVar,
    env: &TypeEnv,
    pool: &BTreeMap<TypeTag, Vec<Value>>,
    ints: &IntDomain,
    nums: &NumDomain,
    cap: usize,
) -> Vec<Value> {
    let term = Expr::LVar(x);
    let mut out: Vec<Value> = Vec::new();
    let push = |v: Value, out: &mut Vec<Value>| {
        if !out.contains(&v) && out.len() < cap {
            out.push(v);
        }
    };
    let ty = env.get(&x).copied();

    // Interval endpoints first: most likely to satisfy comparisons.
    if matches!(ty, None | Some(TypeTag::Int)) {
        let itv = ints.query(&term);
        if !itv.is_empty() && (itv.lo != i64::MIN || itv.hi != i64::MAX) {
            let lo = itv.lo.max(i64::MIN + 2);
            let hi = itv.hi.min(i64::MAX - 2);
            for v in [
                lo,
                lo.saturating_add(1),
                hi,
                hi.saturating_sub(1),
                lo.midpoint(hi),
            ] {
                if v >= itv.lo && v <= itv.hi {
                    push(Value::Int(v), &mut out);
                }
            }
        }
    }
    if matches!(ty, None | Some(TypeTag::Num)) {
        let itv = nums.query(&term);
        if !itv.is_empty() && (itv.lo.is_finite() || itv.hi.is_finite()) {
            let pick = if itv.lo.is_finite() && itv.hi.is_finite() {
                (itv.lo + itv.hi) / 2.0
            } else if itv.lo.is_finite() {
                itv.lo + 1.0
            } else {
                itv.hi - 1.0
            };
            for v in [pick, itv.lo, itv.hi, itv.lo + 0.5, itv.hi - 0.5] {
                if v.is_finite() {
                    push(Value::num(v), &mut out);
                }
            }
        }
    }

    // Literals of the right type from the formula.
    let add_pool = |t: TypeTag, out: &mut Vec<Value>| {
        if let Some(vs) = pool.get(&t) {
            for v in vs {
                push(v.clone(), out);
            }
        }
    };
    match ty {
        Some(t) => add_pool(t, &mut out),
        None => {
            for t in TypeTag::ALL {
                add_pool(t, &mut out);
            }
        }
    }

    // Type defaults.
    let defaults: Vec<Value> = match ty {
        Some(TypeTag::Int) => vec![0, 1, 2, -1, 3, 7]
            .into_iter()
            .map(Value::Int)
            .collect(),
        Some(TypeTag::Num) => [0.0, 1.0, 2.0, -1.0, 0.5]
            .iter()
            .map(|&v| Value::num(v))
            .collect(),
        Some(TypeTag::Str) => ["", "a", "b", "ab"].iter().map(Value::str).collect(),
        Some(TypeTag::Bool) => vec![Value::Bool(true), Value::Bool(false)],
        Some(TypeTag::Sym) => vec![Value::Sym(Sym(Sym::FIRST_FRESH + 7000 + x.0))],
        Some(TypeTag::List) => vec![Value::nil(), Value::List(vec![Value::Int(0)])],
        Some(TypeTag::Type) => vec![Value::Type(TypeTag::Int)],
        Some(TypeTag::Proc) => vec![Value::proc("f")],
        None => vec![
            Value::Int(0),
            Value::Int(1),
            Value::Bool(true),
            Value::Bool(false),
            Value::num(0.0),
            Value::str("a"),
            Value::Sym(Sym(Sym::FIRST_FRESH + 7000 + x.0)),
            Value::nil(),
        ],
    };
    for v in defaults {
        push(v, &mut out);
    }
    out
}

/// DFS with incremental constraint checking: after each assignment, every
/// conjunct whose variables are all assigned must evaluate to `true`.
fn search(
    flat: &[Expr],
    free: &[LVar],
    candidates: &[Vec<Value>],
    idx: usize,
    assignment: &mut BTreeMap<LVar, Value>,
    nodes: &mut usize,
    max_nodes: usize,
) -> bool {
    if *nodes >= max_nodes {
        return false;
    }
    *nodes += 1;
    // Check conjuncts that just became fully assigned.
    let assigned: BTreeSet<LVar> = assignment.keys().copied().collect();
    for c in flat {
        let lv = c.lvars();
        if lv.iter().all(|x| assigned.contains(x)) {
            let m = Model::from_assignment(assignment.clone());
            if !matches!(m.eval(c), Ok(Value::Bool(true))) {
                return false;
            }
        }
    }
    if idx == free.len() {
        return true;
    }
    let x = free[idx];
    for v in &candidates[idx] {
        assignment.insert(x, v.clone());
        if search(
            flat,
            free,
            candidates,
            idx + 1,
            assignment,
            nodes,
            max_nodes,
        ) {
            return true;
        }
        assignment.remove(&x);
        if *nodes >= max_nodes {
            return false;
        }
    }
    false
}

/// Finds a model under escalating budgets: the given budget first, then
/// two progressively larger fresh searches (8×/64× nodes, 4×/8× more
/// candidates per variable).
///
/// The differential oracle uses this to make witness extraction *total
/// modulo budget*: a path condition the configured search cannot crack —
/// typically a case-split `Sat` whose end-of-solve witness harvest failed
/// — gets genuinely deeper searches before the path is (reported as)
/// skipped. `None` still never means "unsat", only "not found within the
/// largest budget".
pub fn find_model_escalating(conjuncts: &[Expr], budget: ModelBudget) -> Option<Model> {
    let mut budget = budget;
    for scale in 0..3 {
        if scale > 0 {
            budget = ModelBudget {
                max_nodes: budget.max_nodes.saturating_mul(8),
                candidates_per_var: budget.candidates_per_var.saturating_mul(if scale == 1 {
                    4
                } else {
                    2
                }),
            };
        }
        if let Some(m) = find_model(conjuncts, budget) {
            return Some(m);
        }
    }
    None
}

/// Convenience: find a model with default budgets, checking sat first.
pub fn find_model_default(conjuncts: &[Expr]) -> Option<Model> {
    if crate::sat::check_conjunction(conjuncts, SatBudget::default())
        == crate::sat::SatResult::Unsat
    {
        return None;
    }
    find_model(conjuncts, ModelBudget::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x(i: u64) -> Expr {
        Expr::lvar(LVar(i))
    }

    fn find(cs: &[Expr]) -> Option<Model> {
        find_model(cs, ModelBudget::default())
    }

    #[test]
    fn finds_model_for_equalities() {
        let m = find(&[x(0).eq(Expr::int(5)), x(1).eq(x(0))]).unwrap();
        assert_eq!(m.get(LVar(0)), Some(&Value::Int(5)));
        assert_eq!(m.get(LVar(1)), Some(&Value::Int(5)));
    }

    #[test]
    fn finds_model_for_intervals() {
        let m = find(&[
            Expr::int(10).le(x(0)),
            x(0).lt(Expr::int(12)),
            x(0).ne(Expr::int(10)),
        ])
        .unwrap();
        assert_eq!(m.get(LVar(0)), Some(&Value::Int(11)));
    }

    #[test]
    fn finds_model_with_type_constraints() {
        let m = find(&[
            x(0).type_of().eq(Expr::type_tag(TypeTag::Str)),
            x(0).ne(Expr::str("")),
        ])
        .unwrap();
        assert!(matches!(m.get(LVar(0)), Some(Value::Str(s)) if !s.is_empty()));
    }

    #[test]
    fn rejects_unsat() {
        assert!(find(&[x(0).eq(Expr::int(1)), x(0).eq(Expr::int(2))]).is_none());
        assert!(find(&[Expr::ff()]).is_none());
    }

    #[test]
    fn model_is_verified_against_errors() {
        // head(x0) = 1 with x0 a list: must pick a non-empty list or fail;
        // either way, no unverified model escapes.
        let cs = [x(0).clone().lst_head().eq(Expr::int(1))];
        if let Some(m) = find(&cs) {
            assert!(m.satisfies(&cs));
        }
    }

    #[test]
    fn num_bounds_guide_search() {
        let m = find(&[Expr::num(1.0).lt(x(0)), x(0).lt(Expr::num(2.0))]).unwrap();
        let v = m.get(LVar(0)).unwrap().as_f64().unwrap();
        assert!(v > 1.0 && v < 2.0, "got {v}");
    }

    #[test]
    fn bool_and_disjunction_models() {
        let m = find(&[x(0).clone().or(x(1).clone()), x(0).not()]).unwrap();
        assert_eq!(m.get(LVar(1)), Some(&Value::Bool(true)));
    }

    #[test]
    fn list_equality_models() {
        let m = find(&[Expr::list([x(0), Expr::int(2)])
            .eq(Expr::Val(Value::List(vec![Value::Int(1), Value::Int(2)])))])
        .unwrap();
        assert_eq!(m.get(LVar(0)), Some(&Value::Int(1)));
    }
}
