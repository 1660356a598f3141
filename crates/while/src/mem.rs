//! The While concrete and symbolic memory models (paper §2.4, Fig. 3).
//!
//! Concrete memories map `(location, property)` cells to values
//! (`µ : U × S ⇀ V`); symbolic memories map `(logical expression,
//! property)` cells to logical expressions (`µ̂ : Ê × S ⇀ Ê`). Property
//! names stay concrete strings — While objects are *static* (dynamic
//! property names arrive with the MiniJS instantiation).
//!
//! The action set is `A_While = {lookup, mutate, dispose}`; symbolic
//! `lookup`/`mutate` branch over the locations the address may alias
//! (rules `S-Lookup` and `S-Mutate-{Present,Absent}` of Fig. 3), learning
//! the corresponding equalities/disequalities into the path condition.

use gillian_core::checkpoint::StateIoError;
use gillian_core::memory::{ConcreteMemory, SymBranch, SymbolicMemory};
use gillian_gil::serial::{self, ByteReader, Decoder, Encoder};
use gillian_gil::{Expr, PMap, Value};
use gillian_solver::{PathCondition, Solver};
use std::collections::BTreeMap;
use std::sync::Arc;

fn err_value(msg: impl Into<String>) -> Value {
    Value::str(msg.into())
}

/// A concrete While memory: `(location, property) ⇀ value`
/// (copy-on-write behind an [`Arc`], like the JS and C memories).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WhileConcMemory {
    cells: Arc<BTreeMap<(Value, Arc<str>), Value>>,
}

impl WhileConcMemory {
    /// Number of cells (for tests).
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cells are allocated.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Direct cell insertion (for tests and interpretation functions).
    pub fn insert(&mut self, loc: Value, prop: impl AsRef<str>, value: Value) -> Option<Value> {
        Arc::make_mut(&mut self.cells).insert((loc, Arc::from(prop.as_ref())), value)
    }

    /// Direct cell read (for tests).
    pub fn get(&self, loc: &Value, prop: &str) -> Option<&Value> {
        self.cells.get(&(loc.clone(), Arc::from(prop)))
    }
}

/// Destructures an action argument list.
fn value_args(arg: &Value, n: usize, action: &str) -> Result<Vec<Value>, Value> {
    match arg.as_list() {
        Some(items) if items.len() == n => Ok(items.to_vec()),
        _ => Err(err_value(format!(
            "{action}: expected {n}-element argument list, got {arg}"
        ))),
    }
}

impl ConcreteMemory for WhileConcMemory {
    fn execute_action(&mut self, name: &str, arg: Value) -> Result<Value, Value> {
        match name {
            // [C-Lookup]  µ = _ ⊎ l.p ↦ v  ⟹  µ.lookup([l,p]) ⇝ (µ, v)
            "lookup" => {
                let args = value_args(&arg, 2, "lookup")?;
                let prop = args[1]
                    .as_str()
                    .ok_or_else(|| err_value("lookup: property must be a string"))?;
                self.cells
                    .get(&(args[0].clone(), Arc::from(prop)))
                    .cloned()
                    .ok_or_else(|| err_value(format!("lookup: no property {prop} at {}", args[0])))
            }
            // [C-Mutate-Present] / [C-Mutate-Absent]
            "mutate" => {
                let args = value_args(&arg, 3, "mutate")?;
                let prop = args[1]
                    .as_str()
                    .ok_or_else(|| err_value("mutate: property must be a string"))?;
                Arc::make_mut(&mut self.cells)
                    .insert((args[0].clone(), Arc::from(prop)), args[2].clone());
                Ok(args[2].clone())
            }
            // [C-Dispose]: drop every cell of the object.
            "dispose" => {
                let loc = arg;
                Arc::make_mut(&mut self.cells).retain(|(l, _), _| l != &loc);
                Ok(Value::Bool(true))
            }
            other => Err(err_value(format!("unknown While action {other}"))),
        }
    }
}

/// A symbolic While memory: `(location expression, property) ⇀ expression`.
///
/// The cells are a persistent map ([`PMap`]): cloning the memory is O(1),
/// and a write copies only the O(log n) nodes on the path to the changed
/// cell (DESIGN.md §18).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WhileSymMemory {
    cells: PMap<(Expr, Arc<str>), Expr>,
}

impl WhileSymMemory {
    /// Number of cells (for tests).
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cells are allocated.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Direct cell insertion (for tests).
    pub fn insert(&mut self, loc: Expr, prop: impl AsRef<str>, value: Expr) -> Option<Expr> {
        self.cells.insert((loc, Arc::from(prop.as_ref())), value)
    }

    /// Iterates over cells in canonical order (used by the interpretation
    /// function `I_W`).
    pub fn cells(&self) -> impl Iterator<Item = (&(Expr, Arc<str>), &Expr)> {
        self.cells.iter()
    }

    /// The locations that define property `p`.
    fn locs_with(&self, prop: &str) -> Vec<Expr> {
        self.cells
            .keys()
            .filter(|(_, p)| p.as_ref() == prop)
            .map(|(l, _)| l.clone())
            .collect()
    }

    /// All distinct locations in the memory, in order.
    fn locs(&self) -> Vec<Expr> {
        let mut out: Vec<Expr> = self.cells.keys().map(|(l, _)| l.clone()).collect();
        out.dedup();
        out
    }

    /// Drops every cell of location `loc`: the cells of one location are
    /// contiguous in key order, found by one range scan from `(loc, "")`.
    fn dispose(&mut self, loc: &Expr) {
        let props: Vec<(Expr, Arc<str>)> = self
            .cells
            .range((loc.clone(), Arc::from(""))..)
            .take_while(|((l, _), _)| l == loc)
            .map(|(key, _)| key.clone())
            .collect();
        for key in props {
            self.cells.remove(&key);
        }
    }
}

fn expr_args(arg: &Expr, n: usize, action: &str) -> Result<Vec<Expr>, Expr> {
    let parts: Option<Vec<Expr>> = match arg {
        Expr::List(es) if es.len() == n => Some(es.to_vec()),
        Expr::Val(Value::List(vs)) if vs.len() == n => {
            Some(vs.iter().cloned().map(Expr::Val).collect())
        }
        _ => None,
    };
    parts.ok_or_else(|| {
        Expr::str(format!(
            "{action}: expected {n}-element argument list, got {arg}"
        ))
    })
}

fn static_prop(e: &Expr, action: &str) -> Result<Arc<str>, Expr> {
    match e {
        Expr::Val(Value::Str(s)) => Ok(s.clone()),
        other => Err(Expr::str(format!(
            "{action}: property must be a literal string, got {other}"
        ))),
    }
}

impl SymbolicMemory for WhileSymMemory {
    fn language() -> &'static str {
        "while"
    }

    fn save(&self, enc: &mut Encoder, out: &mut Vec<u8>) -> Result<(), StateIoError> {
        serial::put_len(out, self.cells.len(), "while memory cells")?;
        // Iteration is in key order, so equal memories encode to equal
        // bytes.
        for ((loc, prop), value) in self.cells.iter() {
            enc.write_expr(out, loc)?;
            serial::put_str(out, prop)?;
            enc.write_expr(out, value)?;
        }
        Ok(())
    }

    fn load(dec: &Decoder, r: &mut ByteReader<'_>) -> Result<Self, StateIoError> {
        let n = r.count()?;
        let mut cells = PMap::new();
        for _ in 0..n {
            let loc = dec.read_expr(r)?;
            let prop: Arc<str> = Arc::from(r.str()?);
            let value = dec.read_expr(r)?;
            cells.insert((loc, prop), value);
        }
        Ok(WhileSymMemory { cells })
    }

    fn execute_action(
        &self,
        name: &str,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Vec<SymBranch<Self>> {
        match name {
            // [S-Lookup]: branch on every location potentially equal to the
            // address; learn the equality. The residual branch (equal to
            // none) is the "property not found" error.
            "lookup" => {
                let (el, prop) = match expr_args(arg, 2, "lookup")
                    .and_then(|a| Ok((a[0].clone(), static_prop(&a[1], "lookup")?)))
                {
                    Ok(x) => x,
                    Err(e) => return vec![SymBranch::err_if(self.clone(), e, Expr::tt())],
                };
                let mut branches = Vec::new();
                let mut none_of = Expr::tt();
                for loc in self.locs_with(&prop) {
                    let eq = solver.simplify(pc, &el.clone().eq(loc.clone()));
                    if eq.as_bool() != Some(false) && solver.sat_with(pc, &eq).possibly_sat() {
                        let value = self
                            .cells
                            .get(&(loc.clone(), prop.clone()))
                            .expect("locs_with yields locations defining prop")
                            .clone();
                        branches.push(SymBranch::ok_if(self.clone(), value, eq));
                    }
                    none_of = none_of.and(el.clone().ne(loc));
                }
                let none_of = solver.simplify(pc, &none_of);
                if none_of.as_bool() != Some(false) && solver.sat_with(pc, &none_of).possibly_sat()
                {
                    branches.push(SymBranch::err_if(
                        self.clone(),
                        Expr::str(format!("lookup: no property {prop} at {el}")),
                        none_of,
                    ));
                }
                branches
            }
            // [S-Mutate-Present] / [S-Mutate-Absent]
            "mutate" => {
                let (el, prop, ev) = match expr_args(arg, 3, "mutate")
                    .and_then(|a| Ok((a[0].clone(), static_prop(&a[1], "mutate")?, a[2].clone())))
                {
                    Ok(x) => x,
                    Err(e) => return vec![SymBranch::err_if(self.clone(), e, Expr::tt())],
                };
                let mut branches = Vec::new();
                let mut none_of = Expr::tt();
                for loc in self.locs_with(&prop) {
                    let eq = solver.simplify(pc, &el.clone().eq(loc.clone()));
                    if eq.as_bool() != Some(false) && solver.sat_with(pc, &eq).possibly_sat() {
                        let mut mem = self.clone();
                        mem.cells.insert((loc.clone(), prop.clone()), ev.clone());
                        branches.push(SymBranch::ok_if(mem, ev.clone(), eq));
                    }
                    none_of = none_of.and(el.clone().ne(loc));
                }
                // Absent: the address defines no `p` yet; extend.
                let none_of = solver.simplify(pc, &none_of);
                if none_of.as_bool() != Some(false) && solver.sat_with(pc, &none_of).possibly_sat()
                {
                    let mut mem = self.clone();
                    mem.cells.insert((el, prop), ev.clone());
                    branches.push(SymBranch::ok_if(mem, ev, none_of));
                }
                branches
            }
            // [S-Dispose]: branch on aliasing with each known location.
            "dispose" => {
                let el = arg.clone();
                let mut branches = Vec::new();
                let mut none_of = Expr::tt();
                for loc in self.locs() {
                    let eq = solver.simplify(pc, &el.clone().eq(loc.clone()));
                    if eq.as_bool() != Some(false) && solver.sat_with(pc, &eq).possibly_sat() {
                        let mut mem = self.clone();
                        mem.dispose(&loc);
                        branches.push(SymBranch::ok_if(mem, Expr::tt(), eq));
                    }
                    none_of = none_of.and(el.clone().ne(loc));
                }
                let none_of = solver.simplify(pc, &none_of);
                if none_of.as_bool() != Some(false) && solver.sat_with(pc, &none_of).possibly_sat()
                {
                    branches.push(SymBranch::ok_if(self.clone(), Expr::tt(), none_of));
                }
                branches
            }
            other => vec![SymBranch::err_if(
                self.clone(),
                Expr::str(format!("unknown While action {other}")),
                Expr::tt(),
            )],
        }
    }

    fn lvars(&self) -> std::collections::BTreeSet<gillian_gil::LVar> {
        let mut out = std::collections::BTreeSet::new();
        for ((loc, _), val) in self.cells.iter() {
            out.extend(loc.lvars());
            out.extend(val.lvars());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gillian_gil::{LVar, Sym};

    fn sym(i: u64) -> Value {
        Value::Sym(Sym(Sym::FIRST_FRESH + i))
    }

    #[test]
    fn concrete_lookup_mutate_dispose() {
        let mut m = WhileConcMemory::default();
        let l = sym(0);
        let arg = Value::List(vec![l.clone(), Value::str("a"), Value::Int(1)]);
        m.execute_action("mutate", arg).unwrap();
        let got = m
            .execute_action("lookup", Value::List(vec![l.clone(), Value::str("a")]))
            .unwrap();
        assert_eq!(got, Value::Int(1));
        // Lookup of an absent property errors (C-Lookup needs presence).
        assert!(m
            .execute_action("lookup", Value::List(vec![l.clone(), Value::str("b")]))
            .is_err());
        m.execute_action("dispose", l.clone()).unwrap();
        assert!(m
            .execute_action("lookup", Value::List(vec![l, Value::str("a")]))
            .is_err());
        assert!(m.is_empty());
    }

    #[test]
    fn symbolic_lookup_on_literal_location_is_deterministic() {
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let mut m = WhileSymMemory::default();
        let l = Expr::Val(sym(0));
        m.insert(l.clone(), "a", Expr::int(1));
        let branches = m.execute_action("lookup", &Expr::list([l, Expr::str("a")]), &pc, &solver);
        assert_eq!(branches.len(), 1, "literal locations do not alias-branch");
        assert_eq!(branches[0].outcome, Ok(Expr::int(1)));
        assert_eq!(branches[0].constraint, Expr::tt());
    }

    #[test]
    fn symbolic_lookup_branches_on_aliasing() {
        // Two objects with property "a"; address is a logical variable:
        // lookup must branch three ways (alias l0, alias l1, neither).
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let mut m = WhileSymMemory::default();
        let l0 = Expr::Val(sym(0));
        let l1 = Expr::Val(sym(1));
        m.insert(l0.clone(), "a", Expr::int(10));
        m.insert(l1.clone(), "a", Expr::int(11));
        let x = Expr::lvar(LVar(0));
        let branches = m.execute_action(
            "lookup",
            &Expr::list([x.clone(), Expr::str("a")]),
            &pc,
            &solver,
        );
        assert_eq!(branches.len(), 3, "S-Lookup branches + error branch");
        let oks: Vec<_> = branches.iter().filter(|b| b.outcome.is_ok()).collect();
        assert_eq!(oks.len(), 2);
        assert!(branches.iter().any(|b| b.outcome.is_err()));
    }

    #[test]
    fn symbolic_mutate_absent_extends_memory() {
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let m = WhileSymMemory::default();
        let l = Expr::Val(sym(0));
        let branches = m.execute_action(
            "mutate",
            &Expr::list([l.clone(), Expr::str("p"), Expr::int(7)]),
            &pc,
            &solver,
        );
        assert_eq!(branches.len(), 1);
        assert_eq!(branches[0].memory.len(), 1);
    }

    #[test]
    fn symbolic_mutate_branches_present_and_absent() {
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let mut m = WhileSymMemory::default();
        let l0 = Expr::Val(sym(0));
        m.insert(l0.clone(), "p", Expr::int(1));
        let x = Expr::lvar(LVar(0));
        let branches = m.execute_action(
            "mutate",
            &Expr::list([x, Expr::str("p"), Expr::int(2)]),
            &pc,
            &solver,
        );
        // Present (x = l0, overwrite) and absent (x ≠ l0, extend).
        assert_eq!(branches.len(), 2);
        assert!(branches.iter().all(|b| b.outcome.is_ok()));
        assert!(branches.iter().any(|b| b.memory.len() == 1));
        assert!(branches.iter().any(|b| b.memory.len() == 2));
    }

    #[test]
    fn pc_prunes_alias_branches() {
        let solver = Solver::optimized();
        let mut pc = PathCondition::new();
        let mut m = WhileSymMemory::default();
        let l0 = Expr::Val(sym(0));
        let l1 = Expr::Val(sym(1));
        m.insert(l0.clone(), "a", Expr::int(10));
        m.insert(l1.clone(), "a", Expr::int(11));
        let x = Expr::lvar(LVar(0));
        pc.push(x.clone().eq(l0.clone()));
        let branches = m.execute_action("lookup", &Expr::list([x, Expr::str("a")]), &pc, &solver);
        assert_eq!(branches.len(), 1, "pc pins the alias: {branches:?}");
        assert_eq!(branches[0].outcome, Ok(Expr::int(10)));
    }

    #[test]
    fn symbolic_mutate_shares_all_but_a_path() {
        // 100 objects with fields `a` and `b`.
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let mut m = WhileSymMemory::default();
        for i in 0..100 {
            m.insert(Expr::Val(sym(i)), "a", Expr::int(0));
            m.insert(Expr::Val(sym(i)), "b", Expr::int(1));
        }
        let bound = 2 * m.cells.height();
        for field in ["a", "c"] {
            let arg = Expr::list([Expr::Val(sym(61)), Expr::str(field), Expr::int(5)]);
            let branches = m.execute_action("mutate", &arg, &pc, &solver);
            assert_eq!(branches.len(), 1);
            let cells = &branches[0].memory.cells;
            let unshared = cells.unshared_nodes(&m.cells);
            assert!(
                unshared <= bound && 4 * bound < cells.node_count(),
                "mutate {field} copied {unshared} of {} nodes (bound {bound})",
                cells.node_count()
            );
        }
    }
}
