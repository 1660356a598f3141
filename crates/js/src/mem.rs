//! The MiniJS concrete and symbolic memory models (paper §4.1).
//!
//! A JS memory is a pair of a *heap* and a *metadata table*:
//!
//! - concrete heap `h : U × V ⇀ V` — object locations and property *keys*
//!   (keys are full values: MiniJS indexes arrays with numbers directly
//!   instead of stringifying, a documented deviation from ES5) to values;
//! - concrete metadata table `m : U ⇀ V` — per-object metadata (MiniJS
//!   stores the class tag, `"Object"`/`"Array"`); an entry in the table is
//!   what makes a location *an object*.
//!
//! Symbolically both components map logical expressions. The model has
//! eight actions — creation/deletion of objects, retrieval/update/deletion
//! of properties and metadata, plus property test:
//! `{newObj, delObj, getProp, setProp, delProp, hasProp, getMeta, setMeta}`.
//!
//! The symbolic `getProp` implements the paper's `SGetProp` rule: it
//! branches on the looked-up key equalling each key of the aliased object
//! (under the path condition), passing the learned equality back to the
//! state — plus the *absent* branch yielding `undefined` (JS semantics)
//! under the conjunction of the disequalities.

use crate::values::undefined_expr;
use gillian_core::memory::{ConcreteMemory, SymBranch, SymbolicMemory};
use gillian_gil::{Expr, LVar, PMap, Value};
use gillian_solver::{PathCondition, Solver};
use std::collections::{BTreeMap, BTreeSet};

/// Dense codes for the eight JS actions, used by the bytecode backend's
/// per-site inline caches (`gillian_core::exec`): a dispatch site caches
/// the code on first execution and thereafter skips the string match.
mod code {
    pub const NEW_OBJ: u16 = 0;
    pub const DEL_OBJ: u16 = 1;
    pub const GET_PROP: u16 = 2;
    pub const SET_PROP: u16 = 3;
    pub const DEL_PROP: u16 = 4;
    pub const HAS_PROP: u16 = 5;
    pub const GET_META: u16 = 6;
    pub const SET_META: u16 = 7;
}

fn js_action_code(name: &str) -> Option<u16> {
    Some(match name {
        "newObj" => code::NEW_OBJ,
        "delObj" => code::DEL_OBJ,
        "getProp" => code::GET_PROP,
        "setProp" => code::SET_PROP,
        "delProp" => code::DEL_PROP,
        "hasProp" => code::HAS_PROP,
        "getMeta" => code::GET_META,
        "setMeta" => code::SET_META,
        _ => return None,
    })
}

fn err_value(msg: impl Into<String>) -> Value {
    Value::List(vec![Value::str("JSError"), Value::str(msg.into())])
}

fn err_expr(msg: impl Into<String>) -> Expr {
    Expr::list([Expr::str("JSError"), Expr::str(msg.into())])
}

/// A concrete MiniJS memory: heap cells plus metadata table.
///
/// Both tables are copy-on-write behind [`Arc`]s: cloning the memory (the
/// engine clones states on every step) is two pointer bumps, and
/// straight-line execution mutates in place.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JsConcMemory {
    meta: std::sync::Arc<BTreeMap<Value, Value>>,
    cells: std::sync::Arc<BTreeMap<(Value, Value), Value>>,
}

impl JsConcMemory {
    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.meta.len()
    }

    /// Direct accessors for tests and interpretation functions.
    pub fn insert_object(&mut self, loc: Value, meta: Value) -> Option<Value> {
        std::sync::Arc::make_mut(&mut self.meta).insert(loc, meta)
    }

    /// Inserts a heap cell directly.
    pub fn insert_cell(&mut self, loc: Value, key: Value, value: Value) -> Option<Value> {
        std::sync::Arc::make_mut(&mut self.cells).insert((loc, key), value)
    }

    /// Reads a heap cell directly.
    pub fn cell(&self, loc: &Value, key: &Value) -> Option<&Value> {
        self.cells.get(&(loc.clone(), key.clone()))
    }
}

fn value_args(arg: &Value, n: usize, action: &str) -> Result<Vec<Value>, Value> {
    match arg.as_list() {
        Some(items) if items.len() == n => Ok(items.to_vec()),
        _ => Err(err_value(format!(
            "{action}: expected {n}-element argument list, got {arg}"
        ))),
    }
}

impl ConcreteMemory for JsConcMemory {
    // Concrete dispatch keeps the default (name-keyed) coded delegation:
    // the concrete actions are dominated by their BTreeMap operations, so
    // the inline cache's only concrete win is resolving the code once.
    fn action_code(&self, name: &str) -> Option<u16> {
        js_action_code(name)
    }

    fn execute_action(&mut self, name: &str, arg: Value) -> Result<Value, Value> {
        match name {
            "newObj" => {
                let args = value_args(&arg, 2, "newObj")?;
                if self.meta.contains_key(&args[0]) {
                    return Err(err_value(format!("newObj: {} already exists", args[0])));
                }
                std::sync::Arc::make_mut(&mut self.meta).insert(args[0].clone(), args[1].clone());
                Ok(args[0].clone())
            }
            "delObj" => {
                let loc = arg;
                if std::sync::Arc::make_mut(&mut self.meta)
                    .remove(&loc)
                    .is_none()
                {
                    return Err(err_value(format!("delObj: {loc} is not an object")));
                }
                std::sync::Arc::make_mut(&mut self.cells).retain(|(l, _), _| l != &loc);
                Ok(Value::Bool(true))
            }
            "getProp" => {
                let args = value_args(&arg, 2, "getProp")?;
                if !self.meta.contains_key(&args[0]) {
                    return Err(err_value(format!("getProp: {} is not an object", args[0])));
                }
                Ok(self
                    .cells
                    .get(&(args[0].clone(), args[1].clone()))
                    .cloned()
                    .unwrap_or_else(crate::values::undefined_value))
            }
            "setProp" => {
                let args = value_args(&arg, 3, "setProp")?;
                if !self.meta.contains_key(&args[0]) {
                    return Err(err_value(format!("setProp: {} is not an object", args[0])));
                }
                std::sync::Arc::make_mut(&mut self.cells)
                    .insert((args[0].clone(), args[1].clone()), args[2].clone());
                Ok(args[2].clone())
            }
            "delProp" => {
                let args = value_args(&arg, 2, "delProp")?;
                if !self.meta.contains_key(&args[0]) {
                    return Err(err_value(format!("delProp: {} is not an object", args[0])));
                }
                std::sync::Arc::make_mut(&mut self.cells)
                    .remove(&(args[0].clone(), args[1].clone()));
                Ok(Value::Bool(true))
            }
            "hasProp" => {
                let args = value_args(&arg, 2, "hasProp")?;
                if !self.meta.contains_key(&args[0]) {
                    return Err(err_value(format!("hasProp: {} is not an object", args[0])));
                }
                Ok(Value::Bool(
                    self.cells.contains_key(&(args[0].clone(), args[1].clone())),
                ))
            }
            "getMeta" => self
                .meta
                .get(&arg)
                .cloned()
                .ok_or_else(|| err_value(format!("getMeta: {arg} is not an object"))),
            "setMeta" => {
                let args = value_args(&arg, 2, "setMeta")?;
                if !self.meta.contains_key(&args[0]) {
                    return Err(err_value(format!("setMeta: {} is not an object", args[0])));
                }
                std::sync::Arc::make_mut(&mut self.meta).insert(args[0].clone(), args[1].clone());
                Ok(args[1].clone())
            }
            other => Err(err_value(format!("unknown JS action {other}"))),
        }
    }
}

/// True for a literal expression: one whose equalities with other
/// literals fold syntactically.
fn is_literal(e: &Expr) -> bool {
    matches!(e, Expr::Val(_))
}

/// One symbolic object: its metadata and its properties.
#[derive(Clone, Debug, PartialEq)]
struct JsObject {
    meta: Expr,
    props: PMap<Expr, Expr>,
    /// How many property keys are not literals.
    symbolic_keys: usize,
}

impl JsObject {
    fn new(meta: Expr) -> Self {
        JsObject {
            meta,
            props: PMap::new(),
            symbolic_keys: 0,
        }
    }

    fn set(&mut self, key: Expr, value: Expr) -> Option<Expr> {
        let symbolic = !is_literal(&key);
        let old = self.props.insert(key, value);
        if old.is_none() && symbolic {
            self.symbolic_keys += 1;
        }
        old
    }

    fn unset(&mut self, key: &Expr) {
        if self.props.remove(key).is_some() && !is_literal(key) {
            self.symbolic_keys -= 1;
        }
    }
}

/// A symbolic MiniJS memory: objects keyed by location, each holding its
/// metadata and a property map.
///
/// Both levels are persistent maps ([`PMap`]): cloning the memory is
/// O(1), and a property write copies only the O(log n) nodes on the path
/// to that object and, inside it, to that property (DESIGN.md §18).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JsSymMemory {
    heap: PMap<Expr, JsObject>,
    /// How many object locations are not literals.
    symbolic_locs: usize,
}

impl JsSymMemory {
    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.heap.len()
    }

    /// Registers an object (or replaces its metadata), returning the
    /// metadata it replaces.
    pub fn insert_object(&mut self, loc: Expr, meta: Expr) -> Option<Expr> {
        if let Some(obj) = self.heap.get_mut(&loc) {
            return Some(std::mem::replace(&mut obj.meta, meta));
        }
        if !is_literal(&loc) {
            self.symbolic_locs += 1;
        }
        self.heap.insert(loc, JsObject::new(meta));
        None
    }

    /// Direct cell insertion for tests; the object must be registered.
    pub fn insert_cell(&mut self, loc: Expr, key: Expr, value: Expr) -> Option<Expr> {
        self.object_mut(&loc).set(key, value)
    }

    /// Iterates over objects and their metadata, by location (for the
    /// interpretation function).
    pub fn objects(&self) -> impl Iterator<Item = (&Expr, &Expr)> {
        self.heap.iter().map(|(loc, obj)| (loc, &obj.meta))
    }

    /// Iterates over heap cells `(location, key, value)` in
    /// `(location, key)` order (for the interpretation function).
    pub fn heap_cells(&self) -> impl Iterator<Item = (&Expr, &Expr, &Expr)> {
        self.heap
            .iter()
            .flat_map(|(loc, obj)| obj.props.iter().map(move |(k, v)| (loc, k, v)))
    }

    /// The object at the registered location `loc`, copying the path to
    /// it where it is shared.
    fn object_mut(&mut self, loc: &Expr) -> &mut JsObject {
        self.heap.get_mut(loc).expect("object registered")
    }

    fn remove_object(&mut self, loc: &Expr) {
        if self.heap.remove(loc).is_some() && !is_literal(loc) {
            self.symbolic_locs -= 1;
        }
    }

    /// The value of property `key` (syntactically) of object `loc`.
    fn prop(&self, loc: &Expr, key: &Expr) -> Option<&Expr> {
        self.heap.get(loc)?.props.get(key)
    }

    /// The keys defined on object `loc` (syntactically keyed cells).
    fn keys_of(&self, loc: &Expr) -> Vec<Expr> {
        self.heap
            .get(loc)
            .map(|obj| obj.props.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// Matches `el` against the registered object locations: the feasible
    /// `(location, equality constraint)` pairs plus the
    /// not-any-object constraint.
    fn match_objects(
        &self,
        el: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> (Vec<(Expr, Expr)>, Expr) {
        let mut matches = Vec::new();
        let mut none_of = Expr::tt();
        for loc in self.heap.keys() {
            let eq = solver.simplify(pc, &el.clone().eq(loc.clone()));
            if eq.as_bool() != Some(false) && solver.sat_with(pc, &eq).possibly_sat() {
                matches.push((loc.clone(), eq));
            }
            none_of = none_of.and(el.clone().ne(loc.clone()));
        }
        (matches, solver.simplify(pc, &none_of))
    }

    /// Matches key `ek` against the keys of object `loc`.
    fn match_keys(
        &self,
        loc: &Expr,
        ek: &Expr,
        under: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> (Vec<(Expr, Expr)>, Expr) {
        let mut matches = Vec::new();
        let mut none_of = under.clone();
        for key in self.keys_of(loc) {
            let eq = solver.simplify(pc, &under.clone().and(ek.clone().eq(key.clone())));
            if eq.as_bool() != Some(false) && solver.sat_with(pc, &eq).possibly_sat() {
                matches.push((key.clone(), eq));
            }
            none_of = none_of.and(ek.clone().ne(key.clone()));
        }
        (matches, solver.simplify(pc, &none_of))
    }

    // ---- literal fast paths (bytecode backend only) -----------------
    //
    // When the looked-up location/key and every registered location/key
    // are literals, each equality in `match_objects`/`match_keys` folds
    // syntactically: the matched branch's constraint is the literal
    // `true`, every other candidate folds to `false`, and the
    // none-of-them disequality conjunction folds to `false` (a match
    // exists) or `true` (no match). `eval_binop(Eq)` is total and
    // `Value`'s derived `Eq`/`Ord` agree, so a map hit is *the same
    // decision* the solver's constant folder would make. The branch
    // set is therefore decided without the solver — except for one
    // residual probe: `push_branch` gates the surviving branch on
    // `sat(pc ∧ true)`, which [`literal_gate`] preserves so an unsat
    // path condition yields the same empty branch set on both paths.
    // These helpers are reachable only from `execute_action_coded` (the
    // bytecode backend); the tree walk stays a byte-identical reference.

    /// Resolves a literal location against a fully-literal object table:
    /// `Some(found)` when the match folds for every registered object,
    /// `None` when any side is symbolic and `match_objects` must run.
    fn literal_object(&self, el: &Expr) -> Option<Option<Expr>> {
        if !is_literal(el) || self.symbolic_locs > 0 {
            return None;
        }
        Some(self.heap.get_key_value(el).map(|(loc, _)| loc.clone()))
    }

    /// Resolves a literal key against the registered object `loc` when
    /// all of its keys are literal; `None` falls back to `match_keys`.
    fn literal_key(&self, loc: &Expr, ek: &Expr) -> Option<Option<Expr>> {
        let obj = self.heap.get(loc)?;
        if !is_literal(ek) || obj.symbolic_keys > 0 {
            return None;
        }
        Some(obj.props.get_key_value(ek).map(|(k, _)| k.clone()))
    }

    /// The non-object error branch shared by the literal fast paths.
    fn literal_not_obj(
        &self,
        action: &str,
        el: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Vec<SymBranch<Self>> {
        literal_gate(
            pc,
            solver,
            vec![SymBranch::err_if(
                self.clone(),
                err_expr(format!("{action}: {el} is not an object")),
                Expr::tt(),
            )],
        )
    }

    fn fast_del_obj(
        &self,
        el: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Option<Vec<SymBranch<Self>>> {
        Some(match self.literal_object(el)? {
            Some(loc) => {
                let mut mem = self.clone();
                mem.remove_object(&loc);
                literal_gate(
                    pc,
                    solver,
                    vec![SymBranch::ok_if(mem, Expr::tt(), Expr::tt())],
                )
            }
            None => self.literal_not_obj("delObj", el, pc, solver),
        })
    }

    fn fast_get_prop(
        &self,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Option<Vec<SymBranch<Self>>> {
        let args = expr_args(arg, 2, "getProp").ok()?;
        let (el, ek) = (&args[0], &args[1]);
        let loc = match self.literal_object(el)? {
            Some(loc) => loc,
            None => return Some(self.literal_not_obj("getProp", el, pc, solver)),
        };
        let value = match self.literal_key(&loc, ek)? {
            Some(key) => self.prop(&loc, &key).expect("key found").clone(),
            // Absent key reads as `undefined` (JS semantics).
            None => undefined_expr(),
        };
        Some(literal_gate(
            pc,
            solver,
            vec![SymBranch::ok_if(self.clone(), value, Expr::tt())],
        ))
    }

    fn fast_set_prop(
        &self,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Option<Vec<SymBranch<Self>>> {
        let args = expr_args(arg, 3, "setProp").ok()?;
        let (el, ek, ev) = (&args[0], &args[1], &args[2]);
        let loc = match self.literal_object(el)? {
            Some(loc) => loc,
            None => return Some(self.literal_not_obj("setProp", el, pc, solver)),
        };
        // Overwrite keeps the stored key expression, extend inserts the
        // looked-up one — content-identical here (both fold equal).
        let key = self.literal_key(&loc, ek)?.unwrap_or_else(|| ek.clone());
        let mut mem = self.clone();
        mem.object_mut(&loc).set(key, ev.clone());
        Some(literal_gate(
            pc,
            solver,
            vec![SymBranch::ok_if(mem, ev.clone(), Expr::tt())],
        ))
    }

    fn fast_del_prop(
        &self,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Option<Vec<SymBranch<Self>>> {
        let args = expr_args(arg, 2, "delProp").ok()?;
        let (el, ek) = (&args[0], &args[1]);
        let loc = match self.literal_object(el)? {
            Some(loc) => loc,
            None => return Some(self.literal_not_obj("delProp", el, pc, solver)),
        };
        let mem = match self.literal_key(&loc, ek)? {
            Some(key) => {
                let mut mem = self.clone();
                mem.object_mut(&loc).unset(&key);
                mem
            }
            // Deleting an absent property is a no-op, like JS.
            None => self.clone(),
        };
        Some(literal_gate(
            pc,
            solver,
            vec![SymBranch::ok_if(mem, Expr::tt(), Expr::tt())],
        ))
    }

    fn fast_has_prop(
        &self,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Option<Vec<SymBranch<Self>>> {
        let args = expr_args(arg, 2, "hasProp").ok()?;
        let (el, ek) = (&args[0], &args[1]);
        let loc = match self.literal_object(el)? {
            Some(loc) => loc,
            None => return Some(self.literal_not_obj("hasProp", el, pc, solver)),
        };
        let has = self.literal_key(&loc, ek)?.is_some();
        Some(literal_gate(
            pc,
            solver,
            vec![SymBranch::ok_if(self.clone(), Expr::bool(has), Expr::tt())],
        ))
    }

    fn fast_get_meta(
        &self,
        el: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Option<Vec<SymBranch<Self>>> {
        Some(match self.literal_object(el)? {
            Some(loc) => {
                let meta = self.heap.get(&loc).expect("object found").meta.clone();
                literal_gate(
                    pc,
                    solver,
                    vec![SymBranch::ok_if(self.clone(), meta, Expr::tt())],
                )
            }
            None => self.literal_not_obj("getMeta", el, pc, solver),
        })
    }

    fn fast_set_meta(
        &self,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Option<Vec<SymBranch<Self>>> {
        let args = expr_args(arg, 2, "setMeta").ok()?;
        let (el, em) = (&args[0], &args[1]);
        Some(match self.literal_object(el)? {
            Some(loc) => {
                let mut mem = self.clone();
                mem.object_mut(&loc).meta = em.clone();
                literal_gate(
                    pc,
                    solver,
                    vec![SymBranch::ok_if(mem, em.clone(), Expr::tt())],
                )
            }
            None => self.literal_not_obj("setMeta", el, pc, solver),
        })
    }
}

/// The one decision probe a literal fast path keeps: the surviving
/// branch's constraint is the literal `true`, so `push_branch` would gate
/// it on `sat(pc ∧ true)` — and since `simplify(pc, true)` is the
/// identity and `PathCondition::push` drops literal `true`, that query
/// is *exactly* `sat(pc)`, issued here without the clone-and-push
/// round-trip. An unsat path condition yields the same empty branch set
/// as the general path.
fn literal_gate<M>(
    pc: &PathCondition,
    solver: &Solver,
    branches: Vec<SymBranch<M>>,
) -> Vec<SymBranch<M>> {
    if solver.check_sat(pc).possibly_sat() {
        branches
    } else {
        Vec::new()
    }
}

/// Pushes a branch unless its constraint is trivially false or unsat.
fn push_branch<M>(
    out: &mut Vec<SymBranch<M>>,
    pc: &PathCondition,
    solver: &Solver,
    branch: SymBranch<M>,
) {
    if branch.constraint.as_bool() == Some(false) {
        return;
    }
    if solver.sat_with(pc, &branch.constraint).possibly_sat() {
        out.push(branch);
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
        err_expr(format!(
            "{action}: expected {n}-element argument list, got {arg}"
        ))
    })
}

impl SymbolicMemory for JsSymMemory {
    fn language() -> &'static str {
        "minijs"
    }

    fn action_code(&self, name: &str) -> Option<u16> {
        js_action_code(name)
    }

    fn execute_action_coded(
        &self,
        code: u16,
        name: &str,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Vec<SymBranch<Self>> {
        // `newObj` never consults the solver, and a fast helper returns
        // `None` whenever anything symbolic is involved; both fall back
        // to the general tree-walk implementation.
        let fast = match code {
            code::DEL_OBJ => self.fast_del_obj(arg, pc, solver),
            code::GET_PROP => self.fast_get_prop(arg, pc, solver),
            code::SET_PROP => self.fast_set_prop(arg, pc, solver),
            code::DEL_PROP => self.fast_del_prop(arg, pc, solver),
            code::HAS_PROP => self.fast_has_prop(arg, pc, solver),
            code::GET_META => self.fast_get_meta(arg, pc, solver),
            code::SET_META => self.fast_set_meta(arg, pc, solver),
            _ => None,
        };
        fast.unwrap_or_else(|| self.execute_action(name, arg, pc, solver))
    }

    fn execute_action(
        &self,
        name: &str,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Vec<SymBranch<Self>> {
        let mut out: Vec<SymBranch<Self>> = Vec::new();
        match name {
            "newObj" => {
                let args = match expr_args(arg, 2, "newObj") {
                    Ok(a) => a,
                    Err(e) => return vec![SymBranch::err_if(self.clone(), e, Expr::tt())],
                };
                // Locations come from the allocator, so existence folds.
                if self.heap.contains_key(&args[0]) {
                    return vec![SymBranch::err_if(
                        self.clone(),
                        err_expr(format!("newObj: {} already exists", args[0])),
                        Expr::tt(),
                    )];
                }
                let mut mem = self.clone();
                mem.insert_object(args[0].clone(), args[1].clone());
                vec![SymBranch::ok(mem, args[0].clone())]
            }
            "delObj" => {
                let el = arg.clone();
                let (matches, none_of) = self.match_objects(&el, pc, solver);
                for (loc, eq) in matches {
                    let mut mem = self.clone();
                    mem.remove_object(&loc);
                    push_branch(&mut out, pc, solver, SymBranch::ok_if(mem, Expr::tt(), eq));
                }
                push_branch(
                    &mut out,
                    pc,
                    solver,
                    SymBranch::err_if(
                        self.clone(),
                        err_expr(format!("delObj: {el} is not an object")),
                        none_of,
                    ),
                );
                out
            }
            "getProp" => {
                let args = match expr_args(arg, 2, "getProp") {
                    Ok(a) => a,
                    Err(e) => return vec![SymBranch::err_if(self.clone(), e, Expr::tt())],
                };
                let (el, ek) = (args[0].clone(), args[1].clone());
                let (objs, not_obj) = self.match_objects(&el, pc, solver);
                for (loc, obj_eq) in objs {
                    // [SGetProp - Branch - Found] per key, plus the absent
                    // branch yielding `undefined`.
                    let (keys, none_key) = self.match_keys(&loc, &ek, &obj_eq, pc, solver);
                    for (key, eq) in keys {
                        let value = self.prop(&loc, &key).expect("key matched").clone();
                        push_branch(
                            &mut out,
                            pc,
                            solver,
                            SymBranch::ok_if(self.clone(), value, eq),
                        );
                    }
                    push_branch(
                        &mut out,
                        pc,
                        solver,
                        SymBranch::ok_if(self.clone(), undefined_expr(), none_key),
                    );
                }
                push_branch(
                    &mut out,
                    pc,
                    solver,
                    SymBranch::err_if(
                        self.clone(),
                        err_expr(format!("getProp: {el} is not an object")),
                        not_obj,
                    ),
                );
                out
            }
            "setProp" => {
                let args = match expr_args(arg, 3, "setProp") {
                    Ok(a) => a,
                    Err(e) => return vec![SymBranch::err_if(self.clone(), e, Expr::tt())],
                };
                let (el, ek, ev) = (args[0].clone(), args[1].clone(), args[2].clone());
                let (objs, not_obj) = self.match_objects(&el, pc, solver);
                for (loc, obj_eq) in objs {
                    let (keys, none_key) = self.match_keys(&loc, &ek, &obj_eq, pc, solver);
                    for (key, eq) in keys {
                        let mut mem = self.clone();
                        mem.object_mut(&loc).set(key, ev.clone());
                        push_branch(&mut out, pc, solver, SymBranch::ok_if(mem, ev.clone(), eq));
                    }
                    let mut mem = self.clone();
                    mem.object_mut(&loc).set(ek.clone(), ev.clone());
                    push_branch(
                        &mut out,
                        pc,
                        solver,
                        SymBranch::ok_if(mem, ev.clone(), none_key),
                    );
                }
                push_branch(
                    &mut out,
                    pc,
                    solver,
                    SymBranch::err_if(
                        self.clone(),
                        err_expr(format!("setProp: {el} is not an object")),
                        not_obj,
                    ),
                );
                out
            }
            "delProp" => {
                let args = match expr_args(arg, 2, "delProp") {
                    Ok(a) => a,
                    Err(e) => return vec![SymBranch::err_if(self.clone(), e, Expr::tt())],
                };
                let (el, ek) = (args[0].clone(), args[1].clone());
                let (objs, not_obj) = self.match_objects(&el, pc, solver);
                for (loc, obj_eq) in objs {
                    let (keys, none_key) = self.match_keys(&loc, &ek, &obj_eq, pc, solver);
                    for (key, eq) in keys {
                        let mut mem = self.clone();
                        mem.object_mut(&loc).unset(&key);
                        push_branch(&mut out, pc, solver, SymBranch::ok_if(mem, Expr::tt(), eq));
                    }
                    // Deleting an absent property is a no-op, like JS.
                    push_branch(
                        &mut out,
                        pc,
                        solver,
                        SymBranch::ok_if(self.clone(), Expr::tt(), none_key),
                    );
                }
                push_branch(
                    &mut out,
                    pc,
                    solver,
                    SymBranch::err_if(
                        self.clone(),
                        err_expr(format!("delProp: {el} is not an object")),
                        not_obj,
                    ),
                );
                out
            }
            "hasProp" => {
                let args = match expr_args(arg, 2, "hasProp") {
                    Ok(a) => a,
                    Err(e) => return vec![SymBranch::err_if(self.clone(), e, Expr::tt())],
                };
                let (el, ek) = (args[0].clone(), args[1].clone());
                let (objs, not_obj) = self.match_objects(&el, pc, solver);
                for (loc, obj_eq) in objs {
                    let (keys, none_key) = self.match_keys(&loc, &ek, &obj_eq, pc, solver);
                    for (_, eq) in keys {
                        push_branch(
                            &mut out,
                            pc,
                            solver,
                            SymBranch::ok_if(self.clone(), Expr::tt(), eq),
                        );
                    }
                    push_branch(
                        &mut out,
                        pc,
                        solver,
                        SymBranch::ok_if(self.clone(), Expr::ff(), none_key),
                    );
                }
                push_branch(
                    &mut out,
                    pc,
                    solver,
                    SymBranch::err_if(
                        self.clone(),
                        err_expr(format!("hasProp: {el} is not an object")),
                        not_obj,
                    ),
                );
                out
            }
            "getMeta" => {
                let el = arg.clone();
                let (objs, not_obj) = self.match_objects(&el, pc, solver);
                for (loc, obj_eq) in objs {
                    let meta = self.heap.get(&loc).expect("object matched").meta.clone();
                    push_branch(
                        &mut out,
                        pc,
                        solver,
                        SymBranch::ok_if(self.clone(), meta, obj_eq),
                    );
                }
                push_branch(
                    &mut out,
                    pc,
                    solver,
                    SymBranch::err_if(
                        self.clone(),
                        err_expr(format!("getMeta: {el} is not an object")),
                        not_obj,
                    ),
                );
                out
            }
            "setMeta" => {
                let args = match expr_args(arg, 2, "setMeta") {
                    Ok(a) => a,
                    Err(e) => return vec![SymBranch::err_if(self.clone(), e, Expr::tt())],
                };
                let (el, em) = (args[0].clone(), args[1].clone());
                let (objs, not_obj) = self.match_objects(&el, pc, solver);
                for (loc, obj_eq) in objs {
                    let mut mem = self.clone();
                    mem.object_mut(&loc).meta = em.clone();
                    push_branch(
                        &mut out,
                        pc,
                        solver,
                        SymBranch::ok_if(mem, em.clone(), obj_eq),
                    );
                }
                push_branch(
                    &mut out,
                    pc,
                    solver,
                    SymBranch::err_if(
                        self.clone(),
                        err_expr(format!("setMeta: {el} is not an object")),
                        not_obj,
                    ),
                );
                out
            }
            other => vec![SymBranch::err_if(
                self.clone(),
                err_expr(format!("unknown JS action {other}")),
                Expr::tt(),
            )],
        }
    }

    fn lvars(&self) -> BTreeSet<LVar> {
        let mut out = BTreeSet::new();
        for (loc, obj) in self.heap.iter() {
            out.extend(loc.lvars());
            out.extend(obj.meta.lvars());
            for (key, value) in obj.props.iter() {
                out.extend(key.lvars());
                out.extend(value.lvars());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::values::undefined_value;
    use gillian_gil::Sym;

    fn loc(i: u64) -> Value {
        Value::Sym(Sym(Sym::FIRST_FRESH + i))
    }

    fn new_obj(m: &mut JsConcMemory, i: u64) -> Value {
        let l = loc(i);
        m.execute_action("newObj", Value::List(vec![l.clone(), Value::str("Object")]))
            .unwrap();
        l
    }

    #[test]
    fn concrete_lifecycle() {
        let mut m = JsConcMemory::default();
        let l = new_obj(&mut m, 0);
        // getProp of an absent key is undefined (JS semantics).
        let v = m
            .execute_action("getProp", Value::List(vec![l.clone(), Value::str("k")]))
            .unwrap();
        assert_eq!(v, undefined_value());
        m.execute_action(
            "setProp",
            Value::List(vec![l.clone(), Value::num(0.0), Value::str("x")]),
        )
        .unwrap();
        assert_eq!(
            m.execute_action("getProp", Value::List(vec![l.clone(), Value::num(0.0)]))
                .unwrap(),
            Value::str("x")
        );
        assert_eq!(
            m.execute_action("hasProp", Value::List(vec![l.clone(), Value::num(0.0)]))
                .unwrap(),
            Value::Bool(true)
        );
        m.execute_action("delProp", Value::List(vec![l.clone(), Value::num(0.0)]))
            .unwrap();
        assert_eq!(
            m.execute_action("hasProp", Value::List(vec![l.clone(), Value::num(0.0)]))
                .unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            m.execute_action("getMeta", l.clone()).unwrap(),
            Value::str("Object")
        );
        m.execute_action("delObj", l.clone()).unwrap();
        assert!(m
            .execute_action("getProp", Value::List(vec![l, Value::str("k")]))
            .is_err());
    }

    #[test]
    fn concrete_non_object_accesses_error() {
        let mut m = JsConcMemory::default();
        for action in ["getProp", "setProp", "hasProp"] {
            let n = if action == "setProp" { 3 } else { 2 };
            let mut items = vec![undefined_value(), Value::str("k")];
            if n == 3 {
                items.push(Value::num(1.0));
            }
            assert!(
                m.execute_action(action, Value::List(items)).is_err(),
                "{action} on undefined must be a JS error"
            );
        }
    }

    #[test]
    fn symbolic_getprop_branches_on_symbolic_key() {
        // One object with keys "a" and "b"; a symbolic key must branch
        // three ways: k = "a", k = "b", k ∉ {a, b} → undefined.
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let mut m = JsSymMemory::default();
        let l = Expr::Val(loc(0));
        m.insert_object(l.clone(), Expr::str("Object"));
        m.insert_cell(l.clone(), Expr::str("a"), Expr::num(1.0));
        m.insert_cell(l.clone(), Expr::str("b"), Expr::num(2.0));
        let k = Expr::lvar(LVar(0));
        let branches = m.execute_action("getProp", &Expr::list([l, k]), &pc, &solver);
        // 3 in-object branches; the not-an-object branch is infeasible for
        // a literal location… but the key lvar could equal the location?
        // No: `el` here is the literal location, so not_obj is false.
        assert_eq!(branches.len(), 3, "{branches:#?}");
        assert!(branches.iter().any(|b| b.outcome == Ok(undefined_expr())));
    }

    #[test]
    fn symbolic_getprop_with_concrete_key_is_deterministic() {
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let mut m = JsSymMemory::default();
        let l = Expr::Val(loc(0));
        m.insert_object(l.clone(), Expr::str("Object"));
        m.insert_cell(l.clone(), Expr::str("a"), Expr::num(1.0));
        let branches = m.execute_action("getProp", &Expr::list([l, Expr::str("a")]), &pc, &solver);
        assert_eq!(branches.len(), 1);
        assert_eq!(branches[0].outcome, Ok(Expr::num(1.0)));
        assert_eq!(branches[0].constraint.as_bool(), Some(true));
    }

    #[test]
    fn symbolic_access_on_undefined_is_an_error_branch() {
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let m = JsSymMemory::default();
        let branches = m.execute_action(
            "getProp",
            &Expr::list([undefined_expr(), Expr::str("a")]),
            &pc,
            &solver,
        );
        assert_eq!(branches.len(), 1);
        assert!(branches[0].outcome.is_err());
    }

    #[test]
    fn symbolic_setprop_overwrites_or_extends() {
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let mut m = JsSymMemory::default();
        let l = Expr::Val(loc(0));
        m.insert_object(l.clone(), Expr::str("Object"));
        m.insert_cell(l.clone(), Expr::str("a"), Expr::num(1.0));
        let k = Expr::lvar(LVar(0));
        let branches =
            m.execute_action("setProp", &Expr::list([l, k, Expr::num(9.0)]), &pc, &solver);
        assert_eq!(branches.len(), 2);
        let sizes: Vec<usize> = branches
            .iter()
            .map(|b| b.memory.heap_cells().count())
            .collect();
        assert!(sizes.contains(&1), "overwrite branch");
        assert!(sizes.contains(&2), "extend branch");
    }

    #[test]
    fn symbolic_set_prop_shares_all_but_a_path() {
        // 64 objects of 12 properties each.
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let mut m = JsSymMemory::default();
        for i in 0..64 {
            let l = Expr::Val(loc(i));
            m.insert_object(l.clone(), Expr::str("Object"));
            for p in 0..12 {
                m.insert_cell(l.clone(), Expr::str(format!("p{p}")), Expr::num(p as f64));
            }
        }
        let target = Expr::Val(loc(40));
        let props = &m.heap.get(&target).unwrap().props;
        let bound = 2 * (m.heap.height() + props.height());
        let set_prop = m.action_code("setProp").unwrap();
        for key in ["p3", "fresh"] {
            let arg = Expr::list([target.clone(), Expr::str(key), Expr::num(-1.0)]);
            let fast = m.execute_action_coded(set_prop, "setProp", &arg, &pc, &solver);
            let general = m.execute_action("setProp", &arg, &pc, &solver);
            for branches in [fast, general] {
                assert_eq!(branches.len(), 1);
                let mem = &branches[0].memory;
                let mut unshared = mem.heap.unshared_nodes(&m.heap);
                let mut total = mem.heap.node_count();
                for (l, obj) in mem.heap.iter() {
                    unshared += obj.props.unshared_nodes(&m.heap.get(l).unwrap().props);
                    total += obj.props.node_count();
                }
                assert!(
                    unshared <= bound && 4 * bound < total,
                    "setProp {key} copied {unshared} of {total} nodes (bound {bound})"
                );
            }
        }
    }
}
