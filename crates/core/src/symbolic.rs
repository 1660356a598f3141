//! The symbolic state constructor `SSC` (paper Def. 2.6).
//!
//! Lifts any [`SymbolicMemory`] to a full symbolic state model by pairing
//! it with a symbolic store (program variables ⇀ logical expressions), the
//! built-in symbolic allocator, and a path condition:
//! `|S| = |M̂| × (X ⇀ Ê) × |ÂL| × Π`.
//!
//! Expression evaluation substitutes store bindings and simplifies through
//! the solver; `assume` (inside [`GilState::branch_on`]) strengthens the
//! path condition when satisfiable; actions delegate to the parameter
//! memory and conjoin the learned constraint (Def. 2.6, `[Action]`).

use crate::allocator::SymAllocator;
use crate::checkpoint::{StateCtx, StateIoError};
use crate::memory::SymbolicMemory;
use crate::restriction::Restrict;
use crate::state::{GilState, GuardEval};
use gillian_gil::compile::{EvalScratch, ExprCode, ExprKind};
use gillian_gil::serial::{self, ByteReader, Decoder, Encoder};
use gillian_gil::{Expr, Ident, LVar, Prog, Term, Value};
use gillian_solver::summary;
use gillian_solver::{FaultProbe, Interrupt, PathCondition, SatResult, Solver};
use gillian_telemetry::{names, registry, Event, Journal};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The always-on action-latency histogram, fetched from the telemetry
/// registry once per process so the dispatch hot path never takes the
/// registry lock.
fn action_micros_histogram() -> &'static gillian_telemetry::Histogram {
    static H: std::sync::OnceLock<&'static gillian_telemetry::Histogram> =
        std::sync::OnceLock::new();
    H.get_or_init(|| registry().histogram(names::ACTION_MICROS))
}

/// One memory action in this many is wall-clock timed into the latency
/// histogram (power of two). Actions are frequent enough on the C and
/// JS memory models that an unconditional clock pair per action shows
/// up in end-to-end throughput; uniform sampling keeps the histogram's
/// shape. A run with the journal armed times every action instead —
/// `action_exec` events carry per-action micros, and traced runs are
/// not throughput-gated.
const ACTION_SAMPLE: u64 = 8;

thread_local! {
    /// Action counter driving the 1-in-[`ACTION_SAMPLE`] probe.
    static TL_ACTION_SAMPLE: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// An open summary-harvest window (`DESIGN.md` §17): a call frame whose
/// execution has, so far, stayed summarizable — no fork, no memory
/// action, no fresh symbol. Windows nest with the call stack; any
/// footprint escape poisons every open window at once (the escape is
/// inside all of them).
#[derive(Clone, Debug)]
struct CallProbe {
    /// Stack depth of the frame this window belongs to (matched against
    /// the depth the engine reports at `Return`).
    depth: usize,
    callee: Ident,
    /// The call's evaluated arguments (interned; summaries require exact
    /// term identity at application).
    args: Vec<Expr>,
    /// The path condition at call entry. Its conjunct count marks where
    /// the callee's deltas start; the condition itself becomes the
    /// summary's entry condition on harvest. Persistent representation:
    /// the clone is O(1).
    entry_pc: PathCondition,
}

/// A symbolic variable store `ρ̂ : X ⇀ Ê`.
pub type SymStore = BTreeMap<Ident, Expr>;

/// The store handle threaded through the interpreter: copy-on-write
/// behind an [`Arc`], so the per-branch state clones and per-call frame
/// saves of symbolic execution are O(1) refcount bumps. Straight-line
/// writes mutate in place (`Arc::make_mut`) and pay one map clone only on
/// the first write after a snapshot — and error/vanish branches, which
/// never write, pay nothing.
pub type SharedSymStore = Arc<SymStore>;

/// Binds `x ↦ v` in `store`, cloning the name only for a new binding.
///
/// Program-variable names are shared by every worker through the compiled
/// program, so an already-bound variable is overwritten in place:
/// `insert(x.clone(), v)` would bump the name's refcount and then drop the
/// clone again (the map keeps its existing key), and parallel workers
/// would contend on that cache line on every assignment (`DESIGN.md` §8).
fn bind<K: Ord + Clone, V>(store: &mut BTreeMap<K, V>, x: &K, v: V) {
    match store.get_mut(x) {
        Some(slot) => *slot = v,
        None => {
            store.insert(x.clone(), v);
        }
    }
}

/// A symbolic GIL state `⟨µ̂, ρ̂, ξ̂, π̂⟩` over symbolic memory model `M`.
#[derive(Clone, Debug)]
pub struct SymbolicState<M> {
    /// The language symbolic memory `µ̂`.
    pub memory: M,
    store: SharedSymStore,
    alloc: SymAllocator,
    /// The path condition `π̂`.
    pub pc: PathCondition,
    solver: Arc<Solver>,
    /// Open summary-harvest windows, innermost last. Empty whenever the
    /// solver's summary store is disarmed (the hooks gate on it), and
    /// deliberately not checkpointed — windows open across a crash are
    /// simply not harvested on resume.
    probes: Vec<CallProbe>,
}

impl<M: SymbolicMemory> SymbolicState<M> {
    /// A state with empty memory, store and path condition.
    pub fn new(solver: Arc<Solver>) -> Self {
        SymbolicState {
            memory: M::default(),
            store: SharedSymStore::default(),
            alloc: SymAllocator::new(),
            pc: PathCondition::new(),
            solver,
            probes: Vec::new(),
        }
    }

    /// A state over an explicit initial memory.
    pub fn with_memory(solver: Arc<Solver>, memory: M) -> Self {
        SymbolicState {
            memory,
            store: SharedSymStore::default(),
            alloc: SymAllocator::new(),
            pc: PathCondition::new(),
            solver,
            probes: Vec::new(),
        }
    }

    /// The solver handle shared by this state.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// The allocator record (inspectable; used for concrete replay).
    pub fn alloc(&self) -> &SymAllocator {
        &self.alloc
    }

    /// Conjoins a constraint onto the path condition without checking
    /// satisfiability (used by harnesses encoding preconditions).
    pub fn assume_unchecked(&mut self, e: Expr) {
        // A harness-injected assumption inside a call window is not part
        // of the callee's own effect: poison rather than mis-record it.
        self.poison_probes();
        let e = self.solver.simplify(&self.pc, &e);
        self.pc.push(e);
    }

    /// Shared tail of [`GilState::branch_on`] and
    /// [`GilState::guard_code`] on the symbolic-guard path: summary
    /// windows survive a branch only when it was a *proven* one-sided
    /// decision — exactly one side alive with an exact `Sat` verdict (the
    /// dead side being proven `Unsat` by its elimination). A fork, or a
    /// survivor kept only on an `Unknown` verdict, poisons every open
    /// window in every surviving state: the recorded deltas would not be
    /// the unique proven continuation under the entry condition.
    fn prune_probes_after_branch(out: &mut [(Self, bool)], v_then: SatResult, v_else: SatResult) {
        match out {
            [] => {}
            [(st, taken)] => {
                let sole = if *taken { v_then } else { v_else };
                if sole != SatResult::Sat {
                    st.poison_probes();
                }
            }
            many => {
                for (st, _) in many.iter_mut() {
                    st.poison_probes();
                }
            }
        }
    }

    /// Invalidates every open summary-harvest window (a footprint escape:
    /// fork, memory action, fresh symbol, or external pc mutation
    /// happened inside all of them). No-cost when no window is open.
    fn poison_probes(&mut self) {
        if !self.probes.is_empty() {
            let n = self.probes.len() as u64;
            self.probes.clear();
            self.solver.summaries().note_escaped(n);
        }
    }

    /// The shared body of [`GilState::execute_action`] and
    /// [`GilState::execute_action_coded`]: timing, journaling, and branch
    /// post-processing are identical; only the memory dispatch differs.
    fn run_action(
        self,
        name: &str,
        arg: Expr,
        code: Option<u16>,
    ) -> Vec<(Self, Result<Expr, Expr>)> {
        let journal_on = self.solver.journal_enabled();
        let timer = (journal_on
            || TL_ACTION_SAMPLE.with(|c| {
                let n = c.get().wrapping_add(1);
                c.set(n);
                n & (ACTION_SAMPLE - 1) == 0
            }))
        .then(std::time::Instant::now);
        let branches = match code {
            Some(k) => self
                .memory
                .execute_action_coded(k, name, &arg, &self.pc, &self.solver),
            None => self
                .memory
                .execute_action(name, &arg, &self.pc, &self.solver),
        };
        if let Some(started) = timer {
            let micros = started.elapsed().as_micros() as u64;
            action_micros_histogram().record(micros);
            if journal_on {
                self.solver.journal().record_shared(Event::ActionExec {
                    lang: M::language(),
                    action: name.to_string(),
                    branches: branches.len() as u32,
                    micros,
                });
            }
        }
        let mut out = Vec::with_capacity(branches.len());
        let n = branches.len();
        let mut this = Some(self);
        for (i, b) in branches.into_iter().enumerate() {
            // The last branch takes the state by move — the common
            // single-branch action never pays a state clone.
            let mut st = if i + 1 == n {
                this.take()
                    .expect("state consumed once, on the last branch")
            } else {
                this.as_ref()
                    .expect("state live until the last branch")
                    .clone()
            };
            st.memory = b.memory;
            // A memory action is a heap-footprint escape on every branch:
            // a summary replays no memory effect, so no window spanning
            // an action may be harvested.
            st.poison_probes();
            let constraint = st.solver.simplify(&st.pc, &b.constraint);
            if constraint.as_bool() == Some(false) {
                continue;
            }
            st.pc.push(constraint);
            out.push((st, b.outcome));
        }
        out
    }
}

impl<M: SymbolicMemory> GilState for SymbolicState<M> {
    type V = Expr;
    type Store = SharedSymStore;

    fn eval(&self, e: &Expr) -> Result<Expr, Expr> {
        // Substitute program variables by their store bindings; an unbound
        // variable is an evaluation error as in the concrete semantics.
        // Binding lookups clone the stored expression, which is a refcount
        // bump under the interned representation, and `subst` shares every
        // untouched subtree, so evaluation never deep-copies terms.
        let unbound = std::cell::RefCell::new(None);
        let substituted = e.subst(&|sub| match sub {
            Expr::PVar(x) => match self.store.get(x.as_ref() as &str) {
                Some(bound) => Some(bound.clone()),
                None => {
                    unbound.borrow_mut().get_or_insert_with(|| x.clone());
                    None
                }
            },
            _ => None,
        });
        if let Some(x) = unbound.into_inner() {
            return Err(Expr::str(format!("unbound variable {x}")));
        }
        Ok(self.solver.simplify(&self.pc, &substituted))
    }

    fn set_var(&mut self, x: &Ident, v: Expr) {
        bind(Arc::make_mut(&mut self.store), x, v);
    }

    fn store(&self) -> &SharedSymStore {
        &self.store
    }

    fn set_store(&mut self, store: SharedSymStore) {
        self.store = store;
    }

    fn make_store(&self, params: &[Ident], args: Vec<Expr>) -> SharedSymStore {
        Arc::new(params.iter().cloned().zip(args).collect())
    }

    fn resolve_proc(&self, v: &Expr) -> Result<Ident, Expr> {
        match v {
            Expr::Val(Value::Proc(f)) => Ok(f.clone()),
            Expr::Val(Value::Str(s)) => Ok(s.clone()),
            other => Err(Expr::str(format!(
                "cannot call unresolved procedure value {other}"
            ))),
        }
    }

    fn branch_on(&self, e: &Expr) -> Result<Vec<(Self, bool)>, Expr> {
        let guard = self.eval(e)?;
        // Literal guards do not branch and add nothing to the path
        // condition (mirrors the concrete rule exactly).
        if let Some(b) = guard.as_bool() {
            return Ok(vec![(self.clone(), b)]);
        }
        let neg = self.solver.simplify(&self.pc, &guard.clone().not());
        let mut out = Vec::with_capacity(2);
        // Each branch *adopts* the extended condition the solver actually
        // checked: pushing the guard onto a fresh clone would mint a chain
        // node with an empty context slot and strand the solve context the
        // query just froze (incremental solving, `DESIGN.md` §12).
        let (v_then, pc_then) = self.solver.sat_assume(&self.pc, &guard);
        if v_then.possibly_sat() {
            let mut st = self.clone();
            st.pc = pc_then;
            out.push((st, true));
        }
        let (v_else, pc_else) = self.solver.sat_assume(&self.pc, &neg);
        if v_else.possibly_sat() {
            let mut st = self.clone();
            st.pc = pc_else;
            out.push((st, false));
        }
        Self::prune_probes_after_branch(&mut out, v_then, v_else);
        Ok(out)
    }

    fn fresh_usym(&mut self, site: u32) -> Expr {
        // Splicing a summary skips the callee's allocator increments, so
        // a window spanning an allocation can never be harvested.
        self.poison_probes();
        Expr::Val(Value::Sym(self.alloc.alloc_usym(site)))
    }

    fn fresh_isym(&mut self, site: u32) -> Expr {
        self.poison_probes();
        Expr::LVar(self.alloc.alloc_isym(site))
    }

    fn execute_action(self, name: &str, arg: Expr) -> Vec<(Self, Result<Expr, Expr>)> {
        self.run_action(name, arg, None)
    }

    fn error_value(&self, msg: &str) -> Expr {
        Expr::str(msg)
    }

    fn eval_code(&self, code: &ExprCode, scratch: &mut EvalScratch) -> Result<Expr, Expr> {
        match code.kind() {
            // `simplify` is the identity on literals in every solver tier,
            // so a literal site skips both the substitution walk and the
            // simplifier call.
            ExprKind::Lit(_) => Ok(code.source().clone()),
            // No program variables: substitution is the identity (logical
            // variables are *kept* symbolically), but simplification may
            // still depend on the path condition's typing environment.
            ExprKind::Closed(_) => Ok(self.solver.simplify(&self.pc, code.source())),
            ExprKind::Var(x) => match self.store.get(x.as_ref() as &str) {
                // `simplify` is the identity on literals and variables in
                // every tier; the call (and its memo probe) is elided.
                Some(bound @ (Expr::Val(_) | Expr::PVar(_) | Expr::LVar(_))) => Ok(bound.clone()),
                Some(bound) => Ok(self.solver.simplify(&self.pc, bound)),
                None => Err(Expr::str(format!("unbound variable {x}"))),
            },
            // Rebuild exactly what `Expr::subst` would: a fresh interned
            // term for the substituted variable side, the original term
            // (shared) for the literal side — then one root simplify.
            ExprKind::Bin1 {
                op,
                var,
                lit,
                lit_term,
                var_on_left,
                ..
            } => match self.store.get(var.as_ref() as &str) {
                // Both sides literal: every tier constant-folds via
                // `eval_binop` and returns the residual node on failure
                // *before* any other rewrite, so the fold is computed
                // here directly — no interning, no memo probe.
                Some(Expr::Val(bv)) => {
                    let (a, b) = if *var_on_left { (bv, lit) } else { (lit, bv) };
                    match gillian_gil::ops::eval_binop(*op, a, b) {
                        Ok(f) => Ok(Expr::Val(f)),
                        Err(_) => {
                            let sub: Term = Expr::Val(bv.clone()).into();
                            Ok(if *var_on_left {
                                Expr::Bin(*op, sub, lit_term.clone())
                            } else {
                                Expr::Bin(*op, lit_term.clone(), sub)
                            })
                        }
                    }
                }
                Some(bound) => {
                    let sub: Term = bound.clone().into();
                    let e = if *var_on_left {
                        Expr::Bin(*op, sub, lit_term.clone())
                    } else {
                        Expr::Bin(*op, lit_term.clone(), sub)
                    };
                    Ok(self.solver.simplify(&self.pc, &e))
                }
                None => Err(Expr::str(format!("unbound variable {var}"))),
            },
            // The general case runs the register program symbolically:
            // literal subresults fold in value space (no substitution
            // walk, no interning of intermediate nodes), symbolic parts
            // rebuild residual nodes, and one root simplify normalizes —
            // `RegProg::run_symbolic` documents why the result matches
            // `simplify(pc, subst(e))` for every tier.
            ExprKind::Reg(rp) => {
                let e = rp
                    .run_symbolic(|x| self.store.get(x.as_ref() as &str).cloned(), scratch)
                    .map_err(|x| Expr::str(format!("unbound variable {x}")))?;
                // Fully folded results are already in `simplify`-normal
                // form (identity on literals/variables in every tier).
                if matches!(e, Expr::Val(_) | Expr::PVar(_) | Expr::LVar(_)) {
                    return Ok(e);
                }
                Ok(self.solver.simplify(&self.pc, &e))
            }
        }
    }

    fn guard_code(&self, code: &ExprCode, scratch: &mut EvalScratch) -> GuardEval<Self> {
        let guard = match self.eval_code(code, scratch) {
            Ok(g) => g,
            Err(v) => return GuardEval::Fail(v),
        };
        // A literal guard neither forks nor extends the path condition
        // (`branch_on` clones the state for its single branch; `Take`
        // elides that clone).
        if let Some(b) = guard.as_bool() {
            return GuardEval::Take(b);
        }
        let neg = self.solver.simplify(&self.pc, &guard.clone().not());
        let mut out = Vec::with_capacity(2);
        // Identical to `branch_on`: each branch adopts the extended
        // condition the solver actually checked (`DESIGN.md` §12).
        let (v_then, pc_then) = self.solver.sat_assume(&self.pc, &guard);
        if v_then.possibly_sat() {
            let mut st = self.clone();
            st.pc = pc_then;
            out.push((st, true));
        }
        let (v_else, pc_else) = self.solver.sat_assume(&self.pc, &neg);
        if v_else.possibly_sat() {
            let mut st = self.clone();
            st.pc = pc_else;
            out.push((st, false));
        }
        Self::prune_probes_after_branch(&mut out, v_then, v_else);
        GuardEval::Fork(out)
    }

    fn action_code(&self, name: &str) -> Option<u16> {
        self.memory.action_code(name)
    }

    fn execute_action_coded(
        self,
        code: u16,
        name: &str,
        arg: Expr,
    ) -> Vec<(Self, Result<Expr, Expr>)> {
        self.run_action(name, arg, Some(code))
    }

    fn install_interrupt(&self, interrupt: Interrupt) {
        self.solver.set_interrupt(interrupt);
    }

    fn clear_interrupt(&self) {
        self.solver.clear_interrupt();
    }

    fn install_journal(&self, journal: Journal) {
        self.solver.set_journal(journal);
    }

    fn clear_journal(&self) {
        self.solver.clear_journal();
    }

    fn unknown_verdicts(&self) -> u64 {
        self.solver.stats().sat_unknowns
    }

    fn solver_reuse(&self) -> u64 {
        self.solver.stats().incremental_hits
    }

    /// Layout: store, allocator record, path condition, memory. The
    /// solver is process infrastructure and comes back from [`StateCtx`];
    /// its caches are deliberately not checkpointed.
    fn save_state(&self, enc: &mut Encoder, out: &mut Vec<u8>) -> Result<(), StateIoError> {
        Self::save_store(&self.store, enc, out)?;
        let (next_sym, next_lvar, isym_trace) = self.alloc.parts();
        serial::put_u64(out, next_sym);
        serial::put_u64(out, next_lvar);
        serial::put_len(out, isym_trace.len(), "isym trace")?;
        for (site, lv) in isym_trace {
            serial::put_u32(out, *site);
            serial::put_u64(out, lv.0);
        }
        self.pc.save(enc, out)?;
        self.memory.save(enc, out)
    }

    fn load_state(
        ctx: &StateCtx,
        dec: &Decoder,
        r: &mut ByteReader<'_>,
    ) -> Result<Self, StateIoError> {
        let store = Self::load_store(ctx, dec, r)?;
        let next_sym = r.u64()?;
        let next_lvar = r.u64()?;
        let n = r.count()?;
        let mut isym_trace = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let site = r.u32()?;
            let lv = LVar(r.u64()?);
            isym_trace.push((site, lv));
        }
        let pc = PathCondition::load(dec, r)?;
        let memory = M::load(dec, r)?;
        Ok(SymbolicState {
            memory,
            store,
            alloc: SymAllocator::from_parts(next_sym, next_lvar, isym_trace),
            pc,
            solver: ctx.solver.clone(),
            probes: Vec::new(),
        })
    }

    fn save_store(
        store: &SharedSymStore,
        enc: &mut Encoder,
        out: &mut Vec<u8>,
    ) -> Result<(), StateIoError> {
        serial::put_len(out, store.len(), "symbolic store")?;
        // BTreeMap iteration is canonical, so equal stores encode equally.
        for (x, e) in store.iter() {
            serial::put_str(out, x)?;
            enc.write_expr(out, e)?;
        }
        Ok(())
    }

    fn load_store(
        _ctx: &StateCtx,
        dec: &Decoder,
        r: &mut ByteReader<'_>,
    ) -> Result<SharedSymStore, StateIoError> {
        let n = r.count()?;
        let mut store = SymStore::new();
        for _ in 0..n {
            let x = Ident::from(r.str()?);
            let e = dec.read_expr(r)?;
            store.insert(x, e);
        }
        Ok(Arc::new(store))
    }

    fn install_fault_probe(&self, probe: FaultProbe) {
        self.solver.set_fault_probe(probe);
    }

    fn clear_fault_probe(&self) {
        self.solver.clear_fault_probe();
    }

    fn configure_summaries(&self, prog: &Prog, enabled: bool) {
        let store = self.solver.summaries();
        if enabled {
            // Warm start: merge the persisted store (when configured)
            // before arming. A missing or corrupt file degrades to cold
            // execution — summaries are a cache, never a dependency.
            if let Some(path) = summary::file_from_env() {
                let _ = store.load_file(&path);
            }
            store.arm(summary::program_fingerprints(prog));
        } else {
            if store.armed() {
                if let Some(path) = summary::file_from_env() {
                    let _ = store.save_file(&path);
                }
            }
            store.disarm();
        }
    }

    fn summary_apply(&mut self, callee: &Ident, args: &[Expr]) -> Option<Expr> {
        let store = self.solver.summaries();
        if !store.armed() {
            return None;
        }
        store.try_apply(callee, args, &mut self.pc, &self.solver)
    }

    fn summary_call(&mut self, callee: &Ident, args: &[Expr], depth: usize) {
        if !self.solver.summaries().armed() || args.len() > summary::MAX_ARGS {
            return;
        }
        self.probes.push(CallProbe {
            depth,
            callee: callee.clone(),
            args: args.to_vec(),
            entry_pc: self.pc.clone(),
        });
    }

    fn summary_return(&mut self, ret: &Expr, depth: usize) {
        if self.probes.is_empty() {
            return;
        }
        // Windows deeper than this return belong to frames that no longer
        // exist (e.g. a checkpoint restored mid-call); drop them.
        while self.probes.last().is_some_and(|p| p.depth > depth) {
            self.probes.pop();
        }
        let Some(probe) = self.probes.last() else {
            return;
        };
        if probe.depth != depth {
            return;
        }
        let probe = self
            .probes
            .pop()
            .expect("probe for this depth checked just above");
        let entry_len = probe.entry_pc.len();
        let conjuncts = self.pc.conjuncts();
        if conjuncts.len() < entry_len {
            return;
        }
        // Everything the callee window added, in push order: with the
        // window clean, these are the callee's entire effect beyond the
        // return value.
        let deltas = conjuncts[entry_len..].to_vec();
        self.solver.summaries().record(
            &probe.callee,
            &probe.args,
            probe.entry_pc,
            deltas,
            ret.clone(),
        );
    }

    fn summary_stats(&self) -> (u64, u64) {
        let stats = self.solver.summaries().stats();
        (stats.recorded, stats.applied)
    }
}

impl<M: SymbolicMemory> Restrict for SymbolicState<M> {
    /// State restriction of the lifted model (Def. 3.9):
    /// `⟨µ̂, ρ̂, ξ̂, π̂⟩ ⇃ ⟨-, -, ξ̂′, π̂′⟩ = ⟨µ̂, ρ̂, ξ̂ ⇃ ξ̂′, π̂ ∧ π̂′⟩`.
    fn restrict(&self, other: &Self) -> Self {
        let mut st = self.clone();
        // Restriction rewrites the pc from outside any call window.
        st.poison_probes();
        st.alloc = st.alloc.restrict(&other.alloc);
        st.pc.extend(&other.pc);
        st
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::SymBranch;
    use gillian_gil::LVar;

    /// A toy symbolic memory: a single symbolic cell with `set`/`get`.
    #[derive(Clone, Debug, Default)]
    struct Cell(Option<Expr>);

    impl SymbolicMemory for Cell {
        fn execute_action(
            &self,
            name: &str,
            arg: &Expr,
            _pc: &PathCondition,
            _solver: &Solver,
        ) -> Vec<SymBranch<Self>> {
            match name {
                "set" => vec![SymBranch::ok(Cell(Some(arg.clone())), Expr::tt())],
                "get" => match &self.0 {
                    Some(e) => vec![SymBranch::ok(self.clone(), e.clone())],
                    None => vec![SymBranch {
                        memory: self.clone(),
                        outcome: Err(Expr::str("empty cell")),
                        constraint: Expr::tt(),
                    }],
                },
                _ => vec![],
            }
        }
    }

    fn state() -> SymbolicState<Cell> {
        SymbolicState::new(Arc::new(Solver::optimized()))
    }

    #[test]
    fn eval_substitutes_and_simplifies() {
        let mut st = state();
        st.set_var(&"x".into(), Expr::int(2));
        let v = st.eval(&Expr::pvar("x").add(Expr::int(3))).unwrap();
        assert_eq!(v, Expr::int(5));
        assert!(st.eval(&Expr::pvar("missing")).is_err());
    }

    #[test]
    fn rebinding_a_variable_leaves_its_name_untouched() {
        // A name whose clones are counted: `Arc::strong_count` alone
        // cannot see a clone that the map drops again before returning.
        thread_local! {
            static CLONES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
        }
        #[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
        struct Name(Ident);
        impl Clone for Name {
            fn clone(&self) -> Self {
                CLONES.with(|c| c.set(c.get() + 1));
                Name(self.0.clone())
            }
        }
        let clones = || CLONES.with(std::cell::Cell::get);
        let x = Name("x".into());
        let mut store = BTreeMap::new();
        bind(&mut store, &x, 1);
        assert_eq!(clones(), 1, "a new binding stores one clone");
        bind(&mut store, &x, 2);
        bind(&mut store, &Name("x".into()), 3);
        assert_eq!(clones(), 1, "a rebinding must not clone the name");
        assert_eq!(store.len(), 1);
        assert_eq!(store[&x], 3);

        let mut st = state();
        let x: Ident = "x".into();
        st.set_var(&x, Expr::int(1));
        let bound = Arc::strong_count(&x);
        st.set_var(&x, Expr::int(2));
        assert_eq!(Arc::strong_count(&x), bound);
        assert_eq!(st.store().get(&x), Some(&Expr::int(2)));
    }

    #[test]
    fn eval_shares_bound_expressions_without_deep_copies() {
        use gillian_gil::InternStats;
        let mut st = state();
        // A ~800-node bound expression: a left-leaning sum of distinct
        // logical variables the simplifier cannot fold.
        let mut big = st.fresh_isym(0);
        for _ in 0..400 {
            big = big.add(st.fresh_isym(0));
        }
        st.set_var(&"x".into(), big);
        let warm = st.eval(&Expr::pvar("x")).unwrap();
        // A second lookup of the same binding must be pure sharing: zero
        // nodes minted (no deep copy, no rebuild), and interner traffic
        // bounded by a small constant (the simplifier memo key), not by
        // the node count of the bound expression.
        let before = InternStats::thread_snapshot();
        let again = st.eval(&Expr::pvar("x")).unwrap();
        let delta = InternStats::thread_snapshot().since(&before);
        assert_eq!(again, warm);
        assert_eq!(delta.mints, 0, "eval must not rebuild the bound expression");
        assert!(
            delta.hits <= 4,
            "eval should be O(1) interner traffic, got {} hits",
            delta.hits
        );
    }

    #[test]
    fn branch_on_symbolic_guard_forks() {
        let mut st = state();
        let x = st.fresh_isym(0);
        st.set_var(&"x".into(), x.clone());
        let branches = st
            .clone()
            .branch_on(&Expr::pvar("x").lt(Expr::int(5)))
            .unwrap();
        assert_eq!(branches.len(), 2, "both branches feasible");
        for (s, taken) in &branches {
            let expected = if *taken {
                x.clone().lt(Expr::int(5))
            } else {
                Expr::int(5).le(x.clone())
            };
            assert!(
                s.pc.conjuncts().contains(&expected),
                "pc {} missing {expected}",
                s.pc
            );
        }
    }

    #[test]
    fn branch_on_prunes_infeasible() {
        let mut st = state();
        let x = st.fresh_isym(0);
        st.assume_unchecked(x.clone().eq(Expr::int(3)));
        st.set_var(&"x".into(), x);
        let branches = st.branch_on(&Expr::pvar("x").lt(Expr::int(5))).unwrap();
        assert_eq!(branches.len(), 1);
        assert!(branches[0].1, "only the true branch survives");
    }

    #[test]
    fn literal_guard_does_not_extend_pc() {
        let st = state();
        let branches = st.branch_on(&Expr::tt()).unwrap();
        assert_eq!(branches.len(), 1);
        assert!(branches[0].0.pc.is_empty());
    }

    #[test]
    fn actions_thread_memory_and_errors() {
        let st = state();
        let branches = st.execute_action("set", Expr::int(7));
        let (st, out) = branches.into_iter().next().unwrap();
        assert!(out.is_ok());
        let (_, got) = st
            .execute_action("get", Expr::nil())
            .into_iter()
            .next()
            .unwrap();
        assert_eq!(got, Ok(Expr::int(7)));
        let empty = state();
        let (_, e) = empty
            .execute_action("get", Expr::nil())
            .into_iter()
            .next()
            .unwrap();
        assert!(e.is_err());
    }

    #[test]
    fn isym_mints_distinct_lvars() {
        let mut st = state();
        assert_eq!(st.fresh_isym(0), Expr::LVar(LVar(0)));
        assert_eq!(st.fresh_isym(0), Expr::LVar(LVar(1)));
    }

    #[test]
    fn restriction_conjoins_pc_and_merges_alloc() {
        let mut a = state();
        let mut b = state();
        let x = b.fresh_isym(0);
        b.assume_unchecked(x.clone().eq(Expr::int(1)));
        let r = a.restrict(&b);
        assert!(r.pc.conjuncts().contains(&x.eq(Expr::int(1))));
        // Idempotence on states (pc set union semantics).
        let _ = a.fresh_isym(0);
        let ra = a.restrict(&a);
        assert_eq!(ra.pc, a.pc);
    }
}
