//! The state-model interface (paper Def. 2.1).
//!
//! A state model `S = ⟨|S|, V, A, ea⟩` is the formal interface through which
//! GIL interacts with program state. [`GilState`] is its Rust rendering:
//! the interpreter (Fig. 1) is written once against this trait and executes
//! both concretely and symbolically.
//!
//! The paper's *proper* state models expose distinguished actions
//! (`setVar`, `setStore`, `getStore`, `eval`, `assume`, `uSym`, `iSym`);
//! here those appear as trait methods rather than stringly-named actions,
//! with `assume` folded into [`GilState::branch_on`] (its only use in the
//! semantics is the two conditional-goto rules). Memory actions `α` remain
//! stringly-typed and are dispatched through
//! [`GilState::execute_action`].

use crate::checkpoint::{StateCtx, StateIoError};
use gillian_gil::serial::{ByteReader, Decoder, Encoder};
use gillian_gil::{EvalScratch, Expr, ExprCode, Ident, Prog};
use gillian_solver::{FaultProbe, Interrupt};
use gillian_telemetry::Journal;

/// The branching result of a memory action on states: each branch pairs a
/// successor state with the action outcome (`Err` raises `E(v)`).
pub type ActionBranches<S, V> = Vec<(S, Result<V, V>)>;

/// The result of a fused guard evaluation ([`GilState::guard_code`]).
///
/// `Take` is the bytecode backend's fast lane: the guard decided without
/// forking, so the dispatch loop continues in place with no state clone
/// and no successor allocation. Semantically `Take(b)` is identical to
/// `Fork(vec![(self, b)])`.
#[derive(Clone, Debug)]
pub enum GuardEval<S: GilState> {
    /// The guard decided deterministically: continue in place.
    Take(bool),
    /// The guard forked: surviving successor states, each paired with the
    /// truth value it assumed (empty when no branch is feasible).
    Fork(Vec<(S, bool)>),
    /// The guard failed to evaluate.
    Fail(<S as GilState>::V),
}

/// A GIL state: the engine-facing interface of a (lifted) state model.
///
/// `V` is the state's value type — [`gillian_gil::Value`] concretely,
/// [`Expr`] symbolically. Errors are values of the same type (they flow
/// into the GIL error outcome `E(v)`), hence the pervasive
/// `Result<Self::V, Self::V>`.
pub trait GilState: Clone + std::fmt::Debug + Sized {
    /// The values stored in and produced by this state.
    type V: Clone + std::fmt::Debug + std::fmt::Display;
    /// The variable store representation.
    type Store: Clone + std::fmt::Debug + Default;

    /// Evaluates an expression in the state's store (`evalₑ`).
    ///
    /// # Errors
    ///
    /// Returns the error value when evaluation fails (unbound variable,
    /// operator domain violation).
    fn eval(&self, e: &Expr) -> Result<Self::V, Self::V>;

    /// Assigns `v` to program variable `x` (`setVarₓ`).
    fn set_var(&mut self, x: &Ident, v: Self::V);

    /// The current store (`getStore`).
    fn store(&self) -> &Self::Store;

    /// Replaces the store (`setStore`).
    fn set_store(&mut self, store: Self::Store);

    /// Builds a callee store binding `params` to `args` positionally
    /// (missing arguments are left unbound; extra arguments are dropped).
    fn make_store(&self, params: &[Ident], args: Vec<Self::V>) -> Self::Store;

    /// Extracts a procedure identifier from an evaluated callee value.
    ///
    /// # Errors
    ///
    /// Returns an error value when `v` does not denote a procedure (for a
    /// symbolic state, when it is not a *literal* procedure identifier —
    /// dynamic dispatch must be resolved by compiled code before the call).
    fn resolve_proc(&self, v: &Self::V) -> Result<Ident, Self::V>;

    /// Branches on a boolean guard (the two `ifgoto` rules of Fig. 1,
    /// built from `assume ∘ eval`). Returns the surviving branches, each a
    /// successor state paired with the truth value it assumed. A concrete
    /// state returns exactly one branch; a symbolic state returns the
    /// satisfiable subset of `{true, false}`.
    ///
    /// # Errors
    ///
    /// Returns the error value when the guard fails to evaluate.
    fn branch_on(&self, e: &Expr) -> Result<Vec<(Self, bool)>, Self::V>;

    /// Allocates a fresh uninterpreted symbol (`uSym_j`).
    fn fresh_usym(&mut self, site: u32) -> Self::V;

    /// Allocates a fresh interpreted symbol (`iSym_j`): an arbitrary value
    /// concretely, a fresh logical variable symbolically.
    fn fresh_isym(&mut self, site: u32) -> Self::V;

    /// Executes memory action `name` (the `x := α(e)` rule). Each returned
    /// branch pairs a successor state with the action's outcome; an `Err`
    /// outcome raises the GIL error outcome `E(v)` on that branch.
    fn execute_action(self, name: &str, arg: Self::V) -> ActionBranches<Self, Self::V>;

    /// Evaluates a compiled expression site (the bytecode backend's
    /// `evalₑ`). Must agree with [`GilState::eval`] on
    /// [`ExprCode::source`] exactly — same values, same errors, same
    /// error order. The default does precisely that by delegating to the
    /// tree walk, so states that never override it (test doubles, hosted
    /// states) run unchanged under both backends.
    ///
    /// # Errors
    ///
    /// Returns the error value when evaluation fails, exactly as
    /// [`GilState::eval`] would.
    fn eval_code(&self, code: &ExprCode, _scratch: &mut EvalScratch) -> Result<Self::V, Self::V> {
        self.eval(code.source())
    }

    /// Branches on a compiled guard site (the bytecode `cmpgoto`
    /// superinstruction). Must be decision-equivalent to
    /// [`GilState::branch_on`] on [`ExprCode::source`]:
    /// [`GuardEval::Take`] may replace a deterministic single branch (it
    /// elides the state clone), but the surviving branch set and each
    /// branch's state must be identical. The default delegates to
    /// `branch_on`.
    fn guard_code(&self, code: &ExprCode, _scratch: &mut EvalScratch) -> GuardEval<Self> {
        match self.branch_on(code.source()) {
            Ok(branches) => GuardEval::Fork(branches),
            Err(v) => GuardEval::Fail(v),
        }
    }

    /// The dense code this state's memory model assigns to action `name`,
    /// if any. Feeds the per-site action inline caches of compiled
    /// programs; `None` (the default) keeps every site on the
    /// stringly-named [`GilState::execute_action`] path.
    fn action_code(&self, _name: &str) -> Option<u16> {
        None
    }

    /// Executes the action behind a resolved inline cache. `code` is the
    /// value a prior [`GilState::action_code`] call returned for `name`;
    /// behavior must be identical to `execute_action(name, arg)`. The
    /// default ignores the code and delegates.
    fn execute_action_coded(
        self,
        _code: u16,
        name: &str,
        arg: Self::V,
    ) -> ActionBranches<Self, Self::V> {
        self.execute_action(name, arg)
    }

    /// Wraps an engine-generated message as an error value.
    fn error_value(&self, msg: &str) -> Self::V;

    /// Installs the run's cooperative interrupt (wall-clock deadline plus
    /// cancellation token) into whatever solving machinery this state
    /// uses, so that long satisfiability queries observe the same limits
    /// as the exploration loop. The default is a no-op: concrete states
    /// have no solver and need none.
    fn install_interrupt(&self, _interrupt: Interrupt) {}

    /// Clears a previously installed interrupt (default no-op).
    fn clear_interrupt(&self) {}

    /// Installs the run's event journal into this state's solving
    /// machinery, so satisfiability queries and memory actions are
    /// journaled alongside the engine's own path events. Same lifecycle
    /// as [`GilState::install_interrupt`]; the default is a no-op
    /// (concrete states emit nothing).
    fn install_journal(&self, _journal: Journal) {}

    /// Clears a previously installed journal (default no-op).
    fn clear_journal(&self) {}

    /// Monotone count of `Unknown` satisfiability verdicts observed so far
    /// by this state's solving machinery. The exploration engines diff
    /// this across a run to report how often a branch was kept only
    /// because the solver could not decide it. Solver-free (concrete)
    /// states report `0`.
    fn unknown_verdicts(&self) -> u64 {
        0
    }

    /// Monotone count of incremental solver-reuse hits observed so far
    /// by this state's solving machinery. The exploration engines diff it
    /// across a run for the diagnostics report; it is informational only
    /// and never affects verdicts. Solver-free (concrete) states report
    /// `0`.
    fn solver_reuse(&self) -> u64 {
        0
    }

    /// Serializes this state for a frontier checkpoint
    /// (`DESIGN.md` §14). Terms go through `enc` so the whole checkpoint
    /// shares one post-order term table. The default reports
    /// [`StateIoError::Unsupported`]: states that never checkpoint need
    /// not implement it.
    ///
    /// # Errors
    ///
    /// Reports [`StateIoError`] when the state (or a component of it, such
    /// as the language memory) does not support serialization.
    fn save_state(&self, _enc: &mut Encoder, _out: &mut Vec<u8>) -> Result<(), StateIoError> {
        Err(StateIoError::Unsupported(std::any::type_name::<Self>()))
    }

    /// Rebuilds a state from its [`GilState::save_state`] encoding,
    /// re-attaching it to the resuming process's machinery via `ctx`.
    ///
    /// # Errors
    ///
    /// Reports [`StateIoError`] on unsupported states or malformed bytes.
    fn load_state(
        _ctx: &StateCtx,
        _dec: &Decoder,
        _r: &mut ByteReader<'_>,
    ) -> Result<Self, StateIoError> {
        Err(StateIoError::Unsupported(std::any::type_name::<Self>()))
    }

    /// Serializes a store (used for the saved caller stores of checkpointed
    /// call stacks). Same default and contract as
    /// [`GilState::save_state`].
    ///
    /// # Errors
    ///
    /// Reports [`StateIoError`] when the store does not support
    /// serialization.
    fn save_store(
        _store: &Self::Store,
        _enc: &mut Encoder,
        _out: &mut Vec<u8>,
    ) -> Result<(), StateIoError> {
        Err(StateIoError::Unsupported(
            std::any::type_name::<Self::Store>(),
        ))
    }

    /// Rebuilds a store from its [`GilState::save_store`] encoding.
    ///
    /// # Errors
    ///
    /// Reports [`StateIoError`] on unsupported stores or malformed bytes.
    fn load_store(
        _ctx: &StateCtx,
        _dec: &Decoder,
        _r: &mut ByteReader<'_>,
    ) -> Result<Self::Store, StateIoError> {
        Err(StateIoError::Unsupported(
            std::any::type_name::<Self::Store>(),
        ))
    }

    /// Arms (or disarms) procedure-summary recording and application in
    /// this state's solving machinery for `prog` (`DESIGN.md` §17). Same
    /// one-run-at-a-time lifecycle as [`GilState::install_interrupt`];
    /// the default is a no-op — concrete states re-execute every call.
    fn configure_summaries(&self, _prog: &Prog, _enabled: bool) {}

    /// Attempts to answer a call to `callee` with already-evaluated
    /// arguments `args` from a recorded procedure summary. On success the
    /// state has been advanced exactly as executing the callee would have
    /// (path-condition deltas spliced) and the return value is produced
    /// without re-execution; `None` falls through to the normal call
    /// path. The default (concrete states, states without summary
    /// support) never answers.
    fn summary_apply(&mut self, _callee: &Ident, _args: &[Self::V]) -> Option<Self::V> {
        None
    }

    /// Notes that a call frame for `callee` was pushed at stack depth
    /// `depth` with arguments `args`, opening a summary-harvest window.
    /// The default is a no-op.
    fn summary_call(&mut self, _callee: &Ident, _args: &[Self::V], _depth: usize) {}

    /// Notes that the frame at stack depth `depth` is returning `ret`
    /// normally; a summary-capable state harvests the window opened by
    /// the matching [`GilState::summary_call`] if it stayed clean (no
    /// fork, no memory action, no fresh symbol). The default is a no-op.
    fn summary_return(&mut self, _ret: &Self::V, _depth: usize) {}

    /// Monotone `(recorded, applied)` summary counts observed so far by
    /// this state's solving machinery. The exploration engines diff these
    /// across a run for the diagnostics report; informational only.
    /// States without summary support report `(0, 0)`.
    fn summary_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Installs a deterministic fault probe into this state's solving
    /// machinery (the fault-injection harness, `DESIGN.md` §14). Same
    /// lifecycle as [`GilState::install_interrupt`]; the default is a
    /// no-op (solver-free states have nowhere to inject).
    fn install_fault_probe(&self, _probe: FaultProbe) {}

    /// Clears a previously installed fault probe (default no-op).
    fn clear_fault_probe(&self) {}
}
