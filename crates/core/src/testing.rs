//! Symbolic unit testing (paper §1, §4): whole-program symbolic execution
//! with *verified* counter-models and restriction-directed concrete replay.
//!
//! A symbolic test is a GIL procedure (typically compiled from a guest
//! language) that creates symbolic inputs (`iSym`), constrains them
//! (`assume` → `ifgoto`/`vanish`), exercises the code under test, and
//! checks assertions (`assert` → `ifgoto`/`fail`). Running it explores all
//! paths up to a bound and yields either:
//!
//! - a **bounded verification guarantee** — no error path was found and no
//!   budget was hit; or
//! - **bug reports** — error paths, each with a path condition. A report
//!   is *confirmed* only when the solver produces a model of that path
//!   condition **and** replaying the test concretely under the scripted
//!   allocator derived from the model reproduces an error. Confirmed
//!   reports are true positives (the computational content of paper
//!   Theorem 3.6: symbolic testing has no false positives).

use crate::concrete::ConcreteState;
use crate::explore::{
    explore, explore_with, ExploreConfig, ExploreDiagnostics, ExploreOutcome, ExploreResult,
};
use crate::memory::{ConcreteMemory, SymbolicMemory};
use crate::symbolic::SymbolicState;
use gillian_gil::{Prog, Value};
use gillian_solver::{Model, PathCondition, Solver};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The status of replaying a bug's model concretely.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplayStatus {
    /// The concrete run errored as predicted — the bug is real.
    ConfirmedError(Value),
    /// The concrete run diverged from the symbolic path (would indicate a
    /// soundness bug in a memory model; never expected).
    Diverged(String),
}

/// One error path found by a symbolic test.
#[derive(Clone, Debug)]
pub struct BugReport {
    /// Rendering of the symbolic error value.
    pub error: String,
    /// The final path condition of the error path.
    pub pc: PathCondition,
    /// A verified model of `pc`, when the solver found one.
    pub model: Option<Model>,
    /// Concrete `iSym` inputs derived from the model (in allocation order):
    /// the script that steers a concrete run down this path.
    pub script: Vec<Value>,
    /// Result of concrete replay, when attempted.
    pub replay: Option<ReplayStatus>,
}

impl BugReport {
    /// True when the report is backed by a model (and, if replay was
    /// attempted, by a confirming concrete run).
    pub fn confirmed(&self) -> bool {
        self.model.is_some() && !matches!(self.replay, Some(ReplayStatus::Diverged(_)))
    }
}

/// The outcome of one symbolic test.
#[derive(Debug)]
pub struct SymTestOutcome<M: SymbolicMemory> {
    /// The raw exploration result.
    pub result: ExploreResult<SymbolicState<M>>,
    /// One report per error path.
    pub bugs: Vec<BugReport>,
}

impl<M: SymbolicMemory> SymTestOutcome<M> {
    /// True when every path terminated cleanly within budget: the test's
    /// assertions hold on all inputs up to the exploration bound.
    ///
    /// Interruptions (deadline, cancellation) and isolated panics mark the
    /// result truncated, so they fail verification here. `Unknown` solver
    /// verdicts do *not*: they only widen exploration (branches kept
    /// unproven-infeasible), so a bug-free run still verifies — but see
    /// [`SymTestOutcome::bounded`] and the result's
    /// [`ExploreDiagnostics`] for how bounded that guarantee is.
    pub fn verified(&self) -> bool {
        self.bugs.is_empty() && !self.result.truncated
    }

    /// True when the guarantee is bounded beyond the command budgets:
    /// truncation, dropped paths, or any diagnostic (including `Unknown`
    /// verdicts).
    pub fn bounded(&self) -> bool {
        self.result.bounded()
    }

    /// Total GIL commands executed (the tables' "GIL Cmds" column).
    pub fn gil_cmds(&self) -> u64 {
        self.result.total_cmds
    }
}

/// Runs one symbolic test: explores `entry` and builds bug reports (with
/// models, but without concrete replay — see [`run_test_with_replay`]).
pub fn run_test<M: SymbolicMemory>(
    prog: &Prog,
    entry: &str,
    solver: Arc<Solver>,
    cfg: ExploreConfig,
) -> SymTestOutcome<M> {
    let initial = SymbolicState::<M>::new(solver.clone());
    let result = explore_with(prog, entry, initial, cfg);
    let mut bugs = Vec::new();
    for path in result.errors() {
        let pc = path.state.pc.clone();
        // Fall back to the escalated search when the configured budget
        // fails: an unmodelled true positive is a report nobody can act on.
        let model = solver.model(&pc).or_else(|| solver.model_for_replay(&pc));
        let script = model
            .as_ref()
            .map(|m| script_from_model(&path.state, m))
            .unwrap_or_default();
        let error = match &path.outcome {
            ExploreOutcome::Error(e) => e.to_string(),
            _ => unreachable!("errors() yields only error paths"),
        };
        bugs.push(BugReport {
            error,
            pc,
            model,
            script,
            replay: None,
        });
    }
    SymTestOutcome { result, bugs }
}

/// Derives the concrete `iSym` input script from a model and the symbolic
/// allocator's trace (restriction-directed execution, paper §3).
pub fn script_from_model<M: SymbolicMemory>(state: &SymbolicState<M>, model: &Model) -> Vec<Value> {
    state
        .alloc()
        .isym_trace()
        .iter()
        .map(|(_site, x)| model.get(*x).cloned().unwrap_or(Value::Int(0)))
        .collect()
}

/// Runs one symbolic test and concretely replays every modelled bug using
/// the concrete memory `C` (both memories start empty, so no interpretation
/// function is needed for the *initial* state).
pub fn run_test_with_replay<M: SymbolicMemory, C: ConcreteMemory>(
    prog: &Prog,
    entry: &str,
    solver: Arc<Solver>,
    cfg: ExploreConfig,
) -> SymTestOutcome<M> {
    let mut out = run_test::<M>(prog, entry, solver, cfg.clone());
    for bug in &mut out.bugs {
        if bug.model.is_none() {
            continue;
        }
        bug.replay = Some(replay_concrete::<C>(
            prog,
            entry,
            bug.script.clone(),
            cfg.clone(),
        ));
    }
    out
}

/// Replays a test concretely under a scripted allocator; reports whether
/// the run errors (confirming the symbolic bug) or diverges.
pub fn replay_concrete<C: ConcreteMemory>(
    prog: &Prog,
    entry: &str,
    script: Vec<Value>,
    cfg: ExploreConfig,
) -> ReplayStatus {
    let initial = ConcreteState::<C>::with_script(script);
    let result = explore(prog, entry, initial, cfg);
    // Concrete execution is deterministic: exactly one path.
    match result.paths.first().map(|p| &p.outcome) {
        Some(ExploreOutcome::Error(v)) => ReplayStatus::ConfirmedError(v.clone()),
        Some(other) => ReplayStatus::Diverged(format!(
            "concrete replay ended with {other:?} instead of an error"
        )),
        None => ReplayStatus::Diverged("concrete replay produced no path".into()),
    }
}

/// Aggregated statistics for a suite of symbolic tests — one row of the
/// paper's Tables 1/2.
#[derive(Clone, Debug, Default)]
pub struct TestSuiteResult {
    /// Suite name (e.g. the data structure under test).
    pub name: String,
    /// Number of tests run (`#T`).
    pub tests: usize,
    /// Total GIL commands executed.
    pub gil_cmds: u64,
    /// Total symbolic paths explored across every test of the suite.
    pub paths: usize,
    /// Wall-clock time for the whole suite.
    pub time: Duration,
    /// Tests that produced confirmed bug reports, with the report errors.
    pub failures: Vec<(String, Vec<String>)>,
    /// Tests that hit an exploration budget (including the suite deadline:
    /// tests skipped because the suite ran out of time appear here with
    /// zero commands executed).
    pub truncated: Vec<String>,
    /// Tests whose exploration recorded an isolated panic
    /// ([`ExploreOutcome::EngineError`] paths).
    pub errored: Vec<String>,
    /// Diagnostics summed across every test of the suite.
    pub diagnostics: ExploreDiagnostics,
}

impl TestSuiteResult {
    /// True when every test verified cleanly (no confirmed bugs, no
    /// truncation, no engine errors).
    pub fn all_verified(&self) -> bool {
        self.failures.is_empty() && self.truncated.is_empty() && self.errored.is_empty()
    }
}

/// Runs a named suite of symbolic tests (each an entry procedure of
/// `prog`), returning table-row statistics.
///
/// `cfg.deadline`, when set, bounds the **whole suite**: each test runs
/// with the time still remaining, and once none remains the leftover tests
/// are reported in [`TestSuiteResult::truncated`] (with a deadline hit
/// each in the aggregated diagnostics) rather than run with no limit. A
/// batch under a serving timeout thus degrades to fewer-but-honest rows
/// instead of blowing the timeout on one pathological test.
pub fn run_suite<M: SymbolicMemory>(
    name: &str,
    prog: &Prog,
    entries: &[String],
    solver_factory: impl Fn() -> Solver,
    cfg: ExploreConfig,
) -> TestSuiteResult {
    let start = Instant::now();
    let suite_deadline = cfg.deadline.map(|d| start + d);
    let mut suite = TestSuiteResult {
        name: name.to_string(),
        tests: entries.len(),
        ..Default::default()
    };
    for entry in entries {
        let mut test_cfg = cfg.clone();
        if let Some(deadline) = suite_deadline {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                suite.truncated.push(entry.clone());
                suite.diagnostics.deadline_hits += 1;
                continue;
            }
            test_cfg.deadline = Some(remaining);
        }
        let solver = Arc::new(solver_factory());
        let outcome = run_test::<M>(prog, entry, solver, test_cfg);
        suite.gil_cmds += outcome.gil_cmds();
        suite.paths += outcome.result.paths.len();
        let d = outcome.result.diagnostics;
        suite.diagnostics.deadline_hits += d.deadline_hits;
        suite.diagnostics.cancellations += d.cancellations;
        suite.diagnostics.engine_errors += d.engine_errors;
        suite.diagnostics.unknown_verdicts += d.unknown_verdicts;
        suite.diagnostics.incremental_hits += d.incremental_hits;
        suite.diagnostics.interner = suite.diagnostics.interner.merge(&d.interner);
        if outcome.result.truncated {
            suite.truncated.push(entry.clone());
        }
        if d.engine_errors > 0 {
            suite.errored.push(entry.clone());
        }
        let confirmed: Vec<String> = outcome
            .bugs
            .iter()
            .filter(|b| b.confirmed())
            .map(|b| b.error.clone())
            .collect();
        if !confirmed.is_empty() {
            suite.failures.push((entry.clone(), confirmed));
        }
    }
    suite.time = start.elapsed();
    suite
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::SymBranch;
    use gillian_gil::{Cmd, Expr, Proc};

    /// Memories for a language with no heap: all state is in variables.
    #[derive(Clone, Debug, Default)]
    struct NoSymMem;
    impl SymbolicMemory for NoSymMem {
        fn execute_action(
            &self,
            name: &str,
            _: &Expr,
            _: &PathCondition,
            _: &Solver,
        ) -> Vec<SymBranch<Self>> {
            vec![SymBranch {
                memory: NoSymMem,
                outcome: Err(Expr::str(format!("no actions ({name})"))),
                constraint: Expr::tt(),
            }]
        }
    }
    #[derive(Clone, Debug, Default)]
    struct NoConcMem;
    impl ConcreteMemory for NoConcMem {
        fn execute_action(&mut self, name: &str, _: Value) -> Result<Value, Value> {
            Err(Value::str(format!("no actions ({name})")))
        }
    }

    /// test() { x := iSym; assume 0 ≤ x; assert x ≠ 7 }  — buggy at x = 7.
    fn buggy_prog() -> Prog {
        Prog::from_procs([Proc::new(
            "test",
            [],
            vec![
                Cmd::isym("x", 0),
                Cmd::IfGoto(Expr::int(0).le(Expr::pvar("x")), 3),
                Cmd::Vanish,
                Cmd::IfGoto(Expr::pvar("x").ne(Expr::int(7)), 5),
                Cmd::Fail(Expr::str("x hit the magic value")),
                Cmd::Return(Expr::tt()),
            ],
        )])
    }

    /// test() { x := iSym; assert x = x }  — always verifies.
    fn clean_prog() -> Prog {
        Prog::from_procs([Proc::new(
            "test",
            [],
            vec![
                Cmd::isym("x", 0),
                Cmd::IfGoto(Expr::pvar("x").eq(Expr::pvar("x")), 3),
                Cmd::Fail(Expr::str("reflexivity broke")),
                Cmd::Return(Expr::tt()),
            ],
        )])
    }

    #[test]
    fn clean_test_verifies() {
        let out = run_test::<NoSymMem>(
            &clean_prog(),
            "test",
            Arc::new(Solver::optimized()),
            ExploreConfig::default(),
        );
        assert!(out.verified());
        assert!(out.bugs.is_empty());
    }

    #[test]
    fn buggy_test_produces_modelled_report() {
        let out = run_test::<NoSymMem>(
            &buggy_prog(),
            "test",
            Arc::new(Solver::optimized()),
            ExploreConfig::default(),
        );
        assert_eq!(out.bugs.len(), 1);
        let bug = &out.bugs[0];
        assert!(bug.model.is_some(), "pc: {}", bug.pc);
        assert_eq!(bug.script, vec![Value::Int(7)], "model must pin x to 7");
    }

    #[test]
    fn replay_confirms_the_bug() {
        let out = run_test_with_replay::<NoSymMem, NoConcMem>(
            &buggy_prog(),
            "test",
            Arc::new(Solver::optimized()),
            ExploreConfig::default(),
        );
        let bug = &out.bugs[0];
        match &bug.replay {
            Some(ReplayStatus::ConfirmedError(v)) => {
                assert_eq!(v, &Value::str("x hit the magic value"));
            }
            other => panic!("expected confirmation, got {other:?}"),
        }
        assert!(bug.confirmed());
    }

    #[test]
    fn suite_aggregates_rows() {
        let mut prog = buggy_prog();
        // Rename the clean test into the same program.
        let clean = clean_prog();
        let mut p = clean.proc("test").unwrap().clone();
        p.name = "test_clean".into();
        prog.add(p);
        let suite = run_suite::<NoSymMem>(
            "demo",
            &prog,
            &["test".to_string(), "test_clean".to_string()],
            Solver::optimized,
            ExploreConfig::default(),
        );
        assert_eq!(suite.tests, 2);
        assert_eq!(suite.failures.len(), 1);
        assert!(suite.gil_cmds > 0);
        assert!(!suite.all_verified());
    }
}
