//! Bounded whole-program path exploration.
//!
//! Drives the GIL semantics over a worklist, exploring *all* paths and
//! unrolling loops up to a bound (paper §1: "Gillian symbolically
//! executes these tests, exploring all paths and unrolling loops up to a
//! bound"). The inner loop is the compiled-bytecode block dispatch of
//! [`crate::exec`] by default, with the [`crate::interp`] tree walk as
//! the reference backend (`GILLIAN_BYTECODE=0` /
//! [`ExploreConfig::bytecode`]). Per-path and global command budgets
//! keep exploration total; hitting a budget truncates the path and is
//! reported (a truncated run yields a *bounded* verification guarantee
//! only).
//!
//! Two engines share the budget semantics:
//!
//! - [`explore`] — the serial worklist loop (DFS or BFS order);
//! - [`explore_parallel`] — a work-sharing multi-worker loop. Paper §3.2's
//!   relaxed trace composition makes this sound without further argument:
//!   the meaning of a symbolic testing run is the union of its per-trace
//!   guarantees, and each trace is explored independently of the order in
//!   which its siblings run. Workers therefore never need to coordinate
//!   beyond budget accounting.
//!
//! Both engines report the same *order-normalized* result: every explored
//! path appears exactly once, budget cut-offs surface as
//! [`ExploreOutcome::Truncated`] paths (or [`ExploreResult::dropped_paths`]
//! once `max_paths` is full) — pending work is never silently lost.
//!
//! ## Resilience
//!
//! Command budgets alone cannot defend a run against a diverging solver
//! query, a spinning memory model, or a panicking one. Both engines
//! therefore also enforce (see `DESIGN.md`, "Resilience model"):
//!
//! - a wall-clock [`ExploreConfig::deadline`] and a cooperative
//!   [`CancelToken`], checked at every scheduling point and installed into
//!   the state's solver (via [`GilState::install_interrupt`]) so that long
//!   satisfiability queries give up with `Unknown` instead of spinning;
//! - per-path panic isolation: each interpreter step runs under a
//!   capturing `catch_unwind` (see `panic_guard`), so a panic in a
//!   language's memory model surfaces as one
//!   [`ExploreOutcome::EngineError`] path while every sibling finishes;
//! - [`ExploreDiagnostics`] on every result, counting deadline hits,
//!   cancellations, engine errors, and `Unknown` sat verdicts — nothing
//!   that weakened the run's guarantee goes unrecorded.

use crate::checkpoint::{
    self, CheckpointConfig, CheckpointData, FrontierItem, PathSummary, ResumeError, StateCtx,
};
use crate::exec::{step_block, BlockProfile, ExecProg, BLOCK_MAX};
use crate::faults::{FaultKind, FaultPlan};
use crate::interp::{Config, Final, Outcome, StepOut};
use crate::panic_guard;
use crate::state::GilState;
use gillian_gil::{EvalScratch, InternStats, Prog};
use gillian_solver::{CancelToken, Interrupt};
use gillian_telemetry::journal::{clear_path_context, set_path_context};
use gillian_telemetry::{
    names, registry, Event, Journal, LiveSink, LiveStats, Report, TreeStats, WorkerLog,
};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Locks a mutex, tolerating poison: a panicking path may unwind while a
/// sibling holds engine locks, and the guarded data (job queues) is valid
/// after any partial mutation the engine performs.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The order in which pending configurations are explored.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Depth-first (the default): completes individual paths early, which
    /// suits bug finding and keeps the frontier small.
    #[default]
    Dfs,
    /// Breadth-first: explores all paths in lockstep, which suits
    /// shallow-bug sweeps and fair progress across branches.
    Bfs,
}

/// Exploration limits.
///
/// No longer `Copy` (the cancellation token is shared); clone it freely —
/// clones share the same token, which is what callers want: cancelling a
/// run cancels everything configured from the same `ExploreConfig`.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Maximum commands executed along a single path.
    pub max_cmds_per_path: u64,
    /// Maximum commands executed across all paths.
    pub max_total_cmds: u64,
    /// Maximum number of finished paths collected. Never exceeded: once
    /// full, further paths (finished or pending) are counted in
    /// [`ExploreResult::dropped_paths`].
    pub max_paths: usize,
    /// Exploration order (serial engine only; the parallel engine's order
    /// is scheduling-dependent, its *result* is canonically ordered).
    pub strategy: SearchStrategy,
    /// Maximum pending (in-flight) configurations; branches beyond the cap
    /// are *dropped*. Paper §3.2's relaxed trace composition licenses
    /// this: soundness is per-trace, so dropping paths loses coverage but
    /// never validity — a standard scalability lever. Dropped paths are
    /// counted in [`ExploreResult::dropped_paths`] and mark the result
    /// truncated.
    pub max_pending: Option<usize>,
    /// Number of explorer workers. `0` or `1` selects the serial engine in
    /// [`explore_with`]; `explore_parallel` itself runs its machinery even
    /// with one worker.
    pub workers: usize,
    /// Wall-clock budget for one exploration run, measured from the call.
    /// When it expires, pending paths are parked as
    /// [`ExploreOutcome::Truncated`] (counted in
    /// [`ExploreDiagnostics::deadline_hits`]) and in-flight solver queries
    /// answer `Unknown`. `None` (the default) means no time limit.
    ///
    /// The deadline is cooperative: it is checked between interpreter
    /// steps and inside solver queries, so a single step overshoots only
    /// by as long as it genuinely computes. Memory models with long
    /// actions should poll `Solver::interrupted` to stay within it.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation. Cancel the token (from any thread) to
    /// stop the run at its next scheduling point; remaining work is parked
    /// as truncated and counted in [`ExploreDiagnostics::cancellations`].
    /// The default is a fresh, never-cancelled token.
    pub cancel: CancelToken,
    /// The run's event journal. The default is [`Journal::from_env`]:
    /// disabled (free) unless `GILLIAN_TRACE`/`GILLIAN_TRACE_CHROME` is
    /// set, in which case every run journals path lifecycle, sat
    /// queries, and memory actions, and appends the merged trace to the
    /// configured sinks at explore end. Tests and embedders can install
    /// an explicit journal (e.g. [`Journal::enabled`]) instead.
    pub journal: Journal,
    /// Crash-safe checkpointing of the frontier (`DESIGN.md` §14):
    /// `None` (the default) writes nothing; otherwise the configured
    /// file receives atomic snapshots at the configured interval and on
    /// deadline/cancel/kill, from which [`explore_resume`] can continue
    /// the run.
    pub checkpoint: Option<CheckpointConfig>,
    /// Deterministic fault injection (`DESIGN.md` §14): `None` (the
    /// default) injects nothing; otherwise the plan's seeded decisions
    /// fire at engine scheduling points and solver queries. Testing
    /// machinery — never install one in production runs.
    pub faults: Option<Arc<FaultPlan>>,
    /// Execution backend selection (`DESIGN.md` §15): `Some(true)` runs
    /// the compiled register bytecode, `Some(false)` the reference tree
    /// walk, and `None` (the default) defers to the `GILLIAN_BYTECODE`
    /// environment variable (on unless set to `0`). Both backends
    /// produce identical `(trace, outcome, cmds)` path sets; the switch
    /// exists for differential testing and A/B benchmarking.
    pub bytecode: Option<bool>,
    /// Procedure-summary reuse (`DESIGN.md` §17): `Some(true)` arms the
    /// state's summary store for the run (recording clean callee windows,
    /// splicing them back at applicable `Call` sites), `Some(false)`
    /// leaves every call executing normally, and `None` (the default)
    /// defers to the `GILLIAN_SUMMARIES` environment variable — off
    /// unless set to something other than `0`. Summaries never change a
    /// path's `(trace, outcome)`: an applied summary replays a proven
    /// fork-free callee, retiring the whole call as the one `Call`
    /// command, so only `cmds` (and wall-clock) shrink. With
    /// `GILLIAN_SUMMARY_FILE` set, armed runs load the store from that
    /// file at start and persist it back at end (warm runs across
    /// processes); a corrupt file degrades to cold execution.
    pub summaries: Option<bool>,
}

impl ExploreConfig {
    /// This configuration with the given wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_cmds_per_path: 100_000,
            max_total_cmds: 10_000_000,
            max_paths: 4096,
            strategy: SearchStrategy::Dfs,
            max_pending: None,
            workers: 1,
            deadline: None,
            cancel: CancelToken::new(),
            journal: Journal::from_env(),
            checkpoint: None,
            faults: None,
            bytecode: None,
            summaries: None,
        }
    }
}

/// The `GILLIAN_SUMMARIES` resolution used when
/// [`ExploreConfig::summaries`] is `None`: off unless the variable is set
/// to something other than `0` (summaries are opt-in, unlike the
/// default-on bytecode backend — warm reuse is a deliberate choice, and
/// the cold path stays byte-identical to a build without the feature).
fn summaries_from_env() -> bool {
    std::env::var("GILLIAN_SUMMARIES").is_ok_and(|v| v != "0")
}

/// The outcome of one explored path.
#[derive(Clone, Debug, PartialEq)]
pub enum ExploreOutcome<V> {
    /// Terminated with `N(v)`.
    Normal(V),
    /// Terminated with `E(v)`.
    Error(V),
    /// Discarded by `vanish` (e.g. a failed `assume`).
    Vanished,
    /// Cut off by a budget — the path may have continued.
    Truncated,
    /// The engine (or a memory model it called) panicked while stepping
    /// this path. The panic was isolated: sibling paths are unaffected and
    /// carry their usual per-trace guarantee; *this* trace carries none.
    EngineError {
        /// The captured panic message, with source location when the
        /// panic hook could observe it.
        payload: String,
        /// The branch trace (successor index at every branching step from
        /// the entry) identifying which path died. The associated
        /// [`PathResult::state`] is a pristine clone of the *initial*
        /// state — the true final state was lost to the unwind.
        trace: Vec<u32>,
    },
}

impl<V> ExploreOutcome<V> {
    /// The journal/JSONL spelling of this outcome kind.
    pub fn kind(&self) -> &'static str {
        match self {
            ExploreOutcome::Normal(_) => "normal",
            ExploreOutcome::Error(_) => "error",
            ExploreOutcome::Vanished => "vanished",
            ExploreOutcome::Truncated => "truncated",
            ExploreOutcome::EngineError { .. } => "engine_error",
        }
    }
}

impl<V> From<Outcome<V>> for ExploreOutcome<V> {
    fn from(o: Outcome<V>) -> Self {
        match o {
            Outcome::Normal(v) => ExploreOutcome::Normal(v),
            Outcome::Error(v) => ExploreOutcome::Error(v),
            Outcome::Vanished => ExploreOutcome::Vanished,
        }
    }
}

/// One finished (or truncated) path.
#[derive(Clone, Debug)]
pub struct PathResult<S: GilState> {
    /// The state at the end of the path.
    pub state: S,
    /// How the path ended.
    pub outcome: ExploreOutcome<S::V>,
    /// Commands executed along this path.
    pub cmds: u64,
    /// The branch trace: the successor index chosen at every branching
    /// step from the entry (the journal's schedule-independent path id).
    /// Feed it to [`replay_path`] to re-execute exactly this path.
    pub trace: Vec<u32>,
}

/// Counters for everything that weakened a run's guarantee beyond plain
/// command budgets. A clean run (all zeros) explored exactly what its
/// budgets allowed; any non-zero counter means some verdicts are bounded
/// or missing for the recorded reason.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExploreDiagnostics {
    /// Paths parked as truncated because the wall-clock deadline fired.
    pub deadline_hits: usize,
    /// Paths parked as truncated because the run was cancelled.
    pub cancellations: usize,
    /// Paths lost to an isolated panic (plus, in the parallel engine, any
    /// worker that died outside the per-step guard).
    pub engine_errors: usize,
    /// `Unknown` satisfiability verdicts observed during the run. Each one
    /// means a branch was kept because the solver could not *prove* it
    /// infeasible within budget — sound (over-approximating) but worth
    /// recording: bug reports remain true positives (models are verified),
    /// while "no bug found" weakens from the budget-bounded guarantee to
    /// one also conditioned on those undecided queries.
    pub unknown_verdicts: u64,
    /// Satisfiability queries answered by extending a frozen per-prefix
    /// solve context instead of re-solving the full conjunction.
    /// Telemetry only — reuse never changes a verdict — so this does not
    /// affect [`ExploreDiagnostics::is_clean`].
    pub incremental_hits: u64,
    /// Procedure summaries harvested during this run (clean callee
    /// windows recorded into the solver's summary store). Telemetry only,
    /// like [`ExploreDiagnostics::incremental_hits`]: recording never
    /// changes a verdict, so this does not affect
    /// [`ExploreDiagnostics::is_clean`].
    pub summaries_recorded: u64,
    /// `Call` sites answered by splicing a recorded summary instead of
    /// re-executing the callee. Telemetry only — an applied summary
    /// preserves the path's `(trace, outcome)` exactly.
    pub summaries_applied: u64,
    /// Interner activity attributed to this run: the sum of **per-worker
    /// thread-local** [`InternStats`] deltas (the serial engine's single
    /// thread, or every worker of the parallel engine), with `live`
    /// read globally at run end. Thread deltas make the attribution
    /// exact — diffing the process-global counters would fold in every
    /// other exploration running concurrently in the process (and, under
    /// the parallel engine, double-count the run's own traffic when
    /// worker snapshots were summed). Telemetry only: interner traffic
    /// never weakens a verdict, so these counters do not affect
    /// [`ExploreDiagnostics::is_clean`].
    pub interner: InternStats,
}

impl ExploreDiagnostics {
    /// True when nothing degraded the run: no deadline hits, no
    /// cancellations, no engine errors, no unknown verdicts. Interner
    /// telemetry is informational and deliberately excluded.
    pub fn is_clean(&self) -> bool {
        self.deadline_hits == 0
            && self.cancellations == 0
            && self.engine_errors == 0
            && self.unknown_verdicts == 0
    }
}

/// The result of exploring a program from an entry point.
#[derive(Clone, Debug)]
pub struct ExploreResult<S: GilState> {
    /// All finished paths. Serial engines list them in exploration order;
    /// the parallel engine in canonical branch order.
    pub paths: Vec<PathResult<S>>,
    /// Total GIL commands executed (the paper's "GIL Cmds" column).
    pub total_cmds: u64,
    /// True when some budget was hit.
    pub truncated: bool,
    /// Paths lost to a cap: branches beyond [`ExploreConfig::max_pending`],
    /// plus any path (finished or pending) arriving after
    /// [`ExploreConfig::max_paths`] results were already collected.
    pub dropped_paths: usize,
    /// True when a fault-injected kill stopped the run as if the process
    /// died. A killed result is incomplete by construction: its pending
    /// frontier lives only in the checkpoint file (when one was
    /// configured) and is *not* drained into truncated paths here —
    /// exactly what a real crash leaves behind. Resume with
    /// [`explore_resume`].
    pub killed: bool,
    /// What, if anything, degraded this run (deadlines, cancellation,
    /// isolated panics, undecided solver queries).
    pub diagnostics: ExploreDiagnostics,
    /// The run's exploration profile: metric deltas, branch-tree shape,
    /// and — when the journal was enabled — slowest sat queries and the
    /// per-language action table. Render with [`Report::render`];
    /// library code never prints it.
    pub report: Report,
}

impl<S: GilState> ExploreResult<S> {
    /// Paths that ended in an error.
    pub fn errors(&self) -> impl Iterator<Item = &PathResult<S>> {
        self.paths
            .iter()
            .filter(|p| matches!(p.outcome, ExploreOutcome::Error(_)))
    }

    /// Paths that returned normally.
    pub fn normal(&self) -> impl Iterator<Item = &PathResult<S>> {
        self.paths
            .iter()
            .filter(|p| matches!(p.outcome, ExploreOutcome::Normal(_)))
    }

    /// Paths that died to an isolated panic.
    pub fn engine_errors(&self) -> impl Iterator<Item = &PathResult<S>> {
        self.paths
            .iter()
            .filter(|p| matches!(p.outcome, ExploreOutcome::EngineError { .. }))
    }

    /// True when this result carries a *bounded* guarantee only: some
    /// budget truncated exploration, paths were dropped, or the
    /// diagnostics record a degradation (including `Unknown` verdicts,
    /// which truncate nothing but leave branches unproven-infeasible).
    pub fn bounded(&self) -> bool {
        self.truncated || self.dropped_paths > 0 || self.killed || !self.diagnostics.is_clean()
    }

    fn empty() -> Self {
        ExploreResult {
            paths: Vec::new(),
            total_cmds: 0,
            truncated: false,
            dropped_paths: 0,
            killed: false,
            diagnostics: ExploreDiagnostics::default(),
            report: Report::default(),
        }
    }

    /// Records a path without ever exceeding `max_paths`: overflow is
    /// counted in [`ExploreResult::dropped_paths`] and marks the result
    /// truncated. Returns whether the path was recorded, so callers can
    /// journal a `PathFinished` for exactly the reported paths.
    fn record(&mut self, max_paths: usize, path: PathResult<S>) -> bool {
        if self.paths.len() < max_paths {
            self.paths.push(path);
            true
        } else {
            self.dropped_paths += 1;
            self.truncated = true;
            false
        }
    }
}

/// Shared tail of both engines: merges the journal, exports it, and
/// fills in the run's [`Report`].
fn finish_report<S: GilState>(
    result: &mut ExploreResult<S>,
    journal: &Journal,
    traces: &[Vec<u32>],
    metrics_before: &gillian_telemetry::MetricsSnapshot,
    run_started: Instant,
    workers: u32,
) {
    if journal.is_enabled() {
        let merged = journal.finish_run();
        result
            .report
            .ingest_events(&merged, journal.events_dropped());
        result.report.trace_path = journal.jsonl_path().map(String::from);
    }
    result.report.wall_micros = run_started.elapsed().as_micros() as u64;
    result.report.workers = workers;
    result.report.tree = TreeStats::from_paths(traces.iter().map(Vec::as_slice));
    result.report.metrics = registry().snapshot().since(metrics_before);
}

/// Why the main loop stopped early (beyond budget exhaustion, which keeps
/// the historical accounting and no diagnostic).
#[derive(Clone, Copy)]
enum StopCause {
    Deadline,
    Cancelled,
}

/// Accounting carried into a resumed run from its checkpoint, so the
/// merged result reads as if the run was never interrupted: the global
/// command budget continues from the checkpoint's count and the
/// interrupted run's diagnostics are folded into the final ones.
#[derive(Clone, Copy, Debug, Default)]
struct ResumeBase {
    total_cmds: u64,
    truncated: bool,
    dropped_paths: usize,
    diagnostics: ExploreDiagnostics,
}

/// Summaries of a result's recorded paths, for checkpointing.
fn summaries<S: GilState>(result: &ExploreResult<S>) -> Vec<PathSummary> {
    result
        .paths
        .iter()
        .map(|p| PathSummary {
            trace: p.trace.clone(),
            outcome: p.outcome.kind().to_string(),
            cmds: p.cmds,
        })
        .collect()
}

/// Summaries of the parallel engine's not-yet-merged finished paths.
fn yield_summaries<S: GilState>(finished: &[(Vec<u32>, PathResult<S>)]) -> Vec<PathSummary> {
    finished
        .iter()
        .map(|(trace, p)| PathSummary {
            trace: trace.clone(),
            outcome: p.outcome.kind().to_string(),
            cmds: p.cmds,
        })
        .collect()
}

/// Writes one atomic checkpoint of the current frontier, journaling and
/// counting the write. Failures are counted
/// (`checkpoint.failed_writes`) but never interrupt exploration —
/// checkpointing is best-effort durability, not a correctness
/// dependency. Returns whether the write succeeded.
#[allow(clippy::too_many_arguments)] // internal; mirrors CheckpointData's fields
fn write_frontier_checkpoint<'a, S: GilState + 'a>(
    ckpt: &CheckpointConfig,
    cfg: &ExploreConfig,
    entry: &str,
    frontier: impl Iterator<Item = &'a FrontierItem<S>>,
    result: &ExploreResult<S>,
    completed: Vec<PathSummary>,
    diagnostics: ExploreDiagnostics,
    log: &mut WorkerLog,
) -> bool {
    let started = Instant::now();
    let data = CheckpointData {
        strategy: cfg.strategy,
        entry: entry.to_string(),
        total_cmds: result.total_cmds,
        truncated: result.truncated,
        dropped_paths: result.dropped_paths,
        diagnostics,
        completed,
        frontier: frontier.cloned().collect(),
    };
    match checkpoint::save_checkpoint(&ckpt.path, &data) {
        Ok(bytes) => {
            let micros = started.elapsed().as_micros() as u64;
            registry().counter(names::CHECKPOINT_WRITES).incr();
            registry().counter(names::CHECKPOINT_BYTES).add(bytes);
            registry()
                .histogram(names::CHECKPOINT_WRITE_MICROS)
                .record(micros);
            let pending = data.frontier.len() as u32;
            let completed = data.completed.len() as u32;
            log.emit_with(|| Event::CheckpointWritten {
                pending,
                completed,
                bytes,
                micros,
            });
            true
        }
        Err(_) => {
            registry().counter(names::CHECKPOINT_FAILED_WRITES).incr();
            false
        }
    }
}

/// A resumed exploration: the paths completed before the interruption
/// (from the checkpoint) plus the result of exploring the restored
/// frontier. `prior` and `result.paths` are disjoint by construction
/// (a path is either finished before the checkpoint or pending in it),
/// and for a kill-interrupted run their union is exactly the
/// uninterrupted run's path set, with the same branch-trace identities.
#[derive(Clone, Debug)]
pub struct ResumedExplore<S: GilState> {
    /// Paths completed before the checkpoint was written.
    pub prior: Vec<PathSummary>,
    /// The continuation run. Budgets continue from the checkpoint's
    /// accounting and [`ExploreDiagnostics`] are merged, so this reads
    /// like the tail of one uninterrupted run.
    pub result: ExploreResult<S>,
}

/// Resumes an interrupted exploration from the checkpoint at `path`.
///
/// The frontier is restored through `ctx` (intern ids remapped by
/// re-interning; states re-attached to `ctx.solver`), the checkpoint's
/// search strategy overrides `cfg.strategy`, and exploration continues
/// under `cfg`'s budgets with the checkpoint's command count already
/// spent. `sentinel` plays the role the initial state plays in
/// [`explore`]: a pristine state for interrupt/journal installation and
/// panic reporting — it is never stepped.
///
/// # Errors
///
/// Reports [`ResumeError`] when the file is missing, corrupt, from a
/// different format version, or holds states `S` cannot rebuild. Never
/// panics on untrusted bytes.
pub fn explore_resume<S>(
    prog: &Prog,
    path: &Path,
    ctx: &StateCtx,
    sentinel: S,
    mut cfg: ExploreConfig,
) -> Result<ResumedExplore<S>, ResumeError>
where
    S: GilState + Send,
    S::V: Send,
    S::Store: Send,
{
    let data: CheckpointData<S> = checkpoint::load_checkpoint(path, ctx)?;
    cfg.strategy = data.strategy;
    registry().counter(names::CHECKPOINT_RESUMES).incr();
    cfg.journal.record_shared(Event::Resumed {
        pending: data.frontier.len() as u32,
        completed: data.completed.len() as u32,
    });
    let base = ResumeBase {
        total_cmds: data.total_cmds,
        truncated: data.truncated,
        dropped_paths: data.dropped_paths,
        diagnostics: data.diagnostics,
    };
    let entry = data.entry.clone();
    let frontier: VecDeque<FrontierItem<S>> = data.frontier.into();
    let result = if cfg.workers > 1 {
        explore_parallel_frontier(prog, &entry, sentinel, frontier, cfg, base)
    } else {
        explore_frontier(prog, &entry, sentinel, frontier, cfg, base)
    };
    Ok(ResumedExplore {
        prior: data.completed,
        result,
    })
}

/// Explores all paths of `prog` starting from `entry` in `initial` state.
///
/// Budgets are enforced at the point work is *produced*, not merely when it
/// is popped: the result never holds more than `max_paths` paths, and a
/// budget break drains the remaining worklist into
/// [`ExploreOutcome::Truncated`] paths (or `dropped_paths` once `max_paths`
/// is full) instead of silently discarding it.
///
/// Deadline expiry and cancellation stop the loop the same way a budget
/// does, with the parked paths counted in [`ExploreDiagnostics`]; a panic
/// while stepping is isolated to its path (see
/// [`ExploreOutcome::EngineError`]).
pub fn explore<S: GilState>(
    prog: &Prog,
    entry: &str,
    initial: S,
    cfg: ExploreConfig,
) -> ExploreResult<S> {
    // A pristine clone of the initial state: it arms/disarms the solver
    // interrupt, provides the Unknown-verdict counter, and stands in as
    // the reported state of paths whose true state was lost to a panic.
    let sentinel = initial.clone();
    let worklist = VecDeque::from([FrontierItem {
        config: Config::entry(entry, initial),
        cmds: 0,
        trace: Vec::new(),
    }]);
    explore_frontier(prog, entry, sentinel, worklist, cfg, ResumeBase::default())
}

/// The serial engine over an explicit starting frontier: [`explore`] seeds
/// it with the entry configuration, [`explore_resume`] with a restored
/// checkpoint frontier plus the interrupted run's accounting in `base`.
fn explore_frontier<S: GilState>(
    prog: &Prog,
    entry: &str,
    sentinel: S,
    mut worklist: VecDeque<FrontierItem<S>>,
    cfg: ExploreConfig,
    base: ResumeBase,
) -> ExploreResult<S> {
    let run_started = Instant::now();
    let deadline = cfg.deadline.map(|d| run_started + d);
    // One-shot backend preparation: compile to bytecode (or keep the tree
    // walk, per config/environment), plus the per-run register scratch
    // and the crash-safe block-progress channel.
    let exec = ExecProg::prepare(prog, cfg.bytecode);
    let mut scratch = EvalScratch::new();
    let progress = AtomicU64::new(0);
    let interrupt = Interrupt::new(deadline, cfg.cancel.clone());
    sentinel.install_interrupt(interrupt.clone());
    let journal = cfg.journal.clone();
    sentinel.install_journal(journal.clone());
    let faults = cfg.faults.clone();
    if let Some(plan) = &faults {
        sentinel.install_fault_probe(plan.probe(journal.clone()));
    }
    // Summary arming (`DESIGN.md` §17): same one-run-at-a-time lifecycle
    // as the interrupt. Armed states load `GILLIAN_SUMMARY_FILE` (when
    // set) inside the configure hook, so warm entries apply from the
    // first path onward.
    let summaries_on = cfg.summaries.unwrap_or_else(summaries_from_env);
    if summaries_on {
        sentinel.configure_summaries(prog, true);
    }
    let ckpt = cfg.checkpoint.clone();
    let mut next_ckpt = ckpt.as_ref().and_then(|c| c.every).map(|e| run_started + e);
    let unknowns_before = sentinel.unknown_verdicts();
    let reuse_before = sentinel.solver_reuse();
    let summary_before = sentinel.summary_stats();
    // Thread-local snapshot: the whole run executes on this thread, so
    // the delta attributes exactly this run's interner traffic.
    let interner_before = InternStats::thread_snapshot();
    let metrics_before = registry().snapshot();
    let mut log = journal.worker(0);
    log.emit_with(|| Event::PathStarted { path: Vec::new() });
    // Branch traces of every *recorded* path, for the report's tree stats.
    let mut traces: Vec<Vec<u32>> = Vec::new();
    // Profiler hooks, both off by default: the dispatcher's per-proc time
    // attribution (journal-armed runs only) and the `GILLIAN_LIVE` frame
    // sink. Depth is the branch-trace length of the path last stepped.
    let mut profile = journal.is_enabled().then(BlockProfile::new);
    let mut live = LiveSink::from_env();
    let mut live_depth = 0u32;

    let mut result = ExploreResult::empty();
    result.total_cmds = base.total_cmds;
    result.truncated = base.truncated;
    result.dropped_paths = base.dropped_paths;
    // Diagnostics as they stand mid-run (for checkpoints): run counters so
    // far plus the solver deltas normally computed at run end, plus the
    // resumed-from accounting.
    let diag_now = |result: &ExploreResult<S>| {
        let mut d = result.diagnostics;
        d.deadline_hits += base.diagnostics.deadline_hits;
        d.cancellations += base.diagnostics.cancellations;
        d.engine_errors += base.diagnostics.engine_errors;
        d.unknown_verdicts = sentinel.unknown_verdicts().saturating_sub(unknowns_before)
            + base.diagnostics.unknown_verdicts;
        d.incremental_hits = sentinel.solver_reuse().saturating_sub(reuse_before)
            + base.diagnostics.incremental_hits;
        let summ = sentinel.summary_stats();
        d.summaries_recorded =
            summ.0.saturating_sub(summary_before.0) + base.diagnostics.summaries_recorded;
        d.summaries_applied =
            summ.1.saturating_sub(summary_before.1) + base.diagnostics.summaries_applied;
        d
    };
    let pop = |wl: &mut VecDeque<FrontierItem<S>>, strategy| match strategy {
        SearchStrategy::Dfs => wl.pop_back(),
        SearchStrategy::Bfs => wl.pop_front(),
    };
    let mut stop_cause: Option<StopCause> = None;
    let mut killed = false;
    while result.total_cmds < cfg.max_total_cmds && result.paths.len() < cfg.max_paths {
        if cfg.cancel.is_cancelled() {
            stop_cause = Some(StopCause::Cancelled);
            break;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            log.emit_with(|| Event::DeadlineHit { path: Vec::new() });
            stop_cause = Some(StopCause::Deadline);
            break;
        }
        if let Some(l) = live.as_mut() {
            l.tick(&LiveStats {
                paths_finished: result.paths.len() as u64,
                pending: worklist.len() as u64,
                depth: live_depth,
                cmds: result.total_cmds,
                workers: 1,
            });
        }
        if let (Some(c), Some(at)) = (ckpt.as_ref(), next_ckpt) {
            if Instant::now() >= at {
                let diag = diag_now(&result);
                write_frontier_checkpoint(
                    c,
                    &cfg,
                    entry,
                    worklist.iter(),
                    &result,
                    summaries(&result),
                    diag,
                    &mut log,
                );
                next_ckpt = c.every.map(|e| Instant::now() + e);
            }
        }
        // One fault point per scheduling step. A kill fires *before* the
        // pop, so the checkpointed frontier below is exactly what was
        // pending; an injected panic is armed here and fires inside the
        // step's panic guard, exercising the same isolation a real
        // memory-model panic would.
        let mut inject_panic = false;
        if let Some(plan) = &faults {
            let point = plan.next_point();
            match plan.engine_fault(point) {
                Some(FaultKind::Kill) => {
                    plan.record(point, FaultKind::Kill);
                    log.emit_with(|| Event::FaultInjected {
                        point,
                        fault: "kill",
                    });
                    killed = true;
                    break;
                }
                Some(FaultKind::PathPanic) => {
                    plan.record(point, FaultKind::PathPanic);
                    log.emit_with(|| Event::FaultInjected {
                        point,
                        fault: "path_panic",
                    });
                    inject_panic = true;
                }
                _ => {}
            }
        }
        let Some(FrontierItem {
            config,
            cmds,
            mut trace,
        }) = pop(&mut worklist, cfg.strategy)
        else {
            break;
        };
        if cmds >= cfg.max_cmds_per_path {
            result.truncated = true;
            if result.record(
                cfg.max_paths,
                PathResult {
                    state: config.state,
                    outcome: ExploreOutcome::Truncated,
                    cmds,
                    trace: trace.clone(),
                },
            ) {
                log.emit_with(|| Event::PathFinished {
                    path: trace.clone(),
                    outcome: "truncated",
                    cmds,
                });
                traces.push(trace);
            }
            continue;
        }
        // Block budget: never beyond the path's or the run's remaining
        // command allowance (both positive — the checks above guarantee
        // it), so the block loop itself never has to consult budgets.
        let limit = BLOCK_MAX
            .min(cfg.max_cmds_per_path - cmds)
            .min(cfg.max_total_cmds - result.total_cmds);
        progress.store(0, Ordering::Relaxed);
        live_depth = trace.len() as u32;
        // Attribute the solver/memory events this step emits to the path
        // being stepped (thread-local; cleared when the run ends).
        if profile.is_some() {
            set_path_context(&trace);
        }
        let caught = {
            let scratch = &mut scratch;
            let progress = &progress;
            let exec = &exec;
            let interrupt = &interrupt;
            let prof = profile.as_mut();
            panic_guard::catch(move || {
                if inject_panic {
                    panic!("injected fault: path panic");
                }
                step_block(
                    prog, exec, config, limit, interrupt, progress, scratch, prof,
                )
            })
        };
        // Commands the block actually charged — published *before* each
        // command executes, so a panic mid-block still bills every
        // command up to and including the one that died (`max(1)` covers
        // an injected panic ahead of the first command, which the tree
        // walk charges as one).
        let consumed = progress.load(Ordering::Relaxed).max(1);
        result.total_cmds += consumed;
        if let Some(p) = profile.as_mut() {
            for (stack, seg_cmds, micros) in p.drain(progress.load(Ordering::Relaxed)) {
                log.emit_with(|| Event::ProcTime {
                    path: trace.clone(),
                    stack,
                    cmds: seg_cmds,
                    micros,
                });
            }
        }
        let outs = match caught {
            Ok(outs) => outs,
            Err(payload) => {
                result.truncated = true;
                result.diagnostics.engine_errors += 1;
                log.emit_with(|| Event::PanicIsolated {
                    path: trace.clone(),
                    payload: payload.clone(),
                });
                // The sentinel clone itself may panic (a poisoned user
                // Clone impl); then the path is counted but has no state
                // to report.
                if let Ok(state) = panic_guard::catch(|| sentinel.clone()) {
                    if result.record(
                        cfg.max_paths,
                        PathResult {
                            state,
                            outcome: ExploreOutcome::EngineError {
                                payload,
                                trace: trace.clone(),
                            },
                            cmds: cmds + consumed,
                            trace: trace.clone(),
                        },
                    ) {
                        log.emit_with(|| Event::PathFinished {
                            path: trace.clone(),
                            outcome: "engine_error",
                            cmds: cmds + consumed,
                        });
                        traces.push(trace);
                    }
                }
                continue;
            }
        };
        let branching = outs.len() > 1;
        if branching {
            let arms = outs.len() as u32;
            log.emit_with(|| Event::PathForked {
                parent: trace.clone(),
                arms,
            });
        }
        for (i, out) in outs.into_iter().enumerate() {
            let child_trace = if branching {
                let mut t = trace.clone();
                t.push(i as u32);
                t
            } else {
                std::mem::take(&mut trace)
            };
            match out {
                StepOut::Next(c) => {
                    if cfg.max_pending.is_some_and(|cap| worklist.len() >= cap) {
                        result.dropped_paths += 1;
                        result.truncated = true;
                    } else {
                        worklist.push_back(FrontierItem {
                            config: c,
                            cmds: cmds + consumed,
                            trace: child_trace,
                        });
                    }
                }
                StepOut::Done(Final { state, outcome }) => {
                    let outcome: ExploreOutcome<_> = outcome.into();
                    let kind = outcome.kind();
                    if result.record(
                        cfg.max_paths,
                        PathResult {
                            state,
                            outcome,
                            cmds: cmds + consumed,
                            trace: child_trace.clone(),
                        },
                    ) {
                        log.emit_with(|| Event::PathFinished {
                            path: child_trace.clone(),
                            outcome: kind,
                            cmds: cmds + consumed,
                        });
                        traces.push(child_trace);
                    }
                }
            }
        }
    }
    // Final checkpoint: always on a kill (that *is* the crash being
    // simulated), and on deadline/cancel when configured — written before
    // pending work is drained, so the file holds the true frontier.
    let mut frontier_checkpointed = false;
    if let Some(c) = ckpt.as_ref() {
        let wanted = killed
            || match stop_cause {
                Some(StopCause::Deadline) => c.on_deadline,
                Some(StopCause::Cancelled) => c.on_cancel,
                None => false,
            };
        if wanted {
            let diag = diag_now(&result);
            frontier_checkpointed = write_frontier_checkpoint(
                c,
                &cfg,
                entry,
                worklist.iter(),
                &result,
                summaries(&result),
                diag,
                &mut log,
            );
        }
    }
    result.killed = killed;
    if killed && frontier_checkpointed {
        // A killed run mimics process death: its pending work survives
        // only in the checkpoint, so it is *not* drained into truncated
        // paths here (resume-equivalence depends on it appearing exactly
        // once — in the resumed run).
        worklist.clear();
    }
    // A budget/deadline/cancel break leaves pending configurations behind;
    // surface every one of them instead of losing them.
    while let Some(FrontierItem {
        config,
        cmds,
        trace,
    }) = pop(&mut worklist, cfg.strategy)
    {
        result.truncated = true;
        match stop_cause {
            Some(StopCause::Deadline) => result.diagnostics.deadline_hits += 1,
            Some(StopCause::Cancelled) => result.diagnostics.cancellations += 1,
            None => {}
        }
        if result.record(
            cfg.max_paths,
            PathResult {
                state: config.state,
                outcome: ExploreOutcome::Truncated,
                cmds,
                trace: trace.clone(),
            },
        ) {
            log.emit_with(|| Event::PathFinished {
                path: trace.clone(),
                outcome: "truncated",
                cmds,
            });
            traces.push(trace);
        }
    }
    if profile.is_some() {
        clear_path_context();
    }
    if let Some(l) = live.as_mut() {
        l.finish(&LiveStats {
            paths_finished: result.paths.len() as u64,
            pending: 0,
            depth: live_depth,
            cmds: result.total_cmds,
            workers: 1,
        });
    }
    sentinel.clear_interrupt();
    result.diagnostics.unknown_verdicts =
        sentinel.unknown_verdicts().saturating_sub(unknowns_before)
            + base.diagnostics.unknown_verdicts;
    result.diagnostics.incremental_hits =
        sentinel.solver_reuse().saturating_sub(reuse_before) + base.diagnostics.incremental_hits;
    let summary_after = sentinel.summary_stats();
    result.diagnostics.summaries_recorded =
        summary_after.0.saturating_sub(summary_before.0) + base.diagnostics.summaries_recorded;
    result.diagnostics.summaries_applied =
        summary_after.1.saturating_sub(summary_before.1) + base.diagnostics.summaries_applied;
    result.diagnostics.deadline_hits += base.diagnostics.deadline_hits;
    result.diagnostics.cancellations += base.diagnostics.cancellations;
    result.diagnostics.engine_errors += base.diagnostics.engine_errors;
    result.diagnostics.interner = InternStats::thread_snapshot().since(&interner_before);
    if summaries_on {
        // Disarm (persisting to `GILLIAN_SUMMARY_FILE` when set); entries
        // stay in the store for the next armed run in this process.
        sentinel.configure_summaries(prog, false);
    }
    if faults.is_some() {
        sentinel.clear_fault_probe();
    }
    drop(log);
    finish_report(
        &mut result,
        &journal,
        &traces,
        &metrics_before,
        run_started,
        1,
    );
    sentinel.clear_journal();
    result
}

/// Explores with the configured engine: serial for `workers <= 1`, the
/// parallel explorer otherwise.
pub fn explore_with<S>(prog: &Prog, entry: &str, initial: S, cfg: ExploreConfig) -> ExploreResult<S>
where
    S: GilState + Send,
    S::V: Send,
    S::Store: Send,
{
    if cfg.workers > 1 {
        explore_parallel(prog, entry, initial, cfg)
    } else {
        explore(prog, entry, initial, cfg)
    }
}

/// Why a forced-branch replay could not follow its trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// The program branched more often than the trace has entries.
    TraceExhausted {
        /// Commands executed when the trace ran dry.
        cmds: u64,
    },
    /// The trace picked a successor index the step did not produce.
    NoSuchArm {
        /// The trace's successor index.
        index: u32,
        /// How many successors the step actually produced.
        arms: usize,
    },
    /// A step produced no successor at all (every branch infeasible).
    DeadEnd {
        /// Commands executed when the path died.
        cmds: u64,
    },
    /// The command budget ran out before the path finished.
    BudgetExhausted,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::TraceExhausted { cmds } => {
                write!(f, "trace exhausted after {cmds} commands")
            }
            ReplayError::NoSuchArm { index, arms } => {
                write!(f, "trace picked arm {index} of {arms}")
            }
            ReplayError::DeadEnd { cmds } => {
                write!(f, "no feasible successor after {cmds} commands")
            }
            ReplayError::BudgetExhausted => write!(f, "replay command budget exhausted"),
        }
    }
}

/// Deterministic single-path replay: re-executes `entry` from `initial`,
/// forcing the successor index recorded in `trace` at every branching
/// step (the branch trace of a [`PathResult`] or journal path id).
///
/// Allocator sites are re-seeded for free — a fresh state replays the
/// same `uSym`/`iSym` sequence, because allocation order is a function of
/// the path, and the path is forced. Replaying a finished path's trace on
/// an equal initial state therefore reproduces its final state and
/// outcome exactly; the differential harness leans on this to turn a
/// divergent path into a standalone, debuggable repro.
///
/// # Errors
///
/// Fails when the trace and the program disagree (more or fewer branch
/// points than recorded, or an arm index out of range) — which, on a
/// replay of a just-explored path, indicates nondeterminism in the engine
/// or a memory model — or when `max_cmds` runs out.
pub fn replay_path<S: GilState>(
    prog: &Prog,
    entry: &str,
    initial: S,
    trace: &[u32],
    max_cmds: u64,
) -> Result<PathResult<S>, ReplayError> {
    let exec = ExecProg::prepare(prog, None);
    let mut scratch = EvalScratch::new();
    let progress = AtomicU64::new(0);
    // Replay has no deadline or cancellation; the default interrupt never
    // fires.
    let interrupt = Interrupt::default();
    let mut config = Config::entry(entry, initial);
    let mut cmds = 0u64;
    let mut followed: Vec<u32> = Vec::new();
    let mut next = trace.iter().copied();
    loop {
        if cmds >= max_cmds {
            return Err(ReplayError::BudgetExhausted);
        }
        let limit = BLOCK_MAX.min(max_cmds - cmds);
        progress.store(0, Ordering::Relaxed);
        let mut outs = step_block(
            prog,
            &exec,
            config,
            limit,
            &interrupt,
            &progress,
            &mut scratch,
            None,
        );
        cmds += progress.load(Ordering::Relaxed).max(1);
        let pick = if outs.len() > 1 {
            let Some(i) = next.next() else {
                return Err(ReplayError::TraceExhausted { cmds });
            };
            if (i as usize) >= outs.len() {
                return Err(ReplayError::NoSuchArm {
                    index: i,
                    arms: outs.len(),
                });
            }
            followed.push(i);
            i as usize
        } else if outs.is_empty() {
            return Err(ReplayError::DeadEnd { cmds });
        } else {
            0
        };
        match outs.swap_remove(pick) {
            StepOut::Next(c) => config = c,
            StepOut::Done(Final { state, outcome }) => {
                return Ok(PathResult {
                    state,
                    outcome: outcome.into(),
                    cmds,
                    trace: followed,
                });
            }
        }
    }
}

/// Queue shared by the explorer workers (elements are [`FrontierItem`]s —
/// the same worklist unit the serial engine and checkpoints use; branch
/// traces canonically identify paths independently of scheduling, which
/// is what lets the parallel engine return a deterministically ordered
/// result). `in_flight` counts jobs popped but not yet retired; the queue
/// is only known empty-for-good when it is empty *and* nothing is in
/// flight.
struct JobQueue<S: GilState> {
    jobs: VecDeque<FrontierItem<S>>,
    in_flight: usize,
}

/// Stop-cause constants for [`SharedExplorer::stop_cause`]; the first
/// cause to fire wins and attributes the parked pending work.
/// `CAUSE_CHECKPOINT` pauses the round for a stop-the-world frontier
/// snapshot (the run restarts afterwards); `CAUSE_KILLED` is a
/// fault-injected simulated process death.
const CAUSE_NONE: u8 = 0;
const CAUSE_DEADLINE: u8 = 1;
const CAUSE_CANCELLED: u8 = 2;
const CAUSE_CHECKPOINT: u8 = 3;
const CAUSE_KILLED: u8 = 4;

struct SharedExplorer<S: GilState> {
    queue: Mutex<JobQueue<S>>,
    work: Condvar,
    /// Commands claimed so far against `max_total_cmds`.
    total_cmds: AtomicU64,
    /// Finished paths so far (for the `max_paths` stop signal; the
    /// authoritative cap is applied at merge time).
    finished_paths: AtomicUsize,
    /// Set when a global budget is exhausted (or the run is interrupted):
    /// workers park their current job as pending-truncated and drain the
    /// queue the same way.
    stop: AtomicBool,
    /// Why `stop` was raised, when the reason was an interruption rather
    /// than a command budget (one of the `CAUSE_*` constants).
    stop_cause: AtomicU8,
    truncated: AtomicBool,
    dropped_paths: AtomicUsize,
    /// Paths lost to isolated panics, counted by the workers.
    engine_errors: AtomicUsize,
    /// The run deadline, pre-resolved to an instant.
    deadline: Option<Instant>,
    cancel: CancelToken,
    /// When the next periodic checkpoint is due: the first worker past
    /// this instant raises `CAUSE_CHECKPOINT` and the round quiesces so
    /// the main thread can snapshot a consistent frontier.
    checkpoint_at: Option<Instant>,
    /// The run's fault-injection plan, if any.
    faults: Option<Arc<FaultPlan>>,
}

impl<S: GilState> SharedExplorer<S> {
    fn note_finished(&self, cfg: &ExploreConfig) {
        if self.finished_paths.fetch_add(1, Ordering::Relaxed) + 1 >= cfg.max_paths {
            self.stop.store(true, Ordering::Relaxed);
            self.work.notify_all();
        }
    }

    /// Raises the stop flag for an interruption, recording the first cause.
    fn halt(&self, cause: u8) {
        let _ = self.stop_cause.compare_exchange(
            CAUSE_NONE,
            cause,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        // A checkpoint pause resumes afterwards and a kill's pending work
        // survives in the checkpoint file — neither truncates the result.
        if cause == CAUSE_DEADLINE || cause == CAUSE_CANCELLED {
            self.truncated.store(true, Ordering::Relaxed);
        }
        self.stop.store(true, Ordering::Relaxed);
        self.work.notify_all();
    }
}

/// Decrements `in_flight` on drop — *unconditionally*, including when the
/// worker unwinds. Without this, a panicking worker would leave its claim
/// behind and every sibling would wait forever on the condvar.
struct InFlightToken<'a, S: GilState> {
    shared: &'a SharedExplorer<S>,
}

impl<S: GilState> Drop for InFlightToken<'_, S> {
    fn drop(&mut self) {
        let mut q = lock_unpoisoned(&self.shared.queue);
        q.in_flight -= 1;
        if q.in_flight == 0 && q.jobs.is_empty() {
            self.shared.work.notify_all();
        }
    }
}

/// What one worker produced: finished paths and jobs cut off mid-path by a
/// global budget (both tagged with their branch trace for merging), plus
/// the worker thread's own interner delta for exact run attribution.
struct WorkerYield<S: GilState> {
    finished: Vec<(Vec<u32>, PathResult<S>)>,
    cut: Vec<FrontierItem<S>>,
    interner: InternStats,
}

fn explore_worker<S: GilState>(
    prog: &Prog,
    exec: &ExecProg,
    cfg: &ExploreConfig,
    shared: &SharedExplorer<S>,
    sentinel: S,
    worker: u32,
    journal: &Journal,
) -> WorkerYield<S> {
    let interner_before = InternStats::thread_snapshot();
    let mut scratch = EvalScratch::new();
    let progress = AtomicU64::new(0);
    let interrupt = Interrupt::new(shared.deadline, shared.cancel.clone());
    let mut log = journal.worker(worker);
    let mut profile = journal.is_enabled().then(BlockProfile::new);
    let mut finished: Vec<(Vec<u32>, PathResult<S>)> = Vec::new();
    let mut cut: Vec<FrontierItem<S>> = Vec::new();
    // Steps this worker has executed this round. A checkpoint pause is only
    // honored after at least one local step, so even a zero-length interval
    // cannot livelock the restart loop: every round makes progress.
    let mut steps = 0u64;
    loop {
        // Acquire a job, or return once the queue is empty with nothing in
        // flight (no one can produce more work).
        let (mut job, _token) = {
            let mut q = lock_unpoisoned(&shared.queue);
            loop {
                if let Some(j) = q.jobs.pop_back() {
                    q.in_flight += 1;
                    break (j, InFlightToken { shared });
                }
                if q.in_flight == 0 {
                    shared.work.notify_all();
                    drop(q);
                    if profile.is_some() {
                        clear_path_context();
                    }
                    return WorkerYield {
                        finished,
                        cut,
                        interner: InternStats::thread_snapshot().since(&interner_before),
                    };
                }
                q = shared.work.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Run the job depth-first locally: keep one successor, share the
        // rest. This keeps queue traffic proportional to branching, not to
        // path length.
        loop {
            if shared.stop.load(Ordering::Relaxed) {
                cut.push(job);
                break;
            }
            if shared.cancel.is_cancelled() {
                shared.halt(CAUSE_CANCELLED);
                cut.push(job);
                break;
            }
            if shared.deadline.is_some_and(|d| Instant::now() >= d) {
                log.emit_with(|| Event::DeadlineHit {
                    path: job.trace.clone(),
                });
                shared.halt(CAUSE_DEADLINE);
                cut.push(job);
                break;
            }
            if steps > 0 && shared.checkpoint_at.is_some_and(|at| Instant::now() >= at) {
                shared.halt(CAUSE_CHECKPOINT);
                cut.push(job);
                break;
            }
            // One fault point per scheduling step, drawn from the plan's
            // *shared* counter (solver queries draw from the same one). A
            // kill parks the item *before* it is stepped, so the quiesced
            // frontier written by the main thread is exactly what was
            // pending; an injected panic is armed here and fires inside
            // the step's panic guard below.
            let mut inject_panic = false;
            if let Some(plan) = &shared.faults {
                let point = plan.next_point();
                match plan.engine_fault(point) {
                    Some(FaultKind::Kill) => {
                        plan.record(point, FaultKind::Kill);
                        log.emit_with(|| Event::FaultInjected {
                            point,
                            fault: "kill",
                        });
                        shared.halt(CAUSE_KILLED);
                        cut.push(job);
                        break;
                    }
                    Some(FaultKind::PathPanic) => {
                        plan.record(point, FaultKind::PathPanic);
                        log.emit_with(|| Event::FaultInjected {
                            point,
                            fault: "path_panic",
                        });
                        inject_panic = true;
                    }
                    _ => {}
                }
            }
            if job.cmds >= cfg.max_cmds_per_path {
                shared.truncated.store(true, Ordering::Relaxed);
                finished.push((
                    job.trace.clone(),
                    PathResult {
                        state: job.config.state,
                        outcome: ExploreOutcome::Truncated,
                        cmds: job.cmds,
                        trace: job.trace,
                    },
                ));
                shared.note_finished(cfg);
                break;
            }
            // Claim a block of commands against the global budget. The
            // claim is optimistic (`want` commands) and settled to the
            // truth afterwards: a partial grant refunds the un-granted
            // tail immediately, and the block's unconsumed remainder is
            // refunded after it runs — so `total_cmds` always ends equal
            // to commands actually executed. A transiently inflated
            // counter can make a *sibling's* claim fail a few commands
            // early, which is indistinguishable from the budget binding
            // there anyway.
            let want = BLOCK_MAX.min(cfg.max_cmds_per_path - job.cmds);
            let prev = shared.total_cmds.fetch_add(want, Ordering::Relaxed);
            if prev >= cfg.max_total_cmds {
                shared.total_cmds.fetch_sub(want, Ordering::Relaxed);
                shared.truncated.store(true, Ordering::Relaxed);
                shared.stop.store(true, Ordering::Relaxed);
                shared.work.notify_all();
                cut.push(job);
                break;
            }
            let allowed = want.min(cfg.max_total_cmds - prev);
            if allowed < want {
                // Partial grant: refund the tail but do NOT stop — the
                // next claim will fail outright and raise the flag, as
                // the one-command-at-a-time protocol did.
                shared
                    .total_cmds
                    .fetch_sub(want - allowed, Ordering::Relaxed);
            }
            steps += 1;
            let FrontierItem {
                config,
                cmds,
                mut trace,
            } = job;
            progress.store(0, Ordering::Relaxed);
            // Attribute the solver/memory events this step emits to the
            // path being stepped (thread-local per worker).
            if profile.is_some() {
                set_path_context(&trace);
            }
            let caught = {
                let scratch = &mut scratch;
                let progress = &progress;
                let interrupt = &interrupt;
                let prof = profile.as_mut();
                panic_guard::catch(move || {
                    if inject_panic {
                        panic!("injected fault: path panic");
                    }
                    step_block(
                        prog, exec, config, allowed, interrupt, progress, scratch, prof,
                    )
                })
            };
            let consumed = progress.load(Ordering::Relaxed).max(1);
            if consumed < allowed {
                shared
                    .total_cmds
                    .fetch_sub(allowed - consumed, Ordering::Relaxed);
            }
            if let Some(p) = profile.as_mut() {
                for (stack, seg_cmds, micros) in p.drain(progress.load(Ordering::Relaxed)) {
                    log.emit_with(|| Event::ProcTime {
                        path: trace.clone(),
                        stack,
                        cmds: seg_cmds,
                        micros,
                    });
                }
            }
            let outs = match caught {
                Ok(outs) => outs,
                Err(payload) => {
                    shared.engine_errors.fetch_add(1, Ordering::Relaxed);
                    shared.truncated.store(true, Ordering::Relaxed);
                    log.emit_with(|| Event::PanicIsolated {
                        path: trace.clone(),
                        payload: payload.clone(),
                    });
                    if let Ok(state) = panic_guard::catch(|| sentinel.clone()) {
                        finished.push((
                            trace.clone(),
                            PathResult {
                                state,
                                outcome: ExploreOutcome::EngineError {
                                    payload,
                                    trace: trace.clone(),
                                },
                                cmds: cmds + consumed,
                                trace,
                            },
                        ));
                        shared.note_finished(cfg);
                    }
                    break;
                }
            };
            let branching = outs.len() > 1;
            if branching {
                let arms = outs.len() as u32;
                log.emit_with(|| Event::PathForked {
                    parent: trace.clone(),
                    arms,
                });
            }
            let mut continuation: Option<FrontierItem<S>> = None;
            let mut surplus: Vec<FrontierItem<S>> = Vec::new();
            for (i, out) in outs.into_iter().enumerate() {
                let child_trace = if branching {
                    let mut t = trace.clone();
                    t.push(i as u32);
                    t
                } else {
                    std::mem::take(&mut trace)
                };
                match out {
                    StepOut::Next(config) => {
                        let child = FrontierItem {
                            config,
                            cmds: cmds + consumed,
                            trace: child_trace,
                        };
                        if continuation.is_none() {
                            continuation = Some(child);
                        } else {
                            surplus.push(child);
                        }
                    }
                    StepOut::Done(Final { state, outcome }) => {
                        finished.push((
                            child_trace.clone(),
                            PathResult {
                                state,
                                outcome: outcome.into(),
                                cmds: cmds + consumed,
                                trace: child_trace,
                            },
                        ));
                        shared.note_finished(cfg);
                    }
                }
            }
            if !surplus.is_empty() {
                let mut q = lock_unpoisoned(&shared.queue);
                for child in surplus {
                    if cfg.max_pending.is_some_and(|cap| q.jobs.len() >= cap) {
                        shared.dropped_paths.fetch_add(1, Ordering::Relaxed);
                        shared.truncated.store(true, Ordering::Relaxed);
                    } else {
                        q.jobs.push_back(child);
                    }
                }
                drop(q);
                shared.work.notify_all();
            }
            match continuation {
                Some(next) => job = next,
                None => break,
            }
        }
        // `_token` retires the job here (and on any unwind above).
    }
}

/// Explores all paths of `prog` with `cfg.workers` worker threads sharing
/// one worklist (and one solver, via the state's `Arc<Solver>` — its SAT
/// cache is shared across workers).
///
/// Soundness: per §3.2 every explored trace carries its own guarantee, so
/// exploration order — and therefore parallel scheduling — cannot affect
/// which guarantees hold, only the order they are found in. To make the
/// *result* deterministic anyway, every path is tagged with its branch
/// trace and the merged result is sorted in canonical branch order; with
/// budgets that do not bind, the returned path set is identical to the
/// serial engines' (order-normalized).
///
/// Budget semantics match [`explore`]: never more than `max_paths` paths,
/// and work pending when a budget trips is surfaced as
/// [`ExploreOutcome::Truncated`] paths or counted in `dropped_paths`.
/// Deadline expiry and cancellation behave like a budget trip attributed
/// in [`ExploreDiagnostics`]; panics are isolated per-path inside each
/// worker, and a worker dying *outside* that guard is itself captured —
/// its queued jobs are drained as truncated and the death is counted as an
/// engine error instead of aborting the merge.
pub fn explore_parallel<S>(
    prog: &Prog,
    entry: &str,
    initial: S,
    cfg: ExploreConfig,
) -> ExploreResult<S>
where
    S: GilState + Send,
    S::V: Send,
    S::Store: Send,
{
    let sentinel = initial.clone();
    let seeds = VecDeque::from([FrontierItem {
        config: Config::entry(entry, initial),
        cmds: 0,
        trace: Vec::new(),
    }]);
    explore_parallel_frontier(prog, entry, sentinel, seeds, cfg, ResumeBase::default())
}

/// The parallel engine over an explicit starting frontier —
/// [`explore_parallel`] seeds it with the entry configuration,
/// [`explore_resume`] with a restored checkpoint frontier plus the
/// interrupted run's accounting in `base`.
///
/// Periodic checkpoints are *stop-the-world*: the first worker past the
/// interval raises `CAUSE_CHECKPOINT`, every worker parks its current
/// item, the quiesced frontier is snapshotted atomically, and a fresh
/// round restarts from exactly that frontier. Each round's shared atomics
/// start from the previous round's totals, so budgets and accounting are
/// continuous — a paused-and-restarted run is indistinguishable from an
/// uninterrupted one in its result.
fn explore_parallel_frontier<S>(
    prog: &Prog,
    entry: &str,
    sentinel: S,
    seeds: VecDeque<FrontierItem<S>>,
    cfg: ExploreConfig,
    base: ResumeBase,
) -> ExploreResult<S>
where
    S: GilState + Send,
    S::V: Send,
    S::Store: Send,
{
    let workers = cfg.workers.max(1);
    let run_started = Instant::now();
    let deadline = cfg.deadline.map(|d| run_started + d);
    // One compiled program for the whole run: workers share the
    // instruction stream and its inline caches (resolution is idempotent,
    // so racing resolvers store the same value).
    let exec = ExecProg::prepare(prog, cfg.bytecode);
    sentinel.install_interrupt(Interrupt::new(deadline, cfg.cancel.clone()));
    let journal = cfg.journal.clone();
    sentinel.install_journal(journal.clone());
    if let Some(plan) = &cfg.faults {
        sentinel.install_fault_probe(plan.probe(journal.clone()));
    }
    // Summary arming: one shared store (it lives on the shared solver),
    // armed once for the whole worker pool.
    let summaries_on = cfg.summaries.unwrap_or_else(summaries_from_env);
    if summaries_on {
        sentinel.configure_summaries(prog, true);
    }
    let ckpt = cfg.checkpoint.clone();
    let mut next_ckpt = ckpt.as_ref().and_then(|c| c.every).map(|e| run_started + e);
    let unknowns_before = sentinel.unknown_verdicts();
    let reuse_before = sentinel.solver_reuse();
    let summary_before = sentinel.summary_stats();
    // The run's interner traffic is the sum of each worker thread's delta
    // plus this (main) thread's — entry-state construction interns here.
    let main_interner_before = InternStats::thread_snapshot();
    let metrics_before = registry().snapshot();
    let mut log = journal.worker(0);
    log.emit_with(|| Event::PathStarted { path: Vec::new() });
    // Diagnostics as they stand mid-run (for checkpoints): the resumed-from
    // accounting plus this run's counters and solver deltas.
    let diag_now = |run_errors: usize| {
        let mut d = base.diagnostics;
        d.engine_errors = base.diagnostics.engine_errors + run_errors;
        d.unknown_verdicts = sentinel.unknown_verdicts().saturating_sub(unknowns_before)
            + base.diagnostics.unknown_verdicts;
        d.incremental_hits = sentinel.solver_reuse().saturating_sub(reuse_before)
            + base.diagnostics.incremental_hits;
        let summ = sentinel.summary_stats();
        d.summaries_recorded =
            summ.0.saturating_sub(summary_before.0) + base.diagnostics.summaries_recorded;
        d.summaries_applied =
            summ.1.saturating_sub(summary_before.1) + base.diagnostics.summaries_applied;
        d
    };

    // Accounting carried across checkpoint rounds (seeded from `base` on a
    // resume): (total_cmds, truncated, dropped_paths, engine_errors).
    let mut carried = (base.total_cmds, base.truncated, base.dropped_paths, 0usize);
    let mut finished: Vec<(Vec<u32>, PathResult<S>)> = Vec::new();
    let mut pending: Vec<FrontierItem<S>> = Vec::new();
    let mut worklist = seeds;
    let mut crashed_workers = 0usize;
    let mut interner = InternStats::default();
    // `GILLIAN_LIVE` sink, owned by the main thread; each round lends it
    // to a sampler thread that polls the shared counters.
    let mut live = LiveSink::from_env();
    let cause = loop {
        let sampler_stop = AtomicBool::new(false);
        let shared = SharedExplorer {
            queue: Mutex::new(JobQueue {
                jobs: std::mem::take(&mut worklist),
                in_flight: 0,
            }),
            work: Condvar::new(),
            total_cmds: AtomicU64::new(carried.0),
            finished_paths: AtomicUsize::new(finished.len()),
            stop: AtomicBool::new(false),
            stop_cause: AtomicU8::new(CAUSE_NONE),
            truncated: AtomicBool::new(carried.1),
            dropped_paths: AtomicUsize::new(carried.2),
            engine_errors: AtomicUsize::new(carried.3),
            deadline,
            cancel: cfg.cancel.clone(),
            checkpoint_at: next_ckpt,
            faults: cfg.faults.clone(),
        };
        let yields: Vec<Result<WorkerYield<S>, String>> = std::thread::scope(|scope| {
            let cfg = &cfg;
            let shared = &shared;
            let journal = &journal;
            let exec = &exec;
            // Live sampler: one thread per round polling the shared
            // counters at the frame interval, parked once the workers
            // retire. Frontier size and depth come from a brief queue
            // lock; everything else is relaxed atomics.
            if let Some(l) = live.as_mut() {
                let stop = &sampler_stop;
                scope.spawn(move || {
                    let nap = l.every().min(Duration::from_millis(50));
                    loop {
                        let (pending_now, depth) = {
                            let q = lock_unpoisoned(&shared.queue);
                            (
                                (q.jobs.len() + q.in_flight) as u64,
                                q.jobs.back().map_or(0, |j| j.trace.len() as u32),
                            )
                        };
                        l.tick(&LiveStats {
                            paths_finished: shared.finished_paths.load(Ordering::Relaxed) as u64,
                            pending: pending_now,
                            depth,
                            cmds: shared.total_cmds.load(Ordering::Relaxed),
                            workers: workers as u32,
                        });
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        std::thread::sleep(nap);
                    }
                });
            }
            // All per-worker sentinels are cloned *before* the first spawn:
            // once a worker runs it may poison the state (e.g. a memory whose
            // `Clone` panics after a fault), and an unguarded clone racing
            // with it would kill the whole run instead of one worker.
            let sentinels: Vec<S> = (0..workers).map(|_| sentinel.clone()).collect();
            let handles: Vec<_> = sentinels
                .into_iter()
                .enumerate()
                .map(|(i, worker_sentinel)| {
                    // Worker ids start at 1; id 0 is the merge (main) thread.
                    let worker = (i + 1) as u32;
                    scope.spawn(move || {
                        panic_guard::catch(|| {
                            explore_worker(
                                prog,
                                exec,
                                cfg,
                                shared,
                                worker_sentinel,
                                worker,
                                journal,
                            )
                        })
                    })
                })
                .collect();
            let yields = handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("explorer worker died outside capture".to_string()))
                })
                .collect();
            sampler_stop.store(true, Ordering::Relaxed);
            yields
        });

        for y in yields {
            match y {
                Ok(wy) => {
                    finished.extend(wy.finished);
                    pending.extend(wy.cut);
                    interner.mints += wy.interner.mints;
                    interner.hits += wy.interner.hits;
                }
                // A crashed worker's thread-local interner delta died with
                // it; its traffic is simply unattributed, and its local
                // paths died too — it is counted as an engine error below.
                Err(_payload) => crashed_workers += 1,
            }
        }
        pending.extend(lock_unpoisoned(&shared.queue).jobs.drain(..));
        carried = (
            shared.total_cmds.load(Ordering::Relaxed),
            shared.truncated.load(Ordering::Relaxed),
            shared.dropped_paths.load(Ordering::Relaxed),
            shared.engine_errors.load(Ordering::Relaxed),
        );
        let cause = shared.stop_cause.load(Ordering::Relaxed);
        if cause != CAUSE_CHECKPOINT || pending.is_empty() {
            break cause;
        }
        // Interval checkpoint: every worker is parked, so sorting and
        // writing here sees a consistent, canonical frontier; the next
        // round then resumes from exactly this frontier.
        finished.sort_by(|a, b| a.0.cmp(&b.0));
        pending.sort_by(|a, b| a.trace.cmp(&b.trace));
        if let Some(c) = ckpt.as_ref() {
            let mut snap = ExploreResult::empty();
            snap.total_cmds = carried.0;
            snap.truncated = carried.1;
            snap.dropped_paths = carried.2;
            write_frontier_checkpoint(
                c,
                &cfg,
                entry,
                pending.iter(),
                &snap,
                yield_summaries(&finished),
                diag_now(carried.3 + crashed_workers),
                &mut log,
            );
            next_ckpt = c.every.map(|e| Instant::now() + e);
        }
        worklist = pending.drain(..).collect();
    };

    // Deterministic merge: canonical branch order, finished paths first,
    // then budget-cut pending work — mirroring the serial engine's
    // "explore, then drain" shape. A crashed worker contributes no paths
    // (its local results died with it) but is counted as an engine error,
    // and any jobs left on the shared queue are drained as truncated.
    finished.sort_by(|a, b| a.0.cmp(&b.0));
    pending.sort_by(|a, b| a.trace.cmp(&b.trace));
    let mut result = ExploreResult::empty();
    result.total_cmds = carried.0;
    result.truncated = carried.1 || crashed_workers > 0;
    result.dropped_paths = carried.2;
    result.diagnostics.engine_errors = carried.3 + crashed_workers;
    let killed = cause == CAUSE_KILLED;
    // Final checkpoint: always on a kill (that *is* the crash being
    // simulated), and on deadline/cancel when configured — written before
    // pending work is drained, so the file holds the true frontier.
    let mut frontier_checkpointed = false;
    if let Some(c) = ckpt.as_ref() {
        let wanted = killed
            || match cause {
                CAUSE_DEADLINE => c.on_deadline,
                CAUSE_CANCELLED => c.on_cancel,
                _ => false,
            };
        if wanted {
            let mut snap = ExploreResult::empty();
            snap.total_cmds = result.total_cmds;
            snap.truncated = result.truncated;
            snap.dropped_paths = result.dropped_paths;
            frontier_checkpointed = write_frontier_checkpoint(
                c,
                &cfg,
                entry,
                pending.iter(),
                &snap,
                yield_summaries(&finished),
                diag_now(carried.3 + crashed_workers),
                &mut log,
            );
        }
    }
    result.killed = killed;
    if killed && frontier_checkpointed {
        // A killed run mimics process death: its pending work survives
        // only in the checkpoint, so it is *not* drained into truncated
        // paths here (resume-equivalence depends on it appearing exactly
        // once — in the resumed run).
        pending.clear();
    }
    // `PathFinished` is journaled here, at merge — not by the workers —
    // so exactly the *recorded* paths (those surviving the `max_paths`
    // cap) get a finish event, keeping the trace consistent with the
    // result for any scheduling.
    let mut traces: Vec<Vec<u32>> = Vec::new();
    for (trace, path) in finished {
        let kind = path.outcome.kind();
        let cmds = path.cmds;
        if result.record(cfg.max_paths, path) {
            log.emit_with(|| Event::PathFinished {
                path: trace.clone(),
                outcome: kind,
                cmds,
            });
            traces.push(trace);
        }
    }
    for FrontierItem {
        config,
        cmds,
        trace,
    } in pending
    {
        result.truncated = true;
        match cause {
            CAUSE_DEADLINE => result.diagnostics.deadline_hits += 1,
            CAUSE_CANCELLED => result.diagnostics.cancellations += 1,
            _ => {}
        }
        if result.record(
            cfg.max_paths,
            PathResult {
                state: config.state,
                outcome: ExploreOutcome::Truncated,
                cmds,
                trace: trace.clone(),
            },
        ) {
            log.emit_with(|| Event::PathFinished {
                path: trace.clone(),
                outcome: "truncated",
                cmds,
            });
            traces.push(trace);
        }
    }
    if let Some(l) = live.as_mut() {
        l.finish(&LiveStats {
            paths_finished: result.paths.len() as u64,
            pending: 0,
            depth: 0,
            cmds: result.total_cmds,
            workers: workers as u32,
        });
    }
    sentinel.clear_interrupt();
    result.diagnostics.unknown_verdicts =
        sentinel.unknown_verdicts().saturating_sub(unknowns_before)
            + base.diagnostics.unknown_verdicts;
    result.diagnostics.incremental_hits =
        sentinel.solver_reuse().saturating_sub(reuse_before) + base.diagnostics.incremental_hits;
    let summary_after = sentinel.summary_stats();
    result.diagnostics.summaries_recorded =
        summary_after.0.saturating_sub(summary_before.0) + base.diagnostics.summaries_recorded;
    result.diagnostics.summaries_applied =
        summary_after.1.saturating_sub(summary_before.1) + base.diagnostics.summaries_applied;
    result.diagnostics.deadline_hits += base.diagnostics.deadline_hits;
    result.diagnostics.cancellations += base.diagnostics.cancellations;
    result.diagnostics.engine_errors += base.diagnostics.engine_errors;
    let main_delta = InternStats::thread_snapshot().since(&main_interner_before);
    interner.mints += main_delta.mints;
    interner.hits += main_delta.hits;
    interner.live = InternStats::snapshot().live;
    result.diagnostics.interner = interner;
    if summaries_on {
        sentinel.configure_summaries(prog, false);
    }
    if cfg.faults.is_some() {
        sentinel.clear_fault_probe();
    }
    drop(log);
    finish_report(
        &mut result,
        &journal,
        &traces,
        &metrics_before,
        run_started,
        workers as u32,
    );
    sentinel.clear_journal();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{SymBranch, SymbolicMemory};
    use crate::symbolic::SymbolicState;
    use gillian_gil::{Cmd, Expr, Proc};
    use gillian_solver::{PathCondition, Solver};
    use std::sync::Arc;

    #[derive(Clone, Debug, Default)]
    struct NoMem;
    impl SymbolicMemory for NoMem {
        fn execute_action(
            &self,
            name: &str,
            _: &Expr,
            _: &PathCondition,
            _: &Solver,
        ) -> Vec<SymBranch<Self>> {
            vec![SymBranch {
                memory: NoMem,
                outcome: Err(Expr::str(format!("no actions ({name})"))),
                constraint: Expr::tt(),
            }]
        }
    }

    type St = SymbolicState<NoMem>;

    fn sym_state() -> St {
        SymbolicState::new(Arc::new(Solver::optimized()))
    }

    /// main() { x := iSym; ifgoto x < 10 ret; fail "big"; ret: return x }
    fn branching_prog() -> Prog {
        Prog::from_procs([Proc::new(
            "main",
            [],
            vec![
                Cmd::isym("x", 0),
                Cmd::IfGoto(Expr::pvar("x").lt(Expr::int(10)), 3),
                Cmd::Fail(Expr::str("big")),
                Cmd::Return(Expr::pvar("x")),
            ],
        )])
    }

    #[test]
    fn symbolic_exploration_covers_both_branches() {
        let r = explore(
            &branching_prog(),
            "main",
            sym_state(),
            ExploreConfig::default(),
        );
        assert_eq!(r.paths.len(), 2);
        assert_eq!(r.errors().count(), 1);
        assert_eq!(r.normal().count(), 1);
        assert!(!r.truncated);
        assert!(r.total_cmds >= 4);
        assert!(r.diagnostics.is_clean());
        assert!(!r.bounded());
    }

    #[test]
    fn path_results_carry_their_branch_trace() {
        let r = explore(
            &branching_prog(),
            "main",
            sym_state(),
            ExploreConfig::default(),
        );
        let traces: Vec<&[u32]> = r.paths.iter().map(|p| p.trace.as_slice()).collect();
        assert_eq!(traces.len(), 2);
        assert_ne!(traces[0], traces[1], "distinct paths, distinct traces");
        assert!(traces.iter().all(|t| t.len() == 1), "one branch point");
    }

    #[test]
    fn replay_reproduces_each_explored_path() {
        let solver = Arc::new(Solver::optimized());
        let r = explore(
            &branching_prog(),
            "main",
            SymbolicState::<NoMem>::new(solver.clone()),
            ExploreConfig::default(),
        );
        assert_eq!(r.paths.len(), 2);
        for path in &r.paths {
            let replayed = replay_path(
                &branching_prog(),
                "main",
                SymbolicState::<NoMem>::new(solver.clone()),
                &path.trace,
                10_000,
            )
            .expect("replay follows a just-explored trace");
            assert_eq!(replayed.outcome, path.outcome);
            assert_eq!(replayed.trace, path.trace);
            assert_eq!(replayed.state.pc, path.state.pc);
        }
    }

    #[test]
    fn replay_rejects_trace_program_disagreements() {
        let solver = Arc::new(Solver::optimized());
        // Arm index beyond what the single ifgoto can produce.
        let err = replay_path(
            &branching_prog(),
            "main",
            SymbolicState::<NoMem>::new(solver.clone()),
            &[7],
            10_000,
        )
        .unwrap_err();
        assert!(matches!(err, ReplayError::NoSuchArm { index: 7, .. }));
        // Too few entries for the branch points along the path.
        let err = replay_path(
            &branching_prog(),
            "main",
            SymbolicState::<NoMem>::new(solver),
            &[],
            10_000,
        )
        .unwrap_err();
        assert!(matches!(err, ReplayError::TraceExhausted { .. }));
    }

    #[test]
    fn loops_are_unrolled_up_to_the_bound() {
        // main() { x := iSym; loop: ifgoto x < 1000000 body else done... }
        // An infinite symbolic loop must be truncated, not hang.
        let prog = Prog::from_procs([Proc::new(
            "main",
            [],
            vec![
                Cmd::assign("x", Expr::int(0)),
                Cmd::assign("x", Expr::pvar("x").add(Expr::int(1))),
                Cmd::Goto(1),
            ],
        )]);
        let cfg = ExploreConfig {
            max_cmds_per_path: 100,
            ..Default::default()
        };
        let r = explore(&prog, "main", sym_state(), cfg);
        assert!(r.truncated);
        assert!(matches!(r.paths[0].outcome, ExploreOutcome::Truncated));
    }

    #[test]
    fn global_budget_truncates() {
        let cfg = ExploreConfig {
            max_total_cmds: 2,
            ..Default::default()
        };
        let r = explore(&branching_prog(), "main", sym_state(), cfg);
        assert!(r.truncated);
    }

    #[test]
    fn global_budget_break_surfaces_pending_paths() {
        // With a 2-command budget the ifgoto has just been expanded into
        // two pending configurations; neither may be silently lost.
        let cfg = ExploreConfig {
            max_total_cmds: 2,
            ..Default::default()
        };
        let r = explore(&branching_prog(), "main", sym_state(), cfg);
        assert_eq!(r.total_cmds, 2);
        assert_eq!(r.paths.len(), 2, "both pending branches surface");
        assert!(r
            .paths
            .iter()
            .all(|p| p.outcome == ExploreOutcome::Truncated));
        assert_eq!(r.dropped_paths, 0);
        // Command-budget truncation is not an interruption.
        assert_eq!(r.diagnostics.deadline_hits, 0);
        assert_eq!(r.diagnostics.cancellations, 0);
    }

    /// A memory whose single action fails on *two* branches at once, so one
    /// step can finish several paths — the overflow case for `max_paths`.
    #[derive(Clone, Debug, Default)]
    struct TwoErrMem;
    impl SymbolicMemory for TwoErrMem {
        fn execute_action(
            &self,
            _: &str,
            _: &Expr,
            _: &PathCondition,
            _: &Solver,
        ) -> Vec<SymBranch<Self>> {
            vec![
                SymBranch::err_if(TwoErrMem, Expr::str("first"), Expr::tt()),
                SymBranch::err_if(TwoErrMem, Expr::str("second"), Expr::tt()),
            ]
        }
    }

    #[test]
    fn max_paths_is_never_exceeded() {
        let prog = Prog::from_procs([Proc::new(
            "main",
            [],
            vec![Cmd::Action {
                lhs: "r".into(),
                name: "boom".into(),
                arg: Expr::int(0),
            }],
        )]);
        let cfg = ExploreConfig {
            max_paths: 1,
            ..Default::default()
        };
        let r = explore(
            &prog,
            "main",
            SymbolicState::<TwoErrMem>::new(Arc::new(Solver::optimized())),
            cfg,
        );
        assert_eq!(r.paths.len(), 1, "the cap binds even within one step");
        assert_eq!(r.dropped_paths, 1, "the overflow path is accounted for");
        assert!(r.truncated);
    }

    #[test]
    fn vanish_paths_are_collected_but_harmless() {
        let prog = Prog::from_procs([Proc::new(
            "main",
            [],
            vec![
                Cmd::isym("x", 0),
                // assume x = 5 (compiled form: ifgoto (x=5) 3; vanish)
                Cmd::IfGoto(Expr::pvar("x").eq(Expr::int(5)), 3),
                Cmd::Vanish,
                Cmd::Return(Expr::pvar("x")),
            ],
        )]);
        let r = explore(&prog, "main", sym_state(), ExploreConfig::default());
        let vanished = r
            .paths
            .iter()
            .filter(|p| p.outcome == ExploreOutcome::Vanished)
            .count();
        assert_eq!(vanished, 1);
        assert_eq!(r.normal().count(), 1);
        // The surviving path's pc knows x = 5.
        let normal = r.normal().next().unwrap();
        let pc = &normal.state.pc;
        assert!(
            pc.conjuncts().iter().any(|c| c.to_string().contains("= 5")),
            "pc {pc} should pin x to 5"
        );
    }
}

#[cfg(test)]
mod strategy_tests {
    use super::*;
    use crate::memory::{SymBranch, SymbolicMemory};
    use crate::symbolic::SymbolicState;
    use gillian_gil::{Cmd, Expr, Proc, Prog};
    use gillian_solver::{PathCondition, Solver};
    use std::sync::Arc;

    #[derive(Clone, Debug, Default)]
    struct NoMem;
    impl SymbolicMemory for NoMem {
        fn execute_action(
            &self,
            _: &str,
            arg: &Expr,
            _: &PathCondition,
            _: &Solver,
        ) -> Vec<SymBranch<Self>> {
            vec![SymBranch::ok(NoMem, arg.clone())]
        }
    }

    /// Three sequential symbolic branches → eight paths.
    fn wide_prog() -> Prog {
        let mut body = Vec::new();
        for i in 0..3u32 {
            let x = format!("x{i}");
            body.push(Cmd::isym(&x, i));
            let at = body.len();
            body.push(Cmd::IfGoto(Expr::pvar(&x).eq(Expr::int(0)), at + 1));
        }
        body.push(Cmd::Return(Expr::int(0)));
        Prog::from_procs([Proc::new("main", [], body)])
    }

    fn state() -> SymbolicState<NoMem> {
        SymbolicState::new(Arc::new(Solver::optimized()))
    }

    fn sorted_pcs(r: &ExploreResult<SymbolicState<NoMem>>) -> Vec<String> {
        let mut pcs: Vec<String> = r.paths.iter().map(|p| p.state.pc.to_string()).collect();
        pcs.sort();
        pcs
    }

    #[test]
    fn dfs_and_bfs_find_the_same_paths() {
        let dfs = explore(&wide_prog(), "main", state(), ExploreConfig::default());
        let bfs = explore(
            &wide_prog(),
            "main",
            state(),
            ExploreConfig {
                strategy: SearchStrategy::Bfs,
                ..Default::default()
            },
        );
        assert_eq!(dfs.paths.len(), 8);
        assert_eq!(bfs.paths.len(), 8);
        assert_eq!(dfs.total_cmds, bfs.total_cmds);
        assert_eq!(
            sorted_pcs(&dfs),
            sorted_pcs(&bfs),
            "same path set, different order"
        );
    }

    #[test]
    fn parallel_finds_the_same_paths_for_any_worker_count() {
        let serial = explore(&wide_prog(), "main", state(), ExploreConfig::default());
        for workers in 1..=4 {
            let par = explore_parallel(
                &wide_prog(),
                "main",
                state(),
                ExploreConfig {
                    workers,
                    ..Default::default()
                },
            );
            assert_eq!(par.paths.len(), 8, "workers={workers}");
            assert!(!par.truncated, "workers={workers}");
            assert_eq!(par.total_cmds, serial.total_cmds, "workers={workers}");
            assert_eq!(
                sorted_pcs(&par),
                sorted_pcs(&serial),
                "workers={workers}: same order-normalized path set"
            );
            assert_eq!(
                par.errors().count(),
                serial.errors().count(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn engines_agree_with_resilience_fields_armed() {
        // A generous deadline and a live (uncancelled) token must be
        // invisible: same order-normalized path set, clean diagnostics.
        let cfg = ExploreConfig::default().with_deadline(std::time::Duration::from_secs(3600));
        let serial = explore(&wide_prog(), "main", state(), cfg.clone());
        assert!(serial.diagnostics.is_clean());
        assert!(!serial.bounded());
        for workers in [2, 4] {
            let par = explore_parallel(
                &wide_prog(),
                "main",
                state(),
                ExploreConfig {
                    workers,
                    ..cfg.clone()
                },
            );
            assert_eq!(sorted_pcs(&par), sorted_pcs(&serial), "workers={workers}");
            assert!(par.diagnostics.is_clean(), "workers={workers}");
            assert!(!par.bounded(), "workers={workers}");
        }
    }

    #[test]
    fn parallel_result_order_is_deterministic() {
        let once = explore_parallel(
            &wide_prog(),
            "main",
            state(),
            ExploreConfig {
                workers: 4,
                ..Default::default()
            },
        );
        let reference: Vec<String> = once.paths.iter().map(|p| p.state.pc.to_string()).collect();
        for _ in 0..5 {
            let again = explore_parallel(
                &wide_prog(),
                "main",
                state(),
                ExploreConfig {
                    workers: 4,
                    ..Default::default()
                },
            );
            let pcs: Vec<String> = again.paths.iter().map(|p| p.state.pc.to_string()).collect();
            assert_eq!(pcs, reference, "merge order must not depend on scheduling");
        }
    }

    #[test]
    fn parallel_respects_max_paths_and_reports_the_rest() {
        let r = explore_parallel(
            &wide_prog(),
            "main",
            state(),
            ExploreConfig {
                workers: 4,
                max_paths: 3,
                ..Default::default()
            },
        );
        assert!(r.paths.len() <= 3);
        assert!(r.truncated);
        // Everything the program could produce is either a path or counted
        // dropped: nothing vanishes silently.
        assert!(r.paths.len() + r.dropped_paths >= 4);
    }

    #[test]
    fn parallel_global_budget_truncates_without_losing_work() {
        let r = explore_parallel(
            &wide_prog(),
            "main",
            state(),
            ExploreConfig {
                workers: 2,
                max_total_cmds: 3,
                ..Default::default()
            },
        );
        assert!(r.truncated);
        assert!(r.total_cmds <= 3);
        assert!(
            r.paths
                .iter()
                .any(|p| p.outcome == ExploreOutcome::Truncated),
            "cut-off work surfaces as truncated paths"
        );
    }

    #[test]
    fn path_dropping_bounds_the_frontier_and_is_reported() {
        let r = explore(
            &wide_prog(),
            "main",
            state(),
            ExploreConfig {
                max_pending: Some(1),
                ..Default::default()
            },
        );
        assert!(r.dropped_paths > 0, "branches beyond the cap are dropped");
        assert!(r.truncated);
        // The surviving paths are still complete, valid traces.
        assert!(r
            .paths
            .iter()
            .all(|p| p.outcome != ExploreOutcome::Truncated));
        assert!(r.paths.len() + r.dropped_paths >= 4);
    }
}

#[cfg(test)]
mod resilience_tests {
    use super::*;
    use crate::memory::{SymBranch, SymbolicMemory};
    use crate::symbolic::SymbolicState;
    use gillian_gil::{Cmd, Expr, Proc, Prog};
    use gillian_solver::{PathCondition, Solver};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Duration;

    /// Echoes its argument, except the `boom` action panics.
    #[derive(Clone, Debug, Default)]
    struct BoomMem;
    impl SymbolicMemory for BoomMem {
        fn execute_action(
            &self,
            name: &str,
            arg: &Expr,
            _: &PathCondition,
            _: &Solver,
        ) -> Vec<SymBranch<Self>> {
            if name == "boom" {
                panic!("boom action");
            }
            vec![SymBranch::ok(BoomMem, arg.clone())]
        }
    }

    fn state<M: SymbolicMemory>() -> SymbolicState<M> {
        SymbolicState::new(Arc::new(Solver::optimized()))
    }

    /// x := iSym; ifgoto (x < 0) boom-branch; return 0 — one healthy
    /// sibling, one path that panics inside the memory model.
    fn boom_on_negative() -> Prog {
        Prog::from_procs([Proc::new(
            "main",
            [],
            vec![
                Cmd::isym("x", 0),
                Cmd::IfGoto(Expr::pvar("x").lt(Expr::int(0)), 3),
                Cmd::Return(Expr::int(0)),
                Cmd::Action {
                    lhs: "r".into(),
                    name: "boom".into(),
                    arg: Expr::int(0),
                },
                Cmd::Return(Expr::pvar("r")),
            ],
        )])
    }

    #[test]
    fn serial_panic_is_isolated_to_its_path() {
        let r = explore(
            &boom_on_negative(),
            "main",
            state::<BoomMem>(),
            ExploreConfig::default(),
        );
        assert_eq!(r.diagnostics.engine_errors, 1);
        assert!(r.truncated && r.bounded());
        assert_eq!(r.normal().count(), 1, "the sibling path finished");
        let (payload, trace) = r
            .paths
            .iter()
            .find_map(|p| match &p.outcome {
                ExploreOutcome::EngineError { payload, trace } => {
                    Some((payload.clone(), trace.clone()))
                }
                _ => None,
            })
            .expect("an EngineError path");
        assert!(payload.contains("boom action"), "payload: {payload}");
        assert!(
            payload.contains("explore.rs"),
            "payload should carry the source location: {payload}"
        );
        assert_eq!(trace, vec![0], "the true branch of the single split died");
    }

    #[test]
    fn parallel_panic_is_isolated_to_its_path() {
        for workers in [2, 4] {
            let r = explore_parallel(
                &boom_on_negative(),
                "main",
                state::<BoomMem>(),
                ExploreConfig {
                    workers,
                    ..Default::default()
                },
            );
            assert_eq!(r.diagnostics.engine_errors, 1, "workers={workers}");
            assert_eq!(r.normal().count(), 1, "workers={workers}");
            assert_eq!(r.engine_errors().count(), 1, "workers={workers}");
            assert!(r.truncated, "workers={workers}");
        }
    }

    #[test]
    fn pre_expired_deadline_parks_all_work() {
        let cfg = ExploreConfig::default().with_deadline(Duration::ZERO);
        let r = explore(&boom_on_negative(), "main", state::<BoomMem>(), cfg.clone());
        assert_eq!(r.total_cmds, 0, "nothing ran");
        assert_eq!(r.paths.len(), 1, "the entry configuration is parked");
        assert_eq!(r.paths[0].outcome, ExploreOutcome::Truncated);
        assert_eq!(r.diagnostics.deadline_hits, 1);
        assert!(r.truncated && r.bounded());

        let par = explore_parallel(
            &boom_on_negative(),
            "main",
            state::<BoomMem>(),
            ExploreConfig { workers: 2, ..cfg },
        );
        assert_eq!(par.total_cmds, 0);
        assert_eq!(par.diagnostics.deadline_hits, 1);
        assert!(par.truncated);
    }

    #[test]
    fn cancellation_parks_all_work() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let cfg = ExploreConfig {
            cancel: cancel.clone(),
            ..Default::default()
        };
        let r = explore(&boom_on_negative(), "main", state::<BoomMem>(), cfg.clone());
        assert_eq!(r.total_cmds, 0);
        assert_eq!(r.diagnostics.cancellations, 1);
        assert!(r.truncated);

        let par = explore_parallel(
            &boom_on_negative(),
            "main",
            state::<BoomMem>(),
            ExploreConfig { workers: 2, ..cfg },
        );
        assert_eq!(par.total_cmds, 0);
        assert_eq!(par.diagnostics.cancellations, 1);
        assert!(par.truncated);
    }

    /// A memory whose `boom` action arms a flag and panics; once armed,
    /// *cloning* the memory panics too. This poisons even the engine's
    /// sentinel-clone fallback, proving a hostile `Clone` cannot kill a
    /// run either — the path is counted, with no state to report.
    #[derive(Debug, Default)]
    struct CloneBomb {
        armed: Arc<AtomicBool>,
    }
    impl Clone for CloneBomb {
        fn clone(&self) -> Self {
            if self.armed.load(Ordering::Relaxed) {
                panic!("clone after arm");
            }
            CloneBomb {
                armed: self.armed.clone(),
            }
        }
    }
    impl SymbolicMemory for CloneBomb {
        fn execute_action(
            &self,
            name: &str,
            arg: &Expr,
            _: &PathCondition,
            _: &Solver,
        ) -> Vec<SymBranch<Self>> {
            if name == "boom" {
                self.armed.store(true, Ordering::Relaxed);
                panic!("armed boom");
            }
            vec![SymBranch::ok(self.clone(), arg.clone())]
        }
    }

    #[test]
    fn panicking_clone_cannot_kill_the_run() {
        let prog = Prog::from_procs([Proc::new(
            "main",
            [],
            vec![
                Cmd::Action {
                    lhs: "r".into(),
                    name: "boom".into(),
                    arg: Expr::int(0),
                },
                Cmd::Return(Expr::pvar("r")),
            ],
        )]);
        let r = explore(
            &prog,
            "main",
            state::<CloneBomb>(),
            ExploreConfig::default(),
        );
        assert_eq!(r.diagnostics.engine_errors, 1);
        assert!(r.truncated);
        assert!(r.paths.is_empty(), "no state survived to report");

        let par = explore_parallel(
            &prog,
            "main",
            state::<CloneBomb>(),
            ExploreConfig {
                workers: 2,
                ..Default::default()
            },
        );
        assert!(par.diagnostics.engine_errors >= 1);
        assert!(par.truncated);
    }
}
