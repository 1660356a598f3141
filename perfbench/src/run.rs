//! Building a workload's programs and running its symbolic tests.
//!
//! A test runs the way `gillian_core::testing::run_test_with_replay`
//! runs it — explore, model every error path, replay each model
//! concretely — with the three steps called separately so each can be
//! timed from outside: `explore_with` is the explore span, model search
//! plus concrete replay is the replay span.

use crate::gen::{generate, Expect, GenWorkload, Lang};
use crate::wrap::{sat_micros_sum, MemTally, Traced};
use gillian_core::explore::{explore_with, ExploreConfig};
use gillian_core::memory::{ConcreteMemory, SymbolicMemory};
use gillian_core::testing::{replay_concrete, script_from_model, ReplayStatus};
use gillian_core::SymbolicState;
use gillian_gil::Prog;
use gillian_solver::{Solver, SolverConfig};
use gillian_telemetry::{names, registry, HistogramSnapshot, Journal, MetricsSnapshot};
use std::sync::Arc;
use std::time::Instant;

/// The exploration configuration every test runs with: the engine's
/// shipped defaults, with every setting that the environment could
/// otherwise override written out.
pub fn explore_config(workers: usize) -> ExploreConfig {
    ExploreConfig {
        workers,
        journal: Journal::disabled(),
        bytecode: Some(true),
        summaries: Some(false),
        ..ExploreConfig::default()
    }
}

/// `BENCH_*` variables read by the repository's `gillian-bench` helpers.
/// Other `BENCH_*` names belong to whatever launches the run and change
/// nothing measured, so they are left alone.
const BENCH_OVERRIDES: [&str; 6] = [
    "BENCH_REPEAT",
    "BENCH_REPORT",
    "BENCH_REPR_BASELINE",
    "BENCH_REPR_OUT",
    "BENCH_SMOKE_STRICT",
    "BENCH_TELEMETRY_GATE",
];

/// The environment variables among `names` that would change what is
/// measured: every `GILLIAN_*` variable (the library reads several:
/// backend, summaries, journal sinks, live feed, trace capacity) and the
/// `BENCH_*` ones the `gillian-bench` helpers read.
pub fn config_overrides(names: impl IntoIterator<Item = String>) -> Vec<String> {
    let mut set: Vec<String> = names
        .into_iter()
        .filter(|k| k.starts_with("GILLIAN_") || BENCH_OVERRIDES.contains(&k.as_str()))
        .collect();
    set.sort();
    set
}

/// The solver configuration every test runs with (the shipped default).
pub fn solver_config() -> SolverConfig {
    SolverConfig::optimized()
}

/// Wall time of each set-up stage, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Generating the guest sources from the seed.
    pub generate_s: f64,
    /// Parsing the sources.
    pub parse_s: f64,
    /// Lowering the parsed programs to GIL.
    pub lower_s: f64,
    /// Compiling every GIL procedure to bytecode.
    pub bytecode_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.generate_s + self.parse_s + self.lower_s + self.bytecode_s
    }
}

/// A workload ready to run: its generated description and its programs,
/// compiled to bytecode.
pub struct Prepared {
    /// The generated workload.
    pub gen: GenWorkload,
    /// One GIL program per source.
    pub progs: Vec<Prog>,
}

impl Prepared {
    /// Static GIL size: commands over every program.
    pub fn gil_cmds(&self) -> usize {
        self.progs.iter().map(Prog::cmd_count).sum()
    }
}

enum Parsed {
    Js(gillian_js::ast::Module),
    C(gillian_c::ast::CModule),
    While(gillian_while::ast::Module),
}

fn parse(lang: Lang, src: &str) -> Result<Parsed, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    Ok(match lang {
        Lang::Js => Parsed::Js(gillian_js::parse_module(src).map_err(|e| err(&e))?),
        Lang::C => Parsed::C(gillian_c::parse_unit(src).map_err(|e| err(&e))?),
        Lang::While => Parsed::While(gillian_while::parse_program(src).map_err(|e| err(&e))?),
    })
}

fn lower(parsed: &Parsed) -> Result<Prog, String> {
    Ok(match parsed {
        Parsed::Js(m) => gillian_js::compile_module(m),
        Parsed::C(m) => gillian_c::compile_unit(m).map_err(|e| e.to_string())?,
        Parsed::While(m) => gillian_while::compile_program(m),
    })
}

/// Generates, parses, lowers and compiles workload `name` for `seed`.
///
/// # Errors
///
/// An unknown workload name, or generated source that fails to parse
/// or compile.
pub fn prepare(name: &str, seed: u64) -> Result<(Prepared, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let gen = generate(name, seed).ok_or_else(|| format!("unknown workload `{name}`"))?;
    times.generate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let parsed = gen
        .sources
        .iter()
        .map(|src| parse(gen.lang, src))
        .collect::<Result<Vec<_>, _>>()?;
    times.parse_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let progs = parsed.iter().map(lower).collect::<Result<Vec<_>, _>>()?;
    times.lower_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    for prog in &progs {
        let code = prog.bytecode();
        for pid in 0..prog.len() {
            std::hint::black_box(code.by_pid(pid as u32));
        }
    }
    times.bytecode_s = t.elapsed().as_secs_f64();
    Ok((Prepared { gen, progs }, times))
}

/// The verdict a test reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every path ended normally, within budget, with no `Unknown`.
    Verified,
    /// Error paths were found, every one modelled and confirmed by
    /// concrete replay.
    Bug,
    /// No verdict: truncation, dropped paths, an isolated panic, an
    /// `Unknown` solver answer, or an error path without a confirming
    /// replay.
    Undecided,
}

impl Verdict {
    /// Whether this verdict is the known answer `expect`.
    pub fn matches(self, expect: Expect) -> bool {
        matches!(
            (self, expect),
            (Verdict::Verified, Expect::Verified) | (Verdict::Bug, Expect::Bug)
        )
    }
}

/// Registry readings gained across explore spans.
#[derive(Clone, Debug, Default)]
pub struct RegistryDelta {
    /// `solver.sat_queries`.
    pub sat_queries: u64,
    /// `solver.sat_cache_hits`.
    pub sat_cache_hits: u64,
    /// `solver.sat_unknowns`.
    pub sat_unknowns: u64,
    /// `solver.sat_incremental_hits`.
    pub incremental_hits: u64,
    /// `solver.sat_implication_hits`.
    pub implication_hits: u64,
    /// `solver.sat_micros` (real solves only).
    pub sat_micros: HistogramSnapshot,
    /// `exec.cmds`.
    pub exec_cmds: u64,
    /// `exec.blocks`.
    pub exec_blocks: u64,
    /// `exec.ic_hits`.
    pub ic_hits: u64,
    /// `exec.ic_misses`.
    pub ic_misses: u64,
    /// `intern.mints`.
    pub intern_mints: u64,
    /// `intern.hits`.
    pub intern_hits: u64,
}

impl RegistryDelta {
    fn from_snapshot(d: &MetricsSnapshot) -> RegistryDelta {
        RegistryDelta {
            sat_queries: d.counter(names::SAT_QUERIES),
            sat_cache_hits: d.counter(names::SAT_CACHE_HITS),
            sat_unknowns: d.counter(names::SAT_UNKNOWNS),
            incremental_hits: d.counter(names::SAT_INCREMENTAL_HITS),
            implication_hits: d.counter(names::SAT_IMPLICATION_HITS),
            sat_micros: d.histogram(names::SAT_MICROS),
            exec_cmds: d.counter(names::EXEC_CMDS),
            exec_blocks: d.counter(names::EXEC_BLOCKS),
            ic_hits: d.counter(names::EXEC_IC_HITS),
            ic_misses: d.counter(names::EXEC_IC_MISSES),
            intern_mints: d.counter(names::INTERN_MINTS),
            intern_hits: d.counter(names::INTERN_HITS),
        }
    }

    /// Adds another delta into this one.
    pub fn accumulate(&mut self, o: &RegistryDelta) {
        self.sat_queries += o.sat_queries;
        self.sat_cache_hits += o.sat_cache_hits;
        self.sat_unknowns += o.sat_unknowns;
        self.incremental_hits += o.incremental_hits;
        self.implication_hits += o.implication_hits;
        self.sat_micros = self.sat_micros.merge(&o.sat_micros);
        self.exec_cmds += o.exec_cmds;
        self.exec_blocks += o.exec_blocks;
        self.ic_hits += o.ic_hits;
        self.ic_misses += o.ic_misses;
        self.intern_mints += o.intern_mints;
        self.intern_hits += o.intern_hits;
    }
}

/// What one test did and how long it took.
#[derive(Clone, Debug)]
pub struct TestRecord {
    /// The verdict reached.
    pub verdict: Verdict,
    /// Finished paths.
    pub paths: usize,
    /// GIL commands executed by the exploration.
    pub cmds: u64,
    /// Time to verdict: explore plus replay, in seconds.
    pub total_s: f64,
    /// The `explore_with` call, in seconds.
    pub explore_s: f64,
    /// Model search plus concrete replay, in seconds.
    pub replay_s: f64,
    /// Error paths found.
    pub bugs: usize,
    /// Error paths confirmed by concrete replay.
    pub confirmed: usize,
    /// Whether the exploration was truncated or dropped paths.
    pub truncated: bool,
    /// `Unknown` solver verdicts during the exploration.
    pub unknowns: u64,
    /// Isolated panics during the exploration.
    pub engine_errors: usize,
    /// Solver time recorded during the explore span (µs; traced runs).
    pub explore_sat_micros: u64,
    /// Memory-layer tallies gained during the explore span (traced runs).
    pub mem: MemTally,
    /// Registry readings gained during the explore span (traced runs).
    pub registry: Option<RegistryDelta>,
    /// The machine-speed reading for the test: the median time, in
    /// seconds, of the reference kernel runs right after it and its
    /// neighbours in the pass (see [`crate::stats::time_reference`]).
    pub reference_s: f64,
}

impl TestRecord {
    /// The parts of a record that must not depend on timing or tracing.
    pub fn fingerprint(&self) -> (usize, u64, Verdict) {
        (self.paths, self.cmds, self.verdict)
    }

    /// Time to verdict in speed-corrected seconds (see
    /// [`crate::stats::speed_corrected`]).
    pub fn corrected_s(&self) -> f64 {
        crate::stats::speed_corrected(self.total_s, self.reference_s)
    }
}

fn run_test<M: SymbolicMemory, C: ConcreteMemory>(
    prog: &Prog,
    entry: &str,
    cfg: &ExploreConfig,
    traced: bool,
) -> TestRecord {
    let solver = Arc::new(Solver::new(solver_config()));
    let before = traced.then(|| (registry().snapshot(), MemTally::now(), sat_micros_sum()));
    let t0 = Instant::now();
    let result = explore_with(
        prog,
        entry,
        SymbolicState::<M>::new(solver.clone()),
        cfg.clone(),
    );
    let explore_s = t0.elapsed().as_secs_f64();
    let (registry, mem, explore_sat_micros) = match before {
        Some((snap, mem, sat)) => {
            let sat = sat_micros_sum() - sat;
            let mem = MemTally::now().since(&mem);
            let delta = RegistryDelta::from_snapshot(&registry().snapshot().since(&snap));
            (Some(delta), mem, sat)
        }
        None => (None, MemTally::default(), 0),
    };

    let t1 = Instant::now();
    let mut bugs = 0;
    let mut confirmed = 0;
    for path in result.errors() {
        bugs += 1;
        let pc = &path.state.pc;
        let Some(model) = solver.model(pc).or_else(|| solver.model_for_replay(pc)) else {
            continue;
        };
        let script = script_from_model(&path.state, &model);
        if let ReplayStatus::ConfirmedError(_) =
            replay_concrete::<C>(prog, entry, script, cfg.clone())
        {
            confirmed += 1;
        }
    }
    let replay_s = t1.elapsed().as_secs_f64();

    let d = &result.diagnostics;
    let truncated = result.truncated || result.dropped_paths > 0 || result.killed;
    let verdict = if truncated || d.engine_errors > 0 || d.unknown_verdicts > 0 {
        Verdict::Undecided
    } else if bugs == 0 {
        Verdict::Verified
    } else if confirmed == bugs {
        Verdict::Bug
    } else {
        Verdict::Undecided
    };
    TestRecord {
        verdict,
        paths: result.paths.len(),
        cmds: result.total_cmds,
        total_s: explore_s + replay_s,
        explore_s,
        replay_s,
        bugs,
        confirmed,
        truncated,
        unknowns: d.unknown_verdicts,
        engine_errors: d.engine_errors,
        explore_sat_micros,
        mem,
        registry,
        reference_s: 0.0,
    }
}

/// Runs test `index` of a prepared workload; `traced` selects the
/// [`Traced`] memory and the per-span registry readings.
pub fn run_one(prep: &Prepared, index: usize, traced: bool) -> TestRecord {
    use gillian_c::{CConcMemory, CSymMemory};
    use gillian_js::{JsConcMemory, JsSymMemory};
    use gillian_while::{WhileConcMemory, WhileSymMemory};
    let test = &prep.gen.tests[index];
    let prog = &prep.progs[test.program];
    let entry = test.entry.as_str();
    let cfg = explore_config(prep.gen.workers);
    match (prep.gen.lang, traced) {
        (Lang::Js, false) => run_test::<JsSymMemory, JsConcMemory>(prog, entry, &cfg, false),
        (Lang::Js, true) => run_test::<Traced<JsSymMemory>, JsConcMemory>(prog, entry, &cfg, true),
        (Lang::C, false) => run_test::<CSymMemory, CConcMemory>(prog, entry, &cfg, false),
        (Lang::C, true) => run_test::<Traced<CSymMemory>, CConcMemory>(prog, entry, &cfg, true),
        (Lang::While, false) => {
            run_test::<WhileSymMemory, WhileConcMemory>(prog, entry, &cfg, false)
        }
        (Lang::While, true) => {
            run_test::<Traced<WhileSymMemory>, WhileConcMemory>(prog, entry, &cfg, true)
        }
    }
}

/// One pass over every test of a workload.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Whether the pass ran traced.
    pub traced: bool,
    /// One record per test, in run order.
    pub records: Vec<TestRecord>,
    /// Wall time from the first test's start to the last verdict.
    pub wall_s: f64,
    /// Process CPU time over the pass (user + system, all threads).
    pub cpu_s: f64,
}

/// Tests on each side whose reference times are pooled into one test's
/// machine-speed reading: a 9-test window (tens of ms) is long enough to
/// damp one kernel run's jitter and short enough to follow the drift.
const REFERENCE_WINDOW: usize = 4;

/// Runs every test of `prep` once, in order, timing the reference kernel
/// after each.
pub fn run_pass(prep: &Prepared, traced: bool) -> Pass {
    let cpu0 = crate::stats::process_cpu_s();
    let t0 = Instant::now();
    let (mut records, reference): (Vec<TestRecord>, Vec<f64>) = (0..prep.gen.tests.len())
        .map(|i| (run_one(prep, i, traced), crate::stats::time_reference()))
        .unzip();
    let wall_s = t0.elapsed().as_secs_f64();
    for (i, r) in records.iter_mut().enumerate() {
        let window =
            i.saturating_sub(REFERENCE_WINDOW)..(i + REFERENCE_WINDOW + 1).min(reference.len());
        r.reference_s = crate::stats::median(&reference[window]);
    }
    let cpu_s = crate::stats::process_cpu_s() - cpu0;
    Pass {
        traced,
        records,
        wall_s,
        cpu_s,
    }
}
