//! The memory-layer probe: a delegating [`SymbolicMemory`] wrapper that
//! times every action from outside the memory model.
//!
//! `Traced<M>` forwards each trait method to `M` unchanged, so a run over
//! `Traced<M>` explores exactly the paths a run over `M` does (the
//! benchmark checks this on every traced run). Around each action it
//! records the wall span, the branch count, and the solver time the
//! registry's `solver.sat_micros` histogram gained inside the span; the
//! difference is the memory model's self time.
//!
//! The tallies are process-wide atomics. On a serial workload the solver
//! time inside a span is exactly the action's own; with several workers
//! a concurrent solve on another thread also lands inside the span, so
//! the self time is then a lower bound.

use gillian_core::checkpoint::StateIoError;
use gillian_core::memory::{SymBranch, SymbolicMemory};
use gillian_gil::serial::{ByteReader, Decoder, Encoder};
use gillian_gil::{Expr, LVar};
use gillian_solver::{PathCondition, Solver};
use gillian_telemetry::{names, registry, Histogram};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// A symbolic memory that delegates to `M` and tallies its actions.
#[derive(Clone, Debug, Default)]
#[repr(transparent)]
pub struct Traced<M>(pub M);

static ACTIONS: AtomicU64 = AtomicU64::new(0);
static BRANCHES: AtomicU64 = AtomicU64::new(0);
static SPAN_NANOS: AtomicU64 = AtomicU64::new(0);
static SAT_INSIDE_MICROS: AtomicU64 = AtomicU64::new(0);

/// Cumulative memory-layer tallies since process start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemTally {
    /// Actions executed through a [`Traced`] memory.
    pub actions: u64,
    /// Branches those actions returned.
    pub branches: u64,
    /// Wall time inside the actions, in nanoseconds.
    pub span_nanos: u64,
    /// Solver time recorded inside the actions, in microseconds.
    pub sat_inside_micros: u64,
}

impl MemTally {
    /// The current tallies.
    pub fn now() -> MemTally {
        MemTally {
            actions: ACTIONS.load(Ordering::Relaxed),
            branches: BRANCHES.load(Ordering::Relaxed),
            span_nanos: SPAN_NANOS.load(Ordering::Relaxed),
            sat_inside_micros: SAT_INSIDE_MICROS.load(Ordering::Relaxed),
        }
    }

    /// The tallies gained since `earlier`.
    pub fn since(&self, earlier: &MemTally) -> MemTally {
        MemTally {
            actions: self.actions - earlier.actions,
            branches: self.branches - earlier.branches,
            span_nanos: self.span_nanos - earlier.span_nanos,
            sat_inside_micros: self.sat_inside_micros - earlier.sat_inside_micros,
        }
    }
}

/// The registry's real-solve latency sum (µs), the same clock
/// `solver.sat_s` reads.
pub fn sat_micros_sum() -> u64 {
    static H: OnceLock<&'static Histogram> = OnceLock::new();
    H.get_or_init(|| registry().histogram(names::SAT_MICROS))
        .snapshot()
        .sum
}

fn timed<M>(run: impl FnOnce() -> Vec<SymBranch<M>>) -> Vec<SymBranch<Traced<M>>> {
    let sat0 = sat_micros_sum();
    let t0 = Instant::now();
    let branches = run();
    let nanos = t0.elapsed().as_nanos() as u64;
    let sat = sat_micros_sum() - sat0;
    ACTIONS.fetch_add(1, Ordering::Relaxed);
    BRANCHES.fetch_add(branches.len() as u64, Ordering::Relaxed);
    SPAN_NANOS.fetch_add(nanos, Ordering::Relaxed);
    SAT_INSIDE_MICROS.fetch_add(sat, Ordering::Relaxed);
    branches
        .into_iter()
        .map(|b| SymBranch {
            memory: Traced(b.memory),
            outcome: b.outcome,
            constraint: b.constraint,
        })
        .collect()
}

impl<M: SymbolicMemory> SymbolicMemory for Traced<M> {
    fn language() -> &'static str {
        M::language()
    }

    fn execute_action(
        &self,
        name: &str,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Vec<SymBranch<Self>> {
        timed(|| self.0.execute_action(name, arg, pc, solver))
    }

    fn action_code(&self, name: &str) -> Option<u16> {
        self.0.action_code(name)
    }

    fn execute_action_coded(
        &self,
        code: u16,
        name: &str,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Vec<SymBranch<Self>> {
        timed(|| self.0.execute_action_coded(code, name, arg, pc, solver))
    }

    fn lvars(&self) -> BTreeSet<LVar> {
        self.0.lvars()
    }

    fn save(&self, enc: &mut Encoder, out: &mut Vec<u8>) -> Result<(), StateIoError> {
        self.0.save(enc, out)
    }

    fn load(dec: &Decoder, r: &mut ByteReader<'_>) -> Result<Self, StateIoError> {
        M::load(dec, r).map(Traced)
    }
}
