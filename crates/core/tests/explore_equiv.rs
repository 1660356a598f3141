//! Engine-equivalence property: on random branching GIL programs, the DFS
//! worklist, the BFS worklist, and the parallel explorer (1 through 4
//! workers) produce identical order-normalized path sets — same path
//! conditions, same outcome per path, same error count, same total command
//! count. This is the observable face of paper §3.2's relaxed trace
//! composition: exploration order cannot change *what* is explored.
//!
//! The parallel legs run with the resilience fields armed (a far-future
//! deadline plus a live cancellation token) so equivalence is checked on
//! the code paths that poll them, not just on the all-`None` fast path.

mod common;

use common::{build_prog, op_strategy, state, state_with, summary};
use gillian_core::explore::{explore, explore_parallel, ExploreConfig, SearchStrategy};
use gillian_solver::{Solver, SolverConfig};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_engines_agree_on_random_programs(
        ops in proptest::collection::vec(op_strategy(), 1..8),
    ) {
        let prog = build_prog(&ops);
        let dfs = explore(&prog, "main", state(), ExploreConfig::default());
        prop_assert!(!dfs.truncated, "budgets must not bind on these programs");
        prop_assert!(dfs.diagnostics.is_clean(), "unexpected incidents: {:?}", dfs.diagnostics);
        let dfs_summary = summary(&dfs);

        let bfs = explore(
            &prog,
            "main",
            state(),
            ExploreConfig { strategy: SearchStrategy::Bfs, ..Default::default() },
        );
        prop_assert_eq!(&summary(&bfs), &dfs_summary, "BFS diverged from DFS");
        prop_assert_eq!(bfs.total_cmds, dfs.total_cmds);

        for workers in 1..=4usize {
            let par = explore_parallel(
                &prog,
                "main",
                state(),
                ExploreConfig { workers, ..Default::default() }
                    .with_deadline(Duration::from_secs(3600)),
            );
            prop_assert_eq!(
                &summary(&par),
                &dfs_summary,
                "parallel ({}) diverged from DFS",
                workers
            );
            prop_assert_eq!(par.total_cmds, dfs.total_cmds);
            prop_assert_eq!(par.errors().count(), dfs.errors().count());
            prop_assert!(!par.truncated);
            prop_assert!(par.diagnostics.is_clean(), "unexpected incidents: {:?}", par.diagnostics);
        }
    }

    /// Incremental solving (per-prefix contexts) against a monolithic
    /// re-solving solver, across every engine: DFS, BFS, and the
    /// parallel explorer at 1–4 workers. The optimization must be
    /// invisible — same path conditions, same outcomes, same command
    /// counts.
    #[test]
    fn incremental_matches_monolithic_across_engines(
        ops in proptest::collection::vec(op_strategy(), 1..8),
    ) {
        let prog = build_prog(&ops);
        let monolithic = SolverConfig {
            incremental: false,
            ..SolverConfig::optimized()
        };
        let reference = explore(
            &prog,
            "main",
            state_with(Arc::new(Solver::new(monolithic))),
            ExploreConfig::default(),
        );
        prop_assert!(!reference.truncated);
        prop_assert!(reference.diagnostics.is_clean());
        let reference_summary = summary(&reference);

        let incremental = || Arc::new(Solver::optimized());
        let dfs = explore(&prog, "main", state_with(incremental()), ExploreConfig::default());
        prop_assert_eq!(&summary(&dfs), &reference_summary, "incremental DFS diverged");
        prop_assert_eq!(dfs.total_cmds, reference.total_cmds);

        let bfs = explore(
            &prog,
            "main",
            state_with(incremental()),
            ExploreConfig { strategy: SearchStrategy::Bfs, ..Default::default() },
        );
        prop_assert_eq!(&summary(&bfs), &reference_summary, "incremental BFS diverged");
        prop_assert_eq!(bfs.total_cmds, reference.total_cmds);

        for workers in 1..=4usize {
            let par = explore_parallel(
                &prog,
                "main",
                state_with(incremental()),
                ExploreConfig { workers, ..Default::default() },
            );
            prop_assert_eq!(
                &summary(&par),
                &reference_summary,
                "incremental parallel ({}) diverged from monolithic",
                workers
            );
            prop_assert_eq!(par.total_cmds, reference.total_cmds);
            prop_assert!(par.diagnostics.is_clean(), "unexpected incidents: {:?}", par.diagnostics);
        }
    }
}
