#![warn(missing_docs)]

//! # Benchmark harness: regenerating the paper's evaluation
//!
//! The paper's evaluation artifacts are **Table 1** (Buckets.js under
//! Gillian-JS, with JaVerT 2.0 as the time baseline) and **Table 2**
//! (Collections-C under Gillian-C). This crate regenerates both:
//!
//! - the binaries `table1` and `table2` print the tables in the paper's
//!   row format (`cargo run -p gillian-bench --bin table1 --release`);
//! - the Criterion benches `table1_buckets` and `table2_collections`
//!   measure the same workloads per suite;
//! - the `ablations` bench isolates the two engine features the paper
//!   credits for the ≈2× speedup over JaVerT 2.0 (solver result caching
//!   and expression simplification).
//!
//! The JaVerT 2.0 column of Table 1 is reproduced by
//! [`gillian_solver::SolverConfig::baseline`], which disables exactly
//! those two features (see `DESIGN.md` §2 for the substitution argument).

use gillian_core::testing::TestSuiteResult;
use gillian_solver::{Solver, SolverConfig};
use std::fmt::Write as _;
use std::time::Duration;

/// One rendered row of a table.
#[derive(Clone, Debug)]
pub struct Row {
    /// Data-structure name.
    pub name: String,
    /// Number of symbolic tests.
    pub tests: usize,
    /// GIL commands executed.
    pub gil_cmds: u64,
    /// Time under the baseline configuration (Table 1 only).
    pub time_baseline: Option<Duration>,
    /// Time under the optimized configuration.
    pub time_optimized: Duration,
}

fn fmt_duration(d: Duration) -> String {
    format!("{:.2}s", d.as_secs_f64())
}

/// Explorer worker count taken from the `GILLIAN_WORKERS` environment
/// variable (default 1 — the serial engine).
pub fn workers_from_env() -> usize {
    std::env::var("GILLIAN_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Per-suite wall-clock deadline taken from the `GILLIAN_DEADLINE_MS`
/// environment variable (default: none). With a deadline set, an
/// over-budget suite comes back truncated — and is *reported* as such by
/// [`assert_clean`] — instead of wedging the whole table run.
pub fn deadline_from_env() -> Option<Duration> {
    std::env::var("GILLIAN_DEADLINE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(Duration::from_millis)
}

/// Frontier checkpointing taken from the environment: `GILLIAN_CHECKPOINT`
/// names the checkpoint file (written atomically; see `DESIGN.md` §14),
/// and `GILLIAN_CHECKPOINT_EVERY_MS` adds periodic writes at that
/// interval on top of the default interruption-only triggers. Returns
/// `None` — checkpointing off — when `GILLIAN_CHECKPOINT` is unset.
pub fn checkpoint_from_env() -> Option<gillian_core::CheckpointConfig> {
    let path = std::env::var("GILLIAN_CHECKPOINT").ok()?;
    let mut cfg = gillian_core::CheckpointConfig::at(path);
    if let Some(ms) = std::env::var("GILLIAN_CHECKPOINT_EVERY_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        cfg = cfg.with_interval(Duration::from_millis(ms));
    }
    Some(cfg)
}

/// The optimized solver with incremental solving toggled by environment:
/// `GILLIAN_INCREMENTAL=0` disables per-prefix solve contexts (any other
/// value, or unset, keeps them on). A/B harness for `repr_smoke`: the
/// layer is verdict-transparent, so toggling it moves only throughput,
/// never results.
pub fn solver_from_env() -> Solver {
    let mut cfg = SolverConfig::optimized();
    if std::env::var("GILLIAN_INCREMENTAL").as_deref() == Ok("0") {
        cfg.incremental = false;
    }
    Solver::new(cfg)
}

/// Runs Table 1 (Buckets under MiniJS), with both engine configurations
/// and the [`workers_from_env`] worker count.
pub fn table1_rows() -> Vec<Row> {
    table1_rows_with(workers_from_env())
}

/// Runs Table 1 with an explicit explorer worker count.
pub fn table1_rows_with(workers: usize) -> Vec<Row> {
    let cfg = gillian_core::ExploreConfig {
        workers,
        deadline: deadline_from_env(),
        ..gillian_js::buckets::table1_config()
    };
    gillian_js::buckets::suite_names()
        .into_iter()
        .map(|suite| {
            let baseline = gillian_js::buckets::run_row(suite, Solver::baseline, cfg.clone());
            let optimized = gillian_js::buckets::run_row(suite, Solver::optimized, cfg.clone());
            assert_clean(&baseline);
            assert_clean(&optimized);
            Row {
                name: suite.to_string(),
                tests: optimized.tests,
                gil_cmds: optimized.gil_cmds,
                time_baseline: Some(baseline.time),
                time_optimized: optimized.time,
            }
        })
        .collect()
}

/// Runs Table 2 (Collections under MiniC) with the [`workers_from_env`]
/// worker count.
pub fn table2_rows() -> Vec<Row> {
    table2_rows_with(workers_from_env())
}

/// Runs Table 2 with an explicit explorer worker count.
pub fn table2_rows_with(workers: usize) -> Vec<Row> {
    let cfg = gillian_core::ExploreConfig {
        workers,
        deadline: deadline_from_env(),
        ..gillian_c::collections::table2_config()
    };
    gillian_c::collections::suite_names()
        .into_iter()
        .map(|suite| {
            let row = gillian_c::collections::run_row(suite, Solver::optimized, cfg.clone());
            assert_clean(&row);
            Row {
                name: suite.to_string(),
                tests: row.tests,
                gil_cmds: row.gil_cmds,
                time_baseline: None,
                time_optimized: row.time,
            }
        })
        .collect()
}

fn assert_clean(row: &TestSuiteResult) {
    assert!(
        row.failures.is_empty() && row.truncated.is_empty() && row.errored.is_empty(),
        "suite {} did not verify cleanly: failures {:?}, truncated {:?}, errored {:?} ({:?})",
        row.name,
        row.failures,
        row.truncated,
        row.errored,
        row.diagnostics
    );
}

/// Renders rows in the paper's Table 1 format
/// (`Name #T GILCmds Time(J2) Time(GJS)`).
pub fn render_table1(rows: &[Row]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<8} {:>4} {:>12} {:>10} {:>10}",
        "Name", "#T", "GIL Cmds", "Time(base)", "Time(opt)"
    )
    .unwrap();
    let (mut t, mut c, mut tb, mut to) = (0, 0u64, Duration::ZERO, Duration::ZERO);
    for r in rows {
        let base = r.time_baseline.unwrap_or_default();
        writeln!(
            out,
            "{:<8} {:>4} {:>12} {:>10} {:>10}",
            r.name,
            r.tests,
            r.gil_cmds,
            fmt_duration(base),
            fmt_duration(r.time_optimized)
        )
        .unwrap();
        t += r.tests;
        c += r.gil_cmds;
        tb += base;
        to += r.time_optimized;
    }
    writeln!(
        out,
        "{:<8} {:>4} {:>12} {:>10} {:>10}",
        "Total",
        t,
        c,
        fmt_duration(tb),
        fmt_duration(to)
    )
    .unwrap();
    writeln!(
        out,
        "speedup (baseline/optimized): {:.2}x",
        tb.as_secs_f64() / to.as_secs_f64().max(1e-9)
    )
    .unwrap();
    out
}

/// Renders rows in the paper's Table 2 format (`Name #T GILCmds Time`).
pub fn render_table2(rows: &[Row]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<8} {:>4} {:>12} {:>10}",
        "Name", "#T", "GIL Cmds", "Time"
    )
    .unwrap();
    let (mut t, mut c, mut to) = (0, 0u64, Duration::ZERO);
    for r in rows {
        writeln!(
            out,
            "{:<8} {:>4} {:>12} {:>10}",
            r.name,
            r.tests,
            r.gil_cmds,
            fmt_duration(r.time_optimized)
        )
        .unwrap();
        t += r.tests;
        c += r.gil_cmds;
        to += r.time_optimized;
    }
    writeln!(
        out,
        "{:<8} {:>4} {:>12} {:>10}",
        "Total",
        t,
        c,
        fmt_duration(to)
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_table2_row_matches_serial() {
        // End-to-end check on a real guest-language suite: the parallel
        // explorer must verify the same tests, execute the same command
        // count, and stay clean — only wall-clock may differ.
        let serial_cfg = gillian_c::collections::table2_config();
        let parallel_cfg = gillian_core::ExploreConfig {
            workers: 4,
            ..serial_cfg.clone()
        };
        let serial = gillian_c::collections::run_row("slist", Solver::optimized, serial_cfg);
        let parallel = gillian_c::collections::run_row("slist", Solver::optimized, parallel_cfg);
        assert_clean(&serial);
        assert_clean(&parallel);
        assert_eq!(serial.tests, parallel.tests);
        assert_eq!(serial.gil_cmds, parallel.gil_cmds);
    }

    #[test]
    fn incremental_matches_monolithic_on_table_suites() {
        // Real guest-language workloads (one Table 1 suite, one Table 2
        // suite), serial and 4-worker: the incremental per-prefix
        // contexts must change nothing observable — same tests verified,
        // same command counts, same path counts, clean on both sides.
        let monolithic = || {
            Solver::new(SolverConfig {
                incremental: false,
                ..SolverConfig::optimized()
            })
        };
        for workers in [1usize, 4] {
            let js_cfg = gillian_core::ExploreConfig {
                workers,
                ..gillian_js::buckets::table1_config()
            };
            let c_cfg = gillian_core::ExploreConfig {
                workers,
                ..gillian_c::collections::table2_config()
            };
            let legs = [
                gillian_js::buckets::run_row("dict", monolithic, js_cfg.clone()),
                gillian_js::buckets::run_row("dict", Solver::optimized, js_cfg),
                gillian_c::collections::run_row("slist", monolithic, c_cfg.clone()),
                gillian_c::collections::run_row("slist", Solver::optimized, c_cfg),
            ];
            for leg in &legs {
                assert_clean(leg);
            }
            for pair in legs.chunks(2) {
                assert_eq!(pair[0].tests, pair[1].tests, "workers={workers}");
                assert_eq!(
                    pair[0].gil_cmds, pair[1].gil_cmds,
                    "{}: incremental solving changed the executed commands (workers={workers})",
                    pair[0].name
                );
                assert_eq!(
                    pair[0].paths, pair[1].paths,
                    "{}: incremental solving changed the explored paths (workers={workers})",
                    pair[0].name
                );
            }
        }
    }

    #[test]
    fn table2_renders_all_rows() {
        let rows = table2_rows();
        assert_eq!(rows.len(), 10);
        let rendered = render_table2(&rows);
        assert!(rendered.contains("slist"));
        assert!(rendered.contains("Total"));
        let total: usize = rows.iter().map(|r| r.tests).sum();
        assert_eq!(total, 161);
    }
}
