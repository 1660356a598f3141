//! The benchmark command.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload buckets_seq --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` alternates plain and traced passes and reports the
//! per-layer split. The last line of
//! standard output is the JSON result; one line per run is also appended
//! to `results/runs.jsonl` in this package.

use gillian_perfbench::gen::Expect;
use gillian_perfbench::run::{
    config_overrides, explore_config, prepare, run_pass, solver_config, Pass, Prepared,
    RegistryDelta, SetupTimes, TestRecord, Verdict,
};
use gillian_perfbench::stats::{
    count_above, histogram_quantile, median, peak_rss_mb, percentile, ratio, speed_corrected,
    time_reference, REFERENCE_NOMINAL_S,
};
use gillian_perfbench::wrap::MemTally;
use gillian_telemetry::{names, registry};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 41;
/// Fewest passes of each kind a run makes, however short `--seconds`.
const MIN_PASSES: usize = 3;
/// A seed no tuning of this benchmark has looked at: later changes
/// confirm their claims on it.
const HELD_OUT_SEED: u64 = 20_260_917;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(parse_seed(&value()?)?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(HELD_OUT_SEED),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// A seed is any integer; a negative one wraps to its two's-complement
/// `u64`, so every value a caller may pass names some input.
fn parse_seed(s: &str) -> Result<u64, String> {
    s.parse::<u64>()
        .or_else(|_| s.parse::<i64>().map(|n| n as u64))
        .map_err(|e| format!("--seed: {e}"))
}

fn refuse_overrides() -> Result<(), String> {
    let set = config_overrides(std::env::vars_os().filter_map(|(k, _)| k.into_string().ok()));
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with configuration overrides set: {} (unset them; the benchmark measures the shipped defaults)",
            set.join(", ")
        ))
    }
}

/// The checked-out commit, read from `.git` without running git; `none`
/// outside a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(&format!(" {r}")))
                    .map(|l| l[..l.find(' ').unwrap_or(0)].to_string())
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let id = id.trim();
    if id.is_empty() {
        "none".into()
    } else {
        id.to_string()
    }
}

/// FNV-1a over the engine's sources (`crates/`, path and contents, in
/// path order): names the measured code even outside a git checkout.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            match e.file_type() {
                Ok(t) if t.is_dir() && e.file_name() != "target" => walk(&p, out),
                Ok(t) if t.is_file() => out.push(p),
                _ => {}
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    if files.is_empty() {
        return "none".into();
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Metrics in print order: (name, value, unit).
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn metrics_json(m: &Metrics) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Verdict counts over a set of records.
#[derive(Default)]
struct Oracle {
    attempted: usize,
    decided: usize,
    wrong: usize,
}

fn check(prep: &Prepared, passes: &[&Pass]) -> Oracle {
    let mut o = Oracle::default();
    for pass in passes {
        for (rec, test) in pass.records.iter().zip(&prep.gen.tests) {
            o.attempted += 1;
            if rec.verdict != Verdict::Undecided {
                o.decided += 1;
                if !rec.verdict.matches(test.expect) {
                    o.wrong += 1;
                }
            }
        }
    }
    o
}

/// Tests whose (paths, cmds, verdict) differ between `pass` and `base`.
fn divergent(base: &Pass, pass: &Pass) -> usize {
    base.records
        .iter()
        .zip(&pass.records)
        .filter(|(a, b)| a.fingerprint() != b.fingerprint())
        .count()
}

/// Each test's time to verdict in ms, read by `time`, as the median of
/// its samples over `passes`: a per-test median shrugs off a burst of
/// machine slowness that a per-pass total would absorb.
fn per_test_medians_ms(passes: &[&Pass], time: fn(&TestRecord) -> f64) -> Vec<f64> {
    let tests = passes.first().map_or(0, |p| p.records.len());
    (0..tests)
        .map(|i| {
            median(
                &passes
                    .iter()
                    .map(|p| time(&p.records[i]) * 1e3)
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

fn run_passes(prep: &Prepared, seconds: u64, traced_too: bool) -> Vec<Pass> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut passes = Vec::new();
    loop {
        passes.push(run_pass(prep, false));
        if traced_too {
            passes.push(run_pass(prep, true));
        }
        let plain = passes.iter().filter(|p| !p.traced).count();
        if plain >= MIN_PASSES && Instant::now() >= deadline {
            return passes;
        }
    }
}

/// Prints every test of `pass` that has no verdict, the wrong verdict,
/// or a (paths, cmds, verdict) different from `base`.
fn print_suspect_tests(prep: &Prepared, base: &Pass, pass: &Pass) {
    for ((rec, first), test) in pass.records.iter().zip(&base.records).zip(&prep.gen.tests) {
        if rec.verdict.matches(test.expect) && rec.fingerprint() == first.fingerprint() {
            continue;
        }
        println!(
            "suspect test {} (traced={}): expect={:?} verdict={:?} paths={} cmds={} first pass: {:?}; error paths={} confirmed={} truncated={} unknowns={} engine_errors={}",
            test.entry,
            pass.traced,
            test.expect,
            rec.verdict,
            rec.paths,
            rec.cmds,
            first.fingerprint(),
            rec.bugs,
            rec.confirmed,
            rec.truncated,
            rec.unknowns,
            rec.engine_errors
        );
    }
}

fn main() {
    match real_main() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn real_main() -> Result<i32, String> {
    let args = parse_args()?;
    refuse_overrides()?;

    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut setups_corrected = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        drop(prepared.take());
        let (prep, times) = prepare(&args.workload, args.seed)?;
        setups_corrected.push(speed_corrected(times.total(), time_reference()));
        setups.push(times);
        prepared = Some(prep);
    }
    let prep = prepared.expect("at least one set-up ran");
    let setup_s = median(&setups_corrected);

    let workers = prep.gen.workers;
    let cfg = explore_config(workers);
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let lang = prep.gen.lang.tag();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} lang={} tests={} programs={} workers={} available_parallelism={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        lang,
        prep.gen.tests.len(),
        prep.progs.len(),
        workers,
        cores
    );
    let explore_desc = format!(
        "workers={} max_cmds_per_path={} max_total_cmds={} max_paths={} strategy={:?} max_pending={:?} deadline={:?} bytecode={:?} summaries={:?} journal={} checkpoint={} faults={}",
        cfg.workers,
        cfg.max_cmds_per_path,
        cfg.max_total_cmds,
        cfg.max_paths,
        cfg.strategy,
        cfg.max_pending,
        cfg.deadline,
        cfg.bytecode,
        cfg.summaries,
        cfg.journal.is_enabled(),
        cfg.checkpoint.is_some(),
        cfg.faults.is_some()
    );
    let solver_desc = format!("{:?}", solver_config());
    let (commit, digest) = (commit(), source_digest());
    println!("config explore: {explore_desc}");
    println!("config solver: {solver_desc}");
    println!("source commit={commit} crates_fnv={digest} held_out_seed={HELD_OUT_SEED}");

    let passes = run_passes(&prep, args.seconds, args.trace);
    let plain: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    for pass in &passes {
        print_suspect_tests(&prep, plain[0], pass);
    }

    // Correctness: the verdict oracle, determinism across passes, and
    // (traced runs) transparency of the memory wrapper.
    let oracle = check(&prep, &plain);
    let nondeterministic: usize = plain[1..].iter().map(|p| divergent(plain[0], p)).sum();
    let opaque: usize = traced.iter().map(|p| divergent(plain[0], p)).sum();
    let failed = oracle.attempted - (oracle.decided - oracle.wrong);
    let correct = oracle.wrong == 0 && nondeterministic == 0 && opaque == 0;
    let expected_bugs = prep
        .gen
        .tests
        .iter()
        .filter(|t| t.expect == Expect::Bug)
        .count();
    println!(
        "oracle: attempted={} decided={} wrong_verdicts={} undecided={} known_bug_tests={} passes={} nondeterministic_tests={} wrapper_divergent_tests={}",
        oracle.attempted,
        oracle.decided,
        oracle.wrong,
        oracle.attempted - oracle.decided,
        expected_bugs,
        plain.len(),
        nondeterministic,
        opaque
    );

    let per_test_ms = per_test_medians_ms(&plain, TestRecord::corrected_s);
    let suite_s = per_test_ms.iter().sum::<f64>() / 1e3;
    let raw_suite_s = per_test_medians_ms(&plain, |r| r.total_s)
        .iter()
        .sum::<f64>()
        / 1e3;
    let reference_us = 1e6
        * median(
            &plain
                .iter()
                .flat_map(|p| p.records.iter().map(|r| r.reference_s))
                .collect::<Vec<_>>(),
        );
    let p50 = percentile(&per_test_ms, 0.5);
    let p90 = percentile(&per_test_ms, 0.9);
    let walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    println!(
        "verdict latency over {} tests (each the median of {} samples): p50={:.3}ms p90={:.3}ms tests_beyond_p90={} max={:.3}ms",
        per_test_ms.len(),
        plain.len(),
        p50,
        p90,
        count_above(&per_test_ms, p90),
        percentile(&per_test_ms, 1.0),
    );
    println!(
        "suite_s={suite_s:.4} speed-corrected, {raw_suite_s:.4} raw (sums of per-test medians); reference kernel median {reference_us:.1}us (nominal {:.1}us); raw pass walls: {:?}",
        REFERENCE_NOMINAL_S * 1e6,
        walls.iter().map(|w| (w * 1e4).round() / 1e4).collect::<Vec<_>>()
    );

    let metrics: Metrics = if args.trace {
        layer_metrics(&prep, &setups, &plain, &traced, lang)
    } else {
        vec![
            ("suite_s", suite_s, "s"),
            ("verdict_p50_ms", p50, "ms"),
            ("verdict_p90_ms", p90, "ms"),
            (
                "decided_ratio",
                ratio(oracle.decided as f64, oracle.attempted as f64),
                "ratio",
            ),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    };
    for (n, v, u) in &metrics {
        println!("metric {n} = {v:.6} {u}");
    }

    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": {}, \"crates_fnv\": {}, \"explore_config\": {}, \"solver_config\": {}, \"available_parallelism\": {}, \"passes\": {}, \"wrong_verdicts\": {}, \"correct\": {}, \"raw_suite_s\": {}, \"reference_us\": {}, \"metrics\": {}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&commit),
        json_str(&digest),
        json_str(&explore_desc),
        json_str(&solver_desc),
        cores,
        plain.len(),
        oracle.wrong,
        correct,
        json_num(raw_suite_s),
        json_num(reference_us),
        metrics_json(&metrics)
    );
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let appended = std::fs::create_dir_all(&dir).and_then(|()| {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("runs.jsonl"))?;
        writeln!(f, "{record}")
    });
    if let Err(e) = appended {
        eprintln!("perfbench: could not record the run: {e}");
    }

    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        correct,
        oracle.attempted,
        failed,
        metrics_json(&metrics)
    );
    Ok(if correct { 0 } else { 1 })
}

/// The per-layer split of a traced run: set-up stages from the set-up
/// repetitions, everything else as a mean over the traced passes.
fn layer_metrics(
    prep: &Prepared,
    setups: &[SetupTimes],
    plain: &[&Pass],
    traced: &[&Pass],
    lang: &str,
) -> Metrics {
    let workers = prep.gen.workers as f64;
    let n = traced.len() as f64;
    let stage = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());

    let mut reg = RegistryDelta::default();
    let mut mem = MemTally::default();
    let (
        mut span,
        mut replay_s,
        mut paths,
        mut truncated,
        mut unknowns,
        mut errors,
        mut bugs,
        mut confirmed,
    ) = (0.0, 0.0, 0usize, 0usize, 0u64, 0usize, 0usize, 0usize);
    for pass in traced {
        for r in &pass.records {
            if let Some(d) = &r.registry {
                reg.accumulate(d);
            }
            mem.actions += r.mem.actions;
            mem.branches += r.mem.branches;
            mem.span_nanos += r.mem.span_nanos;
            mem.sat_inside_micros += r.mem.sat_inside_micros;
            span += r.explore_s * workers;
            replay_s += r.replay_s;
            paths += r.paths;
            truncated += usize::from(r.truncated);
            unknowns += r.unknowns;
            errors += r.engine_errors;
            bugs += r.bugs;
            confirmed += r.confirmed;
        }
    }
    let sat = &reg.sat_micros;
    let sat_s = sat.sum as f64 / 1e6;
    let mem_self = mem.span_nanos as f64 / 1e9 - mem.sat_inside_micros as f64 / 1e6;
    let residual = span - mem_self - sat_s;

    let plain_suite: f64 = per_test_medians_ms(plain, TestRecord::corrected_s)
        .iter()
        .sum();
    let traced_suite: f64 = per_test_medians_ms(traced, TestRecord::corrected_s)
        .iter()
        .sum();
    let cpu_s = median(&plain.iter().map(|p| p.cpu_s).collect::<Vec<_>>());
    let cpu_util = median(
        &plain
            .iter()
            .map(|p| ratio(p.cpu_s, workers * p.wall_s))
            .collect::<Vec<_>>(),
    );

    println!(
        "layer split (mean per traced pass, {}): explore.span_s {:.4} = mem.{lang}.self_s {:.4} + solver.sat_s {:.4} (lower bound) + explore.residual_s {:.4} (share {:.1}%)",
        if workers > 1.0 { "worker-seconds" } else { "seconds" },
        span / n,
        mem_self / n,
        sat_s / n,
        residual / n,
        100.0 * ratio(residual, span)
    );
    println!(
        "mem.{lang}: actions={:.0} self_s={:.4} branches_per_action={:.3}; replay: bugs={:.0} confirmed={:.0} s={:.4}",
        mem.actions as f64 / n,
        mem_self / n,
        ratio(mem.branches as f64, mem.actions as f64),
        bugs as f64 / n,
        confirmed as f64 / n,
        replay_s / n
    );

    vec![
        ("frontend.parse_s", stage(|s| s.parse_s), "s"),
        ("frontend.lower_s", stage(|s| s.lower_s), "s"),
        ("frontend.gil_cmds", prep.gil_cmds() as f64, "count"),
        ("gil.bytecode_s", stage(|s| s.bytecode_s), "s"),
        ("gil.intern_mints", reg.intern_mints as f64 / n, "count"),
        (
            "gil.intern_hit_rate",
            ratio(
                reg.intern_hits as f64,
                (reg.intern_hits + reg.intern_mints) as f64,
            ),
            "ratio",
        ),
        (
            "gil.intern_live",
            registry().counter(names::INTERN_LIVE).get() as f64,
            "count",
        ),
        ("exec.cmds", reg.exec_cmds as f64 / n, "count"),
        ("exec.blocks", reg.exec_blocks as f64 / n, "count"),
        (
            "exec.cmds_per_block",
            ratio(reg.exec_cmds as f64, reg.exec_blocks as f64),
            "ratio",
        ),
        (
            "exec.ic_hit_rate",
            ratio(reg.ic_hits as f64, (reg.ic_hits + reg.ic_misses) as f64),
            "ratio",
        ),
        ("explore.paths", paths as f64 / n, "count"),
        ("explore.truncated", truncated as f64 / n, "count"),
        ("explore.unknown_verdicts", unknowns as f64 / n, "count"),
        ("explore.engine_errors", errors as f64 / n, "count"),
        ("explore.cpu_s", cpu_s, "s"),
        ("explore.cpu_util", cpu_util, "ratio"),
        ("explore.span_s", span / n, "s"),
        ("explore.residual_s", residual / n, "s"),
        ("explore.residual_share", ratio(residual, span), "ratio"),
        ("solver.sat_queries", reg.sat_queries as f64 / n, "count"),
        (
            "solver.sat_cache_hit_rate",
            ratio(reg.sat_cache_hits as f64, reg.sat_queries as f64),
            "ratio",
        ),
        ("solver.sat_solves", sat.count as f64 / n, "count"),
        ("solver.sat_s", sat_s / n, "s"),
        ("solver.sat_p50_us", histogram_quantile(sat, 0.5), "us"),
        ("solver.sat_max_us", sat.max as f64, "us"),
        (
            "solver.incremental_hits",
            reg.incremental_hits as f64 / n,
            "count",
        ),
        (
            "solver.implication_hits",
            reg.implication_hits as f64 / n,
            "count",
        ),
        ("solver.sat_unknowns", reg.sat_unknowns as f64 / n, "count"),
        ("mem.actions", mem.actions as f64 / n, "count"),
        ("mem.self_s", mem_self / n, "s"),
        (
            "mem.branches_per_action",
            ratio(mem.branches as f64, mem.actions as f64),
            "ratio",
        ),
        ("replay.bugs", bugs as f64 / n, "count"),
        ("replay.confirmed", confirmed as f64 / n, "count"),
        ("replay.s", replay_s / n, "s"),
        (
            "trace.overhead_pct",
            100.0 * (ratio(traced_suite, plain_suite) - 1.0),
            "%",
        ),
    ]
}
