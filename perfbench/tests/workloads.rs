//! The benchmark's own checks: seeded generation is deterministic, every
//! workload's known verdicts hold, and the traced memory wrapper changes
//! nothing the engine does.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use gillian_perfbench::gen::{generate, Expect, WORKLOADS};
use gillian_perfbench::run::{config_overrides, prepare, run_one, Prepared, Verdict};

/// Tests of each workload these checks execute: one or two from every
/// stratum is enough to cover every test shape without a long run.
const SAMPLE: usize = 24;

fn sample(prep: &Prepared) -> impl Iterator<Item = usize> + '_ {
    let n = prep.gen.tests.len();
    (0..SAMPLE).map(move |i| i * n / SAMPLE)
}

#[test]
fn same_seed_gives_byte_identical_sources_and_tests() {
    for w in WORKLOADS {
        for seed in [0, 7, 20_260_917] {
            let a = generate(w, seed).expect("known workload");
            let b = generate(w, seed).expect("known workload");
            assert_eq!(a, b, "{w} seed {seed}");
        }
        assert_ne!(
            generate(w, 1).unwrap().sources,
            generate(w, 2).unwrap().sources,
            "{w}: different seeds must give different inputs"
        );
    }
    assert!(generate("no_such_workload", 0).is_none());
}

#[test]
fn seeds_keep_the_amount_of_work() {
    for w in WORKLOADS {
        let a = generate(w, 1).unwrap();
        let b = generate(w, 2).unwrap();
        assert_eq!(a.tests.len(), b.tests.len(), "{w}");
        let bugs = |g: &gillian_perfbench::gen::GenWorkload| {
            g.tests.iter().filter(|t| t.expect == Expect::Bug).count()
        };
        assert_eq!(bugs(&a), bugs(&b), "{w}");
        assert!(bugs(&a) > 0, "{w}: every workload exercises replay");
    }
}

#[test]
fn runs_are_deterministic_and_verdicts_match_the_oracle() {
    for w in WORKLOADS {
        let (prep, _) = prepare(w, 5).expect("workload builds");
        for i in sample(&prep) {
            let first = run_one(&prep, i, false);
            let again = run_one(&prep, i, false);
            let test = &prep.gen.tests[i];
            assert_eq!(
                first.fingerprint(),
                again.fingerprint(),
                "{w} {}",
                test.entry
            );
            assert_ne!(first.verdict, Verdict::Undecided, "{w} {}", test.entry);
            assert!(
                first.verdict.matches(test.expect),
                "{w} {}: {:?}",
                test.entry,
                first.verdict
            );
        }
    }
}

#[test]
fn traced_memory_is_transparent() {
    for w in WORKLOADS {
        let (prep, _) = prepare(w, 9).expect("workload builds");
        for i in sample(&prep) {
            let plain = run_one(&prep, i, false);
            let traced = run_one(&prep, i, true);
            let entry = &prep.gen.tests[i].entry;
            assert_eq!(plain.fingerprint(), traced.fingerprint(), "{w} {entry}");
            assert_eq!(plain.bugs, traced.bugs, "{w} {entry}");
            assert!(
                traced.mem.actions > 0,
                "{w} {entry}: the wrapper saw no action"
            );
            assert!(traced.registry.is_some() && plain.registry.is_none());
        }
    }
}

#[test]
fn configuration_overrides_are_detected() {
    let vars = [
        "PATH",
        "GILLIAN_BYTECODE",
        "HOME",
        "BENCH_REPEAT",
        "BENCH_RUN_ID",
        "GILLIAN",
    ];
    assert_eq!(
        config_overrides(vars.iter().map(|s| s.to_string())),
        ["BENCH_REPEAT", "GILLIAN_BYTECODE"]
    );
}
