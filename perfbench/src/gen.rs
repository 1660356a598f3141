//! Seeded workload generators.
//!
//! Every workload is a list of guest-language programs plus a list of
//! symbolic tests (entry procedures), each carrying its known verdict.
//! The engine only ever sees the generated source text.
//!
//! A seed varies what a test looks like, never how much work the
//! workload holds: each workload is a fixed table of strata (structure,
//! size, shape, count), and the seed picks, inside each stratum, the
//! insertion orders, the queried elements, the constants, which tests
//! carry a false assertion (a fixed number per stratum), and the order
//! the tests run in. Two runs with different seeds therefore measure
//! the same amount of work on different inputs.

use std::fmt::Write as _;

/// A seeded splitmix64 generator: small, fast, and stable across
/// platforms and compiler versions, so a seed names the same inputs
/// forever.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so workloads
    /// drawn from the same seed do not share choices.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A value in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// A random permutation of `0..n`.
    pub fn perm(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }

    /// `k` distinct indices of `0..n`, as a membership mask.
    pub fn mask(&mut self, n: usize, k: usize) -> Vec<bool> {
        let mut m = vec![false; n];
        for &i in self.perm(n).iter().take(k) {
            m[i] = true;
        }
        m
    }
}

/// The guest language of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lang {
    /// MiniJS (Buckets-shaped tests).
    Js,
    /// MiniC (Collections-shaped tests).
    C,
    /// While.
    While,
}

impl Lang {
    /// The short name used in metric labels.
    pub fn tag(self) -> &'static str {
        match self {
            Lang::Js => "js",
            Lang::C => "c",
            Lang::While => "while",
        }
    }
}

/// The known answer of a symbolic test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Every path terminates normally.
    Verified,
    /// At least one error path, each confirmed by concrete replay.
    Bug,
}

/// One generated symbolic test.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenTest {
    /// Index into [`GenWorkload::sources`].
    pub program: usize,
    /// The entry procedure.
    pub entry: String,
    /// The known verdict.
    pub expect: Expect,
}

/// A generated workload: guest sources and the tests to run on them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenWorkload {
    /// Guest language of every source.
    pub lang: Lang,
    /// Whole-program guest sources.
    pub sources: Vec<String>,
    /// The tests, in run order.
    pub tests: Vec<GenTest>,
    /// Explorer workers each test runs with.
    pub workers: usize,
}

/// The names of the workloads, in the order the benchmark lists them.
pub const WORKLOADS: &[&str] = &["buckets_seq", "collections_seq", "wide_2w"];

/// Generates workload `name` from `seed`; `None` for an unknown name.
pub fn generate(name: &str, seed: u64) -> Option<GenWorkload> {
    Some(match name {
        "buckets_seq" => buckets_seq(seed),
        "collections_seq" => collections_seq(seed),
        "wide_2w" => wide_2w(seed),
        _ => return None,
    })
}

/// Test bodies collected for one program, shuffled into run order at
/// the end.
struct Suite {
    src: String,
    tests: Vec<(String, Expect)>,
}

impl Suite {
    fn new(prelude: String) -> Suite {
        Suite {
            src: prelude,
            tests: Vec::new(),
        }
    }

    fn push(&mut self, entry: String, expect: Expect, body: String) {
        self.src.push_str(&body);
        self.src.push('\n');
        self.tests.push((entry, expect));
    }
}

fn finish(lang: Lang, workers: usize, suites: Vec<Suite>, rng: &mut Rng) -> GenWorkload {
    let mut tests = Vec::new();
    let mut sources = Vec::new();
    for (program, suite) in suites.into_iter().enumerate() {
        sources.push(suite.src);
        for (entry, expect) in suite.tests {
            tests.push(GenTest {
                program,
                entry,
                expect,
            });
        }
    }
    rng.shuffle(&mut tests);
    GenWorkload {
        lang,
        sources,
        tests,
        workers,
    }
}

fn js_library() -> String {
    gillian_js::buckets::LIB_SOURCES
        .iter()
        .map(|(_, s)| *s)
        .collect::<Vec<_>>()
        .join("\n")
}

fn c_library() -> String {
    gillian_c::collections::LIB_SOURCES
        .iter()
        .map(|(_, s)| *s)
        .collect::<Vec<_>>()
        .join("\n")
}

/// `var e0 = symb_number(); …` for `n` elements of symbolic `kind`
/// (`number` or `string`).
fn js_symbols(out: &mut String, n: usize, kind: &str) {
    for i in 0..n {
        writeln!(out, "    var e{i} = symb_{kind}();").unwrap();
    }
}

/// `assert(!(s[i + 1] < s[i]))` over an array: "never descending". Unlike
/// `s[i] <= s[i + 1]` it holds for NaN too, so it is a property the
/// structures have for every symbolic number.
fn js_never_descending(out: &mut String, arr: &str) {
    writeln!(
        out,
        "    for (var i = 0; i + 1 < {arr}.length; i = i + 1) {{ assert(!({arr}[i + 1] < {arr}[i])); }}"
    )
    .unwrap();
}

/// One Buckets-shaped test: `n` symbolic elements through `kind`,
/// then membership, order and size checks. `bug` swaps one check for a
/// false one that some path violates.
fn buckets_test(kind: &str, n: usize, bug: bool, rng: &mut Rng, entry: &str) -> String {
    let mut s = format!("function {entry}() {{\n");
    let sort = if kind == "bst_str" {
        "string"
    } else {
        "number"
    };
    js_symbols(&mut s, n, sort);
    let order = rng.perm(n);
    let j = rng.below(n);
    match kind {
        // Unconstrained numeric keys: every comparison forks three ways
        // (less, greater, neither: equal or NaN).
        "bst" => {
            s.push_str("    var t = bstNew();\n");
            for &i in &order {
                writeln!(s, "    t.insert(e{i});").unwrap();
            }
            s.push_str("    var sorted = t.inorder();\n");
            s.push_str("    assert(sorted.length === t.size());\n");
            js_never_descending(&mut s, "sorted");
            if bug {
                writeln!(s, "    assert(t.size() === {n});").unwrap();
            } else {
                writeln!(s, "    assert(t.size() >= 1 && t.size() <= {n});").unwrap();
            }
        }
        // Symbolic string keys: membership after insertion.
        "bst_str" => {
            s.push_str("    var t = bstNew();\n");
            for &i in &order {
                writeln!(s, "    t.insert(e{i});").unwrap();
            }
            for i in 0..n {
                writeln!(s, "    assert(t.contains(e{i}));").unwrap();
            }
            if bug {
                writeln!(s, "    assert(t.size() === {n});").unwrap();
            } else {
                writeln!(s, "    assert(t.size() <= {n});").unwrap();
            }
        }
        "llist" => {
            s.push_str("    var l = llNew();\n");
            for i in 0..n {
                writeln!(s, "    l.add(e{i});").unwrap();
            }
            writeln!(s, "    assert(l.size() === {n});").unwrap();
            writeln!(s, "    assert(l.get({j}) === e{j});").unwrap();
            if bug {
                let k = 1 + rng.below(n - 1);
                writeln!(s, "    assert(l.indexOf(e{k}) === {k});").unwrap();
            } else {
                writeln!(s, "    assert(l.indexOf(e{j}) <= {j});").unwrap();
            }
            s.push_str("    l.reverse();\n");
            writeln!(s, "    assert(l.first() === e{});", n - 1).unwrap();
            s.push_str("    assert(l.last() === e0);\n");
        }
        // Symbolic property names: the SGetProp branching rule.
        "set" => {
            s.push_str("    var st = setNew();\n");
            for &i in &order {
                writeln!(s, "    st.add(e{i});").unwrap();
            }
            for i in 0..n {
                writeln!(s, "    assert(st.contains(e{i}));").unwrap();
            }
            if bug {
                writeln!(s, "    assert(st.size() === {n});").unwrap();
            } else {
                writeln!(s, "    assert(st.size() >= 1 && st.size() <= {n});").unwrap();
            }
        }
        "bag" => {
            s.push_str("    var b = bagNew();\n");
            for &i in &order {
                writeln!(s, "    b.add(e{i});").unwrap();
            }
            writeln!(s, "    assert(b.size() === {n});").unwrap();
            if bug {
                writeln!(s, "    assert(b.count(e{j}) === 1);").unwrap();
            } else {
                writeln!(s, "    assert(b.count(e{j}) >= 1);").unwrap();
            }
            writeln!(s, "    assert(b.contains(e{j}));").unwrap();
        }
        "dict" => {
            s.push_str("    var d = dictNew();\n");
            for i in 0..n {
                writeln!(s, "    d.set(e{i}, {i});").unwrap();
            }
            for i in 0..n {
                writeln!(s, "    assert(d.containsKey(e{i}));").unwrap();
            }
            if bug {
                let k = rng.below(n - 1);
                writeln!(s, "    assert(d.get(e{k}) === {k});").unwrap();
            } else {
                writeln!(s, "    assert(d.get(e{j}) >= {j});").unwrap();
            }
            writeln!(s, "    assert(d.size() <= {n});").unwrap();
        }
        // Linear structures: straight-line dispatch, few forks.
        "stack" => {
            let c = rng.range(1, 9);
            s.push_str("    var k = stackNew();\n");
            for i in 0..n {
                writeln!(s, "    k.push(e{i} + {c});").unwrap();
            }
            writeln!(s, "    assert(k.size() === {n});").unwrap();
            if bug {
                writeln!(s, "    assert(k.peek() === e0 + {c});").unwrap();
            }
            for i in (0..n).rev() {
                writeln!(s, "    assert(k.pop() === e{i} + {c});").unwrap();
            }
            s.push_str("    assert(k.isEmpty());\n");
        }
        "queue" => {
            let c = rng.range(1, 9);
            s.push_str("    var q = queueNew();\n");
            for i in 0..n {
                writeln!(s, "    q.enqueue(e{i} * {c});").unwrap();
            }
            writeln!(s, "    assert(q.size() === {n});").unwrap();
            if bug {
                writeln!(s, "    assert(q.peek() === e{} * {c});", n - 1).unwrap();
            }
            for i in 0..n {
                writeln!(s, "    assert(q.dequeue() === e{i} * {c});").unwrap();
            }
            s.push_str("    assert(q.isEmpty());\n");
        }
        other => unreachable!("unknown Buckets test kind {other}"),
    }
    s.push_str("    return 0;\n}\n");
    s
}

/// Strata: (test kind, elements, tests, of which false-assertion).
///
/// Sized so each reported percentile falls well inside one homogeneous
/// block of tests rather than on a step between blocks: the median in the
/// 3-element `bst` block, p90 in the 4-element `bst` block (the top 21%).
const BUCKETS_STRATA: &[(&str, usize, usize, usize)] = &[
    ("llist", 4, 16, 2),
    ("dict", 3, 16, 2),
    ("bag", 3, 16, 2),
    ("stack", 16, 16, 2),
    ("queue", 16, 16, 2),
    ("bst_str", 3, 24, 3),
    ("bst", 3, 56, 6),
    ("set", 4, 24, 3),
    ("set", 5, 16, 2),
    ("bst", 4, 52, 6),
];

/// MiniJS, serial: Table-1-shaped Buckets tests.
fn buckets_seq(seed: u64) -> GenWorkload {
    let mut rng = Rng::new(seed, 1);
    let mut suite = Suite::new(js_library());
    for (s, &(kind, n, count, bugs)) in BUCKETS_STRATA.iter().enumerate() {
        let bug = rng.mask(count, bugs);
        for (t, &bug) in bug.iter().enumerate() {
            let entry = format!("test_{kind}_{s}_{t}");
            let body = buckets_test(kind, n, bug, &mut rng, &entry);
            let expect = if bug { Expect::Bug } else { Expect::Verified };
            suite.push(entry, expect, body);
        }
    }
    finish(Lang::Js, 1, vec![suite], &mut rng)
}

fn c_symbols(out: &mut String, n: usize) {
    for i in 0..n {
        writeln!(out, "    long e{i} = symb_long();").unwrap();
    }
}

/// One Collections-shaped test over `n` symbolic longs, plus `m`
/// more elements derived from them in a loop (heap work without new
/// forks).
fn collections_test(
    kind: &str,
    n: usize,
    m: usize,
    bug: bool,
    rng: &mut Rng,
    entry: &str,
) -> String {
    let mut s = format!("long {entry}(void) {{\n");
    c_symbols(&mut s, n);
    let order = rng.perm(n);
    let j = rng.below(n);
    // A false "first occurrence" claim needs an element that can equal
    // an earlier one.
    let k = 1 + rng.below(n - 1);
    let base = rng.below(n);
    let c = rng.range(1, 9);
    let total = n + m;
    s.push_str("    long *out = malloc(sizeof(long));\n");
    match kind {
        // Unconstrained keys: the tree shape forks on every comparison.
        "treetbl" => {
            s.push_str("    struct TreeTbl *t = treetbl_new();\n");
            for &i in &order {
                writeln!(s, "    treetbl_add(t, e{i}, {i});").unwrap();
            }
            for i in 0..n {
                writeln!(s, "    assert(treetbl_contains_key(t, e{i}));").unwrap();
            }
            writeln!(s, "    assert(treetbl_get(t, e{j}, out) == 0);").unwrap();
            if bug {
                writeln!(s, "    assert(treetbl_size(t) == {n});").unwrap();
            } else {
                writeln!(s, "    assert(treetbl_size(t) <= {n});").unwrap();
            }
            s.push_str("    treetbl_destroy(t);\n");
        }
        "slist" => {
            s.push_str("    struct SList *l = slist_new();\n");
            for i in 0..n {
                writeln!(s, "    slist_add(l, e{i});").unwrap();
            }
            writeln!(
                s,
                "    for (long i = 0; i < {m}; i = i + 1) {{ slist_add(l, e{base} + i * {c}); }}"
            )
            .unwrap();
            writeln!(s, "    assert(slist_size(l) == {total});").unwrap();
            writeln!(s, "    assert(slist_get_at(l, {j}, out) == 0);").unwrap();
            writeln!(s, "    assert(*out == e{j});").unwrap();
            if bug {
                writeln!(s, "    assert(slist_index_of(l, e{k}) == {k});").unwrap();
            } else {
                writeln!(s, "    assert(slist_index_of(l, e{j}) <= {j});").unwrap();
            }
            s.push_str("    slist_reverse(l);\n");
            s.push_str("    assert(slist_get_first(l, out) == 0);\n");
            writeln!(s, "    assert(*out == e{base} + {});", (m as i64 - 1) * c).unwrap();
            s.push_str("    slist_destroy(l);\n");
        }
        "list" => {
            s.push_str("    struct List *l = list_new();\n");
            for i in 0..n {
                if i % 2 == 0 {
                    writeln!(s, "    list_add_last(l, e{i});").unwrap();
                } else {
                    writeln!(s, "    list_add_first(l, e{i});").unwrap();
                }
            }
            writeln!(s, "    for (long i = 0; i < {m}; i = i + 1) {{ list_add_last(l, e{base} - i * {c}); }}").unwrap();
            writeln!(s, "    assert(list_size(l) == {total});").unwrap();
            writeln!(s, "    assert(list_contains(l, e{j}));").unwrap();
            if bug {
                writeln!(s, "    assert(list_remove(l, e{j}) == 8);").unwrap();
            } else {
                writeln!(s, "    assert(list_remove(l, e{j}) == 0);").unwrap();
            }
            writeln!(s, "    assert(list_size(l) == {});", total - 1).unwrap();
            s.push_str("    list_reverse(l);\n");
            s.push_str("    list_destroy(l);\n");
        }
        "deque" => {
            s.push_str("    struct Deque *d = deque_new();\n");
            for i in 0..n {
                writeln!(s, "    deque_add_last(d, e{i});").unwrap();
            }
            writeln!(s, "    for (long i = 0; i < {m}; i = i + 1) {{ deque_add_last(d, e{base} + i * {c}); }}").unwrap();
            writeln!(s, "    assert(deque_size(d) == {total});").unwrap();
            let first = if bug { k } else { 0 };
            s.push_str("    assert(deque_get_first(d, out) == 0);\n");
            writeln!(s, "    assert(*out == e{first});").unwrap();
            for i in 0..n {
                s.push_str("    assert(deque_remove_first(d, out) == 0);\n");
                writeln!(s, "    assert(*out == e{i});").unwrap();
            }
            writeln!(s, "    assert(deque_size(d) == {m});").unwrap();
            s.push_str("    deque_destroy(d);\n");
        }
        // Capacity doublings: malloc + memcpy + free at every growth.
        "array" => {
            s.push_str("    struct Array *a = array_new(2);\n");
            for i in 0..n {
                writeln!(s, "    array_add(a, e{i});").unwrap();
            }
            writeln!(
                s,
                "    for (long i = 0; i < {m}; i = i + 1) {{ array_add(a, e{base} + i * {c}); }}"
            )
            .unwrap();
            writeln!(s, "    assert(array_size(a) == {total});").unwrap();
            if bug {
                writeln!(s, "    assert(array_index_of(a, e{k}) == {k});").unwrap();
            } else {
                writeln!(s, "    assert(array_index_of(a, e{j}) <= {j});").unwrap();
            }
            s.push_str("    array_reverse(a);\n");
            writeln!(s, "    assert(array_get_at(a, {}, out) == 0);", total - 1).unwrap();
            s.push_str("    assert(*out == e0);\n");
            s.push_str("    array_destroy(a);\n");
        }
        other => unreachable!("unknown Collections test kind {other}"),
    }
    s.push_str("    free(out);\n    return 0;\n}\n");
    s
}

/// Collections strata: (structure, symbolic elements, loop elements,
/// tests, of which false-assertion).
///
/// As for Buckets, the median falls inside the `deque` block and p90
/// inside the 4-key `treetbl` block (the top 20%).
const COLLECTIONS_STRATA: &[(&str, usize, usize, usize, usize)] = &[
    ("treetbl", 3, 0, 24, 3),
    ("slist", 3, 48, 24, 3),
    ("list", 3, 48, 24, 3),
    ("deque", 4, 48, 48, 6),
    ("array", 3, 48, 24, 3),
    ("treetbl", 4, 0, 40, 4),
];

/// A harness against one of the seeded buggy libraries.
/// `bug = false` stays clear of the seeded defect.
fn buggy_harness(lib: &str, bug: bool, rng: &mut Rng, entry: &str) -> String {
    let mut s = format!("long {entry}(void) {{\n");
    match lib {
        // Off-by-one growth: the add at size == capacity overflows.
        "array" => {
            let cap = rng.range(2, 4);
            let adds = if bug { cap + 1 } else { cap };
            c_symbols(&mut s, adds as usize);
            writeln!(s, "    struct Array *a = array_new({cap});").unwrap();
            for i in 0..adds {
                writeln!(s, "    array_add(a, e{i});").unwrap();
            }
            writeln!(s, "    assert(array_size(a) == {adds});").unwrap();
            s.push_str("    long *out = malloc(sizeof(long));\n");
            let j = rng.range(0, adds - 1);
            writeln!(s, "    assert(array_get_at(a, {j}, out) == 0);").unwrap();
            writeln!(s, "    assert(*out == e{j});").unwrap();
            s.push_str("    free(out);\n    array_destroy(a);\n");
        }
        // Over-allocation: only the block-size introspection notices.
        "rbuf" => {
            let cap = rng.range(2, 5);
            c_symbols(&mut s, 2);
            writeln!(s, "    struct RBuf *rb = rbuf_new({cap});").unwrap();
            s.push_str("    rbuf_enqueue(rb, e0);\n    rbuf_enqueue(rb, e1);\n");
            s.push_str("    long *out = malloc(sizeof(long));\n");
            s.push_str("    assert(rbuf_dequeue(rb, out) == 0);\n    assert(*out == e0);\n");
            if bug {
                writeln!(
                    s,
                    "    assert(block_size(rb->buffer) == {cap} * sizeof(long));"
                )
                .unwrap();
            }
            s.push_str("    assert(rbuf_size(rb) == 1);\n");
            s.push_str("    free(out);\n    rbuf_destroy(rb);\n");
        }
        // Duplicate insertion: re-adding a key inserts a second node
        // instead of updating the first.
        "treetbl" => {
            c_symbols(&mut s, 2);
            s.push_str("    struct TreeTbl *t = treetbl_new();\n");
            s.push_str("    treetbl_add(t, e0, e1);\n");
            if bug {
                writeln!(s, "    treetbl_add(t, e0, e1 + {});", rng.range(1, 9)).unwrap();
            }
            s.push_str("    long *out = malloc(sizeof(long));\n");
            s.push_str("    assert(treetbl_get(t, e0, out) == 0);\n");
            s.push_str("    assert(treetbl_size(t) == 1);\n");
            s.push_str("    free(out);\n    treetbl_destroy(t);\n");
        }
        other => unreachable!("unknown buggy library {other}"),
    }
    s.push_str("    return 0;\n}\n");
    s
}

/// Buggy-library strata: (library, tests, of which hit the bug).
const BUGGY_STRATA: &[(&str, usize, usize)] = &[("array", 6, 4), ("rbuf", 6, 4), ("treetbl", 6, 4)];

/// MiniC, serial: Table-2-shaped Collections tests, plus harnesses
/// against the seeded buggy library variants.
fn collections_seq(seed: u64) -> GenWorkload {
    let mut rng = Rng::new(seed, 3);
    let mut main = Suite::new(c_library());
    for (s, &(kind, n, m, count, bugs)) in COLLECTIONS_STRATA.iter().enumerate() {
        let bug = rng.mask(count, bugs);
        for (t, &bug) in bug.iter().enumerate() {
            let entry = format!("test_{kind}_{s}_{t}");
            let body = collections_test(kind, n, m, bug, &mut rng, &entry);
            let expect = if bug { Expect::Bug } else { Expect::Verified };
            main.push(entry, expect, body);
        }
    }
    let mut suites = vec![main];
    for &(lib, count, bugs) in BUGGY_STRATA {
        let src = match lib {
            "array" => gillian_c::collections::buggy::ARRAY,
            "rbuf" => gillian_c::collections::buggy::RBUF,
            _ => gillian_c::collections::buggy::TREETBL,
        };
        let mut suite = Suite::new(src.to_string());
        let bug = rng.mask(count, bugs);
        for (t, &bug) in bug.iter().enumerate() {
            let entry = format!("test_buggy_{lib}_{t}");
            let body = buggy_harness(lib, bug, &mut rng, &entry);
            let expect = if bug { Expect::Bug } else { Expect::Verified };
            suite.push(entry, expect, body);
        }
        suites.push(suite);
    }
    finish(Lang::C, 1, suites, &mut rng)
}

/// One wide While test: `k` independent symbolic branches (2^k
/// paths), each path doing `work` loop iterations and a heap object
/// round trip. `bug` adds an assertion that exactly one branch
/// combination violates.
fn wide_test(k: usize, work: i64, bug: bool, rng: &mut Rng, entry: &str) -> String {
    let mut s = format!("proc {entry}() {{\n");
    let mut path_sum = Vec::new();
    // The sum when every branch takes its first arm.
    let mut low = 0;
    for i in 0..k {
        let (a, b, t) = (rng.range(1, 9), rng.range(10, 19), rng.range(-5, 5));
        writeln!(
            s,
            "    b{i} := symb(); if (b{i} > {t}) {{ t{i} := {a}; }} else {{ t{i} := {b}; }}"
        )
        .unwrap();
        path_sum.push(format!("t{i}"));
        low += a;
    }
    let stride = rng.range(1, 4);
    writeln!(
        s,
        "    acc := 0;\n    i := 0;\n    while (i < {work}) {{\n        i := i + 1;\n        acc := acc + i * {stride};\n    }}"
    )
    .unwrap();
    let total = stride * work * (work + 1) / 2;
    writeln!(s, "    sum := {};", path_sum.join(" + ")).unwrap();
    s.push_str("    o := { acc: acc, sum: sum };\n    w := o.acc;\n    o.acc := w + sum;\n    v := o.acc;\n    dispose o;\n");
    writeln!(s, "    assert (v = {total} + sum);").unwrap();
    if bug {
        writeln!(s, "    assert (not (sum = {low}));").unwrap();
    }
    s.push_str("    return v;\n}\n");
    s
}

/// Wide strata: (branches, loop iterations, tests, of which buggy). The
/// median falls inside the 6-branch block, p90 inside the 7-branch one.
const WIDE_STRATA: &[(usize, i64, usize, usize)] =
    &[(5, 150, 70, 4), (6, 150, 90, 4), (7, 150, 60, 4)];

/// While, 2 workers: independent symbolic branches with loop work on
/// every path — the parallel scheduler's workload.
fn wide_2w(seed: u64) -> GenWorkload {
    let mut rng = Rng::new(seed, 4);
    let mut suite = Suite::new(String::new());
    for (s, &(k, work, count, bugs)) in WIDE_STRATA.iter().enumerate() {
        let bug = rng.mask(count, bugs);
        for (t, &bug) in bug.iter().enumerate() {
            let entry = format!("test_wide_{s}_{t}");
            let body = wide_test(k, work, bug, &mut rng, &entry);
            let expect = if bug { Expect::Bug } else { Expect::Verified };
            suite.push(entry, expect, body);
        }
    }
    finish(Lang::While, 2, vec![suite], &mut rng)
}
