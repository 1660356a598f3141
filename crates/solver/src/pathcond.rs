//! Path conditions `π ∈ Π` (paper §2.3).
//!
//! A path condition is a conjunction of boolean logical expressions
//! bookkeeping the constraints on logical variables that led execution to
//! the current symbolic state. Conjuncts are kept simplified, deduplicated,
//! and in insertion order (the trace of the path), with a canonical key
//! available for solver caching.
//!
//! ## Representation
//!
//! Symbolic execution snapshots the path condition at **every** branch
//! point, so the representation is persistent: a prefix-shared cons list
//! of interned [`Term`]s (clone = two refcount bumps) plus a persistent
//! trie ([`PSet`]) over term ids for O(log n) dedup on push. Branching no
//! longer copies the condition, and `extend` onto an empty condition is a
//! wholesale O(1) share. The canonical cache key — the sorted ids of the
//! conjunct set — is memoized per node, so repeated solver queries on the
//! same condition pay for canonicalization once.

use crate::ctx::SolveCtx;
use crate::persistent::PSet;
use crate::typing::{absorb_type_fact, TypeEnv};
use gillian_gil::serial;
use gillian_gil::{Expr, LVar, Term, TypeTag, Value};
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// One conjunct in the persistent chain: the newest constraint plus a
/// shared tail. `key` memoizes the canonical cache key of the whole chain
/// ending here; `ctx` freezes the solver state of the first decided solve
/// of the chain ending here (see `ctx.rs` and `DESIGN.md` §12).
#[derive(Debug)]
struct PcNode {
    term: Term,
    prev: Option<Arc<PcNode>>,
    key: OnceLock<PcKey>,
    env: OnceLock<Arc<PcEnv>>,
    ctx: OnceLock<Arc<SolveCtx>>,
}

/// The canonical identity of a conjunct *set*: the sorted, deduplicated
/// intern ids of its members, plus a precomputed hash. Within a process a
/// live term id names exactly one structure, so two path conditions with
/// equal keys are the same conjunction — regardless of insertion order.
#[derive(Clone, Debug)]
pub struct PcKey {
    ids: Arc<[u64]>,
    hash: u64,
}

impl PcKey {
    fn from_ids(mut ids: Vec<u64>) -> PcKey {
        ids.sort_unstable();
        ids.dedup();
        let mut h = gillian_gil::hashing::FxHasher::default();
        ids.hash(&mut h);
        PcKey {
            ids: ids.into(),
            hash: h.finish(),
        }
    }

    /// Inserts one id into an already-canonical key.
    fn with_id(&self, id: u64) -> PcKey {
        match self.ids.binary_search(&id) {
            Ok(_) => self.clone(),
            Err(pos) => {
                let mut ids = Vec::with_capacity(self.ids.len() + 1);
                ids.extend_from_slice(&self.ids[..pos]);
                ids.push(id);
                ids.extend_from_slice(&self.ids[pos..]);
                let mut h = gillian_gil::hashing::FxHasher::default();
                ids.hash(&mut h);
                PcKey {
                    ids: ids.into(),
                    hash: h.finish(),
                }
            }
        }
    }

    /// The sorted conjunct-set ids.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// The precomputed hash (used for cache sharding).
    pub fn precomputed_hash(&self) -> u64 {
        self.hash
    }
}

impl PartialEq for PcKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.ids == other.ids
    }
}
impl Eq for PcKey {}
impl Hash for PcKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The typing environment a conjunct set induces (type facts like
/// `typeOf(#x) = Int` plus operator-usage pinning), snapshotted together
/// with a canonical content key. Memoized per [`PcNode`], so the
/// interpreter's per-command simplifications read it with a lock-free
/// `OnceLock` hit instead of rescanning the whole condition — O(|pc|)
/// once per distinct condition instead of per query.
///
/// Equality compares the **full** sorted `(variable, type)` contents (the
/// precomputed hash is only a fast reject / shard selector), so using
/// `PcEnv` as a memo key can never confuse two environments — that would
/// be unsound. Two different conditions inducing the same typing compare
/// equal, which is exactly what lets simplifier memo entries survive
/// path-condition growth and be shared across sibling branches.
#[derive(Debug)]
pub struct PcEnv {
    env: TypeEnv,
    pairs: Arc<[(LVar, TypeTag)]>,
    hash: u64,
}

impl PcEnv {
    fn build(conjuncts: &[Expr]) -> Arc<PcEnv> {
        let mut env = TypeEnv::new();
        for c in conjuncts {
            let _ = absorb_type_fact(&mut env, c);
        }
        crate::sat::absorb_usage_types_pub(&mut env, conjuncts);
        let pairs: Arc<[(LVar, TypeTag)]> = env.iter().map(|(x, t)| (*x, *t)).collect();
        let mut h = gillian_gil::hashing::FxHasher::default();
        pairs.hash(&mut h);
        Arc::new(PcEnv {
            env,
            pairs,
            hash: h.finish(),
        })
    }

    /// The environment contents.
    pub fn env(&self) -> &TypeEnv {
        &self.env
    }

    /// The precomputed content hash (for cache sharding; never trusted
    /// for equality).
    pub fn fingerprint(&self) -> u64 {
        self.hash
    }
}

impl PartialEq for PcEnv {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.pairs == other.pairs
    }
}
impl Eq for PcEnv {}
impl Hash for PcEnv {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// A conjunction of boolean logical expressions.
#[derive(Clone, Debug, Default)]
pub struct PathCondition {
    /// Newest conjunct (the chain walks backward through the trace).
    head: Option<Arc<PcNode>>,
    /// Chain length (conjunct count).
    len: usize,
    /// Dedup index: intern ids of every conjunct in the chain.
    index: PSet,
    /// Set to `true` once a literal `false` has been conjoined.
    trivially_false: bool,
}

impl PathCondition {
    /// The empty (trivially true) path condition.
    pub fn new() -> Self {
        PathCondition::default()
    }

    /// Conjoins a constraint. Literal `true` is dropped; literal `false`
    /// marks the condition trivially false; duplicates are dropped
    /// (O(log n) via the persistent id index).
    pub fn push(&mut self, e: Expr) {
        match e.as_bool() {
            Some(true) => {}
            Some(false) => self.trivially_false = true,
            None => {
                let term: Term = e.into();
                if self.index.insert(term.id()) {
                    self.head = Some(Arc::new(PcNode {
                        term,
                        prev: self.head.take(),
                        key: OnceLock::new(),
                        env: OnceLock::new(),
                        ctx: OnceLock::new(),
                    }));
                    self.len += 1;
                }
            }
        }
    }

    /// Conjoins all constraints of another path condition (restriction's
    /// `π ∧ π′`, paper §3.1). Extending an empty condition is a wholesale
    /// O(1) share of `other`'s chain.
    pub fn extend(&mut self, other: &PathCondition) {
        if self.len == 0 {
            let trivially_false = self.trivially_false || other.trivially_false;
            *self = other.clone();
            self.trivially_false = trivially_false;
            return;
        }
        self.trivially_false |= other.trivially_false;
        for c in other.conjuncts() {
            self.push(c);
        }
    }

    /// True when a literal `false` has been conjoined.
    pub fn is_trivially_false(&self) -> bool {
        self.trivially_false
    }

    /// The conjuncts in insertion order (materialized from the shared
    /// chain).
    pub fn conjuncts(&self) -> Vec<Expr> {
        let mut out = Vec::with_capacity(self.len);
        let mut cur = self.head.as_deref();
        while let Some(node) = cur {
            out.push(node.term.expr().clone());
            cur = node.prev.as_deref();
        }
        out.reverse();
        out
    }

    /// The conjuncts as shared terms, in insertion order.
    pub fn terms(&self) -> Vec<Term> {
        let mut out = Vec::with_capacity(self.len);
        let mut cur = self.head.as_deref();
        while let Some(node) = cur {
            out.push(node.term.clone());
            cur = node.prev.as_deref();
        }
        out.reverse();
        out
    }

    /// Serializes this condition through `enc`: the trivially-false flag
    /// plus the conjunct terms in insertion order (the branch trace of the
    /// path). Memoized keys, typing environments, and frozen solver
    /// contexts are deliberately *not* written — they are process-local
    /// caches that [`PathCondition::load`] rebuilds lazily.
    ///
    /// # Errors
    ///
    /// [`WireError`] when the payload outgrows its length prefixes.
    pub fn save(
        &self,
        enc: &mut serial::Encoder,
        out: &mut Vec<u8>,
    ) -> Result<(), serial::WireError> {
        serial::put_u8(out, self.trivially_false as u8);
        let terms = self.terms();
        serial::put_len(out, terms.len(), "path condition")?;
        for t in &terms {
            enc.write_term(out, t)?;
        }
        Ok(())
    }

    /// Rebuilds a condition written by [`PathCondition::save`] by replaying
    /// [`PathCondition::push`] over the re-interned conjuncts. Because
    /// `save` wrote an already-deduplicated, `true`-free conjunct list in
    /// insertion order, the replay reconstructs the chain exactly; the
    /// dedup index, cache keys, and solve contexts are re-derived in the
    /// current process (intern-id remapping happens in the decoder).
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncated or corrupted input; never panics.
    pub fn load(
        dec: &serial::Decoder,
        r: &mut serial::ByteReader,
    ) -> Result<PathCondition, serial::WireError> {
        let trivially_false = r.u8()? != 0;
        let n = r.count()?;
        let mut pc = PathCondition::new();
        for _ in 0..n {
            let t = dec.read_term(r)?;
            pc.push(t.expr().clone());
        }
        if trivially_false {
            pc.push(Expr::ff());
        }
        Ok(pc)
    }

    /// Number of conjuncts.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no conjuncts (and no literal `false`).
    pub fn is_empty(&self) -> bool {
        self.len == 0 && !self.trivially_false
    }

    /// All logical variables mentioned.
    pub fn lvars(&self) -> BTreeSet<LVar> {
        let mut out = BTreeSet::new();
        let mut cur = self.head.as_deref();
        while let Some(node) = cur {
            out.extend(node.term.lvars());
            cur = node.prev.as_deref();
        }
        out
    }

    /// The canonical key (sorted, deduplicated conjunct-set ids) for
    /// caching: two path conditions with the same key are the same
    /// conjunction. Memoized per chain node — the first query on a given
    /// condition extends its parent's key by one id; repeats are O(1).
    pub fn cache_key(&self) -> PcKey {
        if self.trivially_false {
            let f: Term = Expr::Val(Value::Bool(false)).into();
            return PcKey::from_ids(vec![f.id()]);
        }
        match &self.head {
            None => PcKey::from_ids(Vec::new()),
            Some(head) => Self::node_key(head),
        }
    }

    /// Computes (and memoizes) the canonical key of the chain ending at
    /// `node`. Iterative: walks back to the nearest memoized ancestor —
    /// no recursion, so 10k-conjunct chains cannot overflow the stack.
    ///
    /// Short unmemoized suffixes (the branch-snapshot steady state: a few
    /// pushes since the parent's key was queried) fold the ancestor key
    /// forward one id at a time, memoizing each node — O(suffix · n).
    /// Long suffixes (a freshly built long chain queried once) would make
    /// that fold quadratic, so past a threshold the key is rebuilt from
    /// scratch in O(n log n) and memoized only at the queried node.
    fn node_key(node: &Arc<PcNode>) -> PcKey {
        if let Some(key) = node.key.get() {
            return key.clone();
        }
        /// Suffix length beyond which per-node folding is abandoned.
        const FOLD_LIMIT: usize = 32;
        // Collect the unmemoized suffix (newest first).
        let mut pending: Vec<&Arc<PcNode>> = Vec::new();
        let mut cur = Some(node);
        let mut base: Option<PcKey> = None;
        while let Some(n) = cur {
            if let Some(key) = n.key.get() {
                base = Some(key.clone());
                break;
            }
            pending.push(n);
            cur = n.prev.as_ref();
        }
        if pending.len() > FOLD_LIMIT {
            // Rebuild: ancestor ids plus the whole suffix, sorted once.
            let mut ids: Vec<u64> = base.map(|k| k.ids().to_vec()).unwrap_or_default();
            ids.extend(pending.iter().map(|n| n.term.id()));
            ids.sort_unstable();
            ids.dedup();
            return node.key.get_or_init(|| PcKey::from_ids(ids)).clone();
        }
        let mut key = base.unwrap_or_else(|| PcKey::from_ids(Vec::new()));
        for n in pending.into_iter().rev() {
            key = key.with_id(n.term.id());
            key = n.key.get_or_init(|| key).clone();
        }
        key
    }

    /// The typing environment induced by this condition's conjuncts,
    /// memoized on the newest chain node: the first query on a given
    /// condition scans it once; every later query — and every query on a
    /// snapshot sharing the same node — is a lock-free `OnceLock` read.
    /// (A trivially-false condition keeps whatever conjuncts are in the
    /// chain; simplifying under their typing is sound on an unsat path.)
    pub fn typing_env(&self) -> Arc<PcEnv> {
        match &self.head {
            None => {
                static EMPTY: OnceLock<Arc<PcEnv>> = OnceLock::new();
                EMPTY.get_or_init(|| PcEnv::build(&[])).clone()
            }
            Some(head) => head
                .env
                .get_or_init(|| PcEnv::build(&self.conjuncts()))
                .clone(),
        }
    }

    /// The conjuncts of the canonical key in **structural** order — the
    /// deterministic, schedule-independent form fed to the satisfiability
    /// checker. (Key ids are mint-ordered and vary across schedules, so
    /// they canonicalize the *set* but must not order the checker's
    /// input.)
    pub fn sorted_conjuncts(&self) -> Vec<Expr> {
        if self.trivially_false {
            return vec![Expr::Val(Value::Bool(false))];
        }
        let mut out = self.conjuncts();
        out.sort_unstable();
        out
    }

    /// True when `self`'s conjunct set contains all of `other`'s — the
    /// syntactic form of the `⊑` pre-order induced by restriction.
    /// Structural over the persistent id tries: shared subtrees answer in
    /// O(1) via pointer equality, so a snapshot is subsumed by its own
    /// extension in time proportional to the extension, not the chain.
    pub fn subsumes(&self, other: &PathCondition) -> bool {
        if other.trivially_false {
            return self.trivially_false;
        }
        other.index.is_subset(&self.index)
    }

    /// Finds the deepest already-solved prefix of this condition: walks
    /// the chain from the newest conjunct toward the root looking for a
    /// frozen [`SolveCtx`], returning it together with the conjuncts
    /// pushed since (insertion order) and the prefix length. `None` when
    /// no prefix of the chain has ever been solved.
    pub(crate) fn solved_prefix(&self) -> Option<(Arc<SolveCtx>, usize, Vec<Expr>)> {
        let mut delta: Vec<Expr> = Vec::new();
        let mut cur = self.head.as_deref();
        while let Some(node) = cur {
            if let Some(ctx) = node.ctx.get() {
                delta.reverse();
                let prefix_len = self.len - delta.len();
                return Some((ctx.clone(), prefix_len, delta));
            }
            delta.push(node.term.expr().clone());
            cur = node.prev.as_deref();
        }
        None
    }

    /// Freezes the result of a decided solve of this exact condition on
    /// its newest chain node. First writer wins (`OnceLock`); conditions
    /// without a chain (empty or only-trivially-false) have nowhere to
    /// freeze and are skipped — the empty condition is answered without
    /// solving anyway.
    pub(crate) fn freeze_ctx(&self, ctx: SolveCtx) {
        if let Some(head) = &self.head {
            let _ = head.ctx.set(Arc::new(ctx));
        }
    }

    /// True when this exact condition carries a frozen solve context
    /// (test introspection for the no-partial-freeze guarantees).
    pub fn has_solve_ctx(&self) -> bool {
        self.head
            .as_ref()
            .is_some_and(|head| head.ctx.get().is_some())
    }
}

impl PartialEq for PathCondition {
    /// Same conjuncts in the same insertion order (and the same
    /// trivially-false flag) — with a pointer shortcut for shared chains.
    fn eq(&self, other: &Self) -> bool {
        if self.trivially_false != other.trivially_false || self.len != other.len {
            return false;
        }
        let mut a = self.head.as_ref();
        let mut b = other.head.as_ref();
        while let (Some(na), Some(nb)) = (a, b) {
            if Arc::ptr_eq(na, nb) {
                return true; // shared tail: identical from here down
            }
            if na.term != nb.term {
                return false;
            }
            a = na.prev.as_ref();
            b = nb.prev.as_ref();
        }
        a.is_none() && b.is_none()
    }
}

impl Drop for PathCondition {
    /// Unlinks the chain iteratively so dropping a 10k-conjunct condition
    /// cannot overflow the stack through recursive `Arc` drops. Stops at
    /// the first node still shared with another condition.
    fn drop(&mut self) {
        let mut cur = self.head.take();
        while let Some(node) = cur {
            match Arc::try_unwrap(node) {
                Ok(mut n) => cur = n.prev.take(),
                Err(_) => break,
            }
        }
    }
}

impl FromIterator<Expr> for PathCondition {
    fn from_iter<I: IntoIterator<Item = Expr>>(iter: I) -> Self {
        let mut pc = PathCondition::new();
        for e in iter {
            pc.push(e);
        }
        pc
    }
}

impl fmt::Display for PathCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.trivially_false {
            return write!(f, "false");
        }
        if self.len == 0 {
            return write!(f, "true");
        }
        for (i, c) in self.conjuncts().iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x(i: u64) -> Expr {
        Expr::lvar(LVar(i))
    }

    #[test]
    fn push_drops_trivia_and_dups() {
        let mut pc = PathCondition::new();
        pc.push(Expr::tt());
        pc.push(x(0).lt(Expr::int(3)));
        pc.push(x(0).lt(Expr::int(3)));
        assert_eq!(pc.len(), 1);
        assert!(!pc.is_trivially_false());
        pc.push(Expr::ff());
        assert!(pc.is_trivially_false());
    }

    #[test]
    fn extend_is_conjunction() {
        let mut a: PathCondition = [x(0).lt(Expr::int(3))].into_iter().collect();
        let b: PathCondition = [x(1).eq(Expr::int(2)), x(0).lt(Expr::int(3))]
            .into_iter()
            .collect();
        a.extend(&b);
        assert_eq!(a.len(), 2);
        assert!(a.subsumes(&b));
    }

    #[test]
    fn extend_onto_empty_shares_wholesale() {
        let b: PathCondition = [x(0).lt(Expr::int(3)), x(1).eq(Expr::int(2))]
            .into_iter()
            .collect();
        let mut a = PathCondition::new();
        a.extend(&b);
        assert_eq!(a, b);
        assert_eq!(a.conjuncts(), b.conjuncts());
    }

    #[test]
    fn cache_key_is_order_insensitive() {
        let a: PathCondition = [x(0).lt(Expr::int(3)), x(1).eq(Expr::int(2))]
            .into_iter()
            .collect();
        let b: PathCondition = [x(1).eq(Expr::int(2)), x(0).lt(Expr::int(3))]
            .into_iter()
            .collect();
        assert_eq!(a.cache_key(), b.cache_key());
        assert_eq!(a.sorted_conjuncts(), b.sorted_conjuncts());
    }

    #[test]
    fn clone_shares_and_diverges() {
        let mut a: PathCondition = [x(0).lt(Expr::int(3))].into_iter().collect();
        let snapshot = a.clone();
        a.push(x(1).eq(Expr::int(2)));
        assert_eq!(snapshot.len(), 1);
        assert_eq!(a.len(), 2);
        assert!(a.subsumes(&snapshot));
        assert!(!snapshot.subsumes(&a));
        assert_ne!(a, snapshot);
    }

    #[test]
    fn lvars_collects_over_conjuncts() {
        let pc: PathCondition = [x(0).lt(x(2)), x(1).eq(Expr::int(0))].into_iter().collect();
        assert_eq!(pc.lvars(), BTreeSet::from([LVar(0), LVar(1), LVar(2)]));
    }

    #[test]
    fn equality_is_order_sensitive_like_the_trace() {
        let a: PathCondition = [x(0).lt(Expr::int(3)), x(1).eq(Expr::int(2))]
            .into_iter()
            .collect();
        let b: PathCondition = [x(1).eq(Expr::int(2)), x(0).lt(Expr::int(3))]
            .into_iter()
            .collect();
        assert_ne!(a, b, "trace order matters for equality");
        assert_eq!(a.cache_key(), b.cache_key(), "but not for the cache key");
    }

    #[test]
    fn ten_k_conjuncts_push_extend_key_and_drop_fast() {
        // Regression for the quadratic `conjuncts.contains` dedup: 10k
        // distinct conjuncts (plus 10k duplicate re-pushes) must build,
        // key, extend, clone and drop in well under a second.
        let start = std::time::Instant::now();
        let mut pc = PathCondition::new();
        for i in 0..10_000u64 {
            pc.push(x(i).lt(Expr::int(i as i64)));
        }
        for i in 0..10_000u64 {
            pc.push(x(i).lt(Expr::int(i as i64)));
        }
        assert_eq!(pc.len(), 10_000);
        let key = pc.cache_key();
        assert_eq!(key.ids().len(), 10_000);
        let snapshot = pc.clone();
        let mut other = PathCondition::new();
        other.extend(&pc);
        assert_eq!(other.len(), 10_000);
        pc.push(x(20_000).eq(Expr::int(1)));
        assert_eq!(snapshot.len(), 10_000);
        let key2 = pc.cache_key();
        assert_eq!(key2.ids().len(), 10_001);
        drop(pc);
        drop(snapshot);
        drop(other);
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "10k-conjunct workout took {elapsed:?} — dedup has gone quadratic"
        );
    }
}
