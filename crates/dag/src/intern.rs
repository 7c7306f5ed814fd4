//! Interned-signature matchmaking: the fast path for the §3.2 tests.
//!
//! [`crate::matching::match_image`] is the readable reference
//! implementation, but it rebuilds a signature→label map, re-walks
//! ancestor sets and re-runs pairwise DFS reachability for **every**
//! golden image a request is compared against. At warehouse scale that
//! work is identical across candidates, so this module hoists it:
//!
//! * [`SigInterner`] maps each distinct [`ActionSignature`] to a dense
//!   `u32` id, so signature comparison is an integer compare and a
//!   performed log is just a `Vec<u32>` ([`InternedLog`]).
//! * [`CompiledDag`] precomputes — once per request — the id→node map,
//!   per-node ancestor bitsets (making the Prefix and Partial Order tests
//!   bit-tests instead of graph walks) and the topological order.
//! * [`CompiledDag::verdict`] runs the three tests against an interned log
//!   without allocating any strings; [`CompiledDag::report`] adds the
//!   residual schedule, as node indices, for the winning candidate only.
//!
//! The compiled path returns *identical* verdicts, reports and
//! [`MatchFailure`]s to the naive path (checked on seeded random DAGs and
//! logs by `tests/properties.rs`); the warehouse uses it together with a
//! signature-subset index to prune non-matching goldens cheaply.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::action::{ActionSignature, SigRef};
use crate::graph::ConfigDag;
use crate::matching::{MatchFailure, MatchReport, PerformedLog};

/// Dense id of an interned [`ActionSignature`].
pub type SigId = u32;

/// A per-site signature interner: each distinct signature gets a dense
/// `u32` id, assigned in first-seen order (deterministic for a fixed
/// publish sequence).
#[derive(Clone, Debug, Default)]
pub struct SigInterner {
    ids: HashMap<ActionSignature, SigId>,
    sigs: Vec<ActionSignature>,
}

impl SigInterner {
    /// An empty interner.
    pub fn new() -> SigInterner {
        SigInterner::default()
    }

    /// Number of distinct signatures interned.
    pub(crate) fn len(&self) -> usize {
        self.sigs.len()
    }

    /// Intern a signature, copying it only on first sight.
    pub(crate) fn intern(&mut self, sig: SigRef<'_>) -> SigId {
        if let Some(id) = self.get(sig) {
            return id;
        }
        let id = self.sigs.len() as SigId;
        self.ids.insert(sig.to_signature(), id);
        self.sigs.push(sig.to_signature());
        id
    }

    /// The id of an already-interned signature.
    pub fn get(&self, sig: SigRef<'_>) -> Option<SigId> {
        self.ids.get(&sig as &dyn SigKey).copied()
    }

    /// The signature behind an id.
    ///
    /// # Panics
    ///
    /// Panics if the id was not produced by this interner.
    pub fn resolve(&self, id: SigId) -> &ActionSignature {
        &self.sigs[id as usize]
    }
}

/// What the interner's map is probed with: an owned key and a borrowed
/// [`SigRef`] both read as a `SigRef`, and hash and compare as one.
trait SigKey {
    fn key(&self) -> SigRef<'_>;
}

impl SigKey for ActionSignature {
    fn key(&self) -> SigRef<'_> {
        self.sig_ref()
    }
}

impl SigKey for SigRef<'_> {
    fn key(&self) -> SigRef<'_> {
        *self
    }
}

impl<'a> Borrow<dyn SigKey + 'a> for ActionSignature {
    fn borrow(&self) -> &(dyn SigKey + 'a) {
        self
    }
}

impl Hash for dyn SigKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl PartialEq for dyn SigKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for dyn SigKey + '_ {}

/// A compact bitset over small dense ids (node indices, signature ids).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set able to hold `bits` members without reallocating.
    pub(crate) fn with_capacity(bits: usize) -> BitSet {
        BitSet {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    /// Insert a member, growing as needed.
    pub(crate) fn insert(&mut self, bit: usize) {
        let word = bit / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (bit % 64);
    }

    /// Membership test (out-of-range bits are absent).
    pub(crate) fn contains(&self, bit: usize) -> bool {
        has_bit(&self.words, bit)
    }

    /// True when every member of `self` is in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        is_subset_of(&self.words, &other.words)
    }
}

/// A performed log reduced to interned signature ids, in performed order.
/// Computed once when an image is published, not once per match.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InternedLog {
    ids: Vec<SigId>,
    /// Membership bitset over the ids — precomputed at publish time so the
    /// warehouse's subset pre-check is a handful of word operations
    /// against [`CompiledDag::sig_bits`] instead of a per-id loop.
    bits: BitSet,
}

impl InternedLog {
    /// Intern every signature of `log`.
    pub fn from_log(log: &PerformedLog, interner: &mut SigInterner) -> InternedLog {
        let ids: Vec<SigId> = log
            .actions()
            .iter()
            .map(|action| interner.intern(action.sig_ref()))
            .collect();
        let mut bits = BitSet::default();
        for &id in &ids {
            bits.insert(id as usize);
        }
        InternedLog { ids, bits }
    }

    /// The ids in performed order.
    pub fn ids(&self) -> &[SigId] {
        &self.ids
    }

    /// The ids as a membership bitset (unordered view of [`Self::ids`]).
    pub fn sig_bits(&self) -> &BitSet {
        &self.bits
    }

    /// Number of performed actions.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }
}

/// A successful verdict: which DAG nodes an image covers, as indices.
#[derive(Clone, Debug)]
pub struct MatchedSet {
    /// Matched node indices in performed (log) order.
    nodes: Vec<usize>,
    /// The same nodes as a bitset.
    bits: BitSet,
}

impl MatchedSet {
    /// The match score: actions the clone inherits for free.
    pub fn score(&self) -> usize {
        self.nodes.len()
    }
}

/// Whether `bit` is set in the bitset `words`.
fn has_bit(words: &[u64], bit: usize) -> bool {
    words
        .get(bit / 64)
        .is_some_and(|w| w & (1 << (bit % 64)) != 0)
}

/// Whether every bit set in `words` is set in `of`.
fn is_subset_of(words: &[u64], of: &[u64]) -> bool {
    words
        .iter()
        .enumerate()
        .all(|(i, &w)| w & !of.get(i).copied().unwrap_or(0) == 0)
}

/// A request DAG compiled for repeated matching: signature→node map,
/// ancestor bitsets and topological order, all computed exactly once.
pub struct CompiledDag<'d> {
    dag: &'d ConfigDag,
    /// Interned signature id → node index (only signatures the interner
    /// knows; an unknown signature cannot appear in any interned log).
    by_sig: HashMap<SigId, usize>,
    /// The first node, in insertion order, whose signature an earlier
    /// node already has — matching by signature needs signatures
    /// unambiguous within the DAG.
    dup_sig: Option<usize>,
    /// Ancestor bitsets (bits are node indices), `words` words per node,
    /// node after node in one buffer.
    ancestors: Vec<u64>,
    words: usize,
    /// Topological order as node indices (same tie-breaks as
    /// [`ConfigDag::topo_sort`]).
    topo: Vec<usize>,
    /// Membership set of the DAG's interned signature ids — the request
    /// side of the warehouse's subset index.
    sig_bits: BitSet,
}

impl<'d> CompiledDag<'d> {
    /// Compile against a mutable interner, interning every DAG signature.
    pub fn compile(dag: &'d ConfigDag, interner: &mut SigInterner) -> CompiledDag<'d> {
        let bits = interner.len() + dag.len();
        Self::build(dag, bits, |sig| Some(interner.intern(sig)))
    }

    /// Compile against a read-only interner: DAG signatures the interner
    /// has never seen get no id, which is safe because no interned log can
    /// contain them either.
    pub fn compile_readonly(dag: &'d ConfigDag, interner: &SigInterner) -> CompiledDag<'d> {
        Self::build(dag, interner.len(), |sig| interner.get(sig))
    }

    /// `sig_ids` is the number of signature ids `id_of` may return.
    fn build(
        dag: &'d ConfigDag,
        sig_ids: usize,
        mut id_of: impl FnMut(SigRef<'d>) -> Option<SigId>,
    ) -> CompiledDag<'d> {
        let nodes = dag.nodes_raw();
        let n = nodes.len();
        let mut by_sig = HashMap::with_capacity(n);
        let mut dup_sig = None;
        let mut sig_bits = BitSet::with_capacity(sig_ids);
        for (idx, action) in nodes.iter().enumerate() {
            let sig = action.sig_ref();
            let id = id_of(sig);
            // A known signature is a duplicate when an earlier node took
            // its id; an unknown one, when an earlier node has it too
            // (that node's signature is unknown as well).
            let dup = match id {
                Some(id) => by_sig.contains_key(&id),
                None => nodes[..idx].iter().any(|earlier| earlier.sig_ref() == sig),
            };
            if dup {
                dup_sig.get_or_insert(idx);
            } else if let Some(id) = id {
                by_sig.insert(id, idx);
                sig_bits.insert(id as usize);
            }
        }
        // Ancestor bitsets in topological order: anc(v) = ⋃ anc(p) ∪ {p}.
        // The ready set is a bitset too; its lowest member goes next, the
        // tie-break of `ConfigDag::topo_sort`.
        let preds = dag.preds_raw();
        let succs = dag.succs_raw();
        let words = n.div_ceil(64);
        let mut ancestors = vec![0u64; n * words];
        let mut indegree: Vec<usize> = preds.iter().map(Vec::len).collect();
        let mut ready = vec![0u64; words];
        for (v, _) in indegree.iter().enumerate().filter(|&(_, &d)| d == 0) {
            ready[v / 64] |= 1 << (v % 64);
        }
        let mut topo = Vec::with_capacity(n);
        while let Some(w) = ready.iter().position(|&w| w != 0) {
            let v = w * 64 + ready[w].trailing_zeros() as usize;
            ready[w] &= !(1 << (v % 64));
            topo.push(v);
            for &p in &preds[v] {
                // Union the predecessor's ancestors plus the predecessor.
                for i in 0..words {
                    ancestors[v * words + i] |= ancestors[p * words + i];
                }
                ancestors[v * words + p / 64] |= 1 << (p % 64);
            }
            for &s in &succs[v] {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    ready[s / 64] |= 1 << (s % 64);
                }
            }
        }
        debug_assert_eq!(topo.len(), n, "cycle slipped through");
        CompiledDag {
            dag,
            by_sig,
            dup_sig,
            ancestors,
            words,
            topo,
            sig_bits,
        }
    }

    /// The request's interned-signature membership set (the cheap subset
    /// pre-check: a golden whose ids are not all members cannot pass the
    /// Subset Test).
    pub fn sig_bits(&self) -> &BitSet {
        &self.sig_bits
    }

    fn label(&self, idx: usize) -> &str {
        &self.dag.action_at(idx).id
    }

    /// The ancestor bitset of node `v`.
    fn ancestors(&self, v: usize) -> &[u64] {
        &self.ancestors[v * self.words..(v + 1) * self.words]
    }

    /// Run the three §3.2 tests against an interned log. Failure selection
    /// matches [`crate::matching::match_image`] exactly; success carries
    /// only node indices.
    pub fn verdict(
        &self,
        log: &InternedLog,
        interner: &SigInterner,
    ) -> Result<MatchedSet, MatchFailure> {
        if let Some(idx) = self.dup_sig {
            return Err(MatchFailure::AmbiguousSignature {
                signature: self.dag.action_at(idx).sig_ref().to_string(),
            });
        }
        // Subset Test, translating ids into node indices.
        let n = self.dag.len();
        let mut nodes = Vec::with_capacity(log.len());
        let mut bits = BitSet::with_capacity(n);
        for &id in log.ids() {
            let Some(&idx) = self.by_sig.get(&id) else {
                return Err(MatchFailure::NotSubset {
                    extra_operation: interner.resolve(id).to_string(),
                });
            };
            if bits.contains(idx) {
                // The same operation performed twice on one image.
                return Err(MatchFailure::AmbiguousSignature {
                    signature: self.dag.action_at(idx).sig_ref().to_string(),
                });
            }
            bits.insert(idx);
            nodes.push(idx);
        }
        // Prefix Test: every matched node's ancestors are matched. The
        // reference path reports the lexicographically smallest missing
        // ancestor label (BTreeSet iteration order); mirror that.
        for &v in &nodes {
            let ancestors = self.ancestors(v);
            if !is_subset_of(ancestors, &bits.words) {
                let missing = (0..n)
                    .filter(|&a| has_bit(ancestors, a) && !bits.contains(a))
                    .map(|a| self.label(a))
                    .min()
                    .expect("non-subset ancestors have a missing member");
                return Err(MatchFailure::NotPrefix {
                    operation: self.label(v).to_owned(),
                    missing_predecessor: missing.to_owned(),
                });
            }
        }
        // Partial Order Test: pairwise over matched nodes, in log order on
        // both sides (the reference path's iteration order). `a` precedes
        // `b` in the DAG iff `a` is an ancestor of `b` — one bit-test.
        for (a_pos, &a) in nodes.iter().enumerate() {
            for (b_pos, &b) in nodes.iter().enumerate() {
                if a != b && has_bit(self.ancestors(b), a) && a_pos > b_pos {
                    return Err(MatchFailure::OrderViolation {
                        before: self.label(a).to_owned(),
                        after: self.label(b).to_owned(),
                    });
                }
            }
        }
        Ok(MatchedSet { nodes, bits })
    }

    /// The full report for a successful verdict: its matched nodes, and
    /// the residual ones in topological order.
    pub fn report(&self, matched: MatchedSet) -> MatchReport {
        MatchReport {
            residual: self
                .topo
                .iter()
                .copied()
                .filter(|&v| !matched.bits.contains(v))
                .collect(),
            matched: matched.nodes,
        }
    }

    /// Convenience: verdict + report in one call (the drop-in equivalent
    /// of [`crate::matching::match_image`] for interned logs).
    pub fn match_log(
        &self,
        log: &InternedLog,
        interner: &SigInterner,
    ) -> Result<MatchReport, MatchFailure> {
        self.verdict(log, interner).map(|m| self.report(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::graph::invigo_workspace_dag;
    use crate::matching::match_image;

    fn interned(log: &PerformedLog, interner: &mut SigInterner) -> InternedLog {
        InternedLog::from_log(log, interner)
    }

    /// Compiled and naive paths agree on report and failure for a log,
    /// compiled read-only against the log's signatures alone (the DAG's
    /// others unknown) and against an interner holding them all.
    fn assert_equivalent(dag: &ConfigDag, log: &PerformedLog) {
        let mut interner = SigInterner::new();
        let ilog = interned(log, &mut interner);
        let naive = match_image(dag, log);
        let readonly = CompiledDag::compile_readonly(dag, &interner).match_log(&ilog, &interner);
        assert_eq!(
            naive, readonly,
            "naive and read-only compiled paths must agree"
        );
        let compiled = CompiledDag::compile(dag, &mut interner);
        let fast = compiled.match_log(&ilog, &interner);
        assert_eq!(naive, fast, "naive and compiled paths must agree");
    }

    #[test]
    fn interner_assigns_dense_stable_ids() {
        let mut i = SigInterner::new();
        let a = Action::guest("A", "x").signature();
        let b = Action::guest("B", "y").signature();
        assert_eq!(i.intern(a.sig_ref()), 0);
        assert_eq!(i.intern(b.sig_ref()), 1);
        assert_eq!(i.intern(a.sig_ref()), 0, "re-interning is idempotent");
        assert_eq!(i.get(b.sig_ref()), Some(1));
        assert_eq!(i.resolve(0), &a);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn bitset_subset_and_membership() {
        let mut a = BitSet::with_capacity(4);
        let mut b = BitSet::with_capacity(200);
        a.insert(1);
        a.insert(130); // force growth
        b.insert(1);
        b.insert(130);
        b.insert(7);
        assert!(a.contains(130));
        assert!(!a.contains(7));
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(BitSet::default().is_subset(&a));
    }

    #[test]
    fn interned_log_precomputes_its_sig_bitset() {
        let dag = invigo_workspace_dag("arijit");
        let mut interner = SigInterner::new();
        let log: PerformedLog = ["A", "B", "C"]
            .iter()
            .map(|id| dag.action(id).unwrap().clone())
            .collect();
        let ilog = InternedLog::from_log(&log, &mut interner);
        for &id in ilog.ids() {
            assert!(ilog.sig_bits().contains(id as usize));
        }
        let compiled = CompiledDag::compile(&dag, &mut interner);
        // Word-wise subset agrees with the per-id membership loop.
        assert!(ilog.sig_bits().is_subset(compiled.sig_bits()));
        let mut foreign = SigInterner::new();
        let alien = Action::guest("X", "install-matlab");
        let xlog = InternedLog::from_log(
            &PerformedLog::from_actions(vec![alien]),
            &mut foreign,
        );
        assert!(xlog.sig_bits().contains(0));
    }

    #[test]
    fn figure3_equivalence_on_success_and_failures() {
        let dag = invigo_workspace_dag("arijit");
        // Success: the Figure 3 cached prefix.
        let prefix: PerformedLog = ["A", "B", "C", "D", "E", "F"]
            .iter()
            .map(|id| dag.action(id).unwrap().clone())
            .collect();
        assert_equivalent(&dag, &prefix);
        // NotSubset: a foreign operation.
        let mut foreign = prefix.clone();
        foreign.push(Action::guest("X", "install-matlab"));
        assert_equivalent(&dag, &foreign);
        // NotPrefix: a gap.
        let gap: PerformedLog = ["A", "B", "D"]
            .iter()
            .map(|id| dag.action(id).unwrap().clone())
            .collect();
        assert_equivalent(&dag, &gap);
        // OrderViolation: inverted history.
        let inverted: PerformedLog = ["B", "A"]
            .iter()
            .map(|id| dag.action(id).unwrap().clone())
            .collect();
        assert_equivalent(&dag, &inverted);
        // Ambiguous: duplicate log entry.
        let a = dag.action("A").unwrap().clone();
        assert_equivalent(&dag, &PerformedLog::from_actions(vec![a.clone(), a]));
        // Empty log.
        assert_equivalent(&dag, &PerformedLog::new());
    }

    #[test]
    fn duplicate_dag_signature_is_ambiguous_in_both_paths() {
        let mut dag = ConfigDag::new();
        dag.add_action(Action::guest("n1", "same-op")).unwrap();
        dag.add_action(Action::guest("n2", "same-op")).unwrap();
        assert_equivalent(&dag, &PerformedLog::new());
    }

    #[test]
    fn readonly_compile_rejects_unknown_request_sigs_gracefully() {
        let dag = invigo_workspace_dag("arijit");
        let mut interner = SigInterner::new();
        // Only A and B are known to the interner (as if published).
        let known: PerformedLog = ["A", "B"]
            .iter()
            .map(|id| dag.action(id).unwrap().clone())
            .collect();
        let ilog = InternedLog::from_log(&known, &mut interner);
        let compiled = CompiledDag::compile_readonly(&dag, &interner);
        // The known log still matches...
        let report = compiled.match_log(&ilog, &interner).unwrap();
        assert_eq!(dag.labels(&report.matched), vec!["A", "B"]);
        // ...and the request's sig set only covers interned ids.
        assert!(compiled.sig_bits().contains(0));
        assert!(compiled.sig_bits().contains(1));
        assert!(!compiled.sig_bits().contains(2));
    }

    #[test]
    fn verdict_carries_the_matched_nodes_into_the_report() {
        let dag = invigo_workspace_dag("arijit");
        let mut interner = SigInterner::new();
        let log: PerformedLog = ["A", "B", "C"]
            .iter()
            .map(|id| dag.action(id).unwrap().clone())
            .collect();
        let ilog = InternedLog::from_log(&log, &mut interner);
        let compiled = CompiledDag::compile(&dag, &mut interner);
        let verdict = compiled.verdict(&ilog, &interner).unwrap();
        assert_eq!(verdict.score(), 3);
        let report = compiled.report(verdict);
        assert_eq!(dag.labels(&report.matched), vec!["A", "B", "C"]);
        assert_eq!(report.residual.len(), 6);
    }
}
