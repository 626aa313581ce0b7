//! Canonical unions of disjoint index intervals.

use crate::Interval;
use std::fmt;

/// The canonical empty interval used by the inline representation.
const EMPTY: Interval = Interval { start: 0, end: 0 };

/// Storage behind an [`IndexSet`].
///
/// Calculation ranges are overwhelmingly a single contiguous run (the
/// paper's Figure 5 ranges are all one interval), so the dominant case is
/// stored inline and never touches the heap.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// Zero or one interval stored inline; the empty set is `[0, 0)`.
    Inline(Interval),
    /// Two or more canonical (sorted, disjoint, non-adjacent, non-empty)
    /// intervals on the heap. Every set has exactly one representation,
    /// so equality and hashing can compare representations directly.
    Heap(Vec<Interval>),
}

/// A set of flattened element indices, stored as sorted, disjoint,
/// non-adjacent half-open intervals.
///
/// `IndexSet` is the currency of FRODO's calculation-range determination:
/// every block's *calculation range* and every I/O-mapping request is one of
/// these. The representation is canonical — two sets containing the same
/// indices always compare equal — which the constructors and operators
/// maintain by merging overlapping or touching intervals. Sets of at most
/// one interval are stored inline, so the common single-run case never
/// allocates.
///
/// # Example
///
/// ```
/// use frodo_ranges::IndexSet;
///
/// let a = IndexSet::from_range(0, 10);
/// let b = IndexSet::from_range(20, 30);
/// let u = a.union(&b);
/// assert_eq!(u.count(), 20);
/// assert_eq!(u.intervals().len(), 2);
/// assert!(u.contains(5) && u.contains(25) && !u.contains(15));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IndexSet {
    repr: Repr,
}

/// Appends `iv` to a canonical interval list under construction, merging
/// it into the last entry when they overlap or touch. Callers must append
/// in non-decreasing `start` order.
fn push_merge(out: &mut Vec<Interval>, iv: Interval) {
    if iv.is_empty() {
        return;
    }
    match out.last_mut() {
        Some(last) if last.touches(&iv) => last.end = last.end.max(iv.end),
        _ => out.push(iv),
    }
}

/// Union of two canonical lists.
fn merge_union(a: &[Interval], b: &[Interval]) -> Vec<Interval> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let take_a = j >= b.len() || (i < a.len() && a[i].start <= b[j].start);
        let iv = if take_a {
            i += 1;
            a[i - 1]
        } else {
            j += 1;
            b[j - 1]
        };
        push_merge(&mut out, iv);
    }
    out
}

/// Intersection of two canonical lists.
fn merge_intersect(a: &[Interval], b: &[Interval]) -> Vec<Interval> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let x = a[i].intersect(&b[j]);
        if !x.is_empty() {
            out.push(x);
        }
        if a[i].end <= b[j].end {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// Difference `a \ b` of two canonical lists.
fn merge_difference(a: &[Interval], b: &[Interval]) -> Vec<Interval> {
    let mut out = Vec::new();
    let mut j = 0;
    for &iv in a {
        let mut cur = iv.start;
        while j < b.len() && b[j].end <= cur {
            j += 1;
        }
        let mut k = j;
        while k < b.len() && b[k].start < iv.end {
            let hole = b[k];
            if hole.start > cur {
                out.push(Interval::new(cur, hole.start.min(iv.end)));
            }
            cur = cur.max(hole.end);
            if cur >= iv.end {
                break;
            }
            k += 1;
        }
        if cur < iv.end {
            out.push(Interval::new(cur, iv.end));
        }
    }
    out
}

impl IndexSet {
    /// The empty set.
    pub fn new() -> Self {
        IndexSet {
            repr: Repr::Inline(EMPTY),
        }
    }

    /// The empty set (alias of [`IndexSet::new`]).
    pub fn empty() -> Self {
        IndexSet::new()
    }

    /// The full range `[0, len)`.
    pub fn full(len: usize) -> Self {
        IndexSet::from_range(0, len)
    }

    /// The single interval `[start, end)`; empty if `start >= end`.
    pub fn from_range(start: usize, end: usize) -> Self {
        let iv = Interval::new(start, end);
        IndexSet {
            repr: Repr::Inline(if iv.is_empty() { EMPTY } else { iv }),
        }
    }

    /// The set containing exactly `idx`.
    pub fn point(idx: usize) -> Self {
        IndexSet::from_range(idx, idx + 1)
    }

    /// Wraps an already-canonical interval list (sorted, disjoint,
    /// non-adjacent, non-empty), demoting short lists to the inline form.
    /// Every multi-interval set is built here, so debug builds check the
    /// canonical form here: every interval non-empty, and a strict gap
    /// between neighbours (touching intervals must have been merged).
    fn from_canonical(v: Vec<Interval>) -> Self {
        if cfg!(debug_assertions) {
            for iv in &v {
                debug_assert!(!iv.is_empty(), "empty interval in {v:?}");
            }
            for w in v.windows(2) {
                debug_assert!(
                    w[0].end < w[1].start,
                    "intervals {} and {} out of order, overlapping, or unmerged in {v:?}",
                    w[0],
                    w[1]
                );
            }
        }
        match v.as_slice() {
            [] => IndexSet::new(),
            [iv] => IndexSet {
                repr: Repr::Inline(*iv),
            },
            _ => IndexSet {
                repr: Repr::Heap(v),
            },
        }
    }

    /// Builds a set from an arbitrary iterator of intervals
    /// (they may overlap, touch, be empty, or arrive unsorted).
    pub fn from_intervals<I: IntoIterator<Item = Interval>>(ivs: I) -> Self {
        let mut v: Vec<Interval> = ivs.into_iter().filter(|iv| !iv.is_empty()).collect();
        if v.len() <= 1 {
            return IndexSet::from_canonical(v);
        }
        v.sort();
        let mut out: Vec<Interval> = Vec::with_capacity(v.len());
        for iv in v {
            push_merge(&mut out, iv);
        }
        IndexSet::from_canonical(out)
    }

    /// Builds a set from individual indices (duplicates allowed, any order).
    pub fn from_indices<I: IntoIterator<Item = usize>>(idxs: I) -> Self {
        IndexSet::from_intervals(idxs.into_iter().map(Interval::point))
    }

    /// The canonical intervals, sorted and disjoint.
    pub fn intervals(&self) -> &[Interval] {
        match &self.repr {
            Repr::Inline(iv) if iv.is_empty() => &[],
            Repr::Inline(iv) => std::slice::from_ref(iv),
            Repr::Heap(v) => v,
        }
    }

    /// The sole interval, if the set is exactly one interval.
    fn as_single(&self) -> Option<Interval> {
        match self.intervals() {
            [iv] => Some(*iv),
            _ => None,
        }
    }

    /// Whether the set contains no indices.
    pub fn is_empty(&self) -> bool {
        self.intervals().is_empty()
    }

    /// Total number of indices in the set.
    pub fn count(&self) -> usize {
        self.intervals().iter().map(Interval::len).sum()
    }

    /// Whether `idx` is a member.
    pub fn contains(&self, idx: usize) -> bool {
        let ivs = self.intervals();
        // Binary search on interval starts, then check the candidate.
        match ivs.binary_search_by(|iv| iv.start.cmp(&idx)) {
            Ok(_) => true,
            Err(0) => false,
            Err(pos) => ivs[pos - 1].contains(idx),
        }
    }

    /// Smallest contained index, if any.
    pub fn min(&self) -> Option<usize> {
        self.intervals().first().map(|iv| iv.start)
    }

    /// Largest contained index, if any.
    pub fn max(&self) -> Option<usize> {
        self.intervals().last().map(|iv| iv.end - 1)
    }

    /// Smallest single interval covering every member (empty set ⇒ `None`).
    pub fn bounding(&self) -> Option<Interval> {
        match (self.min(), self.max()) {
            (Some(lo), Some(hi)) => Some(Interval::new(lo, hi + 1)),
            _ => None,
        }
    }

    /// Set union.
    pub fn union(&self, other: &IndexSet) -> IndexSet {
        if other.is_empty() {
            return self.clone();
        }
        if self.is_empty() {
            return other.clone();
        }
        if let (Some(a), Some(b)) = (self.as_single(), other.as_single()) {
            if a.touches(&b) {
                return IndexSet::from_range(a.start.min(b.start), a.end.max(b.end));
            }
        }
        IndexSet::from_canonical(merge_union(self.intervals(), other.intervals()))
    }

    /// Set intersection.
    pub fn intersect(&self, other: &IndexSet) -> IndexSet {
        if let (Some(a), Some(b)) = (self.as_single(), other.as_single()) {
            let x = a.intersect(&b);
            return IndexSet {
                repr: Repr::Inline(if x.is_empty() { EMPTY } else { x }),
            };
        }
        IndexSet::from_canonical(merge_intersect(self.intervals(), other.intervals()))
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &IndexSet) -> IndexSet {
        IndexSet::from_canonical(merge_difference(self.intervals(), other.intervals()))
    }

    /// Complement within the universe `[0, len)`.
    pub fn complement(&self, len: usize) -> IndexSet {
        IndexSet::full(len).difference(self)
    }

    /// Whether every member of `self` is also in `other`.
    pub fn is_subset(&self, other: &IndexSet) -> bool {
        self.difference(other).is_empty()
    }

    /// Translates every index by `offset`, dropping indices that would become
    /// negative (saturating clip at zero, per boundary-clamping block semantics).
    pub fn shift(&self, offset: isize) -> IndexSet {
        IndexSet::from_intervals(self.intervals().iter().map(|iv| iv.shift(offset)))
    }

    /// Restricts the set to `[0, len)`.
    pub fn clamp_to(&self, len: usize) -> IndexSet {
        IndexSet::from_intervals(self.intervals().iter().map(|iv| iv.clamp_to(len)))
    }

    /// Dilates each member index `k` to the window `[k - left, k + right]`
    /// (clipped at zero), then unions: the exact input requirement of
    /// sliding-window blocks such as convolution and FIR filters.
    pub fn dilate(&self, left: usize, right: usize) -> IndexSet {
        IndexSet::from_intervals(
            self.intervals()
                .iter()
                .map(|iv| Interval::new(iv.start.saturating_sub(left), iv.end + right)),
        )
    }

    /// Merges intervals separated by gaps of at most `max_gap` indices,
    /// producing a superset with fewer, longer runs.
    ///
    /// # Example
    ///
    /// ```
    /// use frodo_ranges::IndexSet;
    ///
    /// let sparse = IndexSet::from_indices([0, 4, 8, 40]);
    /// let coalesced = sparse.coalesce(8);
    /// assert_eq!(coalesced, IndexSet::from_range(0, 9).union(&IndexSet::point(40)));
    /// ```
    ///
    /// Used by concise code generation to avoid the discontinuous-range
    /// pathology the paper's §5 discusses: emitting one loop per tiny run
    /// costs more than computing a few redundant elements to keep runs
    /// contiguous. `max_gap = 0` is the identity.
    pub fn coalesce(&self, max_gap: usize) -> IndexSet {
        let ivs = self.intervals();
        let mut out: Vec<Interval> = Vec::with_capacity(ivs.len());
        for &iv in ivs {
            match out.last_mut() {
                Some(last) if iv.start <= last.end + max_gap => {
                    last.end = last.end.max(iv.end);
                }
                _ => out.push(iv),
            }
        }
        IndexSet::from_canonical(out)
    }

    /// Iterates over every member index in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        let intervals = self.intervals();
        Iter {
            intervals,
            pos: 0,
            next: intervals.first().map(|iv| iv.start).unwrap_or(0),
        }
    }

    /// Fraction of `[0, len)` covered by the set (1.0 for the full range).
    ///
    /// Used to report how much calculation a block's range elimination saved.
    pub fn coverage(&self, len: usize) -> f64 {
        if len == 0 {
            return 1.0;
        }
        self.clamp_to(len).count() as f64 / len as f64
    }
}

impl Default for IndexSet {
    fn default() -> Self {
        IndexSet::new()
    }
}

impl fmt::Display for IndexSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ivs = self.intervals();
        if ivs.is_empty() {
            return write!(f, "{{}}");
        }
        let parts: Vec<String> = ivs.iter().map(|iv| iv.to_string()).collect();
        write!(f, "{}", parts.join(" ∪ "))
    }
}

impl FromIterator<Interval> for IndexSet {
    fn from_iter<T: IntoIterator<Item = Interval>>(iter: T) -> Self {
        IndexSet::from_intervals(iter)
    }
}

impl FromIterator<usize> for IndexSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        IndexSet::from_indices(iter)
    }
}

impl Extend<Interval> for IndexSet {
    fn extend<T: IntoIterator<Item = Interval>>(&mut self, iter: T) {
        let merged = IndexSet::from_intervals(self.intervals().iter().copied().chain(iter));
        *self = merged;
    }
}

/// Iterator over the member indices of an [`IndexSet`], in increasing order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    intervals: &'a [Interval],
    pos: usize,
    next: usize,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            let iv = self.intervals.get(self.pos)?;
            if self.next < iv.start {
                self.next = iv.start;
            }
            if self.next < iv.end {
                let out = self.next;
                self.next += 1;
                return Some(out);
            }
            self.pos += 1;
        }
    }
}

impl<'a> IntoIterator for &'a IndexSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_properties() {
        let s = IndexSet::new();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.bounding(), None);
        assert_eq!(s.to_string(), "{}");
    }

    #[test]
    fn from_intervals_merges_overlaps_and_touches() {
        let s = IndexSet::from_intervals([
            Interval::new(5, 10),
            Interval::new(0, 5),
            Interval::new(8, 12),
            Interval::new(20, 25),
        ]);
        assert_eq!(
            s.intervals(),
            &[Interval::new(0, 12), Interval::new(20, 25)]
        );
    }

    #[test]
    fn from_indices_collapses_runs() {
        let s = IndexSet::from_indices([3, 1, 2, 2, 7]);
        assert_eq!(s.intervals(), &[Interval::new(1, 4), Interval::new(7, 8)]);
    }

    #[test]
    fn contains_uses_binary_search_correctly() {
        let s = IndexSet::from_intervals([Interval::new(2, 4), Interval::new(10, 13)]);
        for i in 0..16 {
            let expected = (2..4).contains(&i) || (10..13).contains(&i);
            assert_eq!(s.contains(i), expected, "index {i}");
        }
    }

    #[test]
    fn union_of_disjoint_keeps_both() {
        let a = IndexSet::from_range(0, 3);
        let b = IndexSet::from_range(5, 8);
        assert_eq!(a.union(&b).count(), 6);
    }

    #[test]
    fn intersect_basic() {
        let a = IndexSet::from_intervals([Interval::new(0, 10), Interval::new(20, 30)]);
        let b = IndexSet::from_range(5, 25);
        assert_eq!(
            a.intersect(&b).intervals(),
            &[Interval::new(5, 10), Interval::new(20, 25)]
        );
    }

    #[test]
    fn difference_punches_holes() {
        let a = IndexSet::from_range(0, 10);
        let b = IndexSet::from_intervals([Interval::new(2, 4), Interval::new(6, 7)]);
        assert_eq!(
            a.difference(&b).intervals(),
            &[
                Interval::new(0, 2),
                Interval::new(4, 6),
                Interval::new(7, 10)
            ]
        );
    }

    #[test]
    fn complement_of_full_is_empty() {
        assert!(IndexSet::full(10).complement(10).is_empty());
        assert_eq!(IndexSet::new().complement(5), IndexSet::full(5));
    }

    #[test]
    fn shift_and_clamp() {
        let s = IndexSet::from_range(2, 6);
        assert_eq!(s.shift(3), IndexSet::from_range(5, 9));
        assert_eq!(s.shift(-3), IndexSet::from_range(0, 3));
        assert_eq!(s.shift(3).clamp_to(7), IndexSet::from_range(5, 7));
    }

    #[test]
    fn dilate_models_conv_window() {
        // out index k needs inputs [k-2, k+1]
        let s = IndexSet::from_range(10, 12);
        assert_eq!(s.dilate(2, 1), IndexSet::from_range(8, 13));
        // clipped at zero
        let t = IndexSet::point(1);
        assert_eq!(t.dilate(3, 0), IndexSet::from_range(0, 2));
    }

    #[test]
    fn dilate_merges_adjacent_windows() {
        let s = IndexSet::from_indices([0, 4, 8]);
        assert_eq!(s.dilate(2, 2), IndexSet::from_range(0, 11));
    }

    #[test]
    fn iter_yields_sorted_members() {
        let s = IndexSet::from_intervals([Interval::new(1, 3), Interval::new(6, 8)]);
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![1, 2, 6, 7]);
    }

    #[test]
    fn subset_checks() {
        let a = IndexSet::from_range(2, 5);
        let b = IndexSet::from_range(0, 10);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(IndexSet::new().is_subset(&a));
    }

    #[test]
    fn coverage_reports_fraction() {
        let s = IndexSet::from_range(0, 25);
        assert!((s.coverage(100) - 0.25).abs() < 1e-12);
        assert!((IndexSet::full(10).coverage(10) - 1.0).abs() < 1e-12);
        assert!((IndexSet::new().coverage(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_shows_union() {
        let s = IndexSet::from_intervals([Interval::new(0, 2), Interval::new(5, 6)]);
        assert_eq!(s.to_string(), "[0, 2) ∪ [5, 6)");
    }

    #[test]
    fn extend_merges_in_place() {
        let mut s = IndexSet::from_range(0, 3);
        s.extend([Interval::new(3, 6)]);
        assert_eq!(s, IndexSet::from_range(0, 6));
    }

    #[test]
    fn inline_representation_for_single_intervals() {
        // 0- and 1-interval sets never touch the heap
        assert!(matches!(IndexSet::new().repr, Repr::Inline(_)));
        assert!(matches!(IndexSet::from_range(3, 9).repr, Repr::Inline(_)));
        assert!(matches!(IndexSet::full(100).repr, Repr::Inline(_)));
        // two disjoint intervals spill
        let two = IndexSet::from_range(0, 2).union(&IndexSet::from_range(5, 7));
        assert!(matches!(two.repr, Repr::Heap(_)));
        // a union collapsing to one interval stays inline
        let one = IndexSet::from_range(0, 5).union(&IndexSet::from_range(3, 9));
        assert!(matches!(one.repr, Repr::Inline(_)));
        // as do intersections and differences of heap sets that leave one
        let cut = two.intersect(&IndexSet::from_range(4, 9));
        assert!(matches!(cut.repr, Repr::Inline(_)));
        assert_eq!(cut, IndexSet::from_range(5, 7));
        let rest = two.difference(&IndexSet::from_range(0, 2));
        assert_eq!(rest, IndexSet::from_range(5, 7));
    }

    /// Property tests (gated: the `proptest` crate is not vendored, so the
    /// default offline build compiles these out; re-add the dev-dependency
    /// and run `cargo test --features proptest` to enable them).
    #[cfg(feature = "proptest")]
    mod props {
        use super::*;
        use proptest::prelude::*;
        fn arb_indexset(max: usize) -> impl Strategy<Value = IndexSet> {
            prop::collection::vec((0..max, 0..max), 0..8).prop_map(|pairs| {
                IndexSet::from_intervals(
                    pairs
                        .into_iter()
                        .map(|(a, b)| Interval::new(a.min(b), a.max(b))),
                )
            })
        }

        proptest! {
            #[test]
            fn prop_canonical_form(s in arb_indexset(64)) {
                // intervals sorted, disjoint, non-adjacent, non-empty
                for w in s.intervals().windows(2) {
                    prop_assert!(w[0].end < w[1].start);
                }
                for iv in s.intervals() {
                    prop_assert!(!iv.is_empty());
                }
            }

            #[test]
            fn prop_union_commutative(a in arb_indexset(64), b in arb_indexset(64)) {
                prop_assert_eq!(a.union(&b), b.union(&a));
            }

            #[test]
            fn prop_intersect_commutative(a in arb_indexset(64), b in arb_indexset(64)) {
                prop_assert_eq!(a.intersect(&b), b.intersect(&a));
            }

            #[test]
            fn prop_union_intersect_absorption(a in arb_indexset(64), b in arb_indexset(64)) {
                prop_assert_eq!(a.union(&a.intersect(&b)), a.clone());
                prop_assert_eq!(a.intersect(&a.union(&b)), a);
            }

            #[test]
            fn prop_difference_disjoint_from_subtrahend(a in arb_indexset(64), b in arb_indexset(64)) {
                prop_assert!(a.difference(&b).intersect(&b).is_empty());
            }

            #[test]
            fn prop_difference_union_restores(a in arb_indexset(64), b in arb_indexset(64)) {
                prop_assert_eq!(a.difference(&b).union(&a.intersect(&b)), a);
            }

            #[test]
            fn prop_demorgan(a in arb_indexset(64), b in arb_indexset(64)) {
                let n = 64;
                let lhs = a.union(&b).complement(n);
                let rhs = a.complement(n).intersect(&b.complement(n));
                prop_assert_eq!(lhs, rhs);
            }

            #[test]
            fn prop_count_inclusion_exclusion(a in arb_indexset(64), b in arb_indexset(64)) {
                prop_assert_eq!(
                    a.union(&b).count() + a.intersect(&b).count(),
                    a.count() + b.count()
                );
            }

            #[test]
            fn prop_membership_matches_setops(a in arb_indexset(32), b in arb_indexset(32), idx in 0usize..40) {
                prop_assert_eq!(a.union(&b).contains(idx), a.contains(idx) || b.contains(idx));
                prop_assert_eq!(a.intersect(&b).contains(idx), a.contains(idx) && b.contains(idx));
                prop_assert_eq!(a.difference(&b).contains(idx), a.contains(idx) && !b.contains(idx));
            }

            #[test]
            fn prop_iter_matches_contains(s in arb_indexset(48)) {
                let collected: Vec<usize> = s.iter().collect();
                prop_assert_eq!(collected.len(), s.count());
                for &i in &collected {
                    prop_assert!(s.contains(i));
                }
                let mut sorted = collected.clone();
                sorted.sort_unstable();
                sorted.dedup();
                prop_assert_eq!(collected, sorted);
            }

            #[test]
            fn prop_shift_roundtrip(s in arb_indexset(48), off in 0isize..16) {
                // shifting right then left is identity (no clipping when going right first)
                prop_assert_eq!(s.shift(off).shift(-off), s);
            }

            #[test]
            fn prop_dilate_superset(s in arb_indexset(48), l in 0usize..4, r in 0usize..4) {
                prop_assert!(s.is_subset(&s.dilate(l, r)));
            }

            #[test]
            fn prop_coalesce_monotone_in_gap(s in arb_indexset(64), g1 in 0usize..8, g2 in 0usize..8) {
                let (lo, hi) = (g1.min(g2), g1.max(g2));
                prop_assert!(s.coalesce(lo).is_subset(&s.coalesce(hi)));
            }

            #[test]
            fn prop_coalesce_superset_and_bounded(s in arb_indexset(64), gap in 0usize..12) {
                let c = s.coalesce(gap);
                prop_assert!(s.is_subset(&c));
                // never grows past the bounding interval
                if let Some(b) = s.bounding() {
                    prop_assert!(c.is_subset(&IndexSet::from_intervals([b])));
                }
                // gap 0 is the identity
                prop_assert_eq!(s.coalesce(0), s);
            }
        }
    }
}
