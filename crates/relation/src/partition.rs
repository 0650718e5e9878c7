//! Stripped partitions (position list indexes) in the style of TANE
//! (Huhtala et al., cited as \[13\] in the paper).
//!
//! A partition Π_X groups tuple indices by their value on attribute set X.
//! The *stripped* form drops singleton groups, which keeps intersection
//! (the inner loop of level-wise FD discovery) proportional to the number of
//! duplicated tuples rather than |R|.
//!
//! Layout: a [`Pli`] is stored flat, in CSR form. `rows` holds every
//! clustered row index as a `u32`, cluster after cluster, and `offsets`
//! holds the cluster boundaries — 4 B per clustered row plus 4 B per
//! cluster, and no allocation per cluster. Row indices fit in `u32`
//! because relations reject more than `u32::MAX` rows
//! ([`crate::RelationError::TooManyRows`]).
//!
//! The kernels are code-indexed array passes, never hash maps: the
//! product and the `g3` count index a reusable table by the other side's
//! cluster or class id and reset it through the rows they just touched.

use crate::column::{group_value_codes, Column};
use crate::value::Value;

/// "No cluster" in a row → cluster-id probe, and "unclaimed" in a write
/// cursor table. Never a live value: a stripped partition of at most
/// `u32::MAX` rows has fewer than `u32::MAX / 2` clusters, and a cursor
/// can only reach `u32::MAX` once the last row of its span is placed.
const NONE: u32 = u32::MAX;

/// A stripped partition over the tuples of a relation.
///
/// Invariants: every cluster has length ≥ 2, clusters are internally sorted,
/// and clusters are sorted by their first element, so two `Pli`s computed
/// from equivalent groupings compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pli {
    /// Row indices of every cluster, cluster after cluster.
    rows: Vec<u32>,
    /// Cluster `k` is `rows[offsets[k]..offsets[k + 1]]`. Empty when the
    /// partition has no clusters, so key partitions retain nothing.
    offsets: Vec<u32>,
    n_rows: usize,
}

/// Appends the end of a just-completed cluster to CSR `offsets`.
fn push_end(offsets: &mut Vec<u32>, end: usize) {
    if offsets.is_empty() {
        offsets.push(0);
    }
    offsets.push(end as u32);
}

impl Pli {
    /// Builds the stripped partition of a single column.
    pub fn from_column(column: &[Value]) -> Self {
        let (codes, n_codes) = group_value_codes(column);
        Self::from_codes(&codes, n_codes)
    }

    /// Builds the stripped partition of a typed column, grouping by the
    /// column's equality-class codes — a single counting-style pass with no
    /// `Value` hashing. Produces output identical to [`Pli::from_column`]
    /// over the materialised values.
    pub fn from_typed(column: &Column) -> Self {
        let (codes, n_codes) = column.group_codes();
        Self::from_codes(&codes, n_codes)
    }

    /// Builds the stripped partition from per-row equality-class codes
    /// (`codes[i] < n_codes` for all rows; two rows share a code iff their
    /// cells are equal; at most `u32::MAX` rows). Counting-style: one pass
    /// sizes each group, and one pass claims each multi-row code's span at
    /// its first row and scatters the rows into it, so clusters come out
    /// internally sorted and ordered by first row without hashing or
    /// sorting.
    pub fn from_codes(codes: &[u32], n_codes: usize) -> Self {
        debug_assert!(codes.len() <= u32::MAX as usize);
        let mut counts = vec![0u32; n_codes];
        for &c in codes {
            counts[c as usize] += 1;
        }
        let covered: usize = counts
            .iter()
            .filter(|&&k| k >= 2)
            .map(|&k| k as usize)
            .sum();
        // Write cursor of each multi-row code's cluster, NONE until its
        // first row claims the span.
        let mut cursor = vec![NONE; n_codes];
        let mut rows = vec![0u32; covered];
        let mut offsets = Vec::new();
        let mut claimed = 0usize;
        for (row, &c) in codes.iter().enumerate() {
            let c = c as usize;
            let count = counts[c];
            if count < 2 {
                continue;
            }
            if cursor[c] == NONE {
                cursor[c] = claimed as u32;
                claimed += count as usize;
                push_end(&mut offsets, claimed);
            }
            rows[cursor[c] as usize] = row as u32;
            cursor[c] += 1;
        }
        Self {
            rows,
            offsets,
            n_rows: codes.len(),
        }
    }

    /// Estimated retained heap bytes: 4 B per clustered row plus 4 B per
    /// CSR offset (`4 × (rows + offsets)`). A deterministic function of
    /// the logical shape (lengths, never allocator capacities), so equal
    /// partitions always account equally in byte-budgeted caches.
    pub fn heap_bytes(&self) -> usize {
        (self.rows.len() + self.offsets.len()) * std::mem::size_of::<u32>()
    }

    /// Builds a partition directly from clusters (used by tests and by
    /// generators that know the grouping). Singleton clusters are stripped.
    /// Row indices must be below `u32::MAX`.
    pub fn from_clusters(mut clusters: Vec<Vec<usize>>, n_rows: usize) -> Self {
        clusters.retain(|c| c.len() >= 2);
        for c in &mut clusters {
            c.sort_unstable();
        }
        clusters.sort_by_key(|c| c.first().copied());
        let mut rows = Vec::with_capacity(clusters.iter().map(Vec::len).sum());
        let mut offsets = Vec::with_capacity(clusters.len() + 1);
        for c in &clusters {
            rows.extend(c.iter().map(|&r| r as u32));
            push_end(&mut offsets, rows.len());
        }
        Self {
            rows,
            offsets,
            n_rows,
        }
    }

    /// The single-cluster partition {{0..n}} (partition of the empty
    /// attribute set: all tuples agree on ∅). `n_rows ≤ u32::MAX`.
    pub fn unit(n_rows: usize) -> Self {
        debug_assert!(n_rows <= u32::MAX as usize);
        let mut offsets = Vec::new();
        let rows = if n_rows >= 2 {
            push_end(&mut offsets, n_rows);
            (0..n_rows as u32).collect()
        } else {
            Vec::new()
        };
        Self {
            rows,
            offsets,
            n_rows,
        }
    }

    /// Clusters of size ≥ 2, in order of first row, each a sorted slice of
    /// row indices.
    pub fn clusters(&self) -> impl ExactSizeIterator<Item = &[u32]> + Clone + '_ {
        self.offsets
            .iter()
            .zip(self.offsets.iter().skip(1))
            .map(|(&start, &end)| &self.rows[start as usize..end as usize])
    }

    /// Number of tuples in the underlying relation.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of (non-singleton) clusters, |Π| in TANE notation.
    pub fn cluster_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total tuples covered by non-singleton clusters, ||Π|| in TANE.
    pub fn covered_count(&self) -> usize {
        self.rows.len()
    }

    /// TANE's key-pruning error `e(X) = (||Π|| − |Π|) / |R|`: the fraction of
    /// tuples that must be removed for X to become a key. Zero iff X is a
    /// (super)key.
    pub fn key_error(&self) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        (self.covered_count() - self.cluster_count()) as f64 / self.n_rows as f64
    }

    /// `true` iff the attribute set is a superkey (no duplicate groups).
    pub fn is_key(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row → cluster-id map of the *full* partition: singleton rows receive
    /// fresh unique ids after the stripped clusters. Two rows share an id
    /// iff they agree on the attribute set, and every id is below
    /// `n_rows`.
    pub fn full_signature(&self) -> Vec<usize> {
        let mut sig = vec![usize::MAX; self.n_rows];
        for (cid, cluster) in self.clusters().enumerate() {
            for &row in cluster {
                sig[row as usize] = cid;
            }
        }
        let mut next = self.cluster_count();
        for s in &mut sig {
            if *s == usize::MAX {
                *s = next;
                next += 1;
            }
        }
        sig
    }

    /// Row → cluster-id probe of the stripped partition, [`NONE`] for rows
    /// in no cluster.
    fn probe(&self) -> Vec<u32> {
        let mut probe = vec![NONE; self.n_rows];
        for (cid, cluster) in self.clusters().enumerate() {
            for &row in cluster {
                probe[row as usize] = cid as u32;
            }
        }
        probe
    }

    /// Partition product Π_X ∩ Π_Y = Π_{X∪Y}, the TANE `STRIPPED_PRODUCT`.
    ///
    /// Builds a `u32` row → cluster probe of `other`, then splits each
    /// cluster of `self` in two passes over one slot table indexed by
    /// `other`'s cluster ids: the first counts the cluster's rows per id,
    /// the second claims an output span for every id holding ≥ 2 rows at
    /// its first row and scatters the rows into it. Each slot resets itself
    /// when its last row is placed. Linear in `n_rows + ||Π_self||`, plus a
    /// sort of the output spans by first row when the split clusters of
    /// later `self` clusters start before those of earlier ones.
    pub fn intersect(&self, other: &Pli) -> Pli {
        debug_assert_eq!(self.n_rows, other.n_rows);
        let probe = other.probe();
        // Per `other` cluster id: rows of the current `self` cluster not
        // yet placed, and the write cursor of its output span (NONE until
        // claimed).
        let mut pending = vec![0u32; other.cluster_count()];
        let mut cursor = vec![NONE; other.cluster_count()];
        let mut rows: Vec<u32> = Vec::new();
        // (first row, start, end) of every output cluster, in emission order.
        let mut spans: Vec<(u32, u32, u32)> = Vec::new();
        for cluster in self.clusters() {
            for &row in cluster {
                let id = probe[row as usize];
                if id != NONE {
                    pending[id as usize] += 1;
                }
            }
            for &row in cluster {
                let id = probe[row as usize];
                if id == NONE {
                    continue;
                }
                let id = id as usize;
                if cursor[id] == NONE {
                    let count = pending[id] as usize;
                    if count < 2 {
                        pending[id] = 0;
                        continue;
                    }
                    let start = rows.len();
                    rows.resize(start + count, 0);
                    cursor[id] = start as u32;
                    spans.push((row, start as u32, (start + count) as u32));
                }
                rows[cursor[id] as usize] = row;
                cursor[id] += 1;
                pending[id] -= 1;
                if pending[id] == 0 {
                    cursor[id] = NONE;
                }
            }
        }
        Self::from_spans(rows, spans, self.n_rows)
    }

    /// Assembles a partition from clusters laid out in `rows` as `spans`
    /// (first row, start, end), reordering them by first row if needed.
    fn from_spans(rows: Vec<u32>, mut spans: Vec<(u32, u32, u32)>, n_rows: usize) -> Pli {
        let mut offsets = Vec::with_capacity(spans.len() + 1);
        let in_order = spans
            .iter()
            .zip(spans.iter().skip(1))
            .all(|(a, b)| a.0 < b.0);
        if in_order {
            for &(_, _, end) in &spans {
                push_end(&mut offsets, end as usize);
            }
            return Pli {
                rows,
                offsets,
                n_rows,
            };
        }
        spans.sort_unstable_by_key(|&(first, _, _)| first);
        let mut ordered = Vec::with_capacity(rows.len());
        for &(_, start, end) in &spans {
            ordered.extend_from_slice(&rows[start as usize..end as usize]);
            push_end(&mut offsets, ordered.len());
        }
        Pli {
            rows: ordered,
            offsets,
            n_rows,
        }
    }

    /// `true` iff this partition refines `other`: every cluster of `self`
    /// lies inside one cluster (or singleton) of `other`.
    ///
    /// `Π_X` refines `Π_Y` iff the FD X → Y holds when `other` is the full
    /// partition of Y — use [`Pli::satisfies_fd`] for that check, which also
    /// handles `other`'s singleton identity correctly.
    pub fn refines(&self, other: &Pli) -> bool {
        self.satisfies_fd(&other.full_signature())
    }

    /// Checks the FD X → Y given `self` = Π_X and the full signature of Y
    /// (`rhs_full_sig`, from [`Pli::full_signature`] of Π_Y). Returns at
    /// the first row that disagrees with its cluster's first row.
    pub fn satisfies_fd(&self, rhs_full_sig: &[usize]) -> bool {
        self.clusters().all(|cluster| match cluster.split_first() {
            Some((&first, rest)) => {
                let y = rhs_full_sig[first as usize];
                rest.iter().all(|&r| rhs_full_sig[r as usize] == y)
            }
            None => true,
        })
    }

    /// Minimum number of tuples to delete so that X → Y holds — the
    /// numerator of the `g3` error (Kivinen & Mannila, paper ref \[14\]).
    ///
    /// For each X-cluster we keep the plurality Y-group and delete the rest;
    /// X-singletons never violate. `rhs_full_sig` is a full signature
    /// ([`Pli::full_signature`]): its ids index one count table of its own
    /// length, which each cluster resets through its rows.
    pub fn g3_violations(&self, rhs_full_sig: &[usize]) -> usize {
        if self.is_key() {
            return 0;
        }
        let mut counts = vec![0u32; rhs_full_sig.len()];
        let mut total = 0;
        for cluster in self.clusters() {
            let mut max = 0;
            for &row in cluster {
                let count = &mut counts[rhs_full_sig[row as usize]];
                *count += 1;
                max = max.max(*count);
            }
            for &row in cluster {
                counts[rhs_full_sig[row as usize]] = 0;
            }
            total += cluster.len() - max as usize;
        }
        total
    }

    /// The `g3` error of X → Y: violations normalised by |R|.
    pub fn g3_error(&self, rhs_full_sig: &[usize]) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        self.g3_violations(rhs_full_sig) as f64 / self.n_rows as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(xs: &[i64]) -> Vec<Value> {
        xs.iter().map(|&x| Value::Int(x)).collect()
    }

    fn groups(p: &Pli) -> Vec<Vec<u32>> {
        p.clusters().map(<[u32]>::to_vec).collect()
    }

    #[test]
    fn from_column_strips_singletons() {
        // values: a a b c c c  → clusters {0,1} {3,4,5}
        let p = Pli::from_column(&vals(&[1, 1, 2, 3, 3, 3]));
        assert_eq!(groups(&p), [vec![0, 1], vec![3, 4, 5]]);
        assert_eq!(p.cluster_count(), 2);
        assert_eq!(p.covered_count(), 5);
        assert!(!p.is_key());
    }

    #[test]
    fn key_column_has_empty_stripped_partition() {
        let p = Pli::from_column(&vals(&[1, 2, 3, 4]));
        assert!(p.is_key());
        assert_eq!(p.key_error(), 0.0);
    }

    #[test]
    fn key_error_matches_tane_formula() {
        let p = Pli::from_column(&vals(&[1, 1, 1, 2, 2, 9]));
        // ||Π|| = 5, |Π| = 2, |R| = 6 → e = 3/6.
        assert!((p.key_error() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn intersection_is_conjunction_of_groupings() {
        // X: a a a b b    Y: 1 1 2 2 2
        let x = Pli::from_column(&vals(&[10, 10, 10, 20, 20]));
        let y = Pli::from_column(&vals(&[1, 1, 2, 2, 2]));
        let xy = x.intersect(&y);
        // XY groups: (a,1):{0,1} (a,2):{2} (b,2):{3,4}
        assert_eq!(groups(&xy), [vec![0, 1], vec![3, 4]]);
    }

    #[test]
    fn intersection_with_unit_is_identity() {
        let x = Pli::from_column(&vals(&[1, 1, 2, 2, 3]));
        let u = Pli::unit(5);
        assert_eq!(x.intersect(&u), x);
        assert_eq!(u.intersect(&x), x);
    }

    #[test]
    fn intersection_commutes() {
        let x = Pli::from_column(&vals(&[1, 1, 2, 2, 3, 3, 3]));
        let y = Pli::from_column(&vals(&[5, 6, 6, 6, 5, 5, 6]));
        assert_eq!(x.intersect(&y), y.intersect(&x));
    }

    #[test]
    fn full_signature_distinguishes_singletons() {
        let p = Pli::from_column(&vals(&[7, 7, 8, 9]));
        let sig = p.full_signature();
        assert_eq!(sig[0], sig[1]);
        assert_ne!(sig[2], sig[3]);
        assert_ne!(sig[0], sig[2]);
    }

    #[test]
    fn fd_satisfaction() {
        // X: a a b b   Y: 1 1 2 2 → X→Y holds.
        let x = Pli::from_column(&vals(&[1, 1, 2, 2]));
        let y = Pli::from_column(&vals(&[9, 9, 8, 8]));
        assert!(x.satisfies_fd(&y.full_signature()));

        // Y': 1 2 2 2 → X→Y' violated in cluster {0,1}.
        let y2 = Pli::from_column(&vals(&[1, 2, 2, 2]));
        assert!(!x.satisfies_fd(&y2.full_signature()));
    }

    #[test]
    fn fd_with_rhs_singletons() {
        // X: a a   Y: 1 2 (distinct singletons) → violated.
        let x = Pli::from_column(&vals(&[1, 1]));
        let y = Pli::from_column(&vals(&[1, 2]));
        assert!(!x.satisfies_fd(&y.full_signature()));
    }

    #[test]
    fn g3_counts_minimum_deletions() {
        // X: a a a a  Y: 1 1 2 3 → keep plurality (1,1), delete 2 rows.
        let x = Pli::from_column(&vals(&[5, 5, 5, 5]));
        let y = Pli::from_column(&vals(&[1, 1, 2, 3]));
        assert_eq!(x.g3_violations(&y.full_signature()), 2);
        assert!((x.g3_error(&y.full_signature()) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn g3_zero_for_valid_fd() {
        let x = Pli::from_column(&vals(&[1, 1, 2]));
        let y = Pli::from_column(&vals(&[4, 4, 4]));
        assert_eq!(x.g3_violations(&y.full_signature()), 0);
    }

    #[test]
    fn refines_checks_containment() {
        let fine = Pli::from_clusters(vec![vec![0, 1], vec![2, 3]], 5);
        let coarse = Pli::from_clusters(vec![vec![0, 1, 2, 3]], 5);
        assert!(fine.refines(&coarse));
        assert!(!coarse.refines(&fine));
    }

    #[test]
    fn unit_of_tiny_relations() {
        assert!(Pli::unit(0).is_key());
        assert!(Pli::unit(1).is_key());
        assert_eq!(Pli::unit(2).cluster_count(), 1);
        assert_eq!(groups(&Pli::unit(3)), [vec![0, 1, 2]]);
    }

    #[test]
    fn product_orders_split_clusters_by_first_row() {
        // X: {0,3,4} {1,2}; Y: {0,1,2} {3,4}. The split of X's first
        // cluster yields {3,4}, which must follow {1,2} from its second.
        let x = Pli::from_codes(&[0, 1, 1, 0, 0], 2);
        let y = Pli::from_codes(&[0, 0, 0, 1, 1], 2);
        assert_eq!(groups(&x.intersect(&y)), [vec![1, 2], vec![3, 4]]);
        assert_eq!(x.intersect(&y), y.intersect(&x));
    }

    #[test]
    fn from_codes_orders_clusters_by_first_row() {
        // Code 2 first occurs before code 0.
        let p = Pli::from_codes(&[2, 2, 0, 1, 0], 3);
        assert_eq!(groups(&p), [vec![0, 1], vec![2, 4]]);
    }

    #[test]
    fn empty_relation_edge_cases() {
        let p = Pli::from_column(&[]);
        assert!(p.is_key());
        assert_eq!(p.key_error(), 0.0);
        assert_eq!(p.g3_error(&[]), 0.0);
    }

    #[test]
    fn from_codes_matches_from_column() {
        // codes: 1 1 2 0 0 3 1 → clusters {0,1,6} {3,4}
        let p = Pli::from_codes(&[1, 1, 2, 0, 0, 3, 1], 4);
        assert_eq!(groups(&p), [vec![0, 1, 6], vec![3, 4]]);
        assert_eq!(p, Pli::from_column(&vals(&[1, 1, 2, 0, 0, 3, 1])));
        assert!(Pli::from_codes(&[], 0).is_key());
    }

    #[test]
    fn heap_bytes_counts_spine_and_rows() {
        // 5 clustered rows and the offset spine [0, 2, 5], 4 B each.
        let p = Pli::from_clusters(vec![vec![0, 1], vec![2, 3, 4]], 6);
        assert_eq!(p.heap_bytes(), 4 * (5 + 3));
        // Key partitions retain nothing.
        assert_eq!(Pli::from_column(&vals(&[1, 2, 3])).heap_bytes(), 0);
    }

    #[test]
    fn from_typed_matches_from_column() {
        use crate::value::Value;
        let values = vec![
            Value::Int(2),
            Value::Float(2.0),
            Value::Null,
            Value::Null,
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Int(2),
        ];
        let boxed = Column::Boxed(values.clone());
        assert_eq!(Pli::from_typed(&boxed), Pli::from_column(&values));

        // Typed float layout with the int mask groups identically.
        let mut col = Column::default();
        for v in &values {
            col.push_value(v.clone());
        }
        assert!(matches!(col, Column::Float { .. }));
        assert_eq!(Pli::from_typed(&col), Pli::from_column(&values));
    }
}
