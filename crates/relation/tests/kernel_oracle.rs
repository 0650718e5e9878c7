//! Equivalence oracle for the partition kernels: the code-indexed CSR
//! product, `g3` count and FD check must agree bit for bit with the
//! hash-map kernels they replaced, which live on here as test-only
//! reference functions over plain `Vec<Vec<usize>>` partitions.

use mp_relation::{Pli, Value};
use proptest::prelude::*;
use std::collections::HashMap;

/// A partition in the reference layout: stripped clusters, each sorted,
/// ordered by first row.
type RefPli = Vec<Vec<usize>>;

/// Reference single-column build: group rows by value in a hash map.
fn ref_from_column(column: &[Value]) -> RefPli {
    let mut groups: HashMap<&Value, Vec<usize>> = HashMap::new();
    for (i, v) in column.iter().enumerate() {
        groups.entry(v).or_default().push(i);
    }
    let mut clusters: RefPli = groups.into_values().filter(|g| g.len() >= 2).collect();
    clusters.sort_by_key(|c| c[0]);
    clusters
}

/// Reference row → cluster map of the stripped partition.
fn ref_signature(p: &RefPli, n_rows: usize) -> Vec<Option<usize>> {
    let mut sig = vec![None; n_rows];
    for (cid, cluster) in p.iter().enumerate() {
        for &row in cluster {
            sig[row] = Some(cid);
        }
    }
    sig
}

/// Reference full signature: singletons get fresh ids after the clusters.
fn ref_full_signature(p: &RefPli, n_rows: usize) -> Vec<usize> {
    let mut next = p.len();
    ref_signature(p, n_rows)
        .into_iter()
        .map(|s| {
            s.unwrap_or_else(|| {
                next += 1;
                next - 1
            })
        })
        .collect()
}

/// Reference product: one hash map of rows per cluster of `a`, keyed by
/// `b`'s cluster id.
fn ref_intersect(a: &RefPli, b: &RefPli, n_rows: usize) -> RefPli {
    let other = ref_signature(b, n_rows);
    let mut out: RefPli = Vec::new();
    let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
    for cluster in a {
        groups.clear();
        for &row in cluster {
            if let Some(oid) = other[row] {
                groups.entry(oid).or_default().push(row);
            }
        }
        out.extend(groups.drain().map(|(_, g)| g).filter(|g| g.len() >= 2));
    }
    out.sort_by_key(|c| c[0]);
    out
}

/// Reference `g3` numerator: one hash map of RHS-id counts per cluster.
fn ref_g3(p: &RefPli, rhs_full_sig: &[usize]) -> usize {
    let mut total = 0;
    let mut counts: HashMap<usize, usize> = HashMap::new();
    for cluster in p {
        counts.clear();
        for &row in cluster {
            *counts.entry(rhs_full_sig[row]).or_insert(0) += 1;
        }
        total += cluster.len() - counts.values().copied().max().unwrap_or(0);
    }
    total
}

/// Reference FD check: every cluster agrees with its first row.
fn ref_satisfies_fd(p: &RefPli, rhs_full_sig: &[usize]) -> bool {
    p.iter().all(|cluster| {
        let first = rhs_full_sig[cluster[0]];
        cluster[1..].iter().all(|&r| rhs_full_sig[r] == first)
    })
}

fn ref_unit(n_rows: usize) -> RefPli {
    if n_rows >= 2 {
        vec![(0..n_rows).collect()]
    } else {
        Vec::new()
    }
}

fn as_ref(p: &Pli) -> RefPli {
    p.clusters()
        .map(|c| c.iter().map(|&r| r as usize).collect())
        .collect()
}

/// Every kernel of the new `Pli` against the reference, over the given
/// columns (all of one length): single builds, full signatures, all
/// ordered pair products (with `unit()` on either side), the chain of
/// three products, and `g3`/FD checks of every column and product
/// against every column.
fn check_kernels(columns: &[Vec<Value>]) -> Result<(), TestCaseError> {
    let n = columns.first().map_or(0, Vec::len);
    let new: Vec<Pli> = columns.iter().map(|c| Pli::from_column(c)).collect();
    let old: Vec<RefPli> = columns.iter().map(|c| ref_from_column(c)).collect();
    let unit = Pli::unit(n);
    let mut lhs_new = vec![unit.clone()];
    let mut lhs_old = vec![ref_unit(n)];
    for (p, r) in new.iter().zip(&old) {
        prop_assert_eq!(&as_ref(p), r);
        prop_assert_eq!(p.full_signature(), ref_full_signature(r, n));
        prop_assert_eq!(p.heap_bytes(), csr_bytes(r));
        lhs_new.push(p.clone());
        lhs_old.push(r.clone());
    }
    for (i, (p, r)) in new.iter().zip(&old).enumerate() {
        prop_assert_eq!(as_ref(&p.intersect(&unit)), r.clone());
        prop_assert_eq!(
            as_ref(&unit.intersect(p)),
            ref_intersect(&ref_unit(n), r, n)
        );
        for (q, s) in new.iter().zip(&old).skip(i) {
            let pq = p.intersect(q);
            let rs = ref_intersect(r, s, n);
            prop_assert_eq!(&as_ref(&pq), &rs);
            prop_assert_eq!(&as_ref(&q.intersect(p)), &ref_intersect(s, r, n));
            prop_assert_eq!(pq.heap_bytes(), csr_bytes(&rs));
            lhs_new.push(pq);
            lhs_old.push(rs);
        }
    }
    if columns.len() >= 3 {
        let chain = new[0].intersect(&new[1]).intersect(&new[2]);
        let ref_chain = ref_intersect(&ref_intersect(&old[0], &old[1], n), &old[2], n);
        prop_assert_eq!(as_ref(&chain), ref_chain.clone());
        lhs_new.push(chain);
        lhs_old.push(ref_chain);
    }
    for (p, r) in lhs_new.iter().zip(&lhs_old) {
        for rhs in &new {
            let sig = rhs.full_signature();
            prop_assert_eq!(p.g3_violations(&sig), ref_g3(r, &sig));
            prop_assert_eq!(p.satisfies_fd(&sig), ref_satisfies_fd(r, &sig));
        }
    }
    Ok(())
}

/// The CSR accounting formula, `4 × (rows + offsets)`, where a partition
/// with clusters stores `clusters + 1` offsets and a key partition none.
fn csr_bytes(p: &RefPli) -> usize {
    let rows: usize = p.iter().map(Vec::len).sum();
    let offsets = if p.is_empty() { 0 } else { p.len() + 1 };
    4 * (rows + offsets)
}

fn ints(xs: &[i64]) -> Vec<Value> {
    xs.iter().map(|&x| Value::Int(x)).collect()
}

/// Up to four columns of one shared length (0–47 rows) whose cardinality
/// varies per column, from all-equal (`1`) to mostly distinct (`47`).
fn column_family() -> impl Strategy<Value = Vec<Vec<Value>>> {
    (
        0usize..48,
        1usize..5,
        prop::collection::vec(prop::collection::vec(0i64..1 << 20, 48), 4),
        prop::collection::vec(1i64..48, 4),
    )
        .prop_map(|(n, k, raw, cards)| {
            raw.iter()
                .zip(&cards)
                .take(k)
                .map(|(col, &card)| col[..n].iter().map(|x| Value::Int(x % card)).collect())
                .collect()
        })
}

proptest! {
    #[test]
    fn kernels_match_reference(columns in column_family()) {
        check_kernels(&columns)?;
    }
}

#[test]
fn kernels_match_reference_on_tiny_relations() {
    // Every column pattern over {0, 1, 2} of 0, 1 and 2 rows, three at a
    // time.
    for n in 0..=2usize {
        let patterns: Vec<Vec<Value>> = (0..3usize.pow(n as u32))
            .map(|code| {
                (0..n)
                    .map(|i| Value::Int(((code / 3usize.pow(i as u32)) % 3) as i64))
                    .collect()
            })
            .collect();
        for a in &patterns {
            for b in &patterns {
                for c in &patterns {
                    check_kernels(&[a.clone(), b.clone(), c.clone()]).unwrap();
                }
            }
        }
    }
}

#[test]
fn kernels_match_reference_on_equal_and_distinct_columns() {
    let n = 40;
    let equal = ints(&vec![7; n]);
    let distinct: Vec<Value> = (0..n as i64).map(Value::Int).collect();
    let reversed: Vec<Value> = (0..n as i64).rev().map(Value::Int).collect();
    let halves: Vec<Value> = (0..n as i64).map(|i| Value::Int(i % 2)).collect();
    check_kernels(&[equal.clone(), distinct.clone(), halves.clone()]).unwrap();
    check_kernels(&[distinct, equal.clone(), reversed]).unwrap();
    check_kernels(&[halves, equal.clone(), equal]).unwrap();
}
