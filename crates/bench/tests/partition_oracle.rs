//! Partition-product oracle at scale: on a 100k-row `scale_relation`,
//! every attribute pair and triple's product (built the way the discovery
//! engine builds it, one single-column partition at a time) must equal an
//! independent grouping of the rows by their tuples of column codes, and
//! account exactly `4 × (rows + offsets)` bytes.

use mp_datasets::{scale_relation, SCALE_ARITY};
use mp_relation::{Pli, Relation};

const ROWS: usize = 100_000;

/// Stripped groups of rows sharing their code tuple on `attrs`, each
/// sorted, ordered by first row — by sorting rows on the tuple.
fn grouped_by_codes(codes: &[Vec<u32>], attrs: &[usize]) -> Vec<Vec<u32>> {
    let key = |row: usize| attrs.iter().map(|&a| codes[a][row]).collect::<Vec<u32>>();
    let mut rows: Vec<usize> = (0..ROWS).collect();
    rows.sort_by_cached_key(|&r| (key(r), r));
    let mut groups: Vec<Vec<u32>> = Vec::new();
    let mut last: Option<Vec<u32>> = None;
    for r in rows {
        let k = key(r);
        match groups.last_mut() {
            Some(g) if last.as_ref() == Some(&k) => g.push(r as u32),
            _ => groups.push(vec![r as u32]),
        }
        last = Some(k);
    }
    groups.retain(|g| g.len() >= 2);
    groups.sort_by_key(|g| g[0]);
    groups
}

fn check(rel: &Relation, codes: &[Vec<u32>], singles: &[Pli], attrs: &[usize]) {
    let mut product = singles[attrs[0]].clone();
    for &a in &attrs[1..] {
        product = product.intersect(&singles[a]);
    }
    let clusters: Vec<Vec<u32>> = product.clusters().map(<[u32]>::to_vec).collect();
    let expected = grouped_by_codes(codes, attrs);
    assert!(
        clusters == expected,
        "product of {attrs:?} differs from the grouping by code tuples"
    );
    let covered: usize = expected.iter().map(Vec::len).sum();
    let offsets = if expected.is_empty() {
        0
    } else {
        expected.len() + 1
    };
    assert_eq!(product.heap_bytes(), 4 * (covered + offsets), "{attrs:?}");
    assert_eq!(product.n_rows(), rel.n_rows());
}

#[test]
fn products_of_pairs_and_triples_match_code_tuple_grouping() {
    let rel = scale_relation(ROWS, 11).unwrap().relation;
    assert_eq!(rel.arity(), SCALE_ARITY);
    let codes: Vec<Vec<u32>> = (0..SCALE_ARITY)
        .map(|a| rel.column(a).unwrap().group_codes().0)
        .collect();
    let singles: Vec<Pli> = (0..SCALE_ARITY)
        .map(|a| Pli::from_typed(rel.column(a).unwrap()))
        .collect();
    for a in 0..SCALE_ARITY {
        check(&rel, &codes, &singles, &[a]);
        for b in a + 1..SCALE_ARITY {
            check(&rel, &codes, &singles, &[a, b]);
            for c in b + 1..SCALE_ARITY {
                check(&rel, &codes, &singles, &[a, b, c]);
            }
        }
    }
}
