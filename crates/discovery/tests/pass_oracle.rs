//! Equivalence oracle for the context-backed CFD, MFD and OFD passes.
//!
//! The passes read cached typed partitions and one shared order sweep;
//! the reference loops in `reference/` check every attribute pair through
//! mp-metadata's boxed-`Value` validators. Both must return the same
//! vectors, order included, under every thread count, with the cache off
//! and under a byte budget too small to keep anything — on random
//! relations with nulls, X-ties, Int/Float-mixed, text, constant and
//! all-null columns, on 0–2 rows, and on the planted `all_classes_spec`
//! relations.

mod reference;

use mp_datasets::all_classes_spec;
use mp_discovery::{
    discover_cfds, discover_mfds, discover_ofds, discover_ofds_with, CfdConfig, DependencyProfile,
    DiscoveryContext, MemoryBudget, MfdConfig, ParallelConfig, ProfileConfig,
};
use mp_relation::{Attribute, Relation, Schema, Value};
use proptest::prelude::*;

/// One generated row: text, a mixed numeric (`true` = pushed as `Int`),
/// two small integers and a constant label, each possibly null.
type Row = (
    Option<u8>,
    Option<(i64, bool)>,
    Option<i64>,
    Option<i64>,
    Option<u8>,
);

fn row_strategy() -> impl Strategy<Value = Row> {
    (
        prop::option::of(0u8..3),
        prop::option::of((0i64..4, any::<bool>())),
        prop::option::of(0i64..3),
        prop::option::of(0i64..3),
        prop::option::of(0u8..1),
    )
}

/// Builds the relation the rows describe. `num` holds `Int(v)` or
/// `Float(v / 2)`, so `Int(1)` and `Float(1.0)` tie; `mono` is a strictly
/// increasing image of `num` (planted OFDs); `big` is a boxed column
/// (an `Int` past 2^53 next to `Float`s); `void` is all null.
fn relation(rows: &[Row]) -> Relation {
    let schema = Schema::new(vec![
        Attribute::categorical("text"),
        Attribute::continuous("num"),
        Attribute::continuous("mono"),
        Attribute::continuous("small"),
        Attribute::categorical("code"),
        Attribute::categorical("const"),
        Attribute::continuous("big"),
        Attribute::continuous("void"),
    ])
    .unwrap();
    let data = rows
        .iter()
        .map(|&(text, num, small, code, constant)| {
            let x = num.map(|(v, int)| if int { v as f64 } else { v as f64 / 2.0 });
            vec![
                text.map_or(Value::Null, |t| {
                    Value::Text(["a", "b", "c"][t as usize].into())
                }),
                match num {
                    Some((v, true)) => Value::Int(v),
                    Some((v, false)) => Value::Float(v as f64 / 2.0),
                    None => Value::Null,
                },
                x.map_or(Value::Null, |x| Value::Float(3.0 * x - 1.0)),
                small.map_or(Value::Null, Value::Int),
                code.map_or(Value::Null, Value::Int),
                constant.map_or(Value::Null, |_| Value::Text("k".into())),
                match small {
                    Some(0) => Value::Int((1 << 60) + 1),
                    Some(v) => Value::Float(v as f64),
                    None => Value::Null,
                },
                Value::Null,
            ]
        })
        .collect();
    Relation::from_rows(schema, data).unwrap()
}

/// Every engine configuration the passes must agree under.
fn contexts(rel: &Relation) -> Vec<DiscoveryContext<'_>> {
    let mut out: Vec<DiscoveryContext<'_>> = [1, 2, 4]
        .into_iter()
        .flat_map(|threads| {
            [
                DiscoveryContext::new(
                    rel,
                    ParallelConfig {
                        threads,
                        ..ParallelConfig::default()
                    },
                ),
                DiscoveryContext::new(rel, ParallelConfig::uncached(threads)),
            ]
        })
        .collect();
    out.push(DiscoveryContext::with_budget(
        rel,
        ParallelConfig::uncached(2),
        MemoryBudget::from_bytes(16),
    ));
    out.push(DiscoveryContext::with_budget(
        rel,
        ParallelConfig::default(),
        MemoryBudget::from_bytes(16),
    ));
    out
}

/// Asserts every context-backed entry point equals the reference loops.
fn assert_passes_match_reference(rel: &Relation, cfd: &CfdConfig, mfd: &MfdConfig) {
    let want_cfds = reference::cfds(rel, cfd);
    let want_mfds = reference::mfds(rel, mfd);
    let want_ofds = reference::ofds(rel, true);
    let want_all_ofds = reference::ofds(rel, false);
    assert_eq!(discover_cfds(rel, cfd).unwrap(), want_cfds, "discover_cfds");
    assert_eq!(discover_mfds(rel, mfd).unwrap(), want_mfds, "discover_mfds");
    assert_eq!(
        discover_ofds(rel, true).unwrap(),
        want_ofds,
        "discover_ofds"
    );
    let config = ProfileConfig {
        afd_threshold: None,
        dd: None,
        cfd: Some(cfd.clone()),
        mfd: Some(mfd.clone()),
        ..ProfileConfig::paper()
    };
    for ctx in contexts(rel) {
        let label = format!("{:?}", ctx.parallel());
        let profile = DependencyProfile::discover_with(&ctx, &config).unwrap();
        assert_eq!(profile.cfds, want_cfds, "profile CFDs under {label}");
        assert_eq!(profile.mfds, want_mfds, "profile MFDs under {label}");
        assert_eq!(profile.ofds, want_ofds, "profile OFDs under {label}");
        let all = discover_ofds_with(&ctx, false).unwrap();
        assert_eq!(all, want_all_ofds, "OFDs with constants under {label}");
    }
}

fn cfd_config(min_support: usize, exclude_fd_pairs: bool) -> CfdConfig {
    CfdConfig {
        min_support,
        exclude_fd_pairs,
    }
}

fn mfd_config(delta_fraction: f64, exclude_fds: bool) -> MfdConfig {
    MfdConfig {
        delta_fraction,
        exclude_fds,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn passes_match_reference_on_random_relations(
        rows in prop::collection::vec(row_strategy(), 0..24),
        min_support in 1usize..4,
        exclude_fd_pairs in any::<bool>(),
        delta_fraction in 0.0f64..1.0,
        exclude_fds in any::<bool>(),
    ) {
        assert_passes_match_reference(
            &relation(&rows),
            &cfd_config(min_support, exclude_fd_pairs),
            &mfd_config(delta_fraction, exclude_fds),
        );
    }

    #[test]
    fn passes_match_reference_on_zero_to_two_rows(
        rows in prop::collection::vec(row_strategy(), 0..=2),
        exclude in any::<bool>(),
    ) {
        assert_passes_match_reference(
            &relation(&rows),
            &cfd_config(1, exclude),
            &mfd_config(1.0, exclude),
        );
    }
}

#[test]
fn passes_match_reference_on_planted_relations() {
    for seed in [3, 7, 19, 40] {
        let rel = all_classes_spec(150, seed).generate().unwrap().relation;
        assert_passes_match_reference(&rel, &CfdConfig::default(), &MfdConfig::default());
        assert_passes_match_reference(&rel, &cfd_config(2, false), &mfd_config(0.5, false));
    }
}

#[test]
fn planted_relations_exercise_every_pass() {
    // The oracle above compares non-empty outputs, not only empty ones.
    let rel = all_classes_spec(150, 7).generate().unwrap().relation;
    assert!(!reference::cfds(&rel, &CfdConfig::default()).is_empty());
    assert!(!reference::mfds(&rel, &mfd_config(0.5, false)).is_empty());
    assert!(!reference::ofds(&rel, true).is_empty());
}
