//! Domain inference on every shipped dataset equals the
//! materialise-and-sort path it replaced, column by column.

use mp_relation::{AttrKind, Domain, Relation};

fn check(name: &str, rel: &Relation) {
    for col in 0..rel.arity() {
        if rel.schema().attribute(col).unwrap().kind != AttrKind::Categorical {
            continue;
        }
        let inferred = Domain::infer(rel, col).unwrap();
        let mut reference = rel.column_values(col).unwrap();
        reference.sort();
        reference.dedup();
        assert_eq!(
            inferred,
            Domain::Categorical(reference),
            "{name}: column {col}"
        );
    }
}

#[test]
fn infer_matches_sort_on_shipped_datasets() {
    check("employee", &mp_datasets::employee());
    check("echocardiogram", &mp_datasets::echocardiogram());
    check("bank", &mp_datasets::bank_table(500).relation);
    check("car", &mp_datasets::car_table().0);
    check("iris", &mp_datasets::iris_like());
    check(
        "scale_relation",
        &mp_datasets::scale_relation(10_000, 7).unwrap().relation,
    );
}
