//! Equivalence oracle for categorical domain inference: the
//! one-representative-per-class path of [`Domain::observed`] must equal
//! materialising every cell, sorting and de-duplicating, including on the
//! values whose equality is subtle (nulls, NaN payloads, signed zeros,
//! integers against floats, integers beyond 2^53) and on the boxed layout.

use mp_relation::{Attribute, Column, Domain, Relation, Schema, Value};
use proptest::prelude::*;

/// The materialise-and-sort path `Domain::infer` took before.
fn reference(column: &Column) -> Vec<Value> {
    let mut vals = column.to_values();
    vals.sort();
    vals.dedup();
    vals
}

/// Bit-level view, so `-0.0` vs `0.0` and NaN payloads must match too.
fn bits(vals: &[Value]) -> Vec<(u8, u64, String)> {
    vals.iter()
        .map(|v| match v {
            Value::Null => (0, 0, String::new()),
            Value::Int(i) => (1, *i as u64, String::new()),
            Value::Float(f) => (2, f.to_bits(), String::new()),
            Value::Text(s) => (3, 0, s.clone()),
        })
        .collect()
}

const BIG: i64 = 1 << 53;

/// Cells whose equality is easy to get wrong.
fn tricky_pool() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Float(f64::NAN),
        Value::Float(-f64::NAN),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Int(0),
        Value::Int(2),
        Value::Float(2.0),
        Value::Float(2.5),
        Value::Int(BIG),
        Value::Int(BIG + 1),
        Value::Int(BIG + 2),
        Value::Float(BIG as f64),
        Value::Float((BIG + 2) as f64),
        Value::Int(i64::MAX),
        Value::Int(i64::MIN),
        Value::Float(f64::INFINITY),
    ]
}

fn text_pool() -> Vec<Value> {
    ["a", "b", "B", "", "a "]
        .iter()
        .map(|&s| Value::Text(s.to_owned()))
        .chain([Value::Null])
        .collect()
}

/// Draws `0..40` cells from `pool`; `boxed` picks the layout: pushed into
/// a typed column (which may itself demote to `Boxed`) or boxed outright.
fn column_from(pool: Vec<Value>) -> impl Strategy<Value = Column> {
    (prop::collection::vec(0usize..64, 0..40), any::<bool>()).prop_map(move |(picks, boxed)| {
        let values: Vec<Value> = picks
            .iter()
            .map(|&i| pool[i % pool.len()].clone())
            .collect();
        if boxed {
            Column::Boxed(values)
        } else {
            let mut col = Column::default();
            for v in values {
                col.push_value(v);
            }
            col
        }
    })
}

proptest! {
    #[test]
    fn observed_matches_sort_on_tricky_columns(col in column_from(tricky_pool())) {
        let Domain::Categorical(vals) = Domain::observed(&col) else {
            unreachable!("observed domains are categorical");
        };
        prop_assert_eq!(bits(&vals), bits(&reference(&col)));
    }

    #[test]
    fn observed_matches_sort_on_text_columns(col in column_from(text_pool())) {
        let Domain::Categorical(vals) = Domain::observed(&col) else {
            unreachable!("observed domains are categorical");
        };
        prop_assert_eq!(bits(&vals), bits(&reference(&col)));
    }

    #[test]
    fn infer_matches_sort_on_categorical_attributes(col in column_from(tricky_pool())) {
        // Categorical attributes reject mixed int/float columns; every
        // column they accept must infer the reference domain.
        let schema = Schema::new(vec![Attribute::categorical("x")]).unwrap();
        if let Ok(rel) = Relation::from_typed_columns(schema, vec![col.clone()]) {
            let dom = Domain::infer(&rel, 0).unwrap();
            prop_assert_eq!(bits(dom.values().unwrap()), bits(&reference(&col)));
        }
    }
}

#[test]
fn observed_keeps_first_occurrence_of_equal_cells() {
    // `-0.0` first: the reference's stable sort keeps it, and so must the
    // representative of the merged class.
    let col = Column::Boxed(vec![Value::Float(-0.0), Value::Float(0.0), Value::Null]);
    assert_eq!(
        bits(Domain::observed(&col).values().unwrap()),
        bits(&reference(&col))
    );
    let mut typed = Column::default();
    typed.push_value(Value::Float(0.0));
    typed.push_value(Value::Float(-0.0));
    assert_eq!(
        bits(Domain::observed(&typed).values().unwrap()),
        bits(&reference(&typed))
    );
}
