//! Second integration suite for the extension features: sequential and
//! metric dependencies end to end, Bloom-filter PSI inside a session-like
//! flow, and the multi-party setup feeding training and attack.

use metadata_privacy::core::{run_attack, ExperimentConfig};
use metadata_privacy::datasets::fintech_scenario;
use metadata_privacy::discovery::{
    discover_mfds, discover_sds, discover_variable_cfds, MfdConfig, SdConfig, VariableCfdConfig,
};
use metadata_privacy::federated::{
    auc, bloom_candidate_rows, labels_from_column, multi_align, run_setup_protocol, train,
    BloomFilter, FeatureBlock, Party, PerfectTransport, RetryConfig, TrainConfig,
};
use metadata_privacy::metadata::{MetricFd, SequentialDep};
use metadata_privacy::prelude::*;
use metadata_privacy::synth::generate_sd_column;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn sd_discover_generate_validate_roundtrip() {
    // Plant a bounded-gap sequence, discover the SD, generate from it, and
    // confirm the synthetic pair satisfies exactly what was discovered.
    let schema = metadata_privacy::relation::Schema::new(vec![
        metadata_privacy::relation::Attribute::continuous("t"),
        metadata_privacy::relation::Attribute::continuous("level"),
    ])
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..40)
        .map(|i| {
            let gap = if i % 3 == 0 { 1.0 } else { 1.5 };
            vec![
                Value::Float(i as f64),
                Value::Float(5.0 + i as f64 * 1.25 + gap * 0.1),
            ]
        })
        .collect();
    let real = Relation::from_rows(schema, rows).unwrap();
    let sds = discover_sds(&real, &SdConfig::default()).unwrap();
    let sd = sds
        .iter()
        .find(|d| d.lhs == 0 && d.rhs == 1)
        .expect("SD discovered");
    assert!(sd.holds(&real).unwrap());

    // Generate from the discovered SD over the real determinant column.
    let mut rng = StdRng::seed_from_u64(4);
    let dom = Domain::infer(&real, 1).unwrap();
    let syn_col = generate_sd_column(
        &real.column_values(0).unwrap(),
        &dom,
        sd.min_gap,
        sd.max_gap,
        real.n_rows(),
        &mut rng,
    );
    let syn = Relation::from_columns(
        real.schema().clone(),
        vec![real.column_values(0).unwrap(), syn_col],
    )
    .unwrap();
    assert!(SequentialDep::new(0, 1, sd.min_gap, sd.max_gap)
        .holds(&syn)
        .unwrap());
}

#[test]
fn mfd_and_variable_cfd_on_fintech_data() {
    let data = fintech_scenario(200, 77);
    let bank = &data.bank.relation;
    // tier → limit is exact (limit = 2000·(tier+1)): excluded from MFDs by
    // default, so every reported MFD is genuinely approximate and holds.
    for mfd in discover_mfds(bank, &MfdConfig::default()).unwrap() {
        assert!(mfd.holds(bank).unwrap(), "{mfd}");
        assert!(!MetricFd::new(mfd.lhs, mfd.rhs, 0.0).holds(bank).unwrap());
    }
    // Variable CFDs hold on their partitions by construction of discovery.
    let cfds = discover_variable_cfds(
        bank,
        &VariableCfdConfig {
            min_support: 10,
            exclude_global_fds: true,
        },
    )
    .unwrap();
    for cfd in &cfds {
        assert!(cfd.holds(bank).unwrap(), "{cfd}");
    }
}

#[test]
fn bloom_psi_candidates_feed_exact_verification() {
    // Realistic two-step PSI: Bloom filter prunes candidates cheaply, the
    // digest protocol verifies them exactly — final alignment must equal
    // the pure digest alignment.
    let data = fintech_scenario(400, 13);
    let bank_ids = data.bank.relation.column_values(0).unwrap();
    let ecom_ids = data.ecommerce.relation.column_values(0).unwrap();

    let mut filter = BloomFilter::with_capacity(bank_ids.len(), 4, 0xB10);
    for id in &bank_ids {
        filter.insert(id);
    }
    let candidates = bloom_candidate_rows(&filter, &ecom_ids);
    // Exact verification on the candidate subset only.
    let candidate_ids: Vec<Value> = candidates.iter().map(|&r| ecom_ids[r].clone()).collect();
    let refined = multi_align(&[&bank_ids, &candidate_ids], 0xB10);

    let direct = multi_align(&[&bank_ids, &ecom_ids], 0xB10);
    assert_eq!(
        refined.len(),
        direct.len(),
        "two-step PSI must agree with direct PSI"
    );
    // Communication: the filter is far smaller than one digest per row.
    assert!(filter.size_bytes() < bank_ids.len() * 8);
}

#[test]
fn multiparty_setup_trains_and_audits() {
    let data = fintech_scenario(300, 21);
    let bank = Party::new("bank", data.bank.relation, 0, data.bank.dependencies).unwrap();
    let ecom = Party::new(
        "ecom",
        data.ecommerce.relation,
        0,
        data.ecommerce.dependencies,
    )
    .unwrap();
    let setup = run_setup_protocol(
        &[bank, ecom],
        &[SharePolicy::FULL, SharePolicy::PAPER_RECOMMENDED],
        5,
        &mut PerfectTransport::new(2),
        &RetryConfig::default(),
    )
    .unwrap();
    assert_eq!(setup.alignment.len(), 240);

    // Train on both slices.
    let labels = labels_from_column(&setup.aligned[0], 4).unwrap();
    let blocks = vec![
        FeatureBlock::encode(&setup.aligned[0], &[0, 1, 2, 3]).unwrap(),
        FeatureBlock::encode(&setup.aligned[1], &[0, 1, 2]).unwrap(),
    ];
    let model = train(blocks, &labels, &TrainConfig::default());
    assert!(auc(&model.predict(), &labels) > 0.8);

    // The e-commerce party followed the recommendation: its surface is
    // zero; the bank overshared: its surface is the domain-level leakage.
    let config = ExperimentConfig {
        rounds: 30,
        base_seed: 3,
        epsilon: 0.0,
    };
    let vs_ecom = run_attack(&setup.aligned[1], &setup.metadata[1], true, &config).unwrap();
    assert!(vs_ecom.per_attr.iter().all(|a| a.mean_matches == 0.0));
    let vs_bank = run_attack(&setup.aligned[0], &setup.metadata[0], true, &config).unwrap();
    assert!(vs_bank.per_attr.iter().any(|a| a.mean_matches > 1.0));
}

#[test]
fn relation_ops_support_hfl_recombination() {
    use metadata_privacy::federated::horizontal_split;
    let real = metadata_privacy::datasets::echocardiogram();
    let parts = horizontal_split(&real, 3).unwrap();
    let mut recombined = parts[0].clone();
    recombined.append(&parts[1]).unwrap();
    recombined.append(&parts[2]).unwrap();
    assert_eq!(recombined.n_rows(), real.n_rows());
    // Sorting both by a near-unique column makes them comparable.
    let a = recombined.sorted_by_column(2).unwrap();
    let b = real.sorted_by_column(2).unwrap();
    assert_eq!(a.column(2).unwrap(), b.column(2).unwrap());
}
