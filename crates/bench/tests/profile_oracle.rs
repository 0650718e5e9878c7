//! Profile-pass oracle at scale: on a 100k-row `scale_relation`, the
//! CFD, MFD and OFD passes of the profiler, which read the shared
//! discovery context, must return exactly what the reference per-pair
//! loops over mp-metadata's boxed-`Value` validators return, order
//! included.

#[path = "../../discovery/tests/reference/mod.rs"]
mod reference;

use mp_datasets::scale_relation;
use mp_discovery::{
    discover_cfds, discover_mfds, CfdConfig, DependencyProfile, DiscoveryContext, MfdConfig,
    ParallelConfig, ProfileConfig,
};

const ROWS: usize = 100_000;

#[test]
fn cfd_mfd_and_ofd_passes_match_the_reference_loops() {
    let rel = scale_relation(ROWS, 11).unwrap().relation;
    // The DD pass is quadratic in the ε-window and not under test here.
    let config = ProfileConfig {
        dd: None,
        ..ProfileConfig::paper()
    };
    let ctx = DiscoveryContext::new(&rel, ParallelConfig::default());
    let profile = DependencyProfile::discover_with(&ctx, &config).unwrap();

    let cfd = config.cfd.clone().unwrap_or_default();
    let mfd = config.mfd.clone().unwrap_or_default();
    assert_eq!(profile.cfds, reference::cfds(&rel, &cfd), "CFDs");
    assert_eq!(profile.mfds, reference::mfds(&rel, &mfd), "MFDs");
    assert_eq!(profile.ofds, reference::ofds(&rel, true), "OFDs");
    // Planted monotone pairs and repeated labels make the OFD and CFD
    // comparisons non-trivial.
    assert!(!profile.ofds.is_empty() && !profile.cfds.is_empty());

    // With exact FDs (δ = 0) and FD pairs kept, the MFD comparison is
    // non-trivial too.
    let with_fds = MfdConfig {
        exclude_fds: false,
        ..mfd
    };
    let want_mfds = reference::mfds(&rel, &with_fds);
    assert!(!want_mfds.is_empty());
    assert_eq!(
        discover_mfds(&rel, &with_fds).unwrap(),
        want_mfds,
        "MFDs with FDs"
    );
    let unfiltered = CfdConfig {
        exclude_fd_pairs: false,
        ..cfd
    };
    let want_cfds = reference::cfds(&rel, &unfiltered);
    assert_eq!(
        discover_cfds(&rel, &unfiltered).unwrap(),
        want_cfds,
        "CFDs with FD pairs"
    );
}
