//! Latency guard for `mpriv serve` that holds on any host: with a 500 ms
//! io tick on the server and on every client, clean 2-, 3- and 4-party
//! sessions must each finish in under 250 ms and match the in-process
//! oracle. The relay writes each frame the moment it is queued and a
//! client tick returns as soon as a frame arrives, so a clean session
//! never waits out a read timeout; a relay or client that polls on the
//! tick needs several ticks per session and fails here.

use mp_federated::{
    outcome_matches, run_client_session, run_setup_protocol, ClientConfig, Party, PerfectTransport,
    RetryConfig, ServeConfig, Server,
};
use mp_metadata::SharePolicy;
use mp_observe::NoopRecorder;
use std::sync::Arc;
use std::time::{Duration, Instant};

const IO_TICK: Duration = Duration::from_millis(500);
const LIMIT: Duration = Duration::from_millis(250);
const SALT: u64 = 0xF1A7;
const POLICIES: [SharePolicy; 3] = [
    SharePolicy::PAPER_RECOMMENDED,
    SharePolicy::FULL,
    SharePolicy::NAMES_ONLY,
];

/// `n` parties over the 40-row fintech scenario, alternating the bank
/// and e-commerce slices.
fn parties(n: usize) -> Vec<Party> {
    let data = mp_datasets::fintech_scenario(40, 42);
    (0..n)
        .map(|p| {
            let slice = if p % 2 == 0 {
                &data.bank
            } else {
                &data.ecommerce
            };
            Party::new(
                format!("party{p}"),
                slice.relation.clone(),
                0,
                slice.dependencies.clone(),
            )
            .expect("fintech party")
        })
        .collect()
}

#[test]
fn clean_sessions_finish_well_within_one_io_tick() {
    let cfg = ServeConfig {
        io_tick: IO_TICK,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", cfg, Arc::new(NoopRecorder)).expect("bind");
    for n in 2..=4usize {
        let parties = parties(n);
        let policies: Vec<SharePolicy> = POLICIES.iter().copied().cycle().take(n).collect();
        let want = run_setup_protocol(
            &parties,
            &policies,
            SALT,
            &mut PerfectTransport::new(n),
            &RetryConfig::default(),
        )
        .expect("in-process reference setup");

        let start = Instant::now();
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = parties
                .iter()
                .zip(&policies)
                .enumerate()
                .map(|(p, (party, policy))| {
                    let addr = server.addr();
                    s.spawn(move || {
                        let cfg = ClientConfig {
                            io_tick: IO_TICK,
                            ..ClientConfig::new(n as u64, p, n, RetryConfig::default())
                        };
                        run_client_session(addr, &cfg, party, policy, SALT, &NoopRecorder)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let elapsed = start.elapsed();

        for (p, result) in results.iter().enumerate() {
            let outcome = result
                .as_ref()
                .unwrap_or_else(|e| panic!("{n}-party session, party {p}: {e}"));
            assert!(
                outcome_matches(outcome, p, &want),
                "{n}-party session, party {p} diverged from the in-process oracle"
            );
        }
        assert!(
            elapsed < LIMIT,
            "{n}-party session took {elapsed:?} with a {IO_TICK:?} io tick: a clean session waited on a read timeout"
        );
    }
    let report = server.shutdown();
    assert_eq!(report.sessions_completed, 3);
    assert_eq!(report.sessions_aborted, 0);
}
