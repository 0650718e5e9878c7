//! End-to-end tests for `mpriv serve`: real socket sessions must be
//! byte-identical to the same seeds through [`PerfectTransport`], and
//! every injected failure must surface as a typed [`SetupError`].
//!
//! No wall-clock time appears here: client/server supervision runs on
//! io ticks (socket read timeouts), and the tests only ever block on
//! thread joins.

use mp_federated::net::{AbortReason, FramedStream, SessionFrame, SocketStream};
use mp_federated::{
    outcome_matches, run_client_session, run_setup_protocol, ClientConfig, MultiSetupOutcome,
    Party, PartyOutcome, PerfectTransport, RetryConfig, ServeConfig, Server, SetupError,
};
use mp_federated::{small_world_session, Envelope, MsgId, Payload};
use mp_metadata::SharePolicy;
use mp_observe::NoopRecorder;
use std::sync::Arc;

fn start_server() -> Server {
    Server::start(
        "127.0.0.1:0",
        ServeConfig::default(),
        Arc::new(NoopRecorder),
    )
    .expect("bind ephemeral TCP port")
}

/// Runs every party of one session concurrently against `addr`.
fn run_session(
    addr: &str,
    session_id: u64,
    parties: &[Party],
    policies: &[SharePolicy],
    salt: u64,
) -> Vec<Result<PartyOutcome, SetupError>> {
    let n = parties.len();
    let handles: Vec<_> = parties
        .iter()
        .zip(policies)
        .enumerate()
        .map(|(p, (party, policy))| {
            let addr = addr.to_owned();
            let party = party.clone();
            let policy = *policy;
            std::thread::spawn(move || {
                let cfg = ClientConfig::new(session_id, p, n, RetryConfig::default());
                run_client_session(&addr, &cfg, &party, &policy, salt, &NoopRecorder)
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("client thread never panics"))
        .collect()
}

/// The oracle: the same parties/policies/salt through the fault-free
/// in-process harness.
fn reference(parties: &[Party], policies: &[SharePolicy], salt: u64) -> MultiSetupOutcome {
    run_setup_protocol(
        parties,
        policies,
        salt,
        &mut PerfectTransport::new(parties.len()),
        &RetryConfig::default(),
    )
    .expect("fault-free reference setup completes")
}

fn fintech_parties(rows: usize, seed: u64) -> Vec<Party> {
    let data = mp_datasets::fintech_scenario(rows, seed);
    vec![
        Party::new("bank", data.bank.relation, 0, data.bank.dependencies).expect("bank party"),
        Party::new(
            "ecommerce",
            data.ecommerce.relation,
            0,
            data.ecommerce.dependencies,
        )
        .expect("ecommerce party"),
    ]
}

#[test]
fn socket_sessions_match_perfect_transport_across_seed_matrix() {
    let server = start_server();
    let addr = server.addr().to_owned();
    let policy_matrix = [
        [SharePolicy::PAPER_RECOMMENDED, SharePolicy::FULL],
        [SharePolicy::FULL, SharePolicy::FULL],
        [SharePolicy::NAMES_ONLY, SharePolicy::PAPER_RECOMMENDED],
    ];
    let mut session_id = 1u64;
    for data_seed in [42u64, 7, 99] {
        let parties = fintech_parties(40, data_seed);
        for policies in &policy_matrix {
            let salt = 0xF1A7 ^ data_seed;
            let want = reference(&parties, policies, salt);
            let got = run_session(&addr, session_id, &parties, policies, salt);
            session_id += 1;
            for (p, res) in got.iter().enumerate() {
                let outcome = res.as_ref().unwrap_or_else(|e| {
                    panic!("seed {data_seed} party {p}: socket session failed: {e}")
                });
                assert!(
                    outcome_matches(outcome, p, &want),
                    "seed {data_seed} party {p}: socket outcome diverged from PerfectTransport"
                );
            }
        }
    }
    let report = server.shutdown();
    assert_eq!(
        report.sessions_aborted, 0,
        "no session may abort: {report:?}"
    );
    assert_eq!(report.sessions_completed, 9);
}

#[test]
fn three_party_socket_session_matches_reference() {
    let (parties, policies, salt) = small_world_session(3).expect("3-party small world");
    let want = reference(&parties, &policies, salt);
    let server = start_server();
    let got = run_session(server.addr(), 77, &parties, &policies, salt);
    for (p, res) in got.iter().enumerate() {
        let outcome = res.as_ref().expect("party completes");
        assert!(outcome_matches(outcome, p, &want), "party {p} diverged");
    }
    let report = server.shutdown();
    assert_eq!(report.sessions_completed, 1);
}

/// Back-to-back sessions on one server: the relay must deliver every
/// `Complete` even when a client's late frame is still unread as the
/// session closes (a close with unread input resets the connection).
#[test]
fn back_to_back_three_party_sessions_all_match_reference() {
    let (parties, policies, salt) = small_world_session(3).expect("3-party small world");
    let want = reference(&parties, &policies, salt);
    let server = start_server();
    for session in 1000..1200u64 {
        let got = run_session(server.addr(), session, &parties, &policies, salt);
        for (p, res) in got.iter().enumerate() {
            let outcome = res
                .as_ref()
                .unwrap_or_else(|e| panic!("session {session} party {p}: {e}"));
            assert!(
                outcome_matches(outcome, p, &want),
                "session {session} party {p} diverged"
            );
        }
    }
    let report = server.shutdown();
    assert_eq!(report.sessions_completed, 200);
    assert_eq!(report.sessions_aborted, 0);
}

#[test]
fn concurrent_sessions_all_match_reference() {
    let server = start_server();
    let addr = server.addr().to_owned();
    let parties = fintech_parties(30, 42);
    let policies = [SharePolicy::PAPER_RECOMMENDED, SharePolicy::FULL];
    let salt = 0xF1A7;
    let want = reference(&parties, &policies, salt);

    // 8 sessions at once, every party its own thread (16 connections).
    let handles: Vec<_> = (0..8u64)
        .map(|s| {
            let addr = addr.clone();
            let parties = parties.clone();
            std::thread::spawn(move || run_session(&addr, 100 + s, &parties, &policies, salt))
        })
        .collect();
    for h in handles {
        let results = h.join().expect("session thread never panics");
        for (p, res) in results.iter().enumerate() {
            let outcome = res.as_ref().expect("concurrent session completes");
            assert!(outcome_matches(outcome, p, &want), "party {p} diverged");
        }
    }
    let report = server.shutdown();
    assert_eq!(report.sessions_completed, 8);
    assert_eq!(report.sessions_aborted, 0);
    assert!(
        report.max_queue_depth <= 64,
        "queue depth must stay bounded: {report:?}"
    );
}

#[test]
fn peer_disconnect_surfaces_as_party_crashed() {
    let server = start_server();
    let addr = server.addr().to_owned();
    let parties = fintech_parties(20, 42);

    // Party 1 joins, waits for Welcome, then drops the connection
    // mid-session — a connection-reset fault.
    let crasher = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let stream = SocketStream::connect(&addr).expect("connect");
            stream
                .set_read_timeout(Some(std::time::Duration::from_millis(2)))
                .expect("timeout");
            let mut framed = FramedStream::new(stream);
            framed
                .write_frame(&SessionFrame::Hello {
                    session: 500,
                    party: 1,
                    n_parties: 2,
                })
                .expect("hello");
            loop {
                if let Ok(mp_federated::net::ReadStep::Frame(SessionFrame::Welcome { .. })) =
                    framed.read_step()
                {
                    break;
                }
            }
            framed.socket().shutdown().expect("reset");
        })
    };

    let cfg = ClientConfig::new(500, 0, 2, RetryConfig::default());
    let result = run_client_session(
        &addr,
        &cfg,
        parties.first().expect("party 0"),
        &SharePolicy::FULL,
        1,
        &NoopRecorder,
    );
    crasher.join().expect("crasher joins");
    assert_eq!(
        result.expect_err("session with a crashed peer must fail"),
        SetupError::PartyCrashed { party: 1 },
        "disconnect must surface as the typed crash error"
    );
    let report = server.shutdown();
    assert_eq!(report.sessions_aborted, 1);
    assert_eq!(report.sessions_completed, 0);
}

#[test]
fn spoofed_sender_aborts_the_session() {
    let server = start_server();
    let addr = server.addr().to_owned();
    let parties = fintech_parties(20, 42);

    // Party 1 joins and then sends an envelope claiming to be party 0.
    let spoofer = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let stream = SocketStream::connect(&addr).expect("connect");
            stream
                .set_read_timeout(Some(std::time::Duration::from_millis(2)))
                .expect("timeout");
            let mut framed = FramedStream::new(stream);
            framed
                .write_frame(&SessionFrame::Hello {
                    session: 600,
                    party: 1,
                    n_parties: 2,
                })
                .expect("hello");
            loop {
                match framed.read_step() {
                    Ok(mp_federated::net::ReadStep::Frame(SessionFrame::Welcome { .. })) => break,
                    Ok(mp_federated::net::ReadStep::Eof) => return None,
                    _ => {}
                }
            }
            framed
                .write_frame(&SessionFrame::Envelope(Envelope {
                    id: MsgId(1),
                    from: 0, // spoofed: this connection joined as party 1
                    to: 0,
                    payload: Payload::Ack(MsgId(1)),
                }))
                .expect("spoofed envelope");
            // Wait for the server's verdict.
            loop {
                match framed.read_step() {
                    Ok(mp_federated::net::ReadStep::Frame(SessionFrame::Abort(reason))) => {
                        return Some(reason);
                    }
                    Ok(mp_federated::net::ReadStep::Eof) => return None,
                    _ => {}
                }
            }
        })
    };

    let cfg = ClientConfig::new(600, 0, 2, RetryConfig::default());
    let result = run_client_session(
        &addr,
        &cfg,
        parties.first().expect("party 0"),
        &SharePolicy::FULL,
        1,
        &NoopRecorder,
    );
    let reason = spoofer.join().expect("spoofer joins");
    assert_eq!(
        reason,
        Some(AbortReason::Spoofed { claimed: 0 }),
        "the spoofer must see the typed abort"
    );
    assert!(
        matches!(result, Err(SetupError::Data(_))),
        "the honest party fails closed with a typed error: {result:?}"
    );
    let report = server.shutdown();
    assert_eq!(report.spoof_rejected, 1);
    assert_eq!(report.sessions_aborted, 1);
}

#[cfg(unix)]
#[test]
fn unix_socket_session_matches_reference() {
    let path = std::env::temp_dir().join(format!("mpriv-serve-test-{}.sock", std::process::id()));
    let addr = format!("unix:{}", path.display());
    let server = Server::start(&addr, ServeConfig::default(), Arc::new(NoopRecorder))
        .expect("bind unix socket");
    let parties = fintech_parties(25, 42);
    let policies = [SharePolicy::PAPER_RECOMMENDED, SharePolicy::FULL];
    let want = reference(&parties, &policies, 3);
    let got = run_session(server.addr(), 900, &parties, &policies, 3);
    for (p, res) in got.iter().enumerate() {
        let outcome = res.as_ref().expect("unix session completes");
        assert!(outcome_matches(outcome, p, &want), "party {p} diverged");
    }
    let report = server.shutdown();
    assert_eq!(report.sessions_completed, 1);
    assert!(!path.exists(), "socket file removed on shutdown");
}
