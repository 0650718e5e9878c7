//! `serve_closed`: a closed loop of two-party setup sessions against an
//! in-process `Server` on loopback TCP with the shipped defaults. Two
//! client threads, one per party, run one session at a time; of every 8
//! sessions one has its second party reset the connection after the
//! handshake and one has it stall on a partial frame.

use crate::check::Checks;
use crate::trace::ms_between;
use crate::{ms_since, repeat_setup, Ctx, Run};
use mp_federated::net::{encode_frame, FramedStream, ReadStep, SessionFrame, SocketStream};
use mp_federated::{
    outcome_matches, run_client_session, run_setup_protocol, ClientConfig, MultiSetupOutcome,
    Party, PartyOutcome, PerfectTransport, RetryConfig, ServeConfig, Server, SetupError,
};
use mp_metadata::SharePolicy;
use mp_observe::{NoopRecorder, Recorder, Registry};
use std::io::Write as _;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS: usize = 40;
const SALT: u64 = 0xF1A7;
const POLICIES: [SharePolicy; 2] = [SharePolicy::PAPER_RECOMMENDED, SharePolicy::FULL];
const CLIENT_THREADS: usize = 2;
/// A session that has not settled by then counts as hung.
const SESSION_LIMIT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    Reset,
    Stall,
}

/// Sessions in one round of the fault schedule.
const CYCLE: u64 = 8;

/// The fault schedule of `serve_soak`.
fn fault_for(index: u64) -> Fault {
    match index % CYCLE {
        5 => Fault::Reset,
        7 => Fault::Stall,
        _ => Fault::None,
    }
}

fn parties(seed: u64) -> Result<Vec<Party>, String> {
    let data = mp_datasets::fintech_scenario(ROWS, seed);
    let bank = Party::new("bank", data.bank.relation, 0, data.bank.dependencies);
    let ecommerce = Party::new(
        "ecommerce",
        data.ecommerce.relation,
        0,
        data.ecommerce.dependencies,
    );
    Ok(vec![
        bank.map_err(|e| e.to_string())?,
        ecommerce.map_err(|e| e.to_string())?,
    ])
}

fn oracle(parties: &[Party]) -> Result<MultiSetupOutcome, String> {
    let mut transport = PerfectTransport::new(parties.len());
    run_setup_protocol(
        parties,
        &POLICIES,
        SALT,
        &mut transport,
        &RetryConfig::default(),
    )
    .map_err(|e| format!("in-process setup: {e}"))
}

struct Setup {
    parties: Vec<Party>,
    oracle: MultiSetupOutcome,
    server: Server,
    start_ms: f64,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let parties = parties(seed)?;
    let oracle = oracle(&parties)?;
    let t = Instant::now();
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig::default(),
        Arc::new(NoopRecorder),
    )
    .map_err(|e| format!("bind: {e}"))?;
    Ok(Setup {
        parties,
        oracle,
        server,
        start_ms: ms_since(t),
    })
}

/// Joins the session as party 1, then injects the fault. Returns when
/// and how long the handshake (connect to `Welcome`) took.
fn faulty_party(addr: &str, session: u64, fault: Fault) -> Option<(Instant, Instant)> {
    let start = Instant::now();
    let stream = SocketStream::connect(addr).ok()?;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(2)));
    let mut framed = FramedStream::new(stream);
    framed
        .write_frame(&SessionFrame::Hello {
            session,
            party: 1,
            n_parties: 2,
        })
        .ok()?;
    loop {
        match framed.read_step() {
            Ok(ReadStep::Frame(SessionFrame::Welcome { .. })) => break,
            Ok(ReadStep::Eof) | Err(_) => return None,
            _ => {}
        }
    }
    let handshake = (start, Instant::now());
    match fault {
        Fault::Reset => {
            let _ = framed.socket().shutdown();
        }
        Fault::Stall => {
            // The first 3 bytes of a valid frame, then silence until the
            // server hangs up.
            let frame = encode_frame(&SessionFrame::Done { party: 1 });
            let _ = framed.socket_mut().write_all(&frame[..3]);
            let _ = framed.socket_mut().flush();
            loop {
                match framed.read_step() {
                    Ok(ReadStep::Frame(SessionFrame::Abort(_))) | Ok(ReadStep::Eof) | Err(_) => {
                        break
                    }
                    _ => {}
                }
            }
        }
        Fault::None => {}
    }
    Some(handshake)
}

enum Cmd {
    Session { id: u64, fault: Fault, traced: bool },
    Stop,
}

struct Reply {
    party: usize,
    start: Instant,
    end: Instant,
    /// `None` when this party injected the fault.
    result: Option<Result<PartyOutcome, SetupError>>,
    handshake: Option<(Instant, Instant)>,
    counters: Vec<(String, u64)>,
}

fn client_loop(
    party_index: usize,
    party: Party,
    addr: String,
    commands: mpsc::Receiver<Cmd>,
    replies: mpsc::Sender<Reply>,
) {
    while let Ok(Cmd::Session { id, fault, traced }) = commands.recv() {
        let registry = Registry::new();
        let recorder: &dyn Recorder = if traced { &registry } else { &NoopRecorder };
        let start = Instant::now();
        let (result, handshake) = if party_index == 1 && fault != Fault::None {
            (None, faulty_party(&addr, id, fault))
        } else {
            let cfg = ClientConfig::new(id, party_index, 2, RetryConfig::default());
            let outcome =
                run_client_session(&addr, &cfg, &party, &POLICIES[party_index], SALT, recorder);
            (Some(outcome), None)
        };
        let end = Instant::now();
        let counters = registry.snapshot().counters.into_iter().collect();
        let reply = Reply {
            party: party_index,
            start,
            end,
            result,
            handshake,
            counters,
        };
        if replies.send(reply).is_err() {
            return;
        }
    }
}

fn check_session(fault: Fault, replies: &[Reply], oracle: &MultiSetupOutcome) -> Checks {
    let mut c = Checks::default();
    for r in replies {
        match (&r.result, fault) {
            (None, _) => {}
            (Some(Ok(outcome)), Fault::None | Fault::Reset) => {
                // A reset session may complete once sessions resume.
                c.expect(outcome_matches(outcome, r.party, oracle), || {
                    format!(
                        "party {} outcome differs from the in-process oracle",
                        r.party
                    )
                });
            }
            (Some(Ok(_)), Fault::Stall) => c.expect(false, || "stalled session completed".into()),
            (Some(Err(e)), Fault::None) => c.expect(false, || format!("party {}: {e}", r.party)),
            // Any SetupError is a typed abort.
            (Some(Err(_)), _) => {}
        }
    }
    c
}

#[derive(Default)]
struct Samples {
    clean_ms: Vec<f64>,
    traced_clean_ms: Vec<f64>,
    reset_ms: Vec<f64>,
    stall_ms: Vec<f64>,
    handshake_ms: Vec<f64>,
    retransmits: Vec<f64>,
    backoff_ticks: Vec<f64>,
    settled: u64,
}

pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let mut run = ctx.run("--seed seeds mp_datasets::fintech_scenario for both parties");
    let mut start_ms = Vec::new();
    // Set-up computes (parties and oracle take most of it) and is
    // normalised; sessions wait on sockets and are timed in wall time,
    // which host speed barely moves.
    let (setup, setup_secs) = repeat_setup(|| {
        let s = setup(ctx.seed)?;
        start_ms.push(s.start_ms);
        Ok(s)
    })?;
    let Setup {
        parties,
        oracle,
        server,
        ..
    } = setup;
    run.measured.set_median("setup_s", &setup_secs);
    run.sizes = vec![
        ("rows_per_party", ROWS.to_string()),
        ("parties", parties.len().to_string()),
        (
            "fault_schedule",
            "of every 8 sessions, #5 reset and #7 stall".into(),
        ),
        ("setups", setup_secs.len().to_string()),
    ];
    run.limits = vec![
        ("client_threads", CLIENT_THREADS.to_string()),
        ("connections_per_session", CLIENT_THREADS.to_string()),
        ("sessions_in_flight", "1".into()),
    ];
    let addr = server.addr().to_owned();

    let (reply_tx, reply_rx) = mpsc::channel();
    let mut senders = Vec::new();
    let mut clients = Vec::new();
    for (p, party) in parties.iter().enumerate() {
        let (tx, rx) = mpsc::channel();
        senders.push(tx);
        let (party, addr, reply_tx) = (party.clone(), addr.clone(), reply_tx.clone());
        clients.push(std::thread::spawn(move || {
            client_loop(p, party, addr, rx, reply_tx)
        }));
    }
    drop(reply_tx);
    assert_eq!(clients.len(), CLIENT_THREADS, "one client thread per party");

    let mut s = Samples::default();
    let loop_start = Instant::now();
    let mut id = 0u64;
    let mut hung = None;
    // Whole cycles of the fault schedule only, so every run settles the
    // same mix of sessions.
    while !id.is_multiple_of(CYCLE)
        || loop_start.elapsed() < ctx.seconds
        || s.clean_ms.is_empty()
        || (run.trace.is_some() && s.traced_clean_ms.is_empty())
    {
        id += 1;
        let fault = fault_for(id - 1);
        let traced = run.trace.is_some() && id.is_multiple_of(2);
        for tx in &senders {
            tx.send(Cmd::Session { id, fault, traced })
                .map_err(|_| "client thread exited")?;
        }
        let mut replies = Vec::with_capacity(CLIENT_THREADS);
        for _ in 0..CLIENT_THREADS {
            match reply_rx.recv_timeout(SESSION_LIMIT) {
                Ok(r) => replies.push(r),
                Err(e) => {
                    hung = Some(format!("session {id} did not settle: {e}"));
                    break;
                }
            }
        }
        if let Some(e) = &hung {
            run.tally.error(&format!("session {id}"), e);
            break;
        }
        s.settled += 1;
        let first = replies.iter().map(|r| r.start).min().expect("two replies");
        let last = replies.iter().map(|r| r.end).max().expect("two replies");
        let ms = ms_between(first, last);
        let checks = check_session(fault, &replies, &oracle);
        let ok = checks.is_empty();
        run.tally.record(&format!("session {id}"), checks);
        match fault {
            Fault::None if ok && traced => s.traced_clean_ms.push(ms),
            Fault::None if ok => s.clean_ms.push(ms),
            Fault::None => {}
            Fault::Reset => s.reset_ms.push(ms),
            Fault::Stall => s.stall_ms.push(ms),
        }
        for r in &replies {
            if let Some((a, b)) = r.handshake {
                s.handshake_ms.push(ms_between(a, b));
            }
        }
        if traced && fault == Fault::None {
            let sum = |suffix: &str| {
                replies
                    .iter()
                    .flat_map(|r| &r.counters)
                    .filter(|(k, _)| k.starts_with("protocol.party.") && k.ends_with(suffix))
                    .map(|(_, v)| *v as f64)
                    .sum::<f64>()
            };
            s.retransmits.push(sum(".retransmits"));
            s.backoff_ticks.push(sum(".backoff_ticks"));
        }
        if let Some(trace) = run.trace.as_mut() {
            if traced {
                let root = trace.record("session", None, id, first, last);
                for r in &replies {
                    trace.record(
                        format!("client.p{}", r.party),
                        Some(root),
                        id,
                        r.start,
                        r.end,
                    );
                    if let Some((a, b)) = r.handshake {
                        trace.record("serve.handshake", Some(root), id, a, b);
                    }
                }
            }
        }
    }
    let loop_secs = loop_start.elapsed().as_secs_f64();
    if hung.is_some() {
        // A hung client cannot be joined; the process exit ends it.
        return Ok(run);
    }
    for tx in &senders {
        let _ = tx.send(Cmd::Stop);
    }
    for client in clients {
        if client.join().is_err() {
            run.tally.error("client thread", "panicked");
        }
    }
    let report = server.shutdown();

    let med = |xs: &[f64]| crate::stats::median(xs).unwrap_or(0.0);
    let m = &mut run.measured;
    if !s.clean_ms.is_empty() {
        let p50 = med(&s.clean_ms);
        let rate = s.settled as f64 / loop_secs;
        m.set("pass_ms_p50", p50, s.clean_ms.len());
        m.set("work_per_s", rate, s.settled as usize);
        if s.clean_ms.len() >= 100 {
            if let Some(p90) = crate::stats::tail(&s.clean_ms, 0.9) {
                m.report("pass_ms_p90", p90, "ms", s.clean_ms.len());
            }
        }
    }
    if let Some(trace) = run.trace.take() {
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        let inproc = inproc_probe(&parties)?;
        let session = med(&s.clean_ms);
        let started = report.sessions_started.max(1) as f64;
        m.set_median("protocol.setup_inproc_ms", &inproc);
        m.set(
            "protocol.retransmits",
            mean(&s.retransmits),
            s.retransmits.len(),
        );
        m.set(
            "protocol.backoff_ticks",
            mean(&s.backoff_ticks),
            s.backoff_ticks.len(),
        );
        m.set_median("serve.start_ms", &start_ms);
        m.set_median("serve.handshake_ms", &s.handshake_ms);
        m.set_median("serve.session_ms", &s.clean_ms);
        m.set(
            "serve.wait_share",
            1.0 - med(&inproc) / session,
            s.clean_ms.len(),
        );
        m.set(
            "serve.frames_in_per_session",
            report.frames_in as f64 / started,
            1,
        );
        m.set(
            "serve.frames_routed_per_session",
            report.frames_routed as f64 / started,
            1,
        );
        m.set("serve.max_queue_depth", report.max_queue_depth as f64, 1);
        m.set_median("serve.reset_abort_ms_p50", &s.reset_ms);
        m.set_median("serve.stall_abort_ms_p50", &s.stall_ms);
        m.set("serve.sessions_aborted", report.sessions_aborted as f64, 1);
        m.set(
            "trace.overhead_pct",
            (med(&s.traced_clean_ms) / session - 1.0) * 100.0,
            s.traced_clean_ms.len().min(s.clean_ms.len()),
        );
        run.trace = Some(trace);
    }
    Ok(run)
}

/// The same parties and policies through the in-process protocol over
/// `PerfectTransport`, timed per run.
fn inproc_probe(parties: &[Party]) -> Result<Vec<f64>, String> {
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 20 || (times.len() < 2000 && start.elapsed() < Duration::from_secs(1)) {
        let t = Instant::now();
        std::hint::black_box(oracle(parties)?);
        times.push(ms_since(t));
    }
    Ok(times)
}
