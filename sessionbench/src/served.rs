//! One round of the served path: set up a broker behind `heimdall-net` on
//! a Unix-domain socket, run warm-up sessions, then time a fixed number
//! of closed-loop sessions from one authenticated technician connection,
//! and check every reply and the state the round leaves behind.

use crate::layers::twin_diff;
use crate::stats::{host_steal_ticks, peak_rss_mb, process_cpu_s, secs, thread_cpu_s};
use crate::workload::{Op, Session, Workload};
use heimdall::enforcer::concurrency::devices_fingerprint;
use heimdall::enforcer::verifier::Verdict;
use heimdall::net::{
    BoundAcceptor, BrokerFleet, NetClient, NetConfig, NetServer, TenantKeys, TraceOptions,
};
use heimdall::netmodel::gen::GeneratedNet;
use heimdall::netmodel::topology::Network;
use heimdall::routing::converge;
use heimdall::service::journal::KIND_PRIVILEGE_DERIVE;
use heimdall::service::{Broker, Request, Response};
use heimdall::store::record::decode;
use heimdall::store::{MemStorage, Storage};
use heimdall::verify::checker::check_policies;
use heimdall::verify::delta::VerifyContext;
use heimdall::verify::mine::{mine_policies, MinerInput};
use heimdall::verify::policy::PolicySet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const TENANT: &str = "tech";
const KEY: &[u8] = b"sessionbench-key";

/// Sessions run before timing starts, inside the set-up time. Even, so
/// production is back at its start when timing begins.
pub const WARMUP_SESSIONS: usize = 4;

/// Operations attempted and failed, with the first few failure notes.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one operation or check; a failure keeps its note.
    pub fn record(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(note());
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
    }
}

/// Client-observed latencies of the measured sessions.
#[derive(Debug, Default)]
pub struct Samples {
    pub cycle_ms: Vec<f64>,
    pub open_ms: Vec<f64>,
    pub exec_us: Vec<f64>,
    pub finish_ms: Vec<f64>,
}

/// Program counters read before and after the measured sessions.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub opens: u64,
    pub commits: u64,
    pub denials: u64,
    pub policies_checked: u64,
    pub delta_hits: u64,
    pub full_fallbacks: u64,
    pub derives: u64,
    pub appends: u64,
    pub syncs: u64,
    pub journal_bytes: u64,
    pub spans: u64,
    pub scrapes: u64,
}

impl Counters {
    fn read(broker: &Broker, storage: &MemStorage) -> Counters {
        let s = broker.stats();
        let (derives, journal_bytes) = journal_census(storage);
        Counters {
            opens: s.sessions_opened,
            commits: s.commits_applied,
            denials: s.denials,
            policies_checked: s.verify_policies_checked,
            delta_hits: s.verify_delta_hits,
            full_fallbacks: s.verify_full_fallbacks,
            derives,
            appends: storage.append_count(),
            syncs: storage.sync_count(),
            journal_bytes,
            spans: broker.telemetry().ring().pushed(),
            scrapes: broker.scrapes_total(),
        }
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            opens: self.opens - earlier.opens,
            commits: self.commits - earlier.commits,
            denials: self.denials - earlier.denials,
            policies_checked: self.policies_checked - earlier.policies_checked,
            delta_hits: self.delta_hits - earlier.delta_hits,
            full_fallbacks: self.full_fallbacks - earlier.full_fallbacks,
            derives: self.derives - earlier.derives,
            appends: self.appends - earlier.appends,
            syncs: self.syncs - earlier.syncs,
            journal_bytes: self.journal_bytes - earlier.journal_bytes,
            spans: self.spans - earlier.spans,
            scrapes: self.scrapes - earlier.scrapes,
        }
    }

    pub fn add(&mut self, o: &Counters) {
        self.opens += o.opens;
        self.commits += o.commits;
        self.denials += o.denials;
        self.policies_checked += o.policies_checked;
        self.delta_hits += o.delta_hits;
        self.full_fallbacks += o.full_fallbacks;
        self.derives += o.derives;
        self.appends += o.appends;
        self.syncs += o.syncs;
        self.journal_bytes += o.journal_bytes;
        self.spans += o.spans;
        self.scrapes += o.scrapes;
    }
}

/// Privilege-derivation records in the journal, and its total bytes.
fn journal_census(storage: &MemStorage) -> (u64, u64) {
    let mut derives = 0;
    let mut bytes = 0;
    for name in storage.list().unwrap_or_default() {
        let Ok(buf) = storage.read(&name) else {
            continue;
        };
        bytes += buf.len() as u64;
        if !name.starts_with("wal-") {
            continue;
        }
        let mut at = 0;
        while let Ok((rec, used)) = decode(&buf[at..]) {
            derives += u64::from(rec.kind == KIND_PRIVILEGE_DERIVE);
            at += used;
        }
    }
    (derives, bytes)
}

/// Everything one round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub setup_s: f64,
    pub measured_s: f64,
    pub cpu_s: f64,
    /// The process's peak RSS when the round's sessions were done.
    pub peak_rss_mb: f64,
    /// Host CPU steal ticks, and wall seconds, over the round's set-up
    /// and sessions.
    pub steal_ticks: u64,
    pub wall_s: f64,
    pub samples: Samples,
    pub counters: Counters,
    pub tally: Tally,
}

/// The program state a round is built from: the generated network and
/// its fingerprint, computed once per run.
pub struct Fixture {
    pub gen: GeneratedNet,
    pub fingerprint: String,
}

impl Fixture {
    pub fn new(w: Workload) -> Fixture {
        let gen = w.network();
        let fingerprint = fingerprint(&gen.net);
        Fixture { gen, fingerprint }
    }

    /// Mined policies, as the broker's set-up computes them.
    pub fn policies(&self) -> PolicySet {
        let cp = converge(&self.gen.net);
        mine_policies(&self.gen.net, &cp, &MinerInput::from_meta(&self.gen.meta))
    }
}

/// Fingerprint of every device configuration in `net`.
pub fn fingerprint(net: &Network) -> String {
    let names: Vec<&str> = net.devices().map(|(_, d)| d.name.as_str()).collect();
    devices_fingerprint(net, &names)
}

/// Runs one round of `count` measured sessions. `traced` turns on the
/// client's wire tracing, which the broker then follows.
pub fn run_round(
    w: Workload,
    fx: &Fixture,
    seed: u64,
    round: u64,
    count: usize,
    traced: bool,
) -> Round {
    let scripts = w.scripts(&fx.gen.net, seed, round, WARMUP_SESSIONS + count);
    let (warmup, measured) = scripts.split_at(WARMUP_SESSIONS);
    let production = fx.gen.net.clone();
    let storage = MemStorage::new();
    let sock = PathBuf::from(format!(".sessionbench-{}-{round}.sock", std::process::id()));
    let mut out = Round::default();

    let (t0, steal0) = (Instant::now(), host_steal_ticks());
    // `cp` lives to the end of the round. Freed here, its pages go to
    // whichever thread allocates next, and the first round's peak RSS
    // splits between two values from run to run.
    let cp = converge(&production);
    let policies = mine_policies(&production, &cp, &MinerInput::from_meta(&fx.gen.meta));
    let broker = Arc::new(
        Broker::open_durable(
            production,
            policies.clone(),
            w.broker_config(),
            Box::new(storage.clone()),
        )
        .expect("in-memory journal opens"),
    );
    let fleet = Arc::new(BrokerFleet::new(vec![Arc::clone(&broker)]));
    let mut keys = TenantKeys::new();
    keys.insert(TENANT, KEY);
    let acceptor = BoundAcceptor::uds(&sock).expect("bind the benchmark's socket");
    let server = NetServer::start(fleet, keys, NetConfig::default(), vec![acceptor]);
    let opts = if traced {
        TraceOptions::default()
    } else {
        TraceOptions::disabled()
    };
    let mut client =
        NetClient::connect_uds_with(&sock, TENANT, KEY, opts).expect("connect and authenticate");
    let mut warm = Samples::default();
    for s in warmup {
        if !run_session(&mut client, s, &mut out.tally, &mut warm) {
            break;
        }
    }
    out.setup_s = secs(t0);

    let before = Counters::read(&broker, &storage);
    let (mut check_cpu, mut check_s) = (0.0, 0.0);
    let cpu0 = process_cpu_s();
    let t1 = Instant::now();
    for (i, s) in measured.iter().enumerate() {
        if !run_session(&mut client, s, &mut out.tally, &mut out.samples) {
            break;
        }
        if w == Workload::RouteCommit && i % 2 == 1 {
            // Every add/remove pair must leave production as it found it.
            let (c0, t_check) = (thread_cpu_s(), Instant::now());
            let same = fingerprint(&broker.production()) == fx.fingerprint;
            out.tally
                .record(same, || format!("production drifted after session {i}"));
            check_cpu += thread_cpu_s() - c0;
            check_s += secs(t_check);
        }
    }
    out.measured_s = secs(t1) - check_s;
    out.peak_rss_mb = peak_rss_mb();
    out.steal_ticks = host_steal_ticks() - steal0;
    out.wall_s = secs(t0);
    out.cpu_s = process_cpu_s() - cpu0 - check_cpu;
    out.counters = Counters::read(&broker, &storage).since(&before);

    let _ = client.bye();
    let report = server.shutdown();
    out.tally.record(report.journals_synced, || {
        "journal not synced at shutdown".into()
    });
    check_round(w, fx, &broker, &policies, measured, seed, round, &mut out);
    out
}

/// Sends one session's requests, checking every reply. Returns false
/// when the connection itself failed and the round cannot go on.
fn run_session(c: &mut NetClient, s: &Session, tally: &mut Tally, samples: &mut Samples) -> bool {
    let t_cycle = Instant::now();
    let opened = c.call(Request::OpenSession {
        technician: String::new(),
        ticket: s.task.clone(),
    });
    let open_ms = secs(t_cycle) * 1e3;
    let session = match opened {
        Ok(Response::SessionOpened { session, .. }) => session,
        other => {
            tally.record(false, || format!("open {:?}: {other:?}", s.task));
            return other.is_ok();
        }
    };
    tally.record(true, String::new);
    let mut exec_us = Vec::new();
    for op in &s.ops {
        let t = Instant::now();
        let (reply, ok) = match op {
            Op::Topology => {
                let r = c.call(Request::TopologyView { session });
                let ok = matches!(r, Ok(Response::Topology { .. }));
                (r, ok)
            }
            Op::Analyze => {
                let r = c.call(Request::AnalyzeQuery {
                    session: Some(session),
                    spec: None,
                    ticket: None,
                });
                let ok = matches!(r, Ok(Response::Analysis { .. }));
                (r, ok)
            }
            Op::Exec { device, line } => {
                let r = c.call(Request::Exec {
                    session,
                    device: device.clone(),
                    line: line.clone(),
                });
                exec_us.push(secs(t) * 1e6);
                let ok = match &r {
                    Ok(Response::ExecOutput { output }) => exec_output_ok(line, output),
                    _ => false,
                };
                (r, ok)
            }
        };
        tally.record(ok, || format!("{op:?}: {reply:?}"));
        if reply.is_err() {
            return false;
        }
    }
    let t = Instant::now();
    let finished = c.call(Request::Finish { session });
    let finish_ms = secs(t) * 1e3;
    let cycle_ms = secs(t_cycle) * 1e3;
    let ok = finish_ok(s, &finished);
    tally.record(ok, || format!("finish {:?}: {finished:?}", s.ops));
    if finished.is_err() {
        return false;
    }
    samples.cycle_ms.push(cycle_ms);
    samples.open_ms.push(open_ms);
    samples.exec_us.extend(exec_us);
    samples.finish_ms.push(finish_ms);
    true
}

/// A probe from a healthy network must reach its target.
fn exec_output_ok(line: &str, output: &str) -> bool {
    if line.starts_with("ping ") {
        output.contains("success")
    } else {
        !output.starts_with('%')
    }
}

/// Commit sessions must land their one change; read-only sessions must
/// finish with none.
fn finish_ok(s: &Session, finished: &Result<Response, heimdall::net::ClientError>) -> bool {
    match finished {
        Ok(Response::Finished {
            verdict,
            applied,
            changes,
            ..
        }) => {
            *changes == s.changes && (s.changes == 0 || (*applied && *verdict == Verdict::Accepted))
        }
        _ => false,
    }
}

/// End-of-round checks on the state the sessions left behind.
#[allow(clippy::too_many_arguments)]
fn check_round(
    w: Workload,
    fx: &Fixture,
    broker: &Broker,
    policies: &PolicySet,
    measured: &[Session],
    seed: u64,
    round: u64,
    out: &mut Round,
) {
    let t = &mut out.tally;
    t.record(broker.verify_audit(), || {
        "audit chain does not verify".into()
    });
    t.record(fingerprint(&broker.production()) == fx.fingerprint, || {
        "production did not return to its start".into()
    });
    if let Some(cluster) = broker.repl_cluster() {
        let leader = cluster.node_chain(cluster.leader_id());
        let agree = (0..cluster.node_count()).all(|i| cluster.node_chain(i) == leader);
        t.record(agree, || "replica chain heads disagree".into());
    }
    let c = &out.counters;
    match w {
        Workload::Inspect => {
            t.record(c.denials == 0, || format!("{} denials", c.denials));
        }
        Workload::FabricAcl => {
            t.record(c.delta_hits == c.commits && c.full_fallbacks == 0, || {
                format!(
                    "{} of {} commits were delta hits, {} fell back",
                    c.delta_hits, c.commits, c.full_fallbacks
                )
            });
            let k = crate::stats::Rng::new(seed, round ^ 0x5EED).below(measured.len());
            let ok = delta_matches_full(&fx.gen.net, policies, measured, k);
            t.record(ok, || {
                format!("verify_delta != check_policies on session {k}")
            });
        }
        Workload::RouteCommit => {}
    }
}

/// Replays measured session `k` against the production it was committed
/// on and checks that delta verification agrees with a full check of the
/// same patched network.
fn delta_matches_full(
    start: &Network,
    policies: &PolicySet,
    measured: &[Session],
    k: usize,
) -> bool {
    let mut base = start.clone();
    if k % 2 == 1 {
        // A removal commits on top of its pair's add.
        let add = twin_diff(&base, &measured[k - 1]);
        if add.apply_to_network(&mut base).is_err() {
            return false;
        }
    }
    let diff = twin_diff(&base, &measured[k]);
    let mut patched = base.clone();
    if diff.apply_to_network(&mut patched).is_err() {
        return false;
    }
    let ctx = VerifyContext::build(&base, policies);
    let delta = ctx.verify_delta(&patched, &diff, policies);
    let full = check_policies(&patched, &converge(&patched), policies);
    !delta.summary.full_fallback && delta.report.results == full.results
}
