//! Per-layer timings for the traced run. The benchmark calls each
//! module's public functions itself, on the same generated sessions the
//! served path runs, and times every call from here; nothing inside the
//! program is instrumented for it.

use crate::served::{Counters, Fixture, Tally, WARMUP_SESSIONS};
use crate::stats::{median, ratio, timed};
use crate::workload::{host_address, Op, Session, Workload};
use heimdall::analyze::analyze;
use heimdall::dataplane::{DataPlane, Flow};
use heimdall::enforcer::scheduler::schedule_with;
use heimdall::enforcer::verifier::{CachedVerifier, Verdict};
use heimdall::netmodel::diff::ConfigDiff;
use heimdall::netmodel::topology::Network;
use heimdall::privilege::derive::derive_privileges;
use heimdall::repl::{NodeStorage, ReplCluster, ReplConfig};
use heimdall::routing::converge;
use heimdall::service::{Broker, Request, Response};
use heimdall::store::{MemStorage, Wal, WalConfig};
use heimdall::twin::{slice_for_task, TwinSession};
use heimdall::verify::checker::check_policies;
use heimdall::verify::delta::VerifyContext;
use heimdall::verify::policy::PolicySet;

/// Technician name for in-process sessions.
const TECH: &str = "tech";

/// Heavy calls (converge, full policy check, context build) are timed on
/// at most this many sessions of a pass.
const HEAVY_SAMPLES: usize = 8;

/// Journal appends timed against a bare WAL and a bare replica group.
const JOURNAL_APPENDS: usize = 400;

/// Record kind for the bare-journal timings (any byte the broker does
/// not use).
const BENCH_RECORD_KIND: u8 = 0xB0;

/// Replays a session on a fresh twin of `base` and returns the change-set
/// its finish would hand to the enforcer.
pub fn twin_diff(base: &Network, s: &Session) -> ConfigDiff {
    let spec = derive_privileges(base, &s.task);
    let mut twin = TwinSession::open(TECH, slice_for_task(base, &s.task), spec);
    for op in &s.ops {
        if let Op::Exec { device, line } = op {
            let _ = twin.exec(device, line);
        }
    }
    twin.finish().0
}

/// One per-layer metric: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

/// What the served rounds of a traced run contribute to the per-layer
/// report: the counters and latencies of the untraced rounds, and the
/// cycle medians with and without tracing.
pub struct ServedView {
    pub sessions: usize,
    pub counters: Counters,
    pub client_exec_us: f64,
    pub cycle_untraced_ms: f64,
    pub cycle_traced_ms: f64,
}

/// Samples of one timed call, in seconds.
#[derive(Default)]
struct Timer(Vec<f64>);

impl Timer {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (r, s) = timed(f);
        self.0.push(s);
        r
    }

    fn us(&self) -> f64 {
        median(&self.0) * 1e6
    }

    fn ms(&self) -> f64 {
        median(&self.0) * 1e3
    }
}

/// Module-level timings along the session cycle, on a production mirror
/// the benchmark advances itself.
#[derive(Default)]
struct Modules {
    clone: Timer,
    derive: Timer,
    analyze: Timer,
    slice: Timer,
    twin_exec: Timer,
    twin_diff: Timer,
    verify: Timer,
    diff_apply: Timer,
    schedule: Timer,
    advance: Timer,
    verify_delta: Timer,
    converge: Timer,
    check: Timer,
    context_build: Timer,
    trace: Timer,
}

fn modules(net: &Network, policies: &PolicySet, sessions: &[Session], t: &mut Tally) -> Modules {
    let mut m = Modules::default();
    let mut prod = net.clone();
    let mut cv = CachedVerifier::new(&prod, policies);
    for (i, s) in sessions.iter().enumerate() {
        let heavy = i < HEAVY_SAMPLES;
        m.clone.time(|| prod.clone());
        let spec = m.derive.time(|| derive_privileges(&prod, &s.task));
        m.analyze.time(|| analyze(&prod, &s.task, &spec));
        let slice = m.slice.time(|| slice_for_task(&prod, &s.task));
        let mut twin = TwinSession::open(TECH, slice, spec.clone());
        for op in &s.ops {
            if let Op::Exec { device, line } = op {
                let r = m.twin_exec.time(|| twin.exec(device, line));
                t.record(r.is_ok(), || format!("twin exec {line}: {r:?}"));
            }
        }
        let (diff, _monitor) = m.twin_diff.time(|| twin.finish());
        t.record(diff.len() == s.changes, || {
            format!("twin diff has {} changes", diff.len())
        });
        let (report, patched, accepted) =
            m.verify.time(|| cv.verify(&prod, &diff, policies, &spec));
        let (Some(patched), Some(accepted)) = (patched, accepted) else {
            t.record(false, || format!("in-process verify: {:?}", report.verdict));
            continue;
        };
        t.record(report.verdict == Verdict::Accepted, || {
            format!("{:?}", report.verdict)
        });
        let mut scratch = prod.clone();
        let applied = m.diff_apply.time(|| diff.apply_to_network(&mut scratch));
        t.record(applied.is_ok(), || format!("diff apply: {applied:?}"));
        m.schedule
            .time(|| schedule_with(&prod, &diff, policies, Some(cv.context())));
        if heavy {
            m.verify_delta
                .time(|| cv.context().verify_delta(&patched, &diff, policies));
            let cp = m.converge.time(|| converge(&patched));
            m.check.time(|| check_policies(&patched, &cp, policies));
            m.context_build
                .time(|| VerifyContext::build(&prod, policies));
        }
        m.advance.time(|| cv.advance(&patched, accepted, policies));
        prod = patched;
    }
    // The ticket's endpoint-to-endpoint probe through the data plane.
    let cp = converge(&prod);
    let dp = DataPlane::new(&prod, &cp);
    for s in sessions {
        let (src, dst) = (&s.task.affected[0], &s.task.affected[1]);
        let flow = Flow::probe(
            host_address(&prod, src).parse().expect("an IPv4 address"),
            host_address(&prod, dst).parse().expect("an IPv4 address"),
        );
        let src = prod.idx_of(src);
        m.trace.time(|| dp.trace(src, &flow));
    }
    m
}

/// In-process broker timings: the service entry points, and `handle`
/// for the requests the wire carries.
#[derive(Default)]
struct Service {
    open: Timer,
    exec: Timer,
    finish: Timer,
    handle_exec: Timer,
    scrape: Timer,
}

fn open_broker(w: Workload, net: &Network, policies: &PolicySet) -> Broker {
    let storage = Box::new(MemStorage::new());
    Broker::open_durable(net.clone(), policies.clone(), w.broker_config(), storage)
        .expect("in-memory journal opens")
}

fn service(
    w: Workload,
    net: &Network,
    policies: &PolicySet,
    sessions: &[Session],
    t: &mut Tally,
) -> Service {
    let mut sv = Service::default();
    let direct = open_broker(w, net, policies);
    for s in sessions {
        let opened = sv.open.time(|| direct.open_session(TECH, s.task.clone()));
        let Ok((id, _)) = opened else {
            t.record(false, || format!("in-process open: {opened:?}"));
            continue;
        };
        for op in &s.ops {
            let ok = match op {
                Op::Topology => direct.topology(id).is_ok(),
                Op::Analyze => direct.analyze_query(Some(id), None, None).is_ok(),
                Op::Exec { device, line } => sv.exec.time(|| direct.exec(id, device, line)).is_ok(),
            };
            t.record(ok, || format!("in-process {op:?}"));
        }
        let fin = sv.finish.time(|| direct.finish(id));
        let ok = matches!(&fin, Ok(r) if r.changes == s.changes);
        t.record(ok, || format!("in-process finish: {fin:?}"));
    }
    for _ in 0..HEAVY_SAMPLES {
        sv.scrape.time(|| direct.scrape_once());
    }

    let handled = open_broker(w, net, policies);
    for s in sessions {
        let r = handled.handle(Request::OpenSession {
            technician: TECH.to_string(),
            ticket: s.task.clone(),
        });
        let Response::SessionOpened { session, .. } = r else {
            t.record(false, || format!("handle open: {r:?}"));
            continue;
        };
        for op in &s.ops {
            if let Op::Exec { device, line } = op {
                let r = sv.handle_exec.time(|| {
                    handled.handle(Request::Exec {
                        session,
                        device: device.clone(),
                        line: line.clone(),
                    })
                });
                t.record(matches!(r, Response::ExecOutput { .. }), || {
                    format!("handle exec: {r:?}")
                });
            }
        }
        let r = handled.handle(Request::Finish { session });
        t.record(matches!(r, Response::Finished { .. }), || {
            format!("handle finish: {r:?}")
        });
    }
    sv
}

/// Append and barrier timings of a bare WAL and a bare 3-node replica
/// group on `MemStorage`, with records the size the served journal
/// actually wrote.
#[derive(Default)]
struct Journals {
    wal_append: Timer,
    wal_barrier: Timer,
    repl_append: Timer,
    repl_barrier: Timer,
}

fn journals(record_bytes: usize, t: &mut Tally) -> Journals {
    let payload = vec![0x5A; record_bytes.max(1)];
    let mut j = Journals::default();
    let (wal, _) = Wal::open(Box::new(MemStorage::new()), WalConfig::default()).expect("WAL opens");
    let nodes: Vec<Box<dyn NodeStorage>> = (0..3)
        .map(|_| Box::new(MemStorage::new()) as Box<dyn NodeStorage>)
        .collect();
    let (cluster, _) =
        ReplCluster::open(nodes, ReplConfig::default()).expect("replica group opens");
    for _ in 0..JOURNAL_APPENDS {
        let a = j
            .wal_append
            .time(|| wal.append(BENCH_RECORD_KIND, &payload));
        let b = j.wal_barrier.time(|| wal.sync_barrier());
        t.record(a.is_ok() && b.is_ok(), || "bare WAL append failed".into());
        let a = j
            .repl_append
            .time(|| cluster.append(BENCH_RECORD_KIND, &payload));
        let b = j.repl_barrier.time(|| cluster.sync_barrier());
        t.record(a.is_ok() && b.is_ok(), || {
            "bare replica append failed".into()
        });
    }
    j
}

/// Runs the in-process passes on `count` sessions of the round-0 script
/// and assembles every per-layer metric.
pub fn measure(
    w: Workload,
    fx: &Fixture,
    seed: u64,
    count: usize,
    served: &ServedView,
    t: &mut Tally,
) -> Vec<Metric> {
    let policies = fx.policies();
    let scripts = w.scripts(&fx.gen.net, seed, 0, WARMUP_SESSIONS + count);
    let sessions = &scripts[WARMUP_SESSIONS..];
    let m = modules(&fx.gen.net, &policies, sessions, t);
    let sv = service(w, &fx.gen.net, &policies, sessions, t);
    let c = &served.counters;
    let n = served.sessions as f64;
    let record_bytes = ratio(c.journal_bytes as f64, c.appends as f64) as usize;
    let j = journals(record_bytes, t);
    let barrier_ms = match w {
        Workload::FabricAcl => j.wal_barrier.ms(),
        Workload::RouteCommit | Workload::Inspect => j.repl_barrier.ms(),
    };
    let attributed =
        m.twin_diff.ms() + m.verify.ms() + m.schedule.ms() + m.advance.ms() + barrier_ms;
    vec![
        (
            "net.rtt_overhead_us",
            "us",
            served.client_exec_us - sv.handle_exec.us(),
        ),
        ("service.open_us", "us", sv.open.us()),
        ("service.exec_us", "us", sv.exec.us()),
        ("service.finish_ms", "ms", sv.finish.ms()),
        (
            "service.derive_miss_ratio",
            "ratio",
            ratio(c.derives as f64, c.opens as f64),
        ),
        (
            "service.commits_per_session",
            "count",
            ratio(c.commits as f64, n),
        ),
        (
            "service.finish_unattributed_ms",
            "ms",
            sv.finish.ms() - attributed,
        ),
        ("netmodel.snapshot_clone_us", "us", m.clone.us()),
        ("netmodel.diff_apply_us", "us", m.diff_apply.us()),
        ("twin.slice_us", "us", m.slice.us()),
        ("twin.exec_us", "us", m.twin_exec.us()),
        ("twin.diff_us", "us", m.twin_diff.us()),
        ("privilege.derive_us", "us", m.derive.us()),
        ("analyze.analyze_us", "us", m.analyze.us()),
        ("enforcer.verify_ms", "ms", m.verify.ms()),
        ("enforcer.schedule_ms", "ms", m.schedule.ms()),
        ("enforcer.advance_ms", "ms", m.advance.ms()),
        (
            "verify.policies_checked_per_commit",
            "count",
            ratio(c.policies_checked as f64, c.commits as f64),
        ),
        (
            "verify.full_fallback_ratio",
            "ratio",
            ratio(
                c.full_fallbacks as f64,
                (c.full_fallbacks + c.delta_hits) as f64,
            ),
        ),
        ("verify.check_policies_ms", "ms", m.check.ms()),
        ("verify.verify_delta_ms", "ms", m.verify_delta.ms()),
        ("verify.context_build_ms", "ms", m.context_build.ms()),
        ("routing.converge_ms", "ms", m.converge.ms()),
        ("dataplane.trace_us", "us", m.trace.us()),
        ("store.append_us", "us", j.wal_append.us()),
        ("store.sync_barrier_us", "us", j.wal_barrier.us()),
        (
            "store.appends_per_session",
            "count",
            ratio(c.appends as f64, n),
        ),
        (
            "store.syncs_per_commit",
            "count",
            ratio(c.syncs as f64, c.commits as f64),
        ),
        (
            "store.journal_bytes_per_session",
            "bytes",
            ratio(c.journal_bytes as f64, n),
        ),
        ("repl.append_us", "us", j.repl_append.us()),
        ("repl.quorum_barrier_us", "us", j.repl_barrier.us()),
        (
            "telemetry.tracing_overhead_pct",
            "%",
            100.0
                * ratio(
                    served.cycle_traced_ms - served.cycle_untraced_ms,
                    served.cycle_untraced_ms,
                ),
        ),
        (
            "telemetry.spans_per_session",
            "count",
            ratio(c.spans as f64, n),
        ),
        ("obs.scrape_ms", "ms", sv.scrape.ms()),
        (
            "obs.scrapes_per_session",
            "count",
            ratio(c.scrapes as f64, n),
        ),
    ]
}
