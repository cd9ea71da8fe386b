//! The three workloads: which network each runs on, how its broker is
//! configured, and the seeded session scripts its technician types.
//!
//! Every script alternates an add with its removal, so production is
//! back at its starting state after every even session and a round of
//! any even length leaves nothing behind.

use crate::stats::Rng;
use heimdall::netmodel::device::DeviceKind;
use heimdall::netmodel::gen::{campus_network, enterprise_network, GeneratedNet};
use heimdall::netmodel::topology::Network;
use heimdall::privilege::derive::{Task, TaskKind};
use heimdall::service::BrokerConfig;
use heimdall::store::Durability;
use heimdall::twin::slice::slice_for_task;

/// Distribution pairs and access routers per pair of the campus fabric:
/// 114 routers, the largest campus that keeps a run within its time box.
const CAMPUS: (usize, usize) = (8, 12);

/// Enterprise user hosts a ticket may name.
const USER_HOSTS: [&str; 8] = ["h1", "h2", "h3", "h4", "h5", "h6", "h7", "h8"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Routing-class static-route commits on the enterprise network
    /// behind a 3-node quorum journal: the heaviest finish branch.
    RouteCommit,
    /// Filter-class ACL commits on a 114-router campus behind a
    /// single-node WAL: the delta-verification path at fabric scale.
    FabricAcl,
    /// Read-only monitoring sessions on the enterprise network: wire,
    /// intake and twin emulation, with an empty change-set.
    Inspect,
}

/// One request a session sends between its open and its finish.
#[derive(Debug, Clone)]
pub enum Op {
    Topology,
    Analyze,
    Exec { device: String, line: String },
}

/// One technician session: its ticket, what it types, and how many
/// changes its finish must commit.
#[derive(Debug, Clone)]
pub struct Session {
    pub task: Task,
    pub ops: Vec<Op>,
    pub changes: usize,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::RouteCommit,
        Workload::FabricAcl,
        Workload::Inspect,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::RouteCommit => "route-commit",
            Workload::FabricAcl => "fabric-acl",
            Workload::Inspect => "inspect",
        }
    }

    /// Measured sessions per round: even, and at least 100, so each
    /// round's p90 has ten samples beyond it.
    pub fn sessions_per_round(self) -> usize {
        match self {
            Workload::RouteCommit => 200,
            Workload::FabricAcl => 100,
            Workload::Inspect => 400,
        }
    }

    /// Wall time of one round (set-up, sessions and checks) on the
    /// 2-vCPU reference host. A run's round count is its time box over
    /// this, fixed before the run starts, so the work a run does never
    /// depends on how fast the host happens to be.
    pub fn nominal_round_s(self) -> f64 {
        match self {
            Workload::RouteCommit => 1.8,
            Workload::FabricAcl => 3.0,
            Workload::Inspect => 1.3,
        }
    }

    pub fn network(self) -> GeneratedNet {
        match self {
            Workload::FabricAcl => campus_network(CAMPUS.0, CAMPUS.1),
            Workload::RouteCommit | Workload::Inspect => enterprise_network(),
        }
    }

    /// The served broker's configuration. The per-technician rate limit
    /// sits far above what one closed-loop technician can offer, so any
    /// `RateLimited` reply is a defect, not load shedding.
    pub fn broker_config(self) -> BrokerConfig {
        let durability = match self {
            Workload::FabricAcl => Durability::GroupCommitSync,
            Workload::RouteCommit | Workload::Inspect => Durability::QuorumCommit {
                replicas: 2,
                quorum: 2,
            },
        };
        BrokerConfig {
            rate_capacity: 1 << 30,
            rate_refill_per_sec: 1e9,
            durability,
            ..BrokerConfig::default()
        }
    }

    /// The seeded script of `count` sessions for round `round`.
    pub fn scripts(self, net: &Network, seed: u64, round: u64, count: usize) -> Vec<Session> {
        let mut rng = Rng::new(seed, round);
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let (add, remove) = match self {
                Workload::RouteCommit => route_pair(&mut rng),
                Workload::FabricAcl => acl_pair(&mut rng),
                Workload::Inspect => {
                    out.push(inspect_session(net, &mut rng));
                    continue;
                }
            };
            out.push(add);
            out.push(remove);
        }
        out.truncate(count);
        out
    }
}

fn task(kind: TaskKind, a: &str, b: &str) -> Task {
    Task {
        kind,
        affected: vec![a.to_string(), b.to_string()],
    }
}

fn exec(device: &str, line: String) -> Op {
    Op::Exec {
        device: device.to_string(),
        line,
    }
}

/// Adds, then removes, one static route on fw1 towards the DMZ server.
fn route_pair(rng: &mut Rng) -> (Session, Session) {
    let host = USER_HOSTS[rng.below(USER_HOSTS.len())];
    let route = format!(
        "ip route 10.{}.{}.0 255.255.255.0 10.2.1.10",
        100 + rng.below(100),
        rng.below(256)
    );
    let t = task(TaskKind::Routing, host, "srv1");
    let session = |line: String| Session {
        task: t.clone(),
        ops: vec![exec("fw1", line)],
        changes: 1,
    };
    (session(route.clone()), session(format!("no {route}")))
}

/// Inserts, then removes, a deny line in the secure LAN's ACL 120 on the
/// last pair's access router. The line sits in front of the closing
/// `deny any`, so it changes no reachability and every commit is
/// accepted.
fn acl_pair(rng: &mut Rng) -> (Session, Session) {
    let secure = CAMPUS.0;
    let src = 2 + rng.below(secure - 2);
    let router = format!("acc{secure}r1");
    let t = task(TaskKind::AccessControl, "lan1h1", &format!("lan{secure}h1"));
    let session = |line: String| Session {
        task: t.clone(),
        ops: vec![exec(&router, line)],
        changes: 1,
    };
    (
        session(format!(
            "access-list 120 line 2 deny ip 10.100.{src}.0 0.0.0.255 10.100.{secure}.0 0.0.0.255"
        )),
        session("no access-list 120 line 2".to_string()),
    )
}

/// A read-only visit: the session's topology and analysis, a route table
/// and an ACL listing on routers of the slice, and a ping and traceroute
/// from the user's host to the DMZ server. Commits nothing.
fn inspect_session(net: &Network, rng: &mut Rng) -> Session {
    let host = USER_HOSTS[rng.below(USER_HOSTS.len())];
    let t = task(TaskKind::Monitoring, host, "srv1");
    let routers: Vec<String> = slice_for_task(net, &t)
        .included
        .into_iter()
        .filter(|d| {
            net.device_by_name(d)
                .is_some_and(|dev| dev.kind != DeviceKind::Host)
        })
        .collect();
    let server = host_address(net, "srv1");
    let mut pick = || routers[rng.below(routers.len())].clone();
    let (r1, r2) = (pick(), pick());
    Session {
        task: t,
        ops: vec![
            Op::Topology,
            Op::Analyze,
            exec(&r1, "show ip route".to_string()),
            exec(host, format!("ping {server}")),
            exec(host, format!("traceroute {server}")),
            exec(&r2, "show access-lists".to_string()),
        ],
        changes: 0,
    }
}

/// The first interface address of a device.
pub fn host_address(net: &Network, name: &str) -> String {
    net.device_by_name(name)
        .and_then(|d| d.config.interfaces.iter().find_map(|i| i.address))
        .map(|a| a.ip.to_string())
        .unwrap_or_else(|| panic!("{name} has an address"))
}
