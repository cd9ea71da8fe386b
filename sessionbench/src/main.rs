//! Technician session-cycle benchmark for Heimdall.
//!
//! ```text
//! sessionbench --workload <route-commit|fabric-acl|inspect> --seed <n>
//!              --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! A run repeats rounds until `--seconds` is spent (at least
//! `MIN_ROUNDS`). Each round sets up a fresh broker behind `heimdall-net`
//! on a Unix-domain socket and drives a fixed number of closed-loop
//! sessions through it, so production, journal and audit chain never
//! grow past one round's worth. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` reports the per-layer ones. The last line of
//! standard output is one JSON object; the exit code is non-zero when any
//! operation or output check failed. `--smoke` runs tiny rounds with the
//! same checks. See README.md for the workloads and metrics.

mod layers;
mod served;
mod stats;
mod workload;

use layers::{Metric, ServedView};
use served::{run_round, Counters, Fixture, Round, Tally};
use stats::{host_steal_ticks, median, process_cpu_s, quantile, ratio, secs};
use std::process::ExitCode;
use std::time::Instant;
use workload::Workload;

/// Rounds per run at least, so `setup_s` is a median of several set-ups.
const MIN_ROUNDS: usize = 3;

/// A round is quiet when the hypervisor stole fewer than this many CPU
/// ticks per second from the VM during it (5 % of one vCPU).
const QUIET_STEAL_PER_S: f64 = 5.0;

/// Sessions per round in smoke mode (even, like every round).
const SMOKE_SESSIONS: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

const USAGE: &str = "usage: sessionbench --workload <route-commit|fabric-acl|inspect> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// Rounds for `share` of the time box: fixed before the first round
/// from the workload's nominal round time, never from how fast rounds
/// turn out to run.
fn round_count(a: &Args, share: f64) -> usize {
    if a.smoke {
        return 1;
    }
    let n = (a.seconds * share / a.workload.nominal_round_s()).round() as usize;
    n.max(MIN_ROUNDS)
}

/// Runs `n` rounds. It stops early at the first round that fails a
/// check, and when a slow host has stretched the rounds past 1.2 times
/// the time box, so that a run stays within its budget.
fn rounds(a: &Args, fx: &Fixture, n: usize, traced: impl Fn(usize) -> bool) -> Vec<Round> {
    let count = if a.smoke {
        SMOKE_SESSIONS
    } else {
        a.workload.sessions_per_round()
    };
    let start = Instant::now();
    let mut out: Vec<Round> = Vec::new();
    for i in 0..n {
        out.push(run_round(
            a.workload,
            fx,
            a.seed,
            i as u64,
            count,
            traced(i),
        ));
        let overrun = i + 1 >= MIN_ROUNDS && secs(start) > 1.2 * a.seconds;
        if out[i].tally.failed > 0 || overrun {
            break;
        }
    }
    out
}

fn pooled(rounds: &[&Round], f: impl Fn(&Round) -> &Vec<f64>) -> Vec<f64> {
    rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
}

/// The median over rounds of a per-round statistic: one round disturbed
/// by the host moves it less than it moves a pooled statistic.
fn across(rs: &[&Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rs.iter().map(|r| f(r)).collect::<Vec<_>>())
}

fn steal_per_s(r: &Round) -> f64 {
    ratio(r.steal_ticks as f64, r.wall_s)
}

/// The rounds the statistics are taken over: every quiet round, or, when
/// fewer than `MIN_ROUNDS` were quiet, the `MIN_ROUNDS` least disturbed.
///
/// On a shared VM the hypervisor runs other tenants on our vCPUs at
/// times; a round that loses 5 % or more of a vCPU that way runs 15 to
/// 100 % slower, and its p90 more so. Which rounds are disturbed is
/// decided by the host's steal counter alone, never by the timings.
fn quiet<'a>(rs: &[&'a Round]) -> Vec<&'a Round> {
    let quiet: Vec<&Round> = rs
        .iter()
        .copied()
        .filter(|r| steal_per_s(r) < QUIET_STEAL_PER_S)
        .collect();
    if quiet.len() >= MIN_ROUNDS.min(rs.len()) {
        return quiet;
    }
    let mut least = rs.to_vec();
    least.sort_by(|a, b| steal_per_s(a).total_cmp(&steal_per_s(b)));
    least.truncate(MIN_ROUNDS);
    least
}

/// The end-to-end metrics of a plain run, over its quiet rounds.
fn end_to_end(all: &[&Round]) -> Vec<Metric> {
    let rs = &quiet(all)[..];
    let sessions = |r: &Round| r.samples.cycle_ms.len() as f64;
    vec![
        ("setup_s", "s", across(rs, |r| r.setup_s)),
        (
            "cycle_p50_ms",
            "ms",
            across(rs, |r| median(&r.samples.cycle_ms)),
        ),
        (
            "cycle_p90_ms",
            "ms",
            across(rs, |r| quantile(&r.samples.cycle_ms, 0.9)),
        ),
        (
            "sessions_per_s",
            "1/s",
            across(rs, |r| ratio(sessions(r), r.measured_s)),
        ),
        (
            "open_p50_ms",
            "ms",
            across(rs, |r| median(&r.samples.open_ms)),
        ),
        (
            "exec_p50_us",
            "us",
            across(rs, |r| median(&r.samples.exec_us)),
        ),
        (
            "finish_p50_ms",
            "ms",
            across(rs, |r| median(&r.samples.finish_ms)),
        ),
        (
            "cpu_ms_per_session",
            "ms",
            across(rs, |r| ratio(r.cpu_s * 1e3, sessions(r))),
        ),
        // The first round's: later rounds add only the allocator's
        // leftovers from the brokers torn down before them.
        ("peak_rss_mb", "MiB", all[0].peak_rss_mb),
    ]
}

/// The traced run: alternating untraced and traced served rounds for
/// half the time box, then the in-process per-layer passes.
fn per_layer(a: &Args, fx: &Fixture, tally: &mut Tally) -> (Vec<Metric>, Vec<Round>) {
    // Half the time box, in an even number of rounds: at least one each
    // way, and never fewer of one kind than of the other.
    let n = if a.smoke {
        2
    } else {
        round_count(a, 0.5).div_ceil(2) * 2
    };
    let rs = rounds(a, fx, n, |i| i % 2 == 1);
    // Even rounds run untraced, odd rounds traced.
    let plain: Vec<&Round> = rs.iter().step_by(2).collect();
    let traced: Vec<&Round> = rs.iter().skip(1).step_by(2).collect();
    let mut counters = Counters::default();
    for r in &plain {
        counters.add(&r.counters);
    }
    let view = ServedView {
        sessions: plain.iter().map(|r| r.samples.cycle_ms.len()).sum(),
        counters,
        client_exec_us: median(&pooled(&plain, |r| &r.samples.exec_us)),
        cycle_untraced_ms: median(&pooled(&plain, |r| &r.samples.cycle_ms)),
        cycle_traced_ms: median(&pooled(&traced, |r| &r.samples.cycle_ms)),
    };
    let count = if a.smoke {
        SMOKE_SESSIONS
    } else {
        a.workload.sessions_per_round() / 2
    };
    println!(
        "tracing: cycle p50 {:.4} ms untraced, {:.4} ms traced, over {} and {} rounds",
        view.cycle_untraced_ms,
        view.cycle_traced_ms,
        plain.len(),
        traced.len()
    );
    let metrics = layers::measure(a.workload, fx, a.seed, count, &view, tally);
    (metrics, rs)
}

/// Stationarity of the run: the cycle p50 of its first and last quarter,
/// how many sessions it timed, and what the host and process did around
/// it. A noisy set shows here as drift or steal, not as a program change.
fn diagnostics(rs: &[Round], steal: u64, cpu_s: f64, wall_s: f64) -> String {
    let cycle: Vec<f64> = rs
        .iter()
        .flat_map(|r| r.samples.cycle_ms.iter().copied())
        .collect();
    let q = cycle.len() / 4;
    let first = median(&cycle[..q]);
    let last = median(&cycle[cycle.len() - q..]);
    format!(
        "diagnostics: rounds={} sessions={} cycle_p50_first_quarter_ms={first:.4} \
         cycle_p50_last_quarter_ms={last:.4} drift_pct={:.2} host_steal_ticks={steal} \
         process_cpu_s={cpu_s:.3} wall_s={wall_s:.3} quiet_rounds={}",
        rs.len(),
        cycle.len(),
        100.0 * ratio(last - first, first),
        quiet(&rs.iter().collect::<Vec<_>>()).len(),
    )
}

/// One line of per-round figures, in round order, for telling a host
/// disturbance (one slow round, high steal) from a program change.
fn per_round_line(rs: &[Round]) -> String {
    let list = |f: &dyn Fn(&Round) -> String| rs.iter().map(f).collect::<Vec<_>>().join(",");
    format!(
        "rounds: cycle_p50_ms={} cycle_p90_ms={} setup_s={} steal_ticks={}",
        list(&|r| format!("{:.4}", median(&r.samples.cycle_ms))),
        list(&|r| format!("{:.4}", quantile(&r.samples.cycle_ms, 0.9))),
        list(&|r| format!("{:.4}", r.setup_s)),
        list(&|r| r.steal_ticks.to_string()),
    )
}

fn json_result(correct: bool, t: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted,
        t.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let (steal0, cpu0) = (host_steal_ticks(), process_cpu_s());
    let fx = Fixture::new(a.workload);
    let mut tally = Tally::default();
    let (metrics, mut rs) = if a.trace {
        per_layer(&a, &fx, &mut tally)
    } else {
        let rs = rounds(&a, &fx, round_count(&a, 1.0), |_| false);
        let refs: Vec<&Round> = rs.iter().collect();
        (end_to_end(&refs), rs)
    };
    println!(
        "{}",
        diagnostics(
            &rs,
            host_steal_ticks() - steal0,
            process_cpu_s() - cpu0,
            secs(started)
        )
    );
    println!("{}", per_round_line(&rs));
    for r in &mut rs {
        tally.absorb(std::mem::take(&mut r.tally));
    }
    for (name, unit, v) in &metrics {
        println!("{}/{name}: {v:.4} {unit}", a.workload.name());
    }
    for note in &tally.notes {
        eprintln!("FAILED: {note}");
    }
    let correct = tally.failed == 0;
    println!("{}", json_result(correct, &tally, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(steal_ticks: u64) -> Round {
        Round {
            steal_ticks,
            wall_s: 2.0,
            ..Round::default()
        }
    }

    #[test]
    fn quiet_rounds_are_picked_by_steal_alone() {
        let rs: Vec<Round> = [0, 30, 2, 9, 1, 50].map(round).into();
        let refs: Vec<&Round> = rs.iter().collect();
        let steals = |v: Vec<&Round>| v.iter().map(|r| r.steal_ticks).collect::<Vec<_>>();
        // Under 5 ticks/s over 2 s: 0, 2, 9 and 1 ticks.
        assert_eq!(steals(quiet(&refs)), [0, 2, 9, 1]);
        // Too few quiet rounds: the least disturbed MIN_ROUNDS instead.
        let noisy: Vec<Round> = [40, 12, 90, 30].map(round).into();
        let refs: Vec<&Round> = noisy.iter().collect();
        assert_eq!(steals(quiet(&refs)), [12, 30, 40]);
    }
}
