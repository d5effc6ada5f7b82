//! The Dragoon market benchmark.
//!
//! ```sh
//! dragoon-perfbench --workload imagenet_hits --seed 1 --seconds 25 --trace 0
//! ```
//!
//! With `--trace 0` it runs whole markets of the workload through the
//! public entry points for `--seconds`, checks every output and prints
//! the end-to-end metrics. With `--trace 1` it runs one traced market
//! between untraced ones, times each layer's public functions on inputs
//! shaped like the workload, prints the per-layer metrics and writes the
//! spans as Chrome `trace_event` JSON. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod market;
mod probes;
mod spans;
mod stats;
mod workload;

use market::Round;
use spans::Recorder;
use stats::median;
use std::path::PathBuf;
use std::time::Instant;
use workload::{ScratchDir, Size, Workload};

/// Wall time each per-layer probe runs for, in the traced run.
const PROBE_BUDGET_S: f64 = 0.5;
/// Untraced rounds run on each side of the traced one; the tracing
/// overhead is measured against their median.
const UNTRACED_EACH_SIDE: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    work_dir: PathBuf,
    out_dir: PathBuf,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Imagenet,
        seed: 1,
        seconds: 0.0,
        trace: false,
        size: Size::Bench,
        work_dir: PathBuf::from("perfbench/tmp"),
        out_dir: PathBuf::from("perfbench/out"),
    };
    let mut seconds = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Workload::parse(&value).ok_or(format!("unknown workload {value}"))?
            }
            "--seed" => args.seed = parse_seed(&value).ok_or("bad --seed")?,
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s >= 0.0)
                        .ok_or("bad --seconds")?,
                )
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.seconds = seconds.ok_or("--seconds is required")?;
    Ok(args)
}

/// What one invocation measured: the result line's fields.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub violations: Vec<String>,
    pub metrics: Vec<probes::Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.violations.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// The market seed of round `i` of a run: the workload seed itself,
/// then a fixed sequence derived from it, so every run of one seed
/// draws the same markets in the same order and each run averages over
/// several markets' mix of accepts and rejects.
fn round_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// `--trace 0`: whole rounds for `seconds`, end-to-end metrics.
fn measure(args: &Args, scratch: &ScratchDir) -> Outcome {
    let store = scratch.path().join("store");
    let mut rec = Recorder::new(false);
    let t0 = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut setup = Vec::new();
    loop {
        let config = args
            .workload
            .config(round_seed(args.seed, rounds.len()), &store, args.size);
        setup.extend(market::time_setups(&mut rec, &config));
        let r = market::round(&mut rec, &config);
        eprintln!(
            "round {}: {} settled, {} paid, {} rejected; run {:.3} s, cpu {:.3} s, restarts {:?} s",
            rounds.len(),
            r.report.hits_settled,
            r.report.workers_paid,
            r.report.workers_rejected,
            r.run_s,
            r.cpu_s,
            r.restart_s
        );
        setup.push(r.setup_s);
        rounds.push(r);
        if t0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    Outcome {
        attempted: rounds.iter().map(|r| r.report.hits_published).sum(),
        failed: rounds.iter().map(Round::failed).sum(),
        violations: rounds.iter().flat_map(|r| r.violations.clone()).collect(),
        metrics: market::end_to_end(&rounds, &setup, stats::peak_rss_mb()),
    }
}

/// `--trace 1`: one traced round between untraced rounds of the same
/// market, the per-layer probes, the reconciliation of probe time
/// against run time, and the span file.
fn measure_layers(args: &Args, scratch: &ScratchDir) -> Outcome {
    let config = args
        .workload
        .config(args.seed, &scratch.path().join("store"), args.size);
    let untraced_round = || market::round(&mut Recorder::new(false), &config);
    let mut untraced: Vec<Round> = (0..UNTRACED_EACH_SIDE).map(|_| untraced_round()).collect();
    let mut rec = Recorder::new(true);
    let traced = market::round(&mut rec, &config);
    untraced.extend((0..UNTRACED_EACH_SIDE).map(|_| untraced_round()));
    let mut violations: Vec<String> = untraced
        .iter()
        .chain([&traced])
        .flat_map(|r| r.violations.iter().cloned())
        .collect();
    // The report is a pure function of seed and config.
    let json = traced.report.to_json();
    if untraced.iter().any(|u| u.report.to_json() != json) {
        violations.push("runs of one seed reported different markets".into());
    }
    let r = &traced.report;
    let hits = r.hits_published.max(1) as f64;

    // Log replay cost per transaction: the workload's own restart on a
    // log-only store, else a log-only market of the same task shape.
    let replay_s_per_tx = if args.workload.log_only_store() {
        median(&traced.restart_s) / traced.txs.max(1) as f64
    } else {
        let mut small =
            args.workload
                .config(args.seed, &scratch.path().join("replay"), Size::Smoke);
        small.persist = Some(dragoon_sim::PersistConfig {
            snapshot_every: 0,
            ..dragoon_sim::PersistConfig::new(scratch.path().join("replay"))
        });
        let replay = market::round(&mut rec, &small);
        violations.extend(replay.violations.iter().cloned());
        median(&replay.restart_s) / replay.txs.max(1) as f64
    };

    let proofs_per_batch = r.batch.items as f64 / r.batch.batches.max(1) as f64;
    let batch = (proofs_per_batch.round() as usize).max(2);
    let budget = if args.size == Size::Smoke {
        0.0
    } else {
        PROBE_BUDGET_S
    };
    let probe = probes::run(&mut rec, &config, args.seed, budget, batch);
    violations.extend(probe.violations.iter().cloned());

    // Reconciliation: the run's calls into each probed function, priced
    // at the probe's per-call time. Every HIT that fills runs K +
    // overbook commit jobs; each revealed answer is evaluated once.
    let commits = r.hits_settled * (config.k + config.overbook);
    let accounted = commits as f64 * probe.commit_s
        + r.workers_paid as f64 * probe.evaluate_accept_s
        + r.workers_rejected as f64 * probe.evaluate_reject_s
        + r.proving.cache_misses as f64 * probe.table_build_s
        + traced.txs as f64 * replay_s_per_tx;
    let per_s = |round: &Round| round.report.hits_settled as f64 / round.run_s;
    let untraced_per_s: Vec<f64> = untraced.iter().map(per_s).collect();
    let persist = r.persist.unwrap_or_default();

    let mut metrics = probe.metrics;
    metrics.extend([
        (
            "protocol.jobs_per_hit",
            r.proving.jobs as f64 / hits,
            "count",
        ),
        (
            "protocol.table_builds_per_hit",
            r.proving.cache_misses as f64 / hits,
            "count",
        ),
        ("chain.replay_us_per_tx", replay_s_per_tx * 1e6, "us"),
        ("chain.txs_per_hit", traced.txs as f64 / hits, "count"),
        ("chain.reverted_txs", r.reverted_txs as f64, "count"),
        ("contract.proofs_per_batch", proofs_per_batch, "count"),
        ("chain.parallel_groups", r.parallel.groups as f64, "count"),
        (
            "chain.selective_retries",
            r.parallel.selective_retries as f64,
            "count",
        ),
        (
            "chain.conflict_fallbacks",
            r.parallel.conflict_fallbacks as f64,
            "count",
        ),
        (
            "chain.store_log_bytes_per_block",
            persist.log_bytes_written as f64 / persist.blocks_appended.max(1) as f64,
            "bytes",
        ),
        (
            "chain.store_snapshot_bytes",
            persist.snapshot_bytes_written as f64,
            "bytes",
        ),
        (
            "chain.store_overlap_hits",
            persist.overlap_hits as f64,
            "count",
        ),
        ("sim.run_s", traced.run_s, "s"),
        ("sim.accounted_s", accounted, "s"),
        ("sim.unaccounted_s", traced.run_s - accounted, "s"),
        (
            "sim.traced_over_untraced",
            per_s(&traced) / median(&untraced_per_s),
            "ratio",
        ),
    ]);

    let trace_out = args
        .out_dir
        .join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    let _ = std::fs::create_dir_all(&args.out_dir);
    match std::fs::write(&trace_out, rec.chrome_json()) {
        Ok(()) => eprintln!("{} spans written to {}", rec.len(), trace_out.display()),
        Err(e) => violations.push(format!("span file {}: {e}", trace_out.display())),
    }
    let rounds = || untraced.iter().chain([&traced]);
    Outcome {
        attempted: rounds().map(|u| u.report.hits_published).sum(),
        failed: rounds().map(Round::failed).sum(),
        violations,
        metrics,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dragoon-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let scratch = match ScratchDir::new(&args.work_dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dragoon-perfbench: scratch dir: {e}");
            std::process::exit(2);
        }
    };
    let mut outcome = if args.trace {
        measure_layers(&args, &scratch)
    } else {
        measure(&args, &scratch)
    };
    drop(scratch);
    if let Some((name, ..)) = outcome.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        outcome.violations.push(format!("{name} is not finite"));
        outcome.metrics.retain(|(_, v, _)| v.is_finite());
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<36} {value:>16.6} {unit}");
    }
    for v in &outcome.violations {
        eprintln!("CHECK FAILED: {v}");
    }
    println!(
        "workload {} seed {}: {} HITs attempted, {} failed",
        args.workload.name(),
        args.seed,
        outcome.attempted,
        outcome.failed
    );
    println!("{}", outcome.json());
    if !outcome.violations.is_empty() {
        std::process::exit(1);
    }
}

/// The smoke size: every workload, traced and untraced, with every
/// check on, in seconds. `cargo test --release` in this package.
#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names of one section of BENCHMARK.json.
    fn declared(section: &str) -> Vec<String> {
        let bench = include_str!("../../BENCHMARK.json");
        let start = bench
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &bench[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    }

    fn smoke(workload: Workload, trace: bool) {
        let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let args = Args {
            workload,
            seed: 7,
            seconds: 0.0,
            trace,
            size: Size::Smoke,
            work_dir: here.join("tmp"),
            out_dir: here.join("out"),
        };
        let scratch = ScratchDir::new(&args.work_dir).expect("scratch dir");
        let outcome = if trace {
            measure_layers(&args, &scratch)
        } else {
            measure(&args, &scratch)
        };
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
        assert!(outcome.attempted > 0);
        assert_eq!(outcome.failed, 0);
        let names: Vec<String> = outcome.metrics.iter().map(|m| m.0.to_string()).collect();
        let section = if trace { "per_layer" } else { "end_to_end" };
        assert_eq!(names, declared(section));
        assert!(outcome.metrics.iter().all(|m| m.1.is_finite()));
    }

    #[test]
    fn imagenet_hits_smoke() {
        smoke(Workload::Imagenet, false);
        smoke(Workload::Imagenet, true);
    }

    #[test]
    fn light_hits_smoke() {
        smoke(Workload::Light, false);
        smoke(Workload::Light, true);
    }

    #[test]
    fn pipelined_hits_smoke() {
        smoke(Workload::Pipelined, false);
        smoke(Workload::Pipelined, true);
    }

    #[test]
    fn tail_percentile_leaves_ten_beyond() {
        assert_eq!(market::tail_percentile(60), 83);
        assert_eq!(market::tail_percentile(1_000), 99);
        assert_eq!(market::tail_percentile(100), 90);
    }
}
