//! Market rounds through the public entry points (`MarketSim::new`,
//! `MarketSim::run_keeping_chain`, `recover_market_chain`), the output
//! checks every round must pass, and the end-to-end metrics.

use crate::spans::Recorder;
use crate::stats::{median, nearest_rank, process_cpu_s};
use dragoon_chain::Chain;
use dragoon_contract::HitRegistry;
use dragoon_sim::{recover_market_chain, MarketConfig, MarketReport, MarketSim};

/// Recoveries after each round repeat until this much wall time has
/// passed, at least once and at most `MAX_RESTARTS` times.
const RESTART_BUDGET_S: f64 = 2.0;
const MAX_RESTARTS: usize = 12;
/// The `MarketSim::new` timings before each round repeat until this
/// much wall time has passed, at least three times. Their cap only
/// guards against a construction that reads as zero; the budget is
/// what stops them.
const SETUP_BUDGET_S: f64 = 1.0;
const MAX_SETUPS: usize = 10_000;

/// What one round measured and checked.
pub struct Round {
    pub report: MarketReport,
    pub setup_s: f64,
    pub run_s: f64,
    pub cpu_s: f64,
    pub restart_s: Vec<f64>,
    /// Transactions executed over the run (the log replays them all).
    pub txs: usize,
    /// Check failures, one line each.
    pub violations: Vec<String>,
}

impl Round {
    /// HITs that failed: unfinished, or every HIT of a round whose
    /// market-wide checks failed.
    pub fn failed(&self) -> usize {
        if self.violations.is_empty() {
            self.report.hits_unfinished
        } else {
            self.report.hits_published.max(1)
        }
    }
}

/// Times repeated `MarketSim::new` of `config` (the set-up cost).
pub fn time_setups(rec: &mut Recorder, config: &MarketConfig) -> Vec<f64> {
    let mut samples: Vec<f64> = Vec::new();
    while samples.len() < 3
        || (samples.len() < MAX_SETUPS && samples.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let (sim, s) = rec.span("sim", "MarketSim::new", || MarketSim::new(config.clone()));
        drop(sim);
        samples.push(s);
    }
    samples
}

/// Builds, runs, checks and recovers one market, each public call
/// inside a span of `rec`.
pub fn round(rec: &mut Recorder, config: &MarketConfig) -> Round {
    let (sim, setup_s) = rec.span("sim", "MarketSim::new", || MarketSim::new(config.clone()));
    let cpu0 = process_cpu_s();
    let ((report, chain), run_s) = rec.span("sim", "run_keeping_chain", || sim.run_keeping_chain());
    let cpu_s = process_cpu_s() - cpu0;
    let mut violations = check_outputs(config, &report, &chain);
    let live = chain.state_image();
    drop(chain);
    let mut restart_s = Vec::new();
    while restart_s.len() < MAX_RESTARTS && restart_s.iter().sum::<f64>() < RESTART_BUDGET_S {
        match rec.span("chain", "recover_market_chain", || {
            recover_market_chain(config)
        }) {
            (Ok(recovered), s) => {
                restart_s.push(s);
                if recovered.state_image() != live {
                    violations.push("recovered state image differs from the live chain".into());
                }
            }
            (Err(e), _) => {
                violations.push(format!("recovery failed: {e:?}"));
                break;
            }
        }
    }
    let txs = report.block_stats.iter().map(|b| b.txs).sum();
    Round {
        report,
        setup_s,
        run_s,
        cpu_s,
        restart_s,
        txs,
        violations,
    }
}

/// The properties every finished market must have, each computed from
/// the config or the returned chain, never from a stored output.
pub fn check_outputs(
    config: &MarketConfig,
    report: &MarketReport,
    chain: &Chain<HitRegistry>,
) -> Vec<String> {
    let mut v = Vec::new();
    let hits = config.hits as u128;
    if report.hits_published != config.hits {
        v.push(format!(
            "published {} of {} HITs",
            report.hits_published, config.hits
        ));
    }
    if let Some(open) = report.outcomes.iter().find(|o| o.settled_block.is_none()) {
        v.push(format!("HIT #{} neither settled nor cancelled", open.id));
    }
    if report.rewards_paid + report.refunds != hits * config.budget {
        v.push(format!(
            "rewards {} + refunds {} != {} HITs x budget {}",
            report.rewards_paid, report.refunds, hits, config.budget
        ));
    }
    let reward = config.budget / config.k as u128;
    if report.rewards_paid != report.workers_paid as u128 * reward {
        v.push(format!(
            "rewards {} != {} workers paid x {}",
            report.rewards_paid, report.workers_paid, reward
        ));
    }
    if report.latency_violations != 0 || report.proving.latency_violations != 0 {
        v.push("clock violations reported".into());
    }
    // The genesis mints `budget` to each of the `hits` requesters.
    let minted = hits * config.budget;
    if chain.ledger.total_supply() != minted {
        v.push(format!(
            "total supply {} != minted {}",
            chain.ledger.total_supply(),
            minted
        ));
    }
    let registry = chain.contract();
    for id in registry.hit_ids() {
        let settled = registry.hit(id).is_some_and(|h| h.is_settled());
        let escrow = registry
            .hit_address(id)
            .map_or(u128::MAX, |a| chain.ledger.balance(&a));
        if !settled || escrow != 0 {
            v.push(format!("HIT #{id} open or holding {escrow} in escrow"));
            break;
        }
    }
    v
}

/// Settlement latencies (blocks) of the HITs that settled with payment.
pub fn settle_latencies(report: &MarketReport) -> Vec<f64> {
    let mut lat: Vec<f64> = report
        .outcomes
        .iter()
        .filter(|o| !o.cancelled)
        .filter_map(|o| o.latency())
        .map(|l| l as f64)
        .collect();
    lat.sort_by(f64::total_cmp);
    lat
}

/// The highest whole percentile that leaves at least ten samples beyond
/// it (the tail that still has samples), for `n` samples.
pub fn tail_percentile(n: usize) -> u32 {
    if n <= 10 {
        return 50;
    }
    let p = (100 * (n - 10)) / n;
    (p as u32).max(50)
}

/// The end-to-end metrics over a run's rounds, in reporting order.
/// Throughput and CPU cost pool all rounds, so each run averages over
/// several markets' mix of accepts and rejects; set-up and restart are
/// medians of all their samples; the market's own figures are medians
/// of the per-round values.
pub fn end_to_end(
    rounds: &[Round],
    setup_samples: &[f64],
    peak_rss_mb: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let total = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).sum::<f64>();
    let settled = total(&|r| r.report.hits_settled as f64);
    let restarts: Vec<f64> = rounds.iter().flat_map(|r| r.restart_s.clone()).collect();
    let latency = |r: &Round, p: Option<u32>| {
        let lat = settle_latencies(&r.report);
        nearest_rank(&lat, p.unwrap_or_else(|| tail_percentile(lat.len())))
    };
    vec![
        ("hits_per_s", settled / total(&|r| r.run_s), "1/s"),
        ("cpu_s_per_hit", total(&|r| r.cpu_s) / settled.max(1.0), "s"),
        ("setup_s", median(setup_samples), "s"),
        ("restart_s", median(&restarts), "s"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
        (
            "gas_per_hit",
            per_round(&|r| r.report.total_gas as f64 / r.report.hits_published.max(1) as f64),
            "gas",
        ),
        (
            "settle_blocks_p50",
            per_round(&|r| latency(r, Some(50))),
            "blocks",
        ),
        (
            "settle_blocks_tail",
            per_round(&|r| latency(r, None)),
            "blocks",
        ),
    ]
}
