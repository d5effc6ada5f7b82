//! The three benchmark workloads: their market configurations, with
//! every knob pinned, and the scratch directory their stores live in.

use dragoon_contract::{PhaseWindows, SettlementMode};
use dragoon_core::workload::AnswerModel;
use dragoon_econ::EconConfig;
use dragoon_protocol::WorkerBehavior;
use dragoon_sim::{MarketConfig, MarketPolicy, PersistConfig, ProvingConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's ImageNet task shape; off-chain proving dominates.
    Imagenet,
    /// Minimal tasks, one requester each; chain execution, engine
    /// bookkeeping and set-up weigh the most.
    Light,
    /// The marketplace example's task shape on two threads with the
    /// pipelined store and the async proving pool.
    Pipelined,
}

/// How big a workload runs: the benchmark size, or a tiny smoke size
/// that exercises the same paths and checks in seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Bench,
    Smoke,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Imagenet, Workload::Light, Workload::Pipelined];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Imagenet => "imagenet_hits",
            Workload::Light => "light_hits",
            Workload::Pipelined => "pipelined_hits",
        }
    }

    /// Whether restart replays the whole block log (no snapshots).
    pub fn log_only_store(self) -> bool {
        self != Workload::Pipelined
    }

    /// The market this workload runs for `seed`, persisting to `dir`.
    pub fn config(self, seed: u64, dir: &Path, size: Size) -> MarketConfig {
        let smoke = size == Size::Smoke;
        // (hits, spawn/block, workers, capacity, N, |G|, K, Θ, gas cap)
        let (hits, spawn, workers, capacity, n, golds, k, theta, gas) = match self {
            // The engine's default eight HITs per block: under the 30M
            // gas cap full blocks push part of the reveals past their
            // two-block window, and `chain.reverted_txs` counts them.
            Workload::Imagenet => (
                if smoke { 4 } else { 60 },
                8,
                48,
                4,
                106,
                6,
                4,
                4,
                Some(30_000_000),
            ),
            Workload::Light => (
                if smoke { 40 } else { 1_000 },
                50,
                if smoke { 40 } else { 500 },
                4,
                2,
                1,
                3,
                1,
                Some(120_000_000),
            ),
            Workload::Pipelined => (
                if smoke { 30 } else { 1_000 },
                10,
                90,
                5,
                6,
                3,
                3,
                3,
                Some(30_000_000),
            ),
        };
        let (threads, proving, persist) = match self {
            Workload::Imagenet | Workload::Light => (
                1,
                ProvingConfig {
                    enabled: false,
                    ticks_per_kilocost: 0,
                },
                PersistConfig {
                    snapshot_every: 0,
                    ..PersistConfig::new(dir)
                },
            ),
            Workload::Pipelined => (
                2,
                ProvingConfig {
                    enabled: true,
                    ticks_per_kilocost: 0,
                },
                PersistConfig {
                    snapshot_every: 8,
                    ..PersistConfig::pipelined(dir)
                },
            ),
        };
        MarketConfig {
            hits,
            spawn_per_block: spawn,
            workers,
            worker_capacity: capacity,
            overbook: 1,
            questions: n,
            golds,
            k,
            theta,
            budget: 1_200 * k as u128,
            behavior_mix: vec![
                (
                    WorkerBehavior::Honest(AnswerModel::Diligent { accuracy: 0.95 }),
                    6,
                ),
                (
                    WorkerBehavior::Honest(AnswerModel::Diligent { accuracy: 0.30 }),
                    2,
                ),
                (WorkerBehavior::Honest(AnswerModel::RandomBot), 1),
                (WorkerBehavior::CommitNoReveal, 1),
            ],
            windows: PhaseWindows {
                commit_timeout: Some(12),
                reveal: 2,
                evaluate: 4,
            },
            block_gas_limit: gas,
            settlement: SettlementMode::Batched,
            policy: MarketPolicy::Fifo,
            max_blocks: 2_000,
            seed,
            clone_checkpointing: false,
            // Never 0: 0 would read DRAGOON_THREADS and the host.
            exec_threads: threads,
            // The econ and net layers stay off.
            econ: EconConfig {
                enabled: false,
                ..EconConfig::default()
            },
            net: None,
            proving,
            persist: Some(persist),
        }
    }
}

/// A per-process scratch directory for block stores, removed when
/// dropped (also when a panic unwinds through its owner).
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(parent: &Path) -> std::io::Result<Self> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = parent.join(format!("run-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
