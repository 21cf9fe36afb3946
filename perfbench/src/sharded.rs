//! `sharded_transfer`: two shards with no replicas over an `Acct`
//! relation; the users of two clients own disjoint accounts and move
//! money between accounts on different shards.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use fundb_durable::DurableEngine;
use fundb_net::{ShardMap, ShardedCluster};
use fundb_relational::{Tuple, Value};

use crate::common::{median, rows_equal, Body, Expect, KindSpec, Op, Rng};
use crate::harness::{self, Check, Config, RoundGen, RunOut, Sizes, USERS};

pub const ACCT: &str = "Acct";
pub const BRANCH: &str = "Branch";
pub const SHARDS: u32 = 2;
/// Every account's opening balance.
pub const OPENING: i64 = 1_000;

pub const TRANSFER: usize = 0;
pub const FIND: usize = 1;
pub const COUNT: usize = 2;
pub const JOIN: usize = 3;

/// Where the join's fault lies; printed with every run that hits it.
pub const JOIN_FAULT: &str = "net::router::plan_route routes a join on a non-key attribute as a \
shard-local gather, so rows whose branch lives on the other shard are lost";

pub const KINDS: [KindSpec; 4] = [
    KindSpec {
        name: "transfer",
        known_fault: None,
    },
    KindSpec {
        name: "find",
        known_fault: None,
    },
    KindSpec {
        name: "count_gather",
        known_fault: None,
    },
    KindSpec {
        name: "branch_join",
        known_fault: Some(JOIN_FAULT),
    },
];

/// Operations of each kind in one user's round, in [`KINDS`] order.
pub const ROUND: [usize; 4] = [160, 160, 79, 1];

/// Operations per second a run is sized for (see [`harness::run_clients`]).
pub const NOMINAL_RATE: f64 = 7_500.0;
/// Set-ups per run.
const SETUP_REPS: usize = 7;

/// Account `id` belongs to branch `id % branches`; user `id % USERS` owns it.
#[derive(Debug, Clone)]
pub struct Gen {
    rng: Rng,
    user: usize,
    accounts: usize,
    branches: usize,
    /// This user's accounts on each shard.
    by_shard: Vec<Vec<i64>>,
    /// Balance of every account this user owns, by `id / USERS`.
    balance: Vec<i64>,
}

impl Gen {
    pub fn new(seed: u64, user: usize, accounts: usize, branches: usize) -> Gen {
        let map = ShardMap::new(SHARDS);
        let mut by_shard = vec![Vec::new(); SHARDS as usize];
        let owned: Vec<i64> = (user as i64..accounts as i64).step_by(USERS).collect();
        for &id in &owned {
            by_shard[map.shard_of(&Value::Int(id)) as usize].push(id);
        }
        Gen {
            rng: Rng::new(seed, 200 + user as u64),
            user,
            accounts,
            branches,
            by_shard,
            balance: vec![OPENING; owned.len()],
        }
    }

    fn row(&self, id: i64) -> Vec<i64> {
        vec![
            id,
            id % self.branches as i64,
            self.balance[id as usize / USERS],
        ]
    }

    fn owned(&self) -> impl Iterator<Item = i64> + '_ {
        (self.user as i64..self.accounts as i64).step_by(USERS)
    }

    /// The model's `Acct` rows for this user's accounts.
    pub fn rows(&self) -> Vec<Vec<i64>> {
        self.owned().map(|id| self.row(id)).collect()
    }

    /// Set-up inserts of this user's accounts (and, for user 0, of every
    /// branch).
    pub fn load_ops(&self) -> Vec<String> {
        let mut ops: Vec<String> = self
            .rows()
            .iter()
            .map(|r| format!("insert ({}, {}, {}) into {ACCT}", r[0], r[1], r[2]))
            .collect();
        if self.user == 0 {
            ops.extend(
                (0..self.branches).map(|b| format!("insert ({b}, {}) into {BRANCH}", 100 + b)),
            );
        }
        ops
    }

    fn pick(&mut self, shard: usize) -> i64 {
        let ids = &self.by_shard[shard];
        ids[self.rng.below(ids.len() as u64) as usize]
    }

    pub fn round(&mut self) -> Vec<Op> {
        let kinds = self.rng.round_order(&ROUND);
        kinds.into_iter().map(|k| self.op(k)).collect()
    }

    fn op(&mut self, kind: usize) -> Op {
        let (body, expect) = match kind {
            TRANSFER => {
                let from_shard = self.rng.below(SHARDS as u64) as usize;
                let from = self.pick(from_shard);
                let to = self.pick(1 - from_shard);
                let amount = 1 + self.rng.below(50) as i64;
                self.balance[from as usize / USERS] -= amount;
                self.balance[to as usize / USERS] += amount;
                let q = |r: Vec<i64>| format!("replace ({}, {}, {}) in {ACCT}", r[0], r[1], r[2]);
                (
                    Body::Txn(vec![q(self.row(from)), q(self.row(to))]),
                    Expect::Applied(2),
                )
            }
            FIND => {
                let shard = self.rng.below(SHARDS as u64) as usize;
                let id = self.pick(shard);
                (
                    Body::One(format!("find {id} in {ACCT}")),
                    Expect::Rows(vec![self.row(id)]),
                )
            }
            COUNT => (
                Body::One(format!("count {ACCT}")),
                Expect::Count(self.accounts),
            ),
            JOIN => (
                Body::One(format!("join {BRANCH} with {ACCT} on #0 = #1")),
                Expect::Join(self.join_expect()),
            ),
            _ => unreachable!("no kind {kind}"),
        };
        Op { kind, body, expect }
    }

    /// What the branch join must return: one row per account,
    /// `[branch, 100 + branch, id, balance]`, with this user's balances
    /// exact (the other users' move concurrently).
    fn join_expect(&self) -> crate::common::JoinExpect {
        crate::common::JoinExpect {
            ids: (0..self.accounts as i64).collect(),
            branches: self.branches as i64,
            own: self
                .rows()
                .into_iter()
                .map(|r| vec![r[1], 100 + r[1], r[0], r[2]])
                .collect(),
        }
    }
}

impl RoundGen for Gen {
    fn load_ops(&self) -> Vec<String> {
        Gen::load_ops(self)
    }

    fn round(&mut self) -> Vec<Op> {
        Gen::round(self)
    }

    fn round_len(&self) -> usize {
        ROUND.iter().sum()
    }
}

pub fn ddl() -> Vec<String> {
    vec![
        format!("create relation {ACCT} as btree(16)"),
        format!("create relation {BRANCH} as btree(16)"),
    ]
}

fn start(dir: &Path, gens: &[Gen]) -> ShardedCluster {
    let cluster =
        ShardedCluster::start(dir, SHARDS, harness::CLIENTS, 1, 0).expect("cluster starts");
    harness::load(&cluster.client(0), &ddl(), Expect::Created);
    std::thread::scope(|s| {
        for (u, g) in gens.iter().enumerate() {
            let client = cluster.client(harness::client_of(u));
            s.spawn(move || harness::load(&client, &g.load_ops(), Expect::Inserted));
        }
    });
    cluster
}

/// Every shard primary's `Acct` rows after reopening its directory.
fn reopen_accounts(dir: &Path) -> (Vec<Tuple>, f64) {
    let t0 = Instant::now();
    let mut rows = Vec::new();
    for s in 0..SHARDS {
        let (engine, _) = DurableEngine::open(&dir.join(format!("shard-{s}")).join("primary"), 1)
            .expect("shard reopens");
        if let Ok(rel) = engine.snapshot().relation(&ACCT.into()) {
            rows.extend(rel.scan());
        }
    }
    (rows, t0.elapsed().as_secs_f64())
}

pub fn run(cfg: &Config) -> RunOut {
    let sizes = Sizes::of(cfg);
    let gens: Vec<Gen> = (0..USERS)
        .map(|u| Gen::new(cfg.seed, u, sizes.accounts, sizes.branches))
        .collect();

    let mut setups = Vec::new();
    let mut cluster = None;
    let reps = harness::setup_reps(cfg, SETUP_REPS);
    for rep in 0..reps {
        let dir = cfg.work.join(format!("sharded-{rep}"));
        let t0 = Instant::now();
        let c = start(&dir, &gens);
        setups.push(t0.elapsed().as_secs_f64());
        if rep + 1 < reps {
            c.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            cluster = Some((c, dir));
        }
    }
    let (cluster, dir) = cluster.expect("at least one set-up");
    let bytes_before = crate::common::dir_bytes(&dir);
    let msgs_before = cluster.message_count();
    let stats_before = cluster.stats();

    let cluster = Arc::new(cluster);
    let (final_gens, phase) = harness::run_clients(cfg, &KINDS, NOMINAL_RATE, gens, |u| {
        let client = cluster.client(harness::client_of(u));
        move |op: &Op| harness::exec_client(&client, op)
    });
    let msgs = cluster.message_count() - msgs_before;
    let stats = cluster.stats();

    // Quiescent checks through the cluster, then on the reopened shards.
    let model: Vec<Vec<i64>> = final_gens.iter().flat_map(|g| g.rows()).collect();
    let total = OPENING * sizes.accounts as i64;
    let sum = cluster
        .client(0)
        .submit(&format!("sum #2 of {ACCT}"))
        .wait_cloned();
    let mut checks = vec![
        Check::new(
            "model conserves the sum of balances",
            model.iter().map(|r| r[2]).sum::<i64>() == total,
        ),
        Check::new(
            "cluster's sum of balances is conserved",
            Expect::Agg(total).check(&sum),
        ),
    ];
    let cluster = Arc::try_unwrap(cluster).expect("clients finished");
    cluster.shutdown();
    let after = crate::common::dir_bytes(&dir);
    let transfers = phase.kinds[TRANSFER].attempted;
    let (rows, recovery_s) = reopen_accounts(&dir);
    checks.push(Check::new(
        "reopened shards hold exactly the model's balances",
        rows_equal(&model, &rows),
    ));

    let mut out = RunOut::new(&KINDS, phase);
    out.setup_s = median(&setups);
    out.setups = setups;
    out.point_read = FIND;
    out.write = TRANSFER;
    out.query = COUNT;
    out.checks = checks;
    let txns = stats.cross_shard_txns - stats_before.cross_shard_txns;
    let acks = stats.sequencer_acks - stats_before.sequencer_acks;
    out.info
        .push(("accounts".into(), sizes.accounts.to_string()));
    out.info
        .push(("recovery_s".into(), format!("{recovery_s:.6}")));
    out.info.push((
        "storage_bytes_per_write".into(),
        format!(
            "{:.1}",
            after.saturating_sub(bytes_before) as f64 / (2 * transfers).max(1) as f64
        ),
    ));
    out.info.push((
        "msgs_per_op".into(),
        format!("{:.3}", msgs as f64 / out.total_attempted().max(1) as f64),
    ));
    out.info.push((
        "sequencer_acks_per_txn".into(),
        format!("{:.3}", acks as f64 / txns.max(1) as f64),
    ));
    out
}
