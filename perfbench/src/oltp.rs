//! `oltp_replicated`: a durable primary with one replica, one keyed
//! relation, and the users of two clients each owning a share of the keys.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use fundb_durable::DurableEngine;
use fundb_net::ReplicatedCluster;

use crate::common::{median, rows_equal, Body, Expect, KindSpec, Op, Rng};
use crate::harness::{self, Check, Config, RunOut, Sizes, USERS};

pub const REL: &str = "R";

pub const FIND: usize = 0;
pub const REPLACE: usize = 1;
pub const INSERT: usize = 2;
pub const DELETE: usize = 3;
pub const RANGE: usize = 4;

pub const KINDS: [KindSpec; 5] = [
    KindSpec {
        name: "find",
        known_fault: None,
    },
    KindSpec {
        name: "replace",
        known_fault: None,
    },
    KindSpec {
        name: "insert",
        known_fault: None,
    },
    KindSpec {
        name: "delete",
        known_fault: None,
    },
    KindSpec {
        name: "range_find",
        known_fault: None,
    },
];

/// Operations of each kind in one user's round, in [`KINDS`] order.
pub const ROUND: [usize; 5] = [50, 25, 5, 5, 15];

/// Operations per second a run is sized for (see [`harness::run_clients`]).
pub const NOMINAL_RATE: f64 = 10_000.0;
/// Set-ups per run.
const SETUP_REPS: usize = 3;

/// Keys in one range read.
const RANGE_SPAN: i64 = 16;

/// One user's model of the keys it owns: `vals[i]` is the value of key
/// `lo + i`, `None` when the key is absent.
#[derive(Debug, Clone)]
pub struct Gen {
    rng: Rng,
    lo: i64,
    vals: Vec<Option<i64>>,
    dead: Vec<usize>,
}

impl Gen {
    /// User `u` owns the keys `[u·share, (u+1)·share)`, `share` being
    /// `rows / USERS`. One key in twenty starts absent so inserts always
    /// have a target.
    pub fn new(seed: u64, user: usize, rows: usize) -> Gen {
        let share = rows / USERS;
        let lo = (user * share) as i64;
        let mut rng = Rng::new(seed, 100 + user as u64);
        let mut vals = Vec::with_capacity(share);
        let mut dead = Vec::new();
        for i in 0..share {
            if i % 20 == 19 {
                vals.push(None);
                dead.push(i);
            } else {
                vals.push(Some(rng.below(1_000_000) as i64));
            }
        }
        Gen {
            rng,
            lo,
            vals,
            dead,
        }
    }

    /// The set-up inserts of this user's initially present keys.
    pub fn load_ops(&self) -> Vec<String> {
        self.vals
            .iter()
            .enumerate()
            .filter_map(|(i, v)| {
                v.map(|v| format!("insert ({}, {v}) into {REL}", self.lo + i as i64))
            })
            .collect()
    }

    /// The model's rows, `[key, value]`.
    pub fn rows(&self) -> Vec<Vec<i64>> {
        self.vals
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|v| vec![self.lo + i as i64, v]))
            .collect()
    }

    fn live_index(&mut self) -> usize {
        loop {
            let i = self.rng.below(self.vals.len() as u64) as usize;
            if self.vals[i].is_some() {
                return i;
            }
        }
    }

    /// One round: [`ROUND`] operations in a seeded order, each with the
    /// answer the model predicts at its place in the round.
    pub fn round(&mut self) -> Vec<Op> {
        let kinds = self.rng.round_order(&ROUND);
        kinds.into_iter().map(|k| self.op(k)).collect()
    }

    fn op(&mut self, kind: usize) -> Op {
        let (query, expect) = match kind {
            FIND => {
                let i = self.rng.below(self.vals.len() as u64) as usize;
                let key = self.lo + i as i64;
                let rows = self.vals[i].map(|v| vec![vec![key, v]]).unwrap_or_default();
                (format!("find {key} in {REL}"), Expect::Rows(rows))
            }
            REPLACE => {
                let i = self.live_index();
                let v = self.rng.below(1_000_000) as i64;
                self.vals[i] = Some(v);
                (
                    format!("replace ({}, {v}) in {REL}", self.lo + i as i64),
                    Expect::Inserted,
                )
            }
            INSERT => {
                let d = self.rng.below(self.dead.len() as u64) as usize;
                let i = self.dead.swap_remove(d);
                let v = self.rng.below(1_000_000) as i64;
                self.vals[i] = Some(v);
                (
                    format!("insert ({}, {v}) into {REL}", self.lo + i as i64),
                    Expect::Inserted,
                )
            }
            DELETE => {
                let i = self.live_index();
                self.vals[i] = None;
                self.dead.push(i);
                (
                    format!("delete {} from {REL}", self.lo + i as i64),
                    Expect::Deleted(1),
                )
            }
            RANGE => {
                let span = RANGE_SPAN.min(self.vals.len() as i64);
                let i = self.rng.below((self.vals.len() as i64 - span + 1) as u64) as i64;
                let (a, b) = (self.lo + i, self.lo + i + span - 1);
                let rows = (i..i + span)
                    .filter_map(|j| self.vals[j as usize].map(|v| vec![self.lo + j, v]))
                    .collect();
                (format!("find {a} to {b} in {REL}"), Expect::Rows(rows))
            }
            _ => unreachable!("no kind {kind}"),
        };
        Op {
            kind,
            body: Body::One(query),
            expect,
        }
    }
}

pub fn ddl() -> Vec<String> {
    vec![format!("create relation {REL} as btree(16)")]
}

fn start(dir: &Path, gens: &[Gen]) -> ReplicatedCluster {
    let cluster = ReplicatedCluster::start(dir, harness::CLIENTS, 1, 1).expect("cluster starts");
    harness::load(&cluster.client(0), &ddl(), Expect::Created);
    std::thread::scope(|s| {
        for (u, g) in gens.iter().enumerate() {
            let client = cluster.client(harness::client_of(u));
            s.spawn(move || harness::load(&client, &g.load_ops(), Expect::Inserted));
        }
    });
    cluster.sync();
    cluster
}

pub fn run(cfg: &Config) -> RunOut {
    let sizes = Sizes::of(cfg);
    let rows = sizes.oltp_rows;
    let gens: Vec<Gen> = (0..USERS).map(|u| Gen::new(cfg.seed, u, rows)).collect();

    // Set-up, timed several times; the last cluster serves the run.
    let mut setups = Vec::new();
    let mut cluster = None;
    let reps = harness::setup_reps(cfg, SETUP_REPS);
    for rep in 0..reps {
        let dir = cfg.work.join(format!("oltp-{rep}"));
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

    let cluster = Arc::new(cluster);
    let loop_out = harness::run_clients(cfg, &KINDS, NOMINAL_RATE, gens, |u| {
        let client = cluster.client(harness::client_of(u));
        move |op: &Op| harness::exec_client(&client, op)
    });
    let msgs = cluster.message_count() - msgs_before;
    let (final_gens, phase) = loop_out;

    let cluster = Arc::try_unwrap(cluster).expect("clients finished");
    cluster.shutdown();
    let writes: u64 = [REPLACE, INSERT, DELETE]
        .iter()
        .map(|&k| phase.kinds[k].attempted)
        .sum();
    let storage =
        crate::common::dir_bytes(&dir).saturating_sub(bytes_before) as f64 / writes.max(1) as f64;

    // Recovery: reopen the primary's directory until it answers, then
    // check both directories against the model.
    let model: Vec<Vec<i64>> = final_gens.iter().flat_map(|g| g.rows()).collect();
    let t0 = Instant::now();
    let (engine, _report) = DurableEngine::open(&dir.join("primary"), 1).expect("primary reopens");
    let probe = engine.submit(fundb_query::translate(
        fundb_query::parse(&format!("count {REL}")).expect("parses"),
    ));
    let answered = probe.wait_cloned();
    let recovery_s = t0.elapsed().as_secs_f64();
    let mut checks = vec![Check::new(
        "primary reopen answers with the model's row count",
        Expect::Count(model.len()).check(&answered),
    )];
    checks.push(Check::new(
        "primary directory reopens to exactly the model",
        rows_equal(&model, &scan(&engine)),
    ));
    drop(engine);
    let (replica, _) = DurableEngine::open(&dir.join("replica-1"), 1).expect("replica reopens");
    checks.push(Check::new(
        "replica directory reopens to exactly the model",
        rows_equal(&model, &scan(&replica)),
    ));
    drop(replica);

    let mut out = RunOut::new(&KINDS, phase);
    out.setup_s = median(&setups);
    out.setups = setups;
    out.point_read = FIND;
    out.write = REPLACE;
    out.query = RANGE;
    out.checks = checks;
    out.info.push(("rows".into(), rows.to_string()));
    out.info
        .push(("recovery_s".into(), format!("{recovery_s:.6}")));
    out.info
        .push(("storage_bytes_per_write".into(), format!("{storage:.1}")));
    out.info.push((
        "msgs_per_op".into(),
        format!("{:.3}", msgs as f64 / out.total_attempted().max(1) as f64),
    ));
    out
}

fn scan(engine: &DurableEngine) -> Vec<fundb_relational::Tuple> {
    let db = engine.snapshot();
    db.relation(&REL.into())
        .map(|r| r.scan())
        .unwrap_or_default()
}

impl crate::harness::RoundGen for Gen {
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

/// Offered rates of the open-loop sweep, operations per second.
const SWEEP_RATES: [u64; 6] = [1_000, 2_000, 4_000, 6_000, 8_000, 10_000];
/// Seconds each rate is offered.
const SWEEP_SECONDS: f64 = 5.0;
/// The p99 limit a rate must meet, microseconds.
pub const SWEEP_P99_LIMIT_US: f64 = 5_000.0;

/// Open-loop reference sweep: each client site sends its users' next
/// operations on a fixed schedule, whatever the backlog, and each latency
/// is timed from the operation's intended send time. Prints one row per
/// rate and the highest rate that, with every lower rate, meets
/// [`SWEEP_P99_LIMIT_US`] at p99 with every operation answered (an
/// operation unanswered a second after the previous one was is lost).
pub fn sweep(cfg: &Config) {
    let rows = Sizes::of(cfg).oltp_rows;
    let mut gens: Vec<Gen> = (0..USERS).map(|u| Gen::new(cfg.seed, u, rows)).collect();
    let dir = cfg.work.join("oltp-sweep");
    let cluster = start(&dir, &gens);
    let (mut best, mut previous) = (None, None);
    println!("sweep rate_ops_s  sent  answered  mismatched  p50_us  p99_us  max_send_lag_us");
    for rate in SWEEP_RATES {
        let per_client = rate as f64 / harness::CLIENTS as f64;
        let n = (per_client * SWEEP_SECONDS) as usize;
        let start_at = Instant::now() + std::time::Duration::from_millis(50);
        let results: Vec<(Vec<u64>, u64, u64, u64)> = std::thread::scope(|s| {
            let mut handles = Vec::new();
            for c in 0..harness::CLIENTS {
                // This client's users, interleaved in send order.
                let mut mine: Vec<&mut Gen> = gens
                    .iter_mut()
                    .enumerate()
                    .filter(|(u, _)| harness::client_of(*u) == c)
                    .map(|(_, g)| g)
                    .collect();
                let mut ops = Vec::with_capacity(n);
                while ops.len() < n {
                    let rounds: Vec<Vec<Op>> = mine.iter_mut().map(|g| g.round()).collect();
                    let longest = rounds.iter().map(Vec::len).max().unwrap_or(0);
                    for i in 0..longest {
                        ops.extend(rounds.iter().filter_map(|r| r.get(i).cloned()));
                    }
                }
                ops.truncate(n);
                let client = cluster.client(c);
                handles.push(s.spawn(move || {
                    let (tx, rx) = std::sync::mpsc::channel();
                    let collector = std::thread::spawn(move || {
                        let (mut lat, mut answered, mut mismatched) = (Vec::new(), 0u64, 0u64);
                        for (due, cell, op) in rx.iter().map(
                            |x: (Instant, fundb_lenient::Lenient<fundb_query::Response>, Op)| x,
                        ) {
                            let resp = cell.wait_timeout(std::time::Duration::from_secs(1));
                            let done = Instant::now();
                            if let Some(resp) = resp {
                                answered += 1;
                                mismatched += u64::from(!op.expect.check(resp));
                                lat.push(done.saturating_duration_since(due).as_nanos() as u64);
                            }
                        }
                        (lat, answered, mismatched)
                    });
                    let mut max_lag = 0u64;
                    for (i, op) in ops.into_iter().enumerate() {
                        let due =
                            start_at + std::time::Duration::from_secs_f64(i as f64 / per_client);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        max_lag = max_lag
                            .max(Instant::now().saturating_duration_since(due).as_nanos() as u64);
                        let Body::One(q) = &op.body else {
                            unreachable!("oltp sends single queries")
                        };
                        let cell = client.submit(q);
                        let _ = tx.send((due, cell, op));
                    }
                    drop(tx);
                    let (lat, answered, mismatched) = collector.join().expect("collector");
                    (lat, answered, mismatched, max_lag)
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("sender"))
                .collect()
        });
        let lat: Vec<u64> = results.iter().flat_map(|r| r.0.iter().copied()).collect();
        let answered: u64 = results.iter().map(|r| r.1).sum();
        let mismatched: u64 = results.iter().map(|r| r.2).sum();
        let lag = results.iter().map(|r| r.3).max().unwrap_or(0);
        let sent = (n * harness::CLIENTS) as u64;
        let (p50, p99) = (
            crate::common::percentile_us(&lat, 50.0),
            crate::common::percentile_us(&lat, 99.0),
        );
        println!("sweep {rate:>11} {sent:>5} {answered:>9} {mismatched:>11} {p50:>7.0} {p99:>7.0} {:>16.0}", lag as f64 / 1e3);
        let meets = answered == sent && p99 <= SWEEP_P99_LIMIT_US;
        if meets && best == previous {
            best = Some(rate);
        }
        previous = Some(rate);
    }
    println!(
        "sweep highest rate meeting p99 <= {SWEEP_P99_LIMIT_US} us: {}",
        best.map_or("none".to_string(), |r| format!("{r} ops/s"))
    );
    cluster.shutdown();
}
