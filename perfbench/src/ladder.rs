//! The traced run: one workload's seeded operation stream replayed
//! through a ladder of layer stacks, each stage adding one layer to the
//! stage below it.
//!
//! 1. `query`: parse and translate every operation.
//! 2. `relational` + `persist`: a sequential `Transaction::apply` fold,
//!    plus `BTree::merge_batch` timed at the relation's size.
//! 3. `core` + `lenient`: a `PipelinedEngine` driven by the same users.
//! 4. `durable`: a `DurableEngine`, then its reopen.
//! 5. `net`: the workload's cluster.
//!
//! A layer's self time is its stage's per-operation median minus that of
//! the stage below. Spans are kept in memory and written out at the end.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fundb_core::{CommitSink, EngineStatsSnapshot, PipelinedEngine};
use fundb_durable::DurableEngine;
use fundb_lenient::Lenient;
use fundb_net::{ClientHandle, ReplicatedCluster, ShardedCluster};
use fundb_persist::BTree;
use fundb_query::{parse, translate, Query, Response, Transaction};
use fundb_relational::{Database, RelationName};

use crate::common::{dir_bytes, median, rss_bytes, Body, Expect, KindSpec, Op, Rng, Tracer};
use crate::harness::{self, Config, RoundGen, Sizes, USERS};
use crate::{analytic, oltp, sharded};

/// The cluster a workload runs on in stage 5.
#[derive(Debug, Clone, Copy)]
pub enum ClusterShape {
    /// A `ReplicatedCluster` with this many replicas.
    Replicated(usize),
    /// A `ShardedCluster` with this many shards and no replicas.
    Sharded(u32),
}

/// What the ladder needs to know about a workload.
#[derive(Debug, Clone)]
pub struct Plan {
    pub specs: Vec<KindSpec>,
    /// Relation creation, then each user's set-up inserts.
    pub create: Vec<String>,
    pub load: Vec<Vec<String>>,
    /// Secondary-index and view DDL run after the load.
    pub index_ddl: Vec<String>,
    pub view_ddl: Vec<String>,
    /// Each user's operation stream.
    pub streams: Vec<Vec<Op>>,
    pub read_kind: usize,
    pub write_kind: usize,
    pub query_kind: usize,
    /// Kinds that write (everything else reads).
    pub write_kinds: Vec<usize>,
    /// Size of the relation the writes go to, per engine.
    pub rel_size: usize,
    pub workers: usize,
    pub cluster: ClusterShape,
}

impl Plan {
    pub fn for_workload(cfg: &Config) -> Plan {
        let sizes = Sizes::of(cfg);
        let rounds = sizes.ladder_rounds;
        match cfg.workload.as_str() {
            "oltp_replicated" => {
                let (load, streams) = replayed(
                    (0..USERS).map(|u| oltp::Gen::new(cfg.seed, u, sizes.oltp_rows)),
                    rounds,
                );
                Plan {
                    specs: oltp::KINDS.to_vec(),
                    create: oltp::ddl(),
                    rel_size: load.iter().map(Vec::len).sum(),
                    load,
                    index_ddl: Vec::new(),
                    view_ddl: Vec::new(),
                    streams,
                    read_kind: oltp::FIND,
                    write_kind: oltp::REPLACE,
                    query_kind: oltp::RANGE,
                    write_kinds: vec![oltp::REPLACE, oltp::INSERT, oltp::DELETE],
                    workers: 1,
                    cluster: ClusterShape::Replicated(1),
                }
            }
            "sharded_transfer" => {
                let gens = (0..USERS)
                    .map(|u| sharded::Gen::new(cfg.seed, u, sizes.accounts, sizes.branches));
                let (load, streams) = replayed(gens, rounds);
                Plan {
                    specs: sharded::KINDS.to_vec(),
                    create: sharded::ddl(),
                    load,
                    index_ddl: Vec::new(),
                    view_ddl: Vec::new(),
                    streams,
                    read_kind: sharded::FIND,
                    write_kind: sharded::TRANSFER,
                    query_kind: sharded::COUNT,
                    write_kinds: vec![sharded::TRANSFER],
                    rel_size: sizes.accounts / sharded::SHARDS as usize,
                    workers: 1,
                    cluster: ClusterShape::Sharded(sharded::SHARDS),
                }
            }
            _ => {
                let star = analytic::Star::of(&sizes);
                let (load, streams) = replayed(
                    (0..USERS).map(|u| analytic::Gen::new(cfg.seed, u, star)),
                    rounds,
                );
                Plan {
                    specs: analytic::KINDS.to_vec(),
                    create: analytic::create_ddl(),
                    load,
                    index_ddl: analytic::index_ddl(),
                    view_ddl: analytic::view_ddl(),
                    streams,
                    read_kind: analytic::FIND,
                    write_kind: analytic::WRITE,
                    query_kind: analytic::INDEX_SELECT,
                    write_kinds: vec![analytic::WRITE],
                    rel_size: star.facts,
                    workers: 2,
                    cluster: ClusterShape::Replicated(0),
                }
            }
        }
    }

    fn is_write(&self, op: &Op) -> bool {
        self.write_kinds.contains(&op.kind)
    }

    /// The users' streams interleaved round-robin: the order of the
    /// sequential fold. Users own disjoint keys, so every answer the model
    /// predicts holds in any interleaving.
    fn interleaved(&self) -> Vec<(u64, &Op)> {
        let longest = self.streams.iter().map(Vec::len).max().unwrap_or(0);
        (0..longest)
            .flat_map(|i| {
                self.streams
                    .iter()
                    .enumerate()
                    .filter_map(move |(c, s)| s.get(i).map(|op| (op_id(c, i), op)))
            })
            .collect()
    }
}

/// Every user's set-up inserts and its first `rounds` rounds.
fn replayed<G: RoundGen>(
    gens: impl Iterator<Item = G>,
    rounds: usize,
) -> (Vec<Vec<String>>, Vec<Vec<Op>>) {
    gens.map(|mut g| (g.load_ops(), (0..rounds).flat_map(|_| g.round()).collect()))
        .unzip()
}

fn op_id(client: usize, index: usize) -> u64 {
    ((client as u64) << 32) | index as u64
}

/// The queries of an operation (two for a transfer).
fn queries(op: &Op) -> Vec<&str> {
    match &op.body {
        Body::One(q) => vec![q.as_str()],
        Body::Txn(qs) => qs.iter().map(String::as_str).collect(),
    }
}

/// Per-kind latency samples of one stage, in microseconds.
#[derive(Debug, Default, Clone)]
struct StageTimes {
    by_kind: Vec<Vec<f64>>,
    failed: u64,
    attempted: u64,
}

impl StageTimes {
    fn new(kinds: usize) -> StageTimes {
        StageTimes {
            by_kind: vec![Vec::new(); kinds],
            ..StageTimes::default()
        }
    }

    fn median(&self, kind: usize) -> f64 {
        median(&self.by_kind[kind])
    }

    fn merge(&mut self, other: StageTimes) {
        for (a, b) in self.by_kind.iter_mut().zip(other.by_kind) {
            a.extend(b);
        }
        self.failed += other.failed;
        self.attempted += other.attempted;
    }
}

/// Whether a single-node stage answered as the model predicts. A transfer
/// is two separate writes below the cluster, so each must be acknowledged.
fn single_node_ok(op: &Op, answers: &[Response]) -> bool {
    match &op.body {
        Body::One(_) => op.expect.check(&answers[0]),
        Body::Txn(_) => answers.iter().all(|r| Expect::Inserted.check(r)),
    }
}

/// Stage 1: parse and translate every query of every operation.
fn stage_query(plan: &Plan, tracer: &Tracer) -> (f64, f64) {
    let (mut parse_us, mut translate_us) = (Vec::new(), Vec::new());
    for (id, op) in plan.interleaved() {
        let root = tracer.open("query.op", id, None);
        for q in queries(op) {
            let (parsed, p_ns) = tracer.span("query.parse", id, Some(root), || parse(q));
            let parsed = parsed.expect("generated queries parse");
            let (_, t_ns) = tracer.span("query.translate", id, Some(root), || translate(parsed));
            parse_us.push(p_ns as f64 / 1e3);
            translate_us.push(t_ns as f64 / 1e3);
        }
        tracer.close(root);
    }
    (median(&parse_us), median(&translate_us))
}

fn apply_all(db: Database, queries: &[String]) -> Database {
    queries.iter().fold(db, |db, q| {
        let (resp, next) = translate(parse(q).expect("set-up parses")).apply(&db);
        assert!(!resp.is_error(), "set-up `{q}` failed: {resp}");
        next
    })
}

/// Stage 2: the sequential fold. Returns per-kind times, the database the
/// stream started from, and the same fold's write medians without views
/// and without the index.
struct FoldOut {
    times: StageTimes,
    loaded: Database,
    plan_us: f64,
    view_maint_us: f64,
    index_maint_us: f64,
}

fn fold(plan: &Plan, db: &Database, tracer: Option<&Tracer>) -> (StageTimes, Database) {
    let mut times = StageTimes::new(plan.specs.len());
    let mut db = db.clone();
    for (id, op) in plan.interleaved() {
        let mut answers = Vec::new();
        let root = tracer.map(|t| t.open("relational.op", id, None));
        let t0 = Instant::now();
        for q in queries(op) {
            let tx: Transaction = translate(parse(q).expect("parses"));
            let (resp, next) = match tracer {
                Some(t) => t.span("relational.apply", id, root, || tx.apply(&db)).0,
                None => tx.apply(&db),
            };
            db = next;
            answers.push(resp);
        }
        times.by_kind[op.kind].push(t0.elapsed().as_nanos() as f64 / 1e3);
        if let (Some(t), Some(root)) = (tracer, root) {
            t.close(root);
        }
        times.attempted += 1;
        times.failed += u64::from(!single_node_ok(op, &answers));
    }
    (times, db)
}

fn stage_fold(plan: &Plan, tracer: &Tracer) -> FoldOut {
    let bare = apply_all(Database::empty(), &plan.create);
    let bare = plan.load.iter().fold(bare, |db, l| apply_all(db, l));
    let indexed = apply_all(bare.clone(), &plan.index_ddl);
    let loaded = apply_all(indexed.clone(), &plan.view_ddl);
    let (times, _) = fold(plan, &loaded, Some(tracer));

    // `explain` of every analytic query, on the loaded database.
    let mut plan_us = Vec::new();
    for (id, op) in plan
        .interleaved()
        .into_iter()
        .filter(|(_, op)| op.kind == plan.query_kind)
    {
        let q = parse(queries(op)[0]).expect("parses");
        let tx = translate(Query::Explain(Box::new(q)));
        let (_, ns) = tracer.span("query.plan", id, None, || tx.apply(&loaded));
        plan_us.push(ns as f64 / 1e3);
    }

    // The same write fold without the views, and without the index too:
    // the differences are the maintenance costs.
    let (view_maint_us, index_maint_us) = if plan.view_ddl.is_empty() && plan.index_ddl.is_empty() {
        (0.0, 0.0)
    } else {
        let w = plan.write_kind;
        let full = times.median(w);
        let no_views = fold(plan, &indexed, None).0.median(w);
        let no_index = fold(plan, &bare, None).0.median(w);
        (full - no_views, no_views - no_index)
    };
    FoldOut {
        times,
        loaded,
        plan_us: median(&plan_us),
        view_maint_us,
        index_maint_us,
    }
}

/// `BTree::merge_batch` of `k` random existing keys at the relation's
/// size: median microseconds and median pages copied.
fn merge_batch_cost(n: usize, k: usize, seed: u64) -> (f64, f64) {
    let tree: BTree<i64, i64> = BTree::from_sorted_entries(16, (0..n as i64).map(|i| (i, i)));
    let mut rng = Rng::new(seed, 900 + k as u64);
    let (mut us, mut copied) = (Vec::new(), Vec::new());
    for _ in 0..200 {
        let mut batch: Vec<(i64, Option<i64>)> = (0..k)
            .map(|_| (rng.below(n as u64) as i64, Some(rng.below(1000) as i64)))
            .collect();
        batch.sort_by_key(|e| e.0);
        batch.dedup_by_key(|e| e.0);
        let t0 = Instant::now();
        let (next, report) = tree.merge_batch(&batch);
        us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        copied.push(report.copied as f64);
        std::hint::black_box(next);
    }
    (median(&us), median(&copied))
}

/// A cell filled on one thread and awaited on another: half the round
/// trip of two such hand-offs, median microseconds.
fn fill_wait_us() -> f64 {
    const N: usize = 2_000;
    let req: Arc<Vec<Lenient<u64>>> = Arc::new((0..N).map(|_| Lenient::new()).collect());
    let resp: Arc<Vec<Lenient<u64>>> = Arc::new((0..N).map(|_| Lenient::new()).collect());
    let (rq, rs) = (Arc::clone(&req), Arc::clone(&resp));
    let echo = std::thread::spawn(move || {
        for i in 0..N {
            let v = *rq[i].wait();
            let _ = rs[i].fill(v);
        }
    });
    let mut us = Vec::with_capacity(N);
    for i in 0..N {
        let t0 = Instant::now();
        let _ = req[i].fill(i as u64);
        assert_eq!(*resp[i].wait(), i as u64);
        us.push(t0.elapsed().as_nanos() as f64 / 2e3);
    }
    echo.join().expect("echo thread");
    median(&us)
}

/// Replays both streams concurrently, one thread per client, through
/// `exec`; `span` names the recorded spans.
fn replay<E>(plan: &Plan, tracer: &Tracer, span: &'static str, exec: E) -> StageTimes
where
    E: Fn(usize, &Op) -> Vec<Response> + Sync,
{
    let mut all = StageTimes::new(plan.specs.len());
    let parts: Vec<StageTimes> = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                let exec = &exec;
                s.spawn(move || {
                    let mut t = StageTimes::new(plan.specs.len());
                    for (i, op) in stream.iter().enumerate() {
                        let (answers, ns) = tracer.span(span, op_id(c, i), None, || exec(c, op));
                        t.by_kind[op.kind].push(ns as f64 / 1e3);
                        t.attempted += 1;
                        let ok = if answers.len() == 1 && matches!(op.body, Body::Txn(_)) {
                            op.expect.check(&answers[0])
                        } else {
                            single_node_ok(op, &answers)
                        };
                        t.failed += u64::from(!ok);
                    }
                    t
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay client"))
            .collect()
    });
    for p in parts {
        all.merge(p);
    }
    all
}

/// Submits every query of `op` to an in-process engine, then waits.
fn engine_exec(engine: &PipelinedEngine, op: &Op) -> Vec<Response> {
    let cells: Vec<_> = queries(op)
        .into_iter()
        .map(|q| harness::exec_engine_cell(engine, q))
        .collect();
    cells.iter().map(Lenient::wait_cloned).collect()
}

fn writes_in(plan: &Plan) -> u64 {
    plan.streams
        .iter()
        .flatten()
        .filter(|op| plan.is_write(op))
        .map(|op| queries(op).len() as u64)
        .sum()
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Counts the group commits of an engine it is attached to.
#[derive(Debug, Default)]
struct CommitCounter {
    batches: AtomicU64,
}

impl CommitSink for CommitCounter {
    fn commit_writes(&self, _: &RelationName, _: &[(u64, Query)]) -> io::Result<()> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn commit_create(&self, _: &Query) -> io::Result<()> {
        Ok(())
    }
}

fn delta(a: &EngineStatsSnapshot, b: &EngineStatsSnapshot) -> EngineStatsSnapshot {
    EngineStatsSnapshot {
        bypass_writes: b.bypass_writes - a.bypass_writes,
        frontier_hits: b.frontier_hits - a.frontier_hits,
        frontier_misses: b.frontier_misses - a.frontier_misses,
        batches_claimed: b.batches_claimed - a.batches_claimed,
        ops_claimed: b.ops_claimed - a.ops_claimed,
        view_updates: b.view_updates - a.view_updates,
        ..*b
    }
}

/// A running cluster of either shape, driven through its clients.
enum AnyCluster {
    Replicated(ReplicatedCluster),
    Sharded(ShardedCluster),
}

impl AnyCluster {
    fn start(shape: ClusterShape, dir: &Path, workers: usize) -> AnyCluster {
        match shape {
            ClusterShape::Replicated(r) => AnyCluster::Replicated(
                ReplicatedCluster::start(dir, harness::CLIENTS, workers, r)
                    .expect("cluster starts"),
            ),
            ClusterShape::Sharded(s) => AnyCluster::Sharded(
                ShardedCluster::start(dir, s, harness::CLIENTS, workers, 0)
                    .expect("cluster starts"),
            ),
        }
    }

    fn client(&self, i: usize) -> ClientHandle {
        match self {
            AnyCluster::Replicated(c) => c.client(i),
            AnyCluster::Sharded(c) => c.client(i),
        }
    }

    fn message_count(&self) -> u64 {
        match self {
            AnyCluster::Replicated(c) => c.message_count(),
            AnyCluster::Sharded(c) => c.message_count(),
        }
    }

    fn sync(&self) {
        match self {
            AnyCluster::Replicated(c) => c.sync(),
            AnyCluster::Sharded(c) => c.sync(),
        }
    }

    fn shutdown(self) {
        match self {
            AnyCluster::Replicated(c) => {
                c.shutdown();
            }
            AnyCluster::Sharded(c) => {
                c.shutdown();
            }
        }
    }
}

/// Runs the ladder and returns the result line.
pub fn run(cfg: &Config) -> String {
    let plan = Plan::for_workload(cfg);
    let tracer = Tracer::new();
    let k = plan.specs.len();
    let (r, w, q) = (plan.read_kind, plan.write_kind, plan.query_kind);
    let writes = writes_in(&plan);
    let ops: u64 = plan.streams.iter().map(|s| s.len() as u64).sum();
    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    let mut stages: Vec<(&'static str, StageTimes)> = Vec::new();

    // 1. query
    let (parse_us, translate_us) = stage_query(&plan, &tracer);
    metrics.push(("query.parse_us", parse_us, "us"));
    metrics.push(("query.translate_us", translate_us, "us"));

    // 2. relational + persist
    let folded = stage_fold(&plan, &tracer);
    metrics.push(("query.plan_us", folded.plan_us, "us"));
    metrics.push(("relational.apply_write_us", folded.times.median(w), "us"));
    metrics.push(("relational.apply_read_us", folded.times.median(r), "us"));
    metrics.push(("relational.view_maint_us", folded.view_maint_us, "us"));
    metrics.push(("relational.index_maint_us", folded.index_maint_us, "us"));
    let (k1_us, k1_pages) = merge_batch_cost(plan.rel_size, 1, cfg.seed);
    let (k16_us, _) = merge_batch_cost(plan.rel_size, 16, cfg.seed);
    metrics.push(("persist.merge_batch_k1_us", k1_us, "us"));
    metrics.push(("persist.merge_batch_k16_us", k16_us, "us"));
    metrics.push(("persist.pages_copied_per_write", k1_pages, "count"));
    stages.push(("relational+persist", folded.times.clone()));

    // 3. core + lenient
    metrics.push(("lenient.fill_wait_us", fill_wait_us(), "us"));
    let engine = PipelinedEngine::new(plan.workers, &folded.loaded);
    let before = engine.stats();
    let core = replay(&plan, &tracer, "core.submit_wait", |_, op| {
        engine_exec(&engine, op)
    });
    let st = delta(&before, &engine.stats());
    drop(engine);
    metrics.push(("core.engine_read_us", core.median(r), "us"));
    metrics.push(("core.engine_write_us", core.median(w), "us"));
    // A write applied inline (bypass) is a batch of one.
    metrics.push((
        "core.ops_per_batch",
        ratio(
            st.ops_claimed + st.bypass_writes,
            st.batches_claimed + st.bypass_writes,
        ),
        "ratio",
    ));
    metrics.push((
        "core.frontier_hit_ratio",
        ratio(st.frontier_hits, st.frontier_hits + st.frontier_misses),
        "ratio",
    ));
    metrics.push((
        "core.view_updates_per_write",
        ratio(st.view_updates, writes),
        "ratio",
    ));

    // 4. durable
    let dir = cfg.work.join("ladder-durable");
    let (durable, _) = DurableEngine::open(&dir, plan.workers).expect("durable engine opens");
    let submit = |q: &str| harness::exec_engine_cell(durable.engine(), q);
    harness::load_with(&plan.create, Expect::Created, submit);
    for l in &plan.load {
        harness::load_with(l, Expect::Inserted, submit);
    }
    let ddl: Vec<String> = plan
        .index_ddl
        .iter()
        .chain(&plan.view_ddl)
        .cloned()
        .collect();
    harness::load_with(&ddl, Expect::Created, submit);
    let wal_before = dir_bytes(&dir.join("wal"));
    // Attached after the log: sees each group commit the log accepted,
    // and the log makes one fsync per group commit.
    let commits = Arc::new(CommitCounter::default());
    durable.attach_sink(commits.clone());
    let dur = replay(&plan, &tracer, "durable.submit_wait", |_, op| {
        engine_exec(durable.engine(), op)
    });
    let group_commits = commits.batches.load(Ordering::Relaxed);
    let wal_after = dir_bytes(&dir.join("wal"));
    drop(durable);
    let t0 = Instant::now();
    let (reopened, report) =
        DurableEngine::open(&dir, plan.workers).expect("durable engine reopens");
    let replay_s = t0.elapsed().as_secs_f64();
    drop(reopened);
    metrics.push(("durable.commit_us", dur.median(w) - core.median(w), "us"));
    metrics.push((
        "durable.fsyncs_per_write",
        ratio(group_commits, writes),
        "ratio",
    ));
    metrics.push((
        "durable.wal_bytes_per_write",
        ratio(wal_after.saturating_sub(wal_before), writes),
        "B",
    ));
    metrics.push((
        "durable.replay_us_per_record",
        replay_s * 1e6 / report.replayed.max(1) as f64,
        "us",
    ));

    // 5. net
    let cdir = cfg.work.join("ladder-cluster");
    let cluster = AnyCluster::start(plan.cluster, &cdir, plan.workers);
    harness::load(&cluster.client(0), &plan.create, Expect::Created);
    std::thread::scope(|s| {
        for (u, l) in plan.load.iter().enumerate() {
            let client = cluster.client(harness::client_of(u));
            s.spawn(move || harness::load(&client, l, Expect::Inserted));
        }
    });
    harness::load(&cluster.client(0), &ddl, Expect::Created);
    cluster.sync();
    let msgs0 = cluster.message_count();
    let rss0 = rss_bytes();
    let clients: Vec<ClientHandle> = (0..harness::CLIENTS).map(|c| cluster.client(c)).collect();
    let net = replay(&plan, &tracer, "net.submit_wait", |u, op| {
        vec![harness::exec_client(&clients[harness::client_of(u)], op)]
    });
    let rss1 = rss_bytes();
    let msgs = cluster.message_count() - msgs0;
    drop(clients);
    cluster.shutdown();
    metrics.push(("net.msgs_per_op", ratio(msgs, ops), "ratio"));
    metrics.push(("net.hop_us", net.median(r) - dur.median(r), "us"));
    metrics.push((
        "net.rss_b_per_msg",
        (rss1 as f64 - rss0 as f64) / msgs.max(1) as f64,
        "B",
    ));

    stages.push(("core+lenient", core));
    stages.push(("durable", dur));
    stages.push(("net", net.clone()));

    // The cost of recording one span, on a scratch recorder.
    let probe = Tracer::new();
    let t0 = Instant::now();
    for i in 0..10_000 {
        probe.span("probe", i, None, || ());
    }
    println!(
        "span cost: {:.0} ns each",
        t0.elapsed().as_nanos() as f64 / 10_000.0
    );

    // Report: stage medians per kind, failures, and the trace files.
    for (name, t) in &stages {
        let cols: Vec<String> = (0..k)
            .map(|kind| format!("{}={:.1}", plan.specs[kind].name, t.median(kind)))
            .collect();
        println!(
            "stage {name:<20} failed {}/{}  median us: {}",
            t.failed,
            t.attempted,
            cols.join(" ")
        );
    }
    println!(
        "stage medians (read/write/query us): {}",
        stages
            .iter()
            .map(|(n, t)| format!(
                "{n} {:.1}/{:.1}/{:.1}",
                t.median(r),
                t.median(w),
                t.median(q)
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    write_trace(cfg, &tracer, &metrics);

    let attempted: u64 = stages.iter().map(|(_, t)| t.attempted).sum();
    let failed: u64 = stages.iter().map(|(_, t)| t.failed).sum();
    // Below the cluster the branch join is answered by one node and must
    // be right; at the cluster only kinds with a named fault may fail.
    let below_ok = stages[..3].iter().all(|(_, t)| t.failed == 0);
    let net_ok = net.failed
        == plan
            .streams
            .iter()
            .flatten()
            .filter(|op| plan.specs[op.kind].known_fault.is_some())
            .count() as u64
        || net.failed == 0;
    let mut json = String::from("{");
    for (name, value, unit) in &metrics {
        if json.len() > 1 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push('}');
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {json}}}",
        below_ok && net_ok
    )
}

/// Writes the spans (one JSON object a line) and the per-layer summary
/// under `.perfbench_out/`.
fn write_trace(cfg: &Config, tracer: &Tracer, metrics: &[(&'static str, f64, &'static str)]) {
    let out = PathBuf::from(".perfbench_out");
    if fs::create_dir_all(&out).is_err() {
        return;
    }
    let stem = format!("{}-seed{}", cfg.workload, cfg.seed);
    let mut spans = String::new();
    for s in tracer.spans() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            spans,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
            s.name, s.start_ns, s.end_ns, s.op
        );
    }
    let mut summary = String::new();
    for (name, value, unit) in metrics {
        let _ = writeln!(summary, "{name:<34} {value:>14.3} {unit}");
    }
    let _ = fs::write(out.join(format!("spans-{stem}.jsonl")), spans);
    let _ = fs::write(out.join(format!("layers-{stem}.txt")), summary);
    println!("trace written to .perfbench_out/spans-{stem}.jsonl and layers-{stem}.txt");
}
