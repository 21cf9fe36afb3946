//! Shared pieces: the seeded generator, per-kind operation accounting,
//! latency percentiles, process memory and directory sizes, the host
//! reference loop, the span recorder and the closed loop itself.

use std::fs;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use fundb_query::Response;

/// SplitMix64: small, seedable and independent of the program under test,
/// so the same `--seed` always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x2545_f491_4f6c_dd1d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// One round's kinds in a seeded order: `counts[k]` operations of
    /// kind `k`, shuffled (Fisher-Yates).
    pub fn round_order(&mut self, counts: &[usize]) -> Vec<usize> {
        let mut kinds: Vec<usize> = counts
            .iter()
            .enumerate()
            .flat_map(|(k, &n)| std::iter::repeat_n(k, n))
            .collect();
        for i in (1..kinds.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            kinds.swap(i, j);
        }
        kinds
    }
}

/// What the benchmark's own model says a response must be. Each variant's
/// check is in [`Expect::check`]; a mismatch is a failed operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// Exactly these tuples, as `(key, rest of fields)` rows in any order.
    Rows(Vec<Vec<i64>>),
    /// A `count` of exactly this many rows.
    Count(usize),
    /// An aggregate equal to this value.
    Agg(i64),
    /// An acknowledged insert (or replace).
    Inserted,
    /// A delete that removed exactly this many tuples.
    Deleted(usize),
    /// An acknowledged multi-write transaction of this many writes.
    Applied(usize),
    /// An acknowledged DDL statement (relation, index or view created).
    Created,
    /// The `Branch`-`Acct` join (see [`JoinExpect`]).
    Join(JoinExpect),
}

/// The branch join's answer: one `[branch, 100 + branch, id, balance]`
/// row per account id in `ids`, the branch being `id % branches`, and
/// exactly the rows in `own` for the accounts whose balances the checking
/// client knows.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinExpect {
    pub ids: Vec<i64>,
    pub branches: i64,
    pub own: Vec<Vec<i64>>,
}

impl JoinExpect {
    fn check(&self, got: &[fundb_relational::Tuple]) -> bool {
        let rows: Vec<Vec<i64>> = got.iter().map(int_fields).collect();
        let mut ids: Vec<i64> = rows
            .iter()
            .map(|r| r.get(2).copied().unwrap_or(-1))
            .collect();
        ids.sort_unstable();
        let shaped = rows
            .iter()
            .all(|r| r.len() == 4 && r[0] == r[2] % self.branches && r[1] == 100 + r[0]);
        let set: std::collections::HashSet<&Vec<i64>> = rows.iter().collect();
        ids == self.ids && shaped && self.own.iter().all(|r| set.contains(r))
    }
}

impl Expect {
    /// `true` when `resp` is exactly what the model predicts.
    pub fn check(&self, resp: &Response) -> bool {
        match (self, resp) {
            (Expect::Rows(want), Response::Tuples(got)) => rows_equal(want, got),
            (Expect::Count(n), Response::Count(m)) => n == m,
            (
                Expect::Agg(v),
                Response::Aggregate {
                    value: Some(got), ..
                },
            ) => got.as_int() == Some(*v),
            (Expect::Inserted, Response::Inserted { .. }) => true,
            (Expect::Deleted(n), Response::Deleted(m)) => n == m,
            (Expect::Applied(n), Response::Applied { ops, .. }) => n == ops,
            (Expect::Join(j), Response::Tuples(got)) => j.check(got),
            (
                Expect::Created,
                Response::Created(_) | Response::IndexCreated { .. } | Response::ViewCreated { .. },
            ) => true,
            _ => false,
        }
    }
}

/// Integer fields of a tuple (every relation here holds integers only).
pub fn int_fields(t: &fundb_relational::Tuple) -> Vec<i64> {
    t.iter().map(|v| v.as_int().unwrap_or(i64::MIN)).collect()
}

/// Order-insensitive comparison of model rows with returned tuples.
pub fn rows_equal(want: &[Vec<i64>], got: &[fundb_relational::Tuple]) -> bool {
    if want.len() != got.len() {
        return false;
    }
    let mut a: Vec<Vec<i64>> = want.to_vec();
    let mut b: Vec<Vec<i64>> = got.iter().map(int_fields).collect();
    a.sort_unstable();
    b.sort_unstable();
    a == b
}

/// The body of one operation: a single query or a multi-write transaction.
#[derive(Debug, Clone)]
pub enum Body {
    One(String),
    Txn(Vec<String>),
}

/// One generated operation with the model's prediction of its answer.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: usize,
    pub body: Body,
    pub expect: Expect,
}

/// A kind of operation: its name, and the named fault that makes it fail
/// every time, if there is one.
#[derive(Debug, Clone, Copy)]
pub struct KindSpec {
    pub name: &'static str,
    pub known_fault: Option<&'static str>,
}

/// Per-kind counts of one run, and the first mismatch seen.
#[derive(Debug, Clone, Default)]
pub struct KindStats {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl KindStats {
    pub fn merge(&mut self, other: KindStats) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

/// Nearest-rank percentile of unsorted samples, in microseconds.
pub fn percentile_us(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1] as f64 / 1000.0
}

/// Median of a list of floats (upper median for even lengths' lower half
/// is avoided by averaging the middle pair).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn status_kib(field: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// CPU time (user + system) of the whole process so far, seconds.
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit(')').next().unwrap_or("");
    let f: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks: u64 = f.get(11).and_then(|v| v.parse().ok()).unwrap_or(0)
        + f.get(12).and_then(|v| v.parse().ok()).unwrap_or(0);
    ticks as f64 / 100.0
}

/// Current resident set, bytes.
pub fn rss_bytes() -> u64 {
    status_kib("VmRSS:") * 1024
}

/// Peak resident set of the process so far, bytes.
pub fn peak_rss_bytes() -> u64 {
    status_kib("VmHWM:") * 1024
}

/// Total size of the regular files under `path`, bytes.
pub fn dir_bytes(path: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(path) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}

/// A fixed single-thread integer loop: its time, taken before and after a
/// run, shows how fast the host was while the figures were taken.
pub fn reference_loop_s() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x1234_5678;
    for i in 0..60_000_000u64 {
        x = x.rotate_left(7) ^ i.wrapping_mul(0x9e37_79b9);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64()
}

/// One recorded span: a call into a layer's public API.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// In-memory span recorder for the traced run; written out at the end.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a span that later spans can name as their parent; returns
    /// its index for [`close`](Self::close).
    pub fn open(&self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span lock");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        spans.len() - 1
    }

    /// Ends the span `index` returned by [`open`](Self::open); returns its
    /// duration in nanoseconds.
    pub fn close(&self, index: usize) -> u64 {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span lock");
        spans[index].end_ns = end_ns;
        end_ns - spans[index].start_ns
    }

    /// Times `f` as a span; returns its result and duration (ns).
    pub fn span<T>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let index = self.open(name, op, parent);
        let out = f();
        (out, self.close(index))
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock").clone()
    }
}

/// How long each user's closed loop runs: a fixed number of whole rounds,
/// the first few of them warm-up.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub epoch: Instant,
    pub rounds: u64,
    pub warm_rounds: u64,
    /// A user still running at this instant stops after its current
    /// round, so a stalled host cannot hold a run past its time limit.
    pub give_up: Instant,
}

/// One operation timed after warm-up: its kind and its start and end,
/// nanoseconds from the schedule's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub kind: usize,
    pub start: u64,
    pub end: u64,
}

/// Result of one user's closed loop.
#[derive(Debug, Default)]
pub struct LoopOut {
    /// Attempted and failed counts per kind.
    pub kinds: Vec<KindStats>,
    pub timed: Vec<Timed>,
    /// When the user's warm-up ended and when its last answer arrived.
    pub warm_end: u64,
    pub done: u64,
    pub rounds: u64,
}

/// One user's closed loop: whole rounds from `next_round`, each operation
/// sent only after the previous answer arrived. Every answer is checked
/// against the model's prediction; a mismatch is a failed operation.
pub fn closed_loop(
    kinds: usize,
    schedule: Schedule,
    mut next_round: impl FnMut() -> Vec<Op>,
    mut exec: impl FnMut(&Op) -> Response,
) -> LoopOut {
    let mut out = LoopOut {
        kinds: vec![KindStats::default(); kinds],
        ..LoopOut::default()
    };
    let at = |t: Instant| t.duration_since(schedule.epoch).as_nanos() as u64;
    while out.rounds < schedule.rounds && (out.rounds == 0 || Instant::now() < schedule.give_up) {
        let warm = out.rounds < schedule.warm_rounds;
        for op in next_round() {
            let t0 = Instant::now();
            let resp = exec(&op);
            let t1 = Instant::now();
            let ks = &mut out.kinds[op.kind];
            ks.attempted += 1;
            if !op.expect.check(&resp) {
                ks.failed += 1;
                if ks.first_error.is_none() {
                    ks.first_error = Some(describe(&op, &resp));
                }
            }
            if !warm {
                out.timed.push(Timed {
                    kind: op.kind,
                    start: at(t0),
                    end: at(t1),
                });
            }
        }
        out.rounds += 1;
        if warm {
            out.warm_end = at(Instant::now());
        }
    }
    out.done = at(Instant::now());
    out
}

/// A short description of a mismatch for the run's report.
pub fn describe(op: &Op, resp: &Response) -> String {
    let query = match &op.body {
        Body::One(q) => q.clone(),
        Body::Txn(qs) => qs.join("; "),
    };
    let mut got = format!("{resp}");
    got.truncate(160);
    let mut want = format!("{:?}", op.expect);
    want.truncate(160);
    format!("`{query}`: expected {want}, got {got}")
}
