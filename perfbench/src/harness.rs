//! Run configuration, the closed loop of 2 clients × 4 users over any executor, and
//! the per-run report: metrics, per-kind counts and end-state checks.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use fundb_core::PipelinedEngine;
use fundb_lenient::Lenient;
use fundb_net::ClientHandle;
use fundb_query::{parse, translate, Response};

use crate::common::{
    closed_loop, median, peak_rss_bytes, percentile_us, rss_bytes, Body, Expect, KindSpec,
    KindStats, Op, Schedule, Timed,
};

/// Client sites of every cluster (and engine submitters), one a core.
pub const CLIENTS: usize = 2;

/// Closed-loop users, spread evenly over the clients. Each user owns a
/// disjoint share of the keys and has one request in flight at a time;
/// four a client keep the engine threads busy, so figures do not follow
/// the host's wake-up latency (see README).
pub const USERS: usize = 8;

/// The client site that user `u` sends through.
pub fn client_of(user: usize) -> usize {
    user % CLIENTS
}

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    /// Run the open-loop reference sweep of `oltp_replicated` instead.
    pub sweep: bool,
    /// Scratch directory for data directories and trace files.
    pub work: PathBuf,
}

/// Input sizes; `--smoke` shrinks every one of them.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub oltp_rows: usize,
    pub accounts: usize,
    pub branches: usize,
    pub facts: usize,
    pub dims: usize,
    pub groups: usize,
    /// Rounds per user replayed through each stage of the traced run.
    pub ladder_rounds: usize,
}

impl Sizes {
    pub fn of(cfg: &Config) -> Sizes {
        if cfg.smoke {
            Sizes {
                oltp_rows: 2_000,
                accounts: 400,
                branches: 16,
                facts: 2_000,
                dims: 40,
                groups: 40,
                ladder_rounds: 2,
            }
        } else {
            Sizes {
                oltp_rows: 100_000,
                accounts: 10_000,
                branches: 16,
                facts: 100_000,
                dims: 1_000,
                groups: 2_000,
                ladder_rounds: 20,
            }
        }
    }
}

/// How many times a run sets its workload up (the last set-up serves
/// the measured phase); `setup_s` is the median.
pub fn setup_reps(cfg: &Config, full: usize) -> usize {
    if cfg.smoke {
        2
    } else {
        full
    }
}

/// One named end-state check against the benchmark's own model.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
}

impl Check {
    pub fn new(name: &str, ok: bool) -> Check {
        Check {
            name: name.to_string(),
            ok,
        }
    }
}

/// Counts and timings of the closed-loop phase, every user merged.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub kinds: Vec<KindStats>,
    pub measured_ops: u64,
    pub measured_s: f64,
    pub rounds: u64,
    /// Resident-set growth over the whole phase, bytes.
    pub rss_growth: f64,
    /// Process CPU seconds over the whole phase.
    pub cpu_s: f64,
    /// Peak resident set of the process at the end of the phase, bytes.
    pub peak_rss: u64,
    /// The measured operations, timed from the end of the warm-up.
    pub timed: Vec<Timed>,
}

/// Length of the windows the gated medians are taken over.
const WINDOW_NS: u64 = 1_000_000_000;

impl Phase {
    /// Whole windows of the measured stretch; each holds the operations
    /// that ended in it.
    fn windows(&self) -> Vec<Vec<&Timed>> {
        let n = (self.measured_s * 1e9) as u64 / WINDOW_NS;
        let mut windows = vec![Vec::new(); n as usize];
        for t in &self.timed {
            if let Some(w) = windows.get_mut((t.end / WINDOW_NS) as usize) {
                w.push(t);
            }
        }
        windows
    }

    /// Median over one-second windows of the operations completed in each
    /// (the whole stretch's rate when it is shorter than a window). A
    /// median over windows keeps a few seconds of host stall from moving
    /// the figure.
    pub fn throughput(&self) -> f64 {
        let rates = self.window_rates();
        if rates.is_empty() {
            return self.measured_ops as f64 / self.measured_s;
        }
        median(&rates)
    }

    /// Latencies (ns) of the measured operations of `kind`.
    pub fn lat_ns(&self, kind: usize) -> Vec<u64> {
        self.timed
            .iter()
            .filter(|t| t.kind == kind)
            .map(|t| t.end - t.start)
            .collect()
    }

    /// Operations completed in each one-second window.
    pub fn window_rates(&self) -> Vec<f64> {
        self.windows()
            .iter()
            .map(|w| w.len() as f64 * 1e9 / WINDOW_NS as f64)
            .collect()
    }

    /// Median over one-second windows of the kind's median latency, in
    /// microseconds (windows with fewer than 10 samples are skipped; the
    /// whole stretch's median when no window qualifies).
    pub fn p50_us(&self, kind: usize) -> f64 {
        let per_window: Vec<f64> = self
            .windows()
            .iter()
            .map(|w| {
                w.iter()
                    .filter(|t| t.kind == kind)
                    .map(|t| t.end - t.start)
                    .collect::<Vec<u64>>()
            })
            .filter(|lat| lat.len() >= 10)
            .map(|lat| percentile_us(&lat, 50.0))
            .collect();
        if per_window.is_empty() {
            percentile_us(&self.lat_ns(kind), 50.0)
        } else {
            median(&per_window)
        }
    }
}

/// Everything one untraced run reports.
#[derive(Debug, Clone)]
pub struct RunOut {
    pub specs: Vec<KindSpec>,
    pub phase: Phase,
    pub setup_s: f64,
    pub setups: Vec<f64>,
    pub point_read: usize,
    pub write: usize,
    pub query: usize,
    pub checks: Vec<Check>,
    pub info: Vec<(String, String)>,
}

impl RunOut {
    pub fn new(specs: &[KindSpec], phase: Phase) -> RunOut {
        RunOut {
            specs: specs.to_vec(),
            phase,
            setup_s: 0.0,
            setups: Vec::new(),
            point_read: 0,
            write: 0,
            query: 0,
            checks: Vec::new(),
            info: Vec::new(),
        }
    }

    pub fn total_attempted(&self) -> u64 {
        self.phase.kinds.iter().map(|k| k.attempted).sum()
    }

    pub fn total_failed(&self) -> u64 {
        self.phase.kinds.iter().map(|k| k.failed).sum()
    }

    /// The run is correct when every end-state check holds and every
    /// failed operation is of a kind with a named, known fault.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
            && self
                .specs
                .iter()
                .zip(&self.phase.kinds)
                .all(|(s, k)| k.failed == 0 || s.known_fault.is_some())
    }

    /// The end-to-end metrics, `(name, value, unit)`.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("setup_s", self.setup_s, "s"),
            (
                "point_read_p50_us",
                self.phase.p50_us(self.point_read),
                "us",
            ),
            ("query_p50_us", self.phase.p50_us(self.query), "us"),
            (
                "peak_rss_mb",
                self.phase.peak_rss as f64 / (1024.0 * 1024.0),
                "MB",
            ),
        ]
    }

    /// Reference figures printed beside the metrics but not compared:
    /// throughput and the write median swing with the host's disk and CPU
    /// steal far past any allowed bound (see README).
    pub fn reference(&self) -> Vec<(String, f64)> {
        let lat = |k: usize| self.phase.lat_ns(k);
        vec![
            ("throughput_ops_s".into(), self.phase.throughput()),
            ("write_p50_us".into(), self.phase.p50_us(self.write)),
            (
                "cpu_us_per_op".into(),
                self.phase.cpu_s * 1e6 / self.total_attempted().max(1) as f64,
            ),
            (
                "rss_growth_b_per_op".into(),
                self.phase.rss_growth / self.total_attempted().max(1) as f64,
            ),
            (
                "point_read_p99_us".into(),
                percentile_us(&lat(self.point_read), 99.0),
            ),
            ("write_p99_us".into(), percentile_us(&lat(self.write), 99.0)),
            ("query_p99_us".into(), percentile_us(&lat(self.query), 99.0)),
        ]
    }
}

/// One user's operation generator and model.
pub trait RoundGen: Send {
    /// The set-up inserts of this user's initial rows.
    fn load_ops(&self) -> Vec<String>;
    /// The next whole round of operations, each with its predicted answer.
    fn round(&mut self) -> Vec<Op>;
    /// Operations in every round.
    fn round_len(&self) -> usize;
}

/// Runs every user's closed loop concurrently, one thread each, and
/// returns their generators (whose models now hold the final state) with
/// the merged phase.
///
/// A run is a fixed number of whole rounds per user: enough for
/// `--seconds` at the workload's `nominal_rate` (operations per second),
/// the first tenth of them warm-up. On a host too slow for that, each user
/// stops at the end of the round it is in at 1.5 × `--seconds`. Latencies
/// and throughput cover the stretch in which every user is past its
/// warm-up and none has finished.
pub fn run_clients<G, F, E>(
    cfg: &Config,
    specs: &[KindSpec],
    nominal_rate: f64,
    gens: Vec<G>,
    make_exec: F,
) -> (Vec<G>, Phase)
where
    G: RoundGen,
    F: Fn(usize) -> E + Sync,
    E: FnMut(&Op) -> Response,
{
    let round_len = gens.first().map_or(1, |g| g.round_len()) as f64;
    let rounds = (cfg.seconds as f64 * nominal_rate / (USERS as f64 * round_len))
        .ceil()
        .max(2.0) as u64;
    let epoch = Instant::now();
    let schedule = Schedule {
        epoch,
        rounds,
        warm_rounds: (rounds / 10).max(1),
        give_up: epoch + Duration::from_secs_f64(1.5 * cfg.seconds as f64),
    };
    let rss0 = rss_bytes();
    let cpu0 = crate::common::process_cpu_s();
    let results: Vec<(G, crate::common::LoopOut)> = std::thread::scope(|s| {
        let handles: Vec<_> = gens
            .into_iter()
            .enumerate()
            .map(|(u, mut g)| {
                let make_exec = &make_exec;
                s.spawn(move || {
                    let exec = make_exec(u);
                    let out = closed_loop(specs.len(), schedule, || g.round(), exec);
                    (g, out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("user thread"))
            .collect()
    });
    let rss1 = rss_bytes();
    let cpu1 = crate::common::process_cpu_s();
    let warm_end = results.iter().map(|(_, o)| o.warm_end).max().unwrap_or(0);
    let cut = results.iter().map(|(_, o)| o.done).min().unwrap_or(0);
    let mut phase = Phase {
        kinds: vec![KindStats::default(); specs.len()],
        measured_s: cut.saturating_sub(warm_end) as f64 / 1e9,
        rss_growth: rss1 as f64 - rss0 as f64,
        cpu_s: cpu1 - cpu0,
        peak_rss: peak_rss_bytes(),
        ..Phase::default()
    };
    let mut gens = Vec::new();
    for (g, out) in results {
        for t in out
            .timed
            .iter()
            .filter(|t| t.start >= warm_end && t.end <= cut)
        {
            phase.measured_ops += 1;
            phase.timed.push(Timed {
                start: t.start - warm_end,
                end: t.end - warm_end,
                ..*t
            });
        }
        for (k, ks) in out.kinds.into_iter().enumerate() {
            phase.kinds[k].merge(ks);
        }
        phase.rounds += out.rounds;
        gens.push(g);
    }
    (gens, phase)
}

/// Sends one operation through a cluster client and waits for its answer.
pub fn exec_client(client: &ClientHandle, op: &Op) -> Response {
    match &op.body {
        Body::One(q) => client.submit(q).wait_cloned(),
        Body::Txn(qs) => {
            let refs: Vec<&str> = qs.iter().map(String::as_str).collect();
            client.submit_txn(&refs).wait_cloned()
        }
    }
}

/// Submits one query to an in-process engine; the cell fills with its
/// answer.
pub fn exec_engine_cell(engine: &PipelinedEngine, query: &str) -> Lenient<Response> {
    match parse(query) {
        Ok(q) => engine.submit(translate(q)),
        Err(e) => Lenient::ready(Response::Error(e.to_string())),
    }
}

/// Sends one operation to an in-process engine and waits for its answer.
pub fn exec_engine(engine: &PipelinedEngine, op: &Op) -> Response {
    match &op.body {
        Body::One(q) => exec_engine_cell(engine, q).wait_cloned(),
        Body::Txn(_) => Response::Error("the in-process engine takes single queries".into()),
    }
}

/// Set-up load through a submit function: keeps a window of requests in
/// flight and requires every answer to match `expect`.
///
/// # Panics
///
/// Panics when an answer does not match: a run cannot start from a
/// set-up that failed.
pub fn load_with(queries: &[String], expect: Expect, submit: impl Fn(&str) -> Lenient<Response>) {
    const WINDOW: usize = 256;
    for chunk in queries.chunks(WINDOW) {
        let cells: Vec<_> = chunk.iter().map(|q| submit(q)).collect();
        for (q, cell) in chunk.iter().zip(cells) {
            let resp = cell.wait_cloned();
            assert!(expect.check(&resp), "set-up `{q}` failed: {resp}");
        }
    }
}

/// [`load_with`] through a cluster client.
pub fn load(client: &ClientHandle, queries: &[String], expect: Expect) {
    load_with(queries, expect, |q| client.submit(q));
}
