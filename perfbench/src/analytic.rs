//! `analytic_views`: an in-process pipelined engine (no medium, no log)
//! over a `Dim`/`Fact` star with a secondary index and three maintained
//! views; every fact write maintains the index and all three views.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use fundb_core::PipelinedEngine;
use fundb_relational::Database;

use crate::common::{median, rows_equal, Body, Expect, KindSpec, Op, Rng};
use crate::harness::{self, Check, Config, RoundGen, RunOut, Sizes, USERS};

pub const DIM: &str = "Dim";
pub const FACT: &str = "Fact";
pub const SUM_VIEW: &str = "SpendByGroup";
pub const COUNT_VIEW: &str = "FactsByGroup";
pub const JOIN_VIEW: &str = "DimFacts";

pub const WRITE: usize = 0;
pub const FIND: usize = 1;
pub const INDEX_SELECT: usize = 2;
pub const SUM_LOOKUP: usize = 3;
pub const COUNT_LOOKUP: usize = 4;
pub const JOIN_LOOKUP: usize = 5;

pub const KINDS: [KindSpec; 6] = [
    KindSpec {
        name: "fact_write",
        known_fault: None,
    },
    KindSpec {
        name: "find",
        known_fault: None,
    },
    KindSpec {
        name: "index_select",
        known_fault: None,
    },
    KindSpec {
        name: "sum_view_find",
        known_fault: None,
    },
    KindSpec {
        name: "count_view_find",
        known_fault: None,
    },
    KindSpec {
        name: "join_view_find",
        known_fault: None,
    },
];

/// Operations of each kind in one user's round, in [`KINDS`] order.
pub const ROUND: [usize; 6] = [30, 40, 10, 10, 5, 5];

/// Operations per second a run is sized for (see [`harness::run_clients`]).
pub const NOMINAL_RATE: f64 = 5_000.0;
/// Set-ups per run.
const SETUP_REPS: usize = 5;

/// Star schema sizes.
#[derive(Debug, Clone, Copy)]
pub struct Star {
    pub facts: usize,
    pub dims: usize,
    pub groups: usize,
}

impl Star {
    pub fn of(sizes: &Sizes) -> Star {
        Star {
            facts: sizes.facts,
            dims: sizes.dims,
            groups: sizes.groups,
        }
    }
}

/// User `u` owns the facts with `id % USERS == u`, and keeps their join
/// key and group at the same residue, so every dim, group and view row a
/// user reads is decided by its own writes alone.
#[derive(Debug, Clone)]
pub struct Gen {
    rng: Rng,
    user: usize,
    star: Star,
    /// `(dkey, group, qty)` of fact `id`, at index `id / USERS`.
    facts: Vec<(i64, i64, i64)>,
    by_group: BTreeMap<i64, BTreeSet<i64>>,
    by_dim: BTreeMap<i64, BTreeSet<i64>>,
}

impl Gen {
    pub fn new(seed: u64, user: usize, star: Star) -> Gen {
        let mut g = Gen {
            rng: Rng::new(seed, 300 + user as u64),
            user,
            star,
            facts: Vec::new(),
            by_group: BTreeMap::new(),
            by_dim: BTreeMap::new(),
        };
        for id in (user as i64..star.facts as i64).step_by(USERS) {
            let f = g.fresh();
            g.facts.push(f);
            g.link(id, f);
        }
        g
    }

    /// A random value below `n` owned by this user.
    fn own_below(&mut self, n: usize) -> i64 {
        (USERS as u64 * self.rng.below((n / USERS) as u64)) as i64 + self.user as i64
    }

    /// A random `(dkey, group, qty)` owned by this user.
    fn fresh(&mut self) -> (i64, i64, i64) {
        let d = self.own_below(self.star.dims);
        let g = self.own_below(self.star.groups);
        (d, g, self.rng.below(100) as i64)
    }

    fn link(&mut self, id: i64, (d, g, _): (i64, i64, i64)) {
        self.by_group.entry(g).or_default().insert(id);
        self.by_dim.entry(d).or_default().insert(id);
    }

    fn unlink(&mut self, id: i64, (d, g, _): (i64, i64, i64)) {
        self.by_group.get_mut(&g).map(|s| s.remove(&id));
        self.by_dim.get_mut(&d).map(|s| s.remove(&id));
    }

    fn fact_row(&self, id: i64) -> Vec<i64> {
        let (d, g, q) = self.facts[id as usize / USERS];
        vec![id, d, g, q]
    }

    fn ids(&self) -> impl Iterator<Item = i64> + '_ {
        (0..self.facts.len()).map(move |i| (USERS * i + self.user) as i64)
    }

    /// The model's `Fact` rows.
    pub fn fact_rows(&self) -> Vec<Vec<i64>> {
        self.ids().map(|id| self.fact_row(id)).collect()
    }

    /// Set-up inserts: this user's facts, and for user 0 every dim.
    pub fn load_ops(&self) -> Vec<String> {
        let mut ops = Vec::new();
        if self.user == 0 {
            ops.extend(
                (0..self.star.dims)
                    .map(|d| format!("insert {} into {DIM}", tuple(&dim_row(d as i64)))),
            );
        }
        ops.extend(
            self.fact_rows()
                .iter()
                .map(|r| format!("insert {} into {FACT}", tuple(r))),
        );
        ops
    }

    fn group_rows(&self, g: i64) -> Vec<Vec<i64>> {
        self.by_group
            .get(&g)
            .map(|ids| ids.iter().map(|&id| self.fact_row(id)).collect())
            .unwrap_or_default()
    }

    fn sum_row(&self, g: i64) -> Vec<Vec<i64>> {
        let rows = self.group_rows(g);
        if rows.is_empty() {
            return Vec::new();
        }
        vec![vec![g, rows.iter().map(|r| r[3]).sum(), rows.len() as i64]]
    }

    fn count_row(&self, g: i64) -> Vec<Vec<i64>> {
        let n = self.group_rows(g).len() as i64;
        if n == 0 {
            Vec::new()
        } else {
            vec![vec![g, n]]
        }
    }

    fn join_rows(&self, d: i64) -> Vec<Vec<i64>> {
        let dim = dim_row(d);
        self.by_dim
            .get(&d)
            .map(|ids| {
                ids.iter()
                    .map(|&id| {
                        let f = self.fact_row(id);
                        vec![dim[0], dim[1], dim[2], f[0], f[2], f[3]]
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    fn own_group(&mut self) -> i64 {
        self.own_below(self.star.groups)
    }

    fn own_id(&mut self) -> i64 {
        (USERS as u64 * self.rng.below(self.facts.len() as u64)) as i64 + self.user as i64
    }

    pub fn round(&mut self) -> Vec<Op> {
        let kinds = self.rng.round_order(&ROUND);
        kinds.into_iter().map(|k| self.op(k)).collect()
    }

    fn op(&mut self, kind: usize) -> Op {
        let (query, expect) = match kind {
            WRITE => {
                let id = self.own_id();
                let old = self.facts[id as usize / USERS];
                let new = self.fresh();
                self.unlink(id, old);
                self.facts[id as usize / USERS] = new;
                self.link(id, new);
                (
                    format!("replace {} in {FACT}", tuple(&self.fact_row(id))),
                    Expect::Inserted,
                )
            }
            FIND => {
                let id = self.own_id();
                (
                    format!("find {id} in {FACT}"),
                    Expect::Rows(vec![self.fact_row(id)]),
                )
            }
            INDEX_SELECT => {
                let g = self.own_group();
                (
                    format!("select from {FACT} where #2 = {g}"),
                    Expect::Rows(self.group_rows(g)),
                )
            }
            SUM_LOOKUP => {
                let g = self.own_group();
                (
                    format!("find {g} in {SUM_VIEW}"),
                    Expect::Rows(self.sum_row(g)),
                )
            }
            COUNT_LOOKUP => {
                let g = self.own_group();
                (
                    format!("find {g} in {COUNT_VIEW}"),
                    Expect::Rows(self.count_row(g)),
                )
            }
            JOIN_LOOKUP => {
                let d = self.own_below(self.star.dims);
                (
                    format!("find {d} in {JOIN_VIEW}"),
                    Expect::Rows(self.join_rows(d)),
                )
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

fn dim_row(d: i64) -> Vec<i64> {
    vec![d, d % 10, 1000 + d]
}

fn tuple(fields: &[i64]) -> String {
    let inner: Vec<String> = fields.iter().map(i64::to_string).collect();
    format!("({})", inner.join(", "))
}

pub fn create_ddl() -> Vec<String> {
    vec![
        format!("create relation {DIM} as btree(16)"),
        format!("create relation {FACT} as btree(16)"),
    ]
}

/// The secondary index and the three views, created after the load.
pub fn index_ddl() -> Vec<String> {
    vec![format!("create index ByGroup on {FACT} (#2)")]
}

pub fn view_ddl() -> Vec<String> {
    vec![
        format!("create view {SUM_VIEW} as sum #3 of {FACT} by #2"),
        format!("create view {COUNT_VIEW} as count {FACT} by #2"),
        format!("create view {JOIN_VIEW} as join {DIM} with {FACT} on #0 = #1"),
    ]
}

fn start(workers: usize, gens: &[Gen]) -> PipelinedEngine {
    let engine = PipelinedEngine::new(workers, &Database::empty());
    let submit = |q: &str| harness::exec_engine_cell(&engine, q);
    harness::load_with(&create_ddl(), Expect::Created, submit);
    std::thread::scope(|s| {
        for g in gens {
            s.spawn(|| harness::load_with(&g.load_ops(), Expect::Inserted, submit));
        }
    });
    let ddl: Vec<String> = index_ddl().into_iter().chain(view_ddl()).collect();
    harness::load_with(&ddl, Expect::Created, submit);
    engine
}

/// The model's full answer for every view and every group select,
/// recomputed from every user's fact rows.
pub fn end_checks(engine: &PipelinedEngine, gens: &[Gen], star: Star) -> Vec<Check> {
    let snap = engine.snapshot();
    let scan = |name: &str| {
        snap.relation(&name.into())
            .map(|r| r.scan())
            .unwrap_or_default()
    };
    let union =
        |f: &dyn Fn(&Gen) -> Vec<Vec<i64>>| -> Vec<Vec<i64>> { gens.iter().flat_map(f).collect() };
    let groups = 0..star.groups as i64;
    let dims = 0..star.dims as i64;
    let g_owner = |g: i64| &gens[g as usize % USERS];
    let mut checks = vec![
        Check::new(
            "Fact equals the model",
            rows_equal(&union(&|g| g.fact_rows()), &scan(FACT)),
        ),
        Check::new(
            "sum view equals a recompute over the model",
            rows_equal(
                &groups
                    .clone()
                    .flat_map(|g| g_owner(g).sum_row(g))
                    .collect::<Vec<_>>(),
                &scan(SUM_VIEW),
            ),
        ),
        Check::new(
            "count view equals a recompute over the model",
            rows_equal(
                &groups
                    .clone()
                    .flat_map(|g| g_owner(g).count_row(g))
                    .collect::<Vec<_>>(),
                &scan(COUNT_VIEW),
            ),
        ),
        Check::new(
            "join view equals a recompute over the model",
            rows_equal(
                &dims
                    .flat_map(|d| g_owner(d).join_rows(d))
                    .collect::<Vec<_>>(),
                &scan(JOIN_VIEW),
            ),
        ),
    ];
    let selects_ok = groups.clone().all(|g| {
        let op = Op {
            kind: INDEX_SELECT,
            body: Body::One(format!("select from {FACT} where #2 = {g}")),
            expect: Expect::Rows(g_owner(g).group_rows(g)),
        };
        op.expect.check(&harness::exec_engine(engine, &op))
    });
    checks.push(Check::new(
        "every group's index select equals the model",
        selects_ok,
    ));
    checks
}

pub fn run(cfg: &Config) -> RunOut {
    let sizes = Sizes::of(cfg);
    let star = Star::of(&sizes);
    let gens: Vec<Gen> = (0..USERS).map(|u| Gen::new(cfg.seed, u, star)).collect();

    let mut setups = Vec::new();
    let mut engine = None;
    for _ in 0..harness::setup_reps(cfg, SETUP_REPS) {
        let t0 = Instant::now();
        let e = start(2, &gens);
        setups.push(t0.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let engine = Arc::new(engine.expect("at least one set-up"));
    let stats_before = engine.stats();
    let (final_gens, phase) = harness::run_clients(cfg, &KINDS, NOMINAL_RATE, gens, |_| {
        let engine = Arc::clone(&engine);
        move |op: &Op| harness::exec_engine(&engine, op)
    });
    let stats = engine.stats();
    let checks = end_checks(&engine, &final_gens, star);

    let mut out = RunOut::new(&KINDS, phase);
    out.setup_s = median(&setups);
    out.setups = setups;
    out.point_read = FIND;
    out.write = WRITE;
    out.query = INDEX_SELECT;
    out.checks = checks;
    out.info.push(("facts".into(), star.facts.to_string()));
    out.info.push((
        "view_updates_per_write".into(),
        format!(
            "{:.3}",
            (stats.view_updates - stats_before.view_updates) as f64
                / out.phase.kinds[WRITE].attempted.max(1) as f64
        ),
    ));
    out
}
