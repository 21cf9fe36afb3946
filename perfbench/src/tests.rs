//! The benchmark's own tests: every check must reject a wrong answer, so
//! a check that always passes cannot go unnoticed.

use fundb_core::PipelinedEngine;
use fundb_query::{parse, translate, Response};
use fundb_relational::{RelationName, Tuple, Value};

use crate::analytic;
use crate::common::{Expect, JoinExpect};
use crate::harness::{self, RoundGen, USERS};
use crate::{oltp, sharded};

fn t(fields: &[i64]) -> Tuple {
    Tuple::new(fields.iter().map(|&f| Value::Int(f)).collect())
}

fn inserted() -> Response {
    Response::Inserted {
        relation: RelationName::new("R"),
        tuple: t(&[1, 2]),
    }
}

#[test]
fn every_expectation_accepts_the_right_answer_and_rejects_a_wrong_one() {
    let cases: Vec<(Expect, Response, Vec<Response>)> = vec![
        (
            Expect::Rows(vec![vec![1, 2], vec![3, 4]]),
            Response::Tuples(vec![t(&[3, 4]), t(&[1, 2])]),
            vec![
                Response::Tuples(vec![t(&[1, 2])]),
                Response::Tuples(vec![t(&[1, 2]), t(&[3, 5])]),
                Response::Tuples(vec![t(&[1, 2]), t(&[3, 4]), t(&[5, 6])]),
                Response::Count(2),
            ],
        ),
        (
            Expect::Rows(vec![]),
            Response::Tuples(vec![]),
            vec![Response::Tuples(vec![t(&[1, 2])])],
        ),
        (
            Expect::Count(7),
            Response::Count(7),
            vec![Response::Count(6), Response::Tuples(vec![])],
        ),
        (
            Expect::Agg(10),
            Response::Aggregate {
                op: "sum".into(),
                value: Some(Value::Int(10)),
            },
            vec![
                Response::Aggregate {
                    op: "sum".into(),
                    value: Some(Value::Int(11)),
                },
                Response::Aggregate {
                    op: "sum".into(),
                    value: None,
                },
            ],
        ),
        (
            Expect::Inserted,
            inserted(),
            vec![Response::Deleted(1), Response::Error("no".into())],
        ),
        (
            Expect::Deleted(1),
            Response::Deleted(1),
            vec![Response::Deleted(0), inserted()],
        ),
        (
            Expect::Applied(2),
            Response::Applied { ops: 2, shards: 2 },
            vec![
                Response::Applied { ops: 1, shards: 1 },
                Response::Error("aborted".into()),
            ],
        ),
        (
            Expect::Created,
            Response::Created(RelationName::new("R")),
            vec![
                Response::Error("relation exists".into()),
                Response::Count(0),
            ],
        ),
    ];
    for (expect, right, wrongs) in cases {
        assert!(
            expect.check(&right),
            "{expect:?} rejected the right answer {right}"
        );
        for wrong in wrongs {
            assert!(
                !expect.check(&wrong),
                "{expect:?} accepted the wrong answer {wrong}"
            );
        }
    }
}

/// A full join of 4 accounts over 2 branches, and the checking client's
/// rows (accounts 0 and 2).
fn join_case() -> (JoinExpect, Vec<Tuple>) {
    let expect = JoinExpect {
        ids: vec![0, 1, 2, 3],
        branches: 2,
        own: vec![vec![0, 100, 0, 50], vec![0, 100, 2, 70]],
    };
    let full = vec![
        t(&[0, 100, 0, 50]),
        t(&[1, 101, 1, 999]),
        t(&[0, 100, 2, 70]),
        t(&[1, 101, 3, 5]),
    ];
    (expect, full)
}

#[test]
fn the_join_check_rejects_lost_rows_wrong_balances_and_wrong_branches() {
    let (expect, full) = join_case();
    let check = |rows: Vec<Tuple>| Expect::Join(expect.clone()).check(&Response::Tuples(rows));
    assert!(check(full.clone()), "the full join must pass");
    // What the shard-local gather returns: rows of accounts whose branch
    // lives on another shard are lost.
    assert!(!check(full[..2].to_vec()));
    let mut stale = full.clone();
    stale[2] = t(&[0, 100, 2, 71]);
    assert!(!check(stale), "an own balance differing from the model");
    let mut misjoined = full.clone();
    misjoined[1] = t(&[0, 100, 1, 999]);
    assert!(!check(misjoined), "an account joined to the wrong branch");
}

/// Answers an operation from a database folded with `Transaction::apply`.
fn fold_answer(db: &mut fundb_relational::Database, query: &str) -> Response {
    let (resp, next) = translate(parse(query).expect("parses")).apply(db);
    *db = next;
    resp
}

#[test]
fn oltp_model_predicts_a_sequential_fold_and_rejects_a_lost_write() {
    let mut g = oltp::Gen::new(7, 0, 1_600);
    let mut db = fundb_relational::Database::empty();
    for q in oltp::ddl().iter().chain(&g.load_ops()) {
        assert!(!fold_answer(&mut db, q).is_error());
    }
    let mut lost_write_caught = false;
    for _ in 0..3 {
        for op in g.round() {
            let crate::common::Body::One(q) = &op.body else {
                unreachable!()
            };
            let resp = fold_answer(&mut db, q);
            assert!(op.expect.check(&resp), "`{q}`: {resp}");
            // A find answered as if the last write to its key were lost.
            if let (Expect::Rows(rows), true) = (&op.expect, op.kind == oltp::FIND) {
                if let Some(row) = rows.first() {
                    let stale = Response::Tuples(vec![t(&[row[0], row[1] + 1])]);
                    assert!(!op.expect.check(&stale));
                    lost_write_caught = true;
                }
            }
        }
    }
    assert!(lost_write_caught);
    let model = g.rows();
    let scan = db.relation(&oltp::REL.into()).unwrap().scan();
    assert!(crate::common::rows_equal(&model, &scan));
    assert!(
        !crate::common::rows_equal(&model, &scan[1..]),
        "a missing row must be caught"
    );
}

#[test]
fn sharded_model_conserves_balances_and_the_sum_check_catches_a_lost_leg() {
    let mut gens: Vec<sharded::Gen> = (0..USERS)
        .map(|u| sharded::Gen::new(3, u, 160, 4))
        .collect();
    for g in &mut gens {
        for _ in 0..2 {
            let _ = g.round();
        }
    }
    let total: i64 = gens.iter().flat_map(|g| g.rows()).map(|r| r[2]).sum();
    assert_eq!(total, 160 * sharded::OPENING);
    let sum = |v| Response::Aggregate {
        op: "sum".into(),
        value: Some(Value::Int(v)),
    };
    assert!(Expect::Agg(total).check(&sum(total)));
    assert!(
        !Expect::Agg(total).check(&sum(total - 1)),
        "a lost transfer leg must be caught"
    );
}

#[test]
fn analytic_end_checks_reject_a_write_the_model_did_not_make() {
    let star = analytic::Star {
        facts: 400,
        dims: 16,
        groups: 16,
    };
    let gens: Vec<analytic::Gen> = (0..USERS).map(|u| analytic::Gen::new(5, u, star)).collect();
    let engine = PipelinedEngine::new(1, &fundb_relational::Database::empty());
    let submit = |q: &str| harness::exec_engine_cell(&engine, q);
    harness::load_with(&analytic::create_ddl(), Expect::Created, submit);
    for g in &gens {
        harness::load_with(&g.load_ops(), Expect::Inserted, submit);
    }
    let ddl: Vec<String> = analytic::index_ddl()
        .into_iter()
        .chain(analytic::view_ddl())
        .collect();
    harness::load_with(&ddl, Expect::Created, submit);
    assert!(analytic::end_checks(&engine, &gens, star)
        .iter()
        .all(|c| c.ok));

    // One fact moved to another group behind the model's back: the fact
    // scan, both group views and the index selects must all notice.
    let rogue = format!("replace (0, 0, 2, 99) in {}", analytic::FACT);
    assert!(!harness::exec_engine_cell(&engine, &rogue)
        .wait_cloned()
        .is_error());
    let failed: Vec<String> = analytic::end_checks(&engine, &gens, star)
        .into_iter()
        .filter(|c| !c.ok)
        .map(|c| c.name)
        .collect();
    assert!(failed.len() >= 4, "only {failed:?} noticed the rogue write");
}

#[test]
fn rounds_have_a_fixed_make_up() {
    let mut g = oltp::Gen::new(1, 1, 1_600);
    assert_eq!(
        RoundGen::round(&mut g).len(),
        oltp::ROUND.iter().sum::<usize>()
    );
    let mut g = sharded::Gen::new(9, 0, 160, 4);
    let round = RoundGen::round(&mut g);
    let joins = round.iter().filter(|op| op.kind == sharded::JOIN).count();
    assert_eq!(
        (round.len(), joins),
        (sharded::ROUND.iter().sum(), sharded::ROUND[sharded::JOIN])
    );
}
