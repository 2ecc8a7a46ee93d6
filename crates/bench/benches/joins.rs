//! Benches for the rank-preserving join strategies: full-grid
//! throughput and first-k latency on symmetric and asymmetric grids.
//!
//! One relational band is held, machine-independently: a full drain of
//! the *sparse* grid (as many keys as rows — few pairs, so all the time
//! is in finding them) may cost the merge scan at most
//! [`SPARSE_BAND`]× the nested loop. The cell-by-cell anti-diagonal
//! sweep cost 5.4× there (482 vs 89 µs): it visited all `(l + r)² / 2`
//! cells to find 200 pairs.

use mdq_bench::harness::Bench;
use mdq_exec::binding::Binding;
use mdq_exec::joins::{MsJoin, NlJoin};
use mdq_exec::operator::{drain_all, Operator, Source, DEFAULT_BATCH};
use mdq_model::query::{Atom, Term, VarId};
use mdq_model::schema::ServiceId;
use mdq_model::value::{Tuple, Value};

fn stream(key_var: u32, val_var: u32, n: usize, distinct_keys: i64) -> Vec<Binding> {
    (0..n)
        .map(|i| {
            Binding::empty(3)
                .bind_atom(
                    &Atom {
                        service: ServiceId(0),
                        terms: vec![Term::Var(VarId(key_var)), Term::Var(VarId(val_var))],
                    },
                    &Tuple::new(vec![
                        Value::Int(i as i64 % distinct_keys),
                        Value::Int(i as i64),
                    ]),
                )
                .expect("binds")
        })
        .collect()
}

/// Max cost of `joins/full/ms/200-sparse` over `joins/full/nl/200-sparse`.
const SPARSE_BAND: u128 = 2;

fn main() {
    let bench = Bench::from_args();

    // 10 keys: output-dominated (n² / 10 pairs); `200-sparse` has 200
    // keys and 200 pairs, the shape of a selective join over service
    // results — all the time is in the search
    for (n, keys, case) in [
        (50usize, 10, "50"),
        (100, 10, "100"),
        (200, 10, "200"),
        (200, 200, "200-sparse"),
    ] {
        let left = stream(0, 1, n, keys);
        let right = stream(0, 2, n, keys);
        bench.measure(&format!("joins/full/ms/{case}"), || {
            drain_all(
                MsJoin::new(
                    Source(left.clone().into_iter()),
                    Source(right.clone().into_iter()),
                    vec![VarId(0)],
                ),
                DEFAULT_BATCH,
            )
            .len()
        });
        bench.measure(&format!("joins/full/nl/{case}"), || {
            drain_all(
                NlJoin::new(
                    Source(left.clone().into_iter()),
                    Source(right.clone().into_iter()),
                    vec![VarId(0)],
                    true,
                ),
                DEFAULT_BATCH,
            )
            .len()
        });
    }

    // asymmetric grid: NL's sweet spot
    let small = stream(0, 1, 5, 1);
    let large = stream(0, 2, 2000, 1);
    bench.measure("joins/first-25/nl-asymmetric", || {
        let mut join = NlJoin::new(
            Source(small.clone().into_iter()),
            Source(large.clone().into_iter()),
            vec![VarId(0)],
            true,
        );
        let mut out = mdq_exec::operator::Batch::new();
        join.next_batch(25, &mut out);
        out.len()
    });
    bench.measure("joins/first-25/ms-asymmetric", || {
        let mut join = MsJoin::new(
            Source(small.clone().into_iter()),
            Source(large.clone().into_iter()),
            vec![VarId(0)],
        );
        let mut out = mdq_exec::operator::Batch::new();
        join.next_batch(25, &mut out);
        out.len()
    });

    // the warm serving path: k = 5 answers out of the first few
    // arrivals of each side (4 keys: the fifth match sits on diagonal 4)
    let left = stream(0, 1, 16, 4);
    let right = stream(0, 2, 16, 4);
    bench.measure("joins/first-5/ms", || {
        let mut join = MsJoin::new(
            Source(left.clone().into_iter()),
            Source(right.clone().into_iter()),
            vec![VarId(0)],
        );
        let mut out = mdq_exec::operator::Batch::new();
        join.next_batch(5, &mut out);
        out.len()
    });

    bench.write_json("joins");

    let sparse = |join: &str| bench.mean_ns(&format!("joins/full/{join}/200-sparse"));
    if let Some((ms, nl)) = sparse("ms").zip(sparse("nl")) {
        if ms > SPARSE_BAND * nl {
            eprintln!(
                "merge scan drains the sparse 200 x 200 grid in {ms} ns, over {SPARSE_BAND}x the \
                 nested loop's {nl} ns: it is searching cells, not key-equal pairs"
            );
            std::process::exit(1);
        }
    }
}
