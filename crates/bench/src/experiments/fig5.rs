//! Figure 5 — nested loop vs. merge scan as grid-traversal strategies.
//!
//! The paper presents the two strategies qualitatively (which region of
//! the Cartesian plane each explores). We quantify the trade-off the
//! figure illustrates: *how many tuples must be pulled from each ranked
//! stream to produce the first k join results*, as a function of the
//! size asymmetry between the sides.
//!
//! NL excels when one side is small (it fully materialises that side,
//! then streams the other: k results cost ≈ k/|outer| inner pulls);
//! MS excels when the sides are comparable (its diagonal sweep reaches
//! the top-left corner of the grid with √-balanced consumption).

use mdq_exec::binding::Binding;
use mdq_exec::joins::{MsJoin, NlJoin};
use mdq_exec::operator::Operator;
use mdq_model::query::{Atom, Term, VarId};
use mdq_model::schema::ServiceId;
use mdq_model::value::{Tuple, Value};
use std::cell::Cell;
use std::fmt::Write as _;
use std::rc::Rc;

/// Pull-counting wrapper around a binding stream. Counts per binding
/// (the default batched path loops `next_binding`), so the consumption
/// numbers stay exact under the batched kernel.
struct Counted<I> {
    inner: I,
    count: Rc<Cell<usize>>,
}

impl<I: Iterator<Item = Binding>> Operator for Counted<I> {
    fn next_binding(&mut self) -> Option<Binding> {
        let n = self.inner.next();
        if n.is_some() {
            self.count.set(self.count.get() + 1);
        }
        n
    }
}

fn ranked_stream(key_var: u32, val_var: u32, size: usize) -> Vec<Binding> {
    (0..size)
        .map(|i| {
            Binding::empty(3)
                .bind_atom(
                    &Atom {
                        service: ServiceId(0),
                        terms: vec![Term::Var(VarId(key_var)), Term::Var(VarId(val_var))],
                    },
                    &Tuple::new(vec![Value::Int(1), Value::Int(i as i64)]),
                )
                .expect("binds")
        })
        .collect()
}

/// Pulls consumed by each side to produce the first `k` join results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Consumption {
    /// Tuples pulled from the left / outer side.
    pub left: usize,
    /// Tuples pulled from the right / inner side.
    pub right: usize,
}

/// Measures NL (left side = outer) on an `n_left × n_right` grid where
/// every pair joins, asking for `k` results.
fn nl_consumption(n_left: usize, n_right: usize, k: usize) -> Consumption {
    let lc = Rc::new(Cell::new(0));
    let rc = Rc::new(Cell::new(0));
    let left = Counted {
        inner: ranked_stream(0, 1, n_left).into_iter(),
        count: Rc::clone(&lc),
    };
    let right = Counted {
        inner: ranked_stream(0, 2, n_right).into_iter(),
        count: Rc::clone(&rc),
    };
    let mut join = NlJoin::new(left, right, vec![VarId(0)], true);
    for _ in 0..k {
        if join.next_binding().is_none() {
            break;
        }
    }
    Consumption {
        left: lc.get(),
        right: rc.get(),
    }
}

/// Measures MS on the same grid.
fn ms_consumption(n_left: usize, n_right: usize, k: usize) -> Consumption {
    let lc = Rc::new(Cell::new(0));
    let rc = Rc::new(Cell::new(0));
    let left = Counted {
        inner: ranked_stream(0, 1, n_left).into_iter(),
        count: Rc::clone(&lc),
    };
    let right = Counted {
        inner: ranked_stream(0, 2, n_right).into_iter(),
        count: Rc::clone(&rc),
    };
    let mut join = MsJoin::new(left, right, vec![VarId(0)]);
    for _ in 0..k {
        if join.next_binding().is_none() {
            break;
        }
    }
    Consumption {
        left: lc.get(),
        right: rc.get(),
    }
}

/// Renders the sweep: k = 25 results over grids of varying asymmetry.
pub fn render() -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure 5 — tuples pulled per side to produce the first k = 25 join results"
    );
    let _ = writeln!(
        s,
        "{:>12} {:>16} {:>16} {:>12} {:>12}",
        "grid", "NL (out,in)", "MS (l,r)", "NL total", "MS total"
    );
    for (l, r) in [(2usize, 200usize), (5, 100), (10, 50), (25, 25), (50, 50)] {
        let nl = nl_consumption(l, r, 25);
        let ms = ms_consumption(l, r, 25);
        let _ = writeln!(
            s,
            "{:>5}×{:<6} {:>8},{:<7} {:>8},{:<7} {:>12} {:>12}",
            l,
            r,
            nl.left,
            nl.right,
            ms.left,
            ms.right,
            nl.left + nl.right,
            ms.left + ms.right
        );
    }
    let _ = writeln!(
        s,
        "\nNL wins on asymmetric grids (small outer side); MS balances \
         consumption on square grids — matching §3.3's guidance."
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nl_consumes_few_inner_tuples_on_asymmetric_grids() {
        // outer side of 2: 25 results need 2 full outer + 13 inner tuples
        let c = nl_consumption(2, 200, 25);
        assert_eq!(c.left, 2);
        assert_eq!(c.right, 13);
        // MS on the same grid pulls the short side dry and digs deep
        let m = ms_consumption(2, 200, 25);
        assert!(m.right >= c.right, "MS digs deeper: {m:?}");
    }

    #[test]
    fn ms_balances_on_square_grids() {
        let m = ms_consumption(50, 50, 25);
        let diff = m.left.abs_diff(m.right);
        assert!(diff <= 1, "balanced consumption: {m:?}");
        assert!(m.left <= 8, "diagonal sweep stays near the corner: {m:?}");
        // NL must fully materialise one side first
        let n = nl_consumption(50, 50, 25);
        assert_eq!(n.left, 50, "NL pays the whole outer side up front");
    }

    #[test]
    fn both_strategies_produce_k_results() {
        for (l, r) in [(2, 200), (25, 25)] {
            let nl = nl_consumption(l, r, 25);
            let ms = ms_consumption(l, r, 25);
            assert!(nl.left + nl.right > 0);
            assert!(ms.left + ms.right > 0);
        }
    }
}
