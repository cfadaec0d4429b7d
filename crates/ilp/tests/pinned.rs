//! Pinned branch-and-bound results. The sparse pivot kernel is exact, so
//! the objective, node count and primal point of these models must repeat
//! the dense kernel's output to the bit. Node caps (not time limits) end
//! every search, so the pins hold in debug and release builds alike.

use bsp_ilp::{MipStatus, Model, Sense, SolveLimits};
use std::time::Duration;

fn limits(max_nodes: usize) -> SolveLimits {
    SolveLimits {
        max_nodes,
        time_limit: Duration::from_secs(3600),
        gap: 1e-6,
    }
}

/// `n` binaries equal to 1 exactly at `ones`.
fn indicator(n: usize, ones: &[usize]) -> Vec<f64> {
    (0..n)
        .map(|i| if ones.contains(&i) { 1.0 } else { 0.0 })
        .collect()
}

/// The 8×5 assignment MILP of the `components` bench.
#[test]
fn assignment_8x5_is_pinned() {
    let mut m = Model::new();
    let mut vars = Vec::new();
    for i in 0..8 {
        for j in 0..5 {
            vars.push(m.add_binary(((i * 7 + j * 3) % 11) as f64));
        }
    }
    for i in 0..8 {
        m.add_constraint(
            (0..5).map(|j| (vars[i * 5 + j], 1.0)).collect(),
            Sense::Eq,
            1.0,
        );
    }
    for j in 0..5 {
        m.add_constraint(
            (0..8).map(|i| (vars[i * 5 + j], 1.0)).collect(),
            Sense::Le,
            2.0,
        );
    }
    let sol = m.solve(None, &limits(200));
    assert_eq!(sol.status, MipStatus::Optimal);
    assert_eq!(sol.objective, 10.0);
    assert_eq!(sol.nodes, 1);
    assert_eq!(sol.x, indicator(40, &[0, 5, 13, 19, 22, 28, 31, 37]));
}

/// A two-constraint knapsack whose search branches.
#[test]
fn two_row_knapsack_is_pinned() {
    let mut m = Model::new();
    let xs: Vec<_> = (0..20)
        .map(|i| m.add_binary(-(((i * 7) % 13 + 3) as f64)))
        .collect();
    m.add_constraint(
        xs.iter()
            .enumerate()
            .map(|(i, &x)| (x, ((i * 5) % 11 + 2) as f64 + 0.5))
            .collect(),
        Sense::Le,
        30.0,
    );
    m.add_constraint(
        xs.iter()
            .enumerate()
            .map(|(i, &x)| (x, ((i * 3) % 7 + 1) as f64))
            .collect(),
        Sense::Le,
        20.0,
    );
    let sol = m.solve(None, &limits(40));
    assert_eq!(sol.status, MipStatus::Optimal);
    assert_eq!(sol.objective, -75.0);
    assert_eq!(sol.nodes, 11);
    assert_eq!(sol.x, indicator(20, &[3, 5, 7, 9, 11, 14]));
}
