//! The ILP stages count their branch-and-bound work in the global
//! registry: an ILP-enabled pipeline solve must raise both
//! `bsp_ilp_solves_total` and `bsp_ilp_bb_nodes_total`.

use bsp_core::pipeline::{solve_base_pipeline, PipelineConfig};
use bsp_dag::random::{random_layered_dag, LayeredConfig};
use bsp_model::BspParams;
use bsp_schedule::solve::{SolveCx, SolveRequest};

fn counter(name: &str) -> u64 {
    bsp_obs::global().counter(name, &[]).get()
}

#[test]
fn ilp_solve_raises_solve_and_node_counters() {
    let dag = random_layered_dag(
        3,
        LayeredConfig {
            layers: 3,
            width: 3,
            edge_prob: 0.4,
            ..Default::default()
        },
    );
    let machine = BspParams::new(2, 2, 3);
    let mut cfg = PipelineConfig {
        enable_ilp: true,
        ..Default::default()
    };
    cfg.ilp.limits.max_nodes = 20;

    let (solves, nodes) = (
        counter("bsp_ilp_solves_total"),
        counter("bsp_ilp_bb_nodes_total"),
    );
    let req = SolveRequest::new(&dag, &machine);
    let mut cx = SolveCx::new("pipeline/base", &req);
    solve_base_pipeline(&dag, &machine, &cfg, &mut cx);

    // The registry is process-global: compare with the values before.
    assert!(counter("bsp_ilp_solves_total") > solves);
    assert!(counter("bsp_ilp_bb_nodes_total") > nodes);
}
