//! The static-analysis pruning tier must be invisible in outcomes: a
//! pruned run (the default) solves exactly the same benchmarks, with
//! the same classification and attempt counts, as a run with
//! `pruning` disabled — it only skips validation work that provably
//! cannot change the result. The counters must also show the tier
//! actually doing something, so a silent regression to "prune nothing"
//! cannot pass.

use gtl::StaggConfig;
use gtl_bench::{run_batch, Method, Route};
use gtl_benchsuite::{by_name, Benchmark};

/// Benchmarks whose searches are long enough for both pruning rules to
/// fire (most of the suite solves on the first few candidates, where
/// there is nothing to prune): `ds_mat1x3` and `sa_mttkrp` hit the
/// feasibility pre-checks, `mf_lerp` and `art_paren_scalar` the
/// equivalence dedup; `blas_dot`/`blas_gemv` are quick first-round
/// solves.
fn small_set() -> Vec<Benchmark> {
    ["blas_dot", "ds_mat1x3", "mf_lerp", "sa_mttkrp", "art_paren_scalar", "blas_gemv"]
        .iter()
        .map(|n| by_name(n).unwrap())
        .collect()
}

#[test]
fn pruned_run_solves_the_same_set_as_unpruned() {
    let set = small_set();
    let run = |method: Method| run_batch(&method, &set, 1, &Route::Pipeline, None).suite;
    let pruned = run(Method::stagg_variant("STAGG_TD", StaggConfig::top_down()));
    let unpruned = run(Method::stagg_variant(
        "STAGG_TD_noprune",
        StaggConfig::top_down().with_pruning(false),
    ));
    assert_eq!(pruned.results.len(), unpruned.results.len());
    for (p, u) in pruned.results.iter().zip(&unpruned.results) {
        assert_eq!(p.name, u.name);
        assert_eq!(p.solved, u.solved, "{}: classification diverged", p.name);
        assert_eq!(
            p.solution, u.solution,
            "{}: pruning must not change which program wins",
            p.name
        );
        // Pruned candidates still count as attempts (they fail exactly
        // as validation would), so the trajectory statistics match too.
        assert_eq!(p.attempts, u.attempts, "{}: attempts diverged", p.name);
        assert_eq!(p.nodes, u.nodes, "{}: nodes diverged", p.name);
        assert_eq!(
            u.pruned_infeasible + u.pruned_equivalent,
            0,
            "{}: a pruning-disabled run must not prune",
            u.name
        );
    }
    let infeasible: u64 = pruned.results.iter().map(|r| r.pruned_infeasible).sum();
    let equivalent: u64 = pruned.results.iter().map(|r| r.pruned_equivalent).sum();
    assert!(
        infeasible > 0,
        "the suite must exercise the feasibility pre-checks (got 0 infeasible prunes)"
    );
    assert!(
        equivalent > 0,
        "the suite must exercise equivalence dedup (got 0 equivalent prunes)"
    );
}
