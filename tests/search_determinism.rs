//! The paper pop order, pinned: `Stagg::lift` at the default
//! configuration must reproduce, exactly, the per-lift counters the
//! benchmark recorded in `perfbench/counters/suite-26887.json`. Any
//! change to pop order, checker pruning or validation shows up here as a
//! moved `attempts`, `pops`, `substitutions` or pruned count.

use guided_tensor_lifting::benchsuite::by_name;
use guided_tensor_lifting::oracle::OracleSpec;
use guided_tensor_lifting::stagg::{LiftQuery, LiftReport, Stagg, StaggConfig};
use guided_tensor_lifting::store::json::{parse, Json};

const PINNED: [&str; 5] = [
    "blas_gemv",
    "blas_dot",
    "ds_vdiv",
    "art_paren_mul",
    "art_3mat_chain",
];

/// The committed suite counters, read at test time so the pin follows
/// the benchmark's record.
fn recorded() -> Json {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/perfbench/counters/suite-26887.json"
    );
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn lift(name: &str) -> LiftReport {
    let b = by_name(name).unwrap();
    let query = LiftQuery {
        label: b.name.to_string(),
        source: b.source.to_string(),
        task: b.lift_task(),
        ground_truth: Some(b.parse_ground_truth()),
    };
    Stagg::from_config(StaggConfig::top_down())
        .expect("default oracle builds")
        .lift(&query)
}

#[test]
fn default_lifts_reproduce_recorded_counters() {
    let record = recorded();
    let seed = record.get("seed").and_then(Json::as_u64).expect("seed");
    assert_eq!(
        StaggConfig::top_down().oracle,
        OracleSpec::Synthetic { seed },
        "the record must be of the default oracle"
    );
    let per_lift = record
        .get("counters")
        .and_then(|c| c.get("per_lift"))
        .expect("counters.per_lift");
    for name in PINNED {
        let want = per_lift
            .get(&format!("{name}@{seed}"))
            .unwrap_or_else(|| panic!("{name}@{seed} not recorded"));
        let field = |key: &str| {
            want.get(key)
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("{name}: `{key}` not recorded"))
        };
        let report = lift(name);
        let got = [
            ("attempts", report.attempts),
            ("pops", report.nodes_expanded),
            ("substitutions", report.substitutions_tried),
            ("pruned_infeasible", report.pruned_infeasible),
            ("pruned_equivalent", report.pruned_equivalent),
        ];
        for (key, value) in got {
            assert_eq!(value, field(key), "{name}: `{key}` moved");
        }
        assert_eq!(
            Some(report.solved()),
            want.get("solved").and_then(Json::as_bool),
            "{name}: classification moved"
        );
    }
}
