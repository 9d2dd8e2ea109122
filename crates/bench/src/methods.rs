//! The lifting methods under evaluation, as a uniform interface.

use std::sync::Arc;

use gtl::{GrammarMode, LiftQuery, Stagg, StaggConfig};
use gtl_baselines::{
    c2taco_lift, llm_only_lift, tenspiler_lift, C2TacoConfig, LlmOnlyConfig, TenspilerConfig,
};
use gtl_oracle::OracleProvider;
use gtl_trace::PhaseTimes;

use crate::runner::MethodResult;

/// Which lifter a [`Method`] runs.
#[derive(Clone)]
pub enum MethodKind {
    /// STAGG with a given configuration. The provider is built once
    /// from `config.oracle` and shared by every lift of the method —
    /// essential for `record:` specs, whose fixture store must
    /// accumulate across the whole suite (including parallel batch
    /// workers).
    Stagg(StaggConfig),
    /// The C2TACO baseline (`heuristics: false` gives `NoHeuristics`).
    C2Taco {
        /// Whether the analysis heuristics are enabled.
        heuristics: bool,
    },
    /// The Tenspiler-style baseline.
    Tenspiler,
    /// The raw-LLM baseline.
    LlmOnly,
}

impl std::fmt::Debug for MethodKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MethodKind::Stagg(config) => f.debug_tuple("Stagg").field(config).finish(),
            MethodKind::C2Taco { heuristics } => f
                .debug_struct("C2Taco")
                .field("heuristics", heuristics)
                .finish(),
            MethodKind::Tenspiler => write!(f, "Tenspiler"),
            MethodKind::LlmOnly => write!(f, "LlmOnly"),
        }
    }
}

/// A named lifting method.
#[derive(Clone)]
pub struct Method {
    name: String,
    kind: MethodKind,
    /// One provider for the method's whole lifetime (shared across
    /// batch workers; `None` for baselines that query no oracle).
    provider: Option<Arc<dyn OracleProvider>>,
}

impl std::fmt::Debug for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Method")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("oracle", &self.provider.as_ref().map(|p| p.name()))
            .finish()
    }
}

impl Method {
    /// Creates a method with an explicit display name.
    ///
    /// # Panics
    ///
    /// Panics when the configuration's oracle spec cannot build a
    /// provider (missing replay fixture, unwritable record path) —
    /// bench harness callers validate specs up front.
    pub fn new(name: impl Into<String>, kind: MethodKind) -> Method {
        let provider = match &kind {
            MethodKind::Stagg(config) => Some(
                config
                    .oracle
                    .provider()
                    .unwrap_or_else(|e| panic!("oracle spec: {e}")),
            ),
            MethodKind::LlmOnly => Some(
                StaggConfig::top_down()
                    .oracle
                    .provider()
                    .expect("the default synthetic spec always builds"),
            ),
            MethodKind::C2Taco { .. } | MethodKind::Tenspiler => None,
        };
        Method {
            name: name.into(),
            kind,
            provider,
        }
    }

    /// STAGG_TD with the paper's defaults.
    pub fn stagg_td() -> Method {
        Method::new("STAGG_TD", MethodKind::Stagg(StaggConfig::top_down()))
    }

    /// STAGG_BU with the paper's defaults.
    pub fn stagg_bu() -> Method {
        Method::new("STAGG_BU", MethodKind::Stagg(StaggConfig::bottom_up()))
    }

    /// A named STAGG variant (ablations).
    pub fn stagg_variant(name: &str, config: StaggConfig) -> Method {
        Method::new(name, MethodKind::Stagg(config))
    }

    /// C2TACO with heuristics.
    pub fn c2taco() -> Method {
        Method::new("C2TACO", MethodKind::C2Taco { heuristics: true })
    }

    /// C2TACO without heuristics.
    pub fn c2taco_no_heuristics() -> Method {
        Method::new(
            "C2TACO.NoHeuristics",
            MethodKind::C2Taco { heuristics: false },
        )
    }

    /// Tenspiler-style baseline.
    pub fn tenspiler() -> Method {
        Method::new("Tenspiler", MethodKind::Tenspiler)
    }

    /// Raw-LLM baseline.
    pub fn llm_only() -> Method {
        Method::new("LLM", MethodKind::LlmOnly)
    }

    /// The six methods of Table 1, in display order.
    pub fn table1_lineup() -> Vec<Method> {
        vec![
            Method::stagg_td(),
            Method::stagg_bu(),
            Method::llm_only(),
            Method::c2taco(),
            Method::c2taco_no_heuristics(),
            Method::tenspiler(),
        ]
    }

    /// The eight grammar-configuration variants of Table 3 / Figs. 11–12.
    pub fn grammar_config_lineup() -> Vec<Method> {
        let td = StaggConfig::top_down;
        let bu = StaggConfig::bottom_up;
        vec![
            Method::stagg_variant("STAGG_TD", td()),
            Method::stagg_variant(
                "STAGG_TD.EqualProbability",
                td().with_grammar(GrammarMode::EqualProbability),
            ),
            Method::stagg_variant(
                "STAGG_TD.LLMGrammar",
                td().with_grammar(GrammarMode::LlmGrammar),
            ),
            Method::stagg_variant(
                "STAGG_TD.FullGrammar",
                td().with_grammar(GrammarMode::FullGrammar),
            ),
            Method::stagg_variant("STAGG_BU", bu()),
            Method::stagg_variant(
                "STAGG_BU.EqualProbability",
                bu().with_grammar(GrammarMode::EqualProbability),
            ),
            Method::stagg_variant(
                "STAGG_BU.LLMGrammar",
                bu().with_grammar(GrammarMode::LlmGrammar),
            ),
            Method::stagg_variant(
                "STAGG_BU.FullGrammar",
                bu().with_grammar(GrammarMode::FullGrammar),
            ),
        ]
    }

    /// The penalty-ablation variants of Table 2.
    pub fn penalty_lineup() -> Vec<Method> {
        let td = StaggConfig::top_down;
        let bu = StaggConfig::bottom_up;
        vec![
            Method::stagg_variant("STAGG_TD", td()),
            Method::stagg_variant("STAGG_TD.Drop(A)", td().drop_family("A")),
            Method::stagg_variant("STAGG_TD.Drop(a1)", td().drop_penalty("a1")),
            Method::stagg_variant("STAGG_TD.Drop(a2)", td().drop_penalty("a2")),
            Method::stagg_variant("STAGG_TD.Drop(a3)", td().drop_penalty("a3")),
            Method::stagg_variant("STAGG_TD.Drop(a4)", td().drop_penalty("a4")),
            Method::stagg_variant("STAGG_TD.Drop(a5)", td().drop_penalty("a5")),
            Method::stagg_variant("STAGG_BU", bu()),
            Method::stagg_variant("STAGG_BU.Drop(B)", bu().drop_family("B")),
            Method::stagg_variant("STAGG_BU.Drop(b1)", bu().drop_penalty("b1")),
            Method::stagg_variant("STAGG_BU.Drop(b2)", bu().drop_penalty("b2")),
        ]
    }

    /// The display name.
    pub fn name(&self) -> String {
        self.name.clone()
    }

    /// The pipeline configuration of a STAGG method (`None` for the
    /// baselines). Request keys for stored outcomes and the in-process
    /// server's base configuration come from it.
    pub fn config(&self) -> Option<&StaggConfig> {
        match &self.kind {
            MethodKind::Stagg(config) => Some(config),
            _ => None,
        }
    }

    /// Runs the method on one query. Each lift gets a fresh oracle
    /// minted by the method's shared provider, so all methods with the
    /// same spec see identical candidates for a given benchmark.
    pub fn run(&self, query: &LiftQuery) -> MethodResult {
        match &self.kind {
            MethodKind::Stagg(config) => {
                let provider = Arc::clone(self.provider.as_ref().expect("stagg has a provider"));
                let report = Stagg::new(provider, config.clone()).lift(query);
                MethodResult {
                    name: query.label.clone(),
                    solved: report.solved(),
                    seconds: report.seconds(),
                    attempts: report.attempts,
                    solution: report.solution.as_ref().map(ToString::to_string),
                    nodes: report.nodes_expanded,
                    pruned_infeasible: report.pruned_infeasible,
                    pruned_equivalent: report.pruned_equivalent,
                    phase_times: report.phase_times.clone(),
                }
            }
            MethodKind::C2Taco { heuristics } => {
                // Without heuristics the enumeration space explodes; the
                // paper compensates with its 60-minute timeout, we
                // compensate with a proportionally larger budget.
                let config = if *heuristics {
                    C2TacoConfig::default()
                } else {
                    C2TacoConfig {
                        heuristics: false,
                        max_dim: 4,
                        // Calibrated so every solvable query still
                        // completes (the slowest observed solve is ~2 s)
                        // while failures terminate promptly.
                        budget: gtl_search::SearchBudget {
                            max_attempts: 6_000_000,
                            max_nodes: u64::MAX,
                            time_limit: std::time::Duration::from_secs(8),
                            max_depth: 6,
                        },
                        ..C2TacoConfig::default()
                    }
                };
                let report = c2taco_lift(query, &config);
                MethodResult {
                    name: query.label.clone(),
                    solved: report.solved(),
                    seconds: report.seconds(),
                    attempts: report.attempts,
                    solution: report.solution.as_ref().map(ToString::to_string),
                    nodes: 0,
                    pruned_infeasible: 0,
                    pruned_equivalent: 0,
                    phase_times: PhaseTimes::new(),
                }
            }
            MethodKind::Tenspiler => {
                let report = tenspiler_lift(query, &TenspilerConfig::default());
                MethodResult {
                    name: query.label.clone(),
                    solved: report.solved(),
                    seconds: report.seconds(),
                    attempts: report.attempts,
                    solution: report.solution.as_ref().map(ToString::to_string),
                    nodes: 0,
                    pruned_infeasible: 0,
                    pruned_equivalent: 0,
                    phase_times: PhaseTimes::new(),
                }
            }
            MethodKind::LlmOnly => {
                let mut oracle = self
                    .provider
                    .as_ref()
                    .expect("llm-only has a provider")
                    .oracle();
                let report = llm_only_lift(oracle.as_mut(), query, &LlmOnlyConfig::default());
                MethodResult {
                    name: query.label.clone(),
                    solved: report.solved(),
                    seconds: report.seconds(),
                    attempts: report.attempts,
                    solution: report.solution.as_ref().map(ToString::to_string),
                    nodes: 0,
                    pruned_infeasible: 0,
                    pruned_equivalent: 0,
                    phase_times: PhaseTimes::new(),
                }
            }
        }
    }
}
