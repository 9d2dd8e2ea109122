//! STAGG configuration: every knob exercised by the paper's evaluation.

use gtl_oracle::OracleSpec;
use gtl_search::{PenaltySettings, SearchBudget};
use gtl_validate::ExampleConfig;
use gtl_verify::VerifyConfig;

/// Which search algorithm drives enumeration (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// Top-down weighted A\* (Algorithm 1) — STAGG_TD.
    TopDown,
    /// Bottom-up A\* over the tail grammar (Algorithm 2) — STAGG_BU.
    BottomUp,
}

impl SearchMode {
    /// The stable CLI/wire name (`td` / `bu`), the inverse of
    /// [`SearchMode::from_cli_name`].
    pub fn cli_name(self) -> &'static str {
        match self {
            SearchMode::TopDown => "td",
            SearchMode::BottomUp => "bu",
        }
    }

    /// Parses a CLI/wire name (`td` / `bu`).
    pub fn from_cli_name(name: &str) -> Option<SearchMode> {
        match name {
            "td" => Some(SearchMode::TopDown),
            "bu" => Some(SearchMode::BottomUp),
            _ => None,
        }
    }
}

/// Which grammar/probability combination to use (§8, Fig. 11/12 and
/// Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrammarMode {
    /// Refined grammar + learned probabilities (the STAGG default).
    Refined,
    /// Refined grammar, all probabilities equal (`EqualProbability`).
    EqualProbability,
    /// Unrefined full TACO grammar, equal probabilities (`FullGrammar`).
    FullGrammar,
    /// Unrefined full TACO grammar with learned probabilities
    /// (`LLMGrammar`).
    LlmGrammar,
}

impl GrammarMode {
    /// The stable CLI/wire name, the inverse of
    /// [`GrammarMode::from_cli_name`].
    pub fn cli_name(self) -> &'static str {
        match self {
            GrammarMode::Refined => "refined",
            GrammarMode::EqualProbability => "equal_probability",
            GrammarMode::FullGrammar => "full_grammar",
            GrammarMode::LlmGrammar => "llm_grammar",
        }
    }

    /// Parses a CLI/wire name (`refined`, `equal_probability`,
    /// `full_grammar`, `llm_grammar`).
    pub fn from_cli_name(name: &str) -> Option<GrammarMode> {
        match name {
            "refined" => Some(GrammarMode::Refined),
            "equal_probability" => Some(GrammarMode::EqualProbability),
            "full_grammar" => Some(GrammarMode::FullGrammar),
            "llm_grammar" => Some(GrammarMode::LlmGrammar),
            _ => None,
        }
    }
}

/// Full configuration of one STAGG run.
#[derive(Debug, Clone)]
pub struct StaggConfig {
    /// Top-down or bottom-up search.
    pub mode: SearchMode,
    /// Grammar refinement/probability variant.
    pub grammar: GrammarMode,
    /// Active penalty rules.
    pub penalties: PenaltySettings,
    /// Search budgets (the stand-in for the paper's 60-minute timeout).
    pub budget: SearchBudget,
    /// I/O example generation (§6).
    pub examples: ExampleConfig,
    /// Bounded verification (§7).
    pub verify: VerifyConfig,
    /// Maximum RHS tensors in the unrefined full grammar.
    pub full_grammar_tensors: usize,
    /// Maximum tensor dimension in the unrefined full grammar.
    pub full_grammar_max_dim: usize,
    /// Fixed at `1`: the search is one best-first loop in the paper
    /// artifact's pop order, and the pipeline no longer reads this
    /// field. It stays for readers that still check it.
    pub jobs: usize,
    /// Which oracle provider guides the lift (see
    /// [`OracleSpec::from_cli_name`] for the stable spellings). Used by
    /// [`Stagg::from_config`](crate::Stagg::from_config), serving
    /// workers and the bench harness; a provider passed directly to
    /// [`Stagg::new`](crate::Stagg::new) takes precedence.
    pub oracle: OracleSpec,
    /// Maximum oracle rounds per lift (minimum 1). Rounds after the
    /// first re-query the oracle with feedback about what the search
    /// rejected — the paper's loop back to candidate generation on
    /// failure. Each round runs with a fresh copy of `budget`; a round
    /// that provably adds no information (no parseable candidates, or
    /// an exact repeat of the accumulated pool) skips its search
    /// instead of re-running the identical one.
    pub oracle_rounds: usize,
    /// Candidate pre-pruning (on by default): skip validation of
    /// templates a feasibility pre-check proves unsatisfiable, and of
    /// templates algebraically equivalent to one already validated.
    /// Pruned candidates still count as attempts (they fail exactly as
    /// validation would), so a pruned run solves the same queries with
    /// the same classification — just cheaper. Disable to measure the
    /// pruning win or to reproduce pre-pruning traces.
    pub pruning: bool,
}

impl StaggConfig {
    /// The paper's default STAGG_TD configuration.
    pub fn top_down() -> StaggConfig {
        StaggConfig {
            mode: SearchMode::TopDown,
            grammar: GrammarMode::Refined,
            penalties: PenaltySettings::all(),
            budget: SearchBudget::default(),
            examples: ExampleConfig::default(),
            verify: VerifyConfig::default(),
            full_grammar_tensors: 4,
            full_grammar_max_dim: 3,
            jobs: 1,
            oracle: OracleSpec::default(),
            oracle_rounds: 1,
            pruning: true,
        }
    }

    /// The paper's default STAGG_BU configuration.
    pub fn bottom_up() -> StaggConfig {
        StaggConfig {
            mode: SearchMode::BottomUp,
            ..StaggConfig::top_down()
        }
    }

    /// Switches the grammar mode (builder style).
    pub fn with_grammar(mut self, grammar: GrammarMode) -> StaggConfig {
        self.grammar = grammar;
        self
    }

    /// Drops one penalty rule by name (`"a1"` … `"b2"`).
    pub fn drop_penalty(mut self, name: &str) -> StaggConfig {
        self.penalties = self.penalties.drop_rule(name);
        self
    }

    /// Drops a whole penalty family: `Drop(A)` disables a1–a5,
    /// `Drop(B)` disables b1–b2.
    ///
    /// # Panics
    ///
    /// Panics if `family` is not `"A"` or `"B"`.
    pub fn drop_family(mut self, family: &str) -> StaggConfig {
        match family {
            "A" => {
                for rule in ["a1", "a2", "a3", "a4", "a5"] {
                    self.penalties = self.penalties.drop_rule(rule);
                }
            }
            "B" => {
                for rule in ["b1", "b2"] {
                    self.penalties = self.penalties.drop_rule(rule);
                }
            }
            other => panic!("unknown penalty family `{other}`"),
        }
        self
    }

    /// Replaces the search budget.
    pub fn with_budget(mut self, budget: SearchBudget) -> StaggConfig {
        self.budget = budget;
        self
    }

    /// Selects the oracle provider (builder style).
    pub fn with_oracle(mut self, oracle: OracleSpec) -> StaggConfig {
        self.oracle = oracle;
        self
    }

    /// Sets the maximum oracle rounds per lift (`0` is treated as `1`).
    pub fn with_oracle_rounds(mut self, rounds: usize) -> StaggConfig {
        self.oracle_rounds = rounds.max(1);
        self
    }

    /// Enables or disables candidate pre-pruning (builder style).
    pub fn with_pruning(mut self, pruning: bool) -> StaggConfig {
        self.pruning = pruning;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let c = StaggConfig::top_down()
            .with_grammar(GrammarMode::FullGrammar)
            .drop_penalty("a3");
        assert_eq!(c.grammar, GrammarMode::FullGrammar);
        assert!(!c.penalties.a3);
        assert!(c.penalties.a1);

        let b = StaggConfig::bottom_up().drop_family("B");
        assert_eq!(b.mode, SearchMode::BottomUp);
        assert!(!b.penalties.b1);
        assert!(!b.penalties.b2);
        assert!(b.penalties.a1, "dropping B leaves the a-family alone");

        let o = StaggConfig::top_down()
            .with_oracle(OracleSpec::Synthetic { seed: 9 })
            .with_oracle_rounds(0);
        assert_eq!(o.oracle, OracleSpec::Synthetic { seed: 9 });
        assert_eq!(o.oracle_rounds, 1, "0 rounds clamps to 1");
        assert_eq!(StaggConfig::top_down().oracle, OracleSpec::default());
    }

    #[test]
    fn cli_names_roundtrip() {
        for mode in [SearchMode::TopDown, SearchMode::BottomUp] {
            assert_eq!(SearchMode::from_cli_name(mode.cli_name()), Some(mode));
        }
        for grammar in [
            GrammarMode::Refined,
            GrammarMode::EqualProbability,
            GrammarMode::FullGrammar,
            GrammarMode::LlmGrammar,
        ] {
            assert_eq!(GrammarMode::from_cli_name(grammar.cli_name()), Some(grammar));
        }
        assert_eq!(SearchMode::from_cli_name("sideways"), None);
        assert_eq!(GrammarMode::from_cli_name("freeform"), None);
    }
}
