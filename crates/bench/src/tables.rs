//! Plain-text table and series formatting for the experiment harness.

use crate::runner::SuiteResult;

/// Renders a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut out = String::new();
    for (cell, width) in cells.iter().zip(widths) {
        out.push_str(&format!("{cell:<width$}  "));
    }
    out.trim_end().to_string()
}

/// A header + separator pair.
pub fn header(cells: &[&str], widths: &[usize]) -> String {
    let head = row(
        &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let sep: String = widths
        .iter()
        .map(|w| "-".repeat(*w))
        .collect::<Vec<_>>()
        .join("  ");
    format!("{head}\n{sep}")
}

/// Formats the per-method summary cells used by Tables 1 and 3:
/// `# solved`, `%`, mean time, mean attempts.
pub fn summary_cells(result: &SuiteResult, with_attempts: bool) -> Vec<String> {
    let mut cells = vec![
        result.method.clone(),
        result.solved().to_string(),
        format!("{:.2}%", result.percent()),
        format!("{:.2}", result.mean_seconds_solved()),
    ];
    if with_attempts {
        cells.push(format!("{:.2}", result.mean_attempts_solved()));
    }
    cells
}

/// Renders a cactus-plot series (Fig. 9 / Fig. 12) as
/// `solved_count<TAB>cumulative_time` pairs, one per line.
pub fn cactus_lines(result: &SuiteResult) -> String {
    let mut out = String::new();
    let mut cumulative = 0.0;
    for (n, t) in result.cactus_series().iter().enumerate() {
        cumulative += t;
        out.push_str(&format!("{}\t{:.3}\n", n + 1, cumulative));
    }
    out
}

/// Renders the success-rate bar (Fig. 10 / Fig. 11) for one method.
pub fn success_bar(result: &SuiteResult, width: usize) -> String {
    let filled = (result.percent() / 100.0 * width as f64).round() as usize;
    format!(
        "{:<28} {}{} {:>6.0}%",
        result.method,
        "█".repeat(filled),
        "░".repeat(width.saturating_sub(filled)),
        result.percent()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::MethodResult;

    fn fake() -> SuiteResult {
        SuiteResult {
            method: "M".into(),
            results: vec![
                MethodResult {
                    name: "a".into(),
                    solved: true,
                    seconds: 1.0,
                    attempts: 3,
                    solution: Some("a = b(i)".into()),
                    nodes: 10,
                    pruned_infeasible: 2,
                    pruned_equivalent: 1,
                    phase_times: gtl_trace::PhaseTimes::new(),
                },
                MethodResult {
                    name: "b".into(),
                    solved: false,
                    seconds: 9.0,
                    attempts: 100,
                    solution: None,
                    nodes: 500,
                    pruned_infeasible: 0,
                    pruned_equivalent: 0,
                    phase_times: gtl_trace::PhaseTimes::new(),
                },
            ],
        }
    }

    #[test]
    fn summary() {
        let cells = summary_cells(&fake(), true);
        assert_eq!(cells[1], "1");
        assert_eq!(cells[2], "50.00%");
        assert_eq!(cells[3], "1.00");
        assert_eq!(cells[4], "3.00");
    }

    #[test]
    fn cactus() {
        let s = cactus_lines(&fake());
        assert_eq!(s, "1\t1.000\n");
    }

    #[test]
    fn bar_is_bounded() {
        let b = success_bar(&fake(), 20);
        assert!(b.contains("50%"));
    }
}
