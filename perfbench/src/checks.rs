//! Outside-in correctness checks on an artefact: it parses with the bundled
//! parser and obeys the conservation laws.

use apc_analysis::export::JsonValue;

/// Tolerance on per-node C-state fractions summing to one.
const FRACTION_TOLERANCE: f64 = 1e-9;

/// A parsed artefact.
pub enum Artefact {
    /// A JSON export, parsed by the bundled parser.
    Json(JsonValue),
    /// A CSV export, as text.
    Csv(String),
}

/// Parses an artefact (`csv` selects the format). JSON goes through the
/// bundled parser, which is what `apc-cli validate` runs.
///
/// # Errors
///
/// Describes why the bytes are not a valid artefact.
pub fn parse_artefact(bytes: &[u8], csv: bool) -> Result<Artefact, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "artefact is not UTF-8".to_owned())?;
    if csv {
        Ok(Artefact::Csv(text.to_owned()))
    } else {
        JsonValue::parse(text)
            .map(Artefact::Json)
            .map_err(|e| format!("artefact does not parse as JSON: {e}"))
    }
}

/// The conservation-law failures of a parsed artefact; empty means it
/// passed.
pub fn conservation(artefact: &Artefact) -> Vec<String> {
    let mut failures = Vec::new();
    match artefact {
        Artefact::Json(value) => check_json(value, &mut failures),
        Artefact::Csv(text) => check_csv(text, &mut failures),
    }
    failures
}

/// Parses and checks one artefact; empty means it passed.
pub fn check_artefact(bytes: &[u8], csv: bool) -> Vec<String> {
    parse_artefact(bytes, csv).map_or_else(|e| vec![e], |a| conservation(&a))
}

fn check_json(value: &JsonValue, failures: &mut Vec<String>) {
    // Cluster and chain artefacts are arrays of results; run-level ones a
    // fleet object.
    let results: Vec<&JsonValue> = match value {
        JsonValue::Array(items) => items.iter().collect(),
        other => vec![other],
    };
    for (i, result) in results.iter().enumerate() {
        let runs = result
            .get("nodes")
            .unwrap_or(result)
            .get("runs")
            .and_then(JsonValue::as_array)
            .unwrap_or_default();
        if runs.is_empty() {
            failures.push(format!("result {i}: no per-node runs"));
        }
        for (n, run) in runs.iter().enumerate() {
            let fractions = ["cc0_fraction", "cc1_fraction", "cc6_fraction"]
                .map(|k| run.get(k).and_then(JsonValue::as_f64));
            check_fractions(&format!("result {i} node {n}"), fractions, failures);
        }
        if let Some(routed) = result.get("routed").and_then(JsonValue::as_array) {
            let routed: u64 = routed.iter().filter_map(JsonValue::as_u64).sum();
            let completed: u64 = runs
                .iter()
                .filter_map(|r| r.get("completed_requests").and_then(JsonValue::as_u64))
                .sum();
            if routed < completed {
                failures.push(format!(
                    "result {i}: routed {routed} < completed requests {completed}"
                ));
            }
        }
        let started = result.get("chains_started").and_then(JsonValue::as_u64);
        let completed = result.get("chains_completed").and_then(JsonValue::as_u64);
        if let (Some(started), Some(completed)) = (started, completed) {
            if completed > started {
                failures.push(format!(
                    "result {i}: chains completed {completed} > started {started}"
                ));
            }
        }
    }
}

fn check_csv(text: &str, failures: &mut Vec<String>) {
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().unwrap_or_default().split(',').collect();
    let column = |name: &str| header.iter().position(|&h| h == name);
    let Some(columns) = ["cc0_fraction", "cc1_fraction", "cc6_fraction"]
        .into_iter()
        .map(column)
        .collect::<Option<Vec<usize>>>()
    else {
        failures.push("CSV header lacks the C-state fraction columns".to_owned());
        return;
    };
    let mut rows = 0;
    for (r, line) in lines.enumerate() {
        rows += 1;
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() != header.len() {
            failures.push(format!(
                "CSV row {r}: {} cells, header has {}",
                cells.len(),
                header.len()
            ));
            continue;
        }
        let fractions = [0, 1, 2].map(|k| cells[columns[k]].parse::<f64>().ok());
        check_fractions(&format!("CSV row {r}"), fractions, failures);
    }
    if rows == 0 {
        failures.push("CSV has no rows".to_owned());
    }
}

fn check_fractions(what: &str, fractions: [Option<f64>; 3], failures: &mut Vec<String>) {
    match fractions {
        [Some(a), Some(b), Some(c)] if ((a + b + c) - 1.0).abs() <= FRACTION_TOLERANCE => {}
        [Some(a), Some(b), Some(c)] => failures.push(format!(
            "{what}: cc0+cc1+cc6 = {} (must be 1 within {FRACTION_TOLERANCE:e})",
            a + b + c
        )),
        _ => failures.push(format!("{what}: missing C-state fractions")),
    }
}
