//! Incremental (streaming) writers for the JSON/CSV export formats.
//!
//! The buffered exporters in [`crate::export`] hold every result in memory
//! and render at the end; these writers emit each result the moment it
//! finishes and **produce byte-identical artefacts** — a file written
//! through a streaming writer compares equal, byte for byte, to the same
//! results rendered buffered. That identity is what lets `apc-cli
//! --stream-out` reuse the golden-pinned formats while keeping memory
//! bounded by one result instead of the whole run set (the point of the
//! sketch-backed result path: a sweep's memory ceiling no longer grows
//! with either the request count *or* the completed grid points).
//!
//! Three shapes cover every `apc-cli` artefact:
//!
//! * [`JsonRunsWriter`] — the fleet object (`run`/`sweep` JSON): a `runs`
//!   array streamed element by element, closed by the aggregate block
//!   (computable only once every member finished) and the optional label
//!   list;
//! * [`JsonArrayWriter`] — a top-level result array (`cluster`/`chain`
//!   JSON), one pretty-printed element per push;
//! * [`CsvWriter`] — a header line then newline-terminated row chunks
//!   (every CSV export).
//!
//! Writers flush after every push, so a consumer tailing the file sees
//! complete rows/elements as the simulation progresses. All three are
//! plain [`io::Write`] adapters: `apc-cli` writes every JSON/CSV artefact
//! through them, into a file for `--stream-out` and into a `Vec<u8>` for
//! `--out` and stdout.

use std::io::{self, Write};

use apc_server::fleet::FleetResult;
use apc_server::result::RunResult;

use crate::export::{fleet_aggregates_json, run_result_json, JsonValue};

/// Streams the fleet-object JSON export (see
/// [`crate::export::fleet_result_json`]): `{ "runs": [` …one element per
/// [`push`](Self::push)… `],` then the aggregates on
/// [`finish`](Self::finish).
#[derive(Debug)]
pub struct JsonRunsWriter<W: Write> {
    out: W,
    runs: usize,
}

impl<W: Write> JsonRunsWriter<W> {
    /// Opens the fleet object and its `runs` array.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn new(mut out: W) -> io::Result<Self> {
        out.write_all(b"{\n  \"runs\": [")?;
        out.flush()?;
        Ok(JsonRunsWriter { out, runs: 0 })
    }

    /// Appends one run to the `runs` array and flushes.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn push(&mut self, r: &RunResult) -> io::Result<()> {
        if self.runs > 0 {
            self.out.write_all(b",")?;
        }
        // Rendered before writing, so the run's JSON tree is freed before a
        // buffered target copies the text.
        let text = run_result_json(r).to_pretty_fragment(2);
        self.out.write_all(b"\n    ")?;
        self.out.write_all(text.as_bytes())?;
        self.out.flush()?;
        self.runs += 1;
        Ok(())
    }

    /// Closes the `runs` array and writes the aggregate block (and the
    /// CLI's trailing `labels` array when given), finishing the document.
    ///
    /// The pushed runs must be exactly `fleet.runs` in order — the
    /// aggregates are computed from `fleet`, and the byte-identity
    /// contract is with `fleet_result_json(fleet)`.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn finish(mut self, fleet: &FleetResult, labels: Option<&[String]>) -> io::Result<W> {
        debug_assert_eq!(self.runs, fleet.runs.len(), "streamed runs != fleet runs");
        let mut tail = fleet_aggregates_json(fleet);
        if let Some(labels) = labels {
            tail.push(
                "labels",
                JsonValue::Array(labels.iter().map(|l| JsonValue::Str(l.clone())).collect()),
            );
        }
        // The tail object pretty-prints as `{\n  "k": v,…\n}`; its interior
        // (everything between the braces, already indented for depth 1) is
        // exactly what follows the closed `runs` array in the buffered form.
        let rendered = tail.to_pretty_fragment(0);
        let interior = &rendered[1..rendered.len() - 2];
        if self.runs > 0 {
            self.out.write_all(b"\n  ]")?;
        } else {
            self.out.write_all(b"]")?;
        }
        self.out.write_all(b",")?;
        self.out.write_all(interior.as_bytes())?;
        self.out.write_all(b"\n}\n")?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Streams a top-level pretty-printed JSON array (the `cluster`/`chain`
/// export shape), one element per [`push`](Self::push).
#[derive(Debug)]
pub struct JsonArrayWriter<W: Write> {
    out: W,
    items: usize,
}

impl<W: Write> JsonArrayWriter<W> {
    /// Wraps `out`; nothing is written until the first push (an empty
    /// array renders as `[]` only at finish).
    pub fn new(out: W) -> Self {
        JsonArrayWriter { out, items: 0 }
    }

    /// Appends one element and flushes. The element's tree is freed once
    /// rendered, before its text is written, so a buffered target never
    /// holds the tree beside both copies of the text.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn push(&mut self, element: JsonValue) -> io::Result<()> {
        let text = element.to_pretty_fragment(1);
        drop(element);
        if self.items == 0 {
            self.out.write_all(b"[")?;
        } else {
            self.out.write_all(b",")?;
        }
        self.out.write_all(b"\n  ")?;
        self.out.write_all(text.as_bytes())?;
        self.out.flush()?;
        self.items += 1;
        Ok(())
    }

    /// Closes the array, finishing the document.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn finish(mut self) -> io::Result<W> {
        if self.items == 0 {
            self.out.write_all(b"[]\n")?;
        } else {
            self.out.write_all(b"\n]\n")?;
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Streams a CSV export: the header line up front, then newline-terminated
/// row chunks (one [`crate::export::run_csv_line`], one
/// [`crate::export::cluster_csv_rows`] block, …) as results finish.
#[derive(Debug)]
pub struct CsvWriter<W: Write> {
    out: W,
}

impl<W: Write> CsvWriter<W> {
    /// Writes the newline-terminated `header` and flushes.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn new(mut out: W, header: &str) -> io::Result<Self> {
        out.write_all(header.as_bytes())?;
        out.flush()?;
        Ok(CsvWriter { out })
    }

    /// Appends one newline-terminated row chunk and flushes.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn push(&mut self, rows: &str) -> io::Result<()> {
        self.out.write_all(rows.as_bytes())?;
        self.out.flush()
    }

    /// Finishes the export (CSV needs no trailer; this just flushes and
    /// returns the writer).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_server::config::ServerConfig;
    use apc_server::fleet::{Fleet, FleetMember};
    use apc_sim::SimDuration;
    use apc_workloads::spec::WorkloadSpec;

    use crate::export::{fleet_result_json, run_csv_line, run_results_csv};

    fn small_fleet() -> FleetResult {
        let mut fleet = Fleet::new();
        for i in 0..3 {
            let config = ServerConfig::c_pc1a()
                .with_duration(SimDuration::from_millis(2))
                .with_seed(Fleet::member_seed(7, i));
            fleet.push(FleetMember::new(
                config,
                WorkloadSpec::memcached_etc(),
                20_000.0,
            ));
        }
        fleet.run().into()
    }

    #[test]
    fn streamed_fleet_json_matches_buffered_bytes() {
        let result = small_fleet();
        let labels: Vec<String> = (0..3).map(|i| format!("server {i}")).collect();

        let mut buffered = fleet_result_json(&result);
        buffered.push(
            "labels",
            JsonValue::Array(labels.iter().map(|l| JsonValue::Str(l.clone())).collect()),
        );
        let buffered = buffered.to_pretty_string();

        let mut w = JsonRunsWriter::new(Vec::new()).unwrap();
        for r in &result.runs {
            w.push(r).unwrap();
        }
        let streamed = w.finish(&result, Some(&labels)).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), buffered);
    }

    #[test]
    fn streamed_fleet_json_without_labels_matches_exporter() {
        let result = small_fleet();
        let mut w = JsonRunsWriter::new(Vec::new()).unwrap();
        for r in &result.runs {
            w.push(r).unwrap();
        }
        let streamed = w.finish(&result, None).unwrap();
        assert_eq!(
            String::from_utf8(streamed).unwrap(),
            fleet_result_json(&result).to_pretty_string()
        );
    }

    #[test]
    fn empty_fleet_still_closes_the_document() {
        let empty = FleetResult { runs: Vec::new() };
        let streamed = JsonRunsWriter::new(Vec::new())
            .unwrap()
            .finish(&empty, None)
            .unwrap();
        let text = String::from_utf8(streamed).unwrap();
        assert_eq!(text, fleet_result_json(&empty).to_pretty_string());
        assert!(JsonValue::parse(&text).is_ok());
    }

    #[test]
    fn streamed_array_matches_buffered_bytes() {
        let elements = vec![
            {
                let mut o = JsonValue::object();
                o.push("a", JsonValue::Int(1));
                o
            },
            JsonValue::Array(vec![JsonValue::Bool(true)]),
        ];
        let buffered = JsonValue::Array(elements.clone()).to_pretty_string();
        let mut w = JsonArrayWriter::new(Vec::new());
        for e in &elements {
            w.push(e.clone()).unwrap();
        }
        assert_eq!(String::from_utf8(w.finish().unwrap()).unwrap(), buffered);

        let empty = JsonArrayWriter::new(Vec::new()).finish().unwrap();
        assert_eq!(
            String::from_utf8(empty).unwrap(),
            JsonValue::Array(Vec::new()).to_pretty_string()
        );
    }

    #[test]
    fn streamed_csv_matches_buffered_bytes() {
        let result = small_fleet();
        let labels: Vec<String> = (0..3).map(|i| format!("server {i}")).collect();
        let buffered = run_results_csv(
            labels
                .iter()
                .map(String::as_str)
                .zip(result.runs.iter())
                .collect::<Vec<_>>(),
        );
        let header = buffered.split_inclusive('\n').next().unwrap();
        let mut w = CsvWriter::new(Vec::new(), header).unwrap();
        for (label, r) in labels.iter().zip(&result.runs) {
            w.push(&run_csv_line(label, r)).unwrap();
        }
        assert_eq!(String::from_utf8(w.finish().unwrap()).unwrap(), buffered);
    }
}
