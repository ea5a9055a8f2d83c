//! The artefact sink: the one writer of every JSON/CSV artefact and of the
//! `--timeseries-out` stream.
//!
//! [`ArtefactSink`] is a [`StreamSink`] over any [`Write`]. `--stream-out`
//! drives it with files through [`ExecutionPlan::run_streamed`], writing
//! each result the moment it (and every earlier member) finishes;
//! [`Outcome::render`] and [`Outcome::timeseries_csv`] replay a finished
//! outcome through it into memory. Streamed and buffered artefacts are
//! therefore the same bytes by construction — streaming changes *when*
//! bytes appear, never *which* bytes. A consumer can `tail -f` a streamed
//! file and see complete rows (CSV) or complete array elements (JSON) as
//! the simulation progresses; memory stays bounded by the in-flight
//! results instead of the whole run set.

use std::fs::File;
use std::io::{self, BufWriter, Write};

use apc_analysis::export::{
    chain_csv_header, chain_csv_row, chain_result_json, cluster_csv_header, cluster_csv_rows,
    cluster_result_json, run_csv_line, timeseries_csv, RUN_CSV_HEADER,
};
use apc_analysis::stream::{CsvWriter, JsonArrayWriter, JsonRunsWriter};
use apc_server::chain::ChainResult;
use apc_server::cluster::ClusterResult;
use apc_server::result::RunResult;

use crate::runner::{ExecutionPlan, Outcome, OutputFormat, Shape, StreamSink};
use crate::CliError;

/// What fixes an artefact's layout before the first result arrives.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout {
    /// The result shape (picks the writer).
    pub shape: Shape,
    /// Cluster/chain repeat count: node series are labelled `node <i>`
    /// for one repeat, `repeat <r> node <i>` for several.
    pub repeats: usize,
    /// Whether the runs crossed a network fabric (fixes the CSV column set
    /// up front; every repeat of one spec shares it).
    pub with_network: bool,
}

/// The format × shape writer behind the sink.
enum ArtefactWriter<W: Write> {
    RunsJson(JsonRunsWriter<W>),
    ArrayJson(JsonArrayWriter<W>),
    Csv(CsvWriter<W>),
}

/// The time-series stream: one header line tops the concatenated blocks.
struct Series<W> {
    out: W,
    any: bool,
}

/// Writes the artefact and the time series of one plan's results as they
/// are handed over (see the [module docs](self)).
pub(crate) struct ArtefactSink<W: Write> {
    artefact: Option<ArtefactWriter<W>>,
    series: Option<Series<W>>,
    layout: Layout,
}

impl<W: Write> ArtefactSink<W> {
    /// Opens the artefact writer (`Some((out, format))`, JSON or CSV) and
    /// the time-series stream (`Some(out)`), either of which may be absent.
    ///
    /// # Errors
    ///
    /// Propagates header write failures.
    pub(crate) fn new(
        artefact: Option<(W, OutputFormat)>,
        series: Option<W>,
        layout: Layout,
    ) -> io::Result<Self> {
        let artefact = match artefact {
            None => None,
            Some((out, format)) => Some(match (format, layout.shape) {
                (OutputFormat::Table, _) => unreachable!("tables are rendered whole"),
                (OutputFormat::Json, Shape::Runs) => {
                    ArtefactWriter::RunsJson(JsonRunsWriter::new(out)?)
                }
                (OutputFormat::Json, Shape::Clusters | Shape::Chains) => {
                    ArtefactWriter::ArrayJson(JsonArrayWriter::new(out))
                }
                (OutputFormat::Csv, shape) => {
                    let header = match shape {
                        Shape::Runs => format!("label,{RUN_CSV_HEADER}\n"),
                        Shape::Clusters => cluster_csv_header(layout.with_network),
                        Shape::Chains => chain_csv_header(layout.with_network),
                    };
                    ArtefactWriter::Csv(CsvWriter::new(out, &header)?)
                }
            }),
        };
        Ok(ArtefactSink {
            artefact,
            series: series.map(|out| Series { out, any: false }),
            layout,
        })
    }

    /// Closes the artefact document (the fleet object's aggregates come
    /// from `outcome`, which must be what the sink was handed) and returns
    /// the artefact writer, and the series writer when some run recorded a
    /// time series.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub(crate) fn finish(self, outcome: &Outcome) -> io::Result<(Option<W>, Option<W>)> {
        let artefact = match self.artefact {
            None => None,
            Some(ArtefactWriter::RunsJson(w)) => {
                let Outcome::Runs { labels, fleet, .. } = outcome else {
                    unreachable!("the fleet-object writer implies a run-level outcome")
                };
                Some(w.finish(fleet, Some(labels))?)
            }
            Some(ArtefactWriter::ArrayJson(w)) => Some(w.finish()?),
            Some(ArtefactWriter::Csv(w)) => Some(w.finish()?),
        };
        let series = self.series.filter(|s| s.any).map(|s| s.out);
        Ok((artefact, series))
    }

    /// Appends `run`'s time series (if it recorded one) under `label`.
    fn push_series(&mut self, label: &str, run: &RunResult) -> io::Result<()> {
        let (Some(series), Some(ts)) = (&mut self.series, &run.timeseries) else {
            return Ok(());
        };
        let block = timeseries_csv(label, ts);
        let text = if series.any {
            // Drop the repeated header; one header tops the file.
            block.split_once('\n').map_or("", |(_, rest)| rest)
        } else {
            &block
        };
        series.any = true;
        series.out.write_all(text.as_bytes())?;
        series.out.flush()
    }

    /// Appends the node series of one cluster/chain repeat.
    fn push_node_series(&mut self, repeat: usize, runs: &[RunResult]) -> io::Result<()> {
        for (i, run) in runs.iter().enumerate() {
            let label = if self.layout.repeats > 1 {
                format!("repeat {repeat} node {i}")
            } else {
                format!("node {i}")
            };
            self.push_series(&label, run)?;
        }
        Ok(())
    }
}

impl<W: Write> StreamSink<io::Error> for ArtefactSink<W> {
    fn on_run(&mut self, _index: usize, label: &str, run: &RunResult) -> io::Result<()> {
        match &mut self.artefact {
            None => {}
            Some(ArtefactWriter::RunsJson(w)) => w.push(run)?,
            Some(ArtefactWriter::Csv(w)) => w.push(&run_csv_line(label, run))?,
            Some(ArtefactWriter::ArrayJson(_)) => {
                unreachable!("run-level plans never write a top-level array")
            }
        }
        self.push_series(label, run)
    }

    fn on_cluster(&mut self, repeat: usize, result: &ClusterResult) -> io::Result<()> {
        let with_network = self.layout.with_network;
        match &mut self.artefact {
            None => {}
            Some(ArtefactWriter::ArrayJson(w)) => w.push(cluster_result_json(result))?,
            Some(ArtefactWriter::Csv(w)) => {
                w.push(&cluster_csv_rows(repeat, result, with_network))?;
            }
            Some(ArtefactWriter::RunsJson(_)) => {
                unreachable!("cluster plans never write a fleet object")
            }
        }
        self.push_node_series(repeat, &result.nodes.runs)
    }

    fn on_chain(&mut self, repeat: usize, result: &ChainResult) -> io::Result<()> {
        let with_network = self.layout.with_network;
        match &mut self.artefact {
            None => {}
            Some(ArtefactWriter::ArrayJson(w)) => w.push(chain_result_json(result))?,
            Some(ArtefactWriter::Csv(w)) => w.push(&chain_csv_row(repeat, result, with_network))?,
            Some(ArtefactWriter::RunsJson(_)) => {
                unreachable!("chain plans never write a fleet object")
            }
        }
        self.push_node_series(repeat, &result.nodes.runs)
    }
}

/// A buffered file that counts the bytes it accepted (so the CLI can report
/// the streamed file's size without re-reading it) and names its path in
/// every error.
struct FileOut {
    inner: BufWriter<File>,
    path: String,
    bytes: u64,
}

impl FileOut {
    fn create(path: &str) -> Result<Self, CliError> {
        let file =
            File::create(path).map_err(|e| CliError::Io(format!("cannot write `{path}`: {e}")))?;
        Ok(FileOut {
            inner: BufWriter::new(file),
            path: path.to_owned(),
            bytes: 0,
        })
    }

    fn annotate(&self, e: &io::Error) -> io::Error {
        io::Error::new(e.kind(), format!("cannot write `{}`: {e}", self.path))
    }
}

impl Write for FileOut {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf).map_err(|e| self.annotate(&e))?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush().map_err(|e| self.annotate(&e))
    }
}

/// Executes `plan`, streaming the rendered artefact to `path` (and the
/// time series to `ts_path` when given). Returns the completed outcome
/// (for `--trace-out`) and the `wrote …` stdout lines.
///
/// The caller has already rejected `--format table` and validated the
/// flag set; `repeats` and `with_network` describe the spec (see
/// [`Layout`]).
///
/// # Errors
///
/// Returns the first file-creation or write failure as [`CliError::Io`].
pub(crate) fn execute_plan_streamed(
    plan: ExecutionPlan,
    format: OutputFormat,
    path: &str,
    ts_path: Option<&str>,
    repeats: usize,
    with_network: bool,
) -> Result<(Outcome, String), CliError> {
    let layout = Layout {
        shape: plan.shape(),
        repeats,
        with_network,
    };
    let out = FileOut::create(path)?;
    let series = ts_path.map(FileOut::create).transpose()?;
    let io_err = |e: io::Error| CliError::Io(e.to_string());
    let mut sink = ArtefactSink::new(Some((out, format)), series, layout).map_err(io_err)?;
    let outcome = plan.run_streamed(&mut sink).map_err(io_err)?;
    let (out, series) = sink.finish(&outcome).map_err(io_err)?;
    let out = out.expect("an artefact was requested");
    let mut stdout = format!("wrote {path} ({} bytes)\n", out.bytes);
    if let Some(ts_path) = ts_path {
        let Some(series) = series else {
            return Err(CliError::Usage(
                "conflicting flags: `--timeseries-out` needs a spec with a [telemetry] table \
                 (no run recorded a time series)"
                    .to_owned(),
            ));
        };
        stdout.push_str(&format!("wrote {ts_path} ({} bytes)\n", series.bytes));
    }
    Ok((outcome, stdout))
}
