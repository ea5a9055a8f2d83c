//! `--stream-out`: the artefact and time-series writers of
//! [`apc_analysis::artefact`] aimed at files, driven through
//! [`ExecutionPlan::run_streamed`] so each result is written the moment it
//! (and every earlier member) finishes. [`Outcome::render`] and
//! [`Outcome::timeseries_csv`] aim the same writers at memory, so streamed
//! and buffered artefacts are the same bytes by construction — streaming
//! changes *when* bytes appear, never *which* bytes. A consumer can
//! `tail -f` a streamed file and see complete rows (CSV) or complete array
//! elements (JSON) as the simulation progresses.

use std::fs::File;
use std::io::{self, BufWriter, Write};

use apc_analysis::artefact::{ArtefactWriter, Format, Item, SeriesWriter};
use apc_server::chain::ChainResult;
use apc_server::cluster::ClusterResult;
use apc_server::result::RunResult;

use crate::runner::{ExecutionPlan, Outcome, StreamSink};
use crate::{no_series, CliError};

/// Hands each finished result to the artefact writer and, with
/// `--timeseries-out`, to the time-series writer.
struct ArtefactSink<W: Write> {
    artefact: ArtefactWriter<W>,
    series: Option<SeriesWriter<W>>,
}

impl<W: Write> ArtefactSink<W> {
    fn push(&mut self, item: Item<'_>) -> io::Result<()> {
        self.artefact.push(item)?;
        match &mut self.series {
            Some(series) => series.push(item),
            None => Ok(()),
        }
    }
}

impl<W: Write> StreamSink<io::Error> for ArtefactSink<W> {
    fn on_run(&mut self, _index: usize, label: &str, run: &RunResult) -> io::Result<()> {
        self.push(Item::Run(label, run))
    }

    fn on_cluster(&mut self, repeat: usize, result: &ClusterResult) -> io::Result<()> {
        self.push(Item::Cluster(repeat, result))
    }

    fn on_chain(&mut self, repeat: usize, result: &ChainResult) -> io::Result<()> {
        self.push(Item::Chain(repeat, result))
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

/// Executes `plan`, streaming the `format` artefact to `path` (and the
/// time series to `ts_path` when given). Returns the completed outcome
/// (for `--trace-out`) and the `wrote …` stdout lines.
///
/// The caller has already validated the flag set; `repeats` (which labels
/// node series) and `with_network` (which adds the fabric CSV columns)
/// describe the spec.
///
/// # Errors
///
/// Returns the first file-creation or write failure as [`CliError::Io`].
pub(crate) fn execute_plan_streamed(
    plan: ExecutionPlan,
    format: Format,
    path: &str,
    ts_path: Option<&str>,
    repeats: usize,
    with_network: bool,
) -> Result<(Outcome, String), CliError> {
    let shape = plan.shape();
    let io_err = |e: io::Error| CliError::Io(e.to_string());
    let out = FileOut::create(path)?;
    let series = ts_path.map(FileOut::create).transpose()?;
    let mut sink = ArtefactSink {
        artefact: ArtefactWriter::new(out, format, shape, with_network).map_err(io_err)?,
        series: series.map(|out| SeriesWriter::new(out, repeats)),
    };
    let outcome = plan.run_streamed(&mut sink).map_err(io_err)?;
    let out = sink.artefact.finish(&outcome.results()).map_err(io_err)?;
    let mut stdout = format!("wrote {path} ({} bytes)\n", out.bytes);
    if let (Some(ts_path), Some(series)) = (ts_path, sink.series) {
        let series = series.finish().map_err(io_err)?.ok_or_else(no_series)?;
        stdout.push_str(&format!("wrote {ts_path} ({} bytes)\n", series.bytes));
    }
    Ok((outcome, stdout))
}
