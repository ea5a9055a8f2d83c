//! Sweep-shard checkpoints: serialized partial sweep results that
//! `apc-cli merge` recombines into the unsharded artefact, byte for byte.
//!
//! `apc-cli sweep <spec> --shard i/n --out shard_i.json` runs every grid
//! point whose *global grid index* is congruent to `i` modulo `n` and
//! writes one checkpoint: an envelope identifying the sweep (spec name,
//! shard arity, grid size, seed, duration) plus, per completed point, its
//! label, end-of-timeline stamp, the full [`RunResult`] export and — the
//! piece the plain export lacks — the run's serialized quantile sketch.
//! The sketch is what makes the cross-process round trip *exact*: `merge`
//! re-derives every latency summary from the parsed sketch (never from the
//! printed summary), re-aggregates combined fleet latency by sketch merge,
//! and therefore renders output bit-identical to a single-process run of
//! the same spec. The differential tests pin that identity.
//!
//! Checkpoints are deliberately strict on the way in: wrong version, shard
//! mismatches, points outside the shard's residue class, duplicate or
//! missing grid indices, and summaries inconsistent with their sketch are
//! all hard errors — a corrupted shard must fail loudly at merge, not bend
//! the final artefact.

use std::collections::BTreeMap;

use apc_analysis::export::{
    run_result_from_json, run_result_json, sketch_from_json, sketch_json, JsonValue,
};
use apc_server::fleet::FleetResult;
use apc_server::result::RunResult;
use apc_sim::{SimDuration, SimTime};
use apc_telemetry::sketch::QuantileSketch;

/// The checkpoint format version this build writes and accepts.
pub const CHECKPOINT_VERSION: u64 = 1;

/// One completed grid point of a sharded sweep.
pub struct CheckpointPoint {
    /// The point's global grid index (platform-major, see
    /// [`crate::runner::sweep_grid`]).
    pub index: usize,
    /// The point's display label (`<platform>@<rate>`).
    pub label: String,
    /// The completed run.
    pub run: RunResult,
}

/// One shard's worth of sweep results plus the envelope identifying the
/// sweep it came from.
pub struct Checkpoint {
    /// The sweep spec's experiment name.
    pub spec_name: String,
    /// This shard's id, `0 <= shard < of`.
    pub shard: usize,
    /// The shard arity the sweep was split into.
    pub of: usize,
    /// The full grid's point count (all shards together).
    pub total_points: usize,
    /// The sweep's root seed (every grid point reuses it).
    pub seed: u64,
    /// The simulated duration of each grid point.
    pub duration: SimDuration,
    /// The shard's completed points, in global grid order.
    pub points: Vec<CheckpointPoint>,
}

impl Checkpoint {
    /// Serialises the checkpoint (pretty-print the result to write it).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        use JsonValue::{Array, Str, UInt};
        let points = self.points.iter().map(|p| {
            JsonValue::from([
                ("index", UInt(p.index as u64)),
                ("label", Str(p.label.clone())),
                (
                    "finished_at_ns",
                    UInt((p.run.finished_at - SimTime::ZERO).as_nanos()),
                ),
                ("sketch", sketch_json(&p.run.latency_sketch)),
                ("run", run_result_json(&p.run)),
            ])
        });
        JsonValue::from([
            ("apc_sweep_checkpoint", UInt(CHECKPOINT_VERSION)),
            ("spec_name", Str(self.spec_name.clone())),
            ("shard", UInt(self.shard as u64)),
            ("of", UInt(self.of as u64)),
            ("total_points", UInt(self.total_points as u64)),
            ("seed", UInt(self.seed)),
            ("duration_ns", UInt(self.duration.as_nanos())),
            ("points", Array(points.collect())),
        ])
    }

    /// Parses and validates a checkpoint document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural or consistency
    /// problem (see the module docs for the strictness stance).
    pub fn from_json(v: &JsonValue) -> Result<Checkpoint, String> {
        fn usize_field(v: &JsonValue, key: &str) -> Result<usize, String> {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| format!("checkpoint: missing or non-integer `{key}`"))
        }
        match v.get("apc_sweep_checkpoint").and_then(JsonValue::as_u64) {
            Some(CHECKPOINT_VERSION) => {}
            Some(other) => {
                return Err(format!(
                    "checkpoint: version {other} (this build reads version {CHECKPOINT_VERSION})"
                ))
            }
            None => return Err("not a sweep checkpoint (no `apc_sweep_checkpoint` key)".to_owned()),
        }
        let spec_name = v
            .get("spec_name")
            .and_then(JsonValue::as_str)
            .ok_or("checkpoint: missing or non-string `spec_name`")?
            .to_owned();
        let shard = usize_field(v, "shard")?;
        let of = usize_field(v, "of")?;
        let total_points = usize_field(v, "total_points")?;
        if of == 0 || shard >= of {
            return Err(format!("checkpoint: shard {shard}/{of} is out of range"));
        }
        let seed = v.u64_member("checkpoint", "seed")?;
        let duration = SimDuration::from_nanos(v.u64_member("checkpoint", "duration_ns")?);
        let mut points = Vec::new();
        for p in v
            .get("points")
            .and_then(JsonValue::as_array)
            .ok_or("checkpoint: missing or non-array `points`")?
        {
            let index = usize_field(p, "index").map_err(|e| e.replace("checkpoint:", "point:"))?;
            if index >= total_points {
                return Err(format!(
                    "point {index}: index out of range (grid has {total_points} points)"
                ));
            }
            if index % of != shard {
                return Err(format!(
                    "point {index}: does not belong to shard {shard}/{of}"
                ));
            }
            let label = p
                .get("label")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("point {index}: missing or non-string `label`"))?
                .to_owned();
            let finished_at_ns = p.u64_member(&format!("point {index}"), "finished_at_ns")?;
            let finished_at = SimTime::ZERO + SimDuration::from_nanos(finished_at_ns);
            let sketch = p
                .get("sketch")
                .map(sketch_from_json)
                .transpose()
                .map_err(|e| format!("point {index}: {e}"))?
                .ok_or_else(|| format!("point {index}: missing `sketch`"))?;
            // Every run records into the latency default, and only sketches
            // of equal parameters merge.
            let params = |s: &QuantileSketch| (s.relative_error(), s.max_buckets());
            if params(&sketch) != params(&QuantileSketch::latency_default()) {
                let (alpha, buckets) = params(&sketch);
                return Err(format!(
                    "point {index}: sketch parameters (relative error {alpha}, {buckets} buckets) \
                     differ from the latency default"
                ));
            }
            let run = p
                .get("run")
                .map(|run| run_result_from_json(run, sketch, finished_at))
                .transpose()
                .map_err(|e| format!("point {index}: {e}"))?
                .ok_or_else(|| format!("point {index}: missing `run`"))?;
            points.push(CheckpointPoint { index, label, run });
        }
        Ok(Checkpoint {
            spec_name,
            shard,
            of,
            total_points,
            seed,
            duration,
            points,
        })
    }
}

/// Recombines one checkpoint per shard into the unsharded sweep outcome:
/// the experiment name, the grid labels and the reconstructed fleet, in
/// global grid order — exactly what rendering an unsharded `sweep` run
/// would have produced.
///
/// # Errors
///
/// Returns a description of the first inconsistency: mismatched envelopes,
/// a missing or repeated shard, and missing or duplicate grid points.
pub fn merge_checkpoints(
    shards: Vec<Checkpoint>,
) -> Result<(String, Vec<String>, FleetResult), String> {
    let Some(first) = shards.first() else {
        return Err("no checkpoints to merge".to_owned());
    };
    let spec_name = first.spec_name.clone();
    let (of, total_points, seed, duration) =
        (first.of, first.total_points, first.seed, first.duration);
    if shards.len() != of {
        return Err(format!(
            "the sweep was split {of} ways but {} checkpoint(s) were given",
            shards.len()
        ));
    }
    let mut seen_shards = vec![false; of];
    // Keyed by grid index, so memory follows the points the shards carry,
    // never the `total_points` they claim.
    let mut points = BTreeMap::new();
    for ck in shards {
        if ck.spec_name != spec_name {
            return Err(format!(
                "checkpoint spec `{}` does not match `{spec_name}`",
                ck.spec_name
            ));
        }
        if ck.of != of || ck.total_points != total_points {
            return Err(format!(
                "checkpoint shard {}/{} over {} points does not match {of} shards over {total_points} points",
                ck.shard, ck.of, ck.total_points
            ));
        }
        if ck.seed != seed || ck.duration != duration {
            return Err(format!(
                "checkpoint shard {} ran under a different seed or duration than the first checkpoint",
                ck.shard
            ));
        }
        if seen_shards[ck.shard] {
            return Err(format!("shard {} given more than once", ck.shard));
        }
        seen_shards[ck.shard] = true;
        for point in ck.points {
            let index = point.index;
            if points.insert(index, point).is_some() {
                return Err(format!("grid point {index} given more than once"));
            }
        }
    }
    // Indices are unique and below `total_points` (checked on load), so
    // the first gap lies within the points carried.
    if let Some(missing) = (0..total_points).find(|i| !points.contains_key(i)) {
        return Err(format!("grid point {missing} is missing"));
    }
    let (labels, runs) = points
        .into_values()
        .map(|point| (point.label, point.run))
        .unzip();
    Ok((spec_name, labels, FleetResult { runs }))
}
