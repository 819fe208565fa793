//! JSON serialization of simulation-level run artifacts.
//!
//! Each crate owns the artifact serialization of its own types (the orphan
//! rule requires it once the JSON traits live in the shared `dvs-json`
//! crate): this module covers simulation statistics, Time Warp run
//! results, recovery provenance, and the schema-versioned [`Checkpoint`]
//! image. The checkpoint serialization doubles as the **wire format** of
//! the process transport ([`crate::timewarp::Transport::Process`]) — a
//! respawned worker is restored from exactly these bytes, which is why the
//! round-trip must be lossless and the capture deterministic.
//!
//! The checkpoint-side types (images, deltas, events, messages, stats)
//! implement [`JsonEncode`]: one streaming encoder per type, from which
//! `to_json()` builds the tree and `json_len()` counts the exact compact
//! size. The recovery supervisor's byte counters use the latter, so they
//! never serialize an image.
//!
//! Flow-level artifact assembly (reports, presim points) stays in
//! `dvs_core::artifact`; netlist statistics serialize in
//! `dvs_verilog::artifact`.

use crate::cluster_model::{ClusterRun, RunTiming};
use crate::stats::SimStats;
use crate::timewarp::{
    Checkpoint, CheckpointDelta, CkptEvent, CkptSource, LogDelta, RecoveryOutcome, TwMessage,
    TwRunResult, ValuesDelta, CHECKPOINT_SCHEMA,
};
use crate::wheel::NetEvent;
use crate::wheel::VTime;
use crate::Logic;
use dvs_json::{
    uint_array, uint_vec, FromJson, Json, JsonEncode, JsonError, JsonSink, ObjBuilder, ToJson,
    SCHEMA_VERSION,
};
use dvs_verilog::netlist::NetId;

/// A logic-value vector as a compact display-char string (`"01xz…"`).
pub(crate) fn logic_str(values: &[Logic]) -> String {
    values.iter().map(|v| v.display_char()).collect()
}

fn encode_logic<S: JsonSink>(s: &mut S, v: Logic) {
    s.str(v.display_char().encode_utf8(&mut [0; 4]));
}

/// An array of `items`, each written by `enc`.
fn encode_array<S: JsonSink, T>(s: &mut S, items: &[T], mut enc: impl FnMut(&mut S, &T)) {
    s.begin_array();
    for item in items {
        enc(s, item);
    }
    s.end_array();
}

fn encode_uint_pair<S: JsonSink>(s: &mut S, a: u64, b: u64) {
    s.begin_array();
    s.uint(a);
    s.uint(b);
    s.end_array();
}

pub(crate) fn logic_vec(v: &Json) -> Result<Vec<Logic>, JsonError> {
    v.as_str()?
        .chars()
        .map(|c| {
            Logic::from_display_char(c)
                .ok_or_else(|| JsonError::new(format!("invalid logic value character `{c}`")))
        })
        .collect()
}

pub(crate) fn logic_from_json(v: &Json) -> Result<Logic, JsonError> {
    let s = v.as_str()?;
    let mut chars = s.chars();
    match (
        chars.next().and_then(Logic::from_display_char),
        chars.next(),
    ) {
        (Some(l), None) => Ok(l),
        _ => Err(JsonError::new(format!("invalid logic value `{s}`"))),
    }
}

impl JsonEncode for SimStats {
    fn encode<S: JsonSink>(&self, s: &mut S) {
        s.begin_object();
        s.key("events").uint(self.events);
        s.key("gate_evals").uint(self.gate_evals);
        s.key("net_toggles").uint(self.net_toggles);
        s.key("cycles").uint(self.cycles);
        s.key("end_time").uint(self.end_time);
        s.key("messages").uint(self.messages);
        s.key("anti_messages").uint(self.anti_messages);
        s.key("rollbacks").uint(self.rollbacks);
        s.key("rolled_back_events").uint(self.rolled_back_events);
        s.key("gvt_rounds").uint(self.gvt_rounds);
        s.key("fossil_collected").uint(self.fossil_collected);
        s.end_object();
    }
}

impl ToJson for SimStats {
    fn to_json(&self) -> Json {
        self.encode_tree()
    }
}

impl FromJson for SimStats {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(SimStats {
            events: v.field("events")?.as_u64()?,
            gate_evals: v.field("gate_evals")?.as_u64()?,
            net_toggles: v.field("net_toggles")?.as_u64()?,
            cycles: v.field("cycles")?.as_u64()?,
            end_time: v.field("end_time")?.as_u64()?,
            messages: v.field("messages")?.as_u64()?,
            anti_messages: v.field("anti_messages")?.as_u64()?,
            rollbacks: v.field("rollbacks")?.as_u64()?,
            rolled_back_events: v.field("rolled_back_events")?.as_u64()?,
            gvt_rounds: v.field("gvt_rounds")?.as_u64()?,
            fossil_collected: v.field("fossil_collected")?.as_u64()?,
        })
    }
}

impl ToJson for RunTiming {
    fn to_json(&self) -> Json {
        ObjBuilder::new()
            .float("profile_seconds", self.profile_seconds)
            .float("model_seconds", self.model_seconds)
            .build()
    }
}

impl FromJson for RunTiming {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(RunTiming {
            profile_seconds: v.field("profile_seconds")?.as_f64()?,
            model_seconds: v.field("model_seconds")?.as_f64()?,
        })
    }
}

/// The deterministic portion of a [`ClusterRun`] (everything except the
/// host-side [`RunTiming`]). Public so `dvs_core::artifact` can assemble
/// the canonical flow report from it.
pub fn cluster_run_core(run: &ClusterRun) -> ObjBuilder {
    ObjBuilder::new()
        .field("stats", run.stats.to_json())
        .float("wall_seconds", run.wall_seconds)
        .float("seq_seconds", run.seq_seconds)
        .float("speedup", run.speedup)
        .field("machine_events", uint_array(&run.machine_events))
        .field("machine_rollbacks", uint_array(&run.machine_rollbacks))
        .field("machine_messages", uint_array(&run.machine_messages))
}

impl ToJson for ClusterRun {
    fn to_json(&self) -> Json {
        cluster_run_core(self)
            .field("timing", self.timing.to_json())
            .build()
    }
}

impl FromJson for ClusterRun {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(ClusterRun {
            stats: SimStats::from_json(v.field("stats")?)?,
            wall_seconds: v.field("wall_seconds")?.as_f64()?,
            seq_seconds: v.field("seq_seconds")?.as_f64()?,
            speedup: v.field("speedup")?.as_f64()?,
            machine_events: uint_vec(v.field("machine_events")?)?,
            machine_rollbacks: uint_vec(v.field("machine_rollbacks")?)?,
            machine_messages: uint_vec(v.field("machine_messages")?)?,
            // Host timings default to zero when an artifact omits them
            // (canonical artifacts carry no host measurements).
            timing: match v.get("timing") {
                Some(t) => RunTiming::from_json(t)?,
                None => RunTiming::default(),
            },
        })
    }
}

impl ToJson for RecoveryOutcome {
    fn to_json(&self) -> Json {
        ObjBuilder::new()
            .uint("crashes", self.crashes as u64)
            .uint("restarts", self.restarts as u64)
            .uint("replayed_ops", self.replayed_ops)
            .field(
                "victims",
                uint_array(&self.victims.iter().map(|&c| c as u64).collect::<Vec<_>>()),
            )
            .uint("checkpoint_bytes_full", self.checkpoint_bytes_full)
            .uint("checkpoint_bytes_delta", self.checkpoint_bytes_delta)
            .uint("corrupt_frames", self.corrupt_frames)
            .uint("heartbeats_missed", self.heartbeats_missed)
            .uint("chaos_faults_injected", self.chaos_faults_injected)
            .uint("messages_sent", self.messages_sent)
            .uint("frames_sent", self.frames_sent)
            .uint("messages_folded", self.messages_folded)
            .bool("degraded", self.degraded)
            .build()
    }
}

impl FromJson for RecoveryOutcome {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        // Byte counters (and the victim list) are absent in artifacts
        // written before they existed; they read back as zero/empty.
        let opt_uint =
            |key: &str| -> Result<u64, JsonError> { v.get(key).map_or(Ok(0), |f| f.as_u64()) };
        Ok(RecoveryOutcome {
            crashes: v.field("crashes")?.as_u64()? as u32,
            restarts: v.field("restarts")?.as_u64()? as u32,
            replayed_ops: v.field("replayed_ops")?.as_u64()?,
            victims: match v.get("victims") {
                Some(a) => uint_vec(a)?.into_iter().map(|c| c as u32).collect(),
                None => Vec::new(),
            },
            checkpoint_bytes_full: opt_uint("checkpoint_bytes_full")?,
            checkpoint_bytes_delta: opt_uint("checkpoint_bytes_delta")?,
            corrupt_frames: opt_uint("corrupt_frames")?,
            heartbeats_missed: opt_uint("heartbeats_missed")?,
            chaos_faults_injected: opt_uint("chaos_faults_injected")?,
            messages_sent: opt_uint("messages_sent")?,
            frames_sent: opt_uint("frames_sent")?,
            messages_folded: opt_uint("messages_folded")?,
            degraded: v.field("degraded")?.as_bool()?,
        })
    }
}

/// The simulation content of a Time Warp run — everything except the
/// recovery provenance.
fn tw_run_core(r: &TwRunResult) -> ObjBuilder {
    ObjBuilder::new()
        .field("stats", r.stats.to_json())
        .array(
            "cluster_stats",
            r.cluster_stats.iter().map(|s| s.to_json()).collect(),
        )
        .uint("gvt_rounds", r.gvt_rounds)
        .str("values", &logic_str(&r.values))
}

/// The **canonical** serialization of a Time Warp run: simulation content
/// only, recovery provenance excluded. Under the deterministic transports
/// ([`crate::timewarp::Transport::InProc`] and
/// [`crate::timewarp::Transport::Process`]) every included field is an
/// exact counter, and recovery restores the pre-crash state bit-for-bit —
/// so a run that crashed and recovered emits a canonical artifact
/// byte-identical to the undisturbed run's, *on either transport*. The
/// crash-recovery DST tests and the process kill harness assert exactly
/// that.
pub fn tw_run_canonical_json(r: &TwRunResult) -> Json {
    tw_run_core(r).build()
}

impl ToJson for TwRunResult {
    /// The full serialization: the canonical simulation content plus the
    /// `recovery` provenance block (crashes injected, restarts performed,
    /// operations replayed, victim clusters, degradation flag). Use
    /// [`tw_run_canonical_json`] for crash-invariant comparisons.
    fn to_json(&self) -> Json {
        tw_run_core(self)
            .field("recovery", self.recovery.to_json())
            .build()
    }
}

fn encode_ckpt_source<S: JsonSink>(s: &mut S, src: &CkptSource) {
    s.begin_object();
    match *src {
        CkptSource::Stimulus => s.key("kind").str("stimulus"),
        CkptSource::Local { created_at, lseq } => {
            s.key("kind").str("local");
            s.key("created_at").uint(created_at);
            s.key("lseq").uint(lseq);
        }
        CkptSource::Remote { src, seq } => {
            s.key("kind").str("remote");
            s.key("src").uint(src.into());
            s.key("seq").uint(seq);
        }
    }
    s.end_object();
}

fn ckpt_source_from_json(v: &Json) -> Result<CkptSource, JsonError> {
    match v.field("kind")?.as_str()? {
        "stimulus" => Ok(CkptSource::Stimulus),
        "local" => Ok(CkptSource::Local {
            created_at: v.field("created_at")?.as_u64()?,
            lseq: v.field("lseq")?.as_u64()?,
        }),
        "remote" => Ok(CkptSource::Remote {
            src: v.field("src")?.as_u64()? as u32,
            seq: v.field("seq")?.as_u64()?,
        }),
        k => Err(JsonError::new(format!("unknown event source kind `{k}`"))),
    }
}

impl JsonEncode for CkptEvent {
    fn encode<S: JsonSink>(&self, s: &mut S) {
        s.begin_object();
        s.key("time").uint(self.time);
        s.key("net").uint(self.net.into());
        encode_logic(s.key("value"), self.value);
        encode_ckpt_source(s.key("source"), &self.source);
        s.key("order").uint(self.order);
        s.end_object();
    }
}

impl ToJson for CkptEvent {
    fn to_json(&self) -> Json {
        self.encode_tree()
    }
}

impl FromJson for CkptEvent {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(CkptEvent {
            time: v.field("time")?.as_u64()?,
            net: v.field("net")?.as_u64()? as u32,
            value: logic_from_json(v.field("value")?)?,
            source: ckpt_source_from_json(v.field("source")?)?,
            order: v.field("order")?.as_u64()?,
        })
    }
}

impl JsonEncode for TwMessage {
    fn encode<S: JsonSink>(&self, s: &mut S) {
        s.begin_object();
        s.key("src").uint(self.src.into());
        s.key("dst").uint(self.dst.into());
        s.key("seq").uint(self.seq);
        s.key("time").uint(self.ev.time);
        s.key("net").uint(self.ev.net.0.into());
        encode_logic(s.key("value"), self.ev.value);
        s.key("anti").bool(self.anti);
        s.end_object();
    }
}

impl ToJson for TwMessage {
    fn to_json(&self) -> Json {
        self.encode_tree()
    }
}

impl FromJson for TwMessage {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(TwMessage {
            src: v.field("src")?.as_u64()? as u32,
            dst: v.field("dst")?.as_u64()? as u32,
            seq: v.field("seq")?.as_u64()?,
            ev: NetEvent {
                time: v.field("time")?.as_u64()?,
                net: NetId(v.field("net")?.as_u64()? as u32),
                value: logic_from_json(v.field("value")?)?,
            },
            anti: v.field("anti")?.as_bool()?,
        })
    }
}

impl JsonEncode for Checkpoint {
    /// Schema-versioned checkpoint artifact (`kind: "tw_checkpoint"`). The
    /// capture is deterministic (nondeterministic collections are sorted
    /// when the image is taken), so equal cluster states serialize to
    /// byte-identical artifacts and the round-trip through [`FromJson`] is
    /// lossless — the `checkpoint_roundtrip` suite asserts both. These are
    /// the exact bytes the process transport ships in `Restore` frames.
    fn encode<S: JsonSink>(&self, s: &mut S) {
        s.begin_object();
        s.key("schema_version").int(SCHEMA_VERSION);
        s.key("kind").str("tw_checkpoint");
        s.key("checkpoint_schema").uint(self.schema.into());
        s.key("cluster").uint(self.cluster.into());
        s.key("gvt").uint(self.gvt);
        s.key("values").str(&logic_str(&self.values));
        encode_array(s.key("pending"), &self.pending, |s, e| e.encode(s));
        encode_array(s.key("tomb_remote"), &self.tomb_remote, |s, &(src, seq)| {
            encode_uint_pair(s, src.into(), seq)
        });
        encode_array(s.key("tomb_local"), &self.tomb_local, |s, &n| s.uint(n));
        encode_array(s.key("processed"), &self.processed, |s, e| e.encode(s));
        encode_array(s.key("undo"), &self.undo, encode_undo_entry);
        encode_array(s.key("snapshots"), &self.snapshots, encode_snapshot_entry);
        s.key("epochs_since_snapshot")
            .uint(self.epochs_since_snapshot.into());
        encode_array(s.key("outlog"), &self.outlog, |s, (t, m)| {
            s.begin_array();
            s.uint(*t);
            m.encode(s);
            s.end_array();
        });
        encode_array(s.key("sched_log"), &self.sched_log, |s, &(t, lseq)| {
            encode_uint_pair(s, t, lseq)
        });
        s.key("stim_cycle").uint(self.stim_cycle);
        s.key("last_time").uint(self.last_time);
        s.key("settled").bool(self.settled);
        s.key("order").uint(self.order);
        s.key("lseq").uint(self.lseq);
        s.key("mseq").uint(self.mseq);
        self.stats.encode(s.key("stats"));
        s.end_object();
    }
}

impl ToJson for Checkpoint {
    fn to_json(&self) -> Json {
        self.encode_tree()
    }
}

pub(crate) fn uint_pair(v: &Json) -> Result<(u64, u64), JsonError> {
    let pair = uint_vec(v)?;
    match pair.as_slice() {
        &[a, b] => Ok((a, b)),
        other => Err(JsonError::new(format!(
            "expected a 2-element array, got {} elements",
            other.len()
        ))),
    }
}

impl FromJson for Checkpoint {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let version = v.field("schema_version")?.as_i64()?;
        if version != SCHEMA_VERSION {
            return Err(JsonError::new(format!(
                "unsupported schema_version {version} (expected {SCHEMA_VERSION})"
            )));
        }
        let kind = v.field("kind")?.as_str()?;
        if kind != "tw_checkpoint" {
            return Err(JsonError::new(format!(
                "expected kind `tw_checkpoint`, got `{kind}`"
            )));
        }
        let schema = v.field("checkpoint_schema")?.as_u64()? as u32;
        if schema != CHECKPOINT_SCHEMA {
            return Err(JsonError::new(format!(
                "unsupported checkpoint_schema {schema} (expected {CHECKPOINT_SCHEMA})"
            )));
        }
        let events = |key: &str| -> Result<Vec<CkptEvent>, JsonError> {
            v.field(key)?
                .as_array()?
                .iter()
                .map(CkptEvent::from_json)
                .collect()
        };
        Ok(Checkpoint {
            schema,
            cluster: v.field("cluster")?.as_u64()? as u32,
            gvt: v.field("gvt")?.as_u64()?,
            values: logic_vec(v.field("values")?)?,
            pending: events("pending")?,
            tomb_remote: v
                .field("tomb_remote")?
                .as_array()?
                .iter()
                .map(|p| uint_pair(p).map(|(src, seq)| (src as u32, seq)))
                .collect::<Result<_, _>>()?,
            tomb_local: uint_vec(v.field("tomb_local")?)?,
            processed: events("processed")?,
            undo: v
                .field("undo")?
                .as_array()?
                .iter()
                .map(|u| {
                    let parts = u.as_array()?;
                    match parts {
                        [t, net, val] => {
                            Ok((t.as_u64()?, net.as_u64()? as u32, logic_from_json(val)?))
                        }
                        _ => Err(JsonError::new("undo entry must be [time, net, value]")),
                    }
                })
                .collect::<Result<_, _>>()?,
            snapshots: v
                .field("snapshots")?
                .as_array()?
                .iter()
                .map(|s| {
                    let parts = s.as_array()?;
                    match parts {
                        [t, vals] => Ok((t.as_u64()?, logic_vec(vals)?)),
                        _ => Err(JsonError::new("snapshot entry must be [time, values]")),
                    }
                })
                .collect::<Result<_, _>>()?,
            epochs_since_snapshot: v.field("epochs_since_snapshot")?.as_u64()? as u32,
            outlog: v
                .field("outlog")?
                .as_array()?
                .iter()
                .map(|o| {
                    let parts = o.as_array()?;
                    match parts {
                        [t, m] => Ok((t.as_u64()?, TwMessage::from_json(m)?)),
                        _ => Err(JsonError::new("outlog entry must be [time, message]")),
                    }
                })
                .collect::<Result<_, _>>()?,
            sched_log: v
                .field("sched_log")?
                .as_array()?
                .iter()
                .map(uint_pair)
                .collect::<Result<_, _>>()?,
            stim_cycle: v.field("stim_cycle")?.as_u64()?,
            last_time: v.field("last_time")?.as_u64()?,
            settled: v.field("settled")?.as_bool()?,
            order: v.field("order")?.as_u64()?,
            lseq: v.field("lseq")?.as_u64()?,
            mseq: v.field("mseq")?.as_u64()?,
            stats: SimStats::from_json(v.field("stats")?)?,
        })
    }
}

// --- delta checkpoint codec -------------------------------------------------

fn encode_undo_entry<S: JsonSink>(s: &mut S, &(t, net, val): &(VTime, u32, Logic)) {
    s.begin_array();
    s.uint(t);
    s.uint(net.into());
    encode_logic(s, val);
    s.end_array();
}

fn undo_entry_from(u: &Json) -> Result<(VTime, u32, Logic), JsonError> {
    match u.as_array()? {
        [t, net, val] => Ok((t.as_u64()?, net.as_u64()? as u32, logic_from_json(val)?)),
        _ => Err(JsonError::new("undo entry must be [time, net, value]")),
    }
}

fn encode_snapshot_entry<S: JsonSink>(s: &mut S, (t, vals): &(VTime, Vec<Logic>)) {
    s.begin_array();
    s.uint(*t);
    s.str(&logic_str(vals));
    s.end_array();
}

fn snapshot_entry_from(s: &Json) -> Result<(VTime, Vec<Logic>), JsonError> {
    match s.as_array()? {
        [t, vals] => Ok((t.as_u64()?, logic_vec(vals)?)),
        _ => Err(JsonError::new("snapshot entry must be [time, values]")),
    }
}

/// Compact array form of a [`CkptEvent`] used only inside delta artifacts,
/// where events are the bulk of the payload: `[time, net, "v", order]` for
/// stimulus events, plus a `"l", created_at, lseq` or `"r", src, seq` tail
/// for local and remote ones. The full-image codec keeps the verbose
/// object form — images are shipped rarely, deltas every round.
fn encode_event_compact<S: JsonSink>(s: &mut S, e: &CkptEvent) {
    s.begin_array();
    s.uint(e.time);
    s.uint(e.net.into());
    encode_logic(s, e.value);
    s.uint(e.order);
    match e.source {
        CkptSource::Stimulus => {}
        CkptSource::Local { created_at, lseq } => {
            s.str("l");
            s.uint(created_at);
            s.uint(lseq);
        }
        CkptSource::Remote { src, seq } => {
            s.str("r");
            s.uint(src.into());
            s.uint(seq);
        }
    }
    s.end_array();
}

fn ckpt_event_compact_from(v: &Json) -> Result<CkptEvent, JsonError> {
    let a = v.as_array()?;
    let source = match a {
        [_, _, _, _] => CkptSource::Stimulus,
        [_, _, _, _, tag, x, y] => match tag.as_str()? {
            "l" => CkptSource::Local {
                created_at: x.as_u64()?,
                lseq: y.as_u64()?,
            },
            "r" => CkptSource::Remote {
                src: x.as_u64()? as u32,
                seq: y.as_u64()?,
            },
            t => return Err(JsonError::new(format!("unknown event source tag `{t}`"))),
        },
        _ => {
            return Err(JsonError::new(
                "compact event must be [time, net, value, order, source...]",
            ))
        }
    };
    Ok(CkptEvent {
        time: a[0].as_u64()?,
        net: a[1].as_u64()? as u32,
        value: logic_from_json(&a[2])?,
        source,
        order: a[3].as_u64()?,
    })
}

/// Compact output-log entry for delta artifacts:
/// `[log_time, src, dst, seq, ev_time, net, "v", anti]`.
fn encode_outlog_compact<S: JsonSink>(s: &mut S, (t, m): &(VTime, TwMessage)) {
    s.begin_array();
    s.uint(*t);
    s.uint(m.src.into());
    s.uint(m.dst.into());
    s.uint(m.seq);
    s.uint(m.ev.time);
    s.uint(m.ev.net.0.into());
    encode_logic(s, m.ev.value);
    s.bool(m.anti);
    s.end_array();
}

fn outlog_compact_from(v: &Json) -> Result<(VTime, TwMessage), JsonError> {
    match v.as_array()? {
        [t, src, dst, seq, time, net, value, anti] => Ok((
            t.as_u64()?,
            TwMessage {
                src: src.as_u64()? as u32,
                dst: dst.as_u64()? as u32,
                seq: seq.as_u64()?,
                ev: NetEvent {
                    time: time.as_u64()?,
                    net: NetId(net.as_u64()? as u32),
                    value: logic_from_json(value)?,
                },
                anti: anti.as_bool()?,
            },
        )),
        _ => Err(JsonError::new(
            "compact outlog entry must be [t, src, dst, seq, time, net, value, anti]",
        )),
    }
}

/// A set edit under `key`, omitted when empty.
fn encode_set_edit<S: JsonSink, T>(s: &mut S, key: &str, items: &[T], enc: impl FnMut(&mut S, &T)) {
    if !items.is_empty() {
        encode_array(s.key(key), items, enc);
    }
}

/// A log edit under `key`, omitted when it is the `KEEP_ALL` identity.
fn encode_log_delta<S: JsonSink, T>(
    s: &mut S,
    key: &str,
    d: &LogDelta<T>,
    enc: impl FnMut(&mut S, &T),
) {
    if d.is_keep_all() {
        return;
    }
    s.key(key).begin_object();
    s.key("drop").uint(d.drop_front.into());
    s.key("keep").uint(d.keep.into());
    encode_array(s.key("append"), &d.append, enc);
    s.end_object();
}

fn log_delta_from<T>(
    v: &Json,
    dec: impl Fn(&Json) -> Result<T, JsonError>,
) -> Result<LogDelta<T>, JsonError> {
    Ok(LogDelta {
        drop_front: v.field("drop")?.as_u64()? as u32,
        keep: v.field("keep")?.as_u64()? as u32,
        append: v
            .field("append")?
            .as_array()?
            .iter()
            .map(dec)
            .collect::<Result<_, _>>()?,
    })
}

fn encode_values_delta<S: JsonSink>(s: &mut S, d: &ValuesDelta) {
    s.begin_object();
    match d {
        ValuesDelta::Full(vals) => s.key("full").str(&logic_str(vals)),
        ValuesDelta::Runs(runs) => encode_array(s.key("runs"), runs, |s, (start, vals)| {
            s.begin_array();
            s.uint((*start).into());
            s.str(&logic_str(vals));
            s.end_array();
        }),
    }
    s.end_object();
}

fn values_delta_from(v: &Json) -> Result<ValuesDelta, JsonError> {
    if let Some(full) = v.get("full") {
        return Ok(ValuesDelta::Full(logic_vec(full)?));
    }
    let runs = v
        .field("runs")?
        .as_array()?
        .iter()
        .map(|r| match r.as_array()? {
            [start, vals] => Ok((start.as_u64()? as u32, logic_vec(vals)?)),
            _ => Err(JsonError::new("values run must be [start, values]")),
        })
        .collect::<Result<_, _>>()?;
    Ok(ValuesDelta::Runs(runs))
}

impl JsonEncode for CheckpointDelta {
    /// Schema-versioned delta artifact (`kind: "tw_checkpoint_delta"`) —
    /// the edits against the previous round's image. Like the full image,
    /// the encoding is deterministic and lossless, and it doubles as the
    /// wire format: the process transport ships delta chains in `restore`
    /// frames and individual deltas in `ckpt_delta` replies.
    fn encode<S: JsonSink>(&self, s: &mut S) {
        // No-change fields are omitted entirely — a delta's cost should
        // track what actually changed, not the number of fields in the
        // image. Absent set edits mean empty, an absent `values` field
        // means no net changed, and an absent log field is the `KEEP_ALL`
        // identity edit. The emission is still a deterministic function of
        // the delta, so byte-identity comparisons stay valid.
        s.begin_object();
        s.key("schema_version").int(SCHEMA_VERSION);
        s.key("kind").str("tw_checkpoint_delta");
        s.key("checkpoint_schema").uint(self.schema.into());
        s.key("cluster").uint(self.cluster.into());
        s.key("base_gvt").uint(self.base_gvt);
        s.key("gvt").uint(self.gvt);
        if !matches!(&self.values, ValuesDelta::Runs(runs) if runs.is_empty()) {
            encode_values_delta(s.key("values"), &self.values);
        }
        let pair = |s: &mut S, &(a, b): &(u64, u64)| encode_uint_pair(s, a, b);
        let remote = |s: &mut S, &(src, seq): &(u32, u64)| encode_uint_pair(s, src.into(), seq);
        let local = |s: &mut S, &n: &u64| s.uint(n);
        encode_set_edit(s, "pending_removed", &self.pending_removed, pair);
        encode_set_edit(
            s,
            "pending_added",
            &self.pending_added,
            encode_event_compact,
        );
        encode_set_edit(s, "tomb_remote_removed", &self.tomb_remote_removed, remote);
        encode_set_edit(s, "tomb_remote_added", &self.tomb_remote_added, remote);
        encode_set_edit(s, "tomb_local_removed", &self.tomb_local_removed, local);
        encode_set_edit(s, "tomb_local_added", &self.tomb_local_added, local);
        encode_log_delta(s, "processed", &self.processed, encode_event_compact);
        encode_log_delta(s, "undo", &self.undo, encode_undo_entry);
        encode_log_delta(s, "snapshots", &self.snapshots, encode_snapshot_entry);
        encode_log_delta(s, "outlog", &self.outlog, encode_outlog_compact);
        encode_log_delta(s, "sched_log", &self.sched_log, pair);
        s.key("epochs_since_snapshot")
            .uint(self.epochs_since_snapshot.into());
        s.key("stim_cycle").uint(self.stim_cycle);
        s.key("last_time").uint(self.last_time);
        s.key("settled").bool(self.settled);
        s.key("order").uint(self.order);
        s.key("lseq").uint(self.lseq);
        s.key("mseq").uint(self.mseq);
        self.stats.encode(s.key("stats"));
        s.end_object();
    }
}

impl ToJson for CheckpointDelta {
    fn to_json(&self) -> Json {
        self.encode_tree()
    }
}

impl FromJson for CheckpointDelta {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let version = v.field("schema_version")?.as_i64()?;
        if version != SCHEMA_VERSION {
            return Err(JsonError::new(format!(
                "unsupported schema_version {version} (expected {SCHEMA_VERSION})"
            )));
        }
        let kind = v.field("kind")?.as_str()?;
        if kind != "tw_checkpoint_delta" {
            return Err(JsonError::new(format!(
                "expected kind `tw_checkpoint_delta`, got `{kind}`"
            )));
        }
        let schema = v.field("checkpoint_schema")?.as_u64()? as u32;
        if schema != CHECKPOINT_SCHEMA {
            return Err(JsonError::new(format!(
                "unsupported checkpoint_schema {schema} (expected {CHECKPOINT_SCHEMA})"
            )));
        }
        // Absent fields are the no-change defaults the serializer elided:
        // empty set edits, the empty-runs values edit, `KEEP_ALL` log edits.
        let tomb_remote = |key: &str| -> Result<Vec<(u32, u64)>, JsonError> {
            match v.get(key) {
                None => Ok(Vec::new()),
                Some(a) => a
                    .as_array()?
                    .iter()
                    .map(|p| uint_pair(p).map(|(src, seq)| (src as u32, seq)))
                    .collect(),
            }
        };
        let tomb_local = |key: &str| -> Result<Vec<u64>, JsonError> {
            match v.get(key) {
                None => Ok(Vec::new()),
                Some(a) => uint_vec(a),
            }
        };
        fn log_opt<T>(
            v: &Json,
            key: &str,
            dec: impl Fn(&Json) -> Result<T, JsonError>,
        ) -> Result<LogDelta<T>, JsonError> {
            match v.get(key) {
                None => Ok(LogDelta::keep_all()),
                Some(d) => log_delta_from(d, dec),
            }
        }
        Ok(CheckpointDelta {
            schema,
            cluster: v.field("cluster")?.as_u64()? as u32,
            base_gvt: v.field("base_gvt")?.as_u64()?,
            gvt: v.field("gvt")?.as_u64()?,
            values: match v.get("values") {
                None => ValuesDelta::Runs(Vec::new()),
                Some(d) => values_delta_from(d)?,
            },
            pending_removed: match v.get("pending_removed") {
                None => Vec::new(),
                Some(a) => a
                    .as_array()?
                    .iter()
                    .map(uint_pair)
                    .collect::<Result<_, _>>()?,
            },
            pending_added: match v.get("pending_added") {
                None => Vec::new(),
                Some(a) => a
                    .as_array()?
                    .iter()
                    .map(ckpt_event_compact_from)
                    .collect::<Result<_, _>>()?,
            },
            tomb_remote_removed: tomb_remote("tomb_remote_removed")?,
            tomb_remote_added: tomb_remote("tomb_remote_added")?,
            tomb_local_removed: tomb_local("tomb_local_removed")?,
            tomb_local_added: tomb_local("tomb_local_added")?,
            processed: log_opt(v, "processed", ckpt_event_compact_from)?,
            undo: log_opt(v, "undo", undo_entry_from)?,
            snapshots: log_opt(v, "snapshots", snapshot_entry_from)?,
            epochs_since_snapshot: v.field("epochs_since_snapshot")?.as_u64()? as u32,
            outlog: log_opt(v, "outlog", outlog_compact_from)?,
            sched_log: log_opt(v, "sched_log", uint_pair)?,
            stim_cycle: v.field("stim_cycle")?.as_u64()?,
            last_time: v.field("last_time")?.as_u64()?,
            settled: v.field("settled")?.as_bool()?,
            order: v.field("order")?.as_u64()?,
            lseq: v.field("lseq")?.as_u64()?,
            mseq: v.field("mseq")?.as_u64()?,
            stats: SimStats::from_json(v.field("stats")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats() -> SimStats {
        SimStats {
            events: 101,
            gate_evals: 99,
            net_toggles: 55,
            cycles: 40,
            end_time: 400,
            messages: 12,
            anti_messages: 3,
            rollbacks: 2,
            rolled_back_events: 7,
            gvt_rounds: 9,
            fossil_collected: 88,
        }
    }

    #[test]
    fn sim_stats_round_trip_is_exact() {
        let s = sample_stats();
        let text = s.to_json().emit().unwrap();
        let back = SimStats::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn sim_stats_missing_field_is_an_error() {
        let mut v = sample_stats().to_json();
        if let Json::Object(members) = &mut v {
            members.retain(|(k, _)| k != "rollbacks");
        }
        let err = SimStats::from_json(&v).unwrap_err();
        assert!(err.msg.contains("rollbacks"), "{err}");
    }

    #[test]
    fn recovery_outcome_round_trips_and_tolerates_missing_victims() {
        let r = RecoveryOutcome {
            crashes: 3,
            restarts: 2,
            replayed_ops: 17,
            victims: vec![1, 1, 0],
            checkpoint_bytes_full: 4096,
            checkpoint_bytes_delta: 512,
            corrupt_frames: 2,
            heartbeats_missed: 30,
            chaos_faults_injected: 1,
            messages_sent: 4111,
            frames_sent: 207,
            messages_folded: 18,
            degraded: false,
        };
        let text = r.to_json().emit().unwrap();
        let back = RecoveryOutcome::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);

        // Artifacts written before the victim list existed have no
        // `victims` key; they read back with an empty list. Likewise the
        // batching counters read back as zero when absent.
        let mut v = r.to_json();
        if let Json::Object(members) = &mut v {
            members.retain(|(k, _)| k != "victims" && k != "frames_sent");
        }
        let back = RecoveryOutcome::from_json(&v).unwrap();
        assert!(back.victims.is_empty());
        assert_eq!(back.frames_sent, 0);
        assert_eq!(back.messages_sent, 4111);
        assert_eq!(back.crashes, 3);
    }

    fn sample_delta() -> CheckpointDelta {
        CheckpointDelta {
            schema: CHECKPOINT_SCHEMA,
            cluster: 2,
            base_gvt: 120,
            gvt: 140,
            values: ValuesDelta::Runs(vec![
                (3, vec![Logic::One, Logic::Zero]),
                (9, vec![Logic::Z]),
            ]),
            pending_removed: vec![(121, 11)],
            pending_added: vec![CkptEvent {
                time: 144,
                net: 6,
                value: Logic::One,
                source: CkptSource::Remote { src: 1, seq: 9 },
                order: 31,
            }],
            tomb_remote_removed: vec![(0, 5)],
            tomb_remote_added: vec![(1, 8), (1, 9)],
            tomb_local_removed: vec![2],
            tomb_local_added: vec![7, 9],
            processed: LogDelta {
                drop_front: 2,
                keep: 1,
                append: vec![CkptEvent {
                    time: 133,
                    net: 2,
                    value: Logic::Zero,
                    source: CkptSource::Local {
                        created_at: 130,
                        lseq: 4,
                    },
                    order: 19,
                }],
            },
            undo: LogDelta {
                drop_front: 0,
                keep: 0,
                append: vec![(131, 5, Logic::One)],
            },
            snapshots: LogDelta {
                drop_front: 1,
                keep: 2,
                append: vec![(140, vec![Logic::Zero, Logic::X])],
            },
            epochs_since_snapshot: 3,
            outlog: LogDelta {
                drop_front: 4,
                keep: 0,
                append: vec![(
                    139,
                    TwMessage {
                        src: 2,
                        dst: 0,
                        seq: 77,
                        ev: NetEvent {
                            time: 141,
                            net: NetId(12),
                            value: Logic::One,
                        },
                        anti: false,
                    },
                )],
            },
            sched_log: LogDelta {
                drop_front: 0,
                keep: 3,
                append: vec![(138, 21)],
            },
            stim_cycle: 14,
            last_time: 151,
            settled: true,
            order: 64,
            lseq: 22,
            mseq: 78,
            stats: sample_stats(),
        }
    }

    #[test]
    fn checkpoint_delta_round_trip_is_exact() {
        let d = sample_delta();
        let text = d.to_json().emit().unwrap();
        let back = CheckpointDelta::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, d);

        // A dense edit serialises as a full-vector replacement and must
        // round-trip through the `full` arm too.
        let mut dense = d;
        dense.values = ValuesDelta::Full(vec![Logic::One, Logic::Z, Logic::X]);
        let text = dense.to_json().emit().unwrap();
        let back = CheckpointDelta::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, dense);
    }

    #[test]
    fn checkpoint_delta_elides_no_change_fields() {
        // A quiet round — nothing changed except the scalar cursors. The
        // emission must omit every set, values, and log field, and read
        // back as the same identity edits.
        let mut d = sample_delta();
        d.values = ValuesDelta::Runs(Vec::new());
        d.pending_removed.clear();
        d.pending_added.clear();
        d.tomb_remote_removed.clear();
        d.tomb_remote_added.clear();
        d.tomb_local_removed.clear();
        d.tomb_local_added.clear();
        d.processed = LogDelta::keep_all();
        d.undo = LogDelta::keep_all();
        d.snapshots = LogDelta::keep_all();
        d.outlog = LogDelta::keep_all();
        d.sched_log = LogDelta::keep_all();
        let v = d.to_json();
        for elided in [
            "values",
            "pending_removed",
            "pending_added",
            "tomb_remote_removed",
            "tomb_remote_added",
            "tomb_local_removed",
            "tomb_local_added",
            "processed",
            "undo",
            "snapshots",
            "outlog",
            "sched_log",
        ] {
            assert!(v.get(elided).is_none(), "`{elided}` should be elided");
        }
        let text = v.emit().unwrap();
        let back = CheckpointDelta::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn checkpoint_delta_rejects_wrong_kind_and_schema() {
        let d = sample_delta();

        let mut v = d.to_json();
        if let Json::Object(members) = &mut v {
            for (k, val) in members.iter_mut() {
                if k == "kind" {
                    *val = Json::Str("tw_checkpoint".into());
                }
            }
        }
        let err = CheckpointDelta::from_json(&v).unwrap_err();
        assert!(err.msg.contains("tw_checkpoint_delta"), "{err}");

        let mut v = d.to_json();
        if let Json::Object(members) = &mut v {
            for (k, val) in members.iter_mut() {
                if k == "checkpoint_schema" {
                    *val = Json::Int(999);
                }
            }
        }
        let err = CheckpointDelta::from_json(&v).unwrap_err();
        assert!(err.msg.contains("checkpoint_schema"), "{err}");
    }
}
