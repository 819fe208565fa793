//! The four workloads. Each one sets its inputs up from the workload seed,
//! then repeats the measured call — either `Flow::run` or `run_timewarp` —
//! until the run's time is spent, checking every result, with timed set-ups
//! between the calls (for `setup_s`). The netlist is the same for every
//! seed; the stimulus, partitioner and scheduler seeds derive from it.

use crate::trace::Tracer;
use crate::{median, peak_rss_mb, Args, Outcome};
use dvs_core::multiway::{partition_multiway, MultiwayConfig, MultiwayResult};
use dvs_core::{tw_run_canonical_json, Flow, FlowBuilder, FlowReport, Parallelism, Search};
use dvs_sim::cluster::ClusterPlan;
use dvs_sim::cluster_model::{ClusterModel, ClusterModelConfig};
use dvs_sim::logic::Logic;
use dvs_sim::seq::{NullObserver, SeqSim, SimConfig};
use dvs_sim::stimulus::VectorStimulus;
use dvs_sim::timewarp::{
    run_timewarp, BatchPolicy, CheckpointCadence, SchedulePolicy, TimeWarpConfig, Transport,
    TwRunResult,
};
use dvs_verilog::Netlist;
use dvs_workloads::viterbi::{generate_viterbi, ViterbiParams};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Partition count: at most 2 clusters, so at most 2 worker threads or TCP
/// connections on a 2-core host.
const K: u32 = 2;
/// Balance factor in percent.
const B: f64 = 10.0;
/// Vector period in gate delays.
const PERIOD: u64 = 10;
/// Timed set-ups before each measured call; `setup_s` is their median.
const SETUPS_PER_CALL: usize = 2;
/// Measured calls per run at the least, however long each takes.
const MIN_SAMPLES: u64 = 3;
/// Time Warp vectors per measured call.
const TW_VECTORS: u64 = 300;
/// Repetitions of each differential leg of the traced pass.
const DIFF_REPS: usize = 3;
/// `flow_presim` vector counts: presim : full ≈ 1 : 10.
const FLOW_PRESIM_VECTORS: u64 = 500;
const FLOW_FULL_VECTORS: u64 = 5_000;
/// Heuristic search range (paper Fig. 3) and search threads.
const FLOW_MAX_K: u32 = 4;
const FLOW_THREADS: usize = 2;

/// The Time Warp demo shape: a constraint-length-6 Viterbi decoder, 6,126
/// gates, trellis-coupled so that every vector crosses the cut.
fn decoder_params() -> ViterbiParams {
    ViterbiParams {
        constraint_len: 6,
        ..ViterbiParams::paper_class()
    }
}

/// Seeds of the layers, derived from the workload seed.
#[derive(Debug, Clone, Copy)]
struct Seeds {
    stim: u64,
    part: u64,
    sched: u64,
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Seeds {
    fn from_workload_seed(seed: u64) -> Self {
        Seeds {
            stim: splitmix(seed ^ 0x5717),
            part: splitmix(seed ^ 0xBA27),
            sched: splitmix(seed ^ 0x5C4E),
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let seeds = Seeds::from_workload_seed(args.seed);
    match args.workload.as_str() {
        "flow_presim" => run_flow(args, seeds),
        name => run_timewarp_workload(args, seeds, &TwSpec::named(name)?),
    }
}

/// The calibration kernel's host time on the host this benchmark was tuned
/// on (a 2-vCPU Xeon virtual machine), in seconds. Adjusted times are host
/// seconds scaled by this over the run's median calibration time, so they
/// read as seconds on that host.
const CALIBRATION_REF_S: f64 = 0.012;
/// Calibrations just before the set-ups and just after each measured call.
const CALIBRATIONS: usize = 2;

/// A fixed piece of work owned by the benchmark, timed next to every
/// measured call to track the host's speed. On a shared virtual machine the
/// host's speed drifts by up to 40 % over minutes, moving every timing with
/// it; string keys in an ordered map and sorting an L2-sized array follow
/// that drift about as the library's own code does. No library code runs
/// here, so no change to the library moves it.
fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x = 0x1234u64;
    let mut map: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for i in 0..20_000u64 {
        x = splitmix(x);
        map.entry(format!("net{}", x % 4096)).or_default().push(i);
    }
    let mut v: Vec<u64> = Vec::with_capacity(1 << 15);
    for _ in 0..6 {
        v.clear();
        for _ in 0..(1 << 15) {
            x = splitmix(x);
            v.push(x);
        }
        v.sort_unstable();
    }
    std::hint::black_box((&map, &v));
    t.elapsed().as_secs_f64()
}

/// Host times of one run: set-ups, measured calls and calibrations.
#[derive(Default)]
struct Samples {
    setup: Vec<f64>,
    untraced: Vec<f64>,
    traced: Vec<f64>,
    calibration: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Samples {
    fn calibrate(&mut self) {
        for _ in 0..CALIBRATIONS {
            self.calibration.push(calibrate());
        }
    }

    fn calibration_s(&self) -> f64 {
        median(&mut self.calibration.clone())
    }

    /// Scale host seconds measured in this run to the reference host's speed.
    fn adjusted(&self, seconds: f64) -> f64 {
        seconds * CALIBRATION_REF_S / self.calibration_s()
    }

    /// Median host seconds of the untraced calls (all calls when none was).
    fn raw_wall_s(&self) -> f64 {
        let mut v = if self.untraced.is_empty() {
            self.traced.clone()
        } else {
            self.untraced.clone()
        };
        median(&mut v)
    }

    fn wall_s(&self) -> f64 {
        self.adjusted(self.raw_wall_s())
    }

    fn max(&self) -> f64 {
        let raw = self
            .untraced
            .iter()
            .chain(&self.traced)
            .copied()
            .fold(f64::MIN, f64::max);
        self.adjusted(raw)
    }

    /// Traced minus untraced median adjusted time of the measured call.
    fn tracing_overhead(&self) -> f64 {
        if self.traced.is_empty() || self.untraced.is_empty() {
            return 0.0;
        }
        self.adjusted(median(&mut self.traced.clone()) - median(&mut self.untraced.clone()))
    }

    fn setup_s(&self) -> f64 {
        self.adjusted(median(&mut self.setup.clone()))
    }

    fn ok_frac(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

/// Repeat the measured call until `args.seconds` have passed and at least
/// [`MIN_SAMPLES`] calls were made. Before each call, `setup` runs
/// [`SETUPS_PER_CALL`] times, timed, so that set-up samples spread over the
/// whole run like the calls do; the calls themselves reuse inputs the
/// caller set up once, which are identical. The calibration kernel runs
/// just before the set-ups and just after the call. `accept` checks each
/// result outside the timed interval; an `Err` from `call` or `accept`
/// counts the call as failed. In a traced run every other call runs with
/// tracing off, which gives the tracing overhead.
fn measure<R>(
    args: &Args,
    tr: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer) -> Result<(), String>,
    span: &'static str,
    mut call: impl FnMut() -> Result<R, String>,
    mut accept: impl FnMut(&mut Tracer, R) -> Result<(), String>,
) -> Result<Samples, String> {
    let start = Instant::now();
    let mut s = Samples::default();
    while s.attempted < MIN_SAMPLES || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && s.attempted % 2 == 0;
        tr.set_enabled(traced);
        tr.begin_run(format!("iter{}", s.attempted));
        s.calibrate();
        for _ in 0..SETUPS_PER_CALL {
            let t = Instant::now();
            tr.span("bench.setup", &mut setup)?;
            s.setup.push(t.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        let result = tr.span(span, |_| call());
        let wall = t.elapsed().as_secs_f64();
        s.calibrate();
        if let Err(e) = result.and_then(|r| tr.span("bench.check", |tr| accept(tr, r))) {
            eprintln!("perfbench: {span} call {} failed: {e}", s.attempted);
            s.failed += 1;
        }
        if traced {
            s.traced.push(wall);
        } else {
            s.untraced.push(wall);
        }
        s.attempted += 1;
    }
    tr.set_enabled(args.trace);
    let mut walls: Vec<f64> = s.untraced.iter().chain(&s.traced).copied().collect();
    let mid = median(&mut walls);
    eprintln!(
        "perfbench: {span}: {} calls, {} failed, host seconds min {:.4} median {mid:.4} \
         max {:.4}; calibration median {:.5} s; adjusted median {:.4} s",
        s.attempted,
        s.failed,
        walls[0],
        walls[walls.len() - 1],
        s.calibration_s(),
        s.adjusted(mid),
    );
    Ok(s)
}

/// Per-key median over per-call metric maps.
fn median_of(maps: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut by_key: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for m in maps {
        for (k, v) in m {
            by_key.entry(k).or_default().push(*v);
        }
    }
    by_key
        .into_iter()
        .map(|(k, mut v)| (k, median(&mut v)))
        .collect()
}

/// Layer times taken from the spans: the median self time of each span
/// name that maps to a metric.
fn span_times(tr: &Tracer, names: &[(&'static str, &'static str)]) -> BTreeMap<&'static str, f64> {
    let times = tr.median_self_times();
    names
        .iter()
        .map(|(span, metric)| (*metric, times.get(span).copied().unwrap_or(0.0)))
        .collect()
}

/// The final value of every driven net after a sequential run: the oracle
/// every Time Warp result is compared against, bit for bit.
pub struct Reference {
    nets: usize,
    driven: Vec<(usize, Logic)>,
    events: u64,
}

impl Reference {
    pub fn new(nl: &Netlist, stim: &VectorStimulus, vectors: u64) -> Self {
        let mut seq = SeqSim::new(
            nl,
            &SimConfig {
                cycles: vectors,
                init_zero: true,
            },
        );
        seq.run(stim, vectors, &mut NullObserver);
        let driven = nl
            .nets
            .iter()
            .enumerate()
            .filter(|(_, net)| net.driver.is_some())
            .map(|(i, _)| (i, seq.value(dvs_verilog::NetId(i as u32))))
            .collect();
        Reference {
            nets: nl.net_count(),
            driven,
            events: seq.stats().events,
        }
    }

    /// Why `r` is not a correct result, if it is not.
    pub fn check(&self, r: &TwRunResult) -> Result<(), String> {
        if r.recovery.degraded {
            return Err("run degraded to the sequential simulator".into());
        }
        if r.values.len() != self.nets {
            return Err(format!(
                "{} net values for {} nets",
                r.values.len(),
                self.nets
            ));
        }
        let wrong = self
            .driven
            .iter()
            .filter(|&&(i, v)| r.values[i] != v)
            .count();
        if wrong > 0 {
            return Err(format!(
                "{wrong} of {} driven nets differ from the sequential simulator",
                self.driven.len()
            ));
        }
        Ok(())
    }
}

/// One Time Warp workload's kernel configuration.
struct TwSpec {
    transport: fn(&Seeds) -> Result<Transport, String>,
    /// Run the supervisor and its workers on one CPU (see [`pin_to_one_cpu`]).
    one_cpu: bool,
    cadence: u32,
    batching: BatchPolicy,
}

fn in_proc(seeds: &Seeds) -> Result<Transport, String> {
    Ok(Transport::in_proc(seeds.sched, SchedulePolicy::RoundRobin))
}

/// TCP on localhost, with this binary as the worker (see `main`).
fn tcp(seeds: &Seeds) -> Result<Transport, String> {
    let exe: PathBuf =
        std::env::current_exe().map_err(|e| format!("locating the worker binary: {e}"))?;
    Ok(Transport::tcp_with_worker(
        seeds.sched,
        SchedulePolicy::RoundRobin,
        exe,
    ))
}

fn threads(_: &Seeds) -> Result<Transport, String> {
    Ok(Transport::Threads)
}

impl TwSpec {
    fn named(name: &str) -> Result<TwSpec, String> {
        Ok(match name {
            "tw_inproc_ckpt" => TwSpec {
                transport: in_proc,
                one_cpu: false,
                cadence: 8,
                batching: BatchPolicy::Off,
            },
            "tw_tcp_batched" => TwSpec {
                transport: tcp,
                one_cpu: true,
                cadence: 8,
                batching: BatchPolicy::per_quantum(),
            },
            "tw_threads" => TwSpec {
                transport: threads,
                one_cpu: false,
                cadence: 1,
                batching: BatchPolicy::Off,
            },
            other => return Err(format!("no Time Warp workload named `{other}`")),
        })
    }

    fn config(&self, transport: Transport, cadence: u32) -> Result<TimeWarpConfig, String> {
        TimeWarpConfig::builder()
            .transport(transport)
            .checkpoint_cadence(CheckpointCadence::every_n_rounds(cadence))
            .message_batching(self.batching)
            .build()
            .map_err(|e| e.to_string())
    }
}

struct TwInputs {
    nl: Netlist,
    part: MultiwayResult,
    plan: ClusterPlan,
    stim: VectorStimulus,
}

fn tw_setup(seeds: &Seeds, tr: &mut Tracer) -> Result<TwInputs, String> {
    let src = tr.span(
        "workloads.generate",
        |_| generate_viterbi(&decoder_params()),
    );
    let nl = tr
        .span("verilog.parse_elaborate", |_| {
            dvs_verilog::parse_and_elaborate(&src)
        })
        .map_err(|e| e.to_string())?
        .into_netlist();
    let mcfg = MultiwayConfig {
        seed: seeds.part,
        ..MultiwayConfig::new(K, B)
    };
    let part = tr.span("multiway.partition", |_| partition_multiway(&nl, &mcfg));
    let plan = tr.span("cluster.plan", |_| {
        ClusterPlan::new(&nl, &part.gate_blocks, K as usize)
    });
    let stim = tr.span("sim.stimulus", |_| {
        VectorStimulus::from_netlist(&nl, PERIOD, seeds.stim)
    });
    Ok(TwInputs {
        nl,
        part,
        plan,
        stim,
    })
}

/// The counters of one Time Warp result that the per-layer report carries.
fn tw_counters(r: &TwRunResult) -> BTreeMap<&'static str, f64> {
    let s = &r.stats;
    let rec = &r.recovery;
    let per_frame = if rec.frames_sent == 0 {
        0.0
    } else {
        rec.messages_sent as f64 / rec.frames_sent as f64
    };
    BTreeMap::from([
        ("timewarp.events", s.events as f64),
        ("timewarp.rolled_back_events", s.rolled_back_events as f64),
        ("timewarp.rollbacks", s.rollbacks as f64),
        ("timewarp.messages", s.messages as f64),
        ("timewarp.anti_messages", s.anti_messages as f64),
        ("timewarp.gvt_rounds", r.gvt_rounds as f64),
        ("timewarp.fossil_collected", s.fossil_collected as f64),
        ("checkpoint.bytes_full", rec.checkpoint_bytes_full as f64),
        ("checkpoint.bytes_delta", rec.checkpoint_bytes_delta as f64),
        ("wire.messages_sent", rec.messages_sent as f64),
        ("wire.frames_sent", rec.frames_sent as f64),
        ("wire.msgs_per_frame", per_frame),
        ("threads.messages_folded", rec.messages_folded as f64),
        ("recovery.crashes", rec.crashes as f64),
        ("recovery.restarts", rec.restarts as f64),
        ("recovery.degraded", f64::from(u8::from(rec.degraded))),
    ])
}

/// Counters that must agree between two deterministic transports.
fn identity_counters(r: &TwRunResult) -> BTreeMap<&'static str, f64> {
    let mut c = tw_counters(r);
    c.retain(|k, _| k.starts_with("timewarp.") || k.starts_with("checkpoint."));
    c
}

/// Run a differential configuration [`DIFF_REPS`] times under a span;
/// returns the median adjusted time and the last result, which must be
/// correct.
fn differential(
    tr: &mut Tracer,
    span: &'static str,
    inp: &TwInputs,
    reference: &Reference,
    cfg: &TimeWarpConfig,
) -> Result<(f64, TwRunResult), String> {
    let mut samples = Samples::default();
    let mut last = None;
    for rep in 0..DIFF_REPS {
        tr.begin_run(format!("{span}{rep}"));
        samples.calibrate();
        let t = Instant::now();
        let r = tr
            .span(span, |_| {
                run_timewarp(&inp.nl, &inp.plan, &inp.stim, TW_VECTORS, cfg)
            })
            .map_err(|e| format!("{span}: {e}"))?;
        samples.untraced.push(t.elapsed().as_secs_f64());
        samples.calibrate();
        reference.check(&r).map_err(|e| format!("{span}: {e}"))?;
        last = Some(r);
    }
    let last = last.ok_or("no differential run")?;
    Ok((samples.wall_s(), last))
}

/// Restrict this thread, and every thread and process it starts later (they
/// inherit the mask), to the lowest-numbered CPU it may run on.
///
/// The deterministic TCP supervisor drives one worker at a time, so one CPU
/// costs it no parallelism. On two CPUs each command round trip instead
/// waits for a cross-CPU wake-up, whose latency on a virtual machine varies
/// by tens of percent from minute to minute and swamps the code's own cost.
fn pin_to_one_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // glibc's `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, the size
    // of `cpu_set_t`, that outlives the call; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..mask.len() * 64)
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("the CPU affinity mask is empty")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes that
    // outlives the call; pid 0 is the calling thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

fn run_timewarp_workload(args: &Args, seeds: Seeds, spec: &TwSpec) -> Result<Outcome, String> {
    if spec.one_cpu {
        let cpu = pin_to_one_cpu()?;
        eprintln!("perfbench: supervisor and workers pinned to CPU {cpu}");
    }
    let mut tr = Tracer::new(args.trace);
    tr.begin_run("inputs".into());
    let inp = tr.span("bench.setup", |tr| tw_setup(&seeds, tr))?;
    let gates = inp.nl.gate_count();

    tr.begin_run("reference".into());
    let t = Instant::now();
    let reference = tr.span("seq.run", |_| {
        Reference::new(&inp.nl, &inp.stim, TW_VECTORS)
    });
    let seq_s = t.elapsed().as_secs_f64();
    let model = tr.span("cluster_model.run", |_| {
        ClusterModel::new(
            &inp.nl,
            inp.plan.clone(),
            ClusterModelConfig::athlon_cluster(gates),
        )
        .run(&inp.stim, TW_VECTORS)
    });

    let cfg = spec.config((spec.transport)(&seeds)?, spec.cadence)?;
    let mut counters = Vec::new();
    let mut canonical_bytes = 0usize;
    let mut last = None;
    let samples = measure(
        args,
        &mut tr,
        |tr| tw_setup(&seeds, tr).map(drop),
        "timewarp.run",
        || run_timewarp(&inp.nl, &inp.plan, &inp.stim, TW_VECTORS, &cfg).map_err(|e| e.to_string()),
        |tr, r| {
            reference.check(&r)?;
            canonical_bytes = tr
                .span("json.canonical", |_| tw_run_canonical_json(&r).emit())
                .map_err(|e| e.to_string())?
                .len();
            counters.push(tw_counters(&r));
            last = Some(r);
            Ok(())
        },
    )?;
    let wall_s = samples.wall_s();

    let mut correct = true;
    let mut layers = BTreeMap::new();
    if args.trace {
        let last = last.ok_or("no measured call succeeded")?;
        // The untracked twin and the in-process twin are timed against
        // the untraced calls of the measured loop.
        if spec.cadence > 1 && matches!(cfg.transport, Transport::InProc { .. }) {
            // Cadence 1 with no fault armed turns checkpoint tracking off.
            let untracked = spec.config(in_proc(&seeds)?, 1)?;
            let (t, _) = differential(
                &mut tr,
                "timewarp.run_untracked",
                &inp,
                &reference,
                &untracked,
            )?;
            layers.insert("checkpoint.tracked_over_untracked", wall_s / t);
        }
        if matches!(cfg.transport, Transport::Tcp { .. }) {
            let twin = spec.config(in_proc(&seeds)?, spec.cadence)?;
            let (t, r) =
                differential(&mut tr, "timewarp.run_inproc_twin", &inp, &reference, &twin)?;
            layers.insert("wire.over_inproc", wall_s / t);
            let bytes =
                |r: &TwRunResult| tw_run_canonical_json(r).emit().map_err(|e| e.to_string());
            let same_bytes = bytes(&r)? == bytes(&last)?;
            let same_counters = identity_counters(&r) == identity_counters(&last);
            if same_bytes && same_counters {
                eprintln!("perfbench: transport identity holds: TCP == InProc twin, byte for byte");
            } else {
                eprintln!(
                    "perfbench: transport identity broken: TCP and its InProc twin differ \
                     (artifact equal: {same_bytes}, counters equal: {same_counters})"
                );
                correct = false;
            }
        }
        layers.extend(median_of(&counters));
        layers.extend(span_times(
            &tr,
            &[
                ("workloads.generate", "workloads.generate_s"),
                ("verilog.parse_elaborate", "verilog.parse_elaborate_s"),
                ("multiway.partition", "multiway.partition_s"),
                ("cluster.plan", "cluster.plan_s"),
                ("json.canonical", "json.canonical_s"),
            ],
        ));
        let committed = reference.events as f64;
        let tw_events = layers.get("timewarp.events").copied().unwrap_or(0.0);
        layers.extend([
            ("bench.samples", samples.attempted as f64),
            ("bench.wall_s_max", samples.max()),
            ("bench.raw_wall_s", samples.raw_wall_s()),
            ("bench.calibration_s", samples.calibration_s()),
            ("verilog.gates", gates as f64),
            ("multiway.cone_s", inp.part.cone_seconds),
            ("multiway.refine_s", inp.part.refine_seconds),
            ("multiway.flattens", inp.part.flattens as f64),
            ("multiway.fm_rounds", inp.part.fm_rounds as f64),
            ("cluster.cut_nets", inp.plan.cut_nets() as f64),
            ("cluster.channels", inp.plan.channel_count() as f64),
            ("seq.run_s", seq_s),
            ("seq.events", committed),
            ("seq.events_per_s", committed / seq_s),
            (
                "timewarp.committed_ratio",
                if tw_events > 0.0 {
                    committed / tw_events
                } else {
                    0.0
                },
            ),
            ("timewarp.over_seq", samples.raw_wall_s() / seq_s),
            ("json.canonical_bytes", canonical_bytes as f64),
            ("trace.overhead_s", samples.tracing_overhead()),
        ]);
    }

    let end_to_end = BTreeMap::from([
        ("setup_s", samples.setup_s()),
        ("wall_s", wall_s),
        ("events_per_s", reference.events as f64 / wall_s),
        ("peak_rss_mb", peak_rss_mb()?),
        ("ok_frac", samples.ok_frac()),
        ("cut", inp.part.cut as f64),
        ("modeled_speedup", model.speedup),
    ]);
    Ok(Outcome {
        correct,
        attempted: samples.attempted,
        failed: samples.failed,
        end_to_end,
        layers,
        tracer: tr,
    })
}

fn flow_builder<'a>(src: &'a str, seeds: &Seeds) -> FlowBuilder<'a> {
    FlowBuilder::from_source(src)
        .search(Search::Heuristic { max_k: FLOW_MAX_K })
        .parallelism(Parallelism::Threads(FLOW_THREADS))
        .presim_vectors(FLOW_PRESIM_VECTORS)
        .full_vectors(FLOW_FULL_VECTORS)
        .stim_seed(seeds.stim)
        .part_seed(seeds.part)
}

/// The host-time and counter layers one `Flow::run` reports about itself.
fn flow_layers(r: &FlowReport) -> BTreeMap<&'static str, f64> {
    let m = &r.metrics;
    BTreeMap::from([
        (
            "multiway.partition_s",
            r.presim_points
                .iter()
                .map(|p| p.timing.partition_seconds)
                .sum(),
        ),
        ("multiway.cone_s", m.cone_partition_seconds),
        ("multiway.refine_s", m.pairwise_refine_seconds),
        ("multiway.flattens", m.flatten_events as f64),
        ("multiway.fm_rounds", m.fm_passes as f64),
        ("presim.search_s", m.search_seconds),
        ("presim.points", m.presim_runs as f64),
        (
            "presim.point_s_max",
            m.point_costs.iter().map(|c| c.seconds).fold(0.0, f64::max),
        ),
        ("engine.workers", m.search_workers as f64),
        ("cluster_model.full_run_s", m.full_run_seconds),
    ])
}

fn run_flow(args: &Args, seeds: Seeds) -> Result<Outcome, String> {
    let mut tr = Tracer::new(args.trace);
    let set_up = |tr: &mut Tracer| -> Result<String, String> {
        let src = tr.span(
            "workloads.generate",
            |_| generate_viterbi(&decoder_params()),
        );
        tr.span("flow.build", |_| flow_builder(&src, &seeds).build())
            .map_err(|e| e.to_string())?;
        Ok(src)
    };
    tr.begin_run("inputs".into());
    let src = tr.span("bench.setup", set_up)?;
    // The flow borrows its source, so set-up drops the flow it built and
    // the measured flow is built once more, untimed, from the same source.
    let flow: Flow<'_> = flow_builder(&src, &seeds)
        .build()
        .map_err(|e| e.to_string())?;

    let mut first: Option<String> = None;
    let mut last: Option<FlowReport> = None;
    let mut per_call = Vec::new();
    let samples = measure(
        args,
        &mut tr,
        |tr| set_up(tr).map(drop),
        "flow.run",
        || flow.run().map_err(|e| e.to_string()),
        |tr, report| {
            let canonical = tr
                .span("json.canonical", |_| report.canonical_json().emit())
                .map_err(|e| e.to_string())?;
            let mut layers = flow_layers(&report);
            layers.insert("json.canonical_bytes", canonical.len() as f64);
            per_call.push(layers);
            match &first {
                None => first = Some(canonical),
                Some(f) if *f != canonical => {
                    return Err("canonical artifact differs from the first call's".into())
                }
                Some(_) => {}
            }
            last = Some(report);
            Ok(())
        },
    )?;
    let report = last.ok_or("no flow call succeeded")?;
    let wall_s = samples.wall_s();
    let nl = flow.netlist();
    let cfg = flow.config();

    // The modeled full run simulates exactly the sequential simulator's
    // events over the same stimulus: check it against a real sequential run.
    tr.begin_run("reference".into());
    let stim = VectorStimulus::from_netlist(nl, cfg.presim.period, cfg.presim.stim_seed);
    let t = Instant::now();
    let reference = tr.span("seq.run", |_| Reference::new(nl, &stim, cfg.full_vectors));
    let seq_s = t.elapsed().as_secs_f64();
    let mut correct = true;
    if report.full.stats.events != reference.events {
        eprintln!(
            "perfbench: modeled full run counted {} events, the sequential simulator {}",
            report.full.stats.events, reference.events
        );
        correct = false;
    }

    let mut layers = BTreeMap::new();
    if args.trace {
        let chosen = &report.chosen;
        let plan = tr.span("cluster.plan", |_| {
            ClusterPlan::new(nl, &chosen.gate_blocks, chosen.k as usize)
        });
        layers.extend(median_of(&per_call));
        layers.extend(span_times(
            &tr,
            &[
                ("workloads.generate", "workloads.generate_s"),
                // `FlowBuilder::build` is validation plus parse/elaborate.
                ("flow.build", "verilog.parse_elaborate_s"),
                ("cluster.plan", "cluster.plan_s"),
                ("json.canonical", "json.canonical_s"),
            ],
        ));
        let events = reference.events as f64;
        layers.extend([
            ("bench.samples", samples.attempted as f64),
            ("bench.wall_s_max", samples.max()),
            ("bench.raw_wall_s", samples.raw_wall_s()),
            ("bench.calibration_s", samples.calibration_s()),
            ("verilog.gates", nl.gate_count() as f64),
            ("cluster.cut_nets", plan.cut_nets() as f64),
            ("cluster.channels", plan.channel_count() as f64),
            ("seq.run_s", seq_s),
            ("seq.events", events),
            ("seq.events_per_s", events / seq_s),
            ("trace.overhead_s", samples.tracing_overhead()),
        ]);
    }

    let end_to_end = BTreeMap::from([
        ("setup_s", samples.setup_s()),
        ("wall_s", wall_s),
        ("events_per_s", reference.events as f64 / wall_s),
        ("peak_rss_mb", peak_rss_mb()?),
        ("ok_frac", samples.ok_frac()),
        ("cut", report.chosen.cut as f64),
        ("modeled_speedup", report.full_speedup),
    ]);
    Ok(Outcome {
        correct,
        attempted: samples.attempted,
        failed: samples.failed,
        end_to_end,
        layers,
        tracer: tr,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_inputs() -> (Netlist, ClusterPlan, VectorStimulus) {
        let src = generate_viterbi(&ViterbiParams::tiny());
        let nl = dvs_verilog::parse_and_elaborate(&src)
            .expect("tiny decoder elaborates")
            .into_netlist();
        let part = partition_multiway(&nl, &MultiwayConfig::new(K, 20.0));
        let plan = ClusterPlan::new(&nl, &part.gate_blocks, K as usize);
        let stim = VectorStimulus::from_netlist(&nl, PERIOD, 7);
        (nl, plan, stim)
    }

    #[test]
    fn an_injected_value_mismatch_is_a_failed_call() {
        let (nl, plan, stim) = small_inputs();
        let reference = Reference::new(&nl, &stim, 20);
        let cfg = TimeWarpConfig::builder()
            .transport(Transport::in_proc(1, SchedulePolicy::RoundRobin))
            .build()
            .expect("valid config");
        let good = run_timewarp(&nl, &plan, &stim, 20, &cfg).expect("run completes");
        assert_eq!(reference.check(&good), Ok(()));

        let (net, _) = reference.driven[reference.driven.len() / 2];
        let mut bad = good.clone();
        bad.values[net] = match bad.values[net] {
            Logic::One => Logic::Zero,
            _ => Logic::One,
        };
        assert!(reference.check(&bad).is_err());

        let mut degraded = good;
        degraded.recovery.degraded = true;
        assert!(reference.check(&degraded).is_err());

        let args = Args {
            workload: "tw_inproc_ckpt".into(),
            seed: 0,
            seconds: 1e-9,
            trace: false,
        };
        let mut tr = Tracer::new(false);
        let mut calls = 0;
        let samples = measure(
            &args,
            &mut tr,
            |_| Ok(()),
            "timewarp.run",
            || run_timewarp(&nl, &plan, &stim, 20, &cfg).map_err(|e| e.to_string()),
            |_, mut r| {
                calls += 1;
                if calls == 2 {
                    r.values[net] = bad.values[net];
                }
                reference.check(&r)
            },
        )
        .expect("set-up cannot fail");
        assert_eq!((samples.attempted, samples.failed), (MIN_SAMPLES, 1));
        assert!(samples.ok_frac() < 1.0);
    }

    #[test]
    fn seeds_differ_per_layer_and_repeat_per_workload_seed() {
        let a = Seeds::from_workload_seed(1);
        let b = Seeds::from_workload_seed(1);
        let c = Seeds::from_workload_seed(2);
        assert_eq!((a.stim, a.part, a.sched), (b.stim, b.part, b.sched));
        assert_ne!(a.stim, a.part);
        assert_ne!(a.stim, c.stim);
    }

    #[test]
    fn traced_loop_alternates_and_reports_overhead() {
        let args = Args {
            workload: "tw_threads".into(),
            seed: 0,
            seconds: 1e-9,
            trace: true,
        };
        let mut tr = Tracer::new(true);
        let s = measure(
            &args,
            &mut tr,
            |_| Ok(()),
            "noop",
            || Ok(()),
            |_, ()| Ok(()),
        )
        .expect("set-up cannot fail");
        assert_eq!(s.setup.len(), 3 * SETUPS_PER_CALL);
        assert_eq!((s.traced.len(), s.untraced.len()), (2, 1));
        assert_eq!(s.calibration.len(), 3 * 2 * CALIBRATIONS);
        assert!(s.tracing_overhead().is_finite());
        assert!(tr.spans().iter().all(|sp| sp.run != "iter1"));
    }
}
