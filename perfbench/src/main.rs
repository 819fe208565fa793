//! The repository benchmark: the paper's partition-and-presim flow and the
//! Time Warp kernel over the InProc, TCP and Threads transports, measured
//! end to end and per layer. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer metrics and writes
//! the recorded spans to `perfbench/out/`.
//!
//! The same binary doubles as the TCP Time Warp worker: invoked as
//! `perfbench --connect <host:port> --cluster <id> --token <tok>` it serves
//! one cluster, which is how the `tw_tcp_batched` workload spawns workers.

mod trace;
mod workloads;

use dvs_core::json::{Json, ObjBuilder};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// A metric as `BENCHMARK.json` names it.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// The workloads on which the metric is measured. Every run reports
    /// every metric of its mode; a per-layer metric outside its workloads
    /// reads 0.
    pub applies: &'static [&'static str],
}

pub const WORKLOADS: &[&str] = &[
    "flow_presim",
    "tw_inproc_ckpt",
    "tw_tcp_batched",
    "tw_threads",
];
const ALL: &[&str] = WORKLOADS;
const FLOW: &[&str] = &["flow_presim"];
const TW: &[&str] = &["tw_inproc_ckpt", "tw_tcp_batched", "tw_threads"];
const INPROC: &[&str] = &["tw_inproc_ckpt"];
const TCP: &[&str] = &["tw_tcp_batched"];

const fn m(name: &'static str, unit: &'static str, applies: &'static [&'static str]) -> Metric {
    Metric {
        name,
        unit,
        applies,
    }
}

/// Reported by untraced runs (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", ALL),
    m("wall_s", "s", ALL),
    m("events_per_s", "1/s", ALL),
    m("peak_rss_mb", "MiB", ALL),
    m("ok_frac", "fraction", ALL),
    m("cut", "nets", ALL),
    m("modeled_speedup", "ratio", ALL),
];

/// Reported by traced runs (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    m("bench.samples", "count", ALL),
    m("bench.wall_s_max", "s", ALL),
    m("bench.raw_wall_s", "s", ALL),
    m("bench.calibration_s", "s", ALL),
    m("workloads.generate_s", "s", ALL),
    m("verilog.parse_elaborate_s", "s", ALL),
    m("verilog.gates", "count", ALL),
    m("multiway.partition_s", "s", ALL),
    m("multiway.cone_s", "s", ALL),
    m("multiway.refine_s", "s", ALL),
    m("multiway.flattens", "count", ALL),
    m("multiway.fm_rounds", "count", ALL),
    m("cluster.plan_s", "s", ALL),
    m("cluster.cut_nets", "count", ALL),
    m("cluster.channels", "count", ALL),
    m("presim.search_s", "s", FLOW),
    m("presim.points", "count", FLOW),
    m("presim.point_s_max", "s", FLOW),
    m("engine.workers", "count", FLOW),
    m("cluster_model.full_run_s", "s", FLOW),
    m("seq.run_s", "s", ALL),
    m("seq.events", "count", ALL),
    m("seq.events_per_s", "1/s", ALL),
    m("timewarp.events", "count", TW),
    m("timewarp.rolled_back_events", "count", TW),
    m("timewarp.rollbacks", "count", TW),
    m("timewarp.messages", "count", TW),
    m("timewarp.anti_messages", "count", TW),
    m("timewarp.gvt_rounds", "count", TW),
    m("timewarp.fossil_collected", "count", TW),
    m("timewarp.committed_ratio", "ratio", TW),
    m("timewarp.over_seq", "ratio", TW),
    m("checkpoint.bytes_full", "bytes", TW),
    m("checkpoint.bytes_delta", "bytes", TW),
    m("checkpoint.tracked_over_untracked", "ratio", INPROC),
    m("wire.messages_sent", "count", TW),
    m("wire.frames_sent", "count", TW),
    m("wire.msgs_per_frame", "ratio", TW),
    m("wire.over_inproc", "ratio", TCP),
    m("threads.messages_folded", "count", TW),
    m("recovery.crashes", "count", TW),
    m("recovery.restarts", "count", TW),
    m("recovery.degraded", "count", TW),
    m("json.canonical_s", "s", ALL),
    m("json.canonical_bytes", "bytes", ALL),
    m("trace.overhead_s", "s", ALL),
    m("trace.spans", "count", ALL),
];

/// What one workload run produced.
pub struct Outcome {
    /// False when an invariant spanning several runs broke (for example
    /// the TCP/InProc byte-identity check of the traced pass).
    pub correct: bool,
    /// Measured calls made.
    pub attempted: u64,
    /// Measured calls that returned `Err`, degraded to the sequential
    /// simulator, or failed the correctness check.
    pub failed: u64,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    pub tracer: trace::Tracer,
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value) {
                    return Err(format!(
                        "unknown workload `{value}` (expected one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                workload = Some(value.to_string());
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(&"must be a positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Worker mode for the TCP transport: `--connect <addr> --cluster <id>
/// --token <tok>`, the arguments the supervisor passes to spawned workers.
fn serve_tcp_worker(args: &[String]) -> ExitCode {
    let (addr, cluster, token) = match args {
        [c, addr, k, cluster, t, token]
            if c == "--connect" && k == "--cluster" && t == "--token" =>
        {
            match cluster.parse::<u32>() {
                Ok(cluster) => (addr, cluster, token),
                Err(e) => {
                    eprintln!("perfbench worker: --cluster {cluster}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        _ => {
            eprintln!("perfbench worker: expected --connect <addr> --cluster <id> --token <tok>");
            return ExitCode::from(2);
        }
    };
    match dvs_sim::timewarp::serve_worker_tcp(addr, cluster, token) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench worker: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Check that `got` holds exactly the metrics of `table` that apply to
/// `workload`, and lay them out in table order, with 0 for the rest.
pub fn metric_values(
    table: &'static [Metric],
    workload: &str,
    got: &BTreeMap<&'static str, f64>,
) -> Result<Vec<(&'static Metric, f64)>, String> {
    let expected: Vec<&str> = table
        .iter()
        .filter(|m| m.applies.contains(&workload))
        .map(|m| m.name)
        .collect();
    let produced: Vec<&str> = got.keys().copied().collect();
    let mut sorted = expected.clone();
    sorted.sort_unstable();
    if sorted != produced {
        return Err(format!(
            "workload `{workload}` produced metrics {produced:?}, expected {sorted:?}"
        ));
    }
    table
        .iter()
        .map(|m| {
            let v = got.get(m.name).copied().unwrap_or(0.0);
            if v.is_finite() {
                Ok((m, v))
            } else {
                Err(format!("metric `{}` is not finite: {v}", m.name))
            }
        })
        .collect()
}

fn result_line(outcome: &Outcome, values: &[(&'static Metric, f64)]) -> Result<String, String> {
    let metrics = values
        .iter()
        .fold(ObjBuilder::new(), |b, (m, v)| {
            b.field(
                m.name,
                ObjBuilder::new()
                    .float("value", *v)
                    .str("unit", m.unit)
                    .build(),
            )
        })
        .build();
    ObjBuilder::new()
        .bool("correct", outcome.correct && outcome.failed == 0)
        .uint("attempted", outcome.attempted)
        .uint("failed", outcome.failed)
        .field("metrics", metrics)
        .build()
        .emit()
        .map_err(|e| e.to_string())
}

fn write_spans(args: &Args, spans: &Json) -> Result<String, String> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans_{}_seed{}.json", args.workload, args.seed));
    let text = spans.emit_pretty().map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn run(args: &Args) -> Result<String, String> {
    let mut outcome = workloads::run(args)?;
    let line = if args.trace {
        outcome
            .layers
            .insert("trace.spans", outcome.tracer.spans().len() as f64);
        let values = metric_values(PER_LAYER, &args.workload, &outcome.layers)?;
        let path = write_spans(args, &outcome.tracer.to_json(&args.workload, args.seed))?;
        eprintln!(
            "perfbench: {} spans written to {path}",
            outcome.tracer.spans().len()
        );
        result_line(&outcome, &values)?
    } else {
        let values = metric_values(END_TO_END, &args.workload, &outcome.end_to_end)?;
        result_line(&outcome, &values)?
    };
    Ok(line)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--connect") {
        return serve_tcp_worker(&argv);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_core::json::Json;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name `{}`", m.name);
            assert!(seen.insert(m.name), "metric `{}` listed twice", m.name);
            assert!(!m.applies.is_empty(), "`{}` applies to no workload", m.name);
        }
        for m in END_TO_END {
            assert_eq!(
                m.applies, ALL,
                "end-to-end `{}` must apply everywhere",
                m.name
            );
        }
    }

    /// The tables above and `BENCHMARK.json` name the same workloads and
    /// metrics, with the same units, in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.field(key)
                .and_then(|a| a.as_array().map(<[Json]>::to_vec))
                .expect("array")
                .iter()
                .map(|m| {
                    let name = m.field("name").and_then(|n| n.as_str()).expect("name");
                    let unit = m.get("unit").map_or("", |u| u.as_str().expect("unit"));
                    (name.to_string(), unit.to_string())
                })
                .collect()
        };
        let table = |t: &[Metric]| -> Vec<(String, String)> {
            t.iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(END_TO_END));
        assert_eq!(names("per_layer"), table(PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn metric_values_rejects_missing_and_extra_metrics() {
        let mut got: BTreeMap<&'static str, f64> = PER_LAYER
            .iter()
            .filter(|m| m.applies.contains(&"tw_threads"))
            .map(|m| (m.name, 1.0))
            .collect();
        let values = metric_values(PER_LAYER, "tw_threads", &got).expect("complete set");
        assert_eq!(values.len(), PER_LAYER.len());
        let presim = values.iter().find(|(m, _)| m.name == "presim.points");
        assert_eq!(presim.map(|(_, v)| *v), Some(0.0));
        got.insert("presim.points", 3.0);
        assert!(metric_values(PER_LAYER, "tw_threads", &got).is_err());
        got.remove("presim.points");
        got.remove("timewarp.events");
        assert!(metric_values(PER_LAYER, "tw_threads", &got).is_err());
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload tw_threads --seed 7 --seconds 2 --trace 1",
        ))
        .expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.0, true));
        assert!(parse_args(&argv("--workload nope --seed 7 --seconds 2 --trace 1")).is_err());
        assert!(parse_args(&argv(
            "--workload tw_threads --seed 7 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload tw_threads --seed 7 --seconds 2 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload tw_threads --seed 7 --seconds 2")).is_err());
    }
}
