//! End-to-end and per-layer benchmark of the SynDCIM compiler.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <scale_implement|dse_sweep|paper_signoff> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run is one process running one workload. With `--trace 0` it
//! prints the end-to-end metrics, measured with nothing traced; with
//! `--trace 1` it alternates untraced and traced passes and prints the
//! per-layer metrics read from the traced ones, plus the tracing
//! overhead. The last line of standard output is the result object;
//! the line before it is the run's report (fingerprint, sample counts,
//! failures). See `perfbench/README.md` for the workloads and metrics.

mod chain;
mod dse;
mod host;
mod json;
mod paper;
mod scale;
mod stats;
mod tally;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use json::Json;
use tally::Tally;
use trace::Tracer;

/// Longest a run may take, as a multiple of `--seconds` and in
/// seconds: on a host far slower than the one the pass counts were
/// sized on, a run stops early rather than overrun.
const CAP_FACTOR: f64 = 1.9;
const CAP_S: f64 = 150.0;

/// End-to-end metrics, printed by every untraced run: name, unit. The
/// tail call latency goes to the report line instead: on a shared host a
/// burst of slow calls a few seconds long moves it by more than any
/// bound the benchmark may set.
const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("sweep_s", "s"), ("call_p50_ms", "ms"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics, printed by every traced run: name, unit. Times
/// are the span names with a `_ms`/`_us` suffix; a layer a workload
/// never calls reads 0.
const PER_LAYER: [(&str, &str); 44] = [
    ("core.assemble_ms", "ms"),
    ("netlist.optimize_ms", "ms"),
    ("ir.lower_ms", "ms"),
    ("layout.place_ms", "ms"),
    ("layout.drc_ms", "ms"),
    ("layout.wires_ms", "ms"),
    ("engine.compile_ms", "ms"),
    ("power.compile_ms", "ms"),
    ("sta.compile_ms", "ms"),
    ("sta.signoff_ms", "ms"),
    ("netlist.connectivity_ms", "ms"),
    ("netlist.levelize_ms", "ms"),
    ("ir.intern_ms", "ms"),
    ("netlist.validate_ms", "ms"),
    ("core.assemble.nets", "count"),
    ("core.assemble.instances", "count"),
    ("netlist.optimize.passes", "count"),
    ("netlist.optimize.folded", "count"),
    ("netlist.optimize.swept", "count"),
    ("netlist.optimize.instances_after", "count"),
    ("layout.regions", "count"),
    ("engine.ops", "count"),
    ("sta.arcs", "count"),
    ("core.compiled_bytes", "B"),
    ("core.search_ms", "ms"),
    ("scl.records", "count"),
    ("core.search.frontier", "count"),
    ("core.search.infeasible", "count"),
    ("core.eval.int1_ms", "ms"),
    ("core.eval.int2_ms", "ms"),
    ("core.eval.int4_ms", "ms"),
    ("core.eval.int8_ms", "ms"),
    ("core.eval.fp_ms", "ms"),
    ("core.eval.wu_ms", "ms"),
    ("core.eval.wu_full_ms", "ms"),
    ("engine.vectors_per_s", "1/s"),
    ("core.shmoo_ms", "ms"),
    ("core.shmoo_power_ms", "ms"),
    ("sta.fmax_us", "us"),
    ("power.report_static_us", "us"),
    ("core.artifact.save_ms", "ms"),
    ("core.artifact.load_ms", "ms"),
    ("core.artifact.bytes", "B"),
    ("trace.overhead_ratio", "ratio"),
];

/// Command-line arguments.
#[derive(Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        map.insert(key.to_string(), value);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let seconds: f64 = get("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
    })
}

/// Wall-clock `f`, returning its value and the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// One `measure_int` input: precision, activation passes, and the
/// weights of every output channel.
pub type IntCase = (u32, Vec<Vec<i64>>, Vec<Vec<i64>>);

/// Span name of a `measure_int` call at `pa` bits (1, 2, 4 or 8).
pub fn int_eval_span(pa: u32) -> &'static str {
    ["core.eval.int1", "core.eval.int2", "core.eval.int4", "core.eval.int8"][pa.trailing_zeros() as usize]
}

/// Raw samples a workload collects; the end-to-end metrics are their
/// medians and tails.
#[derive(Debug, Default)]
pub struct Samples {
    /// One per set-up repetition.
    pub setup_s: Vec<f64>,
    /// One per untraced pass: the summed wall time of the pass's calls.
    pub sweep_s: Vec<f64>,
    /// One per call of the workload's repeated request.
    pub call_ms: Vec<f64>,
}

/// Everything one workload run produced.
pub struct Outcome {
    /// Samples for the end-to-end metrics (untraced passes only).
    pub samples: Samples,
    /// Operation counts.
    pub tally: Tally,
    /// Spans of the traced passes and set-ups (disabled in untraced runs).
    pub tracer: Tracer,
    /// The disabled tracer untraced passes run with; it times their
    /// roots, the base of the tracing overhead.
    pub quiet: Tracer,
    /// Workload-specific figures for the report line.
    pub details: Vec<(&'static str, Json)>,
}

impl Outcome {
    /// An empty outcome whose tracer records when `trace` is set.
    pub fn new(trace: bool) -> Self {
        Outcome {
            samples: Samples::default(),
            tally: Tally::default(),
            tracer: if trace { Tracer::on() } else { Tracer::off() },
            quiet: Tracer::off(),
            details: Vec::new(),
        }
    }

    /// Run a fixed number of passes: `--seconds` over the workload's
    /// nominal pass time `pass_s`, at least two. Every run of a workload
    /// with the same `--seconds` does the same work, so its `attempted`
    /// and `failed` counts do not depend on the host's speed. An
    /// untraced run makes every pass untraced; a traced run alternates
    /// untraced and traced passes, starting untraced. `pass` receives the
    /// tracer to use — disabled for untraced passes, so
    /// `Tracer::enabled` tells it which kind it is making — and opens the
    /// `pass` root itself. A run that overruns its cap stops early and
    /// says so in its report.
    pub fn run_passes(
        &mut self,
        args: &Args,
        pass_s: f64,
        mut pass: impl FnMut(&mut Tracer, &mut Tally, &mut Samples),
    ) {
        let planned = ((args.seconds / pass_s).round() as usize).max(2);
        let cap = (CAP_FACTOR * args.seconds).min(CAP_S);
        let start = Instant::now();
        let mut n = 0usize;
        // A traced run needs one pass of each kind, however slow.
        while n < planned && (n < 2 || start.elapsed().as_secs_f64() < cap) {
            let tracer = if args.trace && n % 2 == 1 { &mut self.tracer } else { &mut self.quiet };
            pass(tracer, &mut self.tally, &mut self.samples);
            n += 1;
        }
        self.details.push(("passes_planned", Json::from(planned)));
        self.details.push(("passes_made", Json::from(n)));
        self.details.push(("pass_window_s", Json::from(start.elapsed().as_secs_f64())));
    }
}

/// Metric values by name, in the order of their table.
type Values = Vec<(&'static str, f64)>;

fn end_to_end(out: &Outcome, rss: f64) -> Result<(Values, Json), String> {
    let s = &out.samples;
    if s.setup_s.is_empty() || s.sweep_s.is_empty() || s.call_ms.is_empty() {
        return Err("no call succeeded: nothing to measure".into());
    }
    let tail = stats::tail(&s.call_ms);
    let values = vec![
        ("setup_s", stats::median(&s.setup_s)),
        ("sweep_s", stats::median(&s.sweep_s)),
        ("call_p50_ms", stats::median(&s.call_ms)),
        ("peak_rss_mib", rss),
    ];
    let counts = Json::obj([
        ("setup", Json::from(s.setup_s.len())),
        ("passes", Json::from(s.sweep_s.len())),
        ("calls", Json::from(tail.samples)),
        ("call_tail_ms", Json::from(tail.value)),
        ("call_tail_percentile", Json::from(tail.percentile)),
    ]);
    Ok((values, counts))
}

fn per_layer(out: &Outcome) -> Values {
    let secs = out.tracer.layer_seconds();
    let counts = out.tracer.layer_counts();
    let pass_s =
        |tr: &Tracer| -> Vec<f64> { tr.root_durations("pass").iter().map(|d| d.as_secs_f64()).collect() };
    let overhead = stats::median(&pass_s(&out.tracer)) / stats::median(&pass_s(&out.quiet));
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let value = if name == "trace.overhead_ratio" {
                overhead
            } else if let Some(span) = name.strip_suffix("_ms") {
                secs.get(span).map_or(0.0, |s| s * 1e3)
            } else if let Some(span) = name.strip_suffix("_us") {
                secs.get(span).map_or(0.0, |s| s * 1e6)
            } else {
                counts.get(name).copied().unwrap_or(0.0)
            };
            (name, value)
        })
        .collect()
}

fn metrics_json(values: &Values, units: &[(&str, &str)]) -> Json {
    Json::Obj(
        values
            .iter()
            .zip(units)
            .map(|(&(name, v), &(_, unit))| {
                (name.to_string(), Json::obj([("value", Json::Num(v)), ("unit", Json::from(unit))]))
            })
            .collect(),
    )
}

/// Write the span JSON and the self-time table of a traced run under
/// `.bench_out/`.
fn write_trace(args: &Args, tracer: &Tracer) -> std::io::Result<String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    std::fs::write(dir.join(format!("{stem}.spans.json")), format!("{}\n", tracer.spans_json()))?;
    let table = tracer.self_time_table();
    std::fs::write(dir.join(format!("{stem}.selftime.txt")), &table)?;
    Ok(table)
}

fn run(args: &Args) -> Result<(), String> {
    // The program's own telemetry stays off in every run: the traced
    // run's spans come from this benchmark, not from the program.
    syndcim_telemetry::set_mode(syndcim_telemetry::Mode::Off);
    let fingerprint = host::fingerprint(args.seed).map_err(|e| format!("SYNDCIM_SIMD: {e}"))?;

    let out = match args.workload.as_str() {
        "scale_implement" => scale::run(args),
        "dse_sweep" => dse::run(args),
        "paper_signoff" => paper::run(args),
        other => return Err(format!("unknown workload `{other}`")),
    };

    let rss = host::peak_rss_mib();
    let (metrics, samples) = if args.trace {
        let table = write_trace(args, &out.tracer).map_err(|e| format!("writing trace: {e}"))?;
        eprintln!("self time, {} seed {}:\n{table}", args.workload, args.seed);
        (metrics_json(&per_layer(&out), &PER_LAYER), Json::Null)
    } else {
        // Never report a missing peak as 0.
        let rss = rss.ok_or("peak_rss_mib unavailable: no VmHWM in /proc/self/status")?;
        let (values, samples) = end_to_end(&out, rss)?;
        (metrics_json(&values, &END_TO_END), samples)
    };

    let tally = &out.tally;
    let report = Json::obj(
        [
            ("workload", Json::from(args.workload.as_str())),
            ("trace", Json::from(args.trace)),
            ("host", fingerprint),
            ("samples", samples),
            ("peak_rss_mib", rss.map_or(Json::from("missing"), Json::from)),
            ("fail_share", Json::from(tally.failed() as f64 / tally.attempted().max(1) as f64)),
            ("failures", tally.failures_json()),
        ]
        .into_iter()
        .chain(out.details),
    );
    println!("{}", Json::obj([("report", report)]));
    let result = Json::obj([
        ("correct", Json::from(tally.correct())),
        ("attempted", Json::from(tally.attempted())),
        ("failed", Json::from(tally.failed())),
        ("metrics", metrics),
    ]);
    println!("{result}");
    Ok(())
}

fn main() {
    let code = match parse_args().and_then(|args| run(&args)) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}
