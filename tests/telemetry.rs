//! Observability pins: the telemetry layer must report a deterministic
//! span tree and counters for the implementation flow, aggregate
//! identically across `parallel_map` worker counts, and stay silent
//! (and out of the way of every differential test) while disabled.
//!
//! Telemetry state is process-global, so every test here serializes on
//! one lock and resets the collector before measuring.

use std::sync::Mutex;

use syndcim_core::{implement, measure_int, measure_weight_update, DesignChoice, MacroSpec};
use syndcim_ir::parallel_map_threads;
use syndcim_pdk::{CellLibrary, OperatingPoint};
use syndcim_sim::Simulator;
use syndcim_telemetry as telemetry;

static LOCK: Mutex<()> = Mutex::new(());

fn tiny_spec() -> MacroSpec {
    MacroSpec {
        h: 8,
        w: 8,
        mcr: 2,
        int_precisions: vec![1, 2, 4],
        fp_precisions: vec![],
        f_mac_mhz: 400.0,
        f_wu_mhz: 400.0,
        vdd_v: 0.9,
        ppa: Default::default(),
    }
}

fn child<'a>(node: &'a telemetry::SpanSnapshot, name: &str) -> &'a telemetry::SpanSnapshot {
    node.children
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("span `{}` has no child `{name}`: {:?}", node.name, node.children))
}

/// The flow's span tree is structurally pinned: phase spans nest under
/// `implement`, the compiled-trinity spans nest under
/// `implement.compile`, and the report attached to the macro carries
/// the same structure.
#[test]
fn implement_span_tree_nests_the_flow_phases() {
    let _guard = LOCK.lock().unwrap();
    telemetry::set_mode(telemetry::Mode::Summary);
    telemetry::reset();

    let lib = CellLibrary::syn40();
    let im = implement(&lib, &tiny_spec(), &DesignChoice::default()).unwrap();

    let root = &im.report.root;
    let imp = child(root, "implement");
    assert_eq!(imp.count, 1);
    for phase in [
        "implement.assemble",
        "implement.optimize",
        "implement.lower",
        "implement.place",
        "implement.drc",
        "implement.wires",
        "implement.compile",
        "implement.signoff",
    ] {
        assert_eq!(child(imp, phase).count, 1, "{phase}");
    }
    // Children come out sorted by name, independent of execution order.
    let names: Vec<&str> = imp.children.iter().map(|c| c.name.as_str()).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted);

    // One lowering — hoisted before placement so layout can reuse its
    // symbols — feeds the whole compiled trinity.
    let lowering = child(child(imp, "implement.lower"), "lowering");
    assert_eq!(lowering.count, 1, "one lowering per implement, observed by telemetry");
    for sub in ["lowering.connectivity", "lowering.levelize", "lowering.intern"] {
        assert_eq!(child(lowering, sub).count, 1, "{sub}");
    }
    // The netlist cleanup is one pass with three inner phases.
    let optimize = child(imp, "implement.optimize");
    for sub in ["opt.fanout", "opt.fold", "opt.sweep"] {
        assert_eq!(child(optimize, sub).count, 1, "{sub}");
    }
    let compile = child(imp, "implement.compile");
    assert_eq!(child(compile, "engine.compile").count, 1);
    assert_eq!(child(compile, "sta.compile").count, 1);
    assert_eq!(child(compile, "power.compile").count, 1);

    // The flow counters landed.
    assert_eq!(im.report.counter("ir.lowerings"), Some(1));
    assert_eq!(im.report.counter("opt.folded"), Some(im.synth_report.folded as u64));
    assert_eq!(im.report.counter("opt.swept"), Some(im.synth_report.swept as u64));
    assert!(im.synth_report.swept > 0, "the 8x8 macro carries dead logic");
    assert!(im.report.counter("opt.const_nets").unwrap() > 0, "constants propagate through gates");
    assert_eq!(im.report.counter("engine.executors").unwrap_or(0), 0, "implement runs no simulation");
    assert!(im.report.gauge("engine.retained_bytes").unwrap() > 0);
    assert!(im.report.gauge("sta.retained_bytes").unwrap() > 0);
    assert!(im.report.gauge("power.retained_bytes").unwrap() > 0);
    let symbols = im.compiled.lowering.symbols();
    assert_eq!(im.report.gauge("ir.symbols"), Some(symbols.interner().len() as u64));
    assert_eq!(im.report.gauge("ir.retained_bytes"), Some(symbols.heap_bytes() as u64));

    // A fresh snapshot agrees with the attached report structurally.
    assert_eq!(telemetry::snapshot().root.signature(), im.report.root.signature());
}

/// The engine weight-update measurement nests its write, verify and
/// energy phases under `eval.wu.engine`, and the bit-sliced per-lane
/// counters report their footprint as whole planes of lane words.
#[test]
fn weight_update_phases_and_lane_counter_bytes_are_reported() {
    let _guard = LOCK.lock().unwrap();
    telemetry::set_mode(telemetry::Mode::Summary);

    let lib = CellLibrary::syn40();
    let im = implement(&lib, &tiny_spec(), &DesignChoice::default()).unwrap();
    telemetry::reset();
    let m = measure_weight_update(&im, &lib, OperatingPoint::at_voltage(0.9), 400.0, 7).unwrap();
    let report = telemetry::snapshot();

    let wu = child(&report.root, "eval.wu.engine");
    assert_eq!(wu.count, 1);
    for phase in ["eval.wu.write", "eval.wu.verify", "eval.wu.energy"] {
        assert_eq!(child(wu, phase).count, 1, "{phase}");
    }
    // The default pattern count rides the 8-byte u64 lane word.
    assert!(m.patterns <= 64);
    let plane_bytes = (im.mac.module.net_count() * 8) as u64;
    let bytes = report.gauge("engine.lane_toggle_bytes").unwrap();
    assert_eq!(bytes % plane_bytes, 0, "{bytes} B is not a whole number of planes");
    // A short write burst: at least one plane, far fewer than 64.
    assert!((1..16).contains(&(bytes / plane_bytes)), "{} planes", bytes / plane_bytes);
}

/// The gated engine reports what it ran: on a weight update, where a
/// write burst touches one row at a time, most ops are skipped, and
/// every settle accounts for each op once, as run or as skipped.
#[test]
fn weight_update_gating_counters_add_up() {
    let _guard = LOCK.lock().unwrap();
    telemetry::set_mode(telemetry::Mode::Summary);

    let lib = CellLibrary::syn40();
    let im = implement(&lib, &tiny_spec(), &DesignChoice::default()).unwrap();
    telemetry::reset();
    measure_weight_update(&im, &lib, OperatingPoint::at_voltage(0.9), 400.0, 7).unwrap();
    let report = telemetry::snapshot();

    let counter = |name: &str| report.counter(name).unwrap_or_else(|| panic!("counter `{name}` missing"));
    let (run, skipped) = (counter("engine.ops_executed"), counter("engine.ops_skipped"));
    assert!(skipped > 0, "a write burst leaves most blocks idle");
    assert_eq!(run + skipped, counter("engine.settles") * im.compiled.program.op_count() as u64);
    assert!(counter("engine.blocks_run") > 0);
    assert!(counter("engine.commits_run") > 0);
}

/// Worker counts must be invisible: the same fan-out aggregated on 1, 2
/// and 8 threads produces identical span signatures and counters.
#[test]
fn parallel_map_aggregation_is_thread_count_invariant() {
    let _guard = LOCK.lock().unwrap();
    telemetry::set_mode(telemetry::Mode::Summary);

    let jobs: Vec<usize> = (0..24).collect();
    let run = |threads: usize| {
        telemetry::reset();
        let out = {
            telemetry::span!("fanout");
            parallel_map_threads(jobs.clone(), threads, |_, j| {
                telemetry::span!("fanout.job");
                telemetry::counter("test.fanout_jobs").incr();
                j * 2
            })
        };
        assert_eq!(out, jobs.iter().map(|j| j * 2).collect::<Vec<_>>());
        let report = telemetry::snapshot();
        (report.root.signature(), report.counters)
    };

    let (sig1, ctr1) = run(1);
    for threads in [2, 8] {
        let (sig, ctr) = run(threads);
        assert_eq!(sig, sig1, "span tree must not depend on worker count ({threads} threads)");
        assert_eq!(ctr, ctr1, "counters must not depend on worker count ({threads} threads)");
    }
    assert_eq!(ctr1.iter().find(|(n, _)| n == "test.fanout_jobs").unwrap().1, 24);
}

/// The symbol-keyed port-lookup satellite: the whole measured flow —
/// implement, engine measurement, interpreter passes riding the shared
/// lowering — allocates **zero** per-instance owned port tables; only
/// the standalone `Simulator::new` path still builds one.
#[test]
fn shared_port_lookup_allocates_no_owned_tables() {
    let _guard = LOCK.lock().unwrap();
    telemetry::set_mode(telemetry::Mode::Summary);
    telemetry::reset();

    let lib = CellLibrary::syn40();
    let im = implement(&lib, &tiny_spec(), &DesignChoice::default()).unwrap();
    let weights = vec![vec![3, -2, 1, 0, -4, 5, 2, -1], vec![1; 8]];
    let passes = vec![vec![1; 8], vec![-3; 8]];
    measure_int(&im, &lib, 4, &passes, &weights, OperatingPoint::at_voltage(0.9), 400.0).unwrap();
    let report = telemetry::snapshot();
    assert_eq!(
        report.counter("sim.port_table_allocs").unwrap_or(0),
        0,
        "shared-lowering paths own no port maps"
    );
    assert!(report.counter("engine.executors").unwrap() > 0, "the engine measurement ran");

    // The standalone constructor is the one remaining owned-table path.
    let _sim = Simulator::new(&im.mac.module, &lib).unwrap();
    assert_eq!(telemetry::snapshot().counter("sim.port_table_allocs"), Some(1));
}

/// Disabled mode records nothing — spans, counters, gauges all stay
/// empty while the instrumented flow runs at full speed.
#[test]
fn disabled_mode_records_nothing() {
    let _guard = LOCK.lock().unwrap();
    telemetry::set_mode(telemetry::Mode::Off);
    telemetry::reset();

    let lib = CellLibrary::syn40();
    let im = implement(&lib, &tiny_spec(), &DesignChoice::default()).unwrap();
    assert!(im.report.root.children.is_empty(), "no spans while disabled");
    assert_eq!(im.report.counter("ir.lowerings").unwrap_or(0), 0);
    assert_eq!(im.report.gauge("engine.retained_bytes").unwrap_or(0), 0);
    assert!(!telemetry::enabled());
}
