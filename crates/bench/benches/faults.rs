//! Fault-injection overhead guard on the paper test-chip MAC netlist.
//!
//! The per-lane fault masks live behind an `Option` inside the
//! engine's write path, so a run with **no plan installed** (and an
//! installed *empty* plan, which is the same state) must cost nothing.
//! This bench measures three arms on identical stimulus:
//!
//! * `nominal` — no fault plan was ever installed;
//! * `empty` — `install_faults(&FaultPlan::new())`, which must leave
//!   no state behind;
//! * `dormant` — a plan with one transient flip scheduled far past the
//!   run, so the mask tables are allocated and the masked write branch
//!   executes on every slot write while staying semantically neutral.
//!
//! It fails if the empty-plan arm loses more than 2% of the
//! `BENCH_baseline.json` `engine64_vps` throughput. The dormant-arm
//! cost is reported (and archived) as the price of an *active*
//! campaign.
//!
//! The same per-lane write path carries the weight-update sign-off:
//! `wu_512_paper_ms` is the median of several 512-pattern
//! `measure_weight_update_patterns` calls on the search-chosen paper
//! chip — one lane per write pattern, per-lane energies decoded from
//! the engine's bit-sliced toggle counters. All keys merge into
//! `BENCH_engine.json`.

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use syndcim_core::{assemble, measure_weight_update_patterns, DesignChoice, EvalBackend, MacroSpec};
use syndcim_engine::{BatchSim, EngineSim, FaultPlan, Program};
use syndcim_netlist::NetId;
use syndcim_pdk::{CellLibrary, OperatingPoint};
use syndcim_sim::SimBackend;

/// Timed 512-pattern weight-update calls on the paper chip (the median
/// is reported).
const WU_RUNS: usize = 7;

/// Cheap xorshift stimulus source (identical cost in every arm).
fn next_word(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn bench_faults(c: &mut Criterion) {
    // Measure the engine alone, not the ambient tracing mode.
    syndcim_telemetry::set_mode(syndcim_telemetry::Mode::Off);

    let lib = CellLibrary::syn40();
    let spec = MacroSpec::paper_test_chip();
    let mac = assemble(&lib, &spec, &DesignChoice::default());
    let module = &mac.module;
    let prog = Program::compile(module, &lib).expect("paper test chip compiles");
    let in_nets: Vec<NetId> = module.input_ports().map(|p| p.net).collect();

    let nominal = c.bench_stats("engine_64vectors_no_plan", |b| {
        let mut sim = BatchSim::new(&prog, module, 64);
        let mut state = 0x5EED;
        b.iter(|| {
            for &net in &in_nets {
                sim.poke_word(net, next_word(&mut state));
            }
            sim.step();
        });
    });

    let empty = c.bench_stats("engine_64vectors_empty_plan", |b| {
        let mut sim = BatchSim::new(&prog, module, 64);
        sim.install_faults(&FaultPlan::new()).expect("empty plan installs");
        let mut state = 0x5EED;
        b.iter(|| {
            for &net in &in_nets {
                sim.poke_word(net, next_word(&mut state));
            }
            sim.step();
        });
    });

    let dormant = c.bench_stats("engine_64vectors_dormant_plan", |b| {
        let mut sim = BatchSim::new(&prog, module, 64);
        let mut plan = FaultPlan::new();
        plan.flip_at(in_nets[0], 0, u64::MAX);
        sim.install_faults(&plan).expect("dormant plan installs");
        let mut state = 0x5EED;
        b.iter(|| {
            for &net in &in_nets {
                sim.poke_word(net, next_word(&mut state));
            }
            sim.step();
        });
    });

    let nominal_vps = 64.0 * 1e9 / nominal.ns_per_iter;
    let empty_vps = 64.0 * 1e9 / empty.ns_per_iter;
    let dormant_vps = 64.0 * 1e9 / dormant.ns_per_iter;
    println!("no plan:      {nominal_vps:>12.0} vectors/s");
    println!("empty plan:   {empty_vps:>12.0} vectors/s");
    println!("dormant plan: {dormant_vps:>12.0} vectors/s");

    // Empty-plan guard: within 2% of the *committed baseline* engine
    // throughput — the same yardstick the telemetry off-mode guard
    // uses, so a slow write path cannot hide behind run-to-run noise
    // in the nominal arm.
    let baseline_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
    let baseline = std::fs::read_to_string(baseline_path)
        .map(|text| syndcim_bench::parse_bench_artifact(&text))
        .unwrap_or_default();
    let empty_overhead_pct = baseline
        .get("engine64_vps")
        .map_or(0.0, |&base_vps| ((base_vps - empty_vps) / base_vps * 100.0).max(0.0));
    let dormant_overhead_pct = ((nominal_vps - dormant_vps) / nominal_vps * 100.0).max(0.0);
    println!("empty-plan overhead vs baseline engine64 vps: {empty_overhead_pct:.2}%");
    println!("dormant-plan overhead vs nominal arm:         {dormant_overhead_pct:.2}%");

    // --- 512-pattern weight-update sign-off on the paper chip ---------
    // Hand-timed: each call builds its own executor, so the median of
    // single calls is the figure, not the shim's batch mean.
    let (im, wu_lib) = syndcim_bench::implement_best(&spec);
    let op = OperatingPoint::at_voltage(spec.vdd_v);
    let mut wu_ns: Vec<u128> = (0..WU_RUNS)
        .map(|_| {
            let t0 = Instant::now();
            let m = measure_weight_update_patterns(
                &im,
                &wu_lib,
                op,
                spec.f_wu_mhz,
                0x5EED,
                EngineSim::MAX_LANES,
                EvalBackend::Engine,
            )
            .expect("the paper chip verifies every bitcell in every lane");
            let ns = t0.elapsed().as_nanos();
            black_box(m);
            ns
        })
        .collect();
    wu_ns.sort_unstable();
    let wu_512_ms = wu_ns[WU_RUNS / 2] as f64 / 1e6;
    println!("{:<44} {wu_512_ms:>11.3} ms /iter   (median of {WU_RUNS})", "wu_512_paper");

    syndcim_bench::merge_bench_artifact(
        &["faults_", "wu_"],
        &[
            ("wu_512_paper_ms", wu_512_ms),
            ("faults_nominal_vps", nominal_vps),
            ("faults_empty_plan_vps", empty_vps),
            ("faults_dormant_plan_vps", dormant_vps),
            ("faults_empty_plan_overhead_pct", empty_overhead_pct),
            ("faults_dormant_plan_overhead_pct", dormant_overhead_pct),
        ],
    );

    assert!(
        empty_overhead_pct <= 2.0,
        "an empty fault plan must cost <= 2% of baseline engine64 throughput, lost {empty_overhead_pct:.2}%"
    );
}

criterion_group!(benches, bench_faults);
criterion_main!(benches);
