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
//! The nominal and empty-plan arms run alternately in this process,
//! round after round on identical stimulus, and the bench fails if the
//! median of the per-round empty/nominal time ratios exceeds 1.02: the
//! empty plan may cost at most 2%. Comparing like with like in one
//! process keeps the guard independent of the host's speed at the
//! time. The dormant-arm cost is reported (and archived) as the price
//! of an *active* campaign.
//!
//! The same per-lane write path carries the weight-update sign-off:
//! `wu_512_paper_ms` and `wu_8_paper_ms` are the medians of several
//! 512- and 8-pattern `measure_weight_update_patterns` calls on the
//! search-chosen paper chip — one lane per write pattern, per-lane
//! energies decoded from the engine's bit-sliced toggle counters. All
//! keys merge into `BENCH_engine.json`.

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use syndcim_core::{assemble, measure_weight_update_patterns, DesignChoice, EvalBackend, MacroSpec};
use syndcim_engine::{BatchSim, EngineSim, FaultPlan, Program};
use syndcim_netlist::NetId;
use syndcim_pdk::{CellLibrary, OperatingPoint};
use syndcim_sim::SimBackend;

/// Timed weight-update calls on the paper chip per pattern count (the
/// median is reported).
const WU_RUNS: usize = 7;

/// Alternated rounds of the nominal and empty-plan arms.
const PAIRED_ROUNDS: usize = 21;

/// Engine steps per arm and round.
const STEPS_PER_ROUND: usize = 100;

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

    // Nominal and empty-plan arms, alternated round by round (the
    // order flips every round) on identical stimulus streams.
    let mut arms = [BatchSim::new(&prog, module, 64), BatchSim::new(&prog, module, 64)];
    arms[1].install_faults(&FaultPlan::new()).expect("empty plan installs");
    let mut states = [0x5EED_u64; 2];
    let mut round_ns = |arm: usize| {
        let t0 = Instant::now();
        for _ in 0..STEPS_PER_ROUND {
            for &net in &in_nets {
                arms[arm].poke_word(net, next_word(&mut states[arm]));
            }
            arms[arm].step();
        }
        t0.elapsed().as_nanos() as f64 / STEPS_PER_ROUND as f64
    };
    round_ns(0);
    round_ns(1);
    let (mut nominal_ns, mut empty_ns, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..PAIRED_ROUNDS {
        let (n, e) = if round % 2 == 0 {
            let n = round_ns(0);
            (n, round_ns(1))
        } else {
            let e = round_ns(1);
            (round_ns(0), e)
        };
        nominal_ns.push(n);
        empty_ns.push(e);
        ratios.push(e / n);
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
        v[v.len() / 2]
    };

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

    let nominal_vps = 64.0 * 1e9 / median(&mut nominal_ns);
    let empty_vps = 64.0 * 1e9 / median(&mut empty_ns);
    let dormant_vps = 64.0 * 1e9 / dormant.ns_per_iter;
    println!("no plan:      {nominal_vps:>12.0} vectors/s");
    println!("empty plan:   {empty_vps:>12.0} vectors/s");
    println!("dormant plan: {dormant_vps:>12.0} vectors/s");

    // Empty-plan guard: the median paired ratio against the nominal
    // arm measured alongside it.
    let empty_overhead_pct = ((median(&mut ratios) - 1.0) * 100.0).max(0.0);
    let dormant_overhead_pct = ((nominal_vps - dormant_vps) / nominal_vps * 100.0).max(0.0);
    println!("empty-plan overhead vs nominal arm (median of {PAIRED_ROUNDS} paired rounds): {empty_overhead_pct:.2}%");
    println!("dormant-plan overhead vs nominal arm:         {dormant_overhead_pct:.2}%");

    // --- Weight-update sign-off on the paper chip ---------------------
    // Hand-timed: each call builds its own executor, so the median of
    // single calls is the figure, not the shim's batch mean.
    let (im, wu_lib) = syndcim_bench::implement_best(&spec);
    let op = OperatingPoint::at_voltage(spec.vdd_v);
    let wu_ms = |patterns: usize| {
        let mut ns: Vec<u128> = (0..WU_RUNS)
            .map(|_| {
                let t0 = Instant::now();
                let m = measure_weight_update_patterns(
                    &im,
                    &wu_lib,
                    op,
                    spec.f_wu_mhz,
                    0x5EED,
                    patterns,
                    EvalBackend::Engine,
                )
                .expect("the paper chip verifies every bitcell in every lane");
                let ns = t0.elapsed().as_nanos();
                black_box(m);
                ns
            })
            .collect();
        ns.sort_unstable();
        let ms = ns[WU_RUNS / 2] as f64 / 1e6;
        println!("{:<44} {ms:>11.3} ms /iter   (median of {WU_RUNS})", format!("wu_{patterns}_paper"));
        ms
    };
    let wu_512_ms = wu_ms(EngineSim::MAX_LANES);
    let wu_8_ms = wu_ms(8);

    syndcim_bench::merge_bench_artifact(
        &["faults_", "wu_"],
        &[
            ("wu_512_paper_ms", wu_512_ms),
            ("wu_8_paper_ms", wu_8_ms),
            ("faults_nominal_vps", nominal_vps),
            ("faults_empty_plan_vps", empty_vps),
            ("faults_dormant_plan_vps", dormant_vps),
            ("faults_empty_plan_overhead_pct", empty_overhead_pct),
            ("faults_dormant_plan_overhead_pct", dormant_overhead_pct),
        ],
    );

    assert!(
        empty_overhead_pct <= 2.0,
        "an empty fault plan must cost <= 2% of the nominal arm's time, cost {empty_overhead_pct:.2}%"
    );
}

criterion_group!(benches, bench_faults);
criterion_main!(benches);
