//! Pins the shared-IR contract of the implementation flow: one
//! `implement` call walks the netlist for compilation **exactly once**,
//! and the resulting lowering feeds all three compiled analysis
//! programs (simulation, timing, power).
//!
//! This file deliberately contains a single test: `Lowering::builds()`
//! is a process-global counter, and integration-test binaries are the
//! only place a test can observe it without interference from
//! concurrently running tests (each test file is its own process; tests
//! *within* a file share one).

use syndcim_core::{implement, DesignChoice, MacroSpec};
use syndcim_ir::Lowering;
use syndcim_pdk::{CellLibrary, OperatingPoint};
use syndcim_sta::{Sta, WireLoads};

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

#[test]
fn implement_builds_exactly_one_lowering_shared_by_sim_sta_power() {
    let lib = CellLibrary::syn40();

    // Compiled sign-off backend (the default path).
    let before = Lowering::builds();
    let im = implement(&lib, &tiny_spec(), &DesignChoice::default()).unwrap();
    assert_eq!(
        Lowering::builds(),
        before + 1,
        "implement must lower the netlist exactly once, shared by sim/STA/power"
    );

    // The single lowering demonstrably feeds all three programs.
    let n = im.mac.module.net_count();
    assert_eq!(im.compiled.lowering.net_count(), n);
    assert_eq!(im.compiled.program.net_count(), n, "simulation program rides the shared IR");
    assert_eq!(im.compiled.sta.net_count(), n, "timing program rides the shared IR");
    assert_eq!(im.compiled.power.net_count(), n, "power program rides the shared IR");

    // ... and the bundle is queryable without any further lowering.
    let mid = Lowering::builds();
    let op = OperatingPoint::at_voltage(0.9);
    let _fmax = im.compiled.sta.fmax_mhz(op);
    let toggles = vec![1u64; n];
    let _power = im.compiled.power.report(&toggles, 4, 400.0, op);
    assert_eq!(Lowering::builds(), mid, "sign-off queries must not re-walk the netlist");

    // The reference analyzer, built as an oracle from the bundle's
    // lowering (a clone is a memcpy, not a walk), adds no lowering and
    // signs off identically.
    let spec = tiny_spec();
    let before_ref = Lowering::builds();
    let reference = Sta::with_lowering(&im.mac.module, &lib, im.compiled.lowering.clone())
        .with_wire_loads(WireLoads { cap_ff: im.wires.cap_ff.clone(), delay_ps: im.wires.delay_ps.clone() })
        .analyze_at(spec.mac_period_ps(), OperatingPoint::at_voltage(spec.vdd_v));
    assert_eq!(Lowering::builds(), before_ref, "the reference oracle shares the single lowering");
    assert_eq!(
        reference.max_delay_ps, im.timing.max_delay_ps,
        "compiled sign-off matches the oracle bit for bit"
    );
}
