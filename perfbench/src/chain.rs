//! The `implement` flow rebuilt from the crates' public calls, in the
//! order `syndcim_core::flow::implement_with` makes them, with a span
//! around each call and counts recorded at each layer boundary.
//!
//! The chain must give bit-identical results to `implement`; every
//! workload checks that on its traced passes.

use syndcim_core::artifact::retained_bytes;
use syndcim_core::{assemble, CompiledMacro, CoreError, DesignChoice, ImplementedMacro, MacroSpec};
use syndcim_engine::Program;
use syndcim_ir::{Lowering, Symbols};
use syndcim_layout::{check_drc, extract_wires, place_with_symbols, FloorplanConfig};
use syndcim_netlist::{levelize, optimize, validate, Connectivity, Module};
use syndcim_pdk::{CellLibrary, OperatingPoint};
use syndcim_power::PowerAnalyzer;
use syndcim_sta::{Sta, TimingReport, WireLoads};
use syndcim_telemetry as telemetry;

use crate::trace::Tracer;

/// Run the implementation flow for one design choice with every layer
/// call traced.
///
/// # Errors
///
/// As [`syndcim_core::implement`].
pub fn implement_traced(
    tr: &mut Tracer,
    lib: &CellLibrary,
    spec: &MacroSpec,
    choice: &DesignChoice,
) -> Result<ImplementedMacro, CoreError> {
    spec.validate()?;
    let mut mac = tr.span("core.assemble", |_| assemble(lib, spec, choice));
    tr.count("core.assemble.nets", mac.module.net_count() as f64);
    tr.count("core.assemble.instances", mac.module.instance_count() as f64);

    let synth_report = tr.span("netlist.optimize", |_| optimize(&mut mac.module, lib));
    tr.count("netlist.optimize.passes", synth_report.passes as f64);
    tr.count("netlist.optimize.folded", synth_report.folded as f64);
    tr.count("netlist.optimize.swept", synth_report.swept as f64);
    tr.count("netlist.optimize.instances_after", mac.module.instance_count() as f64);

    let module = &mac.module;
    let lowering = tr.span("ir.lower", |_| Lowering::validated(module, lib))?;
    let placement = tr.span("layout.place", |_| {
        place_with_symbols(module, lib, FloorplanConfig::default(), lowering.symbols())
    })?;
    tr.count("layout.regions", placement.regions.len() as f64);
    tr.span("layout.drc", |_| check_drc(module, &placement))?;
    let wires = tr.span("layout.wires", |_| extract_wires(module, lib, &placement))?;

    // `CompiledMacro::compile_with_lowering`, call by call.
    let wire_loads = WireLoads { cap_ff: wires.cap_ff.clone(), delay_ps: wires.delay_ps.clone() };
    let compiled = tr.span("core.compile", |tr| {
        let program = tr.span("engine.compile", |_| Program::from_lowering(&lowering, module, lib));
        let power = tr.span("power.compile", |_| {
            PowerAnalyzer::from_lowering(module, lib, &lowering, &wire_loads.cap_ff).compile()
        });
        let sta = tr.span("sta.compile", |_| {
            Sta::with_lowering(module, lib, lowering.clone()).with_wire_loads(wire_loads.clone()).compile()
        });
        CompiledMacro { lowering, program, sta, power }
    });
    tr.count("engine.ops", compiled.program.op_count() as f64);
    tr.count("sta.arcs", compiled.sta.arc_count() as f64);
    tr.count("core.compiled_bytes", retained_bytes(&compiled) as f64);

    let (period, op) = (spec.mac_period_ps(), OperatingPoint::at_voltage(spec.vdd_v));
    let timing = tr.span("sta.signoff", |_| compiled.sta.analyze_at(period, op));

    let report = telemetry::snapshot();
    Ok(ImplementedMacro { mac, placement, wires, synth_report, timing, spec: spec.clone(), compiled, report })
}

/// Re-run the passes `Lowering::validated` is made of, one traced call
/// each, on an already-lowered module: the breakdown of `ir.lower`.
///
/// # Errors
///
/// The module's connectivity, levelization or validation error (none
/// for a module `implement` accepted).
pub fn lowering_subpasses(
    tr: &mut Tracer,
    module: &Module,
    lib: &CellLibrary,
) -> Result<(), syndcim_netlist::NetlistError> {
    let conn = tr.span("netlist.connectivity", |_| Connectivity::build(module))?;
    tr.span("netlist.levelize", |_| levelize(module, lib, &conn))?;
    tr.span("ir.intern", |_| Symbols::from_module(module));
    tr.span("netlist.validate", |_| validate(module, &conn))
}

/// `true` when two sign-off reports agree bit for bit on worst delay,
/// worst slack and critical path.
pub fn same_signoff(a: &TimingReport, b: &TimingReport) -> bool {
    a.max_delay_ps.to_bits() == b.max_delay_ps.to_bits()
        && a.wns_ps.to_bits() == b.wns_ps.to_bits()
        && a.critical_path == b.critical_path
}
