//! Netlist cleanup passes: constant propagation and dead-gate sweep.
//!
//! These play the gate-level-optimization role of the logic-synthesis
//! stage: subcircuit generators may tie unused legs to constants (e.g.
//! a half-populated compressor row, or a disabled MCR bank), and these
//! passes fold such constants through the logic and remove gates whose
//! outputs reach no port and no sequential element.

use crate::analyze::{Connectivity, Driver};
use crate::graph::{Module, NetId, PortDir};
use syndcim_pdk::{CellFunction, CellKind, CellLibrary};

/// Result of running [`optimize`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptReport {
    /// Gates removed by constant folding.
    pub folded: usize,
    /// Gates removed as dead logic.
    pub swept: usize,
    /// Number of passes run until fixpoint.
    pub passes: usize,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Known {
    Unknown,
    Const(bool),
}

/// Fold constants through combinational gates and sweep dead logic until
/// fixpoint. Ports and sequential elements are preserved; the module is
/// rebuilt with unused instances removed (net ids are preserved — nets
/// may become dangling, which is harmless for all downstream consumers).
///
/// Returns a report of the work done.
pub fn optimize(module: &mut Module, lib: &CellLibrary) -> OptReport {
    let mut report = OptReport::default();
    loop {
        report.passes += 1;
        let folded = fold_constants(module, lib);
        let swept = sweep_dead(module, lib);
        report.folded += folded;
        report.swept += swept;
        if folded == 0 && swept == 0 {
            return report;
        }
        // Safety valve: the passes strictly shrink the instance list, so
        // this terminates; the cap only guards an internal logic error.
        if report.passes > 64 {
            return report;
        }
    }
}

/// One pass of constant folding. A gate all of whose *controlling* inputs
/// are known constants is replaced by rewiring its output to a tie net.
/// Returns the number of gates removed.
fn fold_constants(module: &mut Module, lib: &CellLibrary) -> usize {
    let mut known = vec![Known::Unknown; module.net_count()];
    // Seed with tie cells.
    for inst in &module.instances {
        let cell = lib.cell(inst.cell);
        if let CellFunction::Const(v) = cell.function {
            known[inst.outputs[0].index()] = Known::Const(v);
        }
    }
    // Propagate in instance order repeatedly (cheap fixpoint; the graphs
    // we build are shallow in constants).
    let mut changed = true;
    let mut evals = 0usize;
    while changed && evals < 8 {
        changed = false;
        evals += 1;
        let mut out_buf = Vec::new();
        for inst in &module.instances {
            let cell = lib.cell(inst.cell);
            if cell.is_sequential() || matches!(cell.function, CellFunction::Const(_)) {
                continue;
            }
            let unknowns: Vec<usize> = inst
                .inputs
                .iter()
                .enumerate()
                .filter(|(_, n)| known[n.index()] == Known::Unknown)
                .map(|(i, _)| i)
                .collect();
            if unknowns.is_empty() && inst.inputs.is_empty() {
                continue;
            }
            // A cell output is constant iff it agrees across every
            // assignment of the unknown inputs (cells have ≤ 5 inputs, so
            // this exact check costs at most 32 evaluations).
            let mut ins: Vec<bool> = inst
                .inputs
                .iter()
                .map(|n| match known[n.index()] {
                    Known::Const(v) => v,
                    Known::Unknown => false,
                })
                .collect();
            let n_out = cell.function.output_count();
            let mut agreed: Vec<Option<bool>> = vec![None; n_out];
            let mut consistent = vec![true; n_out];
            for combo in 0u32..(1 << unknowns.len()) {
                for (k, &pin) in unknowns.iter().enumerate() {
                    ins[pin] = combo >> k & 1 == 1;
                }
                cell.function.eval(&ins, false, &mut out_buf);
                for (pin, &v) in out_buf.iter().enumerate() {
                    match agreed[pin] {
                        None => agreed[pin] = Some(v),
                        Some(prev) if prev != v => consistent[pin] = false,
                        Some(_) => {}
                    }
                }
            }
            for pin in 0..n_out {
                if consistent[pin] {
                    if let Some(v) = agreed[pin] {
                        let net = inst.outputs[pin];
                        if known[net.index()] != Known::Const(v) {
                            known[net.index()] = Known::Const(v);
                            changed = true;
                        }
                    }
                }
            }
        }
    }

    // Rewire: every constant net driven by a non-tie combinational gate
    // gets its sinks redirected onto the tie cell; gates all of whose
    // outputs are constant are removed outright.
    let mut subst: Vec<Option<NetId>> = vec![None; module.net_count()];
    let mut to_fold = Vec::new();
    for (i, inst) in module.instances.iter().enumerate() {
        let cell = lib.cell(inst.cell);
        if cell.is_sequential() || matches!(cell.function, CellFunction::Const(_)) {
            continue;
        }
        if inst.outputs.iter().any(|n| matches!(known[n.index()], Known::Const(_))) {
            to_fold.push(i);
        }
    }
    if to_fold.is_empty() {
        return 0;
    }
    let need0 = to_fold
        .iter()
        .any(|&i| module.instances[i].outputs.iter().any(|n| known[n.index()] == Known::Const(false)));
    let need1 = to_fold
        .iter()
        .any(|&i| module.instances[i].outputs.iter().any(|n| known[n.index()] == Known::Const(true)));
    let tie0 = if need0 { Some(ensure_tie(module, lib, false)) } else { None };
    let tie1 = if need1 { Some(ensure_tie(module, lib, true)) } else { None };
    for &i in &to_fold {
        for &out in &module.instances[i].outputs {
            match known[out.index()] {
                Known::Const(false) => subst[out.index()] = Some(tie0.expect("tie0 exists")),
                Known::Const(true) => subst[out.index()] = Some(tie1.expect("tie1 exists")),
                Known::Unknown => {}
            }
        }
    }
    for inst in module.instances.iter_mut() {
        for n in inst.inputs.iter_mut() {
            if let Some(t) = subst[n.index()] {
                *n = t;
            }
        }
    }
    for p in module.ports.iter_mut() {
        if p.dir == PortDir::Output {
            if let Some(t) = subst[p.net.index()] {
                p.net = t;
            }
        }
    }
    // Remove gates whose every output folded (their nets now drive nothing).
    let mut folded = vec![false; module.instances.len()];
    for &i in &to_fold {
        folded[i] = true;
    }
    let before = module.instances.len();
    let mut idx = 0;
    module.instances.retain(|inst| {
        let drop_it = folded[idx] && inst.outputs.iter().all(|n| subst[n.index()].is_some());
        idx += 1;
        !drop_it
    });
    before - module.instances.len()
}

fn ensure_tie(module: &mut Module, lib: &CellLibrary, value: bool) -> NetId {
    let kind = if value { CellKind::TieHi } else { CellKind::TieLo };
    for inst in &module.instances {
        if lib.cell(inst.cell).kind == kind {
            return inst.outputs[0];
        }
    }
    let id = NetId(module.nets.len() as u32);
    module.nets.push(crate::graph::Net { name: if value { "_tie1".into() } else { "_tie0".into() } });
    module.instances.push(crate::graph::Instance {
        name: if value { "_tiehi".into() } else { "_tielo".into() },
        cell: lib.id_of(kind),
        inputs: vec![],
        outputs: vec![id],
        group: crate::graph::GroupId::TOP,
    });
    id
}

/// One pass of dead-gate sweeping: remove combinational instances none of
/// whose outputs reach an output port or any other live instance.
/// Returns the number removed.
fn sweep_dead(module: &mut Module, lib: &CellLibrary) -> usize {
    let conn = match Connectivity::build(module) {
        Ok(c) => c,
        // A transiently inconsistent module is left untouched.
        Err(_) => return 0,
    };
    let n = module.instances.len();
    let mut live = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();

    // Roots: drivers of output ports, and all sequential instances (their
    // state is observable behaviour), plus everything feeding a sequential
    // data pin.
    for p in module.output_ports() {
        if let Driver::Inst { inst, .. } = conn.driver_of(p.net) {
            if !live[inst.index()] {
                live[inst.index()] = true;
                stack.push(inst.index());
            }
        }
    }
    for (i, inst) in module.instances.iter().enumerate() {
        if lib.cell(inst.cell).is_sequential() && !live[i] {
            live[i] = true;
            stack.push(i);
        }
    }
    while let Some(i) = stack.pop() {
        for &net in &module.instances[i].inputs {
            if let Driver::Inst { inst, .. } = conn.driver_of(net) {
                if !live[inst.index()] {
                    live[inst.index()] = true;
                    stack.push(inst.index());
                }
            }
        }
    }

    let before = module.instances.len();
    let mut idx = 0;
    module.instances.retain(|_| {
        let keep = live[idx];
        idx += 1;
        keep
    });
    before - module.instances.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::validate;
    use crate::builder::NetlistBuilder;

    #[test]
    fn constant_and_folds_away() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("t", &lib);
        let a = b.input("a");
        let zero = b.const0();
        let dead = b.and2(a, zero); // always 0
        let y = b.or2(dead, a); // reduces to buffer-of-a behaviourally
        b.output("y", y);
        let mut m = b.finish();
        let before = m.instance_count();
        let rep = optimize(&mut m, &lib);
        assert!(rep.folded >= 1, "AND with constant 0 must fold: {rep:?}");
        assert!(m.instance_count() < before);
        let conn = Connectivity::build(&m).unwrap();
        validate(&m, &conn).unwrap();
    }

    #[test]
    fn fully_constant_cone_leaves_only_ties() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("t", &lib);
        let one = b.const1();
        let zero = b.const0();
        let x = b.and2(one, zero);
        let y = b.xor2(x, one);
        b.output("y", y);
        let mut m = b.finish();
        optimize(&mut m, &lib);
        // Everything but tie cells should be gone.
        assert!(m
            .instances
            .iter()
            .all(|i| matches!(lib.cell(i.cell).kind, CellKind::TieHi | CellKind::TieLo)));
        // And the output must now be driven by the tie-1 (1&0=0, 0^1=1).
        let conn = Connectivity::build(&m).unwrap();
        let out = m.port("y").unwrap().net;
        match conn.driver_of(out) {
            Driver::Inst { inst, .. } => {
                assert_eq!(lib.cell(m.instances[inst.index()].cell).kind, CellKind::TieHi);
            }
            other => panic!("expected tie driver, got {other:?}"),
        }
    }

    #[test]
    fn dead_logic_swept_registers_kept() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("t", &lib);
        let a = b.input("a");
        let _unused = b.xor2(a, a); // drives nothing
        let q = b.dff(a); // sequential: kept even though q is unused
        let y = b.not(a);
        b.output("y", y);
        let _ = q;
        let mut m = b.finish();
        let rep = optimize(&mut m, &lib);
        assert!(rep.swept >= 1);
        assert_eq!(
            m.instances.iter().filter(|i| lib.cell(i.cell).is_sequential()).count(),
            1,
            "register must survive the sweep"
        );
    }

    #[test]
    fn optimize_is_idempotent() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("t", &lib);
        let a = b.input("a");
        let zero = b.const0();
        let x = b.and2(a, zero);
        let y = b.or2(x, a);
        b.output("y", y);
        let mut m = b.finish();
        optimize(&mut m, &lib);
        let snapshot = m.clone();
        let rep2 = optimize(&mut m, &lib);
        assert_eq!(rep2.folded, 0);
        assert_eq!(rep2.swept, 0);
        assert_eq!(m, snapshot);
    }
}
