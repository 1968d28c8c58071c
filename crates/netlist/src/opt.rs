//! Netlist cleanup: constant propagation and dead-gate sweep.
//!
//! This plays the gate-level-optimization role of the logic-synthesis
//! stage: subcircuit generators may tie unused legs to constants (e.g.
//! a half-populated compressor row, or a disabled MCR bank), and
//! [`optimize`] folds such constants through the logic and removes
//! gates whose outputs reach no port and no sequential element.
//!
//! The whole cleanup is one pass over the module:
//!
//! 1. one walk builds a flat CSR fanout (`u32` offsets plus sink
//!    instances), a flat `u32` driver table and the tie-cell seeds;
//! 2. a worklist propagates constants from the tie outputs, evaluating
//!    each touched gate on stack arrays;
//! 3. the readers and output ports of constant nets are rewired onto
//!    tie nets once;
//! 4. one reverse sweep over the instances marks everything that
//!    reaches an output port or a sequential element;
//! 5. one stable `retain` drops folded and dead instances together.
//!
//! Constant values are the least fixpoint of a monotone per-gate rule,
//! so the worklist reaches it in one pass whatever the instance order.

use crate::graph::{GroupId, Instance, Module, Net, NetId, PortDir};
use syndcim_pdk::{Cell, CellFunction, CellKind, CellLibrary};
use syndcim_telemetry as telemetry;

/// Result of running [`optimize`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptReport {
    /// Gates removed by constant folding.
    pub folded: usize,
    /// Gates removed as dead logic.
    pub swept: usize,
    /// Passes over the module (always 1).
    pub passes: usize,
}

/// Widest combinational fan-in in the library (the 4-2 compressor).
const MAX_FANIN: usize = 5;
/// Most outputs of one combinational cell (the 4-2 compressor).
const MAX_FANOUT: usize = 3;
/// Driver-table entry of an undriven net.
const UNDRIVEN: u32 = u32::MAX;
/// Driver-table entry of a net driven by an input port.
const PORT: u32 = u32::MAX - 1;

/// What the pass knows about a net.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Known {
    Unknown,
    /// Driven by a tie cell.
    Tie(bool),
    /// Driven by a gate proven constant; readers move to a tie net.
    Folded(bool),
}

impl Known {
    fn value(self) -> Option<bool> {
        match self {
            Known::Unknown => None,
            Known::Tie(v) | Known::Folded(v) => Some(v),
        }
    }
}

/// How the pass treats an instance, resolved once per library cell.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Comb,
    Tie(bool),
    /// State is observable behaviour: never folded, always a sweep root.
    Seq,
}

impl Role {
    fn of(cell: &Cell) -> Self {
        match cell.function {
            _ if cell.is_sequential() => Role::Seq,
            CellFunction::Const(v) => Role::Tie(v),
            _ => Role::Comb,
        }
    }
}

/// Instance readers of every net, as one flat CSR table.
struct Fanout {
    offsets: Vec<u32>,
    sinks: Vec<u32>,
}

impl Fanout {
    /// Fill the table from per-net reader counts (`counts[net]`, with one
    /// spare slot at the end): the counts become running ends, and a
    /// back-to-front fill slides every end down to its start.
    fn from_counts(module: &Module, mut counts: Vec<u32>) -> Self {
        let nets = counts.len() - 1;
        let mut end = 0;
        for c in &mut counts[..nets] {
            end += *c;
            *c = end;
        }
        counts[nets] = end;
        let mut sinks = vec![0u32; end as usize];
        for (i, inst) in module.instances.iter().enumerate().rev() {
            for n in &inst.inputs {
                let slot = &mut counts[n.index()];
                *slot -= 1;
                sinks[*slot as usize] = i as u32;
            }
        }
        Fanout { offsets: counts, sinks }
    }

    fn sinks(&self, net: usize) -> &[u32] {
        &self.sinks[self.offsets[net] as usize..self.offsets[net + 1] as usize]
    }
}

/// Fold constants through combinational gates and sweep dead logic, in
/// one pass. Ports and sequential elements are preserved; the module is
/// rebuilt with unused instances removed (net ids are preserved — nets
/// may become dangling, which is harmless for all downstream consumers).
///
/// A gate is folded when every output is constant; a gate with only
/// some constant outputs stays, but the readers of those outputs move
/// onto a tie net. Tie nets are reused (the first existing `TieLo` /
/// `TieHi`), else one tie cell per value is appended. A module that
/// arrives with a multiply-driven net is folded but not swept.
///
/// Returns a report of the work done.
pub fn optimize(module: &mut Module, lib: &CellLibrary) -> OptReport {
    let roles: Vec<Role> = lib.cells().iter().map(Role::of).collect();
    let role = |inst: &Instance| roles[inst.cell.index()];
    let nets = module.net_count();

    let mut known = vec![Known::Unknown; nets];
    let mut work: Vec<u32> = Vec::new();
    let mut first_tie: [Option<NetId>; 2] = [None, None];
    let (fanout, mut driver, multiply_driven) = {
        telemetry::span!("opt.fanout");
        let mut counts = vec![0u32; nets + 1];
        let mut driver = vec![UNDRIVEN; nets];
        let mut multiply_driven = false;
        for p in module.input_ports() {
            multiply_driven |= driver[p.net.index()] != UNDRIVEN;
            driver[p.net.index()] = PORT;
        }
        for (i, inst) in module.instances.iter().enumerate() {
            for n in &inst.inputs {
                counts[n.index()] += 1;
            }
            for n in &inst.outputs {
                multiply_driven |= driver[n.index()] != UNDRIVEN;
                driver[n.index()] = i as u32;
            }
            if let Role::Tie(v) = role(inst) {
                let net = inst.outputs[0];
                first_tie[v as usize].get_or_insert(net);
                if known[net.index()] == Known::Unknown {
                    known[net.index()] = Known::Tie(v);
                    work.push(net.0);
                }
            }
        }
        (Fanout::from_counts(module, counts), driver, multiply_driven)
    };

    let (dropped, folded) = {
        telemetry::span!("opt.fold");
        // Worklist propagation: a gate output is constant iff it agrees
        // across every assignment of the gate's unknown inputs.
        let mut folded_nets: Vec<u32> = Vec::new();
        let mut out_buf = Vec::with_capacity(MAX_FANOUT);
        while let Some(net) = work.pop() {
            for &s in fanout.sinks(net as usize) {
                let inst = &module.instances[s as usize];
                if role(inst) != Role::Comb || inst.outputs.iter().all(|n| known[n.index()] != Known::Unknown)
                {
                    continue;
                }
                let function = lib.cell(inst.cell).function;
                let k = function.input_count();
                if inst.inputs.len() < k {
                    continue;
                }
                let mut ins = [false; MAX_FANIN];
                let mut unknown = [0usize; MAX_FANIN];
                let mut u = 0;
                for (pin, n) in inst.inputs[..k].iter().enumerate() {
                    match known[n.index()].value() {
                        Some(v) => ins[pin] = v,
                        None => {
                            unknown[u] = pin;
                            u += 1;
                        }
                    }
                }
                let n_out = function.output_count();
                let mut first = [false; MAX_FANOUT];
                let mut consistent = [true; MAX_FANOUT];
                for combo in 0u32..(1 << u) {
                    for (j, &pin) in unknown[..u].iter().enumerate() {
                        ins[pin] = combo >> j & 1 == 1;
                    }
                    function.eval(&ins[..k], false, &mut out_buf);
                    if combo == 0 {
                        first[..n_out].copy_from_slice(&out_buf);
                    } else {
                        for pin in 0..n_out {
                            consistent[pin] &= out_buf[pin] == first[pin];
                        }
                    }
                }
                for pin in (0..n_out).filter(|&pin| consistent[pin]) {
                    let out = inst.outputs[pin];
                    if known[out.index()] == Known::Unknown {
                        known[out.index()] = Known::Folded(first[pin]);
                        work.push(out.0);
                        folded_nets.push(out.0);
                    }
                }
            }
        }
        telemetry::counter("opt.const_nets").add(folded_nets.len() as u64);

        // Rewire the readers of every folded net onto a tie net of its
        // value, then drop the gates all of whose outputs folded.
        let mut dropped = vec![false; module.instances.len()];
        let mut folded = 0;
        if !folded_nets.is_empty() {
            let mut tie: [Option<NetId>; 2] = [None, None];
            for v in [false, true] {
                if folded_nets.iter().any(|&n| known[n as usize] == Known::Folded(v)) {
                    let net = ensure_tie(module, lib, first_tie[v as usize], v);
                    if net.index() == known.len() {
                        known.push(Known::Tie(v));
                        driver.push(dropped.len() as u32);
                        dropped.push(false);
                    }
                    tie[v as usize] = Some(net);
                }
            }
            let subst = |n: NetId| match known[n.index()] {
                Known::Folded(v) => tie[v as usize],
                _ => None,
            };
            for &net in &folded_nets {
                for &s in fanout.sinks(net as usize) {
                    for n in module.instances[s as usize].inputs.iter_mut() {
                        if let Some(t) = subst(*n) {
                            *n = t;
                        }
                    }
                }
            }
            for p in module.ports.iter_mut().filter(|p| p.dir == PortDir::Output) {
                if let Some(t) = subst(p.net) {
                    p.net = t;
                }
            }
            for &net in &folded_nets {
                // A dropped gate no longer drives its outputs, so each
                // gate is dropped once.
                let i = driver[net as usize];
                if i >= PORT {
                    continue;
                }
                let inst = &module.instances[i as usize];
                if inst.outputs.iter().all(|n| matches!(known[n.index()], Known::Folded(_))) {
                    dropped[i as usize] = true;
                    folded += 1;
                    for n in &inst.outputs {
                        driver[n.index()] = UNDRIVEN;
                    }
                }
            }
        }
        (dropped, folded)
    };

    let swept = {
        telemetry::span!("opt.sweep");
        let keep = if multiply_driven {
            dropped.iter().map(|&d| !d).collect()
        } else {
            live_instances(module, &roles, &driver)
        };
        let swept = keep.iter().zip(&dropped).filter(|&(&k, &d)| !k && !d).count();
        let mut idx = 0;
        module.instances.retain(|_| {
            idx += 1;
            keep[idx - 1]
        });
        swept
    };

    telemetry::counter("opt.folded").add(folded as u64);
    telemetry::counter("opt.swept").add(swept as u64);
    OptReport { folded, swept, passes: 1 }
}

/// Mark the instances that reach an output port or a sequential
/// element, in one reverse sweep over the instances: a live instance
/// marks the drivers of its inputs. Drivers earlier in instance order
/// are reached by the sweep itself; the few behind it (register
/// feedback, reordered cones) are drained from a stack on the spot.
/// Folded gates drive nothing in `driver` and are not sequential, so
/// they are never live.
fn live_instances(module: &Module, roles: &[Role], driver: &[u32]) -> Vec<bool> {
    let mut live = vec![false; module.instances.len()];
    for p in module.output_ports() {
        let d = driver[p.net.index()];
        if d < PORT {
            live[d as usize] = true;
        }
    }
    let mut behind: Vec<u32> = Vec::new();
    for (i, inst) in module.instances.iter().enumerate().rev() {
        if !live[i] {
            if roles[inst.cell.index()] != Role::Seq {
                continue;
            }
            live[i] = true;
        }
        behind.push(i as u32);
        while let Some(j) = behind.pop() {
            for n in &module.instances[j as usize].inputs {
                let d = driver[n.index()];
                if d < PORT && !live[d as usize] {
                    live[d as usize] = true;
                    if d as usize > i {
                        behind.push(d);
                    }
                }
            }
        }
    }
    live
}

/// The tie net for `value`: `existing` (the first tie cell of that value
/// in the module) when there is one, else a freshly appended tie cell.
fn ensure_tie(module: &mut Module, lib: &CellLibrary, existing: Option<NetId>, value: bool) -> NetId {
    if let Some(net) = existing {
        return net;
    }
    let kind = if value { CellKind::TieHi } else { CellKind::TieLo };
    let id = NetId(module.nets.len() as u32);
    module.nets.push(Net { name: if value { "_tie1".into() } else { "_tie0".into() } });
    module.instances.push(Instance {
        name: if value { "_tiehi".into() } else { "_tielo".into() },
        cell: lib.id_of(kind),
        inputs: vec![],
        outputs: vec![id],
        group: GroupId::TOP,
    });
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{validate, Connectivity, Driver};
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
    fn multiply_driven_module_is_folded_but_not_swept() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("t", &lib);
        let a = b.input("a");
        let zero = b.const0();
        let shorted = b.not(a); // dead, and driven twice below
        let _ = b.buf(a);
        let x = b.and2(a, zero); // always 0
        let y = b.or2(x, a);
        b.output("y", y);
        let mut m = b.finish();
        m.instances[2].outputs[0] = shorted;
        let before = m.instance_count();
        let rep = optimize(&mut m, &lib);
        assert_eq!((rep.folded, rep.swept), (1, 0), "{rep:?}");
        assert_eq!(m.instance_count(), before - 1);
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
