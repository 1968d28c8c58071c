//! Netlist → [`Program`] compilation.
//!
//! The shared [`Lowering`] pass validates connectivity and levelizes
//! the combinational instances (the same `syndcim_netlist::levelize`
//! order the interpreter uses, so both backends agree on evaluation
//! semantics); this module then lowers every cell's [`CellFunction`]
//! into AND/OR/XOR/NOT/MUX/CONST micro-ops over dense slots. Multi-op
//! lowerings route intermediate values through scratch slots so only
//! real net slots ever enter toggle accounting. The compiled timing
//! program in `syndcim-sta` consumes the same [`Lowering`], emitting
//! delay arcs where this module emits boolean ops.

use syndcim_netlist::{Module, NetlistError};
use syndcim_pdk::{CellFunction, CellLibrary};
use syndcim_telemetry as telemetry;

use syndcim_ir::Lowering;

use crate::program::{Commit, Op, Program, SCRATCH_SLOTS};

impl Program {
    /// Compile `module` against `lib`.
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist fails validation (floating nets,
    /// multiple drivers) or contains a combinational loop — the same
    /// conditions under which the interpreter refuses the module.
    pub fn compile(module: &Module, lib: &CellLibrary) -> Result<Program, NetlistError> {
        let low = Lowering::validated(module, lib)?;
        Ok(Self::from_lowering(&low, module, lib))
    }

    /// Lower an already-traversed module into a simulation program.
    ///
    /// This is the back half of [`Program::compile`]: callers that
    /// already hold a [`Lowering`] (for example to also build a compiled
    /// timing program from the same traversal) skip re-levelizing the
    /// netlist.
    pub fn from_lowering(low: &Lowering, module: &Module, lib: &CellLibrary) -> Program {
        telemetry::span!("engine.compile");
        let net_count = low.net_count();
        let scratch = net_count as u32;
        let mut ops = Vec::new();

        for &id in low.order() {
            let inst = &module.instances[id.index()];
            let cell = lib.cell(inst.cell);
            let i = |pin: usize| inst.inputs[pin].index() as u32;
            let o = |pin: usize| inst.outputs[pin].index() as u32;
            let (t0, t1, t2, t3, t4) = (scratch, scratch + 1, scratch + 2, scratch + 3, scratch + 4);
            match cell.function {
                CellFunction::Const(v) => ops.push(Op::Const { dst: o(0), ones: v }),
                CellFunction::Not => ops.push(Op::Not { dst: o(0), a: i(0) }),
                CellFunction::Identity => ops.push(Op::Copy { dst: o(0), a: i(0) }),
                CellFunction::And => ops.push(Op::And { dst: o(0), a: i(0), b: i(1) }),
                CellFunction::Nand => {
                    ops.push(Op::And { dst: t0, a: i(0), b: i(1) });
                    ops.push(Op::Not { dst: o(0), a: t0 });
                }
                CellFunction::Or => ops.push(Op::Or { dst: o(0), a: i(0), b: i(1) }),
                CellFunction::Nor => {
                    ops.push(Op::Or { dst: t0, a: i(0), b: i(1) });
                    ops.push(Op::Not { dst: o(0), a: t0 });
                }
                CellFunction::Xor => ops.push(Op::Xor { dst: o(0), a: i(0), b: i(1) }),
                CellFunction::Xnor => {
                    ops.push(Op::Xor { dst: t0, a: i(0), b: i(1) });
                    ops.push(Op::Not { dst: o(0), a: t0 });
                }
                CellFunction::Mux2 => ops.push(Op::Mux { dst: o(0), d0: i(0), d1: i(1), s: i(2) }),
                CellFunction::Oai21 => {
                    // !((a | b) & c)
                    ops.push(Op::Or { dst: t0, a: i(0), b: i(1) });
                    ops.push(Op::And { dst: t1, a: t0, b: i(2) });
                    ops.push(Op::Not { dst: o(0), a: t1 });
                }
                CellFunction::Oai22 => {
                    // !((a | b) & (c | d))
                    ops.push(Op::Or { dst: t0, a: i(0), b: i(1) });
                    ops.push(Op::Or { dst: t1, a: i(2), b: i(3) });
                    ops.push(Op::And { dst: t2, a: t0, b: t1 });
                    ops.push(Op::Not { dst: o(0), a: t2 });
                }
                CellFunction::Aoi21 => {
                    // !((a & b) | c)
                    ops.push(Op::And { dst: t0, a: i(0), b: i(1) });
                    ops.push(Op::Or { dst: t1, a: t0, b: i(2) });
                    ops.push(Op::Not { dst: o(0), a: t1 });
                }
                CellFunction::HalfAdder => {
                    ops.push(Op::Xor { dst: o(0), a: i(0), b: i(1) });
                    ops.push(Op::And { dst: o(1), a: i(0), b: i(1) });
                }
                CellFunction::FullAdder => {
                    // s = a ^ b ^ cin; co = (a & b) | ((a ^ b) & cin)
                    ops.push(Op::Xor { dst: t0, a: i(0), b: i(1) });
                    ops.push(Op::And { dst: t1, a: i(0), b: i(1) });
                    ops.push(Op::And { dst: t2, a: t0, b: i(2) });
                    ops.push(Op::Xor { dst: o(0), a: t0, b: i(2) });
                    ops.push(Op::Or { dst: o(1), a: t1, b: t2 });
                }
                CellFunction::Compressor42 => {
                    // x = a^b^c^d; s = x^cin; carry = x ? cin : d;
                    // cout = maj(a, b, c) = (a & b) | (c & (a ^ b)).
                    ops.push(Op::Xor { dst: t0, a: i(0), b: i(1) });
                    ops.push(Op::Xor { dst: t1, a: i(2), b: i(3) });
                    ops.push(Op::Xor { dst: t2, a: t0, b: t1 });
                    ops.push(Op::Xor { dst: o(0), a: t2, b: i(4) });
                    ops.push(Op::Mux { dst: o(1), d0: i(3), d1: i(4), s: t2 });
                    ops.push(Op::And { dst: t3, a: i(0), b: i(1) });
                    ops.push(Op::And { dst: t4, a: i(2), b: t0 });
                    ops.push(Op::Or { dst: o(2), a: t3, b: t4 });
                }
                CellFunction::MultMuxFused => {
                    // act & (s ? w1 : w0), inputs act, w0, w1, s.
                    ops.push(Op::Mux { dst: t0, d0: i(1), d1: i(2), s: i(3) });
                    ops.push(Op::And { dst: o(0), a: i(0), b: t0 });
                }
                CellFunction::SeqQ => unreachable!("sequential cells are excluded from levelize order"),
            }
        }

        let mut commits = Vec::new();
        let mut seq_of_inst = vec![u32::MAX; module.instance_count()];
        for (idx, inst) in module.instances.iter().enumerate() {
            let cell = lib.cell(inst.cell);
            let Some(seq) = cell.seq else { continue };
            seq_of_inst[idx] = commits.len() as u32;
            let in0 = inst.inputs[0].index() as u32;
            let in1 = inst.inputs.get(1).map_or(in0, |n| n.index() as u32);
            commits.push(Commit { update: seq.update, in0, in1, q: inst.outputs[0].index() as u32 });
        }

        let prog = Program {
            net_count,
            slot_count: net_count + SCRATCH_SLOTS,
            ops,
            commits,
            seq_of_inst,
            syms: low.symbols().clone(),
            blocks: Default::default(),
        };
        telemetry::counter("engine.ops_emitted").add(prog.op_count() as u64);
        telemetry::gauge("engine.retained_bytes").set(prog.retained_bytes() as u64);
        prog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndcim_netlist::NetlistBuilder;
    use syndcim_pdk::CellKind;

    #[test]
    fn compiles_every_combinational_cell_kind() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("all", &lib);
        let ins: Vec<_> = (0..5).map(|i| b.input(format!("i{i}"))).collect();
        let mut outs = Vec::new();
        for cell in lib.cells() {
            if cell.is_sequential() {
                continue;
            }
            let n = cell.function.input_count();
            outs.extend(b.add(cell.kind, &ins[..n]));
        }
        for (k, &o) in outs.iter().enumerate() {
            b.output(format!("o{k}"), o);
        }
        let m = b.finish();
        let p = Program::compile(&m, &lib).unwrap();
        assert!(p.op_count() > 0);
        assert_eq!(p.seq_count(), 0);
    }

    #[test]
    fn sequential_cells_become_commits() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("seq", &lib);
        let d = b.input("d");
        let en = b.input("en");
        let q0 = b.dff(d);
        let q1 = b.dffe(d, en);
        let rbl = b.add(CellKind::Sram6T2T, &[en, d])[0];
        b.output("q0", q0);
        b.output("q1", q1);
        b.output("rbl", rbl);
        let m = b.finish();
        let p = Program::compile(&m, &lib).unwrap();
        assert_eq!(p.seq_count(), 3);
        assert_eq!(p.op_count(), 0);
    }

    #[test]
    fn net_and_op_labels_resolve_through_the_interner() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("lbl", &lib);
        let a = b.input("a");
        let c = b.input("c");
        let y = b.add(CellKind::Nand2, &[a, c])[0];
        b.output("y", y);
        let m = b.finish();
        let p = Program::compile(&m, &lib).unwrap();
        // Every real slot resolves to its net name; scratch slots don't.
        for (i, net) in m.nets.iter().enumerate() {
            assert_eq!(p.net_label(i as u32), Some(net.name.as_str()));
        }
        assert_eq!(p.net_label(m.net_count() as u32), None, "scratch slots have no net label");
        // The NAND lowers to AND-into-scratch then NOT-into-`y`'s net.
        assert_eq!(p.op_label(0), format!("%{} = `a` & `c`", m.net_count()));
        assert_eq!(p.op_label(1), format!("`{}` = !%{}", m.nets[y.index()].name, m.net_count()));
    }

    #[test]
    fn rejects_combinational_loops_like_the_interpreter() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("loop", &lib);
        let a = b.input("a");
        let x = b.and2(a, a);
        let y = b.and2(x, x);
        b.output("y", y);
        let mut m = b.finish();
        let y_net = m.instances[1].outputs[0];
        m.instances[0].inputs[1] = y_net;
        assert!(Program::compile(&m, &lib).is_err());
    }
}
