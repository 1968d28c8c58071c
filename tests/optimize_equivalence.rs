//! Equivalence differential for the netlist cleanup pass
//! (`syndcim_netlist::optimize`).
//!
//! The reference oracle below is the earlier fixpoint implementation,
//! kept verbatim: repeated passes of instance-order constant folding
//! (capped at 8 rounds) followed by a `Connectivity`-based dead sweep,
//! until a pass changes nothing. Three properties are pinned:
//!
//! * **byte identity on generator netlists** — the one-pass `optimize`
//!   yields a `Module ==` the oracle's, with equal `folded`/`swept`, on
//!   the search-chosen paper chip, the default 64×64 macro and a
//!   bitcell × mult-mux × tree-kind × column-split grid at 8×8 and
//!   64×64, with and without FP units;
//! * **behavioural equivalence on seeded random netlists** — constant
//!   cones deeper than the oracle's 8-round cap and built against
//!   instance order, HA/FA/C42 cells with one constant output, register
//!   feedback loops and dead cones: the pre- and post-optimize modules
//!   agree on every output port on every cycle of seeded stimulus;
//! * **idempotence** — a second `optimize` reports 0/0 and leaves the
//!   module unchanged.
//!
//! The 256×256 scale-tier identity arm runs only under
//! `SYNDCIM_SLOW_TESTS=1`.

use rand::rngs::StdRng;
use rand::Rng;
use syndcim_core::{assemble, search, DesignChoice, MacroSpec};
use syndcim_netlist::{optimize, Module, NetId, NetlistBuilder};
use syndcim_pdk::{CellKind, CellLibrary};
use syndcim_scl::Scl;
use syndcim_sim::vectors::seeded_rng;
use syndcim_sim::{FpFormat, Simulator};
use syndcim_subckt::{AdderTreeKind, BitcellKind, MultMuxKind};

/// The earlier fixpoint `optimize`, kept as the test oracle.
mod reference {
    use syndcim_netlist::{Connectivity, Driver, Module, NetId, OptReport, PortDir};
    use syndcim_pdk::{CellFunction, CellKind, CellLibrary};

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
        module.nets.push(syndcim_netlist::Net { name: if value { "_tie1".into() } else { "_tie0".into() } });
        module.instances.push(syndcim_netlist::Instance {
            name: if value { "_tiehi".into() } else { "_tielo".into() },
            cell: lib.id_of(kind),
            inputs: vec![],
            outputs: vec![id],
            group: syndcim_netlist::GroupId::TOP,
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
}

/// Optimize `module` with both implementations and require identical
/// modules and `folded`/`swept` counts, then idempotence.
fn assert_identical(lib: &CellLibrary, module: &Module, label: &str) {
    let mut want = module.clone();
    let want_report = reference::optimize(&mut want, lib);
    let mut got = module.clone();
    let report = optimize(&mut got, lib);
    assert_eq!(report.passes, 1, "{label}");
    assert_eq!(
        (report.folded, report.swept),
        (want_report.folded, want_report.swept),
        "{label}: folded/swept diverge from the oracle"
    );
    assert!(got == want, "{label}: optimized module diverges from the oracle");
    assert_idempotent(lib, &mut got, label);
}

fn assert_idempotent(lib: &CellLibrary, module: &mut Module, label: &str) {
    let snapshot = module.clone();
    let again = optimize(module, lib);
    assert_eq!((again.folded, again.swept), (0, 0), "{label}: second optimize must be a no-op");
    assert!(*module == snapshot, "{label}: second optimize changed the module");
}

fn spec(dim: usize, fp: bool) -> MacroSpec {
    MacroSpec {
        h: dim,
        w: dim,
        mcr: 2,
        int_precisions: vec![1, 2, 4, 8],
        fp_precisions: if fp { vec![FpFormat::FP4, FpFormat::FP8] } else { vec![] },
        f_mac_mhz: 500.0,
        f_wu_mhz: 500.0,
        vdd_v: 0.9,
        ppa: Default::default(),
    }
}

const BITCELLS: [BitcellKind; 3] = [BitcellKind::Sram6T2T, BitcellKind::Latch8T, BitcellKind::Oai12T];
const MULTMUXES: [MultMuxKind; 3] = [MultMuxKind::PassGate1T, MultMuxKind::TgNor, MultMuxKind::Oai22Fused];
const TREES: [AdderTreeKind; 3] =
    [AdderTreeKind::RcaTree, AdderTreeKind::CompressorCsa, AdderTreeKind::MixedCsa { fa_rounds: 1 }];
const SPLITS: [usize; 3] = [1, 2, 4];

fn choice(
    bitcell: BitcellKind,
    multmux: MultMuxKind,
    tree_kind: AdderTreeKind,
    split: usize,
) -> DesignChoice {
    DesignChoice { bitcell, multmux, tree_kind, column_split: split, ..DesignChoice::default() }
}

#[test]
fn paper_chip_and_default_64x64_are_byte_identical() {
    let paper_spec = MacroSpec::paper_test_chip();
    let mut scl = Scl::new();
    let found = search(&paper_spec, &mut scl);
    let best = found.best(&paper_spec).expect("the paper chip is feasible");
    let lib = scl.cell_library().clone();
    let paper = assemble(&lib, &paper_spec, &best.choice);
    assert_identical(&lib, &paper.module, "paper chip");

    let lib = CellLibrary::syn40();
    let default = assemble(&lib, &spec(64, false), &DesignChoice::default());
    assert_identical(&lib, &default.module, "default 64x64");
}

/// The full design grid at 8×8, with and without FP units.
#[test]
fn design_grid_8x8_is_byte_identical() {
    let lib = CellLibrary::syn40();
    for fp in [false, true] {
        let s = spec(8, fp);
        for bitcell in BITCELLS {
            for multmux in MULTMUXES {
                for tree in TREES {
                    for split in SPLITS {
                        let c = choice(bitcell, multmux, tree, split);
                        let mac = assemble(&lib, &s, &c);
                        assert_identical(&lib, &mac.module, &format!("8x8 fp={fp} {}", c.label()));
                    }
                }
            }
        }
    }
}

/// A covering subset of the grid at 64×64 — every value of every axis
/// once — with and without FP units.
#[test]
fn design_grid_64x64_is_byte_identical() {
    let lib = CellLibrary::syn40();
    for fp in [false, true] {
        let s = spec(64, fp);
        for i in 0..3 {
            let c = choice(BITCELLS[i], MULTMUXES[(i + 1) % 3], TREES[(i + 2) % 3], SPLITS[i]);
            let mac = assemble(&lib, &s, &c);
            assert_identical(&lib, &mac.module, &format!("64x64 fp={fp} {}", c.label()));
        }
    }
}

/// The 256×256 scale tier (slow; `SYNDCIM_SLOW_TESTS=1`).
#[test]
fn scale_tier_is_byte_identical() {
    if std::env::var_os("SYNDCIM_SLOW_TESTS").is_none() {
        eprintln!("skipping the 256x256 arm; set SYNDCIM_SLOW_TESTS=1 to run it");
        return;
    }
    let lib = CellLibrary::syn40();
    let mac = assemble(&lib, &spec(256, false), &DesignChoice::default());
    assert_identical(&lib, &mac.module, "256x256");
}

const RANDOM_CASES: u64 = 48;
const CYCLES: usize = 24;

/// Combinational cells the random netlists draw from.
const GATES: [CellKind; 17] = [
    CellKind::Inv,
    CellKind::Buf,
    CellKind::Nand2,
    CellKind::Nor2,
    CellKind::And2,
    CellKind::Or2,
    CellKind::Xor2,
    CellKind::Xnor2,
    CellKind::Mux2,
    CellKind::Oai21,
    CellKind::Oai22,
    CellKind::Aoi21,
    CellKind::Ha,
    CellKind::Fa,
    CellKind::C42,
    CellKind::MultNor,
    CellKind::MuxPg2,
];

/// A net from `pool`, or one time in five a tie net.
fn pick(b: &mut NetlistBuilder, rng: &mut StdRng, pool: &[NetId]) -> NetId {
    match rng.gen_range(0..10) {
        0 => b.const0(),
        1 => b.const1(),
        _ => pool[rng.gen_range(0..pool.len())],
    }
}

/// A seeded random netlist. With `deep_cone`, it also carries a chain
/// of more than 8 gates whose constant flows from the last instance to
/// the first, i.e. against instance order.
fn random_netlist(lib: &CellLibrary, seed: u64, deep_cone: bool) -> Module {
    let mut rng = seeded_rng(seed);
    let mut b = NetlistBuilder::new("rand", lib);
    let mut pool: Vec<NetId> = (0..rng.gen_range(2..6)).map(|i| b.input(format!("in{i}"))).collect();
    let arity = |kind: CellKind| lib.cell(lib.id_of(kind)).inputs.len();

    // Registers first, with placeholder data pins patched at the end so
    // their next-state logic closes feedback loops.
    let mut regs = Vec::new();
    for r in 0..rng.gen_range(1..4) {
        let placeholder = b.net(format!("fb{r}"));
        let idx = b.module().instances.len();
        let q = if rng.gen_bool(0.5) {
            b.dff(placeholder)
        } else {
            let en = pool[rng.gen_range(0..pool.len())];
            b.dffe(placeholder, en)
        };
        regs.push(idx);
        pool.push(q);
    }

    let mut outputs = Vec::new();
    for _ in 0..rng.gen_range(30..90) {
        let outs = match rng.gen_range(0..8) {
            // Multi-output cells with exactly one constant output.
            0 => {
                let x = pick(&mut b, &mut rng, &pool);
                let zero = b.const0();
                let (s, c) = b.ha(x, zero);
                vec![s, c]
            }
            1 => {
                let x = pick(&mut b, &mut rng, &pool);
                let one = b.const1();
                let (s, co) = b.fa(x, one, one);
                vec![s, co]
            }
            2 => {
                let ins: Vec<NetId> = (0..3).map(|_| pick(&mut b, &mut rng, &pool)).collect();
                let zero = b.const0();
                let (s, c, co) = b.c42(ins[0], ins[1], ins[2], zero, zero);
                vec![s, c, co]
            }
            _ => {
                let kind = GATES[rng.gen_range(0..GATES.len())];
                let ins: Vec<NetId> = (0..arity(kind)).map(|_| pick(&mut b, &mut rng, &pool)).collect();
                b.add(kind, &ins)
            }
        };
        if rng.gen_bool(0.15) {
            outputs.push(outs[rng.gen_range(0..outs.len())]);
        }
        pool.extend(outs);
    }

    if deep_cone {
        // Choose the chain back to front: gate j's chain input carries
        // the constant `values[j + 1]`, and the gate must map it to a
        // constant whatever its side input does.
        let depth = rng.gen_range(9usize..16);
        let mut values = vec![rng.gen_bool(0.5); depth + 1];
        let mut kinds = vec![CellKind::Inv; depth];
        for j in (0..depth).rev() {
            let v = values[j + 1];
            let options: &[(CellKind, bool)] = if v {
                &[
                    (CellKind::Inv, false),
                    (CellKind::Buf, true),
                    (CellKind::Or2, true),
                    (CellKind::Nor2, false),
                ]
            } else {
                &[
                    (CellKind::Inv, true),
                    (CellKind::Buf, false),
                    (CellKind::And2, false),
                    (CellKind::Nand2, true),
                ]
            };
            let (kind, out) = options[rng.gen_range(0..options.len())];
            kinds[j] = kind;
            values[j] = out;
        }
        let mut chain = Vec::new();
        for (j, &kind) in kinds.iter().enumerate() {
            let placeholder = b.net(format!("chain{j}"));
            let mut ins = vec![placeholder];
            if arity(kind) == 2 {
                ins.push(pool[rng.gen_range(0..pool.len())]);
            }
            chain.push((b.module().instances.len(), b.add(kind, &ins)[0]));
        }
        for j in 0..depth {
            let src = if j + 1 < depth {
                chain[j + 1].1
            } else if values[depth] {
                b.const1()
            } else {
                b.const0()
            };
            b.patch_instance_input(chain[j].0, 0, src);
        }
        let head = chain[0].1;
        outputs.push(head);
        let x = pool[rng.gen_range(0..pool.len())];
        let mixed = b.xor2(head, x);
        outputs.push(mixed);
        pool.push(mixed);
    }

    for &idx in &regs {
        b.patch_instance_input(idx, 0, pool[rng.gen_range(0..pool.len())]);
    }
    outputs.extend(regs.iter().map(|&idx| b.module().instances[idx].outputs[0]));
    for (i, net) in outputs.into_iter().enumerate() {
        b.output(format!("out{i}"), net);
    }
    b.finish()
}

/// Drive `before` and `after` with the same seeded stimulus and require
/// every output port to agree on every cycle.
fn assert_same_behaviour(lib: &CellLibrary, before: &Module, after: &Module, seed: u64) {
    let mut a = Simulator::new(before, lib).expect("random netlists are valid");
    let mut b = Simulator::new(after, lib).expect("optimized netlists are valid");
    let inputs: Vec<String> = before.input_ports().map(|p| p.name.clone()).collect();
    let outputs: Vec<String> = before.output_ports().map(|p| p.name.clone()).collect();
    let mut rng = seeded_rng(seed ^ 0x57_1A);
    for cycle in 0..CYCLES {
        for name in &inputs {
            let v = rng.gen_bool(0.5);
            a.set(name, v);
            b.set(name, v);
        }
        a.settle();
        b.settle();
        for name in &outputs {
            assert_eq!(a.get(name), b.get(name), "seed {seed:#x}, cycle {cycle}: output `{name}` diverged");
        }
        a.step();
        b.step();
    }
}

#[test]
fn random_netlists_behave_identically() {
    let lib = CellLibrary::syn40();
    let (mut folded, mut swept, mut capped) = (0, 0, 0);
    for case in 0..RANDOM_CASES {
        let seed = 0x0971_0000 + case;
        let deep_cone = case % 2 == 1;
        let before = random_netlist(&lib, seed, deep_cone);
        let mut after = before.clone();
        let report = optimize(&mut after, &lib);
        assert_eq!(report.passes, 1);
        folded += report.folded;
        swept += report.swept;
        assert_same_behaviour(&lib, &before, &after, seed);
        assert_idempotent(&lib, &mut after, &format!("seed {seed:#x}"));
        if deep_cone {
            // The oracle needs extra passes here and may settle on other
            // tie cells; it must still behave the same.
            let mut oracle = before.clone();
            capped += usize::from(reference::optimize(&mut oracle, &lib).passes > 2);
            assert_same_behaviour(&lib, &before, &oracle, seed);
        } else {
            // Constants flow in instance order: byte identity holds.
            assert_identical(&lib, &before, &format!("seed {seed:#x}"));
        }
    }
    assert!(
        folded > 0 && swept > 0,
        "random netlists must exercise folding ({folded}) and sweeping ({swept})"
    );
    assert!(capped > 0, "some deep cones must exceed the oracle's 8-round cap");
}
