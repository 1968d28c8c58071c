//! Edge cases of the activity-gated engine: a settle runs only the op
//! blocks with a changed input and a step skips the enable groups whose
//! enable word is zero, so every write from outside a pass has to reach
//! the blocks and commits that a full pass would have run.
//!
//! Each case runs on an 8×8 macro, seeded, on every SIMD backend this
//! host runs (only the pinned one under `SYNDCIM_SIMD`). Fault-free
//! steps are checked against one interpreter per watched lane: every
//! net after every settle, and per-lane toggle tables where the case
//! allows per-lane counting. Fault cases are checked against an
//! unfaulted engine twin driven in lockstep.

use rand::Rng;
use syndcim_core::{assemble, DesignChoice, MacroSpec};
use syndcim_engine::{EngineSim, FaultPlan, Program, SimdBackend, SimdPolicy};
use syndcim_ir::Lowering;
use syndcim_netlist::{InstId, Module, NetId};
use syndcim_pdk::{CellLibrary, SeqUpdate};
use syndcim_sim::vectors::seeded_rng;
use syndcim_sim::{SimBackend, Simulator};

fn small_spec() -> MacroSpec {
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

/// Backends and lane counts to run: the `u64`, 256- and 512-lane
/// portable words and every detected ISA word, or only the pinned
/// backend.
fn backends() -> Vec<(SimdBackend, usize)> {
    let pinned = match SimdPolicy::from_env().expect("SYNDCIM_SIMD is valid") {
        SimdPolicy::Pin(backend) => Some(backend),
        SimdPolicy::Auto => None,
    };
    [
        (SimdBackend::Portable, 5),
        (SimdBackend::Portable, 70),
        (SimdBackend::Portable, 300),
        (SimdBackend::Avx2, 130),
        (SimdBackend::Avx512, 300),
        (SimdBackend::Neon, 130),
    ]
    .into_iter()
    .filter(|&(b, _)| b.detected() && pinned.is_none_or(|p| p == b))
    .collect()
}

/// The 8×8 macro and its cell library.
struct Chip {
    lib: CellLibrary,
    module: Module,
}

impl Chip {
    fn new() -> Chip {
        let lib = CellLibrary::syn40();
        let module = assemble(&lib, &small_spec(), &DesignChoice::default()).module;
        Chip { lib, module }
    }

    fn inputs(&self) -> Vec<NetId> {
        self.module.input_ports().map(|p| p.net).collect()
    }

    fn port(&self, name: &str) -> NetId {
        self.module.port(name).unwrap_or_else(|| panic!("no port `{name}`")).net
    }

    /// Sequential instances with the given update rule.
    fn seq(&self, update: SeqUpdate) -> impl Iterator<Item = InstId> + '_ {
        (0..self.module.instance_count())
            .filter(move |&i| {
                self.lib.cell(self.module.instances[i].cell).seq.map(|s| s.update) == Some(update)
            })
            .map(|i| InstId(i as u32))
    }
}

/// An engine executor plus one interpreter per watched lane, driven
/// with the same stimulus.
struct Rig<'a> {
    sim: EngineSim<'a>,
    refs: Vec<(usize, Simulator<'a>)>,
    inputs: Vec<NetId>,
    rng: rand::rngs::StdRng,
}

impl<'a> Rig<'a> {
    fn new(
        chip: &'a Chip,
        low: &'a Lowering,
        prog: &'a Program,
        (backend, lanes): (SimdBackend, usize),
        watch: &[usize],
        seed: u64,
    ) -> Rig<'a> {
        let sim = EngineSim::with_backend(prog, &chip.module, lanes, backend).unwrap();
        let mut watch = watch.to_vec();
        watch.sort_unstable();
        watch.dedup();
        let refs = watch
            .into_iter()
            .map(|l| (l, Simulator::with_lowering(&chip.module, &chip.lib, low).unwrap()))
            .collect();
        Rig { sim, refs, inputs: chip.inputs(), rng: seeded_rng(seed) }
    }

    fn label(&self) -> String {
        format!("{} at {} lanes", self.sim.simd_backend(), self.sim.lanes())
    }

    fn poke(&mut self, net: NetId, wi: usize, word: u64) {
        self.sim.poke_word_at(net, wi, word);
        for (l, r) in &mut self.refs {
            if *l / 64 == wi {
                r.poke(net, (word >> (*l % 64)) & 1 == 1);
            }
        }
    }

    /// Drive every input word with random bits.
    fn drive_random(&mut self) {
        for k in 0..self.inputs.len() {
            for wi in 0..self.sim.words() {
                let word = self.rng.gen_range(0..u64::MAX);
                self.poke(self.inputs[k], wi, word);
            }
        }
    }

    fn settle(&mut self) {
        self.sim.settle();
        for (_, r) in &mut self.refs {
            r.settle();
        }
    }

    fn step(&mut self) {
        self.sim.step();
        for (_, r) in &mut self.refs {
            Simulator::step(r);
        }
    }

    /// Every net of every watched lane equals its interpreter.
    fn check(&self, what: &str) {
        for n in 0..self.sim.module().net_count() {
            let net = NetId(n as u32);
            for (l, r) in &self.refs {
                let got = (self.sim.peek_word_at(net, l / 64) >> (l % 64)) & 1 == 1;
                assert_eq!(got, r.peek(net), "{}: {what}: net {n} lane {l}", self.label());
            }
        }
    }

    /// Every watched lane's toggle table equals its interpreter's.
    fn check_toggles(&self, what: &str) {
        for (l, r) in &self.refs {
            let table = self.sim.lane_toggle_table(*l).expect("lane toggles are on");
            assert_eq!(table.as_slice(), r.toggle_table(), "{}: {what}: lane {l} toggles", self.label());
        }
    }
}

/// Every net and state word of `a` equals `b`'s.
fn assert_same(a: &EngineSim<'_>, b: &EngineSim<'_>, module: &Module, what: &str) {
    for n in 0..module.net_count() {
        for wi in 0..a.words() {
            let net = NetId(n as u32);
            assert_eq!(a.peek_word_at(net, wi), b.peek_word_at(net, wi), "{what}: net {n} word {wi}");
        }
    }
}

/// A fresh executor's first `settle()`, with no `step()` before or
/// after, computes every net; so does each settle after new pokes.
#[test]
fn settle_without_step_matches_the_interpreter() {
    let chip = Chip::new();
    let low = Lowering::validated(&chip.module, &chip.lib).unwrap();
    let prog = Program::from_lowering(&low, &chip.module, &chip.lib);
    for (seed, bl) in backends().into_iter().enumerate() {
        let mut rig = Rig::new(&chip, &low, &prog, bl, &[0, 1, bl.1 / 2, bl.1 - 1], 0x6A7E + seed as u64);
        rig.sim.enable_lane_toggles();
        rig.settle();
        rig.check("idle first settle");
        for round in 0..4 {
            rig.drive_random();
            rig.settle();
            rig.check(&format!("settle {round}"));
        }
        rig.step();
        rig.check("step after settles");
        rig.check_toggles("settles and one step");
    }
}

/// After the whole macro has gone quiet, a poke on one input in a few
/// lanes must wake exactly enough of its cone to match the interpreter.
#[test]
fn pokes_into_an_idle_cone_reach_every_consumer() {
    let chip = Chip::new();
    let low = Lowering::validated(&chip.module, &chip.lib).unwrap();
    let prog = Program::from_lowering(&low, &chip.module, &chip.lib);
    for (seed, bl) in backends().into_iter().enumerate() {
        let mut rig = Rig::new(&chip, &low, &prog, bl, &[0, bl.1 - 1], 0x1D1E + seed as u64);
        rig.sim.enable_lane_toggles();
        for _ in 0..4 {
            rig.drive_random();
            rig.step();
        }
        // Hold every input: the macro settles into an idle state.
        for _ in 0..3 {
            rig.step();
        }
        rig.check("idle");
        for (name, cycles) in [("act[3]", 1), ("act[5]", 3), ("clear", 2)] {
            let net = chip.port(name);
            for wi in 0..rig.sim.words() {
                let word = rig.sim.peek_word_at(net, wi) ^ rig.rng.gen_range(0..u64::MAX);
                rig.poke(net, wi, word);
            }
            rig.settle();
            rig.check(&format!("{name} poked"));
            for c in 0..cycles {
                rig.step();
                rig.check(&format!("{name} poked, step {c}"));
            }
        }
        rig.check_toggles("idle-cone pokes");
    }
}

/// Forcing an `Edge` register's state while its `d` is unchanged must
/// reach the consumers of its `q` at the next settle, and the next step
/// must reload the register from `d`.
#[test]
fn forcing_an_edge_register_with_a_quiet_d_reaches_its_consumers() {
    let chip = Chip::new();
    let low = Lowering::validated(&chip.module, &chip.lib).unwrap();
    let prog = Program::from_lowering(&low, &chip.module, &chip.lib);
    let regs: Vec<InstId> = chip.seq(SeqUpdate::Edge).collect();
    assert!(regs.len() >= 4, "the macro has pipeline registers");
    for (seed, bl) in backends().into_iter().enumerate() {
        let mut rig = Rig::new(&chip, &low, &prog, bl, &[0, bl.1 / 2, bl.1 - 1], 0xF0CE + seed as u64);
        rig.sim.enable_lane_toggles();
        for _ in 0..4 {
            rig.drive_random();
            rig.step();
        }
        for _ in 0..2 {
            rig.step();
        }
        for &reg in regs.iter().step_by(regs.len() / 4) {
            for wi in 0..rig.sim.words() {
                let word = !rig.sim.state_word_at(reg, wi);
                rig.sim.force_state_word_at(reg, wi, word);
            }
            for (l, r) in &mut rig.refs {
                let bit = !r.state_of(reg);
                r.force_state(reg, bit);
                assert_eq!(rig.sim.state_of_lane(reg, *l), bit);
            }
            rig.settle();
            rig.check(&format!("{reg:?} forced"));
            rig.step();
            rig.check(&format!("{reg:?} reloaded"));
        }
        rig.check_toggles("state forces");
    }
}

/// A poke on a bitcell's `q` while its write enable is zero in every
/// lane: the consumers see the poked value at the next settle, and the
/// next step commits the stored state back over it — although the
/// bitcell's enable group is skipped.
#[test]
fn a_poke_on_a_disabled_bitcell_q_is_restored_at_the_next_step() {
    let chip = Chip::new();
    let low = Lowering::validated(&chip.module, &chip.lib).unwrap();
    let prog = Program::from_lowering(&low, &chip.module, &chip.lib);
    let cells: Vec<InstId> = chip.seq(SeqUpdate::BitcellWrite).collect();
    assert!(cells.len() >= 64);
    let wr_en = chip.port("wr_en");
    for (seed, bl) in backends().into_iter().enumerate() {
        let mut rig = Rig::new(&chip, &low, &prog, bl, &[0, bl.1 - 1], 0xB17C + seed as u64);
        rig.sim.enable_lane_toggles();
        for _ in 0..4 {
            rig.drive_random();
            rig.step();
        }
        for wi in 0..rig.sim.words() {
            rig.poke(wr_en, wi, 0);
        }
        rig.step();
        rig.step();
        for &cell in cells.iter().step_by(cells.len() / 5) {
            let inst = &chip.module.instances[cell.index()];
            let (wwl, q) = (inst.inputs[0], inst.outputs[0]);
            for wi in 0..rig.sim.words() {
                assert_eq!(rig.sim.peek_word_at(wwl, wi), 0, "{}: enable is low", rig.label());
                let word = !rig.sim.peek_word_at(q, wi);
                rig.poke(q, wi, word);
            }
            rig.settle();
            rig.check(&format!("{cell:?} q poked"));
            rig.step();
            rig.check(&format!("{cell:?} q restored"));
            for wi in 0..rig.sim.words() {
                assert_eq!(rig.sim.peek_word_at(q, wi), rig.sim.state_word_at(cell, wi));
            }
        }
        rig.check_toggles("bitcell q pokes");
    }
}

/// A stuck-at on an op-driven net, then `clear_faults`: the next settle
/// recomputes the net although none of its driver's inputs changed, and
/// the executor then tracks an unfaulted twin net for net.
#[test]
fn clearing_a_stuck_at_recomputes_its_net_and_rejoins_the_twin() {
    let chip = Chip::new();
    let prog = Program::compile(&chip.module, &chip.lib).unwrap();
    let inputs = chip.inputs();
    // An op-driven net in the middle of the adder logic.
    let comb: Vec<usize> = (0..chip.module.instance_count())
        .filter(|&i| {
            let cell = chip.lib.cell(chip.module.instances[i].cell);
            !cell.is_sequential() && cell.function.input_count() > 0
        })
        .collect();
    let net = chip.module.instances[comb[comb.len() / 2]].outputs[0];
    for (seed, (backend, lanes)) in backends().into_iter().enumerate() {
        let label = format!("{backend} at {lanes} lanes");
        let mut twin = EngineSim::with_backend(&prog, &chip.module, lanes, backend).unwrap();
        let mut faulty = EngineSim::with_backend(&prog, &chip.module, lanes, backend).unwrap();
        let mut rng = seeded_rng(0x57C4 + seed as u64);
        let mut lockstep =
            |twin: &mut EngineSim<'_>, faulty: &mut EngineSim<'_>, cycles: usize, what: &str| {
                for c in 0..cycles {
                    for &n in &inputs {
                        for wi in 0..twin.words() {
                            let word = rng.gen_range(0..u64::MAX);
                            twin.poke_word_at(n, wi, word);
                            faulty.poke_word_at(n, wi, word);
                        }
                    }
                    twin.step();
                    faulty.step();
                    assert_same(faulty, twin, &chip.module, &format!("{label}: {what} cycle {c}"));
                }
            };
        lockstep(&mut twin, &mut faulty, 3, "before the fault");

        let stuck = [0, lanes - 1];
        let mut plan = FaultPlan::new();
        for &l in &stuck {
            plan.stuck_at(net, l, (twin.peek_word_at(net, l / 64) >> (l % 64)) & 1 == 0);
        }
        faulty.install_faults(&plan).unwrap();
        twin.settle();
        faulty.settle();
        for wi in 0..twin.words() {
            let want: u64 = stuck.iter().filter(|&&l| l / 64 == wi).map(|&l| 1u64 << (l % 64)).sum();
            let diff = faulty.peek_word_at(net, wi) ^ twin.peek_word_at(net, wi);
            assert_eq!(diff, want, "{label}: the stuck lanes and only they differ");
        }
        faulty.clear_faults();
        twin.settle();
        faulty.settle();
        assert_same(&faulty, &twin, &chip.module, &format!("{label}: settled after clear_faults"));
        lockstep(&mut twin, &mut faulty, 4, "after clear_faults");
    }
}

/// A transient flip on an input of a cone that has gone quiet must
/// reach the downstream registers in exactly the flipped lane, in the
/// flip's own cycle. The flip is checked against a twin that inverts
/// the same lane by pokes for the same cycle (every net equal after
/// every step), and against an undisturbed twin (registers first
/// differ at the flip's step, and only in the flipped lane).
#[test]
fn a_flip_in_a_quiet_cone_reaches_its_register_in_its_cycle() {
    let chip = Chip::new();
    let prog = Program::compile(&chip.module, &chip.lib).unwrap();
    let inputs = chip.inputs();
    let regs: Vec<InstId> = chip.seq(SeqUpdate::Edge).collect();
    let cells: Vec<InstId> = chip.seq(SeqUpdate::BitcellWrite).collect();
    // An activation: with every weight at 1, its flip changes the
    // adder tree's sum. Nothing but the flip's own write wakes its
    // consumers, since no op drives a primary input.
    let act = chip.port("act[2]");
    let flip_cycle = 3;
    for (seed, (backend, lanes)) in backends().into_iter().enumerate() {
        let label = format!("{backend} at {lanes} lanes");
        let lane = (lanes - 1).min(64 + seed % 3);
        let bit = 1u64 << (lane % 64);
        let new = || EngineSim::with_backend(&prog, &chip.module, lanes, backend).unwrap();
        let (mut clean, mut poked, mut faulty) = (new(), new(), new());
        let mut rng = seeded_rng(0xF11B + seed as u64);
        for _ in 0..3 {
            for &n in &inputs {
                for wi in 0..clean.words() {
                    let word = rng.gen_range(0..u64::MAX);
                    for sim in [&mut clean, &mut poked, &mut faulty] {
                        sim.poke_word_at(n, wi, word);
                    }
                }
            }
            for sim in [&mut clean, &mut poked, &mut faulty] {
                sim.step();
            }
        }
        // Weights all 1, write port idle, inputs held from here on: the
        // macro goes quiet.
        for sim in [&mut clean, &mut poked, &mut faulty] {
            sim.set_all("wr_en", false);
            for &cell in &cells {
                sim.force_state_all(cell, true);
            }
            sim.step();
            sim.step();
        }
        let mut plan = FaultPlan::new();
        plan.flip_at(act, lane, flip_cycle);
        faulty.install_faults(&plan).unwrap();
        for cycle in 0..flip_cycle + 3 {
            let wi = lane / 64;
            if cycle == flip_cycle {
                poked.poke_word_at(act, wi, poked.peek_word_at(act, wi) ^ bit);
            }
            for sim in [&mut clean, &mut poked, &mut faulty] {
                sim.step();
            }
            assert_same(&faulty, &poked, &chip.module, &format!("{label}: step {cycle}"));
            let mut reached = false;
            for &reg in &regs {
                for w in 0..clean.words() {
                    let diff = faulty.state_word_at(reg, w) ^ clean.state_word_at(reg, w);
                    // Later pipeline stages carry the flipped value on.
                    let allowed = if cycle >= flip_cycle && w == wi { bit } else { 0 };
                    assert_eq!(diff & !allowed, 0, "{label}: {reg:?} word {w} after step {cycle}");
                    reached |= diff != 0;
                }
            }
            if cycle <= flip_cycle {
                assert_eq!(
                    reached,
                    cycle == flip_cycle,
                    "{label}: the flip reaches a register at step {cycle}"
                );
            }
            if cycle == flip_cycle {
                poked.poke_word_at(act, wi, poked.peek_word_at(act, wi) ^ bit);
            }
        }
    }
}

/// Shrinking the active lane set stops toggle counting in the dropped
/// lanes, but their values keep evaluating: a dropped lane still
/// matches its interpreter net for net.
#[test]
fn lanes_dropped_by_set_lanes_keep_evaluating() {
    let chip = Chip::new();
    let low = Lowering::validated(&chip.module, &chip.lib).unwrap();
    let prog = Program::from_lowering(&low, &chip.module, &chip.lib);
    for (seed, bl) in backends().into_iter().enumerate() {
        let lanes = bl.1;
        // Keep the word count: the dropped lanes stay pokeable.
        let keep = if lanes <= 64 { lanes - 2 } else { (lanes - 1) / 64 * 64 + 1 };
        let mut rig = Rig::new(&chip, &low, &prog, bl, &[0, keep - 1, keep, lanes - 1], 0x5E71 + seed as u64);
        for _ in 0..3 {
            rig.drive_random();
            rig.step();
        }
        rig.sim.set_lanes(keep).unwrap();
        assert_eq!(rig.sim.words(), lanes.div_ceil(64));
        for c in 0..5 {
            rig.drive_random();
            rig.step();
            rig.check(&format!("step {c} after set_lanes({keep})"));
        }
        rig.drive_random();
        rig.settle();
        rig.check("settle after set_lanes");
    }
}
