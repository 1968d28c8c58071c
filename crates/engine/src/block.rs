//! Activity-gating tables of a compiled [`Program`].
//!
//! The gated settle runs only the parts of the op stream whose inputs
//! changed (the technique of ESSENT: Beamer & Donofrio, "Efficiently
//! Exploiting Low Activity Factors to Accelerate RTL Simulation",
//! DAC 2020). These tables say what the parts are:
//!
//! * **Blocks** — the levelized op stream cut into runs of about
//!   [`BLOCK_OPS`] ops. A cut is legal only where no scratch slot is
//!   read before being rewritten, so a block never depends on a
//!   scratch value left by another block; with the compiler's
//!   lowerings that puts every cut on a cell boundary. The cut points
//!   come from the op stream alone, so a program loaded from `.scim`
//!   gets the same blocks as the one compiled.
//! * **Block inputs** — per block, the net slots it reads that no
//!   earlier op of the block wrote. A block whose inputs all hold the
//!   word they held when it last ran would rewrite every output with
//!   the word it already holds.
//! * **Drivers** — per net slot, the block or commit that writes it,
//!   so a write from outside a pass (a poke, a state force, fault
//!   arming) can queue the writer that would overwrite it.
//! * **Commit groups** — the enable-type commits (`EdgeEnable`,
//!   `BitcellWrite`) grouped by enable slot: `mux(cur, d, 0) = cur`,
//!   so a group whose enable word is zero in every lane is skipped.
//!   `Edge` registers run every step.
//!
//! The tables are built lazily, once per program, on first executor
//! use ([`Program::blocks`]): flows that never simulate (the
//! implement-only scale tier) never pay for them, and they are not
//! part of the `.scim` format.
//!
//! Gating relies on the compiler's guarantees: every net slot has at
//! most one writer, every op reads net slots written earlier in the
//! stream (or by commits, or by nobody), and no scratch slot is read
//! before the stream writes it. A decoded program that breaks one of
//! them is still simulated exactly — [`Blocks::gated`] is `false` and
//! every block and commit runs on every pass.

use std::ops::Range;

use crate::program::Program;

/// Ops per block the cutter aims for: a block closes at the first
/// legal cut at or after this many ops.
pub(crate) const BLOCK_OPS: usize = 128;

/// Writer of a net slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Driver {
    /// Nothing writes the slot during a pass (primary inputs).
    None,
    /// An op of this block.
    Block(u32),
    /// This commit (dense sequential index).
    Commit(u32),
}

/// Enable-type commits sharing one enable slot:
/// `Blocks::grouped[start..end]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CommitGroup {
    /// The enable slot (`en` of an `EdgeEnable`, `wwl` of a bitcell).
    pub en: u32,
    pub start: u32,
    pub end: u32,
}

/// The activity-gating tables of one program (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct Blocks {
    /// Block `b` runs ops `op_start[b]..op_start[b + 1]`.
    op_start: Vec<u32>,
    /// Block `b` reads the net slots `inputs[in_start[b]..in_start[b + 1]]`.
    in_start: Vec<u32>,
    inputs: Vec<u32>,
    /// Writer of each net slot.
    driver: Vec<Driver>,
    /// Commits that run every step: the `Edge` registers (every commit
    /// when gating is off).
    pub always: Vec<u32>,
    /// Enable-type commits grouped by enable slot.
    pub groups: Vec<CommitGroup>,
    /// Commit indices, group by group.
    pub grouped: Vec<u32>,
    /// Whether skipping is exact for this program; when `false` every
    /// block runs on every settle.
    pub gated: bool,
}

impl Blocks {
    /// Cut `prog`'s op stream and build every table.
    pub(crate) fn build(prog: &Program) -> Blocks {
        let (ops, net_count) = (&prog.ops, prog.net_count);
        let is_net = |s: u32| (s as usize) < net_count;

        // Backward liveness of the scratch slots: a cut before op `k`
        // is legal iff no scratch slot is read at or after `k` before
        // being rewritten.
        let mut live = vec![false; prog.slot_count - net_count];
        let mut live_count = 0usize;
        let mut legal = vec![false; ops.len() + 1];
        legal[ops.len()] = true;
        for k in (0..ops.len()).rev() {
            let dst = ops[k].dst();
            if !is_net(dst) && std::mem::take(&mut live[dst as usize - net_count]) {
                live_count -= 1;
            }
            for s in ops[k].srcs().filter(|&s| !is_net(s)) {
                if !std::mem::replace(&mut live[s as usize - net_count], true) {
                    live_count += 1;
                }
            }
            legal[k] = live_count == 0;
        }
        // A scratch slot read before any write carries a value across
        // settles: only a full pass reproduces that.
        let mut gated = legal[0];

        let mut op_start = vec![0u32];
        for (k, &cut) in legal.iter().enumerate().skip(1) {
            let last = *op_start.last().expect("starts at 0") as usize;
            if k == ops.len() || (k - last >= BLOCK_OPS && cut) {
                op_start.push(k as u32);
            }
        }

        let mut driver = vec![Driver::None; net_count];
        // `listed[s] == b`: slot `s` is already an input of, or was
        // written by, block `b`.
        let mut listed = vec![u32::MAX; net_count];
        let mut in_start = vec![0u32];
        let mut inputs = Vec::new();
        for (b, span) in op_start.windows(2).enumerate() {
            let b = b as u32;
            for op in &ops[span[0] as usize..span[1] as usize] {
                for s in op.srcs().filter(|&s| is_net(s)) {
                    if listed[s as usize] != b {
                        listed[s as usize] = b;
                        inputs.push(s);
                    }
                }
                let dst = op.dst();
                if is_net(dst) {
                    gated &= driver[dst as usize] == Driver::None;
                    driver[dst as usize] = Driver::Block(b);
                    listed[dst as usize] = b;
                }
            }
            // In slot order, so a block's checks walk the stamps forward.
            let first = *in_start.last().expect("starts at 0") as usize;
            inputs[first..].sort_unstable();
            in_start.push(inputs.len() as u32);
        }
        // Every input must be written before its block runs: by an
        // earlier block, a commit or nobody.
        for (b, span) in in_start.windows(2).enumerate() {
            for &s in &inputs[span[0] as usize..span[1] as usize] {
                gated &= !matches!(driver[s as usize], Driver::Block(d) if d as usize >= b);
            }
        }
        for (i, c) in prog.commits.iter().enumerate() {
            // A commit reading a scratch slot would see whichever op
            // last ran.
            gated &= is_net(c.in0) && is_net(c.in1);
            match driver.get(c.q as usize) {
                Some(Driver::None) => driver[c.q as usize] = Driver::Commit(i as u32),
                _ => gated = false,
            }
        }

        let (mut always, mut enabled) = (Vec::new(), Vec::new());
        for (i, c) in prog.commits.iter().enumerate() {
            match c.enable() {
                Some(en) if gated => enabled.push((en, i as u32)),
                _ => always.push(i as u32),
            }
        }
        enabled.sort_unstable();
        let mut groups: Vec<CommitGroup> = Vec::new();
        for (k, &(en, _)) in enabled.iter().enumerate() {
            match groups.last_mut() {
                Some(g) if g.en == en => g.end += 1,
                _ => groups.push(CommitGroup { en, start: k as u32, end: k as u32 + 1 }),
            }
        }
        let grouped = enabled.into_iter().map(|(_, i)| i).collect();

        Blocks { op_start, in_start, inputs, driver, always, groups, grouped, gated }
    }

    /// Number of blocks.
    pub(crate) fn len(&self) -> usize {
        self.op_start.len() - 1
    }

    /// The op indices of block `b`.
    #[inline]
    pub(crate) fn ops(&self, b: usize) -> Range<usize> {
        self.op_start[b] as usize..self.op_start[b + 1] as usize
    }

    /// The net slots block `b` reads from outside itself.
    #[inline]
    pub(crate) fn inputs(&self, b: usize) -> &[u32] {
        &self.inputs[self.in_start[b] as usize..self.in_start[b + 1] as usize]
    }

    /// The writer of net slot `slot`.
    #[inline]
    pub(crate) fn driver(&self, slot: usize) -> Driver {
        self.driver[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndcim_netlist::NetlistBuilder;
    use syndcim_pdk::{CellKind, CellLibrary};

    /// A chain of full adders: five ops each, two of them reading the
    /// scratch `t0`, so only cell boundaries are legal cuts.
    #[test]
    fn cuts_land_on_cell_boundaries_and_inputs_exclude_internal_nets() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("fa_chain", &lib);
        let (x, y) = (b.input("x"), b.input("y"));
        let mut carry = b.input("cin");
        for i in 0..100 {
            let (s, co) = b.fa(x, y, carry);
            b.output(format!("s{i}"), s);
            carry = co;
        }
        b.output("co", carry);
        let m = b.finish();
        let prog = Program::compile(&m, &lib).unwrap();
        let blocks = prog.blocks();
        assert!(blocks.gated);
        assert_eq!(prog.op_count(), 500);
        assert!(blocks.len() >= 3);
        for blk in 0..blocks.len() {
            let ops = blocks.ops(blk);
            assert_eq!(ops.start % 5, 0, "block {blk} starts inside a full adder");
            assert!(ops.len() >= BLOCK_OPS || ops.end == prog.op_count());
            // Inputs are net slots written outside the block, listed once.
            let mut seen = std::collections::HashSet::new();
            for &s in blocks.inputs(blk) {
                assert!((s as usize) < prog.net_count());
                assert!(seen.insert(s), "slot {s} listed twice");
                assert!(!matches!(blocks.driver(s as usize), Driver::Block(d) if d as usize >= blk));
            }
        }
        // Block 1 reads the carry out of block 0 and the primary inputs.
        assert!(blocks.inputs(1).len() >= 3);
    }

    #[test]
    fn commits_group_by_enable_and_edge_registers_always_run() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("seq", &lib);
        let (d, en, wwl) = (b.input("d"), b.input("en"), b.input("wwl"));
        let q0 = b.dff(d);
        let q1 = b.dffe(d, en);
        let q2 = b.dffe(q0, en);
        let r0 = b.add(CellKind::Sram6T2T, &[wwl, d])[0];
        for (i, q) in [q0, q1, q2, r0].into_iter().enumerate() {
            b.output(format!("q{i}"), q);
        }
        let m = b.finish();
        let prog = Program::compile(&m, &lib).unwrap();
        let blocks = prog.blocks();
        assert!(blocks.gated);
        assert_eq!(blocks.always.len(), 1, "one Edge register");
        assert_eq!(blocks.groups.len(), 2, "`en` and `wwl`");
        assert_eq!(blocks.grouped.len(), 3);
        let en_group = blocks.groups.iter().find(|g| g.en == en.0).unwrap();
        assert_eq!(en_group.end - en_group.start, 2);
        for (i, c) in prog.commits.iter().enumerate() {
            assert_eq!(blocks.driver(c.q as usize), Driver::Commit(i as u32));
        }
    }

    /// A stream that reads a net before writing it (not levelized)
    /// turns gating off instead of diverging from a full pass.
    #[test]
    fn a_read_before_its_writer_turns_gating_off() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("inv2", &lib);
        let a = b.input("a");
        let y = b.not(a);
        let z = b.not(y);
        b.output("z", z);
        let m = b.finish();
        let mut prog = Program::compile(&m, &lib).unwrap();
        assert!(prog.blocks().gated);
        prog.ops.reverse();
        prog.blocks = Default::default();
        assert!(!prog.blocks().gated);
    }
}
