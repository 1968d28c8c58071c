//! Bit-parallel execution of a compiled [`Program`].
//!
//! [`BatchExec`] is generic over its [`LaneWord`]: every slot holds one
//! word whose lane `l` is the logic value of one independent test
//! vector. [`BatchSim`] (`u64`, 64 lanes) is the classic single-register
//! hot path; [`BatchSim256`] (`[u64; 4]`, 256 lanes) and
//! [`BatchSim512`] (`[u64; 8]`, 512 lanes) multiply the vectors per
//! pass on straight-line element-wise code that LLVM lowers to the
//! target's vector unit; the ISA-native words in the arch-gated
//! `crate::word::x86_64` / `crate::word::aarch64` modules run the same
//! generic passes on explicit AVX2/AVX-512/NEON intrinsics.
//! [`EngineSim`] picks the word at run time — narrowest width that
//! fits the lane count, widest detected ISA for that width (overridable
//! with `SYNDCIM_SIMD`, see [`crate::SimdPolicy`]) — so callers never
//! pay the wide word for small batches and never select a data path the
//! CPU lacks.
//!
//! A settle is one forward pass over the levelized op stream — no hash
//! maps, no per-cell dispatch through `Vec<bool>` buffers — that runs
//! only the *blocks* (runs of at least 128 ops) with an input whose word
//! changed since the block last ran (see `crate::block`). Every slot
//! write compares the whole new word with the old one: a changed net
//! stamps the settle's epoch on the slot, and a later block runs when
//! one of its inputs carries that stamp (or when it was queued by a
//! write from outside the pass). Commits skip the enable-type groups
//! whose enable word is zero. A skipped op or commit would have written
//! the word its slot already holds, so skipping changes no value and no
//! toggle count. Per-net toggles accumulate as
//! `popcount((prev ^ next) & lane_mask)`, which makes an L-lane run
//! report exactly the toggle totals of L separate interpreter runs over
//! the same per-lane stimulus, at any word width. Each pass runs inside
//! one [`LaneWord::dispatch`] call, so an ISA word pays one runtime
//! dispatch per settle (never per op) and its intrinsic leaf functions
//! inline into the pass.

use syndcim_netlist::{InstId, Module, NetId};
use syndcim_pdk::SeqUpdate;
use syndcim_sim::SimBackend;
use syndcim_telemetry as telemetry;

use crate::block::{Blocks, Driver};
use crate::fault::{EngineError, FaultKind, FaultPlan};
use crate::program::{Op, Program};
use crate::simd::{SimdBackend, SimdPolicy};
#[cfg(target_arch = "aarch64")]
use crate::word::aarch64::W256Neon;
#[cfg(target_arch = "x86_64")]
use crate::word::x86_64::{W256Avx2, W512Avx512};
use crate::word::{LaneWord, W256, W512};

/// Compiled form of an installed [`FaultPlan`]: dense per-net-slot
/// lane-mask tables consulted by every store in [`BatchExec::write`].
/// Only allocated when a non-empty plan is installed — the nominal path
/// carries a single predictable `Option` branch.
#[derive(Debug)]
struct FaultState<W> {
    /// Per-slot AND mask: stuck-at-0 lanes cleared, all others set.
    and: Vec<W>,
    /// Per-slot OR mask: stuck-at-1 lanes set.
    or: Vec<W>,
    /// Per-slot XOR mask: lanes of transient flips active *this* cycle.
    xor: Vec<W>,
    /// Pending transient flips `(cycle, net slot, lane)`, sorted by
    /// cycle; `next_flip` is the cursor of the first not-yet-activated
    /// entry.
    flips: Vec<(u64, u32, u32)>,
    next_flip: usize,
    /// Slots whose XOR mask is currently nonzero (this cycle's flips).
    active_xor: Vec<u32>,
    /// `step()` calls since the plan was installed.
    cycle: u64,
}

/// Word-level batch executor over one compiled program, generic over
/// the lane word `W`. Use the [`BatchSim`] / [`BatchSim256`] aliases or
/// the width-selecting [`EngineSim`].
#[derive(Debug)]
pub struct BatchExec<'a, W: LaneWord> {
    prog: &'a Program,
    module: &'a Module,
    /// Value word per slot (net slots first, then scratch).
    slots: Vec<W>,
    /// Stored state word per sequential element (dense commit order).
    state: Vec<W>,
    /// Capture buffer reused every step: the next state of commit
    /// `run[j]` is `next[j]`.
    next: Vec<W>,
    run: Vec<u32>,
    /// The program's activity-gating tables.
    blocks: &'a Blocks,
    /// Per net slot: the epoch of its last change, 0 for none. A
    /// settle runs at `epoch + 1`; writes between settles stamp that
    /// epoch too, so the next settle sees them. One byte per net keeps
    /// the stamps a block checks in the L1 cache; before the counter
    /// would wrap, every stamp (all of them from finished settles) is
    /// cleared and the count restarts.
    changed_at: Vec<u8>,
    epoch: u8,
    /// Blocks that run at the next settle whatever their inputs: one
    /// of their outputs was written from outside a pass.
    queued: Vec<bool>,
    /// Commits that run at the next step whatever their enable (their
    /// `q` was written from outside), with membership flags.
    requeued: Vec<u32>,
    is_requeued: Vec<bool>,
    /// Per-net toggle counts summed over active lanes.
    toggles: Vec<u64>,
    /// Optional per-lane toggle counters, bit-sliced in the lane word.
    /// Enabled by [`BatchExec::enable_lane_toggles`] for measurements
    /// that need per-lane energy attribution (e.g. write-energy
    /// variance).
    lane_counters: Option<LaneCounters<W>>,
    /// Compiled fault-injection masks (`None` unless a non-empty
    /// [`FaultPlan`] is installed — the nominal write path pays one
    /// predictable branch, nothing else).
    faults: Option<Box<FaultState<W>>>,
    lanes: usize,
    mask: W,
    lane_cycles: u64,
    /// Cached telemetry handles, resolved once per executor so the
    /// settle hot path pays one relaxed atomic load per *pass* (never
    /// per op) when telemetry is off. Toggle and lane-cycle totals are
    /// flushed in bulk on [`BatchExec::reset_activity`]/drop instead of
    /// being counted per write — the per-op `write` path carries no
    /// instrumentation at all. The gating counters are added once per
    /// settle and per commit pass: `engine.ops_executed` counts only
    /// the ops that ran, `engine.ops_skipped` the ops of the blocks
    /// that did not (the two sum to settles × op count),
    /// `engine.blocks_run` the blocks that ran and `engine.commits_run`
    /// the commits that ran.
    ctr_settles: telemetry::Counter,
    ctr_ops: telemetry::Counter,
    ctr_ops_skipped: telemetry::Counter,
    ctr_blocks: telemetry::Counter,
    ctr_commits: telemetry::Counter,
}

/// The 64-lane executor (one `u64` per slot).
pub type BatchSim<'a> = BatchExec<'a, u64>;

/// The 256-lane wide-word executor (`[u64; 4]` per slot).
pub type BatchSim256<'a> = BatchExec<'a, W256>;

/// The 512-lane wide-word executor (`[u64; 8]` per slot).
pub type BatchSim512<'a> = BatchExec<'a, W512>;

impl<'a, W: LaneWord> BatchExec<'a, W> {
    /// Create an executor with `lanes` active lanes (`1..=W::LANES`).
    /// All nets and states start at logic 0 in every lane, matching a
    /// freshly constructed interpreter.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is outside `1..=W::LANES`, or if `module`'s net
    /// or instance counts disagree with the program (a shape check — the
    /// caller is responsible for pairing a program with the exact module
    /// it was compiled from).
    pub fn new(prog: &'a Program, module: &'a Module, lanes: usize) -> Self {
        assert_eq!(prog.net_count, module.net_count(), "program/module net-count mismatch");
        assert_eq!(prog.seq_of_inst.len(), module.instance_count(), "program/module instance-count mismatch");
        telemetry::counter("engine.executors").incr();
        let blocks = prog.blocks();
        BatchExec {
            prog,
            module,
            slots: vec![W::splat(false); prog.slot_count],
            state: vec![W::splat(false); prog.commits.len()],
            next: vec![W::splat(false); prog.commits.len()],
            run: vec![0; prog.commits.len()],
            blocks,
            changed_at: vec![0; prog.net_count],
            epoch: 0,
            // The first settle runs every block.
            queued: vec![true; blocks.len()],
            requeued: Vec::new(),
            is_requeued: vec![false; prog.commits.len()],
            toggles: vec![0; prog.net_count],
            lane_counters: None,
            faults: None,
            lanes,
            mask: W::mask(lanes),
            lane_cycles: 0,
            ctr_settles: telemetry::counter("engine.settles"),
            ctr_ops: telemetry::counter("engine.ops_executed"),
            ctr_ops_skipped: telemetry::counter("engine.ops_skipped"),
            ctr_blocks: telemetry::counter("engine.blocks_run"),
            ctr_commits: telemetry::counter("engine.commits_run"),
        }
    }

    /// Add the activity accumulated since the last reset (toggle total
    /// across all nets, lane-cycles) to the flow-wide telemetry
    /// counters. Called from [`BatchExec::reset_activity`] and on drop,
    /// so totals are exact without any per-write instrumentation.
    fn flush_activity_telemetry(&self) {
        if telemetry::enabled() {
            telemetry::counter("engine.toggles").add(self.toggles.iter().sum());
            telemetry::counter("engine.lane_cycles").add(self.lane_cycles);
        }
    }

    /// The compiled program backing this executor.
    pub fn program(&self) -> &Program {
        self.prog
    }

    /// Shrink the active lane set (values in deactivated lanes keep
    /// evaluating but stop contributing toggles). Growing is rejected:
    /// a deactivated lane's uncounted transitions would corrupt the
    /// "toggles == sum of L independent runs" invariant if it were
    /// re-activated — create a new executor instead. Also rejected once
    /// per-lane toggle accounting is enabled (the per-lane counters
    /// must keep summing to the aggregate table over the active lanes;
    /// shrinking would strand the deactivated lanes' counts in the
    /// aggregate) and while a fault plan is installed (its masks were
    /// validated against the lane set).
    pub fn set_lanes(&mut self, lanes: usize) -> Result<(), EngineError> {
        if lanes == 0 {
            return Err(EngineError::ZeroLanes);
        }
        if lanes > self.lanes {
            return Err(EngineError::LaneGrow { have: self.lanes, asked: lanes });
        }
        if self.lane_counters.is_some() {
            return Err(EngineError::LaneTogglesPinned);
        }
        if self.faults.is_some() {
            return Err(EngineError::FaultPlanPinned);
        }
        self.lanes = lanes;
        self.mask = W::mask(lanes);
        Ok(())
    }

    /// Start per-lane toggle accounting (in addition to the aggregate
    /// table). Each net's per-lane counts are a bit-sliced counter held
    /// in lane words — plane `k` stores bit `k` of every lane's count —
    /// so a slot write with flipped lanes adds one to all of them at
    /// once, rippling the carry through the planes with `and`/`xor`
    /// until it clears. The planes double when a carry leaves the top
    /// one, so counts are exact at any size. Storage is `planes × nets`
    /// lane words, net-major so the planes one write touches share
    /// cache lines. Off by default; enable it before driving stimulus.
    pub fn enable_lane_toggles(&mut self) {
        if self.lane_counters.is_none() {
            self.lane_counters = Some(LaneCounters::empty());
        }
    }

    /// Per-net toggle counts of one lane (indexed by [`NetId::index`]),
    /// or `None` when [`BatchExec::enable_lane_toggles`] was never
    /// called or `lane` is not an active lane. A one-table wrapper over
    /// [`BatchExec::lane_toggle_tables`].
    pub fn lane_toggle_table(&self, lane: usize) -> Option<Vec<u64>> {
        let mut tables = [Vec::new()];
        if self.lane_toggle_tables(lane, &mut tables) {
            let [table] = tables;
            Some(table)
        } else {
            None
        }
    }

    /// Fill `tables[j]` with the per-net toggle counts (indexed by
    /// [`NetId::index`]) of lane `first_lane + j`. The lanes must be
    /// active and lie in one 64-lane chunk, so at most 64 tables fill
    /// per call; each table is resized to the net count and reused
    /// without reallocating. Only nets with a non-zero aggregate count
    /// are decoded from the counter planes — the aggregate sums the
    /// lanes, so a zero there is zero in every lane.
    ///
    /// Returns `false`, leaving the tables untouched, when per-lane
    /// accounting is off or the lanes are out of range or span two
    /// chunks.
    pub fn lane_toggle_tables(&self, first_lane: usize, tables: &mut [Vec<u64>]) -> bool {
        let Some(counters) = &self.lane_counters else { return false };
        let (chunk, shift) = (first_lane / 64, first_lane % 64);
        if shift + tables.len() > 64 || first_lane + tables.len() > self.lanes {
            return false;
        }
        for table in tables.iter_mut() {
            table.clear();
            table.resize(self.prog.net_count, 0);
        }
        let active: Vec<u32> = self.active_nets().collect();
        decode_chunk(counters, &active, chunk, shift, tables);
        true
    }

    /// Visit every active lane's per-net toggle table (indexed by
    /// [`NetId::index`]) in lane order, decoding one 64-lane chunk at a
    /// time into up to 64 tables owned by the call. The nets with a
    /// non-zero aggregate count are listed once; the tables are
    /// allocated zeroed once, and every chunk overwrites only those
    /// nets' entries — every other net is zero in every lane. Returns
    /// `false`, visiting nothing, when per-lane accounting is off.
    pub fn for_each_lane_table(&self, mut visit: impl FnMut(usize, &[u64])) -> bool {
        let Some(counters) = &self.lane_counters else { return false };
        let active: Vec<u32> = self.active_nets().collect();
        let mut tables: Vec<Vec<u64>> =
            (0..self.lanes.min(64)).map(|_| vec![0; self.prog.net_count]).collect();
        for first in (0..self.lanes).step_by(64) {
            let chunk = &mut tables[..(self.lanes - first).min(64)];
            decode_chunk(counters, &active, first / 64, 0, chunk);
            for (j, table) in chunk.iter().enumerate() {
                visit(first + j, table);
            }
        }
        true
    }

    /// The nets with a non-zero aggregate toggle count — the only
    /// nets any lane toggled.
    fn active_nets(&self) -> impl Iterator<Item = u32> + '_ {
        self.toggles.iter().enumerate().filter(|&(_, &t)| t != 0).map(|(net, _)| net as u32)
    }

    /// [`BatchExec::write_as`] for the writes outside the settle and
    /// commit passes (pokes, state forces, fault arming), choosing the
    /// per-lane counting variant at run time. A changed net is stamped
    /// for the next settle and its writer is queued: the block or
    /// commit that a full pass would run to overwrite the value.
    #[inline(always)]
    fn write(&mut self, dst: u32, val: W) {
        let epoch = self.epoch + 1;
        // Inside the word's ISA frame, so its leaf functions inline.
        let changed = if self.lane_counters.is_some() {
            W::dispatch(|| self.write_as::<true>(dst, val, epoch, false))
        } else {
            W::dispatch(|| self.write_as::<false>(dst, val, epoch, false))
        };
        if changed {
            match self.blocks.driver(dst as usize) {
                Driver::None => {}
                Driver::Block(b) => self.queued[b as usize] = true,
                Driver::Commit(c) => self.requeue(c),
            }
        }
    }

    /// Run commit `c` at the next step whatever its enable.
    fn requeue(&mut self, c: u32) {
        if !std::mem::replace(&mut self.is_requeued[c as usize], true) {
            self.requeued.push(c);
        }
    }

    /// Run every block at the next settle and every commit at the next
    /// step, as a full pass would: removing a fault plan leaves masked
    /// values in slots whose inputs did not change.
    fn queue_everything(&mut self) {
        self.queued.fill(true);
        for c in 0..self.prog.commits.len() as u32 {
            self.requeue(c);
        }
    }

    /// The single slot-write choke point: fault masks, change
    /// detection, aggregate and per-lane toggle accounting all hang
    /// here, width-generically. Returns whether a net slot's word
    /// changed — in any lane, active or not, so values in inactive
    /// lanes keep propagating — and stamps it with `epoch` if so.
    ///
    /// Writes from outside the settle pass keep an older stamp when
    /// the word did not change. The settle pass (`in_settle`) instead
    /// stores the stamp unconditionally — a branch there mispredicts
    /// on every other op of a busy pass, and a conditional move on a
    /// loaded stamp compiles back into that branch. Clearing the stamp
    /// is safe because this is the slot's only write of the settle: a
    /// stamp from between settles can only sit on the output of a
    /// queued block, and [`BatchExec::settle_pass`] restamps those.
    ///
    /// `COUNT_LANES` is fixed per pass ([`SimBackend::settle`] picks
    /// it once), so the nominal passes compile without any trace of
    /// the per-lane counters. `inline(always)` is load-bearing: every
    /// settle/commit op funnels through this function, and it must land
    /// inside the `#[target_feature]` dispatch frame — outlined, it
    /// compiles without the ISA features and every op pays a vector-ABI
    /// call.
    #[inline(always)]
    fn write_as<const COUNT_LANES: bool>(
        &mut self,
        dst: u32,
        mut val: W,
        epoch: u8,
        in_settle: bool,
    ) -> bool {
        let d = dst as usize;
        if d >= self.prog.net_count {
            self.slots[d] = val;
            return false;
        }
        if let Some(f) = &self.faults {
            val = val.and(f.and[d]).or(f.or[d]).xor(f.xor[d]);
        }
        let diff = self.slots[d].xor(val);
        let changed = !diff.is_zero();
        self.slots[d] = val;
        if in_settle {
            self.changed_at[d] = epoch & u8::from(changed).wrapping_neg();
        } else if changed {
            self.changed_at[d] = epoch;
        }
        let flips = diff.and(self.mask);
        flips.popcount_accum(W::splat(true), &mut self.toggles[d]);
        if COUNT_LANES {
            if let Some(counters) = &mut self.lane_counters {
                counters.add(d, flips, self.prog.net_count);
            }
        }
        changed
    }

    /// Install a [`FaultPlan`], compiling it into the per-slot mask
    /// tables the write path consults. The plan is validated against
    /// this executor's shape first; on error nothing changes. Stuck-at
    /// faults force their lanes immediately (toggle-accounted like any
    /// other transition); transient flips wait for their cycle, counted
    /// in [`SimBackend::step`] calls from this installation. Installing
    /// an empty plan is equivalent to [`BatchExec::clear_faults`].
    pub fn install_faults(&mut self, plan: &FaultPlan) -> Result<(), EngineError> {
        plan.validate(self.prog.net_count, self.lanes)?;
        self.clear_faults();
        if plan.is_empty() {
            return Ok(());
        }
        let n = self.prog.net_count;
        let mut st = Box::new(FaultState {
            and: vec![W::splat(true); n],
            or: vec![W::splat(false); n],
            xor: vec![W::splat(false); n],
            flips: Vec::new(),
            next_flip: 0,
            active_xor: Vec::new(),
            cycle: 0,
        });
        let mut stuck_slots: Vec<u32> = Vec::new();
        for f in plan.faults() {
            let d = f.net.index();
            match f.kind {
                FaultKind::StuckAt0 => {
                    st.and[d] = st.and[d].with_lane(f.lane, false);
                    stuck_slots.push(d as u32);
                }
                FaultKind::StuckAt1 => {
                    st.or[d] = st.or[d].with_lane(f.lane, true);
                    stuck_slots.push(d as u32);
                }
                FaultKind::FlipAtCycle(c) => st.flips.push((c, d as u32, f.lane as u32)),
            }
        }
        st.flips.sort_unstable();
        stuck_slots.sort_unstable();
        stuck_slots.dedup();
        self.faults = Some(st);
        // Force the stuck values onto the current slot contents so the
        // fault is live before the next settle (write re-applies the
        // masks and accounts the forced transitions as toggles).
        for d in stuck_slots {
            self.write(d, self.slots[d as usize]);
        }
        Ok(())
    }

    /// Remove the installed fault plan (if any). Slot values are left
    /// as they are — the next settle recomputes every internal net
    /// fault-free and the next step commits every state element again;
    /// input nets keep their last (possibly forced) value until
    /// re-driven.
    pub fn clear_faults(&mut self) {
        if self.faults.take().is_some() {
            self.queue_everything();
        }
    }

    /// Whether a non-empty fault plan is currently installed.
    pub fn faults_installed(&self) -> bool {
        self.faults.is_some()
    }

    /// Per-lane compare of `net` against a designated golden lane:
    /// `ceil(lanes / 64)` 64-bit chunks, bit `l % 64` of chunk `l / 64`
    /// set iff lane `l` disagrees with `golden_lane`. The chunk count
    /// follows the *active lane count*, not the backing word width, so
    /// the result is identical across SIMD backends (a pinned AVX-512
    /// word running 256 lanes reports 4 chunks, like the portable
    /// word). Inactive lanes (and the golden lane itself) read as
    /// matching. Errors if `golden_lane` is not an active lane.
    pub fn mismatch_mask(&self, net: NetId, golden_lane: usize) -> Result<Vec<u64>, EngineError> {
        if golden_lane >= self.lanes {
            return Err(EngineError::LaneOutOfRange { lane: golden_lane, lanes: self.lanes });
        }
        if net.index() >= self.prog.net_count {
            return Err(EngineError::NetOutOfRange { net: net.index(), net_count: self.prog.net_count });
        }
        let w = self.slots[net.index()];
        let golden = w.lane(golden_lane);
        Ok((0..self.lanes.div_ceil(64))
            .map(|wi| {
                let chunk = w.get_u64(wi);
                (if golden { !chunk } else { chunk }) & self.mask.get_u64(wi)
            })
            .collect())
    }

    /// Advance the transient-flip schedule by one cycle: lift the
    /// previous cycle's XOR masks, arm this cycle's, and re-store every
    /// affected slot through the masked write path (so flips on nets
    /// nothing recomputes — primary inputs, idle state — still take
    /// effect, and every inversion is toggle-accounted). Called at the
    /// top of [`SimBackend::step`]; no-op without an installed plan.
    fn advance_fault_cycle(&mut self) {
        if self.faults.is_none() {
            return;
        }
        // Lift the previous cycle's flips: the XOR masks are still
        // armed, so re-storing a slot inverts it back to clean.
        let mut i = 0;
        while let Some(&d) = self.faults.as_ref().and_then(|f| f.active_xor.get(i)) {
            self.write(d, self.slots[d as usize]);
            i += 1;
        }
        let f = self.faults.as_mut().expect("checked above");
        for &d in &f.active_xor {
            f.xor[d as usize] = W::splat(false);
        }
        f.active_xor.clear();
        // Arm this cycle's flips.
        let cycle = f.cycle;
        while let Some(&(c, d, lane)) = f.flips.get(f.next_flip) {
            if c > cycle {
                break;
            }
            f.next_flip += 1;
            if c == cycle {
                f.xor[d as usize] = f.xor[d as usize].with_lane(lane as usize, true);
                f.active_xor.push(d);
            }
        }
        f.active_xor.sort_unstable();
        f.active_xor.dedup();
        f.cycle += 1;
        let mut i = 0;
        while let Some(&d) = self.faults.as_ref().and_then(|f| f.active_xor.get(i)) {
            self.write(d, self.slots[d as usize]);
            i += 1;
        }
    }

    /// Drive one lane of a net, leaving the others unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not an active lane.
    pub fn poke_lane(&mut self, net: NetId, lane: usize, value: bool) {
        assert!(lane < self.lanes, "lane {lane} out of range (executor has {} lanes)", self.lanes);
        let word = self.slots[net.index()].with_lane(lane, value);
        self.write(net.index() as u32, word);
    }

    /// One forward pass over the blocks of the levelized op stream,
    /// running a block only if it is queued or one of its inputs
    /// changed in this epoch. Returns the blocks and ops that ran. Runs
    /// inside [`LaneWord::dispatch`] (see [`SimBackend::settle`]) so an
    /// ISA word's intrinsic leaf functions inline here; keep it
    /// `inline(always)` so the closure body actually lands in the
    /// `#[target_feature]` trampoline.
    #[inline(always)]
    fn settle_pass<const COUNT_LANES: bool>(&mut self) -> (u64, u64) {
        let (prog, blocks) = (self.prog, self.blocks);
        self.epoch += 1;
        let epoch = self.epoch;
        let (mut blocks_run, mut ops_run) = (0, 0);
        for b in 0..blocks.len() {
            let queued = std::mem::take(&mut self.queued[b]);
            if !queued
                && blocks.gated
                && !blocks.inputs(b).iter().any(|&s| self.changed_at[s as usize] == epoch)
            {
                continue;
            }
            let ops = blocks.ops(b);
            blocks_run += 1;
            ops_run += ops.len() as u64;
            for &op in &prog.ops[ops] {
                let val = match op {
                    Op::Const { ones, .. } => W::splat(ones),
                    Op::Copy { a, .. } => self.slots[a as usize],
                    Op::Not { a, .. } => self.slots[a as usize].not(),
                    Op::And { a, b, .. } => self.slots[a as usize].and(self.slots[b as usize]),
                    Op::Or { a, b, .. } => self.slots[a as usize].or(self.slots[b as usize]),
                    Op::Xor { a, b, .. } => self.slots[a as usize].xor(self.slots[b as usize]),
                    Op::Mux { d0, d1, s, .. } => {
                        W::mux(self.slots[d0 as usize], self.slots[d1 as usize], self.slots[s as usize])
                    }
                };
                self.write_as::<COUNT_LANES>(op.dst(), val, epoch, true);
            }
            if queued {
                // An output written between settles may have just been
                // rewritten unchanged, clearing its stamp: its
                // consumers have not seen the earlier change yet.
                for &op in &prog.ops[blocks.ops(b)] {
                    if let Some(stamp) = self.changed_at.get_mut(op.dst() as usize) {
                        *stamp = epoch;
                    }
                }
            }
        }
        if epoch == u8::MAX - 1 {
            // Every stamp so far belongs to a finished settle.
            self.changed_at.fill(0);
            self.epoch = 0;
        }
        (blocks_run, ops_run)
    }

    /// Capture commit `i`'s next state from pre-edge values into
    /// `next[*n]`.
    #[inline(always)]
    fn capture(&mut self, i: u32, n: &mut usize) {
        let c = self.prog.commits[i as usize];
        let cur = self.state[i as usize];
        self.next[*n] = match c.update {
            SeqUpdate::Edge => self.slots[c.in0 as usize],
            SeqUpdate::EdgeEnable => W::mux(cur, self.slots[c.in0 as usize], self.slots[c.in1 as usize]),
            SeqUpdate::BitcellWrite => W::mux(cur, self.slots[c.in1 as usize], self.slots[c.in0 as usize]),
        };
        self.run[*n] = i;
        *n += 1;
    }

    /// Capture every next state that can change from pre-edge values,
    /// then commit states and q nets — the sequential half of
    /// [`SimBackend::step`]. `Edge` registers always run; an enable
    /// group whose enable word is zero in every lane would keep every
    /// state (`mux(cur, d, 0) = cur`) and is skipped, unless one of its
    /// commits was requeued. Returns the commits that ran. Runs inside
    /// [`LaneWord::dispatch`] like [`BatchExec::settle_pass`].
    #[inline(always)]
    fn capture_commit_pass<const COUNT_LANES: bool>(&mut self) -> usize {
        let blocks = self.blocks;
        let mut n = 0;
        for &i in &blocks.always {
            self.capture(i, &mut n);
        }
        for g in &blocks.groups {
            if !self.slots[g.en as usize].is_zero() {
                for &i in &blocks.grouped[g.start as usize..g.end as usize] {
                    self.capture(i, &mut n);
                }
            }
        }
        // Requeued commits of the skipped groups (the others ran).
        for j in 0..self.requeued.len() {
            let i = self.requeued[j];
            let c = self.prog.commits[i as usize];
            if blocks.gated && c.enable().is_some_and(|en| self.slots[en as usize].is_zero()) {
                self.capture(i, &mut n);
            }
        }
        for &i in &self.requeued {
            self.is_requeued[i as usize] = false;
        }
        self.requeued.clear();
        let epoch = self.epoch + 1;
        for j in 0..n {
            let (i, nv) = (self.run[j] as usize, self.next[j]);
            self.state[i] = nv;
            self.write_as::<COUNT_LANES>(self.prog.commits[i].q, nv, epoch, false);
        }
        n
    }
}

/// Per-lane toggle counters, bit-sliced in the lane word: plane `k` of
/// a net's counter holds bit `k` of every lane's toggle count on that
/// net, so one `and`/`xor` ripple counts every flipped lane of a write
/// at once.
///
/// Storage is net-major — `words[net * planes + k]` — so the planes a
/// write ripples through share cache lines (eight `u64` planes are one
/// line). Plane-major storage, one table per plane, costs a separate
/// line per plane on every write: it measured about twice the counting
/// overhead of this layout on the 8-lane `u64` word (paper chip, 2-vCPU
/// Xeon). The planes start at
/// [`LaneCounters::FIRST_PLANES`] on the first flip and double, on an
/// outlined cold path, whenever a carry leaves the top plane: counts
/// are exact at any size with no cap, and a counter never re-lays out
/// more than `log2` of its largest count times.
#[derive(Debug)]
struct LaneCounters<W> {
    /// Planes per net (0 until the first flip).
    planes: usize,
    /// `nets × planes` lane words, net-major.
    words: Vec<W>,
}

/// Write the per-lane counts of `nets` for lanes `chunk * 64 + shift
/// + j` into `tables[j][net]`, transposing the counter planes' bits.
fn decode_chunk<W: LaneWord>(
    counters: &LaneCounters<W>,
    nets: &[u32],
    chunk: usize,
    shift: usize,
    tables: &mut [Vec<u64>],
) {
    // Runs in the word's ISA context so the transpose of the plane
    // bits into per-lane counts vectorizes with the word's shifts.
    W::dispatch(|| {
        let mut buf = [0u64; 64];
        let counts = &mut buf[..tables.len()];
        for &net in nets {
            counts.fill(0);
            for (k, word) in counters.of(net as usize).iter().enumerate() {
                let bits = word.get_u64(chunk) >> shift;
                if bits != 0 {
                    for (j, count) in counts.iter_mut().enumerate() {
                        *count |= ((bits >> j) & 1) << k;
                    }
                }
            }
            for (table, &count) in tables.iter_mut().zip(counts.iter()) {
                table[net as usize] = count;
            }
        }
    });
}

impl<W: LaneWord> LaneCounters<W> {
    /// Planes allocated on the first flip: counts below 256 never
    /// re-lay out (the paper chip's 128-write weight-update burst stays
    /// well below that).
    const FIRST_PLANES: usize = 8;

    /// All counts zero, no planes allocated.
    fn empty() -> Self {
        LaneCounters { planes: 0, words: Vec::new() }
    }

    /// The planes of net `net`'s counter, lowest bit first.
    #[inline]
    fn of(&self, net: usize) -> &[W] {
        &self.words[net * self.planes..(net + 1) * self.planes]
    }

    /// Add one to the count of every lane set in `flips` on net `d`: a
    /// ripple-carry add that stops as soon as the carry clears.
    #[inline(always)]
    fn add(&mut self, d: usize, flips: W, nets: usize) {
        if flips.is_zero() {
            return;
        }
        let mut carry = flips;
        let p = self.planes;
        for word in &mut self.words[d * p..(d + 1) * p] {
            let bits = *word;
            *word = bits.xor(carry);
            carry = bits.and(carry);
            if carry.is_zero() {
                return;
            }
        }
        self.grow(d, carry, nets);
    }

    /// A carry left the top plane of net `d`: double the planes (or
    /// allocate the first ones), keep every count, and store the carry
    /// as the new bit.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, d: usize, carry: W, nets: usize) {
        let old = self.planes;
        let new = if old == 0 { Self::FIRST_PLANES } else { 2 * old };
        let mut words = vec![W::splat(false); nets * new];
        if old > 0 {
            for (to, from) in words.chunks_exact_mut(new).zip(self.words.chunks_exact(old)) {
                to[..old].copy_from_slice(from);
            }
        }
        words[d * new + old] = carry;
        self.words = words;
        self.planes = new;
        let bytes = new * nets * std::mem::size_of::<W>();
        telemetry::gauge("engine.lane_toggle_bytes").set(bytes as u64);
    }
}

impl<W: LaneWord> SimBackend for BatchExec<'_, W> {
    fn lanes(&self) -> usize {
        self.lanes
    }

    fn module(&self) -> &Module {
        self.module
    }

    fn poke_word(&mut self, net: NetId, word: u64) {
        self.poke_word_at(net, 0, word);
    }

    fn peek_word(&self, net: NetId) -> u64 {
        self.slots[net.index()].get_u64(0)
    }

    fn poke_word_at(&mut self, net: NetId, word_idx: usize, word: u64) {
        assert!(word_idx < self.words(), "word {word_idx} out of range ({} lane words)", self.words());
        let mut val = self.slots[net.index()];
        val.set_u64(word_idx, word);
        self.write(net.index() as u32, val);
    }

    fn peek_word_at(&self, net: NetId, word_idx: usize) -> u64 {
        assert!(word_idx < self.words(), "word {word_idx} out of range ({} lane words)", self.words());
        self.slots[net.index()].get_u64(word_idx)
    }

    fn settle(&mut self) {
        // One runtime dispatch for the whole pass: the closure compiles
        // inside the word's `#[target_feature]` trampoline (identity
        // for portable words).
        let (blocks, ops) = if self.lane_counters.is_some() {
            W::dispatch(|| self.settle_pass::<true>())
        } else {
            W::dispatch(|| self.settle_pass::<false>())
        };
        self.ctr_settles.incr();
        self.ctr_blocks.add(blocks);
        self.ctr_ops.add(ops);
        self.ctr_ops_skipped.add(self.prog.ops.len() as u64 - ops);
    }

    fn step(&mut self) {
        self.advance_fault_cycle();
        self.settle();
        let commits = if self.lane_counters.is_some() {
            W::dispatch(|| self.capture_commit_pass::<true>())
        } else {
            W::dispatch(|| self.capture_commit_pass::<false>())
        };
        self.ctr_commits.add(commits as u64);
        self.lane_cycles += self.lanes as u64;
        self.settle();
    }

    fn force_state_word(&mut self, inst: InstId, word: u64) {
        self.force_state_word_at(inst, 0, word);
    }

    fn state_word(&self, inst: InstId) -> u64 {
        self.state_word_at(inst, 0)
    }

    fn force_state_word_at(&mut self, inst: InstId, word_idx: usize, word: u64) {
        assert!(word_idx < self.words(), "word {word_idx} out of range ({} lane words)", self.words());
        let seq = self.prog.seq_of_inst[inst.index()];
        assert_ne!(seq, u32::MAX, "instance {inst:?} is not sequential");
        let q = self.prog.commits[seq as usize].q;
        let mut val = self.state[seq as usize];
        val.set_u64(word_idx, word);
        self.state[seq as usize] = val;
        self.write(q, val);
    }

    fn state_word_at(&self, inst: InstId, word_idx: usize) -> u64 {
        assert!(word_idx < self.words(), "word {word_idx} out of range ({} lane words)", self.words());
        let seq = self.prog.seq_of_inst[inst.index()];
        assert_ne!(seq, u32::MAX, "instance {inst:?} is not sequential");
        self.state[seq as usize].get_u64(word_idx)
    }

    fn lane_cycles(&self) -> u64 {
        self.lane_cycles
    }

    fn reset_activity(&mut self) {
        self.flush_activity_telemetry();
        self.toggles.iter_mut().for_each(|t| *t = 0);
        if let Some(counters) = &mut self.lane_counters {
            *counters = LaneCounters::empty();
        }
        self.lane_cycles = 0;
    }

    fn toggle_table(&self) -> &[u64] {
        &self.toggles
    }

    fn net_of(&self, port: &str) -> NetId {
        // Binary search on the lowering's shared sorted port table —
        // replaces the default linear scan over `module.ports` and
        // needs no per-executor name map.
        self.prog.syms.port_net(port).map(NetId).unwrap_or_else(|| panic!("no port named `{port}`"))
    }
}

impl<W: LaneWord> Drop for BatchExec<'_, W> {
    fn drop(&mut self) {
        self.flush_activity_telemetry();
    }
}

/// Width- and ISA-selecting engine executor: [`BatchSim`] (`u64`) for
/// up to 64 lanes, then the narrowest wide word that fits — on the
/// widest vector ISA the CPU supports ([`SimdPolicy::select`]). One
/// type for callers that size their batches at run time.
///
/// Set `SYNDCIM_SIMD=portable|avx2|avx512|neon|auto` to pin the data
/// path; invalid or unsupported values are typed errors from
/// [`EngineSim::try_new`] (and panics from [`EngineSim::new`]), never a
/// silent fallback. Every construction records the selected backend on
/// the `engine.simd_backend` telemetry gauge.
///
/// ```
/// use syndcim_engine::{EngineSim, Program};
/// use syndcim_netlist::NetlistBuilder;
/// use syndcim_pdk::CellLibrary;
/// use syndcim_sim::SimBackend;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lib = CellLibrary::syn40();
/// let mut b = NetlistBuilder::new("inv", &lib);
/// let a = b.input("a");
/// let y = b.not(a);
/// b.output("y", y);
/// let m = b.finish();
/// let prog = Program::compile(&m, &lib)?;
///
/// // 100 lanes does not fit a u64, so a 256-lane word is selected —
/// // AVX2/NEON if the CPU has it, portable [u64; 4] otherwise.
/// let mut sim = EngineSim::new(&prog, &m, 100);
/// assert_eq!(sim.lanes(), 100);
/// assert_eq!(sim.word_lanes(), 256);
/// let a_net = m.port("a").unwrap().net;
/// sim.poke_word_at(a_net, 0, !0); // drive lanes 0..64 high
/// sim.settle();
/// assert!(!sim.get_lane("y", 3)); // inverted
/// assert!(sim.get_lane("y", 99)); // lane 99 still low
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub enum EngineSim<'a> {
    /// `u64` lane word, 1..=64 lanes.
    Narrow(BatchSim<'a>),
    /// Portable `[u64; 4]` lane word, 65..=256 lanes.
    Wide(BatchSim256<'a>),
    /// Portable `[u64; 8]` lane word, 257..=512 lanes.
    Wide512(BatchSim512<'a>),
    /// AVX2 `__m256i` lane word, 65..=256 lanes.
    #[cfg(target_arch = "x86_64")]
    Avx2(BatchExec<'a, W256Avx2>),
    /// AVX-512 `__m512i` lane word, 65..=512 lanes.
    #[cfg(target_arch = "x86_64")]
    Avx512(BatchExec<'a, W512Avx512>),
    /// NEON `uint64x2_t` lane word, 65..=256 lanes.
    #[cfg(target_arch = "aarch64")]
    Neon(BatchExec<'a, W256Neon>),
}

macro_rules! delegate {
    ($self:ident, $sim:ident => $body:expr) => {
        match $self {
            EngineSim::Narrow($sim) => $body,
            EngineSim::Wide($sim) => $body,
            EngineSim::Wide512($sim) => $body,
            #[cfg(target_arch = "x86_64")]
            EngineSim::Avx2($sim) => $body,
            #[cfg(target_arch = "x86_64")]
            EngineSim::Avx512($sim) => $body,
            #[cfg(target_arch = "aarch64")]
            EngineSim::Neon($sim) => $body,
        }
    };
}

impl<'a> EngineSim<'a> {
    /// Most lanes one executor carries (the 512-lane word's capacity).
    pub const MAX_LANES: usize = W512::LANES;

    /// Create an executor for `lanes` lanes on the narrowest lane word
    /// that fits, using the widest vector ISA the `SYNDCIM_SIMD` policy
    /// allows and the CPU supports.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero or exceeds what the policy carries
    /// ([`EngineSim::MAX_LANES`] under `auto`), if `SYNDCIM_SIMD` is
    /// invalid or unsupported on this CPU, or on a program/module shape
    /// mismatch. Flows that want these as values call
    /// [`EngineSim::try_new`] (and validate the policy once up front
    /// with [`SimdPolicy::from_env`]).
    pub fn new(prog: &'a Program, module: &'a Module, lanes: usize) -> Self {
        Self::try_new(prog, module, lanes).unwrap_or_else(|e| panic!("engine SIMD selection failed: {e}"))
    }

    /// [`EngineSim::new`] with the selection errors surfaced: consults
    /// `SYNDCIM_SIMD` ([`SimdPolicy::from_env`]), resolves the backend
    /// for `lanes` ([`SimdPolicy::select`]) and constructs on it.
    ///
    /// # Errors
    ///
    /// [`EngineError::SimdUnknown`] / [`EngineError::SimdUnsupported`]
    /// for a bad `SYNDCIM_SIMD` value, [`EngineError::SimdLaneCap`]
    /// when `lanes` exceeds the policy's widest word, and
    /// [`EngineError::ZeroLanes`] for an empty lane set.
    pub fn try_new(prog: &'a Program, module: &'a Module, lanes: usize) -> Result<Self, EngineError> {
        Self::with_policy(prog, module, lanes, SimdPolicy::from_env()?)
    }

    /// [`EngineSim::try_new`] with an explicit [`SimdPolicy`] instead
    /// of the environment.
    ///
    /// # Errors
    ///
    /// As [`EngineSim::try_new`], minus the environment parse.
    pub fn with_policy(
        prog: &'a Program,
        module: &'a Module,
        lanes: usize,
        policy: SimdPolicy,
    ) -> Result<Self, EngineError> {
        if lanes == 0 {
            return Err(EngineError::ZeroLanes);
        }
        Self::with_backend(prog, module, lanes, policy.select(lanes)?)
    }

    /// Construct on an explicit [`SimdBackend`] — the knob the
    /// differential tests and benches use to compare data paths on
    /// identical stimulus. The portable backend still picks the
    /// narrowest `u64`/[`W256`]/[`W512`] word that fits `lanes`.
    ///
    /// # Errors
    ///
    /// [`EngineError::SimdUnsupported`] if this CPU cannot run
    /// `backend`, [`EngineError::SimdLaneCap`] if `lanes` exceeds the
    /// backend's word, [`EngineError::ZeroLanes`] for an empty lane
    /// set.
    pub fn with_backend(
        prog: &'a Program,
        module: &'a Module,
        lanes: usize,
        backend: SimdBackend,
    ) -> Result<Self, EngineError> {
        if lanes == 0 {
            return Err(EngineError::ZeroLanes);
        }
        if !backend.detected() {
            return Err(EngineError::SimdUnsupported { backend });
        }
        if lanes > backend.max_lanes() {
            return Err(EngineError::SimdLaneCap { backend, lanes, max: backend.max_lanes() });
        }
        let sim = match backend {
            SimdBackend::Portable => {
                if lanes <= u64::LANES {
                    EngineSim::Narrow(BatchExec::new(prog, module, lanes))
                } else if lanes <= W256::LANES {
                    EngineSim::Wide(BatchExec::new(prog, module, lanes))
                } else {
                    EngineSim::Wide512(BatchExec::new(prog, module, lanes))
                }
            }
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 => EngineSim::Avx2(BatchExec::new(prog, module, lanes)),
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx512 => EngineSim::Avx512(BatchExec::new(prog, module, lanes)),
            #[cfg(target_arch = "aarch64")]
            SimdBackend::Neon => EngineSim::Neon(BatchExec::new(prog, module, lanes)),
            #[allow(unreachable_patterns)]
            _ => unreachable!("backend {backend} passed detection on an architecture without it"),
        };
        telemetry::gauge("engine.simd_backend").set(backend.code());
        Ok(sim)
    }

    /// Force the portable wide (`[u64; 4]`) word even for small lane
    /// counts — the historical knob width-comparison tests use; ISA
    /// comparisons go through [`EngineSim::with_backend`].
    pub fn new_wide(prog: &'a Program, module: &'a Module, lanes: usize) -> Self {
        EngineSim::Wide(BatchExec::new(prog, module, lanes))
    }

    /// Which SIMD data path this executor runs on.
    pub fn simd_backend(&self) -> SimdBackend {
        match self {
            EngineSim::Narrow(_) | EngineSim::Wide(_) | EngineSim::Wide512(_) => SimdBackend::Portable,
            #[cfg(target_arch = "x86_64")]
            EngineSim::Avx2(_) => SimdBackend::Avx2,
            #[cfg(target_arch = "x86_64")]
            EngineSim::Avx512(_) => SimdBackend::Avx512,
            #[cfg(target_arch = "aarch64")]
            EngineSim::Neon(_) => SimdBackend::Neon,
        }
    }

    /// Lane capacity of the selected word (≥ the active lane count).
    pub fn word_lanes(&self) -> usize {
        match self {
            EngineSim::Narrow(_) => u64::LANES,
            EngineSim::Wide(_) => W256::LANES,
            EngineSim::Wide512(_) => W512::LANES,
            #[cfg(target_arch = "x86_64")]
            EngineSim::Avx2(_) => W256Avx2::LANES,
            #[cfg(target_arch = "x86_64")]
            EngineSim::Avx512(_) => W512Avx512::LANES,
            #[cfg(target_arch = "aarch64")]
            EngineSim::Neon(_) => W256Neon::LANES,
        }
    }

    /// Shrink the active lane set (see [`BatchExec::set_lanes`]).
    pub fn set_lanes(&mut self, lanes: usize) -> Result<(), EngineError> {
        delegate!(self, s => s.set_lanes(lanes))
    }

    /// Start per-lane toggle accounting (see
    /// [`BatchExec::enable_lane_toggles`]).
    pub fn enable_lane_toggles(&mut self) {
        delegate!(self, s => s.enable_lane_toggles())
    }

    /// Per-net toggle counts of one lane (see
    /// [`BatchExec::lane_toggle_table`]).
    pub fn lane_toggle_table(&self, lane: usize) -> Option<Vec<u64>> {
        delegate!(self, s => s.lane_toggle_table(lane))
    }

    /// Fill per-net toggle tables for up to 64 lanes of one chunk (see
    /// [`BatchExec::lane_toggle_tables`]).
    pub fn lane_toggle_tables(&self, first_lane: usize, tables: &mut [Vec<u64>]) -> bool {
        delegate!(self, s => s.lane_toggle_tables(first_lane, tables))
    }

    /// Visit every active lane's toggle table in lane order (see
    /// [`BatchExec::for_each_lane_table`]).
    pub fn for_each_lane_table(&self, visit: impl FnMut(usize, &[u64])) -> bool {
        delegate!(self, s => s.for_each_lane_table(visit))
    }

    /// Install a per-lane fault plan (see [`BatchExec::install_faults`]).
    pub fn install_faults(&mut self, plan: &FaultPlan) -> Result<(), EngineError> {
        delegate!(self, s => s.install_faults(plan))
    }

    /// Remove the installed fault plan (see [`BatchExec::clear_faults`]).
    pub fn clear_faults(&mut self) {
        delegate!(self, s => s.clear_faults())
    }

    /// Whether a non-empty fault plan is installed.
    pub fn faults_installed(&self) -> bool {
        delegate!(self, s => s.faults_installed())
    }

    /// Per-lane compare against a golden lane (see
    /// [`BatchExec::mismatch_mask`]).
    pub fn mismatch_mask(&self, net: NetId, golden_lane: usize) -> Result<Vec<u64>, EngineError> {
        delegate!(self, s => s.mismatch_mask(net, golden_lane))
    }
}

impl SimBackend for EngineSim<'_> {
    fn lanes(&self) -> usize {
        delegate!(self, s => s.lanes())
    }

    fn module(&self) -> &Module {
        delegate!(self, s => SimBackend::module(s))
    }

    fn poke_word(&mut self, net: NetId, word: u64) {
        delegate!(self, s => s.poke_word(net, word))
    }

    fn peek_word(&self, net: NetId) -> u64 {
        delegate!(self, s => s.peek_word(net))
    }

    fn poke_word_at(&mut self, net: NetId, word_idx: usize, word: u64) {
        delegate!(self, s => s.poke_word_at(net, word_idx, word))
    }

    fn peek_word_at(&self, net: NetId, word_idx: usize) -> u64 {
        delegate!(self, s => s.peek_word_at(net, word_idx))
    }

    fn settle(&mut self) {
        delegate!(self, s => s.settle())
    }

    fn step(&mut self) {
        delegate!(self, s => s.step())
    }

    fn force_state_word(&mut self, inst: InstId, word: u64) {
        delegate!(self, s => s.force_state_word(inst, word))
    }

    fn state_word(&self, inst: InstId) -> u64 {
        delegate!(self, s => s.state_word(inst))
    }

    fn force_state_word_at(&mut self, inst: InstId, word_idx: usize, word: u64) {
        delegate!(self, s => s.force_state_word_at(inst, word_idx, word))
    }

    fn state_word_at(&self, inst: InstId, word_idx: usize) -> u64 {
        delegate!(self, s => s.state_word_at(inst, word_idx))
    }

    fn lane_cycles(&self) -> u64 {
        delegate!(self, s => s.lane_cycles())
    }

    fn reset_activity(&mut self) {
        delegate!(self, s => s.reset_activity())
    }

    fn toggle_table(&self) -> &[u64] {
        delegate!(self, s => s.toggle_table())
    }

    fn net_of(&self, port: &str) -> NetId {
        delegate!(self, s => s.net_of(port))
    }
}
