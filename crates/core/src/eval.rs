//! Post-implementation evaluation: run real MAC workloads on the
//! implemented macro, verify every output against the golden model, and
//! measure power/efficiency from the observed switching activity —
//! the "post-layout simulation" sign-off of the paper, plus the
//! measurement conditions of its evaluation section.
//!
//! Every measurement drives a [`SimBackend`]. Two backends exist:
//!
//! * [`EvalBackend::Engine`] (default) — the compiled bit-parallel
//!   `syndcim_engine` backend: up to 512 measurement passes evaluate
//!   simultaneously (`u64` lane words up to 64 lanes, wider portable or
//!   ISA-native SIMD words beyond — `EngineSim` picks the word per
//!   chunk, honoring the `SYNDCIM_SIMD` pin), and pass chunks fan out
//!   across worker threads sharing one compiled program.
//!   Measurement drivers use the incremental (`drive_word_at`) stimulus
//!   path, skipping input ports whose lane word is unchanged between
//!   cycles;
//! * [`EvalBackend::Interpreter`] — the levelized reference
//!   `syndcim_sim::Simulator`, running passes sequentially exactly as
//!   the original sign-off flow did.
//!
//! The backend choice carries through to power conversion: the engine
//! arm reports through the macro's compiled power program (built at
//! `implement` from the shared lowering), the interpreter arm through
//! the reference `PowerAnalyzer` rebuilt per call — two genuinely
//! independent measurement pipelines, end to end.
//!
//! Outputs are golden-model-checked in both backends and the derived
//! measurements are bit-identical (pinned by the backend-agreement
//! tests), so a divergence between the pipelines can never go
//! unnoticed.

use syndcim_engine::{default_threads, parallel_map, EngineSim, SimdPolicy};
use syndcim_netlist::NetId;
use syndcim_pdk::{CellLibrary, OperatingPoint};
use syndcim_power::{tops_per_mm2, tops_per_w, MacThroughput, PowerAnalyzer, PowerReport};
use syndcim_sim::golden::{bit_serial_schedule, fp_align, int_dot, twos_complement_bit, DcimChannelTrace};
use syndcim_sim::{FpValue, Precision, SimBackend, Simulator};
use syndcim_telemetry as telemetry;

use crate::assemble::MacroNetlist;
use crate::error::CoreError;
use crate::flow::ImplementedMacro;

/// Maximum lanes one engine executor carries (the 512-lane word).
const MAX_LANES: usize = EngineSim::MAX_LANES;

/// Lane count for measurement chunks: 64-lane `u64` chunks while they
/// keep every worker thread busy, the widest word the `SYNDCIM_SIMD`
/// policy allows once per-thread batches saturate (one wide pass beats
/// several narrow passes on one core, but not narrow passes spread over
/// idle cores). Capped by [`SimdPolicy::max_lanes`] so a pinned backend
/// (e.g. `SYNDCIM_SIMD=avx2`, a 256-lane word) never receives a chunk
/// its word cannot carry — worker-thread construction must not fail.
pub(crate) fn chunk_lanes(passes: usize) -> usize {
    let threads = default_threads(passes.div_ceil(64));
    if passes <= 64 * threads {
        64
    } else {
        let cap = SimdPolicy::from_env().map(SimdPolicy::max_lanes).unwrap_or(MAX_LANES);
        MAX_LANES.min(cap)
    }
}

/// Which simulation backend a measurement drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalBackend {
    /// Compiled bit-parallel engine (lanes + worker threads).
    #[default]
    Engine,
    /// Interpreted levelized reference simulator.
    Interpreter,
}

/// Result of one measured workload.
#[derive(Debug, Clone)]
pub struct MacMeasurement {
    /// Channel outputs checked against the golden model.
    pub checked_outputs: usize,
    /// Power at the measurement frequency and corner.
    pub power: PowerReport,
    /// Throughput in TOPS at the measured precision.
    pub tops: f64,
    /// Energy efficiency in TOPS/W at the measured precision.
    pub tops_per_w: f64,
    /// Energy efficiency normalized to 1b×1b (the paper's Table II
    /// convention).
    pub tops_per_w_1b: f64,
    /// Area efficiency normalized to 1b×1b, in TOPS/mm².
    pub tops_per_mm2_1b: f64,
    /// Energy per MAC in femtojoules at the measured precision.
    pub energy_per_mac_fj: f64,
}

/// Switching activity accumulated by one or more backend instances:
/// per-net toggle totals plus the matching lane-cycle denominator.
#[derive(Debug, Clone)]
pub struct Activity {
    /// Toggle count per net, indexed by net id.
    pub toggles: Vec<u64>,
    /// Simulated cycles summed over every lane (the toggle-rate
    /// denominator).
    pub lane_cycles: u64,
    /// Channel outputs checked against the golden model.
    pub checked: usize,
}

impl Activity {
    fn merge(mut acc: Activity, other: &Activity) -> Activity {
        for (t, o) in acc.toggles.iter_mut().zip(&other.toggles) {
            *t += o;
        }
        acc.lane_cycles += other.lane_cycles;
        acc.checked += other.checked;
        acc
    }
}

/// Measure an integer MAC workload at `pa`-bit precision (activations
/// and weights both `pa` bits, `pa` a power of two ≤ the macro's
/// configured precision) on the default (engine) backend.
///
/// `passes` holds one activation vector (length `h`) per pass;
/// `weights[ch]` holds the `h` signed weights of output channel `ch`
/// (`ch < w / pa`). Weights are preloaded into bank 0.
///
/// Every channel output of every pass is compared against
/// [`DcimChannelTrace`]; power comes from the observed toggles.
///
/// ```
/// use syndcim_core::{implement, measure_int, DesignChoice, MacroSpec};
/// use syndcim_pdk::{CellLibrary, OperatingPoint};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lib = CellLibrary::syn40();
/// let spec = MacroSpec {
///     h: 8, w: 8, mcr: 2,
///     int_precisions: vec![1, 2, 4], fp_precisions: vec![],
///     f_mac_mhz: 400.0, f_wu_mhz: 400.0, vdd_v: 0.9,
///     ppa: Default::default(),
/// };
/// let im = implement(&lib, &spec, &DesignChoice::default())?;
/// // Two INT4 channels (8 / pa), three passes of 8 activations each.
/// let weights = vec![vec![3, -2, 1, 0, -4, 5, 2, -1], vec![1; 8]];
/// let passes = vec![vec![1; 8], vec![-3; 8], vec![7, -8, 0, 2, 1, -1, 4, 3]];
/// let m = measure_int(&im, &lib, 4, &passes, &weights,
///                     OperatingPoint::at_voltage(0.9), 400.0)?;
/// assert_eq!(m.checked_outputs, 2 * 3); // every channel of every pass
/// assert!(m.power.total_uw() > 0.0 && m.tops_per_w > 0.0);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`CoreError::FunctionalMismatch`] if any output disagrees
/// with the golden model, [`CoreError::Precision`] for an unsupported
/// `pa`, and [`CoreError::Dimension`] for mis-shaped vectors.
pub fn measure_int(
    im: &ImplementedMacro,
    lib: &CellLibrary,
    pa: u32,
    passes: &[Vec<i64>],
    weights: &[Vec<i64>],
    op: OperatingPoint,
    f_mhz: f64,
) -> Result<MacMeasurement, CoreError> {
    measure_int_with(im, lib, pa, passes, weights, op, f_mhz, EvalBackend::default())
}

/// [`measure_int`] with an explicit backend choice.
///
/// # Errors
///
/// Returns [`CoreError::FunctionalMismatch`] if any output disagrees
/// with the golden model.
#[allow(clippy::too_many_arguments)]
pub fn measure_int_with(
    im: &ImplementedMacro,
    lib: &CellLibrary,
    pa: u32,
    passes: &[Vec<i64>],
    weights: &[Vec<i64>],
    op: OperatingPoint,
    f_mhz: f64,
    backend: EvalBackend,
) -> Result<MacMeasurement, CoreError> {
    let activity = int_activity(im, lib, pa, passes, weights, backend)?;
    let measurement = finish_measurement(im, lib, &activity, pa, pa, op, f_mhz, backend);
    Ok(MacMeasurement { checked_outputs: activity.checked, ..measurement })
}

/// Run the INT workload on the chosen backend and return its activity.
/// The engine backend executes the simulation program the macro has
/// carried since `implement` (compiled from the shared lowering) — no
/// per-call netlist walk.
///
/// ```
/// use syndcim_core::{implement, int_activity, DesignChoice, EvalBackend, MacroSpec};
/// use syndcim_pdk::CellLibrary;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lib = CellLibrary::syn40();
/// let spec = MacroSpec {
///     h: 8, w: 8, mcr: 2,
///     int_precisions: vec![1, 2, 4], fp_precisions: vec![],
///     f_mac_mhz: 400.0, f_wu_mhz: 400.0, vdd_v: 0.9,
///     ppa: Default::default(),
/// };
/// let im = implement(&lib, &spec, &DesignChoice::default())?;
/// // Two INT4 channels (8 / pa), three passes of 8 activations each.
/// let weights = vec![vec![3, -2, 1, 0, -4, 5, 2, -1], vec![1; 8]];
/// let passes = vec![vec![1; 8], vec![-3; 8], vec![7, -8, 0, 2, 1, -1, 4, 3]];
/// let a = int_activity(&im, &lib, 4, &passes, &weights, EvalBackend::Engine)?;
/// assert_eq!(a.toggles.len(), im.mac.module.net_count());
/// assert_eq!(a.checked, weights.len() * passes.len()); // channels × passes
/// assert!(a.lane_cycles > 0);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// [`CoreError::Precision`] for an unsupported `pa`,
/// [`CoreError::Dimension`] for mis-shaped vectors,
/// [`CoreError::FunctionalMismatch`] for golden-model disagreement —
/// the same contract as [`measure_int`] (the seed flow panicked on the
/// first two).
pub fn int_activity(
    im: &ImplementedMacro,
    lib: &CellLibrary,
    pa: u32,
    passes: &[Vec<i64>],
    weights: &[Vec<i64>],
    backend: EvalBackend,
) -> Result<Activity, CoreError> {
    let mac = &im.mac;
    if !pa.is_power_of_two() || pa > mac.w_bits {
        return Err(CoreError::Precision { pa, max: mac.w_bits });
    }
    let channels = mac.w / pa as usize;
    if weights.len() != channels {
        return Err(CoreError::Dimension { what: "weight vectors", got: weights.len(), want: channels });
    }
    if let Some(w) = weights.iter().find(|w| w.len() != mac.h) {
        return Err(CoreError::Dimension { what: "weight vector entries", got: w.len(), want: mac.h });
    }
    if let Some(a) = passes.iter().find(|a| a.len() != mac.h) {
        return Err(CoreError::Dimension { what: "activation vector entries", got: a.len(), want: mac.h });
    }
    let golden =
        |lane_acts: &Vec<i64>, ch: usize| DcimChannelTrace::run(lane_acts, &weights[ch], pa, pa).output;
    match backend {
        EvalBackend::Interpreter => {
            telemetry::span!("eval.int.interpreter");
            // Each measurement pass is an independent vector sample from
            // the quiesced state — the same condition an engine lane
            // sees, so both backends produce bit-identical activity.
            // Every instance rides the macro's shared lowering (same
            // levelize order, shared symbol-keyed port table — no owned
            // name map per pass).
            let results: Vec<Result<Activity, CoreError>> = passes
                .iter()
                .map(|acts| {
                    let mut sim = Simulator::with_lowering(&mac.module, lib, &im.compiled.lowering)?;
                    setup_int(&mut sim, mac, pa, weights);
                    run_pass_lanes(&mut sim, mac, pa, std::slice::from_ref(acts));
                    let checked = check_channels(&sim, mac, pa, pa, std::slice::from_ref(acts), &golden)?;
                    Ok(Activity {
                        toggles: sim.toggle_table().to_vec(),
                        lane_cycles: sim.lane_cycles(),
                        checked,
                    })
                })
                .collect();
            merge_activities(mac, results)
        }
        EvalBackend::Engine => {
            telemetry::span!("eval.int.engine");
            // Surface a bad SYNDCIM_SIMD as a typed error before any
            // worker thread constructs an executor.
            SimdPolicy::from_env()?;
            let prog = &im.compiled.program;
            let chunks: Vec<&[Vec<i64>]> = passes.chunks(chunk_lanes(passes.len())).collect();
            let results = parallel_map(chunks, |_, chunk| -> Result<Activity, CoreError> {
                let mut sim = EngineSim::try_new(prog, &mac.module, chunk.len())?;
                setup_int(&mut sim, mac, pa, weights);
                run_pass_lanes(&mut sim, mac, pa, chunk);
                let checked = check_channels(&sim, mac, pa, pa, chunk, &golden)?;
                Ok(Activity { toggles: sim.toggle_table().to_vec(), lane_cycles: sim.lane_cycles(), checked })
            });
            merge_activities(mac, results)
        }
    }
}

fn merge_activities(
    mac: &MacroNetlist,
    results: Vec<Result<Activity, CoreError>>,
) -> Result<Activity, CoreError> {
    let mut acc = Activity { toggles: vec![0; mac.module.net_count()], lane_cycles: 0, checked: 0 };
    for r in results {
        acc = Activity::merge(acc, &r?);
    }
    Ok(acc)
}

/// Measure an FP MAC workload in the macro's configured FP format, on
/// the default (engine) backend. FP activations go through the on-macro
/// alignment unit; FP weights are pre-aligned (as the paper's flow
/// stores them) and written as signed mantissas across
/// `next_power_of_two(man+2)` columns.
///
/// # Errors
///
/// Returns [`CoreError::FunctionalMismatch`] if the hardware disagrees
/// with [`syndcim_sim::golden::fp_dot`] semantics,
/// [`CoreError::MissingFpUnit`] if the macro was built without an FP
/// precision, and [`CoreError::Dimension`] for mis-shaped vectors.
pub fn measure_fp(
    im: &ImplementedMacro,
    lib: &CellLibrary,
    passes: &[Vec<FpValue>],
    weights: &[Vec<FpValue>],
    op: OperatingPoint,
    f_mhz: f64,
) -> Result<MacMeasurement, CoreError> {
    measure_fp_with(im, lib, passes, weights, op, f_mhz, EvalBackend::default())
}

/// [`measure_fp`] with an explicit backend choice.
///
/// # Errors
///
/// Returns [`CoreError::FunctionalMismatch`] if the hardware disagrees
/// with the golden model, [`CoreError::MissingFpUnit`] if the macro was
/// built without an FP precision, and [`CoreError::Dimension`] for
/// mis-shaped vectors.
#[allow(clippy::too_many_arguments)]
pub fn measure_fp_with(
    im: &ImplementedMacro,
    lib: &CellLibrary,
    passes: &[Vec<FpValue>],
    weights: &[Vec<FpValue>],
    op: OperatingPoint,
    f_mhz: f64,
    backend: EvalBackend,
) -> Result<MacMeasurement, CoreError> {
    let mac = &im.mac;
    let Some(fmt) = mac.fp else {
        return Err(CoreError::MissingFpUnit);
    };
    let pa = fmt.aligned_bits();
    let pw = pa.next_power_of_two().max(2);
    let channels = mac.w / pw as usize;
    if weights.len() != channels {
        return Err(CoreError::Dimension { what: "FP weight vectors", got: weights.len(), want: channels });
    }
    if let Some(w) = weights.iter().find(|w| w.len() != mac.h) {
        return Err(CoreError::Dimension { what: "FP weight vector entries", got: w.len(), want: mac.h });
    }
    if let Some(a) = passes.iter().find(|a| a.len() != mac.h) {
        return Err(CoreError::Dimension { what: "FP activation vector entries", got: a.len(), want: mac.h });
    }

    // Pre-align weights per channel (offline, like the paper's flow).
    let aligned_w: Vec<Vec<i64>> = weights.iter().map(|wv| fp_align(wv, fmt).0).collect();

    let run_chunk = |sim: &mut dyn SimBackend, chunk: &[Vec<FpValue>]| -> Result<Activity, CoreError> {
        let golden = |lane_acts: &Vec<i64>, ch: usize| int_dot(lane_acts, &aligned_w[ch]);
        let mut checked = 0usize;
        // Feed the FP operands through the alignment unit (one cycle to
        // its output register).
        for (lane, acts) in chunk.iter().enumerate() {
            for (r, v) in acts.iter().enumerate() {
                sim.set_lane(&format!("fp_s{r}"), lane, v.sign);
                sim.set_bus_lane(&format!("fp_e{r}"), fmt.exp_bits, lane, v.exp_field as i64);
                sim.set_bus_lane(&format!("fp_m{r}"), fmt.man_bits, lane, v.man_field as i64);
            }
        }
        sim.step();
        if mac.choice.align_pipelined {
            // Mid-tree and e_max register banks add two cycles.
            sim.step();
            sim.step();
        }
        let mut aligned_chunk: Vec<Vec<i64>> = Vec::with_capacity(chunk.len());
        for (lane, acts) in chunk.iter().enumerate() {
            let aligned_a: Vec<i64> =
                (0..mac.h).map(|r| sim.get_bus_signed_lane(&format!("al{r}"), pa, lane)).collect();
            // The on-macro alignment must match the golden model bit-exactly.
            let (golden_a, _emax) = fp_align(acts, fmt);
            if aligned_a != golden_a {
                return Err(CoreError::FunctionalMismatch {
                    channel: usize::MAX,
                    got: aligned_a[0],
                    want: golden_a[0],
                });
            }
            aligned_chunk.push(aligned_a);
        }
        // Bit-serial MAC over the aligned mantissas.
        run_pass_lanes(sim, mac, pa, &aligned_chunk);
        checked += check_channels(sim, mac, pa, pw, &aligned_chunk, &golden)?;
        Ok(Activity { toggles: sim.toggle_table().to_vec(), lane_cycles: sim.lane_cycles(), checked })
    };

    let activity = match backend {
        EvalBackend::Interpreter => {
            // Independent reference pass per vector (see int_activity).
            let results: Vec<Result<Activity, CoreError>> = passes
                .iter()
                .map(|acts| {
                    let mut sim = Simulator::with_lowering(&mac.module, lib, &im.compiled.lowering)?;
                    setup_fp(&mut sim, mac, pw, &aligned_w);
                    run_chunk(&mut sim, std::slice::from_ref(acts))
                })
                .collect();
            merge_activities(mac, results)?
        }
        EvalBackend::Engine => {
            SimdPolicy::from_env()?;
            let prog = &im.compiled.program;
            let chunks: Vec<&[Vec<FpValue>]> = passes.chunks(chunk_lanes(passes.len())).collect();
            let results = parallel_map(chunks, |_, chunk| -> Result<Activity, CoreError> {
                let mut sim = EngineSim::try_new(prog, &mac.module, chunk.len())?;
                setup_fp(&mut sim, mac, pw, &aligned_w);
                run_chunk(&mut sim, chunk)
            });
            merge_activities(mac, results)?
        }
    };

    let measurement = finish_measurement(im, lib, &activity, pa, pw, op, f_mhz, backend);
    Ok(MacMeasurement { checked_outputs: activity.checked, ..measurement })
}

/// Result of a weight-update measurement over one or more independent
/// random write patterns.
#[derive(Debug, Clone)]
pub struct WeightUpdateMeasurement {
    /// Mean energy per written weight bit across patterns, in fJ.
    pub energy_per_bit_fj: f64,
    /// Population standard deviation of the per-pattern write energy
    /// per bit, in fJ (0 when a single pattern is measured).
    pub energy_per_bit_std_fj: f64,
    /// Independent random write patterns measured.
    pub patterns: usize,
    /// Write bandwidth at the measurement frequency, in Gb/s.
    pub bandwidth_gbps: f64,
    /// Bits written per pattern.
    pub bits_written: usize,
}

/// Independent write patterns [`measure_weight_update`] drives by
/// default — each occupies one engine lane.
pub const DEFAULT_WU_PATTERNS: usize = 8;

/// Measure the weight-update path on the default (engine) backend:
/// stream random weights into every (bank, row) through the real write
/// port (BL drivers + address decoder + bitcell capture) and account the
/// switching energy — the dimension-dependent driver cost the paper
/// attributes to WL/BL drivers, and the per-bitcell write cost that
/// differentiates the cell variants. [`DEFAULT_WU_PATTERNS`] independent
/// random data patterns run simultaneously as engine lanes; the result
/// reports the mean and spread of the per-bit write energy across them.
///
/// # Errors
///
/// Returns [`CoreError::FunctionalMismatch`] if any bitcell fails to
/// capture its written value.
pub fn measure_weight_update(
    im: &ImplementedMacro,
    lib: &CellLibrary,
    op: OperatingPoint,
    f_mhz: f64,
    seed: u64,
) -> Result<WeightUpdateMeasurement, CoreError> {
    measure_weight_update_with(im, lib, op, f_mhz, seed, EvalBackend::default())
}

/// [`measure_weight_update`] with an explicit backend choice.
///
/// # Errors
///
/// Returns [`CoreError::FunctionalMismatch`] if any bitcell fails to
/// capture its written value.
pub fn measure_weight_update_with(
    im: &ImplementedMacro,
    lib: &CellLibrary,
    op: OperatingPoint,
    f_mhz: f64,
    seed: u64,
    backend: EvalBackend,
) -> Result<WeightUpdateMeasurement, CoreError> {
    measure_weight_update_patterns(im, lib, op, f_mhz, seed, DEFAULT_WU_PATTERNS, backend)
}

/// [`measure_weight_update`] over an explicit number of independent
/// write patterns. On the engine backend every pattern occupies one
/// lane of a single executor (per-lane toggle accounting attributes the
/// energy); the interpreter runs the same per-pattern stimulus streams
/// sequentially, so both backends report identical per-pattern energies.
///
/// # Errors
///
/// Returns [`CoreError::FunctionalMismatch`] if any bitcell fails to
/// capture its written value in any pattern, and
/// [`CoreError::PatternCount`] if `patterns` is zero or exceeds the
/// engine's lane capacity (the seed flow panicked here).
pub fn measure_weight_update_patterns(
    im: &ImplementedMacro,
    lib: &CellLibrary,
    op: OperatingPoint,
    f_mhz: f64,
    seed: u64,
    patterns: usize,
    backend: EvalBackend,
) -> Result<WeightUpdateMeasurement, CoreError> {
    if !(1..=MAX_LANES).contains(&patterns) {
        return Err(CoreError::PatternCount { patterns, max: MAX_LANES });
    }
    let mac = &im.mac;
    let bits = mac.w * mac.h * mac.mcr;
    let energies: Vec<f64> = match backend {
        EvalBackend::Interpreter => {
            let mut acts = Vec::with_capacity(patterns);
            for l in 0..patterns {
                let mut sim = Simulator::with_lowering(&mac.module, lib, &im.compiled.lowering)?;
                acts.push(run_weight_update(&mut sim, mac, pattern_seed(seed, l as u64))?);
            }
            // The interpreter arm keeps the seed's reference analyzer so
            // the backend knob exercises two genuinely independent power
            // paths — bit-identical by the differential pinning,
            // cross-checked by the backend-agreement tests below.
            let pa = PowerAnalyzer::with_wire_caps(&mac.module, lib, &im.wires.cap_ff)?;
            acts.iter()
                .map(|a| {
                    let power = pa.from_activity(&a.toggles, a.lane_cycles, f_mhz, op);
                    power.energy_per_cycle_pj * 1000.0 * a.lane_cycles as f64 / bits as f64
                })
                .collect()
        }
        EvalBackend::Engine => {
            telemetry::span!("eval.wu.engine");
            let mut sim = EngineSim::try_new(&im.compiled.program, &mac.module, patterns)?;
            sim.enable_lane_toggles();
            let expect = {
                telemetry::span!("eval.wu.write");
                write_weight_update_lanes(&mut sim, mac, seed, patterns)
            };
            {
                telemetry::span!("eval.wu.verify");
                verify_weight_update_lanes(&sim, mac, &expect)?;
            }
            // The engine arm rides the macro's compiled power program
            // (wire caps baked at implement time), one lane table at a
            // time.
            telemetry::span!("eval.wu.energy");
            let cycles = sim.lane_cycles() / patterns as u64;
            let mut energies = Vec::with_capacity(patterns);
            for_each_lane_table(&sim, |_, toggles| {
                energies.push(lane_write_energy_fj(im, toggles, cycles, op));
            });
            energies
        }
    };

    let mean = energies.iter().sum::<f64>() / energies.len() as f64;
    let var = energies.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / energies.len() as f64;
    Ok(WeightUpdateMeasurement {
        energy_per_bit_fj: mean,
        energy_per_bit_std_fj: var.sqrt(),
        patterns,
        bandwidth_gbps: mac.w as f64 * f_mhz * 1e6 / 1e9,
        bits_written: bits,
    })
}

/// Derive the xorshift stream of one write pattern. Pattern 0 keeps the
/// seed's original `seed | 1` stream so single-pattern measurements
/// reproduce historical numbers.
pub(crate) fn pattern_seed(seed: u64, pattern: u64) -> u64 {
    seed.wrapping_add(pattern.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Write energy per written weight bit, in fJ, of one lane's per-net
/// toggle table over `cycles` write-burst cycles, on the macro's
/// compiled power program (energy per cycle does not depend on the
/// clock frequency).
pub(crate) fn lane_write_energy_fj(
    im: &ImplementedMacro,
    toggles: &[u64],
    cycles: u64,
    op: OperatingPoint,
) -> f64 {
    let bits = im.mac.w * im.mac.h * im.mac.mcr;
    im.compiled.power.energy_per_cycle_pj(toggles, cycles, op) * 1000.0 * cycles as f64 / bits as f64
}

/// Visit every active lane's per-net toggle table in lane order,
/// decoding one 64-lane chunk at a time into reused tables — never all
/// lanes' tables at once.
///
/// # Panics
///
/// Panics if per-lane toggle accounting was not enabled on `sim`.
pub(crate) fn for_each_lane_table(sim: &EngineSim<'_>, visit: impl FnMut(usize, &[u64])) {
    assert!(sim.for_each_lane_table(visit), "per-lane toggles were enabled before driving stimulus");
}

/// Low-lane mask of 64-lane word `wi` in a `lanes`-lane batch.
fn word_mask(lanes: usize, wi: usize) -> u64 {
    match lanes.saturating_sub(wi * 64) {
        0 => 0,
        n @ 1..=63 => (1u64 << n) - 1,
        _ => !0,
    }
}

fn run_weight_update<B: SimBackend>(
    sim: &mut B,
    mac: &MacroNetlist,
    seed: u64,
) -> Result<Activity, CoreError> {
    use rand_like::next_bit;
    configure_precision(sim, mac, mac.w_bits);
    quiesce(sim, mac);
    sim.reset_activity();

    let wbl_nets: Vec<NetId> = (0..mac.w).map(|c| sim.net_of(&format!("wbl[{c}]"))).collect();
    let mut state = seed | 1;
    let mut expect: Vec<Vec<Vec<bool>>> = vec![vec![vec![false; mac.w]; mac.h]; mac.mcr];
    for (bank, expect_bank) in expect.iter_mut().enumerate() {
        for (row, expect_row) in expect_bank.iter_mut().enumerate() {
            sim.set_all("wr_en", true);
            sim.set_bus_all("wr_row", mac.h.trailing_zeros(), row as i64);
            if mac.mcr > 1 {
                sim.set_bus_all("wr_bank", mac.mcr.trailing_zeros(), bank as i64);
            }
            for (&net, e) in wbl_nets.iter().zip(expect_row.iter_mut()) {
                let bit = next_bit(&mut state);
                *e = bit;
                sim.drive_word_at(net, 0, if bit { !0 } else { 0 });
            }
            sim.step();
        }
    }
    sim.set_all("wr_en", false);

    // Verify every bitcell captured its bit.
    for bc in &mac.bitcells {
        let want = expect[bc.bank][bc.row][bc.col];
        if sim.state_of_lane(bc.inst, 0) != want {
            return Err(CoreError::FunctionalMismatch {
                channel: bc.col,
                got: sim.state_of_lane(bc.inst, 0) as i64,
                want: want as i64,
            });
        }
    }
    Ok(Activity { toggles: sim.toggle_table().to_vec(), lane_cycles: sim.lane_cycles(), checked: 0 })
}

/// Drive `patterns` independent random write streams simultaneously —
/// pattern `l` in lane `l` — with per-lane toggle accounting on. The
/// address sequence is shared (it is data-independent); the written
/// data differs per lane. Returns the written lane words, indexed
/// `((bank * h + row) * w + col) * words + wi`: exactly what every
/// bitcell must hold afterwards.
fn write_weight_update_lanes(
    sim: &mut EngineSim<'_>,
    mac: &MacroNetlist,
    seed: u64,
    patterns: usize,
) -> Vec<u64> {
    use rand_like::next_bit;
    configure_precision(sim, mac, mac.w_bits);
    quiesce(sim, mac);
    sim.reset_activity();

    let wbl_nets: Vec<NetId> = (0..mac.w).map(|c| sim.net_of(&format!("wbl[{c}]"))).collect();
    let mut streams: Vec<u64> = (0..patterns).map(|l| pattern_seed(seed, l as u64) | 1).collect();
    let words = sim.words();
    let mut expect = Vec::with_capacity(mac.mcr * mac.h * mac.w * words);
    for bank in 0..mac.mcr {
        for row in 0..mac.h {
            sim.set_all("wr_en", true);
            sim.set_bus_all("wr_row", mac.h.trailing_zeros(), row as i64);
            if mac.mcr > 1 {
                sim.set_bus_all("wr_bank", mac.mcr.trailing_zeros(), bank as i64);
            }
            for &net in &wbl_nets {
                for wi in 0..words {
                    let mut word = 0u64;
                    for (l, stream) in streams.iter_mut().enumerate().skip(wi * 64).take(64) {
                        word |= (next_bit(stream) as u64) << (l - wi * 64);
                    }
                    expect.push(word);
                    sim.drive_word_at(net, wi, word);
                }
            }
            sim.step();
        }
    }
    sim.set_all("wr_en", false);
    expect
}

/// Check every bitcell captured its bit in every lane, comparing whole
/// 64-lane state words against the written ones. The first mismatch is
/// reported in bitcell-then-lane order.
fn verify_weight_update_lanes(
    sim: &EngineSim<'_>,
    mac: &MacroNetlist,
    expect: &[u64],
) -> Result<(), CoreError> {
    let words = sim.words();
    for bc in &mac.bitcells {
        let at = ((bc.bank * mac.h + bc.row) * mac.w + bc.col) * words;
        for (wi, &want) in expect[at..at + words].iter().enumerate() {
            let got = sim.state_word_at(bc.inst, wi);
            let diff = (got ^ want) & word_mask(sim.lanes(), wi);
            if diff != 0 {
                let bit = diff.trailing_zeros();
                return Err(CoreError::FunctionalMismatch {
                    channel: bc.col,
                    got: (got >> bit & 1) as i64,
                    want: (want >> bit & 1) as i64,
                });
            }
        }
    }
    Ok(())
}

/// Tiny xorshift bit source (keeps `rand` out of the library API).
pub(crate) mod rand_like {
    pub fn next_bit(state: &mut u64) -> bool {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state & 1 == 1
    }
}

// ----------------------------------------------------------------------
// Backend-generic workload drivers.
// ----------------------------------------------------------------------

fn setup_int<B: SimBackend>(sim: &mut B, mac: &MacroNetlist, pa: u32, weights: &[Vec<i64>]) {
    preload_weights(sim, mac, pa, weights);
    configure_precision(sim, mac, pa);
    quiesce(sim, mac);
    sim.reset_activity();
}

fn setup_fp<B: SimBackend>(sim: &mut B, mac: &MacroNetlist, pw: u32, aligned_w: &[Vec<i64>]) {
    preload_weights(sim, mac, pw, aligned_w);
    configure_precision(sim, mac, pw);
    quiesce(sim, mac);
    sim.reset_activity();
}

fn preload_weights<B: SimBackend>(sim: &mut B, mac: &MacroNetlist, pw: u32, weights: &[Vec<i64>]) {
    for bc in &mac.bitcells {
        if bc.bank != 0 {
            continue;
        }
        let ch = bc.col / pw as usize;
        let j = (bc.col % pw as usize) as u32;
        if ch < weights.len() {
            let bit = twos_complement_bit(weights[ch][bc.row], pw, j);
            sim.force_state_all(bc.inst, bit);
        }
    }
}

pub(crate) fn configure_precision<B: SimBackend + ?Sized>(sim: &mut B, mac: &MacroNetlist, pw: u32) {
    let level = pw.trailing_zeros() as usize;
    for k in 0..=(mac.w_bits.trailing_zeros() as usize) {
        sim.set_all(&format!("prec[{k}]"), k == level);
    }
    // Bank 0 selected; write interface idle.
    for k in 0..mac.mcr.trailing_zeros() as usize {
        sim.set_all(&format!("bank_sel[{k}]"), false);
    }
    sim.set_all("wr_en", false);
}

pub(crate) fn quiesce<B: SimBackend + ?Sized>(sim: &mut B, mac: &MacroNetlist) {
    for r in 0..mac.h {
        sim.set_all(&format!("act[{r}]"), false);
    }
    sim.set_all("neg", false);
    sim.set_all("clear", false);
    sim.step();
    sim.step();
}

/// Drive one bit-serial pass of `pa`-bit activations in every lane
/// simultaneously (lane `l` computes `lanes_acts[l]`), leaving the
/// accumulators holding the completed pass. Stimulus goes through the
/// incremental [`SimBackend::drive_word_at`] path, so input ports whose
/// lane word repeats between cycles are not re-driven — bit-identical
/// toggles, less driver overhead.
fn run_pass_lanes(
    sim: &mut (impl SimBackend + ?Sized),
    mac: &MacroNetlist,
    pa: u32,
    lanes_acts: &[Vec<i64>],
) {
    assert!(lanes_acts.len() <= sim.lanes(), "more passes than active lanes");
    let depth = mac.mac_pipeline_depth as u32;
    // schedules[lane][cycle][row]
    let schedules: Vec<Vec<Vec<bool>>> =
        lanes_acts.iter().map(|acts| bit_serial_schedule(acts, pa)).collect();
    let act_nets: Vec<NetId> = (0..mac.h).map(|r| sim.net_of(&format!("act[{r}]"))).collect();
    let clear_net = sim.net_of("clear");
    let neg_net = sim.net_of("neg");
    let words = sim.words();
    let total = pa + depth + u32::from(mac.choice.ofu_extra_pipe);
    for cycle in 0..total {
        // Activation bits enter on cycles 0..pa.
        for (r, &net) in act_nets.iter().enumerate() {
            for wi in 0..words {
                let mut word = 0u64;
                if cycle < pa {
                    for (l, sched) in schedules.iter().enumerate().skip(wi * 64).take(64) {
                        word |= (sched[cycle as usize][r] as u64) << (l - wi * 64);
                    }
                }
                sim.drive_word_at(net, wi, word);
            }
        }
        // S&A controls are aligned to the psum arrival (delayed by the
        // pipeline registers between tree and accumulator).
        for wi in 0..words {
            sim.drive_word_at(clear_net, wi, if cycle == depth { !0 } else { 0 });
            sim.drive_word_at(neg_net, wi, if cycle == pa - 1 + depth { !0 } else { 0 });
        }
        sim.step();
    }
    for wi in 0..words {
        sim.drive_word_at(neg_net, wi, 0);
    }
}

/// Golden-check every channel of every lane after a completed pass.
/// `golden(lane_acts, ch)` supplies the expected channel value.
fn check_channels(
    sim: &(impl SimBackend + ?Sized),
    mac: &MacroNetlist,
    pa: u32,
    pw: u32,
    lanes_acts: &[Vec<i64>],
    golden: &impl Fn(&Vec<i64>, usize) -> i64,
) -> Result<usize, CoreError> {
    let channels = mac.w / pw as usize;
    let mut checked = 0usize;
    for (lane, acts) in lanes_acts.iter().enumerate() {
        for ch in 0..channels {
            let got = read_channel_lane(sim, mac, pa, pw, ch, lane);
            let want = golden(acts, ch);
            if got != want {
                return Err(CoreError::FunctionalMismatch { channel: ch, got, want });
            }
            checked += 1;
        }
    }
    Ok(checked)
}

/// Read channel `ch` fused over `pw` columns after a `pa`-bit pass, in
/// one lane. The S&A places results at a fixed offset for the macro's
/// full serial width, so shorter passes come out scaled by `2^(n−pa)`.
fn read_channel_lane(
    sim: &(impl SimBackend + ?Sized),
    mac: &MacroNetlist,
    pa: u32,
    pw: u32,
    ch: usize,
    lane: usize,
) -> i64 {
    let level = pw.trailing_zeros() as usize;
    let per_group = (mac.w_bits / pw) as usize;
    let g = ch / per_group;
    let i = ch % per_group;
    let width = mac.output_width(level) as u32;
    let raw = sim.get_bus_signed_lane(&mac.output_port(g, level, i), width, lane);
    let scale_shift = mac.act_bits - pa;
    debug_assert_eq!(raw & ((1 << scale_shift) - 1), 0, "low bits below the serial offset must be zero");
    raw >> scale_shift
}

#[allow(clippy::too_many_arguments)]
fn finish_measurement(
    im: &ImplementedMacro,
    lib: &CellLibrary,
    activity: &Activity,
    pa: u32,
    pw: u32,
    op: OperatingPoint,
    f_mhz: f64,
    backend: EvalBackend,
) -> MacMeasurement {
    let mac = &im.mac;
    let pa_prec = Precision::Int(pa);
    let pw_prec = Precision::Int(pw);
    // Engine backend: one linear pass on the macro's compiled power
    // program (wire caps baked at implement time). Interpreter backend:
    // the seed's reference analyzer, rebuilt per call — keeping the
    // two measurement arms independent end to end (sim *and* power),
    // bit-identical by the differential pinning.
    let cycles = activity.lane_cycles.max(1);
    let power = match backend {
        EvalBackend::Engine => im.compiled.power.report(&activity.toggles, cycles, f_mhz, op),
        EvalBackend::Interpreter => PowerAnalyzer::with_wire_caps(&mac.module, lib, &im.wires.cap_ff)
            .expect("implemented macros are well-formed")
            .from_activity(&activity.toggles, cycles, f_mhz, op),
    };

    let tput = MacThroughput { h: mac.h, w: mac.w, act: pa_prec, weight: pw_prec };
    let tops = tput.tops(f_mhz);
    let tops_1b = tput.tops_1b(f_mhz);
    let total_uw = power.total_uw();
    let macs_per_sec = tput.macs_per_pass() / tput.cycles_per_pass() * f_mhz * 1e6;
    let energy_per_mac_fj = total_uw * 1e-6 / macs_per_sec * 1e15;
    MacMeasurement {
        checked_outputs: 0,
        power,
        tops,
        tops_per_w: tops_per_w(tops, total_uw),
        tops_per_w_1b: tops_per_w(tops_1b, total_uw),
        tops_per_mm2_1b: tops_per_mm2(tops_1b, im.placement.die_area_um2()),
        energy_per_mac_fj,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignChoice;
    use crate::flow::implement;
    use crate::spec::MacroSpec;
    use syndcim_sim::vectors::{random_ints, seeded_rng, sparse_ints};
    use syndcim_sim::FpFormat;

    fn spec_int() -> MacroSpec {
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
    fn int4_and_int2_and_int1_all_verify() {
        let lib = CellLibrary::syn40();
        let im = implement(&lib, &spec_int(), &DesignChoice::default()).unwrap();
        let mut rng = seeded_rng(5);
        for pa in [4u32, 2, 1] {
            let channels = 8 / pa as usize;
            let weights: Vec<Vec<i64>> = (0..channels).map(|_| random_ints(&mut rng, 8, pa)).collect();
            let passes: Vec<Vec<i64>> = (0..4).map(|_| random_ints(&mut rng, 8, pa)).collect();
            let m = measure_int(&im, &lib, pa, &passes, &weights, OperatingPoint::at_voltage(0.9), 400.0)
                .unwrap_or_else(|e| panic!("INT{pa}: {e}"));
            assert_eq!(m.checked_outputs, channels * 4);
            assert!(m.power.total_uw() > 0.0);
            assert!(m.tops > 0.0 && m.tops_per_w_1b > 0.0);
        }
    }

    #[test]
    fn retimed_and_split_macros_also_verify() {
        let lib = CellLibrary::syn40();
        let mut rng = seeded_rng(7);
        for choice in [
            DesignChoice { tree_retimed: true, ..DesignChoice::default() },
            DesignChoice { column_split: 2, ..DesignChoice::default() },
            DesignChoice { pipe_tree_sa: false, ..DesignChoice::default() },
            DesignChoice { ofu_negate_retimed: true, ..DesignChoice::default() },
            DesignChoice { ofu_extra_pipe: true, ..DesignChoice::default() },
        ] {
            let im = implement(&lib, &spec_int(), &choice).unwrap();
            let weights: Vec<Vec<i64>> = (0..2).map(|_| random_ints(&mut rng, 8, 4)).collect();
            let passes: Vec<Vec<i64>> = (0..3).map(|_| random_ints(&mut rng, 8, 4)).collect();
            measure_int(&im, &lib, 4, &passes, &weights, OperatingPoint::at_voltage(0.9), 400.0)
                .unwrap_or_else(|e| panic!("{choice:?}: {e}"));
        }
    }

    #[test]
    fn engine_and_interpreter_backends_agree() {
        let lib = CellLibrary::syn40();
        let im = implement(&lib, &spec_int(), &DesignChoice::default()).unwrap();
        let mut rng = seeded_rng(23);
        let weights: Vec<Vec<i64>> = (0..2).map(|_| random_ints(&mut rng, 8, 4)).collect();
        let passes: Vec<Vec<i64>> = (0..5).map(|_| random_ints(&mut rng, 8, 4)).collect();
        let op = OperatingPoint::at_voltage(0.9);

        // Both backends run each pass as an independent vector sample
        // from the quiesced state → bit-identical activity.
        let eng = int_activity(&im, &lib, 4, &passes, &weights, EvalBackend::Engine).unwrap();
        let itp = int_activity(&im, &lib, 4, &passes, &weights, EvalBackend::Interpreter).unwrap();
        assert_eq!(eng.checked, itp.checked);
        assert_eq!(eng.lane_cycles, itp.lane_cycles);
        assert_eq!(eng.toggles, itp.toggles, "per-net toggle counts must be bit-identical");

        // And the derived measurements therefore agree exactly.
        let m_eng =
            measure_int_with(&im, &lib, 4, &passes, &weights, op, 400.0, EvalBackend::Engine).unwrap();
        let m_itp =
            measure_int_with(&im, &lib, 4, &passes, &weights, op, 400.0, EvalBackend::Interpreter).unwrap();
        assert_eq!(m_eng.checked_outputs, m_itp.checked_outputs);
        assert_eq!(m_eng.power.dynamic_uw, m_itp.power.dynamic_uw);
        assert_eq!(m_eng.energy_per_mac_fj, m_itp.energy_per_mac_fj);
    }

    #[test]
    fn sparsity_reduces_power() {
        let lib = CellLibrary::syn40();
        let im = implement(&lib, &spec_int(), &DesignChoice::default()).unwrap();
        let mut rng = seeded_rng(11);
        let dense_w: Vec<Vec<i64>> = (0..2).map(|_| random_ints(&mut rng, 8, 4)).collect();
        let dense_a: Vec<Vec<i64>> = (0..6).map(|_| random_ints(&mut rng, 8, 4)).collect();
        let sparse_w: Vec<Vec<i64>> = (0..2).map(|_| sparse_ints(&mut rng, 8, 4, 0.5)).collect();
        let sparse_a: Vec<Vec<i64>> =
            (0..6).map(|_| syndcim_sim::vectors::ints_with_bit_density(&mut rng, 8, 4, 0.125)).collect();
        let op = OperatingPoint::at_voltage(0.9);
        let dense = measure_int(&im, &lib, 4, &dense_a, &dense_w, op, 400.0).unwrap();
        let sparse = measure_int(&im, &lib, 4, &sparse_a, &sparse_w, op, 400.0).unwrap();
        assert!(
            sparse.power.dynamic_uw < dense.power.dynamic_uw * 0.8,
            "sparse {} vs dense {}",
            sparse.power.dynamic_uw,
            dense.power.dynamic_uw
        );
        assert!(sparse.tops_per_w_1b > dense.tops_per_w_1b);
    }

    #[test]
    fn fp4_macs_verify_through_alignment() {
        let lib = CellLibrary::syn40();
        let mut spec = spec_int();
        spec.fp_precisions = vec![FpFormat::FP4];
        let im = implement(&lib, &spec, &DesignChoice::default()).unwrap();
        let mut rng = seeded_rng(13);
        let channels = 8 / 4; // FP4 aligned = 3 bits → 4 columns
        let weights: Vec<Vec<FpValue>> =
            (0..channels).map(|_| syndcim_sim::vectors::random_fp(&mut rng, 8, FpFormat::FP4)).collect();
        let passes: Vec<Vec<FpValue>> =
            (0..3).map(|_| syndcim_sim::vectors::random_fp(&mut rng, 8, FpFormat::FP4)).collect();
        let m = measure_fp(&im, &lib, &passes, &weights, OperatingPoint::at_voltage(0.9), 400.0).unwrap();
        assert_eq!(m.checked_outputs, channels * 3);
        // Both backends pass the same golden checks.
        let m2 = measure_fp_with(
            &im,
            &lib,
            &passes,
            &weights,
            OperatingPoint::at_voltage(0.9),
            400.0,
            EvalBackend::Interpreter,
        )
        .unwrap();
        assert_eq!(m2.checked_outputs, m.checked_outputs);
    }

    #[test]
    fn weight_update_measurement_verifies_and_differentiates_cells() {
        use syndcim_subckt::BitcellKind;
        let lib = CellLibrary::syn40();
        let op = OperatingPoint::at_voltage(0.9);
        let mut per_cell = Vec::new();
        for bitcell in [BitcellKind::Sram6T2T, BitcellKind::Latch8T] {
            let im =
                implement(&lib, &spec_int(), &DesignChoice { bitcell, ..DesignChoice::default() }).unwrap();
            let m = measure_weight_update(&im, &lib, op, 400.0, 99).unwrap();
            assert_eq!(m.bits_written, 8 * 8 * 2);
            assert_eq!(m.patterns, DEFAULT_WU_PATTERNS);
            assert!(m.energy_per_bit_fj > 0.0);
            // Independent random data per lane ⇒ the per-pattern write
            // energies spread, and the spread stays small relative to
            // the mean.
            assert!(m.energy_per_bit_std_fj > 0.0, "{m:?}");
            assert!(m.energy_per_bit_std_fj < m.energy_per_bit_fj, "{m:?}");
            per_cell.push(m.energy_per_bit_fj);
        }
        // The 8T latch writes cost more energy than the 6T+2T cell.
        assert!(per_cell[1] > per_cell[0] * 0.9, "{per_cell:?}");
    }

    #[test]
    fn weight_update_backends_are_bit_identical() {
        let lib = CellLibrary::syn40();
        let op = OperatingPoint::at_voltage(0.9);
        let im = implement(&lib, &spec_int(), &DesignChoice::default()).unwrap();
        let eng = measure_weight_update_with(&im, &lib, op, 400.0, 1234, EvalBackend::Engine).unwrap();
        let itp = measure_weight_update_with(&im, &lib, op, 400.0, 1234, EvalBackend::Interpreter).unwrap();
        // Pattern l runs the same stimulus stream on both backends: the
        // engine's per-lane toggle tables match the interpreter's
        // per-pattern runs, so mean AND spread agree exactly.
        assert_eq!(eng.bits_written, itp.bits_written);
        assert_eq!(eng.patterns, itp.patterns);
        assert!((eng.energy_per_bit_fj - itp.energy_per_bit_fj).abs() < 1e-12, "{eng:?} vs {itp:?}");
        assert!((eng.energy_per_bit_std_fj - itp.energy_per_bit_std_fj).abs() < 1e-12, "{eng:?} vs {itp:?}");
        assert_eq!(eng.bandwidth_gbps, itp.bandwidth_gbps);
    }

    /// Wide pattern sets — a partial second 64-lane chunk (72) and the
    /// full 512-lane word — decode every lane's counters to exactly the
    /// interpreter's per-pattern energies: mean and spread agree bit
    /// for bit.
    #[test]
    fn wide_weight_update_backends_are_bit_identical() {
        let lib = CellLibrary::syn40();
        let op = OperatingPoint::at_voltage(0.9);
        let im = implement(&lib, &spec_int(), &DesignChoice::default()).unwrap();
        for patterns in [72, 512] {
            let run = |backend| {
                measure_weight_update_patterns(&im, &lib, op, 400.0, 31, patterns, backend).unwrap()
            };
            let (eng, itp) = (run(EvalBackend::Engine), run(EvalBackend::Interpreter));
            assert_eq!(eng.patterns, patterns);
            assert_eq!(
                eng.energy_per_bit_fj.to_bits(),
                itp.energy_per_bit_fj.to_bits(),
                "{eng:?} vs {itp:?}"
            );
            assert_eq!(
                eng.energy_per_bit_std_fj.to_bits(),
                itp.energy_per_bit_std_fj.to_bits(),
                "{eng:?} vs {itp:?}"
            );
        }
    }

    /// The packed bitcell check reports the first mismatch in
    /// bitcell-then-lane order, with the stored and written bits of
    /// that lane.
    #[test]
    fn weight_update_verify_reports_the_first_bitcell_then_lane() {
        let lib = CellLibrary::syn40();
        let im = implement(&lib, &spec_int(), &DesignChoice::default()).unwrap();
        let mac = &im.mac;
        let mut sim = EngineSim::try_new(&im.compiled.program, &mac.module, 72).unwrap();
        let expect = write_weight_update_lanes(&mut sim, mac, 5, 72);
        verify_weight_update_lanes(&sim, mac, &expect).unwrap();
        let flip = |sim: &mut EngineSim<'_>, bc: usize, lane: usize| {
            let inst = mac.bitcells[bc].inst;
            let word = sim.state_word_at(inst, lane / 64) ^ (1 << (lane % 64));
            sim.force_state_word_at(inst, lane / 64, word);
        };
        // Two corrupted lanes of bitcell 5 that were written different
        // bits, plus an earlier lane of a later bitcell: the report
        // names bitcell 5's lower lane.
        let bc = &mac.bitcells[5];
        let written = |lane: usize| sim.state_of_lane(bc.inst, lane);
        let lo = 64;
        let hi = (lo + 1..72).find(|&l| written(l) != written(lo)).expect("random data differs across lanes");
        let want = written(lo) as i64;
        flip(&mut sim, 9, 3);
        flip(&mut sim, 5, hi);
        flip(&mut sim, 5, lo);
        match verify_weight_update_lanes(&sim, mac, &expect) {
            Err(CoreError::FunctionalMismatch { channel, got, want: w }) => {
                assert_eq!((channel, got, w), (bc.col, 1 - want, want));
            }
            other => panic!("expected a bitcell mismatch, got {other:?}"),
        }
    }

    /// A wide-word pattern set (>64 lanes) still verifies every bitcell
    /// in every lane and keeps the mean near the narrow-word run.
    #[test]
    fn weight_update_spans_wide_words() {
        let lib = CellLibrary::syn40();
        let op = OperatingPoint::at_voltage(0.9);
        let im = implement(&lib, &spec_int(), &DesignChoice::default()).unwrap();
        let narrow = measure_weight_update_patterns(&im, &lib, op, 400.0, 7, 8, EvalBackend::Engine).unwrap();
        let wide = measure_weight_update_patterns(&im, &lib, op, 400.0, 7, 72, EvalBackend::Engine).unwrap();
        assert_eq!(wide.patterns, 72);
        // Pattern 0..8 share streams with the narrow run; the means are
        // estimates of the same distribution.
        let rel = (wide.energy_per_bit_fj - narrow.energy_per_bit_fj).abs() / narrow.energy_per_bit_fj;
        assert!(rel < 0.2, "narrow {} vs wide {}", narrow.energy_per_bit_fj, wide.energy_per_bit_fj);
    }
}
