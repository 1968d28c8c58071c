//! `paper_signoff`: the paper's 64×64 test chip, built once from
//! `search` and `best`, then a long stream of checked sign-off calls on
//! it — golden-checked MAC measurements at every precision, weight
//! updates at the default and at full lane width, a power-annotated
//! shmoo, and `.scim` queries as the CLI makes them.
//!
//! Chosen because it is the sign-off half of the flow: the front end
//! sits idle while the engine, compiled STA, compiled power and
//! artifact layers do the work.

use std::collections::BTreeMap;

use syndcim_core::{
    implement, measure_fp, measure_int, measure_weight_update, measure_weight_update_patterns, shmoo,
    shmoo_with_power, CompiledMacro, EvalBackend, ImplementedMacro, MacroSpec,
};
use syndcim_engine::EngineSim;
use syndcim_pdk::{CellLibrary, OperatingPoint};
use syndcim_power::PowerReport;
use syndcim_scl::Scl;
use syndcim_sim::vectors::{random_fp, random_ints, seeded_rng};
use syndcim_sim::{FpFormat, FpValue, SimBackend};

use crate::chain::{implement_traced, lowering_subpasses, same_signoff};
use crate::json::Json;
use crate::tally::Tally;
use crate::trace::Tracer;
use crate::{int_eval_span, timed, Args, IntCase, Outcome};

/// Set-up repetitions before the first round; one more precedes every
/// round, and `setup_s` is the median of all of them.
const SETUP_REPS: usize = 3;
/// Nominal wall time of one round of sign-off calls and its set-up on a
/// 2-vCPU host; it sizes a run's pass count from `--seconds`.
const PASS_S: f64 = 1.6;

/// Activation vectors per MAC measurement.
const MAC_PASSES: usize = 128;
/// Activation vectors of the shmoo's power workload.
const SHMOO_PASSES: usize = 32;
/// `.scim` queries per round.
const QUERIES: usize = 24;
/// Cycles the raw engine probe steps.
const PROBE_STEPS: usize = 64;

/// FP8 activation passes and channel weights.
type FpCase = (Vec<Vec<FpValue>>, Vec<Vec<FpValue>>);

/// The paper chip and everything a round needs, built by one set-up.
struct Chip {
    lib: CellLibrary,
    im: ImplementedMacro,
    bytes: Vec<u8>,
    op: OperatingPoint,
    f_mhz: f64,
    /// INT1, INT2, INT4 and INT8.
    ints: Vec<IntCase>,
    fp: FpCase,
    wu_seed: u64,
    voltages: Vec<f64>,
    freqs: Vec<f64>,
    shmoo_work: (Vec<Vec<i64>>, Vec<Vec<i64>>),
    /// Per query: supply, switching activity, frequency.
    queries: Vec<(f64, f64, f64)>,
}

fn inputs(seed: u64, spec: &MacroSpec) -> (Vec<IntCase>, FpCase) {
    let mut rng = seeded_rng(seed);
    let ints = [1u32, 2, 4, 8]
        .into_iter()
        .map(|pa| {
            let weights = (0..spec.w / pa as usize).map(|_| random_ints(&mut rng, spec.h, pa)).collect();
            let acts = (0..MAC_PASSES).map(|_| random_ints(&mut rng, spec.h, pa)).collect();
            (pa, acts, weights)
        })
        .collect();
    let fmt = FpFormat::FP8;
    let channels = spec.w / fmt.aligned_bits().next_power_of_two().max(2) as usize;
    let fp_weights = (0..channels).map(|_| random_fp(&mut rng, spec.h, fmt)).collect();
    let fp_acts = (0..MAC_PASSES).map(|_| random_fp(&mut rng, spec.h, fmt)).collect();
    (ints, (fp_acts, fp_weights))
}

/// Build the chip: search, best, implement, save, and the round's
/// inputs.
fn build(seed: u64, tally: &mut Tally) -> Option<Chip> {
    let spec = MacroSpec::paper_test_chip();
    let mut scl = Scl::new();
    let found = syndcim_core::search(&spec, &mut scl);
    let best = tally.op("search", found.best(&spec).ok_or("no feasible design for the paper chip"))?;
    let lib = scl.cell_library().clone();
    let im = tally.op("implement", implement(&lib, &spec, &best.choice))?;
    let bytes = tally.op("artifact save", im.compiled.save_to_vec())?;
    let (ints, fp) = inputs(seed, &spec);
    let mut rng = seeded_rng(seed ^ 0x5EED);
    let shmoo_work = (
        (0..SHMOO_PASSES).map(|_| random_ints(&mut rng, spec.h, 4)).collect(),
        (0..spec.w / 4).map(|_| random_ints(&mut rng, spec.h, 4)).collect(),
    );
    let mut mix = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut unit = move || {
        mix ^= mix << 13;
        mix ^= mix >> 7;
        mix ^= mix << 17;
        (mix >> 11) as f64 / (1u64 << 53) as f64
    };
    let queries =
        (0..QUERIES).map(|_| (0.6 + 0.6 * unit(), 0.05 + 0.45 * unit(), 100.0 + 900.0 * unit())).collect();
    let chip = Chip {
        op: OperatingPoint::at_voltage(spec.vdd_v),
        f_mhz: spec.f_mac_mhz,
        lib,
        im,
        bytes,
        ints,
        fp,
        wu_seed: seed | 1,
        voltages: (0..14).map(|i| 0.55 + 0.05 * f64::from(i)).collect(),
        freqs: (0..15).map(|i| 100.0 + 100.0 * f64::from(i)).collect(),
        shmoo_work,
        queries,
    };
    Some(chip)
}

/// Traced set-up: the same search and implementation as [`build`] as
/// traced layer calls, checked bit-identical to the untraced build.
fn traced_build(tr: &mut Tracer, tally: &mut Tally, chip: &Chip) {
    let spec = MacroSpec::paper_test_chip();
    let traced = tr.span("setup", |tr| {
        let mut scl = Scl::new();
        let found = tr.span("core.search", |_| syndcim_core::search(&spec, &mut scl));
        tr.count("scl.records", scl.len() as f64);
        tr.count("core.search.frontier", found.frontier.len() as f64);
        tr.count("core.search.infeasible", found.rejected as f64);
        let best = found.best(&spec).ok_or_else(|| "no feasible design".to_string())?;
        implement_traced(tr, &chip.lib, &spec, &best.choice).map_err(|e| e.to_string())
    });
    let Some(im) = tally.op("traced implement", traced) else { return };
    let same_bytes = im.compiled.save_to_vec().is_ok_and(|b| b == chip.bytes);
    tally.check("traced implement", same_signoff(&im.timing, &chip.im.timing) && same_bytes, || {
        "traced chain differs from implement on the paper chip".to_string()
    });
    let subpasses = tr.span("probe", |tr| lowering_subpasses(tr, &im.mac.module, &chip.lib));
    tally.op("lowering sub-passes", subpasses);
}

fn power_bits(r: &PowerReport) -> Vec<u64> {
    let mut v: Vec<u64> = [r.dynamic_uw, r.clock_uw, r.leakage_uw, r.energy_per_cycle_pj, r.freq_mhz]
        .map(f64::to_bits)
        .to_vec();
    v.extend(r.by_group_pj.values().map(|x| x.to_bits()));
    v
}

/// Per-round figures for the report.
#[derive(Default)]
struct Work {
    checked_outputs: usize,
    eval_s: f64,
    wu_bits: usize,
    wu_s: f64,
    shmoo_points: usize,
    shmoo_s: f64,
}

/// Cross-round reference results: every round must reproduce the first.
type Reference = BTreeMap<&'static str, Vec<u64>>;

/// One round's bookkeeping: every call is traced, counted, timed into
/// the round and checked bit for bit against the first round.
struct Round<'a> {
    tr: &'a mut Tracer,
    tally: &'a mut Tally,
    reference: &'a mut Reference,
    /// Summed wall time of the round's calls.
    secs: f64,
}

impl Round<'_> {
    /// Make one call; `bits` picks the result bits every round must
    /// reproduce. Returns the value and the call's wall time.
    fn call<T, E: std::fmt::Display>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> Result<T, E>,
        bits: impl FnOnce(&T) -> Vec<u64>,
    ) -> Option<(T, f64)> {
        let (result, secs) = timed(|| self.tr.span(name, |_| f()));
        self.secs += secs;
        let value = self.tally.op(name, result)?;
        let got = bits(&value);
        let want = self.reference.entry(name).or_insert_with(|| got.clone());
        self.tally.check(name, got == *want, || format!("{name}: result differs from the first round"));
        Some((value, secs))
    }
}

fn round(r: &mut Round, chip: &Chip, query_ms: &mut Vec<f64>, work: &mut Work) {
    let Chip { lib, im, op, f_mhz, .. } = chip;
    let (op, f) = (*op, *f_mhz);
    for (pa, acts, weights) in &chip.ints {
        let mac = || measure_int(im, lib, *pa, acts, weights, op, f);
        if let Some((m, s)) = r.call(int_eval_span(*pa), mac, |m| {
            let mut b = vec![m.checked_outputs as u64];
            b.extend(power_bits(&m.power));
            b
        }) {
            work.checked_outputs += m.checked_outputs;
            work.eval_s += s;
        }
    }
    let (acts, weights) = &chip.fp;
    let fp = || measure_fp(im, lib, acts, weights, op, f);
    if let Some((m, s)) = r.call("core.eval.fp", fp, |m| power_bits(&m.power)) {
        work.checked_outputs += m.checked_outputs;
        work.eval_s += s;
    }
    let wu_bits = |m: &syndcim_core::WeightUpdateMeasurement| {
        vec![m.energy_per_bit_fj.to_bits(), m.energy_per_bit_std_fj.to_bits()]
    };
    let wu = || measure_weight_update(im, lib, op, f, chip.wu_seed);
    if let Some((m, s)) = r.call("core.eval.wu", wu, wu_bits) {
        work.wu_bits += m.bits_written * m.patterns;
        work.wu_s += s;
    }
    let lanes = EngineSim::MAX_LANES;
    let wu_full = || measure_weight_update_patterns(im, lib, op, f, chip.wu_seed, lanes, EvalBackend::Engine);
    if let Some((m, s)) = r.call("core.eval.wu_full", wu_full, wu_bits) {
        work.wu_bits += m.bits_written * m.patterns;
        work.wu_s += s;
    }
    let grid = || Ok::<_, String>(shmoo(im, lib, &chip.voltages, &chip.freqs));
    r.call("core.shmoo", grid, |g| g.pass.iter().flatten().map(|&p| u64::from(p)).collect());
    let (acts, weights) = &chip.shmoo_work;
    let powered = || shmoo_with_power(im, lib, &chip.voltages, &chip.freqs, 4, acts, weights);
    if let Some((g, s)) = r.call("core.shmoo_power", powered, |g| {
        g.power_uw.iter().flatten().map(|p| p.map_or(u64::MAX, f64::to_bits)).collect()
    }) {
        work.shmoo_points += g.shmoo.voltages.len() * g.shmoo.freqs_mhz.len();
        work.shmoo_s += s;
    }

    // `.scim` queries as the CLI answers them: load, then fmax and
    // static power; each answer must equal the in-memory bundle's.
    let mut loaded = None;
    for &(v, alpha, fq) in &chip.queries {
        let qop = OperatingPoint::at_voltage(v);
        let tr = &mut *r.tr;
        let (answer, secs) = timed(|| {
            let cm = tr.span("core.artifact.load", |_| CompiledMacro::load_from_bytes(&chip.bytes))?;
            let fmax = tr.span("sta.fmax", |_| cm.sta.fmax_mhz(qop));
            let power = tr.span("power.report_static", |_| cm.power.report_static(alpha, fq, qop));
            Ok::<_, syndcim_core::ArtifactError>((cm, fmax, power))
        });
        r.secs += secs;
        query_ms.push(secs * 1e3);
        let Some((cm, fmax, power)) = r.tally.op("query", answer) else { continue };
        let same = fmax.to_bits() == im.compiled.sta.fmax_mhz(qop).to_bits()
            && power_bits(&power) == power_bits(&im.compiled.power.report_static(alpha, fq, qop));
        r.tally.check("query", same, || format!("query at {v} V differs from the in-memory bundle"));
        loaded = Some(cm);
    }
    // save → load → save must be a byte fixpoint.
    if let Some(cm) = loaded {
        let saved = r.tr.span("core.artifact.save", |_| cm.save_to_vec());
        if let Some(bytes) = r.tally.op("artifact save", saved) {
            let same = bytes == chip.bytes;
            r.tally.check("artifact save", same, || "save→load→save changed the bytes".to_string());
        }
    }
}

/// Raw `EngineSim` stepping of the chip's program with cheap stimulus:
/// the vectors/s ceiling eval overhead is measured against.
fn engine_probe(tr: &mut Tracer, tally: &mut Tally, chip: &Chip) {
    let module = &chip.im.mac.module;
    let sim = EngineSim::try_new(&chip.im.compiled.program, module, EngineSim::MAX_LANES);
    let Some(mut sim) = tally.op("engine probe", sim) else { return };
    let nets: Vec<_> = module.input_ports().map(|p| p.net).collect();
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let ((), secs) = timed(|| {
        tr.span("engine.step", |_| {
            for _ in 0..PROBE_STEPS {
                for &net in &nets {
                    for wi in 0..sim.words() {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        sim.poke_word_at(net, wi, state);
                    }
                }
                sim.step();
            }
        })
    });
    tr.count("engine.vectors_per_s", (EngineSim::MAX_LANES * PROBE_STEPS) as f64 / secs);
}

/// Run the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new(args.trace);
    let mut chip: Option<Chip> = None;
    for _ in 0..SETUP_REPS {
        let (built, secs) = timed(|| build(args.seed, &mut out.tally));
        out.samples.setup_s.push(secs);
        let Some(next) = built else { continue };
        if let Some(prev) = &chip {
            let same = next.bytes == prev.bytes;
            out.tally.check("implement", same, || "set-ups built different artifacts".to_string());
        }
        if args.trace {
            traced_build(&mut out.tracer, &mut out.tally, &next);
        }
        chip = Some(next);
    }
    let Some(chip) = chip else {
        out.details.push(("error", Json::from("the paper chip could not be built")));
        return out;
    };

    let mut reference = Reference::new();
    let mut work = Work::default();
    out.run_passes(args, PASS_S, |tr, tally, samples| {
        // Set-up samples spread over the whole run, not one moment of it.
        let (built, secs) = timed(|| build(args.seed, tally));
        samples.setup_s.push(secs);
        if let Some(next) = built {
            let same = next.bytes == chip.bytes;
            tally.check("implement", same, || "set-ups built different artifacts".to_string());
        }
        let traced = tr.enabled();
        // Traced rounds feed the per-layer metrics only.
        let (mut scratch_ms, mut scratch_work) = (Vec::new(), Work::default());
        let (query_ms, w) =
            if traced { (&mut scratch_ms, &mut scratch_work) } else { (&mut samples.call_ms, &mut work) };
        let round_s = tr.span("pass", |tr| {
            let mut r = Round { tr, tally: &mut *tally, reference: &mut reference, secs: 0.0 };
            round(&mut r, &chip, query_ms, w);
            r.secs
        });
        if traced {
            tr.span("probe", |tr| {
                tr.count("core.artifact.bytes", chip.bytes.len() as f64);
                engine_probe(tr, tally, &chip);
            });
        } else {
            samples.sweep_s.push(round_s);
        }
    });

    let rate = |n: usize, s: f64| if s > 0.0 { n as f64 / s } else { 0.0 };
    out.details.push(("checked_outputs_per_s", Json::from(rate(work.checked_outputs, work.eval_s))));
    out.details.push(("wu_bits_per_s", Json::from(rate(work.wu_bits, work.wu_s))));
    out.details.push(("shmoo_points_per_s", Json::from(rate(work.shmoo_points, work.shmoo_s))));
    out.details.push(("artifact_bytes", Json::from(chip.bytes.len())));
    out.details.push(("choice", Json::from(chip.im.mac.choice.label())));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndcim_core::DesignChoice;

    /// The known INT1 defect: with `ofu_extra_pipe` the macro computes
    /// wrong INT1 results. A round's call counts it as one failed
    /// operation, leaves `correct` alone (the program refused) and goes
    /// on to the next precision.
    #[test]
    fn the_int1_defect_is_counted_and_the_run_goes_on() {
        let lib = CellLibrary::syn40();
        let spec = MacroSpec {
            h: 8,
            w: 8,
            mcr: 2,
            int_precisions: vec![1, 2, 4],
            fp_precisions: vec![],
            f_mac_mhz: 400.0,
            f_wu_mhz: 400.0,
            vdd_v: 0.9,
            ppa: Default::default(),
        };
        let choice = DesignChoice { ofu_extra_pipe: true, ..DesignChoice::default() };
        let im = implement(&lib, &spec, &choice).expect("the 8x8 macro implements");
        let op = OperatingPoint::at_voltage(spec.vdd_v);
        let mut rng = seeded_rng(7);
        let (mut tr, mut tally, mut reference) = (Tracer::off(), Tally::default(), Reference::new());
        let mut r = Round { tr: &mut tr, tally: &mut tally, reference: &mut reference, secs: 0.0 };
        let mut ok = Vec::new();
        for pa in [1u32, 2, 4] {
            let acts: Vec<Vec<i64>> = (0..16).map(|_| random_ints(&mut rng, spec.h, pa)).collect();
            let weights: Vec<Vec<i64>> =
                (0..spec.w / pa as usize).map(|_| random_ints(&mut rng, spec.h, pa)).collect();
            let mac = || measure_int(&im, &lib, pa, &acts, &weights, op, spec.f_mac_mhz);
            ok.push(r.call(int_eval_span(pa), mac, |m| vec![m.checked_outputs as u64]).is_some());
        }
        assert_eq!(ok, [false, true, true], "INT1 fails, INT2 and INT4 still run and pass");
        assert_eq!((tally.attempted(), tally.failed(), tally.correct()), (3, 1, true));
        assert!(tally.failures_json().to_string().contains("macro output mismatch"));
    }
}
