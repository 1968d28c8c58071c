//! `dse_sweep`: a seeded list of specs, each compiled by one
//! independent compiler call — a fresh `Scl::new()`, then `search`,
//! then `best`, then `implement`.
//!
//! Chosen because it is the paper's agile design-space-exploration use:
//! the only workload where search and SCL characterization carry real
//! weight, and one that drives the front end with many small netlists,
//! where fixed per-call costs dominate rather than per-net throughput.

use syndcim_core::{assemble, implement, measure_int, CoreError, ImplementedMacro, MacroSpec, PpaWeights};
use syndcim_netlist::optimize;
use syndcim_pdk::{CellLibrary, OperatingPoint};
use syndcim_scl::Scl;
use syndcim_sim::vectors::{random_ints, seeded_rng};
use syndcim_sim::FpFormat;

use crate::chain::{implement_traced, lowering_subpasses};
use crate::json::Json;
use crate::trace::Tracer;
use crate::{int_eval_span, timed, Args, IntCase, Outcome};

/// Set-up repetitions before the first pass and again before every
/// pass; `setup_s` is the median of all of them.
const SETUP_REPS: usize = 4;
/// Nominal wall time of one pass (27 compiler calls and their checks)
/// on a 2-vCPU host; it sizes a run's pass count from `--seconds`.
const PASS_S: f64 = 1.52;

const DIMS: [usize; 3] = [16, 32, 64];
const MCRS: [usize; 3] = [1, 2, 4];
const FP_SETS: [&[FpFormat]; 3] = [&[], &[FpFormat::FP8], &[FpFormat::FP4, FpFormat::FP8]];
const F_MIN_MHZ: f64 = 200.0;
const F_MAX_MHZ: f64 = 1000.0;
/// Activation vectors in each spec's functional check.
const CHECK_PASSES: usize = 8;

/// splitmix64: the spec list's own generator, so the list depends on
/// the seed alone.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One spec of the sweep and the vectors of its functional check.
#[derive(PartialEq)]
struct Case {
    spec: MacroSpec,
    /// One per declared INT precision.
    checks: Vec<IntCase>,
}

/// The sweep: every (dimension, MCR, FP set) combination once, in a
/// seeded order. The specs themselves are fixed, so every seed's list is
/// the same load and holds the same answers: for each dimension a Latin
/// square over (MCR, FP set) gives every row and column one MAC
/// frequency from the low, one from the middle and one from the high
/// third of the 200–1000 MHz range, a second, orthogonal one assigns the
/// `PpaWeights` presets, and the extra INT precisions beside INT8 walk
/// through every subset of {1, 2, 4}. The seed orders the list and draws
/// the vectors of each spec's functional check.
fn spec_list(seed: u64) -> Vec<Case> {
    let mut mix = Mix(seed);
    let presets = [PpaWeights::default(), PpaWeights::energy_leaning(), PpaWeights::area_leaning()];
    let third = (F_MAX_MHZ - F_MIN_MHZ) / 3.0;
    let mut specs = Vec::with_capacity(DIMS.len() * MCRS.len() * FP_SETS.len());
    for (di, &dim) in DIMS.iter().enumerate() {
        for (mi, &mcr) in MCRS.iter().enumerate() {
            for (fi, fp) in FP_SETS.iter().enumerate() {
                let stratum = (mi + fi + di) % 3;
                let f = F_MIN_MHZ + third * (stratum as f64 + (di + 1) as f64 / 4.0);
                let subset = specs.len() % 8;
                let mut ints: Vec<u32> = [1, 2, 4]
                    .into_iter()
                    .enumerate()
                    .filter(|&(k, _)| subset >> k & 1 == 1)
                    .map(|(_, p)| p)
                    .collect();
                ints.push(8);
                specs.push(MacroSpec {
                    h: dim,
                    w: dim,
                    mcr,
                    int_precisions: ints,
                    fp_precisions: fp.to_vec(),
                    f_mac_mhz: f,
                    f_wu_mhz: f,
                    vdd_v: 0.9,
                    ppa: presets[(mi + 2 * fi + di) % 3],
                });
            }
        }
    }
    // Fisher–Yates with the same generator.
    for i in (1..specs.len()).rev() {
        specs.swap(i, mix.below(i + 1));
    }
    let mut rng = seeded_rng(seed);
    specs
        .into_iter()
        .map(|spec| {
            let checks = spec
                .int_precisions
                .iter()
                .map(|&pa| {
                    let acts = (0..CHECK_PASSES).map(|_| random_ints(&mut rng, spec.h, pa)).collect();
                    let weights =
                        (0..spec.w / pa as usize).map(|_| random_ints(&mut rng, spec.h, pa)).collect();
                    (pa, acts, weights)
                })
                .collect();
            Case { spec, checks }
        })
        .collect()
}

/// What a spec compiles to, compared across passes: feasibility, the
/// chosen design, die area and post-layout fmax, bit for bit.
#[derive(Debug, Clone, PartialEq)]
struct Digest {
    label: Option<String>,
    area_bits: u64,
    fmax_bits: u64,
}

/// One compiler call: fresh SCL, search, best, implement. `Ok(None)`
/// is a spec with no feasible design — a valid answer.
fn compile(tr: &mut Tracer, spec: &MacroSpec) -> Result<Option<(ImplementedMacro, CellLibrary)>, CoreError> {
    let traced = tr.enabled();
    let mut scl = Scl::new();
    let found = tr.span("core.search", |_| syndcim_core::search(spec, &mut scl));
    tr.count("scl.records", scl.len() as f64);
    tr.count("core.search.frontier", found.frontier.len() as f64);
    tr.count("core.search.infeasible", found.rejected as f64);
    let Some(best) = found.best(spec) else { return Ok(None) };
    let lib = scl.cell_library().clone();
    let im = if traced {
        implement_traced(tr, &lib, spec, &best.choice)?
    } else {
        implement(&lib, spec, &best.choice)?
    };
    Ok(Some((im, lib)))
}

fn digest(found: &Option<(ImplementedMacro, CellLibrary)>) -> Digest {
    match found {
        None => Digest { label: None, area_bits: 0, fmax_bits: 0 },
        Some((im, lib)) => Digest {
            label: Some(im.mac.choice.label()),
            area_bits: im.area_mm2().to_bits(),
            fmax_bits: im.fmax_mhz(lib, OperatingPoint::at_voltage(im.spec.vdd_v)).to_bits(),
        },
    }
}

/// Run the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new(args.trace);
    let mut cases = Vec::new();
    for _ in 0..SETUP_REPS {
        let (made, secs) = timed(|| spec_list(args.seed));
        out.samples.setup_s.push(secs);
        cases = made;
    }

    // Per spec, the digest of the first pass that compiled it.
    let mut reference: Vec<Option<Digest>> = vec![None; cases.len()];
    let mut checked_outputs = 0usize;
    out.run_passes(args, PASS_S, |tr, tally, samples| {
        // Set-up samples spread over the whole run, not one moment of it.
        for _ in 0..SETUP_REPS {
            let (made, secs) = timed(|| spec_list(args.seed));
            samples.setup_s.push(secs);
            tally.check("spec list", made == cases, || "the same seed made another spec list".to_string());
        }
        let traced = tr.enabled();
        let mut lowered = Vec::new();
        let mut pass_s = 0.0;
        tr.span("pass", |tr| {
            for (case, reference) in cases.iter().zip(reference.iter_mut()) {
                let spec = &case.spec;
                let (result, secs) = timed(|| tr.span("spec", |tr| compile(tr, spec)));
                let Some(found) = tally.op("spec compile", result) else { continue };
                pass_s += secs;
                if !traced {
                    samples.call_ms.push(secs * 1e3);
                }
                let d = digest(&found);
                let want = reference.get_or_insert_with(|| d.clone());
                tally.check("spec compile", d == *want, || {
                    format!("spec {spec:?}: digest {d:?}, first pass {want:?}")
                });

                let Some((im, lib)) = found else { continue };
                let op = OperatingPoint::at_voltage(spec.vdd_v);
                for (pa, acts, weights) in &case.checks {
                    let m = tr.span(int_eval_span(*pa), |_| {
                        measure_int(&im, &lib, *pa, acts, weights, op, spec.f_mac_mhz)
                    });
                    if let Some(m) = tally.op(&format!("measure_int INT{pa}"), m) {
                        checked_outputs += m.checked_outputs;
                    }
                }
                if traced {
                    lowered.push((spec, im.mac.choice, lib));
                }
            }
        });
        if !traced {
            samples.sweep_s.push(pass_s);
        }
        if traced {
            tr.span("probe", |tr| {
                for (spec, choice, lib) in &lowered {
                    // Rebuild the module `implement` lowered (assembly and
                    // optimization are deterministic) instead of keeping
                    // every macro of the pass alive until here.
                    let mut mac = assemble(lib, spec, choice);
                    optimize(&mut mac.module, lib);
                    let subpasses = lowering_subpasses(tr, &mac.module, lib);
                    tally.op("lowering sub-passes", subpasses);
                }
            });
        }
    });

    let feasible = reference.iter().flatten().filter(|d| d.label.is_some()).count();
    out.details.push(("specs", Json::from(cases.len())));
    out.details.push(("feasible_specs", Json::from(feasible)));
    out.details.push(("checked_outputs", Json::from(checked_outputs)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_spec_list_is_seeded_valid_and_balanced() {
        let specs = |seed| -> Vec<MacroSpec> { spec_list(seed).into_iter().map(|c| c.spec).collect() };
        let a = specs(3);
        assert_eq!(a, specs(3), "the same seed must give the same list");
        assert_ne!(a, specs(4), "another seed must give another order");
        let key = |s: &MacroSpec| format!("{s:?}");
        let (mut sa, mut sb) =
            (a.iter().map(key).collect::<Vec<_>>(), specs(4).iter().map(key).collect::<Vec<_>>());
        sa.sort();
        sb.sort();
        assert_eq!(sa, sb, "every seed must hold the same specs");
        assert!(a.iter().all(|s| s.validate().is_ok()));
        // Each dimension sees each third of the frequency range three times.
        let third = (F_MAX_MHZ - F_MIN_MHZ) / 3.0;
        for dim in DIMS {
            for stratum in 0..3 {
                let n = a
                    .iter()
                    .filter(|s| s.h == dim && ((s.f_mac_mhz - F_MIN_MHZ) / third) as usize == stratum)
                    .count();
                assert_eq!(n, 3, "dimension {dim}, stratum {stratum}");
            }
        }
    }
}
