//! `scale_implement`: `implement` on the 256×256, MCR-2, INT1/2/4/8
//! scale tier with the default design choice, call after call.
//!
//! Chosen because it is the ROADMAP's headline number, and its front
//! end (assemble, optimize, lower, layout, compile) does nearly all the
//! work while search, engine execution and eval do none.

use syndcim_core::{implement, DesignChoice, MacroSpec};
use syndcim_pdk::CellLibrary;
use syndcim_sta::TimingReport;

use crate::chain::{implement_traced, lowering_subpasses, same_signoff};
use crate::json::Json;
use crate::{timed, Args, Outcome};

/// Set-up repetitions before the first pass and again before every
/// pass; `setup_s` is the median of all of them.
const SETUP_REPS: usize = 64;
/// Nominal wall time of one `implement` of the scale tier on a 2-vCPU host;
/// it sizes a run's pass count from `--seconds`.
const PASS_S: f64 = 1.78;

/// Nets of the scale-tier macro after `implement` (a property of the
/// spec and the default choice; a change in it is a wrong netlist).
const SCALE_NETS: usize = 426_924;

fn scale_spec() -> MacroSpec {
    MacroSpec {
        h: 256,
        w: 256,
        mcr: 2,
        int_precisions: vec![1, 2, 4, 8],
        fp_precisions: vec![],
        f_mac_mhz: 500.0,
        f_wu_mhz: 500.0,
        vdd_v: 0.9,
        ppa: Default::default(),
    }
}

/// The set-up: build the cell library and validate the spec.
fn setup() -> (CellLibrary, MacroSpec) {
    let spec = scale_spec();
    spec.validate().expect("the scale-tier spec is valid");
    (CellLibrary::syn40(), spec)
}

/// Run the workload. The seed does not change the input: the workload
/// is one fixed spec.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new(args.trace);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let (made, secs) = timed(setup);
        out.samples.setup_s.push(secs);
        inputs = Some(made);
    }
    let (lib, spec) = inputs.expect("at least one set-up");
    let choice = DesignChoice::default();

    // The first accepted sign-off report; every later pass, traced or
    // not, must reproduce it bit for bit.
    let mut reference: Option<TimingReport> = None;
    out.run_passes(args, PASS_S, |tr, tally, samples| {
        // Set-up samples spread over the whole run, not one moment of it.
        for _ in 0..SETUP_REPS {
            let (made, secs) = timed(setup);
            samples.setup_s.push(secs);
            std::hint::black_box(made);
        }
        let traced = tr.enabled();
        let (result, secs) = timed(|| {
            tr.span("pass", |tr| {
                if traced {
                    implement_traced(tr, &lib, &spec, &choice)
                } else {
                    implement(&lib, &spec, &choice)
                }
            })
        });
        let Some(im) = tally.op("implement", result) else { return };
        if !traced {
            samples.sweep_s.push(secs);
            samples.call_ms.push(secs * 1e3);
        }
        let nets = im.mac.module.net_count();
        let reference = reference.get_or_insert_with(|| im.timing.clone());
        tally.check("implement", nets == SCALE_NETS && same_signoff(&im.timing, reference), || {
            format!(
                "{nets} nets (want {SCALE_NETS}); max delay {} ps vs first {} ps",
                im.timing.max_delay_ps, reference.max_delay_ps
            )
        });
        if traced {
            let subpasses = tr.span("probe", |tr| lowering_subpasses(tr, &im.mac.module, &lib));
            tally.op("lowering sub-passes", subpasses);
        }
    });
    out.details.push(("nets", Json::from(SCALE_NETS)));
    out
}
