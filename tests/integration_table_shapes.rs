//! Shape assertions for the paper's headline results (Tables 1 and 2).
//!
//! These encode the *qualitative* findings — who wins, by roughly what
//! factor, and where the exceptions fall — at reduced workload scale so
//! they run inside the normal test suite. The full-scale tables are
//! regenerated by the `ct-bench` binaries `table1` and `table2`.

use countertrust::methods::{MethodKind, MethodOptions};
use countertrust::{MethodRun, Session};
use ct_sim::MachineModel;
use ct_workloads::Workload;

fn run(machine: &MachineModel, w: &Workload, kind: MethodKind, seed: u64) -> MethodRun {
    let opts = MethodOptions::fast();
    let inst = kind
        .instantiate(machine, &opts)
        .unwrap_or_else(|| panic!("{kind:?} unavailable on {}", machine.name));
    let mut session = Session::with_run_config(machine, &w.program, w.run_config.clone());
    session.run_method(&inst, seed).expect("profiling run")
}

fn kernel(name: &str) -> Workload {
    ct_workloads::kernel_set(0.1)
        .into_iter()
        .find(|w| w.name == name)
        .expect("kernel exists")
}

fn app(name: &str) -> Workload {
    ct_workloads::applications(0.05)
        .into_iter()
        .find(|w| w.name == name)
        .expect("app exists")
}

#[test]
fn table1_lbr_crushes_classic_on_kernels() {
    // "LBR-based methods are highly beneficial, significantly reducing
    // errors by up to 18x (3-6x on average)."
    let ivb = MachineModel::ivy_bridge();
    let mut ratios = Vec::new();
    for name in ["latency_biased", "g4box", "test40"] {
        let w = kernel(name);
        let classic = run(&ivb, &w, MethodKind::Classic, 3);
        let lbr = run(&ivb, &w, MethodKind::Lbr, 3);
        let ratio = classic.accuracy_error / lbr.accuracy_error.max(1e-6);
        assert!(ratio > 4.0, "{name}: LBR ratio only {ratio:.1}");
        ratios.push(ratio);
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(avg > 6.0, "average LBR improvement {avg:.1} too small");
}

#[test]
fn table1_pdir_boost_exists_on_ivb_not_wsm() {
    // "The precisely distributed event (PDIR) significantly improves
    // results across all kernels and especially for Latency Biased ...
    // not observed on the Westmere microarchitecture."
    let w = kernel("latency_biased");
    let ivb_fix = run(&MachineModel::ivy_bridge(), &w, MethodKind::PreciseFix, 3);
    let wsm_fix = run(&MachineModel::westmere(), &w, MethodKind::PreciseFix, 3);
    assert!(
        wsm_fix.accuracy_error > 5.0 * ivb_fix.accuracy_error.max(1e-4),
        "PDIR boost missing: IVB {:.3} vs WSM {:.3}",
        ivb_fix.accuracy_error,
        wsm_fix.accuracy_error
    );
}

#[test]
fn table1_prime_beats_round_on_resonant_kernel() {
    // "Progressive improvements from randomization and period adjustment."
    let w = kernel("latency_biased");
    let ivb = MachineModel::ivy_bridge();
    let round = run(&ivb, &w, MethodKind::Precise, 3);
    let prime = run(&ivb, &w, MethodKind::PrecisePrime, 3);
    assert!(
        round.accuracy_error > 2.0 * prime.accuracy_error,
        "round {:.3} should resonate, prime {:.3} should not",
        round.accuracy_error,
        prime.accuracy_error
    );
}

#[test]
fn table1_amd_errors_are_high_and_hw_randomization_does_not_help() {
    // "AMD systems are consistently burdened with high error rates,
    // worsening when built-in hardware randomization was used."
    let amd = MachineModel::magny_cours();
    let ivb = MachineModel::ivy_bridge();
    let mut rand_total = 0.0;
    let mut prime_total = 0.0;
    let mut callchain_pair = (0.0, 0.0);
    for name in ["latency_biased", "callchain", "g4box", "test40"] {
        let w = kernel(name);
        // AMD's best method is far worse than Ivy Bridge's best method.
        let amd_best = run(&amd, &w, MethodKind::PrecisePrime, 3)
            .accuracy_error
            .min(run(&amd, &w, MethodKind::Precise, 3).accuracy_error);
        let ivb_best = run(&ivb, &w, MethodKind::PreciseFix, 3)
            .accuracy_error
            .min(run(&ivb, &w, MethodKind::Lbr, 3).accuracy_error);
        assert!(
            amd_best > ivb_best,
            "{name}: AMD best {amd_best:.3} vs IVB best {ivb_best:.3}"
        );
        // Averaged over seeds, how does the built-in hardware
        // randomization compare to the plain prime period?
        let mut rand_err = 0.0;
        let mut prime_err = 0.0;
        for seed in 0..3 {
            rand_err += run(&amd, &w, MethodKind::PrecisePrimeRand, seed).accuracy_error;
            prime_err += run(&amd, &w, MethodKind::PrecisePrime, seed).accuracy_error;
        }
        rand_total += rand_err;
        prime_total += prime_err;
        if name == "callchain" {
            callchain_pair = (rand_err, prime_err);
        }
    }
    // The worsening mechanism — the 4-LSB randomization destroys the
    // carefully chosen prime period on most reloads — bites hard exactly
    // where synchronization risk is highest: the periodic callchain
    // kernel. There it must be a clear regression.
    assert!(
        callchain_pair.0 > callchain_pair.1,
        "callchain: hardware randomization {:.3} should be worse than prime {:.3}",
        callchain_pair.0,
        callchain_pair.1
    );
    // Across the full kernel set, hardware randomization never buys a
    // significant improvement over the prime period.
    assert!(
        rand_total >= 0.9 * prime_total,
        "hardware randomization improved the kernel aggregate: {rand_total:.3} vs {prime_total:.3}"
    );
}

#[test]
fn table2_randomization_is_irrelevant_for_applications() {
    // "Randomization has little to no impact on full applications."
    let ivb = MachineModel::ivy_bridge();
    for name in ["omnetpp", "fullcms"] {
        let w = app(name);
        let fixed = run(&ivb, &w, MethodKind::Precise, 3);
        let rand = run(&ivb, &w, MethodKind::PreciseRand, 3);
        let diff = (fixed.accuracy_error - rand.accuracy_error).abs();
        assert!(
            diff < 0.15 * fixed.accuracy_error.max(0.05) + 0.05,
            "{name}: randomization changed error {:.3} -> {:.3}",
            fixed.accuracy_error,
            rand.accuracy_error
        );
    }
}

#[test]
fn table2_lbr_beats_precise_on_applications_except_fullcms_caveat() {
    // "Pure LBR basic block counts further improve accuracy (except for
    // FullCMS). Overall improvement is ... 1-10x over the precise case."
    let ivb = MachineModel::ivy_bridge();
    for name in ["mcf", "omnetpp", "xalancbmk"] {
        let w = app(name);
        let precise = run(&ivb, &w, MethodKind::Precise, 3);
        let lbr = run(&ivb, &w, MethodKind::Lbr, 3);
        assert!(
            lbr.accuracy_error < precise.accuracy_error,
            "{name}: LBR {:.3} should beat precise {:.3}",
            lbr.accuracy_error,
            precise.accuracy_error
        );
    }
    // FullCMS: pure LBR does not (meaningfully) improve over the
    // precise-with-fix method. This comparison needs the paper's sampling
    // regime (thousands of samples), so it runs at a larger scale with
    // the default periods.
    let w = ct_workloads::applications(0.3)
        .into_iter()
        .find(|w| w.name == "fullcms")
        .expect("app exists");
    let opts = MethodOptions::default();
    let mut session = Session::with_run_config(&ivb, &w.program, w.run_config.clone());
    let fix = session
        .run_method(&MethodKind::PreciseFix.instantiate(&ivb, &opts).unwrap(), 3)
        .unwrap();
    let lbr = session
        .run_method(&MethodKind::Lbr.instantiate(&ivb, &opts).unwrap(), 3)
        .unwrap();
    assert!(
        lbr.accuracy_error > 0.5 * fix.accuracy_error,
        "fullcms: LBR {:.3} should not dominate the fix {:.3}",
        lbr.accuracy_error,
        fix.accuracy_error
    );
}

#[test]
fn fullcms_top10_ranking_is_never_exact() {
    // §5.2: "None of the methods produces the top 10 functions from the
    // FullCMS profile in the right order."
    let w = app("fullcms");
    let opts = MethodOptions::fast();
    for machine in MachineModel::paper_machines() {
        let mut session = Session::with_run_config(&machine, &w.program, w.run_config.clone());
        let truth: Vec<String> = session
            .reference()
            .unwrap()
            .function_ranking()
            .into_iter()
            .take(10)
            .map(|(n, _)| n)
            .collect();
        for kind in MethodKind::ALL {
            let Some(inst) = kind.instantiate(&machine, &opts) else {
                continue;
            };
            let run = session.run_method(&inst, 3).unwrap();
            let est = run.profile.top_functions(10);
            assert!(
                !countertrust::top_n_exact_match(&est, &truth, 10),
                "{kind:?} on {} reproduced the exact top-10 order",
                machine.name
            );
        }
    }
}
