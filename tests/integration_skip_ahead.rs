//! Skip-ahead capture is an optimisation, not a model change.
//!
//! `Cpu::run_observed` lets the sampler take the retirements it provably
//! cannot act on as one bulk summary; `Cpu::run` delivers every
//! retirement and is the oracle. For every built-in workload, paper
//! machine, Table 3 method, seed and period regime — including periods
//! small enough to force PMI collisions, and injected PMI drops — both
//! paths must produce the same run summary, sampler statistics and
//! samples.
//!
//! Workloads run at minimum scale with at most [`FUEL`] retirements: two
//! applications (mcf, xalancbmk) are larger than that even at minimum
//! scale and stop on fuel, which also covers the skip flush before
//! `on_finish` on a run that did not halt.

use countertrust::methods::{MethodKind, MethodOptions};
use ct_pmu::{PeriodSpec, PmuEvent, Precision, Sample, Sampler, SamplerConfig, SamplerStats};
use ct_sim::{Cpu, MachineModel, RunSummary};
use ct_workloads::Workload;

/// Retirement cap per run; keeps the full matrix fast in debug builds.
const FUEL: u64 = 100_000;

/// Every built-in workload at minimum scale, capped at [`FUEL`].
fn workloads() -> Vec<Workload> {
    let mut workloads = ct_workloads::all(0.0);
    assert_eq!(workloads.len(), 9);
    for w in &mut workloads {
        w.run_config.max_insns = w.run_config.max_insns.min(FUEL);
    }
    workloads
}

/// Everything one capture run produces.
#[derive(Debug, PartialEq)]
struct Capture {
    summary: RunSummary,
    stats: SamplerStats,
    samples: Vec<Sample>,
    total_events: u64,
    dropped_collisions: u64,
    dropped_injected: u64,
}

fn capture(cpu: &mut Cpu<'_>, w: &Workload, config: &SamplerConfig, per_event: bool) -> Capture {
    let mut sampler = Sampler::new(cpu.machine(), config).unwrap();
    let summary = if per_event {
        cpu.run(&w.program, &w.run_config, &mut [&mut sampler])
    } else {
        cpu.run_observed(&w.program, &w.run_config, &mut sampler)
    }
    .unwrap();
    let stats = sampler.stats();
    let batch = sampler.into_batch();
    Capture {
        summary,
        stats,
        samples: batch.samples,
        total_events: batch.total_events,
        dropped_collisions: batch.dropped_collisions,
        dropped_injected: batch.dropped_injected,
    }
}

/// Runs `config` both ways on every workload and returns the oracle's
/// captures (so callers can check the case exercised what it meant to).
fn assert_equivalent(
    machine: &MachineModel,
    workloads: &[Workload],
    config: &SamplerConfig,
    what: &str,
) -> Vec<Capture> {
    let mut cpu = Cpu::new(machine);
    workloads
        .iter()
        .map(|w| {
            let oracle = capture(&mut cpu, w, config, true);
            let skipping = capture(&mut cpu, w, config, false);
            assert_eq!(
                skipping, oracle,
                "{what}: {} on {} diverges from the per-event path",
                w.name, machine.name
            );
            oracle
        })
        .collect()
}

/// Every Table 3 method on every paper machine, three seeds each.
fn every_method_matches(opts: &MethodOptions, label: &str) {
    let workloads = workloads();
    let (mut runs, mut samples) = (0, 0);
    for machine in MachineModel::paper_machines() {
        for kind in MethodKind::ALL {
            let Some(inst) = kind.instantiate(&machine, opts) else {
                continue;
            };
            for seed in [1, 77, 0x5EED] {
                let config = inst.config.clone().with_seed(seed);
                let what = format!("{} {label} seed {seed}", kind.label());
                let oracle = assert_equivalent(&machine, &workloads, &config, &what);
                runs += oracle.len();
                samples += oracle.iter().map(|c| c.samples.len()).sum::<usize>();
            }
        }
    }
    // AMD resolves 5 methods, Westmere and Ivy Bridge all 7.
    assert_eq!(runs, 9 * 19 * 3, "{label}");
    assert!(samples > 1_000, "{label}: only {samples} samples compared");
}

#[test]
fn every_method_matches_with_default_periods() {
    every_method_matches(&MethodOptions::default(), "default");
}

#[test]
fn every_method_matches_with_fast_periods() {
    every_method_matches(&MethodOptions::fast(), "fast");
}

#[test]
fn every_method_matches_with_scaled_periods() {
    every_method_matches(&MethodOptions::default().scaled(0.01), "scaled(0.01)");
}

#[test]
fn collisions_and_injected_drops_match_the_per_event_path() {
    let workloads = workloads();
    let wsm = MachineModel::westmere();
    let ivb = MachineModel::ivy_bridge();
    let amd = MachineModel::magny_cours();
    let tiny = |event, precision, period| {
        SamplerConfig::new(event, precision, PeriodSpec::fixed(period)).with_seed(9)
    };
    let cases = [
        (
            &wsm,
            tiny(PmuEvent::InstRetiredAny, Precision::Imprecise, 7),
        ),
        (&ivb, tiny(PmuEvent::InstRetiredAll, Precision::Pebs, 3)),
        (
            &ivb,
            tiny(PmuEvent::InstRetiredPrecDist, Precision::Pdir, 1).with_lbr(),
        ),
        (
            &ivb,
            tiny(PmuEvent::BrInstRetiredNearTaken, Precision::Imprecise, 2).with_lbr(),
        ),
        (
            &amd,
            tiny(PmuEvent::AmdRetiredInstructions, Precision::Imprecise, 11),
        ),
        (&amd, tiny(PmuEvent::IbsOp, Precision::Ibs, 9)),
    ];
    for (machine, config) in &cases {
        let what = format!("tiny period {:?}", config.event);
        let oracle = assert_equivalent(machine, &workloads, config, &what);
        // PDIR and IBS capture at the overflow itself: nothing in flight
        // to collide with.
        if matches!(config.precision, Precision::Imprecise | Precision::Pebs) {
            assert!(
                oracle.iter().any(|c| c.dropped_collisions > 0),
                "{what} must force collisions"
            );
        }

        let mut dropping = config.clone();
        dropping.period = PeriodSpec::fixed(config.period.nominal * 50);
        dropping.pmi_drop_rate = 0.25;
        let what = format!("pmi_drop_rate {:?}", config.event);
        let oracle = assert_equivalent(machine, &workloads, &dropping, &what);
        assert!(
            oracle.iter().any(|c| c.dropped_injected > 0),
            "{what} must inject drops"
        );
    }
}
