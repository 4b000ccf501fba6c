//! `perfbench` — the countertrust benchmark.
//!
//! ```text
//! env MALLOC_ARENA_MAX=2 cargo run --release --offline --quiet \
//!     --manifest-path perfbench/Cargo.toml -- \
//!     --workload zipf_warm|tenant_churn \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One run sets the workload up several times (reporting the median
//! set-up time), sends one fixed batch from the seed's request stream in
//! rounds for `--seconds` from this process, checks every output against
//! the benchmark's own layer-by-layer replay, and prints each metric by
//! name and unit. The last line of standard output is one
//! JSON object: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a traced replay with `--trace 1`. See `perfbench/README.md`.

mod load;
mod probes;
mod replay;
mod stats;
mod trace;
mod workloads;

use countertrust::cache::{CacheStats, ProfileCache};
use countertrust::methods::MethodKind;
use load::{Deployment, Round};
use replay::{Replayer, Totals};
use stats::{median, percentile, ratio, Digest};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::{Accounting, Name, Tracer};
use workloads::{Fixture, Kind, CHURN_JOB, THREADS};

/// Set-ups per run: at least `SETUP_REPEATS`, and more (up to
/// `SETUP_MAX`) while they take less than `SETUP_BUDGET_S` in total, so
/// millisecond set-ups still give a steady median. `setup_s` is the
/// median.
const SETUP_REPEATS: usize = 5;
const SETUP_MAX: usize = 50;
const SETUP_BUDGET_S: f64 = 0.5;

/// Rounds per run: at least `MIN_ROUNDS`, more while the next one fits
/// in `--seconds`.
const MIN_ROUNDS: usize = 2;

const USAGE: &str = "usage: perfbench --workload zipf_warm|tenant_churn \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut kind = None;
    let mut parsed = Args {
        kind: Kind::ZipfWarm,
        seed: 1000,
        seconds: 8.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("invalid {what} {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(|| bad("workload"))?),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| bad("duration"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    parsed.kind = kind.ok_or("--workload is required")?;
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run_serving(&args) {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.kind.name());
            ExitCode::FAILURE
        }
    }
}

/// Where runs keep scratch files (snapshot stores) and write traces.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn more_setups(trace: bool, setups: &[f64]) -> bool {
    let n = setups.len();
    if trace {
        return n == 0;
    }
    n < SETUP_REPEATS || (n < SETUP_MAX && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
}

/// One run's result.
struct Report {
    kind: Kind,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    fn new(kind: Kind) -> Self {
        Self {
            kind,
            problems: Vec::new(),
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if value.is_finite() {
            self.metrics.push((name, value, unit));
        } else {
            self.problems
                .push(format!("metric {name} is not finite ({value})"));
            self.metrics.push((name, 0.0, unit));
        }
    }

    fn print(&self) {
        let name = self.kind.name();
        for note in &self.notes {
            println!("{name}: {note}");
        }
        for (metric, value, unit) in &self.metrics {
            println!("{name}: {metric} = {value} {unit}");
        }
        println!(
            "{name}: failed_frac = {} ({} of {} operations)",
            ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        );
        for p in &self.problems {
            println!("{name}: INCORRECT: {p}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v, u)| format!("\"{m}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }

    /// The end-to-end metrics of a serving run, each over the whole run:
    /// `ops_per_s` is every round's requests over the rounds' summed wall
    /// time, and the latency percentiles pool every round's samples.
    fn end_to_end(&mut self, setups: &[f64], rounds: &[Round], what: &str) {
        self.metric("setup_s", median(setups), "s");
        let requests: usize = rounds.iter().map(|r| r.responses.len()).sum();
        let wall_s: f64 = rounds.iter().map(|r| r.wall_s).sum();
        self.metric("ops_per_s", ratio(requests as f64, wall_s), "1/s");
        let mut samples: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.latencies_ms.iter().copied())
            .collect();
        samples.sort_by(f64::total_cmp);
        self.metric("latency_p50_ms", percentile(&samples, 0.50), "ms");
        self.metric("latency_p99_ms", percentile(&samples, 0.99), "ms");
        let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
        self.notes.push(format!(
            "{} rounds of {} requests, wall {:.3?} s",
            rounds.len(),
            requests / rounds.len().max(1),
            walls
        ));
        self.notes
            .push(format!("latency samples = {} {what}s", samples.len()));
        self.notes
            .push(format!("setup_s samples = {}", setups.len()));
    }

    /// The benchmark's own numbers: listed with the per-layer metrics of a
    /// traced run, printed as notes otherwise.
    fn loadgen(&mut self, trace: bool, late_ms: &[f64], calib_ms: f64) {
        let mut late = late_ms.to_vec();
        late.sort_by(f64::total_cmp);
        let late_p99 = percentile(&late, 0.99);
        if trace {
            self.metric("loadgen.late_p99_ms", late_p99, "ms");
            self.metric("host.calib_ms", calib_ms, "ms");
        } else {
            self.notes.push(format!("loadgen.late_p99_ms = {late_p99}"));
            self.notes.push(format!("host.calib_ms = {calib_ms}"));
        }
    }
}

// --- serving workloads ------------------------------------------------------

fn run_serving(args: &Args) -> Result<Report, String> {
    let kind = args.kind;
    let mut report = Report::new(kind);
    // The host calibration loop runs before every round; its median is
    // recorded, never used to adjust a metric.
    let mut calib_ms = Vec::new();
    let store_dir = (kind == Kind::TenantChurn)
        .then(|| out_dir().join(format!("store-{}", std::process::id())));
    let set_up = |setups: &mut Vec<f64>| -> Result<(Fixture, Deployment), String> {
        let t = Instant::now();
        let fx = Fixture::load(kind);
        let deployment = Deployment::start(&fx, store_dir.clone())?;
        setups.push(t.elapsed().as_secs_f64());
        Ok((fx, deployment))
    };

    // Set-up: catalog load (assembler + loader), service, listener and
    // warm-up, several times over; the last deployment serves.
    let mut setups = Vec::new();
    let mut deployed = None;
    while more_setups(args.trace, &setups) {
        drop(deployed.take());
        deployed = Some(set_up(&mut setups)?);
    }
    let (mut fx, mut deployment) = deployed.expect("at least one set-up");

    // The batch every round sends: the head of the seed's stream.
    let lines: Vec<String> = fx
        .requests(args.seed, kind.batch_requests())
        .iter()
        .map(|r| serde_json::to_string(r).expect("requests serialize") + "\n")
        .collect();
    let jobs: Vec<String> = lines.chunks(CHURN_JOB).map(|c| c.concat()).collect();

    // Timed phase: rounds of the batch while the next one fits in the
    // run's time. Every round is served by a fresh set-up (on
    // `tenant_churn`, an empty cache and snapshot store), so each round
    // after the first adds a set-up sample, spread over the run.
    let mut rounds: Vec<Round> = Vec::new();
    let start = Instant::now();
    let mut cycle_start = start;
    loop {
        calib_ms.push(stats::calibration_ms());
        let round = match kind {
            Kind::ZipfWarm => load::closed_v2(deployment.addr, &lines),
            Kind::TenantChurn => load::churn_jobs(deployment.addr, &jobs),
        };
        let cut = !round.transport_errors.is_empty();
        rounds.push(round);
        stop_deployment(&mut report, deployment, &fx, lines.len(), cut)?;
        if let Some(dir) = &store_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let next_end = start.elapsed() + cycle_start.elapsed();
        if cut || (rounds.len() >= MIN_ROUNDS && next_end.as_secs_f64() > args.seconds) {
            break;
        }
        cycle_start = Instant::now();
        (fx, deployment) = set_up(&mut setups)?;
    }
    if !args.trace {
        report.end_to_end(&setups, &rounds, kind.sample_name());
        report.metric("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    }
    for round in &rounds {
        report
            .problems
            .extend(round.transport_errors.iter().take(3).cloned());
    }

    let expected = if args.trace {
        traced_serving(&mut report, kind, &lines, args.seed)?
    } else {
        replay::expected_digests(&fx, &ProfileCache::unbounded(), &lines, THREADS)
    };
    for round in &rounds {
        report.attempted += round.responses.len() as u64;
        for (index, (got, want)) in round.responses.iter().zip(&expected).enumerate() {
            match (got, want) {
                (Some(got), Ok(want)) if got == want => {}
                (None, _) => report.failed += 1,
                (Some(_), Ok(_)) => {
                    report.failed += 1;
                    if report.problems.len() < 8 {
                        report
                            .problems
                            .push(format!("response {index} differs from the replay"));
                    }
                }
                (Some(_), Err(e)) => {
                    report.failed += 1;
                    if report.problems.len() < 8 {
                        report
                            .problems
                            .push(format!("replay of request {index} failed: {e}"));
                    }
                }
            }
        }
    }
    let late: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.late_ms.iter().copied())
        .collect();
    report.loadgen(args.trace, &late, median(&calib_ms));
    Ok(report)
}

/// Stops a deployment and checks the invariants its service's public
/// counters must satisfy after serving `served` stream requests (`cut`:
/// the transport cut a round short).
fn stop_deployment(
    report: &mut Report,
    deployment: Deployment,
    fx: &Fixture,
    served: usize,
    cut: bool,
) -> Result<(), String> {
    let service = deployment.service.clone();
    let net = deployment.stop()?;
    let s = service.stats();
    let c = service.cache_stats();
    let warm = if fx.kind == Kind::TenantChurn {
        0
    } else {
        fx.warm_requests().len()
    };
    let sent = (warm + served) as u64;
    let tenant =
        |f: fn(&countertrust::serve::TenantServeStats) -> u64| s.tenants.iter().map(f).sum::<u64>();
    let cache_tenant =
        |f: fn(&countertrust::cache::TenantCacheStats) -> u64| c.tenants.iter().map(f).sum::<u64>();
    let checks = [
        ("connection I/O errors", net.io_errors, 0),
        ("connection worker panics", net.worker_panics, 0),
        ("error responses", s.errors, 0),
        (
            "hits + builds vs requests",
            s.cache_hits + s.builds,
            s.requests,
        ),
        (
            "tenant requests vs total",
            tenant(|t| t.requests),
            s.requests,
        ),
        (
            "tenant hits vs total",
            tenant(|t| t.cache_hits),
            s.cache_hits,
        ),
        ("tenant builds vs total", tenant(|t| t.builds), s.builds),
        ("tenant errors vs total", tenant(|t| t.errors), s.errors),
        (
            "tenant cache hits vs total",
            cache_tenant(|t| t.hits),
            c.hits,
        ),
        (
            "tenant cache misses vs total",
            cache_tenant(|t| t.misses),
            c.misses,
        ),
        (
            "tenant evictions vs total",
            cache_tenant(|t| t.evictions),
            c.evictions,
        ),
        (
            "tenant rejections vs total",
            cache_tenant(|t| t.rejected),
            c.rejected,
        ),
        (
            "tenant residency vs total",
            cache_tenant(|t| t.resident as u64),
            c.resident as u64,
        ),
    ];
    for (what, got, want) in checks {
        if got != want {
            report
                .problems
                .push(format!("counter invariant broken: {what}: {got} != {want}"));
        }
    }
    if c.builds > c.misses {
        report.problems.push(format!(
            "counter invariant broken: cache builds {} > misses {}",
            c.builds, c.misses
        ));
    }
    // Every request sent was served, unless the transport cut a round.
    if !cut && s.requests != sent {
        report
            .problems
            .push(format!("{} requests served, {sent} sent", s.requests));
    }
    Ok(())
}

/// The traced run of a serving workload: replays the catalog load, the
/// warm-up (numbered after the stream) and every served request through
/// the layers' public calls, one span per call, then runs the probes.
/// Returns each request's expected response digest.
fn traced_serving(
    report: &mut Report,
    kind: Kind,
    lines: &[String],
    seed: u64,
) -> Result<Vec<Result<Digest, String>>, String> {
    let mut tr = Tracer::new(true);
    let (fx, load_ns, cfg_ns) = traced_fixture(&mut tr, kind);
    let cache = fx.cache();
    let store_dir = out_dir().join(format!("replay-store-{}", std::process::id()));
    if kind == Kind::TenantChurn {
        let _ = std::fs::remove_dir_all(&store_dir);
        cache.attach_snapshot_store(&store_dir);
    }
    let mut replayer = Replayer::new(&fx, &cache, true);
    if kind != Kind::TenantChurn {
        for (i, r) in fx.warm_requests().iter().enumerate() {
            let line = serde_json::to_string(r).expect("requests serialize");
            replayer.request(&mut tr, lines.len() + i, &line)?;
        }
    }
    let warm = (replayer.totals.clone(), cache.stats());
    let expected = lines
        .iter()
        .enumerate()
        .map(|(i, line)| {
            replayer
                .request(&mut tr, i, line)
                .map(|s| Digest::of(s.as_bytes()))
        })
        .collect();
    let wall_ns = tr.elapsed_ns();
    let totals = replayer.totals.clone();
    drop(replayer);
    let _ = std::fs::remove_dir_all(&store_dir);

    replay_metrics(report, load_ns, cfg_ns, &totals, &warm.0);
    cache_metrics(report, &cache, &fx, &totals, &warm);
    let accounting = finish_trace(report, &tr, wall_ns, kind, seed)?;
    probe_metrics(report, &fx, seed)?;
    if let Some(a) = accounting {
        self_time_notes(report, &a);
    }
    Ok(expected)
}

/// Loads the catalog and builds the CFGs under spans; returns the fixture
/// and the load and mean CFG-build times in ns.
fn traced_fixture(tr: &mut Tracer, kind: Kind) -> (Fixture, u64, f64) {
    let span = tr.begin(Name::CatalogLoad);
    let workloads = kind.load_workloads();
    let load_ns = tr.end(span);
    let mut cfg_ns = Vec::new();
    let cfgs = workloads
        .iter()
        .map(|w| {
            let span = tr.begin(Name::CfgBuild);
            let cfg = std::sync::Arc::new(ct_isa::Cfg::build(&w.program));
            cfg_ns.push(tr.end(span) as f64);
            cfg
        })
        .collect();
    (
        Fixture::new(kind, workloads, cfgs),
        load_ns,
        stats::mean(&cfg_ns),
    )
}

/// Writes the spans out, checks the trace accounting and reports its
/// residual; a broken accounting is a correctness problem.
fn finish_trace(
    report: &mut Report,
    tr: &Tracer,
    wall_ns: u64,
    kind: Kind,
    seed: u64,
) -> Result<Option<Accounting>, String> {
    let path = out_dir().join(format!("trace-{}-{seed}.tsv", kind.name()));
    tr.write(&path)
        .map_err(|e| format!("cannot write the trace: {e}"))?;
    match tr.accounting(wall_ns) {
        Ok(a) => {
            report.metric("trace.residual_frac", a.residual_frac(), "frac");
            Ok(Some(a))
        }
        Err(e) => {
            report.problems.push(format!("trace accounting: {e}"));
            report.metric("trace.residual_frac", 1.0, "frac");
            Ok(None)
        }
    }
}

/// Per-layer metrics derived from the replay totals; `warm` holds the
/// totals before the measured stream started.
fn replay_metrics(report: &mut Report, load_ns: u64, cfg_ns: f64, t: &Totals, warm: &Totals) {
    report.metric("workloads.load_ms", load_ns as f64 / 1e6, "ms");
    report.metric("isa.cfg_build_us", cfg_ns / 1e3, "us");
    let runs: u64 = t.methods.iter().map(|m| m.runs).sum();
    let insns: u64 = t.methods.iter().map(|m| m.insns).sum();
    let silent: u64 = t.methods.iter().map(|m| m.silent_ns).sum();
    let samples: u64 = t.methods.iter().map(|m| m.samples).sum();
    report.metric(
        "sim.ns_per_insn",
        ratio(silent as f64, insns as f64),
        "ns/insn",
    );
    report.metric(
        "sim.insns_per_op",
        ratio(insns as f64, runs as f64),
        "count",
    );
    for (kind, m) in MethodKind::ALL.iter().zip(&t.methods) {
        let name = format!("pmu.capture_ns_per_insn.{}", kind.label().replace('+', "-"));
        let capture = m.capture_ns as f64 - m.silent_ns as f64;
        report.metric(name, ratio(capture, m.insns as f64), "ns/insn");
    }
    report.metric(
        "pmu.samples_per_run",
        ratio(samples as f64, runs as f64),
        "count",
    );
    for (label, (n, ns)) in ["plain", "ipfix", "lbrwalk"].iter().zip(&t.attrib) {
        report.metric(
            format!("attrib.us_per_run.{label}"),
            ratio(*ns as f64 / 1e3, *n as f64),
            "us",
        );
    }
    report.metric(
        "instrument.ref_build_ms",
        ratio(t.ref_build_ns as f64 / 1e6, t.ref_builds as f64),
        "ms",
    );
    report.metric(
        "instrument.builds",
        (t.ref_builds - warm.ref_builds) as f64,
        "count",
    );
    let n = t.requests as f64;
    report.metric("serve.parse_us", ratio(t.parse_ns as f64 / 1e3, n), "us");
    report.metric("serve.emit_us", ratio(t.emit_ns as f64 / 1e3, n), "us");
}

/// The replay cache's counters over the measured stream, and the cost of
/// a hit.
fn cache_metrics(
    report: &mut Report,
    cache: &ProfileCache,
    fx: &Fixture,
    t: &Totals,
    warm: &(Totals, CacheStats),
) {
    let stats = cache.stats();
    let hits = t.hits - warm.0.hits;
    let lookups = t.lookups - warm.0.lookups;
    report.metric("cache.hit_rate", ratio(hits as f64, lookups as f64), "frac");
    report.metric(
        "cache.evictions",
        (stats.evictions - warm.1.evictions) as f64,
        "count",
    );
    report.metric(
        "cache.snapshot_hits",
        (stats.snapshot_hits - warm.1.snapshot_hits) as f64,
        "count",
    );
    report.metric("cache.hit_us", probes::cache_hit_us(cache, fx), "us");
}

/// The probes of every traced run, the grid engine's on a one-repeat
/// grid of the workload's own catalog.
fn probe_metrics(report: &mut Report, fx: &Fixture, seed: u64) -> Result<(), String> {
    let sample = fx.requests(seed, fx.kind.probe_requests());
    let lines: Vec<String> = sample
        .iter()
        .map(|r| serde_json::to_string(r).expect("requests serialize") + "\n")
        .collect();
    let (batch, pipeline) = probes::serve_overhead(fx, &sample, &lines)?;
    report.metric("serve.batch_overhead_us", batch, "us");
    report.metric("serve.pipeline_overhead_us", pipeline, "us");
    let store_dir = out_dir().join(format!("probe-store-{}", std::process::id()));
    let (save, load, bytes) = probes::store(fx, &store_dir)?;
    report.metric("store.load_us", load, "us");
    report.metric("store.save_us", save, "us");
    report.metric("store.bytes", bytes, "bytes");
    report.metric("proto.frame_rt_ns", probes::frame_rt_ns(&lines), "ns");
    let (connect, rtt) = probes::net(fx, &sample, &lines)?;
    report.metric("net.connect_us", connect, "us");
    report.metric("net.rtt_us", rtt, "us");
    let (work_s, wall_s) = probes::mini_grid(fx, seed)?;
    report.metric(
        "grid.residual_frac",
        probes::grid_residual(work_s, wall_s),
        "frac",
    );
    Ok(())
}

/// Self time per span name, as notes.
fn self_time_notes(report: &mut Report, a: &Accounting) {
    for (i, name) in Name::ALL.iter().enumerate() {
        report.notes.push(format!(
            "self time {:24} {:10.3} ms over {} spans",
            name.label(),
            a.self_ns[i] as f64 / 1e6,
            a.counts[i]
        ));
    }
}
