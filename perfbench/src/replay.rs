//! The traced replay: the benchmark's correctness oracle.
//!
//! Each served request is replayed through the layers' public functions,
//! called from here in the order the service calls them: parse, resolve
//! (`MethodKind::from_label` / `instantiate`), `ProfileCache::get_or_build`
//! (an instrumented `PairParts::collect`, or a snapshot load), then per
//! run `Sampler::new` → `Cpu::run_observed` → `attribute` →
//! `EstimatedProfile::from_bb_mass` → `accuracy_error`, and finally
//! `Stats` and emit. The response line it builds must equal the served
//! bytes. With tracing on, every call is a span; the totals below are
//! kept either way.

use crate::stats::Digest;
use crate::trace::{Name, Tracer};
use crate::workloads::Fixture;
use countertrust::attrib::attribute;
use countertrust::cache::{PairKey, PairParts, ProfileCache};
use countertrust::evaluate::{ErrorStats, Evaluation};
use countertrust::grid::{cell_seed, GridMethod};
use countertrust::methods::{Attribution, MethodInstance, MethodKind};
use countertrust::metrics::{accuracy_error, Stats};
use countertrust::profile::EstimatedProfile;
use countertrust::serve::{request_seed, EvalRequest, EvalResponse};
use ct_pmu::Sampler;
use ct_sim::Cpu;

/// Aggregates of one method family's runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct MethodTotals {
    pub runs: u64,
    pub insns: u64,
    /// `Sampler::new` plus `Cpu::run_observed`.
    pub capture_ns: u64,
    /// `Cpu::run_silent` on the same runs (tracing only).
    pub silent_ns: u64,
    pub samples: u64,
}

/// Counts and times the replay accumulates at the layer boundaries.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    pub requests: u64,
    pub parse_ns: u64,
    pub emit_ns: u64,
    /// Method runs plus `Stats`: the evaluate step of every request.
    pub eval_ns: u64,
    /// Indexed like [`MethodKind::ALL`].
    pub methods: [MethodTotals; 7],
    /// `(runs, ns)` of attribute + `from_bb_mass` + `accuracy_error`,
    /// indexed plain, ip-fix, LBR walk.
    pub attrib: [(u64, u64); 3],
    pub lookups: u64,
    pub hits: u64,
    pub ref_builds: u64,
    pub ref_build_ns: u64,
}

fn attrib_slot(a: Attribution) -> usize {
    match a {
        Attribution::Plain => 0,
        Attribution::IpFix => 1,
        Attribution::LbrWalk => 2,
    }
}

fn method_slot(kind: MethodKind) -> usize {
    MethodKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("known method")
}

/// Replays requests of one fixture against one cache.
pub struct Replayer<'f> {
    fx: &'f Fixture,
    cache: &'f ProfileCache,
    /// Pair fingerprints when the cache has a snapshot store attached.
    fingerprints: Option<Vec<u64>>,
    /// Also time `Cpu::run_silent` for every run (traced runs only).
    time_silent: bool,
    pub totals: Totals,
}

impl<'f> Replayer<'f> {
    #[must_use]
    pub fn new(fx: &'f Fixture, cache: &'f ProfileCache, time_silent: bool) -> Self {
        let fingerprints = cache.has_snapshot_store().then(|| {
            let mut fps = Vec::new();
            for tenant in &fx.tenants {
                for m in &fx.machines {
                    for w in &fx.workloads {
                        fps.push(countertrust::store::pair_fingerprint(
                            tenant,
                            m,
                            &w.program,
                            &w.run_config,
                            &fx.opts,
                        ));
                    }
                }
            }
            fps
        });
        Self {
            fx,
            cache,
            fingerprints,
            time_silent,
            totals: Totals::default(),
        }
    }

    /// Replays one request line and returns the response line the service
    /// must have sent, or why the replay could not produce one.
    pub fn request(&mut self, tr: &mut Tracer, id: usize, line: &str) -> Result<String, String> {
        tr.set_request(id);
        let root = tr.begin(Name::Request);
        let result = self.request_inner(tr, line);
        tr.end(root);
        result
    }

    fn request_inner(&mut self, tr: &mut Tracer, line: &str) -> Result<String, String> {
        let span = tr.begin(Name::Parse);
        let parsed = serde_json::from_str::<EvalRequest>(line.trim());
        self.totals.parse_ns += tr.end(span);
        let request = parsed.map_err(|e| format!("request does not parse: {e}"))?;
        self.totals.requests += 1;

        let span = tr.begin(Name::Resolve);
        let resolved = self.resolve(&request);
        tr.end(span);
        let (key, instance) = resolved?;

        let parts = self.lookup(tr, key)?;
        let seeds: Vec<u64> = (0..request.effective_runs())
            .map(|r| request_seed(request.seed, r))
            .collect();
        let evaluated = self.evaluate(tr, key, &parts, &instance, &request.method, &seeds)?;

        let span = tr.begin(Name::Emit);
        let response = EvalResponse {
            request,
            stats: Some(evaluated),
            error: None,
            latency: None,
        };
        let mut out = String::new();
        serde_json::to_string_into(&response, &mut out).map_err(|e| e.to_string())?;
        out.push('\n');
        self.totals.emit_ns += tr.end(span);
        Ok(out)
    }

    /// Name resolution, as the service resolves a request.
    fn resolve(&self, request: &EvalRequest) -> Result<(PairKey, MethodInstance), String> {
        let fx = self.fx;
        let catalog = match &request.catalog {
            None => 0,
            Some(name) => fx
                .tenants
                .iter()
                .position(|t| t == name)
                .ok_or_else(|| format!("unknown catalog `{name}`"))?,
        };
        let machine = fx
            .machines
            .iter()
            .position(|m| m.name == request.machine)
            .ok_or_else(|| format!("unknown machine `{}`", request.machine))?;
        let workload = fx
            .workloads
            .iter()
            .position(|w| w.name == request.workload)
            .ok_or_else(|| format!("unknown workload `{}`", request.workload))?;
        let instance = MethodKind::from_label(&request.method)
            .and_then(|k| k.instantiate(&fx.machines[machine], &fx.opts))
            .ok_or_else(|| format!("method `{}` unavailable", request.method))?;
        Ok((PairKey::new(catalog, machine, workload), instance))
    }

    /// The pair's parts through the cache: a hit, an instrumented build or
    /// (with a snapshot store) a snapshot load.
    pub fn lookup(
        &mut self,
        tr: &mut Tracer,
        key: PairKey,
    ) -> Result<std::sync::Arc<PairParts>, String> {
        let fx = self.fx;
        let fingerprint = self.fingerprints.as_ref().map(|fps| {
            fps[(key.catalog * fx.machines.len() + key.machine) * fx.workloads.len() + key.workload]
        });
        let span = tr.begin(Name::CacheLookup);
        let mut build_ns = None;
        let got = self
            .cache
            .get_or_build_with_fingerprint(key, fingerprint, || {
                let build = tr.begin(Name::RefBuild);
                let w = &fx.workloads[key.workload];
                let parts = PairParts::collect(
                    &fx.machines[key.machine],
                    &w.program,
                    &w.run_config,
                    fx.cfgs[key.workload].clone(),
                );
                build_ns = Some(tr.end(build));
                parts
            });
        self.totals.lookups += 1;
        match (&got, build_ns) {
            (Ok((_, true)), _) => self.totals.hits += 1,
            (_, Some(ns)) => {
                self.totals.ref_builds += 1;
                self.totals.ref_build_ns += ns;
            }
            (Ok((_, false)), None) => tr.rename(&span, Name::StoreLoad),
            (Err(_), None) => {}
        }
        tr.end(span);
        got.map(|(parts, _)| parts)
            .map_err(|e| format!("reference collection failed: {e}"))
    }

    /// One method over `seeds`, as `evaluate_method_with_seeds` runs it.
    pub fn evaluate(
        &mut self,
        tr: &mut Tracer,
        key: PairKey,
        parts: &PairParts,
        instance: &MethodInstance,
        label: &str,
        seeds: &[u64],
    ) -> Result<ErrorStats, String> {
        let fx = self.fx;
        let machine = &fx.machines[key.machine];
        let workload = &fx.workloads[key.workload];
        let cfg = &fx.cfgs[key.workload];
        // One interpreter per evaluation, retained across its runs, as a
        // `Session` holds one.
        let mut cpu = Cpu::new(machine);
        let method = &mut self.totals.methods[method_slot(instance.kind)];
        let attrib = &mut self.totals.attrib[attrib_slot(instance.attribution)];
        let mut eval_ns = 0;
        let mut errors = Vec::with_capacity(seeds.len());
        let mut samples = 0usize;
        let mut skid = 0.0;
        for &seed in seeds {
            let mut config = instance.config.clone();
            config.seed = seed;
            let span = tr.begin(Name::SamplerNew);
            let sampler = Sampler::new(machine, &config);
            let new_ns = tr.end(span);
            let mut sampler = sampler.map_err(|e| format!("evaluation failed: {e}"))?;
            let nominal = sampler.nominal_period();
            let span = tr.begin(Name::RunObserved);
            let summary = cpu.run_observed(&workload.program, &workload.run_config, &mut sampler);
            let run_ns = tr.end(span);
            let summary = summary.map_err(|e| format!("evaluation failed: {e}"))?;
            let batch = sampler.into_batch();

            let span = tr.begin(Name::Attribute);
            let bb_mass = attribute(&batch, cfg, instance.attribution, nominal);
            let mut post_ns = tr.end(span);
            let span = tr.begin(Name::FromBbMass);
            let profile = EstimatedProfile::from_bb_mass(bb_mass, &workload.program, cfg);
            post_ns += tr.end(span);
            let span = tr.begin(Name::AccuracyError);
            let error = accuracy_error(&profile.bb_mass, &parts.reference.bb_instructions);
            post_ns += tr.end(span);

            method.runs += 1;
            method.insns += summary.instructions;
            method.capture_ns += new_ns + run_ns;
            method.samples += batch.len() as u64;
            attrib.0 += 1;
            attrib.1 += post_ns;
            eval_ns += new_ns + run_ns + post_ns;
            errors.push(error);
            samples += batch.len();
            skid += batch.mean_skid();
        }
        let span = tr.begin(Name::Stats);
        let n = seeds.len().max(1) as f64;
        let stats = ErrorStats {
            method: label.to_string(),
            stats: Stats::from_values(&errors),
            runs: errors,
            mean_samples: samples as f64 / n,
            mean_skid: skid / n,
        };
        eval_ns += tr.end(span);
        self.totals.eval_ns += eval_ns;
        if self.time_silent {
            for _ in seeds {
                let span = tr.begin(Name::RunSilent);
                let silent = cpu.run_silent(&workload.program, &workload.run_config);
                method.silent_ns += tr.end(span);
                silent.map_err(|e| format!("silent run failed: {e}"))?;
            }
        }
        Ok(stats)
    }
}

/// Replays requests `first..first + lines.len()` on `threads` threads
/// (tracing off) and returns each one's expected response digest — the
/// verification pass of an untraced run.
pub fn expected_digests(
    fx: &Fixture,
    cache: &ProfileCache,
    lines: &[String],
    threads: usize,
) -> Vec<Result<Digest, String>> {
    let per = lines.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = lines
            .chunks(per)
            .enumerate()
            .map(|(c, chunk)| {
                scope.spawn(move || {
                    let mut tr = Tracer::new(false);
                    let mut replayer = Replayer::new(fx, cache, false);
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(i, line)| {
                            replayer
                                .request(&mut tr, c * per + i, line)
                                .map(|s| Digest::of(s.as_bytes()))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("replay worker"))
            .collect()
    })
}

/// Replays the standard grid (every machine × workload × supported method
/// × `repeats`, seeds from `cell_seed`) one cell at a time and returns the
/// evaluations `GridRunner::run_standard` must produce.
pub fn grid(
    replayer: &mut Replayer<'_>,
    tr: &mut Tracer,
    repeats: usize,
    base_seed: u64,
) -> Result<Vec<Evaluation>, String> {
    let fx = replayer.fx;
    let w_count = fx.workloads.len();
    let mut out = Vec::new();
    for (m, machine) in fx.machines.iter().enumerate() {
        let methods = GridMethod::standard(machine, &fx.opts);
        for (w, workload) in fx.workloads.iter().enumerate() {
            let pair = m * w_count + w;
            let key = PairKey::new(0, m, w);
            tr.set_request(pair);
            let root = tr.begin(Name::Request);
            let parts = replayer.lookup(tr, key);
            let mut evaluated = Vec::with_capacity(methods.len());
            let mut failure = None;
            if let Ok(parts) = &parts {
                for (k, method) in methods.iter().enumerate() {
                    let seeds: Vec<u64> = (0..repeats)
                        .map(|r| cell_seed(base_seed, m, w, k, r))
                        .collect();
                    match replayer.evaluate(tr, key, parts, &method.instance, &method.label, &seeds)
                    {
                        Ok(stats) => evaluated.push(stats),
                        Err(e) => failure = Some(e),
                    }
                }
            }
            tr.end(root);
            if let Some(e) = failure.or(parts.err()) {
                return Err(e);
            }
            out.push(Evaluation {
                machine: machine.name.clone(),
                workload: workload.name.clone(),
                methods: evaluated,
            });
        }
    }
    Ok(out)
}
