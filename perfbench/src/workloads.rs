//! The named workloads: their catalogs, request streams and the
//! serving configuration each one runs against.

use countertrust::cache::{AdmissionPolicy, CacheQuotas, ProfileCache};
use countertrust::methods::MethodOptions;
use countertrust::serve::{
    Catalog, CatalogRegistry, CatalogWorkload, EvalRequest, EvalService, FairnessPolicy,
    PipelineOptions, DEFAULT_CATALOG,
};
use ct_bench::streams::{StreamConfig, StreamGenerator, StreamPattern, MIXED_COLD_CATALOG};
use ct_isa::Cfg;
use ct_sim::MachineModel;
use ct_workloads::Workload;
use std::sync::Arc;

/// Server worker threads and client threads: the host has two cores.
pub const THREADS: usize = 2;

/// Catalog scale of `zipf_warm`: small enough that a round of
/// [`ZIPF_BATCH`] requests takes 10–15 s on the 2-core host, so a 40 s
/// run holds two to four rounds.
pub const FULL_SCALE: f64 = 0.01;
/// Catalog scale of `tenant_churn`: the 4-kernel catalog at the size the
/// `bench_suite` tenant scenarios use.
pub const CHURN_SCALE: f64 = 0.01;

/// `tenant_churn` cache shape: a bounded cache much smaller than the 24
/// pairs two tenants touch, with per-tenant quotas.
pub const CHURN_CAPACITY: usize = 8;
pub const CHURN_QUOTA: usize = 4;
/// Requests per `tenant_churn` pipeline chunk and per job.
pub const CHURN_CHUNK: usize = 2;
pub const CHURN_JOB: usize = 6;

/// Batch per round: `zipf_warm` sends 2000 requests, `tenant_churn` 1024
/// jobs, so that the seed's draw of heavy requests (and, on
/// `tenant_churn`, of cache misses) varies little from seed to seed.
pub const ZIPF_BATCH: usize = 2000;
pub const CHURN_BATCH_JOBS: usize = 1024;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ZipfWarm,
    TenantChurn,
}

impl Kind {
    pub const ALL: [Kind; 2] = [Kind::ZipfWarm, Kind::TenantChurn];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::ZipfWarm => "zipf_warm",
            Kind::TenantChurn => "tenant_churn",
        }
    }

    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Requests the traced run's probes sample from the head of the
    /// stream: about 50 ms of evaluation work.
    #[must_use]
    pub fn probe_requests(self) -> usize {
        match self {
            Kind::ZipfWarm => 16,
            Kind::TenantChurn => 64,
        }
    }

    /// Requests in the batch each round sends.
    #[must_use]
    pub fn batch_requests(self) -> usize {
        match self {
            Kind::ZipfWarm => ZIPF_BATCH,
            Kind::TenantChurn => CHURN_BATCH_JOBS * CHURN_JOB,
        }
    }

    /// What one latency sample is.
    #[must_use]
    pub fn sample_name(self) -> &'static str {
        match self {
            Kind::ZipfWarm => "request",
            Kind::TenantChurn => "job",
        }
    }

    fn scale(self) -> f64 {
        match self {
            Kind::ZipfWarm => FULL_SCALE,
            Kind::TenantChurn => CHURN_SCALE,
        }
    }

    fn pattern(self) -> StreamPattern {
        match self {
            Kind::TenantChurn => StreamPattern::Mixed,
            _ => StreamPattern::Zipfian,
        }
    }

    /// Loads the workload's catalog through the `.ctasm` assembler and
    /// loader.
    #[must_use]
    pub fn load_workloads(self) -> Vec<Workload> {
        match self {
            Kind::ZipfWarm => ct_workloads::all(self.scale()),
            Kind::TenantChurn => ct_workloads::kernel_set(self.scale()),
        }
    }
}

/// A workload's catalog as the benchmark's own code sees it: machines,
/// loaded workloads, their CFGs, method options and tenant names (the
/// default tenant first).
pub struct Fixture {
    pub kind: Kind,
    pub machines: Vec<MachineModel>,
    pub workloads: Vec<Workload>,
    pub cfgs: Vec<Arc<Cfg>>,
    pub opts: MethodOptions,
    pub tenants: Vec<String>,
}

impl Fixture {
    #[must_use]
    pub fn new(kind: Kind, workloads: Vec<Workload>, cfgs: Vec<Arc<Cfg>>) -> Self {
        let mut tenants = vec![DEFAULT_CATALOG.to_string()];
        if kind.pattern().is_multi_tenant() {
            tenants.push(MIXED_COLD_CATALOG.to_string());
        }
        Self {
            kind,
            machines: MachineModel::paper_machines(),
            workloads,
            cfgs,
            opts: MethodOptions::default(),
            tenants,
        }
    }

    /// Loads the catalog and builds its CFGs.
    #[must_use]
    pub fn load(kind: Kind) -> Self {
        let workloads = kind.load_workloads();
        let cfgs = workloads
            .iter()
            .map(|w| Arc::new(Cfg::build(&w.program)))
            .collect();
        Self::new(kind, workloads, cfgs)
    }

    /// The request stream of this workload for `seed`, `runs: 1`.
    #[must_use]
    pub fn stream(&self, seed: u64) -> StreamGenerator {
        StreamGenerator::new(
            &self.machines,
            &self.workloads,
            &self.opts,
            &StreamConfig {
                pattern: self.kind.pattern(),
                requests: 0,
                seed,
                runs: 1,
            },
        )
    }

    /// The first `n` requests of the stream for `seed`.
    #[must_use]
    pub fn requests(&self, seed: u64, n: usize) -> Vec<EvalRequest> {
        self.stream(seed).take(n)
    }

    /// One request per `(tenant, machine, workload)` triple: the warm-up
    /// set that makes every pair resident.
    #[must_use]
    pub fn warm_requests(&self) -> Vec<EvalRequest> {
        let mut out = Vec::new();
        for (t, tenant) in self.tenants.iter().enumerate() {
            for m in &self.machines {
                for w in &self.workloads {
                    let mut r = EvalRequest::new(&m.name, &w.name, "classic", 1, 0);
                    if t > 0 {
                        r = r.in_catalog(tenant);
                    }
                    out.push(r);
                }
            }
        }
        out
    }

    /// The served catalog registry (every tenant serves the same
    /// workloads, in its own cache namespace).
    #[must_use]
    pub fn registry(&self) -> CatalogRegistry {
        let catalog = || {
            Catalog::from_parts(
                self.machines.clone(),
                self.workloads
                    .iter()
                    .cloned()
                    .map(CatalogWorkload::from)
                    .collect(),
            )
            .method_options(self.opts)
        };
        let mut registry = CatalogRegistry::new(catalog());
        for tenant in &self.tenants[1..] {
            registry = registry.register(tenant, catalog());
        }
        registry
    }

    /// The service this workload is served by.
    #[must_use]
    pub fn service(&self) -> EvalService {
        let service = EvalService::with_registry(self.registry()).threads(THREADS);
        match self.kind {
            Kind::TenantChurn => service
                .cache_capacity(CHURN_CAPACITY)
                .admission(AdmissionPolicy::Frequency)
                .cache_quotas(CacheQuotas::per_catalog(CHURN_QUOTA)),
            _ => service,
        }
    }

    /// A cache configured like the service's, for the replay.
    #[must_use]
    pub fn cache(&self) -> ProfileCache {
        match self.kind {
            Kind::TenantChurn => ProfileCache::with_config(
                CHURN_CAPACITY,
                AdmissionPolicy::Frequency,
                CacheQuotas::per_catalog(CHURN_QUOTA),
            ),
            _ => ProfileCache::unbounded(),
        }
    }

    /// The per-connection pipeline of the served workload.
    #[must_use]
    pub fn pipeline(&self) -> PipelineOptions {
        match self.kind {
            Kind::TenantChurn => PipelineOptions::new()
                .depth(2)
                .chunk(CHURN_CHUNK)
                .fairness(FairnessPolicy::Weighted),
            _ => PipelineOptions::new(),
        }
    }
}
