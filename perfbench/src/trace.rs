//! Spans recorded by the traced replay.
//!
//! Every call the replay makes into a layer is wrapped in a span: name,
//! start, end, parent span and request id. Spans stay in memory while the
//! replay runs and are written out once it ends. A layer's self time is
//! its spans' durations minus the parts their child spans cover; self
//! times plus the residual (wall time no root span covers) add up to the
//! traced wall time, which [`Tracer::accounting`] checks.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The layer boundaries the replay records, one span name each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One replayed request (or grid pair): the root span.
    Request,
    /// `workloads`: assembling and loading the catalog.
    CatalogLoad,
    /// `isa`: building a workload's CFG.
    CfgBuild,
    /// `serve` intake: parsing one request line.
    Parse,
    /// `core::methods`: resolving names and instantiating the method.
    Resolve,
    /// `core::cache`: `ProfileCache::get_or_build` (a snapshot load when
    /// the store answered the miss).
    CacheLookup,
    /// `instrument`: `PairParts::collect`, the instrumented reference run.
    RefBuild,
    /// `core::store`: a cache miss answered by a snapshot load.
    StoreLoad,
    /// `pmu`: `Sampler::new`.
    SamplerNew,
    /// `sim` + `pmu`: `Cpu::run_observed` with the sampler attached.
    RunObserved,
    /// `core::attrib`: `attribute`.
    Attribute,
    /// `core::profile`: `EstimatedProfile::from_bb_mass`.
    FromBbMass,
    /// `core::metrics`: `accuracy_error`.
    AccuracyError,
    /// `core::metrics`: `Stats` over the runs of one request.
    Stats,
    /// `serve` emit: building and serializing the response line.
    Emit,
    /// `sim`: `Cpu::run_silent` on the same pair (splits `sim` from `pmu`).
    RunSilent,
}

impl Name {
    /// Every name, in report order.
    pub const ALL: [Name; 16] = [
        Name::Request,
        Name::CatalogLoad,
        Name::CfgBuild,
        Name::Parse,
        Name::Resolve,
        Name::CacheLookup,
        Name::RefBuild,
        Name::StoreLoad,
        Name::SamplerNew,
        Name::RunObserved,
        Name::Attribute,
        Name::FromBbMass,
        Name::AccuracyError,
        Name::Stats,
        Name::Emit,
        Name::RunSilent,
    ];

    /// The span name as written to the trace file.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Name::Request => "request",
            Name::CatalogLoad => "workloads.load",
            Name::CfgBuild => "isa.cfg_build",
            Name::Parse => "serve.parse",
            Name::Resolve => "methods.resolve",
            Name::CacheLookup => "cache.get_or_build",
            Name::RefBuild => "instrument.collect",
            Name::StoreLoad => "store.load",
            Name::SamplerNew => "pmu.sampler_new",
            Name::RunObserved => "pmu.run_observed",
            Name::Attribute => "attrib.attribute",
            Name::FromBbMass => "profile.from_bb_mass",
            Name::AccuracyError => "metrics.accuracy_error",
            Name::Stats => "metrics.stats",
            Name::Emit => "serve.emit",
            Name::RunSilent => "sim.run_silent",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: Name,
    parent: u32,
    request: u32,
    start_ns: u64,
    end_ns: u64,
}

/// An open span, returned by [`Tracer::begin`] and consumed by
/// [`Tracer::end`].
#[must_use]
pub struct Open {
    index: u32,
    started: Instant,
}

/// Records spans when enabled; when disabled, [`Tracer::end`] still
/// returns durations (the replay's aggregates need them) but nothing is
/// kept.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u32,
}

impl Tracer {
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Tags the spans opened from now on with request id `id`.
    pub fn set_request(&mut self, id: usize) {
        self.request = u32::try_from(id).unwrap_or(u32::MAX);
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: Name) -> Open {
        let started = Instant::now();
        let index = if self.enabled {
            let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
            self.spans.push(Span {
                name,
                parent: self.stack.last().copied().unwrap_or(NO_PARENT),
                request: self.request,
                start_ns: self.ns(started),
                end_ns: 0,
            });
            self.stack.push(index);
            index
        } else {
            NO_PARENT
        };
        Open { index, started }
    }

    /// Closes the innermost open span (spans nest strictly) and returns
    /// its duration in nanoseconds.
    pub fn end(&mut self, open: Open) -> u64 {
        let ended = Instant::now();
        if self.enabled {
            let top = self.stack.pop().expect("end matches a begin");
            assert_eq!(top, open.index, "spans close innermost first");
            self.spans[top as usize].end_ns = self.ns(ended);
        }
        u64::try_from(ended.duration_since(open.started).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Renames a still-open span (a cache lookup becomes a store load
    /// once its outcome is known).
    pub fn rename(&mut self, open: &Open, name: Name) {
        if self.enabled {
            self.spans[open.index as usize].name = name;
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Per-name self times and the residual over `wall_ns`, checking that
    /// spans nest and that self times plus residual add up to the wall
    /// time.
    pub fn accounting(&self, wall_ns: u64) -> Result<Accounting, String> {
        if !self.stack.is_empty() {
            return Err(format!("{} spans still open", self.stack.len()));
        }
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut root_ns = 0u64;
        for s in &self.spans {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            if s.end_ns < s.start_ns {
                return Err(format!("span {} ends before it starts", s.name.label()));
            }
            if s.parent == NO_PARENT {
                root_ns += dur;
            } else {
                let p = &self.spans[s.parent as usize];
                if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                    return Err(format!(
                        "span {} escapes its parent {}",
                        s.name.label(),
                        p.name.label()
                    ));
                }
                child_ns[s.parent as usize] += dur;
            }
        }
        let mut self_ns = vec![0u64; Name::ALL.len()];
        let mut counts = vec![0u64; Name::ALL.len()];
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let own = dur.checked_sub(child_ns[i]).ok_or_else(|| {
                format!(
                    "children of {} overlap: they cover more than it",
                    s.name.label()
                )
            })?;
            let slot = Name::ALL
                .iter()
                .position(|n| *n == s.name)
                .expect("known name");
            self_ns[slot] += own;
            counts[slot] += 1;
        }
        let residual_ns = wall_ns
            .checked_sub(root_ns)
            .ok_or_else(|| "root spans cover more than the traced wall time".to_string())?;
        let total: u64 = self_ns.iter().sum::<u64>() + residual_ns;
        if total != wall_ns {
            return Err(format!(
                "self times plus residual ({total} ns) differ from wall time ({wall_ns} ns)"
            ));
        }
        Ok(Accounting {
            self_ns,
            counts,
            residual_ns,
            wall_ns,
        })
    }

    /// Writes every span as one tab-separated line after a header:
    /// `request parent name start_ns end_ns`, where `parent` is the
    /// 0-based index of the parent's line among the span lines (`-` for
    /// a root span) and times count from the tracer's creation.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "request\tparent\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}",
                s.request,
                s.name.label(),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }

    /// Nanoseconds since this tracer was created.
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        self.ns(Instant::now())
    }
}

/// Self time per span name plus the untraced residual.
pub struct Accounting {
    pub self_ns: Vec<u64>,
    pub counts: Vec<u64>,
    pub residual_ns: u64,
    pub wall_ns: u64,
}

impl Accounting {
    /// Residual as a share of the traced wall time.
    #[must_use]
    pub fn residual_frac(&self) -> f64 {
        crate::stats::ratio(self.residual_ns as f64, self.wall_ns as f64)
    }
}
