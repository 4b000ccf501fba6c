//! Per-layer probes a traced run makes next to the replay: layers whose
//! cost the replay of the stream does not isolate on its own (wire
//! framing, snapshot files, sockets, the serve drivers' own overhead, the
//! grid engine's scheduling).

use crate::load::{Deployment, CLIENT_TIMEOUT};
use crate::replay::{self, Replayer};
use crate::stats::{mean, median, ratio};
use crate::trace::Tracer;
use crate::workloads::{Fixture, THREADS};
use countertrust::cache::{PairKey, PairParts, ProfileCache};
use countertrust::grid::GridRunner;
use countertrust::serve::proto::{read_frame, write_frame, FrameKind, V2Client};
use countertrust::serve::{EvalRequest, EvalService, PipelineOptions};
use countertrust::store::SnapshotStore;
use std::path::Path;
use std::time::Instant;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// A warmed, unbounded service over the fixture's catalog.
fn warm_service(fx: &Fixture, threads: usize) -> EvalService {
    let service = EvalService::with_registry(fx.registry()).threads(threads);
    service.serve(&fx.warm_requests());
    service
}

/// Mean µs of `ProfileCache::get_or_build` on a resident key.
pub fn cache_hit_us(cache: &ProfileCache, fx: &Fixture) -> f64 {
    let key = (0..fx.tenants.len())
        .flat_map(|c| (0..fx.machines.len()).map(move |m| (c, m)))
        .flat_map(|(c, m)| (0..fx.workloads.len()).map(move |w| PairKey::new(c, m, w)))
        .find(|k| cache.contains(*k));
    let Some(key) = key else { return 0.0 };
    const N: usize = 20_000;
    let t = Instant::now();
    for _ in 0..N {
        let got = cache.get_or_build(key, || unreachable!("the key is resident"));
        std::hint::black_box(got.is_ok());
    }
    us(t) / N as f64
}

/// Snapshot store costs over the fixture's first pairs: median µs per
/// save and per load, and the mean snapshot size in bytes.
pub fn store(fx: &Fixture, dir: &Path) -> Result<(f64, f64, f64), String> {
    let store = SnapshotStore::new(dir);
    let (mut saves, mut loads, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for (w, workload) in fx.workloads.iter().enumerate().take(4) {
        let machine = &fx.machines[0];
        let parts = PairParts::collect(
            machine,
            &workload.program,
            &workload.run_config,
            fx.cfgs[w].clone(),
        )
        .map_err(|e| e.to_string())?;
        let fp = countertrust::store::pair_fingerprint(
            &fx.tenants[0],
            machine,
            &workload.program,
            &workload.run_config,
            &fx.opts,
        );
        for _ in 0..10 {
            let t = Instant::now();
            store.save(fp, &parts).map_err(|e| e.to_string())?;
            saves.push(us(t));
            let t = Instant::now();
            let loaded = store.load(fp).map_err(|e| e.to_string())?;
            loads.push(us(t));
            if loaded.is_none() {
                return Err("a saved snapshot did not load".to_string());
            }
        }
        let len = std::fs::metadata(store.path_for(fp))
            .map_err(|e| e.to_string())?
            .len();
        bytes.push(len as f64);
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok((median(&saves), median(&loads), mean(&bytes)))
}

/// Mean ns of one `write_frame` + `read_frame` round trip over the
/// payloads given (request and response lines).
pub fn frame_rt_ns(payloads: &[String]) -> f64 {
    const N: usize = 20_000;
    let mut buf = Vec::new();
    let t = Instant::now();
    for i in 0..N {
        let payload = payloads[i % payloads.len()].as_bytes();
        buf.clear();
        write_frame(&mut buf, FrameKind::Req, 1, payload).expect("payload fits a frame");
        let frame = read_frame(&mut buf.as_slice()).expect("frame decodes");
        std::hint::black_box(frame);
    }
    t.elapsed().as_secs_f64() * 1e9 / N as f64
}

/// Per-request overhead of the two serve drivers over the evaluation
/// work they wrap: wall time of `serve_jsonl` (and of `serve_pipelined`)
/// on one thread minus the replay's evaluate spans for the same
/// requests, per request. Also checks
/// both drivers' bytes against the replay.
pub fn serve_overhead(
    fx: &Fixture,
    sample: &[EvalRequest],
    lines: &[String],
) -> Result<(f64, f64), String> {
    let service = warm_service(fx, 1);
    let wire: String = lines.concat();
    let cache = ProfileCache::unbounded();
    let mut tr = Tracer::new(false);
    let mut replayer = Replayer::new(fx, &cache, false);
    let mut expected = String::new();
    for (i, line) in lines.iter().enumerate() {
        expected.push_str(&replayer.request(&mut tr, i, line)?);
    }
    // Paired repeats in alternating order; the overhead is the median of
    // the per-repeat differences, which cancels slow drifts of the host.
    let (mut batch, mut piped) = (Vec::new(), Vec::new());
    for rep in 0..9 {
        let mut replay_us = || -> Result<f64, String> {
            let before = replayer.totals.eval_ns;
            for (i, line) in lines.iter().enumerate() {
                replayer.request(&mut tr, i, line)?;
            }
            Ok((replayer.totals.eval_ns - before) as f64 / 1e3)
        };
        let early = if rep % 2 == 0 {
            Some(replay_us()?)
        } else {
            None
        };
        let t = Instant::now();
        let out = service.serve_jsonl(sample);
        let batch_us = us(t);
        if out != expected {
            return Err("serve_jsonl bytes differ from the replay".to_string());
        }
        let mut out = Vec::with_capacity(expected.len());
        let t = Instant::now();
        service
            .serve_pipelined(wire.as_bytes(), &mut out, &PipelineOptions::new())
            .map_err(|e| e.to_string())?;
        let piped_us = us(t);
        if out != expected.as_bytes() {
            return Err("serve_pipelined bytes differ from the replay".to_string());
        }
        let eval_us = match early {
            Some(e) => e,
            None => replay_us()?,
        };
        batch.push(batch_us - eval_us);
        piped.push(piped_us - eval_us);
    }
    let n = sample.len() as f64;
    Ok((median(&batch) / n, median(&piped) / n))
}

/// Loopback connect time and network round-trip overhead, in µs: median
/// `TcpStream::connect`, and median v2 round trip of a request minus the
/// in-process `serve_one` time of the same request on the same service.
pub fn net(fx: &Fixture, sample: &[EvalRequest], lines: &[String]) -> Result<(f64, f64), String> {
    let deployment = Deployment::with_service(fx, warm_service(fx, THREADS), None)?;
    let mut connects = Vec::new();
    for _ in 0..32 {
        let t = Instant::now();
        let stream = std::net::TcpStream::connect(deployment.addr).map_err(|e| e.to_string())?;
        connects.push(us(t));
        drop(stream);
    }
    let mut client = V2Client::connect(deployment.addr).map_err(|e| e.to_string())?;
    client
        .set_timeout(Some(CLIENT_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut overheads = Vec::new();
    for (i, (request, line)) in sample.iter().zip(lines).enumerate() {
        let local_us = || {
            let t = Instant::now();
            deployment.service.serve_one(request);
            us(t)
        };
        // Alternate which side runs first, so host drift cancels.
        let early = (i % 2 == 0).then(local_us);
        let t = Instant::now();
        client.send_line(0, line).map_err(|e| e.to_string())?;
        client.flush().map_err(|e| e.to_string())?;
        let reply = client.recv().map_err(|e| e.to_string())?;
        let remote = us(t);
        if reply.is_none() {
            return Err("server closed the probe connection".to_string());
        }
        overheads.push(remote - early.unwrap_or_else(local_us));
    }
    client.bye().map_err(|e| e.to_string())?;
    deployment.stop()?;
    Ok((median(&connects), median(&overheads)))
}

/// One standard grid over the fixture's catalog (one repeat per cell)
/// on `THREADS` workers, and a traced single-thread replay of the same
/// cells: returns (replayed layer work, grid wall time), in seconds.
pub fn mini_grid(fx: &Fixture, seed: u64) -> Result<(f64, f64), String> {
    let specs = ct_bench::workload_specs(&fx.workloads);
    let t = Instant::now();
    let evals =
        GridRunner::new()
            .threads(THREADS)
            .run_standard(&fx.machines, &specs, &fx.opts, 1, seed);
    let wall_s = t.elapsed().as_secs_f64();
    let cache = ProfileCache::unbounded();
    let mut tr = Tracer::new(true);
    let mut replayer = Replayer::new(fx, &cache, false);
    let replayed = replay::grid(&mut replayer, &mut tr, 1, seed)?;
    if countertrust::report::to_json(&replayed) != countertrust::report::to_json(&evals) {
        return Err("grid report differs from the replay".to_string());
    }
    let acc = tr.accounting(tr.elapsed_ns())?;
    Ok(((acc.wall_ns - acc.residual_ns) as f64 / 1e9, wall_s))
}

/// Share of grid worker time (`wall_s` on `THREADS` workers) not covered
/// by the layer work the replay traced for the same cells.
#[must_use]
pub fn grid_residual(work_s: f64, wall_s: f64) -> f64 {
    1.0 - ratio(work_s, wall_s * THREADS as f64)
}
