//! The serving tier under load: a deployment (service + loopback listener)
//! and the two load generators. All load comes from this one process,
//! with at most two client threads and two connections.

use crate::stats::Digest;
use crate::workloads::{Fixture, Kind, CHURN_JOB, THREADS};
use countertrust::serve::net::{AcceptError, EvalServer, NetOptions, NetStats, ServerHandle};
use countertrust::serve::proto::{read_frame, write_frame, FrameKind, V2_ACK, V2_PREAMBLE};
use countertrust::serve::EvalService;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Read/write timeout of every client socket: a stalled server ends the
/// run with failures instead of hanging it.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// A running service behind a loopback listener.
pub struct Deployment {
    pub service: Arc<EvalService>,
    pub addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<JoinHandle<Result<NetStats, AcceptError>>>,
}

impl Deployment {
    /// Builds the workload's service, warms its cache when the workload
    /// defines a warm-up, binds a listener and starts serving.
    /// `store_dir`, when given, backs the cache with a snapshot store
    /// that starts empty.
    pub fn start(fx: &Fixture, store_dir: Option<PathBuf>) -> Result<Self, String> {
        let service = fx.service();
        if fx.kind != Kind::TenantChurn {
            let warm = service.serve(&fx.warm_requests());
            if let Some(bad) = warm.iter().find(|r| !r.is_ok()) {
                return Err(format!("warm-up request failed: {:?}", bad.error));
            }
        }
        Self::with_service(fx, service, store_dir)
    }

    /// Serves an already-built service with the workload's pipeline.
    pub fn with_service(
        fx: &Fixture,
        service: EvalService,
        store_dir: Option<PathBuf>,
    ) -> Result<Self, String> {
        let mut options = NetOptions::new()
            .pipeline(fx.pipeline())
            .max_connections(THREADS);
        if let Some(dir) = store_dir {
            let _ = std::fs::remove_dir_all(&dir);
            options = options.snapshot_dir(dir);
        }
        let server = EvalServer::listen("127.0.0.1:0", options)
            .map_err(|e| format!("cannot bind a loopback listener: {e}"))?;
        let service = Arc::new(service);
        let addr = server.local_addr();
        let handle = server.handle();
        let serving = service.clone();
        let thread = std::thread::spawn(move || server.serve(&serving));
        Ok(Self {
            service,
            addr,
            handle,
            thread: Some(thread),
        })
    }

    /// Shuts the listener down, drains in-flight connections and returns
    /// the server's connection counters.
    pub fn stop(mut self) -> Result<NetStats, String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<NetStats, String> {
        self.handle.shutdown();
        match self.thread.take() {
            Some(t) => match t.join() {
                Ok(Ok(stats)) => Ok(stats),
                Ok(Err(e)) => Err(e.to_string()),
                Err(_) => Err("server thread panicked".to_string()),
            },
            None => Err("server already stopped".to_string()),
        }
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        if self.thread.is_some() {
            let _ = self.shutdown();
        }
    }
}

/// One pass of a workload's batch: the same requests, in the same order,
/// every round.
#[derive(Debug, Default)]
pub struct Round {
    /// Wall time from the first send to the last response.
    pub wall_s: f64,
    /// Latency per sample in batch order, in ms (per request, or per job
    /// on `tenant_churn`); a failed sample is `f64::INFINITY`.
    pub latencies_ms: Vec<f64>,
    /// Response digest per request in batch order; `None` when missing.
    pub responses: Vec<Option<Digest>>,
    /// How late the generator issued each request, in ms: the time from
    /// the response (or job end) that freed its slot to the send.
    pub late_ms: Vec<f64>,
    /// Transport failures (connect, I/O, timeouts, protocol errors).
    pub transport_errors: Vec<String>,
}

impl Round {
    fn new(samples: usize, requests: usize) -> Self {
        Self {
            latencies_ms: vec![f64::INFINITY; samples],
            responses: vec![None; requests],
            ..Self::default()
        }
    }
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    Ok(stream)
}

fn connect_v2(addr: SocketAddr) -> io::Result<TcpStream> {
    let mut stream = connect(addr)?;
    stream.write_all(&V2_PREAMBLE)?;
    let mut ack = [0u8; 8];
    stream.read_exact(&mut ack)?;
    if ack != V2_ACK {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "no protocol v2 ack",
        ));
    }
    Ok(stream)
}

fn req_frame(line: &str, stream: usize, buf: &mut Vec<u8>) {
    buf.clear();
    let id = u32::try_from(stream).expect("small stream id");
    write_frame(buf, FrameKind::Req, id, line.trim_end().as_bytes())
        .expect("request lines fit a frame");
}

fn bye(mut stream: &TcpStream) {
    let mut buf = Vec::new();
    if write_frame(&mut buf, FrameKind::Bye, 0, &[]).is_ok() && stream.write_all(&buf).is_ok() {
        let _ = stream.shutdown(Shutdown::Write);
        let _ = io::copy(&mut stream, &mut io::sink());
    }
}

/// `zipf_warm`, one round: the batch's request lines over one v2
/// connection carrying two streams, each with one request outstanding; a
/// stream sends its next request as soon as its response arrives.
/// Latency runs from send to the `RESP` frame.
pub fn closed_v2(addr: SocketAddr, lines: &[String]) -> Round {
    let mut round = Round::new(lines.len(), lines.len());
    let stream = match connect_v2(addr) {
        Ok(s) => s,
        Err(e) => {
            round.transport_errors.push(format!("connect: {e}"));
            return round;
        }
    };
    let mut reader = BufReader::new(&stream);
    let mut writer = &stream;
    let mut buf = Vec::new();
    let mut next = 0;
    // Per stream: the request in flight (batch index, send time), and
    // when the stream was freed by its last response.
    let mut in_flight: [Option<(usize, Instant)>; THREADS] = [None; THREADS];
    let mut freed: Vec<(usize, Option<Instant>)> = (0..THREADS).map(|s| (s, None)).collect();
    let start = Instant::now();
    let mut last = start;
    loop {
        for (slot, freed_at) in freed.drain(..) {
            if next == lines.len() {
                continue;
            }
            let index = next;
            next += 1;
            req_frame(&lines[index], slot, &mut buf);
            let sent = Instant::now();
            if let Some(at) = freed_at {
                round.late_ms.push((sent - at).as_secs_f64() * 1e3);
            }
            in_flight[slot] = Some((index, sent));
            if let Err(e) = writer.write_all(&buf) {
                round.transport_errors.push(format!("send: {e}"));
            }
        }
        if !round.transport_errors.is_empty() || in_flight.iter().all(Option::is_none) {
            break;
        }
        let frame = match read_frame(&mut reader) {
            Ok(Some(f)) => f,
            Ok(None) => {
                round
                    .transport_errors
                    .push("server closed the connection".to_string());
                break;
            }
            Err(e) => {
                round.transport_errors.push(format!("receive: {e}"));
                break;
            }
        };
        let now = Instant::now();
        let slot = frame.stream as usize;
        let Some((index, sent)) = (frame.kind == FrameKind::Resp && slot < THREADS)
            .then(|| in_flight[slot].take())
            .flatten()
        else {
            round.transport_errors.push(format!(
                "unexpected {:?} frame on stream {slot}",
                frame.kind
            ));
            break;
        };
        round.latencies_ms[index] = (now - sent).as_secs_f64() * 1e3;
        round.responses[index] = Some(Digest::of(&frame.payload));
        last = now;
        freed.push((slot, Some(now)));
    }
    round.wall_s = (last - start).as_secs_f64();
    bye(&stream);
    round
}

/// `tenant_churn`, one round: two client threads take the batch's jobs in
/// order and run each as a protocol-v1 batch job: connect, send its
/// [`CHURN_JOB`] request lines (`jobs[j]`), half-close and read every
/// response line. Latency is job latency, from connect to the job's last
/// response line.
pub fn churn_jobs(addr: SocketAddr, jobs: &[String]) -> Round {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let per_thread: Vec<(Round, Vec<(usize, f64, Vec<Digest>)>, Instant)> =
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut own = Round::default();
                        let mut done = Vec::new();
                        let mut last = start;
                        let mut previous_end: Option<Instant> = None;
                        loop {
                            let j = next.fetch_add(1, Ordering::Relaxed);
                            if j >= jobs.len() {
                                break;
                            }
                            let t0 = Instant::now();
                            if let Some(end) = previous_end {
                                own.late_ms.push((t0 - end).as_secs_f64() * 1e3);
                            }
                            let (answers, error) = run_job(addr, &jobs[j]);
                            let end = Instant::now();
                            previous_end = Some(end);
                            last = last.max(end);
                            let complete = answers.len() == CHURN_JOB && error.is_none();
                            let latency = if complete {
                                (end - t0).as_secs_f64() * 1e3
                            } else {
                                f64::INFINITY
                            };
                            if let Some(e) = error {
                                own.transport_errors.push(e);
                            }
                            done.push((j, latency, answers));
                        }
                        (own, done, last)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread"))
                .collect()
        });
    let mut round = Round::new(jobs.len(), jobs.len() * CHURN_JOB);
    let mut last = start;
    for (own, done, l) in per_thread {
        round.late_ms.extend(own.late_ms);
        round.transport_errors.extend(own.transport_errors);
        for (j, latency, answers) in done {
            round.latencies_ms[j] = latency;
            for (i, a) in answers.into_iter().take(CHURN_JOB).enumerate() {
                round.responses[j * CHURN_JOB + i] = Some(a);
            }
        }
        last = last.max(l);
    }
    round.wall_s = (last - start).as_secs_f64();
    round
}

/// One v1 job: returns the digests of the response lines read (in order)
/// and the transport error that cut it short, if any. The clock the
/// caller reads after this returns stops at the last response line:
/// the server half-closes right after writing it.
fn run_job(addr: SocketAddr, wire: &str) -> (Vec<Digest>, Option<String>) {
    let mut answers = Vec::with_capacity(CHURN_JOB);
    let stream = match connect(addr) {
        Ok(s) => s,
        Err(e) => return (answers, Some(format!("connect: {e}"))),
    };
    let mut writer = &stream;
    if let Err(e) = writer
        .write_all(wire.as_bytes())
        .and_then(|()| stream.shutdown(Shutdown::Write))
    {
        return (answers, Some(format!("send: {e}")));
    }
    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => answers.push(Digest::of(line.as_bytes())),
            Err(e) => return (answers, Some(format!("receive: {e}"))),
        }
        if answers.len() > CHURN_JOB {
            return (answers, Some("more responses than requests".to_string()));
        }
    }
    (answers, None)
}
