//! The `serve` workload: an in-process `tm3270d` server with one worker
//! on loopback, driven by closed-loop clients that each run whole
//! sessions (create `d` → load `filter` → run → verify → close).
//!
//! The served kernel does about 11 ms of simulation per session. A
//! `memset` session does under 1 ms, so its latency is mostly thread
//! hand-offs, whose cost on a shared two-vCPU host swings with the host's
//! load (see README.md). Registry workloads are loaded by name, so this
//! workload ignores the seed.

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tm3270_core::MachineConfig;
use tm3270_obs::json;
use tm3270_session::{Client, ServeReport, Server, ServerConfig, ShutdownHandle};

use crate::kernels::{self, Prepared, SimTotals};
use crate::report::Outcome;
use crate::stats::{median, tail};
use crate::trace::{self, Span, Tracer};
use crate::SETUP_REPEATS;

/// Client connections: one per host CPU. Two clients keep the single
/// worker busy, so the run measures the server rather than the
/// scheduler of a two-CPU host.
const CLIENTS: usize = 2;
/// Sessions each client runs in one warm-up.
const WARMUP_SESSIONS: usize = 2;
const CONFIG: &str = "d";
const KERNEL: &str = "filter";

/// A server running on its own thread.
struct Running {
    addr: SocketAddr,
    shutdown: ShutdownHandle,
    thread: JoinHandle<std::io::Result<ServeReport>>,
}

impl Running {
    fn start() -> Result<Running, String> {
        let server = Server::bind("127.0.0.1:0", ServerConfig::new().workers(1))
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local address: {e}"))?;
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.serve());
        Ok(Running {
            addr,
            shutdown,
            thread,
        })
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr).map_err(|e| format!("connect: {e}"))
    }

    /// Stops the server and waits for all its threads.
    fn stop(self) -> Result<(), String> {
        self.shutdown.shutdown();
        match self.thread.join() {
            Ok(served) => served.map(|_| ()).map_err(|e| format!("serve: {e}")),
            Err(_) => Err("the server thread panicked".to_string()),
        }
    }
}

/// What one successful session measured.
struct Session {
    secs: f64,
    instrs: u64,
    cycles: u64,
}

/// One op: a whole session lifecycle over the wire, timed at the client.
fn session(
    client: &mut Client,
    pinned: Option<(u64, u64)>,
    tracer: &mut Tracer,
) -> Result<Session, String> {
    tracer.span("op", |t| {
        let start = Instant::now();
        let sid = t
            .span("session.create", |_| client.create(CONFIG))
            .map_err(|e| format!("create: {e}"))?;
        let mut lifecycle = || -> Result<(u64, u64), String> {
            let load = t
                .span("session.load", |_| client.load(sid, KERNEL))
                .map_err(|e| format!("load: {e}"))?;
            let run = t
                .span("session.run", |_| client.run(sid, load.budget))
                .map_err(|e| format!("run: {e}"))?;
            if !run.halted {
                return Err("run: the budget ran out before the halt".to_string());
            }
            let count = |key| json::u64_field(&run.payload, key).ok_or(format!("run: no {key}"));
            let counts = (count("instrs")?, count("cycles")?);
            t.span("session.verify", |_| client.verify(sid))
                .map_err(|e| format!("verify: {e}"))?;
            Ok(counts)
        };
        let counts = lifecycle();
        let closed = t.span("session.close", |_| client.close(sid));
        let secs = start.elapsed().as_secs_f64();
        let (instrs, cycles) = counts?;
        closed.map_err(|e| format!("close: {e}"))?;
        if let Some(want) = pinned {
            if (instrs, cycles) != want {
                return Err(format!(
                    "ran {instrs} instrs / {cycles} cycles, pinned {} / {}",
                    want.0, want.1
                ));
            }
        }
        Ok(Session {
            secs,
            instrs,
            cycles,
        })
    })
}

/// What one client thread measured: session times per half (untraced,
/// traced), its op counts and its spans.
struct ClientRun {
    secs: [Vec<f64>; 2],
    out: Outcome,
    spans: Vec<Span>,
}

/// One closed-loop client until `deadline`. A traced run alternates
/// untraced and traced sessions. `index` tells apart the op ids of
/// every client of the run.
fn client_loop(
    addr: SocketAddr,
    mut client: Client,
    index: usize,
    deadline: Instant,
    traced: bool,
    pinned: Option<(u64, u64)>,
    epoch: Instant,
) -> ClientRun {
    let mut run = ClientRun {
        secs: [Vec::new(), Vec::new()],
        out: Outcome::new(traced),
        spans: Vec::new(),
    };
    let mut tracer = Tracer::new(epoch);
    for n in 0u64.. {
        let half = usize::from(traced && n % 2 == 1);
        tracer.set_enabled(half == 1);
        tracer.set_op((index as u64) << 32 | n);
        match run.out.record(session(&mut client, pinned, &mut tracer)) {
            Some(s) => run.secs[half].push(s.secs),
            // The connection may be broken: start over on a fresh one.
            None => match Client::connect(addr) {
                Ok(c) => client = c,
                Err(e) => {
                    run.out.record::<()>(Err(format!("reconnect: {e}")));
                    break;
                }
            },
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    run.spans = tracer.into_spans();
    run
}

/// One in-process lifecycle, as the server's worker runs it but with no
/// wire and no threads: registry lookup, build, machine, setup, run and
/// verify (root span `inproc`).
fn inproc(
    config: &MachineConfig,
    pinned: bool,
    tracer: &mut Tracer,
) -> Result<kernels::Sample, String> {
    tracer.span("inproc", |t| {
        let workload = t
            .span("kernels.find", |_| {
                tm3270_kernels::find_workload(20, KERNEL)
            })
            .ok_or(format!("{KERNEL} is not in the registry"))?;
        let p = Prepared::build(workload.into_kernel(), config, pinned, t)?;
        kernels::run_op(config, &p, false, t)
    })
}

/// Runs the serve workload for `seconds` of measured time, split into
/// [`SETUP_REPEATS`] segments that each set up a fresh server, so set-up
/// and sessions sample the host over the whole run. Untraced, it reports
/// the end-to-end metrics. Traced, the clients get three quarters of the
/// time and in-process lifecycles the last quarter.
pub fn run(seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::new(traced);
    let config = tm3270_session::config_named(CONFIG).expect("suite config");
    let pinned = tm3270_kernels::pinned_counts(config.name, KERNEL);
    let epoch = Instant::now();
    let wire_secs = if traced { seconds * 0.75 } else { seconds };
    let slice = Duration::from_secs_f64(wire_secs / SETUP_REPEATS as f64);
    let mut setup_s = Vec::new();
    let mut counts = (0, 0);
    let mut secs: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut wire_spans = Vec::new();
    let mut rates = Vec::new();
    let mut measured_ops = 0;
    let mut quiet = Tracer::new(epoch);
    for segment in 0..SETUP_REPEATS {
        // Set-up: start the server, connect the clients, and run a few
        // warm-up sessions on each.
        let start = Instant::now();
        let server = Running::start()?;
        let mut clients = (0..CLIENTS)
            .map(|_| server.connect())
            .collect::<Result<Vec<_>, _>>()?;
        for client in &mut clients {
            for _ in 0..WARMUP_SESSIONS {
                let s = out
                    .record(session(client, pinned, &mut quiet))
                    .ok_or("a warm-up session failed")?;
                counts = (s.instrs, s.cycles);
            }
        }
        setup_s.push(start.elapsed().as_secs_f64());

        // Measured: the clients' closed loops until the slice is up.
        let start = Instant::now();
        let deadline = start + slice;
        let runs: Vec<ClientRun> = std::thread::scope(|scope| {
            let threads: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(i, client)| {
                    let (addr, index) = (server.addr, segment * CLIENTS + i);
                    scope.spawn(move || {
                        client_loop(addr, client, index, deadline, traced, pinned, epoch)
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("client thread panicked"))
                .collect()
        });
        let elapsed = start.elapsed().as_secs_f64();
        let done = secs[0].len();
        for run in runs {
            measured_ops += run.out.attempted;
            out.attempted += run.out.attempted;
            out.failed += run.out.failed;
            for (all, own) in secs.iter_mut().zip(run.secs) {
                all.extend(own);
            }
            wire_spans.push(run.spans);
        }
        rates.push((secs[0].len() - done) as f64 / elapsed);
        server.stop()?;
    }
    let wire_spans = trace::merge(wire_spans);
    let [plain, spanned] = secs;

    if traced {
        let mut tracer = Tracer::new(epoch);
        tracer.set_enabled(true);
        let mut sim = SimTotals::default();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds - wire_secs);
        for n in 0u64.. {
            tracer.set_op(n);
            if let Some(s) = out.record(inproc(&config, pinned.is_some(), &mut tracer)) {
                sim.add(&s);
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        let inproc_spans = tracer.into_spans();
        let r = &mut out.report;
        kernels::report_layers(r, &inproc_spans, &sim);
        let wire = trace::totals(&wire_spans);
        let op_ns = wire.get("op").map_or(0, |t| t.total_ns);
        for (layer, span) in SESSION_STAGES {
            let stage_ns = wire.get(span).map_or(0, |t| t.total_ns);
            r.set(layer, kernels::ratio(stage_ns, op_ns));
        }
        let mean_ns = |t: &trace::Totals| t.total_ns as f64 / t.count.max(1) as f64;
        let inproc_mean = trace::totals(&inproc_spans)
            .get("inproc")
            .map_or(0.0, mean_ns);
        let wire_mean = wire.get("op").map_or(0.0, mean_ns);
        r.set("session.wire_share", 1.0 - inproc_mean / wire_mean.max(1.0));
        r.set(
            "trace.overhead_pct",
            (median(&spanned) / median(&plain) - 1.0) * 100.0,
        );
        r.set(
            "trace.unattributed_share",
            kernels::unattributed_share(&wire_spans, "op"),
        );
        out.spans = trace::merge(vec![wire_spans, inproc_spans]);
    } else {
        let r = &mut out.report;
        let p50 = median(&plain);
        r.set("sim_mips", counts.0 as f64 / p50.max(1e-12) / 1e6);
        r.set("ops_per_s", median(&rates));
        r.set("op_p50_ms", p50 * 1e3);
        r.set("setup_s", median(&setup_s));
        r.set("peak_rss_mb", crate::report::peak_rss_mb());
        r.set("op_tail_ms", tail(&plain) * 1e3);
    }
    out.report.set("sim_instrs", counts.0 as f64);
    out.report.set("sim_cycles", counts.1 as f64);
    out.finish(measured_ops);
    Ok(out)
}

/// Per-layer share of a session's client-side latency, by request span.
const SESSION_STAGES: [(&str, &str); 5] = [
    ("session.create_share", "session.create"),
    ("session.load_share", "session.load"),
    ("session.run_share", "session.run"),
    ("session.verify_share", "session.verify"),
    ("session.close_share", "session.close"),
];
