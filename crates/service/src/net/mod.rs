//! Network front-end: the line protocol over TCP (or any
//! `BufRead`/`Write` pair) and a connect-retry readiness probe.
//!
//! `sctool serve` and `sctool client` are thin wrappers over this
//! module, so examples and tests can run the exact same server the CLI
//! ships: bind a [`TcpListener`], hand it to [`serve_tcp`] (or
//! [`serve_tcp_with`] to tune the connection limit and buffer caps),
//! and probe readiness with [`wait_ready`] instead of polling
//! `/dev/tcp` from a shell loop.
//!
//! Both front-ends drive the same typed codec
//! ([`protocol::Request`](crate::protocol::Request) /
//! [`protocol::Reply`](crate::protocol::Reply)) through one dispatch
//! table: [`pump_queries`] is the blocking stdin/stdout pump (one
//! reader thread, ordered replies), while the TCP path is the
//! event-driven session layer in [`poller`] — one thread multiplexing
//! every connection through a readiness loop with hard per-session
//! buffer caps, a connection limit, and explicit `err msg=busy`
//! load-shedding instead of unbounded queue growth.

mod poller;

pub use poller::{NetConfig, NetStats};

use crate::metrics::ServiceMetrics;
use crate::protocol::{Reply, Request};
use crate::service::{QueryTicket, ReloadTicket, Service, ServiceHandle, TrySubmitError};
use crate::telemetry::{expose, Surface};
use crate::tenants::TenantRegistry;
use std::io::{BufRead, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Flushes the one-line telemetry stats snapshot to stderr — the serve
/// log channel, never the protocol socket, so a peer that vanished
/// mid-reply can't turn the flush into a broken-pipe error. A no-op
/// when telemetry is disabled, so library tests and batch runs stay
/// quiet.
pub(crate) fn log_stats(tenants: &TenantRegistry, trigger: &str) {
    if sc_telemetry::enabled() {
        eprintln!(
            "sc_service stats trigger={trigger} {}",
            expose(tenants, Surface::Stats).join(" ")
        );
    }
}

/// Blocks until a TCP connect to `addr` succeeds, retrying for up to
/// `timeout` — the programmatic replacement for shell readiness loops
/// over `/dev/tcp`. Retries back off exponentially (1 ms doubling to
/// a 64 ms ceiling), so a server that comes up fast is detected fast
/// without the probe loop burning a core against a slow one. The
/// probe connection is closed immediately; the server sees one
/// accepted connection with zero protocol lines, which the session
/// layer treats as a no-op session.
///
/// # Errors
///
/// The last connect error (with the address) once `timeout` elapses
/// without a successful connect.
pub fn wait_ready(addr: &str, timeout: Duration) -> Result<(), String> {
    let deadline = Instant::now() + timeout;
    let mut backoff = Duration::from_millis(1);
    loop {
        let err = match TcpStream::connect(addr) {
            Ok(_probe) => return Ok(()),
            Err(e) => e,
        };
        let now = Instant::now();
        if now >= deadline {
            return Err(format!(
                "{addr}: not ready after {:.1}s ({err})",
                timeout.as_secs_f64()
            ));
        }
        std::thread::sleep(backoff.min(deadline - now));
        backoff = (backoff * 2).min(Duration::from_millis(64));
    }
}

/// What dispatching one parsed request produced: either a reply that
/// can be rendered now, a ticket that resolves later, or a
/// connection/server lifecycle transition. The stdin pump and the TCP
/// event loop both consume this, so verb semantics live in exactly
/// one place ([`dispatch`]).
pub(crate) enum Action {
    /// Answer now (in request order, like every reply).
    Reply(Reply),
    /// A submitted query; its outcome arrives through the ticket.
    Ticket(QueryTicket),
    /// A requested hot swap; the new generation id arrives through
    /// the ticket.
    Swap(ReloadTicket),
    /// A requested hot swap whose instance file is still loading on a
    /// worker thread (non-blocking mode only — the event loop must not
    /// stall every connection on one tenant's disk I/O).
    LoadSwap(SwapLoad),
    /// The query was refused because the tenant's submission queue is
    /// full — render [`Reply::Busy`] and count the shed (non-blocking
    /// mode only).
    Shed,
    /// `quit`: end this connection once pending replies drain.
    Quit,
    /// `shutdown`: stop the server once inflight work drains.
    Shutdown,
}

/// A `!reload` in its load phase: a short-lived worker thread reads
/// and parses the instance file off the event loop, and only the
/// cheap [`ServiceHandle::reload`] hand-off runs inline once the load
/// lands. The issuing session stalls until then (preserving that
/// connection's dispatch order, exactly like the old blocking path);
/// every other connection keeps being served.
pub(crate) struct SwapLoad {
    handle: ServiceHandle,
    rx: std::sync::mpsc::Receiver<Result<sc_setsystem::SetSystem, String>>,
}

impl SwapLoad {
    /// Starts the loader thread. Its result arrives like a ticket's
    /// answer: delivered first, then the handle's front door is woken.
    ///
    /// # Errors
    ///
    /// The OS refused to start the loader thread.
    fn spawn(handle: ServiceHandle, path: String) -> std::io::Result<SwapLoad> {
        let (tx, rx) = handle.reply_channel();
        std::thread::Builder::new()
            .name("sc-reload-load".into())
            .spawn(move || {
                let _ = tx.send(sc_setsystem::io::load_path(&path).map(|inst| inst.system));
            })?;
        Ok(SwapLoad { handle, rx })
    }

    /// `None` while the file is still loading; once the loader is
    /// done, performs the reload hand-off and returns the swap ticket
    /// (or the load/hand-off error).
    pub(crate) fn try_finish(&self) -> Option<Result<ReloadTicket, String>> {
        let loaded = match self.rx.try_recv() {
            Ok(result) => result,
            Err(std::sync::mpsc::TryRecvError::Empty) => return None,
            Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                Err("reload loader thread died".into())
            }
        };
        Some(loaded.and_then(|system| self.handle.reload(system).map_err(|e| e.to_string())))
    }
}

/// Executes one parsed request against the connection's state:
/// `conn` is the connection's current tenant handle (`!use` retargets
/// it in place). With `blocking`, a query waits for queue room
/// ([`ServiceHandle::submit`] — the stdin pump's backpressure); without
/// it, a full queue comes back as [`Action::Shed`] for the event loop
/// to answer `err msg=busy` ([`ServiceHandle::try_submit`]).
pub(crate) fn dispatch(req: Request, conn: &mut ServiceHandle, blocking: bool) -> Action {
    match req {
        Request::Ping => Action::Reply(Reply::Pong),
        Request::Quit => Action::Quit,
        Request::Shutdown => Action::Shutdown,
        // The telemetry verbs snapshot the live registry and ledgers as
        // they arrive — a live view, even while queries pipelined
        // behind them are still scanning — and the reply is still
        // delivered in request order like every other response.
        Request::Stats => Action::Reply(Reply::Stats {
            stats: expose(conn.tenants(), Surface::Stats).join(" "),
        }),
        Request::Metrics => Action::Reply(Reply::Metrics {
            body: expose(conn.tenants(), Surface::Metrics),
        }),
        Request::Trace { id } => Action::Reply(Reply::Trace {
            id,
            events: sc_telemetry::trace(id)
                .iter()
                .map(|ev| ev.protocol_line())
                .collect(),
        }),
        Request::Use { repo } => match conn.with_tenant(&repo) {
            Some(h) => {
                *conn = h;
                Action::Reply(Reply::Use { repo })
            }
            None => Action::Reply(Reply::error(format!("unknown repository {repo:?}"))),
        },
        // `!repos` lists the served tenants — name, current
        // generation, fingerprint, quota, and the live ledger counts
        // (always on, so this answers even with telemetry disabled).
        Request::Repos => {
            let registry = conn.tenants();
            let listing = registry
                .iter()
                .map(|tenant| {
                    let generation = tenant.generation();
                    let (completed, jobs, cache_hits, coalesced, shard_grants) =
                        tenant.meta().counters().snapshot();
                    format!(
                        "repo name={} gen={} fingerprint={:016x} quota={} completed={} jobs={} cache_hits={} coalesced={} shard_grants={}",
                        tenant.name(),
                        generation.id,
                        generation.fingerprint,
                        tenant.quota(),
                        completed,
                        jobs,
                        cache_hits,
                        coalesced,
                        shard_grants,
                    )
                })
                .collect();
            Action::Reply(Reply::Repos { listing })
        }
        // The codec's two-token split only engages when the first
        // token names a served tenant; otherwise the whole argument is
        // a path (with spaces) for the connection's current tenant,
        // unchanged from single-tenant servers.
        Request::Reload { target, path } => {
            let (handle, path) = match target {
                Some(name) => match conn.with_tenant(&name) {
                    Some(h) => (h, path),
                    None => (conn.clone(), format!("{name} {path}")),
                },
                None => (conn.clone(), path),
            };
            if blocking {
                // The stdin pump blocks its one connection, same as
                // its queries do.
                match sc_setsystem::io::load_path(&path) {
                    Ok(inst) => match handle.reload(inst.system) {
                        Ok(ticket) => Action::Swap(ticket),
                        Err(e) => Action::Reply(Reply::error(e.to_string())),
                    },
                    Err(msg) => Action::Reply(Reply::error(msg)),
                }
            } else {
                // The event loop must not stall every connection on
                // one file load: read the instance off-thread and
                // hand off to the scheduler when it lands.
                match SwapLoad::spawn(handle, path) {
                    Ok(load) => Action::LoadSwap(load),
                    Err(e) => Action::Reply(Reply::error(format!("reload loader: {e}"))),
                }
            }
        }
        Request::Query { repo, spec } => {
            let route = match repo.as_deref() {
                Some(name) => match conn.with_tenant(name) {
                    Some(h) => h,
                    None => {
                        return Action::Reply(Reply::error(format!("unknown repository {name:?}")))
                    }
                },
                None => conn.clone(),
            };
            if blocking {
                match route.submit(spec) {
                    Ok(ticket) => Action::Ticket(ticket),
                    Err(e) => Action::Reply(Reply::error(e.to_string())),
                }
            } else {
                match route.try_submit(spec) {
                    Ok(ticket) => Action::Ticket(ticket),
                    Err(TrySubmitError::Busy) => Action::Shed,
                    Err(e) => Action::Reply(Reply::error(e.to_string())),
                }
            }
        }
    }
}

/// Request/response pump shared by the stdin front-end and in-process
/// tests: a reader thread parses lines through the typed codec
/// ([`Request::parse`]) and dispatches them as they arrive while the
/// calling thread answers in submission order — so responses stream
/// back as queries complete, and every pending line is already riding
/// shared scan epochs. All responses — `pong` and `err` included — are
/// emitted in request order, so a `ping` pipelined behind a slow query
/// answers after that query completes; it probes the connection's
/// round-trip, not the scheduler's idle latency.
///
/// Tenant addressing: the connection starts on the handle's tenant
/// (the server default); `!use <name>` retargets the rest of the
/// connection, a `repo=<name>` token on a query line retargets that
/// query only, `!repos` lists every served tenant, and
/// `!reload [name] <path>` hot-swaps a repository (see
/// [`Request::Reload`]). Queries block for queue room (the stdin
/// pump's backpressure is the pipe itself); the TCP path sheds
/// instead — see [`serve_tcp_with`]. Returns `Ok(true)` if the peer
/// asked for server shutdown.
///
/// # Errors
///
/// Propagates I/O errors from `input` and `output` (a client that went
/// away mid-reply).
pub fn pump_queries<R, W>(input: R, output: &mut W, handle: &ServiceHandle) -> std::io::Result<bool>
where
    R: BufRead + Send,
    W: Write,
{
    enum Pumped {
        Reply(Reply),
        Ticket(QueryTicket),
        Swap(ReloadTicket),
    }
    let (tx, rx) = std::sync::mpsc::channel::<Pumped>();
    std::thread::scope(|s| {
        let reader = s.spawn(move || -> std::io::Result<bool> {
            // The connection's current tenant: starts on the server
            // default, retargeted by `!use` (a `repo=` query token
            // overrides per query without moving this).
            let mut conn_handle = handle.clone();
            for line in input.lines() {
                let line = line?;
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                let action = match Request::parse(line) {
                    Ok(req) => dispatch(req, &mut conn_handle, true),
                    Err(msg) => Action::Reply(Reply::error(msg)),
                };
                let msg = match action {
                    Action::Reply(reply) => Pumped::Reply(reply),
                    Action::Ticket(ticket) => Pumped::Ticket(ticket),
                    Action::Swap(ticket) => Pumped::Swap(ticket),
                    Action::LoadSwap(_) => unreachable!("blocking dispatch loads inline"),
                    Action::Shed => unreachable!("blocking dispatch never sheds"),
                    Action::Quit => break,
                    Action::Shutdown => return Ok(true),
                };
                let _ = tx.send(msg);
            }
            Ok(false)
        });
        // The sender side lives in the reader thread (`tx` moved in),
        // so this loop ends exactly when the reader is done.
        for msg in rx {
            match msg {
                Pumped::Reply(reply) => writeln!(output, "{}", reply.render())?,
                Pumped::Ticket(ticket) => {
                    let reply = match ticket.wait() {
                        Ok(outcome) => Reply::Outcome(outcome),
                        Err(e) => Reply::error(e.to_string()),
                    };
                    writeln!(output, "{}", reply.render())?;
                }
                Pumped::Swap(ticket) => {
                    let reply = match ticket.wait() {
                        Ok(generation) => Reply::Reload { generation },
                        Err(e) => Reply::error(e.to_string()),
                    };
                    writeln!(output, "{}", reply.render())?;
                    // A hot swap is a natural stats window boundary:
                    // flush the snapshot to the serve log so the
                    // pre-swap numbers are on record before the new
                    // generation's traffic blends in.
                    log_stats(handle.tenants(), "reload");
                }
            }
            output.flush()?;
        }
        reader.join().expect("reader thread panicked")
    })
}

/// Serves the line protocol on an already-bound listener with the
/// default [`NetConfig`]: every accepted connection speaks the
/// protocol through one event-driven session layer (see [`poller`]),
/// all sharing one scan scheduler; the `shutdown` command stops the
/// listener once inflight work drains.
///
/// # Errors
///
/// An accept-loop failure message; the metrics of the work served up
/// to that point are lost with the scheduler in that case.
pub fn serve_tcp(service: &Service, listener: TcpListener) -> Result<ServiceMetrics, String> {
    serve_tcp_with(service, listener, NetConfig::default()).map(|(metrics, _)| metrics)
}

/// [`serve_tcp`] with explicit front-door limits, returning the
/// session layer's own accounting beside the scheduler metrics: how
/// many connections were accepted, how much load was shed
/// (`err msg=busy` — connections over [`NetConfig::max_conns`] plus
/// queries refused by a full submission queue), and how many request
/// lines overflowed the per-session read buffer
/// (`err msg=line_too_long`).
///
/// # Errors
///
/// An accept-loop failure message; the metrics of the work served up
/// to that point are lost with the scheduler in that case.
pub fn serve_tcp_with(
    service: &Service,
    listener: TcpListener,
    cfg: NetConfig,
) -> Result<(ServiceMetrics, NetStats), String> {
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("listener: {e}"))?;
    let (res, metrics) = service.serve(|handle| poller::event_loop(&listener, handle, &cfg));
    let stats = res?;
    Ok((metrics, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceBuilder;
    use crate::tenants::LedgerEvent;
    use sc_setsystem::gen;
    use std::io::{BufRead, BufReader, Write};

    fn single(seed: u64) -> Service {
        ServiceBuilder::new()
            .tenant("default", gen::planted(64, 128, 4, seed).system)
            .build()
    }

    #[test]
    fn pump_speaks_the_codec_over_in_memory_pipes() {
        let service = single(1);
        let input = b"ping\n# comment\n\nfrobnicate\ngreedy\nquit\nignored-after-quit\n" as &[u8];
        let mut output = Vec::new();
        let (shutdown, metrics) = service.serve(|handle| {
            pump_queries(std::io::BufReader::new(input), &mut output, &handle).expect("pump")
        });
        assert!(!shutdown, "quit ends the connection, not the server");
        let lines: Vec<String> = output.lines().map(|l| l.unwrap()).collect();
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert_eq!(lines[0], "pong");
        assert!(
            lines[1].starts_with("err msg=unknown query kind"),
            "{lines:?}"
        );
        assert!(lines[2].starts_with("ok "), "{lines:?}");
        assert_eq!(metrics.queries_completed, 1);
    }

    #[test]
    fn tcp_round_trip_with_wait_ready_and_shutdown() {
        let service = single(1);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        std::thread::scope(|s| {
            let server = s.spawn(|| serve_tcp(&service, listener).expect("serve"));
            wait_ready(&addr, Duration::from_secs(10)).expect("ready");
            let conn = TcpStream::connect(&addr).expect("connect");
            let mut reader = BufReader::new(conn.try_clone().expect("clone"));
            let mut writer = &conn;
            writeln!(writer, "ping").unwrap();
            writeln!(writer, "greedy").unwrap();
            writeln!(writer, "shutdown").unwrap();
            writer.flush().unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim(), "pong");
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("ok "), "greedy should solve: {line:?}");
            let metrics = server.join().expect("server thread");
            assert_eq!(metrics.queries_completed, 1);
        });
    }

    #[test]
    fn reload_line_hot_swaps_and_tags_responses_with_the_generation() {
        let inst = gen::planted(64, 128, 4, 1);
        let next = gen::planted(64, 128, 4, 2);
        let path = std::env::temp_dir().join(format!("sc-reload-{}.sc", std::process::id()));
        std::fs::write(&path, sc_setsystem::io::system_to_string(&next.system)).expect("write");

        let service = ServiceBuilder::new().tenant("default", inst.system).build();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        std::thread::scope(|s| {
            let server = s.spawn(|| serve_tcp(&service, listener).expect("serve"));
            wait_ready(&addr, Duration::from_secs(10)).expect("ready");
            let conn = TcpStream::connect(&addr).expect("connect");
            let mut reader = BufReader::new(conn.try_clone().expect("clone"));
            let mut writer = &conn;
            writeln!(writer, "greedy").unwrap();
            writeln!(writer, "!reload {}", path.display()).unwrap();
            writeln!(writer, "greedy").unwrap();
            writeln!(writer, "shutdown").unwrap();
            writer.flush().unwrap();
            let mut lines = Vec::new();
            for _ in 0..3 {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                lines.push(line.trim().to_string());
            }
            assert!(lines[0].contains("gen=1"), "pre-swap: {:?}", lines[0]);
            assert_eq!(lines[1], "ok reload gen=2");
            assert!(lines[2].contains("gen=2"), "post-swap: {:?}", lines[2]);
            let metrics = server.join().expect("server thread");
            assert_eq!(metrics.reloads, 1);
            assert_eq!(metrics.queries_completed, 2);
        });
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn telemetry_verbs_answer_over_tcp() {
        let _g = sc_telemetry::test_hold();
        sc_telemetry::set_enabled(true);
        sc_telemetry::reset();
        let service = single(1);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        std::thread::scope(|s| {
            let server = s.spawn(|| serve_tcp(&service, listener).expect("serve"));
            wait_ready(&addr, Duration::from_secs(10)).expect("ready");
            let conn = TcpStream::connect(&addr).expect("connect");
            let mut reader = BufReader::new(conn.try_clone().expect("clone"));
            let mut writer = &conn;
            let mut next = {
                let reader = &mut reader;
                move || {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    line.trim().to_string()
                }
            };
            // Run a query to completion first: its reply is sent only
            // after its Retired event hit the journal, so the verbs
            // below observe a full lifecycle. (Verbs snapshot at
            // arrival, so pipelining them behind the query would race
            // its retirement.)
            writeln!(writer, "greedy").unwrap();
            writer.flush().unwrap();
            assert!(next().starts_with("ok "), "query answer first");
            writeln!(writer, "!stats").unwrap();
            writeln!(writer, "!metrics").unwrap();
            writeln!(writer, "!trace 0").unwrap();
            writeln!(writer, "!trace bogus").unwrap();
            writeln!(writer, "shutdown").unwrap();
            writer.flush().unwrap();

            let stats = next();
            assert!(stats.starts_with("ok stats enabled=1 "), "{stats:?}");
            // The ledger is this service's own, so the answered query
            // is counted exactly.
            let ledger = service.tenants().default_tenant().meta().counters();
            for (event, name) in [
                (LedgerEvent::Submitted, "sc_queries_submitted_total"),
                (LedgerEvent::Completed, "sc_queries_completed_total"),
            ] {
                assert_eq!(ledger.get(event), 1);
                let field = format!("{name}=1");
                assert!(stats.split(' ').any(|f| f == field), "{stats:?}");
            }

            let header = next();
            let n: usize = header
                .strip_prefix("ok metrics n=")
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("bad metrics header {header:?}"));
            assert!(n > 0);
            let body: Vec<String> = (0..n).map(|_| next()).collect();
            assert!(body.iter().any(|l| l.starts_with("sc_telemetry_enabled 1")));
            assert!(body.contains(&r#"sc_queries_completed_total{tenant="default"} 1"#.into()));
            for l in &body {
                let mut it = l.split(' ');
                assert!(it.next().is_some_and(|f| !f.is_empty()), "{l:?}");
                assert!(it.next().is_some_and(|v| v.parse::<u64>().is_ok()), "{l:?}");
                assert!(it.next().is_none(), "extra fields: {l:?}");
            }

            let trace = next();
            let events: usize = trace
                .strip_prefix("ok trace id=0 events=")
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("bad trace header {trace:?}"));
            assert!(events >= 2, "query 0 was submitted and retired: {trace:?}");
            let timeline: Vec<String> = (0..events).map(|_| next()).collect();
            // Concurrent tests in this binary also serve a query id 0
            // while the gate is on, so assert membership rather than
            // position: this query's full lifecycle is in the journal.
            assert!(
                timeline.iter().any(|l| l.contains("event=submitted")),
                "{timeline:?}"
            );
            assert!(
                timeline.iter().any(|l| l.contains("event=retired")),
                "{timeline:?}"
            );

            assert_eq!(next(), "err msg=!trace: bad query id \"bogus\"");
            server.join().expect("server thread");
        });
        sc_telemetry::set_enabled(false);
    }

    #[test]
    fn tenant_addressing_verbs_route_queries_over_tcp() {
        let alpha = gen::planted(64, 128, 4, 1);
        let beta = gen::planted(64, 128, 4, 2);
        let service = ServiceBuilder::new()
            .tenant("alpha", alpha.system)
            .tenant("beta", beta.system)
            .build();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        std::thread::scope(|s| {
            let server = s.spawn(|| serve_tcp(&service, listener).expect("serve"));
            wait_ready(&addr, Duration::from_secs(10)).expect("ready");
            let conn = TcpStream::connect(&addr).expect("connect");
            let mut reader = BufReader::new(conn.try_clone().expect("clone"));
            let mut writer = &conn;
            let mut next = {
                let reader = &mut reader;
                move || {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    line.trim().to_string()
                }
            };
            writeln!(writer, "greedy").unwrap(); // connection default = alpha
            writeln!(writer, "greedy repo=beta").unwrap(); // per-query override
            writeln!(writer, "!use beta").unwrap(); // connection retarget
            writeln!(writer, "greedy").unwrap();
            writeln!(writer, "greedy repo=alpha").unwrap();
            writer.flush().unwrap();

            for (expect, why) in [
                ("repo=alpha", "first tenant is the connection default"),
                ("repo=beta", "repo= overrides per query"),
            ] {
                let line = next();
                assert!(line.starts_with("ok "), "{why}: {line:?}");
                assert!(line.ends_with(expect), "{why}: {line:?}");
            }
            assert_eq!(next(), "ok use repo=beta");
            for (expect, why) in [
                ("repo=beta", "!use retargeted the connection"),
                ("repo=alpha", "repo= overrides the !use default too"),
            ] {
                let line = next();
                assert!(line.starts_with("ok "), "{why}: {line:?}");
                assert!(line.ends_with(expect), "{why}: {line:?}");
            }
            // All four query replies are in hand — their retirements
            // have landed — so the `!repos` counter snapshot below is
            // deterministic.
            writeln!(writer, "!repos").unwrap();
            writeln!(writer, "!use nowhere").unwrap();
            writeln!(writer, "shutdown").unwrap();
            writer.flush().unwrap();
            assert_eq!(next(), "ok repos n=2");
            let listing: Vec<String> = (0..2).map(|_| next()).collect();
            assert!(
                listing[0].starts_with("repo name=alpha gen=1 "),
                "{listing:?}"
            );
            assert!(
                listing[1].starts_with("repo name=beta gen=1 "),
                "{listing:?}"
            );
            // Two queries landed on each tenant; the counters saw them.
            for l in &listing {
                assert!(l.contains("completed=2"), "{l:?}");
                assert!(l.contains("quota=64"), "{l:?}");
            }
            assert_eq!(next(), "err msg=unknown repository \"nowhere\"");
            let metrics = server.join().expect("server thread");
            assert_eq!(metrics.queries_completed, 4);
        });
    }

    #[test]
    fn connection_limit_sheds_with_busy_and_serves_the_rest() {
        let service = single(1);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        let cfg = NetConfig {
            max_conns: 1,
            ..NetConfig::default()
        };
        std::thread::scope(|s| {
            let server = s.spawn(|| serve_tcp_with(&service, listener, cfg).expect("serve"));
            // First connection occupies the only session slot; the
            // pong confirms it is registered before the second
            // connection races it.
            let held = TcpStream::connect(&addr).expect("connect");
            let mut held_reader = BufReader::new(held.try_clone().expect("clone"));
            let mut held_writer = &held;
            writeln!(held_writer, "ping").unwrap();
            held_writer.flush().unwrap();
            let mut line = String::new();
            held_reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim(), "pong");
            // Second connection is over the limit: one busy line, then
            // the server hangs up.
            let shed = TcpStream::connect(&addr).expect("connect");
            let mut shed_reader = BufReader::new(shed);
            line.clear();
            shed_reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim(), "err msg=busy");
            line.clear();
            assert_eq!(
                shed_reader.read_line(&mut line).unwrap(),
                0,
                "EOF after shed"
            );
            // The held session is unaffected and still serves queries.
            writeln!(held_writer, "greedy").unwrap();
            writeln!(held_writer, "shutdown").unwrap();
            held_writer.flush().unwrap();
            line.clear();
            held_reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("ok "), "{line:?}");
            let (metrics, stats) = server.join().expect("server thread");
            assert_eq!(metrics.queries_completed, 1);
            assert_eq!(stats.accepted, 1);
            assert_eq!(stats.shed, 1);
            assert_eq!(stats.buffer_overflows, 0);
        });
    }

    #[test]
    fn oversized_line_is_rejected_without_killing_the_session() {
        let service = single(1);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        let cfg = NetConfig {
            read_buf_cap: 256,
            ..NetConfig::default()
        };
        std::thread::scope(|s| {
            let server = s.spawn(|| serve_tcp_with(&service, listener, cfg).expect("serve"));
            wait_ready(&addr, Duration::from_secs(10)).expect("ready");
            let conn = TcpStream::connect(&addr).expect("connect");
            let mut reader = BufReader::new(conn.try_clone().expect("clone"));
            let mut writer = &conn;
            // One 4 KiB line with no newline until the end: far over
            // the 256-byte cap, so the session must answer
            // `line_too_long` and discard the rest — not buffer it.
            let long = "x".repeat(4096);
            writeln!(writer, "{long}").unwrap();
            writeln!(writer, "greedy").unwrap();
            writeln!(writer, "shutdown").unwrap();
            writer.flush().unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim(), "err msg=line_too_long");
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("ok "), "session survived: {line:?}");
            let (metrics, stats) = server.join().expect("server thread");
            assert_eq!(metrics.queries_completed, 1);
            assert_eq!(stats.buffer_overflows, 1);
            assert_eq!(stats.shed, 0);
        });
    }

    #[test]
    fn pipelined_burst_larger_than_the_read_buffer_drains() {
        // Regression (REVIEW): a one-shot pipeline of small lines
        // bigger than `read_buf_cap` used to wedge the session — the
        // old loop gated the whole service round (parsing included) on
        // the buffer being under the cap, while parsing is the only
        // thing that shrinks the buffer. The cap must gate only the
        // socket read.
        let service = single(1);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        let cfg = NetConfig {
            read_buf_cap: 256,
            ..NetConfig::default()
        };
        std::thread::scope(|s| {
            let server = s.spawn(|| serve_tcp_with(&service, listener, cfg).expect("serve"));
            wait_ready(&addr, Duration::from_secs(10)).expect("ready");
            let conn = TcpStream::connect(&addr).expect("connect");
            let mut reader = BufReader::new(conn.try_clone().expect("clone"));
            let mut writer = &conn;
            // 100 pings ≈ 500 buffered bytes, well over the 256 cap,
            // in a single write.
            let mut burst = "ping\n".repeat(100);
            burst.push_str("shutdown\n");
            writer.write_all(burst.as_bytes()).unwrap();
            writer.flush().unwrap();
            for i in 0..100 {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                assert_eq!(line.trim(), "pong", "reply {i}");
            }
            let (_, stats) = server.join().expect("server thread");
            assert_eq!(stats.shed, 0);
            assert_eq!(stats.buffer_overflows, 0);
        });
    }

    #[test]
    fn oversized_fragment_behind_a_complete_line_still_drains() {
        // Regression (REVIEW): a parseable line followed by an
        // over-cap fragment used to wedge — the buffer sat at the cap,
        // the whole-round gate stopped parsing, and the overflow check
        // (which lives in the parse path) never ran.
        let service = single(1);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        let cfg = NetConfig {
            read_buf_cap: 256,
            ..NetConfig::default()
        };
        std::thread::scope(|s| {
            let server = s.spawn(|| serve_tcp_with(&service, listener, cfg).expect("serve"));
            wait_ready(&addr, Duration::from_secs(10)).expect("ready");
            let conn = TcpStream::connect(&addr).expect("connect");
            let mut reader = BufReader::new(conn.try_clone().expect("clone"));
            let mut writer = &conn;
            // One complete line, then 300 bytes of an unterminated
            // line — past the 256-byte cap.
            let mut part = String::from("ping\n");
            part.push_str(&"x".repeat(300));
            writer.write_all(part.as_bytes()).unwrap();
            writer.flush().unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim(), "pong");
            // The oversized line is rejected (as `line_too_long`, or
            // as an unknown query if the kernel delivered its newline
            // into the same parse round) without killing the session.
            writeln!(writer, "\ngreedy\nshutdown").unwrap();
            writer.flush().unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("err msg="), "{line:?}");
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("ok "), "session survived: {line:?}");
            let (metrics, stats) = server.join().expect("server thread");
            assert_eq!(metrics.queries_completed, 1);
            assert_eq!(stats.shed, 0);
        });
    }

    #[test]
    fn reload_with_a_missing_file_replies_err_and_the_session_survives() {
        // The off-event-loop reload path: the loader thread fails,
        // the session reports it in request order, and parsing
        // resumes for the lines pipelined behind the reload.
        let service = single(1);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        std::thread::scope(|s| {
            let server = s.spawn(|| serve_tcp(&service, listener).expect("serve"));
            wait_ready(&addr, Duration::from_secs(10)).expect("ready");
            let conn = TcpStream::connect(&addr).expect("connect");
            let mut reader = BufReader::new(conn.try_clone().expect("clone"));
            let mut writer = &conn;
            writeln!(writer, "!reload /no/such/instance.sc\nping\nshutdown").unwrap();
            writer.flush().unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("err msg=/no/such/instance.sc"), "{line:?}");
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim(), "pong");
            let metrics = server.join().expect("server thread");
            assert_eq!(metrics.reloads, 0);
        });
    }

    #[test]
    fn a_reload_loader_wakes_the_front_door_after_its_result_lands() {
        let path = std::env::temp_dir().join(format!("sc-swapload-{}.sc", std::process::id()));
        let next = gen::planted(64, 128, 4, 2).system;
        std::fs::write(&path, sc_setsystem::io::system_to_string(&next)).expect("write");
        let service = single(1);
        let (wake_tx, wake) = std::sync::mpsc::sync_channel(1);
        let woken = || {
            wake.recv_timeout(Duration::from_secs(10))
                .expect("the delivery wakes the front door");
        };
        service.serve(|handle| {
            let handle = handle.with_waker(wake_tx);
            // A failed load wakes too: its error is the reply.
            let load = SwapLoad::spawn(handle.clone(), "/no/such/instance.sc".into())
                .expect("spawn loader");
            woken();
            assert!(load.try_finish().expect("result before wake").is_err());
            let load = SwapLoad::spawn(handle, path.display().to_string()).expect("spawn loader");
            woken();
            let ticket = load
                .try_finish()
                .expect("result before wake")
                .expect("hand-off");
            woken();
            assert_eq!(ticket.try_wait().expect("ack before wake"), Ok(2));
        });
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wait_ready_times_out_with_the_address_in_the_error() {
        // Port 1 is essentially never listening on a test host.
        let err = wait_ready("127.0.0.1:1", Duration::from_millis(120)).unwrap_err();
        assert!(err.contains("127.0.0.1:1"), "{err}");
        assert!(err.contains("not ready"), "{err}");
    }
}
