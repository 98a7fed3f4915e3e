//! The load generator's side of the wire: one TCP connection per
//! client thread, `TCP_NODELAY` set and every request line written
//! with a single write, so no request waits on Nagle's algorithm and
//! the peer's delayed ACK (a ~40 ms stall per request otherwise).

use crate::layers::{Closed, Window};
use crate::oracle::Observed;
use crate::report::Layers;
use crate::Args;
use sc_service::protocol::Request;
use sc_service::{net, NetConfig, NetStats, QueryOutcome, QuerySpec, Service, ServiceMetrics};
use sc_setsystem::SetId;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a closed-loop request may wait for its reply before the
/// run gives up on the server.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One client connection with its own line buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Writes one request line in a single write (a second one only
    /// if the kernel took part of it).
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let mut msg = String::with_capacity(line.len() + 1);
        msg.push_str(line);
        msg.push('\n');
        let mut rest = msg.as_bytes();
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err(format!("send {line:?}: connection closed")),
                Ok(k) => rest = &rest[k..],
                Err(e) => return Err(format!("send {line:?}: {e}")),
            }
        }
        Ok(())
    }

    /// A complete line already buffered, if any.
    fn buffered_line(&mut self) -> Option<String> {
        let pos = self.buf.iter().position(|&b| b == b'\n')?;
        let line: Vec<u8> = self.buf.drain(..=pos).collect();
        Some(String::from_utf8_lossy(&line[..pos]).trim_end().to_string())
    }

    /// One read into the buffer; `false` when no bytes were ready.
    fn fill(&mut self) -> Result<bool, String> {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(k) => {
                self.buf.extend_from_slice(&chunk[..k]);
                Ok(true)
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(false),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// The next reply line on a blocking socket, waiting at most
    /// `timeout` (rounded up to the kernel's timer tick); `None` when
    /// none arrived.
    pub fn recv(&mut self, timeout: Duration) -> Result<Option<String>, String> {
        self.stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| format!("read timeout: {e}"))?;
        loop {
            if let Some(line) = self.buffered_line() {
                return Ok(Some(line));
            }
            if !self.fill()? {
                return Ok(None);
            }
        }
    }

    /// Sends `line` and waits for its reply: `(reply, round trip)`.
    pub fn request(&mut self, line: &str) -> Result<(String, Duration), String> {
        let start = Instant::now();
        self.send(line)?;
        match self.recv(REPLY_TIMEOUT)? {
            Some(reply) => Ok((reply, start.elapsed())),
            None => Err(format!("no reply to {line:?} within {REPLY_TIMEOUT:?}")),
        }
    }

    /// Sends `request` and records it with its reply.
    pub fn sample(
        &mut self,
        request: Request,
        target: usize,
        traced: bool,
    ) -> Result<Sample, String> {
        let spec = match request {
            Request::Query { spec, .. } => Some(spec),
            _ => None,
        };
        let line = request.render();
        let (reply, rtt) = self.request(&line)?;
        Ok(Sample {
            line,
            spec,
            target,
            rtt,
            reply,
            traced,
        })
    }
}

/// One request the load generator sent and what came back.
pub struct Sample {
    /// The request line as sent.
    pub line: String,
    /// The query, or `None` for a `!reload`.
    pub spec: Option<QuerySpec>,
    /// For a query, the tenant slot it addressed; for a `!reload`, the
    /// generation its reply must name.
    pub target: usize,
    pub rtt: Duration,
    pub reply: String,
    /// Telemetry was on when it was sent.
    pub traced: bool,
}

/// A query reply's fields (`ok`/`fail` lines; `err` lines are not
/// answers).
#[derive(Debug, Clone)]
pub struct Answer {
    pub ok: bool,
    pub sol: usize,
    pub covered: usize,
    pub required: usize,
    pub passes: usize,
    pub space: usize,
    /// Submission → admission inside the server.
    pub wait_us: u64,
    /// Submission → completion inside the server.
    pub us: u64,
    pub cached: bool,
    pub generation: u64,
}

impl Answer {
    pub fn parse(line: &str) -> Option<Answer> {
        let mut tokens = line.split_whitespace();
        let ok = match tokens.next()? {
            "ok" => true,
            "fail" => false,
            _ => return None,
        };
        let mut a = Answer {
            ok,
            sol: 0,
            covered: 0,
            required: 0,
            passes: 0,
            space: 0,
            wait_us: 0,
            us: 0,
            cached: false,
            generation: 0,
        };
        let mut seen = 0;
        for tok in tokens {
            let Some((k, v)) = tok.split_once('=') else {
                continue;
            };
            seen += 1;
            match k {
                "sol" => a.sol = v.parse().ok()?,
                "covered" => {
                    let (c, r) = v.split_once('/')?;
                    a.covered = c.parse().ok()?;
                    a.required = r.parse().ok()?;
                }
                "passes" => a.passes = v.parse().ok()?,
                "space" => a.space = v.parse().ok()?,
                "wait_us" => a.wait_us = v.parse().ok()?,
                "us" => a.us = v.parse().ok()?,
                "cached" => a.cached = v == "1",
                "gen" => a.generation = v.parse().ok()?,
                _ => seen -= 1,
            }
        }
        (seen == 8).then_some(a)
    }

    /// The outcome this reply reports for `spec` on `tenant`. A reply
    /// carries only its cover's size, so `cover` is the reference's.
    pub fn outcome(&self, spec: QuerySpec, tenant: &str, cover: Vec<SetId>) -> QueryOutcome {
        QueryOutcome {
            id: 0,
            spec,
            cover,
            covered: self.covered,
            required: self.required,
            logical_passes: self.passes,
            space_words: self.space,
            epochs_joined: self.passes,
            queue_wait: Duration::from_micros(self.wait_us),
            latency: Duration::from_micros(self.us),
            cached: self.cached,
            coalesced: false,
            generation: self.generation,
            tenant: Arc::from(tenant),
        }
    }

    pub fn observed(&self) -> Observed<'static> {
        Observed {
            ok: self.ok,
            sol: self.sol,
            covered: self.covered,
            required: self.required,
            passes: self.passes,
            space: self.space,
            cover: None,
        }
    }
}

/// Runs `drive` for every connection on a thread of its own and
/// concatenates what the connections return (in connection order).
fn on_threads(
    conns: Vec<Conn>,
    drive: impl Fn(usize, Conn) -> Result<Vec<Sample>, String> + Sync,
) -> Result<Vec<Sample>, String> {
    let per_conn: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                let drive = &drive;
                s.spawn(move || drive(i, c))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut all = Vec::new();
    for part in per_conn {
        all.extend(part?);
    }
    Ok(all)
}

/// Idle `ping` round trips on `conn` in µs, failing when their median
/// is anywhere near the delayed-ACK floor (~40 ms; a healthy loopback
/// round trip is well under a millisecond plus the poller's idle
/// backoff).
fn hygiene_check(conn: &mut Conn) -> Result<Vec<f64>, String> {
    let pings = (0..200)
        .map(|_| {
            let (reply, rtt) = conn.request("ping")?;
            if reply != "pong" {
                return Err(format!("ping answered {reply:?}"));
            }
            Ok(rtt.as_secs_f64() * 1e6)
        })
        .collect::<Result<Vec<f64>, String>>()?;
    let p50 = crate::report::median(&pings);
    if p50 > 5000.0 {
        return Err(format!(
            "load-generator self-check failed: idle ping p50 {p50:.0} us \
             (a delayed-ACK stall is ~40000 us)"
        ));
    }
    Ok(pings)
}

/// Binds a loopback listener on a free port and waits until it
/// accepts connections: the "listener ready" step of set-up.
pub fn listen() -> Result<(TcpListener, String), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?
        .to_string();
    net::wait_ready(&addr, Duration::from_secs(10))?;
    Ok((listener, addr))
}

/// What one closed-loop run produced.
pub struct ClosedLoop<W> {
    /// Idle `ping` round trips of the self-check, in µs.
    pub pings: Vec<f64>,
    /// What the warm-up returned.
    pub warm: W,
    /// Every connection's samples from the window, in connection order.
    pub samples: Vec<Sample>,
    pub window: Closed,
    /// The scheduler's accounting over the whole serve.
    pub metrics: ServiceMetrics,
    /// The session layer's accounting over the whole serve.
    pub net: NetStats,
}

impl<W> ClosedLoop<W> {
    /// The front door's per-layer numbers: idle ping and the session
    /// layer's accept and shed counts.
    pub fn front_door(&self, l: &mut Layers) {
        l.ping_rtt_us = crate::report::median(&self.pings);
        l.net_accepted = self.net.accepted as f64;
        l.net_shed = self.net.shed as f64;
    }
}

/// Serves `service` on `listener` (`net::serve_tcp_with`, default
/// front-door limits) and drives it from `conns` connections to
/// `addr`: the delayed-ACK self-check and then `warm` on connection 0,
/// then the measured window, in which `drive(i, conn, window)` runs
/// connection `i`'s closed loop on a thread of its own. The server is
/// told to `shutdown` whatever the clients' fate.
pub fn closed_loop<W>(
    service: &Service,
    listener: TcpListener,
    addr: &str,
    args: &Args,
    conns: usize,
    warm: impl FnOnce(&mut Conn) -> Result<W, String>,
    drive: impl Fn(usize, Conn, &Window) -> Result<Vec<Sample>, String> + Sync,
) -> Result<ClosedLoop<W>, String> {
    std::thread::scope(|s| {
        let server = s.spawn(|| net::serve_tcp_with(service, listener, NetConfig::default()));
        let driven = (|| -> Result<_, String> {
            let mut all = (0..conns)
                .map(|_| Conn::connect(addr))
                .collect::<Result<Vec<_>, _>>()?;
            let pings = hygiene_check(&mut all[0])?;
            let warm = warm(&mut all[0])?;
            let window = Window::open(args.trace, args.seconds);
            let samples = on_threads(all, |i, c| drive(i, c, &window));
            Ok((pings, warm, samples?, window.close()))
        })();
        // The server stops only on `shutdown`; a server that cannot be
        // told to stop would hold the scope's join forever.
        if let Err(e) = Conn::connect(addr).and_then(|mut c| c.send("shutdown")) {
            eprintln!("servebench: cannot stop the server: {e}");
            std::process::exit(1);
        }
        let served = server
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        let (metrics, net) = served?;
        let (pings, warm, samples, window) = driven?;
        Ok(ClosedLoop {
            pings,
            warm,
            samples,
            window,
            metrics,
            net,
        })
    })
}
