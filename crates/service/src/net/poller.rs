//! The event-driven session layer behind [`serve_tcp`]: one thread
//! multiplexing every connection through a readiness loop.
//!
//! [`serve_tcp`]: super::serve_tcp
//!
//! The crate forbids `unsafe`, so this is a dependency-free readiness
//! shim rather than a raw `epoll` binding: the listener and every
//! session socket run in non-blocking mode, each loop iteration
//! level-triggers over the session registry (accept burst, then per
//! session: flush → read → parse/dispatch → resolve tickets → flush),
//! and an iteration that makes no progress waits on the loop's wake
//! channel instead of spinning. The scheduler signals that channel
//! whenever it answers a ticket this loop holds (and a `!reload`
//! loader when its file is parsed), so a reply is flushed as soon as
//! it exists; the wait's timeout, a small doubling backoff, only
//! bounds how long new socket readiness (an accept, a request line, a
//! drained send buffer) can go unnoticed. The semantics match an
//! `epoll` loop — bounded buffers, fair service, no thread per
//! connection — with the syscall pattern of a poll loop, which the
//! E24 soak prices at the scales this repository serves.
//!
//! What the layer guarantees per session:
//!
//! * **Ordered replies.** Every request appends one entry to the
//!   session's pending-reply queue; the writer drains it strictly
//!   front-first, blocking on an unresolved query ticket — so a
//!   `ping` pipelined behind a slow query answers after it, exactly
//!   like the stdin pump.
//! * **Hard buffer caps.** A request line longer than
//!   [`NetConfig::read_buf_cap`] is answered with the framed
//!   `err msg=line_too_long` and the rest of the line is *discarded
//!   as it streams in* — the server's memory never holds more than
//!   the cap (plus one read chunk) per session, no matter what the
//!   peer sends. The caps gate only the socket read: buffered lines
//!   keep parsing and draining past them, so a pipelined backlog
//!   bigger than the cap empties instead of wedging the session. The
//!   write buffer is bounded by the pending-reply cap plus a soft
//!   flush threshold; a peer that stops reading stops being served.
//! * **Fair queueing.** Each session parses at most a fixed budget of
//!   lines per loop iteration, so one firehose connection cannot
//!   starve its neighbours' admission into the shared scheduler.
//! * **Explicit shedding.** Connections over [`NetConfig::max_conns`]
//!   are answered `err msg=busy` and closed; a query that finds its
//!   tenant's bounded submission queue full is answered
//!   `err msg=busy` in-line ([`ServiceHandle::try_submit`]) instead
//!   of blocking the event loop on one tenant's backpressure. Both
//!   count into [`NetStats::shed`] and the `sc_net_shed_total`
//!   counter.
//! * **No head-of-line blocking on admin I/O.** A `!reload` reads and
//!   parses its instance file on a short-lived worker thread; only
//!   the issuing session stalls until the hand-off (keeping its own
//!   dispatch order across the swap), while every other connection
//!   keeps being served.

use super::{dispatch, log_stats, Action, SwapLoad};
use crate::protocol::{Reply, Request, BUSY_MSG, LINE_TOO_LONG_MSG};
use crate::service::{QueryTicket, ReloadTicket, ServiceHandle};
use crate::telemetry::tel;
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Front-door limits of the event-driven session layer
/// ([`serve_tcp_with`](super::serve_tcp_with)).
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Connections served concurrently; an accept beyond this is
    /// answered `err msg=busy` and closed (counted in
    /// [`NetStats::shed`]).
    pub max_conns: usize,
    /// Hard cap on one session's buffered request bytes: a single
    /// line longer than this is answered `err msg=line_too_long` and
    /// discarded as it streams in (counted in
    /// [`NetStats::buffer_overflows`]).
    pub read_buf_cap: usize,
    /// Replies one session may have queued (unresolved tickets
    /// included) before the layer stops reading from its socket — the
    /// `sctool serve --shed` knob. This is per-session backpressure,
    /// not disconnection: the peer's pipelining stalls in its TCP
    /// send window until replies drain. Query-level shedding
    /// (`err msg=busy`) comes from the tenant's bounded submission
    /// queue, not from this cap.
    pub pending_cap: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            max_conns: 1024,
            read_buf_cap: 64 * 1024,
            pending_cap: 256,
        }
    }
}

/// The session layer's own accounting, returned beside
/// [`ServiceMetrics`](crate::ServiceMetrics) by
/// [`serve_tcp_with`](super::serve_tcp_with) and mirrored onto the
/// live telemetry surface (`sc_net_accepted_total`,
/// `sc_net_shed_total`, `sc_net_buffer_overflows_total`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted into sessions (readiness probes with zero
    /// protocol lines included).
    pub accepted: u64,
    /// Load shed with `err msg=busy`: connections refused over
    /// [`NetConfig::max_conns`] plus queries refused by a full
    /// submission queue.
    pub shed: u64,
    /// Request lines discarded for exceeding
    /// [`NetConfig::read_buf_cap`] (each answered
    /// `err msg=line_too_long`).
    pub buffer_overflows: u64,
}

/// Lines one session may parse per loop iteration — the fair-queueing
/// budget keeping a firehose peer from starving its neighbours.
const LINE_BUDGET: usize = 32;

/// Bytes read from one socket per loop iteration.
const READ_CHUNK: usize = 4096;

/// Once a session's write buffer holds this much unflushed data, stop
/// rendering further replies into it until the peer drains some.
const WRITE_SOFT_CAP: usize = 64 * 1024;

/// Idle backoff bounds: a no-progress iteration waits for a wake at
/// most `IDLE_MIN` doubling to `IDLE_MAX`; any progress resets to the
/// minimum.
const IDLE_MIN: Duration = Duration::from_micros(50);
const IDLE_MAX: Duration = Duration::from_millis(2);

/// How long a shutdown waits for peers to drain their pending replies
/// before hanging up on them.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// One reply owed to a session, in request order.
enum Pending {
    /// Rendered and ready to write.
    Ready(String),
    /// A query still in flight.
    Ticket(QueryTicket),
    /// A `!reload` whose instance file is still loading on its worker
    /// thread (placeholder filled in by `advance_loading`).
    Loading,
    /// A hot swap still draining.
    Swap(ReloadTicket),
}

/// One live connection: its socket, buffers, and tenant cursor.
struct Session {
    conn: TcpStream,
    /// The connection's current tenant (retargeted in place by
    /// `!use`).
    handle: ServiceHandle,
    /// Bytes received but not yet parsed into lines.
    read_buf: Vec<u8>,
    /// Inside an oversized line: drop bytes until its newline.
    discarding: bool,
    /// Rendered replies not yet accepted by the socket.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Replies owed, strictly in request order.
    pending: VecDeque<Pending>,
    /// A `!reload` still loading its instance file off-thread: while
    /// set, this session parses no further lines (preserving its
    /// dispatch order across the swap) — other sessions are unaffected.
    loading: Option<SwapLoad>,
    /// Finish pending replies, flush, then close (EOF, `quit`, or
    /// server shutdown).
    closing: bool,
    /// The peer is unreachable (I/O error); drop everything now.
    gone: bool,
}

impl Session {
    fn new(conn: TcpStream, handle: ServiceHandle) -> Self {
        // Replies are small and often pipelined: with Nagle on, a reply
        // written while the previous one is unacknowledged waits for
        // the peer's next segment. Best effort, like `set_nonblocking`
        // — a socket that refuses still serves correctly.
        let _ = conn.set_nodelay(true);
        Session {
            conn,
            handle,
            read_buf: Vec::new(),
            discarding: false,
            write_buf: Vec::new(),
            write_pos: 0,
            pending: VecDeque::new(),
            loading: None,
            closing: false,
            gone: false,
        }
    }

    /// Stop reading and parsing; pending replies still drain.
    fn begin_close(&mut self) {
        self.closing = true;
        self.read_buf.clear();
        self.discarding = false;
    }

    /// The session can be dropped: the peer vanished, or everything
    /// owed has been written.
    fn done(&self) -> bool {
        self.gone
            || (self.closing && self.pending.is_empty() && self.write_pos == self.write_buf.len())
    }

    /// One level-triggered service round; returns whether anything
    /// moved. The buffer caps gate only the socket *read*: parsing,
    /// resolution, and flushing always run, so a backlog already
    /// buffered past the caps keeps draining (a gate on the whole
    /// round would livelock — `parse_lines` consumes at most
    /// `LINE_BUDGET` lines per round while one read can overshoot the
    /// cap by a chunk, so a pipelining peer could wedge the session
    /// with the buffer stuck at the cap).
    fn tick(&mut self, cfg: &NetConfig, stats: &mut NetStats, shutdown: &mut bool) -> bool {
        let mut progress = self.flush();
        if !self.gone {
            if self.pending.len() < cfg.pending_cap && self.read_buf.len() < cfg.read_buf_cap {
                progress |= self.fill();
            }
            if !self.gone {
                progress |= self.parse_lines(cfg, stats, shutdown);
                progress |= self.advance_loading();
                progress |= self.resolve();
                progress |= self.flush();
            }
        }
        progress
    }

    /// Drains the write buffer into the socket as far as readiness
    /// allows.
    fn flush(&mut self) -> bool {
        let mut progress = false;
        while self.write_pos < self.write_buf.len() {
            match self.conn.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => {
                    self.gone = true;
                    break;
                }
                Ok(n) => {
                    self.write_pos += n;
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.gone = true;
                    break;
                }
            }
        }
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        } else if self.write_pos > READ_CHUNK {
            self.write_buf.drain(..self.write_pos);
            self.write_pos = 0;
        }
        progress
    }

    /// Reads one chunk from the socket — but only while the session
    /// has room: a full pending queue or a full read buffer stops the
    /// reads, and TCP backpressure stalls the peer instead of this
    /// process growing.
    fn fill(&mut self) -> bool {
        if self.closing {
            return false;
        }
        let mut chunk = [0u8; READ_CHUNK];
        match self.conn.read(&mut chunk) {
            // EOF: the peer is done sending; drain what is owed, then
            // close.
            Ok(0) => {
                self.begin_close();
                true
            }
            Ok(n) => {
                let mut bytes = &chunk[..n];
                if self.discarding {
                    // Still inside an oversized line: drop until its
                    // terminating newline streams past.
                    match bytes.iter().position(|&b| b == b'\n') {
                        Some(p) => {
                            self.discarding = false;
                            bytes = &bytes[p + 1..];
                        }
                        None => bytes = &[],
                    }
                }
                self.read_buf.extend_from_slice(bytes);
                true
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => false,
            Err(e) if e.kind() == ErrorKind::Interrupted => false,
            Err(_) => {
                self.gone = true;
                true
            }
        }
    }

    /// Parses and dispatches buffered lines, up to the fairness
    /// budget.
    fn parse_lines(&mut self, cfg: &NetConfig, stats: &mut NetStats, shutdown: &mut bool) -> bool {
        if self.closing || self.loading.is_some() {
            return false;
        }
        // A buffered fragment with no newline that already exceeds the
        // cap can never become a legal line: answer the framed
        // overflow error now and discard the rest as it streams in.
        if !self.read_buf.contains(&b'\n') {
            if self.read_buf.len() >= cfg.read_buf_cap {
                self.read_buf.clear();
                self.discarding = true;
                stats.buffer_overflows += 1;
                tel().net_buffer_overflows.incr();
                self.pending
                    .push_back(Pending::Ready(Reply::error(LINE_TOO_LONG_MSG).render()));
                return true;
            }
            return false;
        }
        let mut progress = false;
        let mut consumed = 0;
        let mut lines = 0;
        while lines < LINE_BUDGET && self.pending.len() < cfg.pending_cap {
            let Some(nl) = self.read_buf[consumed..].iter().position(|&b| b == b'\n') else {
                break;
            };
            let text =
                String::from_utf8_lossy(&self.read_buf[consumed..consumed + nl]).into_owned();
            consumed += nl + 1;
            let line = text.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            lines += 1;
            progress = true;
            let action = match Request::parse(line) {
                Ok(req) => dispatch(req, &mut self.handle, false),
                Err(msg) => Action::Reply(Reply::error(msg)),
            };
            match action {
                Action::Reply(reply) => {
                    self.pending.push_back(Pending::Ready(reply.render()));
                }
                Action::Ticket(ticket) => self.pending.push_back(Pending::Ticket(ticket)),
                Action::Swap(ticket) => self.pending.push_back(Pending::Swap(ticket)),
                // A `!reload` loading its file off-thread: stop
                // dispatching this session's lines until the hand-off
                // (`advance_loading`), so a query pipelined behind the
                // reload still runs on the new generation.
                Action::LoadSwap(load) => {
                    self.loading = Some(load);
                    self.pending.push_back(Pending::Loading);
                    break;
                }
                Action::Shed => {
                    stats.shed += 1;
                    tel().net_shed.incr();
                    self.pending.push_back(Pending::Ready(Reply::Busy.render()));
                }
                // `quit` ends the connection: lines pipelined behind
                // it are discarded, replies owed ahead of it drain.
                Action::Quit => {
                    self.begin_close();
                    return true;
                }
                Action::Shutdown => {
                    *shutdown = true;
                    self.begin_close();
                    return true;
                }
            }
        }
        self.read_buf.drain(..consumed);
        progress
    }

    /// Completes an off-thread `!reload` file load, if one is pending
    /// and done: performs the cheap scheduler hand-off inline and
    /// swaps the session's `Loading` placeholder for the swap ticket
    /// (or the error reply), after which parsing resumes. Runs even
    /// while the session is closing, so a reply owed for a pre-`quit`
    /// reload still drains.
    fn advance_loading(&mut self) -> bool {
        let Some(load) = &self.loading else {
            return false;
        };
        let Some(result) = load.try_finish() else {
            return false;
        };
        self.loading = None;
        let resolved = match result {
            Ok(ticket) => Pending::Swap(ticket),
            Err(msg) => Pending::Ready(Reply::error(msg).render()),
        };
        // Parsing stalls while a load is in flight, so there is
        // exactly one placeholder to fill.
        for entry in &mut self.pending {
            if matches!(entry, Pending::Loading) {
                *entry = resolved;
                break;
            }
        }
        true
    }

    /// Moves resolved replies from the pending queue into the write
    /// buffer, strictly front-first so replies keep request order.
    fn resolve(&mut self) -> bool {
        let mut progress = false;
        while self.write_buf.len() - self.write_pos < WRITE_SOFT_CAP {
            let rendered = match self.pending.front() {
                None => break,
                Some(Pending::Ready(_)) => {
                    let Some(Pending::Ready(text)) = self.pending.pop_front() else {
                        unreachable!("front checked above");
                    };
                    text
                }
                // The instance file is still loading; the reply owed
                // here materialises in `advance_loading`.
                Some(Pending::Loading) => break,
                Some(Pending::Ticket(ticket)) => match ticket.try_wait() {
                    None => break,
                    Some(result) => {
                        self.pending.pop_front();
                        match result {
                            Ok(outcome) => Reply::Outcome(outcome).render(),
                            Err(e) => Reply::error(e.to_string()).render(),
                        }
                    }
                },
                Some(Pending::Swap(ticket)) => match ticket.try_wait() {
                    None => break,
                    Some(result) => {
                        self.pending.pop_front();
                        let rendered = match result {
                            Ok(generation) => Reply::Reload { generation }.render(),
                            Err(e) => Reply::error(e.to_string()).render(),
                        };
                        // A hot swap is a stats window boundary: put
                        // the pre-swap numbers on the serve log before
                        // the new generation's traffic blends in.
                        log_stats(self.handle.tenants(), "reload");
                        rendered
                    }
                },
            };
            self.write_buf.extend_from_slice(rendered.as_bytes());
            self.write_buf.push(b'\n');
            progress = true;
        }
        progress
    }
}

/// `errno` values of an accept that failed for want of a resource —
/// descriptors, socket buffers, kernel memory — rather than because
/// the listener broke.
const EMFILE: i32 = 24;
const ENFILE: i32 = 23;
const ENOMEM: i32 = 12;
#[cfg(target_os = "linux")]
const ENOBUFS: i32 = 105;
#[cfg(not(target_os = "linux"))]
const ENOBUFS: i32 = 55;

/// Whether an accept error only means "stop accepting for this round":
/// the peer gave up before the accept, or the process is out of
/// descriptors or buffers. A connection flood that exhausts them must
/// not end the server for the sessions it already serves.
fn accept_error_is_transient(e: &io::Error) -> bool {
    e.kind() == ErrorKind::ConnectionAborted
        || matches!(e.raw_os_error(), Some(EMFILE | ENFILE | ENOBUFS | ENOMEM))
}

/// Answers a connection over the limit with one best-effort busy line
/// and hangs up.
fn shed_connection(mut conn: TcpStream, stats: &mut NetStats) {
    stats.shed += 1;
    tel().net_shed.incr();
    let _ = conn.set_nonblocking(true);
    let _ = conn.write(format!("err msg={BUSY_MSG}\n").as_bytes());
    let _ = conn.shutdown(Shutdown::Both);
}

/// The event loop [`serve_tcp_with`](super::serve_tcp_with) runs
/// inside [`Service::serve`](crate::Service::serve): accept burst,
/// then one service round per session, then wait for a wake iff
/// nothing moved. Returns the front-door accounting once a `shutdown`
/// request has drained every session.
pub(super) fn event_loop(
    listener: &TcpListener,
    handle: ServiceHandle,
    cfg: &NetConfig,
) -> Result<NetStats, String> {
    // One token: wakes that arrive while the loop is busy merge. The
    // loop's own `handle` holds a sender until it returns, so the wait
    // below never sees a disconnected channel.
    let (wake_tx, wake_rx) = mpsc::sync_channel::<()>(1);
    let handle = handle.with_waker(wake_tx);
    let mut stats = NetStats::default();
    let mut sessions: Vec<Session> = Vec::new();
    let mut shutting_down: Option<Instant> = None;
    let mut idle = IDLE_MIN;
    // Set while accepts fail for want of a resource, so the serve log
    // gets one line per stall rather than one per round.
    let mut accept_stalled = false;
    loop {
        let mut progress = false;
        if shutting_down.is_none() {
            loop {
                match listener.accept() {
                    Ok((conn, _peer)) => {
                        progress = true;
                        accept_stalled = false;
                        // A socket that can't go non-blocking can't be
                        // served by this loop either: shed it like an
                        // over-limit connection (best-effort busy
                        // reply, counted) rather than vanishing from
                        // the accounting.
                        if sessions.len() >= cfg.max_conns || conn.set_nonblocking(true).is_err() {
                            shed_connection(conn, &mut stats);
                        } else {
                            stats.accepted += 1;
                            tel().net_accepted.incr();
                            sessions.push(Session::new(conn, handle.clone()));
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) if accept_error_is_transient(&e) => {
                        if !accept_stalled {
                            accept_stalled = true;
                            eprintln!("sc_service accept paused: {e}");
                        }
                        break;
                    }
                    Err(e) => return Err(format!("accept: {e}")),
                }
            }
        }
        let mut shutdown_now = false;
        let mut i = 0;
        while i < sessions.len() {
            let s = &mut sessions[i];
            progress |= s.tick(cfg, &mut stats, &mut shutdown_now);
            if s.done() {
                let _ = s.conn.shutdown(Shutdown::Both);
                // Every connection end — clean EOF, quit, shutdown, or
                // a peer that vanished mid-reply — flushes the stats
                // snapshot to the serve log, so a load wave's numbers
                // land even when the server keeps running.
                log_stats(s.handle.tenants(), "disconnect");
                sessions.swap_remove(i);
                progress = true;
            } else {
                i += 1;
            }
        }
        if shutdown_now && shutting_down.is_none() {
            shutting_down = Some(Instant::now());
            // Stop reading everywhere; replies owed still drain.
            for s in &mut sessions {
                s.begin_close();
            }
        }
        if let Some(since) = shutting_down {
            if sessions.is_empty() {
                return Ok(stats);
            }
            if since.elapsed() > SHUTDOWN_GRACE {
                // Peers that never drained their replies: hang up.
                sessions.clear();
                return Ok(stats);
            }
        }
        if progress {
            idle = IDLE_MIN;
        } else {
            let _ = wake_rx.recv_timeout(idle);
            idle = (idle * 2).min(IDLE_MAX);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceBuilder;
    use sc_setsystem::gen;

    #[test]
    fn accept_errors_from_exhausted_resources_are_transient() {
        for errno in [EMFILE, ENFILE, ENOBUFS, ENOMEM] {
            assert!(accept_error_is_transient(&io::Error::from_raw_os_error(
                errno
            )));
        }
        assert!(accept_error_is_transient(&io::Error::from(
            ErrorKind::ConnectionAborted
        )));
        // EBADF / EINVAL: the listener itself is broken.
        for errno in [9, 22] {
            assert!(!accept_error_is_transient(&io::Error::from_raw_os_error(
                errno
            )));
        }
    }

    #[test]
    fn accepted_session_sockets_disable_nagle() {
        let service = ServiceBuilder::new()
            .tenant("default", gen::planted(16, 32, 2, 1).system)
            .build();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let _peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (conn, _) = listener.accept().expect("accept");
        assert!(
            !conn.nodelay().expect("read TCP_NODELAY"),
            "Nagle starts on"
        );
        service.serve(|handle| {
            let session = Session::new(conn, handle);
            assert!(session.conn.nodelay().expect("read TCP_NODELAY"));
        });
    }
}
