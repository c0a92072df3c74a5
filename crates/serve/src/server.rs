//! The resident `fsa serve` TCP server.
//!
//! Thread-per-connection over std's blocking sockets: the accept loop
//! polls a drain flag between non-blocking accepts; each connection
//! reads `fsa-wire/v1` frames with a short read timeout so idle
//! connections notice a drain at the next frame boundary. Session
//! workers write responses through a shared, lock-protected writer —
//! one buffered `write_all` per frame keeps concurrent sessions'
//! frames atomic on the wire.
//!
//! Graceful drain (SIGTERM or a client `drain` frame): the listener
//! stops accepting, in-flight and already-queued requests finish and
//! their responses flush, *new* requests are answered with a typed
//! `draining` error, and every connection ends with `bye`.

use crate::cli::{self, SERVE_USAGE};
use crate::flags::{Kind, Table};
use crate::proto::{ClientFrame, ServerFrame};
use crate::session::{FrameSink, SessionHandle, DEFAULT_CACHE_CAP};
use crate::wire::{self, FrameEvent, ReadLimits, WireError, DEFAULT_MAX_FRAME, PROTOCOL};
use fsa_core::service::{codes, Query, ServiceError};
use fsa_obs::Obs;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default per-frame read/write deadline (milliseconds): generous for
/// honest peers, fatal for slow-loris ones.
pub const DEFAULT_FRAME_DEADLINE_MS: u64 = 10_000;

/// Default idle-session limit (milliseconds) before a reap.
pub const DEFAULT_SESSION_IDLE_MS: u64 = 300_000;

/// Default accept-side connection cap.
pub const DEFAULT_MAX_CONNS: usize = 256;

/// Server tunables.
#[derive(Clone)]
pub struct ServeConfig {
    /// Listen address; port 0 picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Bounded per-session request queue length.
    pub queue: usize,
    /// Per-frame payload limit in bytes.
    pub max_frame: usize,
    /// Bounded per-session response-cache capacity (entries).
    pub cache_cap: usize,
    /// Per-frame read/write deadline: a peer that starts a frame (or
    /// stops draining responses) and stalls past this is answered
    /// with a typed `slow-peer` error and disconnected.
    pub frame_deadline: Duration,
    /// Sessions idle past this are reaped; later requests on the
    /// reaped id get a typed `session-expired` error.
    pub session_idle: Duration,
    /// Accept-side connection cap: connections beyond it are answered
    /// with a typed `overloaded` error and closed without a thread.
    pub max_conns: usize,
    /// Observability registry threaded through every connection,
    /// session and engine (`serve.*` series).
    pub obs: Obs,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            queue: 8,
            max_frame: DEFAULT_MAX_FRAME,
            cache_cap: DEFAULT_CACHE_CAP,
            frame_deadline: Duration::from_millis(DEFAULT_FRAME_DEADLINE_MS),
            session_idle: Duration::from_millis(DEFAULT_SESSION_IDLE_MS),
            max_conns: DEFAULT_MAX_CONNS,
            obs: Obs::disabled(),
        }
    }
}

/// Totals reported when the server drains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted.
    pub connections: u64,
    /// Sessions opened.
    pub sessions: u64,
    /// Request frames received (including rejected ones).
    pub requests: u64,
}

#[derive(Default)]
struct Totals {
    connections: AtomicU64,
    sessions: AtomicU64,
    requests: AtomicU64,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
    drain: Arc<AtomicBool>,
    totals: Arc<Totals>,
}

impl Server {
    /// Binds the listen socket (non-blocking accepts).
    ///
    /// # Errors
    ///
    /// The underlying bind/configuration failure.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            config,
            drain: Arc::new(AtomicBool::new(false)),
            totals: Arc::new(Totals::default()),
        })
    }

    /// The bound address (resolves `:0` to the chosen port).
    ///
    /// # Errors
    ///
    /// The underlying socket query failure.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The drain flag: set it (or deliver SIGTERM) to stop accepting
    /// and gracefully finish in-flight work.
    #[must_use]
    pub fn drain_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.drain)
    }

    /// Accepts and serves connections until a drain is requested, then
    /// joins every connection (whose sessions finish their queued work)
    /// and returns the totals.
    #[must_use]
    pub fn run(self) -> ServeSummary {
        let mut handles = Vec::new();
        let active = Arc::new(AtomicUsize::new(0));
        loop {
            if self.drain.load(Ordering::SeqCst) || crate::signal::drain_requested() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if active.load(Ordering::SeqCst) >= self.config.max_conns {
                        self.config.obs.counter_add("serve.conn_rejected", 1);
                        reject_overloaded(stream, self.config.max_conns);
                        continue;
                    }
                    let accept = self.config.obs.span("serve.accept");
                    self.config.obs.counter_add("serve.connections", 1);
                    self.totals.connections.fetch_add(1, Ordering::Relaxed);
                    active.fetch_add(1, Ordering::SeqCst);
                    let ctx = ConnCtx {
                        config: self.config.clone(),
                        drain: Arc::clone(&self.drain),
                        totals: Arc::clone(&self.totals),
                    };
                    let conn_active = Arc::clone(&active);
                    drop(accept);
                    let spawned = std::thread::Builder::new()
                        .name("fsa-serve-conn".to_owned())
                        .spawn(move || {
                            handle_connection(stream, &ctx);
                            conn_active.fetch_sub(1, Ordering::SeqCst);
                        });
                    if spawned.is_err() {
                        active.fetch_sub(1, Ordering::SeqCst);
                    }
                    handles.push(spawned);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) =>
                {
                    std::thread::sleep(Duration::from_millis(15));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(15)),
            }
        }
        for h in handles.into_iter().flatten() {
            let _ = h.join();
        }
        ServeSummary {
            connections: self.totals.connections.load(Ordering::Relaxed),
            sessions: self.totals.sessions.load(Ordering::Relaxed),
            requests: self.totals.requests.load(Ordering::Relaxed),
        }
    }
}

struct ConnCtx {
    config: ServeConfig,
    drain: Arc<AtomicBool>,
    totals: Arc<Totals>,
}

/// Answers an over-cap connection with a typed `overloaded` error and
/// closes it, without spending a thread. The write is bounded by a
/// short socket timeout — a peer that connects and never reads cannot
/// block the accept loop.
fn reject_overloaded(mut stream: TcpStream, max_conns: usize) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let frame = ServerFrame::Error {
        session: None,
        id: None,
        code: codes::OVERLOADED.to_owned(),
        message: format!("server is at its {max_conns}-connection capacity; retry later"),
    };
    let _ = wire::write_frame_deadline(
        &mut stream,
        &frame.encode(),
        Some(Duration::from_millis(200)),
    );
}

/// A session plus the instant it last accepted work (for idle reaps).
struct SessionEntry {
    handle: SessionHandle,
    last_used: Instant,
}

/// Reaps sessions idle past the limit: the handle is closed (its
/// worker finishes queued work first) and the id is remembered so a
/// late request gets `session-expired` rather than `unknown-session`.
fn reap_idle(
    sessions: &mut BTreeMap<u64, SessionEntry>,
    expired: &mut BTreeSet<u64>,
    idle: Duration,
    obs: &Obs,
) {
    let now = Instant::now();
    let due: Vec<u64> = sessions
        .iter()
        .filter(|(_, e)| now.duration_since(e.last_used) >= idle)
        .map(|(id, _)| *id)
        .collect();
    for id in due {
        if let Some(entry) = sessions.remove(&id) {
            entry.handle.close();
            expired.insert(id);
            obs.counter_add("serve.sessions_expired", 1);
        }
    }
}

fn handle_connection(stream: TcpStream, ctx: &ConnCtx) {
    let _ = stream.set_nodelay(true);
    let Ok(mut reader) = stream.try_clone() else {
        return;
    };
    // Short read/write timeouts let idle connections poll the drain
    // flag at frame boundaries without busy-waiting, and surface
    // `WouldBlock` to the per-frame deadline logic instead of letting
    // a stalled peer pin the thread.
    let _ = reader.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(50)));
    let frame_deadline = ctx.config.frame_deadline;
    let writer = Arc::new(Mutex::new(stream));
    let sink: FrameSink = {
        let writer = Arc::clone(&writer);
        Arc::new(move |frame: &ServerFrame| {
            let mut guard = writer
                .lock()
                .map_err(|_| WireError::Io("writer lock poisoned".to_owned()))?;
            wire::write_frame_deadline(&mut *guard, &frame.encode(), Some(frame_deadline))
        })
    };
    let drain = Arc::clone(&ctx.drain);
    let stop = move || drain.load(Ordering::SeqCst) || crate::signal::drain_requested();

    // Handshake: the first frame must be a matching `hello`.
    match read_client_frame(&mut reader, &ctx.config, &sink, &stop, None) {
        Inbound::Frame(Ok(ClientFrame::Hello { protocol })) if protocol == PROTOCOL => {
            let _ = sink(&ServerFrame::Hello {
                protocol: PROTOCOL.to_owned(),
            });
        }
        Inbound::Frame(Ok(ClientFrame::Hello { protocol })) => {
            let _ = sink(&ServerFrame::Error {
                session: None,
                id: None,
                code: codes::PROTOCOL.to_owned(),
                message: format!("unsupported protocol `{protocol}` (server speaks {PROTOCOL})"),
            });
            return;
        }
        Inbound::Frame(Ok(_)) => {
            let _ = sink(&ServerFrame::Error {
                session: None,
                id: None,
                code: codes::PROTOCOL.to_owned(),
                message: "the first frame must be `hello`".to_owned(),
            });
            return;
        }
        Inbound::Frame(Err(())) | Inbound::Closed | Inbound::Tick => return,
    }

    let mut sessions: BTreeMap<u64, SessionEntry> = BTreeMap::new();
    let mut expired: BTreeSet<u64> = BTreeSet::new();
    let mut next_session = 1u64;
    loop {
        // Wake at the earliest idle expiry so quiet sessions are
        // reaped even while the connection itself stays open.
        let idle_deadline = sessions
            .values()
            .map(|e| e.last_used + ctx.config.session_idle)
            .min();
        let frame = match read_client_frame(&mut reader, &ctx.config, &sink, &stop, idle_deadline) {
            Inbound::Closed => break,
            Inbound::Tick => {
                reap_idle(
                    &mut sessions,
                    &mut expired,
                    ctx.config.session_idle,
                    &ctx.config.obs,
                );
                continue;
            }
            Inbound::Frame(Err(())) => {
                // Framing is intact (the payload was a complete UTF-8
                // frame); a decode failure poisons only that frame.
                continue;
            }
            Inbound::Frame(Ok(frame)) => frame,
        };
        match frame {
            ClientFrame::Hello { .. } => {
                // Idempotent re-handshake.
                let _ = sink(&ServerFrame::Hello {
                    protocol: PROTOCOL.to_owned(),
                });
            }
            ClientFrame::Open { spec, scenario } => {
                if stop() {
                    let _ = sink(&draining_error(None, None));
                    continue;
                }
                let id = next_session;
                match SessionHandle::open(
                    id,
                    spec.as_ref(),
                    scenario.as_deref(),
                    ctx.config.queue,
                    ctx.config.cache_cap,
                    Arc::clone(&sink),
                    ctx.config.obs.clone(),
                ) {
                    Ok(handle) => {
                        next_session += 1;
                        ctx.totals.sessions.fetch_add(1, Ordering::Relaxed);
                        sessions.insert(
                            id,
                            SessionEntry {
                                handle,
                                last_used: Instant::now(),
                            },
                        );
                        let _ = sink(&ServerFrame::Opened { session: id });
                    }
                    Err(e) => {
                        let _ = sink(&error_frame(None, None, &e));
                    }
                }
            }
            ClientFrame::Request {
                session,
                id,
                command,
                args,
                deadline_ms,
            } => {
                ctx.totals.requests.fetch_add(1, Ordering::Relaxed);
                if stop() {
                    let _ = sink(&draining_error(Some(session), Some(id)));
                    continue;
                }
                let Some(entry) = sessions.get_mut(&session) else {
                    let _ = sink(&error_frame(
                        Some(session),
                        Some(id),
                        &session_gone(session, &expired),
                    ));
                    continue;
                };
                entry.last_used = Instant::now();
                let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
                if let Err(e) = entry.handle.submit(id, Query::new(command, args), deadline) {
                    let _ = sink(&error_frame(Some(session), Some(id), &e));
                }
            }
            ClientFrame::Edit {
                session,
                id,
                deltas,
            } => {
                ctx.totals.requests.fetch_add(1, Ordering::Relaxed);
                if stop() {
                    let _ = sink(&draining_error(Some(session), Some(id)));
                    continue;
                }
                let Some(entry) = sessions.get_mut(&session) else {
                    let _ = sink(&error_frame(
                        Some(session),
                        Some(id),
                        &session_gone(session, &expired),
                    ));
                    continue;
                };
                entry.last_used = Instant::now();
                // An edit is an ordinary job on the session queue: it
                // runs after every request already queued, so responses
                // computed before it still describe the pre-edit model.
                if let Err(e) = entry.handle.submit(id, Query::new("edit", deltas), None) {
                    let _ = sink(&error_frame(Some(session), Some(id), &e));
                }
            }
            ClientFrame::Drain => {
                // Server-wide: the accept loop stops, every connection
                // notices at its next idle poll. This connection keeps
                // reading — already-pipelined requests are answered
                // with `draining` — until its socket goes idle or EOF,
                // then sessions drain below and `bye` closes it.
                ctx.drain.store(true, Ordering::SeqCst);
            }
            ClientFrame::Bye => break,
        }
    }

    // Graceful teardown: closing a session joins its worker, which
    // finishes every queued request and flushes the responses first.
    for (_, entry) in std::mem::take(&mut sessions) {
        entry.handle.close();
    }
    let _ = sink(&ServerFrame::Bye);
}

/// Why a session id has no live entry.
fn session_gone(session: u64, expired: &BTreeSet<u64>) -> ServiceError {
    if expired.contains(&session) {
        ServiceError::new(
            codes::SESSION_EXPIRED,
            format!("session {session} expired after sitting idle; re-open to continue"),
        )
    } else {
        ServiceError::new(
            codes::UNKNOWN_SESSION,
            format!("session {session} is not open on this connection"),
        )
    }
}

/// What one read produced for the connection loop.
enum Inbound {
    /// A decoded frame, or a decode failure already answered with a
    /// typed `bad-frame` error (the connection survives).
    Frame(Result<ClientFrame, ()>),
    /// The idle deadline fired: do housekeeping and read again.
    Tick,
    /// The connection is over (clean EOF, drain-idle, or an
    /// unrecoverable transport/framing failure — oversize frames and
    /// mid-frame stalls are answered with a typed error first).
    Closed,
}

fn read_client_frame(
    reader: &mut TcpStream,
    config: &ServeConfig,
    sink: &FrameSink,
    stop: &(dyn Fn() -> bool + Send + Sync),
    idle_deadline: Option<Instant>,
) -> Inbound {
    let limits = ReadLimits {
        max_frame: config.max_frame,
        frame_deadline: Some(config.frame_deadline),
        idle_deadline,
    };
    match wire::read_frame_event(reader, &limits, &|| stop()) {
        Ok(FrameEvent::Frame(payload)) => match ClientFrame::decode(&payload) {
            Ok(frame) => Inbound::Frame(Ok(frame)),
            Err(e) => {
                let _ = sink(&error_frame(None, None, &e));
                Inbound::Frame(Err(()))
            }
        },
        Ok(FrameEvent::Eof) => Inbound::Closed,
        Ok(FrameEvent::Idle) => Inbound::Tick,
        Err(WireError::Oversize { len, max }) => {
            // The peer's next bytes are the oversize payload itself —
            // the stream cannot be resynchronised, so answer and close.
            let _ = sink(&ServerFrame::Error {
                session: None,
                id: None,
                code: codes::OVERSIZE_FRAME.to_owned(),
                message: format!("frame of {len} bytes exceeds the {max}-byte limit"),
            });
            Inbound::Closed
        }
        Err(WireError::Utf8) => {
            let _ = sink(&ServerFrame::Error {
                session: None,
                id: None,
                code: codes::BAD_FRAME.to_owned(),
                message: "frame payload is not valid UTF-8".to_owned(),
            });
            Inbound::Closed
        }
        Err(WireError::Stalled { ms }) => {
            // Slow-loris: the frame never finished inside its budget.
            // The stream cannot be resynchronised mid-frame; answer
            // typed and close.
            config.obs.counter_add("serve.conn_stalled", 1);
            let _ = sink(&ServerFrame::Error {
                session: None,
                id: None,
                code: codes::SLOW_PEER.to_owned(),
                message: format!("frame not completed within the {ms}ms frame deadline"),
            });
            Inbound::Closed
        }
        Err(WireError::Truncated | WireError::Io(_)) => Inbound::Closed,
    }
}

fn error_frame(session: Option<u64>, id: Option<u64>, e: &ServiceError) -> ServerFrame {
    ServerFrame::Error {
        session,
        id,
        code: e.code.to_owned(),
        message: e.message.clone(),
    }
}

fn draining_error(session: Option<u64>, id: Option<u64>) -> ServerFrame {
    ServerFrame::Error {
        session,
        id,
        code: codes::DRAINING.to_owned(),
        message: "server is draining; no new work is accepted".to_owned(),
    }
}

/// The flags of `fsa serve` in server mode; each defaults to
/// [`ServeConfig::default`].
#[derive(Default)]
pub(crate) struct ServeFlags {
    addr: Option<String>,
    queue: Option<usize>,
    max_frame: Option<usize>,
    cache_cap: Option<usize>,
    frame_deadline_ms: Option<usize>,
    idle_ms: Option<usize>,
    max_conns: Option<usize>,
    stats_json: Option<String>,
    trace_json: Option<String>,
}

pub(crate) const SERVE: Table<ServeFlags> = Table::new(
    SERVE_USAGE,
    &[
        ("addr", Kind::Text(|f| &mut f.addr)),
        ("queue", Kind::Positive(|f| &mut f.queue)),
        ("max-frame", Kind::Positive(|f| &mut f.max_frame)),
        ("cache-cap", Kind::Positive(|f| &mut f.cache_cap)),
        (
            "frame-deadline-ms",
            Kind::Positive(|f| &mut f.frame_deadline_ms),
        ),
        ("idle-ms", Kind::Positive(|f| &mut f.idle_ms)),
        ("max-conns", Kind::Positive(|f| &mut f.max_conns)),
        ("stats-json", Kind::Text(|f| &mut f.stats_json)),
        ("trace-json", Kind::Text(|f| &mut f.trace_json)),
    ],
);

/// `fsa serve` — dispatches between server mode and `--connect` client
/// mode, runs live (long-running; output is printed, not buffered).
pub fn serve_command(rest: &[String]) -> u8 {
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        println!("{SERVE_USAGE}");
        return 0;
    }
    if rest
        .iter()
        .any(|a| a == "--connect" || a.starts_with("--connect="))
    {
        return crate::client::connect_command(rest);
    }

    let mut f = ServeFlags::default();
    if let Err(r) = SERVE.parse(rest, &[], &mut f) {
        return cli::emit(&r);
    }
    let obs = if f.stats_json.is_some() || f.trace_json.is_some() {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    let defaults = ServeConfig::default();
    let millis = |ms: Option<usize>, default: Duration| {
        ms.map_or(default, |ms| Duration::from_millis(ms as u64))
    };
    let server = match Server::bind(ServeConfig {
        addr: f.addr.unwrap_or(defaults.addr),
        queue: f.queue.unwrap_or(defaults.queue),
        max_frame: f.max_frame.unwrap_or(defaults.max_frame),
        cache_cap: f.cache_cap.unwrap_or(defaults.cache_cap),
        frame_deadline: millis(f.frame_deadline_ms, defaults.frame_deadline),
        session_idle: millis(f.idle_ms, defaults.session_idle),
        max_conns: f.max_conns.unwrap_or(defaults.max_conns),
        obs: obs.clone(),
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind: {e}");
            return 1;
        }
    };
    crate::signal::install_sigterm();
    match server.local_addr() {
        Ok(addr) => {
            use std::io::Write as _;
            println!("listening on {addr}");
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("cannot resolve listen address: {e}");
            return 1;
        }
    }
    let summary = server.run();
    println!(
        "drained: {} connection(s), {} session(s), {} request(s)",
        summary.connections, summary.sessions, summary.requests
    );
    let snapshot = obs.snapshot();
    for (path, contents) in [
        (f.stats_json, snapshot.to_stats_json()),
        (f.trace_json, snapshot.to_trace_json()),
    ] {
        if let Some(path) = path {
            if let Err(e) = std::fs::write(&path, contents) {
                eprintln!("cannot write {path}: {e}");
                return 1;
            }
        }
    }
    0
}
