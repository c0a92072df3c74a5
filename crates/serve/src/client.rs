//! A lockstep (optionally pipelining) `fsa-wire/v1` client, plus the
//! `fsa serve --connect` command built on it.

use crate::cli::{self, SERVE_USAGE};
use crate::flags::{Kind, Table};
use crate::proto::{ClientFrame, ServerFrame, SpecPayload};
use crate::wire::{self, DEFAULT_MAX_FRAME, PROTOCOL};
use std::io::{Read, Write};
use std::net::TcpStream;

/// A connected, handshaken client, generic over its transport so
/// tests (and the chaos harness) can wrap the socket in a
/// fault-injecting stream.
pub struct Client<S: Read + Write = TcpStream> {
    stream: S,
    max_frame: usize,
}

impl Client<TcpStream> {
    /// Connects and performs the `hello` handshake.
    ///
    /// # Errors
    ///
    /// A display-ready message (connection refused, protocol mismatch,
    /// transport failure).
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        Client::handshake(stream)
    }
}

impl<S: Read + Write> Client<S> {
    /// Performs the `hello` handshake over an already-established
    /// transport (a plain socket, or a chaos-wrapped one).
    ///
    /// # Errors
    ///
    /// A display-ready message (protocol mismatch, transport failure).
    pub fn handshake(stream: S) -> Result<Client<S>, String> {
        let mut client = Client {
            stream,
            max_frame: DEFAULT_MAX_FRAME,
        };
        client.send(&ClientFrame::Hello {
            protocol: PROTOCOL.to_owned(),
        })?;
        match client.recv()? {
            Some(ServerFrame::Hello { protocol }) if protocol == PROTOCOL => Ok(client),
            Some(ServerFrame::Hello { protocol }) => {
                Err(format!("server speaks `{protocol}`, not {PROTOCOL}"))
            }
            Some(ServerFrame::Error { code, message, .. }) => Err(format!("{code}: {message}")),
            Some(other) => Err(format!("unexpected handshake reply {other:?}")),
            None => Err("server closed the connection during the handshake".to_owned()),
        }
    }

    /// Sends one frame (pipelining is allowed: responses arrive in
    /// submission order per session).
    ///
    /// # Errors
    ///
    /// The transport failure, display-ready.
    pub fn send(&mut self, frame: &ClientFrame) -> Result<(), String> {
        wire::write_frame(&mut self.stream, &frame.encode()).map_err(|e| e.to_string())
    }

    /// Receives the next frame; `None` is a clean server close.
    ///
    /// # Errors
    ///
    /// The transport/framing failure, display-ready.
    pub fn recv(&mut self) -> Result<Option<ServerFrame>, String> {
        match wire::read_frame(&mut self.stream, self.max_frame) {
            Ok(None) => Ok(None),
            Ok(Some(payload)) => ServerFrame::decode(&payload)
                .map(Some)
                .map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Opens a session and returns its id.
    ///
    /// # Errors
    ///
    /// Typed server errors (`open-failed`, `draining`, …) or transport
    /// failures, display-ready.
    pub fn open(
        &mut self,
        spec: Option<SpecPayload>,
        scenario: Option<String>,
    ) -> Result<u64, String> {
        self.send(&ClientFrame::Open { spec, scenario })?;
        match self.recv()? {
            Some(ServerFrame::Opened { session }) => Ok(session),
            Some(ServerFrame::Error { code, message, .. }) => Err(format!("{code}: {message}")),
            Some(other) => Err(format!("unexpected reply to open: {other:?}")),
            None => Err("server closed the connection before `opened`".to_owned()),
        }
    }

    /// Lockstep request: sends and waits for this request's response or
    /// error frame.
    ///
    /// # Errors
    ///
    /// Transport failures, display-ready (typed server errors are
    /// returned as frames, not `Err`).
    pub fn request(
        &mut self,
        session: u64,
        id: u64,
        command: &str,
        args: &[String],
        deadline_ms: Option<u64>,
    ) -> Result<ServerFrame, String> {
        self.send(&ClientFrame::Request {
            session,
            id,
            command: command.to_owned(),
            args: args.to_vec(),
            deadline_ms,
        })?;
        match self.recv()? {
            Some(frame) => Ok(frame),
            None => Err("server closed the connection before responding".to_owned()),
        }
    }

    /// Lockstep edit: applies delta lines to the session's editable
    /// scenario model and waits for the response (success is exit 0
    /// with empty stdout) or typed error frame.
    ///
    /// # Errors
    ///
    /// Transport failures, display-ready (typed server errors are
    /// returned as frames, not `Err`).
    pub fn edit(
        &mut self,
        session: u64,
        id: u64,
        deltas: &[String],
    ) -> Result<ServerFrame, String> {
        self.send(&ClientFrame::Edit {
            session,
            id,
            deltas: deltas.to_vec(),
        })?;
        match self.recv()? {
            Some(frame) => Ok(frame),
            None => Err("server closed the connection before responding".to_owned()),
        }
    }

    /// Requests a server-wide drain and reads until the closing `bye`.
    /// Returns every frame received on the way (pipelined responses,
    /// `draining` errors).
    ///
    /// # Errors
    ///
    /// Transport failures, display-ready.
    pub fn drain(mut self) -> Result<Vec<ServerFrame>, String> {
        self.send(&ClientFrame::Drain)?;
        let mut seen = Vec::new();
        while let Some(frame) = self.recv()? {
            let done = matches!(frame, ServerFrame::Bye);
            seen.push(frame);
            if done {
                break;
            }
        }
        Ok(seen)
    }

    /// Polite close: sends `bye` and waits for the server's `bye`.
    ///
    /// # Errors
    ///
    /// Transport failures, display-ready.
    pub fn bye(mut self) -> Result<(), String> {
        self.send(&ClientFrame::Bye)?;
        while let Some(frame) = self.recv()? {
            if matches!(frame, ServerFrame::Bye) {
                break;
            }
        }
        Ok(())
    }
}

/// The flags of `fsa serve --connect`. `--request` and `--edit` share
/// one list, so edits interleave with requests exactly as written on
/// the command line.
#[derive(Default)]
pub(crate) struct ConnectFlags {
    connect: Option<String>,
    spec: Option<String>,
    scenario: Option<String>,
    ops: Vec<(&'static str, String)>,
    deadline_ms: Option<u64>,
    chaos_seed: Option<u64>,
    drain: bool,
}

pub(crate) const CONNECT: Table<ConnectFlags> = Table::new(
    SERVE_USAGE,
    &[
        ("connect", Kind::Text(|f| &mut f.connect)),
        ("spec", Kind::Text(|f| &mut f.spec)),
        ("scenario", Kind::Text(|f| &mut f.scenario)),
        ("request", Kind::Repeated(|f| &mut f.ops)),
        ("edit", Kind::Repeated(|f| &mut f.ops)),
        ("deadline-ms", Kind::Unsigned(|f| &mut f.deadline_ms)),
        ("chaos-seed", Kind::Unsigned(|f| &mut f.chaos_seed)),
        ("drain", Kind::Switch(|f| &mut f.drain)),
    ],
);

/// `fsa serve --connect` — scripts a session against a running server:
/// open (spec and/or scenario), run each `--request` / `--edit` in flag
/// order, optionally drain. Response stdout/stderr print verbatim; the
/// exit code is the first non-zero response exit (typed error frames
/// exit 1).
pub fn connect_command(rest: &[String]) -> u8 {
    let mut f = ConnectFlags::default();
    if let Err(r) = CONNECT.parse(rest, &[], &mut f) {
        return cli::emit(&r);
    }
    let Some(addr) = f.connect else {
        eprintln!("--connect expects a value\n{SERVE_USAGE}");
        return 2;
    };

    let payload = match f.spec {
        None => None,
        Some(path) => match std::fs::read_to_string(&path) {
            Ok(source) => Some(SpecPayload { name: path, source }),
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return 1;
            }
        },
    };
    #[cfg(feature = "chaos")]
    if let Some(seed) = f.chaos_seed {
        // A chaos-flagged session injects *benign* faults (stalls,
        // trickles, short reads) on the client's own socket: the
        // hardened peers ride them out and the session heals to the
        // same bytes a clean run produces.
        let stream = match TcpStream::connect(&addr) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot connect to {addr}: {e}");
                return 1;
            }
        };
        let _ = stream.set_nodelay(true);
        let wrapped =
            fsa_exec::net::ChaosStream::new(stream, fsa_exec::net::ChaosConfig::benign(seed));
        let client = match Client::handshake(wrapped) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        };
        return drive_session(client, payload, f.scenario, &f.ops, f.deadline_ms, f.drain);
    }
    #[cfg(not(feature = "chaos"))]
    if f.chaos_seed.is_some() {
        eprintln!(
            "--chaos-seed needs a build with the `chaos` feature (cargo build --features chaos)"
        );
        return 2;
    }
    let client = match Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    drive_session(client, payload, f.scenario, &f.ops, f.deadline_ms, f.drain)
}

/// Opens a session and runs the scripted ops over any transport.
fn drive_session<S: Read + Write>(
    mut client: Client<S>,
    payload: Option<SpecPayload>,
    scenario: Option<String>,
    ops: &[(&str, String)],
    deadline_ms: Option<u64>,
    drain: bool,
) -> u8 {
    let session = match client.open(payload, scenario) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let mut exit = 0u8;
    for (i, (flag, line)) in ops.iter().enumerate() {
        let id = i as u64 + 1;
        let reply = if *flag == "edit" {
            if line.trim().is_empty() {
                eprintln!("--edit expects a model delta line, got an empty string");
                return 2;
            }
            client.edit(session, id, std::slice::from_ref(line))
        } else {
            let mut words = line.split_whitespace().map(str::to_owned);
            let Some(command) = words.next() else {
                eprintln!("--request expects `COMMAND [ARGS...]`, got an empty string");
                return 2;
            };
            let args: Vec<String> = words.collect();
            client.request(session, id, &command, &args, deadline_ms)
        };
        match reply {
            Ok(ServerFrame::Response {
                exit: e,
                stdout,
                stderr,
                ..
            }) => {
                if let Err(e) = cli::write_through(std::io::stdout().lock(), &stdout) {
                    eprintln!("cannot write stdout: {e}");
                    return 1;
                }
                let _ = cli::write_through(std::io::stderr().lock(), &stderr);
                if exit == 0 {
                    exit = e;
                }
            }
            Ok(ServerFrame::Error { code, message, .. }) => {
                eprintln!("error: {code}: {message}");
                if exit == 0 {
                    exit = 1;
                }
            }
            Ok(other) => {
                eprintln!("unexpected reply: {other:?}");
                return 1;
            }
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        }
    }
    let finish = if drain {
        client.drain().map(|_| ())
    } else {
        client.bye()
    };
    if let Err(e) = finish {
        eprintln!("{e}");
        if exit == 0 {
            exit = 1;
        }
    }
    exit
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn repeatable_allowlist_suppresses_duplicate_rejection() {
        // `--request` and `--edit` repeat, and share one list in which
        // they keep their interleaved argv order.
        let rest = argv(&["--request", "a", "--edit=d", "--request=b", "--edit", "e"]);
        let mut flags = ConnectFlags::default();
        CONNECT
            .parse(&rest, &[], &mut flags)
            .expect("no duplicate error");
        assert_eq!(
            flags.ops,
            [
                ("request", "a"),
                ("edit", "d"),
                ("request", "b"),
                ("edit", "e")
            ]
            .map(|(flag, value)| (flag, value.to_owned()))
        );
        let r = CONNECT
            .parse(&argv(&["--drain", "--drain"]), &[], &mut flags)
            .expect_err("other flags stay single-occurrence");
        assert!(
            r.stderr.starts_with("duplicate flag --drain\n"),
            "{}",
            r.stderr
        );
    }
}
