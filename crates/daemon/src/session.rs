//! The per-connection state machine: handshake, then one simulation
//! per `Open`, stepped one request at a time.
//!
//! A session thread owns its whole simulation on its stack: the
//! realized inputs ([`SimSpec::realize`]) and the run started from them.
//! Each `Post` or `Read` request carries the `(time, seq)` scheduler key
//! the batch pipeline would have assigned; the session converts it back
//! into the scheduler event ([`Request::to_event`]) and hands it to
//! [`SimRun::step`] — the same step the batch run takes — which drains
//! every queued event ordering strictly before the key, applies the
//! request, and returns the verdict the ack carries. Keys must arrive
//! strictly increasing: a duplicate or reordered request is answered
//! with `Error` before it reaches the journal or the run. `Finish`
//! drains the remainder and folds the report.

use std::io::{self, Read};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use dosn_node::{Event, Realized, SimRun};
use dosn_store::{log_exists, read_header, redrive_into, LogKind, LogWriter};

use crate::codec::{
    decode_request, decode_spec, encode_response, encode_spec, write_frame, MAX_FRAME_BYTES,
    WireError,
};
use crate::protocol::{ReportParts, Request, Response, SimSpec, PROTOCOL_VERSION};
use crate::server::StoreGate;
use crate::shutdown::ShutdownFlag;

/// How long a blocking read waits before the session re-checks the
/// shutdown flag. Short enough for a prompt SIGTERM exit, long enough
/// to stay off the scheduler between requests.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// What a frame read produced.
enum Incoming {
    /// A complete request.
    Frame(Request),
    /// The peer closed the connection at a frame boundary.
    Eof,
    /// The shutdown flag tripped while waiting.
    Shutdown,
}

/// Serves one connection until EOF, shutdown, or a fatal I/O error.
///
/// With `store` set, each opened simulation journals its validated
/// requests into the store directory (write-ahead) and recovers from an
/// existing journal on open; only one session may hold the journal at a
/// time.
///
/// # Errors
///
/// Propagates I/O errors on the stream; protocol violations are
/// answered with [`Response::Error`] frames instead of erroring out.
pub fn serve(
    mut stream: UnixStream,
    flag: &ShutdownFlag,
    store: Option<&Arc<StoreGate>>,
) -> io::Result<()> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    // Handshake: the first frame must be a compatible Hello.
    match next_request(&mut stream, flag)? {
        Incoming::Eof | Incoming::Shutdown => return Ok(()),
        Incoming::Frame(Request::Hello { version }) if version == PROTOCOL_VERSION => {
            respond(&mut stream, &Response::Welcome { version: PROTOCOL_VERSION })?;
        }
        Incoming::Frame(Request::Hello { version }) => {
            return respond(&mut stream, &Response::Error {
                message: format!(
                    "protocol version {version} unsupported (daemon speaks {PROTOCOL_VERSION})"
                ),
            });
        }
        Incoming::Frame(_) => {
            return respond(&mut stream, &Response::Error {
                message: "expected Hello as the first frame".to_string(),
            });
        }
    }
    // Steady state: sessions open, run, and may open again.
    loop {
        match next_request(&mut stream, flag)? {
            Incoming::Eof | Incoming::Shutdown => return Ok(()),
            Incoming::Frame(Request::Ping) => respond(&mut stream, &Response::Pong)?,
            Incoming::Frame(Request::Shutdown) => {
                respond(&mut stream, &Response::ShuttingDown)?;
                flag.request();
                return Ok(());
            }
            Incoming::Frame(Request::Open(spec)) => {
                if !run_simulation(&mut stream, flag, &spec, store)? {
                    return Ok(());
                }
            }
            Incoming::Frame(other) => respond(&mut stream, &Response::Error {
                message: format!("no session open; {} is out of order", request_name(&other)),
            })?,
        }
    }
}

/// Opens (or recovers) the journal for one simulation session.
///
/// An existing log must be a journal whose header metadata decodes to
/// exactly the spec being opened; its records are then re-driven
/// through `run` — the same `step` the live path takes — so the runtime
/// resumes in precisely the state it had when the previous daemon
/// stopped. Any torn tail frame left by a crash is truncated before the
/// re-drive.
///
/// Returns the appendable writer and how many requests were recovered;
/// a refusal reason otherwise.
fn open_journal(
    dir: &Path,
    spec: &SimSpec,
    run: &mut SimRun<'_>,
) -> Result<(LogWriter, u64), String> {
    if !log_exists(dir) {
        let writer = LogWriter::create(dir, LogKind::Journal, &encode_spec(spec))
            .map_err(|e| format!("cannot create journal: {e}"))?;
        return Ok((writer, 0));
    }
    let (kind, meta) = read_header(dir).map_err(|e| format!("journal unreadable: {e}"))?;
    if kind != LogKind::Journal {
        return Err(format!("{} holds an {kind} log, not a journal", dir.display()));
    }
    let logged = decode_spec(&meta).map_err(|e| format!("journal header spec invalid: {e}"))?;
    if logged != *spec {
        return Err("journal records a different simulation spec; \
                    refusing to mix sessions"
            .to_string());
    }
    // Truncate any torn tail, then re-drive the surviving records.
    let (writer, _) =
        LogWriter::resume(dir).map_err(|e| format!("journal recovery failed: {e}"))?;
    let scanned = redrive_into(dir, run).map_err(|e| format!("journal replay failed: {e}"))?;
    Ok((writer, scanned.records))
}

/// Applies one `Post`/`Read`: checks it against the trace and the key
/// order, journals it, steps the run, and builds the ack from the run's
/// verdict. A refusal leaves journal and run untouched.
fn apply_request(
    req: &Request,
    realized: &Realized,
    run: &mut SimRun<'_>,
    journal: Option<&mut LogWriter>,
) -> Result<Response, String> {
    let ev = req.to_event(realized.activities(), realized.user_count())?;
    run.check_order(&ev).map_err(|e| e.to_string())?;
    // Write-ahead: the request reaches the journal (flushed) before any
    // of its effects reach the runtime, so a crash at any point is
    // recoverable.
    if let Some(j) = journal {
        j.append(&ev, realized.chain_of(&ev))
            .map_err(|e| format!("journal append failed: {e}"))?;
    }
    let online = run.step(ev).map_err(|e| e.to_string())?;
    Ok(match ev.event {
        Event::Post { .. } => Response::PostAck { delivered: online },
        _ => Response::ReadAck { served: online },
    })
}

/// Runs one opened simulation to its `Finish` (or EOF/shutdown).
/// Returns whether the connection should keep serving.
fn run_simulation(
    stream: &mut UnixStream,
    flag: &ShutdownFlag,
    spec: &SimSpec,
    store: Option<&Arc<StoreGate>>,
) -> io::Result<bool> {
    // The dataset is only the recipe's input: once realized it is dropped.
    let realized = match spec.synthesize() {
        Ok(dataset) => spec.realize(&dataset),
        Err(e) => {
            respond(stream, &Response::Error { message: format!("cannot open session: {e}") })?;
            return Ok(true);
        }
    };
    let mut run = realized.start();
    // Claim and open the journal (recovering an interrupted session)
    // before Opened, so the driver learns how many requests to skip.
    // `_journal_claim` holds the store gate for the whole session; its
    // drop (on every exit path) releases the journal for the next open.
    let mut _journal_claim = None;
    let mut journal: Option<LogWriter> = None;
    let mut recovered = 0u64;
    if let Some(gate) = store {
        let Some(held) = gate.claim() else {
            respond(stream, &Response::Error {
                message: "the journal is held by another session".to_string(),
            })?;
            return Ok(true);
        };
        match open_journal(held.dir(), spec, &mut run) {
            Ok((writer, n)) => {
                journal = Some(writer);
                recovered = n;
                _journal_claim = Some(held);
            }
            Err(message) => {
                respond(stream, &Response::Error { message })?;
                return Ok(true);
            }
        }
    }
    respond(stream, &Response::Opened {
        users: realized.user_count().min(u32::MAX as usize) as u32,
        span_days: realized.span_days(),
        posts: realized.activities().len().min(u32::MAX as usize) as u32,
        recovered,
    })?;

    loop {
        match next_request(stream, flag)? {
            Incoming::Eof => return Ok(false),
            Incoming::Shutdown => {
                // Sessions are replay state, not durable data: a daemon
                // shutdown simply abandons the run.
                return Ok(false);
            }
            Incoming::Frame(Request::Ping) => respond(stream, &Response::Pong)?,
            Incoming::Frame(Request::Shutdown) => {
                respond(stream, &Response::ShuttingDown)?;
                flag.request();
                return Ok(false);
            }
            Incoming::Frame(req @ (Request::Post { .. } | Request::Read { .. })) => {
                let reply = apply_request(&req, &realized, &mut run, journal.as_mut())
                    .unwrap_or_else(|message| Response::Error { message });
                respond(stream, &reply)?;
            }
            Incoming::Frame(Request::Finish) => {
                // Seal the journal (final sync + index) before folding
                // the report: a durability failure must surface, not
                // vanish behind a successful-looking report.
                if let Some(j) = journal.take() {
                    if let Err(e) = j.finish() {
                        respond(stream, &Response::Error {
                            message: format!("journal finish failed: {e}"),
                        })?;
                        return Ok(true);
                    }
                }
                let (report, _) = run.finish();
                respond(stream, &Response::Report(ReportParts::from_report(&report)))?;
                return Ok(true);
            }
            Incoming::Frame(other) => respond(stream, &Response::Error {
                message: format!("session already open; {} is out of order", request_name(&other)),
            })?,
        }
    }
}

fn request_name(req: &Request) -> &'static str {
    match req {
        Request::Hello { .. } => "Hello",
        Request::Open(_) => "Open",
        Request::Post { .. } => "Post",
        Request::Read { .. } => "Read",
        Request::Finish => "Finish",
        Request::Ping => "Ping",
        Request::Shutdown => "Shutdown",
    }
}

fn respond(stream: &mut UnixStream, resp: &Response) -> io::Result<()> {
    write_frame(stream, &encode_response(resp))
}

/// Reads the next request frame, polling the shutdown flag on read
/// timeouts. A malformed frame is a hard error (the stream position is
/// unrecoverable once framing is suspect).
fn next_request(stream: &mut UnixStream, flag: &ShutdownFlag) -> io::Result<Incoming> {
    let mut header = [0u8; 4];
    match read_full(stream, &mut header, flag, true)? {
        Progress::Done => {}
        Progress::Eof => return Ok(Incoming::Eof),
        Progress::Shutdown => return Ok(Incoming::Shutdown),
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized { announced: len as u64 }.into());
    }
    let mut payload = vec![0u8; len];
    match read_full(stream, &mut payload, flag, false)? {
        Progress::Done => {}
        Progress::Eof => return Err(io::ErrorKind::UnexpectedEof.into()),
        Progress::Shutdown => return Ok(Incoming::Shutdown),
    }
    Ok(Incoming::Frame(decode_request(&payload)?))
}

enum Progress {
    Done,
    Eof,
    Shutdown,
}

/// Fills `buf` from the stream, treating read timeouts as shutdown-poll
/// points. `eof_ok` marks the frame boundary, where a clean close is
/// expected; inside a frame EOF stays an error signal.
fn read_full(
    stream: &mut UnixStream,
    buf: &mut [u8],
    flag: &ShutdownFlag,
    eof_ok: bool,
) -> io::Result<Progress> {
    let mut filled = 0usize;
    while filled < buf.len() {
        if flag.is_set() {
            return Ok(Progress::Shutdown);
        }
        let Some(rest) = buf.get_mut(filled..) else { break };
        match stream.read(rest) {
            Ok(0) if filled == 0 && eof_ok => return Ok(Progress::Eof),
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Progress::Done)
}
