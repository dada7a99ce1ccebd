//! The per-connection state machine: handshake, then one simulation
//! per `Open`, stepped in the batches of requests the socket delivers.
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
//!
//! The batching is explicit. One read ([`FrameReader::fill`]) takes
//! whatever the client has written; every complete `Post`/`Read` frame
//! in it is admitted in turn (checked, not yet applied); then the batch
//! is committed — one journal flush, then the steps — and its replies
//! go out in one write, one per request in request order. Any other
//! frame ends the batch. The session commits before it blocks for more
//! bytes, so it never waits while holding unanswered requests.

use std::io::{self, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use dosn_node::{Event, OutOfOrder, Realized, ScheduledEvent, SimRun};
use dosn_store::{log_exists, read_header, redrive_into, LogKind, LogWriter};

use crate::codec::{
    decode_request, decode_spec, encode_response, encode_spec, frame_into, FrameReader,
};
use crate::protocol::{ReportParts, Request, Response, SimSpec, PROTOCOL_VERSION};
use crate::server::StoreGate;
use crate::shutdown::ShutdownFlag;

/// How long a blocking read waits before the session re-checks the
/// shutdown flag. Short enough for a prompt SIGTERM exit, long enough
/// to stay off the scheduler between requests.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// One connection: the frames read but not yet handled, and the reply
/// frames queued but not yet written.
struct Conn {
    stream: UnixStream,
    frames: FrameReader,
    replies: Vec<u8>,
}

impl Conn {
    /// Queues one reply behind those already queued.
    fn queue(&mut self, resp: &Response) -> io::Result<()> {
        Ok(frame_into(&mut self.replies, &encode_response(resp))?)
    }

    /// Writes every queued reply with one write.
    fn send(&mut self) -> io::Result<()> {
        if !self.replies.is_empty() {
            self.stream.write_all(&self.replies)?;
            self.replies.clear();
        }
        Ok(())
    }

    /// Queues `resp` and writes it out behind everything queued before.
    fn respond(&mut self, resp: &Response) -> io::Result<()> {
        self.queue(resp)?;
        self.send()
    }

    /// Writes what is queued, then hands back `e`: a malformed frame
    /// ends the connection, but the replies to what arrived before it
    /// still go out.
    fn fail(&mut self, e: io::Error) -> io::Error {
        let _unsendable = self.send();
        e
    }

    /// The next request already buffered, if a complete frame is. A
    /// malformed frame is a hard error: the stream position is
    /// unrecoverable once framing is suspect.
    fn buffered(&mut self) -> io::Result<Option<Request>> {
        match self.frames.next_frame()? {
            Some(payload) => Ok(Some(decode_request(payload)?)),
            None => Ok(None),
        }
    }

    /// Sends the queued replies, then waits for more request bytes,
    /// re-checking the shutdown flag at every read timeout. Returns
    /// whether bytes arrived; `false` means the connection is done —
    /// the peer closed it at a frame boundary or shutdown was requested.
    fn fill(&mut self, flag: &ShutdownFlag) -> io::Result<bool> {
        self.send()?;
        loop {
            if flag.is_set() {
                return Ok(false);
            }
            match self.frames.fill(&mut self.stream) {
                Ok(arrived) => return Ok(arrived),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut
                        || e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The next request, waiting for it if none is buffered; `None`
    /// once the connection is done.
    fn next_request(&mut self, flag: &ShutdownFlag) -> io::Result<Option<Request>> {
        loop {
            match self.buffered() {
                Ok(Some(req)) => return Ok(Some(req)),
                Ok(None) => {}
                Err(e) => return Err(self.fail(e)),
            }
            if !self.fill(flag)? {
                return Ok(None);
            }
        }
    }
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
    stream: UnixStream,
    flag: &ShutdownFlag,
    store: Option<&Arc<StoreGate>>,
) -> io::Result<()> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let mut conn = Conn { stream, frames: FrameReader::new(), replies: Vec::new() };
    // Handshake: the first frame must be a compatible Hello.
    match conn.next_request(flag)? {
        None => return Ok(()),
        Some(Request::Hello { version }) if version == PROTOCOL_VERSION => {
            conn.queue(&Response::Welcome { version: PROTOCOL_VERSION })?;
        }
        Some(Request::Hello { version }) => {
            return conn.respond(&Response::Error {
                message: format!(
                    "protocol version {version} unsupported (daemon speaks {PROTOCOL_VERSION})"
                ),
            });
        }
        Some(_) => {
            return conn.respond(&Response::Error {
                message: "expected Hello as the first frame".to_string(),
            });
        }
    }
    // Steady state: sessions open, run, and may open again.
    loop {
        match conn.next_request(flag)? {
            None => return Ok(()),
            Some(Request::Ping) => conn.queue(&Response::Pong)?,
            Some(Request::Shutdown) => {
                conn.respond(&Response::ShuttingDown)?;
                flag.request();
                return Ok(());
            }
            Some(Request::Open(spec)) => {
                if !run_simulation(&mut conn, flag, &spec, store)? {
                    return Ok(());
                }
            }
            Some(other) => conn.queue(&Response::Error {
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

/// A keyed request's place in the batch being drained.
enum Slot {
    /// Checked against the trace and the key order; waits for the
    /// group commit.
    Admitted(ScheduledEvent),
    /// Refused; answered with this message and never journaled.
    Refused(String),
}

/// The `Post`/`Read` requests drained from the buffer since the last
/// commit, in arrival order.
#[derive(Default)]
struct Batch {
    slots: Vec<Slot>,
    /// The last admitted key, which the next request must order after.
    last: Option<ScheduledEvent>,
}

impl Batch {
    /// Admits `req` or refuses it, in its arrival slot. Its key must
    /// order after the batch's last admitted one, or after the run's last
    /// applied one if it is the first.
    fn admit(&mut self, req: &Request, realized: &Realized, run: &SimRun<'_>) {
        let checked = req.to_event(realized.activities(), realized.user_count()).and_then(|ev| {
            match self.last {
                Some(last) if ev <= last => Err(OutOfOrder { got: ev, last }),
                Some(_) => Ok(()),
                None => run.check_order(&ev),
            }
            .map(|()| ev)
            .map_err(|e| e.to_string())
        });
        self.slots.push(match checked {
            Ok(ev) => {
                self.last = Some(ev);
                Slot::Admitted(ev)
            }
            Err(message) => Slot::Refused(message),
        });
    }

    /// Group-commits the batch and queues one reply per request, in
    /// arrival order. Write-ahead: every admitted request is journaled
    /// with one flush before any of them is stepped, so a crash at any
    /// point is recoverable and no ack leaves ahead of its record. If the
    /// flush fails, the whole batch is answered with `Error` and the run
    /// is not stepped.
    fn commit(
        &mut self,
        conn: &mut Conn,
        realized: &Realized,
        run: &mut SimRun<'_>,
        journal: Option<&mut LogWriter>,
    ) -> io::Result<()> {
        self.last = None;
        let journaled = match journal {
            Some(j) => j
                .append_batch(self.slots.iter().filter_map(|slot| match slot {
                    Slot::Admitted(ev) => Some((ev, realized.chain_of(ev))),
                    Slot::Refused(_) => None,
                }))
                .map_err(|e| format!("journal append failed: {e}")),
            None => Ok(()),
        };
        for slot in self.slots.drain(..) {
            let reply = match (slot, &journaled) {
                (Slot::Refused(message), _) => Response::Error { message },
                (Slot::Admitted(_), Err(message)) => Response::Error { message: message.clone() },
                (Slot::Admitted(ev), Ok(())) => match run.step(ev) {
                    Ok(online) => match ev.event {
                        Event::Post { .. } => Response::PostAck { delivered: online },
                        _ => Response::ReadAck { served: online },
                    },
                    Err(e) => Response::Error { message: e.to_string() },
                },
            };
            conn.queue(&reply)?;
        }
        Ok(())
    }
}

/// Runs one opened simulation to its `Finish` (or EOF/shutdown).
/// Returns whether the connection should keep serving.
///
/// Requests are drained in batches: every complete `Post`/`Read` frame
/// one fill delivered is admitted in turn, and the batch is committed
/// (one journal flush, then the steps) before any other frame is handled
/// and before the session blocks for more bytes — so it never waits
/// while holding unanswered requests, and all of a batch's replies go
/// out in one write.
fn run_simulation(
    conn: &mut Conn,
    flag: &ShutdownFlag,
    spec: &SimSpec,
    store: Option<&Arc<StoreGate>>,
) -> io::Result<bool> {
    // The dataset is only the recipe's input: once realized it is dropped.
    let realized = match spec.synthesize() {
        Ok(dataset) => spec.realize(&dataset),
        Err(e) => {
            conn.queue(&Response::Error { message: format!("cannot open session: {e}") })?;
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
            conn.queue(&Response::Error {
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
                conn.queue(&Response::Error { message })?;
                return Ok(true);
            }
        }
    }
    conn.queue(&Response::Opened {
        users: realized.user_count().min(u32::MAX as usize) as u32,
        span_days: realized.span_days(),
        posts: realized.activities().len().min(u32::MAX as usize) as u32,
        recovered,
    })?;

    let mut batch = Batch::default();
    loop {
        let req = match conn.buffered() {
            Ok(Some(req @ (Request::Post { .. } | Request::Read { .. }))) => {
                batch.admit(&req, &realized, &run);
                continue;
            }
            Ok(Some(req)) => req,
            Ok(None) => {
                batch.commit(conn, &realized, &mut run, journal.as_mut())?;
                if conn.fill(flag)? {
                    continue;
                }
                // EOF or shutdown. Sessions are replay state, not durable
                // data: the run is simply abandoned.
                return Ok(false);
            }
            Err(e) => {
                // A malformed frame ends the connection; what arrived
                // before it is still answered.
                batch.commit(conn, &realized, &mut run, journal.as_mut())?;
                return Err(conn.fail(e));
            }
        };
        // Any other frame ends the batch.
        batch.commit(conn, &realized, &mut run, journal.as_mut())?;
        match req {
            Request::Ping => conn.queue(&Response::Pong)?,
            Request::Shutdown => {
                conn.respond(&Response::ShuttingDown)?;
                flag.request();
                return Ok(false);
            }
            Request::Finish => {
                // Seal the journal (final sync + index) before folding
                // the report: a durability failure must surface, not
                // vanish behind a successful-looking report.
                if let Some(j) = journal.take() {
                    if let Err(e) = j.finish() {
                        conn.queue(&Response::Error {
                            message: format!("journal finish failed: {e}"),
                        })?;
                        return Ok(true);
                    }
                }
                let (report, _) = run.finish();
                conn.queue(&Response::Report(ReportParts::from_report(&report)))?;
                return Ok(true);
            }
            other => conn.queue(&Response::Error {
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
