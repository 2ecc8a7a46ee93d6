//! The network serving edge: a std-only TCP wire protocol over the
//! [`QueryServer`].
//!
//! # Wire protocol (`mdq/1`)
//!
//! Newline-framed text, one frame per line, UTF-8. The server greets
//! with `HELLO mdq/1`; the client then speaks:
//!
//! | client frame               | meaning                                   |
//! |----------------------------|-------------------------------------------|
//! | `TENANT <name>`            | run subsequent queries as this tenant (an unseen name self-registers, within [`MAX_TENANT_NAME_BYTES`] and [`MAX_WIRE_TENANTS`]) |
//! | `QUERY [k=<n>] <text>`     | submit query text (conjunctive syntax)    |
//! | `SUBSCRIBE [k=<n>] <text>` | register a standing query                 |
//! | `POLL <id>`                | drain the subscription's queued deltas (own/operator-managed ids only) |
//! | `REFRESH`                  | run one refresh pass (operator tenants only) |
//! | `UNSUBSCRIBE <id>`         | deregister a standing query (own/operator-managed ids only) |
//! | `PING`                     | liveness probe                            |
//! | `QUIT`                     | close the connection                      |
//!
//! and the server answers:
//!
//! | server frame                  | meaning                             |
//! |-------------------------------|-------------------------------------|
//! | `OK tenant=<id>`              | tenant handshake accepted           |
//! | `ANSWER <tuple>`              | one answer, streamed in rank order  |
//! | `DONE answers=<n> calls=<n> wall_ms=<n> partial=<bool>` | stream end |
//! | `SUBSCRIBED id=<n> epoch=<n> answers=<n>` | standing query accepted; exactly `answers` `ANSWER` frames follow |
//! | `DELTA id=<n> epoch=<n> op=<+\|-> <tuple>` | one incremental answer change (`-` rows precede `+` rows per epoch) |
//! | `SYNCED id=<n> epoch=<n> deltas=<n>` | poll response end, after `deltas` `DELTA` frames |
//! | `REFRESHED epoch=<n> refreshed=<n> changed=<n> calls=<n> deltas=<n>` | one refresh pass completed |
//! | `UNSUBSCRIBED id=<n>`         | the standing query is gone          |
//! | `ERR <reason>`                | the query (or frame) failed         |
//! | `SHED retry-after-ms=<n>`     | admission control refused the query |
//! | `DRAINING`                    | the server is shutting down         |
//! | `PONG` / `BYE`                | ping reply / close acknowledgement  |
//!
//! Standing queries are tenant-scoped end to end: `SUBSCRIBE` passes
//! the same admission gates as `QUERY` (spent-budget shed, per-query
//! call budget on the materializing evaluation, a per-tenant
//! subscription cap), `POLL`/`UNSUBSCRIBE` answer `ERR unknown
//! subscription` for any id the connection's tenant does not own
//! (ids are sequential — without the check a client could drain or
//! deregister a stranger's stream by guessing), and `REFRESH` requires
//! the tenant's [`TenantPolicy::operator`] flag. Operator tenants may
//! manage any subscription.
//!
//! Load shedding is part of the protocol, not an error path: a `SHED`
//! frame carries the server's retry-after hint and the connection stays
//! usable — a well-behaved client backs off and retries. Graceful
//! drain likewise: [`NetServer::shutdown`] stops accepting connections
//! (new ones get `DRAINING`), lets every in-flight query finish, sends
//! idle connections `DRAINING`, and only then shuts the query server
//! down.
//!
//! # No timer on the connection path
//!
//! Every wait on the accept → hello → frame → close path is a blocking
//! system call, and drain is *signalled*, never polled. The accept
//! thread sleeps in `accept()`; [`NetServer::shutdown`] sets the drain
//! flag and wakes it with one throw-away connect to the listener's own
//! port. A handler sleeps in `read()`; the accept thread keeps a second
//! handle on every accepted socket, and drain shuts the *read half* of
//! each live one — the blocked read returns end-of-file, the handler
//! sees the flag and says `DRAINING` + `BYE` over the write half, which
//! is still open. A query in flight is not reading, so it finishes and
//! streams its answers first. The one sleep left is the back-off after
//! a failing `accept()` (file-descriptor exhaustion), so that loop
//! cannot spin.
//!
//! The server closes first: a handler ends by shutting its socket down
//! (both halves), so the FIN follows the last frame without waiting
//! for the accept thread to drop its handle, and the `TIME_WAIT` entry
//! lands on the server's side of the pair — which is what lets a
//! client open connections faster than ephemeral ports expire.
//!
//! A client frame is at most 64 KiB long, newline included; a peer
//! that sends more without a newline is answered `ERR frame too long`
//! and disconnected.
//!
//! # One write per burst
//!
//! A frame is a line, but a write is a *burst*: every frame a handler
//! has to say is encoded into the connection's one buffer
//! (`ServerFrame::encode_into`), and the buffer leaves in a single
//! `write_all` at the moment the handler would block — before the next
//! read of a client frame, and, while a query streams, whenever the
//! worker has no further event ready. The invariant is that the buffer
//! is empty whenever the handler blocks, so nothing the server has
//! already produced ever waits on something it has not: a query held
//! up by a slow service still puts each answer on the wire as soon as
//! it exists, while a top-k served from cached pages — all of it ready
//! by the time the handler looks — leaves as one segment, which the
//! client reads with one wake-up instead of one per `ANSWER`. The same
//! path carries every reply: `HELLO`, `ANSWER…DONE`, `SUBSCRIBED` and
//! its answers, `DELTA…SYNCED`, `ERR`, `SHED`, `DRAINING` + `BYE`. The
//! bytes on the wire are those of one write per frame; only the write
//! boundaries differ.
//!
//! The buffer is also flushed when it reaches 64 KiB, queued events or
//! not: the session channel is unbounded, so a large, fully cached
//! stream can outrun the socket, and the buffer must be bounded by a
//! constant rather than by k. A failed write ends the connection, and
//! dropping the session is what cancels the query: the worker's next
//! send fails and it stops pulling. [`NetClient`] mirrors the economy
//! on its side — one send buffer, one line buffer, reused.

use crate::server::{QueryServer, Rejection};
use crate::session::{QuerySession, SessionEvent};
use crate::tenant::{TenantPolicy, DEFAULT_TENANT};
use mdq_exec::gateway::TenantId;
use mdq_exec::store::recover;
use mdq_model::value::Tuple;
use mdq_obs::span::SpanKind;
use std::fmt::{self, Write as _};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::TryRecvError;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a handler buffers per direction. Reading, it is the longest
/// client frame accepted, newline included: a query text is a few
/// hundred bytes, and the cap only bounds what a peer that never sends
/// `\n` can make a handler hold. Writing, it is the size at which
/// queued reply frames are flushed without waiting for the burst to
/// end.
const MAX_FRAME_BYTES: usize = 64 * 1024;

/// The longest name a `TENANT` frame may self-register. A registered
/// name is kept for the server's lifetime and compared on every later
/// handshake, so it must not be whatever fits in a frame.
pub const MAX_TENANT_NAME_BYTES: usize = 64;

/// How many tenants `TENANT` frames may self-register per listener.
/// Each is a registry entry, a budget cell, a scheduler queue and a row
/// of every metrics snapshot, none of which is ever released; tenants
/// the operator registers through [`QueryServer::register_tenant`] are
/// not counted.
pub const MAX_WIRE_TENANTS: usize = 1024;

/// How long the accept loop backs off after `accept()`, or the `dup`
/// or thread spawn behind it, fails (`EMFILE` and friends persist until
/// a connection closes — retrying at once would spin).
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Why an encoder may unwrap its `fmt::Result`.
const STRING_WRITE: &str = "a String accepts every write";

/// Writes through to the sink it wraps with newline characters
/// escaped, so that whatever is displayed into it fits a one-line frame.
struct OneLine<W>(W);

impl<W: fmt::Write> fmt::Write for OneLine<W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        // a displayed value arrives in short pieces: one byte scan each
        let mut rest = s;
        while let Some(at) = rest.bytes().position(|b| b == b'\n' || b == b'\r') {
            self.0.write_str(&rest[..at])?;
            self.0.write_str(if rest.as_bytes()[at] == b'\n' {
                "\\n"
            } else {
                "\\r"
            })?;
            rest = &rest[at + 1..];
        }
        self.0.write_str(rest)
    }
}

/// Appends `text` as displayed, newlines escaped.
fn one_line(out: &mut String, text: impl fmt::Display) -> fmt::Result {
    write!(OneLine(out), "{text}")
}

/// Appends `<verb> [k=<n>] <text>`, the line `QUERY` and `SUBSCRIBE`
/// share ([`parse_query_tail`] reads it back).
fn write_query(out: &mut String, verb: &str, k: Option<u64>, text: &str) -> fmt::Result {
    match k {
        Some(k) => write!(out, "{verb} k={k} ")?,
        None => write!(out, "{verb} ")?,
    }
    one_line(out, text)
}

/// One frame from client to server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientFrame {
    /// `TENANT <name>` — run subsequent queries as this tenant
    /// (registered with an unlimited policy if unknown; an existing
    /// registration keeps its policy).
    Tenant {
        /// The tenant name.
        name: String,
    },
    /// `QUERY [k=<n>] <text>` — submit query text.
    Query {
        /// Answer target (`None` = the server's default).
        k: Option<u64>,
        /// The query text.
        text: String,
    },
    /// `SUBSCRIBE [k=<n>] <text>` — register a standing query.
    Subscribe {
        /// Answer target (`None` = the server's default).
        k: Option<u64>,
        /// The query text.
        text: String,
    },
    /// `POLL <id>` — drain a subscription's queued deltas.
    Poll {
        /// The subscription id from `SUBSCRIBED`.
        id: u64,
    },
    /// `REFRESH` — run one refresh pass now (operator tenants only —
    /// a pass re-fetches every tracked invocation for all tenants; a
    /// deployment would drive this from a timer).
    Refresh,
    /// `UNSUBSCRIBE <id>` — deregister a standing query.
    Unsubscribe {
        /// The subscription id from `SUBSCRIBED`.
        id: u64,
    },
    /// `PING` — liveness probe.
    Ping,
    /// `QUIT` — close the connection.
    Quit,
}

impl ClientFrame {
    /// Encodes the frame as one line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut line = String::new();
        self.write_to(&mut line).expect(STRING_WRITE);
        line
    }

    /// Appends the frame's line (no trailing newline) to `out`.
    fn write_to(&self, out: &mut String) -> fmt::Result {
        match self {
            ClientFrame::Tenant { name } => {
                out.push_str("TENANT ");
                one_line(out, name)
            }
            ClientFrame::Query { k, text } => write_query(out, "QUERY", *k, text),
            ClientFrame::Subscribe { k, text } => write_query(out, "SUBSCRIBE", *k, text),
            ClientFrame::Poll { id } => write!(out, "POLL {id}"),
            ClientFrame::Refresh => out.write_str("REFRESH"),
            ClientFrame::Unsubscribe { id } => write!(out, "UNSUBSCRIBE {id}"),
            ClientFrame::Ping => out.write_str("PING"),
            ClientFrame::Quit => out.write_str("QUIT"),
        }
    }

    /// Parses one line into a frame.
    pub fn parse(line: &str) -> Result<ClientFrame, String> {
        let line = line.trim_end_matches(['\r', '\n']);
        let (verb, rest) = match line.split_once(' ') {
            Some((verb, rest)) => (verb, rest.trim_start()),
            None => (line, ""),
        };
        match verb {
            "TENANT" => {
                if rest.is_empty() {
                    return Err("TENANT requires a name".to_string());
                }
                Ok(ClientFrame::Tenant {
                    name: rest.to_string(),
                })
            }
            "QUERY" => {
                let (k, text) = parse_query_tail(verb, rest)?;
                Ok(ClientFrame::Query { k, text })
            }
            "SUBSCRIBE" => {
                let (k, text) = parse_query_tail(verb, rest)?;
                Ok(ClientFrame::Subscribe { k, text })
            }
            "POLL" => Ok(ClientFrame::Poll {
                id: parse_id(verb, rest)?,
            }),
            "REFRESH" => Ok(ClientFrame::Refresh),
            "UNSUBSCRIBE" => Ok(ClientFrame::Unsubscribe {
                id: parse_id(verb, rest)?,
            }),
            "PING" => Ok(ClientFrame::Ping),
            "QUIT" => Ok(ClientFrame::Quit),
            other => Err(format!("unknown frame {other:?}")),
        }
    }
}

/// Parses the `[k=<n>] <text>` tail shared by `QUERY` and `SUBSCRIBE`.
fn parse_query_tail(verb: &str, rest: &str) -> Result<(Option<u64>, String), String> {
    let (k, text) = match rest.strip_prefix("k=") {
        Some(tail) => {
            let (num, text) = tail.split_once(' ').unwrap_or((tail, ""));
            let k = num
                .parse::<u64>()
                .map_err(|_| format!("bad k value {num:?}"))?;
            (Some(k), text.trim_start())
        }
        None => (None, rest),
    };
    if text.is_empty() {
        return Err(format!("{verb} requires query text"));
    }
    Ok((k, text.to_string()))
}

/// Parses the `<id>` operand of `POLL` / `UNSUBSCRIBE`.
fn parse_id(verb: &str, rest: &str) -> Result<u64, String> {
    rest.trim()
        .parse::<u64>()
        .map_err(|_| format!("{verb} requires a numeric subscription id, got {rest:?}"))
}

/// One frame from server to client.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerFrame {
    /// `HELLO mdq/1` — greeting, names the protocol version.
    Hello {
        /// The protocol identifier (`mdq/1`).
        proto: String,
    },
    /// `OK tenant=<id>` — tenant handshake accepted.
    Ok {
        /// The tenant id the connection now runs as.
        tenant: TenantId,
    },
    /// `ANSWER <tuple>` — one answer, in rank order.
    Answer {
        /// The rendered tuple.
        tuple: String,
    },
    /// `DONE …` — the answer stream ended normally.
    Done {
        /// Answers streamed.
        answers: u64,
        /// Request-responses the query forwarded to services.
        calls: u64,
        /// Wall-clock milliseconds from dequeue to completion.
        wall_ms: u64,
        /// Whether the answers are partial (some service degraded).
        partial: bool,
    },
    /// `SUBSCRIBED id=<n> epoch=<n> answers=<n>` — standing query
    /// accepted; exactly `answers` `ANSWER` frames follow with the
    /// initial answers.
    Subscribed {
        /// The subscription id (use with `POLL` / `UNSUBSCRIBE`).
        id: u64,
        /// The epoch the initial answers reflect.
        epoch: u64,
        /// How many `ANSWER` frames follow.
        answers: u64,
    },
    /// `DELTA id=<n> epoch=<n> op=<+|-> <tuple>` — one incremental
    /// answer change of a standing query (`-` rows of an epoch precede
    /// its `+` rows).
    Delta {
        /// The subscription the change belongs to.
        id: u64,
        /// The epoch the change brings the subscriber to.
        epoch: u64,
        /// `true` = the row appeared (`op=+`), `false` = it was
        /// retracted (`op=-`).
        added: bool,
        /// The rendered tuple.
        tuple: String,
    },
    /// `SYNCED id=<n> epoch=<n> deltas=<n>` — poll response end, after
    /// `deltas` `DELTA` frames; the subscriber is now current as of
    /// `epoch`.
    Synced {
        /// The polled subscription.
        id: u64,
        /// The epoch the subscriber is now current to.
        epoch: u64,
        /// `DELTA` frames that preceded this frame.
        deltas: u64,
    },
    /// `REFRESHED epoch=<n> refreshed=<n> changed=<n> calls=<n>
    /// deltas=<n>` — one refresh pass completed.
    Refreshed {
        /// The epoch the pass advanced the clock to.
        epoch: u64,
        /// Tracked invocations re-fetched.
        refreshed: u64,
        /// Invocations whose page sets changed.
        changed: u64,
        /// Request-response attempts the pass issued.
        calls: u64,
        /// Deltas queued to subscribers.
        deltas: u64,
    },
    /// `UNSUBSCRIBED id=<n>` — the standing query is deregistered.
    Unsubscribed {
        /// The deregistered subscription.
        id: u64,
    },
    /// `ERR <reason>` — the query (or the frame itself) failed.
    Err {
        /// Human-readable reason.
        reason: String,
    },
    /// `SHED retry-after-ms=<n>` — admission control refused the
    /// query; retry after the hint.
    Shed {
        /// The server's retry-after hint, in milliseconds.
        retry_after_ms: u64,
    },
    /// `DRAINING` — the server is shutting down and accepts no more
    /// queries on this connection.
    Draining,
    /// `PONG` — ping reply.
    Pong,
    /// `BYE` — close acknowledgement.
    Bye,
}

impl ServerFrame {
    /// Encodes the frame as one line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut line = String::new();
        self.encode_into(&mut line);
        line
    }

    /// Appends the `ANSWER` line of `tuple` (no trailing newline) to
    /// `out`, rendering the tuple straight into it — the one answer
    /// encoder. [`ServerFrame::Answer`] encodes its text through it, and
    /// a connection streams a session's tuples through it without a
    /// `String` per answer; the bytes are the same either way.
    pub fn encode_answer(out: &mut String, tuple: &dyn fmt::Display) {
        out.push_str("ANSWER ");
        one_line(out, tuple).expect(STRING_WRITE);
    }

    /// Appends the frame's line (no trailing newline) to `out` — what
    /// [`encode`](ServerFrame::encode) returns, without the `String`
    /// per frame.
    fn encode_into(&self, out: &mut String) {
        let written = match self {
            ServerFrame::Hello { proto } => write!(out, "HELLO {proto}"),
            ServerFrame::Ok { tenant } => write!(out, "OK tenant={tenant}"),
            ServerFrame::Answer { tuple } => {
                Self::encode_answer(out, tuple);
                Ok(())
            }
            ServerFrame::Done {
                answers,
                calls,
                wall_ms,
                partial,
            } => write!(
                out,
                "DONE answers={answers} calls={calls} wall_ms={wall_ms} partial={partial}"
            ),
            ServerFrame::Subscribed { id, epoch, answers } => {
                write!(out, "SUBSCRIBED id={id} epoch={epoch} answers={answers}")
            }
            ServerFrame::Delta {
                id,
                epoch,
                added,
                tuple,
            } => {
                let op = if *added { '+' } else { '-' };
                write!(out, "DELTA id={id} epoch={epoch} op={op} ")
                    .and_then(|()| one_line(out, tuple))
            }
            ServerFrame::Synced { id, epoch, deltas } => {
                write!(out, "SYNCED id={id} epoch={epoch} deltas={deltas}")
            }
            ServerFrame::Refreshed {
                epoch,
                refreshed,
                changed,
                calls,
                deltas,
            } => write!(
                out,
                "REFRESHED epoch={epoch} refreshed={refreshed} changed={changed} calls={calls} deltas={deltas}"
            ),
            ServerFrame::Unsubscribed { id } => write!(out, "UNSUBSCRIBED id={id}"),
            ServerFrame::Err { reason } => {
                out.push_str("ERR ");
                one_line(out, reason)
            }
            ServerFrame::Shed { retry_after_ms } => {
                write!(out, "SHED retry-after-ms={retry_after_ms}")
            }
            ServerFrame::Draining => out.write_str("DRAINING"),
            ServerFrame::Pong => out.write_str("PONG"),
            ServerFrame::Bye => out.write_str("BYE"),
        };
        written.expect(STRING_WRITE);
    }

    /// Parses one line into a frame.
    pub fn parse(line: &str) -> Result<ServerFrame, String> {
        fn field<T: std::str::FromStr>(part: &str, key: &str) -> Result<T, String> {
            part.strip_prefix(key)
                .and_then(|v| v.strip_prefix('='))
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("expected {key}=<value>, got {part:?}"))
        }
        let line = line.trim_end_matches(['\r', '\n']);
        let (verb, rest) = match line.split_once(' ') {
            Some((verb, rest)) => (verb, rest),
            None => (line, ""),
        };
        match verb {
            "HELLO" => Ok(ServerFrame::Hello {
                proto: rest.to_string(),
            }),
            "OK" => Ok(ServerFrame::Ok {
                tenant: field(rest, "tenant")?,
            }),
            "ANSWER" => Ok(ServerFrame::Answer {
                tuple: rest.to_string(),
            }),
            "DONE" => {
                let mut parts = rest.split(' ');
                let mut next = || parts.next().ok_or_else(|| "short DONE frame".to_string());
                Ok(ServerFrame::Done {
                    answers: field(next()?, "answers")?,
                    calls: field(next()?, "calls")?,
                    wall_ms: field(next()?, "wall_ms")?,
                    partial: field(next()?, "partial")?,
                })
            }
            "SUBSCRIBED" => {
                let mut parts = rest.split(' ');
                let mut next = || {
                    parts
                        .next()
                        .ok_or_else(|| "short SUBSCRIBED frame".to_string())
                };
                Ok(ServerFrame::Subscribed {
                    id: field(next()?, "id")?,
                    epoch: field(next()?, "epoch")?,
                    answers: field(next()?, "answers")?,
                })
            }
            "DELTA" => {
                let mut parts = rest.splitn(4, ' ');
                let mut next = || parts.next().ok_or_else(|| "short DELTA frame".to_string());
                let id = field(next()?, "id")?;
                let epoch = field(next()?, "epoch")?;
                let added = match next()? {
                    "op=+" => true,
                    "op=-" => false,
                    other => return Err(format!("expected op=+ or op=-, got {other:?}")),
                };
                Ok(ServerFrame::Delta {
                    id,
                    epoch,
                    added,
                    tuple: next().unwrap_or("").to_string(),
                })
            }
            "SYNCED" => {
                let mut parts = rest.split(' ');
                let mut next = || parts.next().ok_or_else(|| "short SYNCED frame".to_string());
                Ok(ServerFrame::Synced {
                    id: field(next()?, "id")?,
                    epoch: field(next()?, "epoch")?,
                    deltas: field(next()?, "deltas")?,
                })
            }
            "REFRESHED" => {
                let mut parts = rest.split(' ');
                let mut next = || {
                    parts
                        .next()
                        .ok_or_else(|| "short REFRESHED frame".to_string())
                };
                Ok(ServerFrame::Refreshed {
                    epoch: field(next()?, "epoch")?,
                    refreshed: field(next()?, "refreshed")?,
                    changed: field(next()?, "changed")?,
                    calls: field(next()?, "calls")?,
                    deltas: field(next()?, "deltas")?,
                })
            }
            "UNSUBSCRIBED" => Ok(ServerFrame::Unsubscribed {
                id: field(rest, "id")?,
            }),
            "ERR" => Ok(ServerFrame::Err {
                reason: rest.to_string(),
            }),
            "SHED" => Ok(ServerFrame::Shed {
                retry_after_ms: field(rest, "retry-after-ms")?,
            }),
            "DRAINING" => Ok(ServerFrame::Draining),
            "PONG" => Ok(ServerFrame::Pong),
            "BYE" => Ok(ServerFrame::Bye),
            other => Err(format!("unknown frame {other:?}")),
        }
    }
}

struct NetShared {
    query: Arc<QueryServer>,
    draining: AtomicBool,
    /// Connections currently open.
    open: AtomicU64,
    /// Tenants self-registered by `TENANT` frames so far. Held across
    /// the lookup and the registration, so two connections introducing
    /// names at the cap cannot both get in.
    wire_tenants: Mutex<usize>,
}

impl NetShared {
    /// The `TENANT` handshake: the id of `name`. An unseen name
    /// self-registers with the unlimited default policy, within the
    /// two wire bounds; a registered name keeps the policy it was
    /// first registered with, whoever registered it.
    fn tenant(&self, name: &str) -> Result<TenantId, String> {
        let mut wire_tenants = recover(self.wire_tenants.lock());
        if self.query.tenant_id(name).is_none() {
            if name.len() > MAX_TENANT_NAME_BYTES {
                return Err(format!(
                    "tenant name longer than {MAX_TENANT_NAME_BYTES} bytes"
                ));
            }
            if *wire_tenants >= MAX_WIRE_TENANTS {
                return Err("too many tenants".to_string());
            }
            *wire_tenants += 1;
        }
        Ok(self.query.register_tenant(name, TenantPolicy::default()))
    }
}

/// The TCP front door: accepts connections on a listener, speaks the
/// `mdq/1` frame protocol per connection, and submits queries to the
/// wrapped [`QueryServer`] under each connection's tenant.
///
/// ```no_run
/// use mdq_runtime::net::{NetClient, NetServer};
/// use mdq_runtime::server::{QueryServer, RuntimeConfig};
/// use mdq_services::domains::news::news_world;
/// use std::sync::Arc;
///
/// let server = Arc::new(QueryServer::from_world(news_world(), RuntimeConfig::default()));
/// let net = NetServer::start(server, "127.0.0.1:0").expect("bind");
/// let mut client = NetClient::connect(net.addr()).expect("connect");
/// let outcome = client
///     .query(
///         "q(City, Venue, Price) :- events('mahler-2', City, Venue, D), \
///          lowcost('Milano', City, Price), Price <= 60.0.",
///         Some(5),
///     )
///     .expect("wire io");
/// net.shutdown();
/// ```
pub struct NetServer {
    shared: Arc<NetShared>,
    addr: SocketAddr,
    accept: Mutex<Option<JoinHandle<Vec<Conn>>>>,
}

/// One accepted connection as the accept thread tracks it: the
/// handler's thread, and a second handle on its socket through which
/// drain shuts the read half.
type Conn = (JoinHandle<()>, TcpStream);

/// Where a connect reaches a listener bound to `bound`: the address
/// itself, or loopback when it is the unspecified address (`0.0.0.0`,
/// `::`), which names every interface but is no destination.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// The accept loop: blocks in `accept()`, spawns one handler thread
/// per connection, and returns the connections still tracked once the
/// drain flag is up (the first connection accepted after that — the
/// wake-up connect of [`NetServer::shutdown`] or a late client — is
/// refused with a drain notice).
fn accept_loop(shared: &Arc<NetShared>, listener: &TcpListener) -> Vec<Conn> {
    let mut conns: Vec<Conn> = Vec::new();
    while !shared.draining.load(Ordering::Acquire) {
        let Ok((stream, peer)) = listener.accept() else {
            std::thread::sleep(ACCEPT_ERROR_BACKOFF);
            continue;
        };
        if shared.draining.load(Ordering::Acquire) {
            // refuse with a drain notice, never silently
            let mut out = FrameWriter::new(&stream);
            out.push(&ServerFrame::Draining);
            out.push(&ServerFrame::Bye);
            out.flush();
            break;
        }
        // dropping a finished entry closes this side's handle; the
        // handler already shut the socket down, so the peer is not
        // waiting on it
        conns.retain(|(handle, _)| !handle.is_finished());
        // out of descriptors or threads: the peer sees a close, and the
        // loop waits for a connection to end like any failed accept
        let conn = stream.try_clone().and_then(|drain_handle| {
            let shared = Arc::clone(shared);
            let handler = move || handle_connection(&shared, &stream, peer);
            Ok((std::thread::Builder::new().spawn(handler)?, drain_handle))
        });
        match conn {
            Ok(conn) => conns.push(conn),
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
    conns
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the accept loop over `query`.
    pub fn start(query: Arc<QueryServer>, addr: &str) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(NetShared {
            query,
            draining: AtomicBool::new(false),
            open: AtomicU64::new(0),
            wire_tenants: Mutex::new(0),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener))
        };
        Ok(NetServer {
            shared,
            addr,
            accept: Mutex::new(Some(accept)),
        })
    }

    /// The bound address (resolves the actual port after binding
    /// `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently open.
    pub fn open_connections(&self) -> u64 {
        self.shared.open.load(Ordering::Acquire)
    }

    /// Graceful drain: stop accepting connections (late arrivals get
    /// `DRAINING`), let in-flight queries finish and idle connections
    /// notice the drain, join every handler, then shut the wrapped
    /// [`QueryServer`] down. Nothing here waits on a clock: the accept
    /// thread is woken by a connect to its own port, idle handlers by
    /// the shutdown of their sockets' read halves. Idempotent; called
    /// automatically on drop.
    pub fn shutdown(&self) {
        let drain_started = Instant::now();
        let in_flight = self.shared.open.load(Ordering::Acquire);
        self.shared.draining.store(true, Ordering::Release);
        if let Some(accept) = recover(self.accept.lock()).take() {
            // the accept thread is blocked in accept(): hand it a
            // connection to return with. A refused connect means a late
            // client already woke it and the listener is gone
            drop(TcpStream::connect(wake_addr(self.addr)));
            let conns = accept.join().unwrap_or_default();
            // a handler blocked in read() returns end-of-file and says
            // DRAINING over the write half; one serving a query is not
            // reading and finds the flag when the query is done
            for (_, stream) in &conns {
                let _ = stream.shutdown(Shutdown::Read);
            }
            for (handle, _) in conns {
                let _ = handle.join();
            }
        }
        if let Some(recorder) = self.shared.query.trace_recorder() {
            recorder.control().record(
                SpanKind::Drain { in_flight },
                drain_started.elapsed().as_secs_f64(),
            );
        }
        self.shared.query.shutdown();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Ends a connection even if the handler panics: shuts the socket down
/// — the accept thread's handle would otherwise keep it open, and the
/// peer waiting, until the next accept prunes it — and decrements the
/// open-connection gauge.
struct ConnGuard<'a> {
    stream: &'a TcpStream,
    open: &'a AtomicU64,
}

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        self.open.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The write half of one connection. Frames are encoded into one
/// reused buffer, and the buffer leaves in a single write when the
/// handler is about to block or the buffer reaches [`MAX_FRAME_BYTES`]
/// (see *One write per burst* in the module docs). The first failed
/// write closes the writer for good: later frames are dropped unsent,
/// and `push` / `flush` say so.
struct FrameWriter<W: Write> {
    sink: W,
    buf: String,
    /// No write has failed yet.
    open: bool,
}

impl<W: Write> FrameWriter<W> {
    fn new(sink: W) -> Self {
        FrameWriter {
            sink,
            buf: String::new(),
            open: true,
        }
    }

    /// Queues one frame. Returns whether the peer is still there.
    fn push(&mut self, frame: &ServerFrame) -> bool {
        self.push_line(|buf| frame.encode_into(buf))
    }

    /// Queues the `ANSWER` frame of `tuple`, rendered into the buffer
    /// in place ([`ServerFrame::encode_answer`]). Returns whether the
    /// peer is still there.
    fn push_answer(&mut self, tuple: &Tuple) -> bool {
        self.push_line(|buf| ServerFrame::encode_answer(buf, tuple))
    }

    /// Queues the line `encode` appends.
    fn push_line(&mut self, encode: impl FnOnce(&mut String)) -> bool {
        if self.open {
            encode(&mut self.buf);
            self.buf.push('\n');
            if self.buf.len() >= MAX_FRAME_BYTES {
                self.flush();
            }
        }
        self.open
    }

    /// Puts every queued frame on the wire in one write. Returns
    /// whether the peer is still there.
    fn flush(&mut self) -> bool {
        if self.open && !self.buf.is_empty() {
            self.open = self.sink.write_all(self.buf.as_bytes()).is_ok();
            self.buf.clear();
        }
        self.open
    }
}

/// One connection, accept to close: greet, then serve frames until
/// `QUIT`, EOF, a write failure, an over-long frame, or drain.
fn handle_connection(shared: &NetShared, stream: &TcpStream, peer: SocketAddr) {
    shared.open.fetch_add(1, Ordering::AcqRel);
    let _conn = ConnGuard {
        stream,
        open: &shared.open,
    };
    shared.query.note_connection();
    let connected_at = Instant::now();
    let mut queries = 0u64;
    // answer frames are small and latency-bound: without nodelay, Nagle
    // against the peer's delayed ACK adds ~40ms to every round trip
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    let mut out = FrameWriter::new(stream);
    out.push(&ServerFrame::Hello {
        proto: "mdq/1".to_string(),
    });
    let mut tenant = DEFAULT_TENANT;
    let mut line = String::new();
    loop {
        if shared.draining.load(Ordering::Acquire) {
            out.push(&ServerFrame::Draining);
            out.push(&ServerFrame::Bye);
            break;
        }
        // about to block: the reply to the last frame leaves now
        if !out.flush() {
            break;
        }
        // blocks until a newline, end-of-file or the frame cap
        line.clear();
        let mut frame_reader = reader.by_ref().take(MAX_FRAME_BYTES as u64 + 1);
        if frame_reader.read_line(&mut line).is_err() {
            break;
        }
        if line.len() > MAX_FRAME_BYTES {
            out.push(&ServerFrame::Err {
                reason: "frame too long".to_string(),
            });
            break;
        }
        if !line.ends_with('\n') {
            // end-of-file: the peer closed its write half, or drain
            // shut our read half. On drain whatever was read is half a
            // frame — dropped, the loop head says DRAINING; a peer's
            // unterminated last frame is served before the EOF behind it
            if shared.draining.load(Ordering::Acquire) {
                continue;
            }
            if line.is_empty() {
                break; // client went away
            }
        }
        if line.trim().is_empty() {
            continue;
        }
        let frame = match ClientFrame::parse(&line) {
            Ok(frame) => frame,
            Err(reason) => {
                out.push(&ServerFrame::Err { reason });
                continue;
            }
        };
        let ok = match frame {
            ClientFrame::Ping => out.push(&ServerFrame::Pong),
            ClientFrame::Quit => {
                out.push(&ServerFrame::Bye);
                break;
            }
            ClientFrame::Tenant { name } => match shared.tenant(&name) {
                Ok(id) => {
                    tenant = id;
                    out.push(&ServerFrame::Ok { tenant })
                }
                // the connection keeps the tenant it had
                Err(reason) => out.push(&ServerFrame::Err { reason }),
            },
            ClientFrame::Query { k, text } => {
                queries += 1;
                serve_query(shared, &mut out, tenant, &text, k)
            }
            ClientFrame::Subscribe { k, text } => {
                queries += 1;
                match shared.query.subscribe(tenant, &text, k) {
                    Ok(ticket) => {
                        out.push(&ServerFrame::Subscribed {
                            id: ticket.id,
                            epoch: ticket.epoch,
                            answers: ticket.answers.len() as u64,
                        }) && ticket.answers.iter().all(|t| out.push_answer(t))
                    }
                    Err(reason) => out.push(&ServerFrame::Err { reason }),
                }
            }
            // POLL/UNSUBSCRIBE run as the connection's tenant: ids are
            // sequential, so without the scoping any client could
            // drain (destructively) or deregister another tenant's
            // subscription just by guessing
            ClientFrame::Poll { id } => match shared.query.poll_deltas(tenant, id) {
                Some(deltas) => {
                    let mut epoch = shared.query.epoch();
                    let mut rows = 0u64;
                    for d in &deltas {
                        epoch = d.epoch;
                        // retractions first: a client applying frames in
                        // order never sees a transiently oversized set
                        for (added, tuples) in [(false, &d.retracted), (true, &d.added)] {
                            for t in tuples {
                                rows += 1;
                                out.push(&ServerFrame::Delta {
                                    id,
                                    epoch: d.epoch,
                                    added,
                                    tuple: t.to_string(),
                                });
                            }
                        }
                    }
                    out.push(&ServerFrame::Synced {
                        id,
                        epoch,
                        deltas: rows,
                    })
                }
                None => out.push(&ServerFrame::Err {
                    reason: format!("unknown subscription {id}"),
                }),
            },
            // REFRESH re-fetches every tracked invocation for all
            // tenants — operator-only, or any anonymous client could
            // spam the single most expensive lever the server has
            ClientFrame::Refresh => match shared.query.try_refresh(tenant) {
                Ok(s) => out.push(&ServerFrame::Refreshed {
                    epoch: s.epoch,
                    refreshed: s.refreshed,
                    changed: s.invocations_changed,
                    calls: s.calls,
                    deltas: s.deltas_emitted,
                }),
                Err(rejection) => out.push(&ServerFrame::Err {
                    reason: rejection.to_string(),
                }),
            },
            ClientFrame::Unsubscribe { id } => {
                if shared.query.unsubscribe(tenant, id) {
                    out.push(&ServerFrame::Unsubscribed { id })
                } else {
                    out.push(&ServerFrame::Err {
                        reason: format!("unknown subscription {id}"),
                    })
                }
            }
        };
        if !ok {
            break;
        }
    }
    // the closing frames (BYE, a refusal, the drain notice) leave before
    // `ConnGuard` shuts the socket down; a peer already gone is no error
    out.flush();
    if let Some(recorder) = shared.query.trace_recorder() {
        recorder.control().record(
            SpanKind::Connection {
                peer: peer.to_string(),
                queries,
            },
            connected_at.elapsed().as_secs_f64(),
        );
    }
}

/// Submits one query and streams its session to the client. Returns
/// whether the connection is still writable.
fn serve_query(
    shared: &NetShared,
    out: &mut FrameWriter<impl Write>,
    tenant: TenantId,
    text: &str,
    k: Option<u64>,
) -> bool {
    match shared.query.try_submit(tenant, text, k) {
        Ok(session) => stream_session(&session, out),
        Err(rejection) => out.push(&match rejection {
            Rejection::QueueFull { retry_after } | Rejection::TenantQueueFull { retry_after } => {
                ServerFrame::Shed {
                    retry_after_ms: retry_after.as_millis() as u64,
                }
            }
            Rejection::Closed => ServerFrame::Draining,
            other => ServerFrame::Err {
                reason: other.to_string(),
            },
        }),
    }
}

/// Queues a session's events as frames until its stream ends, flushing
/// whenever the worker has nothing more ready: an answer that exists is
/// on the wire before the handler waits for the next one. Returns
/// whether the connection is still writable; on `false` the caller
/// drops the session, which cancels the query's remaining pulls.
fn stream_session(session: &QuerySession, out: &mut FrameWriter<impl Write>) -> bool {
    let mut answers = 0u64;
    loop {
        let event = match session.rx.try_recv() {
            Ok(event) => Some(event),
            Err(TryRecvError::Disconnected) => None,
            Err(TryRecvError::Empty) => {
                // about to block on the worker
                if !out.flush() {
                    return false;
                }
                session.next_event()
            }
        };
        match event {
            Some(SessionEvent::Answer(tuple)) => {
                answers += 1;
                if !out.push_answer(&tuple) {
                    return false;
                }
            }
            Some(SessionEvent::Done(stats)) => {
                return out.push(&ServerFrame::Done {
                    answers,
                    calls: stats.forwarded_calls,
                    wall_ms: (stats.wall_seconds * 1e3) as u64,
                    partial: stats.is_partial(),
                });
            }
            Some(SessionEvent::Failed(reason)) => return out.push(&ServerFrame::Err { reason }),
            None => {
                return out.push(&ServerFrame::Err {
                    reason: "server shut down before the query finished".to_string(),
                });
            }
        }
    }
}

/// What one `QUERY` frame produced, as seen by [`NetClient::query`].
#[derive(Clone, Debug, PartialEq)]
pub enum QueryOutcome {
    /// The stream completed: answers in rank order plus the `DONE`
    /// frame's statistics.
    Done {
        /// Rendered answer tuples, in rank order.
        answers: Vec<String>,
        /// Request-responses the query forwarded.
        calls: u64,
        /// Wall-clock milliseconds from dequeue to completion.
        wall_ms: u64,
        /// Whether the answers are partial.
        partial: bool,
    },
    /// Admission control shed the query; retry after the hint.
    Shed {
        /// The server's retry-after hint, in milliseconds.
        retry_after_ms: u64,
    },
    /// The query failed.
    Failed {
        /// Human-readable reason.
        reason: String,
    },
    /// The server is draining; the connection accepts no more queries.
    Draining,
}

/// A blocking client for the `mdq/1` wire protocol — used by the
/// examples and the overload harness, and small enough to crib for a
/// real client.
pub struct NetClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// The frame being sent and the line being read: one buffer each,
    /// reused for the life of the connection.
    out: String,
    line: String,
}

impl NetClient {
    /// Connects and consumes the server's `HELLO`.
    pub fn connect(addr: SocketAddr) -> io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        // request frames are small and latency-bound; see the server
        // side — Nagle would stall every query by a delayed-ACK tick
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        let mut client = NetClient {
            writer,
            reader: BufReader::new(stream),
            out: String::new(),
            line: String::new(),
        };
        match client.read_frame()? {
            ServerFrame::Hello { .. } => Ok(client),
            other => Err(protocol_error(&other)),
        }
    }

    /// Sends the line `encode` appends as one frame.
    fn send_line(&mut self, encode: impl FnOnce(&mut String) -> fmt::Result) -> io::Result<()> {
        self.out.clear();
        encode(&mut self.out).expect(STRING_WRITE);
        self.out.push('\n');
        self.writer.write_all(self.out.as_bytes())
    }

    fn send(&mut self, frame: &ClientFrame) -> io::Result<()> {
        self.send_line(|out| frame.write_to(out))
    }

    fn read_frame(&mut self) -> io::Result<ServerFrame> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-stream",
            ));
        }
        ServerFrame::parse(&self.line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Runs the tenant handshake; subsequent queries run as `name`.
    pub fn tenant(&mut self, name: &str) -> io::Result<TenantId> {
        self.send(&ClientFrame::Tenant {
            name: name.to_string(),
        })?;
        match self.read_frame()? {
            ServerFrame::Ok { tenant } => Ok(tenant),
            ServerFrame::Err { reason } => Err(io::Error::new(io::ErrorKind::InvalidInput, reason)),
            other => Err(protocol_error(&other)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<()> {
        self.send(&ClientFrame::Ping)?;
        match self.read_frame()? {
            ServerFrame::Pong => Ok(()),
            other => Err(protocol_error(&other)),
        }
    }

    /// Submits one query and drains its stream. IO errors are `Err`;
    /// everything the protocol can say (done, shed, failed, draining)
    /// is a [`QueryOutcome`].
    pub fn query(&mut self, text: &str, k: Option<u64>) -> io::Result<QueryOutcome> {
        self.send_line(|out| write_query(out, "QUERY", k, text))?;
        let mut answers = Vec::new();
        loop {
            match self.read_frame()? {
                ServerFrame::Answer { tuple } => answers.push(tuple),
                ServerFrame::Done {
                    calls,
                    wall_ms,
                    partial,
                    ..
                } => {
                    return Ok(QueryOutcome::Done {
                        answers,
                        calls,
                        wall_ms,
                        partial,
                    })
                }
                ServerFrame::Shed { retry_after_ms } => {
                    return Ok(QueryOutcome::Shed { retry_after_ms })
                }
                ServerFrame::Err { reason } => return Ok(QueryOutcome::Failed { reason }),
                ServerFrame::Draining => return Ok(QueryOutcome::Draining),
                other => return Err(protocol_error(&other)),
            }
        }
    }

    /// Registers a standing query; returns `(id, epoch, answers)` from
    /// the `SUBSCRIBED` frame and its trailing `ANSWER` stream.
    pub fn subscribe(&mut self, text: &str, k: Option<u64>) -> io::Result<(u64, u64, Vec<String>)> {
        self.send_line(|out| write_query(out, "SUBSCRIBE", k, text))?;
        match self.read_frame()? {
            ServerFrame::Subscribed { id, epoch, answers } => {
                let mut rows = Vec::with_capacity(answers.min(1024) as usize);
                for _ in 0..answers {
                    match self.read_frame()? {
                        ServerFrame::Answer { tuple } => rows.push(tuple),
                        other => return Err(protocol_error(&other)),
                    }
                }
                Ok((id, epoch, rows))
            }
            ServerFrame::Err { reason } => Err(io::Error::new(io::ErrorKind::InvalidInput, reason)),
            other => Err(protocol_error(&other)),
        }
    }

    /// Drains a subscription's queued deltas: `(epoch, added, tuple)`
    /// rows in apply order (retractions before additions per epoch),
    /// terminated by the server's `SYNCED` frame.
    pub fn poll(&mut self, id: u64) -> io::Result<Vec<(u64, bool, String)>> {
        self.send(&ClientFrame::Poll { id })?;
        let mut rows = Vec::new();
        loop {
            match self.read_frame()? {
                ServerFrame::Delta {
                    id: got,
                    epoch,
                    added,
                    tuple,
                } if got == id => rows.push((epoch, added, tuple)),
                ServerFrame::Synced { deltas, .. } => {
                    if deltas as usize != rows.len() {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("SYNCED reports {deltas} deltas, read {}", rows.len()),
                        ));
                    }
                    return Ok(rows);
                }
                ServerFrame::Err { reason } => {
                    return Err(io::Error::new(io::ErrorKind::InvalidInput, reason))
                }
                other => return Err(protocol_error(&other)),
            }
        }
    }

    /// Asks the server to run one refresh pass; returns the `REFRESHED`
    /// counters `(epoch, refreshed, changed, calls, deltas)`.
    pub fn refresh_all(&mut self) -> io::Result<(u64, u64, u64, u64, u64)> {
        self.send(&ClientFrame::Refresh)?;
        match self.read_frame()? {
            ServerFrame::Refreshed {
                epoch,
                refreshed,
                changed,
                calls,
                deltas,
            } => Ok((epoch, refreshed, changed, calls, deltas)),
            other => Err(protocol_error(&other)),
        }
    }

    /// Deregisters a standing query.
    pub fn unsubscribe(&mut self, id: u64) -> io::Result<()> {
        self.send(&ClientFrame::Unsubscribe { id })?;
        match self.read_frame()? {
            ServerFrame::Unsubscribed { id: got } if got == id => Ok(()),
            ServerFrame::Err { reason } => Err(io::Error::new(io::ErrorKind::InvalidInput, reason)),
            other => Err(protocol_error(&other)),
        }
    }

    /// Closes the connection politely (waits for `BYE`).
    pub fn quit(mut self) -> io::Result<()> {
        self.send(&ClientFrame::Quit)?;
        loop {
            match self.read_frame() {
                Ok(ServerFrame::Bye) => return Ok(()),
                Ok(_) => continue, // drain stragglers until BYE
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    }
}

fn protocol_error(frame: &ServerFrame) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected frame {frame:?}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::RuntimeConfig;
    use crate::session::QueryStats;
    use mdq_model::value::{Tuple, Value};
    use mdq_services::domains::news::news_world;
    use std::sync::mpsc;

    const QUERY: &str = "q(City, Venue, Price) :- events('mahler-2', City, Venue, D), \
                         lowcost('Milano', City, Price), Price <= 60.0.";

    #[test]
    fn client_frames_round_trip() {
        for frame in [
            ClientFrame::Tenant {
                name: "acme".to_string(),
            },
            ClientFrame::Query {
                k: Some(5),
                text: "q(X) :- s(X).".to_string(),
            },
            ClientFrame::Query {
                k: None,
                text: "q(X) :- s(X).".to_string(),
            },
            ClientFrame::Subscribe {
                k: Some(3),
                text: "q(X) :- s(X).".to_string(),
            },
            ClientFrame::Subscribe {
                k: None,
                text: "q(X) :- s(X).".to_string(),
            },
            ClientFrame::Poll { id: 42 },
            ClientFrame::Refresh,
            ClientFrame::Unsubscribe { id: 42 },
            ClientFrame::Ping,
            ClientFrame::Quit,
        ] {
            assert_eq!(ClientFrame::parse(&frame.encode()), Ok(frame));
        }
        assert!(ClientFrame::parse("QUERY").is_err(), "empty query text");
        assert!(ClientFrame::parse("SUBSCRIBE").is_err(), "empty sub text");
        assert!(ClientFrame::parse("POLL x").is_err(), "non-numeric id");
        assert!(ClientFrame::parse("UNSUBSCRIBE").is_err(), "missing id");
        assert!(ClientFrame::parse("NOPE x").is_err(), "unknown verb");
    }

    #[test]
    fn server_frames_round_trip() {
        for frame in [
            ServerFrame::Hello {
                proto: "mdq/1".to_string(),
            },
            ServerFrame::Ok { tenant: 3 },
            ServerFrame::Answer {
                tuple: "⟨'Milano', 42⟩".to_string(),
            },
            ServerFrame::Done {
                answers: 5,
                calls: 17,
                wall_ms: 12,
                partial: false,
            },
            ServerFrame::Err {
                reason: "no such service".to_string(),
            },
            ServerFrame::Shed { retry_after_ms: 50 },
            ServerFrame::Subscribed {
                id: 7,
                epoch: 3,
                answers: 4,
            },
            ServerFrame::Delta {
                id: 7,
                epoch: 4,
                added: true,
                tuple: "⟨'Milano', 42⟩".to_string(),
            },
            ServerFrame::Delta {
                id: 7,
                epoch: 4,
                added: false,
                tuple: "⟨'Roma', 17⟩".to_string(),
            },
            ServerFrame::Synced {
                id: 7,
                epoch: 4,
                deltas: 2,
            },
            ServerFrame::Refreshed {
                epoch: 4,
                refreshed: 9,
                changed: 2,
                calls: 11,
                deltas: 1,
            },
            ServerFrame::Unsubscribed { id: 7 },
            ServerFrame::Draining,
            ServerFrame::Pong,
            ServerFrame::Bye,
        ] {
            let line = frame.encode();
            // appending to what is already queued is the same encoding
            let mut queued = "PONG\n".to_string();
            frame.encode_into(&mut queued);
            assert_eq!(queued, format!("PONG\n{line}"));
            assert_eq!(ServerFrame::parse(&line), Ok(frame));
        }
        assert_eq!(
            ServerFrame::Err {
                reason: "two\r\nlines".to_string()
            }
            .encode(),
            "ERR two\\r\\nlines",
            "a frame is one line whatever its text"
        );
        assert!(
            ServerFrame::parse("DELTA id=1 epoch=2 op=? x").is_err(),
            "bad op rejected"
        );
    }

    /// A sink that records every `write` call. It fails them all when
    /// `broken`, and on a successful write releases the `next_burst` of
    /// session events — the worker producing more only after the
    /// handler has put the last burst on the wire.
    #[derive(Default)]
    struct Sink {
        writes: Vec<String>,
        attempts: usize,
        broken: bool,
        next_burst: Option<(mpsc::Sender<SessionEvent>, Vec<SessionEvent>)>,
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.attempts += 1;
            if self.broken {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            self.writes
                .push(String::from_utf8(buf.to_vec()).expect("frames are UTF-8"));
            if let Some((events, burst)) = self.next_burst.take() {
                for event in burst {
                    events.send(event).expect("the session is live");
                }
            }
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A session with `events` already queued, and the worker's end.
    fn queued_session(events: Vec<SessionEvent>) -> (mpsc::Sender<SessionEvent>, QuerySession) {
        let (tx, rx) = mpsc::channel();
        for event in events {
            tx.send(event).expect("receiver is live");
        }
        (tx, QuerySession { rx })
    }

    fn answer(i: usize, pad: usize) -> Tuple {
        Tuple::new(vec![Value::str(format!("city-{i}{}", "x".repeat(pad)))])
    }

    fn done() -> SessionEvent {
        SessionEvent::Done(QueryStats {
            forwarded_calls: 7,
            wall_seconds: 0.0125,
            ..QueryStats::default()
        })
    }

    /// `n` padded answers and their `DONE`, as a worker sends them.
    fn stream_events(n: usize, pad: usize) -> Vec<SessionEvent> {
        let mut events: Vec<_> = (0..n)
            .map(|i| SessionEvent::Answer(answer(i, pad)))
            .collect();
        events.push(done());
        events
    }

    /// The lines `encode()` gives the frames of [`stream_events`],
    /// newline-terminated: the bytes of one write per frame.
    fn expected_stream(n: usize, pad: usize) -> String {
        let mut frames: Vec<_> = (0..n)
            .map(|i| ServerFrame::Answer {
                tuple: answer(i, pad).to_string(),
            })
            .collect();
        frames.push(ServerFrame::Done {
            answers: n as u64,
            calls: 7,
            wall_ms: 12,
            partial: false,
        });
        frames.iter().map(|f| f.encode() + "\n").collect()
    }

    /// Streams `session` the way `handle_connection` does: the stream,
    /// then the flush before the next read.
    fn stream_and_flush(session: &QuerySession, sink: &mut Sink) -> bool {
        let mut out = FrameWriter::new(sink);
        let ok = stream_session(session, &mut out);
        out.flush();
        ok
    }

    #[test]
    fn a_stream_that_is_ready_leaves_in_one_write_with_the_bytes_of_encode() {
        let (_worker, session) = queued_session(stream_events(5, 0));
        let mut sink = Sink::default();
        assert!(stream_and_flush(&session, &mut sink));
        assert_eq!(sink.writes, [expected_stream(5, 0)]);
    }

    #[test]
    fn each_burst_is_on_the_wire_before_the_handler_waits_for_the_next() {
        let (worker, session) = queued_session(vec![
            SessionEvent::Answer(answer(0, 0)),
            SessionEvent::Answer(answer(1, 0)),
        ]);
        // the rest of the stream exists only once the first write is out
        let mut sink = Sink {
            next_burst: Some((worker, vec![SessionEvent::Answer(answer(2, 0)), done()])),
            ..Sink::default()
        };
        assert!(stream_and_flush(&session, &mut sink));
        assert_eq!(sink.writes.len(), 2, "one write per burst");
        assert_eq!(sink.writes[0], "ANSWER ⟨'city-0'⟩\nANSWER ⟨'city-1'⟩\n");
        assert_eq!(sink.writes.concat(), expected_stream(3, 0));
    }

    #[test]
    fn a_failed_or_abandoned_query_ends_in_one_err_frame() {
        let (_worker, session) = queued_session(vec![
            SessionEvent::Answer(answer(0, 0)),
            SessionEvent::Failed("boom".to_string()),
        ]);
        let mut sink = Sink::default();
        assert!(stream_and_flush(&session, &mut sink), "ERR is a reply");
        assert_eq!(sink.writes, ["ANSWER ⟨'city-0'⟩\nERR boom\n"]);

        // the worker died: its sender is gone and no DONE was sent
        let (worker, session) = queued_session(vec![SessionEvent::Answer(answer(0, 0))]);
        drop(worker);
        let mut sink = Sink::default();
        assert!(stream_and_flush(&session, &mut sink));
        assert_eq!(
            sink.writes,
            ["ANSWER ⟨'city-0'⟩\nERR server shut down before the query finished\n"]
        );
    }

    #[test]
    fn a_stream_larger_than_the_buffer_bound_is_flushed_mid_burst() {
        // 100 answers of ~1 KiB, all ready at once
        let (_worker, session) = queued_session(stream_events(100, 1024));
        let mut sink = Sink::default();
        assert!(stream_and_flush(&session, &mut sink));
        assert_eq!(sink.writes.len(), 2, "~102 KiB against a 64 KiB bound");
        let frame = expected_stream(1, 1024).len();
        for write in &sink.writes {
            assert!(
                write.len() < MAX_FRAME_BYTES + frame,
                "the buffer is bounded by a constant, not by k"
            );
            assert!(write.ends_with('\n'), "cut between frames");
        }
        assert_eq!(sink.writes.concat(), expected_stream(100, 1024));
    }

    #[test]
    fn a_failed_write_ends_the_stream_and_nothing_more_is_written() {
        // the channel runs empty with the worker still live: the flush
        // before the wait is what finds the peer gone
        let (_worker, session) = queued_session(vec![SessionEvent::Answer(answer(0, 0))]);
        let mut sink = Sink {
            broken: true,
            ..Sink::default()
        };
        let mut out = FrameWriter::new(&mut sink);
        assert!(!stream_session(&session, &mut out));
        assert!(!out.push(&ServerFrame::Pong), "later frames are dropped");
        assert!(!out.flush());
        assert_eq!((sink.attempts, sink.writes.len()), (1, 0));

        // and the flush at the buffer bound, with the whole stream ready
        let (_worker, session) = queued_session(stream_events(100, 1024));
        let mut sink = Sink {
            broken: true,
            ..Sink::default()
        };
        assert!(!stream_and_flush(&session, &mut sink));
        assert_eq!(sink.attempts, 1);
    }

    #[test]
    fn tcp_round_trip_serves_answers() {
        let server = Arc::new(QueryServer::from_world(
            news_world(),
            RuntimeConfig {
                workers: 2,
                ..RuntimeConfig::default()
            },
        ));
        let net = NetServer::start(server, "127.0.0.1:0").expect("bind");
        let mut client = NetClient::connect(net.addr()).expect("connect");
        client.ping().expect("ping");
        let outcome = client.query(QUERY, Some(5)).expect("wire io");
        match outcome {
            QueryOutcome::Done { answers, calls, .. } => {
                assert!(!answers.is_empty(), "query streams answers");
                assert!(calls > 0, "DONE reports forwarded calls");
            }
            other => panic!("expected Done, got {other:?}"),
        }
        client.quit().expect("clean close");
        net.shutdown();
    }

    #[test]
    fn tenant_handshake_scopes_budget() {
        let server = Arc::new(QueryServer::from_world(
            news_world(),
            RuntimeConfig {
                workers: 1,
                ..RuntimeConfig::default()
            },
        ));
        // pre-registered with a zero call budget: every forwarded call
        // is over budget, so the tenant's queries are shed at the door
        server.register_tenant(
            "starved",
            TenantPolicy {
                call_budget: Some(0),
                ..TenantPolicy::default()
            },
        );
        let net = NetServer::start(Arc::clone(&server), "127.0.0.1:0").expect("bind");
        let mut client = NetClient::connect(net.addr()).expect("connect");
        let id = client.tenant("starved").expect("handshake");
        assert!(id > 0, "tenant ids are distinct from the default");
        match client.query(QUERY, Some(3)).expect("wire io") {
            QueryOutcome::Failed { reason } => {
                assert!(
                    reason.contains("budget"),
                    "budget exhaustion names the budget: {reason}"
                );
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        // an untenanted connection on the same server is unaffected
        let mut other = NetClient::connect(net.addr()).expect("connect");
        match other.query(QUERY, Some(3)).expect("wire io") {
            QueryOutcome::Done { answers, .. } => assert!(!answers.is_empty()),
            o => panic!("default tenant unaffected, got {o:?}"),
        }
        net.shutdown();
    }

    #[test]
    fn subscribe_poll_refresh_unsubscribe_over_the_wire() {
        let server = Arc::new(QueryServer::from_world(
            news_world(),
            RuntimeConfig {
                workers: 1,
                ..RuntimeConfig::default()
            },
        ));
        // REFRESH is operator-only: handshake as an operator tenant
        server.register_tenant(
            "ops",
            TenantPolicy {
                operator: true,
                ..TenantPolicy::default()
            },
        );
        let net = NetServer::start(server, "127.0.0.1:0").expect("bind");
        let mut client = NetClient::connect(net.addr()).expect("connect");
        client.tenant("ops").expect("handshake");
        let (id, epoch, answers) = client.subscribe(QUERY, Some(5)).expect("subscribe");
        assert_eq!(epoch, 0, "no refresh pass yet");
        assert!(!answers.is_empty(), "initial answers stream");
        // a static world: the refresh pass re-fetches but changes
        // nothing, so the poll comes back empty
        let (epoch, refreshed, changed, _calls, deltas) = client.refresh_all().expect("refresh");
        assert_eq!(epoch, 1);
        assert!(refreshed > 0, "frontier invocations are tracked");
        assert_eq!((changed, deltas), (0, 0), "static world never changes");
        assert!(client.poll(id).expect("poll").is_empty());
        client.unsubscribe(id).expect("unsubscribe");
        assert!(client.poll(id).is_err(), "polling a gone id is an error");
        client.quit().expect("clean close");
        net.shutdown();
    }

    #[test]
    fn foreign_subscriptions_are_invisible_and_refresh_is_operator_only() {
        let server = Arc::new(QueryServer::from_world(
            news_world(),
            RuntimeConfig {
                workers: 1,
                ..RuntimeConfig::default()
            },
        ));
        server.register_tenant(
            "ops",
            TenantPolicy {
                operator: true,
                ..TenantPolicy::default()
            },
        );
        let net = NetServer::start(server, "127.0.0.1:0").expect("bind");
        let mut alice = NetClient::connect(net.addr()).expect("connect");
        alice.tenant("alice").expect("handshake");
        let (id, _, _) = alice.subscribe(QUERY, Some(5)).expect("subscribe");

        // a different tenant cannot poll (destructive!), read or
        // deregister alice's subscription — the id answers as unknown,
        // so sequential ids leak nothing across tenants
        let mut bob = NetClient::connect(net.addr()).expect("connect");
        bob.tenant("bob").expect("handshake");
        let poll_err = bob.poll(id).expect_err("foreign poll refused");
        assert!(
            poll_err.to_string().contains("unknown subscription"),
            "foreign id is indistinguishable from an unknown one: {poll_err}"
        );
        assert!(bob.unsubscribe(id).is_err(), "foreign unsubscribe refused");
        // nor may a non-operator trigger the all-tenant refresh pass
        let refresh_err = bob.refresh_all().expect_err("non-operator refresh refused");
        assert!(
            refresh_err.to_string().contains("unexpected frame"),
            "REFRESH answers ERR for non-operators: {refresh_err}"
        );

        // the operator may do all three: refresh, poll, deregister
        let mut ops = NetClient::connect(net.addr()).expect("connect");
        ops.tenant("ops").expect("handshake");
        let (epoch, refreshed, ..) = ops.refresh_all().expect("operator refresh");
        assert_eq!(epoch, 1);
        assert!(refreshed > 0, "alice's frontier is tracked");
        assert!(ops.poll(id).expect("operator poll").is_empty());
        ops.unsubscribe(id).expect("operator unsubscribe");
        // and alice's subscription really is gone now
        assert!(alice.poll(id).is_err(), "deregistered id is unknown");
        net.shutdown();
    }

    #[test]
    fn subscription_cap_sheds_at_the_door() {
        let server = Arc::new(QueryServer::from_world(
            news_world(),
            RuntimeConfig {
                workers: 1,
                max_subscriptions: 2,
                ..RuntimeConfig::default()
            },
        ));
        let net = NetServer::start(Arc::clone(&server), "127.0.0.1:0").expect("bind");
        let mut client = NetClient::connect(net.addr()).expect("connect");
        client.subscribe(QUERY, Some(3)).expect("first subscribe");
        client.subscribe(QUERY, Some(3)).expect("second subscribe");
        let err = client
            .subscribe(QUERY, Some(3))
            .expect_err("cap refuses the third");
        assert!(
            err.to_string().contains("subscription cap"),
            "refusal names the cap: {err}"
        );
        let m = server.metrics();
        assert_eq!(m.shed_subscription_cap, 1);
        assert_eq!(m.subscriptions_active, 2);
        net.shutdown();
    }

    /// A one-worker news server on an ephemeral loopback port.
    fn news_net() -> NetServer {
        let server = Arc::new(QueryServer::from_world(
            news_world(),
            RuntimeConfig {
                workers: 1,
                ..RuntimeConfig::default()
            },
        ));
        NetServer::start(server, "127.0.0.1:0").expect("bind")
    }

    /// A raw connection with the greeting consumed: the socket to write
    /// frames (or fragments of frames) to, and a line reader over it.
    fn raw_connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        assert!(next_line(&mut reader).starts_with("HELLO"));
        (stream, reader)
    }

    /// The next frame line, or `""` once the server has closed.
    fn next_line(reader: &mut BufReader<TcpStream>) -> String {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        line
    }

    #[test]
    fn subscribe_frame_in_two_segments_is_one_frame() {
        // the PR 8 QUERY regression shape, for SUBSCRIBE: a frame
        // delivered in two TCP segments with a pause between them must
        // not be torn into two bogus lines
        let net = news_net();
        let (mut stream, mut reader) = raw_connect(net.addr());
        let frame = format!("SUBSCRIBE k=5 {QUERY}\n");
        let (head, tail) = frame.split_at(frame.len() / 2);
        stream.write_all(head.as_bytes()).expect("first half");
        // long enough that the server has read the first segment and
        // is blocked waiting for the rest
        std::thread::sleep(Duration::from_millis(75));
        stream.write_all(tail.as_bytes()).expect("second half");
        match ServerFrame::parse(&next_line(&mut reader)).expect("parses") {
            ServerFrame::Subscribed { answers, .. } => {
                for _ in 0..answers {
                    let line = next_line(&mut reader);
                    assert!(line.starts_with("ANSWER"), "answer stream intact: {line}");
                }
            }
            other => panic!("expected SUBSCRIBED, got {other:?}"),
        }
        drop(stream);
        net.shutdown();
    }

    #[test]
    fn connection_churn_has_no_timer_floor() {
        // a cycle is a handshake, a thread spawn and two round trips
        // (~20 ms for all 40); any timer on the accept or hello path —
        // a listener polled every 25 ms costs a second here — fails it
        let net = news_net();
        let started = Instant::now();
        for _ in 0..40 {
            let mut client = NetClient::connect(net.addr()).expect("connect");
            client.ping().expect("ping");
            client.quit().expect("clean close");
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(400),
            "40 connect/ping/quit cycles took {elapsed:?}"
        );
        // BYE precedes the handler's exit: give the last one a moment
        let deadline = Instant::now() + Duration::from_secs(5);
        while net.open_connections() != 0 {
            assert!(Instant::now() < deadline, "a handler outlived its QUIT");
            std::thread::yield_now();
        }
        net.shutdown();
    }

    #[test]
    fn overlong_frame_is_refused_and_the_connection_closed() {
        let net = news_net();
        let (stream, mut reader) = raw_connect(net.addr());
        // 1 MiB and never a newline; the writes fail or block once the
        // server has hung up, hence a thread of their own
        let flood = {
            let mut stream = stream.try_clone().expect("clone");
            std::thread::spawn(move || {
                let chunk = [b'a'; 8192];
                for _ in 0..128 {
                    if stream.write_all(&chunk).is_err() {
                        break;
                    }
                }
            })
        };
        // meanwhile the server serves everyone else
        let mut other = NetClient::connect(net.addr()).expect("connect");
        match other.query(QUERY, Some(5)).expect("wire io") {
            QueryOutcome::Done { answers, .. } => assert!(!answers.is_empty()),
            o => panic!("a well-behaved neighbour is served, got {o:?}"),
        }
        other.quit().expect("clean close");
        assert_eq!(
            ServerFrame::parse(&next_line(&mut reader)),
            Ok(ServerFrame::Err {
                reason: "frame too long".to_string()
            })
        );
        // and hung up: end-of-file, or a reset for the bytes it refused
        let mut rest = String::new();
        assert!(matches!(reader.read_line(&mut rest), Ok(0) | Err(_)));
        // release the flood if it is blocked on a full socket buffer
        let _ = stream.shutdown(Shutdown::Both);
        flood.join().expect("flood ends");
        net.shutdown();
    }

    #[test]
    fn subscribe_survives_a_peer_that_announces_more_answers_than_it_sends() {
        // a peer that promises u64::MAX answers and hangs up costs the
        // client an error, not a capacity-overflow panic
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            stream.write_all(b"HELLO mdq/1\n").expect("hello");
            let mut request = String::new();
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            reader.read_line(&mut request).expect("request");
            assert!(request.starts_with("SUBSCRIBE"), "{request}");
            stream
                .write_all(b"SUBSCRIBED id=1 epoch=0 answers=18446744073709551615\n")
                .expect("frame");
        });
        let mut client = NetClient::connect(addr).expect("handshake");
        let err = client
            .subscribe("q(X) :- s(X).", None)
            .expect_err("the peer hung up before its answers");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        peer.join().expect("peer");
    }

    #[test]
    fn reply_survives_a_client_half_close() {
        // end-of-file after a complete frame is a peer that is done
        // asking, not a drain: it still gets its answer
        let net = news_net();
        let (mut stream, mut reader) = raw_connect(net.addr());
        stream.write_all(b"PING\n").expect("ping");
        stream.shutdown(Shutdown::Write).expect("half-close");
        assert_eq!(
            ServerFrame::parse(&next_line(&mut reader)),
            Ok(ServerFrame::Pong)
        );
        assert_eq!(next_line(&mut reader), "", "then the server closes");
        net.shutdown();
    }

    #[test]
    fn drain_drops_a_torn_half_frame_without_an_err() {
        let net = news_net();
        let (mut stream, mut reader) = raw_connect(net.addr());
        stream.write_all(b"QUERY k=5 q(City, Ven").expect("half");
        net.shutdown();
        let frames: Vec<_> = std::iter::from_fn(|| {
            let line = next_line(&mut reader);
            (!line.is_empty()).then(|| ServerFrame::parse(&line).expect("parses"))
        })
        .collect();
        assert_eq!(frames, [ServerFrame::Draining, ServerFrame::Bye]);
    }

    #[test]
    fn drain_notifies_idle_connections_and_refuses_new_ones() {
        let net = Arc::new(news_net());
        let addr = net.addr();
        let mut idle: Vec<_> = (0..8)
            .map(|_| {
                let mut client = NetClient::connect(addr).expect("connect");
                client.ping().expect("ping");
                client
            })
            .collect();
        let drainer = {
            let net = Arc::clone(&net);
            std::thread::spawn(move || net.shutdown())
        };
        // every idle connection is told about the drain rather than cut
        for client in &mut idle {
            assert_eq!(client.read_frame().expect("notice"), ServerFrame::Draining);
            assert_eq!(client.read_frame().expect("close"), ServerFrame::Bye);
        }
        drainer.join().expect("drain completes");
        assert_eq!(net.open_connections(), 0, "every handler was joined");
        // and the listener is gone: new connections fail outright
        assert!(NetClient::connect(addr).is_err(), "listener closed");
    }
}
