//! The typed wire codec: every request line and every reply the
//! service speaks, as enums.
//!
//! [`Request::parse`] is the single grammar for the line protocol —
//! query lines ([`QuerySpec::parse_addressed`] underneath), the
//! connection verbs (`ping`, `quit`, `shutdown`), the admin verbs
//! (`!use`, `!repos`, `!reload`), and the telemetry verbs (`!stats`,
//! `!metrics`, `!trace`) — and [`Request::render`] is its canonical
//! inverse (`parse(render(r)) == r`, pinned by a property test).
//! [`Reply::render`] single-sources the response framing: every
//! success is an `ok …` line (plus body lines for the listing verbs),
//! every failure is `err msg=<reason>`, and overload shedding is the
//! fixed `err msg=busy`. The stdin pump, the TCP poller, and `sctool
//! client` all drive this codec, so a framing change happens in
//! exactly one place.
//!
//! Blank lines and `#` comments are connection-level noise, not
//! requests: callers skip them before [`Request::parse`] (an empty
//! line inside the codec is an error, not a no-op).
//!
//! The codec is also the seam for future protocol growth — a
//! streaming-ingest `!append` verb lands here as one new [`Request`]
//! variant plus its dispatch arm, with every front-end picking it up
//! for free.

use crate::query::{QueryOutcome, QuerySpec};

/// One parsed protocol request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A cover query, optionally addressed at a named tenant with a
    /// position-independent `repo=<name>` token.
    Query {
        /// The named tenant this query addresses (`None` = the
        /// connection's current tenant).
        repo: Option<String>,
        /// The query itself.
        spec: QuerySpec,
    },
    /// `!use <name>` — retarget the rest of the connection at a named
    /// tenant.
    Use {
        /// The tenant to switch to.
        repo: String,
    },
    /// `!repos` — list the served tenants with generation,
    /// fingerprint, quota, and live counters.
    Repos,
    /// `!reload [name] <path>` — hot-swap a served repository.
    ///
    /// A path may be double-quoted to carry whitespace (`\"` and `\\`
    /// escape inside): `!reload "/data/my file.sc"` is an unaddressed
    /// spaced path, `!reload wiki "my file.sc"` a targeted one —
    /// [`render`](Request::render) emits the quoted form whenever the
    /// bare token would be ambiguous, so `parse(render(r)) == r`
    /// holds for spaced paths too. Unquoted, the split is purely
    /// lexical: with two or more tokens the first becomes `target`
    /// and the rest the path. Dispatch resolves that — when `target`
    /// names no served tenant, the whole argument is reinterpreted as
    /// a path (with spaces) for the connection's current tenant, so a
    /// hand-typed `!reload /data/my file.sc` keeps working unaddressed
    /// (runs of interior whitespace collapse to single spaces in that
    /// best-effort fallback; the quoted form is exact).
    ///
    /// A `target` is always a single whitespace-free token (tenant
    /// names are); a `Reload` built with a spaced `target` has no wire
    /// form and will not round-trip.
    Reload {
        /// The named tenant to swap (`None` = the connection's
        /// current tenant).
        target: Option<String>,
        /// Path of the instance file to load.
        path: String,
    },
    /// `!stats` — the one-line live telemetry snapshot.
    Stats,
    /// `!metrics` — the framed Prometheus-style counter listing.
    Metrics,
    /// `!trace <id>` — one query's retained journal timeline.
    Trace {
        /// The query id to trace.
        id: u64,
    },
    /// `ping` — answered `pong` in request order (probes the
    /// connection's round-trip, not the scheduler's idle latency).
    Ping,
    /// `quit` — end this connection after pending replies drain.
    Quit,
    /// `shutdown` — stop the server once inflight work drains.
    Shutdown,
}

impl Request {
    /// Parses one protocol request line (already known to be
    /// non-blank and not a `#` comment).
    ///
    /// # Errors
    ///
    /// A human-readable message for an empty line, unknown verb,
    /// missing verb argument, or anything
    /// [`QuerySpec::parse_addressed`] rejects in a query line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let line = line.trim();
        match line {
            "" => return Err("empty request line".into()),
            "quit" => return Ok(Request::Quit),
            "shutdown" => return Ok(Request::Shutdown),
            "ping" => return Ok(Request::Ping),
            "!stats" => return Ok(Request::Stats),
            "!metrics" => return Ok(Request::Metrics),
            "!repos" => return Ok(Request::Repos),
            _ => {}
        }
        if let Some(arg) = verb_arg(line, "!trace") {
            return match arg.parse::<u64>() {
                Ok(id) => Ok(Request::Trace { id }),
                Err(_) if arg.is_empty() => Err("!trace needs a query id".into()),
                Err(_) => Err(format!("!trace: bad query id {arg:?}")),
            };
        }
        if let Some(arg) = verb_arg(line, "!use") {
            return if arg.is_empty() {
                Err("!use needs a repository name".into())
            } else if arg.split_whitespace().nth(1).is_some() {
                Err(format!("!use takes one repository name, got {arg:?}"))
            } else {
                Ok(Request::Use { repo: arg.into() })
            };
        }
        if let Some(arg) = verb_arg(line, "!reload") {
            return if arg.is_empty() {
                Err("!reload needs an instance path".into())
            } else {
                let (target, path) = parse_reload_arg(arg)?;
                Ok(Request::Reload { target, path })
            };
        }
        if line.starts_with('!') {
            let verb = line.split_whitespace().next().unwrap_or(line);
            return Err(format!(
                "unknown verb {verb:?} (expected !use|!repos|!reload|!stats|!metrics|!trace)"
            ));
        }
        let (repo, spec) = QuerySpec::parse_addressed(line)?;
        Ok(Request::Query { repo, spec })
    }

    /// Renders the canonical request line — the exact inverse of
    /// [`parse`](Request::parse) (`repo=` lands at the end of a query
    /// line, verbs join their arguments with single spaces, and a
    /// `!reload` path that the bare token grammar would misparse —
    /// whitespace, a leading `"`, or empty — renders double-quoted).
    pub fn render(&self) -> String {
        match self {
            Request::Query { repo: None, spec } => spec.to_string(),
            Request::Query {
                repo: Some(name),
                spec,
            } => format!("{spec} repo={name}"),
            Request::Use { repo } => format!("!use {repo}"),
            Request::Repos => "!repos".into(),
            Request::Reload { target: None, path } => {
                format!("!reload {}", render_reload_path(path))
            }
            Request::Reload {
                target: Some(name),
                path,
            } => format!("!reload {name} {}", render_reload_path(path)),
            Request::Stats => "!stats".into(),
            Request::Metrics => "!metrics".into(),
            Request::Trace { id } => format!("!trace {id}"),
            Request::Ping => "ping".into(),
            Request::Quit => "quit".into(),
            Request::Shutdown => "shutdown".into(),
        }
    }
}

/// The argument of a standalone verb: `Some("")` for the bare verb,
/// `Some(rest)` for `verb rest`, `None` when the line is some other
/// verb (`!reloadx …` must not match `!reload`).
fn verb_arg<'l>(line: &'l str, verb: &str) -> Option<&'l str> {
    if line == verb {
        Some("")
    } else {
        line.strip_prefix(verb)
            .filter(|rest| rest.starts_with(char::is_whitespace))
            .map(str::trim)
    }
}

/// Splits a non-empty `!reload` argument into `(target, path)`. A
/// path may be double-quoted (`\"`/`\\` escaped inside) to carry
/// whitespace exactly; unquoted, the split is the lexical
/// two-token rule [`Request::Reload`] documents.
fn parse_reload_arg(arg: &str) -> Result<(Option<String>, String), String> {
    if arg.starts_with('"') {
        return Ok((None, parse_quoted_path(arg)?));
    }
    match arg.split_once(char::is_whitespace) {
        Some((name, rest)) if !rest.trim().is_empty() => {
            let rest = rest.trim();
            let path = if rest.starts_with('"') {
                parse_quoted_path(rest)?
            } else {
                rest.to_string()
            };
            Ok((Some(name.to_string()), path))
        }
        _ => Ok((None, arg.to_string())),
    }
}

/// Decodes a `"`-opened quoted path: the closing quote must end the
/// argument, and only `\"` / `\\` escapes are defined inside.
fn parse_quoted_path(s: &str) -> Result<String, String> {
    let mut out = String::new();
    let mut chars = s[1..].chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some(e @ ('"' | '\\')) => out.push(e),
                _ => return Err("!reload: bad escape in quoted path (only \\\" and \\\\)".into()),
            },
            '"' => {
                return if chars.as_str().trim().is_empty() {
                    Ok(out)
                } else {
                    Err(format!(
                        "!reload: trailing data after quoted path: {:?}",
                        chars.as_str().trim()
                    ))
                };
            }
            c => out.push(c),
        }
    }
    Err("!reload: unterminated quoted path".into())
}

/// Renders a `!reload` path in its canonical wire form: bare when the
/// token grammar reads it back exactly, double-quoted (with `\"`/`\\`
/// escapes) when whitespace, a leading quote, or emptiness would
/// break the round trip.
fn render_reload_path(path: &str) -> String {
    if !path.is_empty() && !path.starts_with('"') && !path.contains(char::is_whitespace) {
        return path.to_string();
    }
    let mut out = String::with_capacity(path.len() + 2);
    out.push('"');
    for c in path.chars() {
        if c == '"' || c == '\\' {
            out.push('\\');
        }
        out.push(c);
    }
    out.push('"');
    out
}

/// One reply the service sends — [`render`](Reply::render) is the
/// single source of the `ok …` / `err msg=…` framing.
#[derive(Debug, Clone)]
pub enum Reply {
    /// A completed query's measurements
    /// ([`QueryOutcome::protocol_line`]).
    Outcome(QueryOutcome),
    /// The answer to `ping`.
    Pong,
    /// `!use` succeeded; the connection now targets `repo`.
    Use {
        /// The tenant the connection switched to.
        repo: String,
    },
    /// `!reload` took effect; the tenant now serves this generation.
    Reload {
        /// The new generation id.
        generation: u64,
    },
    /// The `!stats` snapshot (one line of `key=value` counters).
    Stats {
        /// The rendered stats line ([`Surface::Stats`](crate::Surface::Stats)).
        stats: String,
    },
    /// The `!metrics` listing: a framing header then one line per
    /// sample.
    Metrics {
        /// `name value` or `name{labels} value` body lines
        /// ([`Surface::Metrics`](crate::Surface::Metrics)).
        body: Vec<String>,
    },
    /// The `!trace` timeline: a framing header then one line per
    /// retained event.
    Trace {
        /// The traced query id.
        id: u64,
        /// Rendered journal event lines.
        events: Vec<String>,
    },
    /// The `!repos` listing: a framing header then one line per
    /// served tenant.
    Repos {
        /// Rendered `repo name=… gen=… …` lines.
        listing: Vec<String>,
    },
    /// The load-shed reply: the server is at its connection limit or
    /// this session's queue bound — renders as the fixed
    /// `err msg=busy` clients retry on.
    Busy,
    /// Any other failure, rendered `err msg=<reason>`.
    Error {
        /// The human-readable reason.
        msg: String,
    },
}

/// The fixed reason string shedding replies carry (`err msg=busy`).
pub const BUSY_MSG: &str = "busy";

/// The fixed reason string an over-long request line is answered with
/// (`err msg=line_too_long`) before the rest of the line is discarded.
pub const LINE_TOO_LONG_MSG: &str = "line_too_long";

impl Reply {
    /// Shorthand for [`Reply::Error`].
    pub fn error(msg: impl Into<String>) -> Reply {
        Reply::Error { msg: msg.into() }
    }

    /// Renders the reply: one `\n`-joined string with no trailing
    /// newline (the listing verbs render their framing header plus
    /// body lines; everything else is a single line).
    pub fn render(&self) -> String {
        match self {
            Reply::Outcome(outcome) => outcome.protocol_line(),
            Reply::Pong => "pong".into(),
            Reply::Use { repo } => format!("ok use repo={repo}"),
            Reply::Reload { generation } => format!("ok reload gen={generation}"),
            Reply::Stats { stats } => format!("ok stats {stats}"),
            Reply::Metrics { body } => {
                let mut out = format!("ok metrics n={}", body.len());
                for line in body {
                    out.push('\n');
                    out.push_str(line);
                }
                out
            }
            Reply::Trace { id, events } => {
                let mut out = format!("ok trace id={id} events={}", events.len());
                for line in events {
                    out.push('\n');
                    out.push_str(line);
                }
                out
            }
            Reply::Repos { listing } => {
                let mut out = format!("ok repos n={}", listing.len());
                for line in listing {
                    out.push('\n');
                    out.push_str(line);
                }
                out
            }
            Reply::Busy => format!("err msg={BUSY_MSG}"),
            Reply::Error { msg } => format!("err msg={msg}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        assert_eq!(Request::parse("ping").unwrap(), Request::Ping);
        assert_eq!(Request::parse("quit").unwrap(), Request::Quit);
        assert_eq!(Request::parse(" shutdown ").unwrap(), Request::Shutdown);
        assert_eq!(Request::parse("!stats").unwrap(), Request::Stats);
        assert_eq!(Request::parse("!metrics").unwrap(), Request::Metrics);
        assert_eq!(Request::parse("!repos").unwrap(), Request::Repos);
        assert_eq!(
            Request::parse("!trace 12").unwrap(),
            Request::Trace { id: 12 }
        );
        assert_eq!(
            Request::parse("!use wiki").unwrap(),
            Request::Use {
                repo: "wiki".into()
            }
        );
        assert_eq!(
            Request::parse("!reload /tmp/a.sc").unwrap(),
            Request::Reload {
                target: None,
                path: "/tmp/a.sc".into()
            }
        );
        assert_eq!(
            Request::parse("!reload wiki /tmp/a.sc").unwrap(),
            Request::Reload {
                target: Some("wiki".into()),
                path: "/tmp/a.sc".into()
            }
        );
        assert_eq!(
            Request::parse("!reload \"/data/my file.sc\"").unwrap(),
            Request::Reload {
                target: None,
                path: "/data/my file.sc".into()
            }
        );
        assert_eq!(
            Request::parse(r#"!reload wiki "my \"quoted\" file.sc""#).unwrap(),
            Request::Reload {
                target: Some("wiki".into()),
                path: "my \"quoted\" file.sc".into()
            }
        );
        assert_eq!(
            Request::parse("greedy repo=wiki").unwrap(),
            Request::Query {
                repo: Some("wiki".into()),
                spec: QuerySpec::GreedyBaseline
            }
        );
        assert_eq!(
            Request::parse("iter delta=0.25 seed=3").unwrap(),
            Request::Query {
                repo: None,
                spec: QuerySpec::IterCover {
                    delta: 0.25,
                    seed: 3
                }
            }
        );
    }

    #[test]
    fn verb_keywords_must_stand_alone() {
        // `!reloadx` is an unknown verb, not a reload; same for the
        // other prefixes.
        assert!(Request::parse("!reloadx /tmp/a.sc").is_err());
        assert!(Request::parse("!used wiki").is_err());
        assert!(Request::parse("!tracey 1").is_err());
        // And the query grammar still owns non-`!` lines.
        assert!(Request::parse("pingx").is_err());
    }

    #[test]
    fn rejects_malformed_verbs_with_reasons() {
        for (bad, needle) in [
            ("", "empty"),
            ("!use", "repository name"),
            ("!use a b", "one repository name"),
            ("!reload", "instance path"),
            ("!reload \"unterminated", "unterminated quoted path"),
            ("!reload \"a b\" extra", "trailing data"),
            (r#"!reload "bad \n escape""#, "bad escape"),
            ("!trace", "query id"),
            ("!trace bogus", "bad query id"),
            ("!frobnicate", "unknown verb"),
            ("frobnicate", "unknown query kind"),
        ] {
            let err = Request::parse(bad).unwrap_err();
            assert!(err.contains(needle), "{bad:?} -> {err:?}");
        }
    }

    #[test]
    fn render_is_the_canonical_inverse_of_parse() {
        for line in [
            "ping",
            "quit",
            "shutdown",
            "!stats",
            "!metrics",
            "!repos",
            "!trace 7",
            "!use wiki",
            "!reload /tmp/a.sc",
            "!reload wiki /tmp/a.sc",
            "!reload \"/data/my file.sc\"",
            r#"!reload wiki "a \"b\" c.sc""#,
            "greedy",
            "iter delta=0.5 seed=9",
            "partial eps=0.2 delta=0.5 seed=1 repo=logs",
        ] {
            let req = Request::parse(line).unwrap();
            assert_eq!(
                Request::parse(&req.render()).unwrap(),
                req,
                "round trip of {line:?}"
            );
        }
    }

    #[test]
    fn reload_render_quotes_paths_the_token_grammar_would_misparse() {
        // The REVIEW.md case: an unaddressed path with a space used to
        // render to a line that re-parsed as target + mangled path.
        for (target, path) in [
            (None, "/data/my file.sc"),
            (None, "  leading and  interior  .sc"),
            (None, r#"we"ird \ path.sc"#),
            (None, "\"starts-with-quote.sc"),
            (None, ""),
            (Some("wiki"), "/data/my file.sc"),
            (Some("wiki"), "plain.sc"),
        ] {
            let req = Request::Reload {
                target: target.map(String::from),
                path: path.into(),
            };
            let line = req.render();
            assert_eq!(
                Request::parse(&line).as_ref(),
                Ok(&req),
                "round trip of {path:?} via {line:?}"
            );
        }
    }

    #[test]
    fn replies_render_their_framing() {
        assert_eq!(Reply::Pong.render(), "pong");
        assert_eq!(
            Reply::Use {
                repo: "wiki".into()
            }
            .render(),
            "ok use repo=wiki"
        );
        assert_eq!(Reply::Reload { generation: 3 }.render(), "ok reload gen=3");
        assert_eq!(Reply::Busy.render(), "err msg=busy");
        assert_eq!(Reply::error("nope").render(), "err msg=nope");
        assert_eq!(
            Reply::Metrics {
                body: vec!["a 1".into(), "b 2".into()]
            }
            .render(),
            "ok metrics n=2\na 1\nb 2"
        );
        assert_eq!(
            Reply::Trace {
                id: 4,
                events: vec!["ev".into()]
            }
            .render(),
            "ok trace id=4 events=1\nev"
        );
        assert_eq!(Reply::Repos { listing: vec![] }.render(), "ok repos n=0");
    }
}
