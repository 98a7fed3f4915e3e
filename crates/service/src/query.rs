//! Query specifications, outcomes, and the line protocol.
//!
//! One request line, one response line — the format `sctool serve`
//! speaks over stdin or TCP and `sctool client` generates load with.
//! Parsing and formatting live here so server, client, and tests agree
//! on a single grammar:
//!
//! ```text
//! iter [delta=0.5] [seed=0]          full cover via iterSetCover
//! partial [eps=0.1] [delta=0.5] [seed=0]   ε-partial cover
//! greedy                             store-all greedy baseline
//! ```
//!
//! Any query line may carry a `repo=<name>` token addressing one of
//! the server's named tenants for that query only
//! ([`QuerySpec::parse_addressed`] strips it); the connection-scoped
//! form is the admin line `!use <name>`. Besides query lines the
//! server accepts the admin lines `ping`, `quit`, `shutdown`,
//! `!repos` (list the served tenants), and `!reload [name] <path>`
//! (hot-swap a served repository; answered `ok reload gen=N …` once
//! its in-flight queries drained on their original generation) —
//! those are intercepted by the pump
//! ([`net::pump_queries`](crate::net::pump_queries)) before
//! [`QuerySpec::parse`] sees them.

use sc_setsystem::SetId;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// One cover query a client can submit to the service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuerySpec {
    /// Full cover via the paper's `iterSetCover` (multiplexed guesses).
    IterCover {
        /// Pass/space trade-off δ ∈ (0, 1].
        delta: f64,
        /// RNG seed — results are deterministic given the seed.
        seed: u64,
    },
    /// ε-partial cover via the truncated `iterSetCover`.
    PartialCover {
        /// Allowed uncovered fraction ε ∈ [0, 1).
        epsilon: f64,
        /// Pass/space trade-off δ ∈ (0, 1].
        delta: f64,
        /// RNG seed.
        seed: u64,
    },
    /// The one-pass store-all greedy baseline (`O(mn)` space).
    GreedyBaseline,
}

impl QuerySpec {
    /// Short kind tag used in protocol responses.
    pub fn kind(&self) -> &'static str {
        match self {
            QuerySpec::IterCover { .. } => "iter",
            QuerySpec::PartialCover { .. } => "partial",
            QuerySpec::GreedyBaseline => "greedy",
        }
    }

    /// Parses one protocol request line.
    ///
    /// # Errors
    ///
    /// A human-readable message for an unknown kind, malformed
    /// `key=value` token, or out-of-range parameter.
    pub fn parse(line: &str) -> Result<QuerySpec, String> {
        let mut it = line.split_whitespace();
        let kind = it.next().ok_or("empty query line")?;
        // Keys each kind accepts — a parameter the kind would silently
        // discard is rejected, so "iter eps=0.2" (meaning a partial
        // query) errors instead of running a different query than the
        // client asked for.
        let allowed: &[&str] = match kind {
            "iter" => &["delta", "seed"],
            "partial" => &["eps", "epsilon", "delta", "seed"],
            "greedy" => &[],
            other => {
                return Err(format!(
                    "unknown query kind {other:?} (expected iter|partial|greedy)"
                ))
            }
        };
        let mut delta = 0.5f64;
        let mut epsilon = 0.1f64;
        let mut seed = 0u64;
        for tok in it {
            let (key, value) = tok
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {tok:?}"))?;
            if !allowed.contains(&key) {
                return Err(format!("{kind:?} queries take no {key:?} parameter"));
            }
            match key {
                "delta" => {
                    delta = value.parse().map_err(|_| format!("bad delta {value:?}"))?;
                }
                "eps" | "epsilon" => {
                    epsilon = value
                        .parse()
                        .map_err(|_| format!("bad epsilon {value:?}"))?;
                }
                "seed" => {
                    seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?;
                }
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        if !(delta > 0.0 && delta <= 1.0) {
            return Err(format!("delta must be in (0,1], got {delta}"));
        }
        if !(0.0..1.0).contains(&epsilon) {
            return Err(format!("epsilon must be in [0,1), got {epsilon}"));
        }
        match kind {
            "iter" => Ok(QuerySpec::IterCover { delta, seed }),
            "partial" => Ok(QuerySpec::PartialCover {
                epsilon,
                delta,
                seed,
            }),
            "greedy" => Ok(QuerySpec::GreedyBaseline),
            _ => unreachable!("kind validated above"),
        }
    }

    /// Parses one protocol request line that may carry a
    /// `repo=<name>` token addressing a named tenant for this query
    /// only. The token is position-independent and stripped before
    /// the spec grammar applies (so `iter repo=wiki delta=0.25` and
    /// `repo=wiki iter delta=0.25` both work); at most one is
    /// allowed. Returns the tenant name (if any) beside the spec.
    ///
    /// # Errors
    ///
    /// A human-readable message for an empty or repeated `repo=`, or
    /// anything [`QuerySpec::parse`] rejects in the rest of the line.
    pub fn parse_addressed(line: &str) -> Result<(Option<String>, QuerySpec), String> {
        let mut repo: Option<String> = None;
        let mut rest: Vec<&str> = Vec::new();
        for tok in line.split_whitespace() {
            match tok.strip_prefix("repo=") {
                Some("") => return Err("empty repo= name".to_string()),
                Some(name) => {
                    if repo.is_some() {
                        return Err("repo= given twice".to_string());
                    }
                    repo = Some(name.to_string());
                }
                None => rest.push(tok),
            }
        }
        Ok((repo, QuerySpec::parse(&rest.join(" "))?))
    }
}

impl fmt::Display for QuerySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuerySpec::IterCover { delta, seed } => write!(f, "iter delta={delta} seed={seed}"),
            QuerySpec::PartialCover {
                epsilon,
                delta,
                seed,
            } => write!(f, "partial eps={epsilon} delta={delta} seed={seed}"),
            QuerySpec::GreedyBaseline => write!(f, "greedy"),
        }
    }
}

/// What the service measured for one completed query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Service-assigned query id (submission order).
    pub id: u64,
    /// The query as submitted.
    pub spec: QuerySpec,
    /// The emitted cover (set ids).
    pub cover: Vec<SetId>,
    /// Elements the cover actually covers.
    pub covered: usize,
    /// The coverage goal: `n` for full queries, `⌈(1-ε)·n⌉` for
    /// partial ones.
    pub required: usize,
    /// Logical passes charged to this query (max over its parallel
    /// branches — identical to the same query run solo).
    pub logical_passes: usize,
    /// Peak working memory in words (identical to the solo run).
    pub space_words: usize,
    /// Physical scan epochs this query rode (== `logical_passes`:
    /// every epoch it joined advanced its slowest branch by one pass).
    pub epochs_joined: usize,
    /// Time from submission to admission into the first epoch.
    pub queue_wait: Duration,
    /// Time from submission to completion.
    pub latency: Duration,
    /// `true` when the outcome was answered from the cross-query
    /// outcome cache (zero physical scans; all observables are the
    /// stored solo values of the run that populated the entry).
    pub cached: bool,
    /// `true` when this query coalesced onto an identical in-flight
    /// job instead of running as its own (the service always does
    /// that for a cache miss with an in-flight twin): the cover, pass,
    /// and space observables are that job's, which by determinism are
    /// exactly this query's own solo run's; `epochs_joined` reports
    /// the job's epoch count, and the id and timing are this query's.
    pub coalesced: bool,
    /// The repository generation this query was answered from
    /// ([`RepositoryGeneration::id`](crate::RepositoryGeneration::id)
    /// — `1` until the first hot swap). A query admitted before a
    /// `!reload` drains on its original generation and reports it here;
    /// `gen=` in the protocol line.
    pub generation: u64,
    /// The named tenant (repository) this query was answered by —
    /// `"default"` on a single-tenant service; `repo=` in the
    /// protocol line.
    pub tenant: Arc<str>,
}

impl QueryOutcome {
    /// `true` iff the coverage goal was met.
    pub fn goal_met(&self) -> bool {
        self.covered >= self.required
    }

    /// Cover size `|sol|`.
    pub fn cover_size(&self) -> usize {
        self.cover.len()
    }

    /// The one-line protocol response `sctool serve` prints.
    ///
    /// `ok`/`fail` reflects the coverage goal; `fail` still carries the
    /// (best-effort) measurements so a load generator can tabulate it.
    pub fn protocol_line(&self) -> String {
        format!(
            "{} id={} kind={} sol={} covered={}/{} passes={} space={} epochs={} wait_us={} us={} cached={} coal={} gen={} repo={}",
            if self.goal_met() { "ok" } else { "fail" },
            self.id,
            self.spec.kind(),
            self.cover.len(),
            self.covered,
            self.required,
            self.logical_passes,
            self.space_words,
            self.epochs_joined,
            self.queue_wait.as_micros(),
            self.latency.as_micros(),
            u8::from(self.cached),
            u8::from(self.coalesced),
            self.generation,
            self.tenant,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_kind_with_defaults() {
        assert_eq!(
            QuerySpec::parse("iter").unwrap(),
            QuerySpec::IterCover {
                delta: 0.5,
                seed: 0
            }
        );
        assert_eq!(
            QuerySpec::parse("partial eps=0.25 delta=0.5 seed=9").unwrap(),
            QuerySpec::PartialCover {
                epsilon: 0.25,
                delta: 0.5,
                seed: 9
            }
        );
        assert_eq!(
            QuerySpec::parse("  greedy  ").unwrap(),
            QuerySpec::GreedyBaseline
        );
    }

    #[test]
    fn display_round_trips_through_parse() {
        for spec in [
            QuerySpec::IterCover {
                delta: 0.25,
                seed: 3,
            },
            QuerySpec::PartialCover {
                epsilon: 0.2,
                delta: 1.0,
                seed: 8,
            },
            QuerySpec::GreedyBaseline,
        ] {
            assert_eq!(QuerySpec::parse(&spec.to_string()).unwrap(), spec);
        }
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "frobnicate",
            "iter delta",
            "iter delta=zero",
            "iter delta=0",
            "iter delta=1.5",
            "partial eps=1.0",
            "iter passes=3",
            "iter eps=0.2",
            "greedy seed=1",
            "greedy delta=0.5",
        ] {
            assert!(QuerySpec::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn repo_token_is_stripped_anywhere_in_the_line() {
        for line in [
            "repo=wiki iter delta=0.25 seed=3",
            "iter repo=wiki delta=0.25 seed=3",
            "iter delta=0.25 seed=3 repo=wiki",
        ] {
            let (repo, spec) = QuerySpec::parse_addressed(line).unwrap();
            assert_eq!(repo.as_deref(), Some("wiki"));
            assert_eq!(
                spec,
                QuerySpec::IterCover {
                    delta: 0.25,
                    seed: 3
                }
            );
        }
    }

    #[test]
    fn unaddressed_lines_parse_with_no_tenant() {
        let (repo, spec) = QuerySpec::parse_addressed("greedy").unwrap();
        assert_eq!(repo, None);
        assert_eq!(spec, QuerySpec::GreedyBaseline);
    }

    #[test]
    fn bad_repo_tokens_are_rejected() {
        assert!(QuerySpec::parse_addressed("iter repo=").is_err());
        assert!(QuerySpec::parse_addressed("iter repo=a repo=b").is_err());
        // The stripped rest still goes through the strict grammar.
        assert!(QuerySpec::parse_addressed("repo=wiki frobnicate").is_err());
    }
}
