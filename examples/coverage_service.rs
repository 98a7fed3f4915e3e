//! The concurrent cover-query service: many clients, named
//! repositories, shared physical scans.
//!
//! ```text
//! cargo run --release --example coverage_service
//! ```
//!
//! Act 1 spawns a few client threads that submit a mix of full,
//! partial, and baseline cover queries against one planted repository,
//! then prints each outcome next to the service-wide scan accounting.
//! The point to look for: *physical scans* stays near the pass count
//! of a single query while the *sum* of per-query logical passes grows
//! with the number of clients — the streaming model's parallel-branch
//! accounting (`max`, not `sum`), realised across independent queries.
//!
//! Act 2 serves the same process over TCP — the exact server
//! `sctool serve --listen` runs (`sc_service::net::serve_tcp`) — and
//! probes readiness with `net::wait_ready` (what `sctool client
//! --wait-ready` uses) instead of a `/dev/tcp` retry loop, then speaks
//! the line protocol over a socket: the repeated query is answered
//! from the outcome cache (`cached=1` in its protocol line, zero
//! physical scans), a `repo=` token routes one query at the *second*
//! named repository the builder registered, and `!repos` lists both
//! tenants before the listener shuts down.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;
use streaming_set_cover::prelude::*;
use streaming_set_cover::service::net;

fn main() {
    let inst = gen::planted(4096, 2048, 16, 42);
    let aux = gen::planted(512, 256, 8, 7);
    println!(
        "repository: {} (n={}, m={})\n",
        inst.label,
        inst.system.universe(),
        inst.system.num_sets()
    );
    // One process, two named repositories: "planted" (the default —
    // everything unaddressed lands there) and a smaller "aux" tenant
    // the TCP act addresses by name.
    let service = ServiceBuilder::new()
        .tenant("planted", inst.system)
        .tenant("aux", aux.system)
        .build();

    // Three tenants, each with its own workload mix, submitting
    // concurrently through clones of the service handle.
    let clients: u64 = 3;
    let per_client: u64 = 4;
    let (outcomes, metrics) = service.serve(|handle| {
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..clients)
                .map(|c| {
                    let handle = handle.clone();
                    s.spawn(move || {
                        let tickets: Vec<_> = (0..per_client)
                            .map(|q| {
                                let spec = match (c + q) % 3 {
                                    0 => QuerySpec::IterCover {
                                        delta: 0.5,
                                        seed: c * 100 + q,
                                    },
                                    1 => QuerySpec::PartialCover {
                                        epsilon: 0.2,
                                        delta: 0.5,
                                        seed: c * 100 + q,
                                    },
                                    _ => QuerySpec::GreedyBaseline,
                                };
                                handle.submit(spec).expect("service open")
                            })
                            .collect();
                        tickets
                            .into_iter()
                            .map(|t| t.wait().expect("query served"))
                            .collect::<Vec<QueryOutcome>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("client thread"))
                .collect::<Vec<QueryOutcome>>()
        })
    });

    let mut outcomes = outcomes;
    outcomes.sort_by_key(|o| o.id);
    for o in &outcomes {
        println!("{}", o.protocol_line());
    }
    let logical: usize = outcomes.iter().map(|o| o.logical_passes).sum();
    println!(
        "\n{} queries ({} cache hits, {} mid-stream joins): {} logical passes served by {} physical scans ({:.1}x sharing), peak {} inflight, {:.1} ms",
        metrics.queries_completed,
        metrics.cache_hits,
        metrics.mid_stream_admissions,
        logical,
        metrics.physical_scans,
        logical as f64 / metrics.physical_scans.max(1) as f64,
        metrics.max_inflight_seen,
        metrics.elapsed.as_secs_f64() * 1e3,
    );
    println!("queue wait {}", metrics.queue_wait.summary());
    println!("latency    {}", metrics.latency.summary());

    // Act 2: the same service over TCP — the server `sctool serve
    // --listen` runs, with `wait_ready` replacing shell readiness
    // polling. Port 0 lets the OS pick a free port.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    println!("\nTCP act: serving on {addr}");
    std::thread::scope(|s| {
        let server = s.spawn(|| net::serve_tcp(&service, listener).expect("serve_tcp"));
        net::wait_ready(&addr, Duration::from_secs(10)).expect("server ready");
        let conn = TcpStream::connect(&addr).expect("connect");
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let mut writer = &conn;
        // The same iter spec twice, the repeat sent only after the
        // first reply: the second response comes back cached=1,
        // straight from the outcome cache, in zero physical scans.
        let mut line = String::new();
        for _ in 0..2 {
            writeln!(writer, "iter delta=0.5 seed=1").expect("send");
            writer.flush().expect("flush");
            line.clear();
            reader.read_line(&mut line).expect("reply");
            println!("tcp reply: {}", line.trim_end());
        }
        // A `repo=` token addresses the second tenant for one query
        // (its reply reports `repo=aux`); `!repos` lists both tenants
        // with generation, fingerprint, quota, and live counters.
        writeln!(writer, "greedy repo=aux").expect("send");
        writeln!(writer, "!repos").expect("send");
        writer.flush().expect("flush");
        for _ in 0..4 {
            line.clear();
            reader.read_line(&mut line).expect("reply");
            println!("tcp reply: {}", line.trim_end());
        }
        writeln!(writer, "shutdown").expect("send");
        writer.flush().expect("flush");
        let tcp_metrics = server.join().expect("server thread");
        println!(
            "tcp act: {} queries, {} cache hits, {} physical scans",
            tcp_metrics.queries_completed, tcp_metrics.cache_hits, tcp_metrics.physical_scans,
        );
    });
}
