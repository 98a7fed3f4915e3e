//! `sctool` — generate, inspect, and solve set cover instances from the
//! command line.
//!
//! ```text
//! sctool gen planted --n 2048 --m 4096 --k 16 --seed 7 > inst.sc
//! sctool info inst.sc
//! sctool gen planted --binary | sctool solve iter -
//! sctool solve all inst.sc
//! sctool exact inst.sc
//! sctool certify inst.sc
//! sctool convert inst.sc inst.scb      # text -> SCB1 binary
//! sctool convert inst.scb roundtrip.sc # binary -> text
//! printf 'iter\npartial eps=0.2\ngreedy\n' | sctool serve inst.sc
//! sctool serve inst.sc --listen 127.0.0.1:7431 &
//! sctool client --connect 127.0.0.1:7431 --queries 16 --concurrency 4
//! ```
//!
//! Instance files are text (`sc_setsystem::io`) or `SCB1` binary
//! (`sc_setsystem::binary`); readers sniff the magic, so either format
//! works wherever a file is accepted — including `-` for stdin.
//! `serve` runs the `sc_service` scan scheduler over a line protocol
//! (one query per line — see `sc_service::QuerySpec::parse`) on stdin
//! or a TCP listener; `client` is the matching load generator.

use std::fs::File;
use std::io::{BufRead, BufReader, Read, Write};
use std::process::ExitCode;

use streaming_set_cover::bitset::BitSet;
use streaming_set_cover::offline;
use streaming_set_cover::prelude::*;
use streaming_set_cover::setsystem::binary as scbin;
use streaming_set_cover::setsystem::io as scio;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("sctool: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  sctool gen <planted|noisy|uniform|zipf|sparse|adversarial> [--n N] [--m M] [--k K] [--p P] [--s S] [--theta T] [--max MAX] [--levels L] [--seed SEED] [--binary]
  sctool info <file>
  sctool solve <iter|dimv|store|onepick|progressive|sg|er|cw|akl|all> <file> [--delta D] [--passes P] [--alpha A] [--oracle greedy|exact|pd|lp]
  sctool exact <file> [--budget NODES]
  sctool certify <file>
  sctool convert <in> <out>              (format chosen by .scb extension)
  sctool serve <file> [--repo NAME=PATH]... [--quota NAME=N]... [--listen HOST:PORT] [--max-conns N] [--shed DEPTH] [--inflight N] [--workers N] [--cache N] [--eviction fifo|lru] [--window MS] [--shard SETS] [--stats-interval SECS] [--no-telemetry]
  sctool client --connect HOST:PORT [--repo NAME] [--wait-ready SECS] [--queries N] [--concurrency C] [--spec QUERY] [--duplicates K] [--allow-busy] [--stats] [--shutdown]
  sctool geomgen <discs|rects|triangles|clustered|grid|twoline> [--n N] [--m M] [--k K] [--half H] [--seed SEED]
  sctool geomsolve <file> [--delta D] [--no-canonical] [--bg]

files: text format everywhere; SCB1 binary is sniffed by magic; use - for stdin (either format)
serve protocol: one query per line — 'iter [delta=D] [seed=S]', 'partial [eps=E] [delta=D] [seed=S]', 'greedy', each optionally carrying 'repo=NAME' to address a named repository; also ping/quit/shutdown, '!use NAME' (retarget the connection at a named repository), '!repos' (list served repositories with generation/fingerprint/quota/counters), '!reload [NAME] PATH' (hot-swap a repository — the bare form swaps the connection's current one; in-flight queries drain on their generation), and the live telemetry verbs '!stats' (one-line counters + stage percentiles), '!metrics' (Prometheus-style listing), '!trace ID' (one query's journal timeline); responses come back in request order
serve tenants: the positional <file> is the repository named 'default'; each --repo NAME=PATH adds another; --quota NAME=N caps one repository's inflight slots; a cross-tenant fairness gate meters every tenant's scan work shard by shard; an identical query already in flight is never run twice (it rides that job)
serve overload: one event-driven thread multiplexes every connection; past --max-conns new connections get 'err msg=busy' and close, a query landing on a full submission queue answers 'err msg=busy' in-line, a request line past the per-session buffer cap answers 'err msg=line_too_long', and --shed DEPTH bounds each session's pipelined replies (beyond it the socket stalls in TCP backpressure); 'sctool client --allow-busy' counts busy answers instead of failing";

fn run(args: &[String]) -> Result<(), String> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("gen") => gen_cmd(&args[1..]),
        Some("info") => info_cmd(&args[1..]),
        Some("solve") => solve_cmd(&args[1..]),
        Some("exact") => exact_cmd(&args[1..]),
        Some("certify") => certify_cmd(&args[1..]),
        Some("convert") => convert_cmd(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]),
        Some("client") => client_cmd(&args[1..]),
        Some("geomgen") => geomgen_cmd(&args[1..]),
        Some("geomsolve") => geomsolve_cmd(&args[1..]),
        Some(other) => Err(format!("unknown command {other:?}")),
        None => Err("missing command".into()),
    }
}

/// Fetches `--flag value` from an argument list.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn flag_or<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad value for {name}: {v:?}")),
        None => Ok(default),
    }
}

/// Fetches every occurrence of a repeatable `--flag value`.
fn flag_all(args: &[String], name: &str) -> Vec<String> {
    args.windows(2)
        .filter(|w| w[0] == name)
        .map(|w| w[1].clone())
        .collect()
}

fn gen_cmd(args: &[String]) -> Result<(), String> {
    let kind = args.first().ok_or("gen: missing generator")?;
    let n: usize = flag_or(args, "--n", 1024)?;
    let m: usize = flag_or(args, "--m", 2 * n)?;
    let k: usize = flag_or(args, "--k", 16)?;
    let seed: u64 = flag_or(args, "--seed", 0)?;
    let inst = match kind.as_str() {
        "planted" => gen::planted(n, m, k, seed),
        "noisy" => gen::planted_noisy(n, m, k, seed),
        "uniform" => {
            let p: f64 = flag_or(args, "--p", 0.01)?;
            gen::uniform_random(n, m, p, seed)
        }
        "zipf" => {
            let theta: f64 = flag_or(args, "--theta", 1.1)?;
            let max: usize = flag_or(args, "--max", n / 8)?;
            gen::zipf(n, m, theta, max.max(1), seed)
        }
        "sparse" => {
            let s: usize = flag_or(args, "--s", 8)?;
            gen::sparse(n, m, s, seed)
        }
        "adversarial" => {
            let levels: u32 = flag_or(args, "--levels", 6)?;
            gen::greedy_adversarial(levels)
        }
        other => return Err(format!("gen: unknown generator {other:?}")),
    };
    if args.iter().any(|a| a == "--binary") {
        let mut out = std::io::stdout().lock();
        scbin::write_instance_binary(&mut out, &inst).map_err(|e| format!("stdout: {e}"))?;
    } else {
        print!("{}", scio::to_string(&inst));
    }
    Ok(())
}

/// Loads an instance from a text or SCB1 file, `-` meaning stdin
/// (either format; the SCB1 magic is sniffed — `scio::load_path` /
/// `scio::read_instance_sniffed`, the same loader the server's
/// `!reload` admin line uses). Parse errors carry the file name:
/// `name:line: message` for text, `name: …` for binary (whose errors
/// locate the damaged record instead of a line).
fn load(path: &str) -> Result<Instance, String> {
    if path == "-" {
        let mut bytes = Vec::new();
        std::io::stdin()
            .read_to_end(&mut bytes)
            .map_err(|e| format!("<stdin>: {e}"))?;
        return scio::read_instance_sniffed("<stdin>", &bytes[..]);
    }
    scio::load_path(path)
}

fn load_from_arg(args: &[String], at: usize) -> Result<Instance, String> {
    let path = args.get(at).ok_or("missing instance file")?;
    load(path)
}

fn info_cmd(args: &[String]) -> Result<(), String> {
    let inst = load_from_arg(args, 0)?;
    let s = &inst.system;
    println!("label      : {}", inst.label);
    println!("universe   : {}", s.universe());
    println!("sets       : {}", s.num_sets());
    println!("incidences : {}", s.total_size());
    println!("max |r|    : {}", s.max_set_size());
    println!("coverable  : {}", s.is_coverable());
    match &inst.planted {
        Some(p) => println!(
            "known cover: {} sets ({})",
            p.len(),
            match s.verify_cover(p) {
                Ok(()) => "valid",
                Err(_) => "INVALID",
            }
        ),
        None => println!("known cover: none"),
    }
    Ok(())
}

fn solve_cmd(args: &[String]) -> Result<(), String> {
    let which = args.first().ok_or("solve: missing algorithm")?.clone();
    let inst = load_from_arg(args, 1)?;
    let delta: f64 = flag_or(args, "--delta", 0.5)?;
    let passes: usize = flag_or(args, "--passes", 3)?;
    let alpha: f64 = flag_or(args, "--alpha", 4.0)?;
    let solver = match flag(args, "--oracle").as_deref() {
        None | Some("greedy") => OfflineSolver::Greedy,
        Some("exact") => OfflineSolver::DEFAULT_EXACT,
        Some("pd") => OfflineSolver::PrimalDual,
        Some("lp") => OfflineSolver::LpRound { seed: 0 },
        Some(other) => return Err(format!("solve: unknown oracle {other:?}")),
    };

    let mut algs: Vec<Box<dyn StreamingSetCover>> = Vec::new();
    let mut add = |name: &str| -> Result<(), String> {
        algs.push(match name {
            "iter" => Box::new(IterSetCover::new(IterSetCoverConfig {
                delta,
                solver,
                ..Default::default()
            })),
            "dimv" => Box::new(Dimv14::new(Dimv14Config {
                delta,
                solver,
                ..Default::default()
            })),
            "store" => Box::new(StoreAllGreedy),
            "onepick" => Box::new(OnePickPerPassGreedy),
            "progressive" => Box::new(ProgressiveGreedy),
            "sg" => Box::new(SahaGetoor::default()),
            "er" => Box::new(EmekRosen),
            "cw" => Box::new(ChakrabartiWirth::new(passes.max(1))),
            "akl" => Box::new(OnePassProjection {
                alpha: alpha.max(1.0),
                solver,
            }),
            other => return Err(format!("solve: unknown algorithm {other:?}")),
        });
        Ok(())
    };
    if which == "all" {
        for name in [
            "store",
            "onepick",
            "progressive",
            "sg",
            "er",
            "cw",
            "akl",
            "dimv",
            "iter",
        ] {
            add(name)?;
        }
    } else {
        add(&which)?;
    }

    for alg in &mut algs {
        let report = run_reported(alg.as_mut(), &inst.system);
        println!("{report}");
    }
    Ok(())
}

fn geomgen_cmd(args: &[String]) -> Result<(), String> {
    use streaming_set_cover::geometry::instances;
    let kind = args.first().ok_or("geomgen: missing family")?;
    let n: usize = flag_or(args, "--n", 500)?;
    let m: usize = flag_or(args, "--m", n / 2)?;
    let k: usize = flag_or(args, "--k", 8)?;
    let seed: u64 = flag_or(args, "--seed", 0)?;
    let inst = match kind.as_str() {
        "discs" => instances::random_discs(n, m, k, seed),
        "rects" => instances::random_rects(n, m, k, seed),
        "triangles" => instances::random_fat_triangles(n, m, k, seed),
        "clustered" => instances::clustered_discs(n, m, k, seed),
        "grid" => instances::grid_rects(n, m, seed),
        "twoline" => {
            let half: usize = flag_or(args, "--half", 32)?;
            instances::two_line(half, None, seed)
        }
        other => return Err(format!("geomgen: unknown family {other:?}")),
    };
    print!("{}", streaming_set_cover::geometry::io::to_string(&inst));
    Ok(())
}

fn geomsolve_cmd(args: &[String]) -> Result<(), String> {
    use streaming_set_cover::geometry::{io as gio, AlgGeomSc, AlgGeomScConfig};
    let path = args.first().ok_or("geomsolve: missing instance file")?;
    let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let inst = gio::read_instance(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?;
    let delta: f64 = flag_or(args, "--delta", 0.25)?;
    let decompose = !args.iter().any(|a| a == "--no-canonical");
    if args.iter().any(|a| a == "--bg") {
        use streaming_set_cover::geometry::{bronnimann_goodrich, BgConfig};
        let out = bronnimann_goodrich(&inst.points, &inst.shapes, &BgConfig::default())
            .ok_or("instance is not coverable")?;
        println!(
            "bronnimann-goodrich on {} (n={}, m={}): |sol|={} at guessed k={}, {} doublings, {} net draws — {}",
            inst.label,
            inst.points.len(),
            inst.shapes.len(),
            out.cover.len(),
            out.guessed_k,
            out.doublings,
            out.net_draws,
            match inst.verify_cover(&out.cover) {
                Ok(()) => "ok".to_string(),
                Err(e) => e,
            }
        );
        return Ok(());
    }
    let mut alg = AlgGeomSc::new(AlgGeomScConfig {
        delta,
        decompose_rects: decompose,
        ..Default::default()
    });
    let r = alg.run(&inst);
    println!(
        "algGeomSC(δ={delta}{}) on {} (n={}, m={})",
        if decompose { "" } else { ", no-canonical" },
        inst.label,
        inst.points.len(),
        inst.shapes.len()
    );
    println!(
        "|sol|={} passes={} space={} words, store ≤ {} candidates — {}",
        r.cover_size(),
        r.passes,
        r.space_words,
        r.max_store_candidates,
        match &r.verified {
            Ok(()) => "ok".to_string(),
            Err(e) => e.clone(),
        }
    );
    Ok(())
}

/// Prints the instant OPT sandwich: primal–dual dual witness (lower
/// bound), LP fractional value, and greedy cover (upper bound) — the
/// certificates that cost seconds instead of the exponential solver.
fn certify_cmd(args: &[String]) -> Result<(), String> {
    let inst = load_from_arg(args, 0)?;
    let sets = inst.system.all_bitsets();
    let target = BitSet::full(inst.system.universe());
    let pd = offline::primal_dual(&sets, &target).ok_or("instance is not coverable")?;
    let greedy = offline::greedy(&sets, &target).ok_or("instance is not coverable")?;
    let n = inst.system.universe();
    let frac = offline::fractional_mwu(
        &sets,
        &target,
        offline::lp::default_rounds(n.min(2048)),
        0.5,
    )
    .ok_or("instance is not coverable")?;
    println!(
        "dual lower bound : {} (primal–dual witness, certified)",
        pd.witness.len()
    );
    println!(
        "LP fractional    : {:.2} (MWU, {} rounds{})",
        frac.value,
        frac.rounds,
        if frac.patched > 0 {
            ", UNCONVERGED"
        } else {
            ""
        }
    );
    println!(
        "primal–dual cover: {} (f = {})",
        pd.cover.len(),
        pd.max_frequency
    );
    println!(
        "greedy cover     : {} (ρ = ln n + 1 ≈ {:.1})",
        greedy.len(),
        (n.max(2) as f64).ln() + 1.0
    );
    println!(
        "⇒ OPT ∈ [{}, {}]",
        pd.witness.len().max(frac.value.floor() as usize).max(1),
        greedy.len().min(pd.cover.len())
    );
    Ok(())
}

/// Converts between the text and `SCB1` binary formats; the output
/// format follows the output extension (`.scb` = binary).
fn convert_cmd(args: &[String]) -> Result<(), String> {
    let input = args.first().ok_or("convert: missing input file")?;
    let output = args.get(1).ok_or("convert: missing output file")?;
    let inst = load(input)?;
    let file = File::create(output).map_err(|e| format!("{output}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    if output.ends_with(".scb") {
        scbin::write_instance_binary(&mut w, &inst).map_err(|e| format!("{output}: {e}"))?;
    } else {
        scio::write_instance(&mut w, &inst).map_err(|e| format!("{output}: {e}"))?;
    }
    w.flush().map_err(|e| format!("{output}: {e}"))?;
    println!(
        "wrote {} ({} sets, {} incidences) as {}",
        output,
        inst.system.num_sets(),
        inst.system.total_size(),
        if output.ends_with(".scb") {
            "SCB1 binary"
        } else {
            "text"
        }
    );
    Ok(())
}

/// Rejects any `sctool serve` argument after the positional file that
/// is not a known flag (or a known flag's value) — a misspelt or
/// retired flag must fail loudly rather than silently change nothing.
fn check_serve_flags(args: &[String]) -> Result<(), String> {
    const VALUE_FLAGS: &[&str] = &[
        "--repo",
        "--quota",
        "--listen",
        "--max-conns",
        "--shed",
        "--inflight",
        "--workers",
        "--cache",
        "--eviction",
        "--window",
        "--shard",
        "--stats-interval",
    ];
    const SWITCHES: &[&str] = &["--no-telemetry"];
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            rest.next()
                .ok_or_else(|| format!("serve: {arg}: missing value"))?;
        } else if !SWITCHES.contains(&arg.as_str()) {
            return Err(format!("serve: unknown flag {arg:?}"));
        }
    }
    Ok(())
}

/// `sctool serve`: the `sc_service` scan scheduler behind a line
/// protocol. Without `--listen`, requests arrive on stdin and responses
/// leave on stdout (EOF shuts down); with `--listen HOST:PORT`, every
/// TCP connection speaks the same protocol concurrently, and the
/// `shutdown` command stops the listener once inflight work drains.
fn serve_cmd(args: &[String]) -> Result<(), String> {
    use streaming_set_cover::service::net;
    use streaming_set_cover::service::{
        expose, EvictionPolicy, ServiceBuilder, ServiceConfig, Surface,
    };
    check_serve_flags(args)?;
    if args.first().is_some_and(|p| p == "-") && flag(args, "--listen").is_none() {
        return Err(
            "serve: reading the instance from stdin needs --listen (without it, stdin carries the query protocol)"
                .into(),
        );
    }
    let inst = load_from_arg(args, 0)?;
    let defaults = ServiceConfig::default();
    // Per-tenant inflight quotas: `--quota NAME=N`, repeatable.
    let mut quotas: Vec<(String, usize)> = Vec::new();
    for q in flag_all(args, "--quota") {
        let (name, n) = q
            .split_once('=')
            .ok_or_else(|| format!("--quota: expected NAME=N, got {q:?}"))?;
        let n: usize = n
            .parse()
            .map_err(|_| format!("--quota {name}: bad count {n:?}"))?;
        quotas.push((name.to_string(), n.max(1)));
    }
    let quota_of = |name: &str| quotas.iter().find(|(q, _)| q == name).map(|&(_, n)| n);
    let mut builder = ServiceBuilder::new()
        .max_inflight(flag_or(args, "--inflight", defaults.max_inflight)?.max(1))
        .workers(flag_or(args, "--workers", defaults.workers)?.max(1))
        .cache_capacity(flag_or(args, "--cache", defaults.cache_capacity)?)
        .eviction(match flag(args, "--eviction") {
            Some(p) => EvictionPolicy::parse(&p).map_err(|e| format!("--eviction: {e}"))?,
            None => defaults.eviction,
        })
        .admission_window(std::time::Duration::from_millis(flag_or(
            args, "--window", 0u64,
        )?))
        .shard_size(flag_or(args, "--shard", defaults.shard_size)?.max(1));
    // The positional instance is the repository named "default" — the
    // one unaddressed queries and single-tenant clients land on. Each
    // `--repo NAME=PATH` mounts another named repository beside it.
    let mut seen = vec!["default".to_string()];
    builder = match quota_of("default") {
        Some(q) => builder.tenant_with_quota("default", inst.system, q),
        None => builder.tenant("default", inst.system),
    };
    for mount in flag_all(args, "--repo") {
        let (name, path) = mount
            .split_once('=')
            .ok_or_else(|| format!("--repo: expected NAME=PATH, got {mount:?}"))?;
        if name.is_empty() || seen.iter().any(|s| s == name) {
            return Err(format!(
                "--repo: duplicate or empty repository name {name:?}"
            ));
        }
        seen.push(name.to_string());
        let extra = scio::load_path(path)?;
        builder = match quota_of(name) {
            Some(q) => builder.tenant_with_quota(name, extra.system, q),
            None => builder.tenant(name, extra.system),
        };
    }
    for (name, _) in &quotas {
        if !seen.iter().any(|s| s == name) {
            return Err(format!("--quota {name}: no repository with that name"));
        }
    }
    let service = builder.build();
    // Telemetry is on by default in the CLI server (the library default
    // stays off): counters/spans/journal feed the `!stats`, `!metrics`,
    // and `!trace` verbs. `--no-telemetry` is the A/B switch the E22
    // overhead experiment's methodology mirrors.
    let telemetry = !args.iter().any(|a| a == "--no-telemetry");
    sc_telemetry::set_enabled(telemetry);
    let stats_interval: u64 = flag_or(args, "--stats-interval", 0u64)?;
    let (stop_ticker, ticker) = if telemetry && stats_interval > 0 {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let period = std::time::Duration::from_secs(stats_interval);
        let tenants = std::sync::Arc::clone(service.tenants());
        let ticker = std::thread::spawn(move || {
            // Disconnection = serve finished; the shutdown snapshot is
            // printed by the main thread.
            while let Err(std::sync::mpsc::RecvTimeoutError::Timeout) = rx.recv_timeout(period) {
                let stats = expose(&tenants, Surface::Stats).join(" ");
                eprintln!("sctool serve: stats {stats}");
            }
        });
        (Some(tx), Some(ticker))
    } else {
        (None, None)
    };
    let metrics = match flag(args, "--listen") {
        Some(addr) => {
            // Front-door limits of the event-driven session layer:
            // `--max-conns` is the concurrent-connection cap (excess
            // connections are answered `err msg=busy` and closed),
            // `--shed` the per-session pending-reply depth (beyond it
            // the server stops reading that socket — TCP backpressure,
            // not disconnection).
            let net_defaults = net::NetConfig::default();
            let net_cfg = net::NetConfig {
                max_conns: flag_or(args, "--max-conns", net_defaults.max_conns)?.max(1),
                pending_cap: flag_or(args, "--shed", net_defaults.pending_cap)?.max(1),
                ..net_defaults
            };
            let listener =
                std::net::TcpListener::bind(&addr).map_err(|e| format!("{addr}: {e}"))?;
            let local = listener.local_addr().map_err(|e| format!("{addr}: {e}"))?;
            eprintln!("sctool serve: listening on {local}");
            let (metrics, net_stats) = net::serve_tcp_with(&service, listener, net_cfg)?;
            eprintln!(
                "sctool serve: net accepted={} shed={} buffer_overflows={}",
                net_stats.accepted, net_stats.shed, net_stats.buffer_overflows,
            );
            metrics
        }
        None => {
            let (res, metrics) = service.serve(|handle| {
                // `StdinLock` is not `Send`, and the reader half moves
                // into the pump's reader thread — wrap `Stdin` itself.
                let stdin = BufReader::new(std::io::stdin());
                let stdout = std::io::stdout();
                net::pump_queries(stdin, &mut stdout.lock(), &handle)
            });
            res.map_err(|e| format!("serve: {e}"))?;
            metrics
        }
    };
    drop(stop_ticker);
    if let Some(t) = ticker {
        let _ = t.join();
    }
    eprintln!(
        "sctool serve: {} queries ({} jobs, {} cache hits, {} coalesced, {} mid-stream joins, {} pass-aligned), {} shard grants, {} physical scans, peak {} inflight, {:.1} ms, {} kernels",
        metrics.queries_completed,
        metrics.jobs,
        metrics.cache_hits,
        metrics.coalesced,
        metrics.mid_stream_admissions,
        metrics.aligned_joins,
        metrics.shard_grants,
        metrics.physical_scans,
        metrics.max_inflight_seen,
        metrics.elapsed.as_secs_f64() * 1e3,
        sc_bitset::kernels::backend_name(),
    );
    if metrics.reloads > 0 || metrics.evictions > 0 {
        eprintln!(
            "sctool serve: {} reloads, {} cache evictions ({} capacity, {} dead-generation)",
            metrics.reloads,
            metrics.evictions,
            metrics.capacity_evictions,
            metrics.reload_evictions,
        );
    }
    eprintln!("sctool serve: queue wait {}", metrics.queue_wait.summary());
    eprintln!("sctool serve: latency    {}", metrics.latency.summary());
    if telemetry {
        eprintln!(
            "sctool serve: stats trigger=shutdown {}",
            expose(service.tenants(), Surface::Stats).join(" ")
        );
    }
    Ok(())
}

/// Pulls a `key=value` integer field out of a protocol response line.
fn response_field(line: &str, key: &str) -> Option<u64> {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

/// `sctool client`: load generator for a `sctool serve --listen`
/// endpoint. Each connection pipelines its share of the queries (send
/// all lines, then read all responses) so the server can batch them
/// into shared scan epochs; the per-query `wait_us`/`us` fields of the
/// responses are tabulated into queue-wait and latency percentiles.
/// `--duplicates K` sends each spec K times (consecutive queries share
/// a spec; distinct groups advance the seed), exercising the server's
/// in-flight coalescing — the `coal=` responses are tallied alongside
/// cache hits.
fn client_cmd(args: &[String]) -> Result<(), String> {
    use std::net::TcpStream;
    use streaming_set_cover::service::protocol::{Reply, Request};
    use streaming_set_cover::service::{HistogramSnapshot, QuerySpec};
    let addr = flag(args, "--connect").ok_or("client: missing --connect")?;
    let queries: usize = flag_or(args, "--queries", 8)?;
    // `--allow-busy`: a server under deliberate overload answers some
    // queries `err msg=busy`; count those as shed load instead of
    // failing the run, and require ok + busy to cover every query.
    let allow_busy = args.iter().any(|a| a == "--allow-busy");
    let concurrency: usize = flag_or(args, "--concurrency", 1)?;
    let concurrency = concurrency.clamp(1, queries.max(1));
    let duplicates: usize = flag_or(args, "--duplicates", 1)?;
    let duplicates = duplicates.max(1);
    // `--repo NAME`: every connection retargets itself at a named
    // repository with `!use NAME` before pipelining its queries.
    let repo = flag(args, "--repo");
    let spec = flag(args, "--spec").unwrap_or_else(|| "iter delta=0.5".to_string());
    let base_spec = QuerySpec::parse(&spec).map_err(|e| format!("--spec: {e}"))?;
    // Query `q` (global index) belongs to duplicate group `q / K`; the
    // group advances the base spec's seed so groups are distinct while
    // the K queries inside one group are identical.
    let spec_of = move |q: usize| -> QuerySpec {
        let group = (q / duplicates) as u64;
        match base_spec {
            QuerySpec::IterCover { delta, seed } => QuerySpec::IterCover {
                delta,
                seed: seed + group,
            },
            QuerySpec::PartialCover {
                epsilon,
                delta,
                seed,
            } => QuerySpec::PartialCover {
                epsilon,
                delta,
                seed: seed + group,
            },
            QuerySpec::GreedyBaseline => QuerySpec::GreedyBaseline,
        }
    };
    if let Some(secs) = flag(args, "--wait-ready") {
        let secs: u64 = secs
            .parse()
            .map_err(|_| format!("bad value for --wait-ready: {secs:?}"))?;
        streaming_set_cover::service::net::wait_ready(&addr, std::time::Duration::from_secs(secs))
            .map_err(|e| format!("client: {e}"))?;
    }

    #[derive(Default)]
    struct Tally {
        ok: usize,
        /// Queries the server shed with `err msg=busy` (only counted
        /// under `--allow-busy`).
        busy: usize,
        cached: usize,
        coalesced: usize,
        /// Responses per server repository generation (`gen=` field) —
        /// shows which generation(s) answered when the repository was
        /// hot-swapped mid-load.
        generations: std::collections::BTreeMap<u64, usize>,
        queue_wait: HistogramSnapshot,
        latency: HistogramSnapshot,
    }
    let start = std::time::Instant::now();
    let total = std::sync::Mutex::new(Tally::default());
    std::thread::scope(|s| -> Result<(), String> {
        let mut workers = Vec::new();
        let mut start_index = 0usize;
        for c in 0..concurrency {
            // Spread the remainder over the first connections; each
            // connection owns a contiguous global index range so
            // duplicate groups are stable across concurrency levels.
            let share = queries / concurrency + usize::from(c < queries % concurrency);
            let first = start_index;
            start_index += share;
            if share == 0 {
                continue;
            }
            let (addr, total, spec_of, repo) = (&addr, &total, &spec_of, &repo);
            workers.push(s.spawn(move || -> Result<(), String> {
                let conn = TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
                let mut reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
                let mut writer = &conn;
                if let Some(name) = repo {
                    // Retarget before pipelining, and confirm the ack so
                    // a typo'd name fails fast instead of miscounting
                    // query responses downstream.
                    let retarget = Request::Use { repo: name.clone() };
                    writeln!(writer, "{}", retarget.render()).map_err(|e| e.to_string())?;
                    writer.flush().map_err(|e| e.to_string())?;
                    let mut ack = String::new();
                    reader.read_line(&mut ack).map_err(|e| e.to_string())?;
                    if !ack.starts_with("ok use ") {
                        return Err(format!("--repo {name}: {}", ack.trim_end()));
                    }
                }
                // A server over its connection limit answers one busy
                // line and hangs up; under --allow-busy the writes may
                // hit the closed socket (broken pipe) — swallow that and
                // let the read loop below find the busy line.
                let sent = (|| -> Result<(), String> {
                    for q in first..first + share {
                        let request = Request::Query {
                            repo: None,
                            spec: spec_of(q),
                        };
                        writeln!(writer, "{}", request.render()).map_err(|e| e.to_string())?;
                    }
                    writer.flush().map_err(|e| e.to_string())
                })();
                if let Err(e) = sent {
                    if !allow_busy {
                        return Err(e);
                    }
                }
                let mut tally = Tally::default();
                let mut line = String::new();
                for answered in 0..share {
                    line.clear();
                    // After the hang-up a reset can surface as either
                    // EOF or a read error; both mean the rest of this
                    // connection's load was shed.
                    let n = match reader.read_line(&mut line) {
                        Ok(n) => n,
                        Err(_) if allow_busy && tally.busy > 0 => 0,
                        Err(e) => return Err(e.to_string()),
                    };
                    if n == 0 {
                        if allow_busy && tally.busy > 0 {
                            tally.busy += share - answered;
                            break;
                        }
                        return Err("server closed the connection early".into());
                    }
                    if line.starts_with("ok") {
                        tally.ok += 1;
                        tally.cached += usize::from(response_field(&line, "cached") == Some(1));
                        tally.coalesced += usize::from(response_field(&line, "coal") == Some(1));
                        if let Some(generation) = response_field(&line, "gen") {
                            *tally.generations.entry(generation).or_default() += 1;
                        }
                        if let Some(us) = response_field(&line, "wait_us") {
                            tally
                                .queue_wait
                                .record(std::time::Duration::from_micros(us));
                        }
                        if let Some(us) = response_field(&line, "us") {
                            tally.latency.record(std::time::Duration::from_micros(us));
                        }
                    } else if allow_busy && line.trim_end() == Reply::Busy.render() {
                        tally.busy += 1;
                    } else {
                        eprintln!("sctool client: {}", line.trim_end());
                    }
                }
                let mut total = total.lock().expect("tally poisoned");
                total.ok += tally.ok;
                total.busy += tally.busy;
                total.cached += tally.cached;
                total.coalesced += tally.coalesced;
                for (generation, count) in tally.generations {
                    *total.generations.entry(generation).or_default() += count;
                }
                total.queue_wait.merge(&tally.queue_wait);
                total.latency.merge(&tally.latency);
                Ok(())
            }));
        }
        for w in workers {
            w.join().expect("client thread panicked")?;
        }
        Ok(())
    })?;
    let elapsed = start.elapsed();
    let tally = total.into_inner().expect("tally poisoned");
    let (ok, busy) = (tally.ok, tally.busy);
    println!(
        "{queries} queries ({ok} ok, {busy} busy, {} cached, {} coalesced) over {concurrency} connection(s) in {:.1} ms → {:.1} queries/s",
        tally.cached,
        tally.coalesced,
        elapsed.as_secs_f64() * 1e3,
        queries as f64 / elapsed.as_secs_f64().max(1e-9),
    );
    println!("queue wait {}", tally.queue_wait.summary());
    println!("latency    {}", tally.latency.summary());
    // Which server generation(s) answered — a hot swap mid-load shows
    // up as two generations here, with zero answers crossing them.
    let generations: Vec<String> = tally
        .generations
        .iter()
        .map(|(generation, count)| format!("gen {generation} × {count}"))
        .collect();
    if !generations.is_empty() {
        println!("answered from {}", generations.join(", "));
    }
    // `--stats` asks the server for its own tally right after the
    // burst: the `!stats` counters printed here sit next to the
    // client-side numbers above, so mismatches (e.g. answers served to
    // other clients, or a stats surface that stopped moving) are
    // visible in one terminal.
    if args.iter().any(|a| a == "--stats") {
        let conn = TcpStream::connect(&addr).map_err(|e| format!("{addr}: {e}"))?;
        let mut reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
        let mut writer = &conn;
        writeln!(writer, "{}", Request::Stats.render()).map_err(|e| e.to_string())?;
        writer.flush().map_err(|e| e.to_string())?;
        let mut line = String::new();
        reader.read_line(&mut line).map_err(|e| e.to_string())?;
        match line.trim_end().strip_prefix("ok stats ") {
            Some(stats) => println!("server stats: {stats}"),
            None => println!("server stats: unavailable ({})", line.trim_end()),
        }
    }
    if args.iter().any(|a| a == "--shutdown") {
        // Under deliberate overload the front door can still be at its
        // connection cap here — the burst sockets occupy sessions until
        // the poller reaps their EOFs — and then this connection is
        // shed with a busy line instead of carrying the shutdown.
        // Retry until a connection is admitted: an accepted `shutdown`
        // is acknowledged by the server closing the socket without
        // answering, so EOF means delivered and `err msg=busy` means
        // try again.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let conn = TcpStream::connect(&addr).map_err(|e| format!("{addr}: {e}"))?;
            let mut reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
            let mut writer = &conn;
            writeln!(writer, "{}", Request::Shutdown.render()).map_err(|e| e.to_string())?;
            writer.flush().map_err(|e| e.to_string())?;
            let mut line = String::new();
            let n = reader.read_line(&mut line).unwrap_or(0);
            if n == 0 || line.trim_end() != Reply::Busy.render() {
                break;
            }
            if std::time::Instant::now() >= deadline {
                return Err("shutdown connection kept being shed with busy".to_string());
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }
    // Every query must be accounted for: answered ok, or — under
    // `--allow-busy` — explicitly shed by the server.
    if ok + busy != queries {
        return Err(format!(
            "{} of {queries} queries did not return ok{}",
            queries - ok - busy,
            if allow_busy { " or busy" } else { "" },
        ));
    }
    Ok(())
}

fn exact_cmd(args: &[String]) -> Result<(), String> {
    let inst = load_from_arg(args, 0)?;
    let budget: u64 = flag_or(args, "--budget", 50_000_000)?;
    let sets = inst.system.all_bitsets();
    let target = BitSet::full(inst.system.universe());
    match offline::exact(&sets, &target, budget) {
        Some(outcome) => {
            println!(
                "optimum {}: {} sets after {} nodes{}",
                if outcome.optimal {
                    "(certified)"
                } else {
                    "(budget-limited upper bound)"
                },
                outcome.cover.len(),
                outcome.nodes,
                if outcome.optimal {
                    ""
                } else {
                    " — raise --budget to certify"
                },
            );
            let ids: Vec<String> = outcome.cover.iter().map(|i| i.to_string()).collect();
            println!("cover: {}", ids.join(" "));
            Ok(())
        }
        None => Err("instance is not coverable".into()),
    }
}
