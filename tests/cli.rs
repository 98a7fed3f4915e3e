//! End-to-end tests of the `sctool` binary: the generate → convert →
//! inspect → solve → certify workflow, plus its error paths.

use std::path::PathBuf;
use std::process::{Command, Output};

fn sctool() -> PathBuf {
    // Integration tests live next to the binary under test.
    let mut path = std::env::current_exe().expect("test binary path");
    path.pop(); // deps/
    path.pop(); // debug/ (or release/)
    path.push("sctool");
    assert!(
        path.exists(),
        "sctool not built at {path:?} — cargo builds bins for test runs"
    );
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(sctool())
        .args(args)
        .output()
        .expect("spawn sctool")
}

fn run_with_stdin(args: &[&str], stdin: &[u8]) -> Output {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(sctool())
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sctool");
    child.stdin.as_mut().unwrap().write_all(stdin).unwrap();
    child.wait_with_output().expect("wait sctool")
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "sctool failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn gen_info_solve_certify_round_trip() {
    let dir = std::env::temp_dir().join(format!("sctool-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sc = dir.join("inst.sc");
    let scb = dir.join("inst.scb");

    // gen → file
    let generated = stdout(&run(&[
        "gen", "planted", "--n", "128", "--m", "256", "--k", "4", "--seed", "9",
    ]));
    std::fs::write(&sc, &generated).unwrap();

    // info on text
    let info = stdout(&run(&["info", sc.to_str().unwrap()]));
    assert!(info.contains("universe   : 128"), "{info}");
    assert!(info.contains("sets       : 256"), "{info}");
    assert!(info.contains("known cover: 4 sets (valid)"), "{info}");

    // convert text → binary; binary must be smaller and info-identical
    let msg = stdout(&run(&[
        "convert",
        sc.to_str().unwrap(),
        scb.to_str().unwrap(),
    ]));
    assert!(msg.contains("SCB1 binary"), "{msg}");
    let info_bin = stdout(&run(&["info", scb.to_str().unwrap()]));
    assert_eq!(info, info_bin, "binary info must match text info");
    let text_len = std::fs::metadata(&sc).unwrap().len();
    let bin_len = std::fs::metadata(&scb).unwrap().len();
    assert!(
        bin_len < text_len,
        "binary {bin_len} not smaller than text {text_len}"
    );

    // solve on the binary file
    let solve = stdout(&run(&[
        "solve",
        "iter",
        scb.to_str().unwrap(),
        "--delta",
        "0.5",
    ]));
    assert!(solve.contains("iterSetCover"), "{solve}");
    assert!(solve.contains("ok"), "{solve}");

    // certify: with a planted k=4 instance, the sandwich must include 4
    let certify = stdout(&run(&["certify", scb.to_str().unwrap()]));
    assert!(certify.contains("OPT ∈ ["), "{certify}");

    // exact agrees with the plant
    let exact = stdout(&run(&["exact", scb.to_str().unwrap()]));
    assert!(exact.contains("optimum (certified): 4 sets"), "{exact}");

    // convert back to text and compare instance content via info
    let sc2 = dir.join("roundtrip.sc");
    stdout(&run(&[
        "convert",
        scb.to_str().unwrap(),
        sc2.to_str().unwrap(),
    ]));
    let info_rt = stdout(&run(&["info", sc2.to_str().unwrap()]));
    assert_eq!(info, info_rt);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stdin_dash_reads_text() {
    let generated = stdout(&run(&[
        "gen", "uniform", "--n", "64", "--m", "32", "--p", "0.2", "--seed", "1",
    ]));
    let info = run_with_stdin(&["info", "-"], generated.as_bytes());
    let text = stdout(&info);
    assert!(text.contains("universe   : 64"), "{text}");
}

#[test]
fn gen_binary_flag_emits_scb1() {
    let out = run(&[
        "gen", "planted", "--n", "32", "--m", "16", "--k", "2", "--binary",
    ]);
    assert!(out.status.success());
    assert!(out.stdout.starts_with(b"SCB1\n"), "missing magic");
}

#[test]
fn solve_all_runs_every_algorithm() {
    let generated = stdout(&run(&[
        "gen", "planted", "--n", "64", "--m", "128", "--k", "4", "--seed", "2",
    ]));
    let out = run_with_stdin(&["solve", "all", "-"], generated.as_bytes());
    let text = stdout(&out);
    for label in [
        "greedy/store-all",
        "emek-rosen",
        "chakrabarti-wirth",
        "one-pass-projection",
        "dimv14",
        "iterSetCover",
    ] {
        assert!(text.contains(label), "missing {label} in:\n{text}");
    }
}

#[test]
fn stdin_dash_reads_scb1_binary() {
    let out = run(&[
        "gen", "planted", "--n", "64", "--m", "32", "--k", "2", "--seed", "5", "--binary",
    ]);
    assert!(out.status.success());
    assert!(out.stdout.starts_with(b"SCB1\n"));
    // Pipe the binary straight into the solver: the stdin reader sniffs
    // the magic, so generators can feed either format.
    let solve = run_with_stdin(&["solve", "iter", "-"], &out.stdout);
    let text = stdout(&solve);
    assert!(text.contains("iterSetCover"), "{text}");
    assert!(text.contains("ok"), "{text}");
    let info = run_with_stdin(&["info", "-"], &out.stdout);
    assert!(stdout(&info).contains("universe   : 64"));
}

#[test]
fn text_parse_errors_name_the_file_and_line() {
    let dir = std::env::temp_dir().join(format!("sctool-parse-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.sc");
    std::fs::write(&bad, "p setcover 4 1\ns 9\n").unwrap();
    let out = run(&["info", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(&format!("{}:2:", bad.display())),
        "error must carry file name and line: {err}"
    );
    assert!(err.contains("outside universe"), "{err}");
    // The stdin pseudo-file is named too.
    let out = run_with_stdin(&["info", "-"], b"p setcover 4 1\ns x\n");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("<stdin>:2:"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_stdin_round_trips_three_concurrent_queries() {
    let generated = stdout(&run(&[
        "gen", "planted", "--n", "128", "--m", "256", "--k", "4", "--seed", "3",
    ]));
    let dir = std::env::temp_dir().join(format!("sctool-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sc = dir.join("inst.sc");
    std::fs::write(&sc, &generated).unwrap();
    let out = run_with_stdin(
        &["serve", sc.to_str().unwrap()],
        b"iter delta=0.5 seed=1\npartial eps=0.2\ngreedy\n",
    );
    let text = stdout(&out);
    let ok_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("ok ")).collect();
    assert_eq!(ok_lines.len(), 3, "{text}");
    for (kind, id) in [("iter", "id=0"), ("partial", "id=1"), ("greedy", "id=2")] {
        assert!(
            ok_lines
                .iter()
                .any(|l| l.contains(&format!("kind={kind}")) && l.contains(id)),
            "missing {kind} response in:\n{text}"
        );
    }
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("3 queries"), "summary on stderr: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_rejects_unknown_flags_without_serving() {
    let generated = stdout(&run(&[
        "gen", "planted", "--n", "64", "--m", "128", "--k", "4", "--seed", "3",
    ]));
    let dir = std::env::temp_dir().join(format!("sctool-serve-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sc = dir.join("inst.sc");
    std::fs::write(&sc, &generated).unwrap();
    // Retired flags and a typo of `--workers` must fail loudly instead
    // of serving with silently different behaviour.
    for (flag, value) in [
        ("--interleave", "epoch"),
        ("--admission", "boundary"),
        ("--worker", "4"),
    ] {
        let out = run(&["serve", sc.to_str().unwrap(), flag, value]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag \"{flag}\"")), "{err}");
        assert!(
            !err.contains("sctool serve:"),
            "{flag}: served anyway: {err}"
        );
    }
    // A known flag missing its value is an error too.
    let out = run(&["serve", sc.to_str().unwrap(), "--workers"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--workers: missing value"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_tcp_round_trip_with_client_and_clean_shutdown() {
    use std::io::BufRead;
    use std::process::Stdio;
    let generated = stdout(&run(&[
        "gen", "planted", "--n", "128", "--m", "256", "--k", "4", "--seed", "4",
    ]));
    let dir = std::env::temp_dir().join(format!("sctool-tcp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sc = dir.join("inst.sc");
    std::fs::write(&sc, &generated).unwrap();
    // Port 0: the OS picks a free port, the server announces it.
    let mut server = Command::new(sctool())
        .args(["serve", sc.to_str().unwrap(), "--listen", "127.0.0.1:0"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn server");
    let mut stderr_lines = std::io::BufReader::new(server.stderr.take().unwrap()).lines();
    let addr = loop {
        let line = stderr_lines
            .next()
            .expect("server exited before announcing its address")
            .expect("read server stderr");
        if let Some(addr) = line.strip_prefix("sctool serve: listening on ") {
            break addr.to_string();
        }
    };
    // An idle connection that never sends anything: shutdown must not
    // wait for it (the server closes its read half to unblock).
    let idle = std::net::TcpStream::connect(&addr).expect("idle connect");
    let client = run(&[
        "client",
        "--connect",
        &addr,
        "--wait-ready",
        "30",
        "--queries",
        "3",
        "--concurrency",
        "3",
        "--shutdown",
    ]);
    let client_out = stdout(&client);
    assert!(client_out.contains("3 queries (3 ok"), "{client_out}");
    assert!(client_out.contains("latency"), "{client_out}");
    let status = server.wait().expect("server exit");
    assert!(status.success(), "server must shut down cleanly: {status}");
    drop(idle);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_command_exits_2_with_usage() {
    let out = run(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = run(&["info", "/nonexistent/path.sc"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("/nonexistent/path.sc"), "{err}");
}

#[test]
fn corrupt_binary_is_reported_with_location() {
    let dir = std::env::temp_dir().join(format!("sctool-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let scb = dir.join("bad.scb");
    let out = run(&[
        "gen", "planted", "--n", "64", "--m", "32", "--k", "2", "--binary",
    ]);
    let mut bytes = out.stdout.clone();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&scb, &bytes).unwrap();
    let out = run(&["info", scb.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("corrupt"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
