//! Socket-to-socket serving benchmark of the set-cover query service.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload <batch-wide|tcp-hot|tenants-closed> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each workload sets up its service, measures for `--seconds`, checks
//! every answer against a solo replay, and prints the metrics; the last
//! line of standard output is one JSON object. `--trace 0` reports the
//! end-to-end metrics with telemetry off; `--trace 1` reports the
//! per-layer metrics, switching telemetry on for the middle half of the
//! window, and prints the per-query reconciliation table to standard
//! error. A wrong answer makes the run exit 1. README.md explains the
//! workloads and what each metric is expected to move.

mod batch_wide;
mod client;
mod layers;
mod oracle;
mod report;
mod tcp_hot;
mod tenants;

use rand::rngs::StdRng;
use rand::SeedableRng;
use report::Report;
use sc_setsystem::{Instance, SetSystem};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 3] = ["batch-wide", "tcp-hot", "tenants-closed"];

/// Timed set-ups before the measured window, and again after it;
/// `setup_s` is the median of all of them.
pub const SETUP_REPS: usize = 16;

/// Pause before each timed set-up. Set-up is allocation- and
/// memory-bound (a register-only loop timed beside it stays flat), and
/// back to back its time flips between two levels a third apart,
/// depending on what ran just before. After a pause every set-up
/// starts from the same idle state: the median of 32 paused set-ups
/// spread by 4-8% between runs, against 14-30% for back-to-back ones.
const SETUP_GAP: Duration = Duration::from_millis(60);

/// Runs `once` `n` times, appending each call's duration in seconds to
/// `times`, and returns the last call's result. The previous result is
/// dropped before the next call, so one set-up's memory is live at a
/// time.
pub fn timed_setups<T>(
    n: usize,
    times: &mut Vec<f64>,
    mut once: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut kept = None;
    for _ in 0..n {
        drop(kept.take());
        std::thread::sleep(SETUP_GAP);
        let t = Instant::now();
        kept = Some(once()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(kept.expect("at least one set-up"))
}

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} ({})",
            WORKLOADS.join("|")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Instance files a run writes and loads, under `.bench_out/` in the
/// working directory; removed when the run ends.
pub struct Files {
    dir: PathBuf,
    written: Vec<PathBuf>,
}

impl Files {
    fn new() -> Result<Files, String> {
        let dir = PathBuf::from(".bench_out");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Files {
            dir,
            written: Vec::new(),
        })
    }

    /// Writes `inst` as `<name>` (text format) and loads it back with
    /// `sc_setsystem::io::load_path`: the loaded system, the path, and
    /// how long the load took.
    pub fn write_and_load(
        &mut self,
        name: &str,
        inst: &Instance,
    ) -> Result<(SetSystem, String, Duration), String> {
        let path = self.dir.join(format!("{}-{name}.sc", std::process::id()));
        let text = sc_setsystem::io::to_string(inst);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        let path = path.to_string_lossy().into_owned();
        let t = Instant::now();
        let loaded = sc_setsystem::io::load_path(&path)?;
        let load = t.elapsed();
        if !self.written.iter().any(|p| p.to_string_lossy() == path) {
            self.written.push(PathBuf::from(&path));
        }
        Ok((loaded.system, path, load))
    }
}

impl Drop for Files {
    fn drop(&mut self) {
        for p in &self.written {
            let _ = std::fs::remove_file(p);
        }
        let _ = std::fs::remove_dir(&self.dir);
    }
}

/// The benchmark's randomness: stream `stream` of the generator seeded
/// from `--seed`.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("servebench: {msg}");
            std::process::exit(2);
        }
    };
    let result = Files::new().and_then(|mut files| match args.workload.as_str() {
        "batch-wide" => batch_wide::run(&args, &mut files),
        "tcp-hot" => tcp_hot::run(&args, &mut files),
        "tenants-closed" => tenants::run(&args, &mut files),
        other => unreachable!("parse_args admitted workload {other:?}"),
    });
    let mut rep: Report = match result {
        Ok(rep) => rep,
        Err(msg) => {
            eprintln!("servebench: {}: {msg}", args.workload);
            std::process::exit(1);
        }
    };
    let mut provenance = vec![
        ("commit".to_string(), report::commit()),
        ("available_parallelism".to_string(), cores().to_string()),
        (
            "kernel_backend".to_string(),
            sc_bitset::kernels::backend_name().to_string(),
        ),
        ("workload".to_string(), args.workload.clone()),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), u8::from(args.trace).to_string()),
        ("attempted".to_string(), rep.attempted.to_string()),
        ("failed".to_string(), rep.failed.to_string()),
    ];
    provenance.append(&mut rep.provenance);
    rep.provenance = provenance;
    rep.print();
    if !rep.correct {
        std::process::exit(1);
    }
}
