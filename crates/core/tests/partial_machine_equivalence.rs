//! The ε-partial state-machine driver must be observationally
//! identical to the sequential `PartialIterSetCover`: same cover (bit
//! for bit), same logical pass count, same space peak. Only wall-clock
//! and physical scan count may differ.

use sc_core::partial::{coverage_goal, run_partial, PartialIterSetCover, PartialReport};
use sc_core::{IterSetCoverConfig, PartialCoverDriver};
use sc_setsystem::{gen, SetSystem};
use sc_stream::{SetStream, SpaceMeter};

/// Runs the driver form of the ε-partial algorithm the way a scheduler
/// would: one shared physical scan per round.
fn run_via_driver(cfg: IterSetCoverConfig, system: &SetSystem, epsilon: f64) -> PartialReport {
    let n = system.universe();
    let required = coverage_goal(n, epsilon);
    let stream = SetStream::new(system);
    let meter = SpaceMeter::new();
    let mut driver = PartialCoverDriver::new(&cfg, required, &stream, &meter);
    while driver.wants_scan() {
        driver.begin_scan();
        driver.absorb_items(stream.shared_pass(&driver.participants()));
        driver.end_scan();
    }
    let cover = driver.finish_into(&stream, &meter);

    let mut covered = sc_bitset::BitSet::new(n);
    for &id in &cover {
        for &e in system.set(id) {
            covered.insert(e);
        }
    }
    assert_eq!(meter.current(), 0, "all charges must be released");
    PartialReport {
        algorithm: "driver".into(),
        cover,
        covered: covered.count(),
        required,
        passes: stream.passes(),
        space_words: meter.peak(),
    }
}

fn assert_equivalent(system: &SetSystem, cfg: IterSetCoverConfig, epsilon: f64, label: &str) {
    let solo = run_partial(&mut PartialIterSetCover::new(cfg), system, epsilon);
    let driven = run_via_driver(cfg, system, epsilon);
    assert_eq!(driven.cover, solo.cover, "{label}: covers differ");
    assert_eq!(driven.passes, solo.passes, "{label}: pass counts differ");
    assert_eq!(
        driven.space_words, solo.space_words,
        "{label}: space peaks differ"
    );
    assert_eq!(driven.covered, solo.covered, "{label}: coverage differs");
}

#[test]
fn epsilon_and_delta_sweep_on_planted_instances() {
    let inst = gen::planted(512, 1024, 16, 11);
    for delta in [1.0, 0.5, 0.25] {
        for epsilon in [0.0, 0.1, 0.4] {
            assert_equivalent(
                &inst.system,
                IterSetCoverConfig {
                    delta,
                    seed: 7,
                    ..Default::default()
                },
                epsilon,
                &format!("planted δ={delta} ε={epsilon}"),
            );
        }
    }
}

#[test]
fn noisy_instances_and_seeds() {
    let inst = gen::planted_noisy(300, 600, 10, 9);
    for seed in [0, 1, 0xdead_beef] {
        assert_equivalent(
            &inst.system,
            IterSetCoverConfig {
                seed,
                ..Default::default()
            },
            0.2,
            &format!("noisy seed={seed}"),
        );
    }
}

#[test]
fn uncoverable_instance_fails_identically() {
    let system = SetSystem::from_sets(4, vec![vec![0, 1], vec![1, 2]]);
    assert_equivalent(&system, IterSetCoverConfig::default(), 0.0, "uncoverable");
    // With a loose enough goal the partial cover succeeds anyway.
    assert_equivalent(&system, IterSetCoverConfig::default(), 0.3, "loose goal");
}

#[test]
fn tiny_universes_and_required_zero() {
    for n in [1usize, 2, 3] {
        let system = SetSystem::from_sets(n, vec![(0..n as u32).collect()]);
        assert_equivalent(
            &system,
            IterSetCoverConfig::default(),
            0.0,
            &format!("full single set, n={n}"),
        );
    }
    // ε close to 1: required becomes tiny but non-zero (ceil).
    let inst = gen::planted(64, 32, 4, 3);
    assert_equivalent(&inst.system, IterSetCoverConfig::default(), 0.9, "ε=0.9");
}

/// How many guesses run the goal sweep, which follows ⌈1/δ⌉ two-pass
/// iterations: no other phase reaches logical pass 2⌈1/δ⌉ + 1, so
/// every guess in that scan is sweeping.
fn sweepers(system: &SetSystem, cfg: IterSetCoverConfig, epsilon: f64) -> usize {
    let sweep_pass = 2 * (1.0 / cfg.delta).ceil() as usize + 1;
    let required = coverage_goal(system.universe(), epsilon);
    let stream = SetStream::new(system);
    let meter = SpaceMeter::new();
    let mut driver = PartialCoverDriver::new(&cfg, required, &stream, &meter);
    let mut sweepers = 0;
    while driver.wants_scan() {
        driver.begin_scan();
        if driver.pass_index() == sweep_pass {
            sweepers = driver.participants().len();
        }
        driver.absorb_items(stream.shared_pass(&driver.participants()));
        driver.end_scan();
    }
    let _ = driver.finish_into(&stream, &meter);
    sweepers
}

/// The goal sweep must stop buying sets at the goal on both of the
/// guess machine's paths: a lone sweeping guess walks items solo, two
/// or more share the traversal (one mask lane each), where a lane keeps
/// hitting past its goal. In both configurations the sweeping guesses'
/// covers are the best ones, so buying past the goal changes the
/// query's cover.
#[test]
fn goal_sweep_matches_the_reference_solo_and_shared() {
    let cfg = |seed| IterSetCoverConfig {
        delta: 0.25,
        seed,
        ..Default::default()
    };
    let solo = gen::planted(256, 512, 8, 3).system;
    assert_eq!(sweepers(&solo, cfg(2), 0.05), 1, "solo sweep");
    assert_equivalent(&solo, cfg(2), 0.05, "solo goal sweep");

    let shared = gen::planted(512, 1024, 16, 11).system;
    let n = sweepers(&shared, cfg(1), 0.05);
    assert!(n >= 2, "{n} guess(es) swept; the shared path needs two");
    assert_equivalent(&shared, cfg(1), 0.05, "shared goal sweep");
}

/// Covers and logical pass counts recorded from the ε-partial machine
/// before it was folded into the full-cover guess machine. The
/// equivalence tests above compare machine and reference, so they
/// cannot see a behaviour change made to both at once; these figures
/// can. Includes ε = 0, an early stop at the goal, goal sweeps (pass
/// count `2⌈1/δ⌉ + 1`), and an uncoverable instance.
#[test]
fn covers_and_passes_match_the_recorded_figures() {
    let uncoverable = || SetSystem::from_sets(4, vec![vec![0, 1], vec![1, 2]]);
    #[rustfmt::skip]
    let cases: Vec<(SetSystem, f64, f64, u64, usize, Vec<u32>)> = vec![
        (gen::planted(512, 1024, 16, 11).system, 0.5, 0.0, 7, 5, vec![
            357, 80, 30, 262, 113, 384, 521, 871, 6, 729, 3, 121, 64, 619, 206, 190, 2, 155,
            172, 56, 142, 33, 4, 10, 20, 22, 48, 69, 81,
        ]),
        (gen::planted(512, 1024, 16, 11).system, 0.25, 0.1, 7, 9, vec![
            97, 3, 48, 49, 114, 6, 18, 59, 33, 62, 10, 12, 15, 27, 79, 32, 56, 121, 4, 99, 155,
            132, 30, 0, 38, 64, 107, 120,
        ]),
        (gen::planted_noisy(300, 600, 10, 9).system, 0.5, 0.2, 1, 5, vec![
            348, 18, 322, 451, 244, 47, 388, 549, 89, 584, 397, 473, 202, 261, 13, 33,
        ]),
        // Two guesses run the goal sweep in the same scan.
        (gen::planted(1024, 2048, 16, 5).system, 0.25, 0.05, 0, 9, vec![
            22, 6, 9, 29, 106, 154, 19, 60, 95, 8, 28, 58, 108, 1, 59, 40, 62, 92, 43, 56, 79,
            38, 85, 98, 114, 238, 14, 31, 68, 87, 89,
        ]),
        (gen::planted(64, 32, 4, 3).system, 0.5, 0.9, 0, 2, vec![10, 16, 0, 6]),
        (gen::planted(2048, 1024, 8, 5).system, 1.0, 0.4, 3, 2, vec![
            57, 70, 144, 215, 357, 772, 997, 1008,
        ]),
        (uncoverable(), 0.5, 0.0, 0, 1, vec![]),
        (uncoverable(), 0.5, 0.3, 0, 1, vec![]),
    ];
    for (system, delta, epsilon, seed, passes, cover) in cases {
        let cfg = IterSetCoverConfig {
            delta,
            seed,
            ..Default::default()
        };
        let label = format!("n={} δ={delta} ε={epsilon} seed={seed}", system.universe());
        let solo = run_partial(&mut PartialIterSetCover::new(cfg), &system, epsilon);
        let driven = run_via_driver(cfg, &system, epsilon);
        for report in [&solo, &driven] {
            assert_eq!(report.cover, cover, "{label}: cover moved");
            assert_eq!(report.passes, passes, "{label}: pass count moved");
        }
    }
}
