//! One module per experiment id (DESIGN.md §3).

mod ablations;
mod admission;
mod akl16_curve;
mod canonical_1_2;
mod coalesce;
mod geometric_4_6;
mod geometric_nets;
mod interleave;
mod kernels;
mod multiplex;
mod netload;
mod nisan_endpoint;
mod observability;
mod partial_eps;
mod protocol_bits;
mod recover_3_1;
mod reduction_5_4;
mod sampling_2_6;
mod semi_streaming;
mod service;
mod service_load;
mod sparse_6_6;
mod table_1_1;
mod tenants;
mod tradeoff_2_8;

pub use ablations::ablations;
pub use admission::admission;
pub use akl16_curve::akl16_curve;
pub use canonical_1_2::canonical_1_2;
pub use coalesce::coalesce;
pub use geometric_4_6::geometric_4_6;
pub use geometric_nets::geometric_nets;
pub use interleave::interleave;
pub use kernels::kernels;
pub use multiplex::multiplex;
pub use netload::netload;
pub use nisan_endpoint::nisan_endpoint;
pub use observability::observability;
pub use partial_eps::partial_eps;
pub use protocol_bits::protocol_bits;
pub use recover_3_1::recover_3_1;
pub use reduction_5_4::reduction_5_4;
pub use sampling_2_6::sampling_2_6;
pub use semi_streaming::semi_streaming;
pub use service::service;
pub use service_load::service_load;
pub use sparse_6_6::sparse_6_6;
pub use table_1_1::table_1_1;
pub use tenants::tenants;
pub use tradeoff_2_8::tradeoff_2_8;

use crate::{Scale, Table};

/// An experiment entry point: scale in, table out.
pub type Runner = fn(Scale) -> Table;

/// The experiment registry: `(repro id, paper artifact, runner)`.
pub fn registry() -> Vec<(&'static str, &'static str, Runner)> {
    vec![
        ("table1.1", "Figure 1.1 summary table", table_1_1 as Runner),
        ("thm2.8", "Theorem 2.8 pass/space trade-off", tradeoff_2_8),
        (
            "lem2.6",
            "Lemmas 2.3 & 2.6 sampling diagnostics",
            sampling_2_6,
        ),
        ("thm3.8", "Theorem 3.8 / Figure 3.1 recovery", recover_3_1),
        ("fig1.2", "Figure 1.2 canonical storage", canonical_1_2),
        ("thm4.6", "Theorem 4.6 geometric set cover", geometric_4_6),
        (
            "thm5.4",
            "Theorem 5.4 / Corollary 5.8 reduction",
            reduction_5_4,
        ),
        ("thm6.6", "Theorem 6.6 sparse instances", sparse_6_6),
        ("semi", "[ER14]/[CW16] semi-streaming rows", semi_streaming),
        ("nisan", "Nisan endpoint δ = Θ(1/log n)", nisan_endpoint),
        ("partial", "ε-Partial Set Cover sweep", partial_eps),
        ("ablations", "design-choice ablations", ablations),
        ("akl16", "[AKL16] single-pass α curve", akl16_curve),
        (
            "nets",
            "ε-nets + Brönnimann–Goodrich oracle",
            geometric_nets,
        ),
        (
            "protocol",
            "protocol bits vs lower-bound curves",
            protocol_bits,
        ),
        (
            "multiplex",
            "E16 pass-multiplexed executor wall-clock",
            multiplex,
        ),
        (
            "service",
            "E17 cover-query service scan sharing & throughput",
            service,
        ),
        (
            "load",
            "E18 service load test: cache, mid-stream joins, latency percentiles",
            service_load,
        ),
        (
            "coalesce",
            "E19 in-flight query coalescing: K identical queries, one job",
            coalesce,
        ),
        (
            "admission",
            "E20 pass-aligned non-blocking admission: queue wait under sustained load",
            admission,
        ),
        (
            "kernels",
            "E21 vectorized bitset kernels + bucket-queue greedy oracle",
            kernels,
        ),
        (
            "observability",
            "E22 telemetry overhead: gate off vs on over the service workloads",
            observability,
        ),
        (
            "tenants",
            "E23 multi-tenant serving: cross-tenant admission fairness under hot/cold load",
            tenants,
        ),
        (
            "netload",
            "E24 event-driven front door: connection soak, overload shedding, flat memory",
            netload,
        ),
        (
            "interleave",
            "E25 shard-granular cross-tenant interleaving: K narrow tenants, one fan-out",
            interleave,
        ),
    ]
}

/// Looks up one experiment by repro id.
pub fn by_id(id: &str) -> Option<Runner> {
    registry()
        .into_iter()
        .find(|(rid, _, _)| *rid == id)
        .map(|(_, _, f)| f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_resolvable() {
        let reg = registry();
        let mut ids: Vec<&str> = reg.iter().map(|(id, _, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), reg.len());
        for (id, _, _) in &reg {
            assert!(by_id(id).is_some());
        }
        assert!(by_id("nope").is_none());
    }
}
