//! Pipeline stage 4 — **retirement**: outcome construction, cache
//! fill, and the reply fan-out.
//!
//! A job leaves the scan epochs when it no longer wants a scan. Its
//! retirement builds the [`QueryOutcome`] (tagged with the repository
//! generation it ran on), populates the outcome cache exactly once —
//! however many followers coalesced onto it — counts any eviction the
//! insert caused in the tenant's ledger, and delivers: the job's reply
//! channel, then one fanned reply per follower under the follower's
//! own id and timing.

use crate::admission::Inflight;
use crate::cache::CachedAnswer;
use crate::metrics::ServiceMetrics;
use crate::query::QueryOutcome;
use crate::service::Service;
use crate::tenants::{LedgerEvent, RepositoryGeneration};
use sc_bitset::BitSet;
use sc_telemetry::EventKind;

impl Service {
    /// Retires every job that no longer wants a scan, in admission
    /// order.
    pub(crate) fn retire(
        &self,
        gen: &RepositoryGeneration,
        inflight: &mut Vec<Inflight<'_>>,
        metrics: &mut ServiceMetrics,
    ) {
        let counters = gen.tenant.counters();
        let mut i = 0;
        while i < inflight.len() {
            if inflight[i].job.wants_scan() {
                i += 1;
                continue;
            }
            let fl = inflight.remove(i);
            let result = fl.job.finish();
            let mut covered = BitSet::new(gen.system.universe());
            for &id in &result.cover {
                for &e in gen.system.set(id) {
                    covered.insert(e);
                }
            }
            let outcome = QueryOutcome {
                id: fl.id,
                spec: fl.spec,
                cover: result.cover,
                covered: covered.count(),
                required: result.required,
                logical_passes: result.logical_passes,
                space_words: result.space_words,
                epochs_joined: result.epochs_joined,
                queue_wait: fl.admitted.duration_since(fl.submitted),
                latency: fl.submitted.elapsed(),
                cached: false,
                coalesced: false,
                generation: gen.id,
                tenant: gen.tenant.name_handle(),
            };
            if self.cache_enabled() {
                let evicted = self.cache().insert(
                    gen.tenant.id(),
                    gen.fingerprint,
                    gen.system.universe(),
                    gen.system.num_sets(),
                    &fl.spec,
                    CachedAnswer {
                        cover: outcome.cover.clone(),
                        covered: outcome.covered,
                        required: outcome.required,
                        logical_passes: outcome.logical_passes,
                        space_words: outcome.space_words,
                    },
                );
                counters.add(LedgerEvent::CapacityEviction, evicted as u64);
            }
            metrics.queue_wait.record(outcome.queue_wait);
            metrics.latency.record(outcome.latency);
            counters.bump(LedgerEvent::Completed);
            sc_telemetry::event(
                EventKind::Retired,
                fl.id,
                gen.id,
                0,
                outcome.logical_passes as u32,
            );
            // The client may have dropped its ticket; that is fine.
            let _ = fl.reply.send(outcome.clone());
            for f in fl.followers {
                // Determinism makes the job's observables the
                // follower's own solo observables; only identity and
                // timing are per-follower.
                let fanned = QueryOutcome {
                    id: f.id,
                    queue_wait: f.attached.duration_since(f.submitted),
                    latency: f.submitted.elapsed(),
                    coalesced: true,
                    ..outcome.clone()
                };
                metrics.queue_wait.record(fanned.queue_wait);
                metrics.latency.record(fanned.latency);
                counters.bump(LedgerEvent::Completed);
                sc_telemetry::event(
                    EventKind::Retired,
                    fanned.id,
                    gen.id,
                    0,
                    fanned.logical_passes as u32,
                );
                let _ = f.reply.send(fanned);
            }
        }
    }
}
