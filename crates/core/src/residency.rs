//! Bounded, deterministic residency for compiled plans.
//!
//! The paper's software-defined model compiles a schedule once and
//! executes it thousands of times (§5); a serving frontend that
//! round-robins several models therefore lives or dies on compiled-plan
//! reuse. [`ResidencyManager`] keeps the compiled artifact of *each*
//! `(graph fingerprint, mapping epoch)` pair resident — replacing the
//! runtime's old single-entry cache, which thrashed the moment two
//! models alternated — under a configurable byte budget with cost-aware
//! LRU eviction.
//!
//! # Determinism
//!
//! Recency is a monotone *launch sequence number*, never wall clock:
//! every touch stamps the entry with the next integer. Sequence numbers
//! are unique, so the LRU victim (minimum stamp) is always unique and
//! eviction order is a pure function of the launch history — independent
//! of `HashMap` iteration order, thread scheduling, and host speed.
//! Serial ≡ parallel bit-identity and seed-reproducibility survive.
//!
//! # Plans come only from compile
//!
//! Every datapath plan an entry holds was built by
//! [`compile_plan`](crate::cosim::compile_plan) for a launch on this
//! runtime. A plan is a pure function of (topology, transfer shapes), so
//! recompiling it is both the cheapest way to get it and the check on it;
//! no plan is taken in from outside. [`ResidencyManager::export_warm`]
//! writes the resident datapath plans out as JSON, and nothing reads that
//! document back into a runtime.

use crate::runtime::CompiledCache;
use std::collections::HashMap;
use tsm_trace::{names, JsonWriter, Metrics, RunMetrics};

/// Version of the [`ResidencyManager::export_warm`] document. Version 2
/// stores each chip's program as the ISA's binary and no value compile
/// derives.
const EXPORT_VERSION: u64 = 2;

/// A resident compiled artifact plus its residency bookkeeping.
#[derive(Debug)]
struct Resident {
    cache: CompiledCache,
    /// Estimated heap footprint of the artifact, fixed at insert.
    bytes: u64,
    /// Launch sequence number of the last touch (monotone, unique).
    last_used: u64,
}

/// Lifetime counters of one manager. Monotone — deltas between two
/// snapshots give per-serve-run tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidencyStats {
    /// Launches that found their plan resident.
    pub hits: u64,
    /// Launches that had to compile.
    pub misses: u64,
    /// Entries evicted by the byte budget.
    pub evictions: u64,
    /// Entries dropped because their mapping epoch went stale.
    pub stale_drops: u64,
    /// Estimated bytes currently resident. The payload part is nominal:
    /// each entry is charged 320 B per payload vector it binds, although
    /// entries share those vectors through the runtime's payload pool.
    pub resident_bytes: u64,
    /// Plans currently resident.
    pub resident_plans: u64,
}

/// Inspection view of one resident entry (see
/// [`ResidencyManager::resident`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidentInfo {
    /// Fingerprint of the logical graph.
    pub graph_fp: u64,
    /// Mapping epoch the entry was compiled against.
    pub epoch: u64,
    /// Estimated heap footprint in bytes.
    pub bytes: u64,
    /// Launch sequence number of the last touch.
    pub last_used: u64,
    /// Whether the entry carries a datapath artifact.
    pub has_datapath: bool,
}

/// The bounded plan cache. See the module docs for semantics.
#[derive(Debug)]
pub struct ResidencyManager {
    entries: HashMap<(u64, u64), Resident>,
    /// Key of the most recently touched/inserted entry — the plan the
    /// in-flight (or just-finished) launch executes from.
    current: Option<(u64, u64)>,
    /// Next launch sequence number.
    seq: u64,
    budget_bytes: u64,
    resident_bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    stale_drops: u64,
}

impl ResidencyManager {
    /// An empty manager with an effectively unbounded budget.
    pub(crate) fn new() -> Self {
        ResidencyManager {
            entries: HashMap::new(),
            current: None,
            seq: 0,
            budget_bytes: u64::MAX,
            resident_bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            stale_drops: 0,
        }
    }

    /// The configured byte budget (`u64::MAX` = unbounded).
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Sets the byte budget and immediately evicts down to it. A budget
    /// of `0` keeps only the most recently used plan — exactly the
    /// pre-residency single-entry cache behavior.
    pub(crate) fn set_budget_bytes(&mut self, budget: u64) {
        self.budget_bytes = budget;
        self.evict_to_budget();
    }

    /// Lifetime counters plus the resident gauges.
    pub fn stats(&self) -> ResidencyStats {
        ResidencyStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            stale_drops: self.stale_drops,
            resident_bytes: self.resident_bytes,
            resident_plans: self.entries.len() as u64,
        }
    }

    /// Every resident entry, sorted by `(graph_fp, epoch)` for
    /// deterministic inspection.
    pub fn resident(&self) -> Vec<ResidentInfo> {
        let mut v: Vec<ResidentInfo> = self
            .entries
            .iter()
            .map(|(&(graph_fp, epoch), r)| ResidentInfo {
                graph_fp,
                epoch,
                bytes: r.bytes,
                last_used: r.last_used,
                has_datapath: r.cache.datapath.is_some(),
            })
            .collect();
        v.sort_by_key(|i| (i.graph_fp, i.epoch));
        v
    }

    /// The entry the in-flight launch executes from.
    pub(crate) fn current(&self) -> Option<&CompiledCache> {
        self.current
            .and_then(|k| self.entries.get(&k))
            .map(|r| &r.cache)
    }

    /// Looks up `(graph_fp, epoch)` and, on a hit, stamps it as the
    /// current entry with a fresh sequence number. `need_datapath`
    /// mirrors the launch mode: a datapath launch cannot reuse a
    /// program-only entry (it will recompile and upgrade it in place),
    /// while a statistical launch happily reuses a datapath-bearing one.
    pub(crate) fn touch(&mut self, graph_fp: u64, epoch: u64, need_datapath: bool) -> bool {
        let hit = match self.entries.get_mut(&(graph_fp, epoch)) {
            Some(r) if !need_datapath || r.cache.datapath.is_some() => {
                r.last_used = self.seq;
                true
            }
            _ => false,
        };
        self.seq += 1;
        if hit {
            self.current = Some((graph_fp, epoch));
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Inserts a freshly compiled artifact as the current entry and
    /// evicts LRU entries until the budget holds again. Replacing an
    /// existing key (the statistical→datapath upgrade) is not an
    /// eviction. The current entry itself is never evicted — even a
    /// zero-byte budget keeps the plan the launch is about to execute.
    pub(crate) fn insert(&mut self, cache: CompiledCache) {
        let key = (cache.graph_fp, cache.epoch);
        let bytes = cache_bytes(&cache);
        if let Some(old) = self.entries.remove(&key) {
            self.resident_bytes -= old.bytes;
        }
        self.resident_bytes += bytes;
        self.entries.insert(
            key,
            Resident {
                cache,
                bytes,
                last_used: self.seq,
            },
        );
        self.seq += 1;
        self.current = Some(key);
        self.evict_to_budget();
    }

    /// Drops every entry whose mapping epoch predates `current_epoch`
    /// (their logical→physical mapping no longer exists after a
    /// failover).
    pub(crate) fn drop_stale(&mut self, current_epoch: u64) {
        let stale: Vec<(u64, u64)> = self
            .entries
            .keys()
            .copied()
            .filter(|&(_, e)| e < current_epoch)
            .collect();
        for key in stale {
            let r = self.entries.remove(&key).expect("listed above");
            self.resident_bytes -= r.bytes;
            self.stale_drops += 1;
            if self.current == Some(key) {
                self.current = None;
            }
        }
    }

    /// Evicts strictly-least-recently-used entries until
    /// `resident_bytes <= budget`. The minimum `last_used` stamp is
    /// unique, so the victim sequence is deterministic and independent of
    /// `HashMap` iteration order. Always keeps at least one entry (the
    /// current one, which has the maximum stamp).
    fn evict_to_budget(&mut self) {
        while self.resident_bytes > self.budget_bytes && self.entries.len() > 1 {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, r)| r.last_used)
                .map(|(&k, _)| k)
                .expect("len > 1");
            let r = self.entries.remove(&victim).expect("chosen above");
            self.resident_bytes -= r.bytes;
            self.evictions += 1;
            if self.current == Some(victim) {
                self.current = None;
            }
        }
    }

    /// Writes every resident *datapath* plan (statistical entries hold
    /// none) as pretty-printed JSON, each as
    /// [`CompiledPlan::to_json`](crate::cosim::CompiledPlan::to_json)
    /// writes it under its `(graph_fp, epoch)` key, sorted by that key so
    /// the document is a deterministic function of the resident set. It
    /// is a dump for inspection: the benchmark's traced serve pass reads
    /// the resident plans through it and checks that each recompiles to
    /// itself. No runtime reads it back.
    pub fn export_warm(&self) -> String {
        let mut keys: Vec<(u64, u64)> = self
            .entries
            .iter()
            .filter(|(_, r)| r.cache.datapath.is_some())
            .map(|(&k, _)| k)
            .collect();
        keys.sort_unstable();
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.field_u64("version", EXPORT_VERSION);
        w.key("plans").begin_array();
        for key in keys {
            let r = &self.entries[&key];
            let plan = &r.cache.datapath.as_ref().expect("filtered above").plan;
            w.begin_object();
            w.field_u64("graph_fp", key.0);
            w.field_u64("epoch", key.1);
            w.field_raw("plan", &plan.to_json());
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Folds the delta between two [`ResidencyStats`] snapshots (plus the
    /// current gauges) into a metrics registry — how `Server::serve`
    /// reports per-run residency behavior without perturbing per-launch
    /// metrics.
    pub fn record_delta(&self, before: &ResidencyStats, metrics: &Metrics) {
        let after = self.stats();
        metrics.inc(names::RES_HITS, after.hits - before.hits);
        metrics.inc(names::RES_MISSES, after.misses - before.misses);
        metrics.inc(names::RES_EVICTIONS, after.evictions - before.evictions);
        metrics.inc(
            names::RES_STALE_DROPS,
            after.stale_drops - before.stale_drops,
        );
        metrics.set_gauge(names::RES_RESIDENT_BYTES, after.resident_bytes);
        metrics.set_gauge(names::RES_RESIDENT_PLANS, after.resident_plans);
    }

    /// Lifetime counters as a standalone snapshot (for callers outside a
    /// serving run).
    pub fn run_metrics(&self) -> RunMetrics {
        let m = Metrics::default();
        self.record_delta(&ResidencyStats::default(), &m);
        m.snapshot()
    }
}

/// Estimated heap footprint of one compiled artifact: the program's
/// per-op timing vectors and link reservations, the datapath plan's
/// records (`CompiledPlan`'s own estimate), and the synthetic payload
/// vectors. An estimate, not an exact allocator tally — what matters is
/// that it is deterministic and proportional, so budget arithmetic is
/// reproducible.
///
/// The payload charge is nominal: each entry is charged 320 B for every
/// vector it binds, as if it held a private copy, although the vectors
/// live once in the runtime's payload pool and entries hold handles to
/// them. Charging per entry keeps budgets, evictions and reports
/// independent of which other entries happen to be resident.
fn cache_bytes(cache: &CompiledCache) -> u64 {
    use std::mem::{size_of, size_of_val};
    let program = &cache.program;
    let mut bytes = size_of::<CompiledCache>()
        + size_of_val(&program.op_start[..])
        + size_of_val(&program.op_end[..])
        + program.compute_busy.len() * size_of::<(tsm_topology::TspId, u64)>()
        + size_of_val(program.occupancy.reservations());
    if let Some(a) = &cache.datapath {
        bytes += a.plan.heap_bytes();
        for payloads in &a.payloads {
            bytes += payloads.len() * tsm_isa::vector::VECTOR_BYTES;
        }
    }
    bytes as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tsm_compiler::schedule::CompiledProgram;

    /// A synthetic payload-free resident entry — every one costs the same
    /// estimated bytes, so the proptest can mirror budgets in units of
    /// entries.
    fn synthetic(fp: u64, epoch: u64) -> CompiledCache {
        CompiledCache {
            graph_fp: fp,
            epoch,
            program: CompiledProgram {
                op_start: Vec::new(),
                op_end: Vec::new(),
                span_cycles: 0,
                compute_busy: HashMap::new(),
                comm_busy_cycles: 0,
                occupancy: Default::default(),
            },
            datapath: None,
        }
    }

    /// Reference model: a flat Vec of (key, bytes, last_used) with the
    /// same touch/insert/evict semantics, implemented by full scans.
    #[derive(Default)]
    struct Model {
        entries: Vec<((u64, u64), u64, u64)>,
        seq: u64,
        budget: u64,
        current: Option<(u64, u64)>,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl Model {
        fn total(&self) -> u64 {
            self.entries.iter().map(|e| e.1).sum()
        }

        fn touch(&mut self, key: (u64, u64)) -> bool {
            let hit = self.entries.iter_mut().find(|e| e.0 == key);
            let hit = match hit {
                Some(e) => {
                    e.2 = self.seq;
                    true
                }
                None => false,
            };
            self.seq += 1;
            if hit {
                self.current = Some(key);
                self.hits += 1;
            } else {
                self.misses += 1;
            }
            hit
        }

        fn insert(&mut self, key: (u64, u64), bytes: u64) {
            self.entries.retain(|e| e.0 != key);
            self.entries.push((key, bytes, self.seq));
            self.seq += 1;
            self.current = Some(key);
            self.evict();
        }

        fn evict(&mut self) {
            while self.total() > self.budget && self.entries.len() > 1 {
                let victim = self
                    .entries
                    .iter()
                    .min_by_key(|e| e.2)
                    .map(|e| e.0)
                    .expect("len > 1");
                self.entries.retain(|e| e.0 != victim);
                self.evictions += 1;
                if self.current == Some(victim) {
                    self.current = None;
                }
            }
        }
    }

    /// The manager's byte estimate for a payload-free synthetic entry.
    fn unit_bytes() -> u64 {
        cache_bytes(&synthetic(0, 0))
    }

    proptest! {
        /// Arbitrary touch/insert sequences under arbitrary entry-count
        /// budgets match the reference model exactly: same hit/miss
        /// stream, same resident set, same eviction count, same current
        /// entry. Running the same sequence twice also agrees, which
        /// (together with the model match) pins eviction order as a pure
        /// function of the history — no HashMap-iteration dependence.
        #[test]
        fn manager_matches_reference_model(
            budget_entries in 0u64..6,
            ops in proptest::collection::vec((0u64..8, 0u64..2), 1..64)
        ) {
            let unit = unit_bytes();
            let mut mgr = ResidencyManager::new();
            mgr.set_budget_bytes(budget_entries * unit);
            let mut model = Model { budget: budget_entries * unit, ..Model::default() };

            for (fp, epoch) in ops {
                let key = (fp, epoch);
                let hit = mgr.touch(fp, epoch, false);
                prop_assert_eq!(hit, model.touch(key));
                if !hit {
                    mgr.insert(synthetic(fp, epoch));
                    model.insert(key, unit);
                }
                let resident = mgr.resident();
                let mut want: Vec<(u64, u64)> = model.entries.iter().map(|e| e.0).collect();
                want.sort_unstable();
                let got: Vec<(u64, u64)> = resident.iter().map(|i| (i.graph_fp, i.epoch)).collect();
                prop_assert_eq!(got, want);
                let stats = mgr.stats();
                prop_assert_eq!(
                    (stats.hits, stats.misses, stats.evictions),
                    (model.hits, model.misses, model.evictions)
                );
                prop_assert_eq!(stats.resident_bytes, model.total());
                prop_assert_eq!(
                    mgr.current().map(|c| (c.graph_fp, c.epoch)),
                    model.current
                );
            }
        }
    }

    #[test]
    fn budget_zero_keeps_only_the_current_entry() {
        let mut mgr = ResidencyManager::new();
        mgr.set_budget_bytes(0);
        mgr.insert(synthetic(1, 0));
        mgr.insert(synthetic(2, 0));
        let resident = mgr.resident();
        assert_eq!(resident.len(), 1);
        assert_eq!(resident[0].graph_fp, 2);
        assert_eq!(mgr.stats().evictions, 1);
        // Relaunching graph 1 misses: the single-entry thrash, on demand.
        assert!(!mgr.touch(1, 0, false));
    }

    #[test]
    fn drop_stale_removes_only_older_epochs() {
        let mut mgr = ResidencyManager::new();
        mgr.insert(synthetic(1, 0));
        mgr.insert(synthetic(2, 1));
        mgr.drop_stale(1);
        let resident = mgr.resident();
        assert_eq!(resident.len(), 1);
        assert_eq!((resident[0].graph_fp, resident[0].epoch), (2, 1));
        assert_eq!(mgr.stats().stale_drops, 1);
    }
}
