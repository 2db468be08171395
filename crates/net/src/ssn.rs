//! The software-scheduled network: compile-time link reservations.
//!
//! A tensor transfer is scheduled vector-by-vector. Each 320-byte vector
//! (328 B on the wire) occupies a link for its serialization time
//! (24 cycles at 900 MHz); consecutive hops pipeline with *virtual
//! cut-through* flow control (paper §2.3): the downstream TSP begins
//! forwarding a vector as soon as it arrives, buffering in local SRAM only
//! as scheduled.
//!
//! Because the hardware may not assert back-pressure (§2.3) and has no
//! arbitration (§4.4), the schedule itself must guarantee that no two
//! vectors ever want the same link at the same time. [`LinkOccupancy`]
//! enforces that at construction and [`validate`] re-checks any finished
//! schedule — the software analogue of the hardware having nothing to
//! arbitrate.

use std::collections::HashMap;
use tsm_isa::timing;
use tsm_topology::route::Path;
use tsm_topology::{LinkId, Topology, TspId};

/// Cycles one vector occupies a link (serialization of 328 wire bytes).
pub fn vector_slot_cycles() -> u64 {
    timing::wire_packet_serialization_cycles()
}

/// The deterministic one-way latency the compiler budgets for a link: the
/// cable-class base plus the worst-case jitter absorbed by deskew margin.
pub fn scheduled_link_latency(topo: &Topology, link: LinkId) -> u64 {
    // worst-case offset of the link jitter model (+12) — the compiler must
    // never underflow the receiver (paper §2.3).
    topo.link(link).class.base_latency_cycles() + 12
}

/// Per-hop forwarding overhead at an *intermediate* TSP: the vector is
/// buffered in local SRAM (paper §2.3: "we use the local SRAM storage on
/// each TSP to provide intermediate buffering") and re-issued by the C2C
/// unit. Calibrated so serialization + intra-node wire + forwarding equals
/// the paper's 722 ns pipelined per-hop latency (§5.6):
/// 24 + 228 + 398 = 650 cycles = 722 ns at 900 MHz.
pub const FORWARD_OVERHEAD_CYCLES: u64 = 398;

/// One link reservation: a transfer's flit train holds one *direction* of
/// `link` for `[start, start + vectors·slot)` — the vectors stream
/// back-to-back at the serialization interval.
///
/// C2C links are full duplex (the hierarchical all-reduce of paper §5.6
/// explicitly accumulates "bidirectionally"), so reservations in opposite
/// directions never conflict. Booking whole flit trains (rather than one
/// row per vector) keeps the schedule size O(hops) per transfer, which is
/// what makes gigabyte-scale tensors and 10,440-TSP systems schedulable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// The reserved link.
    pub link: LinkId,
    /// The transmitting endpoint (fixes the direction).
    pub from: TspId,
    /// First cycle of occupancy.
    pub start: u64,
    /// Transfer this reservation belongs to.
    pub transfer: u32,
    /// Number of back-to-back vector flits in the train.
    pub vectors: u64,
    /// Hop index within the transfer's path.
    pub hop: u8,
}

impl Reservation {
    /// One past the last occupied cycle.
    pub fn end(&self) -> u64 {
        self.start + self.vectors * vector_slot_cycles()
    }
}

/// Errors from schedule construction or validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SsnError {
    /// Two reservations overlap on a link — the schedule would need the
    /// arbitration the hardware doesn't have.
    LinkConflict {
        /// The contested link.
        link: LinkId,
        /// Start of the first overlapping reservation.
        a_start: u64,
        /// Start of the second overlapping reservation.
        b_start: u64,
    },
    /// A transfer was given an empty path but distinct endpoints.
    EmptyPath,
}

impl std::fmt::Display for SsnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SsnError::LinkConflict {
                link,
                a_start,
                b_start,
            } => write!(
                f,
                "link {:?} double-booked: reservations at {a_start} and {b_start}",
                link
            ),
            SsnError::EmptyPath => write!(f, "transfer over an empty path"),
        }
    }
}

impl std::error::Error for SsnError {}

/// Tracks when each link next becomes free while a schedule is built.
///
/// This is the compiler's global view of the network: transfers scheduled
/// through the same occupancy are conflict-free *by construction*.
#[derive(Debug, Clone, Default)]
pub struct LinkOccupancy {
    /// Per link, one `(sender, next free cycle)` slot per direction, in the
    /// order the directions were first booked; [`NO_SENDER`] marks a
    /// direction never booked. Dense so the compiler's retry loop costs an
    /// index, not a hash, per hop.
    next_free: Vec<[(TspId, u64); 2]>,
    reservations: Vec<Reservation>,
    next_transfer: u32,
}

/// Sender of a link direction that has no reservation yet.
const NO_SENDER: TspId = TspId(u32::MAX);

impl LinkOccupancy {
    /// An empty occupancy table.
    pub fn new() -> Self {
        Self::default()
    }

    /// First cycle at or after `at` when `link` is free in the direction
    /// transmitted by `from`.
    pub fn free_at(&self, link: LinkId, from: TspId, at: u64) -> u64 {
        let booked = self.next_free.get(link.index()).and_then(|dirs| {
            dirs.iter()
                .find(|&&(sender, _)| sender == from)
                .map(|&(_, free)| free)
        });
        at.max(booked.unwrap_or(0))
    }

    /// All reservations made so far.
    pub fn reservations(&self) -> &[Reservation] {
        &self.reservations
    }

    /// Schedules a transfer of `vectors` flits along `path`, starting no
    /// earlier than `earliest`. Returns the transfer's timing.
    ///
    /// Vectors pipeline back-to-back (each path hop adds its deterministic
    /// latency once; subsequent vectors follow at the serialization
    /// interval), realizing virtual cut-through.
    pub fn schedule_transfer(
        &mut self,
        topo: &Topology,
        path: &Path,
        vectors: u64,
        earliest: u64,
    ) -> Result<TransferSchedule, SsnError> {
        let sched = self.plan_transfer(topo, path, vectors, earliest)?;
        self.commit(path, &sched);
        Ok(sched)
    }

    /// Computes the timing [`schedule_transfer`](Self::schedule_transfer)
    /// would produce without
    /// booking anything. A caller with constraints beyond link occupancy
    /// (the plan compiler also reserves chip execution units) can trial a
    /// start cycle, inspect the resulting hop starts, and either
    /// [`commit`](Self::commit) the schedule or retry later.
    pub fn plan_transfer(
        &self,
        topo: &Topology,
        path: &Path,
        vectors: u64,
        earliest: u64,
    ) -> Result<TransferSchedule, SsnError> {
        let mut sched = TransferSchedule {
            transfer: 0,
            source: path.source(),
            dest: path.dest(),
            vectors: 0,
            first_inject: 0,
            last_arrival: 0,
            hops: 0,
            hop_starts: Vec::with_capacity(path.links.len()),
        };
        self.plan_transfer_into(topo, path, vectors, earliest, &mut sched)?;
        Ok(sched)
    }

    /// [`plan_transfer`](Self::plan_transfer) into an existing schedule,
    /// reusing its `hop_starts` buffer: a caller retrying many start
    /// cycles allocates nothing per trial.
    pub fn plan_transfer_into(
        &self,
        topo: &Topology,
        path: &Path,
        vectors: u64,
        earliest: u64,
        sched: &mut TransferSchedule,
    ) -> Result<(), SsnError> {
        let slot = vector_slot_cycles();
        sched.transfer = self.next_transfer;
        sched.source = path.source();
        sched.dest = path.dest();
        sched.vectors = vectors;
        sched.hops = path.hops();
        sched.hop_starts.clear();

        if path.links.is_empty() {
            if path.source() != path.dest() {
                return Err(SsnError::EmptyPath);
            }
            // Local transfer: no network time.
            sched.first_inject = earliest;
            sched.last_arrival = earliest;
            return Ok(());
        }

        // Virtual cut-through at flit-train granularity: vector i starts
        // hop h at t_h + i·slot and arrives at t_h + (i+1)·slot + L_h; hop
        // h+1 may start its train once the first vector has arrived and
        // been staged, i.e. t_{h+1} ≥ t_h + slot + L_h + F — the same
        // offset for every vector in the train, so one block reservation
        // per hop is timing-exact for a chained transfer.
        let mut t = earliest;
        let mut last_link_latency = 0;
        for (h, &link) in path.links.iter().enumerate() {
            if h > 0 {
                t += FORWARD_OVERHEAD_CYCLES;
            }
            t = self.free_at(link, path.tsps[h], t);
            sched.hop_starts.push(t);
            last_link_latency = scheduled_link_latency(topo, link);
            t = t + slot + last_link_latency;
        }
        let last_hop_start = *sched.hop_starts.last().expect("non-empty path");
        sched.first_inject = sched.hop_starts[0];
        sched.last_arrival = last_hop_start + vectors * slot + last_link_latency;
        Ok(())
    }

    /// Books a schedule produced by [`plan_transfer`](Self::plan_transfer)
    /// for the same `path`: inserts one directed reservation per hop and
    /// claims the transfer id the plan was numbered with.
    pub fn commit(&mut self, path: &Path, sched: &TransferSchedule) {
        debug_assert_eq!(
            sched.transfer, self.next_transfer,
            "commit out of order with plan_transfer"
        );
        self.next_transfer = sched.transfer + 1;
        let slot = vector_slot_cycles();
        for (h, (&link, &start)) in path.links.iter().zip(sched.hop_starts.iter()).enumerate() {
            let from = path.tsps[h];
            if self.next_free.len() <= link.index() {
                self.next_free.resize(link.index() + 1, [(NO_SENDER, 0); 2]);
            }
            let dirs = &mut self.next_free[link.index()];
            let dir = dirs
                .iter_mut()
                .find(|(sender, _)| *sender == from || *sender == NO_SENDER)
                .expect("a link has two directions");
            *dir = (from, start + sched.vectors * slot);
            self.reservations.push(Reservation {
                link,
                from,
                start,
                transfer: sched.transfer,
                vectors: sched.vectors,
                hop: h as u8,
            });
        }
    }

    /// Schedules a transfer of `vectors` flits spread across several
    /// edge-disjoint `paths` (deterministic load-balancing, paper §4.3).
    ///
    /// Vectors are assigned to paths to minimize the overall completion
    /// time: shorter paths receive proportionally more flits. Returns the
    /// per-path schedules; the transfer completes at the max of their
    /// arrivals.
    pub fn schedule_spread(
        &mut self,
        topo: &Topology,
        paths: &[Path],
        vectors: u64,
        earliest: u64,
    ) -> Result<Vec<TransferSchedule>, SsnError> {
        assert!(!paths.is_empty(), "spread over zero paths");
        let slot = vector_slot_cycles();
        // Path "head start" = its pipeline fill latency relative to the
        // fastest path. Water-filling: assign flits so completion times
        // equalize.
        let latencies: Vec<u64> = paths.iter().map(|p| path_fill_latency(topo, p)).collect();
        let assignment = waterfill(&latencies, slot, vectors);
        let mut out = Vec::new();
        for (path, &n) in paths.iter().zip(assignment.iter()) {
            if n == 0 {
                continue;
            }
            out.push(self.schedule_transfer(topo, path, n, earliest)?);
        }
        Ok(out)
    }
}

/// Pipeline-fill latency of a path: the time for one vector to traverse it
/// on a cold network, including intermediate forwarding overheads.
pub fn path_fill_latency(topo: &Topology, path: &Path) -> u64 {
    let slot = vector_slot_cycles();
    let mut t = 0;
    for (h, &link) in path.links.iter().enumerate() {
        if h > 0 {
            t += FORWARD_OVERHEAD_CYCLES;
        }
        t += slot + scheduled_link_latency(topo, link);
    }
    t
}

/// Distributes `vectors` flits over paths with pipeline-fill latencies
/// `latencies` and per-flit serialization `slot`, minimizing the maximum
/// completion time `latency_i + n_i · slot` subject to `Σ n_i = vectors`.
pub fn waterfill(latencies: &[u64], slot: u64, vectors: u64) -> Vec<u64> {
    let k = latencies.len();
    let mut n = vec![0u64; k];
    if vectors == 0 {
        return n;
    }
    assert!(k >= 1 && slot > 0);
    // Binary-search the smallest completion time T whose total capacity
    // Σᵢ ⌊(T − latᵢ)/slot⌋ covers the flits (O(K log) — gigabyte tensors
    // schedule as fast as kilobyte ones).
    let capacity = |t: u64| -> u64 {
        latencies
            .iter()
            .map(|&l| if t > l { (t - l) / slot } else { 0 })
            .sum()
    };
    let min_lat = *latencies.iter().min().expect("k >= 1");
    let mut lo = min_lat;
    let mut hi = min_lat + vectors * slot;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if capacity(mid) >= vectors {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    for (i, &l) in latencies.iter().enumerate() {
        n[i] = if lo > l { (lo - l) / slot } else { 0 };
    }
    // Shave the excess one flit at a time from the back, keeping finishes
    // within one slot of each other (deterministic tie-breaking).
    let mut excess = n.iter().sum::<u64>() - vectors;
    while excess > 0 {
        for i in (0..k).rev() {
            if excess == 0 {
                break;
            }
            if n[i] > 0 {
                n[i] -= 1;
                excess -= 1;
            }
        }
    }
    n
}

/// Timing summary of one scheduled transfer (or one spread shard).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferSchedule {
    /// Transfer id within its occupancy table.
    pub transfer: u32,
    /// Source TSP.
    pub source: TspId,
    /// Destination TSP.
    pub dest: TspId,
    /// Flits carried.
    pub vectors: u64,
    /// Cycle the first flit enters the first link.
    pub first_inject: u64,
    /// Cycle the last flit fully arrives at the destination.
    pub last_arrival: u64,
    /// Hops traversed.
    pub hops: usize,
    /// Cycle each hop's flit train starts on its link, in path order (one
    /// entry per link; empty for a zero-hop local transfer). Consumers that
    /// lower the schedule to per-chip programs read hop timing from here
    /// directly instead of re-filtering the occupancy's reservation table.
    pub hop_starts: Vec<u64>,
}

impl TransferSchedule {
    /// End-to-end duration in cycles.
    pub fn duration(&self) -> u64 {
        self.last_arrival - self.first_inject
    }
}

/// Completion cycle of a set of spread shards.
pub fn completion(shards: &[TransferSchedule]) -> u64 {
    shards.iter().map(|s| s.last_arrival).max().unwrap_or(0)
}

/// Re-validates a finished schedule: no two reservations may overlap on
/// the same link direction. `LinkOccupancy` guarantees this by
/// construction; `validate` is the independent check a paranoid runtime
/// (or a test) can run.
pub fn validate(reservations: &[Reservation]) -> Result<(), SsnError> {
    let mut per_link: HashMap<(LinkId, TspId), Vec<&Reservation>> = HashMap::new();
    for r in reservations {
        per_link.entry((r.link, r.from)).or_default().push(r);
    }
    for ((link, _from), mut rs) in per_link {
        rs.sort_by_key(|r| r.start);
        for w in rs.windows(2) {
            if w[1].start < w[0].end() {
                return Err(SsnError::LinkConflict {
                    link,
                    a_start: w[0].start,
                    b_start: w[1].start,
                });
            }
        }
    }
    Ok(())
}

/// Aggregate per-link utilization over a schedule horizon, for the
/// load-balance reporting of paper §5.3/§5.6.
pub fn link_utilization(reservations: &[Reservation], horizon: u64) -> HashMap<LinkId, f64> {
    let slot = vector_slot_cycles() as f64;
    let mut busy: HashMap<LinkId, f64> = HashMap::new();
    for r in reservations {
        *busy.entry(r.link).or_insert(0.0) += slot * r.vectors as f64;
    }
    if horizon > 0 {
        for v in busy.values_mut() {
            *v /= horizon as f64;
        }
    }
    busy
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsm_topology::route::{edge_disjoint_paths, shortest_path};
    use tsm_topology::Topology;

    fn node() -> Topology {
        Topology::single_node()
    }

    #[test]
    fn single_vector_single_hop_timing() {
        let topo = node();
        let path = shortest_path(&topo, TspId(0), TspId(1)).unwrap();
        let mut occ = LinkOccupancy::new();
        let s = occ.schedule_transfer(&topo, &path, 1, 0).unwrap();
        // inject at 0; arrival = slot + (base 216 + 12 margin)
        assert_eq!(s.first_inject, 0);
        assert_eq!(s.last_arrival, vector_slot_cycles() + 228);
        assert_eq!(s.hops, 1);
        validate(occ.reservations()).unwrap();
    }

    #[test]
    fn vectors_pipeline_at_serialization_interval() {
        let topo = node();
        let path = shortest_path(&topo, TspId(0), TspId(1)).unwrap();
        let mut occ = LinkOccupancy::new();
        let s1 = occ.schedule_transfer(&topo, &path, 1, 0).unwrap();
        let mut occ2 = LinkOccupancy::new();
        let s100 = occ2.schedule_transfer(&topo, &path, 100, 0).unwrap();
        // 99 extra vectors add exactly 99 serialization slots.
        assert_eq!(
            s100.last_arrival,
            s1.last_arrival + 99 * vector_slot_cycles()
        );
        validate(occ2.reservations()).unwrap();
    }

    #[test]
    fn local_transfer_takes_no_network_time() {
        let topo = node();
        let path = shortest_path(&topo, TspId(2), TspId(2)).unwrap();
        let mut occ = LinkOccupancy::new();
        let s = occ.schedule_transfer(&topo, &path, 50, 77).unwrap();
        assert_eq!(s.first_inject, 77);
        assert_eq!(s.last_arrival, 77);
        assert!(occ.reservations().is_empty());
    }

    #[test]
    fn competing_transfers_serialize_without_conflict() {
        // Two transfers over the same link: the second waits, exactly the
        // compile-time resolution of Fig 8's contention example.
        let topo = node();
        let path = shortest_path(&topo, TspId(0), TspId(1)).unwrap();
        let mut occ = LinkOccupancy::new();
        let a = occ.schedule_transfer(&topo, &path, 10, 0).unwrap();
        let b = occ.schedule_transfer(&topo, &path, 10, 0).unwrap();
        assert!(b.first_inject >= a.first_inject + 10 * vector_slot_cycles());
        validate(occ.reservations()).unwrap();
    }

    #[test]
    fn spread_across_paths_beats_single_path_for_large_tensors() {
        let topo = node();
        let paths = edge_disjoint_paths(&topo, TspId(0), TspId(1), 7);
        let vectors = 1000; // 320 KB tensor
        let mut single = LinkOccupancy::new();
        let s = single
            .schedule_transfer(&topo, &paths[0], vectors, 0)
            .unwrap();
        let mut spread = LinkOccupancy::new();
        let shards = spread.schedule_spread(&topo, &paths, vectors, 0).unwrap();
        let spread_done = completion(&shards);
        assert!(
            spread_done < s.last_arrival / 4,
            "spread {spread_done} vs single {}",
            s.last_arrival
        );
        validate(spread.reservations()).unwrap();
    }

    #[test]
    fn small_tensors_stay_on_the_minimal_path() {
        // Fig 10: below the crossover, non-minimal paths are not worth
        // their pipeline-fill latency — waterfilling leaves them empty.
        let topo = node();
        let paths = edge_disjoint_paths(&topo, TspId(0), TspId(1), 7);
        let mut occ = LinkOccupancy::new();
        let shards = occ.schedule_spread(&topo, &paths, 3, 0).unwrap();
        assert_eq!(shards.len(), 1, "3 vectors should not spread");
        assert_eq!(shards[0].hops, 1);
    }

    #[test]
    fn waterfill_equalizes_completion() {
        let latencies = [100, 300, 300];
        let n = waterfill(&latencies, 10, 60);
        assert_eq!(n.iter().sum::<u64>(), 60);
        // Path 0 gets its 200-cycle head start worth of extra flits (20).
        assert!(n[0] > n[1]);
        let finish: Vec<u64> = latencies
            .iter()
            .zip(&n)
            .map(|(&l, &k)| l + k * 10)
            .collect();
        let spread = finish.iter().max().unwrap() - finish.iter().min().unwrap();
        assert!(spread <= 10, "finishes {finish:?}");
    }

    #[test]
    fn waterfill_zero_vectors() {
        assert_eq!(waterfill(&[5, 6], 10, 0), vec![0, 0]);
    }

    #[test]
    fn validate_catches_forged_conflicts() {
        let res = |start, transfer, from| Reservation {
            link: LinkId(0),
            from: TspId(from),
            start,
            transfer,
            vectors: 1,
            hop: 0,
        };
        // Same direction, overlapping: conflict.
        assert!(matches!(
            validate(&[res(0, 0, 0), res(5, 1, 0)]),
            Err(SsnError::LinkConflict { .. })
        ));
        // Same direction, back-to-back: fine.
        assert!(validate(&[res(0, 0, 0), res(24, 1, 0)]).is_ok());
        // Opposite directions, overlapping: full duplex, fine.
        assert!(validate(&[res(0, 0, 0), res(5, 1, 1)]).is_ok());
    }

    #[test]
    fn utilization_accounting() {
        let topo = node();
        let path = shortest_path(&topo, TspId(0), TspId(1)).unwrap();
        let mut occ = LinkOccupancy::new();
        let s = occ.schedule_transfer(&topo, &path, 10, 0).unwrap();
        let util = link_utilization(occ.reservations(), s.last_arrival);
        let link_util = util[&path.links[0]];
        assert!(link_util > 0.4 && link_util <= 1.0, "{link_util}");
    }

    #[test]
    fn schedules_are_deterministic() {
        let topo = node();
        let run = || {
            let paths = edge_disjoint_paths(&topo, TspId(0), TspId(5), 7);
            let mut occ = LinkOccupancy::new();
            let shards = occ.schedule_spread(&topo, &paths, 500, 0).unwrap();
            (completion(&shards), occ.reservations().len())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn hop_starts_mirror_the_reservation_table() {
        let topo = Topology::fully_connected_nodes(2).unwrap();
        let path = shortest_path(&topo, TspId(0), TspId(9)).unwrap();
        let mut occ = LinkOccupancy::new();
        let s = occ.schedule_transfer(&topo, &path, 12, 5).unwrap();
        assert_eq!(s.hop_starts.len(), path.links.len());
        let from_reservations: Vec<u64> = occ
            .reservations()
            .iter()
            .filter(|r| r.transfer == s.transfer)
            .map(|r| r.start)
            .collect();
        assert_eq!(s.hop_starts, from_reservations);
        assert_eq!(s.first_inject, s.hop_starts[0]);
        // local transfers have no hops to report
        let local = shortest_path(&topo, TspId(3), TspId(3)).unwrap();
        assert!(occ
            .schedule_transfer(&topo, &local, 4, 0)
            .unwrap()
            .hop_starts
            .is_empty());
    }

    #[test]
    fn multi_hop_latency_accumulates() {
        let topo = Topology::fully_connected_nodes(2).unwrap();
        let path = shortest_path(&topo, TspId(0), TspId(9)).unwrap();
        assert!(path.hops() >= 2, "cross-node to a non-adjacent TSP");
        let mut occ = LinkOccupancy::new();
        let s = occ.schedule_transfer(&topo, &path, 1, 0).unwrap();
        assert_eq!(s.last_arrival, path_fill_latency(&topo, &path));
        // each intermediate hop pays the SRAM forwarding overhead
        let wire_only: u64 = path
            .links
            .iter()
            .map(|&l| vector_slot_cycles() + scheduled_link_latency(&topo, l))
            .sum();
        assert_eq!(
            s.last_arrival,
            wire_only + (path.hops() as u64 - 1) * FORWARD_OVERHEAD_CYCLES
        );
    }
}
