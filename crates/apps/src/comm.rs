//! Detecting communication patterns on multicore systems (§5.3, Fig. 5.1).
//!
//! On shared-memory machines, "communication" between threads is a
//! cross-thread flow dependence: thread A writes an address, thread B reads
//! it. Aggregating the profiler's cross-thread RAW dependences into a
//! thread×thread matrix reveals the application's communication pattern —
//! nearest-neighbour, master-worker, all-to-all — exactly the splash2x
//! renderings of Fig. 5.1.

use profiler::{DepSet, DepType};
use serde::Serialize;

/// A thread-to-thread communication matrix: `m[producer][consumer]` counts
/// distinct cross-thread flow dependences.
///
/// Stored sparse, as the non-zero cells only: a 10k-actor run has one
/// entry per channel, where a dense `threads²` array would zero and scan
/// 100M cells.
#[derive(Debug, Clone, Serialize)]
pub struct CommMatrix {
    /// Number of threads.
    pub threads: usize,
    /// Non-zero `(producer, consumer, count)` cells, sorted by
    /// `(producer, consumer)`, one per cell, every index below `threads`.
    entries: Vec<(u32, u32, u64)>,
}

impl CommMatrix {
    /// Build a matrix from `(producer, consumer, count)` cells in any
    /// order: cells naming a thread outside `0..threads` are dropped, and
    /// repeated cells are summed.
    fn from_cells(threads: usize, cells: impl IntoIterator<Item = (u32, u32, u64)>) -> Self {
        let mut entries: Vec<(u32, u32, u64)> = cells
            .into_iter()
            .filter(|&(from, to, n)| n > 0 && (from as usize) < threads && (to as usize) < threads)
            .collect();
        entries.sort_unstable_by_key(|&(from, to, _)| (from, to));
        entries.dedup_by(|cur, kept| {
            let same = (cur.0, cur.1) == (kept.0, kept.1);
            if same {
                kept.2 += cur.2;
            }
            same
        });
        CommMatrix { threads, entries }
    }

    /// Count at (producer, consumer).
    pub fn get(&self, from: u32, to: u32) -> u64 {
        self.entries
            .binary_search_by_key(&(from, to), |&(a, b, _)| (a, b))
            .map_or(0, |i| self.entries[i].2)
    }

    /// Total communication volume.
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|&(_, _, n)| n).sum()
    }

    /// Heuristic pattern classification for reporting.
    pub fn pattern(&self) -> &'static str {
        if self.threads < 2 || self.total() == 0 {
            return "none";
        }
        let mut off_diag = 0u64;
        let mut neighbour = 0u64;
        let mut to_master = 0u64;
        for &(a, b, c) in &self.entries {
            if a == b {
                continue;
            }
            off_diag += c;
            if a + 1 == b || b + 1 == a {
                neighbour += c;
            }
            if b == 0 {
                to_master += c;
            }
        }
        if off_diag == 0 {
            return "private";
        }
        if to_master as f64 / off_diag as f64 > 0.8 {
            return "gather";
        }
        if neighbour as f64 / off_diag as f64 > 0.8 {
            return "nearest-neighbour";
        }
        "all-to-all"
    }
}

/// Build the communication matrix from a dependence set, counting each
/// distinct cross-thread RAW once per occurrence weight.
pub fn comm_matrix(deps: &DepSet, threads: usize) -> CommMatrix {
    CommMatrix::from_cells(
        threads,
        deps.iter()
            .filter(|(d, _)| d.ty == DepType::Raw && d.is_cross_thread())
            .map(|(d, n)| (d.source_thread, d.sink_thread, n)),
    )
}

/// Per-channel actor communication summary: the interpreter's exact
/// message counts arranged as an actor×actor matrix, plus the dependence
/// view of mailbox state — each send/receive pair is a write/read of the
/// same mailbox slot, so message handoffs appear as RAW dependences,
/// slot reuse at the capacity bound as WAR/WAW coupling, and unsynchronized
/// delivery as race hints.
#[derive(Debug, Clone, Serialize)]
pub struct ActorComm {
    /// Actor×actor message counts (`matrix.get(from, to)` = messages sent
    /// from `from` to `to`). Pattern classification applies unchanged.
    pub matrix: CommMatrix,
    /// Cross-actor RAW dependences over mailbox slots — the profiler's
    /// view of message handoffs.
    pub handoff_deps: u64,
    /// WAR/WAW dependences over mailbox slots: capacity coupling from
    /// bounded-mailbox slot reuse (a later message overwrites the slot an
    /// earlier one occupied).
    pub capacity_deps: u64,
    /// Race-hinted dependences over mailbox state (out-of-order delivery
    /// observed by timestamp inversion).
    pub race_hints: u64,
}

/// Build the per-channel actor summary from the interpreter's channel
/// counts and the profiled dependence set. `mailbox_sym` is the interned
/// `"<mailbox>"` symbol ([`interp::Program::mailbox_symbol`]); when
/// `None` (no mailbox ops in the program) the dependence counters are
/// zero and only the matrix is meaningful.
pub fn actor_comm(
    channels: &[(u32, u32, u64)],
    actors: usize,
    deps: &DepSet,
    mailbox_sym: Option<u32>,
) -> ActorComm {
    let mut handoff_deps = 0u64;
    let mut capacity_deps = 0u64;
    let mut race_hints = 0u64;
    if let Some(sym) = mailbox_sym {
        for (d, n) in deps.iter() {
            if d.var != sym {
                continue;
            }
            match d.ty {
                DepType::Raw if d.is_cross_thread() => handoff_deps += n,
                DepType::War | DepType::Waw => capacity_deps += n,
                _ => {}
            }
            if d.race_hint {
                race_hints += n;
            }
        }
    }
    ActorComm {
        matrix: CommMatrix::from_cells(actors, channels.iter().copied()),
        handoff_deps,
        capacity_deps,
        race_hints,
    }
}

/// ASCII rendering of the matrix (Fig. 5.1 style): rows = producers,
/// columns = consumers, cells shaded by volume.
pub fn render_matrix(m: &CommMatrix) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let max = m.entries.iter().map(|&(_, _, n)| n).max().unwrap_or(1);
    let _ = writeln!(out, "producer\\consumer (pattern: {})", m.pattern());
    let _ = write!(out, "     ");
    for b in 0..m.threads {
        let _ = write!(out, "{b:>6}");
    }
    let _ = writeln!(out);
    for a in 0..m.threads {
        let _ = write!(out, "{a:>4} ");
        for b in 0..m.threads {
            let c = m.get(a as u32, b as u32);
            let shade = match (c * 4 / max, c) {
                (_, 0) => "     .",
                (0, _) => "     -",
                (1, _) => "     +",
                (2, _) => "     *",
                _ => "     #",
            };
            let _ = write!(out, "{shade}");
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use profiler::{Dep, SrcLoc};

    fn dep(from_t: u32, to_t: u32, line: u32) -> Dep {
        Dep {
            sink: SrcLoc::new(line),
            ty: DepType::Raw,
            source: SrcLoc::new(line + 1),
            var: 0,
            sink_thread: to_t,
            source_thread: from_t,
            carried_by: None,
            race_hint: false,
        }
    }

    #[test]
    fn matrix_counts_cross_thread_flows() {
        let mut d = DepSet::new();
        d.insert(dep(1, 0, 5));
        d.insert(dep(1, 0, 5));
        d.insert(dep(2, 0, 6));
        let m = comm_matrix(&d, 4);
        assert_eq!(m.get(1, 0), 2);
        assert_eq!(m.get(2, 0), 1);
        assert_eq!(m.get(0, 1), 0);
        assert_eq!(m.total(), 3);
    }

    #[test]
    fn gather_pattern_recognized() {
        let mut d = DepSet::new();
        for t in 1..4 {
            d.insert(dep(t, 0, t * 10));
        }
        let m = comm_matrix(&d, 4);
        assert_eq!(m.pattern(), "gather");
    }

    #[test]
    fn neighbour_pattern_recognized() {
        let mut d = DepSet::new();
        for t in 0..3u32 {
            d.insert(dep(t, t + 1, t * 10 + 1));
            d.insert(dep(t + 1, t, t * 10 + 2));
        }
        let m = comm_matrix(&d, 4);
        assert_eq!(m.pattern(), "nearest-neighbour");
    }

    #[test]
    fn actor_comm_counts_channels_and_mailbox_deps() {
        let p = interp::Program::new(
            lang::compile(
                "fn main() -> int {
                    int c = spawn_actor(stage, 0);
                    for (int i = 0; i < 8; i = i + 1) { send(c, i); }
                    join(c);
                    return receive();
                }
                fn stage(int x) {
                    int s = 0;
                    for (int i = 0; i < 8; i = i + 1) { s = s + receive(); }
                    send(0, s);
                }",
                "t",
            )
            .unwrap(),
        );
        let out = profiler::profile_program(&p).unwrap();
        let actors = out.actors.as_ref().expect("actor block present");
        let comm = actor_comm(
            &actors.channels,
            actors.spawned as usize,
            &out.deps,
            p.mailbox_symbol(),
        );
        assert_eq!(comm.matrix.get(0, 1), 8);
        assert_eq!(comm.matrix.get(1, 0), 1);
        assert_eq!(comm.matrix.total(), 9);
        // Each message handoff is a cross-actor RAW over a mailbox slot.
        assert!(comm.handoff_deps > 0, "handoffs visible as RAW deps");
        // Two actors exchanging 0↔1 traffic are adjacent.
        assert_eq!(comm.matrix.pattern(), "nearest-neighbour");
    }

    /// The row-major `threads²` layout the sparse matrix replaced, kept
    /// as the reference the equivalence test compares against.
    struct Dense {
        threads: usize,
        counts: Vec<u64>,
    }

    impl Dense {
        fn new(threads: usize, channels: &[(u32, u32, u64)]) -> Self {
            let mut counts = vec![0u64; threads * threads];
            for &(from, to, n) in channels {
                if (from as usize) < threads && (to as usize) < threads {
                    counts[from as usize * threads + to as usize] += n;
                }
            }
            Dense { threads, counts }
        }

        fn pattern(&self) -> &'static str {
            let n = self.threads;
            if n < 2 || self.counts.iter().sum::<u64>() == 0 {
                return "none";
            }
            let (mut off_diag, mut neighbour, mut to_master) = (0u64, 0u64, 0u64);
            for a in 0..n {
                for b in 0..n {
                    let c = self.counts[a * n + b];
                    if a == b {
                        continue;
                    }
                    off_diag += c;
                    if a + 1 == b || b + 1 == a {
                        neighbour += c;
                    }
                    if b == 0 {
                        to_master += c;
                    }
                }
            }
            if off_diag == 0 {
                return "private";
            }
            if to_master as f64 / off_diag as f64 > 0.8 {
                return "gather";
            }
            if neighbour as f64 / off_diag as f64 > 0.8 {
                return "nearest-neighbour";
            }
            "all-to-all"
        }

        fn render(&self) -> String {
            use std::fmt::Write;
            let mut out = String::new();
            let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
            let _ = writeln!(out, "producer\\consumer (pattern: {})", self.pattern());
            let _ = write!(out, "     ");
            for b in 0..self.threads {
                let _ = write!(out, "{b:>6}");
            }
            let _ = writeln!(out);
            for a in 0..self.threads {
                let _ = write!(out, "{a:>4} ");
                for b in 0..self.threads {
                    let c = self.counts[a * self.threads + b];
                    let shade = match (c * 4 / max, c) {
                        (_, 0) => "     .",
                        (0, _) => "     -",
                        (1, _) => "     +",
                        (2, _) => "     *",
                        _ => "     #",
                    };
                    let _ = write!(out, "{shade}");
                }
                let _ = writeln!(out);
            }
            out
        }
    }

    #[test]
    fn sparse_matrix_matches_dense_reference() {
        let mut rng = 0x00c0_ffee_u64;
        let mut next = move || {
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut patterns = std::collections::BTreeSet::new();
        for trial in 0..2_000 {
            let threads = 2 + (next() % 15) as usize;
            // Skewed shapes so every pattern class turns up: all to 0,
            // neighbours only, or anywhere (including out-of-range ids,
            // which both layouts drop, and repeated cells, which they sum).
            let shape = next() % 3;
            let mut channels = Vec::new();
            for _ in 0..next() % 24 {
                let from = (next() % (threads as u64 + 2)) as u32;
                let to = match shape {
                    0 => 0,
                    1 => from + 1,
                    _ => (next() % (threads as u64 + 2)) as u32,
                };
                channels.push((from, to, next() % 6));
            }
            let dense = Dense::new(threads, &channels);
            let sparse = actor_comm(&channels, threads, &DepSet::new(), None).matrix;
            for a in 0..threads as u32 {
                for b in 0..threads as u32 {
                    let want = dense.counts[a as usize * threads + b as usize];
                    assert_eq!(sparse.get(a, b), want, "trial {trial} cell ({a},{b})");
                }
            }
            assert_eq!(
                sparse.total(),
                dense.counts.iter().sum::<u64>(),
                "trial {trial}"
            );
            assert_eq!(sparse.pattern(), dense.pattern(), "trial {trial}");
            assert_eq!(render_matrix(&sparse), dense.render(), "trial {trial}");
            patterns.insert(dense.pattern());
        }
        assert_eq!(
            patterns.len(),
            5,
            "every pattern class exercised: {patterns:?}"
        );
    }

    #[test]
    fn million_actor_matrix_costs_its_channels() {
        // A dense actors² layout would ask for 8 TB here.
        let actors = 1_000_000;
        let channels = [(0, 1, 3), (999_999, 0, 1), (0, 1, 4), (500_000, 500_001, 1)];
        let t = std::time::Instant::now();
        let comm = actor_comm(&channels, actors, &DepSet::new(), None);
        let m = &comm.matrix;
        assert_eq!(m.get(0, 1), 7);
        assert_eq!(m.get(999_999, 0), 1);
        assert_eq!(m.get(1, 0), 0);
        assert_eq!(m.total(), 9);
        assert_eq!(m.pattern(), "nearest-neighbour");
        assert!(t.elapsed().as_secs_f64() < 1.0, "{:?}", t.elapsed());
    }

    #[test]
    fn render_has_header_and_rows() {
        let mut d = DepSet::new();
        d.insert(dep(0, 1, 3));
        let m = comm_matrix(&d, 2);
        let text = render_matrix(&m);
        assert!(text.contains("pattern"));
        assert!(text.lines().count() >= 4);
    }
}
