//! Seeded input generators. The program under test only ever sees the
//! sources built here; the seed stays inside the benchmark. The same seed
//! gives byte-identical sources, and every drawn parameter stays inside
//! the range documented on its generator (both pinned by the tests below).

use std::ops::RangeInclusive;

/// SplitMix64: tiny, seedable, and stable across platforms and releases.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from an inclusive range.
    pub fn range(&mut self, r: RangeInclusive<u64>) -> u64 {
        let span = r.end() - r.start() + 1;
        r.start() + self.next_u64() % span
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.range(0..=i as u64) as usize;
            xs.swap(i, j);
        }
    }
}

/// Ground truth for one generated or annotated loop: a unique substring of
/// its header line and whether it may run in parallel (DOALL or reduction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Truth {
    pub marker: String,
    pub parallel: bool,
}

/// One program handed to the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Source {
    pub name: String,
    pub text: String,
    pub truths: Vec<Truth>,
}

impl Source {
    /// 1-based line of a truth marker.
    pub fn line_of(&self, marker: &str) -> Option<u32> {
        self.text
            .lines()
            .position(|l| l.contains(marker))
            .map(|i| i as u32 + 1)
    }
}

/// Words per array of `loop_nest`; two arrays, so the footprint is
/// 360K..440K words, above `EngineKind::AUTO_PERFECT_MAX_WORDS` (2^18).
pub const NEST_LEN: RangeInclusive<u64> = 180_000..=220_000;
/// Dependence distances: of `a` on itself, of `b` on itself, and of the
/// read of `b` in the statement that writes `a`.
pub const NEST_DIST: RangeInclusive<u64> = 1..=16;
/// Constant coefficient of each statement.
pub const NEST_COEF: RangeInclusive<u64> = 2..=9;
/// Sweeps over the array, iterations per loop, and the first index of the
/// swept loop (the largest distance). All fixed, so the number of accesses
/// does not depend on the seed.
pub const NEST_SWEEPS: u64 = 2;
pub const NEST_TRIP: u64 = 170_000;
pub const NEST_START: u64 = *NEST_DIST.end();

/// The parameters `loop_nest` drew for one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NestParams {
    pub len: u64,
    /// Distance of `a[i]` on `a[i - dist]`.
    pub dist: u64,
    /// Distance of `b[i]` on `b[i - dist_b]`.
    pub dist_b: u64,
    /// Distance of the read `b[i - dist_ab]` in the statement writing `a`.
    pub dist_ab: u64,
    pub coef_a: u64,
    pub coef_b: u64,
    /// Which carried-statement template (operand order and operator).
    pub carried: usize,
    /// `+`, `-` or `*` in the update of `b`.
    pub update_op: usize,
    /// The update of `b` runs before (true) or after the statement on `a`.
    pub update_first: bool,
}

const CARRIED: [&str; 3] = [
    "a[i] = a[i - D] + b[i - F] * C;",
    "a[i] = b[i - F] * C - a[i - D];",
    "a[i] = a[i - D] - b[i - F] + C;",
];
const UPDATE_OPS: [&str; 3] = ["+", "-", "*"];

/// A seeded affine loop nest of recurrences: an initialising loop, a
/// sequential sweep loop around a loop in which every statement carries a
/// dependence (distances drawn from the seed), and a reduction. Every
/// statement mix has the same shape (two loads and one store, then one
/// load and one store), so work is the same for every seed. Every loop
/// carries a dependence on each array it writes, so the static pass
/// proves no independence claim here: under the signature tier, hash
/// collisions add dependences a claim would be checked against (see the
/// package README).
pub fn loop_nest(seed: u64) -> (NestParams, Source) {
    let mut rng = Rng::new(seed);
    let p = NestParams {
        len: rng.range(NEST_LEN),
        dist: rng.range(NEST_DIST),
        dist_b: rng.range(NEST_DIST),
        dist_ab: rng.range(NEST_DIST),
        coef_a: rng.range(NEST_COEF),
        coef_b: rng.range(NEST_COEF),
        carried: rng.range(0..=CARRIED.len() as u64 - 1) as usize,
        update_op: rng.range(0..=UPDATE_OPS.len() as u64 - 1) as usize,
        update_first: rng.range(0..=1) == 1,
    };
    let carried = CARRIED[p.carried]
        .replace('D', &p.dist.to_string())
        .replace('F', &p.dist_ab.to_string())
        .replace('C', &p.coef_a.to_string());
    let update = format!(
        "b[i] = b[i - {}] {} {};",
        p.dist_b, UPDATE_OPS[p.update_op], p.coef_b
    );
    let (first, second) = if p.update_first {
        (update, carried)
    } else {
        (carried, update)
    };
    let text = format!(
        "global int a[{len}];
global int b[{len}];
global int total;
fn main() {{
    for (int i = 1; i < {trip}; i = i + 1) {{
        a[i] = a[i - 1] + i % 7;
        b[i] = b[i - 1] + i % 5;
    }}
    for (int s = 0; s < {sweeps}; s = s + 1) {{
        for (int i = {start}; i < {trip}; i = i + 1) {{
            {first}
            {second}
        }}
    }}
    for (int j = 0; j < {trip}; j = j + 1) {{
        total = total + a[j] % 3;
    }}
    print(total);
}}
",
        len = p.len,
        sweeps = NEST_SWEEPS,
        start = NEST_START,
        trip = NEST_TRIP,
    );
    let truths = vec![
        Truth {
            marker: format!("i = 1; i < {NEST_TRIP}"),
            parallel: false,
        },
        Truth {
            marker: format!("s < {NEST_SWEEPS}"),
            parallel: false,
        },
        Truth {
            marker: format!("i = {NEST_START}; i < {NEST_TRIP}"),
            parallel: false,
        },
        Truth {
            marker: format!("j < {NEST_TRIP}"),
            parallel: true,
        },
    ];
    let name = format!("loop_nest_{seed}");
    (p, Source { name, text, truths })
}

/// The evaluation corpus: every program of `workloads::all()` except the
/// `actors_10k` stress program, in seed-shuffled order.
pub fn corpus(seed: u64) -> Vec<Source> {
    let mut out: Vec<Source> = workloads::all()
        .into_iter()
        .filter(|w| w.name != "actors_10k")
        .map(|w| Source {
            name: w.name.to_string(),
            text: w.source.to_string(),
            truths: w
                .truths
                .iter()
                .map(|t| Truth {
                    marker: t.marker.to_string(),
                    parallel: t.parallel,
                })
                .collect(),
        })
        .collect();
    Rng::new(seed).shuffle(&mut out);
    out
}

/// Actor count and burst length of `actors_10k`.
pub const ACTORS: RangeInclusive<u64> = 9_900..=10_100;
pub const BURST: RangeInclusive<u64> = 64..=256;

/// The `actors_10k` topology with a seeded actor count and burst length.
/// Returns the source and the total it must print: the echo round trips
/// sum to `sum(2k + 1, k < actors) = actors^2`, plus one per burst message.
pub fn actors(seed: u64) -> (u64, u64, Source, u64) {
    let mut rng = Rng::new(seed);
    let n = rng.range(ACTORS);
    let burst = rng.range(BURST);
    let base = workloads::actors::ACTORS_10K.source;
    assert_eq!(base.matches("10000").count(), 2, "actor count sites");
    assert_eq!(base.matches("128").count(), 1, "burst length site");
    let text = base
        .replace("10000", &n.to_string())
        .replace("128", &burst.to_string());
    let src = Source {
        name: format!("actors_{n}"),
        text,
        truths: vec![Truth {
            marker: format!("k < {n}"),
            parallel: false,
        }],
    };
    (n, burst, src, n * n + burst)
}

/// One request of `serve_mix`: which corpus program, and whether the
/// source sent is made unique (so the program cache misses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub program: usize,
    pub unique: bool,
}

impl Request {
    /// The source sent as the `seq`-th request. A unique request appends
    /// a comment naming `seq`: the cache key changes, the program and its
    /// report do not.
    pub fn text(&self, corpus: &[Source], seq: u64) -> String {
        let mut text = corpus[self.program].text.clone();
        if self.unique {
            text.push_str(&format!("// request {seq}\n"));
        }
        text
    }
}

/// `count` requests over a corpus of `programs` programs, every second one
/// unique. Each block of `programs` requests is a seeded permutation of the
/// corpus, so every program is sent equally often: the latency tail then
/// does not depend on how often a seed happens to draw the slowest programs.
pub fn requests(seed: u64, programs: usize, count: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ 0x7365_7276_655f_6d69);
    let mut order: Vec<usize> = Vec::with_capacity(count);
    while order.len() < count {
        let mut block: Vec<usize> = (0..programs).collect();
        rng.shuffle(&mut block);
        order.extend(block);
    }
    order
        .into_iter()
        .take(count)
        .enumerate()
        .map(|(k, program)| Request {
            program,
            unique: k % 2 == 1,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEEDS: [u64; 6] = [0, 1, 2, 7, 42, 1 << 40];

    #[test]
    fn same_seed_gives_identical_sources() {
        for s in SEEDS {
            assert_eq!(loop_nest(s), loop_nest(s));
            assert_eq!(corpus(s), corpus(s));
            assert_eq!(actors(s), actors(s));
            assert_eq!(requests(s, 54, 64), requests(s, 54, 64));
        }
        assert_ne!(loop_nest(1).1, loop_nest(2).1);
        assert_ne!(corpus(1), corpus(2));
    }

    #[test]
    fn loop_nest_stays_in_range_above_the_perfect_threshold_without_claims() {
        for s in 0..64 {
            let (p, src) = loop_nest(s);
            assert!(NEST_LEN.contains(&p.len) && NEST_DIST.contains(&p.dist));
            assert!(NEST_DIST.contains(&p.dist_b) && NEST_DIST.contains(&p.dist_ab));
            assert!(NEST_COEF.contains(&p.coef_a) && NEST_COEF.contains(&p.coef_b));
            assert!(NEST_TRIP < p.len);
            let module = lang::compile(&src.text, &src.name).unwrap();
            // Every loop carries a dependence on what it writes, so the
            // static pass has no independence claim to prove.
            assert!(analysis::analyze(&module).claims.is_empty(), "seed {s}");
            let prog = interp::Program::new(module);
            assert!(
                prog.footprint_words() > profiler::EngineKind::AUTO_PERFECT_MAX_WORDS,
                "seed {s}: footprint {}",
                prog.footprint_words()
            );
            for t in &src.truths {
                let hits = src.text.lines().filter(|l| l.contains(&t.marker)).count();
                assert_eq!(hits, 1, "seed {s}: marker `{}`", t.marker);
            }
        }
    }

    #[test]
    fn corpus_is_the_evaluation_set_minus_actors_10k() {
        let c = corpus(3);
        assert_eq!(c.len(), workloads::all().len() - 1);
        assert!(c.iter().all(|s| s.name != "actors_10k"));
        let mut names: Vec<&str> = c.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), c.len());
    }

    #[test]
    fn actors_stay_in_range_and_compile() {
        for s in SEEDS {
            let (n, burst, src, total) = actors(s);
            assert!(ACTORS.contains(&n) && BURST.contains(&burst));
            assert_eq!(total, n * n + burst);
            assert!(src.line_of(&src.truths[0].marker).is_some());
            lang::compile(&src.text, &src.name).unwrap();
        }
    }

    #[test]
    fn half_of_the_requests_are_unique() {
        let c = corpus(5);
        let reqs = requests(5, c.len(), 100);
        assert_eq!(reqs.iter().filter(|r| r.unique).count(), 50);
        let mut first: Vec<usize> = reqs[..c.len()].iter().map(|r| r.program).collect();
        first.sort_unstable();
        assert_eq!(
            first,
            (0..c.len()).collect::<Vec<_>>(),
            "each program once per block"
        );
        for (seq, r) in reqs.iter().enumerate() {
            let text = r.text(&c, seq as u64);
            assert!(r.program < c.len() && text.starts_with(&c[r.program].text));
            assert_eq!(r.unique, text != c[r.program].text);
            if r.unique {
                assert_ne!(r.text(&c, 1), r.text(&c, 2), "unique per send");
            }
        }
    }
}
