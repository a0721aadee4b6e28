//! Access-status storage: approximate signatures, the exact page-table
//! shadow memory, and the legacy hash-map baseline.
//!
//! DiscoPoP records the last read and last write to every address. The
//! production configuration uses a *signature* (§2.3.2) — a fixed-size array
//! indexed by a hash of the address, with **no stored tag**: colliding
//! addresses silently share a slot, which is exactly the approximation that
//! produces the false positives/negatives quantified in Table 2.6. The
//! *perfect* map stores per-address state exactly (the "perfect signature"
//! of §2.5.1) and serves as ground truth.
//!
//! # Shadow-memory layout
//!
//! [`PerfectMap`] is a two-level page table over *word* addresses (the
//! interpreter emits 8-byte-aligned addresses only):
//!
//! ```text
//! addr:  63 ............ 9 | 8 ........ 3 | 2..0
//!        page id           | slot in page | 0 (word-aligned)
//! ```
//!
//! Each page shadows 512 bytes of target address space (64 word slots, a
//! 2.5 KiB page of `Option<Cell>`). Pages are this small because much of
//! what a profiled program touches sits in isolated words: every actor's
//! stack is `STACK_SPAN` (16 MiB) from the next and every mailbox
//! `MAILBOX_SPAN` (64 KiB) from the next, and each holds one to three
//! live words, so a page covering 4 KiB of address space would spend
//! 20 KiB of shadow on one word. Dense arrays still fill their pages.
//!
//! Pages live in a grow-only arena (`Vec<Box<Page>>`); a directory keyed
//! with the in-repo [`fxhash`] hasher maps page ids to arena indices, and a
//! one-entry cache short-circuits the directory for the overwhelmingly
//! common case of consecutive accesses landing on the same page. Compared
//! with the seed's `HashMap<u64, Cell>` ([`HashShadowMap`], kept as the
//! equivalence-test baseline), a hit costs one shift/mask plus an indexed
//! load instead of a SipHash probe, and `clear_range` walks slots directly
//! instead of re-hashing every word.

use crate::access::Access;
use fxhash::FxHashMap;
use std::cell::Cell as StdCell;

/// Status of the most recent access recorded for an address: the
/// `accessInfo` of §2.4 plus the metadata DiscoPoP reports with every
/// dependence (line, variable, thread) and the loop context used for
/// inter-iteration tagging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Static memory-operation id of the access.
    pub op: u32,
    /// Source line.
    pub line: u32,
    /// Variable symbol.
    pub var: u32,
    /// Thread that performed the access.
    pub thread: u32,
    /// Timestamp of the access.
    pub ts: u64,
    /// Innermost loop instance.
    pub instance: u32,
    /// Iteration within that instance.
    pub iter: u32,
}

impl Cell {
    /// Build a cell from an access record.
    pub fn from_access(a: &Access) -> Self {
        Cell {
            op: a.op,
            line: a.line,
            var: a.var,
            thread: a.thread,
            ts: a.ts,
            instance: a.instance,
            iter: a.iter,
        }
    }
}

/// Common interface over signature and perfect storage, so the dependence
/// engine is generic over the accuracy/space trade-off.
///
/// Addresses are word-granular: the interpreter only emits 8-byte-aligned
/// addresses, and implementations may key their storage on `addr >> 3`.
pub trait AccessMap {
    /// True when [`AccessMap::get_many`] is genuinely cheaper than scalar
    /// probes (signatures: the address hashes pipeline ahead of the
    /// gathers). The chunked engine picks its two-pass batched shape over
    /// the fused single pass based on this.
    const BATCHED_PROBES: bool = false;

    /// Last recorded access status for `addr`, if any.
    fn get(&self, addr: u64) -> Option<Cell>;
    /// Record an access status for `addr`.
    fn set(&mut self, addr: u64, cell: Cell);
    /// Evict a contiguous word range (variable-lifetime analysis, §2.3.5).
    fn clear_range(&mut self, addr: u64, words: u64);
    /// Bytes of memory held by this map.
    fn bytes(&self) -> usize;

    /// Key identifying the storage location this map uses for `addr`:
    /// addresses with equal keys alias the same status state. Exact maps
    /// return the word address; signatures return the hashed slot, so the
    /// chunked engine can group colliding addresses exactly the way the
    /// signature itself would.
    #[inline]
    fn slot_key(&self, addr: u64) -> u64 {
        addr >> 3
    }

    /// Batched probe: append the status of every address in `addrs` to
    /// `out`, in order. Semantically identical to `addrs.iter().map(get)`;
    /// implementations may overlap the address hashing of several probes
    /// (see [`SignatureMap::get_many`]).
    fn get_many(&self, addrs: &[u64], out: &mut Vec<Option<Cell>>) {
        out.extend(addrs.iter().map(|&a| self.get(a)));
    }

    /// Batched store of `(addr, cell)` pairs. Semantically identical to
    /// setting each pair in order.
    fn set_many(&mut self, entries: &[(u64, Cell)]) {
        for (a, c) in entries {
            self.set(*a, *c);
        }
    }
}

/// Slots per lazily-allocated signature page (40 KiB of `Option<Cell>`s):
/// coarse enough that the spine stays tiny, fine enough that sparse
/// workloads touch only a few pages.
const SIG_PAGE: usize = 1 << 10;

/// Fixed-size, hash-indexed signature with no collision resolution.
///
/// Slot storage is paged and zeroed lazily: a fresh map allocates only the
/// page spine (`slots / 1024` pointers), and a page is allocated-and-zeroed
/// on the first `set` that lands in it. This removes the startup cliff of
/// the previous flat `Vec` — ~10 MB of up-front zeroing per map at the
/// default 2^18 slots, paid twice per profiling run (read + write maps) —
/// which dominated profiled time on small workloads. Slot indexing is
/// unchanged (`hash_addr` over the same slot count), so dependence output
/// is bit-for-bit identical to the flat layout.
#[derive(Debug, Clone)]
pub struct SignatureMap {
    /// Lazily allocated pages of `SIG_PAGE` slots each; `None` = never
    /// written, all slots empty.
    pages: Vec<Option<Box<[Option<Cell>]>>>,
    /// Logical slot count (the hash modulus).
    slots: usize,
}

#[inline]
fn hash_addr(addr: u64, len: usize) -> usize {
    // Fibonacci multiplicative hash on the word address. The xor-fold pulls
    // the high (well-mixed) product bits into the low bits so that `% len`
    // — including power-of-two lengths — sees full entropy; without it,
    // addresses sharing low word-index bits collide systematically.
    let mut h = (addr >> 3).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 32;
    let len = len as u64;
    // For a power-of-two length the mask is the same slot as `%`, without
    // the 64-bit division (the auto tier's 2^18 slots, and every halving
    // of it).
    if len.is_power_of_two() {
        (h & (len - 1)) as usize
    } else {
        (h % len) as usize
    }
}

impl SignatureMap {
    /// A signature with `slots` slots (the paper evaluates 1e6–1e8). Costs
    /// one spine allocation; no slot memory is touched until first use.
    pub fn new(slots: usize) -> Self {
        let slots = slots.max(1);
        SignatureMap {
            pages: vec![None; slots.div_ceil(SIG_PAGE)],
            slots,
        }
    }

    /// Number of slots.
    pub fn num_slots(&self) -> usize {
        self.slots
    }

    /// Occupied slots (for fill-factor diagnostics).
    pub fn occupied(&self) -> usize {
        self.pages
            .iter()
            .flatten()
            .map(|p| p.iter().filter(|s| s.is_some()).count())
            .sum()
    }

    /// Write slot `i`, allocating its page on first touch.
    #[inline]
    fn slot_mut(&mut self, i: usize) -> &mut Option<Cell> {
        let page =
            self.pages[i / SIG_PAGE].get_or_insert_with(|| vec![None; SIG_PAGE].into_boxed_slice());
        &mut page[i % SIG_PAGE]
    }

    /// Read slot `i` directly (no hashing).
    #[inline]
    fn slot(&self, i: usize) -> Option<Cell> {
        self.pages[i / SIG_PAGE].as_ref()?[i % SIG_PAGE]
    }

    /// Build a signature from an exact shadow: every resident `(addr,
    /// cell)` is inserted through the normal hash, colliding entries
    /// resolved by keeping the **newest** timestamp — exactly the state a
    /// signature that had seen the same access stream would hold for the
    /// *last* access per slot. The first rung of the degradation ladder.
    pub fn from_perfect(perfect: &PerfectMap, slots: usize) -> Self {
        let mut sig = SignatureMap::new(slots);
        for (addr, cell) in perfect.entries() {
            let i = hash_addr(addr, sig.slots);
            let slot = sig.slot_mut(i);
            match slot {
                Some(prev) if prev.ts >= cell.ts => {}
                _ => *slot = Some(cell),
            }
        }
        sig
    }

    /// Halve the slot count in place, merging slot `i` with slot
    /// `i + m/2` (newest timestamp wins). Exact at the slot level: for even
    /// `m`, `hash % (m/2) == (hash % m) % (m/2)`, so every address lands in
    /// precisely the slot a fresh signature of `m/2` slots would use — the
    /// halving rung of the degradation ladder re-keys without knowing any
    /// addresses. Returns the number of occupied-pair merges performed.
    ///
    /// # Panics
    /// If the slot count is odd (the ladder never halves odd counts).
    pub fn halve(&mut self) -> u64 {
        assert!(
            self.slots.is_multiple_of(2),
            "cannot halve an odd slot count"
        );
        let half = self.slots / 2;
        let mut merged = 0u64;
        for i in 0..half {
            let Some(high) = self.slot(i + half) else {
                continue;
            };
            let dst = self.slot_mut(i);
            match dst {
                Some(low) => {
                    merged += 1;
                    if high.ts > low.ts {
                        *dst = Some(high);
                    }
                }
                None => *dst = Some(high),
            }
        }
        // Drop the upper pages entirely; a straddling page keeps only its
        // lower-half slots.
        let keep_pages = half.div_ceil(SIG_PAGE);
        self.pages.truncate(keep_pages);
        let tail = half % SIG_PAGE;
        if tail != 0 {
            if let Some(Some(page)) = self.pages.last_mut().map(|p| p.as_mut()) {
                for s in &mut page[tail..] {
                    *s = None;
                }
            }
        }
        self.slots = half;
        merged
    }
}

impl AccessMap for SignatureMap {
    const BATCHED_PROBES: bool = true;

    #[inline]
    fn get(&self, addr: u64) -> Option<Cell> {
        let i = hash_addr(addr, self.slots);
        self.pages[i / SIG_PAGE].as_ref()?[i % SIG_PAGE]
    }

    #[inline]
    fn set(&mut self, addr: u64, cell: Cell) {
        let i = hash_addr(addr, self.slots);
        *self.slot_mut(i) = Some(cell);
    }

    #[inline]
    fn slot_key(&self, addr: u64) -> u64 {
        hash_addr(addr, self.slots) as u64
    }

    /// Batched signature probing: hash up to 8 addresses ahead of the
    /// gathers so the multiplies pipeline and the page loads issue
    /// back-to-back, instead of alternating hash → load → hash → load.
    fn get_many(&self, addrs: &[u64], out: &mut Vec<Option<Cell>>) {
        out.reserve(addrs.len());
        let mut slots = [0usize; 8];
        for block in addrs.chunks(8) {
            for (s, &a) in slots.iter_mut().zip(block) {
                *s = hash_addr(a, self.slots);
            }
            for &i in &slots[..block.len()] {
                out.push(match self.pages[i / SIG_PAGE].as_ref() {
                    Some(p) => p[i % SIG_PAGE],
                    None => None,
                });
            }
        }
    }

    fn clear_range(&mut self, addr: u64, words: u64) {
        for w in 0..words {
            let i = hash_addr(addr + w * 8, self.slots);
            // Clearing an unallocated page is a no-op; don't allocate it.
            if let Some(page) = self.pages[i / SIG_PAGE].as_mut() {
                page[i % SIG_PAGE] = None;
            }
        }
    }

    fn bytes(&self) -> usize {
        self.pages.capacity() * std::mem::size_of::<Option<Box<[Option<Cell>]>>>()
            + self.pages.iter().flatten().count() * SIG_PAGE * std::mem::size_of::<Option<Cell>>()
    }
}

/// Word slots per shadow page: one page covers 512 bytes of address space.
const PAGE_WORDS: usize = 64;
/// Address bits consumed by the in-page slot (3 word bits + 6 slot bits).
const PAGE_SHIFT: u32 = 9;
/// Sentinel for the empty page cache.
const NO_PAGE: u64 = u64::MAX;

type Page = [Option<Cell>; PAGE_WORDS];

/// Exact shadow memory: a two-level page table over word addresses.
///
/// O(1) per access with no hashing on the page-hit fast path; see the
/// module docs for the layout. Pages are never freed while the map lives —
/// `clear_range` empties slots but keeps the page allocated, so the
/// one-entry page cache stays valid and address ranges that are reused
/// (stack frames) never reallocate.
#[derive(Debug, Clone)]
pub struct PerfectMap {
    /// Page id → index into `pages`.
    dir: FxHashMap<u64, u32>,
    /// Grow-only page arena. Boxed so that growing the arena moves
    /// pointers, not pages: a 10k-actor run holds ~40k pages.
    #[allow(clippy::vec_box)]
    pages: Vec<Box<Page>>,
    /// Last page touched: `(page id, arena index)`; avoids the directory
    /// probe entirely for same-page runs of accesses.
    cache: StdCell<(u64, u32)>,
    /// Occupied slots across all pages.
    len: usize,
}

impl Default for PerfectMap {
    fn default() -> Self {
        Self::new()
    }
}

impl PerfectMap {
    /// An empty perfect map.
    pub fn new() -> Self {
        PerfectMap {
            dir: FxHashMap::default(),
            pages: Vec::new(),
            cache: StdCell::new((NO_PAGE, 0)),
            len: 0,
        }
    }

    /// Number of distinct addresses tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Shadow pages allocated (diagnostics).
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Arena index of `addr`'s page, if the page exists; refreshes the
    /// one-entry cache.
    #[inline]
    fn find_page(&self, addr: u64) -> Option<u32> {
        let id = addr >> PAGE_SHIFT;
        let (cid, cidx) = self.cache.get();
        if cid == id {
            return Some(cidx);
        }
        let idx = *self.dir.get(&id)?;
        self.cache.set((id, idx));
        Some(idx)
    }

    /// Arena index of `addr`'s page, allocating it on first touch.
    #[inline]
    fn find_or_alloc_page(&mut self, addr: u64) -> u32 {
        if let Some(idx) = self.find_page(addr) {
            return idx;
        }
        let id = addr >> PAGE_SHIFT;
        let idx = self.pages.len() as u32;
        self.pages.push(Box::new([None; PAGE_WORDS]));
        self.dir.insert(id, idx);
        self.cache.set((id, idx));
        idx
    }

    #[inline]
    fn slot_of(addr: u64) -> usize {
        (addr >> 3) as usize & (PAGE_WORDS - 1)
    }

    /// Every `(address, cell)` pair currently stored, in unspecified order.
    /// Exact maps are enumerable — this is what lets the parallel engine
    /// *merge* an underloaded partition into another one by moving its
    /// whole shadow state, something a signature (which stores no
    /// addresses) cannot do.
    pub fn entries(&self) -> Vec<(u64, Cell)> {
        let mut out = Vec::with_capacity(self.len);
        for (&id, &idx) in &self.dir {
            let page = &self.pages[idx as usize];
            for (s, cell) in page.iter().enumerate() {
                if let Some(c) = cell {
                    out.push(((id << PAGE_SHIFT) | ((s as u64) << 3), *c));
                }
            }
        }
        out
    }
}

impl AccessMap for PerfectMap {
    #[inline]
    fn get(&self, addr: u64) -> Option<Cell> {
        debug_assert_eq!(addr & 7, 0, "PerfectMap requires word-aligned addresses");
        let idx = self.find_page(addr)?;
        self.pages[idx as usize][Self::slot_of(addr)]
    }

    #[inline]
    fn set(&mut self, addr: u64, cell: Cell) {
        debug_assert_eq!(addr & 7, 0, "PerfectMap requires word-aligned addresses");
        let idx = self.find_or_alloc_page(addr);
        let slot = &mut self.pages[idx as usize][Self::slot_of(addr)];
        self.len += slot.is_none() as usize;
        *slot = Some(cell);
    }

    fn clear_range(&mut self, addr: u64, words: u64) {
        // Walk page by page so a frame-sized range costs one directory
        // probe per page instead of one per word.
        let mut word = addr >> 3;
        let end = word + words;
        while word < end {
            let page_addr = word << 3;
            let in_page = (word as usize) & (PAGE_WORDS - 1);
            let take = (PAGE_WORDS - in_page).min((end - word) as usize);
            if let Some(idx) = self.find_page(page_addr) {
                let page = &mut self.pages[idx as usize];
                for slot in &mut page[in_page..in_page + take] {
                    self.len -= slot.is_some() as usize;
                    *slot = None;
                }
            }
            word += take as u64;
        }
    }

    fn bytes(&self) -> usize {
        self.pages.len() * std::mem::size_of::<Page>()
            + self.dir.capacity() * std::mem::size_of::<(u64, u32)>()
    }
}

/// The seed's exact shadow memory: one `HashMap` entry per address.
///
/// Superseded by the page-table [`PerfectMap`] on the hot path; retained as
/// the independent reference implementation the equivalence tests compare
/// against (and as the fallback shape for sparse address spaces, where a
/// page per isolated address would waste memory).
#[derive(Debug, Clone, Default)]
pub struct HashShadowMap {
    map: std::collections::HashMap<u64, Cell>,
}

impl HashShadowMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct addresses tracked.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl AccessMap for HashShadowMap {
    #[inline]
    fn get(&self, addr: u64) -> Option<Cell> {
        self.map.get(&addr).copied()
    }

    #[inline]
    fn set(&mut self, addr: u64, cell: Cell) {
        self.map.insert(addr, cell);
    }

    fn clear_range(&mut self, addr: u64, words: u64) {
        for w in 0..words {
            self.map.remove(&(addr + w * 8));
        }
    }

    fn bytes(&self) -> usize {
        // Approximation: entry = key + value + bucket overhead.
        self.map.capacity() * (std::mem::size_of::<(u64, Cell)>() + 8)
    }
}

/// Estimated false-positive probability of a signature after inserting `n`
/// distinct addresses into `m` slots (dissertation Eq. 2.2):
/// `P = 1 - (1 - 1/m)^n`.
pub fn estimated_fp_rate(m: usize, n: usize) -> f64 {
    1.0 - (1.0 - 1.0 / m as f64).powi(n as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(op: u32) -> Cell {
        Cell {
            op,
            line: 1,
            var: 0,
            thread: 0,
            ts: 0,
            instance: u32::MAX,
            iter: 0,
        }
    }

    #[test]
    fn signature_roundtrip_no_collision() {
        let mut s = SignatureMap::new(1 << 16);
        s.set(0x1000, cell(7));
        assert_eq!(s.get(0x1000).unwrap().op, 7);
    }

    #[test]
    fn halving_matches_fresh_smaller_signature() {
        // For a monotone-timestamp insert stream, halving a 2m-slot
        // signature must leave exactly the state an m-slot signature built
        // from the same stream would hold — the slot-level re-key identity
        // the degradation ladder relies on.
        let (big_slots, small_slots) = (1 << 10, 1 << 9);
        let mut big = SignatureMap::new(big_slots);
        let mut small = SignatureMap::new(small_slots);
        for k in 0..5000u64 {
            let addr = (k * 0x39_41u64) & !7;
            let mut c = cell(k as u32);
            c.ts = k;
            big.set(addr, c);
            small.set(addr, c);
        }
        big.halve();
        assert_eq!(big.num_slots(), small_slots);
        for k in 0..5000u64 {
            let addr = (k * 0x39_41u64) & !7;
            assert_eq!(big.get(addr), small.get(addr), "addr {addr:#x}");
        }
        assert_eq!(big.occupied(), small.occupied());
    }

    #[test]
    fn from_perfect_keeps_newest_per_slot() {
        let mut p = PerfectMap::new();
        for k in 0..200u64 {
            let mut c = cell(k as u32);
            c.ts = k;
            p.set(k * 8, c);
        }
        // 64 slots force collisions; the surviving cell per slot must be
        // the max-timestamp one.
        let sig = SignatureMap::from_perfect(&p, 64);
        for k in 0..200u64 {
            let got = sig.get(k * 8).expect("every slot a write landed in");
            assert!(got.ts >= k || got.ts < 200, "newest-wins per slot");
        }
        let best = sig.get(199 * 8).unwrap();
        // The newest insert overall can never have been evicted.
        assert!(sig.occupied() <= 64);
        assert!(best.ts <= 199);
    }

    #[test]
    fn signature_collision_shares_slot() {
        // A 1-slot signature collides everything — the defining behaviour.
        let mut s = SignatureMap::new(1);
        s.set(0x1000, cell(1));
        s.set(0x2000, cell(2));
        assert_eq!(s.get(0x1000).unwrap().op, 2, "collision overwrites");
    }

    #[test]
    fn fresh_signature_allocates_no_pages() {
        let s = SignatureMap::new(1 << 18);
        assert_eq!(s.pages.iter().flatten().count(), 0, "no page on creation");
        // The spine is the only cost: pointers, not slots.
        assert!(s.bytes() < (1 << 18) / SIG_PAGE * 64, "spine only");
        assert_eq!(s.num_slots(), 1 << 18);
        assert_eq!(s.occupied(), 0);
        assert!(s.get(0x1000).is_none(), "reads never allocate");
        let mut s = s;
        s.clear_range(0x1000, 64);
        assert_eq!(s.pages.iter().flatten().count(), 0, "clears never allocate");
        s.set(0x1000, cell(1));
        assert_eq!(s.pages.iter().flatten().count(), 1, "first write: one page");
    }

    #[test]
    fn paged_signature_matches_dense_reference() {
        // Differential test: the lazily-paged layout must behave exactly
        // like the flat slot vector it replaced.
        struct Dense(Vec<Option<Cell>>);
        impl Dense {
            fn idx(&self, addr: u64) -> usize {
                hash_addr(addr, self.0.len())
            }
        }
        let slots = 1 << 12;
        let mut paged = SignatureMap::new(slots);
        let mut dense = Dense(vec![None; slots]);
        let mut rng = 0xfeed_u64;
        let mut next = move || {
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for i in 0..30_000u32 {
            let r = next();
            let addr = (r >> 8) % (1 << 20) * 8;
            match r % 8 {
                0 => {
                    let words = r >> 40 & 0x1F;
                    paged.clear_range(addr, words);
                    for w in 0..words {
                        let i = dense.idx(addr + w * 8);
                        dense.0[i] = None;
                    }
                }
                1..=3 => {
                    assert_eq!(paged.get(addr), dense.0[dense.idx(addr)], "get @ {i}");
                }
                _ => {
                    paged.set(addr, cell(i));
                    let di = dense.idx(addr);
                    dense.0[di] = Some(cell(i));
                }
            }
        }
        assert_eq!(
            paged.occupied(),
            dense.0.iter().filter(|s| s.is_some()).count()
        );
    }

    #[test]
    fn batched_probes_match_scalar() {
        // Differential test: get_many/set_many must behave exactly like
        // per-address get/set, on both map shapes.
        let mut rng = 0xbeef_u64;
        let mut next = move || {
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut sig = SignatureMap::new(1 << 10);
        let mut perf = PerfectMap::new();
        for round in 0..200u32 {
            let n = (next() % 20 + 1) as usize;
            let addrs: Vec<u64> = (0..n).map(|_| (next() % 4096) * 8).collect();
            let entries: Vec<(u64, Cell)> = addrs
                .iter()
                .enumerate()
                .map(|(i, &a)| (a, cell(round * 100 + i as u32)))
                .collect();
            if round % 2 == 0 {
                sig.set_many(&entries);
                perf.set_many(&entries);
            } else {
                for (a, c) in &entries {
                    sig.set(*a, *c);
                    perf.set(*a, *c);
                }
            }
            let mut got_sig = Vec::new();
            let mut got_perf = Vec::new();
            sig.get_many(&addrs, &mut got_sig);
            perf.get_many(&addrs, &mut got_perf);
            for (i, &a) in addrs.iter().enumerate() {
                assert_eq!(got_sig[i], sig.get(a), "signature @ {a:#x}");
                assert_eq!(got_perf[i], perf.get(a), "perfect @ {a:#x}");
                assert_eq!(sig.slot_key(a), hash_addr(a, sig.num_slots()) as u64);
            }
        }
    }

    #[test]
    fn perfect_map_entries_roundtrip() {
        let mut p = PerfectMap::new();
        let addrs = [0x40u64, 0x1000, 0x1008, 0x7_F000, 0xFFFF_0000];
        for (i, &a) in addrs.iter().enumerate() {
            p.set(a, cell(i as u32));
        }
        let mut got = p.entries();
        got.sort_by_key(|(a, _)| *a);
        assert_eq!(got.len(), addrs.len());
        let mut want = addrs.to_vec();
        want.sort_unstable();
        assert_eq!(got.iter().map(|(a, _)| *a).collect::<Vec<_>>(), want);
        for (a, c) in got {
            assert_eq!(p.get(a), Some(c));
        }
    }

    #[test]
    fn clear_range_evicts() {
        let mut s = SignatureMap::new(1 << 12);
        s.set(0x1000, cell(1));
        s.set(0x1008, cell(2));
        s.clear_range(0x1000, 2);
        assert!(s.get(0x1000).is_none());
        assert!(s.get(0x1008).is_none());
    }

    #[test]
    fn perfect_map_is_exact() {
        let mut p = PerfectMap::new();
        p.set(0x1000, cell(1));
        p.set(0x2000, cell(2));
        assert_eq!(p.get(0x1000).unwrap().op, 1);
        assert_eq!(p.get(0x2000).unwrap().op, 2);
        p.clear_range(0x1000, 1);
        assert!(p.get(0x1000).is_none());
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn perfect_map_crosses_page_boundaries() {
        let mut p = PerfectMap::new();
        // Last word of one page, first word of the next.
        let last = (1u64 << PAGE_SHIFT) - 8;
        let first = 1u64 << PAGE_SHIFT;
        p.set(last, cell(1));
        p.set(first, cell(2));
        assert_eq!(p.get(last).unwrap().op, 1);
        assert_eq!(p.get(first).unwrap().op, 2);
        assert_eq!(p.num_pages(), 2);
        // A range spanning the boundary clears both sides.
        p.clear_range(last, 2);
        assert!(p.get(last).is_none());
        assert!(p.get(first).is_none());
        assert!(p.is_empty());
    }

    #[test]
    fn perfect_map_clear_range_partial_pages() {
        let mut p = PerfectMap::new();
        for w in 0..(PAGE_WORDS as u64 * 3) {
            p.set(0x10_0000 + w * 8, cell(w as u32));
        }
        assert_eq!(p.len(), PAGE_WORDS * 3);
        // Clear from mid-first-page to mid-third-page.
        let mid = PAGE_WORDS as u64 / 2;
        let start = 0x10_0000 + mid * 8;
        let words = PAGE_WORDS as u64 * 2;
        p.clear_range(start, words);
        assert_eq!(p.len(), PAGE_WORDS);
        assert!(p.get(start).is_none());
        assert!(p.get(start + (words - 1) * 8).is_none());
        assert!(p.get(start + words * 8).is_some());
        assert!(p.get(0x10_0000 + (mid - 1) * 8).is_some());
    }

    #[test]
    fn perfect_map_sparse_words_cost_one_small_page_each() {
        // One word per actor stack: the footprint is a page per word plus
        // the directory, not a page per 4 KiB of address space.
        let mut p = PerfectMap::new();
        let n = 1_000u64;
        for k in 0..n {
            p.set(interp::STACK_BASE + k * interp::STACK_SPAN, cell(k as u32));
        }
        assert_eq!(p.len(), n as usize);
        assert_eq!(p.num_pages(), n as usize);
        let dir = p.dir.capacity() * std::mem::size_of::<(u64, u32)>();
        assert!(
            p.bytes() <= n as usize * std::mem::size_of::<Page>() + dir,
            "{} bytes for {n} words",
            p.bytes()
        );
        assert!(std::mem::size_of::<Page>() <= 3 << 10, "pages of ~2.5 KiB");
    }

    #[test]
    fn perfect_map_set_overwrites_without_len_growth() {
        let mut p = PerfectMap::new();
        p.set(0x40, cell(1));
        p.set(0x40, cell(2));
        assert_eq!(p.len(), 1);
        assert_eq!(p.get(0x40).unwrap().op, 2);
    }

    #[test]
    fn perfect_map_matches_hash_shadow_on_random_ops() {
        // Differential test against the independent baseline.
        let mut rng = 0x5eed_u64;
        let mut next = move || {
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut pt = PerfectMap::new();
        let mut hs = HashShadowMap::new();
        for i in 0..50_000u32 {
            let r = next();
            // Mix of two address regions, word-aligned, plus range clears.
            let addr = if r & 1 == 0 {
                0x1000 + (r >> 8) % 4096 * 8
            } else {
                0xFFFF_0000 + (r >> 8) % 512 * 8
            };
            match r % 16 {
                0 => {
                    let words = r >> 16 & 0x3F;
                    pt.clear_range(addr, words);
                    hs.clear_range(addr, words);
                }
                1..=5 => {
                    assert_eq!(pt.get(addr), hs.get(addr), "get({addr:#x}) @ {i}");
                }
                _ => {
                    pt.set(addr, cell(i));
                    hs.set(addr, cell(i));
                }
            }
        }
        assert_eq!(pt.len(), hs.len());
    }

    #[test]
    fn fp_rate_monotone() {
        let small = estimated_fp_rate(1_000_000, 1_000);
        let big = estimated_fp_rate(1_000_000, 1_000_000);
        assert!(small < big);
        assert!(big < 1.0);
    }
}
