//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for the wire
//! protocol's integrity trailers, implemented locally to keep the workspace
//! dependency-free.
//!
//! Since PR 5 every bulk data block is sealed with a CRC trailer, so the
//! checksum runs over every transferred byte and sets the host cost of the
//! pipelined copy path. [`Crc32::update`] therefore has three inner loops:
//!
//! * a carry-less-multiply folding kernel (Gopal et al., "Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ Instruction",
//!   Intel 2009) stepping four 512-bit accumulators, 256 bytes per
//!   iteration, for inputs of at least 512 bytes on x86-64 CPUs that also
//!   report `avx512f` and `vpclmulqdq`: it checksums a pipeline block at
//!   the rate memory delivers it,
//! * the same kernel stepping four 128-bit accumulators, 64 bytes per
//!   iteration, for inputs of at least 64 bytes on x86-64 CPUs that report
//!   `pclmulqdq` and `sse4.1`, and
//! * the portable slice-by-8 table loop for everything else: short inputs,
//!   the sub-16-byte tail the kernel leaves, and every other target.
//!
//! The choice is made per call from the input length and the CPU, never by
//! a caller. All loops take and return the raw CRC register, so a streaming
//! state can cross from one to another between any two `update` calls. The
//! two folding loops are one kernel: they differ only in the width of the
//! main loop and hand their lanes to the same lane fold, single-lane loop
//! and final reduction.
//!
//! [`checksum`] is the payload-level entry point that `seal_block` and
//! `open_block` share. Below [`SPLIT_MIN`] bytes, or on a host with one
//! usable CPU, it is the same streaming walk over the segments. From
//! [`SPLIT_MIN`] up it checksums the two halves on two cores: the second
//! half goes to one process-wide helper thread as `Arc`-owned byte views,
//! the caller folds the first half, and [`combine`] joins the two CRCs by
//! shifting the first over the length of the second (zlib's
//! `crc32_combine`). The result is bit-identical either way.
//!
//! The kernel and the three scheduler calls that keep the helper off the
//! caller's CPU ([`affinity`], Linux only) are the only `unsafe` code in
//! `dacc-runtime`.

use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread::Thread;
use std::time::{Duration, Instant};

use bytes::Bytes;

/// Slice-by-8 lookup tables. `CRC_TABLES[0]` is the classic byte-at-a-time
/// table; `CRC_TABLES[k]` advances a byte through `k` additional zero
/// bytes, which lets [`update_table`] fold eight input bytes per iteration.
const CRC_TABLES: [[u32; 256]; 8] = generate_crc_tables();

const fn generate_crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                (c >> 1) ^ 0xEDB8_8320
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Shortest input handed to the carry-less-multiply kernel: the four
/// 16-byte lanes of its 128-bit loop.
#[cfg(target_arch = "x86_64")]
const CLMUL_MIN: usize = 64;

/// Shortest input handed to the kernel's 512-bit loop: two of its 256-byte
/// steps. Anything shorter spends more on folding sixteen lanes back into
/// one than the wider loads save.
#[cfg(target_arch = "x86_64")]
const WIDE_MIN: usize = 512;

/// True if this CPU can run the kernel's 128-bit loop.
#[cfg(target_arch = "x86_64")]
fn clmul_detected() -> bool {
    std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
}

/// True if this CPU can also run the kernel's 512-bit loop.
#[cfg(target_arch = "x86_64")]
fn wide_detected() -> bool {
    clmul_detected()
        && std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("vpclmulqdq")
}

/// Incremental CRC-32 state (IEEE 802.3, reflected polynomial 0xEDB88320).
/// The streaming state lets scatter-gathered payloads
/// ([`Payload`](dacc_fabric::payload::Payload) segment chains) be
/// checksummed segment by segment without reassembly.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh state (all-ones preset, per the standard).
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Fold `bytes` into the running checksum, with the fastest loop this
    /// CPU and this length allow.
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= CLMUL_MIN && clmul_detected() {
            let (blocks, tail) = bytes.as_chunks::<16>();
            let folded = if bytes.len() >= WIDE_MIN && wide_detected() {
                // SAFETY: `avx512f` and `vpclmulqdq` were detected on the
                // running CPU just above, together with everything the
                // 128-bit loop needs (below); those are the features
                // `clmul::fold_wide` is compiled for.
                unsafe { clmul::fold_wide(self.state, blocks) }
            } else {
                // SAFETY: `pclmulqdq` and `sse4.1` were detected on the
                // running CPU just above, and `sse2` is part of the x86-64
                // baseline; those are the features `clmul::fold` is
                // compiled for.
                unsafe { clmul::fold(self.state, blocks) }
            };
            self.state = update_table(folded, tail);
            return;
        }
        self.state = update_table(self.state, bytes);
    }

    /// Finish and return the checksum.
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 over a contiguous buffer.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finalize()
}

/// Portable slice-by-8 loop over the raw CRC register.
fn update_table(mut crc: u32, mut bytes: &[u8]) -> u32 {
    while bytes.len() >= 8 {
        let lo = crc ^ u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        let hi = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
        bytes = &bytes[8..];
    }
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Bodies at least this long are checksummed on two cores. Below it the
/// hand-off to the helper (a few cache-line transfers and a wake-up) costs
/// more than folding the second half here; EXPERIMENTS A28 has the sweep.
pub const SPLIT_MIN: usize = 64 << 10;

/// How long the helper keeps polling for the next job after finishing one
/// before it parks. A pipelined copy checksums its next block well inside
/// this window; waking a parked helper costs more than a block's half.
const SPIN: Duration = Duration::from_micros(200);

/// CRC-32 of the first `len` logical bytes of `segs` (a payload's segments
/// in order). From [`SPLIT_MIN`] bytes up, when the helper thread runs,
/// the second half is folded on it while this thread folds the first.
pub(crate) fn checksum(segs: &[Bytes], len: usize) -> u32 {
    if len >= SPLIT_MIN {
        if let Some(thread) = helper() {
            return HELPER.split(thread, segs, len);
        }
    }
    fold_range(segs, 0, len)
}

/// True if this process checksums large payloads on two cores: at least
/// two CPUs are allowed and the helper thread runs. Starts the helper if
/// no checksum has yet.
pub fn split_active() -> bool {
    helper().is_some()
}

/// CRC-32 of the logical bytes `[start, end)` of `segs`, on this thread.
fn fold_range(segs: &[Bytes], start: usize, end: usize) -> u32 {
    let mut crc = Crc32::new();
    for_each_part(segs, start, end, |s, range| crc.update(&s[range]));
    crc.finalize()
}

/// Call `f` with every segment that holds some of the logical bytes
/// `[start, end)` of `segs`, and the range of that segment they occupy.
fn for_each_part(
    segs: &[Bytes],
    start: usize,
    end: usize,
    mut f: impl FnMut(&Bytes, Range<usize>),
) {
    let mut off = 0;
    for s in segs {
        if off >= end {
            break;
        }
        let (lo, hi) = (start.max(off), end.min(off + s.len()));
        if lo < hi {
            f(s, lo - off..hi - off);
        }
        off += s.len();
    }
}

/// CRC-32 of `a ‖ b` from `crc32(a)`, `crc32(b)` and the length of `b`
/// (zlib's `crc32_combine`). Reading `a`'s finished CRC as a polynomial,
/// appending `len_b` bytes multiplies it by x^(8·len_b) mod P; the all-ones
/// preset and final XOR of the two CRCs cancel, so XOR with `b`'s CRC
/// completes it. The power comes from a table of x^(2^k) in one multiply
/// per set bit of `8·len_b`: 110–120 ns on a 2.1 GHz Xeon, where folding
/// the smallest half that is split (32 KiB) takes about 1.5 µs.
fn combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    let mut shift = 1 << 31; // x^0
    let (mut n, mut k) = (len_b, 3); // 8 = 2^3
    while n != 0 {
        if n & 1 != 0 {
            shift = mul_mod_p(X_POW_2K[k % 32], shift);
        }
        n >>= 1;
        k += 1;
    }
    mul_mod_p(shift, crc_a) ^ crc_b
}

/// x^(2^k) mod P for k in 0..32, reflected (bit 31 is x^0). The order of x
/// modulo P divides 2^32 − 1, so the table repeats with period 32.
const X_POW_2K: [u32; 32] = {
    let mut t = [0u32; 32];
    let mut p = 1 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        t[k] = p;
        p = mul_mod_p(p, p);
        k += 1;
    }
    t
};

/// a·b mod P, both reflected (bit 31 is x^0): shift-and-add over the bits
/// of `a`, multiplying `b` by x once per bit.
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 1 << 31;
    while bit != 0 {
        if a & bit != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 {
            (b >> 1) ^ 0xEDB8_8320
        } else {
            b >> 1
        };
        bit >>= 1;
    }
    product
}

// Phases of the helper's one job slot. A phase that both sides may leave
// (a posted job, a job being folded) is left only by compare-and-swap, so
// each job is taken, taken back or abandoned exactly once.

/// No job: a caller may claim the slot.
const IDLE: u32 = 0;
/// A caller fills the slot, or empties a job it took back.
const OWNED: u32 = 1;
/// A job waits: the helper may take it, its caller may take it back.
const POSTED: u32 = 2;
/// The helper folds the job.
const TAKEN: u32 = 3;
/// The helper's CRC waits in `crc` for the caller.
const DONE: u32 = 4;
/// The caller stopped waiting and folds the half itself; the helper drops
/// its CRC and frees the slot.
const ABANDONED: u32 = 5;

/// The slot one caller at a time shares with the helper thread.
struct Helper {
    phase: AtomicU32,
    /// The posted half: views of the caller's buffers, cloned `Arc`s and
    /// never a borrow. Empty unless a job is posted or taken; whoever ends
    /// a job clears it before the caller returns, so no buffer outlives
    /// its checksum here. Its capacity is kept, so a job allocates nothing.
    job: Mutex<Vec<Bytes>>,
    /// The helper's CRC of the job, valid in phase `DONE`.
    crc: AtomicU32,
    /// Holds the helper before it takes a job, and before it publishes
    /// one it has folded, for as long as a test locks them.
    #[cfg(test)]
    gate: [Mutex<()>; 2],
}

/// The process's helper slot; its thread starts on the first large
/// checksum.
static HELPER: Helper = Helper::new();

/// The helper thread: `None` when this process may use only one CPU or
/// the thread could not be started.
static THREAD: OnceLock<Option<Thread>> = OnceLock::new();

fn helper() -> Option<&'static Thread> {
    THREAD
        .get_or_init(|| {
            let cpus = std::thread::available_parallelism().map_or(1, usize::from);
            (cpus >= 2).then(|| HELPER.spawn()).flatten()
        })
        .as_ref()
}

impl Helper {
    const fn new() -> Self {
        Helper {
            phase: AtomicU32::new(IDLE),
            job: Mutex::new(Vec::new()),
            crc: AtomicU32::new(0),
            #[cfg(test)]
            gate: [Mutex::new(()), Mutex::new(())],
        }
    }

    /// Start the thread that serves this slot, pinned off the calling
    /// thread's CPU where the platform allows.
    fn spawn(&'static self) -> Option<Thread> {
        #[cfg(target_os = "linux")]
        let caller_cpu = affinity::current_cpu();
        let handle = std::thread::Builder::new()
            .name("dacc-crc".into())
            .spawn(move || {
                #[cfg(target_os = "linux")]
                if let Some(cpu) = caller_cpu {
                    affinity::avoid(cpu);
                }
                self.serve()
            })
            .ok()?;
        Some(handle.thread().clone())
    }

    fn lock_job(&self) -> std::sync::MutexGuard<'_, Vec<Bytes>> {
        self.job.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// [`checksum`] of `len` bytes with the second half offered to the
    /// helper. A job still waiting when the first half is done is taken
    /// back; one the helper has not finished within the time the first
    /// half took is folded here too. Either costs at most one half more
    /// than folding alone, and never a wait on the helper.
    fn split(&self, thread: &Thread, segs: &[Bytes], len: usize) -> u32 {
        if self
            .phase
            .compare_exchange(IDLE, OWNED, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            // Another thread's job holds the slot.
            return fold_range(segs, 0, len);
        }
        let cut = len / 2;
        {
            let mut job = self.lock_job();
            for_each_part(segs, cut, len, |s, range| job.push(s.slice(range)));
        }
        self.phase.store(POSTED, Ordering::Release);
        thread.unpark();
        let start = Instant::now();
        let first = fold_range(segs, 0, cut);
        let second = self
            .collect(start.elapsed())
            .unwrap_or_else(|| fold_range(segs, cut, len));
        combine(first, second, len - cut)
    }

    /// The helper's CRC of the posted half, or `None` when the caller must
    /// fold it: the job was still waiting (taken back, its views dropped
    /// here), or the helper did not finish within `budget` (left to it).
    fn collect(&self, budget: Duration) -> Option<u32> {
        let waiting = Instant::now();
        loop {
            match self.phase.load(Ordering::Acquire) {
                DONE => {
                    let crc = self.crc.load(Ordering::Relaxed);
                    self.phase.store(IDLE, Ordering::Release);
                    return Some(crc);
                }
                POSTED => {
                    if self.claim(POSTED, OWNED) {
                        self.lock_job().clear();
                        self.phase.store(IDLE, Ordering::Release);
                        return None;
                    }
                }
                TAKEN => {
                    if waiting.elapsed() >= budget && self.claim(TAKEN, ABANDONED) {
                        return None;
                    }
                }
                phase => unreachable!("a posted job in phase {phase}"),
            }
            std::hint::spin_loop();
        }
    }

    fn claim(&self, from: u32, to: u32) -> bool {
        self.phase
            .compare_exchange(from, to, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }

    /// The helper thread: take each posted job, fold it, drop its views,
    /// publish the CRC. Polls for [`SPIN`] after a job or a wake-up, then
    /// parks until a caller posts. Allocates nothing.
    fn serve(&self) -> ! {
        let mut idle_since = Instant::now();
        loop {
            if self.phase.load(Ordering::Relaxed) == POSTED {
                #[cfg(test)]
                drop(self.gate[0].lock());
                if self.claim(POSTED, TAKEN) {
                    let crc = {
                        let mut job = self.lock_job();
                        let crc = fold_range(&job, 0, usize::MAX);
                        job.clear();
                        crc
                    };
                    #[cfg(test)]
                    drop(self.gate[1].lock());
                    self.crc.store(crc, Ordering::Relaxed);
                    if !self.claim(TAKEN, DONE) {
                        // Abandoned: its caller folded the half itself.
                        self.phase.store(IDLE, Ordering::Release);
                    }
                    idle_since = Instant::now();
                }
            } else if idle_since.elapsed() < SPIN {
                std::hint::spin_loop();
            } else {
                std::thread::park();
                // Woken by a post: poll a full window again. A wake-up can
                // take longer than the caller's half, and a helper that only
                // polled after jobs it took would then miss every job.
                idle_since = Instant::now();
            }
        }
    }
}

/// Keeps the helper off the CPU of the thread that started it. Left to
/// itself, the scheduler of a virtualised host was seen to run a fresh
/// helper on its spawner's CPU for the first ~1.5 s of a process, which
/// made every split slower than folding alone.
#[cfg(target_os = "linux")]
mod affinity {
    /// glibc's `cpu_set_t`: one bit per CPU, 1024 CPUs.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    /// The CPU the calling thread runs on.
    pub(super) fn current_cpu() -> Option<usize> {
        // SAFETY: `sched_getcpu` takes no arguments and only reports the
        // calling thread's CPU, or −1.
        usize::try_from(unsafe { sched_getcpu() }).ok()
    }

    /// Restrict the calling thread to the CPUs it may already use, less
    /// `cpu`. Does nothing if that leaves none or a call fails.
    pub(super) fn avoid(cpu: usize) {
        let mut set: CpuSet = [0; 16];
        // SAFETY: pid 0 names the calling thread, and `set` is a live,
        // writable buffer of exactly the size passed.
        if unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut set) } != 0 {
            return;
        }
        let Some(word) = set.get_mut(cpu / 64) else {
            return;
        };
        *word &= !(1 << (cpu % 64));
        if set.iter().all(|&w| w == 0) {
            return;
        }
        // SAFETY: pid 0 names the calling thread, and `set` is a live,
        // readable buffer of exactly the size passed. A failure leaves the
        // thread's mask as it was.
        unsafe { sched_setaffinity(0, size_of::<CpuSet>(), &set) };
    }
}

/// The PCLMULQDQ folding kernel.
///
/// A message is a polynomial over GF(2); its CRC is the remainder modulo
/// P(x). Folding keeps a 128-bit accumulator congruent (mod P) to everything
/// read so far: to move it `n` bits along the message and absorb the 128
/// bits `d` found there, each 64-bit half is carry-less multiplied by a
/// precomputed power of x reduced mod P, and both products are XORed into
/// `d`. Independent accumulators hide the multiplier's latency: the main
/// loop keeps either four of them in four 128-bit registers stepping `n` =
/// 512 bits ([`fold`]), or sixteen in four 512-bit registers stepping `n` =
/// 2048 bits ([`fold_wide`]). Either way the lanes are then folded into one
/// (`n` = 128), which also absorbs any remaining single blocks, and the
/// final 128 bits are reduced 128 → 64 → 32 with a Barrett step in place of
/// a division ([`finish`], shared). The constants are the paper's for the
/// bit-reflected IEEE 802.3 polynomial — x^n mod P, bit-reversed — and each
/// carries an extra factor of x (a `<< 1`) that re-aligns a reflected
/// 64×64 → 127-bit product.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, __m512i, _mm512_broadcast_i32x4, _mm512_castsi512_si128, _mm512_clmulepi64_epi128,
        _mm512_extracti32x4_epi32, _mm512_loadu_si512, _mm512_ternarylogic_epi64, _mm512_xor_si512,
        _mm512_zextsi128_si512, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128,
        _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128,
        _mm_xor_si128,
    };

    /// Fold across sixteen lanes: x^(2048+32) mod P and x^(2048−32) mod P.
    const K1_WIDE: i64 = 0x1_1542_778a;
    const K2_WIDE: i64 = 0x1_322d_1430;
    /// Fold across four lanes: x^(512+32) mod P and x^(512−32) mod P.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// Fold across one lane: x^(128+32) mod P and x^(128−32) mod P.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// 96 → 64 bits: x^64 mod P.
    const K5: i64 = 0x1_63cd_6124;
    /// P(x), all 33 bits, reflected.
    const POLY: i64 = 0x1_db71_0641;
    /// Barrett constant ⌊x^64 / P(x)⌋, reflected.
    const MU: i64 = 0x1_f701_1641;

    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is a live reference to exactly 16 readable bytes,
        // and `_mm_loadu_si128` has no alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// Four consecutive blocks as the four 128-bit lanes of one register,
    /// the first block in the lowest lane.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load_wide(blocks: &[[u8; 16]; 4]) -> __m512i {
        // SAFETY: `blocks` is a live reference to exactly 64 readable
        // bytes, and `_mm512_loadu_si512` has no alignment requirement.
        unsafe { _mm512_loadu_si512(blocks.as_ptr().cast()) }
    }

    /// Shift `acc` left by the distance `keys` encodes and absorb `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse2")]
    fn fold_into(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// [`fold_into`] on each of four 128-bit lanes at once.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    fn fold_into_wide(acc: __m512i, next: __m512i, keys: __m512i) -> __m512i {
        let lo = _mm512_clmulepi64_epi128::<0x00>(acc, keys);
        let hi = _mm512_clmulepi64_epi128::<0x11>(acc, keys);
        // Truth table 0x96 is the three-way XOR.
        _mm512_ternarylogic_epi64::<0x96>(lo, hi, next)
    }

    /// Advance the raw CRC register `crc` over `blocks` (at least four),
    /// 64 bytes per iteration.
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    pub(super) fn fold(crc: u32, blocks: &[[u8; 16]]) -> u32 {
        let (first, mut rest) = blocks
            .split_first_chunk::<4>()
            .expect("the dispatcher sends at least CLMUL_MIN bytes");
        let mut x = [
            load(&first[0]),
            load(&first[1]),
            load(&first[2]),
            load(&first[3]),
        ];
        // The register is the remainder of everything before `blocks`;
        // XORed over the first four bytes it is carried along by the folds.
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        while let Some((quad, more)) = rest.split_first_chunk::<4>() {
            for (acc, b) in x.iter_mut().zip(quad) {
                *acc = fold_into(*acc, load(b), k1k2);
            }
            rest = more;
        }
        finish(&x, rest)
    }

    /// Advance the raw CRC register `crc` over `blocks` (at least
    /// thirty-two), 256 bytes per iteration.
    #[target_feature(enable = "avx512f,vpclmulqdq,pclmulqdq,sse2,sse4.1")]
    pub(super) fn fold_wide(crc: u32, blocks: &[[u8; 16]]) -> u32 {
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn load_group(group: &[[u8; 16]; 16]) -> [__m512i; 4] {
            let (quads, _) = group.as_chunks::<4>();
            [
                load_wide(&quads[0]),
                load_wide(&quads[1]),
                load_wide(&quads[2]),
                load_wide(&quads[3]),
            ]
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn lanes(x: __m512i) -> [__m128i; 4] {
            [
                _mm512_castsi512_si128(x),
                _mm512_extracti32x4_epi32::<1>(x),
                _mm512_extracti32x4_epi32::<2>(x),
                _mm512_extracti32x4_epi32::<3>(x),
            ]
        }

        let (first, mut rest) = blocks
            .split_first_chunk::<16>()
            .expect("the dispatcher sends at least WIDE_MIN bytes");
        let mut x = load_group(first);
        // As in `fold`: the register rides on the first four bytes.
        x[0] = _mm512_xor_si512(x[0], _mm512_zextsi128_si512(_mm_cvtsi32_si128(crc as i32)));

        let keys = _mm512_broadcast_i32x4(_mm_set_epi64x(K2_WIDE, K1_WIDE));
        while let Some((group, more)) = rest.split_first_chunk::<16>() {
            for (acc, next) in x.iter_mut().zip(load_group(group)) {
                *acc = fold_into_wide(*acc, next, keys);
            }
            rest = more;
        }
        // Sixteen lanes over sixteen consecutive blocks, in message order.
        let x = [lanes(x[0]), lanes(x[1]), lanes(x[2]), lanes(x[3])];
        finish(x.as_flattened(), rest)
    }

    /// Common end of both loops: fold `lanes` — accumulators over
    /// consecutive 16-byte spans of the message, in order — into one, walk
    /// it over the blocks the main loop left, and reduce it to the raw CRC
    /// register.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    fn finish(lanes: &[__m128i], rest: &[[u8; 16]]) -> u32 {
        let k3k4 = _mm_set_epi64x(K4, K3);
        let (&first, lanes) = lanes.split_first().expect("a loop has at least one lane");
        let mut acc = first;
        for &lane in lanes {
            acc = fold_into(acc, lane, k3k4);
        }
        for b in rest {
            acc = fold_into(acc, load(b), k3k4);
        }

        // 128 → 96: fold the low qword over the high one. 96 → 64: fold
        // the low dword of that over the rest.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(acc, k3k4),
            _mm_srli_si128::<8>(acc),
        );
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(acc),
        );

        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P; the remainder
        // is bits 32..64 of R ⊕ T2.
        let poly_mu = _mm_set_epi64x(MU, POLY);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), poly_mu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), poly_mu);
        _mm_extract_epi32::<1>(_mm_xor_si128(acc, t2)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::slice::from_ref;

    /// One bit per inner iteration, straight from the definition.
    fn bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// The table loop, called directly.
    fn table(data: &[u8]) -> u32 {
        !update_table(0xFFFF_FFFF, data)
    }

    /// One of the kernel's two loops, called directly (the sub-16-byte tail
    /// goes through the table loop, as it does behind the dispatcher).
    /// `None` where the dispatcher would never send `data` to that loop:
    /// input below its minimum, or a CPU without its instructions.
    #[cfg(target_arch = "x86_64")]
    fn kernel(wide: bool, data: &[u8]) -> Option<u32> {
        let (blocks, tail) = data.as_chunks::<16>();
        let folded = if wide {
            if data.len() < WIDE_MIN || !wide_detected() {
                return None;
            }
            // SAFETY: `wide_detected` just reported every feature
            // `clmul::fold_wide` is compiled for.
            unsafe { clmul::fold_wide(0xFFFF_FFFF, blocks) }
        } else {
            if data.len() < CLMUL_MIN || !clmul_detected() {
                return None;
            }
            // SAFETY: `clmul_detected` just reported `pclmulqdq` and
            // `sse4.1`, and `sse2` is part of the x86-64 baseline.
            unsafe { clmul::fold(0xFFFF_FFFF, blocks) }
        };
        Some(!update_table(folded, tail))
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn kernel(_wide: bool, _data: &[u8]) -> Option<u32> {
        None
    }

    /// Check the dispatcher and each loop that can take `data`, called
    /// directly, against the bitwise reference.
    fn check_every_loop(data: &[u8], what: &str) {
        let want = bitwise(data);
        assert_eq!(crc32(data), want, "dispatched, {what}");
        assert_eq!(table(data), want, "table loop, {what}");
        for wide in [false, true] {
            if let Some(got) = kernel(wide, data) {
                assert_eq!(got, want, "clmul loop (wide: {wide}), {what}");
            }
        }
    }

    /// Say in the test output which loops [`check_every_loop`] reaches on
    /// this CPU, so a green run on one without AVX-512 is not mistaken for
    /// coverage of the 512-bit loop.
    fn report(test: &str) {
        let word = |wide| match kernel(wide, &[0; 1024]) {
            Some(_) => "ran",
            None => "SKIPPED (not detected)",
        };
        println!(
            "{test}: table loop ran, 128-bit clmul loop {}, 512-bit clmul loop {}",
            word(false),
            word(true)
        );
    }

    fn seeded(len: usize, seed: u64) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        ChaCha8Rng::seed_from_u64(seed).fill_bytes(&mut buf);
        buf
    }

    #[test]
    fn known_vectors() {
        for f in [crc32, table, bitwise] {
            assert_eq!(f(b"123456789"), 0xCBF4_3926);
            assert_eq!(f(b""), 0);
        }
    }

    #[test]
    fn every_length_and_alignment_matches_bitwise() {
        // 0..=1100 crosses both thresholds (64, 512) and the 512-bit
        // loop's 256-byte group boundaries (512, 768, 1024) at every
        // alignment of the loads.
        let buf = seeded(1100 + 16, 1);
        for align in 0..16 {
            for len in 0..=1100 {
                check_every_loop(
                    &buf[align..align + len],
                    &format!("len {len} align {align}"),
                );
            }
        }
        report("every_length_and_alignment");
    }

    #[test]
    fn large_inputs_match_bitwise() {
        let buf = seeded((4 << 20) + 1, 2);
        for len in [
            511,
            512,
            513,
            767,
            768,
            1023,
            1024,
            1025,
            (4 << 10) - 1,
            4 << 10,
            (128 << 10) + 4,
            (512 << 10) + 4,
            4 << 20,
        ] {
            // Start one byte in, so the big loads are misaligned too.
            check_every_loop(&buf[1..1 + len], &format!("len {len}"));
        }
        report("large_inputs");
    }

    #[test]
    fn streaming_state_survives_every_two_way_split() {
        // A split hands the register from one loop to another, or between
        // two calls of the same loop; 1500 bytes puts cuts on both sides of
        // both thresholds, so every ordered pair of loops occurs.
        let data = seeded(1500, 3);
        let want = bitwise(&data);
        for cut in 0..=data.len() {
            let mut c = Crc32::new();
            c.update(&data[..cut]);
            c.update(&data[cut..]);
            assert_eq!(c.finalize(), want, "cut at {cut}");
        }
    }

    #[test]
    fn combine_joins_the_crcs_of_any_two_parts() {
        let data = seeded(5000, 4);
        let want = crc32(&data);
        for cut in (0..=data.len()).step_by(7).chain([data.len()]) {
            let (a, b) = data.split_at(cut);
            assert_eq!(combine(crc32(a), crc32(b), b.len()), want, "cut at {cut}");
        }
    }

    /// Say whether the payload checksums below ran on two cores, so a green
    /// run on one CPU is not mistaken for coverage of the split.
    fn report_split(test: &str) {
        let word = if split_active() {
            "ran"
        } else {
            "SKIPPED (one CPU)"
        };
        println!("{test}: two-core split {word}");
    }

    #[test]
    fn split_equals_serial_around_the_threshold() {
        let whole = Bytes::from(seeded(SPLIT_MIN + 300, 5));
        for len in SPLIT_MIN - 300..=SPLIT_MIN + 300 {
            assert_eq!(
                checksum(from_ref(&whole), len),
                crc32(&whole[..len]),
                "len {len}"
            );
        }
        report_split("split_equals_serial_around_the_threshold");
    }

    #[test]
    fn split_equals_serial_up_to_4_mib_at_every_alignment() {
        let buf = Bytes::from(seeded((4 << 20) + 16, 6));
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for align in 0..16 {
            for len in [
                rng.gen_range(0..=4usize << 20),
                rng.gen_range(0..=4usize << 20),
            ] {
                let view = buf.slice(align..align + len);
                assert_eq!(
                    checksum(from_ref(&view), len),
                    crc32(&view),
                    "len {len} align {align}"
                );
            }
        }
        report_split("split_equals_serial_up_to_4_mib");
    }

    #[test]
    fn split_equals_serial_over_any_segmentation() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        for max_seg in [70, 2000] {
            for case in 0..4 {
                let len = rng.gen_range(SPLIT_MIN..=4 * SPLIT_MIN);
                let whole = Bytes::from(seeded(len, 9 + case));
                let mut segs = Vec::new();
                let mut off = 0;
                while off < len {
                    let n = rng.gen_range(1..=max_seg).min(len - off);
                    segs.push(whole.slice(off..off + n));
                    off += n;
                }
                let what = format!("len {len}, {} segments of 1..={max_seg}", segs.len());
                assert_eq!(checksum(&segs, len), crc32(&whole), "{what}");
                // A prefix, as `open_block` checks a body ahead of its trailer.
                let body = len - 4;
                assert_eq!(
                    checksum(&segs, body),
                    crc32(&whole[..body]),
                    "{what}, prefix"
                );
            }
        }
        report_split("split_equals_serial_over_any_segmentation");
    }

    /// A helper slot and thread of the test's own, so holding it at a gate
    /// neither slows nor reorders another test's checksums. `None` on one
    /// CPU, where the process helper never starts either.
    fn private_helper() -> Option<(&'static Helper, Thread)> {
        if std::thread::available_parallelism().map_or(1, usize::from) < 2 {
            println!("private helper SKIPPED (one CPU)");
            return None;
        }
        let helper: &'static Helper = Box::leak(Box::new(Helper::new()));
        Some((helper, helper.spawn()?))
    }

    /// Wait, up to ten seconds, for the helper to free its slot.
    fn wait_idle(helper: &Helper) {
        let start = Instant::now();
        while helper.phase.load(Ordering::Acquire) != IDLE {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "helper never went idle"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_job_taken_back_leaves_nothing_in_the_helper() {
        let Some((helper, thread)) = private_helper() else {
            return;
        };
        let mut body = Bytes::from(seeded(256 << 10, 13));
        let want = crc32(&body);
        let pickup = helper.gate[0].lock().unwrap();
        for round in 0..3 {
            assert_eq!(helper.split(&thread, from_ref(&body), body.len()), want);
            // The held helper never took the job: its caller took it back
            // and dropped the views before returning.
            assert_eq!(helper.phase.load(Ordering::Acquire), IDLE, "round {round}");
            assert!(
                body.try_mut().is_some(),
                "round {round}: a view outlived the call"
            );
        }
        drop(pickup);
        let other = Bytes::from(seeded(256 << 10, 14));
        assert_eq!(
            helper.split(&thread, from_ref(&other), other.len()),
            crc32(&other)
        );
        wait_idle(helper);
    }

    #[test]
    fn a_late_half_is_dropped_not_handed_on() {
        let Some((helper, thread)) = private_helper() else {
            return;
        };
        let mut body = Bytes::from(seeded(1 << 20, 15));
        let want = crc32(&body);
        let publish = helper.gate[1].lock().unwrap();
        // The helper takes a job only if it runs while the job waits; the
        // caller takes back any it has not. Retry until one was taken and,
        // its CRC held back, abandoned.
        let start = Instant::now();
        loop {
            assert_eq!(helper.split(&thread, from_ref(&body), body.len()), want);
            if helper.phase.load(Ordering::Acquire) == ABANDONED {
                break;
            }
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "the helper never took a job"
            );
        }
        drop(publish);
        wait_idle(helper);
        assert!(
            body.try_mut().is_some(),
            "the helper kept a view of a finished job"
        );
        // The late CRC is dropped: the next job gets its own.
        let other = Bytes::from(seeded(256 << 10, 16));
        assert_eq!(
            helper.split(&thread, from_ref(&other), other.len()),
            crc32(&other)
        );
    }
}
