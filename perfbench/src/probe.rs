//! Outside-in probes: a counting global allocator, a counting
//! [`CryptoProvider`] wrapper, the host-speed reference every timing is
//! scaled by, the process's peak RSS, and the sample statistics every
//! phase reports with.
//!
//! Counting is switched on only in the traced run; untraced runs pay one
//! relaxed atomic load per allocation and use the program's own crypto
//! provider unwrapped.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use eilid_casu::{CryptoProvider, SoftwareProvider, DIGEST_SIZE, TAG_SIZE};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The benchmark's global allocator: the system allocator, plus
/// allocation and byte counters while counting is on.
pub struct CountingAlloc;

// SAFETY: every call forwards unchanged to `System`; the counters are
// plain atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        // SAFETY: forwarded with the caller's pointer and layouts.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's pointer and layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count_alloc(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Turns allocation counting on or off (process-wide).
pub fn set_alloc_counting(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// `(allocations, bytes)` counted so far.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::SeqCst),
        ALLOC_BYTES.load(Ordering::SeqCst),
    )
}

/// Crypto operation totals seen by a [`CountingProvider`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CryptoCounts {
    /// HMAC operations.
    pub hmac_ops: u64,
    /// HMAC message bytes.
    pub hmac_bytes: u64,
}

impl CryptoCounts {
    /// Counts accrued since `earlier`.
    pub fn since(self, earlier: CryptoCounts) -> CryptoCounts {
        CryptoCounts {
            hmac_ops: self.hmac_ops - earlier.hmac_ops,
            hmac_bytes: self.hmac_bytes - earlier.hmac_bytes,
        }
    }
}

/// Wraps the software provider and counts the HMACs that pass through
/// it.
#[derive(Debug, Default)]
pub struct CountingProvider {
    inner: SoftwareProvider,
    hmac_ops: AtomicU64,
    hmac_bytes: AtomicU64,
}

impl CountingProvider {
    /// A fresh counting wrapper.
    pub fn shared() -> Arc<CountingProvider> {
        Arc::new(CountingProvider::default())
    }

    /// Totals so far.
    pub fn counts(&self) -> CryptoCounts {
        CryptoCounts {
            hmac_ops: self.hmac_ops.load(Ordering::SeqCst),
            hmac_bytes: self.hmac_bytes.load(Ordering::SeqCst),
        }
    }
}

impl CryptoProvider for CountingProvider {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn sha256(&self, data: &[u8]) -> [u8; DIGEST_SIZE] {
        self.inner.sha256(data)
    }

    fn hmac(&self, key: &[u8], message: &[u8]) -> [u8; TAG_SIZE] {
        self.hmac_ops.fetch_add(1, Ordering::Relaxed);
        self.hmac_bytes
            .fetch_add(message.len() as u64, Ordering::Relaxed);
        self.inner.hmac(key, message)
    }
}

/// The process's peak resident set so far, in MiB.
#[cfg(target_os = "linux")]
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on Linux: two `timeval`s, then fourteen `long`s of
    // which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        longs: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage {
        times: [0; 4],
        longs: [0; 14],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage`; 0 is
    // RUSAGE_SELF.
    let status = unsafe { getrusage(0, &mut usage) };
    if status != 0 {
        return f64::NAN;
    }
    usage.longs[0] as f64 / 1024.0
}

/// The process's peak resident set (unavailable off Linux).
#[cfg(not(target_os = "linux"))]
pub fn peak_rss_mb() -> f64 {
    f64::NAN
}

/// Seconds one [`reference_pass_s`] takes on a host running at
/// *reference speed*. Every time the benchmark reports is scaled to that
/// speed (see [`HostSpeed`]).
pub const REFERENCE_PASS_S: f64 = 1e-3;

/// Interpreter steps per reference pass.
const REFERENCE_STEPS: usize = 100_000;

thread_local! {
    static REFERENCE_MEMORY: RefCell<Vec<u8>> = RefCell::new(
        (0..65_536u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect(),
    );
    // Preallocated, so timing the host never allocates inside a span
    // whose allocations are being counted.
    static REFERENCE_SAMPLES: RefCell<Vec<f64>> = RefCell::new(Vec::with_capacity(1 << 16));
}

/// Times one pass of a fixed reference workload: a small bytecode
/// interpreter over 64 KiB, branchy and memory-touching like the
/// simulator, and independent of every workspace crate, so no change to
/// the program can move it. Only the host's speed does.
pub fn reference_pass_s() -> f64 {
    let start = Instant::now();
    let acc = REFERENCE_MEMORY.with_borrow_mut(|memory| {
        let (mut pc, mut acc, mut regs) = (0usize, 1u32, [0u32; 8]);
        for _ in 0..REFERENCE_STEPS {
            let op = memory[pc & 0xFFFF];
            let arg = usize::from(memory[(pc + 1) & 0xFFFF]);
            match op & 7 {
                0 => acc = acc.wrapping_add(arg as u32),
                1 => regs[arg & 7] = acc,
                2 => acc ^= regs[arg & 7].rotate_left(3),
                3 => {
                    let at = (acc as usize ^ (arg << 8)) & 0xFFFF;
                    memory[at] = memory[at].wrapping_add(acc as u8);
                }
                4 => {
                    if acc & 1 == 0 {
                        pc = pc.wrapping_add(arg * 3);
                    }
                }
                5 => acc = acc.wrapping_mul(2_654_435_761),
                6 => acc = acc.wrapping_add(u32::from(memory[acc as usize & 0xFFFF])),
                _ => regs[(arg >> 3) & 7] ^= acc,
            }
            pc = pc.wrapping_add(2);
        }
        acc
    });
    std::hint::black_box(acc);
    let seconds = start.elapsed().as_secs_f64();
    REFERENCE_SAMPLES.with_borrow_mut(|samples| samples.push(seconds));
    seconds
}

/// Median reference pass this thread has timed so far (s).
pub fn median_reference_pass_s() -> f64 {
    REFERENCE_SAMPLES.with_borrow(|samples| median(samples))
}

/// The host's speed around one operation.
///
/// The shared host this benchmark runs on drifts in speed by tens of
/// percent over seconds and up to twofold over minutes, far more than any
/// regression bound could absorb. So every operation is bracketed by two
/// reference passes, and its times are scaled by `REFERENCE_PASS_S`
/// over their mean: the time the operation would have taken on a host
/// at reference speed. A faster program still reads faster; a slower
/// host no longer reads as a slower program.
#[derive(Debug)]
pub struct HostSpeed {
    before: f64,
}

impl HostSpeed {
    /// Times the reference pass before the operation.
    pub fn start() -> Self {
        HostSpeed {
            before: reference_pass_s(),
        }
    }

    /// Times the reference pass after the operation and returns the
    /// factor that scales its measured times to reference speed.
    pub fn finish(self) -> f64 {
        let after = reference_pass_s();
        REFERENCE_PASS_S * 2.0 / (self.before + after)
    }
}

/// Linear-interpolated quantile `q` of `samples` (NaN when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&samples), 2.5);
        assert_eq!(quantile(&samples, 0.0), 1.0);
        assert_eq!(quantile(&samples, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn counting_provider_matches_software() {
        let counting = CountingProvider::default();
        assert_eq!(
            counting.hmac(b"key", b"message"),
            SoftwareProvider.hmac(b"key", b"message")
        );
        assert_eq!(
            counting.counts(),
            CryptoCounts {
                hmac_ops: 1,
                hmac_bytes: 7,
            }
        );
    }
}
