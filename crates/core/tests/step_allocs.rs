//! Allocation gate for the simulator's run loops.
//!
//! `Device::run_for` and `Cpu::run` record every step into one reused
//! `StepTrace`, so a run allocates a small constant number of times
//! however many instructions it executes: the trace's three vectors and
//! the core's two swap buffers grow to the largest step once, and a
//! completed run copies its output out once. The only allocations that
//! do scale with run time are the program's own: apps append to the
//! peripherals' `sim_output` (debug words) and `uart_output` (UART bytes)
//! vectors as they run, and a `Vec` reaching length `n` by doubling
//! reallocates at most `bits(n) = usize::BITS - n.leading_zeros()` times.
//!
//! Each run is counted at two cycle budgets 10x apart. An allocation per
//! step (the old per-step trace cost ~2–4 per instruction) would blow the
//! bound by orders of magnitude. A count is exact, so this gate cannot
//! flake. This file is its own test binary because it installs a counting
//! global allocator; counts are per thread, so tests running in parallel
//! do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use eilid::{Device, DeviceBuilder};
use eilid_msp430::{Cpu, Memory};
use eilid_workloads::WorkloadId;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator may run while this thread is torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only bumps a thread-local counter, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's pointer and layouts.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's pointer and layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations (including reallocations) made on this thread by `f`.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let result = f();
    (result, ALLOCS.with(Cell::get) - before)
}

/// Allocations a run may make whatever its length: the trace's fetch,
/// read and write vectors and the core's read and write swap buffers,
/// each allowed to grow twice (today each grows once), plus the
/// completed run's copy of its output.
const FIXED_ALLOCS: u64 = 5 * 2 + 1;

fn bits(n: usize) -> u64 {
    u64::from(usize::BITS - n.leading_zeros())
}

/// Runs a clone of `image` for `budget` cycles; returns the allocations
/// the run made and the bound it must meet.
fn device_run(image: &Device, budget: u64) -> (u64, u64) {
    let mut device = image.clone();
    let (outcome, allocs) = allocs_during(|| device.run_for(budget));
    assert!(
        !matches!(outcome, eilid::RunOutcome::Violation { .. }),
        "benign run hit {outcome}"
    );
    let peripherals = &device.cpu().peripherals;
    let growth = bits(peripherals.sim_output().len()) + bits(peripherals.uart_output().len());
    (allocs, FIXED_ALLOCS + growth)
}

#[test]
fn device_runs_allocate_a_constant_amount() {
    let builder = DeviceBuilder::new();
    for app in WorkloadId::ALL {
        let source = app.workload().source;
        let images = [
            builder.build_baseline(&source).expect("baseline builds"),
            builder.build_eilid(&source).expect("EILID builds"),
        ];
        for image in &images {
            // 2M cycles runs every app to completion; 200k stops most
            // of them part-way.
            for budget in [200_000, 2_000_000] {
                let (allocs, bound) = device_run(image, budget);
                assert!(
                    allocs <= bound,
                    "{app} (protected = {}), {budget} cycles: {allocs} allocations > {bound}",
                    image.is_protected()
                );
            }
        }
    }
}

#[test]
fn cpu_run_allocates_a_constant_amount() {
    // loop: push r10 ; pop r11 ; add @r4+, 0(r5) ; mov r11, r12 ; jmp loop
    let program = [
        0x120A, 0x413B, 0x54B5, 0x0000, 0x4B0C, 0x3FFA, // jmp -6 words
    ];
    let mut mem = Memory::new();
    for (i, word) in program.iter().enumerate() {
        mem.write_word(0xF000 + 2 * i as u16, *word);
    }
    mem.write_word(0xFFFE, 0xF000);
    let mut image = Cpu::new(mem);
    image.reset();
    for budget in [10_000, 100_000] {
        let mut cpu = image.clone();
        let (cycles, allocs) = allocs_during(|| cpu.run(budget).expect("program decodes"));
        assert!(cycles >= budget, "the loop never completes");
        assert!(
            allocs <= FIXED_ALLOCS,
            "{budget} cycles: {allocs} allocations"
        );
    }
}
