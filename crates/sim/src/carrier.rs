//! User-level context switching: the engine's one execution carrier.
//!
//! Every simulated thread is a *green thread*: a heap-allocated stack plus
//! a saved stack pointer, all carried by the one OS thread that called
//! [`crate::Engine::run`]. A hand-off is [`raw_switch`] — save six
//! callee-saved registers and the FPU control words, swap `rsp`, restore —
//! nanoseconds where an OS-thread hand-off over a futex costs microseconds
//! of kernel scheduling, and the SPLASH kernels hand off thousands of
//! times per run (see `DESIGN.md` §5.3).
//!
//! Safety model: the whole simulation executes on a single carrier OS
//! thread, so green-thread state (saved stack pointers, fabricated frames)
//! is never touched concurrently. The switch itself follows the SysV
//! x86-64 ABI: everything not saved here is caller-saved and already
//! spilled by the compiler around the `raw_switch` call site.

use std::arch::naked_asm;

/// Size of each green stack in bytes. The mapping is only reserved, so
/// untouched pages cost no RSS; a generous reservation is the guard
/// against silent overflow, since green stacks have no kernel guard page.
/// The canary at the stack base (checked at every park in debug builds)
/// backstops this.
pub(crate) const GREEN_STACK_SIZE: usize = 8 << 20;

// A stack is a private anonymous mapping of its own, not a `malloc` block:
// glibc raises its mmap threshold past the first 8 MB block it frees, after
// which "reserved" stacks are carved from the brk heap, a freed one gives
// nothing back to the OS, and the 8 MB holes they leave decide where every
// later large allocation lands (the `lu_sync` peak-RSS mode flip of PRs
// 14-16). std links libc; the constants are Linux's.
extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}
const PROT_READ_WRITE: i32 = 0x1 | 0x2;
const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;

/// Written at the lowest word of every green stack; if a deep frame ever
/// reaches it, a debug build reports the overwrite instead of letting the
/// simulation corrupt the adjacent heap silently.
pub(crate) const STACK_CANARY: u64 = 0xC0DE_CAB1_E5CA_FE55;

/// Entry payload for a green thread: the closure run by the trampoline.
/// It must never return — the closure ends by switching away forever.
pub(crate) struct Payload {
    pub run: Box<dyn FnOnce() + Send>,
}

/// A green thread: its reserved stack and, while parked, its saved `rsp`.
pub(crate) struct GreenCtx {
    /// Saved stack pointer while the thread is parked (fabricated frame
    /// before first dispatch). Only meaningful while parked.
    pub rsp: *mut u8,
    /// Base of the stack's mapping (unmapped on drop), where the canary
    /// word sits.
    stack: *mut u8,
    /// Whether the thread has been dispatched at least once.
    pub started: bool,
    /// The entry payload, reclaimed on drop if the thread never started.
    payload: Option<*mut Payload>,
}

// SAFETY: a GreenCtx lives in the kernel's `Local` and is only ever created,
// dereferenced and dropped by the single carrier OS thread of the run; it
// never crosses threads. The impl exists so `Local<Kernel>` is `Sync` and
// `Engine` keeps the `Send + Sync` its public `Arc`s need.
unsafe impl Send for GreenCtx {}

impl GreenCtx {
    /// Builds a parked green thread whose first dispatch enters the
    /// trampoline with `payload`.
    pub fn new(payload: Box<Payload>) -> GreenCtx {
        // SAFETY: a fresh anonymous mapping aliases nothing.
        let (len, prot, flags) = (GREEN_STACK_SIZE, PROT_READ_WRITE, MAP_PRIVATE_ANONYMOUS);
        let base = unsafe { mmap(std::ptr::null_mut(), len, prot, flags, -1, 0) };
        assert!(base as isize != -1, "cannot map a green-thread stack");
        let p = Box::into_raw(payload);
        // 16-align the top; the fabricated frame below mirrors exactly what
        // `raw_switch` restores: FPU words, r15..r12, rbx, rbp, then a
        // "return address" slot holding the trampoline. The slot offset is
        // chosen so the trampoline starts with `rsp % 16 == 0`, making its
        // `call` leave the SysV-required `rsp % 16 == 8` at entry.
        let rsp;
        unsafe {
            let top = base.add(GREEN_STACK_SIZE);
            let top = ((top as usize) & !15) as *mut u8;
            let w = |off: isize, v: u64| (top.offset(off) as *mut u64).write(v);
            w(-8, 0); // backtrace terminator / padding
            w(-16, 0);
            w(-24, green_tramp as *const () as usize as u64); // popped by `ret`
            w(-32, 0); // rbp
            w(-40, 0); // rbx
            w(-48, p as u64); // r12 carries the payload to the trampoline
            w(-56, 0); // r13
            w(-64, 0); // r14
            w(-72, 0); // r15
            (top.offset(-80) as *mut u32).write(0x1F80); // MXCSR default
            (top.offset(-76) as *mut u16).write(0x037F); // x87 CW default
            rsp = top.offset(-80);
            (base as *mut u64).write(STACK_CANARY);
        }
        GreenCtx {
            rsp,
            stack: base,
            started: false,
            payload: Some(p),
        }
    }

    /// Whether the canary word at the stack base is intact.
    pub fn canary_ok(&self) -> bool {
        // SAFETY: the mapping lives until `self` drops.
        unsafe { (self.stack as *const u64).read() == STACK_CANARY }
    }

    /// Marks the context dispatched and returns the entry/resume `rsp`.
    pub fn take_rsp(&mut self) -> *mut u8 {
        self.started = true;
        self.rsp
    }
}

impl Drop for GreenCtx {
    fn drop(&mut self) {
        if !self.started {
            if let Some(p) = self.payload.take() {
                drop(unsafe { Box::from_raw(p) });
            }
        }
        // SAFETY: the engine drops a context only once its thread has
        // switched away for good (or never ran), so nothing executes on
        // or points into the mapping. A failure leaks it; `Drop` must not
        // panic.
        unsafe { munmap(self.stack, GREEN_STACK_SIZE) };
    }
}

/// Saves the current execution context into `*save` and resumes the one
/// whose saved stack pointer is `load`.
///
/// # Safety
///
/// `save` must point to writable storage that outlives the switch; `load`
/// must be a stack pointer produced by this function or [`GreenCtx::new`],
/// whose stack is live and not currently executing. Must only be used by
/// the engine's single-carrier scheduling paths.
#[unsafe(naked)]
pub(crate) unsafe extern "C" fn raw_switch(save: *mut *mut u8, load: *mut u8) {
    naked_asm!(
        // Callee-saved GPRs + FPU control state; everything else is
        // caller-saved under SysV and already spilled by the compiler.
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// First frame of every green thread: fetches the payload parked in `r12`
/// by the fabricated frame and enters [`green_entry`]. Never returns.
#[unsafe(naked)]
unsafe extern "C" fn green_tramp() {
    naked_asm!(
        "mov rdi, r12",
        "call {entry}",
        "ud2",
        entry = sym green_entry,
    )
}

unsafe extern "C" fn green_entry(p: *mut Payload) -> ! {
    let payload = unsafe { Box::from_raw(p) };
    (payload.run)();
    unreachable!("green thread body returned without switching away");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::arch::asm;
    use std::cell::Cell;

    thread_local! {
        /// Points at the test frame's save slot; `raw_switch` fills the
        /// slot before the green side runs, so the closure can switch back
        /// through it.
        static SAVE_SLOT: Cell<*mut *mut u8> = const { Cell::new(std::ptr::null_mut()) };
        static LOG: Cell<u32> = const { Cell::new(0) };
    }

    #[test]
    fn switch_runs_closure_and_returns() {
        LOG.with(|l| l.set(0));
        let mut ctx = GreenCtx::new(Box::new(Payload {
            run: Box::new(|| {
                LOG.with(|l| l.set(l.get() + 1));
                // Switch back to the test frame; this closure never resumes.
                let main = unsafe { SAVE_SLOT.with(|s| s.get()).read() };
                let mut dead: *mut u8 = std::ptr::null_mut();
                unsafe { raw_switch(&mut dead, main) };
                unreachable!();
            }),
        }));
        let mut here: *mut u8 = std::ptr::null_mut();
        SAVE_SLOT.with(|s| s.set(&mut here as *mut *mut u8));
        let entry = ctx.take_rsp();
        unsafe { raw_switch(&mut here, entry) };
        assert_eq!(LOG.with(|l| l.get()), 1);
        assert!(ctx.canary_ok());
    }

    /// What an OS-thread hand-off preserved for free: the resumed side
    /// finds its callee-saved registers and its SSE rounding mode as it
    /// left them, whatever the other side did in between.
    #[test]
    fn switch_preserves_callee_saved_registers_and_mxcsr() {
        let mut ctx = GreenCtx::new(Box::new(Payload {
            run: Box::new(|| {
                let mut csr = 0u32;
                unsafe { asm!("stmxcsr [{}]", in(reg) &mut csr, options(nostack)) };
                assert_eq!(csr & 0xFFC0, 0x1F80, "not the default MXCSR");
                let main = unsafe { SAVE_SLOT.with(|s| s.get()).read() };
                let mut dead: *mut u8 = std::ptr::null_mut();
                // Trash the registers under test, then leave for good.
                unsafe {
                    asm!(
                        "mov r12, 0x0bad", "mov r13, 0x0bad", "mov r14, 0x0bad", "mov r15, 0x0bad",
                        "call {sw}",
                        sw = sym raw_switch,
                        in("rdi") &mut dead, in("rsi") main,
                        options(noreturn),
                    )
                }
            }),
        }));
        let mut here: *mut u8 = std::ptr::null_mut();
        SAVE_SLOT.with(|s| s.set(&mut here as *mut *mut u8));
        let entry = ctx.take_rsp();
        let (toward_zero, mut csr) = (0x7F80u32, 0u32);
        let (mut a, mut b, mut c, mut d) = (0x1111u64, 0x2222u64, 0x3333u64, 0x4444u64);
        unsafe {
            asm!(
                "ldmxcsr [{set}]",
                "call {sw}",
                sw = sym raw_switch,
                set = in(reg) &toward_zero,
                in("rdi") &mut here, in("rsi") entry,
                inout("r12") a, inout("r13") b, inout("r14") c, inout("r15") d,
                clobber_abi("sysv64"),
            );
            asm!("stmxcsr [{}]", "ldmxcsr [{}]", in(reg) &mut csr, in(reg) &0x1F80u32, options(nostack));
        }
        assert_eq!((a, b, c, d), (0x1111, 0x2222, 0x3333, 0x4444));
        assert_eq!(csr & 0xFFC0, toward_zero, "rounding mode lost");
    }

    #[test]
    fn unstarted_ctx_reclaims_payload() {
        let ctx = GreenCtx::new(Box::new(Payload {
            run: Box::new(|| {}),
        }));
        assert!(!ctx.started);
        drop(ctx); // must not leak (checked under sanitizers/valgrind)
    }
}
