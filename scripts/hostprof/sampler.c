/*
 * A CPU-time stack sampler that needs no performance counters, loaded
 * into the profiled process with LD_PRELOAD (see scripts/hostprof.sh).
 *
 * A POSIX timer on CLOCK_PROCESS_CPUTIME_ID raises SIGPROF every
 * PERIOD_US microseconds of the process's CPU time (the kernel checks CPU
 * timers at its tick, so the real rate is at most the tick rate). The handler records the interrupted pc and walks the
 * frame-pointer chain above it. Green-thread stacks live in heap mappings,
 * not in a stack the kernel knows, so a frame is followed only while it
 * lies above the interrupted sp, below sp + MAX_SPAN and above the frame
 * before it; a read that faults anyway (a frame pointer that was really a
 * general register in code built without frame pointers) ends the walk
 * through a SIGSEGV guard instead of ending the process.
 *
 * At exit the samples go to HOSTPROF_OUT.<pid> (a process it starts
 * writes a file of its own): a "dropped N cpu_ns T" line (T the process's
 * CPU time at exit), one line per sample, innermost pc first, in hex;
 * then a "maps" line and a copy of /proc/self/maps, which the script
 * needs to symbolise the pcs.
 *
 * x86-64 Linux only. Build: gcc -O2 -shared -fPIC -o sampler.so sampler.c
 */
#define _GNU_SOURCE
#include <errno.h>
#include <setjmp.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define PERIOD_US 1000
#define MAX_DEPTH 128
#define MAX_SPAN (8u << 20)
/* Sample buffer in words: a sample is its depth followed by its pcs. */
#define BUF_WORDS (16u << 20)

static uintptr_t *buf;
static unsigned long used; /* words reserved, updated atomically */
static unsigned long dropped;
static timer_t timer;
static int armed;
static struct sigaction prev_segv, prev_bus;

/* Initial-exec TLS: no allocation on first use inside a signal handler. */
#define TLS __thread __attribute__((tls_model("initial-exec")))
static TLS sigjmp_buf walk_jmp;
static TLS volatile sig_atomic_t walking;

static void on_fault(int sig, siginfo_t *si, void *uc)
{
    if (walking) {
        walking = 0;
        siglongjmp(walk_jmp, 1);
    }
    /* Not ours: fall back to whatever was installed before us. */
    struct sigaction *prev = sig == SIGSEGV ? &prev_segv : &prev_bus;
    if (prev->sa_flags & SA_SIGINFO) {
        prev->sa_sigaction(sig, si, uc);
    } else if (prev->sa_handler != SIG_IGN && prev->sa_handler != SIG_DFL) {
        prev->sa_handler(sig);
    } else {
        signal(sig, SIG_DFL);
        raise(sig);
    }
}

static void on_prof(int sig, siginfo_t *si, void *ucv)
{
    (void)sig;
    (void)si;
    int saved_errno = errno;
    ucontext_t *uc = ucv;
    uintptr_t pcs[MAX_DEPTH];
    volatile int n = 0;
    uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
    pcs[n++] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    if (sigsetjmp(walk_jmp, 0) == 0) {
        walking = 1;
        uintptr_t lo = sp;
        while (n < MAX_DEPTH && fp >= lo && fp - sp < MAX_SPAN && (fp & 7) == 0) {
            uintptr_t next = ((uintptr_t *)fp)[0];
            uintptr_t ret = ((uintptr_t *)fp)[1];
            if (ret == 0)
                break;
            pcs[n++] = ret;
            lo = fp + 16;
            fp = next;
        }
    }
    walking = 0;
    unsigned long at = __atomic_fetch_add(&used, (unsigned long)n + 1, __ATOMIC_RELAXED);
    if (at + n + 1 <= BUF_WORDS) {
        buf[at] = (uintptr_t)n;
        memcpy(&buf[at + 1], pcs, sizeof(uintptr_t) * n);
    } else {
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
    }
    errno = saved_errno;
}

__attribute__((constructor)) static void hostprof_start(void)
{
    const char *out = getenv("HOSTPROF_OUT");
    if (!out || !*out)
        return;
    buf = mmap(NULL, BUF_WORDS * sizeof(uintptr_t), PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (buf == MAP_FAILED) {
        perror("hostprof: sample buffer");
        return;
    }
    /* Our own SIGSEGV/SIGBUS guard is installed first, so a runtime that
     * installs its handler only over SIG_DFL (Rust's stack-overflow
     * reporter) leaves it alone; faults outside a walk go to the previous
     * disposition. */
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_SIGINFO | SA_NODEFER | SA_ONSTACK;
    sa.sa_sigaction = on_fault;
    sigaction(SIGSEGV, &sa, &prev_segv);
    sigaction(SIGBUS, &sa, &prev_bus);

    memset(&sa, 0, sizeof sa);
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sa.sa_sigaction = on_prof;
    sigaction(SIGPROF, &sa, NULL);

    struct sigevent sev;
    memset(&sev, 0, sizeof sev);
    sev.sigev_notify = SIGEV_SIGNAL;
    sev.sigev_signo = SIGPROF;
    if (timer_create(CLOCK_PROCESS_CPUTIME_ID, &sev, &timer) != 0) {
        perror("hostprof: timer_create");
        return;
    }
    struct itimerspec its;
    its.it_interval.tv_sec = 0;
    its.it_interval.tv_nsec = PERIOD_US * 1000L;
    its.it_value = its.it_interval;
    if (timer_settime(timer, 0, &its, NULL) != 0) {
        perror("hostprof: timer_settime");
        return;
    }
    armed = 1;
}

__attribute__((destructor)) static void hostprof_stop(void)
{
    if (!armed)
        return;
    armed = 0;
    timer_delete(timer);
    signal(SIGPROF, SIG_IGN);
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", getenv("HOSTPROF_OUT"), (int)getpid());
    FILE *f = fopen(path, "w");
    if (!f) {
        perror("hostprof: output");
        return;
    }
    unsigned long end = __atomic_load_n(&used, __ATOMIC_RELAXED);
    if (end > BUF_WORDS)
        end = BUF_WORDS;
    struct timespec cpu;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
    fprintf(f, "dropped %lu cpu_ns %lld\n", __atomic_load_n(&dropped, __ATOMIC_RELAXED),
            (long long)cpu.tv_sec * 1000000000LL + cpu.tv_nsec);
    for (unsigned long at = 0; at < end;) {
        unsigned long n = buf[at];
        if (n == 0 || at + 1 + n > end)
            break; /* a sample still being written when the timer stopped */
        for (unsigned long i = 0; i < n; i++)
            fprintf(f, i ? " %lx" : "%lx", (unsigned long)buf[at + 1 + i]);
        fputc('\n', f);
        at += 1 + n;
    }
    fputs("maps\n", f);
    FILE *m = fopen("/proc/self/maps", "r");
    if (m) {
        char line[4096];
        while (fgets(line, sizeof line, m))
            fputs(line, f);
        fclose(m);
    }
    fclose(f);
}
