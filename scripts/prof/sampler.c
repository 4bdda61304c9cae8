/*
 * A sampling profiler in one preloaded object, for hosts without `perf`.
 *
 *   cc -O2 -shared -fPIC -o sampler.so sampler.c
 *   PROF_OUT=samples.txt LD_PRELOAD=./sampler.so ./program args...
 *
 * The constructor arms ITIMER_PROF, which counts the CPU time of every
 * thread of the process and raises SIGPROF in a thread that is running.
 * The handler walks that thread's stack with backtrace() and stores up to
 * DEPTH addresses in a static buffer: no allocation, no I/O, no lock. At
 * exit the buffer is written to $PROF_OUT behind a copy of
 * /proc/self/maps, which is what `prof_report` (crates/bench/src/bin)
 * needs to turn addresses into file offsets for addr2line.
 *
 * Limits worth knowing when reading a report:
 *  - The timer asks for 1 kHz, but ITIMER_PROF fires on the kernel's
 *    scheduler tick: this project's sandbox ticks at 250 Hz, so a 15 s
 *    run on two busy threads yields about 7,500 samples.
 *  - Stacks deeper than DEPTH lose their outermost frames, so inclusive
 *    time of outer functions (main, the sweep driver, a run loop below a
 *    deep protocol call) is under-counted; self time is not affected.
 *  - backtrace() is not formally async-signal-safe. Its first call loads
 *    the unwinder with dlopen, so the constructor makes that call before
 *    the timer starts; afterwards it only reads. A program that dlopens
 *    or unwinds a panic while being profiled can still deadlock.
 *  - Child processes inherit LD_PRELOAD and would overwrite $PROF_OUT:
 *    profile one process.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define DEPTH 24
#define MAX_SAMPLES (1 << 17)
/* Frames of the handler and the signal trampoline above the interrupted pc. */
#define MAX_SKIP 6

static void *frames[MAX_SAMPLES][DEPTH];
static unsigned char depth[MAX_SAMPLES];
static unsigned next_slot;
static unsigned dropped;

static void *interrupted_pc(void *context) {
    ucontext_t *uc = context;
#if defined(__x86_64__)
    return (void *)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    return (void *)uc->uc_mcontext.pc;
#else
    (void)uc;
    return NULL;
#endif
}

static void on_sigprof(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    int saved_errno = errno;
    unsigned slot = __atomic_fetch_add(&next_slot, 1, __ATOMIC_RELAXED);
    if (slot >= MAX_SAMPLES) {
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
        errno = saved_errno;
        return;
    }
    void *stack[DEPTH + MAX_SKIP];
    int n = backtrace(stack, DEPTH + MAX_SKIP);
    /* The sample starts at the interrupted instruction; where the context
     * does not say which entry that is, assume handler + trampoline. */
    void *pc = interrupted_pc(context);
    int start = n < 2 ? n : 2;
    for (int i = 0; i < n && i < MAX_SKIP; i++) {
        if (stack[i] == pc) {
            start = i;
            break;
        }
    }
    int kept = n - start < DEPTH ? n - start : DEPTH;
    memcpy(frames[slot], stack + start, kept * sizeof(void *));
    /* Published last: the dump skips slots a handler has not finished. */
    __atomic_store_n(&depth[slot], (unsigned char)kept, __ATOMIC_RELEASE);
    errno = saved_errno;
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("PROF_OUT");
    FILE *out = fopen(path ? path : "prof_samples.txt", "w");
    if (!out) {
        perror("sampler: cannot write the samples file");
        return;
    }
    fprintf(out, "# maps\n");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[4096];
        while (fgets(line, sizeof line, maps))
            fputs(line, out);
        fclose(maps);
    }
    unsigned taken = __atomic_load_n(&next_slot, __ATOMIC_RELAXED);
    if (taken > MAX_SAMPLES)
        taken = MAX_SAMPLES;
    fprintf(out, "# samples %u dropped %u depth %d\n", taken,
            __atomic_load_n(&dropped, __ATOMIC_RELAXED), DEPTH);
    for (unsigned s = 0; s < taken; s++) {
        int kept = __atomic_load_n(&depth[s], __ATOMIC_ACQUIRE);
        for (int f = 0; f < kept; f++)
            fprintf(out, f ? " %p" : "%p", frames[s][f]);
        fputc('\n', out);
    }
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    void *warm[4];
    backtrace(warm, 4);
    atexit(dump);

    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);

    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}
