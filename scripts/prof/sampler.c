/* Sampling profiler for scripts/profile_wallbench.sh: preload it into a
 * binary built with frame pointers. SIGPROF fires on ITIMER_PROF (CPU time,
 * 1 kHz asked, the kernel tick granted); the handler records the interrupted
 * RIP, the word at RSP (the return address, if the interrupted function is a
 * leaf that pushed nothing — libc's memcpy and memset are) and the
 * frame-pointer chain of the main thread; at exit the samples are written to
 * $PROF_OUT, one "S rip word ret ret ..." line each (word 0: RSP was not on
 * the main stack), followed by /proc/self/maps. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_WORDS (4u << 20) /* 32 MiB of BSS, touched only as it fills */
#define MAX_DEPTH 48

static uintptr_t words[MAX_WORDS]; /* per sample: count, then that many PCs */
static volatile size_t used;
static uintptr_t stack_lo, stack_hi; /* the main thread's [stack] mapping */

static void on_prof(int sig, siginfo_t *info, void *uctx) {
    (void)sig, (void)info;
    const greg_t *regs = ((ucontext_t *)uctx)->uc_mcontext.gregs;
    uintptr_t fp = (uintptr_t)regs[REG_RBP], sp = (uintptr_t)regs[REG_RSP];
    if (used + 1 + MAX_DEPTH > MAX_WORDS) return;
    uintptr_t *sample = &words[used];
    size_t n = 0;
    sample[++n] = (uintptr_t)regs[REG_RIP];
    int on_main_stack = sp >= stack_lo && sp < stack_hi;
    sample[++n] = on_main_stack && sp + 8 <= stack_hi ? *(const uintptr_t *)sp : 0;
    /* Follow saved frame pointers only while they climb inside the mapped
     * stack: code without frame pointers (the prebuilt std, libc) may hold
     * anything in RBP, and this must never fault. */
    while (on_main_stack && n < MAX_DEPTH && fp > sp && fp + 16 <= stack_hi && fp % 8 == 0) {
        const uintptr_t *frame = (const uintptr_t *)fp;
        if (frame[1] < 4096) break;
        sample[++n] = frame[1];
        sp = fp;
        fp = frame[0];
    }
    sample[0] = n;
    used += 1 + n;
}

static void copy_maps(FILE *out, int find_stack) {
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[1024];
    while (maps && fgets(line, sizeof line, maps)) {
        unsigned long lo, hi;
        if (find_stack) {
            if (strstr(line, "[stack]") && sscanf(line, "%lx-%lx", &lo, &hi) == 2)
                stack_lo = lo, stack_hi = hi;
        } else {
            fprintf(out, "M %s", line);
        }
    }
    if (maps) fclose(maps);
}

__attribute__((constructor)) static void start(void) {
    copy_maps(NULL, 1);
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval tick = {{0, 1009}, {0, 1009}}; /* prime: no beat with 1 ms timers */
    setitimer(ITIMER_PROF, &tick, NULL);
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("PROF_OUT");
    FILE *out = path ? fopen(path, "w") : NULL;
    if (!out) return;
    for (size_t i = 0; i < used; i += 1 + words[i]) {
        fputs("S", out);
        for (size_t k = 1; k <= words[i]; k++) fprintf(out, " %lx", (unsigned long)words[i + k]);
        fputs("\n", out);
    }
    copy_maps(out, 0);
    fclose(out);
}
