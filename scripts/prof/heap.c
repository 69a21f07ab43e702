/* Live-heap profiler for scripts/heap_wallbench.sh: preload it into any
 * dynamically linked program. It interposes malloc, calloc, realloc, free,
 * posix_memalign (and aligned_alloc and memalign, which glibc does not
 * route through posix_memalign), forwards each to glibc's own allocator and
 * keeps the live bytes and blocks per power-of-two size class, class k
 * holding the blocks of [2^k, 2^(k+1)) usable bytes. A block is counted at
 * its usable size (malloc_usable_size: the request rounded up to glibc's
 * chunk, e.g. 4 104 B for a 4 096 B page), the same at its allocation and
 * at its free. Whenever the live total reaches a new peak the classes are
 * copied aside, and at exit the peak live heap and that copy are printed
 * to stderr, one line per class that held anything, largest first. The
 * peak is the program's whole-run high-water mark of live heap bytes; it
 * leaves out what glibc keeps beyond the usable size, freed memory it has
 * not returned, and every mapping that is not a heap block, which is what
 * separates it from the kernel's VmHWM. */
#define _GNU_SOURCE
#include <errno.h>
#include <malloc.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void __libc_free(void *);
extern void *__libc_memalign(size_t, size_t);

#define CLASSES 64

struct classes {
    int64_t bytes[CLASSES];
    int64_t blocks[CLASSES];
    int64_t total;
};

static struct classes live, peak;
static uint64_t allocations;
static volatile char lock;

static int class_of(size_t size) {
    return size ? 63 - __builtin_clzll((unsigned long long)size) : 0;
}

static void take(void) {
    while (__atomic_test_and_set(&lock, __ATOMIC_ACQUIRE))
        ;
}

static void give(void) { __atomic_clear(&lock, __ATOMIC_RELEASE); }

/* Count the block `p` in (`sign` 1) or out (-1) of the live heap. */
static void account(void *p, int sign) {
    if (!p) return;
    size_t size = malloc_usable_size(p);
    int k = class_of(size);
    take();
    live.bytes[k] += sign * (int64_t)size;
    live.blocks[k] += sign;
    live.total += sign * (int64_t)size;
    if (sign > 0) {
        allocations++;
        if (live.total > peak.total) peak = live;
    }
    give();
}

void *malloc(size_t n) {
    void *p = __libc_malloc(n);
    account(p, 1);
    return p;
}

void *calloc(size_t n, size_t size) {
    void *p = __libc_calloc(n, size);
    account(p, 1);
    return p;
}

void *realloc(void *old, size_t n) {
    /* Count the old block out first: once realloc returns it may be gone. */
    account(old, -1);
    void *p = __libc_realloc(old, n);
    if (p)
        account(p, 1);
    else if (old && n)
        account(old, 1); /* failed: the old block is still live */
    return p;
}

void free(void *p) {
    account(p, -1);
    __libc_free(p);
}

int posix_memalign(void **out, size_t align, size_t n) {
    if (align < sizeof(void *) || (align & (align - 1))) return EINVAL;
    void *p = __libc_memalign(align, n);
    if (!p) return ENOMEM;
    account(p, 1);
    *out = p;
    return 0;
}

void *aligned_alloc(size_t align, size_t n) {
    void *p = __libc_memalign(align, n);
    account(p, 1);
    return p;
}

void *memalign(size_t align, size_t n) {
    void *p = __libc_memalign(align, n);
    account(p, 1);
    return p;
}

static void human(char *out, size_t len, int64_t bytes) {
    if (bytes >= 1 << 20)
        snprintf(out, len, "%.2f MiB", bytes / 1048576.0);
    else
        snprintf(out, len, "%.1f KiB", bytes / 1024.0);
}

__attribute__((destructor)) static void report(void) {
    take();
    struct classes at = peak;
    uint64_t n = allocations;
    give();
    char total[32], range[64], size[32];
    int64_t blocks = 0;
    for (int k = 0; k < CLASSES; k++) blocks += at.blocks[k];
    human(total, sizeof total, at.total);
    fprintf(stderr, "heap: peak live %s (%lld B) in %lld blocks; %llu allocations in all\n",
            total, (long long)at.total, (long long)blocks, (unsigned long long)n);
    fprintf(stderr, "heap: %-22s %10s %14s %7s\n", "class (usable bytes)", "blocks", "bytes",
            "share");
    for (int k = CLASSES - 1; k >= 0; k--) {
        if (!at.blocks[k]) continue;
        char lo[16], hi[16];
        human(lo, sizeof lo, (int64_t)1 << k);
        human(hi, sizeof hi, (int64_t)1 << (k + 1));
        if (k < 10) {
            snprintf(lo, sizeof lo, "%lld B", 1LL << k);
            snprintf(hi, sizeof hi, "%lld B", 2LL << k);
        }
        snprintf(range, sizeof range, "[%s, %s)", lo, hi);
        human(size, sizeof size, at.bytes[k]);
        fprintf(stderr, "heap: %-22s %10lld %14s %6.1f%%\n", range, (long long)at.blocks[k], size,
                100.0 * at.bytes[k] / (at.total ? at.total : 1));
    }
}
