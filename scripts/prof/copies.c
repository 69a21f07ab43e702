/* Copy profiler for scripts/copies_wallbench.sh: preload it into any
 * dynamically linked program. It interposes memcpy and memmove, copies
 * with `rep movsb` itself (so it never calls back into the functions it
 * replaces), and counts every call and its bytes per power-of-two size
 * class, class k holding the copies of [2^k, 2^(k+1)) bytes. A copy of a
 * page's size class ([4 KiB, 8 KiB)) is also counted by call site, the
 * return address. At exit it writes, to $COPIES_OUT (stderr when unset),
 * one "K class calls bytes" line per class that saw a call, one
 * "C return-address calls" line per page-sized call site, and
 * /proc/self/maps as "M" lines for symbolising the sites. Copies libc
 * makes inside itself do not go through the interposed symbols and are not
 * counted; neither are the copies a compiler inlined. x86-64 only. */
#define _GNU_SOURCE
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

#define CLASSES 64
#define SITES 4096 /* open addressing; a site past a full table is dropped */
#define PAGE_CLASS 12

static uint64_t calls[CLASSES], bytes[CLASSES];
static uintptr_t site_pc[SITES];
static uint64_t site_calls[SITES];

static int class_of(size_t n) { return n ? 63 - __builtin_clzll((unsigned long long)n) : 0; }

static void count(size_t n, void *ret) {
    int k = class_of(n);
    __atomic_fetch_add(&calls[k], 1, __ATOMIC_RELAXED);
    __atomic_fetch_add(&bytes[k], n, __ATOMIC_RELAXED);
    if (k != PAGE_CLASS) return;
    uintptr_t pc = (uintptr_t)ret;
    for (size_t i = (pc >> 4) % SITES, tries = 0; tries < SITES; i = (i + 1) % SITES, tries++) {
        uintptr_t seen = __atomic_load_n(&site_pc[i], __ATOMIC_ACQUIRE);
        if (seen == 0 && __atomic_compare_exchange_n(&site_pc[i], &seen, pc, 0, __ATOMIC_ACQ_REL,
                                                     __ATOMIC_ACQUIRE))
            seen = pc;
        if (seen == pc) {
            __atomic_fetch_add(&site_calls[i], 1, __ATOMIC_RELAXED);
            return;
        }
    }
}

static void forward(void *dst, const void *src, size_t n) {
    __asm__ volatile("rep movsb" : "+D"(dst), "+S"(src), "+c"(n) : : "memory");
}

static void backward(void *dst, const void *src, size_t n) {
    char *d = (char *)dst + n - 1;
    const char *s = (const char *)src + n - 1;
    __asm__ volatile("std\n\trep movsb\n\tcld" : "+D"(d), "+S"(s), "+c"(n) : : "memory");
}

void *memcpy(void *dst, const void *src, size_t n) {
    count(n, __builtin_return_address(0));
    forward(dst, src, n);
    return dst;
}

void *memmove(void *dst, const void *src, size_t n) {
    count(n, __builtin_return_address(0));
    if ((uintptr_t)dst - (uintptr_t)src >= n)
        forward(dst, src, n);
    else if (n)
        backward(dst, src, n);
    return dst;
}

__attribute__((destructor)) static void dump(void) {
    const char *path = getenv("COPIES_OUT");
    FILE *out = path ? fopen(path, "w") : stderr;
    if (!out) return;
    for (int k = 0; k < CLASSES; k++)
        if (calls[k]) fprintf(out, "K %d %llu %llu\n", k, (unsigned long long)calls[k],
                              (unsigned long long)bytes[k]);
    for (size_t i = 0; i < SITES; i++)
        if (site_pc[i]) fprintf(out, "C %lx %llu\n", (unsigned long)site_pc[i],
                                (unsigned long long)site_calls[i]);
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[1024];
    while (maps && fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
    if (maps) fclose(maps);
    if (out != stderr) fclose(out);
}
