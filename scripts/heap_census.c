/*
 * heap_census.c: an LD_PRELOAD shim that keeps the live heap by block
 * size and dumps it when the process opens /proc/self/status for the
 * N-th time. bench_e2e reads that file at the start and at the end of its
 * measurement window, so N = 2 is the heap at window end.
 *
 * Built and run by scripts/heap_census.sh. Environment:
 *   HEAP_CENSUS_AT   which read of /proc/self/status dumps (default 2)
 *   HEAP_CENSUS_OUT  file the dump goes to (default: standard error)
 *
 * The dump is one line per usable block size: "size count". It wraps
 * malloc, calloc, realloc, free and the aligned allocators over glibc's
 * own entry points (so it needs no symbol lookup before it can
 * allocate), and the open family, as raw openat system calls, to see the
 * reads. A block counts at its usable size, as malloc_usable_size reports
 * it: what it costs the allocator, less the 8-byte chunk header.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <malloc.h>
#include <stdarg.h>
#include <stdatomic.h>
#include <stddef.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/syscall.h>
#include <unistd.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

/* Open-addressed (size -> live count) table; size 0 marks a free slot. */
#define SLOTS (1u << 16)
static size_t sizes[SLOTS];
static long counts[SLOTS];
static atomic_flag lock = ATOMIC_FLAG_INIT;
static int status_reads;

static void take(void) {
    while (atomic_flag_test_and_set_explicit(&lock, memory_order_acquire)) {
    }
}

static void give(void) { atomic_flag_clear_explicit(&lock, memory_order_release); }

static void count(void *p, long delta) {
    if (p == NULL) {
        return;
    }
    size_t size = malloc_usable_size(p);
    unsigned i = (unsigned)((size * 0x9E3779B97F4A7C15ull) >> 48) & (SLOTS - 1);
    take();
    while (sizes[i] != 0 && sizes[i] != size) {
        i = (i + 1) & (SLOTS - 1);
    }
    sizes[i] = size;
    counts[i] += delta;
    give();
}

void *malloc(size_t n) {
    void *p = __libc_malloc(n);
    count(p, 1);
    return p;
}

void *calloc(size_t k, size_t n) {
    void *p = __libc_calloc(k, n);
    count(p, 1);
    return p;
}

void free(void *p) {
    count(p, -1);
    __libc_free(p);
}

void *realloc(void *old, size_t n) {
    count(old, -1);
    void *p = __libc_realloc(old, n);
    if (p != NULL) {
        count(p, 1);
    } else if (n != 0) {
        count(old, 1); /* failed: the old block stays */
    }
    return p;
}

void *memalign(size_t align, size_t n) {
    void *p = __libc_memalign(align, n);
    count(p, 1);
    return p;
}

void *aligned_alloc(size_t align, size_t n) { return memalign(align, n); }

int posix_memalign(void **out, size_t align, size_t n) {
    void *p = memalign(align, n);
    if (p == NULL) {
        return ENOMEM;
    }
    *out = p;
    return 0;
}

/* Writes the table as "size count" lines (live blocks only). */
static void dump(void) {
    const char *path = getenv("HEAP_CENSUS_OUT");
    int flags = O_WRONLY | O_CREAT | O_TRUNC;
    int fd = path != NULL ? (int)syscall(SYS_openat, AT_FDCWD, path, flags, 0644) : 2;
    if (fd < 0) {
        return;
    }
    char line[64];
    take();
    for (unsigned i = 0; i < SLOTS; i++) {
        if (sizes[i] != 0 && counts[i] > 0) {
            int len = snprintf(line, sizeof line, "%zu %ld\n", sizes[i], counts[i]);
            if (write(fd, line, (size_t)len) < 0) {
                break;
            }
        }
    }
    give();
    if (fd != 2) {
        close(fd);
    }
}

static void saw_open(const char *path) {
    if (path == NULL || strcmp(path, "/proc/self/status") != 0) {
        return;
    }
    const char *at = getenv("HEAP_CENSUS_AT");
    if (++status_reads == (at != NULL ? atoi(at) : 2)) {
        dump();
    }
}

/* The open family: note the read, then the real call. */
#define MODE(flags)                                                                                \
    mode_t mode = 0;                                                                               \
    if ((flags) & (O_CREAT | O_TMPFILE)) {                                                         \
        va_list ap;                                                                                \
        va_start(ap, flags);                                                                       \
        mode = va_arg(ap, mode_t);                                                                 \
        va_end(ap);                                                                                \
    }

int open(const char *path, int flags, ...) {
    MODE(flags);
    saw_open(path);
    return (int)syscall(SYS_openat, AT_FDCWD, path, flags, mode);
}

int open64(const char *path, int flags, ...) {
    MODE(flags);
    saw_open(path);
    return (int)syscall(SYS_openat, AT_FDCWD, path, flags, mode);
}

int openat(int dir, const char *path, int flags, ...) {
    MODE(flags);
    saw_open(path);
    return (int)syscall(SYS_openat, dir, path, flags, mode);
}

int openat64(int dir, const char *path, int flags, ...) {
    MODE(flags);
    saw_open(path);
    return (int)syscall(SYS_openat, dir, path, flags, mode);
}
