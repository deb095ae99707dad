
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>
#include <time.h>

/* One clone per listed target, picked by glibc's loader (an ifunc
   resolver) when the library is loaded. The target names are x86's; on
   other machines or C libraries, or with a compiler without the attribute,
   only the baseline loops are built. AVX2_CPU is true in the AVX2 and
   AVX-512F clones, as the loader picks the baseline clone only on a CPU
   without AVX2, and false wherever there are no clones. */
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GLIBC__)
#if defined(__has_attribute)
#if __has_attribute(target_clones)
#define KERNEL __attribute__((target_clones("avx512f", "avx2", "default")))
#define AVX2_CPU __builtin_cpu_supports("avx2")
#endif
#endif
#endif
#ifndef KERNEL
#define KERNEL
#define AVX2_CPU 0
#endif
/* A helper of a KERNEL loop: inlined into each clone, so that it is
   compiled for that clone's target and not only the baseline. */
#define HELPER static inline __attribute__((always_inline))

/* Four doubles, for the narrow tile and the host stage's block: GCC and
   Clang run each operation on it lane by lane, with the rounding of the
   scalar operation, as one AVX instruction. Without AVX, GCC keeps such a
   vector in memory, so only AVX2_CPU code uses it. */
typedef double v4d __attribute__((vector_size(32)));
typedef long long v4i __attribute__((vector_size(32)));

/* rows [i0, i1) of out, one row at a time */
HELPER void kseq_rows(ptrdiff_t i0, ptrdiff_t i1, ptrdiff_t k, ptrdiff_t n,
                      const double *a, ptrdiff_t a_row, ptrdiff_t a_col,
                      const double *restrict b, double *restrict out)
{
    for (ptrdiff_t i = i0; i < i1; i++) {
        double *restrict o = out + i * n;
        for (ptrdiff_t j = 0; j < n; j++)
            o[j] = 0.0;
        for (ptrdiff_t t = 0; t < k; t++) {
            const double x = a[i * a_row + t * a_col];
            const double *restrict bt = b + t * n;
            for (ptrdiff_t j = 0; j < n; j++)
                o[j] += x * bt[j];
        }
    }
}

/* A TILE_R x TILE_C block of out is summed in local accumulators, each
   from +0.0 over ascending t like kseq_rows, and stored once; the fixed
   trip counts let each clone vectorise the tile at its own width. */
#define TILE_R 4
#define TILE_C 32

/* Columns [j0, j0 + nw) of rows [0, mt) of out, nw <= NARROW_C: the tile
   of the n % TILE_C columns. Its TILE_R x NARROW_C blocks are zero-padded
   past the nw real columns and read b's columns from bp, a padded copy of
   PACK_K rows of t at a time. A block's sums stay in accumulators over one
   copy and pass to the next through out, which holds a double exactly;
   only the real columns are stored. */
#define NARROW_C 12
#define PACK_K 128

HELPER void kseq_narrow(ptrdiff_t mt, ptrdiff_t k, ptrdiff_t n,
                        ptrdiff_t j0, ptrdiff_t nw,
                        const double *a, ptrdiff_t a_row, ptrdiff_t a_col,
                        const double *restrict b, double *restrict out)
{
    double bp[PACK_K][NARROW_C];
    const size_t row_bytes = (size_t)nw * sizeof(double);
    ptrdiff_t t0 = 0;
    do {
        const ptrdiff_t tk = k - t0 < PACK_K ? k - t0 : PACK_K;
        for (ptrdiff_t t = 0; t < tk; t++)
            for (int j = 0; j < NARROW_C; j++)
                bp[t][j] = j < nw ? b[(t0 + t) * n + j0 + j] : 0.0;
        for (ptrdiff_t i0 = 0; i0 < mt; i0 += TILE_R) {
            double *restrict o = out + i0 * n + j0;
            double c[TILE_R][NARROW_C] = {{0.0}};
            if (t0 > 0)
                for (int r = 0; r < TILE_R; r++)
                    memcpy(c[r], o + r * n, row_bytes);
            for (ptrdiff_t t = 0; t < tk; t++)
                for (int r = 0; r < TILE_R; r++) {
                    const double x = a[(i0 + r) * a_row + (t0 + t) * a_col];
                    for (int j = 0; j < NARROW_C; j++)
                        c[r][j] += x * bp[t][j];
                }
            for (int r = 0; r < TILE_R; r++)
                memcpy(o + r * n, c[r], row_bytes);
        }
    } while ((t0 += PACK_K) < k);
}

/* kseq_narrow for AVX2_CPU code, with a row of a block in NARROW_C / 4
   vectors: the same sums in the same order, in 256-bit registers. The
   AVX-512F clone of the plain loop, which packs the 12 columns into
   512-bit registers, took 1.5-1.8x the AVX2 clone's time. */
HELPER void kseq_narrow_v4d(ptrdiff_t mt, ptrdiff_t k, ptrdiff_t n,
                            ptrdiff_t j0, ptrdiff_t nw,
                            const double *a, ptrdiff_t a_row,
                            ptrdiff_t a_col, const double *restrict b,
                            double *restrict out)
{
    v4d bp[PACK_K][NARROW_C / 4];
    const size_t row_bytes = (size_t)nw * sizeof(double);
    ptrdiff_t t0 = 0;
    do {
        const ptrdiff_t tk = k - t0 < PACK_K ? k - t0 : PACK_K;
        for (ptrdiff_t t = 0; t < tk; t++)
            for (int j = 0; j < NARROW_C; j++)
                bp[t][j / 4][j % 4] = j < nw ? b[(t0 + t) * n + j0 + j] : 0.0;
        for (ptrdiff_t i0 = 0; i0 < mt; i0 += TILE_R) {
            double *restrict o = out + i0 * n + j0;
            v4d c[TILE_R][NARROW_C / 4] = {{{0.0}}};
            if (t0 > 0)
                for (int r = 0; r < TILE_R; r++)
                    memcpy(c[r], o + r * n, row_bytes);
            for (ptrdiff_t t = 0; t < tk; t++)
                for (int r = 0; r < TILE_R; r++) {
                    const double x = a[(i0 + r) * a_row + (t0 + t) * a_col];
                    for (int v = 0; v < NARROW_C / 4; v++)
                        c[r][v] += x * bp[t][v];
                }
            for (int r = 0; r < TILE_R; r++)
                memcpy(o + r * n, c[r], row_bytes);
        }
    } while ((t0 += PACK_K) < k);
}

/* relu != 0 stores numpy's maximum(0.0, x) as the select
   (0.0 >= x ? 0.0 : x), which keeps a NaN; the two differ only on -0.0,
   which no sum from +0.0 gives. A mask (NULL for none, else m x n and
   C-contiguous) then multiplies each element by (mask > 0.0 ? 1.0 : 0.0),
   as numpy's x * (mask > 0.0) does: a multiply, not a select, so a
   negative value under a zero mask is -0.0 and a NaN stays. */
KERNEL
void matmul_kseq(ptrdiff_t m, ptrdiff_t k, ptrdiff_t n,
                 const double *a, ptrdiff_t a_row, ptrdiff_t a_col,
                 const double *restrict b, int relu,
                 const double *restrict mask, double *restrict out)
{
    const ptrdiff_t mt = m - m % TILE_R, nt = n - n % TILE_C;
    for (ptrdiff_t i0 = 0; i0 < mt; i0 += TILE_R)
        for (ptrdiff_t j0 = 0; j0 < nt; j0 += TILE_C) {
            double c[TILE_R][TILE_C];
            for (int r = 0; r < TILE_R; r++)
                for (int j = 0; j < TILE_C; j++)
                    c[r][j] = 0.0;
            for (ptrdiff_t t = 0; t < k; t++) {
                const double *restrict bt = b + t * n + j0;
                for (int r = 0; r < TILE_R; r++) {
                    const double x = a[(i0 + r) * a_row + t * a_col];
                    for (int j = 0; j < TILE_C; j++)
                        c[r][j] += x * bt[j];
                }
            }
            for (int r = 0; r < TILE_R; r++)
                for (int j = 0; j < TILE_C; j++)
                    out[(i0 + r) * n + j0 + j] = c[r][j];
        }
    for (ptrdiff_t j0 = nt; j0 < n; j0 += NARROW_C) {
        const ptrdiff_t nw = n - j0 < NARROW_C ? n - j0 : NARROW_C;
        if (AVX2_CPU)
            kseq_narrow_v4d(mt, k, n, j0, nw, a, a_row, a_col, b, out);
        else
            kseq_narrow(mt, k, n, j0, nw, a, a_row, a_col, b, out);
    }
    kseq_rows(mt, m, k, n, a, a_row, a_col, b, out);
    if (relu)
        for (ptrdiff_t i = 0; i < m * n; i++)
            out[i] = 0.0 >= out[i] ? 0.0 : out[i];
    if (mask)
        for (ptrdiff_t i = 0; i < m * n; i++)
            out[i] *= mask[i] > 0.0 ? 1.0 : 0.0;
}

/* numpy's max but for which NaN: a NaN operand wins, and each later NaN
   replaces it, so a window keeps its last NaN where numpy keeps its first */
HELPER double max_nan(double m, double x)
{
    return (x > m || x != x) ? x : m;
}

/* lanes 0, 2, 4, 6 and lanes 1, 3, 5, 7 of the eight in a and b */
#if defined(__clang__) || __GNUC__ >= 12
#define EVEN(a, b) __builtin_shufflevector(a, b, 0, 2, 4, 6)
#define ODD(a, b) __builtin_shufflevector(a, b, 1, 3, 5, 7)
#else
#define EVEN(a, b) __builtin_shuffle(a, b, (v4i){0, 2, 4, 6})
#define ODD(a, b) __builtin_shuffle(a, b, (v4i){1, 3, 5, 7})
#endif

#define HOST_V 4             /* vectors per row of a block */
#define HOST_C (4 * HOST_V)  /* columns per block */

/* Output rows 0 and 1 of the correlation of img, whose rows are w
   apart, over columns [0, HOST_C), pooled 2x2 into out[0, HOST_C / 2).
   Each sum starts from +0.0 and adds the taps in row-major kernel order,
   and the 2 x HOST_C sums stay in registers over all the taps; img is
   read with vector loads. */
HELPER void corr_pool(const double *img, ptrdiff_t w,
                      const double *restrict k, ptrdiff_t kh, ptrdiff_t kw,
                      double *restrict out)
{
    v4d s[2][HOST_V] = {{{0.0}}};
    for (ptrdiff_t i = 0; i < kh; i++)
        for (ptrdiff_t j = 0; j < kw; j++) {
            const double kv = k[i * kw + j];
            for (int r = 0; r < 2; r++)
                for (int v = 0; v < HOST_V; v++) {
                    v4d xv;
                    memcpy(&xv, img + (i + r) * w + j + 4 * v, sizeof xv);
                    s[r][v] += kv * xv;
                }
        }
    /* max_nan lane by lane, over each 2x2 window in row-major order: the
       last NaN of a window is kept */
    for (int v = 0; v < HOST_V; v += 2) {
        const v4d xs[3] = {ODD(s[0][v], s[0][v + 1]),
                           EVEN(s[1][v], s[1][v + 1]),
                           ODD(s[1][v], s[1][v + 1])};
        v4d m = EVEN(s[0][v], s[0][v + 1]);
        for (int q = 0; q < 3; q++) {
            const v4i take = (v4i)((xs[q] > m) | (xs[q] != xs[q]));
            m = (v4d)(((v4i)xs[q] & take) | ((v4i)m & ~take));
        }
        memcpy(out + 2 * v, &m, sizeof m);
    }
}

/* x is n images of h rows of w, C-contiguous; the correlation output
   (h-kh+1) x (w-kw+1) must have even dims. rows is scratch for two
   output rows; out is (n, (h-kh+1)/2 * (w-kw+1)/2), row-major.

   With AVX2, each pair of output rows runs in blocks of HOST_C columns;
   the last block is moved left to end at the last column and recomputes
   the same values where it overlaps the one before it. Otherwise, and for
   an output narrower than a block, two rows are summed in rows, one tap
   at a time, and then pooled. */
KERNEL
void host_stage(ptrdiff_t n, ptrdiff_t h, ptrdiff_t w, const double *x,
                const double *restrict k, ptrdiff_t kh, ptrdiff_t kw,
                double *restrict rows, double *restrict out)
{
    const ptrdiff_t oh = h - kh + 1, ow = w - kw + 1;
    if (AVX2_CPU && ow >= HOST_C) {
        for (ptrdiff_t b = 0; b < n; b++)
            for (ptrdiff_t r = 0; r < oh; r += 2) {
                const double *img = x + (b * h + r) * w;
                double *restrict o = out + (b * oh + r) / 2 * (ow / 2);
                for (ptrdiff_t c0 = 0; c0 < ow; c0 += HOST_C) {
                    const ptrdiff_t c = c0 < ow - HOST_C ? c0 : ow - HOST_C;
                    corr_pool(img + c, w, k, kh, kw, o + c / 2);
                }
            }
        return;
    }
    double *restrict r0 = rows, *restrict r1 = rows + ow;
    for (ptrdiff_t b = 0; b < n; b++) {
        const double *img = x + b * h * w;
        for (ptrdiff_t r = 0; r < oh; r++) {
            double *restrict o = r % 2 ? r1 : r0;
            for (ptrdiff_t c = 0; c < ow; c++)
                o[c] = 0.0;
            for (ptrdiff_t i = 0; i < kh; i++)
                for (ptrdiff_t j = 0; j < kw; j++) {
                    const double kv = k[i * kw + j];
                    const double *xr = img + (r + i) * w + j;
                    for (ptrdiff_t c = 0; c < ow; c++)
                        o[c] += kv * xr[c];
                }
            if (r % 2 == 0)
                continue;
            for (ptrdiff_t c = 0; c < ow; c += 2)
                *out++ = max_nan(max_nan(max_nan(r0[c], r0[c + 1]), r1[c]),
                                 r1[c + 1]);
        }
    }
}

/* numpy's order of operations, element by element, on n contiguous
   elements; b1c and b2c are 1-beta1 and 1-beta2. Returns the number of
   non-finite weights written. */
HELPER ptrdiff_t adam_layer(ptrdiff_t n, double *restrict w,
                            double *restrict m, double *restrict v,
                            const double *restrict g, double b1, double b1c,
                            double b2, double b2c, double eta, double c1,
                            double c2, double eps)
{
    ptrdiff_t nonfinite = 0;
    for (ptrdiff_t i = 0; i < n; i++) {
        const double mi = b1 * m[i] + b1c * g[i];
        const double vi = b2 * v[i] + b2c * (g[i] * g[i]);
        const double wi = w[i] - (eta * (mi * c1)) / (sqrt(vi * c2) + eps);
        m[i] = mi;
        v[i] = vi;
        w[i] = wi;
        nonfinite += !isfinite(wi);
    }
    return nonfinite;
}

/* A batch's two layer updates with the same factors: the output layer's
   (n2 elements) first, then the hidden layer's (n1). 1-beta1 and 1-beta2
   are one correctly rounded subtraction each, as in numpy. Returns the
   number of non-finite weights both wrote. */
KERNEL
ptrdiff_t adam_update_pair(ptrdiff_t n2, double *restrict w2,
                           double *restrict m2, double *restrict v2,
                           const double *restrict g2, ptrdiff_t n1,
                           double *restrict w1, double *restrict m1,
                           double *restrict v1, const double *restrict g1,
                           double b1, double b2, double eta, double c1,
                           double c2, double eps)
{
    const double b1c = 1.0 - b1, b2c = 1.0 - b2;
    return adam_layer(n2, w2, m2, v2, g2, b1, b1c, b2, b2c, eta, c1, c2, eps)
           + adam_layer(n1, w1, m1, v1, g1, b1, b1c, b2, b2c, eta, c1, c2,
                        eps);
}

/* ---- Two cores: the big kernels in chunks, shared with a helper ---- */

/* A product of at least SPLIT_PRODUCT multiply-adds runs in chunks of
   CHUNK_ROWS rows of out, a multiple of TILE_R, so that every row is
   summed by the same loop as in one call over all rows. An Adam pair of
   at least SPLIT_ADAM elements runs in chunks of CHUNK_ELEMENTS, over the
   output layer's elements and then the hidden layer's. Each chunk is one
   call of the kernel, so it runs the clone the loader picked, and every
   element is computed by one thread from the same terms in the same
   order: the bytes do not depend on who ran which chunk. */
#define SPLIT_PRODUCT 200000
#define CHUNK_ROWS 8
#define SPLIT_ADAM 8192
#define CHUNK_ELEMENTS 2048
/* How long the helper polls after its last chunk before it sleeps: about
   the gap between a training batch's big kernels */
#define SPIN_NS 135000

/* x86's spin-wait hint; elsewhere a plain poll */
#if defined(__x86_64__) || defined(__i386__)
#define CPU_RELAX() __builtin_ia32_pause()
#else
#define CPU_RELAX() ((void)0)
#endif

/* matmul_kseq's arguments */
struct product {
    ptrdiff_t m, k, n;
    const double *a;
    ptrdiff_t a_row, a_col;
    const double *b;
    int relu;
    const double *mask;
    double *out;
};

/* adam_update_pair's arguments */
struct adam_pair {
    ptrdiff_t n2;
    double *w2, *m2, *v2;
    const double *g2;
    ptrdiff_t n1;
    double *w1, *m1, *v1;
    const double *g1;
    double b1, b2, eta, c1, c2, eps;
};

/* rows [i0, i1) of the product */
static void product_rows(const struct product *p, ptrdiff_t i0, ptrdiff_t i1)
{
    matmul_kseq(i1 - i0, p->k, p->n, p->a + i0 * p->a_row, p->a_row,
                p->a_col, p->b, p->relu, p->mask ? p->mask + i0 * p->n : NULL,
                p->out + i0 * p->n);
}

static ptrdiff_t product_chunk(const void *args, ptrdiff_t c)
{
    const struct product *p = args;
    const ptrdiff_t i0 = c * CHUNK_ROWS;
    product_rows(p, i0, p->m - i0 < CHUNK_ROWS ? p->m : i0 + CHUNK_ROWS);
    return 0;
}

/* elements [e0, e1) of the output layer's n2 and then the hidden layer's
   n1; the number of non-finite weights written */
static ptrdiff_t adam_elements(const struct adam_pair *p, ptrdiff_t e0,
                               ptrdiff_t e1)
{
    const ptrdiff_t s2 = e0 < p->n2 ? e0 : p->n2;
    const ptrdiff_t l2 = (e1 < p->n2 ? e1 : p->n2) - s2;
    const ptrdiff_t s1 = (e0 > p->n2 ? e0 : p->n2) - p->n2;
    const ptrdiff_t l1 = (e1 > p->n2 ? e1 : p->n2) - p->n2 - s1;
    return adam_update_pair(l2, p->w2 + s2, p->m2 + s2, p->v2 + s2,
                            p->g2 + s2, l1, p->w1 + s1, p->m1 + s1,
                            p->v1 + s1, p->g1 + s1, p->b1, p->b2, p->eta,
                            p->c1, p->c2, p->eps);
}

static ptrdiff_t adam_chunk(const void *args, ptrdiff_t c)
{
    const struct adam_pair *p = args;
    const ptrdiff_t e0 = c * CHUNK_ELEMENTS, n = p->n2 + p->n1;
    return adam_elements(p, e0,
                         n - e0 < CHUNK_ELEMENTS ? n : e0 + CHUNK_ELEMENTS);
}

/* The one job the helper takes part in, set by the caller that holds
   `caller` before it opens `range`; its args stay the caller's until
   every chunk is done. */
static struct {
    ptrdiff_t (*chunk)(const void *args, ptrdiff_t c);
    const void *args;
    ptrdiff_t done;  /* chunks finished */
    ptrdiff_t sum;   /* of their results */
} job;
/* The job's unclaimed chunks [front, back): front in the low 32 bits,
   back in the high 32. The caller claims from the front and the helper
   from the back, so each keeps its rows from one call to the next, and
   the caller never waits for a chunk nobody has claimed. */
static uint64_t range;
static int sleeping;  /* the helper waits on `wake` */
static int helper;    /* 1 running, 0 not started, -1 never; under `caller` */
static pthread_mutex_t caller = PTHREAD_MUTEX_INITIALIZER;
static pthread_mutex_t wake_lock = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t wake = PTHREAD_COND_INITIALIZER;

/* The next unclaimed chunk, from the front or the back; -1 if none. A
   claim made, by the helper too, sees the job the caller set before it
   opened the range. */
static ptrdiff_t claim(int back)
{
    uint64_t r = __atomic_load_n(&range, __ATOMIC_RELAXED);
    for (;;) {
        const uint64_t front = r & 0xffffffff, end = r >> 32;
        if (front >= end)
            return -1;
        const uint64_t next = back ? r - ((uint64_t)1 << 32) : r + 1;
        if (__atomic_compare_exchange_n(&range, &r, next, 0, __ATOMIC_ACQUIRE,
                                        __ATOMIC_RELAXED))
            return (ptrdiff_t)(back ? end - 1 : front);
    }
}

static void run_chunk(ptrdiff_t c)
{
    __atomic_fetch_add(&job.sum, job.chunk(job.args, c), __ATOMIC_RELAXED);
    __atomic_fetch_add(&job.done, 1, __ATOMIC_RELEASE);
}

static int has_work(void)
{
    const uint64_t r = __atomic_load_n(&range, __ATOMIC_SEQ_CST);
    return (r & 0xffffffff) < (r >> 32);
}

/* Polls for SPIN_NS, then sleeps until a caller signals `wake`. Each poll
   yields the CPU: a pause spin kept the pipelined producer, and the GIL
   it held, off this core (pipelined training ran ~10% slower on a 2-core
   x86 machine). A caller that opens the range and then reads
   sleeping == 0 is seen by has_work, as both are sequentially
   consistent. */
static void wait_for_work(void)
{
    struct timespec t0, t;
    clock_gettime(CLOCK_MONOTONIC, &t0);
    do {
        if (has_work())
            return;
        sched_yield();
        clock_gettime(CLOCK_MONOTONIC, &t);
    } while ((t.tv_sec - t0.tv_sec) * 1000000000L + t.tv_nsec - t0.tv_nsec
             < SPIN_NS);
    pthread_mutex_lock(&wake_lock);
    __atomic_store_n(&sleeping, 1, __ATOMIC_SEQ_CST);
    while (!has_work())
        pthread_cond_wait(&wake, &wake_lock);
    __atomic_store_n(&sleeping, 0, __ATOMIC_RELAXED);
    pthread_mutex_unlock(&wake_lock);
}

/* The helper touches no Python object: only job's chunks. */
static void *helper_main(void *unused)
{
    (void)unused;
    for (;;) {
        wait_for_work();
        ptrdiff_t c;
        while ((c = claim(1)) >= 0)
            run_chunk(c);
    }
    return NULL;
}

/* In a child forked while the helper existed: no helper, nothing held */
static void forget_helper(void)
{
    pthread_mutex_init(&caller, NULL);
    pthread_mutex_init(&wake_lock, NULL);
    pthread_cond_init(&wake, NULL);
    range = 0;
    sleeping = 0;
    helper = 0;
}

/* Starts the helper, unless the process may run on one CPU only. It
   blocks every signal, so that they go to the interpreter's threads. */
static int start_helper(void)
{
#ifdef CPU_COUNT
    cpu_set_t cpus;
    if (sched_getaffinity(0, sizeof cpus, &cpus) == 0 && CPU_COUNT(&cpus) < 2)
        return 0;
#endif
    static int at_fork;
    if (!at_fork && pthread_atfork(NULL, NULL, forget_helper) != 0)
        return 0;
    at_fork = 1;
    sigset_t all, old;
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &old);
    pthread_t thread;
    const int started = pthread_create(&thread, NULL, helper_main, NULL) == 0;
    pthread_sigmask(SIG_SETMASK, &old, NULL);
    if (started)
        pthread_detach(thread);
    return started;
}

/* Runs chunks [0, chunks) with the helper and sets *sum to the sum of
   their results; returns 0, having run nothing, if the helper is taken by
   another call or cannot run. The helper starts on the first call that
   shares, never at load. */
static int share(ptrdiff_t (*chunk)(const void *, ptrdiff_t),
                 const void *args, ptrdiff_t chunks, ptrdiff_t *sum)
{
    if (chunks < 2 || (uint64_t)chunks > 0xffffffff
        || pthread_mutex_trylock(&caller) != 0)
        return 0;
    if (helper == 0)
        helper = start_helper() ? 1 : -1;
    if (helper < 0) {
        pthread_mutex_unlock(&caller);
        return 0;
    }
    job.chunk = chunk;
    job.args = args;
    job.done = 0;
    job.sum = 0;
    __atomic_store_n(&range, (uint64_t)chunks << 32, __ATOMIC_SEQ_CST);
    if (__atomic_load_n(&sleeping, __ATOMIC_SEQ_CST)) {
        pthread_mutex_lock(&wake_lock);
        pthread_cond_signal(&wake);
        pthread_mutex_unlock(&wake_lock);
    }
    ptrdiff_t c;
    while ((c = claim(0)) >= 0)
        run_chunk(c);
    /* at most the helper's one chunk in progress; yields in case the
       helper shares this CPU */
    for (unsigned i = 0; __atomic_load_n(&job.done, __ATOMIC_ACQUIRE) < chunks;
         i++)
        if (i < 1024)
            CPU_RELAX();
        else
            sched_yield();
    *sum = job.sum;
    pthread_mutex_unlock(&caller);
    return 1;
}

static void product(const struct product *p)
{
    ptrdiff_t unused;
    if ((double)p->m * p->k * p->n < SPLIT_PRODUCT
        || !share(product_chunk, p, (p->m + CHUNK_ROWS - 1) / CHUNK_ROWS,
                  &unused))
        product_rows(p, 0, p->m);
}

/* the number of non-finite weights written */
static ptrdiff_t adam(const struct adam_pair *p)
{
    const ptrdiff_t n = p->n2 + p->n1;
    ptrdiff_t nonfinite;
    if (n < SPLIT_ADAM
        || !share(adam_chunk, p, (n + CHUNK_ELEMENTS - 1) / CHUNK_ELEMENTS,
                  &nonfinite))
        nonfinite = adam_elements(p, 0, n);
    return nonfinite;
}

/* ---- The entry points: each takes the ndarrays themselves ---- */

/* What an operand's buffer must be beyond float64 in native byte order
   and 8-byte aligned: rules are a set of these. */
#define C_ORDER 1  /* C-contiguous */
#define WRITABLE 2

/* numpy's aligned flag: the address and the strides of the axes longer
   than 1 are multiples of 8, or the buffer is empty */
static int aligned(const Py_buffer *view)
{
    if (view->len == 0)
        return 1;
    uintptr_t bits = (uintptr_t)view->buf;
    for (int i = 0; i < view->ndim; i++)
        if (view->shape[i] > 1)
            bits |= (uintptr_t)view->strides[i];
    return bits % sizeof(double) == 0;
}

/* obj's buffer in view, after the checks every operand passes. On
   failure sets BufferError (or the exporter's error), holds no buffer
   and returns -1. */
static int get_doubles(PyObject *obj, Py_buffer *view, int rules,
                       const char *name)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    const char *format = view->format ? view->format : "B";
    if (*format == '@' || *format == '=')
        format++;
    const char *why = NULL;
    if (strcmp(format, "d") != 0 || view->itemsize != sizeof(double))
        why = "is not float64 in native byte order";
    else if (!aligned(view))
        why = "is not 8-byte aligned";
    else if ((rules & C_ORDER) && !PyBuffer_IsContiguous(view, 'C'))
        why = "is not C-contiguous";
    else if ((rules & WRITABLE) && view->readonly)
        why = "is read-only";
    if (why == NULL)
        return 0;
    PyBuffer_Release(view);
    PyErr_Format(PyExc_BufferError, "%s %s", name, why);
    return -1;
}

static void release(Py_buffer *views, int n)
{
    while (n-- > 0)
        PyBuffer_Release(&views[n]);
}

/* The buffers of objs[0, n) into views, or none of them and -1 */
static int get_all(PyObject *const *objs, Py_buffer *views, const int *rules,
                   const char *const *names, int n)
{
    for (int i = 0; i < n; i++)
        if (get_doubles(objs[i], &views[i], rules[i], names[i]) < 0) {
            release(views, i);
            return -1;
        }
    return 0;
}

static int is_matrix(const Py_buffer *view, Py_ssize_t rows, Py_ssize_t cols)
{
    return view->ndim == 2 && view->shape[0] == rows
           && view->shape[1] == cols;
}

static int takes(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 1;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)",
                 name, want, nargs);
    return 0;
}

/* matmul_kseq(a, b, relu, mask, out): out = a @ b with the epilogue; a
   (m, k) in any strides, b (k, n), mask None or (m, n), out (m, n) */
static PyObject *py_matmul_kseq(PyObject *self, PyObject *const *args,
                                Py_ssize_t nargs)
{
    (void)self;
    if (!takes("matmul_kseq", nargs, 5))
        return NULL;
    const int relu = PyObject_IsTrue(args[2]);
    if (relu < 0)
        return NULL;
    const int count = args[3] == Py_None ? 3 : 4;
    PyObject *const objs[4] = {args[0], args[1], args[4], args[3]};
    static const int rules[4] = {0, C_ORDER, C_ORDER | WRITABLE, C_ORDER};
    static const char *const names[4] = {"a", "b", "out", "mask"};
    Py_buffer v[4];
    if (get_all(objs, v, rules, names, count) < 0)
        return NULL;
    const Py_buffer *a = &v[0], *b = &v[1], *out = &v[2], *mask = &v[3];
    if (a->ndim != 2 || b->ndim != 2 || a->shape[1] != b->shape[0]) {
        PyErr_SetString(PyExc_ValueError,
                        "a and b are not (m, k) and (k, n) matrices");
    } else if (!is_matrix(out, a->shape[0], b->shape[1])) {
        PyErr_SetString(PyExc_ValueError, "out is not (m, n)");
    } else if (count == 4 && !is_matrix(mask, a->shape[0], b->shape[1])) {
        PyErr_SetString(PyExc_ValueError, "mask is not (m, n)");
    } else {
        const struct product p = {
            a->shape[0], a->shape[1], b->shape[1], a->buf,
            a->strides[0] / (ptrdiff_t)sizeof(double),
            a->strides[1] / (ptrdiff_t)sizeof(double), b->buf, relu,
            count == 4 ? mask->buf : NULL, out->buf};
        Py_BEGIN_ALLOW_THREADS
        product(&p);
        Py_END_ALLOW_THREADS
    }
    release(v, count);
    if (PyErr_Occurred())
        return NULL;
    Py_RETURN_NONE;
}

/* host_stage(x, k, out): x (n, h, w), k (kh, kw), out (n, oh/2 * ow/2)
   for the (oh, ow) = (h-kh+1, w-kw+1) correlation, whose dims are even */
static PyObject *py_host_stage(PyObject *self, PyObject *const *args,
                               Py_ssize_t nargs)
{
    (void)self;
    if (!takes("host_stage", nargs, 3))
        return NULL;
    static const int rules[3] = {C_ORDER, C_ORDER, C_ORDER | WRITABLE};
    static const char *const names[3] = {"x", "k", "out"};
    Py_buffer v[3];
    if (get_all(args, v, rules, names, 3) < 0)
        return NULL;
    const Py_buffer *x = &v[0], *k = &v[1], *out = &v[2];
    double *rows = NULL;
    if (x->ndim != 3 || k->ndim != 2 || x->shape[1] < k->shape[0]
        || x->shape[2] < k->shape[1]) {
        PyErr_SetString(PyExc_ValueError,
                        "x is not (n, h, w) images of at least k's (kh, kw)");
    } else {
        const ptrdiff_t n = x->shape[0], h = x->shape[1], w = x->shape[2];
        const ptrdiff_t kh = k->shape[0], kw = k->shape[1];
        const ptrdiff_t oh = h - kh + 1, ow = w - kw + 1;
        if (oh % 2 || ow % 2)
            PyErr_SetString(PyExc_ValueError,
                            "the correlation's dims are not even");
        else if (!is_matrix(out, n, oh / 2 * (ow / 2)))
            PyErr_SetString(PyExc_ValueError,
                            "out is not (n, oh/2 * ow/2)");
        else if ((rows = PyMem_Malloc(2 * ow * sizeof(double))) == NULL)
            PyErr_NoMemory();
        else {
            Py_BEGIN_ALLOW_THREADS
            host_stage(n, h, w, x->buf, k->buf, kh, kw, rows, out->buf);
            Py_END_ALLOW_THREADS
        }
    }
    PyMem_Free(rows);
    release(v, 3);
    if (PyErr_Occurred())
        return NULL;
    Py_RETURN_NONE;
}

/* adam_update_pair(w2, m2, v2, g2, w1, m1, v1, g1, b1, b2, eta, c1, c2,
   eps): the non-finite count; each layer's four arrays have one size */
static PyObject *py_adam_update_pair(PyObject *self, PyObject *const *args,
                                     Py_ssize_t nargs)
{
    (void)self;
    if (!takes("adam_update_pair", nargs, 14))
        return NULL;
    double f[6];
    for (int i = 0; i < 6; i++)
        if ((f[i] = PyFloat_AsDouble(args[8 + i])) == -1.0
            && PyErr_Occurred())
            return NULL;
    enum { W = C_ORDER | WRITABLE };
    static const int rules[8] = {W, W, W, C_ORDER, W, W, W, C_ORDER};
    static const char *const names[8] = {"w2", "m2", "v2", "g2",
                                         "w1", "m1", "v1", "g1"};
    Py_buffer v[8];
    if (get_all(args, v, rules, names, 8) < 0)
        return NULL;
    ptrdiff_t nonfinite = 0;
    if (v[1].len != v[0].len || v[2].len != v[0].len
        || v[3].len != v[0].len || v[5].len != v[4].len
        || v[6].len != v[4].len || v[7].len != v[4].len) {
        PyErr_SetString(PyExc_ValueError,
                        "a layer's w, m, v and g differ in size");
    } else {
        const struct adam_pair p = {
            v[0].len / (ptrdiff_t)sizeof(double), v[0].buf, v[1].buf,
            v[2].buf, v[3].buf, v[4].len / (ptrdiff_t)sizeof(double),
            v[4].buf, v[5].buf, v[6].buf, v[7].buf, f[0], f[1], f[2], f[3],
            f[4], f[5]};
        Py_BEGIN_ALLOW_THREADS
        nonfinite = adam(&p);
        Py_END_ALLOW_THREADS
    }
    release(v, 8);
    if (PyErr_Occurred())
        return NULL;
    return PyLong_FromSsize_t(nonfinite);
}

#define ENTRY(name) \
    {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, NULL}
static PyMethodDef methods[] = {
    ENTRY(matmul_kseq), ENTRY(host_stage), ENTRY(adam_update_pair),
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT,
                                    "_convpipe_native", NULL, -1, methods,
                                    NULL, NULL, NULL, NULL};

PyMODINIT_FUNC PyInit__convpipe_native(void)
{
    return PyModule_Create(&module);
}
