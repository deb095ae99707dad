
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
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
   without AVX2, and false wherever there are no clones. AVX512F_CPU is
   true on a CPU with AVX-512F, where an AVX512F function, compiled for
   it whatever the clone or the build's flags, may run. */
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GLIBC__)
#if defined(__has_attribute)
#if __has_attribute(target_clones)
#define KERNEL __attribute__((target_clones("avx512f", "avx2", "default")))
#define AVX2_CPU __builtin_cpu_supports("avx2")
#define AVX512F_CPU __builtin_cpu_supports("avx512f")
#define AVX512F __attribute__((target("avx512f")))
#endif
#endif
#endif
#ifndef KERNEL
#define KERNEL
#define AVX2_CPU 0
#endif
#ifndef AVX512F
#define AVX512F_CPU 0
#define AVX512F
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
/* Eight doubles, for the host stage's block in AVX512F functions */
typedef double v8d __attribute__((vector_size(64)));
typedef long long v8i __attribute__((vector_size(64)));

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

/* A kernel that run() can share with the helper: it computes the part
   [lo, hi) of its job (rows of a product, images of a host stage,
   elements of an Adam pair) and returns a count that run() sums over the
   parts. */
typedef ptrdiff_t kernel_fn(const void *job, ptrdiff_t lo, ptrdiff_t hi);

/* out = a @ b, (m, k) by (k, n): a's element (i, t) is at
   a[i * a_row + t * a_col], and b and out are C-contiguous.

   relu != 0 stores numpy's maximum(0.0, x) as the select
   (0.0 >= x ? 0.0 : x), which keeps a NaN; the two differ only on -0.0,
   which no sum from +0.0 gives. A mask (NULL for none, else m x n and
   C-contiguous) then multiplies each element by (mask > 0.0 ? 1.0 : 0.0),
   as numpy's x * (mask > 0.0) does: a multiply, not a select, so a
   negative value under a zero mask is -0.0 and a NaN stays. */
struct product {
    ptrdiff_t m, k, n;
    const double *a;
    ptrdiff_t a_row, a_col;
    const double *b;
    int relu;
    const double *mask;
    double *out;
};

/* rows [lo, hi) of a struct product; returns 0 */
KERNEL
ptrdiff_t matmul_kseq(const void *job, ptrdiff_t lo, ptrdiff_t hi)
{
    const struct product *p = job;
    const ptrdiff_t m = hi - lo, k = p->k, n = p->n;
    const ptrdiff_t a_row = p->a_row, a_col = p->a_col;
    const double *a = p->a + lo * a_row;
    const double *restrict b = p->b;
    const double *restrict mask = p->mask ? p->mask + lo * n : NULL;
    double *restrict out = p->out + lo * n;
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
    if (p->relu)
        for (ptrdiff_t i = 0; i < m * n; i++)
            out[i] = 0.0 >= out[i] ? 0.0 : out[i];
    if (mask)
        for (ptrdiff_t i = 0; i < m * n; i++)
            out[i] *= mask[i] > 0.0 ? 1.0 : 0.0;
    return 0;
}

/* The host stage's fixed kernel: KH x KW taps in row-major order, which
   native.py passes from dims.SHARPEN_KERNEL as -DKH, -DKW and -DTAPS */
#if !defined(KH) || !defined(KW) || !defined(TAPS)
#error "KH, KW and TAPS undefined: native.py passes dims.SHARPEN_KERNEL's"
#endif
static const double taps[KH * KW] = {TAPS};

/* numpy's max on the host stage's sums, none of which is NaN: bytes in
   [0, 1] times finite taps */
HELPER double max2(double m, double x)
{
    return x > m ? x : m;
}

/* The even and the odd lanes of the 2L lanes in a and b, L = 4 or 8 */
#if defined(__clang__) || __GNUC__ >= 12
#define EVEN4(a, b) __builtin_shufflevector(a, b, 0, 2, 4, 6)
#define ODD4(a, b) __builtin_shufflevector(a, b, 1, 3, 5, 7)
#define EVEN8(a, b) __builtin_shufflevector(a, b, 0, 2, 4, 6, 8, 10, 12, 14)
#define ODD8(a, b) __builtin_shufflevector(a, b, 1, 3, 5, 7, 9, 11, 13, 15)
#else
#define EVEN4(a, b) __builtin_shuffle(a, b, (v4i){0, 2, 4, 6})
#define ODD4(a, b) __builtin_shuffle(a, b, (v4i){1, 3, 5, 7})
#define EVEN8(a, b) \
    __builtin_shuffle(a, b, (v8i){0, 2, 4, 6, 8, 10, 12, 14})
#define ODD8(a, b) __builtin_shuffle(a, b, (v8i){1, 3, 5, 7, 9, 11, 13, 15})
#endif

#define HOST_C 16  /* columns per block */

/* corr_pool_v4d and corr_pool_v8d: output rows 0 and 1 of the
   correlation of img, whose rows are w apart, over columns [0, HOST_C),
   pooled 2x2 into out[0, HOST_C / 2), with each row of the block in
   HOST_C / L vectors of L doubles. Each sum starts from +0.0 and adds the
   taps in row-major kernel order, and the 2 x HOST_C sums stay in
   registers over all the taps; img is read with vector loads. A zero tap
   is skipped: no sum is -0.0 or NaN and every pixel value is finite, so
   s + 0.0 * x == s, and as taps is constant the compiler drops the test.
   The pool takes max2 lane by lane, over each 2x2 window in row-major
   order. One definition for both widths, so both sum and pool alike. */
#define CORR_POOL(name, vec, ivec, L, EVEN, ODD)                             \
    HELPER void name(const double *img, ptrdiff_t w, double *restrict out) \
    {                                                                      \
        vec s[2][HOST_C / L] = {{{0.0}}};                                  \
        for (int i = 0; i < KH; i++)                                       \
            for (int j = 0; j < KW; j++) {                                 \
                const double kv = taps[i * KW + j];                        \
                if (kv == 0.0)                                             \
                    continue;                                              \
                for (int r = 0; r < 2; r++)                                \
                    for (int v = 0; v < HOST_C / L; v++) {                 \
                        vec xv;                                            \
                        memcpy(&xv, img + (i + r) * w + j + L * v,         \
                               sizeof xv);                                 \
                        s[r][v] += kv * xv;                                \
                    }                                                      \
            }                                                              \
        for (int v = 0; v < HOST_C / L; v += 2) {                          \
            const vec xs[3] = {ODD(s[0][v], s[0][v + 1]),                  \
                               EVEN(s[1][v], s[1][v + 1]),                 \
                               ODD(s[1][v], s[1][v + 1])};                 \
            vec m = EVEN(s[0][v], s[0][v + 1]);                            \
            for (int q = 0; q < 3; q++) {                                  \
                const ivec take = (ivec)(xs[q] > m);                       \
                m = (vec)(((ivec)xs[q] & take) | ((ivec)m & ~take));       \
            }                                                              \
            memcpy(out + L * v / 2, &m, sizeof m);                         \
        }                                                                  \
    }
CORR_POOL(corr_pool_v4d, v4d, v4i, 4, EVEN4, ODD4)
CORR_POOL(corr_pool_v8d, v8d, v8i, 8, EVEN8, ODD8)

/* The (oh/2, ow/2) pool of an image of w columns, ow >= HOST_C: each pair
   of output rows in blocks of HOST_C columns, by corr_pool_v8d if wide,
   else by corr_pool_v4d. The last block is moved left to end at the last
   column and recomputes the same values where it overlaps the one before
   it. */
HELPER void pool_blocks(const double *image, ptrdiff_t w, ptrdiff_t oh,
                        ptrdiff_t ow, double *restrict out, int wide)
{
    for (ptrdiff_t r = 0; r < oh; r += 2, out += ow / 2)
        for (ptrdiff_t c0 = 0; c0 < ow; c0 += HOST_C) {
            const ptrdiff_t c = c0 < ow - HOST_C ? c0 : ow - HOST_C;
            if (wide)
                corr_pool_v8d(image + r * w + c, w, out + c / 2);
            else
                corr_pool_v4d(image + r * w + c, w, out + c / 2);
        }
}

/* pool_blocks in 8-lane vectors, for AVX512F_CPU code: one 512-bit
   register per vector. The AVX2 clone keeps the 4-lane block, as 8-lane
   vectors in 256-bit registers made its host stage slower (16.5 to
   22.0 us for 32 images). */
AVX512F static void pool_blocks_v8d(const double *image, ptrdiff_t w,
                                    ptrdiff_t oh, ptrdiff_t ow,
                                    double *restrict out)
{
    pool_blocks(image, w, oh, ow, out, 1);
}

/* A host stage of at least SPLIT_HOST tap multiply-adds runs in chunks of
   CHUNK_IMAGES images (see "Two cores"); each chunk has its own scratch,
   so no two threads write the same. */
#define SPLIT_HOST 100000
#define CHUNK_IMAGES 4

/* byte_value[k] = k / 255.0, correctly rounded: the pixel value of byte k,
   as numpy's division of a uint8 array by 255.0 gives it; set at load */
static double byte_value[256];

/* out[i] = byte_value[src[i]] for i < n, eight at a time, which the AVX
   clones store as vectors. A function of its own: inlined in host_stage,
   the plain loop kept its pointers on the stack and took about twice as
   long (the AVX-512F machine of BENCH_33.json). */
KERNEL
void byte_values(ptrdiff_t n, const unsigned char *restrict src,
                 double *restrict out)
{
    ptrdiff_t i = 0;
    for (; i + 8 <= n; i += 8)
        for (int j = 0; j < 8; j++)
            out[i + j] = byte_value[src[i + j]];
    for (; i < n; i++)
        out[i] = byte_value[src[i]];
}

/* The images are h rows of w bytes, C-contiguous, byte k meaning
   byte_value[k]. The correlation output (h-KH+1) x (w-KW+1) must have even
   dims. scratch holds `stride` doubles per chunk of CHUNK_IMAGES images:
   two output rows, then the pixel values of one image. out is
   (images, (h-KH+1)/2 * (w-KW+1)/2), row-major. */
struct host_job {
    const unsigned char *bytes;
    ptrdiff_t h, w, stride;
    double *scratch, *out;
};

/* images [lo, hi) of a struct host_job, lo a multiple of CHUNK_IMAGES;
   returns 0.

   Each image is converted, one at a time, into the chunk's scratch and
   read from there. With AVX2, each pair of output rows runs in blocks
   of HOST_C columns (pool_blocks), in 8-lane vectors on a CPU with
   AVX-512F. Otherwise, and for an output narrower than a block, two rows
   are summed in the chunk's scratch, one nonzero tap at a time, and then
   pooled. */
KERNEL
ptrdiff_t host_stage(const void *job, ptrdiff_t lo, ptrdiff_t hi)
{
    const struct host_job *p = job;
    const ptrdiff_t h = p->h, w = p->w, oh = h - KH + 1, ow = w - KW + 1;
    double *restrict out = p->out + lo * (oh / 2) * (ow / 2);
    double *restrict r0 = p->scratch + lo / CHUNK_IMAGES * p->stride;
    double *restrict r1 = r0 + ow;
    double *restrict image = r1 + ow;
    for (ptrdiff_t b = lo; b < hi; b++) {
        byte_values(h * w, p->bytes + b * h * w, image);
        if (AVX2_CPU && ow >= HOST_C) {
            if (AVX512F_CPU)
                pool_blocks_v8d(image, w, oh, ow, out);
            else
                pool_blocks(image, w, oh, ow, out, 0);
            out += oh / 2 * (ow / 2);
            continue;
        }
        for (ptrdiff_t r = 0; r < oh; r++) {
            double *restrict o = r % 2 ? r1 : r0;
            for (ptrdiff_t c = 0; c < ow; c++)
                o[c] = 0.0;
            for (int i = 0; i < KH; i++)
                for (int j = 0; j < KW; j++) {
                    const double kv = taps[i * KW + j];
                    if (kv == 0.0)
                        continue;
                    const double *xr = image + (r + i) * w + j;
                    for (ptrdiff_t c = 0; c < ow; c++)
                        o[c] += kv * xr[c];
                }
            if (r % 2 == 0)
                continue;
            for (ptrdiff_t c = 0; c < ow; c += 2)
                *out++ = max2(max2(max2(r0[c], r0[c + 1]), r1[c]), r1[c + 1]);
        }
    }
    return 0;
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

/* A batch's two layer updates with the same factors: layer 0, the
   output layer, then layer 1, the hidden layer, each of n[l] elements */
struct adam_pair {
    ptrdiff_t n[2];
    double *w[2], *m[2], *v[2];
    const double *g[2];
    double b1, b2, eta, c1, c2, eps;
};

/* elements [lo, hi) of a struct adam_pair, counting through the output
   layer's and then the hidden layer's. 1-beta1 and 1-beta2 are one
   correctly rounded subtraction each, as in numpy. Returns the number of
   non-finite weights written. */
KERNEL
ptrdiff_t adam_update_pair(const void *job, ptrdiff_t lo, ptrdiff_t hi)
{
    const struct adam_pair *p = job;
    const double b1 = p->b1, b2 = p->b2, b1c = 1.0 - b1, b2c = 1.0 - b2;
    ptrdiff_t nonfinite = 0;
    for (int l = 0; l < 2; l++) {
        const ptrdiff_t s = lo < p->n[l] ? lo : p->n[l];
        const ptrdiff_t e = hi < p->n[l] ? hi : p->n[l];
        nonfinite += adam_layer(e - s, p->w[l] + s, p->m[l] + s, p->v[l] + s,
                                p->g[l] + s, b1, b1c, b2, b2c, p->eta, p->c1,
                                p->c2, p->eps);
        lo -= s;  /* [lo, hi) from the next layer's first element */
        hi -= e;
    }
    return nonfinite;
}

/* The synthetic fixture's pixels: numpy's PCG64 (O'Neill, "PCG: A Family
   of Simple Fast Space-Efficient Statistically Good Algorithms for Random
   Number Generation", 2014), whose word i is the XSL-RR output of the
   state after i + 1 steps of the 128-bit LCG state = state * PCG_MULT +
   inc, and whose pixels 2i and 2i + 1 are bytes 3 and 7 of word i. Needs
   128-bit integers; without them py_pcg64_pixels returns False and the
   caller draws through numpy. */
#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;
#define PCG_MULT \
    ((u128)0x2360ed051fc65da4ULL << 64 | (u128)0x4385df649fccf645ULL)

/* A job of `words` words from state and inc, as numpy's bit generator
   holds them, into out[0, 2 * words) */
struct pcg_job {
    u128 state, inc;
    unsigned char *out;
};

/* *mult and *plus become those of delta steps of the LCG whose one step
   they are: the jump-ahead of Brown, "Random number generation with
   arbitrary strides" (1994), numpy's pcg_advance_lcg_128 */
static void lcg_jump(uint64_t delta, u128 *mult, u128 *plus)
{
    u128 acc_mult = 1, acc_plus = 0, m = *mult, c = *plus;
    for (; delta; delta >>= 1) {
        if (delta & 1) {
            acc_mult *= m;
            acc_plus = acc_plus * m + c;
        }
        c *= m + 1;
        m *= m;
    }
    *mult = acc_mult;
    *plus = acc_plus;
}

/* numpy's pcg_output_xsl_rr_128_64 */
HELPER uint64_t xsl_rr(u128 state)
{
    const uint64_t x = (uint64_t)(state >> 64) ^ (uint64_t)state;
    const unsigned rot = (unsigned)(state >> 122);
    return x >> rot | x << (-rot & 63);
}

/* Words in PCG_CHAINS interleaved chains: one chain's step waits for the
   multiplies of the one before, so a single chain runs at their latency,
   and two keep the multiplier busy. On one CPU of the AVX-512F machine
   of BENCH_37.json, 200,704 words took 0.48 ms in one chain, 0.37 ms in
   two and 0.50 ms in eight, whose states no longer fit in registers. */
#define PCG_CHAINS 2

/* words [lo, hi) of a struct pcg_job; returns 0. Chain c starts at word
   lo + c, reached by the jump-ahead, and steps PCG_CHAINS words at a
   time; each word's bits are those of numpy's sequential steps. */
ptrdiff_t pcg64_pixels(const void *job, ptrdiff_t lo, ptrdiff_t hi)
{
    const struct pcg_job *p = job;
    unsigned char *restrict out = p->out;
    u128 mult = PCG_MULT, plus = p->inc;
    lcg_jump((uint64_t)lo + 1, &mult, &plus);
    u128 s[PCG_CHAINS];
    s[0] = mult * p->state + plus;
    for (int c = 1; c < PCG_CHAINS; c++)
        s[c] = s[c - 1] * PCG_MULT + p->inc;
    u128 mult_n = PCG_MULT, plus_n = p->inc;
    lcg_jump(PCG_CHAINS, &mult_n, &plus_n);
    ptrdiff_t i = lo;
    for (; hi - i >= PCG_CHAINS; i += PCG_CHAINS)
        for (int c = 0; c < PCG_CHAINS; c++) {
            const uint64_t word = xsl_rr(s[c]);
            out[2 * (i + c)] = (unsigned char)(word >> 24);
            out[2 * (i + c) + 1] = (unsigned char)(word >> 56);
            s[c] = s[c] * mult_n + plus_n;
        }
    for (int c = 0; c < hi - i; c++) {
        const uint64_t word = xsl_rr(s[c]);
        out[2 * (i + c)] = (unsigned char)(word >> 24);
        out[2 * (i + c) + 1] = (unsigned char)(word >> 56);
    }
    return 0;
}
#endif

/* ---- Two cores: the big kernels in chunks, shared with a helper ---- */

/* A product of at least SPLIT_PRODUCT multiply-adds runs in chunks of
   CHUNK_ROWS rows of out, a multiple of TILE_R, so that every row is
   summed by the same loop as in one call over all rows. A host stage
   splits by SPLIT_HOST into chunks of CHUNK_IMAGES images, both defined
   with its kernel. A PCG64 draw of at least SPLIT_WORDS words runs in
   chunks of CHUNK_WORDS, each from its own jump-ahead. An Adam pair of
   at least SPLIT_ADAM elements runs in chunks of CHUNK_ELEMENTS, over the
   output layer's elements and then the hidden layer's. Each chunk is one
   call of the kernel through its
   address, which the loader resolved to the clone it picked, and every
   element is computed by one thread from the same terms in the same
   order: the bytes do not depend on who ran which chunk.

   A thread marked by set_background (the pipelined producer) does not
   share its split calls: it queues one in the background slot and
   sleeps, and the helper alone runs its chunks, one at a time, whenever
   the front job has no chunk left to claim. So a front caller (the
   consumer's products and Adam pairs) waits for at most one background
   chunk in progress, and the marked thread leaves its CPU to the
   consumer. */
#define SPLIT_PRODUCT 200000
#define CHUNK_ROWS 8
#define SPLIT_ADAM 8192
#define CHUNK_ELEMENTS 2048
#define SPLIT_WORDS 32768
#define CHUNK_WORDS 8192
/* How long the helper polls after its last chunk before it sleeps: about
   the gap between a training batch's big kernels */
#define SPIN_NS 135000

/* x86's spin-wait hint; elsewhere a plain poll */
#if defined(__x86_64__) || defined(__i386__)
#define CPU_RELAX() __builtin_ia32_pause()
#else
#define CPU_RELAX() ((void)0)
#endif

/* A job in chunks: chunk c is [c * chunk, (c + 1) * chunk), but the last
   ends at size. */
struct split {
    kernel_fn *kernel;
    const void *args;
    ptrdiff_t size, chunk;
    ptrdiff_t done;  /* chunks finished */
    ptrdiff_t sum;   /* of their results */
};

/* The front job, which the helper takes part in, set by the caller that
   holds `caller` before it opens `range`; its args stay the caller's
   until every chunk is done. */
static struct split job;
/* The job's unclaimed chunks [front, back): front in the low 32 bits,
   back in the high 32. The caller claims from the front and the helper
   from the back, so each keeps its rows from one call to the next, and
   the caller never waits for a chunk nobody has claimed. */
static uint64_t range;
/* The background job, set by the marked caller that took `slot_taken`
   before it opens the slot; only the helper runs its chunks, in order,
   so slot.done and slot.sum are the helper's until it closes the slot. */
static struct split slot;
static int slot_taken;  /* a marked call owns the slot */
static int slot_open;   /* chunks left to run; cleared under slot_lock */
static int sleeping;    /* the helper waits on `wake` */
static int helper;      /* 1 running, 0 not started, -1 never; set under
                           `caller`, read by any thread */
static pthread_mutex_t caller = PTHREAD_MUTEX_INITIALIZER;
static pthread_mutex_t wake_lock = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t wake = PTHREAD_COND_INITIALIZER;
static pthread_mutex_t slot_lock = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t slot_done = PTHREAD_COND_INITIALIZER;
/* the calling thread's split calls go to the slot */
static __thread int background;

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

/* the kernel's result on chunk c of s */
static ptrdiff_t run_part(const struct split *s, ptrdiff_t c)
{
    const ptrdiff_t lo = c * s->chunk;
    const ptrdiff_t hi = s->size - lo < s->chunk ? s->size : lo + s->chunk;
    return s->kernel(s->args, lo, hi);
}

static void run_chunk(ptrdiff_t c)
{
    __atomic_fetch_add(&job.sum, run_part(&job, c), __ATOMIC_RELAXED);
    __atomic_fetch_add(&job.done, 1, __ATOMIC_RELEASE);
}

/* The helper's one chunk of an open slot; after the last it closes the
   slot and wakes its owner. */
static void run_slot_chunk(void)
{
    if (!__atomic_load_n(&slot_open, __ATOMIC_ACQUIRE))
        return;
    slot.sum += run_part(&slot, slot.done++);
    if (slot.done * slot.chunk < slot.size)
        return;
    pthread_mutex_lock(&slot_lock);
    __atomic_store_n(&slot_open, 0, __ATOMIC_RELAXED);
    pthread_cond_signal(&slot_done);
    pthread_mutex_unlock(&slot_lock);
}

static int has_work(void)
{
    const uint64_t r = __atomic_load_n(&range, __ATOMIC_SEQ_CST);
    return (r & 0xffffffff) < (r >> 32)
           || __atomic_load_n(&slot_open, __ATOMIC_SEQ_CST);
}

/* Polls for SPIN_NS, then sleeps until a caller signals `wake`. Each poll
   yields the CPU, to whatever thread shares it: a pause spin once kept
   the pipelined producer, and the GIL it held, off this core (pipelined
   training ran ~10% slower on a 2-core x86 machine). A caller that opens
   the range or the slot and then reads sleeping == 0 is seen by
   has_work, as all three are sequentially consistent. */
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

/* After a caller opened the range or the slot */
static void wake_helper(void)
{
    if (__atomic_load_n(&sleeping, __ATOMIC_SEQ_CST)) {
        pthread_mutex_lock(&wake_lock);
        pthread_cond_signal(&wake);
        pthread_mutex_unlock(&wake_lock);
    }
}

/* The helper touches no Python object: only the chunks of the front job
   and, while that has none to claim, one of the slot's at a time. */
static void *helper_main(void *unused)
{
    (void)unused;
    for (;;) {
        wait_for_work();
        ptrdiff_t c;
        while ((c = claim(1)) >= 0)
            run_chunk(c);
        run_slot_chunk();
    }
    return NULL;
}

/* In a child forked while the helper existed: no helper, nothing held */
static void forget_helper(void)
{
    pthread_mutex_init(&caller, NULL);
    pthread_mutex_init(&wake_lock, NULL);
    pthread_cond_init(&wake, NULL);
    pthread_mutex_init(&slot_lock, NULL);
    pthread_cond_init(&slot_done, NULL);
    range = 0;
    slot_taken = 0;
    slot_open = 0;
    sleeping = 0;
    helper = 0;
}

/* Starts the helper, unless the process may run on one CPU only. It
   blocks every signal, so that they go to the interpreter's threads.

   The helper may run on any of the process's CPUs but the caller's. A new
   thread starts on its creator's CPU, and where the kernel does not
   balance threads between CPUs (a cpuset with sched_load_balance off, as
   in some containers) it stays there: the helper then shared the caller's
   CPU and a split call took as long as one thread, while the other CPU
   idled (a 32-image host stage: 26.8 us either way, 19.3 us with the
   helper moved off the caller's CPU, on a 2-vCPU KVM guest). */
static int start_helper(void)
{
#ifdef CPU_COUNT
    cpu_set_t cpus;
    const int known = sched_getaffinity(0, sizeof cpus, &cpus) == 0;
    if (known && CPU_COUNT(&cpus) < 2)
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
    if (!started)
        return 0;
#ifdef CPU_COUNT
    const int cpu = sched_getcpu();
    if (known && cpu >= 0 && CPU_ISSET(cpu, &cpus)) {
        CPU_CLR(cpu, &cpus);
        pthread_setaffinity_np(thread, sizeof cpus, &cpus);  /* best effort */
    }
#endif
    pthread_detach(thread);
    return 1;
}

/* Whether the helper runs; the first call to ask, holding `caller`,
   starts it. */
static int helper_runs(void)
{
    if (__atomic_load_n(&helper, __ATOMIC_ACQUIRE) == 0)
        __atomic_store_n(&helper, start_helper() ? 1 : -1, __ATOMIC_RELEASE);
    return __atomic_load_n(&helper, __ATOMIC_ACQUIRE) > 0;
}

/* A marked thread's split call: queued in the slot, while this thread
   sleeps until the helper has run every chunk. With the slot taken by
   another marked call, or no helper, it runs in one call here. */
static ptrdiff_t run_background(kernel_fn *kernel, const void *args,
                                ptrdiff_t size, ptrdiff_t chunk)
{
    if (__atomic_load_n(&helper, __ATOMIC_ACQUIRE) == 0) {
        pthread_mutex_lock(&caller);
        helper_runs();
        pthread_mutex_unlock(&caller);
    }
    int unowned = 0;
    if (__atomic_load_n(&helper, __ATOMIC_ACQUIRE) < 0
        || !__atomic_compare_exchange_n(&slot_taken, &unowned, 1, 0,
                                        __ATOMIC_ACQUIRE, __ATOMIC_RELAXED))
        return kernel(args, 0, size);
    slot = (struct split){kernel, args, size, chunk, 0, 0};
    __atomic_store_n(&slot_open, 1, __ATOMIC_SEQ_CST);
    wake_helper();
    pthread_mutex_lock(&slot_lock);
    while (__atomic_load_n(&slot_open, __ATOMIC_RELAXED))
        pthread_cond_wait(&slot_done, &slot_lock);
    pthread_mutex_unlock(&slot_lock);
    const ptrdiff_t sum = slot.sum;
    __atomic_store_n(&slot_taken, 0, __ATOMIC_RELEASE);
    return sum;
}

/* The sum of kernel's results over [0, size) of args. With split, on a
   marked thread, through the slot; otherwise, while the helper is free
   and can run, in chunks of `chunk` shared with it; else in one call on
   the calling thread. The helper starts on the first call that shares or
   queues, never at load. */
static ptrdiff_t run(kernel_fn *kernel, const void *args, ptrdiff_t size,
                     ptrdiff_t chunk, int split)
{
    const ptrdiff_t chunks = (size + chunk - 1) / chunk;
    if (!split || chunks < 2 || (uint64_t)chunks > 0xffffffff)
        return kernel(args, 0, size);
    if (background)
        return run_background(kernel, args, size, chunk);
    if (pthread_mutex_trylock(&caller) != 0)
        return kernel(args, 0, size);
    if (!helper_runs()) {
        pthread_mutex_unlock(&caller);
        return kernel(args, 0, size);
    }
    job = (struct split){kernel, args, size, chunk, 0, 0};
    __atomic_store_n(&range, (uint64_t)chunks << 32, __ATOMIC_SEQ_CST);
    wake_helper();
    ptrdiff_t c;
    while ((c = claim(0)) >= 0)
        run_chunk(c);
    /* at most the helper's one chunk in progress, of this job or of the
       slot; yields in case the helper shares this CPU */
    for (unsigned i = 0; __atomic_load_n(&job.done, __ATOMIC_ACQUIRE) < chunks;
         i++)
        if (i < 1024)
            CPU_RELAX();
        else
            sched_yield();
    const ptrdiff_t sum = job.sum;
    pthread_mutex_unlock(&caller);
    return sum;
}

/* ---- The entry points: each takes the ndarrays themselves ---- */

/* What an operand's buffer must be beyond float64 in native byte order
   and 8-byte aligned: rules are a set of these. */
#define C_ORDER 1  /* C-contiguous */
#define WRITABLE 2
#define BYTES 4  /* uint8 instead of float64, at any address */

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
static int get_operand(PyObject *obj, Py_buffer *view, int rules,
                       const char *name)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    const char *format = view->format ? view->format : "B";
    if (*format == '@' || *format == '=')
        format++;
    const char *why = NULL;
    const int bytes = rules & BYTES;
    if (bytes && (strcmp(format, "B") != 0 || view->itemsize != 1))
        why = "is not uint8";
    else if (!bytes && (strcmp(format, "d") != 0
                        || view->itemsize != sizeof(double)))
        why = "is not float64 in native byte order";
    else if (!bytes && !aligned(view))
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
        if (get_operand(objs[i], &views[i], rules[i], names[i]) < 0) {
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
        run(matmul_kseq, &p, p.m, CHUNK_ROWS,
            (double)p.m * p.k * p.n >= SPLIT_PRODUCT);
        Py_END_ALLOW_THREADS
    }
    release(v, count);
    if (PyErr_Occurred())
        return NULL;
    Py_RETURN_NONE;
}

/* host_stage(x, out): x (n, h, w) uint8 bytes, byte k meaning the pixel
   value k / 255.0, out (n, oh/2 * ow/2) for the (oh, ow) =
   (h-KH+1, w-KW+1) correlation, whose dims are even */
static PyObject *py_host_stage(PyObject *self, PyObject *const *args,
                               Py_ssize_t nargs)
{
    (void)self;
    if (!takes("host_stage", nargs, 2))
        return NULL;
    static const int rules[2] = {C_ORDER | BYTES, C_ORDER | WRITABLE};
    static const char *const names[2] = {"x", "out"};
    Py_buffer v[2];
    if (get_all(args, v, rules, names, 2) < 0)
        return NULL;
    const Py_buffer *x = &v[0], *out = &v[1];
    double *scratch = NULL;
    if (x->ndim != 3 || x->shape[1] < KH || x->shape[2] < KW) {
        PyErr_SetString(PyExc_ValueError,
                        "x is not (n, h, w) images of at least KH x KW");
    } else {
        const ptrdiff_t n = x->shape[0], h = x->shape[1], w = x->shape[2];
        const ptrdiff_t oh = h - KH + 1, ow = w - KW + 1;
        /* scratch per chunk, and at least one set */
        const ptrdiff_t chunks =
            n > CHUNK_IMAGES ? (n + CHUNK_IMAGES - 1) / CHUNK_IMAGES : 1;
        const ptrdiff_t stride = 2 * ow + h * w;
        if (oh % 2 || ow % 2)
            PyErr_SetString(PyExc_ValueError,
                            "the correlation's dims are not even");
        else if (!is_matrix(out, n, oh / 2 * (ow / 2)))
            PyErr_SetString(PyExc_ValueError,
                            "out is not (n, oh/2 * ow/2)");
        else if ((scratch = PyMem_Malloc(chunks * stride * sizeof(double)))
                 == NULL)
            PyErr_NoMemory();
        else {
            const struct host_job p = {x->buf, h, w, stride, scratch,
                                       out->buf};
            Py_BEGIN_ALLOW_THREADS
            run(host_stage, &p, n, CHUNK_IMAGES,
                (double)n * oh * ow * KH * KW >= SPLIT_HOST);
            Py_END_ALLOW_THREADS
        }
    }
    PyMem_Free(scratch);
    release(v, 2);
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
            {v[0].len / (ptrdiff_t)sizeof(double),
             v[4].len / (ptrdiff_t)sizeof(double)},
            {v[0].buf, v[4].buf}, {v[1].buf, v[5].buf}, {v[2].buf, v[6].buf},
            {v[3].buf, v[7].buf}, f[0], f[1], f[2], f[3], f[4], f[5]};
        const ptrdiff_t n = p.n[0] + p.n[1];
        Py_BEGIN_ALLOW_THREADS
        nonfinite = run(adam_update_pair, &p, n, CHUNK_ELEMENTS,
                        n >= SPLIT_ADAM);
        Py_END_ALLOW_THREADS
    }
    release(v, 8);
    if (PyErr_Occurred())
        return NULL;
    return PyLong_FromSsize_t(nonfinite);
}

/* pcg64_pixels(state_hi, state_lo, inc_hi, inc_lo, out): out (any shape,
   C-contiguous uint8) gets bytes 3 and 7 of each of the next len(out) // 2
   words of the PCG64 whose state and increment are given in 64-bit
   halves, and a last odd byte stays as it was. True if drawn; False,
   with out untouched, in a build without 128-bit integers. */
static PyObject *py_pcg64_pixels(PyObject *self, PyObject *const *args,
                                 Py_ssize_t nargs)
{
    (void)self;
    if (!takes("pcg64_pixels", nargs, 5))
        return NULL;
    unsigned long long half[4];
    for (int i = 0; i < 4; i++)
        if ((half[i] = PyLong_AsUnsignedLongLong(args[i])) == ULLONG_MAX
            && PyErr_Occurred())
            return NULL;
    static const int rules[1] = {C_ORDER | WRITABLE | BYTES};
    static const char *const names[1] = {"out"};
    Py_buffer out;
    if (get_all(&args[4], &out, rules, names, 1) < 0)
        return NULL;
#ifdef __SIZEOF_INT128__
    const struct pcg_job p = {(u128)half[0] << 64 | half[1],
                              (u128)half[2] << 64 | half[3], out.buf};
    const ptrdiff_t words = out.len / 2;
    Py_BEGIN_ALLOW_THREADS
    run(pcg64_pixels, &p, words, CHUNK_WORDS, words >= SPLIT_WORDS);
    Py_END_ALLOW_THREADS
    release(&out, 1);
    Py_RETURN_TRUE;
#else
    release(&out, 1);
    Py_RETURN_FALSE;
#endif
}

/* set_background(flag): whether the calling thread's split calls queue
   in the background slot; the mark ends with the thread */
static PyObject *py_set_background(PyObject *self, PyObject *const *args,
                                   Py_ssize_t nargs)
{
    (void)self;
    if (!takes("set_background", nargs, 1))
        return NULL;
    const int flag = PyObject_IsTrue(args[0]);
    if (flag < 0)
        return NULL;
    background = flag;
    Py_RETURN_NONE;
}

#define ENTRY(name) \
    {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, NULL}
static PyMethodDef methods[] = {
    ENTRY(matmul_kseq), ENTRY(host_stage), ENTRY(adam_update_pair),
    ENTRY(pcg64_pixels), ENTRY(set_background), {NULL, NULL, 0, NULL}};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT,
                                    "_convpipe_native", NULL, -1, methods,
                                    NULL, NULL, NULL, NULL};

PyMODINIT_FUNC PyInit__convpipe_native(void)
{
    for (int b = 0; b < 256; b++)
        byte_value[b] = (double)b / 255.0;
    return PyModule_Create(&module);
}
