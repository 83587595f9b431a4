/* The compiled kernel of tailseries: the SplitMix64 uniforms of rng.py, the
arithmetic around the power in the Pareto inverse CDF of distributions.py,
the two-point geometric walk, its per-path summaries, the one `series` entry
for the three series recursions of simulate.py (the linear and nonlinear
AR(1) and the stochastic recurrence equation), and the per-path top values
and column moments of the cluster sizes in extremal.py.

Plain C with no Python C-API: _kernel.py compiles this file with

    cc -O2 -ffp-contract=off -fPIC -shared -o <library> _recursion.c -lm

and calls it through ctypes. Never build it with -ffast-math or -march, and
keep -ffp-contract=off: a multiply and an add fused into one FMA round once
instead of twice, which changes the last bit on targets that have FMA.

With contraction off, every `*` and `+` on doubles below is one IEEE-754
double operation rounded to nearest, the same operation CPython and numpy
perform, and `log` is the C library's, the same one `math.log` calls for
finite positive arguments. Unsigned 64-bit arithmetic wraps modulo 2**64, as
numpy's uint64 does. So each function reproduces its Python twin in
_kernel.py bit for bit; the comments there say why each twin equals the
documented formula.

The capped sums of `walk_summary` and the one column of pi terms of
`cluster_moments` are added in numpy's pairwise order, which one routine
holds (pairwise_leaf).

When GCC 12 or later compiles for x86-64 with glibc (X86_64_V4), five
entries also get code for x86-64-v4 (AVX-512). The three elementwise draw
entries, `uniforms`, `pareto_base` and `pareto_finish`, are built twice
(DRAW_CLONES): once for the plain x86-64 baseline and once vectorized by the
compiler. `two_point_walk` steps eight paths at once, one per vector lane,
and `capped_top` at k <= 32 tests eight values at once against the k-th
largest and keeps its top values in vector registers; a larger k runs the
scalar loop on every CPU (ENTRY_V4). Both are written with intrinsics, as
the vectorizer leaves their loops scalar. Each entry's scalar loop stays
beside it; every other compiler and target builds it alone, under the
entry's own name (SCALAR_ENTRY). The loader runs the code that the CPU
supports, chosen once per process when the library loads (an ifunc), not by
a flag at build time. A vector lane takes the same IEEE operations of each
element as the scalar loop (an exact integer step, one division,
subtraction or product rounded to nearest, with no contraction, or one
comparison), except that the walk tests its draws against p_up on their
integer bits, which gives the same answer (draws_below); so both write the
same bytes. Their pointers are `restrict`: a buffer an entry writes must not
overlap another buffer of the same call, which every caller in the package
satisfies, as each passes arrays it has just allocated.
*/

#include <float.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* X86_64_V4: the x86-64-v4 code is built (see the header). The ifunc that
   picks it needs glibc. In the clones of the draw entries the vectorizer's
   cost model is raised from -O2's "very cheap" one, which leaves loops of
   unknown trip count scalar; with GCC 12 it still finds the baseline clones
   not worth vectorizing, so they stay the scalar loops. */
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12 && defined(__x86_64__) && \
    defined(__ELF__) && defined(__GLIBC__)
#define X86_64_V4
#endif

#ifdef X86_64_V4
#include <immintrin.h>
#define DRAW_CLONES __attribute__((target_clones("arch=x86-64-v4", "default"), \
                                   optimize("tree-vectorize", "vect-cost-model=dynamic")))
#define V4 __attribute__((target("arch=x86-64-v4")))
/* `name` runs `name`_x86_64_v4 on a CPU that supports x86-64-v4 and
   `name`_scalar on any other, chosen once per process when the library
   loads, as for the draw clones. A resolver runs before the library's
   constructors, so it initializes the CPU model itself. */
#define ENTRY_V4(name)                                                                   \
    static __typeof__(name##_scalar) *resolve_##name(void)                              \
    {                                                                                   \
        __builtin_cpu_init();                                                           \
        return __builtin_cpu_supports("x86-64-v4") ? name##_x86_64_v4 : name##_scalar; \
    }                                                                                   \
    __typeof__(name##_scalar) name __attribute__((ifunc("resolve_" #name)));
/* The scalar loop of the entry `name`, which ENTRY_V4 picks on other CPUs. */
#define SCALAR_ENTRY(name) static void name##_scalar
#else
#define DRAW_CLONES
/* Without x86-64-v4 code the scalar loop is the entry itself. */
#define SCALAR_ENTRY(name) void name
#endif

/* Draw `counter` of the stream `base` (rng.py):
   ((mix64(base + counter * 0x9E3779B97F4A7C15) >> 11) + 0.5) * 2**-53.
   The shifted value is below 2**53, so its conversion to double is exact;
   the `+ 0.5` rounds as in numpy, and the product by a power of two is exact. */
static inline double splitmix_uniform(uint64_t base, uint64_t counter)
{
    uint64_t z = base + counter * UINT64_C(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)) * UINT64_C(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)) * UINT64_C(0x94D049BB133111EB);
    z ^= z >> 31;
    return ((double)(z >> 11) + 0.5) * 0x1p-53;
}

/* Row p of `out` (count rows of n) holds draws first .. first+n-1 of the
   stream bases[p]. */
DRAW_CLONES void uniforms(const uint64_t *restrict bases, size_t count, uint64_t first,
                          size_t n, double *restrict out)
{
    for (size_t p = 0; p < count; p++, out += n)
        for (size_t i = 0; i < n; i++)
            out[i] = splitmix_uniform(bases[p], first + i);
}

/* Row p of `out` (count rows of n) holds the running product of the
   multipliers `up` (draw below p_up) or `down` of draws 1..n of the stream
   bases[p]. The product starts at 1.0, and 1.0 * a is exactly a. */
SCALAR_ENTRY(two_point_walk)(const uint64_t *restrict bases, size_t count, size_t n,
                             double p_up, double up, double down, double *restrict out)
{
    for (size_t p = 0; p < count; p++) {
        double w = 1.0;
        for (size_t j = 0; j < n; j++) {
            w = w * (splitmix_uniform(bases[p], j + 1) < p_up ? up : down);
            *out++ = w;
        }
    }
}

#ifdef X86_64_V4
/* Transposes the 8 x 8 doubles of r in place: r[i][j] becomes r[j][i]. */
V4 static inline void transpose8(__m512d r[8])
{
    __m512d t[8], u[8];
#pragma GCC unroll 4
    for (int i = 0; i < 8; i += 2) {
        t[i] = _mm512_unpacklo_pd(r[i], r[i + 1]);     /* r[i][c], r[i+1][c], c even */
        t[i + 1] = _mm512_unpackhi_pd(r[i], r[i + 1]); /* the same, c odd */
    }
#pragma GCC unroll 2
    for (int i = 0; i < 8; i += 4) {
#pragma GCC unroll 2
        for (int odd = 0; odd < 2; odd++) {
            u[i + 2 * odd] = _mm512_shuffle_f64x2(t[i + odd], t[i + odd + 2], 0x88);
            u[i + 2 * odd + 1] = _mm512_shuffle_f64x2(t[i + odd], t[i + odd + 2], 0xdd);
        }
    }
    /* u[i .. i+3] hold rows i .. i+3 at columns (0, 4), (2, 6), (1, 5), (3, 7) */
    static const int column[4] = {0, 2, 1, 3};
#pragma GCC unroll 4
    for (int c = 0; c < 4; c++) {
        r[column[c]] = _mm512_shuffle_f64x2(u[c], u[c + 4], 0x88);
        r[column[c] + 4] = _mm512_shuffle_f64x2(u[c], u[c + 4], 0xdd);
    }
}

/* How many of the 2**53 values m = mix64(.) >> 11 give a draw below p_up:
   the draw ((double)m + 0.5) * 2**-53 of splitmix_uniform never falls as m
   grows (the conversion and the product are exact, and rounding to nearest
   is monotone), so those m are exactly 0 .. below - 1, found here by
   bisection on that same expression. A nan p_up gives 0, as no draw is
   below it. */
static uint64_t draws_below(double p_up)
{
    uint64_t lo = 0, hi = UINT64_C(1) << 53; /* below lies in lo .. hi */
    while (lo < hi) {
        uint64_t mid = lo + (hi - lo) / 2;
        if (((double)mid + 0.5) * 0x1p-53 < p_up)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* two_point_walk_scalar with eight paths side by side, one per lane: each
   lane takes its path's draws and products in step order, with the scalar
   loop's integer steps and one product per step, so it writes the same
   bytes. A draw is below p_up exactly when its m is below draws_below(p_up),
   which is tested on m, without converting it. Every eight steps the lanes'
   eight values are transposed into eight row segments; the last segment of
   a row is stored under a mask, and steps past n are computed and dropped.
   Paths past the last whole group of eight take the scalar loop. */
V4 static void two_point_walk_x86_64_v4(const uint64_t *restrict bases, size_t count, size_t n,
                                        double p_up, double up, double down,
                                        double *restrict out)
{
    const __m512i weyl = _mm512_set1_epi64((long long)UINT64_C(0x9E3779B97F4A7C15));
    const __m512i mul1 = _mm512_set1_epi64((long long)UINT64_C(0xBF58476D1CE4E5B9));
    const __m512i mul2 = _mm512_set1_epi64((long long)UINT64_C(0x94D049BB133111EB));
    const __m512i below = _mm512_set1_epi64((long long)draws_below(p_up));
    const __m512d vup = _mm512_set1_pd(up), vdown = _mm512_set1_pd(down);
    size_t p = 0;
    for (; p + 8 <= count; p += 8, out += 8 * n) {
        __m512i counter = _mm512_loadu_si512(bases + p); /* base + 0 * weyl */
        __m512d w = _mm512_set1_pd(1.0);
        for (size_t j = 0; j < n; j += 8) {
            __m512d r[8];
#pragma GCC unroll 8
            for (int s = 0; s < 8; s++) {
                __m512i z = counter = _mm512_add_epi64(counter, weyl);
                z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 30)), mul1);
                z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 27)), mul2);
                z = _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
                __mmask8 is_up = _mm512_cmplt_epu64_mask(_mm512_srli_epi64(z, 11), below);
                r[s] = w = _mm512_mul_pd(w, _mm512_mask_blend_pd(is_up, vdown, vup));
            }
            transpose8(r);
            if (n - j >= 8) {
#pragma GCC unroll 8
                for (size_t l = 0; l < 8; l++)
                    _mm512_storeu_pd(out + l * n + j, r[l]);
            } else {
                __mmask8 head = (__mmask8)((1u << (n - j)) - 1);
#pragma GCC unroll 8
                for (size_t l = 0; l < 8; l++)
                    _mm512_mask_storeu_pd(out + l * n + j, head, r[l]);
            }
        }
    }
    two_point_walk_scalar(bases + p, count - p, n, p_up, up, down, out);
}

ENTRY_V4(two_point_walk)
#endif

/* `a` where `mask` is all ones, `b` where it is zero, selected on the bits.
   At -O2 without -march a `?:` on doubles compiles to a branch, which a
   random u mispredicts half the time; this compiles to no branch. */
static inline double select_double(uint64_t mask, double a, double b)
{
    uint64_t ia, ib;
    memcpy(&ia, &a, sizeof ia);
    memcpy(&ib, &b, sizeof ib);
    ia = (ia & mask) | (ib & ~mask);
    memcpy(&a, &ia, sizeof a);
    return a;
}

/* The base of the power in the inverse CDF (distributions.py): out[i] is
   (1-p)/u[i] on the left branch, u[i] <= 1-p, and p/(1-u[i]) on the right;
   one division of the selected operands, as numpy divides each branch.
   Returns how many u lie outside (0, 1), where `out` means nothing and the
   caller raises; a nan u is not counted and gives nan. */
DRAW_CLONES size_t pareto_base(const double *restrict u, size_t n, double p,
                               double *restrict out)
{
    const double q = 1.0 - p;
    size_t outside = 0;
    for (size_t i = 0; i < n; i++) {
        double v = u[i];
        uint64_t left = -(uint64_t)(v <= q);
        outside += (v <= 0.0) | (v >= 1.0);
        out[i] = select_double(left, q, p) / select_double(left, v, 1.0 - v);
    }
    return outside;
}

/* The quantile from the power z[i] = base**gamma, in place: shift - z[i] on
   the left branch and z[i] - shift on the right, with shift 0.0 for the
   unshifted law and 1.0 for the shifted one. On the left branch the base is
   at least 1, so z[i] >= 1 and 0.0 - z[i] is exactly -z[i]; the shifted
   left branch is 1.0 - z[i], which is +0.0, never -0.0, where z[i] is 1.0. */
DRAW_CLONES void pareto_finish(const double *restrict u, double *restrict z, size_t n, double p,
                               double shift)
{
    const double q = 1.0 - p;
    for (size_t i = 0; i < n; i++) {
        uint64_t left = -(uint64_t)(u[i] <= q);
        double zi = z[i];
        z[i] = select_double(left, shift, zi) - select_double(left, zi, shift);
    }
}

/* The `kind` codes of `series`, as _kernel.py numbers them. */
enum step_kind { LINEAR, NONLINEAR, SRE };

/* One step from `state` with innovation zi: phi * state + zi for the linear
   AR(1), the three-branch form of _kernel.py for the nonlinear one, and
   ai * state + zi for the SRE, with the step's own multiplier ai. A nan state
   fails both comparisons and takes the last branch, as it does in Python.
   Always inlined, so that each caller's constant `kind` selects one branch. */
static inline __attribute__((always_inline)) double
ar1_step(enum step_kind kind, double state, double ai, double zi, double phi, double delta)
{
    if (kind == SRE)
        return ai * state + zi;
    if (kind == NONLINEAR) {
        if (state > 1.0)
            return phi * state + delta * log(state) + zi;
        if (state < -1.0)
            return phi * state - delta * log(-state) + zi;
    }
    return phi * state + zi;
}

/* The recursion on the `width` (1 to 4) rows of n innovations in z, row r
   from states[r], with the multipliers of row r of `a` for the SRE (the
   AR(1) kinds pass z, whose rows they never read as multipliers):
   overwrites each row with its states, in place, and states[r] with its last
   state. The rows step together, one step of each per pass, with their
   states in registers: their chains of steps are independent, so the
   processor overlaps the latency of one row's step (and its `log`) with the
   others'. Each row still takes exactly its own operations in its own
   order, so its bits do not depend on the rows that step beside it. Every
   caller passes a constant `kind` and `width`, so the row loop unrolls into
   straight code (which GCC at -O2 does only when asked). */
static inline __attribute__((always_inline)) void
lockstep(enum step_kind kind, size_t width, const double *a, double *z, size_t n,
         double phi, double delta, double *states)
{
    double s[4];
#pragma GCC unroll 4
    for (size_t r = 0; r < width; r++)
        s[r] = states[r];
    for (size_t i = 0; i < n; i++) {
#pragma GCC unroll 4
        for (size_t r = 0; r < width; r++)
            z[r * n + i] = s[r] = ar1_step(kind, s[r], a[r * n + i], z[r * n + i], phi, delta);
    }
#pragma GCC unroll 4
    for (size_t r = 0; r < width; r++)
        states[r] = s[r];
}

/* `lockstep` on each of the `count` rows of n values of z (and of a), four
   rows at a time and then the last one to three together. */
static inline __attribute__((always_inline)) void
ar1_rows(enum step_kind kind, const double *a, double *z, size_t count, size_t n,
         double phi, double delta, double *states)
{
    size_t p = 0;
    for (; p + 4 <= count; p += 4)
        lockstep(kind, 4, a + p * n, z + p * n, n, phi, delta, states + p);
    if (count - p == 3)
        lockstep(kind, 3, a + p * n, z + p * n, n, phi, delta, states + p);
    else if (count - p == 2)
        lockstep(kind, 2, a + p * n, z + p * n, n, phi, delta, states + p);
    else if (count - p == 1)
        lockstep(kind, 1, a + p * n, z + p * n, n, phi, delta, states + p);
}

/* The series recursion of `kind` on `count` rows (ar1_rows), row p from
   states[p], and states[p] set to its last state, so a caller can carry it
   into the next block: the linear AR(1), state = phi * state + z[i]; the
   nonlinear one, with `delta`; or the SRE, state = a[i] * state + z[i], on
   rows of multipliers `a` and additive parts z. Each kind runs its own copy
   of the loop. */
void series(int kind, const double *a, double *z, size_t count, size_t n, double phi,
            double delta, double *states)
{
    if (kind == LINEAR)
        ar1_rows(LINEAR, a, z, count, n, phi, delta, states);
    else if (kind == NONLINEAR)
        ar1_rows(NONLINEAR, a, z, count, n, phi, delta, states);
    else if (kind == SRE)
        ar1_rows(SRE, a, z, count, n, phi, delta, states);
}

/* The larger of a and b; b when either is nan. */
static inline double max_of(double a, double b)
{
    return a > b ? a : b;
}

/* numpy's pairwise summation (pairwise_sum in loops_utils.h.src) of the
   terms term(x, i, center), i < n <= 128: what numpy adds to a reduction's
   initial 0.0 when the n terms lie along the reduced axis of one row or of
   a 1-d array. A longer row is split in two at n/2 rounded down to a
   multiple of 8, each half summed so, and the two sums added (pairwise_capped
   and pairwise_pi). The eight partial sums are named variables, not an
   array as in numpy, so that the compiler keeps them in registers; the
   additions are the same. Always inlined, so that each caller's constant
   `term` is inlined too. */
static inline __attribute__((always_inline)) double
pairwise_leaf(double (*term)(const double *, size_t, const double *), const double *x,
              size_t n, const double *center)
{
    if (n < 8) {
        double res = -0.0;
        for (size_t i = 0; i < n; i++)
            res += term(x, i, center);
        return res;
    }
    double r0 = term(x, 0, center), r1 = term(x, 1, center), r2 = term(x, 2, center);
    double r3 = term(x, 3, center), r4 = term(x, 4, center), r5 = term(x, 5, center);
    double r6 = term(x, 6, center), r7 = term(x, 7, center);
    double res;
    size_t i;
    for (i = 8; i < n - n % 8; i += 8) {
        r0 += term(x, i, center);
        r1 += term(x, i + 1, center);
        r2 += term(x, i + 2, center);
        r3 += term(x, i + 3, center);
        r4 += term(x, i + 4, center);
        r5 += term(x, i + 5, center);
        r6 += term(x, i + 6, center);
        r7 += term(x, i + 7, center);
    }
    res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
    for (; i < n; i++)
        res += term(x, i, center);
    return res;
}

/* min(x[i], 1) as numpy's minimum takes it; a nan stays nan. */
static inline double capped_term(const double *x, size_t i, const double *center)
{
    (void)center;
    return 1.0 < x[i] ? 1.0 : x[i];
}

/* The pairwise sum of min(x[i], 1), i < n: a C-contiguous row of capped
   values reduced along the row. */
static double pairwise_capped(const double *x, size_t n)
{
    if (n <= 128)
        return pairwise_leaf(capped_term, x, n, NULL);
    size_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_capped(x, n2) + pairwise_capped(x + n2, n - n2);
}

/* The largest of x[0..n-1], n >= 1, over eight running maxima, which the
   processor updates side by side. The maximum of values that are not nan is
   exact in any order; a nan x[i] is passed over unless it is x[0]. */
static double row_max(const double *x, size_t n)
{
    double m0 = x[0], m1 = m0, m2 = m0, m3 = m0, m4 = m0, m5 = m0, m6 = m0, m7 = m0;
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        m0 = max_of(x[i], m0);
        m1 = max_of(x[i + 1], m1);
        m2 = max_of(x[i + 2], m2);
        m3 = max_of(x[i + 3], m3);
        m4 = max_of(x[i + 4], m4);
        m5 = max_of(x[i + 5], m5);
        m6 = max_of(x[i + 6], m6);
        m7 = max_of(x[i + 7], m7);
    }
    for (; i < n; i++)
        m0 = max_of(x[i], m0);
    return max_of(max_of(max_of(m0, m1), max_of(m2, m3)), max_of(max_of(m4, m5), max_of(m6, m7)));
}

/* The per-path summaries of the walk rows (count rows of n >= 1):
   maxima[p] = max_j rows[p][j] and capped_sums[p] = 0.0 + the pairwise sum
   of min(rows[p][j], 1), the same bits as numpy's max and sum along each
   row. Returns the flat index of the first non-finite value, where the
   summaries mean nothing and the caller raises, or count * n when every
   value is finite. A +inf makes the maximum inf, and a nan or -inf makes
   the capped sum nan or -inf, so only a row whose summaries are not both
   finite is searched for its first non-finite value. */
size_t walk_summary(const double *rows, size_t count, size_t n, double *maxima,
                    double *capped_sums)
{
    for (size_t p = 0; p < count; p++, rows += n) {
        double top = row_max(rows, n), sum = 0.0 + pairwise_capped(rows, n);
        if (!(fabs(top) <= DBL_MAX && fabs(sum) <= DBL_MAX))
            for (size_t j = 0; j < n; j++)
                if (!(fabs(rows[j]) <= DBL_MAX))
                    return p * n + j;
        maxima[p] = top;
        capped_sums[p] = sum;
    }
    return count * n;
}

/* Insert v into the descending top[0..i], dropping top[i]. */
static inline void insert_descending(double *top, size_t i, double v)
{
    for (; i > 0 && top[i - 1] < v; i--)
        top[i] = top[i - 1];
    top[i] = v;
}

/* Row p of `capped` (count rows of k+1) holds 1.0, then the k largest of
   min(rows[p][j], 1), j < n, in descending order; 1 <= k <= n. The walk
   values are finite and never -0.0, and capping is monotone, so these are
   min(., 1) of the k largest values, the same bits as a sort: a value is
   only compared and copied. Each row keeps its top values sorted in place.
   Once k values are in, a value enters only above the k-th, `last`; while
   last < 1 that is the same as its uncapped value exceeding last, so most
   values cost one compare, and once last is 1 no value can enter. */
SCALAR_ENTRY(capped_top)(const double *restrict rows, size_t count, size_t n, size_t k,
                         double *restrict capped)
{
    for (size_t p = 0; p < count; p++, rows += n, capped += k + 1) {
        double *top = capped + 1;
        size_t j;
        capped[0] = 1.0; /* min(U_0, 1) */
        for (j = 0; j < k; j++)
            insert_descending(top, j, rows[j] < 1.0 ? rows[j] : 1.0);
        for (double last = top[k - 1]; j < n && last < 1.0; j++) {
            if (rows[j] > last) {
                insert_descending(top, k - 1, rows[j] < 1.0 ? rows[j] : 1.0);
                last = top[k - 1];
            }
        }
    }
}

#ifdef X86_64_V4
/* Inserts v into the descending values of the `vectors` (1 to 4) vectors t,
   dropping the last: a slot keeps its value unless that is below v, and
   then takes the value of the slot before it, or v where that one is not
   below v. These are the moves of insert_descending, decided by the same
   `<`, on every slot at once with no branch. */
V4 static inline __attribute__((always_inline)) void insert_lanes(int vectors, __m512d *t,
                                                                  double v)
{
    const __m512d vv = _mm512_set1_pd(v);
    __m512i before = _mm512_castpd_si512(_mm512_set1_pd(INFINITY)); /* above every slot */
#pragma GCC unroll 4
    for (int i = 0; i < vectors; i++) {
        __m512i slots = _mm512_castpd_si512(t[i]);
        __m512d prev = _mm512_castsi512_pd(_mm512_alignr_epi64(slots, before, 7));
        __mmask8 moves = _mm512_cmp_pd_mask(t[i], vv, _CMP_LT_OQ);
        __mmask8 takes = _mm512_cmp_pd_mask(prev, vv, _CMP_LT_OQ);
        t[i] = _mm512_mask_blend_pd(moves, t[i], _mm512_mask_blend_pd(takes, vv, prev));
        before = slots;
    }
}

/* Slot k-1 of the top values, which lies in the last of the `vectors`. */
V4 static inline __attribute__((always_inline)) double kth(int vectors, const __m512d *t,
                                                          size_t k)
{
    return _mm512_cvtsd_f64(_mm512_permutexvar_pd(_mm512_set1_epi64((long long)((k - 1) % 8)),
                                                  t[vectors - 1]));
}

/* capped_top_scalar on one row, with its top values in `vectors` vectors
   (8 * vectors >= k), stored at `top` at the end. The slots start as -inf,
   below every value (capped at 1.0, so never nan) or equal to it, so the
   first k inserts fill the slots below k as the scalar loop's do. The scan
   tests eight values at a time against `last`: as `last` never falls, a
   value at most `last` at the start of its block cannot enter later in the
   block, so a block with no value above `last` is passed over, and in any
   other block only the values above it are tried, in order, as the scalar
   loop tries them. The last n - k mod 8 values are tried one by one. */
V4 static inline __attribute__((always_inline)) void
top_row(int vectors, const double *restrict row, size_t n, size_t k, double *restrict top)
{
    __m512d t[4];
    size_t j;
#pragma GCC unroll 4
    for (int i = 0; i < vectors; i++)
        t[i] = _mm512_set1_pd(-INFINITY);
    for (j = 0; j < k; j++)
        insert_lanes(vectors, t, row[j] < 1.0 ? row[j] : 1.0);
    double last = kth(vectors, t, k);
    for (; j + 8 <= n && last < 1.0; j += 8) {
        __m512d block = _mm512_loadu_pd(row + j);
        unsigned above = _mm512_cmp_pd_mask(block, _mm512_set1_pd(last), _CMP_GT_OQ);
        for (; above && last < 1.0; above &= above - 1) {
            double v = row[j + (size_t)__builtin_ctz(above)];
            if (v > last) {
                insert_lanes(vectors, t, v < 1.0 ? v : 1.0);
                last = kth(vectors, t, k);
            }
        }
    }
    for (; j < n && last < 1.0; j++) {
        if (row[j] > last) {
            insert_lanes(vectors, t, row[j] < 1.0 ? row[j] : 1.0);
            last = kth(vectors, t, k);
        }
    }
#pragma GCC unroll 4
    for (int i = 0; i + 1 < vectors; i++)
        _mm512_storeu_pd(top + 8 * i, t[i]);
    _mm512_mask_storeu_pd(top + 8 * (vectors - 1),
                          (__mmask8)((1u << (k - 8 * (vectors - 1))) - 1), t[vectors - 1]);
}

/* capped_top_scalar through top_row, with the top values of k <= 32 in
   registers; a larger k runs capped_top_scalar itself. */
V4 static void capped_top_x86_64_v4(const double *restrict rows, size_t count, size_t n,
                                    size_t k, double *restrict capped)
{
    if (k > 32) {
        capped_top_scalar(rows, count, n, k, capped);
        return;
    }
    for (size_t p = 0; p < count; p++, rows += n, capped += k + 1) {
        capped[0] = 1.0; /* min(U_0, 1) */
        switch ((k + 7) / 8) {
        case 1: top_row(1, rows, n, k, capped + 1); break;
        case 2: top_row(2, rows, n, k, capped + 1); break;
        case 3: top_row(3, rows, n, k, capped + 1); break;
        default: top_row(4, rows, n, k, capped + 1);
        }
    }
}

ENTRY_V4(capped_top)
#endif

/* x, or (x - center[c])**2 when there is a center: a term of a sum, or of a
   sum of squared deviations. */
static inline double term(double x, const double *center, size_t c)
{
    if (center) {
        x = x - center[c];
        x = x * x;
    }
    return x;
}

/* The one pi term of row i of a capped array of width 3,
   (c[0] - c[1]) - (c[1] - c[2]), as a `term`. */
static inline double pi_term(const double *capped, size_t i, const double *center)
{
    const double *row = capped + 3 * i;
    return term((row[0] - row[1]) - (row[1] - row[2]), center, 0);
}

/* The pairwise sum of the pi terms of rows i < n: an array of one column
   reduced over its rows as a 1-d array. */
static double pairwise_pi(const double *capped, size_t n, const double *center)
{
    if (n <= 128)
        return pairwise_leaf(pi_term, capped, n, center);
    size_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_pi(capped, n2, center) + pairwise_pi(capped + 3 * n2, n - n2, center);
}

/* Column sums over the rows of `capped` of the `term`s of its per-path theta
   terms d_c = capped[c] - capped[c+1], c < width-1, and pi terms
   pi_c = d_c - d_{c+1}, c < width-2, each made on the fly, in numpy's order
   for the arrays of these terms: a C-contiguous (count, m >= 2) array sums
   its rows in order onto 0.0, and a (count, 1) one sums pairwise. */
static void sum_terms(const double *capped, size_t count, size_t width,
                      const double *theta_center, const double *pi_center,
                      double *theta_sum, double *pi_sum)
{
    const size_t npi = width - 2;
    for (size_t c = 0; c <= npi; c++)
        theta_sum[c] = 0.0;
    for (size_t c = 0; c < npi; c++)
        pi_sum[c] = 0.0;
    for (size_t p = 0; p < count; p++) {
        const double *row = capped + p * width;
        double d = row[0] - row[1];
        for (size_t c = 0; c < npi; c++) {
            double next = row[c + 1] - row[c + 2];
            theta_sum[c] += term(d, theta_center, c);
            if (npi > 1)
                pi_sum[c] += term(d - next, pi_center, c);
            d = next;
        }
        theta_sum[npi] += term(d, theta_center, npi);
    }
    if (npi == 1)
        pi_sum[0] += pairwise_pi(capped, count, pi_center);
}

/* Means and standard deviations (ddof 1) over the count >= 2 rows of
   `capped` (width >= 3 columns) of its per-path theta and pi terms, in two
   passes, with the same bits as numpy's mean and std(ddof=1) over axis 0 of
   the arrays of these terms: the mean is the column sum over count, and
   the deviation sqrt(sum((x - mean)**2) / (count-1)). */
void cluster_moments(const double *capped, size_t count, size_t width,
                     double *theta_mean, double *theta_sd, double *pi_mean, double *pi_sd)
{
    sum_terms(capped, count, width, NULL, NULL, theta_mean, pi_mean);
    for (size_t c = 0; c < width - 1; c++)
        theta_mean[c] = theta_mean[c] / (double)count;
    for (size_t c = 0; c < width - 2; c++)
        pi_mean[c] = pi_mean[c] / (double)count;
    sum_terms(capped, count, width, theta_mean, pi_mean, theta_sd, pi_sd);
    for (size_t c = 0; c < width - 1; c++)
        theta_sd[c] = sqrt(theta_sd[c] / (double)(count - 1));
    for (size_t c = 0; c < width - 2; c++)
        pi_sd[c] = sqrt(pi_sd[c] / (double)(count - 1));
}
