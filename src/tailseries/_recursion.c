/* The compiled kernel of tailseries: the SplitMix64 uniforms of rng.py, the
arithmetic around the power in the Pareto inverse CDF of distributions.py,
the two-point geometric walk and the two AR(1) recursions of simulate.py.

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
*/

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

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
void uniforms(const uint64_t *bases, size_t count, uint64_t first, size_t n, double *out)
{
    for (size_t p = 0; p < count; p++)
        for (size_t i = 0; i < n; i++)
            *out++ = splitmix_uniform(bases[p], first + i);
}

/* Row p of `out` (count rows of n) holds the running product of the
   multipliers `up` (draw below p_up) or `down` of draws 1..n of the stream
   bases[p]. The product starts at 1.0, and 1.0 * a is exactly a. */
void two_point_walk(const uint64_t *bases, size_t count, size_t n, double p_up,
                    double up, double down, double *out)
{
    for (size_t p = 0; p < count; p++) {
        double w = 1.0;
        for (size_t j = 0; j < n; j++) {
            w = w * (splitmix_uniform(bases[p], j + 1) < p_up ? up : down);
            *out++ = w;
        }
    }
}

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
size_t pareto_base(const double *u, size_t n, double p, double *out)
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
void pareto_finish(const double *u, double *z, size_t n, double p, double shift)
{
    const double q = 1.0 - p;
    for (size_t i = 0; i < n; i++) {
        uint64_t left = -(uint64_t)(u[i] <= q);
        double zi = z[i];
        z[i] = select_double(left, shift, zi) - select_double(left, zi, shift);
    }
}

/* Linear AR(1): state = phi * state + z[i]. Overwrites z with the states, in
   place, and returns the last state, so a caller can carry it into the next
   block. */
double linear_ar1(double *z, size_t n, double phi, double state)
{
    for (size_t i = 0; i < n; i++) {
        state = phi * state + z[i];
        z[i] = state;
    }
    return state;
}

/* Nonlinear AR(1) in the three-branch form of _kernel.py, in place like
   linear_ar1. A nan state fails both comparisons and takes the last branch,
   as it does in Python. */
double nonlinear_ar1(double *z, size_t n, double phi, double delta, double state)
{
    for (size_t i = 0; i < n; i++) {
        if (state > 1.0)
            state = phi * state + delta * log(state) + z[i];
        else if (state < -1.0)
            state = phi * state - delta * log(-state) + z[i];
        else
            state = phi * state + z[i];
        z[i] = state;
    }
    return state;
}
