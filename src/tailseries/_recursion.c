/* The two AR(1) recursions of tailseries.simulate, over double buffers.

Each function overwrites its first buffer with the states, in place, and
returns the last state, so a caller can carry it into the next block. Plain C
with no Python C-API: simulate.py compiles this file with

    cc -O2 -ffp-contract=off -fPIC -shared -o <library> _recursion.c -lm

and calls it through ctypes. Never build it with -ffast-math or -march, and
keep -ffp-contract=off: a multiply and an add fused into one FMA round once
instead of twice, which changes the last bit on targets that have FMA.

With contraction off, every `*` and `+` below is one IEEE-754 double
operation rounded to nearest, the same operation CPython performs on floats,
and `log` is the C library's, the same one `math.log` calls for finite
positive arguments. So each function reproduces its Python twin in
simulate.py bit for bit; the comments there say why each twin equals the
documented formula.
*/

#include <math.h>
#include <stddef.h>

/* Linear AR(1): state = phi * state + z[i]. */
double linear_ar1(double *z, size_t n, double phi, double state)
{
    for (size_t i = 0; i < n; i++) {
        state = phi * state + z[i];
        z[i] = state;
    }
    return state;
}

/* Nonlinear AR(1) in the three-branch form of simulate.py. A nan state fails
   both comparisons and takes the last branch, as it does in Python. */
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
