/* The interpolation sweep of repro.core.interpolation (§4.1–§4.3, Fig. 3).
 *
 * A predictor describes its (level, dim) passes as one int64 pass table,
 * one row per pass in processing order:
 *
 *     ndim, dim, k, off, start, count[0..ndim-1], stride[0..ndim-1]
 *
 * ``count`` and ``stride`` are the target lattice's extent and element step
 * per axis in the C-contiguous field, ``start`` the element offset of its
 * first point, ``k`` the number of known points along ``dim`` and ``off``
 * the element distance from a target to its nearest known neighbours.
 * Target ``i`` along ``dim`` lies half-way between known points ``i`` and
 * ``i + 1``: linear averages them, cubic (for 1 <= i < k - 2) spans known
 * points ``i - 1`` to ``i + 2``, and a trailing target ``k - 1`` with no
 * right neighbour copies the left one.
 *
 * The float operations, their order included, are those of the numpy sweep
 * the predictor was first written as; build with -ffp-contract=off so that
 * no multiply-add is fused and every answer stays bitwise.  (A NaN's sign
 * is the one thing not kept: IEEE 754 leaves it open, and numpy's own loops
 * disagree on it when two NaNs meet.)
 */

#include <stddef.h>
#include <stdint.h>

/* What a target gets on top of its prediction. */
enum { ADD_ZERO = 0, ADD_DIFF = 1, ADD_CODE = 2, PREDICT_ONLY = 3 };
enum { LINEAR, CUBIC, COPY };

#define LIN(p) (((p)[-off] + (p)[off]) * 0.5)
#define CUB(p) \
    (((-(p)[-3 * off] / 16.0 + 9.0 * (p)[-off] / 16.0) + 9.0 * (p)[off] / 16.0) - (p)[3 * off] / 16.0)
#define CPY(p) ((p)[-off])

#define LINE(RULE, ADD)                                           \
    for (int64_t j = 0; j < n; ++j, src += s, dst += ds) {        \
        *dst = RULE(src) ADD;                                     \
    }

#define RULES(ADD)              \
    if (rule == LINEAR) {       \
        LINE(LIN, ADD)          \
    } else if (rule == CUBIC) { \
        LINE(CUB, ADD)          \
    } else {                    \
        LINE(CPY, ADD)          \
    }

/* ``n`` targets from ``src`` on, ``s`` elements apart, land at ``dst`` on,
 * ``ds`` elements apart; ``extra`` holds their diffs or codes in order. */
static void run(int rule, int add, const double *src, ptrdiff_t s, ptrdiff_t off,
                double *dst, ptrdiff_t ds, int64_t n, const void *extra, double w)
{
    const double *diff = extra;
    const int64_t *code = extra;
    switch (add) {
    case ADD_ZERO:
        RULES(+ 0.0)
        break;
    case ADD_DIFF:
        RULES(+ diff[j])
        break;
    case ADD_CODE:
        RULES(+ (double)code[j] * w)
        break;
    default:
        RULES()
        break;
    }
}

/* One pass.  With ``pred`` the predictions are written there, densely in the
 * targets' C order; otherwise each target of ``x`` gets its prediction plus
 * what ``add`` says. */
static void pass(const int64_t *row, int cubic, double *x, double *pred, int add,
                 const char *extra, double w)
{
    const int64_t nd = row[0], dim = row[1], k = row[2], off = row[3];
    const int64_t *count = row + 5, *stride = row + 5 + nd;
    const int64_t last = nd - 1, n = count[last], s = stride[last];
    const size_t width = add == ADD_CODE ? sizeof(int64_t) : sizeof(double);
    const ptrdiff_t ds = pred ? 1 : s;
    int64_t lo = k - 1, hi = k - 1;
    if (cubic && k > 3) {
        lo = 1;
        hi = k - 2;
    }
    /* Segments of the line along ``dim``: [0, lo) linear, [lo, hi) cubic,
     * [hi, k - 1) linear, [k - 1, count) copy. */
    const int64_t bound[5] = {0, lo, hi, k - 1, count[dim]};
    const int rules[4] = {LINEAR, CUBIC, LINEAR, COPY};
    int64_t lines = 1, idx[nd];
    for (int64_t a = 0; a < last; ++a) {
        lines *= count[a];
        idx[a] = 0;
    }
    double *base = x + row[4];
    int64_t at = 0, flat = 0;
    for (int64_t l = 0; l < lines; ++l, flat += n) {
        double *src = base + at;
        double *dst = pred ? pred + flat : src;
        const char *more = extra ? extra + flat * width : NULL;
        if (dim == last) {
            for (int r = 0; r < 4; ++r) {
                const int64_t a = bound[r], b = bound[r + 1];
                if (b > a) {
                    run(rules[r], add, src + a * s, s, off, dst + a * ds, ds, b - a,
                        more ? more + a * width : NULL, w);
                }
            }
        } else {
            const int64_t i = idx[dim];
            const int rule = i < lo ? LINEAR : i < hi ? CUBIC : i < k - 1 ? LINEAR : COPY;
            run(rule, add, src, s, off, dst, ds, n, more, w);
        }
        for (int64_t a = last - 1; a >= 0; --a) {
            at += stride[a];
            if (++idx[a] < count[a]) {
                break;
            }
            at -= stride[a] * count[a];
            idx[a] = 0;
        }
    }
}

/* Every pass of a reconstruction, in table order, in place in ``x``.  Pass
 * ``p`` adds ``+ 0.0`` (kinds[p] == ADD_ZERO), ``+ diff`` (ADD_DIFF, float64
 * diffs at adds[p]) or ``+ (double)code * w`` (ADD_CODE, int64 codes). */
void ipc_reconstruct(double *x, const int64_t *table, int64_t npasses, int64_t cubic,
                     const void *const *adds, const int64_t *kinds, double w)
{
    for (int64_t p = 0; p < npasses; ++p, table += 5 + 2 * table[0]) {
        pass(table, (int)cubic, x, NULL, (int)kinds[p], adds[p], w);
    }
}

/* The predictions of the pass at ``row`` from ``x``, into ``out``. */
void ipc_predict(const double *x, const int64_t *row, int64_t cubic, double *out)
{
    pass(row, (int)cubic, (double *)x, out, PREDICT_ONLY, NULL, 0.0);
}
