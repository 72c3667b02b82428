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
 * Two entries run every pass of a shard in one call: ``ipc_forward`` (the
 * write's decompose, the baselines' transform) and ``ipc_reconstruct``
 * (every read).  The float operations, their order included, are those of
 * the numpy sweep and quantizer the predictor was first written as; build
 * with -ffp-contract=off so that no multiply-add is fused and every answer
 * stays bitwise.  (A NaN's sign is the one thing not kept: IEEE 754 leaves
 * it open, and numpy's own loops disagree on it when two NaNs meet.)
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

/* What a pass does at each target, from its prediction ``pred``. */
enum {
    ADD_ZERO = 0, /* reconstruct: x = pred + 0.0 */
    ADD_DIFF = 1, /* reconstruct: x = pred + diff */
    ADD_CODE = 2, /* reconstruct: x = pred + (double)code * w */
    QUANTIZE = 3, /* decompose: code = Q(data - pred), x = pred + (double)code * w */
    RESIDUAL = 4  /* transform: out = x - pred, x left as it is */
};
enum { LINEAR, CUBIC, COPY };

#define LIN(p) (((p)[-off] + (p)[off]) * 0.5)
#define CUB(p) \
    (((-(p)[-3 * off] / 16.0 + 9.0 * (p)[-off] / 16.0) + 9.0 * (p)[off] / 16.0) - (p)[3 * off] / 16.0)
#define CPY(p) ((p)[-off])

/* Target ``j`` of a line is ``t[j * s]``; BODY sees its prediction. */
#define LINE(RULE, BODY)                         \
    for (int64_t j = 0; j < n; ++j) {            \
        const ptrdiff_t i = j * s;               \
        const double pred = RULE(t + i);         \
        BODY;                                    \
    }

#define RULES(BODY)             \
    if (rule == LINEAR) {       \
        LINE(LIN, BODY)         \
    } else if (rule == CUBIC) { \
        LINE(CUB, BODY)         \
    } else {                    \
        LINE(CPY, BODY)         \
    }

/* The arrays a pass reads and writes besides the field ``x``. */
struct io {
    const void *in; /* diffs or codes (reconstruct), the original field (decompose) */
    void *out;      /* codes (decompose), residuals (transform) */
    double w;       /* the bin width */
};

/* ``LinearQuantizer.quantize`` of one difference, bit for bit: numpy's
 * ``rint`` (half to even), its x86 cast (NaN and anything out of range
 * become INT64_MIN), then up to two nudges of one bin toward ``y`` while
 * the decoder's ``(double)q * w`` misses ``y`` by more than half a bin.  The
 * nudges wrap like numpy's int64, so the sum runs in unsigned arithmetic.
 * ``*qw`` gets the final code's ``(double)q * w``. */
static int64_t quantize(double y, double w, double *qw)
{
    const double r = rint(y / w), half = 0.5 * w;
    uint64_t q = r >= -0x1p63 && r < 0x1p63 ? (uint64_t)(int64_t)r : (uint64_t)INT64_MIN;
    double back = (double)(int64_t)q * w;
    for (int round = 0; round < 2; ++round) {
        const double e = y - back;
        if (e > half) {
            q += 1;
        } else if (e < -half) {
            q -= 1;
        } else {
            break;
        }
        back = (double)(int64_t)q * w;
    }
    *qw = back;
    return (int64_t)q;
}

/* ``n`` targets, ``s`` elements apart, from element ``at`` of ``x`` on; the
 * line's dense arrays start at element ``j0``. */
static void run(int rule, int kind, double *x, ptrdiff_t at, ptrdiff_t s, ptrdiff_t off,
                int64_t n, int64_t j0, const struct io *io)
{
    double *t = x + at;
    const double w = io->w;
    switch (kind) {
    case ADD_ZERO:
        RULES(t[i] = pred + 0.0)
        break;
    case ADD_DIFF: {
        const double *diff = (const double *)io->in + j0;
        RULES(t[i] = pred + diff[j])
        break;
    }
    case ADD_CODE: {
        const int64_t *code = (const int64_t *)io->in + j0;
        RULES(t[i] = pred + (double)code[j] * w)
        break;
    }
    case QUANTIZE: {
        const double *data = (const double *)io->in + at;
        int64_t *code = (int64_t *)io->out + j0;
        RULES(double qw; code[j] = quantize(data[i] - pred, w, &qw); t[i] = pred + qw)
        break;
    }
    default: {
        double *residual = (double *)io->out + j0;
        RULES(residual[j] = t[i] - pred)
        break;
    }
    }
}

/* One pass of ``kind`` over ``x``; returns its number of targets. */
static int64_t pass(const int64_t *row, int cubic, int kind, double *x, const struct io *io)
{
    const int64_t nd = row[0], dim = row[1], k = row[2], off = row[3];
    const int64_t *count = row + 5, *stride = row + 5 + nd;
    const int64_t last = nd - 1, n = count[last], s = stride[last];
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
    int64_t at = row[4], flat = 0;
    for (int64_t l = 0; l < lines; ++l, flat += n) {
        if (dim == last) {
            for (int r = 0; r < 4; ++r) {
                const int64_t a = bound[r], b = bound[r + 1];
                if (b > a) {
                    run(rules[r], kind, x, at + a * s, s, off, b - a, flat + a, io);
                }
            }
        } else {
            const int64_t i = idx[dim];
            const int rule = i < lo ? LINEAR : i < hi ? CUBIC : i < k - 1 ? LINEAR : COPY;
            run(rule, kind, x, at, s, off, n, flat, io);
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
    return lines * n;
}

/* Every pass of a reconstruction, in table order, in place in ``x``.  Pass
 * ``p`` adds ``+ 0.0`` (kinds[p] == ADD_ZERO), ``+ diff`` (ADD_DIFF, float64
 * diffs at adds[p]) or ``+ (double)code * w`` (ADD_CODE, int64 codes). */
void ipc_reconstruct(double *x, const int64_t *table, int64_t npasses, int64_t cubic,
                     const void *const *adds, const int64_t *kinds, double w)
{
    for (int64_t p = 0; p < npasses; ++p, table += 5 + 2 * table[0]) {
        const struct io io = {adds[p], NULL, w};
        pass(table, (int)cubic, (int)kinds[p], x, &io);
    }
}

/* Every pass of a decomposition, in table order; each pass's outputs follow
 * the last pass's in ``out``, in its targets' C order.  With ``xhat``
 * (decompose) a pass predicts from the reconstruction there, quantizes
 * ``data - pred`` with bin width ``w`` into int64 codes and writes
 * ``pred + (double)code * w`` back; without (transform) it predicts from
 * ``data`` itself and writes the float64 residuals ``data - pred``. */
void ipc_forward(const double *data, double *xhat, const int64_t *table, int64_t npasses,
                 int64_t cubic, void *out, double w)
{
    const int kind = xhat ? QUANTIZE : RESIDUAL;
    /* A transform reads ``data`` as the field and never writes it. */
    double *x = xhat ? xhat : (double *)data;
    const size_t width = xhat ? sizeof(int64_t) : sizeof(double);
    char *next = out;
    for (int64_t p = 0; p < npasses; ++p, table += 5 + 2 * table[0]) {
        const struct io io = {data, next, w};
        next += width * (size_t)pass(table, (int)cubic, kind, x, &io);
    }
}
