/* The C half of IPComp's read and write paths: the interpolation sweep of
 * repro.core.interpolation (§4.1–§4.3, Fig. 3), the plane decode and
 * encode of repro.core.kernels (§4.4), the δ tables of
 * repro.core.negabinary (§5) and the loading planner's DP of
 * repro.core.optimizer (§5), the latter four after the sweep.
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
#include <stdlib.h>
#include <string.h>

/* What a pass does at each target, from its prediction ``pred``. */
enum {
    ADD_ZERO, /* reconstruct: x = pred + 0.0 */
    ADD_CODE, /* reconstruct: x = pred + (double)code * w */
    QUANTIZE, /* decompose: code = Q(data - pred), x = pred + (double)code * w */
    RESIDUAL  /* transform: out = x - pred, x left as it is */
};
enum { LINEAR, CUBIC, COPY };
/* ``ipc_forward``'s refusals, as bits: a difference with no int64 code, and
 * an x̂ that misses its original by more than w / 2 · (1 + SLACK). */
enum { NO_CODE = 1, MISSED = 2 };
#define SLACK 0x1p-20

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
    const void *in; /* codes (reconstruct), the original field (decompose) */
    void *out;      /* codes (decompose), residuals (transform) */
    double w;       /* the bin width */
    int *flags;     /* decompose ORs NO_CODE and MISSED into it */
};

/* ``LinearQuantizer.quantize`` of one difference, bit for bit: numpy's
 * ``rint`` (half to even), the cast, then up to two nudges of one bin toward
 * ``y`` while the decoder's ``(double)q * w`` misses ``y`` by more than half
 * a bin.  A rounded quotient that is NaN or not below 2^63 in magnitude has
 * no code: NO_CODE is set in ``*flags``, and the caller refuses the field.
 * Below it, ``|r|`` is at most 2^63 - 1024 (the last double), so neither the
 * cast nor the nudges can overflow.  ``*qw`` gets the final code's
 * ``(double)q * w``. */
static int64_t quantize(double y, double w, double *qw, int *flags)
{
    const double r = rint(y / w), half = 0.5 * w;
    if (!(fabs(r) < 0x1p63)) {
        *flags |= NO_CODE;
        *qw = 0.0;
        return 0;
    }
    int64_t q = (int64_t)r;
    double back = (double)q * w;
    for (int round = 0; round < 2; ++round) {
        const double e = y - back;
        if (!(e > half || e < -half)) {
            break;
        }
        q += e > half ? 1 : -1;
        back = (double)q * w;
    }
    *qw = back;
    return q;
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
    case ADD_CODE: {
        const int64_t *code = (const int64_t *)io->in + j0;
        RULES(t[i] = pred + (double)code[j] * w)
        break;
    }
    case QUANTIZE: {
        /* ``pred + qw`` rounds to the field's float spacing: a miss within
         * SLACK is rounding far finer than the bound, but where the spacing
         * nears ``w`` x̂ misses by up to twice the bound. */
        const double *data = (const double *)io->in + at;
        const double limit = 0.5 * w * (1.0 + SLACK);
        int64_t *code = (int64_t *)io->out + j0;
        int flags = 0;
        double worst = 0.0;
        RULES(const double v = data[i]; double qw; code[j] = quantize(v - pred, w, &qw, &flags);
              const double xhat = pred + qw; t[i] = xhat; const double miss = fabs(v - xhat);
              worst = miss > worst ? miss : worst)
        *io->flags |= flags | (worst > limit ? MISSED : 0);
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
    const int spline = cubic && k > 3;
    const int64_t lo = spline ? 1 : k - 1, hi = spline ? k - 2 : k - 1;
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

/* The number of targets of the pass at ``row``. */
static int64_t targets(const int64_t *row)
{
    int64_t n = 1;
    for (int64_t a = 0; a < row[0]; ++a) {
        n *= row[5 + a];
    }
    return n;
}

/* Every pass of a reconstruction, in table order, in place in ``x``.  Pass
 * ``p`` adds ``+ (double)code * w`` for its targets' int64 codes at element
 * ``offsets[p]`` of ``codes`` (``ncodes`` of them), or ``+ 0.0`` where
 * ``offsets[p]`` is negative.  Every pass's codes are checked to lie inside
 * ``codes`` before any pass runs; returns 0, or 1 + the first pass whose
 * do not. */
int64_t ipc_reconstruct(double *x, const int64_t *table, int64_t npasses, int64_t cubic,
                        const int64_t *codes, int64_t ncodes, const int64_t *offsets, double w)
{
    const int64_t *row = table;
    for (int64_t p = 0; p < npasses; ++p, row += 5 + 2 * row[0]) {
        if (offsets[p] >= 0 && (offsets[p] > ncodes || targets(row) > ncodes - offsets[p])) {
            return p + 1;
        }
    }
    for (int64_t p = 0; p < npasses; ++p, table += 5 + 2 * table[0]) {
        const struct io io = {offsets[p] >= 0 ? codes + offsets[p] : NULL, NULL, w, NULL};
        pass(table, (int)cubic, offsets[p] >= 0 ? ADD_CODE : ADD_ZERO, x, &io);
    }
    return 0;
}

/* Every pass of a decomposition, in table order; each pass's outputs follow
 * the last pass's in ``out``, in its targets' C order.  With ``xhat``
 * (decompose) a pass predicts from the reconstruction there, quantizes
 * ``data - pred`` with bin width ``w`` into int64 codes and writes
 * ``pred + (double)code * w`` back; without (transform) it predicts from
 * ``data`` itself and writes the float64 residuals ``data - pred``.
 * Returns the refusal bits some point set (0: none, and the outputs hold). */
int64_t ipc_forward(const double *data, double *xhat, const int64_t *table, int64_t npasses,
                    int64_t cubic, void *out, double w)
{
    const int kind = xhat ? QUANTIZE : RESIDUAL;
    /* A transform reads ``data`` as the field and never writes it. */
    double *x = xhat ? xhat : (double *)data;
    const size_t width = xhat ? sizeof(int64_t) : sizeof(double);
    char *next = out;
    int flags = 0;
    for (int64_t p = 0; p < npasses; ++p, table += 5 + 2 * table[0]) {
        const struct io io = {data, next, w, &flags};
        next += width * (size_t)pass(table, (int)cubic, kind, x, &io);
    }
    return flags;
}

/* ------------------------------------------------------------ plane decode
 *
 * ``ipc_decode_planes`` inverts repro.core.kernels' plane encode for every
 * level of a shard in one call: XOR-prefix un-prediction, bitplanes to
 * values, negabinary to int64.  A level arrives as its loaded packed plane
 * rows, most significant first: ``keep`` rows of ``ceil(count / 8)`` bytes,
 * row ``r`` holding bit ``nbits - 1 - r`` of every value, value ``8c + i``
 * at bit ``i`` of byte ``c``.  Unloaded low planes count as zero.
 *
 * A level is decoded CHUNK packed columns (8 * CHUNK values) at a time.  The
 * chunk's rows are laid position-major into ``plane`` (row ``p`` = bit
 * ``p``) and un-predicted top-down.  Byte group ``g`` of the values is then
 * one 8x8 bit transpose per column: the uint64 whose byte ``r`` is bit
 * ``8g + r`` of the column's 8 values becomes the one whose byte ``i`` is
 * byte ``g`` of value ``8c + i``.  Groups go two at a time, so a level of up
 * to 16 planes writes each word once.  Every column loop runs a multiple of
 * 16 columns, the tail zero-padded, and reads one local array: GCC
 * vectorises the XOR, the transposes and the stores at -O2. */

#define CHUNK 256
/* The negabinary mask: a code ``nb`` is the integer ``(nb ^ M) - M``. */
#define NEGABINARY 0xAAAAAAAAAAAAAAAAull

typedef const uint8_t (*rows8)[CHUNK];

/* ``dst ^= src`` over a chunk's first ``width`` columns. */
static void xor_row(uint8_t *restrict dst, const uint8_t *restrict src, int width)
{
    for (int c = 0; c < width; ++c) {
        dst[c] ^= src[c];
    }
}

/* Column ``c`` of rows 8g … 8g + 7 as one uint64 (byte ``r`` from row
 * ``r``), transposed by the three masked swaps of Hacker's Delight
 * ``transpose8`` (its own inverse): byte ``i`` is then byte ``g`` of value
 * ``8c + i``. */
static inline uint64_t column(rows8 rows, int c)
{
    uint64_t x = (uint64_t)rows[0][c] | (uint64_t)rows[1][c] << 8 |
                 (uint64_t)rows[2][c] << 16 | (uint64_t)rows[3][c] << 24 |
                 (uint64_t)rows[4][c] << 32 | (uint64_t)rows[5][c] << 40 |
                 (uint64_t)rows[6][c] << 48 | (uint64_t)rows[7][c] << 56;
    uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAull;
    x ^= t ^ (t << 7);
    t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCull;
    x ^= t ^ (t << 14);
    t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ull;
    x ^= t ^ (t << 28);
    return x;
}

/* Bytes ``g`` and ``g + 1`` of value ``8c + i``, from the columns of both
 * groups, at their place in the word. */
#define PAIR(i) (((x >> 8 * (i) & 0xFF) | (y >> 8 * (i) & 0xFF) << 8) << shift)
#define STORE(i) w[i] = (PAIR(i) ^ mask) - mask
#define MERGE(i) w[i] = ((w[i] | PAIR(i)) ^ mask) - mask

/* Byte groups ``g`` and ``g + 1`` of a chunk's values into their words: the
 * first pair stores them, a later one ORs them in, and the last (``mask``
 * NEGABINARY, else 0) maps each word from negabinary. */
static void pair(rows8 restrict low, rows8 restrict high, int g, int first, uint64_t mask,
                 int width, uint64_t *restrict word)
{
    const int shift = 8 * g;
    if (first) {
        for (int c = 0; c < width; ++c) {
            const uint64_t x = column(low, c), y = column(high, c);
            uint64_t *const w = word + 8 * c;
            STORE(0); STORE(1); STORE(2); STORE(3); STORE(4); STORE(5); STORE(6); STORE(7);
        }
    } else {
        for (int c = 0; c < width; ++c) {
            const uint64_t x = column(low, c), y = column(high, c);
            uint64_t *const w = word + 8 * c;
            MERGE(0); MERGE(1); MERGE(2); MERGE(3); MERGE(4); MERGE(5); MERGE(6); MERGE(7);
        }
    }
}

/* One level's ``count`` codes into ``out``; 0 <= keep <= nbits <= 64. */
static void decode_level(const uint8_t *rows, int64_t count, int nbits, int keep, int prefix,
                         uint64_t *out)
{
    if (keep == 0) {
        memset(out, 0, sizeof *out * (size_t)count);
        return;
    }
    const int64_t nbytes = (count + 7) / 8;
    const int bottom = nbits - keep, lo = bottom / 8, hi = (nbits + 7) / 8;
    /* Eight rows past bit 63, so that the last pair always has a high group. */
    uint8_t plane[72][CHUNK];
    uint64_t tail[8 * CHUNK];
    /* Rows of the decoded groups that hold no loaded plane stay zero. */
    memset(plane[8 * lo], 0, CHUNK * (size_t)(bottom - 8 * lo));
    memset(plane[nbits], 0, CHUNK * (size_t)(8 * hi + 8 - nbits));
    for (int64_t c0 = 0; c0 < nbytes; c0 += CHUNK) {
        const int cols = (int)(nbytes - c0 < CHUNK ? nbytes - c0 : CHUNK);
        const int width = (cols + 15) & ~15;
        for (int p = bottom; p < nbits; ++p) {
            memcpy(plane[p], rows + (nbits - 1 - p) * nbytes + c0, (size_t)cols);
            memset(plane[p] + cols, 0, (size_t)(width - cols));
        }
        for (int p = nbits - 2; p >= bottom; --p) {
            for (int j = 1; j <= prefix && p + j < nbits; ++j) {
                xor_row(plane[p], plane[p + j], width);
            }
        }
        /* A whole chunk of values is decoded in place, a short one beside. */
        const int64_t n = count - 8 * c0;
        uint64_t *const word = n >= 8 * width ? out + 8 * c0 : tail;
        for (int g = lo; g < hi; g += 2) {
            pair((rows8)plane[8 * g], (rows8)plane[8 * g + 8], g, g == lo,
                 g + 2 >= hi ? NEGABINARY : 0, width, word);
        }
        if (word == tail) {
            memcpy(out + 8 * c0, tail, sizeof *tail * (size_t)n);
        }
    }
}

/* Every level of a shard, from one buffer of ``size`` bytes holding the
 * loaded rows: level ``l`` is ``levels[4l … 4l + 3]`` = (offset, keep,
 * count, nbits), its ``keep`` rows at byte ``offset`` of ``rows``, and it
 * writes its ``count`` int64 codes after the previous level's in ``out``.
 * Every level is checked before any is decoded: 0 <= count, 0 <= keep <=
 * nbits <= 64 and 0 <= offset <= size, its rows inside the buffer.
 * Returns 0, or 1 + the first level that fails; the caller checks
 * 0 <= prefix <= 3. */
int64_t ipc_decode_planes(const uint8_t *rows, int64_t size, const int64_t *levels,
                          int64_t nlevels, int64_t prefix, int64_t *out)
{
    for (int64_t l = 0; l < nlevels; ++l) {
        const int64_t *const level = levels + 4 * l;
        const int64_t offset = level[0], keep = level[1], count = level[2], nbits = level[3];
        if (count < 0 || keep < 0 || keep > nbits || nbits > 64 || offset < 0 || offset > size) {
            return l + 1;
        }
        /* ceil(count / 8) without overflow; the rows fit iff keep * nbytes
         * <= size - offset, tested without the product. */
        const int64_t nbytes = count / 8 + (count % 8 != 0);
        if (keep > 0 && nbytes > (size - offset) / keep) {
            return l + 1;
        }
    }
    uint64_t *next = (uint64_t *)out;
    for (int64_t l = 0; l < nlevels; ++l, levels += 4) {
        decode_level(rows + levels[0], levels[2], (int)levels[3], (int)levels[1], (int)prefix,
                     next);
        next += levels[2];
    }
    return 0;
}

/* ------------------------------------------------------------ plane encode
 *
 * ``ipc_encode_planes`` is the decode's mirror, the write's plane chain for
 * every level of a shard in one call: int64 to negabinary, values to
 * bitplanes, XOR-prefix prediction.  A level's width is the bit length of
 * the OR of its negabinary words (at least 1, so that a level of zeros
 * still has a plane), and it writes that many packed rows, most significant
 * first, in the layout the decode reads.
 *
 * A level is encoded CHUNK packed columns (8 * CHUNK values) at a time.
 * Byte group ``g`` of the chunk's words is split out into ``byte``; the
 * eight bytes of column ``c`` there are one uint64 whose ``transpose8`` has
 * in byte ``r`` bit ``8g + r`` of the column's 8 values, so a byte store
 * each lays the column into the position-major ``plane`` rows.  Each row
 * then XORs in the ``prefix`` rows above it (ascending, so that those are
 * still unpredicted) and is copied out.  Like the decode, every column loop
 * runs a multiple of 16 columns over local arrays, the tail zero-padded. */

/* ``byte[v]`` = byte ``g`` of value ``v``'s negabinary word, ``n`` values,
 * ``n`` a multiple of 16. */
static void split(const int64_t *restrict codes, int g, int n, uint8_t *restrict byte)
{
    const int shift = 8 * g;
    for (int v = 0; v < n; ++v) {
        byte[v] = (uint8_t)((((uint64_t)codes[v] + NEGABINARY) ^ NEGABINARY) >> shift);
    }
}

/* Every column of one byte group, ``split`` into ``byte``, into the eight
 * ``plane`` rows of its bits. */
static void scatter(const uint8_t *restrict byte, int width, uint8_t (*restrict plane)[CHUNK])
{
    for (int c = 0; c < width; ++c) {
        const uint8_t *const b = byte + 8 * c;
        uint64_t x = (uint64_t)b[0] | (uint64_t)b[1] << 8 | (uint64_t)b[2] << 16 |
                     (uint64_t)b[3] << 24 | (uint64_t)b[4] << 32 | (uint64_t)b[5] << 40 |
                     (uint64_t)b[6] << 48 | (uint64_t)b[7] << 56;
        uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAull;
        x ^= t ^ (t << 7);
        t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCull;
        x ^= t ^ (t << 14);
        t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ull;
        x ^= t ^ (t << 28);
        plane[0][c] = (uint8_t)x;
        plane[1][c] = (uint8_t)(x >> 8);
        plane[2][c] = (uint8_t)(x >> 16);
        plane[3][c] = (uint8_t)(x >> 24);
        plane[4][c] = (uint8_t)(x >> 32);
        plane[5][c] = (uint8_t)(x >> 40);
        plane[6][c] = (uint8_t)(x >> 48);
        plane[7][c] = (uint8_t)(x >> 56);
    }
}

/* The bit length of the OR of ``count`` codes' negabinary words, at least 1.
 * Sixteen lanes of ORs, so that GCC vectorises the loop. */
static int level_width(const int64_t *restrict codes, int64_t count)
{
    const int64_t whole = count & ~(int64_t)15;
    uint64_t lane[16] = {0}, any = 0;
    for (int64_t v = 0; v < whole; v += 16) {
        for (int i = 0; i < 16; ++i) {
            lane[i] |= ((uint64_t)codes[v + i] + NEGABINARY) ^ NEGABINARY;
        }
    }
    for (int i = 0; i < 16; ++i) {
        any |= lane[i];
    }
    for (int64_t v = whole; v < count; ++v) {
        any |= ((uint64_t)codes[v] + NEGABINARY) ^ NEGABINARY;
    }
    int nbits = 1;
    while (nbits < 64 && any >> nbits) {
        ++nbits;
    }
    return nbits;
}

/* One level's ``nbits`` rows of ``ceil(count / 8)`` bytes into ``out``. */
static void encode_level(const int64_t *codes, int64_t count, int nbits, int prefix, uint8_t *out)
{
    const int64_t nbytes = (count + 7) / 8;
    const int groups = (nbits + 7) / 8;
    uint8_t plane[64][CHUNK];
    uint8_t byte[8 * CHUNK];
    int64_t tail[8 * CHUNK];
    for (int64_t c0 = 0; c0 < nbytes; c0 += CHUNK) {
        const int cols = (int)(nbytes - c0 < CHUNK ? nbytes - c0 : CHUNK);
        const int width = (cols + 15) & ~15;
        /* A whole chunk is read where it lies, a short one from beside. */
        const int64_t n = count - 8 * c0;
        const int64_t *chunk = codes + 8 * c0;
        if (n < 8 * width) {
            memcpy(tail, chunk, sizeof *tail * (size_t)n);
            memset(tail + n, 0, sizeof *tail * (size_t)(8 * width - n));
            chunk = tail;
        }
        for (int g = 0; g < groups; ++g) {
            split(chunk, g, 8 * width, byte);
            scatter(byte, width, plane + 8 * g);
        }
        for (int p = 0; p + 1 < nbits; ++p) {
            for (int j = 1; j <= prefix && p + j < nbits; ++j) {
                xor_row(plane[p], plane[p + j], width);
            }
        }
        for (int p = 0; p < nbits; ++p) {
            memcpy(out + (nbits - 1 - p) * nbytes + c0, plane[p], (size_t)cols);
        }
    }
}

/* Every level of a shard: level ``l`` is ``counts[l]`` int64 codes at
 * ``codes[l]``.  Writes its width to ``nbits[l]`` and its rows after the
 * previous level's in ``out``, which holds 64 rows of every level; returns
 * the bytes written.  The caller checks 0 <= prefix <= 3. */
int64_t ipc_encode_planes(const int64_t *const *codes, const int64_t *counts, int64_t nlevels,
                          int64_t prefix, uint8_t *out, int64_t *nbits)
{
    int64_t size = 0;
    for (int64_t l = 0; l < nlevels; ++l) {
        nbits[l] = level_width(codes[l], counts[l]);
        encode_level(codes[l], counts[l], (int)nbits[l], (int)prefix, out + size);
        size += nbits[l] * ((counts[l] + 7) / 8);
    }
    return size;
}

/* ------------------------------------------------------------ δ tables
 *
 * ``ipc_truncation_errors`` is repro.core.negabinary's δ table of every
 * level of a shard: entry ``d`` is the largest loss of dropping a value's
 * ``d`` low negabinary digits.  Those digits are worth ``(k & low) - (M &
 * low)`` on the key ``k = v + M`` (mod 2^64), ``low = 2^d - 1``, which grows
 * with ``k & low``: the largest loss of either sign lies at the maximum or
 * the minimum of ``k & low`` over the level.
 *
 * A level is swept SPAN keys at a time in 16-bit lanes, which SSE2 can max
 * and min (signed): limb ``q`` holds bits 16q … 16q + 15 of every key with
 * the top one flipped, so that the signed order is the unsigned one, and a
 * mask below bit 15 leaves the exact bits.  The extremes of ``k & low`` are
 * taken limb by limb from the top one ``d`` reaches: the extremes of its
 * masked bits, then, among the keys that have them, those of the next limb
 * down, and so on (``up`` and ``down`` mask the keys still in the running
 * for the largest and for the smallest).  A level of up to 16 planes is one
 * pass a plane.  GCC vectorises every pass at -O2: each runs a multiple of
 * 16 lanes, the chunk padded with copies of its first key. */

#define SPAN 2048
#define FLIP 0x8000

/* Bits ``shift`` … ``shift + 15`` of ``m`` keys into ``limb``, the top one
 * flipped, padded to ``width`` with the first. */
static void limbs(const int64_t *restrict v, int m, int width, int shift, int16_t *restrict limb)
{
    const int whole = m & ~15;
    for (int j = 0; j < whole; j += 16) {
        for (int i = 0; i < 16; ++i) {
            limb[j + i] = (int16_t)(uint16_t)((((uint64_t)v[j + i] + NEGABINARY) >> shift) ^ FLIP);
        }
    }
    for (int j = whole; j < m; ++j) {
        limb[j] = (int16_t)(uint16_t)((((uint64_t)v[j] + NEGABINARY) >> shift) ^ FLIP);
    }
    for (int j = m; j < width; ++j) {
        limb[j] = limb[0];
    }
}

/* Of the ``m`` keys' lanes (``width`` = m rounded up to 16): narrow the
 * keys in the running (``up`` / ``down``) to those whose ``prev & low`` is
 * ``*high`` / ``*least``, and put the largest ``cur`` of the first and the
 * smallest of the second in place of the two. */
static void ties(const int16_t *restrict prev, int16_t low, const int16_t *restrict cur, int m,
                 int16_t *restrict up, int16_t *restrict down, int16_t *high, int16_t *least)
{
    const int width = (m + 15) & ~15;
    const int16_t first = *high, last = *least;
    int16_t top = INT16_MIN, bottom = INT16_MAX;
    for (int j = 0; j < width; ++j) {
        /* ``cur`` where the key is in the running, else one that loses: as
         * masks, which GCC vectorises where it does not the conditionals. */
        const int16_t p = (int16_t)(prev[j] & low), c = cur[j];
        const int16_t a = (int16_t)(up[j] & -(p == first)), b = (int16_t)(down[j] & -(p == last));
        const int16_t in = (int16_t)((c & a) | (INT16_MIN & ~a)),
                      out = (int16_t)((c & b) | (INT16_MAX & ~b));
        up[j] = a;
        down[j] = b;
        top = in > top ? in : top;
        bottom = out < bottom ? out : bottom;
    }
    *high = top;
    *least = bottom;
}

/* The extremes of ``k & low`` for ``d`` = 1 … nbits (1 … 64) into ``top``
 * / ``bottom`` (maxima, minima), which hold those of no keys yet. */
static void sweep(const int64_t *codes, int64_t count, int nbits, uint64_t *top, uint64_t *bottom)
{
    int16_t limb[4][SPAN], up[SPAN], down[SPAN];
    for (int64_t i0 = 0; i0 < count; i0 += SPAN) {
        const int m = (int)(count - i0 < SPAN ? count - i0 : SPAN), width = (m + 15) & ~15;
        for (int q = 0; 16 * q < nbits; ++q) {
            limbs(codes + i0, m, width, 16 * q, limb[q]);
        }
        for (int d = 1; d <= nbits; ++d) {
            /* The top limb ``d`` reaches, masked to its bits there; a mask
             * of all 16 keeps the flipped top one. */
            const int q = (d - 1) / 16, bits = d - 16 * q;
            const int16_t low = bits < 16 ? (int16_t)((1 << bits) - 1) : -1;
            const uint16_t flip = bits < 16 ? 0 : FLIP;
            const int16_t *const head = limb[q];
            int16_t high = INT16_MIN, least = INT16_MAX;
            for (int j = 0; j < width; ++j) {
                const int16_t k = (int16_t)(head[j] & low);
                high = k > high ? k : high;
                least = k < least ? k : least;
            }
            uint64_t above = (uint16_t)((uint16_t)high ^ flip),
                     below = (uint16_t)((uint16_t)least ^ flip);
            if (q > 0) {
                memset(up, 0xFF, sizeof up);
                memset(down, 0xFF, sizeof down);
            }
            for (int r = q - 1; r >= 0; --r) {
                ties(limb[r + 1], r + 1 == q ? low : -1, limb[r], m, up, down, &high, &least);
                above = above << 16 | (uint16_t)((uint16_t)high ^ FLIP);
                below = below << 16 | (uint16_t)((uint16_t)least ^ FLIP);
            }
            top[d] = above > top[d] ? above : top[d];
            bottom[d] = below < bottom[d] ? below : bottom[d];
        }
    }
}

/* Every level of a shard: level ``l`` is ``counts[l]`` int64 codes at
 * ``codes[l]`` and ``nbits[l]`` (0 … 64) planes wide, and its table, entries
 * ``d`` = 0 … nbits[l], follows the previous level's in ``out``; a level
 * with no codes or no planes has a table of zeros.  Returns 0, or 1 + the
 * first level with a loss past int64 (63 or 64 planes only). */
int64_t ipc_truncation_errors(const int64_t *const *codes, const int64_t *counts,
                              const int64_t *nbits, int64_t nlevels, int64_t *out)
{
    for (int64_t l = 0; l < nlevels; out += nbits[l] + 1, ++l) {
        const int width = (int)nbits[l];
        uint64_t top[65], bottom[65];
        for (int d = 0; d <= width; ++d) {
            top[d] = 0;
            bottom[d] = UINT64_MAX;
            out[d] = 0;
        }
        if (counts[l] == 0) {
            continue;
        }
        sweep(codes[l], counts[l], width, top, bottom);
        for (int d = 1; d <= width; ++d) {
            const uint64_t offset = NEGABINARY & (((uint64_t)2 << (d - 1)) - 1);
            const uint64_t above = top[d] > offset ? top[d] - offset : 0,
                           below = offset > bottom[d] ? offset - bottom[d] : 0,
                           loss = above > below ? above : below;
            if (loss > INT64_MAX) {
                return l + 1;
            }
            out[d] = (int64_t)loss;
        }
    }
    return 0;
}

/* ------------------------------------------------------------ the planner
 *
 * ``ipc_plan`` is the discretized knapsack of repro.core.optimizer (§5.2,
 * §5.3), one call per plan.  A shard's choices arrive as one flat table:
 * level ``l`` (in level order) has ``length[l]`` keep choices, and
 * ``cost[i]`` / ``err[i]`` are the payload bytes and the propagated
 * Theorem-1 loss of its choice ``k`` at ``i`` = (the lengths before ``l``)
 * + ``k``.  The error mode minimises Σ cost under Σ err ≤ ``budget``, the
 * size mode Σ err under Σ cost ≤ ``budget``: a choice's weight ``w``
 * costs ``ceil(w / budget * bins)`` of the ``bins`` bins.
 *
 * Row ``l`` of the DP table is the vector before level ``l``: ``dp[b]`` is
 * the least value with weight ≤ ``b`` bins.  Each level folds in every
 * choice, most planes first: ``dp[b + s] = min(dp[b + s], prev[b] + v)``,
 * an entry replaced only by a smaller sum.  A shift is compared as a double
 * before it is cast, so one past int64 is merely too large.  The backtrack
 * redoes the same sums and takes the first choice from the top that
 * reproduces ``dp[r]``.  These are the operations, in their order, of the
 * numpy DP the planner was first written as (tests/oracle_optimizer.py),
 * so every plan is bitwise its plan.  The table is allocated per call:
 * plans run from many threads at once. */

/* ``dp[b] = min(dp[b], prev[b] + v)`` for ``b < m``, ``m`` a multiple of
 * 8, so that GCC vectorises the loop at -O2 with no scalar tail. */
static void fold(const double *restrict prev, double *restrict dp, double v, int64_t m)
{
    for (int64_t b = 0; b < m; ++b) {
        const double c = prev[b] + v;
        dp[b] = c < dp[b] ? c : dp[b];
    }
}

/* The plan of ``nlevels`` levels under ``budget`` (> 0): the error mode
 * when ``by_size`` is 0, else the size mode.  Writes each level's keep to
 * ``keep`` and the plan's Theorem-1 bound, ``eb`` plus its losses summed in
 * level order, to ``*error``; returns its payload bytes.  Returns -1 when
 * no plan has a finite value (the backtrack cannot miss: every finite
 * entry is one of the sums it redoes) and -2 when the table cannot be
 * allocated. */
int64_t ipc_plan(const double *cost, const double *err, const int64_t *length, int64_t nlevels,
                 int64_t by_size, double budget, int64_t bins, double eb, int64_t *keep,
                 double *error)
{
    const double *const weight = by_size ? cost : err, *const value = by_size ? err : cost;
    const double top = (double)bins;
    const int64_t n = bins + 1;
    /* A fold of ``m`` entries from ``b`` = 0 reaches ``n + 6``. */
    const int64_t stride = ((n + 7) & ~(int64_t)7) + 8;
    double *const table = malloc(sizeof *table * (size_t)(stride * (nlevels + 1)));
    if (!table) {
        return -2;
    }
    for (int64_t b = 0; b < stride; ++b) {
        table[b] = b < n ? 0.0 : INFINITY;
    }
    int64_t first = 0;
    for (int64_t l = 0; l < nlevels; first += length[l], ++l) {
        const double *const prev = table + l * stride, *const w = weight + first,
                           *const v = value + first;
        double *const dp = table + (l + 1) * stride;
        for (int64_t b = 0; b < stride; ++b) {
            dp[b] = INFINITY;
        }
        for (int64_t k = length[l] - 1; k >= 0; --k) {
            const double shift = ceil(w[k] / budget * top);
            if (shift <= top) {
                const int64_t s = (int64_t)shift;
                fold(prev, dp + s, v[k], (n - s + 7) & ~(int64_t)7);
            }
        }
    }
    double best = table[nlevels * stride + bins];
    int64_t payload = -1;
    if (isfinite(best)) {
        int64_t remaining = bins;
        for (int64_t l = nlevels - 1; l >= 0; --l) {
            first -= length[l];
            const double *const prev = table + l * stride, *const w = weight + first,
                               *const v = value + first;
            int64_t k = length[l], s = 0;
            while (k-- > 0) {
                const double shift = ceil(w[k] / budget * top);
                if (shift <= (double)remaining) {
                    s = (int64_t)shift;
                    if (prev[remaining - s] + v[k] == best) {
                        break;
                    }
                }
            }
            if (k < 0) {
                goto done;
            }
            keep[l] = k;
            remaining -= s;
            best = prev[remaining];
        }
        double total = eb;
        payload = 0;
        for (int64_t l = 0; l < nlevels; first += length[l], ++l) {
            total += err[first + keep[l]];
            payload += (int64_t)cost[first + keep[l]];
        }
        *error = total;
    }
done:
    free(table);
    return payload;
}
