/* Compiled twin of acg.sampler._type_chain and acg.sampler._assign_stubs,
 * and the formatter of the sample files' rows.
 *
 * Plain C with no Python C-API, loaded through ctypes by acg._wiring.  It
 * does the same double arithmetic in the same order as the Python loops,
 * so both give the same bytes: build it with -ffp-contract=off and never
 * with -ffast-math.  Cell (k, j) of the row-major size x size rate matrix
 * takes part where its rate is > 0, as in the Python cols and hits lists.
 * size is K + 1, small enough for per-class arrays on the stack.
 * acg_format_rows writes the bytes of the "%d" row formatter in
 * acg.sampler._columns, which runs when the kernel does not load.
 */
#include <stddef.h>
#include <stdint.h>

#define RATE(k, j) (unit ? 1.0 : rate[(k) * size + (j)])

/* Weight sums s[k] = sum_j e-_j R[k][j], added left to right, and unless
 * count is NULL the in-stubs count[k] that out-class k can reach. */
static void chain_state(int64_t size, const double *rate, int unit, const int64_t *em,
                        int64_t *count, double *s)
{
    for (int64_t k = 0; k < size; k++) {
        s[k] = 0.0;
        if (count)
            count[k] = 0;
        for (int64_t j = 1; j < size; j++)
            if (RATE(k, j) > 0.0) {
                s[k] += (double)em[j] * RATE(k, j);
                if (count)
                    count[k] += em[j];
            }
    }
}

/* Edge types of `steps` wiring steps into kt and jt; consumes em and ep.
 * Returns 0, 1 when the uniform fallback ran, or -1 at a dead end. */
int acg_type_chain(int64_t size, const double *rate, int64_t *em, int64_t *ep, const double *us,
                   int64_t steps, int fallback_uniform, int64_t refresh_every, int64_t *kt, int64_t *jt)
{
    int64_t count[size], k, j, kk = 0, jj = 0;
    double s[size], c_total, row_total, target, acc;
    int unit = 0, live;
    chain_state(size, rate, unit, em, count, s);
    for (int64_t t = 0; t < steps; t++) {
        for (;;) {
            c_total = 0.0;
            live = 0;
            for (k = 1; k < size; k++)
                if (ep[k] && count[k]) {
                    c_total += (double)ep[k] * s[k];
                    live = 1;
                }
            if (live)
                break;
            if (!fallback_uniform || unit)
                return -1;
            unit = 1;
            chain_state(size, rate, unit, em, count, s);
        }
        target = us[4 * t] * c_total;
        acc = 0.0;
        for (k = 1; k < size; k++)
            if (ep[k] && count[k]) {
                kk = k;
                acc += (double)ep[k] * s[k];
                if (acc >= target)
                    break;
            }
        row_total = 0.0;
        for (j = 1; j < size; j++)
            if (RATE(kk, j) > 0.0 && em[j])
                row_total += (double)em[j] * RATE(kk, j);
        target = us[4 * t + 1] * row_total;
        acc = 0.0;
        for (j = 1; j < size; j++)
            if (RATE(kk, j) > 0.0 && em[j]) {
                jj = j;
                acc += (double)em[j] * RATE(kk, j);
                if (acc >= target)
                    break;
            }
        em[jj]--;
        ep[kk]--;
        for (k = 1; k < size; k++)
            if (RATE(k, jj) > 0.0) {
                s[k] -= RATE(k, jj);
                count[k]--;
            }
        if ((t & (refresh_every - 1)) == refresh_every - 1)
            chain_state(size, rate, unit, em, NULL, s);
        kt[t] = kk;
        jt[t] = jj;
    }
    return unit;
}

/* Owner of the stub each step uses: the stub at int(us[t, col] * len) of
 * the pool of class types[t], whose gap the pool's last stub fills.  The
 * pools, one per degree d < size listing each node of degree d d times in
 * node order, are laid out in `pool`, which holds sum(degrees) entries. */
void acg_assign_stubs(int64_t size, int64_t n, const int64_t *degrees, int64_t steps,
                      const int64_t *types, const double *us, int64_t col, int64_t *pool,
                      int64_t *owners)
{
    int64_t start[size], len[size];
    for (int64_t d = 0; d < size; d++)
        len[d] = 0;
    for (int64_t i = 0; i < n; i++)
        len[degrees[i]] += degrees[i];
    for (int64_t d = 0, at = 0; d < size; d++) {
        start[d] = at;
        at += len[d];
        len[d] = 0;
    }
    for (int64_t i = 0; i < n; i++)
        for (int64_t r = 0, d = degrees[i]; r < d; r++)
            pool[start[d] + len[d]++] = i;
    for (int64_t t = 0; t < steps; t++) {
        int64_t d = types[t], *base = pool + start[d];
        int64_t idx = (int64_t)(us[4 * t + col] * (double)len[d]);
        if (idx >= len[d])
            idx = len[d] - 1;
        owners[t] = base[idx];
        base[idx] = base[--len[d]];
    }
}

/* Rows start .. start + rows - 1 of a sample file, written to out: the row
 * index, then entry r of each of the ncols columns (column c is
 * cols[c * rows .. c * rows + rows - 1]) as "%d" digits, fields joined by
 * the byte sep and each row ended by '\n'.  A nonnegative int64 has at most
 * 19 digits, so out holds rows * (ncols + 1) * 20 bytes.  Returns the bytes
 * written, or -1 at a negative entry, of which no digit is written. */
int64_t acg_format_rows(int64_t start, int64_t rows, int64_t ncols, const int64_t *cols, int sep,
                        char *out)
{
    char digits[20], *at = out;
    for (int64_t r = 0; r < rows; r++)
        for (int64_t c = -1; c < ncols; c++) {
            int64_t entry = c < 0 ? start + r : cols[c * rows + r];
            uint64_t v = (uint64_t)entry;
            int n = 0;
            if (entry < 0)
                return -1;
            do {
                digits[n++] = (char)('0' + v % 10);
                v /= 10;
            } while (v);
            while (n)
                *at++ = digits[--n];
            *at++ = (char)(c == ncols - 1 ? '\n' : sep);
        }
    return at - out;
}
