/* One epoch of per-sample SGD on the next-token loss, in place.
 *
 * Mirrors the Python loop in trainer.py operation for operation, so the two
 * give bit-identical tables: first-maximum shift, libm exp, a left-to-right
 * sum from 0.0, one scale = lr / sum, then the visited token's += lr.
 * tabs[m] is position m's C-contiguous table.  Rows of off and tok belong to
 * distinct (context, item) pairs, and order[t] is the pair row of the t-th
 * sample visited: pair row s visits the X-row at tabs[m] + off[s*k + m] and
 * its target token is tok[s*k + m].  es is scratch space for X doubles.
 * Build without fast-math or FP contraction.
 */
#include <math.h>
#include <stdint.h>

void sgd_epoch(double *const *tabs, const int64_t *off, const int64_t *tok,
               const int64_t *order, int64_t n, int64_t k, int64_t X,
               double lr, double *es)
{
    for (int64_t t = 0; t < n; t++) {
        int64_t s = order[t];
        for (int64_t m = 0; m < k; m++) {
            double *row = tabs[m] + off[s * k + m];
            double mx = row[0];
            for (int64_t j = 1; j < X; j++)
                if (row[j] > mx)
                    mx = row[j];
            double sum = 0.0;
            for (int64_t j = 0; j < X; j++) {
                es[j] = exp(row[j] - mx);
                sum += es[j];
            }
            double scale = lr / sum;
            for (int64_t j = 0; j < X; j++)
                row[j] -= es[j] * scale;
            row[tok[s * k + m]] += lr;
        }
    }
}
