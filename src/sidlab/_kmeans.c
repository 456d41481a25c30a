/* One Lloyd iteration's cluster means, in place of the centers.
 *
 * Gives numpy's bits for points[assign == j].mean(axis=0) over C-contiguous
 * rows of d >= 2 columns: numpy adds such rows one after another, in
 * ascending row order, to its sum's identity +0.0, then divides by the
 * count.  So an all -0.0 column has the mean +0.0, where a sum started from
 * the first row would keep -0.0.  (For d == 1 numpy sums the column
 * pairwise, to other bits.)
 * counts[j] is the number of rows with assign[i] == j; a center with no
 * rows keeps its values.  A sum that overflows leaves inf in its center,
 * for the caller to find.  Build without fast-math or FP contraction.
 */
#include <stdint.h>

void cluster_means(const double *restrict points, const int64_t *assign, int64_t n,
                   int64_t d, const int64_t *counts, double *restrict centers, int64_t X)
{
    for (int64_t j = 0; j < X; j++)
        if (counts[j] > 0)
            for (int64_t c = 0; c < d; c++)
                centers[j * d + c] = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double *sum = centers + assign[i] * d;
        const double *row = points + i * d;
        int64_t c = 0;
        for (; c + 4 <= d; c += 4) { /* cc -O2 makes these vector adds */
            sum[c] += row[c];
            sum[c + 1] += row[c + 1];
            sum[c + 2] += row[c + 2];
            sum[c + 3] += row[c + 3];
        }
        for (; c < d; c++)
            sum[c] += row[c];
    }
    for (int64_t j = 0; j < X; j++)
        if (counts[j] > 0) {
            double count = (double)counts[j];
            for (int64_t c = 0; c < d; c++)
                centers[j * d + c] /= count;
        }
}
