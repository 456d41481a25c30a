/* The k-means kernels of one fit: a k-means++ seeding round, the Lloyd
 * screen and the cluster means.  Each gives numpy's bits, or numpy's
 * decisions, on C-contiguous float64 arrays.  Build without fast-math or FP
 * contraction.
 */
#include <math.h>
#include <stdint.h>

/* numpy's pairwise sum of the squares of row - center over d entries:
 * below 8, added one after another to +0.0; up to 128, eight accumulators
 * seeded from the first eight, summed as a tree, then the tail added in
 * order; above, the sums of two halves, the first a multiple of 8 long. */
static double pairwise_squares(const double *restrict row, const double *restrict center,
                               int64_t d)
{
    if (d < 8) {
        double sum = 0.0;
        for (int64_t c = 0; c < d; c++) {
            double t = row[c] - center[c];
            sum += t * t;
        }
        return sum;
    }
    if (d > 128) {
        int64_t half = d / 2;
        half -= half % 8;
        return pairwise_squares(row, center, half)
               + pairwise_squares(row + half, center + half, d - half);
    }
    double t0 = row[0] - center[0], t1 = row[1] - center[1], t2 = row[2] - center[2],
           t3 = row[3] - center[3], t4 = row[4] - center[4], t5 = row[5] - center[5],
           t6 = row[6] - center[6], t7 = row[7] - center[7];
    double r0 = t0 * t0, r1 = t1 * t1, r2 = t2 * t2, r3 = t3 * t3, r4 = t4 * t4,
           r5 = t5 * t5, r6 = t6 * t6, r7 = t7 * t7;
    int64_t c = 8;
    for (; c + 8 <= d; c += 8) {
        t0 = row[c] - center[c];
        t1 = row[c + 1] - center[c + 1];
        t2 = row[c + 2] - center[c + 2];
        t3 = row[c + 3] - center[c + 3];
        t4 = row[c + 4] - center[c + 4];
        t5 = row[c + 5] - center[c + 5];
        t6 = row[c + 6] - center[c + 6];
        t7 = row[c + 7] - center[c + 7];
        r0 += t0 * t0;
        r1 += t1 * t1;
        r2 += t2 * t2;
        r3 += t3 * t3;
        r4 += t4 * t4;
        r5 += t5 * t5;
        r6 += t6 * t6;
        r7 += t7 * t7;
    }
    double sum = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
    for (; c < d; c++) {
        double t = row[c] - center[c];
        sum += t * t;
    }
    return sum;
}

/* One k-means++ round: d2[i] = minimum(d2[i], ((points[i] - center) ** 2).sum())
 * with numpy's bits.  Returns the number of rows whose distance is not
 * finite: the points are finite, so each is a float64 overflow. */
int64_t seed_round(const double *restrict points, int64_t n, int64_t d,
                   const double *restrict center, double *restrict d2)
{
    int64_t overflows = 0;
    for (int64_t row = 0; row < n; row++) {
        double dist = pairwise_squares(points + row * d, center, d);
        overflows += !(dist < INFINITY);
        if (dist < d2[row])
            d2[row] = dist;
    }
    return overflows;
}

/* One nearest-center screen, numpy's decisions in one pass.  product is the
 * (n, X) matrix of x.c; with A = (-2 x.c + |c|^2) + |x|^2 and the point's
 * bound e = (|x| + c_norm)^2 * scale + 1e-300, a center is a candidate when
 * A - e <= min A + e.  Rounding is monotone, so the candidates are the
 * centers of the smallest A's, and a row has one candidate exactly when its
 * second smallest A (+inf if X == 1) fails: the pass keeps only the smallest
 * two.  out[i] is the one candidate's index, or -1 where the row needs the
 * exact recheck: (|x| + c_norm)^2 not below limit, a NaN in A, or not
 * exactly one candidate. */
void screen(const double *restrict product, const double *restrict x2,
            const double *restrict c2, int64_t n, int64_t X, double c_norm, double scale,
            double limit, int64_t *restrict out)
{
    for (int64_t row = 0; row < n; row++) {
        const double *dot = product + row * X;
        double norm = sqrt(x2[row]) + c_norm, err = norm * norm;
        out[row] = -1;
        if (!(err < limit))
            continue;
        err = err * scale + 1e-300;
        double lo = INFINITY, next = INFINITY;
        int64_t index = -1;
        int nan = 0;
        for (int64_t j = 0; j < X; j++) {
            double a = (dot[j] * -2.0 + c2[j]) + x2[row];
            double high = a < lo ? lo : a;
            nan |= a != a;
            next = high < next ? high : next;
            index = a < lo ? j : index;
            lo = a < lo ? a : lo;
        }
        if (!nan && next - err > lo + err)
            out[row] = index;
    }
}

/* One Lloyd iteration's cluster means, in place of the centers.
 *
 * Gives numpy's bits for points[assign == j].mean(axis=0) over rows of
 * d >= 2 columns: numpy adds such rows one after another, in ascending row
 * order, to its sum's identity +0.0, then divides by the count.  So an all
 * -0.0 column has the mean +0.0, where a sum started from the first row
 * would keep -0.0.  (For d == 1 numpy sums the column pairwise, to other
 * bits.)  counts[j] is the number of rows with assign[i] == j; a center with
 * no rows keeps its values.  A sum that overflows leaves inf in its center,
 * for the caller to find.
 */
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
