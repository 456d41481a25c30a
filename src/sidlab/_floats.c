/* Two kinds of JSON array, for the artifact reader in artifacts.py.
 *
 * text + pos is the text just after a '['; text ends in a NUL.  Each reader
 * accepts one kind of array only and declines every other with -1, for the
 * caller's JSON parser to read.  On success it returns the count of values,
 * with at most cap of them in out and the offset just after the closing ']'
 * in *end.
 *
 * read_floats accepts a non-empty array of JSON numbers that each have a
 * fraction or an exponent, with JSON whitespace around them.  It declines an
 * integer, true, NaN, Infinity, +1.0, 01.0, 1., .5, hex, [], a nested array,
 * a trailing comma.  Each token is checked against the JSON number grammar
 * while its digits are read.  Where it has at most 19 significant digits w
 * and its value is w * 10^q with |q| <= 27, both w and 10^q are exact in a
 * 64-bit long double significand, so one long double multiply or divide
 * rounds the value correctly to 64 bits (it lies between 1e-27 and 1e46, far
 * from subnormals and overflow).  Rounding that to double gives the
 * correctly rounded double unless the 64-bit result lies on a halfway point
 * between two doubles (low 11 bits 0x400), where the first rounding may have
 * moved it there.  That token, and every other, is read by strtod, which
 * rounds correctly, as Python's float() does; strtod must stop where the
 * grammar stopped, or the array declines (as under a locale with another
 * decimal point).  Where long double is not the x87 format, with its 64-bit
 * significand in the low 8 bytes, every token is read by strtod.
 *
 * read_rows accepts a non-empty array of non-empty arrays of one length each,
 * whose cells are JSON integers of at most 18 digits, so each fits int64.  It
 * declines true, a float, 1e2, rows of different lengths, [], [[]], a deeper
 * array.  The cells go to out row by row, and the row length to *width.
 */
#include <float.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if LDBL_MANT_DIG == 64 && (defined(__x86_64__) || defined(__i386__))
#define FAST_PATH 1
/* 10^q for q <= 27 is 2^q * 5^q with 5^27 < 2^64: exact in a 64-bit significand */
static const long double POW10[28] = {
    1e0L, 1e1L, 1e2L, 1e3L, 1e4L, 1e5L, 1e6L, 1e7L, 1e8L, 1e9L, 1e10L, 1e11L, 1e12L, 1e13L,
    1e14L, 1e15L, 1e16L, 1e17L, 1e18L, 1e19L, 1e20L, 1e21L, 1e22L, 1e23L, 1e24L, 1e25L,
    1e26L, 1e27L,
};
#endif

static const char *space(const char *p)
{
    while (*p == ' ' || *p == '\n' || *p == '\r' || *p == '\t')
        p++;
    return p;
}

static int digit(char c)
{
    return c >= '0' && c <= '9';
}

/* The JSON float token at p read into *out; its end, or NULL where there is none. */
static const char *number(const char *p, double *out)
{
    const char *start = p;
    int negative = *p == '-';
    uint64_t w = 0;    /* the first 19 significant digits */
    int kept = 0;      /* how many digits w holds */
    int dropped = 0;   /* whether a significant digit did not fit in w */
    int64_t q = 0;     /* the value is w * 10^q while nothing is dropped */
    p += negative;
    if (*p == '0')
        p++;
    else if (*p >= '1' && *p <= '9')
        for (; digit(*p); p++) {
            if (kept < 19)
                w = w * 10 + (uint64_t)(*p - '0'), kept++;
            else
                dropped = 1;
        }
    else
        return NULL;
    const char *whole = p;
    if (*p == '.') {
        if (!digit(p[1]))
            return NULL;
        for (p++; digit(*p); p++) {
            if (kept < 19) {
                w = w * 10 + (uint64_t)(*p - '0'), q--;
                kept += w != 0;  /* a zero ahead of the first nonzero digit is not significant */
            } else {
                dropped = 1;
            }
        }
    }
    if (*p == 'e' || *p == 'E') {
        int64_t e = 0;
        int sign = p[1] == '-' ? -1 : 1;
        p += (p[1] == '+' || p[1] == '-') ? 2 : 1;
        if (!digit(*p))
            return NULL;
        for (; digit(*p); p++)
            if (e < 1000000)
                e = e * 10 + (*p - '0');
        q += sign * e;
    }
    if (p == whole)  /* an integer: no fraction, no exponent */
        return NULL;
#ifdef FAST_PATH
    if (!dropped && q >= -27 && q <= 27) {
        long double x = q < 0 ? (long double)w / POW10[-q] : (long double)w * POW10[q];
        uint64_t significand;
        memcpy(&significand, &x, sizeof significand);  /* x87: the low 8 bytes */
        if ((significand & 0x7ff) != 0x400) {
            *out = negative ? -(double)x : (double)x;
            return p;
        }
    }
#else
    (void)dropped;
#endif
    char *parsed;
    *out = strtod(start, &parsed);
    return parsed == p ? p : NULL;
}

int64_t read_floats(const char *text, int64_t pos, double *out, int64_t cap, int64_t *end)
{
    const char *p = text + pos;
    for (int64_t n = 0; n < cap; ) {
        p = number(space(p), &out[n++]);
        if (p == NULL)
            return -1;
        p = space(p);
        if (*p == ']') {
            *end = p + 1 - text;
            return n;
        }
        if (*p != ',')
            return -1;
        p++;
    }
    return -1;
}

/* The JSON integer of at most 18 digits at p read into *out; its end, or NULL. */
static const char *integer(const char *p, int64_t *out)
{
    int negative = *p == '-';
    p += negative;
    const char *first = p;
    int64_t v = 0;
    if (*p == '0')
        p++;
    else
        for (; digit(*p); p++) {
            if (p - first == 18)
                return NULL;
            v = v * 10 + (*p - '0');
        }
    if (p == first)
        return NULL;
    *out = negative ? -v : v;
    return p;  /* a fraction, an exponent or a digit after 0 is left for the caller to refuse */
}

int64_t read_rows(const char *text, int64_t pos, int64_t *out, int64_t cap, int64_t *width,
                  int64_t *end)
{
    const char *p = text + pos;
    int64_t n = 0, length = 0;
    for (;;) {
        p = space(p);
        if (*p != '[')
            return -1;
        int64_t first = n;
        do {
            if (n == cap || (p = integer(space(p + 1), &out[n])) == NULL)
                return -1;
            n++;
            p = space(p);
        } while (*p == ',');
        if (*p != ']' || (first > 0 && n - first != length))
            return -1;
        length = n - first;
        p = space(p + 1);
        if (*p == ']') {
            *width = length;
            *end = p + 1 - text;
            return n;
        }
        if (*p != ',')
            return -1;
        p++;
    }
}
