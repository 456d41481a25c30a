/* One JSON array of floats, for the checkpoint reader in logits.py.
 *
 * text + pos is the text just after a '['.  Accepted is only a non-empty
 * array of JSON numbers that each have a fraction or an exponent, with JSON
 * whitespace around them.  Anything else declines with -1, for the caller's
 * JSON parser to read: an integer, true, NaN, Infinity, +1.0, 01.0, 1., .5,
 * hex, [], a nested array, a trailing comma.  Each token is checked against
 * the JSON number grammar, then read by strtod, which rounds correctly, as
 * Python's float() does; strtod must stop where the grammar stopped, or the
 * array declines (as under a locale with another decimal point).
 * Returns the count, with at most cap values in out and the offset just
 * after the ']' in *end.  text ends in a NUL.
 */
#include <stdint.h>
#include <stdlib.h>

static const char *space(const char *p)
{
    while (*p == ' ' || *p == '\n' || *p == '\r' || *p == '\t')
        p++;
    return p;
}

static const char *digits(const char *p)
{
    while (*p >= '0' && *p <= '9')
        p++;
    return p;
}

/* The end of the JSON float token at p, or NULL where there is none. */
static const char *token(const char *p)
{
    if (*p == '-')
        p++;
    if (*p == '0')
        p++;
    else if (*p >= '1' && *p <= '9')
        p = digits(p);
    else
        return NULL;
    const char *whole = p;
    if (*p == '.') {
        if (digits(p + 1) == p + 1)
            return NULL;
        p = digits(p + 1);
    }
    if (*p == 'e' || *p == 'E') {
        p += (p[1] == '+' || p[1] == '-') ? 2 : 1;
        if (digits(p) == p)
            return NULL;
        p = digits(p);
    }
    return p == whole ? NULL : p;
}

int64_t read_floats(const char *text, int64_t pos, double *out, int64_t cap, int64_t *end)
{
    const char *p = text + pos;
    for (int64_t n = 0; n < cap; ) {
        char *parsed;
        p = space(p);
        const char *stop = token(p);
        if (stop == NULL)
            return -1;
        out[n++] = strtod(p, &parsed);
        if (parsed != stop)
            return -1;
        p = space(stop);
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
