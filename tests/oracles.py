"""Slow filter-based reference implementations used as ground truth.

Everything here scans full symmetric groups with straight-line value
comparisons, sums closed forms, runs a recursion from the literature, or
runs a transfer matrix in the other direction from the package's (which
also draws uniform class members), and shares no code with the package
under test.
"""
import bisect
import functools
import itertools
import math


def descents(seq):
    return tuple(i + 1 for i in range(len(seq) - 1) if seq[i] > seq[i + 1])


def peaks(seq):
    return tuple(
        i + 1 for i in range(1, len(seq) - 1)
        if seq[i - 1] < seq[i] > seq[i + 1]
    )


def valleys(seq):
    return tuple(
        i + 1 for i in range(1, len(seq) - 1)
        if seq[i - 1] > seq[i] < seq[i + 1]
    )


def spikes(seq):
    return tuple(sorted(peaks(seq) + valleys(seq)))


def set_peaks(s, n):
    members = set(s)
    return tuple(i for i in range(2, n) if i in members and i - 1 not in members)


def set_valleys(s, n):
    members = set(s)
    return tuple(i for i in range(2, n) if i not in members and i - 1 in members)


def set_spikes(s, n):
    return tuple(sorted(set_peaks(s, n) + set_valleys(s, n)))


def perms(n):
    return itertools.permutations(range(1, n + 1))


def alternating(n):
    """2,1,4,3,...,n,n-1 for even n: a spike at every position 2..n-1."""
    return tuple(v for k in range(1, n, 2) for v in (k + 1, k))


def descent_class(s, n):
    target = tuple(sorted(s))
    return [p for p in perms(n) if descents(p) == target]


def peak_class(i, n):
    target = tuple(sorted(i))
    return [p for p in perms(n) if peaks(p) == target]


def descent_count_by_inclusion_exclusion(s, n):
    """d(S,n) as a signed sum of 2^|S| multinomials.

    Permutations whose descent set lies inside T = {t_1 < ... < t_k}
    number the multinomial over the composition (t_1, t_2 - t_1, ...,
    n - t_k); alternating the sum over the subsets T of S isolates
    descent set exactly S.
    """
    s = tuple(sorted(set(s)))
    total = 0
    for r in range(len(s) + 1):
        for t in itertools.combinations(s, r):
            cuts = (0,) + t + (n,)
            term = math.factorial(n)
            for a, b in zip(cuts, cuts[1:]):
                term //= math.factorial(b - a)
            total += (-1) ** (len(s) - r) * term
    return total


def chain_weights(s):
    """f(0..k) of MacMahon's chain formula for S = {s_1 < ... < s_k} and
    s_0 = 0: f(0) = 1, f(j) = sum_{i<j} (-1)^(j-i-1) C(s_j, s_i) f(i)."""
    s = (0, *sorted(set(s)))
    f = [1]
    for j in range(1, len(s)):
        f.append(sum((-1) ** (j - i - 1) * math.comb(s[j], s[i]) * f[i] for i in range(j)))
    return f


def chain_descent_count(s, n):
    """d(S,n) = sum_i (-1)^(k-i) C(n, s_i) f(i), the determinant formula
    of Stanley, EC1, section 2.2, with f from ``chain_weights``.

    O(|S|^2) big-integer binomials whatever n is, so it reaches n far
    past the other references for sparse S; dense sets are slow.
    """
    s = (0, *sorted(set(s)))
    k = len(s) - 1
    return sum((-1) ** (k - i) * math.comb(n, s[i]) * w
               for i, w in enumerate(chain_weights(s[1:])))


def peak_recursion_count(i, n):
    """|P(I,n)| by the recursion of Billey, Burdzy and Sagan (2013), memoized.

    With m = max(I) and I- = I minus {m}, split a permutation after its
    first m-1 entries: C(n, m-1) value sets, |P(I-,m-1)| heads and
    2^(n-m) peakless tails give every peak set I- with m-1 or m or
    neither added, so
    |P(I,n)| = C(n,m-1) |P(I-,m-1)| 2^(n-m) - |P(I-,n)| - |P(I- u {m-1},n)|.
    A non-admissible set counts 0, and so does I with max(I) >= n.
    """
    @functools.lru_cache(maxsize=None)
    def count(i, n):
        if (i and i[0] < 2) or any(b - a < 2 for a, b in zip(i, i[1:])):
            return 0
        if not i:
            return 2 ** (n - 1) if n else 1
        m, rest = i[-1], i[:-1]
        if m >= n:
            return 0
        return (math.comb(n, m - 1) * count(rest, m - 1) * 2 ** (n - m)
                - count(rest, n) - count(rest + (m - 1,), n))

    return count(tuple(sorted(set(i))), n)


def transfer_matrix_count(positions, n, peaks=False):
    """The number of permutations of n whose descent set (or peak set,
    with ``peaks``) is exactly ``positions``, by a backward transfer matrix.

    The state after k entries is the rank of the last entry among itself
    and the n-k unused values, split by whether the last step rose. A
    rise moves to a higher rank among what is left, a fall to a lower
    one. O(n^2) additions, counted from the other end to the package's
    forward engine.
    """
    positions = set(positions)

    def rise(counts):  # new rank s among the rest sums old ranks 0..s
        return list(itertools.accumulate(counts[:-1]))

    def fall(counts):  # new rank s sums old ranks s+1..end
        return list(itertools.accumulate(reversed(counts[1:])))[::-1]

    # Every first value, counted as after a fall: position 1 is no peak.
    rose, fell = [0] * n, [1] * n
    for j in range(1, n):
        both = [a + b for a, b in zip(rose, fell)]
        if j in positions:
            rose, fell = [0] * (n - j), fall(rose if peaks else both)
        else:
            rose, fell = rise(both), fall(fell) if peaks else [0] * (n - j)
    return rose[0] + fell[0]


def sample_descent_class(s, n, rng):
    """A uniformly random permutation of n with descent set exactly ``s``.

    A backward pass counts the completions of each state, from the last
    entry to the first, and keeps every layer: after k entries the state
    is the rank of entry k among itself and the n-k unused values. The
    forward draw then picks each next rank with probability proportional
    to its completions, in exact integer arithmetic. O(n^2) per draw.
    """
    s = set(s)
    layers = [[1]]  # completions after n entries, then n-1, ..., 1
    for k in range(n - 1, 0, -1):
        nxt = layers[-1]
        if k in s:  # entry k+1 falls below entry k: ranks under r
            layers.append([0, *itertools.accumulate(nxt)])
        else:  # entry k+1 rises: ranks r and up among the n-k unused values
            layers.append([*itertools.accumulate(reversed(nxt))][::-1] + [0])
    layers.reverse()

    def draw(weights):
        cumulative = list(itertools.accumulate(weights))
        return bisect.bisect(cumulative, rng.randrange(cumulative[-1]))

    unused = list(range(1, n + 1))
    rank = draw(layers[0])
    out = [unused.pop(rank)]
    for k in range(1, n):
        rank = draw([w if (r < rank) == (k in s) else 0 for r, w in enumerate(layers[k])])
        out.append(unused.pop(rank))
    return tuple(out)


def generalized_binomial(a, k):
    """C(a, k) for any integer a and k >= 0, as a falling factorial over k!."""
    numerator = 1
    for t in range(k):
        numerator *= a - t
    return numerator // math.factorial(k)


def recenter_by_binomial_sums(coeffs, center, new_center):
    """Coefficients against C(n - new_center, j) of the polynomial with
    ``coeffs`` against C(n - center, k), by Vandermonde's identity
    C(x + d, k) = sum_j C(x, j) C(d, k - j) with d = new_center - center.

    Returns the first new_center + 1 of them; the rest vanish when
    new_center is at least the degree.
    """
    shift = new_center - center
    return tuple(
        sum(c * generalized_binomial(shift, k - j) for k, c in enumerate(coeffs) if k >= j)
        for j in range(new_center + 1)
    )


def p_value(i, n):
    """p(I,n) from a raw class scan; asserts the power-of-2 divisibility."""
    size = len(peak_class(i, n))
    quotient, remainder = divmod(size, 2 ** (n - len(tuple(i)) - 1))
    assert remainder == 0, (i, n, size)
    return quotient


def random_perm(rng, n):
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple(values)


def admissible_sets(top):
    """All admissible peak sets with members in 2..top."""
    out = []
    for r in range(top + 1):
        for cand in itertools.combinations(range(2, top + 1), r):
            if all(b - a > 1 for a, b in zip(cand, cand[1:])):
                out.append(cand)
    return out
