"""Slow filter-based reference implementations used as ground truth.

Everything here scans full symmetric groups with straight-line value
comparisons, sums closed forms, or runs a transfer matrix in the other
direction from the package's, and shares no code with the package under
test.
"""
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
