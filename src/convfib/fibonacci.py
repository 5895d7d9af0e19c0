"""Fibonacci numbers under the convention F_0 = F_1 = 1.

The sequence runs 1, 1, 2, 3, 5, 8, 13, ... and extends to negative
indices through the rearranged recurrence F_{n-2} = F_n - F_{n-1}, which
gives F_{-1} = 0, F_{-2} = 1, F_{-3} = -1, ...  Under this convention the
reflection law reads F_{-n} = (-1)^n F_{n-2}.  No value is stored between
calls: :func:`fib` computes each F_n afresh by fast doubling.  The module
holds these numbers only; their check against 1/(1 - t - t^2) is the
genfun verifier of :mod:`convfib.identities`.
"""

from __future__ import annotations


def fib(n: int) -> int:
    """F_n for any signed index, by fast doubling; shares no state.

    With G_k = 0, 1, 1, 2, ... (so F_n = G_{n+1}), the pair (G_k, G_{k+1})
    doubles by G_{2k} = G_k (2 G_{k+1} - G_k) and
    G_{2k+1} = G_k^2 + G_{k+1}^2, one bit of |n + 1| at a time.  The
    reflection law G_{-k} = (-1)^(k+1) G_k gives the negative indices.
    """
    m = abs(n + 1)
    a, b = 0, 1  # (G_k, G_{k+1}) at k = 0
    for bit in bin(m)[2:]:  # k doubles, then steps up by the next bit of m
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return -a if n < -1 and m % 2 == 0 else a


def fib_pure(n: int) -> int:
    """F_n by one walk from (F_0, F_1), up or down, with no shared state.

    The plain recurrence, which the tests set against :func:`fib`.
    """
    a, b = 1, 1  # (F_m, F_{m+1}) at m = 0
    for _ in range(n):  # m walks up to n >= 0 ...
        a, b = b, a + b
    for _ in range(-n):  # ... or down to n < 0
        a, b = b - a, a
    return a
