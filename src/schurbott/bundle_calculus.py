"""Tautological and normal bundle expressions on the planar-locus fibre G(2,d).

Everything on the fibre is written in the Schur basis of the dual quotient
bundle alone: the quotient bundle itself is S(0,-1), its dual is S(1,0).
The restricted normal bundle N' is the rank-4 irreducible S(2,-1)
(equivalently the third symmetric power of the dual quotient, twisted by
the determinant of the quotient).  It sits in the split short exact
sequence  0 -> S(1,0) -> S(0,-1) (x) Sym^2 S(1,0) -> N' -> 0, which does
not depend on the ambient dimension d.
"""

from __future__ import annotations

from functools import lru_cache

from .rep_ring import RepElement, ext_power, sym_power, tensor

FIBRE_RANK = 2

#: the dual quotient bundle Q^v
Q_DUAL = RepElement.schur(FIBRE_RANK, (1, 0))
#: the quotient bundle Q, as a Schur functor of Q^v
Q = RepElement.schur(FIBRE_RANK, (0, -1))
#: the restricted normal bundle N'
NPRIME = RepElement.schur(FIBRE_RANK, (2, -1))
#: rank of N': the kernel checks trace wedge^q N' for q = 0..NPRIME_RANK
NPRIME_RANK = NPRIME.dimension()
#: sub term of the defining short exact sequence
SES_SUB = Q_DUAL
#: middle term Q (x) Sym^2 Q^v of the defining short exact sequence
SES_MIDDLE = tensor(Q, sym_power(Q_DUAL, 2))


@lru_cache(maxsize=None)
def wedge_nprime(q: int) -> RepElement:
    """Exterior power of the restricted normal bundle, by the character oracle on N'.

    ``verify.check_normal_bundle`` (normal-bundle-wedges) cross-checks it
    against the filtration identity of the defining sequence,
    wedge^q(middle) = sum_i wedge^i(sub) (x) wedge^{q-i}(N').
    """
    if not 0 <= q <= NPRIME_RANK:
        raise ValueError(f"N' has rank {NPRIME_RANK}; wedge power {q} out of range")
    return ext_power(NPRIME, q)


def wedge2_middle() -> RepElement:
    """Second exterior power of Q (x) Sym^2 Q^v via the Cauchy identity.

    wedge^2(E (x) F) = Sym^2 E (x) wedge^2 F + wedge^2 E (x) Sym^2 F with
    E = Sym^2 Q^v and F = Q.
    """
    sym2qdual = sym_power(Q_DUAL, 2)
    out = tensor(sym_power(sym2qdual, 2), ext_power(Q, 2))
    out = out + tensor(ext_power(sym2qdual, 2), sym_power(Q, 2))
    return out


def planar_rank_identity(d: int, l: int) -> int:
    """Fibre dimension d + (l^2 - l)/2 of the conormal data of a planar ideal.

    ``verify.check_rank_identity`` (rank-identity) cross-checks it against a
    count: d - l linear forms plus the quadratic monomials in l variables.
    """
    if not 1 <= l <= d:
        raise ValueError(f"need 1 <= l <= d, got l={l}, d={d}")
    return d + (l * l - l) // 2

