"""Hand-written derivation scripts for the n=3 sphere-braid isomorphism.

Each script is a loose hint for the relator prover: an ordered list of
relator indices in the *target* presentation.  ``resolve_hint`` turns a
script into a strict replayable certificate by picking the orientation,
cyclic shift and insertion position with the best cancellation at each
step, so a script records exactly *which* relations a derivation uses and
in what order.  It takes the hinted relator's shifts from the search's
own chunk table and enumerates the moves through the search's own child
routine: insertion positions are the seam-cancelling ones (where the
relator's first or last letter cancels against the word) plus the two
ends of the word.  The cancel steps are rebuilt along the winning chain
only, by the same reducer that rebuilds a search certificate's.

Index conventions for the type-C rank-3 pair:

Artin side (generators s1..s5 = indices 0..4)::

    0  (s1 s2)^2 = (s2 s1)^2
    1  s2 s3 s2 = s3 s2 s3
    2  (s3 s4)^2 = (s4 s3)^2
    3  (s3 s5)^2 = (s5 s3)^2
    4  [s1, s3]
    5  [s1, s4]
    6  [s1, s5]
    7  [s2, s4]
    8  [s2, s5]
    9  s3 s4 s3^-1 s5 = s5 s3 s4 s3^-1

Sphere-braid side (generators u1..u4, t1, t2 = indices 0..5)::

    0  u1 u2 u3 u4 t1 t2 t2 t1
    1  t1 t2 t1 = t2 t1 t2
    2  [u1, t2]        3  (u1 t1)^2 = (t1 u1)^2
    4  [u2, t2]        5  (u2 t1)^2 = (t1 u2)^2
    6  [u3, t2]        7  (u3 t1)^2 = (t1 u3)^2
    8  [u4, t2]        9  (u4 t1)^2 = (t1 u4)^2
    10..15  elliptic relators for (u1,u2) (u1,u3) (u1,u4)
            (u2,u3) (u2,u4) (u3,u4)

``FWD_RELATORS`` proves the image of each sphere-braid relator in the
Artin presentation; ``BWD_RELATORS`` goes the other way.  ``BWD_FWD`` and
``FWD_BWD`` handle the generator round trips.  ``None`` means the image
reduces freely (no relations needed).
"""

from __future__ import annotations

# One script per sphere-braid relator, proved against the Artin relators.
FWD_RELATORS: list[list[int] | None] = [
    [],                    # closedness: image cancels freely
    [1],                   # t1 t2 t1 = t2 t1 t2
    [4, 1, 7, 8, 1],       # [u1, t2]
    # (u1 t1)^2 = (t1 u1)^2 — the longest chain; the written derivation
    # compresses many commutator shuffles into single equalities, so the
    # replay script spells them out.
    [0, 4, 4, 5, 6, 4, 4, 5, 6, 1, 1, 7, 8, 1, 7, 8, 2, 9, 7, 7, 9, 3,
     8, 8, 1],
    [4],                   # [u2, t2]
    [0],                   # (u2 t1)^2 = (t1 u2)^2
    [1, 1, 7],             # [u3, t2]
    [1, 1, 7, 1, 7, 2, 7, 1, 7],   # (u3 t1)^2 = (t1 u3)^2
    [1, 1, 8],             # [u4, t2]
    [1, 1, 8, 1, 8, 3, 8, 1, 8],   # (u4 t1)^2 = (t1 u4)^2
    [0, 4, 5, 6, 4],       # elliptic (u1, u2)
    [4, 4, 5, 1, 1, 7, 1, 7, 8, 2, 7, 9, 7, 8, 1],   # elliptic (u1, u3)
    [4, 4, 6, 1, 1, 8, 1, 7, 8, 7, 9, 3, 8, 1, 8],   # elliptic (u1, u4)
    [4, 5, 4],             # elliptic (u2, u3)
    [4, 6, 4],             # elliptic (u2, u4)
    [1, 1, 8, 1, 7, 9, 7, 1, 8],   # elliptic (u3, u4)
]

# One script per Artin relator, proved against the sphere-braid relators.
BWD_RELATORS: list[list[int] | None] = [
    [5],                   # (s1 s2)^2 = (s2 s1)^2
    [1],                   # s2 s3 s2 = s3 s2 s3
    [1, 1, 6, 1, 6, 7, 6, 6, 1],   # (s3 s4)^2 = (s4 s3)^2
    [1, 1, 8, 1, 8, 9, 8, 8, 1],   # (s3 s5)^2 = (s5 s3)^2
    [4],                   # [s1, s3]
    [4, 13, 4],            # [s1, s4]
    [4, 14, 4],            # [s1, s5]
    [1, 6, 1],             # [s2, s4]
    [1, 8, 1],             # [s2, s5]
    [1, 1, 8, 1, 6, 15, 6, 8, 1],  # x-relation
]

# Round-trip scripts (one per generator): every composite image cancels
# freely except bwd(fwd(u1)), which needs one closedness application.
BWD_FWD: list[list[int] | None] = [[0], [], [], [], [], []]
FWD_BWD: list[list[int] | None] = [[], [], [], [], []]


def sphere_rank3_hints() -> dict:
    """Hint bundle for ``verify_isomorphism_pair`` on the rank-3
    type-C sphere-braid isomorphism."""
    return {
        "fwd_relators": FWD_RELATORS,
        "bwd_relators": BWD_RELATORS,
        "bwd_fwd": BWD_FWD,
        "fwd_bwd": FWD_BWD,
    }
