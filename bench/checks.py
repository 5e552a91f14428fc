"""Correctness checks of crysref's outputs that share no code with
``crysref.prover``.

Each check returns a list of problems; an empty list means the output is
correct.  Words and relators are handled as plain tuples of
``(generator, ±1)`` letters.
"""

from __future__ import annotations

from crysref.affine import build_generator_matrices, evaluate_word
from crysref.presentations import artinize, build_group_presentation
from crysref.words import Word


def invert(letters):
    return tuple((g, -e) for g, e in reversed(letters))


def reduce_freely(letters):
    out = []
    for g, e in letters:
        if out and out[-1] == (g, -e):
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def apply_map(images, letters):
    """Image of a word under the generator assignment ``images``."""
    out = []
    for g, e in letters:
        out.extend(images[g] if e == 1 else invert(images[g]))
    return reduce_freely(out)


def replays_to_empty(steps, word, relators) -> bool:
    """Replay certificate steps from ``word``.  Only two steps are
    accepted: ``("insert", v, s, p)`` puts the s-th cyclic shift of
    relator v//2 (inverted when v is odd) at position p, and
    ``("cancel", p)`` deletes the inverse pair at p, p+1."""
    seq = list(word)
    for step in steps:
        if step[0] == "insert" and len(step) == 4:
            _, v, s, p = step
            if not (0 <= v < 2 * len(relators) and 0 <= p <= len(seq)):
                return False
            rel = relators[v // 2] if v % 2 == 0 else invert(relators[v // 2])
            if not rel or not 0 <= s < len(rel):
                return False
            seq[p:p] = rel[s:] + rel[:s]
        elif step[0] == "cancel" and len(step) == 2:
            p = step[1]
            if not (0 <= p < len(seq) - 1 and seq[p] == (seq[p + 1][0], -seq[p + 1][1])):
                return False
            del seq[p:p + 2]
        else:
            return False
    return not seq


class MatrixModel:
    """Evaluates Artin-side words of A_alpha and C_alpha under
    ``build_generator_matrices``.  Those matrices satisfy every group
    relator, so a word that is trivial in the Artin group must evaluate
    to the identity."""

    def __init__(self) -> None:
        self._gens: dict = {}
        self._seen: dict = {}

    def is_identity(self, family: str, n: int, letters) -> bool:
        key = (family, n, tuple(letters))
        if key not in self._seen:
            if (family, n) not in self._gens:
                self._gens[family, n] = build_generator_matrices(family, n)[1]
            value = evaluate_word(Word(letters), self._gens[family, n])
            self._seen[key] = value.is_identity()
        return self._seen[key]


def proofs(results, words, relators, label, model=None, matrices=None):
    """Every result is Proved, its certificate replays its word to the
    empty word, and (given ``matrices``, a family and rank) the word is
    the identity in the matrix model."""
    problems = []
    if len(results) != len(words):
        return [f"{label}: {len(results)} results for {len(words)} words"]
    for i, (res, word) in enumerate(zip(results, words)):
        if res.status.name != "PROVED":
            problems.append(f"{label}[{i}]: {res.status.name}")
        elif not replays_to_empty(res.certificate.steps, word, relators):
            problems.append(f"{label}[{i}]: certificate does not replay")
        elif matrices is not None and not model.is_identity(*matrices, word):
            problems.append(f"{label}[{i}]: word is not the identity matrix")
    return problems


def _letters(words):
    return [w.letters for w in words]


def braid_pair(rep, iso, family: str, n: int, model: MatrixModel) -> list[str]:
    """Check a ``verify_isomorphism_pair`` report for the braid
    isomorphism ``iso`` of ``family`` at rank ``n``."""
    fwd = _letters(iso.fwd.images)
    bwd = _letters(iso.bwd.images)
    braid = _letters(iso.braid.relators)
    artin = _letters(iso.artin.relators)
    cases = {
        "fwd_relators": ([apply_map(fwd, r) for r in braid], artin, True),
        "bwd_relators": ([apply_map(bwd, r) for r in artin], braid, False),
        "bwd_fwd": ([reduce_freely(apply_map(bwd, img) + ((g, -1),))
                     for g, img in enumerate(fwd)], braid, False),
        "fwd_bwd": ([reduce_freely(apply_map(fwd, img) + ((g, -1),))
                     for g, img in enumerate(bwd)], artin, True),
    }
    problems = [] if rep["pass"] else [f"braid {family} {n}: pass is False"]
    for key, (words, rels, artin_side) in cases.items():
        problems += proofs(rep[key], words, rels, f"braid {family} {n} {key}",
                           model, (family, n) if artin_side else None)
    return problems


def classes(out, family: str, n: int, bound: int, count: int) -> list[str]:
    """Class count and window sizes.  Each reflection hyperplane direction
    carries (2*bound+1)^2 translations in the window: n^2 directions for
    C_alpha (n sign changes, n(n-1) signed transpositions) and n(n-1)/2
    for A_alpha (transpositions)."""
    directions = n * n if family == "C_alpha" else n * (n - 1) // 2
    window = directions * (2 * bound + 1) ** 2
    problems = []
    if len(out) != count:
        problems.append(f"classes {family} {n}: {len(out)} classes, "
                        f"expected {count}")
    total = sum(c["size_in_window"] for c in out)
    if total != window:
        problems.append(f"classes {family} {n}: window sizes sum to {total}, "
                        f"expected {window}")
    return problems


def abelianization(divisors, presentation, label: str) -> list[str]:
    """Divisors equal sympy's Smith normal form of the exponent-sum
    matrix: invariant factors other than 0 and 1, then one 0 per free
    factor."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    k = presentation.num_generators
    rows = []
    for rel in presentation.relators:
        row = [0] * k
        for g, e in rel.letters:
            row[g] += e
        rows.append(row)
    snf = smith_normal_form(Matrix(rows), domain=ZZ)
    diag = [abs(int(snf[i, i])) for i in range(min(snf.shape))]
    expected = sorted(d for d in diag if d > 1)
    expected += [0] * (k - sum(1 for d in diag if d))
    if list(divisors) != expected:
        return [f"abelianize {label}: {divisors}, sympy gives {expected}"]
    return []


def triple_dot(rep, n: int, x, model: MatrixModel) -> list[str]:
    """The triple-dot generator x braids with s1 and s(n-1) and commutes
    with s2..s(n-2); every relation is proved in Artin(A_alpha n)."""
    x = x.letters
    s = [((i, 1),) for i in range(n + 1)]
    words = {
        "braid_with_s1": s[0] + x + s[0] + invert(x + s[0] + x),
        f"braid_with_s{n - 1}": x + s[n - 2] + x + invert(s[n - 2] + x + s[n - 2]),
    }
    for j in range(1, n - 2):
        words[f"commute_with_s{j + 1}"] = s[j] + x + invert(s[j]) + invert(x)
    words = {k: reduce_freely(w) for k, w in words.items()}
    label = f"tripledot {n}"
    if set(rep["results"]) != set(words):
        return [f"{label}: relations {sorted(rep['results'])}"]
    problems = [] if rep["pass"] else [f"{label}: pass is False"]
    artin = _letters(artinize(build_group_presentation("A_alpha", n)).relators)
    names = sorted(words)
    return problems + proofs([rep["results"][k] for k in names],
                             [words[k] for k in names], artin, label,
                             model, ("A_alpha", n))


def gdaha(rep, family: str, n: int, data, model: MatrixModel) -> list[str]:
    """The three levels of a GDAHA specialization report.  ``data`` is
    ``gdaha_family_data(family, n)``.  Braid-level words on the generic
    Hecke side of C_alpha are Artin words of C_alpha, so they also go
    through the matrix model."""
    hp, target, _, gen_map, reverse_map = data
    fwd = _letters(gen_map.images)
    bwd = _letters(reverse_map.images)
    source = _letters(hp.braid_part.relators)
    dest = _letters(target.braid_part.relators)
    label = f"gdaha {family} {n}"
    checks = rep["checks"]
    problems = [f"{label}: {k} fails" for k, c in checks.items()
                if not c["pass"]]
    if not rep["pass"]:
        problems.append(f"{label}: pass is False")
    braid = checks["braid"]["results"]
    problems += proofs(braid["fwd"], [apply_map(fwd, r) for r in source],
                       dest, f"{label} fwd")
    problems += proofs(braid["bwd"], [apply_map(bwd, r) for r in dest],
                       source, f"{label} bwd", model,
                       (family, n) if family == "C_alpha" else None)
    extra = reduce_freely(apply_map(fwd, hp.extra_word.letters) + ((0, 1),))
    problems += proofs([checks["extra_generator"]["result"]], [extra], dest,
                       f"{label} extra_generator")
    return problems
