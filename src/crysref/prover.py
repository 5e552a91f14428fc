"""A small certificate-producing prover for the word problem.

The prover tries to reduce a word to the empty word by inserting cyclic
shifts of relators (or their inverses) followed by free cancellation.
Success yields a replayable :class:`Certificate`; failure within budget
yields ``UNKNOWN`` — never a claimed negative, except when the
abelianized invariant already rules the word out.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import os
import re
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .snf import smith_normal_form
from .words import Letter, Word


class ProofStatus(Enum):
    PROVED = "proved"
    DISPROVED = "disproved"
    UNKNOWN = "unknown"


_BAD_SCALE = ("CRYSREF_BUDGET_SCALE must be a number > 0 that keeps the search "
              "budgets finite, got {!r}")


def env_budget_scale() -> float:
    """The factor in ``CRYSREF_BUDGET_SCALE`` (1 when unset or empty).

    Raises ValueError, naming the variable, unless the value is a number
    > 0 that keeps the largest default budget, ``max_states``, finite.
    """
    text = os.environ.get("CRYSREF_BUDGET_SCALE", "")
    try:
        scale = float(text or "1")
    except ValueError:
        scale = math.nan
    if not (math.isfinite(scale * Budget.max_states) and scale > 0):
        raise ValueError(_BAD_SCALE.format(text))
    return scale


@dataclass(frozen=True)
class Budget:
    max_word_length: int
    max_depth: int = 96
    max_states: int = 200_000

    @classmethod
    def for_word(cls, w: Word) -> "Budget":
        scale = env_budget_scale()
        # a word long enough overflows a scale that max_states allows
        length = (4 * len(w) + 32) * scale
        if not math.isfinite(length):
            raise ValueError(_BAD_SCALE.format(os.environ["CRYSREF_BUDGET_SCALE"]))
        return cls(
            max_word_length=max(8, int(length)),
            max_depth=max(8, int(cls.max_depth * scale)),
            max_states=max(1000, int(cls.max_states * scale)),
        )


# a step is ("insert", variant_index, shift, pos) or ("cancel", pos)
Step = tuple
# one tuple per distinct step, shared by every certificate built here
_STEPS: dict[Step, Step] = {}


@dataclass(frozen=True, slots=True)
class Certificate:
    """Replayable proof that a word reduces to the empty word.

    ``insert Rv@s at p`` splices the s-th cyclic shift of symmetrized
    relator variant v into the letter sequence at position p;
    ``cancel at p`` deletes the inverse pair at positions p, p+1.
    The letter sequence is never reduced implicitly.
    """

    steps: tuple[Step, ...]

    def to_text(self) -> str:
        lines = []
        for k, step in enumerate(self.steps):
            if step[0] == "insert":
                _, v, s, p = step
                lines.append(f"step {k}: insert R{v}@{s} at {p}")
            else:
                lines.append(f"step {k}: cancel at {step[1]}")
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, text: str) -> "Certificate":
        ins = re.compile(r"^step (\d+): insert R(\d+)@(\d+) at (\d+)$")
        can = re.compile(r"^step (\d+): cancel at (\d+)$")
        steps: list[Step] = []
        for ln in text.splitlines():
            ln = ln.strip()
            if not ln:
                continue
            m = ins.match(ln) or can.match(ln)
            if not m:
                raise ValueError(f"bad certificate line {ln!r}")
            if int(m.group(1)) != len(steps):
                raise ValueError(f"expected step {len(steps)}, got {ln!r}")
            if m.re is ins:
                steps.append(("insert", int(m.group(2)), int(m.group(3)), int(m.group(4))))
            else:
                steps.append(("cancel", int(m.group(2))))
        return cls(tuple(steps))


@dataclass(frozen=True, slots=True)
class ProofResult:
    status: ProofStatus
    certificate: Optional[Certificate] = None
    reason: str = ""


# the proof of the empty word; frozen, so every caller shares it
_EMPTY_PROOF = ProofResult(ProofStatus.PROVED, Certificate(()))


def symmetrized_relators(relators: Sequence[Word]) -> list[Word]:
    """Each relator followed by its inverse; variant index = 2i (+1)."""
    out: list[Word] = []
    for r in relators:
        out.append(r)
        out.append(r.inverse())
    return out


def _shifted(variant: Word, shift: int) -> tuple[Letter, ...]:
    ls = variant.letters
    shift %= len(ls) or 1
    return ls[shift:] + ls[:shift]


def replay(
    cert: Certificate, word: Word, relators: Sequence[Word]
) -> tuple[Letter, ...]:
    """Replay a certificate from the given word; returns the final
    (unreduced) letter sequence."""
    variants = symmetrized_relators(relators)
    seq = list(word.letters)
    for step in cert.steps:
        if step[0] == "insert":
            _, v, s, p = step
            if not 0 <= v < len(variants):
                raise ValueError(f"certificate refers to unknown relator R{v}")
            if not 0 <= p <= len(seq):
                raise ValueError(f"insert position {p} out of range")
            seq[p:p] = list(_shifted(variants[v], s))
        else:
            p = step[1]
            if not 0 <= p < len(seq) - 1:
                raise ValueError(f"cancel position {p} out of range")
            a, b = seq[p], seq[p + 1]
            if a[0] != b[0] or a[1] != -b[1]:
                raise ValueError(f"letters at {p} do not cancel")
            del seq[p : p + 2]
    return tuple(seq)


def check_certificate(
    cert: Certificate, word: Word, relators: Sequence[Word]
) -> bool:
    try:
        return replay(cert, word, relators) == ()
    except ValueError:
        return False


# A prover state is a str with one code point per letter, chr(2g + (e > 0)):
# the inverse letter flips the low bit, and str order is letter-tuple order.
def _encode(letters: Sequence[Letter]) -> str:
    return "".join([chr(2 * g + (e > 0)) for g, e in letters])


def _reduce(seq: str) -> tuple[str, list[Step]]:
    """The free reduction of seq and the cancel steps that replay it.

    A stack reduction: a letter that inverts the top of the stack pops it,
    a cancel at the top's position, so the pairs go leftmost first and each
    position is counted against the sequence as replay sees it."""
    stack: list[str] = []
    cancels: list[Step] = []
    for c in seq:
        if stack and ord(stack[-1]) ^ 1 == ord(c):
            stack.pop()
            step = ("cancel", len(stack))
            cancels.append(_STEPS.setdefault(step, step))
        else:
            stack.append(c)
    return "".join(stack), cancels


@functools.lru_cache(maxsize=16)
def _relator_chunks(relators: tuple[Word, ...]) -> tuple[tuple, tuple]:
    """The symmetrized relators and the chunks of all their shifts, built
    once per relator set and shared by every proof and hint against it.

    A chunk is (v, s, head, tail, body, inv) per distinct cyclic shift s of
    variant v, first occurrence kept: head and tail invert the shift's end
    letters, body is the reduced shift, inv its letters inverted.  The
    chunks come in a canonical order, by the length and then the letters
    of the unreduced shift, so the search sees only the set of relators up
    to inversion: the order of the relator list changes only the ``Rv@s``
    labels of a certificate, not the moves it tries or their ties."""
    variants = tuple(symmetrized_relators(relators))
    out: dict[str, tuple] = {}
    for v, variant in enumerate(variants):
        for s in range(len(variant.letters)):
            raw = _encode(_shifted(variant, s))
            body = _reduce(raw)[0]
            inv = "".join([chr(ord(c) ^ 1) for c in body])
            ends = chr(ord(raw[0]) ^ 1), chr(ord(raw[-1]) ^ 1)
            out.setdefault(raw, (v, s, *ends, body, inv))
    return variants, tuple(out[r] for r in sorted(out, key=lambda r: (len(r), r)))


def _joins(seq: str, chunks: Sequence[tuple], limit: int):
    """The moves (v, s, pos, size, new) from the freely reduced state seq, in
    chunk then pos order, for the search and the hints alike.  pos is an end
    of seq or a seam where the shift's unreduced first or last letter cancels
    (any other pos only grows the word, which another shift reaches too); new
    is the free reduction of the insert, one slice join after the seam
    cancels, and size its length.  new is None when size > limit: the size
    is counted from the cancels, so a move too long to use is never joined."""
    n = len(seq)
    for v, s, head, tail, body, inv in chunks:
        found = {0, n}
        p = seq.find(tail)
        while p >= 0:
            found.add(p)
            p = seq.find(tail, p + 1)
        p = seq.find(head)
        while p >= 0:
            found.add(p + 1)
            p = seq.find(head, p + 1)
        for pos in sorted(found):
            i = j = pos
            k, m = 0, len(body)
            while k < m and i and seq[i - 1] == inv[k]:
                i -= 1
                k += 1
            while k < m and j < n and seq[j] == inv[m - 1]:
                j += 1
                m -= 1
            if k == m:
                # the chunk cancelled away: seq cancels across the join
                while i and j < n and ord(seq[i - 1]) ^ 1 == ord(seq[j]):
                    i -= 1
                    j += 1
            size = i + m - k + n - j
            yield v, s, pos, size, (
                seq[:i] + body[k:m] + seq[j:] if size <= limit else None
            )


def abelian_obstruction(word: Word, relators: Sequence[Word]) -> bool:
    """True when the exponent-sum vector is provably outside the relator
    lattice (a sound non-triviality witness)."""
    k = max([word.max_index()] + [r.max_index() for r in relators]) + 1
    target = word.exponent_sums(k)
    rows = [r.exponent_sums(k) for r in relators]
    # solve: target in row lattice?  check via SNF of rows vs rows+target
    d1 = [d for d in smith_normal_form(rows, k) if d]
    d2 = [d for d in smith_normal_form(rows + [target], k) if d]
    return d1 != d2


def prove_trivial(
    word: Word,
    relators: Sequence[Word],
    budget: Budget | None = None,
) -> ProofResult:
    """Best-first search for a triviality certificate.

    Two deterministic phases: a depth-committing pass (LIFO tie-break,
    a twentieth of the popped-state budget, at least 1000 and at most all
    of it) that resolves most instances quickly, then a breadth-sweeping
    pass (FIFO tie-break, full budget) as a fallback.  Only the sweep
    proves one relator each of `braid C_alpha 4`, `hecke tripledot 5` and
    `hecke gdaha-check D4 4`.  Each pass stores about as many states as it
    pops, so ``max_states`` bounds the memory.
    """
    if not word:
        return _EMPTY_PROOF
    if abelian_obstruction(word, relators):
        return ProofResult(
            ProofStatus.DISPROVED, reason="abelianized image is nontrivial"
        )
    if budget is None:
        budget = Budget.for_word(word)
    variants, chunks = _relator_chunks(tuple(relators))
    dive_budget = Budget(
        budget.max_word_length,
        budget.max_depth,
        min(budget.max_states, max(1000, budget.max_states // 20)),
    )
    res = _search(word, variants, chunks, dive_budget, lifo=True)
    if res.status is ProofStatus.PROVED:
        return res
    return _search(word, variants, chunks, budget, lifo=False)


def _search(
    word: Word,
    variants: Sequence[Word],
    chunks: Sequence[tuple],
    budget: Budget,
    lifo: bool,
) -> ProofResult:
    """Best-first search over the ``_joins`` moves, shortest word first,
    with partial expansion (Yoshizumi, Miura and Ishida, AAAI 2000).

    A state popped at score F stores only its children of length <= F and
    goes back on the heap at the key of its best deferred child; each
    re-pop stores the children of that length.  A child's tie is its index
    in its parent's full move list, offset by a block of ties the parent
    takes at its first pop, so a deferred child keeps the place in the
    order it would have had if stored at once.  Only first pops count
    toward ``max_states``, and stored states stay close to popped ones.

    A state is an ``_encode`` string keeping one parent record ``(parent,
    v, s, pos, depth)``; ``_build_certificate`` rebuilds the cancel steps.
    An ``Unknown`` names the limit that ended the search."""
    start = _encode(word.letters)
    maxlen = budget.max_word_length
    sign = -1 if lifo else 1
    # heap entries: (score, tiebreak, seq); an expanded state comes back
    # with the score and tie of its best deferred child
    heap: list[tuple[int, int, str]] = [(len(start), 0, start)]
    came_from: dict[str, tuple] = {start: (None, 0, 0, 0, 0)}
    # the first tie of each expanded state's block
    blocks: dict[str, int] = {}
    counter = 1
    explored = 0
    reason = "no moves left within max_word_length and max_depth"
    while heap:
        score, _, seq = heapq.heappop(heap)
        depth = came_from[seq][4] + 1
        base = blocks.get(seq)
        if base is None:
            explored += 1
            if explored > budget.max_states:
                reason = f"popped more than {budget.max_states} states (max_states)"
                break
            if depth > budget.max_depth:
                continue
            base = blocks[seq] = counter
        # the best deferred child: LIFO ties fall with the index, FIFO rise
        next_size, next_tie = maxlen + 1, 0
        idx = -1
        for idx, (v, s, pos, size, new) in enumerate(
            _joins(seq, chunks, min(score, maxlen))
        ):
            if new is None:
                if size < next_size or lifo and size == next_size:
                    next_size, next_tie = size, sign * (base + idx)
            elif new not in came_from:
                came_from[new] = (seq, v, s, pos, depth)
                if not new:
                    return ProofResult(
                        ProofStatus.PROVED,
                        _build_certificate(itertools.repeat(came_from), new, variants),
                    )
                # LIFO tie-break commits to a promising line; FIFO sweeps
                # the length plateau breadth-first
                heapq.heappush(heap, (size, sign * (base + idx), new))
        counter = max(counter, base + idx + 1)
        if next_size <= maxlen:
            heapq.heappush(heap, (next_size, next_tie, seq))
    return ProofResult(ProofStatus.UNKNOWN, reason=f"search budget exhausted: {reason}")


def _build_certificate(records, final, variants) -> Certificate:
    """The certificate of the chain ending at state final.  ``records``
    yields, last link first, the map holding each link's ``(parent, v, s,
    pos, ...)``; a ``None`` parent ends the chain early.  Each link's cancel
    steps are those of ``_reduce`` on its parent with the shift spliced in
    at pos; equal steps share a ``_STEPS`` tuple."""
    links = []
    for record in records:
        parent, v, s, pos = record[final][:4]
        if parent is None:
            break
        links.append((parent, v, s, pos))
        final = parent
    steps: list[Step] = []
    for parent, v, s, pos in reversed(links):
        step = ("insert", v, s, pos)
        steps.append(_STEPS.setdefault(step, step))
        chunk = _encode(_shifted(variants[v], s))
        steps += _reduce(parent[:pos] + chunk + parent[pos:])[1]
    return Certificate(tuple(steps))


# ---------------------------------------------------------------------
# hint scripts: loose relator sequences resolved greedily


def resolve_hint(
    word: Word, relators: Sequence[Word], hint: Sequence[int]
) -> ProofResult:
    """Resolve a loose hint — an ordered sequence of relator indices —
    into a strict certificate.  At each step the search's ``_joins``
    moves are tried for the chunks of the hinted relator in the search's
    own ``_relator_chunks`` table (both orientations, every shift that no
    earlier relator shares), and a small beam of the shortest results is
    kept (deterministic tie-break: length, variant/shift/position, then
    the ``_encode`` string, ordered as its letters), so a hint only needs
    to name the relations a derivation uses, in order.

    The beam words are visited in beam order.  Once a step has found as
    many distinct words as the beam holds, the largest size among the
    shortest of them bounds the joins of the words still to visit: a
    longer move cannot enter the beam, and every move up to the bound is
    still joined, so the beam is the one a full join would keep."""
    variants, table = _relator_chunks(tuple(relators))
    beam_width = 8
    beam = [_encode(word.letters)]
    # per hint step, for each beam word: (parent, v, s, pos, tie_key)
    history: list[dict] = []
    for r in hint:
        if not 0 <= r < len(relators):
            return ProofResult(ProofStatus.UNKNOWN, reason=f"bad hint index {r}")
        chunks = [c for c in table if c[0] >> 1 == r]
        if not chunks:
            return ProofResult(ProofStatus.UNKNOWN,
                               reason=_shared_relator_reason(variants, table, r))
        candidates: dict[str, tuple] = {}
        limit = sys.maxsize
        for seq in beam:
            for v, s, pos, size, new in _joins(seq, chunks, limit):
                if new is None:
                    continue
                key = (size, v, s, pos)
                prev = candidates.get(new)
                if prev is None or key < prev[4]:
                    candidates[new] = (seq, v, s, pos, key)
            if len(candidates) >= beam_width:
                limit = sorted([c[4][0] for c in candidates.values()])[beam_width - 1]
        beam = sorted(candidates, key=lambda w: (candidates[w][4], w))[:beam_width]
        history.append({w: candidates[w] for w in beam})
    if "" in beam:
        return ProofResult(
            ProofStatus.PROVED, _build_certificate(reversed(history), "", variants)
        )
    return ProofResult(
        ProofStatus.UNKNOWN, reason="hint did not reach the empty word"
    )


def _shared_relator_reason(variants, table, r: int) -> str:
    """Why relator r has no chunk: an earlier relator (the owner of its
    first shift in ``table``) has all its shifts, or it has no letters."""
    raw = _encode(variants[2 * r].letters)
    for v, s, *_ in table:
        if _encode(_shifted(variants[v], s)) == raw:
            return (f"hint relator {r} is relator {v >> 1} up to shift "
                    "and inversion; its moves are under that index")
    return "empty relator in hint"


# ---------------------------------------------------------------------
# homomorphism / isomorphism checking


@dataclass(frozen=True)
class GeneratorMap:
    """Assignment of a word in the target generators to each source
    generator."""

    source_names: tuple[str, ...]
    target_names: tuple[str, ...]
    images: tuple[Word, ...]

    def __post_init__(self) -> None:
        if len(self.images) != len(self.source_names):
            raise ValueError("one image per source generator required")
        for w in self.images:
            if w.max_index() >= len(self.target_names):
                raise ValueError("image uses undeclared target generator")

    def apply(self, w: Word) -> Word:
        return Word(letter for g, e in w.letters
                    for letter in (self.images[g] if e == 1
                                   else self.images[g].inverse()).letters)


def compose_maps(outer: GeneratorMap, inner: GeneratorMap) -> GeneratorMap:
    if inner.target_names != outer.source_names:
        raise ValueError("maps do not compose")
    return GeneratorMap(
        inner.source_names,
        outer.target_names,
        tuple(outer.apply(w) for w in inner.images),
    )


def _prove(
    words: Sequence[Word],
    relators: Sequence[Word],
    hints: Optional[Sequence[Optional[Sequence[int]]]],
) -> list[ProofResult]:
    """One result per word: the certificate of its hint (``hints[i]``)
    when that resolves, else a search."""
    hints = hints or ()
    out = []
    for i, w in enumerate(words):
        hint = hints[i] if i < len(hints) else None
        res = None if hint is None else resolve_hint(w, relators, hint)
        if res is None or res.status is not ProofStatus.PROVED:
            res = prove_trivial(w, relators)
        out.append(res)
    return out


def verify_homomorphism(
    fmap: GeneratorMap,
    source_relators: Sequence[Word],
    target_relators: Sequence[Word],
    hints: Optional[Sequence[Optional[Sequence[int]]]] = None,
) -> list[ProofResult]:
    """Prove each source relator dies in the target presentation.  One
    result per relator, in order."""
    images = [fmap.apply(rel) for rel in source_relators]
    return _prove(images, target_relators, hints)


def verify_isomorphism_pair(
    fwd: GeneratorMap,
    bwd: GeneratorMap,
    source_relators: Sequence[Word],
    target_relators: Sequence[Word],
    hints: Optional[dict] = None,
) -> dict:
    """Check fwd/bwd are mutually inverse homomorphisms.

    Result keys: ``fwd_relators``, ``bwd_relators``, ``bwd_fwd``,
    ``fwd_bwd`` (lists of :class:`ProofResult`), plus ``pass``.
    """
    hints = hints or {}
    rep = {
        "fwd_relators": verify_homomorphism(
            fwd, source_relators, target_relators, hints.get("fwd_relators")
        ),
        "bwd_relators": verify_homomorphism(
            bwd, target_relators, source_relators, hints.get("bwd_relators")
        ),
    }
    round_trips = {
        "bwd_fwd": (compose_maps(bwd, fwd), source_relators),
        "fwd_bwd": (compose_maps(fwd, bwd), target_relators),
    }
    for key, (comp, rels) in round_trips.items():
        words = [
            comp.images[g] * Word.gen(g, -1) for g in range(len(comp.source_names))
        ]
        rep[key] = _prove(words, rels, hints.get(key))
    rep["pass"] = all(
        r.status is ProofStatus.PROVED
        for rs in rep.values()
        if isinstance(rs, list)
        for r in rs
    )
    return rep
