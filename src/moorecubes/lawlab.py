"""Empirical classification of the structure-map laws.

Every law registered with @law (listed in LAW_IDS) is checked on seeded random
instances.  For each instance the checker builds both sides of the law
and compares them with the equality oracle:

* strict equality (shapes and actions match)        -> counted strict
* action-only equality (values match, shapes don't) -> counted action
* neither                                           -> counted failed

When a side requires a composition that compose_strict rejects, the
instance is flagged not-constructible and the side is rebuilt with
compose_lenient; the comparison result then counts at most as
action-level.  A law classifies

* FAILS                      if any instance failed,
* NOT_CONSTRUCTIBLE_STRICTLY if any instance needed the lenient rebuild,
* HOLDS_ACTION               if any instance was action-only,
* HOLDS_STRICT               otherwise.

Everything is reproducible: instance k of a law draws from
random.Random(f"{seed}|{law_id}|{k}") and reports carry no timestamps.
"""
from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from functools import partial
from typing import Callable, Sequence

from .compose import compose_lenient, compose_strict, multi_compose
from .core import (
    Equality,
    EqualityOracle,
    Euclidean,
    MooreCube,
    Product,
    Shape,
    make_cube,
)
from .errors import CompositionUndefined, UnknownLaw
from .expr import cube_from_exprs
from .generators import extend_chain, gen_composable_pair, gen_cube, quadrants
from .ops import Sign, connection, degeneracy, face, reverse
from .tensor import reassociate, tensor

_SIGNS = (Sign.MINUS, Sign.PLUS)


class Classification(str, Enum):
    HOLDS_STRICT = "HOLDS_STRICT"
    HOLDS_ACTION = "HOLDS_ACTION"
    NOT_CONSTRUCTIBLE_STRICTLY = "NOT_CONSTRUCTIBLE_STRICTLY"
    FAILS = "FAILS"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Witness:
    """A reproducible counterexample: rebuild the instance, evaluate both
    sides at `point`, and `distance` comes back within 1e-12."""

    instance: int
    comparison: str
    point: tuple[float, ...]
    left: tuple[float, ...]
    right: tuple[float, ...]
    distance: float


@dataclass(frozen=True)
class LawCase:
    """Both sides of one law instance, ready for comparison.

    comparisons are (name, lhs, rhs) triples.  failure is set when even
    the lenient rebuild of a side was rejected; the case then has no
    comparisons and counts as failed.
    """

    comparisons: tuple[tuple[str, MooreCube, MooreCube], ...]
    not_constructible: bool = False
    failure: CompositionUndefined | None = None
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class InstanceResult:
    law_id: str
    instance: int
    status: str  # "strict" | "action" | "failed"
    not_constructible: bool
    witness: Witness | None
    note: str | None
    meta: dict


@dataclass(frozen=True)
class LawOutcome:
    """Aggregate over all instances of one law.

    count_strict + count_action_only + count_failed = instances_run;
    count_not_constructible is an overlapping tally of instances whose
    strict construction was rejected.  witness is the first one found.
    """

    law_id: str
    classification: Classification
    instances_run: int
    count_strict: int
    count_action_only: int
    count_failed: int
    count_not_constructible: int
    witness: Witness | None
    note: str | None


@dataclass(frozen=True)
class LawReport:
    seed: int
    instances: int
    samples_per_axis: int
    tol_val: float
    tol_shape: float
    outcomes: tuple[LawOutcome, ...]

    def as_dict(self) -> dict:
        """Every field but outcomes under "config"; each outcome under "laws"."""
        config = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "outcomes"}
        return {"config": config, "laws": {o.law_id: asdict(o) for o in self.outcomes}}


def _rng(seed: int, law_id: str, k: int) -> random.Random:
    return random.Random(f"{seed}|{law_id}|{k}")


def _pick(seq: Sequence, k: int):
    return seq[k % len(seq)]


def _cmp(name: str, lhs: MooreCube, rhs: MooreCube, **meta) -> LawCase:
    return LawCase(((name, lhs, rhs),), meta=dict(meta))


# ---------------------------------------------------------------------------
# per-law case builders: (rng, k, oracle) -> LawCase

_REGISTRY: dict[str, Callable[..., LawCase]] = {}


def law(law_id: str):
    """Register a case builder (rng, k, oracle) -> LawCase under law_id.

    Registration order is the order of LAW_IDS and of the table.
    """

    def register(builder):
        if law_id in _REGISTRY:
            raise ValueError(f"law {law_id!r} is already registered")
        _REGISTRY[law_id] = builder
        return builder

    return register


@law("3.1.i")
def _case_3_1_i(rng, k, oracle):
    combos = [
        (i, j, a, b)
        for (i, j) in ((1, 2), (1, 3), (2, 3))
        for a in _SIGNS
        for b in _SIGNS
    ]
    i, j, alpha, beta = _pick(combos, k)
    x = gen_cube(rng, 3)
    lhs = face(face(x, j, beta), i, alpha)
    rhs = face(face(x, i, alpha), j - 1, beta)
    return _cmp(f"d{i}{alpha}.d{j}{beta}", lhs, rhs)


@law("3.1.ii")
def _case_3_1_ii(rng, k, oracle):
    dim = 1 + k % 2
    pairs = [(i, j) for j in range(1, dim + 2) for i in range(1, j + 1)]
    i, j = _pick(pairs, k // 2)
    x = gen_cube(rng, dim)
    lhs = degeneracy(degeneracy(x, j), i)
    rhs = degeneracy(degeneracy(x, i), j + 1)
    return _cmp(f"e{i}.e{j}", lhs, rhs)


@law("3.1.iii.lt")
def _case_3_1_iii_lt(rng, k, oracle):
    combos = [(i, j, a) for (i, j) in ((1, 2), (1, 3), (2, 3)) for a in _SIGNS]
    i, j, alpha = _pick(combos, k)
    x = gen_cube(rng, 2)
    lhs = face(degeneracy(x, j), i, alpha)
    rhs = degeneracy(face(x, i, alpha), j - 1)
    return _cmp(f"d{i}{alpha}.e{j}", lhs, rhs)


@law("3.1.iii.gt")
def _case_3_1_iii_gt(rng, k, oracle):
    combos = [(i, j, a) for (i, j) in ((2, 1), (3, 1), (3, 2)) for a in _SIGNS]
    i, j, alpha = _pick(combos, k)
    x = gen_cube(rng, 2)
    lhs = face(degeneracy(x, j), i, alpha)
    rhs = degeneracy(face(x, i - 1, alpha), j)
    return _cmp(f"d{i}{alpha}.e{j}", lhs, rhs)


@law("3.1.iii.eq")
def _case_3_1_iii_eq(rng, k, oracle):
    dim = 1 + k % 2
    combos = [(i, a) for i in range(1, dim + 2) for a in _SIGNS]
    i, alpha = _pick(combos, k // 2)
    x = gen_cube(rng, dim)
    lhs = face(degeneracy(x, i), i, alpha)
    return _cmp(f"d{i}{alpha}.e{i}", lhs, x)


@law("3.2.i")
def _case_3_2_i(rng, k, oracle):
    combos = [(a, b) for a in _SIGNS for b in _SIGNS]
    alpha, beta = _pick(combos, k)
    i, j = 1, 2
    x = gen_cube(rng, 2)
    lhs = connection(connection(x, j, beta), i, alpha)
    rhs = connection(connection(x, i, alpha), j + 1, beta)
    return _cmp(f"c{i}{alpha}.c{j}{beta}", lhs, rhs)


@law("3.2.ii")
def _case_3_2_ii(rng, k, oracle):
    dim = 1 + k % 2
    combos = [(i, a) for i in range(1, dim + 1) for a in _SIGNS]
    i, alpha = _pick(combos, k // 2)
    x = gen_cube(rng, dim)
    inner = connection(x, i, alpha)
    lhs = connection(inner, i, alpha)
    rhs = connection(inner, i + 1, alpha)
    return _cmp(f"c{i}{alpha}.c{i}{alpha}", lhs, rhs)


@law("3.2.iii")
def _case_3_2_iii(rng, k, oracle):
    if k % 2:
        dim = 2
        combos = [
            (i, j, a)
            for (i, j) in ((1, 2), (1, 3), (2, 3), (2, 1), (3, 1), (3, 2))
            for a in _SIGNS
        ]
    else:
        dim = 1
        combos = [(i, j, a) for (i, j) in ((1, 2), (2, 1)) for a in _SIGNS]
    i, j, alpha = _pick(combos, k // 2)
    x = gen_cube(rng, dim)
    lhs = connection(degeneracy(x, j), i, alpha)
    if i < j:
        rhs = degeneracy(connection(x, i, alpha), j + 1)
    else:
        rhs = degeneracy(connection(x, i - 1, alpha), j)
    return _cmp(f"c{i}{alpha}.e{j}", lhs, rhs)


@law("3.2.iv")
def _case_3_2_iv(rng, k, oracle):
    dim = 1 if k % 3 < 2 else 2
    combos = [(j, a) for j in range(1, dim + 2) for a in _SIGNS]
    j, alpha = _pick(combos, k // 3)
    x = gen_cube(rng, dim)
    base = degeneracy(x, j)
    conn = connection(base, j, alpha)
    twice = degeneracy(base, j)
    shifted = degeneracy(base, j + 1)
    return LawCase(
        (
            (f"c{j}{alpha}.e{j}=e{j}.e{j}", conn, twice),
            (f"e{j}.e{j}=e{j + 1}.e{j}", twice, shifted),
        )
    )


@law("3.2.v")
def _case_3_2_v(rng, k, oracle):
    combos = [
        (i, j, a, b)
        for (i, j) in ((1, 2), (3, 1))
        for a in _SIGNS
        for b in _SIGNS
    ]
    i, j, alpha, beta = _pick(combos, k)
    x = gen_cube(rng, 2)
    lhs = face(connection(x, j, beta), i, alpha)
    if i < j:
        rhs = connection(face(x, i, alpha), j - 1, beta)
    else:
        rhs = connection(face(x, i - 1, alpha), j, beta)
    return _cmp(f"d{i}{alpha}.c{j}{beta}", lhs, rhs)


@law("3.2.vi")
def _case_3_2_vi(rng, k, oracle):
    dim = 1 + k % 2
    combos = [(j, a) for j in range(1, dim + 1) for a in _SIGNS]
    j, alpha = _pick(combos, k // 2)
    x = gen_cube(rng, dim)
    built = connection(x, j, alpha)
    return LawCase(
        (
            (f"d{j}{alpha}.c{j}{alpha}=id", face(built, j, alpha), x),
            (f"d{j + 1}{alpha}.c{j}{alpha}=id", face(built, j + 1, alpha), x),
        )
    )


@law("3.2.vii")
def _case_3_2_vii(rng, k, oracle):
    dim = 1 + k % 2
    combos = [(j, a) for j in range(1, dim + 1) for a in _SIGNS]
    j, alpha = _pick(combos, k // 2)
    extents = [rng.uniform(0.5, 3.0) for _ in range(dim)]
    if k % 5 == 0:
        extents[j - 1] = 0.0  # zero pivot: the one case where strict holds
    x = gen_cube(rng, dim, shape=Shape(tuple(extents)))
    built = connection(x, j, alpha.opposite)
    rhs = degeneracy(face(x, j, alpha), j)
    return LawCase(
        (
            (f"d{j}{alpha}.c{j}{alpha.opposite}", face(built, j, alpha), rhs),
            (f"d{j + 1}{alpha}.c{j}{alpha.opposite}", face(built, j + 1, alpha), rhs),
        ),
        meta={"pivot": extents[j - 1]},
    )


@law("3.3.bounds")
def _case_3_3_bounds(rng, k, oracle):
    dim = 1 + k % 2
    j = 1 + (k // 2) % dim
    a, b = gen_composable_pair(rng, dim, j)
    comp = compose_strict(a, b, j, oracle)
    return LawCase(
        (
            ("lower", face(comp, j, Sign.MINUS), face(a, j, Sign.MINUS)),
            ("upper", face(comp, j, Sign.PLUS), face(b, j, Sign.PLUS)),
        )
    )


@law("3.3.other")
def _case_3_3_other(rng, k, oracle):
    combos = [(i, j, a) for (i, j) in ((1, 2), (2, 1)) for a in _SIGNS]
    i, j, alpha = _pick(combos, k)
    a, b = gen_composable_pair(rng, 2, j)
    comp = compose_strict(a, b, j, oracle)
    lhs = face(comp, i, alpha)
    direction = j - 1 if i < j else j
    rhs = compose_strict(face(a, i, alpha), face(b, i, alpha), direction, oracle)
    return _cmp(f"d{i}{alpha}.compose{j}", lhs, rhs)


@law("3.4")
def _case_3_4(rng, k, oracle):
    x = gen_cube(rng, 2, allow_zero=False)
    cut1 = x.shape[0] * rng.uniform(0.2, 0.8)
    cut2 = x.shape[1] * rng.uniform(0.2, 0.8)
    (low_low, low_high), (high_low, high_high) = quadrants(x, cut1, cut2)
    grid = [[low_low, high_low], [low_high, high_high]]
    fold12 = multi_compose(grid, oracle, fold_order=(1, 2))
    fold21 = multi_compose(grid, oracle, fold_order=(2, 1))
    return LawCase(
        (
            ("fold-orders", fold12, fold21),
            ("recompose", fold12, x),
        )
    )


@law("3.5")
def _case_3_5(rng, k, oracle):
    dim = 1 + k % 2
    combos = [(i, j) for j in range(1, dim + 1) for i in range(1, dim + 2)]
    i, j = _pick(combos, k // 2)
    a, b = gen_composable_pair(rng, dim, j)
    comp = compose_strict(a, b, j, oracle)
    lhs = degeneracy(comp, i)
    direction = j + 1 if i <= j else j
    rhs = compose_strict(degeneracy(a, i), degeneracy(b, i), direction, oracle)
    return _cmp(f"e{i}.compose{j}", lhs, rhs)


@law("3.6.i")
def _case_3_6_i(rng, k, oracle):
    combos = [(i, j, a) for (i, j) in ((1, 2), (2, 1)) for a in _SIGNS]
    i, j, alpha = _pick(combos, k)
    a, b = gen_composable_pair(rng, 2, j)
    comp = compose_strict(a, b, j, oracle)
    lhs = connection(comp, i, alpha)
    direction = j + 1 if i < j else j
    rhs = compose_strict(
        connection(a, i, alpha), connection(b, i, alpha), direction, oracle
    )
    return _cmp(f"c{i}{alpha}.compose{j}", lhs, rhs)


def _transport_case(rng, k, oracle, sign: Sign):
    """Common frame for the two connection-transport laws.

    The right-hand side is a 2x2 assembly around the composite's seam.
    Strict composition rejects it whenever the inner face shapes differ,
    so the assembly is retried leniently and the comparison then counts
    at action level only.
    """
    dim, j = _pick(((1, 1), (2, 1), (2, 2)), k)
    a, b = gen_composable_pair(rng, dim, j, allow_zero=True)
    comp = compose_strict(a, b, j, oracle)
    lhs = connection(comp, j, sign)

    def build(compose):
        if sign is Sign.PLUS:
            p = compose(connection(a, j, sign), degeneracy(a, j), j)
            q = compose(degeneracy(a, j + 1), connection(b, j, sign), j)
        else:
            p = compose(connection(a, j, sign), degeneracy(b, j + 1), j)
            q = compose(degeneracy(b, j), connection(b, j, sign), j)
        return compose(p, q, j + 1)

    meta = {"r": a.shape[j - 1], "s": b.shape[j - 1]}
    try:
        rhs = build(lambda x, y, d: compose_strict(x, y, d, oracle))
        not_constructible = False
    except CompositionUndefined:
        not_constructible = True
        try:
            rhs = build(lambda x, y, d: compose_lenient(x, y, d, oracle))
        except CompositionUndefined as exc:
            meta["lenient_ok"] = False
            return LawCase((), not_constructible=True, failure=exc, meta=meta)
    meta["lenient_ok"] = True
    meta["total_shape_exact"] = rhs.shape.extents == lhs.shape.extents
    return LawCase(
        (("transport", lhs, rhs),), not_constructible=not_constructible, meta=meta
    )


law("3.6.ii")(partial(_transport_case, sign=Sign.PLUS))
law("3.6.iii")(partial(_transport_case, sign=Sign.MINUS))


def _canonical_path() -> MooreCube:
    return cube_from_exprs(1, Shape((1.0,)), Euclidean(1), ["t1"])


def _cancellation_case(rng, k, oracle, second: bool):
    if k == 0:
        x, i = _canonical_path(), 1
    else:
        dim = 1 + k % 2
        i = 1 + (k // 2) % dim
        x = gen_cube(rng, dim)
    lhs = compose_strict(
        connection(x, i, Sign.PLUS), connection(x, i, Sign.MINUS), i + 1 if second else i, oracle
    )
    rhs = degeneracy(x, i if second else i + 1)
    return _cmp("cancellation", lhs, rhs, pivot=x.shape[i - 1])


law("2.7.first")(partial(_cancellation_case, second=False))
law("2.7.second")(partial(_cancellation_case, second=True))


@law("assoc")
def _case_assoc(rng, k, oracle):
    dim = 1 + k % 2
    j = 1 + (k // 2) % dim
    a, b = gen_composable_pair(rng, dim, j)
    c = extend_chain(rng, b, j)
    lhs = compose_strict(compose_strict(a, b, j, oracle), c, j, oracle)
    rhs = compose_strict(a, compose_strict(b, c, j, oracle), j, oracle)
    return _cmp(f"assoc{j}", lhs, rhs)


def _identity_case(rng, k, oracle, left: bool):
    dim = 1 + k % 2
    j = 1 + (k // 2) % dim
    a = gen_cube(rng, dim)
    if left:
        built = compose_strict(degeneracy(face(a, j, Sign.MINUS), j), a, j, oracle)
    else:
        built = compose_strict(a, degeneracy(face(a, j, Sign.PLUS), j), j, oracle)
    return _cmp("identity", built, a)


law("ident.left")(partial(_identity_case, left=True))
law("ident.right")(partial(_identity_case, left=False))


@law("rev.involution")
def _case_rev_involution(rng, k, oracle):
    dim = 1 + k % 2
    i = 1 + (k // 2) % dim
    x = gen_cube(rng, dim)
    return _cmp(f"rev{i}.rev{i}", reverse(reverse(x, i), i), x)


@law("rev.faces")
def _case_rev_faces(rng, k, oracle):
    dim = 1 + k % 2
    combos = [(i, a) for i in range(1, dim + 1) for a in _SIGNS]
    i, alpha = _pick(combos, k // 2)
    x = gen_cube(rng, dim)
    lhs = face(reverse(x, i), i, alpha)
    rhs = face(x, i, alpha.opposite)
    return _cmp(f"d{i}{alpha}.rev{i}", lhs, rhs)


@law("rev.antihom")
def _case_rev_antihom(rng, k, oracle):
    dim = 1 + k % 2
    j = 1 + (k // 2) % dim
    a, b = gen_composable_pair(rng, dim, j)
    lhs = reverse(compose_strict(a, b, j, oracle), j)
    rhs = compose_strict(reverse(b, j), reverse(a, j), j, oracle)
    return _cmp(f"rev{j}.compose{j}", lhs, rhs)


def _tensor_factors(rng, k):
    dim_a, dim_b = _pick(((1, 1), (1, 2), (2, 1)), k)
    return gen_cube(rng, dim_a), gen_cube(rng, dim_b)


@law("tensor.shape")
def _case_tensor_shape(rng, k, oracle):
    a, b = _tensor_factors(rng, k)
    built = tensor(a, b)
    # The one opaque cube the lab builds: the pairing written out by hand is
    # the reference that tensor's node rule is checked against.
    expected = make_cube(
        a.dim + b.dim,
        Shape(a.shape.extents + b.shape.extents),
        Product(a.space, b.space),
        lambda ts: a.at(ts[: a.dim]).coords + b.at(ts[a.dim :]).coords,
    )
    return _cmp("pairing", built, expected)


@law("tensor.faces")
def _case_tensor_faces(rng, k, oracle):
    a, b = _tensor_factors(rng, k)
    total = a.dim + b.dim
    combos = [(i, s) for i in range(1, total + 1) for s in _SIGNS]
    i, alpha = _pick(combos, k // 3)
    lhs = face(tensor(a, b), i, alpha)
    if i <= a.dim:
        rhs = tensor(face(a, i, alpha), b)
    else:
        rhs = tensor(a, face(b, i - a.dim, alpha))
    return _cmp(f"d{i}{alpha}.tensor", lhs, rhs)


@law("tensor.assoc")
def _case_tensor_assoc(rng, k, oracle):
    a, b = _tensor_factors(rng, k)
    c = gen_cube(rng, 1)
    lhs = tensor(tensor(a, b), c)
    rhs = tensor(a, tensor(b, c))
    return _cmp("reassociated", reassociate(lhs, rhs.space), rhs)


LAW_IDS: tuple[str, ...] = tuple(_REGISTRY)


# ---------------------------------------------------------------------------
# checking


def _builder(law_id: str) -> Callable[..., LawCase]:
    try:
        return _REGISTRY[law_id]
    except KeyError:
        raise UnknownLaw(f"no checker registered for {law_id!r}") from None


def build_case(law_id: str, seed: int, k: int, oracle: EqualityOracle) -> LawCase:
    """Reconstruct instance k of a law exactly as the suite built it.

    A composition that the builder's construction rejects makes a failed
    case, with the rejection as its failure.
    """
    builder = _builder(law_id)
    try:
        return builder(_rng(seed, law_id, k), k, oracle)
    except CompositionUndefined as exc:
        return LawCase((), not_constructible=True, failure=exc)


def _witness_from(found: Equality | CompositionUndefined, k: int, name: str) -> Witness | None:
    w = found.witness
    if w is None:
        return None
    return Witness(k, name, w.point, w.left.coords, w.right.coords, w.distance)


def check_instance(
    law_id: str, seed: int, k: int, oracle: EqualityOracle | None = None
) -> InstanceResult:
    oracle = oracle or EqualityOracle()
    case = build_case(law_id, seed, k, oracle)
    if case.failure is not None:
        exc = case.failure
        witness = _witness_from(exc, k, "construction")
        return InstanceResult(
            law_id, k, "failed", True, witness, f"construction: {exc}", case.meta
        )
    status = "strict"
    witness = None
    note = None
    for name, lhs, rhs in case.comparisons:
        eq = oracle.equals_strict(lhs, rhs)
        if eq:
            continue
        aq = oracle.equals_action(lhs, rhs)
        if aq:
            if status == "strict":
                status = "action"
            if note is None:
                note = f"{name}: {eq.detail or 'values differ on the strict grid'}"
        else:
            status = "failed"
            witness = _witness_from(aq, k, name)
            if note is None and eq.detail:
                note = f"{name}: {eq.detail}"
            break
    if case.not_constructible and status == "strict":
        # The strict assembly was rejected, so the instance cannot vouch
        # for more than action-level agreement.
        status = "action"
    return InstanceResult(law_id, k, status, case.not_constructible, witness, note, case.meta)


def check_law(
    law_id: str,
    n_instances: int = 100,
    seed: int = 42,
    oracle: EqualityOracle | None = None,
) -> LawOutcome:
    if n_instances < 1:
        raise ValueError(f"n_instances must be >= 1, got {n_instances}")
    oracle = oracle or EqualityOracle()
    strict = action = failed = not_constructible = 0
    witness: Witness | None = None
    note: str | None = None
    for k in range(n_instances):
        res = check_instance(law_id, seed, k, oracle)
        if res.status == "strict":
            strict += 1
        elif res.status == "action":
            action += 1
        else:
            failed += 1
        if res.not_constructible:
            not_constructible += 1
        if witness is None and res.witness is not None:
            witness = res.witness
        if note is None and res.note is not None:
            note = res.note
    if failed:
        classification = Classification.FAILS
    elif not_constructible:
        classification = Classification.NOT_CONSTRUCTIBLE_STRICTLY
    elif action:
        classification = Classification.HOLDS_ACTION
    else:
        classification = Classification.HOLDS_STRICT
    return LawOutcome(
        law_id,
        classification,
        n_instances,
        strict,
        action,
        failed,
        not_constructible,
        witness,
        note,
    )


def run_suite(
    law_ids: Sequence[str] | None = None,
    n_instances: int = 100,
    seed: int = 42,
    oracle: EqualityOracle | None = None,
) -> LawReport:
    if n_instances < 1:
        raise ValueError(f"n_instances must be >= 1, got {n_instances}")
    oracle = oracle or EqualityOracle()
    ids = tuple(law_ids) if law_ids is not None else LAW_IDS
    for law_id in ids:
        _builder(law_id)
    outcomes = tuple(check_law(law_id, n_instances, seed, oracle) for law_id in ids)
    return LawReport(
        seed=seed,
        instances=n_instances,
        samples_per_axis=oracle.samples_per_axis,
        tol_val=oracle.tol_val,
        tol_shape=oracle.tol_shape,
        outcomes=outcomes,
    )


def reevaluate_witness(
    law_id: str, witness: Witness, seed: int, oracle: EqualityOracle | None = None
) -> float:
    """Rebuild the witness's instance and measure the distance at its point.

    For comparison witnesses this evaluates both sides afresh; for
    construction witnesses it re-runs the rejected assembly and reads the
    distance off the rejection. Either way the result should agree with
    witness.distance to within 1e-12.
    """
    oracle = oracle or EqualityOracle()
    case = build_case(law_id, seed, witness.instance, oracle)
    if witness.comparison == "construction":
        if case.failure is None or case.failure.witness is None:
            raise ValueError(
                f"instance {witness.instance} of {law_id} no longer fails construction"
            )
        return case.failure.witness.distance
    for name, lhs, rhs in case.comparisons:
        if name == witness.comparison:
            return lhs.space.distance(
                lhs.at(witness.point).coords, rhs.at(witness.point).coords
            )
    raise ValueError(
        f"instance {witness.instance} of {law_id} has no comparison {witness.comparison!r}"
    )
