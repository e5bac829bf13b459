"""Differential tests of the sheaf operations that compute each distinct stalk once.

`SheafContext.compose`, `kernel`, `cokernel`, `image`, `lift_through_mono`
and `descend_along_epi` go through `sheafcat._stalkwise`: within one call it
runs the stalk computation once per distinct tuple of stalk operands, and
every stalk whose operands are equal shares that result.  `is_mono`,
`is_epi`, `is_exact_pair` and `map_eq` test each distinct tuple once, as a
set.  `extend_along_mono` extends f's stalk at each peak once, and each
summand peaked there takes its own rows.  Equal matrices are found by
`Matrix.__hash__` and `==`.  The frozen reference is
`engine_oracle.EagerSheafContext`, which does every one of these
operations stalk by stalk.

Each operation must agree with the reference, down to the printed entries
and the message of a failure, on:
- every call the fixture commands make, and a Leray run with the flipped
  pivot rule; the torus's stalks repeat, as its 16 points map onto two
  symmetric pairs;
- drawn morphisms whose stalks repeat on purpose, on an antichain and on
  the pseudocircle, over QQ and GF(32003).  Over QQ, some of the equal
  stalks hold ints and others the same values as `Fraction(n, 1)`;
- maps into injective sums with several summands peaked at one point,
  interleaved with summands peaked elsewhere.
"""

import contextlib
import io
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from engine_oracle import EagerSheafContext
from fixtures import fence_x4
from possheaf.cli import main
from possheaf.exactla import QQ, Matrix, NoSolution, PrimeField, block_diag, vstack
from possheaf.forge import GenConfig, gen_sheaf
from possheaf.gross import leray_ss
from possheaf.instancefile import Instance
from possheaf.poset import Poset
from possheaf.sheafcat import InjectiveSheaf, Sheaf, SheafContext, SheafMorphism
from test_exactla_oracle import matrices, same

HERE = os.path.dirname(os.path.abspath(__file__))
PSEUDOCIRCLE = os.path.join(HERE, "..", "instances", "pseudocircle.json")
TORUS = os.path.join(HERE, "..", "instances", "torus.json")

FIELDS = [QQ, PrimeField(32003)]
X4 = fence_x4()
ANTICHAIN = Poset(["p0", "p1", "p2", "p3", "p4"], [])
METHODS = ["compose", "map_eq", "kernel", "cokernel", "image", "is_mono", "is_epi",
           "is_exact_pair", "lift_through_mono", "descend_along_epi", "extend_along_mono"]
COMMANDS = [
    ["--field", "fp:32003", "verify-main", TORUS, "--map", "pr1", "--sequence", "S"],
    ["leray", TORUS, "--map", "pr1", "--sheaf", "k"],
    ["verify-main", PSEUDOCIRCLE, "--map", "collapse", "--sequence", "S"],
]


def fractions(m: Matrix) -> Matrix:
    """m with each entry a `Fraction`, of denominator 1 where it is integral:
    equal to m, and hashed alike."""
    return m.scale(Fraction(1))


def outcome(fn, *args):
    """fn's result, or the message of the NoSolution it raised."""
    try:
        return fn(*args)
    except NoSolution as exc:
        return "NoSolution: %s" % exc


def agree(a, b) -> bool:
    """a and b are the same result: equal matrices with equal printed entries,
    sheaves of equal stalks and cover restrictions, morphisms of agreeing
    ends and components, tuples of agreeing parts, or equal values."""
    if a is b:
        return True
    if isinstance(a, Matrix):
        return isinstance(b, Matrix) and same(a, b)
    if isinstance(a, Sheaf):
        return (type(a) is type(b) and a.dims == b.dims
                and all(same(a.restriction(i, j), b.restriction(i, j)) for i, j in a.poset.covers))
    if isinstance(a, SheafMorphism):
        return (isinstance(b, SheafMorphism) and agree(a.source, b.source)
                and agree(a.target, b.target) and len(a.comps) == len(b.comps)
                and all(same(x, y) for x, y in zip(a.comps, b.comps)))
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(agree, a, b))
    return a == b


def check_against_eager(ctx, name, *args):
    eager = EagerSheafContext(ctx.poset, ctx.field, ctx.flip)
    got, want = outcome(getattr(ctx, name), *args), outcome(getattr(eager, name), *args)
    assert agree(got, want), (name, got, want)
    return got


def test_equal_matrices_hash_equal():
    a = Matrix.from_rows(QQ, [[1, 0, 2], [0, 0, -3]])
    twins = [fractions(a), a * Matrix.identity(QQ, 3), a.transpose().transpose(),
             Matrix.from_rows(QQ, [["1", "0", "4/2"], [0, 0, Fraction(-6, 2)]])]
    assert any(type(x) is Fraction for x in twins[0]._nz[0].values())
    for b in twins:
        assert b is not a and b == a and hash(b) == hash(a)
    assert len({m: k for k, m in enumerate([a] + twins)}) == 1
    gf = PrimeField(32003)
    assert hash(Matrix.from_rows(gf, [[-1, 32004]])) == hash(Matrix.from_rows(gf, [[32002, 1]]))
    assert hash(a) == hash(a)     # kept in a slot once made, as rows never change


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_equal_drawn_matrices_hash_equal(data):
    field = data.draw(st.sampled_from(FIELDS))
    a = data.draw(matrices(field))
    b = fractions(a) if field is QQ else a * Matrix.identity(field, a.cols)
    assert b == a and hash(b) == hash(a)
    c = data.draw(matrices(field, rows=a.rows, cols=a.cols))
    if c == a:
        assert hash(c) == hash(a)


@pytest.fixture(scope="module")
def recorded():
    """(method name, context, arguments, outcome) of every call of a METHODS
    method of `SheafContext` while the COMMANDS run and a flipped Leray run
    of the pseudocircle."""
    calls = []
    originals = {name: getattr(SheafContext, name) for name in METHODS}

    def recording(name, method):
        def run(self, *args):
            try:
                got = method(self, *args)
            except NoSolution as exc:
                calls.append((name, self, args, "NoSolution: %s" % exc))
                raise
            calls.append((name, self, args, got))
            return got
        return run

    for name, method in originals.items():
        setattr(SheafContext, name, recording(name, method))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in COMMANDS:
                assert main(argv) == 0
            inst = Instance.load(PSEUDOCIRCLE)
            leray_ss(inst.maps["collapse"], inst.sheaves["k"], flip=True)
    finally:
        for name, method in originals.items():
            setattr(SheafContext, name, method)
    return calls


def test_the_fixture_runs_reach_every_operation_on_repeated_stalks(recorded):
    assert {name for name, *_ in recorded} == set(METHODS)
    assert any(ctx.flip for _, ctx, _, _ in recorded)
    repeats = sum(len(args[0].comps) - len(set(zip(args[0].comps, args[1].comps)))
                  for name, _, args, _ in recorded if name == "compose")
    assert repeats > 1000


@pytest.mark.parametrize("name", METHODS)
def test_every_recorded_call_matches_the_eager_oracle(recorded, name):
    eager = {}
    for _, ctx, args, got in (call for call in recorded if call[0] == name):
        if id(ctx) not in eager:
            eager[id(ctx)] = EagerSheafContext(ctx.poset, ctx.field, ctx.flip)
        want = outcome(getattr(eager[id(ctx)], name), *args)
        assert agree(got, want), (name, got, want)


def constant_rho(poset, field, dims):
    """Identity restrictions on every cover, for stalks equal along covers."""
    return {(i, j): Matrix.identity(field, dims[i]) for i, j in poset.covers}


@st.composite
def repeated_morphisms(draw):
    """(ctx, f: A -> B, g: B -> C) whose stalks repeat on purpose.

    On the antichain each point takes one of at most three drawn kinds of
    stalk (dimensions and matrices), so five points repeat some; most kinds
    share one shape, so stalks of equal shape but other entries meet in one
    call.  On the pseudocircle every point takes the one kind, so the
    sheaves are constant and f and g morphisms.  Over QQ each point's
    matrices may be written with Fraction entries instead of ints.
    """
    field = draw(st.sampled_from(FIELDS))
    poset = draw(st.sampled_from([ANTICHAIN, X4]))
    nkinds = 1 if poset is X4 else draw(st.integers(1, 3))
    dims = st.tuples(*[st.integers(0, 3)] * 3)
    shape = draw(dims)
    kinds = []
    for _ in range(nkinds):
        a, b, c = shape if draw(st.integers(0, 3)) else draw(dims)
        kinds.append((a, b, c, draw(matrices(field, b, a)), draw(matrices(field, c, b))))
    at = [draw(st.integers(0, nkinds - 1)) for _ in poset.elements]
    frac = [field is QQ and draw(st.booleans()) for _ in poset.elements]

    def sheaf(k):
        dims = [kinds[t][k] for t in at]
        return Sheaf(poset, field, dims, constant_rho(poset, field, dims))

    def comps(k):
        return [fractions(kinds[t][k]) if fr else kinds[t][k] for t, fr in zip(at, frac)]

    A, B, C = sheaf(0), sheaf(1), sheaf(2)
    return SheafContext(poset, field), SheafMorphism(A, B, comps(3)), SheafMorphism(B, C, comps(4))


@settings(max_examples=120, deadline=None)
@given(repeated_morphisms())
def test_operations_on_repeated_stalks_match_the_eager_oracle(case):
    ctx, f, g = case
    A, B = f.source, f.target
    check_against_eager(ctx, "compose", g, f)
    for name in ("is_mono", "is_epi"):
        check_against_eager(ctx, name, f)
    check_against_eager(ctx, "is_exact_pair", f, g, B)
    f_frac = SheafMorphism(A, B, [fractions(m) for m in f.comps])
    assert check_against_eager(ctx, "map_eq", f, f_frac) is True
    assert check_against_eager(ctx, "map_eq", f, ctx.zero_map(A, B)) is f.is_zero()
    K, inc = check_against_eager(ctx, "kernel", f)
    assert check_against_eager(ctx, "is_exact_pair", inc, f, A) is True
    I, mono, epi = check_against_eager(ctx, "image", f)
    assert agree(check_against_eager(ctx, "lift_through_mono", f, mono), epi)
    check_against_eager(ctx, "lift_through_mono", ctx.identity(B), mono)
    Q, proj = check_against_eager(ctx, "cokernel", f)
    assert agree(check_against_eager(ctx, "descend_along_epi", proj, proj), ctx.identity(Q))
    check_against_eager(ctx, "descend_along_epi", proj, g)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("at,where", [
    ([0, 1, 1, 0, 1], "p1"),
    ([1, 0, 1, 1, 0], "p0"),
    ([0, 0, 2, 1, 2], "p2"),
])
def test_descend_names_the_first_failing_stalk(field, at, where):
    # kind 0 descends; kinds 1 and 2 do not, and each is held by a later
    # stalk too, first with ints and then, over QQ, as Fractions
    e = [Matrix.from_rows(field, [[1, 0]]), Matrix.from_rows(field, [[1, 0]]),
         Matrix.from_rows(field, [[1, 1]])]
    h = [Matrix.from_rows(field, [[2, 0]]), Matrix.from_rows(field, [[0, 3]]),
         Matrix.from_rows(field, [[1, 2]])]
    dims = [[2] * 5, [1] * 5, [1] * 5]
    B, Q, C = (Sheaf(ANTICHAIN, field, d, {}) for d in dims)
    seen, ecomps, hcomps = set(), [], []
    for t in at:
        again = field is QQ and t in seen
        ecomps.append(fractions(e[t]) if again else e[t])
        hcomps.append(fractions(h[t]) if again else h[t])
        seen.add(t)
    ctx = SheafContext(ANTICHAIN, field)
    got = check_against_eager(ctx, "descend_along_epi", SheafMorphism(B, Q, ecomps),
                              SheafMorphism(B, C, hcomps))
    assert got.startswith("NoSolution: map does not descend along the epimorphism at %s" % where)


def into_injective(A: Sheaf, I: InjectiveSheaf, peaks) -> SheafMorphism:
    """The morphism A -> I whose summand j is peaks[j] at its peak: by
    Hom(A, [x]_V) = Hom(A_x, V), at each y it stacks peaks[j] after the
    restriction of A from y to the peak, over the summands present at y."""
    comps = []
    for y in range(len(A.poset)):
        blocks = [peaks[j] * A.restriction(y, I.summands[j][0]) for j in I.present[y]]
        comps.append(vstack(blocks) if blocks else Matrix.zeros(A.field, 0, A.dims[y]))
    return SheafMorphism(A, I, comps)


@st.composite
def extensions(draw):
    """(ctx, m: A -> B a mono, f: A -> I, I an injective sum) with several
    summands peaked at one point, interleaved with others, and repeated
    peak matrices, some written with Fraction entries over QQ."""
    field = draw(st.sampled_from(FIELDS))
    ctx = SheafContext(X4, field, flip=draw(st.booleans()))
    if draw(st.booleans()):
        A = gen_sheaf(GenConfig("stalkwise/%d" % draw(st.integers(0, 40)), max_stalk_dim=2,
                                field=field), X4)
    else:
        A = ctx.constant_sheaf(draw(st.integers(1, 2)))
    summands = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 2)),
                             min_size=1, max_size=7))
    I = InjectiveSheaf(X4, field, summands)
    pool = {}
    peaks = []
    for x, v in summands:
        options = pool.setdefault((x, v), [draw(matrices(field, v, A.dims[x])) for _ in range(2)])
        m = draw(st.sampled_from(options))
        peaks.append(fractions(m) if field is QQ and draw(st.booleans()) else m)
    f = into_injective(A, I, peaks)
    if draw(st.booleans()):
        _, m = ctx.injective_embed(A)
    else:
        # A -> A + A, the identity into the first summand and c times it into the second
        c = field.from_int(draw(st.sampled_from([0, 1, 2])))
        B = Sheaf(X4, field, [2 * d for d in A.dims],
                  {(i, j): block_diag(field, [A.restriction(i, j)] * 2) for i, j in X4.covers})
        ones = [Matrix.identity(field, d) for d in A.dims]
        m = SheafMorphism(A, B, [vstack([one, one.scale(c)]) for one in ones])
    return ctx, m, f


@settings(max_examples=120, deadline=None)
@given(extensions())
def test_extension_per_peak_matches_the_eager_oracle(case):
    ctx, m, f = case
    g = check_against_eager(ctx, "extend_along_mono", m, f)
    assert ctx.map_eq(ctx.compose(g, m), f)


def test_extension_peaks_are_sliced_per_summand():
    # two summands peaked at c with different maps, one at d between them:
    # each summand takes its own rows of the extension at c
    ctx = SheafContext(X4, QQ)
    A = ctx.constant_sheaf(1)
    _, m = ctx.injective_embed(A)
    J = InjectiveSheaf(X4, QQ, [(2, 1), (3, 2), (2, 2)])
    rows = [Matrix.from_rows(QQ, [[5]]), Matrix.from_rows(QQ, [[1], [Fraction(1, 2)]]),
            Matrix.from_rows(QQ, [[7], [0]])]
    f = into_injective(A, J, rows)
    g = check_against_eager(ctx, "extend_along_mono", m, f)
    assert ctx.map_eq(ctx.compose(g, m), f)

