import itertools
import re

import numpy as np
import pytest

from equiscalar import einsum, groups
from equiscalar.basis import generalized_cross
from equiscalar.core import euclidean, minkowski
from equiscalar.errors import NonFiniteError, ParseError, PatternError, ShapeError


# -- independent oracle --------------------------------------------------------
#
# A from-scratch evaluator used only in tests: its own tokenizer (regex), its
# own Levi-Civita (determinant of selected identity rows), and raising done
# entry-wise through the diagonal metric. Shares no code with the module.

_FACTOR_RE = re.compile(r"([a-zA-Z]+)\s*([_^])\s*([a-z]+)")


def oracle_eval(src, bindings, d, signature=None):
    sig = np.ones(d) if signature is None else np.asarray(signature, float)
    chunks = re.split(r"([+-])", src)
    signed = []
    sign = 1.0
    for chunk in chunks:
        chunk = chunk.strip()
        if not chunk:
            continue
        if chunk == "+":
            sign = 1.0
        elif chunk == "-":
            sign = -1.0
        else:
            signed.append((sign, chunk))
            sign = 1.0
    # Free labels are shared across terms; output axes follow their first
    # appearance in the first term.
    first_factors = _FACTOR_RE.findall(signed[0][1])
    first_labels = []
    for _, _, idx in first_factors:
        for c in idx:
            if c not in first_labels:
                first_labels.append(c)
    frees = [
        c
        for c in first_labels
        if sum(idx.count(c) for _, _, idx in first_factors) == 1
    ]
    total = None
    for sgn, body in signed:
        factors = _FACTOR_RE.findall(body)
        labels = []
        for _, _, idx in factors:
            for c in idx:
                if c not in labels:
                    labels.append(c)
        out = 0.0 if not frees else np.zeros((d,) * len(frees))
        for assign in itertools.product(range(d), repeat=len(labels)):
            env = dict(zip(labels, assign))
            val = sgn
            for name, marker, idx in factors:
                ix = tuple(env[c] for c in idx)
                if name == "eps":
                    val *= round(float(np.linalg.det(np.eye(d)[list(ix)])))
                elif name == "delta":
                    val *= 1.0 if ix[0] == ix[1] else 0.0
                else:
                    entry = float(np.asarray(bindings[name], float)[ix])
                    if marker == "^":
                        for k in ix:
                            entry *= sig[k]
                    val *= entry
            if not frees:
                out += val
            else:
                out[tuple(env[c] for c in frees)] += val
        total = out if total is None else total + out
    return total


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_levi_civita_matches_the_oracles_determinant_rule(d):
    eps = einsum._levi_civita(d)
    for ix in itertools.product(range(d), repeat=d):
        assert eps[ix] == round(float(np.linalg.det(np.eye(d)[list(ix)])))
    assert eps is einsum._levi_civita(d)
    with pytest.raises(ValueError):
        eps[(0,) * d] = 1.0
    assert einsum._levi_civita(einsum.MAX_EVAL_DIM + 1) is not einsum._levi_civita(einsum.MAX_EVAL_DIM + 1)


# -- parsing -------------------------------------------------------------------


def test_parse_dot_product():
    expr = einsum.parse("u_i v_i")
    (term,) = expr.terms
    assert term.sign == 1
    assert [f.name for f in term.factors] == ["u", "v"]
    assert all(f.indices == (("i", einsum.LOWER),) for f in term.factors)


def test_parse_mixed_variance():
    expr = einsum.parse("u_i v^i")
    assert expr.terms[0].factors[1].indices == (("i", einsum.UPPER),)


def test_parse_signs_and_whitespace():
    expr = einsum.parse(" - u_ij   v^k + w_m ")
    assert [t.sign for t in expr.terms] == [-1, 1]
    assert expr.terms[0].factors[0].indices == (
        ("i", einsum.LOWER),
        ("j", einsum.LOWER),
    )


def test_print_round_trip():
    for src in ("u_i v_i", "-u_j v_k eps_ijk + w_i", "u_i v^i"):
        expr = einsum.parse(src)
        assert einsum.parse(einsum.print_expr(expr)) == expr


@pytest.mark.parametrize("bad", ["", "u_", "u_i +", "_i", "u_i *v_j", "u"])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        einsum.parse(bad)


# -- validation corpus ---------------------------------------------------------

CORPUS = [
    # (source, metric, mode, valid, output_order, first violated rule or None)
    ("u_i v_i", euclidean(3), einsum.MODE_PLAIN, True, 0, None),
    ("u_i v^i", minkowski(4), einsum.MODE_METRIC_AWARE, True, 0, None),
    ("u_i v_i w_i", euclidean(3), einsum.MODE_PLAIN, False, None, einsum.RULE_ONCE_OR_TWICE),
    ("u_i v_i w_j", euclidean(3), einsum.MODE_PLAIN, True, 1, None),
    ("u_i v_i", euclidean(3), einsum.MODE_METRIC_AWARE, False, None, einsum.RULE_VARIANCE_PAIRING),
    ("u_j v_k w_m eps_ijk eps_imn", euclidean(3), einsum.MODE_PLAIN, True, 1, None),
    ("u_i v_j w_i z_j", euclidean(3), einsum.MODE_PLAIN, True, 0, None),
    ("u_i v_j - v_j u_i", euclidean(3), einsum.MODE_PLAIN, True, 2, None),
    ("u_i + v_j", euclidean(3), einsum.MODE_PLAIN, False, None, einsum.RULE_FREE_MISMATCH),
    ("eps_ij u_i v_j", euclidean(3), einsum.MODE_PLAIN, False, None, einsum.RULE_EPSILON_ARITY),
    ("delta_ijk u_i v_j w_k", euclidean(3), einsum.MODE_PLAIN, False, None, einsum.RULE_DELTA_ARITY),
]


@pytest.mark.parametrize("src,metric,mode,valid,order,rule", CORPUS)
def test_validation_corpus(src, metric, mode, valid, order, rule):
    report = einsum.validate(einsum.parse(src), metric, mode)
    assert report.valid == valid
    if valid:
        assert report.output_order == order
        assert not report.violations
    else:
        assert rule in {v.rule for v in report.violations}


def test_validate_free_index_order():
    report = einsum.validate(einsum.parse("u_j v_k w_m eps_ijk eps_imn"), euclidean(3))
    assert report.free_indices == ("n",)


def test_report_to_dict_round_trips_json():
    import json

    report = einsum.validate(einsum.parse("u_i v_i w_i"), euclidean(3))
    blob = json.loads(json.dumps(report.to_dict()))
    assert blob["valid"] is False
    assert blob["violations"][0]["rule"] == einsum.RULE_ONCE_OR_TWICE


# -- evaluation ----------------------------------------------------------------


def test_eval_dot_product():
    rng = np.random.default_rng(0)
    u, v = rng.standard_normal((2, 3))
    out = einsum.evaluate(einsum.parse("u_i v_i"), {"u": u, "v": v}, 3)
    assert out == pytest.approx(float(np.dot(u, v)))


def test_eval_scaled_vector():
    rng = np.random.default_rng(1)
    u, v, w = rng.standard_normal((3, 3))
    out = einsum.evaluate(einsum.parse("u_i v_i w_j"), {"u": u, "v": v, "w": w}, 3)
    assert np.allclose(out, float(np.dot(u, v)) * w, atol=1e-12)


def test_eval_delta_is_identity():
    u = np.array([3.0, -1.0, 2.0])
    out = einsum.evaluate(einsum.parse("delta_ij u_j"), {"u": u}, 3)
    assert np.allclose(out, u, atol=1e-15)


def test_eval_triple_product_against_cross_oracle():
    rng = np.random.default_rng(2)
    expr = einsum.parse("u_j v_k w_m eps_ijk eps_imn")
    for _ in range(100):
        u, v, w = rng.standard_normal((3, 3))
        out = einsum.evaluate(expr, {"u": u, "v": v, "w": w}, 3)
        expected = generalized_cross([generalized_cross([u, v]), w])
        assert np.max(np.abs(out - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


def test_eval_minkowski_raising():
    rng = np.random.default_rng(3)
    u, v = rng.standard_normal((2, 4))
    out = einsum.evaluate(
        einsum.parse("u_i v^i"), {"u": u, "v": v}, 4, metric=minkowski(4)
    )
    sig = np.array([1.0, -1.0, -1.0, -1.0])
    assert out == pytest.approx(float(np.dot(u * sig, v)))


def test_eval_matches_independent_oracle_on_corpus():
    rng = np.random.default_rng(4)
    for src, metric, mode, valid, _, _ in CORPUS:
        if not valid:
            continue
        d = metric.dim
        expr = einsum.parse(src)
        names = {f.name for t in expr.terms for f in t.factors} - {"eps", "delta"}
        for _ in range(20):
            bindings = {name: rng.standard_normal(d) for name in names}
            got = einsum.evaluate(expr, bindings, d, metric=metric)
            want = oracle_eval(src, bindings, d, signature=metric.signature)
            assert np.max(np.abs(np.asarray(got) - np.asarray(want))) <= 1e-12 * max(
                1.0, float(np.max(np.abs(want)))
            )


def test_eval_equivariance_order1():
    rng = groups.make_rng(5)
    expr = einsum.parse("u_i v_i w_j")
    for _ in range(50):
        u, v, w = rng.standard_normal((3, 3))
        q = groups.sample("o", rng, 3).q
        base = einsum.evaluate(expr, {"u": u, "v": v, "w": w}, 3)
        moved = einsum.evaluate(expr, {"u": q @ u, "v": q @ v, "w": q @ w}, 3)
        assert np.max(np.abs(moved - q @ base)) <= 1e-9 * (1.0 + np.max(np.abs(base)))


def test_eval_equivariance_order2():
    rng = groups.make_rng(6)
    expr = einsum.parse("u_i v_j - v_j u_i + w_i z_j")
    for _ in range(50):
        u, v, w, z = rng.standard_normal((4, 3))
        q = groups.sample("o", rng, 3).q
        base = einsum.evaluate(expr, {"u": u, "v": v, "w": w, "z": z}, 3)
        moved = einsum.evaluate(
            expr, {"u": q @ u, "v": q @ v, "w": q @ w, "z": q @ z}, 3
        )
        assert np.max(np.abs(moved - q @ base @ q.T)) <= 1e-9 * (
            1.0 + np.max(np.abs(base))
        )


@pytest.mark.parametrize(
    "src,shapes,metric",
    [
        ("A_ii", {"A": 2}, euclidean(3)),  # repeated label within one factor
        ("A_ii u_j", {"A": 2, "u": 1}, euclidean(3)),
        ("A_ij B_ji", {"A": 2, "B": 2}, euclidean(3)),
        ("A_ij u_j - B_ji u_j", {"A": 2, "B": 2, "u": 1}, euclidean(4)),
        ("delta_ii", {}, euclidean(4)),
        ("eps_ijkl u_j v_k w_l", {"u": 1, "v": 1, "w": 1}, euclidean(4)),
        ("A^ij B_ij", {"A": 2, "B": 2}, minkowski(4)),
        ("A^ij u_j v^k", {"A": 2, "u": 1, "v": 1}, minkowski(4)),
        ("u^i v^j - v^j u^i + A^ij", {"u": 1, "v": 1, "A": 2}, minkowski(4)),
    ],
)
def test_eval_matches_oracle_on_matrices(src, shapes, metric):
    rng = np.random.default_rng(9)
    d = metric.dim
    expr = einsum.parse(src)
    for _ in range(5):
        bindings = {name: rng.standard_normal((d,) * order) for name, order in shapes.items()}
        got = einsum.evaluate(expr, bindings, d, metric=metric)
        want = oracle_eval(src, bindings, d, signature=metric.signature)
        assert np.shape(got) == np.shape(want)
        assert np.max(np.abs(np.asarray(got) - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


def test_eval_repeated_eps_label_vanishes():
    # eps_iijk passes the arity rule (three distinct labels at d=3) but its
    # four slots repeat a label, so every entry is zero.
    rng = np.random.default_rng(10)
    u, v = rng.standard_normal((2, 3))
    out = einsum.evaluate(einsum.parse("eps_iijk u_j v_k + u_i v_i"), {"u": u, "v": v}, 3)
    assert out == pytest.approx(float(np.dot(u, v)), abs=1e-15)


@pytest.mark.parametrize("bad", [{"a": 1}, "abc", [1.0, [2.0, 3.0], 4.0], [1 + 2j, 0, 0]])
def test_eval_non_numeric_binding(bad):
    with pytest.raises(ShapeError, match="'u'"):
        einsum.evaluate(einsum.parse("u_i v_i"), {"u": bad, "v": np.ones(3)}, 3)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_eval_non_finite_binding(bad):
    with pytest.raises(NonFiniteError, match="'u'"):
        einsum.evaluate(
            einsum.parse("eps_ijk u_j v_k"), {"u": [bad, 0.0, 0.0], "v": [0.0, 1.0, 0.0]}, 3
        )


def test_eval_rejects_invalid_expression():
    with pytest.raises(ShapeError):
        einsum.evaluate(einsum.parse("u_i v_i w_i"), {"u": np.ones(3), "v": np.ones(3), "w": np.ones(3)}, 3)


def test_eval_missing_binding():
    with pytest.raises(ShapeError):
        einsum.evaluate(einsum.parse("u_i v_i"), {"u": np.ones(3)}, 3)


def test_eval_wrong_tensor_order():
    with pytest.raises(ShapeError):
        einsum.evaluate(einsum.parse("u_ij v_ij"), {"u": np.ones(3), "v": np.ones((3, 3))}, 3)


def test_eval_dimension_cap():
    with pytest.raises(ShapeError):
        einsum.evaluate(einsum.parse("u_i u_i"), {"u": np.ones(5)}, 5)


# -- epsilon-pair rewrite --------------------------------------------------------


def test_rewrite_produces_delta_difference():
    out = einsum.rewrite_epsilon_pair(einsum.parse("eps_ijk eps_imn"))
    assert len(out.terms) == 2
    assert {t.sign for t in out.terms} == {1, -1}
    for term in out.terms:
        names = [f.name for f in term.factors]
        assert names == ["delta", "delta"]
    printed = einsum.print_expr(out)
    assert printed == "delta_jm delta_kn - delta_jn delta_km"


def test_rewrite_evaluation_equivalence():
    rng = np.random.default_rng(7)
    src = "u_j v_k w_m eps_ijk eps_imn"
    expr = einsum.parse(src)
    rewritten = einsum.rewrite_epsilon_pair(expr)
    for _ in range(100):
        bindings = {n: rng.standard_normal(3) for n in ("u", "v", "w")}
        a = einsum.evaluate(expr, bindings, 3)
        b = einsum.evaluate(rewritten, bindings, 3)
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, float(np.max(np.abs(a))))


def test_rewrite_shared_label_not_first():
    # The shared label sits mid-word; the cyclic reordering is sign-free and
    # the rewrite must still be evaluation-equivalent.
    rng = np.random.default_rng(8)
    src = "u_j v_k w_m eps_jik eps_mni"
    expr = einsum.parse(src)
    rewritten = einsum.rewrite_epsilon_pair(expr)
    for _ in range(50):
        bindings = {n: rng.standard_normal(3) for n in ("u", "v", "w")}
        a = einsum.evaluate(expr, bindings, 3)
        b = einsum.evaluate(rewritten, bindings, 3)
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, float(np.max(np.abs(a))))


@pytest.mark.parametrize(
    "src",
    [
        "eps_ijk u_i v_j w_k",  # one eps
        "eps_ijk eps_ijm",  # two shared labels
        "eps_ijk eps_mno",  # no shared label
        "eps_ijk eps_imn + u_i u_i",  # multiple terms
        "eps_ijkl eps_imno",  # not d=3
    ],
)
def test_rewrite_pattern_errors(src):
    with pytest.raises(PatternError):
        einsum.rewrite_epsilon_pair(einsum.parse(src))
