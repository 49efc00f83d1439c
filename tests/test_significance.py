import json
import math

import numpy as np
import pytest
import scipy.stats

from callsift import persistence
from callsift.significance import (
    PairResult,
    SignificanceMatrix,
    chi_square_sf,
    cochran_q,
    mcnemar,
    pairwise_significance,
    regularized_upper_gamma,
    render_significance_table,
    sidak_alpha,
)


# --- chi-square machinery -----------------------------------------------------


def test_chi_square_reference_anchors():
    assert chi_square_sf(3.841, 1) == pytest.approx(0.05, abs=1e-3)
    assert chi_square_sf(5.991, 2) == pytest.approx(0.05, abs=1e-3)
    assert chi_square_sf(0.0, 1) == 1.0
    assert chi_square_sf(-1.0, 3) == 1.0


def test_chi_square_matches_independent_implementation(rng):
    for _ in range(300):
        df = int(rng.integers(1, 40))
        x = float(rng.uniform(0.0, 80.0))
        assert chi_square_sf(x, df) == pytest.approx(
            scipy.stats.chi2.sf(x, df), abs=1e-9
        )


def test_chi_square_df2_closed_form(rng):
    # for two degrees of freedom the survival function is exp(-x/2)
    for x in (0.5, 2.0, 4.667, 10.0):
        assert chi_square_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-10)


def test_gamma_function_domain():
    with pytest.raises(ValueError):
        regularized_upper_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        regularized_upper_gamma(1.0, -1.0)
    with pytest.raises(ValueError):
        chi_square_sf(1.0, 0)


# --- Cochran's Q -----------------------------------------------------------------


def test_cochran_q_worked_example():
    bits = np.array([[1, 1, 0], [1, 0, 0], [1, 1, 1], [1, 0, 0]])
    q, p = cochran_q(bits)
    assert q == pytest.approx(28 / 6, abs=1e-12)
    assert p == pytest.approx(0.097, abs=1e-3)


def test_cochran_q_identical_models():
    bits = np.tile(np.array([[1], [0], [1]]), (1, 4))
    q, p = cochran_q(bits)
    assert (q, p) == (0.0, 1.0)


def test_cochran_q_constant_rows_dropped_equivalence():
    bits = np.array([[1, 1, 0], [1, 0, 0], [1, 1, 1], [1, 0, 0]])
    informative = bits[[0, 1, 3]]  # drop the all-agree row
    assert cochran_q(bits)[0] == pytest.approx(cochran_q(informative)[0], abs=1e-12)


def test_cochran_q_row_permutation_invariant(rng):
    bits = rng.integers(0, 2, size=(40, 4))
    q1, _ = cochran_q(bits)
    q2, _ = cochran_q(bits[rng.permutation(40)])
    assert q1 == pytest.approx(q2, abs=1e-12)


def test_cochran_q_requires_three_models():
    with pytest.raises(ValueError, match="at least 3"):
        cochran_q(np.array([[1, 0], [0, 1]]))


def test_cochran_q_non_negative(rng):
    for _ in range(50):
        bits = rng.integers(0, 2, size=(int(rng.integers(3, 30)), int(rng.integers(3, 6))))
        q, p = cochran_q(bits)
        assert q >= 0.0
        assert 0.0 <= p <= 1.0


# --- McNemar ----------------------------------------------------------------------


def vectors_with_discordance(d1, d2, agree=30):
    a = np.concatenate([np.ones(d1), np.zeros(d2), np.ones(agree)])
    b = np.concatenate([np.zeros(d1), np.ones(d2), np.ones(agree)])
    return a.astype(int), b.astype(int)


def test_mcnemar_identical_vectors():
    a = np.array([1, 0, 1, 1])
    stat, p = mcnemar(a, a)
    assert (stat, p) == (0.0, 1.0)


def test_mcnemar_exact_worked_example():
    a, b = vectors_with_discordance(10, 2)
    stat, p = mcnemar(a, b)
    # two-sided exact binomial: 2 * sum_{i<=2} C(12,i) / 2^12 = 158/4096
    assert p == pytest.approx(2 * 79 / 4096, abs=1e-12)
    assert p == pytest.approx(0.0386, abs=1e-4)


def test_mcnemar_symmetric(rng):
    for _ in range(20):
        a = rng.integers(0, 2, size=50)
        b = rng.integers(0, 2, size=50)
        assert mcnemar(a, b) == mcnemar(b, a)


def test_mcnemar_exact_binomial_oracle(rng):
    # independent oracle: exact tail sums with math.comb fractions
    for d1, d2 in [(3, 1), (7, 7), (0, 5), (12, 11)]:
        a, b = vectors_with_discordance(d1, d2)
        _, p = mcnemar(a, b)
        n, lo = d1 + d2, min(d1, d2)
        exact = min(1.0, 2 * sum(math.comb(n, i) for i in range(lo + 1)) / 2**n)
        assert p == pytest.approx(exact, abs=1e-12)


def test_mcnemar_large_uses_continuity_corrected_chi_square():
    a, b = vectors_with_discordance(30, 10)
    stat, p = mcnemar(a, b)
    expected_stat = (abs(30 - 10) - 1) ** 2 / 40
    assert stat == pytest.approx(expected_stat, abs=1e-12)
    assert p == pytest.approx(scipy.stats.chi2.sf(expected_stat, 1), abs=1e-9)


def test_mcnemar_branches_agree_near_threshold():
    # 12/12 discordance (exact branch) vs 13/12 (corrected branch):
    # both clearly non-significant, decisions agree at alpha 0.05
    _, p_exact = mcnemar(*vectors_with_discordance(12, 12))
    _, p_corrected = mcnemar(*vectors_with_discordance(13, 12))
    assert (p_exact < 0.05) == (p_corrected < 0.05)
    # strongly one-sided cases significant in both branches
    _, p_exact = mcnemar(*vectors_with_discordance(20, 1))
    _, p_corrected = mcnemar(*vectors_with_discordance(30, 1))
    assert p_exact < 0.05 and p_corrected < 0.05


def test_mcnemar_length_mismatch():
    with pytest.raises(ValueError):
        mcnemar(np.array([1, 0]), np.array([1]))


# --- Sidak ------------------------------------------------------------------------


def test_sidak_values():
    assert sidak_alpha(0.05, 1) == pytest.approx(0.05, abs=1e-12)
    assert sidak_alpha(0.05, 15) == pytest.approx(0.003413, abs=1e-6)
    assert sidak_alpha(0.05, 2) == pytest.approx(0.02532, abs=1e-5)


def test_sidak_monotone_and_bounded():
    values = [sidak_alpha(0.05, m) for m in range(1, 40)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert all(v <= 0.05 for v in values)


def test_sidak_domain():
    for bad_alpha in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            sidak_alpha(bad_alpha, 3)
    with pytest.raises(ValueError):
        sidak_alpha(0.05, 0)


# --- pairwise matrix ----------------------------------------------------------------


def test_pairwise_identical_pair_not_significant(rng):
    # one weak model, its exact copy, and one strictly better model
    weak = (rng.random(200) < 0.5).astype(int)
    strong = np.ones(200, dtype=int)
    bits = np.column_stack([weak, weak, strong])
    matrix = pairwise_significance(bits, ["a", "a2", "b"], alpha=0.05)
    assert not matrix.pair("a", "a2").significant
    assert matrix.pair("a", "b").significant
    assert matrix.omnibus.rejected


def test_pairwise_omnibus_gate_blocks_everything(rng):
    # three essentially identical models: omnibus cannot reject
    base = rng.integers(0, 2, size=100)
    b = base.copy()
    b[0] ^= 1
    c = base.copy()
    c[1] ^= 1
    bits = np.column_stack([base, b, c])
    matrix = pairwise_significance(bits, ["m1", "m2", "m3"], alpha=0.05)
    assert not matrix.omnibus.rejected
    assert all(not r.significant for r in matrix.pairs)


def test_pairwise_symmetric_lookup_and_structure(rng):
    bits = rng.integers(0, 2, size=(60, 4))
    names = ["w", "x", "y", "z"]
    matrix = pairwise_significance(bits, names, alpha=0.05)
    assert matrix.m_pairs == 6
    assert matrix.corrected_alpha == pytest.approx(sidak_alpha(0.05, 6))
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            assert matrix.pair(a, b) is matrix.pair(b, a)
    doc = persistence.encode(matrix)
    assert len(doc["pairs"]) == 6
    assert doc["omnibus"]["q"] == matrix.omnibus.q


def test_pairwise_two_models_uses_mcnemar_as_omnibus(rng):
    a = (rng.random(80) < 0.2).astype(int)  # mostly wrong
    b = np.ones(80, dtype=int)  # always right
    matrix = pairwise_significance(np.column_stack([a, b]), ["a", "b"], alpha=0.05)
    assert matrix.m_pairs == 1
    assert matrix.pair("a", "b").significant


def test_render_table_layout(rng):
    bits = rng.integers(0, 2, size=(50, 3))
    matrix = pairwise_significance(bits, ["rf", "lsm", "lin"], alpha=0.05)
    text = render_significance_table(matrix)
    lines = text.splitlines()
    assert "rf" in lines[0] and "lsm" in lines[0]
    # diagonal dashes and symmetric YES/NO cells
    assert lines[1].count("-") >= 1
    for row in lines[1:4]:
        assert row.split()[1:] and all(
            cell in {"YES", "NO", "-"} for cell in row.split()[1:]
        )
    assert "corrected_alpha" in text


# the bytes the significance serializer wrote before matrices went through
# the archive codec
GOLDEN_MATRIX = """\
{
  "alpha": 0.15,
  "corrected_alpha": 0.05273176281409042,
  "format_version": 1,
  "m_pairs": 3,
  "models": [
    "tree",
    "hist-rf",
    "linear"
  ],
  "omnibus": {
    "p": 0.020241911445804388,
    "q": 7.8,
    "rejected": true
  },
  "pairs": [
    {
      "a": "tree",
      "b": "hist-rf",
      "method": "exact-binomial",
      "p": 0.625,
      "significant": false,
      "statistic": 1.0
    },
    {
      "a": "tree",
      "b": "linear",
      "method": "exact-binomial",
      "p": 0.0390625,
      "significant": true,
      "statistic": 1.0
    },
    {
      "a": "hist-rf",
      "b": "linear",
      "method": "exact-binomial",
      "p": 0.125,
      "significant": false,
      "statistic": 1.0
    }
  ]
}
"""


def test_matrix_json_is_byte_identical_to_the_golden_file(tmp_path):
    bits = np.array([[1, 1, 0], [1, 0, 0], [1, 1, 1], [0, 1, 0], [1, 1, 0], [1, 0, 0],
                     [1, 1, 0], [1, 1, 1], [1, 0, 0], [1, 1, 0], [1, 1, 0], [0, 0, 1]])
    matrix = pairwise_significance(bits, ["tree", "hist-rf", "linear"], alpha=0.15)
    path = tmp_path / "significance.json"
    persistence.write_json(persistence.encode(matrix), path)
    assert path.read_text(encoding="utf-8") == GOLDEN_MATRIX
    back = persistence.decode(SignificanceMatrix, json.loads(GOLDEN_MATRIX))
    assert back.omnibus == matrix.omnibus
    assert back.pairs == matrix.pairs
    assert back.pair("linear", "tree") == PairResult(
        "tree", "linear", 1.0, 0.0390625, True, "exact-binomial")


def test_pair_lookup_of_an_unknown_model_raises_key_error(rng):
    matrix = pairwise_significance(rng.integers(0, 2, size=(30, 3)), ["a", "b", "c"])
    with pytest.raises(KeyError):
        matrix.pair("a", "z")
