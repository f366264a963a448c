"""Leg embeddings, residual machinery and emitters."""

import json
from fractions import Fraction
from types import SimpleNamespace

import pytest

from ybops.algebra import dual_coalgebra, poly_quotient, quadratic_algebra
from ybops.colored import ColoredFamily, ansatz_op
from ybops.errors import DimensionMismatchError
from ybops.funceq import FAMILIES
from ybops.onepar import OneParFamily
from ybops.tensorop import (Op2, Op3, _perm23, colored_qybe_residual,
                            embed_leg, flip_op2, freeze, identity_mat,
                            identity_op2, kron, mat_mul, mat_sub,
                            max_abs_entry, onepar_qybe_residual, op_to_csv,
                            op_to_json, op_to_latex, power_basis_labels,
                            tensor_basis_labels, twist_compose, yb_commutator)


def random_op2(rng, n):
    mat = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            for _ in range(n * n)] for _ in range(n * n)]
    return Op2(n=n, mat=freeze(mat))


class TestEmbedLeg:
    @pytest.mark.parametrize("n", [2, 3])
    def test_leg12_is_kron_with_identity(self, rng, n):
        R = random_op2(rng, n)
        assert embed_leg(R, 12).mat == freeze(kron(R.mat, identity_mat(n)))

    @pytest.mark.parametrize("n", [2, 3])
    def test_leg23_is_identity_kron(self, rng, n):
        R = random_op2(rng, n)
        assert embed_leg(R, 23).mat == freeze(kron(identity_mat(n), R.mat))

    @pytest.mark.parametrize("n", [2, 3])
    def test_leg13_is_conjugated_leg12(self, rng, n):
        R = random_op2(rng, n)
        P = _perm23(n)
        expect = mat_mul(mat_mul(P, kron(R.mat, identity_mat(n))), P)
        assert embed_leg(R, 13).mat == freeze(expect)

    def test_rejects_unknown_legs(self, rng):
        with pytest.raises(ValueError):
            embed_leg(random_op2(rng, 2), 21)


class TestFlip:
    def test_involution(self):
        for n in (2, 3):
            tau = flip_op2(n)
            assert mat_mul(tau.mat, tau.mat) == identity_mat(n * n)

    def test_twist_compose_is_tau_then_op(self, rng):
        for n in (2, 3):
            R = random_op2(rng, n)
            tau = flip_op2(n)
            assert twist_compose(R).mat == freeze(mat_mul(tau.mat, R.mat))


class TestCommutator:
    def test_identity_commutes(self):
        I = identity_op2(2)
        assert max_abs_entry(yb_commutator(I, I, I).mat) == 0

    def test_flip_solves_constant_qybe(self):
        tau = flip_op2(2)
        assert max_abs_entry(yb_commutator(tau, tau, tau).mat) == 0

    def test_mixed_operators_need_not_vanish(self, A1):
        # constant ansatz operator against the flip: a genuinely nonzero
        # commutator, guarding against a trivially zero implementation
        R = ansatz_op(A1, 1, 1, 1)
        tau = flip_op2(2)
        assert max_abs_entry(yb_commutator(R, tau, tau).mat) != 0

    def test_constant_ansatz_solves_qybe(self, Aq):
        R = ansatz_op(Aq, 1, 1, 1)
        assert max_abs_entry(yb_commutator(R, R, R).mat) == 0

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            yb_commutator(random_op2(rng, 2), random_op2(rng, 3),
                          random_op2(rng, 2))


class TestSizeChecks:
    def test_op2_wrong_size(self):
        with pytest.raises(DimensionMismatchError):
            Op2(n=2, mat=freeze(identity_mat(3)))

    def test_ragged_rows(self):
        with pytest.raises(DimensionMismatchError):
            Op2(n=2, mat=freeze([[Fraction(1)] * 3] * 4))
        with pytest.raises(DimensionMismatchError):
            Op3(n=2, mat=freeze([[Fraction(1)] * 8] * 7
                                + [[Fraction(1)] * 9]))

    def test_op3_via_commutator_shape(self):
        out = yb_commutator(identity_op2(2), identity_op2(2), identity_op2(2))
        assert len(out.mat) == 8 and all(len(r) == 8 for r in out.mat)


def sparse_left_product(*mats):
    """Dense matrix product, right to left, skipping the zero entries of each
    left factor: the dense reference at sizes where mat_mul takes seconds."""
    out = mats[-1]
    for A in reversed(mats[:-1]):
        out = [[sum((x * out[k][j] for k, x in row), Fraction(0))
                for j in range(len(out[0]))]
               for row in ([(k, x) for k, x in enumerate(r) if x] for r in A)]
    return out


class TestHigherCarriers:
    """Carriers k[X]/(f) of dimension 6 and 4, for a sextic and a quartic f."""

    A6 = poly_quotient([Fraction(1, 2), -1, 0, Fraction(2, 3), 1, -2, 1])

    def test_thm1_residual_exactly_zero_n6(self):
        fam = ColoredFamily("thm1", self.A6, {"p": Fraction(3, 2), "q": -2})
        res = colored_qybe_residual(fam, Fraction(1, 3), Fraction(-2),
                                    Fraction(5, 4))
        assert res == 0 and type(res) is Fraction

    def test_prop1_residual_exactly_zero_n6(self):
        fam = OneParFamily("prop1", self.A6, {"q": Fraction(-3, 2)})
        res = onepar_qybe_residual(fam, Fraction(2, 5), Fraction(-3))
        assert res == 0 and type(res) is Fraction

    def test_broken_ansatz_matches_dense_n4(self):
        A4 = poly_quotient([Fraction(1, 2), -1, Fraction(2, 3), 0, 1])
        # alpha, beta, gamma solve no functional system
        fam = SimpleNamespace(op=lambda u, v: ansatz_op(
            A4, u + 2 * v, u * v - 1, Fraction(3)))
        u, v, w = Fraction(1, 2), Fraction(-2, 3), Fraction(3)
        R12 = embed_leg(fam.op(u, v), 12).mat
        R13 = embed_leg(fam.op(u, w), 13).mat
        R23 = embed_leg(fam.op(v, w), 23).mat
        want = max_abs_entry(mat_sub(sparse_left_product(R12, R13, R23),
                                     sparse_left_product(R23, R13, R12)))
        assert want != 0
        assert colored_qybe_residual(fam, u, v, w) == want


# k[X]/(X^8 + X^5/2 - X^2 + 3X - 2/3): dense structure constants with mixed
# denominators, n = 8 and n^2 = 64 columns per operator
A8 = poly_quotient([Fraction(-2, 3), 3, -1, 0, 0, Fraction(1, 2), 0, 0, 1])


@pytest.fixture(scope="module")
def C8():
    return dual_coalgebra(A8)  # validates A8 once: ~0.4 s


class TestLargeCarrier:
    @pytest.mark.parametrize("kind", sorted(FAMILIES))
    def test_qybe_exact_at_n8(self, kind, C8):
        F = FAMILIES[kind]
        params = dict(zip(F.params, (Fraction(2), Fraction(-1, 3),
                                     Fraction(3))))
        carrier = C8 if F.coalgebra else A8
        if F.phi is not None:
            res = onepar_qybe_residual(OneParFamily(kind, carrier, params),
                                       Fraction(2, 3), Fraction(-3, 2))
        else:
            colours = ((2, -1, 3) if F.integer_colours else
                       (Fraction(1, 2), Fraction(-2), Fraction(3, 5)))
            res = colored_qybe_residual(ColoredFamily(kind, carrier, params),
                                        *colours)
        assert res == 0 and type(res) is Fraction


class TestLabelsAndEmitters:
    def test_power_basis_labels(self):
        assert power_basis_labels(3) == ["1", "x", "x²"]

    def test_tensor_basis_lexicographic(self):
        labels = tensor_basis_labels(2, 2)
        assert labels == ["1⊗1", "1⊗x", "x⊗1", "x⊗x"]

    def test_json_roundtrip_entries(self, rng):
        R = random_op2(rng, 2)
        data = json.loads(op_to_json(R))
        assert data["n"] == 2
        assert data["entries"][0][0] == str(R.mat[0][0])

    def test_csv_shape(self, rng):
        R = random_op2(rng, 2)
        lines = op_to_csv(R).strip().split("\n")
        assert len(lines) == 4 and all(len(l.split(",")) == 4 for l in lines)

    def test_latex_wrapping(self, rng):
        text = op_to_latex(random_op2(rng, 2))
        assert text.startswith("\\begin{pmatrix}")
        assert text.rstrip().endswith("\\end{pmatrix}")
