"""Leg embeddings, residual machinery and emitters."""

import json
from fractions import Fraction
from types import SimpleNamespace

import pytest

from conftest import (bad_unit_algebra, both_routes, cleared,
                      sparse_left_product)
from dense_reference import (_perm23, flip_op2, identity_mat, identity_op2,
                             kron, mat_mul, max_abs_entry)
from ybops import cli, tensorop
from ybops.algebra import (Algebra, dual_coalgebra, poly_quotient,
                           quadratic_algebra)
from ybops.colored import ColoredFamily, ansatz_op
from ybops.compare import BraidFamily
from ybops.errors import DimensionMismatchError, NonIntegerExponentError
from ybops.frt import rtt_residual
from ybops.funceq import FAMILIES
from ybops.onepar import OneParFamily
from ybops.tensorop import (Op2, colored_qybe_residual, embed_leg,
                            freeze, mat_sub, onepar_qybe_residual, op_to_csv,
                            op_to_json, op_to_latex, power_basis_labels,
                            tensor_basis_labels, twist_compose, yb_commutator)
from ybops.ybsystem import WXZSystem, thm3_system, wxz_residuals


def _fraction_calls(monkeypatch, *names):
    """The list to which each later call of the named binary ``Fraction``
    methods appends its name."""
    calls = []
    for name in names:
        def spy(a, b, real=getattr(Fraction, name), name=name):
            calls.append(name)
            return real(a, b)
        monkeypatch.setattr(Fraction, name, spy)
    return calls


def random_op2(rng, n):
    mat = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            for _ in range(n * n)] for _ in range(n * n)]
    return Op2(n=n, mat=freeze(mat))


class TestEmbedLeg:
    @pytest.mark.parametrize("n", [2, 3])
    def test_leg12_is_kron_with_identity(self, rng, n):
        R = random_op2(rng, n)
        assert embed_leg(R, 12) == freeze(kron(R.mat, identity_mat(n)))

    @pytest.mark.parametrize("n", [2, 3])
    def test_leg23_is_identity_kron(self, rng, n):
        R = random_op2(rng, n)
        assert embed_leg(R, 23) == freeze(kron(identity_mat(n), R.mat))

    @pytest.mark.parametrize("n", [2, 3])
    def test_leg13_is_conjugated_leg12(self, rng, n):
        R = random_op2(rng, n)
        P = _perm23(n)
        expect = mat_mul(mat_mul(P, kron(R.mat, identity_mat(n))), P)
        assert embed_leg(R, 13) == freeze(expect)

    def test_rejects_unknown_legs(self, rng):
        with pytest.raises(ValueError):
            embed_leg(random_op2(rng, 2), 21)


class TestEmbedOnce:
    """The kernel embeds each of its three operators once, on its legs,
    for both chains; a spy on ``_leg_columns`` records the legs of each
    call."""

    @pytest.fixture
    def leg_calls(self, monkeypatch):
        calls = []
        real = tensorop._leg_columns

        def counted(cols, n, legs):
            calls.append(legs)
            return real(cols, n, legs)
        monkeypatch.setattr(tensorop, "_leg_columns", counted)
        return calls

    @pytest.mark.parametrize("n", [2, 3])
    def test_qybe_chains_share_three(self, rng, n, leg_calls):
        # R12 R13 R23 - R23 R13 R12: the right chain reuses the left's pairs
        tensorop._qybe_numerators(*(random_op2(rng, n) for _ in range(3)))
        assert sorted(leg_calls) == [12, 13, 23]

    def test_braid_chains_embed_three(self, leg_calls):
        # Rh12(x) Rh23(xy) Rh12(y) - Rh23(y) Rh12(xy) Rh23(x) is decided as
        # the QYBE difference of tau Rh at (y, xy, x): three pairs
        tensorop.braid_residual(BraidFamily(kind="okado", q=Fraction(2)),
                                Fraction(3), Fraction(5))
        assert sorted(leg_calls) == [12, 13, 23]


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
        assert max_abs_entry(yb_commutator(I, I, I)) == 0

    def test_flip_solves_constant_qybe(self):
        tau = flip_op2(2)
        assert max_abs_entry(yb_commutator(tau, tau, tau)) == 0

    def test_mixed_operators_need_not_vanish(self, A1):
        # constant ansatz operator against the flip: a genuinely nonzero
        # commutator, guarding against a trivially zero implementation
        R = ansatz_op(A1, 1, 1, 1)
        tau = flip_op2(2)
        assert max_abs_entry(yb_commutator(R, tau, tau)) != 0

    def test_constant_ansatz_solves_qybe(self, Aq):
        R = ansatz_op(Aq, 1, 1, 1)
        assert max_abs_entry(yb_commutator(R, R, R)) == 0

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

    def test_list_matrix_is_frozen(self):
        mat = [[Fraction(i - 2 * j, 1 + i) for j in range(4)] for i in range(4)]
        listed, frozen = Op2(n=2, mat=mat), Op2(n=2, mat=freeze(mat))
        assert listed == frozen and hash(listed) == hash(frozen)
        assert rtt_residual(listed) == rtt_residual(frozen)

    def test_op2_needs_columns(self):
        with pytest.raises(DimensionMismatchError, match="n\\^2 columns"):
            Op2(2)

    @pytest.mark.parametrize("den", [0, -1, 2.0, Fraction(2), None, True])
    def test_op2_den_is_a_positive_int(self, den):
        # a negative den would turn the max-abs residual's sign (-2 for a
        # residual of 2), and a zero one would fail only at .mat
        with pytest.raises(ValueError, match="positive int"):
            Op2(n=1, cols=[[(0, 2)]], den=den)

    def test_mat_mul_inner_dimensions(self):
        with pytest.raises(DimensionMismatchError):
            mat_mul([[1, 2]], [[1, 2]])

    def test_op2_value_semantics(self, rng):
        R = random_op2(rng, 2)
        with pytest.raises(AttributeError):
            R.n = 3
        assert R != R.mat  # an operator is not its matrix
        assert eval(repr(R), {"Op2": Op2, "Fraction": Fraction}) == R

    def test_op3_via_commutator_shape(self):
        out = yb_commutator(identity_op2(2), identity_op2(2), identity_op2(2))
        assert len(out) == 8 and all(len(r) == 8 for r in out)


class TestHigherCarriers:
    """Carriers k[X]/(f) of dimension 6 and 4, for a sextic and a quartic f."""

    A6 = poly_quotient([Fraction(1, 2), -1, 0, Fraction(2, 3), 1, -2, 1])

    def test_thm1_residual_exactly_zero_n6(self):
        fam = ColoredFamily("thm1", self.A6, {"p": Fraction(3, 2), "q": -2})
        for f in both_routes(fam):
            res = colored_qybe_residual(f, Fraction(1, 3), Fraction(-2),
                                        Fraction(5, 4))
            assert res == 0 and type(res) is Fraction

    def test_prop1_residual_exactly_zero_n6(self):
        fam = OneParFamily("prop1", self.A6, {"q": Fraction(-3, 2)})
        for f in both_routes(fam):
            res = onepar_qybe_residual(f, Fraction(2, 5), Fraction(-3))
            assert res == 0 and type(res) is Fraction

    def test_broken_ansatz_matches_dense_n4(self):
        A4 = poly_quotient([Fraction(1, 2), -1, Fraction(2, 3), 0, 1])
        # alpha, beta, gamma solve no functional system
        fam = SimpleNamespace(op=lambda u, v: ansatz_op(
            A4, u + 2 * v, u * v - 1, Fraction(3)))
        u, v, w = Fraction(1, 2), Fraction(-2, 3), Fraction(3)
        R12 = embed_leg(fam.op(u, v), 12)
        R13 = embed_leg(fam.op(u, w), 13)
        R23 = embed_leg(fam.op(v, w), 23)
        want = max_abs_entry(mat_sub(sparse_left_product(R12, R13, R23),
                                     sparse_left_product(R23, R13, R12)))
        assert want != 0
        assert colored_qybe_residual(fam, u, v, w) == want


# k[X]/(X^8 + X^5/2 - X^2 + 3X - 2/3): dense structure constants with mixed
# denominators, n = 8 and n^2 = 64 columns per operator
A8 = poly_quotient([Fraction(-2, 3), 3, -1, 0, 0, Fraction(1, 2), 0, 0, 1])


@pytest.fixture(scope="module")
def C8():
    return dual_coalgebra(A8)  # A8 is known valid since poly_quotient


class TestLargeCarrier:
    @staticmethod
    def _residual(kind, C8, view=lambda fam: fam):
        F = FAMILIES[kind]
        params = dict(zip(F.params, (Fraction(2), Fraction(-1, 3),
                                     Fraction(3))))
        carrier = C8 if F.coalgebra else A8
        if F.phi is not None:
            fam = OneParFamily(kind, carrier, params)
            return onepar_qybe_residual(view(fam), Fraction(2, 3),
                                        Fraction(-3, 2))
        colours = ((2, -1, 3) if F.integer_colours else
                   (Fraction(1, 2), Fraction(-2), Fraction(3, 5)))
        return colored_qybe_residual(view(ColoredFamily(kind, carrier, params)),
                                     *colours)

    @pytest.mark.parametrize("kind", sorted(FAMILIES))
    def test_qybe_exact_at_n8(self, kind, C8):
        res = self._residual(kind, C8)
        assert res == 0 and type(res) is Fraction

    @pytest.mark.parametrize("kind", sorted(FAMILIES))
    def test_kernel_exact_at_n8(self, kind, C8):
        # the same operators through ``op`` alone: the sparse kernel, not
        # the five-equation system, finds the residual exactly 0
        res = self._residual(kind, C8, lambda fam: both_routes(fam)[1])
        assert res == 0 and type(res) is Fraction


class TestSystemRoute:
    """Which residuals the five-equation system decides and which go to the
    sparse kernel; a spy on the kernel's integer entry point, which every
    residual caller goes through, counts its calls."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        real = tensorop._qybe_numerators

        def counted(*ops):
            calls.append(len(ops))
            return real(*ops)
        monkeypatch.setattr(tensorop, "_qybe_numerators", counted)
        return calls

    PARAMS = {"p": Fraction(1), "q": Fraction(3)}
    UVW = (Fraction(1, 2), Fraction(-2), Fraction(3))

    def test_table_families_skip_the_kernel(self, kernel_calls):
        A = quadratic_algebra(3)
        col = colored_qybe_residual(ColoredFamily("thm1", A, self.PARAMS),
                                    *self.UVW)
        coal = colored_qybe_residual(
            ColoredFamily("coalgebra_thm1", dual_coalgebra(A), self.PARAMS),
            *self.UVW)
        one = onepar_qybe_residual(OneParFamily("prop1", A, {"q": 2}),
                                   Fraction(2, 3), Fraction(-5))
        wxz = wxz_residuals(thm3_system(A, Fraction(-1, 2), 4))
        assert kernel_calls == []
        assert all(r == 0 and type(r) is Fraction
                   for r in (col, coal, one, *wxz))

    def test_compare_runs_the_kernel_once(self, kernel_calls, capsys):
        # Okado's braid residual is the one kernel call; the twisted prop1
        # residual is decided by prop1's five equations
        assert cli.main(["compare", "--q", "-3/2", "--x", "1/2",
                         "--y", "4"]) == 0
        assert kernel_calls == [3]
        report = json.loads(capsys.readouterr().out)
        assert report["okado_braid_residual"] == "0"
        assert report["twisted_prop1_braid_residual"] == "0"

    def test_a_non_solution_takes_the_kernel(self, kernel_calls):
        # a family exposing an integer triple that solves no system
        A = quadratic_algebra(3)

        drawn = []

        def coeffs(u, v):
            return u + 2 * v, u * v - 1, Fraction(3)

        def integer_triple(u, v):
            drawn.append((u, v))
            return cleared(coeffs(u, v))
        fam = SimpleNamespace(integer_triple=integer_triple,
                              op=lambda u, v: ansatz_op(A, *coeffs(u, v)))
        res = colored_qybe_residual(fam, *self.UVW)
        assert len(drawn) == 3 and kernel_calls == [3]
        assert res != 0 and res == colored_qybe_residual(
            both_routes(fam)[1], *self.UVW)

    @pytest.mark.parametrize("case", ["unvalidated", "invalid", "op-only"])
    def test_kernel_inputs(self, case, kernel_calls):
        A, params = quadratic_algebra(3), self.PARAMS
        if case == "unvalidated":
            A = Algebra(dim=2, structconst=A.structconst, unit=A.unit)
        elif case == "invalid":
            A = bad_unit_algebra()
            assert not A.valid
        fam = ColoredFamily("thm1", A, params)
        one = OneParFamily("prop1", A, {"q": params["q"]})
        (fam, fam_view), (one, one_view) = both_routes(fam), both_routes(one)
        if case == "op-only":
            fam, one = fam_view, one_view
        x, z = Fraction(2, 3), Fraction(-5)
        got = (colored_qybe_residual(fam, *self.UVW),
               onepar_qybe_residual(one, x, z))
        # an exact algebra built by hand is validated at its first triple
        # and then decided by the five equations
        assert kernel_calls == ([] if case == "unvalidated" else [3, 3])
        want = (colored_qybe_residual(fam_view, *self.UVW),
                onepar_qybe_residual(one_view, x, z))
        assert got == want and list(map(type, got)) == list(map(type, want))
        if case == "invalid":
            assert got[0] != 0

    def test_affine_routes_do_no_fraction_arithmetic(self, monkeypatch):
        # once a family has read its integer forms, at its first sample,
        # thm1 and prop1 samples take no Fraction product or difference
        # but prop1's one phi(x, z) = x * z
        A = quadratic_algebra(3)
        thm1 = ColoredFamily("thm1", A, {"p": Fraction(2, 3), "q": 5})
        prop1 = OneParFamily("prop1", A, {"q": Fraction(-7, 4)})
        samples = [(Fraction(1, 2), Fraction(-2), Fraction(3, 7)),
                   (1, Fraction(5, 3), 4), (0.5, 0.25, -1)]
        colored_qybe_residual(thm1, 1, 2, 3)
        onepar_qybe_residual(prop1, 1, 2)
        calls = _fraction_calls(monkeypatch, "__mul__", "__rmul__",
                                "__sub__", "__rsub__")
        for u, v, w in samples:
            assert colored_qybe_residual(thm1, u, v, w) == 0
        assert calls == []
        for x, z, _ in samples:
            assert onepar_qybe_residual(prop1, x, z) == 0
        assert calls == ["__mul__"] * len(samples)

    @pytest.mark.parametrize("kind", ["thm2", "remark2"])
    def test_exponential_routes_do_no_fraction_arithmetic(self, kind,
                                                          monkeypatch):
        # once a family has read its bases, at its first sample, thm2 and
        # remark2 samples raise integers only: a negative rational base at
        # negative colours, given as int, Fraction and float; budget ~10 ms
        A = quadratic_algebra(3)
        fam = ColoredFamily(kind, A, {"p": Fraction(-2, 3), "q": 3,
                                      "s": Fraction(5, -7)})
        samples = [(-1, -2, -3), (Fraction(-3), 2, Fraction(-1)),
                   (-2.0, -1, 4), (0, -4, 1)]
        colored_qybe_residual(fam, 1, 2, 3)
        calls = _fraction_calls(monkeypatch, "__mul__", "__rmul__", "__sub__",
                                "__rsub__", "__truediv__", "__pow__")
        for u, v, w in samples:
            assert colored_qybe_residual(fam, u, v, w) == 0
        assert calls == []

    def test_hand_built_wxz_system_takes_the_kernel(self, kernel_calls):
        S = thm3_system(quadratic_algebra(3), 2, 5)
        res = wxz_residuals(WXZSystem(W=S.W, X=S.X, Z=S.Z))
        assert kernel_calls == [3] * 4 and res == (0, 0, 0, 0)

    def test_float_parameters_decide_wxz_by_the_system(self, kernel_calls):
        # a float lambda and mu read as exact rationals, so all four
        # commutators have exact triples that solve the system
        got = wxz_residuals(thm3_system(quadratic_algebra(3), 2.0, 5.0))
        assert kernel_calls == []
        assert all(r == 0 and type(r) is Fraction for r in got)

    def test_same_errors_as_the_kernel(self):
        # the triples are evaluated in the order the operators are built, so
        # bad input raises what the builds raise: a non-integer exponent
        # at (u, w); phi(x, z) is evaluated before either, so where the
        # build at x and phi both fail, phi's error is raised: its colours
        # are no rationals
        A = quadratic_algebra(3)
        cases = ((colored_qybe_residual,
                  ColoredFamily("thm2", A, {"p": 2, "q": 3, "s": 5}),
                  (1, 2, Fraction(1, 2))),
                 (onepar_qybe_residual,
                  OneParFamily("prop1", A, {"q": Fraction(3)}), ("a", "b")))
        for residual, fam, colours in cases:
            raised = []
            for f in both_routes(fam):
                with pytest.raises((NonIntegerExponentError,
                                    ValueError)) as err:
                    residual(f, *colours)
                raised.append((type(err.value), str(err.value)))
            assert raised[0] == raised[1]
        assert raised[0] == (ValueError, "Invalid literal for Fraction: 'a'")


class TestLabelsAndEmitters:
    def test_power_basis_labels(self):
        assert power_basis_labels(3) == ["1", "x", "x²"]

    def test_tensor_basis_lexicographic(self):
        labels = tensor_basis_labels(2)
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
