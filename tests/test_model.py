import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qstab.model
from conftest import random_system
from qstab.certify import Verdict, certify, certify_sweep
from qstab.errors import NotHurwitzError, StructureError
from qstab.model import (
    LinearQuantumSystem,
    structure_matrices,
    validate_system,
)
from qstab.opa import OpaParams, build_opa
from qstab.perturbation import SectorBounds


def single_mode(M1, M2):
    zero = np.zeros((1, 1))
    return LinearQuantumSystem(M1=M1, M2=M2, N1=zero, N2=zero, E1=zero, E2=zero)


class TestStructureMatrices:
    @given(st.integers(min_value=1, max_value=8))
    def test_identities(self, n):
        sm = structure_matrices(n)
        eye = np.eye(2 * n)
        assert np.array_equal(sm.J @ sm.J, eye)
        assert np.array_equal(sm.Sigma @ sm.Sigma, eye)
        assert np.array_equal(sm.Sigma @ sm.J @ sm.Sigma, -sm.J)

    def test_rejects_nonpositive(self):
        with pytest.raises(StructureError):
            structure_matrices(0)


class TestValidateSystem:
    def test_scalar_real_system_is_clean(self):
        sys = single_mode(np.array([[1.0]]), np.array([[0.0]]))
        assert validate_system(sys) == []

    def test_asymmetric_m2_reported_with_unit_residual(self):
        zero = np.zeros((2, 2))
        sys = LinearQuantumSystem(
            M1=zero,
            M2=np.array([[0.0, 1.0], [0.0, 0.0]]),
            N1=zero,
            N2=zero,
            E1=zero,
            E2=zero,
        )
        report = validate_system(sys)
        assert len(report) == 1
        assert report[0].matrix == "M2"
        assert report[0].residual == pytest.approx(1.0)
        assert "asymmetric" in str(report[0])

    def test_opa_system_is_clean(self):
        sys, _ = build_opa(OpaParams(kappa1=1.0, kappa2=2.0, chi=0.1))
        assert validate_system(sys) == []
        assert (sys.n, sys.m, sys.p) == (2, 2, 2)

    def test_non_hermitian_m1_reported(self):
        sys = single_mode(np.array([[1j]]), np.array([[0.0]]))
        report = validate_system(sys)
        assert [v.matrix for v in report] == ["M1"]

    def test_dimension_mismatch_names_shapes(self):
        with pytest.raises(StructureError, match=r"\(1, 2\)"):
            LinearQuantumSystem(
                M1=np.zeros((2, 2)),
                M2=np.zeros((2, 2)),
                N1=np.zeros((1, 2)),
                N2=np.zeros((1, 2)),
                E1=np.zeros((1, 2)),
                E2=np.zeros((2, 2)),
            )


class TestDoubledMatrices:
    def test_opa_blocks(self):
        params = OpaParams(kappa1=2.0, kappa2=3.0, chi=0.1)
        sys, _ = build_opa(params)
        M, N, Et = sys.M, sys.N, sys.Etilde
        assert np.array_equal(M, np.zeros((4, 4)))
        expected_N = np.diag(
            [np.sqrt(2.0), np.sqrt(3.0), np.sqrt(2.0), np.sqrt(3.0)]
        )
        assert np.allclose(N, expected_N)
        assert np.array_equal(Et, np.hstack([np.zeros((2, 2)), np.eye(2)]))

    def test_single_mode_diagonal(self):
        omega = 1.7
        sys = single_mode(np.array([[omega]]), np.array([[0.0]]))
        assert np.allclose(sys.M, np.diag([omega, omega]))

    def test_random_system_assembles_hermitian(self, rng):
        sys = random_system(rng, n=2, m=2, p=2, require_hurwitz=False)
        M = sys.M
        assert np.max(np.abs(M - M.conj().T)) < 1e-14

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_conjugation_identities(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        sys = random_system(rng, n=n, m=int(rng.integers(1, 4)), p=2, require_hurwitz=False)
        M, N = sys.M, sys.N
        sm = structure_matrices(n)
        smm = structure_matrices(sys.m)
        assert np.allclose(sm.Sigma @ M @ sm.Sigma, M.conj())
        assert np.allclose(smm.Sigma @ N @ sm.Sigma, N.conj())
        assert np.allclose(sm.Sigma @ N.conj().T @ smm.Sigma, N.T)

    def test_row_partition_reconstructs(self, rng):
        sys = random_system(rng, n=3, m=1, p=3, require_hurwitz=False)
        Et = sys.Etilde
        rows = [Et[i] for i in range(sys.p)]
        assert np.array_equal(np.vstack(rows), Et)


class TestAssembledMatrices:
    def test_read_only(self):
        sys, _ = build_opa(OpaParams(kappa1=1.0, kappa2=2.0, chi=0.1))
        with pytest.raises(ValueError):
            sys.F[0, 0] = 1.0

    def test_replace_rederives_drift(self):
        sys = single_mode(np.array([[0.9]]), np.array([[0.0]]))
        damped = dataclasses.replace(sys, N1=np.array([[2.0]]))
        assert np.allclose(sys.F, np.diag([-0.9j, 0.9j]))
        assert np.allclose(damped.F, np.diag([-2.0 - 0.9j, -2.0 + 0.9j]))
        assert np.array_equal(damped.N, np.diag([2.0, 2.0]))

    def test_abscissa_is_recorded_and_rederived(self):
        sys = single_mode(np.array([[0.9]]), np.array([[0.0]]))
        damped = dataclasses.replace(sys, N1=np.array([[2.0]]))
        assert sys.abscissa == 0.0
        assert damped.abscissa == pytest.approx(-2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            damped.abscissa = 1.0

    @pytest.mark.parametrize(
        "block, value", [("M1", np.nan), ("N2", np.inf), ("E2", complex(0.0, -np.inf))]
    )
    def test_non_finite_block_rejected(self, block, value):
        sys, _ = build_opa(OpaParams(kappa1=1.0, kappa2=2.0, chi=0.1))
        names = ("M1", "M2", "N1", "N2", "E1", "E2")
        blocks = {name: np.array(getattr(sys, name)) for name in names}
        blocks[block][0, 0] = value
        with pytest.raises(StructureError, match=block):
            LinearQuantumSystem(**blocks)

    def test_structure_matrices_built_once_per_n(self):
        sm = structure_matrices(3)
        assert structure_matrices(3) is sm
        with pytest.raises(ValueError):
            sm.J[0, 0] = 0.0


class TestSmallGainNorm:
    @pytest.fixture
    def norm_calls(self, monkeypatch):
        calls = []
        original = qstab.model.hinf_norm

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(qstab.model, "hinf_norm", counting)
        return calls

    def test_computed_on_first_use_and_kept(self, norm_calls):
        sys, _ = build_opa(OpaParams(kappa1=1.0, kappa2=2.0, chi=0.1))
        assert norm_calls == []
        first = sys.hinf
        assert sys.hinf is first
        certify(sys, SectorBounds(gamma=4.5))
        certify(sys, SectorBounds(gamma=3.0))
        certify_sweep(sys, [SectorBounds(gamma=g) for g in (3.0, 4.0, 4.5, 8.0)])
        assert len(norm_calls) == 2
        # both iterations read the system's own spectrum of F
        assert all(args[3] is sys.spectrum for args in norm_calls)
        assert first.hinf_reduced == pytest.approx(2.0, rel=1e-8)

    def test_replace_rederives_the_norms(self, norm_calls):
        sys, _ = build_opa(OpaParams(kappa1=1.0, kappa2=2.0, chi=0.1))
        assert sys.hinf.hinf_reduced == pytest.approx(2.0, rel=1e-8)
        # N1 = diag(sqrt(kappa)), so this is kappa = (4, 4) and a norm of 2/4
        faster = dataclasses.replace(sys, N1=np.diag([2.0, 2.0]))
        assert faster.hinf.hinf_reduced == pytest.approx(0.5, rel=1e-8)
        assert len(norm_calls) == 4

    def test_unstable_system_builds_and_fails_without_a_norm(self, norm_calls):
        sys = single_mode(np.array([[0.9]]), np.array([[0.0]]))
        validate_system(sys)
        assert certify(sys, SectorBounds(gamma=1.0)).verdict is Verdict.FAILED_HURWITZ
        assert norm_calls == []
        with pytest.raises(NotHurwitzError):
            sys.hinf


def reference_opa_kappa(sys):
    """The OPA structure test by its definition, against freshly built I_n and diag(N1)."""
    diag = np.diag(sys.N1)
    zero = not (sys.M1.any() or sys.M2.any() or sys.N2.any() or sys.E1.any())
    diagonal = np.array_equal(sys.N1, np.diag(diag))
    if zero and diagonal and np.array_equal(sys.E2, np.eye(sys.n)):
        return np.abs(diag) ** 2
    return None


class TestOpaStructure:
    def blocks(self):
        sys, _ = build_opa(OpaParams(kappa1=1.3, kappa2=2.1, chi=0.1))
        return {name: np.array(getattr(sys, name)) for name in ("M1", "M2", "N1", "N2", "E1", "E2")}

    def near_misses(self):
        cases = {}
        for name in ("M1", "M2", "N2", "E1"):
            blocks = self.blocks()
            blocks[name][1, 0] = 1e-300
            cases[f"nonzero-{name}"] = blocks
        blocks = self.blocks()
        blocks["N1"][0, 1] = 0.25
        cases["off-diagonal-N1"] = blocks
        blocks = self.blocks()
        blocks["E2"] = np.diag([1.0, 1.0 + 2.0**-52])
        cases["E2-not-identity"] = blocks
        blocks = self.blocks()
        blocks["E2"] = np.diag([1.0, 1j])
        cases["E2-complex-unit"] = blocks
        blocks = self.blocks()
        blocks["E1"], blocks["E2"] = np.zeros((3, 2)), np.eye(3, 2)
        cases["p-greater-than-n"] = blocks
        blocks = self.blocks()
        blocks["E1"], blocks["E2"] = np.zeros((1, 2)), np.eye(1, 2)
        cases["p-less-than-n"] = blocks
        blocks = self.blocks()
        blocks["N1"], blocks["N2"] = np.eye(3, 2), np.zeros((3, 2))
        cases["m-greater-than-n"] = blocks
        return cases

    def test_the_opa_and_its_near_misses(self):
        sys = LinearQuantumSystem(**self.blocks())
        assert np.array_equal(sys.opa_kappa, reference_opa_kappa(sys))
        np.testing.assert_allclose(sys.opa_kappa, [1.3, 2.1], rtol=1e-15)
        for case, blocks in self.near_misses().items():
            sys = LinearQuantumSystem(**blocks)
            assert sys.opa_kappa is None, case
            assert reference_opa_kappa(sys) is None, case

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3),
        m=st.integers(1, 4),
        p=st.integers(1, 4),
        zeros=st.lists(st.booleans(), min_size=6, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=2, m=2, p=2, zeros=[True, True, False, True, True, False], seed=0)
    @example(n=3, m=3, p=3, zeros=[True, True, False, True, True, False], seed=1)
    def test_same_verdict_as_the_definition(self, n, m, p, zeros, seed):
        # each block is zero, its OPA value or a random one with a sparse pattern
        rng = np.random.default_rng(seed)
        shapes = {"M1": (n, n), "M2": (n, n), "N1": (m, n), "N2": (m, n), "E1": (p, n), "E2": (p, n)}
        opa = {"N1": np.diag(rng.uniform(0.5, 2.0, n)), "E2": np.eye(n)}
        blocks = {}
        for (name, shape), zero in zip(shapes.items(), zeros):
            if name in opa and shape == (n, n) and not zero:
                blocks[name] = opa[name]
            else:
                pattern = rng.random(shape) < 0.3
                blocks[name] = np.where(pattern, rng.normal(size=shape), 0.0) if not zero else np.zeros(shape)
        sys = LinearQuantumSystem(**blocks)
        expected = reference_opa_kappa(sys)
        if expected is None:
            assert sys.opa_kappa is None
        else:
            assert np.array_equal(sys.opa_kappa, expected)
