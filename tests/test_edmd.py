import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopmanmpc import edmd
from koopmanmpc.dataset import Dataset, Scaler
from koopmanmpc.edmd import (
    Dictionary,
    EdmdModel,
    SingularityError,
    fit,
    identity_dictionary,
    polynomial_dictionary,
    rbf_centers_from_data,
    rbf_dictionary,
)
from koopmanmpc.lifted import decode_array, encode_array


def gauss_solve(a, b):
    """Independent Gaussian elimination with partial pivoting (oracle)."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    aug = np.hstack([a, b.reshape(n, -1)])
    for col in range(n):
        piv = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[piv, col]) < 1e-300:
            raise np.linalg.LinAlgError("singular")
        aug[[col, piv]] = aug[[piv, col]]
        aug[col] = aug[col] / aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:].reshape(b.shape)


def reference_polynomial_lift(d: Dictionary, x: np.ndarray) -> np.ndarray:
    """The per-monomial np.prod loop that the vectorized lift replaced."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    x2 = x[None] if single else x
    cols = [np.ones((x2.shape[0], 1)), x2]
    for deg in range(2, d.degree + 1):
        for combo in itertools.combinations_with_replacement(range(d.input_dim), deg):
            cols.append(np.prod(x2[:, combo], axis=1, keepdims=True))
    out = np.hstack(cols)
    return out[0] if single else out


def linear_system_dataset(rho=0.5, gain=1.0, n_samples=60, seed=0):
    """Scalar system x+ = rho x + gain u wrapped as 1x1 histories, with the
    identity scaler so fitted coefficients equal the true ones."""
    rng = np.random.default_rng(seed)
    xs, us, xs_next = [], [], []
    x = 0.2
    for _ in range(n_samples):
        u = rng.uniform(-1.0, 1.0)
        x_next = rho * x + gain * u
        xs.append(x)
        us.append(u)
        xs_next.append(x_next)
        x = x_next if abs(x_next) < 5 else rng.uniform(-1, 1)
    return Dataset(v_k=np.reshape(xs, (-1, 1, 1)), u_k=np.reshape(us, (-1, 1)),
                   v_next=np.reshape(xs_next, (-1, 1, 1)), scaler=Scaler.identity())


class TestDictionary:
    def test_identity_features(self):
        d = identity_dictionary(3)
        x = np.array([1.5, -2.0, 0.25])
        assert np.array_equal(d.lift(x[None])[0], np.array([1.0, 1.5, -2.0, 0.25]))

    def test_polynomial_degree_two_scalar(self):
        d = polynomial_dictionary(1, 2)
        out = d.lift(np.array([3.0])[None])[0]
        assert np.array_equal(out, np.array([1.0, 3.0, 9.0]))

    def test_polynomial_cross_terms(self):
        d = polynomial_dictionary(2, 2)
        out = d.lift(np.array([2.0, 3.0])[None])[0]
        # 1, x0, x1, x0^2, x0 x1, x1^2
        assert np.array_equal(out, np.array([1.0, 2.0, 3.0, 4.0, 6.0, 9.0]))
        assert d.n_features == 6

    def test_rbf_peak_at_center(self):
        c = np.array([[0.5, -0.5]])
        d = rbf_dictionary(2, c, width=0.7)
        out = d.lift(np.array([0.5, -0.5])[None])[0]
        assert out[-1] == pytest.approx(1.0)
        far = d.lift(np.array([5.0, 5.0])[None])[0]
        assert far[-1] < 1e-6

    def test_dimension_mismatch(self):
        d = identity_dictionary(3)
        with pytest.raises(ValueError):
            d.lift(np.zeros(4))

    @pytest.mark.parametrize("shape", [(3,), (2, 4), (1, 2, 3)])
    def test_lift_is_batch_only(self, shape):
        d = identity_dictionary(3)
        with pytest.raises(ValueError, match=re.escape(f"expected inputs (S, 3), got {shape}")):
            d.lift(np.zeros(shape))

    def test_round_trip(self):
        for d in (identity_dictionary(4), polynomial_dictionary(4, 3),
                  rbf_dictionary(4, np.zeros((2, 4)), 0.3)):
            payload = bytearray()
            back = Dictionary.from_dict(d.to_dict(payload), payload)
            x = np.linspace(-1, 1, 4)
            assert np.array_equal(back.lift(x[None])[0], d.lift(x[None])[0])

    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 8),
        degree=st.integers(1, 3),
        batch=st.one_of(st.none(), st.integers(1, 20)),
        scale=st.floats(0.01, 50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_polynomial_lift_matches_per_monomial_reference(self, seed, dim, degree, batch,
                                                            scale):
        rng = np.random.default_rng(seed)
        d = polynomial_dictionary(dim, degree)
        x = scale * rng.uniform(-1.0, 1.0, size=(dim,) if batch is None else (batch, dim))
        got = d.lift(x) if batch is not None else d.lift(x[None])[0]
        assert got.shape == ((d.n_features,) if batch is None else (batch, d.n_features))
        assert np.array_equal(got, reference_polynomial_lift(d, x))

    def test_centers_from_data_deterministic(self):
        x = np.random.default_rng(0).normal(size=(50, 4))
        a = rbf_centers_from_data(x, 8, seed=5)
        b = rbf_centers_from_data(x, 8, seed=5)
        assert np.array_equal(a, b)


class TestFit:
    def test_exact_recovery_of_linear_system(self):
        ds = linear_system_dataset(rho=0.5, gain=1.0)
        model = fit(ds, identity_dictionary(1), ridge=0.0)
        # lifted coordinates are (1, x); the x-row must be the true dynamics
        assert abs(model.A[1, 1] - 0.5) < 1e-8
        assert abs(model.B[1, 0] - 1.0) < 1e-8
        assert model.residuals["dynamics_rms"] < 1e-8

    def test_fewer_samples_than_unknowns_singular(self):
        ds = linear_system_dataset(n_samples=3)
        with pytest.raises(SingularityError):
            fit(ds, polynomial_dictionary(1, 5), ridge=0.0)

    def test_ridge_shrinks_coefficients(self):
        ds = linear_system_dataset()
        norms = []
        for lam in (1e-6, 1.0, 100.0):
            model = fit(ds, identity_dictionary(1), ridge=lam)
            norms.append(np.linalg.norm(model.A) + np.linalg.norm(model.B))
        assert norms[0] > norms[1] > norms[2]

    @pytest.mark.parametrize("ridge", [-1.0, float("nan"), float("inf")])
    def test_bad_ridge_rejected(self, ridge):
        with pytest.raises(ValueError, match="ridge must be a finite number >= 0"):
            fit(linear_system_dataset(), identity_dictionary(1), ridge=ridge)

    def test_projection_reconstructs_exactly(self):
        ds = linear_system_dataset()
        model = fit(ds, polynomial_dictionary(1, 2), ridge=0.0)
        assert model.residuals["projection_rms"] < 1e-10
        x = np.array([[0.37]])
        flat = model.scaler.normalize_v(x).reshape(-1)
        assert np.allclose(model.C @ model.lift(x), flat, atol=1e-8)

    def test_uncontrolled_fit(self):
        # m = 0: only A is identified
        rng = np.random.default_rng(1)
        xs, xs_next = [], []
        x = 0.9
        for _ in range(30):
            x_next = 0.8 * x
            xs.append(x)
            xs_next.append(x_next)
            x = x_next if abs(x_next) > 1e-3 else rng.uniform(0.5, 1.0)
        ds = Dataset(v_k=np.reshape(xs, (-1, 1, 1)), u_k=np.zeros((30, 0)),
                     v_next=np.reshape(xs_next, (-1, 1, 1)), scaler=Scaler.identity())
        model = fit(ds, identity_dictionary(1), ridge=0.0)
        assert model.B.shape == (2, 0)
        assert abs(model.A[1, 1] - 0.8) < 1e-8

    def test_least_squares_matches_elimination_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            dim = rng.integers(2, 6)
            basis = rng.normal(size=(dim, dim))
            gram = basis @ basis.T + dim * np.eye(dim)  # well conditioned SPD
            rhs = rng.normal(size=(dim, 2))
            ours = edmd._solve_normal(gram, rhs, "test")
            oracle = gauss_solve(gram, rhs)
            assert np.max(np.abs(ours - oracle)) < 1e-8

    def test_dictionary_must_match_flattened_dimension(self):
        ds = linear_system_dataset()
        with pytest.raises(ValueError):
            fit(ds, identity_dictionary(3), ridge=0.0)


class TestModelFile:
    def test_serialization_round_trip(self, tmp_path):
        from koopmanmpc.lifted import load_lifted_model, save_lifted_model

        ds = linear_system_dataset()
        model = fit(ds, polynomial_dictionary(1, 2), ridge=1e-10)
        save_lifted_model(model, tmp_path / "edmd.json")
        back = load_lifted_model(tmp_path / "edmd.json")
        assert isinstance(back, EdmdModel)
        assert np.array_equal(back.A, model.A)
        assert np.array_equal(back.C, model.C)
        x = np.array([[0.21]])
        assert np.array_equal(back.lift(x), model.lift(x))

    def test_golden_poly2_model_bytes(self, tmp_path):
        """sha256 of a ``poly:2`` (N = 325) ``lifted_model.json``, fit with
        ridge 1e-8 on 30 seeded load cases of the default plant: pins the
        bits of ``fit``, since the document holds the sha256 of its
        ``lifted_model.bin`` sidecar.  Runs in a child process with one BLAS thread, since
        a threaded OpenBLAS sums this fit's products in another order."""
        src = str(Path(edmd.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        path = tmp_path / "lifted_model.json"
        code = (
            "import sys\n"
            "from koopmanmpc.dataset import DatasetConfig, generate\n"
            "from koopmanmpc.edmd import fit, polynomial_dictionary\n"
            "from koopmanmpc.lifted import save_lifted_model\n"
            "from koopmanmpc.plant import default_config\n"
            "ds = generate(default_config(), DatasetConfig(n_loads=30), seed=2022)\n"
            "model = fit(ds, polynomial_dictionary(24, 2), ridge=1e-8)\n"
            "save_lifted_model(model, sys.argv[1])\n"
        )
        subprocess.run([sys.executable, "-c", code, str(path)], env=env, check=True)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "77084bf068944a0e3a7dea7dc10293793ac130d756c988859e6337e7a0f38ce8")
        recorded = json.loads(path.read_text())["payload"]["sha256"]
        assert hashlib.sha256(path.with_suffix(".bin").read_bytes()).hexdigest() == recorded


class TestModelValidation:
    @pytest.mark.parametrize(
        "mismatch, edit",
        [
            (r"\bC\b", lambda doc, pay: doc.update(
                C=encode_array(decode_array("C", doc["C"], pay)[:, :-1].copy(), pay))),
            ("input dimension", lambda doc, pay: doc["dictionary"].update(input_dim=2)),
            ("3 features", lambda doc, pay: doc.update(A=encode_array(np.zeros((4, 4)), pay),
                                                       B=encode_array(np.zeros((4, 1)), pay))),
            # one rbf center keeps the 3 features of the degree-2 dictionary it replaces
            ("rbf centers", lambda doc, pay: doc.update(dictionary={
                "kind": "rbf", "input_dim": 1, "width": 0.5,
                "centers": encode_array(np.array([[np.nan]]), pay)})),
            ("rbf width", lambda doc, pay: doc.update(dictionary={
                "kind": "rbf", "input_dim": 1, "width": float("inf"),
                "centers": encode_array(np.zeros((1, 1)), pay)})),
        ],
        ids=["short_C", "wrong_input_dim", "A_larger_than_dictionary", "rbf_nan_center",
             "rbf_infinite_width"],
    )
    def test_inconsistent_model_rejected(self, mismatch, edit):
        payload = bytearray()
        doc = fit(linear_system_dataset(), polynomial_dictionary(1, 2), ridge=1e-10).to_dict(payload)
        edit(doc, payload)
        with pytest.raises(ValueError, match=mismatch):
            EdmdModel.from_dict(doc, payload)
