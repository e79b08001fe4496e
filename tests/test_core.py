"""Vector plumbing, batch descriptors, and the objective base class."""

import dataclasses
import pickle

import numpy as np
import pytest

from genopt import (
    AdamWState,
    BealeProblem,
    GenController,
    QuadraticProblem,
    RosenbrockProblem,
    SgdState,
    adamw_direction,
    apply_step,
    auto_search_eta0,
    exact_eta_hvp,
    gen_update,
    generate_dataset,
    probe_losses,
    sgd_direction,
)
from genopt.core import (
    FULL_DATA,
    DimensionMismatchError,
    FullData,
    NonFiniteError,
    Objective,
    StepRecord,
    SyntheticNoise,
    as_param_vector,
    check_finite,
    check_setting,
)


def test_as_param_vector_copies_and_casts():
    src = [1, 2, 3]
    w = as_param_vector(src)
    assert w.dtype == np.float64
    assert w.shape == (3,)
    original = np.array([1.0, 2.0])
    w2 = as_param_vector(original)
    w2[0] = 99.0  # must not alias the input
    assert original[0] == 1.0


def test_as_param_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        as_param_vector(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        as_param_vector([])
    with pytest.raises(NonFiniteError):
        as_param_vector([1.0, np.nan])
    with pytest.raises(NonFiniteError):
        as_param_vector([np.inf])
    with pytest.raises(DimensionMismatchError):
        as_param_vector([1.0, 2.0], dim=3)


# two-entry parameters, a vector and a block of rows one entry too wide,
# and two entries as a (1, 2) block, the wrong rank for a vector
_W2, _W3, _ROWS3 = np.zeros(2), np.zeros(3), np.zeros((4, 3))
_RANK2 = np.zeros((1, 2))
_PROBLEMS = {"rosenbrock": RosenbrockProblem(), "beale": BealeProblem(),
             "quadratic": QuadraticProblem(np.eye(2)),
             "logreg": generate_dataset(0, 8, 2)}


@pytest.mark.parametrize("call", [
    pytest.param(lambda: probe_losses(_PROBLEMS["quadratic"], _W2, _W3, 0.5),
                 id="probe_losses"),
    pytest.param(lambda: gen_update(GenController(eta=0.1, phi=1),
                                    _PROBLEMS["quadratic"], _W2, _W3),
                 id="gen_update-fit"),
    pytest.param(lambda: gen_update(
        GenController(eta=0.1, phi=1, estimator="hvp"),
        _PROBLEMS["quadratic"], _W2, _W2, raw_grad=_W3),
        id="gen_update-hvp"),
    pytest.param(lambda: exact_eta_hvp(_PROBLEMS["quadratic"], _W2, _W3, _W2),
                 id="exact_eta_hvp"),
    pytest.param(lambda: auto_search_eta0(_PROBLEMS["quadratic"], _W2, _W3),
                 id="auto_search_eta0"),
    pytest.param(lambda: apply_step(_W2, 0.1, _W3), id="apply_step"),
    pytest.param(lambda: sgd_direction(SgdState(2), _W3, _W2),
                 id="sgd_direction"),
    pytest.param(lambda: adamw_direction(AdamWState(2), _W2, _W3),
                 id="adamw_direction"),
] + [
    pytest.param(call, id=f"{name}-{method}")
    for name, problem in _PROBLEMS.items()
    for method, call in (
        ("loss", lambda p=problem: p.loss(_W3)),
        ("loss-rank", lambda p=problem: p.loss(_RANK2)),
        ("loss_grad", lambda p=problem: p.loss_grad(_W3)),
        ("loss_grad_rows", lambda p=problem: p.loss_grad_rows(_ROWS3)),
        ("hvp", lambda p=problem: p.hvp(_W2, _W3)))
])
def test_mismatched_operands_raise_dimension_mismatch(call):
    # one exception class for one mistake, whichever entry sees it
    with pytest.raises(DimensionMismatchError):
        call()


def test_check_finite_passthrough_and_raise():
    a = np.array([1.0, -2.0])
    assert check_finite(a, "a") is a
    with pytest.raises(NonFiniteError):
        check_finite(np.array([np.nan]), "bad")


def test_synthetic_noise_validation():
    b = SyntheticNoise(seed=5, batch_size=16)
    assert b.seed == 5 and b.batch_size == 16
    SyntheticNoise(seed=np.uint32(7), batch_size=np.int64(4))
    with pytest.raises(ValueError):
        SyntheticNoise(seed=0, batch_size=0)
    # a negative seed once built fine and failed inside numpy on first use
    with pytest.raises(ValueError) as e:
        SyntheticNoise(seed=-1, batch_size=4)
    assert str(e.value) == "seed must be a non-negative integer"


def test_check_setting_takes_numpy_scalars_and_names_the_argument():
    check_setting("gen.", "phi", np.int64(3))
    check_setting("optimizer.", "momentum", np.float32(0.5))
    for value in (True, np.bool_(True), 2.5, "8", None, 0):
        with pytest.raises(ValueError) as e:
            check_setting("gen.", "phi", value)
        assert str(e.value) == "phi must be an integer >= 1"
    with pytest.raises(ValueError) as e:
        check_setting("gen.", "probe_points", 4, "points")
    assert str(e.value) == "points must be 3 or 5"


def test_full_data_singleton_type():
    assert isinstance(FULL_DATA, FullData)


class _TinyQuadratic(Objective):
    dim = 2

    def loss(self, w, batch=FULL_DATA):
        return float(0.5 * np.dot(w, w))

    def grad(self, w, batch=FULL_DATA):
        return np.asarray(w, dtype=np.float64).copy()

    def hessian(self, w, batch=FULL_DATA):
        return np.eye(2)


def test_objective_base_contract():
    base = Objective()
    with pytest.raises(NotImplementedError):
        base.loss(np.zeros(1))
    with pytest.raises(NotImplementedError):
        base.grad(np.zeros(1))
    with pytest.raises(NotImplementedError):
        base.hessian(np.zeros(1))
    # the default hvp multiplies by the exact hessian, so it needs one
    q = _TinyQuadratic()
    v = np.array([2.0, -1.0])
    np.testing.assert_allclose(q.hvp(np.zeros(2), v), v, rtol=0, atol=0)
    with pytest.raises(NotImplementedError):
        Objective().hvp(np.zeros(2), v)


def test_step_record_defaults_and_frozen():
    r = StepRecord(step=1, loss=0.5, eta=0.1, grad_norm=2.0)
    assert r.eta_candidate is None
    assert r.fit_accepted is False
    assert r.fit_r2 is None
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.loss = 1.0
    # slotted: a run keeps no instance dictionary per step
    assert not hasattr(r, "__dict__")
    full = StepRecord(3, 0.25, 0.5, 1.5, 0.75, True, 0.99)
    # --jobs workers send records between processes
    for rec in (r, full):
        back = pickle.loads(pickle.dumps(rec))
        assert back == rec and hash(back) == hash(rec)
        assert repr(back) == repr(rec)
        assert dataclasses.astuple(back) == dataclasses.astuple(rec)
    assert dataclasses.asdict(full) == {
        "step": 3, "loss": 0.25, "eta": 0.5, "grad_norm": 1.5,
        "eta_candidate": 0.75, "fit_accepted": True, "fit_r2": 0.99}
