"""The gradient-check battery: no false failures, and still sharp."""

from rotdet import gradsuite, tensor

# With the default step, central-difference rounding put "sum_linear" at
# 1.398e-10 on this seed, over its 1e-10 bound.
ROUNDING_PRONE_SEED = 96200005


def _sum_linear(results):
    (check,) = [r for r in results if r.name == "sum_linear"]
    return check


def test_sum_linear_passes_on_rounding_prone_seed():
    check = _sum_linear(gradsuite.per_op_checks(seed=ROUNDING_PRONE_SEED))
    assert check.passed, check


def test_sum_linear_catches_wrong_gradient(monkeypatch):
    def skewed_sum(x):
        out = tensor.sum_all(x)
        correct = out._backward
        out._backward = lambda g: correct(g * (1.0 + 1e-9))
        return out

    monkeypatch.setattr(gradsuite, "sum_all", skewed_sum)
    check = _sum_linear(gradsuite.per_op_checks(seed=ROUNDING_PRONE_SEED))
    assert not check.passed
    assert check.max_rel_error > 1e-10
