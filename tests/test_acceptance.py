"""End-to-end acceptance suite: one test per headline guarantee.

Each test runs the corresponding self-contained verification check at its
fixed tolerances and prints one PASS/FAIL line with the measured values.
"""

import numpy as np
import pytest

from enscribe import verification
from enscribe.errors import ZOutOfRange


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    flat = ", ".join(
        f"{k}={v}" for k, v in result.details.items() if not isinstance(v, dict)
    )
    print(f"{status} {result.name}: {flat}")
    assert result.passed, f"{result.name} failed: {result.details}"


def test_uniform_feasibility_threshold_values():
    # root at N=3 within 1e-5 of -0.203785; within 20% of -1/(2N) for large N
    _report(verification.check_uniform_threshold(seed=0))


def test_explicit_qubit_procedure():
    # unitarity defect < 1e-12, action error < 1e-10, swap commutator < 1e-12
    _report(verification.check_qubit_example(seed=0))


def test_zero_deformation_cloning_boundary():
    # classical residuals < 1e-12; non-classical search floor > 1e-4 (64 starts)
    _report(verification.check_no_cloning_boundary(seed=0))


def test_two_text_parameter_interval():
    # residual < 1e-8 at 5 interior points per branch for |z| in {.1,.3,.5,.7};
    # floor > 1e-4 at 5 gap points, 1e-2 guard band at the boundaries
    _report(verification.check_two_text_q_range(seed=0))


def test_real_uniform_parameter_interval():
    # interval nonempty exactly above the threshold on a 0.05 overlap grid for
    # N in {3, 4}; central/fallback residual < 1e-9; sign(Q) = -sign(z) = eps
    _report(verification.check_uniform_q_range(seed=0))


def test_reciprocal_gram_sign_screen():
    # 20 certified overlapping texts: nonsingular reciprocal Gram, N-1 equal
    # eigenvalue signs, sign(Q) matches; one-zero-overlap family is illegible
    _report(verification.check_eigen_sign_screen(seed=0))


def test_deformation_minus_one_rank_deficiency():
    # entangled inputs at deformation -1 dependent for 10 thick texts x 5 tablets
    _report(verification.check_q_minus_one_rank(seed=0))


def test_cloning_machine_statistics():
    # probability forms agree to 1e-12 on 100 draws; fidelity 1 within 1e-8;
    # saturation of 1/(1+|z|) within 1e-10; failure parity matches sign(Q)
    _report(verification.check_cloning_machine(seed=0))


def test_structural_transformation_properties():
    # equivalence covariance < 1e-8/1e-10, residual routes < 1e-10,
    # thin extensions and orthogonal-sum lifts < 1e-9
    _report(verification.check_structural_properties(seed=0))


def test_random_text_generator_gives_up_on_an_empty_window():
    with pytest.raises(ZOutOfRange):
        verification.random_nonclassical_text(np.random.default_rng(0), 3, 3, lo=0.9, hi=0.2)
