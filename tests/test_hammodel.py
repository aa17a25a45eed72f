import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xdfrelax import hammodel
from xdfrelax.hammodel import (
    Hamiltonian,
    apply_perturbation,
    effective_operators,
    interpolate,
    parse_fcidump,
    random_one_body_perturbation,
    random_two_body_perturbation,
    synth_hamiltonian,
    write_fcidump,
)

from _common import eight_fold


def test_parse_two_body_record():
    text = "&FCI NORB=2,NELEC=2,MS2=0,\n&END\n0.25 1 1 1 1\n"
    ham = parse_fcidump(text)
    assert ham.two_body[0, 0, 0, 0] == 0.25
    other = ham.two_body.copy()
    other[0, 0, 0, 0] = 0.0
    assert np.all(other == 0.0)


def test_parse_core_energy_record():
    ham = parse_fcidump("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n0.75 0 0 0 0\n")
    assert ham.core_energy == 0.75


def test_parse_one_body_symmetry_completion():
    ham = parse_fcidump("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n0.1 2 1 0 0\n")
    assert ham.one_body[1, 0] == 0.1
    assert ham.one_body[0, 1] == 0.1


def test_parse_two_body_images_all_populated():
    ham = parse_fcidump("&FCI NORB=3,NELEC=2,MS2=0,\n&END\n0.5 2 1 3 1\n")
    for idx in hammodel.eight_fold_images(1, 0, 2, 0):
        assert ham.two_body[idx] == 0.5


def test_parse_electron_counts_from_ms2():
    ham = parse_fcidump("&FCI NORB=3,NELEC=3,MS2=1,\n&END\n0.0 0 0 0 0\n")
    assert (ham.n_alpha, ham.n_beta) == (2, 1)


# Records with a non-finite value, and the message each must raise.
NON_FINITE = {
    "&FCI NORB=2,NELEC=2,MS2=0 &END nan 0 0 0 0": "core energy holds a non-finite value",
    "&FCI NORB=2,NELEC=2,MS2=0 &END inf 2 1 0 0": "one_body holds a non-finite value",
    "&FCI NORB=2,NELEC=2,MS2=0 &END -inf 2 1 2 1": "two_body holds a non-finite value",
}
# Header texts whose error must name the field they get wrong.
NAMED_FIELD = {
    "&FCI NORB=2,NELEC=2,MS2=x &END": "MS2",
    "&FCI NORB=2,NELEC=2,MS2=1.5 &END": "MS2",
}


@pytest.mark.parametrize("text", [
    "NORB=2,NELEC=2 &END 0.1 0 0 0 0",          # missing &FCI
    "&FCI NELEC=2,MS2=0 &END 0.1 0 0 0 0",       # missing NORB
    "&FCI NORB=2,NELEC=3,MS2=0 &END 0.1 0 0 0 0",  # parity clash
    "&FCI NORB=2,NELEC=2,MS2=0 &END 0.1 3 1 0 0",  # index out of range
    "&FCI NORB=2,NELEC=2,MS2=0 &END 0.1 1 1",      # ragged record
    "&FCI NORB=0,NELEC=0,MS2=0 &END",              # no orbitals
    "&FCI NORB=-3,NELEC=2,MS2=0 &END",             # negative NORB
    "&FCI NORB=9,NELEC=2,MS2=0 &END",              # above the desk cap
    "&FCI NORB=1000,NELEC=2,MS2=0, &END",          # would allocate 8 TB
    *NON_FINITE,
    *NAMED_FIELD,
])
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError, match={**NON_FINITE, **NAMED_FIELD}.get(text)):
        parse_fcidump(text)


def test_parse_rejects_conflicting_duplicates():
    text = "&FCI NORB=2,NELEC=2,MS2=0,\n&END\n0.25 1 1 1 1\n0.30 1 1 1 1\n"
    with pytest.raises(ValueError, match="duplicate"):
        parse_fcidump(text)
    # agreeing duplicates are fine
    ok = "&FCI NORB=2,NELEC=2,MS2=0,\n&END\n0.25 1 1 1 1\n0.25 1 1 1 1\n"
    assert parse_fcidump(ok).two_body[0, 0, 0, 0] == 0.25


def test_write_round_trip_small_fixture():
    text = ("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n"
            "0.25 1 1 1 1\n0.10 2 1 0 0\n-1.0 1 1 0 0\n0.75 0 0 0 0\n")
    ham = parse_fcidump(text)
    again = parse_fcidump(write_fcidump(ham))
    assert again.core_energy == ham.core_energy
    np.testing.assert_allclose(again.one_body, ham.one_body, atol=1e-12)
    np.testing.assert_allclose(again.two_body, ham.two_body, atol=1e-12)


def test_write_all_zero_integrals_is_core_only():
    ham = Hamiltonian(2, 1, 1, 0.5, np.zeros((2, 2)), np.zeros((2, 2, 2, 2)))
    records = [ln for ln in write_fcidump(ham).splitlines()
               if ln and not ln.lstrip().startswith(("&", "ORBSYM", "ISYM"))]
    assert len(records) == 1
    assert records[0].split()[1:] == ["0", "0", "0", "0"]
    assert float(records[0].split()[0]) == 0.5


@st.composite
def synthetic_models(draw):
    n = draw(st.integers(2, 8))
    return synth_hamiltonian(n, draw(st.integers(0, n)), draw(st.integers(0, n)),
                             draw(st.integers(0, 2**32 - 1)))


# Writing prints 17 significant digits, so every number survives bit for bit.
def assert_round_trips(ham):
    again = parse_fcidump(write_fcidump(ham))
    assert again.core_energy == ham.core_energy
    assert again.one_body.tobytes() == ham.one_body.tobytes()
    assert again.two_body.tobytes() == ham.two_body.tobytes()
    assert (again.n_alpha, again.n_beta) == (ham.n_alpha, ham.n_beta)


@pytest.mark.parametrize("n,seed", [(2, 0), (4, 5), (5, 9)])
def test_write_parse_round_trip_random(n, seed):
    assert_round_trips(synth_hamiltonian(n, 1, 1, seed))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(synthetic_models())
def test_write_parse_round_trip_any_model(ham):
    assert_round_trips(ham)


def test_synth_deterministic():
    a = synth_hamiltonian(2, 1, 1, 7)
    b = synth_hamiltonian(2, 1, 1, 7)
    assert np.array_equal(a.one_body, b.one_body)
    assert np.array_equal(a.two_body, b.two_body)
    assert a.core_energy == b.core_energy


@pytest.mark.parametrize("n,seed", [(2, 7), (3, 1), (4, 13), (6, 2)])
def test_synth_supermatrix_psd_and_symmetric(n, seed):
    ham = synth_hamiltonian(n, 1, 1, seed)
    ham.validate(check_psd=True)
    evals = np.linalg.eigvalsh(ham.supermatrix())
    assert evals.min() >= -1e-12


def test_synth_rejects_single_orbital():
    with pytest.raises(ValueError):
        synth_hamiltonian(1, 1, 0, 0)


def test_effective_operators_vanishing_two_body():
    h = np.array([[1.0, 0.3], [0.3, -2.0]])
    ham = Hamiltonian(2, 1, 1, 0.25, h, np.zeros((2, 2, 2, 2)))
    eff = effective_operators(ham)
    np.testing.assert_allclose(eff.eff_one_body, h, atol=1e-15)
    assert abs(eff.scalar_offset - (0.25 + np.trace(h))) < 1e-14


def _hand_n2_hamiltonian():
    # (00|00)=0.8, (11|11)=0.7, (00|11)=0.3, (01|01)=0.2, (00|01)=0.1, (01|11)=0.05
    h = np.array([[1.0, 0.5], [0.5, 2.0]])
    eri = np.zeros((2, 2, 2, 2))
    for (p, q, r, s), val in {(0, 0, 0, 0): 0.8, (1, 1, 1, 1): 0.7,
                              (0, 0, 1, 1): 0.3, (0, 1, 0, 1): 0.2,
                              (0, 0, 0, 1): 0.1, (0, 1, 1, 1): 0.05}.items():
        for idx in hammodel.eight_fold_images(p, q, r, s):
            eri[idx] = val
    return Hamiltonian(2, 1, 1, 0.25, h, eri)


def test_effective_operators_hand_values():
    eff = effective_operators(_hand_n2_hamiltonian())
    # worked out on paper from the defining sums
    assert abs(eff.scalar_offset - 3.825) < 1e-14
    np.testing.assert_allclose(eff.eff_one_body,
                               [[1.6, 0.575], [0.575, 2.55]], atol=1e-14)


@pytest.mark.parametrize("n,seed", [(2, 1), (4, 2), (6, 3)])
def test_effective_operators_against_loop_oracle(n, seed):
    ham = synth_hamiltonian(n, 1, 1, seed)
    eff = effective_operators(ham)
    f_loop = np.zeros((n, n))
    for p in range(n):
        for q in range(n):
            direct = sum(ham.two_body[p, q, r, r] for r in range(n))
            exch = sum(ham.two_body[p, r, q, r] for r in range(n))
            f_loop[p, q] = ham.one_body[p, q] + direct - 0.5 * exch
    scalar_loop = ham.core_energy + sum(ham.one_body[p, p] for p in range(n))
    scalar_loop += 0.5 * sum(ham.two_body[p, p, q, q] for p in range(n) for q in range(n))
    scalar_loop -= 0.25 * sum(ham.two_body[p, q, p, q] for p in range(n) for q in range(n))
    np.testing.assert_allclose(eff.eff_one_body, f_loop, atol=1e-12)
    assert abs(eff.scalar_offset - scalar_loop) < 1e-12


def test_interpolate_endpoints_and_midpoint():
    a = synth_hamiltonian(3, 1, 1, 0)
    b = synth_hamiltonian(3, 1, 1, 1)
    np.testing.assert_array_equal(interpolate(a, b, 0.0).one_body, a.one_body)
    np.testing.assert_array_equal(interpolate(a, b, 1.0).two_body, b.two_body)
    mid = interpolate(a, b, 0.5)
    np.testing.assert_allclose(mid.one_body, 0.5 * (a.one_body + b.one_body), atol=1e-15)
    same = interpolate(a, a, 0.37)
    np.testing.assert_allclose(same.two_body, a.two_body, atol=1e-15)


def test_interpolate_rejects_mismatched():
    a = synth_hamiltonian(3, 1, 1, 0)
    b = synth_hamiltonian(4, 1, 1, 0)
    with pytest.raises(ValueError):
        interpolate(a, b, 0.5)
    c = synth_hamiltonian(3, 2, 1, 0)
    with pytest.raises(ValueError):
        interpolate(a, c, 0.5)


def test_apply_perturbation_zero_eps_identity():
    ham = synth_hamiltonian(3, 1, 1, 4)
    pert = random_one_body_perturbation(3, 1)
    out = apply_perturbation(ham, pert, 0.0)
    np.testing.assert_array_equal(out.one_body, ham.one_body)


def test_apply_perturbation_targets_single_entry():
    ham = synth_hamiltonian(2, 1, 1, 4)
    e11 = np.zeros((2, 2))
    e11[0, 0] = 1.0
    out = apply_perturbation(ham, hammodel.Perturbation("one_body", e11), 1e-3)
    assert abs(out.one_body[0, 0] - ham.one_body[0, 0] - 1e-3) < 1e-15
    np.testing.assert_array_equal(out.two_body, ham.two_body)


@pytest.mark.parametrize("kind,seed", [("one_body", 3), ("two_body", 4)])
def test_perturbation_frobenius_normalized(kind, seed):
    ham = synth_hamiltonian(3, 1, 1, 5)
    maker = random_one_body_perturbation if kind == "one_body" else random_two_body_perturbation
    pert = maker(3, seed)
    out = apply_perturbation(ham, pert, 1e-3)
    target = out.one_body - ham.one_body if kind == "one_body" else out.two_body - ham.two_body
    assert abs(np.sum(pert.tensor * target) / 1e-3 - 1.0) < 1e-10


def test_apply_perturbation_rejects_asymmetric():
    ham = synth_hamiltonian(2, 1, 1, 4)
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        apply_perturbation(ham, hammodel.Perturbation("one_body", bad), 1e-3)
    bad2 = np.zeros((2, 2, 2, 2))
    bad2[0, 1, 0, 0] = 1.0
    with pytest.raises(ValueError):
        apply_perturbation(ham, hammodel.Perturbation("two_body", bad2), 1e-3)


def test_eight_fold_symmetrize_idempotent():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((3, 3, 3, 3))
    sym = hammodel.eight_fold_symmetrize(t)
    np.testing.assert_allclose(sym, eight_fold(sym), atol=1e-15)
    assert hammodel.eight_fold_deviation(sym) < 1e-14
