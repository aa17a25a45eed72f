import json

import numpy as np
import pytest

from xdfrelax import cli, lagrange, verify, vqe
from xdfrelax.hammodel import Hamiltonian, synth_hamiltonian, write_fcidump

from _common import regime_fixture


@pytest.fixture(scope="module")
def fcidump_n3(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixtures") / "n3.fcidump"
    path.write_text(write_fcidump(synth_hamiltonian(3, 1, 1, 2)), encoding="ascii")
    return str(path)


@pytest.fixture(scope="module")
def fcidump_n4(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixtures") / "n4.fcidump"
    path.write_text(write_fcidump(regime_fixture()), encoding="ascii")
    return str(path)


def _run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = cli.main(args + ["--out", str(out)])
    return code, json.loads(out.read_text())


def test_factorize_json_contract(fcidump_n4, tmp_path):
    code, payload = _run(["factorize", "--fcidump", fcidump_n4, "--threshold", "0.3"],
                         tmp_path)
    assert code == 0
    assert payload["total_leaves"] == 10
    assert payload["retained"] == 4
    mags = np.abs(payload["leaf_eigenvalues"])
    assert np.all(np.diff(mags) <= 1e-12)
    assert payload["config"]["threshold"] == 0.3
    assert payload["exit_code"] == 0


def test_factorize_threshold_zero_retains_all(fcidump_n3, tmp_path):
    code, payload = _run(["factorize", "--fcidump", fcidump_n3, "--threshold", "0"],
                         tmp_path)
    assert code == 0
    assert payload["retained"] == payload["total_leaves"] == 6
    assert payload["reconstruction_error"] < 1e-10


def test_vqe_command(fcidump_n3, tmp_path):
    code, payload = _run(["vqe", "--fcidump", fcidump_n3, "--layers", "3",
                          "--tol", "1e-9", "--seed", "3"], tmp_path)
    assert code == 0
    assert payload["converged"] is True
    assert payload["grad_norm"] <= 1e-9
    assert len(payload["params"]["data"]) == payload["params"]["shape"][0]


def test_rdm_oracle_flag_untruncated(fcidump_n3, tmp_path):
    code, payload = _run(["rdm", "--fcidump", fcidump_n3, "--layers", "3",
                          "--tol", "1e-10", "--seed", "3"], tmp_path)
    assert code == 0
    assert payload["oracle"]["gamma_max_abs_diff"] < 1e-8
    assert payload["oracle"]["Gamma_max_abs_diff"] < 1e-8
    assert payload["gamma_sym"]["shape"] == [3, 3]
    assert payload["Gamma_sym"]["shape"] == [3, 3, 3, 3]


def test_rdm_truncated_oracle_not_applicable(fcidump_n3, tmp_path):
    code, payload = _run(["rdm", "--fcidump", fcidump_n3, "--leaves", "3",
                          "--layers", "3", "--seed", "3"], tmp_path)
    assert code == 0
    assert payload["oracle"] == "not-applicable"


def test_rdm_gamma_hf_limit(tmp_path):
    # an effectively one-body problem: gamma is the HF occupation pattern
    from _common import zero_two_body
    ham = zero_two_body(2, 1, 1, [-2.0, 1.0], core=0.1)
    path = tmp_path / "hf.fcidump"
    path.write_text(write_fcidump(ham), encoding="ascii")
    code, payload = _run(["rdm", "--fcidump", str(path), "--layers", "1",
                          "--seed", "1"], tmp_path)
    assert code == 0
    gamma = np.array(payload["gamma_sym"]["data"]).reshape(2, 2)
    np.testing.assert_allclose(gamma, np.diag([2.0, 0.0]), atol=1e-8)


def test_verify_command_small(fcidump_n3, tmp_path):
    code, payload = _run(["verify", "--fcidump", fcidump_n3, "--layers", "3",
                          "--layers-small", "1", "--leaves", "3",
                          "--perturbations", "1", "--seed", "0"], tmp_path)
    assert code == 0
    assert payload["all_passed"] is True
    assert len(payload["reports"]) == 4 * 2
    assert "regime" in payload["table"]


@pytest.mark.filterwarnings("ignore:state gradient norm")  # a loose --tol is the point
def test_verify_passes_tol_to_every_solve(fcidump_n3, tmp_path, monkeypatch):
    seen = []
    real = vqe.optimize

    def recording(fac, cfg, tol, **kwargs):
        seen.append(tol)
        return real(fac, cfg, tol, **kwargs)

    monkeypatch.setattr(vqe, "optimize", recording)
    code, payload = _run(["verify", "--fcidump", fcidump_n3, "--layers", "2",
                          "--layers-small", "1", "--leaves", "3",
                          "--perturbations", "1", "--tol", "1e-7"], tmp_path)
    assert code == 0 and payload["config"]["tol"] == 1e-7
    assert seen and set(seen) == {1e-7}


def test_path_command_short(fcidump_n3, tmp_path):
    ham_b = synth_hamiltonian(3, 1, 1, 8)
    path_b = tmp_path / "n3b.fcidump"
    path_b.write_text(write_fcidump(ham_b), encoding="ascii")
    code, payload = _run(["path", "--fcidump", fcidump_n3,
                          "--fcidump-b", str(path_b), "--steps", "10",
                          "--dt", "0.02", "--layers", "3", "--seed", "3"], tmp_path)
    assert code == 0
    assert payload["steps_completed"] == 10
    assert payload["relative_drift"] < 1e-6
    assert len(payload["total"]["data"]) == 11


def test_exit_code_input_error(fcidump_n3, tmp_path, capsys):
    # a missing file and a directory: both are unreadable inputs
    for path in ("/nonexistent.fcidump", str(tmp_path)):
        code, payload = _run(["factorize", "--fcidump", path], tmp_path)
        assert code == 1
        assert "error" in payload
    # a NORB header above the desk cap is rejected before any allocation
    huge = tmp_path / "huge.fcidump"
    huge.write_text("&FCI NORB=1000,NELEC=2,MS2=0, &END\n", encoding="ascii")
    code, payload = _run(["factorize", "--fcidump", str(huge)], tmp_path)
    assert code == 1 and "NORB" in payload["error"]
    # an unwritable --out: the error payload goes to stdout instead
    capsys.readouterr()
    out = tmp_path / "missing" / "x.json"
    code = cli.main(["factorize", "--fcidump", fcidump_n3, "--out", str(out)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["exit_code"] == 1
    assert "error" in payload and not out.exists()


def test_exit_code_malformed_file(tmp_path):
    bad = tmp_path / "bad.fcidump"
    bad.write_text("not a namelist at all\n", encoding="ascii")
    code, payload = _run(["factorize", "--fcidump", str(bad)], tmp_path)
    assert code == 1
    # non-finite integrals are input errors, not numerical failures
    header = "&FCI NORB=2,NELEC=2,MS2=0,\n&END\n0.5 1 1 1 1\n-1.0 1 1 0 0\n"
    for record, name in (("nan 0 0 0 0", "core energy"), ("inf 2 1 0 0", "one_body"),
                         ("nan 2 1 2 1", "two_body")):
        bad.write_text(header + record + "\n", encoding="ascii")
        for command in ("factorize", "rdm"):
            code, payload = _run([command, "--fcidump", str(bad)], tmp_path)
            assert code == 1
            assert payload["error"] == f"{name} holds a non-finite value"


@pytest.mark.parametrize("argv,flag", [
    (["vqe", "--bogus", "1"], "--bogus"),
    (["vqe", "--layers", "abc"], "--layers"),
    (["rdm", "--ablate", "foo"], "--ablate"),
    (["verify", "--threshold", "0.3"], "--threshold"),
    (["factorize", "--layers", "2"], "--layers"),
])
def test_exit_code_usage_error(fcidump_n3, tmp_path, capsys, argv, flag):
    # the parser fails before --out is known, so the payload goes to stdout
    out = tmp_path / "x.json"
    code = cli.main(argv + ["--fcidump", fcidump_n3, "--out", str(out)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and not out.exists()
    assert payload == {"error": payload["error"], "exit_code": 1}
    assert flag in payload["error"]


@pytest.mark.parametrize("argv,flag", [
    (["factorize", "--leaves", "-1"], "--leaves"),
    (["vqe", "--layers", "-1"], "--layers"),
    (["vqe", "--tol", "0"], "--tol"),
    (["verify", "--perturbations", "0"], "--perturbations"),
    (["path", "--mass", "0"], "--mass"),
    (["path", "--steps", "0"], "--steps"),
    # non-finite values: each was accepted, or failed later with another code
    (["rdm", "--threshold", "nan"], "--threshold"),
    (["rdm", "--threshold", "inf"], "--threshold"),
    (["vqe", "--tol", "inf"], "--tol"),
    (["rdm", "--tol", "inf"], "--tol"),
    (["path", "--steps", "2", "--mass", "inf"], "--mass"),
    (["path", "--steps", "2", "--dt", "nan"], "--dt"),
    (["path", "--steps", "2", "--dt", "inf"], "--dt"),
    (["path", "--steps", "2", "--s0", "nan"], "--s0"),
    (["path", "--steps", "2", "--v0", "nan"], "--v0"),
    (["path", "--steps", "2", "--v0", "inf"], "--v0"),
])
def test_exit_code_bad_flag_value(fcidump_n3, tmp_path, argv, flag):
    if argv[0] == "path":
        argv = argv + ["--fcidump-b", fcidump_n3]
    code, payload = _run(argv + ["--fcidump", fcidump_n3], tmp_path)
    assert code == 1
    assert payload["error"].startswith(flag + " ")


def test_exit_code_nonconvergence(fcidump_n3, tmp_path):
    # zero optimizer iterations leaves the random start non-stationary
    with pytest.warns(UserWarning, match="optimizer stalled"):
        code, payload = _run(["vqe", "--fcidump", fcidump_n3, "--layers", "2",
                              "--tol", "1e-9", "--maxiter", "0", "--seed", "0"], tmp_path)
    assert code == 3
    assert "error" in payload


@pytest.mark.parametrize("command", ["vqe", "verify", "path"])
def test_exit_code_nonconvergence_every_command(fcidump_n3, tmp_path, monkeypatch, command):
    # every solve, the first included, stops above its tolerance
    def unconverged(fac, cfg, tol, **kwargs):
        return vqe.VQEResult(np.zeros(1), 0.0, 1.0, False, 0)

    monkeypatch.setattr(vqe, "optimize", unconverged)
    argv = [command, "--fcidump", fcidump_n3]
    if command == "path":
        argv += ["--fcidump-b", fcidump_n3, "--steps", "2"]
    code, payload = _run(argv, tmp_path)
    assert code == 3 and payload["exit_code"] == 3
    assert "error" in payload


def test_exit_code_truncation_boundary(fcidump_n3, tmp_path, monkeypatch):
    def boundary(*args, **kwargs):
        raise verify.TruncationBoundaryError("retained count changed 3 -> 2")

    monkeypatch.setattr(verify, "run_regime_suite", boundary)
    code, payload = _run(["verify", "--fcidump", fcidump_n3], tmp_path)
    assert code == 2
    assert payload["error"] == "retained count changed 3 -> 2"


def test_exit_code_numerical_failure_in_rdm(fcidump_n3, tmp_path, monkeypatch):
    # LinAlgError subclasses ValueError; it is still a numerical failure
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(lagrange, "reconstruct_rdms", singular)
    code, payload = _run(["rdm", "--fcidump", fcidump_n3, "--layers", "2"], tmp_path)
    assert code == 2 and payload["exit_code"] == 2
    assert payload["error"] == "SVD did not converge"


def _fail_on_second_call(monkeypatch, module, name, fail):
    """Let the first call of module.name through, then call ``fail`` instead."""
    original = getattr(module, name)
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs) if len(calls) == 1 else fail(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)


def _path_argv(fcidump):
    return ["path", "--fcidump", fcidump, "--fcidump-b", fcidump, "--steps", "5",
            "--layers", "2"]


def test_exit_code_path_numerical_failure_at_step_1(fcidump_n3, tmp_path, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    _fail_on_second_call(monkeypatch, lagrange, "reconstruct_rdms", singular)
    code, payload = _run(_path_argv(fcidump_n3), tmp_path)
    assert code == 2 and payload["exit_code"] == 2
    assert payload["error"] == ("dynamics aborted at step 1: "
                                "eigenvalues did not converge")


def test_exit_code_path_nonconvergence_at_step_1(fcidump_n3, tmp_path, monkeypatch):
    def unconverged(fac, cfg, tol, **kwargs):
        return vqe.VQEResult(np.zeros(1), 0.0, 1.0, False, 0)

    _fail_on_second_call(monkeypatch, vqe, "optimize", unconverged)
    code, payload = _run(_path_argv(fcidump_n3), tmp_path)
    assert code == 3 and payload["exit_code"] == 3
    assert payload["error"].startswith("dynamics aborted at step 1: VQE did not reach")


def test_byte_identical_reruns(fcidump_n3, tmp_path):
    args = ["rdm", "--fcidump", fcidump_n3, "--layers", "2", "--seed", "4"]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_one_orbital_model(tmp_path):
    # NORB=1, NELEC=2: the ansatz has no parameters, so the reference state is
    # the answer, E = core + 2 h + (00|00) = -1.4
    ham = Hamiltonian(1, 1, 1, 0.5, np.array([[-1.2]]), np.full((1, 1, 1, 1), 0.5))
    path = tmp_path / "n1.fcidump"
    path.write_text(write_fcidump(ham), encoding="ascii")
    code, payload = _run(["vqe", "--fcidump", str(path), "--layers", "2"], tmp_path)
    assert code == 0
    assert payload["converged"] is True and payload["n_iterations"] == 0
    assert abs(payload["energy"] + 1.4) <= 1e-12
    code, payload = _run(["rdm", "--fcidump", str(path), "--layers", "2"], tmp_path)
    assert code == 0
    assert abs(payload["energy"] + 1.4) <= 1e-12
    assert payload["oracle"]["gamma_max_abs_diff"] <= 1e-12
    assert payload["oracle"]["Gamma_max_abs_diff"] <= 1e-12
    code, payload = _run(["vqe", "--fcidump", str(path), "--layers", "0"], tmp_path)
    assert code == 1
    assert payload["error"].startswith("--layers ")
