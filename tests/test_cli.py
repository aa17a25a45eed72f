import json
import os
import string
import subprocess
import sys
import textwrap
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xdfrelax
from xdfrelax import cli, lagrange, verify, vqe
from xdfrelax.hammodel import Hamiltonian, parse_fcidump, synth_hamiltonian, write_fcidump

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


def _refuse_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_factorize_error_is_finite_on_huge_integrals(tmp_path, capsys):
    # squared integrals of 1e200 overflow a plain norm, and inf / inf printed NaN
    ham = synth_hamiltonian(3, 1, 1, 2)
    errors = []
    for factor in (1.0, 1e200):
        path = tmp_path / f"x{factor:g}.fcidump"
        path.write_text(write_fcidump(Hamiltonian(
            3, 1, 1, factor * ham.core_energy, factor * ham.one_body,
            factor * ham.two_body)), encoding="ascii")
        capsys.readouterr()
        assert cli.main(["factorize", "--fcidump", str(path), "--leaves", "2"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
        errors.append(payload["reconstruction_error"])
    assert np.isfinite(errors[1]) and abs(errors[1] - errors[0]) <= 1e-12


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
    real = vqe.solve_task

    def recording(fac, cfg, tol, *rest):
        seen.append(tol)
        return real(fac, cfg, tol, *rest)

    monkeypatch.setattr(vqe, "solve_task", recording)
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


def test_path_drift_is_finite_at_zero_energy(tmp_path, capsys):
    # every integral zero: the initial total energy is exactly 0, so the
    # relative drift has no scale and is reported as the absolute drift
    path = tmp_path / "zero.fcidump"
    path.write_text(" &FCI NORB=2,NELEC=2,MS2=0,\n &END\n  0.0 0 0 0 0\n",
                    encoding="ascii")
    capsys.readouterr()
    assert cli.main(["path", "--fcidump", str(path), "--fcidump-b", str(path),
                     "--steps", "2", "--v0", "0"]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert payload["total"]["data"] == [0.0, 0.0, 0.0]
    assert payload["relative_drift"] == payload["drift"] == 0.0


def test_path_refuses_models_of_different_orbital_counts(fcidump_n3, fcidump_n4, tmp_path):
    # the compatibility check runs before the models are subtracted
    code, payload = _run(["path", "--fcidump", fcidump_n4, "--fcidump-b", fcidump_n3,
                          "--steps", "2"], tmp_path)
    assert code == 1 and payload["exit_code"] == 1
    assert payload["error"] == "Hamiltonians differ in orbital count"


def test_threshold_with_leaves_is_an_input_error(fcidump_n3, tmp_path):
    code, payload = _run(["rdm", "--fcidump", fcidump_n3, "--threshold", "0.1",
                          "--leaves", "2"], tmp_path)
    assert code == 1 and payload["exit_code"] == 1
    assert payload["error"] == "--threshold and --leaves are mutually exclusive"


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
    # a negative seed: each command factorized first, then failed in numpy
    (["vqe", "--seed", "-1"], "--seed"),
    (["rdm", "--seed", "-1"], "--seed"),
    (["verify", "--seed", "-1"], "--seed"),
    (["path", "--steps", "2", "--seed", "-1"], "--seed"),
])
def test_exit_code_bad_flag_value(fcidump_n3, tmp_path, argv, flag):
    if argv[0] == "path":
        argv = argv + ["--fcidump-b", fcidump_n3]
    code, payload = _run(argv + ["--fcidump", fcidump_n3], tmp_path)
    assert code == 1
    assert payload["error"].startswith(flag + " ")


def test_negative_exponent_flag_value(fcidump_n3, tmp_path):
    # -5e-2 is a value, as -0.05 is, not an unknown flag
    argv = ["path", "--fcidump", fcidump_n3, "--fcidump-b", fcidump_n3, "--steps", "1",
            "--layers", "1", "--v0"]
    for value in ("-5e-2", "-0.05"):
        assert cli.main(argv + [value, "--out", str(tmp_path / f"{value}.json")]) == 0
    assert (tmp_path / "-5e-2.json").read_bytes() == (tmp_path / "-0.05.json").read_bytes()


@pytest.mark.parametrize("argv,flag", [
    (["path", "--fcidump-b", "b"], "--v0"), (["path", "--fcidump-b", "b"], "--s0"),
    (["path", "--fcidump-b", "b"], "--dt"), (["rdm"], "--threshold"),
])
def test_negative_numbers_parse_in_every_spelling(argv, flag):
    parser = cli.build_parser()
    parsed = {getattr(parser.parse_args([*argv, "--fcidump", "a", flag, value]),
                      flag.lstrip("-"))
              for value in ("-5e-2", "-5E-2", "-0.05", "-.05", "-0.5e-1")}
    assert parsed == {-0.05}


VALID_FCIDUMP = write_fcidump(synth_hamiltonian(2, 1, 1, 7))


@st.composite
def mutated_fcidumps(draw):
    """A valid FCIDUMP with one to four characters replaced, inserted or
    deleted."""
    text = VALID_FCIDUMP
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text) - 1))
        char = draw(st.sampled_from(string.printable))
        kind = draw(st.sampled_from(("replace", "insert", "delete")))
        tail = text[at:] if kind == "insert" else text[at + 1:]
        text = text[:at] + ("" if kind == "delete" else char) + tail
    return text


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(mutated_fcidumps())
def test_mutated_fcidump_is_an_input_error_or_parses(tmp_path_factory, text):
    try:
        parse_fcidump(text)
    except ValueError:
        pass
    path = tmp_path_factory.mktemp("fuzz") / "mutated.fcidump"
    path.write_text(text, encoding="ascii")
    out = path.with_suffix(".json")
    assert cli.main(["factorize", "--fcidump", str(path), "--out", str(out)]) in (0, 1)


def test_exit_code_nonconvergence(fcidump_n3, tmp_path):
    # zero optimizer iterations leaves the random start non-stationary; the
    # warning names the CLI's call of ``vqe.optimize``
    with pytest.warns(UserWarning, match="optimizer stalled") as caught:
        code, payload = _run(["vqe", "--fcidump", fcidump_n3, "--layers", "2",
                              "--tol", "1e-9", "--maxiter", "0", "--seed", "0"], tmp_path)
    assert [warning.filename for warning in caught] == [cli.__file__]
    assert code == 3
    assert "error" in payload


def _unconverged(*request):
    """``vqe.solve_task`` with every solve stopped above its tolerance."""
    yield from ()
    return vqe.VQEResult(np.zeros(1), 0.0, 1.0, False, 0)


@pytest.mark.parametrize("command", ["vqe", "verify", "path"])
def test_exit_code_nonconvergence_every_command(fcidump_n3, tmp_path, monkeypatch, command):
    # every solve, the first included, stops above its tolerance; the vqe
    # command's solve is an ``optimize`` call, which warns
    monkeypatch.setattr(vqe, "solve_task", _unconverged)
    argv = [command, "--fcidump", fcidump_n3]
    if command == "path":
        argv += ["--fcidump-b", fcidump_n3, "--steps", "2"]
    with pytest.warns(UserWarning, match="optimizer stalled") if command == "vqe" else nullcontext():
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
    _fail_on_second_call(monkeypatch, vqe, "solve_task", _unconverged)
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


def test_parser_built_once_leaves_nothing_stale(fcidump_n3, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    plain = ["rdm", "--fcidump", fcidump_n3, "--layers", "2", "--seed", "4"]
    code, ablated = _run(plain + ["--ablate", "nu"], tmp_path, "ablated.json")
    assert code == 0 and ablated["ablated"] == ablated["config"]["ablate"] == "nu"
    code, after = _run(plain, tmp_path, "after.json")
    assert code == 0 and after["ablated"] is after["config"]["ablate"] is None
    cli.build_parser.cache_clear()
    assert cli.main(plain + ["--out", str(tmp_path / "fresh.json")]) == 0
    assert (tmp_path / "after.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()


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


def _package_env():
    """The environment with this package's source first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(xdfrelax.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point(fcidump_n3):
    done = subprocess.run([sys.executable, "-m", "xdfrelax", "factorize",
                           "--fcidump", fcidump_n3, "--leaves", "2"],
                          env=_package_env(), capture_output=True, text=True, timeout=300)
    assert done.returncode == 0 and done.stderr == ""
    payload = json.loads(done.stdout, parse_constant=_refuse_constant)
    assert payload["exit_code"] == 0 and payload["retained"] == 2


def test_cli_module_runs_without_a_warning(fcidump_n3):
    # the package does not import cli, so ``python -m xdfrelax.cli`` finds no
    # copy of it loaded before it runs, and prints nothing on stderr
    done = subprocess.run([sys.executable, "-m", "xdfrelax.cli", "factorize",
                           "--fcidump", fcidump_n3, "--leaves", "2"],
                          env=_package_env(), capture_output=True, text=True, timeout=300)
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(done.stdout, parse_constant=_refuse_constant)["exit_code"] == 0


SCIPY_PROBE = textwrap.dedent("""
    import json
    import sys
    from pathlib import Path

    from xdfrelax import cli
    from xdfrelax.hammodel import synth_hamiltonian, write_fcidump


    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


    loaded = {"import": scipy_modules()}
    work = Path(sys.argv[1])
    a, b = work / "a.fcidump", work / "b.fcidump"
    a.write_text(write_fcidump(synth_hamiltonian(3, 1, 1, 2)), encoding="ascii")
    b.write_text(write_fcidump(synth_hamiltonian(3, 1, 1, 8)), encoding="ascii")
    commands = {
        "rdm": ["--layers", "1"],
        "verify": ["--layers", "1", "--layers-small", "1", "--leaves", "2",
                   "--perturbations", "1"],
        "path": ["--fcidump-b", str(b), "--layers", "3", "--tol", "1e-8", "--steps", "2"],
    }
    for command, options in commands.items():
        out = work / f"{command}.json"
        code = cli.main([command, "--fcidump", str(a), *options, "--out", str(out)])
        loaded[command] = scipy_modules() if code == 0 else f"exit code {code}"
    print(json.dumps(loaded))
""")


def test_commands_run_without_scipy(tmp_path):
    # a fresh interpreter, as every command starts: importing scipy.optimize
    # would cost each command about half a second
    done = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(tmp_path)],
                          env=_package_env(), capture_output=True, text=True, timeout=300,
                          check=True)
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded == {"import": [], "rdm": [], "verify": [], "path": []}
