"""Smoke tests for the command-line scripts under scripts/, run in-process."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestOracleSweep:
    def test_one_alpha(self, capsys):
        sweep = load_script("oracle_sweep")
        assert sweep.main(["--alphas", "0.5", "--n-max", "1"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header.split()[0] == "alpha"
        fields = row.split()
        assert float(fields[0]) == 0.5
        assert float(fields[2]) < 1e-4  # shooting error
        assert float(fields[3]) < 5e-3  # finite-difference error
        assert int(fields[-1]) == sweep.shoot_spectrum(0.5, 1).steps  # over both passes

    @pytest.mark.parametrize("alpha, code", [("-0.25", 2), ("nan", 1)])
    def test_inadmissible_alpha_exit_code(self, alpha, code, capsys):
        # the singosc CLI's codes: 2 for supercritical alpha, 1 otherwise,
        # with one error line and no traceback
        sweep = load_script("oracle_sweep")
        with pytest.raises(SystemExit) as exc:
            sweep.main(["--alphas", alpha])
        assert exc.value.code == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and ": error: alpha" in err

    def test_negative_level_count_exit_code(self, capsys):
        sweep = load_script("oracle_sweep")
        with pytest.raises(SystemExit) as exc:
            sweep.main(["--n-max", "-1"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and ": error: quantum number n" in err

    def test_scipy_loaded_before_the_timed_loop(self):
        # an import inside the first `fd s` timing would charge it to one
        # alpha; a fresh interpreter shows which calls start with it loaded
        path = str(SCRIPTS / "oracle_sweep.py")
        probe = (
            "import importlib.util, sys\n"
            f"spec = importlib.util.spec_from_file_location('sweep', {path!r})\n"
            "sweep = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(sweep)\n"
            "seen, fd = [], sweep.fd_eigen\n"
            "sweep.fd_eigen = lambda *a: seen.append('scipy.linalg' in sys.modules) or fd(*a)\n"
            "sweep.main(['--alphas', '0.5', '2.0', '--n-max', '0'])\n"
            "print(seen)\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[True, True]"

