"""Smoke tests for the command-line scripts under scripts/, run in-process."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

from singosc.cli import main as cli_main

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


class TestEmitFigures:
    def test_files_equal_figure_command_output(self, tmp_path, capsys):
        emit = load_script("emit_figures")
        assert emit.main(["--alpha-points", "5", "--outdir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {tmp_path / f'figure{k}.csv'}" for k in (1, 2, 3, 4)
        ]
        for k in (1, 2, 3, 4):
            sweep = ["--alpha-points", "5"] if k in (2, 4) else []
            assert cli_main(["figure", str(k), *sweep]) == 0
            want = capsys.readouterr().out.encode("utf-8")
            assert (tmp_path / f"figure{k}.csv").read_bytes() == want

    def test_default_sweep_is_the_cli_default(self, tmp_path, capsys):
        # with no --alpha-points, figures 2 and 4 sweep as `singosc figure` does
        emit = load_script("emit_figures")
        assert emit.main(["--outdir", str(tmp_path)]) == 0
        capsys.readouterr()
        for k in (2, 4):
            assert cli_main(["figure", str(k)]) == 0
            want = capsys.readouterr().out.encode("utf-8")
            assert (tmp_path / f"figure{k}.csv").read_bytes() == want

    @pytest.mark.parametrize("points", ["-1", "100001"])
    def test_bad_point_count_writes_no_file(self, points, tmp_path):
        # figure 1 takes no sweep, so only a check before it keeps its file out
        emit = load_script("emit_figures")
        with pytest.raises(SystemExit) as exc:
            emit.main(["--alpha-points", points, "--outdir", str(tmp_path / "out")])
        assert exc.value.code == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("under", [False, True])
    def test_outdir_naming_a_file_is_one_error_line(self, under, tmp_path, capsys):
        # an existing file, or a path under one, cannot be made a directory
        (tmp_path / "taken").write_text("")
        outdir = tmp_path / "taken" / "sub" if under else tmp_path / "taken"
        emit = load_script("emit_figures")
        with pytest.raises(SystemExit) as exc:
            emit.main(["--alpha-points", "5", "--outdir", str(outdir)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f": error: cannot create --outdir {outdir}: " in err
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert (tmp_path / "taken").read_text() == ""
