"""Config loading and command-line round-trip tests on small problems."""

import time
from pathlib import Path

import numpy as np
import pytest

from infxlap import cli
from infxlap import config as cfgio
from infxlap.cli import main
from infxlap.grid import build_grid, riemannian_distance
from infxlap.operators import max_form_residual

BASE = """\
[domain]
xmin = 0.0
xmax = 1.0
ymin = 0.0
ymax = 1.0
nx = {n}
ny = {n}

[frame]
a11 = 1
a12 = 0
a21 = 0
a22 = 1

[exponent]
p = 2

[boundary]
f = {f}
"""


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, n=9, f="x", extra=""):
    path = tmp_path / "problem.ini"
    path.write_text(BASE.format(n=n, f=f) + extra)
    return str(path)


class TestConfigLoading:
    def test_minimal_valid(self, tmp_path):
        spec = cfgio.load_problem(write_config(tmp_path))
        assert spec.grid.shape == (9, 9)
        assert spec.epsilon == 0.0
        assert np.all(spec.p == 2.0)
        X, _ = spec.grid.meshgrid()
        assert np.array_equal(spec.f, X)

    def test_missing_file(self, tmp_path):
        with pytest.raises(cfgio.ConfigError):
            cfgio.load_problem(tmp_path / "absent.ini")

    def test_missing_boundary_named(self, tmp_path):
        path = tmp_path / "p.ini"
        text = BASE.format(n=9, f="x")
        text = text[: text.index("[boundary]")]
        path.write_text(text)
        with pytest.raises(cfgio.ConfigError, match="boundary.f"):
            cfgio.load_problem(path)

    def test_small_exponent_rejected(self, tmp_path):
        path = write_config(tmp_path)
        text = Path(path).read_text().replace("p = 2", "p = 1")
        Path(path).write_text(text)
        with pytest.raises(cfgio.ConfigError, match="p_min"):
            cfgio.load_problem(path)

    def test_bad_expression_named(self, tmp_path):
        path = write_config(tmp_path, f="x +")
        with pytest.raises(cfgio.ConfigError, match="boundary.f"):
            cfgio.load_problem(path)

    def test_domain_error_names_key_and_node(self, tmp_path):
        path = write_config(tmp_path, f="log(0.5 - x)")
        with pytest.raises(cfgio.ConfigError) as exc:
            cfgio.load_problem(path)
        msg = str(exc.value)
        assert msg.startswith("boundary.f not evaluable: log of nonpositive")
        assert "at node (i=4, j=0), (x=0.5, y=0)" in msg

    def test_frame_domain_error_is_a_config_error(self, tmp_path):
        path = write_config(tmp_path)
        text = Path(path).read_text().replace("a22 = 1",
                                              "a22 = sqrt(y - 0.5)")
        Path(path).write_text(text)
        with pytest.raises(cfgio.ConfigError,
                           match=r"frame not evaluable: sqrt of negative "
                                 r".* at node \(i=0, j=0\)"):
            cfgio.load_problem(path)

    def test_singular_frame_is_a_config_error(self, tmp_path, capsys):
        # configs/variable_frame.ini at 9^2 with a11 = x: det A = 0 on x = 0
        text = (CONFIGS / "variable_frame.ini").read_text()
        path = tmp_path / "singular.ini"
        path.write_text(text.replace("= 65", "= 9").replace("a11 = 1",
                                                             "a11 = x"))
        with pytest.raises(cfgio.ConfigError,
                           match=r"\[frame\].* at node \(i=0, j=0\)"):
            cfgio.load_problem(path)
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", str(path),
                  "--out", str(tmp_path / "u.csv")])
        assert exc.value.code == 2
        assert "[frame]" in capsys.readouterr().err

    def test_jensen_and_solver_sections(self, tmp_path):
        extra = "\n[jensen]\nepsilon = 1.0\n\n[solver]\nk_schedule = 2, 4\n"
        spec = cfgio.load_problem(write_config(tmp_path, extra=extra))
        assert spec.epsilon == 1.0
        assert spec.config.k_schedule == (2.0, 4.0)

    def test_unknown_solver_key(self, tmp_path):
        extra = "\n[solver]\nturbo = yes\n"
        with pytest.raises(cfgio.ConfigError, match="solver.turbo"):
            cfgio.load_problem(write_config(tmp_path, extra=extra))

    @pytest.mark.parametrize("f, extra, named", [
        ("x", "\n[jensen]\nepsilonn = 1.0\n", r"jensen\.epsilonn"),
        ("x", "\n[solverr]\nk_schedule = 2, 4\n", r"\[solverr\]"),
        ("x\ng = y", "", r"boundary\.g"),
    ], ids=["jensen-key", "section", "boundary-key"])
    def test_unknown_name_rejected_in_any_section(self, tmp_path, f, extra,
                                                  named):
        # a misspelt name would load with its default: "epsilonn" would
        # pose the Dirichlet problem in place of the auxiliary equation
        with pytest.raises(cfgio.ConfigError, match=named):
            cfgio.load_problem(write_config(tmp_path, f=f, extra=extra))

    @pytest.mark.parametrize("line, bad, named", [
        ("nx = 9", "nx = 3", r"^bad domain: need nx, ny >= 4"),
        ("xmax = 1.0", "xmax = one", r"^bad domain: could not convert"),
        ("ymax = 1.0", "ymax = 0.0", r"^bad domain: nonpositive"),
    ], ids=["small", "text", "empty"])
    def test_bad_domain_named(self, tmp_path, line, bad, named):
        path = Path(write_config(tmp_path))
        path.write_text(path.read_text().replace(line, bad))
        with pytest.raises(cfgio.ConfigError, match=named):
            cfgio.load_problem(path)

    @pytest.mark.parametrize("extra, named", [
        ("\n[solver]\nk_schedule = 2, four\n", "solver.k_schedule"),
        ("\n[solver]\npolish_sweeps = 2.5\n", "solver.polish_sweeps"),
        ("\n[jensen]\nepsilon = small\n", "jensen.epsilon"),
    ], ids=["k_schedule", "polish_sweeps", "epsilon"])
    def test_unparsable_value_named(self, tmp_path, extra, named):
        with pytest.raises(cfgio.ConfigError,
                           match=rf"^bad value for {named}: "):
            cfgio.load_problem(write_config(tmp_path, extra=extra))

    @pytest.mark.parametrize("schedule", ["0", "-2, 2", "nan", "inf",
                                          "1, 1e400", "0.5, 1"])
    def test_k_schedule_outside_the_energy_named(self, tmp_path, capsys,
                                                 schedule):
        # kp must stay finite and at least p: the solve would otherwise
        # fail later, as "no descent direction", or run at kp below p
        path = write_config(tmp_path,
                            extra=f"\n[solver]\nk_schedule = {schedule}\n")
        with pytest.raises(cfgio.ConfigError,
                           match=r"^bad solver config: solver\.k_schedule "):
            cfgio.load_problem(path)
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", path, "--out", str(tmp_path / "u.csv")])
        assert exc.value.code == 2
        assert "solver.k_schedule" in capsys.readouterr().err

    def test_negative_polish_cap_named(self, tmp_path):
        extra = "\n[solver]\npolish_sweeps = -3\n"
        with pytest.raises(cfgio.ConfigError, match="solver.polish_sweeps"):
            cfgio.load_problem(write_config(tmp_path, extra=extra))

    @pytest.mark.parametrize("key", ["damping", "picard_tol",
                                     "picard_max_iter", "cg_tol",
                                     "cg_max_iter", "delta_reg", "p_min",
                                     "det_floor", "continuation_tol"])
    def test_removed_solver_key(self, tmp_path, key):
        # settings of the lagged-coefficient warm-up and the CG solve,
        # which Newton replaced, and fixed constants no problem set
        path = write_config(tmp_path, extra=f"\n[solver]\n{key} = 1\n")
        with pytest.raises(cfgio.ConfigError, match=f"solver.{key}"):
            cfgio.load_problem(path)
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", path, "--out", str(tmp_path / "u.csv")])
        assert exc.value.code == 2


class TestFieldCsv:
    def test_roundtrip_bitwise(self, tmp_path):
        g = build_grid(0.0, 1.0, 0.0, 1.0, 7, 5)
        rng = np.random.default_rng(0)
        field = rng.normal(size=g.shape)
        path = tmp_path / "field.csv"
        cfgio.export_field(field, g, path)
        back = cfgio.import_field(path, g)
        assert np.array_equal(field, back)

    def test_bytes_match_row_by_row_writer(self, tmp_path):
        """The file is the one a row-by-row writer of 17-digit values
        gives, signed zeros and extreme exponents included."""
        g = build_grid(-0.3, 1.7, 0.1, 2.0, 9, 7)
        rng = np.random.default_rng(3)
        field = rng.normal(size=g.shape) * 10.0 ** rng.integers(-300, 300,
                                                                size=g.shape)
        field[0, 0], field[1, 1] = -0.0, 5e-324
        path = tmp_path / "field.csv"
        cfgio.export_field(field, g, path)
        xs, ys = g.xs, g.ys
        expected = "x,y,value\n" + "".join(
            f"{xs[i]:.17g},{ys[j]:.17g},{field[j, i]:.17g}\n"
            for j in range(g.ny) for i in range(g.nx))
        assert path.read_bytes() == expected.encode()
        back = cfgio.import_field(path, g)
        assert np.array_equal(back.view(np.int64), field.view(np.int64))

    def test_header_and_first_row(self, tmp_path):
        g = build_grid(0.25, 1.0, 0.5, 1.25, 4, 4)
        path = tmp_path / "field.csv"
        cfgio.export_field(np.zeros(g.shape), g, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,value"
        assert lines[1].startswith("0.25,0.5,")
        assert len(lines) == 1 + g.n_nodes

    def test_shape_mismatch(self, tmp_path):
        g = build_grid(0.0, 1.0, 0.0, 1.0, 5, 5)
        with pytest.raises(ValueError):
            cfgio.export_field(np.zeros((4, 4)), g, tmp_path / "x.csv")

    @pytest.mark.parametrize("bounds, nx, ny", [
        ((0.0, 1.0, 0.0, 1.0), 5, 9), ((0.0, 2.0, 0.0, 1.0), 9, 5)],
        ids=["transposed", "other-domain"])
    def test_import_on_another_layout_named(self, tmp_path, bounds, nx, ny):
        # a 9 x 5 export has the row count of both grids; its second row,
        # at x = 0.125, is the first off their nodes
        path = tmp_path / "field.csv"
        cfgio.export_field(np.zeros((5, 9)),
                           build_grid(0.0, 1.0, 0.0, 1.0, 9, 5), path)
        with pytest.raises(ValueError, match=r"data row 2 .*\(0\.125, 0\.0\)"):
            cfgio.import_field(path, build_grid(*bounds, nx, ny))

    def test_import_wrong_size(self, tmp_path):
        g = build_grid(0.0, 1.0, 0.0, 1.0, 5, 5)
        path = tmp_path / "short.csv"
        path.write_text("x,y,value\n0,0,1\n")
        with pytest.raises(ValueError):
            cfgio.import_field(path, g)


class TestCliSolve:
    def test_solve_writes_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, f="x")
        out = tmp_path / "u.csv"
        rc = main(["solve", "--config", cfg, "--out", str(out)])
        assert rc == 0
        assert "wall_time" in capsys.readouterr().out
        g = build_grid(0.0, 1.0, 0.0, 1.0, 9, 9)
        u = cfgio.import_field(out, g)
        X, _ = g.meshgrid()
        assert np.max(np.abs(u - X)) < 1e-6

    def test_epsilon_override_switches_solver(self, tmp_path):
        cfg = write_config(tmp_path, f="x")
        out = tmp_path / "u.csv"
        rc = main(["solve", "--config", cfg, "--out", str(out),
                   "--epsilon", "1.0"])
        assert rc == 0

    def test_k_max_excluding_everything(self, tmp_path):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", cfg, "--out", str(tmp_path / "u.csv"),
                  "--k-max", "1.0"])
        assert exc.value.code == 2

    def test_bad_config_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, f="log(x - 5)")  # not evaluable
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", cfg, "--out", str(tmp_path / "u.csv")])
        assert exc.value.code == 2

    def test_unknown_subcommand_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["solve", "--out", "u.csv"],
                                      ["verify", "--suite", "comparison"]],
                             ids=["solve", "verify-comparison"])
    def test_load_overflow_names_k_and_node(self, tmp_path, monkeypatch,
                                            capsys, argv):
        # eps^(kp-1) at eps = 1e200 overflows at the first k on every node
        monkeypatch.chdir(tmp_path)
        Path("overflow.ini").write_text((CONFIGS / "aronsson.ini").read_text()
                                        + "\n[jensen]\nepsilon = 1e200\n")
        assert main(argv + ["--config", "overflow.ini"]) == 1
        err = capsys.readouterr().err
        assert "right-hand side overflows" in err
        assert "k=2, node (i=0, j=0)" in err

    def test_report_k_max_truncates_the_schedule(self, tmp_path, capsys):
        cfg = write_config(tmp_path, f="x^2 + y")
        assert main(["report", "--config", cfg, "--k-max", "8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        ks = [ln.split()[0] for ln in lines if ln.startswith("  k=")]
        assert ks == ["k=2", "k=4", "k=8"]


class TestCliResidualDistance:
    def test_residual_roundtrip(self, tmp_path):
        cfg = write_config(tmp_path, f="x")
        ucsv = tmp_path / "u.csv"
        assert main(["solve", "--config", cfg, "--out", str(ucsv)]) == 0
        rcsv = tmp_path / "res.csv"
        mincsv = tmp_path / "min.csv"
        rc = main(["residual", "--config", cfg, "--in", str(ucsv),
                   "--out", str(rcsv), "--min-form-out", str(mincsv)])
        assert rc == 0
        g = build_grid(0.0, 1.0, 0.0, 1.0, 9, 9)
        res = cfgio.import_field(rcsv, g)
        # the plane solution is exactly infinity-harmonic
        assert np.max(np.abs(res)) < 1e-6
        assert mincsv.exists()

    def test_distance_field(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "d.csv"
        assert main(["distance", "--config", cfg, "--source", "0,0",
                     "--out", str(out)]) == 0
        g = build_grid(0.0, 1.0, 0.0, 1.0, 9, 9)
        d = cfgio.import_field(out, g)
        assert d[0, 0] == 0.0
        assert d[0, -1] == pytest.approx(1.0)

    def test_distance_bad_source(self, tmp_path):
        cfg = write_config(tmp_path)
        rc = main(["distance", "--config", cfg, "--source", "zero",
                   "--out", str(tmp_path / "d.csv")])
        assert rc == 2

    def test_distance_source_off_the_grid_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(["distance", "--config", cfg, "--source", "999,0",
                   "--out", str(tmp_path / "d.csv")])
        assert rc == 2
        assert "source node (999, 0)" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("case", ["missing", "rows", "grid"])
    def test_residual_bad_input_exit_2(self, tmp_path, capsys, case):
        # a missing file, a CSV with the wrong row count and a field
        # written on another grid are input errors, not solver failures
        cfg = write_config(tmp_path)
        ucsv = tmp_path / "u.csv"
        if case == "rows":
            ucsv.write_text("x,y,value\n0,0,1\n")
        elif case == "grid":
            g = build_grid(0.0, 2.0, 0.0, 1.0, 9, 9)
            cfgio.export_field(np.zeros(g.shape), g, ucsv)
        rc = main(["residual", "--config", cfg, "--in", str(ucsv),
                   "--out", str(tmp_path / "res.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert {"missing": "not found", "rows": "expected 81 data rows",
                "grid": "not at the grid node"}[case] in err
        assert not (tmp_path / "res.csv").exists()

    def test_max_form_residual_at_unit_eps(self, tmp_path):
        # at eps = 0 the max form is evaluated with eps = 1
        cfg = write_config(tmp_path)
        spec = cfgio.load_problem(cfg)
        X, Y = spec.grid.meshgrid()
        u = X ** 2 + Y
        ucsv, maxcsv = tmp_path / "u.csv", tmp_path / "max.csv"
        cfgio.export_field(u, spec.grid, ucsv)
        assert main(["residual", "--config", cfg, "--in", str(ucsv),
                     "--out", str(tmp_path / "res.csv"),
                     "--max-form-out", str(maxcsv)]) == 0
        ref = max_form_residual(u, spec.frame, spec.p, 1.0)
        assert np.array_equal(cfgio.import_field(maxcsv, spec.grid), ref)


class TestCliVerify:
    def test_eikonal_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n=17)
        rc = main(["verify", "--config", cfg, "--suite", "eikonal"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_comparison_passes(self, tmp_path):
        cfg = write_config(tmp_path, f="x/2 + y/4")
        assert main(["verify", "--config", cfg, "--suite", "comparison"]) == 0

    def test_uniqueness_passes(self, tmp_path):
        cfg = write_config(tmp_path, f="x/2 + y/4")
        assert main(["verify", "--config", cfg, "--suite", "uniqueness"]) == 0

    def test_harnack_inapplicable_on_signed_data(self, tmp_path, capsys):
        cfg = write_config(tmp_path, f="x - 1")  # boundary min is negative
        rc = main(["verify", "--config", cfg, "--suite", "harnack"])
        assert rc == 1
        assert "INAPPLICABLE" in capsys.readouterr().out

    def test_harnack_passes_on_positive_data(self, tmp_path):
        cfg = write_config(tmp_path, n=17, f="1 + x/4 + y/4")
        assert main(["verify", "--config", cfg, "--suite", "harnack"]) == 0

    # at frame scale 3, some drawn balls of radius 2r reach the boundary
    @pytest.mark.parametrize("scale", [1, 3])
    def test_harnack_report_is_the_unbounded_searchs(self, tmp_path,
                                                      monkeypatch, scale):
        # harnack_constant reads dist only up to 2r, so each ball's search
        # stops there; searching the whole grid gives the same report
        cfg = Path(write_config(tmp_path, n=17, f="1 + x/4 + y/4"))
        text = cfg.read_text().replace("a11 = 1", f"a11 = {scale}")
        cfg.write_text(text.replace("a22 = 1", f"a22 = {scale}"))
        spec = cfgio.load_problem(str(cfg))
        limits = []

        def unbounded(frame, grid, source, limit=np.inf):
            limits.append(limit)
            return riemannian_distance(frame, grid, source)

        bounded = cli._verify_harnack(spec).format()
        monkeypatch.setattr(cli, "riemannian_distance", unbounded)
        assert cli._verify_harnack(spec).format() == bounded
        assert limits and all(np.isfinite(limits))

    def test_harnack_inapplicable_when_no_ball_fits(self, tmp_path, capsys,
                                                    graph_builds):
        # a frame of 10 I shrinks distances tenfold: every drawn radius-2r
        # ball reaches the boundary
        cfg = Path(write_config(tmp_path, n=17, f="1 + x/4 + y/2"))
        text = cfg.read_text().replace("a11 = 1", "a11 = 10")
        cfg.write_text(text.replace("a22 = 1", "a22 = 10"))
        t0 = time.perf_counter()
        rc = main(["verify", "--config", str(cfg), "--suite", "harnack"])
        assert time.perf_counter() - t0 < 20.0
        assert rc == 1
        out = capsys.readouterr().out
        assert "INAPPLICABLE" in out and "radius 2r" in out
        # the 100 drawn balls' distance fields share one frame's graph
        assert len(graph_builds) == 1

    def test_lemma41_passes_on_positive_data(self, tmp_path):
        cfg = write_config(tmp_path, f="1 + x/4 + y/4")
        assert main(["verify", "--config", cfg, "--suite", "lemma41"]) == 0

    def test_lemma41_inapplicable_on_a_nonpositive_solution(self, tmp_path,
                                                            capsys):
        cfg = write_config(tmp_path, f="x - 1/2")
        assert main(["verify", "--config", cfg, "--suite", "lemma41"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("log-gradient bound: INAPPLICABLE")
        assert "worst value = -5.000000e-01" in out
        assert "reason = solution not positive" in out

    def test_report_subcommand(self, tmp_path, capsys):
        cfg = write_config(tmp_path, f="x")
        assert main(["report", "--config", cfg]) == 0
        assert "k=" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["aronsson", "variable_frame", "jensen_min"])
def test_shipped_configs_load_and_verify(name):
    """Every shipped problem file loads and passes the cheap suite."""
    path = CONFIGS / f"{name}.ini"
    t0 = time.perf_counter()
    spec = cfgio.load_problem(path)
    assert spec.grid.n_nodes == 65 * 65
    rc = main(["verify", "--config", str(path), "--suite", "eikonal"])
    assert rc == 0
    assert time.perf_counter() - t0 < 120.0
