import json

import pytest

from padiclog.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_halflog_command(capsys):
    code, out = run_cli(capsys, "halflog", "--p", "3", "--m", "1",
                        "--sign", "plus", "--level", "3", "--prec", "12")
    assert code == 0
    assert out["vanishes_at_order_p2"] is True
    assert out["var"] == "X"


def test_logmatrix_and_det_check(capsys):
    code, out = run_cli(capsys, "logmatrix", "--p", "3", "--k", "0",
                        "--level", "2", "--prec", "10")
    assert code == 0
    assert out["dim"] == 2
    # diagonal entries are zero
    assert all(c == "0" for c in out["entries"][0][0]["coeffs"])
    code, rep = run_cli(capsys, "check", "--suite", "det-identity")
    assert code == 0
    assert rep["pass"] is True


def test_theta_command(capsys):
    code, out = run_cli(capsys, "theta", "--disc", "-4", "--power", "4",
                        "--nmax", "50")
    assert code == 0
    coeffs = out["coeffs"]
    assert coeffs[0] == 1
    assert coeffs[1] == -4
    assert coeffs[4] == -14


def test_eis_command(capsys):
    code, out = run_cli(capsys, "eis", "--k", "3", "--root-order", "8",
                        "--p", "5", "--nmax", "10")
    assert code == 0
    assert out["ring"] == "cyclotomic:8"
    assert out["coeffs"][4] == [0, 0, 0, 0]


def test_deplete_command(tmp_path, capsys):
    blob = {"ring": "int", "nmax": 9, "coeffs": [1] * 9}
    path = tmp_path / "q.json"
    path.write_text(json.dumps(blob))
    code, out = run_cli(capsys, "deplete", str(path), "--p", "3")
    assert code == 0
    assert out["coeffs"] == [1, 1, 0, 1, 1, 0, 1, 1, 0]


def test_galimg_command(tmp_path, capsys):
    spec = {"p": 5, "gens": [[[1, 1], [0, 1]], [[0, 1], [4, 0]]]}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(capsys, "galimg", str(path))
    assert code == 0
    assert out["order"] == 120


def test_regdiv_command(tmp_path, capsys):
    f = {"nvars": 2, "deg_cap": 6, "p": 5, "prec": 10,
         "coeffs": {"0,0": "1", "1,0": "1"}}
    g = {"nvars": 2, "deg_cap": 6, "p": 5, "prec": 10,
         "coeffs": {"0,0": "1", "1,0": "2", "2,0": "1"}}
    spec = {"p": 5, "prec": 10, "F": f, "G": g, "points": [5, 10, 15]}
    path = tmp_path / "d.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(capsys, "regdiv", str(path))
    assert code == 0
    assert out["points_ok"] is True
    assert out["direct_ok"] is True


def test_check_failing_exit_code(tmp_path, capsys):
    # unknown suite -> usage error
    code = main(["check", "--suite", "nope"])
    assert code == 2


def test_deterministic_output(capsys):
    code1, out1 = run_cli(capsys, "halflog", "--p", "3", "--m", "1",
                          "--sign", "minus", "--level", "2")
    code2, out2 = run_cli(capsys, "halflog", "--p", "3", "--m", "1",
                          "--sign", "minus", "--level", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["theta", "--disc", "-4", "--power", "4", "--nmax", "10",
                 "--out", str(target)])
    assert code == 0
    data = json.loads(target.read_text())
    assert data["coeffs"][1] == -4


def test_split_command(tmp_path, capsys):
    from padiclog.logmat import CrystalParams, log_matrix_ap0, qinv_times
    from padiclog.iwadist import IwaSeries
    from padiclog.split import SignedPair, forward
    pr = CrystalParams.ap_zero(3, 10, 0)
    qm = qinv_times(pr, log_matrix_ap0(pr, 2))
    pair = SignedPair(IwaSeries(pr.ctx, [1, 2, 3], None, None, 9),
                      IwaSeries(pr.ctx, [4, 5], None, None, 9), 2)
    ab = forward(pair, qm)
    spec = {"p": 3, "prec": 10, "k": 0, "level": 2,
            "alpha": ab.alpha_comp.to_json(), "beta": ab.beta_comp.to_json(),
            "denom_exp": 0}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(capsys, "split", str(path))
    assert code == 0
    plus = [int(c) for c in out["plus"]["coeffs"]]
    assert plus[:3] == [1, 2, 3] and not any(plus[3:])


def test_eval_command(tmp_path, capsys):
    from padiclog.iwadist import omega
    from padiclog.padic import PrimeCtx
    ctx = PrimeCtx(3, 10)
    w = omega(ctx, 2, 12)
    spec = {"p": 3, "prec": 10, "series": w.to_json(), "point": {"t": 2, "j": 0}}
    path = tmp_path / "e.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(capsys, "eval", str(path))
    assert code == 0
    assert out["is_zero"] is True
    spec["point"] = {"t": 2, "j": 1}
    path.write_text(json.dumps(spec))
    code, out = run_cli(capsys, "eval", str(path))
    assert code == 0
    assert out["is_zero"] is False


def test_unbounded_split_exits_2(tmp_path, capsys):
    from padiclog.iwadist import IwaSeries
    from padiclog.padic import PrimeCtx
    ctx = PrimeCtx(3, 10)
    spec = {"p": 3, "prec": 10, "k": 0, "level": 2,
            "alpha": IwaSeries.const(ctx, 1, 4).to_json(),
            "beta": IwaSeries.zero(ctx, 4).to_json(), "denom_exp": 0}
    path = tmp_path / "u.json"
    path.write_text(json.dumps(spec))
    code = main(["split", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_logmatrix_level_beyond_budget_exits_2(capsys):
    code = main(["logmatrix", "--p", "3", "--k", "0", "--level", "9"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "level 9" in captured.err


def test_main_reuses_one_parser(tmp_path, capsys):
    # one process, switching subcommands and flags, with a parse error in
    # between: every call must match a call on a freshly built parser
    from padiclog.cli import build_parser
    target = tmp_path / "m.json"
    calls = [["logmatrix", "--p", "3", "--k", "0", "--level", "1", "--qinv"],
             ["logmatrix", "--p", "3", "--k", "0", "--level", "1"],
             ["halflog", "--p", "3", "--sign", "plus", "--level", "1",
              "--out", str(target)],
             ["halflog", "--p", "3", "--level", "1"],
             ["halflog", "--p", "3", "--sign", "minus", "--level", "2"],
             ["theta", "--disc", "-4", "--power", "4", "--nmax", "10"],
             ["check", "--suite", "nope"],
             ["logmatrix", "--p", "3", "--k", "1", "--level", "1"]]

    def run(argv):
        if target.exists():
            target.unlink()
        code = main(argv)
        cap = capsys.readouterr()
        written = target.read_text() if target.exists() else None
        return code, cap.out, cap.err, written

    warm = [run(argv) for argv in calls]
    assert build_parser() is build_parser()
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(argv))
    assert warm == fresh
    assert [w[0] for w in warm] == [0, 0, 0, 2, 0, 0, 2, 0]
    assert warm[2][1] == "" and warm[2][3] is not None


def bad_split_spec(**change):
    from padiclog.iwadist import IwaSeries
    from padiclog.padic import PrimeCtx
    ctx = PrimeCtx(3, 10)
    spec = {"p": 3, "prec": 10, "k": 0, "level": 2,
            "alpha": IwaSeries.const(ctx, 1, 4).to_json(),
            "beta": IwaSeries.const(ctx, 2, 4).to_json(), "denom_exp": 0}
    spec.update(change)
    return spec


def bad_regdiv_spec(f_coeffs=None, points=(5, 10)):
    f = {"nvars": 2, "deg_cap": 4, "coeffs": {"0,0": "1", "1,0": "1"}}
    if f_coeffs is not None:
        f["coeffs"] = f_coeffs
    g = {"nvars": 2, "deg_cap": 4, "coeffs": {"0,0": "1"}}
    return {"p": 5, "prec": 10, "F": f, "G": g, "points": list(points)}


MALFORMED = {
    "split-level-string": ("split", bad_split_spec(level="2")),
    "split-coeffs-int": ("split", bad_split_spec(alpha={"coeffs": 5})),
    "split-coeffs-nested": ("split", bad_split_spec(alpha={"coeffs": [[1]]})),
    "regdiv-point-string": ("regdiv", bad_regdiv_spec(points=["a"])),
    "regdiv-coeffs-list": ("regdiv", bad_regdiv_spec(f_coeffs=[1, 2])),
    "split-alpha-beta-lists": ("split", bad_split_spec(alpha=[1, 2], beta=[3])),
    "galimg-gens-int": ("galimg", {"p": 5, "gens": 3}),
    "eval-null": ("eval", None),
    "deplete-list": ("deplete", [1, 2, 3]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2(case, tmp_path, capsys):
    cmd, spec = MALFORMED[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    argv = [cmd, str(path)] + (["--p", "3"] if cmd == "deplete" else [])
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("argv", [
    ["halflog", "--p", "3", "--sign", "plus", "--level", "-1"],
    ["logmatrix", "--p", "3", "--k", "-1", "--level", "1"],
])
def test_negative_level_or_weight_exits_2(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err


def test_eis_weight_below_one_exits_2(capsys):
    # d^(k-1) is not an integer for k < 1
    code = main(["eis", "--k", "0", "--root-order", "8", "--p", "5", "--nmax", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err


def test_eis_weight_one_output(capsys):
    # k = 1: a_n = sum_{d | n, p not | n} (zeta^d - zeta^(-d)) in Z[x]/(x^4 + 1)
    code, out = run_cli(capsys, "eis", "--k", "1", "--root-order", "8",
                        "--p", "5", "--nmax", "12")
    assert code == 0
    assert out["ring"] == "cyclotomic:8"

    def zeta_pow(e):
        vec = [0] * 4
        vec[e % 4] = -1 if e % 8 >= 4 else 1
        return vec

    want = []
    for n in range(1, 13):
        acc = [0] * 4
        if n % 5:
            for d in range(1, n + 1):
                if n % d == 0:
                    acc = [x + y - z for x, y, z in zip(acc, zeta_pow(d), zeta_pow(-d))]
        want.append(acc)
    assert out["coeffs"] == want
