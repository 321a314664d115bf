"""The per-key cache of g's signed-splitting operator (`split.split_operator`).

`split` and `antisym` take the operator from the cache; their output must not
depend on whether it was just built, reused or rebuilt after eviction, and no
request may change a cached operator.  `logmatrix` builds its matrix every
time.
"""

import json
import random

import pytest

import padiclog.logmat as logmat
import padiclog.split as split
from padiclog.cli import main
from padiclog.iwadist import IwaSeries
from padiclog.logmat import CrystalParams
from padiclog.split import SignedPair, SplitOperator, forward, split_operator

# (p, prec, k, eps, level): small keys, each built in a few milliseconds
KEYS = [(3, 8, 0, 1, 1), (3, 8, 0, 1, 2), (3, 6, 1, -1, 1), (5, 6, 0, 1, 1)]


def _base(key):
    p, prec, k, eps, level = key
    return {"p": p, "prec": prec, "k": k, "eps": eps, "level": level}


def _requests(tmp_path, key, seed):
    """A bounded split, an unbounded pair (exit 2) and an antisym request
    for key, written under tmp_path."""
    rng = random.Random(seed)
    p, prec, k, eps, level = key
    op = SplitOperator.build(CrystalParams.ap_zero(p, prec, k, eps), level)
    ctx = op.ctx
    deg = p ** level

    def rand(n, cap):
        return IwaSeries(ctx, [rng.randrange(ctx.modulus) for _ in range(n)],
                         None, None, cap)

    q = op.qinv_m
    ab = forward(SignedPair(rand(deg, deg), rand(deg, deg), level), q)
    wide = 2 * op.deg_m + 10
    det = (q.entry(0, 0).widen(wide) * q.entry(1, 1).widen(wide)
           - q.entry(0, 1).widen(wide) * q.entry(1, 0).widen(wide))
    specs = [("split", dict(_base(key), alpha=ab.alpha_comp.to_json(),
                            beta=ab.beta_comp.to_json())),
             ("split", dict(_base(key), alpha=IwaSeries.const(ctx, 1, 4).to_json(),
                            beta=IwaSeries.zero(ctx, 4).to_json())),
             ("antisym", dict(_base(key), L=(det * rand(5, wide)).to_json()))]
    argvs = []
    for i, (cmd, spec) in enumerate(specs):
        path = tmp_path / ("%s-%d-%d.json" % (cmd, seed, i))
        path.write_text(json.dumps(spec))
        argvs.append([cmd, str(path)])
    return argvs


@pytest.fixture
def argvs(tmp_path):
    return [argv for i, key in enumerate(KEYS)
            for argv in _requests(tmp_path, key, i)]


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def _evict():
    """Fill the cache with maxsize keys none of the requests use."""
    for prec in range(split_operator.cache_info().maxsize):
        split_operator(3, prec + 20, 0, 1, 0)


def test_output_same_cold_warm_and_after_eviction(argvs, capsys):
    cold = []
    for argv in argvs:
        split_operator.cache_clear()
        cold.append(_run(capsys, argv))
    split_operator.cache_clear()
    warm = [_run(capsys, argv) for argv in argvs]
    warm += [_run(capsys, argv) for argv in argvs]
    assert split_operator.cache_info().hits > 0
    evicted = []
    for argv in argvs:
        _evict()
        evicted.append(_run(capsys, argv))
    assert warm == cold + cold
    assert evicted == cold
    assert [code for code, _ in cold] == [0, 2, 0] * len(KEYS)


def test_requests_do_not_mutate_the_cached_operator(argvs, capsys):
    split_operator.cache_clear()
    ops = [split_operator(*key) for key in KEYS]

    before = [_snapshot(op) for op in ops]
    assert any(op.div21 is None for op in ops)
    assert any(op.parity[1] is not None for op in ops)
    codes = [_run(capsys, argv)[0] for argv in argvs + argvs]
    assert 2 in codes
    assert [split_operator(*key) for key in KEYS] == ops
    assert [_snapshot(op) for op in ops] == before


def _held(h):
    """Every field of a held divisor, None for none."""
    return h and [h.g, h.mod, h.bound, h.length, h.slot, h.gpack, h.rpack]


def _snapshot(op):
    """Every field a request reads from the operator, the held divisors'
    reciprocals and packed forms included."""
    return json.dumps([op.qinv_m.to_json(), op.m21.to_json(), op.m12.to_json(),
                       op.deg_m, op.level, op.parity_deg,
                       [_held(h) for h in (op.div21, op.div12) + op.parity]],
                      sort_keys=True)


@pytest.mark.parametrize("bad", [{"p": 4, "k": 0, "level": 1},
                                 {"p": 3, "k": 0, "level": 6}])
def test_failed_build_exits_2_every_time_and_is_not_kept(bad, tmp_path, capsys):
    alpha = {"coeffs": ["1"], "prec": 4, "deg_cap": 1, "denom_exp": 0,
             "growth": "0"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(bad, alpha=alpha, beta=alpha, L=alpha)))
    split_operator.cache_clear()
    for _ in range(3):
        for cmd in ("split", "antisym"):
            assert _run(capsys, [cmd, str(path)]) == (2, "")
    info = split_operator.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 6, 0)


def test_cache_stays_within_maxsize():
    split_operator.cache_clear()
    maxsize = split_operator.cache_info().maxsize
    assert maxsize == 8
    for i in range(2 * maxsize + 1):
        split_operator(3, 8 + i, 0, 1, i % 3)
        assert split_operator.cache_info().currsize <= maxsize
    assert split_operator.cache_info().currsize == maxsize


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_repeated_split_builds_the_matrix_once(argvs, monkeypatch, capsys):
    calls = _count_calls(monkeypatch, split, "log_matrix_ap0")
    split_operator.cache_clear()
    for argv in argvs[:3] * 3:
        _run(capsys, argv)
    assert len(calls) == 1


def test_repeated_logmatrix_builds_the_matrix_each_time(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, logmat, "log_matrix_ap0")
    argv = ["logmatrix", "--p", "3", "--k", "0", "--level", "2", "--qinv"]
    outs = [_run(capsys, argv) for _ in range(3)]
    assert len(calls) == 3
    assert outs[0][0] == 0 and outs == [outs[0]] * 3

