import io
import json
import random
import time
from importlib import resources

import pytest

from mukailab.cli import JobSpec, SUBCOMMANDS, main, run

K3U = {"kind": "k3", "gram": [[0, 1], [1, 0]], "basis": ["e", "f"],
       "polarization": [1, 1]}
ELLIPTIC = {"kind": "elliptic-with-section", "gram": [[-1, 1], [1, 0]],
            "basis": ["sigma", "f"], "polarization": [1, 3], "chi_O": 1,
            "effective": [[1, 0], [0, 1]]}


def run_job(job):
    buf = io.StringIO()
    code = run(job, out=buf)
    return code, buf.getvalue()


def test_pair_fixture():
    job = JobSpec("pair", surface=K3U,
                  inputs={"v": {"r": 0, "c": [0, 0], "t": 1},
                          "w": {"r": 1, "c": [0, 0], "t": 0}})
    code, out = run_job(job)
    assert code == 0 and json.loads(out) == {"pair": "-1"}


def test_wallsolve_quarter_n():
    for n in (3, 5, 8):
        surface = {"kind": "k3", "gram": [[2, 0], [0, -2 * n]],
                   "basis": ["h", "d"], "polarization": [1, 0]}
        job = JobSpec("wallsolve", surface=surface,
                      inputs={"v": {"r": 2, "c": [0, 0], "t": 1 - 2 * n},
                              "v_sub": {"r": 1, "c": [0, 1], "t": -n},
                              "H": [1, 0], "dir": [0, 1]})
        code, out = run_job(job)
        assert code == 0
        assert json.loads(out)["roots"] == ["1/%d" % (4 * n)]


def test_partition_even_r_is_domain_error():
    code, out = run_job(JobSpec("partition", extra={"r": 4}))
    assert code == 1
    assert "even-r" in out


def test_parse_error_exit_code():
    job = JobSpec("pair", surface=K3U, inputs={"v": {"r": "1/0", "c": [0, 0], "t": 0},
                                               "w": {"r": 1, "c": [0, 0], "t": 0}})
    code, out = run_job(job)
    assert code == 2 and "parse error" in out
    code, out = run_job(JobSpec("nonsense"))
    assert code == 2


def test_missing_surface_is_parse_error():
    code, out = run_job(JobSpec("pair", inputs={"v": {}, "w": {}}))
    assert code == 2


def test_deterministic_output():
    job = JobSpec("walls", surface=ELLIPTIC,
                  inputs={"gamma": {"rank": 0, "c": [1, 2], "chi": 1}, "H": [1, 3]},
                  box="-2,2;-2,2", output_format="tsv")
    outputs = {run_job(job)[1] for _ in range(3)}
    assert len(outputs) == 1


def test_tsv_prints_exact_rationals():
    job = JobSpec("transform", surface=K3U, output_format="tsv",
                  inputs={"map": {"kind": "twist", "params": {"D": ["1/2", 0]}},
                          "vector": {"r": 1, "c": [0, 0], "t": 0}})
    code, out = run_job(job)
    assert code == 0
    assert out.split("\t")[1] == "1/2"
    assert "." not in out


def test_main_argv_roundtrip(tmp_path, capsys):
    surface = tmp_path / "surface.json"
    surface.write_text(json.dumps(K3U))
    code = main(["pair", "--surface", str(surface), "--in",
                 '{"v": {"r": 0, "c": [0, 0], "t": 1}, "w": {"r": 1, "c": [0, 0], "t": 0}}'])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"pair": "-1"}


def test_main_output_file(tmp_path):
    out_file = tmp_path / "result.json"
    code = main(["pair", "--surface", json.dumps(K3U), "--in",
                 '{"v": {"r": 0, "c": [0, 0], "t": 1}, "w": {"r": 1, "c": [0, 0], "t": 0}}',
                 "--out", str(out_file)])
    assert code == 0
    assert json.loads(out_file.read_text()) == {"pair": "-1"}


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_selftests(name):
    code, out = run_job(JobSpec(name, selftest=True, samples=50))
    assert code == 0, out
    assert "ok" in out


def test_default_selftests_run_200_samples(capsys):
    for name in ("pair", "transform"):
        assert main([name, "--selftest"]) == 0
        assert capsys.readouterr().out.endswith("properties %s: ok (200 samples)\n" % name)


@pytest.mark.parametrize("samples", ["-5", "-1"])
def test_negative_samples_are_parse_errors(capsys, samples):
    assert main(["pair", "--selftest", "--samples=" + samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == "parse error: samples must be >= 0, got %s\n" % samples
    assert "Traceback" not in captured.err


def test_too_many_samples_are_refused_at_once(capsys):
    from mukailab.cli import MAX_SAMPLES
    assert main(["pair", "--selftest", "--samples", str(MAX_SAMPLES)]) == 0
    assert capsys.readouterr().out.endswith("ok (%d samples)\n" % MAX_SAMPLES)
    for samples in (MAX_SAMPLES + 1, 10 ** 8):
        start = time.perf_counter()
        assert main(["transform", "--selftest", "--samples", str(samples)]) == 1
        assert time.perf_counter() - start < 0.2
        assert capsys.readouterr().out.startswith("domain error [samples-too-large]")
    code, out = run_job(JobSpec("pair", selftest=True, samples=10 ** 8))
    assert code == 1 and out.startswith("domain error [samples-too-large]")
    code, out = run_job(JobSpec("pair", selftest=True, samples=True))
    assert code == 2 and out.startswith("parse error: ")


def test_transform_composite_list():
    job = JobSpec("transform", surface=K3U,
                  inputs={"map": [{"kind": "twist", "params": {"D": [1, 2]}},
                                  {"kind": "twist", "params": {"D": [-1, -2]}}],
                          "vector": {"r": 2, "c": [3, 4], "t": "5/2"}})
    code, out = run_job(job)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "composite"
    assert doc["vector"] == {"r": "2", "c": ["3", "4"], "t": "5/2"}


def test_reduce_enriques_subcommand():
    job = JobSpec("reduce", surface={"kind": "enriques"},
                  inputs={"v": {"r": 3, "c": [0] * 10, "t": "-1/2"}},
                  extra={"kind": "enriques"})
    code, out = run_job(job)
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2 and doc["final"]["r"] == "1"


def test_reduce_rank_one_subcommand():
    job = JobSpec("reduce", surface={"kind": "abelian", "gram": [[0, 1], [1, 0]],
                                     "basis": ["e", "f"], "polarization": [1, 1]},
                  inputs={"l": 1, "r": 2, "c1": [0, 1], "a": -1},
                  extra={"kind": "rank-one"})
    code, out = run_job(job)
    assert code == 0
    doc = json.loads(out)
    assert doc["final"]["r"] == "1"
    assert len({step["square"] for step in doc["steps"]}) == 1


# --- front-end faults: each input exits 0 or 2, never with a traceback -----


def test_partition_reads_r_from_inputs(capsys):
    assert main(["partition", "--order", "3", "--in", '{"r": 3}']) == 0
    assert json.loads(capsys.readouterr().out)["r"] == 3
    assert main(["partition", "--order", "3", "--r", "1", "--in", '{"r": 3}']) == 0
    assert json.loads(capsys.readouterr().out)["r"] == 1
    assert main(["partition", "--order", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["r"] == 1


def test_partition_rational_box_is_parse_error(capsys):
    box = "--box=0,1/2" + ";0,0" * 9
    assert main(["partition", "--order", "2", box]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("parse error: ") and "Traceback" not in captured.err


def test_partition_huge_box_is_refused(capsys):
    box = "--box=" + ";".join(["-3,3"] * 10)          # 7^10 points
    assert main(["partition", "--order", "2", box]) == 1
    captured = capsys.readouterr()
    assert "partition-too-large" in captured.out and "Traceback" not in captured.err
    assert main(["partition", "--order", "10000000"]) == 1
    assert "partition-too-large" in capsys.readouterr().out


@pytest.mark.parametrize("argv,missing", [
    (["gitweight", "--in", json.dumps({
        "dims": {"dimV": 6, "dimVp": 2, "dim_alpha_VW": 30, "dim_alpha_VpW": 10,
                 "dim_alpha_i_V": [3]},
        "data": {"h_m": 6, "h_i_m": [3], "eps_i": ["1/2"], "a1": 2, "n": 2}})], "dim_V_i"),
    (["gitweight", "--in", '{"dims": {}, "data": {}}'], "dimV"),
    (["epoly", "--in", '{"base": {"terms": []}, "strata": [{"factors": []}]}'], "pairings"),
    (["epoly", "--in", '{"base": {"terms": []}, "strata": [{"pairings": [[0]]}]}'], "factors"),
])
def test_missing_nested_field_is_parse_error(capsys, argv, missing):
    assert main(argv) == 2
    assert capsys.readouterr().out.strip() == "parse error: missing input field: %r" % missing


def test_non_utf8_file_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    assert main(["dims", "--surface", str(bad), "--in", "{}"]) == 2
    assert main(["dims", "--surface", json.dumps(K3U), "--in", str(bad)]) == 2
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1e9999", "1e-9999", "1/" + "7" * 1001, 10 ** 1001])
def test_oversized_rational_is_parse_error(capsys, value):
    doc = {"v": {"r": value, "c": [0, 0], "t": 1}, "w": {"r": 1, "c": [0, 0], "t": 0}}
    assert main(["pair", "--surface", json.dumps(K3U), "--in", json.dumps(doc)]) == 2
    assert "rational-too-large" in capsys.readouterr().out


@pytest.mark.parametrize("value, code", [
    ("1e999", 0), ("1e1000", 2), ("9" * 1000, 0), ("9" * 1001, 2),
    ("1/" + "7" * 1000, 0), ("1/" + "7" * 1001, 2), (10 ** 1000 - 1, 0), (10 ** 1000, 2)],
    ids=["1e999", "1e1000", "str-1000-digits", "str-1001-digits", "den-1000-digits",
         "den-1001-digits", "int-1000-digits", "int-1001-digits"])
def test_rational_size_bound_is_exact(capsys, value, code):
    # MAX_DIGITS = 1000: digits plus exponent, or the longer of numerator and denominator
    doc = {"v": {"r": value, "c": [0, 0], "t": 1}, "w": {"r": 1, "c": [0, 0], "t": 0}}
    assert main(["pair", "--surface", json.dumps(K3U), "--in", json.dumps(doc)]) == code
    assert ("rational-too-large" in capsys.readouterr().out) == (code == 2)


@pytest.mark.parametrize("argv", [
    ["reduce", "--kind", "elliptic-jacobian", "--in", '{"r": "x", "d": 2}'],
    ["partition", "--in", '{"r": [3]}'],
    ["pair", "--surface", json.dumps(K3U), "--in", "[1]"],
    ["epoly", "--in", '{"base": {"terms": []}, "strata": 5}'],
    ["gitweight", "--in", '{"dims": [], "data": {}}'],
    ["pair", "--surface", json.dumps(K3U), "--in", '{"v": %s}' % ("1" * 5000)],
    ["pair", "--surface", json.dumps(K3U), "--in", "[" * 100000],
])
def test_malformed_inputs_are_parse_errors(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out + captured.err).startswith("parse error: ")


def test_readme_walls_example_runs(capsys):
    assert main(["walls", "--surface", json.dumps(ELLIPTIC), "--box=-2,2;-2,2",
                 "--format", "tsv", "--in",
                 '{"gamma":{"rank":0,"c":[1,2],"chi":1},"H":[1,3]}']) == 0
    assert "0,1\t0\t3,-1\t-1" in capsys.readouterr().out.splitlines()


def test_repeated_main_calls_reuse_parser(capsys):
    pair = ["pair", "--surface", json.dumps(K3U), "--in",
            '{"v": {"r": 0, "c": [0, 0], "t": 1}, "w": {"r": 1, "c": [0, 0], "t": 0}}']
    outs = []
    for argv in (pair, ["partition", "--order", "2", "--r", "3"], pair):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[2] and json.loads(outs[1])["r"] == 3


@pytest.mark.parametrize("sub,extra", [("walls", {}),
                                       ("chamberpath", {"alpha": ["1/7", 0],
                                                        "alpha2": ["1/5", "1/3"]})])
@pytest.mark.parametrize("c,box", [([100000, 100000], "--box=-2,2;-2,2"),
                                   ([1, 2], "--box=-1000000000,1000000000;-2,2")])
def test_unbounded_walls_input_is_refused(capsys, sub, extra, c, box):
    doc = dict({"gamma": {"rank": 0, "c": c, "chi": 1}, "H": [1, 3]}, **extra)
    start = time.perf_counter()
    code = main([sub, "--surface", json.dumps(ELLIPTIC), box, "--in", json.dumps(doc)])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("domain error [walls-too-large]")
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("extra,code,marker", [
    ({"epsilon": 0}, 1, "domain error [epsilon-kind]"),
    ({"epsilon": 1}, 0, '{"pair": "-1"}'),
    ({"h1_O": 5}, 0, '{"pair": "-1"}'),
])
def test_k3_epsilon_and_h1_documents(capsys, extra, code, marker):
    pair = '{"v": {"r": 0, "c": [0, 0], "t": 1}, "w": {"r": 1, "c": [0, 0], "t": 0}}'
    assert main(["pair", "--surface", json.dumps(dict(K3U, **extra)), "--in", pair]) == code
    assert capsys.readouterr().out.startswith(marker)


@pytest.mark.parametrize("argv", [
    ["pair", "--in", '{"v": {"r": 1, "c": [0, 0], "t": 0}, "w": {"r": 1, "c": [0, 0], "t": 0}}'],
    ["transform", "--in", '{"map": {"kind": "identity"}, "vector": {"r": 1, "c": [0, 0], "t": 0}}'],
    ["dims", "--in", '{"v": {"r": 1, "c": [0, 0], "t": 0}}'],
    ["walls", "--box=-1,1;-1,1", "--in", '{"gamma": {"rank": 0, "c": [1, 2], "chi": 1}, "H": [1, 3]}'],
])
def test_ragged_gram_is_refused_as_not_square(capsys, argv):
    ragged = dict(K3U, gram=[[0, 1], []])
    assert main(argv[:1] + ["--surface", json.dumps(ragged)] + argv[1:]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("domain error [gram-not-square]")
    assert "Traceback" not in captured.out + captured.err


def _transform(capsys, mapdoc, surface=K3U):
    doc = {"map": mapdoc, "vector": {"r": 3, "c": [1, 2], "t": "1/2"}}
    code = main(["transform", "--surface", json.dumps(surface), "--in", json.dumps(doc)])
    return code, capsys.readouterr().out


ELLIPTIC_K3 = {"kind": "k3", "gram": [[-2, 1], [1, 0]], "basis": ["sigma", "f"],
               "polarization": [1, 3]}
RELATIVE = {"r": 3, "d": 2, "k": 3, "chi_E0": 0}


@pytest.mark.parametrize("argv", [
    ["reduce", "--kind", "elliptic-jacobian", "--in", '{"r": 5.5, "d": 2}'],
    ["reduce", "--kind", "elliptic-jacobian", "--in", '{"r": true, "d": 2}'],
    ["reduce", "--kind", "elliptic-jacobian", "--in", '{"r": 5, "d": false}'],
    ["reduce", "--kind", "rank-one", "--surface", json.dumps(K3U),
     "--in", '{"l": 1, "r": 2, "c1": [1, 0], "a": 0.5}'],
    ["partition", "--in", '{"r": 3.5}'],
])
def test_non_integral_or_bool_integers_are_parse_errors(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().out.startswith("parse error: bad integer")


def test_integral_integers_keep_working(capsys):
    outs = []
    for doc in ('{"r": 5, "d": 2}', '{"r": 5.0, "d": 2}', '{"r": "5", "d": "2"}'):
        assert main(["reduce", "--kind", "elliptic-jacobian", "--in", doc]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("mapdoc,surface", [
    ({"kind": "cor_ext", "params": {"k": 2.5}}, K3U),
    ({"kind": "cor_ext", "params": {"k": True}}, K3U),
    ({"kind": "twist", "params": {"D": [1, 0], "sign": True}}, K3U),
    ({"kind": "twist", "params": {"D": [1, 0], "sign": 0.5}}, K3U),
    ({"kind": "twist", "params": [1, 0]}, K3U),
    ({"kind": "enriques_reflection", "params": [1]}, {"kind": "enriques"}),
    ({"kind": "elliptic_relative", "params": dict(RELATIVE, r=True)}, ELLIPTIC_K3),
    ({"kind": "elliptic_relative", "params": dict(RELATIVE, chi_E0=0.5)}, ELLIPTIC_K3),
    ({"kind": "elliptic_relative", "params": dict(RELATIVE, chi_F0_f=False)}, ELLIPTIC_K3),
])
def test_strict_integers_in_transform_documents(capsys, mapdoc, surface):
    code, out = _transform(capsys, mapdoc, surface)
    assert code == 2 and out.startswith("parse error: ")


def test_transform_sign_is_the_integer_one_or_minus_one(capsys):
    twist = {"kind": "twist", "params": {"D": [1, 0]}}
    code, plain = _transform(capsys, dict(twist, params={"D": [1, 0], "sign": 1}))
    assert code == 0 and json.loads(plain)["sign"] == 1
    code, out = _transform(capsys, dict(twist, params={"D": [1, 0], "sign": 1.0}))
    assert code == 0 and out == plain and '"sign": 1,' in out
    code, out = _transform(capsys, dict(twist, params={"D": [1, 0], "sign": -1.0}))
    assert code == 0 and json.loads(out)["sign"] == -1
    code, out = _transform(capsys, dict(twist, params={"D": [1, 0], "sign": 2}))
    assert code == 1 and out.startswith("domain error [bad-sign]")


@pytest.mark.parametrize("extra", [["kind", "enriques"], "r", 3])
def test_non_object_extra_is_parse_error(extra):
    for sub in ("partition", "reduce", "pair"):
        code, out = run_job(JobSpec(sub, extra=extra))
        assert code == 2 and out.startswith("parse error: extra must be a JSON object")
    from mukailab.cli import _job_from_doc
    job = _job_from_doc({"subcommand": "reduce", "inputs": {"r": 5, "d": 2}, "extra": extra})
    assert run_job(job) == (2, "parse error: extra must be a JSON object\n")


PAIR_IN = json.dumps({"v": {"r": 1, "c": [1, 0], "t": 0}, "w": {"r": 0, "c": [0, 1], "t": 1}})


@pytest.mark.parametrize("gram", [[[0, 1.9], [1.9, 0]], [[False, True], [True, False]],
                                  [[0, "1/1"], [1, 0]], [[0, None], [1, 0]]])
def test_non_integral_or_bool_gram_entries_are_parse_errors(capsys, gram):
    # 1.9 used to truncate to the hyperbolic plane and run with exit 0
    surface = dict(K3U, gram=gram)
    assert main(["pair", "--surface", json.dumps(surface), "--in", PAIR_IN]) == 2
    assert capsys.readouterr().out.startswith("parse error: bad integer for 'gram'")


def test_integral_gram_entries_keep_working(capsys):
    outs = []
    for gram in ([[0, 1], [1, 0]], [[0.0, 1.0], [1.0, 0.0]], [["0", "1"], ["1", "0"]]):
        assert main(["pair", "--surface", json.dumps(dict(K3U, gram=gram)), "--in", PAIR_IN]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2] == '{"pair": "0"}\n'


def _epoly(capsys, base_terms):
    doc = {"base": {"terms": base_terms}, "strata": []}
    code = main(["epoly", "--in", json.dumps(doc)])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("terms", [[[1.5, True, "1"]], [[1, True, "1"]], [[0.5, 0, "1"]],
                                   [[0, "x", "1"]]])
def test_non_integral_or_bool_laurent_exponents_are_parse_errors(capsys, terms):
    # [[1.5, true, "1"]] used to read as x y
    code, out = _epoly(capsys, terms)
    assert code == 2 and out.startswith("parse error: bad integer for 'terms'")


def test_integral_laurent_exponents_keep_working(capsys):
    outs = [_epoly(capsys, terms) for terms in ([[1, 1, "2"], [0, -1, "1/3"]],
                                                [[1.0, 1.0, "2"], [0.0, -1.0, "1/3"]],
                                                [["1", "1", "2"], ["0", "-1", "1/3"]])]
    assert outs[0] == outs[1] == outs[2] == (0, '{"terms": [[0, -1, "1/3"], [1, 1, "2"]]}\n')


def _fuzz_box(rng, rank):
    shape = rng.choice(("none", "ok", "reversed", "rational", "short", "long", "huge",
                        "string", "garbage"))
    if shape == "none":
        return None
    box = [[0, 0] for _ in range(rank)]
    for i in rng.sample(range(rank), min(rank, 3)):
        box[i] = [-1, rng.choice((0, 1))]
    if shape == "reversed":
        box[rng.randrange(rank)] = [1, -1]
    elif shape == "rational":
        box[rng.randrange(rank)] = ["-1/2", 1]
    elif shape == "short":
        box = box[:-1]
    elif shape == "long":
        box = box + [[0, 0]]
    elif shape == "huge":
        box = [rng.choice(([-10 ** 6, 10 ** 6], ["-1e999", "1e999"]))] * rank
    elif shape == "string":
        box = ";".join("%d,%d" % tuple(b) for b in box)
    elif shape == "garbage":
        box = rng.choice((5, "x", [["a", 1]] * rank, [[1]] * rank, [[0, 1, 2]] * rank,
                          [[True, 1]] * rank, [[0.5, 1]] * rank))
    return box


def test_partition_fuzz_exits_cleanly():
    # seeded random r, order, box and surface documents through cli.run:
    # every run ends with 0 ok / 1 domain error / 2 parse error, quickly
    rng = random.Random(20261018)
    surfaces = (None, {"kind": "enriques"}, {"kind": "enriques", "polarization": [1] + [0] * 9},
                K3U, ELLIPTIC, dict(K3U, gram=[[0, 1.5], [1.5, 0]]), dict(K3U, gram=[[0, 1], [1]]),
                {"kind": "k3"}, "k3", [])
    rs = (1, 3, 5, 7, 9, 15, 2, 4, 0, -1, -3, True, False, 999999, 10 ** 6 + 1, 10 ** 30,
          "3", "x", 3.0, 3.5, None, [3])
    orders = (0, 1, 2, 3, 5, -1, -7, 10 ** 6, 10 ** 40, "7/2", "-1/2", "x", "1e9999", 1.5,
              True, None, [1])
    codes = set()
    for _ in range(300):
        surface = rng.choice(surfaces)
        rank = 2 if isinstance(surface, dict) and "gram" in surface else 10
        job = JobSpec("partition", surface=surface, order=rng.choice(orders),
                      box=_fuzz_box(rng, rank), extra={"r": rng.choice(rs)},
                      output_format=rng.choice(("json", "tsv")))
        start = time.perf_counter()
        code, out = run_job(job)
        assert code in (0, 1, 2), (job, out)
        assert time.perf_counter() - start < 1.0, job
        codes.add(code)
    assert codes == {0, 1, 2}


def test_partition_huge_box_bounds_are_refused(capsys):
    # a box of ~10^10000 vectors once failed to format its refusal message
    assert main(["partition", "--box=" + ";".join(["-1e999,1e999"] * 10)]) == 1
    assert capsys.readouterr().out.startswith("domain error [partition-too-large]")


def test_partition_order_from_a_document_is_a_parsed_rational():
    for order, code in ((5, 0), ("7/2", 0), ("x", 2), (1.5, 2), (None, 2), ("1e9999", 2)):
        got, out = run_job(JobSpec("partition", order=order, extra={"r": 3}))
        assert got == code, (order, out)


RANK3 = {"kind": "generic", "gram": [[-1, 1, 0], [1, 0, 0], [0, 0, -2]],
         "basis": ["sigma", "f", "e"], "polarization": [1, 3, 0], "chi_O": 1,
         "effective": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}


def _fuzz_class(rng, rank):
    shape = rng.choice(("rational", "short", "long", "huge", "garbage"))
    if shape == "rational":
        return [rng.choice((0, 1, -1, 3, "1/7", "-2/3", "5/11", 0.5)) for _ in range(rank)]
    if shape == "short":
        return [1] * (rank - 1)
    if shape == "long":
        return [1] * (rank + 1)
    if shape == "huge":
        return [rng.choice((10 ** 5, 10 ** 9, "1e999", "1/1e999"))] * rank
    return rng.choice((None, "x", 5, {}, [[1]] * rank, [True] * rank, ["a"] * rank))


def test_walls_fuzz_exits_cleanly():
    # seeded random mutations of valid walls and chamberpath jobs (gamma, H,
    # box, alpha/alpha2, surface) through cli.run: every run ends with 0 ok /
    # 1 domain error / 2 parse error, quickly
    rng = random.Random(20261020)
    surfaces = (K3U, dict(ELLIPTIC, effective=[[1, 0], [2, 0]]), dict(ELLIPTIC, gram=[[-1, 1], [1]]),
                dict(RANK3, polarization=[1, 3]), dict(ELLIPTIC, effective=[["1/2", 0], [0, 1]]),
                dict(ELLIPTIC, gram=[[0, 1], [1, 0]]), {"kind": "enriques"}, None, "x")
    primes = (7, 11, 13, 17, 19)
    codes = set()
    for _ in range(400):
        surface = rng.choice((ELLIPTIC, RANK3))
        rank = len(surface["gram"])
        b = rng.randint(1, 3)
        inputs = {"gamma": {"rank": 0, "c": [rng.randint(0, 4) for _ in range(rank)],
                            "chi": rng.choice((1, 0, -3, "1/2", "-7/3"))},
                  "H": surface["polarization"],
                  "alpha": ["%d/%d" % (rng.randint(-20, 20), rng.choice(primes)) for _ in range(rank)],
                  "alpha2": ["%d/%d" % (rng.randint(-20, 20), rng.choice(primes)) for _ in range(rank)]}
        box = rng.choice(([[-b, b]] * rank, "%s,%s" % (-b, "1/2") + ";-1,1" * (rank - 1)))
        for _ in range(rng.choice((0, 1, 1, 2))):
            key = rng.choice(("surface", "gamma", "c", "chi", "H", "alpha", "alpha2", "box",
                              "drop"))
            if key == "surface":
                surface = rng.choice(surfaces)
            elif key in ("c", "chi"):
                if isinstance(inputs.get("gamma"), dict):
                    inputs["gamma"] = dict(inputs["gamma"], **{
                        key: rng.choice((_fuzz_class(rng, rank), 10 ** 9, "x", None, 1.5))})
            elif key == "gamma":
                inputs["gamma"] = rng.choice(({"rank": rng.choice((1, "x", None)), "c": [1, 2],
                                               "chi": 1}, {"c": [1, 2]}, "x", None))
            elif key == "box":
                box = _fuzz_box(rng, rank)
            elif key == "drop":
                inputs.pop(rng.choice(sorted(inputs)))
            else:
                inputs[key] = _fuzz_class(rng, rank)
        job = JobSpec(rng.choice(("walls", "chamberpath")), surface=surface, inputs=inputs,
                      box=box, output_format=rng.choice(("json", "tsv")))
        start = time.perf_counter()
        code, out = run_job(job)
        assert code in (0, 1, 2), (job, out)
        assert time.perf_counter() - start < 1.0, job
        codes.add((job.subcommand, code))
    assert codes == {(sub, code) for sub in ("walls", "chamberpath") for code in (0, 1, 2)}


EK3_RANK3 = {"kind": "k3", "gram": [[-2, 1, 0], [1, 0, 0], [0, 0, -2]],
             "basis": ["sigma", "f", "d0"], "polarization": [1, 3, 0]}
FIXTURE_JOBS = [json.loads(resources.files("mukailab").joinpath("fixtures/%s.json" % name)
                           .read_text())["job"] for name in ("reduce", "transform")]
FUZZ_LEAVES = (0, 1, -1, 2, 3, 7, -13, 10 ** 6, 10 ** 30, "x", None, True, 2.5, "3", "1/2",
               [1], 1e300, {}, "cor_ext", "rank-one", "enriques", "elliptic-jacobian")


def _reduce_and_transform_jobs(rng):
    """The bundled reduce and transform fixtures and the cli-batch shapes:
    (subcommand, surface, inputs, extra)."""
    def vec(rank, half=False):
        return {"r": rng.randint(-7, 7), "c": [rng.randint(-3, 3) for _ in range(rank)],
                "t": "%d/2" % rng.randint(-9, 9) if half else rng.randint(-9, 9)}

    abelian = dict(K3U, kind="abelian")
    return [(f["subcommand"], f.get("surface"), f["inputs"], f.get("extra")) for f in FIXTURE_JOBS] + [
        ("reduce", rng.choice((K3U, abelian)),
         {"kind": "rank-one", "l": rng.randint(1, 5), "r": rng.randint(1, 7),
          "c1": [rng.randint(-6, 6), rng.randint(-6, 6)], "a": rng.randint(-9, 9)}, None),
        ("reduce", {"kind": "enriques"},
         {"kind": "enriques", "v": {"r": rng.choice((1, 3, 5, 7)),
                                    "c": [rng.randint(-2, 2) for _ in range(10)],
                                    "t": "%d/2" % rng.choice((-7, -5, -3, -1, 1, 3))}}, None),
        ("reduce", None, {"r": rng.randint(1, 60), "d": rng.randint(-60, 60)},
         {"kind": "elliptic-jacobian"}),
        ("transform", abelian, {"map": {"kind": "twist", "params": {"D": ["1/2", 1]}},
                                "vector": vec(2)}, None),
        ("transform", K3U, {"map": {"kind": "cor_ext", "params": {"k": rng.randint(1, 6)}},
                            "vector": vec(2)}, None),
        ("transform", {"kind": "enriques"}, {"map": {"kind": "enriques_reflection"},
                                             "vector": vec(10, half=True)}, None),
        ("transform", K3U, {"map": [{"kind": "twist", "params": {"D": [1, 2]}},
                                    {"kind": "cor_ext", "params": {"k": 2}}],
                            "vector": vec(2)}, None),
        ("transform", abelian, {"map": {"kind": "isotropic_fm", "params": {
            "v1": {"r": 1, "c": [0, 0], "t": 0}, "w1": {"r": 1, "c": [0, 0], "t": 0},
            "H": [1, 2], "H_hat": [1, 2]}}, "vector": vec(2)}, None),
        ("transform", EK3_RANK3, {"map": {"kind": "elliptic_jacobian"},
                                  "vector": {"r": 1, "c": [0, 2, 1], "t": 3}}, None),
        ("transform", ELLIPTIC_K3, {"map": {"kind": "elliptic_relative", "params": RELATIVE},
                                    "vector": {"r": 3, "c": [-2, 3], "t": -3}}, None),
    ]


def _mutate(rng, doc):
    """doc with one random leaf replaced, or one object key or list entry
    dropped or added."""
    if isinstance(doc, dict) and doc:
        key = rng.choice(sorted(doc))
        if rng.random() < 0.15:
            return {k: v for k, v in doc.items() if k != key}
        return dict(doc, **{key: _mutate(rng, doc[key])})
    if isinstance(doc, list) and doc and rng.random() < 0.8:
        if rng.random() < 0.1:
            return doc[:-1] if rng.random() < 0.5 else doc + [1]
        i = rng.randrange(len(doc))
        return doc[:i] + [_mutate(rng, doc[i])] + doc[i + 1:]
    return rng.choice(FUZZ_LEAVES)


def test_reduce_and_transform_fuzz_exits_cleanly():
    # seeded random mutations of the bundled reduce/transform fixtures and of
    # the benchmark's cli-batch job shapes through cli.run: every run ends
    # with 0 ok / 1 domain error / 2 parse error / 3 invariant failure, quickly
    rng = random.Random(20261018)
    surfaces = (K3U, {"kind": "enriques"}, ELLIPTIC_K3, EK3_RANK3, dict(K3U, half_integral=True),
                dict(K3U, gram=[[2, 0], [0, -2]]), None, "x", {"kind": "k3"})
    codes = set()
    for _ in range(400):
        sub, surface, inputs, extra = rng.choice(_reduce_and_transform_jobs(rng))
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            what = rng.random()
            if what < 0.15:
                surface = rng.choice(surfaces)
            elif what < 0.2 and extra:
                extra = _mutate(rng, extra)
            else:
                inputs = _mutate(rng, inputs)
        job = JobSpec(sub, surface=surface, inputs=inputs, extra=extra,
                      output_format=rng.choice(("json", "tsv")))
        start = time.perf_counter()
        code, out = run_job(job)
        assert code in (0, 1, 2, 3), (job, out)
        assert time.perf_counter() - start < 1.0, job
        codes.add((sub, code))
    assert codes == {(sub, code) for sub in ("reduce", "transform") for code in (0, 1, 2)}


@pytest.mark.parametrize("r,d", [(10 ** 6, -1), (10 ** 30, -1), (10 ** 6, -9)])
def test_long_euclid_traces_are_refused_at_once(r, d):
    start = time.perf_counter()
    code, out = run_job(JobSpec("reduce", inputs={"r": r, "d": d},
                                extra={"kind": "elliptic-jacobian"}))
    assert time.perf_counter() - start < 0.2
    assert code == 1 and out.startswith("domain error [trace-too-long]")


def test_cor_ext_needs_a_positive_k(capsys):
    for k, name in ((-1, "polarization-not-positive"), (-7, "polarization-not-positive"),
                    (0, "degenerate-polarization")):
        code, out = _transform(capsys, {"kind": "cor_ext", "params": {"k": k}})
        assert code == 1 and out.startswith("domain error [%s]" % name)


def test_invariant_failure_exits_3_without_traceback(monkeypatch, capsys):
    from mukailab import InvariantError, identity_map, k3_model, reductions
    # a "swap" that changes nothing: the chain cannot reach rank one
    monkeypatch.setattr(reductions, "cor_ext_map", lambda m, k: identity_map(m))
    doc = {"l": 1, "r": 2, "c1": [0, 1], "a": -1}
    code, out = run_job(JobSpec("reduce", surface=K3U, inputs=doc, extra={"kind": "rank-one"}))
    assert (code, out) == (3, "internal error: invariant failed: reduction did not reach rank one\n")
    assert main(["reduce", "--kind", "rank-one", "--surface", json.dumps(K3U),
                 "--in", json.dumps(doc)]) == 3
    captured = capsys.readouterr()
    assert captured.out == out and "Traceback" not in captured.err
    # library callers that catch AssertionError keep working
    m = k3_model()
    with pytest.raises(AssertionError) as err:
        reductions.reduce_to_rank_one(1, 2, m.cls((0, 1)), -1, m)
    assert isinstance(err.value, InvariantError)


class _Doubling:
    def apply(self, v):
        return v.scale(2)


def test_broken_moves_exit_3_without_traceback(monkeypatch, capsys):
    from mukailab import reductions
    # a swap that doubles its input breaks the Mukai square of either chain
    monkeypatch.setattr(reductions, "cor_ext_map", lambda m, k: _Doubling())
    monkeypatch.setattr(reductions, "enriques_reflection_map", lambda m, sign: _Doubling())
    want = "internal error: invariant failed: fm_swap changed the Mukai square or the multiplicity\n"
    for argv in (["reduce", "--kind", "rank-one", "--surface", json.dumps(K3U),
                  "--in", json.dumps({"l": 1, "r": 2, "c1": [0, 1], "a": -1})],
                 ["reduce", "--kind", "enriques", "--surface", '{"kind": "enriques"}',
                  "--in", json.dumps({"v": {"r": 3, "c": [0] * 10, "t": "-1/2"}})]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == want and "Traceback" not in captured.err


def test_large_hilbert_orders_are_refused_at_once():
    # n = (<v^2>+1)/2 = 164 and 1.5 * 10^13: e(X^[n]) would take seconds to years
    for v in ({"r": 3, "c": [1, 0, -18] + [0] * 7, "t": "-325/2"},
              {"r": 3, "c": [0] * 10, "t": "-10000000000001/2"}):
        start = time.perf_counter()
        code, out = run_job(JobSpec("reduce", surface={"kind": "enriques"}, inputs={"v": v},
                                    extra={"kind": "enriques"}))
        assert time.perf_counter() - start < 0.2
        assert code == 1 and out.startswith("domain error [hilbert-order-too-large]"), out


def _other_jobs(rng):
    """The bundled pair, wallsolve, epoly, dims and gitweight fixtures and
    the cli-batch shapes of those subcommands: (subcommand, surface, inputs)."""
    def vec(rank, half=False):
        return {"r": rng.randint(-5, 5), "c": [rng.randint(-3, 3) for _ in range(rank)],
                "t": "%d/2" % rng.randint(-7, 7) if half else rng.randint(-7, 7)}

    def poly():
        return {"terms": [[rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-5, 5) or 1]
                          for _ in range(3)]}

    def stratum(s):
        mat = [[0] * s for _ in range(s)]
        for i in range(s):
            for j in range(i + 1, s):
                mat[i][j] = mat[j][i] = rng.randint(-3, 3)
        return {"pairings": mat, "factors": [poly() for _ in range(s)]}

    n, lg = rng.randint(3, 12), rng.randint(1, 3)
    fixtures = [json.loads(resources.files("mukailab").joinpath("fixtures/%s.json" % name)
                           .read_text())["job"]
                for name in ("pair", "wallsolve", "epoly", "dims", "gitweight")]
    return [(f["subcommand"], f.get("surface"), f["inputs"]) for f in fixtures] + [
        ("pair", K3U, {"v": vec(2), "w": vec(2)}),
        ("pair", {"kind": "enriques"}, {"v": vec(10, half=True), "w": vec(10, half=True)}),
        ("wallsolve", {"kind": "k3", "gram": [[2, 0], [0, -2 * n]], "basis": ["h", "d"],
                       "polarization": [1, 0]},
         {"v": {"r": 2, "c": [0, 0], "t": 1 - 2 * n}, "v_sub": {"r": 1, "c": [0, 1], "t": -n},
          "H": [1, 0], "dir": [0, 1]}),
        ("epoly", None, {"base": poly(), "strata": [stratum(rng.randint(2, 3)) for _ in range(2)]}),
        ("dims", K3U, {"v": vec(2), "flavor": rng.choice(("stack", "coarse"))}),
        ("dims", {"kind": "enriques"}, {"v": vec(10, half=True)}),
        ("gitweight", None, {
            "data": {"h_m": rng.randint(5, 30), "h_i_m": [rng.randint(0, 4) for _ in range(lg)],
                     "eps_i": ["%d/7" % rng.randint(0, 3) for _ in range(lg)],
                     "a1": rng.randint(1, 5), "n": rng.randint(2, 9)},
            "dims": {"dimV": rng.randint(4, 12), "dimVp": rng.randint(1, 4),
                     "dim_alpha_VW": rng.randint(10, 50), "dim_alpha_VpW": rng.randint(0, 20),
                     "dim_alpha_i_V": [rng.randint(0, 5) for _ in range(lg)],
                     "dim_V_i": [rng.randint(0, 3) for _ in range(lg)]}}),
    ]


def test_other_subcommands_fuzz_exits_cleanly():
    # seeded random mutations of the bundled pair, wallsolve, epoly, dims and
    # gitweight fixtures and of the benchmark's cli-batch shapes through
    # cli.run: every run ends with 0 ok / 1 domain error / 2 parse error /
    # 3 invariant failure, quickly
    rng = random.Random(20261019)
    surfaces = (K3U, {"kind": "enriques"}, ELLIPTIC, ELLIPTIC_K3, RANK3, dict(K3U, kind="abelian"),
                dict(K3U, gram=[[0, 1], [1]]), None, "x", {"kind": "k3"})
    codes = set()
    for _ in range(800):
        sub, surface, inputs = rng.choice(_other_jobs(rng))
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            if rng.random() < 0.15:
                surface = rng.choice(surfaces)
            else:
                inputs = _mutate(rng, inputs)
        job = JobSpec(sub, surface=surface, inputs=inputs,
                      output_format=rng.choice(("json", "tsv")))
        start = time.perf_counter()
        code, out = run_job(job)
        assert code in (0, 1, 2, 3), (job, out)
        assert time.perf_counter() - start < 1.0, job
        codes.add((sub, code))
    assert codes == {(sub, code) for sub in ("pair", "wallsolve", "epoly", "dims", "gitweight")
                     for code in (0, 1, 2)}
