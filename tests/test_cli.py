"""Command-line interface: commands, exit codes, report formats."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from corpus import (
    SPEC_Q8SUM,
    SPEC_S3SUM,
    central_product_q8,
    json_values,
    spec_product,
    spec_symmetric,
)
from groupvna import characters, cli, groups
from groupvna.cli import run
from groupvna.errors import BudgetExceededError
from groupvna.jsonutil import Fragment, canonical_dumps


@pytest.fixture()
def specs(tmp_path):
    paths = {}
    docs = {
        "s3": spec_symmetric(3),
        "s5": spec_symmetric(5),
        "q8": {"family": "quaternion8"},
        "s3sum": SPEC_S3SUM,
        "q8sum": SPEC_Q8SUM,
        "s3xs3": spec_product(spec_symmetric(3), spec_symmetric(3)),
        "dinf": {"family": "dihedral_infinite"},
        "free2": {"family": "free", "rank": 2},
        "s3xc1": spec_product(spec_symmetric(3), {"family": "cyclic", "n": 1}),
        "s12": spec_symmetric(12),
        "trivsum": {"family": "restricted_sum", "factor": {"family": "cyclic", "n": 1}},
    }
    for name, doc in docs.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


def _run_json(capsys, argv):
    code = run(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_classify_command(specs, capsys):
    code, report = _run_json(capsys, ["classify", "--spec", specs["s3sum"],
                                      "--k", "2", "--epsilon", "0.05"])
    assert code == 0
    cert = report["results"]["certificate"]
    assert cert["verdict"] == "not_type_I"
    assert cert["growth"]["achieved_measure"] == {"num": 20, "den": 27}
    assert report["results"]["replay"]["passed"]


def test_classify_byte_identical_runs(specs, capsys):
    outputs = []
    for _ in range(2):
        code = run(["classify", "--spec", specs["s3sum"], "--seed", "0", "--format", "json"])
        assert code == 0
        outputs.append(json.loads(capsys.readouterr().out))
    certs = [json.dumps(o["results"]["certificate"], sort_keys=True) for o in outputs]
    assert certs[0] == certs[1]
    for o in outputs:
        del o["wall_time_ms"]
    assert json.dumps(outputs[0], sort_keys=True) == json.dumps(outputs[1], sort_keys=True)


def test_classify_inconclusive_exit_code(specs):
    assert run(["classify", "--spec", specs["free2"]]) == 3


def test_the_sum_of_copies_of_z_is_certified_abelian(tmp_path, capsys):
    # Z's one generator commutes with itself, so the sum is abelian: type I at index 1
    path = tmp_path / "zsum.json"
    path.write_text(json.dumps({"family": "restricted_sum",
                                "factor": {"family": "free", "rank": 1}}))
    code, report = _run_json(capsys, ["classify", "--spec", str(path)])
    assert code == 0
    cert = report["results"]["certificate"]
    assert cert["verdict"] == "type_I"
    assert cert["type_i_witness"] == {"kind": "family_metadata", "index": 1,
                                      "note": "group is abelian",
                                      "abelian_subgroup_generators": []}
    assert report["results"]["replay"]["passed"]
    assert run(["growth", "--spec", str(path)]) == 2  # still no tower of an infinite factor


@pytest.mark.parametrize("flag,value,field", [
    ("--max-levels", "0", "max_levels"),
    ("--max-levels", "-1", "max_levels"),
    ("--stream-budget", "0", "stream_budget"),
    ("--class-budget", "0", "class_budget"),
])
def test_classify_rejects_a_non_positive_limit(specs, capsys, flag, value, field):
    assert run(["classify", "--spec", specs["s3sum"], flag, value]) == 2
    assert field in capsys.readouterr().err


def test_spectrum_command(specs, capsys):
    code, report = _run_json(capsys, ["spectrum", "--spec", specs["s3"]])
    assert code == 0
    atoms = report["results"]["spectrum"]["atoms"]
    assert [(a["dim"], a["measure_num"], a["measure_den"]) for a in atoms] == [
        (1, 1, 6), (1, 1, 6), (2, 2, 3)]


def test_spectrum_requires_finite(specs, capsys):
    assert run(["spectrum", "--spec", specs["dinf"]]) == 2
    assert "error" in capsys.readouterr().err


def test_chartab_command(specs, capsys):
    code, report = _run_json(capsys, ["chartab", "--spec", specs["s3"]])
    assert code == 0
    table = report["results"]["table"]
    assert [r["degree"] for r in table["rows"]] == [1, 1, 2]
    assert report["results"]["orthogonality"]["max_row_residual"] == 0.0


def test_chartab_validates_once(specs, capsys, monkeypatch):
    calls = []
    original = characters.validate_orthogonality

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # character_table looks it up as a characters global, its only caller
    monkeypatch.setattr(characters, "validate_orthogonality", counted)
    code, report = _run_json(capsys, ["chartab", "--spec", specs["s3"]])
    assert code == 0 and report["results"]["orthogonality"]["exact"]
    assert len(calls) == 1


def test_spectrum_refuses_large_order_before_enumerating(specs, capsys):
    # S12 has 4.8e8 elements; the order is compared with the limit first
    assert run(["spectrum", "--spec", specs["s12"]]) == 2
    assert "exceeds the configured maximum" in capsys.readouterr().err


def test_trivial_factor_gets_a_verdict(specs, capsys):
    assert run(["spectrum", "--spec", specs["s3xc1"]]) == 0
    assert run(["lemma7", "--spec", specs["s3xc1"]]) == 0
    assert run(["growth", "--spec", specs["s3xc1"]]) == 3


def test_lemma6_command(specs, capsys):
    code, report = _run_json(capsys, ["lemma6", "--spec", specs["q8"]])
    assert code == 0
    assert report["results"]["nonabelian_measure"] == {"num": 1, "den": 2}
    assert report["results"]["bound_holds"]


def test_lemma7_command_product_default(specs, capsys):
    code, report = _run_json(capsys, ["lemma7", "--spec", specs["s3xs3"]])
    assert code == 0
    atoms = report["results"]["lemma7"]["supported_atoms"]
    assert atoms and all(a["dim"] == 4 for a in atoms)


def test_lemma7_command_explicit_generators(tmp_path, capsys):
    spec, h0, h1 = central_product_q8()
    path = tmp_path / "q8oq8.json"
    path.write_text(json.dumps(spec))
    code, report = _run_json(capsys, [
        "lemma7", "--spec", str(path),
        "--h0", json.dumps(h0), "--h1", json.dumps(h1),
    ])
    assert code == 0
    assert [a["dim"] for a in report["results"]["lemma7"]["supported_atoms"]] == [4]


def test_lemma7_needs_subgroups_for_non_product(specs, capsys):
    assert run(["lemma7", "--spec", specs["s3"]]) == 2


def test_growth_command(specs, capsys):
    code, report = _run_json(capsys, ["growth", "--spec", specs["s3sum"], "--k", "2"])
    assert code == 0
    g = report["results"]["growth"]
    assert g["levels_required"] == 3
    assert g["achieved_measure"] == {"num": 20, "den": 27}


def test_growth_no_witness_is_inconclusive(specs):
    assert run(["growth", "--spec", specs["s3sum"], "--k", "3", "--levels", "2"]) == 3


def test_growth_builds_levels_only_up_to_the_witness(specs, capsys, monkeypatch):
    _, expected = _run_json(capsys, ["growth", "--spec", specs["s3sum"], "--k", "2"])
    built = []
    original = cli.coordinate_subgroup

    def counting(handle, coord, budget=groups.DEFAULT_CLOSURE_BUDGET):
        built.append(coord)
        return original(handle, coord, budget)
    monkeypatch.setattr(cli, "coordinate_subgroup", counting)
    code, report = _run_json(capsys, ["growth", "--spec", specs["s3sum"], "--k", "2",
                                      "--levels", "100000"])
    assert code == 0 and built == [0, 1, 2]
    got, want = report["results"]["growth"], expected["results"]["growth"]
    assert (got.pop("cap"), want.pop("cap")) == (100000, 5)
    assert got == want and report["summary"] == expected["summary"]


def test_growth_refuses_a_large_tower_before_enumerating_it(specs, capsys, monkeypatch):
    # Q8^5 has 32768 elements: the levels meet trivially, so their spectra are
    # folded without closing anything larger than one level
    orders = []
    original = groups.generate_closure

    def recording(gens, budget=groups.DEFAULT_CLOSURE_BUDGET):
        closure = original(gens, budget)
        orders.append(closure.order)
        return closure
    monkeypatch.setattr(groups, "generate_closure", recording)
    assert run(["growth", "--spec", specs["q8sum"], "--k", "3", "--levels", "5"]) == 3
    assert "order: 32768" in capsys.readouterr().out
    assert orders and max(orders) <= 16
    # a level above the closure budget is a verification failure, as before
    assert run(["growth", "--spec", specs["s3sum"], "--k", "2", "--budget", "5"]) == 1
    assert "subgroup closure exceeded budget 5" in capsys.readouterr().err
    assert max(orders) <= 16


def _largest_search(monkeypatch) -> list:
    """The forms each `groups._bfs` search held when it returned or stopped."""
    sizes = []
    original = groups._bfs

    def spying(seeds, maps, budget=None):
        try:
            forms = original(seeds, maps, budget)
        except BudgetExceededError as e:
            sizes.append(e.partial_count)
            raise
        sizes.append(len(forms))
        return forms
    monkeypatch.setattr(groups, "_bfs", spying)
    return sizes


S8 = spec_symmetric(8)
S8_GENERATORS = json.dumps([[1, 0, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 0]])


@pytest.mark.parametrize("spec,argv,err", [
    ({"family": "restricted_sum", "factor": spec_symmetric(9)}, ["growth", "--k", "2"],
     "subgroup of restricted_sum(symmetric(9)) (infinite), order 362880"),
    (spec_product(S8, {"family": "cyclic", "n": 2}), ["lemma7"],
     "subgroup of product(symmetric(8), cyclic(2)) (order 80640), order 40320"),
    (S8, ["lemma7", "--h0", S8_GENERATORS, "--h1", "[[0, 1, 2, 3, 4, 5, 6, 7]]"],
     "subgroup of symmetric(8) (order 40320) generated by 2 elements"),
], ids=["growth-s9sum", "lemma7-s8xc2", "lemma7-s8-h0"])
def test_a_subgroup_past_max_order_is_refused_before_it_is_closed(tmp_path, capsys,
                                                                   monkeypatch, spec, argv, err):
    # a level's order is its factor's, known without closing it; a generated
    # subgroup's search stops at max_order, which class_data would refuse
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    sizes = _largest_search(monkeypatch)
    assert run([argv[0], "--spec", str(path), *argv[1:]]) == 2
    assert capsys.readouterr().err == f"error: {err} exceeds the configured maximum 5000\n"
    assert max(sizes, default=0) <= 5000
    # the closure budget is still checked first, with its own exit code
    assert run([argv[0], "--spec", str(path), *argv[1:], "--budget", "4000"]) == 1
    assert "subgroup closure exceeded budget 4000" in capsys.readouterr().err
    assert max(sizes, default=0) <= 5000


@pytest.mark.parametrize("command,spec,level", [
    ("growth", "s3sum", "coordinate 0 copy"),
    ("growth", "s3xs3", "factor 0"),
    ("lemma7", "s3xs3", "factor 0"),
])
def test_a_refused_level_is_named(specs, capsys, command, spec, level):
    args = ["--k", "2"] if command == "growth" else []
    assert run([command, "--spec", specs[spec], "--budget", "5", *args]) == 1
    assert capsys.readouterr().err == (f"verification failure: {level}: subgroup closure "
                                       "exceeded budget 5 (5 elements reached)\n")


DINF = {"family": "dihedral_infinite"}
C2SUM = {"family": "restricted_sum", "factor": {"family": "cyclic", "n": 2}}
DINFSUM = {"family": "restricted_sum", "factor": DINF}
F2 = {"family": "free", "rank": 2}


def _witness(generators):
    return {"index": 2, "generators": generators}


@pytest.mark.parametrize("spec,abf", [
    pytest.param(DINF, 5, id="5"),
    pytest.param(DINF, {"index": 1, "generators": []}, id="abf1"),
    pytest.param(DINF, _witness([["x", 0]]), id="dinf-string-entry"),
    pytest.param(DINF, _witness([[1]]), id="dinf-short-form"),
    pytest.param(DINF, _witness([5]), id="dinf-int-form"),
    pytest.param({"family": "free", "rank": 2}, _witness([[1, "a"]]), id="free2-string-letter"),
    pytest.param(C2SUM, _witness([[[0]]]), id="c2sum-short-pair"),
    pytest.param(C2SUM, _witness([[0, 1]]), id="c2sum-int-pair"),
    pytest.param(DINF, _witness(["10"]), id="dinf-string-form"),
    pytest.param(DINF, _witness([[1.0, 0]]), id="dinf-float-entry"),
    pytest.param(C2SUM, _witness([[[0, True]]]), id="c2sum-bool-entry"),
    pytest.param({"family": "free", "rank": 1}, {"index": True, "generators": [[1]]},
                 id="free1-bool-index"),
    # groups that are not virtually abelian refuse any witness
    pytest.param(spec_product(F2, {"family": "free", "rank": 1}), _witness([[[], [1]]]),
                 id="F2xZ"),
    pytest.param(DINFSUM, _witness([[[0, [1, 0]]]]), id="sumDinf"),
    pytest.param(DINFSUM, {"generators": [[[c, [1, 0]]] for c in range(10)], "index": 1024},
                 id="sumDinf-index-1024"),
    # the power test would raise y to 10^4 powers as words
    pytest.param(F2, {"generators": [[1]], "index": 10**12}, id="F2-index-1e12"),
])
def test_malformed_or_refutable_abelian_witness_exits_2(tmp_path, capsys, spec, abf):
    # the spec is refused while it is parsed, whatever the command
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**spec, "metadata": {"abelian_by_finite": abf}}))
    for command in cli._COMMANDS:
        assert run([command, "--spec", str(path)]) == 2, command
        assert "metadata.abelian_by_finite" in capsys.readouterr().err


def _nested_products(depth):
    return ('{"family": "product", "factors": [' * depth + '{"family": "cyclic", "n": 2}'
            + "]}" * depth)


@pytest.mark.parametrize("text,named", [
    pytest.param(_nested_products(3000), "nested too deeply to parse", id="product-3000-deep"),
    pytest.param(_nested_products(65), 'field "factors": group specs nested more than 64',
                 id="product-65-deep"),
    pytest.param('{"family": "symmetric", "n": 20000}', 'field "n"', id="s20000"),
    pytest.param('{"family": "free", "rank": 1000000}', 'field "rank"', id="free-rank-10^6"),
    pytest.param('{"family": "cyclic", "n": 1' + "0" * 5000 + "}", "cannot be read",
                 id="int-5001-digits"),
    pytest.param('{"family": "heisenberg", "p": 1' + "0" * 4000 + "}",
                 "the group order is more than 10^11999", id="order-12001-digits"),
    pytest.param(b'\xff\xfe{"family"', "cannot be read", id="not-utf8"),
])
def test_spec_boundary_exits_2(tmp_path, capsys, text, named):
    # refused while the spec is read, whatever the command, without printing the order
    path = tmp_path / "spec.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    for command in cli._COMMANDS:
        assert run([command, "--spec", str(path)]) == 2, command
        err = capsys.readouterr().err
        assert named in err and len(err) < 400, (command, err[:400])


def test_a_huge_order_is_refused_without_printing_it(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_symmetric(1000)))
    assert run(["spectrum", "--spec", str(path)]) == 2
    err = capsys.readouterr().err
    assert "(order more than 10^2567)" in err and "exceeds the configured maximum" in err
    assert len(err) < 300


def test_a_product_nested_64_deep_is_a_group(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(_nested_products(64))
    code, report = _run_json(capsys, ["spectrum", "--spec", str(path)])
    assert code == 0
    assert report["results"]["spectrum"]["atoms"]


# sha256 of the `lemma10 --k 6 --format json` reports without wall_time_ms,
# measured while the scan still re-proved K stable for every rejected element
@pytest.mark.parametrize("spec,digest", [
    (SPEC_S3SUM, "a67b2e4b59d21306bd400535bc59541ecf84f664d65d7f24c26e485dffb39941"),
    (SPEC_Q8SUM, "96367285aacbc18083c2f03b75b247111915f72c5e3af68a1b651fbc64970cbf"),
], ids=["s3sum", "q8sum"])
def test_lemma10_bytes_pinned(tmp_path, capsys, spec, digest):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run(["lemma10", "--spec", str(path), "--k", "6", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["wall_time_ms"]
    assert hashlib.sha256(canonical_dumps(report).encode()).hexdigest() == digest


@pytest.mark.parametrize("h0", ["[[0,1]]", "[5]", "[null]", '[["012","012"]]',
                                '[[[0,1,2],[true,false,2]]]', '[[[0,1,2],[1.0,0,2]]]'])
def test_malformed_subgroup_generator_exits_2(specs, capsys, h0):
    assert run(["lemma7", "--spec", specs["s3xs3"], "--h0", h0,
                "--h1", "[[[0,1,2],[1,0,2]]]"]) == 2
    assert "--h0" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    spec_product({"family": "free", "rank": 1}, spec_symmetric(3)),
    spec_product(DINF, {"family": "cyclic", "n": 2}),
    spec_product({"family": "free", "rank": 2}, spec_symmetric(3)),
    {"family": "restricted_sum", "factor": {"family": "free", "rank": 1}},
], ids=["ZxS3", "DinfxC2", "F2xS3", "Zsum"])
def test_infinite_factor_is_refused_before_closing_anything(tmp_path, capsys, monkeypatch,
                                                              spec):
    # closing an infinite factor could only stop at the 10^6 closure budget
    calls = []
    original = groups.generate_closure

    def recording(gens, budget=groups.DEFAULT_CLOSURE_BUDGET):
        calls.append(budget)
        return original(gens, budget)
    monkeypatch.setattr(groups, "generate_closure", recording)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    commands = ["growth"] if spec["family"] == "restricted_sum" else ["growth", "lemma7"]
    for command in commands:
        assert run([command, "--spec", str(path)]) == 2
        assert "is infinite" in capsys.readouterr().err
    assert calls == []


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from([DINF, {"family": "free", "rank": 2}, C2SUM]),
       generators=st.lists(json_values(3), max_size=3))
def test_fuzzed_abelian_witness_generators_never_crash(tmp_path_factory, family, generators):
    path = tmp_path_factory.mktemp("fuzz") / "spec.json"
    path.write_text(json.dumps({**family, "metadata": {"abelian_by_finite": _witness(generators)}}))
    assert run(["classify", "--spec", str(path), "--class-budget", "50"]) in (0, 1, 2, 3)


@settings(max_examples=60, deadline=None)
@given(h0=st.lists(json_values(3), max_size=3))
def test_fuzzed_subgroup_generators_never_crash(tmp_path_factory, h0):
    path = tmp_path_factory.mktemp("fuzz") / "s3xs3.json"
    path.write_text(json.dumps(spec_product(spec_symmetric(3), spec_symmetric(3))))
    code = run(["lemma7", "--spec", str(path), "--h0", json.dumps(h0),
                "--h1", "[[[0,1,2],[1,0,2]]]"])
    assert code in (0, 1, 2, 3)


FAMILY_NAMES = ["symmetric", "cyclic", "dihedral", "dihedral_infinite", "quaternion8",
                "heisenberg", "cayley", "product", "restricted_sum", "free", "no_such_family"]
# sizes are small, so every group that is built is tiny or refused by max_order
SPEC_SCALARS = (st.none() | st.booleans() | st.integers(-2, 4) | st.floats(-2, 4)
                | st.text(max_size=3) | st.sampled_from([10**6, 2**63, 10**40]))


def _spec_documents(values):
    # the field names of every family, and of the metadata object
    fields = ("n", "p", "rank", "factor", "factors", "table", "metadata",
              "fc_center", "abelian_by_finite", "index", "generators")
    return st.fixed_dictionaries({"family": st.sampled_from(FAMILY_NAMES)},
                                 optional={name: values for name in fields})


SPEC_DOCUMENTS = st.recursive(
    _spec_documents(SPEC_SCALARS),
    lambda specs: _spec_documents(SPEC_SCALARS | specs | st.lists(SPEC_SCALARS | specs,
                                                                  max_size=3)),
    max_leaves=6)


@settings(max_examples=100, deadline=None)
@given(doc=SPEC_DOCUMENTS)
def test_fuzzed_spec_documents_never_crash(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "spec.json"
    path.write_text(json.dumps(doc))
    for argv in (["spectrum"], ["fc", "--count", "3"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(argv + ["--spec", str(path)])
        assert code in (0, 1, 2, 3), (argv, doc)
        assert "Traceback" not in err.getvalue(), (argv, doc)


def test_lemma10_command(specs, capsys):
    code, report = _run_json(capsys, ["lemma10", "--spec", specs["s3sum"], "--k", "5"])
    assert code == 0
    w = report["results"]["witness"]
    assert w["complete"] and len(w["levels"]) == 5
    assert w["checks"]["pairwise_commuting"]


def test_fc_command(specs, capsys):
    code, report = _run_json(capsys, ["fc", "--spec", specs["dinf"], "--count", "10",
                                      "--class-budget", "500"])
    assert code == 0
    verdicts = report["results"]["verdicts"]
    assert len(verdicts) == 10
    kinds = {v["describe"]: v["verdict"] for v in verdicts}
    assert kinds["t^1"] == "fc" and kinds["s"] == "not_fc_evidence"


def test_icc_command(specs, capsys):
    code, report = _run_json(capsys, ["icc-check", "--spec", specs["free2"],
                                      "--count", "53", "--class-budget", "300"])
    assert code == 0
    assert report["results"]["icc"]["gram_is_identity"]


def test_icc_command_fails_on_fc_contradiction(specs, capsys):
    assert run(["icc-check", "--spec", specs["dinf"], "--class-budget", "200"]) == 1
    assert "not icc" in capsys.readouterr().err


def test_enumeration_of_a_group_with_endless_alphabet_blocks_ends(specs, capsys):
    # the restricted sum of the trivial group has order 1, but its alphabet
    # blocks never run out: the enumeration stops at the order
    code, report = _run_json(capsys, ["fc", "--spec", specs["trivsum"]])
    assert code == 0
    assert [v["verdict"] for v in report["results"]["verdicts"]] == ["fc"]
    assert run(["icc-check", "--spec", specs["trivsum"]]) in (0, 1, 2, 3)


def test_usage_errors(specs, capsys):
    assert run(["bogus", "--spec", specs["s3"]]) == 2
    assert run(["lemma6", "--spec", specs["s3"], "--bogus-flag"]) == 2
    assert run(["lemma6", "--spec", "/nonexistent/path.json"]) == 2
    capsys.readouterr()


def test_malformed_spec_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"family": "symmetric"}')
    assert run(["spectrum", "--spec", str(bad)]) == 2
    assert '"n"' in capsys.readouterr().err


def test_contradictory_metadata_is_usage_error(tmp_path, capsys):
    # an index-1 abelian subgroup, declared against the family, would make the S3 sum type_I
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**SPEC_S3SUM, "metadata": {
        "abelian_by_finite": {"index": 1, "generators": []}}}))
    assert run(["classify", "--spec", str(bad)]) == 2
    assert '"metadata.abelian_by_finite"' in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["x", 1.5, True], ids=["string", "float", "bool"])
def test_non_integer_cayley_entry_is_usage_error(tmp_path, capsys, entry):
    # the entry stands where 1 belongs: 1.5 and True used to be read as 1 and
    # accepted, "x" ended in a traceback
    table = [[0, 1], [entry, 0]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"family": "cayley", "table": table}))
    assert run(["chartab", "--spec", str(bad)]) == 2
    assert '"table"' in capsys.readouterr().err


def test_json_report_round_trips(specs, capsys):
    code, report = _run_json(capsys, ["lemma6", "--spec", specs["q8"]])
    assert code == 0
    assert json.loads(json.dumps(report)) == report


def test_text_and_json_numeric_parity(specs, capsys):
    code = run(["growth", "--spec", specs["s3sum"], "--k", "2"])
    text = capsys.readouterr().out
    assert code == 0
    code, report = _run_json(capsys, ["growth", "--spec", specs["s3sum"], "--k", "2"])
    assert code == 0
    g = report["results"]["growth"]
    assert f"{g['achieved_measure']['num']}/{g['achieved_measure']['den']}" in text
    assert f"levels_required: {g['levels_required']}" in text
    assert str(g["dim_threshold"]) in text


# sha256 of the `chartab` text report without its wall_time_ms line; D20 and
# C72 measured while the text report still parsed each row back from its JSON
@pytest.mark.parametrize("spec,digest", [
    # the text rendering of 14,400 [re, im] character values, byte for byte
    (spec_product({"family": "cyclic", "n": 10}, {"family": "cyclic", "n": 12}),
     "d67bcbd63c8f909f292f4af02b80bce01c09295b2729b8e1f04a485c4e5cc8a7"),
    ({"family": "dihedral", "n": 20},
     "e1503f633b588f6aa4148ef0eb3fce02d2b1d810ddd76afe959e1a1f4b8380ba"),
    ({"family": "cyclic", "n": 72},  # float character values: exponent 72 > 64
     "350906fc4944f840c2cbe2da969a30b828185ea61dca071aafb940dc81eea9b0"),
], ids=["C10xC12", "D20", "C72"])
def test_chartab_text_report_pinned(tmp_path, capsys, spec, digest):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run(["chartab", "--spec", str(path)]) == 0
    lines = [line for line in capsys.readouterr().out.split("\n")
             if not line.startswith("wall_time_ms:")]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


@pytest.mark.parametrize("value", [
    [[1.0, 0.0], [-0.5, 2.5], [1.0, 0.0]],
    [[0.5], [], [0.5]],
    [1, 2.5, None, 1],
    [[1, [2]], [3]],
    [{"num": 1, "den": 2}, [3.0, "x"]],
], ids=["pairs", "ragged", "scalars", "nested", "mixed"])
def test_a_list_fragment_renders_as_its_value(value):
    # the text of each distinct element is decoded once; the lines must be
    # those of the decoded list
    got, want = [], []
    cli._render_value(Fragment.of_list(canonical_dumps(x) for x in value), "  ", got, "values")
    cli._render_value(value, "  ", want, "values")
    assert got == want


def test_cross_process_certificate_determinism(specs):
    import os
    outs = []
    for hash_seed in ("1", "20394"):
        proc = subprocess.run(
            [sys.executable, "-m", "groupvna", "classify", "--spec", specs["s3sum"],
             "--format", "json"],
            capture_output=True, text=True, timeout=180,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert proc.returncode == 0
        outs.append(json.dumps(json.loads(proc.stdout)["results"]["certificate"],
                               sort_keys=True))
    assert outs[0] == outs[1]


def test_console_entry_point(specs):
    proc = subprocess.run(
        [sys.executable, "-m", "groupvna.cli", "lemma6", "--spec", specs["q8"],
         "--format", "json"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["results"]["bound_holds"]


def test_fc_command_fails_when_a_finite_class_refutes_the_declaration(tmp_path, capsys):
    # C3 declared icc: every element has a finite class, which proves it in G^fin
    path = tmp_path / "c3.json"
    path.write_text(json.dumps({"family": "cyclic", "n": 3, "metadata": {"fc_center": "trivial"}}))
    code, report = _run_json(capsys, ["fc", "--spec", str(path), "--count", "3"])
    assert code == 1 and not report["pass"]
    assert "declared outside G^fin" in report["summary"]
    # D-infinity declared all of G^fin: the reflection's exhausted budget is evidence only
    path.write_text(json.dumps({"family": "dihedral_infinite", "metadata": {"fc_center": "all"}}))
    code, report = _run_json(capsys, ["fc", "--spec", str(path), "--count", "10",
                                      "--class-budget", "500"])
    assert code == 0
    assert "not_fc_evidence" in {v["verdict"] for v in report["results"]["verdicts"]}
