import copy
import dataclasses
import json
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entromax.blocks import BlockKind
from entromax.catalog import reference
from entromax.cli import main
from entromax.fileio import (
    ParseError,
    _file_fields,
    dumps,
    load_json,
    network_from_dict,
    network_to_dict,
    problem_from_dict,
    problem_to_dict,
    read_network,
    read_problem,
    solve_report_to_dict,
    write_network,
)
from entromax.model import NetworkSpec, StageSpec, StemSpec
from entromax.solver import Candidate, ProblemSpec, SolveReport

NETS = ("resnet18", "resnet34", "resnet50", "mobilenet_v2", "efficientnet_b0")
PROBLEMS = ("resnet18_scale", "resnet34_scale", "resnet50_scale",
            "efficientnet_b0_scale", "mobilenet_scale")
SCHEMAS = {p.name: json.loads(p.read_text())
           for p in (Path(__file__).parents[1] / "docs").glob("*.schema.json")}


def shipped(package: str, name: str) -> str:
    return resources.files(f"entromax.data.{package}").joinpath(f"{name}.json").read_text()


# (reader, writer, text) of every catalog net and shipped problem
DOCUMENTS = ([(network_from_dict, network_to_dict, shipped("architectures", n)) for n in NETS]
             + [(problem_from_dict, problem_to_dict, shipped("problems", n)) for n in PROBLEMS])


def test_network_file_round_trip(tmp_path):
    net = reference("efficientnet_b0").spec
    path = tmp_path / "net.json"
    write_network(net, path)
    assert read_network(path) == net
    # canonical serialization is byte-stable
    write_network(read_network(path), tmp_path / "again.json")
    assert path.read_text() == (tmp_path / "again.json").read_text()


def test_unknown_fields_rejected_by_default():
    obj = network_to_dict(reference("resnet18").spec)
    obj["favourite_color"] = "green"
    with pytest.raises(ParseError, match="unknown fields"):
        network_from_dict(obj)
    assert network_from_dict(obj, allow_unknown=True) == reference("resnet18").spec


def test_unknown_stage_fields_rejected():
    obj = network_to_dict(reference("resnet18").spec)
    obj["stages"][0]["padding"] = 1
    with pytest.raises(ParseError, match=r"stages\[0\]"):
        network_from_dict(obj)


def test_allow_unknown_applies_at_every_level():
    obj = network_to_dict(reference("mobilenet_v2").spec)
    obj["stem"]["padding"] = 1
    obj["stages"][2]["block"]["activation"] = "relu6"
    with pytest.raises(ParseError, match=r"architecture\.stem: unknown fields"):
        network_from_dict(obj)
    assert network_from_dict(obj, allow_unknown=True) == reference("mobilenet_v2").spec


@pytest.mark.parametrize("bounds", [[8], [8, 16, 24]])
def test_bound_pairs_must_have_two_entries(bounds):
    doc = json.loads(shipped("problems", "resnet18_scale"))
    doc["depth_bounds"][1] = bounds
    with pytest.raises(ParseError, match=r"problem\.depth_bounds\[1\]: expected 2 entries"):
        problem_from_dict(doc)


def test_missing_fields_reported():
    obj = network_to_dict(reference("resnet18").spec)
    del obj["stem"]
    with pytest.raises(ParseError, match="missing fields"):
        network_from_dict(obj)


def test_wrong_format_tag_rejected():
    obj = network_to_dict(reference("resnet18").spec)
    obj["format"] = "other"
    with pytest.raises(ParseError, match="format"):
        network_from_dict(obj)


def test_wrong_version_rejected():
    obj = network_to_dict(reference("resnet18").spec)
    obj["version"] = 99
    with pytest.raises(ParseError, match="version"):
        network_from_dict(obj)


def test_parse_error_carries_line_context(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "format": "entromax-architecture",\n  oops\n}\n')
    with pytest.raises(ParseError, match="line 3"):
        load_json(path)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_numbers_raise_parse_error(tmp_path, literal):
    path = tmp_path / "problem.json"
    doc = dict(json.loads(shipped("problems", "resnet18_scale")), rho0="@")
    path.write_text(json.dumps(doc).replace('"@"', literal))
    with pytest.raises(ParseError, match=f"{literal} is not a finite number"):
        load_json(path)


def test_dumps_refuses_non_finite_numbers():
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            dumps({"objective": value})


def test_problem_round_trip(tmp_path):
    from importlib import resources

    src = resources.files("entromax.data.problems").joinpath("resnet18_scale.json")
    with resources.as_file(src) as p:
        prob = read_problem(p)
    again = problem_from_dict(problem_to_dict(prob))
    assert again == prob


def test_shipped_problems_parse_and_check():
    from importlib import resources

    for name in ("resnet18_scale", "resnet34_scale", "resnet50_scale",
                 "efficientnet_b0_scale", "mobilenet_scale"):
        src = resources.files("entromax.data.problems").joinpath(f"{name}.json")
        with resources.as_file(src) as p:
            prob = read_problem(p)
        assert prob.stages == len(prob.alphas)


def test_solve_report_serialization_omits_wall_time():
    report = SolveReport(
        best=Candidate((8, 16), (1, 2)), objective=12.5, feasible=True,
        slacks={"rho": 0.1, "flops": 10, "params": 20}, restarts_used=4,
        evaluations=100, wall_time=1.23)
    doc = solve_report_to_dict(report)
    assert "wall_time" not in json.dumps(doc)
    assert doc["best"] == {"widths": [8, 16], "depths": [1, 2]}
    assert doc["objective"] == 12.5


def test_dumps_ends_with_newline():
    assert dumps({"a": 1}).endswith("\n")


@pytest.mark.parametrize("parse, write, text", DOCUMENTS, ids=NETS + PROBLEMS)
def test_shipped_documents_round_trip_byte_identically(parse, write, text):
    assert dumps(write(parse(json.loads(text)))) == text


# --- the reader against the external schemas --------------------------------------

def _resolve(node: dict, schema_file: str) -> tuple[dict, str]:
    while "$ref" in node:
        target, _, pointer = node["$ref"].partition("#")
        schema_file = target or schema_file
        node = SCHEMAS[schema_file]
        for part in filter(None, pointer.split("/")):
            node = node[part]
    return node, schema_file


def _schema_at(path, schema_file: str) -> dict:
    """The schema node describing the value at `path` in a document."""
    node = SCHEMAS[schema_file]
    for key in path:
        node, schema_file = _resolve(node, schema_file)
        node = node["items"] if isinstance(key, int) else node["properties"][key]
    return _resolve(node, schema_file)[0]


@pytest.mark.parametrize("cls, schema_file, path", [
    (NetworkSpec, "architecture.schema.json", ()),
    (StemSpec, "architecture.schema.json", ("stem",)),
    (StageSpec, "architecture.schema.json", ("stages", 0)),
    (BlockKind, "architecture.schema.json", ("stages", 0, "block")),
    (ProblemSpec, "problem.schema.json", ()),
    (StemSpec, "problem.schema.json", ("stem",)),
    (BlockKind, "problem.schema.json", ("block",)),
])
def test_schemas_match_the_fields_the_reader_reads(cls, schema_file, path):
    node = _schema_at(path, schema_file)
    header = {"format", "version"} if not path else set()
    hints, required = _file_fields(cls)
    assert set(node["properties"]) == hints.keys() | header
    assert set(node.get("required", ())) == required | header
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    for name, prop in node["properties"].items():
        if "default" in prop:
            assert prop["default"] == defaults[name], name


# --- wrongly typed values -------------------------------------------------------

def _paths(value, prefix=()):
    """Every value's path below the document root, containers included."""
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _wrong_values(value, schema: dict) -> list:
    """JSON values of another type than `value`, in a slot typed by `schema`."""
    if isinstance(value, bool):
        return ["no", 1]
    if isinstance(value, (int, float)):
        wrong = [True, str(value), {}]
        if isinstance(value, int) and "number" not in schema.get("type", ()):
            wrong.append(value + 0.5)
        return wrong
    if isinstance(value, str):
        return [1, False]
    if isinstance(value, list):
        return [{}, "x"]
    if isinstance(value, dict):
        return [[], 1]
    return [True, "x"]  # null where an optional value may be


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_wrongly_typed_value_raises_parse_error(data):
    parse, _, text = data.draw(st.sampled_from(DOCUMENTS))
    doc = json.loads(text)
    path = data.draw(st.sampled_from(list(_paths(doc))))
    schema_file = doc["format"].removeprefix("entromax-") + ".schema.json"
    wrong = data.draw(st.sampled_from(_wrong_values(_get(doc, path),
                                                    _schema_at(path, schema_file))))
    bad = copy.deepcopy(doc)
    _get(bad, path[:-1])[path[-1]] = wrong
    with pytest.raises(ParseError):
        parse(bad)


@pytest.mark.parametrize("kind, path, value, field", [
    ("problem", ("rho0",), "0.5", "problem.rho0"),
    ("problem", ("width_bounds", 0, 1), "64", "problem.width_bounds[0][1]"),
    ("problem", ("downsample_schedule", 0), "no", "problem.downsample_schedule[0]"),
    ("problem", ("kernel",), True, "problem.kernel"),
    ("problem", ("max_flops",), 1.5e9, "problem.max_flops"),
    ("architecture", ("stages", 0, "depth"), True, "architecture.stages[0].depth"),
    ("architecture", ("stem", "pool"), "no", "architecture.stem.pool"),
])
def test_cli_reports_wrong_types_by_field(tmp_path, capsys, kind, path, value, field):
    doc = json.loads(shipped("problems", "resnet18_scale") if kind == "problem"
                     else shipped("architectures", "resnet18"))
    _get(doc, path[:-1])[path[-1]] = value
    src = tmp_path / "doc.json"
    src.write_text(json.dumps(doc))
    argv = (["solve", "--problem", str(src), "--out", str(tmp_path / "d.json")]
            if kind == "problem" else ["analyze", str(src)])
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {field}: expected")
