"""The run file is declared once: an omitted key loads to the default of the
dataclass that uses it, and README's run-file reference matches what
``config`` reads."""

import configparser
import re
from dataclasses import fields
from pathlib import Path

import pytest

from nablats import config
from nablats.config import ReportConfig, load_config
from nablats.solver import SolveOptions
from nablats.variational import Problem

REQUIRED = {
    "timescale": {"family": "integers", "a": "0", "b": "4"},
    "problem": {"n": "1", "L": "-(v1^2) - x1^2", "x_a": "1.0"},
    "solve": {"T_trunc": "4"},
}
#: each optional key of [problem], [solve] and [report] at a value other than
#: its default where one is accepted (gradient and precondition take one value)
OPTIONAL = {
    "problem": {"sense": "min"},
    "solve": {"terminal": "pinned: 0.5", "max_iters": "7", "step_init": "0.5", "grad_tol": "1e-8",
              "gradient": "analytic", "precondition": "true"},
    "report": {"tolerance": "1e-3", "trajectory_out": "a.csv", "horizon_out": "b.csv",
               "report_out": "c.csv"},
}
#: the dataclass that owns each section's defaults, and a key's field where its name differs
OWNER = {"problem": Problem, "solve": SolveOptions, "report": ReportConfig}
FIELD = {"terminal": "terminal_mode"}


def load(tmp_path, sections):
    path = tmp_path / "run.ini"
    path.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                            for name, keys in sections.items()))
    return load_config(path)


def default(cls, name):
    return next(f.default for f in fields(cls) if f.name == name)


@pytest.mark.parametrize("section, key", [(s, k) for s, keys in OPTIONAL.items() for k in keys])
def test_an_omitted_key_loads_to_its_dataclass_default(tmp_path, section, key):
    sections = {name: {**REQUIRED.get(name, {}), **OPTIONAL.get(name, {})} for name in (*REQUIRED, "report")}
    del sections[section][key]
    rc = load(tmp_path, sections)
    loaded = {"problem": rc.problem, "solve": rc.options, "report": rc.report}[section]
    name = FIELD.get(key, key)
    assert getattr(loaded, name) == default(OWNER[section], name)


@pytest.mark.parametrize("report", [None, {}])
def test_a_run_file_without_optional_keys_loads_the_dataclass_defaults(tmp_path, report):
    sections = dict(REQUIRED) if report is None else {**REQUIRED, "report": report}
    rc = load(tmp_path, sections)
    assert rc.options == SolveOptions(T_trunc=4.0)
    assert rc.report == ReportConfig()
    assert rc.problem.sense == default(Problem, "sense")


# -- README's run-file reference -------------------------------------------


def readme_block() -> str:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return re.search(r"### Run file format\n.*?```ini\n(.*?)```", text, re.S).group(1)


def chunks(block) -> dict[str, str]:
    """The block's lines by section."""
    return dict(re.findall(r"^\[(\w+)\]\n(.*?)(?=^\[|\Z)", block, re.S | re.M))


def stated_defaults(block) -> dict[tuple[str, str], tuple[str, str]]:
    """(section, key): (the key's line, its stated default) for every line,
    commented or not, whose comment ends ``default X``."""
    found = {}
    for section, lines in chunks(block).items():
        for line in lines.splitlines():
            m = re.match(r"^[;\s]*(\w+) = .*; .*\bdefault (\S+)$", line)
            if m:
                found[section, m.group(1)] = line, m.group(2)
    return found


@pytest.fixture
def reads(monkeypatch):
    """Every (section, key, required) that ``config`` reads while loading."""
    seen, read = [], config._read
    monkeypatch.setattr(config, "_LOADED", {})

    def spy(cp, section, key, required=True):
        seen.append((section, key, required))
        return read(cp, section, key, required)

    monkeypatch.setattr(config, "_read", spy)
    return seen


def test_readme_names_every_key_config_reads(tmp_path, reads):
    block = readme_block()
    (tmp_path / "readme.ini").write_text(block)
    load_config(tmp_path / "readme.ini")  # the block is a run file of its own
    sections = chunks(block)
    for section, key, _ in reads:
        assert re.search(rf"^[;\s]*{key} = ", sections[section], re.M), (section, key)
    # the family line lists the families, and each one's keys are listed in call order
    family = re.search(r"^family = \w+\s+; (.*)$", sections["timescale"], re.M).group(1)
    assert family.split(" | ") == list(config._FAMILIES)
    listed = dict(re.findall(rf"\b({'|'.join(config._FAMILIES)}): (\w+(?:, \w+)*)", sections["timescale"]))
    assert {name: keys.split(", ") for name, keys in listed.items()} == {
        name: list(keys) for name, (_, keys) in config._FAMILIES.items()
    }


def test_readme_states_each_optional_key_s_default(tmp_path, reads):
    block = readme_block()
    (tmp_path / "readme.ini").write_text(block)
    load_config(tmp_path / "readme.ini")
    stated = stated_defaults(block)
    assert set(stated) == {(section, key) for section, key, required in reads if not required}
    values = configparser.ConfigParser(inline_comment_prefixes=(";",))
    values.read_string(block)
    for (section, key), (line, value) in stated.items():
        value = values[section].get(value, value)  # a default named by another key: its value
        omitted = block.replace(line + "\n", "")
        written = block.replace(line + "\n", f"{key} = {value}\n")
        (tmp_path / "omitted.ini").write_text(omitted)
        (tmp_path / "written.ini").write_text(written)
        assert load_config(tmp_path / "omitted.ini") == load_config(tmp_path / "written.ini"), key
