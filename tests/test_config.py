"""The run file is declared once: an omitted key loads to the default of the
dataclass that uses it, a section or key the tables do not declare is an
error, and README's run-file reference matches what ``config`` declares."""

import configparser
import re
from dataclasses import fields
from pathlib import Path

import pytest

from nablats import config
from nablats.config import ConfigError, ReportConfig, load_config
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
#: the dataclass that owns each section's defaults; a key is read to the field of its name
OWNER = {"problem": Problem, "solve": SolveOptions, "report": ReportConfig}


def ini(sections) -> str:
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


def load(tmp_path, sections):
    """The RunConfig of ``sections`` (a run file's text, or its keys by section)."""
    path = tmp_path / "run.ini"
    path.write_text(sections if isinstance(sections, str) else ini(sections))
    return load_config(path)


def default(cls, name):
    return next(f.default for f in fields(cls) if f.name == name)


@pytest.mark.parametrize("section, key", [(s, k) for s, keys in OPTIONAL.items() for k in keys])
def test_an_omitted_key_loads_to_its_dataclass_default(tmp_path, section, key):
    sections = {name: {**REQUIRED.get(name, {}), **OPTIONAL.get(name, {})} for name in (*REQUIRED, "report")}
    del sections[section][key]
    rc = load(tmp_path, sections)
    loaded = {"problem": rc.problem, "solve": rc.options, "report": rc.report}[section]
    assert getattr(loaded, key) == default(OWNER[section], key)


@pytest.mark.parametrize("report", [None, {}])
def test_a_run_file_without_optional_keys_loads_the_dataclass_defaults(tmp_path, report):
    sections = dict(REQUIRED) if report is None else {**REQUIRED, "report": report}
    rc = load(tmp_path, sections)
    assert rc.options == SolveOptions(T_trunc=4.0)
    assert rc.report == ReportConfig()
    assert rc.problem.sense == default(Problem, "sense")


# -- what the tables do not declare -----------------------------------------

#: every section, each with its required keys and one optional key
FULL = {**REQUIRED, "problem": {**REQUIRED["problem"], "sense": "max"},
        "solve": {**REQUIRED["solve"], "grad_tol": "1e-9"}, "report": {"tolerance": "1e-6"}, "quad": {"f": "1"}}


def refused(tmp_path, sections) -> str:
    """The message of the ConfigError that loading ``sections`` raises."""
    with pytest.raises(ConfigError) as exc:
        load(tmp_path, sections)
    return str(exc.value)


@pytest.mark.parametrize("section, stray", [
    ("timescale", "bogus"), ("problem", "sence"), ("solve", "grad_tl"), ("report", "tolerence"), ("quad", "g"),
])
def test_a_stray_key_in_each_section_is_refused_by_name(tmp_path, section, stray):
    sections = {name: dict(keys) for name, keys in FULL.items()}
    load(tmp_path, sections)  # the file without the stray key loads
    sections[section][stray] = "1"
    keys = {"timescale": "family, a, b", "problem": "n, L, g, x_a, sense",
            "solve": "T_trunc, terminal, max_iters, step_init, grad_tol, gradient, precondition, truncations",
            "report": "tolerance, trajectory_out, horizon_out, report_out", "quad": "f"}[section]
    assert refused(tmp_path, sections) == f"unknown key '{stray}' in section [{section}]; its keys are {keys}"


@pytest.mark.parametrize("family, keys, stray", [
    ("integers", "a = 0\nb = 4\n", "h = 0.5"),
    ("uniform", "a = 0\nb = 4\nh = 0.5\n", "n = 8"),
    ("q_scale", "q = 2\nt0 = 1\ncount = 5\n", "b = 4"),
])
def test_a_key_left_over_from_another_family_is_refused(tmp_path, family, keys, stray):
    text = f"[timescale]\nfamily = {family}\n{keys}"
    load(tmp_path, text)  # the file without the stray key loads
    declared = ", ".join(["family", *config._FAMILIES[family][1]])
    assert refused(tmp_path, f"{text}{stray}\n") == (
        f"unknown key '{stray.split()[0]}' in section [timescale]; its keys are {declared}"
    )


def test_a_default_key_counts_as_a_key_of_every_section(tmp_path):
    # configparser reads [DEFAULT] keys into every section, so the first
    # section that does not declare one refuses it
    text = "[DEFAULT]\ngrad_tol = 1e-12\n[timescale]\nfamily = integers\na = 0\nb = 4\n"
    assert refused(tmp_path, text).startswith("unknown key 'grad_tol' in section [timescale];")
    # and a section that declares it reads it
    assert len(load(tmp_path, "[DEFAULT]\na = 0\n[timescale]\nfamily = integers\nb = 4\n").timescale) == 5


@pytest.mark.parametrize("name", ["reprot", "Report", "DEFAULTS", "solver"])
def test_a_misspelled_section_is_refused_by_name(tmp_path, name):
    text = "[timescale]\nfamily = integers\na = 0\nb = 4\n" + f"[{name}]\ntolerance = 1e-12\n"
    assert refused(tmp_path, text) == f"unknown section [{name}]; the sections are timescale, problem, solve, report, quad"


@pytest.mark.parametrize("terminal, loaded", [
    ("free", None), ("FREE", None), ("pinned: 0.5", (0.5,)), ("Pinned : 0.5,", (0.5,)),
])
def test_terminal_is_free_or_pinned_with_its_values(tmp_path, terminal, loaded):
    rc = load(tmp_path, {**REQUIRED, "solve": {**REQUIRED["solve"], "terminal": terminal}})
    assert rc.options.terminal == loaded


@pytest.mark.parametrize("terminal, message", [
    ("pinnedness: 0.5", "[solve] terminal = 'pinnedness: 0.5' must be 'free' or 'pinned: v1, ..., vn'"),
    ("pinned 0.5", "[solve] terminal = 'pinned 0.5' must be 'free' or 'pinned: v1, ..., vn'"),
    ("freely", "[solve] terminal = 'freely' must be 'free' or 'pinned: v1, ..., vn'"),
    ("pinned:", "[solve] terminal pinned values: empty list"),
    ("pinned: 0.5, x", "[solve] terminal pinned values: ' 0.5, x' is not a comma-separated number list"),
    ("pinned: nan", "[solve]: pinned terminal values must be finite"),
])
def test_any_other_terminal_is_refused(tmp_path, terminal, message):
    assert refused(tmp_path, {**REQUIRED, "solve": {**REQUIRED["solve"], "terminal": terminal}}) == message


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


def test_readme_names_exactly_the_keys_config_declares():
    # read from the tables, so a commented line counts too: the other
    # families' keys and the gradient and precondition of older files
    sections = chunks(readme_block())
    named = {(section, key) for section, lines in sections.items()
             for key in re.findall(r"^[;\s]*(\w+) = ", lines, re.M)}
    lists = re.findall(rf"\b(?:{'|'.join(config._FAMILIES)}): (\w+(?:, \w+)*)", sections["timescale"])
    named |= {("timescale", key) for keys in lists for key in keys.split(", ")}
    assert {("solve", "gradient"), ("solve", "precondition"), ("timescale", "count")} <= named
    declared = {("timescale", "family")} | {
        ("timescale", key) for _, keys in config._FAMILIES.values() for key in keys
    } | {(section, key) for section, (keys, _) in config._SECTIONS.items() for key in keys}
    assert named == declared


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
