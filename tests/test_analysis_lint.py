"""Simulator-aware lint pass: every rule, suppression, JSON, clean tree."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.lint import (RULES, Finding, lint_paths, lint_source,
                                 render_findings, rule_range)

REPO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def rules_of(source: str) -> list[str]:
    return [f.rule for f in lint_source(source)]


class TestWallClockRule:
    def test_time_time_flagged(self):
        assert rules_of("import time\nt = time.time()\n") == ["REPRO001"]

    def test_perf_counter_flagged(self):
        assert rules_of("import time\nt = time.perf_counter()\n") == ["REPRO001"]

    def test_datetime_now_flagged(self):
        src = "import datetime\nd = datetime.datetime.now()\n"
        assert rules_of(src) == ["REPRO001"]

    def test_simulated_time_not_flagged(self):
        assert rules_of("def f(sim):\n    return sim.now\n") == []

    def test_unrelated_time_attribute_not_flagged(self):
        assert rules_of("t = event.time\n") == []


class TestFloatEqualityRule:
    def test_float_eq_on_fs_quantity_flagged(self):
        src = "def f(done_fs):\n    return done_fs == 1.5\n"
        assert rules_of(src) == ["REPRO002"]

    def test_not_eq_also_flagged(self):
        src = "def f(x):\n    return x.ready_fs != 0.0\n"
        assert rules_of(src) == ["REPRO002"]

    def test_int_comparison_allowed(self):
        assert rules_of("def f(done_fs):\n    return done_fs == 0\n") == []

    def test_float_eq_on_unsuffixed_name_allowed(self):
        assert rules_of("def f(ratio):\n    return ratio == 1.5\n") == []


class TestUnitSuffixRule:
    def test_bare_latency_attribute_flagged(self):
        src = "class C:\n    def __init__(self):\n        self.latency = 70.0\n"
        assert rules_of(src) == ["REPRO003"]

    def test_dataclass_field_flagged(self):
        assert rules_of("class C:\n    bandwidth: float = 6.4\n") == ["REPRO003"]

    def test_suffixed_names_allowed(self):
        src = ("class C:\n"
               "    def __init__(self):\n"
               "        self.latency_ns = 70.0\n"
               "        self.energy_pj = 10\n"
               "        self.capacity_bytes = 512\n")
        assert rules_of(src) == []

    def test_private_attributes_exempt(self):
        src = "class C:\n    def __init__(self):\n        self._latency = 1\n"
        assert rules_of(src) == []

    def test_structured_objects_exempt(self):
        # Only scalar numeric quantities need suffixes; objects carry
        # their units internally (e.g. RunResult.energy).
        src = "class C:\n    energy: EnergyBreakdown\n"
        assert rules_of(src) == []


class TestMutableDefaultRule:
    def test_list_default_flagged(self):
        assert rules_of("def f(x=[]):\n    pass\n") == ["REPRO004"]

    def test_dict_call_default_flagged(self):
        assert rules_of("def f(x=dict()):\n    pass\n") == ["REPRO004"]

    def test_kwonly_default_flagged(self):
        assert rules_of("def f(*, x={}):\n    pass\n") == ["REPRO004"]

    def test_none_default_allowed(self):
        assert rules_of("def f(x=None):\n    pass\n") == []


class TestBareAssertRule:
    def test_assert_flagged(self):
        assert rules_of("def f(x):\n    assert x > 0\n") == ["REPRO005"]

    def test_message_names_replacement(self):
        finding = lint_source("assert True\n")[0]
        assert "InvariantViolation" in finding.message


class TestFloatClockArithmeticRule:
    def test_float_literal_into_fs_assignment_flagged(self):
        assert rules_of("done_fs = now_fs + 1.5\n") == ["REPRO006"]

    def test_true_division_into_fs_assignment_flagged(self):
        assert rules_of("slack_fs = budget_fs / 2\n") == ["REPRO006"]

    def test_augmented_float_literal_flagged(self):
        src = "def f(now_fs):\n    now_fs += 0.5\n"
        assert rules_of(src) == ["REPRO006"]

    def test_augmented_true_division_flagged(self):
        src = "def f(wait_cycles):\n    wait_cycles /= 2\n"
        assert rules_of(src) == ["REPRO006"]

    def test_attribute_target_flagged(self):
        src = ("class C:\n"
               "    def tick(self):\n"
               "        self.ready_fs = self.ready_fs * 1.1\n")
        assert rules_of(src) == ["REPRO006"]

    def test_integer_arithmetic_allowed(self):
        src = ("def f(now_fs, cycle_fs):\n"
               "    done_fs = now_fs + 3 * cycle_fs\n"
               "    half_fs = cycle_fs // 2\n"
               "    return done_fs + half_fs\n")
        assert rules_of(src) == []

    def test_explicit_quantization_allowed(self):
        # round()/int() (and the unit converters, e.g. ns_to_fs) return
        # exact integers by contract; the rule does not look inside calls.
        src = ("def f(ghz):\n"
               "    cycle_fs = round(1_000_000 / ghz)\n"
               "    latency_fs = ns_to_fs(1.5)\n"
               "    return cycle_fs + latency_fs\n")
        assert rules_of(src) == []

    def test_float_domain_targets_exempt(self):
        # _ns config fields and unsuffixed names are the float domain.
        src = ("latency_ns = 70.0 / 2\n"
               "ratio = busy_fs / 100\n")
        assert rules_of(src) == []

    def test_conditional_expression_taint_found(self):
        src = "delay_fs = 1.0 if fast else 2\n"
        assert rules_of(src) == ["REPRO006"]

    def test_suppressible(self):
        src = "skew_fs = base_fs / 2  # repro-lint: disable=REPRO006\n"
        assert rules_of(src) == []


class TestSuppression:
    def test_rule_specific_suppression(self):
        src = "assert True  # repro-lint: disable=REPRO005\n"
        assert rules_of(src) == []

    def test_disable_all(self):
        src = "def f(x=[]):  # repro-lint: disable=all\n    pass\n"
        assert rules_of(src) == []

    def test_wrong_rule_id_does_not_suppress(self):
        src = "assert True  # repro-lint: disable=REPRO001\n"
        assert rules_of(src) == ["REPRO005"]

    def test_multiple_ids(self):
        src = ("def f(done_fs, x=[]):  # repro-lint: disable=REPRO004\n"
               "    assert done_fs == 1.5  "
               "# repro-lint: disable=REPRO002, REPRO005\n")
        assert rules_of(src) == []

    def test_multiple_ids_without_spaces(self):
        # The exact comma-joined form from the docs: no space after the
        # comma, two different rules on one line.
        src = ("import time\n"
               "def f(x=[]):  # repro-lint: disable=REPRO001,REPRO004\n"
               "    return time.time()  # repro-lint: disable=REPRO001\n")
        assert rules_of(src) == []

    def test_partial_multi_id_list_keeps_other_findings(self):
        src = ("def f(done_fs, x=[]):  "
               "# repro-lint: disable=REPRO004,REPRO001\n"
               "    assert done_fs == 1.5\n")
        assert sorted(rules_of(src)) == ["REPRO002", "REPRO005"]


class TestOutputAndPaths:
    def test_findings_render_as_file_line(self):
        finding = lint_source("assert True\n", "src/foo.py")[0]
        assert finding.render().startswith("src/foo.py:1:")
        assert "REPRO005" in finding.render()

    def test_json_output_is_machine_readable(self):
        findings = lint_source("assert True\n", "x.py")
        payload = json.loads(render_findings(findings, as_json=True))
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "REPRO005"

    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "bad.py").write_text("import time\nt = time.time()\n")
        (tmp_path / "pkg" / "good.py").write_text("x = 1\n")
        findings = lint_paths([tmp_path])
        assert [f.rule for f in findings] == ["REPRO001"]
        assert findings[0].path.endswith("bad.py")

    def test_findings_sorted_by_location(self):
        src = "assert True\nimport time\nt = time.time()\n"
        findings = lint_source(src)
        assert [f.line for f in findings] == sorted(f.line for f in findings)


class TestShippedTreeIsClean:
    def test_src_repro_has_zero_findings(self):
        findings = lint_paths([REPO_SRC])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_cli_exits_zero_on_clean_tree_and_nonzero_on_fixtures(self, tmp_path):
        env_src = str(REPO_SRC.parents[0])
        clean = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "lint", str(REPO_SRC)],
            capture_output=True, text=True,
            env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"})
        assert clean.returncode == 0, clean.stdout + clean.stderr

        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):\n    assert x\n")
        dirty = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "lint", str(bad)],
            capture_output=True, text=True,
            env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"})
        assert dirty.returncode == 1
        assert "REPRO004" in dirty.stdout
        assert f"{bad}:1:" in dirty.stdout or "bad.py:1:" in dirty.stdout


class TestEnvEscapeHatchRule:
    def test_os_getenv_repro_flagged(self):
        src = "import os\nv = os.getenv('REPRO_FASTPATH')\n"
        assert rules_of(src) == ["REPRO007"]

    def test_os_environ_get_repro_flagged(self):
        src = "import os\nv = os.environ.get('REPRO_BLOCKS', '1')\n"
        assert rules_of(src) == ["REPRO007"]

    def test_os_environ_subscript_repro_flagged(self):
        src = "import os\nv = os.environ['REPRO_STORE']\n"
        assert rules_of(src) == ["REPRO007"]

    def test_non_repro_key_allowed(self):
        src = ("import os\n"
               "a = os.getenv('HOME')\n"
               "b = os.environ.get('PATH')\n"
               "c = os.environ['LANG']\n")
        assert rules_of(src) == []

    def test_dynamic_key_allowed(self):
        # Only string-literal keys are decidable; a computed key is the
        # caller's problem.
        src = "import os\nname = 'REPRO_X'\nv = os.environ.get(name)\n"
        assert rules_of(src) == []

    def test_message_points_at_construction_time(self):
        src = "import os\nv = os.getenv('REPRO_FASTPATH')\n"
        finding = lint_source(src)[0]
        assert "construction" in finding.message

    def test_suppressible(self):
        src = ("import os\n"
               "v = os.getenv('REPRO_X')  # repro-lint: disable=REPRO007\n")
        assert rules_of(src) == []

    def test_sanctioned_readers_in_tree_are_suppressed(self):
        # The three sanctioned construction-time readers carry inline
        # suppressions; nothing else in the tree reads REPRO_* ad hoc.
        findings = lint_paths([REPO_SRC])
        assert [f for f in findings if f.rule == "REPRO007"] == []


class TestDeterminismRule:
    SIM = "src/repro/mem/x.py"

    def rules(self, source, path=SIM):
        return [f.rule for f in lint_source(source, path)]

    def test_id_subscript_flagged(self):
        assert self.rules("d = {}\nd[id(x)] = 1\n") == ["REPRO008"]

    def test_id_dict_keys_flagged(self):
        src = "a = {id(x): 1}\nb = {id(v): v for v in xs}\n"
        assert self.rules(src) == ["REPRO008", "REPRO008"]

    def test_loops_and_comprehensions_over_sets_flagged(self):
        src = ("for v in {1, 2}:\n    pass\n"
               "for v in set(xs):\n    pass\n"
               "w = [v for v in frozenset(xs)]\n"
               "y = {k: 0 for k in {v for v in xs}}\n")
        assert self.rules(src) == ["REPRO008"] * 4

    def test_order_reading_calls_on_sets_flagged(self):
        src = ("a = next(iter({1, 2}))\n"
               "b = list(set(xs))\n"
               "c = tuple({v for v in xs})\n"
               "d = enumerate(frozenset(xs))\n"
               "e = zip(ys, set(xs))\n"
               "f = ','.join({'a', 'b'})\n"
               "g = str.join(',', set(xs))\n"
               "h = {1, 2}.pop()\n")
        assert self.rules(src) == ["REPRO008"] * 8

    def test_set_valued_locals_flagged(self):
        src = ("def f(xs):\n"
               "    seen = set()\n"
               "    seen |= set(xs)\n"
               "    if xs:\n"
               "        seen = {1}\n"
               "    first = next(iter(seen))\n"
               "    for v in seen:\n"
               "        pass\n"
               "    return ' '.join(seen), seen.pop(), list(seen)\n")
        assert self.rules(src) == ["REPRO008"] * 5

    def test_locals_not_only_sets_allowed(self):
        src = ("def f(xs, s):\n"
               "    seen = set(xs)\n"
               "    seen = sorted(seen)\n"          # rebound to a list
               "    out = list(seen) + list(s)\n"   # a parameter
               "    for k in xs:\n"
               "        pass\n"
               "    k = {1}\n"                      # also a loop target
               "    return out, k.pop(), list(k)\n"
               "def g():\n"
               "    return list(seen)\n")           # another scope's name
        assert self.rules(src) == []

    def test_ordered_uses_allowed(self):
        src = ("d = {}\nd[name] = id(x)\n"        # id() as a value
               "for v in sorted(set(xs)):\n    pass\n"
               "w = [v for v in dict.fromkeys(xs)]\n"
               "seen = set(xs)\nok = 3 in seen\n"
               "n = len(seen)\nlo = min(seen)\n"
               "v = list(sorted(seen))\nw = ','.join(sorted(seen))\n"
               "x = ys.pop()\ny = d.pop(k)\nz = list(xs)\n")
        assert self.rules(src) == []

    def test_only_simulator_packages_in_scope(self):
        src = "for v in set(xs):\n    pass\n"
        for path in ("src/repro/core/a.py", "src/repro/sim/a.py",
                     "src/repro/interconnect/a.py",
                     "src/repro/workloads/sub/a.py",
                     "repro/src/repro/mem/a.py"):
            assert self.rules(src, path) == ["REPRO008"], path
        for path in ("src/repro/serve/a.py", "src/repro/analysis/a.py",
                     "src/repro/cli.py", "mem/a.py", "<string>"):
            assert self.rules(src, path) == [], path

    def test_suppressible(self):
        src = "for v in set(xs):  # repro-lint: disable=REPRO008\n    pass\n"
        assert self.rules(src) == []
        src = ("def f(xs):\n"
               "    s = set(xs)\n"
               "    return s.pop()  # repro-lint: disable=REPRO008\n")
        assert self.rules(src) == []

    def test_tree_has_no_findings(self):
        findings = lint_paths([REPO_SRC])
        assert [f for f in findings if f.rule == "REPRO008"] == []


class TestSyntaxErrorHandling:
    BROKEN = "def f(:\n    pass\n"

    def test_lint_source_reports_repro000(self):
        findings = lint_source(self.BROKEN, "broken.py")
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "REPRO000"
        assert finding.path == "broken.py"
        assert "cannot be parsed" in finding.message

    def test_lint_paths_does_not_crash(self, tmp_path):
        (tmp_path / "broken.py").write_text(self.BROKEN)
        (tmp_path / "fine.py").write_text("x = 1\n")
        (tmp_path / "bad.py").write_text("import time\nt = time.time()\n")
        findings = lint_paths([tmp_path])
        assert sorted(f.rule for f in findings) == ["REPRO000", "REPRO001"]

    def test_cli_reports_and_exits_nonzero(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text(self.BROKEN)
        env_src = str(REPO_SRC.parents[0])
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "lint", str(bad)],
            capture_output=True, text=True,
            env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 1
        assert "REPRO000" in proc.stdout


class TestJsonSchema:
    def test_every_field_present_and_typed(self):
        src = "import time\nt = time.time()\nassert t\n"
        payload = json.loads(render_findings(lint_source(src, "x.py"),
                                             as_json=True))
        assert set(payload) == {"count", "findings"}
        assert payload["count"] == len(payload["findings"]) == 2
        for entry in payload["findings"]:
            assert set(entry) == {"path", "line", "col", "rule", "message"}
            assert isinstance(entry["line"], int)
            assert isinstance(entry["col"], int)
            assert entry["path"] == "x.py"
            assert entry["rule"].startswith("REPRO")

    def test_empty_findings_json(self):
        payload = json.loads(render_findings([], as_json=True))
        assert payload == {"count": 0, "findings": []}


class TestRuleRegistry:
    def test_registry_covers_known_rules(self):
        assert set(RULES) == {f"REPRO00{i}" for i in range(9)}

    def test_rule_range_excludes_the_parse_pseudo_rule(self):
        assert rule_range() == "REPRO001..REPRO008"

    def test_cli_help_renders_the_range(self):
        env_src = str(REPO_SRC.parents[0])
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--help"],
            capture_output=True, text=True,
            env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0
        assert "REPRO001..REPRO008" in proc.stdout
