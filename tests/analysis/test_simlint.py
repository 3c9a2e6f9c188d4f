"""Injected-fault tests for every SIM rule of simflow's lint pass.

Each test writes a small source tree into ``tmp_path``, runs the analyzer
with the SIM rules selected, and asserts the expected rule code fires
exactly where expected — and nowhere else.  The file keeps the name of
the ``simlint`` tool these rules came from; ``test_flow.py::TestRealTree``
holds the real tree clean under every rule at once.
"""

from repro.analysis.flow import FLOW_CODES, format_report, run_flow

SIM_CODES = ["SIM001", "SIM003", "SIM004", "SIM005", "SIM006", "SIM007"]


def lint_paths(paths, select=None):
    """The findings of the SIM rules (or ``select``) under ``paths``."""
    return run_flow(paths, select=select or SIM_CODES).findings


def lint_source(tmp_path, source, rel="mod.py", select=None):
    """Write one module into a tmp tree and lint it."""
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return lint_paths([tmp_path], select=select)


def codes(violations):
    return [v.code for v in violations]


class TestWallClock:
    def test_time_time_fires(self, tmp_path):
        out = lint_source(tmp_path, "import time\nstart = time.time()\n")
        assert codes(out) == ["SIM001"]
        assert out[0].line == 2
        assert "call `time.time()`" in out[0].message

    def test_perf_counter_and_datetime_fire(self, tmp_path):
        out = lint_source(
            tmp_path,
            "import time\nfrom datetime import datetime\n"
            "a = time.perf_counter()\nb = datetime.now()\n",
        )
        assert codes(out) == ["SIM001", "SIM001"]

    def test_bound_clock_reference_fires(self, tmp_path):
        """A clock stored for later calls reads the host clock all the same."""
        out = lint_source(
            tmp_path,
            "import time\n\n"
            "class Ledger:\n"
            "    def __init__(self, clock=None):\n"
            "        self._clock = clock if clock is not None "
            "else time.perf_counter\n")
        assert codes(out) == ["SIM001"]
        assert out[0].line == 5
        assert "reference `time.perf_counter`" in out[0].message

    def test_from_time_import_fires(self, tmp_path):
        out = lint_source(
            tmp_path,
            "from time import perf_counter, sleep\n"
            "start = perf_counter()\n")
        assert codes(out) == ["SIM001"]
        assert out[0].line == 1
        assert "import `time.perf_counter`" in out[0].message

    def test_simulated_time_attribute_is_fine(self, tmp_path):
        out = lint_source(
            tmp_path,
            "def step(core):\n    core.time += 1.0\n    return core.time\n",
        )
        assert out == []


class TestTimestampEquality:
    def test_equality_on_time_names_fires(self, tmp_path):
        out = lint_source(
            tmp_path,
            "def check(a, b):\n    return a.grant_time == b.completion\n")
        assert codes(out) == ["SIM003"]

    def test_inequality_fires(self, tmp_path):
        out = lint_source(
            tmp_path, "def check(t):\n    return t.issue_time != 0.0\n")
        assert codes(out) == ["SIM003"]

    def test_ordering_comparison_is_fine(self, tmp_path):
        out = lint_source(
            tmp_path,
            "def check(a, b):\n    return a.grant_time <= b.completion\n")
        assert out == []

    def test_non_time_names_are_fine(self, tmp_path):
        out = lint_source(
            tmp_path, "def check(row, open_row):\n    return row == open_row\n")
        assert out == []


class TestDefaultArguments:
    def test_type_lying_none_default_fires(self, tmp_path):
        out = lint_source(
            tmp_path,
            "from repro.sim.stats import Stats\n\n"
            "def build(stats: Stats = None):\n    return stats\n",
        )
        assert codes(out) == ["SIM004"]

    def test_optional_default_is_fine(self, tmp_path):
        out = lint_source(
            tmp_path,
            "from typing import Optional\nfrom repro.sim.stats import Stats\n\n"
            "def build(stats: Optional[Stats] = None):\n    return stats\n",
        )
        assert out == []

    def test_pipe_none_annotation_is_fine(self, tmp_path):
        out = lint_source(
            tmp_path,
            "def build(stats: 'Stats | None' = None):\n    return stats\n")
        assert out == []

    def test_mutable_default_fires(self, tmp_path):
        out = lint_source(tmp_path, "def f(xs=[]):\n    return xs\n")
        assert codes(out) == ["SIM004"]

    def test_annotated_class_attribute_fires(self, tmp_path):
        out = lint_source(
            tmp_path,
            "class Workload:\n    def __init__(self):\n"
            "        self.space: AddressSpace = None\n",
        )
        assert codes(out) == ["SIM004"]


class TestRawUnitLiterals:
    def test_ns_default_fires(self, tmp_path):
        out = lint_source(
            tmp_path, "def from_ns(t_cl_ns: float = 13.75):\n    return t_cl_ns\n")
        assert codes(out) == ["SIM005"]

    def test_ghz_keyword_fires(self, tmp_path):
        out = lint_source(
            tmp_path,
            "def build(make_clock):\n    return make_clock(freq_ghz=2.0)\n")
        assert codes(out) == ["SIM005"]

    def test_assignment_fires(self, tmp_path):
        out = lint_source(tmp_path, "t_retrain_ns = 50.0\n")
        assert codes(out) == ["SIM005"]

    def test_parameter_tables_are_exempt(self, tmp_path):
        source = "core_freq_ghz: float = 4.0\ndram_t_cl_ns: float = 13.75\n"
        assert lint_source(tmp_path, source, rel="system/config.py") == []
        assert lint_source(tmp_path, source, rel="sim/clock.py") == []
        assert codes(lint_source(tmp_path, source, rel="mem/dram.py")) == [
            "SIM005", "SIM005"]

    def test_passing_config_value_is_fine(self, tmp_path):
        out = lint_source(
            tmp_path,
            "def build(config, make):\n"
            "    return make(t_cl_ns=config.dram_t_cl_ns)\n",
        )
        assert out == []


class TestIntrinsicRegistry:
    ISA = (
        "REGISTERED = object()\n"
        "ROGUE = object()\n"
        "PIM_OPS = {op.mnemonic: op for op in (REGISTERED,)}\n"
    )

    def write_pair(self, tmp_path, intrinsics):
        (tmp_path / "core").mkdir(parents=True, exist_ok=True)
        (tmp_path / "core" / "isa.py").write_text(self.ISA)
        (tmp_path / "core" / "intrinsics.py").write_text(intrinsics)
        return lint_paths([tmp_path])

    def test_registered_op_is_fine(self, tmp_path):
        out = self.write_pair(
            tmp_path,
            "from core.isa import REGISTERED\n\n"
            "def pim_inc(addr):\n    return Pei(REGISTERED, addr)\n",
        )
        assert out == []

    def test_unregistered_op_fires(self, tmp_path):
        out = self.write_pair(
            tmp_path,
            "from core.isa import ROGUE\n\n"
            "def pim_rogue(addr):\n    return Pei(ROGUE, addr)\n",
        )
        assert codes(out) == ["SIM006"]

    def test_intrinsic_without_pei_record_fires(self, tmp_path):
        out = self.write_pair(
            tmp_path, "def pim_nop(addr):\n    return None\n")
        assert codes(out) == ["SIM006"]


class TestStatsKeyRegistry:
    REGISTRY = (
        'CACHE_KEYS = (\n    "l1.hits",\n    "l1.accesses",\n)\n'
        'GAUGE_KEYS = ("tsv.bytes",)\n'
        'NOT_KEYS_LIST = ("never.declared",)\n'
    )

    def write_pair(self, tmp_path, consumer):
        (tmp_path / "sim").mkdir(parents=True, exist_ok=True)
        (tmp_path / "sim" / "stat_keys.py").write_text(self.REGISTRY)
        (tmp_path / "mod.py").write_text(consumer)
        return lint_paths([tmp_path])

    def test_declared_key_is_fine(self, tmp_path):
        out = self.write_pair(
            tmp_path,
            "def tick(self):\n"
            "    self.stats.add('l1.hits')\n"
            "    self.stats.set('tsv.bytes', 4.0)\n",
        )
        assert out == []

    def test_typoed_key_fires(self, tmp_path):
        out = self.write_pair(
            tmp_path, "def tick(stats):\n    stats.add('l1.hitz')\n")
        assert codes(out) == ["SIM007"]
        assert "l1.hitz" in out[0].message

    def test_only_keys_suffixed_groups_declare(self, tmp_path):
        # NOT_KEYS_LIST does not end in _KEYS, so its strings don't count.
        out = self.write_pair(
            tmp_path, "def tick(stats):\n    stats.add('never.declared')\n")
        assert codes(out) == ["SIM007"]

    def test_dynamic_key_is_skipped(self, tmp_path):
        out = self.write_pair(
            tmp_path,
            "def flush(stats, gauges):\n"
            "    for name, value in gauges.items():\n"
            "        stats.set(name, value)\n",
        )
        assert out == []

    def test_non_stats_receiver_is_skipped(self, tmp_path):
        out = self.write_pair(
            tmp_path, "def grow(self):\n    self.blocks.add('l1.hitz')\n")
        assert out == []

    def test_missing_registry_disables_rule(self, tmp_path):
        out = lint_source(
            tmp_path, "def tick(stats):\n    stats.add('anything.goes')\n")
        assert out == []


class TestWaivers:
    def test_justified_waiver_suppresses(self, tmp_path):
        out = lint_source(
            tmp_path,
            "t_retrain_ns = 50.0  # simflow: ignore[SIM005] -- vendor-quoted\n")
        assert out == []

    def test_standalone_waiver_covers_next_line(self, tmp_path):
        out = lint_source(
            tmp_path,
            "# simflow: ignore[SIM005] -- vendor-quoted retrain time\n"
            "t_retrain_ns = 50.0\n",
        )
        assert out == []

    def test_unjustified_waiver_is_reported(self, tmp_path):
        # An unjustified pragma is flagged (FLW000) and does NOT suppress
        # the underlying violation.
        out = lint_source(
            tmp_path, "t_retrain_ns = 50.0  # simflow: ignore[SIM005]\n")
        assert codes(out) == ["FLW000", "SIM005"]
        assert "without justification" in out[0].message

    def test_waiver_for_other_code_does_not_suppress(self, tmp_path):
        # The SIM005 violation survives, and the SIM001 waiver — justified
        # but matching nothing — is reported as stale.
        out = lint_source(
            tmp_path,
            "t_retrain_ns = 50.0  # simflow: ignore[SIM001] -- wrong code\n")
        assert codes(out) == ["FLW000", "SIM005"]
        assert "suppresses nothing" in out[0].message

    def test_stale_waiver_is_reported(self, tmp_path):
        out = lint_source(
            tmp_path,
            "# simflow: ignore[SIM005] -- excused a literal removed since\n"
            "t_retrain = table.lookup()\n",
        )
        assert codes(out) == ["FLW000"]
        assert out[0].line == 1

    def test_stale_waiver_ignored_when_rule_not_selected(self, tmp_path):
        # With SIM005 not running, the linter cannot know whether the
        # waiver suppresses anything, so it stays silent.
        out = lint_source(
            tmp_path,
            "# simflow: ignore[SIM005] -- excused a literal removed since\n"
            "t_retrain = table.lookup()\n",
            select=["SIM001"],
        )
        assert out == []

    def test_unjustified_match_is_used_not_stale(self, tmp_path):
        # A pragma that matches a violation but lacks a justification is
        # reported as unjustified only — it is not *also* stale.
        out = lint_source(
            tmp_path, "t_retrain_ns = 50.0  # simflow: ignore[SIM005]\n")
        assert codes(out).count("FLW000") == 1
        assert not any("suppresses nothing" in v.message for v in out)

    def test_simlint_namespace_is_retired(self, tmp_path):
        # `# simflow:` is the only waiver namespace.
        out = lint_source(
            tmp_path,
            "t_retrain_ns = 50.0  # simlint: ignore[SIM005] -- vendor-quoted\n")
        assert codes(out) == ["SIM005"]

    def test_pragma_text_in_docstring_is_not_a_waiver(self, tmp_path):
        out = lint_source(
            tmp_path,
            '"""Example waiver::\n\n'
            "    x = 1.0  # simflow: ignore[SIM005] -- vendor-quoted\n"
            '"""\n',
        )
        assert out == []


class TestDriver:
    def test_select_restricts_rules(self, tmp_path):
        source = "import time\nx = time.time()\nys=[]\ndef f(xs=[]):\n    return xs\n"
        out = lint_source(tmp_path, source, select=["SIM001"])
        assert codes(out) == ["SIM001"]

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        out = lint_source(tmp_path, "def broken(:\n")
        assert codes(out) == ["FLW999"]

    def test_format_report(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("import time\nx = time.time()\n")
        text = format_report(run_flow([tmp_path], select=SIM_CODES))
        assert "SIM001" in text and "1 finding(s)" in text
        target.write_text("x = 1\n")
        text = format_report(run_flow([tmp_path], select=SIM_CODES))
        assert text.startswith("simflow: clean")

    def test_rule_registry_is_complete(self):
        assert {c for c in FLOW_CODES if c.startswith("SIM")} == set(SIM_CODES)
        for code in SIM_CODES:
            title, rationale = FLOW_CODES[code]
            assert title and rationale
