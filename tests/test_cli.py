import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import genuskit.cli as cli
import genuskit.primeset as primeset
from genuskit.dsl import read_value
from genuskit.intlinalg import hnf_rows

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    """``python -m genuskit`` in a fresh interpreter."""
    path = [str(SRC_DIR), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, "-m", "genuskit", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


class TestBounded:
    def test_twisted_line_witnesses(self, capsys):
        code, out, _ = run(capsys, "bounded", "aut(singletons(all,{}); tail=id; 2 -> 3/2)")
        assert code == 0
        assert "bounded: yes, witness 2" in out

    def test_unbounded_reports_the_wild_set(self, capsys):
        code, out, _ = run(capsys, "bounded", "aut(singletons(all,{}); tail=p^1)")
        assert code == 0
        assert "bounded above: no" in out

    def test_json_shape(self, capsys):
        code, out, _ = run(
            capsys, "bounded", "--format", "json", "aut(singletons(all,{}); tail=id)"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["bounded"]["holds"] is True
        assert payload["bounded"]["witness"] == "1"

    def test_rejects_non_aut_input(self, capsys):
        code, _, err = run(capsys, "bounded", "{2,3}")
        assert code == 2
        assert "error:" in err

    def test_block_index_past_the_primality_limit_is_out_of_scope(self, capsys):
        # a well-formed index that primality testing cannot decide exits 3, not 2
        p = 2**127 - 1
        code, _, err = run(capsys, "bounded", f"aut(singletons(all, {{}}); tail=id; {p} -> 3)")
        assert code == 3
        assert err.strip().endswith(f"got {p}")


class TestPullback:
    def test_rank_one_heights(self, capsys):
        code, out, _ = run(capsys, "pullback", "aut(singletons(all,{}); tail=p^-1)")
        assert code == 0
        assert "heights(default -1)" in out
        assert "finitely generated: no" in out

    def test_module_pullback_certifies(self, capsys):
        code, out, _ = run(
            capsys,
            "pullback",
            "modpull(module(T={2,3}; gens=1; rel=[]); singletons({2,3},{}); [[3/2]],[[1]])",
        )
        assert code == 0
        assert "free rank 1" in out
        assert "[ok] kernel-invertible-torsion" in out
        assert "[ok] cokernel-killed" in out

    def test_twist_count_mismatch(self, capsys):
        code, _, err = run(
            capsys,
            "pullback",
            "modpull(module(T={2,3}; gens=1; rel=[]); singletons({2,3},{}); [[1]])",
        )
        assert code == 2
        assert "error:" in err

    def test_infinite_family_is_out_of_scope(self, capsys):
        code, _, err = run(
            capsys,
            "pullback",
            "modpull(module(T=all; gens=1; rel=[]); singletons(all,{}); [[1]])",
        )
        assert code == 3
        assert "error:" in err


class TestGenus:
    def test_shared_refinement(self, capsys):
        code, out, _ = run(
            capsys,
            "genus",
            "module(T={2}; gens=2; rel=[[4,0]]), module(T={2}; gens=2; rel=[[4,0]]), {2}",
        )
        assert code == 0
        assert "projections certified: yes" in out

    def test_distinct_cores_exit_three(self, capsys):
        code, _, err = run(
            capsys,
            "genus",
            "module(T={2}; gens=1; rel=[]), module(T={2}; gens=1; rel=[[4]]), {2}",
        )
        assert code == 3
        assert "not in the same genus" in err

    def test_large_relation_entry_is_named(self, capsys):
        # The kernel level factors each Smith entry on its own, so past the
        # primality limit the error names the entry, not a product of them,
        # and exits as out of scope rather than malformed.
        p = 2**127 - 1
        module = f"module(T=all; rel=[[{p},0]])"
        code, _, err = run(capsys, "genus", f"{module}, {module}, {{}}")
        assert code == 3
        assert err.strip().endswith(f"got {p}")

    def test_large_relation_entry_over_finitely_many_primes(self, capsys):
        # Over a finite prime set the level needs only division by its members.
        module = f"module(T={{2,3}}; rel=[[{2**127 - 1},0]])"
        code, out, _ = run(capsys, "genus", f"{module}, {module}, {{}}")
        assert code == 0
        assert "projections certified: yes" in out

    def test_prime_set_member_past_the_primality_limit_is_out_of_scope(self, capsys):
        p = 2**127 - 1
        module = f"module(T={{{p}}}; rel=[[1,0]])"
        code, _, err = run(capsys, "genus", f"{module}, {module}, {{}}")
        assert code == 3
        assert err.strip().endswith(f"got {p}")

    def test_arity_is_checked(self, capsys):
        code, _, err = run(capsys, "genus", "module(T={2}; gens=1; rel=[]), {2}")
        assert code == 2

    def test_failed_factor_split_is_out_of_scope(self, capsys, monkeypatch):
        # a gcd that never splits makes Pollard's rho give up on 10007 * 10009
        monkeypatch.setattr(primeset, "gcd", lambda a, b: b)
        module = "module(T=all; rel=[[100160063,0]])"
        code, _, err = run(capsys, "genus", f"{module}, {module}, {{2}}")
        assert code == 3
        assert "100160063" in err


class TestExtGenus:
    def test_spreading_tail(self, capsys):
        code, out, _ = run(capsys, "extgenus", "aut(singletons(all,{}); tail=p^-1)")
        assert code == 0
        assert "class(tail p^-1 over singletons(all,{}))" in out

    def test_trivial_pullback_is_out_of_scope(self, capsys):
        code, _, err = run(capsys, "extgenus", "aut(singletons(all,{}); tail=p^1)")
        assert code == 3


class TestInputs:
    def test_file_input(self, capsys, tmp_path):
        source = tmp_path / "aut.gk"
        source.write_text("aut(singletons(all,{}); tail=id)")
        code, out, _ = run(capsys, "bounded", "--input", str(source))
        assert code == 0

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("aut(singletons(all,{}); tail=id)"))
        code, out, _ = run(capsys, "bounded", "--input", "-")
        assert code == 0

    def test_both_sources_rejected(self, capsys, tmp_path):
        source = tmp_path / "aut.gk"
        source.write_text("aut(singletons(all,{}); tail=id)")
        code, _, err = run(capsys, "bounded", "aut(singletons(all,{}); tail=id)",
                           "--input", str(source))
        assert code == 2

    def test_missing_source_rejected(self, capsys):
        code, _, err = run(capsys, "bounded")
        assert code == 2

    def test_missing_file_rejected(self, capsys):
        code, _, err = run(capsys, "bounded", "--input", "/nonexistent/aut.gk")
        assert code == 2

    def test_parse_errors_exit_two(self, capsys):
        code, _, err = run(capsys, "bounded", "aut((")
        assert code == 2
        assert "line 1" in err

    def test_elaborate_errors_exit_two(self, capsys):
        code, _, err = run(capsys, "pullback", "aut(singletons({4},{}); tail=id)")
        assert code == 2
        assert "not prime" in err


class TestVerify:
    def test_every_suite_passes_small(self, capsys):
        for suite in cli.SUITES:
            code, out, _ = run(capsys, "verify", suite, "--samples", "6", "--seed", "2")
            assert code == 0, f"suite {suite} failed:\n{out}"
            assert f"suite {suite}" in out

    def test_histogram_reaches_the_bound(self, capsys):
        code, out, _ = run(
            capsys, "verify", "112", "--samples", "40", "--seed", "3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["histogram"].get("3", 0) >= 1
        assert payload["failures"] == []

    def test_unknown_suite_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "999"])
        assert exc.value.code == 2

    def test_failures_drive_exit_four(self, capsys, monkeypatch):
        def broken(seed, samples, prime_max):
            return {"samples": samples, "failures": ["forced"]}, ["forced failure"]

        monkeypatch.setitem(cli._SUITE_RUNNERS, "124", broken)
        code, out, _ = run(capsys, "verify", "124", "--samples", "3")
        assert code == 4
        assert "FAILED" in out

    def test_zero_samples_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "124", "--samples", "0")
        assert code == 2


class TestDeterminism:
    def test_json_is_byte_identical_for_fixed_seed_and_budget(self, capsys):
        args = ("verify", "111", "--samples", "5", "--seed", "7", "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_different_seeds_may_differ_but_stay_valid(self, capsys):
        code, out, _ = run(capsys, "verify", "124", "--samples", "5", "--seed", "11",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["seed"] == 11


class TestEntryPoints:
    ONE_SHOTS = (
        ("verify", "124", "--samples", "3", "--seed", "5", "--format", "json"),
        ("bounded", "--format", "json", "aut(singletons(all,{}); tail=id; 2 -> 3/2)"),
    )

    def test_back_to_back_commands_match_fresh_processes(self, capsys):
        # the parser is built once per process; a second command must not see the first's flags
        in_process = [run(capsys, *argv) for argv in self.ONE_SHOTS]
        for (code, out, _), argv in zip(in_process, self.ONE_SHOTS):
            fresh = run_module(*argv)
            assert code == fresh.returncode == 0
            assert out == fresh.stdout
        assert cli._build_parser() is cli._build_parser()

    def test_python_dash_m(self):
        done = run_module("verify", "124", "--samples", "3", "--format", "json")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["samples"] == 3


class TestCanonicalRelations:
    """Kernel modules are printed with their relations in Hermite form, so the
    output does not depend on which basis the Smith transforms happened to give."""

    def assert_hermite(self, text):
        relations = [list(row) for row in read_value(text).relations]
        assert hnf_rows(relations) == relations, text

    def test_readme_pullback_and_genus_witness(self, capsys):
        code, out, _ = run(
            capsys, "pullback", "--format", "json",
            "modpull(module(T={2,3}; rel=[[4,0]]); blocks({2,3}, {}; {2}, {3}); "
            "[[1/2,0],[0,1]], [[3,0],[0,1]])",
        )
        assert code == 0
        self.assert_hermite(json.loads(out)["module"])
        code, out, _ = run(
            capsys, "genus", "--format", "json",
            "module(T={2,3}; rel=[[4,0]]), module(T={2,3}; rel=[[0,4]]), {}",
        )
        assert code == 0
        self.assert_hermite(json.loads(out)["witness_module"])

    def test_bench_recipe_pullbacks(self, capsys, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH_DIR))
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_DIR / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for op in workloads.ModpullLadder(701).round(0):
            code, out, _ = run(capsys, "pullback", op.text, "--format", "json")
            assert code == 0, op.text
            self.assert_hermite(json.loads(out)["module"])


class TestConfig:
    def test_config_supplies_defaults(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "genus-kit.toml").write_text(
            "# local settings\nseed = 5\nsamples = 4\n"
        )
        code, out, _ = run(capsys, "verify", "124", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"] == 5
        assert payload["samples"] == 4

    def test_flags_override_config(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "genus-kit.toml").write_text("seed = 5\n")
        code, out, _ = run(capsys, "verify", "124", "--seed", "9", "--samples", "3",
                           "--format", "json")
        assert json.loads(out)["seed"] == 9

    def test_explicit_config_path(self, capsys, tmp_path):
        cfg = tmp_path / "other.toml"
        cfg.write_text("samples = 3\n")
        code, out, _ = run(capsys, "verify", "124", "--config", str(cfg), "--format", "json")
        assert code == 0
        assert json.loads(out)["samples"] == 3

    def test_missing_explicit_config(self, capsys):
        code, _, err = run(capsys, "verify", "124", "--config", "/nonexistent.toml")
        assert code == 2

    def test_unknown_key_rejected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "genus-kit.toml").write_text("retries = 3\n")
        code, _, err = run(capsys, "verify", "124", "--samples", "3")
        assert code == 2
        assert "unknown key" in err

    def test_non_integer_value_rejected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "genus-kit.toml").write_text("seed = fast\n")
        code, _, err = run(capsys, "verify", "124", "--samples", "3")
        assert code == 2


class TestCounterexample:
    def test_default_runs_all_three_cases(self, capsys):
        code, out, _ = run(capsys, "counterexample")
        assert code == 0
        assert "all-blocks-deepen" in out
        assert "heights(trivial)" in out
        assert "finitely-many-twists" in out
        assert "5/2" in out
        assert "all-blocks-spread" in out
        assert "finitely generated: no" in out

    def test_deepen_case_shows_the_broken_localization(self, capsys):
        _, out, _ = run(capsys, "counterexample", "--format", "json")
        payload = json.loads(out)
        deepen = payload["cases"][0]
        assert deepen["trivial"] is True
        failed = [c for c in deepen["localization_checks"] if not c["passed"]]
        assert failed

    def test_spread_case_checks_pass(self, capsys):
        _, out, _ = run(capsys, "counterexample", "--format", "json")
        payload = json.loads(out)
        spread = payload["cases"][-1]
        assert spread["name"] == "all-blocks-spread"
        assert spread["finitely_generated"] is False
        assert all(c["passed"] for c in spread["localization_checks"])

    def test_finite_family_keeps_only_the_bounded_case(self, capsys):
        code, out, _ = run(capsys, "counterexample", "--family", "singletons({2,3},{})")
        assert code == 0
        assert "finitely-many-twists" in out
        assert "all-blocks-deepen" not in out
        assert "all-blocks-spread" not in out

    def test_family_must_be_a_family(self, capsys):
        code, _, err = run(capsys, "counterexample", "--family", "{2,3}")
        assert code == 2
