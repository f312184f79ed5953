import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import entloc
from entloc import DimensionError, DimSpec, PureState, RoofConfig, cli
from entloc.catalog import bell_state, build_locked_state, ghz_state, werner_state
from entloc.cli import main
from entloc.protocols import locked_state_protocol
from entloc.sampling import random_density, random_pure
from entloc.serialize import (
    ParseError,
    load_protocol,
    load_state,
    protocol_from_dict,
    protocol_to_dict,
    save_protocol,
    save_state,
    state_from_dict,
    state_to_dict,
)


def _exit_code(argv) -> int:
    """main's return value, or the code of the exit argparse takes on a bad option."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestStateFiles:
    def test_pure_round_trip(self, tmp_path):
        path = tmp_path / "bell.json"
        save_state(bell_state(), path)
        back = load_state(path)
        assert isinstance(back, PureState)
        np.testing.assert_array_equal(back.amplitudes, bell_state().amplitudes)
        assert back.dims == bell_state().dims

    def test_density_round_trip(self, tmp_path):
        rho = random_density(
            DimSpec.make(("A", 2, "A"), ("B", 2, "B"), ("C", 3, "Z")),
            np.random.default_rng(4),
        )
        path = tmp_path / "rho.json"
        save_state(rho, path)
        back = load_state(path)
        np.testing.assert_array_equal(back.matrix, rho.matrix)

    def test_double_round_trip_identical(self):
        doc = state_to_dict(build_locked_state())
        again = state_to_dict(state_from_dict(doc))
        assert doc == again

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_state(path)

    @pytest.mark.parametrize("data", [
        [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],      # norm sqrt(2)
        [[float("nan"), 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    ])
    def test_invalid_amplitudes(self, data, tmp_path, capsys):
        doc = {"dims": [{"label": "A", "dim": 2, "role": "A"},
                        {"label": "B", "dim": 2, "role": "B"}],
               "kind": "pure", "data": data}
        with pytest.raises(ParseError):
            state_from_dict(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["measure", str(path)]) == 2

    @pytest.mark.parametrize("measure", ["entropy", "wootters", "gconc"])
    def test_negative_density_exits_2(self, measure, tmp_path, capsys):
        diag = [1.2, 0.1, 0.1, -0.4]  # Hermitian, trace one, not positive
        data = [[diag[i] if i == j else 0.0, 0.0] for i in range(4) for j in range(4)]
        doc = {"dims": [{"label": "A", "dim": 2, "role": "A"},
                        {"label": "B", "dim": 2, "role": "B"}],
               "kind": "density", "data": data}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["measure", str(path), "--measure", measure]) == 2

    def test_missing_field(self):
        with pytest.raises(ParseError):
            state_from_dict({"kind": "pure", "data": []})

    def test_wrong_length(self):
        with pytest.raises(ParseError):
            state_from_dict(
                {"dims": [{"label": "A", "dim": 2, "role": "A"},
                          {"label": "B", "dim": 2, "role": "B"}],
                 "kind": "pure", "data": [[1.0, 0.0]]}
            )

    def test_dimension_past_int64_is_parse_error(self):
        # found by the fuzzed-document test: the total dimension overflowed
        with pytest.raises(ParseError):
            state_from_dict({"dims": [{"label": "A", "dim": 2.0 ** 64, "role": "A"}],
                             "kind": "pure", "data": []})


class TestProtocolFiles:
    def test_round_trip(self, tmp_path):
        tree = locked_state_protocol()
        path = tmp_path / "protocol.json"
        save_protocol(tree, path)
        back = load_protocol(path)
        assert protocol_to_dict(back) == protocol_to_dict(tree)

    def test_leaf(self):
        assert protocol_from_dict(None) is None
        assert protocol_to_dict(None) is None


class TestCli:
    def test_measure_bell_entropy(self, tmp_path, capsys):
        state = tmp_path / "bell.json"
        save_state(bell_state(), state)
        assert main(["measure", str(state), "--measure", "entropy"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["value"] == pytest.approx(1.0, abs=1e-10)

    def test_measure_werner_wootters(self, tmp_path, capsys):
        state = tmp_path / "w.json"
        save_state(werner_state(0.8), state)
        assert main(["measure", str(state), "--measure", "wootters"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["value"] == pytest.approx(0.7, abs=1e-10)

    def test_measure_phi4_gconc(self, tmp_path, capsys):
        assert main(["emit", "phi_plus_4", "--out", str(tmp_path / "p4.json")]) == 0
        capsys.readouterr()
        assert main(["measure", str(tmp_path / "p4.json"), "--measure", "gconc"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["value"] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("d_b", [3, 2])
    def test_measure_mixed_gconc_closed_form(self, tmp_path, capsys, d_b):
        # zero padding makes G exactly 0 on a 2 x 3 cut, and on 2 x 2 it is the
        # Wootters concurrence: neither is a roof search
        dims = DimSpec.make(("A", 2, "A"), ("B", d_b, "B"))
        state = tmp_path / "mixed.json"
        save_state(random_density(dims, np.random.default_rng(3), rank=2), state)
        assert main(["measure", str(state), "--measure", "gconc"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["bound"] == "exact"
        assert results["method"] == "closed form"
        assert results["converged"] is True
        if d_b == 3:
            assert results["value"] == 0.0

    def test_measure_mixed_gconc_roof(self, tmp_path, capsys):
        dims = DimSpec.make(("A", 3, "A"), ("B", 3, "B"))
        state = tmp_path / "mixed.json"
        save_state(random_density(dims, np.random.default_rng(4), rank=2), state)
        payloads = []
        for i in range(2):
            out = tmp_path / f"measure{i}.json"
            assert main(["measure", str(state), "--measure", "gconc", "--out", str(out)]) == 0
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1]
        results = json.loads(payloads[0])["results"]
        assert results["bound"] == "upper"
        assert results["method"] == "convex-roof optimizer (upper bound)"
        assert isinstance(results["converged"], bool)
        assert 0.0 <= results["value"] <= 1.0
        # every restart's final value; the winner's is the one reported
        assert len(results["restart_values"]) == RoofConfig().restarts
        assert results["restart_values"][results["winner"]] == results["value"]
        assert results["value"] == min(results["restart_values"])
        # each restart's objective evaluations, summed over its polish stages
        assert len(results["restart_evaluations"]) == RoofConfig().restarts
        assert all(isinstance(n, int) and n > 0 for n in results["restart_evaluations"])
        # and its L-BFGS iterations, summed the same way; the payloads of the
        # two runs are equal byte for byte, so they repeat for a fixed seed
        assert len(results["restart_iterations"]) == RoofConfig().restarts
        assert all(isinstance(n, int) and n > 0 for n in results["restart_iterations"])

    def test_measure_gconc_decides_the_roof_once(self, tmp_path, capsys, monkeypatch):
        # one eigendecomposition checks the file's positivity and one gives the
        # roof its eigen-factor; whether the descent ran is read off the ensemble
        dims = DimSpec.make(("A", 3, "A"), ("B", 3, "B"))
        state = tmp_path / "mixed.json"
        save_state(random_density(dims, np.random.default_rng(4), rank=2), state)
        shapes, eigh = [], np.linalg.eigh

        def spy(mat, *args, **kwargs):
            shapes.append(np.shape(mat))
            return eigh(mat, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", spy)
            assert main(["measure", str(state), "--measure", "gconc"]) == 0
        assert shapes == [(9, 9), (9, 9)]
        results = json.loads(capsys.readouterr().out)["results"]
        value, ens = entloc.gconcurrence_mixed(load_state(str(state)))
        assert results == {"method": "convex-roof optimizer (upper bound)",
                           "converged": ens.converged, "bound": "upper", "value": value,
                           "restart_values": list(ens.restart_values),
                           "restart_evaluations": list(ens.restart_evaluations),
                           "restart_iterations": list(ens.restart_iterations),
                           "winner": ens.winner}

    def test_malformed_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        assert main(["measure", str(bad)]) == 2

    def test_le_ghz(self, tmp_path, capsys):
        assert main(["emit", "ghz", "--n", "3", "--out", str(tmp_path / "g.json")]) == 0
        capsys.readouterr()
        rc = main(["le", str(tmp_path / "g.json"), "--measure", "entropy",
                   "--restarts", "4", "--seed", "1"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["value"] >= 1.0 - 1e-6
        assert report["results"]["bound"] == "lower"

    def test_le_requires_helper(self, tmp_path, capsys):
        state = tmp_path / "bell.json"
        save_state(bell_state(), state)
        assert main(["le", str(state), "--restarts", "2"]) == 3

    def test_le_zero_restarts(self, tmp_path, capsys):
        assert main(["emit", "ghz", "--n", "3", "--out", str(tmp_path / "g.json")]) == 0
        assert main(["le", str(tmp_path / "g.json"), "--restarts", "0"]) == 2
        assert "restarts" in capsys.readouterr().err

    def test_le_concurrence_large_cut_exits_at_once(self, tmp_path):
        dims = DimSpec.make(("A", 3, "A"), ("B", 3, "B"), ("C", 2, "Z"))
        state = tmp_path / "q.json"
        save_state(random_pure(dims, np.random.default_rng(0)), state)
        t0 = time.perf_counter()
        assert main(["le", str(state), "--measure", "wootters", "--restarts", "64"]) == 3
        assert time.perf_counter() - t0 < 1.0

    def test_le_seed_determinism(self, tmp_path, capsys):
        assert main(["emit", "ghz", "--n", "3", "--out", str(tmp_path / "g.json")]) == 0
        capsys.readouterr()
        outs = []
        for _ in range(2):
            main(["le", str(tmp_path / "g.json"), "--restarts", "3", "--seed", "7"])
            outs.append(json.loads(capsys.readouterr().out)["results"])
        assert outs[0] == outs[1]

    @staticmethod
    def _le_payloads(tmp_path, dims) -> list[bytes]:
        """Two ``entloc le --measure wootters`` payloads of one random pure state."""
        state = tmp_path / "s.json"
        save_state(random_pure(dims, np.random.default_rng(3)), state)
        payloads = []
        for i in range(2):
            out = tmp_path / f"le{i}.json"
            assert main(["le", str(state), "--measure", "wootters", "--restarts", "2",
                         "--max-iters", "50", "--seed", "7", "--out", str(out)]) == 0
            payloads.append(out.read_bytes())
        return payloads

    def test_le_payload_byte_identical(self, tmp_path, capsys):
        # two helpers, so the search runs (one helper takes the closed form)
        dims = DimSpec.make(("A", 2, "A"), ("B", 2, "B"), ("C", 3, "Z"), ("D", 2, "Z"))
        payloads = self._le_payloads(tmp_path, dims)
        assert payloads[0] == payloads[1]
        report = json.loads(payloads[0])
        results = report["results"]
        # the budget is in the payload, so the run can be repeated from it
        assert report["config"]["max_iters"] == 50 and "tol" not in report["config"]
        # every restart's L-BFGS descent: its start, then at least one line
        # search trial per iteration
        assert results["evaluations"] >= 2 + results["iterations"]
        # per-restart diagnostics; the winner is the best restart, the one returned
        assert len(results["restart_values"]) == len(results["restart_iterations"]) == 2
        assert sum(results["restart_iterations"]) == results["iterations"]
        assert results["restart_values"][results["winner"]] == max(results["restart_values"])
        assert results["value"] == pytest.approx(results["restart_values"][results["winner"]],
                                                 abs=1e-12)
        assert isinstance(results["converged"], bool)
        assert results["bound"] == "lower"
        assert not any(key.startswith("polish") for key in results)

    def test_le_closed_form_payload_byte_identical(self, tmp_path, capsys,
                                                   assistance_reference):
        # one helper on a pure 2 x 2 x 3 state: the concurrence of assistance,
        # reached by a projective measurement of 3 outcomes, with no search
        dims = DimSpec.make(("A", 2, "A"), ("B", 2, "B"), ("C", 3, "Z"))
        payloads = self._le_payloads(tmp_path, dims)
        assert payloads[0] == payloads[1]
        report = json.loads(payloads[0])
        results = report["results"]
        assert report["config"]["max_iters"] == 50
        assert (results["bound"], results["converged"], results["winner"]) == ("exact", True, None)
        assert (results["restart_values"], results["restart_iterations"]) == ([], [])
        assert (results["iterations"], results["evaluations"]) == (0, 0)
        assert len(results["povm"]) == len(results["branches"]) == 3
        m = random_pure(dims, np.random.default_rng(3)).amplitudes.reshape(4, 3)
        coa = assistance_reference(m @ m.conj().T)
        assert results["value"] == pytest.approx(coa, abs=1e-12)
        assert sum(b["p"] * b["branch_value"] for b in results["branches"]) == pytest.approx(
            results["value"], abs=1e-15)

    def test_protocol_command(self, tmp_path, capsys):
        state = tmp_path / "locked.json"
        proto = tmp_path / "proto.json"
        save_state(build_locked_state(), state)
        save_protocol(locked_state_protocol(), proto)
        assert main(["protocol", str(state), str(proto)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["average"] == pytest.approx(2.0, abs=1e-9)

    def test_pure_file_is_used_as_a_vector(self, tmp_path, capsys, monkeypatch):
        # le, protocol and measure take a pure state file as its vector: no
        # dense operator is eigendecomposed, and the numbers match the dense path
        state, proto, bell = (tmp_path / name for name in ("locked.json", "proto.json",
                                                           "bell.json"))
        save_state(build_locked_state(), state)
        save_protocol(locked_state_protocol(), proto)
        save_state(bell_state(), bell)
        runs = (["le", str(state), "--restarts", "2", "--max-iters", "10", "--seed", "3"],
                ["protocol", str(state), str(proto)],
                ["measure", str(bell), "--measure", "gconc"])
        reports = []
        with monkeypatch.context() as patch:
            def refuse(self):
                raise AssertionError("a pure input was eigendecomposed")

            patch.setattr(entloc.DensityOperator, "eigensystem", refuse)
            for argv in runs:
                assert main(argv) == 0
                reports.append(json.loads(capsys.readouterr().out)["results"])
        locked = build_locked_state().to_density()
        le = entloc.optimize_le(locked, entloc.entropy_measure(),
                                entloc.LEConfig(restarts=2, max_iters=10, seed=3))
        assert reports[0]["value"] == pytest.approx(le.value, rel=1e-12, abs=0)
        assert reports[0]["bound"] == le.bound
        eoc = entloc.evaluate_protocol(locked, locked_state_protocol(), entloc.entropy_measure())
        assert reports[1]["average"] == pytest.approx(eoc.average, rel=1e-12, abs=0)
        assert reports[1]["bound"] == eoc.bound
        assert reports[2]["value"] == pytest.approx(1.0, abs=1e-12)

    def test_protocol_not_trace_preserving_exits_2(self, tmp_path, capsys):
        state = tmp_path / "locked.json"
        proto = tmp_path / "bad.json"
        save_state(build_locked_state(), state)
        doc = protocol_to_dict(locked_state_protocol())
        doc["instrument"][0][0][0] = [2.0, 0.0]
        proto.write_text(json.dumps(doc))
        assert main(["protocol", str(state), str(proto)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "trace preserving" in err

    def test_protocol_nan_kraus_entry_exits_2(self, tmp_path, capsys):
        # a NaN entry passes the trace-preserving test (nan > tol is False)
        # unless it is rejected on its own
        state = tmp_path / "ghz.json"
        proto = tmp_path / "nan.json"
        save_state(ghz_state(3), state)
        kraus = [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                 [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [float("nan"), 0.0]]]
        doc = {"party": "q2", "dim": 2, "instrument": [[k] for k in kraus],
               "children": [None, None]}
        proto.write_text(json.dumps(doc))
        assert main(["protocol", str(state), str(proto)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-finite" in err

    def test_le_entropy_on_mixed_state_exits_2(self, tmp_path, capsys):
        dims = DimSpec.make(("A", 2, "A"), ("B", 2, "B"), ("C", 2, "Z"))
        state = tmp_path / "mixed.json"
        save_state(random_density(dims, np.random.default_rng(3), rank=2), state)
        assert main(["le", str(state), "--measure", "entropy", "--restarts", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "pure states only" in err

    def test_properties_suite_passes(self, capsys):
        for suite, trials in (("jamio", 10), ("gconc", 10), ("convexity", 5),
                              ("monotonicity", 2), ("kraus", 10), ("roof", 2), ("tree", 6),
                              ("jamio", 0), ("gconc", 0), ("convexity", 0), ("monotonicity", 0),
                              ("kraus", 0), ("roof", 0), ("tree", 0)):
            assert main(["properties", "--suite", suite, "--trials", str(trials),
                         "--seed", "0"]) == 0
            # strict JSON: no -Infinity or NaN, also with no trials
            results = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)["results"]
            assert results["passed"] == trials
            assert (None in results["worst"].values()) == (trials == 0)

    def test_properties_violation_exits_1(self, monkeypatch, capsys):
        line = "trial 1: gap 2.00e-03 > 1e-06"
        monkeypatch.setitem(cli.SUITES, "monotonicity", lambda trials, seed: ({}, [line]))
        assert main(["properties", "--suite", "monotonicity", "--trials", "3"]) == 1
        out, err = capsys.readouterr()
        assert "FAIL" in err
        assert json.loads(out)["results"]["failures"] == [line]

    def test_properties_gconc_reports_criterion_5_figures(self, capsys):
        assert main(["properties", "--suite", "gconc", "--trials", "500",
                     "--seed", "51"]) == 0
        worst = json.loads(capsys.readouterr().out)["results"]["worst"]
        assert [f"{worst[k]:.1e}" for k in ("homogeneity", "multiplicativity",
                                            "unit_value")] == ["1.1e-15", "3.5e-14", "2.2e-16"]

    @pytest.mark.parametrize("argv, env", [
        ("properties --suite jamio --trials -1", "0"),
        ("properties --suite jamio --seed -1", "0"),
        ("le GHZ --seed -1", "0"),
        ("le GHZ --max-iters -1", "0"),
        ("le GHZ --restarts 0", "0"),
        ("reproduce --seed -1", "0"),
        ("reproduce --restarts 0", "0"),
        ("emit bell --out OUT", "x"),
        ("emit bell --out OUT", "-3"),
        ("emit bell --out NODIR", "0"),
    ])
    def test_bad_value_exits_2(self, argv, env, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("ENTLOC_SEED", env)
        paths = {"GHZ": tmp_path / "ghz.json", "OUT": tmp_path / "out.json",
                 "NODIR": tmp_path / "missing" / "out.json"}
        save_state(ghz_state(3), paths["GHZ"])
        assert _exit_code([str(paths.get(a, a)) for a in argv.split()]) == 2
        assert "error:" in capsys.readouterr().err

    def test_emit_werner_needs_p(self, tmp_path, capsys):
        assert main(["emit", "werner", "--out", str(tmp_path / "x.json")]) == 2
        assert "--p" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()
        assert main(["emit", "werner", "--p", "2", "--out", str(tmp_path / "x.json")]) == 2

    @pytest.mark.parametrize("name", ["ghz", "w"])
    def test_emit_qubit_count_capped(self, name, monkeypatch, tmp_path, capsys):
        # refused before the catalog builds (and allocates) anything
        monkeypatch.setattr(cli, "canonical_state", lambda *a, **k: pytest.fail("state built"))
        out = tmp_path / "big.json"
        assert main(["emit", name, "--n", "40", "--out", str(out)]) == 2
        assert "--n 40" in capsys.readouterr().err
        assert not out.exists()

    def test_reproduce_small(self, tmp_path, capsys, monkeypatch):
        # the locked state is scored as its vector: its 64 x 64 operator is
        # never built, so never eigendecomposed
        shapes, eigh = [], np.linalg.eigh

        def spy(mat, *args, **kwargs):
            shapes.append(np.shape(mat))
            return eigh(mat, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", spy)
            rc = main(["reproduce", "--restarts", "4", "--seed", "2",
                       "--out", str(tmp_path / "rep.json")])
        assert rc == 0
        assert (64, 64) not in shapes
        report = json.loads((tmp_path / "rep.json").read_text())
        table = {row["quantity"]: row["value"] for row in report["results"]["table"]}
        assert table["EoC(entropy)"] == pytest.approx(2.0, abs=1e-9)
        assert table["LE(entropy)"] < 2.0
        assert table["EoC(G)"] == 0.0
        assert table["LE(G)"] == pytest.approx(0.0, abs=1e-12)


_JSON_LEAF = (st.none() | st.booleans() | st.integers(-3, 5)
              | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4))
_JSON = st.recursive(_JSON_LEAF,
                     lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(st.text(max_size=4), inner, max_size=4),
                     max_leaves=12)
_DIM = st.one_of(st.integers(-1, 3), st.floats(allow_nan=True), st.text(max_size=2))
_ENTRIES = st.lists(st.one_of(
    st.tuples(st.floats(-2, 2), st.floats(-2, 2)).map(list),
    st.tuples(st.floats(allow_nan=True, allow_infinity=True), st.floats()).map(list),
    _JSON), max_size=10)
_STATE_DOCS = st.one_of(_JSON, st.fixed_dictionaries({
    "dims": st.one_of(st.lists(st.fixed_dictionaries({
        "label": st.one_of(st.sampled_from(["A", "B", "C"]), _JSON_LEAF),
        "dim": _DIM,
        "role": st.one_of(st.sampled_from(["A", "B", "Z", "Q"]), _JSON_LEAF),
    }), max_size=3), _JSON),
    "kind": st.one_of(st.sampled_from(["pure", "density", "mixed"]), _JSON_LEAF),
    "data": st.one_of(_ENTRIES, _JSON),
}))
_PROTOCOL_DOCS = st.recursive(
    st.one_of(_JSON, st.fixed_dictionaries({
        "party": st.one_of(st.sampled_from(["A", "C"]), _JSON_LEAF),
        "dim": _DIM,
        "instrument": st.one_of(st.lists(st.lists(_ENTRIES, max_size=2), max_size=2), _JSON),
        "children": st.one_of(st.lists(st.none(), max_size=2), _JSON),
    })),
    lambda inner: st.fixed_dictionaries({
        "party": st.just("C"), "dim": st.just(1),
        "instrument": st.just([[[[1.0, 0.0]]]]),
        "children": st.lists(inner, min_size=1, max_size=1),
    }),
    max_leaves=3)


class TestFuzzedDocuments:
    @settings(max_examples=300, deadline=None)
    @given(_STATE_DOCS)
    def test_state_from_dict(self, doc):
        try:
            state_from_dict(doc)
        except (ParseError, DimensionError):
            pass

    @settings(max_examples=300, deadline=None)
    @given(_PROTOCOL_DOCS)
    def test_protocol_from_dict(self, doc):
        try:
            protocol_from_dict(doc)
        except (ParseError, DimensionError):
            pass


def test_import_leaves_scipy_out():
    # the library and its CLI run on numpy alone; scipy is a test-time reference.
    # `import entloc`, which the benchmark's setup_s times, loads neither the
    # CLI nor the property checks
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import entloc; "
            "print(sorted(m for m in ('entloc.cli', 'entloc.checks') if m in sys.modules)); "
            "import entloc.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(entloc.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.split() == ["[]", "[]"]
