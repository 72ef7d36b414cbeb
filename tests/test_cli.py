"""Exit codes, artifacts, and determinism of the command-line front end."""

import json
import re
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from vortexlab import from_catalog, stationary
from vortexlab.cli import _KEYS, _Config, main

from conftest import MU

LOG_LINE = re.compile(r"^level=\w+ task=\w+ msg=\S")
ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "out" / "figure1"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def write_config(tmp_path, body, name="task.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def stationary_config(tmp_path, extra=""):
    out = tmp_path / "out"
    return write_config(tmp_path, f"""
[domain]
kind = disc

[task]
kind = stationary
output_dir = {out}
seed = 0

[anchors]
strengths = 1, -1
guess = 0.45 0.05; -0.5 -0.03
{extra}
"""), out


def figure1_config(tmp_path, periodic_section, cluster1="pair\nparams = -1, -1",
                   task="periodic"):
    out = tmp_path / "out"
    return write_config(tmp_path, f"""
[domain]
kind = disc

[task]
kind = {task}
output_dir = {out}
seed = 0

[anchors]
strengths = -2, 2
positions = {MU} 0; -{MU} 0

[cluster.1]
catalog = {cluster1}

[cluster.2]
catalog = pair
params = 1, 1

[periodic]
{periodic_section}
"""), out


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_version_prints_the_package_version(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


def test_no_command_prints_help_and_fails(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_unreadable_config_is_a_config_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 2
    err = capsys.readouterr().err
    assert "level=error" in err


def test_malformed_config_is_a_config_error(tmp_path):
    path = write_config(tmp_path, "strengths = 1, -1\nno section header\n")
    assert main(["run", path]) == 2


def test_unknown_task_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path,
                        "[domain]\nkind = disc\n\n[task]\nkind = a dance\n")
    assert main(["run", path]) == 2
    assert_one_error_line(capsys.readouterr().err)


def custom_certify_config(tmp_path, strengths="1, 1",
                          positions="0.3989422804014327 0; "
                                    "-0.3989422804014327 0"):
    return write_config(tmp_path, f"""
[domain]
kind = plane

[task]
kind = certify
output_dir = {tmp_path / "out"}

[certify]
catalog = custom
strengths = {strengths}
positions = {positions}
""")


def assert_one_error_line(err):
    lines = [ln for ln in err.split("\n") if ln]
    assert all(LOG_LINE.match(line) for line in lines), err
    assert [ln for ln in lines if ln.startswith("level=error")] \
        == [lines[-1]], err
    assert "Traceback" not in err


def undecodable_config(tmp_path):
    path = tmp_path / "binary.cfg"
    path.write_bytes(b"[task]\nkind = \xff\xfe\n")
    return str(path)


def file_as_output_dir_config(tmp_path):
    path, out = stationary_config(tmp_path)
    out.write_text("")
    return path


@pytest.mark.parametrize("make_config, message", [
    pytest.param(lambda tmp: figure1_config(
        tmp, "r = 0.1", cluster1="pair\nparams = -1, -1, 3")[0],
        "pair expects 2 parameters, got 3", id="params-of-the-wrong-length"),
    pytest.param(lambda tmp: figure1_config(tmp, "r = ,", task="sweep")[0],
                 "[periodic] r = ',': empty list", id="empty-number-list"),
    pytest.param(lambda tmp: stationary_config(tmp, "guess_jitter = -0.1")[0],
                 "[anchors] guess_jitter = '-0.1': must be >= 0",
                 id="negative-guess-jitter"),
    # sigma is derived from the positions: any permutation is refused
    pytest.param(lambda tmp: with_line(
        custom_certify_config(tmp), "strengths = 1, 1",
        "strengths = 1, 1\npermutation = 0.4 1.2"),
                 "unknown key [certify] permutation",
                 id="fractional-permutation"),
    pytest.param(undecodable_config, "codec can't decode",
                 id="undecodable-file"),
    pytest.param(file_as_output_dir_config, "[task] output_dir = ",
                 id="output-dir-is-a-file"),
    pytest.param(lambda tmp: with_line(custom_certify_config(tmp),
                                       "strengths = 1, 1",
                                       "strengths = 1, 1\nparams = 9"),
                 "[certify] params is not read by catalog 'custom'",
                 id="params-of-a-custom-cluster"),
    pytest.param(lambda tmp: figure1_config(
        tmp, "r = 0.1", cluster1="trivial\nparams = -2")[0],
        "[cluster.1] params is not read by catalog 'trivial'",
        id="params-of-a-trivial-cluster"),
    pytest.param(lambda tmp: figure1_config(
        tmp, "r = 0.1", cluster1="pair\nparams = -1, -1\nstrengths = -1, -1")[0],
        "[cluster.1] strengths is not read by catalog 'pair'",
        id="strengths-of-a-named-cluster"),
    pytest.param(lambda tmp: figure1_config(
        tmp, "r = 0.1", cluster1="thomson\nparams = 2, -1\npermutation = 1 0")[0],
        "unknown key [cluster.1] permutation",
        id="permutation-of-a-named-cluster"),
    pytest.param(lambda tmp: figure1_config(
        tmp, "r = 0.1", cluster1="trivial\npositions = 0 0")[0],
        "[cluster.1] positions is not read by catalog 'trivial'",
        id="positions-of-a-trivial-cluster"),
    pytest.param(lambda tmp: figure1_config(
        tmp, "r = 0.1", cluster1="custom\nstrengths = -2\npositions = 0 0")[0],
        "use catalog = trivial", id="one-vortex-custom-cluster"),
    pytest.param(lambda tmp: figure1_config(
        tmp, "r = 0.1\nphases = 0.5, 0", task="scan")[0],
        "[periodic] phases is not read by task 'scan'", id="phases-of-a-scan"),
])
def test_bad_input_exits_with_one_config_error_line(
        tmp_path, capsys, make_config, message):
    assert main(["run", make_config(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "config error" in err
    assert message in err


@pytest.mark.parametrize("section, line", [
    ("anchors", "guess_jiter = 0.3"),
    ("periodic", "boundary_margn = 0.1"),
    ("cluster.2", "param = 1, 1"),
    ("task", "sead = 3"),
    # retired settings: the code fixes or derives these values
    ("anchors", "gradient_tol = 1e-6"),
    ("periodic", "energy_projection = true"),
    ("periodic", "grid = 8"),
    ("periodic", "max_step = 0.1"),
    ("anchors", "max_iterations = 100"),
    ("cluster.2", "normalize_omega = 1"),
    ("cluster.2", "omega = 1"),
    ("domain", "epsilon = 0.01"),
    # every integration runs at the default tolerance
    ("periodic", "rtol = 1e-10"),
    ("periodic", "atol = 1e-10"),
    ("simulate", "rtol = 1e-10"),
    ("simulate", "atol = 1e-10"),
    # the program derives sigma from the positions
    ("cluster.2", "permutation = 1 0"),
    ("certify", "permutation = 1 0"),
])
def test_unknown_key_is_a_config_error(tmp_path, capsys, section, line):
    if section == "simulate":
        path = disc_dipole_simulate_config(tmp_path, "0.5 0.05; 0.5 -0.05", "")
    elif section == "certify":
        path = custom_certify_config(tmp_path)
    else:
        path, _ = figure1_config(tmp_path, "r = 0.1")
    text = Path(path).read_text().replace(f"[{section}]\n",
                                          f"[{section}]\n{line}\n")
    Path(path).write_text(text)
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert f"unknown key [{section}] {line.split()[0]}" in err


def test_unknown_section_and_certify_keys(tmp_path, capsys):
    path = custom_certify_config(tmp_path)
    text = Path(path).read_text()
    Path(path).write_text(text + "catalogue = pair\n")
    assert main(["run", path]) == 2
    assert "unknown key [certify] catalogue" in capsys.readouterr().err
    Path(path).write_text(text + "\n[simulat]\nt_end = 1\n")
    assert main(["run", path]) == 2
    assert "unknown section [simulat]" in capsys.readouterr().err


@pytest.mark.parametrize("positions, sigma, order", [
    ("0.3989422804014327 0; -0.3989422804014327 0", [0, 1], 1),
    # the thomson 2-gon at omega = -1/2: one base period swaps the two
    ("0.5641895835477563 0; -0.5641895835477563 0", [1, 0], 2),
], ids=["pair", "two-gon"])
def test_custom_cluster_permutation_is_derived_from_its_positions(
        tmp_path, capsys, positions, sigma, order):
    path = custom_certify_config(tmp_path, positions=positions)
    assert main(["run", path]) == 0
    doc = json.loads((tmp_path / "out" / "certification.json").read_text())
    assert doc["permutation"] == sigma and doc["order"] == order
    assert doc["sigma_nondegenerate"]


def test_custom_cluster_certifies_as_its_catalog_twin(tmp_path, capsys):
    # the custom pair is make_pair(1, 1): its angular velocity is
    # projected from the positions, as the catalog's is
    assert main(["run", custom_certify_config(tmp_path)]) == 0
    doc = json.loads((tmp_path / "out" / "certification.json").read_text())
    capsys.readouterr()
    assert main(["certify", "pair", "1", "1"]) == 0
    twin = json.loads(capsys.readouterr().out)
    del twin["catalog"], twin["params"]
    assert {key: doc[key] for key in twin} == twin
    assert doc["angular_velocity"] == -1.0


@pytest.mark.parametrize("positions, message", [
    pytest.param("0.7978845608028654 0; -0.7978845608028654 0",
                 "|omega| * ord(sigma) = 1 (twisted period 2*pi), got 0.25: "
                 "normalize() the configuration, or scale the custom "
                 "positions by 0.5", id="twice-the-size"),
    pytest.param("0.3 0; -0.5 0", "misses the rigid-rotation condition",
                 id="off-center"),
])
def test_custom_cluster_off_the_normalized_equilibrium_uses_the_precondition_code(
        tmp_path, capsys, positions, message):
    path = custom_certify_config(tmp_path, positions=positions)
    assert main(["run", path]) == 3
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert message in err


def test_config_reference_names_exactly_the_accepted_keys():
    # every accepted key is named in its section of docs/config.md, and
    # no key-table row there names a key the runner refuses
    text = (ROOT / "docs" / "config.md").read_text()
    sections = dict(re.findall(r"^## \[(\w+)[^\]]*\]\n(.*?)(?=^## |\Z)",
                               text, re.M | re.S))
    for kind, keys in _KEYS.items():
        body = sections[kind]
        assert set(keys) <= set(re.findall(r"`(\w+)`", body)), kind
        rows = [ln.split("|")[1] for ln in body.splitlines()
                if ln.startswith("| `")]
        tabled = {key for row in rows for key in re.findall(r"`(\w+)`", row)}
        assert tabled <= set(keys), kind


def test_benchmark_configs_use_only_accepted_keys(tmp_path):
    # perfbench's workload configs parse under today's key table, so a
    # retired key they still set fails here and not in a benchmark run;
    # workloads.py is compiled from its source text, so nothing is
    # written beside it
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS)
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"),
         module.__dict__)
    for make in (module.orbit_config, module.simulate_config):
        _Config(write_config(tmp_path, make(7, 0, str(tmp_path / "out")),
                             f"{make.__name__}.cfg"))


def test_diagnostics_are_single_structured_lines(tmp_path, capsys):
    path, _ = stationary_config(tmp_path)
    assert main(["run", path]) == 0
    err = capsys.readouterr().err
    lines = [ln for ln in err.split("\n") if ln]
    assert lines
    for line in lines:
        assert LOG_LINE.match(line), line


# ---------------------------------------------------------------------------
# stationary task
# ---------------------------------------------------------------------------

def test_stationary_task_locates_the_disc_dipole(tmp_path):
    path, out = stationary_config(tmp_path)
    assert main(["run", path]) == 0
    data = json.loads((out / "stationary.json").read_text())
    xs = np.array(data["positions"])
    # the critical set is a circle of rotated copies, so the invariant
    # is the distance from the center, not the axis alignment
    radii = np.hypot(xs[:, 0], xs[:, 1])
    assert np.max(np.abs(radii - MU)) <= 1e-9
    assert np.linalg.norm(xs[0] + xs[1]) <= 1e-8
    assert data["classification"] == "RotationalII"
    assert data["config"]["sections"]["task"]["kind"] == "stationary"
    assert data["config"]["seed"] == 0


def test_unconverged_anchor_search_uses_the_convergence_code(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(stationary, "MAX_ITERATIONS", 1)
    path, _ = stationary_config(tmp_path)
    assert main(["run", path]) == 4
    assert "no convergence" in capsys.readouterr().err


def test_identical_runs_write_identical_bytes(tmp_path):
    path, out = stationary_config(tmp_path, "guess_jitter = 0.02")
    assert main(["run", path]) == 0
    first = (out / "stationary.json").read_bytes()
    assert main(["run", path]) == 0
    assert (out / "stationary.json").read_bytes() == first


# ---------------------------------------------------------------------------
# simulate task
# ---------------------------------------------------------------------------

def test_simulate_task_writes_trajectory_and_summary(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, f"""
[domain]
kind = plane

[task]
kind = simulate
output_dir = {out}

[vortices]
strengths = 1, 1
positions = 0.5 0; -0.5 0

[simulate]
t_end = 1.0
""")
    assert main(["run", path]) == 0
    data = json.loads((out / "simulation.json").read_text())
    assert data["steps"] > 0
    assert data["min_separation"] == pytest.approx(1.0, abs=1e-9)
    assert abs(data["energy_drift"]) <= 1e-10
    header = (out / "trajectory.csv").read_text().split("\n")[0]
    assert header == "t,x1,y1,x2,y2,H"


def disc_dipole_simulate_config(tmp_path, positions, extra):
    return write_config(tmp_path, f"""
[domain]
kind = disc

[task]
kind = simulate
output_dir = {tmp_path / "out"}

[vortices]
strengths = 1, -1
positions = {positions}

[simulate]
t_end = 1.0
{extra}
""")


def test_start_inside_the_boundary_margin_uses_the_precondition_code(
        tmp_path, capsys):
    # vortex 0 starts 0.05 from the wall, inside the 0.1 margin
    path = disc_dipole_simulate_config(tmp_path, "0.95 0; -0.5 0",
                                       "boundary_margin = 0.1")
    assert main(["run", path]) == 3
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "precondition violated: vortex 0" in err


def test_start_inside_the_collision_tol_uses_the_precondition_code(
        tmp_path, capsys):
    # the pair starts 0.001 apart, inside the 0.01 threshold: nothing is
    # integrated, so it is a precondition, not an event
    path = disc_dipole_simulate_config(tmp_path, "0.5 0; 0.5 0.001",
                                       "collision_tol = 0.01")
    assert main(["run", path]) == 3
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "precondition violated: vortices 0 and 1" in err


@pytest.mark.parametrize("key", ["collision_tol", "boundary_margin"])
def test_non_finite_integrator_setting_uses_the_precondition_code(
        tmp_path, capsys, key):
    path = disc_dipole_simulate_config(tmp_path, "0.5 0.05; 0.5 -0.05",
                                       f"{key} = nan")
    assert main(["run", path]) == 3
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "must be finite" in err


def with_line(path, old, new):
    """path, after its config line old is replaced by new."""
    text = Path(path).read_text()
    assert old in text
    Path(path).write_text(text.replace(old, new))
    return path


def simulate_with(old, new):
    return lambda tmp: with_line(disc_dipole_simulate_config(
        tmp, "0.5 0.05; 0.5 -0.05", ""), old, new)


# unchecked, a non-finite number hangs the integrator, ends in an SVD
# traceback or is reported as another failure
@pytest.mark.parametrize("make_config", [
    pytest.param(lambda tmp: figure1_config(tmp, "r = nan")[0],
                 id="periodic-r-nan"),
    pytest.param(lambda tmp: figure1_config(tmp, "r = inf")[0],
                 id="periodic-r-inf"),
    pytest.param(lambda tmp: figure1_config(tmp, "r = 0.1\nphases = nan, 0")[0],
                 id="periodic-phases-nan"),
    pytest.param(simulate_with("t_end = 1.0", "t_end = nan"),
                 id="simulate-t_end-nan"),
    pytest.param(simulate_with("t_end = 1.0", "t_end = inf"),
                 id="simulate-t_end-inf"),
    pytest.param(simulate_with("strengths = 1, -1", "strengths = nan, 1"),
                 id="vortices-strengths-nan"),
    pytest.param(simulate_with("strengths = 1, -1", "strengths = inf, 1"),
                 id="vortices-strengths-inf"),
    pytest.param(lambda tmp: figure1_config(
        tmp, "r = 0.1", cluster1="custom\nstrengths = -1, -1\npositions = "
        "nan 0; -0.3989422804014327 0")[0],
        id="custom-cluster-positions-nan"),
    pytest.param(lambda tmp: with_line(stationary_config(tmp)[0],
                                       "strengths = 1, -1",
                                       "strengths = nan, -1"),
                 id="anchors-strengths-nan"),
])
def test_non_finite_number_uses_the_precondition_code(tmp_path, capsys,
                                                      make_config):
    assert main(["run", make_config(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "precondition violated" in err and "finite" in err


# numpy would warn on the way to the explicit finiteness checks
@pytest.mark.parametrize("argv", [
    pytest.param(lambda tmp: ["run", custom_certify_config(
        tmp, positions="0.3 0; 0.3 0")],
        id="certify-coincident-custom-members"),
    pytest.param(lambda tmp: ["run", simulate_with(
        "strengths = 1, -1", "strengths = 1e308, 1e308")(tmp)],
        id="simulate-overflowing-strengths"),
    pytest.param(lambda tmp: ["certify", "thomson", "3", "1e308"],
                 id="certify-subcommand-overflowing-strength"),
])
def test_floating_point_warnings_stay_off_stderr(tmp_path, capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv(tmp_path)) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert_one_error_line(capsys.readouterr().err)


def test_boundary_event_uses_the_event_code(tmp_path, capsys):
    path = disc_dipole_simulate_config(tmp_path, "0.5 0.05; 0.5 -0.05",
                                       "boundary_margin = 0.1")
    assert main(["run", path]) == 5
    assert "event" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# periodic, sweep, and scan tasks
# ---------------------------------------------------------------------------

def test_periodic_task_writes_orbit_artifacts(tmp_path):
    path, out = figure1_config(tmp_path, "r = 0.1\nphases = 0, 0")
    assert main(["run", path]) == 0
    data = json.loads((out / "orbit_r0.1.json").read_text())
    assert data["residual"] <= 1e-10
    assert data["closure"] <= 1e-9
    assert data["scale"] == 0.1
    assert data["config"]["sections"]["periodic"]["r"] == "0.1"
    assert data["spec"]["domain"] == "unit-disc"
    for name in ("traj_r0.1.csv", "traj_r0.1_rescaled.csv"):
        header = (out / name).read_text().split("\n")[0]
        assert header == "t,x1,y1,x2,y2,x3,y3,x4,y4,H"


def test_newton_step_inside_the_collision_tol_uses_the_convergence_code(
        tmp_path, capsys):
    # the guess's closest pair is 0.0798 apart; the first Newton step
    # brings it to 0.0795, inside the threshold
    path, _ = figure1_config(tmp_path, "r = 0.1\ncollision_tol = 0.0796")
    assert main(["run", path]) == 4
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "left the admissible set" in err


def test_periodic_start_inside_the_collision_tol_uses_the_precondition_code(
        tmp_path, capsys):
    # the guess's closest pair is 0.0798 apart, already inside the
    # threshold: the start is refused before any Newton step
    path, _ = figure1_config(tmp_path, "r = 0.1\ncollision_tol = 0.09")
    assert main(["run", path]) == 3
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "precondition violated: vortices" in err


def test_zero_sum_cluster_uses_the_precondition_code(tmp_path, capsys):
    path, _ = figure1_config(tmp_path, "r = 0.1",
                             cluster1="pair\nparams = 1, -1")
    assert main(["run", path]) == 3
    assert "precondition violated" in capsys.readouterr().err


def test_sweep_task_reports_monotone_distances(tmp_path):
    path, out = figure1_config(tmp_path, "r = 0.2, 0.1", task="sweep")
    assert main(["run", path]) == 0
    data = json.loads((out / "sweep.json").read_text())
    assert data["r_values"] == [0.2, 0.1]
    assert data["monotone_decreasing"] is True
    assert data["distances_to_m"][0] > data["distances_to_m"][1]
    assert data["orbits"] == ["orbit_r0.2.json", "orbit_r0.1.json"]
    for name in data["orbits"]:
        assert (out / name).exists()


def test_sweep_writes_one_orbit_file_per_scale(tmp_path):
    # the two scales agree to 6 significant digits: "%g" would name them
    # alike, and the second orbit would overwrite the first
    path, out = figure1_config(tmp_path, "r = 0.1000002, 0.1000001",
                               task="sweep")
    assert main(["run", path]) == 0
    data = json.loads((out / "sweep.json").read_text())
    assert data["orbits"] == ["orbit_r0.1000002.json", "orbit_r0.1000001.json"]
    for name, r in zip(data["orbits"], data["r_values"]):
        assert json.loads((out / name).read_text())["scale"] == r
        assert (out / name.replace("orbit", "traj").replace(".json",
                                                            ".csv")).exists()


def test_scan_task_writes_a_class_summary(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, f"""
[domain]
kind = disc

[task]
kind = scan
output_dir = {out}

[anchors]
strengths = 1
positions = 0 0

[cluster.1]
catalog = thomson
params = 3, 0.3333333333333333

[periodic]
r = 0.1
""")
    assert main(["run", path]) == 0
    data = json.loads((out / "scan.json").read_text())
    assert data["attempted"] == 1
    assert data["distinct_classes"] == 1
    assert data["failures"] == []
    assert data["orbits"][0]["symmetry_defect"] <= 1e-8


# ---------------------------------------------------------------------------
# certify subcommand
# ---------------------------------------------------------------------------

def test_certify_subcommand_reports_a_catalog_ring(capsys):
    assert main(["certify", "thomson", "3", "1.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["catalog"] == "thomson"
    assert doc["params"] == [3.0, 1.0]
    assert doc["angular_velocity"] == pytest.approx(-1.0 / 3.0)
    assert doc["symmetric_count"] == 3


@pytest.mark.parametrize("n", ["4", "5"])
def test_certify_subcommand_resolves_strongly_hyperbolic_hermite_roots(
        capsys, n):
    # monodromy norms 5.5e7 and 3.8e10: the capped kernel cutoff keeps
    # order-one singular values out of the kernel count
    assert main(["certify", "hermite", n, "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["periodic_solution_count"] == 3
    assert doc["unit_multiplier_count"] == 4
    assert doc["nondegenerate"]


@pytest.mark.parametrize("n", ["6", "7"])
def test_certify_subcommand_refuses_an_unresolvable_monodromy(capsys, n):
    assert main(["certify", "hermite", n, "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert "precondition violated" in captured.err
    assert "monodromy norm" in captured.err


def test_certify_subcommand_rejects_unknown_catalogs(capsys):
    assert main(["certify", "nonsense"]) == 2
    assert "level=error" in capsys.readouterr().err


def test_wrong_length_params_are_a_config_error_in_both_certify_paths(
        tmp_path, capsys):
    path = write_config(tmp_path, f"""
[domain]
kind = plane

[task]
kind = certify
output_dir = {tmp_path / "out"}

[certify]
catalog = pair
params = 1
""")
    assert main(["run", path]) == 2
    assert_one_error_line(capsys.readouterr().err)
    assert main(["certify", "pair", "1"]) == 2
    assert_one_error_line(capsys.readouterr().err)
    assert main(["certify", "thomson", "inf", "1"]) == 2
    assert_one_error_line(capsys.readouterr().err)


def test_fractional_vortex_counts_are_a_config_error(tmp_path, capsys):
    # a ring or line of 3.4 vortices is no catalog entry; rounding the
    # count would certify another one
    path = write_config(tmp_path, f"""
[domain]
kind = plane

[task]
kind = certify
output_dir = {tmp_path / "out"}

[certify]
catalog = thomson
params = 2.5, 1
""")
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "whole vortex count" in err
    for name in ("thomson", "hermite"):
        assert main(["certify", name, "3.4", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err)
    with pytest.raises(ValueError, match="whole vortex count"):
        from_catalog("thomson", 2.5, 1.0)


def test_certify_subcommand_flags_zero_total_strength(capsys):
    assert main(["certify", "pair", "1", "-1"]) == 3
    assert "precondition" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# shipped configs
# ---------------------------------------------------------------------------

SHIPPED = {"dipole.cfg": "stationary.json", "figure1.cfg": "orbit_r0.1.json"}


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_config_runs(tmp_path, name):
    text = (ROOT / "configs" / name).read_text()
    out = tmp_path / "out"
    redirected, count = re.subn(r"(?m)^output_dir = .*$",
                                f"output_dir = {out}", text)
    assert count == 1
    assert main(["run", write_config(tmp_path, redirected, name)]) == 0
    assert (out / SHIPPED[name]).is_file()


def test_no_shipped_config_writes_into_the_golden_orbit_directory():
    for path in (ROOT / "configs").glob("*.cfg"):
        outdir = re.search(r"(?m)^output_dir = (.*)$", path.read_text())
        assert (ROOT / outdir.group(1).strip()).resolve() \
            != GOLDEN_DIR.resolve(), path.name
