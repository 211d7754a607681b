import dataclasses
import json
import math

import numpy as np
import pytest
from jsonschema import ValidationError, validate

from planegbp import abstraction, geometry, harness, io_formats
from planegbp.abstraction import D_MERGE, GAP_MERGE, AbstractionManager
from planegbp.cli import main as cli_main
from planegbp.engine import GbpEngine
from planegbp.errors import CapacityError, ContractViolation
from planegbp.harness import compare_runs, export_reconstruction, run
from planegbp.frontend import generate_scene
from planegbp.gaussians import GaussianInfo
from planegbp.geometry import PlaneParams
from planegbp.graph import (
    COMBINED_RIGID_REPROJECTION,
    FACTOR_KINDS,
    POINT,
    PRIOR,
    REPROJECTION,
    RIGID_BODY,
    FactorGraph,
    FactorNode,
)
from planegbp.routing import ROUTED, RoutingSimulator
import schemas
from conftest import graph_signature
from scenes import ba_scene, box_room_spec, desk_config, merge_scene, wall_scene


def small_config(seed=3, **kw):
    scene = wall_scene(seed, n_keyframes=4, points_per_plane=10, n_clutter=8)
    cfg = desk_config(scene, seed, **kw)
    cfg.max_iterations = 250
    return cfg


def test_build_ba_graph_replays_from_its_journal():
    # The noisy starts of points, priors and the scale anchor are drawn
    # before the first edit, so the journal replays the graph the solvers see.
    spec = ba_scene(1, n_keyframes=3, points_per_plane=30, n_clutter=20)
    scene = generate_scene(spec)
    packets = [scene.emit_keyframe(k) for k in range(spec.n_keyframes)]
    graph, _ = harness.build_ba_graph(desk_config(spec, 1, planes=False), packets,
                                      scene.camera, point_noise=0.05, scene=scene)
    replayed = FactorGraph.replay(graph.journal, scene.camera)
    assert graph_signature(replayed) == graph_signature(graph)
    for vid, node in graph.variables.items():
        twin = replayed.variables[vid].belief
        assert np.array_equal(twin.eta, node.belief.eta)
        assert np.array_equal(twin.lam, node.belief.lam)


def test_ba_graph_growth_exponentiates_per_keyframe_not_per_point(monkeypatch):
    # Building the lm_ba graph (points backprojected, not given) computes a
    # bounded number of rotations per keyframe, however many points it adds.
    exp_batch = geometry.so3_exp_batch
    calls = []

    def counted(w):
        calls.append(len(w))
        return exp_batch(w)

    monkeypatch.setattr(geometry, "so3_exp_batch", counted)
    counts = []
    for points_per_plane in (10, 40):
        spec = ba_scene(2, n_keyframes=4, points_per_plane=points_per_plane,
                        n_clutter=points_per_plane)
        scene = generate_scene(spec)
        packets = [scene.emit_keyframe(k) for k in range(spec.n_keyframes)]
        calls.clear()
        graph, _ = harness.build_ba_graph(desk_config(spec, 2, planes=False), packets,
                                          scene.camera)
        assert len(graph.variables) > 4 * points_per_plane  # the points were added
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2 * spec.n_keyframes


@pytest.mark.parametrize("planes", [True, False])
def test_default_budget_runs_past_the_last_keyframe(planes):
    # the keyframes' sweeps, then a plane's longest life and two tests with
    # planes, or four keyframe intervals without (slam_stream's budget)
    cfg = desk_config(ba_scene(0), 0, planes=planes, keyframe_interval=50)
    a, k = cfg.abstraction, cfg.keyframe_interval_eff
    tail = a.t_max_eff + 2 * a.test_period_eff if planes else 4 * k
    assert k == 5 and harness._default_budget(cfg, 16) == 15 * k + tail + 10


def test_run_emits_all_artifacts(tmp_path):
    cfg = small_config()
    cfg.out_dir = str(tmp_path / "run")
    result = run(cfg)
    out = tmp_path / "run"
    for name in ("config.json", "iterations.csv", "census.csv", "events.json",
                 "graph.json", "trajectory_est.txt", "trajectory_gt.txt",
                 "reconstruction.json", "summary.json", "packets.json"):
        assert (out / name).exists(), name
    validate(json.loads((out / "graph.json").read_text()), schemas.GRAPH_SCHEMA)
    validate(json.loads((out / "events.json").read_text()), schemas.EVENT_LOG_SCHEMA)
    validate(json.loads((out / "reconstruction.json").read_text()),
             schemas.RECONSTRUCTION_SCHEMA)
    validate(json.loads((out / "summary.json").read_text()), schemas.SUMMARY_SCHEMA)
    rows = io_formats.read_csv(out / "iterations.csv")
    assert len(rows) == result.summary["n_iterations"]
    assert list(rows[0]) == io_formats.ITERATION_FIELDS
    assert {"marginalisation_calls", "n_regularised", "n_held_means",
            "n_non_pd_beliefs"} <= set(rows[0])
    assert any(r["marginalisation_calls"] > 0 for r in rows)


def test_routed_run_emits_cost_csv(tmp_path, monkeypatch):
    reported = []
    cost_report = RoutingSimulator.cost_report

    def recorded(sim):
        reported.extend(cost_report(sim))
        return reported

    monkeypatch.setattr(RoutingSimulator, "cost_report", recorded)
    cfg = small_config(solver="gbp-routed")
    cfg.out_dir = str(tmp_path / "run")
    run(cfg)
    rows = io_formats.read_csv(tmp_path / "run" / "cost.csv")
    sweeps = io_formats.read_csv(tmp_path / "run" / "iterations.csv")
    # every key of the simulator's records is a column, values as reported
    assert rows == reported and tuple(rows[0]) == io_formats.COST_FIELDS
    assert all(r["deliveries"] * 2 == r["hops"] for r in rows)
    assert all(r["n_routing_nodes"] == 10 for r in rows)
    assert len(rows) == len(sweeps)
    # Each routed (pairwise) edge carries one f2v and one v2f message per
    # sweep, 2 hops each; unary priors stay core-local.
    for cost, sweep in zip(rows, sweeps):
        assert cost["hops"] % 4 == 0
        assert cost["hops"] == 4 * sweep["marginalisation_calls"]
        assert (cost["hops"] > 0) == (sweep["n_factors"] > 0)
    assert any(r["hops"] > 0 for r in rows)


def test_overlapping_coplanar_patches_merge_in_a_run_routed_as_direct(monkeypatch):
    # Two overlapping patches of one wall are confirmed as two bodies; the
    # run's merge pass, fed the engine's current means, merges them, and the
    # routed engine follows the merge's journal events to the same result.
    sims = []
    routing_sim_for = harness._routing_sim_for

    def recorded(packets):
        sims.append(routing_sim_for(packets))
        return sims[-1]

    monkeypatch.setattr(harness, "_routing_sim_for", recorded)
    direct = run(desk_config(merge_scene(1), 1))
    routed = run(desk_config(merge_scene(1), 1, solver="gbp-routed"))
    s = direct.summary
    assert (s["n_confirmed"], s["n_rejected"], s["n_merged"]) == (3, 0, 1)
    assert s["final_census"]["variables"][RIGID_BODY] == 2
    assert routed.summary == {**s, "solver": "gbp-routed"}
    (sim,) = sims
    for result in (direct, routed):
        result.graph.check_integrity()
    assert sim.slot_conservation_ok()
    assert sim.routing_entry_count() == sum(
        len(f.adjacency) for f in routed.graph.factors.values() if f.kind in ROUTED)


def x_wall_hulls(result):
    """The y-extent of each confirmed plane of the x = 1 wall, in id order."""
    planes = export_reconstruction(result.graph)["planes"]
    return [(min(v[1] for v in p["hull"]), max(v[1] for v in p["hull"]))
            for p in planes if abs(p["normal"][0]) > math.cos(math.radians(10))]


@pytest.mark.parametrize("seed", [3, 5, 6, 8, 9, 10])
def test_overlapping_patches_end_as_one_body(seed):
    # The two patches overlap over y in [-0.3, 0.3]; the body left holds
    # members from both sides of that strip.
    result = run(desk_config(merge_scene(seed), seed))
    assert result.summary["n_merged"] == 1
    ((lo, hi),) = x_wall_hulls(result)
    assert lo < -0.3 and hi > 0.3
    (merge,) = [e for e in result.manager.events if e["event"] == "merge"]
    assert merge["gap"] <= GAP_MERGE * merge["spacing"]
    assert merge["separation"] <= D_MERGE
    validate({"format": "event-log", "version": 1, "events": result.manager.events},
             schemas.EVENT_LOG_SCHEMA)


@pytest.mark.parametrize("seed", [1, 4])
def test_coplanar_patches_1m_apart_stay_two_bodies(seed, monkeypatch):
    result = run(desk_config(merge_scene(seed, centre=1.1), seed))
    s = result.summary
    assert (s["n_confirmed"], s["n_rejected"], s["n_merged"]) == (3, 0, 0)
    (a_lo, a_hi), (b_lo, b_hi) = sorted(x_wall_hulls(result))
    assert a_hi < 0 < b_lo
    # On these seeds the pair passes the angle and separation gates, so the
    # gap gate is the one that refuses: without it the patches merge.
    monkeypatch.setattr(abstraction, "GAP_MERGE", math.inf)
    assert run(desk_config(merge_scene(seed, centre=1.1), seed)).summary["n_merged"] == 1


def test_event_log_schema_requires_the_merge_gates():
    record = {"event": "merge", "iteration": 600, "merged": [45, 46], "rigid_id": 48,
              "gap": 0.11, "spacing": 0.23, "separation": 0.02}
    validate({"format": "event-log", "version": 1, "events": [record]},
             schemas.EVENT_LOG_SCHEMA)
    for key in ("merged", "rigid_id", "gap", "spacing", "separation"):
        rest = {k: v for k, v in record.items() if k != key}
        with pytest.raises(ValidationError):
            validate({"format": "event-log", "version": 1, "events": [rest]},
                     schemas.EVENT_LOG_SCHEMA)


def test_census_has_one_row_at_start_and_one_per_edit_pass(tmp_path, monkeypatch):
    on_graph_edit = GbpEngine.on_graph_edit
    calls = []

    def counted(self):
        calls.append(1)
        return on_graph_edit(self)

    monkeypatch.setattr(GbpEngine, "on_graph_edit", counted)
    cfg = small_config()
    cfg.out_dir = str(tmp_path / "run")
    run(cfg)
    rows = io_formats.read_csv(tmp_path / "run" / "census.csv")
    assert calls and len(rows) == 1 + len(calls)
    assert tuple(rows[0]) == io_formats.CENSUS_FIELDS


def test_converged_iteration_px_ignores_unmeasured_sweeps():
    # Before the two-view bootstrap the graph has no pixel factors; those
    # sweeps measure nothing and must not count as converged.
    result = run(small_config())
    first = next(r.iteration for r in result.reports if r.n_factors > 0)
    assert first > 0
    assert math.isnan(result.reports[0].avg_reproj_px)
    conv = result.summary["converged_iteration_px"]
    assert conv is None or conv >= first


def test_replay_identity(tmp_path):
    cfg = small_config()
    cfg.out_dir = str(tmp_path / "a")
    run(cfg)

    replay_cfg = dataclasses.replace(
        cfg, scene=None, replay_path=str(tmp_path / "a" / "packets.json"),
        out_dir=str(tmp_path / "b"),
    )
    run(replay_cfg)
    for name in ("iterations.csv", "events.json", "trajectory_est.txt",
                 "census.csv", "packets.json"):
        a = (tmp_path / "a" / name).read_text()
        b = (tmp_path / "b" / name).read_text()
        assert a == b, f"{name} differs between generated and replayed runs"


def test_ablation_nesting_initial_graph(tmp_path):
    # after the first structural tick, the planes-off graph equals the full
    # run's graph minus hypothesis variables and their factors
    full = small_config()
    full.max_iterations = 30  # exactly the bootstrap tick
    r_full = run(full)
    bare = small_config(planes=False)
    bare.max_iterations = 30
    r_bare = run(bare)
    cf = r_full.graph.snapshot_census()
    cb = r_bare.graph.snapshot_census()
    n_hyp = cf["variables"]["plane_hypothesis"]
    assert n_hyp > 0
    assert cb["variables"]["plane_hypothesis"] == 0
    assert cb["n_variables"] == cf["n_variables"] - n_hyp
    n_hyp_factors = cf["factors"]["plane_point"] + cf["factors"]["plane_prediction"]
    assert cb["n_factors"] == cf["n_factors"] - n_hyp_factors


def test_compare_run_with_itself_zero_differences(tmp_path):
    cfg = small_config()
    cfg.out_dir = str(tmp_path / "a")
    run(cfg)
    comparison = compare_runs([tmp_path / "a", tmp_path / "a"])
    assert comparison["runs"][0] == {**comparison["runs"][1],
                                     "dir": comparison["runs"][0]["dir"]}


def test_lm_solver_path(tmp_path):
    cfg = small_config(solver="lm")
    cfg.out_dir = str(tmp_path / "lm")
    result = run(cfg)
    assert result.summary["solver"] == "lm"
    assert result.summary["lm_converged"]
    out = tmp_path / "lm"
    assert sorted(p.name for p in out.iterdir()) == sorted([
        "config.json", "iterations.csv", "census.csv", "events.json", "graph.json",
        "trajectory_est.txt", "trajectory_gt.txt", "reconstruction.json",
        "summary.json", "packets.json",
    ])
    validate(json.loads((out / "events.json").read_text()), schemas.EVENT_LOG_SCHEMA)
    validate(json.loads((out / "reconstruction.json").read_text()),
             schemas.RECONSTRUCTION_SCHEMA)
    summary = json.loads((out / "summary.json").read_text())
    validate(summary, schemas.SUMMARY_SCHEMA)
    # how LM was set, and why it stopped
    assert (summary["lm_kernel"], summary["lm_max_iterations"]) == ("huber", 50)
    assert summary["lm_converged"] and summary["lm_hit_lambda_max"] is False
    assert io_formats.read_csv(out / "census.csv") == []
    assert (out / "census.csv").read_text().split() == [",".join(io_formats.CENSUS_FIELDS)]
    rows = io_formats.read_csv(out / "iterations.csv")
    assert len(rows) >= 2
    assert len(rows) == len(result.reports)
    # LM solves no belief: the GBP health counters read 0
    assert all(r["n_held_means"] == r["n_non_pd_beliefs"] == 0 for r in rows)


def test_config_json_does_not_depend_on_the_output_path(tmp_path):
    texts = []
    for out in (tmp_path / "a", tmp_path / "a_much_longer_directory" / "b"):
        cfg = small_config(solver="lm")
        cfg.out_dir = str(out)
        run(cfg)
        texts.append((out / "config.json").read_bytes())
    assert texts[0] == texts[1]
    doc = io_formats.read_json(tmp_path / "a" / "config.json", "experiment-config")
    assert "out_dir" not in doc
    assert harness.ExperimentConfig.from_dict(doc).out_dir is None
    # a config file may still name its output directory
    assert harness.ExperimentConfig.from_dict({**doc, "out_dir": "x"}).out_dir == "x"


def test_export_reconstruction_box_room(tmp_path):
    spec = box_room_spec(points_per_plane=14, seed=4, pixel_sigma=0.4,
                         n_keyframes=6)
    spec.traj_span_deg = 40.0
    cfg = desk_config(spec, 4)
    cfg.priors.default_depth = 1.8
    result = run(cfg)
    recon = export_reconstruction(result.graph)
    assert 1 <= len(recon["planes"]) <= 6
    for plane in recon["planes"]:
        n = np.asarray(plane["normal"])
        assert np.isclose(np.linalg.norm(n), 1.0)
        for v in plane["hull"]:
            # hull vertices satisfy the plane equation by construction
            assert abs(n @ np.asarray(v) - plane["distance"]) < 3 * 0.05


def confirmed_map(seed=1):
    """Keyframes 0 and 1 bootstrapped, then every plane hypothesis confirmed
    at means that put its members on it; returns the harness pieces, the
    confirmation means and the rigid id of each member point."""
    cfg = desk_config(wall_scene(seed, n_keyframes=4), seed)
    packets, camera = harness._packets_for(cfg)
    graph = FactorGraph(camera=camera)
    state = harness._SlamState()
    manager = AbstractionManager(graph, cfg.abstraction)
    harness._add_keyframe_variable(graph, state, packets[0])
    harness._bootstrap_two_view(graph, state, manager, cfg, packets[0], packets[1],
                                30, camera)
    means = {vid: node.mean.copy() for vid, node in graph.variables.items()}
    bodies = {}
    for hyp in list(manager.hypotheses.values()):
        plane = PlaneParams(means[hyp.variable_id])
        members = manager.members(hyp)
        for pid in members:
            means[pid] = means[pid] - plane.normal * (plane.normal @ means[pid]
                                                      - plane.distance)
        rigid_id = manager.confirm_hypothesis(
            hyp, means, manager.evaluate_hypothesis(hyp, means)[1], 500, 1.0)
        bodies.update(dict.fromkeys(members, rigid_id))
    return cfg, packets, camera, graph, state, manager, means, bodies


def keyframe_rows(graph, kf):
    """(other variable, pixel, p_conv or None) of every pixel row on kf."""
    rows = []
    for fid in graph.variables[kf].factor_ids:
        fac = graph.factors[fid]
        if not FACTOR_KINDS[fac.kind].pixel:
            continue
        other = fac.adjacency[1]
        if fac.kind == COMBINED_RIGID_REPROJECTION:
            rows += [(other, z, p) for z, p in fac.constituents()]
        else:
            rows.append((other, fac.measurement, fac.payload.get("p_conv")))
    return rows


def test_later_views_of_absorbed_points_reach_their_rigid_body():
    cfg, packets, camera, graph, state, manager, means, bodies = confirmed_map()
    # point variable ids are not the scene's point ids
    assert all(var != pid for pid, var in state.point_var.items())
    packet = packets[2]
    kf = harness._add_keyframe(graph, state, manager, cfg, packet, 60, camera)
    rows = keyframe_rows(graph, kf)
    assert len(rows) == len(packet.point_ids)  # no observation is dropped
    seen = 0
    for pid, pixel in zip(packet.point_ids, packet.pixels):
        var = state.point_var[int(pid)]
        if var in graph.variables:
            continue
        seen += 1
        hits = [p for other, z, p in rows
                if other == bodies[var] and np.array_equal(z, pixel)]
        # this point's rigid body, this point's baked position
        assert len(hits) == 1 and np.array_equal(hits[0], means[var])
    assert seen >= 20


def rigid_factors_per_body(graph, kf):
    per_body = {}
    for fid in graph.variables[kf].factor_ids:
        fac = graph.factors[fid]
        if fac.kind == COMBINED_RIGID_REPROJECTION:
            per_body.setdefault(fac.adjacency[1], []).append(fac)
    return per_body


def test_later_keyframe_combines_its_rigid_reprojections_per_body():
    cfg, packets, camera, graph, state, manager, means, bodies = confirmed_map()
    kf = harness._add_keyframe(graph, state, manager, cfg, packets[2], 60, camera)
    per_body = rigid_factors_per_body(graph, kf)
    assert len(per_body) >= 2
    for body, facs in per_body.items():
        assert len(facs) == 1, body
        assert len(facs[0].constituents()) >= 2


def test_later_keyframe_with_one_view_of_a_body_adds_a_one_constituent_factor():
    cfg, packets, camera, graph, state, manager, means, bodies = confirmed_map()
    packet = packets[2]
    absorbed = [k for k, pid in enumerate(packet.point_ids)
                if state.point_var[int(pid)] not in graph.variables]
    # keep every view of a live point and one view of an absorbed point
    keep = [k for k in range(len(packet.point_ids)) if k not in absorbed[1:]]
    packet = dataclasses.replace(packet, point_ids=packet.point_ids[keep],
                                 pixels=packet.pixels[keep], hypotheses=[])
    kf = harness._add_keyframe(graph, state, manager, cfg, packet, 60, camera)
    var = state.point_var[int(packets[2].point_ids[absorbed[0]])]
    per_body = rigid_factors_per_body(graph, kf)
    assert list(per_body) == [bodies[var]]
    ((z, p_conv),) = per_body[bodies[var]][0].constituents()
    assert np.array_equal(z, packets[2].pixels[absorbed[0]])
    assert np.array_equal(p_conv, means[var])


def test_empty_reconstruction_without_confirmations(tmp_path):
    cfg = small_config(planes=False)
    result = run(cfg)
    recon = export_reconstruction(result.graph)
    assert recon["planes"] == []
    assert len(recon["raw_points"]) > 0


# -- CLI ------------------------------------------------------------------------

def write_config(tmp_path, cfg) -> str:
    path = tmp_path / "config.json"
    io_formats.write_json(path, "experiment-config", cfg.to_dict())
    return str(path)


def test_cli_run_compare_export(tmp_path, capsys):
    cfg = small_config()
    path = write_config(tmp_path, cfg)
    assert cli_main(["run", "--config", path, "--out", str(tmp_path / "r1")]) == 0
    assert cli_main(["run", "--config", path, "--out", str(tmp_path / "r2"),
                     "--no-planes"]) == 0
    assert cli_main(["compare", str(tmp_path / "r1"), str(tmp_path / "r2"),
                     "--out", str(tmp_path / "cmp.json")]) == 0
    doc = io_formats.read_json(tmp_path / "cmp.json", "comparison")
    assert len(doc["runs"]) == 2
    assert cli_main(["export", "--graph", str(tmp_path / "r1" / "graph.json"),
                     "--out", str(tmp_path / "recon.json")]) == 0
    io_formats.read_json(tmp_path / "recon.json", "reconstruction")


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
    missing_field = tmp_path / "cfg.json"
    missing_field.write_text(json.dumps({
        "format": "experiment-config", "version": 1, "solver": "warp-drive",
    }))
    assert cli_main(["run", "--config", str(missing_field),
                     "--out", str(tmp_path)]) == 2
    # an unknown key, and keys whose values are now constants or, for the
    # robust loss, the factor kind's
    for section, key, value in (("priors", "plane_sigma", 100.0),
                                ("abstraction", "l_thresh", 0.8),
                                ("abstraction", "y_reject", 0.5),
                                ("abstraction", "y_conf", 0.8),
                                ("abstraction", "t_min", 4000),
                                ("abstraction", "t_max", 6000),
                                ("abstraction", "min_members", 4),
                                ("gbp", "energy_window", 10),
                                (None, "robust", "tukey"),
                                ("scene", "traj_height", 0.0),
                                ("scene", "hyp_angle_sigma_deg", 5.0),
                                ("scene", "hyp_d_sigma", 0.05),
                                ("scene", "spurious_min_distance", 0.3),
                                ("scene", "min_hypothesis_members", 4)):
        unknown_key = small_config().to_dict()
        (unknown_key[section] if section else unknown_key)[key] = value
        io_formats.write_json(tmp_path / "unknown.json", "experiment-config", unknown_key)
        assert cli_main(["run", "--config", str(tmp_path / "unknown.json"),
                         "--out", str(tmp_path)]) == 2, key


def test_cli_seed_sets_every_seed(tmp_path):
    path = write_config(tmp_path, small_config(seed=3))
    assert cli_main(["run", "--config", path, "--seed", "9",
                     "--out", str(tmp_path / "r")]) == 0
    doc = io_formats.read_json(tmp_path / "r" / "config.json", "experiment-config")
    assert (doc["seed"], doc["gbp"]["seed"], doc["scene"]["seed"]) == (9, 9, 9)


def test_scene_seed_other_than_seed_is_refused(tmp_path):
    # the scene is generated from scene.seed as given, so it must be the seed
    # that config.json records; `--seed` sets both (test_cli_seed_sets_every_seed)
    with pytest.raises(ContractViolation, match="scene.seed"):
        harness.ExperimentConfig(scene=wall_scene(4), seed=3)
    doc = small_config(seed=3).to_dict()
    doc["scene"]["seed"] = 4
    io_formats.write_json(tmp_path / "cfg.json", "experiment-config", doc)
    for extra in ([], ["--seed", "9"]):
        assert cli_main(["run", "--config", str(tmp_path / "cfg.json"),
                         "--out", str(tmp_path / "r"), *extra]) == 2
    assert not (tmp_path / "r").exists()


def test_gbp_seed_other_than_seed_is_refused(tmp_path):
    # the engine draws its dropout from gbp.seed, so a config that left it at
    # its default would share every draw with the runs of all other seeds
    doc = small_config(seed=7).to_dict()
    del doc["gbp"]
    with pytest.raises(ContractViolation, match="gbp.seed 0 is not seed 7"):
        harness.ExperimentConfig.from_dict(doc)
    doc["gbp"] = {"seed": 4}
    io_formats.write_json(tmp_path / "cfg.json", "experiment-config", doc)
    for extra in ([], ["--seed", "9"]):
        assert cli_main(["run", "--config", str(tmp_path / "cfg.json"),
                         "--out", str(tmp_path / "r"), *extra]) == 2
    assert not (tmp_path / "r").exists()


def test_cli_missing_replay_file_is_config_error(tmp_path):
    cfg = small_config(solver="gbp-routed")
    # the replay file is missing only once the config has been parsed
    cfg.scene = None
    cfg.replay_path = str(tmp_path / "nope.json")
    path = write_config(tmp_path, cfg)
    code = cli_main(["run", "--config", path, "--out", str(tmp_path / "x")])
    assert code == 2  # missing inputs are configuration errors


# (packet field, how packet 1 is malformed: None drops the field, message)
MALFORMED_PACKETS = {
    "missing key": ("hypotheses", None, "packet 1: missing field 'hypotheses'"),
    "pixel rows lost": ("pixels", lambda v: v[:-3], "packet 1: field 'pixels' has shape"),
    "pixels not pairs": ("pixels", lambda v: [row + [0.0] for row in v],
                         "packet 1: field 'pixels' has shape"),
    "point ids not integers": ("point_ids", lambda v: [i + 0.5 for i in v],
                               "packet 1: field 'point_ids' must be a list of integers"),
    "point ids not 1-D": ("point_ids", lambda v: [[i] for i in v],
                          "packet 1: field 'point_ids' must be a list of integers"),
    "outlier mask length": ("outlier_mask", lambda v: v + [0],
                            "packet 1: field 'outlier_mask' has shape"),
    "true pose length": ("true_pose", lambda v: v[:5], "packet 1: field 'true_pose' has shape"),
    "true pose not numbers": ("true_pose", lambda v: ["x"] * 6,
                              "packet 1: field 'true_pose': ValueError"),
}


@pytest.fixture(scope="module")
def replay_packets(tmp_path_factory):
    """The packets.json document of a short run."""
    out = tmp_path_factory.mktemp("replay")
    cfg = small_config(planes=False)
    cfg.max_iterations, cfg.out_dir = 60, str(out)
    run(cfg)
    return json.loads((out / "packets.json").read_text())


def replay_refused(doc, tmp_path, capsys) -> str:
    """Replays the packet document `doc` by the CLI, which must exit 2 and
    write no summary; returns its error output."""
    (tmp_path / "packets.json").write_text(json.dumps(doc))
    cfg = small_config(solver="lm")
    cfg.scene, cfg.replay_path = None, str(tmp_path / "packets.json")
    assert cli_main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "r")]) == 2
    assert not (tmp_path / "r" / "summary.json").exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("case", MALFORMED_PACKETS)
def test_cli_refuses_a_malformed_packet_file(case, replay_packets, tmp_path, capsys):
    # A replayed packet file is checked field by field before the run starts.
    key, change, message = MALFORMED_PACKETS[case]
    doc = json.loads(json.dumps(replay_packets))
    packet = doc["packets"][1]
    if change is None:
        del packet[key]
    else:
        packet[key] = change(packet[key])
    assert message in replay_refused(doc, tmp_path, capsys)


def test_cli_refuses_a_packet_file_whose_camera_lacks_a_field(replay_packets, tmp_path,
                                                              capsys):
    doc = json.loads(json.dumps(replay_packets))
    del doc["camera"]["fx"]
    assert "field 'camera'" in replay_refused(doc, tmp_path, capsys)


def test_cli_refuses_a_packet_file_whose_packets_are_not_a_list(replay_packets, tmp_path,
                                                                capsys):
    doc = json.loads(json.dumps(replay_packets))
    doc["packets"] = 3
    err = replay_refused(doc, tmp_path, capsys)
    assert f"{tmp_path / 'packets.json'}: field 'packets' must be a list" in err


def test_replayed_packets_read_back_as_written(replay_packets):
    from planegbp.frontend import KeyframePacket

    for p in replay_packets["packets"]:
        assert KeyframePacket.from_dict(p).to_dict() == p


@pytest.mark.parametrize("section, index, key", [
    (None, None, "factors"), (None, None, "variables"),
    ("factors", 3, "sigma"), ("variables", 2, "prior_lam"),
])
def test_cli_export_refuses_a_graph_file_with_a_missing_field(section, index, key, tmp_path,
                                                              capsys):
    cfg = small_config(planes=False)
    cfg.max_iterations, cfg.out_dir = 30, str(tmp_path / "r")
    run(cfg)
    graph_path = tmp_path / "r" / "graph.json"
    doc = json.loads(graph_path.read_text())
    del (doc if section is None else doc[section][index])[key]
    graph_path.write_text(json.dumps(doc))
    out = tmp_path / "recon.json"
    assert cli_main(["export", "--graph", str(graph_path), "--out", str(out)]) == 2
    where = "graph" if section is None else f"{section}[{index}]"
    assert f"{graph_path}: {where}: missing field {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def graph_doc(tmp_path_factory):
    cfg = small_config(planes=False)
    out_dir = tmp_path_factory.mktemp("r")
    cfg.max_iterations, cfg.out_dir = 30, str(out_dir)
    run(cfg)
    return json.loads((out_dir / "graph.json").read_text())


@pytest.mark.parametrize("section, index, key, change", [
    ("variables", 0, "id", lambda v: 0.5),
    ("variables", 2, "prior_eta", lambda v: v[:2]),
    ("variables", 1, "mean_cache", lambda v: [math.nan] + v[1:]),
    ("factors", 3, "adjacency", lambda v: [v[0] + 0.5] + v[1:]),
    ("camera", None, "fx", None),
    (None, None, "variables", lambda v: 5),
    (None, None, "factors", lambda v: None),
], ids=["fractional id", "wrong-shape prior", "non-finite mean", "fractional adjacency",
        "camera without fx", "variables not a list", "factors not a list"])
def test_cli_export_refuses_a_graph_file_with_a_bad_value(section, index, key, change,
                                                          graph_doc, tmp_path, capsys):
    # Values the graph or the camera refuses are a malformed file (exit 2),
    # named by the file and their node, not a runtime error.
    doc = json.loads(json.dumps(graph_doc))
    node = doc if section is None else doc[section] if index is None else doc[section][index]
    if change is None:
        del node[key]
    else:
        node[key] = change(node[key])
    graph_path, out = tmp_path / "graph.json", tmp_path / "recon.json"
    graph_path.write_text(json.dumps(doc))
    assert cli_main(["export", "--graph", str(graph_path), "--out", str(out)]) == 2
    where = "graph" if section is None else section if index is None else f"{section}[{index}]"
    err = capsys.readouterr().err
    assert f"{graph_path}: {where}: " in err
    if section is None:
        assert f"field {key!r} must be a list" in err
    assert not out.exists()


def test_cli_runtime_error_exit_code(tmp_path, monkeypatch):
    def exhausted(config):
        raise CapacityError("pool 'reprojection' exhausted (capacity 0)")

    monkeypatch.setattr(harness, "run", exhausted)
    path = write_config(tmp_path, small_config(solver="gbp-routed"))
    code = cli_main(["run", "--config", path, "--out", str(tmp_path / "x")])
    assert code == 3


class InsertionSpy:
    """Records (packet, kind, rows) of every batch insertion; `packet`
    counts the calls that insert keyframe packets, and hypotheses are
    recorded apart."""

    def __init__(self, monkeypatch):
        self.calls, self.context = [], None
        for name in ("add_variables", "add_factors"):
            monkeypatch.setattr(FactorGraph, name, self.spy(getattr(FactorGraph, name), name))
        for owner, name in ((harness, "_add_keyframe"), (harness, "_bootstrap_two_view"),
                            (AbstractionManager, "integrate_hypothesis")):
            monkeypatch.setattr(owner, name, self.scope(getattr(owner, name), name))
        self.n_packets = self.n_hypotheses = 0

    def spy(self, method, name):
        def spied(graph, kind, rows, *args, **kwargs):
            self.calls.append((self.context, name, kind, len(rows)))
            return method(graph, kind, rows, *args, **kwargs)
        return spied

    def scope(self, fn, name):
        def scoped(*args, **kwargs):
            outer = self.context
            if name == "integrate_hypothesis":
                self.n_hypotheses += 1
                self.context = ("hypothesis", self.n_hypotheses)
            else:
                self.n_packets += 1
                self.context = ("packet", self.n_packets)
            try:
                return fn(*args, **kwargs)
            finally:
                self.context = outer
        return scoped

    def per_scope(self, kind_of_scope):
        counts = {}
        for context, name, kind, _ in self.calls:
            if context is not None and context[0] == kind_of_scope:
                key = (context[1], name, kind)
                counts[key] = counts.get(key, 0) + 1
        return counts


def assert_one_batch_per_kind_per_packet(spy, graph):
    # One insertion per variable kind and factor kind per packet; the scale
    # anchor, the one prior, goes in with the first packet's points.
    counts = spy.per_scope("packet")
    assert spy.n_packets >= 2 and counts
    anchors = [k for k in counts if k[1:] == ("add_factors", PRIOR)]
    first_points = min(p for p, name, kind in counts if kind == POINT)
    assert len(anchors) == 1 and anchors[0][0] == first_points
    for (packet, name, kind), n in counts.items():
        assert n <= 1, (packet, name, kind, n)
    assert all(n <= 1 for n in spy.per_scope("hypothesis").values())
    # The batches hold every observation: nothing went in row by row.
    rows = sum(n for context, name, kind, n in spy.calls
               if context and context[0] == "packet" and kind == REPROJECTION)
    assert rows == sum(1 for f in graph.journal
                       if isinstance(f, FactorNode) and f.kind == REPROJECTION)


def test_build_ba_graph_inserts_each_packet_as_one_batch_per_kind(monkeypatch):
    spy = InsertionSpy(monkeypatch)
    # Priors are built one by one only for keyframes: points take theirs as
    # rows of one stack per packet (`GaussianInfo.rows`).
    one_row = []
    post_init = GaussianInfo.__post_init__
    monkeypatch.setattr(GaussianInfo, "__post_init__",
                        lambda g: one_row.append(g) or post_init(g))
    spec = ba_scene(4, n_keyframes=3, points_per_plane=20, n_clutter=10)
    scene = generate_scene(spec)
    packets = [scene.emit_keyframe(k) for k in range(spec.n_keyframes)]
    graph, _ = harness.build_ba_graph(desk_config(spec, 4, planes=False), packets,
                                      scene.camera)
    assert spy.n_packets == 3
    assert_one_batch_per_kind_per_packet(spy, graph)
    assert len(one_row) == spy.n_packets
    assert sum(v.kind == POINT for v in graph.variables.values()) > 10 * spy.n_packets


def test_a_run_inserts_each_packet_as_one_batch_per_kind(monkeypatch):
    spy = InsertionSpy(monkeypatch)
    result = run(desk_config(merge_scene(2), 2))
    assert spy.n_packets == 3 and spy.n_hypotheses > 0  # the bootstrap takes two
    assert_one_batch_per_kind_per_packet(spy, result.graph)


def test_a_packet_views_its_rigid_bodies_in_one_batch(monkeypatch):
    cfg, packets, camera, graph, state, manager, _, bodies = confirmed_map()
    spy = InsertionSpy(monkeypatch)
    harness._add_keyframe(graph, state, manager, cfg, packets[2], 60, camera)
    combined = [n for _, _, kind, n in spy.calls if kind == COMBINED_RIGID_REPROJECTION]
    assert combined == [len(set(bodies.values()))] and combined[0] > 1
