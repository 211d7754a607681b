import copy
import json

import numpy as np
import pytest
from jsonschema import validate
from scipy.spatial.transform import Rotation

from planegbp import io_formats
from planegbp.errors import FormatError
from planegbp.gaussians import GaussianInfo
from planegbp.geometry import CameraModel, Pose
from planegbp.graph import (
    COMBINED_RIGID_REPROJECTION,
    KEYFRAME,
    POINT,
    PRIOR,
    REPROJECTION,
    RIGID_BODY,
    FactorGraph,
)
import schemas

CAM = CameraModel(fx=525.0, fy=525.0, cx=320.0, cy=240.0, width=640, height=480)


def rich_graph(rng, n_points=30):
    g = FactorGraph(camera=CAM)
    kf = g.add_variable(KEYFRAME, rng.normal(size=6) * 0.1,
                        GaussianInfo(rng.normal(size=6), np.eye(6) * 1e3))
    rb = g.add_variable(RIGID_BODY, np.zeros(6),
                        GaussianInfo(np.zeros(6), np.eye(6)))
    pts = []
    for _ in range(n_points):
        p = rng.normal(size=3) + np.array([0, 0, 4.0])
        lam = np.eye(3) * rng.uniform(0.5, 2.0)
        pid = g.add_variable(POINT, p, GaussianInfo(lam @ p, lam))
        g.add_factor(REPROJECTION, (kf, pid),
                     rng.uniform([0, 0], [640, 480]), 2.0)
        pts.append(pid)
    g.add_factor(PRIOR, (pts[0],), rng.normal(size=3), 1e-3)
    g.add_factor(COMBINED_RIGID_REPROJECTION, (kf, rb), None, 2.0, payload={
        "constituents": [
            (rng.uniform([0, 0], [640, 480]), rng.normal(size=3) + [0, 0, 4.0])
            for _ in range(3)
        ]
    })
    g.add_factor("rigid_plane_prediction", (rb, kf), rng.normal(size=3), 20.0,
                 payload={"pi_conv": np.array([0.0, 0, 2.0])})
    return g


def graphs_value_identical(a: FactorGraph, b: FactorGraph) -> bool:
    if set(a.variables) != set(b.variables) or set(a.factors) != set(b.factors):
        return False
    for vid, va in a.variables.items():
        vb = b.variables[vid]
        if va.kind != vb.kind:
            return False
        for xa, xb in ((va.mean, vb.mean), (va.prior.eta, vb.prior.eta),
                       (va.prior.lam, vb.prior.lam),
                       (va.belief.eta, vb.belief.eta),
                       (va.belief.lam, vb.belief.lam)):
            if not np.array_equal(np.asarray(xa), np.asarray(xb)):
                return False
    for fid, fa in a.factors.items():
        fb = b.factors[fid]
        if fa.kind != fb.kind or fa.adjacency != fb.adjacency:
            return False
        if (fa.measurement is None) != (fb.measurement is None):
            return False
        if fa.measurement is not None and not np.array_equal(fa.measurement, fb.measurement):
            return False
        if not np.array_equal(fa.sigma, fb.sigma):
            return False
    return True


def test_graph_round_trip_value_identical(rng, tmp_path):
    g = rich_graph(rng)
    path = tmp_path / "graph.json"
    io_formats.write_graph(path, g)
    back = io_formats.read_graph(path)
    assert graphs_value_identical(g, back)


def test_large_graph_round_trip(rng, tmp_path):
    g = rich_graph(rng, n_points=1000)
    path = tmp_path / "big.json"
    io_formats.write_graph(path, g)
    back = io_formats.read_graph(path)
    assert graphs_value_identical(g, back)


def test_graph_schema_validates(rng, tmp_path):
    g = rich_graph(rng)
    path = tmp_path / "graph.json"
    io_formats.write_graph(path, g)
    validate(json.loads(path.read_text()), schemas.GRAPH_SCHEMA)


def test_graph_to_dict_singular_belief_has_no_covariance(rng, monkeypatch):
    g = rich_graph(rng, n_points=2)
    v = g.add_variable(POINT, np.array([0.0, 0.0, 4.0]))  # flat belief
    doc = io_formats.graph_to_dict(g)
    entry = next(e for e in doc["variables"] if e["id"] == v)
    assert entry["covariance"] is None
    assert entry["mean"] == [0.0, 0.0, 4.0]

    def broken(_):
        raise RuntimeError("not a singularity")

    # only a singular belief is absorbed; other failures surface
    monkeypatch.setattr(io_formats, "to_moments", broken)
    with pytest.raises(RuntimeError):
        io_formats.graph_to_dict(g)


def test_truncated_json_names_offset(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format": "factor-graph", "version": 1, "variables": [')
    with pytest.raises(FormatError, match="byte offset"):
        io_formats.read_json(path, "factor-graph")


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "future.json"
    path.write_text(json.dumps({"format": "factor-graph", "version": 99,
                                "variables": [], "factors": []}))
    with pytest.raises(FormatError, match="version"):
        io_formats.read_json(path, "factor-graph")


def test_wrong_format_name_rejected(tmp_path):
    path = tmp_path / "other.json"
    io_formats.write_json(path, "event-log", {"events": []})
    with pytest.raises(FormatError, match="expected format"):
        io_formats.read_json(path, "factor-graph")


def test_tum_round_trip(rng, tmp_path):
    # each row is "t tx ty tz qx qy qz qw" of the camera-to-world pose
    poses = [Pose(rng.normal(size=6) * 0.5) for _ in range(10)]
    times = [float(i) * 0.1 for i in range(10)]
    path = tmp_path / "traj.txt"
    io_formats.write_tum(path, times, poses)
    rows = np.loadtxt(path, ndmin=2)
    assert rows.shape == (10, 8)
    assert np.array_equal(rows[:, 0], times)
    for pose, r in zip(poses, rows):
        wc = Pose.from_rt(Rotation.from_quat(r[4:]).as_matrix(), r[1:4])
        assert np.allclose(wc.compose(pose).T, np.eye(4), atol=1e-12)


def test_csv_round_trip_full_precision(tmp_path):
    rows = [{"a": 1, "b": 0.1 + 0.2, "c": "x"}, {"a": 2, "b": 1e-17, "c": "y"}]
    path = tmp_path / "t.csv"
    io_formats.write_csv(path, ["a", "b", "c"], rows)
    back = io_formats.read_csv(path)
    assert back[0]["b"] == 0.1 + 0.2  # exact shortest-repr round trip
    assert back[1]["b"] == 1e-17
    assert back == rows


def test_golden_graph_file_stable(rng):
    # schema drift in the graph format shows up against the checked-in golden
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / "graph_v1.json"
    doc = json.loads(golden.read_text())
    validate(doc, schemas.GRAPH_SCHEMA)
    g = io_formats.graph_from_dict(doc)
    assert g.snapshot_census()["n_variables"] == 3
    assert g.snapshot_census()["n_factors"] == 2
    assert np.isclose(g.variables[1].mean[2], 4.0)
    # each factor names Tukey's c; any other scale is refused
    assert [f["robust_scale"] for f in doc["factors"]] == [4.685, 4.685]
    doc["factors"][1]["robust_scale"] = 3.0
    with pytest.raises(FormatError, match="robust_scale"):
        io_formats.graph_from_dict(doc)
    doc["factors"][1]["robust_scale"] = 4.685
    # each factor names its kind's loss; any other loss is refused
    assert [(f["kind"], f["robust"]) for f in doc["factors"]] == [
        ("reprojection", "tukey"), ("prior", None)]
    for i, loss in ((0, None), (1, "tukey")):
        changed = copy.deepcopy(doc)
        changed["factors"][i]["robust"] = loss
        with pytest.raises(FormatError, match="robust"):
            io_formats.graph_from_dict(changed)
