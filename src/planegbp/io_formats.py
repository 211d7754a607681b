"""Serialisation: versioned JSON artefacts, TUM trajectories, CSV reports.

Every JSON artefact carries a format name and integer version in its header;
readers reject unknown names/versions. Floats go through Python's shortest
round-trip repr, so write-then-read reproduces values exactly. Malformed JSON
raises FormatError annotated with its byte offset. TUM trajectories are
written only, for external evaluation tools.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from scipy.spatial.transform import Rotation

from .engine import IterationReport
from .errors import ContractViolation, FormatError, SingularGaussianError
from .factors import TUKEY_C
from .gaussians import GaussianInfo, to_moments
from .geometry import CameraModel
from .graph import FACTOR_KINDS, FactorGraph
from .routing import COST_FIELDS

FORMAT_VERSIONS = {
    "factor-graph": 1,
    "experiment-config": 1,
    "event-log": 1,
    "reconstruction": 1,
    "packets": 1,
    "comparison": 1,
    "summary": 1,
}


def _numpy_json(obj):
    """What `json` cannot encode itself: arrays as lists, numpy scalars as
    Python scalars."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serialisable")


def write_json(path, format_name: str, body: dict) -> None:
    """Write a compact JSON artefact; arrays and numpy scalars are converted
    as the encoder meets them, so the document is walked once."""
    if format_name not in FORMAT_VERSIONS:
        raise FormatError(f"unknown format {format_name!r}")
    doc = {"format": format_name, "version": FORMAT_VERSIONS[format_name]}
    doc.update(body)
    Path(path).write_text(json.dumps(doc, default=_numpy_json))


def read_json(path, format_name: str) -> dict:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"{path}: malformed JSON at byte offset {exc.pos}: {exc.msg}"
        ) from exc
    if doc.get("format") != format_name:
        raise FormatError(
            f"{path}: expected format {format_name!r}, found {doc.get('format')!r}"
        )
    want = FORMAT_VERSIONS[format_name]
    if doc.get("version") != want:
        raise FormatError(
            f"{path}: unsupported {format_name} version {doc.get('version')} "
            f"(reader supports {want})"
        )
    return doc


# ---------------------------------------------------------------------------
# Factor graph
# ---------------------------------------------------------------------------

def graph_to_dict(graph: FactorGraph) -> dict:
    variables = []
    for vid in sorted(graph.variables):
        node = graph.variables[vid]
        try:
            mom = to_moments(node.belief)
            mean = mom.mean.tolist()
            cov = mom.cov.tolist()
        except SingularGaussianError:
            mean = node.mean.tolist()
            cov = None
        variables.append({
            "id": vid,
            "kind": node.kind,
            "mean": mean,
            "covariance": cov,
            "belief_eta": node.belief.eta.tolist(),
            "belief_lam": node.belief.lam.tolist(),
            "prior_eta": node.prior.eta.tolist(),
            "prior_lam": node.prior.lam.tolist(),
            "mean_cache": node.mean.tolist(),
        })
    factors = []
    for fid in sorted(graph.factors):
        fac = graph.factors[fid]
        factors.append({
            "id": fid,
            "kind": fac.kind,
            "adjacency": list(fac.adjacency),
            "measurement": None if fac.measurement is None else fac.measurement.tolist(),
            "sigma": fac.sigma.tolist(),
            "payload": fac.payload,  # arrays: write_json converts them
        })
    camera = None if graph.camera is None else dataclasses.asdict(graph.camera)
    return {"camera": camera, "variables": variables, "factors": factors}


def require_fields(doc, keys, where) -> None:
    """FormatError naming `where` and the first of `keys` the object `doc` lacks."""
    if not isinstance(doc, dict):
        raise FormatError(f"{where}: not an object")
    for key in keys:
        if key not in doc:
            raise FormatError(f"{where}: missing field {key!r}")


def require_list(doc, key, where) -> list:
    """doc[key], or FormatError naming `where` and the field when it is not a list."""
    if not isinstance(doc[key], list):
        raise FormatError(f"{where}: field {key!r} must be a list, "
                          f"got {type(doc[key]).__name__}")
    return doc[key]


@contextmanager
def _refused(where):
    """FormatError naming `where` for a value the graph or the camera refuses."""
    try:
        yield
    except (ContractViolation, TypeError, ValueError) as exc:
        raise FormatError(f"{where}: {exc}") from exc


def graph_from_dict(doc: dict) -> FactorGraph:
    """The graph `graph_to_dict` wrote; FormatError names the node or the
    camera and the field that is missing or the value that is refused."""
    require_fields(doc, ("variables", "factors"), "graph")
    with _refused("camera"):
        camera = CameraModel(**doc["camera"]) if doc.get("camera") else None
    graph = FactorGraph(camera=camera)
    for i, v in enumerate(require_list(doc, "variables", "graph")):
        where = f"variables[{i}]"
        require_fields(v, ("id", "kind", "mean_cache", "prior_eta", "prior_lam",
                           "belief_eta", "belief_lam"), where)
        with _refused(where):
            graph.add_variables(v["kind"], [v["mean_cache"]],
                                ([v["prior_eta"]], [v["prior_lam"]]), [v["id"]])
            graph.variables[v["id"]].belief = GaussianInfo(np.asarray(v["belief_eta"]),
                                                           np.asarray(v["belief_lam"]))
    # add_factor turns the payload lists back into arrays, per FACTOR_KINDS
    for i, f in enumerate(require_list(doc, "factors", "graph")):
        where = f"factors[{i}]"
        require_fields(f, ("id", "kind", "adjacency", "measurement", "sigma", "payload"),
                       where)
        # A file may name each factor's loss (null for none) and Tukey's c;
        # only the kind's own loss under Tukey's kernel and TUKEY_C can be read.
        if f.get("robust_scale", TUKEY_C) != TUKEY_C:
            raise FormatError(f"factor {f['id']}: robust_scale {f['robust_scale']} "
                              f"is not Tukey's c = {TUKEY_C}, the only one supported")
        spec = FACTOR_KINDS.get(f["kind"])
        if spec is not None and "robust" in f:
            loss = spec.loss("tukey")
            if ("none" if f["robust"] is None else f["robust"]) != loss:
                raise FormatError(f"factor {f['id']}: robust {f['robust']!r} is not "
                                  f"{f['kind']}'s loss {loss!r}")
        with _refused(where):
            graph.add_factor(
                f["kind"], tuple(f["adjacency"]),
                None if f["measurement"] is None else np.asarray(f["measurement"]),
                np.asarray(f["sigma"]),
                payload=f["payload"], _fixed_id=f["id"],
            )
    return graph


def write_graph(path, graph: FactorGraph) -> None:
    write_json(path, "factor-graph", graph_to_dict(graph))


def read_graph(path) -> FactorGraph:
    doc = read_json(path, "factor-graph")
    try:
        return graph_from_dict(doc)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# TUM trajectories
# ---------------------------------------------------------------------------

def write_tum(path, timestamps, poses_cw) -> None:
    """World-to-camera poses are stored as camera-to-world (TUM convention)."""
    lines = []
    for t, pose in zip(timestamps, poses_cw):
        inv = pose.inverse()
        q = Rotation.from_matrix(inv.R).as_quat()  # x, y, z, w
        vals = [t, *inv.t, *q]
        lines.append(" ".join(repr(float(v)) for v in vals))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# CSV reports
# ---------------------------------------------------------------------------

def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return v


def write_csv(path, fieldnames, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row[k]) for k in fieldnames])


def read_csv(path) -> list:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for row in reader:
            out = {}
            for k, v in row.items():
                try:
                    out[k] = int(v)
                except ValueError:
                    try:
                        out[k] = float(v)
                    except ValueError:
                        out[k] = v
            rows.append(out)
        return rows


# One column per IterationReport field, in declaration order.
ITERATION_FIELDS = [f.name for f in dataclasses.fields(IterationReport)]
# census.csv's columns: a census row's totals and one count per factor kind.
CENSUS_FIELDS = ("keyframes_added", "n_factors", "n_variables") + tuple(
    sorted(f"f_{kind}" for kind in FACTOR_KINDS))


def write_iteration_csv(path, reports) -> None:
    rows = [
        {k: getattr(r, k) for k in ITERATION_FIELDS} for r in reports
    ]
    write_csv(path, ITERATION_FIELDS, rows)


def write_cost_csv(path, cost_records) -> None:
    write_csv(path, COST_FIELDS, cost_records)
