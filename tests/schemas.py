"""JSON schemas of the run artefacts, for validating them in tests."""

_NUM = {"type": "number"}
_NUM_ARRAY = {"type": "array", "items": _NUM}
_MATRIX = {"type": "array", "items": _NUM_ARRAY}

GRAPH_SCHEMA = {
    "type": "object",
    "required": ["format", "version", "variables", "factors"],
    "properties": {
        "format": {"const": "factor-graph"},
        "version": {"type": "integer"},
        "camera": {"type": ["object", "null"]},
        "variables": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "kind", "mean", "covariance",
                             "prior_eta", "prior_lam"],
                "properties": {
                    "id": {"type": "integer"},
                    "kind": {"type": "string"},
                    "mean": _NUM_ARRAY,
                    "covariance": {"anyOf": [_MATRIX, {"type": "null"}]},
                    "prior_eta": _NUM_ARRAY,
                    "prior_lam": _MATRIX,
                },
            },
        },
        "factors": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "kind", "adjacency", "measurement", "sigma"],
                "properties": {
                    "id": {"type": "integer"},
                    "kind": {"type": "string"},
                    "adjacency": {"type": "array", "items": {"type": "integer"}},
                    "sigma": _NUM_ARRAY,
                },
            },
        },
    },
}

EVENT_LOG_SCHEMA = {
    "type": "object",
    "required": ["format", "version", "events"],
    "properties": {
        "format": {"const": "event-log"},
        "events": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["event", "iteration"],
                "properties": {
                    "event": {"enum": ["integrate", "confirm", "reject", "merge"]},
                    "iteration": {"type": "integer"},
                    "merged": {"type": "array", "items": {"type": "integer"}},
                    "rigid_id": {"type": ["integer", "null"]},
                    "gap": _NUM,
                    "spacing": _NUM,
                    "separation": _NUM,
                },
                "if": {"properties": {"event": {"const": "merge"}}},
                "then": {"required": ["merged", "rigid_id", "gap", "spacing", "separation"]},
            },
        },
    },
}

RECONSTRUCTION_SCHEMA = {
    "type": "object",
    "required": ["format", "version", "planes", "raw_points"],
    "properties": {
        "format": {"const": "reconstruction"},
        "planes": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["rigid_id", "normal", "distance", "hull"],
                "properties": {
                    "rigid_id": {"type": "integer"},
                    "normal": _NUM_ARRAY,
                    "distance": _NUM,
                    "hull": _MATRIX,
                },
            },
        },
        "raw_points": _MATRIX,
    },
}

SUMMARY_SCHEMA = {
    "type": "object",
    "required": ["format", "version", "solver", "seed", "n_iterations"],
}
