"""Decision-tree serialization.

Trained categorical models are cheap to rebuild here, but a clinic
deploying the system trains once and extracts for months: the tree
must survive a process restart.  Trees serialize to a plain JSON
structure (no pickling — the file is inspectable and versioned).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.errors import TrainingError
from repro.ml.id3 import ID3Classifier, _Leaf, _Node

FORMAT_VERSION = 1


def tree_to_dict(classifier: ID3Classifier) -> dict[str, Any]:
    """JSON-ready representation of a trained classifier."""
    if classifier._root is None:
        raise TrainingError("cannot serialize an untrained classifier")

    def encode(node) -> dict[str, Any]:
        if isinstance(node, _Leaf):
            return {"leaf": node.label}
        return {
            "feature": node.feature,
            "present": encode(node.present),
            "absent": encode(node.absent),
        }

    return {
        "format": FORMAT_VERSION,
        "max_depth": classifier.max_depth,
        "min_gain": classifier.min_gain,
        "root": encode(classifier._root),
    }


def tree_from_dict(data: dict[str, Any]) -> ID3Classifier:
    """Inverse of :func:`tree_to_dict`."""
    if not isinstance(data, dict) or "root" not in data:
        raise TrainingError("malformed tree: expected an object with a root")
    version = data.get("format")
    if version != FORMAT_VERSION:
        raise TrainingError(
            f"unsupported tree format {version!r} "
            f"(expected {FORMAT_VERSION})"
        )

    def decode(node: dict[str, Any]):
        if "leaf" in node:
            return _Leaf(label=node["leaf"])
        missing = {"feature", "present", "absent"} - set(node)
        if missing:
            raise TrainingError(
                f"malformed tree node, missing {sorted(missing)}"
            )
        return _Node(
            feature=node["feature"],
            present=decode(node["present"]),
            absent=decode(node["absent"]),
        )

    classifier = ID3Classifier(
        max_depth=data.get("max_depth"),
        min_gain=data.get("min_gain", 1e-9),
    )
    classifier._root = decode(data["root"])
    return classifier


def save_tree(classifier: ID3Classifier, path: str | Path) -> None:
    """Write a trained classifier to a JSON file."""
    Path(path).write_text(
        json.dumps(tree_to_dict(classifier), indent=1)
    )


def load_tree(path: str | Path) -> ID3Classifier:
    """Read a classifier saved by :func:`save_tree`."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise TrainingError(f"cannot load tree from {path}: {exc}") \
            from exc
    return tree_from_dict(data)
