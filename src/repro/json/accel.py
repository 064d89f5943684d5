"""XPath-accelerator encoding of a JSON document collection.

No matcher reads this module any more: tree patterns are verified by the
index-assisted walk of :mod:`repro.json.matcher`.  It is kept only
because the benchmark's traced pass (``benchmarks/e2e/layers.py``)
imports :class:`StoreEncoding` and calls
:meth:`~repro.json.store.JSONDocumentStore.encoding_view`; it goes with
ROADMAP item 2 once that pass stops doing so.

Every document is encoded as parallel columnar arrays of
``(pre, post, level, path-id, value-id)`` in pre-order — the classic
XPath-accelerator layout with *extended* pre-order intervals: a node's
``post`` is the largest pre-order position inside its subtree.  The node
model is the matcher's (:func:`repro.json.matcher.iter_child_items`).
"""

from __future__ import annotations

import threading
from typing import Any, Iterable

from repro.json.index import normalize
from repro.json.matcher import iter_child_items
from repro.obs.spans import span

#: The interned path-id of the (virtual) document root.
ROOT_PID = 0

#: Vids below zero mark values excluded from interning (containers, whose
#: normalised key would cost a full ``str()`` of the subtree).
OPAQUE_VID = -1


class StoreEncoding:
    """Append-only columnar arrays over one store's documents."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        # -- per-node columns, index == pre-order position ------------------
        self.posts: list[int] = []     # max pre inside the node's subtree
        self.levels: list[int] = []    # depth (document root = 0)
        self.pids: list[int] = []      # interned path-id (key chain)
        self.vids: list[int] = []      # interned value-id (OPAQUE_VID = none)
        self.raws: list[Any] = []      # the node's raw value (dict for objects)
        # -- per-document -----------------------------------------------------
        self.doc_starts: list[int] = []  # pre position of each document root
        self.doc_ids: list[str] = []
        self.ordinals: dict[str, int] = {}
        # -- path / label / value dictionaries --------------------------------
        self.pid_paths: list[str] = [""]           # pid -> dotted path
        self.path_nodes: list[list[int]] = [[]]    # pid -> sorted positions
        self.child_pid: dict[tuple[int, str], int] = {}
        self.label_nodes: dict[str, list[int]] = {}  # key -> sorted positions
        self._vid_intern: dict[tuple[str, object], int] = {}
        self.vid_reprs: list[Any] = []             # vid -> representative raw
        self.doc_count = 0
        self.node_count = 0

    def extend(self, items: Iterable[tuple[str, dict]]) -> int:
        """Append every ``(doc_id, document)`` not already encoded.

        "Already encoded" means encoded *as that exact object*: an id
        whose encoded root raw is a different object is re-appended and
        its ordinal repointed at the fresh copy.
        """
        added = 0
        with self._lock:
            with span("json.accel.encode") as sp:
                for doc_id, document in items:
                    ordinal = self.ordinals.get(doc_id)
                    if ordinal is not None and \
                            self.raws[self.doc_starts[ordinal]] is document:
                        continue
                    self._encode(doc_id, document)
                    added += 1
                if sp is not None:
                    sp.set(documents=added, total_documents=self.doc_count,
                           total_nodes=self.node_count)
        return added

    def _encode(self, doc_id: str, document: dict) -> None:
        posts, levels, pids, raws = self.posts, self.levels, self.pids, self.raws
        vids, path_nodes, label_nodes = self.vids, self.path_nodes, self.label_nodes
        child_pid = self.child_pid
        self.doc_starts.append(len(posts))
        self.doc_ids.append(doc_id)
        self.ordinals[doc_id] = len(self.doc_ids) - 1
        # Iterative pre-order encode; an int on the stack is a close
        # marker fixing that node's post to the last position emitted
        # inside its subtree.  Depth-10k documents must not recurse.
        stack: list = [(document, ROOT_PID, 0, None)]
        while stack:
            item = stack.pop()
            if type(item) is int:
                posts[item] = len(posts) - 1
                continue
            raw, pid, level, key = item
            position = len(posts)
            posts.append(position)  # leaf default; close marker overwrites
            levels.append(level)
            pids.append(pid)
            raws.append(raw)
            vids.append(self._intern(raw))
            path_nodes[pid].append(position)
            if key is not None:
                bucket = label_nodes.get(key)
                if bucket is None:
                    bucket = label_nodes[key] = []
                bucket.append(position)
            if isinstance(raw, dict) and raw:
                stack.append(position)
                children = []
                for child_key, child_raw in iter_child_items(raw):
                    cpid = child_pid.get((pid, child_key))
                    if cpid is None:
                        cpid = len(self.pid_paths)
                        child_pid[(pid, child_key)] = cpid
                        parent_path = self.pid_paths[pid]
                        self.pid_paths.append(
                            f"{parent_path}.{child_key}" if parent_path else child_key)
                        path_nodes.append([])
                    children.append((child_raw, cpid, level + 1, child_key))
                stack.extend(reversed(children))
        self.doc_count = len(self.doc_ids)
        self.node_count = len(posts)

    def _intern(self, value: Any) -> int:
        if isinstance(value, (dict, list, set)):
            # Containers stay opaque: their normalised key would cost a
            # full str() of the subtree per node (quadratic on deep docs).
            return OPAQUE_VID
        if isinstance(value, bool):
            key = ("b", value)
        elif isinstance(value, str):
            key = ("s", value.lower())
        elif isinstance(value, (int, float)):
            key = ("n", value)
        else:
            try:
                key = ("o", normalize(value))
            except TypeError:  # pragma: no cover - unhashable exotic value
                return OPAQUE_VID
        vid = self._vid_intern.get(key)
        if vid is None:
            try:
                vid = len(self.vid_reprs)
                self._vid_intern[key] = vid
                self.vid_reprs.append(value)
            except TypeError:  # pragma: no cover - unhashable exotic value
                return OPAQUE_VID
        return vid

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"StoreEncoding(documents={self.doc_count}, "
                f"nodes={self.node_count}, paths={len(self.pid_paths)})")
