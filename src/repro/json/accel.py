"""XPath-accelerator encoding of a JSON document collection.

Every stored document is encoded as parallel columnar arrays of
``(pre, post, level, path-id, value-id)`` in pre-order — the classic
XPath-accelerator layout with *extended* pre-order intervals: a node's
``post`` is the largest pre-order position inside its subtree, so the
structural axes become pure range predicates over sorted integers:

* descendant: ``pre_a < pre_b <= post_a`` (interval containment),
* child: descendant plus ``level_b = level_a + 1`` — and because a
  path-id pins the *whole* key chain from the root, probing the child
  path-id inside the parent's interval needs no level check at all.

Tree patterns therefore evaluate as a DAG of structural range joins:
:func:`bisect.bisect_left` probes over the per-path position lists
replace the per-node recursive descent of the reference matcher.

The encoding is an HTAP-style read replica (cf. Polynesia): built
lazily by whichever store of a lineage — the live store or one of its
snapshots — needs it first, brought forward by *appending* the
intervals of the documents written since, and rebuilt from scratch only
on removal.  The lineage shares one :class:`StoreEncoding` object
through watermarked :class:`EncodingView` objects — a view carries the
``(doc_limit, node_limit)`` it was created with and clamps every probe
below those, so later writes (which only ever append) are invisible to
it.

Node model (must agree exactly with the reference matcher's
:func:`repro.json.matcher.leaf_values`): object members become child
nodes under their key; a list value *fans out* — each dict element
becomes an object node and every other element (scalars, ``None``,
nested lists, which stay opaque) becomes a leaf node, all under the
list's key; empty lists contribute no nodes.  :func:`iter_child_items`
is the single definition of that model, used by the encoder and by the
wildcard reference walker alike.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from typing import Any, Iterable, Iterator, Optional

from repro.json.index import compare, normalize
from repro.json.pattern import Predicate, TreePattern, is_wildcard_path
from repro.obs.metrics import get_registry
from repro.obs.spans import span

#: The interned path-id of the (virtual) document root.
ROOT_PID = 0

#: Structural-join operators a compiled pattern path consists of.
OP_CHILD = "child"            # children with a fixed key (path-id probe)
OP_CHILD_ANY = "child-any"    # all children (sibling-jump walk)
OP_DESC = "desc"              # descendants with a fixed key (label probe)
OP_DESC_ANY = "desc-any"      # all strict descendants (interval scan)
OP_DESC_SELF = "desc-self"    # the node itself plus its descendants

#: Vids below zero mark values excluded from interning (containers, whose
#: normalised key would cost a full ``str()`` of the subtree).
OPAQUE_VID = -1

#: Bounded size of the per-encoding axis-statistics cache.
_STATS_CACHE_LIMIT = 64


def iter_child_items(value: Any) -> Iterator[tuple[str, Any]]:
    """The ``(key, raw)`` child nodes of one raw value, in document order.

    This is the single source of truth for the node model shared by the
    encoder and the wildcard reference walker; see the module docstring.
    """
    if not isinstance(value, dict):
        return
    for key, child in value.items():
        if isinstance(child, list):
            for item in child:
                yield key, item
        else:
            yield key, child


def compile_path_ops(path: str) -> tuple[tuple[str, Optional[str]], ...]:
    """Compile a dotted pattern path into structural-join operators.

    Concrete segments become child steps, ``*`` a label-free child step,
    and a ``**`` run turns the following step into a descendant step; a
    trailing ``**`` closes with descendant-or-self (or plain descendants
    when the whole path is wildcards — the root is never a result node).
    """
    ops: list[tuple[str, Optional[str]]] = []
    pending_descendant = False
    for segment in path.split("."):
        if segment == "**":
            pending_descendant = True
            continue
        if segment == "*":
            ops.append((OP_DESC_ANY if pending_descendant else OP_CHILD_ANY, None))
        else:
            ops.append((OP_DESC if pending_descendant else OP_CHILD, segment))
        pending_descendant = False
    if pending_descendant:
        if ops:
            ops.append((OP_DESC_SELF, None))
        else:
            ops.append((OP_DESC_ANY, None))
    return tuple(ops)


class StoreEncoding:
    """Append-only columnar arrays over one store's documents.

    All mutation happens under ``_lock`` and strictly *appends*;
    ``doc_count``/``node_count`` are published only after a document is
    fully encoded, so a view clamped at older counts always reads a
    consistent, immutable prefix.
    """

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
        # -- published watermarks ---------------------------------------------
        self.doc_count = 0
        self.node_count = 0
        self._stats_cache: dict[tuple, dict] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def extend(self, items: Iterable[tuple[str, dict]]) -> int:
        """Append every ``(doc_id, document)`` not already encoded.

        "Already encoded" means encoded *as that exact object*: an upsert
        replaces the stored document wholesale, so an id whose encoded
        root raw is a different object is re-appended and its ordinal
        repointed at the fresh copy.  The old copy becomes a dead
        interval no ordinal reaches (views created before the repoint
        clamp it out by watermark or by the identity check in
        :meth:`EncodingView.ordinal`).
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
            if added:
                self._stats_cache.clear()
                registry = get_registry()
                registry.counter("json.accel.builds").inc()
                registry.counter("json.accel.docs_encoded_total").inc(added)
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

    # ------------------------------------------------------------------
    # Views and path resolution
    # ------------------------------------------------------------------
    def view_for(self, doc_count: int) -> "EncodingView":
        """A watermarked view over the first ``doc_count`` documents."""
        with self._lock:
            if doc_count >= self.doc_count:
                return EncodingView(self, self.doc_count, self.node_count)
            return EncodingView(self, doc_count, self.doc_starts[doc_count])

    def pid_of(self, path: str) -> Optional[int]:
        """The interned path-id of a concrete dotted path (None = unseen)."""
        pid = ROOT_PID
        for segment in path.split("."):
            pid = self.child_pid.get((pid, segment))
            if pid is None:
                return None
        return pid

    # ------------------------------------------------------------------
    # Axis statistics
    # ------------------------------------------------------------------
    def axis_stats(self, pattern: TreePattern, node_limit: int) -> Optional[dict]:
        """Exact per-axis cardinalities of a pattern's concrete paths.

        Returns per leaf the number of documents exhibiting the path and
        the number of nodes at it (the fan-out numerator), plus the size
        of the exact document-set intersection across all leaves — the
        numbers :func:`structural_row_estimate` turns into a row estimate.
        Dead intervals (copies an upsert superseded) are not counted, so
        the numbers are exact for the newest store of the lineage and an
        approximation for a snapshot behind it.  None when the pattern
        uses wildcard paths (no single path-id).
        """
        paths = tuple(leaf.path for leaf in pattern.leaves)
        key = (paths, node_limit)
        with self._lock:
            cached = self._stats_cache.get(key)
            if cached is not None:
                return cached
        if any(is_wildcard_path(path) for path in paths):
            return None
        doc_starts, doc_ids, live = self.doc_starts, self.doc_ids, self.ordinals
        leaves: list[dict] = []
        common: Optional[set[int]] = None
        for path in paths:
            pid = self.pid_of(path)
            ordinals: set[int] = set()
            nodes = 0
            if pid is not None:
                positions = self.path_nodes[pid]
                hi = bisect_left(positions, node_limit)
                for position in positions[:hi]:
                    ordinal = bisect_right(doc_starts, position) - 1
                    if live.get(doc_ids[ordinal]) == ordinal:
                        ordinals.add(ordinal)
                        nodes += 1
            leaves.append({"path": path, "documents": len(ordinals),
                           "nodes": nodes})
            common = ordinals if common is None else (common & ordinals)
        stats = {"leaves": leaves,
                 "documents": len(common) if common is not None else 0}
        with self._lock:
            if len(self._stats_cache) >= _STATS_CACHE_LIMIT:
                self._stats_cache.pop(next(iter(self._stats_cache)))
            self._stats_cache[key] = stats
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"StoreEncoding(documents={self.doc_count}, "
                f"nodes={self.node_count}, paths={len(self.pid_paths)})")


def structural_row_estimate(view: "EncodingView",
                            pattern: TreePattern) -> Optional[float]:
    """Exact-statistics row estimate of a purely structural pattern.

    For patterns without predicates or bound variables the encoding
    answers exactly: the document cardinality is the intersection of the
    per-axis document sets, and each variable leaf multiplies the rows
    by its average fan-out (nodes per exhibiting document).  None when
    the pattern uses wildcard paths (the caller falls back to legacy
    index statistics).
    """
    stats = view.encoding.axis_stats(pattern, view.node_limit)
    if stats is None:
        return None
    rows = float(stats["documents"])
    for leaf, leaf_stats in zip(pattern.leaves, stats["leaves"]):
        if leaf.variable is not None and leaf_stats["documents"]:
            rows *= max(1.0, leaf_stats["nodes"] / leaf_stats["documents"])
    return rows


class EncodingView:
    """An immutable watermarked window over a :class:`StoreEncoding`.

    The encoding only ever appends; clamping every probe below
    ``(doc_limit, node_limit)`` makes the view a consistent snapshot no
    matter how far the shared encoding has grown since.
    """

    __slots__ = ("encoding", "doc_limit", "node_limit")

    def __init__(self, encoding: StoreEncoding, doc_limit: int, node_limit: int):
        self.encoding = encoding
        self.doc_limit = doc_limit
        self.node_limit = node_limit

    # ------------------------------------------------------------------
    def ordinal(self, doc_id: str,
                document: Optional[dict] = None) -> Optional[int]:
        """The document's ordinal, or None when outside this view.

        When the caller passes the store's current ``document`` object,
        the encoded copy must be that exact object: after an upsert the
        shared ordinal may point at a copy this store never held (for
        example when a snapshot and the live store diverged), and the
        caller must fall back to the reference tree-walk.
        """
        ordinal = self.encoding.ordinals.get(doc_id)
        if ordinal is None or ordinal >= self.doc_limit:
            return None
        if document is not None and \
                self.encoding.raws[self.encoding.doc_starts[ordinal]] is not document:
            return None
        return ordinal

    def doc_interval(self, ordinal: int) -> tuple[int, int]:
        """The half-open pre-order interval ``[start, end)`` of a document."""
        starts = self.encoding.doc_starts
        start = starts[ordinal]
        end = starts[ordinal + 1] if ordinal + 1 < self.doc_limit else self.node_limit
        return start, end

    # ------------------------------------------------------------------
    def compile(self, pattern: TreePattern,
                resolved: list[list[Predicate]]) -> "CompiledPattern":
        """Compile a pattern (with resolved predicates) for this view."""
        return CompiledPattern(self, pattern, resolved)

    def eval_ops(self, ops, start: int, end: int) -> list[int]:
        """Evaluate structural ops from a document root; sorted positions."""
        encoding = self.encoding
        posts, pids = encoding.posts, encoding.pids
        path_nodes, label_nodes = encoding.path_nodes, encoding.label_nodes
        child_pid = encoding.child_pid
        nodes: list[int] = [start]
        for op, label in ops:
            out: set[int] = set()
            for a in nodes:
                post_a = posts[a]
                if op == OP_CHILD:
                    cpid = child_pid.get((pids[a], label))
                    if cpid is None:
                        continue
                    positions = path_nodes[cpid]
                    lo = bisect_right(positions, a)
                    hi = bisect_right(positions, post_a, lo)
                    out.update(positions[lo:hi])
                elif op == OP_DESC:
                    positions = label_nodes.get(label)
                    if not positions:
                        continue
                    lo = bisect_right(positions, a)
                    hi = bisect_right(positions, post_a, lo)
                    out.update(positions[lo:hi])
                elif op == OP_CHILD_ANY:
                    p = a + 1
                    while p <= post_a:  # sibling jumps: O(#children)
                        out.add(p)
                        p = posts[p] + 1
                elif op == OP_DESC_ANY:
                    out.update(range(a + 1, post_a + 1))
                else:  # OP_DESC_SELF
                    out.update(range(a, post_a + 1))
            if not out:
                return []
            nodes = sorted(out)
        return nodes


class CompiledPattern:
    """One pattern compiled against one view: per-leaf probe closures."""

    __slots__ = ("view", "pattern", "leaves")

    def __init__(self, view: EncodingView, pattern: TreePattern,
                 resolved: list[list[Predicate]]):
        self.view = view
        self.pattern = pattern
        self.leaves = [CompiledLeaf(view, leaf.path, predicates)
                       for leaf, predicates in zip(pattern.leaves, resolved)]

    def leaf_keeps(self, ordinal: int) -> Optional[list[list[Any]]]:
        """Kept raw values per leaf for one document; None = no match."""
        start, end = self.view.doc_interval(ordinal)
        keeps: list[list[Any]] = []
        for leaf in self.leaves:
            kept = leaf.kept(start, end)
            if not kept:
                return None
            keeps.append(kept)
        return keeps


class CompiledLeaf:
    """One pattern leaf compiled to a structural probe plus value filter."""

    __slots__ = ("view", "predicates", "positions", "positions_hi", "ops",
                 "_vid_cache")

    def __init__(self, view: EncodingView, path: str,
                 predicates: list[Predicate]):
        self.view = view
        self.predicates = predicates
        self._vid_cache: dict[int, bool] = {}
        if is_wildcard_path(path):
            self.positions = None
            self.positions_hi = 0
            self.ops = compile_path_ops(path)
        else:
            self.ops = None
            pid = view.encoding.pid_of(path)
            if pid is None:
                self.positions = []
                self.positions_hi = 0
            else:
                self.positions = view.encoding.path_nodes[pid]
                self.positions_hi = bisect_left(self.positions, view.node_limit)

    def node_positions(self, start: int, end: int) -> list[int]:
        """Matching node positions inside one document interval."""
        if self.ops is not None:
            return self.view.eval_ops(self.ops, start, end)
        positions = self.positions
        lo = bisect_left(positions, start, 0, self.positions_hi)
        hi = bisect_left(positions, end, lo, self.positions_hi)
        return positions[lo:hi]

    def kept(self, start: int, end: int) -> list[Any]:
        """Raw values at matching nodes that pass the leaf's predicates.

        Predicate outcomes are memoised per value-id: within one call a
        repeated value (hashtags, screen names) is compared once.
        """
        positions = self.node_positions(start, end)
        if not positions:
            return []
        encoding = self.view.encoding
        raws = encoding.raws
        predicates = self.predicates
        if not predicates:
            return [raws[p] for p in positions]
        vids, reprs, cache = encoding.vids, encoding.vid_reprs, self._vid_cache
        out: list[Any] = []
        for p in positions:
            vid = vids[p]
            if vid < 0:
                raw = raws[p]
                if all(compare(pr.op, raw, pr.value) for pr in predicates):
                    out.append(raw)
                continue
            ok = cache.get(vid)
            if ok is None:
                representative = reprs[vid]
                ok = all(compare(pr.op, representative, pr.value)
                         for pr in predicates)
                cache[vid] = ok
            if ok:
                out.append(raws[p])
        return out
