"""In-memory span tracing of qcost, wrapped from outside the package.

Every wrapped function records one span per call: name, start, end,
parent span and operation id.  Spans stay in flat arrays while the run
lasts and are written out once at the end.  Wrappers are installed under
every name that a caller looks up: ``from .entanglement import ree_upper``
binds the function separately in ``inequality``, ``protocol`` and ``cli``,
so each qcost module namespace is scanned for the original object.  The
numpy kernels are patched on ``numpy.linalg``, where qcost looks them up.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

WRAPPED = {
    "qcost.qmat": ("partial_trace", "partial_transpose", "permute_subsystems",
                   "permute_matrix", "embed_local", "vector_state"),
    "qcost.measures": ("vn_entropy", "entropy_of_spectrum", "relative_entropy",
                       "trace_distance", "fidelity", "bures_distance",
                       "distance"),
    "qcost.optim": ("minimize", "param_to_unitary"),
    "qcost.quantumness": ("computational_basis", "measure_channel",
                          "deficit_for_basis", "one_way_deficit"),
    "qcost.entanglement": ("ree_upper", "coherent_info_lower",
                           "ppt_min_eigenvalue", "measured_separable_upper",
                           "ensemble_to_state"),
    "qcost.statezoo": ("ginibre_mixed", "haar_pure", "haar_unitary",
                       "eta_state"),
    "qcost.inequality": ("main_inequality_audit", "collinearity_check",
                         "dpi_check", "pure_chain_check",
                         "distance_chain_check", "campaign_sample",
                         "run_campaign"),
    "qcost.protocol": ("run_protocol", "apply_local_channel", "load_script"),
    "qcost.cli": ("main",),
}
EIG_NAMES = ("linalg.eigh", "linalg.eigvalsh")
LAYERS = ("cli", "protocol", "inequality", "quantumness", "entanglement",
          "optim", "measures", "qmat", "statezoo", "linalg", "bench")
_COLUMNS = ("name", "parent", "op", "start", "end", "aux")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Span recorder; ``install`` patches qcost, ``uninstall`` restores it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {c: array("q" if c in ("name", "parent", "op") else "d")
                     for c in _COLUMNS}
        self.stack: list[int] = []
        self.op_id = -1
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers ---------------------------------------------------------

    def wrap(self, fn, name: str, after=None):
        """Span-recording wrapper; ``after(i, result)`` may post-process."""
        nid = self.name_id(name)
        c = self.cols
        names, parents, ops = c["name"], c["parent"], c["op"]
        starts, ends, aux = c["start"], c["end"], c["aux"]
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            ends.append(0.0)
            aux.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            return result if after is None else after(i, result)

        return wrapper

    def _minimize(self, fn):
        """optim.minimize: the objective gets a span named after the calling
        layer, and the span keeps ``OptResult.evals_used``."""
        def after(i, res):
            self.cols["aux"][i] = res.evals_used
            return res

        inner = self.wrap(fn, "optim.minimize", after)

        def minimize(objective, dim, cfg, extra_starts=()):
            caller = layer_of(self.names[self.cols["name"][self.stack[-1]]]) \
                if self.stack else "bench"
            return inner(self.wrap(objective, f"{caller}.objective"), dim,
                         cfg, extra_starts)

        return minimize

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        import numpy.linalg as la
        for short in ("eigh", "eigvalsh"):
            self._patch_everywhere(la, short, f"linalg.{short}", [la])
        modules = [m for k, m in sys.modules.items()
                   if k == "qcost" or k.startswith("qcost.")]
        for modname, fnames in WRAPPED.items():
            mod = sys.modules[modname]
            layer = modname.split(".", 1)[1]
            for fname in fnames:
                self._patch_everywhere(mod, fname, f"{layer}.{fname}", modules)

    def _patch_everywhere(self, mod, fname, span_name, namespaces) -> None:
        original = getattr(mod, fname)
        if span_name == "optim.minimize":
            wrapper = self._minimize(original)
        else:
            wrapper = self.wrap(original, span_name)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
                    self._patches.append((ns, key, original))

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()

    # -- output ---------------------------------------------------------

    def arrays(self) -> dict:
        out = {k: np.frombuffer(v, dtype=np.int64 if k in ("name", "parent", "op")
                                else np.float64).copy()
               for k, v in self.cols.items()}
        out["names"] = np.array(self.names)
        return out

    def per_span_cost_s(self, calls: int = 20000) -> float:
        """Wall time one span adds to a call, measured on a no-op."""
        def noop():
            return None

        wrapped = self.wrap(noop, "bench.calibration")
        first = len(self.cols["start"])
        clock = time.perf_counter
        t0 = clock()
        for _ in range(calls):
            noop()
        bare = clock() - t0
        t0 = clock()
        for _ in range(calls):
            wrapped()
        traced = clock() - t0
        for v in self.cols.values():
            del v[first:]
        return max(0.0, (traced - bare) / calls)


def layer_metrics(spans: dict, n_ops: int, span_cost_s: float) -> dict:
    """Per-layer metrics from the span arrays of one traced run; the
    tracing overhead is the spans' measured cost over the audit time."""
    names = list(spans["names"])
    nid = spans["name"]
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]
    aux = spans["aux"]
    n = len(dur)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child
    span_layer = np.array([layer_of(x) for x in names])[nid]

    def ids(*wanted):
        return np.isin(nid, [names.index(w) for w in wanted if w in names])

    def parent_in(mask):
        return has_parent & mask[np.maximum(parent, 0)]

    def below(mask):
        """Spans with an ancestor in ``mask``."""
        out = np.zeros(n, dtype=bool)
        anc = parent.copy()
        live = anc >= 0
        while np.any(live):
            out[live] |= mask[anc[live]]
            anc[live] = parent[anc[live]]
            live = anc >= 0
        return out

    def mean(mask, scale=1.0):
        return float(np.mean(dur[mask]) * scale) if np.any(mask) else 0.0

    def ratio(num, den):
        return float(num / den) if den else 0.0

    eig = ids(*EIG_NAMES)
    minimize = ids("optim.minimize")
    ree = ids("entanglement.ree_upper")
    deficit = ids("quantumness.one_way_deficit")
    campaign = ids("inequality.run_campaign")
    search = ree | deficit
    # one audit: a root span, or a campaign sample inside run_campaign
    audits = (~has_parent | parent_in(campaign)) & ~campaign
    op_time = float(np.sum(dur[audits]))
    measures = span_layer == "measures"
    ledger = ids("protocol.run_protocol")
    cli = ids("cli.main")

    m = {
        "optim.evals_per_minimize": ratio(np.sum(aux[minimize]), np.sum(minimize)),
        "optim.eval_us": ratio(np.sum(dur[minimize]) * 1e6, np.sum(aux[minimize])),
        "optim.minimize_calls": int(np.sum(minimize)),
        "quantumness.one_way_deficit_s": mean(deficit),
        "quantumness.one_way_deficit_calls": int(np.sum(deficit)),
        "quantumness.measure_channel_us": mean(ids("quantumness.measure_channel"), 1e6),
        "quantumness.objective_us": mean(ids("quantumness.objective"), 1e6),
        "entanglement.ree_upper_s": mean(ree),
        "entanglement.ree_upper_calls": int(np.sum(ree)),
        "entanglement.eig_calls_per_ree": ratio(np.sum(eig & below(ree)), np.sum(ree)),
        "entanglement.coherent_info_lower_us":
            mean(ids("entanglement.coherent_info_lower"), 1e6),
        "measures.distance_us": mean(ids("measures.distance"), 1e6),
        "measures.vn_entropy_us": mean(ids("measures.vn_entropy"), 1e6),
        "measures.calls_per_audit": ratio(np.sum(measures & ~parent_in(measures)), n_ops),
        "qmat.partial_trace_us": mean(ids("qmat.partial_trace"), 1e6),
        "qmat.embed_local_us": mean(ids("qmat.embed_local"), 1e6),
        "qmat.permute_subsystems_us": mean(ids("qmat.permute_subsystems"), 1e6),
        "statezoo.sample_us": mean(ids("statezoo.ginibre_mixed", "statezoo.haar_pure",
                                       "statezoo.haar_unitary"), 1e6),
        "inequality.audit_self_s": ratio(np.sum(self_t[span_layer == "inequality"]), n_ops),
        "protocol.ledger_self_s": ratio(np.sum(self_t[ledger]), np.sum(ledger)),
        "protocol.apply_local_channel_us":
            mean(ids("protocol.apply_local_channel"), 1e6),
        "cli.self_s": ratio(np.sum(self_t[cli]), np.sum(cli)),
        "linalg.eig_calls_per_audit": ratio(np.sum(eig), n_ops),
        "linalg.eig_us": mean(eig, 1e6),
        "search.share_of_audit_time":
            ratio(np.sum(dur[search & ~below(search)]), op_time),
        "trace.spans": n,
        "trace.overhead_pct": ratio(100.0 * n * span_cost_s, op_time),
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms_per_audit"] = ratio(
            np.sum(self_t[span_layer == layer]) * 1e3, n_ops)
    return m
