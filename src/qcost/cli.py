"""Command-line surface: state I/O, measures, reproduction runs, randomized
audit campaigns, and protocol ledgers.

Exit codes: 0 success / no violation, 1 audited violation found, 2 input
or usage error.  Every report embeds the tool version, seed, config echo,
and input digests, so any number can be reproduced from the report alone.
All floating output is rounded to 12 significant digits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import __version__
from .entanglement import (coherent_info_lower, measured_separable_upper,
                           ppt_min_eigenvalue, ree_upper)
from .inequality import CAMPAIGN_CHECKS, run_campaign
from .measures import DistanceKind, purity, vn_entropy
from .optim import OptimizerConfig
from .protocol import load_script, run_protocol
from .qmat import (Bipartition, InputError, SubsystemDims, load_state,
                   matrix_to_json, save_state, vector_state)
from .quantumness import (computational_basis, deficit_for_basis,
                          measure_channel, one_way_deficit)
from .statezoo import eta_state, ghz_state, ginibre_mixed, haar_pure

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2

_KINDS = {
    "relative-entropy": DistanceKind.RELATIVE_ENTROPY,
    "trace": DistanceKind.TRACE,
    "bures": DistanceKind.BURES,
}

DEFAULT_SEED = 42
# The options each `gen` family reads, with their defaults; giving one
# that the chosen family does not read is an input error.
_GEN_DEFAULTS = {"dims": "2,2,2", "index": 0, "rank": None, "seed": DEFAULT_SEED}
_GEN_READS = {"ghz": (), "eta": (), "haar-pure": ("dims", "index", "seed"),
              "ginibre": ("dims", "index", "rank", "seed")}


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _config_echo(args) -> dict:
    """The options the command takes."""
    seed = getattr(args, "seed", None)
    echo = {} if seed is None else {"seed": seed}
    echo["output"] = getattr(args, "output", None) or "stdout"
    echo["format"] = getattr(args, "format", "json")
    return echo


def _header(args, command: str, inputs=()) -> dict:
    return {
        "tool": "qcost",
        "version": __version__,
        "command": command,
        "config": _config_echo(args),
        "inputs": {path: _digest(path) for path in inputs},
    }


def _emit(args, payload: dict) -> None:
    text = json.dumps(_round12(payload), indent=2)
    out = getattr(args, "output", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _scalar(value: float) -> str:
    return f"{value:.12g}"


def _parse_dims(text: str) -> SubsystemDims:
    try:
        dims = tuple(int(d) for d in text.split(","))
    except ValueError:
        raise InputError(f"dims must be comma-separated integers, got {text!r}") from None
    labels = tuple(chr(ord("A") + i) for i in range(len(dims)))
    return SubsystemDims(labels, dims)


# ----------------------------------------------------------------------
# Subcommands.
# ----------------------------------------------------------------------

def cmd_measure(args) -> int:
    rho = load_state(args.state)
    value = vn_entropy(rho) if args.what == "entropy" else purity(rho)
    report = _header(args, "measure", [args.state])
    report.update({"what": args.what, "value": value})
    _emit(args, report)
    print(_scalar(value))
    return EXIT_OK


def cmd_deficit(args) -> int:
    if args.basis == "computational" and args.seed is not None:
        raise InputError("--basis computational searches nothing, so it "
                         "reads no --seed")
    if args.basis == "optimize" and args.seed is None:
        args.seed = DEFAULT_SEED
    rho = load_state(args.state)
    kind = _KINDS[args.kind]
    report = _header(args, "deficit", [args.state])
    d = rho.dims.dim_of(args.subsystem)
    if args.basis == "computational":
        value = deficit_for_basis(rho, computational_basis(args.subsystem, d), kind)
        report.update({"subsystem": args.subsystem, "kind": args.kind,
                       "basis": "computational", "value": value})
    else:
        value, basis = one_way_deficit(rho, args.subsystem, kind,
                                       OptimizerConfig(seed=args.seed))
        report.update({"subsystem": args.subsystem, "kind": args.kind,
                       "basis": "optimized", "value": value,
                       "basis_unitary": matrix_to_json(basis.unitary)})
    _emit(args, report)
    print(_scalar(value))
    return EXIT_OK


def cmd_ree(args) -> int:
    rho = load_state(args.state)
    cut = Bipartition.parse(args.cut, rho.labels)
    kind = _KINDS[args.kind]
    value, ensemble = ree_upper(rho, cut, kind, seed=args.seed)
    report = _header(args, "ree", [args.state])
    report.update({"cut": str(cut), "kind": args.kind, "upper_bound": value})
    if kind is DistanceKind.RELATIVE_ENTROPY:  # the hashing bound's only kind
        report["coherent_info_lower"] = coherent_info_lower(rho, cut)
    report["ppt_min_eigenvalue"] = ppt_min_eigenvalue(rho, cut)
    report["ensemble"] = {
        "weights": list(map(float, ensemble.weights)),
        "left_vectors": matrix_to_json(ensemble.left),
        "right_vectors": matrix_to_json(ensemble.right),
    }
    _emit(args, report)
    return EXIT_OK


def cmd_eta(args) -> int:
    """One-shot reproduction of the worked three-qubit example."""
    cfg = OptimizerConfig(seed=args.seed)
    eta = eta_state()
    labels = eta.labels
    basis_c = computational_basis("C", 2)
    eta_meas = measure_channel(eta, basis_c)
    cut_acb = Bipartition.parse("AC|B", labels)
    cut_abc = Bipartition.parse("AB|C", labels)
    cut_a_bc = Bipartition.parse("A|BC", labels)

    deficit_comp = deficit_for_basis(eta, basis_c)
    deficit_opt, _ = one_way_deficit(eta, "C", DistanceKind.RELATIVE_ENTROPY, cfg)
    ree_acb, _ = ree_upper(eta, cut_acb, seed=cfg.seed)
    ree_abc, _ = ree_upper(eta, cut_abc, seed=cfg.seed)
    ree_a_bc, _ = ree_upper(eta, cut_a_bc, seed=cfg.seed)
    msu = measured_separable_upper(eta, eta_meas, basis_c, cut_acb)
    ppt_acb = ppt_min_eigenvalue(eta, cut_acb)
    ppt_abc = ppt_min_eigenvalue(eta, cut_abc)

    third = 1.0 / 3.0
    checks = {
        "deficit_computational_is_one_third": abs(deficit_comp - third) <= 1e-9,
        "deficit_optimized_in_band": third - 1e-9 <= deficit_opt <= third + 1e-4,
        "ree_AC|B_below_1e-3": ree_acb <= 1e-3,
        "ree_AB|C_below_1e-3": ree_abc <= 1e-3,
        "ree_A|BC_upper_near_one_third": ree_a_bc <= third + 5e-3,
        "measured_separable_upper_is_one_third": abs(msu - third) <= 1e-8,
        "ppt_AC|B_nonnegative": ppt_acb >= -1e-9,
        "ppt_AB|C_nonnegative": ppt_abc >= -1e-9,
    }
    report = _header(args, "eta")
    report.update({
        "deficit_computational": deficit_comp,
        "deficit_optimized_upper": deficit_opt,
        "ree_upper_AC|B": ree_acb,
        "ree_upper_AB|C": ree_abc,
        "ree_upper_A|BC": ree_a_bc,
        "measured_separable_upper": msu,
        "ppt_min_AC|B": ppt_acb,
        "ppt_min_AB|C": ppt_abc,
        "checks": checks,
        "all_ok": all(checks.values()),
    })
    _emit(args, report)
    return EXIT_OK if all(checks.values()) else EXIT_VIOLATION


def cmd_campaign(args) -> int:
    dims = _parse_dims(args.dims)
    reports, summary = run_campaign(args.check, dims, args.samples, args.seed,
                                    kind=_KINDS.get(args.kind),
                                    workers=args.workers)
    header = _header(args, "campaign")
    header.update({"check": args.check, "dims": list(dims.dims),
                   "samples": args.samples})
    lines = [json.dumps(_round12(r.to_json_dict())) for r in reports]
    if args.output:
        with open(args.output, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    if args.format == "tsv":
        keys = ["check", "samples", "violations", "powered", "min_slack",
                "max_abs_slack", "seed"]
        print("\t".join(keys))
        print("\t".join(str(_round12(summary[k])) for k in keys))
    else:
        out = dict(header)
        out["summary"] = summary
        print(json.dumps(_round12(out), indent=2))
    return EXIT_VIOLATION if summary["violations"] else EXIT_OK


def cmd_protocol(args) -> int:
    script = load_script(args.script)
    ledger = run_protocol(script, OptimizerConfig(seed=args.seed))
    report = _header(args, "protocol", [args.script])
    report.update(ledger.to_json_dict())
    _emit(args, report)
    return EXIT_VIOLATION if ledger.failed else EXIT_OK


def cmd_gen(args) -> int:
    reads = _GEN_READS[args.family]
    for name, default in _GEN_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif name not in reads:
            raise InputError(f"--family {args.family} does not read --{name}")
    if args.family == "ghz":
        rho = ghz_state()
    elif args.family == "eta":
        rho = eta_state()
    elif args.family == "haar-pure":
        dims = _parse_dims(args.dims)
        rho = vector_state(haar_pure(dims, args.seed, args.index), dims)
    else:
        dims = _parse_dims(args.dims)
        rank = dims.total_dim if args.rank is None else args.rank
        rho = ginibre_mixed(dims, rank, args.seed, args.index)
    save_state(rho, args.out)
    print(json.dumps({"written": args.out, "family": args.family,
                      "digest": _digest(args.out)}))
    return EXIT_OK


# ----------------------------------------------------------------------
# Parser.
# ----------------------------------------------------------------------

def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", default=None, help="write the report here instead of stdout")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcost",
        description="Entanglement vs quantum-correlation cost: measures and audits.",
    )
    parser.add_argument("--version", action="version", version=f"qcost {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="entropy or purity of a state file")
    p.add_argument("state")
    p.add_argument("--what", choices=("entropy", "purity"), default="entropy")
    _add_output(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("deficit", help="one-way information deficit")
    p.add_argument("state")
    p.add_argument("--subsystem", default="C")
    p.add_argument("--kind", choices=tuple(_KINDS), default="relative-entropy")
    p.add_argument("--basis", choices=("computational", "optimize"), default="optimize")
    p.add_argument("--seed", type=int, default=None,
                   help=f"optimize only (default {DEFAULT_SEED})")
    _add_output(p)
    p.set_defaults(func=cmd_deficit)

    p = sub.add_parser("ree", help="relative entropy of entanglement upper bound")
    p.add_argument("state")
    p.add_argument("--cut", required=True, help='bipartition such as "A|BC"')
    p.add_argument("--kind", choices=tuple(_KINDS), default="relative-entropy")
    _add_common(p)
    p.set_defaults(func=cmd_ree)

    p = sub.add_parser("eta", help="reproduce the worked three-qubit example")
    _add_common(p)
    p.set_defaults(func=cmd_eta)

    p = sub.add_parser("campaign", help="randomized inequality audit campaign")
    p.add_argument("--check", required=True, choices=CAMPAIGN_CHECKS)
    p.add_argument("--dims", default="2,2,2")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--kind", choices=tuple(_KINDS), default=None,
                   help="distance kind (default: the check's own; only "
                        "dpi and distance-chain take another)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (default 1: in this process)")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    _add_common(p)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("protocol", help="run a distribution-protocol ledger")
    p.add_argument("script")
    _add_common(p)
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("gen", help="write a state file")
    p.add_argument("--family", required=True,
                   choices=("ghz", "eta", "haar-pure", "ginibre"))
    p.add_argument("--dims", default=None,
                   help="haar-pure and ginibre only (default 2,2,2)")
    p.add_argument("--index", type=int, default=None,
                   help="haar-pure and ginibre only (default 0)")
    p.add_argument("--rank", type=int, default=None,
                   help="ginibre only (default: full rank)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help=f"haar-pure and ginibre only (default {DEFAULT_SEED})")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
