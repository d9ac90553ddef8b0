"""Command-line front end and verification harness.

Subcommands: mutate, gvec, tube-info, expand, theta, theta2, scatter2,
gca-graph, gca-verify, verify, report.  Matrices are given either as a path
to a JSON file {"n": ..., "m": ..., "rows": [[...], ...]} (rows are the n+m
rows of the extended exchange matrix) or as the name of a bundled fixture.
All indices on the command line are 1-based.  Exit codes: 0 success, 1 a
checked identity failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections.abc import Sequence

from . import gca, scatter2
from .affine import (
    NotAcyclic,
    NotAffineType,
    NotInImaginaryWall,
    SimplesMismatch,
    Tube,
    all_arcs,
    cluster_expansion_imaginary,
    fan,
    maximal_compatible_sets,
    tube_root_vector,
)
from .poly import json_int, to_json_dict
from .seeds import (
    ExtendedExchangeMatrix,
    NotFound,
    RootVec,
    WeightVec,
    g_vector_of,
    initial_seed,
    mutate_seed_word,
    principal_extension,
)
from .theta import IdentityViolated, ThetaEngine

BUNDLED = ["a1t22", "a1t41", "a1t14", "a2t", "a3t", "a3t22", "a4t", "c2t", "d4t", "e6t"]


class ConfigError(Exception):
    pass


def load_matrix(source: str) -> ExtendedExchangeMatrix:
    if source in BUNDLED:
        # the loader's own read, as pkgutil.get_data does: it also reads
        # from a zip-imported package
        path = os.path.join(os.path.dirname(__file__), "matrices", f"{source}.json")
        text = __spec__.loader.get_data(path)
    else:
        # bytes, as from the loader: json.loads decodes them, inside the try
        try:
            with open(source, "rb") as fh:
                text = fh.read()
        except FileNotFoundError as exc:
            raise ConfigError(f"no such matrix file or fixture: {source}") from exc
        except OSError as exc:
            raise ConfigError(f"cannot read {source}: {exc.strerror}") from exc
    try:
        blob = json.loads(text)
        rows = tuple(tuple(json_int(x) for x in r) for r in blob["rows"])
        matrix = ExtendedExchangeMatrix(rows, json_int(blob["n"]))
        if json_int(blob["m"]) != matrix.m:
            raise ValueError(f'"m" is {blob["m"]} but the file has {matrix.m} coefficient rows')
        return matrix
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"malformed matrix file: {exc}") from exc


def matrix_json(matrix: ExtendedExchangeMatrix) -> dict:
    return {"n": matrix.n, "m": matrix.m, "rows": [list(r) for r in matrix.rows]}


# every integer on the command line: ASCII digits with an optional '-', spaces
# around allowed (int() alone also takes '1_0' and non-ASCII digits)
_INT = re.compile(r"\s*-?[0-9]+\s*", re.ASCII)


def parse_int(text: str) -> int:
    if _INT.fullmatch(text) is None:
        raise ConfigError(f"bad integer: {text}")
    return int(text)


def _parse_ints(text: str) -> list[int]:
    """Comma-separated integers, none empty; a blank text is no integers."""
    return [parse_int(t) for t in text.split(",")] if text.strip() else []


def parse_word(text: str, n: int) -> list[int]:
    """0-based mutation indices from a comma-separated 1-based word."""
    try:
        word = [k - 1 for k in _parse_ints(text)]
    except ConfigError as exc:
        raise ConfigError(f"bad mutation word: {text}") from exc
    if any(k < 0 for k in word):
        raise ConfigError("mutation indices are 1-based")
    for k in word:
        if k >= n:
            raise ConfigError(f"mutation index {k + 1} exceeds n={n}")
    return word


def parse_vec(text: str, n: int) -> list[int]:
    """A comma-separated integer vector with exactly n coordinates."""
    try:
        vec = _parse_ints(text)
    except ConfigError as exc:
        raise ConfigError(f"bad vector: {text}") from exc
    if len(vec) != n:
        raise ConfigError(f"vector {text} must have {n} coordinates")
    return vec


def emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        for key in sorted(payload):
            print(f"{key}: {payload[key]}")


# -- subcommands ---------------------------------------------------------------


def cmd_mutate(args) -> int:
    matrix = load_matrix(args.matrix)
    for k in parse_word(args.word, matrix.n):
        matrix = matrix.mutate(k)
    emit({"matrix": matrix_json(matrix)}, args.format)
    return 0


def cmd_gvec(args) -> int:
    matrix = load_matrix(args.matrix)
    # g-vectors are read off pointed forms, which need principal coefficients.
    if matrix != principal_extension(matrix.top()):
        raise ConfigError("gvec needs principal coefficients (an identity block below B)")
    seed = mutate_seed_word(initial_seed(matrix), parse_word(args.word, matrix.n))
    gvecs = [list(g_vector_of(seed, i).coords) for i in range(matrix.n)]
    emit({"gvectors": gvecs}, args.format)
    return 0


def _tube_table(eng: ThetaEngine, tube: Tube, label_key: str) -> dict:
    """A tube's size, orbit and arc table; each arc's nu_c image is stored
    under label_key.  Key order is kept because text output prints it."""
    arcs = []
    for r in all_arcs(tube):
        vec = tube_root_vector(tube, r)
        arcs.append(
            {
                "start": r.start,
                "length": r.length,
                "vector": list(vec.coords),
                label_key: list(eng.data.nu_c(vec).coords),
            }
        )
    return {"size": tube.size, "orbit": [list(v.coords) for v in tube.orbit], "arcs": arcs}


def cmd_tube_info(args) -> int:
    eng = ThetaEngine(load_matrix(args.matrix).top())
    emit(
        {
            "delta": list(eng.data.delta.coords),
            "nu_delta": list(eng.nu_delta.coords),
            "tubes": [_tube_table(eng, tube, "label") for tube in eng.tubes],
        },
        args.format,
    )
    return 0


def cmd_expand(args) -> int:
    eng = ThetaEngine(load_matrix(args.matrix).top())
    phi = RootVec(tuple(parse_vec(args.root, eng.n)))
    m_delta, arcs = cluster_expansion_imaginary(eng.data, eng.tubes, phi)
    emit(
        {
            "m_delta": m_delta,
            "arcs": [
                {"tube": r.tube, "start": r.start, "length": r.length, "mult": mult}
                for r, mult in sorted(arcs.items())
            ],
        },
        args.format,
    )
    return 0


def _parse_target(eng: ThetaEngine, text: str) -> WeightVec:
    text = text.strip()
    if text.endswith("delta"):
        head = text[: -len("delta")].rstrip("* ")
        try:
            k = parse_int(head) if head else 1
        except ConfigError as exc:
            raise ConfigError(f"bad target: {text}") from exc
        return eng.nu_delta.scale(k)
    return WeightVec(tuple(parse_vec(text, eng.n)))


def cmd_theta(args) -> int:
    eng = ThetaEngine(load_matrix(args.matrix).top())
    label = _parse_target(eng, args.target)
    theta = eng.theta_by_label(label)
    emit(
        {
            "label": list(theta.label.coords),
            "theta": str(theta.poly),
            "json": to_json_dict(theta.poly),
        },
        args.format,
    )
    return 0


def _write_json(path: str, payload: dict) -> None:
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc
    with fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


def _check_nonnegative(flag: str, value: int) -> None:
    if value < 0:
        raise ConfigError(f"{flag} must be nonnegative, got {value}")


def _check_kmax(kmax: int) -> None:
    if kmax < 2:
        raise ConfigError(f"kmax must be at least 2 to check an identity, got {kmax}")


def cmd_scatter2(args) -> int:
    matrix = load_matrix(args.matrix)
    if matrix.n != 2:
        raise ConfigError("scatter2 requires a rank-2 matrix")
    _check_nonnegative("--order", args.order)
    diagram = scatter2.complete_scattering_rank2(matrix.top(), args.order)
    walls = [
        {
            "normal": list(w.normal),
            "direction": list(w.direction),
            "line": w.is_line,
            "series": to_json_dict(w.series),
        }
        for w in diagram.walls
    ]
    payload = {"order": args.order, "walls": walls}
    if args.dump:
        _write_json(args.dump, payload)
    emit(payload, args.format)
    return 0


def cmd_theta2(args) -> int:
    matrix = load_matrix(args.matrix)
    if matrix.n != 2:
        raise ConfigError("theta2 requires a rank-2 matrix")
    _check_nonnegative("--order", args.order)
    diagram = scatter2.complete_scattering_rank2(matrix.top(), args.order)
    lam = WeightVec(tuple(parse_vec(args.lam, 2)))
    poly = scatter2.theta_via_broken_lines(diagram, lam)
    emit({"lambda": list(lam.coords), "theta": str(poly), "json": to_json_dict(poly)}, args.format)
    return 0


def _tube_graph(eng: ThetaEngine, tube: Tube) -> gca.ExchangeGraph:
    """Exchange graph from the tube's least maximal compatible set, its fan."""
    seed, labels = gca.build_tube_seed(eng.tubes, fan(tube))
    return gca.enumerate_exchange_graph(eng.tubes, seed, labels)


def cmd_gca_graph(args) -> int:
    eng = ThetaEngine(load_matrix(args.matrix).top())
    if not eng.tubes:
        raise ConfigError("matrix has no tubes")
    if not 0 <= args.tube < len(eng.tubes):
        raise ConfigError(f"tube index out of range (found {len(eng.tubes)} tubes)")
    tube = eng.tubes[args.tube]
    graph = _tube_graph(eng, tube)
    payload = {
        "tube": args.tube,
        "size": tube.size,
        "vertices": len(graph.vertices),
        "edges": sorted({tuple(sorted((a, b))) for a, b, _ in graph.edges}),
        "clusters": [
            sorted([r.start, r.length] for r in labs) for labs in graph.labels
        ],
    }
    if args.json_out:
        _write_json(args.json_out, payload)
    emit(payload, args.format)
    return 0


def cmd_gca_verify(args) -> int:
    eng = ThetaEngine(load_matrix(args.matrix).top())
    if not eng.tubes:
        raise ConfigError("matrix has no tubes")
    report = {}
    for tube in eng.tubes:
        graph = _tube_graph(eng, tube)
        nrel = gca.t_o_check(eng, graph)
        # u -> 1 is a ring map, so every relation that holds with principal
        # coefficients holds coefficient-free too
        report[f"tube{tube.index}"] = {
            "size": tube.size,
            "seeds": len(graph.vertices),
            "relations": nrel,
            "relations_coefficient_free": nrel,
        }
    emit(report, args.format)
    return 0


IDENTITIES = ["thetaxi", "cheby", "imexch", "realexch", "expansion", "tube-closure"]


def run_identity(eng: ThetaEngine, name: str, kmax: int) -> list[str]:
    """Run one identity family; returns failure descriptions (empty = pass)."""
    failures: list[str] = []
    if name == "thetaxi":
        if eng.n == 2:
            eng.theta_delta()
        else:
            base = None
            for tube in eng.tubes:
                for pos in range(tube.size):
                    theta = eng.theta_delta_from(tube.index, pos)
                    if base is None:
                        base = theta
                    elif not eng.same([(1, None, theta)], [(1, None, base)]):
                        failures.append(
                            f"theta_delta differs for tube {tube.index} position {pos}"
                        )
    elif name == "cheby":
        _check_kmax(kmax)
        # theta_k theta_l = theta_{k+l} + y^{l delta} theta_{k-l} (l < k) and
        # theta_k^2 = theta_{2k} + 2 y^{k delta}, compared in pointed form
        theta, delta = eng.theta_k_delta, eng.data.delta
        for k in range(2, kmax + 1):
            for l in range(1, k):
                lhs = [(1, None, eng.multiply(theta(k), theta(l)))]
                rhs = [(1, None, theta(k + l)), (1, delta.scale(l), theta(k - l))]
                if not eng.same(lhs, rhs):
                    failures.append(f"product identity failed at k={k}, l={l}")
            sq = [(1, None, eng.multiply(theta(k), theta(k)))]
            if not eng.same(sq, [(1, None, theta(2 * k)), (2, delta.scale(k), None)]):
                failures.append(f"square identity failed at k={k}")
    elif name == "imexch":
        for tube in eng.tubes:
            for i in range(tube.size):
                for j in range(tube.size):
                    if i == j:
                        continue
                    try:
                        eng.imaginary_exchange(tube.index, i, j)
                    except IdentityViolated as exc:
                        failures.append(str(exc))
    elif name == "realexch":
        for tube in eng.tubes:
            for jset in maximal_compatible_sets(tube):
                for gamma in jset:
                    if gamma.length == tube.size - 1:
                        continue
                    try:
                        eng.real_exchange(tube.index, jset, gamma)
                    except IdentityViolated as exc:
                        failures.append(str(exc))
    elif name == "expansion":
        # the product of a boundary theta with a theta on the imaginary ray
        # peels back to a single basis element, exactly
        for tube in eng.tubes:
            for r in all_arcs(tube):
                t_arc = eng.theta_tube_root(r)
                for md in (1, 2):
                    combo = eng.expand_product(t_arc, eng.theta_k_delta(md))
                    label = t_arc.label + eng.nu_delta.scale(md)
                    if combo != {label: eng.one()}:
                        failures.append(f"expansion product failed at {r}, m_delta={md}")
    elif name == "tube-closure":
        for tube in eng.tubes:
            gens = [eng.theta_tube_root(r) for r in all_arcs(tube) if r.length <= 2]
            for a in gens:
                for b in gens:
                    combo = eng.expand_product(a, b)
                    for label in combo:
                        phi = eng.data.nu_c_inv(label)
                        try:
                            _, arcs = cluster_expansion_imaginary(
                                eng.data, eng.tubes, phi
                            )
                            stray = [r for r in arcs if r.tube != tube.index]
                        except NotInImaginaryWall:
                            stray = [label]
                        if stray:
                            failures.append(
                                f"label {label.coords} left the span of tube {tube.index}"
                            )
    else:
        raise ConfigError(f"unknown identity {name}; choose from {IDENTITIES}")
    return failures


def cmd_verify(args) -> int:
    matrix = load_matrix(args.matrix)
    eng = ThetaEngine(matrix.top())
    names = IDENTITIES if args.identity == "all" else [args.identity]
    if "cheby" in names:
        _check_kmax(args.kmax)
    # every tube root first: one the search cannot reach exits 2 (NotFound)
    # before any family prints a verdict
    for tube in eng.tubes:
        for r in all_arcs(tube):
            eng.theta_tube_root(r)
    failures: dict[str, list[str]] = {}
    for name in sorted(names):
        try:
            bad = run_identity(eng, name, kmax=args.kmax)
        except IdentityViolated as exc:
            bad = [str(exc)]
        if bad:
            failures[name] = bad
        print(f"{name}: {'FAIL' if bad else 'ok'}")
        for msg in bad:
            print(f"  {msg}")
    return 1 if failures else 0


def cmd_report(args) -> int:
    matrix = load_matrix(args.matrix)
    eng = ThetaEngine(matrix.top())
    tubes = [
        {**_tube_table(eng, tube, "nu_c"), "max_compatible_sets": len(maximal_compatible_sets(tube))}
        for tube in eng.tubes
    ]
    payload = {
        "matrix": matrix_json(matrix),
        "delta": list(eng.data.delta.coords),
        "nu_delta": list(eng.nu_delta.coords),
        "symmetrizers": [f"1/{x}" if x > 1 else "1" for x in eng.data.e],
        "coxeter_order": [i + 1 for i in eng.data.order],
        "theta_delta": to_json_dict(eng.theta_delta().poly),
        "tubes": tubes,
    }
    emit(payload, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affcluster",
        description="Exact computations in cluster algebras of acyclic affine type.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, order=False):
        p.add_argument("--matrix", required=True, help="path or bundled name: %s" % ",".join(BUNDLED))
        p.add_argument("--format", choices=["json", "text"], default="text")
        if order:
            p.add_argument("--order", type=parse_int, default=8)

    p = sub.add_parser("mutate", help="mutate an extended exchange matrix")
    common(p)
    p.add_argument("--word", required=True, help="comma-separated 1-based indices")

    p = sub.add_parser("gvec", help="g-vectors of the seed reached by a word")
    common(p)
    p.add_argument("--word", default="", help="comma-separated 1-based indices")

    p = sub.add_parser("tube-info", help="tubes, orbits and arc tables")
    common(p)

    p = sub.add_parser("expand", help="compatible expansion of a root in the imaginary wall")
    common(p)
    p.add_argument("--root", required=True, help="comma-separated root coordinates")

    p = sub.add_parser("theta", help="theta function for a label in the imaginary wall")
    common(p)
    p.add_argument("--target", required=True, help='weight coordinates or "k*delta"')

    p = sub.add_parser("scatter2", help="rank-2 scattering diagram by consistency")
    common(p, order=True)
    p.add_argument("--dump", default=None, help="write walls to this JSON file")

    p = sub.add_parser("theta2", help="rank-2 theta function via broken lines")
    common(p, order=True)
    p.add_argument("--lambda", dest="lam", required=True, help="weight coordinates a,b")

    p = sub.add_parser("gca-graph", help="exchange graph of a tube's generalized seed")
    common(p)
    p.add_argument("--tube", type=parse_int, default=0)
    p.add_argument("--json", dest="json_out", default=None)

    p = sub.add_parser("gca-verify", help="verify tube generalized cluster algebras")
    common(p)

    p = sub.add_parser("verify", help="verify theta-function identities")
    common(p)
    p.add_argument("--identity", default="all", choices=IDENTITIES + ["all"])
    p.add_argument(
        "--kmax", type=parse_int, default=4,
        help="largest multiple of the imaginary ray in the product identities (at least 2); "
        "the cheby family builds theta up to 2*kmax*delta, so at 4 d4t takes about 0.3 s "
        "but e6t runs for more than five minutes (about 2 s at 2)",
    )

    p = sub.add_parser("report", help="full structural report for a matrix")
    common(p)

    return parser


# main's parser, built on its first call and reused: a process running many
# commands builds it once, and importing the module builds none.  A list, so
# that filling it leaves the module's bindings as they were
_PARSER: list[argparse.ArgumentParser] = []


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand.  Exit 2 for bad input, including inputs the
    engine rejects (not acyclic or affine, targets it cannot reach or place);
    exit 1 for a failed identity.  Any other exception is an engine bug and
    propagates with its traceback."""
    if not _PARSER:
        _PARSER.append(build_parser())
    try:
        # parse_int, the type of the integer options, raises ConfigError
        args = _PARSER[0].parse_args(argv)
        # the handler is looked up when it runs, so a replaced cmd_* is the one called
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except IdentityViolated as exc:
        print(f"identity violated: {exc}", file=sys.stderr)
        return 1
    except (NotAcyclic, NotAffineType, NotFound, NotInImaginaryWall, SimplesMismatch) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
