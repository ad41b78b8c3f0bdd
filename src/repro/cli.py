"""Command-line interface: ``python -m repro <command>``.

Wraps the publisher / analyst / auditor workflows:

* ``generate``   — write a synthetic CENSUS microdata view to CSV.
* ``anatomize``  — read microdata CSV, publish QIT + ST CSVs.
* ``verify``     — audit a published QIT/ST pair against an l target.
* ``attack``     — run the Theorem 1 adversary against a publication.
* ``experiment`` — regenerate one of the paper's figures and print it.
* ``serve``      — run the HTTP publication server
  (:mod:`repro.service`).

Every command works on plain CSVs so the tool composes with anything;
schemas are inferred from the microdata file
(:func:`repro.dataset.io.infer_schema_from_csv`).

Exit codes: 0 on success, :data:`EXIT_FAILURE` (1) when a command runs
but fails (bad data, infeasible l, failed audit), :data:`EXIT_USAGE`
(2) when the invocation itself is malformed.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.anatomize import anatomize
from repro.core.privacy import AnatomyAdversary
from repro.dataset.io import (
    infer_schema_from_csv,
    load_anatomized,
    load_table,
    save_anatomized,
    save_table,
)
from repro.exceptions import ReproError

#: A command ran and failed (library-level :class:`ReproError`).
EXIT_FAILURE = 1
#: The invocation was malformed (argparse errors, wrong arity).
EXIT_USAGE = 2


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.dataset.census import CensusDataset

    dataset = CensusDataset(n=args.n, seed=args.seed)
    table = dataset.view(args.d, args.sensitive)
    save_table(table, args.out)
    print(f"wrote {len(table):,} tuples ({args.d} QI attributes + "
          f"{args.sensitive}) to {args.out}")
    return 0


def _cmd_anatomize(args: argparse.Namespace) -> int:
    schema = infer_schema_from_csv(args.microdata)
    table = load_table(schema, args.microdata)
    published = anatomize(table, l=args.l, seed=args.seed)
    save_anatomized(published, args.qit, args.st)
    print(f"anatomized {len(table):,} tuples at l={args.l}: "
          f"{published.st.group_count():,} QI-groups")
    print(f"  QIT -> {args.qit}")
    print(f"  ST  -> {args.st}")
    print(f"  adversary's max inference probability: "
          f"{published.breach_probability_bound():.2%}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    schema = infer_schema_from_csv(args.microdata)
    published = load_anatomized(schema, args.qit, args.st)
    bound = published.breach_probability_bound()
    target = 1.0 / args.l
    ok = bound <= target + 1e-12
    print(f"groups: {published.st.group_count():,}; tuples: "
          f"{published.n:,}")
    print(f"measured breach bound: {bound:.4f} "
          f"(target <= {target:.4f} for l={args.l})")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_attack(args: argparse.Namespace) -> int:
    schema = infer_schema_from_csv(args.microdata)
    published = load_anatomized(schema, args.qit, args.st)
    adversary = AnatomyAdversary(published)
    values = args.qi_values
    if len(values) != schema.d:
        print(f"error: expected {schema.d} QI values "
              f"({', '.join(schema.qi_names)}), got {len(values)}",
              file=sys.stderr)
        return EXIT_USAGE
    decoded = []
    for attr, text in zip(schema.qi_attributes, values):
        candidate: object = text
        if candidate not in attr:
            try:
                candidate = int(text)
            except ValueError:
                pass
        decoded.append(candidate)
    try:
        codes = adversary.encode_qi(decoded)
        posterior = adversary.posterior(codes)
    except ReproError as exc:
        print(f"attack failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    print(f"target QI values: {dict(zip(schema.qi_names, decoded))}")
    print("adversary's posterior over the sensitive attribute:")
    for code, prob in sorted(posterior.items(), key=lambda kv: -kv[1]):
        print(f"  {schema.sensitive.decode(code)}: {prob:.2%}")
    print(f"max inference probability: {max(posterior.values()):.2%}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.monitor import CanaryConfig
    from repro.obs.slo import load_slo_config
    from repro.service.http import ReproService, make_server

    monitor_config = None
    if args.monitor:
        monitor_config = CanaryConfig(
            interval_s=args.monitor_interval,
            count=args.monitor_queries)
    slo = load_slo_config(args.slo_config) if args.slo_config else None
    service = ReproService(cache_size=args.cache_size,
                           trace=args.trace, log_json=args.log_json,
                           monitor_config=monitor_config,
                           slo=slo,
                           telemetry_path=args.export_telemetry,
                           telemetry_memory=args.telemetry_memory)
    server = make_server(service, host=args.host, port=args.port,
                         verbose=args.verbose)
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port}", flush=True)
    print(f"  cache_size={args.cache_size} "
          f"trace={'on' if args.trace else 'off'} "
          f"log_json={'on' if args.log_json else 'off'} "
          f"monitor={'on' if args.monitor else 'off'} "
          f"slo={'on' if slo is not None else 'off'} "
          f"telemetry={args.export_telemetry or 'off'}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.server_close()
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.config import DEFAULT_CONFIG, SMOKE_CONFIG
    from repro.experiments.figures import ALL_FIGURES
    from repro.experiments.report import render_figure

    config = SMOKE_CONFIG if args.scale == "smoke" else DEFAULT_CONFIG
    driver = ALL_FIGURES[args.figure]
    result = driver(config)
    print(render_figure(result))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Anatomy (Xiao & Tao, VLDB 2006) — privacy-"
                    "preserving data publication toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate",
                       help="write a synthetic CENSUS view to CSV")
    p.add_argument("out", help="output CSV path")
    p.add_argument("--n", type=int, default=10_000,
                   help="number of tuples (default 10000)")
    p.add_argument("--d", type=int, default=5,
                   help="number of QI attributes, 1-7 (default 5)")
    p.add_argument("--sensitive", default="Occupation",
                   choices=["Occupation", "Salary-class"])
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("anatomize",
                       help="publish microdata CSV as QIT + ST CSVs")
    p.add_argument("microdata", help="input microdata CSV")
    p.add_argument("qit", help="output QIT CSV")
    p.add_argument("st", help="output ST CSV")
    p.add_argument("--l", type=int, default=10,
                   help="diversity parameter (default 10)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_anatomize)

    p = sub.add_parser("verify",
                       help="audit a QIT/ST pair against an l target")
    p.add_argument("microdata",
                   help="the original microdata CSV (schema source)")
    p.add_argument("qit")
    p.add_argument("st")
    p.add_argument("--l", type=int, default=10)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("attack",
                       help="run the Theorem 1 adversary on a "
                            "publication")
    p.add_argument("microdata",
                   help="the original microdata CSV (schema source)")
    p.add_argument("qit")
    p.add_argument("st")
    p.add_argument("qi_values", nargs="+",
                   help="the target individual's QI values, in schema "
                        "order")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("serve",
                       help="run the HTTP publication server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080,
                   help="TCP port (0 picks a free one; default 8080)")
    p.add_argument("--cache-size", type=int, default=4096,
                   help="result-cache capacity in entries (0 disables)")
    p.add_argument("--verbose", action="store_true",
                   help="log every HTTP request")
    p.add_argument("--trace", action="store_true",
                   help="record hierarchical trace spans for every "
                        "request (see docs/OBSERVABILITY.md)")
    p.add_argument("--log-json", action="store_true",
                   help="emit the request log as JSON lines with "
                        "trace/span IDs attached")
    p.add_argument("--monitor", action="store_true",
                   help="run the canary utility monitor: per "
                        "publication, periodically measure the "
                        "paper's relative COUNT error and export "
                        "repro_utility_* gauges")
    p.add_argument("--monitor-interval", type=float, default=5.0,
                   help="canary cadence in seconds (default 5)")
    p.add_argument("--monitor-queries", type=int, default=32,
                   help="canary workload size (default 32)")
    p.add_argument("--slo-config", metavar="PATH", default=None,
                   help="JSON SLO thresholds; enables the tri-state "
                        "/healthz verdict (see docs/OBSERVABILITY.md)")
    p.add_argument("--export-telemetry", metavar="PATH", default=None,
                   help="stream finished spans and metric snapshots "
                        "to rotating JSON-lines files at PATH")
    p.add_argument("--telemetry-memory", action="store_true",
                   help="attach tracemalloc memory watermarks to "
                        "exported top-level spans")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("experiment",
                       help="regenerate one of the paper's figures")
    p.add_argument("figure", choices=["fig4", "fig5", "fig6", "fig7",
                                      "fig8", "fig9"])
    p.add_argument("--scale", choices=["smoke", "default"],
                   default="smoke",
                   help="experiment grid size (default: smoke)")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors (message already on stderr)
        # and 0 for --help; surface both as return codes.
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
