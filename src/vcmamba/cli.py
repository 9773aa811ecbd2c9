"""Command-line interface.

Subcommands:
    params <preset>                     parameter count table
    macs <preset> [--resolution N]      analytic multiply-accumulate counts
    train --config FILE                 train on the toy task
    eval --checkpoint FILE              loss/accuracy of a checkpoint on the toy set
    scan-dump --height H --width W --path ID    traversal as CSV on stdout
    check                               self-test of this machine's build, pass/fail as CSV

Exit codes: 0 success, 1 validation failure (bad arguments, bad config or
checkpoint, failed checks), 2 runtime error (crashes, diverged training).
"""

from __future__ import annotations

import argparse
import csv
import sys

from .checkpoint import CheckpointError, load_checkpoint
from .checks import run_all
from .config import ValidationError, load_train_config
from .data import ToyDataset
from .model import PRESETS, VCMamba, count_macs, count_params, get_preset
from .scanpath import PathId, build_path, dump_csv
from .train import TrainingDiverged, evaluate, train


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); bad usage is a validation failure
        raise UsageError(f"{self.prog}: error: {message}\n{self.format_usage().rstrip()}")


def _cmd_params(args) -> int:
    spec = get_preset(args.preset)
    table = count_params(VCMamba.undrawn(spec))
    print(f"preset {spec.name}: channels {spec.channels}, blocks {'/'.join(spec.stage_blocks)}")
    width = max(len(k) for k in table["sections"])
    for section, count in table["sections"].items():
        print(f"{section:<{width}}  {count}")
    print(f"{'total':<{width}}  {table['total']}")
    print(f"running-stat elements (not parameters): {table['buffer_elements']}")
    return 0


def _cmd_macs(args) -> int:
    spec = get_preset(args.preset)
    table = count_macs(spec, args.resolution)
    print(f"preset {spec.name} at {table['resolution']}x{table['resolution']}, batch 1")
    width = max(len(k) for k in table["sections"])
    for section, count in table["sections"].items():
        print(f"{section:<{width}}  {count}")
    print(f"{'total':<{width}}  {table['total']}  ({table['total'] / 1e9:.3f} GMACs)")
    return 0


def _cmd_train(args) -> int:
    cfg = load_train_config(args.config)
    result = train(cfg)
    print(f"trained {cfg.steps} steps: first train loss {result.first_loss:.4f}, "
          f"final eval loss {result.final_loss:.4f}, accuracy {result.final_accuracy:.4f}")
    print(f"checkpoint: {cfg.checkpoint_path}")
    print(f"log: {cfg.log_path}")
    return 0


def _cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    dataset = ToyDataset(args.n_samples, seed=args.data_seed,
                         resolution=model.spec.input_resolution)
    loss, acc = evaluate(model, dataset)
    print(f"checkpoint {args.checkpoint} ({model.spec.name}): "
          f"loss {loss:.6f}, accuracy {acc:.6f} on {len(dataset)} samples (seed {args.data_seed})")
    return 0


def _cmd_scan_dump(args) -> int:
    path = build_path(args.height, args.width, PathId(args.path))
    dump_csv(path, sys.stdout)
    return 0


def _cmd_check(args) -> int:
    results = run_all()
    failed = sum(not r.passed for r in results)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["check", "status", "detail"])
    writer.writerows([r.name, "PASS" if r.passed else "FAIL", r.detail] for r in results)
    writer.writerow(["summary", "PASS" if failed == 0 else "FAIL",
                     f"{len(results) - failed}/{len(results)} checks passed"])
    return 0 if failed == 0 else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="vcmamba", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="parameter count table")
    p.add_argument("preset", choices=sorted(PRESETS))
    p.set_defaults(fn=_cmd_params)

    p = sub.add_parser("macs", help="multiply-accumulate counts")
    p.add_argument("preset", choices=sorted(PRESETS))
    p.add_argument("--resolution", type=int, default=None,
                   help="input side (default: the preset's native resolution)")
    p.set_defaults(fn=_cmd_macs)

    p = sub.add_parser("train", help="train on the toy dataset")
    p.add_argument("--config", required=True, help="key = value config file")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the toy dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--n-samples", dest="n_samples", type=int, default=1000)
    p.add_argument("--data-seed", dest="data_seed", type=int, default=1)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("scan-dump", help="dump a scan path as CSV")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--path", choices=[pid.value for pid in PathId], required=True)
    p.set_defaults(fn=_cmd_scan_dump)

    p = sub.add_parser("check", help="self-test of this machine's numpy/BLAS build")
    p.set_defaults(fn=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (ValidationError, CheckpointError, ValueError, OSError) as exc:
        # missing or unreadable files are user-input problems, not crashes
        print(f"vcmamba: {exc}", file=sys.stderr)
        return 1
    except TrainingDiverged as exc:
        print(f"vcmamba: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything unexpected is a runtime failure
        print(f"vcmamba: unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
