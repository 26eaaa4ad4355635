"""Command-line pipeline: generate synthetic data, train, evaluate, predict.

Exit codes: 0 success, 2 usage or data error (a missing or unreadable path
included), 3 training divergence, 4 malformed checkpoint or checkpoint/graph
mismatch.  Under a fixed seed, generate, train (train.log's timings aside)
and evaluate (timing.json aside) write byte-identical files on a rerun.
train and evaluate create --out only once their inputs have loaded, so a
run refused for its inputs leaves none.  evaluate and predict read the
graph in the direction train recorded in the checkpoint.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import datagen, evaluation, training
from .baseline import EdgeProbabilities, ICSBScorer, fit_static_bernoulli
from .errors import CheckpointError, DataError, DivergenceError, TopoLstmError
from .graph import (Cascade, drop_short, load_cascades_file, load_graph_file,
                    save_cascades_file, save_labels, write_json)
from .model import SCORE_MODES, ModelConfig, predict_next
from .version import TOOL_VERSION

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_MISMATCH = 4


def _parse_prob(text: str):
    if "," in text:
        lo, hi = text.split(",", 1)
        return (float(lo), float(hi))
    return float(text)


def _parse_ks(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topolstm",
        description="Diffusion next-activation prediction on cascades.")
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic graph + cascades")
    gen.add_argument("--preset", choices=sorted(datagen.PRESETS),
                     help="named dataset recipe (overridable via other flags)")
    gen.add_argument("--nodes", type=int)
    gen.add_argument("--graph-model", choices=datagen.GRAPH_MODELS)
    gen.add_argument("--edge-param", type=float,
                     help="edge count (>=1) or density (<1); attachment count for "
                          "preferential-attachment")
    gen.add_argument("--activation-prob", type=_parse_prob,
                     help="edge probability p, or 'lo,hi' for per-edge uniform")
    gen.add_argument("--cascades", type=int, help="number of cascades to simulate")
    gen.add_argument("--max-len", type=int, help="cascade length cap")
    gen.add_argument("--seed", type=int, help="RNG seed")
    gen.add_argument("--out", required=True, help="output directory")

    tr = sub.add_parser("train", help="split cascades, fit the model, save the best checkpoint")
    tr.add_argument("--graph", required=True)
    tr.add_argument("--cascades", required=True)
    tr.add_argument("--out", required=True, help="output directory")
    tr.add_argument("--undirected", action="store_true",
                    help="read each edge both ways; evaluate and predict reuse this")
    tr.add_argument("--hidden-dim", type=int, default=32)
    tr.add_argument("--score-mode", choices=SCORE_MODES, default="all-active")
    tr.add_argument("--lr", type=float, default=1e-2)
    tr.add_argument("--lambda", dest="lam", type=float, default=1e-6,
                    help="L2 regularization trade-off")
    tr.add_argument("--batch-size", type=int, default=32)
    tr.add_argument("--epochs", type=int, default=100)
    tr.add_argument("--patience", type=int, default=10)
    tr.add_argument("--clip-norm", type=float, default=0.0,
                    help="global gradient-norm cap (0 = off)")
    tr.add_argument("--train-frac", type=float, default=0.75)
    tr.add_argument("--val-frac", type=float, default=0.10)
    tr.add_argument("--seed", type=int, default=0)

    ev = sub.add_parser("evaluate", help="rank test-set activations and report MAP@k / Hits@k")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--graph", required=True)
    ev.add_argument("--test-cascades", required=True)
    ev.add_argument("--ks", type=_parse_ks, default=evaluation.DEFAULT_KS)
    icsb = ev.add_mutually_exclusive_group()
    icsb.add_argument("--train-cascades",
                      help="also score the IC-SB baseline, fitted on these cascades")
    icsb.add_argument("--edge-probs",
                      help="also score the IC-SB baseline with these probabilities (u v p file)")
    ev.add_argument("--out", required=True, help="output directory")

    pr = sub.add_parser("predict", help="rank the next activation after a prefix")
    pr.add_argument("--checkpoint", required=True)
    pr.add_argument("--graph", required=True)
    pr.add_argument("--prefix", action="extend", nargs="+", required=True,
                    help="observed activations in order (node labels); repeatable, and "
                         "a label starting with '-' goes alone in --prefix=LABEL")
    pr.add_argument("--top-n", type=int, default=10)
    return parser


def _load_checkpoint_with_graph(args):
    """The model, and the graph read as the checkpoint's training run read it."""
    model, labels, header = ckpt.load_model(args.checkpoint)
    extra = header.get("extra", {})
    undirected = extra.get("undirected", False) if isinstance(extra, dict) else None
    if not isinstance(undirected, bool):
        raise CheckpointError(f"{args.checkpoint}: header 'extra' must be an object "
                              "whose 'undirected', if present, is true or false")
    graph = load_graph_file(args.graph, undirected=undirected)
    if graph.labels != labels:
        raise CheckpointError(
            f"graph {args.graph} does not match the checkpoint's node mapping "
            f"({graph.node_count} vs {len(labels)} nodes or different labels)")
    return model, graph


def cmd_generate(args) -> int:
    given = {"node_count": args.nodes, "graph_model": args.graph_model,
             "edge_param": args.edge_param, "activation_prob": args.activation_prob,
             "cascade_count": args.cascades, "max_cascade_length": args.max_len,
             "seed": args.seed}
    given = {name: value for name, value in given.items() if value is not None}
    if args.preset:
        config = replace(datagen.PRESETS[args.preset], **given)
    else:
        missing = [flag for flag, name in (("--nodes", "node_count"),
                                           ("--graph-model", "graph_model"),
                                           ("--activation-prob", "activation_prob"),
                                           ("--cascades", "cascade_count"),
                                           ("--max-len", "max_cascade_length"))
                   if name not in given]
        if missing:
            raise DataError("generate needs --preset or all of: " + ", ".join(missing))
        config = datagen.SynthConfig(**{"edge_param": 0.0, "seed": 0, **given})

    graph, cascades, _ = datagen.generate_dataset(config, out_dir=args.out)
    print(f"wrote {graph.node_count} nodes, {graph.edge_count} edges, "
          f"{len(cascades)} cascades to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    graph = load_graph_file(args.graph, undirected=args.undirected)
    if graph.edge_count == 0:
        raise DataError(f"graph {args.graph} has no edges")
    cascades = load_cascades_file(args.cascades, graph)

    train_config = training.TrainConfig(
        learning_rate=args.lr, lam=args.lam, batch_size=args.batch_size,
        max_epochs=args.epochs, patience=args.patience, seed=args.seed,
        clip_norm=args.clip_norm)
    model_config = ModelConfig(hidden_dim=args.hidden_dim,
                               node_count=graph.node_count,
                               score_mode=args.score_mode)
    config_echo = {
        "command": "train",
        "tool_version": TOOL_VERSION,
        "graph": args.graph,
        "cascades": args.cascades,
        "undirected": args.undirected,
        "model": asdict(model_config),
        "training": {
            "learning_rate": train_config.learning_rate, "lambda": train_config.lam,
            "batch_size": train_config.batch_size, "max_epochs": train_config.max_epochs,
            "patience": train_config.patience, "seed": train_config.seed,
            "train_frac": args.train_frac, "val_frac": args.val_frac,
            "clip_norm": train_config.clip_norm},
    }

    train_set, val_set, test_set = training.split_dataset(
        cascades, train_frac=args.train_frac, val_frac=args.val_frac,
        seed=args.seed)
    if all(len(c) < 2 for c in train_set):   # train() would refuse it after --out exists
        raise DataError("training set is empty")
    # Only now, so a run that fails on its inputs leaves no directory.
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, subset in (("train", train_set), ("validation", val_set),
                         ("test", test_set)):
        save_cascades_file(out / f"split_{name}.txt", subset, graph,
                           header=f"{name} cascades, seed {args.seed}")
    save_labels(out / "labels.txt", graph, header="label id")

    ckpt_path = out / "checkpoint.bin"
    log_path = out / "train.log"

    with open(log_path, "w", encoding="utf-8") as log_fh:
        log_fh.write(f"# topolstm {TOOL_VERSION} training log\n")
        log_fh.write(f"# config: {json.dumps(config_echo, sort_keys=True)}\n")
        log_fh.write("# epoch train_loss[=nll+reg] val_loss seconds\n")

        def on_epoch(stats, current_model, improved):
            val = "nan" if stats.val_loss is None else f"{stats.val_loss:.6f}"
            if stats.train_reg is None:
                decomposition = f"{stats.train_loss:.6f}"
            else:
                nll = stats.train_loss - stats.train_reg
                decomposition = (f"{stats.train_loss:.6f}"
                                 f"[={nll:.6f}+{stats.train_reg:.6f}]")
            log_fh.write(f"{stats.epoch} {decomposition} {val} "
                         f"{stats.seconds:.3f}\n")
            log_fh.flush()
            if improved:
                ckpt.save_model(ckpt_path, current_model, graph.labels,
                                extra=config_echo)

        try:
            model, report = training.train(graph, train_set, val_set,
                                           train_config, model_config,
                                           epoch_callback=on_epoch)
        except DivergenceError as exc:
            write_json(out / "report.json", {"config": config_echo, "diverged": True,
                                             "report": exc.report.to_json_dict()})
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DIVERGED

    ckpt.save_model(ckpt_path, model, graph.labels, extra=config_echo)
    write_json(out / "report.json", {"config": config_echo, "diverged": False,
                                     "report": report.to_json_dict()})
    final = report.epochs[-1].train_loss if report.epochs else float("nan")
    print(f"trained {len(report.epochs)} epoch(s); best epoch {report.best_epoch}; "
          f"final train loss {final:.6f}; checkpoint at {ckpt_path}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    started = time.perf_counter()
    model, graph = _load_checkpoint_with_graph(args)
    test_cascades = load_cascades_file(args.test_cascades, graph)
    if not test_cascades:
        raise DataError(f"no cascades in {args.test_cascades}")
    # Once here, not once per scorer, so the length-1 warning is logged once.
    test_cascades, _ = drop_short(test_cascades, "test set")
    probs = train_cascades = None
    if args.edge_probs is not None:
        probs = EdgeProbabilities.load(args.edge_probs, graph)
    elif args.train_cascades is not None:
        train_cascades = load_cascades_file(args.train_cascades, graph)
    read_seconds = time.perf_counter() - started
    if train_cascades is not None:
        probs = fit_static_bernoulli(graph, train_cascades)

    config_echo = {
        "command": "evaluate",
        "tool_version": TOOL_VERSION,
        "checkpoint": args.checkpoint,
        "graph": args.graph,
        "test_cascades": args.test_cascades,
        "ks": list(args.ks),
        "baseline": None if probs is None else "icsb",
        "score_mode": model.config.score_mode,
        "hidden_dim": model.config.hidden_dim,
    }

    scorers = [evaluation.ModelScorer(model, graph)]
    if probs is not None:
        scorers.append(ICSBScorer(graph, probs))

    tables, timing = [], []
    for scorer in scorers:
        started = time.perf_counter()
        tables.append(evaluation.evaluate(scorer, test_cascades, ks=args.ks))
        seconds = time.perf_counter() - started
        timing.append({"scorer": tables[-1].scorer, "seconds": seconds,
                       "us_per_instance": 1e6 * seconds / tables[-1].instances})

    # Only now, so a run that fails on its inputs leaves no directory.
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if train_cascades is not None:
        probs.save(out / "icsb_edge_probs.txt", header="fitted diffusion probabilities: u v p")
    evaluation.write_metrics_json(out / "metrics.json", tables, config_echo)
    evaluation.write_metrics_text(out / "metrics.txt", tables, config_echo)
    evaluation.write_length_buckets_csv(out / "length_buckets.csv", tables[0])
    # Wall-clock seconds differ on every run, so they stay out of metrics.json.
    write_json(out / "timing.json", {"read_inputs_seconds": read_seconds, "scorers": timing})
    with open(out / "metrics.txt", "r", encoding="utf-8") as fh:
        print(fh.read(), end="")
    return EXIT_OK


def cmd_predict(args) -> int:
    model, graph = _load_checkpoint_with_graph(args)
    ids = []
    for label in args.prefix:
        ids.append(graph.id_of(label))  # raises DataError naming the label
    if len(set(ids)) != len(ids):
        raise DataError("prefix repeats a node")
    prefix = Cascade(tuple(ids))
    if args.top_n < 1:
        raise DataError("--top-n must be >= 1")
    cand, probs = predict_next(model, graph, prefix)
    top = np.lexsort((cand, -probs))[: args.top_n]   # ties by ascending node id
    for v, p in zip(cand[top].tolist(), probs[top].tolist()):
        print(f"{graph.labels[v]} {p!r}")
    return EXIT_OK


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"generate": cmd_generate, "train": cmd_train,
                "evaluate": cmd_evaluate, "predict": cmd_predict}
    try:
        with np.errstate(over="ignore", invalid="ignore"):   # as train() runs the model
            return handlers[args.command](args)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (TopoLstmError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
