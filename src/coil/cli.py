"""Command-line interface wiring the library into batch workflows.

Subcommands: encode, build, search, bm25, eval, sample-negs, stats.
Exit codes: 0 success, 1 validation error, 2 malformed input or IO error.

`encode` writes the vocabulary and the encoder settings into the header of
its `coil-enc` output; `build` embeds them into the index so `search` can
encode raw-text queries the same way the corpus was encoded.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .bm25 import (
    Bm25Index,
    Bm25Params,
    bm25_search,
    build_bm25_index,
    sample_bm25_negatives,
)
from .core import (
    MODES,
    CoilConfig,
    FormatError,
    ValidationError,
    load_documents,
    load_queries,
)
from .encoding import (
    EncoderSpec,
    StubContextualizerConfig,
    TokenizerConfig,
    build_vocab,
    encode_document,
    encode_query,
    ingest_encoded,
    read_encoded_header,
    tokenize,
    write_encoded,
)
from .evaluation import evaluate, read_qrels, read_run, write_run
from .index import META_FILE, build_index, index_stats, load_index, save_index
from .loss import TrainingExample, write_training_examples
from .retrieval import search_many


def cmd_encode(args: argparse.Namespace) -> int:
    docs = load_documents(args.corpus)
    config = CoilConfig(
        n_lm=args.n_lm,
        n_t=args.n_t,
        n_c=args.n_c,
        max_doc_tokens=args.max_doc_tokens,
        cls_layer_norm=args.layer_norm,
    )
    spec = EncoderSpec(
        tokenizer=build_vocab(d.text for d in docs),
        stub=StubContextualizerConfig(seed=args.stub_seed),
        config=config,
    )
    params = spec.projection()
    count = write_encoded(
        (encode_document(d, spec.tokenizer, spec.stub, params, config) for d in docs),
        args.out,
        config.n_t,
        config.n_c,
        spec,
    )
    print(f"encoded {count} documents -> {args.out}")
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    header = read_encoded_header(args.encoded)
    n_t, n_c = header["n_t"], header["n_c"]
    spec = header.get("encoder")
    config = spec.config if spec else CoilConfig(n_lm=max(n_t, n_c), n_t=n_t, n_c=n_c)
    index = build_index(
        ingest_encoded(args.encoded),
        config,
        encoder_meta=spec.to_meta() if spec else None,
    )
    save_index(index, args.index_dir)
    stats = index_stats(index)
    print(
        f"built index: {stats.num_docs} docs, {stats.num_lists} lists, "
        f"{stats.total_postings} postings -> {args.index_dir}"
    )
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    index = load_index(args.index_dir)
    queries = load_queries(args.queries)
    if not index.encoder_meta:
        raise ValidationError(
            f"{args.index_dir}: index stores no encoder settings; rebuild it from "
            "a `coil encode` output"
        )
    source = f"{Path(args.index_dir) / META_FILE}: encoder_meta"
    spec = EncoderSpec.from_meta(index.encoder_meta, source)
    if spec.config != index.config:
        raise FormatError(f"{source}: config disagrees with the index's config")
    params = spec.projection()
    encoded = [
        encode_query(q, spec.tokenizer, spec.stub, params, spec.config) for q in queries
    ]
    mode = args.mode or index.config.mode
    results = search_many(index, encoded, k=args.k, mode=mode, threads=args.threads)
    if args.instrument:
        for ranked, instr in results:
            print(json.dumps({"qid": ranked.query_id, **asdict(instr)}), file=sys.stderr)
    run = {ranked.query_id: ranked for ranked, _ in results}
    write_run(run, args.out, tag=args.tag or mode)
    print(f"searched {len(queries)} queries (mode={mode}) -> {args.out}", file=sys.stderr)
    return 0


def _load_bm25_corpus(args: argparse.Namespace) -> tuple[TokenizerConfig, Bm25Index]:
    docs = load_documents(args.corpus)
    tokenizer = build_vocab(d.text for d in docs)
    return tokenizer, build_bm25_index(docs, tokenizer, max_doc_tokens=args.max_doc_tokens)


def cmd_bm25(args: argparse.Namespace) -> int:
    tokenizer, index = _load_bm25_corpus(args)
    queries = load_queries(args.queries)
    params = Bm25Params(k1=args.k1, b=args.b, k2=args.k2)
    run = {
        q.id: bm25_search(index, tokenize(q.text, tokenizer), args.k, params, query_id=q.id)
        for q in queries
    }
    write_run(run, args.out, tag="bm25")
    print(
        f"ranked {len(queries)} queries over {index.num_docs} documents -> {args.out}",
        file=sys.stderr,
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    run = read_run(args.run)
    qrels = read_qrels(args.qrels)
    specs = [s.strip() for s in args.metrics.split(",") if s.strip()]
    report = evaluate(run, qrels, specs)
    for name, value in report.items():
        print(f"{name}\t{value:.6f}")
    return 0


def cmd_sample_negs(args: argparse.Namespace) -> int:
    tokenizer, index = _load_bm25_corpus(args)
    queries = load_queries(args.queries)
    qrels = read_qrels(args.qrels)
    examples = []
    for qi, query in enumerate(queries):
        positives = sorted(qrels.relevant(query.id, min_rel=1))
        if not positives:
            continue
        negatives = sample_bm25_negatives(
            index,
            tokenize(query.text, tokenizer),
            positives,
            depth=args.depth,
            count=args.count,
            seed=args.seed + qi,
        )
        for pos in positives:
            examples.append(TrainingExample(query.id, pos, tuple(negatives)))
    count = write_training_examples(examples, args.out)
    print(f"wrote {count} training examples -> {args.out}", file=sys.stderr)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    print(json.dumps(asdict(index_stats(load_index(args.index_dir)))))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coil",
        description="Contextualized inverted-list retrieval toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode a JSONL corpus into vector records")
    p.add_argument("corpus", help="JSONL file of {id, text} documents")
    p.add_argument("out", help="output coil-enc file: a JSON header line, then binary records")
    p.add_argument("--stub-seed", type=int, default=0, help="encoder seed (default 0)")
    p.add_argument("--n-lm", type=int, default=768, help="base vector width (default 768)")
    p.add_argument("--n-t", type=int, default=32, help="token vector dim (default 32)")
    p.add_argument("--n-c", type=int, default=768, help="cls vector dim, 0 disables (default 768)")
    p.add_argument("--layer-norm", action="store_true", help="layer-normalize cls vectors")
    p.add_argument(
        "--max-doc-tokens", type=int, default=512, help="truncate documents (default 512)"
    )
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("build", help="build an inverted index from encoded records")
    p.add_argument("encoded", help="coil-enc file from `encode` or an outside encoder")
    p.add_argument("index_dir", help="output index directory")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("search", help="run queries against an index")
    p.add_argument("index_dir", help="index directory from `build`")
    p.add_argument("queries", help="JSONL file of {id, text} queries")
    p.add_argument("out", help="output run file")
    p.add_argument("--k", type=int, default=1000, help="results per query (default 1000)")
    p.add_argument("--mode", choices=MODES, help="scoring mode (default: the index's mode)")
    p.add_argument("--tag", default=None, help="run tag (default: the mode name)")
    p.add_argument(
        "--instrument",
        action="store_true",
        help="print per-query work counters as JSON lines to stderr",
    )
    p.add_argument("--threads", type=int, default=1, help="query-level parallelism")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("bm25", help="rank queries with the BM25 baseline")
    p.add_argument("corpus", help="JSONL file of {id, text} documents")
    p.add_argument("queries", help="JSONL file of {id, text} queries")
    p.add_argument("out", help="output run file")
    p.add_argument("--k", type=int, default=1000, help="results per query (default 1000)")
    p.add_argument("--k1", type=float, default=1.2)
    p.add_argument("--b", type=float, default=0.75)
    p.add_argument("--k2", type=float, default=0.0)
    p.add_argument(
        "--max-doc-tokens", type=int, default=512, help="truncate documents (default 512)"
    )
    p.set_defaults(func=cmd_bm25)

    p = sub.add_parser("eval", help="score a run file against qrels")
    p.add_argument("run", help="TREC run file")
    p.add_argument("qrels", help="TREC qrels file")
    p.add_argument(
        "--metrics",
        default="mrr@10,recall@1000,ndcg@10",
        help="comma-separated name@k specs (default mrr@10,recall@1000,ndcg@10)",
    )
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "sample-negs", help="sample hard negatives from BM25 rankings"
    )
    p.add_argument("corpus", help="JSONL file of {id, text} documents")
    p.add_argument("queries", help="JSONL file of {id, text} queries")
    p.add_argument("qrels", help="TREC qrels file naming the positives")
    p.add_argument("out", help="output training-example JSONL file")
    p.add_argument("--depth", type=int, default=1000, help="ranking depth (default 1000)")
    p.add_argument("--count", type=int, default=7, help="negatives per query (default 7)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--max-doc-tokens", type=int, default=512, help="truncate documents (default 512)"
    )
    p.set_defaults(func=cmd_sample_negs)

    p = sub.add_parser("stats", help="print index statistics as JSON")
    p.add_argument("index_dir", help="index directory from `build`")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))
