"""Brute-force vs indexed matching wall-clock benchmark.

Builds a ``--factor``-times-larger world from the real study (seeded
clone/mutation synthesis, see :mod:`repro.match.synth`) and times the
two matching workloads of the paper pipeline both ways, asserting the
accelerated results are *identical* to the brute-force ones:

1. **corpus leg** — near-matching probe fingerprints against the
   library corpus: a linear scan over all corpus entries with
   precomputed token sets and exact Jaccard, versus
   :meth:`repro.match.CorpusIndex.near_matches` (distinct-key dedup +
   size-window pruning, exact rescoring);
2. **pairs leg** — vendor similar-pair mining over the scaled vendor
   world: exact Jaccard over every pair via ``itertools.combinations``,
   versus :meth:`repro.match.SimilarityIndex.all_pairs` (element
   inverted-index pruning, exact rescoring).

The headline ``speedup`` is the *minimum* of the two legs — the gate
number in ``BENCH_match.json`` — and the run fails loudly (exit 1) if
either leg's accelerated results differ from brute force by a single
byte.

Usage::

    PYTHONPATH=src python benchmarks/bench_match.py \
        [--factor 10] [--probes 1000] [--threshold 0.5] \
        [--pair-threshold 0.2] [-o BENCH_match.json]
"""

import argparse
import itertools
import json
import pathlib
import sys
import time

from repro.libraries.base import version_sort_key
from repro.match import (CorpusIndex, SimilarityIndex,
                         fingerprint_tokens, set_jaccard)
from repro.match.synth import scaled_fingerprints, scaled_vendor_sets
from repro.study import get_study


def _sample(items, count):
    """Deterministic stride sample of ``count`` items (order kept)."""
    if count >= len(items):
        return list(items)
    stride = len(items) / count
    return [items[int(i * stride)] for i in range(count)]


def corpus_leg(study, factor, probes, threshold):
    """Time brute linear corpus scan vs CorpusIndex.near_matches."""
    world = scaled_fingerprints(study.dataset, factor)
    sampled = _sample(world, probes)
    corpus = study.corpus

    # Brute setup is untimed — the baseline pays only the per-probe
    # linear scan, never the one-off precomputation (generous to it).
    entry_tokens = [(entry, fingerprint_tokens(entry.key()))
                    for entry in corpus]
    best_by_key = {}
    for entry, _tokens in entry_tokens:
        key = entry.key()
        if key not in best_by_key or \
                (entry.library, version_sort_key(entry.version)) > \
                (best_by_key[key].library,
                 version_sort_key(best_by_key[key].version)):
            best_by_key[key] = entry

    def brute(fp):
        tokens = fingerprint_tokens(fp)
        hits = {}
        for entry, candidate in entry_tokens:
            similarity = set_jaccard(tokens, candidate)
            if similarity >= threshold:
                hits[entry.key()] = similarity
        return sorted(((similarity, key)
                       for key, similarity in hits.items()),
                      key=lambda hit: (-hit[0], hit[1]))

    started = time.perf_counter()
    brute_hits = [brute(fp) for fp in sampled]
    brute_seconds = time.perf_counter() - started

    started = time.perf_counter()
    index = CorpusIndex(corpus)
    fast_hits = [index.near_matches(fp, threshold=threshold,
                                    limit=None)
                 for fp in sampled]
    fast_seconds = time.perf_counter() - started

    brute_view = [[(similarity, best_by_key[key].full_name)
                   for similarity, key in hits]
                  for hits in brute_hits]
    fast_view = [[(similarity, entry.full_name)
                  for similarity, entry in hits]
                 for hits in fast_hits]
    return {
        "world_fingerprints": len(world),
        "probes": len(sampled),
        "corpus_entries": len(corpus),
        "threshold": threshold,
        "brute_seconds": round(brute_seconds, 3),
        "fast_seconds": round(fast_seconds, 3),
        "speedup": round(brute_seconds / fast_seconds, 2),
        "identical": brute_view == fast_view,
    }


def _best_of(fn, repeats):
    """(result, min-seconds) over ``repeats`` runs — noise floor."""
    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return result, best


def pairs_leg(study, factor, threshold, repeats):
    """Time brute all-pairs vendor Jaccard vs SimilarityIndex."""
    world = scaled_vendor_sets(study.dataset, factor)

    def brute_pairs():
        hits = []
        for a, b in itertools.combinations(sorted(world), 2):
            similarity = set_jaccard(world[a], world[b])
            if similarity >= threshold:
                hits.append((similarity, a, b))
        hits.sort(key=lambda row: (-row[0], row[1], row[2]))
        return hits

    def fast_pairs():
        index = SimilarityIndex()
        for vendor in sorted(world):
            index.add(vendor, world[vendor])
        return index.all_pairs(threshold)

    brute, brute_seconds = _best_of(brute_pairs, repeats)
    fast, fast_seconds = _best_of(fast_pairs, repeats)

    return {
        "vendors": len(world),
        "total_pairs": len(world) * (len(world) - 1) // 2,
        "similar_pairs": len(fast),
        "threshold": threshold,
        "brute_seconds": round(brute_seconds, 3),
        "fast_seconds": round(fast_seconds, 3),
        "speedup": round(brute_seconds / fast_seconds, 2),
        "identical": brute == fast,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--factor", type=int, default=10,
                        help="world-size multiplier over the real study "
                             "(default %(default)s — the north-star "
                             "'10x world size')")
    parser.add_argument("--probes", type=int, default=1000,
                        help="corpus-leg probe count, stride-sampled "
                             "from the scaled world (default "
                             "%(default)s; both paths query the same "
                             "probes, so the ratio is fair)")
    parser.add_argument("--threshold", type=float, default=0.5,
                        help="corpus near-match Jaccard threshold "
                             "(default %(default)s)")
    parser.add_argument("--pair-threshold", type=float, default=0.2,
                        help="vendor similar-pair threshold (default "
                             "%(default)s, the paper's Table 4 floor)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="pairs-leg best-of-N timing runs per side "
                             "(default %(default)s; min filters "
                             "scheduler noise, results must agree)")
    parser.add_argument("-o", "--output", default="BENCH_match.json")
    args = parser.parse_args(argv)

    study = get_study()
    print(f"world: factor {args.factor} over seed "
          f"{study.config.seed}...")

    corpus = corpus_leg(study, args.factor, args.probes,
                        args.threshold)
    if corpus["probes"] < corpus["world_fingerprints"]:
        print(f"  corpus leg probes capped at {corpus['probes']} of "
              f"{corpus['world_fingerprints']} scaled fingerprints "
              f"(--probes)")
    print(f"  corpus  brute {corpus['brute_seconds']:7.2f}s   "
          f"indexed {corpus['fast_seconds']:7.3f}s   "
          f"({corpus['speedup']:.1f}x)")
    pairs = pairs_leg(study, args.factor, args.pair_threshold,
                      args.repeats)
    print(f"  pairs   brute {pairs['brute_seconds']:7.2f}s   "
          f"indexed {pairs['fast_seconds']:7.3f}s   "
          f"({pairs['speedup']:.1f}x)")

    identical = corpus["identical"] and pairs["identical"]
    if not identical:
        print("FATAL: accelerated results differ from brute force",
              file=sys.stderr)
    speedup = min(corpus["speedup"], pairs["speedup"])

    payload = {
        "seed": study.config.seed,
        "factor": args.factor,
        "corpus_leg": corpus,
        "pairs_leg": pairs,
        "speedup": speedup,
        "identical": identical,
    }
    path = pathlib.Path(args.output)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path} (headline speedup {speedup:.1f}x)")
    if speedup < 10.0:
        print(f"WARNING: speedup {speedup:.2f}x below the 10x target",
              file=sys.stderr)
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
