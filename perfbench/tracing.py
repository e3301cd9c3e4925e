"""Spans around the public functions of each capbias layer, placed from outside.

`install` wraps every public function and public method defined in the layer
modules, and rebinds each wrapper wherever a capbias module holds the
original under any name. That matters because `cli` imports `run_protocol`
and `load_corpus` by name and `lic` imports `build_vocab`,
`align_to_prediction_vocab` and `balanced_image_split` by name: a wrapper
placed only on the defining module would never see those calls. Methods such
as `Masker.mask` are wrapped on the class.

Each wrapped call records one span (function, start, end, parent span). A
span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time

LAYERS = ("corpus", "masking", "vocab", "classifier", "lic", "cooccur", "cli")


def _train_counts(args, kwargs, result):
    model, sequences = args[0], args[1]
    config = (args[3] if len(args) > 3 else kwargs.get("config")) or model.config
    n = len(sequences)
    return {
        "classifier.train_steps": config.epochs * math.ceil(n / config.batch_size),
        "classifier.train_captions": config.epochs * n,
    }


def _probe_counts(args, kwargs, result):
    corpus, words = args[0], args[1]
    return {"cooccur.probes": len(corpus.records) * len(words.words)}


# Counters taken from a wrapped call's arguments or result.
PROBES = {
    "corpus.load_corpus": lambda a, k, r: {"corpus.captions": len(r)},
    "vocab.build_vocab": lambda a, k, r: {"vocab.size": len(r)},
    "lic.run_protocol": lambda a, k, r: {"lic.seeds": a[2].n_seeds},
    "classifier.train": _train_counts,
    "cooccur.count_cooccurrence": _probe_counts,
}


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        probe = PROBES.get(name)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (index, start, end, parent)
            if probe is not None:
                counters = tracer.counters
                for key, n in probe(args, kwargs, result).items():
                    counters[key] = counters.get(key, 0) + n
            return result

        return traced

    # -------------------------------------------------------- summaries

    def calls(self) -> dict[str, int]:
        out = {name: 0 for name in self.names}
        for index, _, _, _ in self.spans:
            out[self.names[index]] += 1
        return out

    def self_ns(self) -> list[int]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def inclusive_ns(self, names) -> int:
        """Time inside calls to any of `names`, not counting nested ones twice."""
        wanted = {i for i, n in enumerate(self.names) if n in names}
        inside = [False] * len(self.spans)
        total = 0
        for i, (index, start, end, parent) in enumerate(self.spans):
            outer = parent >= 0 and inside[parent]
            inside[i] = outer or index in wanted
            if index in wanted and not outer:
                total += end - start
        return total

    def root_ns(self) -> int:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)


def _public_callables(module):
    """(owner, attribute, function, rebuild) for each public function and method
    defined in `module`."""
    for name, obj in list(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, obj, lambda f: f
        elif inspect.isclass(obj):
            for attr, member in list(vars(obj).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(member):
                    yield obj, attr, member, lambda f: f
                elif isinstance(member, (classmethod, staticmethod)):
                    yield obj, attr, member.__func__, type(member)


def install(tracer: Tracer):
    """Wrap every layer's public callables; returns a function that undoes it."""
    undo = []
    replaced = {}
    for layer in LAYERS:
        module = importlib.import_module(f"capbias.{layer}")
        for owner, attr, fn, rebuild in _public_callables(module):
            qualname = (
                f"{layer}.{attr}" if owner is module
                else f"{layer}.{owner.__name__}.{attr}"
            )
            original = vars(owner)[attr]
            wrapped = tracer.wrap(qualname, fn)
            setattr(owner, attr, rebuild(wrapped))
            undo.append((owner, attr, original))
            if owner is module:
                replaced[id(fn)] = (fn, wrapped)
    # Rebind names that other modules imported with `from ... import name`.
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "capbias" or mod_name.startswith("capbias.")):
            continue
        for name, obj in list(vars(module).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, name, hit[1])
                undo.append((module, name, obj))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the spans the tracer recorded."""
    s = 1e-9
    own = tracer.self_ns()
    layer_self = {layer: 0 for layer in LAYERS}
    for (index, _, _, _), ns in zip(tracer.spans, own):
        layer_self[tracer.names[index].split(".", 1)[0]] += ns
    calls = tracer.calls()
    counters = tracer.counters

    def incl(*names):
        return tracer.inclusive_ns(set(names)) * s

    train_s = incl("classifier.train")
    out = {
        "corpus.load_s": incl("corpus.load_corpus"),
        "corpus.captions": counters.get("corpus.captions", 0),
        "corpus.hash_s": incl("corpus.Corpus.content_hash"),
        "corpus.hash_calls": calls["corpus.Corpus.content_hash"],
        "masking.mask_s": incl("masking.Masker.mask"),
        "masking.mask_calls": calls["masking.Masker.mask"],
        "masking.mention_s": incl("masking.Masker.mention"),
        "masking.mention_calls": calls["masking.Masker.mention"],
        "vocab.build_s": incl("vocab.build_vocab"),
        "vocab.encode_s": incl("vocab.Vocabulary.encode"),
        "vocab.align_s": incl("vocab.align_to_prediction_vocab"),
        "vocab.size": (
            counters.get("vocab.size", 0) / calls["vocab.build_vocab"]
            if calls["vocab.build_vocab"] else 0
        ),
        "classifier.train_s": train_s,
        "classifier.train_steps": counters.get("classifier.train_steps", 0),
        "classifier.train_captions_per_s": (
            counters.get("classifier.train_captions", 0) / train_s if train_s else 0.0
        ),
        "classifier.predict_s": incl("classifier.predict", "classifier.predict_proba"),
        "lic.protocol_s": incl("lic.run_protocol"),
        "lic.seeds": counters.get("lic.seeds", 0),
        "cooccur.count_s": incl("cooccur.count_cooccurrence"),
        "cooccur.count_calls": calls["cooccur.count_cooccurrence"],
        "cooccur.probes": counters.get("cooccur.probes", 0),
        "cooccur.select_s": incl("cooccur.select_task_words"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] * s
    return out
