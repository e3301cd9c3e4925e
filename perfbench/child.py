"""The measured process: set up, then run `capbias report` until a deadline.

Started by run.py as ``python3 child.py '<json plan>'`` with one BLAS thread;
a plan with ``min_reports`` 0 and a past deadline only sets up.
A traced plan alternates untraced and traced reports.
Set-up is everything from the launch (the parent's clock reading, taken on
the same system-wide monotonic clock just before it started this process) to
the first report call: interpreter start, ``import capbias.cli`` and one
warm-up ``load_corpus`` of the workload's inputs. Each report is one
in-process ``cli.main`` call. The last line of standard output is a JSON
object with the timings and what the checks need.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> None:
    plan = json.loads(sys.argv[1])
    sys.path.insert(0, plan["src"])
    import capbias.cli as cli
    from capbias import corpus, lic, masking

    warm = plan["warmup"]
    corpus.load_corpus(
        warm["captions"], warm["annotations"], masking.default_gender_spec(),
        warm.get("objects"),
    )
    ready = time.monotonic()

    if plan["trace"]:
        import tracing
    # Values the checks need that the report does not carry: the data-side
    # accuracy, each side's LIC component, and every vocabulary built.
    captured = {"sc_accuracy": [], "lic_component": [], "build_vocab": []}

    def capture(key, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            captured[key].append(result)
            return result
        return wrapper

    def instrument(tracer):
        """Place the capture wrappers, over the tracer's spans if there is a
        tracer; returns a function that removes both."""
        uninstall = tracing.install(tracer) if tracer is not None else None
        originals = {}
        for attr in captured:
            originals[attr] = getattr(lic, attr)
            setattr(lic, attr, capture(attr, originals[attr]))

        def undo():
            for attr, fn in originals.items():
                setattr(lic, attr, fn)
            if uninstall is not None:
                uninstall()
        return undo

    # A traced plan alternates untraced and traced reports, so that the
    # tracing overhead is measured in one process over the same stretch of time.
    report_s, traced_s, exit_codes, layers, roots, calls, reports = [], [], [], [], [], [], []
    first = {key: [] for key in captured}
    while len(exit_codes) < plan["min_reports"] or time.monotonic() < plan["deadline"]:
        tracer = tracing.Tracer() if plan["trace"] and len(exit_codes) % 2 else None
        undo = instrument(tracer)
        for values in captured.values():
            values.clear()
        start = time.perf_counter()
        code = cli.main(plan["argv"])
        elapsed = time.perf_counter() - start
        undo()
        exit_codes.append(code)
        if tracer is None:
            report_s.append(elapsed)
        else:
            traced_s.append(elapsed)
            layers.append(tracing.layer_metrics(tracer))
            roots.append(tracer.root_ns() * 1e-9)
            calls.append(tracer.calls())
        if code == 0:
            with open(plan["out"], encoding="utf-8") as handle:
                report = json.load(handle)
            report.pop("timestamp", None)
            if report not in reports:
                reports.append(report)
        if len(exit_codes) == 1:
            first = {key: list(values) for key, values in captured.items()}

    vocab_tokens = set()
    for vocabulary in first["build_vocab"]:
        vocab_tokens.update(json.loads(vocabulary.to_json()))
    print(json.dumps({
        "setup_s": ready - plan["launch"],
        "report_s": report_s,
        "traced_report_s": traced_s,
        "exit_codes": exit_codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reports": reports,
        "sc_accuracy": first["sc_accuracy"],
        "lic_component": first["lic_component"],
        "vocab_tokens": sorted(vocab_tokens),
        "layers": layers,
        "trace_root_s": roots,
        "trace_calls": calls,
    }))


if __name__ == "__main__":
    main()
