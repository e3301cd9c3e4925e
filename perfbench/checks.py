"""Correctness checks on the reports a run produced.

Nothing here compares against a stored copy of earlier output: the LIC checks
are identities and bounds that hold for any correct run, the synthetic
workloads are checked against their Bayes accuracies, and the co-occurrence
metrics against `recount.py` and the generator's tallies.
"""

from __future__ import annotations

import math
import statistics

from recount import VALUES, reachable, recount

# Absolute tolerance for co-occurrence metrics recounted in another order.
RECOUNT_TOL = 1e-12
# Binomial standard deviations allowed between a held-out accuracy and the
# Bayes accuracy it estimates.
BAYES_SIGMAS = 4.0


def _held_out(images: dict[str, int], test_fraction: float) -> int:
    """Held-out images (one caption each) under the balanced image split."""
    return len(VALUES) * max(1, round(test_fraction * min(images.values())))


def check_lic(report, child, workload, tallies, attribute_words) -> list[str]:
    errors = []
    metrics = report["metrics"]
    n_seeds = workload["n_seeds"]
    for name in ("lic", "lic_m", "lic_d", "sc", "leakage"):
        if len(metrics[name]["per_seed"]) != n_seeds:
            errors.append(f"{name}: {len(metrics[name]['per_seed'])} seeds, want {n_seeds}")
        if abs(metrics[name]["mean"] - statistics.fmean(metrics[name]["per_seed"])) > 1e-9:
            errors.append(f"{name}: mean is not the mean of per_seed")
    sc_d_all = child["sc_accuracy"][0::2]
    sc_m_all = child["sc_accuracy"][1::2]
    comp_d_all = child["lic_component"][0::2]
    comp_m_all = child["lic_component"][1::2]
    if len(sc_d_all) != n_seeds or len(comp_m_all) != n_seeds:
        errors.append("protocol did not score both sides on every seed")
        return errors
    synthetic = workload["kind"] == "synthetic"
    for i in range(n_seeds):
        lic_m, lic_d = metrics["lic_m"]["per_seed"][i], metrics["lic_d"]["per_seed"][i]
        sc, sc_d = metrics["sc"]["per_seed"][i], sc_d_all[i]
        if metrics["lic"]["per_seed"][i] != lic_m - lic_d:
            errors.append(f"seed {i}: lic != lic_m - lic_d")
        if metrics["leakage"]["per_seed"][i] != sc - sc_d:
            errors.append(f"seed {i}: leakage != sc - SC_D")
        if (lic_m, lic_d, sc) != (comp_m_all[i], comp_d_all[i], sc_m_all[i]):
            errors.append(f"seed {i}: report differs from the scored components")
        for side, comp, acc in (("m", lic_m, sc), ("d", lic_d, sc_d)):
            if not 50 * acc - 1e-9 <= comp <= 100 * acc + 1e-9:
                errors.append(f"seed {i}: LIC_{side} {comp} outside [50, 100] x SC {acc}")
        if synthetic:
            n_test = _held_out(tallies["images"], metrics["sc"]["test_fraction"])
            for side, acc in (("generated", sc), ("human", sc_d)):
                theta = workload["params"][f"theta_{side}"]
                tol = BAYES_SIGMAS * math.sqrt(theta * (1 - theta) / n_test)
                if abs(acc - theta) > tol:
                    errors.append(
                        f"seed {i}: {side} accuracy {acc:.4f} not within "
                        f"{tol:.4f} of Bayes accuracy {theta}"
                    )
            if metrics["lic"]["per_seed"][i] <= 0:
                errors.append(f"seed {i}: LIC {metrics['lic']['per_seed'][i]} <= 0")
    leaked = sorted(set(child["vocab_tokens"]) & (attribute_words["female"] | attribute_words["male"]))
    if leaked:
        errors.append(f"attribute words in a protocol vocabulary: {leaked[:10]}")
    return errors


def check_cooccur(report, pair, tallies, attribute_words, min_per_value=100) -> list[str]:
    errors = []
    metrics = report["metrics"]
    expected = recount(pair, attribute_words, min_per_value=min_per_value)
    if metrics["ba"]["n_task_words"] != expected["n_task_words"]:
        errors.append(
            f"ba: {metrics['ba']['n_task_words']} task words, recount "
            f"{expected['n_task_words']}"
        )
    for name in ("ba", "dba_g", "dba_o", "ratio", "error"):
        value = metrics[name]["value"]
        flips = expected.get(f"{name}_flips", [])
        if not reachable(expected[name], flips, value, RECOUNT_TOL):
            ties = f" or a flip of its {len(flips)} tied cells" if flips else ""
            errors.append(f"{name}: report {value!r}, recount {expected[name]!r}{ties}")
    generated = tallies["sides"]["generated"]
    mentions, kinds = generated["mentions"], generated["mention_kinds"]
    if metrics["ratio"]["value"] != mentions["male_only"] / mentions["female_only"]:
        errors.append("ratio differs from the generator's tallies")
    tally_error = 100 * (kinds["other"] / (kinds["own"] + kinds["other"]))
    if abs(metrics["error"]["value"] - tally_error) > RECOUNT_TOL:
        errors.append("error differs from the generator's tallies")
    return errors
