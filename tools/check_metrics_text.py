#!/usr/bin/env python3
"""Prometheus text-exposition (0.0.4) validator for the /metrics endpoint.

Usage:
    tools/check_metrics_text.py metrics.txt [more.txt ...]
    curl -s localhost:9464/metrics | tools/check_metrics_text.py -

Checks the subset of the exposition grammar /metrics emits:
  * metric names match [a-zA-Z_:][a-zA-Z0-9_:]* (labels: [a-zA-Z_][a-zA-Z0-9_]*);
  * every sample line parses as `name[{labels}] value` with a finite value;
  * every sample is preceded by a # HELP and a # TYPE comment for its metric
    family, TYPE is one of counter/gauge/histogram, and a family is declared
    at most once;
  * histogram families carry `le`-labelled _bucket samples with
    non-decreasing cumulative counts, a final le="+Inf" bucket equal to
    _count, and both _sum and _count samples. Bucket series are grouped
    by their full label set minus `le`, so one family may carry many
    labeled series (tempspec_query_latency{relation,kind,protocol}) and
    each is validated independently.

Exits nonzero with a per-file report on the first violation so CI can gate
on a live scrape. Stdlib only — no third-party dependencies.
"""
import math
import re
import sys

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)(?: (?P<timestamp>-?\d+))?$")
LABEL_RE = re.compile(r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<val>[^"]*)"$')
TYPES = ("counter", "gauge", "histogram")
HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def fail(path, lineno, msg):
    print(f"{path}:{lineno}: FAIL: {msg}")
    return False


def family_of(name, types):
    """The declared family a sample belongs to: histogram samples append
    _bucket/_sum/_count to the family name."""
    if name in types:
        return name
    for suffix in HISTOGRAM_SUFFIXES:
        base = name[:-len(suffix)] if name.endswith(suffix) else None
        if base and types.get(base) == "histogram":
            return base
    return None


def parse_value(text):
    if text in ("+Inf", "-Inf", "NaN"):
        return math.inf if text == "+Inf" else (-math.inf if text == "-Inf"
                                                else math.nan)
    try:
        return float(text)
    except ValueError:
        return None


def series_name(family, key):
    if not key:
        return family
    return family + "{" + ",".join(f'{k}="{v}"' for k, v in key) + "}"


def check_text(path, text):
    helped, types = set(), {}
    # (family, labels-minus-le) -> list of (lineno, le, cumulative_count);
    # (family, labels) -> (lineno, _count value); family -> suffixes seen.
    buckets, counts, seen_suffixes = {}, {}, {}
    samples = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 3 or not NAME_RE.match(parts[2]):
                return fail(path, lineno, f"malformed HELP line: {line!r}")
            if parts[2] in helped:
                return fail(path, lineno, f"duplicate HELP for {parts[2]}")
            helped.add(parts[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or not NAME_RE.match(parts[2]):
                return fail(path, lineno, f"malformed TYPE line: {line!r}")
            name, kind = parts[2], parts[3]
            if kind not in TYPES:
                return fail(path, lineno, f"unknown TYPE {kind!r} for {name}")
            if name in types:
                return fail(path, lineno, f"duplicate TYPE for {name}")
            if name not in helped:
                return fail(path, lineno, f"TYPE for {name} precedes its HELP")
            types[name] = kind
            continue
        if line.startswith("#"):
            continue  # other comments are legal and skipped

        m = SAMPLE_RE.match(line)
        if not m:
            return fail(path, lineno, f"unparseable sample line: {line!r}")
        name = m.group("name")
        value = parse_value(m.group("value"))
        if value is None:
            return fail(path, lineno,
                        f"non-numeric value {m.group('value')!r} for {name}")
        labels = {}
        if m.group("labels") is not None:
            for part in filter(None, m.group("labels").split(",")):
                lm = LABEL_RE.match(part.strip())
                if not lm:
                    return fail(path, lineno, f"malformed label {part!r}")
                labels[lm.group("key")] = lm.group("val")

        family = family_of(name, types)
        if family is None:
            return fail(path, lineno,
                        f"sample {name} has no preceding # TYPE declaration")
        samples += 1
        if types[family] == "histogram":
            seen_suffixes.setdefault(family, set())
            key = tuple(sorted(
                (k, v) for k, v in labels.items() if k != "le"))
            if name.endswith("_bucket"):
                if "le" not in labels:
                    return fail(path, lineno, f"{name} sample lacks an le label")
                le = parse_value(labels["le"])
                if le is None:
                    return fail(path, lineno,
                                f"non-numeric le {labels['le']!r} on {name}")
                buckets.setdefault((family, key), []).append((lineno, le, value))
                seen_suffixes[family].add("_bucket")
            elif name.endswith("_sum"):
                seen_suffixes[family].add("_sum")
            elif name.endswith("_count"):
                seen_suffixes[family].add("_count")
                if (family, key) in counts:
                    return fail(path, lineno,
                                f"duplicate _count for "
                                f"{series_name(family, key)}")
                counts[(family, key)] = (lineno, value)
        elif types[family] in ("counter",) and value < 0:
            return fail(path, lineno, f"negative counter {name}")

    if samples == 0:
        return fail(path, 0, "no samples at all")

    for family, suffixes in seen_suffixes.items():
        missing = {"_bucket", "_sum", "_count"} - suffixes
        if missing:
            return fail(path, 0,
                        f"histogram {family} lacks {sorted(missing)} samples")
    for (family, key), series in buckets.items():
        label = series_name(family, key)
        les = [le for _, le, _ in series]
        if sorted(les) != les or len(set(les)) != len(les):
            return fail(path, series[0][0],
                        f"histogram {label} le bounds not strictly increasing")
        values = [v for _, _, v in series]
        if any(b < a for a, b in zip(values, values[1:])):
            return fail(path, series[0][0],
                        f"histogram {label} cumulative counts decrease")
        if not les or les[-1] != math.inf:
            return fail(path, series[0][0],
                        f"histogram {label} lacks a le=\"+Inf\" bucket")
        count = counts.get((family, key))
        if count is None:
            return fail(path, series[0][0],
                        f"histogram {label} has buckets but no _count sample")
        if values[-1] != count[1]:
            return fail(path, series[0][0],
                        f"histogram {label}: +Inf bucket {values[-1]} != "
                        f"_count {count[1]}")
    for (family, key), (lineno, _) in counts.items():
        if (family, key) not in buckets:
            return fail(path, lineno,
                        f"histogram {series_name(family, key)} has a _count "
                        f"but no _bucket samples")

    print(f"{path}: OK ({len(types)} metric famil"
          f"{'y' if len(types) == 1 else 'ies'}, {samples} sample(s))")
    return True


def check_file(path):
    if path == "-":
        return check_text("<stdin>", sys.stdin.read())
    try:
        with open(path, "r", encoding="utf-8") as f:
            return check_text(path, f.read())
    except OSError as e:
        return fail(path, 0, f"unreadable: {e}")


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    ok = all([check_file(p) for p in argv[1:]])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
