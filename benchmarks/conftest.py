"""Shared helpers for the experiment benches.

Each ``bench_eN_*.py`` regenerates one experiment of DESIGN.md's index:
it *measures* with pytest-benchmark, *prints* the table/series the
experiment defines (visible with ``-s``), and *asserts* the expected
shape so regressions fail loudly.
"""


def print_table(title: str, header: list[str], rows: list[list]) -> None:
    """Uniform fixed-width table printer for bench output."""
    widths = [max(len(str(h)), *(len(_fmt(r[i])) for r in rows)) + 2
              for i, h in enumerate(header)]
    print(f"\n== {title} ==")
    print("".join(str(h).rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("".join(_fmt(v).rjust(w) for v, w in zip(row, widths)))


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e4 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)
