"""Hand-rolled static SVG scatter/line chart for trade-off curves."""

from __future__ import annotations

from .io import open_atomic

WIDTH, HEIGHT = 640, 480
MARGIN_LEFT, MARGIN_RIGHT = 70, 20
MARGIN_TOP, MARGIN_BOTTOM = 40, 55
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _bounds(values, pad_frac=0.06):
    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    pad = (hi - lo) * pad_frac
    return lo - pad, hi + pad


def _ticks(lo: float, hi: float, n: int = 5):
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def render_tradeoff_svg(
    path,
    series: list[tuple[str, list[tuple[float, float]]]],
    frontier: list[tuple[float, float]] | None = None,
    title: str = "",
) -> None:
    """Write a fixed-size chart of (disparity, accuracy) points: one
    polyline with dot markers per series, frontier points highlighted with
    open rings."""
    # imported here, so only a process that draws a chart loads the XML package
    import xml.etree.ElementTree as ET

    all_pts = [p for _, pts in series for p in pts] + list(frontier or [])
    if not all_pts:
        raise ValueError("nothing to plot")
    x_lo, x_hi = _bounds([p[0] for p in all_pts])
    y_lo, y_hi = _bounds([p[1] for p in all_pts])

    def sx(x):
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)

    def sy(y):
        return HEIGHT - MARGIN_BOTTOM - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM)

    root = ET.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        width=str(WIDTH),
        height=str(HEIGHT),
        viewBox=f"0 0 {WIDTH} {HEIGHT}",
    )
    ET.SubElement(root, "rect", x="0", y="0", width=str(WIDTH), height=str(HEIGHT), fill="white")
    if title:
        t = ET.SubElement(
            root, "text", x=str(WIDTH // 2), y="24",
            fill="black", style="font:bold 15px sans-serif", attrib={"text-anchor": "middle"},
        )
        t.text = title

    axes = ET.SubElement(root, "g", stroke="black", attrib={"stroke-width": "1"})
    x0, y0 = sx(x_lo), sy(y_lo)
    x1, y1 = sx(x_hi), sy(y_hi)
    ET.SubElement(axes, "line", x1=_fmt(x0), y1=_fmt(y0), x2=_fmt(x1), y2=_fmt(y0))
    ET.SubElement(axes, "line", x1=_fmt(x0), y1=_fmt(y0), x2=_fmt(x0), y2=_fmt(y1))

    labels = ET.SubElement(root, "g", fill="black", style="font:11px sans-serif")
    for xt in _ticks(x_lo, x_hi):
        px = sx(xt)
        ET.SubElement(axes, "line", x1=_fmt(px), y1=_fmt(y0), x2=_fmt(px), y2=_fmt(y0 + 5))
        lbl = ET.SubElement(labels, "text", x=_fmt(px), y=_fmt(y0 + 18), attrib={"text-anchor": "middle"})
        lbl.text = _fmt(round(xt, 6))
    for yt in _ticks(y_lo, y_hi):
        py = sy(yt)
        ET.SubElement(axes, "line", x1=_fmt(x0 - 5), y1=_fmt(py), x2=_fmt(x0), y2=_fmt(py))
        lbl = ET.SubElement(labels, "text", x=_fmt(x0 - 8), y=_fmt(py + 4), attrib={"text-anchor": "end"})
        lbl.text = _fmt(round(yt, 6))

    xl = ET.SubElement(
        labels, "text", x=_fmt((x0 + x1) / 2), y=str(HEIGHT - 12),
        attrib={"text-anchor": "middle"}, style="font:13px sans-serif",
    )
    xl.text = "disparity"
    yl = ET.SubElement(
        labels, "text", x="18", y=_fmt((y0 + y1) / 2),
        attrib={"text-anchor": "middle"}, style="font:13px sans-serif",
        transform=f"rotate(-90 18 {_fmt((y0 + y1) / 2)})",
    )
    yl.text = "accuracy"

    for k, (name, pts) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        group = ET.SubElement(root, "g", fill=color, stroke=color)
        if len(pts) > 1:
            d = "M" + "L".join(f"{_fmt(sx(x))} {_fmt(sy(y))}" for x, y in pts)
            ET.SubElement(group, "path", d=d, fill="none", attrib={"stroke-width": "1.5"})
        for x, y in pts:
            ET.SubElement(group, "circle", cx=_fmt(sx(x)), cy=_fmt(sy(y)), r="3")
        legend_y = MARGIN_TOP + 16 * k
        ET.SubElement(group, "circle", cx=str(WIDTH - 150), cy=str(legend_y), r="4")
        txt = ET.SubElement(
            labels, "text", x=str(WIDTH - 140), y=str(legend_y + 4), style="font:12px sans-serif"
        )
        txt.text = name

    if frontier:
        ring = ET.SubElement(root, "g", fill="none", stroke="black", attrib={"stroke-width": "1.5"})
        for x, y in frontier:
            ET.SubElement(ring, "circle", cx=_fmt(sx(x)), cy=_fmt(sy(y)), r="6")

    with open_atomic(path, "wb") as fh:
        fh.write(ET.tostring(root))
