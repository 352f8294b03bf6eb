from prefeval import plotsvg

# Every byte of a two-series chart; formatting work may move, the output may not.
EXPECTED = """\
<svg xmlns="http://www.w3.org/2000/svg" width="640" height="400">
<rect width="640" height="400" fill="white"/>
<text x="60" y="18" font-family="sans-serif" font-size="13">ndcg@log2</text>
<line x1="60" y1="30" x2="60" y2="355" stroke="#333" stroke-width="1"/>
<line x1="60" y1="355" x2="490" y2="355" stroke="#333" stroke-width="1"/>
<text x="60.0" y="371" font-family="sans-serif" font-size="10" text-anchor="middle">0.00</text>
<text x="146.0" y="371" font-family="sans-serif" font-size="10" text-anchor="middle">0.04</text>
<text x="232.0" y="371" font-family="sans-serif" font-size="10" text-anchor="middle">0.08</text>
<text x="318.0" y="371" font-family="sans-serif" font-size="10" text-anchor="middle">0.12</text>
<text x="404.0" y="371" font-family="sans-serif" font-size="10" text-anchor="middle">0.16</text>
<text x="490.0" y="371" font-family="sans-serif" font-size="10" text-anchor="middle">0.20</text>
<text x="54" y="355.0" font-family="sans-serif" font-size="10" text-anchor="end" dominant-baseline="middle">0.490</text>
<text x="54" y="290.0" font-family="sans-serif" font-size="10" text-anchor="end" dominant-baseline="middle">0.544</text>
<text x="54" y="225.0" font-family="sans-serif" font-size="10" text-anchor="end" dominant-baseline="middle">0.598</text>
<text x="54" y="160.0" font-family="sans-serif" font-size="10" text-anchor="end" dominant-baseline="middle">0.652</text>
<text x="54" y="95.0" font-family="sans-serif" font-size="10" text-anchor="end" dominant-baseline="middle">0.706</text>
<text x="54" y="30.0" font-family="sans-serif" font-size="10" text-anchor="end" dominant-baseline="middle">0.760</text>
<text x="275.0" y="392" font-family="sans-serif" font-size="11" text-anchor="middle">threshold</text>
<text x="14" y="192.5" font-family="sans-serif" font-size="11" text-anchor="middle" transform="rotate(-90 14 192.5)">PIR</text>
<polyline points="60.0,343.0 275.0,192.5 490.0,42.0" fill="none" stroke="#1f77b4" stroke-width="1.5"/>
<line x1="500" y1="40" x2="518" y2="40" stroke="#1f77b4" stroke-width="1.5"/>
<text x="522" y="44" font-family="sans-serif" font-size="10">c1</text>
<polyline points="60.0,222.6 275.0,282.8 490.0,102.2" fill="none" stroke="#d62728" stroke-width="1.5"/>
<line x1="500" y1="56" x2="518" y2="56" stroke="#d62728" stroke-width="1.5"/>
<text x="522" y="60" font-family="sans-serif" font-size="10">c2</text>
</svg>"""


def test_two_series_chart_bytes_are_pinned(tmp_path):
    path = tmp_path / "chart.svg"
    plotsvg.write_line_chart(path, "ndcg@log2", "threshold", "PIR", {
        "c1": [(0.0, 0.5), (0.1, 0.625), (0.2, 0.75)],
        "c2": [(0.0, 0.6), (0.1, 0.55), (0.2, 0.7)],
    })
    assert path.read_bytes() == EXPECTED.encode("utf-8")
