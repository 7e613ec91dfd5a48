package obs

// The live exploration dashboard: a dependency-free single-file HTML
// page (GET /dash) polling a JSON time-series endpoint (GET /dash/data)
// fed by a Sampler, rendering one inline-SVG sparkline per series —
// best score so far, frontier size, cache hit rate, queue depth, stage
// latency percentiles. No build step, no external assets: the page is a
// Go string constant and the charts are paths computed in ~80 lines of
// inline JavaScript, so it works from a daemon on an air-gapped box.

import (
	"sort"
	"strings"
)

// DashPoint is one (time, value) pair: [unix milliseconds, value].
type DashPoint [2]float64

// DashSeries is one metric's sampled history.
type DashSeries struct {
	Name   string      `json:"name"`
	Points []DashPoint `json:"points"`
}

// DashDoc is the /dash/data payload.
type DashDoc struct {
	UpdatedUnixMs int64        `json:"updated_unix_ms"`
	IntervalMs    int64        `json:"interval_ms"`
	Series        []DashSeries `json:"series"`
}

// dashPreferred pins the panels an exploration run is watched by to the
// front of the grid; everything else follows alphabetically.
var dashPreferred = []string{
	"explore.best.score",
	"explore.frontier.size",
	"cache.hit.rate",
	"served.queue.depth",
	"served.jobs.running",
}

// dashValues flattens one sample into chartable series values:
// counters as-is (cumulative), gauges as-is (a ".milli" suffix is
// divided out, so fixed-point score gauges chart as real numbers), and
// each ".ns" latency histogram as p50/p95 milliseconds. A derived
// cache.hit.rate aggregates the per-stage memory-tier cache counters.
func dashValues(smp Sample) map[string]float64 {
	out := make(map[string]float64, len(smp.Counters)+len(smp.Gauges)+2*len(smp.Hists)+1)
	var hits, misses float64
	for name, v := range smp.Counters {
		out[name] = float64(v)
		if strings.HasPrefix(name, "cache.") && !strings.HasPrefix(name, "cache.store.") {
			switch {
			case strings.HasSuffix(name, ".hits"):
				hits += float64(v)
			case strings.HasSuffix(name, ".misses"):
				misses += float64(v)
			}
		}
	}
	if hits+misses > 0 {
		out["cache.hit.rate"] = hits / (hits + misses)
	}
	for name, v := range smp.Gauges {
		if base := strings.TrimSuffix(name, ".milli"); base != name {
			out[base] = float64(v) / 1000
		} else {
			out[name] = float64(v)
		}
	}
	for name, h := range smp.Hists {
		if h.Count == 0 {
			continue
		}
		base := strings.TrimSuffix(name, ".ns")
		out[base+".p50.ms"] = h.P50Ns / 1e6
		out[base+".p95.ms"] = h.P95Ns / 1e6
	}
	return out
}

// DashData assembles the sampled window into per-series point lists.
// Nil sampler yields an empty document.
func (s *Sampler) DashData() DashDoc {
	doc := DashDoc{IntervalMs: s.Interval().Milliseconds()}
	samples := s.Samples()
	bySeries := map[string][]DashPoint{}
	for _, smp := range samples {
		doc.UpdatedUnixMs = smp.UnixMs
		for name, v := range dashValues(smp) {
			bySeries[name] = append(bySeries[name], DashPoint{float64(smp.UnixMs), v})
		}
	}
	names := make([]string, 0, len(bySeries))
	for name := range bySeries {
		names = append(names, name)
	}
	sort.Strings(names)
	rank := func(name string) int {
		for i, p := range dashPreferred {
			if p == name {
				return i
			}
		}
		return len(dashPreferred)
	}
	sort.SliceStable(names, func(i, j int) bool { return rank(names[i]) < rank(names[j]) })
	for _, name := range names {
		doc.Series = append(doc.Series, DashSeries{Name: name, Points: bySeries[name]})
	}
	return doc
}

// dashHTML is the whole dashboard. Single series per panel, so no
// legends; text wears ink tokens, never the series color; light and
// dark palettes swap via CSS custom properties under
// prefers-color-scheme.
const dashHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>exploration dashboard</title>
<style>
  .viz-root {
    color-scheme: light;
    --page:           #f9f9f7;
    --surface-1:      #fcfcfb;
    --text-primary:   #0b0b0b;
    --text-secondary: #52514e;
    --muted:          #898781;
    --grid:           #e1e0d9;
    --border:         rgba(11,11,11,0.10);
    --series-1:       #2a78d6;
  }
  @media (prefers-color-scheme: dark) {
    :root:where(:not([data-theme="light"])) .viz-root {
      color-scheme: dark;
      --page:           #0d0d0d;
      --surface-1:      #1a1a19;
      --text-primary:   #ffffff;
      --text-secondary: #c3c2b7;
      --muted:          #898781;
      --grid:           #2c2c2a;
      --border:         rgba(255,255,255,0.10);
      --series-1:       #3987e5;
    }
  }
  :root[data-theme="dark"] .viz-root {
    color-scheme: dark;
    --page:           #0d0d0d;
    --surface-1:      #1a1a19;
    --text-primary:   #ffffff;
    --text-secondary: #c3c2b7;
    --muted:          #898781;
    --grid:           #2c2c2a;
    --border:         rgba(255,255,255,0.10);
    --series-1:       #3987e5;
  }
  html, body { margin: 0; }
  body.viz-root {
    background: var(--page);
    color: var(--text-primary);
    font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
    padding: 20px;
  }
  header { display: flex; align-items: baseline; gap: 12px; margin-bottom: 16px; }
  header h1 { font-size: 16px; font-weight: 600; margin: 0; }
  header .sub { color: var(--text-secondary); font-size: 12px; }
  #grid {
    display: grid;
    grid-template-columns: repeat(auto-fill, minmax(300px, 1fr));
    gap: 12px;
  }
  .panel {
    background: var(--surface-1);
    border: 1px solid var(--border);
    border-radius: 8px;
    padding: 10px 12px 8px;
  }
  .panel .name { color: var(--text-secondary); font-size: 12px; overflow-wrap: anywhere; }
  .panel .val {
    font-size: 22px; font-weight: 600; margin: 2px 0 4px;
    font-variant-numeric: tabular-nums;
  }
  .panel .hover { color: var(--text-secondary); font-size: 11px; min-height: 14px;
    font-variant-numeric: tabular-nums; }
  .panel svg { display: block; width: 100%; height: 56px; }
  .empty { color: var(--muted); padding: 24px 0; }
</style>
</head>
<body class="viz-root">
<header>
  <h1>exploration dashboard</h1>
  <span class="sub" id="status">connecting&hellip;</span>
</header>
<div id="grid"><div class="empty">waiting for first sample&hellip;</div></div>
<script>
"use strict";
const W = 300, H = 56, PAD = 3;
const fmt = v => {
  if (!isFinite(v)) return "-";
  const a = Math.abs(v);
  if (a >= 1e6) return (v / 1e6).toFixed(1) + "M";
  if (a >= 1e4) return (v / 1e3).toFixed(1) + "k";
  if (a >= 100 || v === Math.round(v)) return String(Math.round(v));
  return v.toFixed(a >= 1 ? 2 : 3);
};
const tfmt = ms => new Date(ms).toLocaleTimeString();

function panel(s) {
  const pts = s.points;
  let lo = Infinity, hi = -Infinity;
  for (const [, v] of pts) { if (v < lo) lo = v; if (v > hi) hi = v; }
  if (!isFinite(lo)) { lo = 0; hi = 1; }
  if (hi === lo) { hi = lo + 1; }
  const t0 = pts[0][0], t1 = pts[pts.length - 1][0];
  const x = t => t1 === t0 ? W / 2 : PAD + (t - t0) / (t1 - t0) * (W - 2 * PAD);
  const y = v => H - PAD - (v - lo) / (hi - lo) * (H - 2 * PAD);
  let d = "";
  for (let i = 0; i < pts.length; i++)
    d += (i ? "L" : "M") + x(pts[i][0]).toFixed(1) + " " + y(pts[i][1]).toFixed(1);
  const last = pts[pts.length - 1][1];
  const div = document.createElement("div");
  div.className = "panel";
  div.innerHTML =
    '<div class="name"></div><div class="val"></div>' +
    '<svg viewBox="0 0 ' + W + ' ' + H + '" preserveAspectRatio="none" role="img">' +
    '<line x1="0" y1="' + (H - PAD) + '" x2="' + W + '" y2="' + (H - PAD) +
      '" stroke="var(--grid)" stroke-width="1"></line>' +
    '<path d="' + d + '" fill="none" stroke="var(--series-1)" stroke-width="2" ' +
      'stroke-linejoin="round" stroke-linecap="round"></path>' +
    '<circle r="3" fill="var(--series-1)" cx="' + x(t1).toFixed(1) +
      '" cy="' + y(last).toFixed(1) + '"></circle>' +
    '<circle class="hoverdot" r="4" fill="none" stroke="var(--series-1)" ' +
      'stroke-width="2" style="display:none"></circle>' +
    '</svg><div class="hover"></div>';
  div.querySelector(".name").textContent = s.name;
  div.querySelector(".val").textContent = fmt(last);
  const svg = div.querySelector("svg"), hov = div.querySelector(".hover"),
        dot = div.querySelector(".hoverdot");
  svg.addEventListener("mousemove", ev => {
    const r = svg.getBoundingClientRect();
    const mx = (ev.clientX - r.left) / r.width * W;
    let best = 0, bd = Infinity;
    for (let i = 0; i < pts.length; i++) {
      const dd = Math.abs(x(pts[i][0]) - mx);
      if (dd < bd) { bd = dd; best = i; }
    }
    const [t, v] = pts[best];
    dot.style.display = "";
    dot.setAttribute("cx", x(t).toFixed(1));
    dot.setAttribute("cy", y(v).toFixed(1));
    hov.textContent = tfmt(t) + " · " + fmt(v);
  });
  svg.addEventListener("mouseleave", () => {
    dot.style.display = "none";
    hov.textContent = "";
  });
  return div;
}

async function refresh() {
  try {
    const res = await fetch("/dash/data", { cache: "no-store" });
    if (!res.ok) throw new Error("HTTP " + res.status);
    const doc = await res.json();
    const grid = document.getElementById("grid");
    grid.replaceChildren();
    const series = (doc.series || []).filter(s => s.points && s.points.length);
    if (!series.length) {
      const e = document.createElement("div");
      e.className = "empty";
      e.textContent = "no samples yet — is the sampler running?";
      grid.appendChild(e);
    }
    for (const s of series) grid.appendChild(panel(s));
    document.getElementById("status").textContent = doc.updated_unix_ms
      ? "updated " + tfmt(doc.updated_unix_ms) + " · " + series.length + " series"
      : "no data yet";
  } catch (err) {
    document.getElementById("status").textContent = "fetch failed: " + err.message;
  }
}
refresh();
setInterval(refresh, 2000);
</script>
</body>
</html>
`
