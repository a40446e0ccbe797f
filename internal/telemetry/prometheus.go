// Prometheus text exposition (format version 0.0.4) for a telemetry
// Registry: each family's children read their cells with atomic loads
// and render HELP/TYPE once per family, samples per child, in
// registration order —
// the output is deterministic for deterministic inputs, which is what
// lets a golden test pin the format.

package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered family in Prometheus text
// format, in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	families := make([]*family, len(r.families))
	copy(families, r.families)
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range families {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, c := range f.children {
			switch f.kind {
			case counterKind:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, braced(c.labels), c.count())
			case gaugeKind:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, braced(c.labels), fmtFloat(c.fn()))
			case histogramKind:
				writeHistogram(bw, f.name, c.labels, c.h)
			}
		}
	}
	return bw.Flush()
}

// writeHistogram renders one histogram child: cumulative buckets with
// `le` labels, then _sum and _count.
func writeHistogram(w io.Writer, name, labels string, h *Histogram) {
	s := h.Snapshot()
	var cum uint64
	for i, b := range h.bounds {
		cum += s.Buckets[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, braced(joinLabels(labels, `le="`+fmtFloat(b)+`"`)), cum)
	}
	cum += s.Buckets[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, braced(joinLabels(labels, `le="+Inf"`)), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, braced(labels), fmtFloat(s.Sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, braced(labels), s.Count)
}

// braced wraps rendered label pairs in {}; empty labels render nothing.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

// fmtFloat renders a float the way Prometheus clients expect: shortest
// round-trip representation, `+Inf`/`-Inf`/`NaN` spelled out.
func fmtFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Handler serves the registry as a Prometheus scrape endpoint —
// register it as /metrics beside the pprof handlers.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
