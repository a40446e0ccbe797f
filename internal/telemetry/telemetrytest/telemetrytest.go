// Package telemetrytest holds the telemetry tests' one helper: reading
// numbers back out of the Prometheus text exposition, the registry's
// only export, so a test asserts on what a scrape would see.
package telemetrytest

import (
	"strconv"
	"strings"
	"testing"

	"simmr/internal/telemetry"
)

// Samples maps every sample line's series, exactly as the exposition
// writes it — `simmr_replays_total`,
// `simmr_engine_events_by_kind_total{kind="job_arrival"}` — to its value.
type Samples map[string]float64

// Scrape renders r and parses every sample line.
func Scrape(t testing.TB, r *telemetry.Registry) Samples {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	s := Samples{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		// A value holds no space, so the last one ends the series.
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			t.Fatalf("scrape: unparseable sample %q", line)
		}
		s[line[:i]] = v
	}
	return s
}

// Sum adds up every series of one family, labelled or not.
func (s Samples) Sum(family string) float64 {
	var sum float64
	for series, v := range s {
		if series == family || strings.HasPrefix(series, family+"{") {
			sum += v
		}
	}
	return sum
}
