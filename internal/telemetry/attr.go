// Attribution aggregation and build-info stamping: the bridge from
// internal/attr's per-job explanations into the registry, and the
// `simmr_build_info` gauge every binary exports.

package telemetry

import (
	"runtime"
	"strconv"

	"simmr/internal/attr"
)

// ObserveExplanations folds finished per-job attributions into the
// wait-breakdown histograms (simmr_job_wait_seconds{phase=...}) and the
// deadline-miss root-cause counters. Call it once per finished run (or
// once with a Collector's merged explanations); it is a cold path and
// safe for concurrent use.
func (t *SimMetrics) ObserveExplanations(exps []attr.Explanation) {
	if t == nil || len(exps) == 0 {
		return
	}
	for i := range exps {
		e := &exps[i]
		for wi, p := range attr.WaitPhases {
			t.jobWait[wi].Observe(e.Phases[p])
		}
		if e.Missed {
			t.missCause[e.RootCause].Inc()
		}
	}
}

// StampBuildInfo registers the simmr_build_info gauge: constant 1 with
// the binary's version (an -ldflags-settable string), Go toolchain
// version, and GOMAXPROCS as labels. Registered lazily — not in
// NewSimMetrics — because the go_version label depends on the building
// toolchain, which would break byte-pinned exposition tests; every
// debug server calls it once at startup. Safe to call multiple times;
// only the first registers.
func (t *SimMetrics) StampBuildInfo(version string) {
	if t == nil {
		return
	}
	t.buildOnce.Do(func() {
		if version == "" {
			version = "dev"
		}
		g := t.reg.NewMaxGaugeLabeled("simmr_build_info",
			"Build metadata: constant 1, labels carry the binary version, Go toolchain, and GOMAXPROCS.",
			[][2]string{
				{"version", version},
				{"go_version", runtime.Version()},
				{"gomaxprocs", strconv.Itoa(runtime.GOMAXPROCS(0))},
			})
		g.Observe(1)
	})
}
