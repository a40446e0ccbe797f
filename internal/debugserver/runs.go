package debugserver

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"simmr/internal/buildinfo"
	"simmr/internal/parallel"
	"simmr/internal/runs"
	"simmr/internal/telemetry"
)

// The ops-plane surface mounted next to /metrics:
//
//	/healthz                liveness: 200 "ok" while the process serves
//	/buildinfo              version + Go runtime JSON
//	/runs                   all known runs (live first, then recent)
//	/runs/{id}              one run snapshot ({id} may be a unique
//	                        prefix or "latest")
//	/runs/{id}/stream       Server-Sent Events: one `progress` frame
//	                        now, one per MinProgressInterval while
//	                        live, a final frame + `end` event once
//	                        the run has ended
//	/runs/{id}/flight       GET: collected flight-recorder dumps
//	                        (?format=chrome renders one as a Chrome
//	                        trace, ?i=N picks which); POST: trigger a
//	                        live capture on every attached recorder
//
// Everything serves snapshots read from the run's atomics when asked,
// so scrapers and dashboards never contend with the simulation's hot
// path.

// registerRunMetrics exposes the run registry on /metrics:
// simmr_runs_active (live runs right now) and simmr_runs_started_total
// by kind — both evaluated at scrape time against the registry's own
// bookkeeping, so they can never drift from /runs.
func registerRunMetrics(r *telemetry.Registry) {
	reg := runs.Default()
	r.NewFuncGauge("simmr_runs_active",
		"Runs currently live in the process run registry.",
		func() float64 { return float64(reg.Active()) })
	kinds := make([]string, len(runs.Kinds))
	for i, k := range runs.Kinds {
		kinds[i] = string(k)
	}
	r.NewFuncCounterVec("simmr_runs_started_total",
		"Runs ever registered, by kind.",
		"kind", kinds,
		func(i int) uint64 { return reg.Started(runs.Kinds[i]) })
}

// registerOps mounts the ops-plane handlers on the default mux against
// the process-wide run registry.
func registerOps(mux *http.ServeMux) {
	reg := runs.Default()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /buildinfo", handleBuildInfo)
	mux.HandleFunc("GET /runs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, struct {
			Active int             `json:"active"`
			Runs   []runs.Snapshot `json:"runs"`
		}{reg.Active(), reg.List()})
	})
	mux.HandleFunc("GET /runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		h := reg.Get(r.PathValue("id"))
		if h == nil {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, h.Snapshot())
	})
	mux.HandleFunc("GET /runs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		h := reg.Get(r.PathValue("id"))
		if h == nil {
			http.NotFound(w, r)
			return
		}
		serveStream(w, r, h)
	})
	mux.HandleFunc("GET /runs/{id}/flight", func(w http.ResponseWriter, r *http.Request) {
		h := reg.Get(r.PathValue("id"))
		if h == nil {
			http.NotFound(w, r)
			return
		}
		serveFlight(w, r, h)
	})
	mux.HandleFunc("POST /runs/{id}/flight", func(w http.ResponseWriter, r *http.Request) {
		h := reg.Get(r.PathValue("id"))
		if h == nil {
			http.NotFound(w, r)
			return
		}
		n := h.TriggerFlight()
		writeJSON(w, struct {
			Triggered int `json:"triggered"`
		}{n})
	})
}

func handleBuildInfo(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, struct {
		Version    string `json:"version"`
		Go         string `json:"go"`
		OS         string `json:"os"`
		Arch       string `json:"arch"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		NumCPU     int    `json:"num_cpu"`
	}{
		Version:    buildinfo.Version,
		Go:         runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	})
}

// serveStream tails one run as Server-Sent Events by reading its state:
// the current snapshot at once, then one `progress` frame per
// parallel.MinProgressInterval while the run is live. A phase shorter
// than the interval may get no frame of its own; the run's final
// snapshot always does, followed by an `end` event, so `curl -N` and
// the `simmr ops watch` tailer both terminate cleanly.
func serveStream(w http.ResponseWriter, r *http.Request, h *runs.Handle) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	poll := time.NewTicker(parallel.MinProgressInterval)
	defer poll.Stop()
	for {
		snap := h.Snapshot()
		data, err := json.Marshal(snap)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: progress\ndata: %s\n\n", data)
		if snap.Outcome != runs.OutcomeRunning {
			fmt.Fprint(w, "event: end\ndata: {}\n\n")
			fl.Flush()
			return
		}
		fl.Flush()
		select {
		case <-r.Context().Done():
			return
		case <-poll.C:
		}
	}
}

// serveFlight renders a run's post-mortem dumps: by default a JSON
// array of attr-compatible records; ?format=chrome renders one dump
// (the newest, or ?i=N) as a Chrome trace file.
func serveFlight(w http.ResponseWriter, r *http.Request, h *runs.Handle) {
	dumps := h.FlightDumps()
	if len(dumps) == 0 {
		http.Error(w, "no flight dumps for run (trigger one with POST)", http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		i := len(dumps) - 1
		if q := r.URL.Query().Get("i"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil || n < 0 || n >= len(dumps) {
				http.Error(w, "dump index out of range", http.StatusBadRequest)
				return
			}
			i = n
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition",
			fmt.Sprintf("attachment; filename=%s-flight-%d.trace.json", h.ID(), i))
		if err := dumps[i].WriteChromeTrace(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprint(w, "[")
	for i, d := range dumps {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		if err := d.WriteJSON(w); err != nil {
			return
		}
	}
	fmt.Fprint(w, "]\n")
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
