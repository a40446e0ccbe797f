// Chrome trace-event export: the recorded timeline serialized in the
// Trace Event Format understood by chrome://tracing, Perfetto, and
// speedscope. Slots become tracks (one "thread" per slot, map and
// reduce slots grouped into two "processes"), task executions become
// complete ("X") spans, and job arrivals/departures and map-stage
// completions become instant events on a workload track.

package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Trace Event Format process IDs: one pseudo-process per slot class
// plus one for job-level instants.
const (
	ctPidJobs    = 1
	ctPidMaps    = 2
	ctPidReduces = 3
	ctPidOverlay = 4
)

// ctEvent is one JSON trace event. Field order is fixed by the struct,
// so exports are byte-stable for golden-file tests.
type ctEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TsUS  float64        `json:"ts"`
	DurUS *float64       `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// ctFile is the JSON Object Format variant of the trace file, which
// carries metadata alongside the event array.
type ctFile struct {
	TraceEvents     []ctEvent `json:"traceEvents"`
	DisplayTimeUnit string    `json:"displayTimeUnit"`
	OtherData       Counters  `json:"otherData"`
}

// ChromeTraceSink records a replay and exports it in Chrome trace-event
// JSON. One sink per engine; call WriteJSON after the run.
//
// Simulated seconds are exported as trace microseconds (the format's
// native unit), so viewer timestamps read as simulated seconds with
// the unit label off by a factor of one million — irrelevant for the
// intended use of inspecting relative task placement.
type ChromeTraceSink struct {
	tl       *TimelineSink
	instants []ctEvent
	counters Counters

	overlayTitle string
	overlay      []OverlaySpan
}

// OverlaySpan is one span on the analysis overlay track — a fourth
// pseudo-process rendered above the slot tracks. The critical-path
// overlay of `simmr trace explain` is built from these; any
// post-processing layer can use them without obs depending on it.
type OverlaySpan struct {
	// Name labels the span in the viewer.
	Name string
	// Cat is the span's category (filterable in the viewer).
	Cat        string
	Start, End float64
	// Detail, when set, appears in the span's args.
	Detail string
}

// SetOverlay attaches an overlay track written by the next WriteJSON.
// Traces without an overlay are byte-identical to pre-overlay exports.
func (c *ChromeTraceSink) SetOverlay(title string, spans []OverlaySpan) {
	c.overlayTitle, c.overlay = title, spans
}

// NewChromeTraceSink returns an empty Chrome trace recorder.
func NewChromeTraceSink() *ChromeTraceSink {
	return &ChromeTraceSink{tl: NewTimelineSink()}
}

// Event consumes one engine event.
func (c *ChromeTraceSink) Event(ev Event) {
	c.tl.Event(ev)
	switch ev.Kind {
	case KindJobArrival, KindJobDeparture, KindMapStageComplete, KindPreempt:
		c.instants = append(c.instants, ctEvent{
			Name: fmt.Sprintf("%s job %d", ev.Kind, ev.JobID),
			Cat:  ev.Kind.String(), Phase: "i",
			TsUS: ev.Time, Pid: ctPidJobs, Tid: ev.JobID,
			Scope: "t",
		})
	}
}

// RunEnd stores the run counters, exported as otherData.
func (c *ChromeTraceSink) RunEnd(cnt Counters) {
	c.counters = cnt
	c.tl.RunEnd(cnt)
}

// WriteJSON writes the trace file. The output is deterministic for a
// deterministic replay: events appear in (span-start, class, slot)
// order followed by the instant stream, and all map keys are avoided
// in favor of fixed struct fields except args (single-key maps).
func (c *ChromeTraceSink) WriteJSON(w io.Writer) error {
	mapSlots, reduceSlots := c.tl.Slots()
	events := make([]ctEvent, 0, len(c.tl.spans)*2+len(c.instants)+8)

	// Metadata: name the slot tracks.
	meta := func(pid int, name string) ctEvent {
		return ctEvent{Name: "process_name", Cat: "__metadata", Phase: "M",
			Pid: pid, Args: map[string]any{"name": name}}
	}
	events = append(events,
		meta(ctPidJobs, "jobs"),
		meta(ctPidMaps, fmt.Sprintf("map slots (%d used)", mapSlots)),
		meta(ctPidReduces, fmt.Sprintf("reduce slots (%d used)", reduceSlots)),
	)
	if len(c.overlay) > 0 {
		title := c.overlayTitle
		if title == "" {
			title = "overlay"
		}
		events = append(events, meta(ctPidOverlay, title))
	}

	for _, sp := range c.tl.Spans() {
		pid, cat := ctPidMaps, "map"
		if sp.Reduce {
			pid, cat = ctPidReduces, "reduce"
		}
		if sp.Preempted {
			cat = "map-preempted"
		}
		end := sp.End
		if math.IsInf(end, 1) {
			// Unpatched filler (engine failed mid-run): clamp to start.
			end = sp.Start
		}
		dur := end - sp.Start
		ev := ctEvent{
			Name: fmt.Sprintf("j%d/%s%d", sp.JobID, cat[:1], sp.Task),
			Cat:  cat, Phase: "X",
			TsUS: sp.Start, DurUS: &dur,
			Pid: pid, Tid: sp.Slot,
			Args: map[string]any{"job": sp.JobID},
		}
		if sp.Reduce && sp.ShuffleEnd > sp.Start && !math.IsInf(sp.ShuffleEnd, 1) {
			ev.Args = map[string]any{"job": sp.JobID, "shuffle_end": sp.ShuffleEnd}
		}
		events = append(events, ev)
	}
	events = append(events, c.instants...)

	for _, ov := range c.overlay {
		end := ov.End
		if math.IsInf(end, 1) {
			end = ov.Start
		}
		dur := end - ov.Start
		ev := ctEvent{
			Name: ov.Name, Cat: ov.Cat, Phase: "X",
			TsUS: ov.Start, DurUS: &dur,
			Pid: ctPidOverlay, Tid: 0,
		}
		if ov.Detail != "" {
			ev.Args = map[string]any{"detail": ov.Detail}
		}
		events = append(events, ev)
	}

	file := ctFile{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
		OtherData:       c.counters,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(file)
}
