package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// SetOverlay adds a fourth pseudo-process track; without an overlay the
// export must not mention it at all.
func TestChromeTraceOverlay(t *testing.T) {
	mk := func() *ChromeTraceSink {
		c := NewChromeTraceSink()
		c.Event(Event{Time: 0, Kind: KindJobArrival, JobID: 0, Task: -1})
		c.RunEnd(Counters{Jobs: 1})
		return c
	}

	var plain bytes.Buffer
	if err := mk().WriteJSON(&plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), `"pid": 4`) {
		t.Fatal("overlay track present without SetOverlay")
	}

	c := mk()
	c.SetOverlay("critical path", []OverlaySpan{
		{Name: "j0/m1", Cat: "critical-path", Start: 1, End: 3, Detail: "handed off by job 2"},
	})
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	var gotMeta, gotSpan bool
	for _, ev := range file.TraceEvents {
		if ev.Pid != 4 {
			continue
		}
		switch ev.Ph {
		case "M":
			gotMeta = true
			if ev.Args["name"] != "critical path" {
				t.Fatalf("overlay track titled %v", ev.Args["name"])
			}
		case "X":
			gotSpan = true
			if ev.Name != "j0/m1" || ev.Cat != "critical-path" || ev.Ts != 1 || ev.Dur != 2 {
				t.Fatalf("overlay span mangled: %+v", ev)
			}
			if ev.Args["detail"] != "handed off by job 2" {
				t.Fatalf("overlay detail %v", ev.Args["detail"])
			}
		}
	}
	if !gotMeta || !gotSpan {
		t.Fatalf("overlay track incomplete: meta=%v span=%v", gotMeta, gotSpan)
	}
}
