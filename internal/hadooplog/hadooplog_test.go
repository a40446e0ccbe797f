package hadooplog

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestWriteParseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write(EntityJob, map[string]string{
		KeyJobID: "job_000001", KeyJobName: "WordCount", KeySubmitTime: "0.000",
	})
	w.Write(EntityMapAttempt, map[string]string{
		KeyTaskAttemptID: "attempt_000001_m_000000_0",
		KeyStartTime:     "1.500",
		KeyTrackerName:   "node07",
	})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	recs, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Entity != EntityJob || recs[0].Get(KeyJobName) != "WordCount" {
		t.Fatalf("record 0: %+v", recs[0])
	}
	if v, ok := recs[1].Float(KeyStartTime); !ok || v != 1.5 {
		t.Fatalf("start time: %v %v", v, ok)
	}
}

func TestEscapingRoundTripProperty(t *testing.T) {
	prop := func(key uint8, value string) bool {
		if strings.ContainsAny(value, "\n\r") {
			return true // line-based format; writer callers never embed newlines
		}
		k := "K" + string(rune('A'+key%26))
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Write("Test", map[string]string{k: value})
		if err := w.Flush(); err != nil {
			return false
		}
		recs, err := Parse(&buf)
		if err != nil || len(recs) != 1 {
			return false
		}
		return recs[0].Get(k) == value
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEscapingQuotesAndBackslashes(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	tricky := `He said "hi" \ bye`
	w.Write("Test", map[string]string{"V": tricky})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Get("V") != tricky {
		t.Fatalf("got %q", recs[0].Get("V"))
	}
}

func TestParseSkipsBlankLines(t *testing.T) {
	in := "\nJob JOBID=\"j1\" .\n\n\nJob JOBID=\"j2\" .\n"
	recs, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"Job",                     // no attributes
		`Job JOBID="unterminated`, // unterminated quote
		`Job JOBID="x"`,           // missing terminator dot
		`Job =JOBID"x" .`,         // malformed attribute
		`Job JOBID=x" .`,          // missing opening quote
		`Job JOBID="x\`,           // dangling escape
	}
	for _, line := range bad {
		if _, err := Parse(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("expected parse error for %q", line)
		}
	}
}

func TestDeterministicAttributeOrder(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Write("E", map[string]string{"B": "2", "A": "1", "C": "3"})
		_ = w.Flush()
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("nondeterministic output:\n%s\n%s", a, b)
	}
	if !strings.HasPrefix(a, `E A="1" B="2" C="3" .`) {
		t.Fatalf("unexpected order: %s", a)
	}
}

func TestRecordAccessors(t *testing.T) {
	r := Record{Entity: "Job", Attrs: map[string]string{
		"F": "2.25", "I": "42", "BAD": "zzz",
	}}
	if v, ok := r.Float("F"); !ok || v != 2.25 {
		t.Fatal("float accessor")
	}
	if _, ok := r.Float("MISSING"); ok {
		t.Fatal("missing float should not be ok")
	}
	if _, ok := r.Float("BAD"); ok {
		t.Fatal("malformed float should not be ok")
	}
	if v, ok := r.Int("I"); !ok || v != 42 {
		t.Fatal("int accessor")
	}
	if _, ok := r.Int("BAD"); ok {
		t.Fatal("malformed int should not be ok")
	}
}

func TestIDHelpers(t *testing.T) {
	if JobID(7) != "job_000007" {
		t.Fatal(JobID(7))
	}
	if MapAttemptTryID(1, 2, 0) != "attempt_000001_m_000002_0" {
		t.Fatal(MapAttemptTryID(1, 2, 0))
	}
	if ReduceAttemptID(1, 2) != "attempt_000001_r_000002_0" {
		t.Fatal(ReduceAttemptID(1, 2))
	}
}

func TestFormatTime(t *testing.T) {
	if FormatTime(1.23456) != "1.235" {
		t.Fatal(FormatTime(1.23456))
	}
	if FormatTime(0) != "0.000" {
		t.Fatal(FormatTime(0))
	}
}

func TestLargeLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	const n = 5000
	for i := 0; i < n; i++ {
		w.Write(EntityMapAttempt, map[string]string{
			KeyTaskAttemptID: MapAttemptTryID(1, i, 0),
			KeyStartTime:     FormatTime(float64(i)),
			KeyFinishTime:    FormatTime(float64(i) + 10),
		})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("got %d records, want %d", len(recs), n)
	}
	if v, _ := recs[n-1].Float(KeyFinishTime); v != float64(n-1)+10 {
		t.Fatalf("last finish time %v", v)
	}
}
