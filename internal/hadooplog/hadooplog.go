// Package hadooplog reads and writes JobTracker history logs in the
// attribute-list format of Hadoop 0.20 (the version on the paper's
// testbed, §IV-B). Each line is
//
//	Entity KEY="value" KEY="value" .
//
// with backslash-escaped quotes inside values. The cluster emulator
// writes these logs; MRProfiler parses them back into job templates,
// exactly mirroring the paper's pipeline (JobTracker logs → MRProfiler →
// Trace Database). Keeping a real textual log format between the two
// sides means the profiler is tested against the same artifact a real
// Hadoop deployment would produce.
package hadooplog

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Entity names used by the emulator and understood by the profiler.
const (
	EntityJob           = "Job"
	EntityMapAttempt    = "MapAttempt"
	EntityReduceAttempt = "ReduceAttempt"
)

// Attribute keys, matching Hadoop 0.20 JobHistory key names where they
// exist.
const (
	KeyJobID         = "JOBID"
	KeyJobName       = "JOBNAME"
	KeySubmitTime    = "SUBMIT_TIME"
	KeyFinishTime    = "FINISH_TIME"
	KeyJobStatus     = "JOB_STATUS"
	KeyTotalMaps     = "TOTAL_MAPS"
	KeyTotalReduces  = "TOTAL_REDUCES"
	KeyTaskAttemptID = "TASK_ATTEMPT_ID"
	KeyStartTime     = "START_TIME"
	KeyTrackerName   = "TRACKER_NAME"
	KeyShuffleFinish = "SHUFFLE_FINISHED"
	KeySortFinish    = "SORT_FINISHED"
	KeyTaskStatus    = "TASK_STATUS"
	KeyDataLocal     = "DATA_LOCAL" // emulator extension: "true"/"false"
	KeyLocality      = "LOCALITY"   // emulator extension: node-local/rack-local/off-rack

	// Task counters (Rumen collects 40+ such properties; MRProfiler is
	// selective — §IV-A — but extendable, and these are the extensions
	// it understands).
	KeyHDFSBytesRead    = "HDFS_BYTES_READ"
	KeyHDFSBytesWritten = "HDFS_BYTES_WRITTEN"
	KeyFileBytesWritten = "FILE_BYTES_WRITTEN"
	KeyShuffleBytes     = "REDUCE_SHUFFLE_BYTES"
)

// StatusSuccess is the TASK_STATUS / JOB_STATUS value for success.
const StatusSuccess = "SUCCESS"

// Record is one parsed log line.
type Record struct {
	Entity string
	Attrs  map[string]string
}

// Get returns an attribute value ("" if absent).
func (r *Record) Get(key string) string { return r.Attrs[key] }

// Float parses a float-valued attribute; ok is false if absent or
// malformed.
func (r *Record) Float(key string) (v float64, ok bool) {
	s, present := r.Attrs[key]
	if !present {
		return 0, false
	}
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

// Int parses an integer-valued attribute.
func (r *Record) Int(key string) (v int, ok bool) {
	s, present := r.Attrs[key]
	if !present {
		return 0, false
	}
	v, err := strconv.Atoi(s)
	return v, err == nil
}

// Writer emits log records to an underlying stream.
type Writer struct {
	w   *bufio.Writer
	err error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write emits one record. Attributes are written in sorted key order so
// output is deterministic. The first error sticks and is returned by
// Flush.
func (lw *Writer) Write(entity string, attrs map[string]string) {
	if lw.err != nil {
		return
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString(entity)
	for _, k := range keys {
		sb.WriteByte(' ')
		sb.WriteString(k)
		sb.WriteString(`="`)
		sb.WriteString(escape(attrs[k]))
		sb.WriteByte('"')
	}
	sb.WriteString(" .\n")
	_, lw.err = lw.w.WriteString(sb.String())
}

// Flush flushes buffered output and reports the first write error.
func (lw *Writer) Flush() error {
	if lw.err != nil {
		return lw.err
	}
	return lw.w.Flush()
}

func escape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// Parse reads all records from r. Blank lines are skipped; malformed
// lines abort with an error naming the line number.
func Parse(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		rec, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("hadooplog: line %d: %w", lineNo, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("hadooplog: read: %w", err)
	}
	return out, nil
}

func parseLine(line string) (Record, error) {
	// Entity name runs to the first space.
	sp := strings.IndexByte(line, ' ')
	if sp < 0 {
		// A bare entity with no attributes ("Job .") is legal-ish; treat
		// a lone token as an error since our writer never emits it.
		return Record{}, fmt.Errorf("no attributes in %q", line)
	}
	rec := Record{Entity: line[:sp], Attrs: make(map[string]string)}
	rest := line[sp+1:]
	for {
		rest = strings.TrimLeft(rest, " ")
		if rest == "" {
			return Record{}, fmt.Errorf("missing terminating '.'")
		}
		if rest == "." {
			return rec, nil
		}
		eq := strings.IndexByte(rest, '=')
		if eq <= 0 || eq+1 >= len(rest) || rest[eq+1] != '"' {
			return Record{}, fmt.Errorf("malformed attribute near %q", rest)
		}
		key := rest[:eq]
		val, remaining, err := scanQuoted(rest[eq+1:])
		if err != nil {
			return Record{}, fmt.Errorf("attribute %s: %w", key, err)
		}
		rec.Attrs[key] = val
		rest = remaining
	}
}

// scanQuoted consumes a leading quoted string (with backslash escapes)
// and returns its unescaped value and the remainder of the input.
func scanQuoted(s string) (val, rest string, err error) {
	if len(s) == 0 || s[0] != '"' {
		return "", "", fmt.Errorf("expected opening quote")
	}
	var sb strings.Builder
	i := 1
	for i < len(s) {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling escape")
			}
			sb.WriteByte(s[i+1])
			i += 2
		case '"':
			return sb.String(), s[i+1:], nil
		default:
			sb.WriteByte(s[i])
			i++
		}
	}
	return "", "", fmt.Errorf("unterminated quote")
}

// FormatTime renders simulated seconds with millisecond precision — the
// resolution the profiler needs to reconstruct task durations.
func FormatTime(t float64) string { return strconv.FormatFloat(t, 'f', 3, 64) }

// MapAttemptTryID builds a Hadoop-style attempt identifier for map task
// i of a job, including the attempt number (the first attempt is try 0;
// speculative duplicates get try >= 1).
func MapAttemptTryID(jobID, i, try int) string {
	return fmt.Sprintf("attempt_%06d_m_%06d_%d", jobID, i, try)
}

// ReduceAttemptID builds an attempt identifier for reduce task i.
func ReduceAttemptID(jobID, i int) string {
	return fmt.Sprintf("attempt_%06d_r_%06d_0", jobID, i)
}

// JobID renders the Hadoop-style job identifier.
func JobID(id int) string { return fmt.Sprintf("job_%06d", id) }
