package profiler

import (
	"bytes"
	"testing"

	"simmr/internal/cluster"
	"simmr/internal/hadooplog"
	"simmr/internal/sched"
	"simmr/internal/stats"
	"simmr/internal/workload"
)

// BenchmarkFromRecords measures trace extraction over a realistic log
// (one mid-size job with two reduce waves).
func BenchmarkFromRecords(b *testing.B) {
	var buf bytes.Buffer
	w := hadooplog.NewWriter(&buf)
	cfg := cluster.DefaultConfig()
	cfg.Workers = 32
	spec := workload.Spec{
		App: "bench", Dataset: "b",
		NumMaps: 256, NumReduces: 64, BlockMB: 64,
		MapCompute:    stats.Normal{Mu: 10, Sigma: 2},
		Selectivity:   0.5,
		ReduceCompute: stats.Normal{Mu: 3, Sigma: 1},
	}
	if _, err := cluster.Run(cfg, []cluster.Job{{Spec: spec}}, sched.FIFO{}, w); err != nil {
		b.Fatal(err)
	}
	recs, err := hadooplog.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromRecords(recs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogParse measures the raw log-format parser.
func BenchmarkLogParse(b *testing.B) {
	var buf bytes.Buffer
	w := hadooplog.NewWriter(&buf)
	for i := 0; i < 5000; i++ {
		w.Write(hadooplog.EntityMapAttempt, map[string]string{
			hadooplog.KeyTaskAttemptID: hadooplog.MapAttemptTryID(1, i, 0),
			hadooplog.KeyStartTime:     hadooplog.FormatTime(float64(i)),
			hadooplog.KeyFinishTime:    hadooplog.FormatTime(float64(i) + 9.5),
		})
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hadooplog.Parse(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
