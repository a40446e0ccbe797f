// Package workload models the six MapReduce applications the paper
// executes on its 66-node testbed (§IV-C): WordCount, Sort, Bayesian
// classification, TF-IDF, WikiTrends, and Twitter. Each application is
// described by the statistical properties that determine its task
// durations — per-block map compute time, map selectivity (intermediate
// bytes out per input byte), and reduce compute time — which is exactly
// the characterization the paper shows is stable across executions
// (§II, Table I).
//
// These models feed the cluster testbed emulator (internal/cluster),
// which turns them into task-level executions with locality effects,
// shuffle transfers, and node jitter. The emulator's logs are then
// profiled into replayable traces.
package workload

import (
	"fmt"
	"math"

	"simmr/internal/stats"
)

// DefaultBlockMB is the HDFS block size of the paper's testbed (§IV-B:
// "the default blocksize of the file system is set to 64MB").
const DefaultBlockMB = 64.0

// Spec is one executable job description: an application applied to one
// dataset. The cluster emulator consumes Specs; the SimMR engine never
// sees them (it replays traces).
type Spec struct {
	// App names the application, Dataset the input (e.g. "32GB").
	App     string
	Dataset string

	// NumMaps is one map task per input block.
	NumMaps int
	// NumReduces is the configured reduce count.
	NumReduces int
	// BlockMB is the input split size processed by each map.
	BlockMB float64

	// MapCompute is the CPU time of the user map function per task,
	// excluding input read time (which depends on locality).
	MapCompute stats.Dist
	// Selectivity is intermediate output bytes per input byte
	// (e.g. ~0.3 for WordCount with a combiner, 1.0 for Sort).
	Selectivity float64
	// ReduceCompute is the CPU time of the user reduce function per
	// task, excluding shuffle and sort.
	ReduceCompute stats.Dist
}

// Validate checks the spec is executable.
func (s *Spec) Validate() error {
	switch {
	case s.NumMaps <= 0:
		return fmt.Errorf("workload: %s/%s: NumMaps = %d", s.App, s.Dataset, s.NumMaps)
	case s.NumReduces < 0:
		return fmt.Errorf("workload: %s/%s: NumReduces = %d", s.App, s.Dataset, s.NumReduces)
	case s.BlockMB <= 0:
		return fmt.Errorf("workload: %s/%s: BlockMB = %v", s.App, s.Dataset, s.BlockMB)
	case s.Selectivity < 0:
		return fmt.Errorf("workload: %s/%s: Selectivity = %v", s.App, s.Dataset, s.Selectivity)
	case s.MapCompute == nil:
		return fmt.Errorf("workload: %s/%s: nil MapCompute", s.App, s.Dataset)
	case s.NumReduces > 0 && s.ReduceCompute == nil:
		return fmt.Errorf("workload: %s/%s: nil ReduceCompute", s.App, s.Dataset)
	}
	return nil
}

// InputMB returns the total input size implied by the spec.
func (s *Spec) InputMB() float64 { return float64(s.NumMaps) * s.BlockMB }

// IntermediateMB returns the total intermediate (shuffled) data volume.
func (s *Spec) IntermediateMB() float64 { return s.InputMB() * s.Selectivity }

// PartitionMB returns the shuffle bytes each reduce task receives,
// assuming uniform hash partitioning.
func (s *Spec) PartitionMB() float64 {
	if s.NumReduces == 0 {
		return 0
	}
	return s.IntermediateMB() / float64(s.NumReduces)
}

// App is one of the paper's applications with its dataset variants.
type App struct {
	Name string
	// Description summarizes what the application computes (§IV-C).
	Description string
	// Datasets are the input variants the paper ran (three each).
	Datasets []Spec
}

// Spec returns the i-th dataset variant, panicking on a bad index so
// experiment code fails loudly rather than silently running the wrong
// workload.
func (a *App) Spec(i int) Spec {
	if i < 0 || i >= len(a.Datasets) {
		panic(fmt.Sprintf("workload: app %s has no dataset %d", a.Name, i))
	}
	return a.Datasets[i]
}

// mapsFor converts an input size in MB to a block-aligned map count.
func mapsFor(inputMB float64) int {
	return int(math.Ceil(inputMB / DefaultBlockMB))
}

func gb(g float64) float64 { return g * 1024 }

// Apps returns the paper's six applications. Compute-time distributions
// are calibrated so that, on the emulated 64-worker cluster with one map
// and one reduce slot per node, FIFO completion times land near the
// actual durations reported in Figure 5(a): WordCount 251s,
// WikiTrends 1271s, Twitter 276s, Sort 88s, TF-IDF 66s, Bayes 476s, and
// so WordCount's phase-duration CDFs match the ranges of Figure 3
// (maps 5–40s, shuffles 4–9s, reduces 0–4s).
//
// The first dataset of each app is the variant used for the Figure 5
// accuracy runs; the others exercise dataset-size diversity in the
// Figure 7 workload mix.
func Apps() []App {
	return []App{
		{
			Name:        "WordCount",
			Description: "word frequency over the Wikipedia article-history dataset",
			Datasets: []Spec{
				wordCount("32GB", gb(32)),
				wordCount("40GB", gb(40)),
				wordCount("43GB", gb(43)),
			},
		},
		{
			Name:        "WikiTrends",
			Description: "per-article visit counts over Wikipedia traffic logs",
			Datasets: []Spec{
				wikiTrends("apr2010", gb(70)),
				wikiTrends("may2010", gb(78)),
				wikiTrends("jun2010", gb(84)),
			},
		},
		{
			Name:        "Twitter",
			Description: "asymmetric-link counting over the Twitter follower graph",
			Datasets: []Spec{
				twitter("25GB", gb(25)),
				twitter("12GB", gb(12)),
				twitter("18GB", gb(18)),
			},
		},
		{
			Name:        "Sort",
			Description: "sort of GridMix2 random text data",
			Datasets: []Spec{
				sortApp("16GB", gb(16)),
				sortApp("32GB", gb(32)),
				sortApp("64GB", gb(64)),
			},
		},
		{
			Name:        "TFIDF",
			Description: "term frequency–inverse document frequency (Mahout example)",
			Datasets: []Spec{
				tfidf("4GB", gb(4)),
				tfidf("6GB", gb(6)),
				tfidf("8GB", gb(8)),
			},
		},
		{
			Name:        "Bayes",
			Description: "Mahout Bayesian classification trainer feature extraction",
			Datasets: []Spec{
				bayes("43GB", gb(43)),
				bayes("32GB", gb(32)),
				bayes("40GB", gb(40)),
			},
		},
	}
}

func wordCount(label string, inputMB float64) Spec {
	return Spec{
		App: "WordCount", Dataset: label,
		NumMaps: mapsFor(inputMB), NumReduces: 512, BlockMB: DefaultBlockMB,
		// tokenization-heavy maps; no combiner, so most input re-emerges
		// as (word, 1) pairs
		MapCompute:    stats.Normal{Mu: 22, Sigma: 4.5},
		Selectivity:   0.9,
		ReduceCompute: stats.Normal{Mu: 1.5, Sigma: 0.7},
	}
}

func wikiTrends(label string, inputMB float64) Spec {
	return Spec{
		App: "WikiTrends", Dataset: label,
		NumMaps: mapsFor(inputMB), NumReduces: 128, BlockMB: DefaultBlockMB,
		// decompression-dominated maps over hourly compressed logs
		MapCompute:    stats.Normal{Mu: 68, Sigma: 10},
		Selectivity:   0.2,
		ReduceCompute: stats.Normal{Mu: 9, Sigma: 2},
	}
}

func twitter(label string, inputMB float64) Spec {
	return Spec{
		App: "Twitter", Dataset: label,
		NumMaps: mapsFor(inputMB), NumReduces: 256, BlockMB: DefaultBlockMB,
		// edge-list parsing, moderate per-record work
		MapCompute:    stats.Normal{Mu: 38, Sigma: 4},
		Selectivity:   0.6,
		ReduceCompute: stats.Normal{Mu: 5.5, Sigma: 1.2},
	}
}

func sortApp(label string, inputMB float64) Spec {
	return Spec{
		App: "Sort", Dataset: label,
		NumMaps: mapsFor(inputMB), NumReduces: 384, BlockMB: DefaultBlockMB,
		// identity map: I/O-bound, little compute; all data shuffled
		MapCompute:    stats.Normal{Mu: 8, Sigma: 2},
		Selectivity:   1.0,
		ReduceCompute: stats.Normal{Mu: 3, Sigma: 0.8},
	}
}

func tfidf(label string, inputMB float64) Spec {
	return Spec{
		App: "TFIDF", Dataset: label,
		NumMaps: mapsFor(inputMB), NumReduces: 128, BlockMB: DefaultBlockMB,
		// emits (term, doc, freq) triples: intermediate data exceeds input
		MapCompute:    stats.Normal{Mu: 25, Sigma: 5},
		Selectivity:   1.5,
		ReduceCompute: stats.Normal{Mu: 12, Sigma: 3},
	}
}

func bayes(label string, inputMB float64) Spec {
	return Spec{
		App: "Bayes", Dataset: label,
		NumMaps: mapsFor(inputMB), NumReduces: 384, BlockMB: DefaultBlockMB,
		// feature extraction: CPU-heavy maps with high per-block variance
		// (page-boundary splits), large labeled-feature output
		MapCompute:    stats.Normal{Mu: 30, Sigma: 11},
		Selectivity:   1.2,
		ReduceCompute: stats.Normal{Mu: 7, Sigma: 1.5},
	}
}

// WordCountExample returns the motivating example of §II and Figures
// 1–2: a WordCount job with 200 map tasks and 256 reduce tasks run
// under restricted slot allocations.
func WordCountExample() Spec {
	s := wordCount("example", 200*DefaultBlockMB)
	s.Dataset = "fig1-example"
	s.NumMaps = 200
	s.NumReduces = 256
	return s
}
