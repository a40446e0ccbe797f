package simmr

import (
	"math/rand"
	"os"
	"reflect"
	"testing"
)

// TestShardedSweepMatchesFull pins the sharded execution contract: the
// points of N shard runs cover the grid exactly once, and placed by
// their Cell they are identical (cells, order, every metric) to one
// unsharded sweep.
func TestShardedSweepMatchesFull(t *testing.T) {
	tr, err := MultiTenantTrace(80, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	base := SweepConfig{
		MapSlotCounts:    []int{8, 16, 32},
		ReduceSlotCounts: []int{8, 16},
		Policy:           NewMaxEDF(),
	}
	full, err := CapacitySweep(tr, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 6 {
		t.Fatalf("%d cells, want 6", len(full))
	}
	for i, p := range full {
		if p.Cell != i {
			t.Fatalf("full sweep cell %d labeled %d", i, p.Cell)
		}
	}

	const shards = 4 // more shards than divides evenly: one shard gets 0 or fewer cells
	parts := make([][]SweepPoint, shards)
	for s := 0; s < shards; s++ {
		cfg := base
		cfg.Shards = shards
		cfg.ShardIndex = s
		parts[s], err = CapacitySweep(tr, cfg)
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
	}
	merged := make([]SweepPoint, len(full))
	covered := make([]bool, len(full))
	for s, part := range parts {
		for _, p := range part {
			if p.Cell < 0 || p.Cell >= len(full) || covered[p.Cell] {
				t.Fatalf("shard %d: cell %d outside the grid or covered twice", s, p.Cell)
			}
			covered[p.Cell] = true
			merged[p.Cell] = p
		}
	}
	for cell, ok := range covered {
		if !ok {
			t.Fatalf("no shard covers cell %d", cell)
		}
	}
	if !reflect.DeepEqual(full, merged) {
		t.Fatalf("merged shards diverged from full sweep:\n full   %+v\n merged %+v", full, merged)
	}
}

func TestShardValidation(t *testing.T) {
	tr, err := MultiTenantTrace(10, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	base := SweepConfig{MapSlotCounts: []int{8, 16}}
	for _, bad := range []SweepConfig{
		{MapSlotCounts: base.MapSlotCounts, Shards: -1},
		{MapSlotCounts: base.MapSlotCounts, Shards: 2, ShardIndex: 2},
		{MapSlotCounts: base.MapSlotCounts, Shards: 2, ShardIndex: -1},
		{MapSlotCounts: base.MapSlotCounts, ShardIndex: 1}, // index without sharding
	} {
		if _, err := CapacitySweep(tr, bad); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
	// A shard with no cells (more shards than cells) is empty, not an
	// error.
	empty, err := CapacitySweep(tr, SweepConfig{MapSlotCounts: []int{8}, Shards: 5, ShardIndex: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Fatalf("expected empty shard, got %d points", len(empty))
	}
}

// TestPackedTraceFacadeRoundTrip covers the pkg-level packed-trace
// surface: WritePackedTrace → OpenPackedTrace, plus sniffing and replay
// equivalence.
func TestPackedTraceFacadeRoundTrip(t *testing.T) {
	tr, err := MultiTenantTrace(60, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/t.strc"
	if err := WritePackedTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !IsPackedTrace(img) {
		t.Fatal("packed image not sniffed")
	}
	if IsPackedTrace([]byte(`{"Name":"x"}`)) {
		t.Fatal("JSON sniffed as packed")
	}
	opened, err := OpenPackedTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()

	cfg := DefaultReplayConfig()
	want, err := Replay(cfg, tr, NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Replay(cfg, opened, NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Jobs, got.Jobs) || want.Makespan != got.Makespan {
		t.Fatal("replay of packed-loaded trace diverged from original")
	}
}

// TestStreamFacade drives NewTraceStream/PackStream end to end and
// replays the packed output.
func TestStreamFacade(t *testing.T) {
	cfg := StreamConfig{
		Name:             "facade-stream",
		Jobs:             150,
		MeanInterArrival: 1,
		TemplatePool:     10,
		Shapes:           []WeightedShape{{Shape: MultiTenantShape(), Weight: 1}},
	}
	s, err := NewTraceStream(cfg, rand.New(rand.NewSource(15)))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/s.strc"
	jobs, uniq, err := PackStream(path, s)
	if err != nil {
		t.Fatal(err)
	}
	if jobs != 150 || uniq != 10 {
		t.Fatalf("jobs=%d uniq=%d, want 150/10", jobs, uniq)
	}
	tr, err := OpenPackedTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.Name != "facade-stream" || len(tr.Jobs) != 150 {
		t.Fatalf("loaded %q with %d jobs", tr.Name, len(tr.Jobs))
	}
	if _, err := Replay(DefaultReplayConfig(), tr, NewMinEDF()); err != nil {
		t.Fatal(err)
	}
}
