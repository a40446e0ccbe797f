package simmr

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// TestParallelSweepMatchesSerial is the determinism property test for
// the parallel runtime: the same grid swept serially (Workers=1) and in
// parallel must be byte-identical, which also locks in the no-Clone
// shared-trace refactor.
func TestParallelSweepMatchesSerial(t *testing.T) {
	tr := sweepTrace()
	grid := SweepConfig{
		MapSlotCounts:    []int{1, 2, 4, 8, 16},
		ReduceSlotCounts: []int{2, 4, 8},
	}
	serialCfg := grid
	serialCfg.Workers = 1
	serial, err := CapacitySweep(tr, serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 7} {
		parCfg := grid
		parCfg.Workers = workers
		par, err := CapacitySweep(tr, parCfg)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := json.Marshal(serial)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := json.Marshal(par)
		if err != nil {
			t.Fatal(err)
		}
		if string(sb) != string(pb) {
			t.Fatalf("workers=%d: parallel sweep not byte-identical to serial:\n%s\n%s", workers, sb, pb)
		}
	}
}

// TestParallelSweepSharedPolicyAndTrace replays the sweep repeatedly
// with MinEDF (an ArrivalAware policy) to cover policy sharing across
// concurrent engines; run under -race this guards the stateless-policy
// contract.
func TestParallelSweepSharedPolicyAndTrace(t *testing.T) {
	tr := sweepTrace()
	cfg := SweepConfig{
		MapSlotCounts: []int{2, 4, 8, 16, 32},
		Policy:        NewMinEDF(),
	}
	first, err := CapacitySweep(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := CapacitySweep(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("repeated parallel sweeps diverged")
	}
}

// TestEmptyWorkload: CapacitySweep and BranchSet refuse a missing or
// jobless trace with ErrEmptyWorkload (ReplayBatchCfg's case is
// TestReplayBatchEmptySpec).
func TestEmptyWorkload(t *testing.T) {
	for _, tr := range []*Trace{nil, {Name: "empty"}} {
		_, err := CapacitySweep(tr, SweepConfig{MapSlotCounts: []int{4}})
		if !errors.Is(err, ErrEmptyWorkload) {
			t.Fatalf("CapacitySweep: err = %v, want ErrEmptyWorkload", err)
		}
		_, err = BranchSet(context.Background(), BranchSetConfig{Trace: tr}, []WhatIf{{}})
		if !errors.Is(err, ErrEmptyWorkload) {
			t.Fatalf("BranchSet: err = %v, want ErrEmptyWorkload", err)
		}
	}
}

func TestCapacitySweepPolicyFactory(t *testing.T) {
	tr := sweepTrace()
	// DynamicPriority is stateful: each cell must get its own instance.
	factory := func() Policy {
		return NewDynamicPriority(
			map[int]float64{0: 100, 1: 100},
			map[int]float64{0: 2, 1: 1},
		)
	}
	serial, err := CapacitySweep(tr, SweepConfig{
		MapSlotCounts: []int{2, 4, 8}, PolicyFactory: factory, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	par, err := CapacitySweep(tr, SweepConfig{
		MapSlotCounts: []int{2, 4, 8}, PolicyFactory: factory, Workers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("per-cell policies diverged between serial and parallel")
	}
}

func TestCapacitySweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CapacitySweepCtx(ctx, sweepTrace(), SweepConfig{MapSlotCounts: []int{2, 4}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestReplayBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	trA, err := ProductionTrace(10, rng)
	if err != nil {
		t.Fatal(err)
	}
	trB := sweepTrace()
	specs := []ReplaySpec{
		{Trace: trA},                      // default config, FIFO
		{Trace: trA, Policy: NewMinEDF()}, // same shared trace, second policy
		{Trace: trB, Policy: NewFair()},   // different trace
		{Trace: trB, Config: ReplayConfig{MapSlots: 4, ReduceSlots: 4, MinMapPercentCompleted: 0.05}},
	}
	batch, err := ReplayBatchCfg(context.Background(), BatchConfig{}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(specs) {
		t.Fatalf("results = %d, want %d", len(batch), len(specs))
	}
	// Spec order matches a serial replay of each spec.
	for i, spec := range specs {
		cfg := spec.Config
		if cfg == (ReplayConfig{}) {
			cfg = DefaultReplayConfig()
		}
		p := spec.Policy
		if p == nil {
			p = NewFIFO()
		}
		want, err := Replay(cfg, spec.Trace, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i], want) {
			t.Fatalf("spec %d diverged from serial replay", i)
		}
	}
}

func TestReplayBatchEmptySpec(t *testing.T) {
	_, err := ReplayBatchCfg(context.Background(), BatchConfig{}, []ReplaySpec{{Name: "hollow", Trace: &Trace{}}})
	if !errors.Is(err, ErrEmptyWorkload) {
		t.Fatalf("err = %v, want ErrEmptyWorkload", err)
	}
}

func TestReplayBatchErrorIdentifiesSpec(t *testing.T) {
	tr := sweepTrace()
	bad := ReplayConfig{MapSlots: -1}
	_, err := ReplayBatchCfg(context.Background(), BatchConfig{Workers: 2}, []ReplaySpec{
		{Trace: tr},
		{Name: "broken", Trace: tr, Config: bad},
	})
	if err == nil {
		t.Fatal("invalid spec config should fail the batch")
	}
}

// TestSharedPolicyValueAcrossWorkers: one MaxEDF and one MinEDF value,
// each handed to every concurrent engine of a Workers: 4 capacity sweep
// and of a replay batch, must give what Workers: 1 gives. The engines
// now run these policies on a scheduling index; under -race this is the
// proof that the index is the engine's and the policy value stayed
// stateless and shareable.
func TestSharedPolicyValueAcrossWorkers(t *testing.T) {
	tr, err := MultiTenantTrace(150, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Policy{NewMaxEDF(), NewMinEDF()} {
		sweep := func(workers int) []SweepPoint {
			pts, err := CapacitySweepCtx(context.Background(), tr, SweepConfig{
				MapSlotCounts: []int{4, 8, 16, 32, 48, 64}, Policy: p, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			return pts
		}
		if !reflect.DeepEqual(sweep(4), sweep(1)) {
			t.Fatalf("%s: Workers: 4 sweep over one shared policy value differs from Workers: 1", p.Name())
		}

		var specs []ReplaySpec
		for _, slots := range []int{4, 8, 16, 32, 48, 64} {
			cfg := DefaultReplayConfig()
			cfg.MapSlots, cfg.ReduceSlots = slots, slots
			specs = append(specs, ReplaySpec{Config: cfg, Trace: tr, Policy: p})
		}
		batch := func(workers int) []*ReplayResult {
			res, err := ReplayBatchCfg(context.Background(), BatchConfig{Workers: workers}, specs)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		if !reflect.DeepEqual(batch(4), batch(1)) {
			t.Fatalf("%s: Workers: 4 batch over one shared policy value differs from Workers: 1", p.Name())
		}
	}
}
