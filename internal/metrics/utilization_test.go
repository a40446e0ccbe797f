package metrics

import "testing"

func TestComputeUtilization(t *testing.T) {
	tasks := []Interval{{0, 10}, {0, 10}, {10, 20}}
	u := ComputeUtilization(tasks, 2, 20)
	if u.BusySlotSeconds != 30 {
		t.Fatalf("busy = %v", u.BusySlotSeconds)
	}
	if u.Fraction != 30.0/40.0 {
		t.Fatalf("fraction = %v", u.Fraction)
	}
	if u.Peak != 2 {
		t.Fatalf("peak = %d", u.Peak)
	}
}

func TestComputeUtilizationDegenerate(t *testing.T) {
	if u := ComputeUtilization(nil, 0, 10); u.Fraction != 0 {
		t.Fatal("zero slots should yield zero")
	}
	if u := ComputeUtilization(nil, 4, 0); u.Fraction != 0 {
		t.Fatal("zero horizon should yield zero")
	}
	// Inverted intervals are ignored.
	if u := ComputeUtilization([]Interval{{5, 3}}, 1, 10); u.BusySlotSeconds != 0 {
		t.Fatal("inverted interval counted")
	}
}
