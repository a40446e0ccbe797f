package sched

import "testing"

// TestFingerprintGolden pins the fingerprint of every built-in policy
// and estimator variant. These values are load-bearing: the replay
// result cache keys disk entries by them, so an accidental change here
// means previously cached results would be served for a policy that no
// longer behaves the same way. If this table fails, you changed policy
// identity — either revert, or consciously bump the policy's version
// tag in fingerprint.go (invalidating its cached entries) and repin.
func TestFingerprintGolden(t *testing.T) {
	golden := []struct {
		name string
		p    Policy
		want uint64
	}{
		{"FIFO", FIFO{}, 0xbfa9228e5ca98bb9},
		{"MaxEDF", MaxEDF{}, 0x35b9ee31d2d59408},
		{"MinEDF/avg", MinEDF{Estimate: EstimatorAvg}, 0x6a71be6285d984ea},
		{"MinEDF/low", MinEDF{Estimate: EstimatorLow}, 0x896c856b90c8cf0b},
		{"MinEDF/up", MinEDF{Estimate: EstimatorUp}, 0x2c7c30506ffaf0a8},
		{"Fair", Fair{}, 0x37c817e055b7f7b5},
		{"Capacity/empty", Capacity{}, 0x97e1436ccf3a1feb},
		{"Capacity/60-40", Capacity{Shares: []float64{0.6, 0.4}}, 0x4acdc286b719b834},
	}
	for _, g := range golden {
		got, ok := FingerprintOf(g.p)
		if !ok {
			t.Errorf("%s: expected a fingerprint, got ok=false", g.name)
			continue
		}
		if got != g.want {
			t.Errorf("%s: fingerprint %#x, golden %#x — policy identity changed; bump its version tag consciously", g.name, got, g.want)
		}
	}

	// Unfingerprintable configurations must decline: a wrong cache hit
	// is a silent correctness bug, a bypass is just a slower replay.
	decline := []struct {
		name string
		p    Policy
	}{
		{"DynamicPriority", &DynamicPriority{Budgets: map[int]float64{1: 2}}},
	}
	for _, g := range decline {
		if fp, ok := FingerprintOf(g.p); ok {
			t.Errorf("%s: must decline to fingerprint, got %#x", g.name, fp)
		}
	}

	// Distinctness across the whole table: any collision would silently
	// share cache entries between policies that schedule differently.
	seen := map[uint64]string{}
	for _, g := range golden {
		fp, _ := FingerprintOf(g.p)
		if prev, dup := seen[fp]; dup {
			t.Errorf("fingerprint collision: %s and %s both map to %#x", g.name, prev, fp)
		}
		seen[fp] = g.name
	}
}
