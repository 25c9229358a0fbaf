package main

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dsys"
)

// The expected quartiles are Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1, 4, 2}, 1.25, 4.75},
		{[]float64{1.5, 9, 3, 7, 2, 8, 4, 6, 5, 10}, 2.75, 8.25},
		{[]float64{2, 2, 9, 1, 7}, 1.5, 8},
	} {
		if q1, q3 := quartiles(tc.v); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "x", Better: "lower", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(v []float64, by float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x + by
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		old, cur []float64
		want     string
	}{
		{"same", steady, steady, "within-bound"},
		{"slower beyond bound", steady, shift(steady, 20), "worse"},
		{"slower within bound", steady, shift(steady, 5), "within-bound"},
		{"faster in every pair", steady, shift(steady, -5), "better"},
		{"too noisy to call", []float64{50, 150, 100, 60, 140}, []float64{55, 145, 100, 65, 135}, "unresolved"},
	} {
		if got, _ := verdict(lower, tc.old, tc.cur); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestLongestGap(t *testing.T) {
	ms := time.Millisecond
	if got := longestGap(0, 100*ms, []time.Duration{60 * ms, 10 * ms, 70 * ms}); got != 50*ms {
		t.Errorf("gap between acks = %v, want 50ms", got)
	}
	if got := longestGap(0, 100*ms, nil); got != 100*ms {
		t.Errorf("gap with no acks = %v, want the whole window", got)
	}
}

func TestCheckLogs(t *testing.T) {
	entry := func(slot int, origin dsys.ProcessID, seq int64, payload string) core.AppliedEntry {
		return core.AppliedEntry{Slot: slot, Cmd: core.Command{Origin: origin, Seq: seq, Payload: payload}}
	}
	subs := submissions{1: {"a1", "a2", "a3"}, 2: {"b1"}}
	good := []core.AppliedEntry{entry(1, 1, 1, "a1"), entry(1, 2, 1, "b1"), entry(2, 1, 2, "a2")}
	for _, tc := range []struct {
		name       string
		logs       map[dsys.ProcessID][]core.AppliedEntry
		crashed    dsys.ProcessID
		wantLost   int64
		wantFailed int64
	}{
		{"crashed origin loses its tail", map[dsys.ProcessID][]core.AppliedEntry{1: good[:1], 2: good, 3: good}, 1, 1, 0},
		{"crashed replica applied past the survivors", map[dsys.ProcessID][]core.AppliedEntry{1: append(good[:3:3], entry(3, 1, 3, "a3")), 2: good, 3: good}, 1, 0, 1},
		{"surviving origin may not lose", map[dsys.ProcessID][]core.AppliedEntry{2: good, 3: good}, dsys.None, 0, 1},
		{"divergent survivors", map[dsys.ProcessID][]core.AppliedEntry{2: good, 3: {good[0], good[2], good[1]}}, 1, 1, 1},
		{"duplicate", map[dsys.ProcessID][]core.AppliedEntry{2: append(good[:2:2], good[0], good[2]), 3: append(good[:2:2], good[0], good[2])}, 1, 1, 1},
		{"wrong payload", map[dsys.ProcessID][]core.AppliedEntry{2: {entry(1, 2, 1, "zz")}, 3: {entry(1, 2, 1, "zz")}}, 1, 3, 1},
	} {
		o := newOutcome()
		lost := checkLogs(o, tc.name, tc.logs, []dsys.ProcessID{2, 3}, subs, tc.crashed)
		if lost != tc.wantLost || o.failed != tc.wantFailed {
			t.Errorf("%s: lost %d failed %d, want %d and %d (%v)", tc.name, lost, o.failed, tc.wantLost, tc.wantFailed, o.problems)
		}
	}
}
