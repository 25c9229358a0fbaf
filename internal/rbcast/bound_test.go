package rbcast

import (
	"testing"
	"time"

	"repro/internal/dsys"
	"repro/internal/network"
	"repro/internal/sim"
)

// TestDedupStateStaysBounded: after 10k broadcasts from 3 origins over
// reordering links, each module's dedup state is one run per origin stream —
// O(origins), not O(broadcasts).
func TestDedupStateStaysBounded(t *testing.T) {
	const n, total = 3, 10_000
	k := sim.New(sim.Config{N: n, Seed: 6, Network: network.Reliable{
		Latency: network.Uniform{Min: time.Millisecond, Max: 5 * time.Millisecond},
	}})
	mods := make([]*Module, n+1)
	delivered := make([]int, n+1)
	for _, id := range dsys.Pids(n) {
		id := id
		k.Spawn(id, "bcast", func(p dsys.Proc) {
			m := Start(p)
			mods[id] = m
			m.OnDeliver(func(dsys.Proc, dsys.ProcessID, any) { delivered[id]++ })
			for i := int(id); i <= total; i += n {
				m.Broadcast(p, i)
				if i%(10*n) == 0 {
					p.Sleep(time.Millisecond)
				}
			}
		})
	}
	k.Run(10 * time.Second)
	for _, id := range dsys.Pids(n) {
		if delivered[id] != total {
			t.Fatalf("%v delivered %d of %d broadcasts", id, delivered[id], total)
		}
		m := mods[id]
		m.mu.Lock()
		streams, runs := len(m.delivered), 0
		for _, s := range m.delivered {
			runs += s.Runs()
		}
		m.mu.Unlock()
		if streams != n || runs != n {
			t.Errorf("%v dedup state: %d streams, %d runs; want %d and %d", id, streams, runs, n, n)
		}
	}
}
