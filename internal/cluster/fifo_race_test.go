package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/dsys"
	"repro/internal/fd/ring"
	"repro/internal/tcpnet"
)

// TestSubmitDuringApplyKeepsOriginFIFO hammers Submit from external
// goroutines while the replicas' mesh tasks are deciding and applying
// earlier batches, with batching and pipelining on. Per-origin FIFO must
// hold at every replica: an origin's commands appear in strictly increasing
// Seq order, no matter how submissions interleave with in-flight applies.
// Reader goroutines poll Applied, AppliedValues and AppliedCount throughout:
// applied records share the decided batches' command slices, so any write
// to a batch after it was proposed would race with those reads.
// This file lives in internal/cluster so CI's -race job covers it (the sim
// runtime in internal/core is single-threaded by construction; the race
// surface is Submit and the log readers vs the live apply path).
func TestSubmitDuringApplyKeepsOriginFIFO(t *testing.T) {
	const (
		n          = 3
		submitters = 4
		perWorker  = 60
	)
	m, err := tcpnet.New(tcpnet.Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	var repsMu sync.Mutex
	reps := make(map[dsys.ProcessID]*core.Replica)
	getRep := func(id dsys.ProcessID) *core.Replica {
		repsMu.Lock()
		defer repsMu.Unlock()
		return reps[id]
	}
	ready := make(chan struct{}, n)
	for _, id := range dsys.Pids(n) {
		id := id
		m.Spawn(id, "replica", func(p dsys.Proc) {
			r := core.StartReplica(p, core.Config{
				Ring:      ring.Options{Period: 5 * time.Millisecond},
				Consensus: consensus.Options{Poll: 2 * time.Millisecond},
				// Small batches so applies of earlier batches overlap many
				// later Submits instead of one batch swallowing everything.
				MaxBatch: 4,
				Pipeline: 4,
			})
			repsMu.Lock()
			reps[id] = r
			repsMu.Unlock()
			ready <- struct{}{}
			p.Sleep(time.Hour)
		})
	}
	for i := 0; i < n; i++ {
		<-ready
	}
	// Readers: each view grows monotonically, is read in the order count ->
	// entries -> values so each read can only see more than the one before,
	// and every Applied snapshot must be a prefix of the final log.
	total := submitters * perWorker
	stop := make(chan struct{})
	var readers sync.WaitGroup
	snaps := make(map[dsys.ProcessID][]core.AppliedEntry)
	var snapsMu sync.Mutex
	for _, id := range dsys.Pids(n) {
		id := id
		readers.Add(1)
		go func() {
			defer readers.Done()
			r := getRep(id)
			var last []core.AppliedEntry
			for {
				select {
				case <-stop:
					snapsMu.Lock()
					snaps[id] = last
					snapsMu.Unlock()
					return
				default:
				}
				c := r.AppliedCount()
				a := r.Applied()
				v := r.AppliedValues()
				if len(a) < c || len(v) < len(a) || len(a) < len(last) || len(a) > total {
					t.Errorf("%v views out of step: count %d, entries %d (previous %d), values %d", id, c, len(a), len(last), len(v))
					return
				}
				for i := range a {
					if v[i] != a[i].Cmd.Payload {
						t.Errorf("%v AppliedValues[%d] = %v, Applied has %v", id, i, v[i], a[i].Cmd.Payload)
						return
					}
				}
				last = a
				time.Sleep(time.Millisecond)
			}
		}()
	}
	// Several goroutines submit concurrently at p1 (plus one at p2 so slots
	// carry competing origins); total command count is fixed and known.
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			origin := dsys.ProcessID(1)
			if w == submitters-1 {
				origin = 2
			}
			for i := 0; i < perWorker; i++ {
				getRep(origin).Submit(fmt.Sprintf("w%d-%d", w, i))
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(60 * time.Second)
	for {
		done := true
		for _, id := range dsys.Pids(n) {
			if getRep(id).AppliedCount() < total {
				done = false
				break
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			close(stop)
			readers.Wait()
			t.Fatalf("logs did not converge: p1=%d p2=%d p3=%d of %d",
				len(getRep(1).Applied()), len(getRep(2).Applied()), len(getRep(3).Applied()), total)
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	readers.Wait()
	// Identical logs everywhere; per-origin Seq strictly increasing; every
	// reader's last snapshot a prefix of the log.
	ref := getRep(1).Applied()
	for id, snap := range snaps {
		for i, e := range snap {
			if e != ref[i] {
				t.Fatalf("%v reader snapshot diverges at %d: %+v vs %+v", id, i, e, ref[i])
			}
		}
	}
	for _, id := range dsys.Pids(n) {
		got := getRep(id).Applied()
		if len(got) != total {
			t.Fatalf("%v applied %d, want %d", id, len(got), total)
		}
		lastSeq := map[dsys.ProcessID]int64{}
		for i, e := range got {
			if e.Cmd != ref[i].Cmd {
				t.Fatalf("%v log diverges at %d: %+v vs %+v", id, i, e.Cmd, ref[i].Cmd)
			}
			if prev, ok := lastSeq[e.Cmd.Origin]; ok && e.Cmd.Seq <= prev {
				t.Fatalf("%v origin %v out of FIFO at %d: seq %d after %d", id, e.Cmd.Origin, i, e.Cmd.Seq, prev)
			}
			lastSeq[e.Cmd.Origin] = e.Cmd.Seq
		}
	}
}
