package rbcast_test

import (
	"testing"
	"time"

	"repro/internal/dsys"
	"repro/internal/rbcast"
)

// TestOutOfOrderSeqsDeliveredOnce injects one (origin, incarnation) stream's
// wire messages with Seqs shuffled and repeated — as relays over reordering
// links deliver them — and checks every Seq is delivered exactly once at
// every process, whatever order it first arrives in.
func TestOutOfOrderSeqsDeliveredOnce(t *testing.T) {
	log := &deliveryLog{}
	order := []int{5, 3, 9, 4, 1, 5, 2, 3, 8, 1, 7, 6, 9, 10, 2}
	k := setup(3, 4, reliable(), log, map[dsys.ProcessID]func(dsys.Proc, *rbcast.Module){
		3: func(p dsys.Proc, _ *rbcast.Module) {
			for _, s := range order {
				for _, q := range p.All() {
					p.Send(q, rbcast.Kind, rbcast.Wire{Origin: 7, Inc: 1, Seq: s, Payload: s})
				}
			}
		},
	})
	k.Run(time.Second)
	for _, id := range dsys.Pids(3) {
		count := map[any]int{}
		for _, d := range log.at(id) {
			if d.origin != 7 {
				t.Fatalf("%v delivered %+v from an unexpected origin", id, d)
			}
			count[d.payload]++
		}
		for s := 1; s <= 10; s++ {
			if count[s] != 1 {
				t.Errorf("%v delivered Seq %d %d times, want once", id, s, count[s])
			}
		}
		if len(count) != 10 {
			t.Errorf("%v delivered %d distinct Seqs, want 10: %v", id, len(count), count)
		}
	}
}

// TestHandlerChangesFromInsideHandler: each delivery runs the handlers
// registered when it began. A handler cancelled by an earlier handler of the
// same delivery still runs for it; a handler registered during a delivery
// first runs for the next one.
func TestHandlerChangesFromInsideHandler(t *testing.T) {
	var calls []string
	k := setup(1, 5, reliable(), &deliveryLog{}, map[dsys.ProcessID]func(dsys.Proc, *rbcast.Module){
		1: func(p dsys.Proc, m *rbcast.Module) {
			var cancelB, cancelA func()
			cancelA = m.OnDeliver(func(_ dsys.Proc, _ dsys.ProcessID, v any) {
				calls = append(calls, "a:"+v.(string))
				if v == "m1" {
					cancelB()
					cancelA() // cancelling itself mid-delivery is fine too
					m.OnDeliver(func(_ dsys.Proc, _ dsys.ProcessID, v any) {
						calls = append(calls, "c:"+v.(string))
					})
				}
			})
			cancelB = m.OnDeliver(func(_ dsys.Proc, _ dsys.ProcessID, v any) {
				calls = append(calls, "b:"+v.(string))
			})
			m.Broadcast(p, "m1")
			p.Sleep(10 * time.Millisecond)
			m.Broadcast(p, "m2")
		},
	})
	k.Run(time.Second)
	want := []string{"a:m1", "b:m1", "c:m2"}
	if len(calls) != len(want) {
		t.Fatalf("handler calls %v, want %v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("handler calls %v, want %v", calls, want)
		}
	}
}
