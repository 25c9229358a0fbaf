package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dsys"
	"repro/internal/fd/fdtest"
	"repro/internal/network"
)

// TestDedupAppliesEachCommandOnce injects decided slots whose batches
// overlap in every way the apply path must deduplicate exactly:
//
//   - slot 2 is partly a duplicate of slot 1 and holds one command twice, so
//     its applied record is a filtered copy of the decided batch;
//   - slot 3 is nothing but duplicates, so it applies nothing;
//   - both origins (9 and 12) lie outside 1..n;
//   - origin 9's Seqs jump across a simulated restart (a wall-clock SeqBase)
//     and then an old-life Seq arrives late, which a high-water mark would
//     wrongly drop.
//
// Every view of the log — Applied, AppliedValues, AppliedCount and the Apply
// callback sequence — must agree on exactly-once, in decided order, and the
// decided batches themselves must come out unmodified.
func TestDedupAppliesEachCommandOnce(t *testing.T) {
	const heal = 100 * time.Millisecond
	// Only state-transfer chunks pass before heal, so nothing but the
	// injected decisions can fill the first slots.
	under := network.Reliable{Latency: network.Fixed(time.Millisecond)}
	net := network.Func(func(from, to dsys.ProcessID, kind string, now time.Duration, rng *rand.Rand) (time.Duration, bool) {
		if now < heal && kind != core.KindState {
			return 0, true // drop
		}
		return under.Plan(from, to, kind, now, rng)
	})
	const restart = 1_700_000_000_000_000_000
	a := func(seq int64) core.Command {
		return core.Command{Origin: 9, Seq: seq, Payload: fmt.Sprintf("a%d", seq)}
	}
	b := func(seq int64) core.Command {
		return core.Command{Origin: 12, Seq: seq, Payload: fmt.Sprintf("b%d", seq)}
	}
	batches := [][]core.Command{
		1: {a(1), a(2), b(5)},
		2: {a(2), a(3), a(3), b(6)},
		3: {a(1), b(5)},
		4: {a(restart + 1), a(restart + 2), a(4), a(2)},
		5: {a(restart + 1), b(7)},
	}
	want := []core.AppliedEntry{
		{Slot: 1, Cmd: a(1)}, {Slot: 1, Cmd: a(2)}, {Slot: 1, Cmd: b(5)},
		{Slot: 2, Cmd: a(3)}, {Slot: 2, Cmd: b(6)},
		{Slot: 4, Cmd: a(restart + 1)}, {Slot: 4, Cmd: a(restart + 2)}, {Slot: 4, Cmd: a(4)},
		{Slot: 5, Cmd: b(7)},
	}
	pristine := make([][]core.Command, len(batches))
	var entries []core.StateEntry
	for s := 1; s < len(batches); s++ {
		pristine[s] = slices.Clone(batches[s])
		entries = append(entries, core.StateEntry{Slot: s, Round: 1, Batch: core.Batch{Cmds: batches[s]}})
	}

	dets := fdtest.NewCluster(3, 1)
	callbacks := map[dsys.ProcessID][]core.AppliedEntry{}
	k, reps, _ := cluster(3, 31, net, func(id dsys.ProcessID) core.Config {
		return core.Config{Detector: dets.At(id), Apply: func(slot int, cmd core.Command) {
			callbacks[id] = append(callbacks[id], core.AppliedEntry{Slot: slot, Cmd: cmd})
		}}
	})
	k.Spawn(1, "injector", func(p dsys.Proc) {
		p.Sleep(30 * time.Millisecond)
		for _, q := range p.All() {
			p.Send(q, core.KindState, core.State{From: 1, High: len(batches) - 1, Entries: entries})
		}
	})
	k.ScheduleFunc(heal+20*time.Millisecond, func(time.Duration) { reps[1].Submit("post") })
	k.Run(2 * time.Second)

	for _, id := range dsys.Pids(3) {
		got := reps[id].Applied()
		if n := len(got); n != len(want)+1 || got[n-1].Cmd.Payload != "post" || got[n-1].Slot != len(batches) {
			t.Fatalf("%v applied %v, want %v then post@%d", id, got, want, len(batches))
		}
		got = got[:len(want)]
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v applied\n %v\nwant\n %v", id, got, want)
		}
		full := reps[id].Applied()
		if cb := callbacks[id]; !reflect.DeepEqual(cb, full) {
			t.Errorf("%v Apply callbacks %v, Applied %v", id, cb, full)
		}
		vals := reps[id].AppliedValues()
		if len(vals) != len(full) {
			t.Fatalf("%v AppliedValues has %d entries, Applied %d", id, len(vals), len(full))
		}
		for i, v := range vals {
			if v != full[i].Cmd.Payload {
				t.Fatalf("%v AppliedValues[%d] = %v, Applied has %v", id, i, v, full[i].Cmd.Payload)
			}
		}
		if c := reps[id].AppliedCount(); c != len(full) {
			t.Errorf("%v AppliedCount() = %d, len(Applied()) = %d", id, c, len(full))
		}
	}
	for s := 1; s < len(batches); s++ {
		if !reflect.DeepEqual(batches[s], pristine[s]) {
			t.Errorf("decided batch of slot %d was written: %v, proposed %v", s, batches[s], pristine[s])
		}
	}
}

// TestAppliedIsACopy: the slices Applied and AppliedValues return belong to
// the caller; writing them must not reach the replica's log.
func TestAppliedIsACopy(t *testing.T) {
	k, reps, _ := cluster(3, 32, reliable(), nil)
	k.ScheduleFunc(10*time.Millisecond, func(time.Duration) {
		reps[1].Submit("a")
		reps[1].Submit("b")
	})
	k.Run(time.Second)
	got := reps[2].Applied()
	vals := reps[2].AppliedValues()
	if len(got) != 2 || len(vals) != 2 {
		t.Fatalf("applied %v / %v, want two commands", got, vals)
	}
	got[0].Cmd.Payload, vals[1] = "clobbered", "clobbered"
	if again := reps[2].AppliedValues(); !reflect.DeepEqual(again, []any{"a", "b"}) {
		t.Fatalf("caller's writes reached the log: %v", again)
	}
}
