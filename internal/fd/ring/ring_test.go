package ring_test

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dsys"
	"repro/internal/fd/fdlab"
	"repro/internal/fd/ring"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/trace"
)

func run(t *testing.T, n int, seed int64, net network.Network, crashes map[dsys.ProcessID]time.Duration, runFor time.Duration) fdlab.Result {
	t.Helper()
	return fdlab.Run(fdlab.Setup{
		N:       n,
		Seed:    seed,
		Net:     net,
		Crashes: crashes,
		RunFor:  runFor,
		Build:   func(p dsys.Proc) any { return ring.Start(p, ring.Options{}) },
	})
}

func TestEventuallyConsistentNoCrashes(t *testing.T) {
	res := run(t, 6, 1, fdlab.PartialSync(100*time.Millisecond, 10*time.Millisecond), nil, 2*time.Second)
	v := res.Trace.EventuallyConsistent()
	if !v.Holds {
		t.Fatal("◇C properties do not hold")
	}
	if v.Witness != 1 {
		t.Errorf("leader = %v, want p1 (initial candidate, correct)", v.Witness)
	}
}

func TestLeaderMovesPastCrashedPrefix(t *testing.T) {
	crashes := map[dsys.ProcessID]time.Duration{
		1: 200 * time.Millisecond,
		2: 250 * time.Millisecond,
	}
	res := run(t, 6, 2, fdlab.PartialSync(0, 10*time.Millisecond), crashes, 3*time.Second)
	v := res.Trace.EventuallyConsistent()
	if !v.Holds {
		t.Fatal("◇C properties do not hold after leader crashes")
	}
	if v.Witness != 3 {
		t.Errorf("leader = %v, want p3 (first correct in ring order)", v.Witness)
	}
}

func TestAdjacentCrashBurstIsBridged(t *testing.T) {
	// p3, p4, p5 crash almost together: p6 must walk its monitoring back
	// across the whole gap via WATCH requests.
	crashes := map[dsys.ProcessID]time.Duration{
		3: 300 * time.Millisecond,
		4: 310 * time.Millisecond,
		5: 320 * time.Millisecond,
	}
	res := run(t, 8, 3, fdlab.PartialSync(0, 10*time.Millisecond), crashes, 4*time.Second)
	if v := res.Trace.StrongCompleteness(); !v.Holds {
		t.Fatal("strong completeness violated with adjacent crashes")
	}
	if v := res.Trace.EventuallyConsistent(); !v.Holds || v.Witness != 1 {
		t.Fatalf("◇C verdict %+v", v)
	}
}

func TestWrapAroundCrash(t *testing.T) {
	// Crash of p_n exercises the cyclic predecessor arithmetic at p1.
	crashes := map[dsys.ProcessID]time.Duration{5: 200 * time.Millisecond}
	res := run(t, 5, 4, fdlab.PartialSync(0, 10*time.Millisecond), crashes, 2*time.Second)
	if v := res.Trace.EventuallyConsistent(); !v.Holds || v.Witness != 1 {
		t.Fatalf("◇C verdict %+v", v)
	}
}

func TestSurvivesMaximalCrashes(t *testing.T) {
	// All but one process crash; the survivor must suspect everyone and
	// trust itself.
	crashes := map[dsys.ProcessID]time.Duration{
		1: 100 * time.Millisecond,
		2: 150 * time.Millisecond,
		4: 200 * time.Millisecond,
		5: 250 * time.Millisecond,
	}
	res := run(t, 5, 5, fdlab.PartialSync(0, 10*time.Millisecond), crashes, 3*time.Second)
	if v := res.Trace.EventuallyConsistent(); !v.Holds || v.Witness != 3 {
		t.Fatalf("◇C verdict %+v, want witness p3", v)
	}
	samples := res.Trace.Rec.Samples(3)
	last := samples[len(samples)-1]
	if last.Suspected.Len() != 4 {
		t.Errorf("survivor's final suspect set %v, want all four others", last.Suspected)
	}
}

func TestAccuracyRecoversFromPreGSTChaos(t *testing.T) {
	// Long asynchronous prefix with message loss before GST: false
	// suspicions happen, then adaptive timeouts and the WATCH protocol
	// restore a stable ring.
	net := network.PartiallySynchronous{
		GST:        600 * time.Millisecond,
		Delta:      10 * time.Millisecond,
		PreGST:     network.Uniform{Min: 0, Max: 120 * time.Millisecond},
		PreGSTLoss: 0.3,
	}
	res := run(t, 5, 6, net, map[dsys.ProcessID]time.Duration{4: 400 * time.Millisecond}, 6*time.Second)
	v := res.Trace.EventuallyConsistent()
	if !v.Holds {
		t.Fatal("◇C does not recover after pre-GST chaos")
	}
	if v.Witness != 1 {
		t.Errorf("leader = %v, want p1", v.Witness)
	}
}

func TestLinearMessageCost(t *testing.T) {
	// Steady state with no crashes: one beat per process per period and no
	// WATCH traffic at all.
	for _, n := range []int{4, 8, 16} {
		res := fdlab.Run(fdlab.Setup{
			N:    n,
			Seed: 7,
			Net:  network.Reliable{Latency: network.Fixed(time.Millisecond)},
			Build: func(p dsys.Proc) any {
				return ring.Start(p, ring.Options{Period: 10 * time.Millisecond})
			},
			RunFor: time.Second,
		})
		window := 500 * time.Millisecond
		periods := int(window / (10 * time.Millisecond))
		beats := res.Messages.SentBetween(400*time.Millisecond, 400*time.Millisecond+window, ring.KindBeat)
		if beats != periods*n {
			t.Errorf("n=%d: %d beats in %d periods, want %d", n, beats, periods, periods*n)
		}
		watches := res.Messages.SentBetween(400*time.Millisecond, 400*time.Millisecond+window, ring.KindWatch)
		if watches != 0 {
			t.Errorf("n=%d: %d WATCH messages in steady state, want 0", n, watches)
		}
	}
}

func TestCrashInfoPropagatesAroundRing(t *testing.T) {
	// After p3 crashes, every correct process eventually suspects it; the
	// information travels hop by hop, so it must arrive within O(n) periods
	// but is allowed to take several.
	n := 10
	crashAt := 300 * time.Millisecond
	res := fdlab.Run(fdlab.Setup{
		N:       n,
		Seed:    8,
		Net:     network.Reliable{Latency: network.Fixed(time.Millisecond)},
		Crashes: map[dsys.ProcessID]time.Duration{3: crashAt},
		Build: func(p dsys.Proc) any {
			return ring.Start(p, ring.Options{Period: 10 * time.Millisecond})
		},
		RunFor: 2 * time.Second,
	})
	for _, p := range res.Trace.CorrectIDs() {
		detected := time.Duration(-1)
		for _, s := range res.Trace.Rec.Samples(p) {
			if s.Suspected.Has(3) {
				detected = s.At
				break
			}
		}
		if detected < 0 {
			t.Fatalf("%v never suspected p3", p)
		}
		if detected > crashAt+time.Duration(n+5)*20*time.Millisecond {
			t.Errorf("%v detected crash only at %v", p, detected)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() string {
		res := run(t, 5, 99, fdlab.PartialSync(50*time.Millisecond, 10*time.Millisecond),
			map[dsys.ProcessID]time.Duration{2: 100 * time.Millisecond}, time.Second)
		out := ""
		for _, id := range res.Trace.CorrectIDs() {
			for _, s := range res.Trace.Rec.Samples(id) {
				out += s.Suspected.String() + s.Trusted.String()
			}
		}
		return out
	}
	if run() != run() {
		t.Error("ring detector runs diverged under identical seeds")
	}
}

// TestLeadershipDeferral exercises the fd.LeadershipDeferrer hook: while
// p1's readiness predicate is false, p1 marks itself in its beats, so p1
// itself and its beat recipient p2 (the process that must take over) skip it
// in Trusted(); p3 — one more hop away — still names p1, which is fine: the
// deferral only needs to move self-trust off the deferring process and onto
// exactly one caught-up successor. Once the predicate flips back, everyone
// converges on p1 again and the marks expire.
func TestLeadershipDeferral(t *testing.T) {
	var ready atomic.Bool
	col := trace.NewCollector()
	k := sim.New(sim.Config{N: 3, Network: network.Reliable{Latency: network.Fixed(time.Millisecond)}, Seed: 7, Trace: col})
	dets := make(map[dsys.ProcessID]*ring.Detector, 3)
	for _, id := range dsys.Pids(3) {
		id := id
		k.Spawn(id, "det", func(p dsys.Proc) {
			dets[id] = ring.Start(p, ring.Options{})
			if id == 1 {
				dets[id].SetReadiness(ready.Load)
			}
		})
	}
	type view struct{ t1, t2, t3 dsys.ProcessID }
	var during view
	k.ScheduleFunc(280*time.Millisecond, func(time.Duration) {
		during = view{dets[1].Trusted(), dets[2].Trusted(), dets[3].Trusted()}
	})
	k.ScheduleFunc(300*time.Millisecond, func(time.Duration) { ready.Store(true) })
	k.Run(600 * time.Millisecond)

	if during.t1 != 2 || during.t2 != 2 {
		t.Errorf("while deferring: p1 trusts %v, p2 trusts %v; want both to skip p1 and name p2", during.t1, during.t2)
	}
	if during.t3 != 1 {
		t.Errorf("while deferring: p3 trusts %v; the mark must not travel beyond one hop (want p1)", during.t3)
	}
	for _, id := range dsys.Pids(3) {
		if got := dets[id].Trusted(); got != 1 {
			t.Errorf("after readiness returned: %v trusts %v, want p1", id, got)
		}
	}
	for _, id := range dsys.Pids(3) {
		if got := dets[id].Suspected(); got.Len() != 0 {
			t.Errorf("deferral leaked into %v's suspect set: %v", id, got)
		}
	}
	// The beat payload is a cached slice shared by every beat until the
	// suspect set changes; the self-mark goes on a copy. Beats sent while
	// deferring carry it, and no beat sent after readiness returned does —
	// the logged payloads are the very slices that were sent, so a mark
	// written into the shared slice would show up here.
	marked, later := 0, 0
	for _, ev := range col.Events() {
		if ev.Kind != ring.KindBeat || ev.From != 1 {
			continue
		}
		hasMark := slices.Contains(ev.Payload.([]dsys.ProcessID), 1)
		switch {
		case ev.At < 300*time.Millisecond:
			if hasMark {
				marked++
			}
		case ev.At >= 310*time.Millisecond:
			later++
			if hasMark {
				t.Errorf("beat sent at %v after readiness returned still carries p1's self-mark", ev.At)
			}
		}
	}
	if marked == 0 || later == 0 {
		t.Fatalf("saw %d self-marked beats while deferring and %d beats after; want both > 0", marked, later)
	}
}

// TestHostileBeatIDsIgnored injects ring beats whose suspect lists name IDs
// outside 1..n — the live transports validate a message's From but not the
// IDs inside its payload. Every forged beat comes from the recipient's ring
// predecessor, so it is adopted as upstream truth; the out-of-range IDs must
// neither panic the detector nor appear in any output.
func TestHostileBeatIDsIgnored(t *testing.T) {
	const n = 4
	k := sim.New(sim.Config{N: n, Network: network.Reliable{Latency: network.Fixed(time.Millisecond)}, Seed: 3})
	dets := make([]*ring.Detector, n+1)
	hostile := []dsys.ProcessID{0, -1, n + 1, 64, 1 << 30, -(1 << 30)}
	for _, id := range dsys.Pids(n) {
		k.Spawn(id, "det", func(p dsys.Proc) { dets[id] = ring.Start(p, ring.Options{}) })
		succ := dsys.ProcessID(int(id)%n + 1)
		k.SpawnTickLoop(id, "forge", dsys.TickLoop{Period: 3 * time.Millisecond, Fn: func(p dsys.Proc) {
			p.Send(succ, ring.KindBeat, hostile)
		}})
	}
	var errs []string
	k.Every(time.Millisecond, time.Millisecond, func(now time.Duration) {
		for _, id := range dsys.Pids(n) {
			if s := dets[id].Suspected(); s.Len() != 0 {
				errs = append(errs, fmt.Sprintf("%v: %v suspects %v", now, id, s))
			}
			if l := dets[id].Trusted(); l != 1 {
				errs = append(errs, fmt.Sprintf("%v: %v trusts %v", now, id, l))
			}
		}
	})
	k.Run(500 * time.Millisecond)
	if len(errs) > 0 {
		t.Fatalf("forged out-of-range IDs reached the output (%d samples), first: %s", len(errs), errs[0])
	}
}
