package live_test

// Regression tests for concurrency bugs in the live runtime. All of them
// are meant to run under -race (see the CI workflow): the old code either
// deadlocked (RecvTimeout lost wakeup), panicked (Crash/Stop double close
// of the done channel), or leaked timers (Sleep via time.After).

import (
	"sync"
	"testing"
	"time"

	"repro/internal/dsys"
	"repro/internal/fd"
	"repro/internal/fd/ring"
	"repro/internal/fd/transform"
	"repro/internal/live"
	"repro/internal/network"
	"repro/internal/trace"
)

// TestRecvTimeoutWakeupNotLost hammers the window between the deadline
// check and cond.Wait: with the timer callback broadcasting without the
// process lock, a wakeup firing in that window was lost and the call
// blocked until an unrelated message arrived — here, forever.
func TestRecvTimeoutWakeupNotLost(t *testing.T) {
	c := live.NewCluster(live.Config{N: 1, Network: fastNet()})
	defer c.Stop()
	const waiters = 8
	const rounds = 150
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		c.Spawn(1, "waiter", func(p dsys.Proc) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Tiny, varying timeouts maximize the chance the timer
				// fires exactly between the deadline check and the wait.
				d := time.Duration(r%5) * 100 * time.Microsecond
				if _, ok := p.RecvTimeout(dsys.MatchKind("never"), d); ok {
					t.Error("impossible receive")
					return
				}
			}
		})
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("RecvTimeout lost a wakeup: waiters blocked past their deadlines")
	}
}

// TestCrashStopConcurrentNoDoubleClose races Crash against Stop. The old
// code decided to close(p.done) after releasing p.mu, so both sides could
// see "not yet closed" and close the channel twice — a panic.
func TestCrashStopConcurrentNoDoubleClose(t *testing.T) {
	for i := 0; i < 300; i++ {
		c := live.NewCluster(live.Config{N: 2, Network: fastNet(), Trace: trace.NewCollector()})
		c.Spawn(1, "blocked", func(p dsys.Proc) {
			p.Recv(dsys.MatchKind("never"))
		})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); c.Crash(1) }()
		go func() { defer wg.Done(); c.Stop() }()
		wg.Wait()
		if !c.Crashed(1) {
			t.Fatal("crash lost")
		}
	}
}

// TestCrashAfterStopDoesNotPanic covers the sequential variant of the same
// bug: Stop closes every done channel; a later Crash must not close again.
func TestCrashAfterStopDoesNotPanic(t *testing.T) {
	c := live.NewCluster(live.Config{N: 1, Network: fastNet()})
	c.Stop()
	c.Crash(1)
	if !c.Crashed(1) {
		t.Fatal("crash after stop not recorded")
	}
}

// TestStopDuringManySleeps exercises Sleep's timer path (now a stoppable
// timer instead of a leaked time.After) under concurrent unwinding.
func TestStopDuringManySleeps(t *testing.T) {
	c := live.NewCluster(live.Config{N: 1, Network: fastNet()})
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		c.Spawn(1, "sleeper", func(p dsys.Proc) {
			defer wg.Done()
			for {
				p.Sleep(time.Hour) // unwound by Stop; the timer must be reclaimed
			}
		})
	}
	time.Sleep(5 * time.Millisecond)
	done := make(chan struct{})
	go func() { c.Stop(); wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("sleepers did not unwind")
	}
}

// TestRandUint64Path verifies the locked source serves the Source64 fast
// path (Uint64-backed draws) correctly and concurrently.
func TestRandUint64Path(t *testing.T) {
	c := live.NewCluster(live.Config{N: 1, Network: fastNet(), Seed: 9})
	defer c.Stop()
	done := make(chan bool, 2)
	for i := 0; i < 2; i++ {
		c.Spawn(1, "u64", func(p dsys.Proc) {
			r := p.Rand()
			varied := false
			prev := r.Uint64()
			for j := 0; j < 1000; j++ {
				v := r.Uint64()
				if v != prev {
					varied = true
				}
				prev = v
				r.Float64() // Uint64-backed in math/rand when Source64 is implemented
			}
			done <- varied
		})
	}
	for i := 0; i < 2; i++ {
		select {
		case varied := <-done:
			if !varied {
				t.Error("Uint64 stream constant")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("rand tasks hung")
		}
	}
}

// TestDelayTimersStoppedOnStop is the leak regression for delayed Sends:
// time.AfterFunc delivery timers used to stay live after Stop, firing their
// callbacks into a shut-down cluster. Now Stop cancels them all, and no
// delivery is recorded after Stop returns.
func TestDelayTimersStoppedOnStop(t *testing.T) {
	col := trace.NewCollector()
	slow := network.Reliable{Latency: network.Fixed(200 * time.Millisecond)}
	c := live.NewCluster(live.Config{N: 2, Network: slow, Trace: col})
	started := make(chan struct{})
	c.Spawn(1, "burst", func(p dsys.Proc) {
		for i := 0; i < 64; i++ {
			p.Send(2, "slow", i)
		}
		close(started)
		p.Sleep(time.Hour)
	})
	<-started
	if n := c.PendingDelayTimers(); n == 0 {
		t.Fatal("expected pending delay timers while messages are in flight")
	}
	c.Stop()
	if n := c.PendingDelayTimers(); n != 0 {
		t.Fatalf("%d delay timers still pending after Stop", n)
	}
	delivered := col.Delivered("slow")
	time.Sleep(300 * time.Millisecond) // past the network latency
	if after := col.Delivered("slow"); after != delivered {
		t.Fatalf("deliveries kept arriving after Stop: %d -> %d", delivered, after)
	}
}

// TestDelayTimersStoppedOnCrash verifies Crash cancels the in-flight timers
// aimed at the crashed process (their deliveries would be discarded anyway)
// while leaving other destinations' timers running.
func TestDelayTimersStoppedOnCrash(t *testing.T) {
	col := trace.NewCollector()
	slow := network.Reliable{Latency: network.Fixed(150 * time.Millisecond)}
	c := live.NewCluster(live.Config{N: 3, Network: slow, Trace: col})
	defer c.Stop()
	sent := make(chan struct{})
	c.Spawn(1, "burst", func(p dsys.Proc) {
		for i := 0; i < 32; i++ {
			p.Send(2, "doomed", i)
			p.Send(3, "kept", i)
		}
		close(sent)
		p.Sleep(time.Hour)
	})
	<-sent
	before := c.PendingDelayTimers()
	c.Crash(2)
	after := c.PendingDelayTimers()
	if after >= before {
		t.Fatalf("Crash(2) stopped no timers: %d -> %d pending", before, after)
	}
	deadline := time.Now().Add(5 * time.Second)
	for col.Delivered("kept") < 32 {
		if time.Now().After(deadline) {
			t.Fatalf("survivor deliveries incomplete: %d of 32", col.Delivered("kept"))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := col.Delivered("doomed"); got != 0 {
		t.Fatalf("%d messages delivered to the crashed process", got)
	}
}

// TestDetectorQueriesConcurrentWithCrashes runs ring ◇C with the Fig. 2
// transformation on real goroutines while other goroutines hammer
// Suspected() and Trusted(), and crashes hit the leader and a follower.
// Under -race it covers the cached suspect-list payload: a sender shares one
// slice with every receiver goroutine until its suspect set changes, so
// nobody may write to it after publication. The snapshots Suspected()
// returns belong to the caller, so the queriers modify them. A lossy first
// stretch makes suspect sets grow and shrink, so payloads are rebuilt while
// earlier ones are still being read. Delivery goes through a Transport that
// injects directly: the in-memory network path serializes every send on one
// cluster lock, which would order a receiver's read before the sender's
// next write and hide exactly the race this test looks for.
func TestDetectorQueriesConcurrentWithCrashes(t *testing.T) {
	const n = 6
	const chaos = 400 * time.Millisecond
	var c *live.Cluster
	start := time.Now()
	deliver := func(m dsys.Message) {
		// Drop about three in eight sends during the chaos stretch, decided
		// by a hash of the send time so senders share no state.
		if h := uint64(m.SentAt) * 0x9e3779b97f4a7c15; time.Since(start) < chaos && h>>61 < 3 {
			return
		}
		c.Inject(&m)
	}
	c = live.NewCluster(live.Config{N: n, Transport: deliver})
	defer c.Stop()
	rings := make([]*ring.Detector, n+1)
	tps := make([]*transform.Detector, n+1)
	started := make(chan struct{}, n)
	for _, id := range dsys.Pids(n) {
		c.Spawn(id, "fd", func(p dsys.Proc) {
			rings[id] = ring.Start(p, ring.Options{Period: 5 * time.Millisecond})
			tps[id] = transform.Start(p, rings[id], transform.Options{Period: 5 * time.Millisecond})
			started <- struct{}{}
		})
	}
	for range n {
		<-started
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := dsys.ProcessID(i%n + 1)
				s := tps[id].Suspected()
				s.Add(n)
				r := rings[id].Suspected()
				r.Remove(1)
				_ = rings[id].Trusted()
			}
		}()
	}
	time.Sleep(chaos + 30*time.Millisecond)
	c.Crash(1)
	time.Sleep(15 * time.Millisecond)
	c.Crash(4)
	want := fd.NewSet(1, 4)
	deadline := time.Now().Add(20 * time.Second)
	for {
		converged := true
		for _, id := range []dsys.ProcessID{2, 3, 5, 6} {
			if !tps[id].Suspected().Equal(want) || rings[id].Trusted() != 2 {
				converged = false
			}
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivors did not converge on suspects %v and leader p2", want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
}
