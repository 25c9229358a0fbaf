package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/dsys"
	"repro/internal/fd/ring"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/trace"
)

// log-sim: five replicas of the replicated log (core defaults: batch 64,
// pipeline 4) over ring ◇C on the simulator, links uniform 1–3ms. An open
// loop in virtual time submits 3000 cmds/s with seed-drawn exponential gaps,
// round-robin over origins; the initial leader p1 crashes at mid-load and
// its share goes to the survivors from then on. An op is one command.
const (
	lsN         = 5
	lsPeriod    = 10 * time.Millisecond // ring heartbeat period
	lsRate      = 3000.0                // commands per virtual second
	lsLoadStart = 100 * time.Millisecond
	lsLoad      = 20 * time.Second // virtual load duration per round
	lsDrain     = 2 * time.Second  // quiet tail so every command can commit
	lsGapWindow = time.Second      // failover gap is sought in [crash, crash+window]
	// lsCountWindow is the steady-state window, just before the crash, over
	// which a traced round counts detector messages per period.
	lsCountWindow = time.Second
)

func lsRounds(seconds int) int { return max(2, seconds/3) }

func runLogSim(p params) (*outcome, error) {
	o := newOutcome()
	rng := rand.New(rand.NewSource(p.seed))
	var lat latencies
	for r := 0; r < roundsFor(p, lsRounds(p.seconds)); r++ {
		// A set-up takes about a millisecond, so one taken at a single
		// moment mostly measures the host's state then: the run spreads
		// its set-ups over all its rounds.
		for i := 0; i < lsSetupsPerRound; i++ {
			o.round("setup_s", lsSetup(rng.Int63()).Seconds())
		}
		lsRound(o, rng, &lat, tracedRound(p, r))
	}
	o.medianOfRounds()
	if p.traced {
		if err := finishTraced(o, rng, o.values["run_wall_s"], o.values["traced_run_wall_s"]); err != nil {
			return nil, err
		}
	} else {
		o.addPercentiles(&lat)
	}
	fillBypassed(o, "tcpnet")
	o.set("fd.transform_msgs_per_period", 0)
	return o, nil
}

// setupRepeats is how many times a run measures set-up.
const setupRepeats = 11

// lsSetupsPerRound is how many set-ups log-sim measures before each round.
const lsSetupsPerRound = 3

// lsSetup builds the five-replica kernel and runs it to the instant the load
// starts — replicas and detectors started, links warm — the set-up cost of
// a log-sim round.
func lsSetup(seed int64) time.Duration {
	settle()
	start := time.Now()
	k, _, _ := lsKernel(seed, nil, nil, nil)
	k.Run(lsLoadStart)
	return time.Since(start)
}

// lsKernel builds the log-sim kernel. col and probe are set on traced
// rounds only; apply hands each replica its Apply callback.
func lsKernel(seed int64, col *trace.Collector, probe *consensus.RoundProbe, apply func(id dsys.ProcessID) func(int, core.Command)) (*sim.Kernel, []*core.Replica, []*ring.Detector) {
	cfg := sim.Config{N: lsN, Seed: seed, Network: network.Reliable{
		Latency: network.Uniform{Min: time.Millisecond, Max: 3 * time.Millisecond},
	}}
	if col != nil {
		cfg.Trace = col
	}
	k := sim.New(cfg)
	reps := make([]*core.Replica, lsN+1)
	dets := make([]*ring.Detector, lsN+1)
	for _, id := range dsys.Pids(lsN) {
		k.Spawn(id, "replica", func(pr dsys.Proc) {
			dets[id] = ring.Start(pr, ring.Options{Period: lsPeriod})
			c := core.Config{Detector: dets[id]}
			if apply != nil {
				c.Apply = apply(id)
			}
			c.Consensus.RoundProbe = probe
			reps[id] = core.StartReplica(pr, c)
		})
	}
	return k, reps, dets
}

func lsRound(o *outcome, rng *rand.Rand, lat *latencies, traced bool) {
	seed := rng.Int63()
	load := rand.New(rand.NewSource(rng.Int63()))
	// The crash instant is drawn within one detector period so the run
	// samples where it falls between heartbeats.
	crashAt := lsLoadStart + lsLoad/2 + time.Duration(load.Int63n(int64(lsPeriod)))
	horizon := lsLoadStart + lsLoad + lsDrain

	var col *trace.Collector
	var probe *consensus.RoundProbe
	if traced {
		col = trace.NewCollector()
		col.LogMessages = false
		col.SetCountWindow(crashAt-lsCountWindow, crashAt)
		probe = &consensus.RoundProbe{}
	}
	var k *sim.Kernel
	subs := submissions{}
	submitAt := map[dsys.ProcessID][]time.Duration{}
	// Commit bookkeeping: a slot commits when the first survivor applies it.
	maxSlot, lastCommit, maxGap := 0, crashAt, time.Duration(0)
	gapEnd := crashAt + lsGapWindow
	type key struct {
		origin dsys.ProcessID
		seq    int64
	}
	var applyTimes map[key][2]time.Duration // traced: first and last apply
	if traced {
		applyTimes = map[key][2]time.Duration{}
	}
	apply := func(id dsys.ProcessID) func(int, core.Command) {
		return func(slot int, c core.Command) {
			now := k.Now()
			if c.Origin == id && !traced {
				lat.add(now - submitAt[id][c.Seq-1])
			}
			if id != 1 && slot > maxSlot {
				maxSlot = slot
				if now > crashAt && now <= gapEnd {
					maxGap = max(maxGap, now-lastCommit)
					lastCommit = now
				}
			}
			if traced {
				kk := key{c.Origin, c.Seq}
				t, seen := applyTimes[kk]
				if !seen {
					t[0] = now
				}
				t[1] = now
				applyTimes[kk] = t
			}
		}
	}
	k, reps, dets := lsKernel(seed, col, probe, apply)
	k.CrashAt(1, crashAt)

	// Open-loop load: each arrival submits at its origin and schedules the
	// next; the origin rotates, skipping p1 once it has crashed.
	origin := dsys.ProcessID(1 + load.Intn(lsN))
	var submitNS []float64
	var arrive func(now time.Duration)
	arrive = func(now time.Duration) {
		if now >= crashAt && origin == 1 {
			origin = 2
		}
		payload := fmt.Sprintf("%016x", load.Uint64())
		var t0 time.Time
		if traced {
			t0 = time.Now()
		}
		reps[origin].Submit(payload)
		if traced {
			submitNS = append(submitNS, float64(time.Since(t0).Nanoseconds()))
		}
		subs[origin] = append(subs[origin], payload)
		submitAt[origin] = append(submitAt[origin], now)
		origin = origin%lsN + 1
		next := now + time.Duration(load.ExpFloat64()/lsRate*float64(time.Second))
		if next < lsLoadStart+lsLoad {
			k.ScheduleFunc(next, arrive)
		}
	}
	k.ScheduleFunc(lsLoadStart, arrive)

	// Detection: from the crash, until every survivor's ring suspects p1.
	// Polls run on the absolute 1ms grid, not one anchored at the crash.
	detectAt := time.Duration(-1)
	k.Every(crashAt.Truncate(time.Millisecond)+time.Millisecond, time.Millisecond, func(now time.Duration) {
		if detectAt >= 0 {
			return
		}
		for id := 2; id <= lsN; id++ {
			if !dets[id].Suspected().Has(1) {
				return
			}
		}
		detectAt = now
	})
	var leaderChanges, pendingMax int
	var queryNS []float64
	if traced {
		last := make([]dsys.ProcessID, lsN+1)
		k.Every(lsLoadStart, time.Millisecond, func(now time.Duration) {
			start := time.Now()
			for id := 1; id <= lsN; id++ {
				if !k.Crashed(dsys.ProcessID(id)) {
					_ = dets[id].Suspected()
				}
			}
			queryNS = append(queryNS, float64(time.Since(start).Nanoseconds())/lsN)
			for id := 1; id <= lsN; id++ {
				if k.Crashed(dsys.ProcessID(id)) {
					continue
				}
				if l := dets[id].Trusted(); l != last[id] {
					if last[id] != dsys.None {
						leaderChanges++
					}
					last[id] = l
				}
				pendingMax = max(pendingMax, reps[id].PendingCount())
			}
		})
	}

	settle()
	var ms0, ms1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	heap := startHeapSampler()
	rt0 := readRuntime()
	start := time.Now()
	k.Run(horizon)
	wall := time.Since(start)
	rt := readRuntime().sub(rt0)
	peak := heap.finish()
	if traced {
		runtime.ReadMemStats(&ms1)
	}
	if lastCommit < gapEnd {
		maxGap = max(maxGap, gapEnd-lastCommit)
	}

	logs := map[dsys.ProcessID][]core.AppliedEntry{}
	for id := 1; id <= lsN; id++ {
		logs[dsys.ProcessID(id)] = reps[id].Applied()
	}
	lost := checkLogs(o, "log-sim", logs, []dsys.ProcessID{2, 3, 4, 5}, subs, 1)
	var submitted int64
	for _, s := range subs {
		submitted += int64(len(s))
	}
	// A command pending at the crashed origin when it crashed has no
	// defined outcome in the crash model; it is counted apart, not as a
	// failed op (see README.md).
	o.attempted += submitted - lost
	o.extra["lost_with_crash"] += float64(lost)
	if detectAt < 0 {
		o.problemf("log-sim: survivors never all suspected the crashed leader")
	}
	committed := float64(len(logs[2]))
	if !traced {
		o.round("run_wall_s", wall.Seconds())
		o.round("committed_ops_s", committed/wall.Seconds())
		o.round("failover_gap_ms", float64(maxGap)/1e6)
		o.round("detect_ms", float64(detectAt-crashAt)/1e6)
		o.round("peak_heap_mb", peak)
		return
	}
	events := float64(k.Events())
	slots := 0
	if l := logs[2]; len(l) > 0 {
		slots = l[len(l)-1].Slot
	}
	o.round("traced_run_wall_s", wall.Seconds())
	o.round("sim.events", events)
	o.round("sim.events_per_s", events/wall.Seconds())
	o.round("sim.allocs_per_event", float64(ms1.Mallocs-ms0.Mallocs)/events)
	o.round("sim.bytes_per_event", float64(ms1.TotalAlloc-ms0.TotalAlloc)/events)
	o.round("fd.ring_msgs_per_period", float64(col.SentWithin(ring.KindBeat, ring.KindWatch))/float64(lsCountWindow/lsPeriod))
	o.round("fd.query_ns", median(queryNS))
	falseSusp := 0
	for id := 2; id <= lsN; id++ {
		falseSusp += dets[id].FalseSuspicions()
	}
	o.round("fd.false_suspicions", float64(falseSusp))
	o.round("fd.leader_changes", float64(leaderChanges))
	rb, cc := sentWithPrefix(col, "rb."), sentWithPrefix(col, "cec.")
	o.round("rbcast.msgs_per_slot", float64(rb)/float64(slots))
	o.round("cec.msgs_per_slot", float64(cc)/float64(slots))
	o.round("cec.max_round", float64(probe.Max()))
	o.round("core.cmds_per_slot", committed/float64(slots))
	o.round("core.slots_per_s", float64(slots)/horizon.Seconds())
	o.round("core.submit_ns", median(submitNS))
	o.round("core.pending_max", float64(pendingMax))
	var lags []float64
	for _, t := range applyTimes {
		lags = append(lags, float64(t[1]-t[0])/1e6)
	}
	o.round("core.replica_lag_ms", median(lags))
	o.round("runtime.gc_cpu_share", rt.gcShare())
	o.round("runtime.alloc_bytes_per_op", rt.allocBytes/committed)
}

// sentWithPrefix sums the collector's send counts of every kind with the
// given prefix.
func sentWithPrefix(col *trace.Collector, prefix string) int {
	n := 0
	for _, kind := range col.Kinds() {
		if strings.HasPrefix(kind, prefix) {
			n += col.Sent(kind)
		}
	}
	return n
}
