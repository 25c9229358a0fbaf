package main

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/dsys"
	"repro/internal/fd/ring"
	"repro/internal/fd/transform"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/trace"
)

// fd-scale: n=1024 processes on the simulator, each running ring ◇C with the
// Fig. 2 ◇C→◇P transformation on top (the transformation's leader comes from
// the ring). Reliable 1ms links. Eight processes spread around the ring crash
// at 500ms; the run lasts a fixed virtual horizon. An op is one (correct
// observer, peer) verdict of the ◇P output at the horizon.
const (
	fdN        = 1024
	fdPeriod   = 10 * time.Millisecond
	fdCrashAt  = 500 * time.Millisecond
	fdHorizon  = 3 * time.Second
	fdVictims  = 8
	fdWinFrom  = 250 * time.Millisecond // steady-state counting window,
	fdWinTo    = 500 * time.Millisecond // closed before the crashes
	fdSampling = time.Millisecond       // detection-time resolution
)

func fdRounds(seconds int) int { return max(2, seconds/3) }

func runFDScale(p params) (*outcome, error) {
	o := newOutcome()
	rng := rand.New(rand.NewSource(p.seed))
	var lat latencies
	rounds := roundsFor(p, fdRounds(p.seconds))
	// Set-up is measured first, while the process heap is still fresh, as
	// it is for a user starting a run.
	for r := 0; r < setupRepeats; r++ {
		o.round("setup_s", fdSetup(rng.Int63()).Seconds())
	}
	for r := 0; r < rounds; r++ {
		fdRound(o, rng, &lat, tracedRound(p, r))
	}
	o.medianOfRounds()
	if p.traced {
		if err := finishTraced(o, rng, o.values["run_wall_s"], o.values["traced_run_wall_s"]); err != nil {
			return nil, err
		}
	} else {
		o.addPercentiles(&lat)
	}
	fillBypassed(o, "core", "rbcast", "cec", "tcpnet")
	return o, nil
}

// fdKernel builds the n=1024 kernel with ring ◇C and the transformation on
// every process.
func fdKernel(seed int64, col *trace.Collector) (*sim.Kernel, []*ring.Detector, []*transform.Detector) {
	cfg := sim.Config{N: fdN, Seed: seed, Network: network.Reliable{Latency: network.Fixed(time.Millisecond)}}
	if col != nil {
		cfg.Trace = col
	}
	k := sim.New(cfg)
	rings := make([]*ring.Detector, fdN+1)
	tps := make([]*transform.Detector, fdN+1)
	for _, id := range dsys.Pids(fdN) {
		k.Spawn(id, "fd", func(pr dsys.Proc) {
			rings[id] = ring.Start(pr, ring.Options{Period: fdPeriod})
			tps[id] = transform.Start(pr, rings[id], transform.Options{Period: fdPeriod})
		})
	}
	return k, rings, tps
}

// fdSetup builds the kernel and runs it until every process has started
// its detectors, the set-up cost of an fd-scale round.
func fdSetup(seed int64) time.Duration {
	settle()
	start := time.Now()
	k, _, _ := fdKernel(seed, nil)
	k.Run(0)
	return time.Since(start)
}

// fdRound builds, runs and checks one kernel. Untraced rounds feed the
// end-to-end metrics; traced rounds feed the per-layer ones.
func fdRound(o *outcome, rng *rand.Rand, lat *latencies, traced bool) {
	simSeed := rng.Int63()
	// Victims: one per eighth of the ring at a seed-chosen offset, never p1
	// (the ring's leader: its crash would take Θ(n) periods to propagate).
	off := 2 + rng.Intn(fdN/fdVictims-2)
	// Each victim crashes at a seed-drawn instant in [crashAt, crashAt+period):
	// detection latency depends on where the crash falls between heartbeats,
	// so the run samples that phase instead of fixing it.
	victim := make([]bool, fdN+1)
	var victims []dsys.ProcessID
	var crashes []time.Duration
	for i := 0; i < fdVictims; i++ {
		id := dsys.ProcessID(off + i*fdN/fdVictims)
		victims = append(victims, id)
		crashes = append(crashes, fdCrashAt+time.Duration(rng.Int63n(int64(fdPeriod))))
		victim[id] = true
	}

	settle()
	var col *trace.Collector
	if traced {
		col = trace.NewCollector()
		col.LogMessages = false
		col.SetCountWindow(fdWinFrom, fdWinTo)
	}
	k, rings, tps := fdKernel(simSeed, col)
	for i, v := range victims {
		k.CrashAt(v, crashes[i])
	}
	// Detection times: from the crash, poll every correct process's ◇P
	// output until each holds every victim, then stop polling.
	detected := make([][]time.Duration, fdN+1) // [observer][victim index]
	pendingDetections := (fdN - fdVictims) * fdVictims
	first := time.Duration(-1)
	k.Every(fdCrashAt, fdSampling, func(now time.Duration) {
		if pendingDetections == 0 {
			return
		}
		for id := 1; id <= fdN; id++ {
			if victim[id] {
				continue
			}
			if detected[id] == nil {
				detected[id] = make([]time.Duration, fdVictims)
			}
			var s map[dsys.ProcessID]bool
			for vi, v := range victims {
				if detected[id][vi] != 0 {
					continue
				}
				if s == nil {
					s = tps[id].Suspected()
				}
				if s[v] {
					detected[id][vi] = now
					pendingDetections--
					if first < 0 || now-crashes[vi] < first {
						first = now - crashes[vi]
					}
				}
			}
		}
	})
	// Traced rounds also sample every correct process's ring leader to
	// count leader changes, and time Suspected() calls at this n.
	var leaderChanges int
	var queryNS []float64
	if traced {
		lastLeader := make([]dsys.ProcessID, fdN+1)
		k.Every(0, 10*fdPeriod, func(now time.Duration) {
			for id := 1; id <= fdN; id++ {
				if k.Crashed(dsys.ProcessID(id)) || rings[id] == nil {
					continue
				}
				if l := rings[id].Trusted(); l != lastLeader[id] {
					if lastLeader[id] != dsys.None {
						leaderChanges++
					}
					lastLeader[id] = l
				}
			}
			if now <= fdCrashAt {
				return
			}
			start, calls := time.Now(), 0
			for id := 1; id <= fdN; id++ {
				if !victim[id] {
					_ = tps[id].Suspected()
					calls++
				}
			}
			queryNS = append(queryNS, float64(time.Since(start).Nanoseconds())/float64(calls))
		})
	}

	heap := startHeapSampler()
	rt0 := readRuntime()
	var ms0, ms1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	runStart := time.Now()
	k.Run(fdHorizon)
	wall := time.Since(runStart)
	if traced {
		runtime.ReadMemStats(&ms1)
	}
	rt := readRuntime().sub(rt0)
	peak := heap.finish()

	// Oracle: at the horizon every correct process's ◇P output is exactly
	// the crashed set, and every correct process trusts the same correct
	// ring leader.
	var wrong, pairs int64
	leader := dsys.None
	for id := 1; id <= fdN; id++ {
		if victim[id] {
			continue
		}
		s := tps[id].Suspected()
		for q := 1; q <= fdN; q++ {
			if q == id {
				continue
			}
			pairs++
			if s[dsys.ProcessID(q)] != victim[q] {
				wrong++
			}
		}
		l := rings[id].Trusted()
		if leader == dsys.None {
			leader = l
		}
		if l != leader || victim[l] {
			o.problemf("fd-scale: p%d trusts %v, p? trusts %v at the horizon", id, l, leader)
		}
	}
	o.attempted += pairs
	o.failed += wrong
	if wrong > 0 {
		o.problemf("fd-scale: %d wrong (process, peer) verdicts at the horizon", wrong)
	}
	if pendingDetections > 0 {
		o.problemf("fd-scale: %d (observer, victim) detections missing at the horizon", pendingDetections)
	}
	var last time.Duration // latest detection, relative to its crash
	for id := 1; id <= fdN; id++ {
		for vi, at := range detected[id] {
			if at == 0 {
				continue
			}
			last = max(last, at-crashes[vi])
			if !traced {
				lat.add(at - crashes[vi])
			}
		}
	}
	events := float64(k.Events())
	if traced {
		o.round("traced_run_wall_s", wall.Seconds())
		o.round("sim.events", events)
		o.round("sim.events_per_s", events/wall.Seconds())
		o.round("sim.allocs_per_event", float64(ms1.Mallocs-ms0.Mallocs)/events)
		o.round("sim.bytes_per_event", float64(ms1.TotalAlloc-ms0.TotalAlloc)/events)
		periods := float64((fdWinTo - fdWinFrom) / fdPeriod)
		o.round("fd.ring_msgs_per_period", float64(col.SentWithin(ring.KindBeat, ring.KindWatch))/periods)
		o.round("fd.transform_msgs_per_period", float64(col.SentWithin(transform.KindAlive, transform.KindList))/periods)
		o.round("fd.query_ns", median(queryNS))
		falseSusp := 0
		for id := 1; id <= fdN; id++ {
			if !victim[id] {
				falseSusp += rings[id].FalseSuspicions() + tps[id].FalseSuspicions()
			}
		}
		o.round("fd.false_suspicions", float64(falseSusp))
		o.round("fd.leader_changes", float64(leaderChanges))
		o.round("runtime.gc_cpu_share", rt.gcShare())
		o.round("runtime.alloc_bytes_per_op", rt.allocBytes/float64(pairs))
		return
	}
	o.round("run_wall_s", wall.Seconds())
	o.round("committed_ops_s", float64(fdN)*float64(fdHorizon/fdPeriod)/wall.Seconds())
	o.round("detect_ms", float64(last)/1e6)
	o.round("failover_gap_ms", float64(first)/1e6)
	o.round("peak_heap_mb", peak)
}
