package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/dsys"
	"repro/internal/fd/ring"
	"repro/internal/tcpnet"
	"repro/internal/trace"
)

// log-live: three replicas in this process on a loopback tcpnet mesh (real
// sockets, the wire codec, the live runtime), ring ◇C at 10ms, core
// defaults. A closed loop keeps 128 commands outstanding, round-robin over
// origins: near saturation (512 outstanding add only two fifths more
// throughput), with enough commands in a 1s round for a p99.9 even on a
// slowed host (README.md, "Steadiness"). Each round ends with a fault: p3
// stops receiving commands, its outstanding ones drain, and it crashes while
// the load goes on at p1 and p2. An op is one command.
const (
	llN           = 3
	llOutstanding = 128
	llFaultWindow = 300 * time.Millisecond // the gap is sought in [crash, crash+window]
	llRingSlots   = 8192                   // submit-time ring per origin; > llOutstanding
	llVictim      = dsys.ProcessID(3)
	// llWarmup runs the load before the measured window opens, past the
	// connection set-up and the ring's first adaptive-timeout steps.
	llWarmup = 500 * time.Millisecond
)

// llRounds is how many rounds a run makes, each about two seconds: many
// short ones, since a round's p99.9 is in effect its worst hiccup (one
// hiccup delays all 128 outstanding commands, more than the tail holds)
// and moves by half from one round to the next.
func llRounds(seconds int) int { return max(2, seconds/2) }

// llSteady is a round's measured window.
const llSteady = time.Second

// llSetupsPerRound is how many set-ups log-live measures before each
// untraced round: one set-up reads 1–6ms depending on how the replicas'
// poll timers line up, so setup_s is the median of many.
const llSetupsPerRound = 10

func runLogLive(p params) (*outcome, error) {
	o := newOutcome()
	rng := rand.New(rand.NewSource(p.seed))
	rounds := roundsFor(p, llRounds(p.seconds))
	for r := 0; r < rounds; r++ {
		if !tracedRound(p, r) {
			for i := 0; i < llSetupsPerRound; i++ {
				c, err := llStart(rng, nil, nil)
				if err != nil {
					return nil, err
				}
				c.mesh.Stop()
				o.round("setup_s", c.setup.Seconds())
			}
		}
		if err := llRound(o, rng, llSteady, tracedRound(p, r)); err != nil {
			return nil, err
		}
	}
	o.medianOfRounds()
	if p.traced {
		if err := finishTraced(o, rng, 1/o.values["committed_ops_s"], 1/o.values["traced_committed_ops_s"]); err != nil {
			return nil, err
		}
	}
	fillBypassed(o, "sim")
	o.set("fd.transform_msgs_per_period", 0)
	return o, nil
}

// llCluster is one round's mesh, replicas and load bookkeeping.
type llCluster struct {
	mesh  *tcpnet.Mesh
	reps  [llN + 1]*core.Replica
	dets  [llN + 1]*ring.Detector
	base  time.Time
	setup time.Duration

	rng  *rand.Rand  // payloads; generator goroutine only
	subs submissions // generator goroutine only until it has stopped
	// Per origin: submit times by Seq mod llRingSlots, commands not yet
	// applied at the origin, and commands applied anywhere.
	submitted   [llN + 1][llRingSlots]atomic.Int64
	outstanding [llN + 1]atomic.Int64
	applied     [llN + 1]atomic.Int64
	tokens      chan struct{} // one per command allowed outstanding
	// genMu orders the generator's submits against the fault phase setting
	// excludeVictim.
	genMu         sync.Mutex
	excludeVictim bool

	// Steady window [from, to) in ns since base; latency samples and
	// committed count of commands applied at their origin inside it.
	from, to  atomic.Int64
	lat       [llN + 1][]float64 // written by replica id's Apply only
	committed atomic.Int64

	// Fault phase, in ns since base: the crash instant, and the longest
	// stretch after it without an apply at p1 (written by p1's Apply).
	crashAt       atomic.Int64
	lastCommit    atomic.Int64
	maxGap        atomic.Int64
	applyAt       [llN + 1][llN + 1][]int64 // traced: [replica][origin][seq-1] apply time
	tracedApplies bool
}

func (c *llCluster) now() int64 { return int64(time.Since(c.base)) }

// llStart builds the mesh and replicas and waits for the first commit: one
// command submitted at p1 applied at every replica.
func llStart(rng *rand.Rand, col *trace.Collector, probe *consensus.RoundProbe) (*llCluster, error) {
	settle()
	c := &llCluster{rng: rand.New(rand.NewSource(rng.Int63())), subs: submissions{}, tokens: make(chan struct{}, llOutstanding)}
	c.base = time.Now()
	c.from.Store(-1)
	c.crashAt.Store(-1)
	c.tracedApplies = col != nil
	mesh, err := tcpnet.New(tcpnet.Config{N: llN, Trace: col})
	if err != nil {
		return nil, err
	}
	c.mesh = mesh
	var started sync.WaitGroup
	started.Add(llN)
	for _, id := range dsys.Pids(llN) {
		mesh.Spawn(id, "replica", func(pr dsys.Proc) {
			c.dets[id] = ring.Start(pr, ring.Options{Period: 10 * time.Millisecond})
			cfg := core.Config{Detector: c.dets[id], Apply: c.applyFn(id)}
			cfg.Consensus.RoundProbe = probe
			c.reps[id] = core.StartReplica(pr, cfg)
			started.Done()
		})
	}
	started.Wait()
	c.submit(1)
	if !waitFor(10*time.Second, func() bool {
		for id := 1; id <= llN; id++ {
			if c.applied[id].Load() < 1 {
				return false
			}
		}
		return true
	}) {
		mesh.Stop()
		return nil, fmt.Errorf("log-live: first command not applied everywhere within 10s")
	}
	c.setup = time.Since(c.base)
	return c, nil
}

// submit submits the next command at origin and records its submit time.
func (c *llCluster) submit(origin dsys.ProcessID) {
	payload := fmt.Sprintf("%016x", c.rng.Uint64())
	seq := int64(len(c.subs[origin]) + 1)
	c.subs[origin] = append(c.subs[origin], payload)
	c.submitted[origin][seq%llRingSlots].Store(c.now())
	c.outstanding[origin].Add(1)
	c.reps[origin].Submit(payload)
}

func (c *llCluster) applyFn(id dsys.ProcessID) func(int, core.Command) {
	return func(_ int, cmd core.Command) {
		now := c.now()
		c.applied[id].Add(1)
		if c.tracedApplies && cmd.Origin >= 1 && int(cmd.Origin) <= llN {
			c.applyAt[id][cmd.Origin] = append(c.applyAt[id][cmd.Origin], now)
		}
		if cmd.Origin == id {
			at := c.submitted[id][cmd.Seq%llRingSlots].Load()
			if from := c.from.Load(); from >= 0 && at >= from && now < c.to.Load() {
				c.lat[id] = append(c.lat[id], float64(now-at)/1e6)
				c.committed.Add(1)
			}
			c.outstanding[id].Add(-1)
			select {
			case c.tokens <- struct{}{}:
			default: // the warm-up command held no token
			}
		}
		if id == 1 {
			if crash := c.crashAt.Load(); crash >= 0 && now <= crash+int64(llFaultWindow) {
				last := max(crash, c.lastCommit.Load())
				if now-last > c.maxGap.Load() {
					c.maxGap.Store(now - last)
				}
				c.lastCommit.Store(now)
			}
		}
	}
}

// generate runs the closed loop until stop closes: it takes a token per
// command and round-robins over origins, leaving out p3 once excludeVictim
// is set.
func (c *llCluster) generate(stop <-chan struct{}, submitNS *[]float64) {
	origin := dsys.ProcessID(1)
	for {
		select {
		case <-stop:
			return
		case <-c.tokens:
		}
		c.genMu.Lock()
		if c.excludeVictim && origin == llVictim {
			origin = 1
		}
		var t0 time.Time
		if submitNS != nil {
			t0 = time.Now()
		}
		c.submit(origin)
		if submitNS != nil {
			*submitNS = append(*submitNS, float64(time.Since(t0).Nanoseconds()))
		}
		c.genMu.Unlock()
		origin = origin%llN + 1
	}
}

// waitFor polls cond every 100µs until it holds or the deadline passes.
func waitFor(deadline time.Duration, cond func() bool) bool {
	limit := time.Now().Add(deadline)
	for !cond() {
		if time.Now().After(limit) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

func llRound(o *outcome, rng *rand.Rand, steady time.Duration, traced bool) error {
	var col *trace.Collector
	var probe *consensus.RoundProbe
	if traced {
		col = trace.NewCollector()
		col.LogMessages = false
		probe = &consensus.RoundProbe{}
	}
	c, err := llStart(rng, col, probe)
	if err != nil {
		return err
	}
	defer c.mesh.Stop()
	for len(c.tokens) < llOutstanding {
		c.tokens <- struct{}{} // the warm-up command's apply may have left one
	}
	stop := make(chan struct{})
	var submitNS []float64
	var genDone sync.WaitGroup
	genDone.Add(1)
	go func() {
		defer genDone.Done()
		if traced {
			c.generate(stop, &submitNS)
		} else {
			c.generate(stop, nil)
		}
	}()
	stopGen := func() {
		if stop != nil {
			close(stop)
			genDone.Wait()
			stop = nil
		}
	}
	defer stopGen()

	// Steady phase: a warm-up, then the measured window.
	time.Sleep(llWarmup)
	from := c.now()
	if col != nil {
		col.SetCountWindow(time.Duration(from), time.Duration(from)+steady)
	}
	frames0, bytes0 := c.mesh.WireStats()
	rt0 := readRuntime()
	var samp *llSampler
	if traced {
		samp = startLLSampler(c)
	}
	heap := startHeapSampler()
	c.to.Store(from + int64(steady))
	c.from.Store(from)
	time.Sleep(steady)
	peak := heap.finish()
	rt := readRuntime().sub(rt0)
	frames1, bytes1 := c.mesh.WireStats()
	if samp != nil {
		samp.finish()
	}
	committed := float64(c.committed.Load())

	// Fault phase: drain p3's commands, crash it, measure detection at the
	// survivors and the commit gap at p1 while the load continues.
	// Under genMu, so no submit at p3 can follow the drain check.
	c.genMu.Lock()
	c.excludeVictim = true
	c.genMu.Unlock()
	if !waitFor(5*time.Second, func() bool { return c.outstanding[llVictim].Load() == 0 }) {
		return fmt.Errorf("log-live: p3's outstanding commands did not drain within 5s")
	}
	crash := c.now()
	c.crashAt.Store(crash)
	c.mesh.Crash(llVictim)
	detect := time.Duration(-1)
	if waitFor(5*time.Second, func() bool {
		return c.dets[1].Suspected().Has(llVictim) && c.dets[2].Suspected().Has(llVictim)
	}) {
		detect = time.Duration(c.now() - crash)
	}
	time.Sleep(time.Until(c.base.Add(time.Duration(crash) + llFaultWindow)))
	stopGen()
	gap := time.Duration(max(c.maxGap.Load(), crash+int64(llFaultWindow)-max(crash, c.lastCommit.Load())))

	// Drain and check.
	if !waitFor(10*time.Second, func() bool {
		return c.outstanding[1].Load() == 0 && c.outstanding[2].Load() == 0 && c.applied[1].Load() == c.applied[2].Load()
	}) {
		o.problemf("log-live: survivors did not drain and converge within 10s")
	}
	c.mesh.Stop() // no Apply runs past here: the logs and samples are settled
	logs := map[dsys.ProcessID][]core.AppliedEntry{}
	for id := 1; id <= llN; id++ {
		logs[dsys.ProcessID(id)] = c.reps[id].Applied()
	}
	checkLogs(o, "log-live", logs, []dsys.ProcessID{1, 2}, c.subs, dsys.None)
	for _, s := range c.subs {
		o.attempted += int64(len(s))
	}
	if detect < 0 {
		o.problemf("log-live: survivors never both suspected p3")
	}

	if !traced {
		o.round("setup_s", c.setup.Seconds())
		o.round("run_wall_s", steady.Seconds()/committed*1e4)
		o.round("committed_ops_s", committed/steady.Seconds())
		o.round("detect_ms", float64(detect)/1e6)
		o.round("failover_gap_ms", float64(gap)/1e6)
		o.round("peak_heap_mb", peak)
		var lat latencies
		for id := 1; id <= llN; id++ {
			lat.ms = append(lat.ms, c.lat[id]...)
		}
		o.roundPercentiles(&lat)
		return nil
	}
	slots := 0
	if l := logs[1]; len(l) > 0 {
		slots = l[len(l)-1].Slot
	}
	frames, bytes := float64(frames1-frames0), float64(bytes1-bytes0)
	o.round("traced_committed_ops_s", committed/steady.Seconds())
	o.round("fd.ring_msgs_per_period", float64(col.SentWithin(ring.KindBeat, ring.KindWatch))/float64(steady/(10*time.Millisecond)))
	o.round("fd.query_ns", median(samp.queryNS))
	o.round("fd.false_suspicions", float64(c.dets[1].FalseSuspicions()+c.dets[2].FalseSuspicions()))
	o.round("fd.leader_changes", float64(samp.leaderChanges))
	o.round("rbcast.msgs_per_slot", float64(sentWithPrefix(col, "rb."))/float64(slots))
	o.round("cec.msgs_per_slot", float64(sentWithPrefix(col, "cec."))/float64(slots))
	o.round("cec.max_round", float64(probe.Max()))
	o.round("core.cmds_per_slot", float64(len(logs[1]))/float64(slots))
	o.round("core.slots_per_s", float64(slots)/time.Since(c.base).Seconds())
	o.round("core.submit_ns", median(submitNS))
	o.round("core.pending_max", float64(samp.pendingMax))
	o.round("core.replica_lag_ms", c.replicaLag())
	o.round("tcpnet.frames_per_cmd", frames/committed)
	o.round("tcpnet.bytes_per_frame", bytes/frames)
	o.round("tcpnet.msgs_per_s", float64(col.SentWithin())/steady.Seconds())
	dropped := 0
	for _, kind := range col.Kinds() {
		dropped += col.Dropped(kind)
	}
	o.round("tcpnet.dropped", float64(dropped))
	links := 0
	for _, ev := range col.LinkEventNames() {
		links += col.LinkEvents(ev)
		o.extra["tcpnet.link."+ev] += float64(col.LinkEvents(ev))
	}
	o.round("tcpnet.link_events", float64(links))
	o.round("runtime.gc_cpu_share", rt.gcShare())
	o.round("runtime.alloc_bytes_per_op", rt.allocBytes/committed)
	return nil
}

// replicaLag is the median, over commands applied at all three replicas,
// of the time from the apply at the origin to the apply at the last replica.
func (c *llCluster) replicaLag() float64 {
	var lags []float64
	for origin := 1; origin <= llN; origin++ {
		own := c.applyAt[origin][origin]
		for i, at := range own {
			last := at
			for id := 1; id <= llN; id++ {
				if i >= len(c.applyAt[id][origin]) {
					last = -1
					break
				}
				last = max(last, c.applyAt[id][origin][i])
			}
			if last >= 0 {
				lags = append(lags, float64(last-at)/1e6)
			}
		}
	}
	return median(lags)
}

// llSampler samples the detectors and pending queues of a traced round
// every 5ms: leader changes, Suspected() cost and the largest backlog.
type llSampler struct {
	c             *llCluster
	stop          chan struct{}
	done          sync.WaitGroup
	leaderChanges int
	pendingMax    int
	queryNS       []float64
}

func startLLSampler(c *llCluster) *llSampler {
	s := &llSampler{c: c, stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		last := make([]dsys.ProcessID, llN+1)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			start := time.Now()
			for id := 1; id <= llN; id++ {
				_ = c.dets[id].Suspected()
			}
			s.queryNS = append(s.queryNS, float64(time.Since(start).Nanoseconds())/llN)
			for id := 1; id <= llN; id++ {
				if l := c.dets[id].Trusted(); l != last[id] {
					if last[id] != dsys.None {
						s.leaderChanges++
					}
					last[id] = l
				}
				s.pendingMax = max(s.pendingMax, c.reps[id].PendingCount())
			}
		}
	}()
	return s
}

func (s *llSampler) finish() {
	close(s.stop)
	s.done.Wait()
}
