package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
)

// ecnode-closed: three ecnode OS processes (ring at 10ms, TCP heartbeats,
// core defaults) driven over the JSON client protocol by two closed-loop
// client connections, each proposing its next value when the previous one
// is acknowledged. Each round ends with a fault: the node no client talks to
// is SIGKILLed while the clients go on. An op is one propose.
const (
	ecN           = 3
	ecFaultWindow = 300 * time.Millisecond
	ecOpTimeout   = 5 * time.Second
	ecBinDir      = ".bench_build/bin" // cmd/ecnode is built here, outside set-up
)

// ecSteady is one round's measured window. Rounds are short and many: a
// round's throughput depends on how the nodes' poll timers happen to line
// up when they start, so a run takes the median over many rounds.
const ecSteady = 1500 * time.Millisecond

// ecMinSamples is the latency sample count a run needs for a p99.9 with
// enough samples beyond it; a run that has not reached it when its time is
// up keeps adding rounds, up to three times its time.
const ecMinSamples = 12000

func runEcnodeClosed(p params) (*outcome, error) {
	o := newOutcome()
	if err := os.MkdirAll(ecBinDir, 0o755); err != nil {
		return nil, err
	}
	bins, err := cluster.Build(ecBinDir)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.seed))
	budget := time.Duration(p.seconds) * time.Second
	start := time.Now()
	var lat latencies
	for r := 0; ; r++ {
		if p.traced && r == tracedRounds {
			break
		}
		if !p.traced && r >= 2 && time.Since(start) >= budget &&
			(len(lat.ms) >= ecMinSamples || time.Since(start) >= 3*budget) {
			break
		}
		if err := ecRound(o, rng, bins.Ecnode, &lat, ecSteady, tracedRound(p, r)); err != nil {
			return nil, err
		}
	}
	o.medianOfRounds()
	if p.traced {
		if err := finishTraced(o, rng, 1/o.values["committed_ops_s"], 1/o.values["traced_committed_ops_s"]); err != nil {
			return nil, err
		}
	} else {
		o.addPercentiles(&lat)
	}
	// The nodes' layers run in other processes; only what the client
	// protocol exposes is measured here (see README.md).
	fillBypassed(o, "sim", "rbcast", "cec", "tcpnet", "fd", "core")
	return o, nil
}

// ecClient is one closed-loop client connection and what it saw.
type ecClient struct {
	c      *cluster.Client
	addr   string
	rng    *rand.Rand
	values []string        // acknowledged values
	slots  map[int]bool    // slots the acknowledgements named
	acks   []time.Duration // acknowledgement times since the round's base
	lat    []float64       // steady-window latencies (ms)
	sent   int64
	failed int64
}

// loop proposes values until stop closes, recording latencies for proposes
// sent inside [from, to) and every acknowledgement time after from.
func (cl *ecClient) loop(base time.Time, stop <-chan struct{}, from, to time.Duration) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		v := fmt.Sprintf("%016x", cl.rng.Uint64())
		sent := time.Since(base)
		cl.sent++
		resp, err := cl.c.Do(cluster.Request{Op: "propose", Value: v}, ecOpTimeout)
		at := time.Since(base)
		if err != nil || !resp.OK {
			cl.failed++
			if err != nil { // the connection is in an unknown state: redial
				cl.c.Close()
				if c, derr := cluster.DialClient(cl.addr, ecOpTimeout); derr == nil {
					cl.c = c
				}
			}
			continue
		}
		cl.values = append(cl.values, v)
		cl.slots[resp.Slot] = true
		if at >= from {
			cl.acks = append(cl.acks, at)
		}
		if sent >= from && at < to {
			cl.lat = append(cl.lat, float64(at-sent)/1e6)
		}
	}
}

func ecRound(o *outcome, rng *rand.Rand, bin string, lat *latencies, steady time.Duration, traced bool) error {
	dir, err := os.MkdirTemp(filepath.Dir(ecBinDir), "ecnode-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	specs, err := cluster.Generate(dir, ecN, cluster.DetectorRing, 10)
	if err != nil {
		return err
	}
	settle()
	base := time.Now()
	nodes := make([]*cluster.Node, ecN)
	for i, sp := range specs {
		if nodes[i], err = cluster.StartNode(bin, sp, dir); err != nil {
			return err
		}
		defer nodes[i].Stop(2 * time.Second)
	}
	addrs := cluster.ClientAddrs(specs)
	leader, err := cluster.AwaitAgreedLeader(addrs, 30*time.Second)
	if err != nil {
		return err
	}
	setup := time.Since(base)

	// The victim is the highest-numbered follower; the clients talk to the
	// two other nodes.
	victim := ecN
	if victim == leader {
		victim--
	}
	var clients []*ecClient
	var survivors []string
	for id := 1; id <= ecN; id++ {
		if id == victim {
			continue
		}
		c, err := cluster.DialClient(addrs[id-1], ecOpTimeout)
		if err != nil {
			return err
		}
		survivors = append(survivors, addrs[id-1])
		clients = append(clients, &ecClient{c: c, addr: addrs[id-1], rng: rand.New(rand.NewSource(rng.Int63())), slots: map[int]bool{}})
	}
	from := time.Since(base) + 200*time.Millisecond
	to := from + steady
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.loop(base, stop, from, to)
		}()
	}
	stopClients := func() {
		if stop != nil {
			close(stop)
			wg.Wait()
			stop = nil
			for _, cl := range clients {
				cl.c.Close()
			}
		}
	}
	defer stopClients()

	var samp *ecSampler
	if traced {
		samp = startECSampler(addrs, victim)
	}
	time.Sleep(time.Until(base.Add(from)))
	rt0 := readRuntime()
	time.Sleep(time.Until(base.Add(to)))
	rt := readRuntime().sub(rt0)
	peak := nodesPeakMB(specs, victim)

	// Fault phase: SIGKILL the victim, poll the survivors' status until both
	// suspect it; the clients keep proposing.
	crash := time.Since(base)
	if err := nodes[victim-1].Kill(); err != nil {
		return err
	}
	detect := time.Duration(-1)
	if waitFor(5*time.Second, func() bool {
		for _, a := range survivors {
			st, err := cluster.Status(a, time.Second)
			if err != nil || !st.Suspects(victim) {
				return false
			}
		}
		return true
	}) {
		detect = time.Since(base) - crash
	}
	time.Sleep(time.Until(base.Add(crash + ecFaultWindow)))
	stopClients()
	if samp != nil {
		samp.finish()
	}

	// The longest stretch without an acknowledgement in the fault window.
	var acks []time.Duration
	for _, cl := range clients {
		for _, at := range cl.acks {
			if at > crash && at <= crash+ecFaultWindow {
				acks = append(acks, at)
			}
		}
	}
	gap := longestGap(crash, crash+ecFaultWindow, acks)

	// Oracle: the survivors' logs are identical and hold every acknowledged
	// value exactly once. A survivor may trail the other by the last few
	// slots, so the logs are fetched once both report the same applied count.
	if !waitFor(5*time.Second, func() bool {
		a, errA := cluster.Status(survivors[0], time.Second)
		b, errB := cluster.Status(survivors[1], time.Second)
		return errA == nil && errB == nil && a.Applied == b.Applied
	}) {
		o.problemf("ecnode-closed: survivors' applied counts did not converge within 5s")
	}
	var logs [][]string
	for _, a := range survivors {
		l, err := cluster.FetchLog(a, 10*time.Second)
		if err != nil {
			return fmt.Errorf("ecnode-closed: fetch log from %s: %w", a, err)
		}
		logs = append(logs, l)
	}
	for i := 1; i < len(logs); i++ {
		if strings.Join(logs[i], "\n") != strings.Join(logs[0], "\n") {
			o.problemf("ecnode-closed: survivors' logs differ (%d vs %d entries)", len(logs[0]), len(logs[i]))
			o.failed++
		}
	}
	count := map[string]int{}
	for _, v := range logs[0] {
		count[v]++
	}
	var committed, acked float64
	for _, cl := range clients {
		o.attempted += cl.sent
		o.failed += cl.failed
		if cl.failed > 0 {
			o.problemf("ecnode-closed: %d proposes at %s failed", cl.failed, cl.addr)
		}
		for _, v := range cl.values {
			if count[v] != 1 {
				o.problemf("ecnode-closed: acknowledged value %s appears %d times in the log", v, count[v])
				o.failed++
			}
		}
		committed += float64(len(cl.lat))
		acked += float64(len(cl.values))
		if !traced {
			lat.ms = append(lat.ms, cl.lat...)
		}
	}
	if detect < 0 {
		o.problemf("ecnode-closed: survivors never both suspected p%d", victim)
	}
	if !traced {
		o.round("setup_s", setup.Seconds())
		o.round("run_wall_s", steady.Seconds()/committed*1e4)
		o.round("committed_ops_s", committed/steady.Seconds())
		o.round("detect_ms", float64(detect)/1e6)
		o.round("failover_gap_ms", float64(gap)/1e6)
		o.round("peak_heap_mb", peak)
		return nil
	}
	slots := map[int]bool{}
	for _, cl := range clients {
		for s := range cl.slots {
			slots[s] = true
		}
	}
	o.round("traced_committed_ops_s", committed/steady.Seconds())
	o.round("fd.leader_changes", float64(samp.leaderChanges))
	o.round("fd.false_suspicions", float64(samp.falseSuspicions))
	o.round("core.cmds_per_slot", acked/float64(len(slots)))
	o.round("core.slots_per_s", float64(len(slots))/(time.Since(base)-from).Seconds())
	o.round("runtime.gc_cpu_share", rt.gcShare())
	o.round("runtime.alloc_bytes_per_op", rt.allocBytes/committed)
	return nil
}

// longestGap is the longest stretch of [from, to] containing none of the
// instants in ats, all of which lie inside it.
func longestGap(from, to time.Duration, ats []time.Duration) time.Duration {
	slices.Sort(ats)
	gap, last := time.Duration(0), from
	for _, at := range ats {
		gap = max(gap, at-last)
		last = at
	}
	return max(gap, to-last)
}

// nodesPeakMB is the largest peak resident set (VmHWM) among the live
// nodes' processes, found by their config path on the command line.
func nodesPeakMB(specs []cluster.Spec, skip int) float64 {
	var peak float64
	procs, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, cmdline := range procs {
		b, err := os.ReadFile(cmdline)
		if err != nil {
			continue
		}
		for i, sp := range specs {
			if i+1 == skip || !bytes.Contains(b, []byte(sp.Path)) {
				continue
			}
			status, err := os.ReadFile(filepath.Join(filepath.Dir(cmdline), "status"))
			if err != nil {
				continue
			}
			for _, line := range strings.Split(string(status), "\n") {
				if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
					kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
					peak = max(peak, kb/1024)
				}
			}
		}
	}
	return peak
}

// ecSampler polls every node's status every 10ms in a traced round,
// counting leader changes and suspicions of a live node.
type ecSampler struct {
	stop            chan struct{}
	done            sync.WaitGroup
	leaderChanges   int
	falseSuspicions int
}

func startECSampler(addrs []string, victim int) *ecSampler {
	s := &ecSampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		last := make([]int, len(addrs))
		suspected := make([]map[int]bool, len(addrs))
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			for i, a := range addrs {
				st, err := cluster.Status(a, time.Second)
				if err != nil {
					continue
				}
				if st.Leader != last[i] && last[i] != 0 {
					s.leaderChanges++
				}
				last[i] = st.Leader
				now := map[int]bool{}
				for _, q := range st.Suspected {
					now[q] = true
					if q != victim && !suspected[i][q] {
						s.falseSuspicions++
					}
				}
				suspected[i] = now
			}
		}
	}()
	return s
}

func (s *ecSampler) finish() {
	close(s.stop)
	s.done.Wait()
}
