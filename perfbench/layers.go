package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/cec"
	"repro/internal/core"
	"repro/internal/dsys"
	"repro/internal/fd/ring"
	"repro/internal/rbcast"
	"repro/internal/wire"
)

// layerMetrics lists the per-layer metrics by layer. A workload that
// bypasses a layer reports that layer's metrics as 0: the layer did no work
// on it, which is the "no change" prediction README.md states for it.
var layerMetrics = map[string][]string{
	"sim":    {"sim.events", "sim.events_per_s", "sim.allocs_per_event", "sim.bytes_per_event"},
	"fd":     {"fd.ring_msgs_per_period", "fd.transform_msgs_per_period", "fd.query_ns", "fd.false_suspicions", "fd.leader_changes"},
	"rbcast": {"rbcast.msgs_per_slot"},
	"cec":    {"cec.msgs_per_slot", "cec.max_round"},
	"core":   {"core.cmds_per_slot", "core.slots_per_s", "core.submit_ns", "core.pending_max", "core.replica_lag_ms"},
	"tcpnet": {"tcpnet.frames_per_cmd", "tcpnet.bytes_per_frame", "tcpnet.msgs_per_s", "tcpnet.dropped", "tcpnet.link_events"},
}

// fillBypassed sets the metrics of the named layers that the workload did
// not measure to 0.
func fillBypassed(o *outcome, layers ...string) {
	for _, l := range layers {
		for _, name := range layerMetrics[l] {
			if _, ok := o.values[name]; !ok {
				o.set(name, 0)
			}
		}
	}
}

// finishTraced completes a traced run: trace.overhead_share is the traced
// round's cost per unit of work over the untraced round's, minus one, and
// the wire codec is timed on the workloads' frame shapes.
func finishTraced(o *outcome, rng *rand.Rand, untracedCost, tracedCost float64) error {
	o.set("trace.overhead_share", tracedCost/untracedCost-1)
	return wireTiming(o, rng)
}

// wireFrames are the frame shapes the workloads put on the wire: a ring
// heartbeat carrying a suspect list, a cec phase message, and the reliable
// broadcast of a decision for a slot holding a full 64-command batch.
func wireFrames(rng *rand.Rand) []wire.Frame {
	cmds := make([]core.Command, 64)
	for i := range cmds {
		cmds[i] = core.Command{Origin: dsys.ProcessID(1 + i%3), Seq: int64(1000 + i), Payload: fmt.Sprintf("%016x", rng.Int63())}
	}
	return []wire.Frame{
		{From: 2, To: 3, Kind: ring.KindBeat, Payload: []dsys.ProcessID{17, 145, 273, 401}},
		{From: 2, To: 1, Kind: cec.KindAck, Payload: consensus.Msg{Inst: "/log/1234", Round: 1, TS: 1}},
		{From: 1, To: 2, Kind: rbcast.Kind, Payload: rbcast.Wire{Origin: 1, Inc: 1, Seq: 1234,
			Payload: consensus.Decide{Inst: "/log/1234", Round: 1, Value: core.Batch{Cmds: cmds}}}},
	}
}

// wireTiming times wire.AppendFrame and wire.DecodeFrame per frame over the
// workload's frame shapes and stores the medians of five batches.
func wireTiming(o *outcome, rng *rand.Rand) error {
	frames := wireFrames(rng)
	const iters = 4000
	var enc, dec []float64
	buf := make([]byte, 0, 4096)
	for batch := 0; batch < 5; batch++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			for fi := range frames {
				var err error
				if buf, err = wire.AppendFrame(buf[:0], &frames[fi]); err != nil {
					return fmt.Errorf("wire: encode %s: %w", frames[fi].Kind, err)
				}
			}
		}
		enc = append(enc, float64(time.Since(start).Nanoseconds())/float64(iters*len(frames)))
		bodies := make([][]byte, len(frames))
		for fi := range frames {
			b, err := wire.AppendFrame(nil, &frames[fi])
			if err != nil {
				return err
			}
			bodies[fi] = b[4:]
		}
		start = time.Now()
		for i := 0; i < iters; i++ {
			for _, b := range bodies {
				if _, err := wire.DecodeFrame(b); err != nil {
					return fmt.Errorf("wire: decode: %w", err)
				}
			}
		}
		dec = append(dec, float64(time.Since(start).Nanoseconds())/float64(iters*len(frames)))
	}
	o.set("wire.encode_ns", median(enc))
	o.set("wire.decode_ns", median(dec))
	return nil
}
