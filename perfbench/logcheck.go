package main

import (
	"repro/internal/core"
	"repro/internal/dsys"
)

// submissions records, per origin, the payload of every command submitted
// there, indexed by Seq-1 (replicas start with SeqBase 0, so Seq k is the
// origin's k-th Submit).
type submissions map[dsys.ProcessID][]string

// checkLogs is the replicated-log oracle. Every surviving replica must hold
// the identical applied log and a crashed replica a prefix of it; each
// command must appear once (exactly-once), each origin's commands in Seq
// order with no gap (per-origin FIFO), with the payload that was submitted,
// and every command of a surviving origin must be applied (no loss). Only
// the crashed origin may lose commands: those still pending when it crashed.
// It returns how many commands were lost that way and counts every other
// violation as a failed op. A command a crashed replica applied past the
// survivors' log breaks uniform agreement: it is a failed op, not a lost one.
func checkLogs(o *outcome, name string, logs map[dsys.ProcessID][]core.AppliedEntry, survivors []dsys.ProcessID, subs submissions, crashed dsys.ProcessID) (lost int64) {
	ref := logs[survivors[0]]
	beyond := map[dsys.ProcessID]int64{} // per origin, the highest Seq applied past ref
	for id, l := range logs {
		isSurvivor := false
		for _, s := range survivors {
			isSurvivor = isSurvivor || s == id
		}
		if isSurvivor && len(l) != len(ref) {
			o.problemf("%s: p%d applied %d commands, p%d %d", name, id, len(l), survivors[0], len(ref))
			o.failed++
		}
		if !isSurvivor && len(l) > len(ref) {
			o.problemf("%s: crashed p%d applied %d commands past the survivors' %d", name, id, len(l)-len(ref), len(ref))
			o.failed += int64(len(l) - len(ref))
			for _, e := range l[len(ref):] {
				beyond[e.Cmd.Origin] = max(beyond[e.Cmd.Origin], e.Cmd.Seq)
			}
		}
		n := min(len(l), len(ref))
		for i := 0; i < n; i++ {
			if l[i].Slot != ref[i].Slot || l[i].Cmd.Origin != ref[i].Cmd.Origin || l[i].Cmd.Seq != ref[i].Cmd.Seq {
				o.problemf("%s: p%d and p%d diverge at log index %d", name, id, survivors[0], i)
				o.failed++
				break
			}
		}
	}
	next := map[dsys.ProcessID]int64{}
	for i, e := range ref {
		c := e.Cmd
		if c.Seq != next[c.Origin]+1 {
			o.problemf("%s: index %d holds %v seq %d, expected seq %d (duplicate, gap or reorder)", name, i, c.Origin, c.Seq, next[c.Origin]+1)
			o.failed++
			continue
		}
		next[c.Origin] = c.Seq
		if p, ok := c.Payload.(string); !ok || int(c.Seq) > len(subs[c.Origin]) || subs[c.Origin][c.Seq-1] != p {
			o.problemf("%s: %v seq %d applied with a payload that was not submitted", name, c.Origin, c.Seq)
			o.failed++
		}
	}
	for origin, s := range subs {
		missing := int64(len(s)) - next[origin]
		if missing <= 0 {
			continue
		}
		if origin == crashed {
			lost += int64(len(s)) - max(next[origin], beyond[origin])
			continue
		}
		o.problemf("%s: %d commands of %v were never applied", name, missing, origin)
		o.failed += missing
	}
	return lost
}
