package omega

import (
	"sync"

	"repro/internal/dsys"
	"repro/internal/fd"
)

// KindStableBeat is the stable leader's periodic broadcast; its payload is a
// []uint32 epoch (accusation-count) vector.
const KindStableBeat = "omega.stablebeat"

// Stable is a *stable* Ω module in the spirit of Aguilera, Delporte-Gallet,
// Fauconnier and Toueg (DISC 2001), which the paper's related work singles
// out: once a leader is elected it remains leader for as long as it does not
// crash and its links behave well — in particular, leadership never reverts
// to a lower-ranked process just because a past false suspicion of it was
// retracted.
//
// Candidates are ranked by (epoch, id), where epoch[q] counts the
// accusations against q. Every process monitors only the process its own
// vector ranks first; a timeout bumps that candidate's epoch locally and
// moves on. A process that ranks itself first broadcasts heartbeats carrying
// its full epoch vector; receivers merge vectors component-wise by maximum,
// which is how accusations (and hence demotions) spread. Because epochs only
// grow, a demoted leader stays demoted: retracting is impossible by
// construction, giving stability. After GST, adaptive timeouts stop new
// accusations, the vectors converge, and exactly one correct process —
// the minimum under (epoch, id) — leads forever.
//
// Steady-state cost: n−1 messages per period, like LeaderBeat.
type Stable struct {
	opt  Options
	self dsys.ProcessID
	n    int

	mu      sync.Mutex
	epoch   []uint32  // index 0 = p1
	peers   []fd.Peer // indexed by process ID
	changes int
	last    dsys.ProcessID
}

var _ fd.LeaderOracle = (*Stable)(nil)

// StartStable attaches a stable Ω module to p's process.
func StartStable(p dsys.Proc, opt Options) *Stable {
	opt.fill()
	d := &Stable{
		opt:   opt,
		self:  p.ID(),
		n:     p.N(),
		epoch: make([]uint32, p.N()),
		peers: fd.NewPeers(p.N(), p.Now(), opt.InitialTimeout),
	}
	d.last = d.leaderLocked()
	p.Spawn("omegastable-beat", d.beatTask)
	p.Spawn("omegastable-recv", d.recvTask)
	p.Spawn("omegastable-check", d.checkTask)
	return d
}

// Trusted implements fd.LeaderOracle.
func (d *Stable) Trusted() dsys.ProcessID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.leaderLocked()
}

// LeaderChanges counts trusted-process changes at this module — the
// stability measure compared against plain LeaderBeat.
func (d *Stable) LeaderChanges() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.changes
}

// Epoch returns the known accusation count of q.
func (d *Stable) Epoch(q dsys.ProcessID) uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.epoch[int(q)-1]
}

// leaderLocked returns the minimum candidate under (epoch, id).
func (d *Stable) leaderLocked() dsys.ProcessID {
	best := 0
	for i := 1; i < d.n; i++ {
		if d.epoch[i] < d.epoch[best] {
			best = i
		}
	}
	return dsys.ProcessID(best + 1)
}

func (d *Stable) noteChangeLocked(p dsys.Proc) {
	l := d.leaderLocked()
	if l == d.last {
		return
	}
	d.last = l
	d.changes++
	// Grace period for the new leader: it starts beating only once it
	// learns (by vector convergence) that it leads.
	if l != d.self {
		d.peers[l].Heard = p.Now()
	}
}

func (d *Stable) beatTask(p dsys.Proc) {
	for {
		d.mu.Lock()
		isLeader := d.leaderLocked() == d.self
		var vec []uint32
		if isLeader {
			vec = make([]uint32, d.n)
			copy(vec, d.epoch)
		}
		d.mu.Unlock()
		if isLeader {
			for _, q := range p.All() {
				if q != d.self {
					p.Send(q, KindStableBeat, vec)
				}
			}
		}
		p.Sleep(d.opt.Period)
	}
}

func (d *Stable) recvTask(p dsys.Proc) {
	for {
		m, ok := p.Recv(dsys.MatchKind(KindStableBeat))
		if !ok {
			return
		}
		vec := m.Payload.([]uint32)
		d.mu.Lock()
		d.peers[m.From].Heard = p.Now()
		for i := range d.epoch {
			if vec[i] > d.epoch[i] {
				d.epoch[i] = vec[i]
			}
		}
		d.noteChangeLocked(p)
		d.mu.Unlock()
	}
}

func (d *Stable) checkTask(p dsys.Proc) {
	for {
		p.Sleep(d.opt.CheckInterval)
		now := p.Now()
		d.mu.Lock()
		ldr := d.leaderLocked()
		if ldr != d.self && now-d.peers[ldr].Heard > d.peers[ldr].Timeout {
			// Accuse the silent leader: its epoch grows (locally first;
			// globally once our vector spreads) and it is permanently
			// outranked by the accusation — no flapping back.
			d.epoch[int(ldr)-1]++
			d.peers[ldr].Timeout += d.opt.TimeoutIncrement
			d.noteChangeLocked(p)
		}
		d.mu.Unlock()
	}
}
