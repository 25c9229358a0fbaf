package fd

import (
	"math/bits"
	"slices"
	"time"

	"repro/internal/dsys"
)

// Bitset is a dense set of the process IDs 1..n: the detectors' internal
// suspect-set representation. dsys numbers processes 1..n, so a set is n/64
// words, membership is one bit test, and iteration in increasing process
// order falls out of TrailingZeros64 — no map, no sort.
//
// IDs outside 1..n are never members: Add and Remove ignore them and Has
// reports false, so an ID read from a hostile payload cannot panic the
// detector or plant an entry.
//
// Members caches its sorted result until the set changes, so a detector
// that sends its suspect list every period builds the payload once per
// change and shares it across every send. The cached slice is published to
// receivers and must never be modified; Bitset itself only ever drops it.
//
// Set remains the snapshot type handed across the query boundary
// (Suspector.Suspected): callers own it and may mutate it freely.
type Bitset struct {
	words   []uint64
	n       int
	members []dsys.ProcessID // Members' cached result; nil when stale
}

// NewBitset returns an empty set over the IDs 1..n.
func NewBitset(n int) Bitset {
	return Bitset{words: make([]uint64, n>>6+1), n: n}
}

// Has reports membership; IDs outside 1..n are never members.
func (b *Bitset) Has(id dsys.ProcessID) bool {
	if id < 1 || int(id) > b.n {
		return false
	}
	return b.words[id>>6]&(1<<uint(id&63)) != 0
}

// Add inserts id, ignoring IDs outside 1..n.
func (b *Bitset) Add(id dsys.ProcessID) {
	if id < 1 || int(id) > b.n {
		return
	}
	w, m := &b.words[id>>6], uint64(1)<<uint(id&63)
	if *w&m == 0 {
		*w |= m
		b.members = nil
	}
}

// Remove deletes id.
func (b *Bitset) Remove(id dsys.ProcessID) {
	if id < 1 || int(id) > b.n {
		return
	}
	w, m := &b.words[id>>6], uint64(1)<<uint(id&63)
	if *w&m != 0 {
		*w &^= m
		b.members = nil
	}
}

// Clear empties the set.
func (b *Bitset) Clear() {
	clear(b.words)
	b.members = nil
}

// Equal reports whether b and o (over the same n) have the same members.
func (b *Bitset) Equal(o *Bitset) bool { return slices.Equal(b.words, o.words) }

// Members returns the members in increasing process order. The slice is
// cached and shared until the set next changes: callers must not modify it
// (append to a copy, e.g. list[:len(list):len(list)]).
func (b *Bitset) Members() []dsys.ProcessID {
	if b.members == nil {
		n := 0
		for _, w := range b.words {
			n += bits.OnesCount64(w)
		}
		out := make([]dsys.ProcessID, 0, n)
		for i, w := range b.words {
			for ; w != 0; w &= w - 1 {
				out = append(out, dsys.ProcessID(i<<6+bits.TrailingZeros64(w)))
			}
		}
		b.members = out
	}
	return b.members
}

// Snapshot returns an independent copy of the members as a Set.
func (b *Bitset) Snapshot() Set {
	return NewSet(b.Members()...)
}

// FirstAbsent is FirstNonSuspected over a Bitset: the first of p1 < p2 <
// ... < pn not in b, or dsys.None if all n are members.
func (b *Bitset) FirstAbsent() dsys.ProcessID {
	for i, w := range b.words {
		if i == 0 {
			w |= 1 // bit 0 stands for no process
		}
		if w != ^uint64(0) {
			if id := i<<6 + bits.TrailingZeros64(^w); id <= b.n {
				return dsys.ProcessID(id)
			}
			return dsys.None
		}
	}
	return dsys.None
}

// Watchers is the set of processes that asked a ring-style detector for its
// heartbeats (a WATCH request), each with the expiry of its request. A
// process has few watchers — its successor across a crash gap — so they
// live in a short unsorted slice rather than an n-sized table.
type Watchers struct {
	ws []watch
}

type watch struct {
	id  dsys.ProcessID
	exp time.Duration
}

// Watch records or renews id's request until exp.
func (w *Watchers) Watch(id dsys.ProcessID, exp time.Duration) {
	for i := range w.ws {
		if w.ws[i].id == id {
			w.ws[i].exp = exp
			return
		}
	}
	w.ws = append(w.ws, watch{id: id, exp: exp})
}

// Targets drops the requests expired at now and returns the heartbeat
// targets in increasing process order: succ (unless dsys.None) plus every
// live watcher, each once. The result is appended to dst[:0].
func (w *Watchers) Targets(dst []dsys.ProcessID, succ dsys.ProcessID, now time.Duration) []dsys.ProcessID {
	dst = dst[:0]
	if succ != dsys.None {
		dst = append(dst, succ)
	}
	live := w.ws[:0]
	for _, x := range w.ws {
		if x.exp > now {
			live = append(live, x)
			dst = insertSorted(dst, x.id)
		}
	}
	clear(w.ws[len(live):])
	w.ws = live
	return dst
}

// insertSorted adds id to the increasing slice s unless already present.
func insertSorted(s []dsys.ProcessID, id dsys.ProcessID) []dsys.ProcessID {
	i := 0
	for i < len(s) && s[i] < id {
		i++
	}
	if i < len(s) && s[i] == id {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = id
	return s
}

// Peer is a detector's monitoring state for one process: when it was last
// heard from and its current adaptive timeout. Detectors keep one per
// process in a slice indexed by process ID (NewPeers); the two fields are
// read together on every expiry check, so they share a cache line.
type Peer struct {
	Heard   time.Duration
	Timeout time.Duration
}

// NewPeers returns the state of the processes 1..n, indexed by ID (entry 0
// is unused), each last heard at now with the given initial timeout.
func NewPeers(n int, now, timeout time.Duration) []Peer {
	ps := make([]Peer, n+1)
	for i := range ps {
		ps[i] = Peer{Heard: now, Timeout: timeout}
	}
	return ps
}
