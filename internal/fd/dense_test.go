package fd_test

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/dsys"
	"repro/internal/fd"
)

// TestBitsetMatchesSet drives a Bitset and the map-based Set through the
// same random Add/Remove sequence — including IDs outside 1..n, which the
// Bitset must ignore — at sizes around the 64-bit word boundaries, and
// requires identical membership, Members order and first non-member.
func TestBitsetMatchesSet(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 129, 300} {
		r := rand.New(rand.NewSource(int64(n)))
		b := fd.NewBitset(n)
		ref := fd.Set{}
		for step := 0; step < 4*n+50; step++ {
			id := dsys.ProcessID(r.Intn(n+4) - 2) // -2..n+1
			inRange := id >= 1 && int(id) <= n
			if r.Intn(3) == 0 {
				b.Remove(id)
				ref.Remove(id)
			} else {
				b.Add(id)
				if inRange {
					ref.Add(id)
				}
			}
			if !reflect.DeepEqual(b.Members(), ref.Members()) {
				t.Fatalf("n=%d step %d: Members %v, want %v", n, step, b.Members(), ref.Members())
			}
			if got, want := b.FirstAbsent(), fd.FirstNonSuspected(ref, n); got != want {
				t.Fatalf("n=%d step %d: FirstAbsent %v, want %v", n, step, got, want)
			}
			if b.Has(id) != ref.Has(id) {
				t.Fatalf("n=%d step %d: Has(%v) = %v", n, step, id, b.Has(id))
			}
		}
		// Fill completely: no process left to trust.
		for q := 1; q <= n; q++ {
			b.Add(dsys.ProcessID(q))
		}
		if got := b.FirstAbsent(); got != dsys.None {
			t.Fatalf("n=%d full set: FirstAbsent %v, want none", n, got)
		}
	}
}

// TestBitsetMembersCacheNeverMutated pins the sharing contract of the
// cached payload: Members returns the same slice until the set changes, a
// change yields a fresh slice, and a slice already handed out keeps its
// contents.
func TestBitsetMembersCacheNeverMutated(t *testing.T) {
	b := fd.NewBitset(10)
	b.Add(3)
	b.Add(7)
	first := b.Members()
	if again := b.Members(); &again[0] != &first[0] {
		t.Fatal("unchanged set rebuilt its Members slice")
	}
	b.Add(3) // already a member: no change, cache kept
	if again := b.Members(); &again[0] != &first[0] {
		t.Fatal("no-op Add dropped the cached Members slice")
	}
	b.Remove(7)
	b.Add(1)
	second := b.Members()
	if !reflect.DeepEqual(first, []dsys.ProcessID{3, 7}) {
		t.Fatalf("published slice changed to %v", first)
	}
	if !reflect.DeepEqual(second, []dsys.ProcessID{1, 3}) {
		t.Fatalf("Members = %v, want [p1 p3]", second)
	}
	empty := fd.NewBitset(4)
	if m := empty.Members(); m == nil || len(m) != 0 {
		t.Fatalf("empty Members = %#v, want a non-nil empty slice", m)
	}
	snap := b.Snapshot()
	snap.Add(9)
	if b.Has(9) {
		t.Fatal("Snapshot() aliases the Bitset")
	}
}

func TestBitsetEqualAndClear(t *testing.T) {
	a, b := fd.NewBitset(70), fd.NewBitset(70)
	a.Add(69)
	if a.Equal(&b) {
		t.Fatal("sets differing in the second word compare equal")
	}
	b.Add(69)
	if !a.Equal(&b) {
		t.Fatal("equal sets compare unequal")
	}
	a.Clear()
	if a.Has(69) || len(a.Members()) != 0 {
		t.Fatal("Clear left members")
	}
}

// TestWatchersTargets checks the heartbeat-target list: sorted, deduplicated
// against the successor, expired requests dropped, renewals extending.
func TestWatchersTargets(t *testing.T) {
	var w fd.Watchers
	w.Watch(7, 10*time.Millisecond)
	w.Watch(2, 30*time.Millisecond)
	w.Watch(5, 20*time.Millisecond)
	w.Watch(7, 40*time.Millisecond) // renewal
	if got := w.Targets(nil, 5, 0); !reflect.DeepEqual(got, []dsys.ProcessID{2, 5, 7}) {
		t.Fatalf("Targets = %v, want [p2 p5 p7]", got)
	}
	if got := w.Targets(nil, dsys.None, 25*time.Millisecond); !reflect.DeepEqual(got, []dsys.ProcessID{2, 7}) {
		t.Fatalf("Targets after p5 expired = %v, want [p2 p7]", got)
	}
	if got := w.Targets(nil, 3, 40*time.Millisecond); !reflect.DeepEqual(got, []dsys.ProcessID{3}) {
		t.Fatalf("Targets after all expired = %v, want [p3]", got)
	}
}
