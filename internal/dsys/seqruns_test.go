package dsys

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// checkSeqRuns verifies s against a map oracle: the runs are sorted,
// disjoint and non-adjacent, hold exactly the oracle's members, and number
// exactly the oracle's maximal consecutive stretches.
func checkSeqRuns(t *testing.T, s *SeqRuns, oracle map[int64]bool) {
	t.Helper()
	for i, r := range s.runs {
		if r.lo > r.hi {
			t.Fatalf("run %d inverted: %+v", i, r)
		}
		// runs[i+1].lo > runs[i].hi >= MinInt64, so lo-1 cannot underflow.
		if i > 0 && s.runs[i-1].hi >= r.lo-1 {
			t.Fatalf("runs %d,%d overlap or touch: %+v %+v", i-1, i, s.runs[i-1], r)
		}
	}
	keys := make([]int64, 0, len(oracle))
	for k := range oracle {
		keys = append(keys, k)
		if !s.Has(k) {
			t.Fatalf("Has(%d) = false for a member", k)
		}
		// Neighbours: members exactly when the oracle says so (wrapping at
		// the int64 edges probes the other end, which is fine).
		for _, nb := range []int64{k - 1, k + 1} {
			if s.Has(nb) != oracle[nb] {
				t.Fatalf("Has(%d) = %v, oracle %v", nb, s.Has(nb), oracle[nb])
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	want := 0
	for i, k := range keys {
		if i == 0 || keys[i-1] != k-1 {
			want++
		}
	}
	if s.Runs() != want {
		t.Fatalf("Runs() = %d, want %d (runs %+v)", s.Runs(), want, s.runs)
	}
	var size uint64
	for _, r := range s.runs {
		size += uint64(r.hi-r.lo) + 1
	}
	if size != uint64(len(oracle)) {
		t.Fatalf("runs hold %d numbers, oracle %d", size, len(oracle))
	}
}

// addAll inserts seqs in order, checking each Add's verdict against the
// oracle, and returns the oracle.
func addAll(t *testing.T, s *SeqRuns, seqs []int64) map[int64]bool {
	t.Helper()
	oracle := map[int64]bool{}
	for _, q := range seqs {
		if got := s.Add(q); got == oracle[q] {
			t.Fatalf("Add(%d) = %v with oracle membership %v", q, got, oracle[q])
		}
		oracle[q] = true
	}
	return oracle
}

func TestSeqRunsMerges(t *testing.T) {
	for _, tc := range []struct {
		name string
		seqs []int64
		runs int
	}{
		{"in order", []int64{1, 2, 3, 4}, 1},
		{"fill gap merges both sides", []int64{1, 3, 2}, 1},
		{"extend left side", []int64{5, 9, 6}, 2},
		{"extend right side", []int64{5, 9, 8}, 2},
		{"prepend", []int64{5, 4, 3}, 1},
		{"insert between", []int64{1, 10, 5}, 3},
		{"duplicates", []int64{2, 2, 1, 2, 1, 3, 3}, 1},
		{"reverse", []int64{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, 1},
		{"zero and negatives", []int64{0, -1, 1, -3, -2}, 1},
		{"max edge", []int64{math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64}, 1},
		{"min edge", []int64{math.MinInt64, math.MinInt64 + 1, math.MinInt64}, 1},
		// MaxInt64+1 wraps to MinInt64; the two must not merge.
		{"no wrap across the ends", []int64{math.MaxInt64, math.MinInt64}, 2},
		{"no wrap, other order", []int64{math.MinInt64, math.MaxInt64}, 2},
		// ecnode stamps SeqBase with wall-clock nanoseconds per incarnation.
		{"restart jump", []int64{1, 2, 3, 1_700_000_000_000_000_001, 1_700_000_000_000_000_002, 1_800_000_000_000_000_001}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var s SeqRuns
			oracle := addAll(t, &s, tc.seqs)
			checkSeqRuns(t, &s, oracle)
			if s.Runs() != tc.runs {
				t.Fatalf("Runs() = %d, want %d", s.Runs(), tc.runs)
			}
		})
	}
}

func TestSeqRunsRandomOrdersMatchOracle(t *testing.T) {
	edges := []int64{0, -1, 1, math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var seqs []int64
		// A dense stretch, a few restart jumps, scattered hostiles and edges,
		// then duplicates of everything, all in a random order.
		base := int64(0)
		for inc := 0; inc < 1+rng.Intn(3); inc++ {
			n := rng.Intn(60)
			for i := 1; i <= n; i++ {
				seqs = append(seqs, base+int64(i))
			}
			base = 1_700_000_000_000_000_000 + rng.Int63n(1<<40)
		}
		for i := rng.Intn(20); i > 0; i-- {
			seqs = append(seqs, rng.Int63()-rng.Int63())
		}
		for i := rng.Intn(4); i > 0; i-- {
			seqs = append(seqs, edges[rng.Intn(len(edges))])
		}
		for i := rng.Intn(len(seqs) + 1); i > 0; i-- {
			seqs = append(seqs, seqs[rng.Intn(len(seqs))])
		}
		rng.Shuffle(len(seqs), func(i, j int) { seqs[i], seqs[j] = seqs[j], seqs[i] })
		var s SeqRuns
		oracle := addAll(t, &s, seqs)
		checkSeqRuns(t, &s, oracle)
	}
}

func TestSeqRunsInOrderStaysOneRun(t *testing.T) {
	var s SeqRuns
	for q := int64(1); q <= 100_000; q++ {
		if !s.Add(q) {
			t.Fatalf("Add(%d) reported a duplicate", q)
		}
	}
	if s.Runs() != 1 || !s.Has(1) || !s.Has(100_000) || s.Has(0) || s.Has(100_001) {
		t.Fatalf("in-order stream: %d runs %+v", s.Runs(), s.runs)
	}
	if n := testing.AllocsPerRun(100, func() { s.Add(s.runs[0].hi + 1) }); n != 0 {
		t.Fatalf("in-order Add allocates %v times", n)
	}
}

// FuzzSeqRuns drives SeqRuns with arbitrary insertion sequences and checks it
// against a map oracle. Each input byte is one Add: 0xff followed by eight
// bytes inserts that raw int64, anything else inserts base plus the byte as
// a signed offset (wrapping at the int64 edges), so inputs mix dense merges,
// duplicates and scattered far jumps.
func FuzzSeqRuns(f *testing.F) {
	f.Add([]byte{1, 3, 2}, int64(0))
	f.Add([]byte{5, 5, 4, 6, 0x80, 0x7f}, int64(-3))
	f.Add([]byte{0, 1, 2}, int64(math.MaxInt64-1))
	f.Add([]byte{0xfe, 0, 2}, int64(math.MinInt64+1))
	f.Add(append([]byte{1, 0xff}, binary.LittleEndian.AppendUint64(nil, 1_700_000_000_000_000_000)...), int64(0))
	f.Fuzz(func(t *testing.T, data []byte, base int64) {
		var seqs []int64
		for i := 0; i < len(data); i++ {
			if data[i] == 0xff && i+8 < len(data) {
				seqs = append(seqs, int64(binary.LittleEndian.Uint64(data[i+1:i+9])))
				i += 8
				continue
			}
			seqs = append(seqs, base+int64(int8(data[i])))
		}
		var s SeqRuns
		oracle := addAll(t, &s, seqs)
		checkSeqRuns(t, &s, oracle)
	})
}
