package dsys

// SeqRuns is an exact set of int64 sequence numbers, stored as sorted,
// disjoint, non-adjacent inclusive runs [lo, hi]. It is the deduplication
// state of a stream whose sequence numbers mostly arrive in order: an
// in-order Add extends the last run in O(1), so a stream that never skips a
// number costs one run however long it runs, and memory grows with the gaps
// in the set, not with its size. Out-of-order and duplicate numbers stay
// exact — there is no high-water-mark shortcut — and a lookup among k runs
// is a binary search, O(log k), however hostile the numbers.
//
// The zero value is an empty set. A SeqRuns is not safe for concurrent use.
type SeqRuns struct {
	runs []seqRun
}

type seqRun struct{ lo, hi int64 }

// search returns the index of the first run whose hi is >= seq (len(runs)
// if there is none).
func (s *SeqRuns) search(seq int64) int {
	lo, hi := 0, len(s.runs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.runs[mid].hi < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Has reports whether seq is in the set.
func (s *SeqRuns) Has(seq int64) bool {
	i := s.search(seq)
	return i < len(s.runs) && s.runs[i].lo <= seq
}

// Add inserts seq and reports whether it was new.
func (s *SeqRuns) Add(seq int64) bool {
	n := len(s.runs)
	if n > 0 {
		// Fast path: the next number after the last run, or past it
		// (last.hi < seq, so last.hi+1 cannot overflow).
		if last := &s.runs[n-1]; seq > last.hi {
			if seq == last.hi+1 {
				last.hi = seq
			} else {
				s.runs = append(s.runs, seqRun{seq, seq})
			}
			return true
		}
	}
	i := s.search(seq)
	if i < n && s.runs[i].lo <= seq {
		return false
	}
	// seq lies strictly between runs[i-1].hi and runs[i].lo, so neither
	// adjacency test below can overflow.
	left := i > 0 && s.runs[i-1].hi+1 == seq
	right := i < n && s.runs[i].lo-1 == seq
	switch {
	case left && right:
		s.runs[i-1].hi = s.runs[i].hi
		s.runs = append(s.runs[:i], s.runs[i+1:]...)
	case left:
		s.runs[i-1].hi = seq
	case right:
		s.runs[i].lo = seq
	default:
		s.runs = append(s.runs, seqRun{})
		copy(s.runs[i+1:], s.runs[i:])
		s.runs[i] = seqRun{seq, seq}
	}
	return true
}

// Runs returns the number of disjoint runs the set is stored as — its
// memory footprint in units of two int64s.
func (s *SeqRuns) Runs() int { return len(s.runs) }
