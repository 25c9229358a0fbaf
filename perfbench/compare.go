package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"text/tabwriter"
)

// readRecords loads the run records --record appended to the given files.
func readRecords(paths ...string) ([]record, error) {
	var recs []record
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 16<<20)
		for sc.Scan() {
			var r record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			recs = append(recs, r)
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	return recs, nil
}

// series gathers, per workload and metric, one value per untraced run.
func series(recs []record, traced bool) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range recs {
		if r.Trace != traced {
			continue
		}
		m := out[r.Workload]
		if m == nil {
			m = map[string][]float64{}
			out[r.Workload] = m
		}
		for name, v := range r.Result.Metrics {
			m[name] = append(m[name], v.Value)
		}
	}
	return out
}

type summaryMetric struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
}

type summaryWorkload struct {
	Workload string                   `json:"workload"`
	Trace    bool                     `json:"trace"`
	Seeds    []int64                  `json:"seeds"`
	Correct  bool                     `json:"all_correct"`
	Metrics  map[string]summaryMetric `json:"metrics"`
	// HostSteal is each run's host_steal_share, where the record has one.
	HostSteal []float64 `json:"host_steal_share,omitempty"`
}

// summarize prints, for every workload (and traced variant) in the records,
// each metric's per-run values, median, quartiles and spread, plus the
// machine fingerprints the runs were taken on.
func summarize(paths []string) error {
	if len(paths) == 0 {
		return errors.New("usage: perfbench summarize FILE...")
	}
	recs, err := readRecords(paths...)
	if err != nil {
		return err
	}
	var doc struct {
		Fingerprints []fingerprint      `json:"fingerprints"`
		Results      []*summaryWorkload `json:"results"`
	}
	seenFP := map[fingerprint]bool{}
	groups := map[string]*summaryWorkload{}
	var order []string
	for _, r := range recs {
		if !seenFP[r.Fingerprint] {
			seenFP[r.Fingerprint] = true
			doc.Fingerprints = append(doc.Fingerprints, r.Fingerprint)
		}
		key := fmt.Sprintf("%s/%v", r.Workload, r.Trace)
		g := groups[key]
		if g == nil {
			g = &summaryWorkload{Workload: r.Workload, Trace: r.Trace, Correct: true, Metrics: map[string]summaryMetric{}}
			groups[key] = g
			order = append(order, key)
		}
		g.Seeds = append(g.Seeds, r.Seed)
		g.Correct = g.Correct && r.Result.Correct
		if v, ok := r.Extra["host_steal_share"]; ok {
			g.HostSteal = append(g.HostSteal, v)
		}
		for _, name := range sortedKeys(r.Result.Metrics) {
			sm := g.Metrics[name]
			sm.Unit = r.Result.Metrics[name].Unit
			sm.Values = append(sm.Values, r.Result.Metrics[name].Value)
			g.Metrics[name] = sm
		}
	}
	for _, key := range order {
		g := groups[key]
		for name, sm := range g.Metrics {
			sm.Median = median(sm.Values)
			sm.Q1, sm.Q3 = quartiles(sm.Values)
			sm.Spread = spread(sm.Values)
			if math.IsInf(sm.Spread, 0) {
				sm.Spread = -1 // median 0: no relative spread
			}
			g.Metrics[name] = sm
		}
		doc.Results = append(doc.Results, g)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// verdict classifies one (metric, workload) pair between two sets of runs
// under the benchmark's rule:
//
//   - If either side's spread (interquartile distance over median) exceeds
//     the metric's bound, the pair is "unresolved" unless every new run is
//     better than every old run ("better") or every one worse ("worse").
//   - Otherwise the pair is "worse" when the new median is worse than the
//     old by more than the bound, and "better" when it is better by more
//     than the old runs' interquartile distance and the new run wins at
//     least nine tenths of the index-paired runs (ties count for neither).
//   - Anything else is "within-bound": no regression beyond the bound, and
//     no gain shown.
func verdict(m specMetric, old, cur []float64) (string, float64) {
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	mo, mn := median(old), median(cur)
	gain := sign * (mn - mo) / math.Abs(mo) // > 0 means the new runs are better
	better := func(a, b float64) bool { return sign*(a-b) > 0 }
	all := func(pred func(a, b float64) bool) bool {
		for _, a := range cur {
			for _, b := range old {
				if !pred(a, b) {
					return false
				}
			}
		}
		return true
	}
	if spread(old) > m.Bound || spread(cur) > m.Bound {
		switch {
		case all(better):
			return "better", gain
		case all(func(a, b float64) bool { return better(b, a) }):
			return "worse", gain
		}
		return "unresolved", gain
	}
	if gain < -m.Bound {
		return "worse", gain
	}
	q1, q3 := quartiles(old)
	pairs, wins := min(len(old), len(cur)), 0
	for i := 0; i < pairs; i++ {
		if better(cur[i], old[i]) {
			wins++
		}
	}
	if gain > 0 && math.Abs(mn-mo) > q3-q1 && pairs > 0 && float64(wins) >= 0.9*float64(pairs) {
		return "better", gain
	}
	return "within-bound", gain
}

// compare reports every end-to-end (metric, workload) pair of two record
// files as better, worse, within-bound or unresolved.
func compare(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare OLD.jsonl NEW.jsonl")
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	oldRecs, err := readRecords(args[0])
	if err != nil {
		return err
	}
	newRecs, err := readRecords(args[1])
	if err != nil {
		return err
	}
	oldS, newS := series(oldRecs, false), series(newRecs, false)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "workload\tmetric\tunit\told median [q1, q3]\tnew median [q1, q3]\tchange\tverdict")
	worse := 0
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			old, cur := oldS[wl.Name][m.Name], newS[wl.Name][m.Name]
			if len(old) == 0 || len(cur) == 0 {
				continue
			}
			v, gain := verdict(m, old, cur)
			if v == "worse" {
				worse++
			}
			oq1, oq3 := quartiles(old)
			nq1, nq3 := quartiles(cur)
			fmt.Fprintf(w, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%s\n",
				wl.Name, m.Name, m.Unit, median(old), oq1, oq3, median(cur), nq1, nq3, 100*gain, v)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("%d pair(s) worse; change is signed so that + is better\n", worse)
	return nil
}
