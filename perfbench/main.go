// Command perfbench is the repository benchmark. It runs one of four
// workloads — fd-scale, log-sim, log-live, ecnode-closed — through the
// layers' public entry points, checks the workload's outputs with an oracle,
// and prints one JSON result line whose metrics are the end-to-end metrics
// of BENCHMARK.json (untraced run) or its per-layer metrics (--trace 1).
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1 [--record FILE]
//	perfbench summarize FILE...
//	perfbench compare OLD NEW
//
// It must run from the repository root: it reads BENCHMARK.json there and
// builds cmd/ecnode for the ecnode-closed workload. README.md in this
// directory documents the workloads, the metrics and the compare rule.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
)

// params are one run's inputs.
type params struct {
	seed    int64
	seconds int
	traced  bool
}

// outcome is what a workload run produces: the op counts and oracle verdict
// for the result line, one value per metric, the per-round raw values behind
// them, and extra figures (sample counts, lost commands) for the record.
type outcome struct {
	attempted, failed int64
	problems          []string
	values            map[string]float64
	raw               map[string][]float64
	extra             map[string]float64
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, raw: map[string][]float64{}, extra: map[string]float64{}}
}

// tracedRounds is how many rounds a traced run makes, untraced and traced
// in turn, so the tracing overhead compares rounds taken close together.
const tracedRounds = 4

// roundsFor is how many rounds a run makes: n for an untraced run.
func roundsFor(p params, n int) int {
	if p.traced {
		return tracedRounds
	}
	return n
}

// tracedRound reports whether round r of the run is traced.
func tracedRound(p params, r int) bool { return p.traced && r%2 == 1 }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// round appends one round's value of name to its raw values.
func (o *outcome) round(name string, v float64) { o.raw[name] = append(o.raw[name], v) }

// medianOfRounds sets every metric that has per-round raw values to their
// median.
func (o *outcome) medianOfRounds() {
	for name, v := range o.raw {
		o.values[name] = median(v)
	}
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(params) (*outcome, error){
	"fd-scale":      runFDScale,
	"log-sim":       runLogSim,
	"log-live":      runLogLive,
	"ecnode-closed": runEcnodeClosed,
}

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []specMetric            `json:"end_to_end"`
	PerLayer  []specMetric            `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as --record stores it: the result line plus what the
// summary and compare modes need.
type record struct {
	Workload    string               `json:"workload"`
	Seed        int64                `json:"seed"`
	Seconds     int                  `json:"seconds"`
	Trace       bool                 `json:"trace"`
	Result      result               `json:"result"`
	Raw         map[string][]float64 `json:"raw"`
	Extra       map[string]float64   `json:"extra"`
	Problems    []string             `json:"problems,omitempty"`
	Fingerprint fingerprint          `json:"fingerprint"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "summarize":
			exitOn(summarize(os.Args[2:]))
			return
		case "compare":
			exitOn(compare(os.Args[2:]))
			return
		}
	}
	workload := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "workload seed: simulator seeds, payloads and op order derive from it")
	seconds := flag.Int("seconds", 10, "measurement budget in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	recordPath := flag.String("record", "", "append the full run record (raw values, fingerprint) to this JSON-lines file")
	flag.Parse()
	exitOn(run(*workload, *seed, *seconds, *traceFlag == 1, *recordPath))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, traced bool, recordPath string) error {
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	steal0, total0 := cpuTicks()
	out, err := fn(params{seed: seed, seconds: seconds, traced: traced})
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	// The share of the run's CPU time the hypervisor gave to other guests:
	// wall-clock metrics move with it, so the record keeps it.
	if steal1, total1 := cpuTicks(); total1 > total0 {
		out.extra["host_steal_share"] = float64(steal1-steal0) / float64(total1-total0)
	}
	want := sp.EndToEnd
	if traced {
		want = sp.PerLayer
	}
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(want)),
	}
	for _, m := range want {
		v, ok := out.values[m.Name]
		if !ok {
			return fmt.Errorf("%s produced no value for metric %s", workload, m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if res.Attempted < 1 {
		res.Correct = false
		out.problemf("no operation attempted")
	}
	// Ops failed, lost or wrong over ops attempted; commands lost with a
	// crashed origin are outside attempted (see README.md).
	lost := int64(out.extra["lost_with_crash"])
	out.extra["failed_share"] = float64(out.failed+lost) / float64(max(1, out.attempted+lost))
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "oracle:", p)
	}
	if recordPath != "" {
		rec := record{Workload: workload, Seed: seed, Seconds: seconds, Trace: traced, Result: res,
			Raw: out.raw, Extra: out.extra, Problems: out.problems, Fingerprint: machineFingerprint()}
		if err := appendJSONLine(recordPath, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func appendJSONLine(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
