// Command ndbench is the repository benchmark. One process runs one
// seeded workload and prints, as its last line, a JSON object with the
// run's correctness, its operation counts and its metrics:
//
//	ndbench --workload serve-ram --seed 1 --seconds 10 --trace 0
//
// Workloads: serve-ram, serve-paged and read-write drive the serving
// stack through batcher.Search, the admission call ndserve makes per
// request; simulate drives the SearSSD simulator through
// core.System.SimulateBatch. With --trace 0 the run is untraced and
// reports the end-to-end metrics; with --trace 1 it times calls into
// each layer, writes the spans under --out, and reports the per-layer
// metrics. README.md beside this file is the glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], workloads, os.Stdout, os.Stderr))
}

// runCtx is what every workload receives: the seed its inputs come
// from, how long to measure, and, on traced runs, the span log.
type runCtx struct {
	seed    int64
	seconds time.Duration
	traced  bool
	spans   *spanLog
	outDir  string
	log     io.Writer
}

// reps is how often a workload repeats its set-up: setup_s is the
// median of n set-ups, and traced runs, which do not report it, set up
// once.
func (rc *runCtx) reps(n int) int {
	if rc.traced {
		return 1
	}
	return n
}

func (rc *runCtx) logf(format string, args ...any) {
	fmt.Fprintf(rc.log, format+"\n", args...)
}

// check is one output check; a failed check makes the run incorrect.
type check struct {
	Name   string
	OK     bool
	Detail string
}

// outcome is what a workload hands back: both metric sets (the run
// prints the one its --trace selects), operation counts, and checks.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	checks    []check
	saturated bool
	steal     float64
	loadAvg   float64
	lagP99    float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// workloadFunc runs one workload.
type workloadFunc func(rc *runCtx) (*outcome, error)

// workloads are the benchmark's workloads at their default scale.
var workloads = map[string]workloadFunc{
	"serve-ram":   func(rc *runCtx) (*outcome, error) { return runServe(rc, defaultServe(), false) },
	"serve-paged": func(rc *runCtx) (*outcome, error) { return runServe(rc, defaultPaged(), true) },
	"read-write":  func(rc *runCtx) (*outcome, error) { return runReadWrite(rc, defaultReadWrite()) },
	"simulate":    func(rc *runCtx) (*outcome, error) { return runSimulate(rc, defaultSimulate()) },
}

const workloadNames = "serve-ram, serve-paged, read-write, simulate"

// run parses the flags, runs the chosen workload from wls and prints
// the report and the result line; it returns the exit code.
func run(args []string, wls map[string]workloadFunc, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ndbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames)
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 10, "measured time of the run, in seconds")
	trace := fs.Int("trace", 0, "0: untraced end-to-end run; 1: traced per-layer run")
	out := fs.String("out", filepath.Join(".bench_build", "ndbench-out"), "directory for span files and snapshots")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := wls[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "ndbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames)
		return 2
	}
	capProcs()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "ndbench: %v\n", err)
		return 1
	}
	rc := &runCtx{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, outDir: *out, log: stdout,
	}
	if rc.traced {
		rc.spans = newSpanLog()
	}
	host := currentHost()
	rc.logf("ndbench: workload=%s seed=%d seconds=%g trace=%d %s", *name, *seed, *seconds, *trace, host)
	o, err := wl(rc)
	if err != nil {
		fmt.Fprintf(stderr, "ndbench: %s: %v\n", *name, err)
		return 1
	}
	if rc.traced {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := rc.spans.write(path); err != nil {
			fmt.Fprintf(stderr, "ndbench: %v\n", err)
			return 1
		}
		rc.logf("spans: %s (%d spans)", path, len(rc.spans.snapshot()))
	}
	res, err := assemble(o, rc.traced)
	if err != nil {
		fmt.Fprintf(stderr, "ndbench: %s: %v\n", *name, err)
		return 1
	}
	info, _ := json.Marshal(struct {
		hostInfo
		StealShare float64 `json:"steal_share"`
		LoadAvg    float64 `json:"loadavg_1m"`
		LagP99MS   float64 `json:"lag_p99_ms"`
		Saturated  bool    `json:"saturated"`
	}{host, o.steal, o.loadAvg, o.lagP99, o.saturated})
	rc.logf("run: %s", info)
	if o.saturated {
		rc.logf("run: SATURATED - the open-loop backlog grew; its latencies describe a growing queue")
	}
	for _, c := range o.checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		rc.logf("check %s: %s (%s)", c.Name, status, c.Detail)
	}
	for _, d := range defsFor(rc.traced) {
		m := res.Metrics[d.Name]
		rc.logf("metric %-28s %14.6g %s", d.Name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "ndbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// assemble builds the final result line. An untraced run must have
// measured every end-to-end metric; a traced run reports 0 for a layer
// the workload does not exercise.
func assemble(o *outcome, traced bool) (result, error) {
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metricValue{}}
	for _, c := range o.checks {
		res.Correct = res.Correct && c.OK
	}
	src := o.e2e
	if traced {
		src = o.layer
	}
	var missing []string
	for _, d := range defsFor(traced) {
		v, ok := src[d.Name]
		if !ok && !traced {
			missing = append(missing, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return res, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation attempted")
	}
	return res, nil
}
