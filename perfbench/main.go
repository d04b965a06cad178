// Command perfbench is the end-to-end benchmark of the MVEE reproduction.
// It runs one named workload under the MVEE (2 variants, wall-of-clocks
// agent, ASLR, layout seeds drawn from --seed) for --seconds of timed work,
// checks every output against a computation made apart from the program,
// and prints the workload's metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// With --trace 0 the metrics are the end-to-end figures a user sees; the
// measured path carries no timing wrappers. With --trace 1 a separate
// traced run times the calls into each layer's public functions from
// outside and prints the per-layer metrics plus the tracing overhead.
//
// See README.md in this directory for the workloads, the layer →
// end-to-end map and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// hardLimit ends a run that overstays its budget (a wedge the per-operation
// watchdogs did not catch) without printing a result.
const hardLimit = 170 * time.Second

// workloads maps a workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run   func(cfg config) *result
	trace func(cfg config) *result
}{
	"parsec-sync":     {runParsec(parsecSync), traceParsec(parsecSync)},
	"parsec-syscall":  {runParsec(parsecSyscall), traceParsec(parsecSyscall)},
	"nginx-keepalive": {runKeepAlive, traceKeepAlive},
	"gateway-connect": {runGateway, traceGateway},
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds time.Duration
}

func main() {
	name := flag.String("workload", "", "workload: parsec-sync, parsec-syscall, nginx-keepalive or gateway-connect")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	reference := flag.Bool("reference", false, "print the reference figures (native/TO/PO/WoC slowdowns, nginx overhead) and exit")
	flag.Parse()

	time.AfterFunc(hardLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v; aborting without a result\n", hardLimit)
		os.Exit(3)
	})
	printHost()
	if *reference {
		printReference(*seed)
		return
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of parsec-sync, parsec-syscall, nginx-keepalive, gateway-connect), --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second))}
	var res *result
	if *trace == 1 {
		res = w.trace(cfg)
	} else {
		res = w.run(cfg)
	}
	res.print()
}

// printHost prints the host facts every result is read against.
func printHost() {
	// The revision is stamped only when the build ran inside a git
	// checkout; an exported source tree reports "unknown".
	commit, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s commit=%s%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, dirty)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the operation counts, the output checks and
// the metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	checks []string // failed output checks, printed before the JSON line
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metric{}}
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// check records an output check; a false ok marks the run incorrect.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.Correct = false
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

func (r *result) print() {
	for _, c := range r.checks {
		fmt.Printf("check FAILED: %s\n", c)
	}
	if len(r.checks) == 0 {
		fmt.Println("checks: all passed")
	}
	fmt.Printf("operations: attempted=%d failed=%d\n", r.Attempted, r.Failed)
	out, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
