// Command lisibench is the repository's benchmark: it drives the LISI
// reproduction through its public entry points (core.OpenSession and
// Session, service.Service.Handler) on seeded workloads, verifies every
// answer by recomputing its true residual, and prints the metrics named
// in BENCHMARK.json. See README.md for the workloads, the metric
// definitions and the layer map.
//
//	go run . --workload paper-krylov --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of one workload; with
// --trace 1 it runs the per-layer suite instead (spans and probes around
// the public calls of every layer) and reports the per-layer metrics.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Workload names. The first two are BENCHMARK.json's workloads;
// serve-mixed runs inside the traced suite only (see README.md).
const (
	wlKrylov = "paper-krylov"
	wlDirect = "direct-resolve"
	wlServe  = "serve-mixed"
)

var workloads = []string{wlKrylov, wlDirect}

type errUnknownWorkload string

func (e errUnknownWorkload) Error() string {
	return fmt.Sprintf("unknown workload %q (want one of %s)", string(e), strings.Join(workloads, ", "))
}

// metricSpec declares one reported metric; the lists below must match
// BENCHMARK.json exactly (checked by TestMetricNamesMatchBenchmarkJSON).
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEndMetrics = []metricSpec{
	{"solve_s", "s", "lower"},
	{"solve_p99_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"heap_mb", "MiB", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"max_rate_rps", "1/s", "higher"},
	{"cold_latency_p50_ms", "ms", "lower"},
}

// result collects one run's outcome. Operations are library solves
// (paper-krylov, direct-resolve) or HTTP requests (serve-mixed).
type result struct {
	attempted int
	failed    int // errors, shed or refused requests, non-converged solves, verification misses
	wrong     int // verification misses alone: answers whose true residual broke the bound
	values    map[string]float64
	samples   map[string]int
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string]int{}}
}

// set records a metric value and the number of samples behind it.
func (r *result) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// op counts one verified operation.
func (r *result) op(ok, verifiedOK bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
	if !verifiedOK {
		r.wrong++
	}
}

type options struct {
	workload string
	seed     int64
	budget   time.Duration
	trace    bool
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fset := flag.NewFlagSet("lisibench", flag.ContinueOnError)
	workload := fset.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fset.Int64("seed", 1, "input seed")
	seconds := fset.Int("seconds", 30, "measurement budget of the run, in seconds")
	trace := fset.Int("trace", 0, "1 runs the traced per-layer suite instead of the end-to-end run")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "lisibench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	opt := options{workload: *workload, seed: *seed, budget: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	res, err := runWorkload(context.Background(), opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lisibench:", err)
		return 1
	}
	want := endToEndMetrics
	if opt.trace {
		want = perLayerMetrics
	}
	if err := report(os.Stdout, opt, res, want); err != nil {
		fmt.Fprintln(os.Stderr, "lisibench:", err)
		return 1
	}
	return 0
}

func runWorkload(ctx context.Context, opt options) (*result, error) {
	known := false
	for _, w := range workloads {
		known = known || w == opt.workload
	}
	if !known {
		return nil, errUnknownWorkload(opt.workload)
	}
	if opt.trace {
		return runTraced(ctx, opt)
	}
	if opt.workload == wlKrylov {
		return runKrylov(ctx, opt)
	}
	return runDirect(ctx, opt)
}

// report prints the environment record, one line per metric and, last,
// the JSON result. Every metric in want must be present and finite.
func report(w *os.File, opt options, res *result, want []metricSpec) error {
	fmt.Fprintf(w, "env workload=%s seed=%d trace=%t nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		opt.workload, opt.seed, opt.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), sourceID())
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(want))
	for _, m := range want {
		v, ok := res.values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured (value %v)", m.Name, v)
		}
		metrics[m.Name] = value{v, m.Unit}
		fmt.Fprintf(w, "metric %-34s %14.6g %-6s n=%d\n", m.Name, v, m.Unit, res.samples[m.Name])
	}
	failedFrac := float64(res.failed) / float64(max(res.attempted, 1))
	fmt.Fprintf(w, "ops attempted=%d failed=%d failed_frac=%.6g wrong_answers=%d\n",
		res.attempted, res.failed, failedFrac, res.wrong)
	if res.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.wrong == 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

// sourceID names the measured code: the VCS revision when the binary was
// built inside a git checkout, otherwise a digest of the program's Go
// sources (the benchmark's own directory excluded), so runs from an
// exported tree can still be matched to the code they measured.
func sourceID() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || p == "lisibench" || p == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || p == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if len(files) == 0 {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
