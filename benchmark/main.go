// Command benchmark is the repository's benchmark: it runs one workload
// against the program under test, checks every answer, and prints the
// result as one JSON line. Run it from the repository root through the
// wrapper, which builds it first:
//
//	bash benchmark/run.sh -workload theorem1 -seed 0 -seconds 20 -trace 0
//	bash benchmark/run.sh -compare A.json… -- B.json…
//
// Workloads: theorem1 (qclique.SolveAPSP, the paper's pipeline), serve-read
// and serve-write (the apspd daemon over loopback HTTP). With -trace the
// run profiles the worker process, attributes its CPU time to layers, times
// each layer through probes, and writes its spans; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"time"
)

// metric declares one reported metric; BENCHMARK.json lists the same.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics an untraced run reports, for every workload.
// Times are CPU times of the process under test: on a shared host the
// kernel leaves out the time other guests take, which wall time includes
// (see README.md). Wall latencies are recorded as diagnostics.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"op_cpu_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run reports, for every workload. A
// layer a workload does not exercise reads 0.
var perLayer = func() []metric {
	var ms []metric
	for _, l := range layers {
		ms = append(ms, metric{l + ".cpu_share", "ratio", "lower"})
	}
	return append(ms, []metric{
		{"proc.cpu_util", "ratio", "higher"},
		{"engine.square_ms", "ms", "lower"},
		{"engine.stage_cover_frac", "ratio", "higher"},
		{"congest.rounds_per_solve", "count", "lower"},
		{"congest.words_per_solve", "count", "lower"},
		{"distprod.findedges_per_solve", "count", "lower"},
		{"distprod.product_ms", "ms", "lower"},
		{"triangles.promise_ms", "ms", "lower"},
		{"qsearch.multisearch_ms", "ms", "lower"},
		{"quantum.search_us", "us", "lower"},
		{"congest.exchange_balanced_ms", "ms", "lower"},
		{"congest.charge_balanced_ms", "ms", "lower"},
		{"par.for_us", "us", "lower"},
		{"par.theorem1_speedup", "ratio", "higher"},
		{"matrix.minplus_ms", "ms", "lower"},
		{"matrix.minplus_w1_ms", "ms", "lower"},
		{"par.minplus_speedup", "ratio", "higher"},
		{"serve.put_graph_ms", "ms", "lower"},
		{"serve.miss_ms", "ms", "lower"},
		{"serve.hit_us", "us", "lower"},
		{"serve.paths_batch_us", "us", "lower"},
		{"http.put_graph_ms", "ms", "lower"},
		{"http.healthz_us", "us", "lower"},
		{"http.dist_full_ms", "ms", "lower"},
		{"serve.hit_ratio", "ratio", "higher"},
		{"serve.queued_frac", "ratio", "lower"},
		{"serve.shed", "count", "lower"},
		{"loadgen.late_ms", "ms", "lower"},
		{"trace.overhead_frac", "ratio", "lower"},
	}...)
}()

// workloads maps each workload name to its runner.
var workloads = map[string]func(*config) (*outcome, error){
	"theorem1":    runTheorem1,
	"serve-read":  runServeRead,
	"serve-write": runServeWrite,
}

// setupReps is how often a run sets its workload up; setup_s is the median.
const setupReps = 5

type config struct {
	workload string
	seed     uint64
	length   time.Duration
	trace    bool
	binDir   string
	outDir   string // spans and profiles of this run
	spans    *spanLog
	origin   time.Time
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	firstFailure      string
	metrics           map[string]float64
	// diag holds values worth recording that no gate reads, such as
	// sample counts and tail percentiles.
	diag map[string]float64
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, diag: map[string]float64{}}
}

// check counts one attempted operation, failed when err is non-nil.
func (o *outcome) check(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if o.firstFailure == "" {
			o.firstFailure = err.Error()
		}
	}
}

// setLatency records the median of per-operation wall latencies in ms, the
// sample count, and every tail percentile the sample supports. None is
// gated: on a shared host they move from run to run by more than any bound
// would allow (see README.md).
func setLatency(oc *outcome, ms []float64) {
	oc.diag["p50_ms"] = median(ms)
	oc.diag["samples"] = float64(len(ms))
	for _, p := range []float64{0.90, 0.99, 0.999} {
		if tailSupported(len(ms), p) {
			oc.diag[fmt.Sprintf("p%g_ms", p*100)] = percentile(ms, p)
		}
	}
}

func setShares(oc *outcome, shares map[string]float64) {
	for l, v := range shares {
		oc.metrics[l+".cpu_share"] = v
	}
}

// notExercised reports 0 for per-layer metrics of layers the workload does
// not reach.
func notExercised(oc *outcome, names ...string) {
	for _, n := range names {
		oc.metrics[n] = 0
	}
}

// value is one metric value as printed.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// host records where a run was measured; -compare refuses to mix hosts
// of different shape.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// record is what -out writes and -compare reads.
type record struct {
	Workload     string             `json:"workload"`
	Seed         uint64             `json:"seed"`
	Seconds      float64            `json:"seconds"`
	Trace        bool               `json:"trace"`
	Host         host               `json:"host"`
	Result       result             `json:"result"`
	Diagnostics  map[string]float64 `json:"diagnostics"`
	FirstFailure string             `json:"first_failure,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "theorem1", "theorem1, serve-read or serve-write")
	seed := fs.Uint64("seed", 0, "input seed")
	seconds := fs.Float64("seconds", 20, "measured length of the run")
	trace := fs.Bool("trace", false, "profile, attribute CPU to layers, run the layer probes and write spans")
	binDir := fs.String("bin", ".bench_build/bin", "where the programs under test are built")
	outDir := fs.String("outdir", ".bench_build/out", "where traced runs leave spans and profiles")
	out := fs.String("out", "", "also write the run's record (result, host, diagnostics) to this file")
	compare := fs.Bool("compare", false, "compare two sets of records: -compare A.json… -- B.json…")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if *compare {
		if err := compareRecords(stdout, fs.Args(), "BENCHMARK.json"); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	start, ok := workloads[*workload]
	if !ok || fs.NArg() > 0 || *seconds <= 0 {
		fmt.Fprintf(stderr, "benchmark: want -workload theorem1|serve-read|serve-write and -seconds > 0\n")
		return 2
	}
	h := host{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
	// The programs are built from two directories, so the bin path must
	// not be relative.
	bin, err := filepath.Abs(*binDir)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	cfg := &config{
		workload: *workload, seed: *seed, trace: *trace, binDir: bin,
		length: time.Duration(*seconds * float64(time.Second)), origin: time.Now(),
	}
	if *trace {
		cfg.spans = &spanLog{origin: cfg.origin}
		cfg.outDir = filepath.Join(*outDir, fmt.Sprintf("%s-seed%d", *workload, *seed))
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	hostBefore := hostRefMs()
	oc, err := start(cfg)
	if err == nil && *trace {
		err = runProbes(cfg, oc)
	}
	if err == nil && *trace {
		err = cfg.spans.write(filepath.Join(cfg.outDir, "spans.jsonl"))
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	oc.diag["host.ref_ms_before"], oc.diag["host.ref_ms_after"] = hostBefore, hostRefMs()
	defs := endToEnd
	if *trace {
		defs = perLayer
	}
	res := result{Correct: oc.failed == 0, Attempted: oc.attempted, Failed: oc.failed, Metrics: map[string]value{}}
	for _, m := range defs {
		v, ok := oc.metrics[m.Name]
		if !ok || math.IsNaN(v) {
			fmt.Fprintf(stderr, "benchmark: %s did not measure %s\n", *workload, m.Name)
			return 1
		}
		res.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	rec := record{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace, Host: h,
		Result: res, Diagnostics: oc.diag, FirstFailure: oc.firstFailure,
	}
	printReport(stderr, rec, defs)
	if *out != "" {
		b, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

var refSink uint64

// hostRefMs times a fixed single-threaded loop, the median of five. The
// host's other tenants can slow every timing of a run severalfold; the
// loop's time before and after the run, recorded with it, shows whether
// they did.
func hostRefMs() float64 {
	ms := make([]float64, 5)
	for i := range ms {
		t := time.Now()
		x := uint64(1)
		for j := 0; j < 5_000_000; j++ {
			x = x*6364136223846793005 + 1442695040888963407
			x ^= x >> 17
		}
		refSink += x
		ms[i] = float64(time.Since(t)) / 1e6
	}
	return median(ms)
}

// normalizeArgs lets a boolean flag take its value as the next argument
// ("-trace 0"), as the flag package only accepts "-trace=0".
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// printReport writes the human-readable form of a run: every metric with
// its unit, then the diagnostics.
func printReport(w io.Writer, rec record, defs []metric) {
	fmt.Fprintf(w, "%s seed=%d seconds=%g trace=%v nproc=%d gomaxprocs=%d %s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Host.NProc, rec.Host.GOMAXPROCS, rec.Host.Go)
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d\n", rec.Result.Correct, rec.Result.Attempted, rec.Result.Failed)
	if rec.FirstFailure != "" {
		fmt.Fprintf(w, "  first failure: %s\n", rec.FirstFailure)
	}
	for _, m := range defs {
		v := rec.Result.Metrics[m.Name]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", m.Name, v.Value, v.Unit)
	}
	if rec.Trace {
		// The layer table: where the worker's CPU time went, largest first.
		byShare := slices.Clone(layers)
		share := func(l string) float64 { return rec.Result.Metrics[l+".cpu_share"].Value }
		sort.SliceStable(byShare, func(i, j int) bool { return share(byShare[i]) > share(byShare[j]) })
		fmt.Fprintf(w, "  CPU by layer:")
		for _, l := range byShare {
			if share(l) > 0 {
				fmt.Fprintf(w, " %s %.1f%%", l, 100*share(l))
			}
		}
		fmt.Fprintln(w)
	}
	keys := make([]string, 0, len(rec.Diagnostics))
	for k := range rec.Diagnostics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  (diag) %-25s %14.6g\n", k, rec.Diagnostics[k])
	}
}

// build compiles one program the benchmark drives into the bin directory:
// apspd from the repository, the others from the benchmark's module. It
// runs from the repository root.
func build(cfg *config, name string) (string, error) {
	out := filepath.Join(cfg.binDir, name)
	cmd := exec.Command("go", "build", "-o", out, "./"+name)
	cmd.Dir = "benchmark"
	if name == "apspd" {
		cmd = exec.Command("go", "build", "-o", out, "./cmd/apspd")
	}
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build %s: %w", name, err)
	}
	return out, nil
}
